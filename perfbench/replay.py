"""Replay one kschur CLI request as staged public calls, recording spans.

Usage: python3 replay.py <cli arguments>, for example

    PYTHONPATH=src KSCHUR_CACHE_DIR=/tmp/c python3 perfbench/replay.py matrix --kind ns-to-h --k 3 --n 6

The stages run in the order the CLI runs them, each a public call whose
lru caches the next stage reuses: import, label enumeration, system build,
inverse, then the document and cache, render, expansion or verify suite.
``BasisMatrix.inverse``, ``BasisMatrix.transposed``, ``cli.matrix_document``
and ``bases.ssyt_count`` are wrapped so that calls nested inside later
stages get spans of their own, which the parent's self time excludes.

The request's stdout is hashed, not printed.  The one line printed is a
JSON report: exit code, stdout sha256, spans as [name, start, end, parent]
and the counts of each layer.
"""

import sys
import time

SPANS = []
_STACK = []


class span:
    """Context manager recording [name, start, end, parent] in SPANS."""

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        self.index = len(SPANS)
        SPANS.append([self.name, time.perf_counter(), None, _STACK[-1] if _STACK else None])
        _STACK.append(self.index)
        return self

    def __exit__(self, *exc):
        _STACK.pop()
        SPANS[self.index][2] = time.perf_counter()
        return False


with span("cli.import"):
    from kschur import cli

import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

from kschur import algebra, bases  # noqa: E402
from kschur import compositions as comp  # noqa: E402
from kschur import partitions as part  # noqa: E402
from kschur.errors import DomainError  # noqa: E402

COMPOSITION_KINDS = {"ns-to-h", "qs-to-m", "h-to-ns", "m-to-qs"}
COUNTS = {}


def add(name, value):
    COUNTS[name] = COUNTS.get(name, 0) + value


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def nnz(matrix):
    rows = getattr(matrix, "rows", None)
    if rows is None:
        return 0
    return sum(1 for row in rows for v in row if v)


def wrap(owner, attr, name, on_result=None):
    """Replace owner.attr by a wrapper that spans every call."""
    func = getattr(owner, attr, None)
    if func is None:
        return

    @functools.wraps(func)
    def traced(*args, **kwargs):
        with span(name):
            result = func(*args, **kwargs)
        if on_result is not None:
            with span("trace.count"):
                on_result(args, result)
        return result

    setattr(owner, attr, traced)


def count_inverse(args, result):
    add("algebra.dim", len(result.row_labels))
    add("algebra.nnz_in", nnz(args[0]))
    add("algebra.nnz_out", nnz(result))


wrap(algebra.BasisMatrix, "inverse", "algebra.inverse", count_inverse)
wrap(algebra.BasisMatrix, "transposed", "algebra.transpose")
wrap(cli, "matrix_document", "cli.document")
wrap(bases, "ssyt_count", "bases.ssyt_count")


def stage_composition(n, k, invert=False):
    with span("compositions.enumerate"):
        labels = comp.enumerate_compositions(n, k)
    add("compositions.labels", len(labels))
    with span("bases.build"):
        system = bases.build_schur_system(n, k)
    COUNTS["bases.build.rss_mb"] = rss_mb()
    if invert:
        with span("algebra.inverse"):
            system.S_to_H
    return system


def stage_partition(n, k, invert=False):
    with span("partitions.enumerate"):
        part.partitions_of(n, k)
    with span("bases.build"):
        system = bases.build_kschur_system(n, k)
    COUNTS["bases.build.rss_mb"] = rss_mb()
    if invert:
        with span("algebra.inverse"):
            system.s_to_h
    return system


def cache_file(kind, k, n):
    prefix = f"{kind}_k{cli.format_k(k)}_n{n}_"
    directory = cli.cache_dir()
    if not os.path.isdir(directory):
        return None
    for name in os.listdir(directory):
        if name.startswith(prefix) and name.endswith(".json"):
            return os.path.join(directory, name)
    return None


def replay_matrix(args, out):
    k, n, kind = cli.parse_k(args.k), args.n, args.kind
    if cache_file(kind, k, n) is None:
        # cold: stage what the document needs; warm: the CLI only reads
        if kind in COMPOSITION_KINDS:
            stage_composition(n, k, invert=kind == "ns-to-h")
        else:
            stage_partition(n, k, invert=kind == "kschur-to-h")
    with span("cli.cache") as cached:
        doc = cli.cached_matrix_document(kind, k, n)
    wrote = any(s[3] == cached.index and s[0] == "cli.document" for s in SPANS)
    SPANS[cached.index][0] = "cli.cache_write" if wrote else "cli.cache_read"
    COUNTS["cli.document.rss_mb"] = rss_mb()
    path = cache_file(kind, k, n)
    add("cli.cache_bytes", os.path.getsize(path) if path else 0)
    with span("cli.render"):
        text = cli.render_matrix(doc, args.format)
    out.write(text + "\n")
    return 0


def replay_expand(args, out):
    kind, index, k = cli.parse_element_spec(args.element)
    n = sum(index)
    if kind in ("H", "M", "S", "QS"):
        stage_composition(n, k, invert=(kind, args.target) == ("S", "H"))
    else:
        stage_partition(n, k, invert=(kind, args.target) == ("s", "h"))
    with span("cli.expand"), contextlib.redirect_stdout(out):
        return cli.cmd_expand(args)


def _ks(args, default):
    return [cli.parse_k(t) for t in args.k.split(",")] if args.k else default


def _max_n(args, default):
    return default if args.max_n is None else args.max_n


def stage_suite(args):
    """Build (and invert) every component the suite reads, before it runs."""
    suite = args.suite
    if suite == "appendix":
        from kschur.reference_tables import REFERENCE_MATRICES

        for tables in REFERENCE_MATRICES.values():
            for k, n in tables:
                stage_composition(n, k, invert=True)
    elif suite in ("duality", "projection", "decomposition"):
        ks = _ks(args, [2, 3, 4] if suite == "duality" else [2, 3])
        max_n = _max_n(args, 7 if suite == "duality" else 6)
        for k in ks:
            for n in range(max_n + 1):
                stage_composition(n, k, invert=suite != "decomposition")
                if suite != "duality":
                    stage_partition(n, k, invert=suite == "projection")
    elif suite == "stabilization":
        for n in range(_max_n(args, 6) + 1):
            for k in (None, n, n + 1, n + 2):
                stage_composition(n, k)
                stage_partition(n, k)
    elif suite == "omega":
        ks = _ks(args, None)
        max_k = max((k for k in ks if k is not None), default=5) if ks else 5
        with span("partitions.enumerate"):
            for k in range(1, max_k + 1):
                for n in range(_max_n(args, 10) + 1):
                    part.partitions_of(n, k)
    elif suite == "negativity":
        max_n = _max_n(args, 8)
        for k in [k for k in _ks(args, [2, 3]) if k is not None]:
            for n in range(1, max_n + 1):
                stage_composition(n, k, invert=True)
        for n in range(1, max_n + 1):
            stage_composition(n, None)


def replay_verify(args, out):
    stage_suite(args)
    with span(f"bases.verify.{args.suite}"), contextlib.redirect_stdout(out):
        return cli.cmd_verify(args)


def cache_counts(name, func):
    info = getattr(func, "cache_info", None)
    if info is not None:
        info = info()
        COUNTS[f"{name}.calls"] = info.hits + info.misses
        COUNTS[f"{name}.hits"] = info.hits


def main(argv):
    args = cli.build_parser().parse_args(argv)
    out = io.StringIO()
    handlers = {"matrix": replay_matrix, "expand": replay_expand, "verify": replay_verify}
    try:
        exit_code = handlers[args.command](args, out)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        exit_code = 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        exit_code = 2
    stdout = out.getvalue().encode()
    cache_counts("compositions.pieri_targets", comp.comp_pieri_targets)
    cache_counts("compositions.covers_up", comp.covers_up)
    cache_counts("partitions.k_pieri_targets", part.k_pieri_targets)
    cache_counts("partitions.k_conjugate", part.k_conjugate)
    COUNTS["cli.stdout_bytes"] = len(stdout)
    if args.command == "verify":
        try:
            COUNTS["bases.verify.cases"] = len(json.loads(stdout)["cases"])
        except (ValueError, KeyError):
            COUNTS["bases.verify.cases"] = 0
    report = {
        "exit": exit_code,
        "sha256": hashlib.sha256(stdout).hexdigest(),
        "stdout": stdout.decode() if args.command == "verify" else None,
        "spans": SPANS,
        "counts": COUNTS,
    }
    print(json.dumps(report, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
