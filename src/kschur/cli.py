"""Command line interface: matrix generation, Kostka queries, basis
expansions and the verification suites.

Output is deterministic byte-for-byte for fixed arguments.  Computed
matrix documents are cached on disk as the json text a json request
prints, keyed by kind, k, n and the schema version; the cache directory
comes from KSCHUR_CACHE_DIR and defaults to the user cache directory.
Writes go through a temp file and an atomic rename so concurrent
invocations stay consistent.

Exit codes: 0 success or suite pass, 1 verification failure, 2 usage or
parse error, 3 domain violation, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import tempfile

from . import bases
from .algebra import COMPOSITION_KINDS, PARTITION_KINDS
from .compositions import check_composition, enumerate_compositions
from .errors import DomainError
from .partitions import check_partition, partitions_of

SCHEMA_VERSION = "1"

# Each matrix kind as the (source, target) basis kinds it expands between.
MATRIX_KINDS = {
    "ns-to-h": ("S", "H"),
    "qs-to-m": ("QS", "M"),
    "kschur-to-h": ("s", "h"),
    "dualkschur-to-m": ("dual-s", "m"),
    "h-to-ns": ("H", "S"),
    "m-to-qs": ("M", "QS"),
}

# Each verify suite with its default --max-n and default --k list.  None
# marks a flag that the suite does not read; such a flag is refused.
VERIFY_SUITES = {
    "appendix": (None, None),
    "duality": (7, (2, 3, 4)),
    "projection": (6, (2, 3)),
    "decomposition": (6, (2, 3)),
    "stabilization": (6, None),
    "omega": (10, (5,)),
    "negativity": (8, (2, 3)),
}


# ---------------------------------------------------------------------------
# parsing and formatting helpers

def parse_k(text):
    if text == "inf":
        return None
    k = int(text)
    if k < 1:
        raise ValueError(f"k must be at least 1 or 'inf', got {text!r}")
    return k


def format_k(k):
    return "inf" if k is None else k


def parse_parts(text):
    """Comma-separated positive integers; empty string is the empty sequence."""
    text = text.strip()
    if text in ("", "[]", "()"):
        return ()
    return tuple(int(p) for p in text.split(","))


def format_composition(alpha, sep=","):
    return "[" + sep.join(str(p) for p in alpha) + "]"


def format_partition(lam, sep=","):
    return "(" + sep.join(str(p) for p in lam) + ")"


def parse_element_spec(text):
    """Parse 'KIND:INDEX@k=K', e.g. S:[1,1,1]@k=3 or dual-s:(2,1,1)@k=inf.

    Malformed indices are parse errors (exit 2), not domain violations.
    """
    if "@k=" not in text or ":" not in text:
        raise ValueError(f"bad element spec {text!r}; expected KIND:INDEX@k=K")
    head, ktext = text.rsplit("@k=", 1)
    kind, index_text = head.split(":", 1)
    kind = kind.strip()
    index_text = index_text.strip()
    k = parse_k(ktext.strip())
    try:
        if index_text.startswith("[") and index_text.endswith("]"):
            index = check_composition(parse_parts(index_text[1:-1]))
            if kind not in COMPOSITION_KINDS:
                raise ValueError(f"kind {kind!r} does not take a composition index")
        elif index_text.startswith("(") and index_text.endswith(")"):
            index = check_partition(parse_parts(index_text[1:-1]))
            if kind not in PARTITION_KINDS:
                raise ValueError(f"kind {kind!r} does not take a partition index")
        else:
            raise ValueError(f"bad index {index_text!r}; use [..] or (..)")
    except DomainError as exc:
        raise ValueError(str(exc)) from exc
    return kind, index, k


# ---------------------------------------------------------------------------
# matrix documents and cache

def _system(kind, n, k):
    """The graded system of the side that the basis kind belongs to."""
    if kind in COMPOSITION_KINDS:
        return bases.build_schur_system(n, k)
    return bases.build_kschur_system(n, k)


def _label_format(kind):
    return format_composition if kind in COMPOSITION_KINDS else format_partition


def _header(kind, k, n) -> dict:
    """Every field of the matrix document but its entries; builds no system."""
    side = enumerate_compositions if MATRIX_KINDS[kind][0] in COMPOSITION_KINDS else partitions_of
    labels = [list(label) for label in side(n, k)]
    return {
        "schema_version": SCHEMA_VERSION,
        "k": format_k(k),
        "n": n,
        "kind": kind,
        "row_labels": labels,
        "col_labels": labels,
    }


def matrix_document(kind, k, n) -> dict:
    source, target = MATRIX_KINDS[kind]
    matrix = _system(source, n, k).matrix(source, target)
    return {**_header(kind, k, n), "entries": [v for row in matrix.rows for v in row]}


def cache_dir():
    override = os.environ.get("KSCHUR_CACHE_DIR")
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME", os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(base, "kschur")


def _cache_path(kind, k, n):
    return os.path.join(cache_dir(), f"{kind}_k{format_k(k)}_n{n}_v{SCHEMA_VERSION}.json")


def _write_cache(path, text):
    """Write text to path through a temp file and an atomic rename.  The
    cache is best effort: a failed write is skipped and leaves no temp file."""
    directory = os.path.dirname(path)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError:
        return
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _document_and_json(kind, k, n):
    """The matrix document, and its json text when it was computed here.

    A cached file is served only when it equals the request's header plus
    d^2 integer entries; anything else is recomputed, encoded once, and that
    text is written over it, so the cache file holds exactly the bytes a json
    request prints.  The text is None on a cache hit.
    """
    path = _cache_path(kind, k, n)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        served = {**_header(kind, k, n), "entries": doc["entries"]}
        entries, d = served["entries"], len(served["row_labels"])
        if doc == served and type(entries) is list and len(entries) == d * d:
            if {*map(type, entries)} <= {int}:  # no bool, float or string entries
                return served, None
    except (OSError, ValueError, KeyError, TypeError):
        pass  # unreadable, not json, or not a matrix document
    doc = matrix_document(kind, k, n)
    text = render_matrix(doc, "json")
    _write_cache(path, text)
    return doc, text


def cached_matrix_document(kind, k, n) -> dict:
    """The matrix document, read from the cache only when the cached file
    matches the request; anything else is recomputed and overwritten."""
    return _document_and_json(kind, k, n)[0]


def render_matrix(doc, fmt) -> str:
    rows = len(doc["row_labels"])
    cols = len(doc["col_labels"])
    entries = doc["entries"]
    if fmt == "json":
        return json.dumps(doc, separators=(",", ":"))
    fmt_label = _label_format(MATRIX_KINDS[doc["kind"]][0])
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([""] + [fmt_label(label) for label in doc["col_labels"]])
        for r, label in enumerate(doc["row_labels"]):
            writer.writerow([fmt_label(label)] + [str(v) for v in entries[r * cols : (r + 1) * cols]])
        return out.getvalue().rstrip("\n")
    lines = ["\\bordermatrix{"]
    lines.append(
        "~ & " + " & ".join(fmt_label(l, sep=", ") for l in doc["col_labels"]) + " \\cr"
    )
    for r in range(rows):
        body = " & ".join(str(v) for v in entries[r * cols : (r + 1) * cols])
        lines.append(f"{fmt_label(doc['row_labels'][r], sep=', ')} & {body} \\cr")
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands

def cmd_matrix(args) -> int:
    k = parse_k(args.k)
    if args.n < 0:
        raise ValueError("n must be nonnegative")
    doc, text = _document_and_json(args.kind, k, args.n)
    if text is None or args.format != "json":
        text = render_matrix(doc, args.format)
    print(text)
    return 0


def cmd_kostka(args) -> int:
    shape = parse_parts(args.shape)
    content = parse_parts(args.content)
    try:
        if args.family == "partition":
            check_partition(shape)
        else:
            check_composition(shape)
        check_composition(content)
    except DomainError as exc:
        raise ValueError(str(exc)) from exc
    value = bases.kostka(shape, content, parse_k(args.k), args.family, args.order)
    print(value)
    return 0


def cmd_expand(args) -> int:
    kind, index, k = parse_element_spec(args.element)
    combo = _system(kind, sum(index), k).expand(kind, index, args.target)
    fmt = _label_format(kind)
    for term_index, coeff in combo.terms():
        print(f"{coeff}*{args.target}{fmt(term_index)}")
    return 0


def _suite_report(args):
    suite = args.suite
    default_n, default_ks = VERIFY_SUITES[suite]
    for flag, value, default in (("--max-n", args.max_n, default_n), ("--k", args.k, default_ks)):
        if value is not None and default is None:
            raise ValueError(f"the {suite} suite takes no {flag}")
    ks = [parse_k(t) for t in args.k.split(",")] if args.k else default_ks
    max_n = default_n if args.max_n is None else args.max_n
    if max_n is not None and max_n < 0:
        raise ValueError(f"--max-n must be nonnegative, got {max_n}")
    if suite == "omega" and (len(ks) != 1 or ks[0] is None):
        raise ValueError("the omega suite takes one finite --k")
    if suite == "negativity" and None in ks:
        raise ValueError("the negativity suite takes only finite --k values")
    if suite == "appendix":
        return bases.verify_appendix()
    if suite == "omega":
        return bases.verify_omega(max_n, ks[0])
    if suite == "negativity":
        return bases.verify_negativity(max_n, ks)
    # The other suites run once per degree n, and per k when they read --k.
    check = bases.stabilization_check if suite == "stabilization" else getattr(bases, f"verify_{suite}")
    k_args = [(k,) for k in ks] if ks else [()]
    cases = [c for k_arg in k_args for n in range(max_n + 1) for c in check(n, *k_arg).cases]
    parameters = {"max_n": max_n, **({"k": list(map(format_k, ks))} if ks else {})}
    return bases.VerificationReport(suite, parameters, tuple(cases))


def cmd_verify(args) -> int:
    report = _suite_report(args)
    print(json.dumps(report.to_json(), separators=(",", ":")))
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kschur",
        description="Exact Schur-like dual bases for k-bounded symmetric, "
        "quasi-symmetric and non-commutative symmetric functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_matrix = sub.add_parser("matrix", help="print a change-of-basis matrix")
    p_matrix.add_argument("--kind", required=True, choices=MATRIX_KINDS)
    p_matrix.add_argument("--k", required=True, help="bound k, or 'inf'")
    p_matrix.add_argument("--n", required=True, type=int, help="degree")
    p_matrix.add_argument("--format", default="json", choices=("json", "csv", "latex"))
    p_matrix.set_defaults(func=cmd_matrix)

    p_kostka = sub.add_parser("kostka", help="count strip chains (Kostka numbers)")
    p_kostka.add_argument("family", choices=("composition", "partition"))
    p_kostka.add_argument("shape", help="comma-separated parts")
    p_kostka.add_argument("content", help="comma-separated parts")
    p_kostka.add_argument("--k", default="inf", help="bound k, or 'inf'")
    p_kostka.add_argument("--order", default="paper", choices=("paper", "pieri"))
    p_kostka.set_defaults(func=cmd_kostka)

    p_expand = sub.add_parser("expand", help="expand a basis element")
    p_expand.add_argument("element", help="element spec, e.g. S:[1,1,1]@k=3")
    p_expand.add_argument("target", help="target basis kind, e.g. H")
    p_expand.set_defaults(func=cmd_expand)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=VERIFY_SUITES)
    p_verify.add_argument("--max-n", type=int, default=None)
    p_verify.add_argument("--k", default=None, help="comma-separated k list, e.g. 2,3")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout closed early (`| head`): exit 128 + SIGPIPE; devnull absorbs the exit flush
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
