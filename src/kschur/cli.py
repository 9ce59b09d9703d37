"""Command line interface: matrix generation, Kostka queries, basis
expansions and the verification suites.

Output is deterministic byte-for-byte for fixed arguments.  Computed
matrix documents are cached on disk as the json text a json request
prints, keyed by kind, k, n and the schema version; the cache directory
comes from KSCHUR_CACHE_DIR and defaults to the user cache directory.
A cold request streams its output from the sparse matrix rows, one row's
text at a time, into a temp file and to stdout; an atomic rename then
makes it the cache file, so concurrent invocations stay consistent.  A
cached file is served only when its bytes are exactly that text, checked
one block at a time; a warm request then copies its bytes, or renders its
rows, from the handle it checked, without holding the whole file, without
parsing it and without importing the algebra, systems or bases modules.
Only the verify command imports bases and its reference tables.  A
matrix or expand request whose degree has more than MAX_LABELS labels is
refused before any label is enumerated.

Exit codes: 0 success or suite pass, 1 verification failure, 2 usage or
parse error, 3 domain violation, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import sys
import tempfile

from .compositions import SIDE_OF, SIDES, check_composition
from .errors import DomainError

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

# The most labels a matrix or expand request may have: the d x d matrix of
# d = 16384, h-to-ns at n = 15, k = inf, is about 560 MB of json.
MAX_LABELS = 16384

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


def format_label(kind, label, sep=","):
    """A label of the basis kind, in the brackets of the kind's side."""
    opening, closing = SIDE_OF[kind].brackets
    return opening + sep.join(str(p) for p in label) + closing


def _checked_label(check, parts):
    """check(parts), with the DomainError of a malformed label turned into
    a parse error (exit 2)."""
    try:
        return check(parts)
    except DomainError as exc:
        raise ValueError(str(exc)) from exc


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
    for name, side in SIDES.items():
        opening, closing = side.brackets
        if index_text.startswith(opening) and index_text.endswith(closing):
            index = _checked_label(side.check, parse_parts(index_text[1:-1]))
            if SIDE_OF.get(kind) is not side:
                raise ValueError(f"kind {kind!r} does not take a {name} index")
            return kind, index, k
    raise ValueError(f"bad index {index_text!r}; use [..] or (..)")


# ---------------------------------------------------------------------------
# matrix documents and cache

def _system(kind, n, k):
    """The graded system of the side that the basis kind belongs to."""
    from . import systems

    if SIDE_OF[kind] is SIDES["composition"]:
        return systems.build_schur_system(n, k)
    return systems.build_kschur_system(n, k)


def _require_label_limit(kind, k, n):
    """Refuse degree n of the side of the basis kind when it has more than
    MAX_LABELS labels, counted without enumerating them.  The counts never
    fall as the degree grows, so the count stops at the first one above the
    limit."""
    for degree, count in enumerate(SIDE_OF[kind].counts(k)):
        if count > MAX_LABELS:
            raise DomainError(
                f"degree {n} at k={format_k(k)} has more than {MAX_LABELS} labels, the most a request may have"
            )
        if degree == n:
            return


def _header(kind, k, n) -> dict:
    """Every field of the matrix document but its entries; builds no system."""
    labels = [list(label) for label in SIDE_OF[MATRIX_KINDS[kind][0]].labels(n, k)]
    return {
        "schema_version": SCHEMA_VERSION,
        "k": format_k(k),
        "n": n,
        "kind": kind,
        "row_labels": labels,
        "col_labels": labels,
    }


def _matrix(kind, k, n):
    """The computed change-of-basis matrix of a matrix kind."""
    source, target = MATRIX_KINDS[kind]
    return _system(source, n, k).matrix(source, target)


def matrix_document(kind, k, n, header=None) -> dict:
    """The computed matrix document; header, when given, is _header(kind, k, n)."""
    rows = _matrix(kind, k, n).rows
    return {**(header or _header(kind, k, n)), "entries": [v for row in rows for v in row]}


def cache_dir():
    override = os.environ.get("KSCHUR_CACHE_DIR")
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: ignored, as the XDG spec says
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "kschur")


def _cache_path(kind, k, n):
    return os.path.join(cache_dir(), f"{kind}_k{format_k(k)}_n{n}_v{SCHEMA_VERSION}.json")


class _CacheWriter:
    """A best-effort write of one cache file, as a context manager: text
    goes to a temp file beside path, renamed onto path when the block ends
    without an exception.  A failed write or rename, or an exception in the
    block, drops the temp file and skips later writes; no OSError escapes."""

    def __init__(self, path):
        self.path, self.handle = path, None
        with contextlib.suppress(OSError):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, self.tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
            self.handle = os.fdopen(fd, "w", encoding="utf-8")

    def __enter__(self):
        return self

    def write(self, text):
        try:
            if self.handle is not None:
                self.handle.write(text)
        except OSError as exc:
            self.__exit__(OSError, exc, None)

    def __exit__(self, exc_type, exc, traceback):
        """Close the temp file, then rename it onto path when there was no
        exception, or remove it otherwise or when closing or renaming fails."""
        handle, self.handle = self.handle, None
        if handle is not None:
            with contextlib.suppress(OSError):
                handle.close()
                if exc_type is None:
                    os.replace(self.tmp, self.path)
                    return
            with contextlib.suppress(OSError):
                os.unlink(self.tmp)


def _json_prefix(header):
    """The json text of the document up to its first entry."""
    return json.dumps({**header, "entries": []}, separators=(",", ":"))[:-2]


# Bytes a warm request reads from its cache file at a time.
_BLOCK = 1 << 16

# A comma that no canonical json int follows up to the next comma or the end.
_NON_INT = re.compile(rb",(?!(?:0|-?[1-9][0-9]*)(?:,|\Z))")

# A run of zero entries, with the commas around it.
_ZEROS = b",0" * 8 + b","


def _canonical_entries(entries):
    """True when entries, which starts with a comma, is a comma before each
    of its canonical json ints.  Runs of zero entries are dropped before
    the scan: each is a whole field between commas, so the fields left are
    as they were, and the scan over them is faster."""
    return not _NON_INT.search(entries.replace(_ZEROS, b","))


def _blocks(handle):
    """The rest of a binary file, one block at a time."""
    return iter(lambda: handle.read(_BLOCK), b"")


def _is_canonical(handle, prefix, count):
    """True when the bytes of handle are prefix, then count canonical ints
    separated by single commas, then the closing ]}; the prefix is read in
    one piece and the entries block by block.

    Each block is checked up to its last comma, and the partial entry
    after that comma is carried into the next block, so no entry is split.
    """
    if handle.read(len(prefix)) != prefix:  # a short file reads short
        return False
    commas, pending = 0, bytearray(b",")  # a comma before every entry
    for block in _blocks(handle):
        pending += block
        last = pending.rindex(b",")
        if not _canonical_entries(pending[:last]):  # the entries end at that comma
            return False
        commas += pending.count(b",", 0, last)
        del pending[:last]
    end = len(pending) - 2
    return (
        pending.endswith(b"]}")
        and commas + pending.count(b",", 0, end) == count
        and _canonical_entries(pending[:end])
    )


def _read_cache(path, header):
    """The cached file, open in binary mode at its first entry, when its
    bytes are exactly the json that a json request for this header prints;
    None otherwise.

    The file must be the header's canonical prefix, then d^2 canonical ints
    separated by single commas, then the closing ]}.  It is checked as
    bytes, one block at a time, and never parsed: a file that parses to the
    same document but is spelled otherwise (spaces, -0, other key order,
    escapes) is refused.  The caller closes the handle.  Reading from it
    gives the bytes that were checked, even when the file is replaced
    meanwhile: a rename swaps the inode, not the bytes of an open file.
    """
    try:
        handle = open(path, "rb")
    except OSError:  # missing or unreadable
        return None
    prefix, served = _json_prefix(header).encode(), None
    try:
        if _is_canonical(handle, prefix, len(header["row_labels"]) ** 2):
            handle.seek(len(prefix))
            served = handle
    except OSError:  # a failed read refuses the file too
        pass
    finally:
        if served is None:
            handle.close()
    return served


def cached_matrix_document(kind, k, n) -> dict:
    """The matrix document, read from the cache only when the cached file
    is exactly its canonical json; anything else is recomputed and
    overwritten."""
    header = _header(kind, k, n)
    path = _cache_path(kind, k, n)
    cached = _read_cache(path, header)
    if cached is not None:
        with cached:
            cached.seek(0)
            return json.load(cached)
    doc = matrix_document(kind, k, n, header)
    with _CacheWriter(path) as cache:
        cache.write(json.dumps(doc, separators=(",", ":")))
    return doc


def _file_rows(handle, d):
    """Each row of a checked cache file's d x d entries as the comma-joined
    text of its entries, read block by block from handle, which stands at
    the first entry."""
    row = re.compile(rb"(?:[^,]*,){%d}" % d)  # a row and the comma after it
    pending = b""
    for block in _blocks(handle):
        pending += block
        start = 0
        while match := row.match(pending, start):
            yield pending[start : match.end() - 1].decode()
            start = match.end()
        pending = pending[start:]
    yield pending[:-2].decode()  # the last row ends at ]}


def _write_cached(handle, header, fmt):
    """Write a checked cache file, open at its first entry, to stdout: json
    as a copy of its bytes, csv and latex rendered from its rows."""
    if fmt == "json":
        handle.seek(0)
        sys.stdout.flush()  # the bytes go past the text layer
        shutil.copyfileobj(handle, sys.stdout.buffer, _BLOCK)
        sys.stdout.buffer.write(b"\n")
    else:
        _write_table(sys.stdout, header, _file_rows(handle, len(header["row_labels"])), fmt)


def _row_texts(matrix):
    """Each sparse row of a computed matrix as the comma-joined text of all
    its entries: the nonzeros spliced between runs of zeros, which are
    slices of one string of "0," repeats."""
    d = len(matrix.col_labels)
    zeros = "0," * d
    for cols, vals in zip(matrix.cols, matrix.vals):
        parts, start = [], 0
        for c, v in zip(cols, vals):
            parts += zeros[: 2 * (c - start)], str(v), ","
            start = c + 1
        parts.append(zeros[: 2 * (d - start)])
        yield "".join(parts)[:-1]


def _json_rows(prefix, rows, write):
    """Yield rows, each once write has written it as the next entries of
    a json document, the first after the document's prefix."""
    sep = prefix
    for row in rows:
        write(sep)
        write(row)
        sep = ","
        yield row


def _write_table(out, header, rows, fmt, prefix=None):
    """Write the matrix to out as json, csv or latex, line by line; rows
    yields each row as the comma-joined text of its entries, and the json
    text starts with prefix, the _json_prefix of header."""
    if fmt == "json":
        for _ in _json_rows(prefix, rows, out.write):
            pass
        out.write("]}\n")
        return
    source = MATRIX_KINDS[header["kind"]][0]
    if fmt == "csv":
        # Entries are ints and never need quoting; a label does when it holds a comma.
        def field(label):
            text = format_label(source, label)
            return f'"{text}"' if "," in text else text

        out.write("," + ",".join(map(field, header["col_labels"])) + "\n")
        for label, row in zip(header["row_labels"], rows):
            out.write(f"{field(label)},{row}\n")
        return
    out.write("\\bordermatrix{\n")
    out.write("~ & " + " & ".join(format_label(source, l, sep=", ") for l in header["col_labels"]) + " \\cr\n")
    for label, row in zip(header["row_labels"], rows):
        out.write(f"{format_label(source, label, sep=', ')} & {row.replace(',', ' & ')} \\cr\n")
    out.write("}\n")


def render_matrix(doc, fmt) -> str:
    if fmt == "json":
        return json.dumps(doc, separators=(",", ":"))
    entries, d = doc["entries"], len(doc["col_labels"])
    rows = (",".join(map(str, entries[i : i + d])) for i in range(0, len(entries), d))
    out = io.StringIO()
    _write_table(out, doc, rows, fmt)
    return out.getvalue()[:-1]


# ---------------------------------------------------------------------------
# subcommands

def cmd_matrix(args) -> int:
    k = parse_k(args.k)
    if args.n < 0:
        raise ValueError("n must be nonnegative")
    _require_label_limit(MATRIX_KINDS[args.kind][0], k, args.n)
    header = _header(args.kind, k, args.n)
    path = _cache_path(args.kind, k, args.n)
    cached = _read_cache(path, header)
    if cached is not None:
        with cached:
            _write_cached(cached, header, args.format)
    else:
        # Cold: each row's text is made once, written to the cache file as
        # part of the json text and to stdout in the requested format.
        prefix, rows = _json_prefix(header), _row_texts(_matrix(args.kind, k, args.n))
        with _CacheWriter(path) as cache:
            _write_table(sys.stdout, header, _json_rows(prefix, rows, cache.write), args.format, prefix)
            cache.write("]}")
    return 0


def cmd_kostka(args) -> int:
    shape, content = parse_parts(args.shape), parse_parts(args.content)
    _checked_label(SIDES[args.family].check, shape)
    _checked_label(check_composition, content)
    from . import systems

    value = systems.kostka(shape, content, parse_k(args.k), args.family, args.order)
    print(value)
    return 0


def cmd_expand(args) -> int:
    kind, index, k = parse_element_spec(args.element)
    _require_label_limit(kind, k, sum(index))
    combo = _system(kind, sum(index), k).expand(kind, index, args.target)
    for term_index, coeff in combo.terms():
        print(f"{coeff}*{args.target}{format_label(kind, term_index)}")
    return 0


def _suite_report(args):
    from . import bases

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
    p_kostka.add_argument("family", choices=SIDES)
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
