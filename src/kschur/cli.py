"""Command line interface: matrix generation, Kostka queries, basis
expansions and the verification suites.

Output is deterministic byte-for-byte for fixed arguments.  Matrix
output is ASCII bytes, written to stdout's buffer whatever the locale's
encoding, cold and warm alike; the other commands print through the text
layer.  Computed matrix documents are cached on disk as the json text a
json request prints, led by a crc32 field, with a newline after the
prefix and after each comma between rows, so that each matrix row is one
line; the files are keyed by kind, k, n and the schema version, and the
cache directory comes from KSCHUR_CACHE_DIR and defaults to the user
cache directory.  A cold request streams its output from the sparse
matrix rows, one row's text at a time, into a temp file and to stdout,
puts the file's CRC-32 in that field, and renames it onto the cache file,
so concurrent invocations stay consistent.  A cached file is served only
when it is a regular file whose head line is the request's and whose
CRC-32 is its field; the path is opened without blocking, so a FIFO or a
device there is a miss, which the cold request's rename replaces.  A
warm request renders its lines as rows, in every format by the writer
that renders a cold request's rows, from the handle it checked, without
holding the whole file, without parsing it and importing, of the
package, only the label layer (labels, errors).
Only the verify command imports bases, and json
is imported only to parse a document or to print a verify report: a
matrix, expand or kostka request writes the json prefix itself, from
the kind, k, n and the label list, whose text serves rows and columns.
The kschur script and python -m kschur.cli run console_main, which freezes
the collector once main returns, so that the interpreter skips its final
full collection at exit; every file is closed by its with block and main
flushes stdout, so that collection would have nothing to finalize.  A build
of degree n reads the labels of every degree 0..n, so a matrix, expand
or kostka request is refused before any label is enumerated when those
labels have more than MAX_CELLS cells in all (a label of degree m has m),
and so is a verify suite that builds systems up to such a degree, on the
side and at each k that its row of VERIFY_SUITES names.

Exit codes: 0 success or suite pass, 1 verification failure, 2 usage or
parse error, 3 domain violation, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import os
import re
import stat
import sys
import tempfile
import zlib

from .errors import DomainError
from .labels import SIDE_OF, SIDES, check_composition, format_k

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

# The most cells, summed over the labels of every degree 0..n, that a
# request may build: sum(m * count(m)).  It admits every composition request
# at k >= 2 that a bound of 16384 labels on degree n alone admitted, the
# largest (20, 2) at 526775 cells, and (15, inf), whose 16384 x 16384
# h-to-ns matrix is about 560 MB of json, at 458753.
MAX_CELLS = 600_000

# Each verify suite as the bases function that runs it, by name (looked up
# when called), and whether it runs once per degree 0..--max-n and per --k,
# its cases merged, or once over the whole range on the flags it reads; its
# default --max-n and --k list (None marks a flag that the suite does not
# read; such a flag is refused); its --k rule: "any" values, "finite" values
# only, or "one" finite value, passed on alone; then what the label limit
# counts for it: the basis kind of the side with the most labels that its
# builds read up to --max-n (omega enumerates only partitions, those bounded
# by its --k the most; None: not limited), and the k it builds besides its
# --k values (None: k = inf).
VERIFY_SUITES = {
    "appendix": ("verify_appendix", False, None, None, "any", None, ()),
    "duality": ("verify_duality", True, 7, (2, 3, 4), "any", "H", ()),
    "projection": ("verify_projection", True, 6, (2, 3), "any", "H", ()),
    "decomposition": ("verify_decomposition", True, 6, (2, 3), "any", "H", ()),
    "stabilization": ("stabilization_check", True, 6, None, "any", "H", (None,)),
    "omega": ("verify_omega", False, 10, (5,), "one", "h", ()),
    "negativity": ("verify_negativity", False, 8, (2, 3), "finite", "H", (None,)),
}


# ---------------------------------------------------------------------------
# parsing and formatting helpers

def parse_k(text):
    """A bound k, 1 to sys.maxsize in ASCII decimal digits, or None for 'inf'."""
    if text == "inf":
        return None
    digits = text.lstrip("0")  # compared by length first: int() refuses over 4300 digits
    if not (text.isascii() and text.isdigit()) or not digits:
        raise ValueError(f"k must be at least 1 or 'inf', got {text!r}")
    if len(digits) > len(str(sys.maxsize)) or int(digits) > sys.maxsize:
        raise ValueError(f"k {text!r} is above {sys.maxsize}; use 'inf' for no bound")
    return int(digits)


def _ascii_int(text):
    """argparse type of --n and --max-n: ASCII decimal digits, maybe after a
    '-' (type=int also takes '1_0', '+3', ' 3' and other scripts' digits)."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"expected ASCII decimal digits, got {text!r}")
    return int(text)


def format_label(kind, label, sep=","):
    """A label of the basis kind, in the brackets of the kind's side."""
    opening, closing = SIDE_OF[kind].brackets
    return opening + sep.join(str(p) for p in label) + closing


def _read_label(check, text):
    """check(parts) of the label text: "" is the empty label, any other text
    comma-separated ASCII decimal digits, each part maybe after a '-' and of
    at most sys.maxsize's 19 digits after its leading zeros (compared by
    length first: int() refuses over 4300).  Every malformed label,
    check's DomainError among them, is a parse error (exit 2)."""
    if not re.fullmatch("(-?[0-9]+(,-?[0-9]+)*)?", text):
        raise ValueError(f"cannot read {text!r} as comma-separated integers")
    parts = text.split(",") if text else []
    if any(len(p.lstrip("-0")) > len(str(sys.maxsize)) for p in parts):
        raise ValueError(f"label {text!r} has a part of more than {len(str(sys.maxsize))} digits")
    try:
        return check(tuple(map(int, parts)))
    except DomainError as exc:
        raise ValueError(str(exc)) from exc


def parse_element_spec(text):
    """Parse 'KIND:INDEX@k=K', e.g. S:[1,1,1]@k=3 or dual-s:(2,1,1)@k=inf.

    Malformed indices are parse errors (exit 2), not domain violations.
    """
    head, at_k, ktext = text.rpartition("@k=")
    if not at_k or ":" not in head:
        raise ValueError(f"bad element spec {text!r}; expected KIND:INDEX@k=K")
    kind, index_text = head.split(":", 1)
    k = parse_k(ktext)
    for name, side in SIDES.items():
        opening, closing = side.brackets
        if index_text.startswith(opening) and index_text.endswith(closing):
            index = _read_label(side.check, index_text[1:-1])
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
    """Refuse degree n of the side of the basis kind when the labels of
    degrees 0..n have more than MAX_CELLS cells in all, counted without
    enumerating them.  Every degree has a label, so the sum grows with
    each degree, and it stops at the first degree that takes it over."""
    cells = 0
    for degree, count in enumerate(SIDE_OF[kind].counts(k)):
        cells += degree * count
        if cells > MAX_CELLS:
            raise DomainError(
                f"degree {n} at k={format_k(k)}: the labels of degrees 0 to {n} have more than"
                f" {MAX_CELLS} cells, the most a request may build"
            )
        if degree == n:
            return


def _matrix(kind, k, n):
    """The computed change-of-basis matrix of a matrix kind."""
    source, target = MATRIX_KINDS[kind]
    return _system(source, n, k).matrix(source, target)


def matrix_document(kind, k, n) -> dict:
    """The computed matrix document, parsed from the json text that a cold
    json request streams from its rows; no cache file is read or written."""
    import json

    labels, out = SIDE_OF[MATRIX_KINDS[kind][0]].labels(n, k), io.BytesIO()
    _write_table(out, kind, labels, _row_texts(_matrix(kind, k, n)), "json", _json_prefix(kind, k, n, labels))
    return json.loads(out.getvalue())


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


# The head of a cache file opens with the CRC-32 of the file as eight hex
# digits, bytes _CRC_AT to _CRC_END; the writer takes the CRC with them as zeros.
_CRC_HEAD = b'{"crc32":"00000000",'
_CRC_AT, _CRC_END = _CRC_HEAD.index(b"0"), _CRC_HEAD.index(b'",')


class _CacheWriter:
    """A best-effort write of one cache file, as a context manager: bytes
    go to a temp file beside path, after _CRC_HEAD, which the writer puts
    first; when the block ends without an exception, the CRC-32 of every
    byte written goes into the field of that head and the file is renamed
    onto path.  A failed write, seek or rename, or an exception in the
    block, drops the temp file and skips later writes; no OSError escapes,
    and the file is closed on every path.  A directory at path, which no
    rename replaces, gets no temp file."""

    def __init__(self, path):
        self.path, self.handle, self.crc = path, None, 0
        with contextlib.suppress(OSError):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with contextlib.suppress(FileNotFoundError):
                if stat.S_ISDIR(os.lstat(path).st_mode):  # not through a symlink, which a rename replaces
                    return
            fd, self.tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
            self.handle = os.fdopen(fd, "wb")
        self.write(_CRC_HEAD)

    def __enter__(self):
        return self

    def write(self, data):
        try:
            if self.handle is not None:
                self.handle.write(data)
                self.crc = zlib.crc32(data, self.crc)
        except OSError as exc:
            self.__exit__(OSError, exc, None)

    def __exit__(self, exc_type, exc, traceback):
        """Write the CRC field and close the temp file, then rename it onto
        path when there was no exception, or remove it otherwise or when
        writing the field, closing or renaming fails."""
        handle, self.handle = self.handle, None
        if handle is not None:
            with contextlib.suppress(OSError):
                with handle:
                    if exc_type is None:
                        handle.seek(_CRC_AT)
                        handle.write(b"%08x" % self.crc)
                if exc_type is None:
                    os.replace(self.tmp, self.path)
                    return
            with contextlib.suppress(OSError):
                os.unlink(self.tmp)


def _json_prefix(kind, k, n, labels):
    """The json text of the document of the matrix kind up to its first
    entry, as ASCII bytes, written without the json module: the kind is a
    name from MATRIX_KINDS, which needs no escaping, k an int, or None or
    "inf" for no bound, and the labels, sequences of ints, are written once,
    as lists under repr without spaces, for both the rows and the columns."""
    text = repr(list(map(list, labels))).replace(" ", "")
    k = '"inf"' if format_k(k) == "inf" else k
    return (
        f'{{"schema_version":"{SCHEMA_VERSION}","k":{k},"n":{n},"kind":"{kind}",'
        f'"row_labels":{text},"col_labels":{text},"entries":['
    ).encode()


_CRC_BLOCK = 1 << 16  # the CRC-32 of a cache file is read in blocks of 64 KiB

# The read buffer of a cache file of d rows holds at least _ROW_BUFFER * d
# bytes: a row's line has at least 2d, so each line is rendered from one read.
_ROW_BUFFER = 8


def _read_cache(path, head, d):
    """The cached file of d rows, open in binary mode at its first row, when
    it is a regular file that starts with head but for the crc32 field and
    whose CRC-32, taken with that field as zeros, is the field; None
    otherwise, as for a FIFO or a directory.

    One read compares the head, so a file in another layout is refused at
    once; the rest is read in blocks, never parsed or held whole.  Any
    changed byte fails the CRC unless the field was recomputed too.  The
    caller closes the handle, whose bytes are the checked ones even when
    the file is replaced meanwhile: a rename swaps the inode, not the bytes
    of an open file.
    """
    try:  # nonblocking, so that a FIFO opens without waiting for a writer
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
    except OSError:  # missing or unreadable
        return None
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        return None
    handle, served = open(fd, "rb", max(io.DEFAULT_BUFFER_SIZE, _ROW_BUFFER * d)), None
    try:
        found = handle.read(len(head))  # a short file reads short
        if found[:_CRC_AT] + found[_CRC_END:] == head[:_CRC_AT] + head[_CRC_END:]:
            crc = zlib.crc32(head)
            for block in iter(lambda: handle.read(_CRC_BLOCK), b""):
                crc = zlib.crc32(block, crc)
            if found[_CRC_AT:_CRC_END] == b"%08x" % crc:
                handle.seek(len(head))
                served = handle
    except OSError:  # a failed read refuses the file too
        pass
    finally:
        if served is None:
            handle.close()
    return served


def cached_matrix_document(kind, k, n) -> dict:
    """The matrix document, parsed from what a json request for it prints:
    the cache file's bytes on a hit, the computed text on a miss, which
    rewrites the cache file."""
    import json

    out = io.BytesIO()
    _write_matrix(out, kind, k, n, "json")
    return json.loads(out.getvalue())


def _write_matrix(out, kind, k, n, fmt):
    """Write the matrix to the binary stream out in fmt, rendering its rows
    in every format from their comma-joined entries.  A cache file that
    passes the check of _read_cache gives them from the handle that checked
    it: each line after the head without its last two bytes (a comma and a
    newline, or the closing ]}).  Otherwise the matrix is computed, and
    each row's text, made once, is also written to a new cache file as part
    of the json text, after a head line that opens with the CRC field."""
    labels = SIDE_OF[MATRIX_KINDS[kind][0]].labels(n, k)
    prefix, path = _json_prefix(kind, k, n, labels), _cache_path(kind, k, n)
    cached = _read_cache(path, _CRC_HEAD + prefix[1:] + b"\n", len(labels))
    if cached is None:
        rows = _row_texts(_matrix(kind, k, n))
        with _CacheWriter(path) as cache:  # the json prefix follows the CRC field
            _write_table(out, kind, labels, _json_rows(prefix[1:], rows, cache.write, b"\n"), fmt, prefix)
            cache.write(b"]}")
        return
    with cached:
        _write_table(out, kind, labels, (line[:-2] for line in cached), fmt, prefix)


def _row_texts(matrix):
    """Each sparse row of a computed matrix as the comma-joined ASCII text
    of all its entries: the nonzeros spliced between runs of zeros, which
    are slices of one string of "0," repeats."""
    d = len(matrix.col_labels)
    zeros = "0," * d
    for cols, vals in zip(matrix.cols, matrix.vals):
        parts, start = [], 0
        for c, v in zip(cols, vals):
            parts += zeros[: 2 * (c - start)], str(v), ","
            start = c + 1
        parts.append(zeros[: 2 * (d - start)])
        yield "".join(parts)[:-1].encode()


def _json_rows(prefix, rows, write, newline):
    """Yield rows, each once write has written it as the next entries of
    a json document, the first after the document's prefix; newline
    follows the prefix and the comma after each row but the last."""
    sep = prefix + newline
    for row in rows:
        write(sep)
        write(row)
        sep = b"," + newline
        yield row


def _write_table(out, kind, labels, rows, fmt, prefix):
    """Write the matrix of the kind to the binary stream out as json, csv
    or latex, line by line; labels label both its rows and its columns,
    rows yields each row as the comma-joined ASCII text of its entries,
    and the json text starts with prefix, the _json_prefix of the matrix."""
    if fmt == "json":
        for _ in _json_rows(prefix, rows, out.write, b""):
            pass
        out.write(b"]}\n")
        return
    source = MATRIX_KINDS[kind][0]
    if fmt == "csv":
        # Entries are ints and never need quoting; a label does when it holds a comma.
        def field(label):
            text = format_label(source, label).encode()
            return b'"%s"' % text if b"," in text else text

        out.write(b"," + b",".join(map(field, labels)) + b"\n")
        for label, row in zip(labels, rows):
            out.write(b"%s,%s\n" % (field(label), row))
        return
    out.write(b"\\bordermatrix{\n")
    cols = " & ".join(format_label(source, l, sep=", ") for l in labels)
    out.write(f"~ & {cols} \\cr\n".encode())
    for label, row in zip(labels, rows):
        out.write(b"%s & %s \\cr\n" % (format_label(source, label, sep=", ").encode(), row.replace(b",", b" & ")))
    out.write(b"}\n")


def render_matrix(doc, fmt) -> str:
    """What a matrix request for doc prints in fmt, without the last newline."""
    entries, d = doc["entries"], len(doc["col_labels"])
    rows = (",".join(map(str, entries[i : i + d])).encode() for i in range(0, len(entries), d))
    out = io.BytesIO()
    kind, labels = doc["kind"], doc["row_labels"]
    _write_table(out, kind, labels, rows, fmt, _json_prefix(kind, doc["k"], doc["n"], labels))
    return out.getvalue()[:-1].decode()


# ---------------------------------------------------------------------------
# subcommands

def cmd_matrix(args) -> int:
    k = parse_k(args.k)
    if args.n < 0:
        raise ValueError("n must be nonnegative")
    _require_label_limit(MATRIX_KINDS[args.kind][0], k, args.n)
    _write_matrix(sys.stdout.buffer, args.kind, k, args.n, args.format)
    return 0


def cmd_kostka(args) -> int:
    shape = _read_label(SIDES[args.family].check, args.shape)
    content = _read_label(check_composition, args.content)
    k = parse_k(args.k)
    _require_label_limit(SIDES[args.family].kinds[0], k, sum(shape))
    from . import systems

    value = systems.kostka(shape, content, k, args.family, args.order)
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
    name, per_degree, default_n, default_ks, k_rule, label_kind, extra_ks = VERIFY_SUITES[suite]
    for flag, value, default in (("--max-n", args.max_n, default_n), ("--k", args.k, default_ks)):
        if value is not None and default is None:
            raise ValueError(f"the {suite} suite takes no {flag}")
    ks = default_ks if args.k is None else [parse_k(t) for t in args.k.split(",")]
    if ks and len(set(ks)) < len(ks):
        raise ValueError(f"--k {args.k} repeats a value")
    max_n = default_n if args.max_n is None else args.max_n
    if max_n is not None and max_n < 0:
        raise ValueError(f"--max-n must be nonnegative, got {max_n}")
    if k_rule != "any" and (None in ks or k_rule == "one" and len(ks) != 1):
        takes = "one finite --k" if k_rule == "one" else "only finite --k values"
        raise ValueError(f"the {suite} suite takes {takes}")
    if label_kind is not None:
        for k in [*(ks or ()), *extra_ks]:
            _require_label_limit(label_kind, k, max_n)
    check = getattr(bases, name)
    if not per_degree:
        return check(*(v for v in (max_n, ks[0] if k_rule == "one" else ks) if v is not None))
    k_args = [(k,) for k in ks] if ks else [()]
    cases = [c for k_arg in k_args for n in range(max_n + 1) for c in check(n, *k_arg).cases]
    parameters = {"max_n": max_n, **({"k": list(map(format_k, ks))} if ks else {})}
    return bases.VerificationReport(suite, parameters, tuple(cases))


def cmd_verify(args) -> int:
    import json

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
    p_matrix.add_argument("--n", required=True, type=_ascii_int, help="degree")
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
    p_verify.add_argument("--max-n", type=_ascii_int, default=None)
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


def console_main() -> int:
    """main() for a process that exits after it, as the kschur script and
    python -m kschur.cli run it: gc.freeze() then moves every object to the
    permanent generation, so that the interpreter skips a final full
    collection at exit.  No finalizer is left for that collection to run:
    every file is closed by its with block, and main flushes stdout."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(console_main())
