import csv
import gc
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
import zlib
from pathlib import Path

import pytest

from gauss_jordan import invert_integer_matrix
from kschur import DomainError, bases, cli, systems
from kschur.algebra import LinearCombination
from kschur.bases import VerificationCase, VerificationReport
from kschur.cli import (
    MATRIX_KINDS,
    format_k,
    format_label,
    main,
    matrix_document,
    parse_element_spec,
    parse_k,
    render_matrix,
)
from kschur.labels import SIDE_OF
from sparse_rows import dense


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def refusal(capsys, argv):
    """main(argv)'s exit code, stdout and stderr.  argparse refuses a
    malformed --n or --max-n itself, by SystemExit after its usage lines and
    'kschur COMMAND: ': that prefix is checked and cut, so what is left
    reads like one of main's own refusals, naming the argument."""
    try:
        return main(argv), *capsys.readouterr()
    except SystemExit as exc:
        out, err = capsys.readouterr()
        usage, prog, rest = err.rpartition(f"kschur {argv[0]}: ")
        assert prog and usage.startswith(f"usage: kschur {argv[0]} ") and rest.startswith("error: argument ")
        return exc.code, out, rest


def test_parse_k():
    assert parse_k("inf") is None
    assert parse_k("3") == 3
    with pytest.raises(ValueError):
        parse_k("0")


def test_parse_element_spec():
    assert parse_element_spec("S:[1,1,1]@k=3") == ("S", (1, 1, 1), 3)
    assert parse_element_spec("dual-s:(2,1,1)@k=3") == ("dual-s", (2, 1, 1), 3)
    assert parse_element_spec("H:[2,1]@k=inf") == ("H", (2, 1), None)
    assert parse_element_spec("S:[]@k=2") == ("S", (), 2)
    with pytest.raises(ValueError):
        parse_element_spec("S:[1,1,1]")
    with pytest.raises(ValueError):
        parse_element_spec("S:(2,1)@k=3")
    # the only ':' follows '@k=': the spec's own message, not Python's unpacking one
    with pytest.raises(ValueError, match=r"^bad element spec 'S\[1\]@k=2:'; expected KIND:INDEX@k=K$"):
        parse_element_spec("S[1]@k=2:")


@pytest.mark.parametrize("kind", sorted(SIDE_OF))
def test_element_spec_round_trip(kind):
    """Every label of degree <= 6 at k = 1, 2, 3 and inf reads back from
    the spec that format_label and format_k write for it."""
    for k in (1, 2, 3, None):
        for n in range(7):
            for label in SIDE_OF[kind].labels(n, k):
                spec = f"{kind}:{format_label(kind, label)}@k={format_k(k)}"
                assert parse_element_spec(spec) == (kind, label, k)


def test_matrix_csv_golden(capsys):
    code, out = run(capsys, "matrix", "--kind", "ns-to-h", "--k", "2", "--n", "2", "--format", "csv")
    assert code == 0
    assert out == ',[2],"[1,1]"\n[2],1,0\n"[1,1]",-1,1\n'


def test_matrix_json_row(capsys):
    code, out = run(capsys, "matrix", "--kind", "ns-to-h", "--k", "2", "--n", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["row_labels"][4] == [1, 1, 1, 1]
    row = doc["entries"][4 * 5 : 5 * 5]
    assert row == [1, -1, 0, -1, 1]
    assert doc["k"] == 2 and doc["n"] == 4 and doc["schema_version"] == "1"


def test_matrix_qs_json_row(capsys):
    code, out = run(capsys, "matrix", "--kind", "qs-to-m", "--k", "3", "--n", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    r = doc["row_labels"].index([1, 3])
    assert doc["entries"][r * 7 : (r + 1) * 7] == [0, 1, 1, 1, 1, 1, 1]


def test_matrix_latex(capsys):
    code, out = run(capsys, "matrix", "--kind", "ns-to-h", "--k", "2", "--n", "2", "--format", "latex")
    assert code == 0
    assert out == "\\bordermatrix{\n~ & [2] & [1, 1] \\cr\n[2] & 1 & 0 \\cr\n[1, 1] & -1 & 1 \\cr\n}\n"


def test_matrix_degree_zero(capsys):
    code, out = run(capsys, "matrix", "--kind", "ns-to-h", "--k", "2", "--n", "0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["row_labels"] == [[]] and doc["entries"] == [1]


def test_matrix_partition_side(capsys):
    code, out = run(capsys, "matrix", "--kind", "kschur-to-h", "--k", "2", "--n", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["row_labels"] == [[2], [1, 1]]
    assert doc["entries"] == [1, 0, -1, 1]


def test_matrix_output_is_deterministic(capsys):
    _, first = run(capsys, "matrix", "--kind", "qs-to-m", "--k", "3", "--n", "4", "--format", "json")
    _, second = run(capsys, "matrix", "--kind", "qs-to-m", "--k", "3", "--n", "4", "--format", "json")
    assert first == second


def test_matrix_cache_round_trip(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    _, cold = run(capsys, "matrix", "--kind", "ns-to-h", "--k", "3", "--n", "3", "--format", "json")
    assert list(tmp_path.glob("*.json"))
    _, warm = run(capsys, "matrix", "--kind", "ns-to-h", "--k", "3", "--n", "3", "--format", "json")
    assert cold == warm


def test_matrix_ignores_corrupt_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    _, fresh = run(capsys, "matrix", "--kind", "ns-to-h", "--k", "2", "--n", "3", "--format", "json")
    path = next(tmp_path.glob("*.json"))
    path.write_text("{not json", encoding="utf-8")
    _, again = run(capsys, "matrix", "--kind", "ns-to-h", "--k", "2", "--n", "3", "--format", "json")
    assert fresh == again


def line_file(doc):
    """The cache file of doc: its json text with a newline after the
    prefix and after each comma between rows, whatever its entries hold."""
    d = len(doc["row_labels"])
    head = json.dumps({key: v for key, v in doc.items() if key != "entries"}, separators=(",", ":"))
    entries = [json.dumps(v) for v in doc["entries"]]
    rows = [",".join(entries[r * d : (r + 1) * d]) for r in range(d)]
    return head[:-1] + ',"entries":[\n' + ",\n".join(rows) + "]}"


def cache_file(doc, field=None):
    """The cache file of doc: its line_file text, whose first line opens
    with a crc32 field that holds field, by default the CRC-32 that the
    writer records, of the whole text with the field as eight zeros."""
    text = '{"crc32":"00000000",' + line_file(doc)[1:]
    field = field or "%08x" % zlib.crc32(text.encode())
    return text[: len('{"crc32":"')] + field + text[len('{"crc32":"00000000') :]


def crc_field(text):
    """The crc32 field of a cache file's text."""
    return json.loads(text[: text.index(",")] + "}")["crc32"]


def rendered(doc, fmt):
    """What a matrix request prints for doc in fmt, without the last
    newline: json by the json module, an oracle independent of the request
    writer, and csv or latex by render_matrix."""
    return json.dumps(doc, separators=(",", ":")) if fmt == "json" else render_matrix(doc, fmt)


def test_line_file_is_the_json_output_with_a_newline_between_rows():
    doc = matrix_document("ns-to-h", 2, 3)
    assert line_file(doc) == (
        '{"schema_version":"1","k":2,"n":3,"kind":"ns-to-h","row_labels":[[2,1],[1,2],[1,1,1]],'
        '"col_labels":[[2,1],[1,2],[1,1,1]],"entries":[\n1,0,0,\n0,1,0,\n0,-1,1]}'
    )
    assert line_file(doc).replace("\n", "") == json.dumps(doc, separators=(",", ":"))


# Fields planted over the cold ns-to-h (3, 2) document, whose labels are
# [2,1], [1,2], [1,1,1], written as a cache file; every one of them must
# be recomputed.  A plant of other entries keeps the crc32 field that the
# cold request recorded, as an edit that does not recompute it does; the
# others get the field of their own text, and their head refuses them.
MISMATCHED_CACHE = {
    "wrong-n": {"n": 4},
    "wrong-k": {"k": 3},
    "short-entries": {"entries": [1, 0, -1]},
    "wrong-shape": {"col_labels": [[3]]},
    "reordered-labels": {"row_labels": [[1, 2], [2, 1], [1, 1, 1]], "col_labels": [[1, 2], [2, 1], [1, 1, 1]]},
    "integer-labels": {"row_labels": [1, 2, 3]},
    "string-entries": {"entries": ["x"] * 9},
    "float-entries": {"entries": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, -1.0, 0.0, 1.0]},
    "bool-entries": {"entries": [True, False, False, False, True, False, False, False, True]},
    "extra-key": {"note": "edited"},
}


@pytest.mark.parametrize("planted", MISMATCHED_CACHE.values(), ids=MISMATCHED_CACHE)
def test_matrix_rejects_mismatched_cache(planted, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    _, cold = run(capsys, "matrix", "--kind", "ns-to-h", "--k", "2", "--n", "3", "--format", "json")
    path = next(tmp_path.glob("*.json"))
    field = crc_field(path.read_text(encoding="utf-8")) if "entries" in planted else None
    path.write_text(cache_file({**json.loads(cold), **planted}, field), encoding="utf-8")
    _, again = run(capsys, "matrix", "--kind", "ns-to-h", "--k", "2", "--n", "3", "--format", "json")
    assert again == cold
    assert path.read_text(encoding="utf-8") == cache_file(json.loads(cold))


@pytest.mark.parametrize("fmt", ["csv", "latex"])
@pytest.mark.parametrize("planted", MISMATCHED_CACHE.values(), ids=MISMATCHED_CACHE)
def test_matrix_rejects_mismatched_cache_in_text_formats(planted, fmt, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    argv = ("matrix", "--kind", "ns-to-h", "--k", "2", "--n", "3", "--format")
    _, cold = run(capsys, *argv, "json")
    path = next(tmp_path.glob("*.json"))
    field = crc_field(path.read_text(encoding="utf-8")) if "entries" in planted else None
    path.write_text(cache_file({**json.loads(cold), **planted}, field), encoding="utf-8")
    code, again = run(capsys, *argv, fmt)
    assert code == 0 and again == render_matrix(json.loads(cold), fmt) + "\n"
    assert path.read_text(encoding="utf-8") == cache_file(json.loads(cold))


def _entry_as_minus_zero(text, row=0):
    """The cache text with the first 0 entry of a row written as -0."""
    head, *rows = text.split("\n")
    entries = rows[row].split(",")
    entries[entries.index("0")] = "-0"
    rows[row] = ",".join(entries)
    return "\n".join([head, *rows])


def _between_rows(text, old, new):
    """The cache text with the first old after the prefix replaced by new."""
    head, body = text.split("\n", 1)
    return head + "\n" + body.replace(old, new, 1)


# Raw-text edits of the ns-to-h (3, 2) cache file; each still parses to the
# same document, but its bytes are not what the cache holds, so each must
# be recomputed and overwritten.
NONCANONICAL_CACHE = {
    "space-after-comma": lambda text: text.replace(",", ", "),
    "minus-zero": _entry_as_minus_zero,
    "minus-zero-in-last-row": lambda text: _entry_as_minus_zero(text, -1),
    "reordered-keys": lambda text: line_file(dict(reversed(json.loads(text).items()))),
    "escaped-kind": lambda text: text.replace('"kind":"ns-to-h"', '"kind":"\\u006es-to-h"'),
    "trailing-newline": lambda text: text + "\n",
    "no-newlines": lambda text: text.replace("\n", ""),
    "two-rows-on-one-line": lambda text: _between_rows(text, ",\n", ","),
    "row-split-over-two-lines": lambda text: _between_rows(text, ",", ",\n"),
    "row-break-moved": lambda text: _between_rows(text, "0,\n0,", "\n0,0,"),
    "empty-line": lambda text: _between_rows(text, ",\n", ",\n\n"),
    "crlf": lambda text: text.replace("\n", "\r\n"),
}


@pytest.mark.parametrize("fmt", ["json", "csv", "latex"])
@pytest.mark.parametrize("edit", NONCANONICAL_CACHE.values(), ids=NONCANONICAL_CACHE)
def test_matrix_rewrites_noncanonical_cache(edit, fmt, tmp_path, monkeypatch, capsys):
    """Nothing of the edited file is printed: the output is exactly the
    cold output, and the file is rewritten.  The edits leave the crc32
    field as the cold request recorded it."""
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    argv = ("matrix", "--kind", "ns-to-h", "--k", "2", "--n", "3", "--format")
    _, cold = run(capsys, *argv, "json")
    path = next(tmp_path.glob("*.json"))
    text = path.read_text(encoding="utf-8")
    assert text == cache_file(json.loads(cold))
    edited = edit(text)
    assert edited != text and json.loads(edited) == json.loads(text)
    path.write_bytes(edited.encode())
    code, again = run(capsys, *argv, fmt)
    assert code == 0 and again == rendered(json.loads(cold), fmt) + "\n"
    assert path.read_text(encoding="utf-8") == text


# Edits of the same file that no longer parse at the end of a row: the
# line still holds d canonical ints, but not the comma or the ]} after them.
BROKEN_ROW_ENDS = {
    "first-row-end": lambda text: _between_rows(text, ",\n", "x\n"),
    "closing-bracket": lambda text: text[: -len("]}")] + "x}",
}


@pytest.mark.parametrize("fmt", ["json", "csv", "latex"])
@pytest.mark.parametrize("edit", BROKEN_ROW_ENDS.values(), ids=BROKEN_ROW_ENDS)
def test_matrix_rewrites_a_broken_row_end(edit, fmt, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    argv = ("matrix", "--kind", "ns-to-h", "--k", "2", "--n", "3", "--format")
    _, cold = run(capsys, *argv, "json")
    path = next(tmp_path.glob("*.json"))
    text = path.read_text(encoding="utf-8")
    path.write_text(edit(text), encoding="utf-8")
    code, again = run(capsys, *argv, fmt)
    assert code == 0 and again == rendered(json.loads(cold), fmt) + "\n"
    assert path.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("fmt", ["json", "csv", "latex"])
def test_matrix_refuses_an_entry_changed_to_another_int(fmt, tmp_path, monkeypatch, capsys):
    """A cache file whose first entry was edited from 1 to 7, still the
    json text of the request's shape in canonical ints, is refused: the
    output is exactly the cold output, and the file is rewritten."""
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    argv = ("matrix", "--kind", "ns-to-h", "--k", "2", "--n", "3", "--format")
    _, cold = run(capsys, *argv, "json")
    path = next(tmp_path.glob("*.json"))
    text = path.read_text(encoding="utf-8")
    edited = _between_rows(text, "1", "7")
    assert json.loads(edited)["entries"] == [7, *json.loads(cold)["entries"][1:]]
    path.write_text(edited, encoding="utf-8")
    code, again = run(capsys, *argv, fmt)
    assert code == 0 and again == rendered(json.loads(cold), fmt) + "\n"
    assert path.read_text(encoding="utf-8") == text


def _fill(capsys, argv):
    """The cold json output of argv and the cache file it leaves."""
    _, cold = run(capsys, *argv, "json")
    return cold, next(Path(os.environ["KSCHUR_CACHE_DIR"]).glob("*.json"))


class CountingReader:
    """A binary file that records the size of each read from it."""

    def __init__(self, path):
        self.handle, self.reads = open(path, "rb"), []

    def read(self, size=-1):
        data = self.handle.read(size)
        self.reads.append(len(data))
        return data

    def readline(self):
        line = self.handle.readline()
        self.reads.append(len(line))
        return line

    def close(self):
        self.handle.close()


def _counted_warm_run(capsys, monkeypatch, argv):
    """The exit code and stdout of a request whose cache file is opened as
    a CountingReader, and that reader."""
    readers = []

    def counting_open(name, mode, buffering):
        assert mode == "rb" and buffering >= io.DEFAULT_BUFFER_SIZE
        readers.append(CountingReader(name))
        return readers[-1]

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    code, out = run(capsys, *argv)
    monkeypatch.delattr(cli, "open")
    (reader,) = readers
    return code, out, reader


@pytest.mark.parametrize("fmt", ["json", "csv", "latex"])
def test_old_format_file_is_refused_after_one_read(fmt, tmp_path, monkeypatch, capsys):
    """A cache file in a layout of earlier versions, the json output itself
    or that text with a newline after the prefix and after each comma
    between rows, has no crc32 field, so it differs within the length of
    the head line: one read of that length refuses it, and it is rewritten."""
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    argv = ("matrix", "--kind", "h-to-ns", "--k", "3", "--n", "5", "--format")
    cold, path = _fill(capsys, argv)
    text = path.read_text(encoding="utf-8")
    for old in (cold.removesuffix("\n"), line_file(json.loads(cold))):
        path.write_text(old, encoding="utf-8")
        code, again, reader = _counted_warm_run(capsys, monkeypatch, (*argv, fmt))
        assert code == 0 and again == rendered(json.loads(cold), fmt) + "\n"
        assert reader.reads == [text.index("\n") + 1]
        assert reader.handle.closed
        assert path.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("fmt", ["json", "csv", "latex"])
def test_wrong_crc_field_is_refused_after_one_pass(fmt, tmp_path, monkeypatch, capsys):
    """A cache file whose crc32 field is not the CRC-32 of its text, in
    any spelling, is refused after one read of its head line and one pass
    over the rest in blocks, and is never read again: the output is exactly
    the cold output, and the file is rewritten."""
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    argv = ("matrix", "--kind", "h-to-ns", "--k", "3", "--n", "5", "--format")
    cold, path = _fill(capsys, argv)
    text = path.read_text(encoding="utf-8")
    field, head = crc_field(text), text.index("\n") + 1
    for wrong in {"00000000", "%08x" % (int(field, 16) ^ 1), field.upper(), "zzzzzzzz"} - {field}:
        path.write_text(cache_file(json.loads(cold), wrong), encoding="utf-8")
        code, again, reader = _counted_warm_run(capsys, monkeypatch, (*argv, fmt))
        assert code == 0 and again == rendered(json.loads(cold), fmt) + "\n", wrong
        assert reader.reads == [head, len(text) - head, 0], wrong
        assert reader.handle.closed
        assert path.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("block", range(1, 13))
def test_block_check_serves_the_canonical_file_at_every_block_size(block, tmp_path, monkeypatch, capsys):
    """However the reads of a small read buffer cut the file, its head
    line, its rows and the newlines at their ends included, a warm hit
    checks it and prints the cold bytes in every format without building
    anything."""
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    argv = ("matrix", "--kind", "qs-to-m", "--k", "3", "--n", "5", "--format")
    cold, path = _fill(capsys, argv)
    blocks = lambda name, mode, buffering: io.BufferedReader(io.FileIO(name, mode), buffer_size=block)
    monkeypatch.setattr(cli, "open", blocks, raising=False)

    def no_build(*args):
        raise AssertionError("a warm hit built a graded system")

    monkeypatch.setattr(systems, "build_schur_system", no_build)
    for fmt in ("json", "csv", "latex"):
        code, warm = run(capsys, *argv, fmt)
        assert code == 0 and warm == rendered(json.loads(cold), fmt) + "\n", fmt
    assert path.read_text(encoding="utf-8") == cache_file(json.loads(cold))


@pytest.mark.parametrize("fmt", ["json", "csv", "latex"])
def test_block_check_bad_last_entry_prints_only_the_cold_output(fmt, tmp_path, monkeypatch, capsys):
    """A file whose last entry alone is respelt (01 for 1) fails the CRC-32,
    which is checked before anything is printed: the output is exactly the
    cold output."""
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    argv = ("matrix", "--kind", "h-to-ns", "--k", "3", "--n", "5", "--format")
    cold, path = _fill(capsys, argv)
    text = path.read_text(encoding="utf-8")
    assert text.endswith(",1]}")
    path.write_text(text[: -len("1]}")] + "01]}", encoding="utf-8")
    code, again = run(capsys, *argv, fmt)
    assert code == 0 and again == rendered(json.loads(cold), fmt) + "\n"
    assert path.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("fmt", ["json", "csv", "latex"])
def test_cache_replaced_after_the_check_does_not_change_the_output(fmt, tmp_path, monkeypatch, capsys):
    """A rename onto the cache file between the check and the output swaps
    the inode, not the bytes of the handle that was checked."""
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    argv = ("matrix", "--kind", "ns-to-h", "--k", "3", "--n", "5", "--format")
    cold, path = _fill(capsys, argv)
    read_cache = cli._read_cache

    def read_then_replace(*args):
        handle = read_cache(*args)
        other = tmp_path / "other.tmp"
        other.write_text("{not json", encoding="utf-8")
        os.replace(other, path)
        return handle

    monkeypatch.setattr(cli, "_read_cache", read_then_replace)
    code, warm = run(capsys, *argv, fmt)
    assert code == 0 and warm == rendered(json.loads(cold), fmt) + "\n"
    assert path.read_text(encoding="utf-8") == "{not json"


class FailingReads:
    """A cache file whose third read raises OSError."""

    def __init__(self, fd, mode, buffering):
        self.handle, self.reads = open(fd, mode, buffering), 0

    def read(self, size):
        self.reads += 1
        if self.reads == 3:
            raise OSError("read failed")
        return self.handle.read(size)

    def close(self):
        self.handle.close()


@pytest.mark.parametrize("fmt", ["json", "csv", "latex"])
def test_cache_read_failing_mid_check_gives_the_cold_output(fmt, tmp_path, monkeypatch, capsys):
    """A read that fails while the cache file is checked refuses the file:
    the output is the cold output, and the cache file is written anew."""
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    argv = ("matrix", "--kind", "ns-to-h", "--k", "3", "--n", "5", "--format")
    cold, path = _fill(capsys, argv)
    text, inode = path.read_text(encoding="utf-8"), path.stat().st_ino
    readers = []
    monkeypatch.setattr(cli, "open", lambda *args: readers.append(FailingReads(*args)) or readers[-1], raising=False)
    monkeypatch.setattr(cli, "_CRC_BLOCK", 16)  # the head read, one block, then the failing one
    code, again = run(capsys, *argv, fmt)
    assert code == 0 and again == rendered(json.loads(cold), fmt) + "\n"
    assert [r.reads for r in readers] == [3] and readers[0].handle.closed
    assert path.read_text(encoding="utf-8") == text and path.stat().st_ino != inode


def test_cached_matrix_document_cold_call_writes_the_cli_cache_file(tmp_path, monkeypatch, capsys):
    """A cold call returns the computed document and leaves the cache file
    that a cold json request leaves."""
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path / "cli"))
    run(capsys, "matrix", "--kind", "m-to-qs", "--k", "3", "--n", "5", "--format", "json")
    (cli_file,) = (tmp_path / "cli").iterdir()
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path / "doc"))
    assert cli.cached_matrix_document("m-to-qs", 3, 5) == matrix_document("m-to-qs", 3, 5)
    (doc_file,) = (tmp_path / "doc").iterdir()
    assert doc_file.name == cli_file.name and doc_file.read_bytes() == cli_file.read_bytes()
    assert capsys.readouterr() == ("", "")


def test_cached_matrix_document_warm_call_builds_no_system(tmp_path, monkeypatch):
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    requests = [("ns-to-h", 3, 5), ("dualkschur-to-m", None, 6)]
    cold = {r: cli.cached_matrix_document(*r) for r in requests}

    def no_build(*args):
        raise AssertionError("a warm call built a graded system")

    monkeypatch.setattr(systems, "build_schur_system", no_build)
    monkeypatch.setattr(systems, "build_kschur_system", no_build)
    for request, doc in cold.items():
        assert cli.cached_matrix_document(*request) == doc


def test_cached_matrix_document_rewrites_a_mismatched_file(tmp_path, monkeypatch):
    """A file of another document, and the same document in the old
    format, are each recomputed and rewritten."""
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    doc = cli.cached_matrix_document("ns-to-h", 2, 3)
    (path,) = tmp_path.iterdir()
    text = path.read_text(encoding="utf-8")
    for planted in (line_file({**doc, "n": 4}), json.dumps(doc, separators=(",", ":"))):
        path.write_text(planted, encoding="utf-8")
        assert cli.cached_matrix_document("ns-to-h", 2, 3) == doc
        assert path.read_text(encoding="utf-8") == text


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_fifo_at_the_cache_path_is_a_miss_and_is_replaced(tmp_path):
    """A FIFO with no writer at the cache path neither blocks the request
    nor is read: the request prints the cold bytes and its rename leaves a
    regular cache file, which the next request serves warm."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"), KSCHUR_CACHE_DIR=str(tmp_path))
    argv = [sys.executable, "-m", "kschur.cli", "matrix", "--kind", "ns-to-h", "--k", "2", "--n", "3"]
    path = tmp_path / f"ns-to-h_k2_n3_v{cli.SCHEMA_VERSION}.json"
    os.mkfifo(path)
    cold = subprocess.run(argv, env=env, capture_output=True, timeout=20)
    assert (cold.returncode, cold.stderr) == (0, b"")
    assert cold.stdout == (json.dumps(matrix_document("ns-to-h", 2, 3), separators=(",", ":")) + "\n").encode()
    assert path.is_file() and path.read_text(encoding="utf-8") == cache_file(json.loads(cold.stdout))
    inode = path.stat().st_ino  # a warm hit reads the file and renames nothing onto it
    warm = subprocess.run(argv, env=env, capture_output=True, timeout=20)
    assert (warm.returncode, warm.stdout) == (0, cold.stdout) and path.stat().st_ino == inode


def test_directory_at_the_cache_path_is_a_miss(tmp_path, monkeypatch, capsys):
    """A directory at the cache path is not read and stays: every request
    prints the cold bytes."""
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    (tmp_path / f"qs-to-m_k3_n4_v{cli.SCHEMA_VERSION}.json").mkdir()
    argv = ("matrix", "--kind", "qs-to-m", "--k", "3", "--n", "4", "--format", "csv")
    for _ in range(2):
        assert run(capsys, *argv) == (0, render_matrix(matrix_document("qs-to-m", 3, 4), "csv") + "\n")
    assert [p.is_dir() for p in tmp_path.iterdir()] == [True]


def test_directory_at_the_cache_path_gets_no_temp_file(tmp_path, monkeypatch, capsys):
    """No rename replaces a directory, so a cold request with one at its
    cache path prints the cold bytes without writing a temp file."""
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    path = tmp_path / f"qs-to-m_k3_n4_v{cli.SCHEMA_VERSION}.json"
    path.mkdir()
    mkstemp, calls = cli.tempfile.mkstemp, []
    monkeypatch.setattr(cli.tempfile, "mkstemp", lambda *args, **kwargs: calls.append(args) or mkstemp(*args, **kwargs))
    code, out = run(capsys, "matrix", "--kind", "qs-to-m", "--k", "3", "--n", "4")
    assert (code, out) == (0, json.dumps(matrix_document("qs-to-m", 3, 4), separators=(",", ":")) + "\n")
    assert calls == [] and list(tmp_path.iterdir()) == [path] and path.is_dir()


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs os.symlink")
def test_symlink_to_a_directory_at_the_cache_path_is_replaced(tmp_path, monkeypatch, capsys):
    """A rename replaces a symlink itself, not the directory it points to:
    the cold request leaves a regular cache file, served warm next."""
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path / "cache"))
    (tmp_path / "cache").mkdir()
    (tmp_path / "target").mkdir()
    path = tmp_path / "cache" / f"qs-to-m_k3_n4_v{cli.SCHEMA_VERSION}.json"
    path.symlink_to(tmp_path / "target", target_is_directory=True)
    argv = ("matrix", "--kind", "qs-to-m", "--k", "3", "--n", "4")
    cold = run(capsys, *argv)
    assert cold[0] == 0 and path.is_file() and not path.is_symlink()
    assert list((tmp_path / "target").iterdir()) == []

    def no_build(*args):
        raise AssertionError("a warm request built a graded system")

    monkeypatch.setattr(systems, "build_schur_system", no_build)
    assert run(capsys, *argv) == cold


def test_closed_stdout_on_a_warm_hit_exits_141_quietly(tmp_path):
    """A warm json hit copies the file's bytes to stdout's buffer; a reader
    that closes the pipe early still gets the quiet exit 141."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"), KSCHUR_CACHE_DIR=str(tmp_path))
    argv = [sys.executable, "-m", "kschur.cli", "matrix", "--kind", "h-to-ns", "--k", "inf", "--n", "9"]
    subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, timeout=60, check=True)
    (cached,) = tmp_path.iterdir()
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert child.stdout.read(1) == b"{"
        child.stdout.close()
        stderr = child.stderr.read()
        code = child.wait(timeout=60)
    assert (code, stderr) == (141, b"")
    assert list(tmp_path.iterdir()) == [cached]


@pytest.mark.parametrize("fmt", ["json", "csv", "latex"])
def test_matrix_output_is_ascii_whatever_the_stdout_encoding(fmt, tmp_path):
    """Under a UTF-16 stdout, a cold request and the warm request after it
    print the same bytes: the ASCII of the rendered document."""
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(__file__).parent.parent / "src"),
        KSCHUR_CACHE_DIR=str(tmp_path),
        PYTHONIOENCODING="utf-16",
    )
    argv = [sys.executable, "-m", "kschur.cli", "matrix", "--kind", "ns-to-h", "--n", "3", "--k", "2", "--format", fmt]
    cold, warm = (subprocess.run(argv, env=env, capture_output=True, timeout=60, check=True).stdout for _ in range(2))
    assert cold == warm == (rendered(matrix_document("ns-to-h", 2, 3), fmt) + "\n").encode("ascii")
    assert len(list(tmp_path.iterdir())) == 1

  # the file the warm request read
# A fresh interpreter after a request: run it through runpy, as
# python -m kschur.cli does, then print the collector's freeze count and
# every module name to stderr.
_LOADED_CHILD = (
    "import gc, runpy, sys\n"
    "sys.argv = ['kschur', *sys.argv[1:]]\n"
    "try:\n"
    "    runpy.run_module('kschur.cli', run_name='__main__')\n"
    "except SystemExit as exc:\n"
    "    assert exc.code == 0, exc.code\n"
    "print(gc.get_freeze_count(), *sorted(sys.modules), file=sys.stderr)\n"
)
BUILD_LAYER = {"kschur.algebra", "kschur.systems"}
VERIFY_LAYER = {"kschur.bases", "kschur.reference_tables"}
LABEL_LAYER = {"kschur", "kschur.labels", "kschur.errors"}
STRIP_LAYER = {"kschur.partitions", "kschur.compositions"}


def loaded_modules(cache_dir, *argv):
    """The stdout of one request run in a fresh interpreter, the set of
    modules loaded when it ends and the collector's freeze count then."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"), KSCHUR_CACHE_DIR=str(cache_dir))
    result = subprocess.run(
        [sys.executable, "-c", _LOADED_CHILD, *argv], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    frozen, *modules = result.stderr.split()
    return result.stdout, set(modules), int(frozen)


def test_matrix_warm_hit_imports_only_the_label_layer(tmp_path):
    """A warm request on either side, run in a fresh interpreter as
    __main__, loads exactly the package, kschur.labels and kschur.errors of
    kschur, and neither json nor hashlib; the cold request that fills the
    cache shows that the check can see the strip and build layers."""
    for kind in ("h-to-ns", "kschur-to-h"):
        argv = ("matrix", "--kind", kind, "--k", "3", "--n", "6", "--format")
        cold, modules, _ = loaded_modules(tmp_path, *argv, "json")
        assert STRIP_LAYER | BUILD_LAYER <= modules, kind
        for fmt in ("json", "csv", "latex"):
            warm, modules, _ = loaded_modules(tmp_path, *argv, fmt)
            assert warm == rendered(json.loads(cold), fmt) + "\n"
            assert {m for m in modules if m.split(".")[0] == "kschur"} == LABEL_LAYER, (kind, fmt)
            assert not {"json", "hashlib"} & modules, (kind, fmt)


@pytest.mark.parametrize(
    "argv",
    [
        ("matrix", "--kind", "ns-to-h", "--k", "3", "--n", "5"),
        ("matrix", "--kind", "dualkschur-to-m", "--k", "inf", "--n", "5"),
        ("expand", "S:[1,1,1,1]@k=inf", "H"),
        ("kostka", "composition", "1,3,1,1", "1,1,2,1,1", "--k", "3"),
    ],
    ids=["composition-matrix", "partition-matrix", "expand", "kostka"],
)
def test_cold_request_imports_no_verify_layer(argv, tmp_path):
    """A cold matrix, expand or kostka request builds through systems and
    loads neither the verify layer nor dataclasses, inspect or json."""
    _, modules, _ = loaded_modules(tmp_path, *argv)
    assert BUILD_LAYER <= modules
    assert not (VERIFY_LAYER | {"dataclasses", "inspect", "json"}) & modules


def test_verify_imports_the_verify_layer(tmp_path):
    """The control of the two tests above: verify prints its report with json."""
    _, modules, _ = loaded_modules(tmp_path, "verify", "--suite", "appendix")
    assert BUILD_LAYER | VERIFY_LAYER | {"json"} <= modules


def test_verify_loads_the_reference_tables_only_for_appendix(tmp_path):
    """A suite other than appendix (here duality) loads bases but not the
    reference tables, which only verify_appendix imports."""
    _, modules, _ = loaded_modules(tmp_path, "verify", "--suite", "duality", "--max-n", "2")
    assert "kschur.bases" in modules
    assert "kschur.reference_tables" not in modules


def test_module_run_freezes_the_collector_after_main(tmp_path, capsys):
    """python -m kschur.cli freezes the collector once main returns, so
    that the interpreter skips its final full collection; main run in
    process leaves the collector as it was."""
    argv = ("matrix", "--kind", "ns-to-h", "--k", "3", "--n", "4")
    assert loaded_modules(tmp_path, *argv)[2] > 0
    assert gc.get_freeze_count() == 0
    assert run(capsys, *argv)[0] == 0
    assert gc.get_freeze_count() == 0


# main run as its own program, with warnings as errors and a ResourceWarning
# for every file left open: the interpreter's final full collection runs
# after it, as it does not after console_main, so a file left for that
# collection to close would show on stderr.
_DEV_MAIN = [sys.executable, "-X", "dev", "-W", "error", "-c", "import sys; from kschur.cli import main; sys.exit(main())"]


def test_main_leaves_no_file_for_the_final_collection(tmp_path):
    """A cold hit, a warm hit and a stdout closed early on either, run
    through main under -X dev -W error, exit with their codes and print
    nothing on stderr; the early closes leave the cache as it was."""
    warm_dir, cold_dir = tmp_path / "warm", tmp_path / "cold"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"), KSCHUR_CACHE_DIR=str(warm_dir))
    argv = [*_DEV_MAIN, "matrix", "--kind", "h-to-ns", "--k", "inf", "--n", "9", "--format", "csv"]
    cold, warm = (subprocess.run(argv, env=env, capture_output=True, timeout=60) for _ in range(2))
    assert (cold.returncode, cold.stderr, warm.returncode, warm.stderr) == (0, b"", 0, b"")
    assert cold.stdout == warm.stdout
    (cached,) = warm_dir.iterdir()
    for cache in (warm_dir, cold_dir):
        with subprocess.Popen(
            argv, env=dict(env, KSCHUR_CACHE_DIR=str(cache)), stdout=subprocess.PIPE, stderr=subprocess.PIPE
        ) as child:
            assert child.stdout.read(1) == b","
            child.stdout.close()
            stderr = child.stderr.read()
            code = child.wait(timeout=60)
        assert (code, stderr) == (141, b""), cache
    assert list(warm_dir.iterdir()) == [cached]
    assert not list(cold_dir.iterdir())


def test_matrix_warm_hit_builds_no_system(tmp_path, monkeypatch, capsys):
    """A warm request reads its header from the label enumeration alone."""
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    requests = [("ns-to-h", "3", "5"), ("dualkschur-to-m", "inf", "6")]
    cold = {r: run(capsys, "matrix", "--kind", r[0], "--k", r[1], "--n", r[2])[1] for r in requests}

    def no_build(*args):
        raise AssertionError("a warm hit built a graded system")

    monkeypatch.setattr(systems, "build_schur_system", no_build)
    monkeypatch.setattr(systems, "build_kschur_system", no_build)
    for (kind, k, n), text in cold.items():
        for fmt in ("json", "csv", "latex"):
            code, warm = run(capsys, "matrix", "--kind", kind, "--k", k, "--n", n, "--format", fmt)
            assert code == 0 and warm == rendered(json.loads(text), fmt) + "\n"


def test_matrix_rejects_non_object_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    _, cold = run(capsys, "matrix", "--kind", "kschur-to-h", "--k", "3", "--n", "4", "--format", "csv")
    path = next(tmp_path.glob("*.json"))
    path.write_text("[1, 2, 3]", encoding="utf-8")
    _, again = run(capsys, "matrix", "--kind", "kschur-to-h", "--k", "3", "--n", "4", "--format", "csv")
    assert again == cold


def test_matrix_cache_file_is_the_json_output(tmp_path, monkeypatch, capsys):
    """A cold request makes each row's text once, whatever the format, and
    writes the cache file as exactly the bytes a json request prints, after
    a crc32 field, with a newline after the prefix and after each comma
    between rows."""
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    made = []
    row_texts = cli._row_texts

    def counted_row_texts(matrix):
        for row in row_texts(matrix):
            made.append(row)
            yield row

    monkeypatch.setattr(cli, "_row_texts", counted_row_texts)
    argv = ("matrix", "--kind", "h-to-ns", "--k", "3", "--n", "5", "--format")
    doc = matrix_document("h-to-ns", 3, 5)
    for fmt in ("json", "csv", "latex"):
        for path in tmp_path.glob("*.json"):
            path.unlink()
        made.clear()
        code, out = run(capsys, *argv, fmt)
        assert code == 0 and len(made) == len(doc["row_labels"])
        text = next(tmp_path.glob("*.json")).read_text(encoding="utf-8")
        assert text == cache_file(doc)
        assert out == rendered(doc, fmt) + "\n"
        if fmt == "json":
            field, rest = text.split(",", 1)
            assert field == f'{{"crc32":"{crc_field(text)}"' and out == "{" + rest.replace("\n", "") + "\n"


CORPUS_KS = (1, 2, 3, None)
CORPUS_NS = range(8)


def header(kind, k, n):
    """Every field of the matrix document but its entries, from the
    enumerated labels and the literal field names."""
    labels = [list(label) for label in SIDE_OF[MATRIX_KINDS[kind][0]].labels(n, k)]
    return {"schema_version": "1", "k": format_k(k), "n": n, "kind": kind, "row_labels": labels, "col_labels": labels}


def dense_document(kind, k, n):
    """The matrix document with its entries read from the dense rows."""
    entries = [v for row in dense(cli._matrix(kind, k, n)) for v in row]
    return {**header(kind, k, n), "entries": entries}


@pytest.mark.parametrize("fmt", ["json", "csv", "latex"])
@pytest.mark.parametrize("kind", list(MATRIX_KINDS))
def test_cold_stream_matches_dense_document(kind, fmt, tmp_path, monkeypatch, capsys):
    """The streamed cold output equals the document built from the dense
    rows and rendered whole, the cache file is its json text, one row per
    line, and the warm request that reads that file prints the same."""
    for k in CORPUS_KS:
        for n in CORPUS_NS:
            monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path / f"{k}-{n}"))
            argv = ("matrix", "--kind", kind, "--k", str(format_k(k)), "--n", str(n), "--format", fmt)
            code, out = run(capsys, *argv)
            doc = dense_document(kind, k, n)
            assert code == 0 and out == rendered(doc, fmt) + "\n", (k, n)
            (path,) = (tmp_path / f"{k}-{n}").iterdir()
            assert path.read_text(encoding="utf-8") == cache_file(doc), (k, n)
            assert run(capsys, *argv) == (0, out), (k, n)


def test_row_texts_match_dense_rows():
    """Each row's text, spliced from its packed entries, is its dense
    entries joined by commas."""
    for kind in MATRIX_KINDS:
        for k in CORPUS_KS:
            for n in CORPUS_NS:
                matrix = cli._matrix(kind, k, n)
                assert list(cli._row_texts(matrix)) == [",".join(map(str, row)).encode() for row in dense(matrix)]


@pytest.mark.parametrize("kind", list(MATRIX_KINDS))
def test_matrix_document_is_the_parsed_cold_json_output(kind, tmp_path, monkeypatch, capsys):
    """matrix_document parses the text of the one row writer, reading and
    writing no cache: it equals the parsed output of a cold json request
    and the document built from the dense rows."""
    for k in (2, 3, None):
        for n in range(7):
            monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path / f"{k}-{n}"))
            code, out = run(capsys, "matrix", "--kind", kind, "--k", str(format_k(k)), "--n", str(n))
            doc = matrix_document(kind, k, n)
            assert code == 0 and doc == json.loads(out) == dense_document(kind, k, n), (k, n)
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path / "unused"))
    matrix_document(kind, 3, 4)
    assert not (tmp_path / "unused").exists()


@pytest.mark.parametrize("kind", list(MATRIX_KINDS))
def test_csv_table_matches_csv_writer(kind):
    """The csv rows are written as label plus entry text; the csv module,
    fed one field per label and entry, is the oracle."""
    source = MATRIX_KINDS[kind][0]
    for k in CORPUS_KS:
        for n in CORPUS_NS:
            doc = matrix_document(kind, k, n)
            d = len(doc["col_labels"])
            expected = io.StringIO()
            writer = csv.writer(expected, lineterminator="\n")
            writer.writerow([""] + [format_label(source, label) for label in doc["col_labels"]])
            for r, label in enumerate(doc["row_labels"]):
                writer.writerow([format_label(source, label), *doc["entries"][r * d : (r + 1) * d]])
            assert render_matrix(doc, "csv") + "\n" == expected.getvalue(), (k, n)


@pytest.mark.parametrize("kind", list(MATRIX_KINDS))
def test_json_prefix_matches_json_module(kind):
    """The prefix is written without the json module; the json module, fed
    the header with no entries, is the oracle.  The prefix is written from
    the enumerated tuple labels with k as the request holds it, as a
    request writes it, and from the list labels with k as a parsed
    document holds it, as render_matrix writes it; the empty label at
    n = 0, one-part labels and a two-digit part are among the cases."""
    requests = [(kind, k, n) for k in CORPUS_KS for n in range(7)]
    if kind == "ns-to-h":
        requests.append((kind, None, 10))  # its first label is [10]
    for request in requests:
        fields = header(*request)
        expected = json.dumps({**fields, "entries": []}, separators=(",", ":"))[:-2].encode()
        labels = SIDE_OF[MATRIX_KINDS[kind][0]].labels(request[2], request[1])
        assert cli._json_prefix(*request, labels) == expected, request
        assert cli._json_prefix(kind, fields["k"], fields["n"], fields["row_labels"]) == expected, request
    assert header(kind, 2, 0)["row_labels"] == [[]]
    assert [1] in header(kind, 2, 1)["row_labels"]
    assert [10] in header("ns-to-h", None, 10)["row_labels"]


@pytest.mark.parametrize("k", [2, None])
@pytest.mark.parametrize("kind", list(MATRIX_KINDS))
def test_render_matrix_json_matches_json_module(kind, k):
    """render_matrix writes json with the request writer; the json module,
    fed the whole document, is the oracle."""
    for n in CORPUS_NS:
        doc = matrix_document(kind, k, n)
        assert render_matrix(doc, "json") == json.dumps(doc, separators=(",", ":")), n


@pytest.mark.parametrize("fmt", ["csv", "latex"])
def test_matrix_cold_other_format_then_warm_json(fmt, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path / "json"))
    _, cold = run(capsys, "matrix", "--kind", "dualkschur-to-m", "--k", "2", "--n", "5", "--format", "json")
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path / fmt))
    run(capsys, "matrix", "--kind", "dualkschur-to-m", "--k", "2", "--n", "5", "--format", fmt)
    _, warm = run(capsys, "matrix", "--kind", "dualkschur-to-m", "--k", "2", "--n", "5", "--format", "json")
    assert warm == cold


def test_matrix_failed_cache_write_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))

    def failing_replace(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cli.os, "replace", failing_replace)
    code, out = run(capsys, "matrix", "--kind", "ns-to-h", "--k", "2", "--n", "4", "--format", "json")
    assert code == 0
    assert out == json.dumps(matrix_document("ns-to-h", 2, 4), separators=(",", ":")) + "\n"
    assert list(tmp_path.iterdir()) == []


class FailsAtTheField(io.BufferedWriter):
    """A cache temp file whose seek to the crc32 field raises OSError, or,
    failing "write", whose write after that seek does."""

    def __init__(self, fd, failing):
        super().__init__(io.FileIO(fd, "w"))
        self.failing, self.sought = failing, False

    def seek(self, *args):
        if self.failing == "seek":
            raise OSError("seek failed")
        self.sought = True
        return super().seek(*args)

    def write(self, data):
        if self.sought:
            raise OSError("write failed")
        return super().write(data)


@pytest.mark.parametrize("failing", ["seek", "write"])
def test_matrix_failed_crc_field_write_leaves_no_file(failing, tmp_path, monkeypatch, capsys):
    """A seek to the crc32 field, or the write of its digits, that fails
    once the rows are written leaves no temp file and no cache file, and
    the temp file closed; the request still prints all of its output."""
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    opened = []
    monkeypatch.setattr(cli.os, "fdopen", lambda fd, mode: opened.append(FailsAtTheField(fd, failing)) or opened[-1])
    code, out = run(capsys, "matrix", "--kind", "ns-to-h", "--k", "3", "--n", "5")
    assert (code, out) == (0, json.dumps(matrix_document("ns-to-h", 3, 5), separators=(",", ":")) + "\n")
    assert opened[0].closed and opened[0].sought == (failing == "write")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["json", "csv", "latex"])
def test_matrix_failed_streamed_write_keeps_stdout(fmt, tmp_path, monkeypatch, capsys):
    """A cache file that refuses its first write is dropped, while the
    request still prints all of its output."""
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(cli.os, "fdopen", lambda fd, *args, **kwargs: open(fd, "rb"))
    code, out = run(capsys, "matrix", "--kind", "m-to-qs", "--k", "3", "--n", "5", "--format", fmt)
    assert code == 0
    assert out == rendered(matrix_document("m-to-qs", 3, 5), fmt) + "\n"
    assert list(tmp_path.iterdir()) == []


def test_closed_stdout_exits_141_quietly(tmp_path):
    """The n = 9 csv and json (each about 150 KB) outgrow a 64 KiB pipe
    buffer, so the child always writes into the pipe after the reader has
    closed it.  A cold json request writes each row to the cache temp file
    and to stdout in turn; either way the temp file must go."""
    for fmt, first in (("csv", b","), ("json", b"{")):
        cache = tmp_path / fmt
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"), KSCHUR_CACHE_DIR=str(cache))
        argv = ["matrix", "--kind", "h-to-ns", "--k", "inf", "--n", "9", "--format", fmt]
        with subprocess.Popen(
            [sys.executable, "-m", "kschur.cli", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        ) as child:
            assert child.stdout.read(1) == first
            child.stdout.close()
            stderr = child.stderr.read()
            code = child.wait(timeout=60)
        assert (code, stderr) == (141, b""), fmt
        assert not list(cache.glob("*.tmp")), fmt
        assert not list(cache.iterdir()), fmt  # nor a partial cache file


def test_kostka_command(capsys):
    code, out = run(capsys, "kostka", "composition", "1,3,1,1", "1,1,2,1,1", "--k", "3", "--order", "paper")
    assert code == 0 and out == "2\n"
    code, out = run(capsys, "kostka", "partition", "2,1,1", "1,1,1,1", "--k", "3")
    assert code == 0 and out == "2\n"
    code, out = run(capsys, "kostka", "composition", "2", "2", "--k", "5", "--order", "pieri")
    assert code == 0 and out == "1\n"


def test_kostka_errors(capsys):
    code, _ = run(capsys, "kostka", "composition", "2,1", "1,1", "--k", "3")
    assert code == 2  # size mismatch
    code, _ = run(capsys, "kostka", "composition", "2,x", "2,1", "--k", "3")
    assert code == 2  # parse error


# A k above sys.maxsize, which the counters' windows of k entries cannot
# hold, and its usage error.
HUGE_K = "99999999999999999999"
HUGE_K_ERROR = f"k {HUGE_K!r} is above {sys.maxsize}; use 'inf' for no bound"

# A label part longer than int()'s 4300-digit limit for a string.
NINES = "9" * 5000


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (("composition", "2,0", "1,1"), 2, "error: composition parts must be positive: (2, 0)\n"),
        (("composition", "2", "0,2"), 2, "error: composition parts must be positive: (0, 2)\n"),
        (("partition", "1,2", "2,1"), 2, "error: partition parts must weakly decrease: (1, 2)\n"),
        (("composition", "2,1", "3", "--k", "2"), 3, "error: (3,) is not 2-bounded\n"),
        (("partition", "2,1", "3", "--k", "2"), 3, "error: (3,) is not 2-bounded\n"),
        (("composition", "1,a", "2"), 2, "error: cannot read '1,a' as comma-separated integers\n"),
        (("partition", "2", "1,,1"), 2, "error: cannot read '1,,1' as comma-separated integers\n"),
        (("composition", "2", "2", "--k", "x"), 2, "error: k must be at least 1 or 'inf', got 'x'\n"),
        (("composition", "1_0", "10"), 2, "error: cannot read '1_0' as comma-separated integers\n"),
        (("composition", "2", "+2"), 2, "error: cannot read '+2' as comma-separated integers\n"),
        (("partition", " 3", "3"), 2, "error: cannot read ' 3' as comma-separated integers\n"),
        (("composition", "1, 2", "3"), 2, "error: cannot read '1, 2' as comma-separated integers\n"),
        (("partition", "\u0663", "3"), 2, "error: cannot read '\u0663' as comma-separated integers\n"),
        (("composition", "2", "2", "--k", "1_0"), 2, "error: k must be at least 1 or 'inf', got '1_0'\n"),
        (("composition", "-1", "1"), 2, "error: composition parts must be positive: (-1,)\n"),
        (("composition", "1", "1", "--k", HUGE_K), 2, f"error: {HUGE_K_ERROR}\n"),
        pytest.param(
            ("composition", NINES, "1"), 2, f"error: label {NINES!r} has a part of more than 19 digits\n",
            id="5000-digit part",
        ),
        (("partition", "1", HUGE_K), 2, f"error: label {HUGE_K!r} has a part of more than 19 digits\n"),
        (("composition", "[]", "1"), 2, "error: cannot read '[]' as comma-separated integers\n"),
        (("partition", "()", "1"), 2, "error: cannot read '()' as comma-separated integers\n"),
        (("composition", "1", "[]"), 2, "error: cannot read '[]' as comma-separated integers\n"),
        (("partition", "1", "()"), 2, "error: cannot read '()' as comma-separated integers\n"),
    ],
)
def test_kostka_label_errors(argv, code, err, capsys):
    """A malformed shape or content is a usage error; a well-formed content
    that is not k-bounded is a domain violation."""
    assert main(["kostka", *argv]) == code
    assert capsys.readouterr() == ("", err)


def test_expand_ns_to_h(capsys):
    code, out = run(capsys, "expand", "S:[1,1,1]@k=3", "H")
    assert code == 0
    assert out.splitlines() == ["1*H[1,1,1]", "-1*H[1,2]", "-1*H[2,1]", "1*H[3]"]


def test_expand_qs_to_m(capsys):
    code, out = run(capsys, "expand", "QS:[2,2]@k=3", "M")
    assert code == 0
    assert "2*M[1,1,1,1]" in out.splitlines()


def test_expand_h_to_s_unbounded(capsys):
    code, out = run(capsys, "expand", "H:[2,1]@k=inf", "S")
    assert code == 0
    assert out.splitlines() == ["1*S[2,1]", "1*S[3]"]


def test_expand_partition_side(capsys):
    code, out = run(capsys, "expand", "dual-s:(2,1,1)@k=3", "m")
    assert code == 0
    assert "2*m(1,1,1,1)" in out.splitlines()


@pytest.mark.parametrize(
    "argv",
    [
        ("matrix", "--kind", "h-to-ns", "--k", "inf", "--n", "1000000"),
        ("matrix", "--kind", "kschur-to-h", "--k", "2", "--n", "1000000"),
        ("matrix", "--kind", "m-to-qs", "--k", "inf", "--n", "16"),
        ("matrix", "--kind", "dualkschur-to-m", "--k", "inf", "--n", "36"),
        ("expand", "S:[30]@k=inf", "H"),
        ("expand", "s:(1000000)@k=inf", "h"),
        ("matrix", "--kind", "dualkschur-to-m", "--k", "inf", "--n", "32"),
        ("matrix", "--kind", "kschur-to-h", "--k", "3", "--n", "200"),
        ("matrix", "--kind", "kschur-to-h", "--k", "2", "--n", "400"),
        ("matrix", "--kind", "ns-to-h", "--k", "1", "--n", "2000"),
        ("kostka", "partition", ",".join(map(str, range(14, 0, -1))), ",".join(["1"] * 105)),
    ],
    ids=[
        "compositions-1e6", "partitions-1e6", "compositions-16", "partitions-36", "expand-30", "expand-1e6",
        "partitions-32-inf", "partitions-200-3", "partitions-400-2", "compositions-2000-1", "kostka-staircase-14",
    ],
)
def test_oversized_request_is_refused_before_enumerating(argv, monkeypatch, capsys):
    """When the labels of degrees 0..n have more than MAX_CELLS cells, a
    matrix, expand or kostka request exits 3 with one error line within
    2 s, having counted the labels without enumerating any.  The four
    before the last have few labels at degree n but ran past 60 s, or
    15 s, when only degree n was bounded; the kostka staircase of 14 rows
    (105 cells, all-ones content) ran past 30 s when kostka had no limit."""

    def no_labels(*args):
        raise AssertionError("an oversized request enumerated its labels")

    for name, side in list(cli.SIDES.items()):
        counting_only = side._replace(labels=no_labels)
        monkeypatch.setitem(cli.SIDES, name, counting_only)
        for kind in side.kinds:
            monkeypatch.setitem(cli.SIDE_OF, kind, counting_only)
    start = time.perf_counter()
    assert main(list(argv)) == 3
    assert time.perf_counter() - start < 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert f"more than {cli.MAX_CELLS} cells" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "duality", "--max-n", "40", "--k", "inf"),
        ("--suite", "negativity", "--max-n", "16", "--k", "2"),
        ("--suite", "stabilization", "--max-n", "16"),
        ("--suite", "omega", "--max-n", "100000", "--k", "2"),
        ("--suite", "projection", "--max-n", "16", "--k", "inf"),
        ("--suite", "decomposition", "--max-n", "16", "--k", "inf"),
    ],
    ids=[
        "duality-40-inf", "negativity-16", "stabilization-16", "omega-100000-2", "projection-16-inf",
        "decomposition-16-inf",
    ],
)
def test_oversized_verify_suite_is_refused_at_once(argv, tmp_path):
    """A suite that would build systems past MAX_CELLS cells exits 3 with
    one error line within 2 s; negativity and stabilization count at
    k = inf, as they build the unbounded composition side, and omega
    counts the partitions bounded by its --k.  projection and
    decomposition are refused one degree past their reach."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"), KSCHUR_CACHE_DIR=str(tmp_path))
    result = subprocess.run(
        [sys.executable, "-m", "kschur.cli", "verify", *argv], env=env, capture_output=True, text=True, timeout=2
    )
    assert result.returncode == 3 and result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert f"more than {cli.MAX_CELLS} cells" in result.stderr


# The largest --max-n that each limited suite admits at the given --k: the
# composition edge at k = inf is 15 (negativity and stabilization build
# k = inf whatever their --k), and omega reads the partitions bounded by
# its --k, whose edge at k = 2 is 152.
VERIFY_EDGES = {
    "duality": ("--k", "inf", "--max-n", 15),
    "projection": ("--k", "inf", "--max-n", 15),
    "decomposition": ("--k", "inf", "--max-n", 15),
    "stabilization": ("--max-n", 15),
    "omega": ("--k", "2", "--max-n", 152),
    "negativity": ("--k", "2", "--max-n", 15),
}


@pytest.mark.parametrize("suite", VERIFY_EDGES)
def test_verify_suite_edge_is_admitted(suite, monkeypatch, capsys):
    """A suite runs at the largest --max-n its label limit admits, and is
    refused one degree past it; the suite itself is patched out, so that
    nothing is built."""
    passing = VerificationReport(suite, {}, (VerificationCase("edge", True),))
    monkeypatch.setattr(bases, cli.VERIFY_SUITES[suite][0], lambda *args: passing)
    *flags, edge = VERIFY_EDGES[suite]
    code, out = run(capsys, "verify", "--suite", suite, *flags, str(edge))
    assert code == 0 and json.loads(out)["passed"]
    assert main(["verify", "--suite", suite, *flags, str(edge + 1)]) == 3
    assert f"more than {cli.MAX_CELLS} cells" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, k, n",
    [
        ("H", 1, 1094), ("H", 2, 20), ("S", 3, 16), ("H", 4, 15), ("H", 5, 15), ("H", 6, 15), ("H", None, 15),
        ("h", 1, 1094), ("h", 2, 152), ("h", 3, 70), ("h", 4, 49), ("h", 5, 40), ("h", 6, 36), ("s", None, 29),
    ],
)
def test_label_limit_admits_the_largest_requests(kind, k, n):
    """The largest degree the limit admits on each side and k.  At k = 1
    every degree has one label, and 1094 * 1095 / 2 = 598965 cells; the
    composition edges at k >= 2 are those of the 16384-label bound on
    degree n alone that the limit replaced, the largest (20, 2) at 526775
    cells and (15, inf) at 458753; partitions at k = inf stop at n = 29,
    581400 cells."""
    cli._require_label_limit(kind, k, n)
    with pytest.raises(DomainError):
        cli._require_label_limit(kind, k, n + 1)


def test_expand_domain_violation(capsys):
    code = main(["expand", "S:[3]@k=2", "H"])
    assert code == 3
    assert capsys.readouterr().err == "error: index (3,) is not 2-bounded\n"


@pytest.mark.parametrize(
    "spec, err",
    [
        ("S:(2,1)@k=3", "kind 'S' does not take a partition index"),
        ("s:[1]@k=3", "kind 's' does not take a composition index"),
        ("X:[1]@k=3", "kind 'X' does not take a composition index"),
        ("X:(1)@k=3", "kind 'X' does not take a partition index"),
        ("S:[@k=3", "bad index '['; use [..] or (..)"),
        ("S:[1)@k=3", "bad index '[1)'; use [..] or (..)"),
        ("S:1@k=3", "bad index '1'; use [..] or (..)"),
        ("s:[0]@k=3", "composition parts must be positive: (0,)"),
        ("S:(1,2)@k=3", "partition parts must weakly decrease: (1, 2)"),
        ("S:[1,x]@k=2", "cannot read '1,x' as comma-separated integers"),
        ("S:[1]@k=2.5", "k must be at least 1 or 'inf', got '2.5'"),
        (f"S:[1]@k={HUGE_K}", HUGE_K_ERROR),
        ("S:[[]]@k=2", "cannot read '[]' as comma-separated integers"),
        ("S:[()]@k=2", "cannot read '()' as comma-separated integers"),
        (" S:[1]@k=2", "kind ' S' does not take a composition index"),
        ("S:[1] @k=2", "bad index '[1] '; use [..] or (..)"),
        ("S:[1]@k= 2", "k must be at least 1 or 'inf', got ' 2'"),
        ("S[1]@k=2:", "bad element spec 'S[1]@k=2:'; expected KIND:INDEX@k=K"),
    ],
)
def test_expand_spec_rejections(spec, err, capsys):
    """A spec whose index does not fit its kind is a usage error, and a
    malformed index is reported before a kind mismatch."""
    assert main(["expand", spec, "H"]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_empty_labels(capsys):
    """The empty label is written "" in kostka and [] or () in a spec."""
    assert run(capsys, "expand", "S:[]@k=2", "H") == (0, "1*H[]\n")
    assert run(capsys, "kostka", "composition", "", "") == (0, "1\n")


def test_expand_spec_error(capsys):
    code, _ = run(capsys, "expand", "S:[2,1]", "H")
    assert code == 2
    code, _ = run(capsys, "expand", "S:[2,1]@k=3", "m")
    assert code == 2


def _oracle_expansions(n, k):
    """Every expansion matrix as (source kind, target kind) -> (system, rows),
    the inverses taken by Gauss-Jordan rather than by peeling first parts."""
    def transpose(rows):
        return [list(col) for col in zip(*rows)]

    out = {}
    for system, (H, S, QS, M) in (
        (systems.build_schur_system(n, k), ("H", "S", "QS", "M")),
        (systems.build_kschur_system(n, k), ("h", "s", "dual-s", "m")),
    ):
        rows = dense(system.matrix(H, S))
        out[(H, S)] = (system, rows)
        out[(S, H)] = (system, invert_integer_matrix(rows))
        out[(QS, M)] = (system, transpose(rows))
        out[(M, QS)] = (system, invert_integer_matrix(transpose(rows)))
    return out


@pytest.mark.parametrize("k", [2, 3, None])
def test_expansions_match_oracle(k, capsys):
    for n in range(7):
        expected = _oracle_expansions(n, k)
        assert len(expected) == 8 and set(MATRIX_KINDS.values()) < set(expected)
        for kind, pair in MATRIX_KINDS.items():
            _, rows = expected[pair]
            assert matrix_document(kind, k, n)["entries"] == [v for row in rows for v in row], kind
        for (source, target), (system, rows) in expected.items():
            for label, row in zip(system.labels, rows):
                want = LinearCombination(target, k, dict(zip(system.labels, row)))
                code, out = run(capsys, "expand", f"{source}:{format_label(source, label)}@k={format_k(k)}", target)
                assert code == 0
                assert out.splitlines() == [f"{c}*{target}{format_label(target, i)}" for i, c in want.terms()], (
                    source, target, label,
                )


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    """The README's "Library" block runs, and its matrix entry is the -1
    that its comment states, at n = 4, k = 3."""
    block = README.read_text(encoding="utf-8").split("## Library\n\n```\n", 1)[1].split("```", 1)[0]
    assert "# -1, the H[1,2,1] coefficient of S[1,1,1,1]" in block
    namespace = {}
    exec(block, namespace)
    assert (namespace["system"].n, namespace["system"].k) == (4, 3)
    assert namespace["matrix"].entry((1, 1, 1, 1), (1, 2, 1)) == -1


def test_readme_command_examples_run():
    """Each command in the README's "Command line" block exits 0."""
    block = README.read_text(encoding="utf-8").split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines()]
    assert commands and all(argv[0] == "kschur" for argv in commands)
    for argv in commands:
        assert main(argv[1:]) == 0, argv


# How the README's suite table writes each --k rule of VERIFY_SUITES.
README_K_RULES = {"any": "any", "finite": "finite only", "one": "one finite"}


def test_readme_suite_table_matches_verify_suites(capsys):
    """Each row of the README's suite table names a suite of
    cli.VERIFY_SUITES with that row's function, calls, defaults and --k
    rule, and every suite has a row; a flag the table says is not read is
    refused."""
    lines = README.read_text(encoding="utf-8").split("\n| suite | `bases` function |", 1)[1].split("\n\n", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines.splitlines()[2:]]
    assert [row[0] for row in rows] == [f"`{suite}`" for suite in cli.VERIFY_SUITES]
    for (_, function, calls, max_n, ks, rule, _), (suite, entry) in zip(rows, cli.VERIFY_SUITES.items()):
        name, per_degree, default_n, default_ks, k_rule = entry[:5]
        assert function == f"`{name}`" and calls.startswith("per degree") == per_degree, suite
        assert max_n.split(" (")[0] == ("not read" if default_n is None else str(default_n)), suite  # 8 (total degree)
        assert ks == ("not read" if default_ks is None else ",".join(map(str, default_ks))), suite
        assert rule == ("not read" if default_ks is None else README_K_RULES[k_rule]), suite
        for flag, cell in (("--max-n", max_n), ("--k", ks)):
            if cell == "not read":
                assert main(["verify", "--suite", suite, flag, "1"]) == 2
                assert capsys.readouterr() == ("", f"error: the {suite} suite takes no {flag}\n")


REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"


def test_recorded_outputs(monkeypatch, tmp_path, capsys):
    """Every recorded request still gives its recorded exit code, stdout
    digest and verify case count; matrix requests also on a warm cache."""
    requests = json.loads(REFERENCES.read_text(encoding="utf-8"))["requests"]
    assert requests
    for number, (request, ref) in enumerate(sorted(requests.items())):
        monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path / str(number)))
        argv = request.split(" ")
        for _ in range(2 if argv[0] == "matrix" else 1):
            code, out = run(capsys, *argv)
            assert code == ref["exit"], request
            assert hashlib.sha256(out.encode()).hexdigest() == ref["sha256"], request
            if argv[0] == "verify":
                assert len(json.loads(out)["cases"]) == ref["cases"], request


@pytest.mark.parametrize(
    "argv, err",
    [
        (("--kind", "ns-to-h", "--k", "2", "--n", "-1"), "error: n must be nonnegative\n"),
        (("--kind", "dualkschur-to-m", "--k", "2", "--n", "-1"), "error: n must be nonnegative\n"),
        (("--kind", "ns-to-h", "--k", "0", "--n", "2"), "error: k must be at least 1 or 'inf', got '0'\n"),
        (("--kind", "dualkschur-to-m", "--k", "0", "--n", "2"), "error: k must be at least 1 or 'inf', got '0'\n"),
        (("--kind", "ns-to-h", "--k", "3.5", "--n", "2"), "error: k must be at least 1 or 'inf', got '3.5'\n"),
        (("--kind", "kschur-to-h", "--k", "", "--n", "2"), "error: k must be at least 1 or 'inf', got ''\n"),
        (("--kind", "ns-to-h", "--k", "1_0", "--n", "1"), "error: k must be at least 1 or 'inf', got '1_0'\n"),
        (("--kind", "qs-to-m", "--k", "+2", "--n", "1"), "error: k must be at least 1 or 'inf', got '+2'\n"),
        (("--kind", "kschur-to-h", "--k", " 3", "--n", "1"), "error: k must be at least 1 or 'inf', got ' 3'\n"),
        (("--kind", "dualkschur-to-m", "--k", "\u0663", "--n", "1"), "error: k must be at least 1 or 'inf', got '\u0663'\n"),
        (("--kind", "ns-to-h", "--k", HUGE_K, "--n", "2"), f"error: {HUGE_K_ERROR}\n"),
        (("--kind", "h-to-ns", "--k", "9" * 5000, "--n", "2"), f"error: k {'9' * 5000!r} is above {sys.maxsize}; use 'inf' for no bound\n"),
        (("--kind", "ns-to-h", "--k", "2", "--n", "1_0"), "error: argument --n: expected ASCII decimal digits, got '1_0'\n"),
        (("--kind", "qs-to-m", "--k", "2", "--n", "+3"), "error: argument --n: expected ASCII decimal digits, got '+3'\n"),
        (("--kind", "kschur-to-h", "--k", "2", "--n", " 3"), "error: argument --n: expected ASCII decimal digits, got ' 3'\n"),
        (("--kind", "dualkschur-to-m", "--k", "2", "--n", "\u0663"), "error: argument --n: expected ASCII decimal digits, got '\u0663'\n"),
        (("--kind", "ns-to-h", "--k", "\uff13", "--n", "1"), "error: k must be at least 1 or 'inf', got '\uff13'\n"),
        (("--kind", "kschur-to-h", "--k", "\u00b2", "--n", "1"), "error: k must be at least 1 or 'inf', got '\u00b2'\n"),
        (("--kind", "qs-to-m", "--k", "2", "--n", "\uff13"), "error: argument --n: expected ASCII decimal digits, got '\uff13'\n"),
        (("--kind", "h-to-ns", "--k", "2", "--n", "\u00b2"), "error: argument --n: expected ASCII decimal digits, got '\u00b2'\n"),
    ],
)
def test_matrix_usage_errors(argv, err, tmp_path, monkeypatch, capsys):
    """A negative degree, a zero bound, a bound above sys.maxsize or a bound
    or degree that is not ASCII decimal digits is refused on both sides
    before any cache file is read or written."""
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    assert refusal(capsys, ["matrix", *argv]) == (2, "", err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("xdg", ["", "relative/cache"])
def test_cache_dir_ignores_empty_or_relative_xdg_cache_home(xdg, tmp_path, monkeypatch, capsys):
    """An empty XDG_CACHE_HOME counts as unset and a relative one is
    ignored, so the cache goes to ~/.cache/kschur, not below the working
    directory."""
    home, work = tmp_path / "home", tmp_path / "work"
    work.mkdir()
    monkeypatch.delenv("KSCHUR_CACHE_DIR", raising=False)
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", xdg)
    monkeypatch.chdir(work)
    assert cli.cache_dir() == str(home / ".cache" / "kschur")
    assert run(capsys, "matrix", "--kind", "ns-to-h", "--k", "2", "--n", "2")[0] == 0
    assert list(work.iterdir()) == []
    assert [p.name for p in (home / ".cache" / "kschur").iterdir()] == ["ns-to-h_k2_n2_v1.json"]
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert cli.cache_dir() == str(tmp_path / "xdg" / "kschur")


def test_largest_k_is_sys_maxsize(tmp_path, monkeypatch, capsys):
    """k = sys.maxsize is a bound like any other: at n = 2 it gives the
    unbounded matrix.  One more is a usage error (HUGE_K_ERROR)."""
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    assert cli.parse_k(str(sys.maxsize)) == sys.maxsize
    code, out = run(capsys, "matrix", "--kind", "ns-to-h", "--k", str(sys.maxsize), "--n", "2")
    assert code == 0 and json.loads(out)["entries"] == matrix_document("ns-to-h", None, 2)["entries"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["matrix", "--kind", "bogus", "--k", "2", "--n", "2"])
    assert info.value.code == 2


def test_verify_appendix(capsys):
    code, out = run(capsys, "verify", "--suite", "appendix")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] and len(report["cases"]) == 12


def test_verify_small_grids(capsys):
    code, out = run(capsys, "verify", "--suite", "duality", "--max-n", "4", "--k", "2,3")
    assert code == 0 and json.loads(out)["passed"]
    code, out = run(capsys, "verify", "--suite", "projection", "--max-n", "4", "--k", "2")
    assert code == 0 and json.loads(out)["passed"]
    code, out = run(capsys, "verify", "--suite", "decomposition", "--max-n", "4", "--k", "2")
    assert code == 0 and json.loads(out)["passed"]
    code, out = run(capsys, "verify", "--suite", "stabilization", "--max-n", "4")
    assert code == 0 and json.loads(out)["passed"]
    code, out = run(capsys, "verify", "--suite", "omega", "--max-n", "6", "--k", "3")
    assert code == 0 and json.loads(out)["passed"]


@pytest.mark.parametrize("suite", ["duality", "projection", "decomposition"])
def test_verify_case_names_write_unbounded_k_as_inf(suite, capsys):
    """A case name writes k = inf as the parameters do, not as None."""
    code, out = run(capsys, "verify", "--suite", suite, "--max-n", "2", "--k", "inf")
    report = json.loads(out)
    assert code == 0 and report["parameters"]["k"] == ["inf"]
    assert report["cases"] and all(case["name"].endswith(" k=inf") for case in report["cases"])


def test_verify_negativity(capsys):
    code, out = run(capsys, "verify", "--suite", "negativity", "--max-n", "6", "--k", "2")
    assert code == 0
    report = json.loads(out)
    assert report["passed"]
    assert all("witnesses" in case["detail"] for case in report["cases"])


def test_verify_failure_exit_code(monkeypatch, capsys):
    failing = VerificationReport(
        "appendix", {}, (VerificationCase(name="forced", passed=False, detail="x"),)
    )
    monkeypatch.setattr(bases, "verify_appendix", lambda: failing)
    code, out = run(capsys, "verify", "--suite", "appendix")
    assert code == 1
    assert not json.loads(out)["passed"]


# Each usage error of verify with its stderr line; a new case goes last, so
# that every case keeps its id.
VERIFY_USAGE_ERRORS = [
    (("--suite", "negativity", "--k", "inf"), "the negativity suite takes only finite --k values"),
    (("--suite", "duality", "--max-n", "-3"), "--max-n must be nonnegative, got -3"),
    (("--suite", "stabilization", "--max-n", "-1"), "--max-n must be nonnegative, got -1"),
    (("--suite", "omega", "--k", "inf"), "the omega suite takes one finite --k"),
    (("--suite", "omega", "--k", "3,inf"), "the omega suite takes one finite --k"),
    (("--suite", "omega", "--k", "3,1"), "the omega suite takes one finite --k"),
    (("--suite", "negativity", "--k", "2,inf"), "the negativity suite takes only finite --k values"),
    (("--suite", "appendix", "--max-n", "3", "--k", "2"), "the appendix suite takes no --max-n"),
    (("--suite", "appendix", "--max-n", "3"), "the appendix suite takes no --max-n"),
    (("--suite", "appendix", "--k", "2"), "the appendix suite takes no --k"),
    (("--suite", "stabilization", "--k", "3"), "the stabilization suite takes no --k"),
    (("--suite", "duality", "--k", ""), "k must be at least 1 or 'inf', got ''"),
    (("--suite", "duality", "--k", "2,2"), "--k 2,2 repeats a value"),
    (("--suite", "duality", "--k", "2,"), "k must be at least 1 or 'inf', got ''"),
    (("--suite", "projection", "--k", "2,3.5"), "k must be at least 1 or 'inf', got '3.5'"),
    (("--suite", "omega", "--k", "0"), "k must be at least 1 or 'inf', got '0'"),
    (("--suite", "omega", "--max-n", "-1", "--k", "3"), "--max-n must be nonnegative, got -1"),
    (("--suite", "negativity", "--k", "inf,inf"), "--k inf,inf repeats a value"),
    (("--suite", "duality", "--k", "1_0"), "k must be at least 1 or 'inf', got '1_0'"),
    (("--suite", "negativity", "--k", "2,+3"), "k must be at least 1 or 'inf', got '+3'"),
    (("--suite", "projection", "--k", "2, 3"), "k must be at least 1 or 'inf', got ' 3'"),
    (("--suite", "omega", "--k", "\u0663"), "k must be at least 1 or 'inf', got '\u0663'"),
    (("--suite", "duality", "--max-n", "1", "--k", HUGE_K), HUGE_K_ERROR),
    (("--suite", "duality", "--max-n", "1_0", "--k", "2"), "argument --max-n: expected ASCII decimal digits, got '1_0'"),
    (("--suite", "duality", "--max-n", "+3", "--k", "2"), "argument --max-n: expected ASCII decimal digits, got '+3'"),
    (("--suite", "projection", "--max-n", " 3"), "argument --max-n: expected ASCII decimal digits, got ' 3'"),
    (("--suite", "duality", "--max-n", "\u0662", "--k", "2"), "argument --max-n: expected ASCII decimal digits, got '\u0662'"),
    (("--suite", "duality", "--k", "2,\uff13"), "k must be at least 1 or 'inf', got '\uff13'"),
    (("--suite", "omega", "--k", "\u00b2"), "k must be at least 1 or 'inf', got '\u00b2'"),
    (("--suite", "duality", "--max-n", "\uff13", "--k", "2"), "argument --max-n: expected ASCII decimal digits, got '\uff13'"),
    (("--suite", "projection", "--max-n", "\u00b2"), "argument --max-n: expected ASCII decimal digits, got '\u00b2'"),
]


@pytest.mark.parametrize("argv, err", VERIFY_USAGE_ERRORS, ids=[f"argv{i}" for i in range(len(VERIFY_USAGE_ERRORS))])
def test_verify_refuses_vacuous_requests(argv, err, capsys):
    """Each usage error exits 2 with its one stderr line (after argparse's
    usage lines, for a malformed --max-n) and no output."""
    assert refusal(capsys, ["verify", *argv]) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("max_n", ["0", "1"])
def test_verify_negativity_refuses_a_total_degree_below_2(max_n, capsys):
    """No product of two factors of positive degree has a total degree
    below 2; the usage error names the total degree, which is --max-n."""
    code = main(["verify", "--suite", "negativity", "--max-n", max_n])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: the total degree must be at least 2, that of a product of two factors, got {max_n}\n"


@pytest.mark.parametrize(
    "suite, parameters",
    [
        ("appendix", {}),
        ("duality", {"max_n": 7, "k": [2, 3, 4]}),
        ("projection", {"max_n": 6, "k": [2, 3]}),
        ("decomposition", {"max_n": 6, "k": [2, 3]}),
        ("stabilization", {"max_n": 6}),
        ("omega", {"max_n": 10, "max_k": 5}),
        ("negativity", {"max_total_degree": 8, "k": [2, 3]}),
    ],
)
def test_verify_defaults(suite, parameters, capsys):
    code, out = run(capsys, "verify", "--suite", suite)
    report = json.loads(out)
    assert code == 0 and report["passed"]
    assert report["parameters"] == parameters


# The calls that each suite's row makes to its bases function at the
# suite's defaults: once over the whole range, or once per k and degree.
DEFAULT_CALLS = {
    "appendix": [()],
    "duality": [(n, k) for k in (2, 3, 4) for n in range(8)],
    "projection": [(n, k) for k in (2, 3) for n in range(7)],
    "decomposition": [(n, k) for k in (2, 3) for n in range(7)],
    "stabilization": [(n,) for n in range(7)],
    "omega": [(10, 5)],
    "negativity": [(8, (2, 3))],
}


@pytest.mark.parametrize("suite", cli.VERIFY_SUITES)
def test_verify_empty_report_fails(suite, monkeypatch, capsys):
    """A suite whose function finds no case fails, whether its report is
    the function's own or merged over degrees and k."""
    empty, calls = VerificationReport(suite, {}, ()), []
    assert not empty.passed
    monkeypatch.setattr(bases, cli.VERIFY_SUITES[suite][0], lambda *args: calls.append(args) or empty)
    code, out = run(capsys, "verify", "--suite", suite)
    report = json.loads(out)
    assert code == 1 and calls == DEFAULT_CALLS[suite]
    assert report["suite"] == suite and report["passed"] is False and report["cases"] == []
