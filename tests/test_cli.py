import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gauss_jordan import invert_integer_matrix
from kschur import bases, cli
from kschur.algebra import COMPOSITION_KINDS, LinearCombination
from kschur.bases import VerificationCase, VerificationReport
from kschur.cli import (
    MATRIX_KINDS,
    format_composition,
    format_k,
    format_partition,
    main,
    matrix_document,
    parse_element_spec,
    parse_k,
    render_matrix,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


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


# Fields planted over the cold ns-to-h (3, 2) document, whose labels are
# [2,1], [1,2], [1,1,1]; every one of them must be recomputed.
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
    path.write_text(json.dumps({**json.loads(cold), **planted}), encoding="utf-8")
    _, again = run(capsys, "matrix", "--kind", "ns-to-h", "--k", "2", "--n", "3", "--format", "json")
    assert again == cold
    assert json.loads(path.read_text(encoding="utf-8")) == json.loads(cold)


@pytest.mark.parametrize("fmt", ["csv", "latex"])
@pytest.mark.parametrize("planted", MISMATCHED_CACHE.values(), ids=MISMATCHED_CACHE)
def test_matrix_rejects_mismatched_cache_in_text_formats(planted, fmt, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    argv = ("matrix", "--kind", "ns-to-h", "--k", "2", "--n", "3", "--format")
    _, cold = run(capsys, *argv, "json")
    path = next(tmp_path.glob("*.json"))
    path.write_text(json.dumps({**json.loads(cold), **planted}), encoding="utf-8")
    code, again = run(capsys, *argv, fmt)
    assert code == 0 and again == render_matrix(json.loads(cold), fmt) + "\n"
    assert path.read_text(encoding="utf-8") == cold.removesuffix("\n")


def test_matrix_warm_hit_builds_no_system(tmp_path, monkeypatch, capsys):
    """A warm request reads its header from the label enumeration alone."""
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    requests = [("ns-to-h", "3", "5"), ("dualkschur-to-m", "inf", "6")]
    cold = {r: run(capsys, "matrix", "--kind", r[0], "--k", r[1], "--n", r[2])[1] for r in requests}

    def no_build(*args):
        raise AssertionError("a warm hit built a graded system")

    monkeypatch.setattr(bases, "build_schur_system", no_build)
    monkeypatch.setattr(bases, "build_kschur_system", no_build)
    for (kind, k, n), text in cold.items():
        for fmt in ("json", "csv", "latex"):
            code, warm = run(capsys, "matrix", "--kind", kind, "--k", k, "--n", n, "--format", fmt)
            assert code == 0 and warm == render_matrix(json.loads(text), fmt) + "\n"


def test_matrix_rejects_non_object_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    _, cold = run(capsys, "matrix", "--kind", "kschur-to-h", "--k", "3", "--n", "4", "--format", "csv")
    path = next(tmp_path.glob("*.json"))
    path.write_text("[1, 2, 3]", encoding="utf-8")
    _, again = run(capsys, "matrix", "--kind", "kschur-to-h", "--k", "3", "--n", "4", "--format", "csv")
    assert again == cold


def test_matrix_cache_file_is_the_json_output(tmp_path, monkeypatch, capsys):
    """A cold json request encodes its document once, with json.dumps, and
    writes exactly the printed bytes to the cache."""
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    calls = []
    dumps = json.dumps

    def counted_dumps(*args, **kwargs):
        calls.append(args)
        return dumps(*args, **kwargs)

    def no_dump(*args, **kwargs):
        raise AssertionError("json.dump called")

    monkeypatch.setattr(cli.json, "dumps", counted_dumps)
    monkeypatch.setattr(cli.json, "dump", no_dump)
    code, out = run(capsys, "matrix", "--kind", "h-to-ns", "--k", "3", "--n", "5", "--format", "json")
    assert code == 0 and len(calls) == 1
    assert next(tmp_path.glob("*.json")).read_bytes() == out.removesuffix("\n").encode()


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
    assert out == render_matrix(matrix_document("ns-to-h", 2, 4), "json") + "\n"
    assert list(tmp_path.iterdir()) == []


def test_closed_stdout_exits_141_quietly(tmp_path):
    """The n = 9 csv (about 150 KB) outgrows a 64 KiB pipe buffer, so the
    child always writes into the pipe after the reader has closed it."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"), KSCHUR_CACHE_DIR=str(tmp_path))
    argv = ["matrix", "--kind", "h-to-ns", "--k", "inf", "--n", "9", "--format", "csv"]
    with subprocess.Popen(
        [sys.executable, "-m", "kschur.cli", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as child:
        assert child.stdout.read(1) == b","
        child.stdout.close()
        stderr = child.stderr.read()
        code = child.wait(timeout=60)
    assert (code, stderr) == (141, b"")


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


def test_expand_domain_violation(capsys):
    code, _ = run(capsys, "expand", "S:[3]@k=2", "H")
    assert code == 3


def test_expand_spec_error(capsys):
    code, _ = run(capsys, "expand", "S:[2,1]", "H")
    assert code == 2
    code, _ = run(capsys, "expand", "S:[2,1]@k=3", "m")
    assert code == 2


def _oracle_expansions(n, k):
    """Every expansion matrix as (source kind, target kind) -> (system, rows),
    the inverses taken by Gauss-Jordan rather than forward substitution."""
    def transpose(rows):
        return [list(col) for col in zip(*rows)]

    out = {}
    for system, (H, S, QS, M) in (
        (bases.build_schur_system(n, k), ("H", "S", "QS", "M")),
        (bases.build_kschur_system(n, k), ("h", "s", "dual-s", "m")),
    ):
        rows = [list(r) for r in system.matrix(H, S).rows]
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
            fmt = format_composition if source in COMPOSITION_KINDS else format_partition
            for label, row in zip(system.labels, rows):
                want = LinearCombination(target, k, dict(zip(system.labels, row)))
                code, out = run(capsys, "expand", f"{source}:{fmt(label)}@k={format_k(k)}", target)
                assert code == 0
                assert out.splitlines() == [f"{c}*{target}{fmt(i)}" for i, c in want.terms()], (
                    source, target, label,
                )


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


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "negativity", "--k", "inf"),
        ("--suite", "duality", "--max-n", "-3"),
        ("--suite", "stabilization", "--max-n", "-1"),
        ("--suite", "omega", "--k", "inf"),
        ("--suite", "omega", "--k", "3,inf"),
        ("--suite", "omega", "--k", "3,1"),
        ("--suite", "negativity", "--k", "2,inf"),
        ("--suite", "appendix", "--max-n", "3", "--k", "2"),
        ("--suite", "appendix", "--max-n", "3"),
        ("--suite", "appendix", "--k", "2"),
        ("--suite", "stabilization", "--k", "3"),
    ],
)
def test_verify_refuses_vacuous_requests(argv, capsys):
    code, out = run(capsys, "verify", *argv)
    assert code == 2 and out == ""


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


def test_verify_empty_report_fails(monkeypatch, capsys):
    empty = VerificationReport("appendix", {}, ())
    assert not empty.passed
    monkeypatch.setattr(bases, "verify_appendix", lambda: empty)
    code, out = run(capsys, "verify", "--suite", "appendix")
    assert code == 1
    assert json.loads(out) == {"suite": "appendix", "parameters": {}, "passed": False, "cases": []}
