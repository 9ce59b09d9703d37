"""Check the resource bounds of the kschur CLI: ``python3 tests/resource_bounds.py``.

Each row of BOUNDS runs a Python child, with the checkout's src on its PYTHONPATH,
in a fresh KSCHUR_CACHE_DIR that its fill requests fill first, and stdout sent to
/dev/null.  It must exit with the row's code within the row's seconds and MB of
peak RSS, and is killed at TIMEOUT seconds.  One line is printed per row; the exit
status is 1 when any row fails.  Children are reaped with os.wait4, so each peak
RSS is the child's own: Linux carries the starter's high-water mark into a child's
ru_maxrss, so this script imports nothing from kschur.
"""

import os
import subprocess
import sys
import tempfile
import threading
import time
from typing import NamedTuple

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
TIMEOUT = 60


class Row(NamedTuple):
    name: str
    argv: tuple  # the child's arguments after the interpreter
    fill: tuple = ()  # argvs run first in the same cache directory; each must exit 0
    code: int = 0  # the expected exit code
    seconds: float | None = None  # the most wall seconds
    mb: float | None = None  # the most peak RSS in MB


def cli(*argv):
    return ("-m", "kschur.cli", *argv)


def warm(kind, k, n, mb):
    """One row per format of a warm matrix request, filled by the cold json request."""
    json = cli("matrix", "--kind", kind, "--k", k, "--n", n)
    formats = ("json", "csv", "latex")
    return [Row(f"warm {kind} ({n}, {k}) {f}", (*json, "--format", f), (json,), mb=mb) for f in formats]


OMEGA_ORACLE = """import sys
from kschur.labels import partitions_of
from kschur.partitions import bounded_to_core, core_search_oracle
cases = [(lam, k) for k in range(1, 6) for n in range(11) for lam in partitions_of(n, k)]
bad = [(lam, k) for lam, k in cases if core_search_oracle(lam, k) != (bounded_to_core(lam, k),)]
print(len(cases), "partitions,", len(bad), "disagree with the oracle", bad[:5], file=sys.stderr)
sys.exit(bool(bad))
"""

BOUNDS = [
    # duality up to n = 12, k = inf, checked as one sparse matrix product read row by
    # row; the d^2 pairing loop it replaced took about 100 s, so a return to it runs
    # into the timeout, and a private (column, value) copy of H->S in the product
    # (about 97 MB peak RSS) or dense rows (166 MB), against 50 MB, go over the bound
    Row("duality", cli("verify", "--suite", "duality", "--max-n", "12", "--k", "inf"), mb=58),
    # the omega oracle for every k <= 5 and n <= 10 (321 partitions, search windows up
    # to 55): growing each (k+1)-core from the smaller cores under its first row takes
    # about 0.4 s and peaks near 16 MB; core-testing every partition in the window
    # enumerates every partition of each size up to 55 (p(55) = 451276 alone), about
    # 24 s at 922 MB, over the bound
    Row("omega oracle", ("-c", OMEGA_ORACLE), mb=40),
    # omega for k <= 2 up to n = 150 (5776 partitions at k = 2): closed forms for the
    # k-skew offsets and the core's row counts take about 2 s; moving each row right
    # one column at a time, recounting the rows below, and a per-cell hook table took
    # about 10 s, over the bound
    Row("omega", cli("verify", "--suite", "omega", "--max-n", "150", "--k", "2"), seconds=6),
    # stabilization up to n = 12: the tableau oracle peels one horizontal strip per
    # content part and sums the ways to each shape once per step, and the class sums
    # are read from the rows of H->S merged by class, about 4 to 6 s at 43 MB (51 MB
    # with a QS->M transpose); filling the tableaux cell by cell took 26 to 29 s, over
    # the bound
    Row("stabilization", cli("verify", "--suite", "stabilization", "--max-n", "12"), seconds=12, mb=64),
    # projection up to n = 14, k = inf: each row of S->H merged into the column of its
    # sorted label takes about 4.1 s and peaks near 58 MB; expanding each row as its own
    # combination and projecting it took 8.1 to 9.1 s, over the bound
    Row("projection", cli("verify", "--suite", "projection", "--max-n", "14", "--k", "inf"), seconds=7, mb=72),
    # a cold matrix request streams its output row by row from sparse rows: ns-to-h
    # (14, 3), dimension 3136, peaks near 30 MB; building the whole document and its
    # json string first peaks near 177 MB, and dense rows as well near 290 MB
    Row("cold stream", cli("matrix", "--kind", "ns-to-h", "--n", "14", "--k", "3"), mb=100),
    # a cold ns-to-h (13, inf), dimension 4096: S->H by peeling each label's first part
    # takes about 0.6 s and peaks near 27 MB, each row packed into an int array once the
    # last peel that reads it is done; every row held as tuples peaked near 44 MB, and
    # the forward substitution over the whole H->S that the peel replaced took 8.8 s at
    # 107 MB
    Row("cold peel", cli("matrix", "--kind", "ns-to-h", "--n", "13", "--k", "inf"), seconds=4, mb=40),
    # a cold qs-to-m (14, inf), dimension 8192: H->S (8.9 M nonzeros) packed into int
    # arrays, transposed one band of columns at a time with only that band in list
    # buckets, peaks near 93 MB; packed rows transposed in one pass peaked near 231 MB,
    # and rows held as tuples near 449 MB
    Row("cold transpose", cli("matrix", "--kind", "qs-to-m", "--n", "14", "--k", "inf"), mb=200),
    # a warm matrix request prints or renders the cached text without parsing it or
    # importing the build layer: h-to-ns (11, inf) warm peaks near 20 MB in json, csv
    # and latex, against 30 to 37 MB when the file was parsed and re-encoded and far
    # more when the whole entries body is matched by one repeated regex group
    *warm("h-to-ns", "inf", "11", mb=32),
    # a warm hit checks the cache file line by line (one matrix row each) and copies or
    # renders it from the same open handle, never holding the file: ns-to-h (14, 4),
    # dimension 5536 and a 62 MB file, peaks near 21 MB warm in json, csv and latex
    # (36 MB cold), where holding the file text, a slice of its body and the encoded
    # output peaked near 196 MB
    *warm("ns-to-h", "4", "14", mb=40),
]

# Each warm hit that must beat the cold request it replaces, best of 3 runs on both
# sides, since one cold run against the best of 3 warm ones has come within 6 % of
# failing.
WARM_BEATS_COLD = {
    # a warm csv hit renders each line of the cache file as one row: ns-to-h (14, 4)
    # takes about 0.9 s warm against 1.2 to 1.4 s cold; a file without row boundaries,
    # whose rows had to be found by every d-th comma, took about 2.1 s warm against
    # 1.5 s cold
    "warm csv": cli("matrix", "--kind", "ns-to-h", "--k", "4", "--n", "14", "--format", "csv"),
    # a warm json hit renders each line as one row through the row writer of csv,
    # latex and every cold request, which guards the one json hit path: h-to-ns
    # (12, inf) takes about 0.3 s warm against 1.0 s cold
    "warm json": cli("matrix", "--kind", "h-to-ns", "--k", "inf", "--n", "12"),
}


def run(argv, cache):
    """The exit code, wall seconds and peak RSS in MB of one child."""
    env = dict(os.environ, PYTHONPATH=SRC, KSCHUR_CACHE_DIR=cache)
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, *argv], stdout=subprocess.DEVNULL, env=env)
    killer = threading.Timer(TIMEOUT, child.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        killer.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait or kill
    return child.returncode, time.perf_counter() - start, usage.ru_maxrss / 1024


def check(row):
    """Run row in a fresh cache directory: (whether it passed, its line)."""
    with tempfile.TemporaryDirectory() as cache:
        fills = [run(argv, cache)[0] for argv in row.fill]
        code, seconds, mb = run(row.argv, cache)
    measured = ((seconds, row.seconds, "s"), (mb, row.mb, "MB"))
    bounds = [(value, bound, unit) for value, bound, unit in measured if bound is not None]
    passed = not any(fills) and code == row.code and bounds != [] and all(value <= bound for value, bound, _ in bounds)
    limits = ", ".join(f"{bound} {unit}" for _, bound, unit in bounds) or "no bound"
    line = f"fill exits {fills}, " if any(fills) else ""
    line += f"exit {code}, {seconds:.2f} s, {mb:.1f} MB (want exit {row.code}, at most {limits})"
    return passed, f"{'ok  ' if passed else 'FAIL'} {row.name}: {line}"


def warm_beats_cold(name, argv):
    """Whether the warm hit of argv beats its cold request, each the best of 3 runs,
    every cold run in a fresh cache directory and every warm run in the first one's,
    and the line."""
    with tempfile.TemporaryDirectory() as cache:
        cold_runs = [run(argv, cache)]
        for _ in range(2):
            with tempfile.TemporaryDirectory() as fresh:
                cold_runs.append(run(argv, fresh))
        warm_runs = [run(argv, cache) for _ in range(3)]
    cold_s, warm_s = (min(seconds for _, seconds, _ in runs) for runs in (cold_runs, warm_runs))
    passed = not any(code for code, _, _ in cold_runs + warm_runs) and warm_s < cold_s
    line = f"cold best of 3 {cold_s:.2f} s, warm best of 3 {warm_s:.2f} s (must be below cold)"
    return passed, f"{'ok  ' if passed else 'FAIL'} {name} beats cold: {line}"


def results():
    yield from map(check, BOUNDS)
    yield from (warm_beats_cold(name, argv) for name, argv in WARM_BEATS_COLD.items())


if __name__ == "__main__":
    failed = False
    for passed, line in results():
        print(line, flush=True)
        failed |= not passed
    sys.exit(failed)
