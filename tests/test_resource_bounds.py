"""The harness of tests/resource_bounds.py on tiny children: a row passes
only when its fills exit 0 and its child exits with the row's code within
every bound the row has, of which it has at least one."""

import time

import pytest

from resource_bounds import Row, check

# -S skips the site import, so that each child starts in a few milliseconds.
PASS = ("-S", "-c", "pass")
EXIT_3 = ("-S", "-c", "import sys; sys.exit(3)")
SLEEP = ("-S", "-c", "import time; time.sleep(0.3)")

# A child started from the test process reads at least that process's peak
# RSS (Linux carries it into the child's ru_maxrss), so the rows meant to
# pass bound their MB loosely.
LOOSE_MB = 4096


@pytest.mark.parametrize(
    "row, passed",
    [
        (Row("within", PASS, seconds=30, mb=LOOSE_MB), True),
        (Row("expected exit 3", EXIT_3, code=3, mb=LOOSE_MB), True),
        (Row("filled first", PASS, fill=(PASS,), seconds=30), True),
        (Row("over its MB", PASS, mb=1), False),
        (Row("over its seconds", SLEEP, seconds=0.1), False),
        (Row("wrong exit", EXIT_3, mb=LOOSE_MB), False),
        (Row("no bound", PASS), False),
        (Row("fill fails", PASS, fill=(EXIT_3,), mb=LOOSE_MB), False),
    ],
    ids=lambda value: value.name if isinstance(value, Row) else None,
)
def test_row_check(row, passed):
    start = time.perf_counter()
    result, line = check(row)
    assert time.perf_counter() - start < 1
    assert result is passed and line.startswith(f"{'ok' if passed else 'FAIL'} ") and row.name in line
