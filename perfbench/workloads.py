"""Request lists of the kschur benchmark workloads.

A request is the argument list of one ``python -m kschur.cli`` process.
The (n, k) grids are fixed.  The seed picks the ``expand`` indices and the
order in which a pass sends its requests, so the same seed always gives
the same list.
"""

from __future__ import annotations

import random

KS = ("2", "3", "4", "inf")
FORMATS = ("json", "csv", "latex")


def matrix(kind, n, k, fmt="json"):
    return ("matrix", "--kind", kind, "--k", k, "--n", str(n), "--format", fmt)


def compositions(n, k):
    """All compositions of n with parts at most k, in lexicographic order."""
    bound = n if k == "inf" else int(k)
    if n == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(1, min(n, bound) + 1)
        for rest in compositions(n - first, k)
    ]


def expand(kind, target, alpha, k):
    return ("expand", f"{kind}:[{','.join(map(str, alpha))}]@k={k}", target)


# (source kind, target kind, n, k) of each seeded expand request; the seed
# picks the composition index within its slot.
EXPAND_SLOTS = (("S", "H", 6, "inf"), ("M", "QS", 7, "3"), ("S", "H", 6, "4"), ("M", "QS", 6, "inf"))

INVERSE_COLD = tuple(
    [matrix(kind, 6, k) for kind in ("ns-to-h", "m-to-qs") for k in KS]
    + [matrix(kind, 7, k) for kind in ("ns-to-h", "m-to-qs") for k in KS[1:]]
    + [matrix("kschur-to-h", n, k) for n in (9, 10) for k in ("3", "inf")]
)

PIERI_COLD = tuple(
    [matrix(kind, 10, k) for kind in ("h-to-ns", "qs-to-m") for k in ("3", "inf")]
    + [matrix("h-to-ns", 11, "inf")]
    + [matrix("dualkschur-to-m", n, k) for n, k in ((16, "inf"), (16, "4"), (18, "3"))]
)

WARM_MATRICES = (
    ("ns-to-h", 7, "4"),
    ("m-to-qs", 7, "3"),
    ("kschur-to-h", 10, "inf"),
    ("h-to-ns", 10, "inf"),
    ("qs-to-m", 10, "3"),
    ("dualkschur-to-m", 16, "inf"),
)

VERIFY = (
    ("verify", "--suite", "appendix"),
    ("verify", "--suite", "duality"),
    ("verify", "--suite", "omega"),
    ("verify", "--suite", "projection", "--max-n", "7", "--k", "2,3"),
    ("verify", "--suite", "decomposition", "--max-n", "7", "--k", "2,3"),
    ("verify", "--suite", "stabilization", "--max-n", "7"),
    ("verify", "--suite", "negativity", "--max-n", "7", "--k", "2,3"),
)

# A tiny request that set-up runs to check the program starts and answers.
SMOKE = matrix("ns-to-h", 3, "2")


def expand_pool():
    """Every expand request a seed can pick, slot by slot."""
    return [
        [expand(kind, target, alpha, k) for alpha in compositions(n, k)]
        for kind, target, n, k in EXPAND_SLOTS
    ]


def fill_requests():
    """The cold json requests that fill the cache of ``cache-warm``."""
    return [matrix(kind, n, k) for kind, n, k in WARM_MATRICES]


def cache_file_prefix(request):
    """Name prefix of the cache file a matrix request reads or writes."""
    kind, k, n = request[2], request[4], request[6]
    return f"{kind}_k{k}_n{n}_"


def requests(workload, seed):
    """The request list of one pass of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "inverse-cold":
        chosen = list(INVERSE_COLD) + [rng.choice(pool) for pool in expand_pool()]
    elif workload == "pieri-cold":
        chosen = list(PIERI_COLD)
    elif workload == "cache-warm":
        chosen = [matrix(kind, n, k, fmt) for kind, n, k in WARM_MATRICES for fmt in FORMATS]
    elif workload == "verify":
        chosen = list(VERIFY)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(chosen)
    return chosen


def all_requests():
    """Every request any workload or set-up can send, for the references."""
    out = [SMOKE, *INVERSE_COLD, *PIERI_COLD, *VERIFY]
    out += [matrix(kind, n, k, fmt) for kind, n, k in WARM_MATRICES for fmt in FORMATS]
    for pool in expand_pool():
        out += pool
    return list(dict.fromkeys(out))
