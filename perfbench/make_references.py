"""Record the correctness references of the benchmark.

Usage, from the root of a checkout of the reference commit:

    python3 perfbench/make_references.py --source <commit id>

Runs every request any workload can send as a fresh ``python -m kschur.cli``
process on an empty cache and writes its exit code, stdout sha256 and, for
verify reports, the number of cases to ``perfbench/references.json``.  Each
matrix request is then sent again on the warm cache, and its output must be
byte-identical to the cold one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--source", required=True, help="commit the references come from")
    args = parser.parse_args(argv)
    work = run.ROOT / ".perfbench_work" / f"refs-{os.getpid()}"
    run.fresh_dir(work)
    runner = run.Runner(work)
    out = {}
    try:
        for request in workloads.all_requests():
            cache = run.fresh_dir(work / "cache")
            res = runner.cli(request, cache)
            entry = {"exit": res.exit_code, "sha256": res.sha256}
            if request[0] == "verify":
                entry["cases"] = len(json.loads(res.stdout)["cases"])
            if request[0] == "matrix":
                warm = runner.cli(request, cache)
                if (warm.exit_code, warm.sha256) != (res.exit_code, res.sha256):
                    print(f"warm output differs from cold: {run.key(request)}", file=sys.stderr)
                    return 1
            out[run.key(request)] = entry
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
    document = {"source": args.source, "requests": out}
    run.REFERENCES.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(out)} references to {run.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
