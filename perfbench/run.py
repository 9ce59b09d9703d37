"""kschur benchmark: fresh ``python -m kschur.cli`` processes in a closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload inverse-cold --seed 1 --seconds 15 --trace 0

``--workload`` takes one name, a comma-separated list or ``all``.  One client
sends one request at a time and waits for it.  A pass sends the workload's
whole request list; passes repeat until ``--seconds`` have elapsed, and the
metrics are medians over passes.  Every request's exit code and stdout
sha256 are checked against ``references.json``, recorded from the seed
commit, and verify reports must carry their recorded number of cases.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced passes alternate with traced passes, in which each request is
replayed by ``replay.py`` as staged public calls in a fresh interpreter, and
the per-layer metrics are printed.  Spans go to
``.perfbench_work/trace-<workload>-seed<seed>.jsonl``.

Times are in reference seconds: raw seconds corrected for how fast the
machine runs at the moment (see ``Window``).  The last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
REQUEST_TIMEOUT_S = 120.0
RUN_BUDGET_S = 170.0  # per workload, so that one workload ends within 180 s
SETUP_REPEATS = 5
FILL_REPEATS = 3
# calibrate() takes about this long on the development machine (2 vCPU
# Intel Xeon, Python 3.11.7) in its usual state; see Window.
CALIBRATION_REF_S = 0.0065
CALIBRATION_SHARE = 0.03
# How strongly the workloads' times follow calibrate(): the slope of
# log(pass wall time) on log(median calibration) over 100 to 150 s of
# passes on the development machine.  Twelve fits, three per workload, gave
# 0.34 to 0.77 with mean 0.56, and the workloads did not differ by more than
# the fits scattered.  Start-up and I/O slow down less than pure-Python work
# when the machine is busy, hence well below 1.
SPEED_ELASTICITY = 0.55

VERIFY_SUITES = ("appendix", "duality", "projection", "decomposition", "stabilization", "omega", "negativity")

# Span names whose self time is a per-layer metric.
SPAN_METRICS = {
    "algebra.inverse": "algebra.inverse_s",
    "algebra.transpose": "algebra.transpose_s",
    "compositions.enumerate": "compositions.enumerate_s",
    "partitions.enumerate": "partitions.enumerate_s",
    "bases.build": "bases.build_s",
    "bases.ssyt_count": "bases.ssyt_count_s",
    "cli.import": "cli.import_s",
    "cli.document": "cli.document_s",
    "cli.cache_write": "cli.cache_write_s",
    "cli.cache_read": "cli.cache_read_s",
    "cli.render": "cli.render_s",
    "cli.expand": "cli.expand_s",
    **{f"bases.verify.{suite}": f"bases.verify.{suite}_s" for suite in VERIFY_SUITES},
}

# Counts the replay reports that are summed into a metric of the same name.
SUMMED_COUNTS = (
    "algebra.nnz_in",
    "algebra.nnz_out",
    "algebra.dim",
    "compositions.labels",
    "compositions.pieri_targets.calls",
    "compositions.covers_up.calls",
    "partitions.k_pieri_targets.calls",
    "bases.verify.cases",
    "cli.cache_bytes",
    "cli.stdout_bytes",
)

# Per-layer metrics taken as the highest value of any request in a pass.
PEAK_COUNTS = ("bases.build.rss_mb", "cli.document.rss_mb")
# Per-layer hit ratios: metric -> the lru cache whose hits and calls it divides.
HIT_RATIOS = {
    "compositions.pieri_targets.hit_ratio": "compositions.pieri_targets",
    "partitions.k_conjugate.hit_ratio": "partitions.k_conjugate",
}


def calibrate():
    """Time a fixed piece of pure-Python work: how fast the machine runs
    Python at this moment."""
    start = time.perf_counter()
    table = {}
    for i in range(20_000):
        pair = (i % 97, i % 89)
        table[pair] = table.get(pair, 0) + i
    return time.perf_counter() - start


@dataclass
class Result:
    """What one child process did, as the client saw it."""

    exit_code: int
    sha256: str
    seconds: float
    rss_mb: float
    stdout: bytes | None
    error: str


class Runner:
    """Starts one child at a time through ``spawner.py``, which reaps it with
    ``os.wait4`` so its peak RSS is its own, and streams and hashes its
    stdout without holding it.  A child still running at its timeout, or
    when the workload is out of time, is killed."""

    def __init__(self, work: Path):
        self.work = work
        self.stderr_path = work / "stderr.txt"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.calibrations = []
        self.start_workload()
        self.channel, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            self.spawner = subprocess.Popen(
                [sys.executable, str(HERE / "spawner.py"), str(theirs.fileno())], pass_fds=[theirs.fileno()]
            )

    def start_workload(self):
        self.run_deadline = time.perf_counter() + RUN_BUDGET_S

    def close(self):
        self.channel.close()
        try:
            self.spawner.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()

    def _reply(self):
        message = self.channel.recv(1 << 16)
        if not message:
            raise RuntimeError("the spawner process ended")
        return json.loads(message)

    def run(self, cmd, cache_dir, keep=False) -> Result:
        env = dict(self.env, KSCHUR_CACHE_DIR=str(cache_dir))
        request = json.dumps({"cmd": cmd, "env": env, "cwd": str(self.work)}).encode()
        digest = hashlib.sha256()
        kept = []
        timed_out = False
        pid = None
        read_fd, write_fd = os.pipe()
        sent = time.perf_counter()
        try:
            try:
                with open(self.stderr_path, "wb") as err:
                    socket.send_fds(self.channel, [request], [write_fd, err.fileno()])
            finally:
                os.close(write_fd)
            started = self._reply()
            if "error" in started:
                return Result(-1, digest.hexdigest(), time.perf_counter() - sent, 0.0, None, started["error"])
            pid = started["pid"]
            deadline = min(time.perf_counter() + REQUEST_TIMEOUT_S, self.run_deadline)
            with selectors.DefaultSelector() as sel:
                sel.register(read_fd, selectors.EVENT_READ)
                while True:
                    left = deadline - time.perf_counter()
                    if left <= 0 or not sel.select(left):
                        timed_out = True
                        os.kill(pid, signal.SIGKILL)
                        break
                    chunk = os.read(read_fd, 1 << 16)
                    if not chunk:
                        break
                    digest.update(chunk)
                    if keep:
                        kept.append(chunk)
            ended = self._reply()
            pid = None
        finally:
            os.close(read_fd)
            if pid is not None:  # interrupted while the child ran
                os.kill(pid, signal.SIGKILL)
        # Calibration samples in proportion to the time requests take.
        for _ in range(max(1, round(CALIBRATION_SHARE * ended["seconds"] / CALIBRATION_REF_S))):
            self.calibrations.append(calibrate())
        error = "timed out" if timed_out else ""
        if ended["status"] != 0 or timed_out:
            error = (error + " " + self.stderr_path.read_text(errors="replace")[-400:]).strip()
        return Result(
            exit_code=ended["status"],
            sha256=digest.hexdigest(),
            seconds=ended["seconds"],
            rss_mb=ended["rss_kb"] / 1024.0,
            stdout=b"".join(kept) if keep else None,
            error=error,
        )

    def cli(self, request, cache_dir) -> Result:
        cmd = [sys.executable, "-m", "kschur.cli", *request]
        return self.run(cmd, cache_dir, keep=request[0] == "verify")

    def replay(self, request, cache_dir) -> Result:
        cmd = [sys.executable, str(HERE / "replay.py"), *request]
        return self.run(cmd, cache_dir, keep=True)


class Window:
    """Times a stretch of requests in reference seconds.

    The speed of a shared machine drifts by tens of percent over minutes
    with other tenants' load, so raw times of runs made minutes apart differ
    by more than a useful bound.  The runner calibrates after every
    request (more often after long ones), and a window uses the median
    calibration of its requests as a control variate: raw seconds are
    scaled by (CALIBRATION_REF_S / median) ** SPEED_ELASTICITY.  The
    calibration's own time is left out of the window's wall time.
    """

    def __init__(self, runner):
        self.runner = runner
        self.first = len(runner.calibrations)
        self.start = time.perf_counter()

    def close(self):
        elapsed = time.perf_counter() - self.start
        taken = self.runner.calibrations[self.first :]
        self.factor = (CALIBRATION_REF_S / median(taken or [calibrate()])) ** SPEED_ELASTICITY
        self.seconds = (elapsed - sum(taken)) * self.factor
        return self


class Tally:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)
                print(f"FAILED: {what}", file=sys.stderr)
        return ok


def key(request):
    return " ".join(request)


def check_output(tally, refs, request, exit_code, sha256, stdout=None, label="cli"):
    """Compare one request's exit code, digest and verify cases with the
    references; count it as one operation."""
    ref = refs[key(request)]
    problems = []
    if exit_code != ref["exit"]:
        problems.append(f"exit {exit_code} != {ref['exit']}")
    if sha256 != ref["sha256"]:
        problems.append("stdout digest differs from the reference")
    if request[0] == "verify":
        try:
            cases = len(json.loads(stdout)["cases"]) if stdout is not None else 0
        except (ValueError, KeyError, TypeError):
            cases = 0
        if cases == 0 or cases != ref["cases"]:
            problems.append(f"{cases} verify cases, expected {ref['cases']}")
    return tally.check(not problems, f"{label} {key(request)}: {'; '.join(problems)}")


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def set_up(workload, runner, refs, tally, work: Path):
    """Check the program answers and, for cache-warm, fill the cache.

    Runs several times; returns the median duration and the cache
    directory the last repeat filled.
    """
    fill = workloads.fill_requests() if workload == "cache-warm" else []
    repeats = FILL_REPEATS if fill else SETUP_REPEATS
    durations = []
    for i in range(repeats):
        window = Window(runner)
        cache = fresh_dir(work / f"setup-{i}")
        smoke = runner.cli(workloads.SMOKE, fresh_dir(work / "smoke"))
        check_output(tally, refs, workloads.SMOKE, smoke.exit_code, smoke.sha256, label="set-up")
        for request in fill:
            res = runner.cli(request, cache)
            check_output(tally, refs, request, res.exit_code, res.sha256, label="fill")
        names = os.listdir(cache)
        for request in fill:
            prefix = workloads.cache_file_prefix(request)
            present = any(n.startswith(prefix) and n.endswith(".json") for n in names)
            tally.check(present, f"cache file {prefix}*.json missing after the fill")
        durations.append(window.close().seconds)
        if i + 1 < repeats:
            shutil.rmtree(cache)
    return median(durations), cache


def pass_cache(workload, work, warm_cache):
    return warm_cache if workload == "cache-warm" else fresh_dir(work / "pass-cache")


def untraced_pass(workload, requests, runner, refs, tally, work, warm_cache):
    cache = pass_cache(workload, work, warm_cache)
    window = Window(runner)
    latencies, rss = [], []
    for request in requests:
        res = runner.cli(request, cache)
        latencies.append(res.seconds)
        rss.append(res.rss_mb)
        check_output(tally, refs, request, res.exit_code, res.sha256, res.stdout)
        if res.error:
            print(f"  stderr: {res.error}", file=sys.stderr)
    window.close()
    return window, [t * window.factor for t in latencies], rss


def self_times(spans):
    """Self time per span name: duration minus the time of direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def traced_pass(workload, requests, runner, refs, tally, work, warm_cache, pass_no, span_log):
    """Replay every request with spans; returns the pass wall time and the
    per-layer totals of the pass."""
    cache = pass_cache(workload, work, warm_cache)
    totals = {**dict.fromkeys([*SPAN_METRICS.values(), *PEAK_COUNTS], 0.0), **dict.fromkeys(SUMMED_COUNTS, 0)}
    lru = {name: [0, 0] for name in HIT_RATIOS.values()}
    window = Window(runner)
    for i, request in enumerate(requests):
        res = runner.replay(request, cache)
        try:
            report = json.loads(res.stdout.decode().splitlines()[-1])
        except (ValueError, IndexError):
            tally.check(False, f"replay {key(request)}: no report ({res.error})")
            continue
        check_output(tally, refs, request, report["exit"], report["sha256"], report["stdout"], "replay")
        request_id = f"p{pass_no}r{i}"
        for j, (name, s, e, parent) in enumerate(report["spans"]):
            span_log.append({"request_id": request_id, "span": j, "name": name, "start": s, "end": e, "parent": parent})
        for name, seconds in self_times(report["spans"]).items():
            if name in SPAN_METRICS:
                totals[SPAN_METRICS[name]] += seconds
        counts = report["counts"]
        for name in SUMMED_COUNTS:
            totals[name] += counts.get(name, 0)
        for name in PEAK_COUNTS:
            totals[name] = max(totals[name], counts.get(name, 0.0))
        for name, pair in lru.items():
            pair[0] += counts.get(f"{name}.hits", 0)
            pair[1] += counts.get(f"{name}.calls", 0)
    window.close()
    for name in SPAN_METRICS.values():
        totals[name] *= window.factor
    for metric, name in HIT_RATIOS.items():
        hits, calls = lru[name]
        totals[metric] = hits / calls if calls else 0.0
    return window.seconds, totals


def run_workload(workload, seed, seconds, trace, runner, refs, work, units):
    """Set up and measure one workload; ``units`` names the metrics to
    report, with their units."""
    tally = Tally()
    requests = workloads.requests(workload, seed)
    for request in requests:
        if key(request) not in refs:
            raise SystemExit(f"no reference for request {key(request)!r}")
    runner.start_workload()
    setup_s, warm_cache = set_up(workload, runner, refs, tally, work)
    args = (workload, requests, runner, refs, tally, work, warm_cache)
    begin = time.perf_counter()
    walls, factors, latencies, rss = [], [], [], []
    traced_walls, layer_passes, span_log = [], [], []
    while not walls or time.perf_counter() - begin < seconds:
        window, lat, mem = untraced_pass(*args)
        walls.append(window.seconds)
        factors.append(window.factor)
        latencies.append(lat)
        rss.extend(mem)
        if trace:
            wall, totals = traced_pass(*args, len(walls), span_log)
            traced_walls.append(wall)
            layer_passes.append(totals)
    per_request = [median(col) for col in zip(*latencies)]
    result = {
        "workload": workload,
        "seed": seed,
        "passes": len(walls),
        "requests_per_pass": len(requests),
        "speed_factor": median(factors),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "failures": tally.notes,
        "request_median_s": {key(r): t for r, t in zip(requests, per_request)},
    }
    if trace:
        metrics = {name: median([p[name] for p in layer_passes]) for name in layer_passes[0]}
        metrics["trace.overhead_s"] = median(traced_walls) - median(walls)
        log = ROOT / ".perfbench_work" / f"trace-{workload}-seed{seed}.jsonl"
        with open(log, "w", encoding="utf-8") as handle:
            for span in span_log:
                handle.write(json.dumps(span) + "\n")
        result["trace_file"] = str(log.relative_to(ROOT))
    else:
        metrics = {
            "wall_s": median(walls),
            "req_geomean_s": math.exp(sum(math.log(t) for t in per_request) / len(per_request)),
            "req_max_s": max(per_request),
            "setup_s": setup_s,
            "peak_rss_mb": max(rss),
        }
    result["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    return result


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def print_summary(result):
    print(
        f"# {result['workload']} seed {result['seed']}: {result['passes']} passes of "
        f"{result['requests_per_pass']} requests, {result['attempted']} operations, "
        f"times in reference seconds (raw x {result['speed_factor']:.4g})"
    )
    for name, metric in result["metrics"].items():
        print(f"{result['workload']:>13}  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{result['workload']:>13}  {'failed_frac':<40} {result['failed_frac']:>14.6g} ratio")


def parse_args(names, argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help=f"one of {', '.join(names)}, a comma list, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full results as json to this file")
    args = parser.parse_args(argv)
    chosen = names if args.workload == "all" else args.workload.split(",")
    for name in chosen:
        if name not in names:
            parser.error(f"unknown workload {name!r}; choose from {', '.join(names)}")
    return args, chosen


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args, chosen = parse_args([w["name"] for w in spec["workloads"]], argv)
    if not (ROOT / "src" / "kschur" / "cli.py").is_file():
        print(f"error: no kschur sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))["requests"]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    fresh_dir(work)
    env = environment()
    print(f"# python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']}")
    runner = Runner(work)
    try:
        results = [run_workload(w, args.seed, args.seconds, args.trace, runner, refs, work, units) for w in chosen]
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
    for result in results:
        print_summary(result)
    if args.out:
        document = {"environment": env, "trace": args.trace, "seconds": args.seconds, "results": results}
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{name}": m for r in results for name, m in r["metrics"].items()}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
