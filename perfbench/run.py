"""Time-to-verdict benchmark of the paraferm verifier.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run repeats passes of the workload (see workloads.py) for S seconds.  Each
pass is a fresh interpreter, as every CLI invocation is, so the module
caches of paraferm start empty.  Every call's report bytes are compared with
the reference recorded in reference.json; a call fails if it raised, exited
non-zero, reported a status other than ``pass`` or produced other bytes.

Times are CPU times of the pass, rescaled to one reference host speed with
the samples of calibrator.py, which shares the passes' core; the wall times
and the host slowdown are reported as well (see NOTES.md).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (spans taken around the calls
into each module by tracer.py, over the workload's commands and the layer
probes of probes.py that follow them), the probe times, the tracing
overhead, wall times and host slowdown.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Bad arguments exit 2 with one line on stderr; a checkout without
``src/paraferm`` exits 1.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ".perfbench_out"
# CPU seconds one calibrator kernel run takes on a quiet host; every
# reported time is rescaled to that host speed
CAL_REF_S = 0.0036
# a time is rescaled by the calibrator samples within at least this window
MIN_WINDOW_S = 0.25
# no pass starts once this much of the run has gone; children are killed at
# KILL_AFTER_S, so the run ends well inside three minutes
START_BUDGET_S = 120.0
KILL_AFTER_S = 165.0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"usage error: {message}", file=sys.stderr)
        sys.exit(2)


def parse_args(argv):
    ap = _Parser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error(f"--seconds must be positive, got {args.seconds}")
    return args


class HostSpeed:
    """Host slowdown over time, from the calibrator's samples."""

    def __init__(self, path: str):
        with open(path) as fh:
            # the last line may be cut short by the terminate
            samples = sorted(
                tuple(map(float, f)) for f in (line.split() for line in fh) if len(f) == 3
            )
        self.mid = [(s + e) / 2 for s, e, _ in samples]
        self.dur = [cpu for _, _, cpu in samples]

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel CPU time around [start, end] over its quiet-host time."""
        pad = max(0.0, (MIN_WINDOW_S - (end - start)) / 2)
        lo = bisect.bisect_left(self.mid, start - pad)
        hi = bisect.bisect_right(self.mid, end + pad)
        if lo == hi:
            raise RuntimeError(f"no calibrator samples between {start} and {end}")
        return statistics.mean(self.dur[lo:hi]) / CAL_REF_S


class Runner:
    """Spawns the passes of one run and checks their reports."""

    def __init__(self, root: str, reference: dict):
        self.root = root
        self.src = os.path.join(root, "src")
        self.reference = reference
        # passes and calibrator share one core, so the calibrator sees the
        # speed the passes run at
        self.cpu = min(os.sched_getaffinity(0))
        self.t0 = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, os.environ.get("PYTHONPATH")) if p
        )

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    @contextlib.contextmanager
    def calibrator(self, log: str):
        """Run calibrator.py for the duration of the block, from its first sample."""
        if os.path.exists(log):
            os.remove(log)
        proc = subprocess.Popen(
            [
                sys.executable,
                os.path.join(HERE, "calibrator.py"),
                log,
                str(KILL_AFTER_S + 10),
                str(self.cpu),
            ],
            cwd=self.root,
        )
        try:
            while not (os.path.exists(log) and os.path.getsize(log)):
                if proc.poll() is not None or self.elapsed() > 10:
                    raise RuntimeError("calibrator did not start")
                time.sleep(0.01)
            yield
        finally:
            proc.terminate()
            proc.wait()

    def run_pass(self, commands, trace: bool, spans_path: str | None = None) -> dict:
        """One pass in a fresh child; raw times, failures and probe times."""
        spec = {
            "commands": commands,
            "src": self.src,
            "cpu": self.cpu,
            "trace": trace,
            "spans": spans_path,
        }
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            out, _ = proc.communicate(timeout=max(1.0, KILL_AFTER_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        done = time.monotonic()
        if proc.returncode != 0:
            raise RuntimeError(f"pass exited with {proc.returncode}")
        res = json.loads(out)
        calls = res["calls"]
        failures = [self.failure(cmd, c) for cmd, c in zip(commands, calls)]
        return {
            "spawned": spawned,
            "ready": res["ready"],
            "ready_cpu": res["ready_cpu"],
            "done": done,
            "windows": [(c["start"], c["end"]) for c in calls],
            "cpu": [c["cpu"] for c in calls],
            "rss_mib": res["rss_kib"] / 1024,
            "failures": [f for f in failures if f],
            "probes": res["probes"],
        }

    def failure(self, cmd: list[str], c: dict) -> str | None:
        """Why a call failed, or None."""
        key = " ".join(cmd)
        if c["error"] is not None:
            return f"{key}: raised {c['error']}"
        if c["rc"] != 0:
            return f"{key}: exit code {c['rc']}"
        text = c["text"]
        try:
            statuses = {json.loads(line)["status"] for line in text.splitlines()}
        except (ValueError, KeyError, TypeError):
            return f"{key}: output is not JSON reports"
        if statuses != {"pass"}:
            return f"{key}: statuses {sorted(statuses)}"
        ref = self.reference.get(key)
        data = text.encode()
        if ref is None:
            return f"{key}: no reference report"
        if len(data) != ref["bytes"] or hashlib.sha256(data).hexdigest() != ref["sha256"]:
            return f"{key}: report bytes differ from the reference"
        return None


def rescale(p: dict, speed: HostSpeed) -> None:
    """Add a pass's CPU times at reference host speed, and its wall times."""
    p["slowdown"] = speed.slowdown(p["spawned"], p["done"])
    p["check_s"] = [cpu / speed.slowdown(s, e) for cpu, (s, e) in zip(p["cpu"], p["windows"])]
    p["verdict_s"] = sum(p["check_s"])
    p["setup_s"] = p["ready_cpu"] / speed.slowdown(p["spawned"], p["ready"])
    p["wall_verdict_s"] = sum(e - s for s, e in p["windows"])
    p["wall_setup_s"] = p["ready"] - p["spawned"]


def tail(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def measure(args, runner: Runner, spans_path: str) -> tuple[list[dict], list[dict]]:
    """Passes until the run's time is up: (untraced passes, traced passes)."""
    min_passes = workloads.WORKLOADS[args.workload]["min_passes"]
    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    while True:
        trace = bool(args.trace) and len(traced) < len(plain)
        # the n-th traced pass runs the same commands as the n-th untraced one
        commands = workloads.commands(args.workload, args.seed, len(traced if trace else plain))
        started = runner.elapsed()
        p = runner.run_pass(commands, trace, spans_path if trace else None)
        longest = max(longest, runner.elapsed() - started)
        if trace:
            p["layers"] = tracer.layer_metrics(tracer.load_spans(spans_path))
            traced.append(p)
        else:
            plain.append(p)
        # an untraced run goes on past S seconds, up to 2 S, until it has
        # made its workload's min_passes
        enough = (
            bool(traced)
            if args.trace
            else len(plain) >= min_passes or runner.elapsed() >= 2 * args.seconds
        )
        if enough and runner.elapsed() >= args.seconds:
            return plain, traced
        if runner.elapsed() + longest > START_BUDGET_S:
            return plain, traced


def end_to_end(args, plain: list[dict]) -> tuple[dict, str]:
    checks = [t for p in plain for t in p["check_s"]]
    pct = workloads.WORKLOADS[args.workload]["tail_pct"]
    if pct is None:
        tail_s = statistics.median(max(p["check_s"]) for p in plain)
        tail_note = f"the median of {len(plain)} passes' slowest calls"
    else:
        tail_s, beyond = tail(checks, pct)
        tail_note = f"p{pct} of {len(checks)} calls ({beyond} beyond it)"
    metrics = {
        "verdict_s": (statistics.median(p["verdict_s"] for p in plain), "s"),
        "check_p50_s": (statistics.median(checks), "s"),
        "check_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in plain), "s"),
        "peak_rss_mib": (statistics.median(p["rss_mib"] for p in plain), "MiB"),
    }
    note = (
        f"check_tail_s is {tail_note}; "
        f"wall verdict_s {statistics.median(p['wall_verdict_s'] for p in plain):.3f} s, "
        f"host slowdown {statistics.median(p['slowdown'] for p in plain):.2f}"
    )
    return metrics, note


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, str]:
    units = tracer.metric_units()
    first = traced[0]["layers"]
    metrics = {}
    for name, unit in units.items():
        if unit == "s":
            value = statistics.median(p["layers"][name] / p["slowdown"] for p in traced)
        else:
            value = first[name]
        metrics[name] = (value, unit)
    overhead = statistics.median(p["verdict_s"] for p in traced) / statistics.median(
        p["verdict_s"] for p in plain
    )
    metrics["trace_overhead_frac"] = (overhead - 1, "ratio")
    for name in traced[0]["probes"]:
        metrics[name] = (
            statistics.median(p["probes"][name] / p["slowdown"] for p in traced),
            "s",
        )
    for name, key in (("wall.verdict_s", "wall_verdict_s"), ("wall.setup_s", "wall_setup_s")):
        metrics[name] = (statistics.median(p[key] for p in plain), "s")
    metrics["host.slowdown"] = (
        statistics.median(p["slowdown"] for p in plain + traced),
        "ratio",
    )
    return metrics, f"{len(traced)} traced passes; counters from the first"


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "paraferm", "cli.py")):
        print("perfbench: no src/paraferm in the current directory", file=sys.stderr)
        return 1
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    log = os.path.join(out_dir, f"{args.workload}.calibrator.log")
    runner = Runner(root, reference)
    with runner.calibrator(log):
        plain, traced = measure(args, runner, os.path.join(out_dir, f"{args.workload}.spans.jsonl"))
    speed = HostSpeed(log)
    passes = plain + traced
    for p in passes:
        rescale(p, speed)
    attempted = sum(len(p["check_s"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    if args.trace:
        metrics, note = per_layer(plain, traced)
    else:
        metrics, note = end_to_end(args, plain)
    print(
        f"{args.workload} seed={args.seed}: {len(plain)} untraced passes; {note}; "
        f"failed_frac={len(failures)}/{attempted}={len(failures) / attempted}"
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
