"""Cold-cache benchmark of the rookq command line.

    python3 perfbench/run.py [--workload all|table-mn|bitrace|seminormal|verify]
                             [--seed N] [--seconds S] [--trace 0|1]

Each pass is one fresh interpreter (``child.py``) that imports rookq from
``src`` and runs the workload's operations through ``rookq.cli.main`` from
empty memo caches, checking every output against ``reference.json``.  Passes
run one at a time until ``--seconds`` is used up.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, plus ``trace_overhead`` (traced over untraced ``wall_s``).
Every metric is printed by name and unit; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from child import ROOT, SRC, WORKLOADS, calibration_kernel
from tracer import LAYER_METRICS

CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 150.0
# Operations in one pass; a pass that crashes counts all of them as failed.
OPS_PER_PASS = {"table-mn": 1, "bitrace": 49, "seminormal": 1, "verify": 1}
# Pool at least this many request latencies before stopping, so that ten
# lie beyond p90 (bitrace only; the other workloads have one request a pass).
MIN_REQUESTS = {"bitrace": 100}
# The shared host's speed drifts by a fifth or more from minute to minute.
# Each pass samples the time of ``child.calibration_kernel`` while it runs
# (``child.SpeedSampler``), and its times are scaled to the host speed at
# which that kernel takes this long.
REFERENCE_CALIBRATION_S = 0.010

END_TO_END = (
    ("wall_s", "s"),
    ("req_p50_ms", "ms"),
    ("req_p90_ms", "ms"),
    ("peak_mb", "MB"),
    ("setup_s", "s"),
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # the child puts the checkout's src first itself
    env["PYTHONHASHSEED"] = "0"  # same set iteration order of strings in every pass
    return env


def run_child(args: List[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(CHILD)] + args,
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def measure_setup() -> tuple:
    """Median time from a fresh interpreter to rookq imported and caches found.

    The calibration kernel is timed here before each sample, and the median
    is scaled to the reference host speed like the passes' times.
    """
    warm = run_child(["setup"])  # also compiles the bytecode once
    if warm.returncode != 0:
        raise BenchError(warm.stderr.strip() or "setup failed")
    caches = last_json(warm.stdout)["caches"]
    samples, calibration = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        calibration_kernel()
        calibration.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        proc = run_child(["setup"])
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(proc.stderr.strip() or "setup failed")
    scale = REFERENCE_CALIBRATION_S / statistics.mean(calibration)
    return statistics.median(samples) * scale, caches


def run_one_pass(workload: str, seed: int, traced: bool) -> dict:
    args = ["pass", "--workload", workload, "--seed", str(seed)] + (["--trace"] if traced else [])
    try:
        proc = run_child(args)
    except subprocess.TimeoutExpired:
        reason = f"pass timed out after {CHILD_TIMEOUT_S:.0f} s"
    else:
        if proc.returncode == 0:
            return last_json(proc.stdout)
        reason = proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else "no output"
        reason = f"pass exited {proc.returncode}: {reason}"
    ops = OPS_PER_PASS[workload]
    return {"attempted": ops, "failed": ops, "errors": [reason], "crashed": True}


def percentile(values: List[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def fail_ratio(passes: List[dict]) -> float:
    """Operations that failed over operations attempted, crashed passes included."""
    return sum(p["failed"] for p in passes) / sum(p["attempted"] for p in passes)


def speed_scale(p: dict) -> float:
    """Factor that takes a pass's times to the reference host speed."""
    return REFERENCE_CALIBRATION_S / p["calibration_s"]


def end_to_end_metrics(passes: List[dict], setup_s: float) -> Dict[str, float]:
    """Medians over the untraced passes; latencies pooled over all of them.

    A pass's time is scaled by its ``speed_scale``, a request's by the same
    factor taken from the speed samples around it.
    """
    latencies = [
        x * REFERENCE_CALIBRATION_S / c
        for p in passes
        for x, c in zip(p["latencies_ms"], p["request_calibration_s"])
    ]
    return {
        "wall_s": statistics.median(p["wall_s"] * speed_scale(p) for p in passes),
        "req_p50_ms": statistics.median(latencies),
        "req_p90_ms": percentile(latencies, 90),
        "peak_mb": statistics.median(p["peak_mb"] for p in passes),
        "setup_s": setup_s,
    }


def per_layer_metrics(untraced: List[dict], traced: List[dict]) -> Dict[str, float]:
    """The median of each layer metric over the traced passes, and the overhead."""
    metrics = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name, _unit, _better in LAYER_METRICS
        if name != "trace_overhead"
    }
    metrics["trace_overhead"] = statistics.median(
        p["wall_s"] * speed_scale(p) for p in traced
    ) / statistics.median(p["wall_s"] * speed_scale(p) for p in untraced)
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Passes one at a time until the next would end past ``seconds``."""
    setup_s, caches = measure_setup()
    kinds = [False, True] if trace else [False]
    done: Dict[bool, List[dict]] = {k: [] for k in kinds}
    last_s: Dict[bool, float] = {k: 0.0 for k in kinds}
    min_requests = 1 if trace else MIN_REQUESTS.get(workload, 1)
    t_start = time.perf_counter()
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        elapsed = time.perf_counter() - t_start
        requests = sum(len(p.get("latencies_ms", ())) for p in done[False])
        enough = all(done[k] for k in kinds) and requests >= min_requests
        if enough and elapsed + last_s[kind] > seconds:
            break
        if any(p.get("crashed") for k in kinds for p in done[k]) and elapsed > seconds:
            break
        t0 = time.perf_counter()
        done[kind].append(run_one_pass(workload, seed, kind))
        last_s[kind] = time.perf_counter() - t0
        i += 1
    passes = [p for k in kinds for p in done[k]]
    ok = {k: [p for p in done[k] if not p.get("crashed")] for k in kinds}
    measured = ok[True] if trace else ok[False]
    metrics: Dict[str, float] = {}
    if all(ok.values()):
        metrics = per_layer_metrics(ok[False], ok[True]) if trace else end_to_end_metrics(ok[False], setup_s)
    return {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "fail_ratio": fail_ratio(passes),
        "metrics": metrics,
        "passes": len(measured),
        "requests": sum(len(p["latencies_ms"]) for p in measured),
        "caches": caches,
        "raw_wall_s": statistics.median(p["wall_s"] for p in ok[False]) if ok[False] else None,
        "calibration_s": statistics.median(p["calibration_s"] for p in ok[False]) if ok[False] else None,
        "errors": [e for p in passes for e in p.get("errors", ())],
        "spans_file": measured[-1].get("spans_file") if measured else None,
    }


def report(workload: str, seed: int, trace: bool, out: dict) -> None:
    units = dict(END_TO_END) if not trace else {n: u for n, u, _ in LAYER_METRICS}
    kind = "traced passes" if trace else "passes"
    print(f"# workload {workload}  seed {seed}  {kind} {out['passes']}  "
          f"requests {out['requests']}  memo caches cleared per request {out['caches']}")
    if out["raw_wall_s"] is not None:
        print(f"# untraced passes: median wall time {out['raw_wall_s']:.4g} s as measured, "
              f"calibration kernel {out['calibration_s'] * 1000:.4g} ms "
              f"(times below are scaled to {REFERENCE_CALIBRATION_S * 1000:.4g} ms)")
    for name, value in out["metrics"].items():
        print(f"{name:<48} {value:>14.6g} {units[name]}")
    print(f"{'fail_ratio':<48} {out['fail_ratio']:>14.6g} ({out['failed']}/{out['attempted']} operations)")
    if out["spans_file"]:
        print(f"# spans of the last traced pass: {out['spans_file']}")
    for err in out["errors"][:10]:
        print(f"# FAILED {err}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    # On SIGTERM, exit through the running subprocess.run, which then kills
    # and waits for its child pass, so that no pass outlives the benchmark.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    try:
        if not (SRC / "rookq" / "__init__.py").is_file():
            raise BenchError(f"no rookq sources under {SRC}")
        results = {}
        for w in workloads:
            results[w] = run_workload(w, args.seed, args.seconds, trace)
            report(w, args.seed, trace, results[w])
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    units = dict(END_TO_END) if not trace else {n: u for n, u, _ in LAYER_METRICS}
    metrics = {}
    for w, r in results.items():
        for name, value in r["metrics"].items():
            key = name if len(results) == 1 else f"{w}.{name}"
            metrics[key] = {"value": value, "unit": units[name]}
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
