"""One cold pass of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/child.py setup
    python3 perfbench/child.py pass --workload NAME --seed N [--trace]

``setup`` imports rookq from the checkout's ``src`` and finds its memo
caches.  ``pass`` then runs every operation of the workload through
``rookq.cli.main(argv)`` with stdout captured, checks each output against
``reference.json`` and prints one JSON line with the pass's measurements.
Each operation starts from empty memo caches, as a CLI user's does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SPANS_DIR = HERE / "out"

# Each workload is a list of operations; an operation is one or more CLI
# invocations whose outputs are checked together.  Only bitrace depends on
# the seed (the request order); the other three are one fixed invocation.
TABLE_MN = ["table", "--n", "9"]
SEMINORMAL = ["table", "--n", "6", "--methods", "seminormal"]
VERIFY = ["verify", "--n", "6"]
BITRACE_WEIGHT = 5
WORKLOADS = ("table-mn", "bitrace", "seminormal", "verify")
# Seconds between two samples of the host's speed in an untraced pass, and
# how far around a request the samples that scale its latency may lie.
SAMPLE_INTERVAL_S = 0.25
SAMPLE_NEIGHBOURHOOD_S = 0.5


class SetupError(Exception):
    """The checkout has no usable rookq sources."""


def import_rookq():
    """Import rookq from ``<checkout>/src``, never from an installed copy."""
    if not (SRC / "rookq" / "__init__.py").is_file():
        raise SetupError(f"no rookq package under {SRC}")
    sys.path.insert(0, str(SRC))
    import rookq
    import rookq.cli

    if Path(rookq.__file__).resolve().parent != (SRC / "rookq").resolve():
        raise SetupError(f"rookq imported from {rookq.__file__}, not from {SRC}")
    return rookq


def discover_caches(package) -> Dict[str, object]:
    """Every memo cache in the package: ``<module>.<fn>`` -> lru_cache wrapper.

    Found by scanning the package's modules for ``cache_info``, so a cache
    added later is cleared too.  Fails when there are none, because then the
    cold-start isolation would silently do nothing.
    """
    prefix = package.__name__ + "."
    caches: Dict[str, object] = {}
    for modname, module in sorted(sys.modules.items()):
        if not modname.startswith(prefix):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == modname:
                caches[f"{modname[len(prefix):]}.{attr}"] = value
    if not caches:
        raise SetupError("no memo caches found in rookq; cold starts cannot be enforced")
    return caches


def partition_arg(p: Sequence[int]) -> str:
    return "[" + ",".join(str(x) for x in p) + "]"


def bitrace_pairs(partitions: Sequence[Tuple[int, ...]], seed: int) -> List[Tuple[str, str]]:
    """Every ordered pair (mu, nu) of the given partitions, in seeded order."""
    pairs = [(partition_arg(mu), partition_arg(nu)) for mu in partitions for nu in partitions]
    random.Random(seed).shuffle(pairs)
    return pairs


def operations(workload: str, seed: int, partitions_of) -> List[Tuple[str, List[List[str]]]]:
    """(reference key, argv list) for each operation of one pass."""
    if workload == "table-mn":
        return [("table-mn", [TABLE_MN])]
    if workload == "seminormal":
        return [("seminormal", [SEMINORMAL])]
    if workload == "verify":
        return [("verify", [VERIFY])]
    if workload == "bitrace":
        return [
            (f"{mu} {nu}", [
                ["bitrace", "--mu", mu, "--nu", nu, "--method", "matrix"],
                ["bitrace", "--mu", mu, "--nu", nu, "--method", "def"],
            ])
            for mu, nu in bitrace_pairs(partitions_of(BITRACE_WEIGHT), seed)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check(workload: str, key: str, results: List[Tuple[int, str]], reference: dict) -> Optional[str]:
    """None when the outputs match the frozen reference, else the reason."""
    for code, _ in results:
        if code != 0:
            return f"exit code {code}"
    outputs = [out for _, out in results]
    if any(out != outputs[0] for out in outputs[1:]):
        return "routes disagree: " + " vs ".join(o.strip() for o in outputs)
    ref = reference[workload]
    expected = ref["requests"][key] if workload == "bitrace" else ref["sha256"]
    if digest(outputs[0]) != expected:
        return f"output digest {digest(outputs[0])[:12]} differs from the reference"
    last_line = ref.get("last_line")
    if last_line is not None and outputs[0].rstrip("\n").rsplit("\n", 1)[-1] != last_line:
        return f"last line is not {last_line!r}"
    return None


def calibration_kernel() -> int:
    """A fixed amount of pure-Python work shaped like rookq's hot paths.

    Dict-of-Fraction polynomial products, as in ``LaurentPoly.__mul__``, and
    a partition enumeration with tuple-keyed dict stores, as in ``shapes``;
    written here so that a change to rookq cannot change it.  It takes about
    10 ms, and its timing tracks how fast the shared host runs Python.
    """
    a = {h: Fraction(h % 7 + 1, h % 5 + 2) for h in range(24)}
    out: Dict[int, Fraction] = {}
    for _ in range(2):
        out = {}
        for h1, c1 in a.items():
            for h2, c2 in a.items():
                out[h1 + h2] = out.get(h1 + h2, Fraction(0)) + c1 * c2
    memo = {}
    for n in range(1, 12):
        for p in _partitions(n, n):
            memo[p, n] = sum(Fraction(x, i + 1) for i, x in enumerate(p))
    return len(out) + len(memo)


def _partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


class SpeedSampler:
    """Samples the host's speed while a pass runs.

    The shared host's speed drifts by a fifth or more within minutes, so each
    pass measures it alongside its own work: ``calibration_kernel`` is timed
    once before the pass, once after, and, between those, from a SIGALRM
    handler every ``interval`` seconds.  The handler interrupts the pass
    between bytecodes; ``clock`` is ``perf_counter`` less the time spent in
    samples, so the pass's timings exclude them.  With ``interval`` None only
    the two outer samples are taken (traced passes, whose spans would absorb
    the interruptions).
    """

    def __init__(self, interval: Optional[float]):
        self.interval = interval
        self.samples: List[Tuple[float, float]] = []  # (clock, kernel seconds)
        self.spent = 0.0
        self._previous = None
        self._busy = False

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _sample(self, *_signal) -> None:
        if self._busy:  # the timer fired again inside a sample on a stalled host
            return
        self._busy = True
        t0 = time.perf_counter()
        calibration_kernel()
        t1 = time.perf_counter()
        self.samples.append((t0 - self.spent, t1 - t0))
        self.spent += time.perf_counter() - t0
        self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self._sample()
        if self.interval is not None:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def mean(self) -> float:
        return sum(d for _, d in self.samples) / len(self.samples)

    def around(self, start: float, end: float) -> float:
        """Mean kernel time of the samples near the clock interval given.

        A request of a few milliseconds feels the host's speed of that
        moment, not the pass's average; the pass's mean stands in when no
        sample lies near.
        """
        near = [
            d for t, d in self.samples
            if start - SAMPLE_NEIGHBOURHOOD_S <= t <= end + SAMPLE_NEIGHBOURHOOD_S
        ]
        return sum(near) / len(near) if near else self.mean()


def run_cli(main, argv: List[str]) -> Tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_pass(workload: str, seed: int, reference: dict, tracer=None) -> dict:
    """Run every operation of one pass in this interpreter and measure it."""
    rookq = import_rookq()
    caches = discover_caches(rookq)
    ops = operations(workload, seed, rookq.shapes.partitions_of)
    memo: Dict[str, List[int]] = {}
    latencies_ms: List[float] = []
    spans: List[Tuple[float, float]] = []
    failed = 0
    errors: List[str] = []
    sampler = SpeedSampler(None if tracer is not None else SAMPLE_INTERVAL_S)
    with sampler:
        if tracer is not None:
            tracer.install(rookq)
        try:
            t_pass = sampler.clock()
            for op, (key, argvs) in enumerate(ops):
                for cache in caches.values():
                    cache.cache_clear()
                if tracer is not None:
                    tracer.begin_op(op)
                t0 = sampler.clock()
                try:
                    results = [run_cli(rookq.cli.main, argv) for argv in argvs]
                    reason = check(workload, key, results, reference)
                except Exception:  # a raising operation counts as failed, and the pass goes on
                    reason = traceback.format_exc(limit=3)
                t1 = sampler.clock()
                latencies_ms.append((t1 - t0) * 1000.0)
                spans.append((t0, t1))
                if tracer is not None:
                    tracer.end_op()
                    for name, cache in caches.items():
                        info = cache.cache_info()
                        tally = memo.setdefault(name, [0, 0])
                        tally[0] += info.hits
                        tally[1] += info.misses
                if reason is not None:
                    failed += 1
                    if len(errors) < 5:
                        errors.append(f"{key}: {reason}")
            wall_s = sampler.clock() - t_pass
        finally:
            if tracer is not None:
                tracer.uninstall()
    out = {
        "wall_s": wall_s,
        "latencies_ms": latencies_ms,
        "calibration_s": sampler.mean(),
        "request_calibration_s": [sampler.around(t0, t1) for t0, t1 in spans],
        "calibration_samples": len(sampler.samples),
        "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(ops),
        "failed": failed,
        "errors": errors,
        "caches": len(caches),
    }
    if tracer is not None:
        from tracer import layer_metrics

        out["layers"] = layer_metrics(tracer.tallies(), memo)
        SPANS_DIR.mkdir(exist_ok=True)
        spans_file = SPANS_DIR / f"{workload}.spans.jsonl"
        tracer.write(spans_file)
        out["spans_file"] = str(spans_file.relative_to(ROOT))
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup")
    p = sub.add_parser("pass")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.mode == "setup":
            caches = discover_caches(import_rookq())
            result = {"caches": len(caches)}
        else:
            reference = json.loads(REFERENCE.read_text())
            tracer = None
            if args.trace:
                from tracer import Tracer

                tracer = Tracer()
            result = run_pass(args.workload, args.seed, reference, tracer)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
