import copy
import json
import shutil
import subprocess
import sys

from rookq.shapes import partitions_of

import child
import run


def reference():
    return json.loads(child.REFERENCE.read_text())


def test_tampered_reference_gives_fail_ratio_one():
    tampered = copy.deepcopy(reference())
    tampered["table-mn"]["sha256"] = "0" * 64
    result = child.run_pass("table-mn", 1, tampered)
    assert result["attempted"] == 1
    assert run.fail_ratio([result]) == 1.0
    assert "differs from the reference" in result["errors"][0]


def test_route_disagreement_fails_the_request():
    key = "[5] [5]"
    results = [(0, "q\n"), (0, "q + 1\n")]
    assert child.check("bitrace", key, results, reference()).startswith("routes disagree")
    assert child.check("bitrace", key, [(3, "")], reference()) == "exit code 3"


def test_bitrace_requests_are_every_pair_in_seeded_order():
    ops = child.operations("bitrace", 7, partitions_of)
    keys = [key for key, _ in ops]
    assert len(keys) == len(set(keys)) == run.OPS_PER_PASS["bitrace"]
    assert set(keys) == set(reference()["bitrace"]["requests"])
    assert keys == [key for key, _ in child.operations("bitrace", 7, partitions_of)]
    assert keys != [key for key, _ in child.operations("bitrace", 8, partitions_of)]
    for w in ("table-mn", "seminormal", "verify"):
        assert child.operations(w, 1, partitions_of) == child.operations(w, 2, partitions_of)
        assert len(child.operations(w, 1, partitions_of)) == run.OPS_PER_PASS[w]


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(child.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(child.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table-mn", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no rookq sources" in proc.stderr


def test_times_are_scaled_to_the_reference_host_speed():
    ref = run.REFERENCE_CALIBRATION_S
    slow = {"wall_s": 8.0, "latencies_ms": [8000.0], "peak_mb": 20.0,
            "calibration_s": 2 * ref, "request_calibration_s": [2 * ref]}
    fast = dict(slow, wall_s=2.0, latencies_ms=[2000.0],
                calibration_s=ref / 2, request_calibration_s=[ref / 2])
    for p in (slow, fast):
        metrics = run.end_to_end_metrics([p], setup_s=0.1)
        assert metrics["wall_s"] == 4.0
        assert metrics["req_p50_ms"] == metrics["req_p90_ms"] == 4000.0


def test_a_request_is_scaled_by_the_speed_samples_near_it():
    sampler = child.SpeedSampler(None)
    sampler.samples = [(0.0, 0.01), (0.2, 0.01), (5.0, 0.03), (5.1, 0.05)]
    assert sampler.mean() == 0.025
    assert sampler.around(4.8, 5.0) == 0.04
    assert sampler.around(0.1, 0.1) == 0.01
    assert sampler.around(2.5, 2.6) == 0.025  # no sample near: the pass's mean
