"""Regenerate perfbench/reference.json from two independent routes.

    python3 perfbench/freeze.py

A digest is frozen only when two routes that share no code agree on the
output it digests; the pair of routes is recorded beside it:

- table-mn:   ``table --n 9`` equals ``table --n 9 --methods oracle,mn``;
- seminormal: ``table --n 6 --methods seminormal`` equals ``table --n 6``;
- bitrace:    ``--method matrix`` equals ``--method def`` on every request;
- verify:     ``verify --n 6`` exits 0 and ends in ``26/26 checks passed``.

Run it only when the program's output is meant to change; the benchmark
fails every operation whose output differs from the frozen digest.
"""

from __future__ import annotations

import json
import sys

from child import (
    BITRACE_WEIGHT,
    REFERENCE,
    SEMINORMAL,
    TABLE_MN,
    VERIFY,
    bitrace_pairs,
    digest,
    discover_caches,
    import_rookq,
    run_cli,
)

VERIFY_LAST_LINE = "26/26 checks passed (weight cap 6)"


def cold_run(rookq, caches, argv):
    for cache in caches.values():
        cache.cache_clear()
    code, out = run_cli(rookq.cli.main, argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return out


def agreed(rookq, caches, first, second) -> str:
    a, b = cold_run(rookq, caches, first), cold_run(rookq, caches, second)
    if a != b:
        raise SystemExit(f"routes disagree: {' '.join(first)} vs {' '.join(second)}")
    return a


def main() -> int:
    rookq = import_rookq()
    caches = discover_caches(rookq)
    ref = {}
    oracle_mn = TABLE_MN + ["--methods", "oracle,mn"]
    ref["table-mn"] = {
        "argv": TABLE_MN,
        "sha256": digest(agreed(rookq, caches, TABLE_MN, oracle_mn)),
        "routes": [" ".join(TABLE_MN), " ".join(oracle_mn)],
    }
    mn6 = SEMINORMAL[:3]
    ref["seminormal"] = {
        "argv": SEMINORMAL,
        "sha256": digest(agreed(rookq, caches, SEMINORMAL, mn6)),
        "routes": [" ".join(SEMINORMAL), " ".join(mn6)],
    }
    requests = {}
    for mu, nu in sorted(bitrace_pairs(rookq.shapes.partitions_of(BITRACE_WEIGHT), 0)):
        base = ["bitrace", "--mu", mu, "--nu", nu, "--method"]
        requests[f"{mu} {nu}"] = digest(agreed(rookq, caches, base + ["matrix"], base + ["def"]))
    ref["bitrace"] = {
        "argv": ["bitrace", "--mu", "MU", "--nu", "NU", "--method", "matrix|def"],
        "routes": ["bitrace --method matrix", "bitrace --method def"],
        "requests": requests,
    }
    out = cold_run(rookq, caches, VERIFY)
    if out.rstrip("\n").rsplit("\n", 1)[-1] != VERIFY_LAST_LINE:
        raise SystemExit(f"verify did not end in {VERIFY_LAST_LINE!r}")
    ref["verify"] = {
        "argv": VERIFY,
        "sha256": digest(out),
        "last_line": VERIFY_LAST_LINE,
        "routes": ["exit code 0", VERIFY_LAST_LINE],
    }
    REFERENCE.write_text(json.dumps(ref, indent=2) + "\n")
    print(f"wrote {REFERENCE.name}: {len(requests)} bitrace requests, "
          f"{len(caches)} memo caches cleared between routes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
