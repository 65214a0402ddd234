#!/usr/bin/env python3
"""Pin workload outputs per seed in ``expected.json``.

    python3 perfbench/pin.py --seeds 0-15 [--workload aq_analytic ...]

Runs one pass of each workload for each seed, requires its checks to pass,
and records its quality figures and the SHA-256 of its output files. Seeds
already pinned are compared, never overwritten: a mismatch is reported and
the script exits 1. To re-pin deliberately, delete the entries first.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-15 or 0,3,7")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    import workloads

    expected = workloads.load_expected()
    status = 0
    for name in args.workload or list(workloads.WORKLOADS):
        for seed in parse_seeds(args.seeds):
            work = run.RUN_DIR / f"pin-{name}-seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            workload = workloads.WORKLOADS[name](work, seed)
            workload.prepare()
            result = run.run_pass(workload)
            if result.problems or result.failed:
                print(f"{name} seed {seed}: not pinned: {result.problems}", file=sys.stderr)
                status = 1
                continue
            entry = {"quality": result.quality, "sha256": result.digests}
            pinned = expected.setdefault(name, {}).setdefault(str(seed), entry)
            if pinned != entry:
                print(f"{name} seed {seed}: differs from the pinned entry", file=sys.stderr)
                status = 1
            print(f"{name} seed {seed}: {result.quality}", flush=True)
            shutil.rmtree(work, ignore_errors=True)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
