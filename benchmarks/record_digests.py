"""Record the reference output digests the benchmark checks against.

    python3 benchmarks/record_digests.py

Runs one full-size pass of every workload for seeds 0..SEEDS-1 (scan-grid does
not depend on the seed and is recorded once) and rewrites
``benchmarks/digests.json``.  Only rerun it for a commit whose reports are
known to be right: every later run is compared byte for byte with it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

SEEDS = 100


def main() -> int:
    os.chdir(run.ROOT)
    run.pin_threads()
    sys.path.insert(0, "src")
    import steerability.cli as cli
    import workloads

    shutil.rmtree(run.WORK, ignore_errors=True)
    os.makedirs(run.WORK)
    try:
        out = os.path.join(run.WORK, "fraction.txt")
        samples = workloads.REFERENCE_SAMPLES
        if cli.main(["sample", "--samples", str(samples), "--seed", "0", "--out", out]) != 0:
            raise SystemExit("sample failed")
        with open(out) as fh:
            fraction = float(workloads.report_fields(fh.read())["fraction"])
        digests = {"sample_fraction_seed0": fraction, "full": {}}
        for name in workloads.NAMES:
            table = digests["full"][name] = {}
            for seed in [0] if name == "scan-grid" else range(SEEDS):
                plan = workloads.prepare(name, seed, "full", run.WORK, digests)
                result = workloads.run_pass(plan, cli)
                if result.failures:
                    raise SystemExit(f"{name} seed {seed}: {result.failures[0]}")
                table["*" if name == "scan-grid" else str(seed)] = result.digest
            print(f"{name}: {len(table)} digests", flush=True)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    with open(workloads.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
