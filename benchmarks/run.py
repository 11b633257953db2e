"""Benchmark of the ``steerability`` command line, end to end and per layer.

Run from the repository root:

    python3 benchmarks/run.py --workload scan-grid --seed 0 --seconds 10 --trace 0

One closed-loop client (this process) calls ``steerability.cli.main``
in-process, one operation after another, for ``--seconds`` seconds counted
from the start of a checked warm-up pass, and checks every output (see
``workloads.py``).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json, measured with
  tracing off;
* ``--trace 1``: the per-layer metrics, from passes run under the
  outside-in tracer (``tracer.py``) alternating with untraced passes.

Nothing queues in a closed loop with one client, so wait time is zero by
construction and is not reported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join("src", "steerability")
WORK = ".bench_work"
TRACE_DIR = ".bench_out"
SETUP_LAUNCHES = 11
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads() -> dict[str, str]:
    """Cap every BLAS/OpenMP thread count at nproc (1 when unset).

    Must run before numpy is imported.  The problems are 4x4, so extra BLAS
    threads only add scheduling noise on a small machine.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            n = int(os.environ.get(var, "1"))
        except ValueError:
            n = 1
        os.environ[var] = str(min(max(n, 1), nproc))
    return {var: os.environ[var] for var in THREAD_VARS}


def source_digest() -> str:
    """sha256 over the library sources; identifies the code, uncommitted edits included."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(SRC, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(np, threads: dict, args, plan) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": threads,
        "source_sha256": source_digest(),
        "digest_checked": plan.reference is not None,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "items_per_pass": plan.items,
        "ops_per_pass": len(plan.ops),
        "sizes": plan.sizes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not os.path.isfile(os.path.join(SRC, "cli.py")):
        print(f"benchmark: no library sources at {SRC} under {ROOT}", file=sys.stderr)
        return 2
    threads = pin_threads()
    sys.path.insert(0, "src")

    import numpy as np
    import steerability.cli as cli
    import harness

    if os.path.dirname(os.path.realpath(cli.__file__)) != os.path.realpath(SRC):
        print(f"benchmark: imported steerability from {cli.__file__}", file=sys.stderr)
        return 2
    if args.workload not in harness.workloads.NAMES:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    result = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size,
                             WORK, cli, setup_launches=0 if args.trace else SETUP_LAUNCHES)
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"trace-{args.workload}.npz")
        result.tracer.save(path)
        print(f"# spans: {path}")

    if result.plan.reference is None:
        print(f"# digest: none recorded for seed {args.seed} at size {args.size}; "
              "byte-identity gate NOT run, physics checks only")
    else:
        print(f"# digest: every pass checked against the one recorded for seed {args.seed}")
    print("# provenance: " + json.dumps(provenance(np, threads, args, result.plan), sort_keys=True))
    for message in result.failures[:20]:
        print(f"# FAILED: {message}", file=sys.stderr)
    if args.trace:
        metrics = harness.layer_metrics(result)
    else:
        metrics = harness.end_to_end_metrics(result)
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        }
    attempted, failed = result.attempted, len(result.failures)
    print(f"# passes: {len(result.untraced)} untraced, {len(result.traced)} traced, plus 1 warm-up")
    print(f"# fail_ratio: {failed / attempted:.6g} ({failed} failed of {attempted} operations)")
    print("# wait time: 0 by construction (one closed-loop client, nothing queues)")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
