"""Measurement loop and metric derivation for ``run.py``.

On a shared 2-vCPU Xeon virtual machine, code runs up to 60% slower for
stretches of seconds to minutes while co-tenants run (the guest sees
almost no steal time, and CPU time slows the same way).  How much of a
run falls in a fast stretch varies from run to run, so medians and means
over a run move with it.  The slow level moves less, and nearly every
stretch of a few seconds holds some calls that ran at it.  Each operation
is therefore repeated in many short passes, and its latency is taken as the
90th percentile of its repeats (``OP_QUANTILE``); throughput and the
report percentiles derive from those per-operation latencies.  Set-up
launches are spread evenly over the run rather than taken back to back,
so a slow stretch moves only some of them.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import tracer as tracing
import workloads
from run import SRC


@dataclass
class Measurement:
    plan: workloads.Plan
    untraced: list[workloads.PassResult] = field(default_factory=list)
    traced: list[workloads.PassResult] = field(default_factory=list)
    traced_bases: list[int] = field(default_factory=list)  # first request id of each traced pass
    tracer: tracing.Tracer | None = None
    setup_times: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0


class SetupProbe:
    """Times fresh interpreters that import ``steerability.cli`` from ./src.

    The first, untimed launch confirms the import resolves to this checkout
    and lets the interpreter write its bytecode cache, as an installed
    package would have.
    """

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", self.env.get("PYTHONPATH")) if p)
        probe = subprocess.run(
            [sys.executable, "-c", "import steerability.cli as c; print(c.__file__)"],
            env=self.env, capture_output=True, text=True, timeout=60, check=True,
        )
        found = os.path.realpath(probe.stdout.strip())
        if os.path.dirname(found) != os.path.realpath(SRC):
            raise RuntimeError(f"fresh interpreter imported steerability from {found}")

    def launch(self) -> float:
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import steerability.cli"], env=self.env, timeout=60, check=True,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        return perf_counter() - start


def measure(name: str, seed: int, seconds: float, trace: bool, size: str, work: str, cli,
            setup_launches: int = 0) -> Measurement:
    """Warm-up pass, then whole passes while the next one fits in ``seconds``.

    ``seconds`` counts from the start of the warm-up, and a pass starts only
    if one more pass of the last one's length ends within it, so a run takes
    ``seconds`` whatever the pass length.  With ``trace`` the passes
    alternate untraced, traced, untraced, ... so both see the same machine
    state; at least one of each runs.  The ``setup_launches`` set-up timings
    are taken between passes, spread evenly over the run.
    """
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        plan = workloads.prepare(name, seed, size, work, workloads.load_digests())
        m = Measurement(plan, tracer=tracing.Tracer() if trace else None)
        probe = SetupProbe() if setup_launches else None
        n_ops = len(plan.ops)
        passes = 0

        def one_pass(traced: bool) -> workloads.PassResult:
            nonlocal passes
            base = passes * n_ops
            passes += 1
            gc.collect()
            if traced:
                m.traced_bases.append(base)
                with m.tracer:
                    result = workloads.run_pass(plan, cli, m.tracer, base)
            else:
                result = workloads.run_pass(plan, cli, None, base)
            m.attempted += n_ops
            m.failures.extend(result.failures)
            return result

        start = perf_counter()
        deadline = start + seconds
        one_pass(False)  # warm-up: checked and counted, not timed
        last = perf_counter() - start
        while perf_counter() + last <= deadline or not m.untraced or (trace and not m.traced):
            begun = perf_counter()
            if trace and len(m.traced) < len(m.untraced):
                m.traced.append(one_pass(True))
            else:
                m.untraced.append(one_pass(False))
            last = perf_counter() - begun
            due = setup_launches * (perf_counter() - start) / max(seconds, 1e-9)
            if probe and len(m.setup_times) < min(due, setup_launches):
                m.setup_times.append(probe.launch())
        while probe and len(m.setup_times) < setup_launches:
            m.setup_times.append(probe.launch())
        return m
    finally:
        shutil.rmtree(work, ignore_errors=True)


#: Quantile of an operation's latencies over the passes of a run that
#: stands for its latency.
OP_QUANTILE = 0.9


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(m: Measurement) -> dict:
    """Throughput, per-report latency and set-up time.

    A report is one cli.main call, and a pass makes every operation of the
    workload once.  Each operation's latency is the ``OP_QUANTILE``
    quantile of its latencies over the run's timed passes.  Throughput is
    the items of one pass over the sum of those latencies; the report
    percentiles are over the operations.  Checking outputs between calls
    is not timed.
    """
    per_op = np.quantile(np.array([r.latencies for r in m.untraced]), OP_QUANTILE, axis=0)
    print("# pass busy s: " + " ".join(f"{r.busy:.4f}" for r in m.untraced))
    print(f"# report latencies: {len(per_op)} operations, each the {OP_QUANTILE:g} quantile of "
          f"{len(m.untraced)} timed passes; {int(len(per_op) * 0.01)} operations beyond p99")
    print("# setup launches s: " + " ".join(f"{x:.4f}" for x in m.setup_times))
    return {
        "items_per_s": _metric(m.plan.items / per_op.sum(), "1/s"),
        "report_p50_ms": _metric(1e3 * np.percentile(per_op, 50), "ms"),
        "report_p99_ms": _metric(1e3 * np.percentile(per_op, 99), "ms"),
        "setup_s": _metric(statistics.median(m.setup_times), "s"),
    }


def layer_metrics(m: Measurement) -> dict:
    """Per-pass counts and median per-pass self time of every traced function."""
    spans = m.tracer.spans()
    names = m.tracer.names
    n_pass = len(m.traced)
    pass_of = np.searchsorted(np.asarray(m.traced_bases), spans["request"], side="right") - 1
    self_s = tracing.self_times(spans)
    fn = spans["function"]

    def per_pass(fid: int, weights=None, mask=None) -> np.ndarray:
        sel = fn == fid if mask is None else (fn == fid) & mask
        w = None if weights is None else weights[sel]
        return np.bincount(pass_of[sel], weights=w, minlength=n_pass)

    def exact(counts: np.ndarray, label: str) -> float:
        if np.any(counts != counts[0]):
            print(f"# WARNING: {label} differs across traced passes: {counts.tolist()}")
        return float(np.median(counts))

    out = {}
    calls = {}
    for fid, name in enumerate(tracing.TRACED):
        calls[name] = exact(per_pass(fid), f"{name}.calls")
        out[f"{name}.calls"] = _metric(calls[name], "count")
        out[f"{name}.self_s"] = _metric(np.median(per_pass(fid, self_s)), "s")
    draws = {}
    for name in tracing.DRAWN:
        draws[name] = exact(per_pass(names.index(name), spans["count"]), f"{name}.draws")
        out[f"{name}.draws"] = _metric(draws[name], "count")
    out["sampling.states_from_rng.bytes_computed"] = _metric(
        draws["sampling.states_from_rng"] * tracing.STATE_DRAW_BYTES, "bytes"
    )
    out["linalg.eigensolves_per_item"] = _metric(
        calls["linalg.hermitian_eigensystem"] / m.plan.items, "count"
    )
    # verify's convexity check: states it kept (the length of its list at
    # return) over the states drawn inside it.
    convexity = names.index("cli._check_convexity")
    inside = tracing.ancestors_include(spans, convexity)
    drawn = exact(per_pass(names.index("sampling.states_from_rng"), spans["count"], inside),
                  "convexity draws")
    kept_per_call = spans["count"][fn == convexity]
    kept = exact(per_pass(convexity, spans["count"]), "convexity kept")
    if np.any(kept_per_call < 0):
        print("# WARNING: cli._check_convexity has no list named in tracer.KEPT; "
              "sampling.convexity_accept_ratio is not measured (reported as 0)")
        ratio = 0.0
    elif drawn:
        ratio = kept / drawn
    else:
        print("# sampling.convexity_accept_ratio: n/a, no convexity draws on this workload "
              "(reported as 0 to keep the metric set fixed)")
        ratio = 0.0
    out["sampling.convexity_accept_ratio"] = _metric(ratio, "ratio")
    out["trace_overhead_ratio"] = _metric(
        statistics.median(r.busy for r in m.traced) / statistics.median(r.busy for r in m.untraced),
        "ratio",
    )
    return out
