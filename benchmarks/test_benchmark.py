"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import steerability.cli as cli  # noqa: E402
import steerability.linalg  # noqa: E402
import steerability.states  # noqa: E402

import corpus  # noqa: E402
import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def smoke(name, tmp_path, trace, seed=3):
    """Warm-up pass plus one untraced (and with trace one traced) pass."""
    return harness.measure(name, seed, 0.0, trace, "smoke", str(tmp_path / "work"), cli,
                           setup_launches=0 if trace else 1)


def counts(metrics):
    return {k: v["value"] for k, v in metrics.items() if k.endswith((".calls", ".draws"))}


def test_smoke_size_runs_every_workload_in_seconds(tmp_path):
    start = time.perf_counter()
    for name in workloads.NAMES:
        m = smoke(name, tmp_path, trace=False)
        assert m.failures == []
        assert m.attempted == 2 * len(m.plan.ops)
        metrics = harness.end_to_end_metrics(m)
        assert all(v["value"] > 0 for v in metrics.values())
    assert time.perf_counter() - start < 30


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tracer_is_transparent(name, tmp_path):
    m = smoke(name, tmp_path, trace=True)
    assert m.failures == []
    assert m.traced[0].digest == m.untraced[0].digest
    assert len(m.tracer.spans()["start"]) > 0
    # every binding is restored afterwards
    assert not hasattr(steerability.states.hermitian_eigensystem, "__wrapped__")
    assert not hasattr(steerability.linalg.hermitian_eigensystem, "__wrapped__")
    assert not hasattr(cli.main, "__wrapped__")


@pytest.mark.parametrize("name", workloads.NAMES)
def test_counts_repeat_across_traced_runs(name, tmp_path):
    first = harness.layer_metrics(smoke(name, tmp_path, trace=True))
    second = harness.layer_metrics(smoke(name, tmp_path, trace=True))
    assert counts(first) == counts(second)
    assert first["cli.main.calls"]["value"] == len(workloads.prepare(
        name, 3, "smoke", str(tmp_path / "w"), workloads.load_digests()).ops)


def test_sample_volume_makes_no_eigensolve(tmp_path):
    metrics = harness.layer_metrics(smoke("sample-volume", tmp_path, trace=True))
    assert metrics["linalg.hermitian_eigensystem.calls"]["value"] == 0
    smoke_size = workloads.SIZES["smoke"]
    assert metrics["sampling.states_from_rng.draws"]["value"] == smoke_size["samples"] * smoke_size["calls"]


def test_inner_bindings_are_traced(tmp_path):
    m = smoke("scan-grid", tmp_path, trace=True)
    metrics = harness.layer_metrics(m)
    # validate and decide_aus3 reach the eigensolver through their own
    # module bindings; both are counted.
    points = m.plan.items
    assert metrics["absolute.decide_aus3.calls"]["value"] == points
    assert metrics["linalg.hermitian_eigensystem.calls"]["value"] >= 2 * points


def test_convexity_kept_count_is_measured(tmp_path):
    m = smoke("verify-battery", tmp_path, trace=True)
    spans = m.tracer.spans()
    convexity = m.tracer.names.index("cli._check_convexity")
    kept = spans["count"][spans["function"] == convexity]
    trials, calls = workloads.SIZES["smoke"]["trials"], workloads.SIZES["smoke"]["calls"]
    # the check keeps 2n members of 4n-state batches; read from the call
    assert kept.tolist() == [2 * trials] * (calls * len(m.traced))
    metrics = harness.layer_metrics(m)
    assert metrics["sampling.convexity_accept_ratio"]["value"] == pytest.approx(0.5)


def test_unrecorded_seed_has_no_reference(tmp_path):
    digests = workloads.load_digests()
    assert workloads.prepare("verify-battery", 0, "full", str(tmp_path), digests).reference
    assert workloads.prepare("verify-battery", 100, "full", str(tmp_path), digests).reference is None


def test_digest_mismatch_fails_every_operation(tmp_path):
    plan = workloads.prepare("scan-grid", 0, "smoke", str(tmp_path), {})
    plan.reference = "0" * 64
    result = workloads.run_pass(plan, cli)
    assert len(result.failures) == len(plan.ops)


def test_corpus_is_seeded_and_one_third_activatable(tmp_path):
    a = corpus.generate(5, 90, str(tmp_path / "a"))
    b = corpus.generate(5, 90, str(tmp_path / "b"))
    c = corpus.generate(6, 90, str(tmp_path / "c"))
    read = lambda entries: [open(e.path).read() for e in entries]  # noqa: E731
    assert read(a) == read(b)
    assert read(a) != read(c)
    for entries in (a, c):
        assert sum(e.activatable for e in entries) == 30
        assert {e.kind for e in entries} == set(corpus.KINDS)
        assert all((e.purity > 0.5) == e.activatable for e in entries)


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_matches_benchmark_json(trace):
    proc = _run_bench(ROOT, "--workload", "verify-battery", "--seed", "2",
                      "--seconds", "0", "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # smoke size has no recorded digests, and the output says so
    assert "# digest: none recorded" in proc.stdout
    assert '"digest_checked": false' in proc.stdout
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        s["name"]: s["unit"] for s in spec
    }


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run_bench(tmp_path, "--workload", "scan-grid", "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
