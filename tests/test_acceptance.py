"""Acceptance battery: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import time

import numpy as np
import pytest

from steerability import absolute, checks, errors, families, linalg, sampling, states, steering, witness
from steerability.cli import main

SINGLET = np.outer([0, 1, -1, 0], [0, 1, -1, 0]) / 2.0


def random_pure_two_qubit(rng):
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def test_criterion_01_werner_threshold(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "werner.csv"
    code = main(
        ["scan", "--family", "werner", "--from", "0", "--to", "1",
         "--step", "0.001", "--out", str(out)]
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    threshold = float(out.read_text().splitlines()[-1].split(":")[1])
    assert abs(threshold - 0.5773502692) < 1e-9 + 1e-10  # stated value is rounded
    assert abs(threshold - 1 / np.sqrt(3)) < 1e-9
    assert elapsed < 5.0
    print(f"criterion 1 werner threshold: PASS (p* = {threshold:.12f}, {elapsed:.2f} s)")


def test_criterion_02_gisin_threshold(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "gisin.csv"
    code = main(
        ["scan", "--family", "gisin", "--from", "0", "--to", "1",
         "--step", "0.001", "--out", str(out)]
    )
    assert code == 0
    cli_threshold = float(out.read_text().splitlines()[-1].split(":")[1])
    assert abs(cli_threshold - 2 / 3) < 1e-9
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    thresholds = [
        families.scan_family("gisin", grid, theta=theta).threshold
        for theta in (0.1, np.pi / 4, 1.4)
    ]
    elapsed = time.perf_counter() - start
    for t in thresholds:
        assert abs(t - 0.6666666667) < 1e-9 + 1e-10
        assert abs(t - 2 / 3) < 1e-9
    assert elapsed < 5.0
    print(f"criterion 2 gisin threshold: PASS (lam* = {cli_threshold:.12f}, {elapsed:.2f} s)")


def test_criterion_03_quantum_maximum():
    measured = steering.f3_max(SINGLET)
    orbit = absolute.f3_global_max(states.spectrum_report(SINGLET).eigenvalues)
    assert abs(measured - 1.7320508076) < 1e-9 + 1e-10
    assert abs(measured - np.sqrt(3)) < 1e-9
    assert abs(orbit - measured) < 1e-9
    print(f"criterion 3 quantum maximum: PASS (F3 = {measured:.12f})")


def test_criterion_04_purity_identity():
    start = time.perf_counter()
    simplex = np.random.default_rng(104).dirichlet(np.ones(4), size=100_000)
    rhos = sampling.random_state([sampling.SeededGenerator(104, k) for k in range(10_000)])
    spectra = np.concatenate([simplex, linalg.hermitian_eigensystem(rhos).eigenvalues])
    purity = np.concatenate([np.sum(simplex**2, axis=-1), np.einsum("nab,nba->n", rhos, rhos).real])
    gaps = np.abs(linalg.square(absolute.f3_global_max(spectra)) - (4 * purity - 1))
    assert np.all(gaps < 1e-10)
    worst = gaps.max()
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 4 purity identity: PASS (worst gap {worst:.2e}, {elapsed:.1f} s)")


def test_criterion_05_four_criteria_agreement():
    edge = 0.5 + absolute.BOUNDARY_TOL
    rhos = sampling.random_state([sampling.SeededGenerator(105, k) for k in range(10_000)])
    v = absolute.decide_aus3(rhos)  # raises on disagreement
    f3_route = (linalg.square(v.f3_global_max) + 1) / 4
    for route in ((v.spectrum_lhs + 1) / 4, v.purity, (v.bloch_sum + 1) / 4, f3_route):
        assert np.array_equal(route <= edge, v.in_aus3)
    rng = np.random.default_rng(105)
    raw = []
    for _ in range(1000):
        # states engineered to purity within 1e-6 of the boundary
        target = 0.5 + rng.uniform(-1e-6, 1e-6)
        weight = np.sqrt((target - 0.25) / 0.75)
        raw.append(weight * random_pure_two_qubit(rng) + (1 - weight) * np.eye(4) / 4)
    rhos = states.validate(np.stack(raw))
    assert np.all(np.abs(np.trace(rhos @ rhos, axis1=-2, axis2=-1).real - 0.5) <= 1e-6 + 1e-12)
    w = absolute.decide_aus3(rhos)
    for route in (w.purity, (w.spectrum_lhs + 1) / 4, (w.bloch_sum + 1) / 4):
        assert np.array_equal(route <= edge, w.in_aus3)
    checked = len(v.in_aus3) + len(w.in_aus3)
    print(f"criterion 5 four-criteria agreement: PASS ({checked} states, 0 inconsistencies)")


def test_criterion_06_orbit_maximality():
    start = time.perf_counter()
    ok, worst = checks.maximality(300, 106)
    elapsed = time.perf_counter() - start
    assert ok
    assert elapsed < 60.0
    print(f"criterion 6 orbit maximality: PASS (worst margin {worst:.2e}, {elapsed:.1f} s)")


def test_criterion_07_steering_implies_teleportation():
    ok, worst = checks.steer_implies_teleport(10_000, 107)
    assert ok
    print(f"criterion 7 steering implies teleportation: PASS (worst F3 - N = {worst:.3g})")


def test_criterion_08_witness_contract():
    rho = families.werner(0.7)
    w = witness.activation_witness(rho)
    expectation = np.trace(w.matrix @ rho).real
    assert abs(expectation - (1 - np.sqrt(3) * 0.7)) < 1e-9
    assert expectation < 0
    # the first 1,000 members among these streams
    draws = sampling.random_state([sampling.SeededGenerator(108, k) for k in range(2000)])
    members = draws[sampling.purity_at_most_half(draws)][:1000]
    assert len(members) == 1000
    values = np.trace(w.matrix @ members, axis1=-2, axis2=-1).real
    assert np.all(values >= -1e-9)
    worst = values.min()
    with pytest.raises(errors.NotActivatable):
        witness.activation_witness(families.werner(0.5))
    print(
        "criterion 8 witness contract: PASS "
        f"(Tr(W werner07) = {expectation:.12f}, min member expectation {worst:.3g})"
    )


def test_criterion_09_three_qubit_reductions():
    rng = np.random.default_rng(109)
    for _ in range(500):
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi /= np.linalg.norm(psi)
        ell = states.single_qubit_bloch_norm(psi, "C")
        verdict = absolute.decide_aus3(states.reduce_to_pair(psi, "AB"))
        assert verdict.in_aus3 == (ell < 1e-7)
        assert abs(verdict.f3_global_max**2 - (1 + 2 * ell**2)) < 1e-9
    assert all(v.in_aus3 for v in absolute.reduced_pair_verdict(families.GHZ_STATE).values())
    assert not any(v.in_aus3 for v in absolute.reduced_pair_verdict(families.W_STATE).values())
    print("criterion 9 three-qubit reductions: PASS (500 states + GHZ + W)")


def test_criterion_10_volume_sampling(capsys):
    assert main(["sample", "--samples", "100000", "--seed", "11"]) == 0
    first = capsys.readouterr().out
    assert main(["sample", "--samples", "100000", "--seed", "11"]) == 0
    second = capsys.readouterr().out
    assert first == second
    fields = dict(
        line.split(": ") for line in first.strip().splitlines()
    )
    fraction = float(fields["fraction"])
    stderr = float(fields["stderr"])
    assert 0.0 < fraction < 1.0
    # reported stderr is exactly the binomial formula, at report precision
    assert fields["stderr"] == format(np.sqrt(fraction * (1 - fraction) / 100_000), ".12g")
    with capsys.disabled():
        print(
            f"\ncriterion 10 volume sampling: PASS "
            f"(fraction = {fraction}, stderr = {stderr:.2e})"
        )
