import dataclasses

import numpy as np
import pytest

from conftest import random_settings
from steerability import absolute, errors, families, linalg, sampling, states, steering, teleport, witness


class TestHaar:
    def test_unitarity(self):
        for k in range(100):
            U = sampling.haar_unitary(sampling.SeededGenerator(81, k))
            assert np.max(np.abs(U.conj().T @ U - np.eye(4))) < 1e-10

    def test_deterministic_per_stream(self):
        a = sampling.haar_unitary(sampling.SeededGenerator(42, 0))
        b = sampling.haar_unitary(sampling.SeededGenerator(42, 0))
        c = sampling.haar_unitary(sampling.SeededGenerator(42, 1))
        assert np.array_equal(a, b)
        assert not np.allclose(a, c)

    def test_spectrum_preserved_under_conjugation(self):
        rho = families.gisin(0.5, 0.7)
        w0 = np.sort(np.linalg.eigvalsh(rho))
        for k in range(50):
            U = sampling.haar_unitary(sampling.SeededGenerator(82, k))
            w = np.sort(np.linalg.eigvalsh(U @ rho @ U.conj().T))
            assert np.max(np.abs(w - w0)) < 1e-9

    def test_left_invariance_of_moments(self):
        # E|U_ij|^2 = 1/4 for Haar on U(4), before and after a fixed left factor
        rng = sampling.SeededGenerator(83).rng()
        batch = sampling.haar_from_rng(rng, size=4000)
        fixed = sampling.haar_unitary(sampling.SeededGenerator(84))
        for stack in (batch, fixed @ batch):
            moments = np.mean(np.abs(stack) ** 2, axis=0)
            assert np.max(np.abs(moments - 0.25)) < 0.02


class TestRandomState:
    def test_basic_contracts(self):
        for k in range(200):
            rho = sampling.random_state(sampling.SeededGenerator(85, k))
            assert abs(np.trace(rho) - 1) < 1e-12
            assert np.linalg.eigvalsh(rho).min() >= -1e-10
            purity = np.trace(rho @ rho).real
            assert 0.25 - 1e-12 <= purity <= 1 + 1e-12

    def test_ensemble_mean_is_maximally_mixed(self):
        rng = sampling.SeededGenerator(86).rng()
        mean = np.mean(sampling.states_from_rng(rng, size=10_000), axis=0)
        assert np.max(np.abs(mean - np.eye(4) / 4)) < 0.01


class TestEmpiricalSup:
    def test_maximally_mixed_is_fixed_point(self):
        got = sampling.empirical_f3_sup(np.eye(4) / 4, 50, sampling.SeededGenerator(87))
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_bell_diagonal_needs_one_trial(self):
        rho = families.gisin(0.8, np.pi / 4)  # Bell-diagonal at this angle
        bound = absolute.decide_aus3(rho).f3_global_max
        got = sampling.empirical_f3_sup(rho, 1, sampling.SeededGenerator(88))
        assert got == pytest.approx(bound, abs=1e-12)

    def test_gisin_convergence(self):
        rho = families.gisin(0.8, 0.3)
        bound = np.sqrt(1.64)
        sup = sampling.empirical_f3_sup(rho, 10_000, sampling.SeededGenerator(89))
        assert sup <= bound + 1e-9
        assert bound - sup < 0.02

    def test_running_max_is_monotone_in_trials(self):
        rho = families.gisin(0.6, 0.5)
        g = sampling.SeededGenerator(90)
        sups = [sampling.empirical_f3_sup(rho, t, g) for t in (10, 100, 1000)]
        assert sups[0] <= sups[1] <= sups[2]

    def test_never_beats_closed_form(self):
        for k in range(300):
            rho = sampling.random_state(sampling.SeededGenerator(91, k))
            bound = absolute.decide_aus3(rho).f3_global_max
            sup = sampling.empirical_f3_sup(rho, 300, sampling.SeededGenerator(92, k))
            assert sup <= bound + 1e-9

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            sampling.empirical_f3_sup(np.eye(4) / 4, 0, sampling.SeededGenerator(1))


class TestVolumeEstimate:
    def test_deterministic(self):
        a = sampling.aus3_volume_estimate(10_000, sampling.SeededGenerator(7))
        b = sampling.aus3_volume_estimate(10_000, sampling.SeededGenerator(7))
        assert a == b

    def test_fraction_interior(self):
        fraction, stderr = sampling.aus3_volume_estimate(10_000, sampling.SeededGenerator(8))
        assert 0.0 < fraction < 1.0
        assert stderr == pytest.approx(np.sqrt(fraction * (1 - fraction) / 10_000), abs=1e-15)

    def test_rejects_small_sample(self):
        with pytest.raises(ValueError):
            sampling.aus3_volume_estimate(99, sampling.SeededGenerator(1))

    def test_fraction_matches_per_state_purity(self):
        g = sampling.SeededGenerator(9)
        fraction, _ = sampling.aus3_volume_estimate(500, g)
        rhos = sampling.states_from_rng(g.rng(), size=500)
        purities = np.einsum("nab,nba->n", rhos, rhos).real
        assert fraction == np.mean(purities <= 0.5)


def edge_states():
    """States where one ulp decides in_aus3: Werner at purity 1/2 + {2, 5, 8}e-10
    and Gisin at lambda = 2/3 + 1e-9, theta = 0.1."""
    werner = [families.werner(np.sqrt((4 * (0.5 + e) - 1) / 3)) for e in (2e-10, 5e-10, 8e-10)]
    return werner + [families.gisin(2 / 3 + 1e-9, 0.1)]


def test_stack_and_scalar_paths_agree_exactly():
    # family weights with the Werner and Gisin thresholds and their +-1e-9 neighbours
    edges = np.array([-1e-9, 0.0, 1e-9])
    grid = np.concatenate([np.linspace(0.0, 1.0, 41), 1 / np.sqrt(3) + edges, 2 / 3 + edges])
    for theta in (0.1, np.pi / 4, 1.4):
        werners, gisins = families.werner(grid), families.gisin(grid, theta)
        for k, w in enumerate(grid):
            assert np.array_equal(werners[k], families.werner(w))
            assert np.array_equal(gisins[k], families.gisin(w, theta))
    rhos = np.stack(
        [sampling.random_state(sampling.SeededGenerator(93, k)) for k in range(50)]
        + edge_states()
    )
    eps = 5e-11  # one member takes validate's clamp-and-renormalize path
    raw = np.concatenate([rhos, np.diag([0.5 + eps, 0.5, -eps, 0.0])[None]])
    validated = states.validate(raw)
    forms = states.to_bloch(rhos)
    norms = linalg.frobenius_norm(forms.T)
    verdicts = absolute.decide_aus3(rhos)
    canonical = absolute.bell_diagonal_canonical(rhos)
    f2 = steering.f2_max(rhos)
    f3 = steering.f3_max(rhos)
    aux = teleport.aux_criteria(rhos)
    f3_orbit = absolute.f3_global_max(canonical.weights)
    implication = teleport.steer_implies_teleport_check(rhos)
    report = states.spectrum_report(rhos)
    bounds = np.append(f3, steering.JM_BOUND + np.array([0.0, 1e-9, 2e-9]))
    assert steering.jm_bound_check(bounds).tolist() == [steering.jm_bound_check(x) for x in bounds]
    for k, M in enumerate(raw):
        assert np.array_equal(validated[k], states.validate(M))
    for k, rho in enumerate(rhos):
        form = states.to_bloch(rho)
        assert np.array_equal(forms.a[k], form.a)
        assert np.array_equal(forms.b[k], form.b)
        assert np.array_equal(forms.T[k], form.T)
        assert norms[k] == linalg.frobenius_norm(form.T) == f3[k] == steering.f3_max(rho)
        verdict = absolute.decide_aus3(rho)
        for field in dataclasses.fields(verdict):
            assert getattr(verdicts, field.name)[k] == getattr(verdict, field.name), field.name
        single = absolute.bell_diagonal_canonical(rho)
        assert np.array_equal(canonical.weights[k], single.weights)
        assert np.array_equal(canonical.unitary[k], single.unitary)
        assert np.array_equal(canonical.matrix[k], single.matrix)
        assert f3_orbit[k] == absolute.f3_global_max(single.weights)
        assert f2[k] == steering.f2_max(rho)
        single_aux = teleport.aux_criteria(rho)
        assert aux.N[k] == single_aux.N
        assert aux.M[k] == single_aux.M
        assert np.array_equal(aux.u[k], single_aux.u)
        assert implication[k] == teleport.steer_implies_teleport_check(rho)
        for name, value in vars(states.spectrum_report(rho)).items():
            assert np.array_equal(getattr(report, name)[k], value), name
    for n in (2, 3):  # one state and a stack of states against a stack of settings
        _, mu = random_settings(np.random.default_rng(95), len(rhos), n)[n]
        values, at_first = (steering.steering_functional(r, mu) for r in (rhos, rhos[0]))
        operators, witnesses = steering.steering_operator(mu), witness.steering_witness(mu)
        for k, rho in enumerate(rhos):
            one = steering.MeasurementSetting(u=mu.u[k], v=mu.v[k])
            assert values[k] == steering.steering_functional(rho, one)
            assert at_first[k] == steering.steering_functional(rhos[0], one)
            assert np.array_equal(operators[k], steering.steering_operator(one))
            assert np.array_equal(witnesses[k], witness.steering_witness(one))


BAD_STATES = {
    "not-hermitian": (errors.NotHermitian, lambda rho: rho + np.triu(np.full((4, 4), 1e-6), 1)),
    "not-unit-trace": (errors.NotUnitTrace, lambda rho: 1.01 * rho),
    "not-positive": (errors.NotPositive, lambda rho: np.diag([1.5, -0.5, 0, 0]).astype(complex)),
    # finite entries whose trace, or whose M - M^dagger, overflows
    "overflowing-trace": (errors.NotUnitTrace, lambda rho: np.diag([1e308, 1e308, -1e308, -1e308]) + 0j),
    "overflowing-hermiticity": (errors.NotHermitian, lambda rho: np.array(
        [[0, 1e308, 0, 0], [-1e308, 0, 0, 0], [0, 0, 0.5, 0], [0, 0, 0, 0.5]], dtype=complex)),
}


@pytest.mark.parametrize("case", [*BAD_STATES, "corrupted-pauli-table"])
def test_stack_error_names_the_bad_state(case, monkeypatch):
    # <00|rho|00> = 0, so the corrupted Z(x)Z entry below leaves these states consistent
    stack = np.stack([np.diag([0.0, 0.5, 0.25, 0.25]).astype(complex)] * 5)
    rho = sampling.random_state(sampling.SeededGenerator(94))
    if case in BAD_STATES:
        error, corrupt = BAD_STATES[case]
        stack[3] = corrupt(rho)
        kernel = states.validate
    else:
        error, kernel = errors.InternalInconsistency, absolute.decide_aus3
        bad = states.PAULI_AB.copy()
        bad[2, 2, 0, 0] *= -1
        monkeypatch.setattr(states, "PAULI_AB", bad)
        stack[3] = rho
    with pytest.raises(error, match=r" \(state 3 of the stack\)$") as info:
        kernel(stack)
    if error is errors.InternalInconsistency:
        assert str(info.value).startswith("criteria disagree: ")
