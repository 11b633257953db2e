import numpy as np
import pytest

from conftest import random_settings
from steerability import absolute, errors, families, sampling, steering, witness

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
AXES = np.eye(3)
MIXED = np.eye(4) / 4
SINGLET = np.outer([0, 1, -1, 0], [0, 1, -1, 0]) / 2.0


def sample_member(stream0):
    """HS-random state with purity <= 1/2."""
    stream = stream0
    while True:
        rho = sampling.random_state(sampling.SeededGenerator(71, stream))
        if np.sum(np.abs(rho) ** 2) <= 0.5:
            return rho
        stream += 100_000


class TestSteeringOperator:
    def test_axes_assembly(self):
        mu = steering.MeasurementSetting(u=AXES, v=AXES)
        S = steering.steering_operator(mu)
        expected = (np.kron(X, X) + np.kron(Y, Y) + np.kron(Z, Z)) / np.sqrt(3)
        assert np.allclose(S, expected, atol=1e-14)
        assert np.trace(S @ SINGLET).real == pytest.approx(-np.sqrt(3), abs=1e-12)

    def test_two_setting_assembly(self):
        mu = steering.MeasurementSetting(u=AXES[[0, 2]], v=AXES[[0, 2]])
        S = steering.steering_operator(mu)
        expected = (np.kron(X, X) + np.kron(Z, Z)) / np.sqrt(2)
        assert np.allclose(S, expected, atol=1e-14)

    def test_traceless_against_maximally_mixed(self):
        _, mu = random_settings(np.random.default_rng(72), 20, n=3)[3]
        S = steering.steering_operator(mu)
        assert np.all(np.abs(np.trace(S @ MIXED, axis1=-2, axis2=-1)) < 1e-14)

    def test_reproduces_signed_functional(self):
        rhos = sampling.random_state([sampling.SeededGenerator(74, k) for k in range(100)])
        _, mu = random_settings(np.random.default_rng(73), 100, n=3)[3]
        signed = np.trace(steering.steering_operator(mu) @ rhos, axis1=-2, axis2=-1).real
        assert np.all(np.abs(np.abs(signed) - steering.steering_functional(rhos, mu)) < 1e-10)


class TestSteeringWitness:
    def test_detects_singlet_at_optimum(self):
        mu = steering.optimal_directions(SINGLET, 3)
        W = witness.steering_witness(mu)
        assert np.trace(W @ SINGLET).real == pytest.approx(1 - np.sqrt(3), abs=1e-12)

    def test_nonnegative_on_maximally_mixed(self):
        mu = steering.MeasurementSetting(u=AXES, v=AXES)
        assert np.trace(witness.steering_witness(mu) @ MIXED).real == pytest.approx(
            1.0, abs=1e-12
        )

    def test_werner_half_stays_positive(self):
        rho = families.werner(0.5)
        mu = steering.optimal_directions(rho, 3)
        got = np.trace(witness.steering_witness(mu) @ rho).real
        assert got == pytest.approx(1 - np.sqrt(3) * 0.5, abs=1e-12)
        assert got >= 0


class TestActivationWitness:
    def test_gisin_expectation(self):
        # unsteerable as given for this angle, but activatable
        rho = families.gisin(0.8, 0.3)
        assert steering.f3_max(rho) <= 1.0
        w = witness.activation_witness(rho)
        got = np.trace(w.matrix @ rho).real
        assert got == pytest.approx(1 - np.sqrt(1.64), abs=1e-9)
        assert got < 0

    def test_werner_expectation(self):
        rho = families.werner(0.7)
        got = np.trace(witness.activation_witness(rho).matrix @ rho).real
        assert got == pytest.approx(1 - np.sqrt(3) * 0.7, abs=1e-9)

    def test_werner_half_not_activatable(self):
        with pytest.raises(errors.NotActivatable):
            witness.activation_witness(families.werner(0.5))

    def test_hermitian_and_cyclic_consistency(self):
        for rho in (families.gisin(0.8, 0.3), families.werner(0.9)):
            w = witness.activation_witness(rho)
            assert np.max(np.abs(w.matrix - w.matrix.conj().T)) < 1e-10
            U = w.unitary
            inner = witness.steering_witness(w.setting)
            lhs = np.trace(inner @ (U @ rho @ U.conj().T)).real
            rhs = np.trace(w.matrix @ rho).real
            assert abs(lhs - rhs) < 1e-12

    def test_expectation_matches_orbit_optimum(self):
        for k in range(50):
            rho = sampling.random_state(sampling.SeededGenerator(75, k))
            verdict = absolute.decide_aus3(rho)
            if verdict.f3_global_max <= 1.0:
                continue
            got = np.trace(witness.activation_witness(rho).matrix @ rho).real
            assert abs(got - (1 - verdict.f3_global_max)) < 1e-9
            assert got < 0

    def test_tight_at_the_nearest_orbit_safe_state(self):
        # sigma* = I/4 + (rho - I/4) / F3_global(rho) mixes rho with I/4 onto the purity-1/2
        # sphere, the nearest orbit-safe state to rho; Tr W = 4 and Tr(W rho) = 1 - F3_global,
        # so Tr(W sigma*) = 0: sigma* is the hardest member the witness must stay nonnegative
        # on.  Measured on these 412 activatable states: purity within 4.4e-16 of 1/2,
        # |Tr(W sigma*)| at most 1.4e-15, smallest eigenvalue 1.4e-4.
        rhos = sampling.random_state([sampling.SeededGenerator(78, k) for k in range(1500)])
        verdict = absolute.decide_aus3(rhos)
        rhos, best = rhos[~verdict.in_aus3], verdict.f3_global_max[~verdict.in_aus3]
        W = np.stack([witness.activation_witness(rho).matrix for rho in rhos])
        nearest = MIXED + (rhos - MIXED) / best[:, None, None]
        assert np.all(np.abs(np.sum(np.abs(nearest) ** 2, axis=(-2, -1)) - 0.5) <= 1e-15)
        assert np.all(np.abs(np.trace(W @ nearest, axis1=-2, axis2=-1).real) <= 4e-15)
        assert np.all(np.linalg.eigvalsh(nearest) > 0)

    def test_nonnegative_on_members(self):
        random = sampling.random_state(sampling.SeededGenerator(76, 3))
        if absolute.decide_aus3(random).f3_global_max <= 1:
            random = families.werner(0.95)
        detectors = [
            witness.activation_witness(families.gisin(0.8, 0.3)).matrix,
            witness.activation_witness(families.werner(0.7)).matrix,
            witness.activation_witness(random).matrix,
        ]
        sigmas = np.stack([sample_member(k) for k in range(300)])
        for W in detectors:
            assert np.all(np.trace(W @ sigmas, axis1=-2, axis2=-1).real >= -1e-9)
