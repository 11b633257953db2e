import numpy as np
import pytest

from steerability import checks, linalg, steering, teleport

MIXED = np.eye(4) / 4
SINGLET = np.outer([0, 1, -1, 0], [0, 1, -1, 0]) / 2.0


def werner(p):
    return p * SINGLET + (1 - p) * MIXED


class TestTeleportationN:
    def test_singlet(self):
        assert teleport.aux_criteria(SINGLET).N == pytest.approx(3.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert teleport.aux_criteria(MIXED).N == pytest.approx(0.0, abs=1e-12)

    def test_werner_threshold(self):
        # N = 3p, so usefulness kicks in just above p = 1/3
        assert teleport.aux_criteria(werner(0.4)).N == pytest.approx(1.2, abs=1e-12)
        assert teleport.aux_criteria(werner(0.3)).N < 1.0
        assert teleport.aux_criteria(werner(0.35)).N > 1.0


class TestChshM:
    def test_singlet(self):
        assert teleport.aux_criteria(SINGLET).M == pytest.approx(2.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert teleport.aux_criteria(MIXED).M == pytest.approx(0.0, abs=1e-12)

    def test_werner_violation(self):
        assert teleport.aux_criteria(werner(0.75)).M == pytest.approx(1.125, abs=1e-12)
        assert teleport.aux_criteria(werner(0.75)).M > 1.0


class TestImplication:
    def test_examples(self):
        assert teleport.steer_implies_teleport_check(SINGLET) is True
        assert teleport.steer_implies_teleport_check(MIXED)
        rho = werner(0.6)
        assert steering.f3_max(rho) > 1.0
        assert teleport.aux_criteria(rho).N == pytest.approx(1.8, abs=1e-12)
        assert teleport.steer_implies_teleport_check(rho)


class TestProperties:
    def test_random_state_inequalities(self):
        rhos = checks._draws(61, range(10_000))
        aux = teleport.aux_criteria(rhos)
        f3 = steering.f3_max(rhos)
        assert np.all(f3 <= aux.N + 1e-10)
        assert np.all(aux.M <= linalg.square(f3) + 1e-10)
        assert np.all(aux.N >= np.sqrt(aux.M) - 1e-12)
        assert np.all(linalg.square(aux.N) >= aux.M - 1e-12)
        assert np.all(teleport.steer_implies_teleport_check(rhos))

    def test_aux_single_source(self):
        rho = werner(0.42)
        aux = teleport.aux_criteria(rho)
        assert aux.N == pytest.approx(np.sum(np.sqrt(aux.u)), abs=1e-14)
        assert aux.M == pytest.approx(aux.u[0] + aux.u[1], abs=1e-14)
        assert np.all(np.diff(aux.u) <= 0)
