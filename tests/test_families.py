import numpy as np
import pytest

from steerability import absolute, errors, families, linalg, states

SINGLET = np.outer([0, 1, -1, 0], [0, 1, -1, 0]) / 2.0


class TestWerner:
    def test_endpoints(self):
        assert np.allclose(families.werner(0.0), np.eye(4) / 4)
        assert np.allclose(families.werner(1.0), SINGLET, atol=1e-14)

    def test_eigenvalue_closed_form_on_grid(self):
        p = np.linspace(0.0, 1.0, 101)
        eigs = states.spectrum_report(families.werner(p)).eigenvalues
        expected = np.stack([(1 + 3 * p) / 4, (1 - p) / 4, (1 - p) / 4, (1 - p) / 4], axis=-1)
        assert np.max(np.abs(eigs - expected)) < 1e-10

    def test_boundary_purity(self):
        rep = states.spectrum_report(families.werner(1 / np.sqrt(3)))
        assert rep.purity == pytest.approx(0.5, abs=1e-12)
        assert absolute.decide_aus3(families.werner(1 / np.sqrt(3))).in_aus3

    @pytest.mark.parametrize("p", [-0.1, -1 / 3, 1.1])
    def test_out_of_range(self, p):
        with pytest.raises(errors.OutOfRange):
            families.werner(p)
        for bad in (p, np.nan):
            with pytest.raises(errors.OutOfRange, match=rf"^werner weight must lie in \[0, 1\], got {bad}$"):
                families.werner(np.array([0.2, bad, 0.3, -2.0]))


class TestGisin:
    def test_spectrum_closed_form_any_angle(self):
        lam = np.linspace(0.0, 1.0, 51)
        expected = -np.sort(-np.stack([lam, (1 - lam) / 2, (1 - lam) / 2, 0 * lam], axis=-1))
        for theta in (0.1, np.pi / 4, 1.4):
            eigs = linalg.hermitian_eigensystem(families.gisin(lam, theta)).eigenvalues
            assert np.max(np.abs(eigs - expected)) < 1e-10

    def test_verdict_independent_of_angle(self):
        lam = np.array([0.3, 2 / 3, 0.9])
        verdicts = [
            absolute.decide_aus3(families.gisin(lam, theta)) for theta in (0.1, np.pi / 4, 1.4)
        ]
        assert all(np.array_equal(v.in_aus3, verdicts[0].in_aus3) for v in verdicts)
        assert np.max(np.ptp([v.f3_global_max for v in verdicts], axis=0)) < 1e-10

    def test_boundary_cases(self):
        boundary = absolute.decide_aus3(families.gisin(2 / 3, 0.8))
        assert boundary.in_aus3
        assert boundary.f3_global_max == pytest.approx(1.0, abs=1e-9)
        mix_only = absolute.decide_aus3(families.gisin(0.0, 0.8))
        assert mix_only.in_aus3
        assert mix_only.purity == pytest.approx(0.5, abs=1e-12)
        pure = absolute.decide_aus3(families.gisin(1.0, np.pi / 4))
        assert pure.f3_global_max == pytest.approx(np.sqrt(3), abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(errors.OutOfRange):
            families.gisin(1.2, 0.5)
        for bad in (1.2, np.nan):
            with pytest.raises(errors.OutOfRange, match=rf"^gisin weight must lie in \[0, 1\], got {bad}$"):
                families.gisin(np.array([[0.5, 0.1], [bad, 3.0]]), 0.5)
        with pytest.raises(errors.OutOfRange):
            families.gisin(0.5, 0.0)
        with pytest.raises(errors.OutOfRange):
            families.gisin(0.5, np.pi / 2)


class TestXState:
    def test_bell_projector(self):
        rho = families.x_state(0.5, 0, 0, 0.5, 0.5, 0)
        phi_plus = np.zeros(4)
        phi_plus[0] = phi_plus[3] = 1 / np.sqrt(2)
        assert np.allclose(rho, np.outer(phi_plus, phi_plus), atol=1e-14)
        # purity oracle: explicit matrix
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)
        assert not absolute.decide_aus3(rho).in_aus3

    def test_diagonal_quarter(self):
        rho = families.x_state(0.25, 0.25, 0.25, 0.25, 0, 0)
        assert np.allclose(rho, np.eye(4) / 4)
        assert absolute.decide_aus3(rho).in_aus3

    def test_coherence_constraints(self):
        with pytest.raises(errors.OutOfRange):
            families.x_state(0.5, 0, 0, 0.5, 0.6, 0)
        with pytest.raises(errors.OutOfRange):
            families.x_state(0.25, 0.25, 0.25, 0.25, 0, 0.3)

    def test_weight_constraints(self):
        with pytest.raises(errors.OutOfRange):
            families.x_state(0.5, 0.5, 0.5, 0.5, 0, 0)
        with pytest.raises(errors.OutOfRange):
            families.x_state(1.5, -0.5, 0, 0, 0, 0)

    def test_membership_matches_weight_formula(self):
        rng = np.random.default_rng(95)
        for _ in range(300):
            v = rng.dirichlet(np.ones(4))
            v5 = rng.uniform(-1, 1) * np.sqrt(v[0] * v[3])
            v6 = rng.uniform(-1, 1) * np.sqrt(v[1] * v[2])
            rho = families.x_state(v[0], v[1], v[2], v[3], v5, v6)
            weight = np.sum(v**2) + 2 * (v5**2 + v6**2)
            assert np.trace(rho @ rho).real == pytest.approx(weight, abs=1e-12)
            assert absolute.decide_aus3(rho).in_aus3 == (weight <= 0.5 + 1e-9)


class TestScan:
    def test_werner_threshold(self):
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        result = families.scan_family("werner", grid)
        assert result.threshold is not None
        assert abs(result.threshold - 1 / np.sqrt(3)) < 1e-9

    @pytest.mark.parametrize("theta", [0.1, np.pi / 4, 1.4])
    def test_gisin_threshold(self, theta):
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        result = families.scan_family("gisin", grid, theta=theta)
        assert result.threshold is not None
        assert abs(result.threshold - 2 / 3) < 1e-9

    def test_single_point_grid(self):
        result = families.scan_family("werner", [0.4])
        assert len(result.grid) == 1
        assert result.threshold is None
        assert result.grid.tolist() == [0.4]
        direct = absolute.decide_aus3(families.werner(0.4))
        assert result.verdict.in_aus3[0] == direct.in_aus3
        assert result.verdict.f3_global_max[0] == pytest.approx(
            direct.f3_global_max, abs=1e-12
        )

    def test_grid_longer_than_one_chunk(self):
        # the Werner crossing falls between the last state of the first chunk and the next
        edge = families.SCAN_CHUNK
        grid = 1 / np.sqrt(3) + (np.arange(edge + 100) - edge + 0.5) * 1e-6
        result = families.scan_family("werner", grid)
        for k in (edge - 2, edge - 1, edge, edge + 1):
            for name, value in vars(absolute.decide_aus3(families.werner(grid[k]))).items():
                assert getattr(result.verdict, name)[k] == value
        assert result.verdict.in_aus3[edge - 1] and not result.verdict.in_aus3[edge]
        pair = families.scan_family("werner", grid[edge - 1 : edge + 1])
        assert result.threshold == pair.threshold

    def test_rejects_bad_input(self):
        with pytest.raises(errors.OutOfRange):
            families.scan_family("xstate", [0.1])
        with pytest.raises(errors.OutOfRange):
            families.scan_family("werner", [])
