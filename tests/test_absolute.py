from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steerability import absolute, checks, cli, errors, families, linalg, sampling, states, steering, witness

MIXED = np.eye(4) / 4
SINGLET = np.outer([0, 1, -1, 0], [0, 1, -1, 0]) / 2.0


class TestGlobalMax:
    def test_flat_spectrum(self):
        assert absolute.f3_global_max([0.25] * 4) == pytest.approx(0.0, abs=1e-12)

    def test_pure_spectrum(self):
        assert absolute.f3_global_max([1, 0, 0, 0]) == pytest.approx(np.sqrt(3), abs=1e-12)

    def test_gisin_boundary_spectrum(self):
        got = absolute.f3_global_max([2 / 3, 1 / 6, 1 / 6, 0])
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="^expected 4 eigenvalues, got shape \\(3,\\)$"):
            absolute.f3_global_max([0.5, 0.25, 0.25])

    def test_accepts_spectrum_report(self):
        rep = states.spectrum_report(SINGLET)
        assert absolute.f3_global_max(rep.eigenvalues) == pytest.approx(np.sqrt(3), abs=1e-12)

    def test_identity_on_simplex(self):
        # best^2 == 4 * purity - 1 for every probability 4-vector
        rng = np.random.default_rng(52)
        spectra = rng.dirichlet(np.ones(4), size=100_000)
        lhs = linalg.square(absolute.f3_global_max(spectra))
        assert np.all(np.abs(lhs - (4 * np.sum(spectra**2, axis=-1) - 1)) < 1e-12)


class TestDecide:
    def test_werner_half_inside(self):
        v = absolute.decide_aus3(families.werner(0.5))
        assert v.in_aus3
        assert v.purity == pytest.approx((1 + 3 * 0.25) / 4, abs=1e-12)

    def test_werner_point_six_outside(self):
        assert not absolute.decide_aus3(families.werner(0.6)).in_aus3

    def test_maximally_mixed(self):
        v = absolute.decide_aus3(MIXED)
        assert v.in_aus3
        assert v.f3_global_max == pytest.approx(0.0, abs=1e-12)

    def test_verdict_identities(self):
        rhos = sampling.random_state([sampling.SeededGenerator(53, k) for k in range(500)])
        v = absolute.decide_aus3(rhos)
        f3_sq = linalg.square(v.f3_global_max)
        assert np.all(np.abs(f3_sq - v.spectrum_lhs) < 1e-10)
        assert np.all(np.abs(v.spectrum_lhs - (4 * v.purity - 1)) < 1e-10)
        assert np.all(np.abs(v.bloch_sum - (4 * v.purity - 1)) < 1e-10)
        assert np.array_equal(v.in_aus3, v.purity <= 0.5 + absolute.BOUNDARY_TOL)
        routes = np.array([(v.spectrum_lhs + 1) / 4, (v.bloch_sum + 1) / 4, (f3_sq + 1) / 4])
        assert np.array_equal(v.spread, np.abs(routes - v.purity).max(axis=0))
        assert np.all(v.spread <= 1e-9)

    def test_global_unitary_invariance(self):
        rhos = sampling.random_state([sampling.SeededGenerator(54, k) for k in range(1000)])
        U = np.stack([sampling.haar_from_rng(sampling.SeededGenerator(55, k).rng()) for k in range(1000)])
        v1 = absolute.decide_aus3(rhos)
        v2 = absolute.decide_aus3(U @ rhos @ np.swapaxes(U.conj(), -2, -1))
        assert np.array_equal(v1.in_aus3, v2.in_aus3)
        assert np.all(np.abs(v1.f3_global_max - v2.f3_global_max) < 1e-9)

    def test_convexity_of_membership(self):
        ok, _ = checks.convexity(1000, 56)
        assert ok


def exact_purity(rho):
    """Tr(rho^2) of the float matrix rho, exactly: a Fraction sum of its 32 squared parts."""
    return sum(Fraction(float(x)) ** 2 for z in np.ravel(rho) for x in (z.real, z.imag))


class TestExactPurity:
    """Each membership route lies within a few ulps of the exact purity of the validated matrix.

    Measured at most 7.2e-16 on the seed-110 states and 3.0e-16 on the pinned files (9.8e-16
    over 10,000 states at seeds 110-114), from the eigenvalue routes; the bound is 2e-15."""

    @pytest.mark.parametrize("source", ["random", "pinned"])
    def test_routes_match_the_exact_purity(self, source):
        if source == "random":
            rhos = list(sampling.random_state([sampling.SeededGenerator(110, k) for k in range(2000)]))
        else:
            files = sorted((Path(__file__).parent / "data" / "analyze").glob("*.json"))
            rhos = [cli._load_state_file(str(path))[0] for path in files]
        for rho in rhos:
            v = absolute.decide_aus3(rho)
            routes = ((v.spectrum_lhs + 1) / 4, v.purity, (v.bloch_sum + 1) / 4, (v.f3_global_max**2 + 1) / 4)
            exact = exact_purity(rho)
            assert all(abs(Fraction(route) - exact) <= Fraction(2e-15) for route in routes)


class TestCanonical:
    def test_singlet_maps_to_first_slot(self):
        can = absolute.bell_diagonal_canonical(SINGLET)
        assert np.allclose(can.weights, [1, 0, 0, 0], atol=1e-12)
        phi_plus = np.zeros(4, dtype=complex)
        phi_plus[0] = phi_plus[3] = 1 / np.sqrt(2)
        assert np.allclose(can.matrix, np.outer(phi_plus, phi_plus.conj()), atol=1e-12)
        assert steering.f3_max(can.matrix) == pytest.approx(np.sqrt(3), abs=1e-12)

    def test_maximally_mixed_fixed_point(self):
        can = absolute.bell_diagonal_canonical(MIXED)
        assert np.allclose(can.weights, 0.25)
        assert np.allclose(states.to_bloch(can.matrix).T, 0, atol=1e-12)

    def test_gisin_canonical_value(self):
        rho = families.gisin(0.8, np.pi / 4)
        can = absolute.bell_diagonal_canonical(rho)
        assert steering.f3_max(can.matrix) == pytest.approx(np.sqrt(1.64), abs=1e-12)

    def test_canonical_contracts(self):
        rhos = sampling.random_state([sampling.SeededGenerator(57, k) for k in range(300)])
        can = absolute.bell_diagonal_canonical(rhos)
        U, U_dagger = can.unitary, np.swapaxes(can.unitary.conj(), -2, -1)
        assert np.max(np.abs(U @ U_dagger - np.eye(4))) < 1e-9
        assert np.max(np.abs(U @ rhos @ U_dagger - can.matrix)) < 1e-9
        T = states.to_bloch(can.matrix).T
        assert np.max(np.abs(T - T * np.eye(3))) < 1e-10
        bound = absolute.f3_global_max(can.weights)
        assert np.max(np.abs(steering.f3_max(can.matrix) - bound)) < 1e-9

    def test_orbit_never_beats_canonical(self):
        rhos = sampling.random_state([sampling.SeededGenerator(58, k) for k in range(100)])
        bound = absolute.decide_aus3(rhos).f3_global_max
        gens = [sampling.SeededGenerator(59, k) for k in range(100)]
        assert np.all(sampling.empirical_f3_sup(rhos, 100, gens) <= bound + 1e-9)


class TestBall:
    def test_center(self):
        assert absolute.frobenius_ball_check(MIXED)

    def test_singlet_distance(self):
        # ||rho - I/4||^2 = Tr rho^2 - 1/4
        dist = np.sqrt(np.trace(SINGLET @ SINGLET).real - 0.25)
        assert dist == pytest.approx(np.sqrt(3) / 2, abs=1e-12)
        assert not absolute.frobenius_ball_check(SINGLET)

    def test_werner_boundary(self):
        assert absolute.frobenius_ball_check(families.werner(1 / np.sqrt(3)))

    def test_matches_decide(self):
        rhos = sampling.random_state([sampling.SeededGenerator(60, k) for k in range(500)])
        assert np.array_equal(absolute.frobenius_ball_check(rhos), absolute.decide_aus3(rhos).in_aus3)


def werner_at_purity(purity):
    """Werner state with the given purity (1 + 3 p^2) / 4."""
    return families.werner(np.sqrt((4 * purity - 1) / 3))


def activatable(sigma):
    """True when activation_witness returns a witness; it must then be negative on sigma."""
    try:
        w = witness.activation_witness(sigma)
    except errors.NotActivatable:
        return False
    assert np.real(np.trace(w.matrix @ sigma)) < 0
    return True


class TestBoundaryPolicy:
    """Every component draws the membership boundary through absolute.orbit_safe."""

    @pytest.mark.parametrize("excess", [2e-10, 5e-10, 8e-10])
    def test_just_above_half_purity_is_orbit_safe(self, excess):
        sigma = werner_at_purity(0.5 + excess)
        assert absolute.decide_aus3(sigma).in_aus3
        assert absolute.frobenius_ball_check(sigma)
        with pytest.raises(errors.NotActivatable):
            witness.activation_witness(sigma)

    def test_tolerance_edge(self):
        assert absolute.orbit_safe(0.5 + absolute.BOUNDARY_TOL)
        assert not absolute.orbit_safe(0.5 + 2 * absolute.BOUNDARY_TOL)

    @settings(max_examples=150)
    @given(
        family=st.sampled_from(["werner", "gisin"]),
        delta=st.floats(-1e-8, 1e-8),
        theta=st.floats(0.1, 1.4),
    )
    # the purity routes straddle the tolerance edge by one ulp at these points
    @example(family="gisin", delta=1e-9, theta=0.1)
    @example(family="werner", delta=1.1547005383792515e-09, theta=0.1)
    def test_components_agree_near_thresholds(self, family, delta, theta):
        if family == "werner":
            sigma = families.werner(1 / np.sqrt(3) + delta)
        else:
            sigma = families.gisin(2 / 3 + delta, theta)
        inside = absolute.decide_aus3(sigma).in_aus3
        assert absolute.frobenius_ball_check(sigma) == inside
        assert activatable(sigma) == (not inside)


class TestBoundaryScans:
    @pytest.mark.parametrize(
        "family,threshold",
        [("werner", 1 / np.sqrt(3)), ("gisin", 2 / 3)],
    )
    def test_membership_has_no_reentry(self, family, threshold):
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        result = families.scan_family(family, grid)
        flags = result.verdict.in_aus3
        switch = np.flatnonzero(flags[:-1] != flags[1:])
        assert len(switch) == 1
        assert flags[0] and not flags[-1]
        assert grid[switch[0]] <= threshold <= grid[switch[0] + 1]


class TestReducedPairs:
    def test_ghz_all_pairs_inside(self):
        verdicts = absolute.reduced_pair_verdict(families.GHZ_STATE)
        assert all(v.in_aus3 for v in verdicts.values())

    def test_product_state_outside(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1.0
        verdicts = absolute.reduced_pair_verdict(psi)
        assert not verdicts["AB"].in_aus3
        assert verdicts["AB"].f3_global_max == pytest.approx(np.sqrt(3), abs=1e-9)

    def test_w_state_outside_with_value(self):
        verdicts = absolute.reduced_pair_verdict(families.W_STATE)
        for v in verdicts.values():
            assert not v.in_aus3
            assert v.f3_global_max**2 == pytest.approx(11 / 9, abs=1e-9)

    def test_wrong_lone_qubit_norm_is_inconsistent(self, monkeypatch):
        # the GHZ pairs have best^2 = 1, which a lone-qubit Bloch length of 1 contradicts
        monkeypatch.setattr(states, "single_qubit_bloch_norm", lambda psi, which: 1.0)
        message = r"^pair AB: best\^2 = \S+, expected 1 \+ 2 l\^2 = 3$"
        with pytest.raises(errors.InternalInconsistency, match=message):
            absolute.reduced_pair_verdict(families.GHZ_STATE)
