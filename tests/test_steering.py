import math

import numpy as np
import pytest

from conftest import random_settings
from steerability import checks, errors, sampling, states, steering

AXES = np.eye(3)
SINGLET = np.outer([0, 1, -1, 0], [0, 1, -1, 0]) / 2.0
MIXED = np.eye(4) / 4


class TestSettingValidation:
    def test_rejects_non_unit_u(self):
        with pytest.raises(errors.InvalidSetting, match=r"^u directions must be unit vectors$"):
            steering.MeasurementSetting(u=2 * AXES, v=AXES)

    def test_rejects_non_orthonormal_v(self):
        v = AXES.copy()
        v[1] = [1, 1e-3, 0]
        with pytest.raises(errors.InvalidSetting, match=r"^v directions must be orthonormal$"):
            steering.MeasurementSetting(u=AXES, v=v)

    def test_rejects_bad_n(self):
        for one in (AXES[:1], np.stack([AXES[:1]] * 5)):
            with pytest.raises(errors.InvalidSetting, match=r"^n must be 2 or 3, got 1$"):
                steering.MeasurementSetting(u=one, v=one)

    def test_rejects_mismatched_shapes(self):
        stack = np.stack([AXES] * 5)
        for u, v in ((AXES, AXES[:2]), (AXES[0], AXES[0]), (stack, stack[:, :2]), (stack, AXES)):
            with pytest.raises(errors.InvalidSetting, match=r"^need matching \(n, 3\) arrays, got "):
                steering.MeasurementSetting(u=u, v=v)

    @pytest.mark.parametrize("field, row", [(f, r) for f in "uv" for r in ([1, 1e-3, 0], [np.nan, 0, 0])])
    def test_stack_error_names_the_bad_setting(self, field, row):
        dirs = {"u": np.stack([AXES] * 5), "v": np.stack([AXES] * 5)}
        dirs[field][3, 1] = row
        with pytest.raises(errors.InvalidSetting, match=rf"^{field} directions .* \(state 3 of the stack\)$"):
            steering.MeasurementSetting(**dirs)

    def test_repeated_u_allowed(self):
        u = np.array([[0, 0, 1.0], [0, 0, 1.0], [0, 0, 1.0]])
        mu = steering.MeasurementSetting(u=u, v=AXES)
        assert mu.n == 3


class TestFunctional:
    def test_maximally_mixed_vanishes(self):
        mu = steering.MeasurementSetting(u=AXES, v=AXES)
        assert steering.steering_functional(MIXED, mu) == pytest.approx(0, abs=1e-14)

    def test_product_ground_state(self):
        rho = np.diag([1.0, 0, 0, 0]).astype(complex)
        mu = steering.MeasurementSetting(u=AXES, v=AXES)
        got = steering.steering_functional(rho, mu)
        assert got == pytest.approx(1 / np.sqrt(3), abs=1e-12)
        assert got <= 1.0

    def test_singlet_opposite_axes(self):
        mu = steering.MeasurementSetting(u=-AXES, v=AXES)
        got = steering.steering_functional(SINGLET, mu)
        assert got == pytest.approx(np.sqrt(3), abs=1e-12)
        assert got > 1.0


class TestOptima:
    def test_f3_werner_linear(self):
        for p in (0.2, 1 / np.sqrt(3), 0.9):
            rho = p * SINGLET + (1 - p) * MIXED
            assert steering.f3_max(rho) == pytest.approx(np.sqrt(3) * p, abs=1e-12)
        boundary = steering.f3_max((1 / np.sqrt(3)) * SINGLET + (1 - 1 / np.sqrt(3)) * MIXED)
        assert boundary == pytest.approx(1.0, abs=1e-12)

    def test_f3_extremes(self):
        assert steering.f3_max(SINGLET) == pytest.approx(np.sqrt(3), abs=1e-12)
        assert steering.f3_max(MIXED) == pytest.approx(0, abs=1e-14)

    def test_f2_values(self):
        assert steering.f2_max(SINGLET) == pytest.approx(np.sqrt(2), abs=1e-12)
        assert steering.f2_max(MIXED) == pytest.approx(0, abs=1e-14)
        rho = 0.8 * SINGLET + 0.2 * MIXED
        assert steering.f2_max(rho) == pytest.approx(np.sqrt(2) * 0.8, abs=1e-12)


class TestOptimalDirections:
    def test_singlet_frame(self):
        mu = steering.optimal_directions(SINGLET, 3)
        # any orthonormal frame works for T = -I; u must be the reversed v
        assert np.allclose(mu.u, -mu.v, atol=1e-12)
        got = steering.steering_functional(SINGLET, mu)
        assert got == pytest.approx(np.sqrt(3), abs=1e-12)

    def test_product_state_reaches_one(self):
        rho = np.diag([1.0, 0, 0, 0]).astype(complex)
        mu = steering.optimal_directions(rho, 3)
        got = steering.steering_functional(rho, mu)
        assert got == pytest.approx(steering.f3_max(rho), abs=1e-12)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_any_frame(self):
        mu = steering.optimal_directions(MIXED, 3)
        assert steering.steering_functional(MIXED, mu) == pytest.approx(0, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    def test_achieves_optimum_on_random_states(self, n):
        best = steering.f2_max if n == 2 else steering.f3_max
        for k in range(300):
            rho = sampling.random_state(sampling.SeededGenerator(41, k))
            mu = steering.optimal_directions(rho, n)
            got = steering.steering_functional(rho, mu)
            assert abs(got - best(rho)) < 1e-9


def _reference_equalized_frame(M, k, visited):
    """The 80-step bisection on numpy scalars that steering._equalized_frame must
    reproduce bit for bit; appends every angle it takes cos and sin of to visited."""
    w, W = np.linalg.eigh(M)
    W = W[:, ::-1][:, :k]
    D = W.T @ M @ W
    V = W.copy()
    mean = np.trace(D) / k
    for _ in range(k - 1):
        d = np.diag(D)
        hi = int(np.argmax(d))
        lo = int(np.argmin(d))
        if d[hi] - d[lo] <= 1e-15:
            break

        def pinned(theta):
            visited.append(theta)
            c, s = np.cos(theta), np.sin(theta)
            return c * c * D[hi, hi] + s * s * D[lo, lo] + 2 * c * s * D[hi, lo] - mean

        a, b = 0.0, np.pi / 2
        for _ in range(80):
            mid = (a + b) / 2
            if pinned(mid) > 0:
                a = mid
            else:
                b = mid
        theta = (a + b) / 2
        visited.append(theta)
        c, s = np.cos(theta), np.sin(theta)
        G = np.eye(k)
        G[hi, hi] = c
        G[lo, lo] = c
        G[hi, lo] = -s
        G[lo, hi] = s
        D = G.T @ D @ G
        V = V @ G
    return V


def _correlation_frames(count):
    """T^t T for the correlation matrices T of count random states."""
    T = states.to_bloch(checks._draws(47, range(count))).T
    return np.swapaxes(T, -2, -1) @ T


class TestEqualizedFrame:
    def test_math_trig_rounds_like_numpy_scalars(self):
        # the bisection evaluates math.cos/math.sin where it evaluated np.cos/np.sin
        # on numpy scalars; the two must agree on uniform angles and on every
        # angle the bisection visits
        visited = []
        for M in _correlation_frames(500):
            for k in (2, 3):
                _reference_equalized_frame(M, k, visited)
        uniform = np.random.default_rng(48).uniform(0.0, np.pi / 2, 200_000).tolist()
        for angles in (uniform, visited):
            assert [math.cos(x) for x in angles] == [float(np.cos(x)) for x in angles]
            assert [math.sin(x) for x in angles] == [float(np.sin(x)) for x in angles]

    @pytest.mark.parametrize(
        "T",
        [
            np.zeros((3, 3)),
            -np.eye(3),
            np.outer([0.3, -0.5, 0.1], [0.2, 0.7, -0.4]),  # rank 1
            np.diag([0.6, 0.6, 0.2]),  # two equal eigenvalues
        ],
        ids=["zero", "minus_identity", "rank_1", "two_equal"],
    )
    def test_degenerate_frames_match_the_reference(self, T):
        for k in (2, 3):
            got = steering._equalized_frame(T.T @ T, k)
            assert got.tobytes() == _reference_equalized_frame(T.T @ T, k, []).tobytes()

    @pytest.mark.parametrize("k", [2, 3])
    def test_random_frames_match_the_reference(self, k):
        for M in _correlation_frames(2000):
            got = steering._equalized_frame(M, k)
            assert got.tobytes() == _reference_equalized_frame(M, k, []).tobytes()


class TestBound:
    def test_jm_bound_values(self):
        assert steering.jm_bound_check(np.sqrt(3))
        assert steering.jm_bound_check(0.0)
        assert not steering.jm_bound_check(1.8)


class TestProperties:
    def test_f3_equals_frobenius_and_dominates_f2(self):
        rhos = checks._draws(42, range(1000))
        T = states.to_bloch(rhos).T
        s = np.linalg.svd(T, compute_uv=False)
        f3 = steering.f3_max(rhos)
        assert np.all(np.abs(f3**2 - np.sum(s**2, axis=-1)) < 1e-10)
        assert np.all(np.abs(f3**2 - np.sum(T**2, axis=(-2, -1))) < 1e-10)
        assert np.all(steering.f2_max(rhos) <= f3 + 1e-12)
        assert np.all(steering.jm_bound_check(f3))

    def test_no_setting_beats_the_optimum(self):
        # 100 settings for each of 1,000 states; draw j belongs to state j // 100
        rhos = checks._draws(44, range(1000))
        caps = {2: steering.f2_max(rhos), 3: steering.f3_max(rhos)}
        for n, (positions, mu) in random_settings(np.random.default_rng(43), 100_000).items():
            owner = positions // 100
            assert np.all(steering.steering_functional(rhos[owner], mu) <= caps[n][owner] + 1e-9)

    def test_local_unitary_invariance(self):
        rhos = checks._draws(45, range(200))
        rngs = [sampling.SeededGenerator(46, k).rng() for k in range(200)]
        pairs = [[sampling.haar_from_rng(rng, dim=2) for _ in range(2)] for rng in rngs]
        local = np.stack([np.kron(ua, ub) for ua, ub in pairs])
        rotated = local @ rhos @ np.swapaxes(local.conj(), -2, -1)
        assert np.all(np.abs(steering.f3_max(rotated) - steering.f3_max(rhos)) < 1e-9)
