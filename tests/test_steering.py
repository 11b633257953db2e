import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_settings
from steerability import errors, sampling, states, steering

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

    def test_bloch_and_trace_evaluations_must_agree(self, monkeypatch):
        to_bloch = states.to_bloch

        def shifted(rho):
            form = to_bloch(rho)
            return states.BlochForm(a=form.a, b=form.b, T=form.T + 1e-6)

        monkeypatch.setattr(states, "to_bloch", shifted)
        mu = steering.MeasurementSetting(u=np.eye(3), v=np.eye(3))
        with pytest.raises(errors.InternalInconsistency, match="^Bloch evaluation .* vs trace evaluation "):
            steering.steering_functional(SINGLET, mu)


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

    @pytest.mark.parametrize("n", [1, 4])
    def test_rejects_bad_n(self, n):
        with pytest.raises(errors.InvalidSetting, match=f"^n must be 2 or 3, got {n}$"):
            steering.optimal_directions(SINGLET, n)

    @pytest.mark.parametrize("n", [2, 3])
    def test_achieves_optimum_on_random_states(self, n):
        best = steering.f2_max if n == 2 else steering.f3_max
        for k in range(300):
            rho = sampling.random_state(sampling.SeededGenerator(41, k))
            mu = steering.optimal_directions(rho, n)
            got = steering.steering_functional(rho, mu)
            assert abs(got - best(rho)) < 1e-9

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("scale", [1e-4, 1e-6, 1e-8, 1e-10, 1e-13, 1e-50, 1e-150])
    def test_optimal_directions_attain_the_optimum_at_every_scale(self, scale, n):
        # T is scaled by an exact power of two before the frame is built, so weakly
        # correlated states get equal |T v_i| too and reach the optimum, not a share of it
        best = steering.f2_max if n == 2 else steering.f3_max
        for rho in _scaled_states(scale):
            got = steering.steering_functional(rho, steering.optimal_directions(rho, n))
            assert abs(got - best(rho)) <= 1e-12 * best(rho)

    @settings(max_examples=200)
    @given(
        seed=st.integers(0, 2**32 - 1),
        singular=st.lists(st.floats(0, 1 / 3), min_size=3, max_size=3).filter(lambda s: max(s) >= 1e-3),
        exponent=st.floats(-150, 0),
        n=st.sampled_from([2, 3]),
    )
    def test_optimal_directions_attain_the_optimum_for_generated_T(self, seed, singular, exponent, n):
        # T = 10^exponent Q1 diag(s) Q2 with a = b = 0 is a state for s_i <= 1/3; its norm
        # stays above 1e-153, where f2_max and f3_max square T's entries without underflow
        q1, q2 = (np.linalg.qr(g)[0] for g in np.random.default_rng(seed).standard_normal((2, 3, 3)))
        T = 10.0**exponent * (q1 * singular) @ q2.T
        rho = states.from_bloch(states.BlochForm(a=np.zeros(3), b=np.zeros(3), T=T))
        best = (steering.f2_max if n == 2 else steering.f3_max)(rho)
        got = steering.steering_functional(rho, steering.optimal_directions(rho, n))
        assert abs(got - best) <= 1e-12 * best

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize(
        "rho", [MIXED, np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)], ids=["mixed", "local_bloch_a"]
    )
    def test_axes_only_for_zero_correlations(self, rho, n):
        # T = 0 is the one case where every setting gives 0, whatever a and b are
        mu = steering.optimal_directions(rho, n)
        assert np.array_equal(mu.u, AXES[:n]) and np.array_equal(mu.v, AXES[:n])


def _random_states(seed, count):
    """Stack of the first states of count seeded streams."""
    return sampling.random_state([sampling.SeededGenerator(seed, k) for k in range(count)])


def _scaled_states(scale, count=200):
    """count seeded states with their Bloch data a, b and T multiplied by scale."""
    form = states.to_bloch(_random_states(90, count))
    return [
        states.from_bloch(states.BlochForm(a=scale * a, b=scale * b, T=scale * T))
        for a, b, T in zip(form.a, form.b, form.T)
    ]


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
        if d[hi] - d[lo] <= 1e-12 * d[hi]:
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


def _correlation_frames(rhos):
    """T^t T for the correlation matrices T of a stack of states."""
    T = states.to_bloch(rhos).T
    return np.swapaxes(T, -2, -1) @ T


class TestEqualizedFrame:
    def test_math_trig_rounds_like_numpy_scalars(self):
        # the bisection evaluates math.cos/math.sin where it evaluated np.cos/np.sin
        # on numpy scalars; the two must agree on uniform angles and on every
        # angle the bisection visits, on frames of weakly correlated states too
        visited = []
        scaled = [_scaled_states(scale, 100) for scale in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10)]
        for M in _correlation_frames(np.concatenate([_random_states(47, 500), *scaled])):
            for k in (2, 3):
                _reference_equalized_frame(M, k, visited)
        uniform = np.random.default_rng(48).uniform(0.0, np.pi / 2, 200_000).tolist()
        for angles in (uniform, visited):
            assert [math.cos(x) for x in angles] == [float(np.cos(x)) for x in angles]
            assert [math.sin(x) for x in angles] == [float(np.sin(x)) for x in angles]

    def test_math_trig_rounds_like_numpy_arrays(self):
        # a stacked bisection would evaluate np.cos/np.sin on arrays, whose SIMD loops
        # depend on the machine; they must round like math.cos/math.sin element by element
        angles = np.random.default_rng(49).uniform(0.0, np.pi / 2, 1_000_000)
        assert np.cos(angles).tolist() == [math.cos(x) for x in angles.tolist()]
        assert np.sin(angles).tolist() == [math.sin(x) for x in angles.tolist()]

    @pytest.mark.parametrize(
        "T",
        [
            np.zeros((3, 3)),
            -np.eye(3),
            np.outer([0.3, -0.5, 0.1], [0.2, 0.7, -0.4]),  # rank 1
            np.diag([0.6, 0.6, 0.2]),  # two equal eigenvalues
            np.diag([1e-8, 0, 0]),  # weak: the frame's entries are all below 1e-15
        ],
        ids=["zero", "minus_identity", "rank_1", "two_equal", "tiny"],
    )
    def test_degenerate_frames_match_the_reference(self, T):
        for k in (2, 3):
            got = steering._equalized_frame(T.T @ T, k)
            assert got.tobytes() == _reference_equalized_frame(T.T @ T, k, []).tobytes()

    @pytest.mark.parametrize("k", [2, 3])
    def test_random_frames_match_the_reference(self, k):
        for M in _correlation_frames(_random_states(47, 2000)):
            got = steering._equalized_frame(M, k)
            assert got.tobytes() == _reference_equalized_frame(M, k, []).tobytes()


class TestProperties:
    def test_f3_equals_frobenius_and_dominates_f2(self):
        rhos = sampling.random_state([sampling.SeededGenerator(42, k) for k in range(1000)])
        T = states.to_bloch(rhos).T
        s = np.linalg.svd(T, compute_uv=False)
        f3 = steering.f3_max(rhos)
        assert np.all(np.abs(f3**2 - np.sum(s**2, axis=-1)) < 1e-10)
        assert np.all(np.abs(f3**2 - np.sum(T**2, axis=(-2, -1))) < 1e-10)
        assert np.all(steering.f2_max(rhos) <= f3 + 1e-12)
        assert np.all(f3 <= np.sqrt(3))  # F3^2 = ||T||_F^2 = 4P - 1 - |a|^2 - |b|^2 <= 3

    def test_no_setting_beats_the_optimum(self):
        # 100 settings for each of 1,000 states; draw j belongs to state j // 100
        rhos = sampling.random_state([sampling.SeededGenerator(44, k) for k in range(1000)])
        caps = {2: steering.f2_max(rhos), 3: steering.f3_max(rhos)}
        for n, (positions, mu) in random_settings(np.random.default_rng(43), 100_000).items():
            owner = positions // 100
            assert np.all(steering.steering_functional(rhos[owner], mu) <= caps[n][owner] + 1e-9)

    def test_local_unitary_invariance(self):
        rhos = sampling.random_state([sampling.SeededGenerator(45, k) for k in range(200)])
        rngs = [sampling.SeededGenerator(46, k).rng() for k in range(200)]
        pairs = [[sampling.haar_from_rng(rng, dim=2) for _ in range(2)] for rng in rngs]
        local = np.stack([np.kron(ua, ub) for ua, ub in pairs])
        rotated = local @ rhos @ np.swapaxes(local.conj(), -2, -1)
        assert np.all(np.abs(steering.f3_max(rotated) - steering.f3_max(rhos)) < 1e-9)
