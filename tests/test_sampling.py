import dataclasses
import itertools
import math
import sys
import threading

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_settings
from steerability import absolute, checks, errors, families, linalg, sampling, states, steering, teleport
from steerability import witness


class TestHaar:
    def test_unitarity(self):
        for k in range(100):
            U = sampling.haar_from_rng(sampling.SeededGenerator(81, k).rng())
            assert np.max(np.abs(U.conj().T @ U - np.eye(4))) < 1e-10

    def test_deterministic_per_stream(self):
        a = sampling.haar_from_rng(sampling.SeededGenerator(42, 0).rng())
        b = sampling.haar_from_rng(sampling.SeededGenerator(42, 0).rng())
        c = sampling.haar_from_rng(sampling.SeededGenerator(42, 1).rng())
        assert np.array_equal(a, b)
        assert not np.allclose(a, c)

    def test_spectrum_preserved_under_conjugation(self):
        rho = families.gisin(0.5, 0.7)
        w0 = np.sort(np.linalg.eigvalsh(rho))
        for k in range(50):
            U = sampling.haar_from_rng(sampling.SeededGenerator(82, k).rng())
            w = np.sort(np.linalg.eigvalsh(U @ rho @ U.conj().T))
            assert np.max(np.abs(w - w0)) < 1e-9

    def test_left_invariance_of_moments(self):
        # E|U_ij|^2 = 1/4 for Haar on U(4), before and after a fixed left factor
        rng = sampling.SeededGenerator(83).rng()
        batch = sampling.haar_from_rng(rng, size=4000)
        fixed = sampling.haar_from_rng(sampling.SeededGenerator(84).rng())
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


def hs_purity_moments():
    """E[P] and E[P^2] of the purity P = sum_i l_i^2 of Hilbert-Schmidt states, exactly.

    The eigenvalue density is prod_{i<j} (l_i - l_j)^2 on the simplex sum_i l_i = 1, and
    each monomial integrates there to prod_i a_i! / (sum_i a_i + 3)!."""
    lam = sympy.symbols("l1:5")
    density = sympy.prod([(lam[i] - lam[j]) ** 2 for i, j in itertools.combinations(range(4), 2)])
    purity = sum(x**2 for x in lam)

    def integral(poly):
        return sum(
            c * sympy.prod([sympy.factorial(a) for a in m]) / sympy.factorial(sum(m) + 3)
            for m, c in sympy.Poly(poly, *lam).terms()
        )

    return [integral(density * purity**k) / integral(density) for k in (1, 2)]


class TestPurityMoments:
    """The exact moments are seed-free oracles: each draw path lies within 5 stderr of both."""

    def test_exact_moments(self):
        assert hs_purity_moments() == [sympy.Rational(8, 17), sympy.Rational(73, 323)]

    @pytest.mark.parametrize("path", ["states_from_rng", "random_state", "hs_purity"])
    def test_draws_match_the_exact_moments(self, path):
        if path == "hs_purity":
            ginibre = sampling._ginibre(sampling.SeededGenerator(122).rng(), (100_000, 4, 4))
            purity = sampling._hs_purity(parts_of(ginibre))
        else:
            rhos = (
                sampling.states_from_rng(sampling.SeededGenerator(120).rng(), size=50_000)
                if path == "states_from_rng"
                else sampling.random_state([sampling.SeededGenerator(121, k) for k in range(10_000)])
            )
            purity = np.sum(np.abs(rhos) ** 2, axis=(-2, -1))
        for k, exact in ((1, 8 / 17), (2, 73 / 323)):
            stderr = np.std(purity**k) / np.sqrt(len(purity))
            assert abs(np.mean(purity**k) - exact) <= 5 * stderr


def face_average(f, split, order):
    """Average of f(rho) over the face l_4 = 0 of the eigenvalue simplex, weighted by the
    Hilbert-Schmidt density q = prod_{i<j} (l_i - l_j)^2 (with l_4 = 0 on that face).

    rho is the distance from the face centre (1/3, 1/3, 1/3, 0), which lies 1/sqrt(12) from
    I/4.  Gauss-Legendre of the given order in polar coordinates about the centre: six
    sectors, each from a vertex direction to the nearest edge's normal, so the distance to
    the edge is smooth in each; each ray is split at rho = split, where f may have a kink."""
    x, w = np.polynomial.legendre.leggauss(order)
    plane = np.array([[1, -1, 0], [1, 1, -2]]) / np.sqrt([[2], [6]])
    normals = np.radians([90, 210, 330])  # the vertices lie at 30, 150 and 270 degrees
    total = weighted = 0.0
    for k in range(6):
        a, b = np.radians([30 + 60 * k, 90 + 60 * k])
        phi, w_phi = (a + b) / 2 + (b - a) / 2 * x, (b - a) / 2 * w
        edge = 1 / np.sqrt(6) / np.cos(phi[:, None] - normals).max(axis=1)  # inradius 1/sqrt(6)
        for lo, hi in ((0.0, np.minimum(split, edge)), (np.minimum(split, edge), edge)):
            rho = ((lo + hi) / 2)[:, None] + ((hi - lo) / 2)[:, None] * x
            area = w_phi[:, None] * ((hi - lo) / 2)[:, None] * w * rho
            direction = np.cos(phi)[:, None, None] * plane[0] + np.sin(phi)[:, None, None] * plane[1]
            lam = np.append(1 / 3 + rho[..., None] * direction, np.zeros(rho.shape + (1,)), axis=-1)
            pairs = itertools.combinations(range(4), 2)
            q = np.prod([(lam[..., i] - lam[..., j]) ** 2 for i, j in pairs], axis=0)
            total += np.sum(q * area)
            weighted += np.sum(q * f(rho) * area)
    return weighted / total


def purity_cdf(t, order):
    """P(purity <= t) for Hilbert-Schmidt states, t in [1/4, 1/2].

    The density is homogeneous of degree 12 about I/4 and purity is 1/4 + r^2, so on the ray
    from I/4 through a face point at distance R the state s R (s in [0, 1]) has weight s^14
    ds, and the fraction of the ray with purity <= t is min(1, r_t / R)^15, r_t^2 = t - 1/4.
    The kink lies where R = r_t, at rho^2 = t - 1/3 (the incircle at t = 1/2)."""

    def within(rho):
        return np.minimum(1.0, (t - 0.25) / (1 / 12 + rho**2)) ** 7.5

    return face_average(within, math.sqrt(max(t - 1 / 3, 0.0)), order)


class TestPurityLaw:
    """P(purity <= 1/2), the fraction sample estimates, from a quadrature of the exact law."""

    def test_the_face_quadrature_gives_the_exact_moments(self):
        # E[s^2] = 15/17 and E[s^4] = 15/19 along the rays, so both moments are face averages
        mean_r2 = face_average(lambda rho: 1 / 12 + rho**2, 0.0, 32)
        mean_r4 = face_average(lambda rho: (1 / 12 + rho**2) ** 2, 0.0, 32)
        assert 1 / 4 + 15 / 17 * mean_r2 == pytest.approx(8 / 17, abs=1e-15)
        assert 1 / 16 + 15 / 34 * mean_r2 + 15 / 19 * mean_r4 == pytest.approx(73 / 323, abs=1e-15)

    def test_orders_agree_on_the_orbit_safe_fraction(self):
        values = [purity_cdf(0.5, order) for order in (32, 64, 128)]
        assert max(values) - min(values) <= 1e-13
        assert round(values[0], 14) == 0.70831268930722
        assert purity_cdf(0.3, 64) == pytest.approx(5.9008e-5, rel=1e-4)
        assert purity_cdf(0.4, 64) == pytest.approx(0.1336473, abs=1e-7)

    def test_sample_estimate_lies_within_5_stderr(self):
        # seed 0, the sample command's default, fixed before the first run
        fraction, stderr = sampling.aus3_volume_estimate(10**6, sampling.SeededGenerator(0))
        assert abs(fraction - purity_cdf(0.5, 64)) <= 5 * stderr


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
        rhos = sampling.random_state([sampling.SeededGenerator(91, k) for k in range(300)])
        bound = absolute.decide_aus3(rhos).f3_global_max
        gens = [sampling.SeededGenerator(92, k) for k in range(300)]
        assert np.all(sampling.empirical_f3_sup(rhos, 300, gens) <= bound + 1e-9)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            sampling.empirical_f3_sup(np.eye(4) / 4, 0, sampling.SeededGenerator(1))

    @pytest.mark.parametrize("shape, gens, counts", [
        ((3, 4, 4), 2, "got 2 for 3 states"),
        ((4, 4), 2, "got 2 for 1 states"),
        ((2, 4, 4), None, "got 1 for 2 states"),
    ])
    def test_rejects_a_generator_count_unlike_the_state_count(self, shape, gens, counts):
        rho = np.broadcast_to(np.eye(4) / 4, shape)
        g = sampling.SeededGenerator(1) if gens is None else [sampling.SeededGenerator(1, k) for k in range(gens)]
        with pytest.raises(ValueError, match=f"^need one generator per state: {counts}$") as info:
            sampling.empirical_f3_sup(rho, 5, g)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("shape", [(2, 8), (16,), (3, 2, 8)])
    def test_rejects_a_shape_that_is_not_4x4(self, shape):
        with pytest.raises(ValueError, match=r"^expected a 4x4 state or stack, got shape \("):
            sampling.empirical_f3_sup(np.full(shape, 1 / 16), 5, sampling.SeededGenerator(1))


class TestStackedSweep:
    """empirical_f3_sup on a stack gives the bits of its states one at a time, and
    sweeps max(1, _SWEEP_UNITARIES // trials) states per stack."""

    @settings(max_examples=16)
    @given(
        trials=st.sampled_from([1, 20, 4096, 4097]),  # one chunk, two chunks past 4096
        offset=st.integers(-2, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_equals_one_state_calls(self, trials, offset, seed):
        # stack sizes on both sides of the states the sweep puts in one stack
        size = max(1, max(1, sampling._SWEEP_UNITARIES // trials) + offset)
        rhos = sampling.random_state([sampling.SeededGenerator(seed, k) for k in range(size)])
        gens = [sampling.SeededGenerator(seed, size + k) for k in range(size)]
        stacked = sampling.empirical_f3_sup(rhos, trials, gens)
        singles = [sampling.empirical_f3_sup(rho, trials, g) for rho, g in zip(rhos, gens)]
        assert all(type(one) is float for one in singles)
        assert stacked.shape == (size,) and stacked.tobytes() == np.array(singles).tobytes()
        if size % 2 == 0:  # leading axes are states in C order
            square = rhos.reshape(2, size // 2, 4, 4)
            assert sampling.empirical_f3_sup(square, trials, gens).tobytes() == stacked.tobytes()

    @settings(max_examples=30)
    @given(
        seed=st.integers(0, 2**32 - 1),
        streams=st.lists(st.integers(0, 2**16), min_size=1, max_size=40),
    )
    def test_draws_equal_per_stream_states(self, seed, streams):
        gens = [sampling.SeededGenerator(seed, k) for k in streams]
        expected = np.stack([states.validate(sampling.states_from_rng(g.rng())) for g in gens])
        assert sampling.random_state(gens).tobytes() == expected.tobytes()
        assert sampling.random_state(gens[-1]).tobytes() == expected[-1].tobytes()
        one = sampling.random_state(gens[:1])
        assert one.shape == (1, 4, 4) and one.tobytes() == expected[0].tobytes()

    @settings(max_examples=15)
    @given(n=st.integers(1, 150), seed=st.integers(0, 2**16))
    def test_maximality_makes_one_call_and_one_qr_per_stack(self, n, seed):
        sweep, qr, sizes, shapes = sampling.empirical_f3_sup, np.linalg.qr, [], []

        def counted_sweep(rho, trials, g):
            sizes.append(len(rho))
            return sweep(rho, trials, g)

        def counted_qr(a, *args, **kwargs):
            shapes.append(a.shape)
            return qr(a, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampling, "empirical_f3_sup", counted_sweep)
            mp.setattr(np.linalg, "qr", counted_qr)
            ok, _ = checks.maximality(n, seed)
        step = max(1, sampling._SWEEP_UNITARIES // n)
        assert ok
        assert sizes == [n]
        assert len(shapes) == math.ceil(n / step)
        assert shapes == [(min(step, n - k), n, 4, 4) for k in range(0, n, step)]

    @pytest.mark.parametrize("trials", [1, 170, 511, 512, 513, 4097])
    def test_sweep_bounds_the_unitaries_it_holds(self, trials):
        # a stack of 40 states holds at most max(512, min(trials, 4096)) unitaries at once
        rhos = sampling.random_state([sampling.SeededGenerator(3, k) for k in range(40)])
        qr, shapes = np.linalg.qr, []

        def counted_qr(a, *args, **kwargs):
            shapes.append(a.shape)
            return qr(a, *args, **kwargs)

        count = 40 if trials < 4096 else 2
        gens = [sampling.SeededGenerator(4, k) for k in range(count)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "qr", counted_qr)
            sampling.empirical_f3_sup(rhos[:count], trials, gens)
        step = max(1, sampling._SWEEP_UNITARIES // trials)
        chunks = [min(4096, trials - done) for done in range(0, trials, 4096)]
        assert shapes == [(min(step, count - k), c, 4, 4) for k in range(0, count, step) for c in chunks]
        assert max(a * b for a, b, _, _ in shapes) <= max(512, min(trials, 4096))


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


def parts_of(ginibre):
    """The (2, n, 4, 4) real and imaginary parts of a Ginibre stack, the form _hs_purity reads."""
    return np.stack([ginibre.real, ginibre.imag])


def rho_based_fraction(samples, g):
    """The volume estimate's count made from rho: states_from_rng in chunks of 8192."""
    rng, hits = g.rng(), 0
    for done in range(0, samples, 8192):
        hits += int(np.sum(sampling.purity_at_most_half(sampling.states_from_rng(rng, size=min(8192, samples - done)))))
    return hits / samples


def boundary_ginibre(seed, count=8):
    """G = V diag(sqrt(lambda)) with Haar V, so rho = V diag(lambda) V^dagger: sum lambda^2 = 1/2
    at lambda = (x0, (1 - x0)/3 x 3), x0 = (1 + sqrt 3)/4, and within a few ulps of it as x
    steps by ulps, and at lambda = (1/2, 1/2, 0, 0)."""
    xs = [(1 + np.sqrt(3)) / 4]
    for _ in range(6):
        xs = [np.nextafter(xs[0], 0), *xs, np.nextafter(xs[-1], 1)]
    lams = np.array([[x, *[(1 - x) / 3] * 3] for x in xs] + [[0.5, 0.5, 0.0, 0.0]])
    V = sampling.haar_from_rng(sampling.SeededGenerator(seed).rng(), size=count * len(lams))
    return V * np.sqrt(np.repeat(lams, count, axis=0))[:, None, :]


class TestFastPurity:
    """aus3_volume_estimate reads purities from the Ginibre draws (_hs_purity) and decides
    the states within _HS_GUARD of 1/2 from rho, so its counts equal the rho-based test's."""

    @settings(max_examples=12)
    @given(seed=st.integers(0, 2**32 - 1), size=st.sampled_from([1, 8191, 8192, 8193]))
    def test_verdict_equals_the_rho_based_one(self, seed, size):
        ginibre = sampling._ginibre(sampling.SeededGenerator(seed).rng(), (size, 4, 4))
        rhos = sampling._hilbert_schmidt(ginibre)
        fast = sampling._hs_purity(parts_of(ginibre))
        assert np.array_equal(fast <= 0.5, sampling.purity_at_most_half(rhos))
        assert np.max(np.abs(fast - np.sum(np.abs(rhos) ** 2, axis=(-2, -1)))) <= sampling._HS_GUARD / 1000

    @pytest.mark.parametrize(
        "samples, seed",
        [(100, 3), (8192, 5), (8193, 6), (16_384, 7), (16_385, 8), (20_000, 0), (20_000, 11), (24_577, 9)],
    )
    def test_exact_path_everywhere_gives_the_rho_based_fraction(self, samples, seed, monkeypatch):
        fast = sampling.aus3_volume_estimate(samples, sampling.SeededGenerator(seed))
        monkeypatch.setattr(sampling, "_HS_GUARD", 1.0)
        exact = sampling.aus3_volume_estimate(samples, sampling.SeededGenerator(seed))
        assert exact == fast
        assert exact[0] == rho_based_fraction(samples, sampling.SeededGenerator(seed))

    @pytest.mark.parametrize("seed", range(5))
    def test_boundary_states_keep_the_rho_based_verdict(self, seed, monkeypatch):
        ginibre = boundary_ginibre(seed)
        fast = sampling._hs_purity(parts_of(ginibre))
        exact = sampling.purity_at_most_half(sampling._hilbert_schmidt(ginibre))
        assert np.all(np.abs(fast - 0.5) <= sampling._HS_GUARD)
        assert 0 < np.sum(exact) < len(exact)
        assert np.any((fast <= 0.5) != exact)  # the guard is what keeps these verdicts
        monkeypatch.setattr(sampling, "_ginibre_parts", lambda rng, out: np.copyto(out, parts_of(ginibre)))
        fraction, _ = sampling.aus3_volume_estimate(len(ginibre), sampling.SeededGenerator(seed))
        assert fraction == np.mean(exact)

    @pytest.mark.parametrize("guard", [1e-12, 1e-3])
    def test_rho_is_built_only_for_guarded_states(self, guard, monkeypatch):
        build, sizes = sampling._hilbert_schmidt, []

        def counted(ginibre):
            sizes.append(len(ginibre))
            return build(ginibre)

        rng, near = sampling.SeededGenerator(0).rng(), []
        for done in range(0, 20_000, 8192):
            purity = sampling._hs_purity(parts_of(sampling._ginibre(rng, (min(8192, 20_000 - done), 4, 4))))
            near.append(int(np.sum(np.abs(purity - 0.5) <= guard)))
        expected = rho_based_fraction(20_000, sampling.SeededGenerator(0))
        monkeypatch.setattr(sampling, "_HS_GUARD", guard)
        monkeypatch.setattr(sampling, "_hilbert_schmidt", counted)
        fraction, _ = sampling.aus3_volume_estimate(20_000, sampling.SeededGenerator(0))
        assert sizes == near
        assert fraction == expected
        assert (sum(sizes) > 0) == (guard > 1e-6)


class TestDrawThread:
    """aus3_volume_estimate draws the next chunk on one worker thread; an error on either
    side reaches the caller as raised, after the worker is joined."""

    def test_a_draw_error_reaches_the_caller(self, monkeypatch):
        draw, sizes, error = sampling._ginibre_parts, [], RuntimeError("draw failed")

        def failing(rng, out):
            sizes.append(out.shape[1])
            if len(sizes) == 2:
                raise error
            draw(rng, out)

        before = threading.active_count()
        monkeypatch.setattr(sampling, "_ginibre_parts", failing)
        with pytest.raises(RuntimeError) as caught:
            sampling.aus3_volume_estimate(20_000, sampling.SeededGenerator(0))
        assert caught.value is error
        assert sizes == [8192, 8192]
        assert threading.active_count() == before

    def test_a_reduction_error_stops_the_worker(self, monkeypatch):
        draw, sizes, error = sampling._ginibre_parts, [], RuntimeError("reduction failed")

        def counted(rng, out):
            sizes.append(out.shape[1])
            draw(rng, out)

        def failing(parts):
            raise error

        before = threading.active_count()
        monkeypatch.setattr(sampling, "_ginibre_parts", counted)
        monkeypatch.setattr(sampling, "_hs_purity", failing)
        with pytest.raises(RuntimeError) as caught:
            sampling.aus3_volume_estimate(100_000, sampling.SeededGenerator(0))
        assert caught.value is error
        assert sizes == [8192, 8192]  # the worker draws one chunk ahead, then stops
        assert threading.active_count() == before

    def test_a_success_leaves_the_handoff_unbroken(self, monkeypatch):
        # the caller breaks the barrier only on an error: breaking it after a success races
        # the worker's last wait, and the BrokenBarrierError the worker then stores ties the
        # chunk buffers into a reference cycle that holds them until the garbage collector runs
        barriers = []

        class Recorded(threading.Barrier):
            def __init__(self, parties):
                super().__init__(parties)
                barriers.append(self)

        monkeypatch.setattr(threading, "Barrier", Recorded)
        for samples in (100, 20_000):
            sampling.aus3_volume_estimate(samples, sampling.SeededGenerator(0))
        assert [barrier.broken for barrier in barriers] == [False, False]

    def test_calls_on_several_threads_keep_their_bits(self):
        # more callers than cores, each with its own worker, switching threads often
        def estimate(seed):
            return sampling.aus3_volume_estimate(20_000, sampling.SeededGenerator(seed))

        expected, results, interval = [estimate(k) for k in range(6)], [None] * 6, sys.getswitchinterval()
        threads = [threading.Thread(target=lambda k=k: results.__setitem__(k, estimate(k))) for k in range(6)]
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == expected


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
    draws = sampling.random_state([sampling.SeededGenerator(93, k) for k in range(50)])
    rhos = np.concatenate([draws, edge_states()])
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
        bad = states.PAULI_2Q.copy()
        bad[3, 3, 0, 0] *= -1
        monkeypatch.setattr(states, "PAULI_2Q", bad)
        stack[3] = rho
    with pytest.raises(error, match=r" \(state 3 of the stack\)$") as info:
        kernel(stack)
    if error is errors.InternalInconsistency:
        assert str(info.value).startswith("criteria disagree: ")
