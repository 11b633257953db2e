import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
        # checked before squaring, so an overflowing coherence is out of range too
        with pytest.raises(errors.OutOfRange):
            families.x_state(0.25, 0.25, 0.25, 0.25, 1e200, 0)
        with pytest.raises(errors.OutOfRange):
            families.x_state(0.25, 0.25, 0.25, 0.25, 0, -1e200)

    def test_weight_constraints(self):
        with pytest.raises(errors.OutOfRange):
            families.x_state(0.5, 0.5, 0.5, 0.5, 0, 0)
        with pytest.raises(errors.OutOfRange):
            families.x_state(1.5, -0.5, 0, 0, 0, 0)
        with pytest.raises(errors.OutOfRange):
            families.x_state(0.5, float("nan"), 0.25, 0.25, 0, 0)

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
    def test_werner_threshold(self, monkeypatch):
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        decide, calls = absolute.decide_aus3, []
        monkeypatch.setattr(absolute, "decide_aus3", lambda rho: calls.append(rho) or decide(rho))
        result = families.scan_family("werner", grid)
        assert result.threshold is not None
        assert abs(result.threshold - 1 / np.sqrt(3)) < 1e-9
        assert len(calls) == 1 + 1  # the grid, then the 20 bisection steps predicted in one stack

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


def _member(family, theta):
    return families.werner if family == "werner" else (lambda w: families.gisin(w, theta))


def _coin(x: float, bias: int) -> bool:
    """A non-monotone answer read from a hash of x's bits (0.0 and -0.0 share theirs, as
    float keys do); True for about bias in 256 floats."""
    return hashlib.blake2b(struct.pack("<d", x + 0.0), digest_size=1).digest()[0] < bias


class TestRefinement:
    """scan_family decides each predicted bisection walk in one stack and keeps the walk of
    one decide_aus3 call per step."""

    @settings(max_examples=60)
    @given(
        family=st.sampled_from(["werner", "gisin"]),
        offsets=st.lists(st.floats(-1e-6, 1e-6), min_size=1, max_size=31),
        theta=st.floats(0.1, 1.4),
    )
    def test_stack_entries_equal_one_state_calls(self, family, offsets, theta):
        member = _member(family, theta)
        weights = (1 / np.sqrt(3) if family == "werner" else 2 / 3) + np.array(offsets)
        stack = absolute.decide_aus3(member(weights))
        singles = [absolute.decide_aus3(member(w)) for w in weights.tolist()]
        for name, column in vars(stack).items():
            expected = np.array([getattr(one, name) for one in singles])
            assert column.dtype == expected.dtype and column.tobytes() == expected.tobytes(), name

    @settings(max_examples=40)
    @given(
        family=st.sampled_from(["werner", "gisin"]),
        start=st.floats(0.0, 0.65),
        step=st.floats(1e-4, 0.05),
        theta=st.floats(0.1, 1.4),
    )
    def test_threshold_and_calls_match_the_one_state_walk(self, family, start, step, theta):
        member = _member(family, theta)
        grid = np.arange(start, 1.0, step)
        decide, calls = absolute.decide_aus3, []

        def counted(rho):
            calls.append(rho.shape)
            return decide(rho)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(absolute, "decide_aus3", counted)
            result = families.scan_family(family, grid, theta=theta)
        grid_calls = -(-grid.size // families.SCAN_CHUNK)

        flags = result.verdict.in_aus3
        crossings = np.flatnonzero(flags[:-1] & ~flags[1:])
        if not crossings.size:
            assert result.threshold is None and len(calls) == grid_calls
            return
        lo, hi = float(grid[crossings[0]]), float(grid[crossings[0] + 1])
        steps = []

        def above(mid):
            steps.append(mid)
            return decide(member(mid)).f3_global_max > 1.0

        assert result.threshold.hex() == linalg.bisect(above, lo, hi, 1e-9).hex()
        refinements = calls[grid_calls:]
        assert bool(refinements) == bool(steps) and len(refinements) <= len(steps)
        assert all(shape[0] <= 80 for shape in refinements)

    @pytest.mark.parametrize(
        "family, lo, hi, step, most",
        [("werner", 0.5, 0.6, 1e-3, 1), ("gisin", 0.6, 0.7, 1e-3, 2),
         ("werner", 0.5, 1.0, 1e-2, 1), ("gisin", 0.5, 1.0, 1e-2, 2)],
    )
    def test_benchmark_ranges_take_one_or_two_refinement_calls(self, monkeypatch, family, lo, hi, step, most):
        # the grids `scan --from lo --to hi --step step` builds
        grid = np.minimum(lo + step * np.arange(round((hi - lo) / step) + 1), hi)
        decide, sizes = absolute.decide_aus3, []
        monkeypatch.setattr(absolute, "decide_aus3", lambda rho: sizes.append(len(rho)) or decide(rho))
        families.scan_family(family, grid)
        assert sizes[0] == grid.size and 1 <= len(sizes) - 1 <= most

    def test_ends_on_one_side_take_one_round(self, monkeypatch):
        # 1/sqrt(3) + 5e-10 is in AUS3 by the tolerant flag but has F3 > 1, so both ends of the
        # crossing lie above 1: the line predicts every strict step down to the lower end
        grid = np.array([0.5, 1 / np.sqrt(3) + 5e-10, 0.6])
        decide, sizes = absolute.decide_aus3, []
        monkeypatch.setattr(absolute, "decide_aus3", lambda rho: sizes.append(len(rho)) or decide(rho))
        result = families.scan_family("werner", grid)
        assert result.verdict.in_aus3.tolist() == [True, True, False]
        assert result.verdict.f3_global_max[1] > 1.0 and sizes == [3, 25]
        walk = linalg.bisect(lambda p: decide(families.werner(p)).f3_global_max > 1.0, grid[1], grid[2], 1e-9)
        assert result.threshold.hex() == walk.hex()

    @settings(max_examples=80)
    @given(
        ends=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        bias=st.sampled_from([64, 128, 192, 240]),
        width=st.sampled_from([0.0, 1e-9]),
    )
    @example(ends=(0.0, 1.0), bias=240, width=0.0)  # stopped by the 80-step cap
    @example(ends=(0.1, 0.9), bias=128, width=0.0)  # stopped at a fixed point, after 56 steps
    @example(ends=(1.0, math.nextafter(1.0, 2.0)), bias=128, width=0.0)  # adjacent floats
    @example(ends=(1.0, math.nextafter(1.0, 2.0)), bias=256, width=0.0)  # adjacent, equal ends
    @example(ends=(0.0, 5e-324), bias=192, width=0.0)  # adjacent subnormals: the slope overflows
    @example(ends=(0.1, 0.9), bias=0, width=1e-9)  # equal end values: one answer predicted
    @example(ends=(0.1, 0.9), bias=128, width=1e-9)  # stopped by the width, after 30 steps
    def test_predicted_walk_asks_what_the_plain_predicate_asks(self, ends, bias, width):
        lo, hi = sorted(ends)
        plain, walked = [], []

        def above(mid):
            plain.append(mid)
            return _coin(mid, bias)

        def values(xs):  # the coin as values on either side of 1.0
            return np.array([2.0 if _coin(x, bias) else 0.0 for x in np.ravel(xs).tolist()])

        predicted = families._predicted_walk(values, lo, hi, values([lo, hi]), width)

        def cached(mid):
            walked.append(mid)
            return predicted(mid)

        assert linalg.bisect(cached, lo, hi, width).hex() == linalg.bisect(above, lo, hi, width).hex()
        assert [m.hex() for m in walked] == [m.hex() for m in plain]

    @pytest.mark.parametrize(
        "ends, bias, width, rounds",
        [((0.0, 1.0), 240, 0.0, 44), ((0.1, 0.9), 128, 0.0, 32), ((-1.0, 1.0), 128, 0.0, 29),
         ((0.1, 0.9), 128, 1e-9, 19), ((0.1, 0.9), 192, 1e-9, 15), ((0.25, 0.75), 240, 1e-9, 14),
         ((0.1, 0.9), 0, 1e-9, 1), ((1.0, math.nextafter(1.0, 2.0)), 128, 0.0, 0)],
    )
    def test_each_round_starts_from_the_interval_bisect_holds(self, ends, bias, width, rounds):
        # a round started from any other interval predicts other midpoints after its first
        # wrong guess, so the coin walks would take another number of values_of calls
        asked = []

        def values(xs):
            asked.append(len(xs))
            return np.array([2.0 if _coin(x, bias) else 0.0 for x in np.ravel(xs).tolist()])

        lo, hi = ends
        predicted = families._predicted_walk(values, lo, hi, [2.0 * _coin(x, bias) for x in ends], width)
        linalg.bisect(predicted, lo, hi, width)
        assert len(asked) == rounds

    @pytest.mark.parametrize(
        "ends, level, rounds",
        [((1.0, 1.0), 1.0, 1), ((3.0, 3.0), 3.0, 1), ((np.nan, np.nan), np.nan, 1),
         ((5.0, 6.0), 5.0, 1), ((-6.0, -5.0), -6.0, 1), ((np.inf, np.inf), np.inf, None),
         ((0.0, 2.0), 5.0, None)],
    )
    def test_degenerate_ends_keep_the_walk(self, ends, level, rounds):
        # equal ends (no division by their difference), non-finite ends, and a line with no
        # crossing inside the interval; a constant predicate then takes one round when the
        # line gives its answer, and bisect still decides every step otherwise
        asked = []

        def values(xs):
            asked.append(len(xs))
            return np.full(len(xs), level)

        predicted = families._predicted_walk(values, 0.25, 0.75, ends, 1e-9)
        plain = linalg.bisect(lambda mid: level > 1.0, 0.25, 0.75, 1e-9)
        assert linalg.bisect(predicted, 0.25, 0.75, 1e-9).hex() == plain.hex()
        assert rounds is None or len(asked) == rounds
