"""Invariants over generated states rho = G G^dagger / Tr(G G^dagger), and validate's
contract over generated finite matrices."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import UNCONVERGED
from steerability import absolute, errors, families, linalg, sampling, states, steering, teleport, witness

_ENTRIES = st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32)


def _state(entries):
    g = np.asarray(entries).reshape(2, 4, 4)
    g = g[0] + 1j * g[1]
    gg = g @ g.conj().T
    trace = np.trace(gg).real
    assume(trace > 1e-6)
    return states.validate(gg / trace)


@settings(max_examples=40)
@given(entries=_ENTRIES, seed=st.integers(0, 2**32 - 1))
def test_global_unitary_invariance(entries, seed):
    rho = _state(entries)
    U = sampling.haar_from_rng(sampling.SeededGenerator(seed).rng())
    before = absolute.decide_aus3(rho)
    after = absolute.decide_aus3(states.validate(U @ rho @ U.conj().T))
    assert abs(before.purity - after.purity) < 1e-9
    assert abs(before.f3_global_max - after.f3_global_max) < 1e-9
    if abs(before.purity - (0.5 + absolute.BOUNDARY_TOL)) > 1e-12:
        assert before.in_aus3 == after.in_aus3


@settings(max_examples=40)
@given(entries=_ENTRIES)
def test_bloch_round_trip(entries):
    rho = _state(entries)
    assert np.max(np.abs(states.from_bloch(states.to_bloch(rho)) - rho)) < 1e-10


@settings(max_examples=40)
@given(entries=_ENTRIES)
def test_f3_bounds_n(entries):
    rho = _state(entries)
    f3 = steering.f3_max(rho)
    n_value = teleport.aux_criteria(rho).N
    assert f3 <= n_value + 1e-10
    assert n_value <= np.sqrt(3) * f3 + 1e-10


@st.composite
def _finite_matrices(draw):
    """A complex 4x4 matrix with finite entries up to 1e308 in magnitude; some draws are
    Hermitian, and some of those have diagonal (x, -x, t, 1 - t), so their trace is 1."""
    m = np.array(draw(st.lists(st.floats(-1e308, 1e308), min_size=32, max_size=32))).reshape(2, 4, 4)
    m = m[0] + 1j * m[1]
    shape = draw(st.sampled_from(["any", "hermitian", "unit-trace"]))
    if shape != "any":
        m = np.triu(m, 1) + np.triu(m, 1).conj().T + np.diag(m.diagonal().real)
    if shape == "unit-trace":
        t = draw(st.floats(0.0, 1.0))
        m[1, 1], m[2, 2], m[3, 3] = -m[0, 0], t, 1.0 - t
    return m


@settings(max_examples=300)
@given(matrix=_finite_matrices())
@example(matrix=UNCONVERGED)
@example(matrix=np.diag([1e308, 1e308, -1e308, -1e308]) + 0j)  # its trace overflows
@example(matrix=np.diag([1e308, -1e308, 0.5, 0.5]) + 0j)  # unit trace; (M + M^dagger) / 2 overflows
def test_validate_returns_a_state_or_names_the_broken_rule(matrix):
    try:
        rho = states.validate(matrix)
    except (errors.NotHermitian, errors.NotUnitTrace, errors.NotPositive):
        return
    if _clamped(matrix):  # renormalized from validate's eigensystem
        assert np.abs(rho - rho.conj().T).max() <= linalg.HERM_TOL
    else:
        assert (rho == rho.conj().T).all()
    assert abs(np.trace(rho) - 1.0) <= 1e-10
    assert np.linalg.eigvalsh(rho)[0] >= -states.EIG_CLAMP_TOL


def _hermitian_part(M):
    return (M + M.conj().T) / 2


def _clamped(M):
    """Whether validate clamps the accepted matrix M: its Hermitian part has a negative eigenvalue."""
    return linalg.hermitian_eigensystem(_hermitian_part(M)).eigenvalues[-1] < 0.0


_NUDGES = st.lists(st.floats(-0.35, 0.35), min_size=32, max_size=32)


@settings(max_examples=100)
@given(entries=_ENTRIES, nudges=_NUDGES)
def test_validate_returns_the_hermitian_part_it_checked(entries, nudges):
    """A state whose off-diagonal entries move off Hermiticity by less than HERM_TOL
    (|E - E^dagger| <= 0.99e-10) is read as its Hermitian part, so every route reads one matrix."""
    e = np.asarray(nudges).reshape(2, 4, 4) * linalg.HERM_TOL
    e = e[0] + 1j * e[1]
    np.fill_diagonal(e, 0.0)  # keeps the trace, whose check reads its imaginary part too
    M = _state(entries) + e
    try:
        rho = states.validate(M)
    except errors.NotPositive:  # the nudge moved a small eigenvalue below -EIG_CLAMP_TOL
        return
    if _clamped(M):
        return
    assert rho.tobytes() == _hermitian_part(M).tobytes()
    assert (rho == rho.conj().T).all()
    # an exactly Hermitian matrix comes back with its own bytes
    assert states.validate(rho).tobytes() == rho.tobytes()
    states.spectrum_report(rho)
    absolute.decide_aus3(rho)


def _pure(psi):
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj()) / np.vdot(psi, psi).real


# werner(0) is I/4; then a pure product state, an entangled pure (rank-1) state, and
# (|00><00| + |11><11|) / 2, whose eigenvalues (1/2, 1/2, 0, 0) put it on the boundary.
_EDGE_STATES = np.stack([
    families.werner(0.0),
    _pure(np.kron([1, 0], [1, 1])),
    _pure([0, np.cos(0.3), np.sin(0.3), 0]),
    np.diag([0.5, 0, 0, 0.5]).astype(complex),
])


def _assert_same_bits(core, wrapper):
    for field in dataclasses.fields(wrapper):
        a, b = getattr(core, field.name), getattr(wrapper, field.name)
        assert type(a) is type(b), field.name
        assert np.asarray(a).dtype == np.asarray(b).dtype, field.name
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1))
def test_cores_match_their_wrappers_bit_for_bit(seed):
    """The cores `analyze` calls on its shared inputs give the public functions' bits."""
    drawn = sampling.states_from_rng(sampling.SeededGenerator(seed).rng(), size=6)
    rhos = states.validate(np.concatenate([drawn, _EDGE_STATES]))
    for rho in [rhos, *rhos]:
        canonical = absolute.bell_diagonal_canonical(rho)
        form = states.to_bloch(rho)
        _assert_same_bits(states.spectrum_of(rho, canonical.weights), states.spectrum_report(rho))
        _assert_same_bits(absolute.verdict_of(rho, canonical.weights, form), absolute.decide_aus3(rho))
        aux = teleport.aux_of(linalg.singular_values_3x3(form.T))
        _assert_same_bits(aux, teleport.aux_criteria(rho))
        # the optima are plain numbers: a float for one state, an array for a stack
        kind = float if rho.ndim == 2 else np.ndarray
        optima = ((np.sqrt(aux.M), steering.f2_max(rho)), (linalg.frobenius_norm(form.T), steering.f3_max(rho)))
        for core, value in optima:
            assert type(value) is kind
            assert np.asarray(core).tobytes() == np.asarray(value).tobytes()
        axes = steering.MeasurementSetting(u=np.eye(3), v=np.eye(3))
        assert type(steering.steering_functional(rho, axes)) is kind
    for rho in rhos:
        canonical = absolute.bell_diagonal_canonical(rho)
        if absolute.decide_aus3(rho).in_aus3:
            with pytest.raises(errors.NotActivatable):
                witness.witness_of(rho, canonical)
            continue
        core, wrapper = witness.witness_of(rho, canonical), witness.activation_witness(rho)
        for name in ("matrix", "unitary"):
            assert getattr(core, name).tobytes() == getattr(wrapper, name).tobytes()
        _assert_same_bits(core.setting, wrapper.setting)
