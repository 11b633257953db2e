"""Invariants over generated states rho = G G^dagger / Tr(G G^dagger)."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steerability import absolute, sampling, states, steering, teleport

_ENTRIES = st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32)


def _state(entries):
    g = np.asarray(entries).reshape(2, 4, 4)
    g = g[0] + 1j * g[1]
    gg = g @ g.conj().T
    trace = np.trace(gg).real
    assume(trace > 1e-6)
    return states.validate(gg / trace)


@settings(max_examples=40, deadline=None, database=None)
@given(entries=_ENTRIES, seed=st.integers(0, 2**32 - 1))
def test_global_unitary_invariance(entries, seed):
    rho = _state(entries)
    U = sampling.haar_unitary(sampling.SeededGenerator(seed))
    before = absolute.decide_aus3(rho)
    after = absolute.decide_aus3(states.validate(U @ rho @ U.conj().T))
    assert abs(before.purity - after.purity) < 1e-9
    assert abs(before.f3_global_max - after.f3_global_max) < 1e-9
    if abs(before.purity - (0.5 + absolute.BOUNDARY_TOL)) > 1e-12:
        assert before.in_aus3 == after.in_aus3


@settings(max_examples=40, deadline=None, database=None)
@given(entries=_ENTRIES)
def test_bloch_round_trip(entries):
    rho = _state(entries)
    assert np.max(np.abs(states.from_bloch(states.to_bloch(rho)) - rho)) < 1e-10


@settings(max_examples=40, deadline=None, database=None)
@given(entries=_ENTRIES)
def test_f3_bounds_n(entries):
    rho = _state(entries)
    f3 = steering.f3_max(rho).value
    n_value = teleport.teleportation_N(rho)
    assert f3 <= n_value + 1e-10
    assert n_value <= np.sqrt(3) * f3 + 1e-10
