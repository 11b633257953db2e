import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_settings
from steerability import absolute, errors, families, linalg, sampling, states, steering

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
SINGLET = np.outer([0, 1, -1, 0], [0, 1, -1, 0]) / 2.0


def random_pure3(rng):
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return psi / np.linalg.norm(psi)


def partial_trace_oracle(psi, keep):
    """Index-loop partial trace, independent of the library implementation."""
    t = np.asarray(psi).reshape(2, 2, 2)
    keep_axes = {"AB": (0, 1), "BC": (1, 2), "AC": (0, 2)}[keep]
    drop = ({0, 1, 2} - set(keep_axes)).pop()
    rho = np.zeros((4, 4), dtype=complex)
    for idx in np.ndindex(2, 2, 2):
        for jdx in np.ndindex(2, 2, 2):
            if idx[drop] != jdx[drop]:
                continue
            r = 2 * idx[keep_axes[0]] + idx[keep_axes[1]]
            c = 2 * jdx[keep_axes[0]] + jdx[keep_axes[1]]
            rho[r, c] += t[idx] * np.conj(t[jdx])
    return rho


class TestValidate:
    def test_accepts_maximally_mixed(self):
        assert np.allclose(states.validate(np.eye(4) / 4), np.eye(4) / 4)

    def test_accepts_pure_projector(self):
        rho = np.diag([1.0, 0, 0, 0]).astype(complex)
        assert np.allclose(states.validate(rho), rho)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(errors.NotPositive):
            states.validate(np.diag([1.5, -0.5, 0, 0]).astype(complex))

    def test_rejects_non_hermitian(self):
        M = np.eye(4, dtype=complex) / 4
        M[0, 1] = 1e-3
        with pytest.raises(errors.NotHermitian):
            states.validate(M)

    def test_rejects_wrong_trace(self):
        with pytest.raises(errors.NotUnitTrace):
            states.validate(np.eye(4, dtype=complex) / 2)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="expected a 4x4 matrix"):
            states.validate(np.eye(3) / 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_entry_is_no_state(self, bad):
        # one non-finite entry also breaks Hermiticity; the finiteness rule comes first
        M = np.eye(4, dtype=complex) / 4
        M[1, 2] = bad
        with pytest.raises(errors.NotPositive, match="^non-finite matrix entry, so it describes no state$"):
            states.validate(M)
        stack = np.stack([np.eye(4, dtype=complex) / 4] * 5)
        stack[2] = stack[4] = M
        with pytest.raises(errors.NotPositive, match=r"no state \(state 2 of the stack\)$"):
            states.validate(stack)

    def test_clamps_roundoff_negative(self):
        eps = 5e-11
        M = np.diag([0.5 + eps, 0.5, -eps, 0.0]).astype(complex)
        rho = states.validate(M)
        w = np.linalg.eigvalsh(rho)
        assert w.min() >= 0.0
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)


class TestBloch:
    def test_maximally_mixed_is_origin(self):
        form = states.to_bloch(np.eye(4) / 4)
        assert np.allclose(form.a, 0) and np.allclose(form.b, 0)
        assert np.allclose(form.T, 0)

    def test_singlet_correlations(self):
        form = states.to_bloch(SINGLET)
        assert np.allclose(form.a, 0, atol=1e-12)
        assert np.allclose(form.b, 0, atol=1e-12)
        assert np.allclose(form.T, -np.eye(3), atol=1e-12)

    def test_werner_correlations(self):
        p = 0.37
        rho = p * SINGLET + (1 - p) * np.eye(4) / 4
        assert np.allclose(states.to_bloch(rho).T, -p * np.eye(3), atol=1e-12)

    def test_matches_direct_traces(self):
        paulis = (X, Y, Z)
        I2 = np.eye(2)
        for k in range(50):
            rho = sampling.random_state(sampling.SeededGenerator(21, k))
            form = states.to_bloch(rho)
            for i, si in enumerate(paulis):
                assert form.a[i] == pytest.approx(
                    np.trace(rho @ np.kron(si, I2)).real, abs=1e-12
                )
                assert form.b[i] == pytest.approx(
                    np.trace(rho @ np.kron(I2, si)).real, abs=1e-12
                )
                for j, sj in enumerate(paulis):
                    assert form.T[i, j] == pytest.approx(
                        np.trace(rho @ np.kron(si, sj)).real, abs=1e-12
                    )

    def test_from_bloch_origin(self):
        form = states.BlochForm(a=np.zeros(3), b=np.zeros(3), T=np.zeros((3, 3)))
        assert np.allclose(states.from_bloch(form), np.eye(4) / 4)

    def test_from_bloch_singlet(self):
        form = states.BlochForm(a=np.zeros(3), b=np.zeros(3), T=-np.eye(3))
        assert np.allclose(states.from_bloch(form), SINGLET, atol=1e-12)

    def test_from_bloch_rejects_overflowing_data(self):
        big = np.diag([0.0, 0.0, 1e308])
        form = states.BlochForm(a=big[2], b=big[2], T=big)
        with pytest.raises(errors.NotPositive):
            states.from_bloch(form)

    def test_from_bloch_rejects_long_vector(self):
        form = states.BlochForm(a=np.array([0, 0, 2.0]), b=np.zeros(3), T=np.zeros((3, 3)))
        with pytest.raises(errors.NotPositive):
            states.from_bloch(form)

    def test_roundtrip_random_states(self):
        for k in range(1000):
            rho = sampling.random_state(sampling.SeededGenerator(22, k))
            back = states.from_bloch(states.to_bloch(rho))
            assert np.max(np.abs(back - rho)) < 1e-10

    def test_purity_identity(self):
        # Tr rho^2 = (1 + |a|^2 + |b|^2 + ||T||_F^2) / 4
        rhos = sampling.random_state([sampling.SeededGenerator(23, k) for k in range(1000)])
        form = states.to_bloch(rhos)
        lhs = np.trace(rhos @ rhos, axis1=-2, axis2=-1).real
        rhs = (1 + np.sum(form.a**2, -1) + np.sum(form.b**2, -1) + np.sum(form.T**2, (-2, -1))) / 4
        assert np.all(np.abs(lhs - rhs) < 1e-10)
        assert np.all(np.linalg.norm(form.a, axis=-1) <= 1 + 1e-9)
        assert np.all(np.linalg.norm(form.b, axis=-1) <= 1 + 1e-9)


# Reference tables s_i (x) I, I (x) s_j and s_i (x) s_j, one per Bloch block: the functions
# that read slices of PAULI_2Q must give the bits of these contractions.
_I2 = np.eye(2, dtype=complex)
REF_A = np.stack([np.kron(s, _I2) for s in states.PAULI_1Q])
REF_B = np.stack([np.kron(_I2, s) for s in states.PAULI_1Q])
REF_AB = np.stack([[np.kron(si, sj) for sj in states.PAULI_1Q] for si in states.PAULI_1Q])
CLAMPED = np.diag([0.5 + 5e-11, 0.5, -5e-11, 0.0]).astype(complex)  # validate clamps it


def reference_bloch(rho):
    a = np.real(np.einsum("iab,...ba->...i", REF_A, rho))
    b = np.real(np.einsum("iab,...ba->...i", REF_B, rho))
    T = np.real(np.einsum("ijab,...ba->...ij", REF_AB, rho))
    return a, b, T


def reference_from_bloch(a, b, T):
    M = np.eye(4, dtype=complex) + np.einsum("i,iab->ab", a, REF_A)
    M = M + np.einsum("j,jab->ab", b, REF_B) + np.einsum("ij,ijab->ab", T, REF_AB)
    return states.validate(M / 4.0)


@st.composite
def state_stacks(draw):
    """Hilbert-Schmidt draws, Werner and Gisin states over drawn weights, and one
    state that validate clamps, as one (n, 4, 4) stack."""
    seed, size = draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 30))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10)))
    theta = draw(st.floats(1e-3, np.pi / 2 - 1e-3))
    draws = sampling.random_state([sampling.SeededGenerator(seed, k) for k in range(size)])
    family = [families.werner(weights), families.gisin(weights, theta)]
    return np.concatenate([draws, *family, states.validate(CLAMPED)[None]])


class TestPauliTable:
    """to_bloch, from_bloch and steering_operator read PAULI_2Q and give the bits of the
    reference tables."""

    @settings(max_examples=40)
    @given(rhos=state_stacks())
    def test_bloch_form_equals_the_three_table_contraction(self, rhos):
        half = rhos[: len(rhos) // 2 * 2].reshape(2, -1, 4, 4)  # two leading axes
        singles = [*rhos[::4], rhos[-1]]  # the last is the clamped state
        for stack in (rhos, half, *singles):
            form = states.to_bloch(stack)
            got = (form.a.tobytes(), form.b.tobytes(), form.T.tobytes())
            assert got == tuple(x.tobytes() for x in reference_bloch(stack))
        for rho in singles:
            form = states.to_bloch(rho)
            expected = reference_from_bloch(*reference_bloch(rho))
            assert states.from_bloch(form).tobytes() == expected.tobytes()

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 20))
    def test_steering_operator_equals_the_reference(self, seed, count):
        for _, mu in random_settings(np.random.default_rng(seed), count).values():
            for setting in (mu, steering.MeasurementSetting(u=mu.u[0], v=mu.v[0])):
                expected = np.einsum("...ij,...ik,jkab->...ab", setting.u, setting.v, REF_AB)
                got = steering.steering_operator(setting)
                assert got.tobytes() == (expected / np.sqrt(setting.n)).tobytes()


class TestSpectrumReport:
    def test_maximally_mixed(self):
        rep = states.spectrum_report(np.eye(4) / 4)
        assert np.allclose(rep.eigenvalues, 0.25)
        assert rep.purity == pytest.approx(0.25, abs=1e-14)

    def test_gisin_two_thirds_closed_form(self):
        # lam |psi_theta><psi_theta| + (1-lam)(|00><00|+|11><11|)/2 has
        # spectrum {lam, (1-lam)/2, (1-lam)/2, 0} for any theta.
        lam = 2 / 3
        for theta in (0.4, np.pi / 4):
            psi = np.array([0, np.sin(theta), np.cos(theta), 0], dtype=complex)
            mix = np.zeros((4, 4), dtype=complex)
            mix[0, 0] = mix[3, 3] = 0.5
            rho = lam * np.outer(psi, psi.conj()) + (1 - lam) * mix
            expected = np.array([lam, (1 - lam) / 2, (1 - lam) / 2, 0.0])
            for x in expected:  # characteristic-polynomial oracle
                assert abs(np.linalg.det(rho - x * np.eye(4))) < 1e-12
            rep = states.spectrum_report(rho)
            assert np.allclose(rep.eigenvalues, expected, atol=1e-12)
            assert rep.purity == pytest.approx(0.5, abs=1e-12)

    def test_pure_state_purity(self):
        rep = states.spectrum_report(SINGLET)
        assert rep.purity == pytest.approx(1.0, abs=1e-12)

    def test_report_identities(self):
        rhos = sampling.random_state([sampling.SeededGenerator(24, k) for k in range(200)])
        rep = states.spectrum_report(rhos)
        assert np.all(np.abs(np.sum(rep.eigenvalues, axis=-1) - 1) < 1e-10)
        assert np.all((0.25 - 1e-12 <= rep.purity) & (rep.purity <= 1 + 1e-12))
        # 3 sum x^2 - 2 sum_{i<j} x_i x_j = 4 purity - 1 needs 2 sum_{i<j} x_i x_j = 1 - purity
        lhs = absolute.decide_aus3(rhos).spectrum_lhs
        assert np.all(np.abs((lhs + 1) / 4 - rep.purity) < 1e-10)

    def test_spectrum_of_rejects_another_states_eigenvalues(self):
        singlet = linalg.hermitian_eigensystem(SINGLET).eigenvalues
        message = r"^spectral purity \S+ vs Frobenius purity 0.25$"
        with pytest.raises(errors.InternalInconsistency, match=message):
            states.spectrum_of(np.eye(4) / 4, singlet)
        stack = np.stack([SINGLET] * 3)
        stack[1] = np.eye(4) / 4
        with pytest.raises(errors.InternalInconsistency, match=r" \(state 1 of the stack\)$"):
            states.spectrum_of(stack, np.stack([singlet] * 3))


class TestThreeQubit:
    def test_ghz_reduction(self):
        ghz = np.zeros(8, dtype=complex)
        ghz[0] = ghz[7] = 1 / np.sqrt(2)
        rho = states.reduce_to_pair(ghz, "AB")
        assert np.allclose(rho, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)

    def test_product_reduction(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1.0
        rho = states.reduce_to_pair(psi, "AB")
        assert np.allclose(rho, np.diag([1.0, 0, 0, 0]), atol=1e-14)

    def test_w_state_reduction_spectrum(self):
        w = np.zeros(8, dtype=complex)
        w[1] = w[2] = w[4] = 1 / np.sqrt(3)
        oracle = partial_trace_oracle(w, "AB")
        rho = states.reduce_to_pair(w, "AB")
        assert np.allclose(rho, oracle, atol=1e-12)
        eigs = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert np.allclose(eigs, [2 / 3, 1 / 3, 0, 0], atol=1e-12)

    def test_matches_loop_oracle_all_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            psi = random_pure3(rng)
            for pair in ("AB", "BC", "AC"):
                assert np.allclose(
                    states.reduce_to_pair(psi, pair),
                    partial_trace_oracle(psi, pair),
                    atol=1e-12,
                )

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            states.reduce_to_pair(np.ones(8), "AB")
        with pytest.raises(ValueError):
            states.reduce_to_pair(np.zeros(8), "AB")

    def test_rejects_wrong_amplitude_count(self):
        with pytest.raises(ValueError, match="^expected 8 amplitudes, got shape \\(4,\\)$"):
            states.reduce_to_pair(np.ones(4) / 2, "AB")

    def test_rejects_bad_qubit(self):
        with pytest.raises(ValueError, match="^which must be 'A', 'B' or 'C', got 'D'$"):
            states.single_qubit_bloch_norm(families.GHZ_STATE, "D")

    def test_rejects_bad_pair(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1.0
        with pytest.raises(ValueError):
            states.reduce_to_pair(psi, "CA")

    def test_bloch_norms_named_states(self):
        ghz = np.zeros(8, dtype=complex)
        ghz[0] = ghz[7] = 1 / np.sqrt(2)
        assert states.single_qubit_bloch_norm(ghz, "C") == pytest.approx(0.0, abs=1e-12)
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1.0
        assert states.single_qubit_bloch_norm(psi, "C") == pytest.approx(1.0, abs=1e-12)
        w = np.zeros(8, dtype=complex)
        w[1] = w[2] = w[4] = 1 / np.sqrt(3)
        assert states.single_qubit_bloch_norm(w, "C") == pytest.approx(1 / 3, abs=1e-12)

    def test_pair_spectrum_from_lone_qubit(self):
        # sorted eigenvalues of the kept pair are {(1+l)/2, (1-l)/2, 0, 0}
        rng = np.random.default_rng(32)
        for _ in range(500):
            psi = random_pure3(rng)
            ell = states.single_qubit_bloch_norm(psi, "C")
            eigs = np.sort(np.linalg.eigvalsh(states.reduce_to_pair(psi, "AB")))[::-1]
            expected = np.array([(1 + ell) / 2, (1 - ell) / 2, 0.0, 0.0])
            assert np.max(np.abs(eigs - expected)) < 1e-9
