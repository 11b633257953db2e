import numpy as np
import pytest

from steerability import checks, errors, sampling, states

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
        rhos = checks._draws(23, range(1000))
        form = states.to_bloch(rhos)
        lhs = np.trace(rhos @ rhos, axis1=-2, axis2=-1).real
        rhs = (1 + np.sum(form.a**2, -1) + np.sum(form.b**2, -1) + np.sum(form.T**2, (-2, -1))) / 4
        assert np.all(np.abs(lhs - rhs) < 1e-10)
        assert np.all(np.linalg.norm(form.a, axis=-1) <= 1 + 1e-9)
        assert np.all(np.linalg.norm(form.b, axis=-1) <= 1 + 1e-9)


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
        rep = states.spectrum_report(checks._draws(24, range(200)))
        assert np.all(np.abs(np.sum(rep.eigenvalues, axis=-1) - 1) < 1e-10)
        assert np.all((0.25 - 1e-12 <= rep.purity) & (rep.purity <= 1 + 1e-12))
        assert np.all(np.abs(2 * rep.pairwise_sum - (1 - rep.purity)) < 1e-10)


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
