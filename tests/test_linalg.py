import numpy as np
import pytest

from steerability import checks, errors, linalg, sampling


def random_hermitian(rng):
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return (z + z.conj().T) / 2


def test_scalar_matrix_eigenvalues():
    sys = linalg.hermitian_eigensystem(np.eye(4, dtype=complex) / 4)
    assert np.allclose(sys.eigenvalues, 0.25)


def test_diagonal_projector_eigenvalues():
    sys = linalg.hermitian_eigensystem(np.diag([1.0, 0, 0, 0]).astype(complex))
    assert np.allclose(sys.eigenvalues, [1, 0, 0, 0])


def test_werner_half_closed_form():
    # Explicit Werner p = 0.5 matrix; closed form {(1+3p)/4, (1-p)/4 x3}.
    p = 0.5
    psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    A = p * np.outer(psi, psi.conj()) + (1 - p) * np.eye(4) / 4
    expected = np.array([(1 + 3 * p) / 4, (1 - p) / 4, (1 - p) / 4, (1 - p) / 4])
    # Independent oracle: each closed-form value is a root of det(A - x I).
    for x in expected:
        assert abs(np.linalg.det(A - x * np.eye(4))) < 1e-12
    sys = linalg.hermitian_eigensystem(A)
    assert np.allclose(sys.eigenvalues, expected, atol=1e-12)


def test_rejects_non_hermitian():
    A = np.zeros((4, 4), dtype=complex)
    A[0, 1] = 1.0
    with pytest.raises(errors.NotHermitian):
        linalg.hermitian_eigensystem(A)


def test_rejects_wrong_shape():
    with pytest.raises(ValueError):
        linalg.hermitian_eigensystem(np.eye(3))


def test_random_hermitian_contracts():
    rng = np.random.default_rng(11)
    A = np.stack([random_hermitian(rng) for _ in range(1000)])
    sys = linalg.hermitian_eigensystem(A)
    w, V = sys.eigenvalues, sys.eigenvectors
    V_dagger = np.swapaxes(V.conj(), -2, -1)
    assert np.all(np.diff(w, axis=-1) <= 1e-14)  # descending
    assert np.max(np.abs(np.sum(w, axis=-1) - np.trace(A, axis1=-2, axis2=-1).real)) < 1e-10
    assert np.max(np.abs((V * w[:, None, :]) @ V_dagger - A)) < linalg.RECON_TOL
    assert np.max(np.abs(V_dagger @ V - np.eye(4))) < 1e-10
    # eigenvector equations hold one by one: A v_k = w_k v_k
    assert np.max(np.abs(A @ V - V * w[:, None, :])) < 1e-10


def test_singular_values_identity():
    assert np.allclose(linalg.singular_values_3x3(np.eye(3)), [1, 1, 1])


def test_singular_values_zero():
    assert np.allclose(linalg.singular_values_3x3(np.zeros((3, 3))), 0.0)


def test_singular_values_werner_correlation():
    # Werner correlation matrix is -p * identity; oracle via direct traces.
    p = 0.6
    psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    rho = p * np.outer(psi, psi.conj()) + (1 - p) * np.eye(4) / 4
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    Z = np.array([[1, 0], [0, -1]], dtype=complex)
    T = np.array(
        [[np.trace(rho @ np.kron(si, sj)).real for sj in (X, Y, Z)] for si in (X, Y, Z)]
    )
    assert np.allclose(T, -p * np.eye(3), atol=1e-12)
    assert np.allclose(linalg.singular_values_3x3(T), [p, p, p], atol=1e-12)


def test_singular_values_match_svd_and_frobenius():
    rng = np.random.default_rng(12)
    T = np.stack([rng.standard_normal((3, 3)) for _ in range(500)])
    s = linalg.singular_values_3x3(T)
    assert np.all(s >= 0) and np.all(np.diff(s, axis=-1) <= 1e-14)
    assert np.allclose(s, np.linalg.svd(T, compute_uv=False), atol=1e-10)
    assert np.all(np.abs(np.sum(s**2, axis=-1) - np.sum(T**2, axis=(-2, -1))) < 1e-10)
    # matches square roots of the eigenvalues of T^t T
    u = np.sort(np.linalg.eigvalsh(np.swapaxes(T, -2, -1) @ T), axis=-1)[:, ::-1]
    assert np.allclose(s, np.sqrt(np.clip(u, 0, None)), atol=1e-10)


def test_frobenius_norm_values():
    assert linalg.frobenius_norm(np.zeros((4, 4))) == 0.0
    assert linalg.frobenius_norm(np.eye(4)) == pytest.approx(2.0, abs=1e-15)
    assert linalg.frobenius_norm(np.eye(4) / 4 - np.eye(4) / 4) == 0.0


def test_square_rounds_like_python_float_pow():
    # the membership routes square through this helper, so a stack and its
    # states one at a time get the same bits
    x = np.random.default_rng(13).uniform(0.0, 2.0, 20_000)
    assert linalg.square(x).tolist() == [v**2 for v in x.tolist()]
    assert linalg.square(np.float64(0.3)) == 0.3**2
    assert isinstance(linalg.square(np.float64(0.3)), float)


def test_density_spectrum_invariant_under_conjugation():
    rhos = checks._draws(100, range(50))
    U = np.stack([sampling.haar_unitary(sampling.SeededGenerator(101, k)) for k in range(50)])
    w1 = linalg.hermitian_eigensystem(rhos).eigenvalues
    w2 = linalg.hermitian_eigensystem(U @ rhos @ np.swapaxes(U.conj(), -2, -1)).eigenvalues
    assert np.max(np.abs(w1 - w2)) < 1e-9
