import numpy as np
import pytest

from grasspack.errors import InvalidInput, RankDeficient
from grasspack.geometry import Field
from grasspack.linalg import _frobenius_sq, _qr_stack, hermitian_eig, qr_orthonormal, symmetrize

from tests.oracles import random_hermitian


def test_hermitian_eig_identity():
    w, U = hermitian_eig(np.eye(2))
    assert np.allclose(w, [1.0, 1.0])
    assert np.allclose(U.conj().T @ U, np.eye(2), atol=1e-14)


def test_hermitian_eig_diagonal():
    w, U = hermitian_eig(np.diag([3.0, 1.0]))
    assert np.allclose(w, [3.0, 1.0])
    # compare spectral projectors, never eigenvector signs
    recon = (U * w) @ U.conj().T
    assert np.allclose(recon, np.diag([3.0, 1.0]), atol=1e-14)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_hermitian_eig_reconstruction(field):
    rng = np.random.default_rng(1)
    for _ in range(10):
        A = random_hermitian(6, field, rng)
        w, U = hermitian_eig(A)
        recon = (U * w) @ U.conj().T
        assert np.linalg.norm(A - recon) <= 1e-10 * max(1.0, np.linalg.norm(A))
        assert np.all(np.diff(w) <= 1e-12)


def test_hermitian_eig_rejects_nonfinite():
    A = np.eye(3)
    A[0, 0] = np.nan
    with pytest.raises(InvalidInput):
        hermitian_eig(A)


def test_qr_orthonormal_passthrough_range():
    rng = np.random.default_rng(4)
    A = qr_orthonormal(rng.standard_normal((5, 3)))
    Q = qr_orthonormal(A)
    assert np.allclose(Q.conj().T @ Q, np.eye(3), atol=1e-12)
    # same range: projectors agree
    assert np.allclose(Q @ Q.conj().T, A @ A.conj().T, atol=1e-12)


def test_qr_orthonormal_scaled_identity_columns():
    A = 2.0 * np.eye(4)[:, :2]
    Q = qr_orthonormal(A)
    assert np.allclose(Q, np.eye(4)[:, :2], atol=1e-14)


def test_qr_orthonormal_random():
    rng = np.random.default_rng(5)
    Q = qr_orthonormal(rng.standard_normal((5, 2)))
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(2)) < 1e-12


def test_qr_orthonormal_preserves_single_column_direction():
    v = np.array([[0.6], [-0.8], [0.0]])
    Q = qr_orthonormal(3.0 * v)
    assert np.allclose(Q, v, atol=1e-14)


def test_qr_orthonormal_rank_deficient():
    A = np.ones((4, 2))
    with pytest.raises(RankDeficient):
        qr_orthonormal(A)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_qr_stack_matches_qr_orthonormal_and_flags_rank_deficient_member(field):
    rng = np.random.default_rng(6)
    A = rng.standard_normal((3, 4, 5, 2))
    if field is Field.COMPLEX:
        A = A + 1j * rng.standard_normal((3, 4, 5, 2))
    A[1, 2, :, 1] = 3.0 * A[1, 2, :, 0]
    Q, ratio = _qr_stack(A)
    assert Q.shape == A.shape and ratio.shape == (3, 4)
    assert ratio[1, 2] <= 1e-12
    with pytest.raises(RankDeficient):
        qr_orthonormal(A[1, 2])
    for idx in np.ndindex(3, 4):
        if idx != (1, 2):
            assert ratio[idx] > 1e-12
            assert np.array_equal(Q[idx], qr_orthonormal(A[idx]))


def _random_stack(T, n, field, rng):
    A = rng.standard_normal((T, n, n))
    if field is Field.COMPLEX:
        A = A + 1j * rng.standard_normal((T, n, n))
    return A


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_frobenius_sq_is_stack_invariant(field):
    # The solver's gaps and the warm certificate read these sums, so a trial
    # must get the same bits in any stack; a reduction that lays a stack out
    # differently from one matrix (as an einsum over two axes does at 96 rows)
    # would break stacked-equals-solo.
    rng = np.random.default_rng(7)
    for n in (10, 19, 48, 96, 192):
        for T in (1, 3, 6):
            A = _random_stack(T, n, field, rng)
            sq = _frobenius_sq(A)
            assert sq.shape == (T,)
            for t in range(T):
                assert _frobenius_sq(A[t]).shape == ()
                assert sq[t].tobytes() == _frobenius_sq(A[t]).tobytes()
            ref = np.linalg.norm(A, axis=(-2, -1))
            assert np.all(np.abs(np.sqrt(sq) - ref) <= 1e-15 * ref)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_symmetrize_is_the_halved_sum_bit_for_bit(field):
    rng = np.random.default_rng(8)
    for n in (1, 10, 48, 96, 192):
        for T in (1, 3):
            A = _random_stack(T, n, field, rng)
            for X in (A, np.swapaxes(A, -1, -2), A[0]):  # a transposed view too
                out = symmetrize(X)
                ref = np.ascontiguousarray((X + np.swapaxes(X, -1, -2).conj()) / 2)
                assert out.flags.c_contiguous
                assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))
