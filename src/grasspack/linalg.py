"""Dense linear-algebra primitives with explicit numerical contracts.

Every factorization here reconstructs its input to high relative accuracy,
eigenvalues are always returned sorted nonincreasing, and inputs are
checked for finiteness at the boundary.  Downstream code must never depend
on eigenvector phases or signs, only on spectral projectors.
``GramMatrix`` owns the Hermitian invariant; ``hermitian_eig`` trusts its
caller to pass a Hermitian matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput, RankDeficient

__all__ = ["hermitian_eig", "qr_orthonormal", "symmetrize"]


def _require_finite(A: np.ndarray, name: str = "matrix") -> None:
    if not np.all(np.isfinite(A)):
        raise InvalidInput(f"{name} contains non-finite entries")


def symmetrize(A: np.ndarray) -> np.ndarray:
    """Return (A + A*) / 2, exactly Hermitian in floating point.

    Acts on the last two axes, so a (..., n, n) stack is symmetrized matrix
    by matrix.  The result is always C-contiguous, so reductions over it add
    in one order at every size and stack depth.
    """
    return np.add(A, np.swapaxes(A, -1, -2).conj(), order="C") / 2


def hermitian_eig(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition A = U diag(w) U* of a Hermitian matrix, as (w, U).

    A must be Hermitian; only its lower triangle is read.  Eigenvalues come
    back nonincreasing, paired column-for-column with an orthonormal
    eigenvector matrix.  A (..., n, n) stack is decomposed matrix by matrix,
    each exactly as it would be alone.
    """
    A = np.asarray(A)
    _require_finite(A)
    w, U = np.linalg.eigh(A)
    # LAPACK returns ascending order; flip to nonincreasing.
    return w[..., ::-1].copy(), U[..., ::-1].copy()


def qr_orthonormal(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the range of a full-column-rank d-by-K matrix.

    Returns Q with Q*Q = I_K and range(Q) = range(A).  The R factor is
    normalized to a positive diagonal, so for K = 1 the input direction is
    preserved (no sign flip).  Raises RankDeficient when the smallest
    singular value falls at or below 1e-12 times the largest, so callers
    can redraw.
    """
    if np.ndim(A) != 2:
        raise InvalidInput(f"expected a tall d-by-K matrix, got shape {np.shape(A)}")
    Q, ratio = _qr_stack(A)
    if ratio <= 1e-12:
        raise RankDeficient(f"column rank deficient: sigma_min/sigma_max = {ratio:.3e}")
    return Q


def _qr_stack(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`qr_orthonormal` of each member of a (..., d, K) stack, exactly as
    alone, with each member's sigma_min/sigma_max in place of the rank check."""
    A = np.asarray(A)
    _require_finite(A)
    if A.ndim < 2 or A.shape[-2] < A.shape[-1]:
        raise InvalidInput(f"expected tall d-by-K matrices, got shape {A.shape}")
    sigma = np.linalg.svd(A, compute_uv=False)
    Q, R = np.linalg.qr(A)
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    # Phase-fix so the implicit R has positive diagonal entries.
    mag = np.abs(diag)
    phase = np.divide(diag, mag, out=np.ones_like(diag), where=mag > 0)
    return Q * phase[..., None, :], sigma[..., -1] / np.maximum(sigma[..., 0], 1e-300)
