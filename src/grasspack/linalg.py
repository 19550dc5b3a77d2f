"""Dense linear-algebra primitives with explicit numerical contracts.

Every factorization here reconstructs its input to high relative accuracy,
eigenvalues are always returned sorted nonincreasing, and inputs are
checked for finiteness at the boundary.  Downstream code must never depend
on eigenvector phases or signs, only on spectral projectors.
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
    by matrix.
    """
    return (A + np.swapaxes(A, -1, -2).conj()) / 2


def hermitian_eig(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition A = U diag(w) U* of a Hermitian matrix, as (w, U).

    The input is symmetrized as (A + A*)/2 first, since iterates of the
    alternating projection accumulate asymmetry at roundoff level.
    Eigenvalues come back nonincreasing, paired column-for-column with an
    orthonormal eigenvector matrix.  A (..., n, n) stack is decomposed
    matrix by matrix, each exactly as it would be alone.
    """
    A = np.asarray(A)
    _require_finite(A)
    w, U = np.linalg.eigh(symmetrize(A))
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
    A = np.asarray(A)
    _require_finite(A)
    if A.ndim != 2 or A.shape[0] < A.shape[1]:
        raise InvalidInput(f"expected a tall d-by-K matrix, got shape {A.shape}")
    sigma = np.linalg.svd(A, compute_uv=False)
    if sigma[-1] <= 1e-12 * sigma[0]:
        raise RankDeficient(
            f"column rank deficient: sigma_min/sigma_max = {sigma[-1] / max(sigma[0], 1e-300):.3e}"
        )
    Q, R = np.linalg.qr(A)
    diag = np.diagonal(R).copy()
    # Phase-fix so the implicit R has positive diagonal entries.
    safe = np.abs(diag) > 0
    phase = np.ones_like(diag)
    phase[safe] = diag[safe] / np.abs(diag[safe])
    return Q * phase
