"""Matrix nearness solvers: structural and spectral constraint projections.

The structural set fixes identity diagonal blocks and caps each off-diagonal
block magnitude at mu, where "magnitude" depends on the metric (Frobenius
norm, spectral norm, absolute determinant, or raw signed entry).  The
spectral set contains positive-semidefinite matrices of rank at most d and
fixed trace; its projection keeps the top d eigenpairs and shifts their
eigenvalues by the closed-form projection onto a scaled simplex.
Alternating between the two is the solver's engine.

The public projections take and return ``GramMatrix`` objects.  Their
kernels (``_split_blocks``, ``_cap_blocks``, ``_spectral_stack``) work on
plain arrays of shape (KN, KN) or (T, KN, KN); a stack is projected matrix
by matrix, every matrix bit-identically to how it would be projected alone,
which lets the solver run T trials as one stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalFailure
from .geometry import (
    Field,
    GramMatrix,
    Metric,
    as_blocks,
    cosine_magnitudes,
    upper_block_indices,
)
from .linalg import hermitian_eig, symmetrize

__all__ = [
    "StructuralSetSpec",
    "SpectralSetSpec",
    "project_structural",
    "project_spectral",
    "solve_fs_block",
]

# Projected block magnitudes are pulled this far inside the cap, relative to
# mu, so a second projection sees a feasible block and leaves it untouched.
_FEAS_SHRINK = 1e-13

_MU_RANGE = {
    Metric.CHORDAL: lambda mu, K: 0.0 <= mu <= math.sqrt(K) + 1e-12,
    Metric.SPECTRAL: lambda mu, K: 0.0 <= mu <= 1.0 + 1e-12,
    Metric.FUBINI_STUDY: lambda mu, K: 0.0 <= mu <= 1.0 + 1e-12,
    Metric.SPHERE: lambda mu, K: -1.0 <= mu <= 1.0 + 1e-12,
}


@dataclass(frozen=True)
class StructuralSetSpec:
    """Parameters of the structural constraint set for one metric."""

    metric: Metric
    mu: float
    K: int
    N: int

    def __post_init__(self):
        if self.metric not in _MU_RANGE:
            raise InvalidInput(f"no structural projection for metric {self.metric}")
        if not _MU_RANGE[self.metric](self.mu, self.K):
            raise InvalidInput(f"mu={self.mu} outside the valid range for {self.metric.value}")
        if self.K < 1 or self.N < 2:
            raise InvalidInput(f"invalid block structure K={self.K}, N={self.N}")
        if self.metric is Metric.SPHERE and self.K != 1:
            raise InvalidInput("sphere constraint set requires K = 1")


@dataclass(frozen=True)
class SpectralSetSpec:
    """Rank cap and trace target of the spectral constraint set."""

    d: int
    trace_target: float

    def __post_init__(self):
        if self.d < 1:
            raise InvalidInput(f"rank cap must be >= 1, got {self.d}")
        if not self.trace_target > 0:
            raise InvalidInput(f"trace target must be positive, got {self.trace_target}")


# Multiplier scan for solve_fs_block, as fractions of its upper end min(c)^2 / 4.
_SCAN = np.geomspace(1e-40, 1.0, 160)


def _plus_root(c, t):
    """Larger root y of y^2 - c y + t = 0 (continuous with y = c at t = 0)."""
    return 0.5 * (c + np.sqrt(np.maximum(c * c - 4.0 * t, 0.0)))


def _refine_roots(c, branch, target, lo, hi, f_lo, f_hi):
    """Safeguarded Newton-bisection on every bracket [lo, hi] at once.

    Row i of ``c`` holds the singular values of problem i.  Branch -1 puts
    every coordinate on its larger root y_plus; branch j >= 0 puts coordinate
    j on its smaller root t / y_plus (Vieta, avoiding cancellation).  The
    residual is the log-product of the coordinates minus ``target``; it has
    the values ``f_lo`` and ``f_hi``, of opposite signs, at the bracket ends.

    Each problem takes the Newton step in t when it lands strictly inside its
    bracket and bisects otherwise; a step shorter than half the stop
    tolerance 1e-12 * t is lengthened to it, so a one-sided Newton approach
    still closes the bracket.  A problem stops when its bracket is within the
    tolerance or its residual is exactly zero, and returns the bracket end
    with the smaller residual.
    """
    small = (branch >= 0).astype(float)
    weight = np.ones_like(c)
    on_small = np.nonzero(branch >= 0)[0]
    weight[on_small, branch[on_small]] = -1.0
    t = lo - f_lo * (hi - lo) / (f_hi - f_lo)  # false position: inside when signs differ
    t = np.where((t > lo) & (t < hi), t, 0.5 * (lo + hi))
    t = np.where(f_lo == 0.0, lo, np.where(f_hi == 0.0, hi, t))
    done = (f_lo == 0.0) | (f_hi == 0.0)
    rising = f_lo < 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(100):
            root = np.sqrt(np.maximum(c * c - 4.0 * t[:, None], 0.0))
            y_plus = 0.5 * (c + root)
            f = np.sum(weight * np.log(y_plus), axis=1) + small * np.log(t) - target
            # d/dt log y_plus = -1 / (root * y_plus): infinite at the branch
            # point c^2 = 4t, where the Newton step is rejected for bisection.
            df = small / t - np.sum(weight / (root * y_plus), axis=1)
            below = (f < 0.0) == rising  # the root lies above t
            lo, f_lo = np.where(below, t, lo), np.where(below, f, f_lo)
            hi, f_hi = np.where(below, hi, t), np.where(below, f_hi, f)
            tol = 1e-280 + 1e-12 * t
            done |= (f == 0.0) | (hi - lo <= tol)
            if done.all():
                break
            step = -f / df
            step = np.where(np.abs(step) < 0.5 * tol, np.copysign(0.5 * tol, step), step)
            t_new = t + step
            newton = (t_new > lo) & (t_new < hi)
            t = np.where(done, t, np.where(newton, t_new, 0.5 * (lo + hi)))
    return np.where(np.abs(f_lo) <= np.abs(f_hi), lo, hi)


def solve_fs_block(c: np.ndarray, mu: float) -> np.ndarray:
    """Nearest log-domain singular values under a determinant cap, batched.

    ``c`` is one block's nonnegative singular values, shape (K,), or one
    block per row, shape (P, K); the result has the same shape.  Each row
    minimizes 0.5 * ||exp(x) - c||^2 subject to sum(x) <= log(mu), and every
    row must have prod(c) > mu, so the constraint is active at the solution.

    Stationary points satisfy exp(x_k) * (exp(x_k) - c_k) = -t for a single
    multiplier t in [0, min(c)^2 / 4]; for each t and coordinate this
    quadratic has two roots, and a second-order argument shows at most one
    coordinate may sit on the smaller root.  A 160-point geometric scan of t
    brackets the active-constraint root on the all-larger-roots branch
    (monotone in t) and every sign change on each one-smaller-root branch,
    for all rows at once.  All brackets are then refined together by a
    safeguarded Newton-bisection in t, using
    d/dt log y_plus = -1 / (sqrt(c^2 - 4t) * y_plus).  Each row keeps its
    least-cost candidate, is moved exactly onto the constraint through its
    largest coordinate, and must meet stationarity to 1e-8; a row with no
    candidate or a larger residual raises NumericalFailure.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim not in (1, 2) or c.size < 1:
        raise InvalidInput("c must be a vector of singular values or a (P, K) stack of them")
    if not 0.0 < mu <= 1.0:
        raise InvalidInput(f"mu must lie in (0, 1], got {mu}")
    cs = np.maximum(c.reshape(-1, c.shape[-1]), 1e-12)
    target = math.log(mu) - 1e-12
    if np.any(np.sum(np.log(cs), axis=1) <= target):
        raise InvalidInput("prod(c) <= mu: block is already feasible, nothing to solve")
    P, K = cs.shape
    if K == 1:
        return np.full(c.shape, target)

    t_max = np.min(cs * cs, axis=1) / 4.0
    grid = np.zeros((P, 161))
    grid[:, 1:] = t_max[:, None] * _SCAN
    log_plus = np.log(_plus_root(cs[:, None, :], grid[:, :, None]))
    total = np.sum(log_plus, axis=2)
    # All-larger-roots branch: the residual falls from sum(log c) - target > 0
    # at t = 0, so a root exists when it is <= 0 at t_max.
    excess = total - target
    p_all = np.nonzero(excess[:, -1] <= 0.0)[0]
    i_all = np.argmax(excess[p_all] <= 0.0, axis=1)
    # One-smaller-root branches: sign changes over the positive grid points.
    gaps = (np.log(grid[:, 1:]) + total[:, 1:] - target)[:, :, None] - 2.0 * log_plus[:, 1:]
    gaps = gaps.transpose(0, 2, 1)  # (P, K, 160)
    p_sm, j_sm, i_sm = np.nonzero(np.diff(np.sign(gaps), axis=2) != 0)
    p_end, j_end = np.nonzero(np.abs(gaps[:, :, -1]) < 1e-12)

    row = np.concatenate([p_all, p_sm])
    branch = np.concatenate([np.full(len(p_all), -1), j_sm])
    lo = np.concatenate([grid[p_all, i_all - 1], grid[p_sm, i_sm + 1]])
    hi = np.concatenate([grid[p_all, i_all], grid[p_sm, i_sm + 2]])
    f_lo = np.concatenate([excess[p_all, i_all - 1], gaps[p_sm, j_sm, i_sm]])
    f_hi = np.concatenate([excess[p_all, i_all], gaps[p_sm, j_sm, i_sm + 1]])
    t = _refine_roots(cs[row], branch, target, lo, hi, f_lo, f_hi)

    row = np.concatenate([row, p_end])
    branch = np.concatenate([branch, j_end])
    t = np.concatenate([t, t_max[p_end]])

    has = np.zeros(P, dtype=bool)
    has[row] = True
    if not has.all():
        bad = int(np.argmin(has))
        raise NumericalFailure(f"no stationary point found for c={cs[bad].tolist()}, mu={mu}")
    y = _plus_root(cs[row], t[:, None])
    small = np.nonzero(branch >= 0)[0]
    y[small, branch[small]] = t[small] / _plus_root(cs[row[small], branch[small]], t[small])
    cost = 0.5 * np.sum((y - cs[row]) ** 2, axis=1)
    # Stable sort: a cost tie goes to the earlier candidate, the all-larger
    # branch first, then the smaller root on the lowest coordinate.
    by_cost = np.lexsort((cost, row))
    y = y[by_cost[np.searchsorted(row[by_cost], np.arange(P))]]

    # Land exactly on the constraint by absorbing root-finding residue into
    # the largest coordinate, where the log is least sensitive.
    rows = np.arange(P)
    k_big = np.argmax(y, axis=1)
    log_rest = np.log(y)
    log_rest[rows, k_big] = 0.0
    y[rows, k_big] = np.exp(target - np.sum(log_rest, axis=1))
    comp = y * (y - cs)
    residual = np.max(np.abs(comp - np.mean(comp, axis=1, keepdims=True)), axis=1)
    if np.any(residual > 1e-8):
        bad = int(np.argmax(residual))
        raise NumericalFailure(
            f"stationarity residual {residual[bad]:.3e} above 1e-8 "
            f"for c={cs[bad].tolist()}, mu={mu}"
        )
    return np.log(y).reshape(c.shape)


def _split_blocks(A: np.ndarray, metric: Metric, K: int, N: int) -> tuple:
    """Upper off-diagonal blocks of a Hermitian matrix or (..., KN, KN) stack,
    with the magnitudes and SVD the structural projection works from.

    Returns ``(blocks, mags, U, s, Vh)``: blocks of shape (..., P, K, K) for
    the P pairs m < n, their magnitudes (..., P), and their SVD, which is
    None for the chordal and sphere metrics.  The input must be exactly
    Hermitian, so the lower blocks carry nothing the upper ones do not.
    """
    iu, ju = upper_block_indices(N)
    blocks = as_blocks(A, K, N)[..., iu, ju, :, :]
    if metric is Metric.CHORDAL:
        return blocks, np.sqrt(np.sum(np.abs(blocks) ** 2, axis=(-2, -1))), None, None, None
    if metric is Metric.SPHERE:
        if np.iscomplexobj(blocks):
            raise InvalidInput("sphere constraint set is defined for real matrices")
        return blocks, blocks[..., 0, 0], None, None, None
    U, s, Vh = np.linalg.svd(blocks)
    return blocks, cosine_magnitudes(s, metric), U, s, Vh


def _cap_blocks(A: np.ndarray, spec: StructuralSetSpec, parts: tuple) -> np.ndarray:
    """Structural projection of A from its :func:`_split_blocks` parts.

    Returns a new matrix: A's upper blocks capped at mu, their conjugate
    transposes below the diagonal, and identity diagonal blocks.  Blocks
    already within the cap pass through bit-exactly.
    """
    blocks, mags, U, s, Vh = parts
    mu = spec.mu
    over = mags > mu
    if spec.metric is Metric.CHORDAL:
        scale = np.ones_like(mags)
        scale[over] = (mu / mags[over]) * (1.0 - _FEAS_SHRINK)
        out = blocks * scale[..., None, None]
    elif spec.metric is Metric.SPHERE:
        out = np.clip(blocks, -1.0, mu)
    else:
        out = blocks.copy()
        if np.any(over):
            s_over = s[over]
            if spec.metric is Metric.SPECTRAL:
                s_new = np.minimum(s_over, mu * (1.0 - _FEAS_SHRINK))
            elif mu == 0.0:
                # The feasible Fubini-Study set is the rank-deficient blocks;
                # the nearest one zeroes the smallest singular value.
                s_new = s_over.copy()
                s_new[:, -1] = 0.0
            else:
                s_new = np.exp(solve_fs_block(s_over, mu))
            out[over] = np.einsum("pik,pk,pkj->pij", U[over], s_new, Vh[over])

    H = np.empty_like(A)
    B = as_blocks(H, spec.K, spec.N)
    iu, ju = upper_block_indices(spec.N)
    B[..., iu, ju, :, :] = out
    B[..., ju, iu, :, :] = np.swapaxes(out, -1, -2).conj()
    idx = np.arange(spec.N)
    B[..., idx, idx, :, :] = np.eye(spec.K, dtype=H.dtype)
    return H


def project_structural(G: GramMatrix, spec: StructuralSetSpec) -> GramMatrix:
    """Nearest matrix with identity diagonal blocks and capped off-diagonal
    block magnitudes.

    Acts blockwise: blocks already within the cap pass through bit-exactly,
    so the projection is idempotent.  Hermitian symmetry is restored by
    mirroring each projected upper block onto its conjugate transpose.
    """
    if (G.K, G.N) != (spec.K, spec.N):
        raise InvalidInput(
            f"gram has block structure K={G.K}, N={G.N}; spec expects K={spec.K}, N={spec.N}"
        )
    A = symmetrize(G.entries)
    H = _cap_blocks(A, spec, _split_blocks(A, spec.metric, spec.K, spec.N))
    return GramMatrix(field=G.field, K=spec.K, N=spec.N, entries=H)


def _water_fill(lam: np.ndarray, target: float) -> np.ndarray:
    """Shifted eigenvalues max(lam - gamma, 0) that sum to ``target``.

    Each row of ``lam`` is nonincreasing.  This is the Euclidean projection
    onto the simplex scaled to ``target`` (Duchi, Shalev-Shwartz, Singer &
    Chandra, ICML 2008): with prefix sums S_j, gamma = (S_rho - target) / rho
    for the largest rho with lam_rho > (S_rho - target) / rho.  gamma may be
    negative, which raises every eigenvalue.
    """
    r = lam.shape[-1]
    shifts = (np.cumsum(lam, axis=-1) - target) / np.arange(1, r + 1)
    above = lam > shifts
    above[..., 0] = True  # lam_1 - shift_1 = target > 0, lost only to rounding
    rho = r - 1 - np.argmax(above[..., ::-1], axis=-1)
    gamma = np.take_along_axis(shifts, rho[..., None], axis=-1)
    return np.maximum(lam - gamma, 0.0)


def _spectral_stack(H: np.ndarray, spec: SpectralSetSpec) -> np.ndarray:
    """Spectral projection of a Hermitian matrix or (..., n, n) stack, as
    plain arrays; each matrix is projected exactly as it would be alone."""
    lam, U = hermitian_eig(H)
    r = min(spec.d, H.shape[-1])
    V = U[..., :r]
    w = _water_fill(lam[..., :r], spec.trace_target)
    return symmetrize((V * w[..., None, :]) @ np.swapaxes(V, -1, -2).conj())


def project_spectral(H, spec: SpectralSetSpec) -> GramMatrix:
    """Nearest positive-semidefinite matrix with rank <= d and fixed trace.

    With eigenvalues sorted nonincreasing, the projection keeps the top d
    eigenvectors and shifts their eigenvalues by a scalar gamma, flooring at
    zero, where gamma solves sum((lambda_j - gamma)_+) = trace_target.  The
    shift is the closed-form simplex projection of :func:`_water_fill`.
    """
    if isinstance(H, GramMatrix):
        entries, field, K, N = H.entries, H.field, H.K, H.N
    else:
        entries = np.asarray(H)
        field = Field.COMPLEX if np.iscomplexobj(entries) else Field.REAL
        K, N = 1, entries.shape[0]
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {entries.shape}")
    return GramMatrix(field=field, K=K, N=N, entries=_spectral_stack(entries, spec))
