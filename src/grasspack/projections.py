"""Matrix nearness solvers: structural and spectral constraint projections.

The structural set fixes identity diagonal blocks and caps each off-diagonal
block magnitude at mu, where "magnitude" depends on the metric (Frobenius
norm, spectral norm, absolute determinant, or raw signed entry).  The
spectral set contains positive-semidefinite matrices of rank at most d and
fixed trace; its projection keeps the top d eigenpairs and shifts their
eigenvalues by the closed-form projection onto a scaled simplex.
Alternating between the two is the solver's engine.

The public projections take and return ``GramMatrix`` objects, which own
the Hermitian invariant: their entries are checked and symmetrized once, on
construction.  The kernels (``geometry._split_blocks``, ``_cap_blocks``,
``_spectral_stack``) work on plain arrays of shape (KN, KN) or (T, KN, KN)
and check nothing; each returns an exactly Hermitian matrix given one.
A chordal cap only rescales blocks: ``_cap_blocks`` multiplies the matrix by
a symmetric grid of block scales, computed from the upper triangle of the
grid of block norms and mirrored below it, so an exactly Hermitian input
stays exactly Hermitian; the other metrics mirror every capped upper block
onto its conjugate transpose.  ``_spectral_stack`` symmetrizes
V diag(w) V*, which is Hermitian only up to roundoff.  A stack
is projected matrix by matrix, every matrix bit-identically to how it would
be projected alone, which lets the solver run T trials as one stack.

For KN >= ``_WARM_MIN_KN`` the solver hands ``_spectral_stack`` the previous
iterate's top-d eigenbasis, a warm basis that is refined by subspace
iteration with Rayleigh-Ritz (Saad, "Numerical Methods for Large Eigenvalue
Problems") instead of decomposing the full matrix.  A warm result is
accepted only under a certificate: its residual must be below 1e-12 times
a lower bound on the gap between the d-th and (d+1)-th eigenvalues, which
by Davis-Kahan keeps the subspace within 1e-12 of the exact one.  Each
round makes two products with the iterate and one Rayleigh-Ritz solve.
When the certificate is not met within ``_WARM_STEPS`` rounds (20 products
after the first) the full decomposition (``hermitian_eig``) takes over, so
only its cold starts and fallbacks reach it.  ``project_spectral`` always
decomposes in full.
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
    _mu_range,
    _split_blocks,
    as_blocks,
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


@dataclass(frozen=True)
class StructuralSetSpec:
    """Parameters of the structural constraint set for one metric."""

    metric: Metric
    mu: float
    K: int
    N: int

    def __post_init__(self):
        if self.K < 1 or self.N < 2:
            raise InvalidInput(f"invalid block structure K={self.K}, N={self.N}")
        lo, hi = _mu_range(self.metric, self.K)
        if not lo <= self.mu <= hi + 1e-12:
            raise InvalidInput(f"mu={self.mu} outside the valid range for {self.metric.value}")
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


# Scan of a K >= 3 row's smallest value s, as fractions of c_low / 2; above
# c_low / 2 the residual rises, so needs no scan.
_SCAN = np.geomspace(1e-40, 1.0, 160)

# Step cap of the safeguarded Newton-bisection.  Bisection alone closes a
# scan bracket (relative width at most 1/2) to 1e-12 in about 40 steps.
_REFINE_STEPS = 100


def _refine_roots(fdf, lo, hi, f_lo, f_hi):
    """Safeguarded Newton-bisection on every bracket [lo, hi] at once.

    ``fdf(t)`` returns each row's residual and its derivative at t; the
    residual has the values ``f_lo`` and ``f_hi``, of opposite signs, at the
    bracket ends.  Each row starts from false position, takes the Newton step
    when it lands strictly inside its bracket and bisects otherwise; a step
    shorter than half the stop tolerance 1e-12 * t is lengthened to it, so a
    one-sided Newton approach still closes the bracket.  A row stops when its
    bracket is within the tolerance or its residual is exactly zero, and
    returns the bracket end with the smaller residual; a row whose bracket
    has not closed in _REFINE_STEPS steps returns NaN.
    """
    done = (f_lo == 0.0) | (f_hi == 0.0)
    rising = f_lo < 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = lo - f_lo * (hi - lo) / (f_hi - f_lo)  # false position: inside when signs differ
        t = np.where((t > lo) & (t < hi), t, 0.5 * (lo + hi))
        t = np.where(f_lo == 0.0, lo, np.where(f_hi == 0.0, hi, t))
        for _ in range(_REFINE_STEPS):
            f, df = fdf(t)
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
    return np.where(done, np.where(np.abs(f_lo) <= np.abs(f_hi), lo, hi), np.nan)


def _fs_residual(s, c_low, c_rest, target):
    """phi(s) of :func:`solve_fs_block`, with the square roots sqrt(c^2 - 4t)
    and larger roots y+(c, t) of the ``c_rest`` values (first axis) it used."""
    root = np.sqrt(np.maximum(c_rest * c_rest - 4.0 * s * (c_low - s), 0.0))
    y = 0.5 * (c_rest + root)
    return np.log(s) + np.log(y).sum(axis=0) - target, root, y


def solve_fs_block(c: np.ndarray, mu: float) -> np.ndarray:
    """Nearest log-domain singular values under a determinant cap, batched.

    ``c`` is one block's nonnegative singular values, shape (K,), or one
    block per row, shape (P, K); the result has the same shape.  Each row
    minimizes 0.5 * ||exp(x) - c||^2 subject to sum(x) <= log(mu), and every
    row must have prod(c) > mu, so the constraint is active at the solution.

    Stationary points have y_k (c_k - y_k) = t, y = exp(x), for one
    multiplier t in (0, min(c)^2 / 4], so each y_k is the larger root
    y+(c_k, t) >= c_k / 2 or the smaller root t / y+(c_k, t) <= c_k / 2.  At
    a minimizer at most one y_k lies below c_k / 2, since on the constraint's
    tangent space (sum v_k / y_k = 0) the Lagrangian's Hessian
    diag(1 - t / y_k^2) is negative at each such k.  A minimizer's y is
    ordered like c, since swapping an out-of-order y_i and y_j lowers the
    cost by 2 (y_i - y_j)(c_j - c_i); and for c_i < c_j the smaller root of
    c_j lies below both roots of c_i, so below y_i.  So only the smallest c
    may take its smaller root; of tied smallest values, take the last, c_low.

    Each row is solved in its coordinates sorted by c; K = 1 is closed form.
    For K >= 2 let m = exp(log(mu) - 1e-12) and s = y_low, so
    t = s (c_low - s) and every other y_k = y+(c_k, t).  The candidates are
    the roots of phi(s) = log s + sum_{k != low} log y+(c_k, t) - log m on
    [s_lo, c_low], s_lo = m / prod_{k != low} c_k: as y+(c_k, t) <= c_k,
    with equality at t = 0, phi < 0 below s_lo and phi(s_lo) <= 0 <
    phi(c_low), signs taken as known rather than from rounding.  phi rises
    strictly on [c_low / 2, c_low], where t falls as s rises.  For K = 2 it
    rises on the whole interval: with c1 the other value,
    sqrt(c1^2 - 4t) >= |c_low - 2s| and y1 >= c_low - s, so its derivative
    1 / s - (c_low - 2s) / (sqrt(c1^2 - 4t) y1) is at least
    1 / s - 1 / (c_low - s) > 0 below c_low / 2.  So a K = 2 row has the one
    bracket [s_lo, c_low]; a K >= 3 row is also scanned at c_low / 2 * _SCAN,
    and every sign change brackets a root.  :func:`_refine_roots` refines
    every bracket at once, and each row keeps its least-cost root, a tie
    going to the least s.  The largest c then absorbs the residue, which
    lands the row exactly on the constraint, and the row must meet
    stationarity to 1e-8; a row with a non-finite value, no solution, or a
    larger residual raises NumericalFailure.  Each row's result does not
    depend on the other rows.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim not in (1, 2) or c.size < 1:
        raise InvalidInput("c must be a vector of singular values or a (P, K) stack of them")
    if not 0.0 < mu <= 1.0:
        raise InvalidInput(f"mu must lie in (0, 1], got {mu}")
    cs = np.maximum(c.reshape(-1, c.shape[-1]), 1e-12)
    if not np.isfinite(cs).all():
        bad = int(np.argmin(np.isfinite(cs).all(axis=1)))
        raise NumericalFailure(f"non-finite singular values c={cs[bad].tolist()}")
    target = math.log(mu) - 1e-12
    if np.any(np.sum(np.log(cs), axis=1) <= target):
        raise InvalidInput("prod(c) <= mu: block is already feasible, nothing to solve")
    P, K = cs.shape
    if K == 1:
        return np.full(c.shape, target)
    # A stable sort keeps tied values in order, so the last smallest is last.
    order = np.argsort(-cs, axis=1, kind="stable")
    rows = np.arange(P)[:, None]
    c_sorted = cs[rows, order].T  # one row per coordinate, largest c first
    c_rest, c_low = c_sorted[:-1], c_sorted[-1]
    s_lo = math.exp(target) / c_rest.prod(axis=0)
    grid = np.empty((P, 2 + (K > 2) * _SCAN.size))
    grid[:, 0], grid[:, -1] = s_lo, c_low
    if K > 2:
        grid[:, 1:-1] = np.maximum(0.5 * c_low[:, None] * _SCAN, s_lo[:, None])
    f = _fs_residual(grid, c_low[:, None], c_rest[:, :, None], target)[0]
    f[:, 0] = np.minimum(f[:, 0], 0.0)
    f[:, -1] = np.maximum(f[:, -1], 0.0)
    below = f <= 0.0
    below[:, -1] = False
    # Flat indices of each bracket's lower end, row by row in increasing s.
    lower = np.flatnonzero(below[:, :-1] != below[:, 1:])
    p = lower // (grid.shape[1] - 1)
    lower += p
    b_low, b_rest = c_low[p], c_rest[:, p]

    def fdf(s):
        phi, root, y = _fs_residual(s, b_low, b_rest, target)
        return phi, 1.0 / s - ((b_low - 2.0 * s) / (root * y)).sum(axis=0)

    grid, f = grid.ravel(), f.ravel()
    s = _refine_roots(fdf, grid[lower], grid[lower + 1], f[lower], f[lower + 1])
    y = _fs_residual(s, b_low, b_rest, target)[2]
    if len(s) > P:  # some row has several roots; each keeps its cheapest
        # The sort is stable, so a cost tie goes to the least s; NaN sorts last.
        cost = np.sum((y - b_rest) ** 2, axis=0) + (s - b_low) ** 2
        by_cost = np.lexsort((cost, p))
        win = by_cost[np.searchsorted(p[by_cost], np.arange(P))]
        s, y = s[win], y[:, win]
    missing = np.isnan(s)
    if missing.any():
        bad = int(np.argmax(missing))
        raise NumericalFailure(f"no stationary point found for c={cs[bad].tolist()}, mu={mu}")

    # Land exactly on the constraint by absorbing root-finding residue into
    # the largest coordinate, where the log is least sensitive.
    y = np.concatenate([y, s[None]])
    y[0] = np.exp(target - np.sum(np.log(y[1:]), axis=0))
    comp = y * (y - c_sorted)
    residual = np.max(np.abs(comp - np.mean(comp, axis=0)), axis=0)
    if not np.all(residual <= 1e-8):
        bad = int(np.argmax(~(residual <= 1e-8)))
        raise NumericalFailure(
            f"stationarity residual {residual[bad]:.3e} above 1e-8 "
            f"for c={cs[bad].tolist()}, mu={mu}"
        )
    out = np.empty_like(cs)
    out[rows, order] = y.T
    return np.log(out).reshape(c.shape)


def _cap_blocks(A: np.ndarray, spec: StructuralSetSpec, parts: tuple) -> np.ndarray:
    """Structural projection of A from its :func:`geometry._split_blocks` parts.

    Returns a new matrix: A's off-diagonal blocks capped at mu, Hermitian,
    with identity diagonal blocks.  Blocks already within the cap pass
    through bit-exactly.  A chordal block over the cap is only rescaled, so
    the whole projection is one elementwise product of A with the symmetric
    grid of block scales, expanded to K-by-K blocks; as A is exactly
    Hermitian, so is the product.  The other metrics cap their upper blocks
    and write each one's conjugate transpose below the diagonal.
    """
    blocks, mags, U, s, Vh = parts
    mu = spec.mu
    K, N = spec.K, spec.N
    over = mags > mu
    if spec.metric is Metric.CHORDAL:
        scale = np.divide(mu, mags, out=np.ones_like(mags), where=over)
        np.multiply(scale, 1.0 - _FEAS_SHRINK, out=scale, where=over)
        expanded = scale[..., :, None, :, None]
        H = (A.reshape(A.shape[:-2] + (N, K, N, K)) * expanded).reshape(A.shape)
        idx = np.arange(N)
        as_blocks(H, K, N)[..., idx, idx, :, :] = np.eye(K, dtype=H.dtype)
        return H
    if spec.metric is Metric.SPHERE:
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
    B = as_blocks(H, K, N)
    iu, ju = upper_block_indices(N)
    B[..., iu, ju, :, :] = out
    B[..., ju, iu, :, :] = np.swapaxes(out, -1, -2).conj()
    idx = np.arange(N)
    B[..., idx, idx, :, :] = np.eye(K, dtype=H.dtype)
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
    H = _cap_blocks(G.entries, spec, _split_blocks(G.entries, spec.metric, spec.K, spec.N))
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


# The spectral projection of an n-by-n iterate with n >= _WARM_MIN_KN refines
# the previous iterate's top eigenbasis instead of decomposing the full
# matrix; below it a full eigh costs less than a few subspace steps.  A warm
# solve makes at most 1 + 2 * _WARM_STEPS products with H before it falls back.
_WARM_MIN_KN = 96
_WARM_STEPS = 10
_WARM_TOL = 1e-12


def _warm_top(H: np.ndarray, V: np.ndarray):
    """Top eigenpairs of a (T, n, n) Hermitian stack refined from the
    orthonormal (T, n, r) bases ``V``, as (Ritz values, Ritz vectors).

    Each trial runs unshifted subspace iteration with Rayleigh-Ritz, in
    rounds of two products with H: Q = qr(H (H X)), the r-by-r
    eigendecomposition Q* (H Q) = W diag(theta) W*, and X = Q W, whose H X
    = (H Q) W costs no further product.  Orthonormalizing and solving the
    small problem once per two products, not once per product, halves the
    rounds, which cost more than the products at the sizes warm solves run.
    A round's result is accepted once ||H X - X diag(theta)||_F <= _WARM_TOL *
    delta with delta = theta_r - sqrt(max(||H||_F^2 - sum(theta^2), 0)) > 0:
    the square root bounds lambda_{r+1}(H) from above (Weyl, as it is
    ||H - X diag(theta) X*||_F), so delta bounds the gap from below and
    Davis-Kahan puts X within _WARM_TOL of the top-r eigenspace, whatever
    the signs of the other eigenvalues.  A trial not accepted within
    _WARM_STEPS rounds, or every unaccepted one when a decomposition raises
    ``LinAlgError``, takes the full path, :func:`_full_top`.  Each trial's
    result does not depend on the rest of the stack.
    """
    r = V.shape[-1]
    lam = np.empty((len(H), r))
    basis = np.empty_like(V)
    todo = np.arange(len(H))
    Hs, HX = H, H @ V
    sq_norm = np.linalg.norm(H, axis=(-2, -1)) ** 2
    try:
        for _ in range(_WARM_STEPS):
            Q = np.linalg.qr(Hs @ HX)[0]
            HQ = Hs @ Q
            # eigh reads only the lower triangle of Q* H Q, Hermitian up to roundoff.
            theta, W = np.linalg.eigh(np.swapaxes(Q, -1, -2).conj() @ HQ)
            theta, W = theta[..., ::-1], W[..., ::-1]
            X, HX = Q @ W, HQ @ W
            residual = np.linalg.norm(HX - X * theta[..., None, :], axis=(-2, -1))
            tail = np.sqrt(np.maximum(sq_norm[todo] - np.sum(theta**2, axis=-1), 0.0))
            delta = theta[..., -1] - tail
            ok = (delta > 0.0) & (residual <= _WARM_TOL * delta)
            if np.any(ok):
                lam[todo[ok]], basis[todo[ok]] = theta[ok], X[ok]
                todo, Hs, HX = todo[~ok], Hs[~ok], HX[~ok]
                if not todo.size:
                    return lam, basis
    except np.linalg.LinAlgError:
        pass
    lam[todo], basis[todo] = _full_top(H[todo], r)
    return lam, basis


def _full_top(H: np.ndarray, r: int):
    """Top r eigenpairs of a Hermitian matrix or stack, from its full
    decomposition: (eigenvalues, eigenvectors)."""
    lam, U = hermitian_eig(H)
    return lam[..., :r], U[..., :r]


def _spectral_stack(H: np.ndarray, spec: SpectralSetSpec, V: np.ndarray | None = None):
    """Spectral projection of a Hermitian matrix or (T, n, n) stack, as plain
    arrays: (projection, its top-d eigenbases).

    For n >= _WARM_MIN_KN the eigenbases come from :func:`_warm_top`, warm
    started from ``V`` (the bases this function returned for the previous
    iterate), and are returned as contiguous (T, n, d) arrays, so a lone
    trial and a pruned stack multiply the same memory layout; with no
    ``V`` the stack is decomposed in full.  Below _WARM_MIN_KN the stack is
    always decomposed in full and the returned bases are None.  Each matrix
    is projected exactly as it would be alone.
    """
    warm = H.shape[-1] >= _WARM_MIN_KN
    if warm and V is not None:
        lam, V = _warm_top(H, V)
    else:
        lam, V = _full_top(H, min(spec.d, H.shape[-1]))
    w = _water_fill(lam, spec.trace_target)
    P = symmetrize((V * w[..., None, :]) @ np.swapaxes(V, -1, -2).conj())
    return P, np.ascontiguousarray(V) if warm else None


def project_spectral(H, spec: SpectralSetSpec) -> GramMatrix:
    """Nearest positive-semidefinite matrix with rank <= d and fixed trace.

    With eigenvalues sorted nonincreasing, the projection keeps the top d
    eigenvectors and shifts their eigenvalues by a scalar gamma, flooring at
    zero, where gamma solves sum((lambda_j - gamma)_+) = trace_target.  The
    shift is the closed-form simplex projection of :func:`_water_fill`.

    ``H`` is a ``GramMatrix`` or a square array; an array is read as a
    K = 1 Gram matrix, so it must be finite and Hermitian within the
    ``GramMatrix`` tolerance.
    """
    if not isinstance(H, GramMatrix):
        A = np.asarray(H)
        field = Field.COMPLEX if np.iscomplexobj(A) else Field.REAL
        H = GramMatrix(field=field, K=1, N=A.shape[0] if A.ndim else 0, entries=A)
    return GramMatrix(field=H.field, K=H.K, N=H.N, entries=_spectral_stack(H.entries, spec)[0])
