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
and check nothing.  Inside the solver's loop the iterates are Hermitian
only to rounding, which is all the kernels need: the K >= 2 block-norm grid
and every non-chordal cap read only the upper blocks, the K = 1 grid and
the chordal cap act entrywise, and eigh reads one triangle.  A non-chordal
cap mirrors each capped upper block, and K = 2 blocks are measured and
capped in closed form, with no LAPACK call.  ``_spectral_stack`` returns
V diag(w) V* as computed, not symmetrized; ``GramMatrix`` and the solver's
finish symmetrize everything that leaves the loop.  A stack is projected
matrix by matrix, every matrix bit-identically to how it would be
projected alone, which lets the solver run T trials as one stack.

For KN >= ``_WARM_MIN_KN`` every spectral step of the solver's loop is a
warm solve, by subspace iteration with Rayleigh-Ritz (Saad, "Numerical
Methods for Large Eigenvalue Problems") instead of a decomposition of the
full matrix: the first step starts from the iterate's own leading d
columns and every later one from the previous iterate's top-d eigenbasis.
A warm result is accepted only under a certificate: its residual must be
below 1e-12 times a lower bound on the gap between the d-th and (d+1)-th
eigenvalues, which by Davis-Kahan keeps the subspace within 1e-12 of the
exact one.  When the certificate is not met within ``_WARM_STEPS`` rounds
the full decomposition (``hermitian_eig``) takes over, so only fallbacks
reach it; ``_warm_top`` and the ``_WARM_MIN_KN`` comment give the products
per round and per solve.
``project_spectral``, and ``_spectral_stack`` called with no basis, always
decompose in full.
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
    _set_diagonal_blocks,
    _split_blocks,
    as_blocks,
    upper_block_indices,
)
from .linalg import _frobenius_sq, hermitian_eig

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
# A K = 2 block is capped through its SVD when its capped values y move over
# _PLANE_SLOPE times as fast as its singular values s (see _cap_blocks).
_PLANE_SLOPE = 100.0


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
    bracket is within the tolerance or its residual is exactly zero.  It
    returns the final bracket's false-position point if inside, else its end
    of smaller residual, or NaN when not closed in _REFINE_STEPS steps.
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
        t = lo - f_lo * (hi - lo) / (f_hi - f_lo)  # on a root a lengthened step overshot
        near = np.where(np.abs(f_lo) <= np.abs(f_hi), lo, hi)
        return np.where(done, np.where((t > lo) & (t < hi), t, near), np.nan)


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

    Returns a new matrix with identity diagonal blocks and the off-diagonal
    blocks capped at mu; blocks within the cap pass through bit-exactly.  A
    chordal cap only rescales blocks: one elementwise product of A with the
    grid of block scales, so it is Hermitian to rounding as A is.  The other
    metrics cap each upper block U diag(s) V* at U diag(y) V* and mirror it,
    so their result is exactly Hermitian whatever A's lower blocks hold; for
    K = 2 as p B + q C (C as in ``geometry._plane_svd``), the mean of y over
    s times B + C plus their divided half-difference times B - C.  Its error
    is eps times that slope, as LAPACK's is, so blocks steeper than
    _PLANE_SLOPE take the SVD: Fubini-Study ones within ~1e-2 of a tie (at a
    tie the cap is not unique), never spectral ones (slope 1).
    """
    blocks, mags, U, s, Vh, sums = parts
    mu = spec.mu
    K, N = spec.K, spec.N
    over = mags > mu
    if spec.metric is Metric.CHORDAL:
        with np.errstate(divide="ignore", invalid="ignore"):  # unread where not over
            scale = np.where(over, mu / mags * (1.0 - _FEAS_SHRINK), 1.0)
        expanded = scale[..., :, None, :, None]
        H = (A.reshape(A.shape[:-2] + (N, K, N, K)) * expanded).reshape(A.shape)
        _set_diagonal_blocks(H, K, N, 1.0)
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
            if U is None:  # K = 2
                plus, minus = np.moveaxis(sums[over], -3, 0)
                dy, ds = s_new[:, 0] - s_new[:, 1], s_over[:, 0] - s_over[:, 1]
                mean = 0.5 * (s_new[:, 0] + s_new[:, 1]) / (s_over[:, 0] + s_over[:, 1])
                half = np.divide(0.5 * dy, ds, out=np.zeros_like(ds), where=ds != 0.0)
                out[over] = mean[:, None, None] * plus + half[:, None, None] * minus
                over[over] = steep = np.abs(dy) > _PLANE_SLOPE * np.abs(ds)  # to the SVD
                U, _, Vh = np.linalg.svd(blocks) if np.any(steep) else (None,) * 3
                s_new = s_new[steep]
            if U is not None:
                out[over] = np.einsum("pik,pk,pkj->pij", U[over], s_new, Vh[over])

    H = np.empty_like(A)
    B = as_blocks(H, K, N)
    iu, ju = upper_block_indices(N)
    B[..., iu, ju, :, :] = out
    B[..., ju, iu, :, :] = np.swapaxes(out, -1, -2).conj()
    _set_diagonal_blocks(H, K, N, 1.0)
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
    shifts = (lam.cumsum(-1) - target) / np.arange(1, r + 1)
    above = lam > shifts
    above[..., 0] = True  # lam_1 - shift_1 = target > 0, lost only to rounding
    rho = r - 1 - above[..., ::-1].argmax(-1)
    gamma = shifts.reshape(-1, r)[np.arange(rho.size), rho.ravel()].reshape(rho.shape + (1,))
    return np.maximum(lam - gamma, 0.0)


# The spectral projection of an n-by-n iterate with n >= _WARM_MIN_KN refines
# a warm top eigenbasis instead of decomposing the full matrix.  Lone trials
# at the chordal bound (2-core VM, 300 iterations) took 0.67-0.70 of the full
# time warm at KN = 48 with d=8 K=2 and 0.85-0.87 with d=16 K=4, but 1.04-1.26
# at KN 24-32; at KN = 40 d=8 K=2 ran faster warm (0.68-0.73) while d=16 K=4,
# d=20 K=4 and lines in R^8 ran slower (1.00-1.23).  A warm solve makes at
# most 1 + 6 * _WARM_STEPS products with H before it falls back.
_WARM_MIN_KN = 48
_WARM_STEPS = 4
_WARM_TOL = 1e-12


def _warm_top(H: np.ndarray, r: int, V: np.ndarray | None = None):
    """Top r eigenpairs of a (T, n, n) Hermitian stack refined from the
    orthonormal (T, n, r) bases ``V``, or with no ``V`` from each matrix's
    own leading r columns, orthonormalized; as (Ritz values, Ritz vectors).

    Each trial runs unshifted subspace iteration with Rayleigh-Ritz, in
    rounds of six products with H: Q = qr(H^5 (H X)), the r-by-r
    eigendecomposition Q* (H Q) = W diag(theta) W*, and X = Q W, whose H X
    = (H Q) W costs no further product.  Rounds cost more than products at
    the sizes warm solves run, so each takes six: the residual falls ~50-fold
    per product at KN = 192 and is certified at degree 6, so a warm start
    from the previous iterate's basis is typically certified in its first
    round.
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
    lam = np.empty((len(H), r))
    basis = np.empty(H.shape[:-1] + (r,), dtype=H.dtype)
    todo = np.arange(len(H))
    Hs = H
    sq_norm = _frobenius_sq(H)
    try:
        HX = H @ (np.linalg.qr(H[..., :r])[0] if V is None else V)
        for _ in range(_WARM_STEPS):
            Y = HX
            for _ in range(5):
                Y = Hs @ Y
            Q = np.linalg.qr(Y)[0]
            HQ = Hs @ Q
            # eigh reads only the lower triangle of Q* H Q, Hermitian up to roundoff.
            theta, W = np.linalg.eigh(np.swapaxes(Q, -1, -2).conj() @ HQ)
            theta, W = theta[..., ::-1], W[..., ::-1]
            X, HX = Q @ W, HQ @ W
            residual = np.sqrt(_frobenius_sq(HX - X * theta[..., None, :]))
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
    """Top r eigenpairs (eigenvalues, eigenvectors) of a Hermitian matrix or
    stack; the vectors are copied, as BLAS takes no reversed (negative) stride."""
    lam, U = hermitian_eig(H)
    return lam[..., :r], U[..., :r].copy()


def _spectral_stack(H: np.ndarray, spec: SpectralSetSpec, V: np.ndarray | None = None,
                    column_start: bool = False):
    """Spectral projection of a Hermitian matrix or (T, n, n) stack, as plain
    arrays: (projection, its top-d eigenbases).

    For n >= _WARM_MIN_KN the eigenbases come from :func:`_warm_top`, warm
    started from ``V`` (the bases this function returned for the previous
    iterate) or, with no ``V`` and ``column_start`` set, from each matrix's
    own leading d columns; they are returned as contiguous (T, n, d) arrays,
    so a lone trial and a pruned stack multiply the same memory layout.
    With neither, and always below _WARM_MIN_KN, the stack is decomposed in
    full; below it the returned bases are None.  The projection V diag(w) V*
    is not symmetrized, so it is Hermitian only to rounding; each matrix is
    projected exactly as it would be alone.
    """
    r = min(spec.d, H.shape[-1])
    warm = H.shape[-1] >= _WARM_MIN_KN
    if warm and (V is not None or column_start):
        lam, V = _warm_top(H, r, V)
    else:
        lam, V = _full_top(H, r)
    w = _water_fill(lam, spec.trace_target)
    P = (V * w[..., None, :]) @ V.swapaxes(-1, -2).conj()
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
