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


# The K=2 solve makes four Newton runs, one per row of these tables: from
# both ends of the concave part [a, c2 / 2] of its quartic, then from both
# ends of the convex part [max(a, c2 / 2), c2].  The tables give each run's
# direction of travel, the sign of q'' on its part, and whether it starts at
# an end of [a, c2].  A run has converged when its step is below _PLANE_TOL
# of its iterate, and gives up after _PLANE_STEPS steps; near a double root
# it converges linearly with ratio 1/2, in about 55 steps from the far end
# of a part.
_AHEAD = np.array([[1.0], [-1.0], [1.0], [-1.0]])
_SIGN = np.array([[-1.0], [-1.0], [1.0], [1.0]])
_OUTER = np.array([[True], [False], [False], [True]])
_PLANE_TOL = 4.0 * np.finfo(float).eps
_PLANE_STEPS = 100


def _plane_quartic(s, c1m, c2, mm):
    """q(s) = s^3 (s - c2) + m (c1 s - m) and q'(s), given c1 m and m^2."""
    s2 = s * s
    return s2 * s * (s - c2) + (c1m * s - mm), s2 * (4.0 * s - 3.0 * c2) + c1m


def _plane_candidates(c1, c2, m):
    """Every stationary point of the K=2 program, as a (4, P) array of its
    coordinate y2 = s (then y1 = m / s), NaN where a run finds none.

    Row p has c1[p] >= c2[p] and the product cap m < c1 c2.  With y1 y2 = m,
    stationarity y1 (y1 - c1) = y2 (y2 - c2) = -t for a multiplier t >= 0
    is q(s) = 0 with s in [a, c2], a = m / c1, and q(a) < 0 < q(c2).  As
    q'' = 6 s (2 s - c2), q is concave on [a, c2 / 2] (empty when
    a >= c2 / 2) and convex on [max(a, c2 / 2), c2], so each part holds at
    most two roots.  Each run starts at an end of a part where q has the
    sign of q'' (Fourier's condition), so its Newton iterates move
    monotonically toward the nearest root in the part; a run whose step
    points backwards, or passes the far end of its part, has none to find.
    A run stops when its step falls below _PLANE_TOL of its iterate or q
    changes sign, which only rounding can make it do.  Two rules cover
    rounding at the ends of [a, c2]: a run that starts there with q of the
    wrong sign already sits on a root, and without a concave part the run
    from c2 accepts a if it passes it, as the one root then lies within
    rounding of a.  Each entry depends only on its own row.
    """
    a = m / c1
    half = 0.5 * c2
    concave = a < half
    start = np.empty((4, len(c1)))
    start[0], start[1], start[2], start[3] = a, half, np.maximum(a, half), c2
    far = start[[1, 0, 3, 2]]  # the other end of each run's part
    c1m, mm = c1 * m, m * m
    enabled = np.ones(start.shape, dtype=bool)
    enabled[:3] = concave
    accept_far = np.zeros(start.shape, dtype=bool)
    accept_far[3] = ~concave

    s = start
    q, dq = _plane_quartic(s, c1m, c2, mm)
    side = q * _SIGN
    root = np.where(enabled & ((q == 0.0) | (_OUTER & (side < 0.0))), s, np.nan)
    live = enabled & (side > 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_PLANE_STEPS):
            if not live.any():
                break
            step = q / dq
            live &= step * _AHEAD < 0.0
            s_new = s - step
            past = (s_new - far) * _AHEAD >= 0.0
            s_new = np.where(past, far, s_new)
            q, dq = _plane_quartic(s_new, c1m, c2, mm)
            crossed = q * _SIGN <= 0.0
            small = np.abs(step) <= _PLANE_TOL * s
            root = np.where(live & (crossed | np.where(past, accept_far, small)), s_new, root)
            live &= ~(past | crossed | small)
            s = s_new
    return root


# Multiplier scan for the K >= 3 block solve, as fractions of its upper end min(c)^2 / 4.
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


def _scan_block(cs, target):
    """Each row's least-cost stationary point, by scanning the multiplier t;
    NaN rows where none is found.

    Stationary points satisfy exp(x_k) * (exp(x_k) - c_k) = -t for a single
    multiplier t in [0, min(c)^2 / 4]; for each t and coordinate this
    quadratic has two roots, and a second-order argument shows at most one
    coordinate may sit on the smaller root.  A 160-point geometric scan of t
    brackets the active-constraint root on the all-larger-roots branch
    (monotone in t) and every sign change on each one-smaller-root branch,
    for all rows at once.  All brackets are then refined together by a
    safeguarded Newton-bisection in t, using
    d/dt log y_plus = -1 / (sqrt(c^2 - 4t) * y_plus).
    """
    P = len(cs)
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

    y = _plus_root(cs[row], t[:, None])
    small = np.nonzero(branch >= 0)[0]
    y[small, branch[small]] = t[small] / _plus_root(cs[row[small], branch[small]], t[small])
    cost = 0.5 * np.sum((y - cs[row]) ** 2, axis=1)
    # Stable sort: a cost tie goes to the earlier candidate, the all-larger
    # branch first, then the smaller root on the lowest coordinate.
    by_cost = np.lexsort((cost, row))
    has = np.zeros(P, dtype=bool)
    has[row] = True
    out = np.full(cs.shape, np.nan)
    out[has] = y[by_cost[np.searchsorted(row[by_cost], np.nonzero(has)[0])]]
    return out


def solve_fs_block(c: np.ndarray, mu: float) -> np.ndarray:
    """Nearest log-domain singular values under a determinant cap, batched.

    ``c`` is one block's nonnegative singular values, shape (K,), or one
    block per row, shape (P, K); the result has the same shape.  Each row
    minimizes 0.5 * ||exp(x) - c||^2 subject to sum(x) <= log(mu), and every
    row must have prod(c) > mu, so the constraint is active at the solution.

    K = 1 is closed form.  For K = 2 (planes) the stationary points are the
    roots of one quartic, all found by :func:`_plane_candidates`; for K >= 3 a
    scan of the multiplier brackets them (:func:`_scan_block`).  Each row
    keeps its least-cost candidate, is moved exactly onto the constraint
    through its largest coordinate, and must meet stationarity to 1e-8.  A
    row with a non-finite value, no candidate, or a larger residual raises
    NumericalFailure.  Each row's result does not depend on the other rows.
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
    if K == 2:
        m = math.exp(target)
        c1, c2 = np.maximum(cs[:, 0], cs[:, 1]), np.minimum(cs[:, 0], cs[:, 1])
        roots = _plane_candidates(c1, c2, m)
        cost = np.where(np.isnan(roots), np.inf, (m / roots - c1) ** 2 + (roots - c2) ** 2)
        s = roots[np.argmin(cost, axis=0), np.arange(P)]  # a tie goes to the earlier run
        y = np.stack([m / s, s], axis=1)
        swap = cs[:, 0] < cs[:, 1]
        y[swap] = y[swap, ::-1]
    else:
        y = _scan_block(cs, target)
    missing = np.isnan(y[:, 0])
    if missing.any():
        bad = int(np.argmax(missing))
        raise NumericalFailure(f"no stationary point found for c={cs[bad].tolist()}, mu={mu}")

    # Land exactly on the constraint by absorbing root-finding residue into
    # the largest coordinate, where the log is least sensitive.
    rows = np.arange(P)
    k_big = np.argmax(y, axis=1)
    log_rest = np.log(y)
    log_rest[rows, k_big] = 0.0
    y[rows, k_big] = np.exp(target - np.sum(log_rest, axis=1))
    comp = y * (y - cs)
    residual = np.max(np.abs(comp - np.mean(comp, axis=1, keepdims=True)), axis=1)
    if not np.all(residual <= 1e-8):
        bad = int(np.argmax(~(residual <= 1e-8)))
        raise NumericalFailure(
            f"stationarity residual {residual[bad]:.3e} above 1e-8 "
            f"for c={cs[bad].tolist()}, mu={mu}"
        )
    return np.log(y).reshape(c.shape)


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
