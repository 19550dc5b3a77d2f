"""Matrix nearness solvers: structural and spectral constraint projections.

The structural set fixes identity diagonal blocks and caps each off-diagonal
block magnitude at mu, where "magnitude" depends on the metric (Frobenius
norm, spectral norm, absolute determinant, or raw signed entry).  The
spectral set contains positive-semidefinite matrices of rank at most d and
fixed trace.  Alternating between the two is the solver's engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import InvalidInput, NumericalFailure
from .geometry import Field, GramMatrix, Metric, as_blocks, from_blocks, upper_block_indices
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


def _plus_root(c, t):
    """Larger root y of y^2 - c y + t = 0 (continuous with y = c at t = 0)."""
    return 0.5 * (c + np.sqrt(np.maximum(c * c - 4.0 * t, 0.0)))


def solve_fs_block(c: np.ndarray, mu: float) -> np.ndarray:
    """Nearest log-domain singular values under a determinant cap.

    Minimizes 0.5 * ||exp(x) - c||^2 subject to sum(x) <= log(mu), for
    nonnegative singular values c with prod(c) > mu, so the constraint is
    active at the solution.  Stationary points satisfy
    exp(x_k) * (exp(x_k) - c_k) = -t for a single multiplier t >= 0; for
    each t and coordinate this quadratic has two roots, and a second-order
    argument shows at most one coordinate may sit on the smaller root.  We
    therefore root-find the active-constraint equation along the all-larger-
    roots branch (monotone, plain bisection) and along each one-smaller-root
    branch (grid scan plus Brent), then return the candidate with least cost.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size < 1:
        raise InvalidInput("c must be a 1-D vector of singular values")
    if not 0.0 < mu <= 1.0:
        raise InvalidInput(f"mu must lie in (0, 1], got {mu}")
    c = np.maximum(c, 1e-12)
    target = math.log(mu) - 1e-12
    if float(np.sum(np.log(c))) <= target:
        raise InvalidInput("prod(c) <= mu: block is already feasible, nothing to solve")
    K = c.size
    if K == 1:
        return np.array([target])

    t_max = float(np.min(c * c)) / 4.0

    def log_prod_plus(t, skip=-1):
        total = 0.0
        for k in range(K):
            if k != skip:
                total += math.log(_plus_root(c[k], t))
        return total

    def branch_gap(t, j):
        # Smaller root via Vieta (y_minus * y_plus = t) to avoid cancellation.
        y_plus_j = _plus_root(c[j], t)
        return math.log(t) - math.log(y_plus_j) + log_prod_plus(t, skip=j) - target

    candidates = []

    # All-larger-roots branch: log-product decreases monotonically in t.
    if log_prod_plus(t_max) <= target:
        lo, hi = 0.0, t_max
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if log_prod_plus(mid) > target:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-16 * t_max:
                break
        t = 0.5 * (lo + hi)
        candidates.append(_plus_root(c, t))

    # One-smaller-root branches: scan for sign changes, refine with Brent.
    grid = t_max * np.geomspace(1e-40, 1.0, 160)
    log_plus = np.log(_plus_root(c[None, :], grid[:, None]))
    all_gaps = (np.log(grid) + np.sum(log_plus, axis=1) - target)[:, None] - 2.0 * log_plus
    xtol = max(1e-280, 1e-13 * t_max)
    for j in range(K):
        gaps = all_gaps[:, j]
        sign_change = np.nonzero(np.diff(np.sign(gaps)) != 0)[0]
        roots = [brentq(branch_gap, grid[i], grid[i + 1], args=(j,), xtol=xtol, rtol=1e-12)
                 for i in sign_change]
        if abs(gaps[-1]) < 1e-12:
            roots.append(t_max)
        for t in roots:
            y = _plus_root(c, t)
            y[j] = t / _plus_root(c[j], t)
            candidates.append(y)

    if not candidates:
        raise NumericalFailure(
            f"no stationary point found for c={c.tolist()}, mu={mu}"
        )

    costs = [0.5 * float(np.sum((y - c) ** 2)) for y in candidates]
    y = candidates[int(np.argmin(costs))]
    # Land exactly on the constraint by absorbing root-finding residue into
    # the largest coordinate, where the log is least sensitive.
    y = y.copy()
    k_big = int(np.argmax(y))
    y[k_big] = math.exp(target - float(np.sum(np.log(np.delete(y, k_big)))))
    comp = y * (y - c)
    t_star = -float(np.mean(comp))
    if float(np.max(np.abs(comp + t_star))) > 1e-8:
        raise NumericalFailure(
            f"stationarity residual {np.max(np.abs(comp + t_star)):.3e} above 1e-8 "
            f"for c={c.tolist()}, mu={mu}"
        )
    return np.log(y)


def _project_fs_blocks(blocks: np.ndarray, mu: float) -> np.ndarray:
    out = blocks.copy()
    for p in range(blocks.shape[0]):
        U, s, Vh = np.linalg.svd(blocks[p])
        if float(np.prod(s)) <= mu:
            continue
        if mu == 0.0:
            # The feasible set is the rank-deficient blocks; the nearest one
            # zeroes the smallest singular value.
            s_new = s.copy()
            s_new[-1] = 0.0
            out[p] = (U * s_new) @ Vh
        else:
            x = solve_fs_block(s, mu)
            out[p] = (U * np.exp(x)) @ Vh
    return out


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
    K, N, mu = spec.K, spec.N, spec.mu

    if spec.metric is Metric.SPHERE:
        if G.field is not Field.REAL:
            raise InvalidInput("sphere constraint set is defined for real matrices")
        H = np.clip(A, -1.0, mu)
        np.fill_diagonal(H, 1.0)
        H = np.triu(H) + np.triu(H, 1).T
        return GramMatrix(field=G.field, K=K, N=N, entries=H)

    B = as_blocks(A, K, N).copy()
    iu, ju = upper_block_indices(N)
    blocks = B[iu, ju]

    if spec.metric is Metric.CHORDAL:
        norms = np.sqrt(np.sum(np.abs(blocks) ** 2, axis=(1, 2)))
        scale = np.ones(len(norms))
        over = norms > mu
        scale[over] = (mu / norms[over]) * (1.0 - _FEAS_SHRINK)
        out = blocks * scale[:, None, None]
    elif spec.metric is Metric.SPECTRAL:
        out = blocks.copy()
        U, s, Vh = np.linalg.svd(blocks)
        over = s[:, 0] > mu
        if np.any(over):
            s_cut = np.minimum(s[over], mu * (1.0 - _FEAS_SHRINK))
            out[over] = np.einsum("pik,pk,pkj->pij", U[over], s_cut, Vh[over])
    elif spec.metric is Metric.FUBINI_STUDY:
        out = _project_fs_blocks(blocks, mu)
    else:
        raise InvalidInput(f"no structural projection for metric {spec.metric}")

    B[iu, ju] = out
    B[ju, iu] = out.conj().transpose(0, 2, 1)
    idx = np.arange(N)
    B[idx, idx] = np.eye(K, dtype=B.dtype)
    return GramMatrix(field=G.field, K=K, N=N, entries=from_blocks(B))


def project_spectral(H, spec: SpectralSetSpec) -> GramMatrix:
    """Nearest positive-semidefinite matrix with rank <= d and fixed trace.

    With eigenvalues sorted nonincreasing, the projection keeps the top d
    eigenvectors and shifts their eigenvalues by a scalar gamma, flooring at
    zero, where gamma solves sum((lambda_j - gamma)_+) = trace_target.  The
    sum is monotone in gamma, so gamma is found by bisection, which stays
    safe at the kinks of the plus operator.
    """
    if isinstance(H, GramMatrix):
        entries, field, K, N = H.entries, H.field, H.K, H.N
    else:
        entries = np.asarray(H)
        field = Field.COMPLEX if np.iscomplexobj(entries) else Field.REAL
        K, N = 1, entries.shape[0]
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {entries.shape}")

    n = entries.shape[0]
    r = min(spec.d, n)
    lam, U = hermitian_eig(entries)
    lam, U = lam[:r], U[:, :r]
    lam_list = [float(x) for x in lam]
    target = spec.trace_target

    def shifted_trace(gamma: float) -> float:
        total = 0.0
        for x in lam_list:
            diff = x - gamma
            if diff > 0.0:
                total += diff
        return total

    lo = lam_list[0] - target - 1.0
    hi = lam_list[0]
    gamma = None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        total = shifted_trace(mid)
        if abs(total - target) <= 1e-12 * target:
            gamma = mid
            break
        if total > target:
            lo = mid
        else:
            hi = mid
    if gamma is None:
        raise NumericalFailure(
            f"trace bisection did not converge: residual "
            f"{shifted_trace(0.5 * (lo + hi)) - target:.3e}"
        )

    w = np.maximum(lam - gamma, 0.0)
    out = symmetrize((U * w) @ U.conj().T)
    if field is Field.REAL:
        out = out.real
    return GramMatrix(field=field, K=K, N=N, entries=out)
