"""Independent oracles used by the unit and acceptance tests.

Everything here is deliberately written as brute force (grids, golden
section, direct double loops, rejection-style sampling) so it shares no
code path with the implementations it checks.
"""

import math

import numpy as np

from grasspack.geometry import Field, GramMatrix, Metric, as_blocks, from_blocks
from grasspack.starts import gaussian_matrix, random_subspace

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def fs_block_oracle_k2(c, mu, n_grid=4001, refine=160):
    """Global minimum of the K=2 determinant-capped nearness program.

    Dense grid over x1 on the active constraint (x2 = log mu - x1), then
    golden-section refinement inside the best bracket.  Returns the optimal
    objective value.
    """
    c1, c2 = float(c[0]), float(c[1])
    logmu = math.log(mu)

    def objective(x1):
        y1 = math.exp(x1)
        y2 = math.exp(logmu - x1)
        return 0.5 * ((y1 - c1) ** 2 + (y2 - c2) ** 2)

    xs = np.linspace(math.log(1e-14), math.log(max(c1, c2) + 2.0), n_grid)
    values = [objective(x) for x in xs]
    i = int(np.argmin(values))
    a, b = xs[max(0, i - 1)], xs[min(n_grid - 1, i + 1)]
    x1, x2 = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    for _ in range(refine):
        if objective(x1) < objective(x2):
            b, x2 = x2, x1
            x1 = b - GOLDEN * (b - a)
        else:
            a, x1 = x1, x2
            x2 = a + GOLDEN * (b - a)
    return objective(0.5 * (a + b))


def fs_block_oracle(c, mu, rng, n_random=12):
    """Least cost found for the determinant-capped nearness program, any K.

    Minimizes 0.5 * ||exp(x) - c||^2 subject to sum(x) <= log(mu) by SLSQP
    from several starts: the even split of the excess sum(log c) - log(mu),
    each coordinate taking all of it, and ``n_random`` random splits.  Each
    local solution is shifted evenly onto the constraint before its cost is
    taken, so the value returned is the cost of a feasible point.
    """
    from scipy.optimize import minimize

    c = np.asarray(c, dtype=float)
    K = len(c)
    log_c, log_mu = np.log(c), math.log(mu)
    excess = float(np.sum(log_c)) - log_mu
    splits = [np.full(K, 1.0 / K), *np.eye(K), *rng.dirichlet(np.ones(K), size=n_random)]

    def cost(x):
        return 0.5 * float(np.sum((np.exp(x) - c) ** 2))

    def grad(x):
        y = np.exp(x)
        return (y - c) * y

    bounds = [(None, v + 1.0) for v in log_c]  # y above c costs more and raises the product
    cap = {"type": "ineq", "fun": lambda x: log_mu - np.sum(x), "jac": lambda x: -np.ones(K)}
    best = math.inf
    for w in splits:
        res = minimize(cost, log_c - w * excess, jac=grad, method="SLSQP", bounds=bounds,
                       constraints=[cap], options={"ftol": 1e-16, "maxiter": 1000})
        x = res.x - max(float(np.sum(res.x)) - log_mu, 0.0) / K
        best = min(best, cost(x))
    return best


def random_hermitian(n, field, rng, scale=1.0):
    A = gaussian_matrix(n, n, field, rng) * scale
    return (A + A.conj().T) / 2


def random_configuration(d, K, N, field, rng):
    from grasspack.geometry import Configuration

    blocks = np.stack([random_subspace(d, K, field, rng) for _ in range(N)])
    return Configuration(field=field, blocks=blocks)


def random_structural_member(metric, mu, K, N, field, rng):
    """One random element of the structural constraint set."""
    n = K * N
    if metric is Metric.SPHERE:
        H = np.zeros((n, n))
        for m in range(N):
            for k in range(m + 1, N):
                H[m, k] = H[k, m] = rng.uniform(-1.0, mu)
        np.fill_diagonal(H, 1.0)
        return GramMatrix(field=Field.REAL, K=K, N=N, entries=H)
    B = np.zeros((N, N, K, K), dtype=field.dtype)
    eye = np.eye(K, dtype=field.dtype)
    for m in range(N):
        B[m, m] = eye
        for k in range(m + 1, N):
            R = gaussian_matrix(K, K, field, rng)
            if metric is Metric.CHORDAL:
                R = R * (mu * rng.uniform(0.0, 1.0) / max(np.linalg.norm(R), 1e-300))
            elif metric is Metric.SPECTRAL:
                smax = np.linalg.svd(R, compute_uv=False)[0]
                R = R * (mu * rng.uniform(0.0, 1.0) / max(smax, 1e-300))
            else:
                raise ValueError(f"no sampler for metric {metric}")
            B[m, k] = R
            B[k, m] = R.conj().T
    return GramMatrix(field=field, K=K, N=N, entries=from_blocks(B))


def spectral_member_distances(H, d, trace_target, n_samples, field, rng):
    """Frobenius distances from H to random members of the spectral set.

    Members are U diag(e) U* with U a random orthonormal n-by-d frame and e
    a random point on the simplex scaled to the trace target.  Distances are
    computed from quadratic forms, never materializing the members.
    """
    H = np.asarray(H)
    n = H.shape[0]
    h_norm_sq = float(np.linalg.norm(H) ** 2)
    dists = np.empty(n_samples)
    chunk = 2000
    done = 0
    while done < n_samples:
        b = min(chunk, n_samples - done)
        A = gaussian_matrix(n, d * b, field, rng).reshape(n, b, d).transpose(1, 0, 2)
        Q, _ = np.linalg.qr(A)
        e = rng.exponential(size=(b, d))
        e *= trace_target / np.sum(e, axis=1, keepdims=True)
        HQ = np.einsum("ij,bjk->bik", H, Q)
        quad = np.real(np.einsum("bik,bik->bk", Q.conj(), HQ))
        dist_sq = h_norm_sq - 2.0 * np.sum(e * quad, axis=1) + np.sum(e * e, axis=1)
        dists[done : done + b] = np.sqrt(np.maximum(dist_sq, 0.0))
        done += b
    return dists


def brute_force_diameter(config, metric):
    """Direct double loop over pairs, recomputing each distance from SVD."""
    best = math.inf
    for m in range(config.N):
        for n in range(m + 1, config.N):
            S, T = config.blocks[m], config.blocks[n]
            c = np.clip(np.linalg.svd(S.conj().T @ T, compute_uv=False), 0.0, 1.0)
            if metric is Metric.CHORDAL:
                val = math.sqrt(max(0.0, float(np.sum(1.0 - c * c))))
            elif metric is Metric.SPECTRAL:
                val = math.sqrt(max(0.0, 1.0 - float(c[0]) ** 2))
            elif metric is Metric.FUBINI_STUDY:
                val = math.acos(min(1.0, float(np.prod(c))))
            elif metric is Metric.GEODESIC:
                val = float(np.linalg.norm(np.arccos(c)))
            else:
                raise ValueError(metric)
            best = min(best, val)
    return best


def brute_force_block_magnitude(G, metric):
    """Independent scan over off-diagonal blocks."""
    K, N = G.K, G.N
    B = as_blocks(np.asarray(G.entries), K, N)
    best = -math.inf
    for m in range(N):
        for n in range(N):
            if m == n:
                continue
            block = B[m, n]
            if metric is Metric.CHORDAL:
                val = float(np.linalg.norm(block))
            elif metric is Metric.SPECTRAL:
                val = float(np.linalg.svd(block, compute_uv=False)[0])
            elif metric is Metric.FUBINI_STUDY:
                val = float(np.prod(np.linalg.svd(block, compute_uv=False)))
            elif metric is Metric.SPHERE:
                val = float(np.real(block[0, 0]))
            else:
                raise ValueError(metric)
            best = max(best, val)
    return best


def gather_chordal_cap(A, mu, K, N, shrink):
    """Reference chordal structural projection of a matrix or stack.

    Gathers each upper block in a double loop, scales it by
    (mu / ||block||_F) * (1 - shrink) when its norm exceeds mu, writes it and
    its conjugate transpose back, and sets identity diagonal blocks.
    """
    A = np.asarray(A)
    out = np.empty_like(A)
    for t in np.ndindex(A.shape[:-2]):
        B = as_blocks(A[t], K, N)
        C = np.zeros_like(B)
        for m in range(N):
            C[m, m] = np.eye(K)
            for n in range(m + 1, N):
                block = B[m, n]
                norm = float(np.linalg.norm(block))
                if norm > mu:
                    block = block * ((mu / norm) * (1.0 - shrink))
                C[m, n] = block
                C[n, m] = block.conj().T
        out[t] = from_blocks(C)
    return out
