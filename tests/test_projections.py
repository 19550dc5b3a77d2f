import math

import numpy as np
import pytest

from grasspack.errors import InvalidInput
from grasspack.geometry import Field, GramMatrix, Metric, as_blocks, from_blocks
from grasspack.projections import (
    SpectralSetSpec,
    StructuralSetSpec,
    _water_fill,
    project_spectral,
    project_structural,
    solve_fs_block,
)

from tests.oracles import (
    fs_block_oracle_k2,
    random_hermitian,
    random_structural_member,
    spectral_member_distances,
)


def _gram_with_blocks(field, K, N, fill):
    """Hermitian matrix with identity diagonal blocks and given off blocks."""
    B = np.zeros((N, N, K, K), dtype=field.dtype)
    eye = np.eye(K, dtype=field.dtype)
    for m in range(N):
        B[m, m] = eye
        for n in range(m + 1, N):
            R = np.asarray(fill(m, n), dtype=field.dtype)
            B[m, n] = R
            B[n, m] = R.conj().T
    return GramMatrix(field=field, K=K, N=N, entries=from_blocks(B))


def _random_gramlike(field, K, N, rng, scale=1.0):
    A = random_hermitian(K * N, field, rng, scale=scale)
    B = as_blocks(A, K, N).copy()
    idx = np.arange(N)
    B[idx, idx] = np.eye(K, dtype=A.dtype)
    return GramMatrix(field=field, K=K, N=N, entries=from_blocks(B))


# --- structural projection ---------------------------------------------


def test_structural_feasible_input_unchanged():
    rng = np.random.default_rng(0)
    spec = StructuralSetSpec(metric=Metric.CHORDAL, mu=0.8, K=2, N=4)
    G = random_structural_member(Metric.CHORDAL, 0.8, 2, 4, Field.COMPLEX, rng)
    H = project_structural(G, spec)
    assert np.array_equal(H.entries, G.entries)


@pytest.mark.parametrize("metric", [Metric.CHORDAL, Metric.SPECTRAL])
def test_structural_idempotent_exact(metric):
    rng = np.random.default_rng(1)
    spec = StructuralSetSpec(metric=metric, mu=0.6, K=2, N=4)
    G = _random_gramlike(Field.COMPLEX, 2, 4, rng)
    H1 = project_structural(G, spec)
    H2 = project_structural(H1, spec)
    assert np.array_equal(H1.entries, H2.entries)


def test_structural_idempotent_sphere_exact():
    rng = np.random.default_rng(2)
    spec = StructuralSetSpec(metric=Metric.SPHERE, mu=0.5, K=1, N=5)
    G = _random_gramlike(Field.REAL, 1, 5, rng, scale=2.0)
    H1 = project_structural(G, spec)
    H2 = project_structural(H1, spec)
    assert np.array_equal(H1.entries, H2.entries)


def test_structural_idempotent_fs():
    rng = np.random.default_rng(3)
    spec = StructuralSetSpec(metric=Metric.FUBINI_STUDY, mu=0.3, K=2, N=4)
    G = _random_gramlike(Field.COMPLEX, 2, 4, rng)
    H1 = project_structural(G, spec)
    H2 = project_structural(H1, spec)
    assert np.linalg.norm(H1.entries - H2.entries) <= 1e-8


def test_structural_chordal_k1_scales_preserving_phase():
    phase = np.exp(1j * 0.7)
    G = _gram_with_blocks(Field.COMPLEX, 1, 2, lambda m, n: [[0.95 * phase]])
    H = project_structural(G, StructuralSetSpec(metric=Metric.CHORDAL, mu=0.9, K=1, N=2))
    entry = H.entries[0, 1]
    assert abs(entry) == pytest.approx(0.9, abs=1e-12)
    assert np.angle(entry) == pytest.approx(0.7, abs=1e-12)


def test_structural_sphere_clamps():
    vals = {(0, 1): -1.2, (0, 2): 0.95, (1, 2): 0.5}
    G = _gram_with_blocks(Field.REAL, 1, 3, lambda m, n: [[vals[(m, n)]]])
    H = project_structural(G, StructuralSetSpec(metric=Metric.SPHERE, mu=0.9, K=1, N=3))
    assert H.entries[0, 1] == pytest.approx(-1.0)
    assert H.entries[0, 2] == pytest.approx(0.9)
    assert H.entries[1, 2] == pytest.approx(0.5)
    assert np.allclose(np.diag(H.entries), 1.0)


def test_structural_spectral_truncates_singulars():
    rng = np.random.default_rng(4)
    U, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    V, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    block = U @ np.diag([1.3, 0.4]) @ V.T
    G = _gram_with_blocks(Field.REAL, 2, 2, lambda m, n: block)
    H = project_structural(G, StructuralSetSpec(metric=Metric.SPECTRAL, mu=0.5, K=2, N=2))
    expected = U @ np.diag([0.5, 0.4]) @ V.T
    assert np.allclose(H.block(0, 1), expected, atol=1e-10)


def test_structural_diagonal_identity_and_hermitian():
    rng = np.random.default_rng(5)
    G = _random_gramlike(Field.COMPLEX, 2, 4, rng, scale=1.5)
    for metric, mu in [(Metric.CHORDAL, 0.7), (Metric.SPECTRAL, 0.6), (Metric.FUBINI_STUDY, 0.4)]:
        H = project_structural(G, StructuralSetSpec(metric=metric, mu=mu, K=2, N=4))
        assert np.array_equal(H.entries, H.entries.conj().T)
        for n in range(4):
            assert np.array_equal(H.block(n, n), np.eye(2, dtype=complex))


@pytest.mark.parametrize(
    "metric,mu", [(Metric.CHORDAL, 0.7), (Metric.SPECTRAL, 0.55), (Metric.SPHERE, 0.4)]
)
def test_structural_nearest_point_beats_random_feasible(metric, mu):
    field = Field.REAL if metric is Metric.SPHERE else Field.COMPLEX
    K = 1 if metric is Metric.SPHERE else 2
    rng = np.random.default_rng(6)
    for _ in range(5):
        G = _random_gramlike(field, K, 4, rng, scale=1.2)
        H = project_structural(G, StructuralSetSpec(metric=metric, mu=mu, K=K, N=4))
        d_proj = np.linalg.norm(G.entries - H.entries)
        for _ in range(200):
            Y = random_structural_member(metric, mu, K, 4, field, rng)
            assert d_proj <= np.linalg.norm(G.entries - Y.entries) + 1e-10


@pytest.mark.parametrize("metric,mu", [(Metric.CHORDAL, 0.7), (Metric.SPECTRAL, 0.55)])
def test_structural_nonexpansive(metric, mu):
    rng = np.random.default_rng(7)
    spec = StructuralSetSpec(metric=metric, mu=mu, K=2, N=4)
    for _ in range(20):
        G1 = _random_gramlike(Field.COMPLEX, 2, 4, rng)
        G2 = _random_gramlike(Field.COMPLEX, 2, 4, rng)
        lhs = np.linalg.norm(
            project_structural(G1, spec).entries - project_structural(G2, spec).entries
        )
        assert lhs <= np.linalg.norm(G1.entries - G2.entries) + 1e-10


def test_structural_blockwise_decoupling():
    rng = np.random.default_rng(8)
    spec = StructuralSetSpec(metric=Metric.CHORDAL, mu=0.5, K=2, N=4)
    G = _random_gramlike(Field.COMPLEX, 2, 4, rng)
    H = project_structural(G, spec)
    B = as_blocks(G.entries, 2, 4).copy()
    B[1, 3] = B[1, 3] + 0.3
    B[3, 1] = B[1, 3].conj().T
    G2 = GramMatrix(field=Field.COMPLEX, K=2, N=4, entries=from_blocks(B))
    H2 = project_structural(G2, spec)
    diff = as_blocks(H.entries - H2.entries, 2, 4)
    for m in range(4):
        for n in range(4):
            changed = {(1, 3), (3, 1)}
            if (m, n) in changed:
                continue
            assert np.allclose(diff[m, n], 0.0, atol=1e-14)


def test_structural_fs_matrix_level_oracle():
    # off-diagonal block with singular values (0.9, 0.9) capped at mu = 0.5
    rng = np.random.default_rng(9)
    U, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    V, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    block = U @ np.diag([0.9, 0.9]) @ V.T
    G = _gram_with_blocks(Field.REAL, 2, 2, lambda m, n: block)
    H = project_structural(G, StructuralSetSpec(metric=Metric.FUBINI_STUDY, mu=0.5, K=2, N=2))
    achieved = 0.5 * np.linalg.norm(H.block(0, 1) - block) ** 2
    oracle = fs_block_oracle_k2(np.array([0.9, 0.9]), 0.5)
    assert achieved <= oracle + 1e-6
    assert abs(np.prod(np.linalg.svd(H.block(0, 1), compute_uv=False)) - 0.5) <= 1e-9


def test_structural_fs_mu_zero_truncates_rank():
    rng = np.random.default_rng(10)
    U, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    V, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    block = U @ np.diag([0.8, 0.5]) @ V.T
    G = _gram_with_blocks(Field.REAL, 2, 2, lambda m, n: block)
    H = project_structural(G, StructuralSetSpec(metric=Metric.FUBINI_STUDY, mu=0.0, K=2, N=2))
    sigma = np.linalg.svd(H.block(0, 1), compute_uv=False)
    assert sigma[0] == pytest.approx(0.8, abs=1e-12)
    assert sigma[1] == pytest.approx(0.0, abs=1e-12)


def test_structural_spec_validation():
    with pytest.raises(InvalidInput):
        StructuralSetSpec(metric=Metric.SPECTRAL, mu=1.2, K=2, N=3)
    with pytest.raises(InvalidInput):
        StructuralSetSpec(metric=Metric.GEODESIC, mu=0.5, K=2, N=3)
    with pytest.raises(InvalidInput):
        StructuralSetSpec(metric=Metric.SPHERE, mu=0.5, K=2, N=3)


# --- fs block solve ------------------------------------------------------


def test_fs_block_k1():
    x = solve_fs_block(np.array([0.9]), 0.5)
    assert math.exp(x[0]) == pytest.approx(0.5, abs=1e-10)


def test_fs_block_symmetric_unconstrained_regime():
    # with mu above the product floor of the symmetric branch the optimum
    # splits the budget evenly
    x = solve_fs_block(np.array([0.9, 0.9]), 0.5)
    assert np.allclose(x, math.log(0.5) / 2, atol=1e-10)


def test_fs_block_named_example_vs_golden_section():
    c = np.array([0.95, 0.60])
    x = solve_fs_block(c, 0.4)
    achieved = 0.5 * float(np.sum((np.exp(x) - c) ** 2))
    assert achieved <= fs_block_oracle_k2(c, 0.4) + 1e-8


def test_fs_block_random_vs_golden_section():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 40:
        c = rng.uniform(0.05, 1.2, size=2)
        mu = rng.uniform(1e-3, 0.95)
        if np.prod(c) <= mu * 1.001:
            continue
        checked += 1
        x = solve_fs_block(c, mu)
        achieved = 0.5 * float(np.sum((np.exp(x) - c) ** 2))
        assert achieved <= fs_block_oracle_k2(c, mu) + 1e-8
        # constraint active
        assert float(np.sum(x)) == pytest.approx(math.log(mu), abs=1e-9)


def test_fs_block_kkt_residual_constant():
    rng = np.random.default_rng(12)
    for _ in range(25):
        c = rng.uniform(0.05, 1.2, size=3)
        mu = rng.uniform(1e-3, 0.9)
        if np.prod(c) <= mu * 1.001:
            continue
        y = np.exp(solve_fs_block(c, mu))
        comp = y * (y - np.maximum(c, 1e-12))
        nu = float(np.mean(comp))
        assert float(np.max(np.abs(comp - nu))) <= 1e-8
        assert nu <= 1e-12  # multiplier pushes the product down


def test_fs_block_rejects_bad_args():
    with pytest.raises(InvalidInput):
        solve_fs_block(np.array([0.9, 0.9]), 0.0)
    with pytest.raises(InvalidInput):
        solve_fs_block(np.array([0.2, 0.2]), 0.9)  # already feasible


def _infeasible_rows(rng, K, mu, count):
    rows = []
    while len(rows) < count:
        c = rng.uniform(0.05, 1.2, size=K)
        if np.prod(c) > mu * 1.001:
            rows.append(c)
    return np.array(rows)


@pytest.mark.parametrize("K", [2, 3])
def test_fs_block_batched_matches_row_by_row(K):
    rng = np.random.default_rng(15)
    for mu in (0.02, 0.3):
        # Small and large mu: rows land on the all-larger branch and on
        # one-smaller-root branches.
        c = _infeasible_rows(rng, K, mu, 30)
        x = solve_fs_block(c, mu)
        assert x.shape == c.shape
        for row, xr in zip(c, x):
            assert np.max(np.abs(xr - solve_fs_block(row, mu))) <= 1e-12


def test_fs_block_batched_tiny_mu_vs_golden_section():
    mu = math.cos(0.9995 * math.pi / 2)
    rng = np.random.default_rng(16)
    c = _infeasible_rows(rng, 2, mu, 40)
    x = solve_fs_block(c, mu)
    for row, xr in zip(c, x):
        achieved = 0.5 * float(np.sum((np.exp(xr) - row) ** 2))
        assert achieved <= fs_block_oracle_k2(row, mu) + 1e-8
        assert float(np.sum(xr)) == pytest.approx(math.log(mu), abs=1e-9)


def test_fs_block_batched_rejects_any_feasible_row():
    c = np.array([[0.9, 0.9], [0.2, 0.2], [1.1, 0.8]])
    with pytest.raises(InvalidInput):
        solve_fs_block(c, 0.5)


def test_structural_fs_mixed_blocks():
    rng = np.random.default_rng(17)
    mu, N = 0.3, 6
    blocks = {}
    for m in range(N):
        for n in range(m + 1, N):
            U, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            V, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            s = rng.uniform(0.2, 0.5, 2) if (m + n) % 2 else rng.uniform(0.6, 1.1, 2)
            blocks[(m, n)] = U @ np.diag(s) @ V.conj().T
    G = _gram_with_blocks(Field.COMPLEX, 2, N, lambda m, n: blocks[(m, n)])
    H = project_structural(G, StructuralSetSpec(metric=Metric.FUBINI_STUDY, mu=mu, K=2, N=N))
    feasible = solved = 0
    for (m, n), block in blocks.items():
        if np.prod(np.linalg.svd(block, compute_uv=False)) <= mu:
            assert np.array_equal(H.block(m, n), G.block(m, n))
            feasible += 1
        else:
            sigma = np.linalg.svd(H.block(m, n), compute_uv=False)
            assert abs(np.prod(sigma) - mu) <= 1e-9
            solved += 1
    assert feasible > 0 and solved > 0


# --- spectral projection --------------------------------------------------


def test_spectral_hand_solved():
    out = project_spectral(np.diag([3.0, 1.0]), SpectralSetSpec(d=1, trace_target=2.0))
    assert np.allclose(out.entries, np.diag([2.0, 0.0]), atol=1e-10)


def test_spectral_fixed_point():
    out = project_spectral(np.eye(2), SpectralSetSpec(d=2, trace_target=2.0))
    assert np.allclose(out.entries, np.eye(2), atol=1e-10)


def test_spectral_degenerate_tie():
    out = project_spectral(np.eye(2), SpectralSetSpec(d=1, trace_target=2.0))
    w = np.linalg.eigvalsh(out.entries)
    assert w[-1] == pytest.approx(2.0, abs=1e-9)
    assert w[0] == pytest.approx(0.0, abs=1e-10)
    # any rank-one trace-2 PSD matrix is at distance sqrt(2) from I
    assert np.linalg.norm(out.entries - np.eye(2)) == pytest.approx(math.sqrt(2), abs=1e-9)


def test_spectral_beats_random_members():
    rng = np.random.default_rng(13)
    H = random_hermitian(8, Field.COMPLEX, rng, scale=2.0)
    out = project_spectral(H, SpectralSetSpec(d=3, trace_target=8.0))
    d_proj = np.linalg.norm(H - out.entries)
    dists = spectral_member_distances(H, 3, 8.0, 100_000, Field.COMPLEX, rng)
    assert d_proj <= float(np.min(dists)) + 1e-10


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_spectral_output_contracts(field):
    rng = np.random.default_rng(14)
    for _ in range(25):
        n = int(rng.integers(4, 10))
        d = int(rng.integers(1, n + 1))
        H = random_hermitian(n, field, rng, scale=1.5)
        target = float(n)
        out = project_spectral(H, SpectralSetSpec(d=d, trace_target=target))
        w = np.linalg.eigvalsh(out.entries)
        assert w[0] >= -1e-10
        assert np.trace(out.entries).real == pytest.approx(target, abs=1e-8 * target)
        assert np.sum(w > 1e-8 * max(w[-1], 1.0)) <= d


def test_spectral_rank_cap_exceeding_dimension_is_harmless():
    out = project_spectral(np.eye(2) * 0.3, SpectralSetSpec(d=5, trace_target=2.0))
    assert np.allclose(out.entries, np.eye(2), atol=1e-10)


def test_spectral_spec_validation():
    with pytest.raises(InvalidInput):
        SpectralSetSpec(d=0, trace_target=4.0)
    with pytest.raises(InvalidInput):
        SpectralSetSpec(d=2, trace_target=0.0)


def _shift_by_bisection(lam, target):
    """Reference: bisect for gamma with sum((lam - gamma)_+) = target."""
    lo, hi = float(lam[0]) - target - 1.0, float(lam[0])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sum(max(float(x) - mid, 0.0) for x in lam) > target:
            lo = mid
        else:
            hi = mid
    return np.maximum(np.asarray(lam) - 0.5 * (lo + hi), 0.0)


def test_water_fill_matches_bisection():
    rng = np.random.default_rng(21)
    cases = [
        ([3.0, 3.0, 3.0, 0.5, 0.5], 2.0),  # ties at the top
        ([2.0, 1.0, 1.0, 1.0, -0.5], 3.0),  # ties at the cut
        ([10.0, 1.0, 0.5, -1.0], 2.0),  # all but one eigenvalue floored
        ([0.5, 0.2, -0.3], 4.0),  # negative shift raises every eigenvalue
        ([1.0, 1.0], 2.0),  # zero shift
    ]
    for _ in range(200):
        n = int(rng.integers(1, 13))
        lam = np.sort(rng.standard_normal(n) * rng.uniform(0.1, 5.0))[::-1]
        cases.append((lam, float(rng.uniform(0.1, 2.0 * n))))
    for lam, target in cases:
        lam = np.asarray(lam, dtype=float)
        got = _water_fill(lam, target)
        assert np.max(np.abs(got - _shift_by_bisection(lam, target))) <= 1e-12 * target
        assert np.sum(got) == pytest.approx(target, rel=1e-12)
    stack = np.array([np.sort(rng.standard_normal(6))[::-1] for _ in range(4)])
    rows = np.array([_water_fill(row, 3.0) for row in stack])
    assert np.array_equal(_water_fill(stack, 3.0), rows)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_spectral_rank_cap_at_or_above_dimension_vs_bisection(field):
    rng = np.random.default_rng(22)
    for n, d in [(5, 5), (5, 9)]:
        H = random_hermitian(n, field, rng, scale=1.5)
        out = project_spectral(H, SpectralSetSpec(d=d, trace_target=float(n)))
        w, U = np.linalg.eigh(H)
        w_ref = _shift_by_bisection(w[::-1], float(n))[::-1]
        assert np.linalg.norm(out.entries - (U * w_ref) @ U.conj().T) <= 1e-12 * n
