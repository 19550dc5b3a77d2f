import math

import numpy as np
import pytest

import grasspack.projections as projections
from grasspack.errors import InvalidInput, NumericalFailure
from grasspack.geometry import Field, GramMatrix, Metric, _split_blocks, as_blocks, from_blocks
from grasspack.linalg import symmetrize
from grasspack.projections import (
    SpectralSetSpec,
    StructuralSetSpec,
    _cap_blocks,
    _spectral_stack,
    _water_fill,
    project_spectral,
    project_structural,
    solve_fs_block,
)
from grasspack.starts import gaussian_matrix

from tests.oracles import (
    fs_block_oracle,
    fs_block_oracle_k2,
    gather_chordal_cap,
    random_hermitian,
    random_structural_member,
    spectral_member_distances,
    svd_block_cap,
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


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_chordal_cap_matches_gather_oracle(field, K):
    rng = np.random.default_rng(40 + K)
    T, N, mu = 3, 7, 0.6 * math.sqrt(K)
    A = np.stack([random_hermitian(K * N, field, rng, scale=0.5) for _ in range(T)])
    spec = StructuralSetSpec(metric=Metric.CHORDAL, mu=mu, K=K, N=N)
    H = _cap_blocks(A, spec, _split_blocks(A, Metric.CHORDAL, K, N))
    ref = gather_chordal_cap(A, mu, K, N, projections._FEAS_SHRINK)
    if field is Field.REAL and K == 1:
        assert np.array_equal(H, ref)
    else:
        # Block norms add their squares in another order than the oracle's.
        assert np.max(np.abs(H - ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(A))
    assert np.array_equal(H, np.swapaxes(H, -1, -2).conj())
    B, B_in = as_blocks(H, K, N), as_blocks(A, K, N)
    idx = np.arange(N)
    assert np.array_equal(B[:, idx, idx], np.broadcast_to(np.eye(K), (T, N, K, K)))
    iu, ju = np.triu_indices(N, 1)
    within = np.linalg.norm(B_in[:, iu, ju], axis=(-2, -1)) <= mu
    assert within.any() and not within.all()
    assert np.array_equal(B[:, iu, ju][within], B_in[:, iu, ju][within])
    assert np.all(np.linalg.norm(B[:, iu, ju], axis=(-2, -1)) <= mu)
    for t in range(T):
        alone = _cap_blocks(A[t], spec, _split_blocks(A[t], Metric.CHORDAL, K, N))
        assert np.array_equal(H[t], alone)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_chordal_cap_scales_bit_for_bit_as_masked_division(field):
    # The scale grid is mu / ||B|| * (1 - shrink) over the cap and 1 elsewhere,
    # the bits masked divide-and-multiply loops write; at mu = 0 the zero
    # diagonal norms divide 0 by 0 unread, with no RuntimeWarning.
    rng = np.random.default_rng(47)
    shrink = projections._FEAS_SHRINK
    for K, N, T, mu in [(1, 19, 3, 0.3), (2, 24, 4, 0.6), (2, 48, 2, 0.0), (2, 96, 1, 0.6), (3, 8, 2, 0.9)]:
        A = np.stack([random_hermitian(K * N, field, rng, scale=0.5) for _ in range(T)])
        spec = StructuralSetSpec(metric=Metric.CHORDAL, mu=mu, K=K, N=N)
        parts = _split_blocks(A, Metric.CHORDAL, K, N)
        mags = parts[1]
        over = mags > mu
        assert over.any() and (mu == 0.0 or not over[:, ~np.eye(N, dtype=bool)].all())
        scale = np.divide(mu, mags, out=np.ones_like(mags), where=over)
        np.multiply(scale, 1.0 - shrink, out=scale, where=over)
        ref = A * np.repeat(np.repeat(scale, K, axis=-1), K, axis=-2)
        idx = np.arange(N)
        as_blocks(ref, K, N)[:, idx, idx] = np.eye(K)
        H = _cap_blocks(A, spec, parts)
        assert np.array_equal(H.view(np.uint64), ref.view(np.uint64))


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


@pytest.mark.parametrize("K", [2, 3, 4])
def test_fs_block_batched_matches_row_by_row(K):
    rng = np.random.default_rng(15)
    for mu in (1e-6, 0.02, 0.3):
        # Small and large mu: the smallest value lands below and above
        # c_low / 2, and brackets [s_lo, ...] start below and above it.
        c = _infeasible_rows(rng, K, mu, 30)
        x = solve_fs_block(c, mu)
        assert x.shape == c.shape
        for row, xr in zip(c, x):
            assert np.array_equal(xr, solve_fs_block(row, mu))


def _close_roots_plane():
    """(c1, c2, mu) whose stationarity quartic s^3 (s - c2) + m (c1 s - m)
    has two roots 5e-7 apart near s = 0.45.

    With c2 = 0.8, m0 = sqrt(r^3 (2 c2 - 3 r)) and c1 = (3 c2 r^2 - 4 r^3) / m0
    the quartic has a double root at r = 0.45 in its convex part; lowering
    the cap by 1.4e-13 splits it.
    """
    r, c2 = 0.45, 0.8
    m0 = math.sqrt(r**3 * (2 * c2 - 3 * r))
    c1 = (3 * c2 * r * r - 4 * r**3) / m0
    return c1, c2, math.exp(math.log(m0 - 1.4e-13) + 1e-12)


PLANE_CASES = {
    "equal_c": (0.9, 0.9, 0.5),
    "equal_c_small_mu": (0.7, 0.7, 0.05),
    "mu_within_1e-9_of_product": (0.9, 0.6, 0.54 - 1e-9),
    "mu_1e-6": (0.95, 0.6, 1e-6),
    "mu_1e-6_small_c2": (0.9, 0.002, 1e-6),
    "no_concave_part": (0.9, 0.8, 0.5),
    "roots_5e-7_apart": _close_roots_plane(),
}


@pytest.mark.parametrize("case", sorted(PLANE_CASES))
def test_fs_plane_candidates_are_every_root(case):
    c1, c2, mu = PLANE_CASES[case]
    m = math.exp(math.log(mu) - 1e-12)
    c = np.array([c1, c2])
    x = solve_fs_block(c, mu)
    s = math.exp(x[1])
    # Every stationary point is a sign change of the multiplier mismatch
    # y2 (y2 - c2) - y1 (y1 - c1), with y1 = m / y2, over a dense grid,
    # refined around s = 0.45 where the close pair of roots sits.  The
    # solution is the first, and no other costs less.
    close = np.linspace(0.45 - 2e-6, 0.45 + 2e-6, 4001)
    grid = np.union1d(np.linspace(m / c1, c2, 200_001), close)
    grid = grid[(grid >= m / c1) & (grid <= c2)]
    y1 = m / grid
    mismatch = grid * (grid - c2) - y1 * (y1 - c1)
    brackets = np.nonzero(np.diff(np.sign(mismatch)) != 0)[0]
    assert len(brackets) >= 1
    assert grid[brackets[0]] - 1e-12 <= s <= grid[brackets[0] + 1] + 1e-12
    near = np.where(np.abs(mismatch[brackets]) <= np.abs(mismatch[brackets + 1]),
                    grid[brackets], grid[brackets + 1])
    costs = (m / near - c1) ** 2 + (near - c2) ** 2
    assert np.all(costs[0] <= costs[1:] + 1e-9)  # with c1 = c2, mirrored roots tie
    if case == "roots_5e-7_apart":
        assert len(brackets) == 3 and 0.0 < grid[brackets[2]] - grid[brackets[1]] < 1e-6
    if case == "no_concave_part":
        assert m / c1 >= c2 / 2
    achieved = 0.5 * float(np.sum((np.exp(x) - c) ** 2))
    assert achieved <= fs_block_oracle_k2(c, mu) + 1e-10


def test_fs_plane_run_out_of_steps_fails(monkeypatch):
    # Two steps leave the bracket [m / c1, c2] of the solution, near its
    # lower end, far from closed.
    c, mu = np.array([0.85, 0.66]), 0.85 * 0.66 * 1.2e-5
    assert np.exp(solve_fs_block(c, mu))[1] < 1e-5
    monkeypatch.setattr(projections, "_REFINE_STEPS", 2)
    with pytest.raises(NumericalFailure, match="no stationary point"):
        solve_fs_block(c, mu)


def _oracle_rows(rng, K):
    """(c, mu) rows: random, near-tied and exactly tied smallest values, and
    mu down to 1e-12."""
    rows = []
    while len(rows) < 24:
        c = rng.uniform(0.05, 1.2, K)
        kind = len(rows) % 4
        if kind == 1:
            c[np.argsort(c)[1]] = np.min(c) * (1.0 + 1e-9)
        elif kind == 2:
            c[np.argsort(c)[1]] = np.min(c)
        mu = 10.0 ** rng.uniform(-12.0, -6.0) if kind == 3 else 10.0 ** rng.uniform(-4.0, -0.05)
        if np.prod(c) > mu * 1.001:
            rows.append((c, mu))
    rows.append((np.full(K, 0.7), 1e-3))
    return rows


@pytest.mark.parametrize("K", [3, 4])
def test_fs_block_vs_multistart_oracle(K):
    rng = np.random.default_rng(40 + K)
    for c, mu in _oracle_rows(rng, K):
        x = solve_fs_block(c, mu)
        achieved = 0.5 * float(np.sum((np.exp(x) - c) ** 2))
        assert achieved <= fs_block_oracle(c, mu, rng) + 1e-10


# Rows whose residual phi(s) has three roots, the first and the last of
# them the cheapest.
SEVERAL_ROOTS = {
    "cheapest_last": (
        [1.0851343448005126, 1.0851343448005126, 1.0889657533111663, 1.1372779416049674],
        0.1586691149403538,
    ),
    "cheapest_first": (
        [0.8944728946630611, 0.8944728946630611, 0.8945261821517467, 1.032918803627723],
        0.07378209391896141,
    ),
}


@pytest.mark.parametrize("case", sorted(SEVERAL_ROOTS))
def test_fs_block_keeps_the_cheapest_of_several_roots(case):
    c, mu = (np.array(v) for v in SEVERAL_ROOTS[case])
    m = math.exp(math.log(mu) - 1e-12)
    low, rest = np.min(c), np.sort(c)[1:]
    s = np.linspace(m / np.prod(rest), low, 100_001)
    y = 0.5 * (rest[:, None] + np.sqrt(rest[:, None] ** 2 - 4.0 * s * (low - s)))
    phi = np.log(s) + np.sum(np.log(y), axis=0) - math.log(m)
    assert np.count_nonzero(np.diff(np.sign(phi))) == 3
    x = solve_fs_block(c, float(mu))
    achieved = 0.5 * float(np.sum((np.exp(x) - c) ** 2))
    assert achieved <= fs_block_oracle(c, float(mu), np.random.default_rng(0)) + 1e-10


def test_fs_block_barely_over_the_cap():
    # A block within a few ulps of the cap puts the root within rounding of
    # an end of its bracket [s_lo, c_low], where the rounded residual can
    # have the wrong sign or equal the other end's; a K=3 row also scans
    # points clipped to s_lo.
    eps = np.finfo(float).eps
    rows = [([0.5925873487845916, 0.24815580945443455], 0.14705399321024473)]
    rng = np.random.default_rng(21)
    for K in (2, 3):
        for _ in range(200):
            c = np.sort(rng.uniform(0.05, 1.0, K))[::-1]
            rows += [(c, np.prod(c) * math.exp(1e-12) * (1 - k * eps)) for k in (0, 1, 2, 13)]
    for c, mu in rows:
        if float(np.sum(np.log(c))) <= math.log(mu) - 1e-12:
            continue  # feasible once rounded
        x = solve_fs_block(np.array(c), mu)
        assert float(np.sum(x)) == pytest.approx(math.log(mu), abs=1e-9)


def test_fs_block_k3_matches_50_digit_optima():
    # Optima of the problem the solver solves, with the cap lowered by 1e-12
    # in log space, computed with mpmath at 50 digits: every sign change of
    # phi(s) on a dense scan of [s_lo, c_low] refined by findroot, keeping
    # the cheapest root.  The tied row puts its smaller root last.
    c = np.array([[0.9, 0.8, 0.7], [1.1, 0.3, 0.9], [0.95, 0.9, 0.2], [0.6, 0.6, 0.6]])
    expected = {
        0.1: [
            [-0.2623291488919345, -0.44040828501391, -1.5998476590892012],
            [0.07790105009872024, -2.2487684147934863, -0.13171772830027975],
            [-0.062119264871185846, -0.11744557341555317, -2.123020254708307],
            [-0.7675283643316819, -0.7675283643316819, -0.7675283643316819],
        ],
        1e-3: [
            [-0.10656384308915684, -0.22466724457202075, -6.576524191321959],
            [0.09506033609499637, -6.897081806985316, -0.10573380809281713],
            [-0.051551207200943035, -0.10564789417893057, -6.750556177603263],
            [-0.5155097825956912, -0.5155097825956912, -5.876735713791755],
        ],
    }
    for mu, want in expected.items():
        assert np.allclose(solve_fs_block(c, mu), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("c", [
    [math.nan, 0.5],
    [math.inf, 0.5],
    [[0.9, 0.9], [0.5, math.nan]],
    [math.nan, 0.5, 0.5],
    [[0.9, 0.9, 0.9], [0.5, math.inf, 0.5]],
])
def test_fs_block_non_finite_row_fails(c):
    with pytest.raises(NumericalFailure):
        solve_fs_block(np.array(c), 0.1)


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


def test_fs_block_final_step_lands_on_the_root():
    # The last Newton step of this row (3.4e-19) was shorter than half the
    # stop tolerance, so it was lengthened and overshot: both bracket ends
    # sat 2.5e-13 relative from the root.  The optimum below was computed
    # with mpmath at 50 digits, for the cap lowered by 1e-12 in log space.
    x = solve_fs_block(np.array([0.65275586, 0.65275586]), 8.797e-7)
    want = [-0.42655415863255839674373847186241247645616057520148,
            -13.517130738056224573642716945748292422378067940424]
    assert np.allclose(x, want, rtol=1e-14, atol=0.0)


# --- closed-form 2-by-2 blocks ------------------------------------------------


def _plane_blocks(field, rng, mu):
    """2-by-2 blocks U diag(s1, s2) V* and their kinds: random s, relative gaps
    1e-1 to 1e-10, exact ties (scaled unitaries), rank-1 and zero blocks, and
    blocks a few ulps over a Fubini-Study and a spectral cap mu."""
    def unitary():
        return np.linalg.qr(gaussian_matrix(2, 2, field, rng))[0]

    eps = np.finfo(float).eps
    values, kinds = [], []
    for gap in ["random", 1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 0.0]:
        for _ in range(6):
            s1 = rng.uniform(0.3, 1.0)
            values.append((s1, rng.uniform(0.0, s1) if gap == "random" else s1 * (1.0 - gap)))
            kinds.append(gap)
    values += [(rng.uniform(0.3, 1.0), 0.0) for _ in range(4)] + [(0.0, 0.0)]
    kinds += ["rank-1"] * 4 + ["zero"]
    for k in (1, 2, 3):
        values += [(0.9, mu / 0.9 * (1.0 + k * eps)), (mu * (1.0 + k * eps), 0.3 * mu)]
        kinds += ["ulps over"] * 2
    return np.array([(unitary() * s) @ unitary().conj().T for s in values]), kinds


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize(
    "metric,mu",
    [(Metric.FUBINI_STUDY, 7.85e-4), (Metric.FUBINI_STUDY, 0.05), (Metric.SPECTRAL, 0.5)],
)
def test_plane_closed_form_matches_svd_oracle(field, metric, mu):
    blocks, kinds = _plane_blocks(field, np.random.default_rng(50), mu)
    N = 13  # 78 pairs: every block once, the rest zero
    pairs = dict(zip(zip(*np.triu_indices(N, 1)), blocks))
    G = _gram_with_blocks(field, 2, N, lambda m, n: pairs.get((m, n), np.zeros((2, 2))))
    spec = StructuralSetSpec(metric=metric, mu=mu, K=2, N=N)
    parts = _split_blocks(G.entries, metric, 2, N)
    assert parts[2] is None and parts[4] is None  # no SVD was taken
    P = len(blocks)
    got = as_blocks(_cap_blocks(G.entries, spec, parts), 2, N)[np.triu_indices(N, 1)][:P]
    mags, want, _ = svd_block_cap(blocks, metric, mu, projections._FEAS_SHRINK)
    scale = np.maximum(np.linalg.norm(blocks, axis=(1, 2)), 1e-300)
    assert np.all(np.abs(parts[1][:P] - mags) <= 1e-13 * scale)
    assert np.all(np.linalg.norm(got - want, axis=(1, 2)) <= 1e-13 * scale)
    over = parts[1][:P] > mu
    assert over[[k == 0.0 for k in kinds]].any() and over[[k == "ulps over" for k in kinds]].any()
    # Blocks whose cap is too steep for the closed form take LAPACK's singular
    # vectors, bit-identically, with the capped values y of the closed form.
    s = parts[3][:P][over]
    if metric is Metric.SPECTRAL:
        y = np.minimum(s, mu * (1.0 - projections._FEAS_SHRINK))
    else:
        y = np.exp(solve_fs_block(s, mu))
    steep = np.abs(y[:, 0] - y[:, 1]) > projections._PLANE_SLOPE * np.abs(s[:, 0] - s[:, 1])
    rows = np.flatnonzero(over)[steep]
    assert steep.any() == (metric is Metric.FUBINI_STUDY)
    assert {kinds[p] for p in rows} <= {1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 0.0}
    if rows.size:
        capped = svd_block_cap(blocks[rows], metric, mu, 0.0, y=y[steep])[1]
        assert np.array_equal(got[rows], capped)


# --- spectral projection --------------------------------------------------


def test_spectral_hand_solved():
    out = project_spectral(np.diag([3.0, 1.0]), SpectralSetSpec(d=1, trace_target=2.0))
    assert np.allclose(out.entries, np.diag([2.0, 0.0]), atol=1e-10)


def test_spectral_raw_array_must_be_hermitian():
    spec = SpectralSetSpec(d=1, trace_target=2.0)
    H = np.diag([3.0, 1.0])
    H[0, 1] = 1e-12  # within tolerance: projected as its Hermitian part
    want = project_spectral(np.array([[3.0, 5e-13], [5e-13, 1.0]]), spec).entries
    assert np.array_equal(project_spectral(H, spec).entries, want)
    H[0, 1] = 1e-6
    with pytest.raises(InvalidInput):
        project_spectral(H, spec)
    with pytest.raises(InvalidInput):
        project_spectral(np.ones((2, 3)), spec)


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


# --- warm-started spectral projection ---------------------------------------


@pytest.fixture
def eig_calls(monkeypatch):
    """Counts the full decompositions the spectral projection makes."""
    calls = []
    full = projections.hermitian_eig
    monkeypatch.setattr(projections, "hermitian_eig", lambda A: calls.append(len(A)) or full(A))
    return calls


def _near_rank_d(n, d, field, rng, top=(2.0, 4.0), rest=(-0.05, 0.05)):
    """Hermitian U diag(lam) U* with d eigenvalues drawn from ``top`` and the
    others from ``rest``, as (matrix, eigenvectors, eigenvalues)."""
    U = np.linalg.qr(gaussian_matrix(n, n, field, rng))[0]
    lam = rng.uniform(*rest, n)
    lam[:d] = rng.uniform(*top, d)
    return symmetrize((U * lam) @ U.conj().T), U, lam


def _perturbed_basis(U, rng, eps=1e-3):
    n, d = U.shape
    field = Field.COMPLEX if np.iscomplexobj(U) else Field.REAL
    return np.linalg.qr(U + eps * gaussian_matrix(n, d, field, rng))[0]


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_warm_spectral_matches_full(field, eig_calls):
    rng = np.random.default_rng(31)
    # (n, d, lam_min): |lam_min| below lam_d is certified warm; above it the
    # certificate's gap bound is negative, so the full path must take over.
    for n, d, lam_min in [(96, 8, None), (120, 5, None), (100, 8, -0.5), (96, 8, -5.0)]:
        H, U, lam = _near_rank_d(n, d, field, rng)
        if lam_min is not None:
            lam[-1] = lam_min
            H = symmetrize((U * lam) @ U.conj().T)
            assert (abs(lam_min) > np.sort(lam)[-d]) == (lam_min == -5.0)
        spec = SpectralSetSpec(d=d, trace_target=float(n))
        eig_calls.clear()
        P, V = _spectral_stack(H[None], spec, _perturbed_basis(U[:, :d], rng)[None])
        assert eig_calls == ([1] if lam_min == -5.0 else [])
        P_full, _ = _spectral_stack(H[None], spec)
        assert np.max(np.abs(P - P_full)) <= 1e-10
        assert np.allclose(np.swapaxes(V, -1, -2).conj() @ V, np.eye(d), atol=1e-12)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_warm_spectral_falls_back_bit_identically(field, eig_calls, monkeypatch):
    rng = np.random.default_rng(32)
    n, d = 96, 6
    spec = SpectralSetSpec(d=d, trace_target=float(n))
    # A start orthogonal to the top subspace: roundoff alone would need far
    # more than the step budget to turn it.
    H_far, U, _ = _near_rank_d(n, d, field, rng, top=(3.0, 4.0), rest=(-1.0, 1.0))
    V_far = U[:, d : 2 * d]
    # lam_d = lam_{d+1}: no gap, so nothing can be certified.
    H_tie, U, lam = _near_rank_d(n, d, field, rng)
    lam[d - 1] = lam[d] = 3.0
    H_tie = symmetrize((U * lam) @ U.conj().T)
    V_tie = _perturbed_basis(U[:, :d], rng)
    H_ok, U, _ = _near_rank_d(n, d, field, rng)
    V_ok = _perturbed_basis(U[:, :d], rng)
    for H, V in [(H_far, V_far), (H_tie, V_tie)]:
        eig_calls.clear()
        warm = _spectral_stack(H[None], spec, V[None])
        assert eig_calls == [1]
        full = _spectral_stack(H[None], spec)
        assert all(np.array_equal(a, b) for a, b in zip(warm, full))
    # In a stack, each trial is projected as it would be alone.
    stack = _spectral_stack(np.stack([H_ok, H_tie, H_far]), spec, np.stack([V_ok, V_tie, V_far]))
    for k, (H, V) in enumerate([(H_ok, V_ok), (H_tie, V_tie), (H_far, V_far)]):
        alone = _spectral_stack(H[None], spec, V[None])
        assert all(np.array_equal(a[k], b[0]) for a, b in zip(stack, alone))
    # A decomposition that raises sends even a start it would certify down the full path.
    def qr_fails(*args, **kwargs):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(np.linalg, "qr", qr_fails)
    eig_calls.clear()
    warm = _spectral_stack(H_ok[None], spec, V_ok[None])
    assert eig_calls == [1]
    full = _spectral_stack(H_ok[None], spec)
    assert all(np.array_equal(a, b) for a, b in zip(warm, full))


@pytest.fixture
def qr_calls(monkeypatch):
    """Counts the QR factorizations, one per warm round."""
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda A, *a, **k: calls.append(1) or qr(A, *a, **k))
    return calls


def _counting_products(H):
    """``H`` as an array that counts the products taken with it on the left,
    and the list they are counted in; the products, and H read through
    np.asarray, are plain arrays."""
    products = []

    class CountsProducts(np.ndarray):
        def __matmul__(self, other):
            products.append(1)
            return np.asarray(self) @ other

    return H.view(CountsProducts), products


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_warm_spectral_budget_before_fallback(field, eig_calls, qr_calls):
    # The far start of test_warm_spectral_falls_back_bit_identically.
    rng = np.random.default_rng(32)
    n, d = 96, 6
    H, U, _ = _near_rank_d(n, d, field, rng, top=(3.0, 4.0), rest=(-1.0, 1.0))
    spec = SpectralSetSpec(d=d, trace_target=float(n))
    qr_calls.clear()
    counted, products = _counting_products(H[None])
    warm = _spectral_stack(counted, spec, U[None, :, d : 2 * d])
    assert eig_calls == [1]
    assert 1 <= len(qr_calls) <= projections._WARM_STEPS
    # One product to start, then six per round.
    assert len(products) == 1 + 6 * len(qr_calls) <= 1 + 6 * projections._WARM_STEPS
    full = _spectral_stack(H[None], spec)
    assert all(np.array_equal(a, b) for a, b in zip(warm, full))


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_warm_spectral_certifies_in_one_round(field, eig_calls, qr_calls):
    # A start within 1e-3 of the top subspace, as the previous iterate's basis
    # is in a solve, is certified by its first six-product round.
    rng = np.random.default_rng(34)
    n, d = 96, 8
    H, U, _ = _near_rank_d(n, d, field, rng)
    V = _perturbed_basis(U[:, :d], rng, eps=1e-3)
    qr_calls.clear()
    counted, products = _counting_products(H[None])
    (P,), _ = _spectral_stack(counted, SpectralSetSpec(d=d, trace_target=float(n)), V[None])
    assert eig_calls == []
    assert len(qr_calls) == 1
    assert len(products) == 7
    P_full = _spectral_stack(H[None], SpectralSetSpec(d=d, trace_target=float(n)))[0][0]
    assert np.max(np.abs(P - P_full)) <= 1e-10


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_spectral_projection_is_hermitian_to_rounding(field):
    # The loop's iterates are not symmetrized: on each path (full, warm from
    # a basis, warm from the matrix's own columns) V diag(w) V* must be
    # Hermitian to rounding, as the kernels that read it assume.
    rng = np.random.default_rng(35)
    for n, d in [(24, 4), (96, 8), (192, 8)]:
        H, U, _ = _near_rank_d(n, d, field, rng)
        spec = SpectralSetSpec(d=d, trace_target=float(n))
        V = _perturbed_basis(U[:, :d], rng)[None]
        for P in [_spectral_stack(H[None], spec)[0],
                  _spectral_stack(H[None], spec, V)[0],
                  _spectral_stack(H[None], spec, column_start=True)[0]]:
            assert np.max(np.abs(P - P.conj().swapaxes(-1, -2))) <= 1e-14 * np.max(np.abs(P))


def test_warm_spectral_output_contracts(eig_calls):
    rng = np.random.default_rng(33)
    for i in range(100):
        field = Field.COMPLEX if i % 2 else Field.REAL
        n = int(rng.integers(96, 112))
        d = int(rng.integers(2, 13))
        H, U, _ = _near_rank_d(n, d, field, rng, rest=(-0.2, 0.2))
        spec = SpectralSetSpec(d=d, trace_target=float(n))
        (P,), _ = _spectral_stack(H[None], spec, _perturbed_basis(U[:, :d], rng)[None])
        w = np.linalg.eigvalsh(P)
        assert w[0] >= -1e-10
        assert np.trace(P).real == pytest.approx(n, abs=1e-8 * n)
        assert np.sum(w > 1e-8 * max(w[-1], 1.0)) <= d
    assert eig_calls == []  # every output above came from the warm path
