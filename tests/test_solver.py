import math

import numpy as np
import pytest

import grasspack.projections as projections
from grasspack.bounds import mu_from_rho, rankin_chordal, rankin_spectral
from grasspack.errors import InvalidInput, NumericalFailure, SingularBlock
from grasspack.geometry import (
    Field,
    GramMatrix,
    Metric,
    factor,
    gram,
    max_block_magnitude,
    min_angle,
    packing_diameter,
)
from grasspack.solver import (
    _STACK_ELEMENTS,
    TRIAL_FAILURES,
    SolveParams,
    SolveReport,
    _alternate_stack,
    _stack_trials,
    alternate,
    normalize_diagonal,
)
from grasspack.starts import InitParams, initial_configuration

from tests.oracles import random_configuration


def _solve_random(metric, field, d, K, N, mu, seed, max_iterations=60):
    config = initial_configuration(
        d, K, N, field, InitParams(tau=math.sqrt(K), seed=seed),
        signed_similarity=False,
    )
    params = SolveParams(
        metric=metric, mu=mu, d=d, K=K, N=N, max_iterations=max_iterations
    )
    return alternate(gram(config), params)


def test_normalize_identity_diagonal_unchanged():
    rng = np.random.default_rng(0)
    config = random_configuration(4, 2, 3, Field.COMPLEX, rng)
    g = gram(config)
    out = normalize_diagonal(g)
    assert np.linalg.norm(out.entries - g.entries) < 1e-13


def test_normalize_scalar_example():
    A = np.array([[4.0, 1.0], [1.0, 1.0]])
    g = GramMatrix(field=Field.REAL, K=1, N=2, entries=A)
    out = normalize_diagonal(g)
    assert out.entries[0, 1] == pytest.approx(0.5, abs=1e-14)
    assert np.allclose(np.diag(out.entries), 1.0, atol=1e-14)


def test_normalize_preserves_inertia():
    rng = np.random.default_rng(1)
    for _ in range(10):
        M = rng.standard_normal((6, 6))
        A = M @ M.T + 0.5 * np.eye(6)  # positive definite
        g = GramMatrix(field=Field.REAL, K=2, N=3, entries=A)
        out = normalize_diagonal(g)
        w_in = np.linalg.eigvalsh(A)
        w_out = np.linalg.eigvalsh(out.entries)
        for tol in (1e-12,):
            assert np.sum(w_in > tol) == np.sum(w_out > tol)
            assert np.sum(w_in < -tol) == np.sum(w_out < -tol)


def test_normalize_singular_block():
    A = np.eye(2)
    A[1, 1] = 1e-13
    g = GramMatrix(field=Field.REAL, K=1, N=2, entries=A)
    with pytest.raises(SingularBlock):
        normalize_diagonal(g)


def test_alternate_identity_fixed_point():
    g0 = GramMatrix(field=Field.REAL, K=1, N=3, entries=np.eye(3))
    params = SolveParams(metric=Metric.CHORDAL, mu=0.5, d=4, K=1, N=3)
    rep = alternate(g0, params)
    assert rep.iterations_used == 0
    assert rep.stopped_early
    assert np.allclose(rep.final_gram.entries, np.eye(3), atol=1e-12)
    # orthogonal lines: chordal diameter sin(90 deg) = 1
    assert rep.final_diameter == pytest.approx(1.0, abs=1e-10)
    assert rep.mu_achieved == pytest.approx(0.0, abs=1e-12)


def test_alternate_reaches_known_line_packing():
    mu = math.cos(math.radians(70.529))
    best = 0.0
    for seed in range(10):
        config = initial_configuration(3, 1, 4, Field.REAL, InitParams(tau=0.9, seed=seed))
        rep = alternate(
            gram(config), SolveParams(metric=Metric.CHORDAL, mu=mu, d=3, K=1, N=4)
        )
        best = max(best, math.degrees(math.acos(rep.mu_achieved)))
    assert best >= 70.52


def test_alternate_gap_history_monotone():
    rep = _solve_random(Metric.CHORDAL, Field.COMPLEX, 4, 2, 5, mu=0.7, seed=3)
    gaps = rep.gap_history
    assert len(gaps) == rep.iterations_used
    assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))


def test_alternate_output_feasibility():
    rep = _solve_random(Metric.SPECTRAL, Field.REAL, 4, 2, 4, mu=0.6, seed=4)
    g = rep.final_gram
    w = np.linalg.eigvalsh(g.entries)
    assert w[0] >= -1e-8
    assert np.sum(w > 1e-6 * w[-1]) <= 4
    eye = np.eye(2)
    for n in range(4):
        assert np.allclose(g.block(n, n), eye, atol=1e-10)


def test_alternate_deterministic():
    config = initial_configuration(4, 2, 4, Field.COMPLEX, InitParams(tau=math.sqrt(2), seed=9))
    g0 = gram(config)
    params = SolveParams(metric=Metric.CHORDAL, mu=0.8, d=4, K=2, N=4, max_iterations=40)
    rep1 = alternate(g0, params)
    rep2 = alternate(g0, params)
    assert rep1.iterations_used == rep2.iterations_used
    assert rep1.gap_history == rep2.gap_history
    assert rep1.mu_achieved == rep2.mu_achieved
    assert np.array_equal(rep1.final_gram.entries, rep2.final_gram.entries)


def test_alternate_bound_sanity():
    cases = [
        (Metric.CHORDAL, Field.COMPLEX, 4, 2, 5, 0.6),
        (Metric.SPECTRAL, Field.REAL, 5, 2, 4, 0.5),
    ]
    for metric, field, d, K, N, mu in cases:
        rep = _solve_random(metric, field, d, K, N, mu=mu, seed=11, max_iterations=200)
        if metric is Metric.CHORDAL:
            bound = rankin_chordal(d, K, N, field).bound_value
        else:
            bound = rankin_spectral(d, K, N, field).bound_value
        assert rep.final_diameter**2 <= bound + 1e-6


def test_alternate_rejects_geodesic():
    with pytest.raises(InvalidInput):
        SolveParams(metric=Metric.GEODESIC, mu=0.5, d=3, K=1, N=4)


def test_alternate_shape_mismatch():
    g0 = GramMatrix(field=Field.REAL, K=1, N=3, entries=np.eye(3))
    params = SolveParams(metric=Metric.CHORDAL, mu=0.5, d=3, K=1, N=4)
    with pytest.raises(InvalidInput):
        alternate(g0, params)


def test_solve_report_is_frozen():
    rep = _solve_random(Metric.CHORDAL, Field.REAL, 3, 1, 3, mu=0.7, seed=1, max_iterations=20)
    assert isinstance(rep, SolveReport)
    with pytest.raises(AttributeError):
        rep.iterations_used = 7


def assert_same_report(a, b):
    """Bit-for-bit equality of two solve reports."""
    assert a.iterations_used == b.iterations_used
    assert a.gap_history == b.gap_history
    assert np.array_equal(a.final_gram.entries, b.final_gram.entries)
    assert np.array_equal(a.final_config.blocks, b.final_config.blocks)
    assert a.final_diameter == b.final_diameter
    assert a.mu_achieved == b.mu_achieved


def _below_bound_mu(N, fraction):
    # Below the chordal bound of N planes in C^8, so trials stop at
    # different iterations instead of all running to the cap.
    bound = rankin_chordal(8, 2, N, Field.COMPLEX).bound_value
    return mu_from_rho(math.sqrt(fraction * bound), Metric.CHORDAL, 2)


STACK_CASES = {
    "real_chordal_lines": (Metric.CHORDAL, Field.REAL, 3, 1, 7, math.cos(math.radians(54.5)), 300),
    # The largest full-decomposition K = 1 stack the benchmark runs (lines in
    # R^5, N = 19): three trials stop at 221-237 iterations, three at the cap.
    "real_chordal_lines_d5n19": (
        Metric.CHORDAL, Field.REAL, 5, 1, 19, math.cos(math.radians(52.0)), 300,
    ),
    "complex_chordal_kn48": (
        Metric.CHORDAL, Field.COMPLEX, 8, 2, 24, _below_bound_mu(24, 0.7), 150,
    ),
    # At this size numpy lays out a complex sum differently for one matrix
    # and for a stack, so this case checks that no result depends on layout.
    "complex_chordal_kn96": (
        Metric.CHORDAL, Field.COMPLEX, 8, 2, 48, _below_bound_mu(48, 0.55), 150,
    ),
    "complex_spectral": (Metric.SPECTRAL, Field.COMPLEX, 4, 2, 5, 0.75, 300),
    "complex_fubini_study": (
        Metric.FUBINI_STUDY, Field.COMPLEX, 4, 2, 4, math.cos(0.9995 * math.pi / 2), 100,
    ),
    "complex_fubini_study_k3": (Metric.FUBINI_STUDY, Field.COMPLEX, 6, 3, 4, 0.05, 100),
    # Real K = 2 blocks take the closed form with the phase sign(det B).
    "real_fubini_study": (
        Metric.FUBINI_STUDY, Field.REAL, 4, 2, 4, math.cos(0.9995 * math.pi / 2), 100,
    ),
    "real_spectral": (Metric.SPECTRAL, Field.REAL, 4, 2, 5, 0.75, 300),
    "sphere": (Metric.SPHERE, Field.REAL, 3, 1, 6, 0.1, 300),
}


@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_stacked_trials_match_solo_solves(case):
    metric, field, d, K, N, mu, cap = STACK_CASES[case]
    starts = [
        gram(initial_configuration(
            d, K, N, field, InitParams(tau=0.9 if K == 1 else math.sqrt(K), seed=seed),
            signed_similarity=metric is Metric.SPHERE,
        ))
        for seed in range(5 if K * N > 24 else 6)
    ]
    params = SolveParams(metric=metric, mu=mu, d=d, K=K, N=N, max_iterations=cap)
    stacked = _alternate_stack(np.stack([g.entries for g in starts]), params)
    # Trials leave the stack at different iterations.
    assert len({r.iterations_used for r in stacked}) > 1
    for G0, report in zip(starts, stacked):
        assert report.stopped_early == (report.iterations_used < cap)
        assert_same_report(report, alternate(G0, params))


REPORT_CASES = {
    "real_chordal_lines": (Metric.CHORDAL, Field.REAL, 3, 1, 7, math.cos(math.radians(54.5))),
    "complex_chordal_n6": (Metric.CHORDAL, Field.COMPLEX, 4, 2, 6, 0.8),
    "complex_chordal_n24": (Metric.CHORDAL, Field.COMPLEX, 8, 2, 24, _below_bound_mu(24, 0.7)),
    "complex_spectral": (Metric.SPECTRAL, Field.COMPLEX, 4, 2, 5, 0.75),
    "complex_fubini_study": (
        Metric.FUBINI_STUDY, Field.COMPLEX, 4, 2, 4, math.cos(0.9995 * math.pi / 2),
    ),
    "real_fubini_study_k3": (Metric.FUBINI_STUDY, Field.REAL, 6, 3, 4, 0.05),
    "sphere": (Metric.SPHERE, Field.REAL, 3, 1, 6, 0.1),
}


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_report_describes_the_returned_packing(case):
    # The report's Gram matrix, block magnitude and diameter are all those of
    # the returned configuration, stacked and solo alike.
    metric, field, d, K, N, mu = REPORT_CASES[case]
    starts = [
        gram(initial_configuration(
            d, K, N, field, InitParams(tau=0.9 if K == 1 else math.sqrt(K), seed=seed),
            signed_similarity=metric is Metric.SPHERE,
        ))
        for seed in range(3)
    ]
    params = SolveParams(metric=metric, mu=mu, d=d, K=K, N=N, max_iterations=40)
    stacked = _alternate_stack(np.stack([g.entries for g in starts]), params)
    for report in stacked + [alternate(g, params) for g in starts]:
        g = gram(report.final_config)
        assert np.array_equal(report.final_gram.entries, g.entries)
        assert report.mu_achieved == max_block_magnitude(g, metric)
        if metric is Metric.SPHERE:
            assert report.final_diameter == min_angle(report.mu_achieved, metric)
        else:
            want = packing_diameter(report.final_config, metric)
            assert report.final_diameter == pytest.approx(want, abs=1e-14, rel=0)


def _ill_conditioned_gram():
    # Block 0's smallest eigenvalue (about 2e-10) clears the 1e-10 floor,
    # but normalizing it leaves the block off the identity by more than 1e-6.
    rng = np.random.default_rng(0)
    X = rng.standard_normal((4, 6))
    X[:, 1] = 10 * X[:, 0] + 1e-4 * rng.standard_normal(4)
    return X.T @ X


def _good_gram():
    X = np.random.default_rng(1).standard_normal((4, 6))
    return X.T @ X


# Both starts already meet this cap, so they are finals at iteration 0.
FINISH_PARAMS = SolveParams(metric=Metric.CHORDAL, mu=0.5, d=4, K=2, N=3, stop_slack=1e9)


def test_ill_conditioned_final_fails_only_its_trial():
    bad, good = _ill_conditioned_gram(), _good_gram()
    reports = _alternate_stack(np.stack([bad, good]), FINISH_PARAMS)
    assert isinstance(reports[0], TRIAL_FAILURES)
    assert isinstance(reports[0], SingularBlock)
    (solo,) = _alternate_stack(good[None], FINISH_PARAMS)
    assert solo.iterations_used == 0
    assert_same_report(reports[1], solo)
    with pytest.raises(SingularBlock):  # alternate raises its one trial's failure
        alternate(GramMatrix(field=Field.REAL, K=2, N=3, entries=bad), FINISH_PARAMS)
    normalized = normalize_diagonal(GramMatrix(field=Field.REAL, K=2, N=3, entries=bad))
    with pytest.raises(InvalidInput, match="diagonal block 0"):
        factor(normalized, 4)


def test_failed_stacked_decomposition_is_redone_trial_by_trial(monkeypatch):
    import grasspack.solver as solver

    bad, good = _ill_conditioned_gram(), _good_gram()
    real = solver._normalize_stack

    def fragile(A, K, N):
        if len(A) > 1 or np.array_equal(A[0], bad):
            raise np.linalg.LinAlgError("injected")
        return real(A, K, N)

    (solo,) = _alternate_stack(good[None], FINISH_PARAMS)
    monkeypatch.setattr(solver, "_normalize_stack", fragile)
    reports = _alternate_stack(np.stack([bad, good]), FINISH_PARAMS)
    assert isinstance(reports[0], NumericalFailure)
    assert_same_report(reports[1], solo)


@pytest.mark.parametrize("N", [3, 5, 8])
def test_stack_trials_budget(N):
    # K <= 2 Fubini-Study block solves hold a few values per pair, so their
    # stacks are sized by the KN-by-KN iterate alone; K >= 3 keeps a
    # P-by-162-by-(K - 1) scan, which P * 161 * K bounds.
    for K in (1, 2):
        want = max(1, _STACK_ELEMENTS // (K * N) ** 2)
        assert _stack_trials(Metric.FUBINI_STUDY, K, N) == want
        assert _stack_trials(Metric.CHORDAL, K, N) == want
    scan = N * (N - 1) // 2 * 161 * 3
    assert _stack_trials(Metric.FUBINI_STUDY, 3, N) == max(1, _STACK_ELEMENTS // scan)
    assert _stack_trials(Metric.CHORDAL, 3, N) == _STACK_ELEMENTS // (3 * N) ** 2


def test_kn96_stack_case_takes_warm_path():
    # Both large stack cases check stacked-equals-solo on the warm path.
    for case in ("complex_chordal_kn48", "complex_chordal_kn96"):
        metric, field, d, K, N, mu, cap = STACK_CASES[case]
        assert K * N >= projections._WARM_MIN_KN


def test_line_solve_decomposes_once_per_iteration(monkeypatch):
    # Below _WARM_MIN_KN each iteration's spectral projection is one full
    # decomposition of the whole stack, through projections.hermitian_eig.
    metric, field, d, K, N, mu, cap = STACK_CASES["real_chordal_lines_d5n19"]
    assert K * N < projections._WARM_MIN_KN
    starts = np.stack([
        gram(initial_configuration(d, K, N, field, InitParams(tau=0.9, seed=seed))).entries
        for seed in range(6)
    ])
    params = SolveParams(metric=metric, mu=mu, d=d, K=K, N=N, max_iterations=cap)
    sizes = []
    eig = projections.hermitian_eig
    monkeypatch.setattr(projections, "hermitian_eig", lambda A: sizes.append(len(A)) or eig(A))
    stacked = _alternate_stack(starts, params)
    used = [r.iterations_used for r in stacked]
    # Each iteration decomposes the trials still in the stack, once.
    assert sizes == [sum(u > it for u in used) for it in range(max(used))]
    sizes.clear()
    solo = alternate(GramMatrix(field=field, K=K, N=N, entries=starts[2]), params)
    assert sizes == [1] * solo.iterations_used
    assert solo.stopped_early


def test_warm_spectral_solve_matches_full_solve(monkeypatch):
    _warm_solve_matches_full_solve(96, monkeypatch)


def test_warm_spectral_solve_matches_full_solve_kn48(monkeypatch):
    _warm_solve_matches_full_solve(24, monkeypatch)


def _warm_solve_matches_full_solve(N, monkeypatch):
    # d = 8 planes at the chordal bound, as in the benchmark's scaling cells.
    bound = rankin_chordal(8, 2, N, Field.COMPLEX).bound_value
    mu = mu_from_rho(math.sqrt(bound), Metric.CHORDAL, 2)
    g0 = gram(initial_configuration(8, 2, N, Field.COMPLEX, InitParams(tau=math.sqrt(2), seed=5)))
    params = SolveParams(metric=Metric.CHORDAL, mu=mu, d=8, K=2, N=N, max_iterations=60)
    calls = []
    full_eig = projections.hermitian_eig
    monkeypatch.setattr(projections, "hermitian_eig", lambda A: calls.append(1) or full_eig(A))
    warm = alternate(g0, params)
    # The cold start, and at most one fallback.
    assert 1 <= len(calls) <= 2
    monkeypatch.setattr(projections, "_WARM_MIN_KN", 10**9)
    calls.clear()
    full = alternate(g0, params)
    assert len(calls) == full.iterations_used == warm.iterations_used == 60
    assert np.allclose(warm.gap_history, full.gap_history, rtol=1e-9, atol=0)
    assert warm.final_diameter == pytest.approx(full.final_diameter, rel=1e-9, abs=0)
