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
    write_configuration,
)
from grasspack.harness import _derive_trial_seed, evaluate_file
from grasspack.solver import (
    _STACK_ELEMENTS,
    _STALL_RTOL,
    _STALL_WINDOW,
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
    assert np.allclose(gram(rep.final_config).entries, np.eye(3), atol=1e-12)
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
    g = gram(rep.final_config)
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
    assert np.array_equal(gram(rep1.final_config).entries, gram(rep2.final_config).entries)


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


@pytest.mark.parametrize("slack", [math.nan, math.inf, -1e-9])
def test_solve_params_reject_a_bad_stop_slack(slack):
    # max <= mu + nan never holds, so a NaN slack would run every trial to the cap.
    with pytest.raises(InvalidInput, match="stop_slack"):
        SolveParams(metric=Metric.CHORDAL, mu=0.5, d=3, K=1, N=4, stop_slack=slack)


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
    assert a.stop_reason == b.stop_reason
    assert a.gap_history == b.gap_history
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
    # A cap past the stall window: one trial stalls (at 1,221), two meet mu
    # and three run to the cap.
    "real_chordal_lines_stall": (
        Metric.CHORDAL, Field.REAL, 3, 1, 8, math.cos(math.radians(49.64)), 2000,
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
    if case == "real_chordal_lines_stall":
        assert {r.stop_reason for r in stacked} == {"feasible", "stalled", "budget"}
    for G0, report in zip(starts, stacked):
        # A feasible or stalled trial leaves before the cap; only the budget ends at it.
        assert report.stop_reason in ("feasible", "stalled", "budget")
        assert (report.stop_reason == "budget") == (report.iterations_used == cap)
        assert report.stopped_early == (report.stop_reason == "feasible")
        assert_same_report(report, alternate(G0, params))


def _stalls_at(gaps, it):
    """The stall rule at the top of iteration ``it``, on the gaps before it."""
    return it > _STALL_WINDOW and (
        gaps[it - _STALL_WINDOW - 1] - gaps[it - 1] <= _STALL_RTOL * gaps[it - 1]
    )


def test_stalled_trial_leaves_at_its_first_stall():
    metric, field, d, K, N, mu, cap = STACK_CASES["real_chordal_lines_stall"]
    g0 = gram(initial_configuration(d, K, N, field, InitParams(tau=0.9, seed=0)))
    report = alternate(g0, SolveParams(metric=metric, mu=mu, d=d, K=K, N=N, max_iterations=cap))
    assert report.stop_reason == "stalled"
    assert not report.stopped_early
    gaps, used = report.gap_history, report.iterations_used
    assert len(gaps) == used
    assert _stalls_at(gaps, used)
    assert not any(_stalls_at(gaps, it) for it in range(used))
    assert report.mu_achieved > mu


@pytest.mark.parametrize("seed, trial", [(7, 2), (9, 1), (11, 5)])
def test_saddle_plateau_is_not_a_stall(seed, trial):
    # The d=3 N=5 line cell (reference 63.435 degrees) at these harness seeds
    # has one trial whose gap sits at 0.1763407 for about 350 iterations
    # before it falls to feasibility: a 300-iteration window would stop it.
    mu = math.cos(math.radians(63.435))
    init = InitParams(tau=0.9, seed=_derive_trial_seed(seed, trial))
    g0 = gram(initial_configuration(3, 1, 5, Field.REAL, init))
    report = alternate(g0, SolveParams(metric=Metric.CHORDAL, mu=mu, d=3, K=1, N=5))
    gaps = report.gap_history
    assert any(gaps[i - 300] - gaps[i] <= _STALL_RTOL * gaps[i] for i in range(300, len(gaps)))
    assert report.stop_reason == "feasible"


def test_at_bound_tail_is_not_a_stall():
    # At the Rankin bound the gap falls like 1/k: slowly, but never stalled.
    N, cap = 5, 1500
    mu = mu_from_rho(math.sqrt(rankin_chordal(4, 2, N, Field.COMPLEX).bound_value),
                     Metric.CHORDAL, 2)
    params = SolveParams(metric=Metric.CHORDAL, mu=mu, d=4, K=2, N=N, max_iterations=cap)
    starts = [
        gram(initial_configuration(4, 2, N, Field.COMPLEX, InitParams(tau=math.sqrt(2), seed=seed)))
        for seed in range(4)
    ]
    stacked = _alternate_stack(np.stack([g.entries for g in starts]), params)
    for G0, report in zip(starts, stacked):
        assert (report.stop_reason, report.iterations_used) == ("budget", cap)
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
def test_report_describes_the_returned_packing(case, tmp_path):
    # The report's block magnitude and diameter are those of the returned
    # configuration's Gram matrix, stacked and solo alike, and so is the
    # diameter `grasspack eval` reads from the saved configuration.
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
        assert report.mu_achieved == max_block_magnitude(g, metric)
        if metric is Metric.SPHERE:
            assert report.final_diameter == min_angle(report.mu_achieved, metric)
        else:
            assert report.final_diameter == packing_diameter(report.final_config, metric)
            write_configuration(report.final_config, tmp_path / "packing.json")
            saved = evaluate_file(tmp_path / "packing.json")
            assert saved["packing_diameters"][metric.value] == report.final_diameter


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


@pytest.mark.parametrize("N", [24, 96])
def test_at_bound_solve_makes_no_full_decomposition(N, monkeypatch):
    # The first spectral step starts warm from the iterate's own columns and
    # every later one from the previous basis; at the chordal bound each is
    # certified, so no iteration decomposes its iterate in full.
    bound = rankin_chordal(8, 2, N, Field.COMPLEX).bound_value
    mu = mu_from_rho(math.sqrt(bound), Metric.CHORDAL, 2)
    params = SolveParams(metric=Metric.CHORDAL, mu=mu, d=8, K=2, N=N, max_iterations=60)
    calls = []
    full_eig = projections.hermitian_eig
    monkeypatch.setattr(projections, "hermitian_eig", lambda A: calls.append(1) or full_eig(A))
    for seed in range(3):
        g0 = gram(initial_configuration(
            8, 2, N, Field.COMPLEX, InitParams(tau=math.sqrt(2), seed=seed),
        ))
        report = alternate(g0, params)
        assert calls == []
        assert report.iterations_used == 60
        # The loop's iterates are Hermitian only to rounding; what it reports is
        # measured on the exactly Hermitian Gram matrix of its packing.
        E = gram(report.final_config).entries
        assert np.array_equal(E, E.conj().T)
        assert report.mu_achieved == max_block_magnitude(gram(report.final_config), Metric.CHORDAL)


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
    # At most one fallback.
    assert len(calls) <= 1
    monkeypatch.setattr(projections, "_WARM_MIN_KN", 10**9)
    calls.clear()
    full = alternate(g0, params)
    assert len(calls) == full.iterations_used == warm.iterations_used == 60
    assert np.allclose(warm.gap_history, full.gap_history, rtol=1e-9, atol=0)
    assert warm.final_diameter == pytest.approx(full.final_diameter, rel=1e-9, abs=0)
