"""Alternating projection between the structural and spectral constraint sets.

One solve alternates nearest-point maps until the iterate's off-diagonal
block magnitudes fall within the target cap (plus a small slack) or the
iteration budget runs out, then renormalizes diagonal blocks and factors the
result into a configuration.  The distance between successive iterate pairs
never increases; the per-iteration gap history is kept as the primary
convergence diagnostic.

Independent trials of one shape run as a stack (``_alternate_stack``): the
iterates are one (T, KN, KN) array, and each iteration makes one block
decomposition, which serves both the stop check and the structural
projection, and one stacked eigendecomposition, whose eigenvalues get the
closed-form trace shift.  A trial that meets the cap leaves the stack; a
trial whose step fails fails alone.  Each trial's report is bit-identical to
solving it alone, and ``alternate`` is the one-trial call.  ``GramMatrix``
validation runs on each trial's final matrix; inside the loop, one stacked
check per iteration requires every structural iterate to be finite and
Hermitian.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import InvalidInput, NotPSD, NumericalFailure, RankExceeded, SingularBlock
from .geometry import (
    Configuration,
    Field,
    GramMatrix,
    Metric,
    factor,
    gram_entries_valid,
    max_block_magnitude,
    min_angle,
    packing_diameter,
)
from .linalg import symmetrize
from .projections import (
    _SCAN,
    SpectralSetSpec,
    StructuralSetSpec,
    _cap_blocks,
    _spectral_stack,
    _split_blocks,
    # Not called here since the loop works on plain arrays, but the
    # benchmark's tracer (perfbench/tracer.py) still wraps these names.
    project_spectral,  # noqa: F401
    project_structural,  # noqa: F401
)

__all__ = ["SolveParams", "SolveReport", "alternate", "normalize_diagonal"]


@dataclass(frozen=True)
class SolveParams:
    """Shape, target, and stopping parameters for one solve."""

    metric: Metric
    mu: float
    d: int
    K: int
    N: int
    max_iterations: int = 5000
    stop_slack: float = 1e-5

    def __post_init__(self):
        if self.metric is Metric.GEODESIC:
            raise InvalidInput("no structural projection exists for the geodesic metric")
        if self.max_iterations < 1:
            raise InvalidInput("max_iterations must be >= 1")
        if self.stop_slack < 0:
            raise InvalidInput("stop_slack must be >= 0")
        if not (1 <= self.K <= self.d):
            raise InvalidInput(f"need 1 <= K <= d, got K={self.K}, d={self.d}")
        if self.N < 2:
            raise InvalidInput(f"need N >= 2, got N={self.N}")


@dataclass(frozen=True)
class SolveReport:
    """Diagnostics from one alternating-projection run."""

    iterations_used: int
    gap_history: list = dataclass_field(repr=False)
    stopped_early: bool
    final_gram: GramMatrix
    final_config: Configuration
    final_diameter: float
    mu_achieved: float


def normalize_diagonal(G: GramMatrix) -> GramMatrix:
    """Rescale so diagonal blocks become identities; preserves inertia.

    Computes D^{-1/2} G D^{-1/2} with D the block diagonal of G.  Each
    diagonal block must be Hermitian positive definite with smallest
    eigenvalue at least 1e-10, otherwise the run is reported as failed.
    """
    K, N = G.K, G.N
    A = symmetrize(G.entries)
    W = np.zeros_like(A)
    for n in range(N):
        block = A[n * K : (n + 1) * K, n * K : (n + 1) * K]
        w, U = np.linalg.eigh(block)
        if float(w[0]) < 1e-10:
            raise SingularBlock(
                f"diagonal block {n} has eigenvalue {w[0]:.3e}, too small to normalize"
            )
        W[n * K : (n + 1) * K, n * K : (n + 1) * K] = (U / np.sqrt(w)) @ U.conj().T
    out = symmetrize(W @ A @ W)
    return GramMatrix(field=G.field, K=K, N=N, entries=out)


# Exceptions that fail one trial; the rest of its stack goes on.
TRIAL_FAILURES = (NumericalFailure, SingularBlock, NotPSD, RankExceeded)

# Working-set budget of one trial stack, in array elements.  Twice this
# budget saves a few percent of time on Fubini-Study cells but costs about
# 5% more peak memory.
_STACK_ELEMENTS = 2**14


def _stack_trials(metric: Metric, K: int, N: int) -> int:
    """How many trials of this shape to solve in one stack.

    A trial's working set is its KN-by-KN iterate or, under Fubini-Study,
    the multiplier scan of its block solve (P pairs by 161 points by K),
    whichever is larger.  A stack holds as many trials as fit the budget,
    and at least one.
    """
    per_trial = (K * N) ** 2
    if metric is Metric.FUBINI_STUDY:
        per_trial = max(per_trial, N * (N - 1) // 2 * (_SCAN.size + 1) * K)
    return max(1, _STACK_ELEMENTS // per_trial)


def _step(G, parts, struct: StructuralSetSpec, spectral: SpectralSetSpec):
    """Structural then spectral projection of a live stack, from the
    structural pass's parts: (gap per trial, next iterates)."""
    H = _cap_blocks(G, struct, parts)
    if not np.all(gram_entries_valid(H)):
        raise NumericalFailure("structural projection gave a non-finite or non-Hermitian iterate")
    gaps = np.linalg.norm(G - H, axis=(-2, -1))
    try:
        return gaps, _spectral_stack(H, spectral)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition of an iterate failed: {exc}") from exc


def _finish(G, field: Field, params: SolveParams, iterations: int, gaps: list, early: bool):
    G_out = normalize_diagonal(GramMatrix(field=field, K=params.K, N=params.N, entries=G))
    config = factor(G_out, params.d)
    mu_achieved = max_block_magnitude(G_out, params.metric)
    if params.metric is Metric.SPHERE:
        diameter = min_angle(mu_achieved, Metric.SPHERE)
    else:
        diameter = packing_diameter(config, params.metric)
    return SolveReport(
        iterations_used=iterations,
        gap_history=gaps,
        stopped_early=early,
        final_gram=G_out,
        final_config=config,
        final_diameter=diameter,
        mu_achieved=mu_achieved,
    )


def _alternate_stack(G0s: np.ndarray, params: SolveParams) -> list:
    """Run the alternating projection from T starts at once.

    ``G0s`` is a (T, KN, KN) stack of Hermitian start matrices.  Returns one
    entry per trial: its ``SolveReport``, or the ``TRIAL_FAILURES`` exception
    that failed it.  Any other exception propagates.

    When a stacked step fails, that step is redone trial by trial and only
    the trials that fail alone leave with their exception.
    """
    struct = StructuralSetSpec(metric=params.metric, mu=params.mu, K=params.K, N=params.N)
    spectral = SpectralSetSpec(d=params.d, trace_target=float(params.K * params.N))
    limit = params.mu + params.stop_slack
    T = len(G0s)
    outcome: list = [None] * T  # final iterate, or the exception that failed the trial
    iterations = [params.max_iterations] * T
    early = [False] * T
    gaps: list = [[] for _ in range(T)]
    live = np.arange(T)
    G = symmetrize(np.asarray(G0s))
    for it in range(params.max_iterations):
        parts = _split_blocks(G, params.metric, params.K, params.N)
        done = np.max(parts[1], axis=-1) <= limit
        if np.any(done):
            for a in np.flatnonzero(done):
                t = live[a]
                outcome[t], iterations[t], early[t] = G[a].copy(), it, True
            keep = ~done
            live, G = live[keep], G[keep]
            parts = tuple(None if x is None else x[keep] for x in parts)
            if not live.size:
                break
        try:
            step_gaps, G = _step(G, parts, struct, spectral)
        except NumericalFailure:
            solved = []
            for a, t in enumerate(live):
                one = tuple(None if x is None else x[a : a + 1] for x in parts)
                try:
                    solved.append((t, *_step(G[a : a + 1], one, struct, spectral)))
                except NumericalFailure as exc:
                    outcome[t] = exc
            if not solved:
                live = live[:0]
                break
            live = np.array([t for t, _, _ in solved])
            step_gaps = np.concatenate([g for _, g, _ in solved])
            G = np.concatenate([Gn for _, _, Gn in solved])
        for t, gap in zip(live.tolist(), step_gaps.tolist()):
            gaps[t].append(gap)
    for a, t in enumerate(live):
        outcome[t] = G[a]

    field = Field.COMPLEX if np.iscomplexobj(G0s) else Field.REAL
    reports = []
    for t in range(T):
        if isinstance(outcome[t], Exception):
            reports.append(outcome[t])
            continue
        try:
            reports.append(_finish(outcome[t], field, params, iterations[t], gaps[t], early[t]))
        except TRIAL_FAILURES as exc:
            reports.append(exc)
    return reports


def alternate(G0: GramMatrix, params: SolveParams) -> SolveReport:
    """Run the alternating projection from an initial Gram matrix.

    Feasibility is checked on the current iterate before each structural
    projection, so a feasible starting matrix returns immediately with zero
    iterations.  The returned Gram matrix is always positive semidefinite
    with rank at most d and identity diagonal blocks; whether the block
    magnitudes meet mu is reported through ``mu_achieved``, not asserted.
    """
    if (G0.K, G0.N) != (params.K, params.N):
        raise InvalidInput(
            f"initial gram has K={G0.K}, N={G0.N}; params expect K={params.K}, N={params.N}"
        )
    (report,) = _alternate_stack(G0.entries[None], params)
    if isinstance(report, Exception):
        raise report
    return report
