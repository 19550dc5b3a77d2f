"""Alternating projection between the structural and spectral constraint sets.

One solve alternates nearest-point maps until the iterate's off-diagonal
block magnitudes fall within the target cap (plus a small slack), its gap
stalls, or the iteration budget runs out, then renormalizes diagonal blocks
and factors the result into a configuration, which it reports with the
largest block magnitude and packing diameter measured on its Gram matrix.  The
distance between successive iterate pairs (the gap) never increases, and
the iterates accumulate at fixed pairs, so a trial whose gap has fallen by
no more than ``_STALL_RTOL`` = 1e-10 of itself over the last
``_STALL_WINDOW`` = 500 iterations is parked and stops; its report's
``stop_reason`` says "stalled", where a trial that meets the cap says
"feasible" and one that runs out of iterations "budget".  The per-iteration
gap history is kept as the primary convergence diagnostic.

Independent trials of one shape run as a stack (``_alternate_stack``) of as
many as fit ``_STACK_ELEMENTS`` = 2**16 array elements (seven at KN = 96,
one at KN = 192): the iterates are one (T, KN, KN) array, and each iteration
splits them into blocks once, for both the stop check and the structural
projection (block norms for the chordal metric, closed-form singular values
for K = 2, an SVD otherwise), and makes one spectral projection, whose top
eigenvalues get the closed-form trace shift.  At KN >= ``_WARM_MIN_KN`` each
trial also carries its iterate's top-d eigenbasis (a (T, KN, d) stack pruned
and redone with the iterates), found by certified subspace iteration: the
first iteration starts it from the iterate's own leading d columns, and
later ones refine the carried basis, falling back to the full decomposition
for any trial whose certificate fails (``projections._warm_top`` states the
rounds and products this takes).
A trial that meets the cap or stalls leaves the stack; the stall rule reads
only that trial's gap history.  The finish (normalize, factor, measure the
frames' Gram matrix) runs once per stack, one batched call per step.  Each
trial's report is bit-identical to solving it alone, and ``alternate`` is
the one-trial call; so a stack in which any trial fails is solved again
trial by trial, and only the trials that fail alone fail.
Validation runs at the boundary: starts are ``GramMatrix`` entries, and each
final packing is a ``Configuration``.  Inside the loop the iterates are
Hermitian to rounding, not symmetrized, and not re-checked (see
``projections``); the finish symmetrizes the Gram matrices it measures.  A
trial fails when its gap is not finite, as it is exactly when its
structural iterate is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import (
    InvalidInput, NotPSD, NumericalFailure, RankDeficient, RankExceeded, SingularBlock,
)
from .geometry import (
    Configuration,
    Field,
    GramMatrix,
    Metric,
    _factor_stack,
    _gram_entries,
    _split_blocks,
    as_blocks,
    min_angle,
    rho_from_mu,
)
from .linalg import _frobenius_sq, symmetrize
from .projections import _SCAN, SpectralSetSpec, StructuralSetSpec, _cap_blocks, _spectral_stack

# Not called here, since the loop and the finish work on whole stacks of plain
# arrays, but the benchmark's tracer (perfbench/tracer.py) still wraps them.
from .geometry import factor, max_block_magnitude, packing_diameter  # noqa: F401
from .projections import project_spectral, project_structural  # noqa: F401

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
        if self.max_iterations < 1:
            raise InvalidInput("max_iterations must be >= 1")
        if not 0 <= self.stop_slack < math.inf:  # a NaN slack never lets a trial stop
            raise InvalidInput(f"stop_slack must be finite and >= 0, got {self.stop_slack}")
        if not (1 <= self.K <= self.d):
            raise InvalidInput(f"need 1 <= K <= d, got K={self.K}, d={self.d}")
        # Checks the metric, mu's range for it, and N.
        StructuralSetSpec(metric=self.metric, mu=self.mu, K=self.K, N=self.N)


@dataclass(frozen=True)
class SolveReport:
    """Diagnostics from one alternating-projection run.

    ``stop_reason`` is "feasible" when the loop's iterate met mu +
    ``stop_slack``, "stalled" when its gap stopped falling first, and
    "budget" when it ran all ``max_iterations``; only a "budget" trial has
    ``iterations_used == max_iterations``.  ``mu_achieved`` is measured
    afterwards, on the packing extracted from that iterate, so a "feasible"
    trial's ``mu_achieved`` can exceed mu + ``stop_slack``.
    """

    iterations_used: int
    gap_history: list = dataclass_field(repr=False)
    stop_reason: str  # "feasible", "stalled" or "budget"
    final_config: Configuration
    final_diameter: float  # packing diameter, or for sphere points the smallest angle
    mu_achieved: float  # largest off-diagonal block magnitude

    @property
    def stopped_early(self) -> bool:
        """Whether the iterate met mu within the budget."""
        return self.stop_reason == "feasible"


def normalize_diagonal(G: GramMatrix) -> GramMatrix:
    """Rescale so diagonal blocks become identities; preserves inertia.

    Computes D^{-1/2} G D^{-1/2} with D the block diagonal of G.  Each
    diagonal block must be Hermitian positive definite with smallest
    eigenvalue at least 1e-10, otherwise the run is reported as failed.
    """
    out = _normalize_stack(G.entries[None], G.K, G.N)[0]
    return GramMatrix(field=G.field, K=G.K, N=G.N, entries=out)


def _normalize_stack(A: np.ndarray, K: int, N: int) -> np.ndarray:
    """:func:`normalize_diagonal` of each member of a (T, KN, KN) stack,
    Hermitian to rounding; raises for the first block that fails."""
    idx = np.arange(N)
    w, U = np.linalg.eigh(as_blocks(A, K, N)[:, idx, idx])
    if np.any(w[..., 0] < 1e-10):
        t, n = np.argwhere(w[..., 0] < 1e-10)[0]
        raise SingularBlock(
            f"diagonal block {n} has eigenvalue {w[t, n, 0]:.3e}, too small to normalize"
        )
    W = np.zeros_like(A)
    as_blocks(W, K, N)[:, idx, idx] = (U / np.sqrt(w)[..., None, :]) @ np.swapaxes(U.conj(), -1, -2)
    # With a large W, W A W can miss the GramMatrix Hermitian tolerance.
    return symmetrize(W @ A @ W)


# Exceptions that fail one trial; the rest of its stack goes on.
TRIAL_FAILURES = (NumericalFailure, SingularBlock, NotPSD, RankExceeded, RankDeficient)

# Working-set budget of one trial stack, in array elements.
_STACK_ELEMENTS = 2**16

# A live trial stalls, and leaves its stack, once its gap has fallen by no
# more than _STALL_RTOL of its latest value over the last _STALL_WINDOW
# iterations; so no trial stalls before iteration _STALL_WINDOW + 1.
_STALL_WINDOW = 500
_STALL_RTOL = 1e-10


def _stack_trials(metric: Metric, K: int, N: int) -> int:
    """How many trials of this shape to solve in one stack.

    A trial's working set is its KN-by-KN iterate or, under Fubini-Study
    with K >= 3, the scan of its block solve (P pairs by 162 points by
    K - 1, bounded by P * 161 * K), whichever is larger; the K <= 2 block
    solves hold a few values per pair.  A stack holds as many trials as fit
    the budget, and at least one.
    """
    per_trial = (K * N) ** 2
    if metric is Metric.FUBINI_STUDY and K >= 3:
        per_trial = max(per_trial, N * (N - 1) // 2 * (_SCAN.size + 1) * K)
    return max(1, _STACK_ELEMENTS // per_trial)


def _iterate(G0s: np.ndarray, params: SolveParams) -> tuple:
    """The loop over a (T, KN, KN) stack of starts, with no fallback: the
    final iterates, iterations used, gap histories and stop reasons of its
    trials."""
    struct = StructuralSetSpec(metric=params.metric, mu=params.mu, K=params.K, N=params.N)
    spectral = SpectralSetSpec(d=params.d, trace_target=float(params.K * params.N))
    limit = params.mu + params.stop_slack
    T = len(G0s)
    finals: list = [None] * T
    iterations = [params.max_iterations] * T
    reasons = ["budget"] * T
    gaps: list = [[] for _ in range(T)]
    live = np.arange(T)
    G = np.asarray(G0s)
    V = None  # top eigenbases of the live iterates, when the spectral step keeps them
    for it in range(params.max_iterations):
        parts = _split_blocks(G, params.metric, params.K, params.N)
        feasible = parts[1].reshape(len(G), -1).max(1) <= limit
        done = feasible
        if it > _STALL_WINDOW:  # each trial reads only its own gap history
            done = feasible | [
                h[-_STALL_WINDOW - 1] - h[-1] <= _STALL_RTOL * h[-1]
                for h in map(gaps.__getitem__, live.tolist())
            ]
        if done.any():
            for t, final, met in zip(live[done].tolist(), G[done], feasible[done].tolist()):
                finals[t], iterations[t] = final, it
                reasons[t] = "feasible" if met else "stalled"
            keep = ~done
            live, G = live[keep], G[keep]
            parts = tuple(None if x is None else x[keep] for x in parts)
            V = None if V is None else V[keep]
            if not live.size:
                break
        H = _cap_blocks(G, struct, parts)
        step_gaps = np.sqrt(_frobenius_sq(G - H)).tolist()
        if not all(map(math.isfinite, step_gaps)):
            raise NumericalFailure("structural projection gave a non-finite iterate")
        G, V = _spectral_stack(H, spectral, V, column_start=True)
        for t, gap in zip(live.tolist(), step_gaps):
            gaps[t].append(gap)
    for a, t in enumerate(live):
        finals[t] = G[a]
    return np.stack(finals), iterations, gaps, reasons


def _finish(Gs: np.ndarray, iterations: list, gaps: list, reasons: list,
            params: SolveParams) -> list:
    """Normalize and factor a (T, KN, KN) stack of final iterates, then measure
    the frames' Gram matrices with the stop check's ``_split_blocks``, one
    batched call per step, checks kept per trial: their ``SolveReport``s."""
    K, N, T, metric = params.K, params.N, len(Gs), params.metric
    frames = _factor_stack(_normalize_stack(Gs, K, N), params.d, K, N)
    out = symmetrize(_gram_entries(frames))
    mu = np.max(_split_blocks(out, metric, K, N)[1].reshape(T, -1), axis=1).tolist()
    diameters = [min_angle(m, metric) if metric is Metric.SPHERE else rho_from_mu(m, metric, K)
                 for m in mu]
    field = Field.COMPLEX if np.iscomplexobj(Gs) else Field.REAL
    return [
        SolveReport(
            iterations_used=iterations[t], gap_history=gaps[t], stop_reason=reasons[t],
            final_config=Configuration(field=field, blocks=frames[t]),
            final_diameter=diameters[t], mu_achieved=mu[t],
        )
        for t in range(T)
    ]


def _alternate_stack(G0s: np.ndarray, params: SolveParams) -> list:
    """Run the alternating projection from T starts at once.

    ``G0s`` is a (T, KN, KN) stack of exactly Hermitian start matrices, such
    as ``GramMatrix`` entries.  Returns each trial's ``SolveReport``, or the
    ``TRIAL_FAILURES`` exception that failed it; other exceptions propagate.

    The one failure rule: a stack in which any trial fails, in the loop or
    the finish, is solved again trial by trial, so the other trials keep
    their (bit-identical) reports and a lone trial returns its exception, a
    ``LinAlgError`` as a NumericalFailure.  A failure adds an all-solo
    re-solve (2-core VM, seed 20): an ``fs_c4`` N=5 cell takes 0.30 s
    stacked and 2.08 s solo, ``lines_rp`` d=3 N=12 1.03 s and 2.58 s.
    """
    try:
        return _finish(*_iterate(G0s, params), params)
    except (*TRIAL_FAILURES, np.linalg.LinAlgError) as exc:
        if len(G0s) > 1:
            return [_alternate_stack(G0s[t : t + 1], params)[0] for t in range(len(G0s))]
        if isinstance(exc, np.linalg.LinAlgError):
            exc = NumericalFailure(f"decomposition of an iterate failed: {exc}")
        return [exc]


def alternate(G0: GramMatrix, params: SolveParams) -> SolveReport:
    """Run the alternating projection from an initial Gram matrix.

    Feasibility is checked on the current iterate before each structural
    projection, so a feasible starting matrix returns immediately with zero
    iterations; from iteration 501 on, a stalled gap history (see the module
    docstring) also ends the solve, with that iterate; "feasible" means it
    met mu + ``stop_slack``.  The packing factored from it, ``final_config``,
    has a Gram matrix ``gram(report.final_config)`` positive semidefinite
    with rank at most d and identity diagonal blocks.  ``final_diameter`` and
    ``mu_achieved`` are measured on it, and the latter may exceed mu +
    ``stop_slack``.
    """
    if (G0.K, G0.N) != (params.K, params.N):
        raise InvalidInput(
            f"initial gram has K={G0.K}, N={G0.N}; params expect K={params.K}, N={params.N}"
        )
    (report,) = _alternate_stack(G0.entries[None], params)
    if isinstance(report, Exception):
        raise report
    return report
