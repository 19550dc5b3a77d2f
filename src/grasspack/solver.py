"""Alternating projection between the structural and spectral constraint sets.

One solve alternates nearest-point maps until the iterate's off-diagonal
block magnitudes fall within the target cap (plus a small slack) or the
iteration budget runs out, then renormalizes diagonal blocks and factors the
result into a configuration.  The distance between successive iterate pairs
never increases; the per-iteration gap history is kept as the primary
convergence diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import InvalidInput, SingularBlock
from .geometry import (
    Configuration,
    GramMatrix,
    Metric,
    factor,
    max_block_magnitude,
    min_angle,
    packing_diameter,
)
from .linalg import symmetrize
from .projections import SpectralSetSpec, StructuralSetSpec, project_spectral, project_structural

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
    struct = StructuralSetSpec(metric=params.metric, mu=params.mu, K=params.K, N=params.N)
    spectral = SpectralSetSpec(d=params.d, trace_target=float(params.K * params.N))

    G = G0
    gaps: list[float] = []
    stopped_early = False
    iterations = 0
    for _ in range(params.max_iterations):
        if max_block_magnitude(G, params.metric) <= params.mu + params.stop_slack:
            stopped_early = True
            break
        H = project_structural(G, struct)
        gaps.append(float(np.linalg.norm(G.entries - H.entries)))
        G = project_spectral(H, spectral)
        iterations += 1

    G_out = normalize_diagonal(G)
    config = factor(G_out, params.d)
    mu_achieved = max_block_magnitude(G_out, params.metric)
    if params.metric is Metric.SPHERE:
        diameter = min_angle(mu_achieved, Metric.SPHERE)
    else:
        diameter = packing_diameter(config, params.metric)
    return SolveReport(
        iterations_used=iterations,
        gap_history=gaps,
        stopped_early=stopped_early,
        final_gram=G_out,
        final_config=config,
        final_diameter=diameter,
        mu_achieved=mu_achieved,
    )
