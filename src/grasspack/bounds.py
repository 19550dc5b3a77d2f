"""Rankin-type upper bounds, and the diameter-to-cap conversions
:func:`mu_from_rho` and :func:`rho_from_mu`, re-exported from geometry.

The bounds come from embedding the packing space into a Euclidean sphere;
attaining them forces strong structure (equidistant or equi-isoclinic
configurations), so each report also carries the largest N for which
attainment is possible at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInput
from .geometry import Field, Metric, mu_from_rho, rho_from_mu

__all__ = [
    "BoundReport",
    "cell_bound",
    "rankin_chordal",
    "rankin_spectral",
    "rankin_projective",
    "mu_from_rho",
    "rho_from_mu",
]


@dataclass(frozen=True)
class BoundReport:
    """Upper bound on a squared packing diameter.

    ``bound_value`` is the squared diameter cap; for line packings
    ``degrees`` additionally expresses it as the minimum acute angle.
    ``attainability_limit`` is the largest N for which equality is possible;
    ``equidistance_implied`` records that meeting the bound forces all pairs
    to be equidistant (equi-isoclinic for the spectral bound).
    """

    bound_value: float
    attainable: bool
    attainability_limit: int
    equidistance_implied: bool
    degrees: float | None = None


def _check_subspace_args(d: int, K: int, N: int) -> None:
    if not (1 <= K < d):
        raise InvalidInput(f"need 1 <= K < d, got K={K}, d={d}")
    if N < 2:
        raise InvalidInput(f"need N >= 2, got N={N}")


def _report(bound: float, N: int, limit: int, degrees: float | None = None) -> BoundReport:
    """A bound whose equality forces equidistance, attainable for N <= limit."""
    return BoundReport(bound_value=bound, attainable=N <= limit, attainability_limit=limit,
                       equidistance_implied=True, degrees=degrees)


def rankin_chordal(d: int, K: int, N: int, field: Field) -> BoundReport:
    """Squared chordal packing diameter is at most K(d-K)/d * N/(N-1)."""
    _check_subspace_args(d, K, N)
    limit = d * (d + 1) // 2 if field is Field.REAL else d * d
    return _report((K * (d - K) / d) * (N / (N - 1)), N, limit)


def rankin_spectral(d: int, K: int, N: int, field: Field) -> BoundReport:
    """Squared spectral packing diameter is at most (d-K)/d * N/(N-1).

    Attainment forces an equi-isoclinic configuration, so the attainability
    limit is the Lemmens-Seidel cap on how many equi-isoclinic subspaces fit.
    """
    _check_subspace_args(d, K, N)
    if field is Field.REAL:
        limit = d * (d + 1) // 2 - K * (K + 1) // 2 + 1
    else:
        limit = d * d - K * K + 1
    return _report(((d - K) / d) * (N / (N - 1)), N, limit)


def rankin_projective(d: int, N: int, field: Field) -> BoundReport:
    """Line-packing bound: squared sine of the minimum angle is at most
    (d-1)N / (d(N-1)).  Configurations meeting it must be equiangular."""
    if d < 2:
        raise InvalidInput(f"need d >= 2, got d={d}")
    if N < 2:
        raise InvalidInput(f"need N >= 2, got N={N}")
    bound = ((d - 1) * N) / (d * (N - 1))
    limit = d * (d + 1) // 2 if field is Field.REAL else d * d
    return _report(bound, N, limit, math.degrees(math.asin(math.sqrt(min(bound, 1.0)))))


def cell_bound(space: str, metric: Metric, field: Field, d: int, K: int, N: int) -> BoundReport:
    """The Rankin bound that judges one packing cell.

    K = 1 subspaces are lines, so projective cells and K = 1 Grassmannian
    cells all get the line-packing bound, whatever the metric.  Larger K
    gets the chordal or spectral bound; every other cell has none.
    """
    if space == "projective" or (space == "grassmann" and K == 1):
        return rankin_projective(d, N, field)
    if space == "grassmann" and metric is Metric.CHORDAL:
        return rankin_chordal(d, K, N, field)
    if space == "grassmann" and metric is Metric.SPECTRAL:
        return rankin_spectral(d, K, N, field)
    raise InvalidInput(
        f"no bound is available for space={space}, metric={metric.value}; "
        "use an explicit mu or a reference file"
    )

