"""Random subspace generation and rejection-sampled starting configurations.

Subspaces are drawn uniformly by orthonormalizing Gaussian matrices; the
starting-point sampler keeps a draw only when it is sufficiently far from
everything accepted so far, and gives up (with a count of what it managed)
once the draw budget is spent.  It serves several seeds at once, each
drawing batches from its own stream, and keeps exactly what one
:func:`random_subspace` call per draw would keep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InitFailure, InvalidInput, RankDeficient
from .geometry import Configuration, Field
from .linalg import _qr_stack, qr_orthonormal

__all__ = ["InitParams", "random_subspace", "initial_configuration", "gaussian_matrix"]


@dataclass(frozen=True)
class InitParams:
    """Similarity cap, draw budget, and seed for the rejection sampler."""

    tau: float
    max_draws: int = 10000
    seed: int = 0

    def __post_init__(self):
        if not self.tau > 0:
            raise InvalidInput(f"tau must be positive, got {self.tau}")
        if self.max_draws < 1:
            raise InvalidInput("max_draws must be >= 1")


def gaussian_matrix(d: int, K: int, field: Field, rng: np.random.Generator) -> np.ndarray:
    """d-by-K matrix of iid standard normal entries.

    Complex entries have independent real and imaginary parts of variance
    1/2 each, so the complex variance is one and the distribution is
    invariant under left multiplication by any fixed unitary.
    """
    return _gaussian_stack(1, d, K, field, rng)[0]


def _gaussian_stack(B: int, d: int, K: int, field: Field, rng: np.random.Generator) -> np.ndarray:
    """B :func:`gaussian_matrix` draws, the same stream as B calls."""
    if field is Field.COMPLEX:
        Z = rng.standard_normal((B, 2, d, K))
        return math.sqrt(0.5) * (Z[:, 0] + 1j * Z[:, 1])
    return rng.standard_normal((B, d, K))


def random_subspace(d: int, K: int, field: Field, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal frame for a uniformly random K-dimensional subspace."""
    if not 1 <= K <= d:
        raise InvalidInput(f"need 1 <= K <= d, got K={K}, d={d}")
    while True:
        try:
            return qr_orthonormal(gaussian_matrix(d, K, field, rng))
        except RankDeficient:
            continue  # probability-zero event; redraw


def _similarities(Y: np.ndarray, X: np.ndarray, signed: bool) -> np.ndarray:
    """(B, A) similarities of frames X (B, d, K) to Y (A, d, K), each rounded
    as for one pair alone: ||Y*X||_F, or with ``signed`` Re (Y*X)[0, 0]."""
    P = np.swapaxes(Y.conj(), -1, -2) @ X[:, None]
    if signed:
        return P.real[..., 0, 0]
    v = P.reshape(P.shape[:2] + (1, P.shape[-2] * P.shape[-1]))
    sq = v.real @ np.swapaxes(v.real, -1, -2) + v.imag @ np.swapaxes(v.imag, -1, -2)
    return np.sqrt(sq[..., 0, 0])


def initial_configuration(
    d: int,
    K: int,
    N: int,
    field: Field,
    params: InitParams,
    *,
    signed_similarity: bool = False,
) -> Configuration:
    """Draw subspaces until N mutually dissimilar ones are accepted.

    Similarity between frames is the Frobenius norm of their product, so
    tau = sqrt(K) places no restriction.  With ``signed_similarity`` (unit
    vectors on a sphere, K = 1) the signed inner product is capped instead,
    which keeps antipodal near-duplicates apart from genuine neighbors.
    Raises InitFailure carrying the accepted count once ``max_draws`` draws
    are consumed.  Deterministic for a fixed seed.
    """
    (start,) = _initial_configurations(d, K, N, field, [params], signed_similarity)
    if isinstance(start, InitFailure):
        raise start
    return start


def _initial_configurations(d, K, N, field: Field, inits: list, signed: bool) -> list:
    """:func:`initial_configuration` for each of several ``InitParams``: its
    Configuration or InitFailure.  A batch holds the draws still needed or
    the draws made so far, whichever is more, and at most 32."""
    if any(p.tau > math.sqrt(K) + 1e-12 for p in inits):
        raise InvalidInput(f"tau exceeds the maximum similarity sqrt(K) = {math.sqrt(K):.6g}")
    if signed and K != 1:
        raise InvalidInput("signed similarity applies to K = 1 points only")
    if not 1 <= K <= d:
        raise InvalidInput(f"need 1 <= K <= d, got K={K}, d={d}")
    rngs = [np.random.default_rng(p.seed) for p in inits]
    kept = [np.empty((0, d, K), field.dtype)] * len(inits)
    drawn, out = [0] * len(inits), [None] * len(inits)
    live = range(len(inits))
    while live:
        sizes = [min(inits[t].max_draws - drawn[t], max(N - len(kept[t]), drawn[t]), 32)
                 for t in live]
        draws = [_gaussian_stack(B, d, K, field, rngs[t]) for t, B in zip(live, sizes)]
        frames, ratio = _qr_stack(np.concatenate(draws))
        cuts = np.cumsum(sizes)[:-1]
        for t, F, r in zip(live, np.split(frames, cuts), np.split(ratio, cuts)):
            F, A, new = F[r > 1e-12], len(kept[t]), []
            # Row i: draw i against the A frames kept so far, then against this batch.
            sims = _similarities(np.concatenate([kept[t], F]), F, signed)
            for i, fits in enumerate((sims <= inits[t].tau).tolist()):
                if A + len(new) < N and all(fits[:A]) and all(fits[A + j] for j in new):
                    new.append(i)
            kept[t], drawn[t] = np.concatenate([kept[t], F[new]]), drawn[t] + len(F)
            if len(kept[t]) == N:
                out[t] = Configuration(field=field, blocks=kept[t])
            elif drawn[t] == inits[t].max_draws:
                out[t] = InitFailure(f"accepted only {A + len(new)} of {N} subspaces within "
                                     f"{drawn[t]} draws", accepted=A + len(new))
        live = [t for t in live if out[t] is None]
    return out
