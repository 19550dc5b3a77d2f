"""Subspace configurations, principal angles, metrics, and Gram algebra.

A configuration is a list of N orthonormal d-by-K frames, one per subspace.
Its Gram matrix is the KN-by-KN block matrix of all pairwise frame products;
the singular values of the (m, n) off-diagonal block are the cosines of the
principal angles between subspaces m and n, which is all any of the metrics
here need.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import InvalidInput, NotPSD, ParseError, RankExceeded
from .linalg import qr_orthonormal, symmetrize

__all__ = [
    "Field",
    "Metric",
    "Configuration",
    "GramMatrix",
    "principal_angles",
    "dist",
    "packing_diameter",
    "gram",
    "factor",
    "block_cosines",
    "cosine_distances",
    "cosine_magnitudes",
    "max_block_magnitude",
    "min_angle",
    "as_blocks",
    "from_blocks",
    "upper_block_indices",
    "read_configuration",
    "write_configuration",
]


class Field(Enum):
    """Scalar field of the ambient vector space."""

    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self) -> type:
        return np.complex128 if self is Field.COMPLEX else np.float64


class Metric(Enum):
    """Distance functions supported on packings.

    SPHERE is valid only for K = 1 points (not lines): it measures signed
    inner products and is handled by the experiment harness, never by
    :func:`dist`.
    """

    CHORDAL = "chordal"
    SPECTRAL = "spectral"
    FUBINI_STUDY = "fubini_study"
    GEODESIC = "geodesic"
    SPHERE = "sphere"


@dataclass(frozen=True)
class Configuration:
    """N orthonormal K-frames in a d-dimensional space.

    ``blocks`` has shape (N, d, K); each block satisfies X*X = I_K within
    1e-10.  Real-field configurations use a real dtype, which enforces the
    zero-imaginary-part invariant structurally.
    """

    field: Field
    blocks: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.blocks)
        if B.ndim != 3:
            raise InvalidInput(f"blocks must have shape (N, d, K), got {B.shape}")
        N, d, K = B.shape
        if not (1 <= K <= d):
            raise InvalidInput(f"need 1 <= K <= d, got K={K}, d={d}")
        if N < 2:
            raise InvalidInput(f"need N >= 2 subspaces, got N={N}")
        if not np.all(np.isfinite(B)):
            raise InvalidInput("configuration contains non-finite entries")
        if self.field is Field.REAL and np.iscomplexobj(B):
            if np.max(np.abs(B.imag)) > 0:
                raise InvalidInput("real-field configuration has nonzero imaginary parts")
            B = B.real.copy()
        B = np.ascontiguousarray(B, dtype=self.field.dtype)
        eye = np.eye(K)
        products = np.einsum("nik,nil->nkl", B.conj(), B)
        err = np.max(np.abs(products - eye))
        if err > 1e-10:
            raise InvalidInput(f"blocks are not orthonormal frames (max deviation {err:.3e})")
        object.__setattr__(self, "blocks", B)

    @property
    def N(self) -> int:
        return self.blocks.shape[0]

    @property
    def d(self) -> int:
        return self.blocks.shape[1]

    @property
    def K(self) -> int:
        return self.blocks.shape[2]

    @property
    def matrix(self) -> np.ndarray:
        """The collated d-by-KN configuration matrix [X_1 X_2 ... X_N]."""
        N, d, K = self.blocks.shape
        return self.blocks.transpose(1, 0, 2).reshape(d, N * K)

    def block(self, n: int) -> np.ndarray:
        return self.blocks[n]


@dataclass(frozen=True)
class GramMatrix:
    """KN-by-KN Hermitian matrix viewed as an N-by-N grid of K-by-K blocks."""

    field: Field
    K: int
    N: int
    entries: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.entries)
        n = self.K * self.N
        if A.shape != (n, n):
            raise InvalidInput(f"expected {n}x{n} entries, got {A.shape}")
        if not np.all(np.isfinite(A)):
            raise InvalidInput("gram matrix contains non-finite entries")
        if not gram_entries_valid(A):
            raise InvalidInput("gram matrix is not Hermitian within tolerance")
        A = np.ascontiguousarray(A, dtype=self.field.dtype)
        object.__setattr__(self, "entries", A)

    def block(self, m: int, n: int) -> np.ndarray:
        K = self.K
        return self.entries[m * K : (m + 1) * K, n * K : (n + 1) * K]


def gram_entries_valid(A: np.ndarray) -> np.ndarray:
    """Whether each matrix of a (..., n, n) stack may be a Gram matrix's
    entries: all finite, and Hermitian within 1e-10 * max(1, ||A||_F)."""
    scale = np.linalg.norm(A, axis=(-2, -1))
    asym = np.linalg.norm(A - np.swapaxes(A, -1, -2).conj(), axis=(-2, -1))
    return np.isfinite(scale) & (asym <= 1e-10 * np.maximum(1.0, scale))


def as_blocks(entries: np.ndarray, K: int, N: int) -> np.ndarray:
    """View a KN-by-KN matrix, or a (..., KN, KN) stack of them, as an
    (..., N, N, K, K) array of blocks."""
    return entries.reshape(entries.shape[:-2] + (N, K, N, K)).swapaxes(-3, -2)


def from_blocks(B: np.ndarray) -> np.ndarray:
    """Inverse of :func:`as_blocks`."""
    N, _, K, _ = B.shape
    return B.transpose(0, 2, 1, 3).reshape(N * K, N * K)


@lru_cache(maxsize=64)
def upper_block_indices(N: int):
    """Block (row, column) indices of the pairs m < n, in row-major order."""
    return np.triu_indices(N, 1)


def block_cosines(G: GramMatrix) -> np.ndarray:
    """Singular values of the upper off-diagonal blocks of a Gram matrix.

    Row p holds the K principal-angle cosines, nonincreasing, of the p-th
    pair m < n.  They are not clamped: roundoff may leave them just above 1.
    """
    iu, ju = upper_block_indices(G.N)
    return np.linalg.svd(as_blocks(G.entries, G.K, G.N)[iu, ju], compute_uv=False)


def cosine_distances(c: np.ndarray, metric: Metric) -> np.ndarray:
    """Subspace distances from nonincreasing principal-angle cosines, one per
    row of ``c`` (the last axis holds one pair's K cosines)."""
    # Roundoff pushes cosines slightly above 1; arccos would produce NaN.
    c = np.clip(c, 0.0, 1.0)
    if metric is Metric.CHORDAL:
        return np.sqrt(np.maximum(0.0, np.sum(1.0 - c * c, axis=-1)))
    if metric is Metric.SPECTRAL:
        return np.sqrt(np.maximum(0.0, 1.0 - c[..., 0] ** 2))
    if metric is Metric.FUBINI_STUDY:
        return np.arccos(np.minimum(1.0, np.prod(c, axis=-1)))
    if metric is Metric.GEODESIC:
        return np.linalg.norm(np.arccos(c), axis=-1)
    raise InvalidInput(f"no subspace distance for {metric}; sphere points use inner products")


def cosine_magnitudes(c: np.ndarray, metric: Metric) -> np.ndarray:
    """Frobenius norm, 2-norm, or absolute determinant of the blocks whose
    singular values are the rows of ``c``."""
    if metric is Metric.CHORDAL:
        return np.sqrt(np.sum(c * c, axis=-1))
    if metric is Metric.SPECTRAL:
        return c[..., 0]
    if metric is Metric.FUBINI_STUDY:
        return np.prod(c, axis=-1)
    raise InvalidInput(f"no block magnitude from cosines for metric {metric}")


def _angle_cosines(S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Singular values of S*T, sorted nonincreasing."""
    S = np.asarray(S)
    T = np.asarray(T)
    if S.shape != T.shape or S.ndim != 2:
        raise InvalidInput(f"frame shapes differ: {S.shape} vs {T.shape}")
    return np.linalg.svd(S.conj().T @ T, compute_uv=False)


def principal_angles(S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Principal angles between two subspaces given orthonormal frames.

    Returns K angles in [0, pi/2], nondecreasing.
    """
    return np.arccos(np.clip(_angle_cosines(S, T), 0.0, 1.0))


def dist(S: np.ndarray, T: np.ndarray, metric: Metric) -> float:
    """Distance between the subspaces spanned by frames S and T.

    Supports the chordal, spectral, Fubini-Study, and geodesic metrics.
    The sphere metric acts on points, not subspaces, and is rejected here.
    """
    return float(cosine_distances(_angle_cosines(S, T), metric))


def packing_diameter(config: Configuration, metric: Metric) -> float:
    """Minimum pairwise distance within a configuration."""
    return float(np.min(cosine_distances(block_cosines(gram(config)), metric)))


def gram(config: Configuration) -> GramMatrix:
    """Gram matrix G = X*X of a configuration."""
    X = config.matrix
    G = symmetrize(X.conj().T @ X)
    return GramMatrix(field=config.field, K=config.K, N=config.N, entries=G)


def factor(
    G: GramMatrix,
    d: int,
    *,
    psd_tol: float = 1e-8,
    rank_tol: float = 1e-6,
    diag_tol: float = 1e-6,
) -> Configuration:
    """Extract a configuration X with X*X ~ G from a Gram matrix.

    Uses the top-d eigenpairs, floors negative eigenvalues at zero, and
    re-orthonormalizes each block so the Configuration invariants hold
    exactly.  Requires G positive semidefinite within ``psd_tol``, numerical
    rank at most d within ``rank_tol``, and identity diagonal blocks within
    ``diag_tol``.
    """
    if d < 1:
        raise InvalidInput("ambient dimension must be >= 1")
    K, N = G.K, G.N
    eye = np.eye(K)
    for n in range(N):
        if np.max(np.abs(G.block(n, n) - eye)) > diag_tol:
            raise InvalidInput(f"diagonal block {n} is not the identity within {diag_tol:g}")
    w, U = np.linalg.eigh(symmetrize(G.entries))
    w, U = w[::-1], U[:, ::-1]
    lam1 = max(float(w[0]), 0.0)
    if float(w[-1]) < -psd_tol * max(lam1, 1e-300):
        raise NotPSD(f"most negative eigenvalue {w[-1]:.3e} exceeds tolerance")
    kn = K * N
    if kn > d and float(w[d]) > rank_tol * max(lam1, 1e-300):
        raise RankExceeded(f"eigenvalue {d + 1} is {w[d]:.3e}, above rank tolerance")
    r = min(d, kn)
    weights = np.sqrt(np.clip(w[:r], 0.0, None))
    X = np.zeros((d, kn), dtype=G.field.dtype)
    X[:r] = weights[:, None] * U[:, :r].conj().T
    blocks = np.stack([qr_orthonormal(X[:, n * K : (n + 1) * K]) for n in range(N)])
    return Configuration(field=G.field, blocks=blocks)


def max_block_magnitude(G: GramMatrix, metric: Metric) -> float:
    """Largest off-diagonal block magnitude, measured per metric.

    Chordal uses the Frobenius norm, spectral the 2-norm, Fubini-Study the
    absolute determinant (computed as a product of singular values), and
    sphere the raw signed entry (K = 1 only, so like-signed near-neighbors
    dominate).
    """
    K, N = G.K, G.N
    off = ~np.eye(N, dtype=bool)
    if metric is Metric.CHORDAL:
        B = as_blocks(G.entries, K, N)
        mags = np.sqrt(np.sum(np.abs(B) ** 2, axis=(2, 3)))
        return float(np.max(mags[off]))
    if metric in (Metric.SPECTRAL, Metric.FUBINI_STUDY):
        return float(np.max(cosine_magnitudes(block_cosines(G), metric)))
    if metric is Metric.SPHERE:
        if K != 1:
            raise InvalidInput("sphere magnitude requires K = 1")
        vals = np.real(G.entries[off])
        return float(np.max(vals))
    raise InvalidInput(f"no block magnitude defined for metric {metric}")


def min_angle(mu: float, metric: Metric) -> float:
    """Smallest pairwise angle, in radians, of K = 1 lines or sphere points
    whose largest block magnitude (|<x, y>|, or <x, y> on a sphere) is mu."""
    lo = -1.0 if metric is Metric.SPHERE else 0.0
    return math.acos(min(1.0, max(lo, mu)))


# --- configuration file format -------------------------------------------
#
# JSON object {field, d, K, N, blocks} where blocks is a list of N blocks,
# each a row-major list of d*K entries; complex entries are [re, im] pairs,
# real entries bare numbers.  Floats round-trip bit-exactly.


def _entry_to_obj(x, field: Field):
    if field is Field.COMPLEX:
        return [float(x.real), float(x.imag)]
    return float(x)


def write_configuration(config: Configuration, path) -> None:
    obj = {
        "field": config.field.value,
        "d": config.d,
        "K": config.K,
        "N": config.N,
        "blocks": [
            [_entry_to_obj(x, config.field) for x in block.reshape(-1)]
            for block in config.blocks
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def read_configuration(path) -> Configuration:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    try:
        field = Field(obj["field"])
        d, K, N = int(obj["d"]), int(obj["K"]), int(obj["N"])
        raw_blocks = obj["blocks"]
        if len(raw_blocks) != N:
            raise ParseError(f"{path}: expected {N} blocks, found {len(raw_blocks)}")
        blocks = np.zeros((N, d, K), dtype=field.dtype)
        for n, entries in enumerate(raw_blocks):
            if len(entries) != d * K:
                raise ParseError(f"{path}: block {n} has {len(entries)} entries, expected {d * K}")
            for idx, e in enumerate(entries):
                value = complex(e[0], e[1]) if field is Field.COMPLEX else float(e)
                blocks[n, idx // K, idx % K] = value
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"{path}: malformed configuration file ({exc})") from exc
    try:
        return Configuration(field=field, blocks=blocks)
    except InvalidInput as exc:
        raise ParseError(f"{path}: {exc}") from exc
