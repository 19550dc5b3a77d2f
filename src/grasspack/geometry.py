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
import os
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import InvalidInput, NotPSD, ParseError, RankDeficient, RankExceeded, SingularBlock
from .linalg import _qr_stack, hermitian_eig, symmetrize

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


def _mu_range(metric: Metric, K: int) -> tuple:
    """(lowest, highest) block-magnitude cap mu of a metric at block size K;
    a sphere cap bounds a signed inner product, and geodesic has no cap."""
    if metric is Metric.CHORDAL:
        return 0.0, math.sqrt(K)
    if metric in (Metric.SPECTRAL, Metric.FUBINI_STUDY):
        return 0.0, 1.0
    if metric is Metric.SPHERE:
        return -1.0, 1.0
    raise InvalidInput(f"no feasibility parameter for metric {metric}")


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
    """KN-by-KN Hermitian matrix viewed as an N-by-N grid of K-by-K blocks.

    Owns the Hermitian invariant: the entries must be finite and Hermitian
    within 1e-10 * max(1, ||A||_F), and are stored as (A + A*)/2, exactly
    Hermitian, so no consumer symmetrizes them again.
    """

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
        if np.linalg.norm(A - A.conj().T) > 1e-10 * max(1.0, np.linalg.norm(A)):
            raise InvalidInput("gram matrix is not Hermitian within tolerance")
        object.__setattr__(self, "entries", symmetrize(np.asarray(A, dtype=self.field.dtype)))

    def block(self, m: int, n: int) -> np.ndarray:
        K = self.K
        return self.entries[m * K : (m + 1) * K, n * K : (n + 1) * K]


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
    return _block_cosines(G.entries, G.K, G.N)


def _block_cosines(A: np.ndarray, K: int, N: int) -> np.ndarray:
    """:func:`block_cosines` of each member of a (..., KN, KN) stack."""
    iu, ju = upper_block_indices(N)
    return np.linalg.svd(as_blocks(A, K, N)[..., iu, ju, :, :], compute_uv=False)


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


def _block_norm_grid(A: np.ndarray, K: int, N: int) -> np.ndarray:
    """Frobenius norms of the K-by-K blocks of an exactly Hermitian matrix or
    C-contiguous (..., KN, KN) stack, as an (..., N, N) grid.

    The upper triangle holds the norms of the pairs m < n and the lower
    triangle mirrors it; the diagonal is zero.  At K = 1 the grid is |A|,
    already symmetric.  Otherwise the squared entries, complex ones read
    through their real view, are added up by strided slices: elementwise
    adds in one fixed order, so a matrix gets the same grid alone and in a
    stack.
    """
    if K == 1:
        grid = np.abs(A)  # |conj(z)| = |z|, so already symmetric
        idx = np.arange(N)
        grid[..., idx, idx] = 0.0
        return grid
    F = A.view(np.float64) if np.iscomplexobj(A) else A
    sq = F * F
    rows = sq[..., 0::K, :]
    for k in range(1, K):
        rows = rows + sq[..., k::K, :]
    width = F.shape[-1] // N  # real columns per block
    grid = rows[..., 0::width] + rows[..., 1::width]
    for k in range(2, width):
        grid += rows[..., k::width]
    np.sqrt(grid, out=grid)
    # A lower block's squares add up in another order than its mirror's.
    grid = np.triu(grid, 1)
    grid += np.swapaxes(grid, -1, -2)
    return grid


def _split_blocks(A: np.ndarray, metric: Metric, K: int, N: int) -> tuple:
    """Block magnitudes of an exactly Hermitian, C-contiguous matrix or
    (..., KN, KN) stack, with the upper off-diagonal blocks and their SVD
    where the metric needs them.

    Returns ``(blocks, mags, U, s, Vh)``.  For the chordal metric only
    ``mags`` is set: the (..., N, N) grid of block Frobenius norms from
    :func:`_block_norm_grid`, symmetric with a zero diagonal.  Otherwise
    ``blocks`` has shape (..., P, K, K) for the P pairs m < n and ``mags``
    (..., P); ``U, s, Vh`` is their SVD (None for the sphere metric).
    Magnitudes are Frobenius norms (chordal), 2-norms (spectral), absolute
    determinants (Fubini-Study), or the raw signed entry (sphere, real
    K = 1 only, so like-signed near-neighbors dominate).  Either way the
    largest entry of ``mags`` is the largest upper-block magnitude.
    """
    if metric is Metric.CHORDAL:
        return None, _block_norm_grid(A, K, N), None, None, None
    iu, ju = upper_block_indices(N)
    blocks = as_blocks(A, K, N)[..., iu, ju, :, :]
    if metric is Metric.SPHERE:
        if K != 1 or np.iscomplexobj(blocks):
            raise InvalidInput("sphere magnitudes are defined for real matrices with K = 1")
        return blocks, blocks[..., 0, 0], None, None, None
    U, s, Vh = np.linalg.svd(blocks)
    return blocks, cosine_magnitudes(s, metric), U, s, Vh


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
    return float(_packing_diameters(config.blocks, metric))


def _packing_diameters(blocks: np.ndarray, metric: Metric) -> np.ndarray:
    """:func:`packing_diameter` of each member of a (..., N, d, K) stack."""
    N, _, K = blocks.shape[-3:]
    c = _block_cosines(symmetrize(_gram_entries(blocks)), K, N)
    return np.min(cosine_distances(c, metric), axis=-1)


def _gram_entries(blocks: np.ndarray) -> np.ndarray:
    """X*X of each member of a (..., N, d, K) stack, X its collated frames."""
    N, d, K = blocks.shape[-3:]
    X = np.swapaxes(blocks, -3, -2).reshape(blocks.shape[:-3] + (d, N * K))
    return np.swapaxes(X.conj(), -1, -2) @ X


def gram(config: Configuration) -> GramMatrix:
    """Gram matrix G = X*X of a configuration."""
    entries = _gram_entries(config.blocks)
    return GramMatrix(field=config.field, K=config.K, N=config.N, entries=entries)


def factor(G: GramMatrix, d: int) -> Configuration:
    """Extract a configuration X with X*X ~ G from a Gram matrix.

    Uses the top-d eigenpairs, floors negative eigenvalues at zero, and
    re-orthonormalizes each block so the Configuration invariants hold
    exactly.  Requires, relative to the largest eigenvalue lambda_1, every
    eigenvalue at least -1e-8 lambda_1 (positive semidefinite) and the
    (d+1)-th at most 1e-6 lambda_1 (rank at most d), and every diagonal
    block within 1e-6 of the identity, entry by entry.
    """
    if d < 1:
        raise InvalidInput("ambient dimension must be >= 1")
    try:
        blocks = _factor_stack(G.entries[None], d, G.K, G.N)[0]
    except SingularBlock as exc:  # G's diagonal is the caller's to normalize
        raise InvalidInput(str(exc)) from exc
    return Configuration(field=G.field, blocks=blocks)


def _factor_stack(A: np.ndarray, d: int, K: int, N: int) -> np.ndarray:
    """:func:`factor` of each member of a (T, KN, KN) stack, as (T, N, d, K)
    frames; raises for the first member that fails a check, and a diagonal
    block off the identity is SingularBlock, since normalizing it failed."""
    idx = np.arange(N)
    off = np.max(np.abs(as_blocks(A, K, N)[:, idx, idx] - np.eye(K)), axis=(-2, -1)) > 1e-6
    if np.any(off):
        n = np.argwhere(off)[0, 1]
        raise SingularBlock(f"diagonal block {n} is not the identity within 1e-06")
    w, U = hermitian_eig(A)
    floor = np.maximum(np.maximum(w[:, 0], 0.0), 1e-300)
    if np.any(w[:, -1] < -1e-8 * floor):
        raise NotPSD(f"most negative eigenvalue {np.min(w[:, -1]):.3e} exceeds tolerance")
    if K * N > d and np.any(w[:, d] > 1e-6 * floor):
        raise RankExceeded(f"eigenvalue {d + 1} is {np.max(w[:, d]):.3e}, above rank tolerance")
    r = min(d, K * N)
    X = np.zeros((len(A), d, K * N), dtype=A.dtype)
    X[:, :r] = np.sqrt(np.clip(w[:, :r], 0.0, None))[..., None] * np.conj(U[..., :r].swapaxes(1, 2))
    frames, ratio = _qr_stack(X.reshape(len(A), d, N, K).swapaxes(1, 2))
    if np.any(ratio <= 1e-12):
        raise RankDeficient(f"column rank deficient: sigma_min/sigma_max = {np.min(ratio):.3e}")
    return frames


def max_block_magnitude(G: GramMatrix, metric: Metric) -> float:
    """Largest off-diagonal block magnitude, measured per metric (see
    :func:`_split_blocks`)."""
    return float(np.max(_split_blocks(G.entries, metric, G.K, G.N)[1]))


def min_angle(mu: float, metric: Metric) -> float:
    """Smallest pairwise angle, in radians, of K = 1 lines or sphere points
    whose largest block magnitude (|<x, y>|, or <x, y> on a sphere) is mu,
    clamped into the metric's mu range."""
    lo, hi = _mu_range(metric, 1)
    return math.acos(min(hi, max(lo, mu)))


# --- configuration file format -------------------------------------------
#
# JSON object {field, d, K, N, blocks} where blocks is a list of N blocks,
# each a row-major list of d*K entries; complex entries are [re, im] pairs,
# real entries bare numbers.  Floats round-trip bit-exactly.  The package
# reads every file through _open_text and writes it through _atomic_text.


def _open_text(path, what: str):
    """Open a text file for reading; a file that cannot be opened is a ParseError."""
    try:
        return open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot open {what} {path}: {exc}") from exc


@contextmanager
def _atomic_text(path):
    """Write a text file through a temporary file in the same directory.

    The temporary file replaces ``path`` only once the block completes, so a
    write that fails partway leaves any existing file at ``path`` intact.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _entry_to_obj(x, field: Field):
    if field is Field.COMPLEX:
        return [float(x.real), float(x.imag)]
    return float(x)


def write_configuration(config: Configuration, path) -> None:
    """Write a configuration file, replacing any old one atomically."""
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
    with _atomic_text(path) as fh:
        json.dump(obj, fh)
        fh.write("\n")


def read_configuration(path) -> Configuration:
    try:
        with _open_text(path, "configuration file") as fh:
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
