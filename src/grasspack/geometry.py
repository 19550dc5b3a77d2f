"""Subspace configurations, principal angles, metrics, and Gram algebra.

A configuration is a list of N orthonormal d-by-K frames, one per subspace.
Its Gram matrix is the KN-by-KN block matrix of all pairwise frame products;
the singular values of the (m, n) off-diagonal block are the cosines of the
principal angles between subspaces m and n.  Every chordal, spectral and
Fubini-Study distance is :func:`rho_from_mu` of one block magnitude, measured
by :func:`_split_blocks` as the solver measures it; only the geodesic
distance, which needs every angle, comes from :func:`block_cosines`.
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
    "max_block_magnitude",
    "min_angle",
    "mu_from_rho",
    "rho_from_mu",
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


def _set_diagonal_blocks(A: np.ndarray, K: int, N: int, value: float) -> None:
    """Set the K-by-K diagonal blocks of a C-contiguous (..., KN, KN) array to
    ``value`` times I_K in place: entry (i, j) of block n is flat entry
    n (KN + 1) K + i KN + j, so each (i, j) is one strided write."""
    KN = K * N
    flat = A.reshape(A.shape[:-2] + (-1,))
    for i in range(K):
        for j in range(K):
            flat[..., i * KN + j :: (KN + 1) * K] = value if i == j else 0.0


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


def _block_norm_grid(A: np.ndarray, K: int, N: int) -> np.ndarray:
    """Frobenius norms of the K-by-K blocks of a Hermitian (to rounding)
    C-contiguous matrix or (..., KN, KN) stack, as an (..., N, N) grid.

    The upper triangle holds the norms of the pairs m < n and the lower
    triangle mirrors it; the diagonal is zero.  At K = 1 the grid is |A|,
    whose lower triangle matches the upper one as far as A is Hermitian.
    Otherwise the squared entries, complex ones read through their real
    view, are added up by strided slices: elementwise adds in one fixed
    order, so a matrix gets the same grid alone and in a stack.
    """
    if K == 1:
        grid = np.abs(A)  # |conj(z)| = |z|, so as symmetric as A is Hermitian
        _set_diagonal_blocks(grid, 1, N, 0.0)
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
    """Block magnitudes of a Hermitian (to rounding), C-contiguous matrix or
    (..., KN, KN) stack, with the upper off-diagonal blocks and their SVD
    where the metric needs them; only the K = 1 chordal grid reads the lower
    blocks too.

    Returns ``(blocks, mags, U, s, Vh, sums)``.  For the chordal metric only
    ``mags`` is set: the (..., N, N) grid of block Frobenius norms from
    :func:`_block_norm_grid`, symmetric (at K = 1 to rounding) with a zero
    diagonal.  Otherwise
    ``blocks`` has shape (..., P, K, K) for the P pairs m < n and ``mags``
    (..., P); ``U, s, Vh`` is their SVD (None for the sphere metric; for
    K = 2, ``s`` and ``sums`` of :func:`_plane_svd`).  Magnitudes are Frobenius
    norms (chordal), 2-norms (spectral), absolute determinants (Fubini-Study),
    or the raw signed entry (sphere, real K = 1 only, so like-signed
    near-neighbors dominate); the largest is the largest block magnitude.
    The geodesic metric has no block magnitude.
    """
    if metric is Metric.CHORDAL:
        return None, _block_norm_grid(A, K, N), None, None, None, None
    if metric is Metric.GEODESIC:
        raise InvalidInput("no block magnitude for the geodesic metric; it needs every angle")
    iu, ju = upper_block_indices(N)
    blocks = as_blocks(A, K, N)[..., iu, ju, :, :]
    if metric is Metric.SPHERE:
        if K != 1 or np.iscomplexobj(blocks):
            raise InvalidInput("sphere magnitudes are defined for real matrices with K = 1")
        return blocks, blocks[..., 0, 0], None, None, None, None
    if K == 2:
        s, absdet, sums = _plane_svd(blocks)
        return blocks, absdet if metric is Metric.FUBINI_STUDY else s[..., 0], None, s, None, sums
    U, s, Vh = np.linalg.svd(blocks)
    mags = np.prod(s, axis=-1) if metric is Metric.FUBINI_STUDY else s[..., 0]
    return blocks, mags, U, s, Vh, None


def _plane_svd(B: np.ndarray) -> tuple:
    """Closed-form singular values s of (..., 2, 2) blocks B: ``(s, |det B|,
    sums)``, sums[..., 0, :, :] = B + C and sums[..., 1, :, :] = B - C for
    C = e [[conj b22, -conj b21], [-conj b12, conj b11]] = |det B| B^{-*},
    e = det B / |det B| or 1, which has B's singular vectors and s swapped.
    So s1 +- s2 is the norm of the first row of B +- C, free of the
    cancellation in s1^2 - s2^2 near a tie, and s2 = |det B| / s1.  Formed
    entry by entry, so alike in any stack.
    """
    det = B[..., 0, 0] * B[..., 1, 1] - B[..., 0, 1] * B[..., 1, 0]
    absdet = np.abs(det)
    phase = np.divide(det, absdet, out=np.ones_like(det), where=absdet > 0.0)
    C = phase[..., None, None] * B[..., ::-1, ::-1].conj() * [[1.0, -1.0], [-1.0, 1.0]]
    sums = np.stack([B + C, B - C], axis=-3)
    row = sums[..., 0, :]  # the second rows' entries have the same magnitudes
    total, diff = np.moveaxis(np.sqrt(np.sum((row * row.conj()).real, axis=-1)), -1, 0)
    s1 = 0.5 * (total + diff)
    s2 = np.minimum(np.divide(absdet, s1, out=np.zeros_like(s1), where=s1 > 0.0), s1)
    return np.stack([s1, s2], axis=-1), absdet, sums


def principal_angles(S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Principal angles between two subspaces given orthonormal frames.

    Returns K angles in [0, pi/2], nondecreasing.
    """
    if np.shape(S) != np.shape(T) or np.ndim(S) != 2:
        raise InvalidInput(f"frame shapes differ: {np.shape(S)} vs {np.shape(T)}")
    return np.arccos(np.clip(np.linalg.svd(np.conj(S).T @ T, compute_uv=False), 0.0, 1.0))


def dist(S: np.ndarray, T: np.ndarray, metric: Metric) -> float:
    """Distance between the subspaces spanned by orthonormal frames S and T:
    the packing diameter of the pair.

    Supports the chordal, spectral, Fubini-Study, and geodesic metrics.
    The sphere metric acts on points, not subspaces, and is rejected here.
    """
    if np.shape(S) != np.shape(T):
        raise InvalidInput(f"frame shapes differ: {np.shape(S)} vs {np.shape(T)}")
    field = Field.COMPLEX if np.iscomplexobj(S) or np.iscomplexobj(T) else Field.REAL
    return packing_diameter(Configuration(field=field, blocks=np.stack([S, T])), metric)


def packing_diameter(config: Configuration, metric: Metric) -> float:
    """Minimum pairwise distance: :func:`rho_from_mu` of the largest block
    magnitude, or (geodesic) the least 2-norm of a pair's principal angles."""
    if metric is Metric.SPHERE:
        raise InvalidInput("no subspace distance for sphere; sphere points use inner products")
    g = gram(config)
    if metric is Metric.GEODESIC:
        angles = np.arccos(np.clip(block_cosines(g), 0.0, 1.0))
        return float(np.min(np.linalg.norm(angles, axis=-1)))
    return rho_from_mu(max_block_magnitude(g, metric), metric, config.K)


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


def mu_from_rho(rho: float, metric: Metric, K: int = 1) -> float:
    """Convert a target packing diameter into the block-magnitude cap.

    Chordal: mu = sqrt(K - rho^2); spectral and sphere: mu = sqrt(1 - rho^2);
    Fubini-Study: mu = cos(rho).
    """
    # Fubini-Study rho lies in [0, pi/2]; otherwise rho shares mu's [0, hi].
    hi = math.pi / 2 if metric is Metric.FUBINI_STUDY else _mu_range(metric, K)[1]
    if not 0.0 <= rho <= hi + 1e-12:
        raise InvalidInput(f"{metric.value} rho must lie in [0, {hi:g}], got {rho}")
    if metric is Metric.FUBINI_STUDY:
        return max(0.0, math.cos(rho))
    return math.sqrt(max(0.0, (K if metric is Metric.CHORDAL else 1.0) - rho * rho))


def rho_from_mu(mu: float, metric: Metric, K: int = 1) -> float:
    """Inverse of :func:`mu_from_rho`, for mu in [0, the metric's largest mu]."""
    hi = _mu_range(metric, K)[1]
    if not 0.0 <= mu <= hi * (1.0 + 1e-8):  # roundoff on frames orthonormal to 1e-10
        raise InvalidInput(f"{metric.value} mu must lie in [0, {hi:g}], got {mu}")
    if metric is Metric.FUBINI_STUDY:
        return math.acos(min(1.0, mu))
    return math.sqrt(max(0.0, (K if metric is Metric.CHORDAL else 1.0) - mu * mu))


# --- configuration file format -------------------------------------------
#
# JSON object {field, d, K, N, blocks} where blocks is a list of N blocks,
# each a row-major list of d*K entries; complex entries are [re, im] pairs,
# real entries bare numbers.  Floats, signed zeros too, round-trip bit-exactly.
# The package reads every file through _open_text and writes it through _atomic_text.


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


def write_configuration(config: Configuration, path) -> None:
    """Write a configuration file, replacing any old one atomically."""
    entries = config.blocks.reshape(config.N, -1)
    if config.field is Field.COMPLEX:
        entries = entries.view(np.float64).reshape(*entries.shape, 2)
    obj = {
        "field": config.field.value,
        "d": config.d,
        "K": config.K,
        "N": config.N,
        "blocks": entries.tolist(),
    }
    with _atomic_text(path) as fh:
        json.dump(obj, fh)
        fh.write("\n")


def read_configuration(path) -> Configuration:
    try:
        with _open_text(path, "configuration file") as fh:
            obj = json.load(fh)  # bad JSON or UTF-8 raises a ValueError
        field = Field(obj["field"])
        d, K, N = int(obj["d"]), int(obj["K"]), int(obj["N"])
        entries = np.array(obj["blocks"], dtype=float)  # so do ragged lists
        shape = (N, d * K, 2) if field is Field.COMPLEX else (N, d * K)
        if entries.shape != shape:
            raise ParseError(f"{path}: blocks have shape {entries.shape}, expected {shape}")
        return Configuration(field=field, blocks=entries.view(field.dtype).reshape(N, d, K))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed configuration file ({exc})") from exc
    except InvalidInput as exc:
        raise ParseError(f"{path}: {exc}") from exc
