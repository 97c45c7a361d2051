"""Core geometric types and operations.

Planes are stored as orthonormal bases together with their orthogonal
projectors; weighted surface samples bundle points, weights, and per-point
tangent planes with an exact spatial index.  All higher-level analysis
modules build on the operations here: weighted PCA plane fitting,
projector (Frobenius) distances, and nearest orthogonal projectors
(`grassmann_bases`).  ``_principal_frames`` is the only owner of
principal frames (eigenframes), and ``_span_projectors`` of the projector
B^T B of an orthonormal row basis B: plane, tangent and normal projectors
all read it.  ``_plane_split`` is the only owner of the split of points
about a plane into in-plane coordinates and normal parts,
``_require_rows`` of the check that an input is finite (k, n) rows, and
``_pair_blocks`` of every table of pairwise distances and its block
budget ``_PAIR_BLOCK``.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, pdist

from .errors import (
    DegenerateCloud,
    DimensionMismatch,
    EigengapTie,
    EmptyInput,
    InvalidIndex,
    InvalidScale,
    NonFiniteInput,
    NonOrthonormalBasis,
    NonPositiveWeight,
    RankDeficient,
)

# largest entry of |B B^T - I| accepted as an orthonormal basis B
_ORTHONORMAL_TOL = 1e-8
_EIGENGAP_TOL = 1e-9

# leaf size of the KD-tree that `WeightedSurfaceSample.candidate_blocks`
# builds over the query rows (leaves hold 8 to 16 rows); the rows of a leaf
# share one candidate query, and each (rows, candidates) float table of a
# leaf stays under 0.15 MB for the curvature field at h = 0.25 on a
# 12k-point unit disk (~15 rows and 1025 candidates per leaf, at most
# 1158, against 745 points per ball); the beta table, the curvature field
# and the fine set all take their blocks from it.  Leaves of 8 rows made
# the fine-set extractions of a stagewise seed-5 batch slower (median of 3
# runs 1.79 s against 1.57 s, 2-vCPU VM)
_QUERY_BLOCK = 16

# entries of one table that `_pair_blocks` yields (at least one row): the
# all-pairs `iterated_projection.distortion_report` of 2000 points (the
# seed-7 `stagewise` disk) traced +3.7 MB at 2**16 entries, against
# +14.8 MB at 2**18
_PAIR_BLOCK = 1 << 16


@dataclass(frozen=True)
class Plane:
    """An affine m-plane in R^n.

    Attributes
    ----------
    basis : ndarray, shape (m, n)
        Orthonormal rows spanning the plane's direction space.
    basepoint : ndarray, shape (n,) or None
        A point the affine plane passes through; None means linear
        (through the origin).

    Independent rows that are not orthonormal are replaced by the QR
    orthonormalization of their span.  Raises NonFiniteInput for a basis
    holding NaN or infinity and RankDeficient for dependent rows (an |R_ii|
    at most 1e-12 times the largest).  `coordinates`, `heights` and `lift`
    take one point or (k, n) points (k, m coordinates for `lift`, with
    one row of n normal offsets or one per coordinate row), and raise
    DimensionMismatch for another shape and NonFiniteInput for a row
    holding NaN or infinity.
    """

    basis: np.ndarray
    basepoint: np.ndarray | None = None

    def __post_init__(self):
        basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        _require_finite_rows(basis, "plane basis")
        gram = basis @ basis.T
        if not np.allclose(gram, np.eye(basis.shape[0]), atol=_ORTHONORMAL_TOL):
            # orthonormalize via QR on the row space
            q, r = np.linalg.qr(basis.T)
            diag = np.abs(np.diag(r))
            if diag.size < basis.shape[0] or not diag.min() > 1e-12 * diag.max():
                raise RankDeficient(
                    f"plane basis of shape {basis.shape} has rank below "
                    f"{basis.shape[0]}: its rows are linearly dependent"
                )
            basis = q.T[: basis.shape[0]]
        object.__setattr__(self, "basis", basis)
        if self.basepoint is not None:
            bp = np.asarray(self.basepoint, dtype=float)
            if bp.shape != (basis.shape[1],):
                raise DimensionMismatch(
                    f"basepoint dim {bp.shape} vs ambient {basis.shape[1]}"
                )
            object.__setattr__(self, "basepoint", bp)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the direction space, basis^T basis."""
        return _span_projectors(self.basis)

    def coordinates(self, points: np.ndarray) -> np.ndarray:
        """In-plane coordinates (m per point) relative to the basepoint."""
        return self._split(points)[0]

    def lift(self, coords: np.ndarray, heights: np.ndarray | None = None):
        """Map in-plane coordinates (and optional normal offsets) back to R^n."""
        coords = _require_rows(np.atleast_2d(coords), self.dim, "plane coordinate")
        origin = (
            self.basepoint
            if self.basepoint is not None
            else np.zeros(self.ambient_dim)
        )
        pts = origin + coords @ self.basis
        if heights is not None:
            heights = _require_rows(np.atleast_2d(heights), self.ambient_dim, "height")
            if len(heights) not in (1, len(coords)):
                raise DimensionMismatch(
                    f"heights have {len(heights)} rows, need 1 or one per "
                    f"coordinate row ({len(coords)})"
                )
            pts = pts + heights
        return pts

    def heights(self, points: np.ndarray) -> np.ndarray:
        """Unsigned normal distance of points to the affine plane."""
        return np.linalg.norm(self._split(points)[1], axis=1)

    def _split(self, points) -> tuple[np.ndarray, np.ndarray]:
        """`_plane_split` of checked `points` relative to the basepoint."""
        pts = _require_rows(np.atleast_2d(points), self.ambient_dim, "point")
        origin = self.basepoint if self.basepoint is not None else 0.0
        return _plane_split(pts - origin, self.basis)


@dataclass(frozen=True)
class Ball:
    """Closed metric ball in the ambient space.

    Raises DimensionMismatch for a center that is not one point (a 1-d
    array), NonFiniteInput for a non-finite center and InvalidScale for a
    radius that is not positive and finite.
    """

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = _require_point(self.center, None, "ball center")
        object.__setattr__(self, "center", center)
        _require_positive(self.radius, "ball radius")


class WeightedSurfaceSample:
    """Weighted point sample of an m-surface with tangent planes.

    Parameters
    ----------
    points : ndarray, shape (N, n)
    weights : ndarray, shape (N,)
        Strictly positive quadrature weights (area per sample).
    tangent_bases : ndarray, shape (N, m, n)
        Orthonormal tangent basis per point.

    Raises
    ------
    EmptyInput, DimensionMismatch
        No points, points that are not (N, n) rows, or arrays of
        inconsistent shapes.
    NonFiniteInput
        A point, weight or tangent basis holds NaN or infinity.
    NonPositiveWeight
        A weight is zero or negative (also a ValueError).
    NonOrthonormalBasis
        A tangent basis has a Gram matrix off the identity by more than
        1e-8 in some entry; projector distances computed from normal
        frames (``multiscale._maximal_tilts``) assume orthonormal rows.
    """

    def __init__(self, points, weights, tangent_bases):
        points = np.ascontiguousarray(_require_rows(points, None, "point"))
        weights = np.ascontiguousarray(weights, dtype=float)
        bases = np.ascontiguousarray(tangent_bases, dtype=float)
        if points.shape[0] == 0:
            raise EmptyInput("sample has no points")
        n_pts, n = points.shape
        if weights.shape != (n_pts,):
            raise DimensionMismatch(
                f"weights have shape {weights.shape}, need one per point ({n_pts},)"
            )
        if bases.ndim != 3 or (bases.shape[0], bases.shape[2]) != points.shape:
            raise DimensionMismatch(
                f"tangent bases have shape {bases.shape}, need (N, m, n) = ({n_pts}, m, {n})"
            )
        _require_finite_rows(weights, "weight")
        _require_finite_rows(bases, "tangent basis")
        bad = np.flatnonzero(weights <= 0)
        if bad.size:
            raise NonPositiveWeight(
                f"weight of row {bad[0]} is {weights[bad[0]]:.4g}; weights must "
                "be strictly positive"
            )
        gram = bases @ bases.transpose(0, 2, 1)
        off = np.abs(gram - np.eye(bases.shape[1])).max(axis=(1, 2), initial=0.0)
        bad = np.flatnonzero(off > _ORTHONORMAL_TOL)
        if bad.size:
            raise NonOrthonormalBasis(
                f"tangent basis of row {bad[0]} is not orthonormal: its Gram "
                f"matrix is off the identity by {off[bad[0]]:.3g}"
            )
        self.points = points
        self.weights = weights
        self.tangent_bases = bases
        # the one cache that is not a cached_property: `perfbench/tracer.py`
        # wraps the getter of the `spatial_index` property and reads `_tree`
        # to tell a build from a cached lookup, and tests patch
        # `spatial_index` as a property
        self._tree: cKDTree | None = None

    # -- basic facts --------------------------------------------------------

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    @property
    def intrinsic_dim(self) -> int:
        return self.tangent_bases.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    @cached_property
    def mean_spacing(self) -> float:
        """Area-per-sample length scale, (total weight / N)^(1/m)."""
        return float((self.total_weight / len(self)) ** (1.0 / self.intrinsic_dim))

    # -- derived views ------------------------------------------------------

    @cached_property
    def tangent_projectors(self) -> np.ndarray:
        """Stacked (N, n, n) tangent projectors, computed once."""
        return _span_projectors(self.tangent_bases)

    @property
    def spatial_index(self) -> cKDTree:
        if self._tree is None:
            self._tree = cKDTree(self.points)
        return self._tree

    def ball_query(self, center, radius: float) -> np.ndarray:
        """Indices of points with |p - center| <= radius, sorted ascending.

        Raises DimensionMismatch or NonFiniteInput unless `center` is one
        finite point of the ambient dimension, and InvalidScale unless
        `radius` is positive and finite.
        """
        center = _require_point(center, self.ambient_dim, "ball center")
        _require_positive(radius, "ball radius")
        return self._ball_rows(center, radius)

    def _ball_rows(self, center: np.ndarray, radius: float) -> np.ndarray:
        """`ball_query` of a center and radius already checked."""
        idx = self.spatial_index.query_ball_point(center, radius)
        return np.sort(np.asarray(idx, dtype=int))

    def candidate_blocks(self, rows, radius):
        """Candidate sets shared by neighboring rows, one KD-tree leaf at a time.

        The rows are split by the leaves of ``cKDTree(points[rows],
        leafsize=_QUERY_BLOCK)``, walked from ``lesser`` to ``greater``.
        `radius` is one radius or one per row.  Yields ``(pos, cand, d2)``
        per leaf: ``pos`` the positions in `rows` of the leaf's rows,
        ``cand`` the sorted indices of every point within the leaf's spread
        plus its largest radius of the leaf centroid (one ball query, widened
        by a relative 1e-9), and ``d2`` the (rows, candidates) squared
        distances from each row's point, summed coordinate by coordinate as
        the KD-tree sums them, so that ``d2[i] <= r * r`` is the ball
        `ball_query` returns around row i for any r up to its radius.
        """
        rows = np.asarray(rows, dtype=int)
        radius = np.broadcast_to(np.asarray(radius, dtype=float), rows.shape)
        if rows.size == 0:
            return
        tree = self.spatial_index
        local = cKDTree(self.points[rows], leafsize=_QUERY_BLOCK)
        stack = [local.tree]
        while stack:
            node = stack.pop()
            if node.greater is not None:
                stack += [node.greater, node.lesser]
                continue
            pos = node.indices
            x = self.points[rows[pos]]
            center = x.mean(axis=0)
            spread = np.sqrt(np.square(x - center).sum(axis=1).max())
            cand = np.asarray(
                tree.query_ball_point(
                    center,
                    (spread + radius[pos].max()) * (1.0 + 1e-9),
                    return_sorted=True,
                ),
                dtype=int,
            )
            d2 = np.zeros((pos.size, cand.size))
            for j in range(self.ambient_dim):
                d2 += np.square(self.points[cand, j] - x[:, j, None])
            yield pos, cand, d2

    def transformed(self, rotation=None, translation=None, scale=1.0):
        """Rigidly moved / dilated copy (weights scale by scale^m).

        Raises DimensionMismatch for a rotation that is not (n, n) or a
        translation that is not (n,), and InvalidScale for a scale that is
        zero or not finite.
        """
        n = self.ambient_dim
        if not (np.isfinite(scale) and scale != 0):
            raise InvalidScale(f"scale {scale} is zero or not finite")
        pts = self.points * scale
        bases = self.tangent_bases
        if rotation is not None:
            rot = np.asarray(rotation, dtype=float)
            if rot.shape != (n, n):
                raise DimensionMismatch(f"rotation has shape {rot.shape}, need ({n}, {n})")
            pts = pts @ rot.T
            bases = np.einsum("ij,nmj->nmi", rot, bases)
        if translation is not None:
            shift = np.asarray(translation, dtype=float)
            if shift.shape != (n,):
                raise DimensionMismatch(f"translation has shape {shift.shape}, need ({n},)")
            pts = pts + shift
        w = self.weights * scale**self.intrinsic_dim
        return WeightedSurfaceSample(pts, w, bases)


# ---------------------------------------------------------------------------
# operations


def fit_plane_pca(points, weights=None, dim: int = 2, center=None) -> Plane:
    """Weighted PCA plane through the weighted centroid (or a pinned center).

    Parameters
    ----------
    points : ndarray, shape (N, n)
    weights : ndarray or None
        Uniform if None.
    dim : int
        Plane dimension m, from 1 to n.
    center : ndarray or None
        If given, the plane passes through `center` and second moments are
        taken about it; otherwise about the weighted centroid.

    Returns
    -------
    Plane
        Basepoint is the centroid (or the pinned center).

    Raises
    ------
    EmptyInput
        No points or nonpositive total weight.
    DimensionMismatch
        Points that are neither one point nor (N, n) rows, `dim` not an
        integer in [1, n], weights not of shape (N,), or a center that
        is not one point in R^n.
    NonFiniteInput
        A point, weight or the center holds NaN or infinity.
    DegenerateCloud
        Second-moment rank below `dim`.
    """
    pts = _require_rows(np.atleast_2d(points), None, "point")
    if pts.shape[0] == 0:
        raise EmptyInput("no points to fit")
    n = pts.shape[1]
    if not (isinstance(dim, numbers.Integral) and 1 <= dim <= n):
        raise DimensionMismatch(f"plane dimension {dim} is not an integer in [1, {n}]")
    if weights is None:
        w = np.ones(pts.shape[0])
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(pts),):
            raise DimensionMismatch(
                f"weights have shape {w.shape}, need one per point ({len(pts)},)"
            )
        _require_finite_rows(w, "weight")
    total = w.sum()
    if not total > 0:
        raise EmptyInput("total weight is not positive")
    if center is None:
        origin = (w[:, None] * pts).sum(axis=0) / total
    else:
        origin = _require_point(center, n, "plane center")
    return _pca_plane(pts - origin, w, dim, origin)


def _pca_plane(rel: np.ndarray, w: np.ndarray, dim: int, origin: np.ndarray) -> Plane:
    """`fit_plane_pca` of checked rows `rel`, taken about `origin`, and
    their weights: the plane through `origin`, or DegenerateCloud."""
    evals, frame, spans = _principal_frames(_second_moments(rel, w), dim)
    if not spans:
        raise DegenerateCloud(
            f"second-moment rank below {dim} (eigenvalues {evals[:dim]})"
        )
    return Plane(basis=np.ascontiguousarray(frame[:dim]), basepoint=origin)


def _second_moments(rel: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Second moments (rel * w)^T rel / sum(w) of weighted rows about 0,
    for one row set (k, n) with weights (k,) or a stack (..., k, n)."""
    return np.swapaxes(rel * w[..., None], -1, -2) @ rel / w.sum(axis=-1)[..., None, None]


def _principal_frames(matrices: np.ndarray, dim: int):
    """Eigenframes of a stack (..., n, n) of symmetric matrices.

    Returns ``(evals, frames, spans)``: the eigenvalues in descending order,
    the eigenvectors as rows in that order (a strided view; callers copy the
    rows they keep) with the top `dim` in `_canonical_rows` signs, and the
    mask of matrices whose `dim`-th eigenvalue > max(largest, 0) * 1e-12.
    """
    evals, evecs = np.linalg.eigh(matrices)
    # eigh sorts ascending; reversed views put the largest first
    evals = evals[..., ::-1]
    frames = np.swapaxes(evecs[..., ::-1], -1, -2)
    top = frames[..., :dim, :]
    top[...] = _canonical_rows(top.reshape(-1, frames.shape[-1])).reshape(top.shape)
    rank_tol = np.maximum(np.maximum(evals[..., 0], 0.0) * 1e-12, 1e-300)
    return evals, frames, evals[..., dim - 1] > rank_tol


def _span_projectors(bases: np.ndarray) -> np.ndarray:
    """B^T B for an orthonormal row basis B or for each of a stack, by one
    matmul (an einsum can differ from it in the last bit)."""
    return np.matmul(np.swapaxes(bases, -1, -2), bases)


def _plane_split(rel: np.ndarray, bases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split `rel` about an orthonormal row basis B, or about each of a
    stack: ``(coords, normal_parts)`` with ``coords = rel B^T`` and
    ``normal_parts = rel - coords B``, one matmul each."""
    coords = rel @ np.swapaxes(bases, -1, -2)
    return coords, rel - coords @ bases


def _require_positive(value, what: str) -> None:
    """Refuse a radius or floor that is not a positive finite number."""
    if not (np.isfinite(value) and value > 0):
        raise InvalidScale(f"{what} {value} is not positive and finite")


def _require_finite_rows(arr: np.ndarray, what: str) -> None:
    """NonFiniteInput naming `what` and the first row of `arr` that holds
    NaN or infinity."""
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=tuple(range(1, arr.ndim))))
    if bad.size:
        raise NonFiniteInput(f"{what} of row {bad[0]} is not finite")


def _require_rows(x, dim: int | None, what: str) -> np.ndarray:
    """`x` as float (k, dim) rows, of any width when `dim` is None, else
    DimensionMismatch naming `what` and the shape, or NonFiniteInput
    naming the first row that holds NaN or infinity."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or (dim is not None and x.shape[1] != dim):
        need = "n" if dim is None else dim
        raise DimensionMismatch(f"{what}s have shape {x.shape}, need (k, {need})")
    _require_finite_rows(x, what)
    return x


def _require_indices(idx, k: int, what: str, within: str) -> np.ndarray:
    """`idx` as integer indices in [0, k), else InvalidIndex naming a
    non-integer dtype or the first entry outside; `what` names an entry,
    `within` the rows or vertices it indexes."""
    idx = np.asarray(idx)
    if idx.size and idx.dtype.kind not in "iu":
        raise InvalidIndex(f"{what} indices must be integers, got {idx.dtype}")
    idx = idx.astype(int, copy=False)
    bad = np.flatnonzero((idx < 0) | (idx >= k))
    if bad.size:
        raise InvalidIndex(f"{what} {idx.flat[bad[0]]} is outside the {within} [0, {k})")
    return idx


def _require_point(x, dim: int | None, what: str) -> np.ndarray:
    """`x` as one finite point of shape (dim,), of any length when `dim` is
    None, else DimensionMismatch or NonFiniteInput naming `what`."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or (dim is not None and len(x) != dim):
        need = "a 1-d array" if dim is None else f"shape ({dim},)"
        raise DimensionMismatch(f"{what} has shape {x.shape}, need one point of {need}")
    if not np.isfinite(x).all():
        raise NonFiniteInput(f"{what} {x} is not finite")
    return x


def _pair_blocks(rows, *points):
    """Distances from `rows` of each array in `points` (all aligned by
    row) to every row of that array, one block of rows at a time.

    Yields ``(part, *tables)``: ``part`` the slice of positions in `rows`
    the block covers, and per array ``p`` the euclidean ``cdist`` table of
    ``p[rows[part]]`` against ``p``, of at most `_PAIR_BLOCK` entries (one
    row when a row alone holds more).
    """
    step = max(1, _PAIR_BLOCK // max(len(points[0]), 1))
    for lo in range(0, len(rows), step):
        part = slice(lo, lo + step)
        yield (part, *(cdist(p[rows[part]], p) for p in points))


def _pair_lipschitz(x, y, floor: float) -> float:
    """Largest |y_i - y_j| / |x_i - x_j| over the pairs with |x_i - x_j| >
    floor; 0.0 when there is no such pair (or fewer than two rows)."""
    if len(x) < 2:
        return 0.0
    dx = pdist(x)
    far = dx > floor
    return float((pdist(y)[far] / dx[far]).max(initial=0.0))


def projector_distance(p, q) -> float:
    """Frobenius distance between two orthogonal projectors.

    Accepts Plane instances or raw (n, n) projector matrices.  Raises
    DimensionMismatch for matrices of different shapes and NonFiniteInput
    for a matrix holding NaN or infinity.
    """
    a = p.projector if isinstance(p, Plane) else np.asarray(p, dtype=float)
    b = q.projector if isinstance(q, Plane) else np.asarray(q, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch(f"projector shapes {a.shape} vs {b.shape}")
    _require_finite_rows(a, "first projector")
    _require_finite_rows(b, "second projector")
    return float(np.linalg.norm(a - b))


def grassmann_bases(matrices, rank: int) -> np.ndarray:
    """Nearest rank-`rank` orthogonal projectors to a stack of square
    matrices, as their top-`rank` eigenbases, in one call.

    ``matrices`` has shape (..., n, n); each is symmetrized, and the result
    (..., rank, n) holds, per matrix, the orthonormal rows spanning the
    top-`rank` eigenspace, in descending eigenvalue order with the
    `_canonical_rows` signs.  When the eigengap at the cut is below 1e-9
    the deterministic lexicographic eigenvector choice is kept, and one
    EigengapTie warning, naming the smallest gap, covers every matrix tied
    at the cut.  Raises DimensionMismatch for matrices that are not square
    or a rank that is not an integer in [1, n], and NonFiniteInput for a
    matrix holding NaN or infinity.
    """
    m = np.asarray(matrices, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"need square matrices, got {m.shape}")
    n = m.shape[-1]
    if not (isinstance(rank, numbers.Integral) and 0 < rank <= n):
        raise DimensionMismatch(f"rank {rank} is not an integer in [1, {n}] for shape {m.shape}")
    _require_finite_rows(m.reshape(-1, n * n), "matrix")
    evals, frames, _ = _principal_frames(0.5 * (m + np.swapaxes(m, -1, -2)), rank)
    if rank < n:
        gap = evals[..., rank - 1] - evals[..., rank]
        tied = gap < _EIGENGAP_TOL
        if np.any(tied):
            warnings.warn(
                f"eigengap {gap[tied].min():.3e} at the rank cut; keeping the "
                "lexicographic eigenvector choice",
                EigengapTie,
                stacklevel=2,
            )
    return np.ascontiguousarray(frames[..., :rank, :])


def _canonical_rows(basis: np.ndarray) -> np.ndarray:
    """Deterministic sign convention: first entry of largest magnitude
    in each row is made positive (lexicographic tie-break)."""
    out = basis.copy()
    lead = np.argmax(np.abs(out), axis=1)
    flip = out[np.arange(out.shape[0]), lead] < 0
    out[flip] = -out[flip]
    return out


def complement_frame(normals: np.ndarray) -> np.ndarray:
    """Orthonormal tangent pairs completing unit normals (N, 3) -> (N, 2, 3).

    Raises DimensionMismatch unless `normals` is an (N, 3) array,
    NonFiniteInput naming the first row with NaN or infinity, and
    DegenerateCloud naming the first zero normal (or one so short that its
    tangent underflows).
    """
    normals = _require_rows(normals, 3, "normal")
    ref = np.where(
        np.abs(normals[:, [0]]) < 0.9,
        np.array([[1.0, 0.0, 0.0]]),
        np.array([[0.0, 1.0, 0.0]]),
    )
    t1 = np.cross(normals, ref)
    length = np.linalg.norm(t1, axis=1, keepdims=True)
    zero = np.flatnonzero(length[:, 0] == 0)
    if zero.size:
        raise DegenerateCloud(f"normal of row {zero[0]} is zero or too short to complete")
    t1 /= length
    t2 = np.cross(normals, t1)
    t2 /= np.linalg.norm(t2, axis=1, keepdims=True)
    return np.stack([t1, t2], axis=1)
