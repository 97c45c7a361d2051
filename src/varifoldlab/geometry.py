"""Core geometric types and operations.

Planes are stored as orthonormal bases together with their orthogonal
projectors; weighted surface samples bundle points, weights, and per-point
tangent planes with an exact spatial index.  All higher-level analysis
modules build on the three operations here: weighted PCA plane fitting,
projector (Frobenius) distances, and nearest orthogonal projector
extraction from a symmetric matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist

from .errors import (
    DegenerateCloud,
    DimensionMismatch,
    EigengapTie,
    EmptyInput,
    InvalidScale,
    NonFiniteInput,
    NonOrthonormalBasis,
    NonPositiveWeight,
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
    """

    basis: np.ndarray
    basepoint: np.ndarray | None = None

    def __post_init__(self):
        basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        gram = basis @ basis.T
        if not np.allclose(gram, np.eye(basis.shape[0]), atol=_ORTHONORMAL_TOL):
            # orthonormalize via QR on the row space
            q, _ = np.linalg.qr(basis.T)
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
        return self.basis.T @ self.basis

    def coordinates(self, points: np.ndarray) -> np.ndarray:
        """In-plane coordinates (m per point) relative to the basepoint."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        origin = self.basepoint if self.basepoint is not None else 0.0
        return (pts - origin) @ self.basis.T

    def lift(self, coords: np.ndarray, heights: np.ndarray | None = None):
        """Map in-plane coordinates (and optional normal offsets) back to R^n."""
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        origin = (
            self.basepoint
            if self.basepoint is not None
            else np.zeros(self.ambient_dim)
        )
        pts = origin + coords @ self.basis
        if heights is not None:
            pts = pts + np.atleast_2d(heights)
        return pts

    def heights(self, points: np.ndarray) -> np.ndarray:
        """Unsigned normal distance of points to the affine plane."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        origin = self.basepoint if self.basepoint is not None else 0.0
        rel = pts - origin
        tang = (rel @ self.basis.T) @ self.basis
        return np.linalg.norm(rel - tang, axis=1)


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
        No points, or arrays of inconsistent shapes.
    NonFiniteInput
        A point, weight or tangent basis holds NaN or infinity.
    NonPositiveWeight
        A weight is zero or negative (also a ValueError).
    NonOrthonormalBasis
        A tangent basis has a Gram matrix off the identity by more than
        1e-8 in some entry; projector distances computed from normal
        frames (``multiscale.local_maximal_tilt``) assume orthonormal rows.
    """

    def __init__(self, points, weights, tangent_bases):
        points = np.ascontiguousarray(points, dtype=float)
        weights = np.ascontiguousarray(weights, dtype=float)
        bases = np.ascontiguousarray(tangent_bases, dtype=float)
        if points.ndim != 2:
            raise EmptyInput("points must be a 2-d array")
        if points.shape[0] == 0:
            raise EmptyInput("sample has no points")
        if weights.shape != (points.shape[0],):
            raise DimensionMismatch("weights shape mismatch")
        if bases.ndim != 3 or (bases.shape[0], bases.shape[2]) != points.shape:
            raise DimensionMismatch("tangent basis shape mismatch")
        arrays = {"point": points, "weight": weights, "tangent basis": bases}
        for name, arr in arrays.items():
            _require_finite_rows(arr, name)
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
        self._tree: cKDTree | None = None
        self._projectors: np.ndarray | None = None
        self._mean_spacing: float | None = None

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

    @property
    def mean_spacing(self) -> float:
        """Area-per-sample length scale, (total weight / N)^(1/m)."""
        if self._mean_spacing is None:
            m = self.intrinsic_dim
            self._mean_spacing = float(
                (self.total_weight / len(self)) ** (1.0 / m)
            )
        return self._mean_spacing

    # -- derived views ------------------------------------------------------

    @property
    def tangent_projectors(self) -> np.ndarray:
        """Stacked (N, n, n) tangent projectors, computed once."""
        if self._projectors is None:
            b = self.tangent_bases
            self._projectors = np.einsum("nmi,nmj->nij", b, b)
        return self._projectors

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
        """Rigidly moved / dilated copy (weights scale by scale^m)."""
        pts = self.points * scale
        bases = self.tangent_bases
        if rotation is not None:
            rot = np.asarray(rotation, dtype=float)
            pts = pts @ rot.T
            bases = np.einsum("ij,nmj->nmi", rot, bases)
        if translation is not None:
            pts = pts + np.asarray(translation, dtype=float)
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
        `dim` outside [1, n], or a center that is not one point in R^n.
    NonFiniteInput
        A point, weight or the center holds NaN or infinity.
    DegenerateCloud
        Second-moment rank below `dim`.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        raise EmptyInput("no points to fit")
    n = pts.shape[1]
    if not 1 <= dim <= n:
        raise DimensionMismatch(f"plane dimension {dim} is outside [1, {n}]")
    _require_finite_rows(pts, "point")
    if weights is None:
        w = np.ones(pts.shape[0])
    else:
        w = np.asarray(weights, dtype=float)
        _require_finite_rows(w, "weight")
    total = w.sum()
    if not total > 0:
        raise EmptyInput("total weight is not positive")
    if center is None:
        origin = (w[:, None] * pts).sum(axis=0) / total
    else:
        origin = _require_point(center, n, "plane center")
    rel = pts - origin
    cov = (rel * w[:, None]).T @ rel / total
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    scale = max(evals[0], 0.0)
    rank_tol = max(scale * 1e-12, 1e-300)
    if evals[dim - 1] <= rank_tol:
        raise DegenerateCloud(
            f"second-moment rank below {dim} (eigenvalues {evals[:dim]})"
        )
    basis = evecs[:, :dim].T
    basis = _canonical_rows(basis)
    return Plane(basis=basis, basepoint=origin)


def _require_positive(value, what: str) -> None:
    """Refuse a radius or floor that is not a positive finite number."""
    if not (np.isfinite(value) and value > 0):
        raise InvalidScale(f"{what} {value} is not positive and finite")


def _require_finite_rows(arr: np.ndarray, what: str) -> None:
    """NonFiniteInput naming `what` and the first row of `arr` that holds
    NaN or infinity."""
    bad = np.flatnonzero(~np.isfinite(arr).reshape(len(arr), -1).all(axis=1))
    if bad.size:
        raise NonFiniteInput(f"{what} of row {bad[0]} is not finite")


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

    Accepts Plane instances or raw (n, n) projector matrices.
    """
    a = p.projector if isinstance(p, Plane) else np.asarray(p, dtype=float)
    b = q.projector if isinstance(q, Plane) else np.asarray(q, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch(f"projector shapes {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def grassmann_project(matrix, rank: int) -> Plane:
    """Nearest rank-`rank` orthogonal projector to a square matrix.

    Symmetrizes the input and keeps the top-`rank` eigenspace.  When the
    eigengap at the cut is below 1e-9 an EigengapTie warning is issued and
    the deterministic lexicographic eigenvector choice is kept.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"need a square matrix, got {m.shape}")
    return Plane(basis=grassmann_bases(m, rank))


def grassmann_bases(matrices, rank: int) -> np.ndarray:
    """Top-`rank` eigenbases of a stack of square matrices, in one call.

    The batched form of `grassmann_project`: ``matrices`` has shape
    (..., n, n) and the result (..., rank, n) holds, per matrix, the
    orthonormal rows spanning its nearest rank-`rank` projector, with the
    same eigenvalue order and sign convention.  One EigengapTie warning,
    naming the smallest gap, covers every matrix tied at the cut.  Raises
    DimensionMismatch for matrices that are not square or a rank outside
    [1, n].
    """
    m = np.asarray(matrices, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"need square matrices, got {m.shape}")
    n = m.shape[-1]
    if not 0 < rank <= n:
        raise DimensionMismatch(f"rank {rank} out of range for shape {m.shape}")
    sym = 0.5 * (m + np.swapaxes(m, -1, -2))
    evals, evecs = np.linalg.eigh(sym)
    order = np.argsort(evals, axis=-1)[..., ::-1]
    evals = np.take_along_axis(evals, order, axis=-1)
    evecs = np.take_along_axis(evecs, order[..., None, :], axis=-1)
    if rank < n:
        gap = evals[..., rank - 1] - evals[..., rank]
        tied = gap < _EIGENGAP_TOL
        if np.any(tied):
            warnings.warn(
                f"eigengap {gap[tied].min():.3e} at the rank cut; keeping the "
                "lexicographic eigenvector choice",
                EigengapTie,
                stacklevel=3,
            )
    bases = np.swapaxes(evecs[..., :rank], -1, -2)
    return _canonical_rows(bases.reshape(-1, n)).reshape(bases.shape)


def _canonical_rows(basis: np.ndarray) -> np.ndarray:
    """Deterministic sign convention: first entry of largest magnitude
    in each row is made positive (lexicographic tie-break)."""
    out = basis.copy()
    lead = np.argmax(np.abs(out), axis=1)
    flip = out[np.arange(out.shape[0]), lead] < 0
    out[flip] = -out[flip]
    return out


def complement_frame(normals: np.ndarray) -> np.ndarray:
    """Orthonormal tangent pairs completing unit normals (N, 3) -> (N, 2, 3)."""
    ref = np.where(
        np.abs(normals[:, [0]]) < 0.9,
        np.array([[1.0, 0.0, 0.0]]),
        np.array([[0.0, 1.0, 0.0]]),
    )
    t1 = np.cross(normals, ref)
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = np.cross(normals, t1)
    t2 /= np.linalg.norm(t2, axis=1, keepdims=True)
    return np.stack([t1, t2], axis=1)
