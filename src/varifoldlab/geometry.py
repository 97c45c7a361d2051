"""Core geometric types and operations.

Planes are stored as orthonormal bases together with their orthogonal
projectors; weighted surface samples bundle points, weights, and per-point
tangent planes with an exact spatial index.  All higher-level analysis
modules build on the four operations here: weighted PCA plane fitting,
projector (Frobenius) distances, exact Hausdorff distances, and nearest
orthogonal projector extraction from a symmetric matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    DegenerateCloud,
    DimensionMismatch,
    EigengapTie,
    EmptyInput,
    EmptySet,
)

_PROJECTOR_TOL = 1e-10
_EIGENGAP_TOL = 1e-9


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
        if not np.allclose(gram, np.eye(basis.shape[0]), atol=1e-8):
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

    @property
    def normal_projector(self) -> np.ndarray:
        return np.eye(self.ambient_dim) - self.projector

    def project_points(self, points: np.ndarray) -> np.ndarray:
        """Orthogonal projection of ambient points onto the affine plane."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        origin = self.basepoint if self.basepoint is not None else 0.0
        rel = pts - origin
        return origin + (rel @ self.basis.T) @ self.basis

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
    """Closed metric ball in the ambient space."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        object.__setattr__(self, "center", center)
        if not self.radius > 0:
            raise ValueError(f"ball radius must be positive, got {self.radius}")


class WeightedSurfaceSample:
    """Weighted point sample of an m-surface with tangent planes.

    Parameters
    ----------
    points : ndarray, shape (N, n)
    weights : ndarray, shape (N,)
        Strictly positive quadrature weights (area per sample).
    tangent_bases : ndarray, shape (N, m, n)
        Orthonormal tangent basis per point.
    faces : ndarray or None
        Optional triangle connectivity for mesh-sourced samples.
    """

    def __init__(self, points, weights, tangent_bases, faces=None):
        points = np.ascontiguousarray(points, dtype=float)
        weights = np.ascontiguousarray(weights, dtype=float)
        bases = np.ascontiguousarray(tangent_bases, dtype=float)
        if points.ndim != 2:
            raise EmptyInput("points must be a 2-d array")
        if points.shape[0] == 0:
            raise EmptyInput("sample has no points")
        if weights.shape != (points.shape[0],):
            raise DimensionMismatch("weights shape mismatch")
        if np.any(weights <= 0):
            raise ValueError("weights must be strictly positive")
        if bases.shape[0] != points.shape[0] or bases.shape[2] != points.shape[1]:
            raise DimensionMismatch("tangent basis shape mismatch")
        self.points = points
        self.weights = weights
        self.tangent_bases = bases
        self.faces = None if faces is None else np.asarray(faces, dtype=int)
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

    def tangent_plane(self, i: int) -> Plane:
        return Plane(basis=self.tangent_bases[i], basepoint=self.points[i])

    @property
    def spatial_index(self) -> cKDTree:
        if self._tree is None:
            self._tree = cKDTree(self.points)
        return self._tree

    def ball_query(self, center, radius: float) -> np.ndarray:
        """Indices of points with |p - center| <= radius, sorted ascending."""
        idx = self.spatial_index.query_ball_point(
            np.asarray(center, dtype=float), radius
        )
        return np.sort(np.asarray(idx, dtype=int))

    def restrict(self, indices) -> "WeightedSurfaceSample":
        idx = np.asarray(indices, dtype=int)
        return WeightedSurfaceSample(
            self.points[idx], self.weights[idx], self.tangent_bases[idx]
        )

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
        return WeightedSurfaceSample(pts, w, bases, faces=self.faces)


# ---------------------------------------------------------------------------
# operations


def fit_plane_pca(
    points,
    weights=None,
    dim: int = 2,
    center=None,
    pin_to_center: bool = False,
) -> Plane:
    """Weighted PCA plane through the weighted centroid (or a pinned center).

    Parameters
    ----------
    points : ndarray, shape (N, n)
    weights : ndarray or None
        Uniform if None.
    dim : int
        Plane dimension m.
    center : ndarray or None
        Reference point; required when pin_to_center is True.
    pin_to_center : bool
        If True the plane passes through `center` and second moments are
        taken about it; otherwise about the weighted centroid.

    Returns
    -------
    Plane
        Basepoint is the centroid (or the pinned center).

    Raises
    ------
    EmptyInput
        No points or nonpositive total weight.
    DegenerateCloud
        Second-moment rank below `dim`.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        raise EmptyInput("no points to fit")
    n = pts.shape[1]
    if weights is None:
        w = np.ones(pts.shape[0])
    else:
        w = np.asarray(weights, dtype=float)
    total = w.sum()
    if not total > 0:
        raise EmptyInput("total weight is not positive")
    if pin_to_center:
        if center is None:
            raise ValueError("pin_to_center requires a center")
        origin = np.asarray(center, dtype=float)
    else:
        origin = (w[:, None] * pts).sum(axis=0) / total
    rel = pts - origin
    cov = (rel * w[:, None]).T @ rel / total
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    scale = max(evals[0], 0.0)
    rank_tol = max(scale * 1e-12, 1e-300)
    if dim > n or evals[dim - 1] <= rank_tol:
        raise DegenerateCloud(
            f"second-moment rank below {dim} (eigenvalues {evals[:dim]})"
        )
    basis = evecs[:, :dim].T
    basis = _canonical_rows(basis)
    return Plane(basis=basis, basepoint=origin)


def projector_distance(p, q) -> float:
    """Frobenius distance between two orthogonal projectors.

    Accepts Plane instances or raw (n, n) projector matrices.
    """
    a = p.projector if isinstance(p, Plane) else np.asarray(p, dtype=float)
    b = q.projector if isinstance(q, Plane) else np.asarray(q, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch(f"projector shapes {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def hausdorff_distance(a, b) -> float:
    """Exact bilateral Hausdorff distance between two finite point sets.

    Nearest neighbors come from a KD-tree; the returned value recomputes
    the distances from coordinates so it is bit-identical to the O(N*M)
    double loop.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise EmptySet("Hausdorff distance against an empty set")
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch(f"ambient dims {a.shape[1]} vs {b.shape[1]}")
    return max(_directed_hausdorff(a, b), _directed_hausdorff(b, a))


def _directed_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    tree = cKDTree(b)
    _, nn = tree.query(a, k=1)
    d = np.sqrt(np.sum((a - b[nn]) ** 2, axis=1))
    # guard against any KD-tree argmin tie resolving to a non-minimal pair:
    # recompute exact minima for the worst candidates only
    worst = np.argsort(d)[-min(8, len(d)) :]
    for i in worst:
        d2 = np.sum((b - a[i]) ** 2, axis=1)
        d[i] = np.sqrt(d2.min())
    return float(d.max())


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
    naming the smallest gap, covers every matrix tied at the cut.
    """
    m = np.asarray(matrices, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"need square matrices, got {m.shape}")
    n = m.shape[-1]
    if not 0 < rank <= n:
        raise ValueError(f"rank {rank} out of range for shape {m.shape}")
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


def check_projector(p: np.ndarray, dim: int) -> bool:
    """True when p is symmetric, idempotent, contractive, of trace dim."""
    p = np.asarray(p, dtype=float)
    if not np.allclose(p, p.T, atol=_PROJECTOR_TOL):
        return False
    if not np.allclose(p @ p, p, atol=_PROJECTOR_TOL):
        return False
    if abs(float(np.trace(p)) - dim) > _PROJECTOR_TOL * max(1, dim):
        return False
    sv = np.linalg.svd(p, compute_uv=False)
    return bool(sv.max() <= 1 + _PROJECTOR_TOL)
