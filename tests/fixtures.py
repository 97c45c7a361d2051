"""Test-only constructors: a structured disk mesh, the icosphere, the
weighted sample at the vertices of a mesh, analytic curvature fields and
the orthogonal-projector check."""

import numpy as np
from scipy.spatial import Delaunay

from varifoldlab.curvature import CurvatureField
from varifoldlab.errors import MissingCurvature
from varifoldlab.geometry import WeightedSurfaceSample, complement_frame
from varifoldlab.meshing import orient_ccw, triangle_areas, vertex_areas

_PROJECTOR_TOL = 1e-10


def structured_disk_mesh(rings: int, radius: float = 1.0):
    """Polar disk mesh with a clean circular boundary.

    Ring ``j`` (1..rings) carries ``6 j`` vertices at radius ``j / rings``
    times ``radius``; triangles come from a Delaunay pass over the rings
    (a tiny deterministic radial perturbation breaks cocircular ties).
    Returns ``(points (k, 2), triangles (t, 3))`` with counterclockwise
    triangles; the convex hull is the outer ring.
    """
    if rings < 1:
        raise ValueError("rings must be at least 1")
    pts = [np.zeros((1, 2))]
    for j in range(1, rings + 1):
        m = 6 * j
        ang = 2.0 * np.pi * np.arange(m) / m
        r = radius * (j / rings) * (1.0 + 1e-9 * np.sin(7.0 * np.arange(m)))
        pts.append(np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1))
    points = np.vstack(pts)
    tris = Delaunay(points).simplices
    keep = triangle_areas(points, tris) > 0.5e-12 * radius * radius
    return points, orient_ccw(points, tris[keep])


def icosphere(subdivisions: int = 3, radius: float = 1.0):
    """Subdivided icosahedron on the sphere of given radius.

    Returns (vertices, faces) with outward orientation.
    """
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=int,
    )
    for _ in range(subdivisions):
        verts, faces = _subdivide(verts, faces)
    return verts * radius, faces


def _subdivide(verts: np.ndarray, faces: np.ndarray):
    verts = list(verts)
    cache: dict = {}

    def midpoint(i, j):
        key = (min(i, j), max(i, j))
        if key not in cache:
            m = 0.5 * (np.asarray(verts[i]) + np.asarray(verts[j]))
            m /= np.linalg.norm(m)
            cache[key] = len(verts)
            verts.append(m)
        return cache[key]

    new_faces = []
    for a, b, c in faces:
        ab = midpoint(a, b)
        bc = midpoint(b, c)
        ca = midpoint(c, a)
        new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
    return np.asarray(verts), np.asarray(new_faces, dtype=int)


def mesh_to_sample(vertices: np.ndarray, faces: np.ndarray) -> WeightedSurfaceSample:
    """Weighted sample at the vertices of a closed or bordered surface mesh.

    Weights are barycentric vertex areas; tangent planes come from
    area-weighted averages of incident face normals, that is from the sum
    of the incident face cross products.
    """
    v = np.asarray(vertices, dtype=float)
    f = np.asarray(faces, dtype=int)
    cross = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    acc = np.zeros_like(v)
    for k in range(3):
        np.add.at(acc, f[:, k], cross)
    n_hat = acc / np.linalg.norm(acc, axis=1, keepdims=True)
    return WeightedSurfaceSample(v, vertex_areas(v, f), complement_frame(n_hat))


def analytic_field(sample: WeightedSurfaceSample, vectors: np.ndarray) -> CurvatureField:
    """Wrap known per-point curvature vectors as a full-coverage field."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.shape != sample.points.shape:
        raise MissingCurvature("vectors must align with sample rows")
    return CurvatureField(
        indices=np.arange(len(sample)),
        vectors=vectors,
        radius=0.0,
        residuals=np.zeros(len(sample)),
        orthogonal=np.ones(len(sample), dtype=bool),
    )


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
