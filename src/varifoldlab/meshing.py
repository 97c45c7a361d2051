"""Triangle-mesh utilities: areas, angle defects, Laplacians, adjacency.

Shared by the curvature cross-check path and the disk parameterization.
Orientation conventions follow the face winding as given; only
``orient_ccw`` reorders it, on request.

``mesh_edges`` is the only owner of the undirected-edge representation:
every edge count, boundary test, skeleton graph and midpoint index in the
toolkit reads its table instead of rebuilding edges from the faces.
``orientation_dets`` is the only owner of the planar triangle orientation
determinant: 2-D areas, winding flips, fold counts and PL Jacobians all
read it.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .errors import DegenerateTriangle


def orientation_dets(coords: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Twice the signed area of every triangle of ``faces`` in planar
    ``coords`` (k, 2): positive for counterclockwise winding."""
    e1 = coords[faces[:, 1]] - coords[faces[:, 0]]
    e2 = coords[faces[:, 2]] - coords[faces[:, 0]]
    return e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]


def triangle_areas(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    v = np.asarray(vertices, dtype=float)
    f = np.asarray(faces, dtype=int)
    if v.shape[1] == 2:
        return 0.5 * np.abs(orientation_dets(v, f))
    cross = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    return 0.5 * np.linalg.norm(cross, axis=1)


def angle_defects(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """2*pi minus the sum of incident corner angles, per vertex.

    The distributional (integrated) Gauss curvature of the piecewise-linear
    surface at interior vertices; boundary vertices report the same formula
    and should be masked by the caller.
    """
    v = np.asarray(vertices, dtype=float)
    f = np.asarray(faces, dtype=int)
    out = np.full(len(v), 2.0 * np.pi)
    for c in range(3):
        a = v[f[:, c]]
        b = v[f[:, (c + 1) % 3]]
        d = v[f[:, (c + 2) % 3]]
        e1 = b - a
        e2 = d - a
        denom = np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1)
        if np.any(denom <= 0):
            raise DegenerateTriangle("zero-length edge at a corner")
        cosang = np.einsum("ij,ij->i", e1, e2) / denom
        np.subtract.at(out, f[:, c], np.arccos(np.clip(cosang, -1.0, 1.0)))
    return out


def orient_ccw(coords: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Copy of ``faces`` with every clockwise triangle in ``coords`` (k, 2)
    flipped to counterclockwise; degenerate triangles keep their winding."""
    f = np.asarray(faces)
    flip = orientation_dets(coords, f) < 0
    out = f.copy()
    out[flip, 1], out[flip, 2] = f[flip, 2], f[flip, 1]
    return out


def vertex_areas(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Barycentric vertex areas: one third of each incident face."""
    areas = triangle_areas(vertices, faces)
    out = np.zeros(len(vertices))
    for k in range(3):
        np.add.at(out, faces[:, k], areas / 3.0)
    return out


def _cotangents(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Cotangent of the angle at each face corner, shape (F, 3)."""
    v = np.asarray(vertices, dtype=float)
    f = np.asarray(faces, dtype=int)
    cots = np.empty((len(f), 3))
    for k in range(3):
        a = v[f[:, (k + 1) % 3]] - v[f[:, k]]
        b = v[f[:, (k + 2) % 3]] - v[f[:, k]]
        dot = np.einsum("ij,ij->i", a, b)
        if v.shape[1] == 2:
            crossn = np.abs(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
        else:
            crossn = np.linalg.norm(np.cross(a, b), axis=1)
        if np.any(crossn <= 0):
            raise DegenerateTriangle("zero-area face in cotangent assembly")
        cots[:, k] = dot / crossn
    return cots


def cotangent_laplacian(vertices: np.ndarray, faces: np.ndarray) -> sparse.csr_matrix:
    """Negative-semidefinite cotangent operator.

    Off-diagonal entry for edge (i, j) is half the sum of the cotangents of
    the angles opposite to the edge; diagonal holds minus the row sum, so
    constants are in the kernel.
    """
    f = np.asarray(faces, dtype=int)
    cots = _cotangents(vertices, f)
    rows, cols, vals = [], [], []
    for k in range(3):
        i = f[:, (k + 1) % 3]
        j = f[:, (k + 2) % 3]
        w = 0.5 * cots[:, k]
        rows += [i, j]
        cols += [j, i]
        vals += [w, w]
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    n = len(vertices)
    L = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    L = L - sparse.diags(np.asarray(L.sum(axis=1)).ravel())
    return L.tocsr()


def mesh_edges(faces: np.ndarray, n_vertices: int):
    """Undirected edge table of a triangle set.

    Slot ``k`` of face ``t`` is the edge from ``faces[t, k]`` to
    ``faces[t, (k + 1) % 3]``; it is keyed as ``lo * n_vertices + hi`` and
    the keys are made unique in one pass.

    Returns
    -------
    edges : ndarray, shape (E, 2)
        Unique edges as ``lo < hi`` rows in lexicographic order.
    face_edges : ndarray, shape (F, 3)
        Row of ``edges`` for every face slot.
    counts : ndarray, shape (E,)
        Number of faces on each edge: 1 on the boundary, 2 inside.
    """
    f = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    g = np.roll(f, -1, axis=1)
    keys, inverse, counts = np.unique(
        (np.minimum(f, g) * n_vertices + np.maximum(f, g)).ravel(),
        return_inverse=True,
        return_counts=True,
    )
    edges = np.stack([keys // n_vertices, keys % n_vertices], axis=1)
    return edges, inverse.reshape(f.shape), counts
