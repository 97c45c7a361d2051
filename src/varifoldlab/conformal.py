"""Topological-disk patches and the energy-minimizing disk parameterization.

Pipeline: extract a triangulated disk patch from a ball of a surface sample,
flatten it harmonically onto the unit disk with a boundary trace that pins
three boundary points to the cube roots of unity and runs by arc length
between them, and evaluate the conformal diagnostics: log conformal factor,
quasi-symmetry ratios, scaled-isometry affine fits, dyadic BMO / A2 /
inverse-Hoelder statistics, large Lipschitz pieces, curvature-equation
residuals, and isoperimetric ratios of Jordan cycles.

Conventions
-----------
* The parameterization maps unit-disk mesh vertices to the original patch
  points; the harmonic solve determines the disk positions (patch -> disk
  per coordinate, then read inversely), so vertices never leave the sample.
* The log conformal factor w is defined by ``e^{2w} = |det grad f|`` (the
  Jacobian area factor), so the pullback metric is ``e^{2w} (dx^2 + dy^2)``
  for near-conformal maps.
* Dyadic squares live on the parameter disk.  A square is admissible when
  it holds at least ``MIN_SQUARE_TRIANGLES`` triangle centroids and those
  triangles cover at least ``SQUARE_COVERAGE`` of its area, which skips
  squares straddling the mesh boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.sparse.linalg import splu
from scipy.spatial import Delaunay, cKDTree

from . import geometry
from .curvature import CurvatureField
from .errors import (
    DegenerateTriangle,
    DimensionMismatch,
    DisconnectedPatch,
    FoldedTriangles,
    MissingCurvature,
    NoBoundaryCycle,
    NonFiniteInput,
    NotDiskTopology,
    NotJordan,
    PointOutsideDomain,
    RankDeficient,
    SolverSingular,
    TooFewPoints,
)
from .geometry import (
    WeightedSurfaceSample,
    _pair_blocks,
    _pair_lipschitz,
    _require_finite_rows,
    _require_indices,
    _require_point,
    _require_positive,
    _require_rows,
    fit_plane_pca,
)
from .meshing import (
    angle_defects,
    cotangent_laplacian,
    mesh_edges,
    orient_ccw,
    orientation_dets,
    triangle_areas,
    vertex_areas,
    vertex_sums,
)

__all__ = [
    "AffineFit",
    "ConformalDiagnostics",
    "ConformalFactor",
    "CurvatureResiduals",
    "DiskParameterization",
    "DiskPatch",
    "DyadicSquare",
    "LipschitzPieces",
    "QuasisymmetryTable",
    "conformal_diagnostics",
    "conformal_factor",
    "curvature_equation_residuals",
    "dyadic_squares",
    "extract_disk_patch",
    "harmonic_disk_param",
    "intrinsic_metric_diagnostics",
    "isoperimetric_check",
    "large_lipschitz_pieces",
    "mobius_reparameterized",
    "quasisymmetry_table",
    "refine_disk_patch",
    "semmes_affine_fit",
    "waypoint_cycle",
]


# ---------------------------------------------------------------------------
# disk patch


def _read_only(values, dtype=None) -> np.ndarray:
    """A read-only view of `values` as an array of `dtype`; the caller's
    array keeps its flags."""
    view = np.asarray(values, dtype=dtype).view()
    view.flags.writeable = False
    return view


# Neighborhood-graph radius for intrinsic shortest paths, in units of mean
# sample spacing.  Four spacings keep the graph-metric stretch of straight
# lines below one percent.
METRIC_RADIUS_MULT = 4.0


@dataclass(frozen=True, eq=False)
class DiskPatch:
    """Edge-connected triangulated patch with disk topology; frozen, its
    arrays stored as read-only views.

    Attributes
    ----------
    points : ndarray, shape (k, n)
        Vertex positions in the ambient space.
    triangles : ndarray, shape (t, 3)
        Vertex triples, counterclockwise in ``plane_coords``.
    boundary : ndarray
        The single boundary cycle, counterclockwise in ``plane_coords``.
    plane_coords : ndarray, shape (k, 2)
        Parameter-plane coordinates: the projection onto the PCA reference
        plane for an extracted patch, the caller's for a wrapped mesh, and
        edge midpoints in this plane for refined vertices.
    center : ndarray
        Ball center the patch was extracted around.
    sigma : float
        Ball radius.
    psi : float
        Measured inclusion margin: every sample point within
        ``(1 - psi) * sigma`` of the center is a patch vertex.
    spacing : float
        Mean sample spacing at extraction time.
    sample_rows : ndarray
        Source sample row per vertex, -1 for vertices created later
        (e.g. by refinement).

    ``metric_radius`` is derived on read; ``boundary_chord_arc`` is a
    cached attribute computed on first read.  The path graphs of
    `intrinsic_metric_diagnostics` and `waypoint_cycle` are built per call
    and are not kept on the patch.
    """

    points: np.ndarray
    triangles: np.ndarray
    boundary: np.ndarray
    plane_coords: np.ndarray
    center: np.ndarray
    sigma: float
    psi: float
    spacing: float
    sample_rows: np.ndarray

    def __post_init__(self):
        # frozen down to the arrays: no in-place write moves the patch
        # under its cached chord-arc constant or a parameterization built on it
        for name in ("points", "triangles", "boundary", "plane_coords", "center", "sample_rows"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def metric_radius(self) -> float:
        """Neighborhood-graph radius for intrinsic shortest paths."""
        return METRIC_RADIUS_MULT * self.spacing

    @cached_property
    def boundary_chord_arc(self) -> float:
        """Measured constant C in  minor-arc(x, y) <= C sqrt(sigma |x - y|)
        over boundary pairs, computed on first read."""
        return _boundary_chord_arc(self.points, self.boundary, self.sigma)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def euler_characteristic(self) -> int:
        edges = mesh_edges(self.triangles, len(self.points))[0]
        return len(self.points) - len(edges) + len(self.triangles)

    def surface_triangle_areas(self) -> np.ndarray:
        return triangle_areas(self.points, self.triangles)

    @classmethod
    def from_mesh(
        cls,
        points,
        triangles,
        *,
        plane_coords=None,
        center=None,
        sigma: float | None = None,
        spacing: float | None = None,
    ) -> "DiskPatch":
        """Wrap an explicit triangle mesh, validating disk topology (see
        `_disk_complex`): the one constructor of every patch.

        ``plane_coords`` defaults to the first two ambient coordinates, and
        ``psi`` is set by the boundary vertex nearest the center.
        A vertex index outside [0, len(points)), or not an integer, raises
        InvalidIndex, a non-finite point, plane coordinate or center
        NonFiniteInput, points that are not (k, n) rows, plane coordinates
        (given, or the default ones) not of shape (len(points), 2) or a
        center not in the points' space DimensionMismatch, and a radius or
        spacing that is not positive and finite InvalidScale.
        """
        pts = _require_rows(points, None, "patch point")
        tris = _require_indices(triangles, len(pts), "triangle vertex", "vertices")
        if plane_coords is None:
            plane_coords = pts[:, :2].copy()
        coords = _require_rows(plane_coords, 2, "plane coordinate")
        if len(coords) != len(pts):
            raise DimensionMismatch(
                f"{len(coords)} plane coordinates for {len(pts)} points"
            )
        tris, boundary = _disk_complex(coords, tris, len(pts))
        if center is None:
            ctr = pts.mean(axis=0)
        else:
            ctr = _require_point(center, pts.shape[1], "patch center")
        sig = float(np.linalg.norm(pts - ctr, axis=1).max() if sigma is None else sigma)
        _require_positive(sig, "patch radius")
        if spacing is None:
            seg = pts[tris[:, 1]] - pts[tris[:, 0]]
            spacing = float(np.median(np.linalg.norm(seg, axis=1)))
        _require_positive(spacing, "patch spacing")
        bd_r = np.linalg.norm(pts[boundary] - ctr, axis=1)
        psi = float(np.clip(1.0 - bd_r.min() / sig, 0.0, 1.0))
        return cls(
            points=pts,
            triangles=tris,
            boundary=boundary,
            plane_coords=coords,
            center=ctr,
            sigma=sig,
            psi=psi,
            spacing=float(spacing),
            sample_rows=np.full(len(pts), -1, dtype=int),
        )


def _length_graph(
    points: np.ndarray, edges: np.ndarray, radius: float | None = None
) -> sparse.csr_matrix:
    """Symmetric graph holding the length of every (m, 2) edge at both
    orientations, joined by the pairs of points within `radius` when given.

    The keys ``row * n + col`` of both orientations are sorted and made
    unique by a neighbour compare, which gives the CSR column indices and
    row pointers directly; the pair table is dropped once keyed, and the
    lengths are taken ``geometry._PAIR_BLOCK`` entries at a time.
    """
    n = len(points)
    sources = [edges]
    if radius is not None:
        sources.append(cKDTree(points).query_pairs(radius, output_type="ndarray").reshape(-1, 2))
    keys = np.concatenate(
        [e[:, i] * np.int64(n) + e[:, 1 - i] for i in (0, 1) for e in sources]
    )
    del sources
    keys.sort()
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    data = np.empty(len(keys))
    for lo in range(0, len(keys), geometry._PAIR_BLOCK):
        part = keys[lo : lo + geometry._PAIR_BLOCK]
        data[lo : lo + len(part)] = np.linalg.norm(points[part // n] - points[part % n], axis=1)
    indices = np.empty(len(keys), dtype=np.int32)
    np.remainder(keys, n, out=indices, casting="unsafe")
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


def _metric_graph(patch: DiskPatch, edges: np.ndarray) -> sparse.csr_matrix:
    """Neighborhood graph of the patch (radius ``metric_radius``) joined
    with its mesh `edges`.  Raises DisconnectedPatch when it has more than
    one component."""
    graph = _length_graph(patch.points, edges, patch.metric_radius)
    if connected_components(graph, directed=False)[0] != 1:
        raise DisconnectedPatch("patch neighborhood graph is disconnected")
    return graph


def _interior_slot_pairs(face_edges: np.ndarray, counts: np.ndarray):
    """The two face slots (``3 t + k``) of every edge shared by two faces."""
    slots = np.flatnonzero(counts[face_edges].ravel() == 2)
    slots = slots[np.argsort(face_edges.ravel()[slots], kind="stable")]
    return slots[0::2], slots[1::2]


def _disk_complex(coords: np.ndarray, tris: np.ndarray, n_vertices: int):
    """Validate that the triangle set is a disk; return (ccw tris, boundary).

    Checks: every vertex is used, edges are shared by at most two triangles,
    every vertex link is a single fan, Euler characteristic is one (else
    NotDiskTopology), every triangle has an orientation determinant in
    `coords` above 1e-14 of the largest (else DegenerateTriangle), and the
    boundary is a single cycle (else NoBoundaryCycle).
    """
    if len(tris) == 0:
        raise NotDiskTopology("no triangles survive in the patch")
    used = np.unique(tris)
    if len(used) != n_vertices:
        raise NotDiskTopology(
            f"{n_vertices - len(used)} vertices are not in any triangle"
        )
    tris = orient_ccw(coords, tris)
    edges, face_edges, counts = mesh_edges(tris, n_vertices)
    if counts.max() > 2:
        raise NotDiskTopology("an edge is shared by more than two triangles")

    # single-fan check: corner 3 t + k sits at vertex tris[t, k]; two corners
    # of one vertex are joined when their triangles share an interior edge
    # through it, so a vertex whose link is one fan has one corner component
    corner_vertex = tris.ravel()
    s1, s2 = _interior_slot_pairs(face_edges, counts)
    # slot s starts at corner s and ends at the next corner of its triangle
    h1, h2 = s1 - s1 % 3 + (s1 + 1) % 3, s2 - s2 % 3 + (s2 + 1) % 3
    same = corner_vertex[s1] == corner_vertex[s2]  # edge runs the same way
    n_corners = len(corner_vertex)
    joins = sparse.coo_matrix(
        (
            np.ones(2 * len(s1)),
            (
                np.concatenate([s1, h1]),
                np.concatenate([np.where(same, s2, h2), np.where(same, h2, s2)]),
            ),
        ),
        shape=(n_corners, n_corners),
    )
    labels = connected_components(joins, directed=False)[1]
    first = np.unique(labels, return_index=True)[1]
    fans = np.bincount(corner_vertex[first], minlength=n_vertices)
    if fans.max() > 1:
        v = int(np.argmax(fans > 1))
        raise NotDiskTopology(f"pinched vertex {v}: link is not a single fan")

    euler = n_vertices - len(edges) + len(tris)
    if euler != 1:
        raise NotDiskTopology(f"Euler characteristic {euler}, expected 1")

    # a flat triangle has no winding, so it would break the boundary walk
    dets = orientation_dets(coords, tris)
    flat = np.flatnonzero(dets <= 1e-14 * dets.max())
    if flat.size:
        t = flat[0]
        raise DegenerateTriangle(f"triangle {t} {tris[t]} has no area in the plane coordinates")

    # boundary half-edges tail -> head, in triangle then slot order
    on_boundary = counts[face_edges] == 1
    tails = tris[on_boundary]
    heads = np.roll(tris, -1, axis=1)[on_boundary]
    if len(tails) == 0:
        raise NoBoundaryCycle("patch has no boundary edges")
    fork, outgoing = np.unique(tails, return_counts=True)
    if outgoing.max() > 1:
        raise NoBoundaryCycle(f"boundary forks at vertex {fork[outgoing > 1][0]}")
    # a boundary vertex's link is one path, whose two end edges are its
    # boundary edges; no vertex has two outgoing, so none has two incoming
    # and the successors permute the boundary vertices: every walk closes
    succ = np.full(n_vertices, -1)
    succ[tails] = heads
    start = int(tails.min())
    cycle = [start]
    cur = int(succ[start])
    while cur != start:
        cycle.append(cur)
        cur = int(succ[cur])
    if len(cycle) != len(tails):
        raise NoBoundaryCycle("patch has more than one boundary cycle")
    boundary = np.asarray(cycle, dtype=int)
    poly = coords[boundary]
    area2 = np.sum(
        poly[:, 0] * np.roll(poly[:, 1], -1) - poly[:, 1] * np.roll(poly[:, 0], -1)
    )
    if area2 < 0:
        boundary = boundary[::-1].copy()
    return tris, boundary


def _cycle_arcs(points: np.ndarray):
    """Edge lengths of the closed polygon through `points` (edge i from
    point i to the next, the last back to the first), the arc length from
    the first point to each point, and the total length."""
    seg = np.linalg.norm(np.roll(points, -1, axis=0) - points, axis=1)
    return seg, np.concatenate([[0.0], np.cumsum(seg)[:-1]]), float(seg.sum())


# `DiskPatch.boundary_chord_arc` compares at most this many boundary
# vertices, evenly spaced along the cycle, pairwise.
CHORD_ARC_SAMPLES = 256


def _boundary_chord_arc(points: np.ndarray, boundary: np.ndarray, sigma: float) -> float:
    bp = points[boundary]
    _, cum, total = _cycle_arcs(bp)
    if total <= 0 or sigma <= 0:
        return 0.0
    if len(bp) > CHORD_ARC_SAMPLES:
        sel = np.linspace(0, len(bp) - 1, CHORD_ARC_SAMPLES).astype(int)
        bp = bp[sel]
        cum = cum[sel]
    worst = 0.0
    for part, chord in _pair_blocks(np.arange(len(bp)), bp):
        ds = np.abs(cum[part, None] - cum)
        arc = np.minimum(ds, total - ds)
        mask = chord > 1e-12 * sigma
        worst = float((arc[mask] / np.sqrt(sigma * chord[mask])).max(initial=worst))
    return worst


# Patch triangulation keeps a triangle only when its circumradius is at most
# this multiple of the mean sample spacing, so holes and sliver fills never
# enter the complex.
PATCH_ALPHA_MULT = 1.6


def extract_disk_patch(
    sample: WeightedSurfaceSample, center, sigma: float
) -> DiskPatch:
    """Triangulated disk patch of the sample inside a ball.

    Projects the ball onto its PCA reference plane, triangulates the
    projected points, keeps triangles whose circumradius stays below
    ``PATCH_ALPHA_MULT`` mean spacings (so holes and sliver fills are
    dropped), extracts the edge-connected component containing the vertex
    nearest the center, and validates disk topology through
    ``DiskPatch.from_mesh``; ``psi`` also stops short of the ball points
    left out.  Intended for balls where the multiscale flatness
    certificates hold; on wilder input it raises rather than returning a
    non-disk complex.

    Raises
    ------
    NotDiskTopology
        Non-graphical (double-covering) projection, no triangle passing
        the circumradius filter, non-manifold link, or Euler
        characteristic different from one.
    NoBoundaryCycle
        Boundary is empty, forked, or has several cycles.
    TooFewPoints
        Ball holds fewer than six sample points.
    """
    center = np.asarray(center, dtype=float)
    rows = sample.ball_query(center, sigma)
    if len(rows) < 6:
        raise TooFewPoints(f"ball holds {len(rows)} points; need at least 6")
    pts = sample.points[rows]
    spacing = sample.mean_spacing
    plane = fit_plane_pca(pts, weights=sample.weights[rows], dim=2)
    coords = plane.coordinates(pts)

    # a graphical patch projects injectively: nearby plane images must be
    # nearby in space, otherwise the ball wraps more than one sheet
    flat_tree = cKDTree(coords)
    close = flat_tree.query_pairs(0.35 * spacing, output_type="ndarray")
    if len(close):
        d3 = np.linalg.norm(pts[close[:, 0]] - pts[close[:, 1]], axis=1)
        if np.any(d3 > 2.5 * spacing):
            raise NotDiskTopology(
                "ball projects more than one sheet onto the reference plane"
            )

    tris = Delaunay(coords).simplices
    # alpha filter: circumradius against spacing, plus a planar-area floor
    p0, p1, p2 = pts[tris[:, 0]], pts[tris[:, 1]], pts[tris[:, 2]]
    la = np.linalg.norm(p1 - p0, axis=1)
    lb = np.linalg.norm(p2 - p1, axis=1)
    lc = np.linalg.norm(p0 - p2, axis=1)
    area3 = triangle_areas(pts, tris)
    area2 = triangle_areas(coords, tris)
    with np.errstate(divide="ignore", invalid="ignore"):
        circum = np.where(area3 > 0, la * lb * lc / (4.0 * area3), np.inf)
    keep = (
        (circum <= PATCH_ALPHA_MULT * spacing)
        & (area2 > 1e-9 * spacing * spacing)
    )
    tris = tris[keep]
    if len(tris) == 0:
        raise NotDiskTopology("no triangle passes the circumradius filter")

    seed_vertex = int(np.argmin(np.linalg.norm(pts - center, axis=1)))
    comp = _edge_component(tris, seed_vertex)
    if comp is None:
        raise NotDiskTopology("vertex nearest the center is isolated")
    tris = tris[comp]

    used, inverse = np.unique(tris, return_inverse=True)
    patch = DiskPatch.from_mesh(
        pts[used], inverse.reshape(tris.shape), plane_coords=coords[used],
        center=center, sigma=sigma, spacing=spacing,
    )
    # the measured inclusion margin also stops short of the nearest ball
    # point the patch dropped (none: r_miss is inf and psi stays)
    r_miss = np.linalg.norm(np.delete(pts, used, axis=0) - center, axis=1).min(initial=np.inf)
    psi = max(patch.psi, float(np.clip(1.0 - r_miss * (1.0 - 1e-9) / sigma, 0.0, 1.0)))
    return replace(patch, psi=psi, sample_rows=rows[used])


def _edge_component(tris: np.ndarray, seed_vertex: int):
    """Mask of the edge-connected triangle component containing the vertex.

    Triangles are linked through edges shared by exactly two of them; when
    several components touch the vertex, the largest one wins.
    """
    seed_tris = np.flatnonzero((tris == seed_vertex).any(axis=1))
    if len(seed_tris) == 0:
        return None
    _, face_edges, counts = mesh_edges(tris, int(tris.max()) + 1)
    s1, s2 = _interior_slot_pairs(face_edges, counts)
    links = sparse.coo_matrix(
        (np.ones(len(s1)), (s1 // 3, s2 // 3)), shape=(len(tris), len(tris))
    )
    labels = connected_components(links, directed=False)[1]
    seed_labels = np.unique(labels[seed_tris])
    best = seed_labels[np.argmax(np.bincount(labels)[seed_labels])]
    return labels == best


def refine_disk_patch(
    patch: DiskPatch,
    projector: Callable | None = None,
    boundary_projector: Callable | None = None,
) -> DiskPatch:
    """Midpoint 1-to-4 subdivision; new vertices optionally projected.

    ``projector`` maps an (m, n) array of interior-edge midpoints onto the
    underlying surface (e.g. radial projection onto a sphere);
    ``boundary_projector`` does the same for boundary-edge midpoints (e.g.
    projection onto the rim circle, keeping the boundary unragged).
    Unprojected midpoints stay on their chords; projected ones must be one
    finite row in R^n each (else DimensionMismatch or NonFiniteInput).  A
    new vertex sits at the midpoint of its edge in the parameter plane, so
    the children of a counterclockwise triangle are counterclockwise.  The
    refined mesh passes ``DiskPatch.from_mesh`` and keeps ``psi``.
    """
    pts = patch.points
    tris = patch.triangles
    edges, face_edges, counts = mesh_edges(tris, len(pts))
    mids = 0.5 * (pts[edges[:, 0]] + pts[edges[:, 1]])
    on_boundary = counts == 1
    for project, chosen in ((projector, ~on_boundary), (boundary_projector, on_boundary)):
        if project is None or not chosen.any():
            continue
        moved = _require_rows(project(mids[chosen]), pts.shape[1], "projected midpoint")
        if len(moved) != chosen.sum():
            raise DimensionMismatch(
                f"{len(moved)} projected midpoints for {chosen.sum()} edge midpoints"
            )
        mids[chosen] = moved
    coords = patch.plane_coords
    new_coords = np.vstack([coords, 0.5 * (coords[edges[:, 0]] + coords[edges[:, 1]])])
    # the midpoint of edge e is vertex len(pts) + e
    a, b, c = tris.T
    mab, mbc, mca = (len(pts) + face_edges).T
    new_tris = np.stack(
        [a, mab, mca, b, mbc, mab, c, mca, mbc, mab, mbc, mca], axis=1
    ).reshape(-1, 3)
    fine = DiskPatch.from_mesh(
        np.vstack([pts, mids]), new_tris, plane_coords=new_coords,
        center=patch.center, sigma=patch.sigma, spacing=0.5 * patch.spacing,
    )
    rows = np.concatenate([patch.sample_rows, np.full(len(mids), -1, dtype=int)])
    return replace(fine, psi=patch.psi, sample_rows=rows)


# ---------------------------------------------------------------------------
# intrinsic metric diagnostics and Jordan cycles


# Seeded source vertices of the path-versus-chord searches of
# `intrinsic_metric_diagnostics`, and the waypoints of its one cycle.
METRIC_SOURCES = 24
METRIC_WAYPOINTS = 24


def intrinsic_metric_diagnostics(patch: DiskPatch, *, seed: int = 0) -> dict:
    """Shortest-path versus chord comparisons plus a cycle shape ratio.

    Reports the maximal ratio of the neighborhood-graph path metric to the
    ambient chord over the pairs from METRIC_SOURCES seeded sources (chords
    below the chord floor, max(24 spacing, r_max / 4), are skipped: the
    graph metric only resolves distances a couple of dozen spacings wide),
    the maximal ratio of the triangulation-skeleton metric to the
    neighborhood metric, and diameter / length of the cycle through
    METRIC_WAYPOINTS waypoints on the plane circle of radius 0.55 r_max
    (r_max the largest plane radius of the patch), as the one entry of
    ``cycles``.  The cycle comes from the `waypoint_cycle` kernel, whose
    searches stop at twice the longest waypoint chord and fall back to an
    unbounded search for an anchor whose next anchor lies beyond; the chord
    and skeleton ratios read unbounded searches from every sampled source.
    Both graphs are built for the call.

    Raises
    ------
    DisconnectedPatch
        The patch neighborhood graph has more than one component.
    """
    k = len(patch)
    edges = mesh_edges(patch.triangles, k)[0]
    metric = _metric_graph(patch, edges)
    skeleton = _length_graph(patch.points, edges)
    rng = np.random.default_rng(seed)
    src = np.sort(rng.choice(k, size=min(METRIC_SOURCES, k), replace=False))
    # both graphs are symmetric, so the directed search is the undirected
    # one without scipy transposing the graph first
    d_metric = dijkstra(metric, directed=True, indices=src)
    d_skel = dijkstra(skeleton, directed=True, indices=src)
    chords = np.concatenate([c for _, c in _pair_blocks(src, patch.points)])
    r_max = float(np.linalg.norm(patch.plane_coords, axis=1).max())
    chord_floor = max(24.0 * patch.spacing, 0.25 * r_max)
    mask = (chords >= chord_floor) & np.isfinite(d_metric)
    if not mask.any():
        raise TooFewPoints("no vertex pair above the chord floor")
    ratios = d_metric[mask] / chords[mask]
    skel_ratio = d_skel[mask] / np.maximum(d_metric[mask], 1e-300)
    radius = 0.55 * r_max
    angles = 2.0 * np.pi * np.arange(METRIC_WAYPOINTS) / METRIC_WAYPOINTS
    pts2 = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    cyc = _waypoint_cycle(patch, metric, pts2)
    inside = _polygon_contains(patch.plane_coords[cyc], patch.plane_coords)
    enclosed = np.where(inside)[0]
    if len(enclosed) > 1500:
        enclosed = rng.choice(enclosed, 1500, replace=False)
    epts = patch.points[enclosed]
    diam = max(
        (float(d.max()) for _, d in _pair_blocks(np.arange(len(epts)), epts)), default=0.0
    )
    length = _cycle_arcs(patch.points[cyc])[2]
    return {
        "path_over_chord_max": float(ratios.max()),
        "path_over_chord_mean": float(ratios.mean()),
        "skeleton_over_path_max": float(skel_ratio.max()),
        "pairs_used": int(mask.sum()),
        "chord_floor": float(chord_floor),
        "cycles": [{"radius": float(radius), "diameter_over_length": diam / length}],
    }


# Reach of the waypoint searches, in units of the longest ambient chord
# between consecutive anchors.  The graph metric stretches a chord by a few
# percent on the patches the extraction admits, so two chords reach every
# next anchor with a wide margin; an anchor whose next anchor lies beyond
# the reach gets an unbounded search of its own.
WAYPOINT_REACH_MULT = 2.0


def waypoint_cycle(patch: DiskPatch, waypoints2) -> np.ndarray:
    """Jordan cycle through plane-coordinate waypoints via shortest paths.

    Snaps each waypoint to its nearest vertex and joins consecutive
    waypoints by shortest paths in the patch's neighborhood graph (built
    for the call), closing the loop.

    The search from the anchors (distinct snapped vertices) stops at
    ``WAYPOINT_REACH_MULT`` times the longest chord between consecutive
    anchors; every vertex on a shortest path is nearer its source than the
    path's end, so a path within the reach is the unbounded search's path.
    An anchor whose next anchor lies beyond gets an unbounded search alone.
    Raises NotJordan (fewer than three anchors, or meeting paths),
    DisconnectedPatch (a neighborhood graph of several components),
    DimensionMismatch (waypoints not of shape (k, 2)) and NonFiniteInput
    (a waypoint holding NaN or infinity).
    """
    waypoints2 = _require_rows(waypoints2, 2, "waypoint")
    graph = _metric_graph(patch, mesh_edges(patch.triangles, len(patch))[0])
    return _waypoint_cycle(patch, graph, waypoints2)


def _waypoint_cycle(patch: DiskPatch, graph: sparse.csr_matrix, waypoints2: np.ndarray):
    """`waypoint_cycle` over the patch's metric `graph`, for checked
    (k, 2) waypoints."""
    idx = cKDTree(patch.plane_coords).query(waypoints2)[1]
    anchors = [int(idx[0])]
    for i in idx[1:]:
        if int(i) != anchors[-1]:
            anchors.append(int(i))
    while len(anchors) > 1 and anchors[-1] == anchors[0]:
        anchors.pop()
    if len(anchors) < 3:
        raise NotJordan("fewer than three distinct waypoint vertices")
    nxt = np.roll(anchors, -1)
    reach = WAYPOINT_REACH_MULT * float(
        np.linalg.norm(patch.points[anchors] - patch.points[nxt], axis=1).max()
    )
    # the metric graph is symmetric, so the directed search is the
    # undirected one without a transposed copy
    dist, pred = dijkstra(
        graph, directed=True, indices=anchors, return_predecessors=True,
        limit=reach,
    )
    cycle: list = []
    for a, b, d_row, p_row in zip(anchors, nxt.tolist(), dist, pred):
        if not np.isfinite(d_row[b]):
            # beyond the reach; the graph is connected, so a full search
            # finds the path
            d_row, p_row = dijkstra(
                graph, directed=True, indices=a, return_predecessors=True
            )
        path = [b]
        while path[-1] != a:
            path.append(int(p_row[path[-1]]))
        path.reverse()
        cycle.extend(path[:-1])
    cyc = np.asarray(cycle, dtype=int)
    if len(np.unique(cyc)) != len(cyc):
        raise NotJordan("waypoint paths intersect each other")
    return cyc


def _polygon_contains(polygon: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Even-odd containment of points in a closed polygon (vectorized)."""
    px = points[:, 0]
    py = points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    n = len(polygon)
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        crosses = (y1 > py) != (y2 > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcut = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
        hit = crosses & (px < xcut)
        inside ^= hit
    return inside


def _segments_intersect(polygon: np.ndarray) -> bool:
    """True when any two non-adjacent closed-polygon edges cross."""
    n = len(polygon)
    a = polygon
    b = np.roll(polygon, -1, axis=0)
    for i in range(n):
        js = np.arange(i + 2, n if i > 0 else n - 1)
        if len(js) == 0:
            continue
        p, r = a[i], b[i] - a[i]
        q, s = a[js], b[js] - a[js]
        rxs = r[0] * s[:, 1] - r[1] * s[:, 0]
        qp = q - p
        qpxr = qp[:, 0] * r[1] - qp[:, 1] * r[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (qp[:, 0] * s[:, 1] - qp[:, 1] * s[:, 0]) / rxs
            u = qpxr / rxs
        hit = (np.abs(rxs) > 1e-300) & (t > 0) & (t < 1) & (u > 0) & (u < 1)
        if hit.any():
            return True
    return False


def isoperimetric_check(patch: DiskPatch, cycle) -> float:
    """Enclosed area over squared length for a Jordan cycle in the patch.

    The enclosed region is the set of triangles whose plane-coordinate
    centroid lies inside the cycle polygon; area is measured in the ambient
    space, length along the cycle edges.

    Raises
    ------
    NotJordan
        Repeated vertices, edges longer than the patch graph radius, or a
        self-intersecting polygon.
    InvalidIndex
        A cycle vertex outside the patch, or not an integer.
    """
    cyc = _require_indices(cycle, len(patch), "cycle vertex", "vertices")
    if len(cyc) < 3:
        raise NotJordan("cycle needs at least three vertices")
    if len(np.unique(cyc)) != len(cyc):
        raise NotJordan("cycle repeats a vertex")
    seg, _, length = _cycle_arcs(patch.points[cyc])
    if np.any(seg > 1.5 * patch.metric_radius):
        raise NotJordan("cycle jumps beyond the patch graph radius")
    poly = patch.plane_coords[cyc]
    if _segments_intersect(poly):
        raise NotJordan("cycle polygon self-intersects")
    centroids = patch.plane_coords[patch.triangles].mean(axis=1)
    inside = _polygon_contains(poly, centroids)
    if not inside.any():
        raise NotJordan("cycle encloses no triangles")
    area = float(patch.surface_triangle_areas()[inside].sum())
    return area / (length * length)


# ---------------------------------------------------------------------------
# harmonic disk parameterization


@dataclass(frozen=True, eq=False)
class DiskParameterization:
    """Piecewise-linear map from the unit-disk mesh onto patch points.

    ``disk_points[i]`` is the parameter position of ``surface_points[i]``;
    triangles are shared.  ``boundary`` is always set: the caller's cycle,
    or else the sorted boundary vertices of the mesh.  Frozen, its arrays
    stored as read-only views, so the `jacobian` attribute, cached on
    first read, and the `energy` derived from it never go stale.
    """

    disk_points: np.ndarray
    surface_points: np.ndarray
    triangles: np.ndarray
    boundary: np.ndarray | None = None
    pinned: np.ndarray | None = None
    pin_targets: np.ndarray | None = None
    patch: DiskPatch | None = None

    def __post_init__(self):
        coerce = partial(object.__setattr__, self)  # frozen: coerce in place
        coerce("disk_points", _read_only(self.disk_points, float))
        coerce("surface_points", _read_only(self.surface_points, float))
        coerce("triangles", _read_only(self.triangles, int))
        if self.boundary is None:
            edges, _, counts = mesh_edges(self.triangles, len(self.disk_points))
            coerce("boundary", np.unique(edges[counts == 1]))
        coerce("boundary", _read_only(self.boundary, int))
        for name in ("pinned", "pin_targets"):
            if getattr(self, name) is not None:
                coerce(name, _read_only(getattr(self, name)))

    def __len__(self) -> int:
        return len(self.disk_points)

    def interior_mask(self) -> np.ndarray:
        mask = np.ones(len(self.disk_points), dtype=bool)
        mask[self.boundary] = False
        return mask

    @cached_property
    def jacobian(self) -> tuple[np.ndarray, np.ndarray]:
        """``_affine_maps`` of the disk -> surface map, (jacobians,
        disk_areas), built on first read and shared read-only."""
        jac, areas = _affine_maps(self.disk_points, self.triangles, self.surface_points)
        jac.flags.writeable = False
        areas.flags.writeable = False
        return jac, areas

    @property
    def energy(self) -> float:
        """Dirichlet energy: the per-triangle sum of |grad f|^2 times the
        parameter area.  Raises DegenerateTriangle with `jacobian`."""
        jac, areas = self.jacobian
        _, _, _, lam_hi, lam_lo = _gram_eigs(jac)
        return float(np.sum((lam_hi + lam_lo) * areas))


def _affine_maps(disk_pts: np.ndarray, tris: np.ndarray, values: np.ndarray):
    """Per-triangle Jacobians of the PL map disk -> values.

    Returns (jacobians (t, d, 2), disk_areas (t,)).  Raises
    DegenerateTriangle when a parameter triangle is degenerate or flipped.
    """
    det = orientation_dets(disk_pts, tris)
    scale = float(np.abs(det).max()) if len(det) else 0.0
    if scale <= 0 or np.any(det <= 1e-14 * scale):
        raise DegenerateTriangle("non-positive parameter-triangle area")
    u = disk_pts[tris]
    e1 = u[:, 1] - u[:, 0]
    e2 = u[:, 2] - u[:, 0]
    v = values[tris]
    s1 = v[:, 1] - v[:, 0]
    s2 = v[:, 2] - v[:, 0]
    jx = (s1 * e2[:, [1]] - s2 * e1[:, [1]]) / det[:, None]
    jy = (-s1 * e2[:, [0]] + s2 * e1[:, [0]]) / det[:, None]
    jac = np.stack([jx, jy], axis=2)
    return jac, 0.5 * det


def _gram_eigs(jac: np.ndarray):
    g11 = np.einsum("tn,tn->t", jac[:, :, 0], jac[:, :, 0])
    g22 = np.einsum("tn,tn->t", jac[:, :, 1], jac[:, :, 1])
    g12 = np.einsum("tn,tn->t", jac[:, :, 0], jac[:, :, 1])
    tr = g11 + g22
    disc = np.sqrt(np.maximum((g11 - g22) ** 2 + 4.0 * g12 * g12, 0.0))
    lam_hi = 0.5 * (tr + disc)
    lam_lo = np.maximum(0.5 * (tr - disc), 0.0)
    return g11, g22, g12, lam_hi, lam_lo


def _solve_trace(lap, boundary, boundary_values, interior, n: int) -> np.ndarray:
    """Harmonic extension of `boundary_values` into the interior.

    ``-L_ii``, the Dirichlet stiffness matrix, is symmetric positive
    definite: SuperLU's symmetric mode (minimum degree on its pattern,
    diagonal pivots) gives a sparser factor than the default ordering.
    """
    out = np.zeros((n, boundary_values.shape[1]))
    out[boundary] = boundary_values
    if interior.size:
        rows = lap[interior]
        a = (-rows[:, interior]).tocsc()
        rhs = np.asarray(rows[:, boundary] @ boundary_values)
        try:
            lu = splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})
            solved = lu.solve(rhs)
        except RuntimeError as exc:  # pragma: no cover - singular factorization
            raise SolverSingular(f"harmonic solve failed: {exc}") from exc
        if not np.all(np.isfinite(solved)):
            raise SolverSingular("harmonic solve produced non-finite values")
        out[interior] = solved
    return out


def harmonic_disk_param(patch: DiskPatch) -> DiskParameterization:
    """Discrete Dirichlet-minimizing disk parameterization of a patch.

    The boundary vertices nearest the arc-length thirds of the boundary
    cycle are pinned to the cube roots of unity, and each of the three
    boundary arcs between consecutive pins maps by arc length onto its
    third of the unit circle.  Interior parameter positions are the
    harmonic extension of that trace: they solve the cotangent-Laplace
    system of the patch metric per coordinate (the flattening direction),
    and the correspondence is read inversely as a map from the disk mesh
    onto the original patch points.  Energy is the per-triangle Dirichlet
    sum of the disk-to-patch map.

    Raises
    ------
    NoBoundaryCycle
        Fewer than three boundary vertices, or too few to pin three
        distinct ones.
    DegenerateTriangle
        A boundary cycle of zero length, or a degenerate parameter triangle.
    SolverSingular
        The harmonic solve fails or gives non-finite values.
    FoldedTriangles
        A parameter triangle is folded.
    """
    pts = patch.points
    tris = patch.triangles
    bd = patch.boundary
    if len(bd) < 3:
        raise NoBoundaryCycle("boundary cycle needs at least three vertices")
    _, cum, total = _cycle_arcs(pts[bd])
    if total <= 0:
        raise DegenerateTriangle("boundary cycle has zero length")
    pin_pos = [int(np.argmin(np.abs(cum - total * j / 3.0))) for j in range(3)]
    if len(set(pin_pos)) != 3:
        raise NoBoundaryCycle("boundary too short to pin three distinct points")
    pins = bd[pin_pos]
    # each boundary arc between consecutive pins goes by arc length onto
    # its third of the circle, so the pins land on the cube roots of unity
    theta = np.interp(cum, np.append(cum[pin_pos], total), 2.0 * np.pi * np.arange(4) / 3.0)
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    interior = np.setdiff1d(np.arange(len(pts)), bd)

    disk = _solve_trace(cotangent_laplacian(pts, tris), bd, circle, interior, len(pts))
    dst = np.exp(2j * np.pi * np.arange(3) / 3.0)
    return _param_on_circle(disk[:, 0] + 1j * disk[:, 1], bd, pins, dst,
                            surface_points=pts, triangles=tris, boundary=bd, patch=patch)


def _param_on_circle(z, bd, pins=None, targets=None, **fields) -> DiskParameterization:
    """The parameterization, with its Jacobians built, of the complex disk
    positions `z` (changed in place) once the vertices `bd` move radially
    onto the unit circle and the `pins` onto their complex `targets`;
    `fields` are its other fields.  Raises FoldedTriangles on a folded
    triangle and DegenerateTriangle on a degenerate one."""
    zb = z[bd]
    z[bd] = zb / np.abs(zb)
    if pins is not None:
        z[pins] = targets
    disk = np.stack([z.real, z.imag], axis=1)
    folded = int(np.sum(orientation_dets(disk, fields["triangles"]) <= 0))
    if folded:
        raise FoldedTriangles(
            f"{folded} parameter triangles are folded after normalization"
        )
    param = DiskParameterization(
        disk_points=disk,
        pinned=pins,
        pin_targets=None if pins is None else np.stack([targets.real, targets.imag], axis=1),
        **fields,
    )
    param.jacobian  # built here, so a degenerate triangle raises here
    return param


def mobius_reparameterized(
    param: DiskParameterization, center=(0.0, 0.0), phase: float = 0.0
) -> DiskParameterization:
    """Post-compose the parameter domain with a disk Moebius map.

    ``z -> e^{i phase} (z - a) / (1 - conj(a) z)`` with ``a`` = center.
    The surface correspondence is unchanged; energy is recomputed (discrete
    conformal invariance keeps it nearly constant).  A center that is not
    one finite point of the open unit disk, or a non-finite phase, is
    refused; a triangle folded by the boundary snap raises FoldedTriangles.
    """
    center = _require_point(center, 2, "Moebius center")
    if not np.isfinite(phase):
        raise NonFiniteInput(f"Moebius phase {phase} is not finite")
    a = complex(center[0], center[1])
    if abs(a) >= 1.0:
        raise PointOutsideDomain(
            f"Moebius center {center} does not lie inside the unit disk"
        )
    z = param.disk_points[:, 0] + 1j * param.disk_points[:, 1]
    return _param_on_circle(np.exp(1j * phase) * (z - a) / (1.0 - np.conj(a) * z),
                            param.boundary, surface_points=param.surface_points,
                            triangles=param.triangles, boundary=param.boundary,
                            patch=param.patch)


# ---------------------------------------------------------------------------
# conformal factor


@dataclass(eq=False)
class ConformalFactor:
    """Per-triangle conformal data of a disk parameterization.

    ``w`` is half the log area factor (``e^{2w} = |det grad f|``);
    ``axis_ratio`` is |f_x| / |f_y|; ``qc_dilatation`` the singular-value
    ratio.
    """

    w: np.ndarray
    area_factor: np.ndarray
    axis_ratio: np.ndarray
    qc_dilatation: np.ndarray
    disk_areas: np.ndarray


def conformal_factor(param: DiskParameterization) -> ConformalFactor:
    jac, areas = param.jacobian
    g11, g22, g12, lam_hi, lam_lo = _gram_eigs(jac)
    det_gram = np.maximum(g11 * g22 - g12 * g12, 0.0)
    factor = np.sqrt(det_gram)
    floor = 1e-15 * float(np.median(factor)) if len(factor) else 0.0
    if len(factor) == 0 or np.any(factor <= floor):
        raise DegenerateTriangle("Jacobian area factor vanishes on a triangle")
    return ConformalFactor(
        w=0.5 * np.log(factor),
        area_factor=factor,
        axis_ratio=np.sqrt(g11 / g22),
        qc_dilatation=np.sqrt(lam_hi / np.maximum(lam_lo, 1e-300)),
        disk_areas=areas,
    )


# ---------------------------------------------------------------------------
# quasi-symmetry


@dataclass(eq=False)
class QuasisymmetryTable:
    """H(z, s) = max_{|y-z|<=s} |f(y)-f(z)| / min_{|y-z|>=s} |f(y)-f(z)|."""

    center_indices: np.ndarray
    scales: np.ndarray
    values: np.ndarray

    @property
    def max(self) -> float:
        finite = self.values[np.isfinite(self.values)]
        return float(finite.max()) if len(finite) else float("nan")


def quasisymmetry_table(
    param: DiskParameterization, centers, scales
) -> QuasisymmetryTable:
    """Quasi-symmetry ratios at the given parameter centers and scales.

    Centers snap to their nearest mesh vertices; scales should sit above
    the mesh resolution.  Centers that are not (k, 2) points or scales
    that are not one 1-d array raise DimensionMismatch, a center holding
    NaN or infinity NonFiniteInput, and a scale that is not positive and
    finite InvalidScale.
    """
    centers = _require_rows(np.atleast_2d(centers), 2, "quasisymmetry center")
    disk = param.disk_points
    f = param.surface_points
    tree = cKDTree(disk)
    idx = tree.query(centers)[1]
    scales = np.asarray(scales, dtype=float)
    if scales.ndim != 1:
        raise DimensionMismatch(f"quasisymmetry scales have shape {scales.shape}, need (s,)")
    for s in scales:
        _require_positive(s, "quasisymmetry scale")
    values = np.full((len(idx), len(scales)), np.nan)
    for part, d, df in _pair_blocks(idx, disk, f):
        others = d > 1e-15
        for col, s in enumerate(scales):
            near = others & (d <= s)
            far = d >= s
            big = df.max(axis=1, where=near, initial=0.0)
            lo = df.min(axis=1, where=far, initial=np.inf)
            ok = near.any(axis=1) & far.any(axis=1) & (lo > 0)
            np.divide(big, lo, out=values[part, col], where=ok)
    return QuasisymmetryTable(
        center_indices=idx, scales=scales, values=values
    )


# ---------------------------------------------------------------------------
# scaled-isometry (conformal-affine) fit


@dataclass(eq=False)
class AffineFit:
    """Least-squares fit f(u) ~ scale * frame @ u + offset on a disk.

    Deviations are normalized by scale times the fit radius; ``area_gap``
    compares measured image area with the affine prediction.
    """

    scale: float
    frame: np.ndarray
    offset: np.ndarray
    sup_deviation: float
    energy_deviation: float
    area_gap: float
    vertex_count: int


def _scaled_isometry(u: np.ndarray, v: np.ndarray, weights: np.ndarray):
    w = weights / weights.sum()
    ub = (w[:, None] * u).sum(axis=0)
    vb = (w[:, None] * v).sum(axis=0)
    du = u - ub
    dv = v - vb
    m = (dv * w[:, None]).T @ du
    uu, s, vt = np.linalg.svd(m, full_matrices=False)
    if s[0] <= 0 or s[1] <= 1e-12 * s[0]:
        raise RankDeficient("cross-covariance is rank deficient")
    frame = uu @ vt
    var = float((w * np.einsum("ij,ij->i", du, du)).sum())
    if var <= 0:
        raise RankDeficient("zero parameter variance in the fit region")
    scale = float(s.sum()) / var
    offset = vb - scale * (frame @ ub)
    return scale, frame, offset


def semmes_affine_fit(
    param: DiskParameterization, center, radius: float
) -> AffineFit:
    """Weighted conformal-affine fit of f over a parameter sub-disk.

    Solves the scaled orthogonal-Procrustes problem (positive scale times a
    linear isometry R^2 -> R^n plus offset), weighting vertices by lumped
    parameter area, and reports sup / energy deviations normalized by
    ``scale * radius`` together with the relative area gap.

    Raises
    ------
    RankDeficient
        Fewer than three vertices in the disk or degenerate covariance.
    DimensionMismatch, NonFiniteInput, InvalidScale
        A center that is not one finite 2-d point, or a bad radius.
    """
    center = _require_point(center, 2, "fit center")
    _require_positive(radius, "fit radius")
    disk = param.disk_points
    sel = np.linalg.norm(disk - center, axis=1) <= radius
    if sel.sum() < 3:
        raise RankDeficient(f"only {int(sel.sum())} vertices inside the fit disk")
    lumped = vertex_areas(disk, param.triangles)
    u = disk[sel]
    v = param.surface_points[sel]
    w = np.maximum(lumped[sel], 1e-300)
    scale, frame, offset = _scaled_isometry(u, v, w)
    pred = scale * (u @ frame.T) + offset
    dev = np.linalg.norm(v - pred, axis=1)
    wn = w / w.sum()
    sup_dev = float(dev.max()) / (scale * radius)
    energy_dev = float(np.sqrt((wn * dev * dev).sum())) / (scale * radius)
    cf = conformal_factor(param)
    centroids = disk[param.triangles].mean(axis=1)
    inside = np.linalg.norm(centroids - center, axis=1) <= radius
    if inside.any():
        measured = float((cf.area_factor[inside] * cf.disk_areas[inside]).sum())
        affine = scale * scale * float(cf.disk_areas[inside].sum())
        area_gap = abs(measured - affine) / affine
    else:
        area_gap = float("nan")
    return AffineFit(
        scale=scale,
        frame=frame,
        offset=offset,
        sup_deviation=sup_dev,
        energy_deviation=energy_dev,
        area_gap=area_gap,
        vertex_count=int(sel.sum()),
    )


# ---------------------------------------------------------------------------
# dyadic squares on the parameter disk


@dataclass(frozen=True)
class DyadicSquare:
    x0: float
    y0: float
    size: float
    depth: int

    def contains(self, points) -> np.ndarray:
        """Mask of the (k, 2) points in the half-open square
        [x0, x0 + size) x [y0, y0 + size)."""
        return (
            (points[:, 0] >= self.x0)
            & (points[:, 0] < self.x0 + self.size)
            & (points[:, 1] >= self.y0)
            & (points[:, 1] < self.y0 + self.size)
        )


class _Level(NamedTuple):
    depth: int
    cells: float  # square side
    buckets: np.ndarray  # square i + (j << depth) of every triangle
    covered: np.ndarray  # triangle area per square
    admissible: np.ndarray  # per square


# Dyadic squares are taken at levels 0..DYADIC_DEPTH (side 2^-depth of the
# bounding square).
DYADIC_DEPTH = 3
# Dyadic squares with fewer triangles than this are skipped.
MIN_SQUARE_TRIANGLES = 16
# Dyadic squares whose member triangles cover less than this fraction of the
# square are treated as boundary-straddling and skipped.
SQUARE_COVERAGE = 0.9


class _DyadicLevels:
    """Dyadic levels 0..DYADIC_DEPTH over the bounding square of a planar
    mesh, its (V, 2) points and (F, 3) triangles.

    The one owner of the square rules: a triangle belongs to the square
    holding its centroid, a square is admissible when it holds at least
    ``MIN_SQUARE_TRIANGLES`` triangles covering at least ``SQUARE_COVERAGE``
    of its area, and square means are triangle-area weighted.
    """

    def __init__(self, points: np.ndarray, tris: np.ndarray):
        centroids = points[tris].mean(axis=1)
        self.areas = triangle_areas(points, tris)
        lo = points.min(axis=0)
        hi = points.max(axis=0)
        size = float((hi - lo).max())
        self.origin = 0.5 * (lo + hi) - 0.5 * size
        self.levels = []
        for d in range(DYADIC_DEPTH + 1):
            cells = size / (1 << d)
            ij = np.floor((centroids - self.origin) / cells).astype(int)
            ij = np.clip(ij, 0, (1 << d) - 1)
            buckets = ij[:, 0] + (ij[:, 1] << d)
            counts = np.bincount(buckets, minlength=1 << (2 * d))
            covered = np.bincount(buckets, weights=self.areas, minlength=1 << (2 * d))
            admissible = (counts >= MIN_SQUARE_TRIANGLES) & (
                covered >= SQUARE_COVERAGE * cells * cells
            )
            self.levels.append(_Level(d, cells, buckets, covered, admissible))

    def mean(self, level: _Level, x: np.ndarray) -> np.ndarray:
        """Area-weighted mean of the per-triangle field ``x`` on every square."""
        return np.bincount(
            level.buckets, weights=self.areas * x, minlength=len(level.covered)
        ) / np.maximum(level.covered, 1e-300)

    def squares(self) -> list:
        out = []
        for level in self.levels:
            for b in np.flatnonzero(level.admissible):
                i = int(b) & ((1 << level.depth) - 1)
                j = int(b) >> level.depth
                out.append(
                    DyadicSquare(
                        x0=float(self.origin[0] + i * level.cells),
                        y0=float(self.origin[1] + j * level.cells),
                        size=float(level.cells),
                        depth=level.depth,
                    )
                )
        return out

    def sup(self, statistic: Callable, empty: float) -> float:
        """Max over levels of ``statistic(level)``, its values on the
        admissible squares of that level; ``empty`` when none is admissible."""
        best = None
        for level in self.levels:
            if level.admissible.any():
                val = float(statistic(level).max())
                best = val if best is None else max(best, val)
        return empty if best is None else best

    def bmo(self, values: np.ndarray) -> float:
        """Sup over admissible squares of the mean absolute oscillation of
        the per-triangle field ``values``; 0.0 when none is admissible."""

        def oscillation(level):
            dev = np.abs(values - self.mean(level, values)[level.buckets])
            return self.mean(level, dev)[level.admissible]

        return self.sup(oscillation, 0.0)

    def a2(self, w: np.ndarray) -> float:
        """Sup over admissible squares of mean(e^{2w}) * mean(e^{-2w}) of
        the per-triangle field ``w``; 1.0 when none is admissible."""
        up = np.exp(2.0 * w)
        dn = np.exp(-2.0 * w)

        def product(level):
            ok = level.admissible
            return self.mean(level, up)[ok] * self.mean(level, dn)[ok]

        return self.sup(product, 1.0)

    def inverse_holder(self, j: np.ndarray) -> float:
        """Sup over admissible squares of mean(j) / mean(sqrt j)^2 (>= 1)
        of the per-triangle Jacobian ``j = |det grad f|``; 1.0 when none
        is admissible."""
        root = np.sqrt(j)

        def ratio(level):
            ok = level.admissible
            return self.mean(level, j)[ok] / self.mean(level, root)[ok] ** 2

        return self.sup(ratio, 1.0)


def dyadic_squares(param: DiskParameterization) -> list:
    """Admissible dyadic squares over the bounding square of the disk mesh.

    Admissible: at least ``MIN_SQUARE_TRIANGLES`` triangle centroids and
    triangle area at least ``SQUARE_COVERAGE`` of the square, which skips
    squares straddling the mesh boundary.
    """
    return _DyadicLevels(param.disk_points, param.triangles).squares()


# ---------------------------------------------------------------------------
# curvature-equation residuals


@dataclass(eq=False)
class CurvatureResiduals:
    """Weighted-L1 residuals of the curvature equations on the disk mesh.

    ``mc_*``: discrete Laplacian of f against (H o f) e^{2w};
    ``gauss_*``: the cell-integrated metric curvature (angle defect of the
    image mesh, the distributional -Laplacian of w) against the discrete
    frame wedge; ``frame_energy``: Dirichlet energy of the unit coordinate
    frames.  Relative values are NaN when the reference term vanishes.
    """

    mc_absolute: float | None
    mc_relative: float | None
    gauss_absolute: float
    gauss_relative: float
    frame_energy: float


def curvature_equation_residuals(
    param: DiskParameterization, curvature
) -> CurvatureResiduals:
    """Residuals of the mean-curvature and metric-curvature identities.

    ``curvature`` is a CurvatureField over the originating sample (matched
    through the patch's sample rows), a callable mapping (k, n) surface
    points to mean-curvature vectors, or None to skip the mean-curvature
    residual.  The metric side of the Gauss identity is measured as the
    angle defect of the image mesh (its distributional curvature, i.e. the
    cell integral of -Laplacian(w)); the frame side averages per-triangle
    unit frames to vertices and takes the wedge of their PL differentials.
    Both residuals sum over interior vertices with a one-ring boundary
    buffer: lumped vertex averages in triangles touching the boundary are
    one-sided, so the first ring measures the trace rather than the
    interior equations.

    Raises
    ------
    MissingCurvature
        A CurvatureField is supplied but does not cover the patch vertices,
        or a callable does not return a (k, n) array for the k vertices.
    NonFiniteInput
        A callable returns NaN or infinity at a vertex.
    """
    disk = param.disk_points
    tris = param.triangles
    f = param.surface_points
    interior = param.interior_mask()
    deep = interior.copy()
    deep[tris[(~interior[tris]).any(axis=1)]] = False
    if deep.any():
        interior = deep

    mc_abs: float | None = None
    mc_rel: float | None = None
    if curvature is not None:
        if isinstance(curvature, CurvatureField):
            if param.patch is None:
                raise MissingCurvature(
                    "parameterization has no patch rows to match the field"
                )
            rows = param.patch.sample_rows
            if np.any(rows < 0):
                raise MissingCurvature(
                    "patch has synthesized vertices; supply a callable field"
                )
            hvec = curvature.at(rows)
        else:
            hvec = np.asarray(curvature(f), dtype=float)
            if hvec.shape != f.shape:
                raise MissingCurvature(
                    f"curvature callable returned shape {hvec.shape}, "
                    f"need one vector per vertex, {f.shape}"
                )
            _require_finite_rows(hvec, "curvature vector")
        cell_surface = vertex_areas(f, tris)
        lhs = cotangent_laplacian(disk, tris) @ f
        rhs = hvec * cell_surface[:, None]
        diff = np.linalg.norm(lhs[interior] - rhs[interior], axis=1)
        ref = np.linalg.norm(rhs[interior], axis=1)
        mc_abs = float(diff.sum())
        mc_rel = float(diff.sum() / ref.sum()) if ref.sum() > 0 else float("nan")

    jac, areas = param.jacobian
    f1 = jac[:, :, 0]
    f2 = jac[:, :, 1]
    n1 = np.linalg.norm(f1, axis=1, keepdims=True)
    n2 = np.linalg.norm(f2, axis=1, keepdims=True)
    if np.any(n1 <= 0) or np.any(n2 <= 0):
        raise DegenerateTriangle("vanishing coordinate derivative")
    e1 = f1 / n1
    e2 = f2 / n2
    k = len(disk)
    ebar1 = vertex_sums(tris, e1 * (areas / 3.0)[:, None], k)
    ebar2 = vertex_sums(tris, e2 * (areas / 3.0)[:, None], k)
    norm1 = np.linalg.norm(ebar1, axis=1, keepdims=True)
    norm2 = np.linalg.norm(ebar2, axis=1, keepdims=True)
    if norm1.min() <= 1e-8 or norm2.min() <= 1e-8:
        raise DegenerateTriangle("frame field cancels at a vertex")
    ebar1 /= norm1
    ebar2 /= norm2
    # PL gradients of both frame fields from one Jacobian pass (its arithmetic
    # is per column), split into (t, 2, n) each; contiguous, because the
    # einsum summation order below depends on the memory layout
    n = f.shape[1]
    grads = _affine_maps(disk, tris, np.hstack([ebar1, ebar2]))[0].transpose(0, 2, 1)
    g1 = np.ascontiguousarray(grads[:, :, :n])
    g2 = np.ascontiguousarray(grads[:, :, n:])
    wedge = np.einsum("tn,tn->t", g1[:, 0], g2[:, 1]) - np.einsum(
        "tn,tn->t", g1[:, 1], g2[:, 0]
    )
    rhs_g = vertex_sums(tris, wedge * areas / 3.0, k)
    lhs_g = angle_defects(f, tris)
    diff_g = np.abs(lhs_g[interior] - rhs_g[interior])
    ref_g = float(np.abs(rhs_g[interior]).sum())
    gauss_abs = float(diff_g.sum())
    gauss_rel = gauss_abs / ref_g if ref_g > 0 else float("nan")
    frame_energy = float(
        np.sum(
            (
                np.einsum("tin,tin->t", g1, g1)
                + np.einsum("tin,tin->t", g2, g2)
            )
            * areas
        )
    )
    return CurvatureResiduals(
        mc_absolute=mc_abs,
        mc_relative=mc_rel,
        gauss_absolute=gauss_abs,
        gauss_relative=gauss_rel,
        frame_energy=frame_energy,
    )


# ---------------------------------------------------------------------------
# large Lipschitz pieces


@dataclass(eq=False)
class LipschitzPieces:
    """Exceptional set and restricted Lipschitz constant on a square.

    ``excluded_area`` + ``excluded_image_area / scale^2`` should stay below
    ``budget`` = t^{-LIPSCHITZ_Q} (size/2)^2 for well-behaved
    parameterizations.
    """

    scale: float
    excluded_area: float
    excluded_image_area: float
    budget: float
    lipschitz: float
    excluded_count: int
    kept_count: int
    excluded_vertices: np.ndarray

    @property
    def within_budget(self) -> bool:
        s2 = max(self.scale * self.scale, 1e-300)
        return self.excluded_area + self.excluded_image_area / s2 <= self.budget


# Decay exponent of the exceptional-set budget t^{-LIPSCHITZ_Q} (size/2)^2
# of `large_lipschitz_pieces`.
LIPSCHITZ_Q = 2.0


def large_lipschitz_pieces(
    param: DiskParameterization, square: DyadicSquare, t: float
) -> LipschitzPieces:
    """Threshold the one-ring maximal gradient and verify the complement.

    A vertex joins the exceptional set when the maximum of |grad f| over
    its incident triangles exceeds ``t * scale`` or the inverse-gradient
    proxy exceeds ``t / scale``, with ``scale`` from the conformal-affine
    fit over the square.  Reports lumped areas of the exceptional set and
    the measured Lipschitz constant of f over pairs of remaining vertices;
    beyond 1200 of them, 1200 are drawn with seed 0.  A threshold `t` that
    is not positive and finite raises InvalidScale.
    """
    _require_positive(t, "threshold t")
    disk = param.disk_points
    tris = param.triangles
    f = param.surface_points
    jac, _ = param.jacobian
    _, _, _, lam_hi, lam_lo = _gram_eigs(jac)
    sig_hi = np.sqrt(lam_hi)
    inv_lo = 1.0 / np.sqrt(np.maximum(lam_lo, 1e-300))
    k = len(disk)
    max_grad = np.zeros(k)
    max_inv = np.zeros(k)
    # a maximum, not a sum, so `vertex_sums` (a bincount) cannot take it
    for c in range(3):
        np.maximum.at(max_grad, tris[:, c], sig_hi)
        np.maximum.at(max_inv, tris[:, c], inv_lo)
    in_square = square.contains(disk)
    if in_square.sum() < 3:
        raise TooFewPoints("square holds fewer than three vertices")
    lumped = vertex_areas(disk, tris)
    scale, _, _ = _scaled_isometry(
        disk[in_square], f[in_square], np.maximum(lumped[in_square], 1e-300)
    )
    exceptional = (max_grad > t * scale) | (max_inv > t / scale)
    bad = in_square & exceptional
    kept = in_square & ~exceptional
    lumped_surface = vertex_areas(f, tris)
    half = 0.5 * square.size
    budget = t ** (-LIPSCHITZ_Q) * half * half
    kept_idx = np.where(kept)[0]
    if len(kept_idx) > 1200:
        rng = np.random.default_rng(0)
        kept_idx = np.sort(rng.choice(kept_idx, 1200, replace=False))
    return LipschitzPieces(
        scale=scale,
        excluded_area=float(lumped[bad].sum()),
        excluded_image_area=float(lumped_surface[bad].sum()),
        budget=float(budget),
        lipschitz=_pair_lipschitz(disk[kept_idx], f[kept_idx], 1e-14),
        excluded_count=int(bad.sum()),
        kept_count=int(kept.sum()),
        excluded_vertices=np.where(bad)[0],
    )


# ---------------------------------------------------------------------------
# bundled diagnostics


@dataclass(eq=False)
class ConformalDiagnostics:
    """Headline conformal diagnostics of one parameterized patch.

    ``bmo`` and ``a2`` are the dyadic-square statistics of the log
    conformal factor w, and ``inverse_holder_max`` that of the area factor
    |det grad f| (`_DyadicLevels`).  ``max_qc_dilatation`` is the largest
    quasiconformal dilatation over all triangles, ``interior_qc_dilatation``
    the largest over triangles with no boundary vertex (NaN when there is
    none), so a loss of conformality inside the patch cannot hide behind
    the rim.
    """

    bmo: float
    a2: float
    inverse_holder_max: float
    quasisymmetry_max: float
    mc_residual: float | None
    mc_residual_absolute: float | None
    gauss_residual: float
    gauss_residual_relative: float
    frame_energy: float
    energy: float
    image_area: float
    energy_area_gap: float
    max_qc_dilatation: float
    interior_qc_dilatation: float
    square_count: int
    psi: float | None
    boundary_chord_arc: float | None


def conformal_diagnostics(
    param: DiskParameterization, curvature=None
) -> ConformalDiagnostics:
    """Evaluate the full diagnostic battery on one parameterization.

    ``mc_residual`` is relative to the curvature term when that term is
    nonzero, otherwise the absolute weighted-L1 value.
    """
    cf = conformal_factor(param)
    levels = _DyadicLevels(param.disk_points, param.triangles)
    bmo = levels.bmo(cf.w)
    a2 = levels.a2(cf.w)
    ih = levels.inverse_holder(cf.area_factor)
    rng = np.random.default_rng(0)
    inner = np.where(np.linalg.norm(param.disk_points, axis=1) <= 0.55)[0]
    if len(inner) > 20:
        inner = np.sort(rng.choice(inner, 20, replace=False))
    qs = quasisymmetry_table(
        param, param.disk_points[inner], scales=(0.1, 0.2, 0.35)
    )
    res = curvature_equation_residuals(param, curvature)
    image_area = float((cf.area_factor * cf.disk_areas).sum())
    energy = param.energy
    gap = (energy - 2.0 * image_area) / energy if energy else 0.0
    if res.mc_relative is not None and np.isfinite(res.mc_relative):
        mc_headline: float | None = res.mc_relative
    else:
        mc_headline = res.mc_absolute
    interior_qc = cf.qc_dilatation[param.interior_mask()[param.triangles].all(axis=1)]
    return ConformalDiagnostics(
        bmo=bmo,
        a2=a2,
        inverse_holder_max=ih,
        quasisymmetry_max=qs.max,
        mc_residual=mc_headline,
        mc_residual_absolute=res.mc_absolute,
        gauss_residual=res.gauss_absolute,
        gauss_residual_relative=res.gauss_relative,
        frame_energy=res.frame_energy,
        energy=energy,
        image_area=image_area,
        energy_area_gap=float(gap),
        max_qc_dilatation=float(cf.qc_dilatation.max()),
        interior_qc_dilatation=(
            float(interior_qc.max()) if interior_qc.size else float("nan")
        ),
        square_count=int(sum(level.admissible.sum() for level in levels.levels)),
        psi=param.patch.psi if param.patch is not None else None,
        boundary_chord_arc=(
            param.patch.boundary_chord_arc if param.patch is not None else None
        ),
    )
