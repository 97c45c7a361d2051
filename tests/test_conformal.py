"""Disk-patch extraction, harmonic parameterization, and conformal diagnostics."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import Delaunay, cKDTree

from varifoldlab import conformal as conf
from varifoldlab.curvature import CurvatureField, build_curvature_field
from varifoldlab.errors import (
    DegenerateTriangle,
    DimensionMismatch,
    InvalidIndex,
    InvalidScale,
    MissingCurvature,
    NoBoundaryCycle,
    NonFiniteInput,
    NotDiskTopology,
    NotJordan,
    PointOutsideDomain,
    RankDeficient,
    ToolkitError,
    TooFewPoints,
)
from varifoldlab.geometry import WeightedSurfaceSample
from varifoldlab.meshing import (
    mesh_edges,
    orient_ccw,
    orientation_dets,
    triangle_areas,
    vertex_areas,
)
from varifoldlab.synthetic import SyntheticSpec, generate

from fixtures import structured_disk_mesh
from oracles import (
    affine_fit_direct,
    affine_maps_direct,
    circle_arc_chord_ratio_max,
    dirichlet_energy_direct,
    dyadic_squares_direct,
    edge_face_counter,
    frame_terms_direct,
    graph_chord_length,
    lipschitz_blocks,
    metric_diagnostics_loop,
    oracle_frame_energy_cap,
    pl_gradients_direct,
    quasisymmetry_bruteforce,
    square_mask_direct,
    square_statistic_direct,
    stereographic_radius_for_chord,
    stereographic_to_cap,
    tutte_flattening,
    waypoint_cycle_unbounded,
)

ORIGIN = np.zeros(3)

# sphere-cap geometry shared by the analytic fixtures
SPHERE_R = 10.0
SPHERE_CENTER = np.array([0.0, 0.0, SPHERE_R])
RIM = 1.0
Z_RIM = SPHERE_R - np.sqrt(SPHERE_R**2 - RIM**2)

# exact two-value field arithmetic: equal-area blocks with e^{2w} in {2, 1/2}
A2_TWO_VALUE = 1.5625  # (1.25)^2 / 1, means of e^{2w} and e^{-2w}
IH_TWO_VALUE = 10.0 / 9.0  # mean(j) / mean(sqrt j)^2 for j in {2, 1/2}
BMO_TWO_VALUE = 0.5 * np.log(2.0)


def cap_lift(uv):
    r2 = np.einsum("ij,ij->i", uv, uv)
    return np.c_[uv, SPHERE_R - np.sqrt(SPHERE_R**2 - r2)]


def cap_project(pts):
    d = pts - SPHERE_CENTER
    return SPHERE_CENTER + SPHERE_R * d / np.linalg.norm(d, axis=1, keepdims=True)


def rim_project(pts):
    uv = pts[:, :2]
    uv = RIM * uv / np.linalg.norm(uv, axis=1, keepdims=True)
    return np.c_[uv, np.full(len(uv), Z_RIM)]


def cap_mean_curvature(pts):
    return (2.0 / SPHERE_R**2) * (SPHERE_CENTER - pts)


def cap_map_error(param, patch):
    """Sup distance to the stereographic conformal map, mod rotation/reflection."""
    chords = np.linalg.norm(patch.points[param.boundary], axis=1)
    rho = stereographic_radius_for_chord(SPHERE_R, float(chords.mean()))
    p0 = param.pinned[0]
    uv0 = patch.points[p0, :2]
    best = np.inf
    for flip in (1.0, -1.0):
        f = param.disk_points * np.array([1.0, flip])
        phi = np.arctan2(uv0[1], uv0[0]) - np.arctan2(f[p0, 1], f[p0, 0])
        rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        pred = stereographic_to_cap(SPHERE_R, rho * (f @ rot.T))
        best = min(best, float(np.linalg.norm(pred - patch.points, axis=1).max()))
    return best


def tutte_energy(patch):
    """Dirichlet energy of the patch's uniform-weight flattening."""
    disk = tutte_flattening(patch.points, patch.triangles, patch.boundary)
    return dirichlet_energy_direct(disk, patch.points, patch.triangles)[0]


def unit_square_grid(n):
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.c_[gx.ravel(), gy.ravel()]
    tris = []
    for i in range(n):
        for j in range(n):
            v00 = i * (n + 1) + j
            v10 = (i + 1) * (n + 1) + j
            v01 = i * (n + 1) + j + 1
            v11 = (i + 1) * (n + 1) + j + 1
            tris += [(v00, v10, v11), (v00, v11, v01)]
    return pts, np.asarray(tris)


def stripe_param(n=32, slopes=None):
    """PL map of the unit square with per-column x-slopes (exact Jacobians)."""
    pts, tris = unit_square_grid(n)
    if slopes is None:
        slopes = np.where((np.arange(n) // 4) % 2 == 0, 2.0, 0.5)
    warp = np.concatenate([[0.0], np.cumsum(np.asarray(slopes) / n)])
    surf_x = warp[np.round(pts[:, 0] * n).astype(int)]
    surf = np.c_[surf_x, pts[:, 1], np.zeros(len(pts))]
    return conf.DiskParameterization(
        disk_points=pts, surface_points=surf, triangles=tris
    )


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="module")
def flat_pp():
    sample, _ = generate(SyntheticSpec(kind="flat_disk", n_points=20000, seed=0))
    patch = conf.extract_disk_patch(sample, ORIGIN, 0.5)
    return patch, conf.harmonic_disk_param(patch)


@pytest.fixture(scope="module")
def cap_extracted():
    sample, _ = generate(
        SyntheticSpec(kind="sphere_cap", n_points=20000, seed=3, sphere_radius=10.0)
    )
    patch = conf.extract_disk_patch(sample, ORIGIN, 0.8)
    return sample, patch, conf.harmonic_disk_param(patch)


@pytest.fixture(scope="module")
def structured_flat_pp():
    pts2, tris = structured_disk_mesh(40, radius=0.5)
    patch = conf.DiskPatch.from_mesh(
        np.c_[pts2, np.zeros(len(pts2))], tris, center=ORIGIN
    )
    return patch, conf.harmonic_disk_param(patch)


@pytest.fixture(scope="module")
def structured_cap_pp():
    pts2, tris = structured_disk_mesh(40, radius=RIM)
    patch = conf.DiskPatch.from_mesh(cap_lift(pts2), tris, center=ORIGIN)
    return patch, conf.harmonic_disk_param(patch)


@pytest.fixture(scope="module")
def grid_mesh_32():
    pts, tris = unit_square_grid(32)
    return conf.DiskMesh(points=pts, triangles=tris), pts, tris


# the 6-vertex real projective plane: every edge on two faces, no boundary
RP2_FACES = np.array(
    [
        [0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 5, 1],
        [1, 2, 4], [2, 3, 5], [3, 4, 1], [4, 5, 2], [5, 1, 3],
    ]
)


def _three_sheet_edge():
    """Three triangles hinged on the edge (0, 1)."""
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [0.5, 1, 0], [0.5, -1, 0], [0.5, 0, 1]])
    return pts, np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])


def _double_fan():
    """Two closed hexagonal fans around the shared centre vertex 0."""
    ang = np.pi * np.arange(6) / 3.0
    ring = np.c_[np.cos(ang), np.sin(ang), np.zeros(6)]
    pts = np.vstack([np.zeros((1, 3)), ring, 2.0 * ring])
    k = np.arange(6)
    tris = np.vstack(
        [np.c_[np.zeros(6, int), 1 + k, 1 + (k + 1) % 6],
         np.c_[np.zeros(6, int), 7 + k, 7 + (k + 1) % 6]]
    )
    return pts, tris


def _annulus():
    """structured_disk_mesh(4) without its centre fan, re-indexed."""
    pts2, tris = structured_disk_mesh(4)
    keep = ~(tris == 0).any(axis=1)
    return np.c_[pts2[1:], np.zeros(len(pts2) - 1)], tris[keep] - 1


def _projective_plane():
    ang = 2.0 * np.pi * np.arange(6) / 6.0
    return np.c_[np.cos(ang), np.sin(ang), np.arange(6) % 2], RP2_FACES


def _check_edge_table(pts, tris):
    edges, face_edges, counts = mesh_edges(tris, len(pts))
    oracle = edge_face_counter(tris)
    assert [tuple(e) for e in edges.tolist()] == sorted(oracle)
    assert counts.tolist() == [oracle[tuple(e)] for e in edges.tolist()]
    sides = np.sort(np.stack([tris, np.roll(tris, -1, axis=1)], axis=2), axis=2)
    assert np.array_equal(edges[face_edges], sides)
    assert len(np.unique(tris)) - len(edges) + len(tris) == 1


class TestEdgeTable:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=1, max_value=12))
    def test_structured_mesh_matches_counter_oracle(self, rings):
        _check_edge_table(*structured_disk_mesh(rings))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(min_value=3, max_value=300))
    def test_delaunay_mesh_matches_counter_oracle(self, seed, n):
        pts = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 2))
        _check_edge_table(pts, Delaunay(pts).simplices)


# ---------------------------------------------------------------------------
# patch extraction


class TestExtraction:
    def test_flat_patch_shape(self, flat_pp):
        patch, _ = flat_pp
        assert patch.euler_characteristic() == 1
        assert 4000 < len(patch) < 6500
        assert patch.psi <= 0.05

    def test_flat_boundary_is_closed_cycle(self, flat_pp):
        patch, _ = flat_pp
        edges = set()
        for t in patch.triangles:
            for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
                edges.add((min(a, b), max(a, b)))
        bd = patch.boundary
        assert len(np.unique(bd)) == len(bd) >= 3
        for a, b in zip(bd, np.roll(bd, -1)):
            assert (min(a, b), max(a, b)) in edges

    def test_flat_triangles_ccw_in_plane(self, flat_pp):
        patch, _ = flat_pp
        p = patch.plane_coords[patch.triangles]
        cross = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
            p[:, 1, 1] - p[:, 0, 1]
        ) * (p[:, 2, 0] - p[:, 0, 0])
        assert (cross > 0).all()

    def test_flat_boundary_chord_arc_near_circle_value(self, flat_pp):
        patch, _ = flat_pp
        oracle = circle_arc_chord_ratio_max(0.5, 0.5)
        assert patch.boundary_chord_arc >= 1.0
        assert abs(patch.boundary_chord_arc - oracle) <= 0.1

    def test_too_small_ball_raises(self, flat_pp):
        sample, _ = generate(SyntheticSpec(kind="flat_disk", n_points=200, seed=0))
        with pytest.raises(TooFewPoints):
            conf.extract_disk_patch(sample, ORIGIN, 1e-6)

    def test_sphere_ball_is_not_a_disk(self):
        n = 4000
        k = np.arange(n) + 0.5
        phi = np.arccos(1 - 2 * k / n)
        theta = np.pi * (1 + 5**0.5) * k
        pts = np.c_[
            np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)
        ]
        up = np.where((np.abs(pts[:, 2]) < 0.9)[:, None], [[0, 0, 1.0]], [[1.0, 0, 0]])
        e1 = np.cross(up, pts)
        e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
        frames = np.stack([e1, np.cross(pts, e1)], axis=1)
        sphere = WeightedSurfaceSample(pts, np.full(n, 4 * np.pi / n), frames)
        for sigma in (1.2, 1.5):
            with pytest.raises(NotDiskTopology):
                conf.extract_disk_patch(sphere, pts[0], sigma)

    def test_punched_disk_is_not_a_disk(self):
        sample, _ = generate(SyntheticSpec(kind="punched_disk", n_points=20000, seed=1))
        with pytest.raises(NotDiskTopology):
            conf.extract_disk_patch(sample, np.array([0.3, 0.0, 0.0]), 0.25)
        with pytest.raises(NotDiskTopology):
            conf.extract_disk_patch(sample, ORIGIN, 0.6)

    def test_from_mesh_rejects_pinched_complex(self):
        pts = np.array(
            [[0.0, 0, 0], [1, 0, 0], [0.5, 1, 0], [-1, 0, 0], [-0.5, -1, 0]]
        )
        tris = np.array([[0, 1, 2], [0, 3, 4]])
        with pytest.raises(NotDiskTopology):
            conf.DiskPatch.from_mesh(pts, tris)

    @pytest.mark.parametrize(
        "mesh, error, match",
        [
            (_three_sheet_edge, NotDiskTopology, "more than two triangles"),
            (_double_fan, NotDiskTopology, "pinched vertex 0"),
            (_annulus, NotDiskTopology, "Euler characteristic 0"),
            (_projective_plane, NoBoundaryCycle, "no boundary edges"),
        ],
    )
    def test_from_mesh_refusals(self, mesh, error, match):
        pts, tris = mesh()
        with pytest.raises(error, match=match):
            conf.DiskPatch.from_mesh(pts, tris)

    def test_from_mesh_rejects_orphan_vertex(self):
        pts2, tris = structured_disk_mesh(4)
        pts = np.c_[pts2, np.zeros(len(pts2))]
        keep = ~(tris == 0).any(axis=1)
        with pytest.raises(NotDiskTopology):
            conf.DiskPatch.from_mesh(pts, tris[keep])

    def test_metric_graph_keeps_mesh_edges(self):
        pts2, tris = structured_disk_mesh(6)
        patch = conf.DiskPatch.from_mesh(
            np.c_[pts2, np.zeros(len(pts2))], tris, spacing=1e-6
        )
        graph = patch.metric_graph()  # tiny radius: union falls back to edges
        dist = dijkstra(graph, directed=False, indices=[0])
        assert np.isfinite(dist).all()


class TestRefinement:
    def test_midpoint_refinement_counts(self):
        pts2, tris = structured_disk_mesh(8)
        patch = conf.DiskPatch.from_mesh(np.c_[pts2, np.zeros(len(pts2))], tris)
        fine = conf.refine_disk_patch(patch)
        assert fine.n_triangles == 4 * patch.n_triangles
        assert len(fine.boundary) == 2 * len(patch.boundary)
        assert fine.euler_characteristic() == 1
        assert fine.spacing == pytest.approx(0.5 * patch.spacing)
        assert fine.metric_radius == pytest.approx(0.5 * patch.metric_radius)

    def test_boundary_projector_keeps_rim_on_circle(self):
        pts2, tris = structured_disk_mesh(8, radius=RIM)
        patch = conf.DiskPatch.from_mesh(cap_lift(pts2), tris)
        fine = conf.refine_disk_patch(patch, cap_project, rim_project)
        rim_r = np.linalg.norm(fine.points[fine.boundary][:, :2], axis=1)
        assert np.abs(rim_r - RIM).max() <= 1e-8  # source mesh carries 1e-9 jitter
        on_sphere = np.linalg.norm(fine.points - SPHERE_CENTER, axis=1)
        assert np.abs(on_sphere - SPHERE_R).max() <= 1e-8


# ---------------------------------------------------------------------------
# intrinsic metric and cycles


class TestIntrinsicMetric:
    def test_flat_path_chord_and_skeleton(self, flat_pp):
        patch, _ = flat_pp
        met = conf.intrinsic_metric_diagnostics(patch, seed=0)
        assert 1.0 - 1e-12 <= met["path_over_chord_max"] <= 1.02
        # hex skeleton detours are at most 2/sqrt(3) plus slack
        assert 1.0 - 1e-12 <= met["skeleton_over_path_max"] <= 2.0 / np.sqrt(3.0) + 0.01
        assert met["pairs_used"] > 0

    def test_flat_cycle_roundness(self, flat_pp):
        patch, _ = flat_pp
        met = conf.intrinsic_metric_diagnostics(patch, seed=0)
        ratios = [c["diameter_over_length"] for c in met["cycles"]]
        assert ratios
        for r in ratios:
            assert abs(r - 1.0 / np.pi) <= 0.05 / np.pi

    def test_graph_paths_match_arc_length_oracle(self):
        sample, _ = generate(SyntheticSpec(kind="graph", n_points=20000, seed=5, eps=0.3))
        c3 = sample.points[np.argmin(np.linalg.norm(sample.points[:, :2], axis=1))]
        patch = conf.extract_disk_patch(sample, c3, 0.5)
        graph = patch.metric_graph()
        uv = patch.points[:, :2]
        for kdir in range(6):
            th = np.pi * kdir / 6.0
            tgt = 0.28 * np.array([np.cos(th), np.sin(th)])
            i = int(np.argmin(np.linalg.norm(uv - tgt, axis=1)))
            j = int(np.argmin(np.linalg.norm(uv + tgt, axis=1)))
            d = dijkstra(graph, indices=[i])[0, j]
            oracle = graph_chord_length(0.3, uv[i], uv[j])
            assert abs(d / oracle - 1.0) <= 0.01


class TestCycles:
    def test_metric_and_skeleton_graphs_are_symmetric(self, flat_pp, cap_extracted):
        # the shortest-path searches run directed=True on these graphs
        for patch in (flat_pp[0], cap_extracted[1]):
            for graph in (patch.metric_graph(), patch.skeleton_graph()):
                assert (graph != graph.T).nnz == 0

    def test_flat_circle_cycle_isoperimetric_ratio(self, flat_pp):
        patch, _ = flat_pp
        th = np.linspace(0, 2 * np.pi, 18, endpoint=False)
        cycle = conf.waypoint_cycle(patch, np.c_[0.3 * np.cos(th), 0.3 * np.sin(th)])
        ratio = conf.isoperimetric_check(patch, cycle)
        assert abs(ratio - 1.0 / (4 * np.pi)) <= 0.05 / (4 * np.pi)

    def test_square_cycle_exact_sixteenth(self):
        ng = 16
        xs = np.linspace(-1.0, 1.0, ng + 1)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        pts = np.c_[gx.ravel(), gy.ravel(), np.zeros((ng + 1) ** 2)]
        _, tris = unit_square_grid(ng)
        patch = conf.DiskPatch.from_mesh(pts, tris)
        h = 2.0 / ng

        def vid(i, j):
            return i * (ng + 1) + j

        def line(a, b):
            ia, ja = round((a[0] + 1) / h), round((a[1] + 1) / h)
            ib, jb = round((b[0] + 1) / h), round((b[1] + 1) / h)
            steps = max(abs(ib - ia), abs(jb - ja))
            return [
                vid(ia + (ib - ia) * s // steps, ja + (jb - ja) * s // steps)
                for s in range(steps)
            ]

        corners = [(-0.25, -0.25), (0.25, -0.25), (0.25, 0.25), (-0.25, 0.25)]
        cycle = []
        for a, b in zip(corners, corners[1:] + corners[:1]):
            cycle += line(a, b)
        ratio = conf.isoperimetric_check(patch, np.asarray(cycle))
        assert ratio == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_mild_graph_cycles_stay_isoperimetrically_small(self):
        sample, _ = generate(SyntheticSpec(kind="graph", n_points=20000, seed=7, eps=0.05))
        c3 = sample.points[np.argmin(np.linalg.norm(sample.points[:, :2], axis=1))]
        patch = conf.extract_disk_patch(sample, c3, 0.5)
        ratios = []
        for rad in (0.2, 0.3):
            th = np.linspace(0, 2 * np.pi, 16, endpoint=False)
            cycle = conf.waypoint_cycle(patch, np.c_[rad * np.cos(th), rad * np.sin(th)])
            ratios.append(conf.isoperimetric_check(patch, cycle))
        s = 0.3
        square = np.array([[s, s], [-s, s], [-s, -s], [s, -s]])
        ratios.append(conf.isoperimetric_check(patch, conf.waypoint_cycle(patch, square)))
        assert max(ratios) <= 0.1

    def test_self_intersecting_cycle_rejected(self):
        ng = 16
        xs = np.linspace(-1.0, 1.0, ng + 1)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        pts = np.c_[gx.ravel(), gy.ravel(), np.zeros((ng + 1) ** 2)]
        _, tris = unit_square_grid(ng)
        patch = conf.DiskPatch.from_mesh(pts, tris)

        def vid(x, y):
            return round((x + 1) * ng / 2) * (ng + 1) + round((y + 1) * ng / 2)

        crossing = np.array(
            [vid(-0.25, 0.0), vid(0.25, 0.0), vid(0.0, 0.25), vid(0.0, -0.25)]
        )
        with pytest.raises(NotJordan):
            conf.isoperimetric_check(patch, crossing)
        with pytest.raises(NotJordan):
            conf.isoperimetric_check(patch, crossing[:2])
        jumpy = np.array([vid(-0.75, -0.75), vid(0.75, 0.75), vid(-0.75, 0.75)])
        with pytest.raises(NotJordan):
            conf.isoperimetric_check(patch, jumpy)

    def test_waypoints_snapping_to_same_vertex_rejected(self, flat_pp):
        patch, _ = flat_pp
        wp = np.array([[0.2, 0.0], [0.2, 1e-9], [0.0, 0.2]])
        with pytest.raises(NotJordan):
            conf.waypoint_cycle(patch, wp)


def _circle_waypoints(patch, frac, count=24):
    r_max = float(np.linalg.norm(patch.plane_coords, axis=1).max())
    th = 2.0 * np.pi * np.arange(count) / count
    return frac * r_max * np.c_[np.cos(th), np.sin(th)]


def _count_unbounded_searches(monkeypatch):
    """Wrap the module's dijkstra; the list collects the sources of every
    search made without a limit."""
    unbounded = []

    def counting(*args, **kwargs):
        if "limit" not in kwargs:
            unbounded.append(kwargs["indices"])
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr(conf, "dijkstra", counting)
    return unbounded


class TestBoundedWaypointSearch:
    FRACTIONS = (0.3, 0.55, 0.8)

    def test_cycles_match_unbounded_oracle(self, kernel_cases, monkeypatch):
        unbounded = _count_unbounded_searches(monkeypatch)
        for patch, _, _ in kernel_cases[:2]:
            for frac in self.FRACTIONS:
                wp = _circle_waypoints(patch, frac)
                got = conf.waypoint_cycle(patch, wp)
                assert np.array_equal(got, waypoint_cycle_unbounded(patch, wp))
        # the reach covered every next anchor: no search fell back
        assert unbounded == []

    def test_fallback_for_every_anchor_matches_unbounded_oracle(
        self, kernel_cases, monkeypatch
    ):
        monkeypatch.setattr(conf, "WAYPOINT_REACH_MULT", 1e-9)
        unbounded = _count_unbounded_searches(monkeypatch)
        for patch, _, _ in kernel_cases[:2]:
            for frac in self.FRACTIONS:
                wp = _circle_waypoints(patch, frac)
                anchors = np.unique(cKDTree(patch.plane_coords).query(wp)[1])
                assert len(anchors) == len(wp)
                del unbounded[:]
                got = conf.waypoint_cycle(patch, wp)
                assert np.array_equal(got, waypoint_cycle_unbounded(patch, wp))
                assert sorted(unbounded) == anchors.tolist()


# ---------------------------------------------------------------------------
# harmonic parameterization


class TestHarmonicParam:
    def test_structured_flat_identity_to_machine_precision(self, structured_flat_pp):
        patch, param = structured_flat_pp
        ident = np.linalg.norm(param.disk_points * 0.5 - patch.plane_coords, axis=1)
        assert ident.max() <= 1e-8
        # the Dirichlet energy of an identity chart is twice the domain area
        area = patch.surface_triangle_areas().sum()
        assert param.energy == pytest.approx(2.0 * area, rel=1e-12)

    def test_flat_lattice_identity_up_to_rotation(self, flat_pp):
        patch, param = flat_pp
        a, frame, offset = affine_fit_direct(param.disk_points, patch.plane_coords)
        pred = a * (param.disk_points @ frame.T) + offset
        err = np.linalg.norm(patch.plane_coords - pred, axis=1).max()
        assert err <= 1e-2
        assert np.linalg.norm(offset) <= 1e-12

    def test_boundary_lands_on_unit_circle(self, flat_pp):
        _, param = flat_pp
        radii = np.linalg.norm(param.disk_points[param.boundary], axis=1)
        assert np.abs(radii - 1.0).max() <= 1e-12

    def test_three_pins_at_cube_roots_of_unity(self, flat_pp):
        _, param = flat_pp
        assert len(param.pinned) == 3
        assert param.pin_error <= 1e-12
        got = param.disk_points[param.pinned]
        assert np.allclose(got, param.pin_targets, atol=1e-12)

    def test_energy_never_exceeds_initializer(self, flat_pp, structured_flat_pp, structured_cap_pp):
        for patch, param in (flat_pp, structured_flat_pp, structured_cap_pp):
            assert param.energy <= tutte_energy(patch) + 1e-12

    def test_energy_matches_direct_quadrature(self, flat_pp):
        _, param = flat_pp
        energy, area, _ = dirichlet_energy_direct(
            param.disk_points, param.surface_points, param.triangles
        )
        assert param.energy == pytest.approx(energy, rel=1e-12)
        assert param.energy - 2.0 * area >= -1e-9

    def test_cap_matches_stereographic_map(self, structured_cap_pp):
        patch, param = structured_cap_pp
        assert cap_map_error(param, patch) <= 1e-6

    def test_extracted_cap_matches_stereographic_map(self, cap_extracted):
        _, patch, param = cap_extracted
        assert cap_map_error(param, patch) <= 1.5e-2

    def test_mobius_reparameterization_preserves_energy(self, flat_pp):
        _, param = flat_pp
        moved = conf.mobius_reparameterized(param, center=(0.3, -0.2), phase=1.1)
        assert abs(moved.energy - param.energy) <= 0.01 * param.energy
        radii = np.linalg.norm(moved.disk_points, axis=1)
        assert radii.max() <= 1.0 + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(
        cx=st.floats(-0.6, 0.6),
        cy=st.floats(-0.6, 0.6),
        phase=st.floats(0.0, 2 * np.pi),
    )
    def test_mobius_energy_invariance_property(self, cx, cy, phase):
        param = structured_flat_param(20)
        moved = conf.mobius_reparameterized(param, center=(cx, cy), phase=phase)
        assert abs(moved.energy - param.energy) <= 0.01 * param.energy

    def test_mobius_energy_drift_is_discretization_error(self):
        # the drift is O(h^2): at the worst center seen on 10 rings (1.09%
        # there) doubling the rings cuts it about fourfold
        drift = []
        for rings in (10, 20):
            param = structured_flat_param(rings)
            moved = conf.mobius_reparameterized(param, center=(0.59375, 0.59375))
            drift.append(abs(moved.energy - param.energy) / param.energy)
        assert drift[1] <= drift[0] / 3.0


@functools.lru_cache(maxsize=None)
def structured_flat_param(rings):
    """Harmonic map of the flat structured disk mesh of radius 0.5."""
    pts2, tris = structured_disk_mesh(rings, radius=0.5)
    patch = conf.DiskPatch.from_mesh(np.c_[pts2, np.zeros(len(pts2))], tris)
    return conf.harmonic_disk_param(patch)


# ---------------------------------------------------------------------------
# conformal factor and dyadic statistics


class TestConformalFactor:
    def test_structured_flat_factor_is_constant(self, structured_flat_pp):
        _, param = structured_flat_pp
        cf = conf.conformal_factor(param)
        assert np.abs(cf.w - cf.w.mean()).max() <= 1e-6
        assert cf.qc_dilatation.max() <= 1.0 + 1e-6
        assert cf.axis_ratio.min() >= 1.0 - 1e-6

    def test_area_factor_recovers_surface_area(self, flat_pp):
        patch, param = flat_pp
        cf = conf.conformal_factor(param)
        total = float((cf.area_factor * cf.disk_areas).sum())
        assert total == pytest.approx(patch.surface_triangle_areas().sum(), rel=1e-9)

    def test_degenerate_triangle_raises(self):
        disk = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        surf = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])
        param = conf.DiskParameterization(
            disk_points=disk, surface_points=surf, triangles=np.array([[0, 1, 2]])
        )
        with pytest.raises(DegenerateTriangle):
            conf.conformal_factor(param)

    def test_energy_conformality_gap_small_when_dilatation_small(
        self, structured_flat_pp, structured_cap_pp
    ):
        for _, param in (structured_flat_pp, structured_cap_pp):
            cf = conf.conformal_factor(param)
            gap = param.energy - 2.0 * float((cf.area_factor * cf.disk_areas).sum())
            assert gap >= -1e-9
            assert cf.qc_dilatation.max() <= 1.05
            assert gap <= 0.02 * param.energy


class TestDyadicStatistics:
    def test_checkerboard_exact_values(self, grid_mesh_32):
        mesh, pts, tris = grid_mesh_32
        cent = pts[tris].mean(axis=1)
        block = (np.floor(cent[:, 0] * 4) + np.floor(cent[:, 1] * 4)).astype(int) % 2
        w = np.where(block == 1, BMO_TWO_VALUE, -BMO_TWO_VALUE)
        for depth in (0, 3):
            assert conf.a2_constant(mesh, w, depth) == pytest.approx(
                A2_TWO_VALUE, abs=1e-10
            )
            assert conf.bmo_norm(mesh, w, depth) == pytest.approx(
                BMO_TWO_VALUE, abs=1e-10
            )

    def test_stripe_jacobians_exact_inverse_holder(self):
        param = stripe_param()
        for depth in (0, 3):
            assert conf.inverse_holder_max(param, depth) == pytest.approx(
                IH_TWO_VALUE, abs=1e-10
            )
        one = conf.inverse_holder_check(param, conf.DyadicSquare(0.0, 0.0, 1.0, 0))
        assert one == pytest.approx(IH_TWO_VALUE, abs=1e-10)
        w = conf.conformal_factor(param).w
        assert conf.a2_constant(param, w, 0) == pytest.approx(A2_TWO_VALUE, abs=1e-10)
        assert conf.bmo_norm(param, w, 0) == pytest.approx(BMO_TWO_VALUE, abs=1e-10)

    def test_empty_square_raises(self):
        param = stripe_param(n=8)
        with pytest.raises(TooFewPoints):
            conf.inverse_holder_check(param, conf.DyadicSquare(5.0, 5.0, 1.0, 0))

    def test_flat_lattice_weights_are_tame(self, flat_pp):
        _, param = flat_pp
        w = conf.conformal_factor(param).w
        assert conf.bmo_norm(param, w) <= 0.05
        assert conf.a2_constant(param, w) <= 1.05
        assert conf.inverse_holder_max(param) <= 1.05

    def test_dyadic_squares_are_aligned_and_admissible(self, grid_mesh_32):
        mesh, pts, tris = grid_mesh_32
        squares = conf.dyadic_squares(mesh, depth=3)
        assert squares
        cent = pts[tris].mean(axis=1)
        areas = np.full(len(tris), 0.5 / 32**2)
        for sq in squares:
            k = round((sq.x0 - 0.0) / sq.size)
            m = round((sq.y0 - 0.0) / sq.size)
            assert sq.x0 == pytest.approx(k * sq.size, abs=1e-12)
            assert sq.y0 == pytest.approx(m * sq.size, abs=1e-12)
            inside = (
                (cent[:, 0] >= sq.x0)
                & (cent[:, 0] < sq.x0 + sq.size)
                & (cent[:, 1] >= sq.y0)
                & (cent[:, 1] < sq.y0 + sq.size)
            )
            assert inside.sum() >= conf.MIN_SQUARE_TRIANGLES
            assert areas[inside].sum() >= conf.SQUARE_COVERAGE * sq.size**2 - 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        vals=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
        offset=st.floats(-2.0, 2.0),
        scale=st.floats(0.1, 3.0),
    )
    def test_field_statistic_invariants(self, vals, offset, scale):
        pts, tris = unit_square_grid(8)
        mesh = conf.DiskMesh(points=pts, triangles=tris)
        col = np.repeat(np.arange(8), 16)  # triangle column index
        w = np.asarray(vals)[col]
        a2 = conf.a2_constant(mesh, w, 1)
        bmo = conf.bmo_norm(mesh, w, 1)
        assert a2 >= 1.0 - 1e-12
        assert bmo >= 0.0
        assert conf.a2_constant(mesh, w + offset, 1) == pytest.approx(a2, rel=1e-9)
        assert conf.bmo_norm(mesh, w + offset, 1) == pytest.approx(bmo, abs=1e-12)
        assert conf.bmo_norm(mesh, scale * w, 1) == pytest.approx(
            scale * bmo, rel=1e-9, abs=1e-12
        )

    @settings(max_examples=25, deadline=None)
    @given(slopes=st.lists(st.floats(0.2, 3.0), min_size=8, max_size=8))
    def test_inverse_holder_at_least_one(self, slopes):
        param = stripe_param(n=8, slopes=slopes)
        assert conf.inverse_holder_max(param, 1) >= 1.0 - 1e-12

    def test_bmo_ordering_matches_log_a2_ordering(self, grid_mesh_32):
        mesh, pts, tris = grid_mesh_32
        cent = pts[tris].mean(axis=1)
        block = (np.floor(cent[:, 0] * 4) + np.floor(cent[:, 1] * 4)).astype(int) % 2
        cb = np.where(block == 1, 1.0, -1.0)
        r2 = (cent[:, 0] - 0.5) ** 2 + (cent[:, 1] - 0.5) ** 2
        fields = [
            0.10 * cb,
            0.25 * cb,
            0.40 * cb,
            0.60 * (r2 - r2.mean()),
            0.18 * (cent[:, 0] - 0.5),
        ]
        bmos = [conf.bmo_norm(mesh, w, 3) for w in fields]
        log_a2 = [np.log(conf.a2_constant(mesh, w, 3)) for w in fields]
        assert list(np.argsort(bmos)) == list(np.argsort(log_a2))


# ---------------------------------------------------------------------------
# curvature equation residuals


class TestCurvatureResiduals:
    def test_flat_residuals_vanish(self, structured_flat_pp):
        _, param = structured_flat_pp
        res = conf.curvature_equation_residuals(param, lambda p: np.zeros_like(p))
        assert res.mc_absolute <= 1e-2
        assert res.gauss_absolute <= 1e-2
        assert res.frame_energy <= 1e-6

    def test_cap_mean_curvature_residual_small(self, structured_cap_pp):
        _, param = structured_cap_pp
        res = conf.curvature_equation_residuals(param, cap_mean_curvature)
        assert res.mc_relative <= 0.15
        assert res.mc_relative <= 0.01  # measured 3.1e-4

    def test_cap_frame_energy_matches_quadrature_oracle(self, structured_cap_pp):
        patch, param = structured_cap_pp
        res = conf.curvature_equation_residuals(param, cap_mean_curvature)
        chord = float(np.linalg.norm(patch.points[param.boundary], axis=1).mean())
        oracle = oracle_frame_energy_cap(SPHERE_R, chord)
        assert abs(res.frame_energy - oracle) <= 0.25 * oracle

    def test_cap_residual_halves_under_refinement(self):
        pts2, tris = structured_disk_mesh(20, radius=RIM)
        patch = conf.DiskPatch.from_mesh(cap_lift(pts2), tris, center=ORIGIN)
        fine = conf.refine_disk_patch(patch, cap_project, rim_project)
        coarse_res = conf.curvature_equation_residuals(
            conf.harmonic_disk_param(patch), cap_mean_curvature
        )
        fine_res = conf.curvature_equation_residuals(
            conf.harmonic_disk_param(fine), cap_mean_curvature
        )
        assert fine_res.mc_relative <= 0.5 * coarse_res.mc_relative

    def test_both_residuals_decay_on_analytic_chain(self):
        rho = stereographic_radius_for_chord(SPHERE_R, RIM)
        history = []
        for rings in (12, 24, 48):
            pts2, tris = structured_disk_mesh(rings, radius=1.0)
            surf = stereographic_to_cap(SPHERE_R, rho * pts2)
            patch = conf.DiskPatch.from_mesh(surf, tris, center=ORIGIN)
            param = conf.DiskParameterization(
                disk_points=pts2,
                surface_points=surf,
                triangles=patch.triangles,
                boundary=patch.boundary,
                patch=patch,
            )
            history.append(conf.curvature_equation_residuals(param, cap_mean_curvature))
        for coarse, fine in zip(history, history[1:]):
            assert fine.mc_absolute <= coarse.mc_absolute / 1.5
            assert fine.gauss_absolute <= coarse.gauss_absolute / 1.5

    def test_estimated_field_route(self, cap_extracted):
        sample, patch, param = cap_extracted
        field = build_curvature_field(
            sample, 3.0 * sample.mean_spacing, indices=np.sort(patch.sample_rows)
        )
        res = conf.curvature_equation_residuals(param, field)
        assert res.mc_relative <= 0.15
        analytic = conf.curvature_equation_residuals(param, cap_mean_curvature)
        assert analytic.mc_relative <= 0.15

    def test_missing_curvature_raises(self, structured_flat_pp):
        _, param = structured_flat_pp
        sparse_field = CurvatureField(
            indices=np.array([0]),
            vectors=np.zeros((1, 3)),
            radius=0.1,
            residuals=np.zeros(1),
            orthogonal=np.ones(1, dtype=bool),
        )
        with pytest.raises(MissingCurvature):
            conf.curvature_equation_residuals(param, sparse_field)
        bare = conf.DiskParameterization(
            disk_points=param.disk_points,
            surface_points=param.surface_points,
            triangles=param.triangles,
            boundary=param.boundary,
        )
        with pytest.raises(MissingCurvature):
            conf.curvature_equation_residuals(bare, sparse_field)

    @pytest.mark.parametrize(
        "field",
        [
            pytest.param(lambda p: np.zeros(3), id="one-vector"),
            pytest.param(lambda p: np.zeros((len(p), 2)), id="wrong-dimension"),
            pytest.param(lambda p: np.zeros((len(p) - 1, 3)), id="one-row-short"),
        ],
    )
    def test_misshapen_curvature_callable_raises(self, structured_flat_pp, field):
        # a (3,) result used to broadcast over every vertex without complaint
        _, param = structured_flat_pp
        with pytest.raises(MissingCurvature, match="curvature callable returned shape"):
            conf.conformal_diagnostics(param, field)

    def test_no_curvature_still_reports_gauss(self, structured_flat_pp):
        _, param = structured_flat_pp
        res = conf.curvature_equation_residuals(param, None)
        assert res.mc_absolute is None
        assert np.isfinite(res.gauss_absolute)


# ---------------------------------------------------------------------------
# large Lipschitz pieces


class TestLipschitzPieces:
    def test_identity_has_empty_exceptional_set(self, structured_flat_pp):
        _, param = structured_flat_pp
        piece = conf.large_lipschitz_pieces(param, conf.DyadicSquare(-0.5, -0.5, 1.0, 0), 2.0)
        assert piece.excluded_count == 0
        assert piece.scale == pytest.approx(0.5, abs=1e-6)
        assert piece.lipschitz == pytest.approx(0.5, rel=1e-6)
        assert piece.within_budget

    def test_two_value_gradient_thresholds_exact_region(self):
        ng = 16
        xs = np.linspace(-1.0, 1.0, ng + 1)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        disk = np.c_[gx.ravel(), gy.ravel()]
        _, tris = unit_square_grid(ng)
        ramp = np.where(disk[:, 0] > 0, 2.0 * disk[:, 0], 0.0)
        param = conf.DiskParameterization(
            disk_points=disk,
            surface_points=np.c_[disk, ramp],
            triangles=tris,
        )
        cmask = disk[tris].mean(axis=1)[:, 0] > 0
        expected = np.zeros(len(disk), dtype=bool)
        expected[tris[cmask]] = True
        expected &= (disk[:, 0] < 1.0) & (disk[:, 1] < 1.0)  # half-open square
        square = conf.DyadicSquare(-1.0, -1.0, 2.0, 0)
        for t in (1.3, 1.5, 1.7):
            piece = conf.large_lipschitz_pieces(param, square, t)
            got = np.zeros(len(disk), dtype=bool)
            got[piece.excluded_vertices] = True
            assert (got == expected).all()
            # the kept half is an exact isometry
            assert piece.lipschitz == pytest.approx(1.0, abs=1e-9)

    def test_flat_minimizer_exceptional_areas_decay(self, structured_flat_pp):
        _, param = structured_flat_pp
        square = conf.DyadicSquare(-0.5, -0.5, 1.0, 0)
        areas = []
        for t in (2.0, 4.0, 8.0):
            piece = conf.large_lipschitz_pieces(param, square, t)
            areas.append(piece.excluded_area)
            assert piece.excluded_area + piece.excluded_image_area / piece.scale**2 <= piece.budget
            assert piece.budget == pytest.approx(t**-2.0 * 0.25, rel=1e-12)
        assert areas[0] >= areas[1] >= areas[2]


# ---------------------------------------------------------------------------
# affine fits and quasisymmetry


class TestAffineFitAndQuasisymmetry:
    def test_fit_agrees_with_direct_oracle(self, cap_extracted):
        _, _, param = cap_extracted
        center, radius = np.array([0.2, 0.1]), 0.3
        fit = conf.semmes_affine_fit(param, center, radius)
        sel = np.linalg.norm(param.disk_points - center, axis=1) <= radius
        weights = np.maximum(
            vertex_areas(param.disk_points, param.triangles)[sel], 1e-300
        )
        a, frame, offset = affine_fit_direct(
            param.disk_points[sel], param.surface_points[sel], weights
        )
        pred = a * (param.disk_points[sel] @ frame.T) + offset
        sup = float(
            np.linalg.norm(param.surface_points[sel] - pred, axis=1).max()
        ) / (a * radius)
        assert fit.scale == pytest.approx(a, rel=1e-12)
        assert fit.sup_deviation == pytest.approx(sup, rel=1e-9)

    def test_flat_deviations_shrink_with_radius(self, flat_pp):
        _, param = flat_pp
        sups = [
            conf.semmes_affine_fit(param, np.zeros(2), r).sup_deviation
            for r in (0.35, 0.25, 0.15)
        ]
        assert all(s <= 0.05 for s in sups)
        assert sups[0] >= sups[1] >= sups[2]

    def test_rank_deficient_fit_raises(self, flat_pp):
        _, param = flat_pp
        with pytest.raises(RankDeficient):
            conf.semmes_affine_fit(param, np.array([2.0, 2.0]), 0.05)

    def test_quasisymmetry_matches_bruteforce(self, flat_pp):
        _, param = flat_pp
        centers = np.array([[0.0, 0.0], [0.25, -0.2]])
        table = conf.quasisymmetry_table(param, centers, (0.15, 0.3))
        worst = max(
            quasisymmetry_bruteforce(param.disk_points, param.surface_points, int(ci), s)
            for ci in table.center_indices
            for s in (0.15, 0.3)
        )
        assert table.max == pytest.approx(worst, rel=1e-12)

    def test_flat_quasisymmetry_is_tame(self, flat_pp):
        _, param = flat_pp
        diag = conf.conformal_diagnostics(param)
        assert diag.quasisymmetry_max <= 1.2


# ---------------------------------------------------------------------------
# bundled diagnostics and exports


class TestDiagnosticsAndExport:
    def test_structured_flat_headline_numbers(self, structured_flat_pp):
        patch, param = structured_flat_pp
        diag = conf.conformal_diagnostics(param)
        assert diag.bmo <= 1e-6
        assert diag.a2 <= 1.0 + 1e-6
        assert diag.inverse_holder_max <= 1.0 + 1e-6
        assert diag.max_qc_dilatation <= 1.0 + 1e-6
        assert diag.pin_error <= 1e-12
        assert diag.energy <= tutte_energy(patch)

    def test_extracted_cap_diagnostics(self, cap_extracted):
        _, _, param = cap_extracted
        diag = conf.conformal_diagnostics(param, cap_mean_curvature)
        assert diag.bmo <= 0.02
        assert diag.a2 <= 1.01
        assert diag.inverse_holder_max <= 1.01
        assert diag.quasisymmetry_max <= 1.1
        assert diag.mc_residual <= 0.15
        assert diag.energy_area_gap <= 0.01 * diag.energy
        assert diag.square_count > 0

    def test_interior_dilatation_is_bounded_by_the_global_one(
        self, flat_pp, structured_flat_pp, cap_extracted
    ):
        for param in (flat_pp[1], structured_flat_pp[1], cap_extracted[2]):
            diag = conf.conformal_diagnostics(param)
            assert np.isfinite(diag.interior_qc_dilatation)
            assert 1.0 <= diag.interior_qc_dilatation <= diag.max_qc_dilatation
        assert diag.interior_qc_dilatation < diag.max_qc_dilatation

    def test_one_jacobian_per_parameterization(self, flat_pp, monkeypatch):
        patch, _ = flat_pp
        built = []
        affine_maps = conf._affine_maps

        def counting(disk_pts, tris, values):
            built.append(values.shape[1])
            return affine_maps(disk_pts, tris, values)

        monkeypatch.setattr(conf, "_affine_maps", counting)
        param = conf.harmonic_disk_param(patch)
        conf.conformal_diagnostics(param)
        conf.large_lipschitz_pieces(param, conf.dyadic_squares(param, 2)[-1], 2.0)
        # one map Jacobian, plus the frame-field gradients of the residuals
        assert built == [3, 6]
        jac, areas = param.jacobian()
        assert not jac.flags.writeable and not areas.flags.writeable


# ---------------------------------------------------------------------------
# one owner per kernel: the library against the kernels written out


@pytest.fixture(scope="module")
def kernel_cases(structured_cap_pp, flat_pp):
    """(patch or None, param, curvature): structured cap, extracted flat
    disk and the stripe map of the unit square."""
    return [
        (*structured_cap_pp, cap_mean_curvature),
        (*flat_pp, None),
        (None, stripe_param(), None),
    ]


class TestKernelOracles:
    def test_orientation_dets_match_flips_and_areas(self):
        pts = np.random.default_rng(5).uniform(-1.0, 1.0, (60, 2))
        tris = Delaunay(pts).simplices
        tris[::2] = tris[::2, ::-1]
        dets = orientation_dets(pts, tris)
        flipped = (orient_ccw(pts, tris) != tris).any(axis=1)
        assert flipped.any() and not flipped.all()
        assert np.array_equal(flipped, dets < 0)
        assert np.array_equal(orientation_dets(pts, orient_ccw(pts, tris)), np.abs(dets))
        assert np.array_equal(triangle_areas(pts, tris), 0.5 * np.abs(dets))

    def test_square_contains_is_half_open(self):
        square = conf.DyadicSquare(0.0, 0.0, 0.5, 1)
        pts = np.array(
            [[0.0, 0.0], [0.25, 0.25], [0.5, 0.25], [0.25, 0.5], [0.5, 0.5], [-1e-17, 0.1]]
        )
        assert square.contains(pts).tolist() == [True, True, False, False, False, False]

    def test_jacobians_and_gradients_match_oracle(self, kernel_cases):
        rng = np.random.default_rng(0)
        for _, param, _ in kernel_cases:
            disk, tris = param.disk_points, param.triangles
            for values in (param.surface_points, rng.standard_normal((len(disk), 3))):
                jac, areas = conf._affine_maps(disk, tris, values)
                ref_jac, ref_areas = affine_maps_direct(disk, tris, values)
                assert np.array_equal(jac, ref_jac)
                assert np.array_equal(areas, ref_areas)
                grads = pl_gradients_direct(disk, tris, values)
                assert np.array_equal(jac.transpose(0, 2, 1), grads)

    def test_diagnostics_match_oracle(self, kernel_cases):
        box = (3, conf.MIN_SQUARE_TRIANGLES, conf.SQUARE_COVERAGE)
        for patch, param, curvature in kernel_cases:
            disk, tris = param.disk_points, param.triangles
            diag = conf.conformal_diagnostics(param, curvature)
            cf = conf.conformal_factor(param)
            res = conf.curvature_equation_residuals(param, curvature)
            gauss_abs, gauss_rel, frame_energy = frame_terms_direct(
                disk, tris, param.surface_points, param.interior_mask()
            )
            inner = np.where(np.linalg.norm(disk, axis=1) <= 0.55)[0]
            if len(inner) > 20:
                rng = np.random.default_rng(0)
                inner = np.sort(rng.choice(inner, 20, replace=False))
            qs = conf.quasisymmetry_table(param, disk[inner], scales=(0.1, 0.2, 0.35))
            image_area = float((cf.area_factor * cf.disk_areas).sum())
            rim = set(param.boundary_vertices().tolist())
            deep_qc = [
                float(q)
                for q, tri in zip(cf.qc_dilatation, tris.tolist())
                if rim.isdisjoint(tri)
            ]
            mc = res.mc_relative
            if mc is None or not np.isfinite(mc):
                mc = res.mc_absolute
            expected = {
                "bmo": square_statistic_direct(disk, tris, cf.w, *box, "bmo"),
                "a2": square_statistic_direct(disk, tris, cf.w, *box, "a2"),
                "inverse_holder_max": square_statistic_direct(
                    disk, tris, cf.area_factor, *box, "inverse_holder"
                ),
                "quasisymmetry_max": qs.max,
                "mc_residual": mc,
                "mc_residual_absolute": res.mc_absolute,
                "gauss_residual": gauss_abs,
                "gauss_residual_relative": gauss_rel,
                "frame_energy": frame_energy,
                "energy": param.energy,
                "image_area": image_area,
                "energy_area_gap": (param.energy - 2.0 * image_area) / param.energy,
                "max_qc_dilatation": float(cf.qc_dilatation.max()),
                "interior_qc_dilatation": max(deep_qc, default=float("nan")),
                "pin_error": param.pin_error,
                "square_count": len(dyadic_squares_direct(disk, tris, *box)),
                "psi": None if patch is None else patch.psi,
                "boundary_chord_arc": None if patch is None else patch.boundary_chord_arc,
            }
            np.testing.assert_equal(vars(diag), expected)

    def test_dyadic_squares_match_oracle(self, kernel_cases):
        for _, param, _ in kernel_cases:
            got = [
                (sq.x0, sq.y0, sq.size, sq.depth)
                for sq in conf.dyadic_squares(param)
            ]
            assert got == dyadic_squares_direct(
                param.disk_points,
                param.triangles,
                3,
                conf.MIN_SQUARE_TRIANGLES,
                conf.SQUARE_COVERAGE,
            )

    def test_lipschitz_pieces_match_oracle(self, kernel_cases):
        for _, param, _ in kernel_cases:
            disk, f = param.disk_points, param.surface_points
            squares = conf.dyadic_squares(param, 2)
            for square in [sq for sq in squares if sq.depth == 2][:4]:
                inside = square_mask_direct(disk, square.x0, square.y0, square.size)
                assert np.array_equal(square.contains(disk), inside)
                piece = conf.large_lipschitz_pieces(param, square, 2.0)
                assert inside[piece.excluded_vertices].all()
                kept = inside.copy()
                kept[piece.excluded_vertices] = False
                assert piece.kept_count == kept.sum()
                kept_idx = np.flatnonzero(kept)
                if len(kept_idx) > 1200:
                    rng = np.random.default_rng(0)
                    kept_idx = np.sort(rng.choice(kept_idx, 1200, replace=False))
                assert piece.lipschitz == lipschitz_blocks(disk[kept_idx], f[kept_idx])

    def test_intrinsic_metric_matches_oracle(self, kernel_cases):
        for patch, _, _ in kernel_cases[:2]:
            assert conf.intrinsic_metric_diagnostics(patch) == metric_diagnostics_loop(
                patch, waypoint_cycle_unbounded, conf._polygon_contains
            )


# ---------------------------------------------------------------------------
# refused input: each call below used to return a NaN or wrong figure, or
# raise a numpy, scipy or bare ValueError or an IndexError


def _disk_mesh_past_the_end(extra_triangle):
    """12-ring flat structured disk (469 vertices) with vertex index 474,
    past the end, as the last vertex renumbered or in one extra triangle."""
    pts2, tris = structured_disk_mesh(12)
    k = len(pts2)
    if extra_triangle:
        tris = np.vstack([tris, [[0, 1, k + 5]]])
    else:
        tris = np.where(tris == k - 1, k + 5, tris)
    return np.c_[pts2, np.zeros(k)], tris


NAN_2D = [np.nan, 0.0]
BAD_CONFORMAL_CALLS = {
    "mobius_center_outside_disk": (
        lambda p: conf.mobius_reparameterized(p, center=(1.0, 0.0)),
        PointOutsideDomain,
        "Moebius center",
    ),
    "mobius_nan_center": (
        lambda p: conf.mobius_reparameterized(p, center=NAN_2D),
        NonFiniteInput,
        "Moebius center",
    ),
    "mobius_nan_phase": (
        lambda p: conf.mobius_reparameterized(p, phase=np.nan),
        NonFiniteInput,
        "Moebius phase",
    ),
    "lipschitz_nan_threshold": (
        lambda p: conf.large_lipschitz_pieces(
            p, conf.DyadicSquare(-0.5, -0.5, 1.0, 0), np.nan
        ),
        InvalidScale,
        "threshold t",
    ),
    "quasisymmetry_nan_center": (
        lambda p: conf.quasisymmetry_table(p, [[0.1, 0.0], NAN_2D], (0.1,)),
        NonFiniteInput,
        "quasisymmetry center of row 1",
    ),
    "waypoint_nan": (
        lambda p: conf.waypoint_cycle(p.patch, [[0.2, 0.0], NAN_2D, [0.0, 0.2]]),
        NonFiniteInput,
        "waypoint of row 1",
    ),
    "bmo_field_one_short": (
        lambda p: conf.bmo_norm(p, np.zeros(len(p.triangles) - 1)),
        DimensionMismatch,
        "BMO field",
    ),
    "a2_field_one_short": (
        lambda p: conf.a2_constant(p, np.zeros(len(p.triangles) - 1)),
        DimensionMismatch,
        "A2 weight field",
    ),
    "isoperimetric_index_past_the_end": (
        lambda p: conf.isoperimetric_check(p.patch, [0, 1, 10**6]),
        InvalidIndex,
        "cycle vertex 1000000",
    ),
    "from_mesh_vertex_renumbered_past_the_end": (
        lambda p: conf.DiskPatch.from_mesh(*_disk_mesh_past_the_end(False)),
        InvalidIndex,
        "triangle vertex 474",
    ),
    "from_mesh_extra_triangle_past_the_end": (
        lambda p: conf.DiskPatch.from_mesh(*_disk_mesh_past_the_end(True)),
        InvalidIndex,
        "triangle vertex 474",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFORMAL_CALLS))
def test_bad_conformal_input_raises_toolkit_errors(case):
    call, error, match = BAD_CONFORMAL_CALLS[case]
    assert issubclass(error, ToolkitError)
    with pytest.raises(error, match=match):
        call(structured_flat_param(12))
