"""Disk-patch extraction, harmonic parameterization, and conformal diagnostics."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra
from scipy.sparse.linalg import splu
from scipy.spatial import Delaunay, cKDTree

from varifoldlab import conformal as conf
from varifoldlab import geometry, meshing
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
    angle_defects,
    cotangent_laplacian,
    mesh_edges,
    orient_ccw,
    orientation_dets,
    triangle_areas,
    vertex_areas,
    vertex_sums,
)
from varifoldlab.synthetic import SyntheticSpec, generate

from fixtures import structured_disk_mesh
from oracles import (
    affine_fit_direct,
    affine_maps_direct,
    boundary_chord_arc_broadcast,
    circle_arc_chord_ratio_max,
    cotangents_cross,
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
    refine_interleave,
    square_mask_direct,
    square_statistic_direct,
    stereographic_radius_for_chord,
    stereographic_to_cap,
    triangle_areas_cross,
    tutte_flattening,
    vertex_sums_add_at,
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
def graph_off_centre():
    """Saddle-graph patch around the sample point nearest (0.2, 0.1): its
    boundary cycle has 190 vertices, not a multiple of three."""
    sample, _ = generate(SyntheticSpec(kind="graph", n_points=20000, eps=0.3))
    row = int(np.argmin(np.linalg.norm(sample.points[:, :2] - [0.2, 0.1], axis=1)))
    patch = conf.extract_disk_patch(sample, sample.points[row], 0.5)
    return patch, conf.harmonic_disk_param(patch)


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
    return unit_square_grid(32)


def _levels(param):
    """The dyadic levels of a parameterization's disk mesh."""
    return conf._DyadicLevels(param.disk_points, param.triangles)


def _inverse_holder_max(param):
    """The inverse-Hoelder statistic that `conformal_diagnostics` reports."""
    return _levels(param).inverse_holder(conf.conformal_factor(param).area_factor)


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


def _no_faces():
    pts2, _ = structured_disk_mesh(2)
    return np.c_[pts2, np.zeros(len(pts2))], np.zeros((0, 3), dtype=int)


def _rim_sliver():
    """structured_disk_mesh(4) with a new vertex at the midpoint of a rim
    edge and the flat triangle it makes with that edge."""
    pts2, tris = structured_disk_mesh(4)
    edges, _, counts = mesh_edges(tris, len(pts2))
    a, b = edges[np.flatnonzero(counts == 1)[0]]
    pts2 = np.vstack([pts2, 0.5 * (pts2[a] + pts2[b])])
    tris = np.vstack([tris, [[a, len(pts2) - 1, b]]])
    return np.c_[pts2, np.zeros(len(pts2))], tris


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

    def test_dropped_sample_point_sets_the_inclusion_margin(self):
        # Delaunay keeps one copy of a duplicated row and drops the other, so
        # the margin comes from the dropped copy, not from the rim
        sample, _ = generate(SyntheticSpec(kind="flat_disk", n_points=8000, seed=0))
        radii = np.linalg.norm(sample.points, axis=1)
        row = int(np.argmin(np.abs(radii - 0.098)))
        doubled = WeightedSurfaceSample(
            np.concatenate([sample.points, sample.points[[row]]]),
            np.append(sample.weights, sample.weights[row]),
            np.concatenate([sample.tangent_bases, sample.tangent_bases[[row]]]),
        )
        sigma = 0.5
        patch = conf.extract_disk_patch(doubled, ORIGIN, sigma)
        assert len(patch) < len(doubled.ball_query(ORIGIN, sigma))
        assert patch.psi == pytest.approx(1.0 - radii[row] / sigma, abs=1e-8)
        # the promise of `DiskPatch.psi`
        inside = doubled.ball_query(ORIGIN, (1.0 - patch.psi) * sigma)
        assert inside.size > 0 and np.isin(inside, patch.sample_rows).all()

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

    def test_sparse_ball_leaves_no_triangle(self):
        """Weights of 1e-4 set the mean spacing at 0.01, so every Delaunay
        triangle of 40 points spread over [-1, 1]^2 fails the circumradius
        filter."""
        rng = np.random.default_rng(0)
        pts = np.c_[rng.uniform(-1.0, 1.0, (40, 2)), np.zeros(40)]
        frames = np.broadcast_to(np.eye(3)[:2], (40, 2, 3))
        sparse_cloud = WeightedSurfaceSample(pts, np.full(40, 1e-4), frames)
        with pytest.raises(NotDiskTopology, match="no triangle passes the circumradius filter"):
            conf.extract_disk_patch(sparse_cloud, ORIGIN, 1.5)

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
            (_no_faces, NotDiskTopology, "no triangles survive in the patch"),
            # used to raise NoBoundaryCycle "boundary forks at vertex ..."
            (
                _rim_sliver,
                DegenerateTriangle,
                r"triangle 96 \[.*\] has no area in the plane coordinates",
            ),
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
        graph = patch.metric_graph  # tiny radius: union falls back to edges
        dist = dijkstra(graph, directed=False, indices=[0])
        assert np.isfinite(dist).all()

    @pytest.mark.parametrize("cache", ["skeleton_graph", "metric_graph", "boundary_chord_arc"])
    def test_caches_are_not_constructor_arguments(self, cache):
        pts2, tris = structured_disk_mesh(4)
        patch = conf.DiskPatch.from_mesh(np.c_[pts2, np.zeros(len(pts2))], tris)
        given = {f.name: getattr(patch, f.name) for f in dataclasses.fields(patch) if f.init}
        with pytest.raises(TypeError, match=cache):
            conf.DiskPatch(**given, **{cache: None})

    def test_patch_is_frozen(self):
        """Moving the points after `metric_graph` was read would leave the
        cached graph stale; the record refuses it."""
        pts2, tris = structured_disk_mesh(4)
        patch = conf.DiskPatch.from_mesh(np.c_[pts2, np.zeros(len(pts2))], tris)
        graph = patch.metric_graph
        with pytest.raises(dataclasses.FrozenInstanceError):
            patch.points = 2.0 * patch.points
        assert patch.metric_graph is graph


def _tilted_disk(rings, angle):
    """The structured unit disk turned by `angle` about the x axis, and its
    flat coordinates."""
    uv, tris = structured_disk_mesh(rings)
    c, s = np.cos(angle), np.sin(angle)
    turn = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    return np.c_[uv, np.zeros(len(uv))] @ turn.T, tris, uv


class TestRefinement:
    def test_tilted_patch_refines_as_the_flat_one(self):
        """A wrapped mesh's parameter plane is the plane coordinates it was
        given, whatever the ambient frame: the tilted refinement flattens
        with the flat one's energy."""
        energies = []
        for angle in (0.0, 1.2):
            pts, tris, uv = _tilted_disk(8, angle)
            patch = conf.DiskPatch.from_mesh(pts, tris, plane_coords=uv)
            energies.append(conf.harmonic_disk_param(conf.refine_disk_patch(patch)).energy)
        assert energies[1] == pytest.approx(energies[0], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("case", ["tilted", "projected_cap"])
    def test_new_vertices_sit_at_parameter_plane_midpoints(self, case):
        if case == "tilted":
            pts, tris, uv = _tilted_disk(8, 1.2)
            patch = conf.DiskPatch.from_mesh(pts, tris, plane_coords=uv)
            fine = conf.refine_disk_patch(patch)
        else:
            pts2, tris = structured_disk_mesh(8, radius=RIM)
            patch = conf.DiskPatch.from_mesh(cap_lift(pts2), tris)
            fine = conf.refine_disk_patch(patch, cap_project, rim_project)
        coords = patch.plane_coords
        edges = mesh_edges(patch.triangles, len(patch))[0]
        mids = 0.5 * (coords[edges[:, 0]] + coords[edges[:, 1]])
        assert np.array_equal(fine.plane_coords, np.vstack([coords, mids]))
        assert (orientation_dets(fine.plane_coords, fine.triangles) > 0).all()

    def test_midpoint_refinement_counts(self):
        pts2, tris = structured_disk_mesh(8)
        patch = conf.DiskPatch.from_mesh(np.c_[pts2, np.zeros(len(pts2))], tris)
        fine = conf.refine_disk_patch(patch)
        assert fine.n_triangles == 4 * patch.n_triangles
        assert len(fine.boundary) == 2 * len(patch.boundary)
        assert fine.euler_characteristic() == 1
        assert fine.spacing == pytest.approx(0.5 * patch.spacing)
        assert fine.metric_radius == pytest.approx(0.5 * patch.metric_radius)

    @pytest.mark.parametrize("case", ["extracted", "mirrored_cap_mesh"])
    def test_refinement_matches_hand_built_boundary(self, case):
        """Two refinements through `DiskPatch.from_mesh` give the fields
        the hand-built boundary interleave gave, bit for bit: the disk walk
        starts at the smallest boundary vertex, an old one, and runs
        counterclockwise as the old cycle did."""
        if case == "extracted":
            sample, _ = generate(SyntheticSpec(kind="graph", n_points=3000, eps=0.3))
            patch = conf.extract_disk_patch(sample, ORIGIN, 0.5)
            projectors = ()
        else:
            pts2, tris = structured_disk_mesh(6, radius=RIM)
            patch = conf.DiskPatch.from_mesh(
                cap_lift(pts2), tris, plane_coords=pts2 * [-1.0, 1.0], center=ORIGIN
            )
            projectors = (cap_project, rim_project)
        for _ in range(2):
            expected = refine_interleave(patch, *projectors)
            patch = conf.refine_disk_patch(patch, *projectors)
            for name, value in expected.items():
                assert np.array_equal(getattr(patch, name), value), name

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
        graph = patch.metric_graph
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
            for graph in (patch.metric_graph, patch.skeleton_graph):
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
        assert np.array_equal(param.disk_points[param.pinned], param.pin_targets)
        roots = 2.0 * np.pi * np.arange(3) / 3.0
        assert np.allclose(param.pin_targets, np.c_[np.cos(roots), np.sin(roots)],
                           rtol=0.0, atol=1e-15)

    def test_map_is_the_harmonic_extension_of_its_trace(self, graph_off_centre):
        patch, param = graph_off_centre
        n, bd = len(param), param.boundary
        assert len(bd) % 3 != 0
        lap = cotangent_laplacian(patch.points, patch.triangles)
        interior = np.setdiff1d(np.arange(n), bd)
        again = conf._solve_trace(lap, bd, param.disk_points[bd], interior, n)
        assert np.abs(again - param.disk_points).max() <= 1e-12

    def test_trace_runs_by_arc_length_between_the_pins(self, graph_off_centre):
        """Pin j sits exactly on its target, at angle 2 pi j / 3, the boundary
        angle increases along the cycle, and each arc between pins is spread
        by arc length."""
        patch, param = graph_off_centre
        bd = param.boundary
        assert np.array_equal(param.disk_points[param.pinned], param.pin_targets)
        angle = np.mod(np.arctan2(param.disk_points[bd, 1], param.disk_points[bd, 0]),
                       2.0 * np.pi)
        assert np.all(np.diff(angle) > 0) and angle[-1] < 2.0 * np.pi
        pos = [int(np.flatnonzero(bd == pin)[0]) for pin in param.pinned]
        assert pos[0] == 0
        seg = np.linalg.norm(np.roll(patch.points[bd], -1, axis=0) - patch.points[bd], axis=1)
        arc = np.r_[0.0, np.cumsum(seg)]
        ends = pos + [len(bd)]
        for j in range(3):
            lo, hi = ends[j], ends[j + 1]
            frac = (arc[lo:hi] - arc[lo]) / (arc[hi] - arc[lo])
            want = 2.0 * np.pi * (j + frac) / 3.0
            np.testing.assert_allclose(angle[lo:hi], want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("case, tol", [("cap_extracted", 3e-4), ("flat_pp", 1.4e-3)])
    def test_centred_radius_matches_the_analytic_profile(self, request, case, tol):
        """After the disk automorphism sending the centre vertex to 0, |z| on
        r < 0.8 is one multiple of tan(theta / 2) on the sphere cap (theta
        the angle at the sphere centre) and of the distance on the flat
        disk; the tolerances are the arc-length-with-Moebius map's 2.9e-4
        and 1.36e-3, rounded up."""
        patch, param = request.getfixturevalue(case)[-2:]
        c = int(np.argmin(np.linalg.norm(patch.points - patch.center, axis=1)))
        z = param.disk_points[:, 0] + 1j * param.disk_points[:, 1]
        r = np.abs((z - z[c]) / (1.0 - np.conj(z[c]) * z))
        if case == "cap_extracted":
            u = patch.points - SPHERE_CENTER
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            profile = np.tan(0.5 * np.arccos(np.clip(u @ u[c], -1.0, 1.0)))
        else:
            profile = np.linalg.norm(patch.points - patch.points[c], axis=1)
        near = r < 0.8
        scale = (r[near] @ profile[near]) / (profile[near] @ profile[near])
        assert np.abs(r[near] - scale * profile[near]).max() <= tol

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

    def test_rebuilt_parameterization_keeps_its_energy(self, flat_pp):
        """A map rebuilt from a solved one's arrays reports the same energy
        and diagnostics, bit for bit: energy derives from the map."""
        _, param = flat_pp
        rebuilt = conf.DiskParameterization(
            disk_points=param.disk_points,
            surface_points=param.surface_points,
            triangles=param.triangles,
            boundary=param.boundary,
            pinned=param.pinned,
            pin_targets=param.pin_targets,
            patch=param.patch,
        )
        assert rebuilt.energy == param.energy
        got = conf.conformal_diagnostics(rebuilt)
        want = conf.conformal_diagnostics(param)
        assert np.isfinite(got.energy) and np.isfinite(got.energy_area_gap)
        np.testing.assert_equal(vars(got), vars(want))

    def test_boundary_defaults_to_the_mesh_boundary(self, flat_pp):
        _, param = flat_pp
        bare = conf.DiskParameterization(param.disk_points, param.surface_points, param.triangles)
        edges, _, counts = mesh_edges(param.triangles, len(param))
        assert np.array_equal(bare.boundary, np.unique(edges[counts == 1]))
        assert np.array_equal(bare.boundary, np.sort(param.boundary))

    def test_parameterization_is_frozen(self):
        """Scaling the surface after `energy` was read would leave the cached
        Jacobian, and so the energy, stale; the record refuses it."""
        pts2, tris = structured_disk_mesh(4, radius=0.5)
        patch = conf.DiskPatch.from_mesh(np.c_[pts2, np.zeros(len(pts2))], tris)
        param = conf.harmonic_disk_param(patch)
        energy = param.energy
        with pytest.raises(dataclasses.FrozenInstanceError):
            param.surface_points = 2.0 * param.surface_points
        assert param.energy == energy

    def test_parameterization_refuses_in_place_writes(self):
        """Its arrays, and its patch's, are read-only views.  Scaling the
        surface in place used to leave `energy` at 1.5529 where a fresh
        record of the scaled arrays reads 6.2117, and moved the patch's
        points too.  The caller's own array keeps its flags."""
        pts2, tris = structured_disk_mesh(4, radius=0.5)
        pts = np.c_[pts2, np.zeros(len(pts2))]
        patch = conf.DiskPatch.from_mesh(pts, tris)
        param = conf.harmonic_disk_param(patch)
        energy = param.energy
        assert energy == pytest.approx(1.5529, abs=1e-4)
        arrays = [
            getattr(param, f.name) for f in dataclasses.fields(param) if f.name != "patch"
        ] + [getattr(patch, f.name) for f in dataclasses.fields(patch) if f.type == "np.ndarray"]
        assert len(arrays) == 12
        for array in arrays:
            assert isinstance(array, np.ndarray) and not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            param.surface_points[:] *= 2.0
        with pytest.raises(ValueError, match="read-only"):
            patch.points[:] = 0.0
        assert param.energy == energy
        assert np.array_equal(patch.points, pts)
        assert pts.flags.writeable

    def test_cap_matches_stereographic_map(self, structured_cap_pp):
        patch, param = structured_cap_pp
        assert cap_map_error(param, patch) <= 1e-6

    def test_extracted_cap_matches_stereographic_map(self, cap_extracted):
        _, patch, param = cap_extracted
        assert cap_map_error(param, patch) <= 1.5e-2

    @pytest.mark.parametrize("case", ["flat_pp", "cap_extracted"])
    def test_symmetric_mode_solve_matches_default_splu(self, request, case):
        patch = request.getfixturevalue(case)[-2]
        n, bd = len(patch.points), patch.boundary
        theta = np.linspace(0.0, 2.0 * np.pi, len(bd), endpoint=False)
        circle = np.c_[np.cos(theta), np.sin(theta)]
        interior = np.setdiff1d(np.arange(n), bd)
        lap = cotangent_laplacian(patch.points, patch.triangles)
        out = conf._solve_trace(lap, bd, circle, interior, n)
        rows = lap[interior]
        ref = splu((-rows[:, interior]).tocsc()).solve(np.asarray(rows[:, bd] @ circle))
        assert np.array_equal(out[bd], circle)
        np.testing.assert_allclose(out[interior], ref, rtol=1e-11, atol=1e-11)

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
    def test_checkerboard_exact_values(self, grid_mesh_32, monkeypatch):
        pts, tris = grid_mesh_32
        cent = pts[tris].mean(axis=1)
        block = (np.floor(cent[:, 0] * 4) + np.floor(cent[:, 1] * 4)).astype(int) % 2
        w = np.where(block == 1, BMO_TWO_VALUE, -BMO_TWO_VALUE)
        for depth in (0, 3):
            monkeypatch.setattr(conf, "DYADIC_DEPTH", depth)
            levels = conf._DyadicLevels(pts, tris)
            assert levels.a2(w) == pytest.approx(A2_TWO_VALUE, abs=1e-10)
            assert levels.bmo(w) == pytest.approx(BMO_TWO_VALUE, abs=1e-10)

    def test_stripe_jacobians_exact_inverse_holder(self, monkeypatch):
        param = stripe_param()
        for depth in (0, 3):
            monkeypatch.setattr(conf, "DYADIC_DEPTH", depth)
            assert _inverse_holder_max(param) == pytest.approx(IH_TWO_VALUE, abs=1e-10)
        w = conf.conformal_factor(param).w
        monkeypatch.setattr(conf, "DYADIC_DEPTH", 0)
        assert _levels(param).a2(w) == pytest.approx(A2_TWO_VALUE, abs=1e-10)
        assert _levels(param).bmo(w) == pytest.approx(BMO_TWO_VALUE, abs=1e-10)

    def test_empty_square_raises(self):
        param = stripe_param(n=8)
        with pytest.raises(TooFewPoints, match="fewer than three vertices"):
            conf.large_lipschitz_pieces(param, conf.DyadicSquare(5.0, 5.0, 1.0, 0), 2.0)

    def test_flat_lattice_weights_are_tame(self, flat_pp):
        _, param = flat_pp
        diag = conf.conformal_diagnostics(param)
        assert diag.bmo <= 0.05
        assert diag.a2 <= 1.05
        assert diag.inverse_holder_max <= 1.05

    def test_dyadic_squares_are_aligned_and_admissible(self, grid_mesh_32):
        pts, tris = grid_mesh_32
        squares = conf._DyadicLevels(pts, tris).squares()
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
        col = np.repeat(np.arange(8), 16)  # triangle column index
        w = np.asarray(vals)[col]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(conf, "DYADIC_DEPTH", 1)
            levels = conf._DyadicLevels(pts, tris)
            a2 = levels.a2(w)
            bmo = levels.bmo(w)
            assert a2 >= 1.0 - 1e-12
            assert bmo >= 0.0
            assert levels.a2(w + offset) == pytest.approx(a2, rel=1e-9)
            assert levels.bmo(w + offset) == pytest.approx(bmo, abs=1e-12)
            assert levels.bmo(scale * w) == pytest.approx(
                scale * bmo, rel=1e-9, abs=1e-12
            )

    @settings(max_examples=25, deadline=None)
    @given(slopes=st.lists(st.floats(0.2, 3.0), min_size=8, max_size=8))
    def test_inverse_holder_at_least_one(self, slopes):
        param = stripe_param(n=8, slopes=slopes)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(conf, "DYADIC_DEPTH", 1)
            assert _inverse_holder_max(param) >= 1.0 - 1e-12

    def test_bmo_ordering_matches_log_a2_ordering(self, grid_mesh_32):
        pts, tris = grid_mesh_32
        levels = conf._DyadicLevels(pts, tris)
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
        bmos = [levels.bmo(w) for w in fields]
        log_a2 = [np.log(levels.a2(w)) for w in fields]
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

    def test_disk_laplacian_is_built_only_for_the_mean_curvature(
        self, structured_cap_pp, monkeypatch
    ):
        _, param = structured_cap_pp
        built = []

        def counting(points, tris):
            built.append(len(points))
            return cotangent_laplacian(points, tris)

        monkeypatch.setattr(conf, "cotangent_laplacian", counting)
        conf.curvature_equation_residuals(param, None)
        assert built == []
        conf.curvature_equation_residuals(param, cap_mean_curvature)
        assert built == [len(param)]


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
        square = [sq for sq in conf.dyadic_squares(param) if sq.depth == 2][-1]
        conf.large_lipschitz_pieces(param, square, 2.0)
        # one map Jacobian, plus the frame-field gradients of the residuals
        assert built == [3, 6]
        jac, areas = param.jacobian
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

    def test_mesh_kernels_match_the_cross_product_oracles(self, kernel_cases):
        """The wedge norm and the vertex scatter give the planar-branch and
        `np.cross` areas and cotangents and the per-corner `np.add.at` sums
        bit for bit, on meshes in R^2 and R^3."""
        rng = np.random.default_rng(11)
        pts2 = rng.uniform(-1.0, 1.0, (400, 2))
        random_tris = Delaunay(pts2).simplices
        meshes = [(scale * pts2, random_tris) for scale in (1e-3, 1.0, 1e3)]
        meshes += [(scale * cap_lift(pts2), random_tris) for scale in (1e-3, 1.0, 1e3)]
        for _, param, _ in kernel_cases:
            meshes += [
                (param.disk_points, param.triangles),
                (param.surface_points, param.triangles),
            ]
        for v, f in meshes:
            areas = triangle_areas(v, f)
            assert np.array_equal(areas, triangle_areas_cross(v, f))
            assert np.array_equal(meshing._cotangents(v, f), cotangents_cross(v, f))
            assert np.array_equal(
                vertex_areas(v, f), vertex_sums_add_at(f, areas / 3.0, len(v))
            )
            values = rng.standard_normal((len(f), 3))
            assert np.array_equal(
                vertex_sums(f, values, len(v)), vertex_sums_add_at(f, values, len(v))
            )

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
            rim = set(param.boundary.tolist())
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
            squares = conf.dyadic_squares(param)
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


# `geometry._PAIR_BLOCK` for a table of `n` columns: 1 forces one-row
# blocks, and 5 rows and a half per block leave a shorter last block
# wherever the row count is not a multiple of 5
PAIR_BLOCKS = {"one-row": lambda n: 1, "uneven": lambda n: 5 * n + n // 2}


@pytest.mark.parametrize("blocks", sorted(PAIR_BLOCKS))
class TestPairTablesOnBlocks:
    """Every pair-distance table read on row blocks of `geometry._pair_blocks`
    gives the figures of its unblocked oracle at any block size."""

    def test_quasisymmetry_matches_bruteforce(self, flat_pp, blocks, monkeypatch):
        _, param = flat_pp
        centers = np.linspace([-0.3, -0.2], [0.3, 0.25], 7)
        scales = (0.15, 0.3)
        whole = conf.quasisymmetry_table(param, centers, scales)
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", PAIR_BLOCKS[blocks](len(param.disk_points)))
        table = conf.quasisymmetry_table(param, centers, scales)
        assert np.array_equal(table.values, whole.values)
        for row, ci in enumerate(table.center_indices):
            for col, s in enumerate(scales):
                oracle = quasisymmetry_bruteforce(param.disk_points, param.surface_points, int(ci), s)
                assert table.values[row, col] == pytest.approx(oracle, rel=1e-12)

    def test_boundary_chord_arc_matches_broadcast(self, kernel_cases, graph_off_centre, blocks,
                                                  monkeypatch):
        patches = [patch for patch, _, _ in kernel_cases[:2]] + [graph_off_centre[0]]
        for patch in patches:
            n = min(len(patch.boundary), conf.CHORD_ARC_SAMPLES)
            monkeypatch.setattr(geometry, "_PAIR_BLOCK", PAIR_BLOCKS[blocks](n))
            assert conf._boundary_chord_arc(
                patch.points, patch.boundary, patch.sigma
            ) == boundary_chord_arc_broadcast(
                patch.points, patch.boundary, patch.sigma, conf.CHORD_ARC_SAMPLES
            )

    def test_intrinsic_metric_matches_oracle(self, kernel_cases, blocks, monkeypatch):
        patch = kernel_cases[0][0]
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", PAIR_BLOCKS[blocks](len(patch)))
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


def _grid_mesh_with(**changes):
    """`DiskPatch.from_mesh` of the 9x9-vertex unit-square grid in R^3,
    with vertex 40 moved to ``changes["point"]`` when given and the other
    keywords passed on."""
    pts2, tris = unit_square_grid(8)
    pts = np.c_[pts2, np.zeros(len(pts2))]
    if "point" in changes:
        pts[40] = changes.pop("point")
    return conf.DiskPatch.from_mesh(pts, tris, **changes)


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
    "quasisymmetry_three_coordinate_center": (
        lambda p: conf.quasisymmetry_table(p, [[0.1, 0.0, 0.0]], (0.1,)),
        DimensionMismatch,
        r"quasisymmetry centers have shape \(1, 3\)",
    ),
    "quasisymmetry_nan_scale": (
        lambda p: conf.quasisymmetry_table(p, [[0.1, 0.0]], (0.1, np.nan)),
        InvalidScale,
        "quasisymmetry scale nan",
    ),
    # used to raise numpy's broadcast ValueError and a TypeError
    "quasisymmetry_scale_grid": (
        lambda p: conf.quasisymmetry_table(p, [[0.1, 0.0]], [[0.1, 0.2]]),
        DimensionMismatch,
        r"quasisymmetry scales have shape \(1, 2\)",
    ),
    "quasisymmetry_scalar_scale": (
        lambda p: conf.quasisymmetry_table(p, [[0.1, 0.0]], 0.1),
        DimensionMismatch,
        r"quasisymmetry scales have shape \(\)",
    ),
    "waypoint_three_coordinates": (
        lambda p: conf.waypoint_cycle(
            p.patch, [[0.2, 0.0, 0.0], [0.0, 0.2, 0.0], [-0.2, 0.0, 0.0]]
        ),
        DimensionMismatch,
        r"waypoints have shape \(3, 3\)",
    ),
    "semmes_three_coordinate_center": (
        lambda p: conf.semmes_affine_fit(p, [0.0, 0.0, 0.0], 0.3),
        DimensionMismatch,
        r"fit center has shape \(3,\)",
    ),
    "semmes_nan_radius": (
        lambda p: conf.semmes_affine_fit(p, [0.0, 0.0], np.nan),
        InvalidScale,
        "fit radius nan",
    ),
    "isoperimetric_float_indices": (
        lambda p: conf.isoperimetric_check(p.patch, [0.5, 1.2, 2.7]),
        InvalidIndex,
        "cycle vertex indices must be integers, got float64",
    ),
    "waypoint_nan": (
        lambda p: conf.waypoint_cycle(p.patch, [[0.2, 0.0], NAN_2D, [0.0, 0.2]]),
        NonFiniteInput,
        "waypoint of row 1",
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
    "from_mesh_fractional_triangle_indices": (
        lambda p: conf.DiskPatch.from_mesh(
            p.patch.points, p.patch.triangles + 0.7
        ),
        InvalidIndex,
        "triangle vertex indices must be integers, got float64",
    ),
    "from_mesh_extra_triangle_past_the_end": (
        lambda p: conf.DiskPatch.from_mesh(*_disk_mesh_past_the_end(True)),
        InvalidIndex,
        "triangle vertex 474",
    ),
    # the next two used to raise IndexError
    "from_mesh_flat_point_array": (
        lambda p: conf.DiskPatch.from_mesh(p.patch.points.ravel(), p.patch.triangles),
        DimensionMismatch,
        r"patch points have shape \(\d+,\), need \(k, n\)",
    ),
    "from_mesh_one_coordinate_points": (
        lambda p: conf.DiskPatch.from_mesh(p.patch.points[:, :1], p.patch.triangles),
        DimensionMismatch,
        r"plane coordinates have shape \(\d+, 1\), need \(k, 2\)",
    ),
    "from_mesh_three_plane_coordinates": (
        lambda p: _grid_mesh_with(plane_coords=np.zeros((3, 2))),
        DimensionMismatch,
        "3 plane coordinates for 81 points",
    ),
    "from_mesh_nan_vertex": (
        lambda p: _grid_mesh_with(point=[0.5, 0.5, np.nan]),
        NonFiniteInput,
        "patch point of row 40",
    ),
    "from_mesh_nan_center": (
        lambda p: _grid_mesh_with(center=[np.nan, 0.0, 0.0], sigma=1.0),
        NonFiniteInput,
        "patch center",
    ),
    "from_mesh_planar_center": (
        lambda p: _grid_mesh_with(center=[0.5, 0.5]),
        DimensionMismatch,
        "patch center",
    ),
    "from_mesh_negative_sigma": (
        lambda p: _grid_mesh_with(sigma=-1.0),
        InvalidScale,
        "patch radius -1.0",
    ),
    "from_mesh_nan_spacing": (
        lambda p: _grid_mesh_with(spacing=np.nan),
        InvalidScale,
        "patch spacing nan",
    ),
    # the next four used to raise numpy's broadcast ValueError or return a
    # patch with NaN points
    "refine_projector_planar_rows": (
        lambda p: conf.refine_disk_patch(p.patch, lambda m: m[:, :2]),
        DimensionMismatch,
        r"projected midpoints have shape \(\d+, 2\), need \(k, 3\)",
    ),
    "refine_projector_one_row_short": (
        lambda p: conf.refine_disk_patch(p.patch, lambda m: m[:-1]),
        DimensionMismatch,
        r"\d+ projected midpoints for \d+ edge midpoints",
    ),
    "refine_boundary_projector_one_row_short": (
        lambda p: conf.refine_disk_patch(p.patch, None, lambda m: m[1:]),
        DimensionMismatch,
        r"\d+ projected midpoints for \d+ edge midpoints",
    ),
    "refine_boundary_projector_nan": (
        lambda p: conf.refine_disk_patch(p.patch, None, lambda m: np.full_like(m, np.nan)),
        NonFiniteInput,
        "projected midpoint of row 0",
    ),
    # used to return a NaN mean-curvature residual
    "diagnostics_nan_curvature": (
        lambda p: conf.conformal_diagnostics(p, lambda f: np.where(f[:, :1] > 0.2, np.nan, f)),
        NonFiniteInput,
        r"curvature vector of row \d+ is not finite",
    ),
    "angle_defects_zero_length_edge": (
        lambda p: angle_defects(np.array([[0.0, 0, 0], [0, 0, 0], [1, 0, 0]]), [[0, 1, 2]]),
        DegenerateTriangle,
        "zero-length edge at a corner",
    ),
    "cotangent_laplacian_zero_area_face": (
        lambda p: cotangent_laplacian(np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]]), [[0, 1, 2]]),
        DegenerateTriangle,
        "zero-area face in cotangent assembly",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFORMAL_CALLS))
def test_bad_conformal_input_raises_toolkit_errors(case):
    call, error, match = BAD_CONFORMAL_CALLS[case]
    assert issubclass(error, ToolkitError)
    with pytest.raises(error, match=match):
        call(structured_flat_param(12))


# ---------------------------------------------------------------------------
# isometric lifts into R^4 and R^5: the conformal pipeline is dimension-free

LIFT_RTOL = 1e-12
# The curvature-equation residuals sum differences of nearly cancelling
# discrete curvatures (angle defects, the cotangent Laplacian of the
# coordinates); they amplify the rounding of the lifted coordinates to
# about 1e-11 relative.
LIFT_RESIDUAL_RTOL = 1e-9
RESIDUAL_FIELDS = (
    "mc_residual",
    "mc_residual_absolute",
    "gauss_residual",
    "gauss_residual_relative",
)
# On the graph's lattice the waypoint cycle meets a near-tie that the
# rounding of the lift settles the other way: the cycle runs through a few
# other vertices, and its length moves by about 3e-10 relative.
LIFT_CYCLE_RTOL = 1e-9


def _lift(n, rng):
    """A random isometry x -> x Q + t of R^3 into R^n, as (Q, t)."""
    q = np.linalg.qr(rng.standard_normal((n, n)))[0][:3]
    return q, rng.uniform(-1.0, 1.0, n)


def _conformal_run(sample, center, sigma, sphere_center):
    curvature = None
    if sphere_center is not None:

        def curvature(p):
            return (2.0 / SPHERE_R**2) * (sphere_center - p)

    patch = conf.extract_disk_patch(sample, center, sigma)
    diag = conf.conformal_diagnostics(conf.harmonic_disk_param(patch), curvature)
    return patch, diag, conf.intrinsic_metric_diagnostics(patch)


@functools.lru_cache(maxsize=None)
def lift_case(name):
    """(sample, sigma, sphere center or None, the R^3 run) of a 4.5k-point
    surface, with the patch at the origin."""
    if name == "sphere_cap":
        spec = SyntheticSpec(kind="sphere_cap", n_points=4500, sphere_radius=SPHERE_R)
        sigma, sphere_center = 0.8, SPHERE_CENTER
    else:
        spec = SyntheticSpec(kind="graph", n_points=4500, eps=0.3)
        sigma, sphere_center = 0.5, None
    sample = generate(spec)[0]
    return sample, sigma, sphere_center, _conformal_run(sample, ORIGIN, sigma, sphere_center)


def _in_plane_moments_tie(sample, sigma):
    """True when the two largest second moments of the ball B(0, sigma)
    agree to 1e-12 relative, so the PCA plane fixes its in-plane axes only
    up to a rotation."""
    rows = sample.ball_query(ORIGIN, sigma)
    w = sample.weights[rows]
    rel = sample.points[rows] - (w[:, None] * sample.points[rows]).sum(axis=0) / w.sum()
    evals = np.linalg.eigvalsh((rel * w[:, None]).T @ rel / w.sum())
    return evals[2] - evals[1] <= 1e-12 * evals[2]


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("name", ["sphere_cap", "graph"])
def test_conformal_pipeline_commutes_with_a_lift_into_rn(name, n):
    """Patch, harmonic map, diagnostics and intrinsic metric of a surface
    lifted into R^n by a random isometry match the R^3 run."""
    sample, sigma, sphere_center, (patch3, diag3, metric3) = lift_case(name)
    q, t = _lift(n, np.random.default_rng(n))
    lifted = WeightedSurfaceSample(
        sample.points @ q + t, sample.weights, sample.tangent_bases @ q
    )
    lifted_center = None if sphere_center is None else sphere_center @ q + t
    patch, diag, metric = _conformal_run(lifted, t, sigma, lifted_center)

    assert np.array_equal(patch.sample_rows, patch3.sample_rows)
    assert np.allclose(patch.points, patch3.points @ q + t, rtol=0.0, atol=1e-14)
    for key, want in vars(diag3).items():
        got = vars(diag)[key]
        if want is None:
            assert got is None
        else:
            rtol = LIFT_RESIDUAL_RTOL if key in RESIDUAL_FIELDS else LIFT_RTOL
            assert got == pytest.approx(want, rel=rtol, abs=0.0), key
    (cycle,), (cycle3,) = metric.pop("cycles"), metric3["cycles"]
    assert metric == pytest.approx(
        {key: value for key, value in metric3.items() if key != "cycles"},
        rel=LIFT_RTOL,
        abs=0.0,
    )
    assert cycle["radius"] == pytest.approx(cycle3["radius"], rel=LIFT_RTOL, abs=0.0)
    if name == "sphere_cap":
        # the cycle's waypoints sit on a circle in the PCA plane's axes,
        # which the round cap's tied moments leave free to turn in R^n
        assert _in_plane_moments_tie(sample, sigma)
    else:
        assert cycle["diameter_over_length"] == pytest.approx(
            cycle3["diameter_over_length"], rel=LIFT_CYCLE_RTOL, abs=0.0
        )
