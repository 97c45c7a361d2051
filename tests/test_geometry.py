"""Core geometry: plane fitting, projector metrics, set distances."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varifoldlab.errors import (
    DegenerateCloud,
    DimensionMismatch,
    EigengapTie,
    EmptyInput,
    EmptySet,
)
from varifoldlab.geometry import (
    Ball,
    Plane,
    WeightedSurfaceSample,
    _canonical_rows,
    check_projector,
    fit_plane_pca,
    grassmann_bases,
    grassmann_project,
    hausdorff_distance,
    projector_distance,
)

from oracles import (
    brute_hausdorff,
    canonical_rows_loop,
    fibonacci_directions,
    grid_min_projector_distance,
)

# frozen oracle constants (tests/oracles.py, scripts/freeze_oracle_values.py)
SQRT2_SIN_01 = 0.1411857717999883


# ---------------------------------------------------------------------------
# Plane / Ball / sample containers


def test_plane_projector_invariants():
    rng = np.random.default_rng(7)
    for n, m in [(3, 2), (4, 2), (5, 3)]:
        raw = rng.normal(size=(m, n))
        plane = Plane(basis=raw)
        p = plane.projector
        assert np.allclose(p, p.T, atol=1e-10)
        assert np.allclose(p @ p, p, atol=1e-10)
        assert abs(np.trace(p) - m) < 1e-10
        assert np.allclose(plane.basis @ plane.basis.T, np.eye(m), atol=1e-10)
        assert check_projector(p, m)


def test_plane_roundtrip_coordinates():
    plane = Plane(basis=np.eye(3)[:2], basepoint=np.array([1.0, 2.0, 3.0]))
    pts = np.array([[1.5, 2.5, 3.0], [0.0, 0.0, 3.0]])
    coords = plane.coordinates(pts)
    back = plane.lift(coords)
    assert np.allclose(back, pts, atol=1e-12)
    assert np.allclose(plane.heights(pts), 0.0, atol=1e-12)


def test_plane_basepoint_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Plane(basis=np.eye(3)[:2], basepoint=np.zeros(4))


def test_ball_requires_positive_radius():
    with pytest.raises(ValueError):
        Ball(center=np.zeros(3), radius=0.0)


def _flat_sample(n_pts=200, seed=0):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-1, 1, size=(n_pts, 2))
    pts = np.c_[xy, np.zeros(n_pts)]
    w = np.full(n_pts, 4.0 / n_pts)
    bases = np.broadcast_to(np.eye(3)[:2], (n_pts, 2, 3)).copy()
    return WeightedSurfaceSample(pts, w, bases)


def test_ball_query_matches_linear_scan():
    sample = _flat_sample(300, seed=3)
    rng = np.random.default_rng(5)
    for _ in range(20):
        center = rng.uniform(-1, 1, size=3)
        radius = rng.uniform(0.05, 1.2)
        idx = sample.ball_query(center, radius)
        dists = np.linalg.norm(sample.points - center, axis=1)
        expected = np.flatnonzero(dists <= radius)
        assert np.array_equal(idx, expected)


def test_sample_validation():
    with pytest.raises(EmptyInput):
        WeightedSurfaceSample(
            np.zeros((0, 3)), np.zeros(0), np.zeros((0, 2, 3))
        )
    with pytest.raises(ValueError):
        WeightedSurfaceSample(
            np.zeros((2, 3)),
            np.array([1.0, 0.0]),
            np.broadcast_to(np.eye(3)[:2], (2, 2, 3)),
        )


# ---------------------------------------------------------------------------
# fit_plane_pca


def test_pca_recovers_exact_plane():
    rng = np.random.default_rng(11)
    coords = rng.normal(size=(100, 2))
    pts = np.c_[coords, np.zeros(100)]
    plane = fit_plane_pca(pts, dim=2)
    assert projector_distance(plane, Plane(basis=np.eye(3)[:2])) < 1e-10


def test_pca_sphere_tangent():
    # points on the unit sphere within chord radius 0.1 of the pole: the PCA
    # plane approximates the tangent plane at the pole
    rng = np.random.default_rng(2)
    u = rng.uniform(0, 0.1 ** 2, size=400)  # chord^2, equal-area in the cap
    chord = np.sqrt(u)
    theta = 2.0 * np.arcsin(chord / 2.0)
    phi = rng.uniform(0, 2 * np.pi, size=400)
    pts = np.stack(
        [
            np.sin(theta) * np.cos(phi),
            np.sin(theta) * np.sin(phi),
            np.cos(theta),
        ],
        axis=1,
    )
    plane = fit_plane_pca(pts, dim=2)
    tangent = Plane(basis=np.eye(3)[:2], basepoint=np.array([0.0, 0.0, 1.0]))
    assert projector_distance(plane, tangent) < 0.02


def test_pca_pin_to_center():
    pts = np.array([[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, -1.0, 1.0]])
    pinned = fit_plane_pca(pts, dim=2, center=np.zeros(3), pin_to_center=True)
    assert np.allclose(pinned.basepoint, np.zeros(3))
    free = fit_plane_pca(pts, dim=2)
    assert np.allclose(free.basepoint, [0.0, 0.0, 1.0])


def test_pca_degenerate_and_empty():
    with pytest.raises(DegenerateCloud):
        fit_plane_pca(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), dim=2)
    with pytest.raises(EmptyInput):
        fit_plane_pca(np.zeros((0, 3)), dim=2)
    with pytest.raises(EmptyInput):
        fit_plane_pca(np.ones((3, 3)), weights=np.zeros(3), dim=2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_pca_beats_random_planes(seed):
    # optimality: weighted squared-distance residual of the PCA plane is no
    # worse than 1000 random affine planes
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(40, 3)) * np.array([1.0, 0.7, 0.2])
    w = rng.uniform(0.1, 2.0, size=40)
    plane = fit_plane_pca(pts, weights=w, dim=2)

    def residual(p: Plane) -> float:
        return float(np.sum(w * p.heights(pts) ** 2))

    best = residual(plane)
    centroid = (w[:, None] * pts).sum(axis=0) / w.sum()
    for _ in range(1000):
        raw = rng.normal(size=(2, 3))
        cand = Plane(basis=raw, basepoint=centroid + rng.normal(scale=0.05, size=3))
        assert best <= residual(cand) + 1e-12


# ---------------------------------------------------------------------------
# projector_distance


def _rotated_plane(alpha: float) -> Plane:
    # rotate span(e1, e2) about the e1 axis by alpha
    basis = np.array(
        [[1.0, 0.0, 0.0], [0.0, np.cos(alpha), np.sin(alpha)]]
    )
    return Plane(basis=basis)


def test_projector_distance_dihedral():
    base = Plane(basis=np.eye(3)[:2])
    tilted = _rotated_plane(0.1)
    d = projector_distance(base, tilted)
    assert abs(d - SQRT2_SIN_01) < 1e-12
    # direct 3x3 matrix oracle
    assert abs(d - np.linalg.norm(base.projector - tilted.projector)) < 1e-15


def test_projector_distance_orthogonal_complements():
    p = Plane(basis=np.eye(4)[:2])
    q = Plane(basis=np.eye(4)[2:])
    assert projector_distance(p, q) == pytest.approx(2.0, abs=1e-12)


def test_projector_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        projector_distance(Plane(basis=np.eye(3)[:2]), Plane(basis=np.eye(4)[:2]))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_projector_distance_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    planes = [Plane(basis=rng.normal(size=(2, 4))) for _ in range(3)]
    a, b, c = planes
    assert projector_distance(a, c) <= (
        projector_distance(a, b) + projector_distance(b, c) + 1e-10
    )


# ---------------------------------------------------------------------------
# hausdorff_distance


def test_hausdorff_known_value():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, 0.5]])
    expected = max(np.hypot(1.0, 0.5), 0.5)
    assert hausdorff_distance(a, b) == pytest.approx(expected, abs=1e-15)


def test_hausdorff_empty():
    with pytest.raises(EmptySet):
        hausdorff_distance(np.zeros((0, 2)), np.ones((3, 2)))


def test_hausdorff_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        hausdorff_distance(np.zeros((2, 2)), np.zeros((2, 3)))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(1, 500),
    st.integers(1, 400),
    st.integers(2, 4),
)
def test_hausdorff_equals_brute_force(seed, na, nb, dim):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(na, dim))
    b = rng.normal(size=(nb, dim))
    assert hausdorff_distance(a, b) == brute_hausdorff(a, b)


# ---------------------------------------------------------------------------
# grassmann_project


def test_grassmann_identity_on_projectors():
    plane = _rotated_plane(0.3)
    out = grassmann_project(plane.projector, rank=2)
    assert projector_distance(out, plane) < 1e-10


def test_grassmann_symmetrizes():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 3))
    out = grassmann_project(m, rank=2)
    sym = 0.5 * (m + m.T)
    out_sym = grassmann_project(sym, rank=2)
    assert projector_distance(out, out_sym) < 1e-12


def test_grassmann_optimal_vs_grid():
    rng = np.random.default_rng(17)
    for _ in range(5):
        m = rng.normal(size=(3, 3))
        out = grassmann_project(m, rank=2)
        sym = 0.5 * (m + m.T)
        mine = float(np.linalg.norm(sym - out.projector))
        grid_best, _ = grid_min_projector_distance(m, count=20000)
        assert mine <= grid_best + 1e-3


def test_grassmann_eigengap_warning():
    # symmetric matrix with a tied spectrum at the cut
    m = np.diag([1.0, 0.5, 0.5])
    with pytest.warns(EigengapTie):
        grassmann_project(m, rank=2)


def test_grassmann_invalid_inputs():
    with pytest.raises(DimensionMismatch):
        grassmann_project(np.zeros((2, 3)), rank=1)
    with pytest.raises(ValueError):
        grassmann_project(np.eye(3), rank=4)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 5))
def test_grassmann_output_is_projector(seed, n):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    rank = int(rng.integers(1, n))
    import warnings as _w

    with _w.catch_warnings():
        _w.simplefilter("ignore", EigengapTie)
        out = grassmann_project(m, rank=rank)
    p = out.projector
    assert np.allclose(p @ p, p, atol=1e-10)
    assert np.allclose(p, p.T, atol=1e-10)
    assert abs(np.trace(p) - rank) < 1e-9


def test_grassmann_bases_stack_matches_single_calls():
    rng = np.random.default_rng(29)
    stack = rng.normal(size=(40, 4, 4))
    stack[::7] = np.diag([1.0, 0.5, 0.5, 0.0])  # tied at the rank-2 cut
    import warnings as _w

    with _w.catch_warnings(record=True) as caught:
        _w.simplefilter("always")
        bases = grassmann_bases(stack, rank=2)
    assert [w.category for w in caught] == [EigengapTie]
    with _w.catch_warnings():
        _w.simplefilter("ignore", EigengapTie)
        single = np.stack([grassmann_project(m, rank=2).basis for m in stack])
    assert np.array_equal(bases, single)


def test_canonical_rows_matches_row_loop():
    rng = np.random.default_rng(31)
    rows = np.r_[
        rng.normal(size=(50, 3)),
        # tied magnitudes: the first of the tied entries decides the sign
        [[-1.0, 1.0, 0.5], [1.0, -1.0, 0.5], [0.5, -2.0, 2.0], [0.5, 2.0, -2.0]],
        [[-0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-3.0, -3.0, -3.0]],
        rng.integers(-2, 3, size=(40, 3)).astype(float),
    ]
    for basis in (rows, np.asfortranarray(rows), rows.T.copy().T[:, ::-1]):
        out = _canonical_rows(basis)
        assert np.array_equal(out, canonical_rows_loop(basis))
        assert np.array_equal(np.signbit(out), np.signbit(canonical_rows_loop(basis)))
        assert out.flags.c_contiguous


def test_grassmann_tie_break_deterministic():
    m = np.diag([1.0, 0.5, 0.5])
    import warnings as _w

    with _w.catch_warnings():
        _w.simplefilter("ignore", EigengapTie)
        a = grassmann_project(m, rank=2)
        b = grassmann_project(m, rank=2)
    assert np.array_equal(a.basis, b.basis)


# ---------------------------------------------------------------------------
# rigid motion equivariance


def test_pca_rigid_motion_equivariance():
    rng = np.random.default_rng(23)
    pts = rng.normal(size=(60, 3)) * np.array([1.0, 0.8, 0.1])
    w = rng.uniform(0.5, 1.5, size=60)
    plane = fit_plane_pca(pts, weights=w, dim=2)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    shift = rng.normal(size=3)
    moved = fit_plane_pca(pts @ rot.T + shift, weights=w, dim=2)
    expected = rot @ plane.projector @ rot.T
    assert np.linalg.norm(moved.projector - expected) < 1e-8
