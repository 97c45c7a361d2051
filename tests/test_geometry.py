"""Core geometry: plane fitting, projector metrics, the sample container."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from varifoldlab.errors import (
    DegenerateCloud,
    DimensionMismatch,
    EigengapTie,
    EmptyInput,
    InvalidScale,
    NonFiniteInput,
    NonOrthonormalBasis,
    NonPositiveWeight,
    RankDeficient,
    ToolkitError,
)
from varifoldlab import multiscale as ms
from varifoldlab.curvature import monotonicity_identity, monotonicity_inequality
from varifoldlab.geometry import (
    _QUERY_BLOCK,
    Ball,
    Plane,
    WeightedSurfaceSample,
    _canonical_rows,
    _pair_lipschitz,
    _principal_frames,
    complement_frame,
    fit_plane_pca,
    grassmann_bases,
    projector_distance,
)
from varifoldlab.synthetic import SyntheticSpec, generate

from fixtures import analytic_field, check_projector
from oracles import (
    canonical_rows_loop,
    complement_frame_cross,
    fibonacci_directions,
    grid_min_projector_distance,
    principal_frame_direct,
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
    offsets = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, -0.5]])
    assert np.array_equal(plane.lift(coords, heights=offsets[0]), back + offsets[0])
    assert np.array_equal(plane.lift(coords, heights=offsets), back + offsets)
    assert np.allclose(plane.heights(pts), 0.0, atol=1e-12)


# the first three and the three-row heights used to raise numpy's matmul or
# broadcast ValueError, the NaN coordinates and heights returned NaN points
@pytest.mark.parametrize(
    "method, args, error, match",
    [
        ("coordinates", (np.zeros((4, 2)),), DimensionMismatch, r"points have shape \(4, 2\), need \(k, 3\)"),
        ("heights", (np.zeros((4, 4)),), DimensionMismatch, r"points have shape \(4, 4\), need \(k, 3\)"),
        ("lift", (np.zeros((4, 3)),), DimensionMismatch, r"plane coordinates have shape \(4, 3\), need \(k, 2\)"),
        ("coordinates", (np.full((2, 3), np.nan),), NonFiniteInput, "point of row 0 is not finite"),
        ("lift", (np.zeros((4, 2)), np.zeros((3, 3))), DimensionMismatch, r"heights have 3 rows, need 1 or one per coordinate row \(4\)"),
        ("lift", (np.zeros((4, 2)), np.full((4, 3), np.nan)), NonFiniteInput, "height of row 0 is not finite"),
    ],
    ids=["coordinates-r2", "heights-r4", "lift-r3", "coordinates-nan", "lift-heights-r3", "lift-heights-nan"],
)
def test_plane_methods_refuse_bad_rows(method, args, error, match):
    plane = Plane(basis=np.eye(3)[:2])
    with pytest.raises(error, match=match):
        getattr(plane, method)(*args)


def test_plane_basepoint_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Plane(basis=np.eye(3)[:2], basepoint=np.zeros(4))


# each basis below used to be replaced by the xy-plane without a word
@pytest.mark.parametrize(
    "basis, error, match",
    [
        ([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], RankDeficient, r"rank below 2"),
        ([[0.0, 0.0, 0.0]], RankDeficient, r"rank below 1"),
        ([[1.0, 0.0, 0.0], [np.nan, 1.0, 0.0]], NonFiniteInput, "^plane basis of row 1"),
        ([[1.0, 0.0, 0.0], [0.0, np.inf, 0.0]], NonFiniteInput, "^plane basis of row 1"),
    ],
    ids=["repeated_row", "zero_row", "nan", "inf"],
)
def test_plane_refuses_a_basis_that_spans_no_plane(basis, error, match):
    assert issubclass(error, ToolkitError)
    with pytest.raises(error, match=match):
        Plane(basis=basis)


def test_plane_orthonormalizes_a_full_rank_basis():
    raw = np.array([[2.0, 0.0, 0.0], [1.0, 1e-3, 0.0]])
    q, _ = np.linalg.qr(raw.T)
    assert np.array_equal(Plane(basis=raw).basis, q.T)


def test_ball_requires_positive_radius():
    with pytest.raises(ValueError):
        Ball(center=np.zeros(3), radius=0.0)


@pytest.mark.parametrize("radius", [0.0, -1.0, np.nan, np.inf])
def test_ball_refuses_a_radius_that_is_not_positive_and_finite(radius):
    with pytest.raises(InvalidScale, match="ball radius"):
        Ball(center=np.zeros(3), radius=radius)


@pytest.mark.parametrize(
    "center, error",
    [
        (np.zeros((2, 3)), DimensionMismatch),
        (0.0, DimensionMismatch),
        (np.array([np.nan, 0.0, 0.0]), NonFiniteInput),
        (np.array([0.0, np.inf, 0.0]), NonFiniteInput),
    ],
)
def test_ball_refuses_a_center_that_is_not_one_finite_point(center, error):
    with pytest.raises(error, match="ball center"):
        Ball(center=center, radius=1.0)


@pytest.fixture(scope="module")
def disk2000():
    sample, _ = generate(SyntheticSpec(kind="flat_disk", n_points=2000))
    return sample, analytic_field(sample, np.zeros_like(sample.points))


NAN_POINT = np.array([np.nan, 0.0, 0.0])

# every call below used to return a wrong figure or raise a bare TypeError
# or scipy's ValueError
BAD_BALL_CALLS = {
    "chain_majorant_negative_sigma": (
        lambda s, f: ms.carleson_chain_majorant(s, np.zeros(3), -1.0), InvalidScale
    ),
    "chain_majorant_nan_sigma": (
        lambda s, f: ms.carleson_chain_majorant(s, np.zeros(3), np.nan), InvalidScale
    ),
    "monotonicity_identity_nan_point": (
        lambda s, f: monotonicity_identity(s, NAN_POINT, 0.2, 0.4, f), NonFiniteInput
    ),
    "monotonicity_inequality_nan_point": (
        lambda s, f: monotonicity_inequality(s, NAN_POINT, 0.2, 0.4, 0.5, f),
        NonFiniteInput,
    ),
    "no_hole_check_nan_center": (
        lambda s, f: ms.projection_no_hole_check(s, NAN_POINT, 0.3), NonFiniteInput
    ),
    "caccioppoli_nan_center": (
        lambda s, f: ms.caccioppoli_bound_check(
            s, Ball(NAN_POINT, 0.3), 0.5, np.zeros_like(s.points)
        ),
        NonFiniteInput,
    ),
    "monotonicity_identity_infinite_rho": (
        lambda s, f: monotonicity_identity(s, np.zeros(3), 0.2, np.inf, f), InvalidScale
    ),
    "monotonicity_inequality_infinite_rho": (
        lambda s, f: monotonicity_inequality(s, np.zeros(3), 0.2, np.inf, 0.5, f),
        InvalidScale,
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_BALL_CALLS))
def test_bad_ball_centers_and_radii_raise_toolkit_errors(disk2000, case):
    call, error = BAD_BALL_CALLS[case]
    assert issubclass(error, ToolkitError)
    with pytest.raises(error):
        call(*disk2000)


def test_ball_query_refuses_bad_centers_and_radii():
    sample = _flat_sample(50)
    for center, error in [
        (np.zeros((2, 3)), DimensionMismatch),
        (np.zeros(2), DimensionMismatch),
        (NAN_POINT, NonFiniteInput),
        (np.array([0.0, np.inf, 0.0]), NonFiniteInput),
    ]:
        with pytest.raises(error, match="ball center"):
            sample.ball_query(center, 0.5)
    for radius in (0.0, -0.5, np.nan, np.inf):
        with pytest.raises(InvalidScale, match="ball radius"):
            sample.ball_query(np.zeros(3), radius)


def _pair_lipschitz_loop(x, y, floor):
    lip = 0.0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            dx = np.sqrt(np.sum((x[i] - x[j]) ** 2))
            if dx > floor:
                lip = max(lip, np.sqrt(np.sum((y[i] - y[j]) ** 2)) / dx)
    return lip


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_pair_lipschitz_matches_dense_loop(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, 40))
    x = rng.normal(size=(k, int(rng.integers(1, 4))))
    y = rng.normal(size=(k, int(rng.integers(1, 10))))
    if k > 3:
        x[1] = x[0]  # a coincident pair never wins
    floor = float(rng.choice([1e-12, 0.5]))
    assert _pair_lipschitz(x, y, floor) == pytest.approx(
        _pair_lipschitz_loop(x, y, floor), rel=1e-12, abs=0.0
    )


def test_pair_lipschitz_is_zero_without_a_pair_above_the_floor():
    assert _pair_lipschitz(np.zeros((0, 2)), np.zeros((0, 3)), 1e-12) == 0.0
    assert _pair_lipschitz(np.ones((1, 2)), np.ones((1, 3)), 1e-12) == 0.0
    x = np.array([[0.0, 0.0], [1e-13, 0.0], [0.0, 1e-13]])
    y = np.array([[0.0], [1.0], [2.0]])
    assert _pair_lipschitz(x, y, 1e-12) == 0.0
    # the floor is strict: a pair exactly at it does not count
    assert _pair_lipschitz(np.array([[0.0], [0.5]]), y[:2], 0.5) == 0.0
    assert _pair_lipschitz(np.array([[0.0], [0.5]]), y[:2], 0.25) == 2.0


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


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_candidate_blocks_hold_every_ball(seed):
    """Leaves of at most 16 rows partition the rows; each row's distance
    mask at its radius, or at any smaller one, is its ball query."""
    rng = np.random.default_rng(seed)
    sample = _flat_sample(400, seed=seed).transformed(
        rotation=np.linalg.qr(rng.normal(size=(3, 3)))[0],
        translation=rng.uniform(-2, 2, size=3),
    )
    rows = rng.choice(len(sample), size=int(rng.integers(0, 120)), replace=False)
    radius = rng.uniform(0.05, 0.4, size=rows.size)
    seen = []
    for pos, cand, d2 in sample.candidate_blocks(rows, radius):
        assert 0 < pos.size <= _QUERY_BLOCK
        assert np.all(np.diff(cand) > 0) and d2.shape == (pos.size, cand.size)
        for p, dist2 in zip(pos, d2):
            x = sample.points[rows[p]]
            for r in (radius[p], 0.5 * radius[p]):
                assert np.array_equal(cand[dist2 <= r * r], sample.ball_query(x, r))
        seen.extend(pos.tolist())
    assert sorted(seen) == list(range(rows.size))


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


def _sample_arrays(n_pts=5):
    pts = np.c_[np.arange(n_pts, dtype=float), np.zeros((n_pts, 2))]
    bases = np.broadcast_to(np.eye(3)[:2], (n_pts, 2, 3)).copy()
    return {"point": pts, "weight": np.ones(n_pts), "tangent basis": bases}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("array", ["point", "weight", "tangent basis"])
def test_sample_rejects_non_finite_input(array, bad):
    arrays = _sample_arrays()
    arrays[array].reshape(5, -1)[3, -1] = bad  # a view: the last entry of row 3
    with pytest.raises(NonFiniteInput, match=f"^{array} of row 3 is not finite$"):
        WeightedSurfaceSample(*arrays.values())


@pytest.mark.parametrize("weight", [0.0, -0.5])
def test_sample_rejects_non_positive_weight(weight):
    arrays = _sample_arrays()
    arrays["weight"][2] = weight
    with pytest.raises(NonPositiveWeight, match="weight of row 2 is") as info:
        WeightedSurfaceSample(*arrays.values())
    assert isinstance(info.value, ToolkitError) and isinstance(info.value, ValueError)


def test_sample_rejects_skewed_basis():
    arrays = _sample_arrays()
    arrays["tangent basis"][3, 1] = [0.1, 1.0, 0.0]  # not orthogonal to row 0
    arrays["tangent basis"][3, 1] /= np.linalg.norm(arrays["tangent basis"][3, 1])
    with pytest.raises(NonOrthonormalBasis, match="^tangent basis of row 3 is not"):
        WeightedSurfaceSample(*arrays.values())
    # rounding-level departures pass
    arrays["tangent basis"][3, 1] = [1e-12, 1.0, 0.0]
    WeightedSurfaceSample(*arrays.values())


@pytest.mark.parametrize(
    "kwargs, error, message",
    [
        # each used to reach numpy's ValueError
        ({"rotation": np.eye(2)}, DimensionMismatch, r"rotation has shape \(2, 2\), need \(3, 3\)"),
        ({"rotation": np.eye(3)[:2]}, DimensionMismatch, r"rotation has shape \(2, 3\)"),
        ({"translation": np.zeros(2)}, DimensionMismatch, r"translation has shape \(2,\), need \(3,\)"),
        ({"translation": np.zeros((2, 3))}, DimensionMismatch, r"translation has shape \(2, 3\)"),
        # a zero scale used to raise NonPositiveWeight "weight of row 0"
        ({"scale": 0.0}, InvalidScale, "scale 0.0 is zero or not finite"),
        ({"scale": np.nan}, InvalidScale, "scale nan is zero or not finite"),
        ({"scale": np.inf}, InvalidScale, "scale inf is zero or not finite"),
    ],
    ids=["rotation-2x2", "rotation-2x3", "translation-r2", "translation-2d", "scale-zero", "scale-nan", "scale-inf"],
)
def test_transformed_refuses_bad_motions(kwargs, error, message):
    with pytest.raises(error, match=message):
        _flat_sample(20).transformed(**kwargs)


def test_transformed_keeps_a_negative_scale():
    """A negative scale is a dilation through a point reflection: the
    weights scale by scale^m."""
    sample = _flat_sample(20)
    moved = sample.transformed(scale=-2.0)
    assert np.array_equal(moved.points, -2.0 * sample.points)
    assert np.array_equal(moved.weights, 4.0 * sample.weights)


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
    pinned = fit_plane_pca(pts, dim=2, center=np.zeros(3))
    assert np.allclose(pinned.basepoint, np.zeros(3))
    free = fit_plane_pca(pts, dim=2)
    assert np.allclose(free.basepoint, [0.0, 0.0, 1.0])


GAUSS20 = np.random.default_rng(0).normal(size=(20, 3))
NAN_ROW_2 = np.where(np.arange(20)[:, None] == 2, np.nan, GAUSS20)

# each call below used to return a 0-row plane, raise numpy's LinAlgError or
# a bare (broadcast) ValueError, or refuse a plane dimension with the wrong
# cause
BAD_RANK_CALLS = {
    "pca_dim_zero": (lambda: fit_plane_pca(GAUSS20, dim=0), DimensionMismatch, "plane dimension 0"),
    "pca_dim_above_ambient": (
        lambda: fit_plane_pca(GAUSS20, dim=4), DimensionMismatch, "plane dimension 4"
    ),
    "pca_nan_point": (lambda: fit_plane_pca(NAN_ROW_2), NonFiniteInput, "point of row 2"),
    "pca_nan_center": (
        lambda: fit_plane_pca(GAUSS20, center=NAN_ROW_2[2]), NonFiniteInput, "plane center"
    ),
    "pca_weights_one_short": (
        lambda: fit_plane_pca(GAUSS20, weights=np.ones(19)),
        DimensionMismatch,
        r"weights have shape \(19,\)",
    ),
    "pca_weights_column": (
        lambda: fit_plane_pca(GAUSS20, weights=np.ones((20, 1))),
        DimensionMismatch,
        r"weights have shape \(20, 1\)",
    ),
    # used to raise numpy's broadcast ValueError
    "pca_stacked_points": (
        lambda: fit_plane_pca(np.zeros((2, 3, 3))),
        DimensionMismatch,
        r"points have shape \(2, 3, 3\), need \(k, n\)",
    ),
    # used to raise EmptyInput ("points must be a 2-d array")
    "sample_stacked_points": (
        lambda: WeightedSurfaceSample(
            np.zeros((2, 3, 3)), np.ones(2), np.broadcast_to(np.eye(3)[:2], (2, 2, 3))
        ),
        DimensionMismatch,
        r"points have shape \(2, 3, 3\), need \(k, n\)",
    ),
    # the next two used to say only "weights shape mismatch" and "tangent
    # basis shape mismatch"
    "sample_weights_one_short": (
        lambda: WeightedSurfaceSample(
            np.zeros((2000, 3)), np.ones(1999), np.broadcast_to(np.eye(3)[:2], (2000, 2, 3))
        ),
        DimensionMismatch,
        r"weights have shape \(1999,\), need one per point \(2000,\)",
    ),
    "sample_bases_in_r2": (
        lambda: WeightedSurfaceSample(
            np.zeros((4, 3)), np.ones(4), np.broadcast_to(np.eye(2), (4, 2, 2))
        ),
        DimensionMismatch,
        r"tangent bases have shape \(4, 2, 2\), need \(N, m, n\) = \(4, m, 3\)",
    ),
    "grassmann_rank_zero": (lambda: grassmann_bases(np.eye(3), 0), DimensionMismatch, "rank 0"),
    # used to raise numpy's LinAlgError ("Eigenvalues did not converge")
    "grassmann_nan_matrix": (
        lambda: grassmann_bases(np.full((3, 3), np.nan), rank=2),
        NonFiniteInput,
        "matrix of row 0 is not finite",
    ),
    # used to return the span of e3 and e2, missing the infinite e1 direction
    "grassmann_infinite_entry": (
        lambda: grassmann_bases(np.stack([np.eye(3), np.diag([np.inf, 1.0, 0.0])]), 2),
        NonFiniteInput,
        "matrix of row 1 is not finite",
    ),
    "grassmann_rank_above_size": (
        lambda: grassmann_bases(np.eye(3), rank=4), DimensionMismatch, "rank 4"
    ),
    # the next two used to raise a slicing TypeError
    "pca_fractional_dim": (
        lambda: fit_plane_pca(GAUSS20, dim=1.5),
        DimensionMismatch,
        r"plane dimension 1.5 is not an integer in \[1, 3\]",
    ),
    "grassmann_fractional_rank": (
        lambda: grassmann_bases(np.eye(3), 1.5),
        DimensionMismatch,
        r"rank 1.5 is not an integer in \[1, 3\]",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_RANK_CALLS))
def test_bad_ranks_and_points_raise_toolkit_errors(case):
    call, error, match = BAD_RANK_CALLS[case]
    assert issubclass(error, ToolkitError)
    with pytest.raises(error, match=match):
        call()


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


def test_projector_distance_refuses_non_finite_matrices():
    # used to return NaN
    with pytest.raises(NonFiniteInput, match="^second projector of row 0 is not finite"):
        projector_distance(np.eye(3), np.full((3, 3), np.nan))
    with pytest.raises(NonFiniteInput, match="^first projector of row 2 is not finite"):
        projector_distance(np.diag([1.0, 1.0, np.inf]), Plane(basis=np.eye(3)[:2]))


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
# grassmann_bases


def _nearest_plane(matrix, rank):
    """The nearest rank-`rank` projector to one matrix, as a Plane."""
    return Plane(basis=grassmann_bases(matrix, rank))


def test_grassmann_identity_on_projectors():
    plane = _rotated_plane(0.3)
    out = _nearest_plane(plane.projector, rank=2)
    assert projector_distance(out, plane) < 1e-10


def test_grassmann_symmetrizes():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 3))
    out = _nearest_plane(m, rank=2)
    sym = 0.5 * (m + m.T)
    out_sym = _nearest_plane(sym, rank=2)
    assert projector_distance(out, out_sym) < 1e-12


def test_grassmann_optimal_vs_grid():
    rng = np.random.default_rng(17)
    for _ in range(5):
        m = rng.normal(size=(3, 3))
        out = _nearest_plane(m, rank=2)
        sym = 0.5 * (m + m.T)
        mine = float(np.linalg.norm(sym - out.projector))
        grid_best, _ = grid_min_projector_distance(m, count=20000)
        assert mine <= grid_best + 1e-3


def test_grassmann_eigengap_warning():
    # symmetric matrix with a tied spectrum at the cut
    m = np.diag([1.0, 0.5, 0.5])
    with pytest.warns(EigengapTie):
        grassmann_bases(m, rank=2)


def test_grassmann_invalid_inputs():
    with pytest.raises(DimensionMismatch):
        grassmann_bases(np.zeros((2, 3)), rank=1)
    with pytest.raises(ValueError):
        grassmann_bases(np.eye(3), rank=4)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 5))
def test_grassmann_output_is_projector(seed, n):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    rank = int(rng.integers(1, n))
    import warnings as _w

    with _w.catch_warnings():
        _w.simplefilter("ignore", EigengapTie)
        out = _nearest_plane(m, rank=rank)
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
        single = np.stack([grassmann_bases(m, rank=2) for m in stack])
    assert np.array_equal(bases, single)


@st.composite
def symmetric_stacks(draw):
    """(stack, dim): 1-6 symmetric n x n matrices, n in 2..4, dim in 1..n,
    each general, exactly tied (a permuted diagonal with repeated entries),
    rank-deficient (C C^T with fewer columns than dim) or negative-definite."""
    n = draw(st.integers(2, 4))
    dim = draw(st.integers(1, n))
    mats = []
    for _ in range(draw(st.integers(1, 6))):
        b = draw(arrays(float, (n, n), elements=st.floats(-4.0, 4.0, width=32)))
        kind = draw(st.sampled_from(["general", "tied", "low_rank", "negative"]))
        if kind == "general":
            mats.append(b + b.T)
        elif kind == "tied":
            vals = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=n, max_size=n))
            perm = np.eye(n)[draw(st.permutations(range(n)))]
            mats.append(perm @ np.diag(vals) @ perm.T)
        elif kind == "low_rank":
            c = b[:, : draw(st.integers(0, dim - 1))]
            mats.append(c @ c.T)
        else:
            mats.append(-(b @ b.T) - np.eye(n))
    return np.stack(mats), dim


@settings(max_examples=200, deadline=None)
@given(symmetric_stacks())
def test_principal_frames_match_single_matrix_tail_property(case):
    stack, dim = case
    evals, frames, spans = _principal_frames(stack, dim)
    for k, mat in enumerate(stack):
        want_evals, want_rows, want_spans = principal_frame_direct(mat, dim)
        assert np.array_equal(evals[k], want_evals)
        assert np.array_equal(frames[k], want_rows)
        assert np.array_equal(np.signbit(frames[k]), np.signbit(want_rows))
        assert spans[k] == want_spans


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
        a = _nearest_plane(m, rank=2)
        b = _nearest_plane(m, rank=2)
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


# ---------------------------------------------------------------------------
# complement frames


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_complement_frame_matches_cross_products(seed):
    rng = np.random.default_rng(seed)
    normals = rng.normal(size=(int(rng.integers(1, 40)), 3))
    # rows near +-e1 take the second reference axis
    normals[rng.random(len(normals)) < 0.3] = [1.0, 0.05, -0.02]
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    frames = complement_frame(normals)
    assert np.array_equal(frames, complement_frame_cross(normals))
    check = np.concatenate([frames, normals[:, None]], axis=1)
    assert np.allclose(check @ check.transpose(0, 2, 1), np.eye(3), atol=1e-12)


_UNIT_NORMALS = np.tile([[0.0, 0.0, 1.0]], (4, 1))


@pytest.mark.parametrize(
    "normals, error, message",
    [
        (np.zeros((4, 4)), DimensionMismatch, r"shape \(4, 4\), need \(k, 3\)"),
        (np.array([0.0, 0.0, 1.0]), DimensionMismatch, r"shape \(3,\), need \(k, 3\)"),
        (np.where(np.arange(4)[:, None] == 2, 0.0, _UNIT_NORMALS), DegenerateCloud, "row 2 is zero"),
        (np.where(np.arange(4)[:, None] == 1, 1e-170, _UNIT_NORMALS), DegenerateCloud, "row 1 is zero"),
        (np.where(np.arange(4)[:, None] == 3, np.nan, _UNIT_NORMALS), NonFiniteInput, "normal of row 3"),
        (np.where(np.arange(4)[:, None] == 0, np.inf, _UNIT_NORMALS), NonFiniteInput, "normal of row 0"),
    ],
    ids=["four-columns", "one-dimensional", "zero", "underflow", "nan", "inf"],
)
def test_complement_frame_refuses_bad_normals(normals, error, message):
    with pytest.raises(error, match=message):
        complement_frame(normals)
