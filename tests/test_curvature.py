"""First-variation curvature, Willmore energy, and the two-scale identity."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varifoldlab import curvature as cv
from varifoldlab.errors import (
    BallBelowResolution,
    DimensionMismatch,
    IllConditioned,
    InvalidIndex,
    InvalidScale,
    MissingCurvature,
    TooFewPoints,
)
from varifoldlab.geometry import _QUERY_BLOCK, Ball, WeightedSurfaceSample
from varifoldlab.synthetic import SyntheticSpec, generate

from fixtures import analytic_field, icosphere, mesh_to_sample
from oracles import curvature_loop, oracle_monotonicity_terms_cap

ORIGIN = np.zeros(3)


@pytest.fixture(scope="module")
def cap():
    return generate(
        SyntheticSpec(kind="sphere_cap", n_points=5000, radius=1.0, sphere_radius=10.0)
    )


@pytest.fixture(scope="module")
def cap12k():
    return generate(
        SyntheticSpec(kind="sphere_cap", n_points=12000, radius=1.0, sphere_radius=10.0)
    )


@pytest.fixture(scope="module")
def flat():
    return generate(SyntheticSpec(kind="flat_disk", n_points=5000))


def _field_near(sample, x, h):
    """H and residual of `build_curvature_field` at the row nearest x."""
    row = int(np.argmin(np.linalg.norm(sample.points - x, axis=1)))
    field = cv.build_curvature_field(sample, h, indices=[row])
    return field.vectors[0], field.residuals[0]


def _one_row(sample, x, h):
    """H and residual at x from one ball query and the kernels of
    `build_curvature_field`: the per-row reference of the batched field."""
    cand = sample.ball_query(x, h)
    d2 = np.square(sample.points[cand] - x).sum(axis=1)[None]
    masses, divs = cv._profile_rows(sample, cand, x[None], d2, h)
    H, residual = cv._solve_rows(np.array([cand.size]), masses, divs)
    return H[0], float(residual[0])


# ---------------------------------------------------------------------------
# pointwise estimation


def test_flat_curvature_vanishes(flat):
    sample, _ = flat
    H, res = _field_near(sample, ORIGIN, 0.25)
    assert np.linalg.norm(H) < 0.01
    # with no curvature signal the relative misfit is noise-on-noise;
    # only finiteness is meaningful
    assert np.isfinite(res)


def test_sphere_curvature_magnitude_and_direction(cap):
    sample, _ = cap
    H, _ = _field_near(sample, ORIGIN, 0.25)
    assert np.linalg.norm(H) == pytest.approx(0.2, rel=0.05)
    # inward radial at the pole is +z
    cos = H[2] / np.linalg.norm(H)
    assert np.arccos(np.clip(cos, -1, 1)) <= 0.1


def test_cylinder_curvature_magnitude():
    sample, _ = generate(
        SyntheticSpec(kind="cylinder_band", n_points=6000, radius=2.0, band_height=3.0)
    )
    x = sample.points[np.argmin(np.abs(sample.points[:, 2]))]
    H, _ = _field_near(sample, x, 0.4)
    assert np.linalg.norm(H) == pytest.approx(0.5, rel=0.05)
    inward = -np.array([x[0], x[1], 0.0])
    cos = H @ inward / (np.linalg.norm(H) * np.linalg.norm(inward))
    assert cos > 0.99


def test_too_few_points(flat):
    sample, _ = flat
    # a test support below the spacing holds the row alone
    with pytest.raises(TooFewPoints):
        _field_near(sample, ORIGIN, 0.5 * sample.mean_spacing)


def test_ill_conditioned_cluster():
    """A row at the origin, nearly weightless, and a cluster 0.9 h away:
    the inner windows hold only the row, so their masses all but vanish."""
    h = 0.1
    rng = np.random.default_rng(0)
    pts = np.array([-0.9 * h, 0.0, 0.0]) + rng.normal(scale=1e-4, size=(12, 3))
    pts = np.r_[pts, [ORIGIN]]
    w = np.r_[np.full(12, 1e-4), 1e-12]
    bases = np.broadcast_to(np.eye(3)[:2], (13, 2, 3)).copy()
    sample = WeightedSurfaceSample(pts, w, bases)
    with pytest.raises(IllConditioned):
        _field_near(sample, ORIGIN, h)


# ---------------------------------------------------------------------------
# fields and Willmore energy


def test_field_orthogonality_flags(cap):
    sample, _ = cap
    idx = sample.ball_query(ORIGIN, 0.4)
    field = cv.build_curvature_field(sample, 0.25, indices=idx)
    assert field.orthogonal.all()
    assert field.covers(idx)
    assert not field.covers(np.arange(len(sample)))


def test_field_at_uncovered_rows_raises(cap):
    sample, _ = cap
    idx = sample.ball_query(ORIGIN, 0.3)
    field = cv.build_curvature_field(sample, 0.25, indices=idx)
    with pytest.raises(MissingCurvature):
        field.at(np.array([int(np.setdiff1d(np.arange(len(sample)), idx)[0])]))


def _assert_matches_loop(field, sample, h, indices):
    """Field against one ball query and one solve per row: vectors to
    1e-9 max|H|, residuals to 1e-6 of the largest, flags identical."""
    rows, vectors, residuals, orthogonal = curvature_loop(sample, h, indices)
    assert np.array_equal(field.indices, rows)
    h_max = np.linalg.norm(vectors, axis=1).max(initial=0.0)
    np.testing.assert_allclose(field.vectors, vectors, rtol=0.0, atol=1e-9 * h_max)
    np.testing.assert_allclose(
        field.residuals, residuals, rtol=0.0, atol=1e-6 * residuals.max(initial=0.0)
    )
    assert np.array_equal(field.orthogonal, orthogonal)


def test_field_matches_per_row_estimates(cap):
    sample, _ = cap
    # a far rigid translation must cost no digits
    moved = sample.transformed(translation=np.array([1.5, -2.0, 1.0]))
    for s, origin in ((sample, ORIGIN), (moved, np.array([1.5, -2.0, 1.0]))):
        idx = s.ball_query(origin, 0.4)
        assert idx.size > 3 * _QUERY_BLOCK  # several leaves
        field = cv.build_curvature_field(s, 0.25, indices=idx[::-1])
        _assert_matches_loop(field, s, 0.25, idx)
        # one ball query per row through the same kernels
        _, vectors, residuals, _ = curvature_loop(s, 0.25, idx)
        h_max = np.linalg.norm(vectors, axis=1).max()
        for row in (0, idx.size // 2, idx.size - 1):
            H, res = _one_row(s, s.points[idx[row]], 0.25)
            np.testing.assert_allclose(H, vectors[row], rtol=0.0, atol=1e-9 * h_max)
            assert res == pytest.approx(residuals[row], rel=0.0, abs=1e-6 * residuals.max())


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=12, max_value=400),
    h=st.floats(min_value=0.1, max_value=0.8),
)
def test_field_matches_loop_on_random_samples(seed, n, h):
    """Small random graph samples, moved far off the origin, and random row
    subsets: the field agrees with the row loop, or raises the same error
    with the same message."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-0.5, 0.5, size=(n, 2))
    a, b = rng.uniform(-1.0, 1.0, size=2)
    z = a * xy[:, 0] ** 2 + b * xy[:, 1] ** 2
    pts = np.c_[xy, z] + rng.uniform(-2.0, 2.0, size=3)
    slopes = np.c_[2.0 * a * xy[:, 0], 2.0 * b * xy[:, 1]]
    tangents = np.zeros((n, 2, 3))
    tangents[:, 0, 0] = tangents[:, 1, 1] = 1.0
    tangents[:, :, 2] = slopes
    q, _ = np.linalg.qr(tangents.transpose(0, 2, 1))
    sample = WeightedSurfaceSample(pts, rng.uniform(0.5, 1.5, size=n) / n, q.transpose(0, 2, 1))
    rows = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
    try:
        curvature_loop(sample, h, rows)
    except (TooFewPoints, IllConditioned) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            cv.build_curvature_field(sample, h, indices=rows)
        return
    _assert_matches_loop(cv.build_curvature_field(sample, h, indices=rows), sample, h, rows)


def test_field_raises_for_the_first_failing_row():
    """Errors follow the row order of the loop: whichever of an
    ill-conditioned row and a sparse row comes first is reported."""
    h = 0.1
    cluster = np.array([-0.9 * h, 0.0, 0.0]) + np.linspace(0.0, 1e-3, 12)[:, None] * [0, 1, 0]
    lonely, far = np.zeros(3), np.array([5.0, 0.0, 0.0])
    bases = np.broadcast_to(np.eye(3)[:2], (14, 2, 3)).copy()
    weights = np.r_[1e-6, np.ones(12), 1.0]
    ill = WeightedSurfaceSample(np.r_[[lonely], cluster, [far]], weights, bases)
    with pytest.raises(IllConditioned, match="normal equations condition"):
        curvature_loop(ill, h, np.arange(14))
    with pytest.raises(IllConditioned, match="normal equations condition"):
        cv.build_curvature_field(ill, h)
    sparse = WeightedSurfaceSample(np.r_[[far], cluster, [lonely]], weights[::-1], bases)
    with pytest.raises(TooFewPoints):
        curvature_loop(sparse, h, np.arange(14))
    with pytest.raises(TooFewPoints):
        cv.build_curvature_field(sparse, h)


def test_field_of_no_rows_is_empty(cap):
    sample, _ = cap
    for empty in ([], np.zeros(0, dtype=int)):
        field = cv.build_curvature_field(sample, 0.25, indices=empty)
        assert field.indices.shape == (0,) and field.indices.dtype.kind == "i"
        assert field.vectors.shape == (0, 3)
        assert field.residuals.shape == field.orthogonal.shape == (0,)


def test_field_refuses_rows_outside_the_sample(flat):
    sample, _ = flat
    cases = [
        ([len(sample)], InvalidIndex, f"index {len(sample)} is outside"),
        ([3, -1], InvalidIndex, "index -1 is outside"),
        ([0.5], InvalidIndex, "indices must be integers"),
        ([[0, 1]], DimensionMismatch, "indices must be 1-d"),
    ]
    for indices, error, message in cases:
        with pytest.raises(error, match=message):
            cv.build_curvature_field(sample, 0.25, indices=indices)


def test_curvature_refuses_a_radius_that_is_not_positive(flat):
    sample, _ = flat
    rows = sample.ball_query(ORIGIN, 0.1)
    for h in (-0.2, 0.0, np.inf, np.nan):
        with pytest.raises(InvalidScale, match="test-field radius"):
            cv.build_curvature_field(sample, h, indices=rows)


def test_field_refuses_a_sparse_row_like_the_pointwise_estimate():
    h = 0.1
    pts = np.r_[np.c_[np.linspace(-0.05, 0.05, 12), np.zeros((12, 2))], [[1.0, 0.0, 0.0]]]
    bases = np.broadcast_to(np.eye(3)[:2], (13, 2, 3)).copy()
    sample = WeightedSurfaceSample(pts, np.full(13, 1e-2), bases)
    message = "need at least 10 points inside the test support"
    with pytest.raises(TooFewPoints, match=message):
        _one_row(sample, pts[12], h)
    with pytest.raises(TooFewPoints, match=message):
        cv.build_curvature_field(sample, h)


def test_willmore_flat_zero(flat):
    sample, _ = flat
    field = analytic_field(sample, np.zeros((len(sample), 3)))
    assert cv.willmore_energy(sample, Ball(ORIGIN, 0.5), field) == 0.0


def test_willmore_cap_matches_cap_area_identity():
    # sample exceeds the integration region so every test-field support
    # stays away from the rim
    sample, _ = generate(
        SyntheticSpec(kind="sphere_cap", n_points=11000, radius=1.5, sphere_radius=10.0)
    )
    idx = sample.ball_query(ORIGIN, 1.0)
    field = cv.build_curvature_field(sample, 0.25, indices=idx)
    value = cv.willmore_energy(sample, Ball(ORIGIN, 1.0), field)
    assert value == pytest.approx(0.04 * np.pi, rel=0.05)


def test_willmore_closed_sphere():
    verts, faces = icosphere(4, 10.0)
    mesh = mesh_to_sample(verts, faces)
    field = cv.build_curvature_field(mesh, 3.0 * mesh.mean_spacing)
    value = cv.willmore_energy(mesh, None, field)
    assert value == pytest.approx(16.0 * np.pi, rel=0.05)


def test_willmore_region_not_covered_raises(cap):
    sample, _ = cap
    idx = sample.ball_query(ORIGIN, 0.25)
    field = cv.build_curvature_field(sample, 0.25, indices=idx)
    with pytest.raises(MissingCurvature):
        cv.willmore_energy(sample, Ball(ORIGIN, 0.6), field)


@pytest.mark.parametrize("n", [4, 5])
def test_mesh_mean_curvature_commutes_with_a_lift_into_rn(n):
    """An isometric lift x -> x Q + t of the icosphere into R^n moves the
    cotangent-formula vectors by Q and changes nothing else."""
    verts, faces = icosphere(3)
    rng = np.random.default_rng(n)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0][:3]
    t = rng.uniform(-1.0, 1.0, n)
    want = cv.mesh_mean_curvature(verts, faces) @ q
    got = cv.mesh_mean_curvature(verts @ q + t, faces)
    err = np.linalg.norm(got - want, axis=1)
    assert (err <= 1e-12 * np.linalg.norm(want, axis=1)).all()


def test_cotangent_path_agrees_with_first_variation():
    verts, faces = icosphere(4, 10.0)
    mesh = mesh_to_sample(verts, faces)
    cot = cv.mesh_mean_curvature(verts, faces)
    norms = np.linalg.norm(cot, axis=1)
    assert norms.mean() == pytest.approx(0.2, rel=0.01)
    # worst vertices sit at the twelve valence-5 corners of the base mesh
    assert np.abs(norms - 0.2).max() < 0.2 * 0.2
    # inward
    cos = np.einsum("ij,ij->i", cot, -verts / 10.0) / norms
    assert cos.min() > 0.999
    field = cv.build_curvature_field(mesh, 3.0 * mesh.mean_spacing)
    diff = np.linalg.norm(field.vectors - cot, axis=1)
    assert np.median(diff / norms) < 0.10
    assert np.abs(
        np.linalg.norm(field.vectors, axis=1).mean() - norms.mean()
    ) < 0.10 * norms.mean()


# ---------------------------------------------------------------------------
# monotonicity identity


def test_identity_flat_exact(flat):
    sample, _ = flat
    field = analytic_field(sample, np.zeros((len(sample), 3)))
    led = cv.monotonicity_identity(sample, ORIGIN, 0.3, 0.6, field)
    assert led.residual == 0.0
    assert led.density_sigma == pytest.approx(np.pi, rel=0.01)
    assert led.density_rho == pytest.approx(np.pi, rel=0.01)
    assert led.curvature_sixteenth == 0.0
    assert led.radial_defect == 0.0


def test_identity_sphere_within_budget(cap12k):
    sample, truth = cap12k
    analytic = analytic_field(sample, truth.mean_curvature)
    led = cv.monotonicity_identity(sample, ORIGIN, 0.3, 0.6, analytic)
    assert abs(led.residual) <= 0.02 * np.pi
    idx = sample.ball_query(ORIGIN, 0.62)
    estimated = cv.build_curvature_field(sample, 0.25, indices=idx)
    led_e = cv.monotonicity_identity(sample, ORIGIN, 0.3, 0.6, estimated)
    assert abs(led_e.residual) <= 0.02 * np.pi


def test_identity_terms_match_quadrature_oracle(cap12k):
    sample, truth = cap12k
    field = analytic_field(sample, truth.mean_curvature)
    led = cv.monotonicity_identity(sample, ORIGIN, 0.3, 0.6, field)
    oracle = oracle_monotonicity_terms_cap(10.0, 0.3, 0.6)
    assert led.density_sigma == pytest.approx(oracle["density_sigma"], rel=0.03)
    assert led.density_rho == pytest.approx(oracle["density_rho"], rel=0.03)
    assert led.curvature_sixteenth == pytest.approx(oracle["willmore_term"], rel=0.05)
    assert led.radial_defect <= 1e-8  # vanishes identically on spheres
    assert led.pairing_sigma == pytest.approx(oracle["pairing_sigma"], rel=0.10)
    assert led.pairing_rho == pytest.approx(oracle["pairing_rho"], rel=0.05)


def test_identity_holds_off_surface():
    sample, _ = generate(SyntheticSpec(kind="flat_disk", n_points=8000))
    field = analytic_field(sample, np.zeros((len(sample), 3)))
    led = cv.monotonicity_identity(
        sample, np.array([0.0, 0.0, 0.1]), 0.45, 0.9, field
    )
    assert led.residual_relative <= 0.01


def test_identity_residual_halves_under_refinement():
    residuals = []
    for n in (2000, 8000):
        sample, truth = generate(
            SyntheticSpec(kind="sphere_cap", n_points=n, radius=1.0, sphere_radius=10.0)
        )
        field = analytic_field(sample, truth.mean_curvature)
        led = cv.monotonicity_identity(sample, ORIGIN, 0.3, 0.6, field)
        residuals.append(abs(led.residual))
    assert residuals[1] <= 0.5 * residuals[0]


def test_identity_parameter_validation(flat):
    sample, _ = flat
    field = analytic_field(sample, np.zeros((len(sample), 3)))
    with pytest.raises(ValueError):
        cv.monotonicity_identity(sample, ORIGIN, 0.6, 0.3, field)
    with pytest.raises(BallBelowResolution):
        cv.monotonicity_identity(sample, ORIGIN, 0.01, 0.6, field)


# ---------------------------------------------------------------------------
# monotonicity inequality


def test_inequality_flat(flat):
    sample, _ = flat
    field = analytic_field(sample, np.zeros((len(sample), 3)))
    for delta in (0.25, 0.5, 1.0):
        lhs, rhs = cv.monotonicity_inequality(sample, ORIGIN, 0.3, 0.6, delta, field)
        assert lhs == pytest.approx(np.pi, rel=0.01)
        assert rhs == pytest.approx((1.0 + delta) * np.pi, rel=0.01)
        assert lhs <= rhs


def test_inequality_sphere_grid_no_violations(cap12k):
    sample, truth = cap12k
    field = analytic_field(sample, truth.mean_curvature)
    for delta in (0.25, 0.5, 1.0):
        for sigma in (0.2, 0.3, 0.4):
            for rho in (0.5, 0.6, 0.7):
                lhs, rhs = cv.monotonicity_inequality(
                    sample, ORIGIN, sigma, rho, delta, field
                )
                assert lhs <= rhs
    lhs, rhs = cv.monotonicity_inequality(sample, ORIGIN, 0.3, 0.6, 0.5, field)
    assert rhs - lhs >= 0.4 * np.pi


def test_inequality_delta_edge_cases(cap):
    sample, truth = cap
    field = analytic_field(sample, truth.mean_curvature)
    lhs, rhs = cv.monotonicity_inequality(sample, ORIGIN, 0.3, 0.6, 1.0, field)
    assert np.isfinite(lhs) and np.isfinite(rhs)
    for bad in (0.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            cv.monotonicity_inequality(sample, ORIGIN, 0.3, 0.6, bad, field)


# each call below used to raise a bare ValueError, unless it says otherwise
BAD_SCALE_PAIRS = {
    "identity_sigma_above_rho": (
        lambda s, f: cv.monotonicity_identity(s, ORIGIN, 0.6, 0.3, f),
        "need 0 < sigma < rho, got sigma 0.6 and rho 0.3",
    ),
    "identity_nan_sigma": (
        lambda s, f: cv.monotonicity_identity(s, ORIGIN, np.nan, 0.6, f),
        "got sigma nan",
    ),
    "inequality_sigma_above_rho": (
        lambda s, f: cv.monotonicity_inequality(s, ORIGIN, 0.6, 0.3, 0.5, f),
        "need 0 < sigma < rho",
    ),
    # the next two used to skip the floor test, as sigma < nan is false
    "identity_nan_floor": (
        lambda s, f: cv.monotonicity_identity(s, ORIGIN, 0.3, 0.6, f, floor=np.nan),
        "resolution floor nan is not positive and finite",
    ),
    "inequality_nan_floor": (
        lambda s, f: cv.monotonicity_inequality(s, ORIGIN, 0.3, 0.6, 0.5, f, floor=np.nan),
        "resolution floor nan is not positive and finite",
    ),
    "inequality_delta_above_one": (
        lambda s, f: cv.monotonicity_inequality(s, ORIGIN, 0.3, 0.6, 1.5, f),
        r"delta 1.5 is outside \(0, 1\]",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_SCALE_PAIRS))
def test_bad_scale_pairs_raise_invalid_scale(flat, case):
    sample, _ = flat
    call, match = BAD_SCALE_PAIRS[case]
    with pytest.raises(InvalidScale, match=match):
        call(sample, analytic_field(sample, np.zeros((len(sample), 3))))


# ---------------------------------------------------------------------------
# invariance


def test_estimation_commutes_with_rigid_motion(cap):
    sample, _ = cap
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    t = np.array([0.4, -1.2, 2.0])
    moved = sample.transformed(rotation=q, translation=t)
    H0, _ = _field_near(sample, ORIGIN, 0.25)
    H1, _ = _field_near(moved, q @ ORIGIN + t, 0.25)
    assert np.linalg.norm(H1 - q @ H0) < 1e-6


def test_willmore_dilation_invariance(cap):
    sample, _ = cap
    idx = sample.ball_query(ORIGIN, 0.4)
    field = cv.build_curvature_field(sample, 0.25, indices=idx)
    base = cv.willmore_energy(sample, Ball(ORIGIN, 0.4), field)
    for lam in (0.5, 2.0):
        scaled = sample.transformed(scale=lam)
        idx_s = scaled.ball_query(ORIGIN, lam * 0.4)
        field_s = cv.build_curvature_field(scaled, lam * 0.25, indices=idx_s)
        value = cv.willmore_energy(scaled, Ball(ORIGIN, lam * 0.4), field_s)
        assert value == pytest.approx(base, rel=1e-8)
        # |H| itself scales inversely
        H_scaled = field_s.vectors[0]
        H_base = field.vectors[0]
        assert np.linalg.norm(H_scaled) == pytest.approx(
            np.linalg.norm(H_base) / lam, rel=1e-8
        )