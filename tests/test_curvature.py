"""First-variation curvature, Willmore energy, and the two-scale identity."""

import numpy as np
import pytest

from varifoldlab import curvature as cv
from varifoldlab.errors import (
    BallBelowResolution,
    IllConditioned,
    MissingCurvature,
    TooFewPoints,
)
from varifoldlab.geometry import Ball, WeightedSurfaceSample
from varifoldlab.meshing import mesh_to_sample
from varifoldlab.synthetic import SyntheticSpec, generate, icosphere

from oracles import oracle_monotonicity_terms_cap

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


# ---------------------------------------------------------------------------
# pointwise estimation


def test_flat_curvature_vanishes(flat):
    sample, _ = flat
    H, res = cv.estimate_mean_curvature(sample, ORIGIN, 0.25)
    assert np.linalg.norm(H) < 0.01
    # with no curvature signal the relative misfit is noise-on-noise;
    # only finiteness is meaningful
    assert np.isfinite(res)


def test_sphere_curvature_magnitude_and_direction(cap):
    sample, _ = cap
    H, _ = cv.estimate_mean_curvature(sample, ORIGIN, 0.25)
    assert np.linalg.norm(H) == pytest.approx(0.2, rel=0.05)
    # inward radial at the pole is +z
    cos = H[2] / np.linalg.norm(H)
    assert np.arccos(np.clip(cos, -1, 1)) <= 0.1


def test_cylinder_curvature_magnitude():
    sample, _ = generate(
        SyntheticSpec(kind="cylinder_band", n_points=6000, radius=2.0, band_height=3.0)
    )
    x = sample.points[np.argmin(np.abs(sample.points[:, 2]))]
    H, _ = cv.estimate_mean_curvature(sample, x, 0.4)
    assert np.linalg.norm(H) == pytest.approx(0.5, rel=0.05)
    inward = -np.array([x[0], x[1], 0.0])
    cos = H @ inward / (np.linalg.norm(H) * np.linalg.norm(inward))
    assert cos > 0.99


def test_too_few_points(flat):
    sample, _ = flat
    with pytest.raises(TooFewPoints):
        cv.estimate_mean_curvature(sample, np.array([4.0, 0.0, 0.0]), 0.2)


def test_ill_conditioned_cluster():
    h = 0.1
    rng = np.random.default_rng(0)
    pts = np.array([-0.9 * h, 0.0, 0.0]) + rng.normal(scale=1e-4, size=(12, 3))
    w = np.full(12, 1e-4)
    bases = np.broadcast_to(np.eye(3)[:2], (12, 2, 3)).copy()
    sample = WeightedSurfaceSample(pts, w, bases)
    with pytest.raises(IllConditioned):
        cv.estimate_mean_curvature(sample, ORIGIN, h)


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


def test_field_matches_per_row_estimates(cap):
    sample, _ = cap
    idx = sample.ball_query(ORIGIN, 0.4)
    assert idx.size > 3 * cv._FIELD_BLOCK  # several batched queries
    field = cv.build_curvature_field(sample, 0.25, indices=idx[::-1])
    assert np.array_equal(field.indices, idx)
    for row, i in enumerate(idx):
        H, res = cv.estimate_mean_curvature(sample, sample.points[i], 0.25)
        assert np.array_equal(field.vectors[row], H)
        assert field.residuals[row] == res


def test_field_refuses_a_sparse_row_like_the_pointwise_estimate():
    h = 0.1
    pts = np.r_[np.c_[np.linspace(-0.05, 0.05, 12), np.zeros((12, 2))], [[1.0, 0.0, 0.0]]]
    bases = np.broadcast_to(np.eye(3)[:2], (13, 2, 3)).copy()
    sample = WeightedSurfaceSample(pts, np.full(13, 1e-2), bases)
    message = "need at least 10 points inside the test support"
    with pytest.raises(TooFewPoints, match=message):
        cv.estimate_mean_curvature(sample, pts[12], h)
    with pytest.raises(TooFewPoints, match=message):
        cv.build_curvature_field(sample, h)


def test_willmore_flat_zero(flat):
    sample, _ = flat
    field = cv.analytic_field(sample, np.zeros((len(sample), 3)))
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
    field = cv.analytic_field(sample, np.zeros((len(sample), 3)))
    led = cv.monotonicity_identity(sample, ORIGIN, 0.3, 0.6, field)
    assert led.residual == 0.0
    assert led.density_sigma == pytest.approx(np.pi, rel=0.01)
    assert led.density_rho == pytest.approx(np.pi, rel=0.01)
    assert led.curvature_sixteenth == 0.0
    assert led.radial_defect == 0.0


def test_identity_sphere_within_budget(cap12k):
    sample, truth = cap12k
    analytic = cv.analytic_field(sample, truth.mean_curvature)
    led = cv.monotonicity_identity(sample, ORIGIN, 0.3, 0.6, analytic)
    assert abs(led.residual) <= 0.02 * np.pi
    idx = sample.ball_query(ORIGIN, 0.62)
    estimated = cv.build_curvature_field(sample, 0.25, indices=idx)
    led_e = cv.monotonicity_identity(sample, ORIGIN, 0.3, 0.6, estimated)
    assert abs(led_e.residual) <= 0.02 * np.pi


def test_identity_terms_match_quadrature_oracle(cap12k):
    sample, truth = cap12k
    field = cv.analytic_field(sample, truth.mean_curvature)
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
    field = cv.analytic_field(sample, np.zeros((len(sample), 3)))
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
        field = cv.analytic_field(sample, truth.mean_curvature)
        led = cv.monotonicity_identity(sample, ORIGIN, 0.3, 0.6, field)
        residuals.append(abs(led.residual))
    assert residuals[1] <= 0.5 * residuals[0]


def test_identity_parameter_validation(flat):
    sample, _ = flat
    field = cv.analytic_field(sample, np.zeros((len(sample), 3)))
    with pytest.raises(ValueError):
        cv.monotonicity_identity(sample, ORIGIN, 0.6, 0.3, field)
    with pytest.raises(BallBelowResolution):
        cv.monotonicity_identity(sample, ORIGIN, 0.01, 0.6, field)


def test_ledger_dict_has_every_term(flat):
    sample, _ = flat
    field = cv.analytic_field(sample, np.zeros((len(sample), 3)))
    led = cv.monotonicity_identity(sample, ORIGIN, 0.3, 0.6, field)
    d = led.to_dict()
    assert set(d) == {
        "x",
        "sigma",
        "rho",
        "density_sigma",
        "density_rho",
        "curvature_sixteenth",
        "radial_defect",
        "pairing_sigma",
        "pairing_rho",
        "residual",
        "residual_relative",
    }


# ---------------------------------------------------------------------------
# monotonicity inequality


def test_inequality_flat(flat):
    sample, _ = flat
    field = cv.analytic_field(sample, np.zeros((len(sample), 3)))
    for delta in (0.25, 0.5, 1.0):
        lhs, rhs = cv.monotonicity_inequality(sample, ORIGIN, 0.3, 0.6, delta, field)
        assert lhs == pytest.approx(np.pi, rel=0.01)
        assert rhs == pytest.approx((1.0 + delta) * np.pi, rel=0.01)
        assert lhs <= rhs


def test_inequality_sphere_grid_no_violations(cap12k):
    sample, truth = cap12k
    field = cv.analytic_field(sample, truth.mean_curvature)
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
    field = cv.analytic_field(sample, truth.mean_curvature)
    lhs, rhs = cv.monotonicity_inequality(sample, ORIGIN, 0.3, 0.6, 1.0, field)
    assert np.isfinite(lhs) and np.isfinite(rhs)
    for bad in (0.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            cv.monotonicity_inequality(sample, ORIGIN, 0.3, 0.6, bad, field)


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
    H0, _ = cv.estimate_mean_curvature(sample, ORIGIN, 0.25)
    H1, _ = cv.estimate_mean_curvature(moved, q @ ORIGIN + t, 0.25)
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