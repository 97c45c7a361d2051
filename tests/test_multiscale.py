"""Multiscale functionals against closed forms and brute-force oracles."""

import functools
import inspect
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varifoldlab import iterated_projection as ip
from varifoldlab import multiscale as ms
from varifoldlab.curvature import build_curvature_field
from varifoldlab.errors import (
    BallBelowResolution,
    DimensionMismatch,
    InvalidScale,
    InvalidSpec,
    MissingCurvature,
    NonFiniteInput,
    PointOutsideDomain,
    ToolkitError,
    TooFewPoints,
)
from varifoldlab.geometry import Ball, Plane, WeightedSurfaceSample, fit_plane_pca
from varifoldlab.synthetic import (
    HOLE_DIAMETER_SPACINGS,
    SyntheticSpec,
    disk_lattice,
    generate,
    graph_height,
)

from oracles import (
    beta_table_loop,
    certify_loop,
    flatness_search_loop,
    grid_beta_m1,
    grid_beta_m2,
    maximal_tilt_row,
)

# frozen quadrature / closed-form values (tests/oracles.py, frozen_constants)
TILT_CLOSED_FORM = 0.0626226926148593  # 2 pi sin^2(0.1)
SQRT2_SIN_01 = 0.1411857717999883
FLATNESS_CAP_R10_S05 = 0.025001953659253864
TILT_CAP_R10_S05 = 0.007850709631928071
BETA2_CAP_R10_S05 = 0.00016362465827762882

ORIGIN = np.zeros(3)


@pytest.fixture(scope="module")
def flat():
    return generate(SyntheticSpec(kind="flat_disk", n_points=5000))[0]


@pytest.fixture(scope="module")
def cap():
    return generate(
        SyntheticSpec(kind="sphere_cap", n_points=5000, radius=1.0, sphere_radius=10.0)
    )[0]


def _rotation(angle: float, axis: int = 1) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    rot = np.eye(3)
    i, j = (0, 2) if axis == 1 else (1, 2)
    rot[i, i] = c
    rot[j, j] = c
    rot[i, j] = s
    rot[j, i] = -s
    return rot


def _certify_one(sample, ball, floor=None):
    """The report of `certify_chord_arc` on the one-ball family of `ball`,
    which is also its domain; the floor is the ball's radius by default."""
    floor = ball.radius if floor is None else floor
    family = ms.ScaleFamily(ball.center[None], (ball.radius,), floor, ball)
    return ms.certify_chord_arc(sample, ball, family)


def _certified(sample, ball, floor=None):
    """The `BallStats` of one ball, through `certify_chord_arc`."""
    report = _certify_one(sample, ball, floor)
    assert report.errors == []
    return report.balls[0]


def _flatness(sample, ball):
    """The flatness kernel of `certify_chord_arc` on one ball query."""
    idx = sample.ball_query(ball.center, ball.radius)
    return ms._flatness_of(sample, idx, ball, ms._disk_grid(sample, ball.radius))


def _tilt(sample, ball, plane):
    """The tilt-excess kernel of `certify_chord_arc` against `plane`."""
    return ms._tilt_of(sample, sample.ball_query(ball.center, ball.radius), ball.radius, plane)


def _beta(sample, center, scale):
    """beta^2 of one ball through the batched kernel of `beta_report`."""
    idx = sample.ball_query(center, scale)
    return float(ms._beta_rows(sample, idx, np.ones((1, idx.size), dtype=bool), scale)[0])


# ---------------------------------------------------------------------------
# density


def test_density_flat_center(flat):
    assert _certified(flat, Ball(ORIGIN, 0.3)).density_ratio == pytest.approx(1.0, abs=0.02)


def test_density_sphere_cap_within_one_percent():
    cap20, _ = generate(
        SyntheticSpec(kind="sphere_cap", n_points=20000, radius=1.0, sphere_radius=10.0)
    )
    rng = np.random.default_rng(11)
    interior = np.flatnonzero(np.linalg.norm(cap20.points, axis=1) <= 0.3)
    centers = np.r_[[ORIGIN], cap20.points[rng.choice(interior, 8, replace=False)]]
    domain = Ball(ORIGIN, 0.9)
    family = ms.ScaleFamily(centers, (0.6, 0.5, 0.4), 0.1, domain)
    report = ms.certify_chord_arc(cap20, domain, family)
    assert report.errors == [] and len(report.balls) == 27
    for ball in report.balls:
        assert abs(ball.density_ratio - 1.0) < 0.01


def test_density_boundary_half(flat):
    rim = flat.points[np.argmax(np.linalg.norm(flat.points[:, :2], axis=1))]
    ratio = _certified(flat, Ball(rim, 0.2), floor=0.15).density_ratio
    assert ratio == pytest.approx(0.5, abs=0.03)


def test_density_refuses_sub_resolution_balls(flat):
    domain = Ball(ORIGIN, 1.0)
    with pytest.raises(BallBelowResolution, match="below resolution floor"):
        ms.build_scale_family(flat, domain, sigma_max=2.0 * flat.mean_spacing)
    with pytest.raises(InvalidScale, match="falls below the floor"):
        ms.ScaleFamily(
            ORIGIN[None], (2.0 * flat.mean_spacing,), ms.resolution_floor(flat), domain
        )


# ---------------------------------------------------------------------------
# flatness


def test_flatness_planar_is_zero(flat):
    ball = _certified(flat, Ball(ORIGIN, 0.3))
    assert ball.flatness <= 1e-12
    assert abs(ball.plane.projector[2, 2]) < 1e-9


def test_flatness_cap_matches_sagitta_and_oracle(cap):
    val = _certified(cap, Ball(ORIGIN, 0.5)).flatness
    assert val == pytest.approx(0.025, abs=0.0075)
    assert val == pytest.approx(FLATNESS_CAP_R10_S05, rel=0.15)


def test_flatness_graph_matches_brute_force_oracle():
    from scipy.spatial import cKDTree

    eps, sigma = 0.1, 0.5
    sample, _ = generate(SyntheticSpec(kind="graph", n_points=5000, eps=eps))
    val = _certified(sample, Ball(ORIGIN, sigma)).flatness

    # dense surface patch and dense plane disks (step well below the height
    # scale), exact bilateral nearest-neighbor distance, minimized over a
    # tilt grid around the symmetry plane
    g = np.arange(-sigma, sigma + 1e-9, 0.0025)
    xx, yy = np.meshgrid(g, g)
    xy = np.stack([xx.ravel(), yy.ravel()], axis=1)
    zz = graph_height(eps, xy)
    dense = np.c_[xy, zz]
    dense = dense[np.einsum("ij,ij->i", dense, dense) <= sigma**2]
    disk = xy[np.einsum("ij,ij->i", xy, xy) <= sigma**2]
    dense_tree = cKDTree(dense)
    best = np.inf
    for tx in (-0.01, 0.0, 0.01):
        for ty in (-0.01, 0.0, 0.01):
            normal = np.array([tx, ty, 1.0])
            normal /= np.linalg.norm(normal)
            b1 = np.cross(normal, [0.0, 1.0, 0.0])
            b1 /= np.linalg.norm(b1)
            b2 = np.cross(normal, b1)
            lifted = disk @ np.stack([b1, b2])
            d1 = cKDTree(lifted).query(dense)[0].max()
            d2 = dense_tree.query(lifted)[0].max()
            best = min(best, max(d1, d2) / sigma)
    assert val == pytest.approx(best, rel=0.20)


def test_flatness_requires_points(flat):
    report = _certify_one(flat, Ball(np.array([5.0, 0.0, 0.0]), 0.3))
    assert report.balls == []
    assert report.errors == [
        "ball([5. 0. 0.], 0.3): TooFewPoints: ball holds 0 points, need at least 3"
    ]


def test_flatness_details_error_bar(flat):
    ball = _certified(flat, Ball(ORIGIN, 0.3))
    assert ball.flatness_raw >= ball.flatness
    assert ball.flatness_error == pytest.approx(0.7 * flat.mean_spacing / 0.3)


# ---------------------------------------------------------------------------
# tilt excess


def test_tilt_zero_against_own_plane(flat):
    plane = Plane(basis=np.eye(3)[:2])
    assert _tilt(flat, Ball(ORIGIN, 0.4), plane) == 0.0


def test_tilt_tilted_reference_closed_form(flat):
    c, s = np.cos(0.1), np.sin(0.1)
    ref = Plane(basis=np.array([[c, 0.0, s], [0.0, 1.0, 0.0]]))
    # a unit ball swallows the whole disk, so the mass is exactly pi
    val = _tilt(flat, Ball(ORIGIN, 1.0), ref)
    assert val == pytest.approx(TILT_CLOSED_FORM, abs=1e-12)
    # interior ball: mass fluctuation is the only error
    val = _tilt(flat, Ball(ORIGIN, 0.45), ref)
    assert val == pytest.approx(TILT_CLOSED_FORM, rel=0.03)


def test_tilt_cap_matches_quadrature(cap):
    val = _certified(cap, Ball(ORIGIN, 0.5)).tilt_excess
    assert val == pytest.approx(TILT_CAP_R10_S05, rel=0.05)


# ---------------------------------------------------------------------------
# caccioppoli-type majorant


def test_caccioppoli_flat_is_zero(flat):
    lhs, rhs = ms.caccioppoli_bound_check(
        flat, Ball(ORIGIN, 0.3), 0.5, np.zeros((len(flat), 3))
    )
    assert lhs == 0.0
    assert rhs <= 1e-20


def test_caccioppoli_sphere_ratio_bounded(cap):
    H = np.zeros((len(cap), 3))
    center = np.array([0.0, 0.0, 10.0])
    H[:] = (2.0 / 10.0) * (center - cap.points) / 10.0
    lhs, rhs = ms.caccioppoli_bound_check(cap, Ball(ORIGIN, 0.5), 0.5, H)
    assert 0 < lhs
    assert lhs / rhs <= 10.0


def test_caccioppoli_alpha_growth():
    # tilted-plane sample small enough that every enlarged ball contains it
    disk, _ = generate(SyntheticSpec(kind="flat_disk", n_points=2000, radius=0.6))
    tilted = disk.transformed(rotation=_rotation(0.1))
    ref = Plane(basis=np.eye(3)[:2])
    zero_H = np.zeros((len(tilted), 3))
    out = {
        a: ms.caccioppoli_bound_check(tilted, Ball(ORIGIN, 0.5), a, zero_H, plane=ref)
        for a in (1.0, 0.5, 0.25)
    }
    lhs_vals = [v[0] for v in out.values()]
    assert max(lhs_vals) == pytest.approx(min(lhs_vals), rel=1e-12)
    growth = lambda a: (1.0 + 1.0 / a) ** 2
    assert out[0.25][1] / out[0.5][1] == pytest.approx(
        growth(0.25) / growth(0.5), rel=1e-9
    )
    assert out[0.5][1] / out[1.0][1] == pytest.approx(
        growth(0.5) / growth(1.0), rel=1e-9
    )


# ---------------------------------------------------------------------------
# beta numbers


def test_beta_planar_zero(flat):
    assert _beta(flat, ORIGIN, 0.3) == 0.0


def test_beta_circle_arc_matches_line_grid_oracle():
    R, s = 5.0, 0.5
    theta = np.linspace(-0.3, 0.3, 400)
    pts = np.stack([R * np.sin(theta), R * np.cos(theta) - R], axis=1)
    w = np.full(len(pts), R * (theta[-1] - theta[0]) / len(pts))
    tang = np.stack([np.cos(theta), -np.sin(theta)], axis=1)[:, None, :]
    arc = WeightedSurfaceSample(pts, w, tang)
    val = _beta(arc, np.zeros(2), s)
    oracle = grid_beta_m1(pts, w, np.zeros(2), s)
    assert val == pytest.approx(oracle, rel=1e-3)


def test_beta_cap_matches_quadrature(cap):
    val = _beta(cap, ORIGIN, 0.5)
    assert val == pytest.approx(BETA2_CAP_R10_S05, rel=0.05)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_beta_pca_is_optimal_vs_plane_grid(seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(10, 300))
    pts = rng.normal(size=(count, 3)) * np.array([1.0, 0.8, 0.15])
    w = rng.uniform(0.5, 2.0, size=count)
    bases = np.broadcast_to(np.eye(3)[:2], (count, 2, 3)).copy()
    sample = WeightedSurfaceSample(pts, w, bases)
    s = 2.5
    val = _beta(sample, np.zeros(3), s)
    oracle = grid_beta_m2(pts, w, np.zeros(3), s)
    assert val <= oracle * (1.0 + 1e-9)
    assert oracle - val <= 1e-3 * max(oracle, 1e-12)


# ---------------------------------------------------------------------------
# carleson sums


def test_carleson_flat_vanishes(flat):
    rep = ms.beta_report(flat, ORIGIN, 0.5, floor=0.125)
    assert rep.carleson <= 1e-6
    assert rep.carleson_normalized <= 1e-6


def test_carleson_decreasing_in_sphere_radius():
    vals = []
    for R in (5, 10, 20):
        cap, _ = generate(
            SyntheticSpec(kind="sphere_cap", n_points=5000, radius=1.0, sphere_radius=R)
        )
        vals.append(ms.beta_report(cap, ORIGIN, 0.5, floor=0.125).carleson)
    assert vals[0] > vals[1] > vals[2]


def test_carleson_chain_majorant(cap):
    lhs = ms.beta_report(cap, ORIGIN, 0.3, floor=0.075).carleson
    rhs = ms.carleson_chain_majorant(cap, ORIGIN, 0.3)
    assert lhs <= 1.1 * rhs
    # sphere closed form for the majorant: integrand is 1/(4 R^2)
    predicted = 2.0 * (np.pi * 0.6**2) * (np.pi * 0.3**2) / (4.0 * 100.0)
    assert rhs == pytest.approx(predicted, rel=0.05)


def test_carleson_floor_halvings_stay_flat(flat):
    vals = [ms.beta_report(flat, ORIGIN, 0.99, floor=f).carleson for f in (0.24, 0.12, 0.06)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12
    assert all(v <= 1e-6 for v in vals)


def test_carleson_refuses_small_sigma(flat):
    with pytest.raises(BallBelowResolution):
        ms.beta_report(flat, ORIGIN, 0.4, floor=0.2)


# each dyadic scale loop below used to run forever on these inputs


def test_carleson_scales_refuse_a_zero_floor():
    with pytest.raises(InvalidScale, match="resolution floor 0.0"):
        ms.carleson_scales(0.3, 0.0)


def test_carleson_scales_refuse_a_nan_sigma():
    with pytest.raises(InvalidScale, match="radius nan is not finite"):
        ms.carleson_scales(np.nan, 0.1)


def test_scale_family_refuses_a_zero_floor(flat):
    with pytest.raises(InvalidScale, match="resolution floor 0.0"):
        ms.build_scale_family(flat, Ball(ORIGIN, 1.0), sigma_max=0.5, floor=0.0)


def test_greedy_net_is_first_come_along_a_chain():
    """a < b < c with |ab| and |bc| within the spacing but |ac| not: a
    blocks b, and c, blocked only by the dropped b, is kept.  The ball is
    closed: a point at exactly the spacing is blocked.  With one radius per
    row, a kept row blocks by its own radius; the later row's radius, or a
    blocked row's, plays no part."""
    chain = np.array([[0.0, 0.0, 0.0], [0.75, 0.0, 0.0], [1.5, 0.0, 0.0]])
    assert ms._greedy_net(chain, 1.0).tolist() == [0, 2]
    assert ms._greedy_net(chain[::-1], 1.0).tolist() == [0, 2]
    assert ms._greedy_net(chain[[0, 2]], 1.5).tolist() == [0]
    assert ms._greedy_net(chain, [0.5, 0.75, 1.0]).tolist() == [0, 1]
    assert ms._greedy_net(chain, [1.5, 0.1, 0.1]).tolist() == [0]
    assert ms._greedy_net(chain, [0.5, 0.5, 2.0]).tolist() == [0, 1, 2]
    assert ms._greedy_net(chain, [1.0, 5.0, 0.0]).tolist() == [0, 2]


def test_maximal_tilt_refuses_a_zero_floor(flat):
    delta = ip.make_delta0(flat)
    with pytest.raises(InvalidScale, match="resolution floor 0.0"):
        ip.extract_fine_set(flat, delta, 0.1, floor=0.0)


def test_beta_report_refuses_a_nan_sigma(flat):
    with pytest.raises(InvalidScale, match="radius nan is not finite"):
        ms.beta_report(flat, ORIGIN, np.nan, floor=0.075)


@pytest.mark.parametrize(
    "func, kwargs",
    [
        pytest.param(ms.caccioppoli_bound_check, {"alpha": -1.0}, id="alpha=-1"),
        pytest.param(ms.caccioppoli_bound_check, {"alpha": np.nan}, id="alpha=nan"),
    ],
)
def test_bad_scale_arguments_raise_invalid_scale(flat, func, kwargs):
    name = next(iter(kwargs))
    if func is ms.caccioppoli_bound_check:
        kwargs = dict(kwargs, H_field=np.zeros((len(flat), 3)))
    with pytest.raises(InvalidScale, match=name):
        func(flat, Ball(ORIGIN, 0.5), **kwargs)


def test_zero_covering_mult_scores_the_raw_distance(monkeypatch, cap):
    monkeypatch.setattr(ms, "COVERING_MULT", 0.0)
    ball = _certified(cap, Ball(ORIGIN, 0.3))
    assert ball.flatness == ball.flatness_raw and ball.flatness_error == 0.0


# ---------------------------------------------------------------------------
# maximal tilt


def test_maximal_tilt_flat_zero(flat):
    ref = Plane(basis=np.eye(3)[:2])
    assert maximal_tilt_row(flat, ORIGIN, 0.45, ref, 0.15) == 0.0


def test_maximal_tilt_constant_tilt(flat):
    tilted = flat.transformed(rotation=_rotation(0.1))
    ref = Plane(basis=np.eye(3)[:2])
    val = maximal_tilt_row(tilted, ORIGIN, 0.45, ref, 0.15)
    assert val == pytest.approx(SQRT2_SIN_01, abs=1e-12)


def test_maximal_tilt_matches_exhaustive_scan(cap):
    ref = Plane(basis=np.eye(3)[:2])
    floor, r_max = 0.15, 0.45
    x = cap.points[np.argmin(np.linalg.norm(cap.points - np.array([0.4, 0, 0]), axis=1))]
    val = maximal_tilt_row(cap, x, r_max, ref, floor)
    # independent scan: brute mask per dyadic scale
    Q = ref.projector
    best = 0.0
    s = r_max
    while s >= floor:
        mask = np.linalg.norm(cap.points - x, axis=1) <= s
        P = cap.tangent_projectors[mask]
        d = np.sqrt(np.einsum("nij,nij->n", P - Q, P - Q))
        w = cap.weights[mask]
        best = max(best, float((w * d).sum() / w.sum()))
        s /= 2.0
    assert val == pytest.approx(best, abs=1e-12)


# ---------------------------------------------------------------------------
# certification


def test_certify_flat_disk_small_gamma(flat):
    domain = Ball(ORIGIN, 1.0)
    fam = ms.build_scale_family(flat, domain, sigma_max=0.5)
    rep = ms.certify_chord_arc(flat, domain, fam)
    assert not rep.errors
    assert rep.gamma <= 0.05


def test_certify_sphere_gamma_matches_cap_tilt(cap):
    domain = Ball(ORIGIN, 1.0)
    fam = ms.build_scale_family(cap, domain, sigma_max=0.5)
    rep = ms.certify_chord_arc(cap, domain, fam)
    # dominated by sqrt(tilt) at the top scale: sqrt(pi sigma^2 / R^2) ~ 0.0886
    assert 0.075 <= rep.gamma <= 0.095


def test_certify_gamma_monotone_in_graph_slope():
    gammas = {}
    for eps in (0.02, 0.05, 0.1):
        g, _ = generate(SyntheticSpec(kind="graph", n_points=5000, eps=eps))
        domain = Ball(ORIGIN, 1.0)
        fam = ms.build_scale_family(g, domain, sigma_max=0.5)
        gammas[eps] = ms.certify_chord_arc(g, domain, fam).gamma
    assert gammas[0.02] < gammas[0.05] < gammas[0.1]


def test_certify_gamma_monotone_under_family_restriction(flat):
    domain = Ball(ORIGIN, 1.0)
    fam = ms.build_scale_family(flat, domain, sigma_max=0.5)
    rep = ms.certify_chord_arc(flat, domain, fam)
    sub = ms.ScaleFamily(
        centers=fam.centers[::3],
        radii=fam.radii[1:],
        min_radius_floor=fam.min_radius_floor,
        domain=domain,
    )
    rep_sub = ms.certify_chord_arc(flat, domain, sub)
    assert rep_sub.gamma <= rep.gamma + 1e-15


def test_scale_family_validation(flat):
    domain = Ball(ORIGIN, 1.0)
    with pytest.raises(ValueError):
        ms.ScaleFamily(np.zeros((1, 3)), (0.25, 0.5), 0.1, domain)
    with pytest.raises(ValueError):
        ms.ScaleFamily(np.zeros((1, 3)), (0.5, 0.25), 0.3, domain)
    with pytest.raises(ValueError):
        ms.ScaleFamily(np.array([[0.9, 0.0, 0.0]]), (0.5, 0.25), 0.1, domain)



# each call below used to raise a bare ValueError or numpy's broadcasting
# ValueError
BAD_FAMILY_AND_PLANE_CALLS = {
    "family_radii_increasing": (
        lambda s: ms.ScaleFamily(np.zeros((1, 3)), (0.25, 0.5), 0.1, Ball(ORIGIN, 1.0)),
        InvalidScale,
        "not strictly decreasing",
    ),
    "family_radius_below_floor": (
        lambda s: ms.ScaleFamily(np.zeros((1, 3)), (0.5, 0.25), 0.3, Ball(ORIGIN, 1.0)),
        InvalidScale,
        "smallest radius 0.25 falls below the floor 0.3",
    ),
    "family_ball_leaves_domain": (
        lambda s: ms.ScaleFamily(
            np.array([[0.0, 0.0, 0.0], [0.9, 0.0, 0.0]]), (0.5, 0.25), 0.1, Ball(ORIGIN, 1.0)
        ),
        PointOutsideDomain,
        "center row 1 reaches 1.4",
    ),
    "tilt_plane_in_r4": (
        lambda s: ms.caccioppoli_bound_check(
            s, Ball(ORIGIN, 0.4), 0.5, np.zeros((len(s), 3)), plane=Plane(basis=np.eye(4)[:2])
        ),
        DimensionMismatch,
        r"plane in R\^4, sample in R\^3",
    ),
    "tilt_without_curvature": (
        lambda s: ms.caccioppoli_bound_check(s, Ball(ORIGIN, 0.4), 0.5, None),
        MissingCurvature,
        "mean-curvature field required",
    ),
    "tilt_curvature_one_row_short": (
        lambda s: ms.caccioppoli_bound_check(s, Ball(ORIGIN, 0.4), 0.5, np.zeros((len(s) - 1, 3))),
        MissingCurvature,
        "mean-curvature field must align with sample rows",
    ),
    # the largest ball around a center off the sample reaches the domain's
    # rim from every sample point
    "family_largest_radius_fills_the_domain": (
        lambda s: ms.build_scale_family(s, Ball(np.array([0.0, 0.0, 0.01]), 0.5), sigma_max=0.5),
        BallBelowResolution,
        "no sample point admits the largest radius",
    ),
    # the next two used to return a meaningless (lhs, rhs) pair
    "tilt_plane_a_line": (
        lambda s: ms.caccioppoli_bound_check(
            s, Ball(ORIGIN, 0.3), 0.5, np.zeros((len(s), 3)), plane=Plane(basis=np.eye(3)[:1])
        ),
        DimensionMismatch,
        "1-plane, sample of intrinsic dimension 2",
    ),
    "tilt_plane_all_of_r3": (
        lambda s: ms.caccioppoli_bound_check(
            s, Ball(ORIGIN, 0.3), 0.5, np.zeros((len(s), 3)), plane=Plane(basis=np.eye(3))
        ),
        DimensionMismatch,
        "3-plane, sample of intrinsic dimension 2",
    ),
    # the next two used to be accepted: a NaN floor compares false, and the
    # negative radius failed only in the ball loop
    "family_nan_floor": (
        lambda s: ms.ScaleFamily(np.zeros((1, 3)), (0.5, 0.25), np.nan, Ball(ORIGIN, 1.0)),
        InvalidScale,
        "resolution floor nan is not positive and finite",
    ),
    "family_negative_radius": (
        lambda s: ms.ScaleFamily(np.zeros((1, 3)), (0.5, -0.25), -1.0, Ball(ORIGIN, 1.0)),
        InvalidScale,
        "family radius -0.25 is not positive and finite",
    ),
    # the next two used to return a NaN and a negative floor
    "resolution_floor_nan_multiple": (
        lambda s: ms.resolution_floor(s, np.nan),
        InvalidScale,
        "resolution floor multiple nan is not positive and finite",
    ),
    "resolution_floor_negative_multiple": (
        lambda s: ms.resolution_floor(s, -1.0),
        InvalidScale,
        "resolution floor multiple -1.0 is not positive and finite",
    ),
    # the lattice of the flatness disks: the next two used to raise numpy's
    # ValueError and to warn of a division by zero
    "disk_lattice_nan_radius": (
        lambda s: disk_lattice(np.nan, 100),
        InvalidScale,
        "lattice radius nan is not positive and finite",
    ),
    "disk_lattice_no_points": (
        lambda s: disk_lattice(1.0, 0),
        InvalidSpec,
        "target_n must be a positive integer, got 0",
    ),
    # used to raise numpy's AxisError
    "family_centers_one_dimensional": (
        lambda s: ms.ScaleFamily(np.zeros(3), (0.5, 0.25), 0.1, Ball(ORIGIN, 1.0)),
        DimensionMismatch,
        r"family centers have shape \(3,\), need \(k, 3\)",
    ),
    # used to raise numpy's broadcasting ValueError
    "family_centers_in_r2": (
        lambda s: ms.ScaleFamily(np.zeros((1, 2)), (0.5, 0.25), 0.1, Ball(ORIGIN, 1.0)),
        DimensionMismatch,
        r"family centers have shape \(1, 2\), need \(k, 3\)",
    ),
    # used to pass the reach test, a NaN comparing false
    "family_nan_center": (
        lambda s: ms.ScaleFamily(
            np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]]), (0.5,), 0.1, Ball(ORIGIN, 1.0)
        ),
        NonFiniteInput,
        "family center of row 1 is not finite",
    ),
    # used to reach scipy's ValueError in the ball queries
    "certify_family_in_r2": (
        lambda s: ms.certify_chord_arc(
            s, Ball(np.zeros(2), 1.0), ms.ScaleFamily(np.zeros((1, 2)), (0.5,), 0.1, Ball(np.zeros(2), 1.0))
        ),
        DimensionMismatch,
        r"family in R\^2, sample in R\^3",
    ),
    # used to certify every ball of the family: the domain was never read
    "certify_family_outside_domain": (
        lambda s: ms.certify_chord_arc(
            s, Ball(np.array([50.0, 0.0, 0.0]), 0.01), ms.build_scale_family(s, Ball(ORIGIN, 1.0), sigma_max=0.5)
        ),
        PointOutsideDomain,
        "ball of center row 0 reaches 50.",
    ),
    "certify_domain_in_r2": (
        lambda s: ms.certify_chord_arc(
            s, Ball(np.zeros(2), 1.0), ms.build_scale_family(s, Ball(ORIGIN, 1.0), sigma_max=0.5)
        ),
        DimensionMismatch,
        r"family centers have shape \(\d+, 3\), need \(k, 2\)",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_FAMILY_AND_PLANE_CALLS))
def test_bad_families_and_planes_raise_toolkit_errors(flat, case):
    call, error, match = BAD_FAMILY_AND_PLANE_CALLS[case]
    assert issubclass(error, ToolkitError)
    with pytest.raises(error, match=match):
        call(flat)


# ---------------------------------------------------------------------------
# pruned flatness search, shared ball query and batched beta table against
# the exhaustive loops


def _moved(sample, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    t = rng.uniform(-2.0, 2.0, size=3)
    return sample.transformed(rotation=q, translation=t), t


def _assert_same_details(det, oracle):
    value, plane, raw, error_bar = oracle
    assert det.value == value
    assert det.raw == raw
    assert det.error_bar == error_bar
    assert np.array_equal(det.plane.basis, plane.basis)
    assert np.array_equal(det.plane.basepoint, plane.basepoint)


@pytest.mark.parametrize(
    "spec",
    [
        SyntheticSpec(kind="sphere_cap", n_points=5000, sphere_radius=10.0),
        SyntheticSpec(kind="graph", n_points=5000, eps=0.1),
    ],
    ids=["sphere_cap", "graph"],
)
def test_certify_balls_match_exhaustive_search(spec):
    sample, origin = _moved(generate(spec)[0], 3)
    domain = Ball(origin, 1.0)
    fam = ms.build_scale_family(sample, domain, sigma_max=0.5)
    rep = ms.certify_chord_arc(sample, domain, fam)
    assert not rep.errors
    assert len(rep.balls) == len(fam.centers) * len(fam.radii)
    for b in rep.balls:
        ball = Ball(b.center, b.radius)
        value, plane, raw, error_bar = flatness_search_loop(sample, ball)
        assert (b.flatness, b.flatness_raw, b.flatness_error) == (value, raw, error_bar)
        assert np.array_equal(b.plane.basis, plane.basis)
        assert np.array_equal(b.plane.basepoint, plane.basepoint)
        # the shared ball query gives what one query per ball gives
        idx = sample.ball_query(ball.center, ball.radius)
        assert b.density_ratio == ms._density_of(sample, idx, ball.radius)
        assert b.tilt_excess == ms._tilt_of(sample, idx, ball.radius, b.plane)
        _assert_same_details(_flatness(sample, ball), (value, plane, raw, error_bar))


def _error_family():
    """The `_beta_sample` cap with its collinear run and isolated pair: at
    every radius their balls hold only themselves, one DegenerateCloud and
    one TooFewPoints error each."""
    sample, _ = _beta_sample()
    domain = Ball(ORIGIN, 1.0)
    return sample, domain, ms.build_scale_family(sample, domain, sigma_max=0.4, floor=0.2)


def _assert_same_report(rep, oracle):
    assert rep.floor == oracle.floor
    assert rep.errors == oracle.errors
    assert len(rep.balls) == len(oracle.balls)
    for b, o in zip(rep.balls, oracle.balls):
        assert np.array_equal(b.center, o.center) and b.radius == o.radius
        assert (b.density_ratio, b.flatness, b.flatness_raw, b.flatness_error, b.tilt_excess) == (
            o.density_ratio, o.flatness, o.flatness_raw, o.flatness_error, o.tilt_excess
        )
        assert np.array_equal(b.plane.basis, o.plane.basis)
        assert np.array_equal(b.plane.basepoint, o.plane.basepoint)


@pytest.mark.parametrize("cpus", [None, 1], ids=["all_cpus", "one_cpu"])
def test_certify_matches_serial_loop_with_ball_errors(monkeypatch, cpus):
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    workers = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(ms, "ThreadPoolExecutor", Pool)
    sample, domain, fam = _error_family()
    rep = ms.certify_chord_arc(sample, domain, fam)
    assert workers == [len(os.sched_getaffinity(0))]
    assert len(rep.errors) == 2 * len(fam.radii)
    assert {e.split(": ")[1] for e in rep.errors} == {"DegenerateCloud", "TooFewPoints"}
    _assert_same_report(rep, certify_loop(sample, fam))


def test_certify_enters_no_public_function_off_the_calling_thread(monkeypatch):
    """A tracer that wraps the public functions, `ball_query` and the
    `spatial_index` build keeps one span stack, so all of them must run on
    the thread that calls certify_chord_arc."""
    threads = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            threads.append((fn.__qualname__, threading.get_ident()))
            return fn(*args, **kwargs)

        return wrapped

    sample, domain, fam = _error_family()
    spied = {}
    for name, mod in list(sys.modules.items()):
        if name.startswith("varifoldlab."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    spied.setdefault(obj, spy(obj))
                    monkeypatch.setattr(mod, attr, spied[obj])
    cls = WeightedSurfaceSample
    monkeypatch.setattr(cls, "ball_query", spy(cls.ball_query))
    index = cls.spatial_index.fget
    build = spy(index)
    monkeypatch.setattr(
        cls, "spatial_index", property(lambda s: build(s) if s._tree is None else index(s))
    )
    before = threading.active_count()
    ms.certify_chord_arc(sample, domain, fam)
    assert threading.active_count() == before
    names = {name for name, _ in threads}
    assert {"WeightedSurfaceSample.spatial_index", "disk_lattice"} <= names
    # the balls take their rows from _ball_rows and their PCA plane from
    # _pca_plane: neither public entry point runs at all
    assert not names & {"WeightedSurfaceSample.ball_query", "fit_plane_pca"}
    assert {ident for _, ident in threads} == {threading.get_ident()}


@pytest.fixture(scope="module")
def steep_graph():
    # steep enough that tilted candidates often beat the PCA plane
    return generate(SyntheticSpec(kind="graph", n_points=2000, eps=0.3))[0]


def test_flatness_tilt_winners_match_exhaustive_search(steep_graph):
    rng = np.random.default_rng(5)
    floor = ms.resolution_floor(steep_graph)
    tilted = 0
    for _ in range(30):
        center = steep_graph.points[rng.integers(len(steep_graph))]
        ball = Ball(center, rng.uniform(floor, 0.5))
        oracle = flatness_search_loop(steep_graph, ball)
        _assert_same_details(_flatness(steep_graph, ball), oracle)
        idx = steep_graph.ball_query(center, ball.radius)
        pca = fit_plane_pca(steep_graph.points[idx], center=center)
        tilted += not np.array_equal(pca.basis, oracle[1].basis)
    assert tilted >= 5  # the search moved off the PCA plane on these balls


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    frac=st.floats(min_value=0.0, max_value=1.0),
    refine=st.integers(min_value=0, max_value=3),
)
def test_flatness_matches_exhaustive_search_under_rigid_motion(steep_graph, seed, frac, refine):
    moved, _ = _moved(steep_graph, seed)
    floor = ms.resolution_floor(moved)
    rng = np.random.default_rng(seed)
    ball = Ball(moved.points[rng.integers(len(moved))], floor + frac * (0.5 - floor))
    with mock.patch.object(ms, "FLATNESS_PASSES", refine):
        det = _flatness(moved, ball)
    _assert_same_details(det, flatness_search_loop(moved, ball, refine=refine))


def _inside_ball(rng, k, frame, spread, sigma):
    """k points in the sigma-ball, along the first two rows of `frame` and
    `spread` times as far along the others."""
    n = frame.shape[0]
    local = rng.normal(size=(k, n)) * np.r_[1.0, 1.0, np.full(n - 2, spread)]
    rel = local @ frame
    return rel * (sigma / np.linalg.norm(rel, axis=1).max())


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.sampled_from([3, 4]),
    k=st.integers(min_value=3, max_value=300),
    spread=st.floats(min_value=0.0, max_value=2.0),
    angle=st.floats(min_value=1e-6, max_value=3.0),
)
def test_tilt_bounds_never_exceed_candidate_d1(seed, n, k, spread, angle):
    rng = np.random.default_rng(seed)
    frame, _ = np.linalg.qr(rng.normal(size=(n, n)))
    basis = np.ascontiguousarray(frame[:2])
    sigma = float(rng.uniform(0.1, 10.0))
    rel = _inside_ball(rng, k, frame, spread, sigma)
    normals = ms._normal_space(basis)
    cands = ms._tilted_bases(basis, normals, angle)
    coords = np.concatenate([basis, normals]) @ rel.T
    bounds = ms._tilt_bounds(coords[:2], coords[2:], angle)
    assert cands.shape == (4 * (n - 2), 2, n) and bounds.shape == (len(cands),)
    plane = rel @ cands.transpose(0, 2, 1)
    heights = rel - plane @ cands
    overshoot = np.clip(np.linalg.norm(plane, axis=2) - sigma, 0.0, None)
    d1 = np.sqrt(np.max(np.einsum("kij,kij->ki", heights, heights) + overshoot**2, axis=1))
    assert np.all(bounds <= d1 + 1e-12 * sigma)
    if n == 3:
        # one normal: the bound is the candidate's height itself, which
        # also checks that bounds and candidates come in the same order
        np.testing.assert_allclose(bounds, d1, rtol=0.0, atol=1e-12 * sigma)


def test_pass_bound_skips_the_cap_passes_and_not_the_winning_ones(monkeypatch, steep_graph):
    calls = []
    tilted = ms._tilted_bases
    monkeypatch.setattr(ms, "_tilted_bases", lambda *args: calls.append(1) or tilted(*args))
    spec = SyntheticSpec(kind="sphere_cap", n_points=5000, sphere_radius=10.0)
    sample, origin = _moved(generate(spec)[0], 3)
    domain = Ball(origin, 1.0)
    fam = ms.build_scale_family(sample, domain, sigma_max=0.5)
    rep = ms.certify_chord_arc(sample, domain, fam)
    assert len(rep.balls) == len(fam.centers) * len(fam.radii)
    assert not calls  # every pass of every cap ball is skipped unbuilt
    rng = np.random.default_rng(5)
    floor = ms.resolution_floor(steep_graph)
    for _ in range(10):
        center = steep_graph.points[rng.integers(len(steep_graph))]
        _flatness(steep_graph, Ball(center, rng.uniform(floor, 0.5)))
    assert calls


def test_flatness_in_codimension_two_matches_exhaustive_search(steep_graph):
    rng = np.random.default_rng(7)
    frame, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    embed = frame[:3]  # orthonormal rows: an isometry of R^3 into R^4
    sample = WeightedSurfaceSample(
        steep_graph.points @ embed + rng.uniform(-1.0, 1.0, size=4),
        steep_graph.weights,
        steep_graph.tangent_bases @ embed,
    )
    floor = ms.resolution_floor(sample)
    tilted = 0
    for _ in range(10):
        center = sample.points[rng.integers(len(sample))]
        ball = Ball(center, rng.uniform(floor, 0.5))
        oracle = flatness_search_loop(sample, ball)
        _assert_same_details(_flatness(sample, ball), oracle)
        idx = sample.ball_query(center, ball.radius)
        pca = fit_plane_pca(sample.points[idx], center=center)
        tilted += not np.array_equal(pca.basis, oracle[1].basis)
    assert tilted >= 1  # passes that run, with 8 candidates each


def test_flatness_in_codimension_zero_matches_exhaustive_search():
    # a planar sample in R^2 has no normal to tilt toward: no candidates
    grid = np.stack(np.meshgrid(*[np.linspace(-1.0, 1.0, 60)] * 2), axis=-1).reshape(-1, 2)
    area = np.full(len(grid), (2.0 / 59.0) ** 2)
    sample = WeightedSurfaceSample(grid, area, np.broadcast_to(np.eye(2), (len(grid), 2, 2)))
    ball = Ball(np.zeros(2), 0.5)
    _assert_same_details(_flatness(sample, ball), flatness_search_loop(sample, ball))


def _beta_sample():
    """A sphere cap plus a collinear run of 5 points and an isolated pair,
    both 0.5 off the cap: at the two smaller scales their balls hold only
    themselves, which the beta rules send to 0 (DegenerateCloud and <= m)."""
    cap, _ = generate(SyntheticSpec(kind="sphere_cap", n_points=3000, sphere_radius=5.0))
    line = np.array([0.0, 0.0, 0.5]) + np.linspace(0.0, 0.04, 5)[:, None] * [0.6, 0.7, 0.3]
    pair = np.array([[0.3, 0.0, -0.5], [0.3, 0.01, -0.5]])
    extra = np.r_[line, pair]
    points = np.r_[cap.points, extra]
    weights = np.r_[cap.weights, np.full(len(extra), 1e-3)]
    bases = np.r_[cap.tangent_bases, np.broadcast_to(np.eye(3)[:2], (len(extra), 2, 3))]
    return WeightedSurfaceSample(points, weights, bases), len(cap)


def test_beta_report_matches_row_scale_loop():
    sample, n_cap = _beta_sample()
    rep = ms.beta_report(sample, ORIGIN, 0.8, floor=0.1)
    assert rep.scales.size == 3
    oracle = beta_table_loop(sample, rep.point_indices, rep.scales)
    np.testing.assert_allclose(rep.beta_sq, oracle, rtol=1e-12, atol=0.0)
    # the added rows hit both zero rules at the two smaller scales
    added = rep.point_indices >= n_cap
    assert added.sum() == 7
    assert np.all(rep.beta_sq[added, 1:] == 0.0)
    assert np.all(rep.beta_sq[~added] > 0.0)
    step = np.log(2.0)
    expected = float((sample.weights[rep.point_indices][:, None] * oracle).sum() * step)
    assert rep.carleson == pytest.approx(expected, rel=1e-12)
    # one ball query per entry and the same kernel (a block weighs the
    # candidates outside each ball by zero, which may move the last bit of
    # a sum)
    for row in (0, int(np.argmax(added))):
        i = rep.point_indices[row]
        for col, s in enumerate(rep.scales):
            one = _beta(sample, sample.points[i], s)
            assert one == pytest.approx(rep.beta_sq[row, col], rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# no-hole projection check


def test_no_hole_flat_and_cap_pass(flat, cap):
    ok, gaps = ms.projection_no_hole_check(flat, ORIGIN, 0.4)
    assert ok and len(gaps) == 0
    ok, gaps = ms.projection_no_hole_check(cap, ORIGIN, 0.4)
    assert ok and len(gaps) == 0


def test_no_hole_punched_fails_at_the_hole(flat):
    punched, _ = generate(
        SyntheticSpec(kind="punched_disk", n_points=5000, hole_center=(0.15, 0.0))
    )
    ok, gaps = ms.projection_no_hole_check(punched, ORIGIN, 0.4)
    assert not ok
    assert len(gaps) > 0
    hole = np.array([0.15, 0.0, 0.0])
    dist = np.linalg.norm(gaps - hole, axis=1)
    assert dist.max() <= HOLE_DIAMETER_SPACINGS * flat.mean_spacing


# ---------------------------------------------------------------------------
# invariance properties


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_rigid_motion_invariance(seed):
    rng = np.random.default_rng(seed)
    sample, _ = generate(SyntheticSpec(kind="graph", n_points=1200, eps=0.1))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    t = rng.uniform(-2, 2, size=3)
    moved = sample.transformed(rotation=q, translation=t)
    ball = Ball(ORIGIN, 0.45)
    ball_m = Ball(q @ ORIGIN + t, 0.45)
    stats, stats_m = _certified(sample, ball, 0.1), _certified(moved, ball_m, 0.1)
    assert stats_m.density_ratio == pytest.approx(stats.density_ratio, rel=1e-8)
    plane = Plane(basis=np.eye(3)[:2])
    plane_m = Plane(basis=np.eye(3)[:2] @ q.T)
    assert _tilt(moved, ball_m, plane_m) == pytest.approx(
        _tilt(sample, ball, plane), rel=1e-8
    )
    assert _beta(moved, t, 0.45) == pytest.approx(_beta(sample, ORIGIN, 0.45), rel=1e-8)
    a = ms.beta_report(sample, ORIGIN, 0.45, floor=0.1125).carleson
    b = ms.beta_report(moved, t, 0.45, floor=0.1125).carleson
    assert b == pytest.approx(a, rel=1e-8)


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=0.3, max_value=3.0))
def test_dilation_scaling_laws(lam):
    sample, _ = generate(SyntheticSpec(kind="graph", n_points=1200, eps=0.1))
    scaled = sample.transformed(scale=lam)
    beta0 = _beta(sample, ORIGIN, 0.45)
    beta1 = _beta(scaled, ORIGIN, lam * 0.45)
    assert beta1 == pytest.approx(beta0, rel=1e-8)
    plane = Plane(basis=np.eye(3)[:2])
    t0 = _tilt(sample, Ball(ORIGIN, 0.45), plane)
    t1 = _tilt(scaled, Ball(ORIGIN, lam * 0.45), plane)
    assert t1 == pytest.approx(t0, rel=1e-8)


# ---------------------------------------------------------------------------
# isometric lifts into R^4 and R^5: certification is dimension-free

# Measured agreement with the R^3 run: gamma within 3.2e-16 relative and
# max |H_est - H_true| within 2.3e-15; both are pinned at this tolerance.
CERTIFY_LIFT_TOL = 1e-12


@functools.lru_cache(maxsize=None)
def certify_lift_case(kind):
    """An 8000-point surface of the `certify` workload, its analytic H and
    its R^3 certification."""
    extra = {"sphere_radius": 10.0} if kind == "sphere_cap" else {"eps": 0.1}
    sample, truth = generate(SyntheticSpec(kind=kind, n_points=8000, **extra))
    return sample, truth.mean_curvature, _certify_run(sample)


def _certify_run(sample):
    """The `certify` job's scale family, certification and curvature field
    on B(0, 0.4)."""
    origin = np.zeros(sample.ambient_dim)
    domain = Ball(origin, 1.0)
    report = ms.certify_chord_arc(sample, domain, ms.build_scale_family(sample, domain, sigma_max=0.5))
    field = build_curvature_field(sample, 0.25, indices=sample.ball_query(origin, 0.4))
    return report, field


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("kind", ["sphere_cap", "graph"])
def test_certify_commutes_with_a_lift_into_rn(kind, n):
    """x -> E x, E (n, 3) with orthonormal columns, lifts the points, the
    tangent bases and the analytic H; the same balls certify with the same
    gamma, and the curvature field is the lifted one."""
    sample, h_true, (report3, field3) = certify_lift_case(kind)
    lift = np.linalg.qr(np.random.default_rng(n).standard_normal((n, 3)))[0]
    lifted = WeightedSurfaceSample(
        sample.points @ lift.T, sample.weights, sample.tangent_bases @ lift.T
    )
    report, field = _certify_run(lifted)
    assert report.errors == report3.errors == []
    assert len(report.balls) == len(report3.balls) > 0
    for ball, ball3 in zip(report.balls, report3.balls):
        assert ball.radius == ball3.radius
        np.testing.assert_allclose(ball.center, ball3.center @ lift.T, rtol=0, atol=CERTIFY_LIFT_TOL)
        assert ball.local_gamma == pytest.approx(ball3.local_gamma, rel=CERTIFY_LIFT_TOL)
    assert report.gamma == pytest.approx(report3.gamma, rel=CERTIFY_LIFT_TOL)
    assert np.array_equal(field.indices, field3.indices)
    np.testing.assert_allclose(
        field.vectors, field3.vectors @ lift.T, rtol=0, atol=CERTIFY_LIFT_TOL
    )
    err = np.linalg.norm(field.vectors - (h_true @ lift.T)[field.indices], axis=1).max()
    err3 = np.linalg.norm(field3.vectors - h_true[field3.indices], axis=1).max()
    assert err == pytest.approx(err3, rel=0, abs=CERTIFY_LIFT_TOL)
