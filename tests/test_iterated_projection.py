"""Stagewise smoothing pipeline: gauges, nets, graph stages, projections."""

import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist

from varifoldlab import iterated_projection as ip
from varifoldlab.errors import (
    DegenerateCloud,
    DimensionMismatch,
    EigengapTie,
    EmptyFineSet,
    EmptyInput,
    GraphTestFailure,
    InvalidScale,
    NonContraction,
    NonFiniteInput,
    NoValidPreimage,
    PointOutsideDomain,
    ToolkitError,
    TooFewPoints,
    UncoveredQuery,
)
from varifoldlab.geometry import _QUERY_BLOCK, Ball, WeightedSurfaceSample
from varifoldlab.multiscale import build_scale_family, local_maximal_tilt, resolution_floor
from varifoldlab.synthetic import SyntheticSpec, generate

from oracles import (
    all_pairs_distortion,
    blended_normals_loop,
    fine_membership_scan,
    graph_lipschitz_loop,
    maximal_tilt_loop,
    project_tau_scan,
    projector_lipschitz_loop,
    reference_plane_loop,
    sampled_partner_distortion,
)

# shelf-with-wall graph protocol used for the full pipeline runs
PLATEAU_EPS = 0.05
PLATEAU_NU = 0.45 * PLATEAU_EPS
PLATEAU_KW = dict(plateau_radius=0.15, wall_scale=0.055)
# generic multiplier for "measured constant stays below" checks
ACCEPTANCE_MULT = 50.0

EZ_PROJECTOR = np.diag([0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# construction helpers


def _grid_sample(k: int, h: float = 1.0, z=None) -> WeightedSurfaceSample:
    ax = np.arange(-k, k + 1) * h
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    zz = np.zeros(gx.size) if z is None else np.asarray(z, dtype=float).ravel()
    pts = np.stack([gx.ravel(), gy.ravel(), zz], axis=1)
    bases = np.tile(np.eye(3)[:2][None], (len(pts), 1, 1))
    return WeightedSurfaceSample(pts, np.ones(len(pts)), bases)


def _const_gauge(sample: WeightedSurfaceSample, level: float) -> ip.DeltaField:
    """A gauge field that sits at ~`level` across the whole sample."""
    big = 100.0 * level
    return ip.DeltaField(
        points=sample.points,
        values=(big - np.linalg.norm(sample.points, axis=1)) / 100.0,
        provenance="initial_gauge",
        domain=Ball(np.zeros(sample.ambient_dim), big),
    )


def _graph_frames(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    t1 = np.stack([np.ones_like(gx), np.zeros_like(gx), gx], axis=1)
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = np.stack([np.zeros_like(gy), np.ones_like(gy), gy], axis=1)
    t2 -= (t2 * t1).sum(axis=1, keepdims=True) * t1
    t2 /= np.linalg.norm(t2, axis=1, keepdims=True)
    return np.stack([t1, t2], axis=1)


def _bump_sample(k: int, h: float, amp: float, sig: float):
    """Lattice graph with one central bump of peak slope amp/(sig*sqrt(e))."""
    ax = np.arange(-k, k + 1) * h
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    xy = np.stack([gx.ravel(), gy.ravel()], axis=1)
    r2 = (xy**2).sum(axis=1)
    z = amp * np.exp(-r2 / (2.0 * sig**2))
    slope = -z / sig**2
    gx, gy = slope * xy[:, 0], slope * xy[:, 1]
    frames = _graph_frames(gx, gy)
    pts = np.concatenate([xy, z[:, None]], axis=1)
    weights = h**2 * np.sqrt(1.0 + gx**2 + gy**2)
    return WeightedSurfaceSample(pts, weights, frames)


def _rotation(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _simple_sample(points) -> WeightedSurfaceSample:
    pts = np.asarray(points, dtype=float)
    bases = np.tile(np.eye(3)[:2][None], (len(pts), 1, 1))
    return WeightedSurfaceSample(pts, np.ones(len(pts)), bases)


def _fine_rows_only(indices, sample) -> ip.FineSet:
    idx = np.asarray(sorted(indices), dtype=int)
    return ip.FineSet(
        indices=idx,
        nu=0.1,
        plane_bases=sample.tangent_bases[idx],
        tilts=np.zeros(idx.size),
    )


# ---------------------------------------------------------------------------
# expensive shared runs


@pytest.fixture(scope="module")
def flat_stage():
    """Complete flat lattice, gauge ~30 spacings: the rebuild is a no-op."""
    sample = _grid_sample(10)
    delta = _const_gauge(sample, 30.0)
    fine = ip.extract_fine_set(sample, delta, nu=0.1)
    net = ip.build_separated_net(sample, delta)
    stage = ip.build_sigma_delta(sample, fine, net, delta, nu=0.1)
    ip.normal_field(stage, sample)
    return sample, delta, stage


@pytest.fixture(scope="module")
def hole_case():
    """Flat lattice with a punched disk, gauge ~1030 spacings: refill regime."""
    sample_full = _grid_sample(10)
    hole = np.linalg.norm(sample_full.points, axis=1) <= 1.5
    punched = sample_full.points[hole]
    sample = _simple_sample(sample_full.points[~hole])
    delta = _const_gauge(sample, 1030.0)
    fine = ip.extract_fine_set(sample, delta, nu=0.1)
    net = ip.build_separated_net(sample, delta)
    stage = ip.build_sigma_delta(sample, fine, net, delta, nu=0.1)

    rerun_sample = _simple_sample(stage.points)
    rerun_delta = _const_gauge(rerun_sample, 1030.0)
    rerun_fine = ip.extract_fine_set(rerun_sample, rerun_delta, nu=0.1)
    rerun_net = ip.build_separated_net(rerun_sample, rerun_delta)
    rerun = ip.build_sigma_delta(
        rerun_sample, rerun_fine, rerun_net, rerun_delta, nu=0.1
    )
    return punched, delta, stage, rerun, sample


@pytest.fixture(scope="module")
def plateau_sample():
    spec = SyntheticSpec(
        kind="plateau_graph", n_points=5000, eps=PLATEAU_EPS, **PLATEAU_KW
    )
    return generate(spec)[0]


@pytest.fixture(scope="module")
def plateau_run(plateau_sample):
    return ip.iterate_parameterization(
        plateau_sample, gamma_hint=0.0, nu=PLATEAU_NU
    )


@pytest.fixture(scope="module")
def flat_run():
    sample, _ = generate(SyntheticSpec(kind="flat_disk", n_points=2000))
    return ip.iterate_parameterization(sample, gamma_hint=0.0, nu=0.05)


# ---------------------------------------------------------------------------
# contraction gauges


def test_gauge_initial_values_on_rays():
    sample = _simple_sample([[0, 0, 0], [0.5, 0, 0], [1, 0, 0]])
    delta = ip.make_delta0(sample)
    assert delta.values[0] == pytest.approx(0.01, abs=1e-15)
    assert delta.values[1] == pytest.approx(0.005, abs=1e-15)
    assert delta.values[2] == pytest.approx(0.0, abs=1e-15)
    assert delta.provenance == "initial_gauge"


def test_gauge_rejects_sample_outside_domain():
    sample = _simple_sample([[1.5, 0, 0]])
    with pytest.raises(PointOutsideDomain):
        ip.make_delta0(sample)


def test_gauge_evaluate_rejects_query_outside_domain():
    sample = _simple_sample([[0, 0, 0]])
    delta = ip.make_delta0(sample)
    with pytest.raises(PointOutsideDomain):
        delta.evaluate([[1.2, 0, 0]])


def test_gauge_bounded_by_boundary_distance():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.6, 0.6, size=(200, 3))
    sample = _simple_sample(pts)
    delta = ip.make_delta0(sample)
    cap = (1.0 - np.linalg.norm(pts, axis=1)) / 100.0
    assert np.all(delta.values <= cap + 1e-15)
    fine = _fine_rows_only(range(0, 200, 7), sample)
    succ = ip.next_delta(sample, fine)
    assert np.all(succ.values <= cap + 1e-15)
    assert np.all(succ.values >= 0.0)


def test_gauge_successor_vanishes_on_kept_rows():
    rng = np.random.default_rng(1)
    sample = _simple_sample(rng.uniform(-0.5, 0.5, size=(60, 3)))
    keep = [0, 5, 11, 40]
    succ = ip.next_delta(sample, _fine_rows_only(keep, sample))
    assert np.all(succ.values[keep] == 0.0)


def test_gauge_successor_min_formula():
    sample = _simple_sample([[0, 0, 0], [0.1, 0, 0]])
    succ = ip.next_delta(sample, _fine_rows_only([0], sample))
    # distance to the kept row is 0.1; the boundary formula gives 0.009
    assert succ.values[1] == pytest.approx(0.009, abs=1e-15)


def test_gauge_successor_zero_when_everything_kept():
    sample = _grid_sample(4, h=0.05)
    succ = ip.next_delta(sample, _fine_rows_only(range(len(sample)), sample))
    assert np.all(succ.values == 0.0)


def test_gauge_successor_requires_nonempty_rows():
    sample = _simple_sample([[0, 0, 0]])
    empty = ip.FineSet(
        indices=np.zeros(0, dtype=int),
        nu=0.1,
        plane_bases=np.zeros((0, 2, 3)),
        tilts=np.zeros(0),
    )
    with pytest.raises(EmptyFineSet):
        ip.next_delta(sample, empty)


def test_gauges_refuse_a_domain_center_of_another_dimension():
    sample = _simple_sample([[0, 0, 0], [0.1, 0, 0]])
    domain = Ball(np.zeros(2), 1.0)
    with pytest.raises(DimensionMismatch, match="domain center"):
        ip.make_delta0(sample, domain)
    with pytest.raises(DimensionMismatch, match="domain center"):
        ip.next_delta(sample, _fine_rows_only([0], sample), domain)


def test_gauge_refuses_a_non_finite_domain_center():
    sample = _simple_sample([[0, 0, 0], [0.1, 0, 0]])
    with pytest.raises(NonFiniteInput, match="ball center"):
        ip.make_delta0(sample, Ball([np.nan, 0.0, 0.0], 1.0))


def test_gauge_one_lipschitz_exhaustive():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.55, 0.55, size=(300, 3))
    sample = _simple_sample(pts)
    gaps = pdist(pts)
    for delta in (
        ip.make_delta0(sample),
        ip.next_delta(sample, _fine_rows_only(rng.integers(0, 300, 25), sample)),
    ):
        diffs = pdist(delta.values[:, None], metric="cityblock")
        assert np.all(diffs <= gaps + 1e-9)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_gauge_one_lipschitz_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    pts = rng.uniform(-0.55, 0.55, size=(n, 3))
    sample = _simple_sample(pts)
    keep = rng.integers(0, n, size=max(1, n // 3))
    for delta in (
        ip.make_delta0(sample),
        ip.next_delta(sample, _fine_rows_only(np.unique(keep), sample)),
    ):
        gaps = pdist(pts)
        diffs = pdist(delta.values[:, None], metric="cityblock")
        assert np.all(diffs <= gaps + 1e-9)


# ---------------------------------------------------------------------------
# low-tilt row extraction

# tilts come from normal frames and masked sums, the oracle's from projector
# differences and gathered sums; on a flat ball the oracle's zero distance
# is the rounding of two projectors, up to a few 1e-15
TILT_RTOL = 1e-10
TILT_ATOL = 1e-14


def _assert_matches_scan(fine, sample, delta, nu, floor=None):
    """Identical members, bit-identical bases, tilts to TILT_RTOL."""
    if floor is None:
        floor = resolution_floor(sample, 4.0)
    members, bases, tilts = fine_membership_scan(
        sample, delta, nu, floor, maximal_tilt_loop, reference_plane_loop
    )
    assert np.array_equal(fine.indices, members)
    assert np.array_equal(fine.plane_bases, bases)
    np.testing.assert_allclose(fine.tilts, tilts, rtol=TILT_RTOL, atol=TILT_ATOL)


def test_fine_rows_cover_flat_lattice(flat_stage):
    sample, delta, _ = flat_stage
    fine = ip.extract_fine_set(sample, delta, nu=0.05)
    assert fine.covers_all(len(sample))
    assert np.all(fine.tilts <= 0.05)


def test_fine_rows_match_per_point_scan_around_bump():
    sample = _bump_sample(k=13, h=0.04, amp=0.05, sig=0.1)
    delta = _const_gauge(sample, 0.12)
    nu = 0.1
    fine = ip.extract_fine_set(sample, delta, nu)
    _assert_matches_scan(fine, sample, delta, nu)
    # the bump core is excluded, the far field is kept
    center = int(np.argmin(np.linalg.norm(sample.points[:, :2], axis=1)))
    corner = int(np.argmax(np.linalg.norm(sample.points[:, :2], axis=1)))
    assert center not in fine
    assert corner in fine
    assert 0 < fine.indices.size < len(sample)


def test_fine_rows_contain_vanishing_gauge():
    angles = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    ring = np.stack([np.cos(angles), np.sin(angles), np.zeros(8)], axis=1)
    rng = np.random.default_rng(4)
    inner = rng.uniform(-0.4, 0.4, size=(40, 3)) * [1, 1, 0]
    sample = _simple_sample(np.concatenate([ring, inner]))
    delta = ip.make_delta0(sample)
    fine = ip.extract_fine_set(sample, delta, nu=1e-6)
    for row in range(8):  # gauge vanishes exactly on the unit circle
        assert delta.values[row] == 0.0
        assert row in fine


@given(
    nu_lo=st.floats(0.02, 0.5),
    nu_hi=st.floats(0.02, 0.5),
)
@settings(max_examples=8, deadline=None)
def test_fine_rows_monotone_in_threshold(nu_lo, nu_hi):
    if nu_lo > nu_hi:
        nu_lo, nu_hi = nu_hi, nu_lo
    sample = _bump_sample(k=6, h=0.04, amp=0.05, sig=0.1)
    delta = _const_gauge(sample, 0.1)
    small = ip.extract_fine_set(sample, delta, nu_lo)
    large = ip.extract_fine_set(sample, delta, nu_hi)
    assert set(small.indices).issubset(set(large.indices))


def test_fine_rows_reject_nonpositive_threshold():
    sample = _simple_sample([[0, 0, 0]])
    with pytest.raises(ValueError):
        ip.extract_fine_set(sample, ip.make_delta0(sample), nu=0.0)
    for nu in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InvalidScale, match="tilt threshold nu"):
            ip.extract_fine_set(sample, ip.make_delta0(sample), nu=nu)


@pytest.mark.parametrize(
    "gamma_hint, nu", [(0.0, -1.0), (0.0, np.nan), (0.0, np.inf), (np.nan, None)]
)
def test_pipeline_refuses_a_bad_threshold_before_using_it(gamma_hint, nu):
    sample = _grid_sample(6, h=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidScale, match="tilt threshold nu"):
            ip.iterate_parameterization(sample, gamma_hint=gamma_hint, nu=nu)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 80),
    level=st.floats(0.02, 0.4),
    nu=st.floats(0.02, 1.0),
    floor=st.floats(0.01, 0.2),
)
@settings(max_examples=30, deadline=None)
def test_fine_rows_match_per_point_scan_property(seed, n, level, nu, floor):
    """Random wavy samples with random orthonormal frames and weights."""
    rng = np.random.default_rng(seed)
    pts = np.c_[rng.uniform(-0.5, 0.5, size=(n, 2)), 0.05 * rng.normal(size=n)]
    frames, _ = np.linalg.qr(np.eye(3)[:, :2] + 0.3 * rng.normal(size=(n, 3, 2)))
    weights = rng.uniform(0.5, 1.5, size=n) / n
    sample = WeightedSurfaceSample(pts, weights, frames.transpose(0, 2, 1))
    delta = _const_gauge(sample, level)
    fine = ip.extract_fine_set(sample, delta, nu, floor=floor)
    _assert_matches_scan(fine, sample, delta, nu, floor=floor)
    # the one-row cases agree with the same oracles on a measured member
    measured = fine.indices[2.0 * delta.values[fine.indices] >= floor]
    if measured.size:
        x, r = sample.points[measured[0]], 2.0 * delta.values[measured[0]]
        plane = reference_plane_loop(sample, x, r)
        assert np.array_equal(ip.reference_plane(sample, x, r).basis, plane.basis)
        np.testing.assert_allclose(
            local_maximal_tilt(sample, x, r, plane, floor=floor),
            maximal_tilt_loop(sample, x, r, plane, floor),
            rtol=TILT_RTOL,
            atol=TILT_ATOL,
        )


@pytest.mark.parametrize("seed", [None, 3], ids=["axis", "rotated"])
def test_fine_rows_match_scan_on_isotropic_balls(seed):
    """Square-symmetric balls: the in-plane eigenvalues tie (exactly on the
    integer lattice, to rounding once rotated), so the in-plane frame is
    whatever the arithmetic makes it; it must still be the oracle's."""
    sample = _grid_sample(6)
    if seed is not None:
        sample = sample.transformed(rotation=_rotation(seed))
    delta = _const_gauge(sample, 3.0)
    fine = ip.extract_fine_set(sample, delta, nu=0.1, floor=1.0)
    assert fine.covers_all(len(sample))
    _assert_matches_scan(fine, sample, delta, 0.1, floor=1.0)


def test_fine_rows_skip_rank_deficient_ball():
    """A 2-gauge ball of three collinear points has no reference plane: its
    rows are not fine, and the rest of the extraction goes on."""
    ax = np.linspace(-0.5, 0.5, 12)
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    grid = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1)
    line = np.array([[0.9, 0.0, 0.0], [0.9005, 0.0, 0.0], [0.901, 0.0, 0.0]])
    sample = _simple_sample(np.concatenate([grid, line]))
    delta = ip.make_delta0(sample)
    with pytest.raises(DegenerateCloud):
        ip.reference_plane(sample, line[0], 2.0 * delta.values[len(grid)])
    fine = ip.extract_fine_set(sample, delta, nu=0.1, floor=1e-4)
    assert not any(row in fine for row in range(len(grid), len(sample)))
    _assert_matches_scan(fine, sample, delta, 0.1, floor=1e-4)


def _leaf_count(points, leafsize):
    stack, leaves = [cKDTree(points, leafsize=leafsize).tree], 0
    while stack:
        node = stack.pop()
        if node.greater is None:
            leaves += 1
        else:
            stack += [node.lesser, node.greater]
    return leaves


def test_fine_rows_make_one_candidate_query_per_block(monkeypatch):
    sample = _bump_sample(k=13, h=0.04, amp=0.05, sig=0.1)
    delta = _const_gauge(sample, 0.12)
    tree = sample.spatial_index
    centers = []

    class CountingTree:
        def query_ball_point(self, x, r, **kwargs):
            centers.append(np.shape(x))
            return tree.query_ball_point(x, r, **kwargs)

    def per_row_query(self, center, radius):
        raise AssertionError("extract_fine_set made a per-row ball query")

    monkeypatch.setattr(WeightedSurfaceSample, "ball_query", per_row_query)
    monkeypatch.setattr(
        WeightedSurfaceSample, "spatial_index", property(lambda self: CountingTree())
    )
    ip.extract_fine_set(sample, delta, nu=0.1)
    measured = np.flatnonzero(2.0 * delta.values >= resolution_floor(sample, 4.0))
    leaves = _leaf_count(sample.points[measured], _QUERY_BLOCK)
    assert leaves > 1 and centers == [(3,)] * leaves


def test_fine_set_refuses_a_floor_that_is_not_positive():
    sample = _grid_sample(6)
    delta = _const_gauge(sample, 3.0)
    for floor in (0.0, -1.0, np.nan):
        with pytest.raises(InvalidScale, match="resolution floor"):
            ip.extract_fine_set(sample, delta, nu=0.1, floor=floor)


# ---------------------------------------------------------------------------
# separated nets


def test_net_merges_pair_under_huge_gauge():
    sample = _simple_sample([[0, 0, 0], [1, 0, 0]])
    delta = _const_gauge(sample, 1.0e4)
    net = ip.build_separated_net(sample, delta)
    assert len(net.indices) == 1


def test_net_separation_coverage_grouping():
    sample = _grid_sample(15)
    delta = _const_gauge(sample, 5000.0)
    net = ip.build_separated_net(sample, delta)
    pts = sample.points[net.indices]
    vals = delta.values[net.indices]
    # pairwise packing separation, exhaustively
    assert pdist(pts).min() >= 0.5e-3 * delta.values.min() - 1e-12
    # every positive-gauge sample point is inside a net ball (brute force)
    dist = np.linalg.norm(
        sample.points[:, None, :] - pts[None, :, :], axis=2
    ).min(axis=1)
    assert np.all(dist <= 1.0e-3 * delta.values + 1e-12)
    # groups stay conflict-free at a tenth of the gauge
    for rows in net.groups():
        if len(rows) > 1:
            sep = pdist(sample.points[rows]).min()
            assert sep >= 0.1 * delta.values[rows].max() - 1e-9
    assert net.group_count <= 200
    assert np.array_equal(np.sort(np.unique(net.group_ids)),
                          np.arange(net.group_count))


def test_net_requires_positive_gauge_somewhere():
    sample = _simple_sample([[1, 0, 0], [0, 1, 0]])
    delta = ip.make_delta0(sample)  # boundary rows only: gauge is zero
    with pytest.raises(EmptyFineSet):
        ip.build_separated_net(sample, delta)


# ---------------------------------------------------------------------------
# partition of unity


@pytest.fixture(scope="module")
def pou_net():
    sample = _grid_sample(4)
    delta = _const_gauge(sample, 4.0)
    net = ip.build_separated_net(sample, delta)
    return sample, delta, net


def test_pou_isolated_member_weight_one():
    sample = _simple_sample([[0, 0, 0], [100, 0, 0]])
    delta = _const_gauge(sample, 4.0)
    net = ip.build_separated_net(sample, delta)
    weights = ip.partition_of_unity(net, delta, np.zeros(3))
    assert len(weights) == 1
    assert weights[0][1] == pytest.approx(1.0, abs=1e-15)


def test_pou_sums_to_one_everywhere(pou_net):
    _, delta, net = pou_net
    rng = np.random.default_rng(6)
    for _ in range(1000):
        q = np.array([*rng.uniform(-2.0, 2.0, size=2), 0.0])
        weights = ip.partition_of_unity(net, delta, q)
        vals = np.array([w for _, w in weights])
        assert np.all(vals >= 0.0)
        assert vals.sum() == pytest.approx(1.0, abs=1e-12)


def test_pou_gradient_bounded(pou_net):
    _, delta, net = pou_net
    rng = np.random.default_rng(7)
    step = 1e-6
    bound = 20.0 / delta.values.min()
    observed = 0.0
    for _ in range(100):
        q = np.array([*rng.uniform(-2.0, 2.0, size=2), 0.0])
        members = [j for j, _ in ip.partition_of_unity(net, delta, q)][:4]
        for j in members:
            for axis in range(3):
                plus, minus = q.copy(), q.copy()
                plus[axis] += step
                minus[axis] -= step
                wp = dict(ip.partition_of_unity(net, delta, plus)).get(j, 0.0)
                wm = dict(ip.partition_of_unity(net, delta, minus)).get(j, 0.0)
                observed = max(observed, abs(wp - wm) / (2.0 * step))
    assert observed <= bound


def test_pou_uncovered_query_raises(pou_net):
    _, delta, net = pou_net
    with pytest.raises(UncoveredQuery):
        ip.partition_of_unity(net, delta, np.array([50.0, 0.0, 0.0]))


def test_pou_refuses_a_query_that_is_not_one_finite_point(pou_net):
    _, delta, net = pou_net
    with pytest.raises(DimensionMismatch, match="query"):
        ip.partition_of_unity(net, delta, np.zeros(2))
    with pytest.raises(NonFiniteInput, match="query"):
        ip.partition_of_unity(net, delta, np.array([np.nan, 0.0, 0.0]))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_pou_single_query_matches_kd_ball_rows(seed):
    # one query scored against every bump gives, bit for bit, its row of the
    # matrix built from KD-tree balls over all the queries
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-3.0, 3.0, size=(int(rng.integers(2, 40)), 3))
    pts[:, 2] *= 0.1
    sample = _simple_sample(pts)
    delta = _const_gauge(sample, float(rng.uniform(0.3, 3.0)))
    net = ip.build_separated_net(sample, delta)
    centers = delta.points[net.indices]
    supports = ip.POU_SUPPORT_MULT * delta.values[net.indices]
    queries = np.concatenate([
        rng.uniform(-4.0, 4.0, size=(int(rng.integers(1, 20)), 3)) * [1.0, 1.0, 0.2],
        centers[rng.integers(0, len(centers), 5)] + rng.normal(scale=0.2, size=(5, 3)),
    ])
    balls = [
        np.asarray(b, dtype=int)
        for b in cKDTree(queries).query_ball_point(centers, supports)
    ]
    mat = ip._pou_matrix(queries, centers, supports, balls)
    for i, q in enumerate(queries):
        row = mat.getrow(i)
        if row.nnz == 0:
            with pytest.raises(UncoveredQuery):
                ip.partition_of_unity(net, delta, q)
            continue
        weights = ip.partition_of_unity(net, delta, q)
        assert [j for j, _ in weights] == row.indices.tolist()
        assert np.array_equal([v for _, v in weights], row.data)


# ---------------------------------------------------------------------------
# stage rebuilds


def test_stage_flat_rebuild_is_the_sample(flat_stage):
    sample, _, stage = flat_stage
    assert len(stage.points) == len(sample)
    assert np.all(stage.sample_rows >= 0)
    order = np.argsort(stage.sample_rows)
    assert np.array_equal(stage.points[order], sample.points)
    assert stage.graph_lipschitz.max() <= 1e-12
    assert stage.synth_offset_ratio == 0.0


def test_stage_refills_punched_hole(hole_case):
    punched, delta, stage, _, _ = hole_case
    synth = stage.points[stage.sample_rows < 0]
    assert len(synth) > 0
    # heights: the plane is the exact weighted-fit solution on flat data
    assert np.abs(synth[:, 2]).max() <= 1e-12
    assert np.abs(synth[:, 2]).max() <= 1e-3 * delta.values.max()
    # every punched lattice site is repopulated within the dedup radius
    gaps, _ = cKDTree(synth).query(punched)
    assert gaps.max() <= 0.75


def test_stage_rebuild_idempotent(hole_case):
    _, _, stage, rerun, _ = hole_case
    # every first-run point survives verbatim
    gaps, _ = cKDTree(rerun.points).query(stage.points)
    assert gaps.max() <= 1e-9
    # away from the outer rim, the rerun adds nothing beyond the dedup gap
    interior = np.abs(rerun.points[:, :2]).max(axis=1) <= 8.0
    back, _ = cKDTree(stage.points).query(rerun.points[interior])
    assert back.max() <= 0.75


def test_stage_raises_without_anchors_near_steep_core():
    base = _grid_sample(14)
    r = np.linalg.norm(base.points, axis=1)
    ring = base.points[(r >= 12.0) & (r <= 14.0)]
    core_mask = r <= 3.0
    rng = np.random.default_rng(8)
    core = base.points[core_mask].copy()
    core[:, 2] = rng.normal(scale=2.0, size=len(core))
    sample = _simple_sample(np.concatenate([ring, core]))
    delta = _const_gauge(sample, 3.0)
    fine = ip.extract_fine_set(sample, delta, nu=0.1)
    assert fine.indices.size > 0
    net = ip.build_separated_net(sample, delta)
    with pytest.raises(GraphTestFailure, match="anchors"):
        ip.build_sigma_delta(sample, fine, net, delta, nu=0.1)


def test_stage_support_balls_come_from_one_query(monkeypatch):
    # the graph test, the partition of unity and the normal-field quotient
    # share one KD-tree over the stage points and one batched ball query
    base = _grid_sample(10)
    sample = _simple_sample(base.points[np.linalg.norm(base.points, axis=1) > 1.5])
    delta = _const_gauge(sample, 1030.0)
    fine = ip.extract_fine_set(sample, delta, nu=0.1)
    net = ip.build_separated_net(sample, delta)
    trees = []

    class CountingTree(cKDTree):
        def __init__(self, data, *args, **kwargs):
            super().__init__(data, *args, **kwargs)
            self.ball_queries = []
            trees.append(self)

        def query_ball_point(self, x, r, **kwargs):
            self.ball_queries.append(np.shape(x))
            return super().query_ball_point(x, r, **kwargs)

    monkeypatch.setattr(ip, "cKDTree", CountingTree)
    stage = ip.build_sigma_delta(sample, fine, net, delta, nu=0.1)
    ip.normal_field(stage, sample)
    assert len(stage.patch_centers) > 1
    over_stage = [
        t for t in trees
        if t.data.shape == stage.points.shape and np.array_equal(t.data, stage.points)
    ]
    queries = [shape for t in over_stage for shape in t.ball_queries]
    assert queries == [stage.patch_centers.shape]
    # normal_field, the last reader, releases the balls
    assert stage._support_balls is None


# ---------------------------------------------------------------------------
# blended normal directions


def test_normals_constant_planes_exact(flat_stage):
    _, _, stage = flat_stage
    assert np.abs(stage.normal_projectors - EZ_PROJECTOR[None]).max() == 0.0
    assert stage.normal_lipschitz.max() == 0.0


def test_normals_two_plane_blend_matches_bisector():
    half = 0.05
    bases, projectors = [], []
    for sign in (1.0, -1.0):
        c, s = np.cos(sign * half), np.sin(sign * half)
        t1 = np.array([c, 0.0, s])
        t2 = np.array([0.0, 1.0, 0.0])
        bases.append(np.stack([t1, t2]))
        normal = np.array([-s, 0.0, c])
        projectors.append(np.outer(normal, normal))
    stage = ip.SmoothedSurfaceStage(
        index=0,
        points=np.zeros((1, 3)),
        gauge=np.array([4.0]),
        sample_rows=np.array([-1]),
        patch_centers=np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]]),
        patch_bases=np.stack(bases),
        patch_gauge=np.array([4.0, 4.0]),
        graph_lipschitz=np.zeros(2),
        synth_offset_ratio=0.0,
        overlap_mismatch=0.0,
    )
    ip.normal_field(stage, _simple_sample([[0, 0, 0]]))
    blended = stage.normal_projectors[0]
    expected_gap = np.sqrt(2.0) * np.sin(half)
    gaps = [np.linalg.norm(blended - p) for p in projectors]
    assert gaps[0] == pytest.approx(expected_gap, abs=1e-3)
    assert gaps[1] == pytest.approx(expected_gap, abs=1e-3)


def test_normals_kept_row_falls_back_to_sample_plane():
    sample = _simple_sample([[50.0, 0.0, 0.0]])
    stage = ip.SmoothedSurfaceStage(
        index=0,
        points=np.array([[50.0, 0.0, 0.0]]),
        gauge=np.array([1.0]),
        sample_rows=np.array([0]),
        patch_centers=np.array([[0.0, 0.0, 0.0]]),
        patch_bases=np.eye(3)[:2][None],
        patch_gauge=np.array([1.0]),
        graph_lipschitz=np.zeros(1),
        synth_offset_ratio=0.0,
        overlap_mismatch=0.0,
    )
    ip.normal_field(stage, sample)
    assert np.abs(stage.normal_projectors[0] - EZ_PROJECTOR).max() == 0.0


def test_normals_uncovered_synthesized_point_raises():
    stage = ip.SmoothedSurfaceStage(
        index=0,
        points=np.array([[50.0, 0.0, 0.0]]),
        gauge=np.array([1.0]),
        sample_rows=np.array([-1]),
        patch_centers=np.array([[0.0, 0.0, 0.0]]),
        patch_bases=np.eye(3)[:2][None],
        patch_gauge=np.array([1.0]),
        graph_lipschitz=np.zeros(1),
        synth_offset_ratio=0.0,
        overlap_mismatch=0.0,
    )
    with pytest.raises(UncoveredQuery):
        ip.normal_field(stage, _simple_sample([[0, 0, 0]]))


def test_normals_batched_blend_warns_on_exact_tie():
    # normals e_z and e_x at equal weight: the top normal eigenvalue is double
    stage = ip.SmoothedSurfaceStage(
        index=0,
        points=np.zeros((1, 3)),
        gauge=np.array([4.0]),
        sample_rows=np.array([-1]),
        patch_centers=np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]]),
        patch_bases=np.stack([np.eye(3)[[0, 1]], np.eye(3)[[1, 2]]]),
        patch_gauge=np.array([4.0, 4.0]),
        graph_lipschitz=np.zeros(2),
        synth_offset_ratio=0.0,
        overlap_mismatch=0.0,
    )
    with pytest.warns(EigengapTie, match="eigengap 0.000e"):
        ip.normal_field(stage, _simple_sample([[0, 0, 0]]))


# ---------------------------------------------------------------------------
# stage-to-stage projection


def test_projection_identity_on_same_stage(flat_stage):
    _, _, stage = flat_stage
    tau = ip.project_tau(stage, stage, beta=0.1)
    assert np.array_equal(tau.target_indices, np.arange(len(stage.points)))
    assert np.abs(tau.displacements).max() == 0.0
    assert np.abs(tau.tangential_residuals).max() == 0.0


def test_projection_pure_normal_offset(flat_stage):
    _, _, stage = flat_stage
    offset = 0.001
    moved = dataclasses.replace(
        stage, points=stage.points + np.array([0.0, 0.0, offset])
    )
    tau = ip.project_tau(moved, stage, beta=0.1)
    assert np.array_equal(tau.target_indices, np.arange(len(stage.points)))
    norms = tau.displacement_norms
    assert norms.max() == pytest.approx(offset, abs=1e-12)
    assert norms.min() == pytest.approx(offset, abs=1e-12)
    # forward evaluation returns the source exactly
    recon = tau.target_points + tau.displacements
    assert np.abs(recon - moved.points).max() <= 1e-9


def test_projection_with_one_candidate(monkeypatch, flat_stage):
    _, _, stage = flat_stage
    monkeypatch.setattr(ip, "TAU_CANDIDATES", 1)
    tau = ip.project_tau(stage, stage, beta=0.1)
    assert np.array_equal(tau.target_indices, np.arange(len(stage.points)))
    assert np.abs(tau.tangential_residuals).max() == 0.0


def test_projection_onto_one_point_stage(flat_stage):
    _, _, stage = flat_stage
    single = dataclasses.replace(
        stage,
        points=stage.points[:1],
        gauge=stage.gauge[:1],
        sample_rows=stage.sample_rows[:1],
        normal_projectors=stage.normal_projectors[:1],
    )
    tau = ip.project_tau(stage, single, beta=0.1)
    assert np.array_equal(tau.target_indices, np.zeros(len(stage.points)))
    assert np.array_equal(tau.displacements, stage.points - stage.points[0])


def test_projection_rejects_unreachable_source(flat_stage):
    _, _, stage = flat_stage
    moved = dataclasses.replace(
        stage, points=stage.points + np.array([0.0, 0.0, 100.0])
    )
    with pytest.raises(NoValidPreimage):
        ip.project_tau(moved, stage, beta=0.1)


def test_projection_requires_normal_directions(flat_stage):
    _, _, stage = flat_stage
    bare = dataclasses.replace(stage, normal_projectors=None)
    with pytest.raises(UncoveredQuery):
        ip.project_tau(stage, bare, beta=0.1)


def test_projection_displacements_scale_with_front_distance(plateau_run):
    res = plateau_run
    spacing = None
    for k, tau in enumerate(res.step_maps):
        stage_to = res.stages[k + 1]
        fine_pts = stage_to.points[stage_to.fine_mask]
        gaps, _ = cKDTree(fine_pts).query(tau.source_points)
        if spacing is None:
            nn, _ = cKDTree(tau.source_points).query(tau.source_points, k=2)
            spacing = float(np.median(nn[:, 1]))
        mask = gaps > spacing
        if mask.any():
            ratio = tau.displacement_norms[mask] / (
                np.sqrt(res.nu) * gaps[mask]
            )
            assert ratio.max() <= 10.0


# ---------------------------------------------------------------------------
# composition and distortion statistics


def test_compose_matches_stepwise_chain(plateau_run):
    res = plateau_run
    assert len(res.step_maps) >= 2
    first, second = res.step_maps[0], res.step_maps[1]
    chained = second.target_indices[first.target_indices]
    assert np.array_equal(res.map.target_indices, chained)
    assert np.array_equal(
        res.map.target_points, second.target_points[first.target_indices]
    )
    expected = res.map.source_points - res.map.target_points
    assert np.array_equal(res.map.displacements, expected)
    assert res.map.depth == sum(m.depth for m in res.step_maps)


def test_compose_rejects_empty_list():
    with pytest.raises(ValueError):
        ip.compose_maps([])


def test_compose_refuses_an_empty_list_as_empty_input():
    # used to raise a bare ValueError
    with pytest.raises(EmptyInput, match="no stage maps to compose"):
        ip.compose_maps([])


def test_distortion_identity_map():
    rng = np.random.default_rng(9)
    pts = rng.uniform(-1.0, 1.0, size=(200, 3))
    report = ip.distortion_report(pts, pts)
    assert np.all(report.f_upper == 1.0)
    assert np.all(report.f_lower == 1.0)
    assert report.spread == 1.0
    assert report.lp_deviation == 0.0


def test_distortion_global_dilation_exact():
    rng = np.random.default_rng(10)
    pts = rng.uniform(-1.0, 1.0, size=(150, 3))
    report = ip.distortion_report(pts, 2.0 * pts)
    assert np.all(report.f_upper == 2.0)
    assert np.all(report.f_lower == 2.0)


def test_distortion_matches_naive_all_pairs():
    rng = np.random.default_rng(5)
    src = rng.uniform(-1.0, 1.0, size=(120, 3))
    tgt = src + 0.05 * np.sin(2.0 * src[:, ::-1])
    report = ip.distortion_report(src, tgt)
    f_up, f_lo = all_pairs_distortion(src, tgt)
    assert np.allclose(report.f_upper, f_up, rtol=1e-12, atol=1e-12)
    assert np.allclose(report.f_lower, f_lo, rtol=1e-12, atol=1e-12)


def test_distortion_at_pair_budget_matches_all_pairs(monkeypatch):
    # 600 points at a budget of 600: every pair, over more than one row block
    rng = np.random.default_rng(12)
    src = rng.uniform(-1.0, 1.0, size=(600, 3))
    src[7] = src[3]  # a repeated source point has no quotient with its twin
    tgt = src + 0.05 * np.sin(2.0 * src[:, ::-1])
    monkeypatch.setattr(ip, "DISTORTION_PAIRS", 600)
    report = ip.distortion_report(src, tgt)
    f_up, f_lo = all_pairs_distortion(src, tgt)
    assert np.allclose(report.f_upper, f_up, rtol=1e-12, atol=1e-12)
    assert np.allclose(report.f_lower, f_lo, rtol=1e-12, atol=1e-12)
    # log-log regression slopes over the same pairs, in one pass
    ds = np.linalg.norm(src[:, None] - src[None], axis=2)
    dt = np.linalg.norm(tgt[:, None] - tgt[None], axis=2)
    pos = ~np.eye(len(src), dtype=bool) & (ds > 1e-300) & (dt > 1e-300)
    ls, lt = np.log(ds[pos]), np.log(dt[pos])
    cov = ((ls - ls.mean()) * (lt - lt.mean())).sum()
    assert report.exponent_forward == pytest.approx(
        cov / ((ls - ls.mean()) ** 2).sum(), rel=1e-12
    )
    assert report.exponent_inverse == pytest.approx(
        cov / ((lt - lt.mean()) ** 2).sum(), rel=1e-12
    )


def test_distortion_sampled_partners_match_per_point_loop(monkeypatch):
    rng = np.random.default_rng(13)
    src = rng.uniform(-1.0, 1.0, size=(400, 3))
    tgt = src + 0.05 * np.sin(2.0 * src[:, ::-1])
    monkeypatch.setattr(ip, "DISTORTION_PAIRS", 100)
    monkeypatch.setattr(ip, "DISTORTION_SEED", 4)
    report = ip.distortion_report(src, tgt)
    f_up, f_lo = sampled_partner_distortion(src, tgt, pairs=100, seed=4)
    assert np.allclose(report.f_upper, f_up, rtol=1e-12, atol=1e-12)
    assert np.allclose(report.f_lower, f_lo, rtol=1e-12, atol=1e-12)


def test_distortion_subsample_tracks_all_pairs(monkeypatch):
    rng = np.random.default_rng(5)
    src = rng.uniform(-1.0, 1.0, size=(500, 3))
    tgt = src + 0.05 * np.sin(2.0 * src[:, ::-1])
    full = ip.distortion_report(src, tgt)
    monkeypatch.setattr(ip, "DISTORTION_PAIRS", 100)
    sub = ip.distortion_report(src, tgt)
    assert abs(full.spread - sub.spread) / full.spread <= 0.05
    assert abs(full.lp_upper - sub.lp_upper) / full.lp_upper <= 0.05


def test_distortion_equidistant_source_exponents():
    # every source pair at the same distance: no forward slope to fit
    src = np.eye(3)
    report = ip.distortion_report(src, src * np.array([1.0, 2.0, 3.0]))
    assert report.exponent_forward == 1.0
    assert report.exponent_inverse == 0.0


def test_distortion_sampled_partners_on_fewer_than_nine_points(monkeypatch):
    # the 8-neighbor quota exceeds the other points: every pair is used
    rng = np.random.default_rng(14)
    src = rng.uniform(-1.0, 1.0, size=(6, 3))
    tgt = src + 0.05 * np.sin(2.0 * src[:, ::-1])
    full = ip.distortion_report(src, tgt)
    monkeypatch.setattr(ip, "DISTORTION_PAIRS", 3)
    sampled = ip.distortion_report(src, tgt)
    assert np.array_equal(sampled.f_upper, full.f_upper)
    assert np.array_equal(sampled.f_lower, full.f_lower)


_FIFTY = np.random.default_rng(15).uniform(-1.0, 1.0, size=(50, 3))
_FIFTY_NAN = np.where(np.arange(50)[:, None] == 7, np.nan, _FIFTY)


@pytest.mark.parametrize(
    "call, error",
    [
        # NaN or N copies of one point used to read as a perfect isometry
        # (spread 1.0), unequal row counts as numpy's broadcasting ValueError
        pytest.param(
            lambda: ip.distortion_report(_FIFTY_NAN, _FIFTY), NonFiniteInput, id="nan-source"
        ),
        pytest.param(
            lambda: ip.distortion_report(_FIFTY, _FIFTY_NAN), NonFiniteInput, id="nan-target"
        ),
        pytest.param(
            lambda: ip.distortion_report(np.repeat(_FIFTY[:1], 50, axis=0), _FIFTY),
            TooFewPoints,
            id="one-point-repeated",
        ),
        pytest.param(
            lambda: ip.distortion_report(_FIFTY, _FIFTY[:49]),
            DimensionMismatch,
            id="row-counts-differ",
        ),
        # a 2-d domain center on a 3-d sample used to broadcast
        pytest.param(
            lambda: build_scale_family(
                generate(SyntheticSpec(kind="flat_disk", n_points=300))[0],
                Ball(np.zeros(2), 1.0),
                sigma_max=0.5,
                floor=0.2,
            ),
            DimensionMismatch,
            id="scale-family-center-of-another-dimension",
        ),
    ],
)
def test_bad_mapped_points_and_centers_raise_toolkit_errors(call, error):
    with pytest.raises(error):
        call()


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_distortion_lower_never_exceeds_upper(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    src = rng.uniform(-1.0, 1.0, size=(n, 3))
    matrix = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    tgt = src @ matrix.T + 0.01 * rng.normal(size=(n, 3))
    report = ip.distortion_report(src, tgt)
    assert np.all(report.f_lower <= report.f_upper + 1e-12)
    assert np.isfinite(report.lp_upper)
    assert np.isfinite(report.lp_lower_inverse)
    assert np.isfinite(report.lp_deviation)


# ---------------------------------------------------------------------------
# the full iteration


def test_pipeline_flat_disk_is_identity(flat_run):
    res = flat_run
    assert len(res.stages) == 2  # one confirming step, then early exit
    assert res.map.displacement_norms.max() == 0.0
    assert res.report.spread == 1.0
    assert res.report.spread <= 1.02
    assert np.all(np.abs(res.report.f_upper - 1.0) <= 0.01)


def test_pipeline_plateau_displacements_decay(plateau_run):
    hist = plateau_run.displacement_history
    assert len(hist) >= 2
    ratios = [hist[i + 1] / hist[i] for i in range(len(hist) - 1)]
    assert all(r <= 0.5 for r in ratios)


def test_pipeline_plateau_spread_bounded(plateau_run):
    assert plateau_run.report.spread <= 1.3


def test_pipeline_plateau_bad_weight_halves(plateau_run):
    bad = plateau_run.bad_weight_history
    assert bad[0] > 0.0
    for prev, curr in zip(bad, bad[1:]):
        assert curr <= 0.5 * prev + 1e-15
    assert bad[-1] == 0.0


def test_pipeline_plateau_group_counts_small(plateau_run):
    assert plateau_run.group_count_history
    assert max(plateau_run.group_count_history) <= 200


def test_pipeline_plateau_graph_constants(plateau_run):
    nu = plateau_run.nu
    for stage in plateau_run.stages:
        if stage.graph_lipschitz.size:
            assert stage.graph_lipschitz.max() <= 0.5
            assert (
                stage.graph_lipschitz.max()
                <= ip.GRAPH_LIP_MULT * nu
            )
        assert stage.synth_offset_ratio <= ACCEPTANCE_MULT


def test_pipeline_plateau_normal_lipschitz_constant(plateau_run):
    nu = plateau_run.nu
    bound = ACCEPTANCE_MULT * nu
    for stage in plateau_run.stages:
        if stage.normal_lipschitz is None or not stage.normal_lipschitz.size:
            continue
        assert (stage.normal_lipschitz * stage.patch_gauge).max() <= bound


def test_pipeline_tail_bound_sane(plateau_run):
    res = plateau_run
    assert 0.0 <= res.tail_bound <= res.displacement_history[-1]


def test_pipeline_reports_input_frame_units(plateau_sample, plateau_run):
    # under a x2 dilation of the input, lengths double, areas quadruple and
    # the normal-field quotient (1 / length) halves
    res0 = plateau_run
    res1 = ip.iterate_parameterization(
        plateau_sample.transformed(scale=2.0), gamma_hint=0.0, nu=PLATEAU_NU
    )
    assert len(res0.stages) == len(res1.stages)

    def close(a, b):
        return np.allclose(a, b, rtol=1e-12, atol=0.0)

    assert close(res1.tail_bound, 2.0 * res0.tail_bound)
    assert close(res1.bad_weight_history, 4.0 * np.asarray(res0.bad_weight_history))
    assert res0.bad_weight_history[0] > 0.0
    for st0, st1 in zip(res0.stages, res1.stages):
        assert close(st1.patch_gauge, 2.0 * st0.patch_gauge)
        assert close(st1.overlap_mismatch, 2.0 * st0.overlap_mismatch)
        assert close(st1.normal_lipschitz, 0.5 * st0.normal_lipschitz)
    assert max(st.normal_lipschitz.max(initial=0.0) for st in res0.stages) > 0.0


def test_pipeline_equivariant_under_rigid_motion(plateau_sample, plateau_run):
    rot = _rotation(7)
    shift = np.array([0.4, -1.2, 2.0])
    moved = plateau_sample.transformed(rotation=rot, translation=shift)
    res0 = plateau_run
    res1 = ip.iterate_parameterization(moved, gamma_hint=0.0, nu=PLATEAU_NU)

    assert len(res0.stages) == len(res1.stages)
    for st0, st1 in zip(res0.stages, res1.stages):
        rows0, rows1 = st0.sample_rows, st1.sample_rows
        assert np.array_equal(
            np.sort(rows0[rows0 >= 0]), np.sort(rows1[rows1 >= 0])
        )
        kept0 = st0.points[rows0 >= 0] @ rot.T + shift
        assert np.abs(st1.points[rows1 >= 0] - kept0).max() <= 1e-6
        made0 = st0.points[rows0 < 0] @ rot.T + shift
        made1 = st1.points[rows1 < 0]
        assert len(made0) == len(made1)
        if len(made0):
            gaps, _ = cKDTree(made0).query(made1)
            assert gaps.max() <= 1e-6

    # the composed projection agrees as a point mapping
    src_gap, match = cKDTree(
        res0.map.source_points @ rot.T + shift
    ).query(res1.map.source_points)
    assert src_gap.max() <= 1e-6
    tgt0 = res0.map.target_points[match] @ rot.T + shift
    assert np.abs(res1.map.target_points - tgt0).max() <= 1e-6

    hist0 = np.asarray(res0.displacement_history)
    hist1 = np.asarray(res1.displacement_history)
    assert np.allclose(hist1, hist0, rtol=1e-9, atol=1e-15)
    assert res1.report.spread == pytest.approx(
        res0.report.spread, rel=1e-9
    )


def test_pipeline_deterministic_reruns():
    sample, _ = generate(SyntheticSpec(kind="flat_disk", n_points=1000))
    first = ip.iterate_parameterization(sample, gamma_hint=0.0, nu=0.05)
    second = ip.iterate_parameterization(sample, gamma_hint=0.0, nu=0.05)
    assert np.array_equal(first.stage0.points, second.stage0.points)
    assert np.array_equal(first.map.target_points, second.map.target_points)
    assert first.displacement_history == second.displacement_history
    for f in dataclasses.fields(ip.DistortionReport):
        a, b = getattr(first.report, f.name), getattr(second.report, f.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


def test_pipeline_uniform_slope_has_no_admissible_rows():
    sample, _ = generate(SyntheticSpec(kind="graph", n_points=800, eps=0.5))
    with pytest.raises(EmptyFineSet):
        ip.iterate_parameterization(sample, gamma_hint=0.0, nu=1e-3)


def test_error_types_are_toolkit_errors():
    for exc in (
        EmptyFineSet,
        GraphTestFailure,
        NoValidPreimage,
        NonContraction,
        UncoveredQuery,
        PointOutsideDomain,
    ):
        assert issubclass(exc, ToolkitError)
    assert issubclass(ip.MissingNormalField, UncoveredQuery)


# ---------------------------------------------------------------------------
# array-at-a-time stage construction against the per-point loops


def _check_graph_test(stage, patches=slice(None), exact=True):
    """The stage's graph test against the dense per-patch loop."""
    radii = ip.POU_SUPPORT_MULT * stage.patch_gauge
    args = (stage.points, stage.patch_centers[patches],
            stage.patch_bases[patches], radii[patches])
    some = dataclasses.replace(
        stage,
        patch_centers=stage.patch_centers[patches],
        patch_bases=stage.patch_bases[patches],
        patch_gauge=stage.patch_gauge[patches],
    )
    lips = ip._graph_lipschitz(some, lip_bound=np.inf)
    if exact:
        assert np.array_equal(lips, graph_lipschitz_loop(*args))
    else:
        assert np.allclose(lips, graph_lipschitz_loop(*args), rtol=1e-12, atol=1e-12)
    return lips


def _check_normals_and_projection(stage, sample, source_points, beta, candidates=12):
    """Normal blend, its Lipschitz quotients and the projection of
    `source_points` onto `stage` against the per-point loops."""
    radii = ip.POU_SUPPORT_MULT * stage.patch_gauge
    weights = ip._pou_matrix(
        stage.points, stage.patch_centers, radii, stage.support_balls()
    ).toarray()
    uncovered_synth = (weights.sum(axis=1) <= 0) & (stage.sample_rows < 0)
    bare = dataclasses.replace(stage, normal_projectors=None, normal_lipschitz=None)
    if uncovered_synth.any():
        with pytest.raises(UncoveredQuery):
            ip.normal_field(bare, sample)
        return
    blended = ip.normal_field(bare, sample)
    fallback = sample.tangent_bases[np.maximum(stage.sample_rows, 0)]
    projs = blended_normals_loop(weights, stage.patch_bases, fallback)
    assert np.abs(blended.normal_projectors - projs).max() <= 1e-12
    normal_lips = projector_lipschitz_loop(
        stage.points, blended.normal_projectors, stage.patch_centers, radii
    )
    assert np.allclose(blended.normal_lipschitz, normal_lips, rtol=1e-12, atol=1e-12)

    chosen, residuals = project_tau_scan(
        source_points, stage.points, blended.normal_projectors, stage.gauge,
        beta, candidates,
    )
    source = dataclasses.replace(stage, points=source_points)
    with mock.patch.object(ip, "TAU_CANDIDATES", candidates):
        if np.any(chosen < 0):
            with pytest.raises(NoValidPreimage):
                ip.project_tau(source, blended, beta)
            return
        tau = ip.project_tau(source, blended, beta)
    assert np.array_equal(tau.target_indices, chosen)
    assert np.abs(tau.tangential_residuals - residuals).max() <= 1e-12
    assert np.array_equal(tau.displacements, source_points - stage.points[chosen])


def test_stage_arrays_match_loops_on_refilled_hole(hole_case):
    _, _, stage, rerun, sample = hole_case
    assert np.array_equal(stage.graph_lipschitz, _check_graph_test(stage))
    _check_normals_and_projection(stage, sample, rerun.points, beta=0.1)


def test_stage_arrays_match_loops_on_plateau(plateau_sample, plateau_run):
    stages = plateau_run.stages
    for stage in stages:
        if stage.patch_centers.size:
            # every 7th patch keeps the dense reference loop fast
            _check_graph_test(stage, patches=slice(None, None, 7))
    # the first refilled stage after stage 0 is small enough for the
    # dense partition-of-unity table of the reference blend
    k = next(k for k in range(1, len(stages)) if stages[k].patch_centers.size)
    _check_normals_and_projection(
        stages[k], plateau_sample, stages[k - 1].points, plateau_run.beta
    )


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_stage_arrays_match_loops_on_random_stages(seed):
    rng = np.random.default_rng(seed)
    n_pts = int(rng.integers(6, 50))
    pts = rng.uniform(-1.0, 1.0, size=(n_pts, 3)) * np.array([1.0, 1.0, 0.2])
    n_patches = int(rng.integers(1, 6))
    centers = pts[rng.choice(n_pts, n_patches, replace=False)]
    tilts = rng.integers(0, 2**31, n_pts + n_patches)
    frames = np.stack([_rotation(int(t))[:2] for t in tilts])
    rows = np.where(rng.random(n_pts) < 0.1, -1, np.arange(n_pts))
    stage = ip.SmoothedSurfaceStage(
        index=0,
        points=pts,
        gauge=rng.uniform(0.0, 0.3, n_pts),
        sample_rows=rows,
        patch_centers=centers,
        patch_bases=frames[n_pts:],
        patch_gauge=rng.uniform(1.0, 4.0, n_patches),
        graph_lipschitz=np.zeros(n_patches),
        synth_offset_ratio=0.0,
        overlap_mismatch=0.0,
    )
    sample = WeightedSurfaceSample(pts, np.ones(n_pts), frames[:n_pts])
    n_src = int(rng.integers(1, 40))
    source = rng.uniform(-1.0, 1.0, size=(n_src, 3)) * np.array([1.0, 1.0, 0.6])
    _check_graph_test(stage, exact=False)
    _check_normals_and_projection(
        stage,
        sample,
        source,
        beta=float(10.0 ** rng.uniform(-3.0, 0.3)),
        candidates=int(rng.integers(1, 13)),
    )


def test_graph_test_rejects_steep_patch():
    # a normal jump of 1 over an in-plane step of 0.1 is 10-Lipschitz
    pts = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.1, 0.0, 1.0]])
    stage = ip.SmoothedSurfaceStage(
        index=0,
        points=pts,
        gauge=np.zeros(3),
        sample_rows=np.arange(3),
        patch_centers=np.zeros((1, 3)),
        patch_bases=np.eye(3)[:2][None],
        patch_gauge=np.array([4.0]),
        graph_lipschitz=np.zeros(1),
        synth_offset_ratio=0.0,
        overlap_mismatch=0.0,
    )
    with pytest.raises(GraphTestFailure, match="fails the graph test"):
        ip._graph_lipschitz(stage, lip_bound=1.0)
