"""Multiscale flatness, density, tilt, and square-function analysis.

Certifies quantitative flatness of a weighted surface sample over a dyadic
family of balls: per-ball density ratio, bilateral plane distance, tilt
excess, and the resulting worst-case constant.  Also provides least-squares
plane deviations (beta numbers), their scale-integrated square function,
one-sided maximal tilt, and coverage checks of the projection to a best
plane.

All per-ball quantities are pure functions of (sample, ball); the report
assembler merges them with associative max, so evaluation order never
matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .config import DEFAULT_CONFIG, AnalysisConfig
from .errors import (
    BallBelowResolution,
    DegenerateCloud,
    MissingCurvature,
    TooFewPoints,
)
from .geometry import Ball, Plane, WeightedSurfaceSample, fit_plane_pca
from .synthetic import disk_lattice

COVERING_MULT = 0.7


def resolution_floor(sample: WeightedSurfaceSample, mult: float = 8.0) -> float:
    """Smallest usable ball radius: below this, ball statistics are noise."""
    return mult * sample.mean_spacing


# ---------------------------------------------------------------------------
# per-ball functionals


def density_ratio(
    sample: WeightedSurfaceSample, ball: Ball, floor: float | None = None
) -> float:
    """Mass of the ball over the flat m-volume pi * r^m (m = 2)."""
    _require_resolution(sample, ball, floor)
    idx = sample.ball_query(ball.center, ball.radius)
    return _density_of(sample, idx, ball.radius)


def _require_resolution(sample, ball: Ball, floor: float | None) -> None:
    if floor is None:
        floor = resolution_floor(sample)
    if ball.radius < floor:
        raise BallBelowResolution(
            f"radius {ball.radius:.4g} below resolution floor {floor:.4g}"
        )


def _density_of(sample, idx: np.ndarray, radius: float) -> float:
    m = sample.intrinsic_dim
    mass = float(sample.weights[idx].sum())
    return mass / (_unit_ball_volume(m) * radius**m)


def _unit_ball_volume(m: int) -> float:
    from math import gamma as _gamma

    return float(np.pi ** (m / 2.0) / _gamma(m / 2.0 + 1.0))


@dataclass(frozen=True)
class FlatnessDetails:
    """Bilateral plane-distance estimate with its resolution error bar."""

    value: float
    plane: Plane
    raw: float
    error_bar: float


def reifenberg_flatness(
    sample: WeightedSurfaceSample,
    ball: Ball,
    refine: int = 2,
    covering_mult: float = COVERING_MULT,
):
    """Bilateral normalized distance to the best plane through the center.

    Returns
    -------
    (value, plane)
        value = d_H(points in ball, plane disk) / radius, minimized over a
        plane family seeded at the center-pinned least-squares plane and
        refined by local tilts; plane is the argmin.

    Notes
    -----
    The surface-to-plane direction is exact.  The plane-to-surface direction
    is measured against nearest sample points, which overshoots by the
    sample's covering radius even on a perfectly flat sample, so that
    direction is debiased by covering_mult * mean_spacing and clamped at
    zero.  The undebiased value and the error bar are available through
    flatness_details.
    """
    det = flatness_details(sample, ball, refine=refine, covering_mult=covering_mult)
    return det.value, det.plane


def flatness_details(
    sample: WeightedSurfaceSample,
    ball: Ball,
    refine: int = 2,
    covering_mult: float = COVERING_MULT,
) -> FlatnessDetails:
    """Best bilateral plane distance of the ball, with its raw value and
    resolution error bar.

    A plane through the center scores max(d1, d2) / sigma: d1 is the
    largest distance from a sample point of the ball to the sigma-disk of
    the plane, d2 the largest distance from a lattice point of that disk
    to the nearest sample point of the ball, less covering_mult *
    mean_spacing and clamped at zero (the raw score keeps d2 undebiased).
    The search starts at the center-pinned PCA plane.  Each of `refine`
    passes tilts every basis row of the current best plane toward each
    normal direction by +-step, walks these candidates in a fixed order
    and keeps any that scores strictly lower than the best so far; a pass
    without improvement halves the step.

    Only d2 needs a nearest-neighbor query of the whole lattice; d1 is a
    product with the ball's points, computed for all candidates of a pass
    at once.  A candidate with d1 / sigma >= best already scores at least
    best, since max(d1, d2) >= d1 and dividing by sigma keeps the order, so
    it is skipped without the lattice query.  Every other candidate is
    scored in full.  The winners, and hence the result, are exactly those
    of scoring every candidate.
    """
    idx = sample.ball_query(ball.center, ball.radius)
    grid = _disk_grid(sample, ball.radius)
    return _flatness_of(sample, idx, ball, refine, covering_mult, grid)


def _disk_grid(sample, sigma: float) -> np.ndarray:
    """Plane coordinates of the lattice that samples a sigma-disk."""
    h = sample.mean_spacing
    return disk_lattice(sigma, max(int(np.pi * sigma**2 / h**2), 16))


def _flatness_of(sample, idx, ball, refine, covering_mult, grid) -> FlatnessDetails:
    m = sample.intrinsic_dim
    if idx.size < m + 1:
        raise TooFewPoints(
            f"ball holds {idx.size} points, need at least {m + 1}"
        )
    pts = sample.points[idx]
    center = np.asarray(ball.center, dtype=float)
    rel = pts - center
    sigma = ball.radius
    h = sample.mean_spacing
    # nearest distances do not depend on the tree's shape; the unbalanced,
    # uncompacted tree is the quickest to build
    tree = cKDTree(pts, balanced_tree=False, compact_nodes=False)

    def surface_side(bases):
        """d1 of each plane of a (k, m, n) basis stack."""
        coords = rel @ bases.transpose(0, 2, 1)
        heights = rel - coords @ bases
        h2 = np.einsum("kij,kij->ki", heights, heights)
        rho = np.linalg.norm(coords, axis=2)
        overshoot = np.clip(rho - sigma, 0.0, None)
        return np.sqrt(np.max(h2 + overshoot**2, axis=1)).tolist()

    def measure(basis, d1):
        lifted = center + grid @ basis
        d2_raw = float(tree.query(lifted)[0].max())
        d2 = max(d2_raw - covering_mult * h, 0.0)
        return max(d1, d2) / sigma, max(d1, d2_raw) / sigma

    best_plane = fit_plane_pca(pts, dim=m, center=center, pin_to_center=True)
    best_basis = best_plane.basis
    best_val, best_raw = measure(best_basis, surface_side(best_basis[None])[0])
    step = max(best_raw, 2.0 * h / sigma)
    for _ in range(max(refine, 0)):
        improved = False
        cands = _tilted_bases(best_basis, step)
        for basis, d1 in zip(cands, surface_side(cands)):
            if d1 / sigma >= best_val:
                continue
            val, raw = measure(basis, d1)
            if val < best_val:
                best_basis, best_val, best_raw = basis, val, raw
                improved = True
        if not improved:
            step /= 2.0
    if best_basis is not best_plane.basis:
        best_plane = Plane(basis=best_basis.copy(), basepoint=center)
    return FlatnessDetails(
        value=best_val,
        plane=best_plane,
        raw=best_raw,
        error_bar=covering_mult * h / sigma,
    )


def _tilted_bases(basis: np.ndarray, angle: float) -> np.ndarray:
    """Neighbors of a plane, as a (k, m, n) stack of orthonormal bases:
    each basis row tilted toward each normal by +-angle, in that order."""
    m, n = basis.shape
    normal_basis = _normal_space(basis)
    stack = []
    for i in range(m):
        for nu in normal_basis:
            for s in (angle, -angle):
                rows = basis.copy()
                rows[i] = np.cos(s) * basis[i] + np.sin(s) * nu
                stack.append(rows)
    q, _ = np.linalg.qr(np.stack(stack).transpose(0, 2, 1))
    return np.ascontiguousarray(q.transpose(0, 2, 1))


def _normal_space(basis: np.ndarray) -> np.ndarray:
    m, n = basis.shape
    proj = np.eye(n) - basis.T @ basis
    q, r = np.linalg.qr(proj)
    diag = np.abs(np.diag(r))
    cols = np.argsort(diag)[::-1][: n - m]
    return q[:, np.sort(cols)].T


def tilt_excess(
    sample: WeightedSurfaceSample, ball: Ball, plane: Plane
) -> float:
    """Scale-normalized integral of squared projector distance to the plane."""
    idx = sample.ball_query(ball.center, ball.radius)
    return _tilt_of(sample, idx, ball.radius, plane)


def _tilt_of(sample, idx: np.ndarray, radius: float, plane: Plane) -> float:
    m = sample.intrinsic_dim
    if idx.size < 1:
        raise TooFewPoints("empty ball")
    P = sample.tangent_projectors[idx]
    Q = plane.projector
    diff = P - Q
    sq = np.einsum("nij,nij->n", diff, diff)
    return float((sample.weights[idx] * sq).sum() / radius**m)


def caccioppoli_bound_check(
    sample: WeightedSurfaceSample,
    ball: Ball,
    alpha: float,
    H_field: np.ndarray | None,
    plane: Plane | None = None,
):
    """Tilt at scale sigma against its curvature-plus-height majorant.

    The bound holds for any reference plane; by default the best flatness
    plane of the ball is used, but an explicit plane may be supplied.

    Returns
    -------
    (lhs, rhs)
        lhs = tilt excess on the ball against the reference plane;
        rhs = integral of |H|^2 over the (1+alpha)-enlarged ball plus
        (1 + 1/alpha)^2 sigma^{-4} times the integral of squared plane
        distance over the enlarged ball.  The caller supplies the
        calibration constant when comparing the two.
    """
    if H_field is None:
        raise MissingCurvature("mean-curvature field required")
    H_field = np.asarray(H_field, dtype=float)
    if H_field.shape != sample.points.shape:
        raise MissingCurvature("mean-curvature field must align with sample rows")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if plane is None:
        _, plane = reifenberg_flatness(sample, ball)
    lhs = tilt_excess(sample, ball, plane)
    sigma = ball.radius
    center = np.asarray(ball.center, dtype=float)
    idx = sample.ball_query(center, (1.0 + alpha) * sigma)
    w = sample.weights[idx]
    curv = float((w * np.einsum("ij,ij->i", H_field[idx], H_field[idx])).sum())
    rel = sample.points[idx] - center
    heights = rel - (rel @ plane.basis.T) @ plane.basis
    hgt = float((w * np.einsum("ij,ij->i", heights, heights)).sum())
    rhs = curv + (1.0 + 1.0 / alpha) ** 2 * hgt / sigma**4
    return lhs, rhs


def jones_beta(
    sample: WeightedSurfaceSample, center, scale: float
) -> float:
    """Least-squares plane deviation, scale^-(m+2) weighted square distance.

    The weighted principal plane through the weighted centroid is the exact
    minimizer of the squared-distance functional, so no search is involved.
    A ball of at most m points, or one whose points span fewer than m
    directions, deviates by 0.
    """
    center = np.asarray(center, dtype=float)
    idx = sample.ball_query(center, scale)
    if idx.size == 0:
        raise TooFewPoints("empty ball")
    return float(_beta_rows(sample, [idx], scale)[0])


# rows per block of the batched beta table; at the 0.21 scale of a 12k-point
# unit disk (~540 points per ball) its padded (rows, points, n) temporaries
# stay near 2 MB, where 64 rows already raised the peak memory by 5 MB
_BETA_BLOCK = 16


def _beta_rows(sample, balls, scale: float) -> np.ndarray:
    """jones_beta of a block of balls, each given by its sample rows.

    The balls are padded to a common length with zero weights and fitted
    together: weighted centroids and covariances of the whole block, one
    stacked eigh, and the same rank test as fit_plane_pca.
    """
    m = sample.intrinsic_dim
    counts = np.array([len(b) for b in balls], dtype=int)
    out = np.zeros(len(balls))
    fit = np.flatnonzero(counts > m)
    if fit.size == 0:
        return out
    filled = np.arange(counts[fit].max()) < counts[fit, None]
    idx = np.zeros(filled.shape, dtype=int)
    idx[filled] = np.concatenate([np.asarray(balls[r], dtype=int) for r in fit])
    w = np.where(filled, sample.weights[idx], 0.0)
    pts = sample.points[idx]
    total = w.sum(axis=1)
    centroid = (w[..., None] * pts).sum(axis=1) / total[:, None]
    rel = pts - centroid[:, None, :]
    cov = (rel * w[..., None]).transpose(0, 2, 1) @ rel / total[:, None, None]
    evals, evecs = np.linalg.eigh(cov)
    # eigh sorts ascending: the m-th largest eigenvalue is evals[:, -m]
    rank_tol = np.maximum(np.maximum(evals[:, -1], 0.0) * 1e-12, 1e-300)
    spans = evals[:, -m] > rank_tol
    basis = evecs[:, :, -m:]
    heights = rel - (rel @ basis) @ basis.transpose(0, 2, 1)
    d2 = np.einsum("bki,bki->bk", heights, heights)
    out[fit] = np.where(spans, (w * d2).sum(axis=1) / scale ** (m + 2), 0.0)
    return out


def carleson_scales(
    sigma: float, floor: float, refine: int = 1
) -> np.ndarray:
    """Geometric midpoint scales of the dyadic log partition of [floor, sigma]."""
    step = np.log(2.0) / max(refine, 1)
    out = []
    k = 0
    while True:
        s = sigma * np.exp(-(k + 0.5) * step)
        if s < floor:
            break
        out.append(s)
        k += 1
    return np.asarray(out)


def carleson_sum(
    sample: WeightedSurfaceSample,
    xi,
    sigma: float,
    floor: float | None = None,
    refine: int = 1,
):
    """Scale-integrated square function of plane deviations over a ball.

    Discretizes the double integral of beta^2(y, s) ds/s dmu(y) by the
    dyadic midpoint rule in log s and the sample's own quadrature in y.

    Returns
    -------
    (value, normalized)
        normalized = value / (pi sigma^2); the integral of ``beta_report``.
    """
    r = beta_report(sample, xi, sigma, floor=floor, refine=refine)
    return r.carleson, r.carleson_normalized


def carleson_chain_majorant(
    sample: WeightedSurfaceSample, xi, sigma: float
) -> float:
    """Double sum bounding the square function by radial tilt defects.

    2 * sum over z in B(xi, 2 sigma) of w_z * sum over y in B(z, sigma) of
    w_y |(I - P_y)(y - z)|^2 / |y - z|^4.
    """
    xi = np.asarray(xi, dtype=float)
    zi = sample.ball_query(xi, 2.0 * sigma)
    P = sample.tangent_projectors
    total = 0.0
    for iz in zi:
        z = sample.points[iz]
        yi = sample.ball_query(z, sigma)
        yi = yi[yi != iz]
        if yi.size == 0:
            continue
        d = sample.points[yi] - z
        r2 = np.einsum("ij,ij->i", d, d)
        tang = np.einsum("nij,nj->ni", P[yi], d)
        perp = d - tang
        val = np.einsum("ij,ij->i", perp, perp) / r2**2
        total += sample.weights[iz] * float((sample.weights[yi] * val).sum())
    return 2.0 * total


def local_maximal_tilt(
    sample: WeightedSurfaceSample,
    x,
    r_max: float,
    reference: Plane,
    floor: float | None = None,
    refine: int = 1,
) -> float:
    """Sup over dyadic scales of the average first-power projector distance."""
    if floor is None:
        floor = resolution_floor(sample)
    if r_max < floor:
        raise BallBelowResolution(
            f"r_max {r_max:.4g} below resolution floor {floor:.4g}"
        )
    x = np.asarray(x, dtype=float)
    Q = reference.projector
    best = 0.0
    step = 2.0 ** (1.0 / max(refine, 1))
    s = r_max
    while s >= floor:
        idx = sample.ball_query(x, s)
        if idx.size:
            P = sample.tangent_projectors[idx]
            diff = P - Q
            dist = np.sqrt(np.einsum("nij,nij->n", diff, diff))
            w = sample.weights[idx]
            best = max(best, float((w * dist).sum() / w.sum()))
        s /= step
    return best


def projection_no_hole_check(
    sample: WeightedSurfaceSample,
    xi,
    sigma: float,
    cover_mult: float = 1.5,
):
    """Coverage of the target disk by the plane projection of the sample.

    Projects the sample inside the vertical cylinder of radius sigma over
    the best local plane, rasterizes the sigma-disk at mean-spacing
    resolution, and reports raster cells with no projected point within
    cover_mult radii of the cell spacing.

    Returns
    -------
    (passed, gaps)
        gaps are ambient locations of uncovered cells on the plane.
    """
    xi = np.asarray(xi, dtype=float)
    _, plane = reifenberg_flatness(sample, Ball(xi, sigma))
    rel = sample.points - xi
    coords = rel @ plane.basis.T
    heights = rel - coords @ plane.basis
    in_cyl = (np.linalg.norm(coords, axis=1) <= sigma) & (
        np.linalg.norm(heights, axis=1) <= sigma
    )
    proj = coords[in_cyl]
    h = sample.mean_spacing
    grid = _disk_grid(sample, sigma)
    if proj.shape[0] == 0:
        gaps = xi + grid @ plane.basis
        return False, gaps
    tree = cKDTree(proj)
    dist = tree.query(grid)[0]
    bad = dist > cover_mult * h
    gaps = xi + grid[bad] @ plane.basis
    return bool(not bad.any()), gaps


# ---------------------------------------------------------------------------
# family-level reports


@dataclass(frozen=True)
class ScaleFamily:
    """Dyadic (center, radius) family inside a declared domain ball."""

    centers: np.ndarray
    radii: tuple
    min_radius_floor: float
    domain: Ball

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=float)
        if radii.size == 0 or np.any(np.diff(radii) >= 0):
            raise ValueError("radii must be strictly decreasing")
        if radii[-1] < self.min_radius_floor:
            raise ValueError("smallest radius falls below the floor")
        centers = np.asarray(self.centers, dtype=float)
        dom_c = np.asarray(self.domain.center, dtype=float)
        reach = np.linalg.norm(centers - dom_c, axis=1) + radii[0]
        if np.any(reach > self.domain.radius + 1e-12):
            raise ValueError("some ball leaves the declared domain")

    def pairs(self):
        for r in self.radii:
            for c in self.centers:
                yield c, float(r)


def build_scale_family(
    sample: WeightedSurfaceSample,
    domain: Ball,
    sigma_max: float | None = None,
    floor: float | None = None,
    net_factor: float = 3.0,
    config: AnalysisConfig = DEFAULT_CONFIG,
) -> ScaleFamily:
    """Dyadic radii from sigma_max down to the floor, centers on a net.

    Centers are greedily thinned sample points at spacing min(radii) /
    net_factor, restricted so every ball at the largest radius stays inside
    the domain.
    """
    if floor is None:
        floor = resolution_floor(sample, config.floor_mult)
    if sigma_max is None:
        sigma_max = domain.radius / 2.0
    radii = []
    r = float(sigma_max)
    while r >= floor:
        radii.append(r)
        r /= 2.0
    if not radii:
        raise BallBelowResolution(
            f"sigma_max {sigma_max:.4g} below resolution floor {floor:.4g}"
        )
    dom_c = np.asarray(domain.center, dtype=float)
    dist = np.linalg.norm(sample.points - dom_c, axis=1)
    eligible = np.flatnonzero(dist <= domain.radius - sigma_max)
    if eligible.size == 0:
        raise BallBelowResolution("no sample point admits the largest radius")
    spacing = radii[-1] / net_factor
    centers = _greedy_net(sample.points[eligible], spacing)
    return ScaleFamily(
        centers=centers,
        radii=tuple(radii),
        min_radius_floor=floor,
        domain=domain,
    )


def _greedy_net(points: np.ndarray, spacing: float) -> np.ndarray:
    """First-come separated subset at the given spacing."""
    tree = cKDTree(points)
    taken = np.zeros(len(points), dtype=bool)
    blocked = np.zeros(len(points), dtype=bool)
    for i in range(len(points)):
        if blocked[i]:
            continue
        taken[i] = True
        for j in tree.query_ball_point(points[i], spacing):
            blocked[j] = True
    return points[taken]


@dataclass(frozen=True)
class BallStats:
    """Per-ball certification record."""

    center: np.ndarray
    radius: float
    density_ratio: float
    flatness: float
    flatness_raw: float
    flatness_error: float
    tilt_excess: float
    plane: Plane

    @property
    def local_gamma(self) -> float:
        return max(
            abs(self.density_ratio - 1.0),
            self.flatness,
            float(np.sqrt(self.tilt_excess)),
        )


@dataclass
class ChordArcReport:
    """Certification summary over a scale family."""

    balls: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    floor: float = 0.0

    @property
    def gamma(self) -> float:
        if not self.balls:
            return float("nan")
        return max(b.local_gamma for b in self.balls)

    def to_dict(self) -> dict:
        return {
            "balls": [
                {
                    "center": [float(v) for v in b.center],
                    "radius": float(b.radius),
                    "density": float(b.density_ratio),
                    "flatness": float(b.flatness),
                    "tilt": float(b.tilt_excess),
                }
                for b in self.balls
            ],
            "gamma": float(self.gamma),
        }


def certify_chord_arc(
    sample: WeightedSurfaceSample,
    domain: Ball,
    family: ScaleFamily,
    config: AnalysisConfig = DEFAULT_CONFIG,
) -> ChordArcReport:
    """Evaluate all three per-ball functionals over the family.

    Per-ball failures are recorded in the report and skipped, never fatal.
    The tilt term is measured against the flatness argmin plane of the same
    ball.  Each ball is queried once and its rows shared by the three
    functionals, and balls of one radius share one flatness lattice; the
    results are what density_ratio, flatness_details and tilt_excess give
    on that ball.
    """
    report = ChordArcReport(floor=family.min_radius_floor)
    grids = {r: _disk_grid(sample, r) for r in family.radii}
    for center, radius in family.pairs():
        ball = Ball(center, radius)
        try:
            _require_resolution(sample, ball, family.min_radius_floor)
            idx = sample.ball_query(ball.center, radius)
            dens = _density_of(sample, idx, radius)
            det = _flatness_of(
                sample, idx, ball, config.flatness_refine, COVERING_MULT, grids[radius]
            )
            tilt = _tilt_of(sample, idx, radius, det.plane)
        except (BallBelowResolution, TooFewPoints, DegenerateCloud) as exc:
            report.errors.append(
                f"ball({np.array2string(np.asarray(center), precision=3)}, "
                f"{radius:.4g}): {type(exc).__name__}: {exc}"
            )
            continue
        report.balls.append(
            BallStats(
                center=np.asarray(center, dtype=float),
                radius=radius,
                density_ratio=dens,
                flatness=det.value,
                flatness_raw=det.raw,
                flatness_error=det.error_bar,
                tilt_excess=tilt,
                plane=det.plane,
            )
        )
    return report


@dataclass
class BetaReport:
    """Per-center, per-scale squared plane deviations with their integral."""

    center: np.ndarray
    sigma: float
    scales: np.ndarray
    point_indices: np.ndarray
    beta_sq: np.ndarray
    carleson: float
    carleson_normalized: float

    def profile(self) -> np.ndarray:
        """(scale, mean beta^2) rows for plotting."""
        return np.stack([self.scales, self.beta_sq.mean(axis=0)], axis=1)

    def to_dict(self) -> dict:
        return {
            "center": [float(v) for v in self.center],
            "sigma": float(self.sigma),
            "scales": [float(s) for s in self.scales],
            "carleson": float(self.carleson),
            "carleson_normalized": float(self.carleson_normalized),
            "beta_sq_mean": [float(v) for v in self.beta_sq.mean(axis=0)],
        }


def beta_report(
    sample: WeightedSurfaceSample,
    xi,
    sigma: float,
    floor: float | None = None,
    refine: int = 1,
) -> BetaReport:
    """Tabulate beta^2 over points of the ball and the dyadic scale set."""
    if floor is None:
        floor = resolution_floor(sample)
    if sigma < 4.0 * floor:
        raise BallBelowResolution(
            f"sigma {sigma:.4g} below 4x floor {floor:.4g}"
        )
    xi = np.asarray(xi, dtype=float)
    scales = carleson_scales(sigma, floor, refine)
    idx = sample.ball_query(xi, sigma)
    table = np.zeros((idx.size, scales.size))
    tree = sample.spatial_index
    for col, s in enumerate(scales.tolist()):
        for lo in range(0, idx.size, _BETA_BLOCK):
            rows = idx[lo : lo + _BETA_BLOCK]
            balls = tree.query_ball_point(sample.points[rows], s, return_sorted=True)
            table[lo : lo + rows.size, col] = _beta_rows(sample, balls, s)
    step = np.log(2.0) / max(refine, 1)
    value = float((sample.weights[idx][:, None] * table).sum() * step)
    m = sample.intrinsic_dim
    return BetaReport(
        center=xi,
        sigma=float(sigma),
        scales=scales,
        point_indices=idx,
        beta_sq=table,
        carleson=value,
        carleson_normalized=value / (_unit_ball_volume(m) * sigma**m),
    )
