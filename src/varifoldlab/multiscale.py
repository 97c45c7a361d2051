"""Multiscale flatness, density, tilt, and square-function analysis.

Certifies quantitative flatness of a weighted surface sample over a dyadic
family of balls: per-ball density ratio, bilateral plane distance, tilt
excess, and the resulting worst-case constant.  Also provides least-squares
plane deviations (beta numbers) and their scale-integrated square function,
the maximal-tilt kernel of `iterated_projection.extract_fine_set`, and
coverage checks of the projection to a best plane.  Each statistic has one
public batched entry: `certify_chord_arc` for the per-ball functionals,
`beta_report` for beta.

All per-ball quantities are pure functions of (sample, ball); the report
assembler merges them with associative max, so evaluation order never
matters.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    BallBelowResolution,
    DegenerateCloud,
    DimensionMismatch,
    InvalidScale,
    MissingCurvature,
    PointOutsideDomain,
    TooFewPoints,
)
from .geometry import (
    Ball,
    Plane,
    WeightedSurfaceSample,
    _pca_plane,
    _plane_split,
    _principal_frames,
    _require_point,
    _require_positive,
    _require_rows,
    _second_moments,
    _span_projectors,
)
from .synthetic import disk_lattice

# The plane-to-surface distance d2 of the flatness search (`_flatness_of`)
# is debiased by this multiple of mean_spacing: nearest sample points
# overshoot by the covering radius even on a perfectly flat sample.
COVERING_MULT = 0.7
# Tilt passes of the `_flatness_of` search after the PCA plane.
FLATNESS_PASSES = 2


def resolution_floor(sample: WeightedSurfaceSample, mult: float = 8.0) -> float:
    """Smallest usable ball radius, `mult` mean spacings (positive and
    finite, else InvalidScale): below this, ball statistics are noise."""
    _require_positive(mult, "resolution floor multiple")
    return mult * sample.mean_spacing


# ---------------------------------------------------------------------------
# per-ball kernels: `certify_chord_arc` runs them on every ball of a family


def _require_scales(radius: float, floor: float) -> None:
    """Refuse a dyadic scale range [floor, radius] that a halving loop from
    `radius` would never leave."""
    if not np.isfinite(radius):
        raise InvalidScale(f"radius {radius} is not finite")
    _require_positive(floor, "resolution floor")


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


def _disk_grid(sample, sigma: float) -> np.ndarray:
    """Plane coordinates of the lattice that samples a sigma-disk."""
    h = sample.mean_spacing
    return disk_lattice(sigma, max(int(np.pi * sigma**2 / h**2), 16))


def _flatness_of(sample, idx, ball, grid) -> FlatnessDetails:
    """Bilateral (Reifenberg) flatness of `ball`, given its sorted sample
    rows `idx` and the `_disk_grid` lattice of its radius: the best
    normalized distance to a plane through the center, with its argmin
    plane, its raw value and its resolution error bar.  A ball of at most
    m points raises TooFewPoints, one whose points span fewer than m
    directions DegenerateCloud.

    A plane through the center scores max(d1, d2) / sigma: d1 is the
    largest distance from a sample point of the ball to the sigma-disk of
    the plane, d2 the largest distance from a lattice point of that disk
    to the nearest sample point of the ball, less COVERING_MULT *
    mean_spacing and clamped at zero (the raw score keeps d2 undebiased;
    the error bar is COVERING_MULT * mean_spacing / sigma).  The search
    starts at the center-pinned PCA plane.  Each of FLATNESS_PASSES
    passes tilts every basis row of the current best plane toward each
    normal direction by +-step, walks these candidates in a fixed order
    and keeps any that scores strictly lower than the best so far; a pass
    without improvement halves the step.

    Only d2 needs a nearest-neighbor query of the whole lattice; d1 is a
    product with the ball's points, and two lower bounds on it spare most
    of the work.  Tilting basis row e_i toward normal nu_j by s leaves the
    unit vector cos(s) nu_j - sin(s) e_i normal to the candidate, so its
    d1 is at least max_p |cos(s) <p, nu_j> - sin(s) <p, e_i>| over the
    points p of the ball, taken from the center.  When every candidate's
    bound over sigma, less a margin of 1e-9 that rounding stays far below,
    is at least the best score, no candidate can win: the pass is skipped
    without building its candidates, and the step halves.  In a pass that
    runs, d1 of all candidates comes from one stacked product, and a
    candidate with d1 / sigma >= best already scores at least best, since
    max(d1, d2) >= d1, so it is skipped without the lattice query.  The
    lattice query is bounded by mean_spacing; the lattice points with no
    sample point that close are queried again without a bound, so each
    distance, and d2, is the exact nearest distance.  The winners, and
    hence the result, are exactly those of scoring every candidate.  A
    sample with no normal direction (m = n) has no candidates.
    """
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
        coords, heights = _plane_split(rel, bases)
        h2 = np.einsum("kij,kij->ki", heights, heights)
        rho = np.linalg.norm(coords, axis=2)
        overshoot = np.clip(rho - sigma, 0.0, None)
        return np.sqrt(np.max(h2 + overshoot**2, axis=1)).tolist()

    def measure(basis, d1):
        lifted = center + grid @ basis
        dist = tree.query(lifted, distance_upper_bound=h)[0]
        far = np.isinf(dist)
        if far.any():
            dist[far] = tree.query(lifted[far])[0]
        d2_raw = float(dist.max())
        d2 = max(d2_raw - COVERING_MULT * h, 0.0)
        return max(d1, d2) / sigma, max(d1, d2_raw) / sigma

    # the center-pinned fit_plane_pca of the checked rows
    best_plane = _pca_plane(rel, np.ones(len(rel)), m, center)
    best_basis = best_plane.basis
    best_val, best_raw = measure(best_basis, surface_side(best_basis[None])[0])
    step = max(best_raw, 2.0 * h / sigma)
    framed = None  # the basis that `normals` and `coords` belong to
    for _ in range(FLATNESS_PASSES):
        if framed is not best_basis:
            framed, normals = best_basis, _normal_space(best_basis)
            coords = np.concatenate([best_basis, normals]) @ rel.T
        bound = _tilt_bounds(coords[:m], coords[m:], step).min(initial=np.inf)
        if bound / sigma - 1e-9 >= best_val:
            step /= 2.0  # no candidate of the pass can win
            continue
        improved = False
        cands = _tilted_bases(best_basis, normals, step)
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
        error_bar=COVERING_MULT * h / sigma,
    )


def _tilted_bases(basis: np.ndarray, normals: np.ndarray, angle: float) -> np.ndarray:
    """Neighbors of a plane, as a (k, m, n) stack of orthonormal bases:
    each basis row tilted toward each row of `normals` (`_normal_space` of
    the basis) by +-angle, in that order."""
    stack = []
    for i in range(len(basis)):
        for nu in normals:
            for s in (angle, -angle):
                rows = basis.copy()
                rows[i] = np.cos(s) * basis[i] + np.sin(s) * nu
                stack.append(rows)
    q, _ = np.linalg.qr(np.stack(stack).transpose(0, 2, 1))
    return np.ascontiguousarray(q.transpose(0, 2, 1))


def _tilt_bounds(coords: np.ndarray, normal_coords: np.ndarray, angle: float) -> np.ndarray:
    """The d1 lower bounds of `_flatness_of` for the `_tilted_bases`
    candidates, in their order, from the coordinates (m, N) and
    normal_coords (n - m, N) of the ball's points along e_i and nu_j."""
    c = np.sin(angle) * coords[:, None, :]
    t = np.cos(angle) * normal_coords[None, :, :]
    return np.abs(np.stack([t - c, t + c], axis=2)).max(axis=3).ravel()


def _normal_space(basis: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the complement of `basis`: the QR columns
    of I - B^T B with the n - m largest |R_ii|, in column order."""
    m, n = basis.shape
    proj = np.eye(n) - _span_projectors(basis)
    q, r = np.linalg.qr(proj)
    diag = np.abs(np.diag(r))
    cols = np.argsort(diag)[::-1][: n - m]
    return q[:, np.sort(cols)].T


def _tilt_of(sample, idx: np.ndarray, radius: float, plane: Plane) -> float:
    """Scale-normalized integral of the squared projector distance to
    `plane` over the sample rows `idx` of a ball of `radius`."""
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
    plane of the ball is used, but an explicit plane may be supplied.  A
    plane in another ambient space than the sample, or of another dimension
    than the sample's intrinsic dimension, raises DimensionMismatch.

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
    _require_positive(alpha, "alpha")
    sigma = ball.radius
    idx = sample.ball_query(ball.center, sigma)
    if plane is None:
        plane = _flatness_of(sample, idx, ball, _disk_grid(sample, sigma)).plane
    elif plane.ambient_dim != sample.ambient_dim:
        raise DimensionMismatch(
            f"plane in R^{plane.ambient_dim}, sample in R^{sample.ambient_dim}"
        )
    elif plane.dim != sample.intrinsic_dim:
        raise DimensionMismatch(
            f"{plane.dim}-plane, sample of intrinsic dimension {sample.intrinsic_dim}"
        )
    lhs = _tilt_of(sample, idx, sigma, plane)
    idx = sample.ball_query(ball.center, (1.0 + alpha) * sigma)
    w = sample.weights[idx]
    curv = float((w * np.einsum("ij,ij->i", H_field[idx], H_field[idx])).sum())
    rel = sample.points[idx] - ball.center
    heights = _plane_split(rel, plane.basis)[1]
    hgt = float((w * np.einsum("ij,ij->i", heights, heights)).sum())
    rhs = curv + (1.0 + 1.0 / alpha) ** 2 * hgt / sigma**4
    return lhs, rhs


def _beta_rows(sample, cand, inside, scale: float) -> np.ndarray:
    """Jones beta^2 of a block of balls of radius `scale` that share one
    candidate set: the least-squares plane deviation, scale^-(m+2) times
    the weighted squared distance to the weighted principal plane through
    the weighted centroid, its exact minimizer.

    `cand` holds sorted sample rows and `inside` (b, K) marks the rows of
    each ball.  Points outside a ball weigh zero: weighted centroids and
    covariances of the whole block, then one `geometry._principal_frames`
    call gives the planes and the rank test of fit_plane_pca.  A ball of at
    most m points, or one whose points span fewer than m directions,
    deviates by 0.
    """
    m = sample.intrinsic_dim
    out = np.zeros(len(inside))
    fit = np.flatnonzero(inside.sum(axis=1) > m)
    if fit.size == 0:
        return out
    w = np.where(inside[fit], sample.weights[cand], 0.0)
    pts = sample.points[cand]
    centroid = (w @ pts) / w.sum(axis=1)[:, None]
    rel = pts - centroid[:, None, :]
    _, frames, spans = _principal_frames(_second_moments(rel, w), m)
    # plane rows in ascending eigenvalue order: the descending order sums
    # each projection the other way round, which moves beta by up to 1e-14
    # relative where the heights cancel
    heights = _plane_split(rel, frames[:, m - 1 :: -1])[1]
    d2 = np.einsum("bki,bki->bk", heights, heights)
    out[fit] = np.where(spans, (w * d2).sum(axis=1) / scale ** (m + 2), 0.0)
    return out


def carleson_scales(sigma: float, floor: float) -> np.ndarray:
    """Geometric midpoint scales of the dyadic log partition of [floor, sigma].

    A non-finite sigma or a floor that is not positive and finite raises
    `InvalidScale`.
    """
    _require_scales(sigma, floor)
    step = np.log(2.0)
    out = []
    k = 0
    while True:
        s = sigma * np.exp(-(k + 0.5) * step)
        if s < floor:
            break
        out.append(s)
        k += 1
    return np.asarray(out)


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


def _maximal_tilts(sample, cand, d2, r_max, normals, floor) -> np.ndarray:
    """Maximal tilt of a block of rows that share one candidate set: the
    sup over dyadic scales of the weighted mean projector distance
    |P - Q|_F to a reference plane Q.

    `cand` holds sorted sample rows, `d2` (b, K) their squared distances to
    the b centers, `r_max` (b,) the largest radius per center and `normals`
    (b, n - m, n) orthonormal normal frames N of each reference plane Q.
    Row i scores the balls ``d2 <= s * s`` for s = r_max[i], r_max[i] /
    2, ... while s >= floor, each scale halved from the one before.  For
    an orthonormal tangent basis B_k, ``|P_k - Q|_F = sqrt(2) |B_k N^T|_F``,
    so every distance of the block comes from one (K m, n) @ (n, b (n - m))
    product, which matches explicit projector differences to rtol 1e-10,
    not bit for bit.  The result is the largest weighted mean distance over
    the row's non-empty balls, and 0 when all are empty.
    """
    scales = []
    s = np.asarray(r_max, dtype=float)
    while np.any(s >= floor):
        scales.append(np.where(s >= floor, s, np.nan))  # NaN: no ball
        s = s / 2.0
    m, n = sample.intrinsic_dim, sample.ambient_dim
    b, c = normals.shape[:2]
    frames = sample.tangent_bases[cand].reshape(-1, n)
    prod = (frames @ normals.reshape(-1, n).T).reshape(-1, m, b * c)
    sq = np.square(prod).sum(axis=1).reshape(-1, b, c).sum(axis=2)
    dist = np.sqrt(2.0 * sq).T
    w = sample.weights[cand]
    inside = d2[:, None, :] <= np.square(np.stack(scales, axis=1))[:, :, None]
    mass = inside @ w
    moment = (inside @ (w * dist)[:, :, None])[..., 0]
    means = np.divide(moment, mass, out=np.zeros_like(mass), where=mass > 0)
    return means.max(axis=1, initial=0.0)


# A raster cell of `projection_no_hole_check` is a gap when no projected
# point lies within this multiple of the cell spacing.
NO_HOLE_COVER_MULT = 1.5


def projection_no_hole_check(
    sample: WeightedSurfaceSample,
    xi,
    sigma: float,
):
    """Coverage of the target disk by the plane projection of the sample.

    Projects the sample inside the vertical cylinder of radius sigma over
    the best local plane (the `_flatness_of` argmin), rasterizes the
    sigma-disk at mean-spacing resolution, and reports raster cells with no
    projected point within NO_HOLE_COVER_MULT radii of the cell spacing.

    Returns
    -------
    (passed, gaps)
        gaps are ambient locations of uncovered cells on the plane.
    """
    ball = Ball(xi, sigma)
    xi = ball.center
    grid = _disk_grid(sample, sigma)
    plane = _flatness_of(sample, sample.ball_query(xi, sigma), ball, grid).plane
    coords, heights = _plane_split(sample.points - xi, plane.basis)
    in_cyl = (np.linalg.norm(coords, axis=1) <= sigma) & (
        np.linalg.norm(heights, axis=1) <= sigma
    )
    proj = coords[in_cyl]
    h = sample.mean_spacing
    if proj.shape[0] == 0:
        return False, plane.lift(grid)
    tree = cKDTree(proj)
    dist = tree.query(grid)[0]
    bad = dist > NO_HOLE_COVER_MULT * h
    return bool(not bad.any()), plane.lift(grid[bad])


# ---------------------------------------------------------------------------
# family-level reports


@dataclass(frozen=True)
class ScaleFamily:
    """Dyadic (center, radius) family inside a declared domain ball.

    Raises InvalidScale unless the radii are positive and finite and
    strictly decrease to at least a positive finite floor, and
    `_require_inside` refuses centers that are not (k, n) in the domain's
    dimension or whose balls leave the domain.
    """

    centers: np.ndarray
    radii: tuple
    min_radius_floor: float
    domain: Ball

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=float)
        for r in radii:
            _require_positive(r, "family radius")
        _require_positive(self.min_radius_floor, "resolution floor")
        if radii.size == 0 or np.any(np.diff(radii) >= 0):
            raise InvalidScale(f"radii {radii} are not strictly decreasing")
        if radii[-1] < self.min_radius_floor:
            raise InvalidScale(
                f"smallest radius {radii[-1]:.4g} falls below the floor "
                f"{self.min_radius_floor:.4g}"
            )
        centers = _require_inside(self.domain, self.centers, radii[0])
        object.__setattr__(self, "centers", centers)

    def pairs(self):
        for r in self.radii:
            for c in self.centers:
                yield c, float(r)


def _require_inside(domain: Ball, centers, radius: float) -> np.ndarray:
    """`centers` as finite (k, n) rows in the dimension n of `domain`, else
    DimensionMismatch or NonFiniteInput; PointOutsideDomain names the first
    center whose ball of `radius` reaches beyond the domain by more than
    1e-12."""
    centers = _require_rows(centers, len(domain.center), "family center")
    reach = np.linalg.norm(centers - domain.center, axis=1) + radius
    out = np.flatnonzero(reach > domain.radius + 1e-12)
    if out.size:
        raise PointOutsideDomain(
            f"ball of center row {out[0]} reaches {reach[out[0]]:.4g} from "
            f"the domain center, beyond the domain radius {domain.radius:.4g}"
        )
    return centers


# Net spacing of the scale-family centers, in units of the smallest radius.
NET_FACTOR = 3.0


def build_scale_family(
    sample: WeightedSurfaceSample,
    domain: Ball,
    sigma_max: float | None = None,
    floor: float | None = None,
) -> ScaleFamily:
    """Dyadic radii from sigma_max down to the floor, centers on a net.

    Centers are greedily thinned sample points at spacing min(radii) /
    NET_FACTOR, restricted so every ball at the largest radius stays inside
    the domain.  A non-finite sigma_max, or a floor that is not positive
    and finite, raises `InvalidScale`; a domain center of another dimension
    than the sample raises `DimensionMismatch`.
    """
    _require_point(domain.center, sample.ambient_dim, "domain center")
    if floor is None:
        floor = resolution_floor(sample)
    if sigma_max is None:
        sigma_max = domain.radius / 2.0
    _require_scales(sigma_max, floor)
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
    spacing = radii[-1] / NET_FACTOR
    centers = sample.points[eligible[_greedy_net(sample.points[eligible], spacing)]]
    return ScaleFamily(
        centers=centers,
        radii=tuple(radii),
        min_radius_floor=floor,
        domain=domain,
    )


def _greedy_net(points: np.ndarray, radius) -> np.ndarray:
    """Rows of a first-come packing of `points`, in row order.

    `radius` is one value or one per row.  A kept row blocks every later
    row inside the closed ball of its own radius; a blocked row blocks
    nothing.  One ball is queried per kept row.
    """
    radius = np.broadcast_to(radius, len(points))
    tree = cKDTree(points)
    blocked = np.zeros(len(points), dtype=bool)
    kept = []
    for i in range(len(points)):
        if blocked[i]:
            continue
        kept.append(i)
        blocked[tree.query_ball_point(points[i], radius[i])] = True
    return np.array(kept, dtype=int)


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


def certify_chord_arc(
    sample: WeightedSurfaceSample,
    domain: Ball,
    family: ScaleFamily,
) -> ChordArcReport:
    """Evaluate all three per-ball functionals over the family.

    Per ball: the density ratio, its mass over the flat m-volume pi r^m
    (m = 2); the flatness of `_flatness_of`; and the tilt excess of
    `_tilt_of` against the flatness argmin plane of the same ball.
    Per-ball failures are recorded in the report and skipped, never fatal.
    Each ball is queried once and its rows shared by the three
    functionals, and balls of one radius share one flatness lattice.  A
    family in another dimension than the sample raises DimensionMismatch,
    and one whose balls leave `domain` PointOutsideDomain
    (`_require_inside`).

    The balls are independent and spend most of their time in KD-tree
    builds and queries, which release the GIL, so they run on a thread pool
    with one worker per CPU the process may use; the report keeps family
    order.  The workers share the sample's cached views, built before the
    fan-out, and call no public function: a tracer that wraps those sees
    every call on the calling thread.
    """
    if family.centers.shape[1] != sample.ambient_dim:
        raise DimensionMismatch(
            f"family in R^{family.centers.shape[1]}, sample in R^{sample.ambient_dim}"
        )
    _require_inside(domain, family.centers, family.radii[0])
    grids = {r: _disk_grid(sample, r) for r in family.radii}
    sample.spatial_index, sample.tangent_projectors  # built before the fan-out

    def one_ball(pair):
        center, radius = pair
        ball = Ball(center, radius)  # ScaleFamily keeps radius >= its floor
        try:
            idx = sample._ball_rows(ball.center, radius)
            dens = _density_of(sample, idx, radius)
            det = _flatness_of(sample, idx, ball, grids[radius])
            tilt = _tilt_of(sample, idx, radius, det.plane)
        except (TooFewPoints, DegenerateCloud) as exc:
            return (
                f"ball({np.array2string(ball.center, precision=3)}, "
                f"{radius:.4g}): {type(exc).__name__}: {exc}"
            )
        return BallStats(
            center=ball.center,
            radius=radius,
            density_ratio=dens,
            flatness=det.value,
            flatness_raw=det.raw,
            flatness_error=det.error_bar,
            tilt_excess=tilt,
            plane=det.plane,
        )

    report = ChordArcReport(floor=family.min_radius_floor)
    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        for out in pool.map(one_ball, family.pairs()):
            (report.errors if isinstance(out, str) else report.balls).append(out)
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


def beta_report(
    sample: WeightedSurfaceSample,
    xi,
    sigma: float,
    floor: float | None = None,
) -> BetaReport:
    """Tabulate beta^2 over points of the ball and the dyadic scale set.

    `carleson` discretizes the scale-integrated square function, the double
    integral of beta^2(y, s) ds/s dmu(y), by the dyadic midpoint rule in
    log s and the sample's own quadrature in y; `carleson_normalized`
    divides it by the flat measure pi sigma^2 of the ball.  The rows of the ball are taken a KD-tree leaf at a time
    (`WeightedSurfaceSample.candidate_blocks`), with one candidate set per
    leaf at the largest scale; every smaller ball is the mask ``d2 <= s * s``
    of it.  Entries match one fit per (row, scale) to rtol 1e-12.  A
    non-finite sigma or a floor that is not positive and finite raises
    `InvalidScale`.
    """
    if floor is None:
        floor = resolution_floor(sample)
    if sigma < 4.0 * floor:
        raise BallBelowResolution(
            f"sigma {sigma:.4g} below 4x floor {floor:.4g}"
        )
    xi = np.asarray(xi, dtype=float)
    scales = carleson_scales(sigma, floor)
    idx = sample.ball_query(xi, sigma)
    table = np.zeros((idx.size, scales.size))
    for pos, cand, d2 in sample.candidate_blocks(idx, scales[0]):
        for col, s in enumerate(scales.tolist()):
            table[pos, col] = _beta_rows(sample, cand, d2 <= s * s, s)
    value = float((sample.weights[idx][:, None] * table).sum() * np.log(2.0))
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
