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
    _require_point,
    _require_positive,
    fit_plane_pca,
)
from .synthetic import disk_lattice

# The plane-to-surface distance d2 of `flatness_details` is debiased by
# this multiple of mean_spacing: nearest sample points overshoot by the
# covering radius even on a perfectly flat sample.
COVERING_MULT = 0.7
# Tilt passes of the `flatness_details` search after the PCA plane.
FLATNESS_PASSES = 2


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


def flatness_details(sample: WeightedSurfaceSample, ball: Ball) -> FlatnessDetails:
    """Bilateral (Reifenberg) flatness of the ball: the best normalized
    distance to a plane through the center, with its argmin plane, its raw
    value and its resolution error bar.

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
    idx = sample.ball_query(ball.center, ball.radius)
    grid = _disk_grid(sample, ball.radius)
    return _flatness_of(sample, idx, ball, grid)


def _disk_grid(sample, sigma: float) -> np.ndarray:
    """Plane coordinates of the lattice that samples a sigma-disk."""
    h = sample.mean_spacing
    return disk_lattice(sigma, max(int(np.pi * sigma**2 / h**2), 16))


def _flatness_of(sample, idx, ball, grid) -> FlatnessDetails:
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
        dist = tree.query(lifted, distance_upper_bound=h)[0]
        far = np.isinf(dist)
        if far.any():
            dist[far] = tree.query(lifted[far])[0]
        d2_raw = float(dist.max())
        d2 = max(d2_raw - COVERING_MULT * h, 0.0)
        return max(d1, d2) / sigma, max(d1, d2_raw) / sigma

    best_plane = fit_plane_pca(pts, dim=m, center=center)
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
    m, n = basis.shape
    stack = []
    for i in range(m):
        for nu in normals:
            for s in (angle, -angle):
                rows = basis.copy()
                rows[i] = np.cos(s) * basis[i] + np.sin(s) * nu
                stack.append(rows)
    q, _ = np.linalg.qr(np.stack(stack).transpose(0, 2, 1))
    return np.ascontiguousarray(q.transpose(0, 2, 1))


def _tilt_bounds(coords: np.ndarray, normal_coords: np.ndarray, angle: float) -> np.ndarray:
    """The d1 lower bounds of `flatness_details` for the `_tilted_bases`
    candidates, in their order, from the coordinates (m, N) and
    normal_coords (n - m, N) of the ball's points along e_i and nu_j."""
    c = np.sin(angle) * coords[:, None, :]
    t = np.cos(angle) * normal_coords[None, :, :]
    return np.abs(np.stack([t - c, t + c], axis=2)).max(axis=3).ravel()


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
    """Scale-normalized integral of squared projector distance to the plane.

    Raises DimensionMismatch for a plane in another ambient space than the
    sample.
    """
    if plane.ambient_dim != sample.ambient_dim:
        raise DimensionMismatch(
            f"plane in R^{plane.ambient_dim}, sample in R^{sample.ambient_dim}"
        )
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
    _require_positive(alpha, "alpha")
    if plane is None:
        plane = flatness_details(sample, ball).plane
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
    return float(_beta_rows(sample, idx, np.ones((1, idx.size), dtype=bool), scale)[0])


def _beta_rows(sample, cand, inside, scale: float) -> np.ndarray:
    """jones_beta of a block of balls that share one candidate set.

    `cand` holds sorted sample rows and `inside` (b, K) marks the rows of
    each ball.  Points outside a ball weigh zero: weighted centroids and
    covariances of the whole block, one stacked eigh, and the same rank
    test as fit_plane_pca.
    """
    m = sample.intrinsic_dim
    out = np.zeros(len(inside))
    fit = np.flatnonzero(inside.sum(axis=1) > m)
    if fit.size == 0:
        return out
    w = np.where(inside[fit], sample.weights[cand], 0.0)
    pts = sample.points[cand]
    total = w.sum(axis=1)
    centroid = (w @ pts) / total[:, None]
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


def local_maximal_tilt(
    sample: WeightedSurfaceSample,
    x,
    r_max: float,
    reference: Plane,
    floor: float | None = None,
) -> float:
    """Sup over dyadic scales of the average first-power projector distance.

    The scales are r_max, r_max / 2, ... down to `floor`; a scale whose
    ball is empty is skipped.  This is the
    one-row case of `_maximal_tilts`: one ball query at r_max, the smaller
    balls as distance masks of it, and the normal frame of `reference` from
    a complete QR of its basis.  Distances come from the normal frame, so
    they match explicit projector differences to rtol 1e-10, not bit for
    bit.  A non-finite r_max or a floor that is not positive and finite
    raises `InvalidScale`.
    """
    if floor is None:
        floor = resolution_floor(sample)
    _require_scales(r_max, floor)
    if r_max < floor:
        raise BallBelowResolution(
            f"r_max {r_max:.4g} below resolution floor {floor:.4g}"
        )
    x = np.asarray(x, dtype=float)
    basis = reference.basis
    q, _ = np.linalg.qr(basis.T, mode="complete")
    normals = q[:, basis.shape[0] :].T
    cand = sample.ball_query(x, r_max)
    d2 = np.square(sample.points[cand] - x).sum(axis=1)
    tilts = _maximal_tilts(
        sample, cand, d2[None], np.array([r_max]), normals[None], floor
    )
    return float(tilts[0])


def _maximal_tilts(sample, cand, d2, r_max, normals, floor) -> np.ndarray:
    """Maximal tilt of a block of rows that share one candidate set.

    `cand` holds sorted sample rows, `d2` (b, K) their squared distances to
    the b centers, `r_max` (b,) the largest radius per center and `normals`
    (b, n - m, n) orthonormal normal frames N of each reference plane Q.
    Row i scores the balls ``d2 <= s * s`` for s = r_max[i], r_max[i] /
    2, ... while s >= floor, each scale halved from the one before.  For
    an orthonormal tangent basis B_k, ``|P_k - Q|_F = sqrt(2) |B_k N^T|_F``,
    so every distance of the block comes from one (K m, n) @ (n, b (n - m))
    product.  The result is the largest weighted mean distance over the
    row's non-empty balls, and 0 when all are empty.
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
    the best local plane (the `flatness_details` argmin), rasterizes the
    sigma-disk at mean-spacing resolution, and reports raster cells with no
    projected point within NO_HOLE_COVER_MULT radii of the cell spacing.

    Returns
    -------
    (passed, gaps)
        gaps are ambient locations of uncovered cells on the plane.
    """
    xi = np.asarray(xi, dtype=float)
    plane = flatness_details(sample, Ball(xi, sigma)).plane
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
    bad = dist > NO_HOLE_COVER_MULT * h
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
            raise InvalidScale(f"radii {radii} are not strictly decreasing")
        if radii[-1] < self.min_radius_floor:
            raise InvalidScale(
                f"smallest radius {radii[-1]:.4g} falls below the floor "
                f"{self.min_radius_floor:.4g}"
            )
        centers = np.asarray(self.centers, dtype=float)
        dom_c = np.asarray(self.domain.center, dtype=float)
        reach = np.linalg.norm(centers - dom_c, axis=1) + radii[0]
        out = np.flatnonzero(reach > self.domain.radius + 1e-12)
        if out.size:
            raise PointOutsideDomain(
                f"ball of center row {out[0]} reaches {reach[out[0]]:.4g} from "
                f"the domain center, beyond the domain radius {self.domain.radius:.4g}"
            )

    def pairs(self):
        for r in self.radii:
            for c in self.centers:
                yield c, float(r)


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


def certify_chord_arc(
    sample: WeightedSurfaceSample,
    domain: Ball,
    family: ScaleFamily,
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
            det = _flatness_of(sample, idx, ball, grids[radius])
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
