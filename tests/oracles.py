"""Independent oracles for derived test values.

Everything here is deliberately naive: O(N^2) double loops, dense parameter
grids, explicit quadrature on analytic surfaces.  Implementation modules never
import this file; tests freeze values produced here and compare the library
against them.  scripts/freeze_oracle_values.py prints the constants.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.sparse.linalg import spsolve
from scipy.spatial import cKDTree

from varifoldlab.curvature import _PROFILE_FRACTIONS
from varifoldlab.errors import (
    DegenerateCloud,
    DisconnectedPatch,
    IllConditioned,
    NotJordan,
    TooFewPoints,
)
from varifoldlab.geometry import Plane, fit_plane_pca, grassmann_project
from varifoldlab.meshing import angle_defects

# ---------------------------------------------------------------------------
# brute-force set and plane distances


def brute_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """O(N*M) bilateral Hausdorff distance between point sets."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(max(_directed_max_min(a, b), _directed_max_min(b, a)))


def _directed_max_min(a: np.ndarray, b: np.ndarray, chunk: int = 256) -> float:
    worst = 0.0
    for lo in range(0, a.shape[0], chunk):
        block = a[lo : lo + chunk]
        d2 = np.sum((block[:, None, :] - b[None, :, :]) ** 2, axis=2)
        worst = max(worst, float(np.sqrt(d2.min(axis=1)).max()))
    return worst


def fibonacci_directions(count: int) -> np.ndarray:
    """Deterministic unit vectors covering S^2 (golden-angle lattice)."""
    i = np.arange(count, dtype=float) + 0.5
    z = 1.0 - 2.0 * i / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def grid_min_projector_distance(matrix: np.ndarray, count: int = 20000):
    """Best rank-2 orthogonal projector in R^3 from a dense normal grid.

    Returns (min Frobenius distance over the grid, best projector).
    """
    m = np.asarray(matrix, dtype=float)
    sym = 0.5 * (m + m.T)
    best = np.inf
    best_p = None
    for n in fibonacci_directions(count):
        p = np.eye(3) - np.outer(n, n)
        d = float(np.linalg.norm(sym - p))
        if d < best:
            best = d
            best_p = p
    return best, best_p


def grid_beta_m2(points, weights, center, s, n_normals=20000):
    """Brute-force Jones beta^2 for a 2-surface sample in R^3.

    Minimizes s^-4 * sum w * dist^2 over affine planes: coarse grid of unit
    normals followed by a fine local grid around the coarse argmin.  For
    each normal the 1-d offset least-squares problem is solved by its
    closed form (weighted mean of the heights).
    """
    pts = np.asarray(points, dtype=float)
    w = np.asarray(weights, dtype=float)
    c = np.asarray(center, dtype=float)
    rel = pts - c
    keep = np.einsum("ij,ij->i", rel, rel) <= s * s
    rel = rel[keep]
    w = w[keep]
    if rel.shape[0] == 0:
        return 0.0
    w_sum = float(w.sum())

    def sweep(dirs):
        best_val, best_dir = np.inf, dirs[0]
        for block in np.array_split(dirs, max(1, len(dirs) // 4000)):
            H = rel @ block.T
            vals = w @ (H * H) - (w @ H) ** 2 / w_sum
            k = int(np.argmin(vals))
            if vals[k] < best_val:
                best_val, best_dir = float(vals[k]), block[k]
        return best_val, best_dir

    best, n_star = sweep(fibonacci_directions(n_normals))
    # local refinement: quadratic error in the patch step size
    delta = 2.0 * np.sqrt(4.0 * np.pi / n_normals)
    u = np.cross(n_star, [1.0, 0.0, 0.0])
    if np.linalg.norm(u) < 1e-6:
        u = np.cross(n_star, [0.0, 1.0, 0.0])
    u /= np.linalg.norm(u)
    v = np.cross(n_star, u)
    g = np.linspace(-delta, delta, 41)
    aa, bb = np.meshgrid(g, g)
    local = n_star + aa.ravel()[:, None] * u + bb.ravel()[:, None] * v
    local /= np.linalg.norm(local, axis=1, keepdims=True)
    best_local, _ = sweep(local)
    return min(best, best_local) / s**4


def grid_beta_m1(points, weights, center, s, n_angles=20000):
    """Brute-force Jones beta^2 for a curve sample in R^2 (exponent s^-3)."""
    pts = np.asarray(points, dtype=float)
    w = np.asarray(weights, dtype=float)
    c = np.asarray(center, dtype=float)
    rel = pts - c
    keep = np.einsum("ij,ij->i", rel, rel) <= s * s
    rel = rel[keep]
    w = w[keep]
    if rel.shape[0] == 0:
        return 0.0
    best = np.inf
    for t in np.linspace(0.0, np.pi, n_angles, endpoint=False):
        n = np.array([np.sin(t), -np.cos(t)])
        h = rel @ n
        d_star = float(np.sum(w * h) / np.sum(w))
        val = float(np.sum(w * (h - d_star) ** 2))
        if val < best:
            best = val
    return best / s**3


# ---------------------------------------------------------------------------
# analytic sphere cap (pole at the origin, sphere center at (0, 0, R))


def cap_point(R, theta, phi):
    return np.stack(
        [
            R * np.sin(theta) * np.cos(phi),
            R * np.sin(theta) * np.sin(phi),
            R * (1.0 - np.cos(theta)),
        ],
        axis=-1,
    )


def cap_theta_of_chord(R, chord):
    """Polar angle at which |p| equals the given chord distance."""
    return 2.0 * np.arcsin(np.clip(chord / (2.0 * R), -1.0, 1.0))


def cap_area_chord(R, chord):
    """Area of the cap cut by the extrinsic ball of radius `chord`."""
    theta = cap_theta_of_chord(R, chord)
    return 2.0 * np.pi * R * R * (1.0 - np.cos(theta))


def cap_area_planar(R, a):
    """Area of the cap with planar rim radius a: 2 pi R (R - sqrt(R^2-a^2))."""
    return 2.0 * np.pi * R * (R - np.sqrt(R * R - a * a))


def cap_quadrature(R, chord, f, n_theta=4000):
    """Integral of f(theta) over the cap of given chord radius.

    f takes the polar angle and returns the integrand value; the measure is
    2 pi R^2 sin(theta) dtheta (rotationally symmetric integrands only).
    """
    tm = cap_theta_of_chord(R, chord)
    theta = np.linspace(0.0, tm, n_theta)
    vals = f(theta) * 2.0 * np.pi * R * R * np.sin(theta)
    return float(np.trapezoid(vals, theta))


def oracle_tilt_excess_cap(R, sigma):
    """sigma^-2 * integral over the chord-sigma cap of ||P - P0||_F^2."""
    return cap_quadrature(R, sigma, lambda t: 2.0 * np.sin(t) ** 2) / sigma**2


def oracle_tilt_excess_tilted_plane(alpha, sigma=1.0, density=1.0):
    """Tilt excess of a flat unit-density disk measured against a reference
    plane tilted by alpha: closed form 2 pi sin^2(alpha) (sigma-free)."""
    area = np.pi * sigma * sigma * density
    return 2.0 * np.sin(alpha) ** 2 * area / sigma**2


def oracle_flatness_cap(R, sigma, n_dense=120):
    """Continuum Reifenberg flatness of the cap at the pole, scale sigma.

    Dense bilateral Hausdorff distance between the cap piece and candidate
    plane disks through the pole, minimized over a tilt grid.
    """
    tm = cap_theta_of_chord(R, sigma)
    theta = np.linspace(0.0, tm, n_dense)
    phi = np.linspace(0.0, 2.0 * np.pi, n_dense, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    cap_pts = cap_point(R, tt.ravel(), pp.ravel())

    best = np.inf
    for ax in np.linspace(-0.05, 0.05, 11):
        # plane through the origin with normal ~ (-ax, 0, 1); by symmetry a
        # one-parameter tilt family suffices
        n = np.array([-ax, 0.0, 1.0])
        n = n / np.linalg.norm(n)
        u = np.array([1.0, 0.0, 0.0]) - n[0] * n
        u /= np.linalg.norm(u)
        v = np.cross(n, u)
        rr = np.linspace(0.0, sigma, n_dense)
        aa = np.linspace(0.0, 2.0 * np.pi, n_dense, endpoint=False)
        r2, a2 = np.meshgrid(rr, aa, indexing="ij")
        disk_pts = (
            r2.ravel()[:, None] * np.cos(a2.ravel())[:, None] * u[None, :]
            + r2.ravel()[:, None] * np.sin(a2.ravel())[:, None] * v[None, :]
        )
        inside = np.linalg.norm(disk_pts, axis=1) <= sigma
        d = brute_hausdorff(cap_pts, disk_pts[inside])
        if d < best:
            best = d
    return best / sigma


def oracle_beta2_cap(R, s):
    """Continuum beta^2 of the sphere at scale s: pi s^2 / (48 R^2)."""
    # derived by minimizing over parallel planes; verified by quadrature here
    def integrand(theta):
        z = R * (1.0 - np.cos(theta))
        return (z - _cap_mean_height(R, s)) ** 2

    val = cap_quadrature(R, s, integrand)
    return val / s**4


def _cap_mean_height(R, s):
    area = cap_area_chord(R, s)
    total = cap_quadrature(R, s, lambda t: R * (1.0 - np.cos(t)))
    return total / area


def oracle_carleson_cap(R, sigma, floor):
    """Continuum Carleson sum with the scale integral cut at the floor."""
    # beta^2(y, s) is y-independent on the sphere; integral over scales of
    # beta^2 ds/s from floor to sigma, times cap area.
    def beta2(s):
        return oracle_beta2_cap(R, s)

    scales = np.geomspace(max(floor, 1e-6), sigma, 200)
    vals = np.array([beta2(s) for s in scales])
    inner = float(np.trapezoid(vals / scales, scales))
    return cap_area_chord(R, sigma) * inner


def oracle_monotonicity_terms_cap(R, sigma, rho):
    """Quadrature values of every named monotonicity term on the cap.

    Center point x = pole (origin).  Returns a dict of term values.
    """
    H_sq = 4.0 / R**2

    def ann(f):
        return cap_quadrature(R, rho, f) - cap_quadrature(R, sigma, f)

    area_s = cap_area_chord(R, sigma)
    area_r = cap_area_chord(R, rho)

    # |grad_perp r / r + H/4|^2 vanishes identically on spheres
    perp_term = ann(
        lambda t: (_perp_over_r(R, t) - 0.5 / R) ** 2
    )

    def pairing_integrand(t):
        # r <grad_perp r, H> = -r^2 / R^2 on the sphere
        chord2 = (2.0 * R * np.sin(t / 2.0)) ** 2
        return -chord2 / R**2

    pair_rho = cap_quadrature(R, rho, pairing_integrand)
    pair_sigma = cap_quadrature(R, sigma, pairing_integrand)

    return {
        "density_sigma": area_s / sigma**2,
        "density_rho": area_r / rho**2,
        "willmore_term": H_sq / 16.0 * (area_r - area_s),
        "perp_term": perp_term,
        "pairing_rho": pair_rho / (2.0 * rho**2),
        "pairing_sigma": pair_sigma / (2.0 * sigma**2),
    }


def _perp_over_r(R, theta):
    # |grad_perp r| / r at polar angle theta: chord/(2R) divided by chord
    return 0.5 / R


# ---------------------------------------------------------------------------
# analytic stereographic parameterization of the cap


def stereographic_to_cap(R, u):
    """Inverse stereographic map R^2 -> sphere (pole at origin).

    Projection point sits at (0, 0, 2R); u = 0 maps to the origin and the
    map is conformal with factor 4R^2 / (4R^2 + |u|^2).
    """
    u = np.asarray(u, dtype=float)
    uu = np.sum(u * u, axis=-1)
    t = 4.0 * R * R / (uu + 4.0 * R * R)
    x = t[..., None] * u
    z = 2.0 * R * (1.0 - t)
    return np.concatenate([x, z[..., None]], axis=-1)


def stereographic_factor(R, u):
    u = np.asarray(u, dtype=float)
    uu = np.sum(u * u, axis=-1)
    return 4.0 * R * R / (uu + 4.0 * R * R)


def stereographic_radius_for_chord(R, chord):
    """Plane radius whose image has the given chord distance from the pole."""
    # chord^2 = t^2 |u|^2 + 4R^2 (1-t)^2 with t = 4R^2/(|u|^2+4R^2);
    # solving gives |u| = 2 R chord / sqrt(4R^2 - chord^2).
    return 2.0 * R * chord / np.sqrt(4.0 * R * R - chord * chord)


def oracle_frame_energy_cap(R, chord, n_grid=160):
    """Quadrature of |grad e1|^2 + |grad e2|^2 for the stereographic frames.

    Frames e_i = f_i / |f_i| of the inverse stereographic map, energy
    integrated over the plane disk that maps onto the cap, with respect to
    the parameter area element (matching the discrete frame energy).
    """
    rad = stereographic_radius_for_chord(R, chord)
    xs = np.linspace(-rad, rad, n_grid)
    h = xs[1] - xs[0]
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    U = np.stack([X, Y], axis=-1)
    P = stereographic_to_cap(R, U)
    # unit frames along the two coordinate directions
    fx = np.gradient(P, h, axis=0)
    fy = np.gradient(P, h, axis=1)
    e1 = fx / np.linalg.norm(fx, axis=-1, keepdims=True)
    e2 = fy / np.linalg.norm(fy, axis=-1, keepdims=True)
    energy = 0.0
    inside = X * X + Y * Y <= rad * rad
    for e in (e1, e2):
        gx = np.gradient(e, h, axis=0)
        gy = np.gradient(e, h, axis=1)
        dens = np.sum(gx * gx, axis=-1) + np.sum(gy * gy, axis=-1)
        energy += float(np.sum(dens[inside]) * h * h)
    return energy


# ---------------------------------------------------------------------------
# analytic graph surface z = eps (x1^2 - x2^2) / 2


def graph_height(eps, xy):
    xy = np.asarray(xy, dtype=float)
    return 0.5 * eps * (xy[..., 0] ** 2 - xy[..., 1] ** 2)


def graph_mean_curvature_vector(eps, xy):
    """Mean curvature vector (trace of second fundamental form) of the graph."""
    xy = np.asarray(xy, dtype=float)
    gx = eps * xy[..., 0]
    gy = -eps * xy[..., 1]
    g2 = gx * gx + gy * gy
    # scalar mean curvature (sum of principal curvatures) for z = g(x, y):
    # ((1+gy^2) gxx - 2 gx gy gxy + (1+gx^2) gyy) / (1+|grad g|^2)^{3/2}
    num = (1.0 + gy * gy) * eps + (1.0 + gx * gx) * (-eps)
    scal = num / (1.0 + g2) ** 1.5
    denom = np.sqrt(1.0 + g2)
    normal = np.stack([-gx / denom, -gy / denom, np.ones_like(gx) / denom], axis=-1)
    return scal[..., None] * normal


def oracle_graph_area(eps, radius=1.0, n=2000):
    r = np.linspace(0.0, radius, n)
    phi = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    rr, pp = np.meshgrid(r, phi, indexing="ij")
    x = rr * np.cos(pp)
    y = rr * np.sin(pp)
    gx = eps * x
    gy = -eps * y
    integrand = np.sqrt(1.0 + gx * gx + gy * gy) * rr
    # periodic in phi, so the mean times 2 pi is spectrally accurate
    return float(np.trapezoid(integrand.mean(axis=1) * 2.0 * np.pi, r))


def graph_H_finite_difference(eps, xy, h=1e-4):
    """Mean curvature vector of the graph via -div_S(n) finite differences.

    Independent of the closed form: builds an orthonormal tangent basis at
    each point, differentiates the unit normal field numerically along the
    two tangent directions, and sums the tangential components.
    """
    xy = np.atleast_2d(np.asarray(xy, dtype=float))

    def normal(q):
        gx = eps * q[..., 0]
        gy = -eps * q[..., 1]
        denom = np.sqrt(1.0 + gx * gx + gy * gy)
        return np.stack([-gx / denom, -gy / denom, np.ones_like(gx) / denom], axis=-1)

    out = []
    for q in xy:
        gx = eps * q[0]
        gy = -eps * q[1]
        l1 = np.array([1.0, 0.0, gx])
        l2 = np.array([0.0, 1.0, gy])
        t1 = l1 / np.linalg.norm(l1)
        t2 = l2 - (l2 @ t1) * t1
        t2 /= np.linalg.norm(t2)
        div = 0.0
        for t in (t1, t2):
            step = t[:2] * h  # xy-projection parameterizes the surface curve
            npl = normal(q + step)
            nmi = normal(q - step)
            dn = (npl - nmi) / (2.0 * h)
            div += float(t @ dn)
        out.append(-div * normal(q))
    return np.array(out)


# ---------------------------------------------------------------------------
# naive references for the stagewise projection pipeline


def all_pairs_distortion(source: np.ndarray, target: np.ndarray):
    """Per-point sup and inf difference quotients over every other point."""
    n = len(source)
    f_up = np.zeros(n)
    f_lo = np.zeros(n)
    for i in range(n):
        up, lo = 0.0, np.inf
        for j in range(n):
            if j == i:
                continue
            ds = float(np.linalg.norm(source[j] - source[i]))
            if ds <= 0:
                continue
            ratio = float(np.linalg.norm(target[j] - target[i])) / ds
            up = max(up, ratio)
            lo = min(lo, ratio)
        f_up[i], f_lo[i] = up, lo
    return f_up, f_lo


def sampled_partner_distortion(source, target, pairs: int, seed: int):
    """Per-point sup and inf difference quotients over sampled partners.

    Each point's partners are its 8 nearest neighbors (all others when there
    are fewer) plus `n_rand` seeded
    random rows drawn point by point, deduplicated, without the point itself.
    """
    n = len(source)
    rng = np.random.default_rng(seed)
    _, near = cKDTree(source).query(source, k=min(9, n))
    n_rand = max(4, pairs // n + 1)
    f_up = np.zeros(n)
    f_lo = np.zeros(n)
    for i in range(n):
        cand = np.concatenate([near[i, 1:], rng.integers(0, n, n_rand)])
        up, lo = 0.0, np.inf
        for j in np.unique(cand[cand != i]):
            ds = float(np.linalg.norm(source[j] - source[i]))
            if ds <= 0:
                continue
            ratio = float(np.linalg.norm(target[j] - target[i])) / ds
            up = max(up, ratio)
            lo = min(lo, ratio)
        f_up[i], f_lo[i] = up, lo
    return f_up, f_lo


def reference_plane_loop(sample, x, scale: float) -> Plane:
    """Pinned weighted PCA plane of one sorted ball query around x."""
    idx = sample.ball_query(x, scale)
    m = sample.intrinsic_dim
    if idx.size < m + 1:
        raise TooFewPoints(f"{idx.size} points inside radius {scale}")
    return fit_plane_pca(
        sample.points[idx],
        weights=sample.weights[idx],
        dim=m,
        center=np.asarray(x, dtype=float),
    )


def maximal_tilt_loop(sample, x, r_max, reference, floor, refine=1) -> float:
    """One ball query per dyadic scale and explicit projector differences."""
    x = np.asarray(x, dtype=float)
    Q = reference.projector
    best = 0.0
    step = 2.0 ** (1.0 / max(refine, 1))
    s = r_max
    while s >= floor:
        idx = sample.ball_query(x, s)
        if idx.size:
            diff = sample.tangent_projectors[idx] - Q
            dist = np.sqrt(np.einsum("nij,nij->n", diff, diff))
            w = sample.weights[idx]
            best = max(best, float((w * dist).sum() / w.sum()))
        s /= step
    return best


def fine_membership_scan(sample, delta, nu, floor, tilt_fn, plane_fn):
    """Per-point membership scan: gauge below resolution, or tilt <= nu.

    `tilt_fn(sample, x, scale, plane, floor)` and `plane_fn(sample, x, scale)`
    are passed in so this stays a thin independent loop over the definition;
    a row whose plane_fn raises TooFewPoints or DegenerateCloud is not fine.
    Returns the members, their reference bases and their tilts.
    """
    members, bases, tilts = [], [], []
    for i in range(len(sample)):
        d = float(delta.values[i])
        if 2.0 * d < floor:
            members.append(i)
            bases.append(sample.tangent_bases[i])
            tilts.append(0.0)
            continue
        try:
            plane = plane_fn(sample, sample.points[i], 2.0 * d)
        except (TooFewPoints, DegenerateCloud):
            continue
        tilt = tilt_fn(sample, sample.points[i], 2.0 * d, plane, floor=floor)
        if tilt <= nu:
            members.append(i)
            bases.append(plane.basis)
            tilts.append(tilt)
    m, n = sample.tangent_bases.shape[1:]
    return (
        np.asarray(members, dtype=int),
        np.asarray(bases).reshape(-1, m, n),
        np.asarray(tilts, dtype=float),
    )


def graph_lipschitz_loop(points, centers, bases, radii):
    """Per-patch graph Lipschitz constants from dense pairwise differences.

    One single-point ball query per patch; balls of more than 300 points
    keep every ``len // 300 + 1``-th point in the query's return order.
    """
    tree = cKDTree(points)
    lips = np.zeros(len(centers))
    for k, (c, basis, r) in enumerate(zip(centers, bases, radii)):
        ball = tree.query_ball_point(c, r)
        if len(ball) < 2:
            continue
        if len(ball) > 300:
            ball = list(np.asarray(ball)[:: len(ball) // 300 + 1])
        local = points[np.asarray(ball, dtype=int)] - c
        cc = local @ np.asarray(basis).T
        hh = local - cc @ np.asarray(basis)
        dc = np.linalg.norm(cc[:, None, :] - cc[None, :, :], axis=2)
        dh = np.linalg.norm(hh[:, None, :] - hh[None, :, :], axis=2)
        mask = dc > 1e-12
        if mask.any():
            lips[k] = float((dh[mask] / dc[mask]).max())
    return lips


def blended_normals_loop(weights, patch_bases, fallback_bases):
    """Per-point normal projectors from a dense (points, patches) weight table.

    A point with weights blends the patch normal projectors and takes the
    nearest rank-(n - m) projector one matrix at a time; a point without
    weights gets I - B^T B of its own fallback basis.
    """
    m, n = patch_bases.shape[1:]
    patch_normals = np.stack([np.eye(n) - b.T @ b for b in patch_bases])
    blended = np.einsum("kij,pk->pij", patch_normals, weights)
    projs = np.zeros((len(weights), n, n))
    for i in range(len(weights)):
        if weights[i].sum() <= 0:
            basis = fallback_bases[i]
            projs[i] = np.eye(n) - basis.T @ basis
        else:
            projs[i] = grassmann_project(blended[i], n - m).projector
    return projs


def projector_lipschitz_loop(points, projectors, centers, radii):
    """Per-patch Lipschitz quotient of a projector field over the first 50
    points of each ball, by dense pairwise differences."""
    tree = cKDTree(points)
    lips = np.zeros(len(centers))
    for k, (c, r) in enumerate(zip(centers, radii)):
        ball = tree.query_ball_point(c, r)
        if len(ball) < 2:
            continue
        ball = np.asarray(ball[:50], dtype=int)
        pp = projectors[ball]
        dp = np.linalg.norm(
            (pp[:, None, :, :] - pp[None, :, :, :]).reshape(len(ball), len(ball), -1),
            axis=2,
        )
        dx = np.linalg.norm(points[ball][:, None, :] - points[ball][None, :, :], axis=2)
        mask = dx > 1e-12
        if mask.any():
            lips[k] = float((dp[mask] / dx[mask]).max())
    return lips


def project_tau_scan(src, tgt, projectors, gauge, beta, candidates=12, slack=None):
    """Candidate-by-candidate nearest-graph projection.

    Returns (target index, tangential residual) per source point; the index
    is -1 where no candidate's normal part stays within beta * gauge + slack.
    """
    tree = cKDTree(tgt)
    if slack is None:
        nn, _ = tree.query(tgt, k=2)
        slack = 2.0 * float(np.median(nn[:, 1]))
    k = min(candidates, len(tgt))
    _, idx = tree.query(src, k=k)
    idx = np.asarray(idx).reshape(len(src), k)
    chosen = np.full(len(src), -1, dtype=int)
    tang_res = np.zeros(len(src))
    for i in range(len(src)):
        best = None
        for j in range(k):
            y_row = int(idx[i, j])
            d = src[i] - tgt[y_row]
            v_norm = projectors[y_row] @ d
            if np.linalg.norm(v_norm) > beta * gauge[y_row] + slack:
                continue
            t_res = float(np.linalg.norm(d - v_norm))
            if best is None or t_res < best[0]:
                best = (t_res, y_row)
        if best is not None:
            tang_res[i], chosen[i] = best
    return chosen, tang_res


# ---------------------------------------------------------------------------
# naive references for the certify pipeline


def canonical_rows_loop(basis: np.ndarray) -> np.ndarray:
    """Row by row: negate a row whose first largest-magnitude entry is negative."""
    out = np.array(basis, dtype=float)
    for i, row in enumerate(out):
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            out[i] = -row
    return out


def hex_lattice_loop(radius: float, target_n: int) -> np.ndarray:
    """Triangular disk lattice built one lattice row at a time."""
    h = np.sqrt(2.0 * np.pi * radius * radius / (np.sqrt(3.0) * target_n))
    rows = int(np.ceil(radius / (np.sqrt(3.0) / 2.0 * h))) + 1
    cols = int(np.ceil(radius / h)) + 1
    pts = []
    for j in np.arange(-rows, rows + 1):
        y = j * (np.sqrt(3.0) / 2.0) * h
        offset = 0.5 * h if (j % 2) else 0.0
        xs = np.arange(-cols, cols + 1) * h + offset
        pts.append(np.stack([xs, np.full_like(xs, y)], axis=1))
    pts = np.concatenate(pts, axis=0)
    return pts[np.hypot(pts[:, 0], pts[:, 1]) <= radius]


def flatness_search_loop(sample, ball, refine: int = 2, covering_mult: float = 0.7):
    """Exhaustive tilt search: every candidate plane measured in full.

    Returns (value, plane, raw, error_bar), the fields of FlatnessDetails.
    """
    idx = sample.ball_query(ball.center, ball.radius)
    m = sample.intrinsic_dim
    if idx.size < m + 1:
        raise TooFewPoints(f"ball holds {idx.size} points, need at least {m + 1}")
    pts = sample.points[idx]
    center = np.asarray(ball.center, dtype=float)
    sigma = ball.radius
    h = sample.mean_spacing
    tree = cKDTree(pts)
    grid = hex_lattice_loop(sigma, max(int(np.pi * sigma**2 / h**2), 16))

    def measure(plane):
        coords = (pts - center) @ plane.basis.T
        tangential = coords @ plane.basis
        heights = pts - center - tangential
        h2 = np.einsum("ij,ij->i", heights, heights)
        rho = np.linalg.norm(coords, axis=1)
        overshoot = np.clip(rho - sigma, 0.0, None)
        d1 = float(np.sqrt(np.max(h2 + overshoot**2)))
        lifted = center + grid @ plane.basis
        d2_raw = float(tree.query(lifted)[0].max())
        d2 = max(d2_raw - covering_mult * h, 0.0)
        return max(d1, d2) / sigma, max(d1, d2_raw) / sigma

    def tilted(plane, angle):
        basis = plane.basis
        n = basis.shape[1]
        q, r = np.linalg.qr(np.eye(n) - basis.T @ basis)
        cols = np.argsort(np.abs(np.diag(r)))[::-1][: n - m]
        out = []
        for i in range(m):
            for nu in q[:, np.sort(cols)].T:
                for s in (angle, -angle):
                    rows = basis.copy()
                    rows[i] = np.cos(s) * basis[i] + np.sin(s) * nu
                    qq, _ = np.linalg.qr(rows.T)
                    out.append(
                        Plane(basis=np.ascontiguousarray(qq.T), basepoint=plane.basepoint)
                    )
        return out

    best_plane = fit_plane_pca(pts, dim=m, center=center)
    best_val, best_raw = measure(best_plane)
    step = max(best_raw, 2.0 * h / sigma)
    for _ in range(max(refine, 0)):
        improved = False
        for cand in tilted(best_plane, step):
            val, raw = measure(cand)
            if val < best_val:
                best_plane, best_val, best_raw = cand, val, raw
                improved = True
        if not improved:
            step /= 2.0
    return best_val, best_plane, best_raw, covering_mult * h / sigma


def beta_table_loop(sample, rows, scales) -> np.ndarray:
    """beta^2 at every (row, scale): one ball query and one PCA fit each."""
    m = sample.intrinsic_dim
    table = np.zeros((len(rows), len(scales)))
    for r, i in enumerate(rows):
        for c, s in enumerate(scales):
            idx = sample.ball_query(sample.points[i], float(s))
            if idx.size <= m:
                continue
            pts, w = sample.points[idx], sample.weights[idx]
            try:
                plane = fit_plane_pca(pts, weights=w, dim=m)
            except DegenerateCloud:
                continue
            rel = pts - plane.basepoint
            heights = rel - (rel @ plane.basis.T) @ plane.basis
            d2 = np.einsum("ij,ij->i", heights, heights)
            table[r, c] = float((w * d2).sum() / float(s) ** (m + 2))
    return table


def _profile_terms(sample, x, h, idx):
    """Masses and tangential-divergence sums of the nested bump family,
    given the sample rows idx of the ball B(x, h)."""
    rel = sample.points[idx] - x
    r2 = np.einsum("ij,ij->i", rel, rel)
    w = sample.weights[idx]
    P = sample.tangent_projectors[idx]
    tangential_rel = np.einsum("nij,nj->ni", P, rel)
    masses = np.zeros(len(_PROFILE_FRACTIONS))
    divs = np.zeros((len(_PROFILE_FRACTIONS), sample.ambient_dim))
    for j, frac in enumerate(_PROFILE_FRACTIONS):
        hj2 = (frac * h) ** 2
        u = 1.0 - r2 / hj2
        inside = u > 0.0
        masses[j] = float((w[inside] * u[inside] ** 2).sum())
        divs[j] = (-4.0 / hj2) * (
            (w[inside] * u[inside])[:, None] * tangential_rel[inside]
        ).sum(axis=0)
    return masses, divs


def _curvature_at(sample, x, h, idx):
    """Weak mean curvature at x given the sorted sample rows of B(x, h)."""
    if idx.size < 10:
        raise TooFewPoints("need at least 10 points inside the test support")
    masses, divs = _profile_terms(sample, x, h, idx)
    # each window contributes n equations: mass_j * H = -div_j; an inner
    # window with (near-)empty support collapses its block and the stack
    # loses rank
    cond = (masses.max() / masses.min()) ** 2 if masses.min() > 0 else np.inf
    if cond > 1e8:
        raise IllConditioned(
            f"normal equations condition {cond:.3g} exceeds 1e8"
        )
    denom = float((masses**2).sum())
    H = -(masses[:, None] * divs).sum(axis=0) / denom
    misfit = np.linalg.norm(masses[:, None] * H + divs, axis=1)
    scale = np.linalg.norm(divs, axis=1).max()
    residual = float(np.linalg.norm(misfit) / scale) if scale > 0 else 0.0
    return H, residual


def curvature_loop(sample, h, indices, ortho_tol=0.2):
    """Curvature field row by row: one ball query and one solve per row.

    Returns (sorted rows, vectors, residuals, orthogonal flags); the first
    row in ascending order that cannot be solved raises its error.
    """
    rows = np.sort(np.asarray(indices, dtype=int))
    vectors = np.zeros((rows.size, sample.ambient_dim))
    residuals = np.zeros(rows.size)
    orthogonal = np.zeros(rows.size, dtype=bool)
    for r, i in enumerate(rows):
        x = sample.points[i]
        H, res = _curvature_at(sample, x, h, sample.ball_query(x, h))
        vectors[r], residuals[r] = H, res
        norm = np.linalg.norm(H)
        tangential = np.linalg.norm(sample.tangent_projectors[i] @ H)
        orthogonal[r] = norm == 0.0 or tangential <= np.sin(ortho_tol) * norm
    return rows, vectors, residuals, orthogonal


# ---------------------------------------------------------------------------
# closed-form constants frozen into tests


def frozen_constants():
    return {
        "sqrt2_sin01": np.sqrt(2.0) * np.sin(0.1),
        "orth_complement_r4": 2.0,
        "tilt_closed_form": oracle_tilt_excess_tilted_plane(0.1),
        "cap_area_R10_a1": cap_area_planar(10.0, 1.0),
        "willmore_cap_R10_s1": 0.04 * np.pi,
        "willmore_sphere": 16.0 * np.pi,
        "ih_two_value": 2.5 / 2.25,
        "a2_two_value": 2.5 * 0.625,
        "bmo_checkerboard": 0.5 * np.log(2.0),
        "isoper_circle": 1.0 / (4.0 * np.pi),
        "isoper_square": 1.0 / 16.0,
        "flatness_cap_R10_s05": oracle_flatness_cap(10.0, 0.5),
        "tilt_cap_R10_s05": oracle_tilt_excess_cap(10.0, 0.5),
        "beta2_cap_R10_s05": oracle_beta2_cap(10.0, 0.5),
        "gamma_sphere_R10_s05": float(
            np.sqrt(oracle_tilt_excess_cap(10.0, 0.5))
        ),
    }


if __name__ == "__main__":
    for key, val in frozen_constants().items():
        print(f"{key} = {val!r}")


# ---------------------------------------------------------------------------
# disk parameterization oracles


def graph_chord_length(eps, p, q, n=4000):
    """Length of the lifted straight chord on the saddle graph.

    1-D quadrature of |(q - p, dg/dt)| along the planar segment p -> q with
    g = eps (x^2 - y^2) / 2.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    t = np.linspace(0.0, 1.0, n)
    xy = p[None, :] + t[:, None] * (q - p)[None, :]
    gx = eps * xy[:, 0]
    gy = -eps * xy[:, 1]
    dxy = q - p
    dz = gx * dxy[0] + gy * dxy[1]
    speed = np.sqrt(dxy[0] ** 2 + dxy[1] ** 2 + dz * dz)
    return float(np.trapezoid(speed, t))


def cap_conformal_w(R, rho, z2):
    """log |f'| for z -> inverse-stereographic(rho z) on the radius-R sphere."""
    z2 = np.asarray(z2, dtype=float)
    rr = np.sum(z2 * z2, axis=-1)
    return np.log(rho * 4.0 * R * R / (4.0 * R * R + rho * rho * rr))


def circle_arc_chord_ratio_max(r_circle, sigma, n=20000):
    """max over angle gaps of minor-arc / sqrt(sigma * chord) on a circle."""
    dtheta = np.linspace(1e-6, np.pi, n)
    arc = r_circle * dtheta
    chord = 2.0 * r_circle * np.sin(0.5 * dtheta)
    return float(np.max(arc / np.sqrt(sigma * chord)))


def affine_fit_direct(coords2, values, weights=None):
    """Weighted scaled-isometry fit values ~ a T coords + b, independent route.

    Uses the polar decomposition of the weighted cross-covariance through
    eigh of M^T M rather than an SVD of M.  Returns (a, T, b).
    """
    u = np.asarray(coords2, dtype=float)
    f = np.asarray(values, dtype=float)
    w = np.ones(len(u)) if weights is None else np.asarray(weights, dtype=float)
    w = w / w.sum()
    ub = (w[:, None] * u).sum(axis=0)
    fb = (w[:, None] * f).sum(axis=0)
    du = u - ub
    df = f - fb
    m = (df * w[:, None]).T @ du  # (n, 2)
    mm = m.T @ m  # (2, 2)
    evals, evecs = np.linalg.eigh(mm)
    if evals.min() <= 1e-30 * max(evals.max(), 1.0):
        raise ValueError("rank-deficient oracle fit")
    inv_sqrt = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.T
    t = m @ inv_sqrt  # polar factor, columns orthonormal
    var = float((w * np.sum(du * du, axis=1)).sum())
    # the sum of singular values of M over the coordinate variance
    a = float(np.sum(np.sqrt(np.maximum(evals, 0.0)))) / var
    b = fb - a * (t @ ub)
    return a, t, b


def quasisymmetry_bruteforce(points2, values, center_index, s):
    """Plain-loop L_f / l_f at one center and scale (independent scan)."""
    z = points2[center_index]
    fz = values[center_index]
    big = 0.0
    small = np.inf
    for i in range(len(points2)):
        if i == center_index:
            continue
        d = float(np.hypot(points2[i][0] - z[0], points2[i][1] - z[1]))
        df = float(np.linalg.norm(values[i] - fz))
        if d <= s and df > big:
            big = df
        if d >= s and df < small:
            small = df
    return big / small


def edge_face_counter(faces) -> Counter:
    """Undirected edge (lo, hi) -> number of faces, one face side at a time."""
    counts: Counter = Counter()
    for tri in faces:
        for k in range(3):
            a, b = int(tri[k]), int(tri[(k + 1) % 3])
            counts[(min(a, b), max(a, b))] += 1
    return counts


def dirichlet_energy_direct(disk_pts, surf_pts, tris):
    """Per-triangle energy, area integral of |det grad f|, max dilatation.

    Independent of the library's vectorized Jacobian path: solves the 2x2
    affine system per triangle with numpy.linalg.solve.
    """
    energy = 0.0
    area_int = 0.0
    max_dil = 1.0
    for tri in tris:
        u0, u1, u2 = disk_pts[tri]
        p0, p1, p2 = surf_pts[tri]
        d = np.stack([u1 - u0, u2 - u0], axis=1)  # 2x2, columns edges
        s = np.stack([p1 - p0, p2 - p0], axis=1)  # n x 2
        area = 0.5 * np.linalg.det(d)
        jac = np.linalg.solve(d.T, s.T).T  # n x 2
        gram = jac.T @ jac
        ev = np.linalg.eigvalsh(gram)
        ev = np.maximum(ev, 0.0)
        energy += (ev[0] + ev[1]) * area
        area_int += np.sqrt(ev[0] * ev[1]) * area
        if ev[0] > 0:
            max_dil = max(max_dil, float(np.sqrt(ev[1] / ev[0])))
    return float(energy), float(area_int), float(max_dil)


def tutte_flattening(points, tris, boundary):
    """Uniform-weight (Tutte) flattening of a disk mesh onto the unit disk.

    The boundary cycle goes to the unit circle by normalized arc length and
    every interior vertex to the mean of its edge neighbors; the neighbor
    sets come from a per-triangle loop and the interior system is solved as
    one sparse matrix.
    """
    n = len(points)
    neighbors = [set() for _ in range(n)]
    for tri in tris:
        for k in range(3):
            a, b = int(tri[k]), int(tri[(k + 1) % 3])
            neighbors[a].add(b)
            neighbors[b].add(a)
    bp = points[boundary]
    seg = np.linalg.norm(np.roll(bp, -1, axis=0) - bp, axis=1)
    theta = 2.0 * np.pi * np.concatenate([[0.0], np.cumsum(seg)[:-1]]) / seg.sum()
    disk = np.zeros((n, 2))
    disk[boundary] = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    interior = np.setdiff1d(np.arange(n), boundary)
    pos = np.full(n, -1)
    pos[interior] = np.arange(len(interior))
    rows, cols, vals = [], [], []
    rhs = np.zeros((len(interior), 2))
    for r, v in enumerate(interior):
        rows.append(r)
        cols.append(r)
        vals.append(float(len(neighbors[v])))
        for u in neighbors[v]:
            if pos[u] >= 0:
                rows.append(r)
                cols.append(pos[u])
                vals.append(-1.0)
            else:
                rhs[r] += disk[u]
    system = csc_matrix((vals, (rows, cols)), shape=(len(interior), len(interior)))
    disk[interior] = spsolve(system, rhs)
    return disk


def oracle_cap_total_curvature(R, chord):
    """Quadrature-free |A|^2 integral of a cap: (2/R^2) * pi chord^2."""
    return 2.0 * np.pi * chord * chord / (R * R)


# ---------------------------------------------------------------------------
# conformal kernels as written before they got one owner each: the inline
# orientation determinant, the separate PL gradient, the per-statistic
# dyadic square loops and the 256-row pairwise broadcasts


def affine_maps_direct(disk_pts, tris, values):
    """Per-triangle Jacobians (t, d, 2) and signed disk areas (t,) of the
    PL map disk -> values, with the determinant written out."""
    u = disk_pts[tris]
    e1 = u[:, 1] - u[:, 0]
    e2 = u[:, 2] - u[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    v = values[tris]
    s1 = v[:, 1] - v[:, 0]
    s2 = v[:, 2] - v[:, 0]
    jx = (s1 * e2[:, [1]] - s2 * e1[:, [1]]) / det[:, None]
    jy = (-s1 * e2[:, [0]] + s2 * e1[:, [0]]) / det[:, None]
    return np.stack([jx, jy], axis=2), 0.5 * det


def pl_gradients_direct(disk_pts, tris, vertex_values):
    """Per-triangle gradients (t, 2, d) of a PL vertex field on the disk."""
    u = disk_pts[tris]
    e1 = u[:, 1] - u[:, 0]
    e2 = u[:, 2] - u[:, 0]
    det = (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])[:, None]
    v = vertex_values[tris]
    d1 = v[:, 1] - v[:, 0]
    d2 = v[:, 2] - v[:, 0]
    gx = (e2[:, [1]] * d1 - e1[:, [1]] * d2) / det
    gy = (-e2[:, [0]] * d1 + e1[:, [0]] * d2) / det
    return np.stack([gx, gy], axis=1)


def frame_terms_direct(disk, tris, f, interior):
    """(gauss_absolute, gauss_relative, frame_energy) of the curvature
    residuals over the ``interior`` vertex mask less its one-ring buffer."""
    deep = interior.copy()
    deep[tris[(~interior[tris]).any(axis=1)]] = False
    if deep.any():
        interior = deep
    jac, areas = affine_maps_direct(disk, tris, f)
    e1 = jac[:, :, 0] / np.linalg.norm(jac[:, :, 0], axis=1, keepdims=True)
    e2 = jac[:, :, 1] / np.linalg.norm(jac[:, :, 1], axis=1, keepdims=True)
    ebar1 = np.zeros_like(f)
    ebar2 = np.zeros_like(f)
    for c in range(3):
        np.add.at(ebar1, tris[:, c], e1 * (areas / 3.0)[:, None])
        np.add.at(ebar2, tris[:, c], e2 * (areas / 3.0)[:, None])
    ebar1 /= np.linalg.norm(ebar1, axis=1, keepdims=True)
    ebar2 /= np.linalg.norm(ebar2, axis=1, keepdims=True)
    g1 = pl_gradients_direct(disk, tris, ebar1)
    g2 = pl_gradients_direct(disk, tris, ebar2)
    wedge = np.einsum("tn,tn->t", g1[:, 0], g2[:, 1]) - np.einsum(
        "tn,tn->t", g1[:, 1], g2[:, 0]
    )
    rhs_g = np.zeros(len(disk))
    for c in range(3):
        np.add.at(rhs_g, tris[:, c], wedge * areas / 3.0)
    diff_g = np.abs(angle_defects(f, tris)[interior] - rhs_g[interior])
    ref_g = float(np.abs(rhs_g[interior]).sum())
    gauss_abs = float(diff_g.sum())
    frame_energy = float(
        np.sum(
            (np.einsum("tin,tin->t", g1, g1) + np.einsum("tin,tin->t", g2, g2))
            * areas
        )
    )
    return gauss_abs, gauss_abs / ref_g if ref_g > 0 else float("nan"), frame_energy


def _dyadic_cells(points, tris):
    centroids = points[tris].mean(axis=1)
    u = points[tris]
    e1 = u[:, 1] - u[:, 0]
    e2 = u[:, 2] - u[:, 0]
    areas = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    size = float((hi - lo).max())
    return centroids, areas, 0.5 * (lo + hi) - 0.5 * size, size


def _dyadic_buckets(centroids, origin, size, depth):
    cells = size / (1 << depth)
    ij = np.floor((centroids - origin) / cells).astype(int)
    ij = np.clip(ij, 0, (1 << depth) - 1)
    return ij[:, 0] + (ij[:, 1] << depth), cells


def dyadic_squares_direct(points, tris, depth, min_triangles, coverage):
    """Admissible dyadic squares as (x0, y0, size, depth) tuples."""
    centroids, areas, origin, size = _dyadic_cells(points, tris)
    out = []
    for d in range(depth + 1):
        buckets, cells = _dyadic_buckets(centroids, origin, size, d)
        counts = np.bincount(buckets, minlength=1 << (2 * d))
        covered = np.bincount(buckets, weights=areas, minlength=1 << (2 * d))
        ok = np.where(
            (counts >= min_triangles) & (covered >= coverage * cells * cells)
        )[0]
        for b in ok:
            i = int(b) & ((1 << d) - 1)
            j = int(b) >> d
            out.append(
                (float(origin[0] + i * cells), float(origin[1] + j * cells),
                 float(cells), d)
            )
    return out


def square_statistic_direct(points, tris, values, depth, min_triangles, coverage, kind):
    """Sup over admissible dyadic squares of ``kind``: "bmo" (mean absolute
    oscillation), "a2" (mean e^{2w} times mean e^{-2w}) or
    "inverse_holder" (mean j over mean sqrt(j) squared)."""

    def bmo(buckets, nsq, areas, covered, ok, v):
        mean = np.bincount(buckets, weights=areas * v, minlength=nsq) / np.maximum(
            covered, 1e-300
        )
        dev = np.abs(v - mean[buckets])
        osc = np.bincount(buckets, weights=areas * dev, minlength=nsq) / np.maximum(
            covered, 1e-300
        )
        return float(osc[ok].max())

    def a2(buckets, nsq, areas, covered, ok, v):
        up = np.bincount(
            buckets, weights=areas * np.exp(2.0 * v), minlength=nsq
        ) / np.maximum(covered, 1e-300)
        dn = np.bincount(
            buckets, weights=areas * np.exp(-2.0 * v), minlength=nsq
        ) / np.maximum(covered, 1e-300)
        return float((up[ok] * dn[ok]).max())

    def inverse_holder(buckets, nsq, areas, covered, ok, j):
        mean_j = np.bincount(buckets, weights=areas * j, minlength=nsq) / np.maximum(
            covered, 1e-300
        )
        mean_root = np.bincount(
            buckets, weights=areas * np.sqrt(j), minlength=nsq
        ) / np.maximum(covered, 1e-300)
        return float((mean_j[ok] / mean_root[ok] ** 2).max())

    statistic = {"bmo": bmo, "a2": a2, "inverse_holder": inverse_holder}[kind]
    centroids, areas, origin, size = _dyadic_cells(points, tris)
    best = None
    for d in range(depth + 1):
        buckets, cells = _dyadic_buckets(centroids, origin, size, d)
        nsq = 1 << (2 * d)
        counts = np.bincount(buckets, minlength=nsq)
        covered = np.bincount(buckets, weights=areas, minlength=nsq)
        ok = (counts >= min_triangles) & (covered >= coverage * cells * cells)
        if not ok.any():
            continue
        val = statistic(buckets, nsq, areas, covered, ok, values)
        best = val if best is None else max(best, val)
    if best is None:
        return 0.0 if kind == "bmo" else 1.0
    return best


def square_mask_direct(points, x0, y0, size):
    """Points in the half-open square [x0, x0 + size) x [y0, y0 + size)."""
    return (
        (points[:, 0] >= x0)
        & (points[:, 0] < x0 + size)
        & (points[:, 1] >= y0)
        & (points[:, 1] < y0 + size)
    )


def max_distance_blocks(points) -> float:
    """Largest pairwise distance, 256 rows against all points at a time."""
    diam = 0.0
    for i in range(0, len(points), 256):
        block = points[i : i + 256]
        diam = max(
            diam,
            float(np.linalg.norm(block[:, None, :] - points[None, :, :], axis=2).max()),
        )
    return diam


def lipschitz_blocks(du, dv) -> float:
    """max |dv_i - dv_j| / |du_i - du_j| over pairs with |du_i - du_j| >
    1e-14, 256 rows against all points at a time."""
    lip = 0.0
    for i in range(0, len(du), 256):
        dd = np.linalg.norm(du[i : i + 256, None, :] - du[None, :, :], axis=2)
        df = np.linalg.norm(dv[i : i + 256, None, :] - dv[None, :, :], axis=2)
        ok = dd > 1e-14
        if ok.any():
            lip = max(lip, float((df[ok] / dd[ok]).max()))
    return lip


def waypoint_cycle_unbounded(patch, waypoints2) -> np.ndarray:
    """``conformal.waypoint_cycle`` with one unbounded search per anchor over
    the whole metric graph."""
    idx = cKDTree(patch.plane_coords).query(np.asarray(waypoints2, dtype=float))[1]
    anchors = [int(idx[0])]
    for i in idx[1:]:
        if int(i) != anchors[-1]:
            anchors.append(int(i))
    while len(anchors) > 1 and anchors[-1] == anchors[0]:
        anchors.pop()
    if len(anchors) < 3:
        raise NotJordan("fewer than three distinct waypoint vertices")
    dist, pred = dijkstra(
        patch.metric_graph(), directed=True, indices=anchors,
        return_predecessors=True,
    )
    cycle: list = []
    for i, a in enumerate(anchors):
        b = anchors[(i + 1) % len(anchors)]
        if not np.isfinite(dist[i, b]):
            raise DisconnectedPatch(f"no path between waypoints {a} and {b}")
        path = [b]
        while path[-1] != a:
            path.append(int(pred[i, path[-1]]))
        path.reverse()
        cycle.extend(path[:-1])
    cyc = np.asarray(cycle, dtype=int)
    if len(np.unique(cyc)) != len(cyc):
        raise NotJordan("waypoint paths intersect each other")
    return cyc


def metric_diagnostics_loop(patch, waypoint_cycle, polygon_contains, *, sources=24,
                            waypoints=24, seed=0):
    """``intrinsic_metric_diagnostics`` with default floors and radii, the
    cycle diameter taken by ``max_distance_blocks``."""
    k = len(patch)
    rng = np.random.default_rng(seed)
    src = np.sort(rng.choice(k, size=min(sources, k), replace=False))
    d_metric = dijkstra(patch.metric_graph(), directed=True, indices=src)
    d_skel = dijkstra(patch.skeleton_graph(), directed=True, indices=src)
    chords = np.linalg.norm(
        patch.points[src][:, None, :] - patch.points[None, :, :], axis=2
    )
    r_max = float(np.linalg.norm(patch.plane_coords, axis=1).max())
    chord_floor = max(24.0 * patch.spacing, 0.25 * r_max)
    mask = (chords >= chord_floor) & np.isfinite(d_metric)
    ratios = d_metric[mask] / chords[mask]
    skel_ratio = d_skel[mask] / np.maximum(d_metric[mask], 1e-300)
    cycle_out = []
    for radius in (0.55 * r_max,):
        angles = 2.0 * np.pi * np.arange(waypoints) / waypoints
        pts2 = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        cyc = waypoint_cycle(patch, pts2)
        enclosed = np.where(polygon_contains(patch.plane_coords[cyc], patch.plane_coords))[0]
        if len(enclosed) > 1500:
            enclosed = rng.choice(enclosed, 1500, replace=False)
        diam = max_distance_blocks(patch.points[enclosed])
        cpts = patch.points[cyc]
        length = float(np.linalg.norm(np.roll(cpts, -1, axis=0) - cpts, axis=1).sum())
        cycle_out.append({"radius": float(radius), "diameter_over_length": diam / length})
    return {
        "path_over_chord_max": float(ratios.max()),
        "path_over_chord_mean": float(ratios.mean()),
        "skeleton_over_path_max": float(skel_ratio.max()),
        "pairs_used": int(mask.sum()),
        "chord_floor": float(chord_floor),
        "cycles": cycle_out,
    }
