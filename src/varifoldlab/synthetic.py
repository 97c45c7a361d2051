"""Synthetic surface generators with analytic ground truth.

Each kind produces a quasi-uniform weighted sample with exact tangent
planes and, where meaningful, the analytic mean-curvature field and total
area.  Sampling uses a deterministic triangular lattice in an exactly
area-preserving chart (identity for planar kinds, azimuthal equal-area for
sphere caps, unrolling for the cylinder), so per-point weight = area / N
holds to lattice accuracy and ball counts fluctuate far less than iid
sampling would allow.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec
from .geometry import WeightedSurfaceSample, _require_positive, complement_frame

_FLOAT_FIELDS = (
    "radius", "eps", "sphere_radius", "band_height", "noise", "plateau_radius", "wall_scale"
)


@dataclass(frozen=True)
class SyntheticSpec:
    """Request for a synthetic surface sample.

    Attributes
    ----------
    kind : str
        A key of `_BUILDERS`: flat_disk, graph, plateau_graph, sphere_cap,
        cylinder_band, perturbed_disk or punched_disk.
    n_points : int
        Target sample size (actual count is lattice-determined, close to it).
    seed : int
        Non-negative seed for jitter and noise; lattice placement is deterministic.
    radius : float
        Disk radius, planar rim radius of the cap, or cylinder radius.
    eps : float
        Gradient bound of the graph kinds: height eps*(x1^2-x2^2)/2 for
        graph, the largest radial slope of the wall for plateau_graph.
    sphere_radius : float
        Sphere radius for sphere_cap.
    band_height : float
        Axial extent of the cylinder band.
    noise : float
        Amplitude of the uniform height jitter of perturbed_disk.
    hole_center : tuple
        Two finite chart coordinates of the punched hole's center; the hole
        is HOLE_DIAMETER_SPACINGS mean spacings wide.
    plateau_radius : float
        Radius r0 of the plateau_graph wall, inside (0, radius); outside
        it the graph is a flat shelf at height eps * wall_scale.
    wall_scale : float
        Positive decay length of the plateau_graph wall: inside r0 the
        height falls like exp(-(r0 - r) / wall_scale).
    """

    kind: str = "flat_disk"
    n_points: int = 5000
    seed: int = 0
    radius: float = 1.0
    eps: float = 0.05
    sphere_radius: float = 10.0
    band_height: float = 3.0
    noise: float = 0.0
    hole_center: tuple = (0.3, 0.0)
    plateau_radius: float = 0.15
    wall_scale: float = 0.055

    def __post_init__(self):
        if self.kind not in _BUILDERS:
            raise InvalidSpec(f"unknown kind {self.kind!r}; choose from {tuple(_BUILDERS)}")
        n = self.n_points
        if not isinstance(n, numbers.Integral) or n < 16:
            raise InvalidSpec(f"n_points must be an integer of at least 16, got {n!r}")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise InvalidSpec(f"{name} must be a finite number, got {value!r}")
        for name in ("radius", "sphere_radius", "band_height"):
            if getattr(self, name) <= 0:
                raise InvalidSpec(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.noise < 0:
            raise InvalidSpec(f"noise must be at least 0, got {self.noise!r}")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise InvalidSpec(f"seed must be a non-negative integer, got {self.seed!r}")
        hole = self.hole_center
        pair = isinstance(hole, (tuple, list)) and len(hole) == 2
        if not (pair and all(isinstance(c, numbers.Real) and math.isfinite(c) for c in hole)):
            raise InvalidSpec(f"hole_center must be two finite numbers, got {hole!r}")
        if self.kind == "sphere_cap" and self.radius >= self.sphere_radius:
            raise InvalidSpec("rim radius must be below the sphere radius")
        if self.kind == "plateau_graph":
            if not 0 < self.plateau_radius < self.radius:
                raise InvalidSpec("plateau_radius must sit inside the disk")
            if self.wall_scale <= 0:
                raise InvalidSpec("wall_scale must be positive")


@dataclass(frozen=True)
class GroundTruth:
    """Analytic facts about a generated sample: its total area and, where
    known, the mean-curvature vector field, one row per sample row."""

    area: float
    mean_curvature: np.ndarray | None


# ---------------------------------------------------------------------------
# chart lattices


def disk_lattice(radius: float, target_n: int) -> np.ndarray:
    """Quasi-uniform points in a disk: a triangular lattice of about
    `target_n` points.  Raises InvalidScale or InvalidSpec on bad input."""
    _require_positive(radius, "lattice radius")
    if not isinstance(target_n, numbers.Integral) or target_n < 1:
        raise InvalidSpec(f"target_n must be a positive integer, got {target_n!r}")
    area = np.pi * radius * radius
    h = np.sqrt(2.0 * area / (np.sqrt(3.0) * target_n))
    return _hex_points(h, lambda p: np.hypot(p[:, 0], p[:, 1]) <= radius, radius)


def _hex_points(h: float, keep, extent: float) -> np.ndarray:
    rows = int(np.ceil(extent / (np.sqrt(3.0) / 2.0 * h))) + 1
    cols = int(np.ceil(extent / h)) + 1
    js = np.arange(-rows, rows + 1)
    ys = js * (np.sqrt(3.0) / 2.0) * h
    offsets = np.where(js % 2 == 1, 0.5 * h, 0.0)
    xs = np.arange(-cols, cols + 1) * h + offsets[:, None]
    # row-major: every x of lattice row j, then row j + 1
    pts = np.stack([xs, np.broadcast_to(ys[:, None], xs.shape)], axis=2).reshape(-1, 2)
    return pts[keep(pts)]


def _rect_lattice_periodic(width: float, height: float, target_n: int) -> np.ndarray:
    """Triangular lattice on a width-periodic band, exact wraparound."""
    area = width * height
    h = np.sqrt(2.0 * area / (np.sqrt(3.0) * target_n))
    n_cols = max(3, int(round(width / h)))
    hx = width / n_cols
    hy = np.sqrt(3.0) / 2.0 * h
    n_rows = max(1, int(round(height / hy)))
    hy = height / n_rows
    pts = []
    for j in range(n_rows):
        y = -height / 2.0 + (j + 0.5) * hy
        offset = 0.5 * hx if (j % 2) else 0.0
        xs = (np.arange(n_cols) + 0.25) * hx + offset
        xs = np.mod(xs, width)
        pts.append(np.stack([xs, np.full(n_cols, y)], axis=1))
    return np.concatenate(pts, axis=0)


# ---------------------------------------------------------------------------
# tangent frames


def _graph_frames(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Tangent frames of a height graph from its partial derivatives."""
    count = gx.shape[0]
    l1 = np.stack([np.ones(count), np.zeros(count), gx], axis=1)
    l2 = np.stack([np.zeros(count), np.ones(count), gy], axis=1)
    t1 = l1 / np.linalg.norm(l1, axis=1, keepdims=True)
    proj = np.einsum("ij,ij->i", l2, t1)[:, None] * t1
    t2 = l2 - proj
    t2 /= np.linalg.norm(t2, axis=1, keepdims=True)
    return np.stack([t1, t2], axis=1)


# ---------------------------------------------------------------------------
# generator


def generate(spec: SyntheticSpec):
    """Build the requested sample.

    Returns
    -------
    (WeightedSurfaceSample, GroundTruth)
    """
    return _BUILDERS[spec.kind](spec)


def _graph_sample(spec: SyntheticSpec, height, gradient) -> WeightedSurfaceSample:
    """The graph of `height` over the disk lattice, with frames and weights
    from its partial derivatives ``gradient(xy) = (gx, gy)``."""
    xy = disk_lattice(spec.radius, spec.n_points)
    gx, gy = gradient(xy)
    # local area element times projected cell area keeps weights honest
    cell = np.pi * spec.radius**2 / xy.shape[0]
    w = np.sqrt(1.0 + gx * gx + gy * gy) * cell
    return WeightedSurfaceSample(np.c_[xy, height(xy)], w, _graph_frames(gx, gy))


def _zeros(xy: np.ndarray) -> np.ndarray:
    return np.zeros(xy.shape[0])


def _gen_flat_disk(spec: SyntheticSpec):
    sample = _graph_sample(spec, _zeros, lambda xy: (_zeros(xy), _zeros(xy)))
    truth = GroundTruth(area=np.pi * spec.radius**2, mean_curvature=np.zeros((len(sample), 3)))
    return sample, truth


def graph_height(eps: float, xy: np.ndarray) -> np.ndarray:
    return 0.5 * eps * (xy[..., 0] ** 2 - xy[..., 1] ** 2)


def graph_mean_curvature(eps: float, xy: np.ndarray) -> np.ndarray:
    """Mean curvature vector (sum of principal curvatures times unit normal)."""
    gx, gy = eps * xy[..., 0], -eps * xy[..., 1]
    g2 = gx * gx + gy * gy
    scal = (((1.0 + gy * gy) * eps) + ((1.0 + gx * gx) * (-eps))) / (1.0 + g2) ** 1.5
    denom = np.sqrt(1.0 + g2)
    normal = np.stack([-gx / denom, -gy / denom, np.ones_like(gx) / denom], axis=-1)
    return scal[..., None] * normal


def _graph_area(eps: float, radius: float, n: int = 1200) -> float:
    r = np.linspace(0.0, radius, n)
    phi = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    # sqrt(1 + gx * gx + gy * gy) squared and summed in place: two (n, 256)
    # tables alive at once keep a graph input's set-up under the run's peak
    gx = (eps * r)[:, None] * np.cos(phi)
    gy = (-eps * r)[:, None] * np.sin(phi)
    gx *= gx
    gy *= gy
    gx += 1.0
    gx += gy
    integrand = r * np.sqrt(gx, out=gx).mean(axis=1) * 2.0 * np.pi
    return float(np.trapezoid(integrand, r))


def _gen_graph(spec: SyntheticSpec):
    eps = spec.eps
    sample = _graph_sample(
        spec, lambda xy: graph_height(eps, xy), lambda xy: (eps * xy[:, 0], -eps * xy[:, 1])
    )
    truth = GroundTruth(
        area=_graph_area(eps, spec.radius),
        mean_curvature=graph_mean_curvature(eps, sample.points[:, :2]),
    )
    return sample, truth


def _plateau_slope(eps: float, r0: float, lam: float, r: np.ndarray) -> np.ndarray:
    """Radial slope of the plateau_graph height at radius r."""
    return np.where(r < r0, eps * np.exp(-np.maximum(r0 - r, 0.0) / lam), 0.0)


def _plateau_area(eps: float, r0: float, lam: float, radius: float) -> float:
    r = np.linspace(0.0, radius, 4000)
    slope = _plateau_slope(eps, r0, lam, r)
    return float(np.trapezoid(2.0 * np.pi * r * np.sqrt(1.0 + slope**2), r))


def _gen_plateau_graph(spec: SyntheticSpec):
    eps, r0, lam = spec.eps, spec.plateau_radius, spec.wall_scale

    def height(xy):
        # a raised shelf at eps * lam outside r0; inside, the wall drops like
        # exp(-(r0 - r) / lam), so the radial slope never exceeds eps
        r = np.linalg.norm(xy, axis=-1)
        return eps * lam * np.exp(-np.maximum(r0 - r, 0.0) / lam)

    def gradient(xy):
        r = np.linalg.norm(xy, axis=-1)
        slope = _plateau_slope(eps, r0, lam, r)
        safe_r = np.maximum(r, 1e-300)
        # in this order: (slope / safe_r) * x rounds differently in the last bit
        return slope * xy[..., 0] / safe_r, slope * xy[..., 1] / safe_r

    sample = _graph_sample(spec, height, gradient)
    return sample, GroundTruth(area=_plateau_area(eps, r0, lam, spec.radius), mean_curvature=None)


def _cap_chord_radius(R: float, rim_radius: float) -> float:
    """Chord distance from the pole to the rim with given planar radius."""
    z = R - np.sqrt(R * R - rim_radius * rim_radius)
    return float(np.sqrt(2.0 * R * z))


def _cap_area(R: float, rim_radius: float) -> float:
    """2 pi R (R - sqrt(R^2 - a^2)), equal to pi * chord_radius^2."""
    return float(2.0 * np.pi * R * (R - np.sqrt(R * R - rim_radius * rim_radius)))


def _gen_sphere_cap(spec: SyntheticSpec):
    R = spec.sphere_radius
    sigma_c = _cap_chord_radius(R, spec.radius)
    uv = disk_lattice(sigma_c, spec.n_points)
    count = uv.shape[0]
    chord = np.linalg.norm(uv, axis=1)
    phi = np.arctan2(uv[:, 1], uv[:, 0])
    theta = 2.0 * np.arcsin(np.clip(chord / (2.0 * R), 0.0, 1.0))
    pts = np.stack(
        [
            R * np.sin(theta) * np.cos(phi),
            R * np.sin(theta) * np.sin(phi),
            R * (1.0 - np.cos(theta)),
        ],
        axis=1,
    )
    area = _cap_area(R, spec.radius)
    w = np.full(count, area / count)
    center = np.array([0.0, 0.0, R])
    normals = (pts - center) / R
    bases = complement_frame(normals)
    H = (2.0 / R) * (center - pts) / R  # toward the sphere center
    sample = WeightedSurfaceSample(pts, w, bases)
    return sample, GroundTruth(area=area, mean_curvature=H)


def _gen_cylinder_band(spec: SyntheticSpec):
    r = spec.radius
    width = 2.0 * np.pi * r
    uv = _rect_lattice_periodic(width, spec.band_height, spec.n_points)
    count = uv.shape[0]
    theta = uv[:, 0] / r
    pts = np.stack([r * np.cos(theta), r * np.sin(theta), uv[:, 1]], axis=1)
    area = width * spec.band_height
    w = np.full(count, area / count)
    t1 = np.stack([-np.sin(theta), np.cos(theta), np.zeros(count)], axis=1)
    t2 = np.broadcast_to(np.array([0.0, 0.0, 1.0]), (count, 3))
    bases = np.stack([t1, np.ascontiguousarray(t2)], axis=1)
    H = -(1.0 / r) * np.stack([np.cos(theta), np.sin(theta), np.zeros(count)], axis=1)
    sample = WeightedSurfaceSample(pts, w, bases)
    return sample, GroundTruth(area=area, mean_curvature=H)


def _gen_perturbed_disk(spec: SyntheticSpec):
    rng = np.random.default_rng(spec.seed)
    sample = _graph_sample(
        spec,
        lambda xy: rng.uniform(-spec.noise, spec.noise, size=xy.shape[0]),
        lambda xy: (_zeros(xy), _zeros(xy)),
    )
    return sample, GroundTruth(area=np.pi * spec.radius**2, mean_curvature=None)


# Diameter of the punched_disk hole, in mean spacings of the full disk.
HOLE_DIAMETER_SPACINGS = 5.0


def _gen_punched_disk(spec: SyntheticSpec):
    base, _ = _gen_flat_disk(spec)
    diameter = HOLE_DIAMETER_SPACINGS * base.mean_spacing
    center = np.asarray(spec.hole_center, dtype=float)
    dist = np.linalg.norm(base.points[:, :2] - center, axis=1)
    keep = dist > diameter / 2.0
    if keep.sum() < 16:
        raise InvalidSpec("hole removes nearly the whole sample")
    sample = WeightedSurfaceSample(
        base.points[keep], base.weights[keep], base.tangent_bases[keep]
    )
    truth = GroundTruth(
        area=float(base.weights[keep].sum()),
        mean_curvature=np.zeros((int(keep.sum()), 3)),
    )
    return sample, truth


# The one table of kinds: `SyntheticSpec.kind` names a key, `generate`
# calls its builder.
_BUILDERS = {
    "flat_disk": _gen_flat_disk,
    "graph": _gen_graph,
    "plateau_graph": _gen_plateau_graph,
    "sphere_cap": _gen_sphere_cap,
    "cylinder_band": _gen_cylinder_band,
    "perturbed_disk": _gen_perturbed_disk,
    "punched_disk": _gen_punched_disk,
}
