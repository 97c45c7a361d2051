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

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec
from .geometry import WeightedSurfaceSample

KINDS = (
    "flat_disk",
    "graph",
    "plateau_graph",
    "sphere_cap",
    "cylinder_band",
    "perturbed_disk",
    "punched_disk",
)


@dataclass(frozen=True)
class SyntheticSpec:
    """Request for a synthetic surface sample.

    Attributes
    ----------
    kind : str
        One of flat_disk, graph, sphere_cap, cylinder_band, perturbed_disk,
        punched_disk.
    n_points : int
        Target sample size (actual count is lattice-determined, close to it).
    seed : int
        Seed for jitter and noise; lattice placement itself is deterministic.
    radius : float
        Disk radius, planar rim radius of the cap, or cylinder radius.
    eps : float
        Gradient bound of the graph kind: height eps*(x1^2-x2^2)/2.
    sphere_radius : float
        Sphere radius for sphere_cap.
    band_height : float
        Axial extent of the cylinder band.
    noise : float
        Amplitude of uniform normal jitter (perturbed_disk, optional others).
    hole_center : tuple
        Center of the punched hole in chart coordinates.
    hole_diameter : float or None
        Hole diameter; None means 5 mean spacings.
    pattern : str
        "hex" (default) or "sunflower".
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
    hole_diameter: float | None = None
    pattern: str = "hex"
    plateau_radius: float = 0.15
    wall_scale: float = 0.055

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown kind {self.kind!r}; choose from {KINDS}")
        if self.n_points < 16:
            raise InvalidSpec("n_points too small to form a surface sample")
        if self.radius <= 0:
            raise InvalidSpec("radius must be positive")
        if self.kind == "sphere_cap" and self.radius >= self.sphere_radius:
            raise InvalidSpec("rim radius must be below the sphere radius")
        if self.pattern not in ("hex", "sunflower"):
            raise InvalidSpec(f"unknown pattern {self.pattern!r}")
        if self.kind == "plateau_graph":
            if not 0 < self.plateau_radius < self.radius:
                raise InvalidSpec("plateau_radius must sit inside the disk")
            if self.wall_scale <= 0:
                raise InvalidSpec("wall_scale must be positive")


@dataclass(frozen=True)
class GroundTruth:
    """Analytic facts about a generated sample, aligned with its rows."""

    area: float
    mean_curvature: np.ndarray | None
    description: str
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# chart lattices


def disk_lattice(radius: float, target_n: int, pattern: str = "hex") -> np.ndarray:
    """Quasi-uniform points in a disk: triangular lattice or sunflower."""
    if pattern == "sunflower":
        i = np.arange(target_n, dtype=float) + 0.5
        r = radius * np.sqrt(i / target_n)
        phi = i * np.pi * (3.0 - np.sqrt(5.0))
        return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)
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


def rect_lattice_periodic(width: float, height: float, target_n: int) -> np.ndarray:
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


def _complement_frame(normals: np.ndarray) -> np.ndarray:
    """Orthonormal tangent pairs completing unit normals (N, 3) -> (N, 2, 3)."""
    n = normals
    ref = np.where(
        np.abs(n[:, [0]]) < 0.9, np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 1.0, 0.0]])
    )
    t1 = np.cross(n, ref)
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = np.cross(n, t1)
    t2 /= np.linalg.norm(t2, axis=1, keepdims=True)
    return np.stack([t1, t2], axis=1)


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
    builder = {
        "flat_disk": _gen_flat_disk,
        "graph": _gen_graph,
        "plateau_graph": _gen_plateau_graph,
        "sphere_cap": _gen_sphere_cap,
        "cylinder_band": _gen_cylinder_band,
        "perturbed_disk": _gen_perturbed_disk,
        "punched_disk": _gen_punched_disk,
    }[spec.kind]
    return builder(spec)


def _gen_flat_disk(spec: SyntheticSpec):
    xy = disk_lattice(spec.radius, spec.n_points, spec.pattern)
    count = xy.shape[0]
    pts = np.c_[xy, np.zeros(count)]
    area = np.pi * spec.radius**2
    w = np.full(count, area / count)
    bases = np.broadcast_to(np.eye(3)[:2], (count, 2, 3)).copy()
    sample = WeightedSurfaceSample(pts, w, bases)
    truth = GroundTruth(
        area=area,
        mean_curvature=np.zeros((count, 3)),
        description="flat unit-density disk in the z=0 plane",
        params={"radius": spec.radius},
    )
    return sample, truth


def graph_height(eps: float, xy: np.ndarray) -> np.ndarray:
    return 0.5 * eps * (xy[..., 0] ** 2 - xy[..., 1] ** 2)


def graph_gradient(eps: float, xy: np.ndarray):
    return eps * xy[..., 0], -eps * xy[..., 1]


def graph_mean_curvature(eps: float, xy: np.ndarray) -> np.ndarray:
    """Mean curvature vector (sum of principal curvatures times unit normal)."""
    gx, gy = graph_gradient(eps, xy)
    g2 = gx * gx + gy * gy
    scal = (((1.0 + gy * gy) * eps) + ((1.0 + gx * gx) * (-eps))) / (1.0 + g2) ** 1.5
    denom = np.sqrt(1.0 + g2)
    normal = np.stack([-gx / denom, -gy / denom, np.ones_like(gx) / denom], axis=-1)
    return scal[..., None] * normal


def _graph_area(eps: float, radius: float, n: int = 1200) -> float:
    r = np.linspace(0.0, radius, n)
    integrand = np.empty_like(r)
    phi = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    for i, rr in enumerate(r):
        gx = eps * rr * np.cos(phi)
        gy = -eps * rr * np.sin(phi)
        integrand[i] = rr * np.mean(np.sqrt(1.0 + gx * gx + gy * gy)) * 2.0 * np.pi
    return float(np.trapezoid(integrand, r))


def _gen_graph(spec: SyntheticSpec):
    xy = disk_lattice(spec.radius, spec.n_points, spec.pattern)
    count = xy.shape[0]
    z = graph_height(spec.eps, xy)
    pts = np.c_[xy, z]
    gx, gy = graph_gradient(spec.eps, xy)
    # local area element times projected cell area keeps weights honest
    cell = np.pi * spec.radius**2 / count
    w = np.sqrt(1.0 + gx * gx + gy * gy) * cell
    bases = _graph_frames(gx, gy)
    sample = WeightedSurfaceSample(pts, w, bases)
    truth = GroundTruth(
        area=_graph_area(spec.eps, spec.radius),
        mean_curvature=graph_mean_curvature(spec.eps, xy),
        description="saddle height graph with bounded gradient",
        params={"eps": spec.eps, "radius": spec.radius},
    )
    return sample, truth


def plateau_height(eps: float, r0: float, lam: float, xy: np.ndarray) -> np.ndarray:
    """Height of a raised shelf with an exponentially decaying inner wall.

    Outside radius r0 the graph sits flat at eps*lam; inside, the height
    drops like exp(-(r0-r)/lam), so the radial slope never exceeds eps and
    shrinks by a fixed factor per wall-scale step toward the center.
    """
    r = np.linalg.norm(xy, axis=-1)
    return eps * lam * np.exp(-np.maximum(r0 - r, 0.0) / lam)


def plateau_gradient(eps: float, r0: float, lam: float, xy: np.ndarray):
    r = np.linalg.norm(xy, axis=-1)
    slope = np.where(r < r0, eps * np.exp(-np.maximum(r0 - r, 0.0) / lam), 0.0)
    safe_r = np.maximum(r, 1e-300)
    gx = slope * xy[..., 0] / safe_r
    gy = slope * xy[..., 1] / safe_r
    return gx, gy


def _plateau_area(eps: float, r0: float, lam: float, radius: float) -> float:
    r = np.linspace(0.0, radius, 4000)
    slope = np.where(r < r0, eps * np.exp(-np.maximum(r0 - r, 0.0) / lam), 0.0)
    return float(np.trapezoid(2.0 * np.pi * r * np.sqrt(1.0 + slope**2), r))


def _gen_plateau_graph(spec: SyntheticSpec):
    xy = disk_lattice(spec.radius, spec.n_points, spec.pattern)
    count = xy.shape[0]
    z = plateau_height(spec.eps, spec.plateau_radius, spec.wall_scale, xy)
    pts = np.c_[xy, z]
    gx, gy = plateau_gradient(spec.eps, spec.plateau_radius, spec.wall_scale, xy)
    cell = np.pi * spec.radius**2 / count
    w = np.sqrt(1.0 + gx * gx + gy * gy) * cell
    bases = _graph_frames(gx, gy)
    sample = WeightedSurfaceSample(pts, w, bases)
    truth = GroundTruth(
        area=_plateau_area(spec.eps, spec.plateau_radius, spec.wall_scale, spec.radius),
        mean_curvature=None,
        description="flat disk with a raised shelf and exponential inner wall",
        params={
            "eps": spec.eps,
            "plateau_radius": spec.plateau_radius,
            "wall_scale": spec.wall_scale,
            "radius": spec.radius,
        },
    )
    return sample, truth


def cap_chord_radius(R: float, rim_radius: float) -> float:
    """Chord distance from the pole to the rim with given planar radius."""
    z = R - np.sqrt(R * R - rim_radius * rim_radius)
    return float(np.sqrt(2.0 * R * z))


def cap_area(R: float, rim_radius: float) -> float:
    """2 pi R (R - sqrt(R^2 - a^2)), equal to pi * chord_radius^2."""
    return float(2.0 * np.pi * R * (R - np.sqrt(R * R - rim_radius * rim_radius)))


def _gen_sphere_cap(spec: SyntheticSpec):
    R = spec.sphere_radius
    sigma_c = cap_chord_radius(R, spec.radius)
    uv = disk_lattice(sigma_c, spec.n_points, spec.pattern)
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
    area = cap_area(R, spec.radius)
    w = np.full(count, area / count)
    center = np.array([0.0, 0.0, R])
    normals = (pts - center) / R
    bases = _complement_frame(normals)
    H = (2.0 / R) * (center - pts) / R  # toward the sphere center
    sample = WeightedSurfaceSample(pts, w, bases)
    truth = GroundTruth(
        area=area,
        mean_curvature=H,
        description="sphere cap sampled in the azimuthal equal-area chart",
        params={"sphere_radius": R, "rim_radius": spec.radius},
    )
    return sample, truth


def _gen_cylinder_band(spec: SyntheticSpec):
    r = spec.radius
    width = 2.0 * np.pi * r
    uv = rect_lattice_periodic(width, spec.band_height, spec.n_points)
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
    truth = GroundTruth(
        area=area,
        mean_curvature=H,
        description="cylinder band, axis e3",
        params={"radius": r, "band_height": spec.band_height},
    )
    return sample, truth


def _gen_perturbed_disk(spec: SyntheticSpec):
    base, _ = _gen_flat_disk(spec)
    rng = np.random.default_rng(spec.seed)
    jitter = rng.uniform(-spec.noise, spec.noise, size=len(base))
    pts = base.points.copy()
    pts[:, 2] += jitter
    sample = WeightedSurfaceSample(pts, base.weights, base.tangent_bases)
    truth = GroundTruth(
        area=np.pi * spec.radius**2,
        mean_curvature=None,
        description="flat disk with seeded normal jitter",
        params={"noise": spec.noise, "radius": spec.radius, "seed": spec.seed},
    )
    return sample, truth


def _gen_punched_disk(spec: SyntheticSpec):
    base, _ = _gen_flat_disk(spec)
    spacing = base.mean_spacing
    diameter = spec.hole_diameter if spec.hole_diameter else 5.0 * spacing
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
        description="flat disk with a punched hole",
        params={
            "hole_center": tuple(center),
            "hole_diameter": float(diameter),
            "radius": spec.radius,
        },
    )
    return sample, truth


# ---------------------------------------------------------------------------
# closed mesh helper (tests and the mesh curvature path)


def icosphere(subdivisions: int = 3, radius: float = 1.0):
    """Subdivided icosahedron on the sphere of given radius.

    Returns (vertices, faces) with outward orientation.
    """
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=int,
    )
    for _ in range(subdivisions):
        verts, faces = _subdivide(verts, faces)
    return verts * radius, faces


def _subdivide(verts: np.ndarray, faces: np.ndarray):
    verts = list(verts)
    cache: dict = {}

    def midpoint(i, j):
        key = (min(i, j), max(i, j))
        if key not in cache:
            m = 0.5 * (np.asarray(verts[i]) + np.asarray(verts[j]))
            m /= np.linalg.norm(m)
            cache[key] = len(verts)
            verts.append(m)
        return cache[key]

    new_faces = []
    for a, b, c in faces:
        ab = midpoint(a, b)
        bc = midpoint(b, c)
        ca = midpoint(c, a)
        new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
    return np.asarray(verts), np.asarray(new_faces, dtype=int)
