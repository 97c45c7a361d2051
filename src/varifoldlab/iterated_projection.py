"""Stagewise graph smoothing and iterated nearest-graph projection.

The pipeline attaches a contraction gauge to every sample point, extracts
the subset whose multiscale tilt is below a threshold, rebuilds the
complement from local moving-least-squares graphs glued along a separated
net with a partition of unity, and maps each rebuilt stage onto the next by
projecting along a blended normal bundle.  Composing the stage maps
parameterizes the surface from the first (coarsest) smoothed stage, and
empirical bi-Lipschitz statistics quantify the distortion of the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import (
    DegenerateCloud,
    DimensionMismatch,
    EmptyFineSet,
    EmptyInput,
    GraphTestFailure,
    NonContraction,
    NonFiniteInput,
    NoValidPreimage,
    PointOutsideDomain,
    TooFewPoints,
    UncoveredQuery,
)
from .geometry import (
    Ball,
    Plane,
    WeightedSurfaceSample,
    _canonical_rows,
    _pair_lipschitz,
    _require_point,
    _require_positive,
    grassmann_bases,
)
from .multiscale import _maximal_tilts, resolution_floor

# The gauge is this fraction of the distance to the domain boundary.
GAUGE_SHRINK = 100.0


# ---------------------------------------------------------------------------
# gauge fields


@dataclass
class DeltaField:
    """Contraction gauge evaluated on a point set, with a functional form.

    `values` are the gauge at `points`; `evaluate` extends the same formula
    to arbitrary queries so synthesized stage points can be gauged too.
    """

    points: np.ndarray
    values: np.ndarray
    provenance: str  # "initial_gauge" | "distance_to_fine_set"
    domain: Ball
    fine_points: np.ndarray | None = None
    _fine_tree: cKDTree | None = field(default=None, repr=False)

    def evaluate(self, queries) -> np.ndarray:
        q = np.atleast_2d(np.asarray(queries, dtype=float))
        rad = np.linalg.norm(q - self.domain.center, axis=1)
        if np.any(rad > self.domain.radius * (1.0 + 1e-9)):
            raise PointOutsideDomain("query outside the analysis domain ball")
        base = (self.domain.radius - rad) / GAUGE_SHRINK
        if self.provenance == "initial_gauge":
            return base
        if self._fine_tree is None:
            object.__setattr__(self, "_fine_tree", cKDTree(self.fine_points))
        dist, _ = self._fine_tree.query(q)
        return np.minimum(dist, base)


def make_delta0(
    sample: WeightedSurfaceSample, domain: Ball | None = None
) -> DeltaField:
    """Initial gauge: distance to the domain sphere over the shrink factor.

    A domain center of another dimension than the sample raises
    DimensionMismatch.
    """
    if domain is None:
        domain = Ball(np.zeros(sample.ambient_dim), 1.0)
    _require_point(domain.center, sample.ambient_dim, "domain center")
    rad = np.linalg.norm(sample.points - domain.center, axis=1)
    if np.any(rad > domain.radius * (1.0 + 1e-9)):
        raise PointOutsideDomain("sample exceeds the analysis domain ball")
    values = (domain.radius - rad) / GAUGE_SHRINK
    return DeltaField(sample.points, values, "initial_gauge", domain)


def next_delta(
    sample: WeightedSurfaceSample, fine: "FineSet", domain: Ball | None = None
) -> DeltaField:
    """Successor gauge: min of distance-to-fine-set and the initial formula.

    A domain center of another dimension than the sample raises
    DimensionMismatch.
    """
    if domain is None:
        domain = Ball(np.zeros(sample.ambient_dim), 1.0)
    _require_point(domain.center, sample.ambient_dim, "domain center")
    if fine.indices.size == 0:
        raise EmptyFineSet("cannot gauge against an empty fine set")
    fine_pts = sample.points[fine.indices]
    out = DeltaField(
        sample.points,
        np.zeros(len(sample)),
        "distance_to_fine_set",
        domain,
        fine_points=fine_pts,
    )
    out.values = out.evaluate(sample.points)
    return out


# ---------------------------------------------------------------------------
# fine sets


@dataclass
class FineSet:
    """Rows whose multiscale tilt at twice the gauge stays below `nu`.

    `plane_bases` cache the reference plane per member, pinned at the
    member's own point; members admitted because their gauge ball is below
    sample resolution carry their own tangent plane as the reference.
    """

    indices: np.ndarray
    nu: float
    plane_bases: np.ndarray
    tilts: np.ndarray

    def __contains__(self, row: int) -> bool:
        pos = np.searchsorted(self.indices, row)
        return pos < self.indices.size and self.indices[pos] == row

    def covers_all(self, n_rows: int) -> bool:
        return self.indices.size == n_rows


def reference_plane(
    sample: WeightedSurfaceSample, x, scale: float
) -> Plane:
    """Weighted principal plane of the ball around x, pinned at x.

    The one-row case of `_pinned_planes`; raises TooFewPoints for a ball of
    at most m points and DegenerateCloud when its second moments about x
    have rank below m.
    """
    idx = sample.ball_query(x, scale)
    m = sample.intrinsic_dim
    if idx.size < m + 1:
        raise TooFewPoints(
            f"{idx.size} points inside radius {scale:.4g}; need {m + 1}"
        )
    x = np.asarray(x, dtype=float)
    inside = np.ones((1, idx.size), dtype=bool)
    ok, bases, _ = _pinned_planes(sample, idx, x[None], inside)
    if not ok[0]:
        raise DegenerateCloud(
            f"second moments of the {idx.size} points inside radius {scale:.4g} "
            f"of {np.round(x, 6).tolist()} have rank below {m}"
        )
    return Plane(basis=bases[0], basepoint=x)


def _pinned_planes(sample, cand, centers, inside):
    """Weighted principal planes of a block of balls, each pinned at its center.

    `cand` holds sorted sample rows, `centers` (b, n) the ball centers and
    `inside` (b, K) the ball masks over `cand`.  Each row's covariance is
    formed alone, over its members in ascending row order, with the
    arithmetic of `geometry.fit_plane_pca`, so the planes are bit-identical
    to it: a batched, zero-padded covariance reorders the sums and, where
    the in-plane eigenvalues tie, turns the in-plane frame (which orients
    the fill grid of `build_sigma_delta`).  One stacked eigh, the same
    descending order and rank test, and `_canonical_rows` follow.

    Returns ``(ok, bases, normals)``: ``ok`` is False for a ball of at most
    m points or of second-moment rank below m, ``bases`` (b, m, n) holds
    the top-m eigenvectors as rows and ``normals`` (b, n - m, n) the rest.
    """
    m = sample.intrinsic_dim
    b, n = centers.shape
    pts = sample.points[cand]
    wts = sample.weights[cand]
    counts = inside.sum(axis=1)
    covs = np.zeros((b, n, n))
    for i in np.flatnonzero(counts > m):
        sel = np.flatnonzero(inside[i])
        w = wts[sel]
        rel = pts[sel] - centers[i]
        covs[i] = (rel * w[:, None]).T @ rel / w.sum()
    evals, evecs = np.linalg.eigh(covs)
    order = np.argsort(evals, axis=1)[:, ::-1]
    evals = np.take_along_axis(evals, order, axis=1)
    frames = np.take_along_axis(evecs, order[:, None, :], axis=2).transpose(0, 2, 1)
    rank_tol = np.maximum(np.maximum(evals[:, 0], 0.0) * 1e-12, 1e-300)
    ok = (counts > m) & (evals[:, m - 1] > rank_tol)
    bases = _canonical_rows(frames[:, :m].reshape(-1, n)).reshape(b, m, n)
    return ok, bases, frames[:, m:]


def extract_fine_set(
    sample: WeightedSurfaceSample,
    delta: DeltaField,
    nu: float,
    floor: float | None = None,
) -> FineSet:
    """Rows where the gauge vanishes or the 2-gauge maximal tilt is <= nu.

    Rows whose doubled gauge falls below the tilt resolution floor cannot be
    measured and are admitted (their flatness is unresolvable, and the zero
    set must always be contained).  A measured row whose 2-gauge ball holds
    at most m points, or whose second moments about the row have rank below
    m, has no reference plane and is not fine.

    The measured rows are taken a KD-tree leaf at a time
    (`WeightedSurfaceSample.candidate_blocks`, leaves of at most
    ``geometry._QUERY_BLOCK`` rows), each leaf with one sorted candidate set
    around its centroid, of radius its spread plus its largest 2-gauge;
    every row's fit ball and dyadic tilt balls are distance masks
    ``d2 <= r * r`` of it.  The planes are those of `reference_plane`, bit
    for bit (`_pinned_planes`); the tilts are those of `local_maximal_tilt`
    to rtol 1e-10, since they come from normal frames and masked sums
    (`multiscale._maximal_tilts`).  A floor that is not positive and finite
    raises `InvalidScale`: the dyadic scales would never reach it; so does
    a ``nu`` that is not positive and finite.
    """
    _require_positive(nu, "tilt threshold nu")
    if floor is None:
        floor = resolution_floor(sample, 4.0)
    _require_positive(floor, "resolution floor")
    radius = 2.0 * np.asarray(delta.values, dtype=float)
    fine = radius < floor  # gauge ball below resolution (includes the zero set)
    bases = sample.tangent_bases.copy()
    tilts = np.zeros(len(sample))
    rows = np.flatnonzero(~fine)
    for pos, cand, d2 in sample.candidate_blocks(rows, radius[rows]):
        block = rows[pos]
        r = radius[block]
        x = sample.points[block]
        ok, planes, normals = _pinned_planes(sample, cand, x, d2 <= (r * r)[:, None])
        tilt = _maximal_tilts(sample, cand, d2, r, normals, floor)
        keep = ok & (tilt <= nu)
        fine[block] = keep
        bases[block[keep]] = planes[keep]
        tilts[block[keep]] = tilt[keep]
    idx = np.flatnonzero(fine)
    return FineSet(idx, float(nu), bases[idx], tilts[idx])


# ---------------------------------------------------------------------------
# separated nets


# Net packing radius in units of the gauge (continuum value 0.5e-3).
NET_PACKING_MULT = 0.5e-3
# Within-group net separation in units of the gauge (continuum 0.1).
GROUP_SEP_MULT = 0.1


@dataclass
class SeparatedNet:
    """Greedy gauge-proportional packing with a conflict-free grouping."""

    indices: np.ndarray  # sample rows, in greedy acceptance order
    group_ids: np.ndarray
    group_count: int

    def groups(self):
        for g in range(self.group_count):
            yield self.indices[self.group_ids == g]


def build_separated_net(
    sample: WeightedSurfaceSample,
    delta: DeltaField,
) -> SeparatedNet:
    """Pack {gauge > 0} greedily, then color at a tenth-gauge separation.

    Processing runs in decreasing gauge order with stable index tie-breaks,
    so the result is deterministic.  Packing rejects a candidate inside the
    packing radius of an accepted point; coverage by accepted balls at twice
    the packing radius follows.  The group count is asserted against the
    10^(5m+1) ceiling and the true count recorded.
    """
    m = sample.intrinsic_dim
    vals = np.asarray(delta.values, dtype=float)
    cand = np.flatnonzero(vals > 0.0)
    if cand.size == 0:
        raise EmptyFineSet("no points with positive gauge to pack")
    order = cand[np.lexsort((cand, -vals[cand]))]
    pts = sample.points

    r_pack = NET_PACKING_MULT * vals
    tree_all = cKDTree(pts[order])
    # only pairs closer than the largest packing radius can ever conflict
    close = tree_all.query_pairs(float(r_pack[order].max()), output_type="ndarray")
    conflicts: dict[int, list[int]] = {}
    for a, b in close:  # a < b in acceptance order
        conflicts.setdefault(int(b), []).append(int(a))
    accepted_mask = np.zeros(order.size, dtype=bool)
    for pos in range(order.size):
        row = order[pos]
        ok = True
        for earlier in conflicts.get(pos, ()):
            if accepted_mask[earlier] and (
                np.linalg.norm(pts[row] - pts[order[earlier]])
                < r_pack[order[earlier]]
            ):
                ok = False
                break
        accepted_mask[pos] = ok
    net_rows = order[accepted_mask]

    # greedy coloring with symmetric tenth-gauge separation
    net_pts = pts[net_rows]
    net_vals = vals[net_rows]
    balls = cKDTree(net_pts).query_ball_point(
        net_pts, GROUP_SEP_MULT * net_vals, return_sorted=False
    )
    forbidden: list[set[int]] = [set() for _ in range(net_rows.size)]
    group_ids = np.full(net_rows.size, -1, dtype=int)
    for pos, ball in enumerate(balls):
        taken = set(forbidden[pos])
        for nb in ball:
            if nb != pos and group_ids[nb] >= 0:
                taken.add(int(group_ids[nb]))
        g = 0
        while g in taken:
            g += 1
        group_ids[pos] = g
        # forward-mark later points inside this member's own separation ball
        for nb in ball:
            if nb > pos:
                forbidden[nb].add(g)
    q = int(group_ids.max()) + 1
    assert q <= 10 ** (5 * m + 1), "group count exceeded the packing ceiling"
    return SeparatedNet(net_rows, group_ids, q)


# ---------------------------------------------------------------------------
# partition of unity

# Bump support radius in units of the gauge (continuum 0.5); the stage
# patches and the normal blend use the same bumps.
POU_SUPPORT_MULT = 0.5


def _pou_matrix(points, centers, supports, balls) -> csr_matrix:
    """Rows: points; columns: bump centers; entries: normalized weights.

    ``balls[j]`` holds the rows of `points` scored against bump j, any
    superset of its support (`SmoothedSurfaceStage.support_balls` for a
    stage); a row outside every support is all zero.
    """
    live = np.flatnonzero(supports > 0)
    cols = np.repeat(live, [len(balls[j]) for j in live])
    rows = np.concatenate([balls[j] for j in live] + [np.zeros(0, dtype=int)])
    # squared distances summed coordinate by coordinate, one column at a
    # time so no (pairs, n) temporary is formed
    d2 = np.zeros(rows.size)
    for axis in range(points.shape[1]):
        d2 += np.square(points[rows, axis] - centers[cols, axis])
    # each radius squared as a scalar (pow), not as an array square: the
    # two differ in the last bit for about 0.1% of radii
    d2 /= np.array([r**2 for r in supports])[cols]
    inside = d2 < 1.0
    mat = csr_matrix(
        ((1.0 - d2[inside]) ** 2, (rows[inside], cols[inside])),
        shape=(len(points), len(centers)),
    )
    sums = np.asarray(mat.sum(axis=1)).ravel()
    covered = sums > 0
    inv = np.zeros_like(sums)
    inv[covered] = 1.0 / sums[covered]
    return mat.multiply(inv[:, None]).tocsr()


def partition_of_unity(
    net: SeparatedNet,
    delta: DeltaField,
    query,
) -> list[tuple[int, float]]:
    """Normalized bump weights of the net members at one query point.

    Each bump is supported exactly on the ball of half the member's gauge.
    Raises DimensionMismatch or NonFiniteInput unless `query` is one finite
    point of the ambient dimension, and UncoveredQuery outside every bump.
    """
    centers = delta.points[net.indices]
    supports = POU_SUPPORT_MULT * np.asarray(delta.values)[net.indices]
    query = _require_point(query, centers.shape[1], "query")[None]
    row = _pou_matrix(
        query, centers, supports, np.zeros((len(centers), 1), dtype=int)
    ).getrow(0)
    if row.nnz == 0:
        raise UncoveredQuery("no bump support contains the query")
    return [(int(j), float(v)) for j, v in zip(row.indices, row.data)]


# ---------------------------------------------------------------------------
# smoothed stages


@dataclass
class SmoothedSurfaceStage:
    """One rebuilt surface: kept fine points plus synthesized graph points."""

    index: int
    points: np.ndarray
    gauge: np.ndarray
    sample_rows: np.ndarray  # source sample row per point; -1 if synthesized
    patch_centers: np.ndarray
    patch_bases: np.ndarray
    patch_gauge: np.ndarray
    graph_lipschitz: np.ndarray
    synth_offset_ratio: float
    overlap_mismatch: float
    normal_projectors: np.ndarray | None = None
    normal_lipschitz: np.ndarray | None = None
    _support_balls: list | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def fine_mask(self) -> np.ndarray:
        return self.sample_rows >= 0

    def support_balls(self) -> list[np.ndarray]:
        """Stage rows inside each patch's support ball, from one batched
        query of one ``cKDTree(points)``, as int32 arrays in KD-tree
        traversal order (``return_sorted=False``), the order in which the
        graph test thins and the normal-field quotient truncates them.
        Kept until `normal_field`, the last reader, releases them.
        """
        if self._support_balls is None:
            balls = cKDTree(self.points).query_ball_point(
                self.patch_centers,
                POU_SUPPORT_MULT * self.patch_gauge,
                return_sorted=False,
            )
            self._support_balls = [np.array(b, dtype=np.int32) for b in balls]
        return self._support_balls


def _square_grid(radius: float, step: float, m: int) -> np.ndarray:
    """Integer grid of in-plane coordinates covering a disk, center included."""
    if radius < step:
        return np.zeros((1, m))
    k = int(np.floor(radius / step))
    axes = [np.arange(-k, k + 1) * step] * m
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
    return mesh[(mesh**2).sum(axis=1) <= radius**2]


def _mls_normal_offset(coords, normals, weights, eval_coords):
    """Weighted affine fit of normal offsets, evaluated at grid coordinates.

    coords : (N, m) in-plane data coordinates, normals : (N, n) their normal
    components, weights : (N,) bump weights recentred per evaluation node.
    Returns (K, n) fitted normal offsets or None when the fit is rank
    deficient at some node.
    """
    out = np.zeros((len(eval_coords), normals.shape[1]))
    m = coords.shape[1]
    for k, g in enumerate(eval_coords):
        rel = coords - g
        w = weights[k]
        mask = w > 0
        if int(mask.sum()) < m + 1:
            return None
        a = np.concatenate(
            [np.ones((int(mask.sum()), 1)), rel[mask]], axis=1
        )
        aw = a * w[mask][:, None]
        gram = aw.T @ a
        rhs = aw.T @ normals[mask]
        try:
            sol = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            return None
        out[k] = sol[0]
    return out


# Synthesized patch radius in units of the gauge (continuum 2e-3).
PATCH_RADIUS_MULT = 2.0e-3
# The graph test rejects balls whose height field exceeds this multiple of
# the fine threshold as a Lipschitz constant.
GRAPH_LIP_MULT = 10.0


def build_sigma_delta(
    sample: WeightedSurfaceSample,
    fine: FineSet,
    net: SeparatedNet,
    delta: DeltaField,
    nu: float,
    stage_index: int = 0,
) -> SmoothedSurfaceStage:
    """Keep the fine points and fill the rest with local graph patches.

    Patches are fitted per net member, over that member's reference plane,
    by moving least squares on the fine points inside half a gauge, with the
    same bump profile as the partition of unity for weights.  Groups are
    processed in order and a synthesized candidate defers to any existing
    stage point within half a grid step (prior heights win on overlap).

    The finished stage then passes the graph test of `_graph_lipschitz`:
    over each patch's support ball, the normal parts of the stage points
    must be ``GRAPH_LIP_MULT * nu``-Lipschitz in their in-plane parts.  A ball
    of more than 300 points is thinned to every ``len // 300 + 1``-th point
    in KD-tree traversal order, not sorted index order, so the measured
    subsample (and the recorded `graph_lipschitz`) depends on that order.
    The balls come from `SmoothedSurfaceStage.support_balls`, which keeps
    them for `normal_field`.
    """
    m = sample.intrinsic_dim
    grid_step = sample.mean_spacing
    lip_bound = GRAPH_LIP_MULT * nu
    floor = resolution_floor(sample, 4.0)
    vals = np.asarray(delta.values, dtype=float)

    fine_pts = sample.points[fine.indices]
    if fine_pts.shape[0] == 0:
        raise GraphTestFailure("no fine points to anchor any graph patch")
    fine_tree = cKDTree(fine_pts)
    sample_tree = sample.spatial_index

    stage_pts: list[np.ndarray] = [fine_pts]
    stage_rows: list[np.ndarray] = [fine.indices.copy()]
    patch_centers, patch_bases, patch_gauge = [], [], []
    overlap_mismatch = 0.0
    offset_ratio = 0.0

    for g in range(net.group_count):
        members = net.indices[net.group_ids == g]
        existing = np.concatenate(stage_pts)
        existing_tree = cKDTree(existing)
        anchors = fine_tree.query_ball_point(
            sample.points[members], POU_SUPPORT_MULT * vals[members],
            return_sorted=False,
        )
        new_pts: list[np.ndarray] = []
        for row, local in zip(members, anchors):
            u = sample.points[row]
            d_u = vals[row]
            support_r = POU_SUPPORT_MULT * d_u
            fill_r = PATCH_RADIUS_MULT * d_u
            if row in fine:
                # the member's own points are kept verbatim; its cached
                # reference plane still anchors the partition of unity
                pos = int(np.searchsorted(fine.indices, row))
                basis = fine.plane_bases[pos]
                patch_centers.append(u)
                patch_bases.append(basis)
                patch_gauge.append(d_u)
                if 2.0 * d_u < floor:
                    # gauge below sample resolution: nothing to refit
                    continue
                if len(local) < m + 1:
                    # too few anchors to refit; the kept points stand
                    continue
            else:
                if len(local) < m + 1:
                    raise GraphTestFailure(
                        f"net point at {np.round(u, 6).tolist()} has only "
                        f"{len(local)} fine anchors inside {support_r:.4g}"
                    )
                plane = reference_plane(sample, u, 2.0 * d_u)
                basis = plane.basis
                patch_centers.append(u)
                patch_bases.append(basis)
                patch_gauge.append(d_u)
            local = np.asarray(local, dtype=int)
            pts_local = fine_pts[local]
            rel = pts_local - u
            coords = rel @ basis.T
            normals = rel - coords @ basis
            grid = _square_grid(fill_r, grid_step, m)
            d2 = (
                (coords[None, :, :] - grid[:, None, :]) ** 2
            ).sum(axis=2) / support_r**2
            bump_w = np.where(d2 < 1.0, (1.0 - np.minimum(d2, 1.0)) ** 2, 0.0)
            bump_w = bump_w * sample.weights[fine.indices[local]][None, :]
            offsets = _mls_normal_offset(coords, normals, bump_w, grid)
            if offsets is None:
                raise GraphTestFailure(
                    f"rank-deficient graph fit at {np.round(u, 6).tolist()}"
                )
            candidates = u + grid @ basis + offsets
            near_d, _ = existing_tree.query(candidates)
            keep = near_d > 0.5 * grid_step
            overlap_mismatch = max(
                overlap_mismatch,
                float(near_d[~keep].max()) if np.any(~keep) else 0.0,
            )
            if np.any(keep):
                new_pts.append(candidates[keep])
        if new_pts:
            batch = np.concatenate(new_pts)
            # candidates synthesized within one group can still collide with
            # each other near group boundaries; keep first come
            batch_tree = cKDTree(batch)
            pairs = batch_tree.query_pairs(0.5 * grid_step, output_type="ndarray")
            drop = np.zeros(len(batch), dtype=bool)
            for a, b in pairs:
                if not drop[a]:
                    drop[b] = True
            batch = batch[~drop]
            stage_pts.append(batch)
            stage_rows.append(np.full(len(batch), -1, dtype=int))

    points = np.concatenate(stage_pts)
    rows = np.concatenate(stage_rows)
    gauge = delta.evaluate(points)

    synth = rows < 0
    if np.any(synth):
        d_sample, _ = sample_tree.query(points[synth])
        d_fine, _ = fine_tree.query(points[synth])
        denom = nu * np.maximum(d_fine, 1e-300)
        offset_ratio = float((d_sample / denom).max())

    stage = SmoothedSurfaceStage(
        index=stage_index,
        points=points,
        gauge=gauge,
        sample_rows=rows,
        patch_centers=np.asarray(patch_centers).reshape(-1, sample.ambient_dim),
        patch_bases=np.asarray(patch_bases).reshape(-1, m, sample.ambient_dim),
        patch_gauge=np.asarray(patch_gauge, dtype=float),
        graph_lipschitz=np.zeros(len(patch_gauge)),
        synth_offset_ratio=offset_ratio,
        overlap_mismatch=overlap_mismatch,
    )
    stage.graph_lipschitz = _graph_lipschitz(stage, lip_bound)
    return stage


def _graph_lipschitz(stage: SmoothedSurfaceStage, lip_bound: float) -> np.ndarray:
    """Per-patch Lipschitz constant of the stage as a graph over its plane.

    Patch k sees its support ball (`SmoothedSurfaceStage.support_balls`),
    split into in-plane coordinates and normal parts of its basis; its
    constant is the largest ratio of normal to in-plane distance over point
    pairs with in-plane distance above 1e-12.  Balls of more than 300
    points keep every ``len // 300 + 1``-th point in KD-tree traversal
    order.  Raises GraphTestFailure at the first patch, in patch order,
    above `lip_bound`.
    """
    lips = np.zeros(len(stage.patch_centers))
    for k, ball in enumerate(stage.support_balls()):
        if len(ball) > 300:
            # bound the pairwise cost on wide patches with a uniform stride
            ball = ball[:: len(ball) // 300 + 1]
        local = stage.points[ball] - stage.patch_centers[k]
        basis = stage.patch_bases[k]
        cc = local @ basis.T
        lips[k] = _pair_lipschitz(cc, local - cc @ basis, 1e-12)
        if lips[k] > lip_bound:
            raise GraphTestFailure(
                f"patch at {np.round(stage.patch_centers[k], 6).tolist()} fails the graph "
                f"test: Lipschitz {lips[k]:.3g} exceeds {lip_bound:.3g}"
            )
    return lips


def _fine_only_stage(
    sample: WeightedSurfaceSample,
    fine: FineSet,
    delta: DeltaField,
    stage_index: int,
) -> SmoothedSurfaceStage:
    """Stage for a fine set that already covers everything: no synthesis."""
    pts = sample.points[fine.indices]
    n = sample.ambient_dim
    m = sample.intrinsic_dim
    projs = np.eye(n)[None] - np.einsum(
        "nmi,nmj->nij",
        sample.tangent_bases[fine.indices],
        sample.tangent_bases[fine.indices],
    )
    return SmoothedSurfaceStage(
        index=stage_index,
        points=pts,
        gauge=np.asarray(delta.values)[fine.indices],
        sample_rows=fine.indices.copy(),
        patch_centers=np.zeros((0, n)),
        patch_bases=np.zeros((0, m, n)),
        patch_gauge=np.zeros(0),
        graph_lipschitz=np.zeros(0),
        synth_offset_ratio=0.0,
        overlap_mismatch=0.0,
        normal_projectors=projs,
        normal_lipschitz=np.zeros(0),
    )


# ---------------------------------------------------------------------------
# normal bundle


def normal_field(
    stage: SmoothedSurfaceStage,
    sample: WeightedSurfaceSample,
) -> SmoothedSurfaceStage:
    """Blend patch normal projectors with the partition of unity.

    Kept fine points outside every bump support fall back to their own
    sample tangent plane's normal projector (their plane is exact there);
    a synthesized point without coverage is an error.  The per-patch
    Lipschitz quotient of the blended field is recorded: over the first 50
    points of each support ball (`SmoothedSurfaceStage.support_balls`, in
    KD-tree traversal order), the largest ratio of projector (Frobenius)
    distance to point distance.  This is the last reader of the support
    balls, so it releases them.
    """
    if len(stage.patch_centers) == 0:
        if stage.normal_projectors is None:
            raise UncoveredQuery("stage has no patches and no fallback planes")
        return stage
    n = stage.points.shape[1]
    m = stage.patch_bases.shape[1]
    balls = stage.support_balls()
    mat = _pou_matrix(
        stage.points, stage.patch_centers, POU_SUPPORT_MULT * stage.patch_gauge, balls
    )
    uncovered = np.asarray(mat.sum(axis=1)).ravel() <= 0
    if np.any(uncovered & ~stage.fine_mask):
        raise UncoveredQuery(
            f"{int((uncovered & ~stage.fine_mask).sum())} synthesized points "
            "have no bump coverage"
        )
    patch_normals = np.eye(n) - _span_projectors(stage.patch_bases)
    blended = (mat @ patch_normals.reshape(len(patch_normals), n * n)).reshape(
        -1, n, n
    )
    projs = np.empty((len(stage.points), n, n))
    projs[~uncovered] = _span_projectors(
        grassmann_bases(blended[~uncovered], n - m)
    )
    projs[uncovered] = np.eye(n) - _span_projectors(
        sample.tangent_bases[stage.sample_rows[uncovered]]
    )

    flat = projs.reshape(len(projs), -1)
    stage.normal_lipschitz = np.array(
        [_pair_lipschitz(stage.points[b[:50]], flat[b[:50]], 1e-12) for b in balls]
    )
    stage.normal_projectors = projs
    stage._support_balls = None
    return stage


def _span_projectors(bases: np.ndarray) -> np.ndarray:
    """B^T B for each orthonormal row basis B of a stack."""
    return np.matmul(np.swapaxes(bases, -1, -2), bases)


# ---------------------------------------------------------------------------
# stage-to-stage projection


@dataclass
class CorrespondenceMap:
    """Pairing of one stage's points with their projections on the next."""

    source_points: np.ndarray
    target_points: np.ndarray
    target_indices: np.ndarray
    displacements: np.ndarray  # v with source = target + v, exactly
    depth: int
    tangential_residuals: np.ndarray

    @property
    def displacement_norms(self) -> np.ndarray:
        return np.linalg.norm(self.displacements, axis=1)


# Nearest target points scored per source point by `project_tau`.
TAU_CANDIDATES = 12


def project_tau(
    stage_from: SmoothedSurfaceStage,
    stage_to: SmoothedSurfaceStage,
    beta: float,
) -> CorrespondenceMap:
    """Project each source point onto the target stage's nearest graph.

    For source x and candidate target y, one of its TAU_CANDIDATES nearest
    target points, the decomposition x = y + v splits v into normal and
    tangential parts of y's blended normal projector; the admissible
    candidate with the smallest tangential residual wins.  The normal part
    must stay within beta times the target gauge, padded by a resolution
    slack (twice the median nearest-neighbor spacing of the target) so kept
    fine points (gauge zero) remain reachable.
    """
    if stage_to.normal_projectors is None:
        raise MissingNormalField()
    src = stage_from.points
    tgt = stage_to.points
    tree = cKDTree(tgt)
    nn, _ = tree.query(tgt, k=2)
    slack = 2.0 * float(np.median(nn[:, 1]))
    k = min(TAU_CANDIDATES, len(tgt))
    # query(k=1) drops the candidate axis
    idx = tree.query(src, k=k)[1].reshape(len(src), k)
    d = src[:, None, :] - tgt[idx]
    v_norm = np.einsum("skij,skj->ski", stage_to.normal_projectors[idx], d)
    reachable = (
        np.linalg.norm(v_norm, axis=2) <= beta * stage_to.gauge[idx] + slack
    )
    stuck = np.flatnonzero(~reachable.any(axis=1))
    if stuck.size:
        raise NoValidPreimage(
            f"source point {np.round(src[stuck[0]], 6).tolist()} has no "
            f"admissible target within normal reach"
        )
    t_res = np.where(reachable, np.linalg.norm(d - v_norm, axis=2), np.inf)
    # argmin keeps the nearest of tied candidates, as a strict-< scan would
    best = np.argmin(t_res, axis=1)[:, None]
    chosen = np.take_along_axis(idx, best, axis=1)[:, 0]
    tang_res = np.take_along_axis(t_res, best, axis=1)[:, 0]
    return CorrespondenceMap(
        source_points=src,
        target_points=tgt[chosen],
        target_indices=chosen,
        displacements=src - tgt[chosen],
        depth=1,
        tangential_residuals=tang_res,
    )


class MissingNormalField(UncoveredQuery):
    def __init__(self):
        super().__init__("target stage has no normal field; run normal_field")


def compose_maps(maps: list[CorrespondenceMap]) -> CorrespondenceMap:
    """Chain stage maps by index: the step-wise composition, exactly.

    Raises EmptyInput for an empty list.
    """
    if not maps:
        raise EmptyInput("no stage maps to compose")
    chain = maps[0].target_indices.copy()
    targets = maps[0].target_points.copy()
    residuals = maps[0].tangential_residuals.copy()
    for nxt in maps[1:]:
        targets = nxt.target_points[chain]
        residuals = nxt.tangential_residuals[chain]
        chain = nxt.target_indices[chain]
    src = maps[0].source_points
    return CorrespondenceMap(
        source_points=src,
        target_points=targets,
        target_indices=chain,
        displacements=src - targets,
        depth=sum(mp.depth for mp in maps),
        tangential_residuals=residuals,
    )


# ---------------------------------------------------------------------------
# distortion statistics


@dataclass
class DistortionReport:
    """Empirical pointwise upper/lower distortion of a discrete map."""

    f_upper: np.ndarray
    f_lower: np.ndarray
    p: float
    lp_upper: float
    lp_lower_inverse: float
    lp_deviation: float
    exponent_forward: float
    exponent_inverse: float
    pair_budget: int

    @property
    def spread(self) -> float:
        return float(self.f_upper.max() / self.f_lower.min())


# Point count up to which `distortion_report` uses every pair; above it,
# each point gets its nearest neighbors plus DISTORTION_PAIRS / count
# random partners (at least 4), drawn from a generator seeded with
# DISTORTION_SEED.
DISTORTION_PAIRS = 2000
DISTORTION_SEED = 0
# Exponent of the L^p figures of a `DistortionReport`.
DISTORTION_P = 2.0


def distortion_report(source_points, target_points) -> DistortionReport:
    """Pointwise sup/inf difference quotients over sampled partners.

    All pairs are used when the point count is at most DISTORTION_PAIRS;
    otherwise each point gets its nearest neighbors plus seeded random
    partners.  The L^p figures take exponent DISTORTION_P and uniform
    weights.  Quotients are formed a block of rows at a time, so memory
    stays at a few megabytes whatever the pair count.

    Raises DimensionMismatch unless source and target are (N, n) arrays of
    one shape, NonFiniteInput for a non-finite coordinate and TooFewPoints
    unless the source holds two distinct points.
    """
    src = np.atleast_2d(np.asarray(source_points, dtype=float))
    tgt = np.atleast_2d(np.asarray(target_points, dtype=float))
    if src.ndim != 2 or src.shape != tgt.shape:
        raise DimensionMismatch(
            f"source {src.shape} and target {tgt.shape} must be (N, n) of one shape"
        )
    if not (np.isfinite(src).all() and np.isfinite(tgt).all()):
        raise NonFiniteInput("mapped points must be finite")
    if len(src) < 2 or (src == src[0]).all():
        raise TooFewPoints("distortion needs at least two distinct source points")
    n_pts = len(src)
    w = np.full(n_pts, 1.0 / n_pts)

    dev = tgt - src
    if n_pts <= DISTORTION_PAIRS:
        blocks = _all_pair_blocks(src, tgt, dev)
    else:
        blocks = [_sampled_pair_block(src, tgt, dev, DISTORTION_PAIRS, DISTORTION_SEED)]

    f_up = np.empty(n_pts)
    f_lo = np.empty(n_pts)
    dev_up = np.empty(n_pts)
    # running count, means and centered co-moments of the log distances
    count, mean_s, mean_t, m_ss, m_tt, m_st = 0, 0.0, 0.0, 0.0, 0.0, 0.0
    for rows, ds, dt, dd, valid in blocks:
        ok = valid & (ds > 1e-300)
        has = ok.any(axis=1)
        safe = np.where(ok, ds, 1.0)
        ratio = dt / safe
        f_up[rows] = np.where(
            has, np.where(ok, ratio, -np.inf).max(axis=1), 1.0
        )
        f_lo[rows] = np.where(has, np.where(ok, ratio, np.inf).min(axis=1), 1.0)
        dev_up[rows] = np.where(
            has, np.where(ok, dd / safe, -np.inf).max(axis=1), 0.0
        )
        pos = ok & (dt > 1e-300)
        if not pos.any():
            continue
        ls = np.log(ds[pos])
        lt = np.log(dt[pos])
        # merge this block's moments into the running ones (Chan et al.)
        nb = ls.size
        bs, bt = ls.mean(), lt.mean()
        total = count + nb
        step_s, step_t = bs - mean_s, bt - mean_t
        share = count * nb / total
        m_ss += float(((ls - bs) ** 2).sum()) + step_s * step_s * share
        m_tt += float(((lt - bt) ** 2).sum()) + step_t * step_t * share
        m_st += float(((ls - bs) * (lt - bt)).sum()) + step_s * step_t * share
        mean_s += step_s * nb / total
        mean_t += step_t * nb / total
        count = total

    exp_fwd = m_st / m_ss if m_ss > 0 else 1.0
    exp_inv = m_st / m_tt if m_tt > 0 else 1.0

    lp_upper = float((w * f_up**DISTORTION_P).sum())
    safe_lo = np.maximum(f_lo, 1e-300)
    lp_lower_inverse = float((w * safe_lo ** (-DISTORTION_P)).sum())
    lp_deviation = float((w * dev_up**DISTORTION_P).sum())
    return DistortionReport(
        f_upper=f_up,
        f_lower=f_lo,
        p=DISTORTION_P,
        lp_upper=lp_upper,
        lp_lower_inverse=lp_lower_inverse,
        lp_deviation=lp_deviation,
        exponent_forward=exp_fwd,
        exponent_inverse=exp_inv,
        pair_budget=DISTORTION_PAIRS,
    )


def _all_pair_blocks(src, tgt, dev, entries: int = 1 << 18):
    """Every (row, other row) pair, as row blocks of distance matrices.

    Yields ``(rows, ds, dt, dd, valid)``: source, target and deviation
    distances from the block's rows to all points, and a mask dropping
    each row's pairing with itself.
    """
    n_pts = len(src)
    step = max(1, entries // n_pts)
    for lo in range(0, n_pts, step):
        rows = np.arange(lo, min(lo + step, n_pts))
        valid = np.ones((len(rows), n_pts), dtype=bool)
        valid[np.arange(len(rows)), rows] = False
        yield (
            rows,
            cdist(src[rows], src),
            cdist(tgt[rows], tgt),
            cdist(dev[rows], dev),
            valid,
        )


def _sampled_pair_block(src, tgt, dev, pairs: int, seed: int):
    """Each row against its 8 nearest neighbors (all others when there
    are fewer) plus seeded random rows.

    Partners are deduplicated, sorted and never the row itself; ``valid``
    masks the padding that deduplication leaves.  Returns one block in the
    layout of `_all_pair_blocks`.
    """
    n_pts = len(src)
    rng = np.random.default_rng(seed)
    k_near = min(8, n_pts - 1)
    _, near = cKDTree(src).query(src, k=k_near + 1)
    n_rand = max(4, pairs // n_pts + 1)
    rows = np.arange(n_pts)
    cand = np.concatenate(
        [near[:, 1:], rng.integers(0, n_pts, (n_pts, n_rand))], axis=1
    )
    cand = np.sort(np.where(cand == rows[:, None], -1, cand), axis=1)
    valid = cand >= 0
    valid[:, 1:] &= cand[:, 1:] != cand[:, :-1]
    cand = np.maximum(cand, 0)
    return (
        rows,
        np.linalg.norm(src[cand] - src[:, None, :], axis=2),
        np.linalg.norm(tgt[cand] - tgt[:, None, :], axis=2),
        np.linalg.norm(dev[cand] - dev[:, None, :], axis=2),
        valid,
    )


# ---------------------------------------------------------------------------
# the full iteration


@dataclass
class IterationResult:
    """First smoothed stage, the composed projection, and its distortion."""

    stage0: SmoothedSurfaceStage
    map: CorrespondenceMap
    report: DistortionReport
    stages: list[SmoothedSurfaceStage]
    step_maps: list[CorrespondenceMap]
    displacement_history: list[float]
    bad_weight_history: list[float]
    group_count_history: list[int]
    nu: float
    beta: float
    tail_bound: float
    embed_scale: float
    embed_center: np.ndarray


# The stage pipeline rescales its input into a ball of this radius inside
# the unit domain so that the gauge (1-|x|)/100 stays a few sample spacings
# wide and tilt statistics resolve.
EMBEDDING_RADIUS = 0.02


def _embed(sample: WeightedSurfaceSample):
    """Rescale into a ball of EMBEDDING_RADIUS at the origin so the gauge
    resolves."""
    center = (sample.weights[:, None] * sample.points).sum(
        axis=0
    ) / sample.total_weight
    extent = float(np.linalg.norm(sample.points - center, axis=1).max())
    scale = EMBEDDING_RADIUS / max(extent, 1e-300)
    moved = sample.transformed(translation=-center).transformed(scale=scale)
    return moved, scale, center


def _build_stage(work, fine, delta, nu, index, group_counts):
    """Stage ``index`` at gauge ``delta``; appends its net's group count."""
    if fine.covers_all(len(work)):
        return _fine_only_stage(work, fine, delta, index)
    net = build_separated_net(work, delta)
    group_counts.append(net.group_count)
    stage = build_sigma_delta(work, fine, net, delta, nu, index)
    normal_field(stage, work)
    return stage


# Stages that `iterate_parameterization` builds at most after the first.
MAX_STAGES = 12


def iterate_parameterization(
    sample: WeightedSurfaceSample,
    gamma_hint: float,
    nu: float | None = None,
) -> IterationResult:
    """Run the full stagewise smoothing-and-projection loop.

    ``nu`` is the fine-set tilt threshold, sqrt(gamma_hint) by default, and
    the normal-bundle radius is sqrt(nu).  At most MAX_STAGES stages
    follow the first.  The sample is first rescaled into a ball of radius
    EMBEDDING_RADIUS so the gauge stays several sample spacings wide.
    Stages stop early once the maximal step displacement falls under the
    sample spacing; two consecutive steps that fail to halve the
    displacement abort with NonContraction.  All returned coordinates are
    mapped back to the input frame.  A ``nu`` that is not positive and
    finite, also one derived from a NaN or infinite ``gamma_hint``, raises
    InvalidScale.
    """
    if nu is None:
        nu = float(np.sqrt(max(gamma_hint, 1e-300)))
    _require_positive(nu, "tilt threshold nu")
    beta = float(np.sqrt(nu))
    work, scale, center = _embed(sample)
    domain = Ball(np.zeros(sample.ambient_dim), 1.0)
    spacing = work.mean_spacing

    delta = make_delta0(work, domain)
    fine = extract_fine_set(work, delta, nu)
    if fine.indices.size == 0:
        raise EmptyFineSet(
            "no point passes the tilt threshold at the initial gauge; "
            "the surface is outside the certifiable regime"
        )
    bad_weights = [
        float(work.total_weight - work.weights[fine.indices].sum())
    ]
    group_counts: list[int] = []

    stage0 = _build_stage(work, fine, delta, nu, 0, group_counts)
    stages = [stage0]
    maps: list[CorrespondenceMap] = []
    disp_hist: list[float] = []
    worse_streak = 0
    for j in range(MAX_STAGES):
        delta = next_delta(work, fine, domain)
        fine = extract_fine_set(work, delta, nu)
        bad_weights.append(
            float(work.total_weight - work.weights[fine.indices].sum())
        )
        stage = _build_stage(work, fine, delta, nu, j + 1, group_counts)
        tau = project_tau(stages[-1], stage, beta)
        stages.append(stage)
        maps.append(tau)
        dmax = float(tau.displacement_norms.max())
        disp_hist.append(dmax)
        if fine.covers_all(len(work)) and dmax <= spacing:
            # every sample row is kept verbatim and the last step moved
            # nothing resolvable: later stages would repeat identically
            break
        if (
            len(disp_hist) >= 2
            and dmax > 0.5 * disp_hist[-2]
            and dmax >= spacing
        ):
            # sub-resolution wobble is sampling noise, not divergence
            worse_streak += 1
            if worse_streak >= 2:
                raise NonContraction(
                    f"step displacement failed to halve twice in a row: "
                    f"{disp_hist[-3:]}"
                )
        else:
            worse_streak = 0

    if maps:
        composed = compose_maps(maps)
    else:
        composed = CorrespondenceMap(
            source_points=stage0.points.copy(),
            target_points=stage0.points.copy(),
            target_indices=np.arange(len(stage0.points)),
            displacements=np.zeros_like(stage0.points),
            depth=0,
            tangential_residuals=np.zeros(len(stage0.points)),
        )
    report = distortion_report(composed.source_points, composed.target_points)
    ratios = [
        disp_hist[i + 1] / disp_hist[i]
        for i in range(len(disp_hist) - 1)
        if disp_hist[i] > 0
    ]
    rho = min(max(ratios), 0.5) if ratios else 0.5
    tail = disp_hist[-1] * rho / (1.0 - rho) if disp_hist else 0.0

    # map everything back to the input frame: lengths * inv, areas
    # * inv**m, and the normal-field quotient (1 / length) * scale
    inv = 1.0 / scale
    for st in stages:
        st.points = st.points * inv + center
        st.gauge = st.gauge * inv
        st.overlap_mismatch *= inv
        st.normal_lipschitz = st.normal_lipschitz * scale
        if st.patch_centers.size:
            st.patch_centers = st.patch_centers * inv + center
            st.patch_gauge = st.patch_gauge * inv
    for mp in maps + [composed]:
        mp.source_points = mp.source_points * inv + center
        mp.target_points = mp.target_points * inv + center
        # recompute rather than rescale so source = target + v stays exact
        mp.displacements = mp.source_points - mp.target_points
        mp.tangential_residuals = mp.tangential_residuals * inv
    disp_hist = [d * inv for d in disp_hist]
    bad_weights = [b * inv**sample.intrinsic_dim for b in bad_weights]
    tail *= inv

    return IterationResult(
        stage0=stage0,
        map=composed,
        report=report,
        stages=stages,
        step_maps=maps,
        displacement_history=disp_hist,
        bad_weight_history=bad_weights,
        group_count_history=group_counts,
        nu=float(nu),
        beta=float(beta),
        tail_bound=float(tail),
        embed_scale=scale,
        embed_center=center,
    )
