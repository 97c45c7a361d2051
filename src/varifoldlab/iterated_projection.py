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
from functools import cached_property

import numpy as np
from scipy.sparse import csc_matrix
from scipy.spatial import cKDTree

from .errors import (
    DegenerateCloud,
    DimensionMismatch,
    EmptyFineSet,
    EmptyInput,
    GraphTestFailure,
    NonContraction,
    NonInjectiveMap,
    NoValidPreimage,
    PointOutsideDomain,
    TooFewPoints,
    UncoveredQuery,
)
from .geometry import (
    Ball,
    WeightedSurfaceSample,
    _pair_blocks,
    _pair_lipschitz,
    _plane_split,
    _principal_frames,
    _require_indices,
    _require_point,
    _require_positive,
    _require_rows,
    _second_moments,
    _span_projectors,
    grassmann_bases,
)
from .multiscale import _greedy_net, _maximal_tilts, resolution_floor

# The gauge is this fraction of the distance to the domain boundary.
GAUGE_SHRINK = 100.0


# ---------------------------------------------------------------------------
# gauge fields


@dataclass
class DeltaField:
    """Contraction gauge of a point set, with a functional form.

    The gauge is the distance to the sphere of `domain` over GAUGE_SHRINK,
    capped by the distance to `fine_points` when they are given (a
    successor gauge).  `evaluate` owns the formula: it gives `values` at
    `points` on construction and gauges synthesized stage points later.
    """

    points: np.ndarray
    domain: Ball
    fine_points: np.ndarray | None = None
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        self.values = self.evaluate(self.points)

    @cached_property
    def _fine_tree(self) -> cKDTree:
        return cKDTree(self.fine_points)

    def evaluate(self, queries) -> np.ndarray:
        """Gauge at each query; DimensionMismatch unless the queries are
        (k, n) points in the domain's dimension n, NonFiniteInput for a
        query holding NaN or infinity, and PointOutsideDomain for a query
        outside the domain ball."""
        q = _require_rows(np.atleast_2d(queries), len(self.domain.center), "query point")
        rad = np.linalg.norm(q - self.domain.center, axis=1)
        if np.any(rad > self.domain.radius * (1.0 + 1e-9)):
            raise PointOutsideDomain("point outside the analysis domain ball")
        base = (self.domain.radius - rad) / GAUGE_SHRINK
        if self.fine_points is None:
            return base
        dist, _ = self._fine_tree.query(q)
        return np.minimum(dist, base)


def _gauge_domain(sample: WeightedSurfaceSample, domain: Ball | None) -> Ball:
    """The gauge domain of `make_delta0` and `next_delta`, checked."""
    if domain is None:
        domain = Ball(np.zeros(sample.ambient_dim), 1.0)
    _require_point(domain.center, sample.ambient_dim, "domain center")
    return domain


def make_delta0(
    sample: WeightedSurfaceSample, domain: Ball | None = None
) -> DeltaField:
    """Initial gauge: distance to the domain sphere over the shrink factor.

    The domain is the unit ball at the origin by default; a domain center
    of another dimension than the sample raises DimensionMismatch.
    """
    return DeltaField(sample.points, _gauge_domain(sample, domain))


def next_delta(
    sample: WeightedSurfaceSample, fine: "FineSet", domain: Ball | None = None
) -> DeltaField:
    """Successor gauge: min of distance-to-fine-set and the initial formula.

    The domain is the unit ball at the origin by default; a domain center
    of another dimension than the sample raises DimensionMismatch.
    """
    domain = _gauge_domain(sample, domain)
    if fine.indices.size == 0:
        raise EmptyFineSet("cannot gauge against an empty fine set")
    return DeltaField(sample.points, domain, sample.points[fine.indices])


# ---------------------------------------------------------------------------
# fine sets


@dataclass
class FineSet:
    """Rows whose multiscale tilt at twice the gauge stays below a threshold.

    `indices` are the sorted member rows and `tilts` their tilts.
    `plane_bases` (N, m, n) hold one reference plane per sample row: for a
    measured row, fine or not, the principal plane of its 2-gauge ball
    pinned at the row, NaN where that ball has none; for a row whose gauge
    ball is below sample resolution, its own tangent plane.
    """

    indices: np.ndarray
    plane_bases: np.ndarray
    tilts: np.ndarray

    def __contains__(self, row: int) -> bool:
        pos = np.searchsorted(self.indices, row)
        return pos < self.indices.size and self.indices[pos] == row

    def covers_all(self, n_rows: int) -> bool:
        return self.indices.size == n_rows


def _pinned_planes(sample, cand, centers, inside):
    """Weighted principal planes of a block of balls, each pinned at its center.

    `cand` holds sorted sample rows, `centers` (b, n) the ball centers and
    `inside` (b, K) the ball masks over `cand`.  Each row's second moments
    are formed alone, over its members in ascending row order, and the
    block makes one `geometry._principal_frames` call: the arithmetic of
    `geometry.fit_plane_pca`, shared rather than copied, so the planes are
    bit-identical to it.  A batched, zero-padded covariance would reorder
    the sums and, where the in-plane eigenvalues tie, turn the in-plane
    frame (which orients the fill grid of `build_sigma_delta`).

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
        covs[i] = _second_moments(pts[sel] - centers[i], wts[sel])
    _, frames, spans = _principal_frames(covs, m)
    return (counts > m) & spans, np.ascontiguousarray(frames[:, :m]), frames[:, m:]


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
    m, has no reference plane (NaN in `FineSet.plane_bases`) and is not
    fine.  This is the one producer of reference planes: the planes of
    every row, fine or not, feed the patches of `build_sigma_delta`.

    The measured rows are taken a KD-tree leaf at a time
    (`WeightedSurfaceSample.candidate_blocks`, leaves of at most
    ``geometry._QUERY_BLOCK`` rows), each leaf with one sorted candidate set
    around its centroid, of radius its spread plus its largest 2-gauge;
    every row's fit ball and dyadic tilt balls are distance masks
    ``d2 <= r * r`` of it.  The planes are those of `geometry.fit_plane_pca`
    of the 2-gauge ball pinned at the row (``center`` the row's point), bit
    for bit (`_pinned_planes`).  The tilts are the maximal tilts of the row
    against its plane over the dyadic scales 2-gauge, gauge, ... down to
    the floor (`multiscale._maximal_tilts`): they come from normal frames
    and masked sums, so they match one ball query per scale and explicit
    projector differences to rtol 1e-10.  A floor that is not positive and
    finite raises `InvalidScale`: the dyadic scales would never reach it;
    so does a ``nu`` that is not positive and finite.
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
        bases[block] = planes
        bases[block[~ok]] = np.nan
        tilts[block[keep]] = tilt[keep]
    idx = np.flatnonzero(fine)
    return FineSet(idx, bases, tilts[idx])


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
    """Pack {gauge > 0} first come, then colour at a tenth-gauge separation.

    Rows go in decreasing gauge order, ties by index.  A kept row drops the
    later rows in the closed ball of radius NET_PACKING_MULT * gauge around
    it (`multiscale._greedy_net`).  Members within GROUP_SEP_MULT times the
    larger of their gauges conflict; in net order, each takes the smallest
    group no earlier conflicting member holds.  The group count is asserted
    against the 10^(5m+1) ceiling.
    """
    vals = np.asarray(delta.values, dtype=float)
    cand = np.flatnonzero(vals > 0.0)
    if cand.size == 0:
        raise EmptyFineSet("no points with positive gauge to pack")
    order = cand[np.lexsort((cand, -vals[cand]))]
    net_rows = order[_greedy_net(sample.points[order], NET_PACKING_MULT * vals[order])]

    pts = sample.points[net_rows]
    sep = GROUP_SEP_MULT * vals[net_rows]
    pairs = cKDTree(pts).query_pairs(float(sep.max()), output_type="ndarray")
    a, b = pairs.T  # a < b in net order
    # squared, as the KD-tree's own ball test compares them
    near = ((pts[a] - pts[b]) ** 2).sum(axis=1) <= np.maximum(sep[a], sep[b]) ** 2
    earlier: list[list[int]] = [[] for _ in net_rows]
    for i, j in pairs[near].tolist():
        earlier[j].append(i)
    group_ids: list[int] = []
    for nbs in earlier:
        taken = [group_ids[i] for i in nbs]
        g = 0
        while g in taken:
            g += 1
        group_ids.append(g)
    q = max(group_ids) + 1
    m = sample.intrinsic_dim
    assert q <= 10 ** (5 * m + 1), "group count exceeded the packing ceiling"
    return SeparatedNet(net_rows, np.array(group_ids), q)


# ---------------------------------------------------------------------------
# partition of unity

# Bump support radius in units of the gauge (continuum 0.5); the stage
# patches and the normal blend use the same bumps.
POU_SUPPORT_MULT = 0.5
# Balls per block of the support-ball query and of the bump kernel.
_SUPPORT_BALL_BLOCK = 256


def _bump_pairs(points, centers, supports, balls):
    """The bump weights, _SUPPORT_BALL_BLOCK balls at a time.

    ``balls[j]`` holds distinct rows of `points` scored against bump j, any
    superset of its support (the `SmoothedSurfaceStage.support_balls`
    attribute for a stage); a bump of support 0 or below scores none.
    Yields ``(rows, cols, weights)`` per block for the pairs strictly
    inside their supports: int32 rows in ball order, int32 columns
    ascending across blocks, and the unnormalized weights ``(1 - d2)**2``
    of the squared distance ``d2`` over the squared support.
    """
    coords = np.ascontiguousarray(np.transpose(points))
    for lo in range(0, len(centers), _SUPPORT_BALL_BLOCK):
        part = slice(lo, lo + _SUPPORT_BALL_BLOCK)
        lens = [len(b) if s > 0 else 0 for b, s in zip(balls[part], supports[part])]
        parts = [b[:n] for b, n in zip(balls[part], lens)] + [np.zeros(0, dtype=np.int32)]
        rows = np.concatenate(parts, dtype=np.int32)
        # squared distances summed coordinate by coordinate, one coordinate
        # at a time so no (pairs, n) temporary is formed
        d2 = np.zeros(rows.size)
        diff = np.empty(rows.size)
        for axis, coord in enumerate(coords):
            np.take(coord, rows, out=diff)
            diff -= np.repeat(centers[part, axis], lens)
            d2 += np.square(diff, out=diff)
        del diff
        # each radius squared as a scalar (pow), not as an array square: the
        # two differ in the last bit for about 0.1% of radii
        d2 /= np.repeat([r**2 for r in supports[part]], lens)
        # a weight inside its support is at least 2**-106, so exactly the
        # pairs outside weigh 0; rebinding drops the unfiltered arrays
        inside = d2 < 1.0
        cols = np.repeat(np.arange(lo, lo + len(lens), dtype=np.int32), lens)
        rows, cols, d2 = rows[inside], cols[inside], d2[inside]
        yield rows, cols, np.square(np.subtract(1.0, d2, out=d2), out=d2)


def _bump_row_sums(n_rows: int, pairs) -> np.ndarray:
    """Per-row sums of the weights of `_bump_pairs` blocks, one block at a
    time: the normalizer of the partition of unity, and 0 on a row
    outside every support."""
    sums = np.zeros(n_rows)
    for rows, _, weights in pairs:
        sums += np.bincount(rows, weights, minlength=n_rows)
    return sums


def _bump_blend(points, centers, supports, balls, values):
    """Row sums of the bump weights and the normalized blend of `values`
    (one row per bump) at each point, by two passes over `_bump_pairs`.

    The first pass takes the row sums (`_bump_row_sums`).  The second
    normalizes each block's weights and adds the block's product with the
    values of its bumps, one column at a time (a CSC product of the
    block's bumps), so each row adds its bumps in ascending order within a
    block.  A row outside every support blends to 0.  Only one block of
    pairs is alive at a time; the weight matrix and its transpose are
    never formed.
    """
    sums = _bump_row_sums(len(points), _bump_pairs(points, centers, supports, balls))
    covered = sums > 0
    inv = np.zeros_like(sums)
    inv[covered] = 1.0 / sums[covered]
    blend = np.zeros((len(points), values.shape[1]))
    for rows, cols, weights in _bump_pairs(points, centers, supports, balls):
        weights *= inv[rows]
        starts = np.flatnonzero(np.diff(cols, prepend=-1))
        block = csc_matrix(
            (weights, rows, np.append(starts, cols.size)), shape=(len(points), starts.size)
        )
        blend += block @ values[cols[starts]]
    return sums, blend


def partition_of_unity(
    net: SeparatedNet,
    delta: DeltaField,
    query,
) -> list[tuple[int, float]]:
    """Normalized bump weights of the net members at one query point, as
    ``(member position, weight)`` in member order.

    Each bump is supported exactly on the open ball of half the member's
    gauge, with weight ``(1 - d2)**2`` before normalization; the weights
    and their sum are those `normal_field` blends with, read from the same
    kernel (`_bump_pairs`, `_bump_row_sums`).  Raises DimensionMismatch or
    NonFiniteInput unless `query` is one finite point of the ambient
    dimension, and UncoveredQuery outside every bump.
    """
    centers = delta.points[net.indices]
    supports = POU_SUPPORT_MULT * np.asarray(delta.values)[net.indices]
    query = _require_point(query, centers.shape[1], "query")[None]
    pairs = list(
        _bump_pairs(query, centers, supports, np.zeros((len(centers), 1), dtype=np.int32))
    )
    total = _bump_row_sums(1, pairs)[0]
    if total <= 0:
        raise UncoveredQuery("no bump support contains the query")
    inv = 1.0 / total
    return [(int(j), float(w * inv)) for _, cols, ws in pairs for j, w in zip(cols, ws)]


# ---------------------------------------------------------------------------
# smoothed stages

@dataclass
class SmoothedSurfaceStage:
    """One rebuilt surface: kept fine points plus synthesized graph points."""

    points: np.ndarray
    gauge: np.ndarray
    sample_rows: np.ndarray  # source sample row per point; -1 if synthesized
    patch_centers: np.ndarray
    patch_bases: np.ndarray
    patch_gauge: np.ndarray
    graph_lipschitz: np.ndarray
    synth_offset_ratio: float
    normal_projectors: np.ndarray | None = None
    normal_lipschitz: np.ndarray | None = None

    @property
    def fine_mask(self) -> np.ndarray:
        return self.sample_rows >= 0

    @cached_property
    def support_balls(self) -> list[np.ndarray]:
        """Stage rows inside each patch's support ball, as int32 arrays in
        KD-tree traversal order (``return_sorted=False``), the order in which
        the graph test thins and the normal-field quotient truncates them.
        Any superset of the supports would do for the bump weights, which
        `_bump_pairs` scores against the support itself.  One
        ``cKDTree(points)`` is queried _SUPPORT_BALL_BLOCK centres at a
        time, which gives the balls of one batched query with one block's
        Python lists alive: +5 MB traced on the `stagewise` plateau, from
        +28 MB.  The balls are the one stage-sized table the normal blend
        keeps (its pairs stream a block at a time).  Built on first read
        and kept until `normal_field`, the last reader, releases them
        (``del stage.support_balls``).
        """
        tree, radii = cKDTree(self.points), POU_SUPPORT_MULT * self.patch_gauge
        cuts = range(0, len(radii), _SUPPORT_BALL_BLOCK)
        return [
            np.array(b, dtype=np.int32)
            for c in (slice(lo, lo + _SUPPORT_BALL_BLOCK) for lo in cuts)
            for b in tree.query_ball_point(
                self.patch_centers[c], radii[c], return_sorted=False
            )
        ]


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
) -> SmoothedSurfaceStage:
    """Keep the fine points and fill the rest with local graph patches.

    Each net member's patch lies over its reference plane, which always
    comes from the fine set (`FineSet.plane_bases`, fine member or not), so
    `fine` must be extracted at `delta`; a non-fine member without a plane
    raises DegenerateCloud.  The patch arrays hold the members in group
    order, and so do the candidates.  Patches are fitted by moving least
    squares on the fine points inside half a gauge, with the same bump
    profile as the partition of unity for weights.  The stage is the fine
    points, then the candidates kept first come: a candidate within half
    a grid step of a fine point or of an earlier kept candidate is dropped
    (prior heights win on overlap; one `multiscale._greedy_net` pass).

    A fine member keeps its sample point and is not refitted when its
    doubled gauge is below the resolution floor, when it has fewer than
    m + 1 fine anchors, or when its grid is one node (`_square_grid`:
    ``PATCH_RADIUS_MULT * gauge < mean_spacing``), the node at its own
    point.  Such a member makes no fit and never raises, even where its
    fit would be rank deficient.  A refit landing half a step or more off
    its point would stack a second point on its normal, a double layer
    that the graph test refuses.

    The finished stage then passes the graph test of `_graph_lipschitz`:
    over each patch's support ball, the normal parts of the stage points
    must be ``GRAPH_LIP_MULT * nu``-Lipschitz in their in-plane parts.  A ball
    of more than 300 points is thinned to every ``len // 300 + 1``-th point
    in KD-tree traversal order, not sorted index order, so the measured
    subsample (and the recorded `graph_lipschitz`) depends on that order.
    The balls come from the cached `SmoothedSurfaceStage.support_balls`
    attribute, which keeps them for `normal_field`.  Only the refitted
    members query their fine anchors, one member at a time.
    """
    m = sample.intrinsic_dim
    grid_step = sample.mean_spacing
    floor = resolution_floor(sample, 4.0)
    vals = np.asarray(delta.values, dtype=float)

    fine_pts = sample.points[fine.indices]
    if fine_pts.shape[0] == 0:
        raise GraphTestFailure("no fine points to anchor any graph patch")
    fine_tree = cKDTree(fine_pts)

    order = np.concatenate(list(net.groups()))
    d = vals[order]
    in_fine = np.isin(order, fine.indices)
    # a fine member whose gauge is below sample resolution, or whose grid
    # is the one node at its own kept point, is not refitted
    refit = ~(in_fine & ((2.0 * d < floor) | (PATCH_RADIUS_MULT * d < grid_step)))
    new_pts: list[np.ndarray] = []
    for row, is_fine in zip(order[refit], in_fine[refit]):
        u = sample.points[row]
        support_r = POU_SUPPORT_MULT * vals[row]
        basis = fine.plane_bases[row]
        local = fine_tree.query_ball_point(u, support_r, return_sorted=False)
        if is_fine:
            if len(local) < m + 1:
                # too few anchors to refit: the member's kept point stands
                continue
        elif len(local) < m + 1:
            raise GraphTestFailure(
                f"net point at {np.round(u, 6).tolist()} has only "
                f"{len(local)} fine anchors inside {support_r:.4g}"
            )
        elif np.isnan(basis).any():
            raise DegenerateCloud(
                f"second moments of the 2-gauge ball of {np.round(u, 6).tolist()} "
                f"have rank below {m}"
            )
        local = np.asarray(local, dtype=int)
        coords, normals = _plane_split(fine_pts[local] - u, basis)
        grid = _square_grid(PATCH_RADIUS_MULT * vals[row], grid_step, m)
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
        new_pts.append(u + grid @ basis + offsets)

    points = fine_pts
    offset_ratio = 0.0
    if new_pts:
        candidates = np.concatenate(new_pts)
        d_fine, _ = fine_tree.query(candidates)
        off_fine = d_fine > 0.5 * grid_step
        candidates, d_fine = candidates[off_fine], d_fine[off_fine]
        kept = _greedy_net(candidates, 0.5 * grid_step)
        points = np.concatenate([fine_pts, candidates[kept]])
        d_sample, _ = sample.spatial_index.query(candidates[kept])
        denom = nu * np.maximum(d_fine[kept], 1e-300)
        offset_ratio = float((d_sample / denom).max(initial=0.0))
    rows = np.full(len(points), -1)
    rows[: fine.indices.size] = fine.indices

    stage = SmoothedSurfaceStage(
        points=points,
        gauge=delta.evaluate(points),
        sample_rows=rows,
        patch_centers=sample.points[order],
        patch_bases=fine.plane_bases[order],
        patch_gauge=d,
        graph_lipschitz=np.zeros(order.size),
        synth_offset_ratio=offset_ratio,
    )
    stage.graph_lipschitz = _graph_lipschitz(stage, GRAPH_LIP_MULT * nu)
    return stage


def _graph_lipschitz(stage: SmoothedSurfaceStage, lip_bound: float) -> np.ndarray:
    """Per-patch Lipschitz constant of the stage as a graph over its plane.

    Patch k sees its support ball (the `SmoothedSurfaceStage.support_balls`
    attribute), split into in-plane coordinates and normal parts of its
    basis; its constant is the largest ratio of normal to in-plane distance
    over point pairs with in-plane distance above 1e-12.  Balls of more
    than 300 points keep every ``len // 300 + 1``-th point in KD-tree
    traversal order.  Raises GraphTestFailure at the first patch, in patch order,
    above `lip_bound`.
    """
    lips = np.zeros(len(stage.patch_centers))
    for k, ball in enumerate(stage.support_balls):
        if len(ball) > 300:
            # bound the pairwise cost on wide patches with a uniform stride
            ball = ball[:: len(ball) // 300 + 1]
        local = stage.points[ball] - stage.patch_centers[k]
        lips[k] = _pair_lipschitz(*_plane_split(local, stage.patch_bases[k]), 1e-12)
        if lips[k] > lip_bound:
            raise GraphTestFailure(
                f"patch at {np.round(stage.patch_centers[k], 6).tolist()} fails the graph "
                f"test: Lipschitz {lips[k]:.3g} exceeds {lip_bound:.3g}"
            )
    return lips


# ---------------------------------------------------------------------------
# normal bundle


def normal_field(
    stage: SmoothedSurfaceStage,
    sample: WeightedSurfaceSample,
) -> SmoothedSurfaceStage:
    """Blend patch normal projectors with the partition of unity.

    Each stage point blends the normal projectors I - B^T B of the patches
    whose bump support holds it, with the normalized weights of
    `partition_of_unity`, and takes the nearest rank-(n - m) projector
    (`geometry.grassmann_bases`).  The blend streams over the bump kernel
    (`_bump_blend`): one pass for the row sums, which give the coverage
    test, and one for the blend, a block of _SUPPORT_BALL_BLOCK balls at a
    time; +3.4 MB traced on the seed-7 `stagewise` plateau, from +18.1 MB
    for the bump matrix, its transpose and their product.  Kept fine points
    outside every bump support fall back to I minus their sample tangent
    projector (their plane is exact there), so on a stage without patches
    every kept point does; a synthesized point without coverage raises
    UncoveredQuery.  Every pipeline stage gets its normals here, patchless
    stages included.  The per-patch Lipschitz quotient of the blended field
    is recorded: over the first 50 points of each support ball (the
    `SmoothedSurfaceStage.support_balls` attribute, in KD-tree traversal
    order), the largest ratio of projector (Frobenius) distance to point
    distance.  This is the last reader of the support balls, so it
    releases them with ``del stage.support_balls``.
    """
    n = stage.points.shape[1]
    m = stage.patch_bases.shape[1]
    balls = stage.support_balls
    patch_normals = np.eye(n) - _span_projectors(stage.patch_bases)
    sums, blended = _bump_blend(
        stage.points, stage.patch_centers, POU_SUPPORT_MULT * stage.patch_gauge, balls,
        patch_normals.reshape(len(patch_normals), n * n),
    )
    uncovered = sums <= 0
    lost = int((uncovered & ~stage.fine_mask).sum())
    if lost:
        raise UncoveredQuery(f"{lost} synthesized points have no bump coverage")
    blended = blended.reshape(-1, n, n)
    projs = np.empty((len(stage.points), n, n))
    projs[~uncovered] = _span_projectors(
        grassmann_bases(blended[~uncovered], n - m)
    )
    projs[uncovered] = np.eye(n) - sample.tangent_projectors[stage.sample_rows[uncovered]]

    flat = projs.reshape(len(projs), -1)
    stage.normal_lipschitz = np.array(
        [_pair_lipschitz(stage.points[b[:50]], flat[b[:50]], 1e-12) for b in balls]
    )
    stage.normal_projectors = projs
    del stage.support_balls
    return stage


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
# Source rows scored per block by `project_tau`.
_TAU_BLOCK = 512


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
    fine points (gauge zero) remain reachable.  Sources are scored
    _TAU_BLOCK rows at a time, each row as it would be alone, so only one
    block's (rows, candidates, n, n) projector table is alive: +1.1 MB
    traced on the seed-7 `stagewise` plateau, from +5.3 MB.  A source
    without an admissible candidate raises NoValidPreimage, naming the
    first such source.
    """
    if stage_to.normal_projectors is None:
        raise MissingNormalField()
    src = stage_from.points
    tgt = stage_to.points
    tree = cKDTree(tgt)
    nn, _ = tree.query(tgt, k=2)
    slack = 2.0 * float(np.median(nn[:, 1]))
    k = min(TAU_CANDIDATES, len(tgt))
    chosen = np.empty(len(src), dtype=int)
    tang_res = np.empty(len(src))
    for lo in range(0, len(src), _TAU_BLOCK):
        block = src[lo : lo + _TAU_BLOCK]
        # query(k=1) drops the candidate axis
        idx = tree.query(block, k=k)[1].reshape(len(block), k)
        d = block[:, None, :] - tgt[idx]
        v_norm = np.einsum("skij,skj->ski", stage_to.normal_projectors[idx], d)
        reachable = (
            np.linalg.norm(v_norm, axis=2) <= beta * stage_to.gauge[idx] + slack
        )
        stuck = np.flatnonzero(~reachable.any(axis=1))
        if stuck.size:
            raise NoValidPreimage(
                f"source point {np.round(block[stuck[0]], 6).tolist()} has no "
                f"admissible target within normal reach"
            )
        t_res = np.where(reachable, np.linalg.norm(d - v_norm, axis=2), np.inf)
        # argmin keeps the nearest of tied candidates, as a strict-< scan would
        best = np.argmin(t_res, axis=1)[:, None]
        chosen[lo : lo + _TAU_BLOCK] = np.take_along_axis(idx, best, axis=1)[:, 0]
        tang_res[lo : lo + _TAU_BLOCK] = np.take_along_axis(t_res, best, axis=1)[:, 0]
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

    Raises EmptyInput for an empty list, and InvalidIndex naming the step
    whose target indices fall outside the sources of the next step.
    """
    if not maps:
        raise EmptyInput("no stage maps to compose")
    for k, (step, nxt) in enumerate(zip(maps, maps[1:])):
        _require_indices(
            step.target_indices,
            len(nxt.source_points),
            f"step {k} target index",
            f"sources of step {k + 1}",
        )
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
    lp_upper: float
    lp_lower_inverse: float
    lp_deviation: float
    exponent_forward: float
    exponent_inverse: float

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
    weights.  All pairs are read in the row blocks of
    `geometry._pair_blocks`, each block dropped before the next; the
    sampled partners form one block of N * (8 + partners) pairs.

    Raises DimensionMismatch unless source and target are (N, n) arrays of
    one shape, NonFiniteInput for a non-finite coordinate, TooFewPoints
    unless the source holds two distinct points, and NonInjectiveMap when
    a row's lower quotient is so small (0 for two distinct sources on one
    target) that its power -DISTORTION_P overflows.
    """
    src = _require_rows(np.atleast_2d(source_points), None, "source point")
    tgt = _require_rows(np.atleast_2d(target_points), src.shape[1], "target point")
    if len(tgt) != len(src):
        raise DimensionMismatch(
            f"source {src.shape} and target {tgt.shape} must be (N, n) of one shape"
        )
    if len(src) < 2 or (src == src[0]).all():
        raise TooFewPoints("distortion needs at least two distinct source points")
    n_pts = len(src)
    w = np.full(n_pts, 1.0 / n_pts)

    dev = tgt - src
    if n_pts <= DISTORTION_PAIRS:
        blocks = _pair_blocks(np.arange(n_pts), src, tgt, dev)
    else:
        blocks = [_sampled_pair_block(src, tgt, dev, DISTORTION_PAIRS, DISTORTION_SEED)]

    f_up = np.empty(n_pts)
    f_lo = np.empty(n_pts)
    dev_up = np.empty(n_pts)
    # running count, means and centered co-moments of the log distances
    count, mean_s, mean_t, m_ss, m_tt, m_st = 0, 0.0, 0.0, 0.0, 0.0, 0.0
    for part, ds, dt, dd in blocks:
        # a row's pairing with itself, a duplicated point and a sampled
        # partner's padding all read a source distance of 0
        ok = ds > 1e-300
        has = ok.any(axis=1)
        pos = ok & (dt > 1e-300)
        ls = np.log(ds[pos])
        lt = np.log(dt[pos])
        # quotients in place of the distances; the block is dropped before
        # `blocks` builds the next one
        ratio = np.divide(dt, ds, out=dt, where=ok)
        f_up[part] = np.where(has, ratio.max(axis=1, where=ok, initial=-np.inf), 1.0)
        f_lo[part] = np.where(has, ratio.min(axis=1, where=ok, initial=np.inf), 1.0)
        ratio = np.divide(dd, ds, out=dd, where=ok)
        dev_up[part] = np.where(has, ratio.max(axis=1, where=ok, initial=-np.inf), 0.0)
        del ds, dt, dd, ok, pos, ratio
        if not ls.size:
            continue
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

    collapsed = np.flatnonzero(f_lo < np.finfo(float).max ** (-1.0 / DISTORTION_P))
    if collapsed.size:
        row = collapsed[0]
        raise NonInjectiveMap(
            f"the map collapses source row {row}: its lower difference quotient "
            f"{f_lo[row]:.3g} has no finite power -{DISTORTION_P:g}"
        )
    lp_upper = float((w * f_up**DISTORTION_P).sum())
    lp_lower_inverse = float((w * f_lo ** (-DISTORTION_P)).sum())
    lp_deviation = float((w * dev_up**DISTORTION_P).sum())
    return DistortionReport(
        f_upper=f_up,
        f_lower=f_lo,
        lp_upper=lp_upper,
        lp_lower_inverse=lp_lower_inverse,
        lp_deviation=lp_deviation,
        exponent_forward=exp_fwd,
        exponent_inverse=exp_inv,
    )


def _sampled_pair_block(src, tgt, dev, pairs: int, seed: int):
    """Each row against its 8 nearest neighbors (all others when there
    are fewer) plus seeded random rows.

    Partners are deduplicated, sorted and never the row itself.  Returns
    one block ``(part, ds, dt, dd)`` in the layout of
    `geometry._pair_blocks`: ``part`` the slice of every row, and source,
    target and deviation distances from each row to its partners, with
    the source distance 0 on the padding that deduplication leaves.
    """
    n_pts = len(src)
    rng = np.random.default_rng(seed)
    k_near = min(8, n_pts - 1)
    _, near = cKDTree(src).query(src, k=k_near + 1)
    n_rand = max(4, pairs // n_pts + 1)
    cand = np.concatenate(
        [near[:, 1:], rng.integers(0, n_pts, (n_pts, n_rand))], axis=1
    )
    cand = np.sort(np.where(cand == np.arange(n_pts)[:, None], -1, cand), axis=1)
    valid = cand >= 0
    valid[:, 1:] &= cand[:, 1:] != cand[:, :-1]
    cand = np.maximum(cand, 0)
    ds = np.linalg.norm(src[cand] - src[:, None, :], axis=2)
    ds[~valid] = 0.0
    return (
        slice(None),
        ds,
        np.linalg.norm(tgt[cand] - tgt[:, None, :], axis=2),
        np.linalg.norm(dev[cand] - dev[:, None, :], axis=2),
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


def _build_stage(work, fine, delta, nu, group_counts):
    """The stage at gauge ``delta`` with its normal field; appends its
    net's group count.  A fine set that covers every row gives the
    patchless stage: every row kept, no net and no patch."""
    if fine.covers_all(len(work)):
        stage = SmoothedSurfaceStage(
            points=work.points[fine.indices],
            gauge=np.asarray(delta.values)[fine.indices],
            sample_rows=fine.indices.copy(),
            patch_centers=work.points[:0],
            patch_bases=work.tangent_bases[:0],
            patch_gauge=np.zeros(0),
            graph_lipschitz=np.zeros(0),
            synth_offset_ratio=0.0,
        )
    else:
        net = build_separated_net(work, delta)
        group_counts.append(net.group_count)
        stage = build_sigma_delta(work, fine, net, delta, nu)
    return normal_field(stage, work)


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
    displacement abort with NonContraction, whose message quotes the last
    three step displacements in the input frame.  All returned coordinates
    are mapped back to the input frame.  A ``nu`` that is not positive and
    finite, also one derived from a NaN or infinite ``gamma_hint``, raises
    InvalidScale.
    """
    if nu is None:
        nu = float(np.sqrt(max(gamma_hint, 1e-300)))
    _require_positive(nu, "tilt threshold nu")
    beta = float(np.sqrt(nu))
    work, scale, center = _embed(sample)
    inv = 1.0 / scale
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

    stage0 = _build_stage(work, fine, delta, nu, group_counts)
    stages = [stage0]
    maps: list[CorrespondenceMap] = []
    disp_hist: list[float] = []
    worse_streak = 0
    for _ in range(MAX_STAGES):
        delta = next_delta(work, fine, domain)
        fine = extract_fine_set(work, delta, nu)
        bad_weights.append(
            float(work.total_weight - work.weights[fine.indices].sum())
        )
        stage = _build_stage(work, fine, delta, nu, group_counts)
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
                    f"{[d * inv for d in disp_hist[-3:]]}"
                )
        else:
            worse_streak = 0

    # the first pass of the stage loop appends a map or raises
    composed = compose_maps(maps)
    report = distortion_report(composed.source_points, composed.target_points)
    ratios = [
        disp_hist[i + 1] / disp_hist[i]
        for i in range(len(disp_hist) - 1)
        if disp_hist[i] > 0
    ]
    rho = min(max(ratios), 0.5) if ratios else 0.5
    tail = disp_hist[-1] * rho / (1.0 - rho)

    # map everything back to the input frame: lengths * inv, areas
    # * inv**m, and the normal-field quotient (1 / length) * scale
    for st in stages:
        st.points = st.points * inv + center
        st.gauge = st.gauge * inv
        st.normal_lipschitz = st.normal_lipschitz * scale
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
    )
