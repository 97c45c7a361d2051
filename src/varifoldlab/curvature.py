"""Weak mean curvature from the first-variation identity, and its uses.

The estimator equates discrete tangential-divergence sums of compactly
supported test fields with the pairing against an unknown locally constant
H, then solves the stacked equations in least squares.  On meshes an
independent cotangent-formula path is provided as a cross-check; the
first-variation path is canonical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BallBelowResolution,
    DimensionMismatch,
    IllConditioned,
    InvalidScale,
    MissingCurvature,
    TooFewPoints,
)
from .geometry import (
    Ball,
    WeightedSurfaceSample,
    _require_indices,
    _require_positive,
)
from .meshing import cotangent_laplacian, vertex_areas
from .multiscale import resolution_floor


@dataclass
class CurvatureField:
    """Per-point mean-curvature vectors with estimation metadata.

    Attributes
    ----------
    indices : ndarray
        Sample rows the field covers.
    vectors : ndarray, shape (len(indices), n)
    radius : float
        Test-field support radius used by the estimator.
    residuals : ndarray
        Relative least-squares residual per point.
    orthogonal : ndarray of bool
        True where H deviates from the normal space by at most the angle
        ORTHO_TOL (flag only, never a projection).
    """

    indices: np.ndarray
    vectors: np.ndarray
    radius: float
    residuals: np.ndarray
    orthogonal: np.ndarray

    def covers(self, indices) -> bool:
        return np.isin(np.asarray(indices, dtype=int), self.indices).all()

    def at(self, indices) -> np.ndarray:
        """Vectors for the given sample rows (must be covered)."""
        pos = np.searchsorted(self.indices, np.asarray(indices, dtype=int))
        if np.any(pos >= len(self.indices)) or np.any(
            self.indices[np.minimum(pos, len(self.indices) - 1)]
            != np.asarray(indices)
        ):
            raise MissingCurvature("field does not cover the requested rows")
        return self.vectors[pos]


# Nested support radii of the radial test-field family, as fractions of h.
# Concentric windows keep the solve exactly equivariant under rotations:
# every mass is a rotation scalar and every divergence sum rotates with the
# sample, so the least-squares H rotates too.
_PROFILE_FRACTIONS = (1.0, 5.0 / 6.0, 2.0 / 3.0, 0.5)


def _profile_rows(sample, cand, x, d2, h):
    """Masses (b, 4) and tangential-divergence sums (b, 4, n) of the nested
    bump family around b centers that share one candidate set.

    `cand` holds sorted sample rows and `d2` (b, K) their squared distances
    to the centers `x` (b, n).  Coordinates are shifted by the centers'
    mean c0, so that a far rigid translation costs no digits.  With
    ``Py_k = P_k (x_k - c0)``, each row's sum of ``w u P_k (x_k - x_b)`` is
    ``wu @ Py - (wu @ P) (x_b - c0)``, two products per window; a candidate
    outside a window has u = 0.
    """
    n = sample.ambient_dim
    c0 = x.mean(axis=0)
    P = sample.tangent_projectors[cand]
    Py = np.einsum("kij,kj->ki", P, sample.points[cand] - c0)
    flat = P.reshape(len(cand), n * n)
    w = sample.weights[cand]
    masses = np.empty((len(x), len(_PROFILE_FRACTIONS)))
    divs = np.empty((len(x), len(_PROFILE_FRACTIONS), n))
    for j, frac in enumerate(_PROFILE_FRACTIONS):
        hj2 = (frac * h) ** 2
        u = np.maximum(1.0 - d2 / hj2, 0.0)
        wu = w * u
        masses[:, j] = (wu * u).sum(axis=1)
        S = (wu @ flat).reshape(-1, n, n)
        divs[:, j] = (-4.0 / hj2) * (wu @ Py - np.einsum("bij,bj->bi", S, x - c0))
    return masses, divs


def _solve_rows(counts, masses, divs):
    """H (b, n) and relative residuals (b,) of the stacked first-variation
    equations, or the error of the first row that cannot be solved.

    Rows are checked in order: a row whose ball holds fewer than 10 points
    raises TooFewPoints, one whose normal equations are worse conditioned
    than 1e8 raises IllConditioned.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = masses.min(axis=1)
        # each window contributes n equations: mass_j * H = -div_j; an inner
        # window with (near-)empty support collapses its block and the stack
        # loses rank
        cond = np.where(lo > 0, (masses.max(axis=1) / lo) ** 2, np.inf)
        few = counts < 10
        bad = np.flatnonzero(few | (cond > 1e8))
        if bad.size:
            if few[bad[0]]:
                raise TooFewPoints("need at least 10 points inside the test support")
            raise IllConditioned(
                f"normal equations condition {cond[bad[0]]:.3g} exceeds 1e8"
            )
        denom = np.square(masses).sum(axis=1)
        H = -(masses[:, :, None] * divs).sum(axis=1) / denom[:, None]
        misfit = np.linalg.norm(masses[:, :, None] * H[:, None] + divs, axis=2)
        scale = np.linalg.norm(divs, axis=2).max(axis=1)
        residual = np.where(
            scale > 0, np.linalg.norm(misfit, axis=1) / scale, 0.0
        )
    return H, residual


# A curvature vector is flagged orthogonal when its tangential part is at
# most sin(ORTHO_TOL) of its length (ORTHO_TOL in radians).
ORTHO_TOL = 0.2


def build_curvature_field(
    sample: WeightedSurfaceSample,
    h: float,
    indices=None,
) -> CurvatureField:
    """Weak mean curvature H at the given rows (all rows by default), from
    the nested bump test fields of radius h around each row.

    The rows are taken a KD-tree leaf at a time
    (`WeightedSurfaceSample.candidate_blocks`, leaves of at most
    ``geometry._QUERY_BLOCK`` rows), each leaf with one candidate set of
    radius its spread plus h; every bump window is a distance mask of it
    and every divergence sum a matrix product (`_profile_rows`).  Vectors
    match one ball query and one solve per row to 1e-9 max|H|, residuals
    to 1e-6 of the largest residual, since the sums run in another order.

    Raises DimensionMismatch or InvalidIndex unless indices is a 1-d array
    of integer rows in [0, N), and InvalidScale unless h is positive and
    finite.  For the first row in ascending order that cannot be solved,
    it raises TooFewPoints when the row's ball B(x, h) holds fewer than 10
    points, or IllConditioned when its normal equations are worse
    conditioned than 1e8.
    """
    _require_positive(h, "test-field radius")
    indices = _sample_rows(sample, indices)
    counts = np.zeros(indices.size, dtype=int)
    masses = np.zeros((indices.size, len(_PROFILE_FRACTIONS)))
    divs = np.zeros((indices.size, len(_PROFILE_FRACTIONS), sample.ambient_dim))
    for pos, cand, d2 in sample.candidate_blocks(indices, h):
        counts[pos] = (d2 <= h * h).sum(axis=1)
        masses[pos], divs[pos] = _profile_rows(
            sample, cand, sample.points[indices[pos]], d2, h
        )
    vectors, residuals = _solve_rows(counts, masses, divs)
    P = sample.tangent_projectors[indices]
    tangential = np.linalg.norm(np.einsum("bij,bj->bi", P, vectors), axis=1)
    return CurvatureField(
        indices=indices,
        vectors=vectors,
        radius=float(h),
        residuals=residuals,
        orthogonal=tangential <= np.sin(ORTHO_TOL) * np.linalg.norm(vectors, axis=1),
    )


def _sample_rows(sample, indices) -> np.ndarray:
    """Sorted sample rows from `indices` (every row when None)."""
    if indices is None:
        return np.arange(len(sample))
    rows = np.asarray(indices)
    if rows.ndim != 1:
        raise DimensionMismatch(f"indices must be 1-d, got shape {rows.shape}")
    return np.sort(_require_indices(rows, len(sample), "index", "sample rows"))


def willmore_energy(
    sample: WeightedSurfaceSample, region: Ball | None, field: CurvatureField
) -> float:
    """Weighted integral of |H|^2 over the region (whole sample if None)."""
    if region is None:
        idx = np.arange(len(sample))
    else:
        idx = sample.ball_query(region.center, region.radius)
    if not field.covers(idx):
        raise MissingCurvature("curvature field does not cover the region")
    H = field.at(idx)
    return float(
        (sample.weights[idx] * np.einsum("ij,ij->i", H, H)).sum()
    )


def mesh_mean_curvature(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Cotangent-formula mean-curvature vectors at mesh vertices."""
    v = np.asarray(vertices, dtype=float)
    L = cotangent_laplacian(v, faces)
    areas = vertex_areas(v, faces)
    return np.asarray(L @ v) / areas[:, None]


# ---------------------------------------------------------------------------
# monotonicity ledger


@dataclass
class MonotonicityLedger:
    """Every named term of the two-scale density comparison at (x, sigma, rho).

    The identity states: density_rho - density_sigma equals
    radial_defect - curvature_sixteenth + pairing_rho - pairing_sigma,
    where pairing_t = (1 / 2 t^2) * integral over B(x, t) of
    r <grad-perp r, H>.
    """

    x: np.ndarray
    sigma: float
    rho: float
    density_sigma: float
    density_rho: float
    curvature_sixteenth: float
    radial_defect: float
    pairing_sigma: float
    pairing_rho: float

    @property
    def residual(self) -> float:
        lhs = self.density_rho - self.density_sigma
        rhs = (
            self.radial_defect
            - self.curvature_sixteenth
            + self.pairing_rho
            - self.pairing_sigma
        )
        return lhs - rhs

    @property
    def residual_relative(self) -> float:
        scale = max(abs(self.density_sigma), abs(self.density_rho), 1e-300)
        return abs(self.residual) / scale


def _radial_terms(sample, x, idx, field):
    """Per-point r, grad-perp r, and H over the given rows."""
    rel = sample.points[idx] - x
    r = np.linalg.norm(rel, axis=1)
    keep = r > 0
    idx = idx[keep]
    rel = rel[keep]
    r = r[keep]
    P = sample.tangent_projectors[idx]
    tang = np.einsum("nij,nj->ni", P, rel)
    perp = (rel - tang) / r[:, None]
    H = field.at(idx)
    return idx, r, perp, H


def _require_scale_pair(sample, sigma, rho, floor: float | None) -> None:
    """InvalidScale unless 0 < sigma < rho and `floor` is positive and
    finite, BallBelowResolution when sigma is below `floor` (by default the
    resolution floor at 4 spacings)."""
    if floor is None:
        floor = resolution_floor(sample, 4.0)
    _require_positive(floor, "resolution floor")
    if not (0 < sigma < rho):
        raise InvalidScale(f"need 0 < sigma < rho, got sigma {sigma} and rho {rho}")
    if sigma < floor:
        raise BallBelowResolution(f"sigma {sigma:.4g} below floor {floor:.4g}")


def monotonicity_identity(
    sample: WeightedSurfaceSample,
    x,
    sigma: float,
    rho: float,
    field: CurvatureField,
    floor: float | None = None,
) -> MonotonicityLedger:
    """Evaluate every term of the two-scale density identity at x."""
    _require_scale_pair(sample, sigma, rho, floor)
    x = np.asarray(x, dtype=float)
    idx_rho = sample.ball_query(x, rho)
    idx, r, perp, H = _radial_terms(sample, x, idx_rho, field)
    w = sample.weights[idx]
    in_sigma = r <= sigma
    mass_sigma = float(w[in_sigma].sum())
    mass_rho = float(w.sum())

    Hsq = np.einsum("ij,ij->i", H, H)
    ann = ~in_sigma
    curvature_sixteenth = float((w[ann] * Hsq[ann]).sum() / 16.0)

    defect_vec = perp / r[:, None] + H / 4.0
    defect = np.einsum("ij,ij->i", defect_vec, defect_vec)
    radial_defect = float((w[ann] * defect[ann]).sum())

    pairing_density = r * np.einsum("ij,ij->i", perp, H)
    pairing_sigma = float(
        (w[in_sigma] * pairing_density[in_sigma]).sum() / (2.0 * sigma**2)
    )
    pairing_rho = float((w * pairing_density).sum() / (2.0 * rho**2))

    return MonotonicityLedger(
        x=x,
        sigma=float(sigma),
        rho=float(rho),
        density_sigma=mass_sigma / sigma**2,
        density_rho=mass_rho / rho**2,
        curvature_sixteenth=curvature_sixteenth,
        radial_defect=radial_defect,
        pairing_sigma=pairing_sigma,
        pairing_rho=pairing_rho,
    )


def monotonicity_inequality(
    sample: WeightedSurfaceSample,
    x,
    sigma: float,
    rho: float,
    delta: float,
    field: CurvatureField,
    floor: float | None = None,
):
    """Two-scale density bound: lhs = small-scale density, rhs = majorant."""
    _require_scale_pair(sample, sigma, rho, floor)
    if not (0 < delta <= 1):
        raise InvalidScale(f"delta {delta} is outside (0, 1]")
    x = np.asarray(x, dtype=float)
    idx_s = sample.ball_query(x, sigma)
    idx_r = sample.ball_query(x, rho)
    lhs = float(sample.weights[idx_s].sum()) / sigma**2
    willmore = willmore_energy(sample, Ball(x, rho), field)
    rhs = (1.0 + delta) * float(sample.weights[idx_r].sum()) / rho**2 + (
        willmore / (2.0 * delta)
    )
    return lhs, rhs

