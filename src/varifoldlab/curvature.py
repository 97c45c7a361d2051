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

from .errors import BallBelowResolution, IllConditioned, MissingCurvature, TooFewPoints
from .geometry import Ball, WeightedSurfaceSample
from .meshing import cotangent_laplacian, vertex_areas


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
        True where H deviates from the normal space by at most the
        perpendicularity tolerance (flag only, never a projection).
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


def estimate_mean_curvature(
    sample: WeightedSurfaceSample, x, h: float
):
    """Weak mean curvature near x from bump test fields of radius h.

    Returns
    -------
    (H, residual)
        H : ndarray, the estimated vector; residual : float, relative
        least-squares misfit of the stacked first-variation equations.
    """
    x = np.asarray(x, dtype=float)
    return _curvature_at(sample, x, h, sample.ball_query(x, h))


def _curvature_at(sample, x, h, idx):
    """estimate_mean_curvature given the sorted sample rows of B(x, h)."""
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


# rows per batched ball query of build_curvature_field; the query returns
# Python lists (~750 indices per row at radius 0.25 on a 12k-point unit
# disk), and 128 rows already raised the peak memory by 6 MB
_FIELD_BLOCK = 16


def build_curvature_field(
    sample: WeightedSurfaceSample,
    h: float,
    indices=None,
    ortho_tol: float = 0.2,
) -> CurvatureField:
    """Estimate H at the given rows (all rows by default)."""
    if indices is None:
        indices = np.arange(len(sample))
    indices = np.sort(np.asarray(indices, dtype=int))
    vectors = np.zeros((indices.size, sample.ambient_dim))
    residuals = np.zeros(indices.size)
    orthogonal = np.zeros(indices.size, dtype=bool)
    P = sample.tangent_projectors
    tree = sample.spatial_index
    for lo in range(0, indices.size, _FIELD_BLOCK):
        block = indices[lo : lo + _FIELD_BLOCK]
        balls = tree.query_ball_point(sample.points[block], h, return_sorted=True)
        for row, i, ball in zip(range(lo, lo + block.size), block, balls):
            H, res = _curvature_at(
                sample, sample.points[i], h, np.asarray(ball, dtype=int)
            )
            vectors[row] = H
            residuals[row] = res
            norm = np.linalg.norm(H)
            if norm == 0.0:
                orthogonal[row] = True
            else:
                tangential = np.linalg.norm(P[i] @ H)
                orthogonal[row] = tangential <= np.sin(ortho_tol) * norm
    return CurvatureField(
        indices=indices,
        vectors=vectors,
        radius=float(h),
        residuals=residuals,
        orthogonal=orthogonal,
    )


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

    def to_dict(self) -> dict:
        return {
            "x": [float(v) for v in self.x],
            "sigma": float(self.sigma),
            "rho": float(self.rho),
            "density_sigma": float(self.density_sigma),
            "density_rho": float(self.density_rho),
            "curvature_sixteenth": float(self.curvature_sixteenth),
            "radial_defect": float(self.radial_defect),
            "pairing_sigma": float(self.pairing_sigma),
            "pairing_rho": float(self.pairing_rho),
            "residual": float(self.residual),
            "residual_relative": float(self.residual_relative),
        }


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


def monotonicity_identity(
    sample: WeightedSurfaceSample,
    x,
    sigma: float,
    rho: float,
    field: CurvatureField,
    floor: float | None = None,
) -> MonotonicityLedger:
    """Evaluate every term of the two-scale density identity at x."""
    if floor is None:
        floor = 4.0 * sample.mean_spacing
    if not (0 < sigma < rho):
        raise ValueError("need 0 < sigma < rho")
    if sigma < floor:
        raise BallBelowResolution(f"sigma {sigma:.4g} below floor {floor:.4g}")
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
    if floor is None:
        floor = 4.0 * sample.mean_spacing
    if not (0 < sigma < rho):
        raise ValueError("need 0 < sigma < rho")
    if not (0 < delta <= 1):
        raise ValueError("need 0 < delta <= 1")
    if sigma < floor:
        raise BallBelowResolution(f"sigma {sigma:.4g} below floor {floor:.4g}")
    x = np.asarray(x, dtype=float)
    idx_s = sample.ball_query(x, sigma)
    idx_r = sample.ball_query(x, rho)
    lhs = float(sample.weights[idx_s].sum()) / sigma**2
    H = field.at(idx_r)
    willmore = float(
        (sample.weights[idx_r] * np.einsum("ij,ij->i", H, H)).sum()
    )
    rhs = (1.0 + delta) * float(sample.weights[idx_r].sum()) / rho**2 + (
        willmore / (2.0 * delta)
    )
    return lhs, rhs


def analytic_field(sample: WeightedSurfaceSample, vectors: np.ndarray) -> CurvatureField:
    """Wrap known per-point curvature vectors as a full-coverage field."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.shape != sample.points.shape:
        raise MissingCurvature("vectors must align with sample rows")
    return CurvatureField(
        indices=np.arange(len(sample)),
        vectors=vectors,
        radius=0.0,
        residuals=np.zeros(len(sample)),
        orthogonal=np.ones(len(sample), dtype=bool),
    )
