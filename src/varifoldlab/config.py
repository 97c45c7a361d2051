"""Central configuration.

All tunable thresholds live in one dataclass, so each value has one
default and one place to override it.  Defaults follow the continuum
constants where those are meaningful at sample resolution and record the
resolution-dependent choices otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AnalysisConfig:
    """Thresholds and scale conventions for every analysis stage.

    Attributes
    ----------
    floor_mult : float
        Resolution floor for measure-type statistics, in units of mean
        sample spacing (density ratios, beta numbers, Carleson scales).
    flatness_refine : int
        Rounds of plane refinement in the flatness search.
    net_packing_mult : float
        Net packing radius in units of the gauge (continuum value 0.5e-3).
    patch_radius_mult : float
        Synthesized patch radius in units of the gauge (continuum 2e-3).
    group_sep_mult : float
        Within-group net separation in units of the gauge (continuum 0.1).
    pou_support_mult : float
        Bump support radius in units of the gauge (continuum 0.5).
    fine_threshold : float or None
        Tilt threshold for fine-set membership; None means sqrt(gamma).
    bundle_radius : float or None
        Normal-bundle radius fraction; None means sqrt(fine_threshold).
    stage_depth : int
        Maximum number of projection stages.
    graph_lip_mult : float
        Graph test rejects balls whose height field exceeds this multiple of
        the fine threshold as a Lipschitz constant.
    acceptance_mult : float
        Generic multiplier for "measured constant stays below" checks.
    embedding_radius : float
        The stage pipeline rescales its input into a ball of this radius
        inside the unit domain so that the gauge (1-|x|)/100 stays a few
        sample spacings wide and tilt statistics resolve.
    p_exponent : float
        Default p for distortion L^p sums.
    dyadic_depth : int
        Depth of dyadic square subdivision in conformal diagnostics.
    min_square_triangles : int
        Dyadic squares with fewer triangles than this are skipped.
    square_coverage : float
        Dyadic squares whose member triangles cover less than this fraction
        of the square are treated as boundary-straddling and skipped.
    patch_alpha_mult : float
        Patch triangulation keeps a triangle only when its circumradius is
        at most this multiple of the mean sample spacing, so holes and
        sliver fills never enter the complex.
    metric_radius_mult : float
        Neighborhood-graph radius for intrinsic shortest paths, in units of
        mean sample spacing.  Four spacings keeps the graph-metric stretch
        of straight lines below one percent.
    seed : int
        Seed echoed into every report; all randomized subsampling uses it.
    """

    floor_mult: float = 8.0
    flatness_refine: int = 2
    net_packing_mult: float = 0.5e-3
    patch_radius_mult: float = 2.0e-3
    group_sep_mult: float = 0.1
    pou_support_mult: float = 0.5
    fine_threshold: float | None = None
    bundle_radius: float | None = None
    stage_depth: int = 12
    graph_lip_mult: float = 10.0
    acceptance_mult: float = 50.0
    embedding_radius: float = 0.02
    p_exponent: float = 2.0
    dyadic_depth: int = 3
    min_square_triangles: int = 16
    square_coverage: float = 0.9
    patch_alpha_mult: float = 1.6
    metric_radius_mult: float = 4.0
    seed: int = 0


DEFAULT_CONFIG = AnalysisConfig()
