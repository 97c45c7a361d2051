"""Toolkit for certifying and parameterizing discrete 2-surfaces.

The package ingests weighted point samples (or triangle meshes) of a
2-surface in R^n, certifies multiscale flatness/density/tilt hypotheses,
estimates first-variation mean curvature, and constructs two kinds of
controlled parameterizations: a stagewise projection map with distortion
reports and an energy-minimizing conformal disk map with A2 / BMO /
inverse-Hoelder diagnostics.

Thresholds are named module constants beside the code that reads them
(``iterated_projection.GRAPH_LIP_MULT``, ``conformal.PATCH_ALPHA_MULT``,
...).  So is search effort, the number of tilt passes, path sources or
sampled pairs behind an estimate (``multiscale.FLATNESS_PASSES``,
``conformal.METRIC_SOURCES``, ``iterated_projection.DISTORTION_PAIRS``,
...): it is not a parameter of the theory.  Scale choices a caller may
vary are ordinary keyword arguments.
"""

__version__ = "0.1.0"

from .geometry import (
    Ball,
    Plane,
    WeightedSurfaceSample,
    fit_plane_pca,
    grassmann_project,
    projector_distance,
)

__all__ = [
    "Ball",
    "Plane",
    "WeightedSurfaceSample",
    "fit_plane_pca",
    "grassmann_project",
    "projector_distance",
    "__version__",
]
