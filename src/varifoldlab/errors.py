"""Exception and warning types shared across the toolkit.

Every operational failure mode has its own class so callers can map
failures to report entries without string matching.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


# ---------------------------------------------------------------------------
# geometry


class EmptyInput(ToolkitError, ValueError):
    """An operation received no points or zero total weight."""


class DegenerateCloud(ToolkitError):
    """Point cloud has rank below the requested plane dimension."""


class DimensionMismatch(ToolkitError, ValueError):
    """Operands live in different ambient dimensions, or a rank or plane
    dimension is out of range for them."""


class NonFiniteInput(ToolkitError):
    """Input coordinates, weights or bases hold NaN or infinity."""


class NonPositiveWeight(ToolkitError, ValueError):
    """A sample weight is zero or negative."""


class NonOrthonormalBasis(ToolkitError):
    """A tangent basis has rows that are not orthonormal."""


class InvalidIndex(ToolkitError, IndexError):
    """Sample row indices are not integers in [0, N)."""


class EigengapTie(UserWarning):
    """Spectral truncation hit a near-tie at the cut; result is the
    deterministic lexicographic choice but the caller should know."""


# ---------------------------------------------------------------------------
# multiscale


class BallBelowResolution(ToolkitError):
    """Ball radius is below the resolution floor of the sample."""


class TooFewPoints(ToolkitError):
    """A ball contains too few samples for the requested statistic."""


class InvalidScale(ToolkitError, ValueError):
    """A radius, resolution floor or scale factor is out of its range."""


# ---------------------------------------------------------------------------
# curvature


class MissingCurvature(ToolkitError):
    """Operation needs a mean-curvature field that was not supplied."""


class IllConditioned(ToolkitError):
    """Least-squares system condition number exceeds the safe bound."""


# ---------------------------------------------------------------------------
# stagewise parameterization


class PointOutsideDomain(ToolkitError, ValueError):
    """A point or ball lies outside its domain: the analysis domain ball,
    or the unit disk of a disk Moebius map."""


class EmptyFineSet(ToolkitError):
    """Distance to the fine set requested while the fine set is empty."""


class UncoveredQuery(ToolkitError):
    """Partition-of-unity query point is covered by no bump support."""


class GraphTestFailure(ToolkitError):
    """A required ball is not graphical within the Lipschitz bound."""

    def __init__(self, message, center=None, radius=None, lipschitz=None):
        super().__init__(message)
        self.center = center
        self.radius = radius
        self.lipschitz = lipschitz


class NoValidPreimage(ToolkitError):
    """Normal-bundle projection found no admissible foot point."""


class NonContraction(ToolkitError):
    """Stage displacements stopped contracting; gauge assumptions violated."""


# ---------------------------------------------------------------------------
# disk parameterization


class NotDiskTopology(ToolkitError):
    """Extracted patch is not a topological disk."""


class NoBoundaryCycle(ToolkitError):
    """Patch boundary does not form a single Jordan cycle."""


class DisconnectedPatch(ToolkitError):
    """Patch graph is disconnected."""


class SolverSingular(ToolkitError):
    """Linear solve for the harmonic map failed."""


class FoldedTriangles(ToolkitError):
    """Parameterization contains foldovers after normalization."""

    def __init__(self, message, count=0):
        super().__init__(message)
        self.count = count


class DegenerateTriangle(ToolkitError):
    """Triangle with near-zero area encountered."""


class RankDeficient(ToolkitError):
    """Affine fit requested on rank-deficient data."""


class NotJordan(ToolkitError):
    """Vertex cycle is not a simple closed curve."""


# ---------------------------------------------------------------------------
# synthetic surfaces and meshes


class InvalidSpec(ToolkitError):
    """Synthetic surface request is inconsistent."""

