"""Exception types shared across the lab."""


class EulerLabError(Exception):
    """Base class for all lab-specific failures."""


class NoSuchEigenvalue(EulerLabError):
    """Requested curl eigenvalue has an empty lattice shell."""


class VanishingField(EulerLabError):
    """Pointwise quotient undefined because |v| dips below the safety threshold."""


class StepSizeUnderflow(EulerLabError):
    """The adaptive step-size controller stalled."""


class NoCrossings(EulerLabError):
    """The section accumulated too few crossings within the time budget."""


class NotPositiveDefinite(EulerLabError):
    """A metric or mass matrix failed a positivity check."""


class WindowTouchesSpectrum(EulerLabError):
    """An eigenvalue lies too close to a window endpoint."""


class IllConditionedContour(EulerLabError):
    """Resolvent norm blew up on the contour; an eigenvalue is too close."""


class ClusterLeakage(EulerLabError):
    """The projected eigencluster changed rank along the family."""


class DegenerateDirection(EulerLabError):
    """Eigenvector is not adapted to the first-order splitting matrix."""


class ConfigInvalid(EulerLabError):
    """Experiment configuration failed schema validation."""


class ComputeFailure(EulerLabError):
    """A module computation failed inside the runner."""


class StepBudgetExceeded(EulerLabError):
    """A trajectory run is estimated to need more step attempts than the ceiling allows."""


class MemoryBudgetExceeded(EulerLabError):
    """A run is estimated to hold more memory than its ceiling allows."""
