"""Exception hierarchy.

Every error carries a distinct process exit code used by the command-line
front end (see ``weakmeas.args``).
"""


class WeakMeasError(Exception):
    """Base class for all model and estimation errors."""

    exit_code = 1


class CouplingTooStrong(WeakMeasError):
    """Coupling strength violates the weak-interaction guard."""

    exit_code = 3


class PostselectionSingular(WeakMeasError):
    """Post-selected state is (numerically) orthogonal to the input state."""

    exit_code = 4


class LinearizationInvalid(WeakMeasError):
    """First-order probabilities went negative; the coupling is not weak
    enough for the requested configuration."""

    exit_code = 5


class NonOrthonormalBasis(WeakMeasError):
    """An analyzer angle whose state and partner round to non-orthogonal rays."""

    exit_code = 6


class ZeroCoincidenceNorm(WeakMeasError):
    """All two-photon amplitude was lost; no coincidence events remain."""

    exit_code = 7


class WeakValueReferenceZero(WeakMeasError):
    """Reference weak value too close to zero to invert the estimator."""

    exit_code = 8


class ZeroProbability(WeakMeasError):
    """A referenced probability or count is zero where a logarithm or
    conditional is required."""

    exit_code = 9


class ZeroProbeCoupling(WeakMeasError):
    """Finite-difference extraction requested with zero probe coupling."""

    exit_code = 10


class ZeroInformation(WeakMeasError):
    """Fisher information is zero; the error bound diverges."""

    exit_code = 11


class TooManyDiscardedReplicas(WeakMeasError):
    """More than the tolerated fraction of Monte Carlo replicas had
    unusable (zero) counts."""

    exit_code = 12
