"""Exception hierarchy.

Every error carries a distinct process exit code used by the command-line
front end (see ``weakmeas.args``). An error whose code a kernel row can
carry in a status array (4, 5, 7, 8 and 9) also carries its ``reason``, a
``str.format`` template of the facts a caller has: :func:`raise_status`
turns a row's status into its error with that text. Code 9 has a second
text, for a zero conditional of the finite difference of
``estimation.extract_weak_value``, which no kernel row carries: it raises
ZeroProbability itself, as "p(A|f;eps) is zero; cannot take its
logarithm" (or the conditional that is zero).
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
    reason = "|<f|psi>| = {overlap:.3g} below threshold {threshold:g}"


class LinearizationInvalid(WeakMeasError):
    """First-order probabilities went negative; the coupling is not weak
    enough for the requested configuration."""

    exit_code = 5
    reason = ("a first-order probability is negative; coupling eps={eps:g} is too strong "
              "for this post-selection")


class NonOrthonormalBasis(WeakMeasError):
    """An analyzer angle whose state and partner round to non-orthogonal rays."""

    exit_code = 6


class ZeroCoincidenceNorm(WeakMeasError):
    """All two-photon amplitude was lost; no coincidence events remain."""

    exit_code = 7
    reason = "no coincidence amplitude left after the gate"


class WeakValueReferenceZero(WeakMeasError):
    """Reference weak value too close to zero to invert the estimator."""

    exit_code = 8
    reason = "|wv_reference| = {wv_abs:.3g} below {wv_floor:g}"


class ZeroProbability(WeakMeasError):
    """A referenced probability or count is zero where a logarithm or
    conditional is required."""

    exit_code = 9
    reason = "post-selection probability p(f={f}) is zero"


class ZeroInformation(WeakMeasError):
    """Fisher information is zero; the error bound diverges."""

    exit_code = 11


class TooManyDiscardedReplicas(WeakMeasError):
    """More than the tolerated fraction of Monte Carlo replicas had
    unusable (zero) counts."""

    exit_code = 12


#: Exit code -> the error class that carries it.
BY_CODE = {err.exit_code: err for err in WeakMeasError.__subclasses__()}


def raise_status(status, **facts) -> None:
    """Return for status 0; otherwise raise the error of that exit code
    with its reason filled in from ``facts``, of which a reason uses the
    ones it names."""
    if status:
        err = BY_CODE[int(status)]
        raise err(err.reason.format(**facts))
