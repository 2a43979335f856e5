"""Exception types shared across the evaluation engine."""


class EvaluationError(Exception):
    """Base class for numerical evaluation failures."""


class RangeError(EvaluationError):
    """A multiplicative argument is too large in modulus for safe product
    evaluation; the caller should rescale its parameters."""


class PoleError(EvaluationError):
    """A theta denominator vanished (or nearly so) at the evaluation point."""


class ResonanceError(EvaluationError):
    """A recursion coefficient is singular at the parameter point: theta(x)
    or theta(hbar - m) of its key is below POLE_TOL.  Sampled points never
    raise it, since resonance_margin bounds both below by RESONANCE_TOL;
    a point that does is resonant and should be resampled."""


class ConsistencyError(EvaluationError):
    """Independent recursion paths disagree beyond tolerance."""


class IllConditionedError(EvaluationError):
    """The restriction matrix is too ill-conditioned to invert reliably."""


class ResamplingError(EvaluationError):
    """Rejection sampling failed to find a non-resonant point."""
