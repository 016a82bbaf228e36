"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes (see `anisolab.cli`); library
code raises them directly.
"""


class ValidationError(ValueError):
    """Malformed or out-of-range input: bad vectors, negative parameters, ..."""


class UndefinedExponentError(ValidationError):
    """Sobolev exponent requested in the regime where it is not defined."""


class OutOfWindowError(ValidationError):
    """A power parameter lies outside its admissible open window."""


class GeometryError(ValidationError):
    """Requested geometry (ball, annulus, radii) does not fit the grid box."""


class SingularityError(ValidationError):
    """A field touches the singular set (u <= 0) where it must stay positive."""


class HypothesisNotApplicableError(RuntimeError):
    """The parameter point satisfies none of the certified hypothesis sets,
    or the exact beta window of the case it satisfies holds no float."""


class HypothesisViolatedError(RuntimeError):
    """Internal inconsistency: a certified parameter point failed a step that
    certification guarantees.  Should never occur; surfacing it is a bug trap."""


class NonConvergenceError(RuntimeError):
    """An iterative method hit its cap without meeting tolerance.

    Carries the last residual and optional diagnostics for post-mortems.
    """

    def __init__(self, message, residual=None, diagnostics=None):
        super().__init__(message)
        self.residual = residual
        self.diagnostics = diagnostics or {}
