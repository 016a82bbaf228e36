"""Exception taxonomy shared across the package: one type per CLI exit code.

The CLI maps these onto process exit codes (see `anisolab.cli`); library
code raises them directly.  A caller that needs the cause of a
ValidationError matches on its message.
"""


class ValidationError(ValueError):
    """Malformed or out-of-range input (exit 2): bad vectors, negative
    parameters, a power outside its window, a geometry that leaves the box,
    a field that touches the singular set u <= 0, ..."""


class HypothesisNotApplicableError(RuntimeError):
    """The parameter point satisfies none of the certified hypothesis sets,
    or the exact beta window of the case it satisfies holds no float (exit 4)."""


class NonConvergenceError(RuntimeError):
    """An iterative method hit its cap without meeting tolerance (exit 3).

    Carries the last residual and optional diagnostics for post-mortems.
    """

    def __init__(self, message, residual=None, diagnostics=None):
        super().__init__(message)
        self.residual = residual
        self.diagnostics = diagnostics or {}
