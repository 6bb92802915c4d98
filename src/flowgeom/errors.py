"""Exception types shared across the package.

Exit-code mapping used by the CLI: config problems (ConfigError and
subclasses of UsageError raised while reading a config, and DegenerateX,
raised where X loses rank at a probe point of the config or the scenario)
exit 2, numeric or runtime failures exit 3, and a clean run whose checks
fail exits 1.
"""


class FlowgeomError(Exception):
    """Base class for all package errors."""


class UsageError(FlowgeomError):
    """Caller violated a documented precondition."""


class ConfigError(UsageError):
    """Config file is missing, malformed, or fails schema validation."""


# ---------------------------------------------------------------- numerics


class EvalFailure(FlowgeomError):
    """A user-supplied field raised or returned non-finite values at a probe."""


# ------------------------------------------------------------- expressions


class ExprError(FlowgeomError):
    """Base class for expression parsing/evaluation errors."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class ExprSyntaxError(ExprError):
    """Source does not match the expression grammar."""


class UnknownIdentifier(ExprError):
    """Identifier is not a variable, constant, or known function."""


class ArityError(ExprError):
    """Function called with the wrong number of arguments."""


class DomainError(ExprError):
    """Evaluation hit a point outside a partial function's domain."""


# ------------------------------------------------------------------ models


class UnknownScenario(UsageError):
    """Scenario name is not registered."""


class BadParams(UsageError):
    """Scenario parameters fail validation."""


class DegenerateX(FlowgeomError):
    """Diffusion coefficient loses full rank at a probed point."""


class OutOfOverlap(UsageError):
    """Chart transition requested at a point outside the overlap."""


class ZeroVector(UsageError):
    """Operation requires a nonzero vector."""


# -------------------------------------------------------------- stochastic


class TooFewAlivePaths(FlowgeomError):
    """More than the allowed fraction of paths died before the horizon."""


class NotApplicable(FlowgeomError):
    """Check's mathematical preconditions do not hold for this scenario."""
