"""Exception types, and the value checks of settings, shared across the simulator."""

import math


class FedqError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateRange(FedqError):
    """Quantization range narrower than the supported epsilon."""


class DimensionMismatch(FedqError):
    """Operands have incompatible dimensions."""


class ShapeMismatch(DimensionMismatch):
    """Model layer shapes disagree."""


class StateMismatch(FedqError):
    """Forward/backward state does not match the supplied batch."""


class NotSymmetric(FedqError):
    """Matrix is not symmetric within tolerance."""


class NoConvergence(FedqError):
    """Iterative solver failed to converge."""


class NegativeEigenvalue(FedqError):
    """A selected eigenvalue is negative beyond tolerance."""


class ZeroMatrix(FedqError):
    """Matrix has no nonzero rows."""


class InvalidParams(FedqError):
    """Parameter values violate a documented precondition."""


class NonFiniteInput(InvalidParams):
    """A tensor handed to a quantizer, or a feature matrix, holds NaN or +-inf.

    ``row`` is the first such row of a batch (0 for a single tensor).
    """

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


class Diverged(FedqError):
    """Training produced non-finite values; says where it happened.

    ``phase`` is "client update" or "server requantize"; ``round`` is
    1-based and ``client`` is the client id.
    """

    def __init__(self, round: int, client: int, phase: str):
        self.round = round
        self.client = client
        self.phase = phase
        super().__init__(
            f"training diverged in round {round}, client {client}, during {phase}: "
            "non-finite values reached the quantizer"
        )


class InvalidCoordinate(InvalidParams):
    """Coordinate index out of range."""


class EmptyInput(FedqError):
    """Operation requires at least one element."""


class MissingClient(FedqError):
    """A round ran without full client participation."""


class ParseError(FedqError):
    """Configuration file could not be parsed."""


class ValidationError(FedqError):
    """Configuration violates an invariant; message names the field."""


def _is_int(x) -> bool:
    # bool is an int subclass; JSON true/false must not pass integer checks
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    # JSON true/false and Infinity/NaN must not pass as numbers either
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _must(ok: bool, field: str, rule: str):
    """Raise InvalidParams("<field> must be <rule>") unless ``ok``; a settings
    type checks its fields this way, and config swaps the field for its JSON key."""
    if not ok:
        raise InvalidParams(f"{field} must be {rule}")
