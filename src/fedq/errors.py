"""Exception types, and the value checks of settings, shared across the simulator."""

import math
import sys


class FedqError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(FedqError):
    """Operands have incompatible dimensions or shapes: layers across
    models, a gradient against its forward output, matrices in a product."""


class NoConvergence(FedqError):
    """Iterative solver failed to converge."""


class InvalidParams(FedqError):
    """An input violates a documented precondition: a setting out of range,
    an empty or degenerate operand (no shards, a zero or asymmetric matrix,
    a range narrower than the quantizer's epsilon), or a round without
    every client."""


class NonFiniteInput(InvalidParams):
    """A tensor handed to a quantizer, a feature matrix or a matrix to
    decompose holds NaN or +-inf.

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


class ParseError(FedqError):
    """A config file, or a metrics file given to ``fedq report``, could not be parsed."""


class ValidationError(FedqError):
    """Configuration violates an invariant; message names the field."""


def _is_int(x) -> bool:
    # bool is an int subclass; JSON true/false must not pass integer checks
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    # JSON true/false, Infinity/NaN and integers past float range must not pass as numbers either
    return (isinstance(x, float) and math.isfinite(x)) or (_is_int(x) and abs(x) <= sys.float_info.max)


def _must(ok: bool, field: str, rule: str):
    """Raise InvalidParams("<field> must be <rule>") unless ``ok``; a settings
    type checks its fields this way, and config swaps the field for its JSON key."""
    if not ok:
        raise InvalidParams(f"{field} must be {rule}")
