"""The stochastic-rounding hot kernel, implemented in numpy (``reference``)."""

from . import reference
from .reference import expected_sq_error, stochastic_round

__all__ = ["stochastic_round", "expected_sq_error", "reference"]
