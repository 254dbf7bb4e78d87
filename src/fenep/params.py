"""Model and run parameter containers with eager validation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .tensorcalc import RegParams

__all__ = ["ParameterError", "ModelParams"]


class ParameterError(ValueError):
    """A parameter combination outside the supported ranges."""


@dataclass(frozen=True)
class ModelParams:
    """Nondimensional model parameters.

    ``b`` may be ``math.inf``, which selects the infinite-extensibility
    limit of the model (linear spring law, no trace bound, no auxiliary
    trace unknown in the diffusive scheme).
    """

    re: float
    wi: float
    eps: float
    b: float = math.inf
    delta: float = 0.1
    alpha: float | None = None

    def __post_init__(self) -> None:
        if not (self.re > 0 and math.isfinite(self.re)):
            raise ParameterError(f"re must be positive and finite, got {self.re}")
        if not (self.wi > 0 and math.isfinite(self.wi)):
            raise ParameterError(f"wi must be positive and finite, got {self.wi}")
        if not 0.0 < self.eps < 1.0:
            raise ParameterError(f"eps must lie in (0, 1), got {self.eps}")
        if self.alpha is not None and not (
                self.alpha > 0 and math.isfinite(self.alpha)):
            raise ParameterError(
                f"alpha must be positive and finite, got {self.alpha}")
        # the delta and b checks live in RegParams; build it to validate now
        self.reg  # noqa: B018

    @cached_property
    def reg(self) -> RegParams:
        try:
            return RegParams(self.delta, self.b)
        except ValueError as exc:
            raise ParameterError(str(exc)) from None

    @property
    def oldroyd_b(self) -> bool:
        return math.isinf(self.b)

