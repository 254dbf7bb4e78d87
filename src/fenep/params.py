"""Model and run parameter containers with eager validation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .tensorcalc import RegParams

__all__ = ["ParameterError", "ModelParams", "validate_time_steps"]


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


def validate_time_steps(dts, growth_limit: float = 2.0) -> None:
    """Check a variable step sequence: positive steps, bounded growth.

    Each step may exceed its predecessor by at most the growth limit;
    violating sequences are rejected up front rather than mid-run.
    """
    prev = None
    for i, dt in enumerate(dts):
        if not (dt > 0 and math.isfinite(dt)):
            raise ParameterError(f"time step {i} must be positive, got {dt}")
        if prev is not None and dt > growth_limit * prev * (1 + 1e-12):
            raise ParameterError(
                f"time step {i} grows by {dt / prev:.3g} > {growth_limit} "
                "over its predecessor")
        prev = dt
