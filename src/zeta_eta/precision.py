"""Precision request passed to every numerical operation: the target
absolute error alone.  Work budgets are constants of each layer; a
computation that would exceed one raises BudgetExceeded."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError, _real


@dataclass(frozen=True)
class EvalPrecision:
    """Target absolute error for one evaluation.

    abs_err   target absolute error of the returned value; accepted range
              [1e-30, 1e-3].  Requests below ~1e-13 switch the zeta evaluator
              to its software extended-precision path.
    """

    abs_err: float = 1e-10

    def __post_init__(self) -> None:
        if _real(self.abs_err, "abs_err", 1e-30) > 1e-3:
            raise ValidationError(
                f"abs_err <= 1e-3 required, got abs_err={self.abs_err!r}")


#: Point-evaluation default (CLI single evaluations).
DEFAULT_PRECISION = EvalPrecision(abs_err=1e-10)

#: Scan default (CLI grids and distribution experiments).
SCAN_PRECISION = EvalPrecision(abs_err=1e-8)
