"""Exception types shared across the package, and the checkers that raise
them for bad arguments.

Every refusal the library makes is one of these, so callers (and the CLI
exit-code mapping) can distinguish bad input from numerical trouble.  The
three checkers at the end are the one rule per kind of input: an integer,
a finite real with a lower bound, and a complex point with finite parts.
Each refusal names the parameter and the value it got; rules that are not a
lower bound (strict or upper bounds, ranges) follow the check at its caller.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


class ZetaEtaError(Exception):
    """Base class for all package errors."""


class ValidationError(ZetaEtaError):
    """Input rejected before any numerics ran."""


class NumericalError(ZetaEtaError):
    """Computation started but could not be completed to tolerance."""


# --- evaluation-time errors -------------------------------------------------

class PoleAtOne(ValidationError):
    """s is too close to the simple pole at s = 1."""


class NearSingularity(ValidationError):
    """s is too close to a zero or pole for the requested operation."""

    def __init__(self, message: str, where: complex | None = None):
        super().__init__(message)
        self.where = where


class OnSingularity(ValidationError):
    """Requested point sits exactly on a zero or pole."""


class BudgetExceeded(NumericalError):
    """Series or quadrature budget ran out before reaching tolerance."""


# --- zero-table errors ------------------------------------------------------

class ParseError(ValidationError):
    """A zero-table file line could not be parsed."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NotSorted(ParseError):
    """Ordinates in a zero-table file are not strictly increasing."""


class EmptyFile(ValidationError):
    """Zero-table file contained no records."""


class BeyondTable(ValidationError):
    """Query needs zeros above the table's maximum height."""


class OutOfStrip(ValidationError):
    """Hypothetical zero outside the critical strip, or bad ordinate."""


# --- kernel / special-function errors ---------------------------------------

class InvalidFamily(ValidationError):
    """Unknown kernel family or invalid kernel parameter."""


class OnNegativeRealAxisCut(ValidationError):
    """Argument sits on the branch cut (nonpositive real axis)."""


# --- approximation errors ----------------------------------------------------

class BeyondSieve(ValidationError):
    """von Mangoldt query above the configured sieve limit."""


class ZeroCoincidesWithS(ValidationError):
    """s equals a zero in the table; the local logarithm is undefined."""


class HypothesisViolated(ValidationError):
    """Stated hypothesis of the bound does not hold for these parameters."""


# --- argument checkers ------------------------------------------------------

# Concrete types, not the numbers ABCs: an ABC isinstance costs about 1 us,
# and e_star runs its checks at every quadrature node of u_m_eval.
_INTEGERS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)
_POINTS = (int, float, complex, np.number)


def _integer(value, name: str, lo: int = 0, exc=ValidationError) -> int:
    """value as an int >= lo; bools, floats and other types are refused."""
    if (isinstance(value, bool) or not isinstance(value, _INTEGERS)
            or value < lo):
        raise exc(f"integer {name} >= {lo} required, got {name}={value!r}")
    return int(value)


def _real(value, name: str, lo: float = -math.inf) -> float:
    """value as a finite float >= lo; bools and non-real types are refused."""
    if (isinstance(value, bool) or not isinstance(value, _REALS)
            or not (math.isfinite(value) and value >= lo)):
        bound = f" >= {lo:g}" if lo > -math.inf else ""
        raise ValidationError(
            f"finite {name}{bound} required, got {name}={value!r}")
    return float(value)


def _point(value, name: str = "s") -> complex:
    """value as a complex number with finite parts."""
    if (isinstance(value, bool) or not isinstance(value, _POINTS)
            or not cmath.isfinite(value)):
        raise ValidationError(
            f"finite complex {name} required, got {name}={value!r}")
    return complex(value)
