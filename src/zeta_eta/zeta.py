"""Riemann zeta at desk scale: Euler-Maclaurin evaluation, log-derivative,
Riemann-Siegel theta and the Hardy Z function.

The double-precision path is a direct Euler-Maclaurin sum

    zeta(s) = sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
              + sum_{k=1..K} B_2k/(2k)! * s(s+1)...(s+2k-2) * N^(-s-2k+1) + R,

with correction order 2K = 20 and the classical remainder bound
|R| <= |first omitted term| * |s+2K+1|/(sigma+2K+1).  N is chosen from the
target error and escalated until the bound certifies it.  Precision requests
below 5e-14 are delegated to software extended precision (mpmath), which the
double path is also tested against.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .errors import (BudgetExceeded, NearSingularity, PoleAtOne,
                     ValidationError, _point, _real)
from .precision import DEFAULT_PRECISION, EvalPrecision

# Bernoulli numbers B_2 .. B_30, exact.
_BERNOULLI = [
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6),
    Fraction(-3617, 510), Fraction(43867, 798), Fraction(-174611, 330),
    Fraction(854513, 138), Fraction(-236364091, 2730), Fraction(8553103, 6),
    Fraction(-23749461029, 870), Fraction(8615841276005, 14322),
]

# B_2k / (2k)! as floats, k = 1..15.
_BFRAC = [float(b / Fraction(math.factorial(2 * k)))
          for k, b in enumerate(_BERNOULLI, start=1)]

_CORRECTION_ORDER = 10          # K: number of Bernoulli correction terms
_EXTENDED_THRESHOLD = 5e-14     # below this, switch to software precision
_POLE_RADIUS = 1e-12
_MAX_CUTOFF = 200_000           # largest Euler-Maclaurin cutoff N tried


def _initial_cutoff(s: complex, abs_err: float, order: int) -> int:
    # Remainder ~ (2/(2pi)^(2K+2)) * (|s|+2K)^(2K+1) * N^(-sigma-2K-1); solve
    # (t_eff/N)^(2K+1) <= abs_err (2pi)^(2K+2)/16 for N, then one fixup pass
    # for the N^-sigma factor.  The escalation loop covers any shortfall.
    k2 = 2 * order + 1
    t_eff = abs(s) + 2 * order + 2
    ratio = math.exp((math.log(abs_err / 16.0)
                      + (2 * order + 2) * math.log(2 * math.pi)) / k2)
    n = t_eff / min(ratio, 5.0)
    sigma = s.real
    if sigma < 0:
        # N^-sigma inflates the remainder; compensate once.
        n *= math.exp(-sigma * math.log(max(n, 2.0)) / k2)
    return max(16, int(math.ceil(n)))


def _euler_maclaurin(s: complex, n_cut: int, order: int,
                     want_deriv: bool) -> tuple[complex, complex, float]:
    """One Euler-Maclaurin pass.  Returns (zeta, zeta', remainder_bound).

    zeta' is only meaningful when want_deriv is set; the remainder bound
    covers the value (the derivative bound is within a factor log N + order
    of it, folded in by the caller).
    """
    n = np.arange(1, n_cut, dtype=np.float64)
    logn = np.log(n)
    npow = np.exp(-s * logn)            # n^-s, vectorized
    partial = npow.sum()
    dpartial = -(logn * npow).sum() if want_deriv else 0.0

    logN = math.log(n_cut)
    npow_N = cmath.exp(-s * logN)       # N^-s
    sm1 = s - 1.0
    val = partial + n_cut * npow_N / sm1 + 0.5 * npow_N
    der = (dpartial
           - logN * n_cut * npow_N / sm1 - n_cut * npow_N / (sm1 * sm1)
           - 0.5 * logN * npow_N) if want_deriv else 0.0

    # Correction terms T_k = B_2k/(2k)! * u_k * N^-s, u_k as below.
    inv_N2 = 1.0 / (n_cut * n_cut)
    u = s / n_cut                       # u_1 = s/N
    du = 1.0 / n_cut                    # d/ds u_k
    for k in range(1, order + 1):
        coef = _BFRAC[k - 1]
        term = coef * u * npow_N
        val += term
        if want_deriv:
            der += coef * (du - logN * u) * npow_N
        # advance u_k -> u_{k+1}: multiply by (s+2k-1)(s+2k)/N^2
        f1, f2 = s + (2 * k - 1), s + 2 * k
        if want_deriv:
            du = (du * f1 * f2 + u * (f1 + f2)) * inv_N2
        u = u * f1 * f2 * inv_N2

    # First omitted term bounds the remainder.
    tail = _BFRAC[order] * u * npow_N
    denom = s.real + 2 * order + 1
    factor = abs(s + 2 * order + 1) / denom if denom > 0.1 else 10.0 * abs(s)
    rem = abs(tail) * factor
    if want_deriv:
        # The differentiated terms pick up roughly a log N factor.
        rem *= math.log(n_cut) + 2 * order + 2
    return val, der, rem


def _zeta_em(s: complex, prec: EvalPrecision,
             want_deriv: bool) -> tuple[complex, complex, float]:
    order = _CORRECTION_ORDER
    n_cut = _initial_cutoff(s, prec.abs_err, order)
    target = 0.25 * prec.abs_err
    while True:
        if n_cut > _MAX_CUTOFF:
            raise BudgetExceeded(
                f"Euler-Maclaurin cutoff {n_cut} exceeds {_MAX_CUTOFF} "
                f"at s={s}")
        val, der, rem = _euler_maclaurin(s, n_cut, order, want_deriv)
        if rem <= target:
            return val, der, rem
        n_cut = max(n_cut + 32, int(n_cut * 1.5))


def _extended_dps(abs_err: float) -> int:
    return max(30, int(-math.log10(abs_err)) + 10)


def _needs_extended(z: complex, abs_err: float) -> bool:
    # Double-precision argument reduction in exp(-s log n) costs about
    # |t| * eps per term, so very tight requests at large height must go
    # to software precision.
    return abs_err < max(_EXTENDED_THRESHOLD, abs(z.imag) * 2e-15)


def zeta(s, prec: EvalPrecision = DEFAULT_PRECISION):
    """zeta(s) for sigma >= -1, away from the pole at s = 1.

    Returns a complex double for ordinary precision requests; requests with
    abs_err < 5e-14 return a software extended-precision complex (mpmath)
    carrying at least 30 digits.
    """
    z = _point(s)
    if abs(z - 1.0) <= _POLE_RADIUS:
        raise PoleAtOne(f"s={s} is within {_POLE_RADIUS} of the pole at 1")
    _real(z.real, "sigma", -1.0)
    if _needs_extended(z, prec.abs_err):
        import mpmath as mp
        with mp.workdps(_extended_dps(prec.abs_err)):
            return mp.zeta(mp.mpc(z.real, z.imag))
    val, _, _ = _zeta_em(z, prec, want_deriv=False)
    return val


def zeta_log_deriv(s, prec: EvalPrecision = DEFAULT_PRECISION, store=None):
    """zeta'(s)/zeta(s), refusing points too close to the pole or to a zero.

    When a zero table is supplied, proximity to its zeros (and their
    reflections across the real axis) is checked; the guard radius is
    sqrt(prec.abs_err).
    """
    z = _point(s)
    guard = math.sqrt(prec.abs_err)
    if abs(z - 1.0) <= guard:
        raise NearSingularity(
            f"s={s} within {guard:g} of the pole at 1", where=1.0 + 0.0j)
    if store is not None and len(store) > 0:
        j = int(np.argmin(np.abs(store.gammas - abs(z.imag))))
        for i in range(max(0, j - 1), min(len(store), j + 2)):
            rec = store.record(i)
            for gamma in (rec.gamma, -rec.gamma):
                rho = complex(rec.beta, gamma)
                if abs(z - rho) <= guard:
                    raise NearSingularity(
                        f"s={s} within {guard:g} of zero {rho}", where=rho)
    if _needs_extended(z, prec.abs_err):
        import mpmath as mp
        with mp.workdps(_extended_dps(prec.abs_err)):
            ss = mp.mpc(z.real, z.imag)
            return mp.zeta(ss, derivative=1) / mp.zeta(ss)
    val, der, _ = _zeta_em(z, prec, want_deriv=True)
    if val == 0:
        raise NearSingularity(f"zeta({s}) evaluated to zero", where=z)
    return der / val


# --- Riemann-Siegel theta ----------------------------------------------------

_STIRLING_SHIFT = 12.0
_STIRLING_TERMS = 8


def log_gamma(z) -> complex:
    """Principal log Gamma on Re z > 0, by Stirling with upward recurrence.

    For |z| < 12 the argument is lifted by log Gamma(z) = log Gamma(z+n)
    - sum log(z+k); at |z| >= 12 the Stirling tail with 8 Bernoulli terms
    leaves a remainder below ~5e-17 * sec(arg(z)/2)^18, i.e. machine level
    on the half-plane we use.
    """
    w = _point(z, "z")
    if w.real <= 0:
        raise ValidationError(f"log_gamma requires Re z > 0, got {z!r}")
    shift = 0.0 + 0.0j
    while abs(w) < _STIRLING_SHIFT:
        shift += cmath.log(w)
        w += 1.0
    out = (w - 0.5) * cmath.log(w) - w + 0.5 * math.log(2 * math.pi)
    w2 = w * w
    zk = w
    for k in range(1, _STIRLING_TERMS + 1):
        out += float(_BERNOULLI[k - 1]) / ((2 * k) * (2 * k - 1)) / zk
        zk *= w2
    return out - shift


def theta(t: float) -> float:
    """Riemann-Siegel theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi.

    Continuous for t >= 0 with theta(0) = 0; odd extension for t < 0.
    """
    t = _real(t, "t")
    if t < 0:
        return -theta(-t)
    return log_gamma(complex(0.25, 0.5 * t)).imag - 0.5 * t * math.log(math.pi)


def hardy_z(t: float, prec: EvalPrecision = DEFAULT_PRECISION) -> float:
    """Hardy Z(t) = exp(i theta(t)) zeta(1/2 + it); real with |Z| = |zeta|.

    Even in t.  The rotated value's imaginary part is a self-check and must
    sit at tolerance level; Z(0) = zeta(1/2).
    """
    t = _real(t, "t")
    if t < 0:
        return hardy_z(-t, prec)
    if _needs_extended(complex(0.5, t), prec.abs_err):
        import mpmath as mp
        with mp.workdps(_extended_dps(prec.abs_err)):
            return mp.siegelz(t)
    val = zeta(complex(0.5, t), prec)
    rotated = cmath.exp(1j * theta(t)) * val
    if abs(rotated.imag) > 50 * prec.abs_err * (1.0 + abs(rotated)):
        raise BudgetExceeded(
            f"hardy_z self-check failed at t={t}: Im={rotated.imag:.3e}")
    return rotated.real
