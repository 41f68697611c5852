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

One kernel evaluates the sum at any set of nodes on one line, which
supplies their partial sums sum_{n<N} n^-s together.  A horizontal line
Im s = t (a _Ray) -- a branch path's, or a single point's -- keeps the
phases n^-it, and a batch of nodes alpha + it on it is one real matrix
product of the amplitudes n^-alpha with them; zeta' is the same product
with the amplitudes times -log n.  A vertical line Re s = sigma (a _Line)
-- the iterated eta sweep's -- keeps n^-sigma and the rows (log n)^k/k!,
and a batch of nodes sigma + it close together on it takes its partial
sums from one Taylor expansion of the Dirichlet sum about the batch's
centre (the local step of Odlyzko-Schoenhage), whose truncation bound
joins each node's remainder.  The N^-s and Bernoulli terms and the
remainder bound are per node, and every node is certified on its own: the
nodes that miss the target go on together at the escalated cutoff.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

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
# (B_2k/(2k)!, 2k-1, 2k) for k = 1..K: the steps of the correction sum.
_STEPS = [(_BFRAC[k - 1], 2 * k - 1, 2 * k)
          for k in range(1, _CORRECTION_ORDER + 1)]
_EXTENDED_THRESHOLD = 5e-14     # below this, switch to software precision
_POLE_RADIUS = 1e-12
_MAX_CUTOFF = 200_000           # largest Euler-Maclaurin cutoff N tried
# A _Line's expansion truncation may use this share of the certification
# target, so it never decides an escalation.
_TAYLOR_SHARE = 1e-3
# Here every term n^-s with n >= 2 underflows, and with N^-s every
# correction term, so zeta = 1 in double precision; a _Ray evaluates a node
# further right here, before the correction factors s^2k/N^2k overflow.
_SIGMA_ONE = 1100.0


def _initial_cutoff(sigma_lo: float, sigma_hi: float, t: float,
                    abs_err: float) -> int:
    """A cutoff for every node sigma + it with sigma in [sigma_lo, sigma_hi]."""
    # Remainder ~ (2/(2pi)^(2K+2)) * (|s|+2K)^(2K+1) * N^(-sigma-2K-1); solve
    # (t_eff/N)^(2K+1) <= abs_err (2pi)^(2K+2)/16 for N at the largest |s|,
    # then one fixup pass for the N^-sigma factor at the smallest sigma.  The
    # escalation loop covers any shortfall.
    k2 = 2 * _CORRECTION_ORDER + 1
    t_eff = math.hypot(max(-sigma_lo, sigma_hi), t) + k2 + 1
    n = t_eff / _cutoff_ratio(abs_err)
    if sigma_lo < 0:
        # N^-sigma inflates the remainder; compensate once.
        n *= math.exp(-sigma_lo * math.log(max(n, 2.0)) / k2)
    return max(16, int(math.ceil(n)))


@lru_cache(maxsize=8)
def _cutoff_ratio(abs_err: float) -> float:
    """|s|/N at which the remainder meets abs_err, capped at 5."""
    k2 = 2 * _CORRECTION_ORDER + 1
    ratio = math.exp((math.log(abs_err / 16.0)
                      + (k2 + 1) * math.log(2 * math.pi)) / k2)
    return min(ratio, 5.0)


# log n for n = 1 .. _MAX_CUTOFF - 1; every pass takes its first N - 1.
_LOG_N = np.log(np.arange(1, _MAX_CUTOFF, dtype=np.float64))


class _Ray:
    """One horizontal line Im s = t and the phases n^-it of its terms.  Its
    nodes are the abscissae alpha.

    The phases are computed once and grown when a pass needs a larger
    cutoff, so an escalated pass reuses those of the first; the nodes
    alpha + it cost one real exponential n^-alpha per term and node and one
    real matrix product.  A node right of _SIGMA_ONE is evaluated at
    _SIGMA_ONE, where zeta is 1 to double precision.
    """

    __slots__ = ("t", "_phase")

    def __init__(self, t: float):
        self.t = t
        self._phase = _NO_PHASES            # rows (Re, Im) of n^-it

    def points(self, alphas: list[float]) -> list[complex]:
        return [complex(min(a, _SIGMA_ONE), self.t) for a in alphas]

    def first_cutoff(self, alphas: list[float], abs_err: float) -> int:
        return _initial_cutoff(min(min(alphas), _SIGMA_ONE),
                               min(max(alphas), _SIGMA_ONE), self.t, abs_err)

    def phases(self, n_cut: int) -> np.ndarray:
        """The rows of n^-it for n = 1 .. n_cut - 1."""
        have = len(self._phase)
        if have < n_cut - 1:
            arg = _LOG_N[have:n_cut - 1] * -self.t
            phase = np.empty((arg.size, 2))
            np.cos(arg, out=phase[:, 0])
            np.sin(arg, out=phase[:, 1])
            self._phase = (np.concatenate((self._phase, phase)) if have
                           else phase)
        return self._phase[:n_cut - 1]

    def partial_sums(self, n_cut: int, sigmas: list[float],
                     want_deriv: bool) -> tuple[list, list, list, list]:
        """The nodes s, sum_{n<N} n^-s and, with want_deriv, -sum log n n^-s
        at each node, exact up to rounding (last list: 0.0 per node)."""
        points = self.points(sigmas)
        logn = _LOG_N[:n_cut - 1]
        phase = self.phases(n_cut)
        amp = np.exp(np.multiply.outer([-s.real for s in points], logn))
        sums = (amp @ phase).view(np.complex128)[:, 0].tolist()
        dsums = None
        if want_deriv:
            dsums = (-((amp * logn) @ phase).view(np.complex128)[:, 0]
                     ).tolist()
        return points, sums, dsums, [0.0] * len(sums)


_NO_PHASES = np.empty((0, 2))
_MINUS_I_POW = np.array([1, -1j, -1, 1j])      # exact (-i)^k, k mod 4


class _Line:
    """One vertical line Re s = sigma, for batches of nodes close together
    on it.  Its nodes are the ordinates t.

    The line keeps the amplitudes n^-sigma and the rows (log n)^k/k!,
    computed once and grown with the cutoff.  A batch with centre c and
    offsets d_j = t_j - c takes its partial sums from one expansion,

        sum_n n^-(sigma+it_j) = sum_{k<K} (-i d_j)^k M_k,
        M_k = sum_n n^-(sigma+ic) (log n)^k/k!,

    so M is one real (K x N)(N x 2) product and the node values are one
    (nodes x K) product.  K is the smallest order whose truncation bound
    sum_n n^-sigma (|d| log N)^K/K! e^(|d| log N) is below
    _TAYLOR_SHARE of the certification target 0.25 abs_err; that bound is
    added to each node's remainder.
    """

    __slots__ = ("sigma", "_trunc_target", "_amp", "_rows")

    def __init__(self, sigma: float, abs_err: float):
        self.sigma = sigma
        self._trunc_target = _TAYLOR_SHARE * 0.25 * abs_err
        self._amp = np.empty(0)                 # n^-sigma
        self._rows = np.empty((0, 0))           # (log n)^k / k!

    def points(self, ts: list[float]) -> list[complex]:
        return [complex(self.sigma, t) for t in ts]

    def first_cutoff(self, ts: list[float], abs_err: float) -> int:
        return _initial_cutoff(self.sigma, self.sigma, max(map(abs, ts)),
                               abs_err)

    def _tables(self, n_cut: int, order: int) -> tuple[np.ndarray, np.ndarray]:
        """n^-sigma and the rows k < order, for n = 1 .. n_cut - 1."""
        have_k, have_n = self._rows.shape
        if have_k < order or have_n < n_cut - 1:
            # Headroom, so a sweep climbing in t regrows them rarely.
            n = min(max(n_cut - 1, have_n + have_n // 4), _LOG_N.size)
            k = max(order, have_k)
            logn = _LOG_N[:n]
            rows = np.empty((k, n))
            rows[0] = 1.0
            for j in range(1, k):
                np.multiply(rows[j - 1], logn, out=rows[j])
                rows[j] /= j
            self._amp = np.exp(logn * -self.sigma)
            self._rows = rows
        return self._amp[:n_cut - 1], self._rows[:order, :n_cut - 1]

    def partial_sums(self, n_cut: int, ts: list[float],
                     want_deriv: bool) -> tuple[list, list, None, list]:
        """The nodes s, sum_{n<N} n^-s at each node, and the truncation
        bound of each node's expansion.  The line serves values only, no
        zeta'."""
        if want_deriv:
            raise NotImplementedError("a _Line evaluates no derivative")
        t = np.array(ts)
        centre = 0.5 * (t.min() + t.max())
        d = t - centre
        x = np.abs(d) * math.log(n_cut)
        amp, _ = self._tables(n_cut, 1)
        mass = float(amp.sum())
        x_max = float(x.max())
        order, bound = 1, mass * math.exp(x_max) * x_max
        while bound > self._trunc_target:
            order += 1
            bound *= x_max / order
        amp, rows = self._tables(n_cut, order)
        arg = _LOG_N[:n_cut - 1] * -centre
        terms = np.empty((arg.size, 2))         # (Re, Im) of n^-(sigma+ic)
        np.multiply(amp, np.cos(arg), out=terms[:, 0])
        np.multiply(amp, np.sin(arg), out=terms[:, 1])
        # (-i)^k M_k, so that the node sums are real powers d^k times it.
        moments = ((rows @ terms).view(np.complex128)[:, 0]
                   * _MINUS_I_POW[np.arange(order) % 4])
        sums = (np.vander(d, order, increasing=True) @ moments).tolist()
        trunc = mass * x ** order / math.factorial(order) * np.exp(x)
        return self.points(ts), sums, None, trunc.tolist()


def _euler_maclaurin(line, n_cut: int, coords: list[float],
                     want_deriv: bool) -> tuple[list, list, list]:
    """One Euler-Maclaurin pass at the nodes of line (a _Ray or a _Line)
    with coordinates coords.

    Returns lists (zeta, zeta', remainder_bound), one entry per node, and
    refuses a cutoff above _MAX_CUTOFF.  The line supplies the partial
    sums of all its nodes at once; the N^-s and Bernoulli terms cost
    O(order) per node.  zeta' is only meaningful when want_deriv is set; the
    remainder bound covers the value (the derivative bound is within a
    factor log N + order of it, folded in here).
    """
    if n_cut > _MAX_CUTOFF:
        raise BudgetExceeded(
            f"Euler-Maclaurin cutoff {n_cut} exceeds {_MAX_CUTOFF} "
            f"at s={line.points(coords[:1])[0]}")
    order = _CORRECTION_ORDER
    points, sums, dsums, truncs = line.partial_sums(n_cut, coords,
                                                    want_deriv)
    if not want_deriv:
        dsums = sums        # unread; one loop serves both cases

    logN = math.log(n_cut)
    inv_N2 = 1.0 / (n_cut * n_cut)
    vals, ders, rems = [], [], []
    for s, partial, dpartial, trunc in zip(points, sums, dsums, truncs):
        npow_N = cmath.exp(-s * logN)       # N^-s
        sm1 = s - 1.0
        val = partial + n_cut * npow_N / sm1 + 0.5 * npow_N
        # Correction terms T_k = B_2k/(2k)! * u_k * N^-s, where u_1 = s/N
        # and u_k -> u_{k+1} multiplies by (s+2k-1)(s+2k)/N^2.
        u = s / n_cut
        for coef, k1, k2 in _STEPS:
            val += coef * u * npow_N
            u = u * (s + k1) * (s + k2) * inv_N2
        if want_deriv:
            der = (dpartial
                   - logN * n_cut * npow_N / sm1
                   - n_cut * npow_N / (sm1 * sm1) - 0.5 * logN * npow_N)
            w, dw = s / n_cut, 1.0 / n_cut      # u_k and d/ds u_k
            for coef, k1, k2 in _STEPS:
                der += coef * (dw - logN * w) * npow_N
                f1, f2 = s + k1, s + k2
                dw = (dw * f1 * f2 + w * (f1 + f2)) * inv_N2
                w = w * f1 * f2 * inv_N2
            ders.append(der)

        # First omitted term bounds the remainder.
        tail = _BFRAC[order] * u * npow_N
        denom = s.real + 2 * order + 1
        factor = abs(s + 2 * order + 1) / denom if denom > 0.1 \
            else 10.0 * abs(s)
        rem = abs(tail) * factor + trunc
        if want_deriv:
            # The differentiated terms pick up roughly a log N factor.
            rem *= logN + 2 * order + 2
        vals.append(val)
        rems.append(rem)
    return vals, ders if want_deriv else [0j] * len(vals), rems


def _zeta_em(line, coords, prec: EvalPrecision,
             want_deriv: bool) -> tuple[list, list, list]:
    """zeta (and zeta') at the nodes of line (a _Ray or a _Line) with
    coordinates coords, a float or an array; returns lists (value,
    derivative, remainder bound), one entry per node in the flattened
    order of coords.

    Every node is certified to 0.25 abs_err on its own.  The first pass
    covers all nodes at one cutoff chosen for their whole range; the nodes
    whose bound misses the target go on together at the escalated cutoff.
    """
    coords = (coords.ravel().tolist() if isinstance(coords, np.ndarray)
              else [float(coords)])
    n_cut = line.first_cutoff(coords, prec.abs_err)
    target = 0.25 * prec.abs_err
    val, der, rem = _euler_maclaurin(line, n_cut, coords, want_deriv)
    todo = [i for i, r in enumerate(rem) if r > target]
    while todo:
        n_cut = max(n_cut + 32, int(n_cut * 1.5))
        for i, v, d, r in zip(todo, *_euler_maclaurin(
                line, n_cut, [coords[i] for i in todo], want_deriv)):
            val[i], der[i], rem[i] = v, d, r
        todo = [i for i in todo if rem[i] > target]
    return val, der, rem


def _extended(abs_err: float, evaluate, x):
    """evaluate(mpmath, x) with x as an mpmath number, at the working
    precision abs_err asks for: the one software extended-precision path."""
    import mpmath as mp
    with mp.workdps(max(30, int(-math.log10(abs_err)) + 10)):
        return evaluate(mp, mp.mpmathify(x))


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
        return _extended(prec.abs_err, lambda mp, w: mp.zeta(w), z)
    (val,), _, _ = _zeta_em(_Ray(z.imag), z.real, prec, want_deriv=False)
    return val


def zeta_log_deriv(s, prec: EvalPrecision = DEFAULT_PRECISION, store=None):
    """zeta'(s)/zeta(s) for sigma >= -1, refusing points too close to the
    pole or to a zero.

    When a zero table is supplied, proximity to its zeros (and their
    reflections across the real axis) is checked; the guard radius is
    sqrt(prec.abs_err).
    """
    z = _point(s)
    _real(z.real, "sigma", -1.0)
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
        return _extended(prec.abs_err, lambda mp, w: mp.zeta(
            w, derivative=1) / mp.zeta(w), z)
    (val,), (der,), _ = _zeta_em(_Ray(z.imag), z.real, prec,
                                 want_deriv=True)
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
        return _extended(prec.abs_err, lambda mp, x: mp.siegelz(x), t)
    val = zeta(complex(0.5, t), prec)
    rotated = cmath.exp(1j * theta(t)) * val
    if abs(rotated.imag) > 50 * prec.abs_err * (1.0 + abs(rotated)):
        raise BudgetExceeded(
            f"hardy_z self-check failed at t={t}: Im={rotated.imag:.3e}")
    return rotated.real
