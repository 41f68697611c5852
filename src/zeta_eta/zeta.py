"""Riemann zeta at desk scale: Euler-Maclaurin evaluation, log-derivative,
Riemann-Siegel theta and the Hardy Z function.

The double-precision path is a direct Euler-Maclaurin sum

    zeta(s) = sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
              + sum_{k=1..K} B_2k/(2k)! * s(s+1)...(s+2k-2) * N^(-s-2k+1) + R,

with correction order 2K = 20 and Backlund's remainder bound
|R| <= |first omitted term| * |s+2K+1|/(sigma+2K+1) (Edwards, Riemann's Zeta
Function, 6.4).  The bound is A(s) N^-(2K+1+sigma) in closed form, so N is
solved from it: the smallest cutoff at which it meets the target at the
pass's worst node.  Precision requests below 5e-14 are delegated to software
extended precision (mpmath), which the double path is also tested against.

One kernel evaluates the sum at any set of nodes on one line, which
supplies their partial sums sum_{n<N} n^-s together.  A horizontal line
Im s = t (a _Ray) -- a branch path's, or a single point's -- keeps the
phases n^-it, and a batch of nodes alpha + it on it is one real matrix
product of the amplitudes n^-alpha with them; zeta' is the same product
with the amplitudes times -log n.  A vertical line Re s = sigma (a _Line)
-- the iterated eta sweep's, and that of _zeta_line, which evaluates zeta
at many ordinates of one line for the distribution sampler -- takes a
block of up to _BLOCK_NODES ascending ordinates per pass.  It cuts them
into groups as wide as the expansion's rounding allows, and each group
takes its partial sums from one Taylor expansion of the Dirichlet sum about
its centre (the local step of Odlyzko-Schoenhage), whose truncation bound
joins each node's remainder; a few groups' moments are one matrix
product.  The N^-s and Bernoulli terms and the remainder bound
(_em_correction) are written once.  A _Line's pass applies them to its
nodes as arrays, and so does a _Ray's batch of _ARRAY_NODES nodes or more
(a vertical integral's panels); a smaller batch (a single point, a branch
walk's grid, a few escalated nodes) takes them node by node on complex
numbers.  Every node is certified on its own: a node whose bound still
misses the target (none on a solved cutoff, up to rounding) goes on with
the others that miss at an escalated cutoff.
"""

from __future__ import annotations

import bisect
import cmath
import math
from fractions import Fraction

import numpy as np
from scipy.special import loggamma

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
# log |B_2K+2/(2K+2)!|, the first omitted term's coefficient, and the
# variance of j = 0 .. 2K+1: the constants of the cutoff's solve.
_LOG_TAIL_COEF = math.log(abs(_BFRAC[_CORRECTION_ORDER]))
_J_VARIANCE = ((2 * _CORRECTION_ORDER + 2) ** 2 - 1) / 12.0
_EXTENDED_THRESHOLD = 5e-14     # below this, switch to software precision
_POLE_RADIUS = 1e-12
_MAX_CUTOFF = 200_000           # largest Euler-Maclaurin cutoff N tried
_MIN_CUTOFF = 16                # smallest cutoff N a pass takes
# A _Line's expansion truncation may use this share of the certification
# target; the line's cutoff is solved for the rest.
_TAYLOR_SHARE = 1e-3
# A _Line group reaches x = |d| log N from its centre, and its expansion
# rounds off about mass (e^x - 1) u more than the direct sum, where
# mass = sum_{n<N} n^-sigma and u is the unit roundoff.  A group may reach
# the x where that is _TAYLOR_SHARE of the target too, and at least
# _TAYLOR_REACH, where it is at most 6.4 mass u: less than the rounding of
# the direct sum's own phases, mass |t| log N u, at every t >= 2.3 (N >= 16).
# The sweep of eta_iterated(0.5 + 2140i, 1) takes 3,450 groups of 20 nodes on
# average in 116 passes, and that at 2 + 1900i 1,172 of 46 in 83.
_TAYLOR_REACH = 2.0
_UNIT_ROUNDOFF = 2.0 ** -53
# Nodes a _Line pass takes at most: the iterated eta sweep evaluates zeta at
# a block of 32 panels' nodes, in the one call of its integrand that receives
# them, and _zeta_line its sorted ordinates, in blocks of this many.  The
# array Euler-Maclaurin correction costs a pass about 95 us plus 0.13 us a
# node, so a block of 672 nodes pays 0.28 us a node where the loop over
# complex numbers pays 6-7 us.
_BLOCK_NODES = 672
# Nodes from which a _Ray's batch runs on arrays (its correction here, its
# pin in branch.BranchPath); a smaller batch runs on Python lists and complex
# numbers.  On 2 cores at N = 400, t = 1234.5, _em_correction took 65-125 us
# as one array call at every size from 12 to 84 nodes (150-200 us at 672),
# and 4.5-7.8 us a node on complex numbers: 70-100 us at 16 nodes, 85-130 us
# at 21 and 210-270 us at 42.  So single points keep the loop, and a panel's
# 21 nodes take arrays.
_ARRAY_NODES = 16
# Groups of a pass whose moments one product takes: their phases n^-ic are
# (cutoff x 2 x _GROUP_CHUNK) doubles whatever the pass's size.  This keeps
# the sweep's peak memory at t = 2140 below that of one pass per panel
# (1.2 against 1.6 MB under tracemalloc), and ran no slower than more.
_GROUP_CHUNK = 4
# Here every term n^-s with n >= 2 underflows, and with N^-s every
# correction term, so zeta = 1 in double precision; a _Ray evaluates a node
# further right here, before the correction factors s^2k/N^2k overflow.
_SIGMA_ONE = 1100.0


def _initial_cutoff(sigma_lo: float, sigma_hi: float, t: float,
                    abs_err: float) -> int:
    """The smallest cutoff N >= _MIN_CUTOFF at which _em_correction's bound
    meets 0.25 abs_err at sigma_lo + it and at sigma_hi + it.

    On a ray the N the bound asks for is largest at one end of the
    abscissae wherever it exceeds _MIN_CUTOFF, so the two ends stand for
    every node between them.
    """
    # u_{K+1} N^-s = s(s+1)...(s+2K) N^(-s-2K), so the bound is
    # A N^-(2K+1+sigma) with A = |B_2K+2/(2K+2)!| prod_{j<=2K+1} |s+j|
    # / (sigma+2K+1): solved for N.  The product's log is bounded by
    # (K+1) log of the mean of |s+j|^2 (Jensen), one log where the exact
    # sum takes 2K+2: it gives at most 0.5% more N where N > _MIN_CUTOFF.
    log_target = math.log(0.25 * abs_err)
    n = _MIN_CUTOFF
    for sigma in {sigma_lo, sigma_hi}:
        power = sigma + 2 * _CORRECTION_ORDER + 1
        log_a = (_LOG_TAIL_COEF - math.log(power) + (_CORRECTION_ORDER + 1)
                 * math.log((sigma + _CORRECTION_ORDER + 0.5) ** 2
                            + _J_VARIANCE + t * t))
        n = max(n, math.ceil(math.exp((log_a - log_target) / power)))
    return n


# log n for n = 1 .. _MAX_CUTOFF - 1; every pass takes its first N - 1.
_LOG_N = np.log(np.arange(1, _MAX_CUTOFF, dtype=np.float64))


class _Ray:
    """One horizontal line Im s = t and the phases n^-it of its terms.  Its
    nodes are the abscissae alpha.

    The phases are kept, and rebuilt when a later pass on the ray needs a
    larger cutoff, so a pass reuses those of any pass before it at the same
    or a larger cutoff; the nodes alpha + it cost one real exponential
    n^-alpha per term and node and one real matrix product.  A node right of _SIGMA_ONE is
    evaluated, and its cutoff sized, at _SIGMA_ONE, where zeta is 1 to
    double precision.
    """

    __slots__ = ("t", "_phase")

    def __init__(self, t: float):
        self.t = t
        self._phase = np.empty((0, 2))      # rows (Re, Im) of n^-it

    def points(self, alphas) -> list[complex]:
        return [complex(min(a, _SIGMA_ONE), self.t) for a in alphas]

    def first_cutoff(self, alphas, abs_err: float) -> int:
        return _initial_cutoff(min(min(alphas), _SIGMA_ONE),
                               min(max(alphas), _SIGMA_ONE), self.t, abs_err)

    def phases(self, n_cut: int) -> np.ndarray:
        """The rows of n^-it for n = 1 .. n_cut - 1."""
        if len(self._phase) < n_cut - 1:
            arg = _LOG_N[:n_cut - 1] * -self.t
            self._phase = np.empty((arg.size, 2))
            np.cos(arg, out=self._phase[:, 0])
            np.sin(arg, out=self._phase[:, 1])
        return self._phase[:n_cut - 1]

    def partial_sums(self, n_cut: int, sigmas, want_deriv: bool) -> tuple:
        """The nodes s, sum_{n<N} n^-s and, with want_deriv, -sum log n n^-s
        at each node, exact up to rounding, and 0.0 per node: arrays for a
        batch of _ARRAY_NODES nodes or more, which takes the correction on
        arrays, and lists for a smaller one, which takes it node by node.

        A small batch builds its points as Python complex numbers: for one
        node at N = 400 that took 3.6-3.8 us against 4.8-6.4 us through
        arrays and tolist() (2 cores), about 1.5% of a single zeta() call."""
        logn = _LOG_N[:n_cut - 1]
        phase = self.phases(n_cut)
        if len(sigmas) >= _ARRAY_NODES:
            alphas = np.minimum(sigmas, _SIGMA_ONE)
            points = alphas + 1j * self.t
            amp = np.exp(np.multiply.outer(-alphas, logn))
        else:
            points = self.points(sigmas)
            amp = np.exp(np.multiply.outer([-s.real for s in points], logn))
        sums = (amp @ phase).view(np.complex128)[:, 0]
        dsums = None
        if want_deriv:
            dsums = -((amp * logn) @ phase).view(np.complex128)[:, 0]
        if isinstance(points, np.ndarray):
            return points, sums, dsums, np.zeros(points.size)
        return (points, sums.tolist(), None if dsums is None else
                dsums.tolist(), [0.0] * len(points))


_MINUS_I_POW = np.array([1, -1j, -1, 1j])      # exact (-i)^k, k mod 4


class _Line:
    """One vertical line Re s = sigma, for blocks of nodes on it.  Its nodes
    are the ordinates t, ascending in a block.  The iterated eta sweep
    evaluates its panels on one, a block of panels at a time, and
    _zeta_line the distribution sampler's ordinates.

    The line keeps the rows n^-sigma (log n)^k/k!, computed once and grown
    with the cutoff.  A pass cuts its ordinates greedily into groups no
    wider than 2 reach / log N; a group with centre c and offsets
    d_j = t_j - c takes its partial sums from one expansion,

        sum_n n^-(sigma+it_j) = sum_{k<K} (-i d_j)^k M_k,
        M_k = sum_n n^-(sigma+ic) (log n)^k/k!,

    so the moments of _GROUP_CHUNK groups at a time are one real product of
    the (K x N) rows with the (N x 2 groups) phases n^-ic of their centres,
    and their nodes' sums one product of the powers d_j^k with them.  K is
    the smallest order whose truncation bound
    sum_n n^-sigma (|d| log N)^K/K! e^(|d| log N) is below _TAYLOR_SHARE of
    the certification target 0.25 abs_err at the pass's widest reach; each
    node's own bound is added to its remainder.
    """

    __slots__ = ("sigma", "_trunc_target", "_amp", "_rows")

    def __init__(self, sigma: float, abs_err: float):
        self.sigma = sigma
        self._trunc_target = _TAYLOR_SHARE * 0.25 * abs_err
        self._amp = np.empty(0)                 # n^-sigma
        self._rows = np.empty((0, 0))           # n^-sigma (log n)^k / k!

    def points(self, ts) -> np.ndarray:
        return self.sigma + 1j * np.asarray(ts, dtype=np.float64)

    def first_cutoff(self, ts, abs_err: float) -> int:
        # The bound grows with |t|; the expansion's truncation keeps
        # _TAYLOR_SHARE of the target.
        return _initial_cutoff(self.sigma, self.sigma,
                               float(np.abs(ts).max()),
                               (1.0 - _TAYLOR_SHARE) * abs_err)

    def reach(self, mass: float) -> float:
        """The largest x = |d| log N a group may reach at a cutoff where
        sum_{n<N} n^-sigma is mass."""
        return max(_TAYLOR_REACH, math.log1p(
            self._trunc_target / (mass * _UNIT_ROUNDOFF)))

    def _tables(self, n_cut: int, order: int) -> tuple[np.ndarray, np.ndarray]:
        """n^-sigma and the rows k < order, for n = 1 .. n_cut - 1."""
        have_k, have_n = self._rows.shape
        if have_k < order or have_n < n_cut - 1:
            n = have_n
            if have_n < n_cut - 1:
                # Headroom, so a sweep climbing in t regrows them rarely.
                n = min(max(n_cut - 1, have_n + have_n // 4), _LOG_N.size)
            k = max(order, have_k)
            self._rows = None           # freed before the larger one is built
            logn = _LOG_N[:n]
            self._amp = np.exp(logn * -self.sigma)
            rows = np.empty((k, n))
            rows[0] = self._amp
            for j in range(1, k):
                np.multiply(rows[j - 1], logn, out=rows[j])
                rows[j] /= j
            self._rows = rows
        return self._amp[:n_cut - 1], self._rows[:order, :n_cut - 1]

    @staticmethod
    def groups(ts: list[float], width: float) -> list[int]:
        """Where each group of the ascending ordinates ts starts: cut
        greedily, each group no wider than width."""
        starts = [0]
        while (nxt := bisect.bisect_right(ts, ts[starts[-1]] + width,
                                          starts[-1])) < len(ts):
            starts.append(nxt)
        return starts

    def partial_sums(self, n_cut: int, ts, want_deriv: bool
                     ) -> tuple[np.ndarray, np.ndarray, None, np.ndarray]:
        """The nodes s, sum_{n<N} n^-s at each node, and the truncation
        bound of each node's expansion, as arrays.  The line serves values
        only, no zeta'."""
        if want_deriv:
            raise NotImplementedError("a _Line evaluates no derivative")
        t = np.asarray(ts, dtype=np.float64)
        logn = _LOG_N[:n_cut - 1]
        mass = float(self._tables(n_cut, 1)[0].sum())   # sum n^-sigma
        log_cut = math.log(n_cut)
        # Group g holds the nodes ends[g] .. ends[g + 1] - 1.
        ends = np.append(self.groups(t.tolist(),
                                     2.0 * self.reach(mass) / log_cut), t.size)
        group = np.repeat(np.arange(ends.size - 1), np.diff(ends))
        centre = 0.5 * (t[ends[:-1]] + t[ends[1:] - 1])
        d = t - centre[group]
        x = np.abs(d) * log_cut
        x_max = float(x.max())
        order, bound = 1, mass * math.exp(x_max) * x_max
        while bound > self._trunc_target:
            order += 1
            bound *= x_max / order
        _, rows = self._tables(n_cut, order)
        minus_i_pow = _MINUS_I_POW[np.arange(order) % 4, None]
        sums = np.empty(t.size, dtype=np.complex128)
        for g in range(0, centre.size, _GROUP_CHUNK):
            c = centre[g:g + _GROUP_CHUNK]
            nodes = slice(ends[g], ends[g + c.size])
            # (Re, Im) of n^-ic, a column pair per group centre c.
            phases = np.empty((logn.size, c.size, 2))
            arg = np.multiply.outer(logn, -c, out=phases[..., 1])
            np.cos(arg, out=phases[..., 0])
            np.sin(arg, out=phases[..., 1])
            # (-i)^k M_k, so that the node sums are real powers d^k times
            # it; every node against every group's moments, as real
            # pairs, and each node keeps its own group's sum.
            moments = (rows @ phases.reshape(logn.size, -1)).view(
                np.complex128) * minus_i_pow
            part = (np.vander(d[nodes], order, increasing=True)
                    @ moments.view(np.float64)).view(np.complex128)
            sums[nodes] = part[np.arange(part.shape[0]), group[nodes] - g]
        trunc = mass * x ** order / math.factorial(order) * np.exp(x)
        return self.points(t), sums, None, trunc


def _em_correction(n_cut: int, logN: float, s, partial, trunc,
                   dpartial=None):
    """zeta at the nodes s from their partial sums sum_{n<N} n^-s, at the
    cutoff N = n_cut with logN = log N: the N^-s and Bernoulli terms and
    the remainder bound, on one complex node (a small _Ray batch's) or on
    arrays of nodes (a _Line pass, or a _Ray batch of _ARRAY_NODES or more),
    with zeta' in either form when dpartial = -sum log n n^-s is given.
    Returns (zeta, zeta' or 0, bound); the bound covers the value (the
    derivative bound is within a factor log N + order of it, folded in
    here) plus the partial sums' own trunc.
    """
    exp = cmath.exp if type(s) is complex else np.exp
    order = _CORRECTION_ORDER
    inv_N2 = 1.0 / (n_cut * n_cut)
    npow_N = exp(-s * logN)             # N^-s
    sm1 = s - 1.0
    val = partial + n_cut * npow_N / sm1 + 0.5 * npow_N
    # Correction terms T_k = B_2k/(2k)! * u_k * N^-s, where u_1 = s/N
    # and u_k -> u_{k+1} multiplies by (s+2k-1)(s+2k)/N^2.
    u = s / n_cut
    for coef, k1, k2 in _STEPS:
        val += coef * u * npow_N
        u = u * (s + k1) * (s + k2) * inv_N2
    der = 0j
    if dpartial is not None:
        der = (dpartial
               - logN * n_cut * npow_N / sm1
               - n_cut * npow_N / (sm1 * sm1) - 0.5 * logN * npow_N)
        w, dw = s / n_cut, 1.0 / n_cut      # u_k and d/ds u_k
        for coef, k1, k2 in _STEPS:
            der += coef * (dw - logN * w) * npow_N
            f1, f2 = s + k1, s + k2
            dw = (dw * f1 * f2 + w * (f1 + f2)) * inv_N2
            w = w * f1 * f2 * inv_N2

    # First omitted term bounds the remainder.
    tail = _BFRAC[order] * u * npow_N
    # sigma >= -1 at every entry, so the denominator is at least 20.
    rem = abs(tail) * (abs(s + 2 * order + 1)
                       / (s.real + 2 * order + 1)) + trunc
    if dpartial is not None:
        # The differentiated terms pick up roughly a log N factor.
        rem *= logN + 2 * order + 2
    return val, der, rem


def _euler_maclaurin(line, n_cut: int, coords,
                     want_deriv: bool) -> tuple[list, list, list]:
    """One Euler-Maclaurin pass at the nodes of line (a _Ray or a _Line)
    with coordinates coords (an array or a list).

    Returns lists (zeta, zeta', remainder_bound), one entry per node, and
    refuses a cutoff above _MAX_CUTOFF.  The line supplies the partial sums
    of all its nodes at once, as arrays for a _Line's pass and a _Ray's
    batch of _ARRAY_NODES nodes or more, and then the correction runs once,
    on arrays; a _Ray's smaller batch comes as lists and takes it node by
    node on complex numbers.  zeta' is only meaningful when want_deriv is
    set.
    """
    if n_cut > _MAX_CUTOFF:
        raise BudgetExceeded(
            f"Euler-Maclaurin cutoff {n_cut} exceeds {_MAX_CUTOFF} "
            f"at s={line.points(coords[:1])[0]}")
    points, sums, dsums, truncs = line.partial_sums(n_cut, coords,
                                                    want_deriv)
    logN = math.log(n_cut)
    if isinstance(points, np.ndarray):
        val, der, rem = _em_correction(n_cut, logN, points, sums, truncs,
                                       dsums)
        return (val.tolist(), der.tolist() if want_deriv else
                [0j] * val.size, rem.tolist())
    vals, ders, rems = [], [], []
    for node in zip(points, sums, truncs,
                    dsums if want_deriv else [None] * len(sums)):
        val, der, rem = _em_correction(n_cut, logN, *node)
        vals.append(val)
        ders.append(der)
        rems.append(rem)
    return vals, ders, rems


def _zeta_em(line, coords, prec: EvalPrecision,
             want_deriv: bool) -> tuple[list, list, list]:
    """zeta (and zeta') at the nodes of line (a _Ray or a _Line) with
    coordinates coords, a float or an array; returns lists (value,
    derivative, remainder bound), one entry per node in the flattened
    order of coords.

    Every node is certified to 0.25 abs_err on its own.  The first pass
    covers all nodes at the cutoff solved from the bound for the worst of
    them; the nodes whose bound still misses the target go on together at
    the escalated cutoff.
    """
    if not isinstance(coords, np.ndarray):
        coords = [float(coords)]
    elif coords.size < _ARRAY_NODES:        # a small batch runs on lists
        coords = coords.ravel().tolist()
    else:
        coords = coords.ravel()
    n_cut = line.first_cutoff(coords, prec.abs_err)
    if want_deriv:
        # zeta''s bound is the value's times log N + 2K + 2: two fixed-point
        # steps settle N.
        for _ in range(2):
            n_cut = line.first_cutoff(coords, prec.abs_err / (
                math.log(n_cut) + 2 * _CORRECTION_ORDER + 2))
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


def _zeta_line(sigma: float, ts,
               prec: EvalPrecision) -> tuple[np.ndarray, np.ndarray]:
    """zeta(sigma + it) and its remainder bound at each ordinate t of ts,
    in their order.

    An ordinate that zeta sends to extended precision goes there, its bound
    the target 0.25 abs_err; that rule grows with |t|, so it is asked once,
    at the largest |t|, and ordinate by ordinate only when that one goes.
    The others are sorted and go through _zeta_em on one _Line in blocks of
    _BLOCK_NODES, each block one pass (and one more for the nodes that miss
    the target), which groups them.
    """
    abs_err = prec.abs_err
    ts = np.asarray(ts, dtype=np.float64)
    order = np.argsort(ts, kind="stable")
    extended = np.zeros(ts.size, dtype=bool)
    if _needs_extended(complex(sigma, np.abs(ts).max(initial=0.0)), abs_err):
        extended = np.array([_needs_extended(complex(sigma, t), abs_err)
                             for t in ts[order]], dtype=bool)
    # Objects only where extended values must be kept as mpmath gives them.
    vals = np.empty(ts.size, dtype=object if extended.any() else complex)
    rems = np.full(ts.size, 0.25 * abs_err)
    for i in order[extended]:
        vals[i] = _zeta_extended(complex(sigma, ts[i]), abs_err)
    order = order[~extended]
    line = _Line(sigma, abs_err)
    for lo in range(0, order.size, _BLOCK_NODES):
        block = order[lo:lo + _BLOCK_NODES]
        vals[block], _, rems[block] = _zeta_em(line, ts[block], prec, False)
    return vals, rems


def _zeta_extended(z: complex, abs_err: float):
    """zeta(z) through the extended-precision path."""
    return _extended(abs_err, lambda mp, w: mp.zeta(w), z)


def _extended(abs_err: float, evaluate, x, extra: int = 0):
    """evaluate(mpmath, x) with x as an mpmath number, at the working
    precision abs_err asks for: the one software extended-precision path.

    extra adds that many decimal digits, for a formula that loses them to
    cancellation (kernels.e_star beyond its double-precision radius)."""
    import mpmath as mp
    with mp.workdps(max(30, int(-math.log10(abs_err)) + 10) + extra):
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
        return _zeta_extended(z, prec.abs_err)
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
    if store is not None:
        dist, rho = store.nearest_zero(z)
        if dist <= guard:
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

def log_gamma(z) -> complex:
    """Principal log Gamma on Re z > 0 (scipy.special.loggamma): continuous
    there, so Im log Gamma(1/4 + it/2) is theta's unwrapped phase."""
    w = _point(z, "z")
    if w.real <= 0:
        raise ValidationError(f"log_gamma requires Re z > 0, got z={z!r}")
    return complex(loggamma(w))


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
