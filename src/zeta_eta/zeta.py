"""Riemann zeta at desk scale: Euler-Maclaurin evaluation, Riemann-Siegel
theta and the Hardy Z function; zeta'/zeta in extended precision.

The double-precision path is a direct Euler-Maclaurin sum

    zeta(s) = sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
              + sum_{k=1..K} B_2k/(2k)! * s(s+1)...(s+2k-2) * N^(-s-2k+1) + R,

with correction order 2K = 20 and Backlund's remainder bound
|R| <= |first omitted term| * |s+2K+1|/(sigma+2K+1) (Edwards, Riemann's Zeta
Function, 6.4).  The bound is A(s) N^-(2K+1+sigma) in closed form, so N is
solved from it: the smallest cutoff at which it meets the target at the
pass's worst node.  A pass answers each node's value and that bound.
Precision requests below 5e-14 are delegated to software extended precision
(mpmath), which the double path is also tested against; every zeta'/zeta
goes there too.

One kernel evaluates the sum at any set of nodes on one line, which
supplies their partial sums sum_{n<N} n^-s together.  On a horizontal
line Im s = t (a _Ray) -- a branch path's, or a single point's -- a pass
forms the phases n^-it of its cutoff, and its batch of nodes alpha + it is
one real matrix product of the amplitudes n^-alpha with them, values
only (zeta'/zeta is mpmath's).  A _Ray may hold several
heights at once, the same abscissae on each (the vertical eta route's
batch of heights): the amplitudes and the correction are formed once for
all of them, and each height takes its own cutoff, phases and product, so
its values have the bits of its own pass.  A vertical line Re s =
sigma (a _Line) -- the iterated eta sweep's, and that of _zeta_line, which
evaluates zeta at many ordinates of one line for the distribution sampler
-- takes a block of up to _BLOCK_NODES ascending ordinates per pass.  It
cuts them into groups as wide as the expansion's rounding allows, and each
group takes its partial sums from one Taylor expansion of the Dirichlet sum
about its centre (the local step of Odlyzko-Schoenhage), whose truncation
bound joins each node's remainder; a few groups' moments are one matrix
product.  The line hands over N^-s with the partial sums, and takes the
factor its nodes share once: a ray's one phase N^-it, a vertical line's one
amplitude N^-sigma, one libm call per pass where every node would pay one.
The N^-s and Bernoulli terms and the remainder bound (_em_correction) are
written once.  A _Line's pass applies the correction to its nodes as
arrays, and so does a _Ray's batch of _ARRAY_NODES nodes or more, or on
several heights (a vertical integral's panels), and such an array pass
answers in arrays, its escalated nodes too; a smaller batch on one height
(a single point with the grid nodes its branch walk adds) takes it node by
node on complex numbers and answers in lists.  _zeta_em makes that choice
once, handing the line its coordinates as an array or a list, and the
line's partial sums follow it.
Every node is certified on its own: a node whose bound still misses the
target (none on a solved cutoff, up to rounding) goes on with the others
that miss at an escalated cutoff.

Every phase n^-it in the library is formed by one function, _phases, as
the cos and sin of t log n rounded to a double: a ray's, a _Line group
centre's, the correction's N^-it, and those of eta.prime_power_poly, the
one evaluator of the prime-power polynomials (eta's vertical tail
included).  The rounding of that argument, an error of about u |t| log n
in each phase (u the unit roundoff), is what limits the double path at
large height: zeta goes to extended precision where _needs_extended
holds, and _check_doubles refuses such a target to the ray walks and the
iterated sweep, which evaluate in doubles.
"""

from __future__ import annotations

import bisect
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
# The sweep of eta_iterated(0.5 + 2140i, 1) takes 2,981 groups of 13 nodes on
# average in 59 passes, and that at 2 + 1900i 1,072 of 31 in 52.
_TAYLOR_REACH = 2.0
_UNIT_ROUNDOFF = 2.0 ** -53
# Nodes a _Line pass takes at most: the iterated eta sweep evaluates zeta at
# a block of 32 panels' nodes, in the one call of its integrand that receives
# them, and _zeta_line its sorted ordinates, in blocks of this many.  The
# array Euler-Maclaurin correction costs a pass about 95 us plus 0.13 us a
# node, so a block of 672 nodes pays 0.28 us a node where the loop over
# complex numbers pays 6-7 us.
_BLOCK_NODES = 672
# Nodes from which a _Ray's batch runs its correction on arrays; a smaller
# batch runs on Python lists and complex numbers.  On 2 cores at N = 400, t = 1234.5, _em_correction took 65-125 us
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
# Heights above this are refused.  Beyond the double path's reach every
# height goes to mpmath, whose Riemann-Siegel sum grows in time and memory
# about as sqrt(t).  On 2 cores zeta(0.5 + it) took 0.38 s and peaked at
# 62 MB at t = 1e10 (56 MB after the imports), 1.5 s and 88 MB at 1e12,
# 20 s and 319 MB at 1e14, and ran out of a 2 GB address space at 1e20;
# at 1e300 mpmath overflows.
_MAX_HEIGHT = 1e10
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


def _phases(log_n, t):
    """n^-it as cos + i sin of log_n * -t: the one place the library forms
    a phase.  log_n and t are floats or arrays that broadcast (a column of
    log n against a row of t gives every pair); two floats give a complex
    (cmath.rect takes libm's cos and sin), anything else a complex array,
    whose float64 view is its (Re, Im) pairs."""
    arg = log_n * -t
    if isinstance(arg, float):
        return cmath.rect(1.0, arg)
    phase = np.empty(arg.shape, dtype=np.complex128)
    np.cos(arg, out=phase.real)
    np.sin(arg, out=phase.imag)
    return phase


class _Ray:
    """One horizontal line Im s = t, or one per height when t is an array
    of heights.  Its nodes are the abscissae alpha, the same on every
    height.

    A pass forms the phases n^-it of its own cutoff, and its nodes alpha +
    it cost one real exponential n^-alpha per term and node and one real
    matrix product with them.  On several heights the amplitudes are formed
    once, for the largest cutoff, and each height keeps its own cutoff and
    takes its own product with their first columns: one product over every
    height would pass numpy's BLAS threshold for threads, whose waiting
    workers took the batch of dist's 100 heights from 19 to 51 ms on 2
    cores, and it changes each height's sums in the last bits.  A node
    right of _SIGMA_ONE is evaluated, and its cutoff sized, at _SIGMA_ONE,
    where zeta is 1 to double precision.
    """

    __slots__ = ("t",)

    def __init__(self, t):
        self.t = t

    def points(self, alphas):
        if isinstance(self.t, np.ndarray):
            return np.minimum(alphas, _SIGMA_ONE)[:, None] + 1j * self.t
        return [complex(min(a, _SIGMA_ONE), self.t) for a in alphas]

    def first_cutoff(self, alphas, abs_err: float):
        """The cutoff _initial_cutoff solves for the abscissae alphas: an
        int, or on several heights an array of each height's own.  An
        array's ends are its own min and max, a list's the builtins'."""
        ends = ((alphas.min(), alphas.max()) if isinstance(alphas, np.ndarray)
                else (min(alphas), max(alphas)))
        lo, hi = (min(x, _SIGMA_ONE) for x in ends)
        if isinstance(self.t, np.ndarray):
            return np.array([_initial_cutoff(lo, hi, t, abs_err)
                             for t in self.t.tolist()])
        return _initial_cutoff(lo, hi, self.t, abs_err)

    def partial_sums(self, n_cut, sigmas) -> tuple:
        """The nodes s, sum_{n<N} n^-s at each node, exact up to rounding,
        0.0 per node, and N^-s, in the form _zeta_em chose for the abscissae
        sigmas: lists for a list, which takes the correction node by node,
        and arrays for an array, which takes it on arrays (a column per
        height on several heights, n_cut an array of their cutoffs).  A
        height's column has the bits of a pass on its own ray.

        N^-s is the height's one phase N^-it times each node's amplitude
        N^-alpha, libm's exp at every node: numpy's float exp is off by an
        ulp at about 4% of arguments, and its complex exp of a real is
        libm's, so a node's N^-s has the same bits in either batch.  A small
        batch builds its points as Python complex numbers: for one node at
        N = 400 that took 3.6-3.8 us against 4.8-6.4 us through arrays and
        tolist() (2 cores), about 1.5% of a single zeta() call."""
        if isinstance(sigmas, list):
            logn = _LOG_N[:n_cut - 1]
            phase = _phases(logn, self.t).view(np.float64).reshape(-1, 2)
            logN = math.log(n_cut)
            phase_N = _phases(logN, self.t)
            points = self.points(sigmas)
            amp = np.exp(np.multiply.outer([-s.real for s in points], logn))
            sums = (amp @ phase).view(np.complex128)[:, 0].tolist()
            return (points, sums, [0.0] * len(points),
                    [math.exp(-s.real * logN) * phase_N for s in points])
        ts = np.atleast_1d(self.t).tolist()
        cuts = np.atleast_1d(n_cut).tolist()
        alphas = np.minimum(sigmas, _SIGMA_ONE)
        logn = _LOG_N[:max(cuts) - 1]
        amp = np.exp(np.multiply.outer(-alphas, logn))
        sums = np.empty((alphas.size, len(ts)), dtype=np.complex128)
        for j, (n, t) in enumerate(zip(cuts, ts)):
            phase = _phases(logn[:n - 1], t).view(np.float64).reshape(-1, 2)
            sums[:, j] = (amp[:, :n - 1] @ phase).view(np.complex128)[:, 0]
        log_cut = [math.log(n) for n in cuts]
        phase_N = np.array([_phases(x, t) for x, t in zip(log_cut, ts)])
        npow_N = np.exp(np.multiply.outer(alphas, np.negative(log_cut))
                        + 0j).real * phase_N
        points = alphas[:, None] + 1j * np.array(ts)
        if not isinstance(self.t, np.ndarray):
            points, sums, npow_N = points[:, 0], sums[:, 0], npow_N[:, 0]
        return points, sums, np.zeros(points.shape), npow_N


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

    __slots__ = ("sigma", "_trunc_target", "_rows")

    def __init__(self, sigma: float, abs_err: float):
        self.sigma = sigma
        self._trunc_target = _TAYLOR_SHARE * 0.25 * abs_err
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

    def _tables(self, n_cut: int, order: int) -> np.ndarray:
        """The rows k < order, for n = 1 .. n_cut - 1; row 0 is n^-sigma."""
        have_k, have_n = self._rows.shape
        if have_k < order or have_n < n_cut - 1:
            n = have_n
            if have_n < n_cut - 1:
                # Headroom, so a sweep climbing in t regrows them rarely.
                n = min(max(n_cut - 1, have_n + have_n // 4), _LOG_N.size)
            k = max(order, have_k)
            self._rows = None           # freed before the larger one is built
            logn = _LOG_N[:n]
            rows = np.empty((k, n))
            np.exp(logn * -self.sigma, out=rows[0])
            for j in range(1, k):
                np.multiply(rows[j - 1], logn, out=rows[j])
                rows[j] /= j
            self._rows = rows
        return self._rows[:order, :n_cut - 1]

    @staticmethod
    def groups(ts: list[float], width: float) -> list[int]:
        """Where each group of the ascending ordinates ts starts: cut
        greedily, each group no wider than width."""
        starts = [0]
        while (nxt := bisect.bisect_right(ts, ts[starts[-1]] + width,
                                          starts[-1])) < len(ts):
            starts.append(nxt)
        return starts

    def partial_sums(self, n_cut: int, ts) -> tuple[
            np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The nodes s, sum_{n<N} n^-s at each node, the truncation bound of
        each node's expansion, and N^-s, the line's one amplitude N^-sigma
        (libm's exp, as on a ray) times each node's phase N^-it, as arrays."""
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
        rows = self._tables(n_cut, order)
        minus_i_pow = _MINUS_I_POW[np.arange(order) % 4, None]
        sums = np.empty(t.size, dtype=np.complex128)
        for g in range(0, centre.size, _GROUP_CHUNK):
            c = centre[g:g + _GROUP_CHUNK]
            nodes = slice(ends[g], ends[g + c.size])
            # (-i)^k M_k, so that the node sums are real powers d^k times
            # it, from the (Re, Im) pairs of n^-ic, a column pair per group
            # centre c; every node against every group's moments, as real
            # pairs, and each node keeps its own group's sum.
            moments = (rows @ _phases(logn[:, None], c).view(
                np.float64)).view(np.complex128) * minus_i_pow
            part = (np.vander(d[nodes], order, increasing=True)
                    @ moments.view(np.float64)).view(np.complex128)
            sums[nodes] = part[np.arange(part.shape[0]), group[nodes] - g]
        trunc = mass * x ** order / math.factorial(order) * np.exp(x)
        return (self.points(t), sums, trunc,
                math.exp(self.sigma * -log_cut) * _phases(log_cut, t))


def _em_correction(n_cut: int, s, npow_N, partial, trunc):
    """zeta at the nodes s from their partial sums sum_{n<N} n^-s and N^-s
    (npow_N), at the cutoff N = n_cut: the N^-s and Bernoulli terms and the
    remainder bound, on one complex node (a small _Ray batch's) or on
    arrays of nodes (a _Line pass, or a _Ray batch of _ARRAY_NODES or more).
    Returns (zeta, bound); the bound is Backlund's for the correction plus
    the partial sums' own trunc.
    """
    order = _CORRECTION_ORDER
    inv_N2 = 1.0 / (n_cut * n_cut)
    val = partial + n_cut * npow_N / (s - 1.0) + 0.5 * npow_N
    # Correction terms T_k = B_2k/(2k)! * u_k * N^-s, where u_1 = s/N
    # and u_k -> u_{k+1} multiplies by (s+2k-1)(s+2k)/N^2.
    u = s / n_cut
    for coef, k1, k2 in _STEPS:
        val += coef * u * npow_N
        u = u * (s + k1) * (s + k2) * inv_N2

    # First omitted term bounds the remainder.
    tail = _BFRAC[order] * u * npow_N
    # sigma >= -1 at every entry, so the denominator is at least 20.
    rem = abs(tail) * (abs(s + 2 * order + 1)
                       / (s.real + 2 * order + 1)) + trunc
    return val, rem


def _euler_maclaurin(line, n_cut: int, coords) -> tuple:
    """One Euler-Maclaurin pass at the nodes of line (a _Ray or a _Line)
    with coordinates coords (an array or a list).

    Returns (zeta, remainder_bound), one entry per node, and refuses a
    cutoff above _MAX_CUTOFF, naming the point whose cutoff it is.  The
    line supplies the partial sums of all its nodes at once, and N^-s with
    the factor its nodes share taken once (N^-it on a ray, N^-sigma on a
    vertical line).  Coordinates that come as an array (a _Line's pass, a
    _Ray's batch of _ARRAY_NODES nodes or more or on several heights) take
    the correction once, on arrays, and answer in two arrays.  A _Ray's
    smaller batch comes as a list, takes it node by node on complex
    numbers, and answers in two lists.
    """
    top = n_cut.max() if isinstance(n_cut, np.ndarray) else n_cut
    if top > _MAX_CUTOFF:
        s = complex(np.ravel(line.points(coords[:1]))[np.argmax(n_cut)])
        raise BudgetExceeded(
            f"Euler-Maclaurin cutoff {top} exceeds {_MAX_CUTOFF} at s={s}")
    points, sums, truncs, npows = line.partial_sums(n_cut, coords)
    if isinstance(points, np.ndarray):
        return _em_correction(n_cut, points, npows, sums, truncs)
    vals, rems = [], []
    for node in zip(points, npows, sums, truncs):
        val, rem = _em_correction(n_cut, *node)
        vals.append(val)
        rems.append(rem)
    return vals, rems


def _escalated(n_cut: int) -> int:
    """The next cutoff for the nodes a pass left uncertified."""
    return max(n_cut + 32, int(n_cut * 1.5))


def _escalate(line, n_cut: int, coords: np.ndarray, val: np.ndarray,
              rem: np.ndarray, target: float) -> None:
    """Take the nodes of an array pass whose bound misses target on at
    escalated cutoffs, together, until each meets it; val and rem are
    updated in place."""
    todo = np.flatnonzero(rem > target)
    while todo.size:
        n_cut = _escalated(n_cut)
        val[todo], rem[todo] = _euler_maclaurin(line, n_cut, coords[todo])
        todo = todo[rem[todo] > target]


def _zeta_em(line, coords, prec: EvalPrecision) -> tuple:
    """zeta at the nodes of line (a _Ray or a _Line) with coordinates
    coords, a float (on a _Ray) or an array; returns (value, remainder
    bound), one entry per node in the flattened order of coords: two lists
    for a float and a _Ray batch of fewer than _ARRAY_NODES nodes, and for
    any other pass two arrays, on a _Ray over several heights with a column
    per height.

    Every node is certified to 0.25 abs_err on its own.  The first pass
    covers all nodes at the cutoff solved from the bound for the worst of
    them, each height's own on several heights; the nodes whose bound
    still misses the target go on together at the escalated cutoff, picked
    by index arrays in an array pass, and a height's column on its own ray.
    """
    if not isinstance(coords, np.ndarray):
        coords = [float(coords)]
    elif (isinstance(line, _Ray) and coords.size < _ARRAY_NODES
          and not isinstance(line.t, np.ndarray)):
        coords = coords.ravel().tolist()    # a small _Ray batch runs on lists
    else:
        coords = coords.ravel()
    n_cut = line.first_cutoff(coords, prec.abs_err)
    target = 0.25 * prec.abs_err
    val, rem = _euler_maclaurin(line, n_cut, coords)
    if isinstance(rem, np.ndarray):
        if rem.ndim == 1:
            _escalate(line, n_cut, coords, val, rem, target)
        else:
            for j in np.flatnonzero((rem > target).any(axis=0)).tolist():
                _escalate(_Ray(float(line.t[j])), int(n_cut[j]), coords,
                          val[:, j], rem[:, j], target)
        return val, rem
    todo = [i for i, r in enumerate(rem) if r > target]
    while todo:
        n_cut = _escalated(n_cut)
        for i, v, r in zip(todo, *_euler_maclaurin(
                line, n_cut, [coords[i] for i in todo])):
            val[i], rem[i] = v, r
        todo = [i for i in todo if rem[i] > target]
    return val, rem


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
        vals[block], rems[block] = _zeta_em(line, ts[block], prec)
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


def _check_height(t: float) -> None:
    """Refuse a height above _MAX_HEIGHT."""
    if abs(t) > _MAX_HEIGHT:
        raise ValidationError(
            f"|t| <= {_MAX_HEIGHT:g} required, got t={t!r}")


def _check_doubles(t: float, abs_err: float) -> None:
    """Refuse abs_err at a height t > 0 where zeta goes to extended
    precision: the ray walks and the iterated sweep evaluate in doubles,
    whose error there exceeds the estimates they report."""
    if t > 0.0 and _needs_extended(complex(0.0, t), abs_err):
        raise ValidationError(f"abs_err={abs_err:g} at t={t!r} needs "
                              f"extended precision, which a walk lacks")


def _needs_extended(z: complex, abs_err: float) -> bool:
    # The phases' rounded argument t log n (_phases) costs about |t| * eps
    # per term, so very tight requests at large height must go to software
    # precision.
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
    _check_height(z.imag)
    if _needs_extended(z, prec.abs_err):
        return _zeta_extended(z, prec.abs_err)
    (val,), _ = _zeta_em(_Ray(z.imag), z.real, prec)
    return val


def zeta_log_deriv(s, prec: EvalPrecision = DEFAULT_PRECISION, store=None):
    """zeta'(s)/zeta(s) for sigma >= -1, refusing points too close to the
    pole or to a zero.

    When a zero table is supplied, proximity to its zeros (and their
    reflections across the real axis) is checked; the guard radius is
    sqrt(prec.abs_err).  Every value comes from the extended-precision
    path, at 30 digits or more: milliseconds a call.  The answer is a
    complex double where zeta's would be, and mpmath's complex where zeta
    goes to extended precision.
    """
    z = _point(s)
    _real(z.real, "sigma", -1.0)
    _check_height(z.imag)
    guard = math.sqrt(prec.abs_err)
    if abs(z - 1.0) <= guard:
        raise NearSingularity(
            f"s={s} within {guard:g} of the pole at 1", where=1.0 + 0.0j)
    if store is not None:
        dist, rho = store.nearest_zero(z)
        if dist <= guard:
            raise NearSingularity(
                f"s={s} within {guard:g} of zero {rho}", where=rho)
    val = _extended(prec.abs_err, lambda mp, w: mp.zeta(
        w, derivative=1) / mp.zeta(w), z)
    return val if _needs_extended(z, prec.abs_err) else complex(val)


# --- Riemann-Siegel theta ----------------------------------------------------

def log_gamma(z) -> complex:
    """Principal log Gamma on Re z > 0 (scipy.special.loggamma, imported on
    first use): continuous there, so Im log Gamma(1/4 + it/2) is theta's
    unwrapped phase."""
    w = _point(z, "z")
    if w.real <= 0:
        raise ValidationError(f"log_gamma requires Re z > 0, got z={z!r}")
    from scipy.special import loggamma
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
    _check_height(t)
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
