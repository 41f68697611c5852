"""Iterated integrals eta_m of log zeta, by two independent routes.

eta_0 = log zeta on the continued branch, and

    eta_m(sigma + it) = int_0^t eta_{m-1}(sigma + it') dt' + c_m(sigma),
    c_m(sigma)        = i^m/(m-1)! int_sigma^inf (a - sigma)^(m-1) log zeta(a) da,

with log zeta on the real axis the limit from above.  Collapsing the nested
t-integrals (Cauchy's repeated-integration formula) gives the "iterated"
route actually computed here:

    eta_m(sigma+it) = sum_{j=1..m} c_j(sigma) t^(m-j)/(m-j)!
                      + 1/(m-1)! int_0^t (t-u)^(m-1) log zeta(sigma+iu) du.

The "vertical" route is the independent representation (sigma >= 1/2, t > 0)

    eta_m(sigma+it) = i^m/(m-1)! int_sigma^inf (a-sigma)^(m-1) log zeta(a+it) da
        + 2 pi sum_{k=0..m-1} i^(m-1-k)/((m-k)! k!)
              sum_{beta>sigma, 0<gamma<t} (beta-sigma)^(m-k) (t-gamma)^k.

Agreement of the two is a computable identity, not a shared-code tautology:
they use different integrals and different continuation sweeps.

The u-integral of the iterated route runs through every ordinate below t,
where log zeta(sigma+iu) jumps (by 2 pi i per zero strictly right of sigma)
or has a logarithmic singularity (zero at sigma itself).  The line [0, t]
is cut into panels of width <= 2 with edges at the ordinates, and on each
panel the integrand splits as

    log zeta(sigma+iu) = G(u) + sum_rows mu Log(sigma-beta + i(u-gamma)),

a table of log terms whose rows (mu, rho = beta + i gamma) are the zeros,
mu their multiplicity, and the pole, the row (-1, 1) at ordinate 0; a
panel's window holds the rows whose ordinate lies within 1.5 of it.  The
model reproduces every nearby jump and logarithmic singularity exactly, so
G is analytic on a neighborhood of the panel of radius 1.5; G is integrated
panel by panel with quadrature._panel, the library's one
Gauss(10)/Kronrod(21) rule.  A row lies in one contiguous run of panels,
and its model term integrates in closed form once over the run, every
row's closed form in one array pass over the rows (_model_pieces, the one
closed form both routes take).  Keeping
the model local also keeps both pieces the same size as the answer --
subtracting every zero at once would balloon the two halves by a factor
~ N(t) log t and drown the result in rounding noise.

A panel hands its integrand all 21 nodes at once, in ascending order, all
on the one vertical line Re s = sigma.  The sweep counts every panel's
nodes against the walk's budget first, and then hands a block of panels
(zeta._BLOCK_NODES nodes) to quadrature._panel at a time, whose Kronrod and
Gauss sums are one product with the weights.  Its one call of the integrand
receives the block's nodes with the block's window rows, and the sweep
works them there: zeta at all of them in one pass on its zeta._Line (one
Taylor expansion of the Dirichlet sum per group of nearby nodes, a few
groups' moments per matrix product, the Euler-Maclaurin correction one
array pass), and every panel's window model at its nodes from one
logarithm over the block's (panel, row) pairs; no zeta value outlives the
call.  The walk pins the block's nodes in order: continuity of G along the
ascending node sequence pins the winding integer of the principal
logarithm at each sample, so no sample needs a horizontal ray walk of its
own.  Where the window moves, from one panel to the next, the previous
node's G is rebased by the old model minus the new one at that node.  One
unwrap pins the block, the winding integers being the running sums of the
rounded phase steps; from a step above _CONT_STEP on, the nodes are walked
one at a time, and the midpoint is inserted as a node of its own.  The
sweep is a branch._Walk, as a horizontal ray's walk is: a midpoint, and
the check at u = t, go through the node step both walks share, so one
rule evaluates and pins a node on either line.  The sweep's model keeps
the table's multiplicities, which its closed-form integrals need.  The
sweep is anchored at u = 0 by the real-axis rule, G(0) = h(sigma) less
the zero rows, and re-verified against the horizontal-ray branch at u = t.

The vertical integrals (the route's own and c_m's) are split at a0, 3.5-4.25
at the usual targets.  On [sigma, a0] they run on one horizontal ray each,
split at 1 (a cheaper start, not a singularity: see _vertical_integral),
and subtract the ray's window model as the sweep subtracts its
panels': the rows (mu, rho) of the ray's window, the zeros within 1.5 of
its height and the pole at heights up to 1.5, which BranchPath holds for
its pin.  The panels integrate G = log zeta - model, analytic near
[sigma, a0], and each row's term mu Log(a + it - rho) is integrated by
the sweep's closed form, _model_pieces, taken along the ray; its rounding
allowance, (3m + 9) u of the row's two masses as in the sweep, goes into
est_err.  So the panels never bisect toward a zero next to the ray.  The
integral's start hands the integrand the 42 abscissae of both starting
panels in one call (quadrature._start), and each bisection both halves
of the panel it splits in one call (quadrature._refine); each call is one
batched zeta evaluation on the ray (branch._log_less_model: the
Euler-Maclaurin correction on arrays, the branch pinned by the call's own
walk down the ray, whose grid nodes share the pass, less the model the
walk formed for its pin).  c_m is the same
integral on the real axis, the limit from above, whose window is the
pole's row alone: its panels integrate the regular part h(a) = log((a-1)
zeta(a)), analytic on (-1, inf), by branch's one real-axis rule, and the
pole's term -log|a-1| - pi i [a < 1] is the same closed form.  Above a0
log zeta is its Dirichlet series, and the integral is a closed-form sum
over the prime powers up to _TAIL_N; a0 is derived from that sum's
truncation bound, and from sigma >= a0 on no quadrature runs at all.

That sum is one of the library's prime-power polynomials, all of which
prime_power_poly evaluates here over a prefix of one cached sieve record,
the prime powers with log n and Lambda(n), held once: one call builds a
polynomial's coefficients and sums them at an array of heights, and
answers an array.

The vertical integral takes the heights of one line at once
(_vertical_integral): c_m is its one height on the real axis,
eta_vertical its one ray, and each batch of _vertical_many, to which dist
and residual-scan pass all their heights, its many rays.  On one line
sigma, m and the target fix a0, the starting panels, their 42 abscissae
and the tail's coefficients, and only the phases n^-it differ between
heights.  So the integral builds the tail's coefficients once and sums
them at every height in one (heights x terms) phase array, integrates
every height's window rows in one _model_pieces pass, and takes G at
every height's 42 starting abscissae in one call of the rule, one walk
of all their rays (one zeta pass on a zeta._Ray over all the heights,
each ray pinned as its own walk pins it).  A height whose starting panels
are not settled is bisected on from the heap that start built, by the
adaptive integrator's own loop (quadrature._refine), each bisection a
walk of its ray alone.  Below sigma = 1 a height's value and est_err
have the bits of its one-height call.

A target that zeta sends to extended precision at a height t > 0 is
refused (zeta._check_doubles) before any zeta pass: the sweep and the ray
walks evaluate in doubles.

Error floor: the iterated route adds pieces of size ~ |c_1| t^(m-1)/(m-1)!
that cancel down to the O(1)-size answer, so its achievable absolute error
grows like t^(m-1) ulp; est_err accounts for this.  The vertical route has
no such amplification.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .branch import (_WINDOW, _Walk, _log_less_model, _log_regular_real,
                     _window_rows, branch_path, log_zeta_with_err)
from .errors import (BeyondSieve, NumericalError, ValidationError,
                     ZetaEtaError, _integer, _point, _real)
from .precision import DEFAULT_PRECISION, EvalPrecision
from .quadrature import _NODES, _panel, _refine, _start
from .zeros import SNAP_TOL, ZeroStore, store_or_builtin
from .zeta import (_BLOCK_NODES, _UNIT_ROUNDOFF, _Line, _check_doubles,
                   _phases, _zeta_em)

_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)     # exact i^m

_TWO_PI = 2.0 * math.pi
# Largest m accepted.  c_m(sigma) is about 2^-sigma (1/log 2)^m, the n = 2
# term of log zeta's Dirichlet series, so at sigma = 1/2 and m > 82 its
# rounding alone exceeds the coarsest target EvalPrecision accepts, 1e-3.
_M_MAX = 82


@dataclass(frozen=True)
class EtaValue:
    """One eta_m evaluation with its provenance and error estimate."""

    s: complex
    m: int
    value: complex
    route: str          # "iterated" | "vertical"
    est_err: float

    def __post_init__(self):
        if self.est_err < 0:
            raise ValidationError("est_err must be >= 0")
        if self.route not in ("iterated", "vertical"):
            raise ValidationError(f"unknown route {self.route!r}")


# The starting panels' cut on [sigma, a0]: see _vertical_integral.
_SPLITS = [1.0]


def _vertical_integral(log_g, m: int, sigma: float, ts: list[float],
                       abs_err: float, mu: np.ndarray, rel: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """i^m/(m-1)! int_sigma^inf (a-sigma)^(m-1) log zeta(a+it) da, m >= 1,
    at each height t of ts with an error estimate, two arrays in the order
    of ts: panels on [sigma, a0], split at 1, and the Dirichlet series
    above a0 = _tail_start(m, sigma, abs_err).

    G has no kink or one-sided limit at 1: the model holds the pole, and
    on the real axis h is analytic there.  The split is kept because it
    is a cheaper start.  On sigma = 1/2, m = 1, 100 seeded t in [1000,
    2000], one panel over [sigma, a0] took 1.70 _push calls and 0.90 ms a
    call at abs_err 1e-10, against 1.00 and 0.71 ms with the split (at
    1e-8, 0.55 against 0.65 ms), and c_m's worst est_err rose 13-75x
    (4.6e-13 to 6.0e-12; over m <= 3 at 40 sigma in [-0.9, 3], 3.4e-13 to
    2.5e-11).

    On [sigma, a0] log zeta is split as G + model, the model at ts[i]
    being the window's log terms sum mu[i] Log(rel[i] + a), a row of terms
    per height.  The panels integrate G: log_g(rows, xs) takes indices into
    ts and a flat array of abscissae in [sigma, a0], and returns G's values
    and error bounds there on each height of rows, a row per height, from
    one pass for them all; it is not called when sigma >= a0.  One call
    of it takes the starting panels of every height (quadrature._start),
    and a height they leave unsettled is bisected on from its own heap,
    one call per bisection at that height alone (quadrature._refine).
    The model's integral is _model_pieces', in closed form, one pass over
    every height's rows.
    """
    a0 = _tail_start(m, sigma, abs_err)
    val, est = _vertical_tail(m, sigma, a0, np.array(ts))
    if sigma >= a0:
        return val, est

    def weighted(rows):
        """The panels' integrand (a-sigma)^(m-1) G and its bounds on the
        panels of each height of rows in turn, at the same abscissae on
        each."""
        def f(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            v, e = log_g(rows, alpha.reshape(len(rows), -1)[0])
            w = (alpha - sigma) ** (m - 1)
            return w * v.reshape(alpha.shape), np.abs(w) * e.reshape(
                alpha.shape)

        return f

    heaps, peaks = _start(weighted(range(len(ts))), sigma, a0, _SPLITS,
                          len(ts))
    tol = _panel_tol(m, abs_err)
    model = (x.reshape(len(ts), -1) for x in _model_pieces(
        m, sigma, sigma, a0, mu.ravel(), rel.ravel(), 1.0))
    for i, (heap, peak, *pieces) in enumerate(zip(heaps, peaks, *model)):
        pv, pest = _refine(weighted([i]), heap, peak, sigma, a0, tol)
        val[i], est[i] = _vertical_sum(m, val[i], est[i], pv, pest, *pieces)
    return val, est


def _panel_tol(m: int, abs_err: float) -> float:
    """The tolerance of the panels' integral on [sigma, a0]."""
    return 0.25 * abs_err * math.factorial(m - 1)


def _vertical_sum(m: int, val, est, pv, pest, pieces: np.ndarray,
                  terms: np.ndarray, inner: np.ndarray) -> tuple[complex,
                                                                 float]:
    """The vertical integral and its estimate from its three parts: the
    tail above a0 (val, est), the panels' integral of G (pv, pest) and the
    window model's, from its rows' _model_pieces."""
    fact = math.factorial(m - 1)
    # (a-sigma)^(m-1) = (-1)^(m-1) (sigma-a)^(m-1), an exact sign.
    pv += (-1) ** (m - 1) * complex(math.fsum(pieces.real),
                                    math.fsum(pieces.imag))
    allowance = _piece_rounding(m) * math.fsum(terms + inner)
    return (val + _I_POW[m % 4] * pv / fact,
            est + (pest + allowance) / fact)


# --- the sieve and the one prime-power evaluator -----------------------------
#
# Every prime-power sum of the library, sum_n a_n n^-it over n <= n_max, is
# prime_power_poly over a prefix of one cached sieve: the vertical tail here,
# and approx's and distribution's polynomials.

#: The largest n a prime-power sum may reach (beyond it sums are refused).
SIEVE_LIMIT = 2_000_000


@lru_cache(maxsize=2)
def _prime_mask(limit: int) -> np.ndarray:
    """Whether n is prime, for n = 0 .. limit, read-only."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    mask.setflags(write=False)
    return mask


class _Sieve(NamedTuple):
    """The prime powers 2 <= n <= limit in ascending order, a column each
    of n (floats), log n, Lambda(n) and whether n is prime, all
    read-only."""

    n: np.ndarray
    log_n: np.ndarray
    lam: np.ndarray
    prime: np.ndarray


@lru_cache(maxsize=2)
def _lambda_table(limit: int) -> _Sieve:
    """The sieve up to limit: the primes of _prime_mask, Lambda = np.log
    there, merged in order with the higher powers p^k, Lambda = math.log(p)
    there."""
    mask = _prime_mask(limit)
    primes = np.flatnonzero(mask)
    q, lq = np.array([(p ** k, math.log(p))
                      for p in range(2, math.isqrt(limit) + 1) if mask[p]
                      for k in range(2, limit.bit_length()) if p ** k <= limit]
                     ).reshape(-1, 2).T
    order = np.argsort(np.concatenate((primes, q)), kind="stable")
    n = np.concatenate((primes, q))[order]
    cols = _Sieve(n, np.log(n), np.concatenate((np.log(primes), lq))[order],
                  order < primes.size)
    for a in cols:
        a.setflags(write=False)
    return cols


def _sieve(n: float, what: str) -> _Sieve:
    """The smaller cached sieve that covers n <= SIEVE_LIMIT: the one up to
    _TAIL_N, else the one up to SIEVE_LIMIT.  The two agree where both
    reach.  Beyond SIEVE_LIMIT, BeyondSieve names what."""
    _check_sieve_range(n, what)
    return _lambda_table(_TAIL_N if n <= _TAIL_N else SIEVE_LIMIT)


def _check_sieve_range(n: float, what: str) -> None:
    if n > SIEVE_LIMIT:
        raise BeyondSieve(
            f"{what} needs the sieve up to {n:.0f} > limit {SIEVE_LIMIT}")


def _check_sieve_power(X: float, power: float, what: str) -> None:
    """Refuse, with BeyondSieve naming X, a sum over n <= X^power past the
    sieve, before any numerics.  A log far past the sieve's is refused
    without forming X^power, which overflows for a large X."""
    top = (math.floor(X ** power)
           if power * math.log(X) <= math.log(SIEVE_LIMIT) + 1.0 else math.inf)
    _check_sieve_range(top, f"{what} with X={X}")


# The largest phase array a prime-power polynomial forms at once: its
# arguments add half as much, and its product with the coefficients is
# taken in place.  At the sieve's limit (149,235 prime powers) one height's
# phases take 2.4 MB, so a slice is one height.
_POLY_PHASE_BYTES = 2 ** 21


def prime_power_poly(n_max: float, coef: Callable[..., np.ndarray],
                     ts: np.ndarray, what: str,
                     primes_only: bool = False) -> np.ndarray:
    """sum_n a_n n^(-it) over the prime powers 2 <= n <= n_max (the primes
    alone if primes_only), with a_n = coef(n, log n, Lambda(n)), at each
    height t of the array ts: an array in the order of ts.

    The one evaluator of the library's prime-power polynomials: n, log n
    and Lambda(n) are a prefix of the sieve's columns (the primes among it
    for primes_only), the coefficients are built once, and their sum is a
    row of terms per height, in slices of heights whose phases take at
    most _POLY_PHASE_BYTES.  n_max below 2 or beyond the sieve is refused.
    """
    if not n_max >= 2.0:
        raise ValidationError(f"{what} needs n_max >= 2, got {n_max!r}")
    sieve = _sieve(n_max, what)
    top = np.searchsorted(sieve.n, n_max, "right")
    n, log_n, lam = (col[:top][sieve.prime[:top]] if primes_only
                     else col[:top] for col in sieve[:3])
    a = coef(n, log_n, lam)
    rows = max(1, _POLY_PHASE_BYTES // (16 * log_n.size))
    out = np.empty(ts.size, dtype=np.complex128)
    for lo in range(0, ts.size, rows):
        # In place, and freed before the next slice: numpy does not reuse
        # the 2-d phases for their product with the 1-d a.
        terms = _phases(log_n, ts[lo:lo + rows, None])
        terms *= a
        out[lo:lo + rows] = np.sum(terms, axis=1)
        del terms
    return out


# --- the vertical integrals above a0: the Dirichlet series of log zeta ---------
#
# For a > 1, log zeta(a + it) = sum_n c_n n^-(a+it) with c_n = Lambda(n)/log n
# (Edwards, Riemann's Zeta Function, 1.6), so with d = a0 - sigma
#
#   i^m/(m-1)! int_a0^inf (a-sigma)^(m-1) log zeta(a+it) da
#       = i^m sum_n c_n n^-(a0+it) W(log n),
#   W(L) = sum_{j<m} d^(m-1-j) / ((m-1-j)! L^(j+1)).
#
# The sum stops at n = _TAIL_N.  Since 0 <= c_n <= 1 and W decreases in L,
# the terms dropped total at most W(log N) N^(1-a0)/(a0-1); a0 is the first
# point of sigma + k/4 past 1 where that is _TAIL_SHARE of the target.  It is
# 3.5-4.25 at abs_err 1e-8 and 1e-10 for m <= 5 and sigma = 1/2.

_TAIL_N = 8192
_TAIL_SHARE = 1e-3


def _tail_weight(m: int, d: float, x):
    """W = sum_{j<m} d^(m-1-j)/(m-1-j)! x^(j+1) at x = 1/log n, a float or an
    array, by Horner's rule from j = m-1."""
    w = 0.0
    c = 1.0                         # d^k/k!, k = m-1-j
    for k in range(m):
        w = x * (c + w)
        c *= d / (k + 1)
    return w


def _tail_bound(m: int, sigma: float, a0: float) -> float:
    """The terms n > _TAIL_N of the sum above a0 total at most this."""
    return (_tail_weight(m, a0 - sigma, 1.0 / math.log(_TAIL_N))
            * _TAIL_N ** (1.0 - a0) / (a0 - 1.0))


@lru_cache(maxsize=512)
def _tail_start(m: int, sigma: float, abs_err: float) -> float:
    """a0: the first of sigma, sigma + 1/4, ... that exceeds 1 and keeps
    _tail_bound within _TAIL_SHARE of abs_err."""
    target = _TAIL_SHARE * abs_err
    k = 0 if sigma > 1.0 else math.floor(4.0 * (1.0 - sigma)) + 1
    while _tail_bound(m, sigma, sigma + 0.25 * k) > target:
        k += 1
    return sigma + 0.25 * k


def _vertical_tail(m: int, sigma: float, a0: float,
                   ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """i^m/(m-1)! int_a0^inf (a-sigma)^(m-1) log zeta(a+it) da, a0 > 1, at
    each height t of the array ts, and its error bound: the dropped terms,
    and the rounding of the kept ones (their phases t log n, amplitudes
    a0 log n, W and the sum); two arrays in the order of ts.  The kept
    terms c_n n^-a0 W(log n), n <= _TAIL_N, are prime_power_poly's
    coefficients, and its coefficient callback forms their rounding mass
    at each height."""
    mass = []

    def coef(n, log_n, lam):
        terms = (lam / log_n * np.exp(-a0 * log_n)
                 * _tail_weight(m, a0 - sigma, 1.0 / log_n))
        mass.extend(float(terms @ ((abs(x) + a0) * log_n + m + 8))
                    for x in ts.tolist())
        return terms

    val = prime_power_poly(_TAIL_N, coef, ts, "the vertical tail")
    est = _tail_bound(m, sigma, a0) + 2.0 * _UNIT_ROUNDOFF * np.array(mass)
    return _I_POW[m % 4] * val, est


# --- the window model's integral ---------------------------------------------
#
# Both routes subtract from log zeta the log terms of the singularities near
# their line, a row mu Log(rel + d x) per term, and integrate each term in
# closed form (Davis and Rabinowitz, Methods of Numerical Integration, 2.12:
# subtract the singularity and integrate it exactly): the vertical integrals
# on [sigma, a0] along a ray (d = 1, x the abscissa), the sweep over each
# row's run of panels on the line Re s = sigma (d = i, x = u).

def _model_pieces(m: int, p, a, b, mu: np.ndarray, rel: np.ndarray,
                  d: complex):
    """Every row's mu int_a^b (p-x)^(m-1) Log(rel + d x) dx, m >= 1, one
    array pass over the rows, with two rounding masses per row; p, a and
    b are floats or arrays of the rows' own.

    A row is taken about its foot, w = x - foot: rel + d x = c + d w, with
    foot beta = -Re rel and c = i Im rel on a ray, foot gamma = -Im rel
    and c = Re rel on the sweep.  With base = p - foot, (p-x)^(m-1) = sum_j
    C(m-1, j) base^(m-1-j) (-w)^j, so the piece is mu times the binomial
    terms C(m-1, j) base^(m-1-j) (-1)^j L_j, summed, over
    L_j = int w^j Log(c+dw) dw = (w^(j+1) Log(c+dw) |_wa^wb - d J_{j+1})/(j+1),
    J_k = int w^k/(c+dw) dw = ((wb^k - wa^k)/k - c J_(k-1))/d from J_0 =
    (Log(c+d wb) - Log(c+d wa))/d.  The path c + dw crosses the cut only on
    the sweep, for c < 0 and wa < 0 < wb: such a run is the two segments
    (wa, 0) and (0, wb), whose L_j are summed per row.  On a ray the path
    runs at height Im rel; at Im rel = +0 (the pole row on the real axis,
    c_m's) it runs along the cut, each Log taken from above, as the model's
    own Log is taken.  An end at w = 0 takes the principal log approached
    from the segment's interior (signed zero), the side the cut is viewed
    from; at c + dw = 0 (the pole row at sigma = 1) its log is not taken
    (its boundary term vanishes, and J_0 is consumed only times c = 0).
    The logs are cmath.log's, as branch._log_with_err's.

    Returns the pieces, the |term| mass of the binomial terms and the mass
    carried inside the L_j (their boundary terms and the magnitudes the J_k
    recurrence carries), each weighed as its L_j is in the piece.  A
    piece's rounding allowance is _piece_rounding(m) = (3 m + 9) u (u the
    unit roundoff) times the sum of its two masses, to first order in u:
    - a log errs by at most 4u of its size (cmath.log takes log1p near
      |z| = 1; against 40-digit mpmath it erred by up to 3.3u), so J_0 by
      5u of its mass |Log a| + |Log b|;
    - a step of the recurrence adds 3u of its powers' share (pow, the
      difference, the division by k), and u of c J_(k-1)'s (one of c's
      parts is 0, so a product rounds once per part) before the difference
      rounds by u of the whole: J_k errs by at most (5 + 2k) u of its mass;
    - L_(k-1)'s boundary products err by 6u (pow, log, product), and its
      two differences and the division by k add 3u: (8 + 2k) u of its
      mass, and one more u where a cut run's two segments are summed;
    - the roundings of wa and wb move the exact piece by u |w| times the
      integrand at an end, at most k u of L_(k-1)'s mass: (9 + 3k) u of
      the inner mass in all, k <= m;
    - the binomial terms err by (2m + 3) u of their mass: the rounding of
      base moves the exact terms by (m - 1) u, the weight C(m-1, j)
      base^(m-1-j) takes 2u, its product with L_j u, the running sum m u
      and the product with mu u.
    """
    along = d == 1j
    foot, c = (-rel.imag, rel.real) if along else (-rel.real, 1j * rel.imag)
    ends = np.array((a - foot, b - foot))     # a segment's (wa, wb) per column
    split = False
    if along:
        # A run across the cut is split at w = 0, its second segment after
        # the rows, and an end at w = 0 takes the sign of its segment's
        # interior.  (On a ray no run crosses the cut, and the sign of a
        # zero real part is not seen by a log.)
        cut = (c < 0.0) & (ends[0] < 0.0) & (ends[1] > 0.0)
        split = cut.any()
        if split:
            wb = ends[1, cut]
            ends[1, cut] = 0.0
            ends = np.concatenate((ends, (np.zeros(wb.size), wb)), axis=1)
            c = np.concatenate((c, c[cut]))
        ends = np.where(ends == 0.0, np.copysign(0.0, ends[0] + ends[1]),
                        ends)
    # The ends' points c + dw, built from their parts (c + 1j*w drops the
    # sign of a zero w), and their logs: cmath.log, not np.log, as
    # branch._log_with_err.
    points = np.empty(ends.shape, dtype=np.complex128)
    points.real, points.imag = (c, ends) if along else (ends, c.imag)
    la, lb = logs = np.array([cmath.log(z) if z else 0j
                              for z in points.ravel().tolist()]
                             ).reshape(ends.shape)
    abs_la, abs_lb = np.abs(logs)
    abs_c = np.abs(c)
    jk = (lb - la) / d
    jk_mag = abs_la + abs_lb
    base = p - foot
    total = term_mass = inner_mass = 0.0
    for k in range(1, m + 1):
        # np.float_power is C's pow, as Python's **; np.power's
        # vectorised loop may differ from it in the last bit.
        pw_lo, pw_hi = pw = np.float_power(ends, k)
        abs_lo, abs_hi = np.abs(pw)
        jk = ((pw_hi - pw_lo) / k - c * jk) / d
        jk_mag = (abs_hi + abs_lo) / k + abs_c * jk_mag
        # L_(k-1) per segment, divided by k part by part, as Python's
        # complex division does; then summed per row.
        lj = ((pw_hi * lb - pw_lo * la - d * jk).view(np.float64)
              / k).view(np.complex128)
        lj_mag = (abs_hi * abs_lb + abs_lo * abs_la + jk_mag) / k
        l_row, mag_row = lj[:rel.size], lj_mag[:rel.size]
        if split:
            l_row[cut] += lj[rel.size:]
            mag_row[cut] += lj_mag[rel.size:]
        weight = (-1.0) ** (k - 1) * math.comb(m - 1, k - 1) * (
            np.float_power(base, m - k))
        term = weight * l_row
        total = total + term
        term_mass = term_mass + np.abs(term)
        inner_mass = inner_mass + np.abs(weight) * mag_row
    return mu * total, np.abs(mu) * term_mass, np.abs(mu) * inner_mass


def _piece_rounding(m: int) -> float:
    """(3 m + 9) u: a _model_pieces piece's rounding allowance per unit of
    its two masses."""
    return (3.0 * m + 9.0) * _UNIT_ROUNDOFF


# --- integration constants c_m(sigma) ------------------------------------------
#
# On the real axis (the limit from above) the one singularity near [sigma,
# a0] is the pole, the row mu = -1, rel = -1 + 0i of the window model: log
# zeta(a) = h(a) - Log(a - 1 + 0i), with h(a) = log((a-1) zeta(a)) real and
# analytic on (-1, inf) (its nearest singularities are the trivial zero at
# -2 and the zeros at 1/2 +- 14.13i), branch's one real-axis rule.  So the
# quadrature integrates h, and the pole's term -log|a-1| - pi i [a < 1] is
# _model_pieces' closed form, its path along the cut taken from above.


@lru_cache(maxsize=512)
def _c_m_cached(m: int, sigma: float, abs_err: float) -> tuple[complex, float]:
    prec = EvalPrecision(abs_err=abs_err)
    # On the real axis the limit from above is available in closed form;
    # no branch walk runs anywhere near the pole, and the quadrature sees
    # the regular part h alone.
    (val,), (est,) = _vertical_integral(
        lambda rows, a: _log_regular_real(a, prec), m, sigma, [0.0], abs_err,
        np.array([[-1.0]]), np.array([[complex(-1.0, 0.0)]]))
    return complex(val), float(est)


def _order(m, lo: int) -> int:
    """m as an integer in [lo, _M_MAX]."""
    m = _integer(m, "m", lo)
    if m > _M_MAX:
        raise ValidationError(f"m <= {_M_MAX} required, got m={m}")
    return m


def c_m_with_err(sigma: float, m: int,
                 prec: EvalPrecision = DEFAULT_PRECISION) -> tuple[complex, float]:
    """c_m(sigma) plus an absolute error estimate (memoized)."""
    m = _order(m, 1)
    sigma = _real(sigma, "sigma")
    if sigma <= -1.0:
        raise ValidationError(f"c_m needs sigma > -1, got sigma={sigma}")
    return _c_m_cached(m, sigma, prec.abs_err)


def c_m(sigma: float, m: int, prec: EvalPrecision = DEFAULT_PRECISION) -> complex:
    """c_m(sigma) = i^m/(m-1)! int_sigma^inf (a-sigma)^(m-1) log zeta(a) da."""
    return c_m_with_err(sigma, m, prec)[0]


# --- zero sum shared by the vertical route and the window term Y_m (m >= 1) ----

def zero_sum_polynomial(m: int, sigma: float, t: float,
                        store: ZeroStore) -> tuple[complex, float]:
    """2 pi sum_k i^(m-1-k)/((m-k)!k!) sum_{beta>sigma, 0<gamma<t} (...) term.

    Returns (value, rounding estimate).  Exactly 0 whenever no table zero
    has beta > sigma -- in particular for an on-line table and sigma >= 1/2,
    which is answered at once from sigma >= the table's largest beta.
    """
    m = _order(m, 1)
    sigma, t = _real(sigma, "sigma"), _real(t, "t")
    store.require_height(t, "zero_sum_polynomial", t=t)
    if sigma >= store.beta_max:
        return 0j, 0.0
    gs, bs, ms = store.gammas, store.betas, store.multiplicities
    mask = (gs > 0.0) & (gs < t) & (bs > sigma)
    if not np.any(mask):
        return 0j, 0.0
    db = bs[mask] - sigma
    dt = t - gs[mask]
    mult = ms[mask].astype(float)
    total = 0j
    mag = 0.0
    for k in range(m):
        coef = _TWO_PI * _I_POW[(m - 1 - k) % 4] / (
            math.factorial(m - k) * math.factorial(k))
        inner = float(np.sum(mult * db ** (m - k) * dt ** k))
        total += coef * inner
        mag += abs(coef) * abs(inner)
    return total, 1e-15 * mag * (1 + db.size)


# --- vertical route -------------------------------------------------------------

def eta_vertical(s, m: int, store: ZeroStore | None = None,
                 prec: EvalPrecision = DEFAULT_PRECISION) -> EtaValue:
    """eta_m(s) by the vertical integral plus explicit zero sum.

    Valid for sigma >= 1/2 and 0 <= t <= table height.  m = 0 degenerates
    to log_zeta, t = 0 to c_m(sigma).
    """
    m = _order(m, 0)
    z = _point(s)
    store = store_or_builtin(store)
    if m:
        _real(z.imag, "t", 0.0)
        _real(z.real, "sigma", 0.5)
    (val,), (est,) = _vertical_many(z.real, [z.imag], m, store, prec)
    return EtaValue(s=z, m=m, value=complex(val), route="vertical",
                    est_err=float(est))


# Heights one batch takes at most.  Its largest arrays are the tail's
# phases, (heights x 1078 prime powers) complex doubles, 1.1 MB at 64
# heights, their product with the coefficients and their arguments: about
# 2.2 MB at once.  A height's zeta phases are formed and used one height at
# a time.  On the dist bench (100 samples a call) 120 heights raised the
# peak RSS by 1.7 MB where 64 left it flat, at the same items/s within the
# runs' spread.
_BATCH_HEIGHTS = 64


def _vertical_many(sigma: float, ts, m: int, store: ZeroStore,
                   prec: EvalPrecision) -> tuple[np.ndarray, np.ndarray]:
    """eta_m(sigma + it) by the vertical route and its est_err at each
    height t of ts, as two arrays in the order of ts: eta_vertical at every
    height, which is its one-height case.

    m = 0 is log zeta at each point.  For m >= 1, sigma >= 1/2, and a
    height below SNAP_TOL is c_m(sigma).  The other heights go in batches
    of up to _BATCH_HEIGHTS consecutive heights, each refused as
    eta_vertical refuses it before the batch runs, and a batch is one
    _vertical_integral on all their rays: G from one walk of them all
    (branch._log_less_model) for the starting panels, and each height's
    bisections, if any, from its ray's own walk.  A batch whose
    integral is refused goes height by height, each height its own
    _vertical_integral.  The heights are answered in order and a refusal
    is raised once the heights before it are answered, so the first
    exception is the one a loop over the heights would raise.
    """
    m = _order(m, 0)
    ts = np.ravel(ts).tolist()
    out, est = np.empty(len(ts), dtype=np.complex128), np.empty(len(ts))
    if m == 0:
        for i, t in enumerate(ts):
            out[i], est[i] = log_zeta_with_err(complex(sigma, t), prec, store)
        return out, est
    sigma = _real(sigma, "sigma", 0.5)

    def integral(rays: list):
        """An iterator of (value, estimate) at the height of each of rays."""
        if not rays:
            return iter(())
        return zip(*_vertical_integral(
            lambda rows, xs: _log_less_model([rays[i] for i in rows], xs),
            m, sigma, [p.t for p in rays], prec.abs_err, *_window_rows(rays)))

    for lo in range(0, len(ts), _BATCH_HEIGHTS):
        paths, failure = [], None
        for t in ts[lo:lo + _BATCH_HEIGHTS]:
            try:
                paths.append(_vertical_path(sigma, t, store, prec))
            except ZetaEtaError as exc:
                failure = exc
                break
        rays = [p for p in paths if p is not None]
        try:
            answers = integral(rays)
        except ZetaEtaError:
            answers = (next(integral([p])) for p in rays)
        for i, path in enumerate(paths, lo):
            if path is None:
                out[i], est[i] = c_m_with_err(sigma, m, prec)
                continue
            val, v_est = next(answers)
            zsum, zs_est = zero_sum_polynomial(m, sigma, path.t, store)
            out[i], est[i] = val + zsum, v_est + zs_est
        if failure is not None:
            raise failure
    return out, est


def _vertical_path(sigma: float, t, store: ZeroStore,
                   prec: EvalPrecision):
    """The ray of the vertical integral at height t, refused as
    eta_vertical refuses t, or None at t < SNAP_TOL, where eta_m is
    c_m(sigma)."""
    t = _real(t, "t", 0.0)
    if t < SNAP_TOL:
        return None
    store.require_height(t, "eta_vertical", t=t)
    return branch_path(t, sigma, prec, store)


# --- iterated route: windowed sweep along the horizontal segment ---------------

# Panel width cap on the u-line, set by the rule's own error.  No singularity
# of G lies within _WINDOW = 1.5 of a panel, so on a panel of width w G is
# analytic inside the Bernstein ellipse through z = 1 + 3/w on the panel's
# [-1, 1], rho = z + sqrt(z^2 - 1), and a rule exact to degree d errs by
# about rho^-(d+1) relative (Trefethen 2008).  At w = 2 the returned
# Kronrod(21) value (d = 31) errs by about rho^-32 = 1.6e-22, below
# rounding; Gauss(10)'s rho^-20 = 2.6e-14 is in est_err already, as the
# panel's |Kronrod - Gauss| term.
_PANEL_MAX = 2.0


class _Sweep(_Walk):
    """Branch tracker for log zeta(sigma + iu), u ascending, a block of
    panels at a time.

    Its model is one table of rows (mu, rel = sigma - rho), a zero weighed
    by its multiplicity (the closed-form model integrals need it); a
    panel's window is a run of the table's rows.  The blocks eval receives
    are the sweep's panels in order, each taken once; a midpoint and the
    check at the end are _Walk.step's, in the current window.
    """

    def __init__(self, sigma: float, prec: EvalPrecision, mu: np.ndarray,
                 rel: np.ndarray):
        super().__init__(float(sigma), 1j, _Line(float(sigma), prec.abs_err),
                         prec)
        self.sigma = float(sigma)
        self.table = mu, rel
        # The last block's last node and its model there, None before the
        # first block.
        self._last = None

    def window(self, lo: int, hi: int) -> None:
        """Make the model the table's rows lo:hi."""
        self.mu, self.rel = self.table[0][lo:hi], self.table[1][lo:hi]

    def anchor(self, lo: int, hi: int) -> None:
        """Branch value at u = 0, the limit from above, in the first panel's
        window, the table's rows lo:hi: log zeta(sigma) = h(sigma) - Log(
        sigma - 1 + 0i), and the Log term is row 0's, the pole's, so G(0)
        is h(sigma) less the zero rows."""
        self.window(lo, hi)
        h, _ = _log_regular_real(np.array([self.sigma]), self.walk_prec)
        self.x_prev = 0.0
        self.g_prev = complex(h[0] - self.mu[1:] @ np.log(self.rel[1:]))

    def _block_model(self, us: np.ndarray, lo: np.ndarray,
                     hi: np.ndarray) -> np.ndarray:
        """Each panel's window model at the previous panel's last node and
        at its own nodes us, a row per panel, panel p's window being rows
        lo[p]:hi[p]: one np.log over the block's (panel, row) pairs x 22
        nodes, summed per panel by one real product on the logarithms'
        (re, im) pairs."""
        counts = hi - lo
        pair_panel = np.repeat(np.arange(us.shape[0]), counts)
        pair_row = np.arange(counts.sum()) + np.repeat(
            lo - (np.cumsum(counts) - counts), counts)
        # The first sweep panel has no previous node; its own first node
        # stands in (x = 0 would put the pole row at log 0 on sigma = 1).
        before = us[0, 0] if self._last is None else self._last[0]
        xs = np.column_stack((np.append(before, us[:-1, -1]), us))
        mu, rel = self.table
        weights = np.zeros((us.shape[0], pair_row.size))
        weights[pair_panel, np.arange(pair_row.size)] = mu[pair_row]
        logs = np.log(rel[pair_row, None] + 1j * xs[pair_panel])
        return (weights @ logs.view(np.float64)).view(np.complex128)

    def eval(self, us: np.ndarray, lo: np.ndarray,
             hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G(u) = log zeta(sigma+iu) - model(u), branch pinned by continuity,
        with each node's error bound, from one _zeta_em pass.

        us holds the nodes of the next panels, a row per panel, panel p's
        window being the table's rows lo[p]:hi[p]; the answer is two arrays
        of us's shape.  Where the window moves, from a panel to the next,
        the previous node's G is rebased by the old model minus the new one
        at that node, since the swapped terms are principal logs of points
        >= 1 away.
        """
        vals, rems = _zeta_em(self.line, us.ravel(), self.walk_prec)
        model = self._block_model(us, lo, hi)
        principal = self.principal(us, vals, model[:, 1:].ravel())
        # The first sweep panel has no previous window: no rebase.
        prev = model[0, 0] if self._last is None else self._last[1]
        rebase = np.zeros(us.shape, dtype=np.complex128)
        rebase[:, 0] = np.append(prev, model[:-1, -1]) - model[:, 0]

        def enter(j: int) -> None:
            self.window(lo[j // _NODES.size], hi[j // _NODES.size])

        g = self.pin(us.ravel(), principal, 0, rebase.ravel(), enter)
        self.window(lo[-1], hi[-1])
        self._last = us[-1, -1], model[-1, -1]
        err = rems / np.abs(vals) + 1e-15 * (1.0 + np.abs(g))
        return g.reshape(us.shape), err.reshape(us.shape)


def _line_panels(t_eff: float, store: ZeroStore) -> np.ndarray:
    """Panels over [0, t_eff], edges at interior ordinates, width <=
    _PANEL_MAX = 2: a row (a, b) per panel.

    An interval [a, b] between edges is cut into n equal panels as
    np.linspace(a, b, n + 1) cuts it, a + j (b - a)/n with the end b, for
    all intervals at once.
    """
    gs = store.gammas
    inner = gs[(gs > 0.0) & (gs < t_eff)]
    edges = np.unique(np.concatenate(([0.0, t_eff], inner)))
    a, b = edges[:-1], edges[1:]
    n_sub = np.maximum(1, np.ceil((b - a) / _PANEL_MAX)).astype(np.int64)
    start = np.cumsum(n_sub) - n_sub
    j = np.arange(n_sub.sum()) - np.repeat(start, n_sub)
    a_rep = np.repeat(a, n_sub)
    step = np.repeat((b - a) / n_sub, n_sub)
    lo = j * step + a_rep
    hi = (j + 1) * step + a_rep
    hi[start + n_sub - 1] = b
    return np.column_stack((lo, hi))


def _iterated_integral(sigma: float, t_eff: float, m: int, store: ZeroStore,
                       prec: EvalPrecision) -> tuple[complex, float]:
    """1/(m-1)! int_0^t (t-u)^(m-1) log zeta(sigma+iu) du by the sweep."""
    gs, bs, ms = store.gammas, store.betas, store.multiplicities
    near = (gs > 0.0) & (gs <= t_eff + 2.0)
    # The model's rows (mu, rel = sigma - beta - i gamma); row 0 is the pole.
    mu_all = np.append(-1.0, ms[near])
    gam_all = np.append(0.0, gs[near])
    rel_all = np.append(sigma - 1.0, sigma - bs[near]) - 1j * gam_all
    panels = _line_panels(t_eff, store)
    # Panel p holds rows lo[p]:hi[p], and row r lies in panels
    # first[r]:stop[r], both from the same window edges: a zero exactly on
    # an edge is in a panel's G exactly when it is in its closed form.
    lo_edge, hi_edge = panels[:, 0] - _WINDOW, panels[:, 1] + _WINDOW
    lo = np.searchsorted(gam_all, lo_edge)
    hi = np.searchsorted(gam_all, hi_edge, side="right")
    first = np.searchsorted(hi_edge, gam_all)
    stop = np.searchsorted(lo_edge, gam_all, side="right")
    sweep = _Sweep(sigma, prec, mu_all, rel_all)

    def integrand(us: np.ndarray, row_lo: np.ndarray,
                  row_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # A row of ascending nodes per panel, the sweep's next panels, and
        # their windows' rows: the sweep pins the branch along them in
        # panel order.
        g_val, g_err = sweep.eval(us, row_lo, row_hi)
        w = (t_eff - us) ** (m - 1)
        return w * g_val, np.abs(w) * (g_err + 2e-16 * np.abs(g_val))

    # Every panel's nodes counted against the walk's budget before any zeta
    # work; then a block of panels at a time through _panel, whose one call
    # of the integrand is the block's one zeta pass.
    sweep.spend(len(panels) * _NODES.size, 0.0)
    sweep.anchor(lo[0], hi[0])
    # Every row's model integral in closed form, once over its run of
    # panels: one pass over the rows, made while no panel's value is held
    # yet, which keeps the pass's arrays out of the sweep's peak memory.
    rows = first < stop
    pieces, term_mass, inner_mass = _model_pieces(
        m, t_eff, panels[first[rows], 0], panels[stop[rows] - 1, 1],
        mu_all[rows], rel_all[rows], 1j)
    allowance = _piece_rounding(m) * math.fsum(term_mass + inner_mass)
    # Every row's model piece and every panel's G integral, summed exactly
    # at the end: the pieces and the G integrals each total about t^m and
    # cancel to the answer, so two running sums would carry t^m rounding
    # into it.
    parts = pieces.tolist()
    disc = 0.0
    node_est = 0.0
    block = _BLOCK_NODES // _NODES.size
    for p in range(0, len(panels), block):
        ends = panels[p:p + block]
        vals, p_disc, p_err = _panel(
            partial(integrand, row_lo=lo[p:p + block],
                    row_hi=hi[p:p + block]),
            ends[:, 0], ends[:, 1])
        parts += vals.tolist()
        disc += math.fsum(p_disc)
        node_est += math.fsum(p_err)

    # The sweep's branch must land on the horizontal-ray branch at u = t.
    # (Skipped for very short sweeps, where the ray walk would itself pass
    # within t of the pole; a winding slip needs room to happen anyway.)
    if t_eff >= 0.05:
        f_end = sweep.step(t_eff) + sweep.model(t_eff)
        f_auth, auth_est = log_zeta_with_err(complex(sigma, t_eff), prec, store)
        if abs(f_end - f_auth) > max(0.5, 100.0 * auth_est):
            raise NumericalError(
                f"winding sweep disagrees with the ray branch at t = {t_eff}: "
                f"{f_end} vs {f_auth}")

    fact = math.factorial(m - 1)
    value = complex(math.fsum(z.real for z in parts),
                    math.fsum(z.imag for z in parts)) / fact
    est = (disc + node_est + allowance) / fact + 1e-15 * (1.0 + abs(value))
    return value, est


def eta_iterated(s, m: int, store: ZeroStore | None = None,
                 prec: EvalPrecision = DEFAULT_PRECISION) -> EtaValue:
    """eta_m(s) from the definitional t-integration, nested integrals unrolled.

    m = 0 is log_zeta; t = 0 is c_m(sigma).  Requires sigma > -1 and
    0 <= t <= table height - 2.5 (the sweep's model needs zeros slightly
    above t); a t > 0 at which zeta would take extended precision for
    prec is refused before c_m and the sweep.
    """
    m = _order(m, 0)
    z = _point(s)
    store = store_or_builtin(store)
    if m == 0:
        val, est = log_zeta_with_err(z, prec, store)
        return EtaValue(s=z, m=0, value=val, route="iterated", est_err=est)
    sigma, t = z.real, _real(z.imag, "t", 0.0)
    if sigma <= -1.0:
        raise ValidationError(
            f"the iterated route needs sigma > -1, got sigma={sigma}")
    store.require_height(t + 2.5, "eta_iterated", t=t)

    _check_doubles(t, prec.abs_err)
    poly = 0j
    est = poly_mag = 0.0
    on_axis = t < SNAP_TOL
    t_eff = t if on_axis else store.snap(t)
    for j in range(1, m + 1):
        cj, cj_est = c_m_with_err(sigma, j, prec)
        w = t_eff ** (m - j) / math.factorial(m - j)
        poly += cj * w
        est += cj_est * w
        poly_mag += abs(cj) * w
    value = poly
    est += 5e-16 * poly_mag
    if not on_axis:
        ival, iest = _iterated_integral(sigma, t_eff, m, store, prec)
        value += ival
        est += iest
    return EtaValue(s=z, m=m, value=value, route="iterated", est_err=est)


def route_check(s, m: int, store: ZeroStore | None = None,
                prec: EvalPrecision = DEFAULT_PRECISION) -> dict:
    """Evaluate both routes; they must agree within combined estimates."""
    vert = eta_vertical(s, m, store, prec)
    iter_ = eta_iterated(s, m, store, prec)
    diff = abs(vert.value - iter_.value)
    tol = vert.est_err + iter_.est_err + 1e-12 * (1.0 + abs(vert.value))
    return {
        "vertical": vert,
        "iterated": iter_,
        "difference": diff,
        "tolerance": tol,
        "agree": diff <= tol,
    }


def s_m(t: float, m: int, store: ZeroStore | None = None,
        prec: EvalPrecision = DEFAULT_PRECISION) -> float:
    """S_m(t) = Im(eta_m(1/2 + it))/pi; S_0 is the argument function S(t)."""
    return eta_vertical(complex(0.5, _real(t, "t")), m, store,
                        prec).value.imag / math.pi
