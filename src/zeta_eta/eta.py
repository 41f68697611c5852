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
is cut into panels of width <= 1 with edges at the ordinates, and on each
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
row's closed form in one array pass over the rows.  Keeping
the model local also keeps both pieces the same size as the answer --
subtracting every zero at once would balloon the two halves by a factor
~ N(t) log t and drown the result in rounding noise.

A panel hands its integrand all 21 nodes at once, in ascending order, all
on the one vertical line Re s = sigma.  The sweep counts every panel's
nodes against the walk's budget first, and then hands a block of panels
(zeta._BLOCK_NODES nodes) to quadrature._panel at a time, whose Kronrod and
Gauss sums are one product with the weights.  Its one call of the integrand
receives the block's nodes, and the sweep works them there: zeta at all of
them in one pass on its zeta._Line (one Taylor expansion of the Dirichlet
sum per group of nearby nodes, a few groups' moments per matrix product,
the Euler-Maclaurin correction one array pass), and every panel's window
model at its nodes from one logarithm over the block's (panel, row) pairs;
no zeta value outlives the call.  The sweep knows every panel's window rows
and takes each block as the next panels in order.  The walk pins the
block's nodes in order: continuity of G along the ascending node sequence
pins the winding integer of the principal logarithm at each sample,
replacing a horizontal ray walk per sample.  Where the window moves, from
one panel to the next, the previous node's G is rebased by the old model
minus the new one at that node.  One unwrap pins the block, the winding
integers being the running sums of the rounded phase steps; from a step
above _CONT_STEP on, the nodes are walked one at a time, and the midpoint
is inserted as a node of its own, evaluated on demand.  This is the rule,
and branch._Walk the code, by which a horizontal ray pins its branch; the
sweep's model keeps the table's multiplicities, which its closed-form
integrals need.  The sweep is anchored at u = 0 (closed-form branch value)
and re-verified against the horizontal-ray branch at u = t.

The vertical integrals (the route's own and c_m's) are split at a0, 3.5-4.25
at the usual targets.  On [sigma, a0] they run on one horizontal ray each,
split at 1.  The adaptive integrator hands the integrand the 42 abscissae of
both starting panels in one call, and then both halves of each panel it
bisects in one call; each call is one batched zeta evaluation on the ray's
phases (BranchPath.eval_log: the Euler-Maclaurin correction on arrays, the
branch pinned from the walk's nodes in one array step), or on the real axis
for c_m.  Above a0 log zeta is its Dirichlet series, and the integral is a
closed-form sum over the prime powers up to _TAIL_N; a0 is derived from
that sum's truncation bound, and from sigma >= a0 on no quadrature runs at
all.

Error floor: the iterated route adds pieces of size ~ |c_1| t^(m-1)/(m-1)!
that cancel down to the O(1)-size answer, so its achievable absolute error
grows like t^(m-1) ulp; est_err accounts for this.  The vertical route has
no such amplification.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .branch import (_WINDOW, SIGMA_START, _log_zeta_real, _Walk,
                     branch_path, log_zeta_with_err)
from .errors import NumericalError, ValidationError, _integer, _point, _real
from .precision import DEFAULT_PRECISION, EvalPrecision
from .quadrature import _NODES, _panel, integrate_adaptive
from .zeros import SNAP_TOL, ZeroStore, builtin_store
from .zeta import _BLOCK_NODES, _UNIT_ROUNDOFF, _Line, _zeta_em

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


def _vertical_integral(log_f, m: int, sigma: float, a0: float, t: float,
                       abs_err: float) -> tuple[complex, float]:
    """i^m/(m-1)! int_sigma^inf (a-sigma)^(m-1) log zeta(a+it) da, m >= 1,
    with an error estimate: panels on [sigma, a0], split at 1, and the
    Dirichlet series above a0 = _tail_start(m, sigma, abs_err).

    log_f takes an array of abscissae in [sigma, a0], a row of 21 per
    panel, and returns (values, error bounds) as arrays of its shape, one
    pass for all of them; it is not called when sigma >= a0.
    """
    val, est = _vertical_tail(m, sigma, a0, t)
    if sigma >= a0:
        return val, est

    def g(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v, e = log_f(alpha)
        w = (alpha - sigma) ** (m - 1)
        return w * v, np.abs(w) * e

    fact = math.factorial(m - 1)
    pv, pest = integrate_adaptive(g, sigma, a0, 0.25 * abs_err * fact,
                                  splits=[1.0])
    return val + _I_POW[m % 4] * pv / fact, est + pest / fact


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


@lru_cache(maxsize=2)
def _lambda_table(limit: int) -> np.ndarray:
    """Lambda(n) for n = 0 .. limit, read-only."""
    mask = _prime_mask(limit)
    lam = np.zeros(limit + 1)
    primes = np.nonzero(mask)[0]
    lam[primes] = np.log(primes)
    for p in primes[primes <= math.isqrt(limit)]:
        lp = math.log(p)
        q = int(p) * int(p)
        while q <= limit:
            lam[q] = lp
            q *= int(p)
    lam.setflags(write=False)
    return lam


@lru_cache(maxsize=1)
def _dirichlet_terms() -> tuple[np.ndarray, np.ndarray]:
    """log n and c_n = Lambda(n)/log n over the prime powers n <= _TAIL_N."""
    lam = _lambda_table(_TAIL_N)
    n = np.nonzero(lam)[0]
    log_n = np.log(n)
    c = lam[n] / log_n
    for a in (log_n, c):
        a.setflags(write=False)
    return log_n, c


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
                   t: float) -> tuple[complex, float]:
    """i^m/(m-1)! int_a0^inf (a-sigma)^(m-1) log zeta(a+it) da, a0 > 1, and
    its error bound: the dropped terms, and the rounding of the kept ones
    (their phases t log n, amplitudes a0 log n, W and the sum)."""
    log_n, c = _dirichlet_terms()
    terms = c * np.exp(-a0 * log_n) * _tail_weight(m, a0 - sigma, 1.0 / log_n)
    val = complex(terms @ np.exp(-1j * t * log_n))
    rnd = 2.0 * _UNIT_ROUNDOFF * float(
        terms @ ((abs(t) + a0) * log_n + m + 8))
    return _I_POW[m % 4] * val, _tail_bound(m, sigma, a0) + rnd


# --- integration constants c_m(sigma) ------------------------------------------

@lru_cache(maxsize=512)
def _c_m_cached(m: int, sigma: float, abs_err: float) -> tuple[complex, float]:
    prec = EvalPrecision(abs_err=abs_err)
    # On the real axis the limit from above is available in closed form;
    # no branch walk runs anywhere near the pole.
    return _vertical_integral(lambda a: _log_zeta_real(a, prec), m, sigma,
                              _tail_start(m, sigma, abs_err), 0.0, abs_err)


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
    has beta > sigma -- in particular for an on-line table and sigma >= 1/2.
    """
    m = _order(m, 1)
    sigma, t = _real(sigma, "sigma"), _real(t, "t")
    store.require_height(t, "zero_sum_polynomial", t=t)
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
    if store is None:
        store = builtin_store()
    if m == 0:
        val, est = log_zeta_with_err(z, prec, store)
        return EtaValue(s=z, m=0, value=val, route="vertical", est_err=est)
    t = _real(z.imag, "t", 0.0)
    sigma = _real(z.real, "sigma", 0.5)
    if t < SNAP_TOL:
        val, est = c_m_with_err(sigma, m, prec)
        return EtaValue(s=z, m=m, value=val, route="vertical", est_err=est)

    store.require_height(t, "eta_vertical", t=t)
    a0 = _tail_start(m, sigma, prec.abs_err)
    log_f = None
    if sigma < a0:
        # A path ends left of SIGMA_START, right of which it needs no node.
        path = branch_path(t, min(sigma, SIGMA_START - 0.25), prec, store)
        t, log_f = path.t, path.eval_log
    else:
        t = store.snap(t)
    val, est = _vertical_integral(log_f, m, sigma, a0, t, prec.abs_err)
    zsum, zs_est = zero_sum_polynomial(m, sigma, t, store)
    return EtaValue(s=z, m=m, value=val + zsum, route="vertical",
                    est_err=est + zs_est)


# --- iterated route: windowed sweep along the horizontal segment ---------------

# Panel width cap on the u-line.  No singularity of G lies within _WINDOW =
# 1.5 of a panel, so on a panel of width w G is analytic inside the Bernstein
# ellipse through z = 1 + 3/w on the panel's [-1, 1], and Gauss(10) errs by
# about rho^-20, rho = z + sqrt(z^2 - 1).  That stays below the unit roundoff
# up to w = 1.34: 1.2e-18 at w = 1, 2.6e-14 at w = 2.
_PANEL_MAX = 1.0


class _Sweep(_Walk):
    """Branch tracker for log zeta(sigma + iu), u ascending, a block of
    panels at a time.

    Its model is one table of rows (mu, rel = sigma - rho), a zero weighed
    by its multiplicity (the closed-form model integrals need it), and
    panel p's window is the table's rows lo[p]:hi[p].  The blocks eval
    receives are the sweep's panels in order, each taken once.
    """

    def __init__(self, sigma: float, prec: EvalPrecision, mu: np.ndarray,
                 rel: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        super().__init__(float(sigma), 1j)
        self.sigma = float(sigma)
        self.prec = prec
        self.line = _Line(self.sigma, prec.abs_err)
        self.table = mu, rel
        self.rows = lo, hi
        # The panels walked so far, and the last one's last node and its
        # model there, None before the first block.
        self._done = 0
        self._last = None
        self.window(lo[0], hi[0])

    def window(self, lo: int, hi: int) -> None:
        """Make the model the table's rows lo:hi."""
        self.mu, self.rel = self.table[0][lo:hi], self.table[1][lo:hi]

    def anchor(self) -> None:
        """Branch value at u = 0 from the closed form (limit from above)."""
        if abs(self.sigma - 1.0) <= 1e-9:
            # log zeta + Log(s-1) -> log((s-1) zeta(s)) -> 0 at s = 1: G
            # is minus the zero rows, row 0 being the pole.
            g0 = -(self.mu[1:] @ np.log(self.rel[1:]))
        else:
            f0, _ = log_zeta_with_err(complex(self.sigma, 0.0), self.prec)
            g0 = f0 - self.model(0.0)
        self.x_prev, self.g_prev = 0.0, complex(g0)

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

    def eval(self, u, depth: int = 0):
        """G(u) = log zeta(sigma+iu) - model(u), branch pinned by continuity,
        with each node's error bound, from one _zeta_em pass at u.

        u is a float, spent here (a midpoint insertion, the check at the
        end), answered with (complex, float) in the current window; or the
        nodes of the next panels, a row per panel, each panel in its own
        window, answered with two arrays of their shape.  Where the window
        moves, from a panel to the next, the previous node's G is rebased
        by the old model minus the new one at that node, since the swapped
        terms are principal logs of points >= 1 away.
        """
        single = np.ndim(u) == 0
        if single:
            self.spend(1, u)
        else:
            p, self._done = self._done, self._done + len(u)
            if self._done > self.rows[0].size:
                raise NumericalError("sweep nodes past the sweep's last panel")
        us = np.atleast_1d(u)
        vals, _, rems = _zeta_em(self.line, us.ravel(), self.prec,
                                 want_deriv=False)
        vals, rems = np.array(vals), np.array(rems)
        if single:
            g = self.pin(us, self.principal(us, vals), depth)
        else:
            lo, hi = self.rows[0][p:self._done], self.rows[1][p:self._done]
            model = self._block_model(us, lo, hi)
            principal = self.principal(us, vals, model[:, 1:].ravel())
            # The first sweep panel has no previous window: no rebase.
            prev = model[0, 0] if self._last is None else self._last[1]
            rebase = np.zeros(us.shape, dtype=np.complex128)
            rebase[:, 0] = np.append(prev, model[:-1, -1]) - model[:, 0]

            def enter(j: int) -> None:
                self.window(lo[j // _NODES.size], hi[j // _NODES.size])

            g = self.pin(us.ravel(), principal, depth, rebase.ravel(), enter)
            self.window(lo[-1], hi[-1])
            self._last = us[-1, -1], model[-1, -1]
        err = rems / np.abs(vals) + 1e-15 * (1.0 + np.abs(g))
        if single:
            return complex(g[0]), float(err[0])
        return g.reshape(us.shape), err.reshape(us.shape)


def _line_panels(t_eff: float, store: ZeroStore) -> np.ndarray:
    """Panels over [0, t_eff], edges at interior ordinates, width <= 1: a
    row (a, b) per panel.

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


def _model_pieces(m: int, t_eff: float, a: np.ndarray, b: np.ndarray,
                  mu: np.ndarray, c: np.ndarray, gam: np.ndarray):
    """Every row's mu int_a^b (t_eff-u)^(m-1) Log(c + i(u-gamma)) du, one
    array pass over the rows, with two rounding masses per row.

    With w = u - gamma and base = t_eff - gamma, (t_eff-u)^(m-1) = sum_j
    C(m-1, j) base^(m-1-j) (-w)^j, so the piece is mu times the binomial
    terms C(m-1, j) base^(m-1-j) (-1)^j L_j, summed, over
    L_j = int w^j Log(c+iw) dw = (w^(j+1) Log(c+iw) |_wa^wb - i J_{j+1})/(j+1),
    J_k = int w^k/(c+iw) dw = ((wb^k - wa^k)/k - c J_(k-1))/i from J_0 =
    (Log(c+iwb) - Log(c+iwa))/i.  A run across the cut (c < 0, wa < 0 <
    wb) is the two segments (wa, 0) and (0, wb), whose L_j are summed per
    row; with c = 0 the boundary term w^(j+1) Log(iw) is continuous at
    w = 0, so such a run is one segment.  An end at w = 0 takes the
    principal log approached from the segment's interior (signed zero), the
    side the cut is viewed from; with c = 0 (the pole row at sigma = 1) its
    log is not taken (its boundary term vanishes, and J_0 is consumed only
    times c).

    Returns the pieces, the |term| mass of the binomial terms and the mass
    carried inside the L_j (their boundary terms and the magnitudes the J_k
    recurrence carries), each weighed as its L_j is in the piece.
    """
    wa, wb = a - gam, b - gam
    cut = (c < 0.0) & (wa < 0.0) & (wb > 0.0)
    lo = np.append(wa, np.zeros(np.count_nonzero(cut)))
    hi = np.append(np.where(cut, 0.0, wb), wb[cut])
    cs = np.append(c, c[cut])
    # The ends' points c + iw, built from the pairs (c + 1j*w drops the
    # sign of a zero w), and their logs in their place: cmath.log, not
    # np.log, as branch._log_with_err.
    logs = np.empty((2, lo.size), dtype=np.complex128)
    logs.real = cs
    logs.imag = np.where(np.stack((lo, hi)) == 0.0,
                         np.copysign(0.0, lo + hi), (lo, hi))
    logs.flat = np.fromiter((cmath.log(z) if z else 0j for z in logs.flat),
                            dtype=np.complex128, count=logs.size)
    la, lb = logs
    abs_la, abs_lb, abs_c = np.abs(la), np.abs(lb), np.abs(cs)
    jk = (lb - la) / 1j
    jk_mag = abs_la + abs_lb
    base = t_eff - gam
    total = np.zeros(a.size, dtype=np.complex128)
    term_mass = np.zeros(a.size)
    inner_mass = np.zeros(a.size)
    for k in range(1, m + 1):
        # np.float_power is C's pow, as Python's **; np.power's
        # vectorised loop may differ from it in the last bit.
        pw_lo, pw_hi = np.float_power(lo, k), np.float_power(hi, k)
        jk = ((pw_hi - pw_lo) / k - cs * jk) / 1j
        jk_mag = (np.abs(pw_hi) + np.abs(pw_lo)) / k + abs_c * jk_mag
        # L_(k-1) per segment, divided by k part by part, as Python's
        # complex division does; then summed per row.
        lj = ((pw_hi * lb - pw_lo * la - 1j * jk).view(np.float64)
              / k).view(np.complex128)
        lj_mag = (np.abs(pw_hi) * abs_lb + np.abs(pw_lo) * abs_la
                  + jk_mag) / k
        l_row, mag_row = lj[:a.size], lj_mag[:a.size]
        l_row[cut] += lj[a.size:]
        mag_row[cut] += lj_mag[a.size:]
        weight = math.comb(m - 1, k - 1) * np.float_power(base, m - k)
        term = weight * (-1.0) ** (k - 1) * l_row
        total += term
        term_mass += np.abs(term)
        inner_mass += np.abs(weight) * mag_row
    return mu * total, np.abs(mu) * term_mass, np.abs(mu) * inner_mass


def _iterated_integral(sigma: float, t_eff: float, m: int, store: ZeroStore,
                       prec: EvalPrecision) -> tuple[complex, float]:
    """1/(m-1)! int_0^t (t-u)^(m-1) log zeta(sigma+iu) du by the sweep."""
    gs, bs, ms = store.gammas, store.betas, store.multiplicities
    near = (gs > 0.0) & (gs <= t_eff + 2.0)
    # The model's rows (mu, c = sigma - beta, gamma); row 0 is the pole.
    mu_all = np.append(-1.0, ms[near])
    cc_all = np.append(sigma - 1.0, sigma - bs[near])
    gam_all = np.append(0.0, gs[near])
    panels = _line_panels(t_eff, store)
    # Panel p holds rows lo[p]:hi[p], and row r lies in panels
    # first[r]:stop[r], both from the same window edges: a zero exactly on
    # an edge is in a panel's G exactly when it is in its closed form.
    lo_edge, hi_edge = panels[:, 0] - _WINDOW, panels[:, 1] + _WINDOW
    lo = np.searchsorted(gam_all, lo_edge)
    hi = np.searchsorted(gam_all, hi_edge, side="right")
    first = np.searchsorted(hi_edge, gam_all)
    stop = np.searchsorted(lo_edge, gam_all, side="right")
    sweep = _Sweep(sigma, prec, mu_all, cc_all - 1j * gam_all, lo, hi)

    def integrand(us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # A row of ascending nodes per panel, the sweep's next panels: the
        # sweep pins the branch along them in panel order.
        g_val, g_err = sweep.eval(us)
        w = (t_eff - us) ** (m - 1)
        return w * g_val, np.abs(w) * (g_err + 2e-16 * np.abs(g_val))

    # Every panel's nodes counted against the walk's budget before any zeta
    # work; then a block of panels at a time through _panel, whose one call
    # of the integrand is the block's one zeta pass.
    sweep.spend(len(panels) * _NODES.size, 0.0)
    sweep.anchor()
    # Every row's model integral in closed form, once over its run of
    # panels: one pass over the rows, made while no panel's value is held
    # yet, which keeps the pass's arrays out of the sweep's peak memory.
    # The rounding allowance weighs both its masses.
    rows = first < stop
    pieces, term_mass, inner_mass = _model_pieces(
        m, t_eff, panels[first[rows], 0], panels[stop[rows] - 1, 1],
        mu_all[rows], cc_all[rows], gam_all[rows])
    mag = float(term_mass.sum() + inner_mass.sum())
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
        vals, p_disc, p_err = _panel(integrand, ends[:, 0], ends[:, 1])
        parts += vals.tolist()
        disc += math.fsum(p_disc)
        node_est += math.fsum(p_err)

    # The sweep's branch must land on the horizontal-ray branch at u = t.
    # (Skipped for very short sweeps, where the ray walk would itself pass
    # within t of the pole; a winding slip needs room to happen anyway.)
    if t_eff >= 0.05:
        g_end, _ = sweep.eval(t_eff)
        f_end = g_end + sweep.model(t_eff)
        f_auth, auth_est = log_zeta_with_err(complex(sigma, t_eff), prec, store)
        if abs(f_end - f_auth) > max(0.5, 100.0 * auth_est):
            raise NumericalError(
                f"winding sweep disagrees with the ray branch at t = {t_eff}: "
                f"{f_end} vs {f_auth}")

    fact = math.factorial(m - 1)
    value = complex(math.fsum(z.real for z in parts),
                    math.fsum(z.imag for z in parts)) / fact
    est = (disc + node_est + 2e-16 * mag) / fact + 1e-15 * (1.0 + abs(value))
    return value, est


def eta_iterated(s, m: int, store: ZeroStore | None = None,
                 prec: EvalPrecision = DEFAULT_PRECISION) -> EtaValue:
    """eta_m(s) from the definitional t-integration, nested integrals unrolled.

    m = 0 is log_zeta; t = 0 is c_m(sigma).  Requires sigma > -1 and
    0 <= t <= table height - 2.5 (the sweep's model needs zeros slightly
    above t).
    """
    m = _order(m, 0)
    z = _point(s)
    if store is None:
        store = builtin_store()
    if m == 0:
        val, est = log_zeta_with_err(z, prec, store)
        return EtaValue(s=z, m=0, value=val, route="iterated", est_err=est)
    sigma, t = z.real, _real(z.imag, "t", 0.0)
    if sigma <= -1.0:
        raise ValidationError(
            f"the iterated route needs sigma > -1, got sigma={sigma}")
    store.require_height(t + 2.5, "eta_iterated", t=t)

    poly = 0j
    est = 0.0
    poly_mag = 0.0
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
