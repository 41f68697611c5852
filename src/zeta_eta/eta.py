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
is cut into panels of width <= 1/2 with edges at the ordinates, and on each
panel the integrand splits as

    log zeta(sigma+iu) = G(u) + sum_rho mult Log(sigma-beta + i(u-gamma))
                              - [pole] Log(sigma-1 + iu),

where the sum runs over the pole and the zeros whose ordinate lies within
1.5 of the panel.  The model reproduces every nearby jump and logarithmic
singularity exactly, so G is analytic on a neighborhood of the panel of
radius >= 1; G is integrated panel by panel with quadrature._panel, the
library's one 10/20-point Gauss rule, while the model terms integrate in
closed form.  Keeping the model local also keeps both pieces the same size
as the answer -- subtracting every zero at once would balloon the two halves
by a factor ~ N(t) log t and drown the result in rounding noise.

A panel hands its integrand all 30 nodes at once, in ascending order.  They
lie on the one vertical line Re s = sigma within 1/4 of the panel centre, so
the sweep evaluates zeta at all of them in one pass on its zeta._Line (one
Taylor expansion of the Dirichlet sum about the centre) and the window
model at all of them with one logarithm of the window-zeros x nodes matrix.
It then walks the nodes in order: continuity of G along the ascending node
sequence pins the winding integer of the principal logarithm at each
sample, replacing a horizontal ray walk per sample.  A node whose step
exceeds _CONT_STEP first gets the midpoint inserted as a node of its own.
This is the rule, and branch._Walk the code, by which a horizontal ray pins
its branch; the sweep's model keeps the table's multiplicities, which its
closed-form integrals need, and moves its window from panel to panel.  The
sweep is anchored at u = 0 (closed-form branch value) and re-verified
against the horizontal-ray branch at u = t.

The vertical integrals (the route's own and c_m's) run on one horizontal ray
each: a panel's 30 abscissae are one batched zeta evaluation on the ray's
phases (BranchPath.eval_log), or on the real axis for c_m.

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
from scipy.special import gammaincc

from .branch import (_WINDOW, SIGMA_START, _log_zeta_real, _Walk,
                     branch_path, log_zeta_with_err)
from .errors import NumericalError, ValidationError, _integer, _point, _real
from .precision import DEFAULT_PRECISION, EvalPrecision
from .quadrature import _panel, integrate_adaptive
from .zeros import SNAP_TOL, ZeroStore, builtin_store
from .zeta import _Line, _zeta_em

_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)     # exact i^m

_TAIL_START = 45.0      # vertical integrals truncated at alpha = sigma + this
_TWO_PI = 2.0 * math.pi


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


def _vertical_integral(log_f, m: int, sigma: float, abs_err: float,
                       kinks: tuple[float, ...]) -> tuple[complex, float]:
    """i^m/(m-1)! int_sigma^(sigma+cut) (a-sigma)^(m-1) log f(a) da, m >= 1.

    log_f takes an array of abscissae and returns (values, error bounds) as
    arrays, one pass for a panel's 30 nodes; kinks inside the range become
    panel edges.  The error estimate covers the dropped tail: since
    |log zeta(a+it)| <= -log(1 - 2^-a) <= 2*2^-a for a >= 1, the tail beyond
    sigma + cut is at most 2*2^-sigma Gamma(m, cut ln 2)/(ln 2)^m / (m-1)!.
    """
    def g(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v, e = log_f(alpha)
        w = (alpha - sigma) ** (m - 1)
        return w * v, np.abs(w) * e

    # (a - sigma)^(m-1) 2^-a peaks near (m-1)/ln 2; push the cutoff out for
    # large m so the tail bound stays tiny.
    cut = _TAIL_START + 12.0 * max(0, m - 4)
    hi = sigma + cut
    fact = math.factorial(m - 1)
    val, est = integrate_adaptive(g, sigma, hi, 0.25 * abs_err * fact,
                                  splits=[x for x in kinks if sigma < x < hi])
    ln2 = math.log(2.0)
    tail = 2.0 * 2.0 ** (-sigma) * float(gammaincc(m, cut * ln2)) / ln2 ** m
    return _I_POW[m % 4] * val / fact, est / fact + tail


# --- integration constants c_m(sigma) ------------------------------------------

@lru_cache(maxsize=512)
def _c_m_cached(m: int, sigma: float, abs_err: float) -> tuple[complex, float]:
    prec = EvalPrecision(abs_err=abs_err)
    # On the real axis the limit from above is available in closed form;
    # no branch walk runs anywhere near the pole.
    return _vertical_integral(lambda a: _log_zeta_real(a, prec),
                              m, sigma, abs_err, (1.0,))


def c_m_with_err(sigma: float, m: int,
                 prec: EvalPrecision = DEFAULT_PRECISION) -> tuple[complex, float]:
    """c_m(sigma) plus an absolute error estimate (memoized)."""
    m = _integer(m, "m", 1)
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
    m = _integer(m, "m", 1)
    sigma, t = _real(sigma, "sigma"), _real(t, "t")
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
    m = _integer(m, "m")
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

    path = branch_path(t, min(sigma, SIGMA_START - 1.0), prec, store)
    val, est = _vertical_integral(path.eval_log, m, sigma, prec.abs_err,
                                  (1.0, SIGMA_START))
    zsum, zs_est = zero_sum_polynomial(m, sigma, path.t, store)
    return EtaValue(s=z, m=m, value=val + zsum, route="vertical",
                    est_err=est + zs_est)


# --- iterated route: windowed sweep along the horizontal segment ---------------

_PANEL_MAX = 0.5        # Gauss panel width cap on the u-line


class _Sweep(_Walk):
    """Branch tracker for log zeta(sigma + iu), u ascending, local model
    with the table's multiplicities (the closed-form model integrals need
    them)."""

    def __init__(self, sigma: float, prec: EvalPrecision):
        super().__init__(float(sigma), 1j)
        self.sigma = float(sigma)
        self.prec = prec
        self.line = _Line(self.sigma, prec.abs_err)
        self.anchored = False

    def set_window(self, wmu, wcc, wgam, has_pole: bool) -> None:
        old = self.model(self.x_prev) if self.anchored else 0j
        self.mu, self.rel = wmu, wcc - 1j * wgam
        self.pole = self.sigma - 1.0 if has_pole else None
        if self.anchored:
            # Rebasing against the new model keeps the tracked branch exact:
            # the swapped terms are principal logs of points >= 1 away.
            self.g_prev = complex(self.g_prev + old - self.model(self.x_prev))

    def anchor(self) -> None:
        """Branch value at u = 0 from the closed form (limit from above)."""
        if abs(self.sigma - 1.0) <= 1e-9:
            # log zeta + Log(s-1) -> log((s-1) zeta(s)) -> 0 at s = 1.
            g0 = -self.model(0.0, include_pole=False)
        else:
            f0, _ = log_zeta_with_err(complex(self.sigma, 0.0), self.prec)
            g0 = f0 - self.model(0.0)
        self.x_prev, self.g_prev = 0.0, complex(g0)
        self.anchored = True

    def eval(self, u, depth: int = 0):
        """G(u) = log zeta(sigma+iu) - model(u), branch pinned by continuity,
        with each node's error bound.

        u is a float, answered with (complex, float), or an ascending array
        above the last node, answered with two arrays: one zeta evaluation
        on the sweep's line for all its nodes, then a walk in order.
        """
        us = np.atleast_1d(np.asarray(u, dtype=np.float64))
        self.spend(us)
        vals, _, rems = _zeta_em(self.line, us, self.prec, want_deriv=False)
        g = self.pin(us, vals, depth)
        err = np.array(rems) / np.abs(vals) + 1e-15 * (1.0 + np.abs(g))
        if np.ndim(u) == 0:
            return complex(g[0]), float(err[0])
        return g, err


def _line_panels(t_eff: float, store: ZeroStore) -> list[tuple[float, float]]:
    """Panels over [0, t_eff], edges at interior ordinates, width <= 1/2."""
    gs = store.gammas
    inner = gs[(gs > 0.0) & (gs < t_eff)]
    edges = np.unique(np.concatenate(([0.0, t_eff], inner)))
    panels = []
    for a, b in zip(edges[:-1], edges[1:]):
        n_sub = max(1, int(math.ceil((b - a) / _PANEL_MAX)))
        sub = np.linspace(a, b, n_sub + 1)
        panels.extend(zip(sub[:-1], sub[1:]))
    return panels


def _segment_poly_log(j_max: int, a: float, b: float, c: float) -> list[complex]:
    """[int_a^b w^j Log(c+iw) dw for j = 0..j_max] on a cut-free segment.

    An endpoint exactly at w = 0 takes the principal value approached from
    the segment's interior (signed zero), which is the side the c <= 0 cut
    is viewed from; its boundary term w^(j+1) Log vanishes and is skipped.
    """
    if a == b:
        return [0j] * (j_max + 1)
    interior = math.copysign(1.0, a + b)

    def plog(w: float) -> complex:
        ww = w if w != 0.0 else math.copysign(0.0, interior)
        return cmath.log(complex(c, ww))

    la = plog(a) if (c != 0.0 or a != 0.0) else 0j
    lb = plog(b) if (c != 0.0 or b != 0.0) else 0j
    # J_k = int w^k/(c+iw) dw; J_0 is never consumed when c = 0 (each L_j
    # uses only J_{j+1}, j >= 0).
    js = [0j] * (j_max + 2)
    if c == 0.0:
        for k in range(1, j_max + 2):
            js[k] = (b ** k - a ** k) / (1j * k)
    else:
        js[0] = (lb - la) / 1j
        for k in range(1, j_max + 2):
            js[k] = ((b ** k - a ** k) / k - c * js[k - 1]) / 1j
    out = []
    for j in range(j_max + 1):
        boundary = 0j
        if b != 0.0:
            boundary += b ** (j + 1) * lb
        if a != 0.0:
            boundary -= a ** (j + 1) * la
        out.append((boundary - 1j * js[j + 1]) / (j + 1))
    return out


def _model_piece(m: int, t_eff: float, a: float, b: float,
                 mu: float, c: float, gam: float) -> tuple[complex, float]:
    """mu int_a^b (t-u)^(m-1) Log(c + i(u-gamma)) du and its |term| mass."""
    wa, wb = a - gam, b - gam
    if c <= 0.0 and wa < 0.0 < wb:
        segs = [(wa, 0.0), (0.0, wb)]
    else:
        segs = [(wa, wb)]
    ls = [0j] * m
    for lo, hi in segs:
        for j, v in enumerate(_segment_poly_log(m - 1, lo, hi, c)):
            ls[j] += v
    base = t_eff - gam
    total = 0j
    mag = 0.0
    for j in range(m):
        term = math.comb(m - 1, j) * base ** (m - 1 - j) * (-1.0) ** j * ls[j]
        total += term
        mag += abs(term)
    return mu * total, abs(mu) * mag


def _iterated_integral(sigma: float, t_eff: float, m: int, store: ZeroStore,
                       prec: EvalPrecision) -> tuple[complex, float]:
    """1/(m-1)! int_0^t (t-u)^(m-1) log zeta(sigma+iu) du by the sweep."""
    gs, bs, ms = store.gammas, store.betas, store.multiplicities
    near = (gs > 0.0) & (gs <= t_eff + 2.0)
    mu_all = ms[near].astype(float)
    cc_all = sigma - bs[near]
    gam_all = gs[near]

    sweep = _Sweep(sigma, prec)

    def integrand(us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # In ascending order: the sweep pins the branch node by node.
        g_val, g_err = sweep.eval(us)
        w = (t_eff - us) ** (m - 1)
        return w * g_val, np.abs(w) * (g_err + 2e-16 * np.abs(g_val))

    panels = _line_panels(t_eff, store)
    total_g = 0j
    analytic = 0j
    disc = 0.0
    node_est = 0.0
    mag = 0.0
    for p, (a, b) in enumerate(panels):
        sel = (gam_all >= a - _WINDOW) & (gam_all <= b + _WINDOW)
        has_pole = a <= _WINDOW
        sweep.set_window(mu_all[sel], cc_all[sel], gam_all[sel], has_pole)
        if p == 0:
            sweep.anchor()
        val, p_disc, p_err = _panel(integrand, a, b)
        total_g += val
        disc += p_disc
        node_est += p_err
        terms = list(zip(mu_all[sel], cc_all[sel], gam_all[sel]))
        if has_pole:
            terms.append((-1.0, sigma - 1.0, 0.0))
        for mu, c, gam in terms:
            piece, piece_mag = _model_piece(m, t_eff, a, b, mu, c, gam)
            analytic += piece
            mag += piece_mag

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
    value = (total_g + analytic) / fact
    est = (disc + node_est + 2e-16 * mag) / fact + 1e-15 * (1.0 + abs(value))
    return value, est


def eta_iterated(s, m: int, store: ZeroStore | None = None,
                 prec: EvalPrecision = DEFAULT_PRECISION) -> EtaValue:
    """eta_m(s) from the definitional t-integration, nested integrals unrolled.

    m = 0 is log_zeta; t = 0 is c_m(sigma).  Requires sigma > -1 and
    0 <= t <= table height - 2.5 (the sweep's model needs zeros slightly
    above t).
    """
    m = _integer(m, "m")
    z = _point(s)
    if store is None:
        store = builtin_store()
    if m == 0:
        val, est = log_zeta_with_err(z, prec, store)
        return EtaValue(s=z, m=0, value=val, route="iterated", est_err=est)
    sigma, t = z.real, _real(z.imag, "t", 0.0)
    if sigma <= -1.0:
        raise ValidationError(f"the iterated route needs sigma > -1, got {sigma}")
    if t > store.t_max - 2.5:
        raise ValidationError(
            f"t={t} needs table zeros up to t+2, above height {store.t_max}")

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
