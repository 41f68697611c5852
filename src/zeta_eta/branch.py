"""The branch of log zeta normalized by log zeta(sigma + it) -> 0 as
sigma -> +infinity along horizontal lines.

The branch at s = sigma + it is realized by continuation along the ray from
SIGMA_START = 40 (where the principal logarithm is already below 1e-11)
down to sigma: the running value advances by the trapezoid quadrature of
zeta'/zeta with steps proportional to the distance to the nearest
singularity, and at each accepted step the value is snapped to

    principal log zeta  +  2 pi i k,

with k pinned by the quadrature prediction.  The snap keeps the accuracy of
the point evaluation while the quadrature only has to resolve k, which it
does with two-digit margin.  The height of a ray is ZeroStore.snap(|t|),
the one ordinate convention: t on a tabulated ordinate uses the one-sided
limit, approached from below for gamma > 0 and from above for gamma < 0,
and t = 0 is the limit from above.

Above SIGMA_START the winding is 0, so a prepared ray answers on
[sigma_end, infinity) with the principal logarithm there.  Rays refuse
heights above the zero table: step control and the ordinate convention both
need to know every zero near the path.

A prepared ray keeps the phases n^-it of its height (a shared zeta._Ray),
computed once and grown as larger cutoffs are needed.  The march, the
bisection that locates a winding wrap and every later query evaluate zeta
through them, and eval_log and winding take a float or a whole array of
abscissae; an array is one Euler-Maclaurin pass.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (BudgetExceeded, OnSingularity, ValidationError, _point,
                     _real)
from .precision import DEFAULT_PRECISION, EvalPrecision
from .zeros import ZeroStore
from .zeta import _Ray, _zeta_em

SIGMA_START = 40.0
_MARCH_BUDGET = 200_000    # zeta evaluations one march may spend on its steps
_TWO_PI = 2.0 * math.pi
_MAX_PRED_RESIDUAL = 1.0   # rad; quadrature-vs-snap disagreement triggering retry


@dataclass
class BranchPath:
    """Continuation record for one horizontal ray Im s = t.

    t is the snapped height |t|; conjugate marks a ray requested at t < 0.
    Unwinding breakpoints (descending alphas, the first at SIGMA_START) let
    eval_log answer anywhere on [sigma_end, infinity) from one zeta
    evaluation per abscissa, made on the ray's shared phases.
    """

    t: float
    sigma_end: float
    conjugate: bool
    _breaks: list[float]        # descending
    _winds: list[int]           # winds[i] on (breaks[i+1], breaks[i]]
    _ray: _Ray = field(repr=False, compare=False)   # phases of height t
    _prec: EvalPrecision = DEFAULT_PRECISION

    def winding(self, alpha):
        """The winding integer at alpha, a float or an array (same shape);
        alpha must be finite and >= sigma_end."""
        if np.ndim(alpha) == 0:
            a = np.float64(_real(alpha, "alpha", self.sigma_end))
        else:
            a = np.asarray(alpha, dtype=np.float64)
            for end in (a.min(), a.max()):
                _real(end, "alpha", self.sigma_end)
        # breaks are descending; the winding at alpha is the one attached to
        # the deepest breakpoint at or above alpha, and 0 above them all.
        at_or_above = np.searchsorted(-np.asarray(self._breaks), -a,
                                      side="right")
        k = np.asarray(self._winds)[np.maximum(at_or_above - 1, 0)]
        return int(k) if k.ndim == 0 else k

    def eval_log(self, alpha):
        """log zeta(alpha + it) on the branch, with an error estimate.

        alpha is a float, answered with (complex, float), or an array,
        answered with two arrays of its shape; an array takes one
        Euler-Maclaurin pass for all its abscissae.
        """
        k = np.ravel(self.winding(alpha))
        vals, _, rems = _zeta_em(self._ray, alpha, self._prec,
                                 want_deriv=False)
        if 0 in vals:
            s = complex(np.ravel(alpha)[vals.index(0)], self.t)
            raise OnSingularity(f"zeta({s}) = 0 at working precision")
        out = np.array([cmath.log(v) for v in vals]) + 2j * math.pi * k
        est = np.array(rems) / np.abs(vals) + 1e-15 * (1.0 + np.abs(out))
        if self.conjugate:
            out = out.conjugate()
        if np.ndim(alpha) == 0:
            return complex(out[0]), float(est[0])
        return out.reshape(np.shape(alpha)), est.reshape(np.shape(alpha))


_REG_RADIUS = 0.05      # singularities this close to a step get subtracted


def _march(ray: _Ray, sigma_end: float, prec: EvalPrecision,
           store: ZeroStore) -> tuple[list[float], list[int]]:
    """Walk the ray from SIGMA_START down to sigma_end tracking the winding.

    Returns the unwinding breakpoints (descending alphas) and the winding
    integers in force below each breakpoint.  The trapezoid quadrature of
    zeta'/zeta only has to pin the winding to the nearest integer; known
    singularities within _REG_RADIUS of a step are subtracted analytically
    first, so steps crossing the critical line arbitrarily close to a zero
    (or the pole, for rays at height ~0) stay well-predicted.
    """
    t = ray.t

    def logderiv(alpha: float) -> tuple[complex, complex]:
        (v,), (d,), _ = _zeta_em(ray, alpha, prec, want_deriv=True)
        if v == 0:
            raise OnSingularity(f"zeta({alpha}+{t}j) = 0 at working precision")
        return cmath.log(v), d / v

    def nearby_poles(lo: float, hi: float) -> list[tuple[complex, float]]:
        """(location, residue-sign weight) of singularities of zeta'/zeta
        within _REG_RADIUS of the segment [lo, hi] x {t}."""
        out: list[tuple[complex, float]] = []
        if abs(t) <= _REG_RADIUS and lo - _REG_RADIUS <= 1.0 <= hi + _REG_RADIUS:
            out.append((1.0 + 0.0j, -1.0))          # simple pole of zeta
        gam = store.gammas
        i0 = int(np.searchsorted(gam, t - _REG_RADIUS, side="left"))
        i1 = int(np.searchsorted(gam, t + _REG_RADIUS, side="right"))
        for i in range(i0, i1):
            beta = float(store.betas[i])
            if lo - _REG_RADIUS <= beta <= hi + _REG_RADIUS:
                out.append((complex(beta, float(gam[i])),
                            float(store.multiplicities[i])))
        return out

    def singularity_distance(alpha: float) -> float:
        s = complex(alpha, t)
        return min(store.zero_distance(s), abs(s - 1.0))

    breaks = [SIGMA_START]
    winds = [0]
    alpha = SIGMA_START
    log_here, f_here = logderiv(alpha)   # principal = branch at sigma = 40
    k = 0
    evals = 0
    while alpha > sigma_end:
        d = singularity_distance(alpha)
        step = min(2.0, max(1e-3, 0.35 * d))
        while True:
            nxt = max(sigma_end, alpha - step)
            w, f_next = logderiv(nxt)
            evals += 1
            if evals > _MARCH_BUDGET:
                raise BudgetExceeded(
                    f"branch continuation at t={t} exceeded {_MARCH_BUDGET} "
                    f"steps")
            # Analytic part of the increment from singularities close to
            # this step; Log(z - p) is continuous along the segment because
            # Im(z - p) keeps its (nonzero) sign.
            poles = nearby_poles(nxt, alpha)
            analytic = 0.0 + 0.0j
            fa_here = f_here
            fa_next = f_next
            for p, weight in poles:
                analytic += weight * (cmath.log(complex(nxt, t) - p)
                                      - cmath.log(complex(alpha, t) - p))
                fa_here -= weight / (complex(alpha, t) - p)
                fa_next -= weight / (complex(nxt, t) - p)
            pred = log_here + analytic + (nxt - alpha) * 0.5 * (fa_here + fa_next)
            k_new = k + round((pred.imag - (w.imag + k * _TWO_PI)) / _TWO_PI)
            resid = abs(pred - (w + 2j * math.pi * k_new))
            if (resid <= _MAX_PRED_RESIDUAL and abs(k_new - k) <= 1) \
                    or step <= 1e-6:
                break
            step *= 0.5
        if resid > _MAX_PRED_RESIDUAL:
            raise BudgetExceeded(
                f"branch continuation stalled at alpha={alpha}, t={t} "
                f"(residual {resid:.2f} rad at minimal step)")
        if k_new != k:
            # Locate the principal-log wrap inside (nxt, alpha) so that
            # eval_log is correct on the whole ray, not just at endpoints.
            lo, hi = nxt, alpha
            im_hi = (log_here - 2j * math.pi * k).imag
            for _ in range(60):
                if hi - lo < 1e-9:
                    break
                mid = 0.5 * (lo + hi)
                (vm,), _, _ = _zeta_em(ray, mid, prec, want_deriv=False)
                # same side as hi if no wrap between mid and hi
                if abs(cmath.log(vm).imag - im_hi) < math.pi:
                    hi = mid
                    im_hi = cmath.log(vm).imag
                else:
                    lo = mid
            breaks.append(0.5 * (lo + hi))
            winds.append(k_new)
            k = k_new
        log_here = w + 2j * math.pi * k_new
        f_here = f_next
        alpha = nxt
    return breaks, winds


def branch_path(t: float, sigma_end: float,
                prec: EvalPrecision = DEFAULT_PRECISION,
                store: ZeroStore | None = None) -> BranchPath:
    """Prepare the ray at height t down to sigma_end for repeated queries."""
    if store is None:
        from .zeros import builtin_store
        store = builtin_store()
    t = _real(t, "t")
    sigma_end = _real(sigma_end, "sigma_end", -1.0)
    if sigma_end >= SIGMA_START:
        raise ValidationError(
            f"sigma_end < {SIGMA_START} required, got sigma_end={sigma_end}")
    conjugate = t < 0.0
    t = abs(t)
    if t > store.t_max:
        raise ValidationError(
            f"|t|={t} above zero-table height {store.t_max}; extend the table")
    # An ordinate is approached from below; for the reflected ray this
    # conjugates into approach from above, matching the convention at
    # negative ordinates.  Exact zeros on the ray (sigma_end below a zero's
    # beta at this height) are fine -- the ray passes at vertical distance
    # >= the snap offset.
    ray = _Ray(store.snap(t), shared=True)
    breaks, winds = _march(ray, sigma_end, prec, store)
    return BranchPath(t=ray.t, sigma_end=sigma_end, conjugate=conjugate,
                      _breaks=breaks, _winds=winds, _ray=ray, _prec=prec)


def log_zeta_with_err(s, prec: EvalPrecision = DEFAULT_PRECISION,
                      store: ZeroStore | None = None) -> tuple[complex, float]:
    """log zeta(s) on the branch, plus an absolute error estimate."""
    z = _point(s)
    if abs(z - 1.0) <= 1e-12:
        raise OnSingularity("log zeta has a logarithmic singularity at s = 1")
    if store is None:
        from .zeros import builtin_store
        store = builtin_store()
    if store.zero_distance(z) <= 1e-12:
        raise OnSingularity(f"s={s} sits on a zero of the table")
    if z.real >= SIGMA_START:
        (val,), _, (rem,) = _zeta_em(_Ray(z.imag, shared=False), z.real,
                                     prec, want_deriv=False)
        return cmath.log(val), rem / max(abs(val), 1e-300) + 1e-15
    if z.imag == 0.0:
        return _log_zeta_real(z.real, prec)
    path = branch_path(z.imag, z.real, prec, store)
    return path.eval_log(z.real)


def _log_zeta_real(sigma, prec: EvalPrecision):
    """log zeta(sigma) on the real axis, the limit from above, with error
    estimates; sigma is a float, answered with (complex, float), or an
    array, answered with two arrays of its shape.

    The closed form: zeta(sigma) is real and nonzero on (-1, 1) u (1, inf),
    negative exactly on (-1, 1), and the continuation across the pole
    contributes the phase -pi there.
    """
    if np.any(np.abs(np.asarray(sigma) - 1.0) <= 1e-12):
        raise OnSingularity("log zeta has a logarithmic singularity at s = 1")
    vals, _, rems = _zeta_em(_Ray(0.0, shared=np.ndim(sigma) > 0), sigma,
                             prec, want_deriv=False)
    xs = [v.real for v in vals]
    out = [complex(math.log(abs(x)), -math.pi if x < 0 else 0.0) for x in xs]
    est = [r / max(abs(x), 1e-300) + 1e-15 for x, r in zip(xs, rems)]
    if np.ndim(sigma) == 0:
        return out[0], est[0]
    return (np.reshape(out, np.shape(sigma)),
            np.reshape(est, np.shape(sigma)))


def log_zeta(s, prec: EvalPrecision = DEFAULT_PRECISION,
             store: ZeroStore | None = None) -> complex:
    """log zeta(s) on the branch continued from sigma = +infinity.

    Post: exp(log_zeta(s)) = zeta(s) to evaluation accuracy; the imaginary
    part vanishes as sigma grows; at sigma >= 40 the principal value is
    returned directly.
    """
    val, _ = log_zeta_with_err(s, prec, store)
    return val


def big_s(t: float, prec: EvalPrecision = DEFAULT_PRECISION,
          store: ZeroStore | None = None) -> float:
    """S(t) = Im log zeta(1/2 + it) / pi on the continued branch."""
    return log_zeta(complex(0.5, _real(t, "t")), prec, store).imag / math.pi
