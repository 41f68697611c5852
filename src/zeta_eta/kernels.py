"""Mass-one bump kernels on [0, 1], their multiplicative rescalings, and the
incomplete-exponential transforms built from them.

A kernel f >= 0 has integral 1 over [0, 1].  Its rescaling at sharpness H
lives on [e, e^(1+1/H)]:

    u_{f,H}(x) = H f(H log(x/e)) / x,        v_{f,H}(y) = int_y^inf u_{f,H},

so v = 1 on (0, e] and v = 0 on [e^(1+1/H), inf).  The poly bump's CDF,
I_x(d+1, d+1), is a finite binomial sum at integer d and is taken in
closed form (betainc), within 2 units of 2^-53 of the exact value for
d <= 10 and 13 at d = 600.  The transforms

    E*_{m+1}(z) = int_z^(z+inf) (w - z)^m e^-w / w dw     (horizontal ray)
    U_m(z)      = (1/m!) int u_{f,H}(x) E*_{m+1}(z log x) / (log x)^m dx

are the zero-local building blocks of the smoothed approximation's error
analysis.  E* reduces to the exponential integral E_1 plus elementary terms:

    E*_{m+1}(z) = (-z)^m E_1(z) + sum_{k=1..m} C(m,k) (-z)^(m-k) Gamma(k, z),

with Gamma(k, z) the upper incomplete gamma (entire for integer k >= 1),
formed by Gamma(k+1, z) = k Gamma(k, z) + z^k e^-z.  The reduction holds at
every z off the cut.  For |z| <= 4 it runs in doubles with E_1 from
scipy.special.exp1; beyond that it cancels like |z|^m/m!, and runs in
mpmath with m log10|z| + 1 more digits than zeta's extended path.  exp1
is this module's one use of scipy, imported on first use: it takes about
0.2 s of a process's start, which a process that evaluates no E* never
pays.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike

from .errors import (BudgetExceeded, InvalidFamily, OnNegativeRealAxisCut,
                     ValidationError, _integer, _point, _real)
from .precision import DEFAULT_PRECISION, EvalPrecision
from .quadrature import integrate_adaptive
from .zeta import _extended

#: Orders above this are never probed by smoothness verification.
SMOOTHNESS_CHECK_CAP = 10


def betainc(a: int, x: ArrayLike) -> np.ndarray:
    """I_x(a, a), the regularized incomplete beta function at equal integer
    parameters a >= 2, with x clamped to [0, 1]; a scalar or an array in, the
    same shape out.

    With d = a - 1 and lo = min(x, 1 - x) <= 1/2, the finite binomial sum
    of DLMF 8.17(i), factored about its last term, reads

        I_lo = [C(2d, d)/4^d] lo (4 lo (1 - lo))^d S,
        S    = 1 + q_d (1 + q_(d-1) (... (1 + q_1))),   q_k = k/((d+k)(1-lo)),

    and I_x = I_lo for x <= 1/2, 1 - I_lo above (I_(1-x) = 1 - I_x).  The
    bracket is one exact integer ratio rounded once, each q_k <= 1 keeps S
    in [1, d+1], and (4 lo (1 - lo))^d is taken as exp(d log1p(-(2x-1)^2)),
    exact to the last bit of (2x-1)^2 near x = 1/2, so every d answers:
    against 40-digit mpmath the absolute error is at most 2 units of 2^-53
    for d <= 10, 4 at d = 50 and 13 at d = 600 (scipy.special.betainc's:
    3, 7 and 16), and x = 0, 1 give exactly 0, 1.  It works in place on
    three arrays of x's shape.
    """
    d = a - 1
    xs, b, s = (np.empty(np.shape(x)) for _ in range(3))
    np.clip(x, 0.0, 1.0, out=xs)
    # 1 - lo = max(x, 1 - x) exactly: above 1/2, 1 - x is exact.
    np.subtract(1.0, xs, out=b)
    np.maximum(b, xs, out=b)
    np.reciprocal(b, out=b)
    np.multiply(b, 1.0 / (d + 1), out=s)
    s += 1.0
    for k in range(2, d + 1):
        s *= b
        s *= k / (d + k)
        s += 1.0
    # -(2x - 1)^2 as -4 (x - 1/2)^2, which rounds the same.
    np.subtract(xs, 0.5, out=b)
    np.square(b, out=b)
    b *= -4.0
    with np.errstate(divide="ignore"):      # log1p(-1) = -inf at lo = 0
        np.log1p(b, out=b)
    b *= d
    np.exp(b, out=b)
    s *= b
    np.subtract(1.0, xs, out=b)
    np.minimum(b, xs, out=b)
    s *= b
    s *= math.comb(2 * d, d) / 4 ** d
    # x > 1/2 as 0 or 1 picks I_lo or 1 - I_lo by arithmetic.
    np.greater(xs, 0.5, out=b)
    np.multiply(b, -2.0, out=xs)
    xs += 1.0
    xs *= s
    xs += b
    return xs[()]


@dataclass(frozen=True)
class Kernel:
    """Mass-one bump on [0, 1].

    d_smooth is the usable differentiation order: derivatives of orders
    0..d_smooth-1 of the zero-extension are continuous at the endpoints and
    order d_smooth jumps.  poly_bump(d) has d_smooth = d; tent has 1.
    f and f_cdf take a scalar or an array and answer in its shape; f is 0
    off (0, 1), and f_cdf clamps to 0 below 0, 1 above 1.
    """

    family: str
    d: int
    d_smooth: int
    f: Callable[[ArrayLike], np.ndarray] = field(repr=False, compare=False)
    f_cdf: Callable[[ArrayLike], np.ndarray] = field(repr=False, compare=False)

    @property
    def name(self) -> str:
        return (f"{self.family}({self.d})" if self.family == "poly_bump"
                else self.family)


def _poly_bump(d: int) -> Kernel:
    # f = (2d+1)!/(d!)^2 (x(1-x))^d, the normaliser being 1/B(d+1, d+1).
    # Its factor 4^-d is moved into the power and the exact ratio rounded
    # once, so both factors stay finite at any d.
    norm = (2 * d + 1) * math.comb(2 * d, d) / 4 ** d

    def f(x: ArrayLike) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        inside = (x > 0.0) & (x < 1.0)
        return np.where(inside, norm * (4.0 * x * (1.0 - x)) ** d, 0.0)[()]

    def f_cdf(x: ArrayLike) -> np.ndarray:
        return betainc(d + 1, x)

    return Kernel(family="poly_bump", d=d, d_smooth=d, f=f, f_cdf=f_cdf)


def _tent() -> Kernel:
    def f(x: ArrayLike) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        inside = (x > 0.0) & (x < 1.0)
        return np.where(inside, 4.0 * np.minimum(x, 1.0 - x), 0.0)[()]

    def f_cdf(x: ArrayLike) -> np.ndarray:
        x = np.clip(x, 0.0, 1.0)
        # [()] turns the 0-d result of a scalar input into a scalar.
        return np.where(x <= 0.5, 2.0 * x * x,
                        1.0 - 2.0 * np.square(1.0 - x))[()]

    return Kernel(family="tent", d=0, d_smooth=1, f=f, f_cdf=f_cdf)


def make_kernel(family: str, d: int | None = None) -> Kernel:
    """Kernel constructor; families 'poly_bump' (needs d) and 'tent'."""
    if family == "poly_bump":
        if d is None:
            raise InvalidFamily("poly_bump needs the degree d")
        return _poly_bump(_integer(d, "d", 1, InvalidFamily))
    if family == "tent":
        if d is not None:
            raise InvalidFamily("tent takes no degree parameter")
        return _tent()
    raise InvalidFamily(f"unknown kernel family {family!r}")


DEFAULT_KERNEL = make_kernel("poly_bump", 4)


# --- rescalings ---------------------------------------------------------------

def u_f_h(kernel: Kernel, h: float, x: float) -> float:
    """u_{f,H}(x) = H f(H log(x/e))/x, supported on [e, e^(1+1/H)]."""
    h = _real(h, "H", 1.0)
    x = _real(x, "x")
    if x <= 0.0:
        raise ValidationError(f"x > 0 required, got x={x}")
    tau = h * (math.log(x) - 1.0)
    if tau <= 0.0 or tau >= 1.0:
        return 0.0
    return h * kernel.f(tau) / x


def v_f_h(kernel: Kernel, h: float, y: float) -> float:
    """v_{f,H}(y) = int_y^inf u_{f,H}; 1 up to e, 0 from e^(1+1/H) on."""
    h = _real(h, "H", 1.0)
    y = _real(y, "y")
    if y <= 0.0:
        raise ValidationError(f"y > 0 required, got y={y}")
    return float(1.0 - kernel.f_cdf(h * (math.log(y) - 1.0)))


def boundary_derivative(kernel: Kernel, order: int, side: int,
                        step: float = 1e-3) -> float:
    """One-sided finite-difference derivative of f at an endpoint.

    side 0 probes x = 0+ (forward stencil), side 1 probes x = 1- (backward).
    Since the extension of f by zero has all outside derivatives equal to 0,
    a nonzero value here is the jump of f^(order) across the endpoint.
    Orders above SMOOTHNESS_CHECK_CAP are refused.
    """
    order, side = _integer(order, "order"), _integer(side, "side")
    if order > SMOOTHNESS_CHECK_CAP:
        raise ValidationError(
            f"order <= {SMOOTHNESS_CHECK_CAP} required, got order={order}")
    if _real(step, "step") <= 0.0:
        raise ValidationError(f"step > 0 required, got step={step}")
    if side not in (0, 1):
        raise ValidationError(f"side 0 or 1 required, got side={side}")
    # Forward-difference coefficients: Delta^n f(x0) / h^n, from x0 = 0 on
    # side 0 and x0 = 1 - n h on side 1.
    coeffs = [(-1) ** (order - j) * math.comb(order, j) for j in range(order + 1)]
    pts = [kernel.f(j * step if side == 0 else 1.0 - (order - j) * step)
           for j in range(order + 1)]
    return sum(c * p for c, p in zip(coeffs, pts)) / step ** order


# --- E*_{m+1} -----------------------------------------------------------------

_CLOSED_FORM_RADIUS = 4.0


def _closed_form(m: int, z, e1, exp_mz):
    """(-z)^m E_1(z) + sum_{k=1..m} C(m,k) (-z)^(m-k) Gamma(k, z), given
    E_1(z) and e^-z, in whatever arithmetic z and they carry."""
    total = (-z) ** m * e1
    gam = exp_mz                      # Gamma(1, z)
    for k in range(1, m + 1):
        total += math.comb(m, k) * (-z) ** (m - k) * gam
        gam = k * gam + z ** k * exp_mz   # Gamma(k+1, z)
    return total


def e_star(m: int, z, prec: EvalPrecision = DEFAULT_PRECISION) -> complex:
    """E*_{m+1}(z), the m-th moment tail of e^-w/w along the horizontal ray.

    Refuses the branch cut (z real and <= 0); the one-sided limit there is
    the caller's business (see u_m_eval).
    """
    m = _integer(m, "m")
    z = _point(z, "z")
    if z.imag == 0.0 and z.real <= 0.0:
        raise OnNegativeRealAxisCut(
            f"E*_{m + 1} is not defined on the nonpositive real axis (z={z})")
    if abs(z) <= _CLOSED_FORM_RADIUS:
        from scipy.special import exp1
        return _closed_form(m, z, complex(exp1(z)), cmath.exp(-z))
    # The sum loses about log10(|z|^m/m!) digits to cancellation.
    return complex(_extended(
        prec.abs_err, lambda mp, w: _closed_form(m, w, mp.e1(w), mp.exp(-w)),
        z, int(m * math.log10(abs(z))) + 1))


def _e_star_nodes(m: int, w: np.ndarray, prec: EvalPrecision) -> np.ndarray:
    """E*_{m+1} at the nodes w of a panel (or a block of panels): in one
    call of the closed form on the array when every node lies inside
    _CLOSED_FORM_RADIUS and off the cut, else node by node through e_star."""
    if (np.abs(w) <= _CLOSED_FORM_RADIUS).all() and not (
            (w.imag == 0.0) & (w.real <= 0.0)).any():
        from scipy.special import exp1
        return _closed_form(m, w, exp1(w), np.exp(-w))
    return np.array([e_star(m, x, prec) for x in w.ravel().tolist()]
                    ).reshape(w.shape)


# --- U_m ----------------------------------------------------------------------

_LIMIT_EPS = 1e-9
# U's error, in spacings of |U| as a double, reaches 3 against 30-digit
# mpmath where |U| is large (seeded z with 6 <= |z| <= 11.5, m <= 3, H = 1
# and 2); so an answer resolves no abs_err below 4 of them.
_RESOLUTION_ULPS = 4


def u_m_eval(m: int, z, kernel: Kernel = DEFAULT_KERNEL, h: float = 1.0,
             prec: EvalPrecision = DEFAULT_PRECISION) -> complex:
    """U_m(z) = (1/m!) int u_{f,H}(x) E*_{m+1}(z log x) / (log x)^m dx.

    In the variable tau = H log(x/e) this is a bump-weighted average of
    E*_{m+1}(z L) / L^m over L = 1 + tau/H in [1, 1 + 1/H].  Real z on the
    cut side (z <= 0) takes the limit from below, z -> z - i eps; real z > 0
    is evaluated directly (the two sides agree there).

    An abs_err below the answer's resolution, _RESOLUTION_ULPS spacings of
    |U| as a double, is refused with BudgetExceeded once U is known: at the
    default 1e-10 that is every |U| >= 2^17 (about 1.3e5), reached near
    the cut from |z| of about 9.
    """
    m = _integer(m, "m")
    h = _real(h, "H", 1.0)
    z = _point(z, "z")
    if z == 0:
        raise ValidationError(
            f"U_m(0) diverges: nonzero z required, got z={z!r}")
    w = z
    if z.imag == 0.0 and z.real <= 0.0:
        w = complex(z.real, -_LIMIT_EPS * max(1.0, abs(z)))
    fact = math.factorial(m)
    inner = EvalPrecision(abs_err=max(prec.abs_err, 1e-14))

    def g(tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        big_l = 1.0 + tau / h
        return (kernel.f(tau) * _e_star_nodes(m, w * big_l, inner)
                / big_l ** m, np.zeros(tau.shape))

    val, _ = integrate_adaptive(g, 0.0, 1.0, 0.1 * prec.abs_err)
    val /= fact
    resolution = _RESOLUTION_ULPS * math.ulp(abs(val))
    if resolution > prec.abs_err:
        raise BudgetExceeded(
            f"U_m at m={m}, z={z!r}: abs_err={prec.abs_err:g} is below the "
            f"resolution {resolution:.3g} of its double value")
    return val
