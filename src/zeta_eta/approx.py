"""Smoothed Dirichlet-polynomial approximations to eta_m and their residuals.

The central identity realized here (sigma >= 1/2, t >= 14, X >= 3, H >= 1):

    eta_m(s) = i^m sum_{2 <= n <= X^(1+1/H)}
                   Lambda(n) v_{f,H}(e^(log n / log X)) / (n^s (log n)^(m+1))
               + Y_m(s, X) + R_m(s, X, H),

where Y_m collects the local contribution of zeros near s,

    Y_0(s, X) = sum_{|s-rho| <= 1/log X} log((s - rho) log X),
    Y_m(s)    = 2 pi sum_{k=0..m-1} i^(m-1-k)/((m-k)!k!)
                    sum_{beta>sigma, 0<gamma<t} (beta-sigma)^(m-k) (t-gamma)^k
                (m >= 1; independent of X),

with the logarithm's branch fixed by -pi <= arg z < pi.  residual() returns
the exact floating-point difference R_m = eta - poly - Y_m together with
numeric evaluations of the two bound shapes it should obey: the
unconditional zero-sum shape and the on-line form

    X^(1/2-sigma) (log t/(log X)^m) (1/loglog t + log(H+2)/log X),

both reported with implied constant 1 (callers calibrate constants on one
grid and test on another; the library never invents constants).

The zero sums of the unconditional bound are truncated at |t-gamma| <= t/2
over the table and the rest is absorbed by a crude integral majorant using
a two-sided zero-counting density; ordinates below 0 (conjugate zeros)
enter only through that majorant.

Also here: the prime polynomial P_f(s, X) = sum_{p <= X^2} v_{f,1}/p^s and
its on-line decomposition against zero clusters,

    P_f(1/2+it, X) = log(loglog t/log X) Ntilde(t, 1/log X)
                     + sum_{1/log X < |t-gamma| <= 1/loglog t}
                           log(|t-gamma| loglog t)
                     + O_f(log t/loglog t),

and the tapered weights w_X, Lambda_X = Lambda w_X, Lambda'_X used by the
variance displays.

dirichlet_poly, p_f and relzz_decompose are finite double-precision sums and
take no precision request.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (BeyondSieve, HypothesisViolated, ValidationError,
                     ZeroCoincidesWithS, _integer, _point, _real)
from .eta import (_I_POW, _lambda_table, _prime_mask, eta_vertical,
                  zero_sum_polynomial)
from .kernels import DEFAULT_KERNEL, Kernel
from .precision import DEFAULT_PRECISION, EvalPrecision
from .zeros import ZeroStore, builtin_store

SIEVE_LIMIT = 2_000_000


# --- von Mangoldt via the sieve (eta._lambda_table) ----------------------------

def _check_sieve_range(n: float, what: str) -> None:
    if n > SIEVE_LIMIT:
        raise BeyondSieve(
            f"{what} needs the sieve up to {n:.0f} > limit {SIEVE_LIMIT}")


def von_mangoldt(n: int) -> float:
    """Lambda(n): log p if n is a prime power p^k, else 0."""
    n = _integer(n, "n", 1)
    _check_sieve_range(n, "von_mangoldt")
    return float(_lambda_table(SIEVE_LIMIT)[n])


# --- configuration ----------------------------------------------------------------

@dataclass(frozen=True)
class ApproxConfig:
    """Parameters (m, X, H, kernel) of the smoothed polynomial."""

    m: int
    X: float
    H: float = 1.0
    kernel: Kernel = field(default_factory=lambda: DEFAULT_KERNEL)

    def __post_init__(self):
        _integer(self.m, "m")
        _real(self.X, "X", 3.0)
        _real(self.H, "H", 1.0)
        if not isinstance(self.kernel, Kernel):
            raise ValidationError("kernel must be a Kernel instance")

    @property
    def n_max(self) -> int:
        """Largest summation index X^(1+1/H)."""
        return int(math.floor(self.X ** (1.0 + 1.0 / self.H)))


def _v_weights(kernel: Kernel, h: float, log_n: np.ndarray,
               log_x: float) -> np.ndarray:
    """v_{f,H}(e^(log n/log X)) vectorized; exact 1/0 outside the taper."""
    return 1.0 - kernel.f_cdf(h * (log_n / log_x - 1.0))


def prime_power_poly(n_max: float, coef: Callable[..., np.ndarray], what: str,
                     primes_only: bool = False) -> Callable[[float], complex]:
    """t -> sum_n a_n n^(-it) over the prime powers 2 <= n <= n_max (the
    primes alone if primes_only), with a_n = coef(n, log n, Lambda(n)).

    The one evaluator of the library's prime-power polynomials: support and
    coefficients are built once, and the returned function sums them at any
    height t.  n_max below 2 or beyond the sieve is refused.
    """
    if not n_max >= 2.0:
        raise ValidationError(f"{what} needs n_max >= 2, got {n_max!r}")
    _check_sieve_range(n_max, what)
    top = int(math.floor(n_max)) + 1
    lam = _lambda_table(SIEVE_LIMIT)
    support = _prime_mask(SIEVE_LIMIT) if primes_only else lam
    idx = np.nonzero(support[:top])[0]
    n = idx.astype(float)
    log_n = np.log(n)
    a = coef(n, log_n, lam[idx])

    def poly(t: float) -> complex:
        return complex(np.sum(a * np.exp(-1j * t * log_n)))

    return poly


def dirichlet_poly(s, cfg: ApproxConfig) -> complex:
    """i^m sum_{2<=n<=X^(1+1/H)} Lambda(n) v_{f,H}(.) / (n^s (log n)^(m+1))."""
    z = _point(s)
    log_x = math.log(cfg.X)

    def coef(n, log_n, lam):
        v = _v_weights(cfg.kernel, cfg.H, log_n, log_x)
        return lam * v / (np.exp(z.real * log_n) * log_n ** (cfg.m + 1))

    poly = prime_power_poly(cfg.n_max, coef,
                            f"dirichlet_poly with X^(1+1/H)={cfg.n_max}")
    return _I_POW[cfg.m % 4] * poly(z.imag)


# --- local zero term Y_m ----------------------------------------------------------

def y_m(s, X: float, m: int, store: ZeroStore | None = None) -> complex:
    """Y_m(s, X); for m >= 1 the value does not depend on X."""
    z = _point(s)
    m = _integer(m, "m")
    X = _real(X, "X", 3.0)
    if store is None:
        store = builtin_store()
    sigma, t = z.real, z.imag
    radius = 1.0 / math.log(X)
    store.require_height(t if m >= 1 else t + radius, "y_m", t=t, m=m)
    if m >= 1:
        return zero_sum_polynomial(m, sigma, t, store)[0]

    gs, bs, ms = store.gammas, store.betas, store.multiplicities
    near = np.abs(gs - t) <= radius        # cheap pre-filter
    total = 0j
    for beta, gamma, mult in zip(bs[near], gs[near], ms[near]):
        dz = z - complex(beta, gamma)
        if abs(dz) > radius:
            continue
        if dz == 0:
            raise ZeroCoincidesWithS(f"s={s} equals the zero {beta}+{gamma}i")
        lg = cmath.log(dz * math.log(X))
        if lg.imag == math.pi:             # branch -pi <= arg < pi
            lg -= 2j * math.pi
        total += int(mult) * lg
    return total


# --- residual report --------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    """eta_m(s) split into polynomial + local zero term + remainder."""

    s: complex
    cfg: ApproxConfig
    eta: complex
    poly: complex
    y_m: complex
    r_m: complex
    bound_esrm: float       # unconditional zero-sum shape, constant 1
    bound_esrm2: float      # on-line shape, constant 1
    ratio: float            # |r_m| / bound_esrm2


def _bound_esrm(sigma: float, t: float, cfg: ApproxConfig,
                store: ZeroStore) -> float:
    """Unconditional remainder shape with implied constant 1.

        (X^(2(1-sigma)) + X^(1-sigma)) / (t (log X)^(m+1))
        + (log X)^-m     sum_{|t-gamma| <= 1/log X} (X^(2(b-s)) + X^(b-s))
        + (log X)^-(m+1) sum_{|t-gamma| > 1/log X}  (X^(2(b-s)) + X^(b-s))
                         / |t-gamma| * min(1, (H/(|t-gamma| log X))^d),

    d = min(kernel smoothness order, 4).  The far sum runs over the table
    for |t-gamma| <= t/2; the rest (including all conjugate zeros
    gamma < 0) is absorbed by the integral majorant

        pref * (H/log X)^d / pi * (log 3A + 5 + 1/d) / (d A^d),  A = t/2,

    using density(T) <= (log 3T + 5)/pi for the combined two-sided count.
    """
    X, H, m = cfg.X, cfg.H, cfg.m
    d = min(cfg.kernel.d_smooth, 4)
    lx = math.log(X)
    store.require_height(t * 1.5, "residual", t=t)

    def xpow(b: np.ndarray | float):
        return X ** (2.0 * (b - sigma)) + X ** (b - sigma)

    total = xpow(1.0) / (t * lx ** (m + 1))
    gs, bs, ms = store.gammas, store.betas, store.multiplicities
    dist = np.abs(gs - t)
    near = dist <= 1.0 / lx
    if np.any(near):
        total += float(np.sum(ms[near] * xpow(bs[near]))) / lx ** m
    far = (~near) & (dist <= 0.5 * t)
    if np.any(far):
        u = dist[far]
        factor = np.minimum(1.0, (H / (u * lx)) ** d)
        total += float(np.sum(ms[far] * xpow(bs[far]) / u * factor)) \
            / lx ** (m + 1)
    # integral majorant for |t-gamma| > t/2 (on-line powers)
    a = 0.5 * t
    pref = xpow(0.5) * (H / lx) ** d / lx ** (m + 1)
    tail = pref * (math.log(3.0 * a) + 5.0 + 1.0 / d) / (math.pi * d * a ** d)
    return total + tail


def _bound_esrm2(sigma: float, t: float, cfg: ApproxConfig) -> float:
    """On-line remainder shape with implied constant 1 (1<=H<=t/2, X<=t)."""
    X, H, m = cfg.X, cfg.H, cfg.m
    lx = math.log(X)
    return (X ** (0.5 - sigma) * math.log(t) / lx ** m
            * (1.0 / math.log(math.log(t)) + math.log(H + 2.0) / lx))


def residual(s, cfg: ApproxConfig, store: ZeroStore | None = None,
             prec: EvalPrecision = DEFAULT_PRECISION) -> ResidualReport:
    """R_m(s, X, H) = eta_m(s) - polynomial - Y_m, with both bound shapes.

    Needs t >= 14, sigma >= 1/2 and the hypothesis 1 <= H <= t/2 of the
    bounds; an H above t/2 raises HypothesisViolated.
    """
    z = _residual_point(s, cfg.H)
    if store is None:
        store = builtin_store()
    eta_val = eta_vertical(z, cfg.m, store, prec).value
    return _residual_split(z, eta_val, cfg, store)


def _residual_point(s, H: float) -> complex:
    """s = sigma + it as residual takes it (t >= 14, sigma >= 1/2, and
    H <= t/2 for the bounds), checked before any numerics."""
    z = _point(s, "s = sigma + it")
    t = _real(z.imag, "t", 14.0)
    _real(z.real, "sigma", 0.5)
    if H > 0.5 * t:
        raise HypothesisViolated(
            f"the remainder bounds assume 1 <= H <= t/2, got H={H} at t={t}")
    return z


def _residual_split(z: complex, eta_val: complex, cfg: ApproxConfig,
                    store: ZeroStore) -> ResidualReport:
    """The part of residual that depends on X: eta_m(z) given as eta_val,
    split into polynomial, Y_m and remainder, with the two bound shapes.

    eta_m does not depend on X, so a scan over X computes it once per
    height and splits it here for every X.
    """
    poly = dirichlet_poly(z, cfg)
    y_val = y_m(z, cfg.X, cfg.m, store)
    r_val = eta_val - poly - y_val
    b1 = _bound_esrm(z.real, z.imag, cfg, store)
    b2 = _bound_esrm2(z.real, z.imag, cfg)
    return ResidualReport(s=z, cfg=cfg, eta=eta_val, poly=poly, y_m=y_val,
                          r_m=r_val, bound_esrm=b1, bound_esrm2=b2,
                          ratio=abs(r_val) / b2)


# --- prime polynomial and its on-line decomposition -------------------------------

def p_f(s, X: float, kernel: Kernel | None = None) -> complex:
    """P_f(s, X) = sum over primes p <= X^2 of v_{f,1}(e^(log p/log X))/p^s."""
    z = _point(s)
    X = _real(X, "X", 3.0)
    if kernel is None:
        kernel = DEFAULT_KERNEL
    log_x = math.log(X)
    p_max = int(math.floor(X * X))
    poly = prime_power_poly(
        p_max, lambda p, log_p, lam: (_v_weights(kernel, 1.0, log_p, log_x)
                                      / np.exp(z.real * log_p)),
        f"p_f with X^2={p_max}", primes_only=True)
    return poly(z.imag)


def relzz_decompose(t: float, X: float, kernel: Kernel | None = None,
                    store: ZeroStore | None = None) -> dict:
    """P_f(1/2+it, X) against the zero-cluster main terms (on-line table).

    Returns {lhs, main1, main2, diff}:
        lhs   = P_f(1/2+it, X)
        main1 = log(loglog t / log X) * Ntilde(t, 1/log X)
        main2 = sum_{1/log X < |t-gamma| <= 1/loglog t} log(|t-gamma| loglog t)
        diff  = lhs - main1 - main2            (should be O(log t/loglog t))
    """
    t = _real(t, "t", 14.0)
    X = _real(X, "X")
    if not (math.log(t) <= X <= t):
        raise ValidationError(f"log t <= X <= t required, got X={X}, t={t}")
    if store is None:
        store = builtin_store()
    if not store.all_on_line:
        raise HypothesisViolated(
            "the decomposition assumes every table zero is on the line")
    llt = math.log(math.log(t))
    r_in = 1.0 / math.log(X)
    r_out = 1.0 / llt
    store.require_height(t + r_out, "relzz_decompose", t=t)
    lhs = p_f(complex(0.5, t), X, kernel)
    ntilde = store.count_window(t, r_in)
    main1 = math.log(llt / math.log(X)) * ntilde
    gs, ms = store.gammas, store.multiplicities
    dist = np.abs(gs - t)
    ring = (dist > r_in) & (dist <= r_out)
    main2 = float(np.sum(ms[ring] * np.log(dist[ring] * llt))) \
        if np.any(ring) else 0.0
    return {"lhs": lhs, "main1": main1, "main2": main2,
            "diff": lhs - main1 - main2}


# --- tapered weights --------------------------------------------------------------

def w_x(y: float, X: float) -> float:
    """Quadratic taper: 1 on [1, X], 1/2 at X^2, 0 from X^3 on."""
    y = _real(y, "y")
    if y <= 0.0:
        raise ValidationError(f"y > 0 required, got y={y!r}")
    X = _real(X, "X", 3.0)
    lx = math.log(X)
    if y <= X:
        return 1.0
    ly = math.log(y)
    if ly <= 2.0 * lx:
        return ((3.0 * lx - ly) ** 2 - 2.0 * (2.0 * lx - ly) ** 2) \
            / (2.0 * lx * lx)
    if ly <= 3.0 * lx:
        return (3.0 * lx - ly) ** 2 / (2.0 * lx * lx)
    return 0.0


def lambda_x(n: int, X: float) -> float:
    """Lambda_X(n) = Lambda(n) w_X(n)."""
    return von_mangoldt(n) * w_x(n, X)


def lambda_prime_x(n: int, X: float) -> float:
    """Lambda on [1, X], Lambda(n) log(X^2/n)/log X on [X, X^2], else 0."""
    lam = von_mangoldt(n)
    X = _real(X, "X", 3.0)
    if lam == 0.0:
        return 0.0
    if n <= X:
        return lam
    if n <= X * X:
        return lam * math.log(X * X / n) / math.log(X)
    return 0.0
