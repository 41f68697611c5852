"""Empirical value-distribution harness on dyadic ordinate windows.

Estimates, by seeded sampling of t in [T, 2T], the relative measure of

    {t : log|zeta(1/2+it)| > V}                         (exceedance of log|zeta|)
    {t : |eta_m(1/2+it) - i^m sum_{2<=n<=X} Lambda(n)
              / (n^(1/2+it) (log n)^(m+1)) - Y_m| > V}   (polynomial residual)

and the residual moment average

    (1/T) int |residual|^(2k) dt

over either the interval [14, T] ("theorem" convention) or [T, 2T]
("dyadic"); the returned record names which one was used.  The reference
shapes are the Gaussian tail of N(0, (1/2) loglog T), the raw tail
exp(-V^2/loglog T), and the moment majorant

    2^k k! ((2m+1)/(2m) + C/log X)^k X^(k(1-2s)) / (log X)^(2km)
    + C^k k^(2k(m+1)) T^((1-2s)/135} / (log T)^(2km)

with a caller-chosen trial constant C (default 10) -- existence of a valid
C is a theorem, its value is not, so the library never hides one.  The
hypothesis X <= T^(1/(135k)) is enforced by default and can be waived
explicitly (it is far too strict for desk-scale T; waivers are recorded).

Each estimator fixes its window from its own finite T > e (loglog T > 0);
a GridSpec only says how many ordinates to draw, by which scheme, from which
seed.  The residual estimators need X >= 2, and X >= 3 for m = 0, where
Y_0(s, X) has radius 1/log X.

Everything is deterministic given (seed, scheme): the generator is seeded
per call, samples within ORDINATE_TOL = 1e-6 of a tabulated ordinate are
moved below it by ZeroStore.snap (log|zeta| diverges at zeros), and the
moment average sums with math.fsum, exactly rounded, so the result does not
depend on evaluation order.

The log|zeta| estimators evaluate all their samples together on the line
sigma = 1/2 (zeta._zeta_line): sorted, cut into groups, and each group's
partial sums taken from one Taylor expansion of the Dirichlet sum, each
value certified to the target like a single zeta call.  The residual
estimators take eta_m at all their samples by the vertical route at
once (eta._vertical_many: one zeta pass on the rays of all the heights,
each height pinned by its own walk), whose rays walk in doubles: a target
that zeta would send to extended precision at their top sample is refused
before any sample (zeta._check_doubles).  Their plain polynomial is one
call of eta.prime_power_poly, after eta_m, which builds its coefficients
and sums them at the array of all the samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approx import y_m
from .errors import HypothesisViolated, ValidationError, _integer, _real
from .eta import _I_POW, _check_sieve_power, _vertical_many, prime_power_poly
from .precision import DEFAULT_PRECISION, EvalPrecision
from .zeros import ORDINATE_TOL, ZeroStore, store_or_builtin
from .zeta import _check_doubles, _zeta_line

_SCHEMES = ("uniform", "stratified-jitter", "seeded-random")


@dataclass(frozen=True)
class GridSpec:
    """Seeded sampling plan: count ordinates drawn by scheme from seed over
    the window the estimator fixes."""

    count: int
    scheme: str = "stratified-jitter"
    seed: int = 0

    def __post_init__(self):
        _integer(self.count, "count", 1)
        if self.scheme not in _SCHEMES:
            raise ValidationError(
                f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        _integer(self.seed, "seed")


@dataclass(frozen=True)
class MeasureEstimate:
    """Sampled exceedance fraction with its binomial error bar."""

    V: float
    fraction: float
    count_exceed: int
    ref_gaussian: float
    stderr: float

    def row(self, **extra) -> dict:
        """The estimate as a CSV row: V, fraction, stderr, gaussian_ref,
        then extra's keys in order."""
        return {"V": self.V, "fraction": self.fraction, "stderr": self.stderr,
                "gaussian_ref": self.ref_gaussian, **extra}


def _samples(grid: GridSpec, lo: float, hi: float,
             store: ZeroStore) -> np.ndarray:
    """Draw grid.count ordinates in [lo, hi], snapped off tabulated zeros."""
    rng = np.random.default_rng(grid.seed)
    n = grid.count
    if grid.scheme == "uniform":
        t = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    elif grid.scheme == "seeded-random":
        t = rng.uniform(lo, hi, n)
    else:                                   # stratified-jitter
        strata = max(1, int(round(math.sqrt(n))))
        edges = np.linspace(lo, hi, strata + 1)
        per, extra = divmod(n, strata)
        # The first extra strata take one sample more; one draw serves all.
        i = np.repeat(np.arange(strata), per + (np.arange(strata) < extra))
        t = edges[i] + (edges[i + 1] - edges[i]) * rng.random(n)
    return store.snap(t, ORDINATE_TOL)


def gaussian_tail(v: float) -> float:
    """Upper tail of the standard normal law at v."""
    return 0.5 * math.erfc(float(v) / math.sqrt(2.0))


def _estimate(V: float, values: np.ndarray, T: float) -> MeasureEstimate:
    """Exceedance of V, against the tail of N(0, (1/2) loglog T) above V."""
    count = len(values)
    exceed = int(np.sum(values > V))
    frac = exceed / count
    stderr = math.sqrt(frac * (1.0 - frac) / count)
    sd = math.sqrt(0.5 * math.log(math.log(T)))
    return MeasureEstimate(V=float(V), fraction=frac, count_exceed=exceed,
                           ref_gaussian=gaussian_tail(V / sd), stderr=stderr)


def _check_grid(entry: str, T: float, grid: GridSpec, store: ZeroStore,
                min_count: int = 100, hi: float | None = None) -> None:
    """Refuse T <= e or non-finite, too few samples, or samples up to hi
    (default 2T) above the zero table; entry names the caller."""
    if _real(T, "T") <= math.e:
        raise ValidationError(f"T > e required (loglog T > 0), got T={T!r}")
    _integer(grid.count, "count", min_count)
    store.require_height(2.0 * T if hi is None else hi, entry, T=T)


def _log_abs_zeta_samples(T: float, grid: GridSpec, store: ZeroStore,
                          prec: EvalPrecision) -> np.ndarray:
    vals, _ = _zeta_line(0.5, _samples(grid, T, 2.0 * T, store), prec)
    # Extended-precision values come as objects; their doubles will do.
    vals = np.asarray(vals, dtype=np.complex128)
    with np.errstate(divide="ignore"):      # log 0 = -inf at a zero
        return np.log(np.hypot(vals.real, vals.imag))


def measure_sigma(T: float, V: float, grid: GridSpec,
                  store: ZeroStore | None = None,
                  prec: EvalPrecision = DEFAULT_PRECISION) -> MeasureEstimate:
    """Fraction of t in [T, 2T] with log|zeta(1/2+it)| > V.

    The Gaussian reference is the tail of N(0, (1/2) loglog T) above V.
    """
    store = store_or_builtin(store)
    _real(V, "threshold V")
    _check_grid("measure_sigma", T, grid, store)
    values = _log_abs_zeta_samples(T, grid, store, prec)
    return _estimate(V, values, T)


def _check_residual_call(T: float, X: float, m: int, m_min: int,
                         t_min: float) -> None:
    """Refusals shared by the residual estimators, the sieve's included:
    all come before a sample is drawn."""
    _integer(m, "m", m_min)
    _real(X, "X", 2.0)
    _check_sieve_power(X, 1.0, "the plain polynomial")
    if m == 0 and X < 3.0:
        raise ValidationError(
            f"m = 0 needs X >= 3 for the zero term Y_0(s, X), got X={X!r}")
    _real(T, "T", t_min)


def _residual_samples(grid: GridSpec, lo: float, hi: float, sigma: float,
                      X: float, m: int, store: ZeroStore,
                      prec: EvalPrecision) -> np.ndarray:
    """|eta_m(s) - i^m sum_{2<=n<=X} Lambda(n)/(n^s (log n)^(m+1)) - Y_m(s)|
    at s = sigma + it for the grid's samples t in [lo, hi]."""
    ts = _samples(grid, lo, hi, store)
    eta, _ = _vertical_many(sigma, ts, m, store, prec)
    # n^-sigma as n^-1/2 n^(1/2-sigma): the second factor is exactly 1 on
    # the line, where the coefficients keep the bits of sqrt(n).
    poly = prime_power_poly(
        X, lambda n, log_n, lam: (lam / (np.sqrt(n) * log_n ** (m + 1))
                                  * np.exp((0.5 - sigma) * log_n)),
        ts, "the plain polynomial")
    # X < 3 only reaches here for m >= 1, where Y_m does not read X.
    y = np.array([y_m(complex(sigma, t), max(X, 3.0), m, store)
                  for t in ts.tolist()])
    r = eta - _I_POW[m % 4] * poly - y
    # |r| by libm's hypot, as Python's abs of a complex takes it; numpy's
    # complex absolute differs from it in the last bit at about a third of
    # points.
    return np.hypot(r.real, r.imag)


def measure_t_m(T: float, X: float, V: float, m: int, grid: GridSpec, *,
                store: ZeroStore | None = None,
                prec: EvalPrecision = DEFAULT_PRECISION) -> MeasureEstimate:
    """Fraction of t in [T, 2T] where the plain-polynomial residual
    |eta_m - i^m sum_{2<=n<=X} Lambda(n)/(n^(1/2+it)(log n)^(m+1)) - Y_m|
    exceeds V.  The sum is unsmoothed: weight 1 up to X, nothing beyond.
    """
    store = store_or_builtin(store)
    _check_residual_call(T, X, m, m_min=0, t_min=14.0)
    _real(V, "threshold V")
    _check_grid("measure_t_m", T, grid, store)
    _check_doubles(2.0 * T, prec.abs_err)
    values = _residual_samples(grid, T, 2.0 * T, 0.5, X, m, store, prec)
    return _estimate(V, values, T)


def moment_residual(T: float, X: float, m: int, k: int, grid: GridSpec, *,
                    store: ZeroStore | None = None,
                    prec: EvalPrecision = DEFAULT_PRECISION,
                    sigma: float = 0.5, trial_c: float = 10.0,
                    interval: str = "theorem",
                    enforce_range: bool = True) -> dict:
    """Empirical (1/T) int |residual|^(2k) dt against the moment majorant.

    interval = "theorem" samples [14, T]; "dyadic" samples [T, 2T].  The
    hypothesis X <= T^(1/(135k)) is unreachable at desk scale; pass
    enforce_range=False to waive it (the returned record keeps both the
    interval convention and the waiver).
    """
    store = store_or_builtin(store)
    _integer(k, "k", 1)
    _real(sigma, "sigma", 0.5)
    if _real(trial_c, "trial_c") <= 0.0:
        raise ValidationError(f"trial_c > 0 required, got trial_c={trial_c}")
    if interval not in ("theorem", "dyadic"):
        raise ValidationError(f"interval must be 'theorem' or 'dyadic', "
                              f"got {interval!r}")
    lo, hi = (14.0, T) if interval == "theorem" else (T, 2.0 * T)
    _check_residual_call(T, X, m, m_min=1, t_min=28.0)
    _check_grid("moment_residual", T, grid, store, min_count=1, hi=hi)
    _check_doubles(hi, prec.abs_err)
    waived = bool(X > T ** (1.0 / (135.0 * k)))
    if waived and enforce_range:
        raise HypothesisViolated(
            f"X = {X} exceeds T^(1/(135k)) = {T ** (1.0 / (135.0 * k)):.4g}"
            f"; pass enforce_range=False to waive")
    # The majorant first: a k past the double range is refused unsampled.
    lx, lt = math.log(X), math.log(T)
    try:
        bound = (2.0 ** k * math.factorial(k)
                 * ((2.0 * m + 1.0) / (2.0 * m) + trial_c / lx) ** k
                 * X ** (k * (1.0 - 2.0 * sigma)) / lx ** (2 * k * m)
                 + trial_c ** k * float(k) ** (2 * k * (m + 1))
                 * T ** ((1.0 - 2.0 * sigma) / 135.0) / lt ** (2 * k * m))
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ValidationError(f"the moment majorant overflows at k={k}, m={m}")
    values = _residual_samples(grid, lo, hi, sigma, X, m, store, prec)
    empirical = (math.fsum(r ** (2 * k) for r in values.tolist())
                 / len(values) * (hi - lo) / T)
    return {"empirical": empirical, "bound": bound, "interval": interval,
            "hypothesis_waived": waived}


def tail_table(T: float, v_list, grid: GridSpec,
               store: ZeroStore | None = None,
               prec: EvalPrecision = DEFAULT_PRECISION) -> list[dict]:
    """One row per V: empirical log|zeta| tail vs Gaussian and raw shapes.

    Row keys: those of MeasureEstimate.row, then jutila_ref =
    exp(-V^2/loglog T).  A single scan is shared by all V.
    """
    store = store_or_builtin(store)
    v_list = [_real(v, "threshold V") for v in v_list]
    _check_grid("tail_table", T, grid, store)
    values = _log_abs_zeta_samples(T, grid, store, prec)
    llt = math.log(math.log(T))
    return [_estimate(v, values, T).row(jutila_ref=math.exp(-v * v / llt))
            for v in v_list]
