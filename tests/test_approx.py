"""Smoothed Dirichlet polynomial, local zero term, remainder report, the
prime polynomial decomposition, and the tapered weights.

The von Mangoldt oracle below is trial division, independent of the sieve.
"""

import cmath
import functools
import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from zeta_eta import approx
from zeta_eta.approx import (SIEVE_LIMIT, ApproxConfig, ResidualReport,
                             dirichlet_poly, lambda_prime_x, lambda_x, p_f,
                             prime_power_poly, relzz_decompose, residual,
                             von_mangoldt, w_x, y_m)
from zeta_eta.errors import (BeyondSieve, BeyondTable, HypothesisViolated,
                             ValidationError, ZeroCoincidesWithS)
from zeta_eta.eta import _TAIL_N
from zeta_eta.kernels import DEFAULT_KERNEL, make_kernel, v_f_h
from zeta_eta.zeros import ZeroRecord, ZeroStore

PSI_100 = 94.0453112293574    # sum of Lambda(n), n <= 100 (trial division)


def _lambda_trial(n: int) -> float:
    for p in range(2, n + 1):
        if n % p == 0:
            m = n
            while m % p == 0:
                m //= p
            return math.log(p) if m == 1 else 0.0
    return 0.0


def test_von_mangoldt_against_trial_division():
    for n in list(range(1, 200)) + [256, 1024, 2187, 9973, 10000]:
        assert von_mangoldt(n) == pytest.approx(_lambda_trial(n), abs=1e-13)


def test_von_mangoldt_chebyshev_sum():
    assert sum(von_mangoldt(n) for n in range(1, 101)) == pytest.approx(
        PSI_100, abs=1e-10)


def test_von_mangoldt_validation():
    with pytest.raises(ValidationError):
        von_mangoldt(0)
    with pytest.raises(ValidationError):
        von_mangoldt(2.5)
    with pytest.raises(BeyondSieve):
        von_mangoldt(SIEVE_LIMIT + 1)


@functools.lru_cache(maxsize=2)
def _dense_lambda(limit: int) -> np.ndarray:
    """Lambda(n) for n = 0 .. limit as a dense table, filled as the sieve
    fills its column: np.log at the primes, math.log(p) at p^k, k >= 2."""
    primes = np.flatnonzero(approx._prime_mask(limit))
    lam = np.zeros(limit + 1)
    lam[primes] = np.log(primes)
    for p in primes[primes <= math.isqrt(limit)].tolist():
        q = p * p
        while q <= limit:
            lam[q] = math.log(p)
            q *= p
    return lam


def test_von_mangoldt_keeps_the_dense_tables_bits():
    # every n up to 10^4, each higher power up to the sieve's limit, and the
    # limit itself read the bits of the dense table; one past it is refused
    lam = _dense_lambda(SIEVE_LIMIT)
    prime = approx._prime_mask(SIEVE_LIMIT)
    higher = [p ** k for p in range(2, math.isqrt(SIEVE_LIMIT) + 1)
              if prime[p] for k in range(2, 21) if p ** k <= SIEVE_LIMIT]
    assert len(higher) == 302
    for n in list(range(1, 10_001)) + higher + [SIEVE_LIMIT]:
        assert von_mangoldt(n) == lam[n], n
    with pytest.raises(BeyondSieve):
        von_mangoldt(SIEVE_LIMIT + 1)


def test_prime_power_poly_support_and_refusals():
    t = 31.5
    at_0, at_t = prime_power_poly(100.7, lambda n, log_n, lam: lam,
                                  np.array([0.0, t]), "test")
    assert at_0 == pytest.approx(PSI_100, abs=1e-10)
    want = sum(_lambda_trial(n) * cmath.exp(-1j * t * math.log(n))
               for n in range(2, 101))
    assert abs(at_t - want) < 1e-12
    count = prime_power_poly(10, lambda n, log_n, lam: np.ones_like(n),
                             np.array([0.0]), "test", primes_only=True)
    assert count.tolist() == [4.0]              # 2, 3, 5, 7
    for bad in (1.99, -5.0, math.nan):
        with pytest.raises(ValidationError):
            prime_power_poly(bad, lambda n, log_n, lam: lam, np.array([0.0]),
                             "test")
    with pytest.raises(BeyondSieve):
        prime_power_poly(SIEVE_LIMIT + 1, lambda n, log_n, lam: lam,
                         np.array([0.0]), "test")


@pytest.mark.parametrize("n_max", [2, 10, 100.7, 8192, 8193, 10 ** 6,
                                   SIEVE_LIMIT])
def test_prime_power_poly_support_is_the_tables_nonzero_entries(n_max):
    # the support sliced from the sieve's columns is what a scan of the
    # dense Lambda table (and of the prime mask, for primes_only) finds,
    # with the table's Lambda bits and np.log's log n
    lam = _dense_lambda(_TAIL_N if n_max <= _TAIL_N else SIEVE_LIMIT)
    mask = approx._prime_mask(lam.size - 1)
    top = int(math.floor(n_max)) + 1
    for primes_only, table in ((False, lam), (True, mask)):
        seen = []

        def coef(n, log_n, lam_n):
            seen.append((n, log_n, lam_n))
            return np.zeros_like(n)

        prime_power_poly(n_max, coef, np.array([0.0]), "test",
                         primes_only=primes_only)
        (n, log_n, lam_n), = seen
        want = np.flatnonzero(table[:top])
        assert np.array_equal(n, want.astype(float)), (n_max, primes_only)
        assert np.array_equal(log_n, np.log(want.astype(float)))
        assert np.array_equal(lam_n, lam[want])


def test_dirichlet_poly_matches_the_sum_over_a_table_scan():
    # X = 1000: the coefficients over the support found by scanning the
    # dense table, summed as prime_power_poly sums them, give the same bits
    cfg = ApproxConfig(m=1, X=1000.0)
    lam = _dense_lambda(SIEVE_LIMIT)
    idx = np.nonzero(lam[:cfg.n_max + 1])[0]
    n = idx.astype(float)
    log_n = np.log(n)
    v = 1.0 - cfg.kernel.f_cdf(cfg.H * (log_n / math.log(cfg.X) - 1.0))
    a = lam[idx] * v / (np.exp(0.5 * log_n) * log_n ** 2)
    ts = [100.0, 750.0, 1400.0]
    want = [1j * complex(np.sum(a * np.exp(-1j * t * log_n))) for t in ts]
    assert dirichlet_poly([complex(0.5, t) for t in ts], cfg) == want


def test_short_sums_leave_the_full_sieve_unbuilt():
    # sums up to _TAIL_N read the sieve eta's tail built; the SIEVE_LIMIT
    # one, about 5.7 MB with its prime mask, is built only for a sum that
    # reaches past it
    code = ("from zeta_eta import approx, distribution, eta\n"
            "def built():\n"
            "    sieves = (approx._lambda_table, approx._prime_mask)\n"
            "    sizes = [f.cache_info().currsize for f in sieves]\n"
            "    hits = [f.cache_info().hits for f in sieves]\n"
            "    for f in sieves:\n"
            "        f(eta._TAIL_N)\n"
            "    return sizes, [f.cache_info().hits - h\n"
            "                   for f, h in zip(sieves, hits)]\n"
            "grid = distribution.GridSpec(count=100, seed=1)\n"
            "distribution.measure_t_m(100.0, 100.0, 0.5, 1, grid)\n"
            "approx.p_f(0.5 + 20j, 10.0)\n"
            "print(built())\n"
            "cfg = approx.ApproxConfig(m=1, X=1e3)\n"
            "approx.dirichlet_poly(0.5 + 20j, cfg)\n"
            "print(built())\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["([1, 1], [1, 1])",
                                          "([2, 2], [1, 1])"]


def test_config_validation_and_n_max():
    cfg = ApproxConfig(m=1, X=10.0, H=1.0)
    assert cfg.n_max == 100
    assert ApproxConfig(m=0, X=8.0, H=2.0).n_max == int(8.0 ** 1.5)
    for bad in [dict(m=-1, X=10.0, H=1.0), dict(m=1.5, X=10.0, H=1.0),
                dict(m=1, X=2.0, H=1.0), dict(m=1, X=10.0, H=0.5)]:
        with pytest.raises(ValidationError):
            ApproxConfig(**bad)
    with pytest.raises(ValidationError):
        ApproxConfig(m=1, X=10.0, H=1.0, kernel="poly_bump")


def test_dirichlet_poly_term_by_term():
    # independent assembly: explicit loop over n with the scalar weight
    cfg = ApproxConfig(m=1, X=10.0, H=1.0)
    s = complex(0.7, 21.3)
    ref = 0j
    for n in range(2, cfg.n_max + 1):
        lam = _lambda_trial(n)
        if lam == 0.0:
            continue
        v = v_f_h(cfg.kernel, cfg.H, math.exp(math.log(n) / math.log(cfg.X)))
        ref += lam * v / (n ** s * math.log(n) ** 2)
    ref *= 1j
    got = dirichlet_poly(s, cfg)
    assert abs(got - ref) < 1e-12, (got, ref)


def test_dirichlet_poly_on_a_line_matches_each_point(monkeypatch):
    # one build for the whole line, and every value bit for bit the one a
    # single point gets
    cfg = ApproxConfig(m=3, X=100.0, H=2.0, kernel=make_kernel("tent"))
    points = [complex(0.75, t) for t in (20.0, 333.5, 1400.0)]
    each = [dirichlet_poly(z, cfg) for z in points]
    built = []

    def counting_poly(*args, **kwargs):
        built.append(args[0])
        return prime_power_poly(*args, **kwargs)

    monkeypatch.setattr(approx, "prime_power_poly", counting_poly)
    assert dirichlet_poly(points, cfg) == each
    assert dirichlet_poly(np.array(points), cfg) == each
    assert built == [cfg.n_max, cfg.n_max]
    for bad in ([], [complex(0.75, 20.0), complex(0.5, 30.0)]):
        with pytest.raises(ValidationError, match="one vertical line"):
            dirichlet_poly(bad, cfg)


def test_dirichlet_poly_m0_tracks_log_zeta_at_sigma_two():
    from zeta_eta.branch import log_zeta
    cfg = ApproxConfig(m=0, X=300.0, H=1.0)
    got = dirichlet_poly(complex(2.0, 0.0), cfg)
    assert abs(got - log_zeta(complex(2.0, 0.0))) < 1e-3


def test_dirichlet_poly_rotation_power():
    # the i^m prefactor, checked term-by-term at m = 2 (factor -1)
    cfg = ApproxConfig(m=2, X=10.0, H=1.0)
    s = complex(0.8, 18.0)
    ref = 0j
    for n in range(2, cfg.n_max + 1):
        lam = _lambda_trial(n)
        if lam == 0.0:
            continue
        v = v_f_h(cfg.kernel, cfg.H, math.exp(math.log(n) / math.log(cfg.X)))
        ref += lam * v / (n ** s * math.log(n) ** 3)
    assert abs(dirichlet_poly(s, cfg) - (-1.0) * ref) < 1e-12


def test_y_m_positive_m_is_zero_on_line_store(store):
    assert y_m(complex(0.5, 50.0), 3.0, 1, store) == 0j
    assert y_m(complex(0.5, 50.0), 1000.0, 2, store) == 0j


def test_y_m_positive_m_ignores_x(off_line_store):
    a = y_m(complex(0.5, 25.0), 3.0, 1, off_line_store)
    b = y_m(complex(0.5, 25.0), 1000.0, 1, off_line_store)
    assert a == b and a != 0j


def test_y_zero_window_hand_case():
    st = ZeroStore([ZeroRecord(20.0), ZeroRecord(40.0)], "test")
    X = math.exp(2.0)                    # window radius 1/2
    got = y_m(complex(0.5, 20.3), X, 0, st)
    assert abs(got - cmath.log(complex(0.0, 0.3) * 2.0)) < 1e-12
    # outside the window: empty sum
    assert y_m(complex(0.5, 21.0), X, 0, st) == 0j


def test_y_zero_branch_remap(off_line_store):
    # s directly left of an off-line zero: arg(dz log X) = pi remaps to -pi
    X = math.exp(5.0)                    # window radius 1/5
    got = y_m(complex(0.6, 20.0), X, 0, off_line_store)
    assert got.imag == -math.pi
    assert got.real == pytest.approx(math.log(0.15 * 5.0), abs=1e-12)


def test_y_zero_real_part_nonpositive(store):
    # every window term is log(|dz| log X) <= log 1
    for t in (30.0, 52.97, 111.0, 237.5):
        assert y_m(complex(0.5, t), 10.0, 0, store).real <= 1e-12


def test_y_m_refusals(off_line_store):
    with pytest.raises(ZeroCoincidesWithS):
        y_m(complex(0.75, 20.0), math.exp(5.0), 0, off_line_store)
    with pytest.raises(BeyondTable):
        y_m(complex(0.5, 29.99), 3.0, 0, off_line_store)   # window exits table
    with pytest.raises(BeyondTable):
        y_m(complex(0.5, 31.0), 3.0, 1, off_line_store)
    with pytest.raises(ValidationError):
        y_m(complex(0.5, 20.0), 2.0, 0, off_line_store)
    with pytest.raises(ValidationError):
        y_m(complex(0.5, 20.0), 10.0, -1, off_line_store)


def test_residual_report_identity_and_bounds(store):
    cfg = ApproxConfig(m=1, X=30.0, H=1.0)
    rep = residual(complex(0.5, 100.0), cfg, store)
    assert isinstance(rep, ResidualReport)
    assert rep.eta - rep.poly - rep.y_m == rep.r_m      # exact split
    assert rep.bound_esrm > 0.0 and rep.bound_esrm2 > 0.0
    assert rep.ratio == abs(rep.r_m) / rep.bound_esrm2


def test_residual_ratio_bounded_across_x(store):
    # the on-line shape: one constant covers the ratio across X
    ratios = []
    for X in (10.0, 50.0, 200.0):
        cfg = ApproxConfig(m=1, X=X, H=1.0)
        ratios.append(residual(complex(0.5, 100.0), cfg, store).ratio)
    assert all(0.0 < r <= 1.0 for r in ratios), ratios


def test_m0_split_tracks_online_shape(store):
    # |log zeta - poly - Y_0| stays within one constant of the on-line
    # bound shape across heights (constant frozen with a wide margin;
    # measured worst ratio 0.236 on this sample)
    cfg = ApproxConfig(m=0, X=20.0, H=1.0)
    for t in (20.0, 75.0, 150.0, 300.0):
        rep = residual(complex(0.5, t), cfg, store)
        assert rep.ratio <= 1.0, (t, rep.ratio)


def test_bound_esrm2_h_shape(store):
    # with X and t fixed the on-line shape scales as
    # 1/loglog t + log(H+2)/log X, read off the formula
    t, X = 100.0, 10.0
    llt = math.log(math.log(t))
    lX = math.log(X)
    base = residual(complex(0.5, t), ApproxConfig(m=1, X=X, H=1.0),
                    store).bound_esrm2
    for H in (4.0, 10.0):
        b = residual(complex(0.5, t), ApproxConfig(m=1, X=X, H=H),
                     store).bound_esrm2
        expect = base * (1 / llt + math.log(H + 2) / lX) \
            / (1 / llt + math.log(3.0) / lX)
        assert b == pytest.approx(expect, rel=1e-12)


def test_residual_validation(store):
    cfg = ApproxConfig(m=1, X=10.0, H=1.0)
    with pytest.raises(ValidationError):
        residual(complex(0.5, 10.0), cfg, store)     # t < 14
    with pytest.raises(ValidationError):
        residual(complex(0.4, 50.0), cfg, store)     # sigma < 1/2
    for sigma in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="sigma"):
            residual(complex(sigma, 50.0), cfg, store)
    with pytest.raises(BeyondTable):
        residual(complex(0.5, 2000.0), cfg, store)   # 1.5 t beyond table


def test_residual_refuses_h_above_half_t(store):
    # the bounds assume 1 <= H <= t/2; a huge H used to overflow in the
    # unconditional shape
    for h in (50.5, 1e300):
        with pytest.raises(HypothesisViolated, match=re.escape(f"H={h!r}")):
            residual(complex(0.5, 100.0), ApproxConfig(m=1, X=10.0, H=h),
                     store)
    rep = residual(complex(0.5, 100.0), ApproxConfig(m=1, X=10.0, H=50.0),
                   store)
    assert math.isfinite(rep.bound_esrm) and math.isfinite(rep.ratio)


def test_p_f_term_by_term():
    s = complex(0.5, 33.0)
    X = 3.0
    ref = 0j
    for p in (2, 3, 5, 7):
        v = v_f_h(DEFAULT_KERNEL, 1.0, math.exp(math.log(p) / math.log(X)))
        ref += v / p ** s
    assert abs(p_f(s, X) - ref) < 1e-12


def test_p_f_weight_support():
    # primes above X^2 contribute nothing; X large enough to cover p=2 fully
    assert p_f(complex(0.5, 20.0), 3.0) != 0j
    with pytest.raises(ValidationError):
        p_f(complex(0.5, 20.0), 2.0)
    with pytest.raises(BeyondSieve):
        p_f(complex(0.5, 20.0), 2000.0)   # X^2 = 4e6 beyond the sieve


def test_relzz_decomposition_parts(store):
    out = relzz_decompose(100.0, 10.0, store=store)
    assert set(out) == {"lhs", "main1", "main2", "diff"}
    assert out["diff"] == out["lhs"] - out["main1"] - out["main2"]
    scale = math.log(100.0) / math.log(math.log(100.0))
    assert abs(out["diff"]) <= 2.0 * scale
    out2 = relzz_decompose(500.0, 12.0, store=store)
    scale2 = math.log(500.0) / math.log(math.log(500.0))
    assert abs(out2["diff"]) <= 2.0 * scale2


def test_relzz_validation(store, off_line_store):
    with pytest.raises(ValidationError):
        relzz_decompose(10.0, 5.0, store=store)          # t < 14
    with pytest.raises(ValidationError):
        relzz_decompose(100.0, 3.0, store=store)         # X < log t
    with pytest.raises(ValidationError):
        relzz_decompose(100.0, 101.0, store=store)       # X > t
    with pytest.raises(HypothesisViolated):
        relzz_decompose(25.0, 5.0, store=off_line_store)
    with pytest.raises(BeyondTable):
        relzz_decompose(2151.7, 10.0, store=store)


def test_w_x_anchors_and_midpoints():
    X = 10.0
    assert w_x(1.0, X) == 1.0
    assert w_x(X, X) == 1.0
    assert w_x(X * X, X) == pytest.approx(0.5, abs=1e-12)
    assert w_x(X ** 1.5, X) == pytest.approx(0.875, abs=1e-12)
    assert w_x(X ** 2.5, X) == pytest.approx(0.125, abs=1e-12)
    assert w_x(X ** 3, X) == pytest.approx(0.0, abs=1e-12)
    assert w_x(X ** 3 + 1.0, X) == 0.0
    assert w_x(1e9, X) == 0.0


def test_w_x_validation():
    with pytest.raises(ValidationError):
        w_x(0.0, 10.0)
    with pytest.raises(ValidationError):
        w_x(5.0, 2.0)


@settings(max_examples=60, deadline=None)
@given(st_.floats(min_value=1.0, max_value=999.0),
       st_.floats(min_value=1.0, max_value=999.0))
def test_w_x_monotone_nonincreasing(y1, y2):
    X = 10.0
    lo, hi = sorted((y1, y2))
    assert w_x(lo, X) >= w_x(hi, X) - 1e-12


def test_lambda_x_is_weighted_von_mangoldt():
    X = 10.0
    for n in (2, 9, 13, 50, 128, 999, 1001):
        assert lambda_x(n, X) == pytest.approx(
            _lambda_trial(n) * w_x(float(n), X), abs=1e-13)
    # unweighted below X, dead above X^3
    for n in (2, 3, 5, 7, 9):
        assert lambda_x(n, X) == von_mangoldt(n)
    assert lambda_x(1009, X) == 0.0


def test_lambda_prime_x_pieces():
    X = 10.0
    assert lambda_prime_x(7, X) == pytest.approx(math.log(7), abs=1e-13)
    # X < n <= X^2: Lambda(n) log(X^2/n)/log X
    assert lambda_prime_x(13, X) == pytest.approx(
        math.log(13) * math.log(100.0 / 13.0) / math.log(10.0), abs=1e-13)
    assert lambda_prime_x(64, X) == pytest.approx(
        math.log(2) * math.log(100.0 / 64.0) / math.log(10.0), abs=1e-13)
    assert lambda_prime_x(101, X) == 0.0
    assert lambda_prime_x(12, X) == 0.0     # Lambda(12) = 0
    with pytest.raises(ValidationError):
        lambda_prime_x(7, 2.0)
