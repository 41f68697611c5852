"""Iterated integrals of log zeta: integration constants, both evaluation
routes, the zero-crossing polynomial, and S_m.

c_m references were frozen from split tanh-sinh quadrature at 25 digits
(real part of the integrand is log|zeta|; the imaginary part on (sigma, 1)
is the one-sided limit -pi, integrating to -pi (1-sigma)^m / m).
"""

import cmath
import math
import subprocess
import sys
import time
import tracemalloc

import mpmath
import numpy as np
import pytest

from zeta_eta import eta as eta_module
from zeta_eta import quadrature
from zeta_eta.approx import y_m
from zeta_eta.errors import (BudgetExceeded, NumericalError, OnSingularity,
                             ValidationError)
from zeta_eta.eta import (EtaValue, c_m, c_m_with_err, eta_iterated,
                          eta_vertical, route_check, s_m,
                          zero_sum_polynomial)
from zeta_eta.precision import DEFAULT_PRECISION, EvalPrecision
from zeta_eta.zeros import ZeroRecord, ZeroStore, builtin_store

C_M_ORACLE = {
    (0.5, 1): 1.5707963267948966 + 2.567789453152909j,
    (0.5, 2): -2.7748956248826797 + 0.39269908169872414j,
    (0.5, 3): -0.06544984694978737 - 2.9881824204138736j,
    (0.75, 1): 0.7853981633974483 + 2.3755995726500077j,
    (0.75, 2): -2.152564630020077 + 0.09817477042468103j,
    (1.5, 1): 0.8825033447107792j,
    (2.0, 1): 0.5365269459211771j,
    (2.0, 2): -0.6560847785313876 + 0j,
    (1.0, 1): 1.7975699586287395j,
    (0.0, 1): 3.141592653589793 + 2.4724628273177465j,
}


def test_c_m_oracle_grid():
    for (sigma, m), ref in C_M_ORACLE.items():
        got, est = c_m_with_err(sigma, m)
        assert abs(got - ref) < 5e-9, ((sigma, m), got, ref)
        assert abs(got - ref) <= est + 1e-12, "estimate must cover the error"
        assert c_m(sigma, m) == got


# c_m(1/2, m) from 30-digit mpmath quadrature, and eta_vertical(1/2 + 100i, m)
# from 30-digit mpmath tanh-sinh quadrature of the principal log zeta (its
# argument does not cross the cut on [1/2, 1.25] at t = 100, so it is the
# branch) up to sigma = 150, where the rest is below 1e-22.
LARGE_M = {
    4: (3.681284651381218 - 0.00818123086872342j,
        2.6710206212949249 - 0.62642465552861959j),
    6: (-6.779944649897633 + 6.81769239060285e-5j,
        -5.9467619018761971 + 1.2920597805136626j),
    8: (13.57377208796314 - 3.04361267437627e-7j,
        12.747897185259155 - 2.6583681298970669j),
    10: (-27.85993955377436 + 8.45447965104520e-10j,
         -26.853757643454185 + 5.5010693044118889j),
}


@pytest.mark.parametrize("m", sorted(LARGE_M))
def test_large_m_within_est_err_in_under_a_second(store, m):
    c_ref, eta_ref = LARGE_M[m]
    eta_module._c_m_cached.cache_clear()
    start = time.perf_counter()
    got, est = c_m_with_err(0.5, m)
    middle = time.perf_counter()
    ev = eta_vertical(complex(0.5, 100.0), m, store)
    assert max(middle - start, time.perf_counter() - middle) < 1.0
    assert abs(got - c_ref) <= est, (got, est)
    assert abs(ev.value - eta_ref) <= ev.est_err, (ev.value, ev.est_err)


def test_m_above_the_limit_is_refused(store):
    top = eta_module._M_MAX
    for call in (lambda m: c_m(0.5, m),
                 lambda m: eta_vertical(complex(0.5, 100.0), m, store),
                 lambda m: eta_iterated(complex(0.5, 100.0), m, store)):
        with pytest.raises(ValidationError, match=f"m={top + 1}"):
            call(top + 1)
    assert abs(eta_vertical(complex(0.5, 100.0), top, store).value) > 0


# i^m/(m-1)! int_4^inf (a - 1/2)^(m-1) log zeta(a + it) da from 30-digit
# mpmath tanh-sinh quadrature of the principal log zeta on [4, 150].
TAIL_AT_4 = {
    (1, 0.0): complex(0.0, 0.10415022531685991),
    (2, 0.0): complex(-0.50663975479090568, 0.0),
    (3, 0.0): complex(0.0, -1.333501455630239),
    (5, 0.0): complex(0.0, 4.259616369014753),
    (1, 14.1): complex(-0.027992148586745695, -0.095552551154331738),
    (2, 14.1): complex(0.4664541589862705, -0.13988312576572553),
    (3, 14.1): complex(0.37997944678249172, 1.2325781190721097),
    (5, 14.1): complex(-1.3014723323929071, -3.9688784185974073),
    (1, 1000.0): complex(0.072485902912661521, -0.031074758377312874),
    (2, 1000.0): complex(0.15685915099015102, 0.36347365528094269),
    (3, 1000.0): complex(-0.99122864632782822, 0.43104472160071367),
    (5, 1000.0): complex(3.4236529097905693, -1.5133089590035497),
    (1, 2150.0): complex(0.077201076259964774, 0.045735595954748377),
    (2, 2150.0): complex(-0.22145090995077776, 0.38450550956151338),
    (3, 2150.0): complex(-1.0402988081941776, -0.57915567022503007),
    (5, 2150.0): complex(3.5310243436960411, 1.8169951541970261),
}


@pytest.mark.parametrize("m,t", sorted(TAIL_AT_4))
def test_vertical_tail_is_the_quadrature_of_the_principal_log(m, t):
    got, est = eta_module._vertical_tail(m, 0.5, 4.0, t)
    assert abs(got - TAIL_AT_4[(m, t)]) <= est
    assert est < 1e-11


def test_tail_start_is_where_the_dropped_terms_meet_their_share():
    for abs_err in (1e-8, 1e-10):
        for m in (1, 2, 3, 5):
            a0 = eta_module._tail_start(m, 0.5, abs_err)
            target = eta_module._TAIL_SHARE * abs_err
            assert 1.0 < a0 <= 5.0
            assert eta_module._tail_bound(m, 0.5, a0) <= target
            if a0 - 0.25 > 1.0:
                assert eta_module._tail_bound(m, 0.5, a0 - 0.25) > target
    # right of the tail start no quadrature is needed: c_m is the sum alone
    assert eta_module._tail_start(1, 6.0, 1e-10) == 6.0


def test_vertical_route_leaves_the_full_sieve_unbuilt():
    # The tail's prime powers come from the sieve up to _TAIL_N; the
    # SIEVE_LIMIT table would add about 18 MB to every eta caller.
    code = ("from zeta_eta import approx, eta\n"
            "eta.eta_vertical(0.5 + 30j, 2)\n"
            "eta.c_m(0.5, 3)\n"
            "eta.route_check(0.6 + 40j, 1)\n"
            "built = (approx._lambda_table.cache_info().currsize,\n"
            "         approx._prime_mask.cache_info().currsize)\n"
            "hits = approx._lambda_table.cache_info().hits\n"
            "approx._lambda_table(eta._TAIL_N)\n"
            "print(built, approx._lambda_table.cache_info().hits - hits)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "(1, 1) 1"


def test_c_m_structure_on_the_left_of_one():
    # Im log zeta = -pi on (sigma, 1) makes i^1-rotated real parts exactly
    # pi (1-sigma)^1 / 1! for m = 1
    for sigma in (0.0, 0.25, 0.5, 0.75):
        got = c_m(sigma, 1)
        assert got.real == pytest.approx(math.pi * (1.0 - sigma), rel=1e-10)


def test_c_m_validation():
    with pytest.raises(ValidationError):
        c_m(0.5, 0)
    with pytest.raises(ValidationError):
        c_m(-1.5, 1)
    with pytest.raises(ValidationError):
        c_m(0.5, 2.5)


def test_zero_sum_polynomial_hand_case():
    # single off-line zero below t: 2 pi sum_k i^(m-1-k)/((m-k)! k!)
    #                                  (beta-sigma)^(m-k) (t-gamma)^k
    st = ZeroStore([ZeroRecord(10.0, 0.8), ZeroRecord(40.0, 0.5)], "test")
    sigma, t, b, g = 0.5, 30.0, 0.8, 10.0
    for m in (1, 2, 3):
        ref = 0j
        for k in range(m):
            ref += (2.0 * math.pi * (1j ** (m - 1 - k))
                    / math.factorial(m - k) / math.factorial(k)
                    * (b - sigma) ** (m - k) * (t - g) ** k)
        got, est = zero_sum_polynomial(m, sigma, t, st)
        assert abs(got - ref) <= max(est, 1e-12), m


def test_zero_sum_polynomial_refuses_m_above_the_limit():
    # with a zero right of sigma, m = 200 overflowed a float in the
    # factorials; it is refused naming m, directly and through y_m, while
    # the largest m accepted still answers finite
    st = ZeroStore([ZeroRecord(10.0, 0.8), ZeroRecord(40.0, 0.5)], "test")
    with pytest.raises(ValidationError, match="m=200"):
        zero_sum_polynomial(200, 0.5, 30.0, st)
    with pytest.raises(ValidationError, match="m=200"):
        y_m(complex(0.5, 30.0), 3.0, 200, st)
    val, est = zero_sum_polynomial(eta_module._M_MAX, 0.5, 30.0, st)
    assert eta_module._M_MAX == 82
    assert cmath.isfinite(val) and math.isfinite(est)


def test_zero_sum_empty_is_exact_zero(store):
    val, est = zero_sum_polynomial(2, 0.5, 50.0, store)
    assert val == 0j and est == 0.0
    # zeros strictly above sigma only
    val, _ = zero_sum_polynomial(1, 0.9, 50.0, store)
    assert val == 0j


def test_eta_at_t_zero_is_c_m():
    for sigma, m in [(2.0, 1), (0.75, 2), (1.5, 1)]:
        v = eta_vertical(complex(sigma, 0.0), m)
        w = eta_iterated(complex(sigma, 0.0), m)
        ref = c_m(sigma, m)
        assert abs(v.value - ref) < 1e-10
        assert abs(w.value - ref) < 1e-10


def test_eta_m_zero_delegates_to_log_zeta(store):
    from zeta_eta.branch import log_zeta_with_err
    s = complex(0.5, 30.0)
    ref, _ = log_zeta_with_err(s, store=store)
    assert abs(eta_vertical(s, 0, store).value - ref) < 1e-12
    assert abs(eta_iterated(s, 0, store).value - ref) < 1e-12


ROUTE_POINTS = [
    (0.5, 15.0, 1), (0.5, 15.0, 2), (0.5, 50.0, 3),
    (0.75, 33.3, 1), (1.0, 25.0, 2), (1.5, 100.0, 1),
    (0.6, 222.2, 2), (2.0, 40.0, 1),
]


@pytest.mark.parametrize("sigma,t,m", ROUTE_POINTS)
def test_route_agreement(store, sigma, t, m):
    chk = route_check(complex(sigma, t), m, store)
    assert chk["agree"], (sigma, t, m, chk["difference"], chk["tolerance"])


def test_route_agreement_on_exact_ordinate(store):
    g1 = float(store.gammas[0])
    chk = route_check(complex(0.5, g1), 1, store)
    assert chk["agree"]


def test_eta_vertical_validation(store):
    with pytest.raises(ValidationError):
        eta_vertical(complex(0.4, 20.0), 1, store)   # sigma < 1/2
    with pytest.raises(ValidationError):
        eta_vertical(complex(0.6, -5.0), 1, store)   # t < 0
    with pytest.raises(ValidationError):
        eta_vertical(complex(0.6, 20.0), -1, store)
    with pytest.raises(ValidationError):
        eta_vertical(complex(0.6, 1e9), 1, store)    # beyond the table


def test_eta_iterated_validation(store):
    with pytest.raises(ValidationError):
        eta_iterated(complex(-1.5, 20.0), 1, store)
    with pytest.raises(ValidationError):
        eta_iterated(complex(0.6, 1e9), 1, store)


def test_eta_value_type():
    v = eta_vertical(complex(1.5, 20.0), 1)
    assert isinstance(v, EtaValue)
    assert v.route == "vertical"
    assert v.est_err >= 0.0
    w = eta_iterated(complex(1.5, 20.0), 1)
    assert w.route == "iterated"
    with pytest.raises(ValidationError):
        EtaValue(s=1.5 + 2j, m=1, value=0j, route="vertical", est_err=-1.0)


def test_eta_conjugation_via_iterated(store):
    # eta at negative t: the iterated route integrates downward; values
    # conjugate those at +t for m even, anti-conjugate for m odd... the
    # library instead refuses t < 0 on the vertical route and the iterated
    # route only handles t >= 0; both document the restriction.
    with pytest.raises(ValidationError):
        eta_iterated(complex(0.6, -3.0), 1, store)


def test_s_m_values(store):
    # S_0 = S(t); S_1 is continuous across ordinates, S_0 jumps by 1
    g1 = float(store.gammas[0])
    s0_lo = s_m(g1 - 1e-6, 0, store)
    s0_hi = s_m(g1 + 1e-6, 0, store)
    assert s0_hi - s0_lo == pytest.approx(1.0, abs=1e-3)
    s1_lo = s_m(g1 - 1e-6, 1, store)
    s1_hi = s_m(g1 + 1e-6, 1, store)
    assert abs(s1_hi - s1_lo) < 1e-4
    # frozen S(30) from the branch oracle
    assert s_m(30.0, 0, store) == pytest.approx(-0.5648774443614166, abs=1e-9)


def test_s_1_matches_vertical_eta(store):
    t = 50.0
    ref = eta_vertical(complex(0.5, t), 1, store).value.imag / math.pi
    assert s_m(t, 1, store) == pytest.approx(ref, abs=1e-12)


def test_eta_log_t_shape(store):
    # |eta_m| grows no faster than log t on the half-line for m >= 1
    # (constant frozen with margin; measured worst 0.56 on this sample)
    for m in (1, 2):
        for t in (20.0, 111.0, 300.0):
            v = eta_vertical(complex(0.5, t), m, store)
            assert abs(v.value) <= 2.0 * math.log(t), (m, t)


def test_s1_log_bound(store):
    # measured worst 0.108 on this sample; frozen constant 0.5
    for k in range(19):
        t = 20.0 + 10.0 * k
        assert abs(s_m(t, 1, store)) <= 0.5 * math.log(t), t


def test_injected_zero_real_growth():
    # a zero at 3/4 + 20i makes Re eta_2's zero term grow linearly in t
    st = ZeroStore([ZeroRecord(14.13), ZeroRecord(20.0, 0.75),
                    ZeroRecord(30.0)], "test")
    vals = [zero_sum_polynomial(2, 0.5, t, st)[0].real
            for t in (22.0, 25.0, 28.0)]
    assert 0.0 < vals[0] < vals[1] < vals[2]
    # linear growth: equal steps in t give equal steps in value
    assert vals[2] - vals[1] == pytest.approx(vals[1] - vals[0], rel=1e-9)


def test_route_difference_within_combined_estimate_at_height(store):
    # the expensive check at a zero-dense height
    chk = route_check(complex(0.5, 300.0), 2, store,
                      EvalPrecision(abs_err=1e-9))
    assert chk["agree"]
    assert chk["difference"] < 1e-6


def test_routes_agree_above_300(store):
    # acceptance C2 stops at t = 300: seeded points up to the table's top
    rng = np.random.default_rng(13)
    sigmas = rng.uniform(0.5, 2.0, 8)
    ts = rng.uniform(300.0, 2140.0, 8)
    ms = rng.integers(1, 3, 8)
    for sigma, t, m in zip(sigmas, ts, ms):
        chk = route_check(complex(sigma, t), int(m), store)
        assert chk["agree"], (sigma, t, m, chk["difference"], chk["tolerance"])


# --- the sweep's model: one closed form per row over its run of panels ---------

# Panel edges as the sweep cuts them: at the ordinates, at most 1 apart.  The
# zero rows' runs straddle their ordinate gamma = 100.3, a panel edge; the
# pole's run is the panels within 1.5 of u = 0, below the first ordinate.
_RUN_ZERO = [98.87, 99.6, 100.3, 101.05, 101.8]
_RUN_POLE = np.linspace(0.0, 14.134725141734693, 16)[:3].tolist()


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("mu,c,gam,edges", [
    (1.0, -0.25, 100.3, _RUN_ZERO),         # beta right of sigma: the cut
    (2.0, 0.0, 100.3, _RUN_ZERO),           # beta = sigma: log singularity
    (1.0, 0.25, 100.3, _RUN_ZERO),          # beta left of sigma
    (-1.0, -0.5, 0.0, _RUN_POLE),           # the pole at sigma = 0.5
    (-1.0, 1.0, 0.0, _RUN_POLE),            # the pole at sigma = 2
])
def test_model_piece_over_a_run_is_the_sum_of_its_panels(m, mu, c, gam,
                                                          edges):
    # One call, the run and its panels as rows: the run's piece and its
    # panels' exact sum may differ by 2e-16 of the final binomial terms'
    # mass of both sides (measured at most 1.6e-16 of it, the pole at
    # sigma = 0.5 with m = 3).
    t_eff = 103.9
    rows = len(edges)
    pieces, terms, _ = eta_module._model_pieces(
        m, t_eff, np.array(edges[:1] + edges[:-1]),
        np.array(edges[-1:] + edges[1:]), np.full(rows, mu),
        np.full(rows, c), np.full(rows, gam))
    whole = pieces[0]
    total = complex(math.fsum(pieces[1:].real), math.fsum(pieces[1:].imag))
    assert abs(whole - total) <= 2e-16 * terms.sum(), (whole, total, terms)


def _model_piece_by_row(m, t_eff, a, b, mu, c, gam):
    """One row's piece in Python scalars, segment by segment and term by
    term: the reference the array pass must equal bit for bit."""
    wa, wb = a - gam, b - gam
    ls = [0j] * m
    for lo, hi in ([(wa, 0.0), (0.0, wb)] if c < 0.0 and wa < 0.0 < wb
                   else [(wa, wb)]):
        la, lb = (cmath.log(complex(c, w or math.copysign(0.0, lo + hi)))
                  if c != 0.0 or w != 0.0 else 0j for w in (lo, hi))
        js = [(lb - la) / 1j]
        for k in range(1, m + 1):
            js.append(((hi ** k - lo ** k) / k - c * js[-1]) / 1j)
        for j in range(m):
            ls[j] += (hi ** (j + 1) * lb - lo ** (j + 1) * la
                      - 1j * js[j + 1]) / (j + 1)
    total = 0j
    for j in range(m):
        total += (math.comb(m - 1, j) * (t_eff - gam) ** (m - 1 - j)
                  * (-1.0) ** j * ls[j])
    return mu * total


def _sweep_row(rng, family, t_eff):
    """A row (a, b, mu, c, gamma) with its run [a, b] as the sweep makes
    them below t_eff: zero rows with c = -0.25 across the cut at gamma,
    zero rows with c = 0 and 0.25, and pole rows from u = 0 at sigma = 0.5
    and 2, by family 0-4."""
    if family >= 3:
        return 0.0, float(rng.uniform(0.1, 2.5)), -1.0, (-0.5, 1.0)[
            family - 3], 0.0
    gam = float(rng.uniform(14.0, t_eff - 1.5 if family == 0
                            else t_eff + 1.4))
    return (max(0.0, gam - float(rng.uniform(1.5, 2.5))),
            min(t_eff, gam + float(rng.uniform(1.5, 2.5))), 1.0,
            (-0.25, 0.0, 0.25)[family], gam)


def test_model_pieces_are_the_row_by_row_closed_form():
    # the array pass does the row-by-row arithmetic: 2,000 rows, m <= 5,
    # t_eff <= 2100, equal bit for bit
    rng = np.random.default_rng(21)
    for _ in range(80):
        m, t_eff = int(rng.integers(1, 6)), float(rng.uniform(20.0, 2100.0))
        rows = [_sweep_row(rng, k % 5, t_eff) for k in range(25)]
        got = eta_module._model_pieces(m, t_eff, *map(np.array, zip(*rows)))
        assert got[0].tolist() == [_model_piece_by_row(m, t_eff, *row)
                                   for row in rows], (m, t_eff)


def test_model_pieces_within_their_allowance_of_mpmath():
    # The sweep allows each piece 2e-16 of its two masses (measured at
    # most 6.4e-17 of them); the binomial terms' mass alone misses the
    # cancellation inside the L_j, by up to 3.7e-15 of it on 43 of these
    # runs.  m <= 3, t_eff <= 2100, a row of each family in turn.
    rng = np.random.default_rng(5)
    with mpmath.workdps(40):
        for run in range(100):
            m = int(rng.integers(1, 4))
            t_eff = float(rng.uniform(20.0, 2100.0))
            a, b, mu, c, gam = _sweep_row(rng, run % 5, t_eff)
            piece, terms, inner = eta_module._model_pieces(
                m, t_eff, *(np.array([x]) for x in (a, b, mu, c, gam)))
            ref = mu * mpmath.quad(
                lambda u: (t_eff - u) ** (m - 1) * mpmath.log(
                    c + 1j * (u - gam)),
                [a, gam, b] if a < gam < b else [a, b])
            err = float(abs(mpmath.mpc(piece[0]) - ref))
            assert err <= 2e-16 * (terms[0] + inner[0]), (
                run, m, t_eff, a, b, c, gam, err, terms[0], inner[0])


# --- the iterated sweep's batched walk -----------------------------------------

def test_sweep_midpoint_insertion_inside_panels(store, monkeypatch):
    # a small continuity step makes nodes of a batch fall back to midpoint
    # insertion; the value stays within the unpatched estimate
    s = complex(0.5, 40.0)
    ref = eta_iterated(s, 2, store)
    inserted = []
    walk = eta_module._Sweep.eval

    def counted(self, u, depth=0):
        if depth > 0:
            inserted.append(u)
        return walk(self, u, depth)

    monkeypatch.setattr(sys.modules["zeta_eta.branch"], "_CONT_STEP", 0.02)
    monkeypatch.setattr(eta_module._Sweep, "eval", counted)
    got = eta_iterated(s, 2, store)
    assert len(inserted) > 100
    assert abs(got.value - ref.value) <= ref.est_err


def test_sweep_midpoint_on_a_model_root_is_refused(store):
    # sigma = beta of a hypothetical zero at 0.75 + 30i, which zeta lacks:
    # G steps at u = 30, and the midpoint insertion reaches u = 30, where
    # the zero's model row has no logarithm
    injected = store.inject_hypothetical(0.75, 30.0)
    with pytest.raises(NumericalError,
                       match="continuation of log zeta stalled"):
        eta_iterated(complex(0.75, 45.0), 1, injected)


def test_sweep_budget_counts_nodes(store, monkeypatch):
    monkeypatch.setattr(sys.modules["zeta_eta.branch"], "_WALK_BUDGET", 200)
    with pytest.raises(BudgetExceeded, match="exceeded 200 nodes"):
        eta_iterated(complex(0.5, 30.0), 1, store)


def test_sweep_peak_memory_at_the_table_top(store):
    # tracemalloc's peak over eta_iterated(0.5 + 2140i, 1), after a warm-up
    # at t = 100: with one zeta pass per sweep panel this test measured
    # 1,587,681 bytes, and with a block of 32 panels per pass 1,220,925
    # (CPython 3.11.7, numpy 2.4.6)
    eta_iterated(complex(0.5, 100.0), 1, store)
    tracemalloc.start()
    try:
        eta_iterated(complex(0.5, 2140.0), 1, store)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1_587_681


def test_sweep_zero_in_a_batch_is_a_singularity(store, monkeypatch):
    # one node of a block of panels evaluating to exactly zero
    real_em = eta_module._zeta_em

    def with_zero(line, coords, prec, want_deriv):
        vals, ders, rems = real_em(line, coords, prec, want_deriv)
        if len(vals) > quadrature._NODES.size:
            vals[7] = 0j
        return vals, ders, rems

    monkeypatch.setattr(eta_module, "_zeta_em", with_zero)
    with pytest.raises(OnSingularity, match="= 0 at working precision"):
        eta_iterated(complex(0.5, 30.0), 1, store)


def test_sweep_takes_one_zeta_pass_per_call(store, monkeypatch):
    # every call of the sweep, a block of panels or a single node, makes
    # one _zeta_em pass, within that call, at exactly the nodes it is
    # handed: no zeta is evaluated ahead of the call
    real_em = eta_module._zeta_em
    walk = eta_module._Sweep.eval
    passes, handed, open_calls = [], [], []

    def counted_em(line, coords, prec, want_deriv):
        passes.append((len(open_calls), np.array(coords)))
        return real_em(line, coords, prec, want_deriv)

    def counted(self, u, depth=0):
        handed.append(np.ravel(u))
        open_calls.append(u)
        try:
            return walk(self, u, depth)
        finally:
            open_calls.pop()

    monkeypatch.setattr(eta_module, "_zeta_em", counted_em)
    monkeypatch.setattr(eta_module._Sweep, "eval", counted)
    eta_iterated(complex(0.5, 700.3), 1, store)
    assert len(handed) > 2 and len(passes) == len(handed)
    for (inside, coords), nodes in zip(passes, handed):
        assert inside > 0 and np.array_equal(coords, nodes)


def test_sweep_refuses_a_block_past_its_last_panel():
    # a sweep of two panels at sigma = 2, its window the pole row alone,
    # takes both in one block and refuses a third panel
    panels = np.array([[0.25, 0.5], [0.5, 1.0]])
    sweep = eta_module._Sweep(2.0, DEFAULT_PRECISION, np.array([-1.0]),
                              np.array([1.0 + 0j]), np.zeros(2, dtype=int),
                              np.ones(2, dtype=int))
    sweep.anchor()
    us = quadrature._nodes(panels[:, :1], panels[:, 1:])
    g, err = sweep.eval(us)
    assert g.shape == err.shape == us.shape
    log_zeta = g - np.log(1.0 + 1j * us)
    assert abs(log_zeta[1, -1] - cmath.log(complex(
        mpmath.zeta(complex(2.0, us[1, -1]))))) <= 1e-12
    with pytest.raises(NumericalError, match="past the sweep's last panel"):
        sweep.eval(us[1:] + 0.5)


def _linspace_panels(t_eff, store):
    # the panels as cut one interval at a time by np.linspace
    gs = store.gammas
    edges = np.unique(np.concatenate(([0.0, t_eff],
                                      gs[(gs > 0.0) & (gs < t_eff)])))
    lo, hi = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        sub = np.linspace(a, b, max(1, math.ceil((b - a) / 1.0)) + 1)
        lo.append(sub[:-1])
        hi.append(sub[1:])
    return np.column_stack((np.concatenate(lo), np.concatenate(hi)))


# 1.7 + 3 ((3.89 - 1.7) / 3) is 3.8900000000000006: linspace sets the end
# of [1.7, 3.89] to 3.89
_OFF_END = ZeroStore([ZeroRecord(1.7), ZeroRecord(30.0)], "test")


@pytest.mark.parametrize("table, top", [
    (None, None), (None, 2140.0), (None, 0.7), (None, 14.134725141734694),
    (_OFF_END, 3.89)])
def test_line_panels_are_the_linspace_panels(store, table, top):
    table = table or store
    t_eff = table.t_max - 2.5 if top is None else top
    assert eta_module._PANEL_MAX == 1.0
    assert np.array_equal(eta_module._line_panels(t_eff, table),
                          _linspace_panels(t_eff, table))


def test_sweep_unwrap_matches_the_node_walk(store, monkeypatch,
                                            node_by_node_pin):
    # every node of every block: the same winding integer as pinning node
    # by node, and G equal to rounding; the pole row is in the window at
    # t <= 1.5, and sigma = 1 anchors G without it
    rng = np.random.default_rng(6)
    sweeps = [(float(rng.uniform(-0.9, 2.0)), float(rng.uniform(2.0, 2140.0)))
              for _ in range(4)]
    sweeps += [(1.0, 700.3), (1.0, 1.2), (-0.5, 1.5), (0.5, 2140.0)]
    walk = eta_module._Walk.pin
    single_pins = []

    def runs(pin):
        seen = []

        def recorded(self, xs, principal, depth, step=None, enter=None):
            g = pin(self, xs, principal, depth, step, enter)
            if step is not None:
                seen.append((principal.copy(), g.copy()))
            return g

        monkeypatch.setattr(eta_module._Walk, "pin", recorded)
        for sigma, t in sweeps:
            eta_module._iterated_integral(sigma, store.snap(t), 1, store,
                                          DEFAULT_PRECISION)
        return seen

    walk_one = eta_module._Walk._pin

    def counted(self, x, principal, depth):
        single_pins.append(x)
        return walk_one(self, x, principal, depth)

    monkeypatch.setattr(eta_module._Walk, "_pin", counted)
    block = runs(walk)
    nodes = sum(g.size for _, g in block)
    assert len(single_pins) <= 0.01 * nodes      # the unwrap pins the rest
    monkeypatch.setattr(eta_module._Walk, "_pin", walk_one)
    ref = runs(node_by_node_pin)
    assert len(block) == len(ref)
    for (p1, g1), (p2, g2) in zip(block, ref):
        assert np.array_equal(p1, p2)
        k1 = np.rint((g1.imag - p1.imag) / (2 * math.pi))
        k2 = np.rint((g2.imag - p2.imag) / (2 * math.pi))
        assert np.array_equal(k1, k2)
        assert np.all(np.abs(g1 - g2) <= 1e-15 * (1.0 + np.abs(g2)))


def test_sweep_failing_step_at_a_panels_first_node(store, monkeypatch,
                                                   node_by_node_pin):
    # zeta scaled by exp(+-0.4) past two panel edges, by ramps across the
    # gap between the panel's last node and the next one's first, where the
    # previous G is rebased into the new window: at panel 5, inside the
    # first block, and at panel 32, the second block's first.  With
    # _CONT_STEP at 0.3 only those two steps fail; the walk falls back
    # there, inserts midpoints in the gaps, and pins every node as the node
    # walk does.
    t_eff = store.snap(40.0)
    us = quadrature._nodes(*eta_module._line_panels(t_eff, store).T[:, :, None])
    gaps = [(us[p - 1, -1], us[p, 0]) for p in (5, 32)]
    real_em = eta_module._zeta_em

    def ramped(line, coords, prec, want_deriv):
        vals, ders, rems = real_em(line, coords, prec, want_deriv)
        x = np.atleast_1d(coords)
        lift = sum(sign * 0.4 * np.clip((x - lo) / (hi - lo), 0.0, 1.0)
                   for sign, (lo, hi) in zip((1, -1), gaps))
        return np.asarray(vals) * np.exp(lift), ders, rems

    inserted = []
    walk = eta_module._Sweep.eval

    def counted(self, u, depth=0):
        if depth > 0:
            inserted.append(u)
        return walk(self, u, depth)

    monkeypatch.setattr(sys.modules["zeta_eta.branch"], "_CONT_STEP", 0.3)
    monkeypatch.setattr(eta_module, "_zeta_em", ramped)
    monkeypatch.setattr(eta_module._Sweep, "eval", counted)
    got, _ = eta_module._iterated_integral(0.5, t_eff, 1, store,
                                           DEFAULT_PRECISION)
    for lo, hi in gaps:
        assert any(lo < u < hi for u in inserted), (lo, hi)
    assert all(any(lo < u < hi for lo, hi in gaps) for u in inserted)
    monkeypatch.setattr(eta_module._Walk, "pin", node_by_node_pin)
    ref, _ = eta_module._iterated_integral(0.5, t_eff, 1, store,
                                           DEFAULT_PRECISION)
    assert abs(got - ref) <= 1e-14 * (1.0 + abs(ref))
