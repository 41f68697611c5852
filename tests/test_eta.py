"""Iterated integrals of log zeta: integration constants, both evaluation
routes, the zero-crossing polynomial, and S_m.

c_m references were frozen from split tanh-sinh quadrature at 25 digits
(real part of the integrand is log|zeta|; the imaginary part on (sigma, 1)
is the one-sided limit -pi, integrating to -pi (1-sigma)^m / m).
"""

import math
import sys

import numpy as np
import pytest

from zeta_eta import eta as eta_module
from zeta_eta.errors import (BudgetExceeded, NumericalError, OnSingularity,
                             ValidationError)
from zeta_eta.eta import (EtaValue, c_m, c_m_with_err, eta_iterated,
                          eta_vertical, route_check, s_m,
                          zero_sum_polynomial)
from zeta_eta.precision import EvalPrecision
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


def test_sweep_budget_counts_nodes(store, monkeypatch):
    monkeypatch.setattr(sys.modules["zeta_eta.branch"], "_WALK_BUDGET", 200)
    with pytest.raises(BudgetExceeded, match="exceeded 200 nodes"):
        eta_iterated(complex(0.5, 30.0), 1, store)


def test_sweep_zero_in_a_batch_is_a_singularity(store, monkeypatch):
    # one node of a panel's batch evaluating to exactly zero
    real_em = eta_module._zeta_em

    def with_zero(line, coords, prec, want_deriv):
        vals, ders, rems = real_em(line, coords, prec, want_deriv)
        if len(vals) == 30:
            vals[7] = 0j
        return vals, ders, rems

    monkeypatch.setattr(eta_module, "_zeta_em", with_zero)
    with pytest.raises(OnSingularity, match="= 0 at working precision"):
        eta_iterated(complex(0.5, 30.0), 1, store)
