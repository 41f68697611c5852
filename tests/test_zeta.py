"""Euler-Maclaurin zeta, log-derivative guards, log Gamma, theta, Hardy Z.

Reference values were frozen from a 40-digit software-precision evaluation
(independent of the double-precision code under test).
"""

import cmath
import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeta_eta.errors import (BudgetExceeded, NearSingularity, PoleAtOne,
                             ValidationError)
from zeta_eta.precision import EvalPrecision
from zeta_eta.quadrature import _NODES
from zeta_eta.zeta import hardy_z, log_gamma, theta, zeta, zeta_log_deriv

# 40-digit oracle values, rounded to double precision.
ZETA_ORACLE = {
    (2.0, 0.0): 1.6449340668482264,
    (3.0, 0.0): 1.2020569031595943,
    (0.5, 14.0): 0.022241142609993589 - 0.10325812326645006j,
    (2.0, 10.0): 1.1979825006741846 - 0.07917049172052575j,
    (-0.5, 5.0): 0.5521873851625754 + 0.35481737356699934j,
    (0.25, 30.0): -0.5864827888392179 - 0.6111496310764428j,
}


def test_zeta_oracle_grid():
    for (sig, t), ref in ZETA_ORACLE.items():
        got = complex(zeta(complex(sig, t)))
        assert abs(got - ref) < 1e-10, (sig, t, got, ref)


def test_zeta_accepts_reals_and_strings_of_numbers():
    assert abs(complex(zeta(2)) - 1.6449340668482264) < 1e-12
    assert abs(complex(zeta(2.0)) - complex(zeta(complex(2, 0)))) == 0.0


def test_zeta_extended_precision_path():
    # abs_err below the double threshold switches to software precision
    got = complex(zeta(complex(0.5, 1000.5), EvalPrecision(abs_err=1e-16)))
    ref = 2.5443755672349228 - 0.15775078482202696j
    assert abs(got - ref) < 1e-13


def test_zeta_far_right_is_one(monkeypatch):
    # right of sigma = 1100 every term n^-s, n >= 2, underflows: zeta is 1
    # and zeta'/zeta is 0 exactly, from a pass at sigma = 1100 whose cutoff
    # stays small; taken at sigma itself, the cutoff at 1e6 exceeds its
    # budget, and from about 1e18 the correction terms overflow to NaN
    cutoffs = []
    kernel = _ZETA_MODULE._euler_maclaurin

    def recorded(ray, n_cut, sigmas, want_deriv):
        cutoffs.append(n_cut)
        return kernel(ray, n_cut, sigmas, want_deriv)

    monkeypatch.setattr(_ZETA_MODULE, "_euler_maclaurin", recorded)
    for s in (2000.0, 5e5, 1e6 + 10j, 1e20, 1e300):
        assert zeta(s) == 1.0, s
        assert zeta_log_deriv(s) == 0.0, s
    assert 0 < max(cutoffs) < 1000
    assert zeta(1100.0 + 7j) == zeta(1099.0 + 7j) == 1.0


def test_zeta_pole_guard():
    with pytest.raises(PoleAtOne):
        zeta(1.0)
    with pytest.raises(PoleAtOne):
        zeta(complex(1.0, 1e-13))
    # just outside the guard radius the value is huge but finite
    assert abs(complex(zeta(complex(1.0, 1e-6)))) > 1e5


def test_zeta_domain_guard():
    with pytest.raises(ValidationError):
        zeta(complex(-1.5, 3.0))


def test_zeta_budget_exhaustion(monkeypatch):
    # the package's `zeta` attribute is the function, not the module
    monkeypatch.setattr(sys.modules["zeta_eta.zeta"], "_MAX_CUTOFF", 16)
    with pytest.raises(BudgetExceeded, match="exceeds 16"):
        zeta(complex(0.5, 1500.0))


@settings(max_examples=40, deadline=None)
@given(sig=st.floats(-0.5, 3.0), t=st.floats(0.5, 300.0))
def test_zeta_conjugate_symmetry(sig, t):
    s = complex(sig, t)
    if abs(s - 1.0) < 0.2:
        return
    a = complex(zeta(s))
    b = complex(zeta(s.conjugate()))
    assert abs(b - a.conjugate()) <= 1e-12 * (1.0 + abs(a))


def test_log_deriv_oracle():
    got = complex(zeta_log_deriv(2.0))
    assert abs(got - (-0.5699609930945328)) < 1e-10


def test_log_deriv_domain_guard():
    # refused left of sigma = -1, as zeta is: no inaccurate answer at
    # -5 + 40i and no budget overrun at -30 + 5i
    for s in (complex(-5.0, 40.0), complex(-30.0, 5.0)):
        with pytest.raises(ValidationError, match="sigma"):
            zeta_log_deriv(s)
    s = complex(-1.0, 40.0)
    with mp.workdps(30):
        ref = complex(mp.zeta(mp.mpc(-1, 40), derivative=1)
                      / mp.zeta(mp.mpc(-1, 40)))
    assert abs(complex(zeta_log_deriv(s)) - ref) < 1e-9


def test_log_deriv_guards(store):
    with pytest.raises(NearSingularity):
        zeta_log_deriv(complex(1.0 + 1e-9, 0.0))
    g1 = float(store.gammas[0])
    for t in (g1 + 1e-8, -(g1 - 1e-8)):
        with pytest.raises(NearSingularity):
            zeta_log_deriv(complex(0.5, t), store=store)
    # away from singularities the store guard stays quiet
    zeta_log_deriv(complex(0.5, 16.0), store=store)


def test_log_gamma_oracle():
    assert abs(log_gamma(complex(3, 4))
               - (-1.7566267846037841 + 4.742664438034658j)) < 1e-12
    assert abs(log_gamma(0.3) - 1.0957979948180755) < 1e-12


def test_log_gamma_recurrence():
    for z in (complex(0.7, 2.0), complex(5.5, -3.0), complex(0.1, 0.4)):
        lhs = log_gamma(z + 1)
        rhs = log_gamma(z) + cmath.log(z)
        assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(lhs))


def test_theta_and_hardy_oracles():
    assert abs(theta(20.0) - 1.186894808444484) < 1e-10
    assert abs(hardy_z(20.0) - 1.1478424121851973) < 1e-9
    assert abs(hardy_z(18.0) - 2.336799689916952) < 1e-9


def test_hardy_z_matches_zeta_modulus():
    for t in (15.5, 20.0, 33.3, 101.0):
        assert abs(abs(hardy_z(t))
                   - abs(complex(zeta(complex(0.5, t))))) < 1e-9


def test_hardy_z_sign_change_at_first_zero():
    assert hardy_z(14.0) * hardy_z(14.3) < 0.0


# --- the Euler-Maclaurin kernel on a ray ---------------------------------------

_ZETA_MODULE = sys.modules["zeta_eta.zeta"]
_PREC = EvalPrecision(abs_err=1e-10)


def _rounding_bound(sigma: float, t: float) -> float:
    """Running-error bound for the double sums, which rem does not cover:
    u * (1 + |t| log N) * sum_{n<N} n^-sigma, with N twice the first
    cutoff (escalation stays below that here)."""
    n_top = 2 * _ZETA_MODULE._initial_cutoff(sigma, sigma, t, _PREC.abs_err)
    n = np.arange(1, n_top, dtype=float)
    return 2.0 ** -52 * (1.0 + abs(t) * math.log(n_top)) * float(
        np.sum(n ** -sigma))


def test_ray_batch_matches_single_points_and_mpmath():
    # 10 rays x 10 nodes: each node of a batch on one ray lies within
    # its own remainder bound (plus rounding) of the 30-digit value, and of
    # the same node evaluated alone
    rng = np.random.default_rng(2024)
    checked = 0
    for t in rng.uniform(0.0, 2150.0, 10).tolist():
        alphas = np.sort(rng.uniform(0.5, 45.0, 10))
        vals, _, rems = _ZETA_MODULE._zeta_em(
            _ZETA_MODULE._Ray(t), alphas, _PREC, False)
        for a, v, r in zip(alphas.tolist(), vals, rems):
            (alone,), _, (r_alone,) = _ZETA_MODULE._zeta_em(
                _ZETA_MODULE._Ray(t), a, _PREC, False)
            with mp.workdps(30):
                ref = complex(mp.zeta(mp.mpc(a, t)))
            slack = _rounding_bound(a, t)
            assert r <= 0.25 * _PREC.abs_err
            assert abs(v - ref) <= r + slack, (a, t, v, ref, r)
            assert abs(v - alone) <= r + r_alone + 2 * slack, (a, t)
            checked += 1
    assert checked == 100


def test_ray_escalates_only_the_nodes_that_miss(monkeypatch):
    # a first cutoff far too small: the node at sigma = 45 is certified at
    # once, the others go on together at growing cutoffs until they pass
    passes = []
    kernel = _ZETA_MODULE._euler_maclaurin

    def recorded(ray, n_cut, sigmas, want_deriv):
        passes.append((n_cut, list(sigmas)))
        return kernel(ray, n_cut, sigmas, want_deriv)

    monkeypatch.setattr(_ZETA_MODULE, "_initial_cutoff", lambda *a: 16)
    monkeypatch.setattr(_ZETA_MODULE, "_euler_maclaurin", recorded)
    alphas = np.array([0.5, 3.0, 45.0])
    vals, _, rems = _ZETA_MODULE._zeta_em(
        _ZETA_MODULE._Ray(500.0), alphas, _PREC, False)
    assert passes[0] == (16, [0.5, 3.0, 45.0])
    assert len(passes) > 2
    cutoffs = [n for n, _ in passes]
    assert cutoffs == sorted(set(cutoffs))
    assert all(45.0 not in nodes for _, nodes in passes[1:])
    assert all(r <= 0.25 * _PREC.abs_err for r in rems)
    for a, v, r in zip(alphas.tolist(), vals, rems):
        with mp.workdps(30):
            ref = complex(mp.zeta(mp.mpc(a, 500.0)))
        assert abs(v - ref) <= r + _rounding_bound(a, 500.0)


# --- the Euler-Maclaurin kernel on a vertical line -----------------------------

def _panel_nodes(a: float, b: float) -> np.ndarray:
    """The 30 ascending nodes the panel rule hands an integrand on [a, b]."""
    return 0.5 * (a + b) + 0.5 * (b - a) * _NODES


def _check_line_batch(sigma, ts, vals, rems, prec=_PREC, every=1):
    """Each node within its remainder (plus rounding) of the same node
    evaluated alone, and every `every`-th node of the 30-digit value."""
    target = 0.25 * prec.abs_err
    for i, (t, v, r) in enumerate(zip(ts.tolist(), vals, rems)):
        (alone,), _, (r_alone,) = _ZETA_MODULE._zeta_em(
            _ZETA_MODULE._Ray(t), sigma, prec, False)
        slack = _rounding_bound(sigma, t)
        assert r <= target
        assert abs(v - alone) <= r + r_alone + 2 * slack, (sigma, t)
        if i % every == 0:
            with mp.workdps(30):
                ref = complex(mp.zeta(mp.mpc(sigma, t)))
            assert abs(v - ref) <= r + slack, (sigma, t, v, ref, r)


def test_line_batch_matches_single_points_and_mpmath():
    # 10 panels of the iterated sweep's widths (<= 1/2) on vertical lines
    # sigma in (-1, 2], t in [0, 2150]: one expansion about the centre;
    # 100 nodes checked against mpmath, all 300 against single points
    rng = np.random.default_rng(77)
    for _ in range(10):
        sigma = float(rng.uniform(-1.0, 2.0))
        a = float(rng.uniform(0.0, 2149.5))
        ts = _panel_nodes(a, a + float(rng.uniform(0.05, 0.5)))
        vals, _, rems = _ZETA_MODULE._zeta_em(
            _ZETA_MODULE._Line(sigma, _PREC.abs_err), ts, _PREC, False)
        _check_line_batch(sigma, ts, vals, rems, every=3)


@pytest.mark.parametrize("sigma", [-1.0, 0.5, 2.0])
def test_line_widest_panel_at_the_table_top(sigma):
    # a 0.5-wide panel at t = 2100 has the largest |d| log N, so the
    # expansion runs to its highest order; its bound still certifies
    ts = _panel_nodes(2100.0, 2100.5)
    line = _ZETA_MODULE._Line(sigma, _PREC.abs_err)
    n_cut = _ZETA_MODULE._initial_cutoff(sigma, sigma, 2100.5, _PREC.abs_err)
    _, _, _, truncs = line.partial_sums(n_cut, ts.tolist(), False)
    assert 0.0 < max(truncs) <= 1e-3 * 0.25 * _PREC.abs_err
    # each node's remainder is its Euler-Maclaurin bound plus its truncation
    _, _, rems = _ZETA_MODULE._euler_maclaurin(line, n_cut, ts.tolist(), False)
    for i in (0, ts.size - 1):
        _, _, (r_alone,) = _ZETA_MODULE._euler_maclaurin(
            _ZETA_MODULE._Ray(float(ts[i])), n_cut, [sigma], False)
        assert rems[i] == pytest.approx(r_alone + truncs[i], rel=1e-12,
                                        abs=0.0)
    vals, _, rems = _ZETA_MODULE._zeta_em(line, ts, _PREC, False)
    _check_line_batch(sigma, ts, vals, rems)


def test_line_escalates_only_the_nodes_that_miss(monkeypatch):
    # at cutoff 6 the bound on the panel [10, 10.5] crosses the target
    # inside it: the lower nodes are certified at once, the upper ones go
    # on together
    prec = EvalPrecision(abs_err=1.8e-9)
    ts = _panel_nodes(10.0, 10.5)
    passes = []
    kernel = _ZETA_MODULE._euler_maclaurin

    def recorded(line, n_cut, coords, want_deriv):
        passes.append((n_cut, list(coords)))
        return kernel(line, n_cut, coords, want_deriv)

    monkeypatch.setattr(_ZETA_MODULE, "_initial_cutoff", lambda *a: 6)
    monkeypatch.setattr(_ZETA_MODULE, "_euler_maclaurin", recorded)
    vals, _, rems = _ZETA_MODULE._zeta_em(
        _ZETA_MODULE._Line(0.5, prec.abs_err), ts, prec, False)
    monkeypatch.undo()
    assert passes[0] == (6, ts.tolist())
    later = passes[1][1]
    assert 0 < len(later) < ts.size
    assert later == ts.tolist()[ts.size - len(later):]
    assert all(set(nodes) <= set(later) for _, nodes in passes[1:])
    _check_line_batch(0.5, ts, vals, rems, prec)
