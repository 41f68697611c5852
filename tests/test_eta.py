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

from zeta_eta import distribution
from zeta_eta import eta as eta_module
from zeta_eta import quadrature
from zeta_eta.approx import y_m
from zeta_eta.branch import branch_path, log_zeta_with_err
from zeta_eta.errors import (BeyondTable, BudgetExceeded, NumericalError,
                             OnSingularity, ValidationError)
from zeta_eta.eta import (EtaValue, c_m, c_m_with_err, eta_iterated,
                          eta_vertical, route_check, s_m,
                          zero_sum_polynomial)
from zeta_eta.precision import (DEFAULT_PRECISION, SCAN_PRECISION,
                                 EvalPrecision)
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
        assert abs(got - ref) <= est, "estimate must cover the error"
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
    (got,), (est,) = eta_module._vertical_tail(m, 0.5, 4.0, np.array([t]))
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


@pytest.mark.parametrize("sigma", [4.5, 6.0, 10.0])
def test_c_m_right_of_the_tail_start_is_the_sum_alone(sigma, monkeypatch):
    # from sigma >= a0 on, c_1 is the Dirichlet sum with no quadrature;
    # its est_err covers the error against 30-digit mpmath
    def no_quadrature(*args, **kwargs):
        raise AssertionError("ran a quadrature right of the tail start")

    monkeypatch.setattr(eta_module, "_start", no_quadrature)
    eta_module._c_m_cached.cache_clear()
    got, est = c_m_with_err(sigma, 1)
    with mpmath.workdps(30):
        ref = 1j * complex(mpmath.quad(
            lambda a: mpmath.log(mpmath.zeta(a)), [sigma, mpmath.inf]))
    assert abs(got - ref) <= est, (got, ref, est)


def _c_m_reference(sigma: float, m: int) -> complex:
    """c_m(sigma) from 30-digit mpmath quadrature of log|zeta(a)|, split at
    1, with the one-sided limit -pi on (sigma, 1) integrated exactly; a
    node that rounds onto the pole itself is left out."""
    with mpmath.workdps(30):
        s = mpmath.mpf(sigma)
        pts = [s, 1, 8, mpmath.inf] if sigma < 1 else [s, 8, mpmath.inf]
        real = mpmath.quad(lambda a: (a - s) ** (m - 1) * mpmath.log(
            abs(mpmath.zeta(a))) if a != 1 else 0, pts)
        pole = -mpmath.pi * (1 - s) ** m / m if sigma < 1 else 0
        return complex(mpmath.mpc(0, 1) ** m / mpmath.factorial(m - 1)
                       * mpmath.mpc(real, pole))


@pytest.mark.parametrize("sigma", [-0.9, 0.5, 0.999999, 1.5])
def test_c_m_is_honest_across_its_pole(sigma):
    # c_m integrates the regular part log((a-1) zeta(a)) and takes the
    # pole's logarithm in closed form: against 30-digit mpmath, split at 1,
    # its est_err covers the error at every m, on both sides of the pole
    for m in (1, 2, 3, 10):
        eta_module._c_m_cached.cache_clear()
        got, est = c_m_with_err(sigma, m)
        ref = _c_m_reference(sigma, m)
        assert abs(got - ref) <= est, (sigma, m, got, ref, est)
        assert est < 1e-12


@pytest.mark.parametrize("m", [1, 2])
def test_c_m_at_the_pole_is_continuous_with_its_sides(m):
    # sigma = 1 exactly answers, and so do 1 -+ 1e-6 and 1 - 2e-14, where
    # a node of the panel [sigma, 1] rounds onto the pole: each within its
    # est_err of the 30-digit value, so the steps from 1 to either side are
    # mpmath's within the two estimates
    near = {}
    for sigma in (1.0 - 1e-6, 1.0 - 2e-14, 1.0, 1.0 + 1e-6):
        eta_module._c_m_cached.cache_clear()
        near[sigma] = c_m_with_err(sigma, m), _c_m_reference(sigma, m)
    (at_one, est_one), ref_one = near.pop(1.0)
    assert abs(at_one - ref_one) <= est_one
    for (got, est), ref in near.values():
        assert abs((got - at_one) - (ref - ref_one)) <= est + est_one


def test_c_m_takes_few_panels_left_of_the_pole(monkeypatch):
    # the regular part is analytic on [1/2, a0]: the starting panels
    # [1/2, 1] and [1, a0] meet the tolerance, where the pole's logarithm
    # took a hundred bisections
    panel = quadrature._panel
    panels = []

    def counted(f, a, b):
        panels.append(np.size(a))
        return panel(f, a, b)

    monkeypatch.setattr(quadrature, "_panel", counted)
    for m in (1, 2, 3):
        panels.clear()
        eta_module._c_m_cached.cache_clear()
        c_m_with_err(0.5, m)
        assert 0 < sum(panels) <= 4, (m, panels)


@pytest.mark.parametrize("sigma", [-0.9, 0.1, 0.5, 0.999999, 1.0, 1.000001,
                                   1.3, 2.2])
def test_log_pole_part_against_mpmath(sigma):
    # the pole's row of the window model alone, its closed form
    # -int_sigma^a0 (a-sigma)^(m-1) (log|a-1| + pi i [a<1]) da at m <= 10
    # and at the tail starts of two targets and two more ends: within the
    # rounding allowance it states of the 30-digit quadrature split at 1
    for m in range(1, 11):
        ends = {eta_module._tail_start(m, sigma, 1e-10),
                eta_module._tail_start(m, sigma, 1e-3),
                max(sigma, 1.0) + 0.25, 6.5}
        for a0 in sorted(a for a in ends if a > sigma):
            got, rnd = _ray_piece(m, sigma, a0, -1.0, complex(-1.0, 0.0))
            with mpmath.workdps(30):
                s, b = mpmath.mpf(sigma), mpmath.mpf(a0)
                real = -mpmath.quad(lambda a: (a - s) ** (m - 1) * (
                    mpmath.log(abs(a - 1)) if a != 1 else 0),
                    [s, 1, b] if sigma < 1 else [s, b])
                pole = -mpmath.pi * (1 - s) ** m / m if sigma < 1 else 0
                ref = complex(mpmath.mpc(real, pole))
            assert abs(got - ref) <= rnd, (sigma, m, a0, got, ref, rnd)


def _ray_piece(m, sigma, a0, mu, rel):
    """One ray row's mu int_sigma^a0 (a-sigma)^(m-1) Log(rel + a) da by
    the one closed form, as the vertical route takes it, and its rounding
    allowance."""
    (piece,), (terms,), (inner,) = eta_module._model_pieces(
        m, sigma, sigma, a0, np.array([mu]), np.array([rel]), 1.0)
    return ((-1) ** (m - 1) * piece,
            eta_module._piece_rounding(m) * (terms + inner))


def _window_row(rng, family: int, k: int):
    """(m, span, mu, c) of a seeded window row, m cycling over {1, 2, 3, 5}:
    a zero of a ray on sigma = 1/2 (c = i(t - gamma)), a zero right of
    sigma next to the cut (c = -r -+ i eps, eps down to 1e-9), the pole
    row on the real axis left or right of a = 1 (c = sigma - 1 + 0i, as c_m
    has it), and a zero left or right of sigma, by family 0-3."""
    m = (1, 2, 3, 5)[k % 4]
    span = float(rng.uniform(0.25, 4.0))
    if family == 0:
        return m, span, 1.0, complex(0.0, rng.uniform(-1.5, 1.5))
    if family == 1:
        eps = (1e-9, 1e-6, 1e-3)[k % 3] * (-1.0) ** k
        return m, span, 1.0, complex(-rng.uniform(0.05, span - 0.05), eps)
    if family == 2:
        sigma = float(rng.uniform(-1.0, 1.0) if k % 2 else
                      rng.uniform(1.0, 3.0))
        a0 = max(sigma, 1.0) + 0.25 * int(rng.integers(1, 16))
        return m, a0 - sigma, -1.0, complex(sigma - 1.0, 0.0)
    return m, span, 1.0, complex(rng.uniform(-0.75, 3.5),
                                 rng.uniform(-1.5, 1.5))


def _window_reference(m, span, mu, c):
    """mu int_0^span x^(m-1) Log(x + c) dx by 40-digit mpmath.quad, split
    where x + c passes nearest 0; a node that rounds onto a zero of x + c
    is left out."""
    with mpmath.workdps(40):
        cc = mpmath.mpc(c.real, c.imag)
        pts = [0, -c.real, span] if 0 < -c.real < span else [0, span]
        return mu * mpmath.quad(lambda x: x ** (m - 1) * mpmath.log(x + cc)
                                if x + cc else 0, pts)


def test_window_integrals_within_their_allowance_of_mpmath():
    # 80 seeded rows, 20 of each family: each closed form within its
    # allowance of 40-digit mpmath (measured at most 0.083 of it)
    rng = np.random.default_rng(31)
    for k in range(80):
        m, span, mu, c = _window_row(rng, k % 4, k // 4)
        got, allowance = _ray_piece(m, 0.0, span, mu, c)
        err = float(abs(mpmath.mpc(got) - _window_reference(m, span, mu, c)))
        assert err <= allowance, (k, m, span, c, err, allowance)


def test_window_integrals_cover_their_error_on_the_first_ordinate(store):
    # at 1/2 + i gamma_1 the ray passes 1e-9 below the zero, the row c =
    # -1e-9 i: the closed form of each of its rows is within its allowance
    # of 40-digit mpmath at m <= 5
    gamma = float(store.gammas[0])
    for m in (1, 2, 3, 5):
        path = eta_module.branch_path(gamma, 0.5, store=store)
        span = eta_module._tail_start(m, 0.5, 1e-10) - 0.5
        for mu, rel in zip(path.mu, path.rel):
            got, allow = _ray_piece(m, 0.5, 0.5 + span, mu, rel)
            ref = _window_reference(m, span, mu, 0.5 + rel)
            assert float(abs(mpmath.mpc(got) - ref)) <= allow, (m, rel)


# eta_vertical where the window model is unusual, from 30-digit mpmath
# tanh-sinh quadrature of the principal log zeta on the snapped ray (its
# argument does not cross the cut there) up to a = 150: the pole row in the
# window (t <= 1.5), a ray snapped below an ordinate (the 1st and the 10th),
# rays right of 1.25 with window rows but no walk, and sigma >= a0, the
# tail alone.
EDGES = {
    (0.7, 1.2, 2): -0.740815135490433 + 1.5438739101644814j,
    (0.5, 0, 1): -0.27260127164681175 - 2.1097518015351118j,
    (0.5, 0, 2): 2.036048779833026 - 0.44080848648831916j,
    (0.6, 9, 2): 1.5302956613051582 - 0.3980130546510218j,
    (2.0, 500.3, 2): -0.09682692745112272 + 0.5199237648334082j,
    (1.4, 300.7, 1): 0.4471228796890975 + 0.1477648266432739j,
    (5.0, 300.0, 1): 0.026619108715633236 + 0.03390195902132433j,
    (4.5, 777.7, 3): 0.12833199431347403 - 0.04142648071265876j,
}


@pytest.mark.parametrize("sigma,t,m", sorted(EDGES))
def test_eta_vertical_at_the_window_edges(store, sigma, t, m, monkeypatch):
    # an integer t is the index of the ordinate the ray is snapped below
    height = float(store.gammas[t]) if isinstance(t, int) else t
    path = eta_module.branch_path(height, sigma, store=store)
    a0 = eta_module._tail_start(m, sigma, DEFAULT_PRECISION.abs_err)
    if sigma >= a0:
        def no_quadrature(*args, **kwargs):
            raise AssertionError("ran a quadrature right of the tail start")

        monkeypatch.setattr(eta_module, "_start", no_quadrature)
    elif sigma >= 1.25:
        def no_walk(*args, **kwargs):
            raise AssertionError("walked a ray right of the walk start")

        assert path.mu.size
        monkeypatch.setattr(eta_module._Walk, "spend", no_walk)
    got = eta_vertical(complex(sigma, height), m, store)
    assert abs(got.value - EDGES[(sigma, t, m)]) <= got.est_err, (
        got.value, got.est_err)


def test_vertical_route_takes_one_panel_call_on_dist_heights(store,
                                                             monkeypatch):
    # dist's line: 40 seeded heights t in [1000, 2000] on sigma = 1/2 at
    # SCAN_PRECISION.  With the window subtracted, G is analytic near
    # [1/2, a0], and the starting panels [1/2, 1] and [1, a0] meet the
    # tolerance in one call of the rule; log zeta itself took up to 10.
    # The batch takes every height's panels in that one call, and no
    # height bisects, which would take a call of its own.
    panels = []
    panel = quadrature._panel

    def counted(*args):
        panels.append(args)
        return panel(*args)

    monkeypatch.setattr(quadrature, "_panel", counted)
    ts = np.random.default_rng(31).uniform(1000.0, 2000.0, 40)
    eta_module._vertical_many(0.5, ts, 1, store, SCAN_PRECISION)
    assert len(panels) == 1
    for t in ts:
        panels.clear()
        eta_vertical(complex(0.5, t), 1, store, SCAN_PRECISION)
        assert len(panels) == 1, t


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("abs_err", [1e-8, 1e-10])
def test_vertical_batch_agrees_with_each_height_alone(store, m, abs_err):
    # 100 seeded heights on dist's line, all in one batch
    prec = EvalPrecision(abs_err=abs_err)
    ts = np.random.default_rng(36).uniform(1000.0, 2000.0, 100)
    vals, ests = eta_module._vertical_many(0.5, ts, m, store, prec)
    for t, val, est in zip(ts.tolist(), vals, ests):
        one = eta_vertical(complex(0.5, t), m, store, prec)
        assert abs(val - one.value) <= max(est, one.est_err), t


def test_a_height_its_start_leaves_unsettled_bisects_from_the_batch(
        store, monkeypatch):
    # the first call of the rule holds every height's two starting panels;
    # a height they leave unsettled is bisected on from its own heap, both
    # halves of a panel in one call, and no height's start is evaluated
    # again; every value is its one-height call's, bit for bit
    ts = np.random.default_rng(7).uniform(1000.0, 2000.0, 60)
    a0 = eta_module._tail_start(2, 0.75, DEFAULT_PRECISION.abs_err)
    calls = []
    panel = quadrature._panel

    def counted(f, a, b):
        calls.append((np.atleast_1d(a).tolist(), np.atleast_1d(b).tolist()))
        return panel(f, a, b)

    monkeypatch.setattr(quadrature, "_panel", counted)
    vals, _ = eta_module._vertical_many(0.75, ts, 2, store, DEFAULT_PRECISION)
    monkeypatch.undo()
    assert calls[0] == ([0.75, 1.0] * ts.size, [1.0, a0] * ts.size)
    assert len(calls) > 1
    for lo, hi in calls[1:]:
        assert (lo, hi) != ([0.75, 1.0], [1.0, a0])
        assert len(lo) == 2 and lo[1] == hi[0] == 0.5 * (lo[0] + hi[1])
    for t, val in zip(ts.tolist(), vals):
        assert val == eta_vertical(complex(0.75, t), 2, store).value, t


@pytest.mark.parametrize("sigma, m", [(0.75, 2), (0.55, 1)])
def test_a_batch_height_has_its_one_height_value_and_estimate(store, sigma,
                                                              m):
    # the rule sums each panel's node errors as it sums its values, whatever
    # the number of panels beside it: a batch height's est_err, like its
    # value, has the bits of its one-height call
    ts = np.random.default_rng(7).uniform(1000.0, 2000.0, 120)
    vals, ests = eta_module._vertical_many(sigma, ts, m, store,
                                           DEFAULT_PRECISION)
    for t, val, est in zip(ts.tolist(), vals, ests):
        one = eta_vertical(complex(sigma, t), m, store)
        assert (val, est) == (one.value, one.est_err), t


def test_a_step_above_the_continuity_bound_inserts_midpoints_in_the_batch(
        store, monkeypatch):
    # with the continuity bound lowered, the rays whose walk steps past it
    # insert midpoints inside the batch's walk, as their own walks do:
    # every row keeps the bits of its ray's own walk, and every height the
    # value of its one-height call
    branch = sys.modules["zeta_eta.branch"]
    monkeypatch.setattr(branch, "_CONT_STEP", 0.17)
    prec = SCAN_PRECISION
    ts = np.random.default_rng(38).uniform(1000.0, 2000.0, 12)
    paths = [branch_path(t, 0.5, prec, store) for t in ts]
    xs = quadrature._nodes(np.array([[0.5], [1.0]]),
                           np.array([[1.0], [3.5]])).ravel()
    g, e = branch._log_less_model(paths, xs)
    grid = np.count_nonzero(branch._RAY_GRID > xs.min())
    inserted = np.array([p.nodes > xs.size + grid for p in paths])
    assert inserted.any() and not inserted.all()
    for path, row, err in zip(paths, g, e):
        (one,), (one_err,) = branch._log_less_model([path], xs)
        assert np.array_equal(row, one) and np.array_equal(err, one_err)
    vals, _ = eta_module._vertical_many(0.5, ts, 1, store, prec)
    for t, val in zip(ts.tolist(), vals):
        assert val == eta_vertical(complex(0.5, t), 1, store, prec).value


def test_the_batch_walk_keeps_each_rays_bits(store):
    # G and its bound at one query's abscissae, ray by ray, as the ray's
    # own walk gives them: each height takes its own cutoff and phases
    prec = EvalPrecision(abs_err=1e-10)
    ts = np.random.default_rng(39).uniform(20.0, 2140.0, 30)
    paths = [branch_path(t, 0.6, prec, store) for t in ts]
    xs = np.linspace(0.61, 3.9, 42)
    walk = sys.modules["zeta_eta.branch"]._log_less_model
    g, e = walk(paths, xs)
    for path, row, err in zip(paths, g, e):
        (one,), (one_err,) = walk([path], xs)
        assert np.array_equal(row, one) and np.array_equal(err, one_err)


def _first_refusal(heights, evaluate):
    try:
        evaluate(heights)
    except Exception as exc:            # noqa: BLE001 - compared below
        return type(exc), str(exc)
    return None


def test_a_batch_whose_shared_pass_is_refused_goes_height_by_height(
        store, monkeypatch):
    # with the cutoff limit between the cutoffs at 1300.75 and 1900.25,
    # the batch's shared zeta pass is refused; its heights then go one by
    # one, and the refusal raised is the loop's, at 1900.25
    zeta = sys.modules["zeta_eta.zeta"]
    low, high = (zeta._initial_cutoff(0.5, 3.75, t, SCAN_PRECISION.abs_err)
                 for t in (1300.75, 1900.25))
    monkeypatch.setattr(zeta, "_MAX_CUTOFF", (low + high) // 2)
    heights = [1200.5, 1300.75, 1900.25, 1250.25]
    loop = _first_refusal(heights, lambda ts: [
        eta_vertical(complex(0.5, t), 1, store, SCAN_PRECISION) for t in ts])
    batch = _first_refusal(heights, lambda ts: eta_module._vertical_many(
        0.5, ts, 1, store, SCAN_PRECISION))
    assert loop[0] is BudgetExceeded and batch == loop


@pytest.mark.parametrize("order", [(0, 1, 2, 3), (0, 3, 2, 1)])
def test_a_batch_raises_what_the_loop_over_its_heights_raises_first(
        store, monkeypatch, order):
    # one height near-singular (its bound is made to reach |zeta|/2 on
    # every ray at that height) and one above the table: the batch raises
    # the exception, message included, that eta_vertical height by height
    # meets first
    branch = sys.modules["zeta_eta.branch"]
    evaluate = branch._zeta_em
    near = 1403.25
    uncertain = store.snap(near)

    def near_singular(ray, alpha, prec):
        vals, rems = evaluate(ray, alpha, prec)
        if np.ndim(ray.t):
            hit = ray.t == uncertain
            rems[:, hit] = 0.5 * np.abs(vals[:, hit])
        elif ray.t == uncertain:
            rems[:] = 0.5 * np.abs(np.asarray(vals))
        return vals, rems

    monkeypatch.setattr(branch, "_zeta_em", near_singular)
    heights = [1200.5, near, 1700.25, store.t_max + 1.0]
    heights = [heights[i] for i in order]
    loop = _first_refusal(heights, lambda ts: [
        eta_vertical(complex(0.5, t), 1, store, SCAN_PRECISION) for t in ts])
    batch = _first_refusal(heights, lambda ts: eta_module._vertical_many(
        0.5, ts, 1, store, SCAN_PRECISION))
    assert loop is not None and batch == loop
    assert loop[0].__name__ == ("NearSingularity" if order[1] == 1
                                else "BeyondTable")


def test_vertical_route_leaves_the_full_sieve_unbuilt():
    # The tail's prime powers come from the sieve up to _TAIL_N; the
    # SIEVE_LIMIT one would add about 5.7 MB to every eta caller.
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


def test_zero_sum_right_of_every_zero_is_answered_at_once(monkeypatch):
    # sigma at or right of the table's largest beta answers (0j, 0.0)
    # without reading the zeros; m, sigma, t and the height are refused
    # first, and left of that beta the sum is formed
    st = ZeroStore([ZeroRecord(10.0, 0.8), ZeroRecord(40.0, 0.5)], "test")
    assert st.beta_max == 0.8
    assert zero_sum_polynomial(2, 0.7, 30.0, st)[0] != 0j
    # with no columns left, any read of the zeros raises
    for column in ("gammas", "betas", "multiplicities"):
        monkeypatch.setattr(st, column, None)
    for sigma in (0.8, 0.9, 40.0):
        assert zero_sum_polynomial(2, sigma, 30.0, st) == (0j, 0.0)
    with pytest.raises(ValidationError, match="m=200"):
        zero_sum_polynomial(200, 0.9, 30.0, st)
    with pytest.raises(ValidationError, match="sigma="):
        zero_sum_polynomial(1, math.inf, 30.0, st)
    with pytest.raises(ValidationError, match="t="):
        zero_sum_polynomial(1, 0.9, math.nan, st)
    with pytest.raises(BeyondTable, match="zero_sum_polynomial"):
        zero_sum_polynomial(1, 0.9, 41.0, st)


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
        np.full(rows, c - 1j * gam), 1j)
    whole = pieces[0]
    total = complex(math.fsum(pieces[1:].real), math.fsum(pieces[1:].imag))
    assert abs(whole - total) <= 2e-16 * terms.sum(), (whole, total, terms)


def _model_piece_by_row(m, p, a, b, mu, rel, d):
    """One row's piece in Python scalars, segment by segment and term by
    term: the reference the array pass must equal bit for bit."""
    foot, c = (-rel.imag, rel.real) if d == 1j else (-rel.real,
                                                      1j * rel.imag)
    wa, wb = a - foot, b - foot
    ls = [0j] * m
    for lo, hi in ([(wa, 0.0), (0.0, wb)]
                   if d == 1j and c < 0.0 and wa < 0.0 < wb else [(wa, wb)]):
        ends = [w or math.copysign(0.0, lo + hi) for w in (lo, hi)]
        points = [complex(c, w) if d == 1j else complex(w, c.imag)
                  for w in ends]
        la, lb = (cmath.log(z) if z else 0j for z in points)
        js = [(lb - la) / d]
        for k in range(1, m + 1):
            js.append(((hi ** k - lo ** k) / k - c * js[-1]) / d)
        for j in range(m):
            ls[j] += (hi ** (j + 1) * lb - lo ** (j + 1) * la
                      - d * js[j + 1]) / (j + 1)
    total = 0j
    for j in range(m):
        total += (math.comb(m - 1, j) * (p - foot) ** (m - 1 - j)
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


def _ray_row(rng, family, k):
    """A row (sigma, a0, mu, rel) of a ray's window as the vertical route
    takes it: a zero beside the ray, t - gamma = -+1e-9 to -+1.5 at sigma in
    [1/2, 2], or the pole row on the real axis with sigma left or right of
    1, by family 0-1."""
    if family == 0:
        sigma = float(rng.uniform(0.5, 2.0))
        dt = (1e-9, 1e-6, 1e-3, 0.1, 1.0, 1.5)[k % 6] * (-1.0) ** (k // 6)
        rel = complex(-0.5, dt * float(rng.uniform(0.5, 1.0)))
        return (sigma, max(sigma, 1.0) + 0.25 * int(rng.integers(1, 16)),
                1.0, rel)
    sigma = float(rng.uniform(-1.0, 1.0) if k % 2 else rng.uniform(1.0, 3.0))
    return (sigma, max(sigma, 1.0) + 0.25 * int(rng.integers(1, 16)), -1.0,
            complex(-1.0, 0.0))


def test_model_pieces_are_the_row_by_row_closed_form():
    # the array pass does the row-by-row arithmetic, equal bit for bit:
    # 2,000 sweep rows, m <= 5, t_eff <= 2100, and 960 ray rows, m <= 8
    rng = np.random.default_rng(21)
    for _ in range(80):
        m, t_eff = int(rng.integers(1, 6)), float(rng.uniform(20.0, 2100.0))
        rows = [_sweep_row(rng, k % 5, t_eff) for k in range(25)]
        a, b, mu, c, gam = map(np.array, zip(*rows))
        got = eta_module._model_pieces(m, t_eff, a, b, mu, c - 1j * gam, 1j)
        assert got[0].tolist() == [
            _model_piece_by_row(m, t_eff, a, b, mu, c - 1j * gam, 1j)
            for a, b, mu, c, gam in rows], (m, t_eff)
    for _ in range(40):
        m = int(rng.integers(1, 9))
        for family in (0, 1):
            rows = [_ray_row(rng, family, k) for k in range(12)]
            sigma, a0, mu, rel = map(np.array, zip(*rows))
            got = eta_module._model_pieces(m, sigma, sigma, a0, mu, rel, 1.0)
            assert got[0].tolist() == [
                _model_piece_by_row(m, *row[:1], *row, 1.0)
                for row in rows], (m, family)


def _sweep_reference(m, t_eff, a, b, mu, c, gam):
    """A sweep row's piece by 40-digit mpmath.quad, split at gamma."""
    with mpmath.workdps(40):
        return mu * mpmath.quad(
            lambda u: (t_eff - u) ** (m - 1) * mpmath.log(c + 1j * (u - gam)),
            [a, gam, b] if a < gam < b else [a, b])


def test_model_pieces_within_their_allowance_of_mpmath():
    # Each sweep piece lies within 2e-16 of its two masses (measured at
    # most 6.4e-17 of them), far inside its (3m + 9) u allowance; the
    # binomial terms' mass alone misses the cancellation inside the L_j,
    # by up to 3.7e-15 of it on 43 of these runs.  m <= 3, t_eff <= 2100,
    # a row of each family in turn.
    rng = np.random.default_rng(5)
    for run in range(100):
        m = int(rng.integers(1, 4))
        t_eff = float(rng.uniform(20.0, 2100.0))
        a, b, mu, c, gam = _sweep_row(rng, run % 5, t_eff)
        piece, terms, inner = eta_module._model_pieces(
            m, t_eff, *(np.array([x]) for x in (a, b, mu, c - 1j * gam)), 1j)
        ref = _sweep_reference(m, t_eff, a, b, mu, c, gam)
        err = float(abs(mpmath.mpc(piece[0]) - ref))
        assert err <= 2e-16 * (terms[0] + inner[0]), (
            run, m, t_eff, a, b, c, gam, err, terms[0], inner[0])


def test_model_pieces_within_half_their_derived_allowance():
    # The one closed form's allowance, (3m + 9) u of a piece's two masses,
    # against 40-digit mpmath at m up to 8: each window row family and each
    # sweep row family once per order, every error at most half of it
    # (measured at most 0.045 of it here)
    rng = np.random.default_rng(32)
    for m in (1, 2, 3, 5, 8):
        for k in range(4):
            _, span, mu, c = _window_row(rng, k % 4, k // 4)
            got, allowance = _ray_piece(m, 0.0, span, mu, c)
            err = float(abs(mpmath.mpc(got)
                            - _window_reference(m, span, mu, c)))
            assert err <= 0.5 * allowance, (m, span, c, err, allowance)
        for family in range(5):
            t_eff = float(rng.uniform(20.0, 2100.0))
            a, b, mu, c, gam = _sweep_row(rng, family, t_eff)
            (piece,), (terms,), (inner,) = eta_module._model_pieces(
                m, t_eff, a, b, np.array([mu]), np.array([c - 1j * gam]), 1j)
            err = float(abs(mpmath.mpc(piece)
                            - _sweep_reference(m, t_eff, a, b, mu, c, gam)))
            allowance = eta_module._piece_rounding(m) * (terms + inner)
            assert err <= 0.5 * allowance, (m, a, b, c, gam, err, allowance)


# --- the iterated sweep's batched walk -----------------------------------------

def test_sweep_refuses_an_end_off_the_ray_branch(store, slipped_branch):
    with pytest.raises(NumericalError, match="winding sweep disagrees"):
        eta_iterated(complex(0.8, 40.0), 1, store)


def test_sweep_midpoint_insertion_inside_panels(store, monkeypatch):
    # a small continuity step makes nodes of a batch fall back to midpoint
    # insertion; the value stays within the unpatched estimate
    s = complex(0.5, 40.0)
    ref = eta_iterated(s, 2, store)
    inserted = []
    walk = eta_module._Sweep.step

    def counted(self, u, depth=0):
        if depth > 0:
            inserted.append(u)
        return walk(self, u, depth)

    monkeypatch.setattr(sys.modules["zeta_eta.branch"], "_CONT_STEP", 0.02)
    monkeypatch.setattr(eta_module._Sweep, "step", counted)
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

    def with_zero(line, coords, prec):
        vals, rems = real_em(line, coords, prec)
        if len(vals) > quadrature._NODES.size:
            vals[7] = 0j
        return vals, rems

    monkeypatch.setattr(eta_module, "_zeta_em", with_zero)
    with pytest.raises(OnSingularity, match="= 0 at working precision"):
        eta_iterated(complex(0.5, 30.0), 1, store)


def test_sweep_takes_one_zeta_pass_per_call(store, monkeypatch):
    # every call of the sweep, a block of panels or a single node, makes
    # one _zeta_em pass on its line, within that call, at exactly the nodes
    # it is handed: no zeta is evaluated ahead of the call.  Passes on the
    # sweep's vertical line alone are counted, so the real-axis passes of
    # a cold c_1 and the ray's at the end check stay out.
    real_em = eta_module._zeta_em
    block, step = eta_module._Sweep.eval, eta_module._Sweep.step
    passes, handed, open_calls = [], [], []

    def counted_em(line, coords, prec):
        if isinstance(line, eta_module._Line):
            passes.append((len(open_calls), np.array(coords)))
        return real_em(line, coords, prec)

    def counted(walk):
        def call(self, u, *args, **kwargs):
            handed.append(np.ravel(u))
            open_calls.append(u)
            try:
                return walk(self, u, *args, **kwargs)
            finally:
                open_calls.pop()
        return call

    for module in (eta_module, sys.modules["zeta_eta.branch"]):
        monkeypatch.setattr(module, "_zeta_em", counted_em)
    monkeypatch.setattr(eta_module._Sweep, "eval", counted(block))
    monkeypatch.setattr(eta_module._Sweep, "step", counted(step))
    eta_iterated(complex(0.5, 700.3), 1, store)
    assert len(handed) > 2 and len(passes) == len(handed)
    for (inside, coords), nodes in zip(passes, handed):
        assert inside > 0 and np.array_equal(coords, nodes)


def test_sweep_answers_a_block_in_its_panels_shape():
    # a sweep of two panels at sigma = 2, its window the pole row alone,
    # takes both in one block and answers a row per panel
    panels = np.array([[0.25, 0.5], [0.5, 1.0]])
    sweep = eta_module._Sweep(2.0, DEFAULT_PRECISION, np.array([-1.0]),
                              np.array([1.0 + 0j]))
    sweep.anchor(0, 1)
    us = quadrature._nodes(panels[:, :1], panels[:, 1:])
    g, err = sweep.eval(us, np.zeros(2, dtype=int), np.ones(2, dtype=int))
    assert g.shape == err.shape == us.shape
    log_zeta = g - np.log(1.0 + 1j * us)
    assert abs(log_zeta[1, -1] - cmath.log(complex(
        mpmath.zeta(complex(2.0, us[1, -1]))))) <= 1e-12


def _linspace_panels(t_eff, store):
    # the panels as cut one interval at a time by np.linspace
    gs = store.gammas
    edges = np.unique(np.concatenate(([0.0, t_eff],
                                      gs[(gs > 0.0) & (gs < t_eff)])))
    lo, hi = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        n = max(1, math.ceil((b - a) / eta_module._PANEL_MAX))
        sub = np.linspace(a, b, n + 1)
        lo.append(sub[:-1])
        hi.append(sub[1:])
    return np.column_stack((np.concatenate(lo), np.concatenate(hi)))


# 1.7 + 2 ((3.89 - 1.7) / 2) is 3.8900000000000006: linspace sets the end
# of [1.7, 3.89], two panels at the cap of 2, to 3.89
_OFF_END = ZeroStore([ZeroRecord(1.7), ZeroRecord(30.0)], "test")


@pytest.mark.parametrize("table, top", [
    (None, None), (None, 2140.0), (None, 0.7), (None, 14.134725141734694),
    (_OFF_END, 3.89)])
def test_line_panels_are_the_linspace_panels(store, table, top):
    table = table or store
    t_eff = table.t_max - 2.5 if top is None else top
    assert np.array_equal(eta_module._line_panels(t_eff, table),
                          _linspace_panels(t_eff, table))


def test_sweep_value_does_not_depend_on_its_panel_width(store, monkeypatch):
    # G is analytic within _WINDOW of every panel, so the Kronrod value of
    # a panel at the cap is exact to rounding: halving the cap moves
    # eta_iterated by no more than either run's est_err
    panels = eta_module._line_panels(700.3, store)
    assert np.all(panels[:, 1] - panels[:, 0] <= eta_module._PANEL_MAX)
    rng = np.random.default_rng(12)
    points = [(float(rng.uniform(0.5, 2.0)), float(rng.uniform(15.0, 1000.0)),
               m) for m in (1, 2) for _ in range(3)]
    wide = [eta_iterated(complex(sigma, t), m, store)
            for sigma, t, m in points]
    monkeypatch.setattr(eta_module, "_PANEL_MAX", 0.5 * eta_module._PANEL_MAX)
    narrow = [eta_iterated(complex(sigma, t), m, store)
              for sigma, t, m in points]
    for a, b in zip(wide, narrow):
        assert abs(a.value - b.value) <= min(a.est_err, b.est_err), (a, b)
    monkeypatch.setattr(eta_module, "_PANEL_MAX", 1.0)
    assert len(panels) < len(eta_module._line_panels(700.3, store))


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
    # first block, and at the second block's first panel, on a sweep of two
    # blocks.  With _CONT_STEP at 0.3 only those two steps fail; the walk
    # falls back there, inserts midpoints in the gaps, and pins every node
    # as the node walk does.
    t_eff = store.snap(60.0)
    us = quadrature._nodes(*eta_module._line_panels(t_eff, store).T[:, :, None])
    second = eta_module._BLOCK_NODES // quadrature._NODES.size
    assert second < len(us) <= 2 * second
    gaps = [(us[p - 1, -1], us[p, 0]) for p in (5, second)]
    real_em = eta_module._zeta_em

    def ramped(line, coords, prec):
        vals, rems = real_em(line, coords, prec)
        x = np.atleast_1d(coords)
        lift = sum(sign * 0.4 * np.clip((x - lo) / (hi - lo), 0.0, 1.0)
                   for sign, (lo, hi) in zip((1, -1), gaps))
        return np.asarray(vals) * np.exp(lift), rems

    inserted = []
    walk = eta_module._Sweep.step

    def counted(self, u, depth=0):
        if depth > 0:
            inserted.append(u)
        return walk(self, u, depth)

    branch = sys.modules["zeta_eta.branch"]
    monkeypatch.setattr(branch, "_CONT_STEP", 0.3)
    # the blocks' passes and the midpoints' (branch._Walk.step's)
    for module in (eta_module, branch):
        monkeypatch.setattr(module, "_zeta_em", ramped)
    monkeypatch.setattr(eta_module._Sweep, "step", counted)
    got, _ = eta_module._iterated_integral(0.5, t_eff, 1, store,
                                           DEFAULT_PRECISION)
    for lo, hi in gaps:
        assert any(lo < u < hi for u in inserted), (lo, hi)
    assert all(any(lo < u < hi for lo, hi in gaps) for u in inserted)
    monkeypatch.setattr(eta_module._Walk, "pin", node_by_node_pin)
    ref, _ = eta_module._iterated_integral(0.5, t_eff, 1, store,
                                           DEFAULT_PRECISION)
    assert abs(got - ref) <= 1e-14 * (1.0 + abs(ref))


def test_targets_zeta_sends_to_extended_precision_are_refused(
        store, tight, monkeypatch):
    # At abs_err 1e-12 zeta goes to mpmath above t = 500.  The ray walks
    # and the sweep evaluate in doubles, whose error there exceeds their
    # estimates, so each entry refuses at t = 700, naming abs_err and t,
    # before any zeta pass or sample; at t = 20 the answer is within its
    # est_err of 40-digit mpmath, and the two routes agree.
    def no_pass(*args, **kwargs):
        raise AssertionError("evaluated before the refusal")

    for module in (eta_module, sys.modules["zeta_eta.branch"],
                   sys.modules["zeta_eta.zeta"]):
        monkeypatch.setattr(module, "_zeta_em", no_pass)
    monkeypatch.setattr(distribution, "_samples", no_pass)
    grid = distribution.GridSpec(count=100, seed=35)
    for call in (
            lambda: branch_path(700.0, 0.5, tight, store),
            lambda: branch_path(-700.0, 2.0, tight, store),
            lambda: log_zeta_with_err(0.3 + 700j, tight, store),
            lambda: eta_vertical(0.7 + 700j, 1, store, tight),
            lambda: eta_iterated(0.7 + 700j, 2, store, tight),
            lambda: distribution.measure_t_m(350.0, 10.0, 0.5, 1, grid,
                                             store=store, prec=tight),
            lambda: distribution.moment_residual(
                700.0, 10.0, 1, 1, grid, store=store, prec=tight,
                enforce_range=False)):
        with pytest.raises(ValidationError, match="abs_err=1e-12 at t=700"):
            call()
    monkeypatch.undo()
    for sigma in (-0.5, 0.0, 0.3, 0.7, 1.5):
        got, est = log_zeta_with_err(complex(sigma, 20.0), tight, store)
        with mpmath.workdps(40):
            ref = complex(mpmath.log(mpmath.zeta(mpmath.mpc(sigma, 20.0))))
        k = round((got.imag - ref.imag) / (2.0 * math.pi))
        assert abs(got - ref - 2j * math.pi * k) <= est, sigma
    assert route_check(0.7 + 20j, 1, store, tight)["agree"]
