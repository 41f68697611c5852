"""Branch-tracked log zeta: ray continuation, closed forms, S(t).

Reference values frozen from an independent high-precision horizontal-ray
march (adaptive step, winding tracked by quotient arguments, 30 digits).
"""

import cmath
import math
import sys

import mpmath as mp
import numpy as np
import pytest

from zeta_eta.branch import big_s, branch_path, log_zeta, log_zeta_with_err
from zeta_eta.errors import (BudgetExceeded, NearSingularity, NumericalError,
                             OnSingularity, ValidationError)
from zeta_eta.precision import EvalPrecision
from zeta_eta.zeros import ZeroRecord, ZeroStore, builtin_store, rvmf_check

# {(sigma, t): branch value of log zeta}
BRANCH_ORACLE = {
    (0.5, 30.0): -0.5174667619879809 - 1.7746148293844037j,
    (1.0, 22.0): -0.19069001255687196 + 0.37960866668231513j,
    (0.5, 14.2): -2.9556413292470025 + 1.702140743240873j,
    (2.0, 10.0): 0.18281785161251893 - 0.06599055965119348j,
    (0.5, 100.0): 0.9905433146180622 - 0.007570931273008948j,
    (-0.5, 50.0): 1.7040400705922816 + 3.348918376142519j,
    (0.5, 222.2): 0.6643408263764278 + 1.2281767194271578j,
}

# 40-digit zeta values on the real axis (for the t = 0 closed form)
ZETA_HALF = -1.4603545088095868
ZETA_MINUS_HALF = -0.20788622497735457


def test_branch_oracle_grid(store):
    for (sig, t), ref in BRANCH_ORACLE.items():
        got, est = log_zeta_with_err(complex(sig, t), store=store)
        assert abs(got - ref) < 1e-9, ((sig, t), got, ref)
        assert 0.0 <= est < 1e-9


def test_principal_far_right():
    # at sigma >= 40 the branch is the principal logarithm
    from zeta_eta.zeta import zeta
    s = complex(41.0, 7.0)
    got, _ = log_zeta_with_err(s)
    assert abs(got - cmath.log(complex(zeta(s)))) < 1e-14


def test_real_axis_closed_form():
    # t = 0: Im log zeta(sigma) is 0 for zeta > 0 and -pi for zeta < 0
    got, _ = log_zeta_with_err(complex(2.0, 0.0))
    assert abs(got - cmath.log(1.6449340668482264)) < 1e-12
    got, _ = log_zeta_with_err(complex(0.5, 0.0))
    assert abs(got.real - math.log(-ZETA_HALF)) < 1e-12
    assert got.imag == pytest.approx(-math.pi, abs=1e-15)
    got, _ = log_zeta_with_err(complex(-0.5, 0.0))
    assert abs(got.real - math.log(-ZETA_MINUS_HALF)) < 1e-12
    assert got.imag == pytest.approx(-math.pi, abs=1e-15)


def test_conjugate_symmetry(store):
    # values at -t are conjugates of values at t (real axis convention aside)
    for (sig, t) in [(0.5, 30.0), (2.0, 10.0)]:
        up, _ = log_zeta_with_err(complex(sig, t), store=store)
        dn, _ = log_zeta_with_err(complex(sig, -t), store=store)
        assert abs(dn - up.conjugate()) < 1e-10


def test_log_zeta_exp_recovers_zeta(store):
    from zeta_eta.zeta import zeta
    for (sig, t) in BRANCH_ORACLE:
        if sig < -0.99:
            continue
        val = log_zeta(complex(sig, t), store=store)
        assert abs(cmath.exp(val) - complex(zeta(complex(sig, t)))) < 1e-9


def test_singularity_refusals(store):
    with pytest.raises(OnSingularity):
        log_zeta_with_err(complex(1.0, 0.0), store=store)
    with pytest.raises(OnSingularity):
        log_zeta_with_err(complex(1.0 + 1e-13, 1e-13), store=store)
    g1 = float(store.gammas[0])
    with pytest.raises(OnSingularity):
        log_zeta_with_err(complex(0.5, g1), store=store)


def test_ordinate_snapping_takes_lower_limit(store):
    # exactly at an ordinate (beyond the refusal radius in sigma) the value
    # is the limit from below in t
    g1 = float(store.gammas[0])
    at, _ = log_zeta_with_err(complex(0.8, g1 + 2e-10), store=store)
    below, _ = log_zeta_with_err(complex(0.8, g1 - 1e-7), store=store)
    assert abs(at - below) < 1e-4


def test_branch_path_eval_and_domain(store):
    from zeta_eta.zeta import zeta
    path = branch_path(30.0, 0.5, store=store)
    v, _ = path.eval_log(0.5)
    assert abs(v - BRANCH_ORACLE[(0.5, 30.0)]) < 1e-9
    v40, _ = path.eval_log(39.9)
    assert abs(v40 - cmath.log(complex(zeta(complex(39.9, 30.0))))) < 1e-12
    # above the walk start the winding is 0: the principal logarithm
    for alpha in (40.0, 40.5, 45.0, 84.0):
        v, est = path.eval_log(alpha)
        assert v == cmath.log(complex(zeta(complex(alpha, 30.0))))
        assert 0.0 < est < 1e-12
    for bad in (0.3, math.nan, math.inf):    # 0.3: left of the path end
        with pytest.raises(ValidationError):
            path.eval_log(bad)
    with pytest.raises(ValidationError):
        branch_path(30.0, 41.0, store=store)
    with pytest.raises(ValidationError):
        branch_path(1e9, 0.5, store=store)   # beyond the table


def test_branch_march_budget(store, monkeypatch):
    monkeypatch.setattr(sys.modules["zeta_eta.branch"], "_WALK_BUDGET", 3)
    with pytest.raises(BudgetExceeded, match="exceeded 3 nodes"):
        branch_path(30.0, 0.5, store=store)


def test_big_s_values_and_jump(store):
    # frozen S(t) values (branch oracle / pi)
    assert big_s(30.0, store=store) == pytest.approx(-0.5648774443614166,
                                                     abs=1e-9)
    assert big_s(100.0, store=store) == pytest.approx(-0.00240990227181678,
                                                      abs=1e-9)
    assert big_s(14.2, store=store) == pytest.approx(0.5418082262497952,
                                                     abs=1e-9)
    # S jumps by exactly +1 across a simple zero
    g1 = float(store.gammas[0])
    jump = big_s(g1 + 1e-6, store=store) - big_s(g1 - 1e-6, store=store)
    assert jump == pytest.approx(1.0, abs=1e-3)


def test_estimate_is_honest_on_oracle_grid(store):
    # reported est_err covers the actual error against the oracle
    for (sig, t), ref in BRANCH_ORACLE.items():
        got, est = log_zeta_with_err(complex(sig, t),
                                     EvalPrecision(abs_err=1e-10), store)
        assert abs(got - ref) <= max(est, 1e-12) + 1e-12


@pytest.mark.parametrize("t", [1e-6, 1e-3, 0.01, 0.049])
@pytest.mark.parametrize("sigma", [0.0, 0.3, 0.9, 0.99, 1.0, 1.01, 1.5, 2.0])
def test_log_zeta_just_above_the_real_axis(sigma, t):
    # 0 < t < 0.05: the walk's model subtracts the pole at s = 1.  Just
    # above the axis, zeta(s) lies in the lower half-plane for sigma < 1, so
    # the branch is the principal logarithm there as well.
    with mp.workdps(30):
        ref = complex(mp.log(mp.zeta(mp.mpc(sigma, t))))
    val, _ = log_zeta_with_err(complex(sigma, t))
    assert abs(val - ref) <= 1e-12, (sigma, t, val, ref)


# --- arrays of abscissae on one prepared ray -----------------------------------

def _around(x: float) -> list[float]:
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


def test_array_winding_equals_scalar_winding_at_the_walk_nodes(store):
    # a ray past zeros to sigma = -1 (windings 0 and others), one near the
    # pole, and one passing 1e-9 below a zero (an on-ordinate height)
    g1 = float(store.gammas[0])
    for t, end in ((500.0, -1.0), (0.3, -1.0), (g1, 0.2)):
        path = branch_path(t, end, store=store)
        nodes = np.array(path.xs)
        between = 0.5 * (nodes[:-1] + nodes[1:])
        xs = np.concatenate(([x for n in nodes.tolist() for x in _around(n)
                              if x >= path.sigma_end], between,
                             [40.0, 45.0, 1e6]))
        got = path.winding(xs)
        assert got.shape == (len(xs),)
        assert got.tolist() == [path.winding(x) for x in xs.tolist()]
        grid = xs[:len(xs) // 3 * 3].reshape(3, -1)
        assert path.winding(grid).tolist() == got[:grid.size].reshape(
            3, -1).tolist()
        assert (got[xs >= 40.0] == 0).all()
        assert len(set(got.tolist())) >= (2 if t == 500.0 else 1)


def test_eval_log_takes_arrays(store):
    path = branch_path(500.0, -1.0, store=store)
    xs = np.array([-1.0, -0.5, 0.0, 0.5, 2.0, 39.9, 45.0])
    vals, ests = path.eval_log(xs)
    assert vals.shape == ests.shape == xs.shape
    for x, v, e in zip(xs.tolist(), vals, ests):
        one, one_est = path.eval_log(x)
        if x >= 0.5:    # further left, est leaves out the rounding of n^-s
            assert abs(v - one) <= e + one_est
    with mp.workdps(30):
        for x, v in zip(xs.tolist(), vals):
            ref = mp.log(mp.zeta(mp.mpc(x, path.t)))
            # the branch differs from the principal value by 2 pi i k
            k = round(float(v.imag - ref.imag) / (2 * math.pi))
            assert abs(v - complex(ref) - 2j * math.pi * k) <= 1e-9
            assert k == path.winding(x)
    for bad in (np.array([0.5, math.nan]), np.array([-1.5, 0.5]),
                np.array([0.5, math.inf])):
        with pytest.raises(ValidationError, match="alpha="):
            path.eval_log(bad)


def test_eval_log_refuses_a_zero_value(store, monkeypatch):
    branch = sys.modules["zeta_eta.branch"]
    path = branch_path(30.0, 0.5, store=store)
    evaluate = branch._zeta_em

    def second_is_zero(ray, alpha, prec, want_deriv):
        vals, ders, rems = evaluate(ray, alpha, prec, want_deriv)
        vals[1] = 0j
        return vals, ders, rems

    monkeypatch.setattr(branch, "_zeta_em", second_is_zero)
    with pytest.raises(OnSingularity, match=r"zeta\(\(2\+30j\)\) = 0"):
        path.eval_log(np.array([1.0, 2.0, 3.0]))


# --- the walk's domain and tables with wrong zeros -----------------------------

def test_log_zeta_refuses_sigma_below_minus_one(store):
    # on the real axis too, and naming the parameter the caller gave
    for s in (-3 + 0j, -5 + 0j, -30 + 0j, -3 + 1j):
        with pytest.raises(ValidationError, match="sigma="):
            log_zeta_with_err(s, store=store)
    with mp.workdps(30):
        for s in (-1 + 0j, -1 + 1j):
            ref = complex(mp.log(mp.zeta(mp.mpc(s.real, s.imag))))
            got, est = log_zeta_with_err(s, store=store)
            k = round((got.imag - ref.imag) / (2 * math.pi))
            assert abs(got - ref - 2j * math.pi * k) <= 1e-9, s
            assert est < 1e-9
    assert log_zeta_with_err(-1 + 0j, store=store)[0].imag == -math.pi


def test_zero_count_identity_across_the_table(store):
    # N(T) = theta/pi + 1 + S(T) checks the winding at sigma = 1/2 apart from
    # how it is computed, at heights over the whole table
    rng = np.random.default_rng(2150)
    gammas = store.gammas
    for t in rng.uniform(15.0, 2150.0, 60).tolist():
        i = int(np.argmin(np.abs(gammas - t)))
        if abs(t - gammas[i]) <= 1e-5:
            t = float(gammas[i]) + 1e-5
        assert abs(rvmf_check(store, t).delta) < 1e-6, t


def test_an_injected_double_zero_leaves_the_branch_unchanged(store):
    # a made-up double zero in the table, passed at vertical distance 1e-4 to
    # 1e-1 on the way to sigma: log zeta is the builtin table's, bit for bit
    rng = np.random.default_rng(21)
    for d in (1e-4, 1e-3, 1e-2, 1e-1):
        for _ in range(4):
            t = float(rng.uniform(15.0, 2100.0))
            beta = float(rng.uniform(0.05, 0.95))
            gamma = t + d * (1.0 if rng.random() < 0.5 else -1.0)
            s = complex(float(rng.uniform(-1.0, beta - 0.01)), t)
            made = store.inject_hypothetical(beta, gamma, 2)
            assert log_zeta_with_err(s, store=made) == \
                log_zeta_with_err(s, store=store), (s, beta, gamma)


def test_a_zero_declared_double_leaves_the_branch_unchanged(store):
    # zero #592 (gamma = 929.874...) declared double in a copy of the table
    records = [store.record(i) for i in range(len(store))]
    records[592] = ZeroRecord(records[592].gamma, records[592].beta, 2)
    made = ZeroStore(records, "592 double")
    s = complex(-0.5, 929.8740384230465)
    assert log_zeta_with_err(s, store=made) == log_zeta_with_err(s,
                                                                 store=store)
    assert log_zeta_with_err(s, store=made)[0].imag == pytest.approx(
        -2.87922, abs=1e-5)


def test_coarse_precision_keeps_the_winding_on_ordinates(store):
    # a ray on an ordinate passes 1e-9 from the zero, where an absolute error
    # of 1e-6 or 1e-3 would leave the phase of zeta to noise; the walk's
    # nodes keep the default precision, so only the value is coarse
    rng = np.random.default_rng(8)
    cases = [(0.25, 917.8253775704268, 1e-3), (0.0, 1192.2186114780015, 1e-6),
             (0.25, 535.6643140759733, 1e-3)]
    for i in rng.choice(len(store), 8, replace=False).tolist():
        cases += [(sigma, float(store.gammas[i]), abs_err)
                  for sigma in (0.0, 0.25) for abs_err in (1e-6, 1e-3)]
    for sigma, t, abs_err in cases:
        ref, _ = log_zeta_with_err(complex(sigma, t), store=store)
        got, est = log_zeta_with_err(complex(sigma, t),
                                     EvalPrecision(abs_err=abs_err), store)
        assert abs(got - ref) <= est, (sigma, t, abs_err)


def test_every_ordinate_of_the_table_on_the_critical_line(store):
    # a ray on an ordinate passes 1e-9 below the zero; at sigma = 1/2 its
    # argument is the one 1e-7 below, up to the noise of |zeta| ~ 1e-9
    for gamma in store.gammas.tolist():
        on, _ = log_zeta_with_err(complex(0.5, gamma - 1e-9), store=store)
        below, _ = log_zeta_with_err(complex(0.5, gamma - 1e-7), store=store)
        assert abs(on.imag - below.imag) < 0.01, gamma


def test_a_query_whose_phase_is_noise_is_refused(store):
    # sigma = 1/2 on 8 ordinates (t = gamma + 5e-10, snapped to gamma - 1e-9):
    # |zeta| ~ 1e-9 |zeta'(rho)|, so at abs_err 1e-3 the value's phase is
    # noise.  Where the error bound reaches |zeta|/2 the query is refused;
    # pinned anyway, it stalls with a NumericalError or answers with
    # est_err 5 to 32
    rng = np.random.default_rng(8)
    refused = {1e-3: 0, 1e-6: 0}
    for i in rng.choice(len(store), 8, replace=False).tolist():
        s = complex(0.5, float(store.gammas[i]) + 5e-10)
        ref, _ = log_zeta_with_err(s, store=store)
        for abs_err in refused:
            try:
                got, est = log_zeta_with_err(
                    s, EvalPrecision(abs_err=abs_err), store)
            except NearSingularity as exc:
                assert exc.where.imag == pytest.approx(s.imag, abs=1e-8)
                refused[abs_err] += 1
                continue
            except NumericalError:
                pytest.fail(f"stalled at {s}, abs_err={abs_err}")
            assert est < 0.5 and abs(got - ref) <= est, (s, abs_err)
    assert refused == {1e-3: 8, 1e-6: 4}
    # the refusal names the point asked for, below the real axis too
    with pytest.raises(NearSingularity) as info:
        log_zeta_with_err(s.conjugate(), EvalPrecision(abs_err=1e-3), store)
    assert info.value.where == pytest.approx(s.conjugate(), abs=1e-8)


def test_eval_log_refuses_where_the_bound_reaches_half_of_zeta(store,
                                                               monkeypatch):
    branch = sys.modules["zeta_eta.branch"]
    path = branch_path(30.0, 0.5, store=store)
    evaluate = branch._zeta_em

    def second_is_uncertain(ray, alpha, prec, want_deriv):
        vals, ders, rems = evaluate(ray, alpha, prec, want_deriv)
        if len(vals) == 3:
            rems[1] = 0.5 * abs(vals[1])
        return vals, ders, rems

    monkeypatch.setattr(branch, "_zeta_em", second_is_uncertain)
    with pytest.raises(NearSingularity, match=r"zeta\(\(2\+30j\)\)"):
        path.eval_log(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(NearSingularity):
        path.winding(np.array([1.0, 2.0, 3.0]))


def test_log_zeta_far_right(store):
    # eval_log is documented on [sigma_end, infinity): far right of the walk
    # start log zeta is 0 and the winding is 0, at any finite sigma
    path = branch_path(500.0, 0.5, store=store)
    for sigma in (2000.0, 5e5, 1e20, 1e300):
        assert path.eval_log(sigma)[0] == 0j
        assert path.winding(sigma) == 0
        val, est = log_zeta_with_err(complex(sigma, 500.0), store=store)
        assert val == 0j and 0.0 < est < 1e-14
    assert log_zeta_with_err(1e6 + 10j, store=store)[0] == 0j
    xs = np.array([0.5, 2000.0, 1e6, 1e300])
    vals, ests = path.eval_log(xs)
    one, one_est = path.eval_log(0.5)
    assert abs(vals[0] - one) <= ests[0] + one_est
    assert (vals[1:] == 0j).all()
    assert path.winding(xs).tolist() == [path.winding(0.5), 0, 0, 0]
