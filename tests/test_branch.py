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
from zeta_eta.errors import BudgetExceeded, OnSingularity, ValidationError
from zeta_eta.precision import EvalPrecision
from zeta_eta.zeros import builtin_store

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
    # above the march start the winding is 0: the principal logarithm
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
    monkeypatch.setattr(sys.modules["zeta_eta.branch"], "_MARCH_BUDGET", 3)
    with pytest.raises(BudgetExceeded, match="exceeded 3 steps"):
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
    # 0 < t < 0.05: the march subtracts the pole at s = 1 analytically.  Just
    # above the axis, zeta(s) lies in the lower half-plane for sigma < 1, so
    # the branch is the principal logarithm there as well.
    with mp.workdps(30):
        ref = complex(mp.log(mp.zeta(mp.mpc(sigma, t))))
    val, _ = log_zeta_with_err(complex(sigma, t))
    assert abs(val - ref) <= 1e-12, (sigma, t, val, ref)


# --- arrays of abscissae on one prepared ray -----------------------------------

def _around(x: float) -> list[float]:
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


def test_array_winding_equals_scalar_winding_at_every_break(store):
    from zeta_eta.branch import BranchPath
    from zeta_eta.zeta import _Ray
    real = branch_path(500.0, -1.0, store=store)        # one wrap below 0
    made = BranchPath(t=30.0, sigma_end=-1.0, conjugate=False,
                      _breaks=[40.0, 10.0, 3.0, 0.5, -0.7],
                      _winds=[0, 1, 2, 1, 0], _ray=_Ray(30.0, shared=True))
    assert len(real._breaks) >= 2
    for path in (real, made):
        xs = [x for b in path._breaks for x in _around(b)
              if x >= path.sigma_end] + [path.sigma_end, 45.0, 1e6]
        got = path.winding(np.array(xs))
        assert got.shape == (len(xs),)
        assert got.tolist() == [path.winding(x) for x in xs]
        assert got.reshape(3, -1).tolist() == path.winding(
            np.array(xs).reshape(3, -1)).tolist()
    # the synthetic breaks: winds[i] holds on (breaks[i+1], breaks[i]]
    assert [made.winding(x) for x in _around(3.0)] == [2, 2, 1]
    assert made.winding(-1.0) == 0 and made.winding(40.5) == 0


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
