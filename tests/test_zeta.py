"""Euler-Maclaurin zeta, log-derivative guards, log Gamma, theta, Hardy Z.

Reference values were frozen from a 40-digit software-precision evaluation
(independent of the double-precision code under test).
"""

import cmath
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeta_eta.errors import (BudgetExceeded, NearSingularity, PoleAtOne,
                             ValidationError)
from zeta_eta.precision import EvalPrecision
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
