"""The shared argument checkers and the library refusals routed through them."""

import math
import re
import sys

import numpy as np
import pytest

import zeta_eta.approx as approx
import zeta_eta.kernels as kernels
from zeta_eta.approx import (ApproxConfig, dirichlet_poly, lambda_prime_x, p_f,
                             relzz_decompose, residual, y_m)
from zeta_eta.branch import branch_path
from zeta_eta.distribution import GridSpec, tail_table
from zeta_eta.errors import (BeyondSieve, BeyondTable, InvalidFamily,
                             OutOfStrip, ValidationError, _integer, _point,
                             _real)
from zeta_eta.eta import (eta_iterated, eta_vertical, s_m,
                          zero_sum_polynomial)
from zeta_eta.kernels import (DEFAULT_KERNEL, boundary_derivative, e_star,
                              make_kernel, u_f_h, u_m_eval, v_f_h)
from zeta_eta.precision import EvalPrecision
from zeta_eta.zeros import (builtin_store, count_window, inject_hypothetical,
                            rvmf_check, sigma_xt)
from zeta_eta.zeta import log_gamma, theta, zeta_log_deriv

NAN, INF = math.nan, math.inf


def test_integer_checker():
    assert _integer(3, "m") == 3 and type(_integer(np.int64(3), "m")) is int
    assert _integer(5, "k", 5) == 5
    for bad in (True, False, 1.5, 2.0, "2", None, np.float64(1.0)):
        with pytest.raises(ValidationError, match="m="):
            _integer(bad, "m")
    with pytest.raises(ValidationError,
                       match=r"integer k >= 1 required, got k=0"):
        _integer(0, "k", 1)
    with pytest.raises(InvalidFamily):
        _integer(0, "d", 1, InvalidFamily)


def test_real_checker():
    assert _real(3, "X", 3.0) == 3.0
    assert type(_real(np.float64(2.5), "X")) is float
    assert _real(-1e300, "v") == -1e300
    for bad in (NAN, INF, -INF, True, "3", None, 1j):
        with pytest.raises(ValidationError, match="X="):
            _real(bad, "X")
    with pytest.raises(ValidationError,
                       match=r"finite X >= 2 required, got X=1\.5"):
        _real(1.5, "X", 2.0)


def test_point_checker():
    assert _point(2) == 2 + 0j and _point(np.complex128(1 + 2j)) == 1 + 2j
    for bad in (complex(NAN, 1), complex(1, INF), NAN, True, "2", None):
        with pytest.raises(ValidationError, match="z="):
            _point(bad, "z")


_CFG = ApproxConfig(m=1, X=10.0)


@pytest.mark.parametrize("call, exc, name", [
    # a non-integer m or order used to die with a raw TypeError
    (lambda: u_m_eval(1.5, 0.5j), ValidationError, "m=1.5"),
    (lambda: e_star(1.5, 1 + 1j), ValidationError, "m=1.5"),
    (lambda: boundary_derivative(DEFAULT_KERNEL, 1.5, 0), ValidationError,
     "order=1.5"),
    # d used to be truncated by int(d)
    (lambda: make_kernel("poly_bump", 2.7), InvalidFamily, "d=2.7"),
    (lambda: make_kernel("poly_bump", True), InvalidFamily, "d=True"),
    # a bool used to count as m = 1 in some places only
    (lambda: ApproxConfig(m=True, X=10.0), ValidationError, "m=True"),
    (lambda: y_m(complex(0.5, 20.0), 10.0, True), ValidationError, "m=True"),
    (lambda: e_star(True, 1 + 1j), ValidationError, "m=True"),
    (lambda: eta_vertical(complex(0.5, 20.0), True), ValidationError, "m=True"),
    # non-finite numbers used to become answers
    (lambda: builtin_store().sigma_xt(100.0, NAN), ValidationError, "X=nan"),
    (lambda: builtin_store().sigma_xt(100.0, INF), ValidationError, "X=inf"),
    (lambda: builtin_store().count_window(NAN, 1.0), ValidationError, "t=nan"),
    (lambda: builtin_store().count_below(NAN), ValidationError, "t=nan"),
    (lambda: p_f(complex(NAN, 20.0), 10.0), ValidationError, "s="),
    (lambda: dirichlet_poly(complex(0.5, NAN), _CFG), ValidationError, "s="),
    (lambda: u_f_h(DEFAULT_KERNEL, 1.0, NAN), ValidationError, "x=nan"),
    (lambda: v_f_h(DEFAULT_KERNEL, 1.0, NAN), ValidationError, "y=nan"),
    # a non-finite z used to run 4000 quadrature panels first
    (lambda: u_m_eval(1, complex(NAN, 0.5)), ValidationError, "z="),
    (lambda: e_star(1, complex(NAN, 0.5)), ValidationError, "z="),
    (lambda: e_star(1, complex(0.5, INF)), ValidationError, "z="),
    # refusals that used to name another parameter
    (lambda: eta_vertical(complex(NAN, 20.0), 1), ValidationError, "s="),
    (lambda: rvmf_check(builtin_store(), NAN), ValidationError, "T=nan"),
    (lambda: relzz_decompose(NAN, 10.0), ValidationError, "t=nan"),
    # np.random.default_rng refuses a negative seed with a raw ValueError
    (lambda: GridSpec(count=100, seed=-1), ValidationError, "seed=-1"),
    # the same kinds of drift, in entries the list above does not reach
    (lambda: GridSpec(count=True), ValidationError, "count=True"),
    (lambda: inject_hypothetical(builtin_store(), 0.75, 30.0, 1.5), OutOfStrip,
     "multiplicity=1.5"),
    (lambda: lambda_prime_x(6, NAN), ValidationError, "X=nan"),
    (lambda: zero_sum_polynomial(1, NAN, 20.0, builtin_store()),
     ValidationError, "sigma=nan"),
    (lambda: builtin_store().nearest_gamma(NAN), ValidationError, "t=nan"),
    (lambda: y_m(complex(NAN, 20.0), 10.0, 1), ValidationError, "s="),
    (lambda: residual("0.5+20j", _CFG), ValidationError, "sigma + it="),
    (lambda: s_m(NAN, 1), ValidationError, "t=nan"),
    (lambda: theta(NAN), ValidationError, "t=nan"),
    (lambda: log_gamma(complex(NAN, 1.0)), ValidationError, "z="),
    (lambda: boundary_derivative(DEFAULT_KERNEL, 1, 0, step=NAN),
     ValidationError, "step=nan"),
    (lambda: boundary_derivative(DEFAULT_KERNEL, 1, 0, step=0.0),
     ValidationError, "step=0.0"),
    (lambda: boundary_derivative(DEFAULT_KERNEL, 1, True), ValidationError,
     "side=True"),
    (lambda: EvalPrecision(abs_err="1e-5"), ValidationError, "abs_err="),
    # refusals that named the value but not the parameter
    (lambda: eta_iterated(complex(-1.5, 20.0), 1), ValidationError,
     "sigma=-1.5"),
    (lambda: log_gamma(-1.0), ValidationError, "z=-1.0"),
    (lambda: inject_hypothetical(builtin_store(), 1.5, 30.0), OutOfStrip,
     "beta=1.5"),
    (lambda: inject_hypothetical(builtin_store(), 0.75, -30.0), OutOfStrip,
     "gamma=-30.0"),
    (lambda: boundary_derivative(DEFAULT_KERNEL, 1, 2), ValidationError,
     "side=2"),
    (lambda: u_m_eval(0, 0), ValidationError, "z=0"),
    # zeta'/zeta evaluates every point in mpmath: a bad one never reaches it
    (lambda: zeta_log_deriv(complex(NAN, 20.0)), ValidationError, "s="),
    (lambda: zeta_log_deriv(complex(0.5, INF)), ValidationError, "s="),
    (lambda: zeta_log_deriv(complex(-1.5, 20.0)), ValidationError,
     "got sigma=-1.5"),
])
def test_library_refusals_name_the_parameter(monkeypatch, call, exc, name):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("integrated before refusing")

    def no_extended(*args, **kwargs):
        raise AssertionError("reached extended precision before refusing")

    monkeypatch.setattr(kernels, "integrate_adaptive", no_quadrature)
    monkeypatch.setattr(sys.modules["zeta_eta.zeta"], "_extended",
                        no_extended)
    with pytest.raises(exc) as info:
        call()
    assert name in str(info.value)


# Each entry that needs the zero table up to some height, asked just above
# the bundled table's top (1e-6 above it where the entry's height is t).
_HEIGHT_CASES = [
    (lambda st, top: st.count_below(top + 1e-6), "count_below", "t="),
    (lambda st, top: count_window(st, top, 1e-6), "count_window", "h=1e-06"),
    (lambda st, top: sigma_xt(st, top - 0.2, 100.0), "sigma_xt", "X=100.0"),
    (lambda st, top: rvmf_check(st, top + 1e-6), "rvmf_check", "T="),
    (lambda st, top: inject_hypothetical(st, 0.75, top + 1e-6),
     "inject_hypothetical", "gamma="),
    (lambda st, top: zero_sum_polynomial(1, 0.5, top + 1e-6, st),
     "zero_sum_polynomial", "t="),
    (lambda st, top: branch_path(-top - 1e-6, 0.5, store=st), "branch_path",
     "t=-"),
    (lambda st, top: eta_vertical(complex(0.5, top + 1e-6), 1, st),
     "eta_vertical", "t="),
    (lambda st, top: eta_iterated(complex(0.5, top - 2.5 + 1e-6), 1, st),
     "eta_iterated", "t="),
    (lambda st, top: y_m(complex(0.5, top + 1e-6), 10.0, 1, st), "y_m",
     "m=1"),
    (lambda st, top: y_m(complex(0.5, top - 0.4), 10.0, 0, st), "y_m", "m=0"),
    (lambda st, top: residual(complex(0.5, top / 1.5 + 1e-6), _CFG, st),
     "residual", "t="),
    (lambda st, top: relzz_decompose(top - 0.4, 100.0, store=st),
     "relzz_decompose", "t="),
    (lambda st, top: tail_table(top / 2.0 + 1e-6, [0.0], GridSpec(count=100),
                                st), "tail_table", "T="),
]


@pytest.mark.parametrize("call, entry, name", _HEIGHT_CASES,
                         ids=[case[1] for case in _HEIGHT_CASES])
def test_height_refusals_name_the_entry(call, entry, name):
    st = builtin_store()
    with pytest.raises(BeyondTable) as info:
        call(st, st.t_max)
    message = str(info.value)
    assert message.startswith(f"{entry}: ") and name in message, message
    assert " needs zeros up to " in message, message
    assert message.endswith(f"above the table's height {st.t_max}"), message


def test_residual_refuses_a_height_before_eta(monkeypatch):
    def no_eta(*args, **kwargs):
        raise AssertionError("evaluated eta before refusing")

    monkeypatch.setattr(approx, "eta_vertical", no_eta)
    with pytest.raises(BeyondTable, match="residual: t=2000.0"):
        residual(complex(0.5, 2000.0), ApproxConfig(m=1, X=10.0))


@pytest.mark.parametrize("X", [5e6, 1e200])
def test_an_x_beyond_the_sieve_is_refused_before_any_numerics(X, monkeypatch):
    def no_eta(*args, **kwargs):
        raise AssertionError("evaluated eta before refusing")

    monkeypatch.setattr(approx, "eta_vertical", no_eta)
    named = re.escape(f"X={X}")
    for call in (lambda: residual(complex(0.5, 100.0), ApproxConfig(m=1, X=X)),
                 lambda: dirichlet_poly(complex(0.5, 20.0),
                                        ApproxConfig(m=1, X=X)),
                 lambda: p_f(complex(0.5, 20.0), X)):
        with pytest.raises(BeyondSieve, match=named):
            call()
