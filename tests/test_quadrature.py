"""The one G10/G20 panel rule shared by the adaptive integrator and the
iterated-eta sweep."""

import cmath
import sys

import numpy as np
import pytest

from zeta_eta.errors import BudgetExceeded
from zeta_eta.quadrature import _panel, integrate_adaptive


def test_panel_calls_f_left_to_right():
    # one call with all 30 abscissae, strictly ascending: the iterated sweep
    # pins its branch by continuity from node to node
    calls = []

    def f(x):
        calls.append(np.array(x))
        return np.zeros(x.shape, dtype=complex), np.zeros(x.shape)

    _panel(f, -3.0, 7.5)
    assert len(calls) == 1
    seen = calls[0]
    assert seen.shape == (30,)
    assert np.all(np.diff(seen) > 0)
    assert -3.0 < seen[0] and seen[-1] < 7.5


def test_panel_exact_on_degree_19():
    rng = np.random.default_rng(19)
    re, im = rng.standard_normal(20), rng.standard_normal(20)
    poly = np.polynomial.Polynomial(re + 1j * im)
    a, b = -0.7, 2.3
    exact = complex(poly.integ()(b) - poly.integ()(a))

    val, disc, node_err = _panel(lambda x: (poly(x), np.full(x.shape, 1e-3)),
                                 a, b)
    scale = float(np.sum(np.abs(re + 1j * im) * 2.3 ** np.arange(20)))
    assert abs(val - exact) <= 1e-14 * scale
    assert disc <= 1e-14 * scale          # G10 is exact at degree 19 too
    assert node_err == pytest.approx(1e-3 * (b - a), rel=1e-14)


def test_adaptive_panel_budget(monkeypatch):
    def f(x):
        return np.exp(40j * x), np.zeros(x.shape)

    val, est = integrate_adaptive(f, 0.0, 10.0, 1e-12)
    exact = (cmath.exp(400j) - 1.0) / 40j
    assert abs(val - exact) <= 1e-11 and est <= 1e-11
    monkeypatch.setattr(sys.modules["zeta_eta.quadrature"], "_MAX_PANELS", 4)
    with pytest.raises(BudgetExceeded, match="hit 4 panels"):
        integrate_adaptive(f, 0.0, 10.0, 1e-12)
