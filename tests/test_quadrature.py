"""The one G10/G20 panel rule shared by the adaptive integrator and the
iterated-eta sweep."""

import cmath
import sys

import numpy as np
import pytest

from zeta_eta.errors import BudgetExceeded
from zeta_eta.quadrature import _panel, integrate_adaptive


def test_panel_calls_f_left_to_right():
    # the iterated sweep pins its branch by continuity from node to node
    seen = []

    def f(x):
        seen.append(x)
        return 0j, 0.0

    _panel(f, -3.0, 7.5)
    assert len(seen) == 30
    assert all(a < b for a, b in zip(seen, seen[1:]))
    assert -3.0 < seen[0] and seen[-1] < 7.5


def test_panel_exact_on_degree_19():
    rng = np.random.default_rng(19)
    re, im = rng.standard_normal(20), rng.standard_normal(20)
    poly = np.polynomial.Polynomial(re + 1j * im)
    a, b = -0.7, 2.3
    exact = complex(poly.integ()(b) - poly.integ()(a))

    val, disc, node_err = _panel(lambda x: (complex(poly(x)), 1e-3), a, b)
    scale = float(np.sum(np.abs(re + 1j * im) * 2.3 ** np.arange(20)))
    assert abs(val - exact) <= 1e-14 * scale
    assert disc <= 1e-14 * scale          # G10 is exact at degree 19 too
    assert node_err == pytest.approx(1e-3 * (b - a), rel=1e-14)


def test_adaptive_panel_budget(monkeypatch):
    def f(x):
        return cmath.exp(40j * x), 0.0

    val, est = integrate_adaptive(f, 0.0, 10.0, 1e-12)
    exact = (cmath.exp(400j) - 1.0) / 40j
    assert abs(val - exact) <= 1e-11 and est <= 1e-11
    monkeypatch.setattr(sys.modules["zeta_eta.quadrature"], "_MAX_PANELS", 4)
    with pytest.raises(BudgetExceeded, match="hit 4 panels"):
        integrate_adaptive(f, 0.0, 10.0, 1e-12)
