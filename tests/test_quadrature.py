"""The one Gauss(10)/Kronrod(21) panel rule shared by the adaptive
integrator and the iterated-eta sweep."""

import cmath
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from zeta_eta.errors import BudgetExceeded
from zeta_eta.quadrature import (_NODES, _WEIGHTS, _nodes, _panel,
                                  integrate_adaptive)


def test_rule_nodes_ascending_symmetric_weights_sum_to_two():
    assert _NODES.shape == (21,) and _WEIGHTS.shape == (2, 21)
    assert np.all(np.diff(_NODES) > 0)
    assert np.array_equal(_NODES, -_NODES[::-1])
    assert np.array_equal(_WEIGHTS, _WEIGHTS[:, ::-1])
    assert _WEIGHTS.sum(axis=1) == pytest.approx([2.0, 2.0], abs=1e-15)


def test_gauss_row_is_gauss_legendre_10():
    x10, w10 = np.polynomial.legendre.leggauss(10)
    on = _WEIGHTS[1] != 0.0
    assert np.count_nonzero(on) == 10
    assert np.allclose(_NODES[on], x10, rtol=0, atol=1e-15)
    assert np.allclose(_WEIGHTS[1, on], w10, rtol=0, atol=1e-15)


@pytest.mark.parametrize("row, degree", [(0, 31), (1, 19)])
def test_rule_exact_on_monomials(row, degree):
    # Kronrod(21) with the ten Gauss nodes fixed is the unique rule exact
    # through degree 31, so a slip in the table fails here.
    for d in range(degree + 1):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert abs(_WEIGHTS[row] @ _NODES ** d - exact) <= 1e-15, d
    exact = 2.0 / (degree + 2) if degree % 2 else 0.0
    assert abs(_WEIGHTS[row] @ _NODES ** (degree + 1) - exact) > 1e-12


def test_package_import_loads_no_scipy_integrate():
    # The rule is a literal table: reading scipy's at import would slow
    # every CLI start and grow its resident memory.
    code = ("import sys, zeta_eta, zeta_eta.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('scipy.integrate')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_panel_calls_f_left_to_right():
    # one call with all the abscissae, strictly ascending: the iterated sweep
    # pins its branch by continuity from node to node
    calls = []

    def f(x):
        calls.append(np.array(x))
        return np.zeros(x.shape, dtype=complex), np.zeros(x.shape)

    _panel(f, -3.0, 7.5)
    assert len(calls) == 1
    seen = calls[0]
    assert seen.shape == (_NODES.size,)
    assert np.all(np.diff(seen) > 0)
    assert -3.0 < seen[0] and seen[-1] < 7.5


@pytest.mark.parametrize("a, b", [(1100.0, float(np.nextafter(1101.0, 2e3))),
                                  (1152.9431285305898, 1153.8903037162713)])
def test_panel_nodes_rounded_once_far_from_zero(a, b):
    # Each node is the double nearest its exact place in [a, b], up to the
    # rounding of its offset: a rounded midpoint would shift all 21 alike,
    # an error of the panel's whole integral that the sweep sums over
    # thousands of panels.
    seen = []

    def f(x):
        seen.append(x.copy())
        return np.zeros(x.shape, dtype=complex), np.zeros(x.shape)

    _panel(f, a, b)
    fa, fb = Fraction(a), Fraction(b)
    ulp = Fraction(float(np.spacing(b)))
    for x, node in zip(seen[0].tolist(), _NODES.tolist()):
        exact = fa + (fb - fa) * (1 + Fraction(node)) / 2
        assert abs(Fraction(x) - exact) <= Fraction(51, 100) * ulp, node


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


def test_panel_batch_equals_single_panels():
    # P panels through one call of the rule, a row of nodes per panel, give
    # what P single calls give, value, discrepancy and node error alike
    rng = np.random.default_rng(21)
    a = np.sort(rng.uniform(-50.0, 2000.0, 32))
    b = a + rng.uniform(1e-3, 1.0, a.size)

    def f(x):
        return np.exp(3j * x) / (1.0 + x * x), 1e-16 * (1.0 + np.abs(x))

    calls = []

    def seen(x):
        calls.append(x.shape)
        return f(x)

    val, disc, node_err = _panel(seen, a, b)
    assert calls == [(a.size, _NODES.size)]
    for p in range(a.size):
        v1, d1, e1 = _panel(f, a[p], b[p])
        mass = 0.5 * (b[p] - a[p]) * float(
            _WEIGHTS[0] @ np.abs(f(_nodes(a[p], b[p]))[0]))
        assert abs(val[p] - v1) <= 8e-16 * mass, p
        assert abs(disc[p] - d1) <= 8e-16 * mass, p
        assert node_err[p] == pytest.approx(e1, rel=1e-15, abs=0.0), p


def test_panel_batch_exact_on_degree_19_in_every_row():
    rng = np.random.default_rng(1919)
    re, im = rng.standard_normal(20), rng.standard_normal(20)
    poly = np.polynomial.Polynomial(re + 1j * im)
    a = rng.uniform(-1.0, 1.0, 8)
    b = a + rng.uniform(0.1, 1.5, a.size)
    val, disc, node_err = _panel(
        lambda x: (poly(x), np.full(x.shape, 1e-3)), a, b)
    assert val.shape == disc.shape == node_err.shape == a.shape
    for p in range(a.size):
        exact = complex(poly.integ()(b[p]) - poly.integ()(a[p]))
        top = max(abs(a[p]), abs(b[p]))
        scale = float(np.sum(np.abs(re + 1j * im) * top ** np.arange(20)))
        assert abs(val[p] - exact) <= 1e-14 * scale, p
        assert disc[p] <= 1e-14 * scale, p
        assert node_err[p] == pytest.approx(1e-3 * (b[p] - a[p]), rel=1e-14)
