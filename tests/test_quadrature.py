"""The one Gauss(10)/Kronrod(21) panel rule shared by the adaptive
integrator and the iterated-eta sweep."""

import cmath
import heapq
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from zeta_eta.errors import BudgetExceeded
from zeta_eta.quadrature import (_NODES, _WEIGHTS, _nodes, _panel, _start,
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


def test_adaptive_refuses_a_tol_below_its_rounding_floor_at_once():
    # |f| = 1e12 over a length of 10: the rule's sums round off far more
    # than 1e-12, so the first call of the rule settles the refusal
    calls = []

    def f(x):
        calls.append(x.shape)
        return 1e12 * np.exp(40j * x), np.zeros(x.shape)

    with pytest.raises(BudgetExceeded, match="rounding floor is 1.110e-03"):
        integrate_adaptive(f, 0.0, 10.0, 1e-12)
    assert calls == [(21,)]
    # at unit scale the same integrand's floor is far below the tol
    val, _ = integrate_adaptive(lambda x: (np.exp(40j * x),
                                           np.zeros(x.shape)),
                                0.0, 10.0, 1e-12)
    assert abs(val - (cmath.exp(400j) - 1.0) / 40j) <= 1e-11


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


# --- the adaptive integrator against a panel at a time ---------------------------

def _panel_at_a_time(f, a, b, tol, splits=None):
    """integrate_adaptive with the rule called once per panel: the same
    start, the same heap and the same bisections.  Returns the value and
    the final panels' (a, b, value) in ascending order."""
    edges = sorted(set([a, b] + [x for x in splits or [] if a < x < b]))
    heap = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, disc, nerr = _panel(f, lo, hi)
        heapq.heappush(heap, (-disc, lo, hi, val, disc, nerr))
    while sum(item[4] for item in heap) > tol and -heap[0][0] > 0.0:
        _, lo, hi, _, _, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for seg in ((lo, mid), (mid, hi)):
            val, disc, nerr = _panel(f, *seg)
            heapq.heappush(heap, (-disc, *seg, val, disc, nerr))
    total = 0j
    for item in heap:
        total += item[3]
    return total, sorted((lo, hi, val) for _, lo, hi, val, _, _ in heap)


def _final_panels(calls):
    """The panels an integral ends on, from the ends (a, b) of every call
    of the rule: every panel evaluated, less those bisected."""
    evaluated = {(lo, hi) for a, b in calls
                 for lo, hi in zip(a.tolist(), b.tolist())}
    split = {(a, b) for a, b in evaluated
             if any(lo == a and hi < b for lo, hi in evaluated)}
    return sorted(evaluated - split)


def _vertical_route_integrand():
    """The vertical integrand (a - sigma) log zeta(a + it) for m = 2 at
    1/2 + 1234.5i with log zeta itself, whose zeros near the ray make the
    integrator bisect (the vertical route subtracts its window model
    first), log zeta taken a panel row at a time so that a node's value
    does not depend on the other panels of the call."""
    from zeta_eta.branch import branch_path

    path = branch_path(1234.5, 0.5)

    def f(alpha):
        rows = np.reshape(alpha, (-1, _NODES.size))
        v, e = (np.concatenate(x) for x in zip(*map(path.eval_log, rows)))
        w = (rows.ravel() - 0.5)
        return (w * v).reshape(alpha.shape), (w * e).reshape(alpha.shape)

    return f, 0.5, 4.0, 2.5e-11, [1.0]


@pytest.mark.parametrize("case", [
    lambda: (lambda x: (np.exp(40j * x), np.zeros(x.shape)),
             0.0, 10.0, 1e-12, None),
    lambda: (lambda x: (np.exp(3j * x) / (1.0 + x * x),
                        1e-16 * (1.0 + np.abs(x))), -50.0, 60.0, 1e-13,
             [0.0, 7.5]),
    lambda: (lambda x: (np.sqrt(np.abs(x)) + 0j, np.zeros(x.shape)),
             -1.0, 2.0, 1e-12, [0.0]),
    _vertical_route_integrand,
], ids=["oscillating", "lorentzian", "kink", "vertical-route"])
def test_adaptive_batches_end_on_the_panels_of_one_at_a_time(case,
                                                           monkeypatch):
    # the starting panels in one call of the rule, then both halves of each
    # bisected panel in one: the heap sees the same discrepancies, so the
    # integral ends on the same panels, and its value differs from the
    # panel-at-a-time one only by the rounding of the batched weight sums
    f, a, b, tol, splits = case()
    calls = []

    def rule(f, a, b):
        calls.append((np.atleast_1d(a), np.atleast_1d(b)))
        return _panel(f, a, b)

    monkeypatch.setattr(sys.modules["zeta_eta.quadrature"], "_panel", rule)
    val, _ = integrate_adaptive(f, a, b, tol, splits)
    monkeypatch.undo()
    ref, panels = _panel_at_a_time(f, a, b, tol, splits)
    start = calls[0][0].size
    assert start == 1 + len([x for x in splits or [] if a < x < b])
    assert [lo.size for lo, _ in calls[1:]] == [2] * (len(panels) - start)
    assert _final_panels(calls) == [(lo, hi) for lo, hi, _ in panels]
    mass = sum(abs(v) for _, _, v in panels)
    assert abs(val - ref) <= 8 * 2.0 ** -52 * mass


def test_every_library_integrand_takes_a_row_per_panel(monkeypatch, store):
    # the rule hands an integrand a (P x 21) batch of panel rows; each
    # library integrand (U_m's, and the vertical integral's of eta_vertical
    # and of c_m) answers it in that shape, each row as it answers that row
    # alone, within the two answers' own error bounds.  U_m's is probed
    # where integrate_adaptive receives it, the vertical integral's where
    # its start (quadrature._start) does.
    from zeta_eta import eta as eta_module
    from zeta_eta import kernels
    from zeta_eta.eta import _c_m_cached

    seen = []

    def check(f, a, b):
        ends = np.linspace(a, b, 4)
        rows = _nodes(ends[:-1, None], ends[1:, None])
        vals, errs = f(rows)
        assert vals.shape == errs.shape == rows.shape == (3, _NODES.size)
        for p in range(3):
            one, one_err = f(rows[p])
            slack = errs[p] + one_err + 1e-15 * np.abs(one)
            assert np.all(np.abs(vals[p] - one) <= slack), (a, b, p)
        seen.append(f.__module__)

    def probe(f, a, b, tol, splits=None):
        check(f, a, b)
        return integrate_adaptive(f, a, b, tol, splits)

    def probe_start(f, a, b, splits, rows=1):
        check(f, a, b)
        return _start(f, a, b, splits, rows)

    monkeypatch.setattr(kernels, "integrate_adaptive", probe)
    monkeypatch.setattr(eta_module, "_start", probe_start)
    from zeta_eta import eta_vertical, u_m_eval
    for m in (0, 1, 2):
        u_m_eval(m, 0.3 - 0.6j)
    eta_vertical(complex(0.5, 700.3), 2, store)
    _c_m_cached.cache_clear()
    eta_module.c_m(0.5, 2)
    assert seen == ["zeta_eta.kernels"] * 3 + ["zeta_eta.eta"] * 2
