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
from zeta_eta import eta as _ETA_MODULE
from zeta_eta.quadrature import _NODES
from zeta_eta.quadrature import _nodes as _quadrature_nodes
from zeta_eta.zeros import ZeroRecord, ZeroStore
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
    # right of sigma = 1100 every term n^-s, n >= 2, underflows: zeta is 1,
    # from a pass at sigma = 1100 whose cutoff stays small; taken at sigma
    # itself, the cutoff at 1e6 exceeds its budget, and from about 1e18 the
    # correction terms overflow to NaN.  zeta'/zeta, from mpmath, is below
    # the smallest double there and rounds to 0
    cutoffs = []
    kernel = _ZETA_MODULE._euler_maclaurin

    def recorded(ray, n_cut, sigmas):
        cutoffs.append(n_cut)
        return kernel(ray, n_cut, sigmas)

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


def test_budget_refusal_over_several_heights_names_one_point(monkeypatch):
    # a pass over two heights with the budget between their cutoffs is
    # refused at the point whose cutoff exceeds it, named alone
    ray = _ZETA_MODULE._Ray(np.array([1200.5, 1900.25]))
    alphas = np.array([0.5, 1.0])
    low, high = ray.first_cutoff(alphas, _PREC.abs_err).tolist()
    assert low < high
    monkeypatch.setattr(_ZETA_MODULE, "_MAX_CUTOFF", (low + high) // 2)
    with pytest.raises(BudgetExceeded) as info:
        _ZETA_MODULE._zeta_em(ray, alphas, _PREC)
    assert str(info.value) == (f"Euler-Maclaurin cutoff {high} exceeds "
                               f"{(low + high) // 2} at s=(0.5+1900.25j)")


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


def test_log_deriv_guard_past_crowded_ordinates():
    # three zeros at beta = 0.9 lie between t and the zero 0.5 + 100i, 5e-6
    # from s, inside the guard sqrt(1e-10) = 1e-5; the guard names it
    crowded = ZeroStore([ZeroRecord(100.0), ZeroRecord(100.000002, 0.9),
                         ZeroRecord(100.000003, 0.9),
                         ZeroRecord(100.000004, 0.9)], "test")
    with pytest.raises(NearSingularity) as info:
        zeta_log_deriv(complex(0.5, 100.000005), store=crowded)
    assert info.value.where == complex(0.5, 100.0)


def test_log_gamma_oracle():
    assert abs(log_gamma(complex(3, 4))
               - (-1.7566267846037841 + 4.742664438034658j)) < 1e-12
    assert abs(log_gamma(0.3) - 1.0957979948180755) < 1e-12


def test_log_gamma_recurrence():
    for z in (complex(0.7, 2.0), complex(5.5, -3.0), complex(0.1, 0.4)):
        lhs = log_gamma(z + 1)
        rhs = log_gamma(z) + cmath.log(z)
        assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(lhs))


def test_log_gamma_against_mpmath():
    # theta's arguments 1/4 + it/2 up to t = 2200, and a box of the right
    # half-plane well past the small-|z| oracles above
    rng = np.random.default_rng(10)
    pts = [complex(0.25, 0.5 * t) for t in 2200.0 * rng.random(100)]
    pts += [complex(30.0 * (1.0 - a), 50.0 * (2.0 * b - 1.0))
            for a, b in rng.random((100, 2))]
    with mp.workdps(40):
        for z in pts:
            ref = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
            assert abs(log_gamma(z) - ref) <= 1e-14 * max(1.0, abs(ref)), z


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


@pytest.mark.parametrize("t", [0.0, 3.7, 100.3, 1500.2])
def test_hardy_z_is_even_and_theta_odd(t):
    assert hardy_z(-t) == hardy_z(t)
    assert theta(-t) == -theta(t)


def test_log_deriv_extended_path_against_mpmath():
    # every value comes from software precision; abs_err 1e-20 is below the
    # double threshold, so it is answered as mpmath gives it, and the
    # default precision as a complex double, as zeta answers
    s = complex(0.5, 100.3)
    got = zeta_log_deriv(s, EvalPrecision(abs_err=1e-20))
    assert isinstance(got, mp.mpc)
    default = zeta_log_deriv(s)
    assert type(default) is complex
    with mp.workdps(40):
        w = mp.mpc(s.real, s.imag)
        ref = mp.zeta(w, derivative=1) / mp.zeta(w)
        assert abs(got - ref) <= 1e-20
        assert abs(default - ref) <= 1e-9


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
        vals, rems = _ZETA_MODULE._zeta_em(
            _ZETA_MODULE._Ray(t), alphas, _PREC)
        for a, v, r in zip(alphas.tolist(), vals, rems):
            (alone,), (r_alone,) = _ZETA_MODULE._zeta_em(
                _ZETA_MODULE._Ray(t), a, _PREC)
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

    def recorded(ray, n_cut, sigmas):
        passes.append((n_cut, list(sigmas)))
        return kernel(ray, n_cut, sigmas)

    monkeypatch.setattr(_ZETA_MODULE, "_initial_cutoff", lambda *a: 16)
    monkeypatch.setattr(_ZETA_MODULE, "_euler_maclaurin", recorded)
    alphas = np.array([0.5, 3.0, 45.0])
    vals, rems = _ZETA_MODULE._zeta_em(
        _ZETA_MODULE._Ray(500.0), alphas, _PREC)
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


def _cutoff_cases(rng, abs_err):
    """(line, coords) for seeded passes of every kind: single ray points at
    sigma in [-1, 3], t in [0, 2150]; ray batches of 16 to 42 abscissae
    spanning [1/2, 4]; line blocks of 64 ordinates over a width of 2; and 8
    more single ray points, drawn after the others."""
    cases = []
    for _ in range(24):
        cases.append((_ZETA_MODULE._Ray(float(rng.uniform(0.0, 2150.0))),
                      float(rng.uniform(-1.0, 3.0))))
    for size in (16, 21, 42, 16, 21, 42):
        alphas = np.concatenate(([0.5, 4.0], rng.uniform(0.5, 4.0, size - 2)))
        cases.append((_ZETA_MODULE._Ray(float(rng.uniform(15.0, 2150.0))),
                      np.sort(alphas)))
    for _ in range(6):
        a = float(rng.uniform(0.0, 2148.0))
        cases.append((_ZETA_MODULE._Line(float(rng.uniform(-1.0, 3.0)),
                                         abs_err),
                      np.sort(rng.uniform(a, a + 2.0, 64))))
    for _ in range(8):
        cases.append((_ZETA_MODULE._Ray(float(rng.uniform(0.0, 2150.0))),
                      float(rng.uniform(-1.0, 3.0))))
    return cases


@pytest.mark.parametrize("abs_err", [1e-3, 1e-8, 1e-10])
def test_first_cutoff_certifies_every_node_and_is_near_minimal(abs_err,
                                                               monkeypatch):
    # the cutoff solved from the bound certifies every node of the pass at
    # once, so no pass is repeated at a larger cutoff; and it is near the
    # smallest that does: at 0.97 N the bound misses at the pass's worst node
    prec = EvalPrecision(abs_err=abs_err)
    target = 0.25 * abs_err
    kernel = _ZETA_MODULE._euler_maclaurin
    passes = []

    def recorded(line, n_cut, coords):
        passes.append(n_cut)
        return kernel(line, n_cut, coords)

    monkeypatch.setattr(_ZETA_MODULE, "_euler_maclaurin", recorded)
    minimal = 0
    for line, coords in _cutoff_cases(
            np.random.default_rng(int(-math.log10(abs_err))), abs_err):
        passes.clear()
        _, rems = _ZETA_MODULE._zeta_em(line, coords, prec)
        assert len(passes) == 1, (line, coords, passes)
        assert max(rems) <= target
        n_cut = passes[0]
        if n_cut >= 64:     # the rounding up of N is then below 1.6%
            nodes = np.atleast_1d(coords).tolist()
            _, short = kernel(line, int(0.97 * n_cut), nodes)
            assert max(short) > target, (line, coords, n_cut)
            minimal += 1
    assert minimal >= 20


# --- the Euler-Maclaurin kernel on a vertical line -----------------------------

def _panel_nodes(a: float, b: float) -> np.ndarray:
    """The 30 ascending nodes the panel rule hands an integrand on [a, b]."""
    return 0.5 * (a + b) + 0.5 * (b - a) * _NODES


def _check_line_batch(sigma, ts, vals, rems, prec=_PREC, every=1):
    """Each node within its remainder (plus rounding) of the same node
    evaluated alone, and every `every`-th node of the 30-digit value."""
    target = 0.25 * prec.abs_err
    for i, (t, v, r) in enumerate(zip(ts.tolist(), vals, rems)):
        (alone,), (r_alone,) = _ZETA_MODULE._zeta_em(
            _ZETA_MODULE._Ray(t), sigma, prec)
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
        vals, rems = _ZETA_MODULE._zeta_em(
            _ZETA_MODULE._Line(sigma, _PREC.abs_err), ts, _PREC)
        _check_line_batch(sigma, ts, vals, rems, every=3)


@pytest.mark.parametrize("sigma", [-1.0, 0.5, 2.0])
def test_line_widest_panel_at_the_table_top(sigma):
    # a 0.5-wide panel at t = 2100 has the largest |d| log N, so the
    # expansion runs to its highest order; its bound still certifies
    ts = _panel_nodes(2100.0, 2100.5)
    line = _ZETA_MODULE._Line(sigma, _PREC.abs_err)
    n_cut = _ZETA_MODULE._initial_cutoff(sigma, sigma, 2100.5, _PREC.abs_err)
    _, _, truncs, _ = line.partial_sums(n_cut, ts.tolist())
    assert 0.0 < max(truncs) <= 1e-3 * 0.25 * _PREC.abs_err
    # each node's remainder is its Euler-Maclaurin bound plus its truncation
    _, rems = _ZETA_MODULE._euler_maclaurin(line, n_cut, ts.tolist())
    for i in (0, ts.size - 1):
        _, (r_alone,) = _ZETA_MODULE._euler_maclaurin(
            _ZETA_MODULE._Ray(float(ts[i])), n_cut, [sigma])
        assert rems[i] == pytest.approx(r_alone + truncs[i], rel=1e-12,
                                        abs=0.0)
    vals, rems = _ZETA_MODULE._zeta_em(line, ts, _PREC)
    _check_line_batch(sigma, ts, vals, rems)


def test_line_escalates_only_the_nodes_that_miss(monkeypatch):
    # at cutoff 6 the bound on the panel [10, 10.5] crosses the target
    # inside it: the lower nodes are certified at once, the upper ones go
    # on together
    prec = EvalPrecision(abs_err=1.8e-9)
    ts = _panel_nodes(10.0, 10.5)
    passes = []
    kernel = _ZETA_MODULE._euler_maclaurin

    def recorded(line, n_cut, coords):
        passes.append((n_cut, list(coords)))
        return kernel(line, n_cut, coords)

    monkeypatch.setattr(_ZETA_MODULE, "_initial_cutoff", lambda *a: 6)
    monkeypatch.setattr(_ZETA_MODULE, "_euler_maclaurin", recorded)
    vals, rems = _ZETA_MODULE._zeta_em(
        _ZETA_MODULE._Line(0.5, prec.abs_err), ts, prec)
    monkeypatch.undo()
    assert passes[0] == (6, ts.tolist())
    later = passes[1][1]
    assert 0 < len(later) < ts.size
    assert later == ts.tolist()[ts.size - len(later):]
    assert all(set(nodes) <= set(later) for _, nodes in passes[1:])
    _check_line_batch(0.5, ts, vals, rems, prec)


def test_escalated_array_pass_fills_each_nodes_slot(monkeypatch):
    # the forced cutoff above: the array pass answers in arrays, its
    # escalation picks the nodes that miss by index arrays, and every slot
    # holds bit for bit what the escalation over Python lists gave, pass by
    # pass on the nodes that still missed, each node's answer put back in
    # its own slot
    prec = EvalPrecision(abs_err=1.8e-9)
    target = 0.25 * prec.abs_err
    ts = _panel_nodes(10.0, 10.5)
    monkeypatch.setattr(_ZETA_MODULE, "_initial_cutoff", lambda *a: 6)
    vals, rems = _ZETA_MODULE._zeta_em(
        _ZETA_MODULE._Line(0.5, prec.abs_err), ts, prec)
    assert isinstance(vals, np.ndarray) and isinstance(rems, np.ndarray)
    line = _ZETA_MODULE._Line(0.5, prec.abs_err)
    n_cut = 6
    first, first_rems = _ZETA_MODULE._euler_maclaurin(
        line, n_cut, ts.tolist())
    ref_vals, ref_rems = first.tolist(), first_rems.tolist()
    todo = [i for i, r in enumerate(ref_rems) if r > target]
    escalated = len(todo)
    while todo:
        n_cut = max(n_cut + 32, int(n_cut * 1.5))
        v, r = _ZETA_MODULE._euler_maclaurin(
            line, n_cut, [float(ts[i]) for i in todo])
        for i, vi, ri in zip(todo, v.tolist(), r.tolist()):
            ref_vals[i], ref_rems[i] = vi, ri
        todo = [i for i in todo if ref_rems[i] > target]
    assert 0 < escalated < ts.size
    assert vals.tolist() == ref_vals and rems.tolist() == ref_rems


@pytest.mark.parametrize("sigma", [-0.9, 0.5, 2.0])
def test_line_block_of_sweep_panels_against_mpmath(sigma, store):
    # the block of iterated-sweep panels that ends at t = 2140, its nodes
    # placed as the panel rule places them, in one _zeta_em call on a
    # _Line as the sweep makes it: each node within its remainder (plus
    # rounding) of the node alone, and every 8th of the 30-digit value
    block = _ZETA_MODULE._BLOCK_NODES // _NODES.size
    panels = _ETA_MODULE._line_panels(2140.0, store)[-block:]
    ts = _quadrature_nodes(panels[:, :1], panels[:, 1:]).ravel()
    assert ts.size == _ZETA_MODULE._BLOCK_NODES
    vals, rems = _ZETA_MODULE._zeta_em(
        _ZETA_MODULE._Line(sigma, _PREC.abs_err), ts, _PREC)
    _check_line_batch(sigma, ts, vals, rems, every=8)


def test_em_correction_on_arrays_matches_node_by_node():
    # the one correction body, on arrays (a _Line's pass) and on complex
    # numbers (a _Ray's nodes), at three cutoffs over sigma in [-1, 3],
    # t in [0, 2150], each given N^-s as libm's exp(-sigma log N) times the
    # phase: values and bounds agree to a few ulps
    rng = np.random.default_rng(15)
    for n_cut in (16, 300, 5000):
        s = rng.uniform(-1.0, 3.0, 100) + 1j * rng.uniform(0.0, 2150.0, 100)
        trunc = rng.uniform(0.0, 1e-12, 100)
        log_n = math.log(n_cut)
        npows = [math.exp(-z.real * log_n) * _ZETA_MODULE._phases(
            log_n, z.imag) for z in s.tolist()]
        vals, rems = _ZETA_MODULE._em_correction(
            n_cut, s, np.array(npows), np.zeros(100, dtype=complex), trunc)
        for j in range(100):
            v, r = _ZETA_MODULE._em_correction(
                n_cut, complex(s[j]), npows[j], 0j, float(trunc[j]))
            scale = abs(v) + n_cut ** (1.0 - s[j].real) / abs(s[j] - 1.0)
            assert abs(vals[j] - v) <= 16 * 2.0 ** -52 * scale, (n_cut, j)
            assert abs(rems[j] - r) <= 16 * 2.0 ** -52 * r, (n_cut, j)


def test_cutoff_powers_share_one_factor_bit_for_bit():
    # N^-s as partial_sums hands it over, with the factor a pass's nodes
    # share taken once -- a ray's phase N^-it, a vertical line's amplitude
    # N^-sigma -- is bit for bit the per-node form, libm's exp of
    # -sigma log N times the phase of each node, on arrays and on a small
    # ray batch's complex numbers
    rng = np.random.default_rng(29)
    for n_cut in (16, 401, 20_000):
        log_n = math.log(n_cut)
        ts = np.sort(rng.uniform(0.0, 2150.0, 672))
        alphas = np.sort(rng.uniform(-1.0, 45.0, 42))
        for line, coords in ((_ZETA_MODULE._Line(0.37, _PREC.abs_err), ts),
                             (_ZETA_MODULE._Ray(1234.5), alphas)):
            points, _, _, npows = line.partial_sums(n_cut, coords)
            per_node = (np.exp(points.real * -log_n + 0j).real
                        * _ZETA_MODULE._phases(log_n, points.imag))
            assert np.array_equal(npows, per_node)
        ray = _ZETA_MODULE._Ray(1234.5)
        points, _, _, npows = ray.partial_sums(n_cut, alphas[:5].tolist())
        assert npows == [
            math.exp(-z.real * log_n) * _ZETA_MODULE._phases(log_n, z.imag)
            for z in points]


def test_phases_match_the_libm_forms_in_each_shape():
    # the one phase kernel gives bit for bit the complex exponentials the
    # library used to form, in each of its four shapes, over n < 200,000
    # at t = 0, negative t and seeded t up to 2200: the whole table at each
    # t, a seeded column of it against a row of every t (an outer
    # product), one log n against every t, and one against one; N^-s
    # rebuilt as libm's exp(-sigma log N) times the phase is cmath's
    # exp(-s log N)
    phases, log_n = _ZETA_MODULE._phases, _ZETA_MODULE._LOG_N
    rng = np.random.default_rng(28)
    ts = np.concatenate(([0.0, -1.5, -2199.3], rng.uniform(0.0, 2200.0, 7)))
    for t in ts.tolist():
        assert np.array_equal(phases(log_n, t), np.exp(-1j * t * log_n)), t
    sample = log_n[rng.integers(0, log_n.size, 5000)]
    assert np.array_equal(phases(sample[:, None], ts),
                          np.exp(-1j * np.multiply.outer(sample, ts)))
    for n in rng.integers(1, 200_000, 40).tolist():
        assert np.array_equal(phases(math.log(n), ts),
                              np.exp(-1j * ts * math.log(n))), n
    for n, sigma, t in zip(rng.integers(1, 200_000, 2000).tolist(),
                           rng.uniform(-1.0, 3.0, 2000).tolist(),
                           rng.uniform(-2200.0, 2200.0, 2000).tolist()):
        log_n1 = math.log(n)
        phase = phases(log_n1, t)
        assert type(phase) is complex
        assert phase == cmath.exp(-1j * t * log_n1), (n, t)
        assert (math.exp(-sigma * log_n1) * phase
                == cmath.exp(-complex(sigma, t) * log_n1)), (n, sigma, t)
    assert phases(0.0, 0.0) == phases(math.log(7), 0.0) == 1.0


def test_heights_above_the_cap_are_refused_at_once(monkeypatch):
    # zeta, zeta'/zeta, log zeta and a ray right of sigma = 1.25 and Hardy
    # Z refuse |t| above the cap by name: at 1e300 they died in a raw
    # OverflowError, and at 1e20 mpmath's Riemann-Siegel sum grows without
    # bound, so the extended path raises here if it is reached at all
    from zeta_eta.branch import branch_path, log_zeta_with_err

    def unbounded(*args, **kwargs):
        raise AssertionError("extended precision reached above the cap")

    monkeypatch.setattr(_ZETA_MODULE, "_extended", unbounded)
    for t in (1e12, 1e20, 1e300, -1e300):
        for call in (lambda: zeta(complex(2.0, t)),
                     lambda: zeta(complex(0.5, t)),
                     lambda: zeta_log_deriv(complex(2.0, t)),
                     lambda: log_zeta_with_err(complex(2.0, t)),
                     lambda: branch_path(t, 2.0).eval_log(2.0),
                     lambda: hardy_z(t)):
            with pytest.raises(ValidationError, match="t="):
                call()
    # the cap itself still reaches the extended path
    with pytest.raises(AssertionError, match="extended precision"):
        zeta(complex(0.5, _ZETA_MODULE._MAX_HEIGHT))


def test_line_tables_grow_only_the_short_axis():
    # a higher order at a cutoff the tables cover adds rows, not terms; a
    # larger cutoff adds terms, with headroom, and keeps the rows
    line = _ZETA_MODULE._Line(0.8, _PREC.abs_err)
    line._tables(100, 5)
    assert line._rows.shape == (5, 99)
    line._tables(90, 15)
    assert line._rows.shape == (15, 99)
    line._tables(101, 3)
    assert line._rows.shape == (15, 123)


def test_line_sampler_asks_the_extended_rule_once(monkeypatch):
    # the extended-precision rule grows with |t|: 10^4 ordinates at abs_err
    # 1e-8 ask it once, at the largest; at abs_err 1e-12 the ordinate above
    # t = 500 goes to mpmath, as zeta sends it, and the others stay in
    # doubles
    rule = _ZETA_MODULE._needs_extended
    calls = []

    def counted(z, abs_err):
        calls.append(z)
        return rule(z, abs_err)

    monkeypatch.setattr(_ZETA_MODULE, "_needs_extended", counted)
    ts = np.random.default_rng(3).uniform(10.0, 2000.0, 10_000)
    _ZETA_MODULE._zeta_line(0.5, ts, EvalPrecision(abs_err=1e-8))
    assert calls == [complex(0.5, ts.max())]
    prec = EvalPrecision(abs_err=1e-12)
    vals, rems = _ZETA_MODULE._zeta_line(0.5, [400.25, 600.5, 20.5], prec)
    assert isinstance(vals[1], mp.mpc) and vals[1] == zeta(0.5 + 600.5j, prec)
    for v, t in ((vals[0], 400.25), (vals[2], 20.5)):
        assert isinstance(v, complex)
        with mp.workdps(30):
            ref = complex(mp.zeta(mp.mpc(0.5, t)))
        assert abs(v - ref) <= 0.25e-12
    assert rems[1] == 0.25e-12 and np.all(rems <= 0.25e-12)


# --- zeta at many ordinates of one vertical line -------------------------------

def test_line_sampler_against_mpmath():
    # 40 seeded ordinates in [1000, 2150] and 17 spread over a width of 8,
    # in no order: through _zeta_line, and the spread ones also as one batch
    # on a _Line, which must split itself (one expansion over the width 8
    # misses by about 3e-6, a thousand times the target at abs_err 1e-8);
    # each value within the target 0.25 abs_err of the 30-digit one, and so
    # is each bound
    rng = np.random.default_rng(11)
    ts = np.concatenate((rng.uniform(1000.0, 2150.0, 40),
                         np.linspace(1500.0, 1508.0, 17)))
    with mp.workdps(30):
        refs = [complex(mp.zeta(mp.mpc(0.5, t))) for t in ts.tolist()]
    for abs_err in (1e-8, 1e-10):
        prec = EvalPrecision(abs_err=abs_err)
        target = 0.25 * abs_err
        vals, rems = _ZETA_MODULE._zeta_line(0.5, ts, prec)
        wide, wide_rems = _ZETA_MODULE._zeta_em(
            _ZETA_MODULE._Line(0.5, abs_err), ts[40:], prec)
        for v, r, ref in zip(np.concatenate((vals, wide)),
                             np.concatenate((rems, wide_rems)),
                             refs + refs[40:]):
            assert r <= target
            assert abs(v - ref) <= target, (abs_err, v, ref)
