"""Bump kernels, the v/u rescalings, E*_{m+1}, and the U_m transform.

E* reference values come from an independent special-function library
(E_1 plus upper incomplete Gamma), not from the quadrature code under test.
"""

import cmath
import math
import signal
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeta_eta.errors import (BudgetExceeded, InvalidFamily,
                             OnNegativeRealAxisCut, ValidationError)
from zeta_eta.kernels import (DEFAULT_KERNEL, boundary_derivative, e_star,
                              make_kernel, u_f_h, u_m_eval, v_f_h)
from zeta_eta.precision import DEFAULT_PRECISION
from zeta_eta.quadrature import _NODES, integrate_adaptive

E1_ORACLE = {
    (0.3, 0.0): 0.9056766516758468 + 0j,
    (0.5, 0.0): 0.5597735947761608 + 0j,
    (1.0, 0.0): 0.21938393439552029 + 0j,
    (2.0, 0.0): 0.04890051070806112 + 0j,
    (5.0, 0.0): 0.0011482955912753257 + 0j,
    (0.2, 0.1): 1.1132682676313774 - 0.3730608248136884j,
    (0.5, 0.5): 0.2578664571379838 - 0.3966904354558152j,
    (1.0, 1.0): 0.00028162445198141834 - 0.17932453503935894j,
    (1.0, -1.0): 0.00028162445198141834 + 0.17932453503935894j,
    (2.0, 3.0): -0.024826207944199364 + 0.02031667491104462j,
    (3.0, -2.0): -0.00909592087479473 + 0.006900179262212492j,
    (0.1, 2.0): -0.3792642157221725 + 0.01589421677437412j,
    (4.0, 1.0): 0.0013106173980145506 - 0.0034542480199350628j,
    (0.05, 0.02): 2.3937852126914225 - 0.36099857501406535j,
    (6.0, 0.5): 0.00030163330551322473 - 0.00019483553901186455j,
    (2.0, -0.3): 0.044439589029252546 + 0.019553180564701813j,
    (0.7, -1.2): -0.09477672476430453 + 0.23478760008417188j,
    (1.5, 2.5): -0.06232096392906924 + 0.012761288150091575j,
    (8.0, -3.0): -3.5026743712288524e-05 - 6.575268143427535e-06j,
    (0.9, 0.1): 0.2554528102240399 - 0.04474924993028674j,
}

FAMILIES = [make_kernel("poly_bump", d) for d in (1, 2, 3, 4, 6)] \
    + [make_kernel("tent")]


def test_make_kernel_validation():
    with pytest.raises(InvalidFamily):
        make_kernel("gauss")
    with pytest.raises(InvalidFamily):
        make_kernel("poly_bump")          # missing degree
    with pytest.raises(InvalidFamily):
        make_kernel("tent", 3)            # spurious degree


def test_mass_one():
    for k in FAMILIES:
        val, _ = integrate_adaptive(lambda x: (k.f(x) + 0j,
                                               np.zeros(x.shape)),
                                    0.0, 1.0, 1e-12)
        assert abs(val.real - 1.0) < 1e-10, k.name


def test_cdf_consistency():
    for k in FAMILIES:
        assert k.f_cdf(0.0) == pytest.approx(0.0, abs=1e-12)
        assert k.f_cdf(1.0) == pytest.approx(1.0, abs=1e-12)
        for x in (0.25, 0.5, 0.75):
            val, _ = integrate_adaptive(lambda u: (k.f(u) + 0j,
                                                   np.zeros(u.shape)),
                                        0.0, x, 1e-12)
            assert abs(val.real - k.f_cdf(x)) < 1e-10


def test_f_takes_arrays():
    rng = np.random.default_rng(4)
    edges = [-1.0, -0.0, 0.0, 5e-324, 0.5, 1.0 - 2 ** -53, 1.0, 1.5]
    xs = np.concatenate([edges, rng.uniform(-0.2, 1.2, 2_000)])
    for k in FAMILIES:
        got = k.f(xs)
        assert got.shape == xs.shape
        # numpy's vector pow may land an ulp away from the scalar one, and
        # the normalization doubles that
        one_by_one = np.array([k.f(x) for x in xs.tolist()])
        assert np.all(np.abs(got - one_by_one) <= 2 * np.spacing(one_by_one))
        assert np.ndim(k.f(0.3)) == 0
        assert np.all(got[(xs <= 0.0) | (xs >= 1.0)] == 0.0)


def _scalar_tent_cdf(x: float) -> float:
    """The clamped tent CDF one point at a time, with Python float
    arithmetic."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    return 2.0 * x * x if x <= 0.5 else 1.0 - 2.0 * (1.0 - x) ** 2


def test_cdf_takes_arrays():
    rng = np.random.default_rng(3)
    edges = [-1.0, -0.0, 0.0, 5e-324, 0.5, 1.0 - 2 ** -53, 1.0, 1.5, math.inf]
    xs = np.concatenate([edges, rng.uniform(-0.2, 1.2, 20_000)])
    tent = make_kernel("tent")
    for k in [make_kernel("poly_bump", d) for d in range(1, 7)] + [tent]:
        got = k.f_cdf(xs)
        assert got.shape == xs.shape
        assert np.array_equal(got, [k.f_cdf(x) for x in xs.tolist()])
        assert np.ndim(k.f_cdf(0.3)) == 0
        assert np.all(got[xs <= 0.0] == 0.0) and np.all(got[xs >= 1.0] == 1.0)
        if k is tent:
            # numpy squares 1 - x exactly rounded where libm's pow(., 2)
            # may land one ulp away
            want = np.array([_scalar_tent_cdf(x) for x in xs.tolist()])
            assert np.all(np.abs(got - want) <= np.spacing(want))


def test_poly_bump_cdf_against_mpmath():
    # I_x(d+1, d+1) in closed form, against 40 digits: within 8 units of
    # 2^-53 absolutely up to d = 10 and 32 up to d = 600, and finite in
    # [0, 1] far beyond
    rng = np.random.default_rng(11)
    edges = [0.0, 5e-324, 1e-300, 1e-10, 0.25, 0.5 - 2 ** -54, 0.5,
             0.5 + 2 ** -53, 0.75, 1.0 - 1e-10, 1.0 - 2 ** -53, 1.0]
    xs = np.concatenate([edges, rng.uniform(0.0, 1.0, 200)])
    for d in [*range(1, 11), 50, 510, 600]:
        got = make_kernel("poly_bump", d).f_cdf(xs)
        with mp.workdps(40):
            want = np.array([float(mp.betainc(d + 1, d + 1, 0, x,
                                              regularized=True))
                             for x in xs.tolist()])
        units = 8 if d <= 10 else 32
        assert np.max(np.abs(got - want)) <= units * 2.0 ** -53, d
    far = make_kernel("poly_bump", 5000).f_cdf(np.linspace(0.0, 1.0, 1001))
    assert np.all((far >= 0.0) & (far <= 1.0))
    assert far[0] == 0.0 and far[-1] == 1.0


def test_v_anchor_identities():
    # v at e equals 1 and at e^(1+1/H) equals 0, all families and H
    for k in FAMILIES:
        for h in (1.0, 2.0, 10.0):
            assert abs(v_f_h(k, h, math.e) - 1.0) <= 1e-12
            assert abs(v_f_h(k, h, math.exp(1.0 + 1.0 / h))) <= 1e-12
            assert v_f_h(k, h, 1.0) == 1.0
            assert v_f_h(k, h, math.exp(1.0 + 1.0 / h) + 10.0) == 0.0


def test_u_support_and_positivity():
    for k in FAMILIES:
        for h in (1.0, 3.0):
            assert u_f_h(k, h, math.e * 0.999) == 0.0
            assert u_f_h(k, h, math.exp(1.0 + 1.0 / h) * 1.001) == 0.0
            assert u_f_h(k, h, math.exp(1.0 + 0.5 / h)) > 0.0
    with pytest.raises(ValidationError):
        u_f_h(DEFAULT_KERNEL, 0.5, 3.0)    # H < 1
    with pytest.raises(ValidationError):
        v_f_h(DEFAULT_KERNEL, 1.0, -2.0)   # y <= 0


@settings(max_examples=60, deadline=None)
@given(h=st.floats(1.0, 10.0), y1=st.floats(1.0, 12.0), y2=st.floats(1.0, 12.0))
def test_v_monotone_nonincreasing(h, y1, y2):
    lo, hi = sorted((y1, y2))
    assert v_f_h(DEFAULT_KERNEL, h, lo) >= v_f_h(DEFAULT_KERNEL, h, hi) - 1e-12


def test_boundary_derivative_detects_smoothness_order():
    # step-halving: orders below the smoothness order shrink linearly with
    # the step (the exact one-sided derivative is 0); at the smoothness
    # order the stencil converges to a nonzero jump
    cases = [(make_kernel("poly_bump", d), d) for d in (1, 2, 3)] \
        + [(make_kernel("tent"), 1)]
    for k, d in cases:
        for side in (0, 1):
            for order in range(d):
                a = boundary_derivative(k, order, side, step=1e-3)
                b = boundary_derivative(k, order, side, step=5e-4)
                assert abs(b) <= 0.75 * abs(a) + 1e-9, (k.name, side, order)
            a = boundary_derivative(k, d, side, step=1e-3)
            b = boundary_derivative(k, d, side, step=5e-4)
            assert abs(b) > 0.5, (k.name, side)
            assert 0.75 < abs(a / b) < 1.3, (k.name, side)
    with pytest.raises(ValidationError):
        boundary_derivative(DEFAULT_KERNEL, 99, 0)
    with pytest.raises(ValidationError):
        boundary_derivative(DEFAULT_KERNEL, 1, 2)


def test_e_star_one_matches_e1_oracle():
    for (re, im), ref in E1_ORACLE.items():
        got = e_star(0, complex(re, im))
        assert abs(got - ref) < 1e-10, (re, im)


def test_e_star_two_reduction():
    # E*_2(z) = e^-z - z E_1(z)
    for (re, im), e1 in E1_ORACLE.items():
        z = complex(re, im)
        ref = cmath.exp(-z) - z * e1
        assert abs(e_star(1, z) - ref) < 1e-10, z


def _e_star_refs(z, orders, dps):
    """E*_{m+1}(z) for m in orders from mpmath's E_1 and incomplete Gamma
    (not the recurrence under test), at dps digits."""
    with mp.workdps(dps):
        zz = mp.mpc(z.real, z.imag)
        e1 = mp.e1(zz)
        gams = [mp.gammainc(k, zz) for k in range(1, max(orders) + 1)]
        refs = []
        for m in orders:
            ref = (-zz) ** m * e1
            for k in range(1, m + 1):
                ref += mp.binomial(m, k) * (-zz) ** (m - k) * gams[k - 1]
            refs.append(complex(ref))
    return refs


def test_e_star_higher_against_incomplete_gamma():
    for z in (complex(0.7, 0.9), complex(2.5, -1.5), complex(6.0, 2.0)):
        for m, ref in zip((2, 3, 4), _e_star_refs(z, (2, 3, 4), 30)):
            assert abs(e_star(m, z) - ref) < 1e-9, (m, z)


@pytest.mark.parametrize("z", [complex(-6.0, 0.3), complex(-10.0, -1.0),
                               complex(-30.0, 5.0), complex(-8.0, 1e-6)])
@pytest.mark.parametrize("m", [0, 1, 3])
def test_e_star_panel_path_left_of_the_origin(z, m):
    # Re z < 0 and |z| > 4: the closed form in extended precision (the name
    # is that of the quadrature path these points once took)
    ref, = _e_star_refs(z, [m], 50)
    assert abs(e_star(m, z) - ref) <= 1e-13 * max(1.0, abs(ref)), (m, z)


def test_e_star_against_mpmath_beyond_the_closed_form_radius():
    # 60 seeded z with 4 <= |z| < 60 at all arguments, pairs 1e-9 |z| above
    # and below the negative real axis, and the points where quadrature
    # once raised BudgetExceeded (m = 12, 2, 3, 4); reference at 60 digits
    rng = np.random.default_rng(12)
    pts = [cmath.rect(4.0 + 56.0 * r, 2.0 * math.pi * a)
           for r, a in rng.random((60, 2))]
    for x in (4.5, 8.0, 10.0, 25.0, 60.0):
        pts += [complex(-x, 1e-9 * x), complex(-x, -1e-9 * x)]
    pts += [complex(5.0, 1.0), complex(-4.5, 4.5e-9), complex(-8.0, 8e-9),
            complex(-10.0, 1e-8)]
    orders = (0, 1, 2, 3, 4, 12)
    for z in pts:
        for m, ref in zip(orders, _e_star_refs(z, orders, 60)):
            err = abs(e_star(m, z) - ref) / max(1.0, abs(ref))
            assert err <= 1e-13, (m, z, err)


def test_e_star_against_mpmath_across_the_closed_form_radius():
    # 300 seeded points with 0 < |z| <= 6, on both sides of the switch at
    # |z| = 4, and pairs 1e-9 max(1, |z|) above and below the negative real
    # axis inside it, where E_1 has its branch cut; reference at 50 digits.
    rng = np.random.default_rng(10)
    pts = [cmath.rect(6.0 * math.sqrt(r) + 1e-3, 2.0 * math.pi * a)
           for r, a in rng.random((240, 2))]
    for x in -4.0 * rng.random(30):
        eps = 1e-9 * max(1.0, abs(x))
        pts += [complex(x, eps), complex(x, -eps)]
    worst = 0.0
    for z in pts:
        for m, ref in enumerate(_e_star_refs(z, range(5), 50)):
            worst = max(worst, abs(e_star(m, z) - ref) / abs(ref))
    assert worst <= 1e-11


def test_poly_bump_normaliser_is_exact():
    # f(1/2) = norm 4^-d exactly, and norm = 1/B(d+1, d+1) = (2d+1)!/(d!)^2
    for d in range(1, 11):
        k = make_kernel("poly_bump", d)
        norm = math.factorial(2 * d + 1) // math.factorial(d) ** 2
        assert k.f(0.5) * 4.0 ** d == norm, d
    # where (2d+1)!/(d!)^2 overflows a double, f(1/2) is still that exact
    # ratio times 4^-d, rounded once
    for d in (510, 600, 5000):
        want = (2 * d + 1) * math.comb(2 * d, d) / 4 ** d
        assert make_kernel("poly_bump", d).f(0.5) == want, d


def test_e_star_cut_refusal():
    with pytest.raises(OnNegativeRealAxisCut):
        e_star(0, -1.0)
    with pytest.raises(OnNegativeRealAxisCut):
        e_star(2, 0.0)
    with pytest.raises(ValidationError):
        e_star(-1, 1.0)


def _u_m_ref(m, z, h, kernel=DEFAULT_KERNEL):
    """U_m(z) = (1/m!) int_0^1 f(tau) E*_{m+1}(z L)/L^m dtau, L = 1 + tau/H,
    by tanh-sinh quadrature and the Gamma-based E* formula at 25 digits;
    real z <= 0 is moved below the cut as u_m_eval moves it."""
    if z.imag == 0.0 and z.real <= 0.0:
        z = complex(z.real, -1e-9 * max(1.0, abs(z)))
    with mp.workdps(25):
        zz = mp.mpc(z.real, z.imag)

        def g(tau):
            w = zz * (1 + tau / h)
            e = (-w) ** m * mp.e1(w)
            for j in range(1, m + 1):
                e += mp.binomial(m, j) * (-w) ** (m - j) * mp.gammainc(j, w)
            return mp.mpf(kernel.f(float(tau))) * e / (1 + tau / h) ** m
        return complex(mp.quad(g, [0, 0.5, 1])) / math.factorial(m)


def test_u_m_against_independent_quadrature():
    for m, z, h in [(0, complex(0.4, 0.6), 1.0),
                    (1, complex(-0.3, 0.5), 1.0),
                    (2, complex(0.8, -0.2), 2.0)]:
        assert abs(u_m_eval(m, z, DEFAULT_KERNEL, h) - _u_m_ref(m, z, h)) \
            < 1e-8, (m, z, h)


def test_u_m_answers_where_its_nodes_cross_the_radius():
    # z L runs over [z, 2z] at H = 1, across |zL| = 4 and just below the
    # cut; U_0(-2.5) once ran for minutes in graded panels.  An alarm turns
    # a hang into a failure.
    def hang(signum, frame):
        raise TimeoutError("u_m_eval did not answer within 5 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        got = {(m, z): u_m_eval(m, z) for m, z in
               [(0, complex(-2.5)), (1, complex(-2.5)),
                (0, complex(-2.5, 0.3)), (2, complex(-3.0))]}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    for (m, z), val in got.items():
        ref = _u_m_ref(m, z, 1.0)
        assert abs(val - ref) < 1e-8 * max(1.0, abs(ref)), (m, z, val, ref)
    # the limit from below the cut: Im U_0(-2.5) = Im E_1(-x - i0) = pi
    im = got[(0, complex(-2.5))].imag
    assert 0.0 < math.pi - im < 1e-6, im


def test_u_m_refuses_a_tol_below_its_rounding_floor_at_once():
    # E*_1(z L) reaches 5e7 over the panel at z = -12 + i, so the rounding
    # floor of the rule's sums, 5.6e-9, is 561 times the tol 1e-11: refused
    # after the first panel, where it once took a minute to reach 4000
    def hang(signum, frame):
        raise TimeoutError("u_m_eval did not refuse within 5 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        with pytest.raises(BudgetExceeded, match="rounding floor"):
            u_m_eval(0, complex(-12.0, 1.0))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("m, z, h", [(0, -11.0, 1.0), (1, -11.0, 1.0),
                                     (3, complex(-13.0, 1.0), 2.0),
                                     (0, -10.5, 1.0)])
def test_u_m_refuses_an_abs_err_below_its_resolution(m, z, h):
    # |U| is 6.4e5 to 2.9e6 here, so its double spacing is 1.2e-10 to
    # 4.7e-10, and the answers were off by 1.2e-10 to 4.7e-10 at abs_err
    # 1e-10: refused, naming m, z, abs_err and the resolution, which is at
    # least the spacing of |U|
    with pytest.raises(BudgetExceeded) as info:
        u_m_eval(m, z, DEFAULT_KERNEL, h)
    msg = str(info.value)
    assert f"m={m}, z={complex(z)!r}: abs_err=1e-10" in msg, msg
    resolution = float(msg.split("resolution ")[1].split()[0])
    assert resolution > 1e-10
    ref = _u_m_ref(m, complex(z), h)
    assert resolution >= math.ulp(abs(ref))


def _e_star_one_by_one(m, w, prec):
    return np.array([e_star(m, x, prec) for x in w.ravel().tolist()]
                    ).reshape(w.shape)


def test_e_star_on_a_panel_matches_node_by_node(monkeypatch):
    # a block of panels' nodes w = z L, L in [1, 2]: inside the radius in
    # one call of the closed form on the array, within a few ulps of the
    # scalar path, on the scale (1 + |w|)^m of the sum's terms; a block
    # that straddles the radius (|z| = 3) or reaches the cut goes node by
    # node, bit for bit the scalar path or its refusal
    kernels = sys.modules["zeta_eta.kernels"]
    big_l = 1.0 + np.stack([0.5 + 0.5 * _NODES, 0.25 + 0.25 * _NODES])
    rng = np.random.default_rng(20)
    for m in (0, 1, 2, 3):
        for z in [complex(*rng.uniform(-1.4, 1.4, 2)) for _ in range(6)]:
            w = z * big_l
            got = kernels._e_star_nodes(m, w, DEFAULT_PRECISION)
            want = _e_star_one_by_one(m, w, DEFAULT_PRECISION)
            scale = (1.0 + np.abs(w)) ** m
            assert np.all(np.abs(got - want) <= 8 * 2.0 ** -52 * scale), (m, z)
        w = complex(2.4, -1.8) * big_l
        assert np.array_equal(kernels._e_star_nodes(m, w, DEFAULT_PRECISION),
                              _e_star_one_by_one(m, w, DEFAULT_PRECISION))
        with pytest.raises(OnNegativeRealAxisCut):
            kernels._e_star_nodes(m, -0.5 * big_l, DEFAULT_PRECISION)
    # U_m through the panels agrees with U_m taken node by node
    zs = (complex(0.4, 0.6), complex(-1.2, 0.1), complex(2.5, 1.0))
    plain = {(m, z): u_m_eval(m, z) for m in (0, 1, 2) for z in zs}
    monkeypatch.setattr(kernels, "_e_star_nodes", _e_star_one_by_one)
    for (m, z), val in plain.items():
        assert abs(val - u_m_eval(m, z)) <= 1e-14 * max(1.0, abs(val)), (m, z)


def test_u_m_cut_side_and_validation():
    # on the negative real axis the limit from below is taken: finite value
    v = u_m_eval(0, -0.5)
    assert math.isfinite(v.real) and math.isfinite(v.imag)
    with pytest.raises(ValidationError):
        u_m_eval(0, 0.0)
    with pytest.raises(ValidationError):
        u_m_eval(-1, 1.0)


def test_u_0_looks_like_minus_log_near_zero():
    # U_0(z) + log z stays bounded as z -> 0 while both pieces blow up
    for r in (1e-2, 1e-3, 1e-4):
        z = complex(r, r)
        total = u_m_eval(0, z) + cmath.log(z)
        assert abs(total) < 2.0, z
