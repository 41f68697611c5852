"""End-to-end acceptance run: one test per stated requirement, each printing
a single CRITERION-nn PASS/FAIL line (run with `pytest -s` to see them all).

Frozen constants below come from tools/calibrate.py (observed maximum on a
calibration grid times a 1.5 margin).  The grids and seeds used here are
disjoint from the calibration ones:

    constant      calibration input (tools/calibrate.py)      this file
    C5_U0/U1/U2   100 disc points, seed 20250815              seed 99250815
    C6_RATIO      t in {60,65,150,250} x X in {15,25,40,80}   t in {50,100,200}
                                                              x X in {10,30,100}
    C8_RATIO      60 random t in [20,400], seed 424242        50 random t,
                                                              seed 8152026
"""

import cmath
import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from zeta_eta.approx import (ApproxConfig, relzz_decompose, residual, y_m)
from zeta_eta.cli import main as cli_main
from zeta_eta.distribution import GridSpec, gaussian_tail, moment_residual
from zeta_eta.errors import HypothesisViolated
from zeta_eta.eta import route_check
from zeta_eta.kernels import e_star, make_kernel, u_f_h, u_m_eval, v_f_h
from zeta_eta.zeros import (ZeroStore, builtin_store, inject_hypothetical,
                            rvmf_check)

C5_U0 = 4.66      # bound on |U_0(z) + log z|, |z| <= 1, Im z != 0
C5_U1 = 4.31      # bound on |U_1(z)|, |z| <= 1
C5_U2 = 2.38      # bound on |U_2(z)|, |z| <= 1
C6_RATIO = 0.42   # bound on |R_m| / bound_esrm2 on the stated grid
C8_RATIO = 0.91   # bound on |diff| / (log t / loglog t)

EULER_GAMMA = 0.5772156649015329


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION-{num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _sample_disc(seed: int, count: int) -> list[complex]:
    # same sampler as tools/calibrate.py, different seed
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        r = math.sqrt(rng.random())
        theta = 2.0 * math.pi * rng.random()
        z = r * cmath.exp(1j * theta)
        if abs(z) >= 1e-3 and abs(z.imag) >= 1e-6:
            pts.append(z)
    return pts


def _e1_reference(z: complex) -> complex:
    """Independent E_1: power series inside |z| <= 3, Lentz continued
    fraction outside (both classical)."""
    if abs(z) <= 3.0:
        total = 0j
        term = 1.0 + 0j
        for k in range(1, 60):
            term *= -z / k
            total += term / k
        return -EULER_GAMMA - cmath.log(z) - total
    # modified Lentz on E_1(z) = e^-z / (z + 1 - 1/(z+3 - 4/(z+5 - ...)))
    tiny = 1e-30
    f = z + 1.0
    if f == 0:
        f = tiny
    c, d = f, 0j
    for n in range(1, 200):
        a = -float(n * n)
        b = z + 2.0 * n + 1.0
        d = b + a * d
        if d == 0:
            d = tiny
        c = b + a / c
        if c == 0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return cmath.exp(-z) / f


def test_criterion_01_zero_count_consistency(store):
    first100 = ZeroStore([store.record(i) for i in range(100)], "first-100")
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_delta = 0.0
    worst_int = 0.0
    for _ in range(50):
        t = 15.0 + 215.0 * rng.random()
        g = first100.nearest_gamma(t)
        while g is not None and abs(t - g) <= 1e-6:
            t += 1e-5
            g = first100.nearest_gamma(t)
        rep = rvmf_check(first100, t)
        worst_delta = max(worst_delta, abs(rep.delta))
        worst_int = max(worst_int, abs(rep.n_rvmf - round(rep.n_rvmf)))
    elapsed = time.perf_counter() - start
    ok = worst_delta < 1e-6 and worst_int < 1e-6 and elapsed < 60.0
    _report(1, ok, f"50 random T in [15,230], max |delta|={worst_delta:.2e},"
                   f" max off-integer={worst_int:.2e}, {elapsed:.1f}s")


def test_criterion_02_route_equivalence(store):
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    checked = 0
    fails = []
    for _ in range(30):
        sigma = 0.5 + 1.5 * rng.random()
        t = 15.0 + 285.0 * rng.random()
        for m in (1, 2):
            chk = route_check(complex(sigma, t), m, store)
            checked += 1
            if not chk["agree"]:
                fails.append((sigma, t, m, chk["difference"],
                              chk["tolerance"]))
    elapsed = time.perf_counter() - start
    ok = not fails and elapsed < 600.0
    _report(2, ok, f"{checked} route checks (30 points x m in {{1,2}}), "
                   f"{len(fails)} disagreements, {elapsed:.1f}s")


def test_criterion_03_kernel_identities():
    worst_v = 0.0
    worst_mass = 0.0
    for kernel in (make_kernel("poly_bump", 4), make_kernel("tent")):
        for h in (1.0, 2.0, 10.0):
            worst_v = max(worst_v,
                          abs(v_f_h(kernel, h, math.e) - 1.0),
                          abs(v_f_h(kernel, h, math.exp(1.0 + 1.0 / h))))
            lo, hi = math.e, math.exp(1.0 + 1.0 / h)
            kink = math.exp(1.0 + 0.5 / h)      # tent has a corner here
            mass, _ = quad(lambda x: u_f_h(kernel, h, x), lo, hi,
                           points=[kink], limit=200, epsabs=1e-13,
                           epsrel=1e-13)
            worst_mass = max(worst_mass, abs(mass - 1.0))
    ok = worst_v <= 1e-12 and worst_mass <= 1e-10
    _report(3, ok, f"both families, H in {{1,2,10}}: max anchor error "
                   f"{worst_v:.2e}, max |int u - 1| = {worst_mass:.2e}")


E_STAR_POINTS = [
    0.1 + 0.2j, 0.5 - 0.3j, 1.0 + 1.0j, -0.4 + 0.8j, -1.2 - 0.9j,
    2.0 + 0.1j, 0.05 + 0.9j, -2.5 + 1.5j, 1.7 - 2.1j, 0.3 + 2.8j,
    2.9 - 0.4j, -0.8 - 2.6j, 4.0 + 1.0j, 5.5 - 2.0j, 7.0 + 0.5j,
    9.0 + 9.0j, 12.0 - 3.0j, 16.0 + 1.0j, 21.0 - 7.0j, 28.0 + 4.0j,
]


def test_criterion_04_e_star_reduction():
    worst1 = max(abs(e_star(0, z) - _e1_reference(z)) for z in E_STAR_POINTS)
    worst2 = max(abs(e_star(1, z)
                     - (cmath.exp(-z) - z * _e1_reference(z)))
                 for z in E_STAR_POINTS)
    ok = worst1 <= 1e-10 and worst2 <= 1e-10
    _report(4, ok, f"20 points: max |E*_1 - E_1| = {worst1:.2e}, "
                   f"max |E*_2 - (e^-z - z E_1)| = {worst2:.2e}")


def test_criterion_05_u_transform_shape():
    pts = _sample_disc(99250815, 100)
    u0 = max(abs(u_m_eval(0, z) + cmath.log(z)) for z in pts)
    u1 = max(abs(u_m_eval(1, z)) for z in pts)
    u2 = max(abs(u_m_eval(2, z)) for z in pts)
    ok = u0 <= C5_U0 and u1 <= C5_U1 and u2 <= C5_U2
    _report(5, ok, f"100 fresh disc points: |U_0+log z| max {u0:.3f} "
                   f"(<= {C5_U0}), |U_1| max {u1:.3f} (<= {C5_U1}), "
                   f"|U_2| max {u2:.3f} (<= {C5_U2})")


def test_criterion_06_residual_scaling(store):
    worst = 0.0
    at = None
    for m in (0, 1):
        for t in (50.0, 100.0, 200.0):
            for x in (10.0, 30.0, 100.0):
                rep = residual(complex(0.5, t),
                               ApproxConfig(m=m, X=x, H=1.0), store)
                if rep.ratio > worst:
                    worst, at = rep.ratio, (m, t, x)
    ok = worst <= C6_RATIO
    _report(6, ok, f"18-node grid: max |R_m|/bound_esrm2 = {worst:.4f} at "
                   f"(m,t,X)={at} (frozen bound {C6_RATIO})")


def test_criterion_07_y_m_vanishing_and_injection(store):
    s = complex(0.5, 50.0)
    exact_zero = all(y_m(s, x, m, store) == 0j
                     for m in (1, 2) for x in (3.0, 1000.0))
    injected = inject_hypothetical(store, 0.75, 30.0)
    val = y_m(complex(0.5, 40.0), 3.0, 1, injected)
    same_x = val == y_m(complex(0.5, 40.0), 1000.0, 1, injected)
    err = abs(val - 2.0 * math.pi * 0.25)
    ok = exact_zero and same_x and err <= 1e-12
    _report(7, ok, f"Y_m = 0 exactly on-line (m in {{1,2}}, X in {{3,1000}}):"
                   f" {exact_zero}; X-independent with injected zero: "
                   f"{same_x}; |Y_1(0.5+40i) - pi/2| = {err:.2e}")


def test_criterion_08_decomposition_remainder(store):
    rng = np.random.default_rng(8152026)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        t = 20.0 + 380.0 * rng.random()
        x = max(math.log(t), 5.0)
        out = relzz_decompose(t, x, store=store)
        scale = math.log(t) / math.log(math.log(t))
        worst = max(worst, abs(out["diff"]) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= C8_RATIO and elapsed < 300.0
    _report(8, ok, f"50 random t in [20,400]: max scaled remainder "
                   f"{worst:.4f} (frozen bound {C8_RATIO}), {elapsed:.1f}s")


def test_criterion_09_moment_sanity(store):
    T = 1000.0
    grid = GridSpec(count=80, scheme="stratified-jitter", seed=909)
    flagged = False
    try:
        moment_residual(T, 10.0, 1, 1, grid, store=store)
    except HypothesisViolated:
        flagged = True
    out10 = moment_residual(T, 10.0, 1, 1, grid, store=store,
                            enforce_range=False)
    out20 = moment_residual(T, 20.0, 1, 1, grid, store=store,
                            enforce_range=False)
    e10, e20 = out10["empirical"], out20["empirical"]
    ok = (flagged and out10["hypothesis_waived"]
          and math.isfinite(e10) and e10 > 0.0
          and math.isfinite(e20) and 0.0 < e20 < e10)
    _report(9, ok, f"X-range guard flagged: {flagged}; waiver recorded: "
                   f"{out10['hypothesis_waived']}; empirical {e10:.4e} (X=10)"
                   f" -> {e20:.4e} (X=20), decreasing: {e20 < e10}")


def test_criterion_10_distribution_harness(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ZETA_ETA_CACHE", str(tmp_path / "cache"))
    T = 1000.0
    v_star = math.sqrt(0.5 * math.log(math.log(T)))
    v_list = f"0,0.5,{v_star!r},1.5"
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out_a, out_b):
        code = cli_main(["--out", str(out), "dist", "tails",
                         "--t-big", "1000", "--seed", "20251010",
                         "--count", "10000", "--v-list", v_list])
        assert code == 0
    capsys.readouterr()
    identical = (out_a.read_bytes() == out_b.read_bytes()
                 and (tmp_path / "a.csv.json").read_bytes()
                 == (tmp_path / "b.csv.json").read_bytes())
    rows = json.loads((tmp_path / "a.csv.json").read_text())["rows"]
    fr = [row["fraction"] for row in rows]
    monotone = all(a >= b for a, b in zip(fr, fr[1:]))
    tail = next(row["fraction"] for row in rows
                if row["V"] == pytest.approx(v_star, abs=1e-12))
    ref = gaussian_tail(1.0)
    within5 = ref / 5.0 <= tail <= ref * 5.0
    ok = identical and monotone and within5
    _report(10, ok, f"byte-identical reruns: {identical}; fractions "
                    f"monotone in V: {monotone}; tail at V={v_star:.4f} is "
                    f"{tail:.4f} vs gaussian {ref:.4f} (factor "
                    f"{max(tail, ref) / max(min(tail, ref), 1e-300):.2f}, "
                    f"10^4 samples)")
