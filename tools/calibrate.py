#!/usr/bin/env python3
"""Check the frozen constants of the acceptance suite against their
calibration grids.

Each constant in tests/test_acceptance.py was frozen as the observed maximum
on a CALIBRATION grid times a safety margin; the acceptance tests check the
same quantity on a DISJOINT test grid against the frozen value.  This script
recomputes each observed maximum, prints it next to its frozen constant, and
exits 1 when a maximum exceeds its constant.  The constants are never raised
to make a change pass: such a change has made the numerics worse.

    PYTHONPATH=src python tools/calibrate.py

Calibration inputs (the test grids use different seeds / grid nodes):
  A. u-transform shape:   100 points, seed 20250815, |z| <= 1, Im z != 0
  B. residual scaling:    m in {0,1}, sigma = 1/2, t in {60,65,150,250},
                          X in {15,25,40,80}, H = 1  (t = 65 probes the
                          zero-cluster regime that drives the maximum)
  C. prime-polynomial decomposition: 60 random t in [20, 400], seed 424242,
                          X = max(log t, 5)
"""

import ast
import cmath
import math
import os
import sys

import numpy as np

from zeta_eta.approx import ApproxConfig, relzz_decompose, residual
from zeta_eta.kernels import u_m_eval
from zeta_eta.zeros import builtin_store

MARGIN = 1.5
ACCEPTANCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "tests", "test_acceptance.py")


def frozen_constants(path: str = ACCEPTANCE) -> dict:
    """The module-level numeric constants C5_*, C6_* and C8_* of path."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id.startswith(("C5_", "C6_", "C8_"))}


def sample_disc(seed: int, count: int) -> list[complex]:
    """Points with |z| <= 1, Im z != 0, bounded away from the origin."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        r = math.sqrt(rng.random())          # area-uniform radius
        theta = 2.0 * math.pi * rng.random()
        z = r * cmath.exp(1j * theta)
        if abs(z) >= 1e-3 and abs(z.imag) >= 1e-6:
            pts.append(z)
    return pts


def calibrate_u_transform() -> dict:
    pts = sample_disc(20250815, 100)
    u0 = max(abs(u_m_eval(0, z) + cmath.log(z)) for z in pts)
    u1 = max(abs(u_m_eval(1, z)) for z in pts)
    u2 = max(abs(u_m_eval(2, z)) for z in pts)
    return {"C5_U0": ("max |U_0 + log z|", u0),
            "C5_U1": ("max |U_1|", u1),
            "C5_U2": ("max |U_2|", u2)}


def calibrate_residual_ratio() -> dict:
    store = builtin_store()
    worst = 0.0
    for m in (0, 1):
        for t in (60.0, 65.0, 150.0, 250.0):
            for x in (15.0, 25.0, 40.0, 80.0):
                rep = residual(complex(0.5, t),
                               ApproxConfig(m=m, X=x, H=1.0), store)
                worst = max(worst, rep.ratio)
    return {"C6_RATIO": ("max |R_m|/bound_esrm2", worst)}


def calibrate_relzz_ratio() -> dict:
    store = builtin_store()
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(60):
        t = 20.0 + 380.0 * rng.random()
        x = max(math.log(t), 5.0)
        out = relzz_decompose(t, x, store=store)
        scale = math.log(t) / math.log(math.log(t))
        worst = max(worst, abs(out["diff"]) / scale)
    return {"C8_RATIO": ("max |diff| loglog t/log t", worst)}


def main() -> int:
    frozen = frozen_constants()
    print(f"frozen constants were set at {MARGIN}x the observed maximum")
    exceeded = []
    for name, stats in [("A. u-transform shape", calibrate_u_transform()),
                        ("B. residual scaling", calibrate_residual_ratio()),
                        ("C. decomposition remainder", calibrate_relzz_ratio())]:
        print(f"\n{name}")
        for const, (label, val) in stats.items():
            limit = frozen[const]
            ok = val <= limit
            print(f"  {label:28s} observed {val:.6f}   {const} = {limit}"
                  f"   {'ok' if ok else 'EXCEEDED'}")
            if not ok:
                exceeded.append(const)
    if exceeded:
        print(f"\nobserved maximum above its frozen constant: "
              f"{', '.join(exceeded)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
