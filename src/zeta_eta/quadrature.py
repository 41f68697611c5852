"""Adaptive Gauss-Legendre panels for complex integrands.

Integrands return (value, pointwise_error_bound); the returned estimate sums
the panel Gauss(10)-vs-Gauss(20) discrepancies with the integrated pointwise
bounds, so callers can propagate honest error budgets.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from .errors import BudgetExceeded

Integrand = Callable[[float], tuple[complex, float]]

_MAX_PANELS = 4000      # panels one adaptive integral may use

# The 10- and 20-point Gauss-Legendre nodes of [-1, 1] in one ascending
# template of (node, weight, belongs to the 20-point rule).  A panel calls f
# from left to right, which the iterated eta sweep needs: it pins the branch
# of log zeta by continuity from one node to the next.
_TEMPLATE = sorted(
    (x, w, n == 20) for n in (10, 20)
    for x, w in zip(*np.polynomial.legendre.leggauss(n)))


def _panel(f: Integrand, a: float, b: float) -> tuple[complex, float, float]:
    """Returns (gauss20 value, |gauss20-gauss10|, integrated node error).

    f is called once per node, at strictly ascending abscissae.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    v10 = 0.0 + 0.0j
    v20 = 0.0 + 0.0j
    node_err = 0.0
    for x, w, in_g20 in _TEMPLATE:
        val, err = f(mid + half * x)
        if in_g20:
            v20 += w * val
            node_err += w * err
        else:
            v10 += w * val
    return v20 * half, abs(v20 - v10) * half, node_err * half


def integrate_adaptive(f: Integrand, a: float, b: float, tol: float,
                       splits: list[float] | None = None) -> tuple[complex, float]:
    """Integral of f over [a, b], a < b, with panel bisection down to tol.

    splits lists interior points that must be panel boundaries (integrand
    kinks or one-sided limits); they are clamped to (a, b) and deduplicated.
    """
    edges = [a, b]
    if splits:
        edges.extend(x for x in splits if a < x < b)
    edges = sorted(set(edges))

    # Max-heap of (-(discrepancy), a, b, value, discrepancy, node_err).
    heap: list[tuple[float, float, float, complex, float, float]] = []
    total = 0.0 + 0.0j
    n_panels = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, disc, nerr = _panel(f, lo, hi)
        heapq.heappush(heap, (-disc, lo, hi, val, disc, nerr))
        n_panels += 1

    while True:
        disc_sum = sum(item[4] for item in heap)
        if disc_sum <= tol or -heap[0][0] <= 0.0:
            break
        if n_panels >= _MAX_PANELS:
            raise BudgetExceeded(
                f"adaptive quadrature hit {_MAX_PANELS} panels on [{a}, {b}] "
                f"(residual {disc_sum:.3e} > tol {tol:.3e})")
        _, lo, hi, _, _, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for seg in ((lo, mid), (mid, hi)):
            val, disc, nerr = _panel(f, seg[0], seg[1])
            heapq.heappush(heap, (-disc, seg[0], seg[1], val, disc, nerr))
        n_panels += 1

    est = 0.0
    for _, _, _, val, disc, nerr in heap:
        total += val
        est += disc + nerr
    return total, est


def integrate_fixed(f: Callable[[np.ndarray], np.ndarray],
                    a: float, b: float, n: int = 20) -> complex:
    """Single Gauss-Legendre panel for a vectorized integrand (no estimate)."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * nodes
    return half * complex(np.sum(weights * f(x)))
