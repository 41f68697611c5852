"""Adaptive Gauss-Legendre panels for complex integrands.

An integrand takes the array of a panel's abscissae, strictly ascending, and
returns (values, pointwise_error_bounds) as two arrays of that shape; each
panel calls it once, with its 30 Gauss(10) and Gauss(20) nodes together.
The returned estimate sums the panel Gauss(10)-vs-Gauss(20) discrepancies
with the integrated pointwise bounds, so callers can propagate honest error
budgets.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from .errors import BudgetExceeded

Integrand = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

_MAX_PANELS = 4000      # panels one adaptive integral may use


def _merged_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 10- and 20-point Gauss-Legendre nodes of [-1, 1] merged in
    ascending order, and the rows of Gauss(20) and Gauss(10) weights on the
    merged nodes (0 off the rule's own nodes)."""
    (x10, w10), (x20, w20) = (np.polynomial.legendre.leggauss(n)
                              for n in (10, 20))
    order = np.argsort(np.concatenate((x10, x20)))
    weights = np.stack((np.concatenate((np.zeros(10), w20)),
                        np.concatenate((w10, np.zeros(20)))))
    return np.concatenate((x10, x20))[order], weights[:, order]


# A panel hands f its nodes from left to right, which the iterated eta sweep
# needs: it pins the branch of log zeta by continuity from one node to the
# next.
_NODES, _WEIGHTS = _merged_rule()


def _panel(f: Integrand, a: float, b: float) -> tuple[complex, float, float]:
    """Returns (gauss20 value, |gauss20-gauss10|, integrated node error).

    f is called once, with the 30 nodes in strictly ascending order.
    """
    half = 0.5 * (b - a)
    vals, errs = f(0.5 * (a + b) + half * _NODES)
    v20, v10 = (_WEIGHTS @ vals).tolist()
    node_err = float(_WEIGHTS[0] @ errs)
    return complex(v20) * half, abs(v20 - v10) * half, node_err * half


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
