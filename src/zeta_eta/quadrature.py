"""Adaptive Gauss-Kronrod panels for complex integrands.

An integrand takes an array of abscissae, a row of strictly ascending nodes
per panel, and returns (values, pointwise_error_bounds) as two arrays of
that shape; a call of the panel rule calls it once, with the 21 nodes of the
Kronrod(21) rule, ten of which are the Gauss(10) nodes, for each of its
panels.  The adaptive integrator is two steps: its start (_start) calls
the rule once for the whole starting partition, and builds a heap of the
panels; its bisection loop (_refine) then calls it once for the two
halves of each panel it bisects, until the heap is settled.  The start
takes the partitions of several integrands on the same [a, b] in that
one call too, a heap each, and the loop then continues each row's heap
with that row's integrand alone: the vertical eta integral at many
heights of one line.  The integrand sees a row of nodes per panel.  The
returned estimate sums the panel Gauss(10)-vs-Kronrod(21) discrepancies
with the integrated pointwise bounds, so callers can propagate honest
error budgets.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from .errors import BudgetExceeded
from .zeta import _UNIT_ROUNDOFF

Integrand = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

_MAX_PANELS = 4000      # panels one adaptive integral may use
# The rounding floor of an integral over [a, b]: a panel's Kronrod sum
# rounds off up to u sum|weights| max|f| half-length, so the rule resolves
# no residual below u sum|weights| max|f| (b - a)/2 = u max|f| (b - a) with
# certainty (the weights are positive and sum to 2).  The residual the sums
# show sits well under that worst case, and by rounding it reaches tol at
# times even far below it: of 960 U_m calls (m <= 3, z = -r + iy, r in
# {7, 9, 11, 13}, stopped at 300 panels), 36 met a tol under 1/10 of their
# floor, down to 1/3536, and the 6 that met one under 1/256 of it missed
# their abs_err by 1.01 to 200 times.  U_0(-12+1i), whose residual levels
# off at 2.1e-10 against a tol of 1e-11 after 4000 panels, asks for 1/561.
# So an integral refuses a tol below 1/_FLOOR_MARGIN of its floor.
_FLOOR_MARGIN = 256.0


# QUADPACK's qk21 table (Piessens et al. 1983): the Kronrod(21) abscissae of
# [0, 1] in descending order (the odd-indexed ones are the Gauss(10) nodes),
# their Kronrod weights, and the Gauss(10) weights of the odd-indexed ones.
_XGK = (0.995657163025808080735527280689003,
        0.973906528517171720077964012084452,
        0.930157491355708226001207180059508,
        0.865063366688984510732096688423493,
        0.780817726586416897063717578345042,
        0.679409568299024406234327365114874,
        0.562757134668604683339000099272694,
        0.433395394129247190799265943165784,
        0.294392862701460198131126603103866,
        0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192,
        0.032558162307964727478818972459390,
        0.054755896574351996031381300244580,
        0.075039674810919952767043140916190,
        0.093125454583697605535065465083366,
        0.109387158802297641899210590325805,
        0.123491976262065851077958109831074,
        0.134709217311473325928054001771707,
        0.142775938577060080797094273138717,
        0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332,
       0.149451349150580593145776339657697,
       0.219086362515982043995534934228163,
       0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)


def _kronrod_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 21 Kronrod abscissae of [-1, 1] in ascending order, and the rows
    of Kronrod(21) and Gauss(10) weights on them (Gauss: 0 off its ten)."""
    half = np.array(_XGK)
    wg = np.zeros(half.size)
    wg[1::2] = _WG
    rows = [np.concatenate((w, w[-2::-1])) for w in (np.array(_WGK), wg)]
    return np.concatenate((-half, half[-2::-1])), np.stack(rows)


# A panel hands f its nodes from left to right, which the iterated eta sweep
# needs: it pins the branch of log zeta by continuity from one node to the
# next.
_NODES, _WEIGHTS = _kronrod_rule()
# Each node is placed from its nearer end of the panel: a rounded midpoint
# would shift every node alike, an error of the panel's whole integral.
_LEFT, _FROM_A, _FROM_B = _NODES < 0.0, 1.0 + _NODES, 1.0 - _NODES


def _nodes(a, b) -> np.ndarray:
    """The 21 nodes of the panel [a, b] in ascending order; for columns a
    and b of panel ends, a row per panel."""
    half = 0.5 * (b - a)
    return np.where(_LEFT, a + half * _FROM_A, b - half * _FROM_B)


def _panel(f: Integrand, a, b):
    """Returns (kronrod21 value, |kronrod21-gauss10|, integrated node error).

    a and b are the ends of one panel, answered with three Python scalars,
    or arrays of the ends of P panels, answered with three arrays of P: f
    is called once, with the 21 nodes in strictly ascending order, a row of
    them per panel, and one product with _WEIGHTS sums every panel.
    """
    half = 0.5 * (b - a)
    batch = isinstance(a, np.ndarray)
    vals, errs = f(_nodes(a[:, None], b[:, None]) if batch else _nodes(a, b))
    if batch:
        # Not _WEIGHTS @ vals.T: a complex matrix product takes BLAS's GEMM
        # path, whose work buffer adds about 0.3 MB of resident memory.  Nor
        # _WEIGHTS[0] @ errs.T: BLAS's GEMV rounds by the number of panels,
        # so a panel's node error would depend on the batch around it.
        v21, v10 = np.einsum("kn,pn->kp", _WEIGHTS, vals)
        node_err = np.einsum("n,pn->p", _WEIGHTS[0], errs)
    else:
        v21, v10 = (_WEIGHTS @ vals).tolist()
        node_err = float(_WEIGHTS[0] @ errs)
    return v21 * half, abs(v21 - v10) * half, node_err * half


def _sums(f: Integrand, lo: list[float], hi: list[float]) -> list[tuple]:
    """The rule's (value, discrepancy, node error) on each panel [lo[p],
    hi[p]] from one call: its scalar path for one panel, which costs less,
    and its batch path for more."""
    if len(lo) == 1:
        return [_panel(f, lo[0], hi[0])]
    return list(zip(*(x.tolist() for x in _panel(f, np.array(lo),
                                                  np.array(hi)))))


def _push(heap: list, lo: list[float], hi: list[float], sums) -> None:
    """Push the panels [lo[p], hi[p]] with their sums onto a heap of
    integrate_adaptive."""
    for a, b, (val, disc, nerr) in zip(lo, hi, sums):
        heapq.heappush(heap, (-disc, a, b, val, disc, nerr))


def _start(f: Integrand, a: float, b: float, splits: list[float] | None,
           rows: int = 1) -> tuple[list[list], list[float]]:
    """The heaps of integrate_adaptive's starting panels on [a, b], cut at
    the splits inside (a, b), for rows integrands at once, and each
    integrand's max|f| there: one heap per integrand from one call of the
    rule.  Its nodes hold the panels of every integrand in turn, a row per
    panel, and f answers each integrand's rows with its values."""
    edges = sorted({a, b, *(x for x in splits or () if a < x < b)})
    lo, hi = edges[:-1], edges[1:]
    peaks = []

    def seen(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        vals, errs = f(x)
        peaks.extend(np.abs(vals).reshape(rows, -1).max(axis=1).tolist())
        return vals, errs

    sums = _sums(seen, lo * rows, hi * rows)
    heaps = [[] for _ in range(rows)]
    for i, heap in enumerate(heaps):
        _push(heap, lo, hi, sums[i * len(lo):(i + 1) * len(lo)])
    return heaps, peaks


def _settled(heap: list, tol: float) -> tuple[complex, float] | None:
    """The integral and its estimate from a heap of integrate_adaptive once
    its panels meet tol -- their discrepancies sum to at most tol, or the
    largest is 0 -- else None."""
    if not (sum(item[4] for item in heap) <= tol or -heap[0][0] <= 0.0):
        return None
    total = 0.0 + 0.0j
    est = 0.0
    for _, _, _, val, disc, nerr in heap:
        total += val
        est += disc + nerr
    return total, est


def _refine(f: Integrand, heap: list, peak: float, a: float, b: float,
            tol: float) -> tuple[complex, float]:
    """The integral of f over [a, b] and its estimate from a heap of its
    panels there, a max-heap of (-(discrepancy), a, b, value, discrepancy,
    node_err), and peak, max|f| over the values seen so far: each step
    calls f once for both halves of the panel with the largest
    discrepancy, until the panels are _settled.  A tol below
    1/_FLOOR_MARGIN of the rule's rounding floor u max|f| (b - a) is
    refused with BudgetExceeded as soon as a bisection would be needed,
    since no bisection meets it honestly; so is a bisection past
    _MAX_PANELS panels."""

    def seen(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nonlocal peak
        vals, errs = f(x)
        peak = max(peak, float(np.abs(vals).max()))
        return vals, errs

    n_panels = len(heap)
    while (done := _settled(heap, tol)) is None:
        disc_sum = sum(item[4] for item in heap)
        floor = _UNIT_ROUNDOFF * peak * (b - a)
        if tol * _FLOOR_MARGIN < floor:
            raise BudgetExceeded(
                f"adaptive quadrature on [{a}, {b}] cannot meet tol "
                f"{tol:.3e}: the rule's rounding floor is {floor:.3e} "
                f"(max|f| {peak:.3e}; residual {disc_sum:.3e})")
        if n_panels >= _MAX_PANELS:
            raise BudgetExceeded(
                f"adaptive quadrature hit {_MAX_PANELS} panels on [{a}, {b}] "
                f"(residual {disc_sum:.3e} > tol {tol:.3e})")
        _, lo, hi, _, _, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        _push(heap, [lo, mid], [mid, hi], _sums(seen, [lo, mid], [mid, hi]))
        n_panels += 1
    return done


def integrate_adaptive(f: Integrand, a: float, b: float, tol: float,
                       splits: list[float] | None = None) -> tuple[complex, float]:
    """Integral of f over [a, b], a < b, with panel bisection down to tol.

    splits lists interior points that must be panel boundaries, where the
    starting panels are cut; they are clamped to (a, b) and deduplicated.
    f is called with a row of nodes per panel: once for the starting
    panels (_start), then once per bisection (_refine), which refuses a
    tol below the rule's rounding floor and a bisection past _MAX_PANELS
    panels with BudgetExceeded.
    """
    (heap,), (peak,) = _start(f, a, b, splits)
    return _refine(f, heap, peak, a, b, tol)


def integrate_fixed(f: Callable[[np.ndarray], np.ndarray],
                    a: float, b: float, n: int = 20) -> complex:
    """Single Gauss-Legendre panel for a vectorized integrand (no estimate)."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * nodes
    return half * complex(np.sum(weights * f(x)))
