"""The branch of log zeta normalized by log zeta(sigma + it) -> 0 as
sigma -> +infinity along horizontal lines.

The branch at s = sigma + it is pinned by a walk down the ray from
SIGMA_START = 1.25.  Right of it |Im log zeta| <= log zeta(1.25) < pi/2, so
the principal logarithm is the branch, and the walk pins G there from it.
The walk subtracts the local model

    model(s) = sum_rho Log(s - rho) - [pole] Log(s - 1)

over the zeros with |gamma - t| <= _WINDOW, each taken once, and the pole
when t <= _WINDOW: one table of rows (mu, rho), the pole the row
(-1, 1).  Along the ray each Log(s - rho) is continuous and the
model carries every nearby jump of the argument, so G = log zeta - model
varies slowly, and the branch at a node is the one whose G lies within pi
of the last node's; a step of G above _CONT_STEP first inserts the
midpoint.  A run of nodes is pinned by one unwrap of its rounded phase
steps, which gives the same winding integers, and node by node from a
failing step on.  This is the iterated eta sweep's rule (_Walk serves
both).  A
table zero with a wrong multiplicity, or one zeta lacks, moves the model's
argument by pi where the ray passes it, which the insertion resolves, never
by a multiple of 2 pi that the pin would alias.

A BranchPath is that walk on one ray: _march walks a fixed grid 1/4 apart
down to sigma_end in one Euler-Maclaurin pass on the ray's phases, and the
path keeps the nodes.  A value is the
principal log zeta of its own evaluation + 2 pi i k; the walk only pins k.
eval_log and winding take a float or an array of abscissae, evaluate zeta
at all of them in one pass and pin each from its nearest node (a batch of
zeta._ARRAY_NODES or more in one array step, with _pin only where a step
fails), so a prepared ray answers on [sigma_end, infinity); an abscissa
whose error bound reaches |zeta|/2 is refused, since its phase is noise,
and one whose value is exactly 0 before that.  Every walk,
the sweep's too, evaluates at most _WALK_BUDGET nodes.

The height of a ray is ZeroStore.snap(|t|), the one ordinate convention: t
on a tabulated ordinate uses the one-sided limit, approached from below for
gamma > 0 and from above for gamma < 0, and t = 0 is the limit from above.
Rays refuse heights above the zero table, whose zeros the model needs.
"""

from __future__ import annotations

import bisect
import cmath
import math

import numpy as np

from .errors import (BudgetExceeded, NearSingularity, NumericalError,
                     OnSingularity, ValidationError, _point, _real)
from .precision import DEFAULT_PRECISION, EvalPrecision
from .zeros import ZeroStore
from .zeta import _ARRAY_NODES, _POLE_RADIUS, _Ray, _zeta_em

# For sigma > 1, |log zeta(s)| <= log zeta(sigma) (its Dirichlet series has
# positive coefficients), and log zeta(1.25) = 1.525 < pi/2: from here right
# the principal logarithm is the branch.
SIGMA_START = 1.25
_WALK_BUDGET = 400_000     # nodes one walk may evaluate, midpoints included
_TWO_PI = 2.0 * math.pi
_WINDOW = 1.5              # model zeros kept within this distance in t
_CONT_STEP = 0.9           # max |G step| accepted without midpoint insertion
# The ray's walk: SIGMA_START down in steps of 1/4.
_RAY_GRID = np.arange(SIGMA_START, -1.0, -0.25)


class _Walk:
    """G = log zeta - window model along one line, its branch pinned by
    continuity from node to node.

    The line's points are s = origin + direction * x for real coordinates
    x.  The window is one table of log terms, the model mu @ Log(rel + x
    direction), with a row per term: a weight mu and rel = origin - rho.  A
    zero's row weighs 1 on a ray and its multiplicity in the sweep; the
    pole, when in the window, is the first row, weight -1 at rho = 1.  A
    subclass evaluates zeta on its line in eval(x, depth), which counts the
    nodes with spend and pins them in order with pin; _pin inserts a
    midpoint through eval.
    """

    def __init__(self, origin: complex, direction: complex):
        self.origin = origin
        self.direction = direction
        # The window's table, empty until a subclass fills it.
        self.mu, self.rel = np.empty(0), np.empty(0, dtype=np.complex128)
        self.x_prev = 0.0
        self.g_prev = 0j
        self.nodes = 0

    def spend(self, count: int, x: float) -> None:
        """Count count nodes, the first at x, before they are evaluated; a
        walk past _WALK_BUDGET nodes is refused."""
        self.nodes += count
        if self.nodes > _WALK_BUDGET:
            s = self.origin + self.direction * x
            raise BudgetExceeded(f"the walk of log zeta near s = {s} "
                                 f"exceeded {_WALK_BUDGET} nodes")

    def model(self, x):
        """The window's log terms at x, a float or an array: one np.log of
        the rows x nodes matrix."""
        dx = self.direction * np.asarray(x, dtype=np.float64)
        return self.mu @ np.log(np.add.outer(self.rel, dx))

    def principal(self, xs: np.ndarray, vals, model=None) -> np.ndarray:
        """Principal log zeta minus the model at the nodes xs, from their
        zeta values (a list or an array) and, if given, the model's values
        there; a value of exactly 0 is refused."""
        if 0 in vals:
            s = self.origin + self.direction * np.ravel(xs)[
                list(np.ravel(vals)).index(0)]
            raise OnSingularity(f"zeta({s}) = 0 at working precision")
        return np.log(vals) - (self.model(xs) if model is None else model)

    def pin(self, xs: np.ndarray, principal: np.ndarray, depth: int,
            step=None, enter=None) -> np.ndarray:
        """G at the nodes xs from their principal values, walked in order
        from the last node.

        step[j], where given, is added to the previous node's G before node
        j is pinned: the rebase where the sweep's window moves.  One unwrap
        pins every node: the winding integers are the running sums of the
        rounded phase steps, which are the integers _pin takes node by
        node, since round(x + k) = round(x) + k for an integer k.  From the
        first step of G above _CONT_STEP on, _pin takes the nodes one at a
        time and inserts midpoints; enter(j), where given, first moves the
        window to node j's.
        """
        before = np.concatenate(((self.g_prev,), principal[:-1]))
        if step is not None:
            before += step
        k = np.rint((before.imag - principal.imag) / _TWO_PI).cumsum()
        g = principal.copy()
        g.imag += _TWO_PI * k
        before = np.concatenate(((self.g_prev,), g[:-1]))
        if step is not None:
            before += step
        far = np.flatnonzero(np.abs(g - before) > _CONT_STEP)
        n = int(far[0]) if far.size else xs.size
        if n:
            self.x_prev, self.g_prev = float(xs[n - 1]), complex(g[n - 1])
        for j in range(n, xs.size):
            if enter is not None:
                enter(j)
            if step is not None:
                self.g_prev += complex(step[j])
            g[j] = self._pin(float(xs[j]), complex(principal[j]), depth)
        return g

    def _pin(self, x: float, principal: complex, depth: int) -> complex:
        """The branch of principal at x next to the last node; a step above
        _CONT_STEP first inserts the midpoint as a node of its own, unless
        the midpoint is a root of a model row, where the model has no
        logarithm."""
        k = round((self.g_prev.imag - principal.imag) / _TWO_PI)
        g_here = principal + _TWO_PI * 1j * k
        if abs(g_here - self.g_prev) > _CONT_STEP:
            mid = 0.5 * (self.x_prev + x)
            lo, hi = sorted((self.x_prev, x))
            if (depth > 60 or not lo < mid < hi
                    or 0 in self.rel + self.direction * mid):
                s = self.origin + self.direction * x
                raise NumericalError(
                    f"continuation of log zeta stalled near s = {s}")
            self.eval(mid, depth + 1)
            return self._pin(x, principal, depth + 1)
        self.x_prev, self.g_prev = x, g_here
        return g_here


class BranchPath(_Walk):
    """The walk down one horizontal ray Im s = t, and the queries it answers.

    t is the snapped height |t|; conjugate marks a ray requested at t < 0.
    The walk keeps every node it pinned in ascending alpha (xs) and the
    node's G (gs).  A pin needs the phase of zeta, which an absolute error
    near |zeta| destroys next to a zero, so the nodes take walk_prec: the
    caller's precision prec or the default, whichever is finer.  eval_log
    and winding answer anywhere on [sigma_end, infinity) from one zeta
    evaluation per abscissa at prec, on the ray's phases, each pinned from
    its nearest node.
    """

    def __init__(self, t: float, sigma_end: float, conjugate: bool,
                 prec: EvalPrecision, store: ZeroStore):
        super().__init__(1j * t, 1.0)
        self.t, self.sigma_end, self.conjugate = t, sigma_end, conjugate
        self.ray = _Ray(t)
        self.prec = prec
        self.walk_prec = min(prec, DEFAULT_PRECISION, key=lambda p: p.abs_err)
        lo = int(np.searchsorted(store.gammas, t - _WINDOW))
        hi = int(np.searchsorted(store.gammas, t + _WINDOW, side="right"))
        rows = [(-1.0, 1.0, 0.0)] if t <= _WINDOW else []
        rows += [(1.0, z.beta, z.gamma) for z in map(store.record,
                                                     range(lo, hi))]
        self.mu = np.array([mu for mu, _, _ in rows])
        self.rel = np.array([complex(-beta, t - gamma)
                             for _, beta, gamma in rows], dtype=np.complex128)
        self.xs: list[float] = []
        self.gs: list[complex] = []

    def eval(self, alpha, depth: int = 0, anchor: bool = False) -> None:
        """Pin the nodes alpha (a float or an array, in walking order) from
        the last node, or with anchor from the principal value at the first:
        one zeta evaluation on the ray for all of them."""
        xs = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
        self.spend(xs.size, float(xs[0]))
        vals, _, _ = _zeta_em(self.ray, xs, self.walk_prec, want_deriv=False)
        principal = self.principal(xs, vals)
        if anchor:
            self.x_prev, self.g_prev = float(xs[0]), complex(principal[0])
        for x, g in zip(xs.tolist(), self.pin(xs, principal, depth).tolist()):
            i = bisect.bisect(self.xs, x)
            self.xs.insert(i, x)
            self.gs.insert(i, g)

    def _query(self, alpha) -> tuple[list, list, np.ndarray]:
        """zeta at the abscissae alpha (flattened; finite and >= sigma_end),
        their remainder bounds and their winding integers, each pinned from
        its nearest node; 0 from SIGMA_START up.

        A value of exactly 0 is refused first.  Then a remainder of |zeta|/2
        or more is refused: the phase of such a value, and the pin with it,
        is noise.  Below it the error of its logarithm is under
        log 2 < _CONT_STEP, so the pin converges.
        """
        if np.ndim(alpha) == 0:
            xs = np.array([_real(alpha, "alpha", self.sigma_end)])
        else:
            xs = np.ravel(np.asarray(alpha, dtype=np.float64))
            for end in (xs.min(), xs.max()):
                _real(end, "alpha", self.sigma_end)
        vals, _, rems = _zeta_em(self.ray, xs, self.prec, want_deriv=False)
        principal = self.principal(xs, vals)
        for j, (v, r) in enumerate(zip(vals, rems)):
            if r >= 0.5 * abs(v):
                s = complex(xs[j], -self.t if self.conjugate else self.t)
                raise NearSingularity(
                    f"|zeta({s})| = {abs(v):.3g} is within its error "
                    f"bound {r:.3g} at abs_err={self.prec.abs_err:g}",
                    where=s)
        return vals, rems, self._wind(xs, principal)

    def _wind(self, xs: np.ndarray, principal: np.ndarray) -> np.ndarray:
        """The winding integers at xs, each pinned from its nearest node
        (the right one on a tie) by _pin; 0 from SIGMA_START up.

        _ARRAY_NODES or more abscissae left of SIGMA_START take _pin's rule
        in one array step; only those whose step of G exceeds _CONT_STEP go
        through _pin itself, which inserts midpoints.  The array step costs
        about 35-40 us at any size up to 42 and _pin about 2.5 us a node
        (2 cores, t = 1234.5), so zeta's crossover serves here too.
        """
        k = np.zeros(xs.size, dtype=np.int64)
        walk = np.flatnonzero(xs < SIGMA_START)
        if walk.size >= _ARRAY_NODES:
            x, g = xs[walk], principal[walk]
            nodes = np.array(self.xs)
            i = np.searchsorted(nodes, x, side="right")
            left = np.maximum(i - 1, 0)
            right = np.minimum(i, nodes.size - 1)
            near = np.where((i == nodes.size) | ((i > 0) & (
                x - nodes[left] < nodes[right] - x)), left, right)
            g_near = np.array(self.gs)[near]
            steps = np.rint((g_near.imag - g.imag) / _TWO_PI)
            g.imag += _TWO_PI * steps
            k[walk] = steps
            walk = walk[np.abs(g - g_near) > _CONT_STEP]
        for j in walk.tolist():
            x = float(xs[j])
            p = complex(principal[j])
            i = bisect.bisect(self.xs, x)
            if i == len(self.xs) or (i > 0 and x - self.xs[i - 1]
                                     < self.xs[i] - x):
                i -= 1
            self.x_prev, self.g_prev = self.xs[i], self.gs[i]
            k[j] = round((self._pin(x, p, 0).imag - p.imag) / _TWO_PI)
        return k

    def winding(self, alpha):
        """The winding integer at alpha, a float or an array (same shape)."""
        _, _, k = self._query(alpha)
        return int(k[0]) if np.ndim(alpha) == 0 else k.reshape(np.shape(alpha))

    def eval_log(self, alpha):
        """log zeta(alpha + it) on the branch, with an error estimate.

        alpha is a float, answered with (complex, float), or an array,
        answered with two arrays of its shape; an array takes one
        Euler-Maclaurin pass for all its abscissae.
        """
        out, est = _log_with_err(*self._query(alpha))
        if self.conjugate:
            out = out.conjugate()
        if np.ndim(alpha) == 0:
            return complex(out[0]), float(est[0])
        return out.reshape(np.shape(alpha)), est.reshape(np.shape(alpha))


def _log_with_err(vals: list, rems: list, k) -> tuple[np.ndarray, np.ndarray]:
    """log zeta = principal log of the zeta values + 2 pi i k, and its error
    estimate rem/|zeta| + 1e-15 (1 + |log zeta|).  cmath.log, not np.log:
    near |zeta| = 1 numpy's complex log loses the last bits that cmath's
    log1p branch keeps."""
    out = np.array([cmath.log(v) for v in vals]) + 2j * math.pi * k
    return out, np.array(rems) / np.abs(vals) + 1e-15 * (1.0 + np.abs(out))


def _march(path: BranchPath) -> None:
    """Walk the ray down the grid to sigma_end from SIGMA_START, where G is
    pinned from the principal log zeta."""
    path.eval(np.append(_RAY_GRID[_RAY_GRID > path.sigma_end],
                        path.sigma_end), anchor=True)


def branch_path(t: float, sigma_end: float,
                prec: EvalPrecision = DEFAULT_PRECISION,
                store: ZeroStore | None = None) -> BranchPath:
    """Prepare the ray at height t down to sigma_end for repeated queries."""
    if store is None:
        from .zeros import builtin_store
        store = builtin_store()
    t = _real(t, "t")
    sigma_end = _real(sigma_end, "sigma_end", -1.0)
    if sigma_end >= SIGMA_START:
        raise ValidationError(
            f"sigma_end < {SIGMA_START} required, got sigma_end={sigma_end}")
    store.require_height(abs(t), "branch_path", t=t)
    conjugate = t < 0.0
    t = abs(t)
    # An ordinate is approached from below; for the reflected ray this
    # conjugates into approach from above, matching the convention at
    # negative ordinates.  Exact zeros on the ray (sigma_end below a zero's
    # beta at this height) are fine -- the ray passes at vertical distance
    # >= the snap offset.
    path = BranchPath(store.snap(t), sigma_end, conjugate, prec, store)
    _march(path)
    return path


def log_zeta_with_err(s, prec: EvalPrecision = DEFAULT_PRECISION,
                      store: ZeroStore | None = None) -> tuple[complex, float]:
    """log zeta(s) on the branch, plus an absolute error estimate."""
    z = _point(s)
    _real(z.real, "sigma", -1.0)
    if abs(z - 1.0) <= _POLE_RADIUS:
        raise OnSingularity("log zeta has a logarithmic singularity at s = 1")
    if store is None:
        from .zeros import builtin_store
        store = builtin_store()
    if store.zero_distance(z) <= 1e-12:
        raise OnSingularity(f"s={s} sits on a zero of the table")
    if z.imag == 0.0:
        return _log_zeta_real(z.real, prec)
    if z.real >= SIGMA_START:
        # The principal value, on the ray that branch_path would prepare.
        vals, _, rems = _zeta_em(_Ray(store.snap(abs(z.imag))), z.real, prec,
                                 want_deriv=False)
        out, est = _log_with_err(vals, rems, 0)
        val = complex(out[0])
        return (val.conjugate() if z.imag < 0.0 else val), float(est[0])
    path = branch_path(z.imag, z.real, prec, store)
    return path.eval_log(z.real)


def _log_zeta_real(sigma, prec: EvalPrecision):
    """log zeta(sigma) on the real axis, the limit from above, with error
    estimates; sigma is a float, answered with (complex, float), or an
    array, answered with two arrays of its shape.

    The closed form: zeta(sigma) is real and nonzero on (-1, 1) u (1, inf),
    negative exactly on (-1, 1), and the continuation across the pole
    contributes the phase -pi there.
    """
    if np.any(np.abs(np.asarray(sigma) - 1.0) <= _POLE_RADIUS):
        raise OnSingularity("log zeta has a logarithmic singularity at s = 1")
    vals, _, rems = _zeta_em(_Ray(0.0), sigma, prec, want_deriv=False)
    xs = [v.real for v in vals]
    out = [complex(math.log(abs(x)), -math.pi if x < 0 else 0.0) for x in xs]
    est = [r / max(abs(x), 1e-300) + 1e-15 for x, r in zip(xs, rems)]
    if np.ndim(sigma) == 0:
        return out[0], est[0]
    return (np.reshape(out, np.shape(sigma)),
            np.reshape(est, np.shape(sigma)))


def log_zeta(s, prec: EvalPrecision = DEFAULT_PRECISION,
             store: ZeroStore | None = None) -> complex:
    """log zeta(s) on the branch continued from sigma = +infinity.

    Post: exp(log_zeta(s)) = zeta(s) to evaluation accuracy; the imaginary
    part vanishes as sigma grows; at sigma >= SIGMA_START = 1.25 the
    principal value is returned directly.
    """
    val, _ = log_zeta_with_err(s, prec, store)
    return val


def big_s(t: float, prec: EvalPrecision = DEFAULT_PRECISION,
          store: ZeroStore | None = None) -> float:
    """S(t) = Im log zeta(1/2 + it) / pi on the continued branch."""
    return log_zeta(complex(0.5, _real(t, "t")), prec, store).imag / math.pi
