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
failing step on.  This is the iterated eta sweep's rule too: both walks
are a _Walk, whose one node step evaluates and pins a node.  A table zero
with a wrong multiplicity, or one zeta lacks, moves the model's
argument by pi where the ray passes it, which the insertion resolves, never
by a multiple of 2 pi that the pin would alias.

A BranchPath is one ray, and each query on it is one walk: _march
evaluates zeta at the query's abscissae and at the fixed grid 1/4 apart
right of the leftmost of them, in one Euler-Maclaurin pass at the query's
precision, and pins those left of SIGMA_START in descending order from the
principal value there; a midpoint is evaluated at the query's precision or
the default, whichever is finer.  The path keeps no nodes, so a prepared
ray answers on [sigma_end, infinity) whatever it was asked before.  A
query right of SIGMA_START walks nothing, since its branch is the
principal logarithm, and branch_path, which evaluates nothing, decides
where a ray may walk.  log_zeta_with_err answers every point off the real
axis by its ray's query.  _march walks the rays of many heights at once
too, and _log_less_model, the vertical integral's G, takes one ray or
many by it: one pass on all of them and one unwrap of all their rows,
each ray then pinned as its own walk pins it.  A value is
the principal log zeta of its own evaluation + 2 pi i k; the walk only
pins k.  An abscissa
whose error bound reaches |zeta|/2 is refused, since its phase is noise,
and one whose value is exactly 0 before that; a grid node whose bound
reaches |zeta|/2 is left out of the walk.  Every walk, the sweep's too,
evaluates at most _WALK_BUDGET nodes, a ray's counted afresh for each
query.

The height of a ray is ZeroStore.snap(|t|), the one ordinate convention: t
on a tabulated ordinate uses the one-sided limit, approached from below for
gamma > 0 and from above for gamma < 0, and t = 0 is the limit from above.
A ray that may walk, one ending left of SIGMA_START, refuses heights above
the zero table, whose zeros the model needs; any other answers up to
zeta's height limit, |t| <= 1e10.  Every ray evaluates in doubles, so a
target that zeta would send to extended precision at the ray's height is
refused (zeta._check_doubles), as the iterated sweep refuses it.

On the real axis log zeta is the limit from above, h(sigma) - Log(sigma -
1 + 0i): h(a) = log((a - 1) zeta(a)) is real and analytic on (-1, inf),
and the Log term is the pole's row of the window model.  h is the one
real-axis rule (_log_regular_real): log_zeta_with_err at t = 0, the
sweep's anchor at u = 0 and the panels of c_m take it.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import (BudgetExceeded, NearSingularity, NumericalError,
                     OnSingularity, _point, _real)
from .precision import DEFAULT_PRECISION, EvalPrecision
from .zeros import ZeroStore, store_or_builtin
from .zeta import _POLE_RADIUS, _Ray, _check_doubles, _check_height, _zeta_em

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
    pole, when in the window, is the first row, weight -1 at rho = 1.

    zeta is evaluated on line, the walk's zeta._Ray or zeta._Line, at
    walk_prec.  step is the one node step: it counts a node, evaluates it
    in one pass and pins it, and _pin inserts each midpoint through it, so
    every walk evaluates and pins a node by one rule.
    """

    def __init__(self, origin: complex, direction: complex, line,
                 walk_prec: EvalPrecision):
        self.origin = origin
        self.direction = direction
        self.line = line
        self.walk_prec = walk_prec
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

    def step(self, x: float, depth: int = 0) -> complex:
        """G at the node x, pinned from the last node: spent, then one zeta
        pass on the line."""
        self.spend(1, x)
        xs = np.array([x])
        vals, _ = _zeta_em(self.line, xs, self.walk_prec)
        return complex(self.pin(xs, self.principal(xs, vals), depth)[0])

    def model(self, x):
        """The window's log terms at x, a float or an array: one np.log of
        the rows x nodes matrix."""
        dx = self.direction * np.asarray(x, dtype=np.float64)
        return self.mu @ np.log(np.add.outer(self.rel, dx))

    def principal(self, xs: np.ndarray, vals, model=None) -> np.ndarray:
        """Principal log zeta minus the model at the nodes xs, from their
        zeta values (a list or an array) and, if given, the model's values
        there; a value of exactly 0 is refused."""
        self.refuse_zero(xs, vals)
        return np.log(vals) - (self.model(xs) if model is None else model)

    def refuse_zero(self, xs: np.ndarray, vals) -> None:
        """Refuse a zeta value of exactly 0 among vals, at the nodes xs."""
        if 0 in vals:
            s = self.origin + self.direction * np.ravel(xs)[
                list(np.ravel(vals)).index(0)]
            raise OnSingularity(f"zeta({s}) = 0 at working precision")

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
        g, far = _unwrap(np.array([self.g_prev]), principal, step)
        far = np.flatnonzero(far)
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
            self.step(mid, depth + 1)
            return self._pin(x, principal, depth + 1)
        self.x_prev, self.g_prev = x, g_here
        return g_here


def _unwrap(g_prev: np.ndarray, principal: np.ndarray,
            step=None) -> tuple[np.ndarray, np.ndarray]:
    """G from the principal values by one unwrap along the last axis, from
    the last node's G, g_prev (that axis of length 1), with step added to
    each previous node's G where given; and whether each node's step of G
    exceeds _CONT_STEP.  The winding integers are the running sums of the
    rounded phase steps."""
    before = np.concatenate((g_prev, principal[..., :-1]), axis=-1)
    if step is not None:
        before += step
    k = np.rint((before.imag - principal.imag) / _TWO_PI).cumsum(axis=-1)
    g = principal.copy()
    g.imag += _TWO_PI * k
    before = np.concatenate((g_prev, g[..., :-1]), axis=-1)
    if step is not None:
        before += step
    return g, np.abs(g - before) > _CONT_STEP


class BranchPath(_Walk):
    """One horizontal ray Im s = t, and the queries it answers.

    t is the snapped height |t|; conjugate marks a ray requested at t < 0.
    The path holds the ray and its window and keeps no nodes:
    eval_log and winding answer anywhere on [sigma_end, infinity), each
    query one walk (_march) at the caller's precision prec.  A pin needs
    the phase of zeta, which an absolute error near |zeta| destroys next to
    a zero, so a midpoint the walk inserts is evaluated at walk_prec, prec
    or the default, whichever is finer.
    """

    def __init__(self, t: float, sigma_end: float, conjugate: bool,
                 prec: EvalPrecision, store: ZeroStore):
        super().__init__(1j * t, 1.0, _Ray(t),
                         min(prec, DEFAULT_PRECISION, key=lambda p: p.abs_err))
        self.t, self.sigma_end, self.conjugate = t, sigma_end, conjugate
        self.prec = prec
        lo = int(np.searchsorted(store.gammas, t - _WINDOW))
        hi = int(np.searchsorted(store.gammas, t + _WINDOW, side="right"))
        rows = [(-1.0, 1.0, 0.0)] if t <= _WINDOW else []
        rows += [(1.0, z.beta, z.gamma) for z in map(store.record,
                                                     range(lo, hi))]
        self.mu = np.array([mu for mu, _, _ in rows])
        self.rel = np.array([complex(-beta, t - gamma)
                             for _, beta, gamma in rows], dtype=np.complex128)

    def _query(self, alpha) -> tuple[np.ndarray, ...]:
        """_march on this ray alone at the abscissae alpha, flattened, once
        each is checked finite and >= sigma_end; no abscissae are answered
        with empty arrays and no zeta pass."""
        if np.ndim(alpha) == 0:
            xs = np.array([_real(alpha, "alpha", self.sigma_end)])
        else:
            xs = np.ravel(np.asarray(alpha, dtype=np.float64))
            if xs.size == 0:
                return xs + 0j, xs, xs.astype(int), np.empty((self.mu.size, 0))
            for end in (xs.min(), xs.max()):
                _real(end, "alpha", self.sigma_end)
        vals, rems, k, (terms,) = _march([self], xs)
        return vals[0], rems[0], k[0], terms

    def winding(self, alpha):
        """The winding integer at alpha, a float or an array (same shape)."""
        _, _, k, _ = self._query(alpha)
        return int(k[0]) if np.ndim(alpha) == 0 else k.reshape(np.shape(alpha))

    def eval_log(self, alpha):
        """log zeta(alpha + it) on the branch, with an error estimate.

        alpha is a float, answered with (complex, float), or an array,
        answered with two arrays of its shape; an array takes one
        Euler-Maclaurin pass for all its abscissae.
        """
        out, est = _log_with_err(*self._query(alpha)[:3])
        if self.conjugate:
            out = out.conjugate()
        if np.ndim(alpha) == 0:
            return complex(out[0]), float(est[0])
        return out.reshape(np.shape(alpha)), est.reshape(np.shape(alpha))


def _log_with_err(vals, rems, k) -> tuple[np.ndarray, np.ndarray]:
    """log zeta = principal log of the zeta values + 2 pi i k, and its error
    estimate rem/|zeta| + 1e-15 (1 + |log zeta|); vals, rems and k are
    arrays of one shape, as _march answers them.  cmath.log, not np.log:
    near |zeta| = 1 numpy's complex log loses the last bits that cmath's
    log1p branch keeps, so the values go to Python complex numbers once."""
    out = np.array([cmath.log(v) for v in vals.ravel().tolist()]
                   ).reshape(vals.shape) + 2j * math.pi * k
    return out, rems / np.abs(vals) + 1e-15 * (1.0 + np.abs(out))


def _march(paths: list[BranchPath], xs: np.ndarray) -> tuple:
    """zeta at the abscissae xs (an array) on each ray of paths, their
    remainder bounds, their winding integers and each ray's window log
    terms there, a row per term: three arrays of a row per ray and a list
    of a terms array per ray, from one walk down every ray.  The rays
    share one prec.

    zeta is evaluated at xs and at the _RAY_GRID nodes right of min(xs) in
    one pass at that prec, on the ray's own line for one ray and on a
    zeta._Ray over all their heights for more, each height at its own
    cutoff.  Ray by ray, a value of exactly 0 at xs is refused first, then
    an abscissa whose remainder reaches |zeta|/2, before any pin: the phase
    of such a value, and the pin with it, is noise.  Below it the error of
    its logarithm is under log 2 < _CONT_STEP, so the pin converges.  A grid
    node whose bound reaches |zeta|/2 is left out of its ray's walk.  The
    nodes left of SIGMA_START are then pinned in descending order, from the
    principal value at SIGMA_START; from there right the winding is 0, and
    a query there walks nothing.  One unwrap pins every ray's row; a ray
    with a noise grid node or a step of G above _CONT_STEP is pinned by its
    own _Walk.pin instead, which leaves those nodes out and inserts
    midpoints.  Each walk's nodes, midpoints included, count against
    _WALK_BUDGET from 0.
    """
    n = xs.size
    nodes = np.concatenate((xs, _RAY_GRID[_RAY_GRID > xs.min()]))
    for path in paths:
        path.nodes = 0
        if nodes.size > n:
            path.spend(nodes.size, float(xs.min()))
    line = (paths[0].line if len(paths) == 1
            else _Ray(np.array([p.t for p in paths])))
    vals, rems = _zeta_em(line, nodes, paths[0].prec)
    vals, rems = (np.asarray(x).T.reshape(len(paths), -1)
                  for x in (vals, rems))
    noise = rems >= 0.5 * np.abs(vals)
    for path, row, bad, rem in zip(paths, vals, noise, rems):
        path.refuse_zero(xs, row[:n])
        if bad[:n].any():
            j = int(np.argmax(bad))
            s = complex(xs[j], -path.t if path.conjugate else path.t)
            raise NearSingularity(
                f"|zeta({s})| = {abs(row[j]):.3g} is within its error "
                f"bound {rem[j]:.3g} at abs_err={path.prec.abs_err:g}",
                where=s)
    terms = [np.log(np.add.outer(p.rel, nodes)) for p in paths]
    k = np.zeros(vals.shape, dtype=np.int64)
    if nodes.size > n:
        # The grid starts at SIGMA_START, never noise: there |zeta| >=
        # zeta(2.5) / zeta(1.25) > 0.29.  A noise node's value, left out
        # of its walk, is replaced by 1 before the logarithm.
        principal = np.log(np.where(noise, 1.0, vals)) - np.array(
            [p.mu @ rows for p, rows in zip(paths, terms)])
        walk = np.flatnonzero(nodes < SIGMA_START)
        walk = walk[np.argsort(-nodes[walk])]
        g, far = _unwrap(principal[:, n:n + 1], principal[:, walk])
        k[:, walk] = np.rint((g.imag - principal[:, walk].imag) / _TWO_PI)
        alone = far.any(axis=1) | noise[:, walk].any(axis=1)
        for i in np.flatnonzero(alone).tolist():
            path, own = paths[i], walk[~noise[i, walk]]
            path.x_prev, path.g_prev = SIGMA_START, complex(principal[i, n])
            g = path.pin(nodes[own], principal[i, own], 0)
            k[i, own] = np.rint((g.imag - principal[i, own].imag) / _TWO_PI)
    return vals[:, :n], rems[:, :n], k[:, :n], [x[:, :n] for x in terms]


def _window_rows(paths: list[BranchPath]) -> tuple[np.ndarray, np.ndarray]:
    """The rays' window rows (mu, rel) as two arrays of a row per ray,
    padded to one count with rows of weight 0 at rel = i, whose log terms
    are finite on every ray and add nothing."""
    mu = np.zeros((len(paths), max(p.mu.size for p in paths)))
    rel = np.full(mu.shape, 1j)
    for i, p in enumerate(paths):
        mu[i, :p.mu.size], rel[i, :p.mu.size] = p.mu, p.rel
    return mu, rel


def _log_less_model(paths: list[BranchPath],
                    xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G = log zeta - model at the abscissae xs (a flat array) on every ray
    of paths, the model being a ray's window log terms sum mu Log(rel + x)
    that its pin subtracts, and G's error bounds: two arrays of a row per
    ray from one _march of them all, each row with the bits of the ray's
    own walk.  A row is _log_with_err's values and bounds less the model
    that the walk formed, whose rounding adds 1e-15 (1 + |Log|) per term,
    G conjugated, the model with it, on a conjugate ray.  The rays share
    one prec."""
    vals, rems, k, terms = _march(paths, xs)
    g, est = _log_with_err(vals, rems, k)
    for i, (path, rows) in enumerate(zip(paths, terms)):
        g[i] -= path.mu @ rows
        est[i] += 1e-15 * (np.abs(path.mu) @ (1.0 + np.abs(rows)))
        if path.conjugate:
            g[i] = g[i].conjugate()
    return g, est


def branch_path(t: float, sigma_end: float,
                prec: EvalPrecision = DEFAULT_PRECISION,
                store: ZeroStore | None = None) -> BranchPath:
    """Prepare the ray at height t down to sigma_end >= -1 for repeated
    queries: its snapped height and window, and no zeta pass.  Only a ray
    that ends left of SIGMA_START may walk, and only it needs the zero table
    up to |t|; right of it no zero enters the answer.  Every ray refuses
    |t| above zeta's limit, 1e10, the table's refusal first, and then a
    prec that zeta would take to extended precision at its height.
    """
    store = store_or_builtin(store)
    t = _real(t, "t")
    sigma_end = _real(sigma_end, "sigma_end", -1.0)
    if sigma_end < SIGMA_START:
        store.require_height(abs(t), "branch_path", t=t)
    _check_height(t)
    conjugate = t < 0.0
    # An ordinate is approached from below; for the reflected ray this
    # conjugates into approach from above, matching the convention at
    # negative ordinates.  Exact zeros on the ray (sigma_end below a zero's
    # beta at this height) are fine -- the ray passes at vertical distance
    # >= the snap offset.
    t = store.snap(abs(t))
    _check_doubles(t, prec.abs_err)
    return BranchPath(t, sigma_end, conjugate, prec, store)


_ONE_UP = math.nextafter(1.0, 2.0)


def _log_regular_real(alpha: np.ndarray,
                      prec: EvalPrecision) -> tuple[np.ndarray, np.ndarray]:
    """h(a) = log((a-1) zeta(a)), log zeta less the pole's row, at the
    abscissae alpha and its error bounds, as arrays of alpha's shape: one
    zeta pass on the real axis.

    A node that rounds onto a = 1 (a panel [sigma, 1] narrower than about
    3e-14) is taken one ulp up, which moves h by about 0.58 ulp, inside
    the 1e-15 every bound carries.
    """
    a = np.where(alpha == 1.0, _ONE_UP, alpha).ravel()
    vals, rems = _zeta_em(_Ray(0.0), a, prec)
    x = np.asarray(vals).real
    h = np.log(x * (a - 1.0))
    est = np.asarray(rems) / np.abs(x) + 1e-15
    return h.reshape(alpha.shape), est.reshape(alpha.shape)


def log_zeta_with_err(s, prec: EvalPrecision = DEFAULT_PRECISION,
                      store: ZeroStore | None = None) -> tuple[complex, float]:
    """log zeta(s) on the branch, plus an absolute error estimate: on the
    real axis h(sigma) - Log(sigma - 1 + 0i), the error of h plus 1e-15
    (1 + |log zeta|), and off it its ray's eval_log."""
    z = _point(s)
    _real(z.real, "sigma", -1.0)
    if abs(z - 1.0) <= _POLE_RADIUS:
        raise OnSingularity("log zeta has a logarithmic singularity at s = 1")
    store = store_or_builtin(store)
    if store.zero_distance(z) <= 1e-12:
        raise OnSingularity(f"s={s} sits on a zero of the table")
    if z.imag == 0.0:
        h, est = _log_regular_real(np.array([z.real]), prec)
        val = complex(h[0]) - cmath.log(complex(z.real - 1.0, 0.0))
        return val, float(est[0]) + 1e-15 * (1.0 + abs(val))
    return branch_path(z.imag, z.real, prec, store).eval_log(z.real)


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
