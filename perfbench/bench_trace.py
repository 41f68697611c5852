"""Per-layer tracing of the zeta_eta package from outside its source.

A Tracer replaces the functions at each layer boundary with timing
wrappers, in every module of the package that binds them, and puts the
originals back on uninstall.  Nothing under src/ is edited.

Spans are aggregated in memory as they close: per (parent, function) the
call count, total and self time, where self time is a span's duration
minus the part its child spans cover.  Work counts (zeta evaluations,
Euler-Maclaurin terms, quadrature panels, ...) are taken at the same
boundaries from the arguments and results of the wrapped calls.
"""

from __future__ import annotations

import functools
import importlib
import math
from bench_speed import busy_clock

LAYERS = ("zeta", "branch", "quadrature", "eta", "approx", "kernels",
          "zeros", "distribution", "cli")

# Functions that get a span, per layer module: each layer's public functions
# and the private ones another layer calls or a work count is read from.
# The whole public surface is listed, not only what the workloads call
# today, so that time stays attributed when a later change routes calls
# differently.  A name the package no longer has is skipped and reported.
SPANNED = {
    "zeta": ["zeta", "zeta_log_deriv", "_zeta_em", "_euler_maclaurin",
             "log_gamma", "theta", "hardy_z"],
    "branch": ["log_zeta_with_err", "log_zeta", "branch_path", "_march",
               "big_s"],
    "quadrature": ["integrate_adaptive", "_panel", "integrate_fixed"],
    "eta": ["eta_vertical", "eta_iterated", "route_check", "c_m",
            "c_m_with_err", "_c_m_cached", "zero_sum_polynomial", "s_m"],
    "approx": ["residual", "dirichlet_poly", "p_f", "y_m", "relzz_decompose",
               "von_mangoldt", "w_x", "lambda_x", "lambda_prime_x",
               "_lambda_table", "_prime_mask", "_check_sieve_range"],
    "kernels": ["u_m_eval", "e_star", "make_kernel", "u_f_h", "v_f_h",
                "boundary_derivative"],
    "zeros": ["builtin_store", "load_zeros", "rvmf_check", "count_window",
              "sigma_xt", "inject_hypothetical"],
    "distribution": ["measure_t_m", "moment_residual", "tail_table",
                     "measure_sigma", "gaussian_tail", "_samples"],
    "cli": ["main", "cmd_zeros_import", "cmd_eval", "cmd_residual_scan",
            "cmd_dist", "_emit", "_load_store"],
}

# Methods wrapped at class level: (layer module, class, method names).
SPANNED_METHODS = [
    ("branch", "BranchPath", ["eval_log"]),
    ("eta", "_Sweep", ["eval"]),
    ("zeros", "ZeroStore", ["count_below", "count_window", "nearest_gamma",
                            "zero_distance", "lorentz_sum", "record",
                            "sigma_xt", "inject_hypothetical", "dump_csv"]),
]

# Functions that are only counted (no span): they are called too often for
# a span to be cheap, and their time stays with the calling span.
COUNTED = [("zeta", "_needs_extended"), ("kernels", "betainc")]

COUNTS = ["zeta.evals", "zeta.em_passes", "zeta.em_terms", "zeta.extended",
          "branch.marches", "branch.march_evals",
          "quadrature.integrals", "quadrature.panels",
          "eta.sweep_evals", "eta.c_m_hits", "eta.c_m_misses",
          "approx.poly_calls", "approx.poly_terms", "approx.cdf_calls",
          "kernels.u_m_calls", "kernels.e_star_calls",
          "zeros.queries", "distribution.samples"]

_MARK = "__perfbench_wrapper__"


def package_modules() -> list:
    """The package object and every zeta_eta submodule there is, imported."""
    mods = [importlib.import_module("zeta_eta")]
    for layer in LAYERS + ("errors", "precision"):
        mod = _layer_module(layer)
        if mod is not None:
            mods.append(mod)
    return mods


def _layer_module(layer: str):
    # zeta_eta.zeta is the function; the module lives in sys.modules.
    try:
        return importlib.import_module(f"zeta_eta.{layer}")
    except ModuleNotFoundError:
        return None


def wrapped_bindings() -> list[str]:
    """Names of package bindings that still hold a tracing wrapper."""
    found = []
    for mod in package_modules():
        for name, val in vars(mod).items():
            if getattr(val, _MARK, False):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(val, type):
                for attr, meth in vars(val).items():
                    if getattr(meth, _MARK, False):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found


class Tracer:
    """Install with `with Tracer() as tr:`; read tr.metrics() afterwards."""

    def __init__(self):
        self.stack: list[list] = []     # [qualname, start, child_time]
        self.calls: dict[tuple[str, str], list] = {}   # (parent, fn) -> [n, total, self]
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        self.counts = {name: 0 for name in COUNTS}
        self.emit_s = 0.0
        self._restore: list[tuple[object, str, object]] = []
        self._c_m = None                 # eta's lru-cached c_m, if present
        self._c_m_base = (0, 0)          # cache_info (hits, misses) at install
        self._c_m_banked = [0, 0]        # counted before a cache_clear
        self._poly_terms_cache: dict[int, int] = {}
        self.missing: list[str] = []     # listed names the package lacks
        self.hook_errors: dict[str, str] = {}

    # -- install / uninstall -----------------------------------------------

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self) -> None:
        if wrapped_bindings():
            raise RuntimeError("tracing wrappers are already installed")
        mods = package_modules()
        self._c_m = _c_m_cache()
        if self._c_m is not None:
            info = self._c_m.cache_info()
            self._c_m_base = (info.hits, info.misses)
        for layer, names in SPANNED.items():
            mod = _layer_module(layer)
            for name in names:
                fn = self._lookup(vars(mod) if mod else {}, f"{layer}.{name}",
                                  name)
                if fn is not None:
                    self._rebind(mods, fn, self._span(layer, name, fn))
        for layer, name in COUNTED:
            mod = _layer_module(layer)
            fn = self._lookup(vars(mod) if mod else {}, f"{layer}.{name}", name)
            if fn is not None:
                self._rebind(mods, fn, self._counter(name, fn))
        for layer, cls_name, meths in SPANNED_METHODS:
            cls = getattr(_layer_module(layer), cls_name, None)
            for meth in meths:
                qual = f"{cls_name}.{meth}"
                orig = self._lookup(vars(cls) if cls else {}, f"{layer}.{qual}",
                                    meth)
                if orig is not None:
                    self._restore.append((cls, meth, orig))
                    setattr(cls, meth, self._span(layer, qual, orig))

    def _lookup(self, namespace: dict, qual: str, name: str):
        fn = namespace.get(name)
        if not callable(fn):
            self.missing.append(qual)
            return None
        return None if getattr(fn, _MARK, False) else fn

    def _rebind(self, mods, orig, wrapper) -> None:
        """Point every package binding of `orig` at `wrapper`."""
        for mod in mods:
            for name, val in list(vars(mod).items()):
                if val is orig:
                    self._restore.append((mod, name, orig))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()
        left = wrapped_bindings()
        if left:
            raise RuntimeError(f"tracing wrappers left behind: {left}")

    # -- wrappers ------------------------------------------------------------

    def _span(self, layer: str, name: str, fn):
        qual = f"{layer}.{name}"
        stack = self.stack
        on_exit = self._count_hook(qual)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [qual, busy_clock(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = busy_clock() - frame[1]
                stack.pop()
                self_t = dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                key = (parent[0] if parent else "-", qual)
                rec = self.calls.get(key)
                if rec is None:
                    rec = self.calls[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += self_t
                self.layer_self[layer] += self_t
                if qual == "cli._emit":
                    self.emit_s += dur
            if on_exit is not None:
                try:
                    on_exit(parent, args, out)
                except (AttributeError, IndexError, TypeError, ValueError) as exc:
                    # the call's signature changed; the count is then missing
                    self.hook_errors[qual] = repr(exc)
            return out

        setattr(wrapper, _MARK, True)
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        if name == "_needs_extended":
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                if out:
                    counts["zeta.extended"] += 1
                return out
        else:                                   # kernels.betainc
            def wrapper(*args, **kwargs):
                counts["approx.cdf_calls"] += 1
                return fn(*args, **kwargs)
        setattr(wrapper, _MARK, True)
        return wrapper

    def _count_hook(self, qual: str):
        c = self.counts

        def bump(key):
            def hook(parent, args, out):
                c[key] += 1
            return hook

        if qual == "zeta._zeta_em":
            def hook(parent, args, out):
                c["zeta.evals"] += 1
                if parent is not None and parent[0] == "branch._march":
                    c["branch.march_evals"] += 1
            return hook
        if qual == "zeta._euler_maclaurin":
            def hook(parent, args, out):
                c["zeta.em_passes"] += 1
                c["zeta.em_terms"] += int(args[1])
            return hook
        if qual in ("approx.dirichlet_poly", "approx.p_f"):
            def hook(parent, args, out):
                c["approx.poly_calls"] += 1
                c["approx.poly_terms"] += self._poly_terms(qual, args)
            return hook
        if qual == "distribution._samples":
            def hook(parent, args, out):
                c["distribution.samples"] += len(out)
            return hook
        simple = {"branch._march": "branch.marches",
                  "quadrature.integrate_adaptive": "quadrature.integrals",
                  "quadrature._panel": "quadrature.panels",
                  "eta._Sweep.eval": "eta.sweep_evals",
                  "kernels.u_m_eval": "kernels.u_m_calls",
                  "kernels.e_star": "kernels.e_star_calls"}
        if qual in simple:
            return bump(simple[qual])
        if qual.startswith("zeros.ZeroStore."):
            return bump("zeros.queries")
        return None

    def _poly_terms(self, qual: str, args) -> int:
        """Terms of the prime-power sum, computed from the call's inputs."""
        if qual == "approx.dirichlet_poly":
            key = args[1].n_max                             # prime powers
        else:
            key = -math.floor(float(args[1]) ** 2)          # primes <= X^2
        if key not in self._poly_terms_cache:
            self._poly_terms_cache[key] = _count_terms(key)
        return self._poly_terms_cache[key]

    def bank_c_m(self) -> None:
        """Add the c_m cache statistics since install or the last bank."""
        if self._c_m is None:
            return
        info = self._c_m.cache_info()
        self._c_m_banked[0] += info.hits - self._c_m_base[0]
        self._c_m_banked[1] += info.misses - self._c_m_base[1]
        self._c_m_base = (info.hits, info.misses)

    def clear_c_m(self) -> None:
        """Empty the c_m cache, keeping the statistics it had gathered
        (cache_clear zeroes them)."""
        self.bank_c_m()
        if self._c_m is not None:
            self._c_m.cache_clear()
        self._c_m_base = (0, 0)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and self times, read after uninstall."""
        self.bank_c_m()
        out = dict(self.counts)
        out["eta.c_m_hits"], out["eta.c_m_misses"] = self._c_m_banked
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self[layer]
        out["cli.emit_s"] = self.emit_s
        return out

    def table(self) -> list[tuple[str, str, int, float, float]]:
        """(parent, function, calls, total_s, self_s), largest self first."""
        rows = [(p, q, n, tot, slf) for (p, q), (n, tot, slf)
                in self.calls.items()]
        return sorted(rows, key=lambda r: -r[4])


def _count_terms(key: int) -> int:
    """Prime powers 2 <= n <= key (key > 0) or primes p <= -key (key <= 0),
    on a sieve of the benchmark's own."""
    import numpy as np
    limit = abs(key)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    primes = np.flatnonzero(mask)
    count = int(primes.size)
    if key > 0:
        for p in primes[primes <= math.isqrt(limit)]:
            q = int(p) * int(p)
            while q <= limit:
                count += 1
                q *= int(p)
    return count


def _c_m_cache():
    """eta's lru-cached c_m, unwrapped, or None if the package has none."""
    fn = getattr(_layer_module("eta"), "_c_m_cached", None)
    if getattr(fn, _MARK, False):
        fn = fn.__wrapped__
    return fn if hasattr(fn, "cache_clear") else None


def clear_cold_caches(tracer: Tracer | None = None) -> None:
    """Empty the cache a CLI user rebuilds on every invocation and that the
    benchmark does not build during set-up: the c_m memo."""
    if tracer is not None:
        tracer.clear_c_m()
    elif (c_m := _c_m_cache()) is not None:
        c_m.cache_clear()
