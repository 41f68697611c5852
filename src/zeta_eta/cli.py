"""Command-line front end: zero-table ingestion, point evaluation, residual
scans, and seeded distribution runs, with CSV output and a JSON mirror.

Exit codes are stable: 0 success, 1 numeric failure (budget exhaustion or
route disagreement), 2 I/O failure, 3 validation failure (bad arguments,
malformed tables, out-of-domain requests).  Every run's output embeds a
metadata record (all parameters, seed, store source, package version, no
timestamps) so reruns with the same arguments are byte-identical.

The zero-store cache lives in $ZETA_ETA_CACHE (default ~/.cache/zeta_eta);
`zeros-import` normalizes any accepted table into it, and later runs prefer
the cache over the bundled table unless --zeros points elsewhere.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .approx import (ApproxConfig, ResidualReport, _residual_point,
                     _residual_split, dirichlet_poly)
from .branch import log_zeta_with_err
from .distribution import (GridSpec, measure_t_m, moment_residual, tail_table)
from .errors import NumericalError, ValidationError, ZetaEtaError
from .eta import _vertical_many, eta_vertical, route_check
from .kernels import make_kernel
from .precision import DEFAULT_PRECISION, SCAN_PRECISION, EvalPrecision
from .zeros import builtin_store, load_zeros
from .zeta import zeta

#: residual-scan refuses t-grids with more points than this, and dist a
#: larger --count.
MAX_GRID_POINTS = 100_000


class _UsageError(ValidationError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code map."""

    def error(self, message):
        raise _UsageError(message)


def _cache_dir() -> str:
    return os.environ.get("ZETA_ETA_CACHE") or os.path.join(
        os.path.expanduser("~"), ".cache", "zeta_eta")


def _cache_file() -> str:
    return os.path.join(_cache_dir(), "zeros.csv")


def _load_store(args):
    if getattr(args, "zeros", None):
        return load_zeros(args.zeros, args.zeros_format)
    cached = _cache_file()
    if os.path.exists(cached):
        return load_zeros(cached, "csv")
    return builtin_store()


def _precision(args, default: EvalPrecision) -> EvalPrecision:
    if args.abs_err is None:
        return default
    return EvalPrecision(abs_err=args.abs_err)


def _parse_complex(text: str) -> complex:
    norm = text.strip().replace(" ", "").replace("i", "j").replace("I", "j")
    try:
        return complex(norm)
    except ValueError:
        raise ValidationError(f"cannot parse complex number {text!r}") \
            from None


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ValidationError(f"cannot parse number list {text!r}") from None


def _t_grid(t_from: float, t_to: float, t_step: float) -> list[float]:
    """residual-scan heights t_from, t_from + t_step, ... up to t_to.

    t accumulates by repeated addition, so a step that lands on t_to in
    exact arithmetic keeps t_to despite rounding (1e-12 slack).
    """
    t_end = t_to + 1e-12
    if not all(map(math.isfinite, (t_from, t_end, t_step))):
        raise _UsageError("--t-from, --t-to and --t-step must be finite")
    if t_step <= 0:
        raise _UsageError("--t-step must be positive")
    if t_to < t_from:
        raise _UsageError(f"--t-to {t_to!r} is below --t-from {t_from!r}")
    count = (t_end - t_from) / t_step + 1    # up to rounding
    if count > MAX_GRID_POINTS:
        raise _UsageError(f"the t-grid has {count:.3g} points, more than "
                          f"{MAX_GRID_POINTS}")
    ts = []
    t = t_from
    while t <= t_end and len(ts) <= count:    # one spare for rounding in t
        ts.append(t)
        if t + t_step == t:
            raise _UsageError(f"--t-step {t_step!r} is below the rounding "
                              f"of t = {t!r}")
        t += t_step
    return ts


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _line(*values) -> str:
    return ",".join(_fmt(v) for v in values)


def _emit(args, meta: dict, rows: list[dict]) -> None:
    """CSV (+ JSON mirror) to --out, or metadata-comment + CSV to stdout.
    The CSV columns are the first row's keys, in order."""
    header = list(rows[0])
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[h]) for h in header))
    csv_text = "\n".join(lines) + "\n"
    meta_json = json.dumps(meta, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
        with open(args.out + ".json", "w") as fh:
            json.dump({"metadata": meta, "rows": rows}, fh, sort_keys=True,
                      indent=1)
            fh.write("\n")
        print(f"wrote {len(rows)} rows to {args.out} (+ .json)")
    else:
        sys.stdout.write(f"# metadata: {meta_json}\n")
        sys.stdout.write(csv_text)


def _meta(store, command: str, **params) -> dict:
    params.update({"version": __version__, "store": store.source})
    return {"command": command, **params}


# --- commands ---------------------------------------------------------------------

def cmd_zeros_import(args) -> int:
    store = load_zeros(args.path, args.format)
    os.makedirs(_cache_dir(), exist_ok=True)
    with open(_cache_file(), "w") as fh:
        fh.write(store.dump_csv())
    print(f"imported {len(store)} zeros up to t={store.t_max:.6f} "
          f"-> {_cache_file()}")
    return 0


def cmd_eval(args) -> int:
    store = _load_store(args)
    prec = _precision(args, DEFAULT_PRECISION)
    what = args.what
    if what in ("zeta", "logzeta", "eta"):
        if args.s is None:
            raise _UsageError(f"eval {what} needs --s")
        s = _parse_complex(args.s)
    if what in ("eta", "s_m") and args.m is None:
        raise _UsageError(f"eval {what} needs --m")

    if what == "zeta":
        val = complex(zeta(s, prec))
        print(_line(val.real, val.imag, prec.abs_err))
        return 0
    if what == "logzeta":
        val, est = log_zeta_with_err(s, prec, store)
        print(_line(val.real, val.imag, est))
        return 0
    if what == "eta":
        if args.check_routes:
            chk = route_check(s, args.m, store, prec)
            for name in ("vertical", "iterated"):
                v = chk[name]
                print(f"{name}," + _line(v.value.real, v.value.imag,
                                         v.est_err))
            print(f"diff,{_fmt(chk['difference'])},tolerance,"
                  f"{_fmt(chk['tolerance'])},agree,{_fmt(chk['agree'])}")
            return 0 if chk["agree"] else 1
        v = eta_vertical(s, args.m, store, prec)
        print(_line(v.value.real, v.value.imag, v.est_err))
        return 0
    # s_m
    if args.t is None:
        raise _UsageError("eval s_m needs --t")
    ev = eta_vertical(complex(0.5, args.t), args.m, store, prec)
    print(_line(ev.value.imag / math.pi, 0.0, ev.est_err / math.pi))
    return 0


def _scan_row(rep: ResidualReport) -> dict:
    """One residual-scan CSV row, for the (t, X) of the report rep."""
    return {"t": rep.s.imag, "x": rep.cfg.X,
            "eta_re": rep.eta.real, "eta_im": rep.eta.imag,
            "poly_re": rep.poly.real, "poly_im": rep.poly.imag,
            "y_re": rep.y_m.real, "y_im": rep.y_m.imag,
            "r_re": rep.r_m.real, "r_im": rep.r_m.imag,
            "bound_esrm": rep.bound_esrm,
            "bound_esrm2": rep.bound_esrm2, "ratio": rep.ratio}


def cmd_residual_scan(args) -> int:
    store = _load_store(args)
    prec = _precision(args, SCAN_PRECISION)
    xs = _parse_floats(args.x_list)
    if not xs:
        raise _UsageError("--x-list is empty")
    ts = _t_grid(args.t_from, args.t_to, args.t_step)
    kernel = make_kernel(args.kernel,
                         args.kernel_d if args.kernel == "poly_bump" else None)

    cfgs = [ApproxConfig(m=args.m, X=x, H=args.h, kernel=kernel) for x in xs]
    # Every height is refused or accepted before the first eta.
    points = [_residual_point(complex(args.sigma, t), args.h, store)
              for t in ts]

    # eta_m does not depend on X: one evaluation serves the whole X-list,
    # every height's in one batch
    etas = _vertical_many(args.sigma, [z.imag for z in points], args.m,
                          store, prec)[0].tolist()

    # One polynomial per X, summed at every height and dropped before the
    # next X's is built; the rows go out t-major.
    columns = [[_scan_row(_residual_split(z, eta, poly, cfg, store))
                for z, eta, poly in zip(points, etas,
                                        dirichlet_poly(points, cfg))]
               for cfg in cfgs]
    rows = [row for per_t in zip(*columns) for row in per_t]
    meta = _meta(store, "residual-scan", m=args.m, x_list=xs, h=args.h,
                 kernel=kernel.name, sigma=args.sigma, t_from=args.t_from,
                 t_to=args.t_to, t_step=args.t_step, abs_err=prec.abs_err)
    _emit(args, meta, rows)
    return 0


def cmd_dist(args) -> int:
    if args.count > MAX_GRID_POINTS:
        raise _UsageError(f"--count {args.count} exceeds {MAX_GRID_POINTS}")
    store = _load_store(args)
    prec = _precision(args, SCAN_PRECISION)
    grid = GridSpec(count=args.count, scheme=args.scheme, seed=args.seed)
    common = dict(T=args.t_big, count=args.count, scheme=args.scheme,
                  seed=args.seed, abs_err=prec.abs_err)

    if args.sub == "tails":
        vs = _parse_floats(args.v_list)
        if not vs:
            raise _UsageError("--v-list is empty")
        rows = tail_table(args.t_big, vs, grid, store, prec)
        meta = _meta(store, "dist tails", v_list=vs, **common)
        _emit(args, meta, rows)
        return 0

    if args.sub == "tmeasure":
        est = measure_t_m(args.t_big, args.x, args.v, args.m, grid,
                          store=store, prec=prec)
        rows = [est.row(count_exceed=est.count_exceed)]
        meta = _meta(store, "dist tmeasure", x=args.x, v=args.v,
                     m=args.m, **common)
        _emit(args, meta, rows)
        return 0

    # moments
    row = moment_residual(args.t_big, args.x, args.m, args.k, grid,
                          store=store, prec=prec, sigma=args.sigma,
                          trial_c=args.c, interval=args.interval,
                          enforce_range=not args.waive_range)
    meta = _meta(store, "dist moments", x=args.x, m=args.m, k=args.k,
                 sigma=args.sigma, c=args.c, interval=args.interval,
                 waive_range=args.waive_range, **common)
    _emit(args, meta, [row])
    return 0


# --- parser -----------------------------------------------------------------------

@functools.cache
def _build_parser() -> _Parser:
    """The one parser, built on the first call (its 39 arguments took
    about 1.25 ms to add, some 4% of a residual-scan).  It binds no
    function: main runs the subcommand's cmd_ function, the subcommand's
    name with - as _, looked up in this module when it runs."""
    p = _Parser(prog="zeta-eta",
                description="branch-tracked log zeta, its iterated integrals,"
                            " polynomial approximations, and distribution"
                            " experiments")
    p.add_argument("--zeros", help="zero-table file (default: cache, then "
                                   "bundled table)")
    p.add_argument("--zeros-format", default="csv",
                   choices=["plain-ordinates", "csv"],
                   help="format of --zeros (default csv)")
    p.add_argument("--abs-err", type=float, default=None,
                   help="absolute error target (default 1e-10 for eval, "
                        "1e-8 for scans)")
    p.add_argument("--out", help="write CSV here plus a JSON mirror at "
                                 "<out>.json (default: stdout)")
    sub = p.add_subparsers(dest="command", required=True)

    z = sub.add_parser("zeros-import", help="validate a zero table and "
                                            "normalize it into the cache")
    z.add_argument("path")
    z.add_argument("--format", default="plain-ordinates",
                   choices=["plain-ordinates", "csv"])

    e = sub.add_parser("eval", help="single-point evaluation, prints "
                                    "re,im,est_err")
    e.add_argument("--what", required=True,
                   choices=["zeta", "logzeta", "eta", "s_m"])
    e.add_argument("--s", help="complex point, e.g. 0.5+20i")
    e.add_argument("--t", type=float, help="ordinate for s_m")
    e.add_argument("--m", type=int, help="iteration order")
    e.add_argument("--check-routes", action="store_true",
                   help="for eta: print both routes and their agreement")

    r = sub.add_parser("residual-scan", help="CSV of residual reports over "
                                             "a t-grid and X-list")
    r.add_argument("--m", type=int, required=True)
    r.add_argument("--x-list", required=True, help="comma-separated X values")
    r.add_argument("--h", type=float, default=1.0)
    r.add_argument("--kernel", default="poly_bump",
                   choices=["poly_bump", "tent"])
    r.add_argument("--kernel-d", type=int, default=4)
    r.add_argument("--sigma", type=float, default=0.5)
    r.add_argument("--t-from", type=float, required=True)
    r.add_argument("--t-to", type=float, required=True)
    r.add_argument("--t-step", type=float, required=True)

    d = sub.add_parser("dist", help="seeded distribution experiments")
    d.add_argument("sub", choices=["tails", "tmeasure", "moments"])
    d.add_argument("--t-big", type=float, required=True, metavar="T",
                   help="window is [T, 2T] (moments: [14, T] by default)")
    d.add_argument("--seed", type=int, required=True)
    d.add_argument("--count", type=int, default=1000)
    d.add_argument("--scheme", default="stratified-jitter",
                   choices=["uniform", "stratified-jitter", "seeded-random"])
    d.add_argument("--v-list", help="thresholds for tails")
    d.add_argument("--v", type=float, help="threshold for tmeasure")
    d.add_argument("--x", type=float, help="polynomial cutoff X")
    d.add_argument("--m", type=int, default=1)
    d.add_argument("--k", type=int, default=1, help="moment order")
    d.add_argument("--sigma", type=float, default=0.5)
    d.add_argument("--c", type=float, default=10.0,
                   help="trial constant for the moment majorant")
    d.add_argument("--interval", default="theorem",
                   choices=["theorem", "dyadic"])
    d.add_argument("--waive-range", action="store_true",
                   help="waive the X <= T^(1/(135k)) hypothesis (recorded)")
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "dist":
            if args.sub == "tails" and args.v_list is None:
                raise _UsageError("dist tails needs --v-list")
            if args.sub == "tmeasure" and (args.v is None or args.x is None):
                raise _UsageError("dist tmeasure needs --v and --x")
            if args.sub == "moments" and args.x is None:
                raise _UsageError("dist moments needs --x")
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ZetaEtaError as exc:          # any other library refusal
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
