#!/usr/bin/env python3
"""How far two source trees' values lie apart, against their error estimates.

Each tree is imported in a subprocess of its own, which evaluates one fixed
seeded set of calls and hands back every value with its est_err:

  eta_vertical  m = 1, 2, 3 at sigma in [1/2, 2], t in [15, 2000]
  c_m           m = 1, 2, 3 at sigma in [-1/2, 2]
  eta_iterated  m = 1, 2 at sigma in [1/2, 2], t in [15, 600]
  log_zeta_with_err  at sigma in [-1, 3], t in [0, 2150]
  eta_iterated  m = 3 at sigma in [1/2, 2], t in [600, 2140]
  zeta          at sigma in [-1, 3], t in [0, 2150]
  dirichlet_poly  X = 1000, H = 1, m = 1 at sigma in [1/2, 2], t in [0, 2150]
  eta_vertical  m = 1 at sigma = 1/2, t in [1000, 2000], abs_err 1e-8
  log_zeta_with_err  at sigma in [-0.99, 3], t = 0
  p_f           X = 90 and 1000 at sigma = 1/2, t in [0, 2150]
  f_cdf         the poly bump's CDF, d = 1, 4, 10, 600 at x in [0, 1]
  zeta_log_deriv  at sigma in [-1, 3], t in [0, 2150]
  zeta_line     at sigma = 1/2, t in [1000, 2000], abs_err 1e-8

The m = 3 draws of eta_iterated come after the four lines above them:
they are where the iterated route's model pieces and panel integrals, each
about t^m in size, amplify a last-bit change most.  Each later line was
appended after the others, so every earlier draw keeps its seeded point.
The last eta_vertical draws are dist's line and precision, and the last
log_zeta_with_err draws the real axis, the limit from above; each is read
with its function's first draws.  The p_f draws sum the primes alone, up
to X^2: 8100 reads the sieve up to 8192, 10^6 the one up to 2 10^6.
The f_cdf draws are the weights of dirichlet_poly's terms, read where they
are made.  The zeta_line draws are dist's line and precision, all taken in
one call of zeta._zeta_line, the path of the distribution sampler, each
with its remainder bound as est_err.  zeta's est_err is the abs_err it was
asked for, as in the bench's points check; dirichlet_poly, p_f, f_cdf and
zeta_log_deriv have no estimate, so their est_err is 0 and any move reads
inf.

For each function the script prints the largest |new - old| and the
largest |new - old| / est_err three ways: against the old tree's est_err,
the new tree's, and the larger of the two.  The last is the honest reading
of a move to a coarser cutoff, whose est_err is larger: when both values
lie within their own est_err of the truth, it is at most 2.  The script
exits 1 when a call answers in one tree and is refused in the other:

    python tools/value_shift.py OLD_SRC NEW_SRC [--count N]

OLD_SRC and NEW_SRC are the src directories of the two trees (each holds
the zeta_eta package).  --count is the number of points per function and
order (default 8).
"""

import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np

SEED = 18
DIST_ABS_ERR = 1e-8     # the precision of dist's CLI on the line sigma = 1/2


def calls(count: int) -> list[tuple[str, int, complex, float | None]]:
    """(function, m, s, abs_err) for the fixed seeded set; s is real for
    c_m, m is X for p_f, m is d and s the real x for f_cdf, and abs_err
    None is the default precision."""
    rng = np.random.default_rng(SEED)
    out = []
    for m in (1, 2, 3):
        out += [("eta_vertical", m, complex(rng.uniform(0.5, 2.0),
                                            rng.uniform(15.0, 2000.0)))
                for _ in range(count)]
        out += [("c_m", m, complex(rng.uniform(-0.5, 2.0), 0.0))
                for _ in range(count)]
    for m in (1, 2):
        out += [("eta_iterated", m, complex(rng.uniform(0.5, 2.0),
                                            rng.uniform(15.0, 600.0)))
                for _ in range(count)]
    out += [("log_zeta_with_err", 0, complex(rng.uniform(-1.0, 3.0),
                                             rng.uniform(0.0, 2150.0)))
            for _ in range(count)]
    out += [("eta_iterated", 3, complex(rng.uniform(0.5, 2.0),
                                        rng.uniform(600.0, 2140.0)))
            for _ in range(count)]
    out += [("zeta", 0, complex(rng.uniform(-1.0, 3.0),
                                rng.uniform(0.0, 2150.0)))
            for _ in range(count)]
    out += [("dirichlet_poly", 1, complex(rng.uniform(0.5, 2.0),
                                          rng.uniform(0.0, 2150.0)))
            for _ in range(count)]
    out = [call + (None,) for call in out]
    out += [("eta_vertical", 1, complex(0.5, rng.uniform(1000.0, 2000.0)),
             DIST_ABS_ERR) for _ in range(count)]
    out += [("log_zeta_with_err", 0, complex(rng.uniform(-0.99, 3.0), 0.0),
             None) for _ in range(count)]
    out += [("p_f", X, complex(0.5, rng.uniform(0.0, 2150.0)), None)
            for X in (90, 1000) for _ in range(count)]
    out += [("f_cdf", d, complex(rng.uniform(0.0, 1.0), 0.0), None)
            for d in (1, 4, 10, 600) for _ in range(count)]
    out += [("zeta_log_deriv", 0, complex(rng.uniform(-1.0, 3.0),
                                          rng.uniform(0.0, 2150.0)), None)
            for _ in range(count)]
    out += [("zeta_line", 0, complex(0.5, rng.uniform(1000.0, 2000.0)),
             DIST_ABS_ERR) for _ in range(count)]
    return out


def evaluate(count: int) -> list:
    """[re, im, est_err] per call of the set, or the refusal's class name,
    from the zeta_eta package on sys.path."""
    import zeta_eta as lib
    from zeta_eta.zeta import _zeta_line
    todo = calls(count)
    out = []
    for name, m, s, abs_err in todo:
        if name == "zeta_line":
            out.append(None)            # filled below, all in one call
            continue
        prec = (lib.DEFAULT_PRECISION if abs_err is None
                else lib.EvalPrecision(abs_err=abs_err))
        try:
            if name == "c_m":
                val, est = lib.c_m_with_err(s.real, m)
            elif name == "log_zeta_with_err":
                val, est = lib.log_zeta_with_err(s)
            elif name == "zeta":
                val, est = lib.zeta(s), lib.DEFAULT_PRECISION.abs_err
            elif name == "dirichlet_poly":
                cfg = lib.ApproxConfig(m=m, X=1000.0, H=1.0)
                val, est = lib.dirichlet_poly(s, cfg), 0.0
            elif name == "p_f":
                val, est = lib.p_f(s, float(m)), 0.0
            elif name == "f_cdf":
                kernel = lib.make_kernel("poly_bump", m)
                val, est = complex(kernel.f_cdf(s.real)), 0.0
            elif name == "zeta_log_deriv":
                val, est = complex(lib.zeta_log_deriv(s)), 0.0
            else:
                got = getattr(lib, name)(s, m, prec=prec)
                val, est = got.value, got.est_err
        except lib.ZetaEtaError as exc:
            out.append(type(exc).__name__)
            continue
        out.append([val.real, val.imag, est])
    line = [j for j, call in enumerate(todo) if call[0] == "zeta_line"]
    try:
        vals, rems = _zeta_line(0.5, [todo[j][2].imag for j in line],
                                lib.EvalPrecision(abs_err=DIST_ABS_ERR))
        got = [[complex(v).real, complex(v).imag, float(r)]
               for v, r in zip(vals, rems)]
    except lib.ZetaEtaError as exc:
        got = [type(exc).__name__] * len(line)
    for j, answer in zip(line, got):
        out[j] = answer
    return out


def run_tree(src: str, count: int) -> list:
    """evaluate() in a fresh interpreter importing the package from src."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--values", "--count",
         str(count)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _ratio(delta: float, est: float) -> float:
    if est > 0:
        return delta / est
    return 0.0 if delta == 0 else math.inf


def shifts(count: int, old: list, new: list) -> dict:
    """Per function: calls compared, largest |delta|, largest |delta|/est_err
    against the old tree's est_err, the new tree's and the larger of them,
    and the calls answered in one tree only."""
    out = {}
    for (name, m, s, _), a, b in zip(calls(count), old, new):
        row = out.setdefault(name, {"calls": 0, "abs": 0.0, "rel_old": 0.0,
                                    "rel_new": 0.0, "rel_larger": 0.0,
                                    "mismatched": []})
        row["calls"] += 1
        if isinstance(a, str) or isinstance(b, str):
            if a != b:
                row["mismatched"].append(f"m={m} s={s!r}: {a} vs {b}")
            continue
        delta = math.hypot(b[0] - a[0], b[1] - a[1])
        row["abs"] = max(row["abs"], delta)
        row["rel_old"] = max(row["rel_old"], _ratio(delta, a[2]))
        row["rel_new"] = max(row["rel_new"], _ratio(delta, b[2]))
        row["rel_larger"] = max(row["rel_larger"],
                                _ratio(delta, max(a[2], b[2])))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src", nargs="?")
    ap.add_argument("new_src", nargs="?")
    ap.add_argument("--count", type=int, default=8)
    ap.add_argument("--values", action="store_true",
                    help="evaluate the set with the package on sys.path "
                         "and print it as JSON (the subprocess's side)")
    args = ap.parse_args(argv)
    if args.values:
        print(json.dumps(evaluate(args.count)))
        return 0
    if args.old_src is None or args.new_src is None:
        ap.error("OLD_SRC and NEW_SRC are required")
    old = run_tree(args.old_src, args.count)
    new = run_tree(args.new_src, args.count)
    failed = 0
    for name, row in shifts(args.count, old, new).items():
        print(f"{name}: {row['calls']} calls, largest |delta| "
              f"{row['abs']:.3e}, largest |delta|/est_err "
              f"{row['rel_old']:.4g} (old), {row['rel_new']:.4g} (new), "
              f"{row['rel_larger']:.4g} (larger)")
        for line in row["mismatched"]:
            print(f"  answered in one tree only: {line}")
        failed += len(row["mismatched"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
