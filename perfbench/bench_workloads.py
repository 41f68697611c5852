"""The benchmark's four workloads: seeded inputs, the calls they make, and
the correctness checks run on their outputs.

Every workload is a closed loop with one caller in one thread: an item is
started only after the previous one returned.  Inputs come in rounds of a
fixed composition (kinds, orders, strata of t), so runs with different
seeds do the same amount of work and differ only in the drawn values.

  points  single library calls scattered over the advertised domain
  routes  route_check, the two-route self-check behind eval --check-routes
  scan    residual-scan through cli.main, one invocation per seeded t-grid
  dist    dist tails / tmeasure / moments through cli.main, one seed each
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import math
import os

import numpy as np

import bench_trace

# Kernel of the default smoothing family poly_bump(4): 630 (x(1-x))^4.
_BUMP_NORM = 630
_BUMP_D = 4


def _lib():
    return importlib.import_module("zeta_eta")


def _finite(*values) -> bool:
    return all(math.isfinite(v.real) and math.isfinite(v.imag)
               for v in map(complex, values))


class Workload:
    name = ""
    needs_sieve = False
    cli = False
    trace_rounds = 1
    round_s = 1.0              # seconds per round at the defining commit

    def __init__(self, tiny: bool = False, tmp_dir: str = "."):
        self.tiny = tiny
        self.tmp_dir = tmp_dir
        self.tracer = None

    def setup_code(self) -> str:
        """Python source run in a fresh interpreter to measure set-up."""
        code = "import zeta_eta\nfrom zeta_eta import zeros\nzeros.builtin_store()\n"
        if self.cli:
            code += "import zeta_eta.cli\n"
        if self.needs_sieve:
            # The sieve is private; a package without it builds nothing here.
            code += ("from zeta_eta import approx\n"
                     "sieve = getattr(approx, '_lambda_table', None)\n"
                     "if sieve is not None:\n"
                     "    sieve(approx.SIEVE_LIMIT)\n")
        return code

    def prepare(self) -> None:
        """The same set-up, in this process, before the first item."""
        exec(self.setup_code(), {})

    def round(self, rng: np.random.Generator, k: int) -> list:
        raise NotImplementedError

    def run(self, item):
        """The timed call; returns what collect() needs."""
        raise NotImplementedError

    def collect(self, item, raw):
        """Untimed post-processing of one result (parse, digest)."""
        return raw

    def units(self, result) -> int:
        return 1

    def kind(self, item) -> str | None:
        """The call kind an item's latency is reported under, if any."""
        return None

    def validate(self, item, result) -> str | None:
        """Cheap per-item check; a message when the output is wrong."""
        return None

    def check(self, items: list, results: list) -> dict:
        """Reference checks after the timed region; returns extras."""
        return {}


# --- points -----------------------------------------------------------------

class Points(Workload):
    """Scattered single calls: zeta, log zeta, eta_vertical and U_m.

    A round gives each of the four call kinds about a quarter of its busy
    time, by the mean cost per call measured at the commit that defined the
    benchmark: eta_vertical 17.7 ms, log_zeta_with_err 2.7 ms, u_m_eval
    0.79 ms (mean over m = 0, 1, 2) and zeta 0.07 ms.  So a change to the
    layer behind any one kind moves items_per_s, and the per-kind latencies
    on the extras line show which kind moved.
    """

    name = "points"
    trace_rounds = 8
    round_s = 0.155
    CHECK_PER_KIND = 48        # values per kind that get an mpmath reference
    KIND_NAMES = {"zeta": "zeta", "logzeta": "log_zeta_with_err",
                  "eta": "eta_vertical", "u": "u_m_eval"}
    ROUND = ([("eta", 1), ("eta", 2)] + [("logzeta", 0)] * 13
             + [("u", 0), ("u", 1), ("u", 2)] * 15 + [("zeta", 0)] * 500)

    def round(self, rng, k):
        items = []
        for kind, m in self.ROUND:
            if kind in ("zeta", "logzeta"):
                s = complex(rng.uniform(-1.0, 3.0), rng.uniform(0.0, 2150.0))
            elif kind == "eta":
                s = complex(rng.uniform(0.5, 2.0), rng.uniform(15.0, 2000.0))
            else:
                r, phi = math.sqrt(rng.uniform()), rng.uniform(0.0, 2 * math.pi)
                s = complex(r * math.cos(phi), r * math.sin(phi))
            items.append((kind, m, s, k))
        return [items[i] for i in rng.permutation(len(items))]

    def kind(self, item):
        return self.KIND_NAMES[item[0]]

    def run(self, item):
        kind, m, s, _ = item
        lib = _lib()
        if kind == "zeta":
            return complex(lib.zeta(s)), lib.DEFAULT_PRECISION.abs_err
        if kind == "logzeta":
            return lib.log_zeta_with_err(s)
        if kind == "eta":
            v = lib.eta_vertical(s, m)
            return v.value, v.est_err
        return lib.u_m_eval(m, s), lib.DEFAULT_PRECISION.abs_err

    def validate(self, item, result):
        value, est = result
        if not (_finite(value) and math.isfinite(est) and est >= 0.0):
            return f"non-finite output {result!r}"
        return None

    def check(self, items, results):
        """mpmath at 30 digits for the first CHECK_PER_KIND values of zeta,
        log zeta and U_m each.

        A value is uncovered when its actual error exceeds the error the
        library claims: est_err for log zeta, the requested abs_err for
        zeta and U_m, which report none.  eta_vertical has no independent
        reference here; the routes workload checks it against eta_iterated.
        """
        import mpmath as mp
        checked = uncovered = uncovered_low = low = 0
        worst = 0.0
        gross = []
        cap = 8 if self.tiny else self.CHECK_PER_KIND
        seen = {"zeta": 0, "logzeta": 0, "u": 0}
        by_kind = {name: [0, 0] for name in seen}
        for item, res in zip(items, results):
            kind, m, s, _ = item
            if res is None or kind == "eta" or seen[kind] >= cap:
                continue
            seen[kind] += 1
            value, claimed = res
            with mp.workdps(30):
                if kind == "u":
                    ref = complex(_u_m_reference(mp, m, s))
                    err = abs(value - ref)
                else:
                    ref_z = mp.zeta(mp.mpc(s.real, s.imag))
                    if kind == "zeta":
                        ref = complex(ref_z)
                        err = abs(value - ref)
                    else:
                        ref_l = mp.log(ref_z)
                        d_re = float(value.real - ref_l.real)
                        d_im = float(mp.fmod(value.imag - ref_l.imag, 2 * mp.pi))
                        d_im -= 2 * math.pi * round(d_im / (2 * math.pi))
                        ref = complex(ref_l)
                        err = math.hypot(d_re, d_im)
            checked += 1
            bad = bool(err > claimed)
            uncovered += bad
            by_kind[kind][0] += 1
            by_kind[kind][1] += bad
            if kind != "u" and s.real < 0.5:
                low += 1
                uncovered_low += bad
            worst = max(worst, err / claimed)
            if err > 1e-6 * max(1.0, abs(ref)):
                gross.append(f"{kind} m={m} s={s!r}: error {err:.3e}")
        return {"checked": checked,
                "uncovered": uncovered,
                "uncovered_frac": uncovered / checked if checked else 0.0,
                "uncovered_sigma_lt_half": f"{uncovered_low}/{low}",
                "uncovered_by_kind": {self.KIND_NAMES[kind]: f"{bad}/{n}"
                                      for kind, (n, bad) in by_kind.items()},
                "worst_err_over_claimed": worst,
                "gross_errors": gross}


def _u_m_reference(mp, m: int, z: complex):
    """U_m(z) for poly_bump(4), H = 1, by mpmath quadrature of its definition
    with E*_{m+1}(w) = (-w)^m E_1(w) + sum_k C(m,k) (-w)^(m-k) Gamma(k, w)."""
    if z.imag == 0.0 and z.real <= 0.0:          # library's limit from below
        z = complex(z.real, -1e-9 * max(1.0, abs(z)))
    zz = mp.mpc(z.real, z.imag)

    def e_star(w):
        total = (-w) ** m * mp.e1(w)
        for k in range(1, m + 1):
            total += mp.binomial(m, k) * (-w) ** (m - k) * mp.gammainc(k, w)
        return total

    def f(tau):
        big_l = 1 + tau
        return (_BUMP_NORM * (tau * (1 - tau)) ** _BUMP_D
                * e_star(zz * big_l) / big_l ** m)

    return mp.quad(f, [0, 1]) / mp.factorial(m)


# --- routes -----------------------------------------------------------------

class Routes(Workload):
    """route_check at sigma in [1/2, 2], t in [15, 1000], m in {1, 2}.

    t and sigma are each cut into 16 strata.  The cells a run visits are
    fixed; the seed draws the point inside each cell.  Round k takes the
    t-strata a and 15 - a, a = ORDER[k mod 8]: a check costs about linearly
    in t, so every round costs about the same, and any run of whole rounds
    is balanced around the middle of the range.  sigma-stratum and m follow
    the t-stratum by a fixed rule, because the cost also depends on them
    (about 2x between sigma = 1/2 and sigma = 3/2).
    """

    name = "routes"
    trace_rounds = 2
    round_s = 4.0
    STRATA = 16
    ORDER = (7, 0, 3, 4, 1, 6, 2, 5)

    def t_range(self):
        return (15.0, 40.0) if self.tiny else (15.0, 1000.0)

    def round(self, rng, k):
        lo, hi = self.t_range()
        n = self.STRATA
        a = self.ORDER[k % len(self.ORDER)]
        items = []
        for stratum in (a, n - 1 - a):
            t = lo + (hi - lo) * (stratum + rng.uniform()) / n
            sig_stratum = (5 * stratum + 3 * (k // len(self.ORDER))) % n
            sigma = 0.5 + 1.5 * (sig_stratum + rng.uniform()) / n
            items.append((complex(sigma, t), 1 + stratum % 2))
        return items

    def run(self, item):
        s, m = item
        return _lib().route_check(s, m)

    def collect(self, item, raw):
        return {"agree": bool(raw["agree"]),
                "difference": float(raw["difference"]),
                "tolerance": float(raw["tolerance"])}

    def validate(self, item, result):
        if not result["agree"]:
            return (f"routes disagree at s={item[0]!r}, m={item[1]}: "
                    f"{result['difference']:.3e} > {result['tolerance']:.3e}")
        return None


# --- CLI workloads ------------------------------------------------------------

class _CliWorkload(Workload):
    cli = True
    needs_sieve = True

    @property
    def out(self) -> str:
        return os.path.join(self.tmp_dir, "out.csv")

    def run(self, item):
        argv = ["--out", self.out] + list(item[1])
        bench_trace.clear_cold_caches(self.tracer)
        cli = importlib.import_module("zeta_eta.cli")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        return code, err.getvalue()

    def collect(self, item, raw):
        code, err = raw
        if code != 0:
            return {"exit": code, "stderr": err.strip(), "rows": [],
                    "digest": None}
        with open(self.out, "rb") as fh:
            csv_bytes = fh.read()
        with open(self.out + ".json", "rb") as fh:
            json_bytes = fh.read()
        digest = hashlib.sha256(csv_bytes + b"\0" + json_bytes).hexdigest()
        rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
        return {"exit": 0, "rows": rows, "digest": digest}

    def validate(self, item, result):
        if result["exit"] != 0:
            return f"exit {result['exit']}: {result.get('stderr', '')}"
        return self.validate_rows(item, result["rows"])

    def validate_rows(self, item, rows):
        return None

    def check(self, items, results):
        """Invoke each command of the first round again with the same
        arguments; the output must be byte-identical."""
        digests = {}
        mismatched = []
        first = [(it, res) for it, res in zip(items, results) if it[2] == 0]
        for item, res in first:
            if res is None or res["exit"] != 0:
                continue
            again = self.collect(item, self.run(item))
            digests[item[0]] = res["digest"]
            if again["digest"] != res["digest"]:
                mismatched.append(item[0])
        return {"digests": digests, "not_byte_identical": mismatched}


class Scan(_CliWorkload):
    """residual-scan, m = 1, sigma = 1/2, X in {10, 100, 1000}, and a seeded
    3-point t-grid in [100, 1400] per invocation; an item is one CSV row."""

    name = "scan"
    trace_rounds = 3
    round_s = 1.05
    GRID = 3

    def x_list(self):
        return "10,100" if self.tiny else "10,100,1000"

    def round(self, rng, k):
        # Multiples of 1/8 make the grid steps land exactly on t_to.
        span = self.GRID - 1
        step = int(rng.integers(80, 400)) / 8.0
        t_from = int(rng.integers(800, int(8 * (1400.0 - span * step)) + 1)) / 8.0
        args = ["residual-scan", "--m", "1", "--x-list", self.x_list(),
                "--sigma", "0.5", "--t-from", repr(t_from),
                "--t-to", repr(t_from + span * step), "--t-step", repr(step)]
        return [("residual-scan", tuple(args), k)]

    def units(self, result):
        return max(1, len(result["rows"]))

    def validate_rows(self, item, rows):
        want = self.GRID * len(self.x_list().split(","))
        if len(rows) != want:
            return f"{len(rows)} rows, expected {want}"
        for row in rows:
            vals = {k: float(v) for k, v in row.items()}
            if not all(math.isfinite(v) for v in vals.values()):
                return f"non-finite row {row}"
            for part in ("re", "im"):
                if vals[f"r_{part}"] != (vals[f"eta_{part}"] - vals[f"poly_{part}"]
                                         - vals[f"y_{part}"]):
                    return f"r != eta - poly - y in row {row}"
        return None


class Dist(_CliWorkload):
    """dist tails (10^4 samples), tmeasure (X = 100, m = 1, 100 samples) and
    moments (X = 10, m = k = 1, waived range, 100 samples) at T = 1000, one
    seed per round."""

    name = "dist"
    trace_rounds = 1
    round_s = 3.85

    def round(self, rng, k):
        seed = str(int(rng.integers(0, 2 ** 31 - 1)))
        big_t, n_tails, n_meas, n_mom = (("30", "100", "100", "10") if self.tiny
                                         else ("1000", "10000", "100", "100"))
        common = ["--t-big", big_t, "--seed", seed]
        return [
            ("tails", tuple(["dist", "tails"] + common
                            + ["--count", n_tails, "--v-list", "0,0.5,1"]), k),
            ("tmeasure", tuple(["dist", "tmeasure"] + common
                               + ["--count", n_meas, "--x", "100", "--v", "0.5",
                                  "--m", "1"]), k),
            ("moments", tuple(["dist", "moments"] + common
                              + ["--count", n_mom, "--x", "10", "--m", "1",
                                 "--k", "1", "--waive-range"]), k),
        ]

    def validate_rows(self, item, rows):
        sub = item[0]
        want = 3 if sub == "tails" else 1
        if len(rows) != want:
            return f"{sub}: {len(rows)} rows, expected {want}"
        for row in rows:
            if sub == "moments":
                emp = float(row["empirical"])
                if not (math.isfinite(emp) and emp >= 0.0) \
                        or row["hypothesis_waived"] != "true":
                    return f"moments row {row}"
            elif not 0.0 <= float(row["fraction"]) <= 1.0:
                return f"{sub} fraction out of [0, 1]: {row}"
        return None


WORKLOADS = {w.name: w for w in (Points, Routes, Scan, Dist)}
