"""Benchmark runner for the zeta_eta package.

    python3 perfbench/run.py --workload points --seed 1 --seconds 15 --trace 0

Runs one workload (points, routes, scan or dist; see bench_workloads.py)
from the checkout's src/ tree, checks its outputs, and prints as the last
line one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0  times the workload for --seconds seconds, tracing off, and
           reports the end-to-end metrics of BENCHMARK.json.
--trace 1  runs a fixed seeded item list twice, untraced and then traced,
           and reports the per-layer metrics plus the tracing overhead.

The lines before the result carry what the gate does not: the environment,
the tail latency with its sample count, per-subcommand times, the failed
and uncovered fractions, and the CLI output digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
# A fresh interpreter importing the package's dependencies, and its median
# wall time on the box that defined the benchmark (see README).
REFERENCE_CODE = "import numpy, scipy.special, mpmath"
REFERENCE_NOMINAL_S = 0.55
TRACING_NOTE = ("in-process timers only (perf_counter spans around package "
                "functions); system-wide tracing is not available here")


class SetupError(RuntimeError):
    pass


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "zeta_eta", "__init__.py")):
        raise SetupError(f"no package source at {SRC}/zeta_eta")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import zeta_eta
    where = os.path.dirname(os.path.abspath(zeta_eta.__file__))
    if where != os.path.join(SRC, "zeta_eta"):
        raise SetupError(f"zeta_eta imported from {where}, not from {SRC}")
    return zeta_eta


def _child_env(tmp_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # A path that does not exist: the CLI then uses the bundled zero table
    # and never reads a cache outside the checkout.
    env["ZETA_ETA_CACHE"] = os.path.join(tmp_dir, "no-cache")
    return env


def measure_setup(code: str, env: dict, repeats: int) -> dict:
    """Wall time of fresh interpreters that import and set up, then exit,
    each followed by a reference interpreter that imports only the
    package's dependencies (REFERENCE_CODE).  Start-up and imports do not
    follow the speed probe, but they do follow the reference, which is the
    same kind of work and which no change to the package can alter."""
    setup, ref = [], []
    for _ in range(repeats):
        for src, times in ((code, setup), (REFERENCE_CODE, ref)):
            t0 = perf_counter()
            proc = subprocess.run([sys.executable, "-c", src], cwd=ROOT,
                                  env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=120)
            times.append(perf_counter() - t0)
            if proc.returncode != 0:
                raise SetupError("set-up interpreter failed:\n"
                                 + proc.stderr.decode(errors="replace"))
    scaled = [s * REFERENCE_NOMINAL_S / r for s, r in zip(setup, ref)]
    return {"scaled": scaled, "raw": setup, "reference": ref}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str) -> dict:
    import mpmath
    import numpy
    import scipy
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    return {"commit": _commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "cpu_count": os.cpu_count(),
            "tracing": TRACING_NOTE, "why": why[workload],
            "predictions": "perfbench/README.md"}


# --- running items -------------------------------------------------------------

class Pass:
    """Items run in order by one caller, with per-item latency and errors.

    Items run inside `with probe:`, which samples the machine's speed every
    bench_speed.EVERY_S seconds; an item's latency leaves the samples out
    and is scaled by the speed of the samples during and around it.
    """

    def __init__(self, probe: "bench_speed.Probe"):
        from bench_speed import busy_clock
        self.clock = busy_clock
        self.probe = probe
        self.items, self.results, self.units = [], [], []
        self.raw, self.at_probe = [], []
        self.errors: dict[int, str] = {}

    def run_one(self, wl, item) -> None:
        idx = len(self.items)
        first = len(self.probe.durations)
        t0 = self.clock()
        try:
            raw = wl.run(item)
        except Exception as exc:     # a failed item must not stop the run
            dt = self.clock() - t0
            raw = None
            self.errors[idx] = f"{type(exc).__name__}: {exc}"
            print(traceback.format_exc(), file=sys.stderr)
        else:
            dt = self.clock() - t0
        at_probe = (first, len(self.probe.durations))
        result = None if raw is None else wl.collect(item, raw)
        units = wl.units(result) if result is not None else 1
        if result is not None:
            msg = wl.validate(item, result)
            if msg:
                self.errors[idx] = msg
        self.items.append(item)
        self.results.append(result)
        self.raw.append(dt)
        self.at_probe.append(at_probe)
        self.units.append(units)

    def finish(self) -> None:
        factors = [self.probe.factor(*span) for span in self.at_probe]
        self.scaled = [dt * f for dt, f in zip(self.raw, factors)]
        self.latency = [dt / u for dt, u in zip(self.scaled, self.units)]
        self.busy = sum(self.scaled)
        self.raw_busy = sum(self.raw)

    @property
    def done_units(self) -> int:
        return sum(u for i, u in enumerate(self.units) if i not in self.errors)


def timed_pass(wl, rng, seconds: float, probe) -> Pass:
    """The rounds that take about `seconds` at the commit that defined the
    benchmark (wl.round_s each).  Their number depends only on `seconds`,
    so every run, on every commit, measures the same design of work.  A
    run that overruns twice its time stops after the current round."""
    p = Pass(probe)
    t0 = perf_counter()
    with probe:
        for k in range(max(1, round(seconds / wl.round_s))):
            for item in wl.round(rng, k):
                p.run_one(wl, item)
            if perf_counter() - t0 > 2 * seconds:
                break
    p.finish()
    return p


def list_pass(wl, items, probe) -> Pass:
    p = Pass(probe)
    with probe:
        for item in items:
            p.run_one(wl, item)
    p.finish()
    return p


def tail(latencies: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it.  With
    fewer than 11 samples there is none, and the maximum stands in."""
    n = len(latencies)
    ordered = sorted(latencies)
    if n < 11:
        return {"value": ordered[-1], "percentile": 100.0, "samples": n,
                "rule": "maximum: fewer than 11 samples"}
    return {"value": ordered[n - 11], "percentile": round(100.0 * (n - 10) / n, 2),
            "samples": n}


def by_kind(wl, p: Pass) -> dict | None:
    """Calls, share of busy time, median and tail latency per call kind."""
    groups: dict[str, list[float]] = {}
    for item, dt in zip(p.items, p.latency):
        kind = wl.kind(item)
        if kind is not None:
            groups.setdefault(kind, []).append(dt)
    if not groups:
        return None
    return {kind: {"calls": len(v), "busy_share": sum(v) / p.busy,
                   "p50_s": statistics.median(v), "tail_s": tail(v)}
            for kind, v in sorted(groups.items())}


# --- the two kinds of run ------------------------------------------------------

def _assert_untraced(bench_trace) -> None:
    left = bench_trace.wrapped_bindings()
    if left:
        raise SetupError(f"tracing wrappers still installed: {left}")


def run_untraced(wl, rng, seconds, setup, probe, bench_trace) -> tuple[dict, dict]:
    _assert_untraced(bench_trace)
    p = timed_pass(wl, rng, seconds, probe)
    rss = _peak_rss_mb()
    extras = wl.check(p.items, p.results)
    failed = set(p.errors)
    for name in extras.get("not_byte_identical", []):
        failed.update(i for i, it in enumerate(p.items)
                      if it[0] == name and it[2] == 0)
    attempted = len(p.items)
    metrics = {
        "setup_s": {"value": statistics.median(setup["scaled"]), "unit": "s"},
        "items_per_s": {"value": p.done_units / p.busy, "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    extras.update({
        "item_p50_s": statistics.median(p.latency),
        "item_tail_s": tail(p.latency) if wl.name in ("points", "routes") else None,
        "by_kind": by_kind(wl, p),
        "units": sum(p.units),
        "failed_frac": len(failed) / attempted,
        "errors": sorted(set(p.errors.values()))[:10],
        "unscaled": {"busy_s": p.raw_busy,
                     "items_per_s": p.done_units / p.raw_busy,
                     "item_p50_s": statistics.median(
                         dt / u for dt, u in zip(p.raw, p.units)),
                     "setup_s": statistics.median(setup["raw"])},
        "speed_probe_s": probe.summary(),
        "setup_runs_s": setup,
    })
    if wl.cli:
        by_cmd: dict[str, list[float]] = {}
        for item, dt in zip(p.items, p.scaled):
            by_cmd.setdefault(item[0], []).append(dt)
        extras["invocation_s"] = {f"{cmd}_s": statistics.median(v)
                                  for cmd, v in by_cmd.items()}
        extras["all_digest"] = _digest_of(p.results)
    correct = not failed and not extras.get("gross_errors")
    return ({"correct": correct, "attempted": attempted, "failed": len(failed),
             "metrics": metrics}, extras)


def _digest_of(results) -> str:
    h = hashlib.sha256()
    for res in results:
        h.update(str(res and res.get("digest")).encode())
    return h.hexdigest()


def run_traced(wl, rng, probe, bench_trace) -> tuple[dict, dict]:
    rounds = 1 if wl.tiny else wl.trace_rounds
    items = [it for k in range(rounds) for it in wl.round(rng, k)]
    _assert_untraced(bench_trace)
    bench_trace.clear_cold_caches()
    plain = list_pass(wl, items, probe)
    bench_trace.clear_cold_caches()
    _assert_untraced(bench_trace)
    tracer = bench_trace.Tracer()
    wl.tracer = tracer
    try:
        with tracer:
            traced = list_pass(wl, items, probe)
    finally:
        wl.tracer = None
    _assert_untraced(bench_trace)

    failed = set(plain.errors) | set(traced.errors)
    changed = [i for i, (a, b) in enumerate(zip(plain.results, traced.results))
               if a != b]
    failed.update(changed)
    metrics = {name: {"value": value,
                      "unit": "s" if name.endswith("_s") else
                      ("count-computed" if name == "approx.poly_terms" else "count")}
               for name, value in tracer.metrics().items()}
    metrics["trace.untraced_s"] = {"value": plain.busy, "unit": "s"}
    metrics["trace.traced_s"] = {"value": traced.busy, "unit": "s"}
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (traced.busy - plain.busy) / plain.busy, "unit": "%"}
    extras = {"items": len(items), "changed_by_tracing": changed,
              "not_traced": tracer.missing, "count_errors": tracer.hook_errors,
              "errors": sorted(set(plain.errors.values())
                               | set(traced.errors.values()))[:10],
              "failed_frac": len(failed) / (2 * len(items)),
              "spans": [{"parent": p, "fn": q, "calls": n,
                         "total_s": round(tot, 6), "self_s": round(slf, 6)}
                        for p, q, n, tot, slf in tracer.table()[:40]]}
    return ({"correct": not failed, "attempted": 2 * len(items),
             "failed": len(failed), "metrics": metrics}, extras)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """One benchmark run; returns (result, extras)."""
    tmp_dir = os.path.join(ROOT, ".perfbench_tmp", f"run-{os.getpid()}")
    os.makedirs(tmp_dir, exist_ok=True)
    saved_cache = os.environ.get("ZETA_ETA_CACHE")
    try:
        env = _child_env(tmp_dir)
        os.environ["ZETA_ETA_CACHE"] = env["ZETA_ETA_CACHE"]
        _import_package()
        if HERE not in sys.path:
            sys.path.insert(0, HERE)
        import bench_speed
        import bench_trace
        import bench_workloads
        import numpy as np

        wl = bench_workloads.WORKLOADS[workload](tiny=tiny, tmp_dir=tmp_dir)
        probe = bench_speed.Probe()
        setup = (None if trace else
                 measure_setup(wl.setup_code(), env, setup_repeats))
        wl.prepare()
        rng = np.random.default_rng(seed)
        if trace:
            result, extras = run_traced(wl, rng, probe, bench_trace)
        else:
            result, extras = run_untraced(wl, rng, seconds, setup, probe,
                                          bench_trace)
        extras.update({"workload": workload, "seed": seed,
                       "environment": environment(workload)})
        return result, extras
    finally:
        if saved_cache is None:
            os.environ.pop("ZETA_ETA_CACHE", None)
        else:
            os.environ["ZETA_ETA_CACHE"] = saved_cache
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp_dir))
        except OSError:
            pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["points", "routes", "scan", "dist"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        result, extras = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(report(result, extras))
    return 0


def report(result: dict, extras: dict) -> str:
    """The extras line, then the result line the gate reads."""
    return ("# extras: " + json.dumps(extras, sort_keys=True, default=str)
            + "\n" + json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
