"""Tests of the benchmark harness itself, at a tiny size.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

COUNT_UNITS = ("count", "count-computed")


@pytest.fixture(scope="module")
def runs():
    """One untraced and one traced tiny run of every workload."""
    out = {}
    for wl in ("points", "routes", "scan", "dist"):
        for trace in (False, True):
            out[wl, trace] = run.measure(wl, seed=5, seconds=0.0, trace=trace,
                                         tiny=True, setup_repeats=1)
    return out


def _printed_metrics(result, extras):
    last = run.report(result, extras).splitlines()[-1]
    return json.loads(last)


@pytest.mark.parametrize("wl", ["points", "routes", "scan", "dist"])
def test_every_metric_printed_with_unit(runs, wl):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        printed = _printed_metrics(*runs[wl, trace])
        assert set(printed) == {"correct", "attempted", "failed", "metrics"}
        assert printed["correct"] is True and printed["failed"] == 0
        assert printed["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in printed["metrics"].items()}
        assert got == want
        for m in printed["metrics"].values():
            assert isinstance(m["value"], (int, float))


def test_end_to_end_metrics_are_positive(runs):
    for wl in ("points", "routes", "scan", "dist"):
        result, _ = runs[wl, False]
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly(runs):
    """A second traced run with the fixture's seed gives the same counts."""
    again, _ = run.measure("points", seed=5, seconds=0.0, trace=True, tiny=True)
    counts = [{k: v["value"] for k, v in result["metrics"].items()
               if v["unit"] in COUNT_UNITS}
              for result in (runs["points", True][0], again)]
    assert counts[0] == counts[1]
    assert counts[0]["zeta.evals"] > 0 and counts[0]["kernels.u_m_calls"] > 0


def test_wrappers_removed_after_traced_run(runs):
    import bench_trace
    import zeta_eta
    zeta_mod = sys.modules["zeta_eta.zeta"]
    assert bench_trace.wrapped_bindings() == []
    assert zeta_eta.branch._zeta_em is zeta_mod._zeta_em
    assert zeta_eta.eta._zeta_em is zeta_mod._zeta_em
    assert zeta_eta.zeta is zeta_mod.zeta
    assert "__perfbench_wrapper__" not in vars(zeta_eta.eta._Sweep.eval)
    assert zeta_eta.eta._c_m_cached.cache_info is not None


def test_tracer_restores_on_error():
    import bench_trace
    import zeta_eta
    before = zeta_eta.log_zeta_with_err
    with pytest.raises(ZeroDivisionError):
        with bench_trace.Tracer():
            assert zeta_eta.log_zeta_with_err is not before
            1 / 0
    assert zeta_eta.log_zeta_with_err is before
    assert bench_trace.wrapped_bindings() == []


def test_traced_layers_reach_their_workloads(runs):
    def layer(wl):
        return {k: v["value"] for k, v in runs[wl, True][0]["metrics"].items()}
    routes, scan, dist = layer("routes"), layer("scan"), layer("dist")
    assert routes["eta.sweep_evals"] > 0 and routes["eta.c_m_misses"] > 0
    assert routes["branch.march_evals"] > 0
    assert scan["approx.cdf_calls"] > 0 and scan["approx.poly_terms"] > 0
    assert scan["cli.emit_s"] > 0
    assert dist["distribution.samples"] > 0 and dist["zeros.queries"] > 0


def test_tracer_skips_names_the_package_lacks(monkeypatch):
    import bench_trace
    import zeta_eta
    monkeypatch.delattr(zeta_eta.quadrature, "_panel")
    with bench_trace.Tracer() as tracer:
        pass
    assert tracer.missing == ["quadrature._panel"]
    assert bench_trace.wrapped_bindings() == []


def test_speed_timer_disarmed_after_runs(runs):
    import signal
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_busy_clock_leaves_samples_out():
    from time import perf_counter

    import bench_speed
    t0, b0 = perf_counter(), bench_speed.busy_clock()
    bench_speed.Probe().sample()
    assert bench_speed.busy_clock() - b0 < 0.1 * (perf_counter() - t0)
