"""Value-distribution estimators: sampling grids, tail measures, moments."""

import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

from zeta_eta import distribution
from zeta_eta.distribution import (GridSpec, MeasureEstimate, _samples,
                                   gaussian_tail, measure_sigma, measure_t_m,
                                   moment_residual, tail_table)
from zeta_eta.errors import (BeyondSieve, BeyondTable, HypothesisViolated,
                             ValidationError)
from zeta_eta.precision import (DEFAULT_PRECISION, SCAN_PRECISION,
                                EvalPrecision)
from zeta_eta.zeta import zeta
from zeta_eta.zeros import ORDINATE_OFFSET, ZeroRecord, ZeroStore

_ZETA_MODULE = sys.modules["zeta_eta.zeta"]


def test_gaussian_tail_frozen():
    assert gaussian_tail(0.0) == 0.5
    assert gaussian_tail(1.0) == pytest.approx(0.15865525393145705, abs=1e-15)
    assert gaussian_tail(-1.0) == pytest.approx(1.0 - 0.15865525393145705,
                                                abs=1e-15)
    assert gaussian_tail(10.0) < 1e-20


def test_grid_spec_validation():
    GridSpec(count=100, scheme="uniform", seed=1)
    for bad in [dict(count=0, scheme="uniform", seed=1),
                dict(count=2.5, scheme="uniform", seed=1),
                dict(count=100, scheme="sobol", seed=1),
                dict(count=100, scheme="uniform", seed=1.5)]:
        with pytest.raises(ValidationError):
            GridSpec(**bad)


def test_samples_ranges_and_determinism(store):
    for scheme in ("uniform", "stratified-jitter", "seeded-random"):
        grid = GridSpec(count=137, scheme=scheme, seed=7)
        a = _samples(grid, 1000.0, 2000.0, store)
        b = _samples(grid, 1000.0, 2000.0, store)
        assert np.array_equal(a, b)
        assert len(a) == 137
        assert np.all(a >= 1000.0) and np.all(a <= 2000.0)
    # uniform midpoints are deterministic by construction
    grid = GridSpec(count=4, scheme="uniform", seed=0)
    got = _samples(grid, 1000.0, 2000.0, store)
    assert np.allclose(got, [1125.0, 1375.0, 1625.0, 1875.0])


def test_samples_nudged_off_ordinates():
    st = ZeroStore([ZeroRecord(20.0)], "test")
    grid = GridSpec(count=1, scheme="uniform", seed=0)
    got = _samples(grid, 19.5, 20.5, st)    # midpoint lands on the zero
    assert got[0] == 20.0 - ORDINATE_OFFSET


def test_measure_sigma_extremes_and_monotone(store):
    T = 1000.0
    grid = GridSpec(count=200, scheme="stratified-jitter", seed=11)
    low = measure_sigma(T, -10.0, grid, store)
    assert isinstance(low, MeasureEstimate)
    assert low.fraction >= 0.95
    high = measure_sigma(T, 10.0, grid, store)
    assert high.fraction == 0.0 and high.count_exceed == 0
    fr = [measure_sigma(T, v, grid, store).fraction for v in (0.0, 0.5, 1.0)]
    assert fr[0] >= fr[1] >= fr[2]


def test_measure_estimate_identities(store):
    T = 1000.0
    grid = GridSpec(count=150, scheme="seeded-random", seed=3)
    est = measure_sigma(T, 0.25, grid, store)
    assert est.count_exceed == round(est.fraction * 150)
    assert est.stderr == pytest.approx(
        math.sqrt(est.fraction * (1 - est.fraction) / 150), abs=1e-15)
    sd = math.sqrt(0.5 * math.log(math.log(T)))
    assert est.ref_gaussian == pytest.approx(gaussian_tail(0.25 / sd),
                                             abs=1e-15)
    # determinism: the same grid gives the identical estimate
    assert measure_sigma(T, 0.25, grid, store) == est


def test_measure_sigma_validation(store):
    small = GridSpec(count=50, scheme="uniform", seed=1)
    with pytest.raises(ValidationError):
        measure_sigma(1000.0, 0.0, small, store)        # count < 100
    big = GridSpec(count=100, scheme="uniform", seed=1)
    with pytest.raises(BeyondTable):
        measure_sigma(1100.0, 0.0, big, store)          # 2T above the table


@pytest.mark.parametrize("T", [2.0, math.e, 0.0, -5.0, math.nan, math.inf])
def test_estimators_refuse_t_at_most_e(store, T, monkeypatch):
    # refused before any sample is drawn
    import zeta_eta.distribution as dist

    def no_sampling(*args):
        raise AssertionError("sampled before refusing T")

    monkeypatch.setattr(dist, "_samples", no_sampling)
    grid = GridSpec(count=100, scheme="uniform", seed=1)
    with pytest.raises(ValidationError, match="T"):
        tail_table(T, [0.5], grid, store)
    with pytest.raises(ValidationError, match="T"):
        measure_sigma(T, 0.5, grid, store)
    with pytest.raises(ValidationError, match="T"):
        measure_t_m(T, 10.0, 0.5, 1, grid, store=store)
    with pytest.raises(ValidationError, match="T"):
        moment_residual(T, 10.0, 1, 1, grid, store=store,
                        enforce_range=False)


def test_measure_t_m_extremes_and_validation(store):
    T = 1000.0
    grid = GridSpec(count=100, scheme="uniform", seed=5)
    est = measure_t_m(T, 10.0, 0.0, 1, grid, store=store)
    assert est.fraction == 1.0          # |residual| > 0 everywhere
    est = measure_t_m(T, 10.0, 1e6, 1, grid, store=store)
    assert est.fraction == 0.0
    with pytest.raises(TypeError):                 # store is keyword-only
        measure_t_m(T, 10.0, 0.0, 1, grid, store)
    with pytest.raises(TypeError):
        moment_residual(T, 10.0, 1, 1, grid, store)
    with pytest.raises(ValidationError):
        measure_t_m(T, 10.0, 0.0, -1, grid, store=store)
    low_grid = GridSpec(count=100, scheme="uniform", seed=5)
    with pytest.raises(ValidationError):
        measure_t_m(10.0, 10.0, 0.0, 1, low_grid, store=store)   # T < 14


@pytest.mark.parametrize("X", [math.nan, math.inf, -5.0, 1.0, 1.99])
def test_residual_estimators_refuse_bad_x(store, X):
    grid = GridSpec(count=100, scheme="uniform", seed=1)
    with pytest.raises(ValidationError, match="X >= 2"):
        measure_t_m(100.0, X, 0.5, 1, grid, store=store)
    with pytest.raises(ValidationError, match="X >= 2"):
        moment_residual(100.0, X, 1, 1, grid, store=store,
                        enforce_range=False)


@pytest.mark.parametrize("X", [5e6, 1e200])
def test_residual_estimators_refuse_an_x_beyond_the_sieve_unsampled(
        store, monkeypatch, X):
    drawn = []

    def counting_samples(*args):
        drawn.append(args)
        return _samples(*args)

    monkeypatch.setattr(distribution, "_samples", counting_samples)
    grid = GridSpec(count=100, scheme="uniform", seed=1)
    named = re.escape(f"X={X!r} needs the sieve")
    with pytest.raises(BeyondSieve, match=named):
        measure_t_m(1000.0, X, 0.5, 1, grid, store=store)
    with pytest.raises(BeyondSieve, match=named):
        moment_residual(1000.0, X, 1, 1, grid, store=store,
                        enforce_range=False)
    assert drawn == []


@pytest.mark.parametrize("V", [math.nan, math.inf, -math.inf])
def test_estimators_refuse_non_finite_thresholds(store, V):
    grid = GridSpec(count=100, scheme="uniform", seed=1)
    with pytest.raises(ValidationError, match="threshold V"):
        tail_table(100.0, [0.5, V], grid, store)
    with pytest.raises(ValidationError, match="threshold V"):
        measure_t_m(100.0, 10.0, V, 1, grid, store=store)
    with pytest.raises(ValidationError, match="threshold V"):
        measure_sigma(100.0, V, grid, store)


@pytest.mark.parametrize("kw, name", [
    (dict(sigma=math.inf), "sigma"), (dict(sigma=math.nan), "sigma"),
    (dict(sigma=0.4), "sigma"), (dict(trial_c=-1.0), "trial_c"),
    (dict(trial_c=0.0), "trial_c"), (dict(trial_c=math.nan), "trial_c"),
    (dict(trial_c=math.inf), "trial_c"),
])
def test_moment_residual_refuses_bad_sigma_and_trial_c(store, kw, name):
    grid = GridSpec(count=10, scheme="uniform", seed=1)
    with pytest.raises(ValidationError, match=name):
        moment_residual(100.0, 10.0, 1, 1, grid, store=store,
                        enforce_range=False, **kw)


def test_measure_t_m_smallest_x(store):
    grid = GridSpec(count=100, scheme="uniform", seed=1)
    est = measure_t_m(50.0, 2.0, 0.0, 1, grid, store=store)
    assert est.fraction == 1.0
    assert measure_t_m(50.0, 2.5, 0.0, 1, grid, store=store).fraction == 1.0
    # Y_0(s, X) has radius 1/log X and needs X >= 3; X is never replaced
    for X in (2.0, 2.5, 2.99):
        with pytest.raises(ValidationError, match=r"m = 0.*X="):
            measure_t_m(50.0, X, 0.0, 0, grid, store=store)
    assert measure_t_m(50.0, 3.0, 0.0, 0, grid, store=store).fraction == 1.0


def test_moment_residual_range_guard_and_waiver(store):
    T = 1000.0
    grid = GridSpec(count=60, scheme="uniform", seed=2)
    with pytest.raises(HypothesisViolated):
        moment_residual(T, 10.0, 1, 1, grid, store=store)
    out = moment_residual(T, 10.0, 1, 1, grid, store=store,
                          enforce_range=False)
    assert out["hypothesis_waived"] is True
    assert out["interval"] == "theorem"
    assert math.isfinite(out["empirical"]) and out["empirical"] > 0.0
    assert math.isfinite(out["bound"]) and out["bound"] > 0.0
    # determinism
    again = moment_residual(T, 10.0, 1, 1, grid, store=store,
                            enforce_range=False)
    assert again == out


def test_moment_residual_decreases_in_x(store):
    T = 1000.0
    grid = GridSpec(count=60, scheme="uniform", seed=2)
    e10 = moment_residual(T, 10.0, 1, 1, grid, store=store,
                          enforce_range=False)["empirical"]
    e20 = moment_residual(T, 20.0, 1, 1, grid, store=store,
                          enforce_range=False)["empirical"]
    assert e20 < e10


def test_moment_residual_sigma_collapse(store):
    # off the line the residual shrinks fast (X^(1-2 sigma) scale)
    T = 1000.0
    grid = GridSpec(count=40, scheme="uniform", seed=9)
    on = moment_residual(T, 10.0, 1, 1, grid, store=store,
                         enforce_range=False)["empirical"]
    off = moment_residual(T, 10.0, 1, 1, grid, store=store, sigma=2.0,
                          enforce_range=False)["empirical"]
    assert off < 0.1 * on


def test_moment_residual_power_mean(store):
    # Cauchy-Schwarz on the sample: mean(r^4) >= (mean(r^2))^2
    T = 1000.0
    grid = GridSpec(count=40, scheme="uniform", seed=4)
    norm = (T - 14.0) / T
    e1 = moment_residual(T, 10.0, 1, 1, grid, store=store,
                         enforce_range=False)["empirical"] / norm
    e2 = moment_residual(T, 10.0, 1, 2, grid, store=store,
                         enforce_range=False)["empirical"] / norm
    assert e2 >= e1 * e1 - 1e-15


def test_moment_residual_dyadic_interval(store):
    T = 1000.0
    grid = GridSpec(count=40, scheme="uniform", seed=4)
    out = moment_residual(T, 10.0, 1, 1, grid, store=store,
                          enforce_range=False, interval="dyadic")
    assert out["interval"] == "dyadic"
    th = moment_residual(T, 10.0, 1, 1, grid, store=store,
                         enforce_range=False)
    assert out["empirical"] != th["empirical"]


def test_moment_residual_validation(store):
    T = 1000.0
    grid = GridSpec(count=40, scheme="uniform", seed=4)
    with pytest.raises(ValidationError):
        moment_residual(T, 10.0, 0, 1, grid, store=store,
                        enforce_range=False)             # m >= 1
    with pytest.raises(ValidationError):
        moment_residual(T, 10.0, 1, 0, grid, store=store,
                        enforce_range=False)             # k >= 1
    with pytest.raises(ValidationError):
        moment_residual(T, 10.0, 1, 1, grid, store=store,
                        enforce_range=False, sigma=0.4)
    with pytest.raises(ValidationError):
        moment_residual(T, 10.0, 1, 1, grid, store=store,
                        enforce_range=False, interval="weekly")
    low = GridSpec(count=40, scheme="uniform", seed=4)
    with pytest.raises(ValidationError):
        moment_residual(20.0, 10.0, 1, 1, low, store=store,
                        enforce_range=False)             # T >= 28
    tall = GridSpec(count=40, scheme="uniform", seed=4)
    with pytest.raises(BeyondTable):
        moment_residual(1200.0, 10.0, 1, 1, tall, store=store,
                        enforce_range=False, interval="dyadic")


@pytest.mark.parametrize("m, k, first", [
    (1, 42, True), (2, 31, True), (3, 26, True), (5, 19, True),
    (1, 60, False), (1, 200, False)])
def test_moment_majorant_past_a_double_is_refused_unsampled(store, monkeypatch,
                                                            m, k, first):
    # at X = 10 and T = 100 the majorant is inf from the first k on, one k
    # less it is finite; at k = 60 and 200 forming it raises OverflowError
    def no_samples(*args, **kwargs):
        raise AssertionError("drew samples before refusing")

    grid = GridSpec(count=5, scheme="uniform", seed=1)
    monkeypatch.setattr(distribution, "_residual_samples", no_samples)
    with pytest.raises(ValidationError, match=f"k={k}, m={m}"):
        moment_residual(100.0, 10.0, m, k, grid, store=store,
                        enforce_range=False)
    if first:
        monkeypatch.setattr(distribution, "_residual_samples",
                            lambda *args: np.ones(5))
        out = moment_residual(100.0, 10.0, m, k - 1, grid, store=store,
                              enforce_range=False)
        assert math.isfinite(out["bound"]) and out["empirical"] > 0.0


def test_tail_table_rows(store):
    T = 1000.0
    grid = GridSpec(count=400, scheme="stratified-jitter", seed=21)
    v_list = [0.0, 0.5, 1.0, 1.5]
    rows = tail_table(T, v_list, grid, store)
    assert [r["V"] for r in rows] == v_list
    llt = math.log(math.log(T))
    for r in rows:
        assert set(r) == {"V", "fraction", "stderr", "gaussian_ref",
                          "jutila_ref"}
        assert r["jutila_ref"] == pytest.approx(
            math.exp(-r["V"] ** 2 / llt), abs=1e-15)
    fracs = [r["fraction"] for r in rows]
    assert all(a >= b for a, b in zip(fracs, fracs[1:]))
    assert tail_table(T, v_list, grid, store) == rows    # determinism


@pytest.mark.parametrize("seed, fractions", [
    (1, [0.5622, 0.3767, 0.2068]),
    (2, [0.5464, 0.3677, 0.207]),
    (3, [0.5595, 0.3766, 0.215])])
def test_tail_table_fractions_pinned(store, seed, fractions):
    # T = 1000, 10^4 samples, V = 0, 1/2, 1: the fractions one zeta call
    # per sample gave, at the CLI's precision and at the default
    grid = GridSpec(count=10_000, seed=seed)
    for prec in (SCAN_PRECISION, DEFAULT_PRECISION):
        rows = tail_table(1000.0, [0.0, 0.5, 1.0], grid, store, prec)
        assert [r["fraction"] for r in rows] == fractions


def test_measure_sigma_matches_per_sample_zeta(store, monkeypatch):
    # 100 samples in [1000, 2000] lie about 10 apart, so most groups of the
    # first pass hold one ordinate; each value is within 0.5 abs_err of zeta
    # at its sample alone, and the estimate is the one those values give
    grid = GridSpec(count=100, seed=5)
    ts = _samples(grid, 1000.0, 2000.0, store)
    passes = []
    cut = _ZETA_MODULE._Line.groups

    def recorded(ts, width):
        starts = cut(ts, width)
        passes.append(np.diff(starts, append=len(ts)))
        return starts

    monkeypatch.setattr(_ZETA_MODULE._Line, "groups", staticmethod(recorded))
    vals, _ = _ZETA_MODULE._zeta_line(0.5, ts, DEFAULT_PRECISION)
    monkeypatch.undo()
    sizes = passes[0]
    assert sizes.sum() == 100
    assert np.sum(sizes == 1) > sizes.size / 2
    alone = [zeta(complex(0.5, t)) for t in ts.tolist()]
    for v, a in zip(vals, alone):
        assert abs(v - a) <= 0.5 * DEFAULT_PRECISION.abs_err
    exceed = sum(math.log(abs(a)) > 0.5 for a in alone)
    assert measure_sigma(1000.0, 0.5, grid, store).count_exceed == exceed


def test_measure_sigma_keeps_zetas_extended_path(store):
    # at T = 100 and abs_err 1e-13 every sample needs extended precision:
    # the sampler gives zeta's own values, and the estimate they give
    prec = EvalPrecision(abs_err=1e-13)
    grid = GridSpec(count=100, seed=9)
    ts = _samples(grid, 100.0, 200.0, store)
    alone = [zeta(complex(0.5, t), prec) for t in ts.tolist()]
    vals, _ = _ZETA_MODULE._zeta_line(0.5, ts, prec)
    assert list(vals) == alone
    exceed = sum(math.log(abs(a)) > 0.0 for a in alone)
    assert measure_sigma(100.0, 0.0, grid, store, prec).count_exceed == exceed


def test_residual_samples_memory_is_flat_at_the_sieve_limit(store):
    # At X = SIEVE_LIMIT the plain polynomial has 149,235 prime powers, so
    # its phases at all 64 samples at once would take 153 MB; summed in
    # slices of heights they take one height's, 2.4 MB.
    from zeta_eta.eta import SIEVE_LIMIT, _sieve
    _sieve(SIEVE_LIMIT, "the test")     # the cached sieve is not the call's
    grid = GridSpec(count=64, scheme="uniform", seed=3)
    tracemalloc.start()
    try:
        out = distribution._residual_samples(grid, 1000.0, 2000.0, 0.5,
                                             float(SIEVE_LIMIT), 1, store,
                                             DEFAULT_PRECISION)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (64,) and np.isfinite(out).all()
    assert peak < 16e6, peak
