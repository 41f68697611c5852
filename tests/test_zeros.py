"""Zero-table ingestion, queries, counting cross-check, derived stores."""

import math
import warnings

import numpy as np
import pytest

from zeta_eta.approx import relzz_decompose, y_m
from zeta_eta.distribution import (GridSpec, measure_sigma, measure_t_m,
                                   moment_residual, tail_table)
from zeta_eta.errors import (BeyondTable, EmptyFile, NotSorted, OutOfStrip,
                             ParseError, ValidationError)
from zeta_eta.zeros import (ORDINATE_OFFSET, ORDINATE_TOL, SNAP_TOL,
                            ZeroRecord, ZeroStore, builtin_store,
                            count_window, inject_hypothetical, load_zeros,
                            rvmf_check, sigma_xt)

# first three ordinates, 20 digits, from an independent zero finder
GAMMA_1 = 14.134725141734693790
GAMMA_2 = 21.022039638771554993
GAMMA_3 = 25.010857580145688763


def test_load_plain(tmp_path):
    p = tmp_path / "z.txt"
    p.write_text("# two ordinates\n14.1347\n\n21.0220  # trailing comment\n")
    st = load_zeros(str(p))
    assert len(st) == 2
    assert st.t_max == pytest.approx(21.0220)
    assert st.all_on_line


def test_load_plain_parse_errors(tmp_path):
    cases = [
        ("14.1\nbogus\n", ParseError, 2),
        ("14.1\n-3.0\n", ParseError, 2),
        ("14.1\n13.0\n", NotSorted, 2),
        ("14.1\n14.1\n", NotSorted, 2),
    ]
    for text, exc, line in cases:
        p = tmp_path / "bad.txt"
        p.write_text(text)
        with pytest.raises(exc) as ei:
            load_zeros(str(p))
        assert ei.value.line == line
    p.write_text("# only comments\n")
    with pytest.raises(EmptyFile):
        load_zeros(str(p))


def test_csv_roundtrip(tmp_path):
    st = ZeroStore([ZeroRecord(14.1, 0.5), ZeroRecord(21.0, 0.75, 2)], "t")
    p = tmp_path / "z.csv"
    p.write_text(st.dump_csv())
    back = load_zeros(str(p), "csv")
    assert np.array_equal(back.gammas, st.gammas)
    assert np.array_equal(back.betas, st.betas)
    assert np.array_equal(back.multiplicities, st.multiplicities)
    assert not back.all_on_line


def test_store_columns_are_read_only():
    # a store is immutable: its column fields refuse a write, and its facts
    # are those of the columns it was built from
    st = ZeroStore([ZeroRecord(14.1, 0.5), ZeroRecord(21.0, 0.75, 2)], "t")
    for column in (st.gammas, st.betas, st.multiplicities):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1
    assert (st.t_max, st.beta_max, st.all_on_line) == (21.0, 0.75, False)
    assert st.gammas.tolist() == [14.1, 21.0]


def test_csv_parse_errors(tmp_path):
    p = tmp_path / "z.csv"
    p.write_text("alpha,beta\n")
    with pytest.raises(ParseError):
        load_zeros(str(p), "csv")
    p.write_text("gamma,beta,multiplicity\n14.1,1.5,1\n")
    with pytest.raises(ParseError):
        load_zeros(str(p), "csv")
    p.write_text("gamma,beta,multiplicity\n14.1,0.5,0\n")
    with pytest.raises(ParseError):
        load_zeros(str(p), "csv")
    with pytest.raises(ValidationError):
        load_zeros(str(p), "nonsense-format")


def test_csv_ordinate_errors_as_plain(tmp_path):
    # the csv reader refuses ordinates as the plain one does: same class,
    # message and line
    for rows, plain, exc, msg in [
            ("14.1,0.5,1\n-3.0,0.5,1\n", "14.1\n-3.0\n", ParseError,
             "ordinate must be positive and finite, got -3.0"),
            ("14.1,0.5,1\ninf,0.5,1\n", "14.1\ninf\n", ParseError,
             "ordinate must be positive and finite, got inf"),
            ("14.1,0.5,1\n13.0,0.5,1\n", "14.1\n13.0\n", NotSorted,
             "ordinate 13.0 not strictly above previous 14.1")]:
        for text, fmt, line in ((f"gamma,beta,multiplicity\n{rows}", "csv", 3),
                                (plain, "plain-ordinates", 2)):
            p = tmp_path / "bad.txt"
            p.write_text(text)
            with pytest.raises(exc, match=msg) as ei:
                load_zeros(str(p), fmt)
            assert ei.value.line == line


_GRID = GridSpec(count=100, seed=1)

_STORE_DEFAULTS = {
    "y_m": lambda st: y_m(complex(0.5, 49.9), 10.0, 0, st),
    "relzz_decompose": lambda st: relzz_decompose(100.0, 10.0, store=st),
    "measure_sigma": lambda st: measure_sigma(100.0, 0.5, _GRID, st),
    "measure_t_m": lambda st: measure_t_m(100.0, 10.0, 0.5, 1, _GRID,
                                          store=st),
    "moment_residual": lambda st: moment_residual(
        100.0, 10.0, 1, 1, GridSpec(count=5, seed=1), store=st,
        enforce_range=False),
    "tail_table": lambda st: tail_table(100.0, [0.0, 0.5], _GRID, st),
}


@pytest.mark.parametrize("entry", sorted(_STORE_DEFAULTS))
def test_store_none_is_the_bundled_table(entry):
    call = _STORE_DEFAULTS[entry]
    assert call(None) == call(builtin_store())


def test_builtin_store(store):
    assert len(store) >= 1600
    assert store.t_max > 2150.0
    assert store.all_on_line
    assert abs(float(store.gammas[0]) - GAMMA_1) < 1e-9
    assert abs(float(store.gammas[1]) - GAMMA_2) < 1e-9
    assert abs(float(store.gammas[2]) - GAMMA_3) < 1e-9
    # ordinates strictly increasing
    assert np.all(np.diff(store.gammas) > 0)


def test_count_below_published_values(store):
    # N(50) = 10 and N(100) = 29 are published zero counts
    assert store.count_below(50.0) == 10
    assert store.count_below(100.0) == 29
    assert store.count_below(14.0) == 0


def test_count_window(store):
    assert store.count_window(GAMMA_1, 0.01) == 1
    assert store.count_window(GAMMA_1, 7.0) == 2   # gamma_1 and gamma_2
    assert count_window(store, 16.0, 1.0) == 0
    with pytest.raises(BeyondTable):
        store.count_window(store.t_max, 1.0)
    with pytest.raises(ValidationError):
        store.count_window(20.0, -1.0)


def test_nearest_and_distance(store):
    assert store.nearest_gamma(15.0) == pytest.approx(GAMMA_1, abs=1e-9)
    assert store.nearest_gamma(18.0) == pytest.approx(GAMMA_2, abs=1e-9)
    d = store.zero_distance(complex(0.5, GAMMA_1 + 1e-3))
    assert d == pytest.approx(1e-3, rel=1e-6)
    # reflected zeros count too
    d = store.zero_distance(complex(0.5, -GAMMA_1))
    assert d < 1e-9


def test_nearest_gamma_takes_the_lower_ordinate_on_a_tie(store):
    g = store.gammas
    mids = 0.5 * (g[:-1] + g[1:])
    ties = np.flatnonzero(mids - g[:-1] == g[1:] - mids)
    assert ties.size == 840
    for i in ties.tolist():
        assert store.nearest_gamma(mids[i]) == g[i]
    # outside the table the end ordinate is the nearest
    assert store.nearest_gamma(1.0) == g[0]
    assert store.nearest_gamma(store.t_max + 50.0) == g[-1]


def test_nearest_of_one_float_is_the_array_paths(store):
    # one float goes by bisect on the ordinates, an array by numpy: the
    # same ordinate and distance, the lower ordinate on a tie, at seeded
    # heights, exact ties, the ordinates themselves and past both ends
    g = store.gammas
    mids = 0.5 * (g[:-1] + g[1:])
    ties = mids[mids - g[:-1] == g[1:] - mids]
    ts = np.concatenate((
        np.random.default_rng(24).uniform(0.0, store.t_max + 5.0, 2000),
        ties, g, np.nextafter(g, 0.0), np.nextafter(g, np.inf),
        [0.0, 1.0, g[0], store.t_max, store.t_max + 50.0, 1e12]))
    near, dist = store._nearest(ts)
    for t, n, d in zip(ts.tolist(), near.tolist(), dist.tolist()):
        assert store._nearest(t) == (n, d), t
    assert store._nearest(float(ties[0]))[0] < ties[0]


def test_nearest_gamma_is_the_snapped_ordinate(store):
    # with a tolerance above every gap, snap moves each t >= 20 below the
    # ordinate it takes as nearest
    ts = np.random.default_rng(23).uniform(20.0, store.t_max + 10.0, 1000)
    near = np.array([store.nearest_gamma(t) for t in ts.tolist()])
    assert (store.snap(ts, 20.0) == near - ORDINATE_OFFSET).all()


# A zero on the line at 100 and three at beta = 0.9 just above it, their
# ordinates closer together than their betas differ: from 0.5 + 100.000005i
# the ordinates next to t are the 0.9 zeros, 0.4 away, and the nearest zero
# is 5e-6 away, two ordinates further down.
_CROWDED = ZeroStore([ZeroRecord(100.0), ZeroRecord(100.000002, 0.9),
                      ZeroRecord(100.000003, 0.9),
                      ZeroRecord(100.000004, 0.9)], "test")


def test_nearest_zero_past_crowded_ordinates():
    for sign in (1.0, -1.0):
        s = complex(0.5, sign * 100.000005)
        assert _CROWDED.zero_distance(s) == pytest.approx(5e-6, rel=1e-6)
        assert _CROWDED.nearest_zero(s) == (_CROWDED.zero_distance(s),
                                            complex(0.5, sign * 100.0))
    d, rho = _CROWDED.nearest_zero(complex(0.9, 100.0000031))
    assert d == pytest.approx(1e-7, rel=1e-6) and rho == 0.9 + 100.000003j
    # far below every ordinate the lowest zero is nearest
    assert _CROWDED.nearest_zero(0.5 + 1j) == (99.0, 0.5 + 100j)


def _nearest_zero_by_arrays(store, s):
    # the query on whole arrays: searchsorted for the neighbours and the
    # bound's ends, np.hypot over each slice, the first minimum taken
    g, b = store.gammas, store.betas
    best = (math.inf, 0j)
    for sign in (1.0, -1.0):
        tt = sign * s.imag
        i = int(np.searchsorted(g, tt))
        lo, hi = max(i - 1, 0), i + 1
        d = np.hypot(s.real - b[lo:hi], tt - g[lo:hi]).min()
        lo = min(lo, int(np.searchsorted(g, tt - d)))
        hi = max(hi, int(np.searchsorted(g, tt + d, side="right")))
        dist = np.hypot(s.real - b[lo:hi], tt - g[lo:hi])
        j = int(np.argmin(dist))
        if dist[j] < best[0]:
            best = float(dist[j]), complex(b[lo + j], sign * g[lo + j])
    return best


def test_nearest_zero_is_the_array_computation(store):
    # bit for bit at seeded points of both half-planes, at the ordinates
    # and past both ends of the table, on the table, the crowded one and a
    # table with zeros off the line
    rng = np.random.default_rng(16)
    g = store.gammas
    ts = np.concatenate((rng.uniform(-store.t_max - 5.0, store.t_max + 5.0,
                                     1500),
                         g[:20], -g[:20], g[-20:], -g[-20:],
                         [0.0, 1.0, -1.0, store.t_max + 50.0,
                          -store.t_max - 50.0]))
    points = [complex(x, t) for x, t in
              zip(rng.uniform(-1.0, 3.0, ts.size).tolist(), ts.tolist())]
    off_line = store.inject_hypothetical(0.8, 100.0).inject_hypothetical(
        0.3, 14.2)
    for table in (store, _CROWDED, off_line):
        for s in points + [0.9 + 100.0000031j, 0.5 - 100.000005j]:
            assert table.nearest_zero(s) == _nearest_zero_by_arrays(table, s), s


@pytest.mark.parametrize("s", [complex(math.nan, 1.0), complex(0.5, math.nan),
                               complex(math.inf, 14.0),
                               complex(0.5, -math.inf), "0.5+14j"])
def test_nearest_zero_refuses_a_point_that_is_not_finite(store, s):
    # refused before any arithmetic: no numpy warning, no (inf, 0j) answer
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="s="):
            store.nearest_zero(s)
        with pytest.raises(ValidationError, match="s="):
            store.zero_distance(s)


def test_rvmf_check_counts(store):
    for t_height in (50.0, 100.0, 230.0):
        rep = rvmf_check(store, t_height)
        assert abs(rep.delta) < 1e-6
        assert rep.n_rvmf == pytest.approx(round(rep.n_rvmf), abs=1e-6)
        assert rep.n_store == round(rep.n_rvmf)


def test_sigma_xt(store):
    # far from any zero the floor 1/2 + 4/log X applies
    v = sigma_xt(store, 17.5, 100.0)
    assert v == pytest.approx(0.5 + 4.0 / math.log(100.0))
    # an injected off-line zero inside its own window lifts the value once
    # beta - 1/2 exceeds the 2/log X floor (X large enough)
    st2 = store.inject_hypothetical(0.75, 17.5)
    assert sigma_xt(st2, 17.5, 5000.0) == pytest.approx(1.0)
    assert sigma_xt(store, 17.5, 5000.0) == pytest.approx(
        0.5 + 4.0 / math.log(5000.0))


def test_inject_hypothetical(store):
    st2 = inject_hypothetical(store, 0.75, 30.0, 2)
    assert len(st2) == len(store) + 1
    assert not st2.all_on_line
    assert np.all(np.diff(st2.gammas) >= 0)
    assert st2.count_window(30.0, 1e-9) == 2
    for bad in [(-0.1, 30.0, 1), (1.5, 30.0, 1), (0.75, -5.0, 1),
                (0.75, 30.0, 0)]:
        with pytest.raises(OutOfStrip):
            inject_hypothetical(store, *bad)


def test_lorentz_sum_positive(store):
    assert store.lorentz_sum(25.0) > 0.0
    # dominated by the nearest zero when very close to it
    near = store.lorentz_sum(GAMMA_1)
    far = store.lorentz_sum(17.5)
    assert near > far


def test_ordinate_offset_constant():
    assert 0 < ORDINATE_OFFSET < 1e-6


# --- the ordinate convention ----------------------------------------------
#
# References: the two hand-written conventions ZeroStore.snap replaced, kept
# verbatim -- the branch height (tol 1e-9) and the sampler nudge (tol 1e-6).

def _branch_snap_reference(store, t):
    if t < 1e-9:
        return ORDINATE_OFFSET
    g = store.nearest_gamma(t)
    if g is not None and abs(t - g) < 1e-9:
        return g - ORDINATE_OFFSET
    return t


def _sampler_nudge_reference(store, t):
    t = np.array(t, dtype=float)
    gs = store.gammas
    pos = np.searchsorted(gs, t)
    for idx in np.nonzero((pos > 0) & (t - gs[np.maximum(pos - 1, 0)]
                                       < ORDINATE_TOL))[0]:
        t[idx] = gs[pos[idx] - 1] - ORDINATE_OFFSET
    for idx in np.nonzero((pos < len(gs)) & (gs[np.minimum(pos, len(gs) - 1)]
                                             - t < ORDINATE_TOL))[0]:
        t[idx] = gs[pos[idx]] - ORDINATE_OFFSET
    return t


def _snap_cases(store, tol, near_zero):
    eps = 0.01 * tol
    cases = [tol, 1.0, 14.0, store.t_max + 1.0, store.t_max + tol - eps]
    if near_zero:
        cases += [0.0, 1e-12, 0.5 * tol, tol - eps]
    for g in store.gammas[[0, 1, 500, -1]].tolist():
        cases += [g, g - (tol - eps), g + (tol - eps), g - (tol + eps),
                  g + (tol + eps), 0.5 * (g + 14.0)]
    return cases


# The sampler never drew t below ORDINATE_TOL (every estimator needs T > e),
# so its reference is compared above that only.
@pytest.mark.parametrize("tol, reference, near_zero", [
    (SNAP_TOL, lambda st, ts: np.array([_branch_snap_reference(st, t)
                                        for t in ts]), True),
    (ORDINATE_TOL, _sampler_nudge_reference, False),
])
def test_snap_matches_the_conventions_it_replaced(store, tol, reference,
                                                  near_zero):
    ts = _snap_cases(store, tol, near_zero)
    want = reference(store, ts)
    got = store.snap(np.array(ts), tol)
    assert got.shape == (len(ts),)
    assert np.array_equal(got, want)
    for t, w in zip(ts, want.tolist()):
        one = store.snap(t, tol)
        assert isinstance(one, float) and one == w, t


def test_snap_defaults_and_limits(store):
    g = float(store.gammas[3])
    assert store.snap(g) == g - ORDINATE_OFFSET
    assert store.snap(0.0) == ORDINATE_OFFSET
    assert store.snap(30.0) == 30.0
    # the sampler's tolerance catches what the branch's lets through
    assert store.snap(g + 1e-7) == g + 1e-7
    assert store.snap(g + 1e-7, ORDINATE_TOL) == g - ORDINATE_OFFSET
    out = store.snap(np.array([[g, 30.0]]))
    assert out.shape == (1, 2)


@pytest.mark.parametrize("t, shown", [
    (-5.0, "t=-5.0"), (-1e-12, "t=-1e-12"), (math.nan, "t=nan"),
    (math.inf, "t=inf"), (-math.inf, "t=-inf"),
    (np.array([1.0, 30.0, -5.0]), "t=-5.0"),
    (np.array([[20.0, math.nan]]), "t=nan"), (np.array([math.inf]), "t=inf"),
])
def test_snap_refuses_a_negative_or_non_finite_height(store, t, shown):
    # a float or an array: refused, never replaced by the limit at 0
    with pytest.raises(ValidationError, match=shown):
        store.snap(t)
    with pytest.raises(ValidationError, match=shown):
        store.snap(t, ORDINATE_TOL)


@pytest.mark.parametrize("tol", [SNAP_TOL, ORDINATE_TOL])
def test_snap_tie_between_neighbours_takes_the_lower(tol):
    # two ordinates 1.5 tol apart (exact binary fractions), t midway: both
    # within tol, equally near; the limit is taken below the lower one
    gap = 3 * 2.0 ** -31 if tol == SNAP_TOL else 2.0 ** -19
    st = ZeroStore([ZeroRecord(20.0), ZeroRecord(20.0 + gap)], "tie")
    t = 20.0 + 0.5 * gap
    assert st.snap(t, tol) == 20.0 - ORDINATE_OFFSET
    if tol == SNAP_TOL:
        assert _branch_snap_reference(st, t) == 20.0 - ORDINATE_OFFSET
    else:
        assert _sampler_nudge_reference(st, [t])[0] == 20.0 - ORDINATE_OFFSET


def test_builtin_ordinates_are_far_apart_for_the_sampler(store):
    # The sampler nudge resolved two ordinates within ORDINATE_TOL of one t
    # differently from snap (which takes the nearer); the bundled table has
    # none, so sampled heights are unchanged.
    assert float(np.diff(store.gammas).min()) > 2.0 * ORDINATE_TOL
