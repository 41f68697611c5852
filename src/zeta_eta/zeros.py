"""Table of nontrivial zeros: ingestion, windowed queries, hypothetical
zeros off the critical line, and the zero-counting cross-check.

A store is immutable.  All heights are ordinates gamma > 0; zeros at -gamma
exist by reflection but are never stored, and queries state explicitly when
they account for them.  sigma_Xt implements the height- and table-dependent
abscissa

    sigma_{X,t} = 1/2 + 2 max { beta - 1/2, 2/log X }

with the max over zeros rho = beta + i gamma satisfying
|t - gamma| <= X^(3(beta-1/2)) / log X.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import (BeyondTable, EmptyFile, NotSorted, OutOfStrip,
                     ParseError, ValidationError, _integer, _point, _real)
from .precision import DEFAULT_PRECISION, EvalPrecision

#: A height closer than this to a tabulated gamma is that ordinate: the
#: branch and both eta routes evaluate the one-sided limit there.
SNAP_TOL = 1e-9

#: Sampled heights closer than this to a tabulated gamma are moved onto the
#: one-sided limit (log|zeta| diverges at zeros); rvmf_check refuses them.
ORDINATE_TOL = 1e-6

#: Offset applied when the limit convention kicks in.
ORDINATE_OFFSET = 1e-9


@dataclass(frozen=True)
class ZeroRecord:
    """One zero rho = beta + i gamma with gamma > 0."""

    gamma: float
    beta: float = 0.5
    multiplicity: int = 1


@dataclass(frozen=True)
class RvmfReport:
    """Result of the zero-counting cross-check at height T."""

    n_store: int
    n_rvmf: float
    delta: float


class ZeroStore:
    """Immutable, ordinate-sorted zero table.

    Its columns gammas, betas and multiplicities are read-only arrays, and
    its facts t_max (the largest ordinate), beta_max (the largest beta: no
    table zero lies right of it) and all_on_line are fields, all set once
    here."""

    def __init__(self, records: list[ZeroRecord], source: str):
        if not records:
            raise EmptyFile("zero store needs at least one record")
        self.gammas = np.array([r.gamma for r in records], dtype=np.float64)
        self.betas = np.array([r.beta for r in records], dtype=np.float64)
        self.multiplicities = np.array([r.multiplicity for r in records],
                                       dtype=np.int64)
        if np.any(np.diff(self.gammas) < 0):
            raise ValidationError("records must be sorted by gamma")
        for arr in (self.gammas, self.betas, self.multiplicities):
            arr.setflags(write=False)
        self.t_max = float(self.gammas[-1])
        self.beta_max = float(self.betas.max())
        self.all_on_line = bool(np.all(self.betas == 0.5))
        self.source = source

    def __len__(self) -> int:
        return len(self.gammas)

    def record(self, i: int) -> ZeroRecord:
        return ZeroRecord(float(self.gammas[i]), float(self.betas[i]),
                          int(self.multiplicities[i]))

    def require_height(self, top: float, entry: str, **params) -> None:
        """Refuse, with BeyondTable, an entry that needs the table's zeros
        up to a height top above the table's; the message names the entry
        and its params as name=value.  The one rule for heights: nothing
        is extrapolated."""
        if top > self.t_max:
            given = ", ".join(f"{k}={v}" for k, v in params.items())
            raise BeyondTable(
                f"{entry}: {given} needs zeros up to {top}, above the "
                f"table's height {self.t_max}")

    # -- queries ---------------------------------------------------------------

    def count_below(self, t: float) -> int:
        """Zeros with gamma < t, counted with multiplicity."""
        t = _real(t, "t")
        self.require_height(t, "count_below", t=t)
        hi = int(np.searchsorted(self.gammas, t, side="left"))
        return int(self.multiplicities[:hi].sum())

    def count_window(self, t: float, h: float) -> int:
        """Zeros with |t - gamma| <= h (closed window), with multiplicity.

        Raises BeyondTable when the window pokes above the table.
        """
        t, h = _real(t, "t"), _real(h, "h", 0.0)
        self.require_height(t + h, "count_window", t=t, h=h)
        lo = int(np.searchsorted(self.gammas, t - h, side="left"))
        hi = int(np.searchsorted(self.gammas, t + h, side="right"))
        return int(self.multiplicities[lo:hi].sum())

    def _nearest(self, ts):
        """The tabulated ordinate nearest each of ts, the lower one on a
        tie, and its distance: two floats for a float, by bisect on the
        ordinates, or two arrays of ts's shape for an array."""
        g = self.gammas
        if isinstance(ts, float):
            i = bisect.bisect_left(g, ts)
            # Past either end both neighbours are the end ordinate.
            lo, hi = float(g[max(i - 1, 0)]), float(g[min(i, g.size - 1)])
            d_lo, d_hi = abs(ts - lo), abs(ts - hi)
            return (hi, d_hi) if d_hi < d_lo else (lo, d_lo)
        i = np.searchsorted(g, ts)
        # Past either end both neighbours are the end ordinate, which the
        # tie rule then takes.
        lo = g[np.maximum(i - 1, 0)]
        hi = g[np.minimum(i, len(g) - 1)]
        d_lo, d_hi = np.abs(ts - lo), np.abs(ts - hi)
        upper = d_hi < d_lo
        return np.where(upper, hi, lo), np.where(upper, d_hi, d_lo)

    def nearest_gamma(self, t: float) -> float:
        """Tabulated ordinate closest to t (reflections not considered), the
        lower one on a tie."""
        return self._nearest(_real(t, "t"))[0]

    def snap(self, t, tol: float = SNAP_TOL):
        """The height at which t is evaluated (the ordinate convention).

        A t within tol of a tabulated gamma becomes gamma - ORDINATE_OFFSET,
        the limit from below, with the nearer gamma taken (the lower one on
        a tie); 0 <= t < tol becomes ORDINATE_OFFSET, so t = 0 is the limit
        from above.  Takes a scalar or an array and returns the same shape;
        a negative, NaN or infinite t is refused.
        """
        if np.ndim(t) == 0:
            t = _real(float(t), "t", 0.0)
            if t < tol:
                return ORDINATE_OFFSET
            near, dist = self._nearest(t)
            return near - ORDINATE_OFFSET if dist < tol else t
        ts = np.asarray(t, dtype=np.float64)
        for end in (ts.min(initial=0.0), ts.max(initial=0.0)):
            _real(float(end), "t", 0.0)
        near, dist = self._nearest(ts)
        out = np.where(dist < tol, near - ORDINATE_OFFSET, ts)
        return np.where(ts < tol, ORDINATE_OFFSET, out)

    def nearest_zero(self, s: complex) -> tuple[float, complex]:
        """The distance from s to the nearest zero, reflections included,
        and that zero (beta - i gamma for a reflection).

        For each of t and -t, the ordinates of s and of its reflection, the
        zeros on both sides of it bound the distance by d, and every zero
        with |gamma - t| <= d is measured: zeros whose ordinates lie closer
        together than their betas differ are all seen.  A point takes
        bisects of the ordinates and np.hypot at a few zeros: math.hypot
        rounds some distances differently.
        """
        s = _point(s)
        # Views that index to floats, which cost less than numpy scalars.
        g, b = memoryview(self.gammas), memoryview(self.betas)

        def dists(tt: float, lo: int, hi: int) -> list[float]:
            return [float(np.hypot(s.real - b[j], tt - g[j]))
                    for j in range(lo, hi)]

        best = (math.inf, 0j)
        for sign in (1.0, -1.0):
            tt = sign * s.imag
            i = bisect.bisect_left(g, tt)
            lo, hi = max(i - 1, 0), min(i + 1, len(g))
            near = dists(tt, lo, hi)
            d = min(near)
            # The neighbours stay in, whichever way tt -+ d rounds.
            first = min(lo, bisect.bisect_left(g, tt - d))
            stop = max(hi, bisect.bisect_right(g, tt + d))
            dist = dists(tt, first, lo) + near + dists(tt, hi, stop)
            d = min(dist)
            if d < best[0]:
                j = first + dist.index(d)
                best = d, complex(b[j], sign * g[j])
        return best

    def zero_distance(self, s: complex) -> float:
        """Distance from s to the nearest zero, reflections included."""
        return self.nearest_zero(s)[0]

    def lorentz_sum(self, t: float) -> float:
        """sum over zeros (both signs of gamma) of 1/(1 + (t - gamma)^2)."""
        g = self.gammas
        m = self.multiplicities
        return float((m / (1.0 + (t - g) ** 2)).sum()
                     + (m / (1.0 + (t + g) ** 2)).sum())

    # -- construction of derived stores ---------------------------------------

    def inject_hypothetical(self, beta: float, gamma: float,
                            multiplicity: int = 1) -> "ZeroStore":
        """New store with one additional zero off the critical line.

        The conjugate-reflected zero at 1 - beta is NOT added; callers that
        want a functional-equation-symmetric configuration must inject both.
        """
        if not (0.0 < beta < 1.0):
            raise OutOfStrip(f"beta in (0, 1) required, got beta={beta}")
        if not (gamma > 0.0 and math.isfinite(gamma)):
            raise OutOfStrip(f"finite gamma > 0 required, got gamma={gamma}")
        multiplicity = _integer(multiplicity, "multiplicity", 1, OutOfStrip)
        self.require_height(gamma, "inject_hypothetical", gamma=gamma)
        records = [self.record(i) for i in range(len(self))]
        records.append(ZeroRecord(float(gamma), float(beta), multiplicity))
        records.sort(key=lambda r: r.gamma)
        return ZeroStore(records, source=f"{self.source}+hypothetical"
                                         f"({beta},{gamma},x{multiplicity})")

    # -- sigma_{X,t} -----------------------------------------------------------

    def sigma_xt(self, t: float, x: float) -> float:
        t, x = _real(t, "t"), _real(x, "X", 3.0)
        logx = math.log(x)
        widths = np.power(x, 3.0 * (self.betas - 0.5)) / logx
        self.require_height(t + float(widths.max()), "sigma_xt", t=t, X=x)
        inside = np.abs(t - self.gammas) <= widths
        peak = 2.0 / logx
        if np.any(inside):
            peak = max(peak, float((self.betas[inside] - 0.5).max()))
        return 0.5 + 2.0 * peak

    # -- serialization ---------------------------------------------------------

    def dump_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["gamma", "beta", "multiplicity"])
        for i in range(len(self)):
            w.writerow([repr(float(self.gammas[i])),
                        repr(float(self.betas[i])),
                        int(self.multiplicities[i])])
        return buf.getvalue()


# --- ingestion ----------------------------------------------------------------

def _check_ordinate(gamma: float, prev: float, ln: int) -> None:
    """Refuse an ordinate on line ln that is not finite and positive, or
    not strictly above the previous record's, prev."""
    if not (math.isfinite(gamma) and gamma > 0):
        raise ParseError(f"ordinate must be positive and finite, got {gamma}", ln)
    if gamma <= prev:
        raise NotSorted(
            f"ordinate {gamma} not strictly above previous {prev}", ln)


def _parse_plain(lines: list[str]) -> list[ZeroRecord]:
    records: list[ZeroRecord] = []
    prev = -math.inf
    for ln, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            gamma = float(text)
        except ValueError:
            raise ParseError(f"expected one ordinate, got {text!r}", ln) from None
        _check_ordinate(gamma, prev, ln)
        prev = gamma
        records.append(ZeroRecord(gamma))
    return records


def _parse_csv(lines: list[str]) -> list[ZeroRecord]:
    reader = csv.reader(lines)
    records: list[ZeroRecord] = []
    prev = -math.inf
    header: list[str] | None = None
    for ln, row in enumerate(reader, start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if row and row[0].lstrip().startswith("#"):
            continue
        if header is None:
            header = [c.strip().lower() for c in row]
            if header != ["gamma", "beta", "multiplicity"]:
                raise ParseError(
                    f"expected header gamma,beta,multiplicity, got {row!r}", ln)
            continue
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, got {len(row)}", ln)
        try:
            gamma, beta, mult = float(row[0]), float(row[1]), int(row[2])
        except ValueError:
            raise ParseError(f"bad record {row!r}", ln) from None
        _check_ordinate(gamma, prev, ln)
        if not (0.0 < beta < 1.0):
            raise ParseError(f"beta must lie in (0, 1), got {beta}", ln)
        if mult < 1:
            raise ParseError(f"multiplicity must be >= 1, got {mult}", ln)
        prev = gamma
        records.append(ZeroRecord(gamma, beta, mult))
    if header is None:
        raise EmptyFile("csv zero table has no header")
    return records


def load_zeros(path: str, fmt: str = "plain-ordinates") -> ZeroStore:
    """Read a zero table.

    fmt 'plain-ordinates': one ordinate per line, '#' starts a comment.
    fmt 'csv': header gamma,beta,multiplicity.
    Ordinates must be strictly increasing (duplicates are rejected).
    """
    with open(path, "r") as fh:
        lines = fh.readlines()
    if fmt == "plain-ordinates":
        records = _parse_plain(lines)
    elif fmt == "csv":
        records = _parse_csv(lines)
    else:
        raise ValidationError(f"unknown zero-table format {fmt!r}")
    if not records:
        raise EmptyFile(f"no records in {path}")
    return ZeroStore(records, source=str(path))


@lru_cache(maxsize=1)
def builtin_store() -> ZeroStore:
    """The bundled table (first ~1650 ordinates, heights up to ~2150)."""
    ref = resources.files("zeta_eta").joinpath("data/zeros_t2100.txt")
    with resources.as_file(ref) as path:
        store = load_zeros(str(path), "plain-ordinates")
    store.source = "builtin"
    return store


def store_or_builtin(store: ZeroStore | None) -> ZeroStore:
    """The table an entry reads: store, or the bundled one for None."""
    return builtin_store() if store is None else store


# --- zero-counting cross-check -------------------------------------------------

def rvmf_check(store: ZeroStore, t_height: float,
               prec: EvalPrecision = DEFAULT_PRECISION) -> RvmfReport:
    """Compare the table count below T with the counting formula

        N(T) = theta(T)/pi + 1 + S(T),

    theta the Riemann-Siegel angle and S(T) = Im log zeta(1/2 + iT) / pi on
    the continued branch.  T must not sit on an ordinate (within 1e-6) and
    must stay within the table.
    """
    from .branch import big_s
    from .zeta import theta as rs_theta

    t_height = _real(t_height, "T", 2.0)
    store.require_height(t_height, "rvmf_check", T=t_height)
    g = store.nearest_gamma(t_height)
    if abs(t_height - g) <= ORDINATE_TOL:
        raise ValidationError(
            f"T={t_height} sits on ordinate {g}; move off by > {ORDINATE_TOL}")
    n_store = store.count_below(t_height)
    n_rvmf = rs_theta(t_height) / math.pi + 1.0 + big_s(t_height, prec, store)
    return RvmfReport(n_store=n_store, n_rvmf=n_rvmf,
                      delta=n_rvmf - n_store)


# --- functional wrappers (operation names) --------------------------------------

def count_window(store: ZeroStore, t: float, h: float) -> int:
    return store.count_window(t, h)


def sigma_xt(store: ZeroStore, t: float, x: float) -> float:
    return store.sigma_xt(t, x)


def inject_hypothetical(store: ZeroStore, beta: float, gamma: float,
                        multiplicity: int = 1) -> ZeroStore:
    return store.inject_hypothetical(beta, gamma, multiplicity)
