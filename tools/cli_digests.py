#!/usr/bin/env python3
"""SHA-256 digests of the fixed CLI invocations whose output the project
keeps byte-identical across performance changes.

Each invocation runs in this process through zeta_eta.cli.main, writing its
CSV and JSON mirror into a temporary directory; the digest is taken over the
CSV bytes followed by the JSON bytes, one line per invocation.  `eval
--check-routes` writes no files, so its digest is over what it prints.  Two
trees give the same outputs when they print the same lines:

    PYTHONPATH=src python tools/cli_digests.py > digests.txt

The invocations: `dist tails`, `dist tmeasure` and `dist moments` at the
benchmark's sizes (T = 1000) for seeds 1-3, the `residual-scan` grid
m = 1, X in {10, 100, 1000}, t = 100, 750, 1400 at sigma = 1/2 and again
at sigma = 3/4 with H = 2 and the tent kernel (the coefficients read
sigma, H and the kernel), the same grid at sigma = 1/2 with X in {90, 91},
whose polynomials reach n = 8100 and 8281 on either side of the switch
from the sieve up to 8192 to the full one, `eval --what eta
--check-routes` at 0.8 + 700.3i for m = 1, 2, and two single points, each
one small ray batch whose N^-s is taken on complex numbers: `eval --what
zeta` at -0.7 + 1234.5i, left of sigma = 0, and `eval --what logzeta` at
0.5 + 777.7i, 0.4 from the nearest ordinate; `eval --what eta` at
s = 0.6, m = 2, which at t = 0 is the integration constant c_2(0.6) itself,
its real-axis integral across the pole at 1; and `eval --what eta` at
s = 0.7 + 1.2i, m = 2, whose ray has the pole in its window model; and
`--abs-err 1e-6 eval --what logzeta` at 0.25 + 917.8253775704268i, a
coarse query left of sigma = 1/2 on a ray snapped below an ordinate, whose
walk leaves out the grid node at 1/2, where the node's bound reaches
|zeta|/2 at that precision, and inserts 1/2 as a midpoint at the default
one; and `dist moments` at m = 2 on sigma = 3/4 over the dyadic interval
(seed 1), whose batch of heights runs off the critical line, where the
plain polynomial reads sigma; and `--abs-err 1e-10 residual-scan` at m = 2,
X = 10 on sigma = 3/4 over t = 100, 150, ..., 1400, where six of the 27
heights miss the tolerance on their starting panels and are bisected on
from the batch's own; and the first `residual-scan` grid again with
`--kernel-d 600`, whose poly-bump CDF weights the polynomial at a degree
where the CDF's plain binomial sum overflows; and `residual-scan` at m = 0,
X in {10, 100}, on the first grid's heights, where eta_0 is log zeta at
each height, Y_0 sums the logs of the zeros within 1/log X and the
polynomial carries (log n)^-1.  The exit status is 1 when an invocation
exits non-zero.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from zeta_eta.cli import main

DIST = {
    "tails": ["--count", "10000", "--v-list", "0,0.5,1"],
    "tmeasure": ["--count", "100", "--x", "100", "--v", "0.5", "--m", "1"],
    "moments": ["--count", "100", "--x", "10", "--m", "1", "--k", "1",
                "--waive-range"],
}
SCAN = ["residual-scan", "--m", "1", "--x-list", "10,100,1000",
        "--sigma", "0.5", "--t-from", "100", "--t-to", "1400",
        "--t-step", "650"]
SCAN_SIEVE_SWITCH = ["residual-scan", "--m", "1", "--x-list", "90,91",
                     "--sigma", "0.5", "--t-from", "100", "--t-to", "1400",
                     "--t-step", "650"]
SCAN_OFF_LINE = ["residual-scan", "--m", "1", "--x-list", "10,100,1000",
                 "--sigma", "0.75", "--h", "2", "--kernel", "tent",
                 "--t-from", "100", "--t-to", "1400", "--t-step", "650"]


def invocations() -> list[tuple[list[str], bool]]:
    """(argv, writes files) for every fixed invocation, in print order."""
    runs = [(["dist", sub, "--t-big", "1000", "--seed", str(seed)] + extra,
             True)
            for seed in (1, 2, 3) for sub, extra in DIST.items()]
    runs += [(SCAN, True), (SCAN_OFF_LINE, True), (SCAN_SIEVE_SWITCH, True)]
    runs += [(["eval", "--what", "eta", "--s", "0.8+700.3i", "--m", str(m),
               "--check-routes"], False) for m in (1, 2)]
    runs += [(["eval", "--what", "zeta", "--s=-0.7+1234.5i"], False),
             (["eval", "--what", "logzeta", "--s", "0.5+777.7i"], False),
             (["eval", "--what", "eta", "--s", "0.6", "--m", "2"], False),
             (["eval", "--what", "eta", "--s", "0.7+1.2i", "--m", "2"],
              False),
             (["--abs-err", "1e-6", "eval", "--what", "logzeta", "--s",
               "0.25+917.8253775704268i"], False),
             (["dist", "moments", "--t-big", "1000", "--seed", "1",
               "--count", "100", "--x", "10", "--m", "2", "--k", "1",
               "--sigma", "0.75", "--interval", "dyadic", "--waive-range"],
              True),
             (["--abs-err", "1e-10", "residual-scan", "--m", "2", "--x-list",
               "10", "--sigma", "0.75", "--t-from", "100", "--t-to", "1400",
               "--t-step", "50"], True),
             (SCAN + ["--kernel-d", "600"], True),
             (["residual-scan", "--m", "0", "--x-list", "10,100", "--t-from",
               "100", "--t-to", "1400", "--t-step", "650"], True)]
    return runs


def digest(argv: list[str], writes_files: bool, tmp: str) -> tuple[str, int]:
    """The SHA-256 of one invocation's output, and its exit status."""
    out = io.StringIO()
    path = os.path.join(tmp, "out.csv")
    with contextlib.redirect_stdout(out):
        code = main((["--out", path] if writes_files else []) + argv)
    data = out.getvalue().encode()
    if writes_files and code == 0:
        data = b""
        for name in (path, path + ".json"):
            with open(name, "rb") as fh:
                data += fh.read()
    return hashlib.sha256(data).hexdigest(), code


def run() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for argv, writes_files in invocations():
            sha, code = digest(argv, writes_files, tmp)
            failed += code != 0
            print(f"{sha}  {' '.join(argv)}"
                  + (f"  (exit {code})" if code else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
