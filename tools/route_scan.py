#!/usr/bin/env python3
"""Check the two eta routes against each other at every table ordinate.

route_check(1/2 + i gamma, m) runs at each ordinate gamma of the bundled
zero table up to its top - 2.5, the highest point the iterated route
accepts, first for m = 1 at every ordinate and then for m = 2, where the
binomial weights (t - gamma)^(m-1) of the closed-form model integrals
first matter.  Each check evaluates eta_m by the vertical route and by the
iterated sweep and compares them within their combined error estimates.
The script prints each check that disagrees, then per m how many
ordinates it checked, the largest difference/tolerance, the largest
est_err of the iterated route (which dominates the tolerance, so it says
how large a disagreement the check can see) and its wall time, and exits 1
when any check disagrees.  It took about two and a half minutes on one
core of a 2-core x86-64 box (m = 1 in 74 s, m = 2 in 81 s):

    PYTHONPATH=src python tools/route_scan.py
"""

import sys
import time

from zeta_eta.eta import route_check
from zeta_eta.zeros import builtin_store


def main() -> int:
    store = builtin_store()
    gammas = store.gammas[store.gammas <= store.t_max - 2.5].tolist()
    failed = 0
    for m in (1, 2):
        start = time.perf_counter()
        worst, worst_at, widest = 0.0, None, 0.0
        for gamma in gammas:
            chk = route_check(complex(0.5, gamma), m, store)
            ratio = chk["difference"] / chk["tolerance"]
            widest = max(widest, chk["iterated"].est_err)
            if ratio > worst:
                worst, worst_at = ratio, gamma
            if not chk["agree"]:
                failed += 1
                print(f"disagree at m = {m}, gamma = {gamma!r}: difference "
                      f"{chk['difference']:.3e}, tolerance "
                      f"{chk['tolerance']:.3e}")
        print(f"m = {m}: checked {len(gammas)} ordinates, largest "
              f"difference/tolerance {worst:.4f} at gamma = {worst_at!r}, "
              f"largest iterated est_err {widest:.3e}, "
              f"in {time.perf_counter() - start:.0f} s", flush=True)
    print(f"{failed} checks disagree")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
