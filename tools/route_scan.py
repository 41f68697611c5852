#!/usr/bin/env python3
"""Check the two eta routes against each other at every table ordinate.

route_check(1/2 + i gamma, 1) runs at each ordinate gamma of the bundled
zero table up to its top - 2.5, the highest point the iterated route
accepts.  Each check evaluates eta_1 by the vertical route and by the
iterated sweep and compares them within their combined error estimates.
The script prints each ordinate that disagrees, then how many ordinates it
checked, the largest difference/tolerance and its wall time, and exits 1
when any ordinate disagrees.  It takes about five minutes on one core:

    PYTHONPATH=src python tools/route_scan.py
"""

import sys
import time

from zeta_eta.eta import route_check
from zeta_eta.zeros import builtin_store


def main() -> int:
    start = time.perf_counter()
    store = builtin_store()
    gammas = store.gammas[store.gammas <= store.t_max - 2.5].tolist()
    worst, worst_at, failed = 0.0, None, 0
    for gamma in gammas:
        chk = route_check(complex(0.5, gamma), 1, store)
        ratio = chk["difference"] / chk["tolerance"]
        if ratio > worst:
            worst, worst_at = ratio, gamma
        if not chk["agree"]:
            failed += 1
            print(f"disagree at gamma = {gamma!r}: difference "
                  f"{chk['difference']:.3e}, tolerance {chk['tolerance']:.3e}")
    print(f"checked {len(gammas)} ordinates, largest difference/tolerance "
          f"{worst:.4f} at gamma = {worst_at!r}, {failed} disagree, in "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
