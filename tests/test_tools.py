"""The repository's command-line tools, run as their users run them."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_value_shift_of_a_tree_against_itself_is_zero():
    # each tree in its own interpreter, so the two runs share no cache;
    # the same tree twice must give the same values bit for bit
    src = os.path.join(ROOT, "src")
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "value_shift.py"),
         src, src, "--count", "1"],
        capture_output=True, text=True, check=True).stdout.splitlines()
    names = [line.split(":")[0] for line in out]
    assert names == ["eta_vertical", "c_m", "eta_iterated",
                     "log_zeta_with_err"]
    for line in out:
        assert line.endswith("largest |delta| 0.000e+00, "
                             "largest |delta|/est_err 0"), line
