"""The repository's command-line tools, run as their users run them."""

import importlib.util
import os
import subprocess
import sys

import pytest

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
                     "log_zeta_with_err", "zeta", "dirichlet_poly", "p_f",
                     "f_cdf", "zeta_log_deriv"]
    for line in out:
        assert line.endswith("largest |delta| 0.000e+00, largest "
                             "|delta|/est_err 0 (old), 0 (new), 0 (larger)"
                             ), line


def test_value_shift_reads_a_shift_against_both_estimates():
    # a value that moves by 1e-9 from an old est_err of 1e-12 to a new one
    # of 1e-9 reads 1000 against the old estimate, 1 against the new and
    # against the larger; a zero estimate reads 0 for no move; a call
    # refused in one tree only is listed
    spec = importlib.util.spec_from_file_location(
        "value_shift", os.path.join(ROOT, "tools", "value_shift.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    calls = tool.calls(1)
    old = [[1.0, 0.0, 1e-12]] + [[0.5, 0.5, 0.0]] * (len(calls) - 1)
    new = [[1.0 + 1e-9, 0.0, 1e-9]] + [[0.5, 0.5, 0.0]] * (len(calls) - 1)
    # the last call of a function other than the first call's
    other = max(j for j, call in enumerate(calls) if call[0] != calls[0][0])
    new[other] = "NearSingularity"
    rows = tool.shifts(1, old, new)
    first = rows[calls[0][0]]
    assert first["rel_old"] == pytest.approx(1000.0, rel=1e-6)
    assert first["rel_new"] == pytest.approx(1.0, rel=1e-6)
    assert first["rel_larger"] == pytest.approx(1.0, rel=1e-6)
    last = rows[calls[other][0]]
    assert last["rel_old"] == last["rel_new"] == last["rel_larger"] == 0.0
    assert len(last["mismatched"]) == 1
    assert last["mismatched"][0].endswith("vs NearSingularity")


def test_code_lines_leaves_out_comments_docstrings_and_blanks(tmp_path):
    # a module docstring, a comment line, a blank line, a class and a
    # function docstring of two lines each are left out; a trailing
    # comment, a string that is not a docstring and a statement over two
    # lines count
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        '"""Module."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # trailing\n"
        "\n"
        "\n"
        "class A:\n"
        '    """Two\n'
        '    lines."""\n'
        "\n"
        "    def f(self):\n"
        '        """Also\n'
        '        two."""\n'
        '        s = """not a\n'
        '        docstring"""\n'
        "        return (s,\n"
        "                X)\n")
    (pkg / "empty.py").write_text('"""Only a docstring."""\n')
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "code_lines.py"),
         str(tmp_path)],
        capture_output=True, text=True, check=True).stdout.splitlines()
    assert out == [os.path.join("pkg", "empty.py") + " 0",
                   os.path.join("pkg", "mod.py") + " 7", "total 7"]
