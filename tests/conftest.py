import math

import numpy as np
import pytest

from zeta_eta import eta as eta_module
from zeta_eta.precision import DEFAULT_PRECISION, EvalPrecision
from zeta_eta.zeros import ZeroRecord, ZeroStore, builtin_store


@pytest.fixture(scope="session")
def store():
    return builtin_store()


@pytest.fixture(scope="session")
def off_line_store():
    """A tiny table with one zero off the half-line (at 3/4 + 20i)."""
    return ZeroStore([ZeroRecord(14.13), ZeroRecord(20.0, 0.75),
                      ZeroRecord(30.0)], "test")


@pytest.fixture(scope="session")
def tight():
    return EvalPrecision(abs_err=1e-12)


def _pin_node_by_node(self, xs, principal, depth, step=None, enter=None):
    """branch._Walk.pin as _pin alone: each node pinned from the last, the
    window moved and the previous G rebased first where given."""
    out = np.empty_like(principal)
    for j in range(xs.size):
        if enter is not None:
            enter(j)
        if step is not None:
            self.g_prev += complex(step[j])
        out[j] = self._pin(float(xs[j]), complex(principal[j]), depth)
    return out


@pytest.fixture
def node_by_node_pin():
    return _pin_node_by_node


@pytest.fixture
def slipped_branch(monkeypatch):
    """log zeta as the eta module reads it, off by 2 pi i above the real
    axis: the iterated sweep's anchor at u = 0 is untouched, and its end
    check at u = t sees the slip."""
    log_zeta = eta_module.log_zeta_with_err

    def slipped(s, prec=DEFAULT_PRECISION, store=None):
        val, est = log_zeta(s, prec, store)
        return (val + 2j * math.pi if s.imag > 0.0 else val), est

    monkeypatch.setattr(eta_module, "log_zeta_with_err", slipped)
