import math
import signal
from types import SimpleNamespace

import numpy as np
import pytest

from outagelab import mutual_info
from outagelab.mutual_info import EngineConfig


@pytest.fixture(scope="session")
def cfg():
    return EngineConfig()


@pytest.fixture(scope="session")
def fast_cfg():
    return EngineConfig(gh_order=16)


def db(x):
    return 10.0 ** (x / 10.0)


@pytest.fixture(scope="session")
def gamma_8db():
    return db(8.0)


@pytest.fixture
def hang_guard():
    """Fail a test whose call has not returned after 30 s, instead of hanging the run."""
    def expire(signum, frame):
        pytest.fail("no return within 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def kernel_work(monkeypatch):
    """Counts of the quadrature kernel's calls and of the fading rows they take.

    Both depend only on the inputs, not on the machine, so tests pin them.
    """
    work = SimpleNamespace(calls=0, rows=0)
    kernel = mutual_info._quad_nats_many

    def counted(points, probs, reps, rep_w, alphas, *args):
        work.calls += 1
        work.rows += alphas.shape[0]
        return kernel(points, probs, reps, rep_w, alphas, *args)

    monkeypatch.setattr(mutual_info, "_quad_nats_many", counted)
    return work
