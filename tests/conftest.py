import os
import tempfile

import pytest
from hypothesis import HealthCheck, settings
from hypothesis.configuration import set_hypothesis_home_dir

from spdelab import stepper

# Hypothesis caches what it reads of local modules in its home directory,
# .hypothesis in the working directory unless set, while it collects the tests
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-home-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

# every property test is deterministic and writes no example database into
# the tree; each sets its own max_examples
settings.register_profile(
    "spdelab", derandomize=True, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("spdelab")


@pytest.fixture
def blocks_of_16(monkeypatch):
    """Sweeps in blocks of ``stepper.BLOCK_STEPS`` (16) fine steps on every
    mesh, for the tests that count blocks or put step edges inside them; by
    default a small mesh takes larger blocks, with the same bits."""
    monkeypatch.setattr(stepper, "BLOCK_VALUES", 0)


@pytest.fixture
def draws_on_the_caller(monkeypatch):
    """Sweeps that draw on the calling thread whatever their size, for the
    tests that count draws through a monkeypatched function: a sweep of
    ``stepper.FORK_NORMALS`` normals or more would draw in a forked child,
    whose counts never reach the test."""
    monkeypatch.setattr(stepper, "FORK_NORMALS", 2**62)


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    """Fail a test that leaves a child process unreaped: a sweep's draw
    child, a worker of a pool or a command's subprocess must all be reaped
    by the time the test ends."""
    yield
    try:
        pid, _status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a child process outlived the test ({'running' if pid == 0 else pid})")
