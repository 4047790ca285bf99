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
