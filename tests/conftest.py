import pytest

from spdelab import stepper


@pytest.fixture
def blocks_of_16(monkeypatch):
    """Sweeps in blocks of ``stepper.BLOCK_STEPS`` (16) fine steps on every
    mesh, for the tests that count blocks or put step edges inside them; by
    default a small mesh takes larger blocks, with the same bits."""
    monkeypatch.setattr(stepper, "BLOCK_VALUES", 0)
