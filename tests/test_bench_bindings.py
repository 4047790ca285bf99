"""Every function the traced benchmark wraps must exist where it looks for it.

``perfbench/tracing.py`` replaces each ``TARGETS`` entry under the name its
caller looks up; a refactor that drops or moves one of those bindings makes
the traced run report the layer as absent.  This test reads the table
(without changing anything) and resolves each entry the way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("name,module_name,attr", _targets())
def test_wrap_target_resolves(name, module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"{name}: {module_name}.{attr} not found"
