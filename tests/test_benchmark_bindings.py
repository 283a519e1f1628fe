"""The benchmark's tracer wraps trigme attributes by name; every one it
names must stay bound in its owner, even where trigme itself no longer
calls through it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("modname, dotted, span", _targets())
def test_every_traced_target_resolves(modname, dotted, span):
    owner = importlib.import_module(modname)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert attr in owner.__dict__, f"{modname}.{dotted} ({span})"
