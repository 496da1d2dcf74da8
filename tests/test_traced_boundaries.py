"""The benchmark's traced run wraps qkdsim functions where the package looks
them up (`perfbench/tracing.py`).  A refactor that renames or moves one of
them would silently drop its layer from the trace, so fail here instead."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing_module()


@pytest.mark.parametrize("name,modules", [(name, modules) for name, modules, _
                                          in tracing.BOUNDARIES],
                         ids=[name for name, _, _ in tracing.BOUNDARIES])
def test_traced_boundary_resolves(name, modules):
    attr = name.split(".", 1)[1]
    for module_name in modules:
        assert hasattr(importlib.import_module(module_name), attr), \
            f"{module_name}.{attr} is gone; the {name} layer is not traced"


def test_forward_beta_functions_resolve():
    special = importlib.import_module("qkdsim.finite_key").special
    for name in tracing.FORWARD:
        assert hasattr(special, name)
