"""The benchmark's traced run wraps qkdsim functions where the package looks
them up (`perfbench/tracing.py`).  A refactor that renames or moves one of
them would silently drop its layer from the trace, so fail here instead."""
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import qkdsim.session
from qkdsim.config import Config, ControlConfig, SimConfig

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


# Steps, and the cadence of each loop in steps, chosen so that every loop
# runs a different number of times.
STEPS = 60
CADENCES = ControlConfig(stretcher_interval=2.0, epc_interval=3.0,
                         gate_interval=5.0, intensity_interval=7.0)
PER_STEP = ("step_drift", "apply_controls", "class_rates", "sample_tally")
FEEDBACK_CALLS = {"stretcher_feedback": 30,     # steps 0, 2, ..., 58
                  "polarization_feedback": 20,  # steps 0, 3, ..., 57
                  "gate_delay_feedback": 12,    # steps 2, 7, ..., 57
                  "intensity_feedback": 9}      # steps 0, 7, ..., 56


@pytest.mark.parametrize("loops", [True, False], ids=["loops-on", "loops-off"])
def test_step_layers_called_through_the_session_namespace(loops, monkeypatch):
    # A speed-up that inlined one of these layers into the step loop would
    # leave the traced run reporting no time for it.
    calls = Counter()
    for name in (*PER_STEP, *FEEDBACK_CALLS):
        def counted(*args, _fn=getattr(qkdsim.session, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(qkdsim.session, name, counted)
    qkdsim.session.run_session(
        Config(control=CADENCES,
               sim=SimConfig(duration=STEPS, stabilization_enabled=loops)))
    expected = {name: STEPS for name in PER_STEP}
    if loops:
        expected.update(FEEDBACK_CALLS)
    assert calls == expected
