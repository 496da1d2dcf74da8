"""The benchmark's `ensemble-sweep` workload runs sessions in-process and
reads what `run_session` returns through `perfbench/checks.py`: the record
tallies' `sifted_<class>` and `errors_<class>` fields, `rows[i].time_s` and
the summary.  It exits 1 if a check fails or an attribute it reads is gone,
so run the same check here on sessions of the same shape."""
import importlib.util
import sys
from pathlib import Path

import pytest

from qkdsim.config import Config, LinkConfig, SecurityConfig, SimConfig
from qkdsim.session import run_session

CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
WINDOW_S, WINDOWS = 120.0, 5


def _checks_module():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


checks = _checks_module()


@pytest.mark.parametrize("loops", [True, False], ids=["loops-on", "loops-off"])
@pytest.mark.parametrize("length", [9.0, 55.0, 110.0])
def test_ensemble_session_passes_benchmark_checks(length, loops):
    duration = WINDOW_S * WINDOWS
    config = Config(link=LinkConfig(fiber_length=length),
                    security=SecurityConfig(distill_interval=WINDOW_S),
                    sim=SimConfig(duration=duration,
                                  stabilization_enabled=loops))
    result = run_session(config, duration=duration, seed=int(length) + 1)
    output = checks.session_from_result(result)
    assert len(output.windows) == WINDOWS
    assert checks.check_session(output, config, duration) == []
