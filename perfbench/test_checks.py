"""Each output check of the benchmark rejects a corrupted output.

Run from the root of a source checkout:

    python3 -m pytest -q perfbench/test_checks.py

Every check test starts from a real output of the program, shows that the
check passes on it, then corrupts one thing and shows that the check fails.
The last tests cover the benchmark's own inputs and its timing scale
(speed.py).
"""
from __future__ import annotations

import copy
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from qkdsim import finite_key  # noqa: E402
from qkdsim.config import Config, LinkConfig, SimConfig  # noqa: E402
from qkdsim.session import run_session  # noqa: E402

DURATION = 3600.0   # three 20-minute windows


@pytest.fixture(scope="module")
def session_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("simulate")
    run.cli(["simulate", "--out", str(out), "--seed", "3",
             "--duration", repr(DURATION)])
    return ((out / "telemetry.csv").read_bytes(), (out / "keys.csv").read_text(),
            (out / "summary.txt").read_text())


def parse(telemetry: bytes, keys: str, summary: str) -> checks.SessionOutput:
    return checks.read_session_files(telemetry.splitlines(keepends=True),
                                     keys, summary)


@pytest.fixture
def output(session_files):
    return parse(*session_files)


def problems(output, config=None):
    return checks.check_session(output, config or Config(), DURATION)


def test_real_session_passes(output):
    assert problems(output) == []


def test_dropped_telemetry_row(session_files):
    telemetry, keys, summary = session_files
    lines = telemetry.splitlines(keepends=True)
    del lines[1000]
    assert problems(parse(b"".join(lines), keys, summary))


def test_truncated_telemetry_row(session_files):
    telemetry, keys, summary = session_files
    lines = telemetry.splitlines(keepends=True)
    lines[5] = lines[5].rsplit(b",", 1)[0] + b"\n"
    with pytest.raises(ValueError):
        parse(b"".join(lines), keys, summary)


def test_dropped_window(output):
    output.windows.pop()
    assert problems(output)


def test_secure_bits_above_the_gllp_bound(output):
    # keep every identity intact, so only the physics bound can object
    gllp = checks.link_model(Config().source, Config().link,
                             Config().security).gllp_per_pulse * 1e9
    w = output.windows[1]
    extra = int(1.01 * gllp * 1200.0) - w.secure_bits
    w.secure_bits += extra
    w.secure_rate_bps = w.secure_bits / 1200.0
    output.summary["total_secure_bits"] += extra
    total = output.summary["total_secure_bits"]
    output.summary["mean_secure_rate_bps"] = total / (3 * 1200.0)
    found = problems(output)
    assert found and all("GLLP" in p for p in found)


def test_total_bits_not_the_sum(output):
    output.summary["total_secure_bits"] += 1
    assert problems(output)


def test_mean_rate_not_total_over_window_time(output):
    output.summary["mean_secure_rate_bps"] *= 1.001
    assert problems(output)


def test_errors_above_sifted(output):
    w = output.windows[0]
    w.errors["nu2"] = w.sifted["nu2"] + 1
    assert problems(output)


def test_sifted_above_sent(output):
    output.windows[2].sifted["nu1"] = int(1e9 * 1200 * 0.0078) + 2
    assert problems(output)


def test_signal_gain_off_the_model(output):
    for w in output.windows:
        w.sifted["mu"] = int(w.sifted["mu"] * 0.97)
        w.errors["mu"] = int(w.errors["mu"] * 0.97)
    assert any("gain" in p for p in problems(output))


def test_stabilized_qber_off_target(output):
    # a link whose model QBER is far from what the session measured
    config = Config(link=LinkConfig(intrinsic_misalignment_error=0.05))
    assert any("QBER" in p for p in problems(output, config))


def test_summary_qber_not_errors_over_sifted(output):
    output.summary["mean_qber_signal"] *= 1.01
    assert problems(output)


def test_free_running_session_from_result():
    config = Config(sim=SimConfig(stabilization_enabled=False))
    result = run_session(config, duration=DURATION, seed=5)
    out = checks.session_from_result(result)
    assert checks.check_session(out, config, DURATION) == []
    result.rows.pop(7)
    out = checks.session_from_result(result)
    assert checks.check_session(out, config, DURATION)


def test_model_matches_the_paper_link():
    model = checks.link_model(Config().source, Config().link, Config().security)
    assert model.qber == pytest.approx(0.0385, abs=1e-9)
    assert model.gllp_per_pulse * 1e9 == pytest.approx(0.797e6, rel=1e-3)


CURVE = ([1e9, 1e11, 1.2e12, 1e13, 1e15], [0.23, 0.85, 0.976, 0.99, 0.9992])


def test_curve_passes():
    assert checks.check_efficiency_curve(*CURVE, 1e9, 1e15, 5) == []


def test_curve_order_swapped():
    ns, effs = copy.deepcopy(CURVE)
    effs[1], effs[2] = effs[2], effs[1]
    assert checks.check_efficiency_curve(ns, effs, 1e9, 1e15, 5)


def test_curve_efficiency_above_one():
    ns, effs = copy.deepcopy(CURVE)
    effs[-1] = 1.0001
    assert checks.check_efficiency_curve(ns, effs, 1e9, 1e15, 5)


def test_curve_far_from_one_at_1e15():
    ns, effs = copy.deepcopy(CURVE)
    effs[-1] = 0.985
    assert checks.check_efficiency_curve(ns, effs, 1e9, 1e15, 5)


def test_curve_missing_a_point():
    ns, effs = copy.deepcopy(CURVE)
    assert checks.check_efficiency_curve(ns[:-1], effs[:-1], 1e9, 1e15, 5)


def test_paper_efficiency():
    assert checks.check_paper_efficiency(0.976) == []
    assert checks.check_paper_efficiency(0.925)


BEST = {"mu": 0.55, "nu1": 0.1, "nu2": 0.0007,
        "p_mu": 0.98, "p_nu1": 0.013, "p_nu2": 0.007}


def optimum(best=BEST, rate=5.9e-4, start=5.7e-4):
    config = Config()
    return checks.check_optimum(best, rate, start, config.link, config.security)


def test_optimum_passes():
    assert optimum() == []


def test_optimum_breaks_intensity_order():
    assert optimum(best=dict(BEST, nu1=0.6))


def test_optimum_probabilities_not_a_distribution():
    assert optimum(best=dict(BEST, p_nu2=0.01))


def test_optimum_below_start():
    assert optimum(rate=5.6e-4)


def test_optimum_above_gllp():
    assert optimum(rate=1e-3)


def test_cp_endpoints_from_the_program_pass_and_tightened_ones_fail():
    eps = 1e-7 / 12
    calls = []
    for k, n in ((4_000_000, 1_186_000_000_000), (10, 1000), (0, 50), (50, 50)):
        b = finite_key.clopper_pearson(k, n, eps)
        calls.append((k, n, eps, b.lower, b.upper))
    assert checks.check_cp_endpoints(calls) == []
    k, n, _, lower, upper = calls[0]
    tight_lower = lower + 0.01 * (k / n - lower)
    assert checks.check_cp_endpoints([(k, n, eps, tight_lower, upper)])
    tight_upper = upper - 0.01 * (upper - k / n)
    assert checks.check_cp_endpoints([(k, n, eps, lower, tight_upper)])
    assert checks.check_cp_endpoints([(k, n, eps, k / n * 1.1, upper)])


def test_workload_inputs_depend_only_on_the_seed(tmp_path):
    for build in run.WORKLOADS.values():
        a, b = build(7, tmp_path), build(7, tmp_path)
        assert a.inputs == b.inputs
        assert a.inputs != build(8, tmp_path).inputs


def test_kernel_mean_leaves_out_stalled_runs():
    # 4 ms is the slow state of a 2 ms kernel; 50 ms is a stall.
    assert speed.kernel_mean([2e-3, 4e-3, 50e-3]) == pytest.approx(3e-3)


def test_sampler_takes_its_handler_off_the_operation():
    sampler = speed.Sampler()
    busy = run.Op("busy", lambda: sum(i * i for i in range(3_000_000)),
                  lambda raw: raw, lambda out: [])
    start = time.perf_counter()
    ok, _, elapsed = run.call(busy, [], sampler)
    total = time.perf_counter() - start
    assert ok and sampler.during and sampler.handler_s > 0
    assert elapsed == pytest.approx(total - sampler.handler_s, abs=0.02)
