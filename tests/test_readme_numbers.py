"""README's model numbers come from the code: each is computed here and
compared with README's text at the precision README prints it, so a change
that moves one fails until README says the new value.

The GLLP bound comes from the benchmark's own link model
(`perfbench/checks.py`, loaded read-only by path), the one place that
computes it.  The benchmark medians and traced times that README's
performance paragraphs cite are compared with the `BENCH_*.json` file that
each names.

Not checked here: the mean and standard deviation of the 36 h rate over
seeds 1-30, thirty 36 h sessions, which CI recomputes beside the 36 h
digests; only their agreement with seed 1's rate is checked here.
"""
import importlib.util
import inspect
import json
import re
import sys
from pathlib import Path

import numpy as np

from qkdsim import finite_key, optimizer, session
from qkdsim.channel import DriftState, class_rates
from qkdsim.cli import EXIT_OK, main
from qkdsim.finite_key import asymptotic_rate

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
N_PULSES = 1.2e12   # one 20-minute window at the GHz clock
BENCH = json.loads((ROOT / "BENCH_36.json").read_text())


def _says(phrase: str) -> None:
    # README breaks its lines anywhere, so compare with whitespace as spaces
    assert phrase in " ".join(README.split()), phrase


def test_gllp_bound(preset, monkeypatch):
    path = ROOT / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    # its dataclass looks its own module up by name while it is built
    monkeypatch.setitem(sys.modules, spec.name, checks)
    spec.loader.exec_module(checks)
    model = checks.link_model(preset.source, preset.link, preset.security)
    bits_per_s = model.gllp_per_pulse * preset.source.clock_rate
    _says(f"default link, is only {bits_per_s / 1e6:.3f} Mbit/s")


def _exponent(value: float) -> str:
    """`value` to one significant digit as README writes it: 9e-6."""
    return re.sub(r"e([+-])0*", r"e\1", f"{value:.0e}")


def test_link_defaults(preset):
    source, link, security = preset.source, preset.link, preset.security
    assert source.clock_rate == 1e9
    _says("The simulated system is a GHz-clocked phase-encoded link over "
          f"{link.fiber_length:g} km of {link.loss_coefficient:g} dB/km fiber "
          f"with gated single-photon detectors "
          f"({link.detector_efficiency:.1%} efficiency, "
          f"{_exponent(link.dark_count_prob)} dark counts per gate)")
    _says(f"A signal intensity of {source.mu:g} photons/pulse")
    _says(f"over its {preset.control.gate_interval:g} s interval")
    _says(f"one {preset.control.gate_step:g} ps dither move")
    _says(f"Every {security.distill_interval / 60:g} minutes")
    _says("composable security parameter of "
          f"{_exponent(security.epsilon)}")
    _says(f"At the defaults a {preset.sim.duration / 3600:g}-hour session")


def test_asymptotic_rate(preset):
    bits_per_s = asymptotic_rate(preset.source, preset.link,
                                 preset.security) * preset.source.clock_rate
    _says(f"(`asymptotic_rate`) is {bits_per_s / 1e6:.3f} Mbit/s")


def test_keyrate_efficiency(tmp_path):
    assert main(["keyrate", "--n-pulses", "1.2e12",
                 "--out", str(tmp_path)]) == EXIT_OK
    header, row = (tmp_path / "keyrate.csv").read_text().splitlines()
    efficiency = dict(zip(header.split(","), row.split(",")))["efficiency"]
    _says(f"already extract {float(efficiency):.1%} of the "
          "infinite-statistics key")
    _says(f"`keyrate` gives an `efficiency` of {efficiency} at 1.2e12 pulses")


def test_optimize_evaluations(preset, monkeypatch):
    ranked = []    # per objective call: was it ranked on an interval hook?
    intervals = {"wilson": 0, "clopper_pearson": 0}
    objective = optimizer.objective

    def counted(source, link, security, n_pulses, interval=None):
        ranked.append(interval is not None)
        return objective(source, link, security, n_pulses, interval)

    def counting(name, interval):
        def call(*args):
            intervals[name] += 1
            return interval(*args)
        return call

    monkeypatch.setattr(optimizer, "objective", counted)
    monkeypatch.setattr(optimizer, "wilson_interval",
                        counting("wilson", finite_key.wilson_interval))
    monkeypatch.setattr(finite_key, "clopper_pearson", counting(
        "clopper_pearson", finite_key.clopper_pearson))
    result = optimizer.optimize_source(preset.link, preset.security, N_PULSES)
    assert result.evaluations == len(ranked)
    sweeps = inspect.signature(optimizer.optimize_source).parameters[
        "sweeps"].default
    _says(f"`qkdsim optimize --n-pulses 1.2e12` makes {len(ranked):,} "
          f"evaluations of the finite-size rate in its default {sweeps} "
          "sweeps")
    _says(f"{sum(ranked):,} rank candidates and "
          f"{len(ranked) - sum(ranked):,} certify the result")
    _says(f"(`finite_key.wilson_interval`), {intervals['wilson']:,} "
          "intervals in all")
    _says(f"the start on a tie: {intervals['clopper_pearson']:,} "
          "Clopper-Pearson intervals")


def test_session_numbers(preset, full_run):
    result, _ = full_run
    summary = result.summary
    _says(f"sustains a mean of {summary.mean_secure_rate_bps / 1e6:.3f} "
          "Mbit/s of secure key (`qkdsim simulate --seed 1`;")
    _says(f"at a mean signal QBER of {summary.mean_qber_signal:.2%}")
    efficiency = np.mean([record.key.efficiency for record in result.records])
    _says(f"the {len(result.records)} windows of the seed-1 36 h `keys.csv` "
          f"average {efficiency:.4f}")
    (_, zero_drift_qber), *_ = class_rates(DriftState(), preset.source,
                                           preset.link)
    _says(f"a little above the {zero_drift_qber:.2%} that the default "
          "misalignment gives with no drift")


def test_seed_distribution_holds_seed_one(full_run):
    # CI recomputes the mean and standard deviation from 30 sessions; here
    # seed 1, one of them, must lie within three deviations of the mean
    found = re.search(r"over seeds 1–30, ([\d,]+) ± ([\d,]+) bit/s",
                      " ".join(README.split()))
    assert found, "README states no rate distribution over seeds 1–30"
    mean, stdev = (float(group.replace(",", "")) for group in found.groups())
    rate = full_run[0].summary.mean_secure_rate_bps
    assert abs(rate - mean) <= 3 * stdev


def test_telemetry_sizes(preset):
    steps = preset.session_steps()
    width = len(session.TelemetryRow._fields)
    _says(f"one {session._BLOCK:,}-row block at a time")
    _says(f"one array of {width} float64 cells per step, "
          f"{steps * width * 8 / 1e6:.1f} MB over the default 36 h "
          f"({steps:,} steps)")


def test_design_loop_wall_times():
    wall = BENCH["workloads"]["finite-key-design"]["metrics"]["wall_s"]
    _says(f"takes a median of {wall['change']['median']:.3f} s of wall "
          f"time per round over {len(wall['change_runs'])} runs "
          "(`BENCH_36.json`). A traced run of it")
    traced = BENCH["traced"]["change"]["finite-key-design"]["metrics"]
    _says(f"interval at {traced['finite_key.clopper_pearson_us']:.1f} µs, "
          f"with {traced['finite_key.forward_evals_per_cp']:.1f} evaluations "
          "of scipy's forward beta function (`BENCH_36.json`)")


def test_step_wall_times(full_run):
    workloads = BENCH["workloads"]
    rss = workloads["session-36h"]["metrics"]["peak_rss_mb"]["change"]
    traced = BENCH["traced"]["change"]["session-36h"]["metrics"]
    _says(f"reads a median peak of {rss['median']:.1f} MB of resident "
          "memory (`BENCH_36.json`), which does not count the writer, and "
          f"writes {traced['session.export_mb']:.1f} MB of files a session")
    wall = workloads["session-36h"]["metrics"]["wall_s"]
    _says(f"The workload takes a median of {wall['change']['median']:.3f} s "
          f"of wall time per round over {len(wall['change_runs'])} runs "
          "(`BENCH_36.json`)")
    wall = workloads["ensemble-sweep"]["metrics"]["wall_s"]
    _says(f"takes a median of {wall['change']['median']:.4f} s of wall time "
          f"per round over {len(wall['change_runs'])} runs (`BENCH_36.json`)")
    distill_s = (traced["session.distill_window_ms"]
                 * len(full_run[0].records) / 1e3)
    _says(f"A traced 36 h run (seed 1, `BENCH_36.json`) spends "
          f"{distill_s:.2f} s in distillation")
    _says("It splits one step into {:.1f} µs of count sampling (mostly its "
          "binomial draws), {:.1f} µs of feedback, {:.1f} µs of channel "
          "rates, {:.1f} µs of environment drift and {:.1f} µs in the loop "
          "itself".format(*(traced[name] for name in (
              "channel.sample_tally_us",
              "stabilization.feedback_us_per_step", "channel.class_rates_us",
              "stabilization.step_drift_us",
              "session.loop_self_us_per_step"))))
