"""README's model numbers come from the code: each is computed here and
compared with README's text at the precision README prints it, so a change
that moves one fails until README says the new value.

The `finite-key-design` wall times that README cites from `BENCH_33.json`,
and the `session-36h` and `ensemble-sweep` ones from `BENCH_34.json`, are
compared with those files' medians.

Not checked here: the GLLP bound, which no function in `src/` computes,
and the times README cites from the other `BENCH_*.json` files.
"""
import json
from pathlib import Path

import numpy as np

from qkdsim import optimizer
from qkdsim.channel import DriftState, class_rates
from qkdsim.cli import EXIT_OK, main
from qkdsim.finite_key import asymptotic_rate

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
N_PULSES = 1.2e12   # one 20-minute window at the GHz clock


def _says(phrase: str) -> None:
    # README breaks its lines anywhere, so compare with whitespace as spaces
    assert phrase in " ".join(README.split()), phrase


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
    objective = optimizer.objective

    def counted(source, link, security, n_pulses, interval=None):
        ranked.append(interval is not None)
        return objective(source, link, security, n_pulses, interval)

    monkeypatch.setattr(optimizer, "objective", counted)
    result = optimizer.optimize_source(preset.link, preset.security, N_PULSES)
    assert result.evaluations == len(ranked)
    _says(f"`qkdsim optimize --n-pulses 1.2e12` makes {len(ranked):,} "
          "evaluations")
    _says(f"{sum(ranked):,} rank candidates and "
          f"{len(ranked) - sum(ranked):,} certify the result")


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


def test_design_loop_wall_times():
    bench = json.loads((ROOT / "BENCH_33.json").read_text())
    wall = bench["workloads"]["finite-key-design"]["metrics"]["wall_s"]
    _says(f"takes a median of {wall['change']['median']:.3f} s of wall time "
          f"per round over {len(wall['change_runs'])} runs (`BENCH_33.json`), "
          f"against {wall['parent']['median']:.3f} s in the same pairs")


def test_step_wall_times():
    bench = json.loads((ROOT / "BENCH_34.json").read_text())["workloads"]
    session = bench["session-36h"]["metrics"]["wall_s"]
    _says(f"In the pairs of `BENCH_34.json` it read a median of "
          f"{session['change']['median']:.3f} s over "
          f"{len(session['change_runs'])} runs, against "
          f"{session['parent']['median']:.3f} s before")
    wall = bench["ensemble-sweep"]["metrics"]["wall_s"]
    _says(f"takes a median of {wall['change']['median']:.4f} s of wall time "
          f"per round over {len(wall['change_runs'])} runs (`BENCH_34.json`), "
          f"against {wall['parent']['median']:.4f} s in the same pairs")
