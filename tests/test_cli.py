import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qkdsim import cli, optimizer, session
from qkdsim.cli import (COMMAND_FLAGS, EXIT_CONFIG_FILE, EXIT_IO, EXIT_OK,
                        EXIT_USAGE, EXIT_VALIDATION, MAX_POINTS, MAX_SWEEPS,
                        main, parse_command)
from qkdsim.config import DEFAULT_MISALIGNMENT, config_keys, load_config
from qkdsim.finite_key import expectation_tally


def test_parse_simulate_with_session_overrides():
    # --seed is the second spelling of --rng-seed
    req = parse_command(["simulate", "--duration", "129600", "--seed", "7"])
    assert req.subcommand == "simulate"
    assert req.overrides == {"duration": "129600", "rng_seed": "7"}


def test_parse_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        parse_command([])
    assert exc.value.code == 2


def test_parse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        parse_command(["frobnicate"])
    assert exc.value.code == 2


def test_every_config_key_has_an_override_flag():
    req = parse_command(["keyrate", "--mu", "0.6", "--fiber-length", "25",
                         "--stabilization-enabled", "false"])
    assert req.overrides == {"mu": "0.6", "fiber_length": "25",
                            "stabilization_enabled": "false"}


@pytest.mark.parametrize("value", ["-1e6", "-1e-3"])
def test_negative_value_in_exponent_form_follows_its_flag(value):
    req = parse_command(["simulate", "--timing-drift-rate", value])
    assert req.overrides == {"timing_drift_rate": value}


@pytest.mark.parametrize("sub,defaults", [
    ("simulate", {}),
    ("keyrate", {"n_pulses": 1.2e12, "tally_file": None}),
    ("efficiency-curve", {"min_pulses": 1e9, "max_pulses": 1e15, "points": 20}),
    ("optimize", {"n_pulses": 1.2e12, "sweeps": 8}),
    ("calibrate", {"target_qber": 0.0385}),
])
def test_parse_carries_subcommand_defaults_and_runner(sub, defaults):
    # each setting's default is declared once, in its add_argument call
    req = parse_command([sub])
    assert {name: getattr(req, name) for name in defaults} == defaults
    assert callable(req.run)
    assert req.overrides == {} and req.config is None and req.out == "."


def test_simulate_writes_outputs_and_summary(tmp_path, capsys):
    status = main(["simulate", "--out", str(tmp_path), "--duration", "2400",
                   "--seed", "3"])
    assert status == EXIT_OK
    assert (tmp_path / "telemetry.csv").exists()
    assert (tmp_path / "keys.csv").exists()
    assert (tmp_path / "summary.txt").exists()
    out = capsys.readouterr().out
    assert "total_secure_bits: " in out
    assert "windows: 2" in out


def test_simulate_byte_identical_for_same_seed(tmp_path, capsys):
    for d in ("a", "b"):
        assert main(["simulate", "--out", str(tmp_path / d), "--duration",
                     "1200", "--seed", "9"]) == EXIT_OK
    for name in ("telemetry.csv", "keys.csv", "summary.txt"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_invalid_override_exits_with_validation_status(tmp_path, capsys):
    status = main(["simulate", "--out", str(tmp_path), "--mu=-1"])
    assert status == EXIT_VALIDATION
    assert "mu must exceed nu1" in capsys.readouterr().err


def test_negative_seed_names_rng_seed(tmp_path, capsys):
    status = main(["simulate", "--out", str(tmp_path), "--duration", "10",
                   "--seed=-1"])
    assert status == EXIT_VALIDATION
    assert "rng_seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "telemetry.csv").exists()


def test_loops_on_and_off_runs_share_one_drift_path(tmp_path, capsys):
    # the stabilized-versus-free-running comparison: two simulate runs with
    # one seed write telemetry that lines up step for step
    columns = {}
    for loops in ("true", "false"):
        assert main(["simulate", "--out", str(tmp_path / loops), "--duration",
                     "600", "--seed", "1", "--stabilization-enabled",
                     loops]) == EXIT_OK
        lines = (tmp_path / loops / "telemetry.csv").read_text().splitlines()
        hidden = [i for i, name in enumerate(lines[0].split(","))
                  if name.startswith("hidden_")]
        columns[loops] = [[line.split(",")[i] for i in hidden]
                          for line in lines]
    assert len(hidden) == 4 and len(columns["true"]) == 601
    assert columns["true"] == columns["false"]


def test_missing_config_file_exits_with_config_status(tmp_path, capsys):
    status = main(["keyrate", "--config", str(tmp_path / "absent.cfg"),
                   "--out", str(tmp_path)])
    assert status == EXIT_CONFIG_FILE


def _read_config(path):
    """The configuration of a config file that has no problem."""
    problems: list[str] = []
    config = load_config(path, {}, problems)
    assert problems == []
    return config


def test_flag_overrides_beat_config_file(tmp_path, capsys):
    cfg = tmp_path / "link.cfg"
    cfg.write_text("mu = 0.6\nfiber_length = 25\n")
    status = main(["calibrate", "--config", str(cfg), "--mu", "0.7",
                   "--out", str(tmp_path)])
    assert status == EXIT_OK
    written = _read_config(tmp_path / "calibrated.cfg")
    assert written.source.mu == 0.7
    assert written.link.fiber_length == 25.0


def test_keyrate_default_window(tmp_path, capsys):
    status = main(["keyrate", "--out", str(tmp_path)])
    assert status == EXIT_OK
    out = capsys.readouterr().out
    assert "secure_bits: " in out
    efficiency = float(out.split("efficiency: ")[1].splitlines()[0])
    # a 20-minute window at the GHz clock extracts close to the
    # infinite-session key
    assert efficiency == pytest.approx(0.96, abs=0.03)
    header = (tmp_path / "keyrate.csv").read_text().splitlines()[0]
    assert header.startswith("secure_bits,")


def test_keyrate_accepts_a_duration_no_session_could_hold(tmp_path, capsys):
    # keyrate runs no session, so the session's step limit does not apply
    assert main(["keyrate", "--duration", "1e12", "--out", str(tmp_path)]) \
        == EXIT_OK
    assert (tmp_path / "keyrate.csv").exists()


def test_keyrate_from_tally_file(tmp_path, capsys, preset):
    tally = expectation_tally(1.2e12, preset.source, preset.link)
    lines = [f"{name} = {getattr(tally, name)}"
             for name in ("sent_mu", "sifted_mu", "errors_mu", "sent_nu1",
                          "sifted_nu1", "errors_nu1", "sent_nu2",
                          "sifted_nu2", "errors_nu2")]
    tally_file = tmp_path / "counts.txt"
    tally_file.write_text("\n".join(lines) + "\n")

    assert main(["keyrate", "--out", str(tmp_path / "file"),
                 "--tally-file", str(tally_file)]) == EXIT_OK
    from_file = capsys.readouterr().out
    assert main(["keyrate", "--out", str(tmp_path / "exp"),
                 "--n-pulses", "1.2e12"]) == EXIT_OK
    from_expectation = capsys.readouterr().out
    assert from_file == from_expectation


def test_keyrate_rejects_inconsistent_tally(tmp_path, capsys, preset):
    bad = _write_tally(tmp_path / "bad.txt", preset,
                       extra=["sent_mu = 100", "sifted_mu = 200",
                              "errors_mu = 1"],
                       drop=["sent_mu", "sifted_mu", "errors_mu"])
    _assert_rejected(["keyrate", "--out", str(tmp_path), "--tally-file",
                      str(bad)], capsys,
                     f"{bad}: tally invariant violated for class mu: "
                     f"sent=100 sifted=200 errors=1")
    assert not (tmp_path / "keyrate.csv").exists()


def test_efficiency_curve_monotone(tmp_path, capsys):
    status = main(["efficiency-curve", "--out", str(tmp_path),
                   "--min-pulses", "1e10", "--max-pulses", "1e13",
                   "--points", "4"])
    assert status == EXIT_OK
    lines = (tmp_path / "efficiency_curve.csv").read_text().splitlines()
    assert lines[0] == "n_pulses,efficiency"
    effs = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(effs) == 4
    assert all(b >= a for a, b in zip(effs, effs[1:]))


def test_optimize_writes_report_and_config(tmp_path, capsys):
    status = main(["optimize", "--out", str(tmp_path), "--sweeps", "1",
                   "--n-pulses", "1e12"])
    assert status == EXIT_OK
    report = (tmp_path / "optimize.txt").read_text()
    assert float(report.split("rate_bits_per_pulse: ")[1].splitlines()[0]) > 0
    best = _read_config(tmp_path / "best_config.cfg")
    best.validated()
    assert best.source.mu > best.source.nu1


def test_calibrate_reproduces_shipped_default(tmp_path, capsys):
    status = main(["calibrate", "--out", str(tmp_path)])
    assert status == EXIT_OK
    out = capsys.readouterr().out
    value = float(out.split("intrinsic_misalignment_error: ")[1])
    assert value == pytest.approx(DEFAULT_MISALIGNMENT, abs=1e-8)
    _read_config(tmp_path / "calibrated.cfg").validated()


def test_unwritable_output_exits_with_io_status(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    status = main(["calibrate", "--out", str(blocker / "nested")])
    assert status == EXIT_IO


def test_simulate_failing_at_keys_csv_leaves_no_telemetry(tmp_path, capsys):
    (tmp_path / "keys.csv").mkdir()
    status = main(["simulate", "--out", str(tmp_path), "--duration", "1200"])
    assert status == EXIT_IO
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keys.csv"]


def _no_work(*args, **kwargs):
    raise AssertionError("the work started before its inputs were checked")


@pytest.mark.parametrize("argv,work", [
    (["simulate", "--duration", "1200"], "qkdsim.session.step_drift"),
    (["optimize"], "qkdsim.optimizer.optimize_source"),
])
def test_unwritable_output_exits_before_any_work(tmp_path, capsys,
                                                 monkeypatch, argv, work):
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    monkeypatch.setattr(work, _no_work)
    assert main([*argv, "--out", str(blocker / "sub")]) == EXIT_IO
    assert "failed writing output under" in capsys.readouterr().err


GATE_SIGMA = "gate_sigma must be in [0.001, 1e+06] (ps)"
EC_EFFICIENCY = "ec_efficiency must be in [1, 10] (x Shannon limit)"
MU = "mu must be in (0, 100] (photons/pulse)"


# Each of these overflowed or divided by zero in the model's arithmetic, and
# ended in a traceback, before the keys had declared ranges.
@pytest.mark.parametrize("argv,message", [
    (["simulate", "--laser-power-diffusion", "1e6"],
     "laser_power_diffusion must be in [0, 1e-05] (1/s), got 1000000.0"),
    (["simulate", "--laser-power-diffusion", "1e17"],
     "laser_power_diffusion must be in [0, 1e-05] (1/s), got 1e+17"),
    (["simulate", "--timing-drift-rate", "1e300"],
     "timing_drift_rate must be in [-1e+06, 1e+06] (ps/s), got 1e+300"),
    (["simulate", "--gate-step", "1e300"],
     "gate_step must be in (0, 1e+06] (ps), got 1e+300"),
    *[([command, "--gate-sigma", "1e-300"], f"{GATE_SIGMA}, got 1e-300")
      for command in ("simulate", "keyrate", "optimize", "efficiency-curve")],
    *[([command, "--gate-sigma", "1e300"], f"{GATE_SIGMA}, got 1e+300")
      for command in ("simulate", "keyrate")],
    *[([command, "--ec-efficiency", "1e300"], f"{EC_EFFICIENCY}, got 1e+300")
      for command in ("keyrate", "optimize", "efficiency-curve")],
    (["keyrate", "--mu", "1e17"], f"{MU}, got 1e+17"),
    (["keyrate", "--mu", "1e300", "--nu1", "1"], f"{MU}, got 1e+300"),
    (["keyrate", "--epsilon", "1e-320"],
     "epsilon must be in [1e-300, 1) (probability), got 1e-320"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_key_outside_its_range_exits_before_any_work(tmp_path, capsys,
                                                     monkeypatch, argv,
                                                     message):
    for work in ("qkdsim.session.step_drift", "qkdsim.finite_key.distill",
                 "qkdsim.optimizer.optimize_source",
                 "qkdsim.channel.calibrate_misalignment"):
        monkeypatch.setattr(work, _no_work)
    _assert_rejected([*argv, "--out", str(tmp_path / "out")], capsys, message)
    assert not (tmp_path / "out").exists()


def test_simulate_failing_mid_run_leaves_no_output(tmp_path, capsys,
                                                   monkeypatch):
    distill = session.distill_window
    windows = []

    def fail_second_window(*args):
        windows.append(args)
        if len(windows) == 2:
            raise RuntimeError("second window")
        return distill(*args)

    monkeypatch.setattr(session, "distill_window", fail_second_window)
    with pytest.raises(RuntimeError, match="second window"):
        main(["simulate", "--out", str(tmp_path / "out"), "--duration", "3600"])
    assert len(windows) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device whose writes fail")
def test_simulate_failing_telemetry_write_leaves_no_output(tmp_path, capsys):
    # every write to /dev/full fails with ENOSPC
    (tmp_path / "telemetry.csv").symlink_to("/dev/full")
    status = main(["simulate", "--out", str(tmp_path), "--duration", "1200"])
    assert status == EXIT_IO
    assert "No space left on device" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_config_file_not_utf8_exits_with_config_status(tmp_path, capsys):
    cfg = tmp_path / "link.cfg"
    cfg.write_bytes(b"mu = 0.6\nfiber_length = 2\xff5\n")
    assert main(["calibrate", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_CONFIG_FILE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "not UTF-8 text" in err
    assert not (tmp_path / "calibrated.cfg").exists()


def test_config_file_repeated_key_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "link.cfg"
    cfg.write_text("mu = 0.6\nfiber_length = 25\nmu = 0.7\n")
    _assert_rejected(["calibrate", "--config", str(cfg), "--out",
                      str(tmp_path)], capsys, f"{cfg}:3: repeated key 'mu'")
    assert not (tmp_path / "calibrated.cfg").exists()


def test_keyrate_takes_n_pulses_or_tally_file_not_both(tmp_path, capsys,
                                                       preset):
    counts = _write_tally(tmp_path / "counts.txt", preset)
    with pytest.raises(SystemExit) as exc:
        main(["keyrate", "--out", str(tmp_path), "--tally-file", str(counts),
              "--n-pulses", "1e300"])
    assert exc.value.code == EXIT_USAGE
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "keyrate.csv").exists()


def _assert_rejected(argv, capsys, message):
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("flag,value,message", [
    ("--num-detectors", "2.5", "num_detectors must be an integer, got '2.5'"),
    ("--mu", "half", "mu must be a number, got 'half'"),
])
def test_malformed_number_names_the_kind_expected(tmp_path, capsys, flag,
                                                  value, message):
    _assert_rejected(["simulate", "--out", str(tmp_path), flag, value],
                     capsys, message)


@pytest.mark.parametrize("argv,message", [
    (["keyrate", "--n-pulses", "x"], "--n-pulses must be a number, got 'x'"),
    (["optimize", "--sweeps", "1.5"],
     "--sweeps must be an integer, got '1.5'"),
    (["efficiency-curve", "--points", "2e3"],
     "--points must be an integer, got '2e3'"),
    (["calibrate", "--target-qber", ""],
     "--target-qber must be a number, got ''"),
])
def test_malformed_command_flag_exits_with_validation_status(
        tmp_path, capsys, argv, message):
    # argparse's own type check exited 2, with a message of its own
    _assert_rejected([*argv, "--out", str(tmp_path / "out")], capsys, message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["x", "1.5", "-1"])
def test_seed_is_a_second_spelling_of_rng_seed(tmp_path, capsys, value):
    errors = []
    for flag in ("--seed", "--rng-seed"):
        assert main(["simulate", "--out", str(tmp_path), "--duration", "10",
                     f"{flag}={value}"]) == EXIT_VALIDATION
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and "rng_seed must be" in errors[0]


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_help_lists_every_flag_with_its_unit_and_range(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = " ".join(capsys.readouterr().out.split())
    for key in [*config_keys(), *COMMAND_FLAGS[command]]:
        assert f"{key.unit}, {key.range} (default: {key.default})" in out


HELP_LINES = {
    "simulate": "run a closed-loop session",
    "keyrate": "distill a single window",
    "efficiency-curve": "key-extraction efficiency vs. pulse count",
    "optimize": "optimize source parameters",
    "calibrate": "solve intrinsic misalignment for a target QBER",
}


def test_help_lists_every_subcommand_with_its_help_line(capsys):
    assert set(HELP_LINES) == set(COMMAND_FLAGS)
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == EXIT_OK
    out = " ".join(capsys.readouterr().out.split())
    for command, about in HELP_LINES.items():
        assert f"{command} {about}" in out


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_one_parse_adds_the_inputs_of_its_own_command_alone(monkeypatch,
                                                            command):
    # building every command's arguments took three times as long as
    # building one, on each call of the program
    added, add_input = [], cli._add_input

    def counted(parser, key, *flags, **kwargs):
        added.append(key.name)
        return add_input(parser, key, *flags, **kwargs)
    monkeypatch.setattr(cli, "_add_input", counted)
    parse_command([command])
    assert sorted(added) == sorted(
        key.name for key in [*config_keys(), *COMMAND_FLAGS[command]])


def _write_tally(path, preset, extra=(), drop=()):
    tally = expectation_tally(1.2e12, preset.source, preset.link)
    lines = [f"{name} = {getattr(tally, name)}"
             for name in ("sent_mu", "sifted_mu", "errors_mu", "sent_nu1",
                          "sifted_nu1", "errors_nu1", "sent_nu2",
                          "sifted_nu2", "errors_nu2") if name not in drop]
    path.write_text("\n".join([*lines, *extra]) + "\n")
    return path


def test_keyrate_rejects_unknown_tally_key(tmp_path, capsys, preset):
    counts = _write_tally(tmp_path / "counts.txt", preset,
                          extra=["sent_mu_typo = 5"])
    _assert_rejected(["keyrate", "--out", str(tmp_path), "--tally-file",
                      str(counts)], capsys, "unknown key 'sent_mu_typo'")
    assert not (tmp_path / "keyrate.csv").exists()


def test_keyrate_rejects_repeated_tally_key(tmp_path, capsys, preset):
    counts = _write_tally(tmp_path / "counts.txt", preset,
                          extra=["sent_mu = 1.3e12"])
    _assert_rejected(["keyrate", "--out", str(tmp_path), "--tally-file",
                      str(counts)], capsys, f"{counts}:10: repeated key "
                                            f"'sent_mu'")
    assert not (tmp_path / "keyrate.csv").exists()


def test_keyrate_rejects_missing_tally_key(tmp_path, capsys, preset):
    counts = _write_tally(tmp_path / "counts.txt", preset, drop=["errors_nu2"])
    _assert_rejected(["keyrate", "--out", str(tmp_path), "--tally-file",
                      str(counts)], capsys, "missing tally keys: errors_nu2")
    assert not (tmp_path / "keyrate.csv").exists()


@pytest.mark.parametrize("points", ["0", "-3"])
def test_efficiency_curve_rejects_non_positive_points(tmp_path, capsys, points):
    _assert_rejected(["efficiency-curve", "--out", str(tmp_path),
                      "--points", points], capsys,
                     f"--points must be in [1, 100000] (grid points), "
                     f"got {points}")
    assert not (tmp_path / "efficiency_curve.csv").exists()


@pytest.mark.parametrize("points", [str(MAX_POINTS + 1), "100000000000",
                                    "99999999999999999999"])
def test_efficiency_curve_rejects_points_above_its_bound(tmp_path, capsys,
                                                         points):
    # numpy could not allocate the grid, or named no flag in its message
    _assert_rejected(["efficiency-curve", "--out", str(tmp_path / "out"),
                      "--points", points], capsys,
                     f"--points must be in [1, 100000] (grid points), "
                     f"got {points}")
    assert not (tmp_path / "out").exists()
    with pytest.raises(SystemExit):
        main(["efficiency-curve", "--help"])
    assert "grid points, in [1, 100000] (default: 20)" in " ".join(
        capsys.readouterr().out.split())


def test_efficiency_curve_rejects_reversed_range(tmp_path, capsys):
    _assert_rejected(["efficiency-curve", "--out", str(tmp_path),
                      "--min-pulses", "1e13", "--max-pulses", "1e10"], capsys,
                     "--min-pulses must not exceed --max-pulses")


def test_efficiency_curve_rejects_one_point_over_a_range(tmp_path, capsys):
    # one grid point cannot span two budgets
    _assert_rejected(["efficiency-curve", "--out", str(tmp_path),
                      "--points", "1", "--min-pulses", "1e9",
                      "--max-pulses", "1e15"], capsys,
                     "--points 1 needs --min-pulses equal to --max-pulses")
    assert not (tmp_path / "efficiency_curve.csv").exists()


@pytest.mark.parametrize("flag,value", [("--min-pulses", "0"),
                                        ("--min-pulses", "-1e9"),
                                        ("--max-pulses", "inf")])
def test_efficiency_curve_rejects_non_positive_pulses(tmp_path, capsys, flag,
                                                      value):
    finite = "finite and " if value == "inf" else ""
    _assert_rejected(["efficiency-curve", "--out", str(tmp_path),
                      f"{flag}={value}"], capsys,
                     f"{flag} must be {finite}in (0, 1e+15] (pulses), "
                     f"got {float(value)!r}")


@pytest.mark.parametrize("value", ["nan", "-inf"])
def test_calibrate_rejects_non_finite_target(tmp_path, capsys, value):
    # every comparison with NaN is false: the check must be written to fail it
    _assert_rejected(["calibrate", "--out", str(tmp_path),
                      f"--target-qber={value}"], capsys,
                     f"--target-qber must be finite and in [0, 0.5] "
                     f"(probability), got {value}")
    assert not (tmp_path / "calibrated.cfg").exists()


def test_optimize_rejects_negative_sweeps(tmp_path, capsys):
    _assert_rejected(["optimize", "--out", str(tmp_path / "new"), "--sweeps",
                      "-1"], capsys, "--sweeps must be in [0, 1000] "
                                     "(coordinate-descent passes), got -1")
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("sweeps", [str(MAX_SWEEPS + 1), "1000000000"])
def test_optimize_rejects_sweeps_above_its_bound(tmp_path, capsys,
                                                 monkeypatch, sweeps):
    # rejected before the search starts: it would run for months
    def unstarted(*args, **kwargs):
        raise AssertionError("the search started")
    monkeypatch.setattr(optimizer, "optimize_source", unstarted)
    _assert_rejected(["optimize", "--out", str(tmp_path / "new"), "--sweeps",
                      sweeps], capsys,
                     f"--sweeps must be in [0, 1000] (coordinate-descent "
                     f"passes), got {sweeps}")
    assert not (tmp_path / "new").exists()
    with pytest.raises(SystemExit):
        main(["optimize", "--help"])
    assert "coordinate-descent passes, in [0, 1000] (default: 8)" in " ".join(
        capsys.readouterr().out.split())


@pytest.mark.parametrize("flag,key", [("--duration", "duration"),
                                      ("--time-step", "time_step"),
                                      ("--clock-rate", "clock_rate")])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_simulate_rejects_non_finite_settings(tmp_path, capsys, flag, key,
                                              value):
    _assert_rejected(["simulate", "--out", str(tmp_path), f"{flag}={value}"],
                     capsys, f"{key} must be finite")
    assert not (tmp_path / "telemetry.csv").exists()


@pytest.mark.parametrize("flags,message", [
    # numpy draws from the per-step sent count as a C long
    (["--clock-rate", "1e19", "--duration", "5"],
     "pulses of class mu per step; must be < 2**63"),
    # a step count that overflows an int
    (["--duration", "1e308", "--time-step", "1e-300"],
     "duration / time_step must be finite"),
    (["--distill-interval", "inf"], "distill_interval must be finite"),
    (["--epc-interval", "1e308", "--time-step", "1e-10"],
     "epc_interval / time_step must be finite"),
    # more steps than a session may hold, each one a telemetry row
    (["--time-step", "1e-6", "--duration", "60"],
     "duration / time_step = 60000000 steps; must lie in [0, 10,000,000]"),
    (["--time-step", "1e-3", "--duration", "1e9"],
     "duration / time_step = 1e+12 steps"),
    # more pulses of a class in one window than the bounds are tested to
    (["--clock-rate", "1e13", "--duration", "1200"],
     "p_mu = 1.19e+16 pulses of class mu per distillation window; must be "
     "<= 1e+15"),
])
def test_simulate_rejects_counts_it_cannot_hold(tmp_path, capsys, flags,
                                                message):
    _assert_rejected(["simulate", "--out", str(tmp_path), *flags], capsys,
                     message)


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--clock-rate", "0.01", "--duration", "600",
      "--distill-interval", "120"],
     "clock_rate * distill_interval * p_nu1 = 0.00936: class nu1 gets no "
     "pulses in a distillation window"),
    (["keyrate", "--n-pulses", "1"], "--n-pulses 1 gives class nu1 no pulses"),
    (["optimize", "--n-pulses", "10"],
     "--n-pulses 10 gives class nu1 no pulses"),
    (["efficiency-curve", "--min-pulses", "100", "--max-pulses", "1e12"],
     "--min-pulses 100 gives class nu2 no pulses"),
])
def test_class_without_pulses_rejected_before_any_work(
        tmp_path, capsys, monkeypatch, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the input was rejected")
    monkeypatch.setattr("qkdsim.session.step_drift", no_work)
    monkeypatch.setattr("qkdsim.finite_key.clopper_pearson", no_work)
    _assert_rejected([*argv, "--out", str(tmp_path / "out")], capsys, message)
    assert not (tmp_path / "out").exists()


def test_keyrate_rejects_tally_without_pulses(tmp_path, capsys, preset):
    counts = _write_tally(tmp_path / "counts.txt", preset,
                          extra=["sent_nu2 = 0", "sifted_nu2 = 0",
                                 "errors_nu2 = 0"],
                          drop=["sent_nu2", "sifted_nu2", "errors_nu2"])
    # a class that sent no pulses is outside sent_nu2's declared range
    _assert_rejected(["keyrate", "--out", str(tmp_path), "--tally-file",
                      str(counts)], capsys,
                     f"{counts}: sent_nu2 must be in [1, 1e+15] (pulses), "
                     f"got 0")


@pytest.mark.parametrize("argv,message", [
    (["keyrate", "--n-pulses=1e300"],
     "--n-pulses must be in (0, 1e+15] (pulses), got 1e+300"),
    (["optimize", "--n-pulses=1.000001e15"],
     "--n-pulses must be in (0, 1e+15] (pulses), got 1000001000000000.0"),
    (["efficiency-curve", "--max-pulses=1e16"],
     "--max-pulses must be in (0, 1e+15] (pulses), got 1e+16"),
])
def test_pulse_budget_above_max_pulses_rejected_before_any_work(
        tmp_path, capsys, monkeypatch, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the input was rejected")
    monkeypatch.setattr("qkdsim.finite_key.clopper_pearson", no_work)
    _assert_rejected([*argv, "--out", str(tmp_path)], capsys, message)


def test_max_pulses_itself_is_accepted(tmp_path, capsys):
    # the limit is efficiency-curve's default --max-pulses
    assert main(["efficiency-curve", "--out", str(tmp_path),
                 "--min-pulses", "1e15", "--points", "1"]) == EXIT_OK
    assert main(["keyrate", "--out", str(tmp_path),
                 "--n-pulses", "1e15"]) == EXIT_OK


@pytest.mark.parametrize("line,message", [
    ("errors_mu = 104000000.9",
     "errors_mu must be a whole number, got '104000000.9'"),
    ("sent_nu1 = 2e15",
     "sent_nu1 must be in [1, 1e+15] (pulses), got 2000000000000000"),
    ("sifted_nu2 = inf", "sifted_nu2 must be a whole number, got 'inf'"),
])
def test_keyrate_rejects_tally_count_it_cannot_use(tmp_path, capsys, preset,
                                                   line, message):
    key = line.split(" = ")[0]
    counts = _write_tally(tmp_path / "counts.txt", preset, extra=[line],
                          drop=[key])
    _assert_rejected(["keyrate", "--out", str(tmp_path), "--tally-file",
                      str(counts)], capsys, f"{counts}: {message}")
    assert not (tmp_path / "keyrate.csv").exists()


@pytest.mark.parametrize("argv,lines,messages", [
    (["keyrate", "--mu", "x", "--nu1", "y"], [],
     ["mu must be a number, got 'x'", "nu1 must be a number, got 'y'"]),
    (["efficiency-curve", "--points", "0", "--min-pulses", "-1", "--mu", "-1"],
     [], ["--points must be in [1, 100000] (grid points), got 0",
          "--min-pulses must be in (0, 1e+15] (pulses), got -1.0",
          "mu must be in (0, 100] (photons/pulse), got -1.0"]),
    (["keyrate", "--config", "{file}"], ["mu = x", "nu1 = y"],
     ["mu must be a number, got 'x'", "nu1 must be a number, got 'y'"]),
    (["keyrate", "--tally-file", "{file}"],
     ["errors_mu = 1.5", "sifted_nu1 = x", "sent_nu2 = 0"],
     ["{file}: errors_mu must be a whole number, got '1.5'",
      "{file}: sifted_nu1 must be a whole number, got 'x'",
      "{file}: sent_nu2 must be in [1, 1e+15] (pulses), got 0"]),
    (["keyrate", "--tally-file", "{file}"], ["errors_mu = -5"],
     ["{file}: errors_mu must be in [0, 1e+15] (sifted errors), got -5"]),
], ids=["flags", "flags-and-keys", "config-file", "tally-file",
        "negative-count"])
def test_every_bad_value_is_named_at_once(tmp_path, capsys, preset, argv,
                                          lines, messages):
    # `lines` are a config file's, or replace those of a whole tally file
    path = tmp_path / "input.txt"
    if "--tally-file" in argv:
        _write_tally(path, preset, extra=lines,
                     drop=[line.split(" = ")[0] for line in lines])
    else:
        path.write_text("".join(line + "\n" for line in lines))
    argv = [arg.replace("{file}", str(path)) for arg in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    for message in messages:
        assert message.replace("{file}", str(path)) in err
    assert not (tmp_path / "out").exists()


# Command lines with one input file's text, and every problem they name.
FILE_AND_FLAG_PROBLEMS = [
    (["keyrate", "--config", "{file}", "--nu2", "z"], "mu = x\nnu1 = y\n",
     ["{file}: mu must be a number, got 'x'",
      "{file}: nu1 must be a number, got 'y'",
      "nu2 must be a number, got 'z'"]),
    (["keyrate", "--config", "{file}"], "mu = x\nbogus = 1\n",
     ["{file}:2: unknown key 'bogus'", "{file}: mu must be a number, got 'x'"]),
    (["keyrate", "--tally-file", "{file}"], "sent_mu = x\n",
     ["{file}: sent_mu must be a whole number, got 'x'",
      "{file}: missing tally keys: sifted_mu, errors_mu, sent_nu1, "
      "sifted_nu1, errors_nu1, sent_nu2, sifted_nu2, errors_nu2"]),
    (["keyrate", "--config", "{file}"], "mu = -1\n",
     ["{file}: mu must be in (0, 100] (photons/pulse), got -1.0",
      "mu must exceed nu1"]),
    (["keyrate", "--config", "{file}", "--mu", "-1"], "nu1 = y\n",
     ["{file}: nu1 must be a number, got 'y'",
      "mu must be in (0, 100] (photons/pulse), got -1.0"]),
    (["keyrate", "--config", "{file}", "--mu", "0.6"], "mu = -1\n",
     ["{file}: mu must be in (0, 100] (photons/pulse), got -1.0"]),
    (["keyrate", "--config", "{file}"], "nu1 = 0.6\nmu 0.7\n",
     ["{file}:2: expected key = value, got 'mu 0.7'"]),
    (["keyrate", "--config", "{file}"], "nu1 = 0.6\nmu = 0.5\nmu = 0.7\n",
     ["{file}:3: repeated key 'mu'"]),
]
FILE_AND_FLAG_IDS = [
    "config-file-and-key-flag", "line-and-value", "value-and-missing",
    "range-and-rule", "malformed-file-and-range-flag", "range-under-a-flag",
    "malformed-line-and-rule", "repeated-key-and-rule"]


@pytest.mark.parametrize("argv,text,messages", FILE_AND_FLAG_PROBLEMS,
                         ids=FILE_AND_FLAG_IDS)
def test_every_problem_of_files_and_flags_is_named_at_once(
        tmp_path, capsys, argv, text, messages):
    # a file's values beside the command line's, its lines beside its
    # values, and a tally file's values beside the keys it lacks; a file's
    # value out of range is named after its path, beside the rules that join
    # keys, even where a flag replaces it; while a line of the config file
    # is refused, no rule is judged on the default or first value its key
    # keeps
    path = tmp_path / "input.txt"
    path.write_text(text)
    argv = [arg.replace("{file}", str(path)) for arg in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    for message in messages:
        assert message.replace("{file}", str(path)) in err
    # these problems and no other
    assert err.count("; ") == len(messages) - 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,text,messages", [
    *(pytest.param(*case, id=name)
      for name, case in zip(FILE_AND_FLAG_IDS, FILE_AND_FLAG_PROBLEMS)
      if "--tally-file" not in case[0]),
    pytest.param(["keyrate", "--config", "{file}"], "mu = 0.05\n",
                 ["mu must exceed nu1"], id="rule-alone")])
def test_library_names_the_problems_that_the_command_names(
        tmp_path, capsys, argv, text, messages):
    # a config file and key flags give `load_config` the problems, in the
    # order, that the command line names
    path = tmp_path / "input.txt"
    path.write_text(text)
    argv = [arg.replace("{file}", str(path)) for arg in argv]
    req = parse_command(argv)
    problems: list[str] = []
    load_config(req.config, req.overrides, problems)
    assert problems == [m.replace("{file}", str(path)) for m in messages]
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"qkdsim: {'; '.join(problems)}\n"


def test_files_may_begin_with_a_byte_order_mark(tmp_path, capsys, preset):
    bom = b"\xef\xbb\xbf"
    config = tmp_path / "bom.cfg"
    config.write_bytes(bom + b"fiber_length = 25\n")
    assert main(["calibrate", "--config", str(config), "--out",
                 str(tmp_path / "cal")]) == EXIT_OK
    assert _read_config(tmp_path / "cal" / "calibrated.cfg"
                        ).link.fiber_length == 25.0
    counts = _write_tally(tmp_path / "counts.txt", preset)
    marked = tmp_path / "marked.txt"
    marked.write_bytes(bom + counts.read_bytes())
    outputs = []
    for path in (counts, marked):
        capsys.readouterr()
        assert main(["keyrate", "--tally-file", str(path), "--out",
                     str(tmp_path / path.stem)]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_keyrate_reads_integral_float_text_as_counts(tmp_path, capsys, preset):
    tally = expectation_tally(1.2e12, preset.source, preset.link)
    as_float = tmp_path / "float.txt"
    as_float.write_text("".join(f"{name} = {value:.15e}\n"
                                for name, value in tally._asdict().items()))
    assert main(["keyrate", "--out", str(tmp_path / "float"),
                 "--tally-file", str(as_float)]) == EXIT_OK
    from_float = capsys.readouterr().out
    assert main(["keyrate", "--out", str(tmp_path / "int"), "--tally-file",
                 str(_write_tally(tmp_path / "int.txt", preset))]) == EXIT_OK
    assert from_float == capsys.readouterr().out


@pytest.mark.parametrize("tally_file", [False, True],
                         ids=["expectation", "tally-file"])
def test_keyrate_stdout_lists_the_csv_fields(tmp_path, capsys, preset,
                                             tally_file):
    argv = ["keyrate", "--out", str(tmp_path), "--n-pulses", "3e10"]
    if tally_file:
        argv[-2:] = ["--tally-file",
                     str(_write_tally(tmp_path / "counts.txt", preset))]
    assert main(argv) == EXIT_OK
    header, row = (tmp_path / "keyrate.csv").read_text().splitlines()
    assert capsys.readouterr().out == "".join(
        f"{name}: {value}\n"
        for name, value in zip(header.split(","), row.split(","))
        if name != "epsilon_spent")


def test_keyrate_unreadable_tally_file_exits_with_input_status(tmp_path,
                                                               capsys):
    status = main(["keyrate", "--out", str(tmp_path), "--tally-file",
                   str(tmp_path / "missing.txt")])
    assert status == EXIT_CONFIG_FILE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "cannot read tally file" in err
    assert not (tmp_path / "keyrate.csv").exists()


def test_python_m_qkdsim_runs_the_command_line(tmp_path, capsys):
    # `python -m qkdsim` from the source tree that this process imports
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]),
                      os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-m", "qkdsim", "keyrate", "--out",
         str(tmp_path / "m")], env=env, capture_output=True, text=True)
    assert run.returncode == EXIT_OK, run.stderr
    assert main(["keyrate", "--out", str(tmp_path / "main")]) == EXIT_OK
    assert run.stdout == capsys.readouterr().out
    assert ((tmp_path / "m" / "keyrate.csv").read_bytes()
            == (tmp_path / "main" / "keyrate.csv").read_bytes())
    run = subprocess.run(
        [sys.executable, "-m", "qkdsim", "keyrate", "--out", str(tmp_path),
         "--tally-file", str(tmp_path / "missing.txt")],
        env=env, capture_output=True, text=True)
    assert run.returncode == EXIT_CONFIG_FILE
    assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr
    assert run.stderr.startswith("qkdsim: cannot read tally file")


def test_cli_reads_only_what_session_declares():
    # every `session.<name>` that cli.py reads is public in session.__all__
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "session"}
    assert {"format_fields", "format_summary", "format_table"} <= read
    assert read <= set(session.__all__)


def test_every_csv_a_command_writes_is_laid_out_by_format_table(
        tmp_path, capsys, monkeypatch):
    # keyrate.csv, efficiency_curve.csv and keys.csv are each the text of
    # one format_table call, and efficiency-curve prints the same text
    tables = []
    format_table = session.format_table

    def recorded(columns, rows):
        tables.append(format_table(columns, rows))
        return tables[-1]

    monkeypatch.setattr(session, "format_table", recorded)
    for argv, name in ((["keyrate"], "keyrate.csv"),
                       (["efficiency-curve", "--points", "3"],
                        "efficiency_curve.csv"),
                       (["simulate", "--duration", "1200"], "keys.csv")):
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / name).read_text() == tables[-1]
        out = capsys.readouterr().out
        assert (out == tables[-1]) == (name == "efficiency_curve.csv")
    assert len(tables) == 3
