import dataclasses
import gc
import os
import signal
import subprocess
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qkdsim import session
from qkdsim.channel import DriftState, PulseTally
from qkdsim.cli import EXIT_IO, EXIT_OK, main
from qkdsim.config import (MAX_SESSION_STEPS, Config, ConfigError,
                           LinkConfig, SecurityConfig, SimConfig,
                           SourceConfig, apply_overrides)
from qkdsim.finite_key import (decoy_bounds, distill, estimate_channel,
                               expectation_tally, secure_key_length)
from qkdsim.session import (KEYS_HEADER, SESSION_FILES, TELEMETRY_HEADER,
                            TelemetryRow, distill_window, format_summary,
                            load_keys_csv, load_telemetry_csv, run_session,
                            write_outputs)
from qkdsim.stabilization import step_drift


@pytest.fixture(scope="module")
def short_session(preset):
    # 3000 s: two complete 1200 s windows plus a 600 s partial tail
    return run_session(preset, duration=3000.0, seed=7)


def test_session_is_deterministic(preset):
    # two loops-on runs in one process: a controller list shared through a
    # default would carry the first run's actuator settings into the second
    assert preset.sim.stabilization_enabled
    a = run_session(preset, duration=600.0, seed=3)
    b = run_session(preset, duration=600.0, seed=3)
    np.testing.assert_array_equal(a.telemetry, b.telemetry)
    assert a.summary == b.summary
    assert a.rows == b.rows
    assert a.records == b.records


def test_session_seed_changes_outcome(preset):
    a = run_session(preset, duration=600.0, seed=3)
    b = run_session(preset, duration=600.0, seed=4)
    assert a.rows != b.rows


def test_windows_aligned_and_trailing_partial_discarded(short_session):
    records = short_session.records
    assert len(records) == 2
    assert (records[0].window_start, records[0].window_end) == (0.0, 1200.0)
    assert (records[1].window_start, records[1].window_end) == (1200.0, 2400.0)
    assert short_session.summary.n_windows == 2
    assert short_session.summary.n_steps == 3000
    assert len(short_session.rows) == 3000


def test_every_window_produces_key(short_session):
    for rec in short_session.records:
        assert rec.key.secure_bits > 0
        assert rec.secure_rate == rec.key.secure_bits / 1200.0
        assert 0 < rec.key.bounds.y1_lower <= 1
        assert 0 <= rec.key.bounds.e1_upper <= 0.5
        assert 0 < rec.key.efficiency <= 1


def test_summary_totals_consistent(short_session):
    s = short_session.summary
    assert s.total_secure_bits == sum(r.key.secure_bits
                                      for r in short_session.records)
    assert s.mean_secure_rate_bps == pytest.approx(
        s.total_secure_bits / 2400.0)
    assert 0.0 < s.mean_qber_signal < 0.5
    assert s.max_qber_signal >= s.mean_qber_signal


def test_summary_qber_spans_every_step_and_the_rate_complete_windows(
        short_session):
    # the signal QBER's mean and max take in the 600 s tail that keys.csv
    # drops; the mean secure rate is over the two complete windows
    s, records = short_session.summary, short_session.records
    windows = sum((r.tally for r in records), PulseTally())
    assert f"{s.mean_qber_signal:.6g}" == "0.0387875"
    assert f"{windows.errors_mu / windows.sifted_mu:.6g}" == "0.0387855"
    qber_mu = short_session.telemetry[:, TelemetryRow._fields.index("qber_mu")]
    assert s.max_qber_signal == np.nanmax(qber_mu)
    assert s.mean_secure_rate_bps == s.total_secure_bits / 2400.0


def test_telemetry_reports_observables_and_hidden_truth(short_session):
    row = short_session.rows[100]
    assert row.time_s == 100.0
    assert 0.0 < row.qber_mu < 0.5
    assert 0.0 < row.trans_mu < 1.0
    # the drifting environment should have left the exact origin
    assert any(r.hidden_phase_rad != 0.0 for r in short_session.rows[:10])


def test_stabilization_off_leaves_actuators_parked(preset):
    cfg = dataclasses.replace(preset, sim=SimConfig(stabilization_enabled=False))
    result = run_session(cfg, duration=120.0, seed=5)
    for row in result.rows:
        assert row.stretcher == 0.0
        assert (row.epc1, row.epc2, row.epc3, row.epc4) == (0, 0, 0, 0)
        assert row.gate_delay_ps == 0.0
        assert row.atten_db == 0.0


def test_loops_on_and_off_see_the_same_environment(preset):
    # the drift draws from a stream of its own, so the count draws, which
    # differ between the two runs, cannot shift it
    off = dataclasses.replace(preset, sim=SimConfig(stabilization_enabled=False))
    on_run = run_session(preset, duration=300.0, seed=1)
    off_run = run_session(off, duration=300.0, seed=1)
    actuators = TelemetryRow._fields.index("stretcher")
    hidden = TelemetryRow._fields.index("hidden_phase_rad")
    # the loops moved the actuators and so changed what was counted
    assert on_run.telemetry[:, actuators:hidden].any()
    assert not off_run.telemetry[:, actuators:hidden].any()
    np.testing.assert_array_equal(on_run.telemetry[:, hidden:],
                                  off_run.telemetry[:, hidden:])


def test_hidden_columns_match_one_draw_per_step():
    # The session draws the environment a block of steps at a time; 9,000
    # steps span a block boundary.  The reference draws each step's four
    # normals on its own from the environment's stream.
    seed, steps = 13, 9000
    config = Config(sim=SimConfig(duration=steps, stabilization_enabled=False))
    result = run_session(config, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
    drift, expected = DriftState(), []
    for _ in range(steps):
        drift = step_drift(drift, config.link, config.sim.time_step,
                           rng.standard_normal(4))
        expected.append(drift)
    hidden = TelemetryRow._fields.index("hidden_phase_rad")
    np.testing.assert_array_equal(result.telemetry[:, hidden:],
                                  np.array(expected))


def test_stabilization_on_moves_actuators(short_session):
    assert any(r.stretcher != 0.0 for r in short_session.rows)
    assert any(r.gate_delay_ps != 0.0 for r in short_session.rows)


def test_sparse_counts_reported_as_absent(preset):
    # at 100 pulses/s many steps send or sift no near-vacuum decoy at all
    cfg = dataclasses.replace(preset,
                              source=SourceConfig(clock_rate=100.0),
                              sim=SimConfig(stabilization_enabled=False))
    result = run_session(cfg, duration=200.0, seed=11)
    assert any(r.qber_nu2 is None for r in result.rows)
    assert any(r.trans_nu2 is None for r in result.rows)


def test_distill_window_matches_direct_pipeline(preset):
    tally = expectation_tally(1.2e12, preset.source, preset.link)
    rec = distill_window(tally, preset, 0.0, 1200.0)
    bounds = decoy_bounds(estimate_channel(tally, preset.security),
                          preset.source)
    direct = secure_key_length(tally, bounds, preset.security, preset.source)
    assert rec.key == direct
    assert rec.key.bounds == bounds


def test_each_record_holds_the_one_key_of_its_tally(preset, short_session):
    for rec in short_session.records:
        key = distill(rec.tally, preset.source, preset.security)
        assert rec.key == key
        assert rec.key.bounds == key.bounds


def test_csv_export_round_trip(preset, short_session, tmp_path):
    written = run_session(preset, duration=3000.0, seed=7, out=tmp_path)
    assert written.telemetry is None
    assert written.records == short_session.records
    assert written.summary == short_session.summary
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["keys.csv", "summary.txt", "telemetry.csv"]

    telemetry = load_telemetry_csv(tmp_path / "telemetry.csv")
    assert len(telemetry) == len(short_session.rows)
    row = short_session.rows[42]
    loaded = telemetry[42]
    assert loaded["time_s"] == row.time_s
    assert loaded["qber_mu"] == pytest.approx(row.qber_mu, rel=1e-8)
    assert loaded["hidden_timing_ps"] == pytest.approx(row.hidden_timing_ps,
                                                       rel=1e-8)

    keys = load_keys_csv(tmp_path / "keys.csv")
    assert len(keys) == 2
    assert keys[0]["secure_bits"] == short_session.records[0].key.secure_bits
    assert keys[1]["window_start_s"] == 1200.0


def test_csv_headers_are_stable(preset, tmp_path):
    # a session of no steps writes the header lines alone
    for steps in (1, 0):
        out = tmp_path / str(steps)
        run_session(preset, duration=float(steps), seed=7, out=out)
        telemetry = (out / "telemetry.csv").read_text().splitlines()
        assert telemetry[0] == TELEMETRY_HEADER
        assert len(telemetry) == 1 + steps
        assert (out / "keys.csv").read_text() == KEYS_HEADER + "\n"


def test_absent_values_export_as_empty_cells(preset, tmp_path):
    cfg = dataclasses.replace(preset,
                              source=SourceConfig(clock_rate=1e3),
                              sim=SimConfig(stabilization_enabled=False))
    run_session(cfg, duration=50.0, seed=2, out=tmp_path)
    body = (tmp_path / "telemetry.csv").read_text().splitlines()[1:]
    assert any(",," in line for line in body)
    loaded = load_telemetry_csv(tmp_path / "telemetry.csv")
    assert any(r["qber_nu2"] is None for r in loaded)


def test_windows_without_a_sifted_signal_bit_leave_qber_mu_empty(preset,
                                                                 tmp_path):
    # no dark counts, and 3,000 km of fiber that no photon crosses
    cfg = dataclasses.replace(
        preset, source=SourceConfig(clock_rate=1e3),
        link=LinkConfig(fiber_length=3000.0, dark_count_prob=0.0),
        security=SecurityConfig(distill_interval=10.0),
        sim=SimConfig(stabilization_enabled=False))
    result = run_session(cfg, duration=30.0, seed=1, out=tmp_path)
    assert [rec.tally.sifted_mu for rec in result.records] == [0, 0, 0]
    column = KEYS_HEADER.split(",").index("qber_mu")
    body = (tmp_path / "keys.csv").read_text().splitlines()[1:]
    assert [line.split(",")[column] for line in body] == ["", "", ""]
    assert [row["qber_mu"] for row in load_keys_csv(tmp_path / "keys.csv")
            ] == [None, None, None]
    # nor has the session summary a signal QBER
    assert result.summary.mean_qber_signal is None
    assert result.summary.max_qber_signal is None
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert {"mean_qber_signal: ", "max_qber_signal: "} <= set(summary)


@pytest.mark.parametrize("name,loader", [("telemetry.csv", load_telemetry_csv),
                                         ("keys.csv", load_keys_csv)])
def test_loaders_reject_wrong_header(tmp_path, name, loader):
    path = tmp_path / name
    path.write_text("time_s,qber\n0,0.04\n")
    with pytest.raises(ValueError, match="unexpected header"):
        loader(path)
    path.write_text("")
    with pytest.raises(ValueError, match="unexpected header"):
        loader(path)


def test_format_summary_fields(short_session):
    text = format_summary(short_session.summary)
    assert "windows: 2" in text
    assert "total_secure_bits: " in text
    assert text.endswith("\n")


def test_export_to_unwritable_destination_raises(preset, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    with pytest.raises(OSError):
        run_session(preset, duration=1.0, seed=7, out=blocker / "sub")


def test_write_outputs_removes_earlier_files_when_one_fails(tmp_path):
    # the second file cannot be opened: the work never starts
    (tmp_path / "open" / "second.csv").mkdir(parents=True)
    with pytest.raises(OSError, match="failed writing output under"):
        with write_outputs(tmp_path / "open", ("first.csv", "second.csv")):
            pytest.fail("the work ran although an output could not be opened")
    assert [p.name for p in (tmp_path / "open").iterdir()] == ["second.csv"]
    # a write fails part way through, or the work fails: the files go, and
    # so does the directory the transaction made; only an OSError is renamed
    for case, exc in (("write", OSError("no space left")),
                      ("work", RuntimeError("no key"))):
        with pytest.raises(type(exc)) as raised:
            with write_outputs(tmp_path / case / "sub",
                               ("first.csv", "second.csv")) as files:
                files["first.csv"].write("data\n")
                files["second.csv"].write("partial\n")
                raise exc
        assert (raised.value is exc) == (case == "work")
        assert not (tmp_path / case).exists()
    with write_outputs(tmp_path / "ok", ("a",)) as files:
        files["a"].writelines(["x\n", "y\n"])
    assert [Path(fh.name) for fh in files.values()] == [tmp_path / "ok" / "a"]
    assert (tmp_path / "ok" / "a").read_text() == "x\ny\n"


def test_session_beyond_step_limit_rejected_before_it_starts(preset,
                                                            tmp_path):
    # the duration given stands in for the config's, and is checked as its
    # before the output directory is made
    with pytest.raises(ConfigError, match="duration / time_step"):
        run_session(preset, duration=MAX_SESSION_STEPS + 1.0, seed=1,
                    out=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_negative_seed_rejected_before_it_starts(preset):
    with pytest.raises(ConfigError, match="rng_seed must be >= 0"):
        run_session(preset, duration=10.0, seed=-1)


def test_telemetry_is_one_float64_array(short_session):
    assert short_session.telemetry.dtype == np.float64
    assert short_session.telemetry.shape == (3000, len(TelemetryRow._fields))


def test_nan_cells_are_the_cells_read_back_as_absent(preset, tmp_path):
    cfg = dataclasses.replace(preset, source=SourceConfig(clock_rate=100.0),
                              security=SecurityConfig(distill_interval=120.0))
    result = run_session(cfg, duration=600.0, seed=13)
    run_session(cfg, duration=600.0, seed=13, out=tmp_path)
    loaded = load_telemetry_csv(tmp_path / "telemetry.csv")
    absent = [[v is None for v in row.values()] for row in loaded]
    assert np.array_equal(np.isnan(result.telemetry), absent)
    assert 0 < np.isnan(result.telemetry).sum() < result.telemetry.size


def test_streamed_session_rows_name_where_the_telemetry_went(preset,
                                                            tmp_path):
    result = run_session(preset, duration=10.0, seed=1, out=tmp_path)
    assert result.telemetry is None
    with pytest.raises(ValueError, match="streamed its telemetry to "
                                         "telemetry.csv under its `out`"):
        result.rows
    assert len(load_telemetry_csv(tmp_path / "telemetry.csv")) == 10


def test_zero_duration_session(preset):
    result = run_session(preset, duration=0.0, seed=1)
    assert result.rows == []
    assert result.records == []
    assert result.summary.total_secure_bits == 0


SPARSE = {"clock_rate": "100", "distill_interval": "120"}


# The block these cases step in, in place of _BLOCK; each case is named by
# the step count that stands at the same place among _BLOCK's boundaries
# (4,096 steps).  One case keeps the real _BLOCK.
SMALL_BLOCK = 64
STREAMED = [
    *(pytest.param(overrides, SMALL_BLOCK, steps, id=f"{name}-{real}")
      for name, overrides in (("loops-on", {}),
                              ("loops-off", {"stabilization_enabled": "false"}),
                              ("sparse", SPARSE))
      for steps, real in ((0, 0), (1, 1), (63, 4095), (64, 4096), (65, 4097),
                          (140, 9000))),
    pytest.param({}, session._BLOCK, session._BLOCK + 1,
                 id="loops-on-4097-real-block"),
]


@pytest.mark.parametrize("overrides,block,steps", STREAMED)
def test_streamed_outputs_equal_the_library_export(preset, tmp_path, capsys,
                                                   monkeypatch, overrides,
                                                   block, steps):
    # simulate and a library call given `out` write the same files; the
    # telemetry streamed to disk reads back as the array of a run without
    # `out`, at the 9 significant digits written, empty where it holds NaN
    monkeypatch.setattr(session, "_BLOCK", block)
    flags = [arg for key, value in overrides.items()
             for arg in ("--" + key.replace("_", "-"), value)]
    assert main(["simulate", "--out", str(tmp_path / "cli"), "--seed",
                 "13", "--duration", str(steps), *flags]) == EXIT_OK
    problems: list[str] = []
    cfg = apply_overrides(preset, overrides, problems)
    assert problems == []
    written = run_session(cfg, duration=float(steps), seed=13,
                          out=tmp_path / "lib")
    for name in SESSION_FILES:
        assert (tmp_path / "cli" / name).read_bytes() == \
            (tmp_path / "lib" / name).read_bytes(), name
    result = run_session(cfg, duration=float(steps), seed=13)
    assert (written.records, written.summary) == (result.records,
                                                   result.summary)
    loaded = np.array(
        [[np.nan if v is None else v for v in row.values()]
         for row in load_telemetry_csv(tmp_path / "lib" / "telemetry.csv")]
    ).reshape(-1, len(TelemetryRow._fields))
    rounded = np.array([float("%.9g" % v) for v in result.telemetry.flat]
                       ).reshape(result.telemetry.shape)
    np.testing.assert_array_equal(loaded, rounded)  # NaN where NaN
    qber_mu = result.telemetry[:, TelemetryRow._fields.index("qber_mu")]
    qber_mu = qber_mu[~np.isnan(qber_mu)]
    assert result.summary.max_qber_signal == \
        (float(qber_mu.max()) if qber_mu.size else None)


def test_simulate_memory_does_not_grow_with_duration(tmp_path, capsys,
                                                     monkeypatch):
    # Tracing makes each step about ten times slower: a cheap session, whose
    # telemetry rows are as wide as any other's, in blocks of 256 steps.
    monkeypatch.setattr(session, "_BLOCK", 256)
    argv = ["simulate", "--stabilization-enabled", "false", "--clock-rate",
            "100"]
    assert main([*argv, "--out", str(tmp_path / "warm"), "--duration",
                 "1200"]) == EXIT_OK  # first-call caches stay out of the peaks
    peaks = {}
    for steps in (600, 1800):
        gc.collect()  # garbage of earlier tests is no part of this peak
        tracemalloc.start()
        try:
            assert main([*argv, "--out", str(tmp_path / str(steps)),
                         "--duration", str(steps)]) == EXIT_OK
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # a whole telemetry array would grow by 18 float64 cells a step
    assert peaks[1800] - peaks[600] < 0.5 * 18 * 8 * (1800 - 600)


def test_session_memory_does_not_grow_with_the_distillation_window(
        tmp_path, capsys, monkeypatch):
    # A window's counts are summed as the session steps, so a session of a
    # fixed length peaks no higher with a window that never closes than
    # with many short ones.
    monkeypatch.setattr(session, "_BLOCK", 256)
    argv = ["simulate", "--stabilization-enabled", "false"]
    assert main([*argv, "--out", str(tmp_path / "warm"), "--duration", "200",
                 "--distill-interval", "100"]) == EXIT_OK
    steps, peaks = 600, {}
    for interval in (100, 2 * steps):
        gc.collect()  # garbage of earlier tests is no part of this peak
        tracemalloc.start()
        try:
            assert main([*argv, "--out", str(tmp_path / str(interval)),
                         "--duration", str(steps), "--distill-interval",
                         str(interval)]) == EXIT_OK
            peaks[interval] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # a step's tally kept until its window closes takes about 300 bytes
    assert peaks[2 * steps] - peaks[100] < 64 * steps


# A session cheap to step whose rows are as wide as any other's.
CHEAP = ["simulate", "--stabilization-enabled", "false", "--clock-rate", "100"]


def _assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _on_step(monkeypatch, step, action):
    """Call `action` as the session begins step number `step` (from 0)."""
    drift, steps = session.step_drift, []

    def counted(*args):
        if len(steps) == step:
            action()
        steps.append(None)
        return drift(*args)
    monkeypatch.setattr(session, "step_drift", counted)


@pytest.mark.parametrize("program, message", [
    # stops before reading a row: the session finds a broken pipe
    ("import sys; sys.exit('cannot write the rows')", "cannot write the rows"),
    # fails at the end, with a traceback on its stderr
    ("import sys; sys.stdin.buffer.read(); "
     "raise OSError(28, 'No space left on device')",
     "OSError: [Errno 28] No space left on device"),
], ids=["at-once", "at-end"])
def test_failing_telemetry_writer_exits_5_and_leaves_nothing(
        tmp_path, capfd, monkeypatch, program, message):
    monkeypatch.setattr(session, "_WRITER", program)
    status = main([*CHEAP, "--duration", str(session._BLOCK + 904),
                   "--out", str(tmp_path / "out")])
    assert status == EXIT_IO
    err = capfd.readouterr().err  # the writer's stderr would show here too
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "telemetry.csv writer exited with status 1: " + message in err
    assert not (tmp_path / "out").exists()
    _assert_no_child_process()


def test_telemetry_writer_that_exits_0_before_a_row_exits_5(tmp_path, capfd,
                                                            monkeypatch):
    # The writer stops at once, yet with status 0: the session's broken pipe
    # on the first block, larger than a pipe holds, is the only sign.
    monkeypatch.setattr(session, "_WRITER", "pass")
    status = main([*CHEAP, "--duration", str(session._BLOCK + 904),
                   "--out", str(tmp_path / "out")])
    assert status == EXIT_IO
    err = capfd.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "[Errno 32] Broken pipe" in err
    assert not (tmp_path / "out").exists()
    _assert_no_child_process()


def test_interrupt_after_a_block_kills_the_writer_and_leaves_nothing(
        preset, tmp_path, monkeypatch):
    def interrupt():
        raise KeyboardInterrupt
    _on_step(monkeypatch, session._BLOCK + 100, interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_session(preset, duration=6000.0, seed=1, out=tmp_path / "out")
    assert not (tmp_path / "out").exists()
    _assert_no_child_process()


def test_telemetry_writer_leaves_a_ctrl_c_to_the_session(tmp_path, capsys,
                                                         monkeypatch):
    # A Ctrl-C at a terminal reaches the writer too.  Sent once the first
    # block has gone, after the writer has read most of it, so after it
    # set SIGINT aside; the session runs on and writes the same bytes.
    popen, writers = subprocess.Popen, []

    def recorded(*args, **kwargs):
        writers.append(popen(*args, **kwargs))
        return writers[-1]
    monkeypatch.setattr(subprocess, "Popen", recorded)
    _on_step(monkeypatch, session._BLOCK + 1,
             lambda: os.kill(writers[0].pid, signal.SIGINT))
    argv = [*CHEAP, "--seed", "3", "--duration", str(session._BLOCK + 904)]
    assert main([*argv, "--out", str(tmp_path / "signalled")]) == EXIT_OK
    assert len(writers) == 1 and writers[0].returncode == 0
    monkeypatch.undo()
    assert main([*argv, "--out", str(tmp_path / "quiet")]) == EXIT_OK
    for name in SESSION_FILES:
        assert (tmp_path / "signalled" / name).read_bytes() == \
            (tmp_path / "quiet" / name).read_bytes(), name
    _assert_no_child_process()
