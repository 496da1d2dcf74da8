"""Closed-loop discrete-time session: drift, feedback, sampling, distillation.

One session advances second by second (configurable step), feeding the
controllers only quantities an operator could observe - sampled counts and
the QBER computed from them - while the true drift state is logged as
hidden diagnostic truth.  Each complete distillation window becomes a
`SecureKeyRecord` of its span, counts and the one `KeyResult` (key and
decoy bounds) of `finite_key.distill`; a trailing partial one is dropped.
The environment's normals are drawn a block of steps at a time and scaled
in place, each by its diffusion's math.sqrt(rate * time_step), into the
increments that `step_drift` adds to the drift after the timing ramp.

The telemetry has a row per step and a column per `TelemetryRow` field.
Given an output directory, `run_session` streams it to telemetry.csv block
by block as the session steps: each block's rows go as raw doubles to a
writer process of their own, which formats and writes them while the
session steps on, on another CPU where there is one.  Otherwise it returns
the telemetry whole as one float64 array.  NaN marks an absent cell: a QBER
or transmittance of a class that sent or sifted nothing that step.  It is
written to telemetry.csv as an empty field, as is a window's `qber_mu` in
keys.csv where the window sifted no signal bit.
"""
from __future__ import annotations

import io
import math
import struct
import subprocess
import sys
import tempfile
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NamedTuple, TextIO

import numpy as np

from .channel import (CLASSES, DriftState, PulseTally, class_rates, observed,
                      sample_tally)
from .config import Config, steps_per
from .finite_key import KeyResult, distill
# Not called here: perfbench/tracing.BOUNDARIES looks them up in this module.
from .finite_key import decoy_bounds, estimate_channel, secure_key_length
from .stabilization import (ATTEN, ControllerState, apply_controls,
                            gate_delay_feedback, intensity_feedback,
                            polarization_feedback, step_drift,
                            stretcher_feedback)

__all__ = [
    "TelemetryRow",
    "SecureKeyRecord",
    "SessionSummary",
    "SessionResult",
    "run_session",
    "distill_window",
    "export_timeseries",
    "write_outputs",
    "format_value",
    "format_fields",
    "format_table",
    "format_summary",
    "load_telemetry_csv",
    "load_keys_csv",
    "SESSION_FILES",
    "TELEMETRY_HEADER",
    "KEYS_HEADER",
]

# What a session writes into the output directory it is given.
SESSION_FILES = ("telemetry.csv", "keys.csv", "summary.txt")
KEYS_HEADER = ("window_start_s,window_end_s,"
               "sifted_mu,errors_mu,sifted_nu1,errors_nu1,sifted_nu2,errors_nu2,"
               "qber_mu,y1_lower,e1_upper,secure_bits,secure_rate_bps,efficiency")


class TelemetryRow(NamedTuple):
    """One time step of observable statistics plus hidden diagnostic truth.

    QBER/transmittance fields are None when no counts were available that
    step.  The hidden_* fields are the raw environmental drift; controllers
    never read them.
    """

    time_s: float
    qber_mu: float | None
    qber_nu1: float | None
    qber_nu2: float | None
    trans_mu: float | None
    trans_nu1: float | None
    trans_nu2: float | None
    stretcher: float
    epc1: float
    epc2: float
    epc3: float
    epc4: float
    gate_delay_ps: float
    atten_db: float
    hidden_phase_rad: float
    hidden_pol_rad: float
    hidden_timing_ps: float
    hidden_power: float


TELEMETRY_HEADER = ",".join(TelemetryRow._fields)
_WIDTH = len(TelemetryRow._fields)
# A block of telemetry rows formats in one operation, each cell as
# `format_value` writes a float.  %.9g writes every NaN, signed or not, as
# "nan", which no number's text contains, so replacing it leaves the absent
# cells empty.
_TELEMETRY_LINE = ",".join(["%.9g"] * _WIDTH) + "\n"
# Steps run as one block: their environment draws are made at once and their
# telemetry rows are kept as tuples until the block is packed as raw doubles,
# so its size bounds the memory both take.
_BLOCK = 4096
# The writer of a streamed session's telemetry.csv: stdlib only, so that it
# starts in about 20 ms, while the first block steps.  Its stdin carries
# native doubles, _WIDTH to a row; it writes the rows to stdout as the
# session would, and ends at end of input, so also when the session's
# process dies.  A Ctrl-C at the terminal is the session's to handle.
_WRITER = f"""\
import signal, struct, sys
signal.signal(signal.SIGINT, signal.SIG_IGN)
read, write = sys.stdin.buffer.read, sys.stdout.write
while data := read({8 * _WIDTH * _BLOCK}):
    cells = struct.unpack(f"{{len(data) // 8}}d", data)
    write(({_TELEMETRY_LINE!r} * (len(cells) // {_WIDTH}) % cells
           ).replace("nan", ""))
sys.stdout.flush()
"""


@dataclass(frozen=True)
class SecureKeyRecord:
    """One distillation window: its span, its counts and their key."""

    window_start: float
    window_end: float
    tally: PulseTally
    key: KeyResult
    secure_rate: float  # bits per second of window time


@dataclass(frozen=True)
class SessionSummary:
    duration: float
    n_steps: int
    n_windows: int
    total_secure_bits: int
    mean_secure_rate_bps: float
    mean_qber_signal: float | None
    max_qber_signal: float | None


@dataclass(frozen=True)
class SessionResult:
    # (n_steps, len(TelemetryRow._fields)), NaN = absent; None when streamed
    telemetry: np.ndarray | None
    records: list[SecureKeyRecord]
    summary: SessionSummary

    @cached_property
    def rows(self) -> list[TelemetryRow]:
        """The telemetry as one `TelemetryRow` per step, None for NaN; built
        on first access and kept.  A session run with `out` streamed its
        telemetry to telemetry.csv there and holds no rows."""
        if self.telemetry is None:
            raise ValueError("this session streamed its telemetry to "
                             "telemetry.csv under its `out` directory and "
                             "holds no rows; read them with "
                             "load_telemetry_csv")
        return [TelemetryRow._make([None if v != v else v for v in row])
                for row in self.telemetry.tolist()]


def distill_window(tally: PulseTally, config: Config, window_start: float,
                   window_end: float) -> SecureKeyRecord:
    """Turn one complete window's tally into a secure key record."""
    key = distill(tally, config.source, config.security)
    return SecureKeyRecord(window_start, window_end, tally, key,
                           key.secure_bits / (window_end - window_start))


def run_session(config: Config, duration: float | None = None,
                seed: int | None = None,
                out: str | Path | None = None) -> SessionResult:
    """Run a full closed-loop session and distill every complete window.

    `duration` and `seed` stand in for the config's `duration` and `rng_seed`
    when given.  Raises ConfigError, before `out` is touched, for a config that
    `Config.validated` refuses (a seed must be an int) or a session it cannot
    run.  Given `out`, writes the `SESSION_FILES` there in one `write_outputs`
    transaction, and the result's telemetry is None; otherwise the result holds
    it as one array."""
    if duration is not None:
        config = replace(config, sim=replace(config.sim, duration=duration))
    if seed is not None:
        config = replace(config, sim=replace(config.sim, rng_seed=seed))
    n_steps = config.validated().session_steps()
    if out is None:
        result = _run(config, n_steps, raw := io.BytesIO())
        return replace(result, telemetry=np.frombuffer(
            raw.getbuffer()).reshape(n_steps, _WIDTH))
    with write_outputs(out, SESSION_FILES) as files:
        with _telemetry_writer(files["telemetry.csv"]) as writer:
            result = _run(config, n_steps, writer)
        export_timeseries(result, files)
    return result


@contextmanager
def _telemetry_writer(telemetry_csv: TextIO) -> Iterator[BinaryIO]:
    """Write the header to `telemetry_csv`, then start a `_WRITER` process
    that appends to it; yields the writer's stdin for the rows.  On exit
    closes it and waits for the writer, raising OSError if it failed; on any
    exception kills and reaps the writer first.  Either way no process is
    left."""
    telemetry_csv.write(TELEMETRY_HEADER + "\n")
    telemetry_csv.flush()
    # A file, not a pipe: the writer can never block on a full stderr.
    with tempfile.TemporaryFile() as stderr:
        writer = subprocess.Popen(
            [sys.executable, "-I", "-S", "-c", _WRITER],
            stdin=subprocess.PIPE, stdout=telemetry_csv, stderr=stderr)
        try:
            yield writer.stdin
            writer.stdin.close()
            writer.wait()
        except BrokenPipeError:  # the writer stopped first: its status says why
            if writer.wait() == 0:
                raise
        except BaseException:
            writer.kill()
            writer.wait()
            raise
        finally:  # closes it even with bytes left that it cannot flush
            with suppress(OSError):
                writer.stdin.close()
        if writer.returncode != 0:
            stderr.seek(0)
            why = stderr.read().decode(errors="replace").strip().splitlines()
            raise OSError(f"the telemetry.csv writer exited with status "
                          f"{writer.returncode}"
                          + (f": {why[-1]}" if why else ""))


def _run(config: Config, n_steps: int,
         telemetry_out: BinaryIO) -> SessionResult:
    """Step a session, writing its telemetry rows to `telemetry_out` block by
    block as native doubles, as `_telemetry_writer` reads them."""
    source, link, security, sim = (config.source, config.link,
                                   config.security, config.sim)
    control = config.control
    dt = sim.time_step

    # The environment and the detections draw from streams of their own, so
    # sessions with one seed see one drift path whatever their counts draw.
    env_rng, count_rng = map(np.random.default_rng,
                             np.random.SeedSequence(sim.rng_seed).spawn(2))
    drift = DriftState()
    ctrl = ControllerState(control=control)
    carry = [0.0] * len(CLASSES)
    stabilize = sim.stabilization_enabled
    nominal_flux = source.nominal_flux
    # A step's drift increments are its normals times these (`step_drift`).
    scales = np.array([math.sqrt(rate * dt) for rate in (
        link.phase_diffusion, link.polarization_diffusion,
        link.timing_diffusion, link.laser_power_diffusion)])
    ramp = link.timing_drift_rate * dt

    stretcher_every = steps_per(control.stretcher_interval, dt)
    epc_every = steps_per(control.epc_interval, dt)
    gate_every = steps_per(control.gate_interval, dt)
    gate_offset = gate_every // 2  # interleave with the EPC loop
    intensity_every = steps_per(control.intensity_interval, dt)
    window_steps = steps_per(security.distill_interval, dt)

    records: list[SecureKeyRecord] = []
    # This window's step tallies, folded into their sum every 64 steps so that
    # memory does not grow with the window; a sum kept every step costs 1 us.
    window: list[PulseTally] = []

    last_qber: float | None = None
    max_qber = -math.inf
    last_count_rate: float | None = None
    # Sifted counts since the gate loop last ran, and the step it ran at.
    gate_counts, gate_from = 0, 0

    for start in range(0, n_steps, _BLOCK):
        # The same values, in the same order, as one standard_normal(4) a
        # step, at a fraction of the cost; then scaled in place.
        draws = env_rng.standard_normal((min(_BLOCK, n_steps - start), 4))
        draws *= scales
        rows = []
        for i, increments in enumerate(draws.tolist(), start):
            drift = step_drift(drift, ramp, increments)

            if stabilize:
                if i % stretcher_every == 0:
                    stretcher_feedback(last_qber, ctrl)
                if i % epc_every == 0:
                    polarization_feedback(last_count_rate, ctrl)
                if i % gate_every == gate_offset:
                    # The mean rate over the loop's own interval: one step's
                    # shot noise can exceed the change one dither move makes.
                    gate_delay_feedback(
                        gate_counts / ((i - gate_from) * dt) if i > gate_from
                        else None, ctrl)
                    gate_counts, gate_from = 0, i
                if i % intensity_every == 0:
                    measured = (nominal_flux * drift.power_factor
                                * 10.0 ** (-ctrl.settings[ATTEN] / 10.0))
                    intensity_feedback(measured, source, ctrl)

            residual = apply_controls(drift, ctrl)
            rates = class_rates(residual, source, link)
            tally = sample_tally(rates, source, dt, count_rng, carry)
            seen = observed(tally)
            last_qber = seen[0] if seen[0] == seen[0] else None  # NaN -> None
            if seen[0] > max_qber:  # never for NaN
                max_qber = seen[0]
            sifted = tally[1] + tally[4] + tally[7]
            last_count_rate = sifted / dt
            gate_counts += sifted

            # in TelemetryRow order
            rows.append((i * dt, *seen, *ctrl.settings, *drift))

            window.append(tally)
            closes = (i + 1) % window_steps == 0
            if closes or len(window) == 64:
                window = [PulseTally._make(map(sum, zip(*window)))]
            if closes:
                records.append(distill_window(
                    window.pop(), config,
                    (i + 1 - window_steps) * dt, (i + 1) * dt))
        telemetry_out.write(struct.pack(f"{len(rows) * _WIDTH}d",
                                        *chain.from_iterable(rows)))

    total_bits = sum(r.key.secure_bits for r in records)
    window_time = len(records) * window_steps * dt
    mean_qber = observed(sum([r.tally for r in records] + window,
                             PulseTally()))[0]
    summary = SessionSummary(
        duration=n_steps * dt,
        n_steps=n_steps,
        n_windows=len(records),
        total_secure_bits=total_bits,
        mean_secure_rate_bps=total_bits / window_time if window_time > 0 else 0.0,
        mean_qber_signal=mean_qber if mean_qber == mean_qber else None,
        max_qber_signal=max_qber if max_qber > -math.inf else None,
    )
    return SessionResult(telemetry=None, records=records, summary=summary)


# ---------------------------------------------------------------------------
# Text output (9 significant digits, absent values as empty fields).
# ---------------------------------------------------------------------------

def format_value(value: float | int | None) -> str:
    """A value as every file and report writes it: an int in full, a float
    to 9 significant digits, and None or NaN (absent) as empty text."""
    if value is None or value != value:   # None or NaN: absent
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.9g}"


def format_fields(fields: dict[str, float | int | None]) -> str:
    """A `name: value` line a field: summary.txt's and each report's layout."""
    return "".join(f"{k}: {format_value(v)}\n" for k, v in fields.items())


def format_table(columns: Iterable[str], rows: Iterable[Iterable]) -> str:
    """A header line of the column names, then a line a row, each cell by
    `format_value`: the layout of every CSV file but telemetry.csv."""
    return "".join(",".join(line) + "\n" for line in chain(
        [columns], (map(format_value, row) for row in rows)))


def format_summary(summary: SessionSummary) -> str:
    return format_fields({
        "duration_s": summary.duration,
        "steps": summary.n_steps,
        "windows": summary.n_windows,
        "total_secure_bits": summary.total_secure_bits,
        "mean_secure_rate_bps": summary.mean_secure_rate_bps,
        "mean_qber_signal": summary.mean_qber_signal,
        "max_qber_signal": summary.max_qber_signal,
    })


@contextmanager
def write_outputs(destination: str | Path,
                  names: Iterable[str]) -> Iterator[dict[str, TextIO]]:
    """Make the destination directory and open each named file under it
    before any work is done; yields the open files by name and closes them
    on exit.  On any exception, removes every file it opened and each
    directory it made, then re-raises it (an OSError as one naming the
    destination)."""
    dest = Path(destination)
    made = [path for path in (dest, *dest.parents) if not path.exists()]
    files: dict[str, TextIO] = {}
    try:
        dest.mkdir(parents=True, exist_ok=True)
        for name in names:
            files[name] = (dest / name).open("w")
        yield files
        for fh in files.values():
            fh.close()
    except BaseException as exc:
        for fh in files.values():
            with suppress(OSError):
                fh.close()
            Path(fh.name).unlink(missing_ok=True)
        for path in made:  # deepest first; one that is not empty stays
            with suppress(OSError):
                path.rmdir()
        if isinstance(exc, OSError):
            raise OSError(f"failed writing output under {dest}: {exc}") \
                from exc
        raise


def export_timeseries(result: SessionResult,
                      files: dict[str, TextIO]) -> list[Path]:
    """Write a session's keys.csv and summary.txt into the open files of its
    `write_outputs(out, SESSION_FILES)` transaction, whose telemetry.csv it
    has streamed; closes all three and returns their paths."""
    files["keys.csv"].write(format_table(KEYS_HEADER.split(","), [(
        rec.window_start, rec.window_end,
        rec.tally.sifted_mu, rec.tally.errors_mu, rec.tally.sifted_nu1,
        rec.tally.errors_nu1, rec.tally.sifted_nu2, rec.tally.errors_nu2,
        observed(rec.tally)[0], rec.key.bounds.y1_lower,
        rec.key.bounds.e1_upper, rec.key.secure_bits, rec.secure_rate,
        rec.key.efficiency) for rec in result.records]))
    files["summary.txt"].write(format_summary(result.summary))
    for fh in files.values():
        fh.close()
    return [Path(fh.name) for fh in files.values()]


def _parse_cell(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def _load_csv(path: str | Path, header: str) -> list[dict[str, float | None]]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: unexpected header, expected {header!r}")
    names = header.split(",")
    return [dict(zip(names, map(_parse_cell, line.split(","))))
            for line in lines[1:]]


def load_telemetry_csv(path: str | Path) -> list[dict[str, float | None]]:
    return _load_csv(path, TELEMETRY_HEADER)


def load_keys_csv(path: str | Path) -> list[dict[str, float | None]]:
    return _load_csv(path, KEYS_HEADER)
