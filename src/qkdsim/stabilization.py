"""Environmental drift evolution and the four feedback loops.

Each loop updates a `ControllerState` in place.  Their actuators are one
vector in telemetry.csv's column order: stretcher (rad-equivalent), EPC 1-4,
gate delay (ps), attenuator (dB relative to nominal).  The stretcher, EPC and
gate-delay loops share one dither hill climb, `_move`: an update moves one
actuator one step, first reversing its direction if its reading fell below the
one at its previous move.  The stretcher reads -QBER, so `last[0]` holds
-QBER.  The EPC and gate loops read a count rate and hold while the channel is
dark: no counts now, and none or zero at the previous move.  The intensity
loop instead applies a proportional attenuator correction computed from the
monitored flux.

The four EPC channels act on a shared effective rotation with decreasing
lever arms (channel 1 dominant); this reproduces four-trace actuator
telemetry without a full polarization-state simulation.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from .channel import DriftState, _new
from .config import ControlConfig, SourceConfig

__all__ = [
    "EPC_WEIGHTS", "STRETCHER", "EPC", "GATE", "ATTEN",
    "ControllerState",
    "step_drift",
    "stretcher_feedback",
    "polarization_feedback",
    "gate_delay_feedback",
    "intensity_feedback",
    "apply_controls",
]

# Lever arm of each EPC channel on the net compensation angle.
EPC_WEIGHTS = (1.0, 0.25, 0.1, 0.04)

# The vector's entries, as TelemetryRow's columns; EPC channel ch is EPC + ch.
STRETCHER, EPC, GATE, ATTEN = 0, 1, 5, 6


@dataclass(slots=True)
class ControllerState:
    """Every actuator's setting, and the direction and previous reading of
    each dithered one (all but the attenuator).  Loops update it in place."""

    control: ControlConfig = ControlConfig()
    settings: list[float] = field(default_factory=lambda: [0.0] * 7)
    dirs: list[int] = field(default_factory=lambda: [1] * 6)
    last: list[float | None] = field(default_factory=lambda: [None] * 6)
    epc_cycle: int = 0                    # next EPC channel to dither


def step_drift(drift: DriftState, ramp: float,
               increments: Sequence[float]) -> DriftState:
    """Advance the environment one time step dt, given the timing ramp
    timing_drift_rate * dt and four random increments: phase, polarization,
    timing and log power, each a standard normal draw times
    math.sqrt(diffusion * dt) for its diffusion in LinkConfig."""
    d_phase, d_pol, d_timing, d_power = increments
    phase, pol, timing, power = drift
    return _new(DriftState, (phase + d_phase, pol + d_pol,
                             timing + ramp + d_timing,
                             power * math.exp(d_power)))


def _move(state: ControllerState, k: int, reading: float,
          step: float) -> None:
    """Move actuator k one step, first reversing its direction if `reading`
    fell below its reading at its previous move."""
    last = state.last[k]
    if last is not None and reading < last:
        state.dirs[k] = -state.dirs[k]
    state.settings[k] += state.dirs[k] * step
    state.last[k] = reading


def stretcher_feedback(qber_estimate: float | None,
                       state: ControllerState) -> None:
    """Dither-and-descend on the observed signal QBER."""
    if qber_estimate is not None:
        _move(state, STRETCHER, -qber_estimate, state.control.stretcher_step)


def polarization_feedback(count_rate: float | None,
                          state: ControllerState) -> None:
    """Coordinate-wise hill climb on the detector count rate, cycling the
    four EPC channels one dither comparison per update."""
    if count_rate is None:
        return
    k = EPC + state.epc_cycle
    state.epc_cycle = (state.epc_cycle + 1) % 4
    if count_rate != 0.0 or state.last[k]:  # else dark: hold
        _move(state, k, count_rate, state.control.epc_step)


def gate_delay_feedback(count_rate: float | None,
                        state: ControllerState) -> None:
    """Dither climb on count rate, tracking arrival time with the gate delay.

    A session passes the mean rate since the loop's previous update."""
    if count_rate is not None and (count_rate != 0.0 or state.last[GATE]):
        _move(state, GATE, count_rate, state.control.gate_step)


def intensity_feedback(measured_flux: float, source: SourceConfig,
                       state: ControllerState) -> None:
    """Proportional attenuator correction pulling the monitored flux back to
    the configured source intensity."""
    target = source.nominal_flux
    if measured_flux <= 0.0 or target <= 0.0:
        return
    correction = 10.0 * math.log10(measured_flux / target)
    state.settings[ATTEN] += state.control.intensity_gain * correction


def apply_controls(drift: DriftState, state: ControllerState) -> DriftState:
    """Residual drift seen by the optics after the actuators act."""
    phase, pol, timing, power = drift
    (w1, w2, w3, w4), (stretcher, s1, s2, s3, s4, gate, atten) = (
        EPC_WEIGHTS, state.settings)
    return _new(DriftState, (
        phase + stretcher,
        pol + (w1 * s1 + w2 * s2 + w3 * s3 + w4 * s4),  # net EPC angle
        timing - gate,
        power * 10.0 ** (-atten / 10.0),
    ))
