"""Environmental drift evolution and the four feedback loops.

The stretcher, EPC and gate-delay loops share one dither hill climb, `_move`:
an update moves one actuator one step, first reversing its direction if its
reading fell below the one at its previous move.  Their actuators form one
vector in telemetry.csv's column order: stretcher (rad-equivalent), EPC 1-4,
gate delay (ps).  The stretcher reads -QBER, so `last[0]` holds -QBER.  The EPC
and gate loops read a count rate and hold while the channel is dark: no counts
now, and none or zero at the previous move.  The intensity loop instead applies
a proportional attenuator correction computed from the monitored flux.

The four EPC channels act on a shared effective rotation with decreasing
lever arms (channel 1 dominant); this reproduces four-trace actuator
telemetry without a full polarization-state simulation.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from .channel import DriftState, _new
from .config import ControlConfig, LinkConfig, SourceConfig

__all__ = [
    "EPC_WEIGHTS", "STRETCHER", "EPC", "GATE",
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
STRETCHER, EPC, GATE = 0, 1, 5


@dataclass(slots=True)
class ControllerState:
    """Each dithered actuator's setting, direction and reading at its previous
    move, and the attenuator.  Each loop updates it in place and returns it."""

    control: ControlConfig = ControlConfig()
    settings: list[float] = field(default_factory=lambda: [0.0] * 6)
    dirs: list[int] = field(default_factory=lambda: [1] * 6)
    last: list[float | None] = field(default_factory=lambda: [None] * 6)
    epc_cycle: int = 0                    # next EPC channel to dither
    attenuator_setting: float = 0.0       # dB relative to nominal

    def net_epc_angle(self) -> float:
        (w1, w2, w3, w4), (_, s1, s2, s3, s4, _) = EPC_WEIGHTS, self.settings
        return w1 * s1 + w2 * s2 + w3 * s3 + w4 * s4


def step_drift(drift: DriftState, link: LinkConfig, dt: float,
               normals: Sequence[float]) -> DriftState:
    """Advance the environment by dt seconds (diffusions plus timing ramp),
    given four standard normal draws: phase, polarization, timing, power."""
    g_phase, g_pol, g_timing, g_power = normals
    phase, pol, timing, power = drift
    return _new(DriftState, (
        phase + math.sqrt(link.phase_diffusion * dt) * g_phase,
        pol + math.sqrt(link.polarization_diffusion * dt) * g_pol,
        timing + link.timing_drift_rate * dt
        + math.sqrt(link.timing_diffusion * dt) * g_timing,
        power * math.exp(math.sqrt(link.laser_power_diffusion * dt) * g_power),
    ))


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
                       state: ControllerState) -> ControllerState:
    """Dither-and-descend on the observed signal QBER."""
    if qber_estimate is not None:
        _move(state, STRETCHER, -qber_estimate, state.control.stretcher_step)
    return state


def polarization_feedback(count_rate: float | None,
                          state: ControllerState) -> ControllerState:
    """Coordinate-wise hill climb on the detector count rate, cycling the
    four EPC channels one dither comparison per update."""
    if count_rate is None:
        return state
    k = EPC + state.epc_cycle
    state.epc_cycle = (state.epc_cycle + 1) % 4
    if count_rate != 0.0 or state.last[k]:  # else dark: hold
        _move(state, k, count_rate, state.control.epc_step)
    return state


def gate_delay_feedback(count_rate: float | None,
                        state: ControllerState) -> ControllerState:
    """Dither climb on count rate, tracking arrival time with the gate delay.

    A session passes the mean rate since the loop's previous update."""
    if count_rate is not None and (count_rate != 0.0 or state.last[GATE]):
        _move(state, GATE, count_rate, state.control.gate_step)
    return state


def intensity_feedback(measured_flux: float, source: SourceConfig,
                       state: ControllerState) -> ControllerState:
    """Proportional attenuator correction pulling the monitored flux back to
    the configured source intensity."""
    target = source.nominal_flux
    if measured_flux <= 0.0 or target <= 0.0:
        return state
    correction = 10.0 * math.log10(measured_flux / target)
    state.attenuator_setting += state.control.intensity_gain * correction
    return state


def apply_controls(drift: DriftState, state: ControllerState) -> DriftState:
    """Residual drift seen by the optics after the actuators act."""
    phase, pol, timing, power = drift
    return _new(DriftState, (
        phase + state.settings[STRETCHER],
        pol + state.net_epc_angle(),
        timing - state.settings[GATE],
        power * 10.0 ** (-state.attenuator_setting / 10.0),
    ))
