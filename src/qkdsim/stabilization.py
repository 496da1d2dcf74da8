"""Environmental drift evolution and the four feedback loops.

All loops are dither-based hill climbers: each update moves exactly one
actuator by one step, keeping the direction while the feedback improves and
reversing when it worsens.  The intensity loop is the exception - it applies
a proportional attenuator correction computed from the monitored flux.

The four EPC channels act on a shared effective rotation with decreasing
lever arms (channel 1 dominant); this reproduces four-trace actuator
telemetry without a full polarization-state simulation.

Each loop updates one `ControllerState` in place and returns it.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from .channel import DriftState, _new
from .config import ControlConfig, LinkConfig, SourceConfig

__all__ = [
    "EPC_WEIGHTS",
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


@dataclass(slots=True)
class ControllerState:
    """Actuator settings plus the per-loop dither memory.  The loops update
    it in place, one list entry per EPC channel."""

    control: ControlConfig = ControlConfig()
    stretcher_setting: float = 0.0        # rad-equivalent
    epc_settings: list[float] = field(default_factory=lambda: [0.0] * 4)
    gate_delay: float = 0.0               # ps
    attenuator_setting: float = 0.0       # dB relative to nominal
    stretcher_dir: int = 1
    epc_dirs: list[int] = field(default_factory=lambda: [1] * 4)
    gate_dir: int = 1
    epc_cycle: int = 0                    # next EPC channel to dither
    last_qber: float | None = None        # reading at the previous stretcher move
    last_counts_epc: list[float | None] = field(
        default_factory=lambda: [None] * 4)
    last_count_gate: float | None = None

    def net_epc_angle(self) -> float:
        (w1, w2, w3, w4), (s1, s2, s3, s4) = EPC_WEIGHTS, self.epc_settings
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


def stretcher_feedback(qber_estimate: float | None,
                       state: ControllerState) -> ControllerState:
    """Dither-and-descend on the observed signal QBER."""
    if qber_estimate is None:
        return state
    if state.last_qber is not None and qber_estimate > state.last_qber:
        state.stretcher_dir = -state.stretcher_dir
    state.stretcher_setting += state.stretcher_dir * state.control.stretcher_step
    state.last_qber = qber_estimate
    return state


def polarization_feedback(count_rate: float | None,
                          state: ControllerState) -> ControllerState:
    """Coordinate-wise hill climb on the detector count rate, cycling the
    four EPC channels one dither comparison per update."""
    if count_rate is None:
        return state
    ch = state.epc_cycle
    last = state.last_counts_epc[ch]
    state.epc_cycle = (ch + 1) % 4
    if count_rate == 0.0 and (last is None or last == 0.0):
        # channel dark: no gradient signal, hold everything
        return state
    if last is not None and count_rate < last:
        state.epc_dirs[ch] = -state.epc_dirs[ch]
    state.epc_settings[ch] += state.epc_dirs[ch] * state.control.epc_step
    state.last_counts_epc[ch] = count_rate
    return state


def gate_delay_feedback(count_rate: float | None,
                        state: ControllerState) -> ControllerState:
    """Dither climb on count rate, tracking arrival time with the gate delay.

    A session passes the mean rate since the loop's previous update."""
    if count_rate is None:
        return state
    last = state.last_count_gate
    if count_rate == 0.0 and (last is None or last == 0.0):
        return state
    if last is not None and count_rate < last:
        state.gate_dir = -state.gate_dir
    state.gate_delay += state.gate_dir * state.control.gate_step
    state.last_count_gate = count_rate
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
        phase + state.stretcher_setting,
        pol + state.net_epc_angle(),
        timing - state.gate_delay,
        power * 10.0 ** (-state.attenuator_setting / 10.0),
    ))
