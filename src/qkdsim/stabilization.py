"""Environmental drift evolution and the four feedback loops.

All loops are dither-based hill climbers: each update moves exactly one
actuator by one step, keeping the direction while the feedback improves and
reversing when it worsens.  The intensity loop is the exception - it applies
a proportional attenuator correction computed from the monitored flux.

The four EPC channels act on a shared effective rotation with decreasing
lever arms (channel 1 dominant); this reproduces four-trace actuator
telemetry without a full polarization-state simulation.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .channel import DriftState
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


class ControllerState(NamedTuple):
    """Actuator settings plus the per-loop dither memory."""

    control: ControlConfig = ControlConfig()
    stretcher_setting: float = 0.0        # rad-equivalent
    epc_settings: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    gate_delay: float = 0.0               # ps
    attenuator_setting: float = 0.0       # dB relative to nominal
    stretcher_dir: int = 1
    epc_dirs: tuple[int, int, int, int] = (1, 1, 1, 1)
    gate_dir: int = 1
    epc_cycle: int = 0                    # next EPC channel to dither
    last_qber: float | None = None        # reading at the previous stretcher move
    last_counts_epc: tuple[float | None, float | None, float | None, float | None] = (
        None, None, None, None)
    last_count_gate: float | None = None

    def net_epc_angle(self) -> float:
        (w1, w2, w3, w4), (s1, s2, s3, s4) = EPC_WEIGHTS, self.epc_settings
        return w1 * s1 + w2 * s2 + w3 * s3 + w4 * s4


def step_drift(drift: DriftState, link: LinkConfig, dt: float,
               rng: np.random.Generator) -> DriftState:
    """Advance the environment by dt seconds (diffusions plus timing ramp)."""
    # Python floats, not numpy scalars: the same values, cheaper arithmetic.
    g_phase, g_pol, g_timing, g_power = rng.standard_normal(4).tolist()
    return DriftState(
        drift.phase_error + math.sqrt(link.phase_diffusion * dt) * g_phase,
        drift.polarization_angle
        + math.sqrt(link.polarization_diffusion * dt) * g_pol,
        drift.timing_offset + link.timing_drift_rate * dt
        + math.sqrt(link.timing_diffusion * dt) * g_timing,
        drift.power_factor
        * math.exp(math.sqrt(link.laser_power_diffusion * dt) * g_power),
    )


def stretcher_feedback(qber_estimate: float | None,
                       state: ControllerState) -> ControllerState:
    """Dither-and-descend on the observed signal QBER."""
    if qber_estimate is None:
        return state
    direction = state.stretcher_dir
    if state.last_qber is not None and qber_estimate > state.last_qber:
        direction = -direction
    return state._replace(
        stretcher_dir=direction,
        stretcher_setting=(state.stretcher_setting
                           + direction * state.control.stretcher_step),
        last_qber=qber_estimate,
    )


def polarization_feedback(count_rate: float | None,
                          state: ControllerState) -> ControllerState:
    """Coordinate-wise hill climb on the detector count rate, cycling the
    four EPC channels one dither comparison per update."""
    if count_rate is None:
        return state
    ch = state.epc_cycle
    last = state.last_counts_epc[ch]
    if count_rate == 0.0 and (last is None or last == 0.0):
        # channel dark: no gradient signal, hold everything
        return state._replace(epc_cycle=(ch + 1) % 4)
    direction = state.epc_dirs[ch]
    if last is not None and count_rate < last:
        direction = -direction
    settings = list(state.epc_settings)
    settings[ch] += direction * state.control.epc_step
    dirs = list(state.epc_dirs)
    dirs[ch] = direction
    lasts = list(state.last_counts_epc)
    lasts[ch] = count_rate
    return state._replace(
        epc_settings=tuple(settings),
        epc_dirs=tuple(dirs),
        last_counts_epc=tuple(lasts),
        epc_cycle=(ch + 1) % 4,
    )


def gate_delay_feedback(count_rate: float | None,
                        state: ControllerState) -> ControllerState:
    """Dither climb on count rate, tracking arrival time with the gate delay."""
    if count_rate is None:
        return state
    if count_rate == 0.0 and (state.last_count_gate is None
                              or state.last_count_gate == 0.0):
        return state
    direction = state.gate_dir
    if state.last_count_gate is not None and count_rate < state.last_count_gate:
        direction = -direction
    return state._replace(
        gate_dir=direction,
        gate_delay=state.gate_delay + direction * state.control.gate_step,
        last_count_gate=count_rate,
    )


def intensity_feedback(measured_flux: float, source: SourceConfig,
                       state: ControllerState) -> ControllerState:
    """Proportional attenuator correction pulling the monitored flux back to
    the configured source intensity."""
    target = source.clock_rate * source.mean_intensity()
    if measured_flux <= 0.0 or target <= 0.0:
        return state
    correction = 10.0 * math.log10(measured_flux / target)
    return state._replace(
        attenuator_setting=(state.attenuator_setting
                            + state.control.intensity_gain * correction),
    )


def apply_controls(drift: DriftState, state: ControllerState) -> DriftState:
    """Residual drift seen by the optics after the actuators act."""
    return DriftState(
        drift.phase_error + state.stretcher_setting,
        drift.polarization_angle + state.net_epc_angle(),
        drift.timing_offset - state.gate_delay,
        drift.power_factor * 10.0 ** (-state.attenuator_setting / 10.0),
    )
