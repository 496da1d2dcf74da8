import copy
import math
from dataclasses import fields

import numpy as np
import pytest

from qkdsim.channel import DriftState
from qkdsim.config import ControlConfig, LinkConfig
from qkdsim.stabilization import (ATTEN, EPC, GATE, STRETCHER,
                                  ControllerState, apply_controls,
                                  gate_delay_feedback, intensity_feedback,
                                  polarization_feedback, step_drift,
                                  stretcher_feedback)
from qkdsim.config import SourceConfig

FROZEN = LinkConfig(phase_diffusion=0, polarization_diffusion=0,
                    timing_drift_rate=0, timing_diffusion=0,
                    laser_power_diffusion=0)


# ---------------------------------------------------------------------------
# drift process
# ---------------------------------------------------------------------------

def _step(drift, link, dt, normals):
    """`step_drift` given four standard normals, each scaled by its
    diffusion's math.sqrt(rate * dt) as a session scales them."""
    rates = (link.phase_diffusion, link.polarization_diffusion,
             link.timing_diffusion, link.laser_power_diffusion)
    return step_drift(drift, link.timing_drift_rate * dt,
                      [math.sqrt(r * dt) * g for r, g in zip(rates, normals)])


def test_step_drift_frozen_environment():
    rng = np.random.default_rng(0)
    drift = DriftState(phase_error=0.2, polarization_angle=-0.1,
                       timing_offset=3.0, power_factor=1.05)
    assert _step(drift, FROZEN, 1.0, rng.standard_normal(4)) == drift


def test_step_drift_random_walk_variance():
    # random-walk oracle: Var[phase after N steps] = D * N * dt
    link = LinkConfig(phase_diffusion=1e-4)
    trials, steps = 2000, 100
    rng = np.random.default_rng(11)
    finals = []
    for _ in range(trials):
        d = DriftState()
        for _ in range(steps):
            d = _step(d, link, 1.0, rng.standard_normal(4))
        finals.append(d.phase_error)
    expected = 1e-4 * steps * 1.0
    observed = np.var(finals)
    rel_sigma = math.sqrt(2.0 / trials)
    assert abs(observed - expected) < 5 * rel_sigma * expected


def test_step_drift_deterministic_timing_ramp():
    link = LinkConfig(timing_drift_rate=0.05, timing_diffusion=0,
                      phase_diffusion=0, polarization_diffusion=0,
                      laser_power_diffusion=0)
    rng = np.random.default_rng(0)
    d = DriftState()
    for _ in range(100):
        d = _step(d, link, 1.0, rng.standard_normal(4))
    assert d.timing_offset == pytest.approx(0.05 * 100, rel=1e-12)


def test_step_drift_reproducible():
    link = LinkConfig()
    a = _step(DriftState(), link, 1.0,
                   np.random.default_rng(3).standard_normal(4))
    b = _step(DriftState(), link, 1.0,
                   np.random.default_rng(3).standard_normal(4))
    assert a == b


# ---------------------------------------------------------------------------
# fiber stretcher (QBER dither-and-descend)
# ---------------------------------------------------------------------------

def _qber_at(phase_residual: float) -> float:
    return 0.038 + (1 - math.cos(phase_residual)) / 2


def _run_stretcher(phase_drift: float, updates: int,
                   step: float) -> ControllerState:
    ctrl = ControllerState(control=ControlConfig(stretcher_step=step))
    for _ in range(updates):
        stretcher_feedback(
            _qber_at(phase_drift + ctrl.settings[STRETCHER]), ctrl)
    return ctrl


def test_stretcher_descends_initial_offset():
    step = 0.05
    budget = math.ceil(0.5 / step) + 5
    ctrl = _run_stretcher(0.5, budget, step)
    assert abs(0.5 + ctrl.settings[STRETCHER]) <= 2 * step


def test_stretcher_converged_dither_stays_within_one_step():
    step = 0.05
    ctrl = ControllerState(control=ControlConfig(stretcher_step=step))
    seen = []
    for _ in range(50):
        stretcher_feedback(_qber_at(ctrl.settings[STRETCHER]), ctrl)
        seen.append(ctrl.settings[STRETCHER])
    assert max(abs(s) for s in seen[4:]) <= step + 1e-12


def test_stretcher_reverses_after_worse_reading():
    ctrl = ControllerState(control=ControlConfig())
    stretcher_feedback(0.04, ctrl)
    direction = ctrl.dirs[STRETCHER]
    stretcher_feedback(0.05, ctrl)  # worse
    assert ctrl.dirs[STRETCHER] == -direction


def test_stretcher_holds_on_absent_feedback():
    ctrl = ControllerState(control=ControlConfig())
    state = copy.deepcopy(ctrl)
    stretcher_feedback(None, state)
    assert state == ctrl


# ---------------------------------------------------------------------------
# polarization controller (count-rate hill climb over 4 channels)
# ---------------------------------------------------------------------------

def _net(pol_drift: float, ctrl: ControllerState) -> float:
    """The polarization angle left once the EPC channels act on `pol_drift`,
    as a session computes it."""
    return apply_controls(DriftState(polarization_angle=pol_drift),
                          ctrl).polarization_angle


def _run_epc(pol_drift: float, updates: int, step: float) -> ControllerState:
    ctrl = ControllerState(control=ControlConfig(epc_step=step))
    for _ in range(updates):
        net = _net(pol_drift, ctrl)
        polarization_feedback(1e6 * math.cos(net) ** 2, ctrl)
    return ctrl


def test_epc_recovers_misalignment():
    step = 0.02
    # each 4-update sweep advances the net angle by at most
    # step * sum(weights), so allow two sweeps' headroom over the minimum
    budget = 8 * math.ceil(0.3 / step)
    ctrl = _run_epc(0.3, budget, step)
    assert math.cos(_net(0.3, ctrl)) ** 2 >= 0.99


def test_epc_converged_stays_near_optimum():
    step = 0.02
    ctrl = _run_epc(0.0, 200, step)
    assert abs(_net(0.0, ctrl)) <= 4 * step


def test_epc_dark_channel_holds_settings():
    ctrl = ControllerState(control=ControlConfig())
    state = copy.deepcopy(ctrl)
    for _ in range(8):
        polarization_feedback(0.0, state)
    assert state.settings[EPC:GATE] == ctrl.settings[EPC:GATE]


def test_epc_single_update_moves_one_channel_one_step():
    ctrl = ControllerState(control=ControlConfig(epc_step=0.02))
    after = copy.deepcopy(ctrl)
    polarization_feedback(1000.0, after)
    moved = [abs(b - a) for a, b in zip(ctrl.settings[EPC:GATE],
                                        after.settings[EPC:GATE])]
    assert sorted(moved) == [0.0, 0.0, 0.0, pytest.approx(0.02)]


# ---------------------------------------------------------------------------
# gate delay tracking
# ---------------------------------------------------------------------------

def _gate_counts(offset: float, delay: float, sigma: float = 100.0) -> float:
    return 1e6 * math.exp(-((offset - delay) ** 2) / (2 * sigma ** 2))


def test_gate_holds_at_optimum():
    step = 1.0
    ctrl = ControllerState(control=ControlConfig(gate_step=step),
                           settings=[0.0] * GATE + [50.0, 0.0])
    seen = []
    for _ in range(40):
        gate_delay_feedback(_gate_counts(50.0, ctrl.settings[GATE]), ctrl)
        seen.append(ctrl.settings[GATE])
    assert max(abs(d - 50.0) for d in seen[4:]) <= step + 1e-12


def test_gate_dark_channel_holds_delay():
    # no reading to climb on: no count, or none before it either
    ctrl = ControllerState(control=ControlConfig())
    state = copy.deepcopy(ctrl)
    for _ in range(4):
        gate_delay_feedback(0.0, state)
    assert state == ctrl
    state.last[GATE] = 0.0
    after = copy.deepcopy(state)
    gate_delay_feedback(0.0, after)
    assert after == state


def test_gate_tracks_constant_drift():
    # tracking fixed point: lag bounded by one step plus the drift per update
    rate, tau, step = 0.15, 5.0, 1.0
    ctrl = ControllerState(control=ControlConfig(gate_step=step))
    offset = 0.0
    lags = []
    for t in range(1, 1201):
        offset += rate
        if t % int(tau) == 0:
            gate_delay_feedback(_gate_counts(offset, ctrl.settings[GATE]),
                                ctrl)
        if t > 400:
            lags.append(abs(offset - ctrl.settings[GATE]))
    assert max(lags) <= step + rate * tau + 1e-9


def test_gate_loses_lock_when_drift_outruns_actuation():
    # documented failure mode: drift rate above step/interval diverges
    rate, tau, step = 0.5, 5.0, 1.0
    ctrl = ControllerState(control=ControlConfig(gate_step=step))
    offset, lag_early, lag_late = 0.0, None, None
    for t in range(1, 2001):
        offset += rate
        if t % int(tau) == 0:
            gate_delay_feedback(_gate_counts(offset, ctrl.settings[GATE]),
                                ctrl)
        if t == 500:
            lag_early = abs(offset - ctrl.settings[GATE])
        if t == 2000:
            lag_late = abs(offset - ctrl.settings[GATE])
    assert lag_late > lag_early + 100


# ---------------------------------------------------------------------------
# intensity loop
# ---------------------------------------------------------------------------

def test_intensity_on_target_is_idle():
    source = SourceConfig()
    ctrl = ControllerState(control=ControlConfig())
    target = source.clock_rate * source.mean_intensity()
    state = copy.deepcopy(ctrl)
    intensity_feedback(target, source, state)
    assert state == ctrl


@pytest.mark.parametrize("measured", [0.0, -1.0])
def test_intensity_holds_without_a_positive_flux(measured):
    # no log of the flux ratio to correct by
    ctrl = ControllerState(control=ControlConfig())
    state = copy.deepcopy(ctrl)
    intensity_feedback(measured, SourceConfig(), state)
    assert state == ctrl


def test_intensity_corrects_in_one_update():
    source = SourceConfig()
    ctrl = ControllerState(control=ControlConfig(intensity_gain=1.0))
    target = source.clock_rate * source.mean_intensity()
    power = 1.1
    measured = target * power * 10 ** (-ctrl.settings[ATTEN] / 10)
    intensity_feedback(measured, source, ctrl)
    restored = power * 10 ** (-ctrl.settings[ATTEN] / 10)
    assert abs(restored - 1.0) < 1e-3


def test_intensity_cancels_power_drift_through_apply_controls():
    source = SourceConfig()
    ctrl = ControllerState(control=ControlConfig())
    drift = DriftState(power_factor=1.25)
    target = source.clock_rate * source.mean_intensity()
    intensity_feedback(target * 1.25, source, ctrl)
    residual = apply_controls(drift, ctrl)
    assert residual.power_factor == pytest.approx(1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# actuation discipline
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("update,feedback", [
    (stretcher_feedback, 0.04),
    (polarization_feedback, 1000.0),
    (gate_delay_feedback, 1000.0),
    pytest.param(
        lambda flux, state: intensity_feedback(flux, SourceConfig(), state),
        1.1 * SourceConfig().nominal_flux, id="intensity_feedback"),
])
def test_each_update_touches_exactly_one_actuator(update, feedback):
    before = ControllerState(control=ControlConfig())
    after = copy.deepcopy(before)
    update(feedback, after)
    changed = sum(a != b for a, b in zip(before.settings, after.settings))
    assert changed == 1


def test_only_a_count_loop_holds_on_a_zero_reading():
    # A QBER of 0.0 is a perfect reading: the stretcher moves on it, also
    # after another 0.0.
    state = ControllerState()
    stretcher_feedback(0.0, state)
    stretcher_feedback(0.0, state)
    assert state.settings[STRETCHER] == 2 * state.control.stretcher_step
    # A count rate of 0.0 after no reading or another 0.0 is a dark channel,
    # and the EPC and gate loops hold; after counts it is a fall, and the
    # loop reverses.
    control = ControlConfig()
    for update, k, step in [(polarization_feedback, EPC, control.epc_step),
                            (gate_delay_feedback, GATE, control.gate_step)]:
        for previous, moved in [(None, 0.0), (0.0, 0.0), (1000.0, -step)]:
            state = ControllerState(control=control)
            state.last[k] = previous
            update(0.0, state)
            assert state.settings == [0.0] * k + [moved] + [0.0] * (6 - k)


def test_states_share_no_list():
    # the loops update the per-channel lists in place: a list shared through
    # a default would carry one session's settings into the next
    a, b = ControllerState(), ControllerState()
    lists = [f.name for f in fields(a) if isinstance(getattr(a, f.name), list)]
    assert lists == ["settings", "dirs", "last"]
    for name in lists:
        assert getattr(a, name) is not getattr(b, name)
    polarization_feedback(1000.0, a)
    assert (b.settings, b.dirs, b.last) == ([0.0] * 7, [1] * 6, [None] * 6)


def test_apply_controls_composition():
    ctrl = ControllerState(control=ControlConfig(),
                           settings=[0.1, 0.2, 0.0, 0.0, 0.0, 4.0, 1.0])
    drift = DriftState(phase_error=-0.1, polarization_angle=-0.2,
                       timing_offset=4.0, power_factor=10 ** 0.1)
    residual = apply_controls(drift, ctrl)
    assert residual.phase_error == pytest.approx(0.0, abs=1e-12)
    assert residual.polarization_angle == pytest.approx(0.0, abs=1e-12)
    assert residual.timing_offset == pytest.approx(0.0, abs=1e-12)
    assert residual.power_factor == pytest.approx(1.0, rel=1e-12)
