"""A whole session against a plain statement of its rules, bit for bit.

`session._run` draws the environment's normals 4,096 steps at a time and
scales them in place, folds a window's step tallies into their sum every 64
steps, and keeps each class's fraction of a pulse in a carry.  The reference
below states the same session one step at a time:

- one `standard_normal(4)` a step from the environment's stream, and the
  drift as the per-step chain phase + math.sqrt(rate * dt) * g;
- the four loops at their cadences, the gate loop half its interval later
  than the others and fed the mean sifted count rate over its own interval;
- the rates as `drift_penalties` then one `expected_rates` a class, and the
  counts drawn by a plain loop over CLASSES that keeps the carry;
- each complete window's tallies summed in full and distilled, and a
  trailing partial window dropped.

Both sides draw from generators made alike from the seed, so the equality
holds whatever bits numpy's stream gives.
"""
import math
import struct

import numpy as np
from hypothesis import example, given, settings, strategies as st

from qkdsim.channel import (CLASSES, SIFTING, DriftState, PulseTally,
                            drift_penalties, expected_rates, observed)
from qkdsim.config import (Config, ControlConfig, LinkConfig, SecurityConfig,
                           SimConfig, steps_per)
from qkdsim.finite_key import distill
from qkdsim.session import SecureKeyRecord, SessionSummary, run_session
from qkdsim.stabilization import (ATTEN, ControllerState, apply_controls,
                                  gate_delay_feedback, intensity_feedback,
                                  polarization_feedback, stretcher_feedback)

LOOPS = ("stretcher", "epc", "gate", "intensity")


def _reference_session(config):
    """(telemetry rows, records, summary) of a session, one step at a time."""
    source, link, control = config.source, config.link, config.control
    dt = config.sim.time_step
    n_steps = config.session_steps()
    env_rng, count_rng = map(np.random.default_rng, np.random.SeedSequence(
        config.sim.rng_seed).spawn(2))
    phase, pol, timing, power = DriftState()
    ctrl = ControllerState(control=control)
    every = {loop: steps_per(getattr(control, f"{loop}_interval"), dt)
             for loop in LOOPS}
    carry = [0.0] * len(CLASSES)
    rows, tallies, sifted = [], [], []
    last_qber = last_count_rate = None
    gate_from = 0   # the step of the gate loop's previous update
    for i in range(n_steps):
        g_phase, g_pol, g_timing, g_power = env_rng.standard_normal(4).tolist()
        phase = phase + math.sqrt(link.phase_diffusion * dt) * g_phase
        pol = pol + math.sqrt(link.polarization_diffusion * dt) * g_pol
        timing = (timing + link.timing_drift_rate * dt
                  + math.sqrt(link.timing_diffusion * dt) * g_timing)
        power = power * math.exp(
            math.sqrt(link.laser_power_diffusion * dt) * g_power)

        if config.sim.stabilization_enabled:
            if i % every["stretcher"] == 0:
                stretcher_feedback(last_qber, ctrl)
            if i % every["epc"] == 0:
                polarization_feedback(last_count_rate, ctrl)
            if i % every["gate"] == every["gate"] // 2:
                gate_delay_feedback(
                    sum(sifted[gate_from:i]) / ((i - gate_from) * dt)
                    if i > gate_from else None, ctrl)
                gate_from = i
            if i % every["intensity"] == 0:
                intensity_feedback(source.nominal_flux * power
                                   * 10.0 ** (-ctrl.settings[ATTEN] / 10.0),
                                   source, ctrl)

        residual = apply_controls(DriftState(phase, pol, timing, power), ctrl)
        eta_factor, phase_error_prob = drift_penalties(residual, link)
        eta, y0 = link.zero_drift_detection
        e_mis = min(link.intrinsic_misalignment_error + phase_error_prob, 0.5)
        counts = []
        for k, cls in enumerate(CLASSES):
            q, r = expected_rates(getattr(source, cls) * residual.power_factor,
                                  eta * eta_factor, y0, e_mis)
            exact = (source.clock_rate * dt * getattr(source, f"p_{cls}")
                     + carry[k])
            sent = math.floor(exact + 1e-9)
            carry[k] = exact - sent
            d = (count_rng.binomial(sent, q * SIFTING)
                 if sent > 0 and q > 0 else 0)
            e = count_rng.binomial(d, r) if d > 0 and r > 0 else 0
            counts += [sent, d, e]
        tally = PulseTally(*counts)
        seen = observed(tally)
        last_qber = None if math.isnan(seen[0]) else seen[0]
        sifted.append(tally.sifted_mu + tally.sifted_nu1 + tally.sifted_nu2)
        last_count_rate = sifted[-1] / dt
        rows.append((i * dt, *seen, *ctrl.settings, phase, pol, timing, power))
        tallies.append(tally)

    window_steps = steps_per(config.security.distill_interval, dt)
    records = []
    for start in range(0, n_steps - window_steps + 1, window_steps):
        end = start + window_steps
        tally = sum(tallies[start:end], PulseTally())
        key = distill(tally, source, config.security)
        records.append(SecureKeyRecord(
            start * dt, end * dt, tally, key,
            key.secure_bits / (end * dt - start * dt)))
    total_bits = sum(record.key.secure_bits for record in records)
    window_time = len(records) * window_steps * dt
    whole = sum(tallies, PulseTally())
    qbers = [row[1] for row in rows if not math.isnan(row[1])]
    summary = SessionSummary(
        n_steps * dt, n_steps, len(records), total_bits,
        total_bits / window_time if window_time > 0 else 0.0,
        whole.errors_mu / whole.sifted_mu if whole.sifted_mu > 0 else None,
        max(qbers) if qbers else None)
    return rows, records, summary


def _config(dt, steps, window, cadences, fiber_length, loops, seed):
    """A session of `steps` steps of `dt`, a distillation window of `window`
    steps and the four loops every `cadences` steps, in LOOPS order."""
    return Config(
        link=LinkConfig(fiber_length=fiber_length),
        security=SecurityConfig(distill_interval=window * dt),
        sim=SimConfig(duration=steps * dt, time_step=dt, rng_seed=seed,
                      stabilization_enabled=loops),
        control=ControlConfig(**{f"{loop}_interval": k * dt
                                 for loop, k in zip(LOOPS, cadences)}))


@settings(max_examples=25, deadline=None)
@given(st.one_of(st.sampled_from([1.0, 0.25, 60.0]), st.floats(0.01, 60.0)),
       st.integers(0, 600), st.integers(1, 300),
       st.tuples(*[st.integers(1, 12)] * 4), st.floats(0.0, 200.0),
       st.booleans(), st.integers(0, 2**32))
# Past the 4,096-step block: a window that closes inside the second block,
# windows of 64 steps of which one closes at the boundary itself, and a
# window that spans it, with a third of a pulse carried from step to step.
@example(1.0, 4200, 1200, (1, 5, 5, 1), 50.0, True, 1)
@example(0.25, 4160, 64, (3, 2, 7, 4), 100.0, True, 2)
@example(1 / 3, 4500, 1500, (1, 5, 5, 1), 150.0, True, 3)
def test_session_is_its_reference(dt, steps, window, cadences, fiber_length,
                                  loops, seed):
    config = _config(dt, steps, window, cadences, fiber_length, loops, seed)
    rows, records, summary = _reference_session(config)
    result = run_session(config)
    cells = [v for row in rows for v in row]
    assert result.telemetry.tobytes() == struct.pack(f"{len(cells)}d", *cells)
    # repr writes every float exactly, NaN and signed zeros included
    assert repr(result.records) == repr(records)
    assert ([r.key.efficiency for r in result.records]
            == [r.key.efficiency for r in records])
    assert repr(result.summary) == repr(summary)
