"""The closed-loop step's unrolled arithmetic against reference copies of
the model, bit for bit, NaN and signed zeros included.

`channel.class_rates` computes the three classes in one body; its reference
is `drift_penalties` followed by one `expected_rates` call per class.  A
session scales each block of environment normals in place by
math.sqrt(diffusion * time_step) and `step_drift` adds the increments; the
reference is the per-step chain phase + math.sqrt(rate * dt) * g.

Nothing here draws from numpy's random stream: the normals come from
Hypothesis, through a stand-in for the session's generators.
"""
import math
import struct
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from qkdsim.channel import (DriftState, class_rates, drift_penalties,
                            expected_rates)
from qkdsim.config import Config, LinkConfig, SimConfig, SourceConfig
from qkdsim.session import TelemetryRow, run_session

NAN = math.nan
EDGES = st.sampled_from([0.0, -0.0, NAN, 1.0, -1.0])


def _floats(lo, hi, nan=True):
    """Floats in [lo, hi], the edges among them often, and NaN if `nan`.
    Hypothesis favours simple floats, whose sums and products seldom round;
    the uniform grid gives full mantissas, which do."""
    return st.one_of(EDGES.filter(lambda v: (nan and v != v) or lo <= v <= hi),
                     st.floats(lo, hi),
                     st.integers(0, 2**52).map(
                         lambda k: lo + (hi - lo) * (k / 2**52)))


def _bits(values) -> bytes:
    return struct.pack(f"{len(values)}d", *values)


def _rate_bits(rates) -> bytes:
    return _bits([v for pair in rates for v in pair])


def _reference_rates(drift, source, link):
    eta_factor, phase_error_prob = drift_penalties(drift, link)
    eta, y0 = link.zero_drift_detection
    eta_total = eta * eta_factor
    e_mis = min(link.intrinsic_misalignment_error + phase_error_prob, 0.5)
    power = drift.power_factor
    return [expected_rates(mean * power, eta_total, y0, e_mis)
            for mean in (source.mu, source.nu1, source.nu2)]


drifts = st.builds(DriftState, _floats(-10.0, 10.0), _floats(-10.0, 10.0),
                   _floats(-1e3, 1e3), _floats(-2.0, 2.0))
sources = st.builds(SourceConfig, mu=_floats(0.0, 100.0),
                    nu1=_floats(0.0, 100.0), nu2=_floats(0.0, 100.0))
links = st.builds(LinkConfig, fiber_length=_floats(0.0, 300.0),
                  detector_efficiency=_floats(0.0, 1.0),
                  dark_count_prob=_floats(0.0, 1.0),
                  intrinsic_misalignment_error=_floats(0.0, 1.0),
                  gate_sigma=_floats(0.001, 1e3))


@settings(max_examples=500)
@given(drifts, sources, links)
# a gain near 1 - exp(-1), where the last bit of eta_total shows
@example(DriftState(0.0, 1.0, 1.0, 1.0), SourceConfig(nu2=2.0),
         LinkConfig(fiber_length=0.0, detector_efficiency=0.40625,
                    dark_count_prob=0.0, gate_sigma=74.5))
# the phase error and the misalignment past the cap of 0.5
@example(DriftState(math.pi, 0.0, 0.0, 1.0), SourceConfig(),
         LinkConfig(intrinsic_misalignment_error=0.3))
# zero gain: no dark counts and a class of zero intensity, or no power
@example(DriftState(), SourceConfig(nu2=0.0), LinkConfig(dark_count_prob=0.0))
@example(DriftState(0.1, -0.0, -0.0, 0.0), SourceConfig(),
         LinkConfig(dark_count_prob=0.0))
@example(DriftState(0.1, 0.2, 3.0, -0.0), SourceConfig(nu2=-0.0),
         LinkConfig(dark_count_prob=0.0, detector_efficiency=0.0))
@example(DriftState(NAN, 0.0, 0.0, 1.0), SourceConfig(), LinkConfig())
@example(DriftState(0.0, 0.0, 0.0, NAN), SourceConfig(),
         LinkConfig(dark_count_prob=0.0))
def test_class_rates_is_its_reference(drift, source, link):
    assert (_rate_bits(class_rates(drift, source, link))
            == _rate_bits(_reference_rates(drift, source, link)))


class _Normals:
    """Stands in for the environment's generator: hands out the given
    normals in the shapes the session asks for."""

    def __init__(self, normals):
        self.normals = np.array(normals, dtype=float).reshape(-1, 4)

    def standard_normal(self, shape):
        block, self.normals = (self.normals[:shape[0]],
                               self.normals[shape[0]:])
        return block.copy()


class _NoCounts:
    """Stands in for the detections' generator: no count is ever drawn."""

    @staticmethod
    def binomial(n, p):
        return 0


def _reference_drift(link, dt, normals):
    phase, pol, timing, power = DriftState()
    path = []
    for g_phase, g_pol, g_timing, g_power in normals:
        phase = phase + math.sqrt(link.phase_diffusion * dt) * g_phase
        pol = pol + math.sqrt(link.polarization_diffusion * dt) * g_pol
        timing = (timing + link.timing_drift_rate * dt
                  + math.sqrt(link.timing_diffusion * dt) * g_timing)
        power = power * math.exp(
            math.sqrt(link.laser_power_diffusion * dt) * g_power)
        path += [phase, pol, timing, power]
    return path


# a session's link is a valid one: no NaN
diffusions = _floats(0.0, 1e6, nan=False)
# Twelve steps of typical draws, whose timing sums round differently in
# another order by the eighth step.
TYPICAL = [(0.4997, -1.7893, -1.1788, -0.7754), (0.0731, 1.4745, -1.1482, 0.0042),
           (-1.6594, 0.3138, 0.6695, -1.1985), (1.2265, -0.2558, -2.2939, 1.7812),
           (-0.1307, -1.0256, -0.1434, -1.4702), (-0.3608, 0.4453, -2.2561, 1.1895),
           (0.2667, -0.739, 1.101, 0.5006), (-1.4367, 0.5049, 0.2029, -0.7502),
           (1.4963, 0.9914, 1.3563, 0.3663), (-1.0218, 0.551, -0.5042, 0.3683),
           (-0.549, -0.622, 0.3982, 1.271), (-0.4009, 0.4434, -0.2859, 1.3907)]
normal = st.one_of(EDGES, _floats(-6.0, 6.0))


@settings(max_examples=60, deadline=None)
@given(st.builds(LinkConfig, phase_diffusion=diffusions,
                 polarization_diffusion=diffusions,
                 timing_drift_rate=_floats(-1e6, 1e6, nan=False),
                 timing_diffusion=diffusions,
                 laser_power_diffusion=_floats(0.0, 1e-5, nan=False)),
       st.one_of(st.sampled_from([1.0, 0.25, 60.0]),
                 st.floats(1e-3, 60.0)),
       st.lists(st.tuples(normal, normal, normal, normal), min_size=1,
                max_size=12))
@example(LinkConfig(timing_drift_rate=-0.0), 0.1, [(-0.0, 0.0, -0.0, -0.0)])
@example(LinkConfig(timing_drift_rate=0.7, timing_diffusion=0.5), 0.25, TYPICAL)
def test_block_scaled_increments_follow_the_reference_chain(
        link, dt, normals):
    # at most 12 steps of 60 s: no distillation window closes
    config = Config(link=link, sim=SimConfig(
        duration=len(normals) * dt, time_step=dt, stabilization_enabled=False))
    generators = iter([_Normals(normals), _NoCounts()])
    with mock.patch.object(np.random, "default_rng",
                           lambda seed: next(generators)):
        result = run_session(config, seed=0)
    n = result.summary.n_steps
    hidden = TelemetryRow._fields.index("hidden_phase_rad")
    assert (result.telemetry[:, hidden:].tobytes()
            == _bits(_reference_drift(link, dt, normals[:n])))

