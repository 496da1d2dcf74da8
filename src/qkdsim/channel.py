"""Photon channel model: drift-dependent gains, error rates, and sampled counts.

Pulses are never simulated individually.  Each time step draws aggregate
binomial counts per intensity class from the instantaneous detection and
error probabilities, which is exact for independent pulses and keeps a
GHz-clocked session tractable.
"""
from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from .config import LinkConfig, SourceConfig

__all__ = [
    "CLASSES",
    "DriftState",
    "ClassRates",
    "PulseTally",
    "channel_transmittance",
    "drift_penalties",
    "expected_gain",
    "expected_qber",
    "class_rates",
    "sample_tally",
    "calibrate_misalignment",
]

CLASSES = ("mu", "nu1", "nu2")


class DriftState(NamedTuple):
    """Instantaneous physical misalignment of the link (hidden truth).

    phase_error: interferometer path-difference mismatch, radians.
    polarization_angle: effective rotation into non-interfering paths, radians.
    timing_offset: photon arrival minus gate center, ps.
    power_factor: multiplier on the emitted flux (laser/attenuator drift).
    """

    phase_error: float = 0.0
    polarization_angle: float = 0.0
    timing_offset: float = 0.0
    power_factor: float = 1.0


class ClassRates(NamedTuple):
    """Per-class detection probability per sent pulse (gain) and QBER."""

    q_mu: float
    e_mu: float
    q_nu1: float
    e_nu1: float
    q_nu2: float
    e_nu2: float

    def gain(self, cls: str) -> float:
        return getattr(self, f"q_{cls}")

    def qber(self, cls: str) -> float:
        return getattr(self, f"e_{cls}")


class PulseTally(NamedTuple):
    """Per-class counts for one interval: sent, sifted detections, sifted errors.

    Adding two tallies adds them field by field (not tuple concatenation).
    """

    sent_mu: int = 0
    sifted_mu: int = 0
    errors_mu: int = 0
    sent_nu1: int = 0
    sifted_nu1: int = 0
    errors_nu1: int = 0
    sent_nu2: int = 0
    sifted_nu2: int = 0
    errors_nu2: int = 0

    def sent(self, cls: str) -> int:
        return getattr(self, f"sent_{cls}")

    def sifted(self, cls: str) -> int:
        return getattr(self, f"sifted_{cls}")

    def errors(self, cls: str) -> int:
        return getattr(self, f"errors_{cls}")

    def total_sent(self) -> int:
        return self.sent_mu + self.sent_nu1 + self.sent_nu2

    def total_sifted(self) -> int:
        return self.sifted_mu + self.sifted_nu1 + self.sifted_nu2

    def __add__(self, other: "PulseTally") -> "PulseTally":
        return PulseTally._make(map(operator.add, self, other))

    def check(self) -> None:
        for cls in CLASSES:
            s, d, e = self.sent(cls), self.sifted(cls), self.errors(cls)
            if not 0 <= e <= d <= s:
                raise ValueError(f"tally invariant violated for class {cls}: "
                                 f"sent={s} sifted={d} errors={e}")


def channel_transmittance(loss_coefficient: float, fiber_length: float) -> float:
    """Fiber transmission probability for a dB/km loss coefficient."""
    return 10.0 ** (-loss_coefficient * fiber_length / 10.0)


def drift_penalties(drift: DriftState, link: LinkConfig) -> tuple[float, float]:
    """Map a drift state to (efficiency factor, phase-coding error probability).

    Polarization rotation and gate timing offset only cost detections;
    interferometer phase mismatch only costs errors.
    """
    eta_factor = (math.cos(drift.polarization_angle) ** 2
                  * math.exp(-drift.timing_offset ** 2
                             / (2.0 * link.gate_sigma ** 2)))
    phase_error_prob = (1.0 - math.cos(drift.phase_error)) / 2.0
    return eta_factor, phase_error_prob


def expected_gain(mean_photons: float, eta_total: float,
                  background_yield: float) -> float:
    """Detection probability per sent pulse: Poissonian source, threshold detector."""
    return 1.0 - (1.0 - background_yield) * math.exp(-mean_photons * eta_total)


def expected_qber(mean_photons: float, eta_total: float, background_yield: float,
                  misalignment_prob: float) -> float:
    """Error probability given a detection.

    Detections split into photon clicks (erroneous with the misalignment
    probability) and background-only clicks (random, error 1/2).
    """
    return _gain_and_qber(mean_photons, eta_total, background_yield,
                          min(misalignment_prob, 0.5))[1]


def _gain_and_qber(mean_photons: float, eta_total: float,
                   background_yield: float,
                   e_mis: float) -> tuple[float, float]:
    """(expected_gain, expected_qber) from one exponential; e_mis <= 0.5."""
    no_photon = math.exp(-mean_photons * eta_total)
    q = 1.0 - (1.0 - background_yield) * no_photon
    if q <= 0.0:
        return q, 0.5
    signal = 1.0 - no_photon
    background_only = background_yield * (1.0 - signal)
    return q, min(0.5, (0.5 * background_only + e_mis * signal) / q)


def class_rates(drift: DriftState, source: SourceConfig,
                link: LinkConfig) -> ClassRates:
    """Instantaneous (gain, QBER) per intensity class under the given drift."""
    eta_factor, phase_error_prob = drift_penalties(drift, link)
    eta_total = (channel_transmittance(link.loss_coefficient, link.fiber_length)
                 * link.detector_efficiency * eta_factor)
    y0 = link.background_yield()
    e_mis = min(link.intrinsic_misalignment_error + phase_error_prob, 0.5)
    power = drift.power_factor
    return ClassRates(
        *_gain_and_qber(source.mu * power, eta_total, y0, e_mis),
        *_gain_and_qber(source.nu1 * power, eta_total, y0, e_mis),
        *_gain_and_qber(source.nu2 * power, eta_total, y0, e_mis))


def sample_tally(rates: ClassRates, source: SourceConfig, step: float,
                 rng: np.random.Generator,
                 carry: dict[str, float] | None = None) -> PulseTally:
    """Draw one interval's counts.

    Sent counts are deterministic (clock_rate * step * p_class) with the
    fractional remainder carried in `carry` across calls; sifted and error
    counts are binomial with the 1/2 basis-sifting factor.
    """
    binomial = rng.binomial
    pulses = source.clock_rate * step
    counts = []
    for cls, p_cls, q, e in zip(CLASSES,
                                (source.p_mu, source.p_nu1, source.p_nu2),
                                (rates.q_mu, rates.q_nu1, rates.q_nu2),
                                (rates.e_mu, rates.e_nu1, rates.e_nu2)):
        exact = pulses * p_cls
        if carry is not None:
            exact += carry.get(cls, 0.0)
        sent = math.floor(exact + 1e-9)
        if carry is not None:
            carry[cls] = exact - sent
        sifted = int(binomial(sent, q / 2.0)) if sent > 0 and q > 0 else 0
        errors = int(binomial(sifted, e)) if sifted > 0 and e > 0 else 0
        counts += (sent, sifted, errors)
    return PulseTally._make(counts)


def calibrate_misalignment(source: SourceConfig, link: LinkConfig,
                           target_qber: float = 0.0385) -> float:
    """Solve for the intrinsic misalignment giving the target zero-drift
    signal QBER, by bisection."""
    eta_total = (channel_transmittance(link.loss_coefficient, link.fiber_length)
                 * link.detector_efficiency)
    y0 = link.background_yield()
    f = lambda e: expected_qber(source.mu, eta_total, y0, e) - target_qber
    lo, hi = 0.0, 0.5
    if f(lo) > 0 or f(hi) < 0:
        raise ValueError(f"target QBER {target_qber} unreachable on this link")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
