"""Photon channel model: drift-dependent gains, error rates, and sampled counts.

Pulses are never simulated individually.  Each time step draws aggregate
binomial counts per intensity class from the instantaneous detection and
error probabilities, which is exact for independent pulses and keeps a
GHz-clocked session tractable.
"""
from __future__ import annotations

import math
import operator
from math import floor, nan
from typing import NamedTuple

import numpy as np

from .config import LinkConfig, SourceConfig

__all__ = [
    "CLASSES",
    "SIFTING",
    "DriftState",
    "PulseTally",
    "channel_transmittance",
    "drift_penalties",
    "expected_rates",
    "class_rates",
    "observed",
    "sample_tally",
    "calibrate_misalignment",
]

CLASSES = ("mu", "nu1", "nu2")
# Fraction of detections kept by basis sifting: sender and receiver choose
# between two bases with equal probability.
SIFTING = 0.5
# Builds a NamedTuple from a sequence of all its fields, skipping the
# generated __new__: the step loop builds one or more every step.
_new = tuple.__new__


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


class PulseTally(NamedTuple):
    """Per-class counts for one interval: sent, sifted detections, sifted errors.

    The layout is class-major: `tally[0::3]`, `tally[1::3]` and
    `tally[2::3]` are the sent, sifted and error counts in CLASSES order.
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

    def __add__(self, other: "PulseTally") -> "PulseTally":
        return PulseTally._make(map(operator.add, self, other))

    def check(self, where: str = "") -> None:
        """Raise ValueError, its message prefixed by `where`, unless
        errors <= sifted <= sent in every class."""
        for cls, s, d, e in zip(CLASSES, self[0::3], self[1::3], self[2::3]):
            if not 0 <= e <= d <= s:
                raise ValueError(f"{where}tally invariant violated for class "
                                 f"{cls}: sent={s} sifted={d} errors={e}")


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


def expected_rates(mean_photons: float, eta_total: float,
                   background_yield: float,
                   e_mis: float) -> tuple[float, float]:
    """(gain, QBER): detection probability per sent pulse for a Poissonian
    source and threshold detector, and error probability given a detection.

    Detections split into photon clicks (erroneous with the misalignment
    probability e_mis) and background-only clicks (random, error 1/2); the
    QBER is capped at 1/2.
    """
    no_photon = math.exp(-mean_photons * eta_total)
    q = 1.0 - (1.0 - background_yield) * no_photon
    if q <= 0.0:
        return q, 0.5
    signal = 1.0 - no_photon
    background_only = background_yield * (1.0 - signal)
    qber = (0.5 * background_only + e_mis * signal) / q
    return q, qber if qber < 0.5 else 0.5


def class_rates(drift: DriftState, source: SourceConfig,
                link: LinkConfig) -> tuple[tuple[float, float], ...]:
    """Instantaneous (gain, QBER) of each intensity class, in CLASSES order,
    under the given drift: `drift_penalties`, then `expected_rates` of each
    class, bit for bit.  Unrolled: the session calls it every step."""
    phase, pol, timing, power = drift
    eta, y0 = link.zero_drift_detection
    eta_total = eta * (math.cos(pol) ** 2 * math.exp(
        -timing ** 2 / (2.0 * link.gate_sigma ** 2)))
    e_mis = link.intrinsic_misalignment_error + (1.0 - math.cos(phase)) / 2.0
    e_mis = 0.5 if 0.5 < e_mis else e_mis  # min(e_mis, 0.5), NaN kept
    no_dark = 1.0 - y0
    # each class as in expected_rates, whose result is (q, 0.5) where q <= 0
    no_photon = math.exp(-(source.mu * power) * eta_total)
    if (q := 1.0 - no_dark * no_photon) <= 0.0:
        mu = q, 0.5
    else:
        e = (0.5 * (y0 * (1.0 - (s := 1.0 - no_photon))) + e_mis * s) / q
        mu = q, e if e < 0.5 else 0.5
    no_photon = math.exp(-(source.nu1 * power) * eta_total)
    if (q := 1.0 - no_dark * no_photon) <= 0.0:
        nu1 = q, 0.5
    else:
        e = (0.5 * (y0 * (1.0 - (s := 1.0 - no_photon))) + e_mis * s) / q
        nu1 = q, e if e < 0.5 else 0.5
    no_photon = math.exp(-(source.nu2 * power) * eta_total)
    if (q := 1.0 - no_dark * no_photon) <= 0.0:
        nu2 = q, 0.5
    else:
        e = (0.5 * (y0 * (1.0 - (s := 1.0 - no_photon))) + e_mis * s) / q
        nu2 = q, e if e < 0.5 else 0.5
    return mu, nu1, nu2


def observed(tally: PulseTally) -> tuple[float, ...]:
    """The QBER of each class, then the transmittance of each class (sifted
    over sent detections, the sifting undone), in CLASSES order; NaN where
    a class sifted or sent nothing.  Unrolled: the session calls it every
    step."""
    s_mu, d_mu, e_mu, s_nu1, d_nu1, e_nu1, s_nu2, d_nu2, e_nu2 = tally
    return (e_mu / d_mu if d_mu > 0 else nan,
            e_nu1 / d_nu1 if d_nu1 > 0 else nan,
            e_nu2 / d_nu2 if d_nu2 > 0 else nan,
            d_mu / SIFTING / s_mu if s_mu > 0 else nan,
            d_nu1 / SIFTING / s_nu1 if s_nu1 > 0 else nan,
            d_nu2 / SIFTING / s_nu2 if s_nu2 > 0 else nan)


def sample_tally(rates: tuple[tuple[float, float], ...], source: SourceConfig,
                 step: float, rng: np.random.Generator,
                 carry: list[float] | None = None) -> PulseTally:
    """Draw one interval's counts from `class_rates` output.

    Sent counts are deterministic (clock_rate * step * p_class) with the
    fractional remainder of each class carried in `carry`, a list indexed
    like CLASSES, across calls; sifted and error counts are binomial with
    the basis-sifting factor, drawn sifted then errors, class by class.
    Unrolled: the session calls it every step.
    """
    if carry is None:
        carry = [0.0] * len(CLASSES)
    binomial = rng.binomial  # a Python int for scalar arguments
    pulses = source.clock_rate * step
    # gain q and QBER r of each class; sent s, sifted d and errors e counts
    (q_mu, r_mu), (q_nu1, r_nu1), (q_nu2, r_nu2) = rates

    exact = pulses * source.p_mu + carry[0]
    s_mu = floor(exact + 1e-9)
    carry[0] = exact - s_mu
    d_mu = binomial(s_mu, q_mu * SIFTING) if s_mu > 0 and q_mu > 0 else 0
    e_mu = binomial(d_mu, r_mu) if d_mu > 0 and r_mu > 0 else 0

    exact = pulses * source.p_nu1 + carry[1]
    s_nu1 = floor(exact + 1e-9)
    carry[1] = exact - s_nu1
    d_nu1 = binomial(s_nu1, q_nu1 * SIFTING) if s_nu1 > 0 and q_nu1 > 0 else 0
    e_nu1 = binomial(d_nu1, r_nu1) if d_nu1 > 0 and r_nu1 > 0 else 0

    exact = pulses * source.p_nu2 + carry[2]
    s_nu2 = floor(exact + 1e-9)
    carry[2] = exact - s_nu2
    d_nu2 = binomial(s_nu2, q_nu2 * SIFTING) if s_nu2 > 0 and q_nu2 > 0 else 0
    e_nu2 = binomial(d_nu2, r_nu2) if d_nu2 > 0 and r_nu2 > 0 else 0

    return _new(PulseTally, (s_mu, d_mu, e_mu, s_nu1, d_nu1, e_nu1,
                             s_nu2, d_nu2, e_nu2))


def calibrate_misalignment(source: SourceConfig, link: LinkConfig,
                           target_qber: float = 0.0385) -> float:
    """Solve for the intrinsic misalignment giving the target zero-drift
    signal QBER, by bisection."""
    eta_total, y0 = link.zero_drift_detection
    f = lambda e: expected_rates(source.mu, eta_total, y0, e)[1] - target_qber
    lo, hi = 0.0, 0.5
    if not f(lo) <= 0 <= f(hi):    # a NaN target fails too
        raise ValueError(f"target QBER {target_qber} unreachable on this link")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
