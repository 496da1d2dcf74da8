import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qkdsim.channel import (DriftState, PulseTally, calibrate_misalignment,
                            channel_transmittance, class_rates,
                            drift_penalties, expected_rates, sample_tally)
from qkdsim.config import LinkConfig, SourceConfig

Y0 = 1 - (1 - 9e-6) ** 2
ETA = 0.1 * 0.165  # 50 km at 0.2 dB/km times detector efficiency


def test_channel_transmittance():
    assert channel_transmittance(0.2, 50) == pytest.approx(0.1, rel=1e-12)
    assert channel_transmittance(0.2, 0) == 1.0
    assert channel_transmittance(0.0, 50) == 1.0


def test_drift_penalties_aligned():
    assert drift_penalties(DriftState(), LinkConfig()) == (1.0, 0.0)


def test_drift_penalties_crossed_polarization():
    eta, perr = drift_penalties(DriftState(polarization_angle=math.pi / 2),
                                LinkConfig())
    assert eta == pytest.approx(0.0, abs=1e-12)
    assert perr == 0.0


def test_drift_penalties_antiphase():
    eta, perr = drift_penalties(DriftState(phase_error=math.pi), LinkConfig())
    assert eta == 1.0
    assert perr == pytest.approx(1.0, rel=1e-12)


def test_expected_gain_vacuum_class():
    assert expected_rates(0.0, ETA, Y0, 0.0)[0] == pytest.approx(Y0, rel=1e-12)


def test_expected_gain_signal_class():
    # direct evaluation of 1 - (1 - Y0) exp(-0.5 * 0.0165)
    expected = 1 - (1 - Y0) * math.exp(-0.5 * ETA)
    assert expected == pytest.approx(8.23e-3, abs=1e-5)
    assert expected_rates(0.5, ETA, Y0, 0.0)[0] == pytest.approx(expected,
                                                                 rel=1e-14)


def test_expected_gain_saturates():
    assert expected_rates(1e9, 0.1, Y0, 0.0)[0] == pytest.approx(1.0)


def test_expected_qber_pure_background():
    assert expected_rates(0.5, 0.0, Y0, 0.02)[1] == 0.5


def test_expected_qber_noiseless():
    assert expected_rates(0.5, ETA, 0.0, 0.0)[1] == 0.0


def test_expected_qber_at_calibration():
    link = LinkConfig()
    _, q = expected_rates(0.5, ETA, Y0, link.intrinsic_misalignment_error)
    assert q == pytest.approx(0.0385, abs=1e-10)


def test_calibration_matches_shipped_default():
    value = calibrate_misalignment(SourceConfig(), LinkConfig())
    assert value == pytest.approx(LinkConfig().intrinsic_misalignment_error,
                                  abs=1e-9)


def test_class_rates_zero_drift(preset):
    (q_mu, e_mu), _, (q_nu2, _) = class_rates(DriftState(), preset.source,
                                              preset.link)
    assert q_mu == pytest.approx(8.2339e-3, abs=1e-6)
    assert e_mu == pytest.approx(0.0385, abs=1e-10)
    assert q_nu2 == pytest.approx(2.955e-5, abs=1e-8)


def test_class_rates_crossed_polarization(preset):
    rates = class_rates(DriftState(polarization_angle=math.pi / 2),
                        preset.source, preset.link)
    for gain, qber in rates:
        assert gain == pytest.approx(Y0, rel=1e-6)
        assert qber == pytest.approx(0.5, abs=1e-6)


def test_gain_ordering_strict(preset):
    (q_mu, _), (q_nu1, _), (q_nu2, _) = class_rates(DriftState(),
                                                    preset.source, preset.link)
    assert q_mu > q_nu1 > q_nu2


def test_gain_monotone_in_intensity_and_efficiency():
    for eta in (1e-4, 0.01, 0.1):
        gains = [expected_rates(m, eta, Y0, 0.0)[0]
                 for m in np.linspace(0, 2, 30)]
        assert all(b >= a for a, b in zip(gains, gains[1:]))
    for m in (0.1, 0.5):
        gains = [expected_rates(m, eta, Y0, 0.0)[0]
                 for eta in np.linspace(0, 1, 30)]
        assert all(b >= a for a, b in zip(gains, gains[1:]))


def test_qber_monotone_toward_half_as_signal_dies():
    qbers = [expected_rates(0.5, eta, Y0, 0.03)[1]
             for eta in np.linspace(1e-6, 0.2, 50)]
    assert all(b <= a for a, b in zip(qbers, qbers[1:]))
    assert qbers[0] > 0.4  # dark-count dominated end


@given(
    mean=st.floats(0, 5),
    eta=st.floats(0, 1),
    y0=st.floats(0, 1e-2),
    mis=st.floats(0, 1),
)
def test_rate_bounds_hold_everywhere(mean, eta, y0, mis):
    q, e = expected_rates(mean, eta, y0, mis)
    # absolute slack covers cancellation when y0 is subnormal
    assert y0 * math.exp(-mean * eta) - 1e-12 <= q <= 1.0 + 1e-12
    assert 0.0 <= e <= 0.5 + 1e-12


def test_sample_tally_dead_channel(preset):
    rng = np.random.default_rng(0)
    dead = ((0.0, 0.5),) * 3
    tally = sample_tally(dead, preset.source, 1.0, rng)
    assert sum(tally[1::3]) == 0
    assert tally.errors_mu == 0


def test_sample_tally_moments(preset):
    # binomial moment oracle: mean sifted over many draws near sent*Q/2
    rates = class_rates(DriftState(), preset.source, preset.link)
    rng = np.random.default_rng(42)
    source = preset.source
    draws = 1000
    sifted = np.array([sample_tally(rates, source, 1e-3, rng).sifted_mu
                       for _ in range(draws)])
    sent = source.clock_rate * 1e-3 * source.p_mu
    p = rates[0][0] / 2
    se = math.sqrt(sent * p * (1 - p) / draws)
    assert abs(sifted.mean() - sent * p) < 3 * se


def test_sample_tally_deterministic(preset):
    rates = class_rates(DriftState(), preset.source, preset.link)
    a = sample_tally(rates, preset.source, 1.0, np.random.default_rng(7))
    b = sample_tally(rates, preset.source, 1.0, np.random.default_rng(7))
    assert a == b


def test_sample_tally_carry_conserves_pulses(preset):
    source = SourceConfig(clock_rate=999.7)
    rates = class_rates(DriftState(), source, preset.link)
    rng = np.random.default_rng(1)
    carry = [0.0, 0.0, 0.0]
    total = sum(sum(sample_tally(rates, source, 1.0, rng, carry)[0::3])
                for _ in range(1000))
    # emitted counts plus the residual fractions still carried must conserve
    # the exact pulse budget
    assert total + sum(carry) == pytest.approx(999.7 * 1000, abs=1e-3)


def test_tally_invariants_over_random_configurations(preset):
    # 10^4 random drift/intensity configurations, all seeds valid
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        drift = DriftState(
            phase_error=rng.uniform(-math.pi, math.pi),
            polarization_angle=rng.uniform(-math.pi, math.pi),
            timing_offset=rng.uniform(-300, 300),
            power_factor=rng.uniform(0.5, 2.0),
        )
        rates = class_rates(drift, preset.source, preset.link)
        tally = sample_tally(rates, preset.source, 1e-4, rng)
        tally.check()


def test_decoy_class_qber_fluctuates_more_than_signal(preset):
    rates = class_rates(DriftState(), preset.source, preset.link)
    rng = np.random.default_rng(5)
    qber_mu, qber_nu2 = [], []
    for _ in range(300):
        tally = sample_tally(rates, preset.source, 1.0, rng)
        qber_mu.append(tally.errors_mu / tally.sifted_mu)
        if tally.sifted_nu2 > 0:
            qber_nu2.append(tally.errors_nu2 / tally.sifted_nu2)
    rel = lambda xs: np.std(xs) / np.mean(xs)
    assert rel(qber_nu2) > 10 * rel(qber_mu)


def test_tally_aggregation():
    a = PulseTally(10, 5, 1, 8, 4, 2, 6, 3, 0)
    b = PulseTally(1, 1, 1, 1, 1, 1, 1, 1, 1)
    assert (a + b).sent_mu == 11
    assert (a + b).errors_nu2 == 1
    with pytest.raises(ValueError):
        PulseTally(sent_mu=1, sifted_mu=2).check()
