"""The clamps in the key path, each pinned by an explicit tally that needs it.

Every tally here passes `PulseTally.check`, so `keyrate --tally-file` takes
it, but no channel's expected counts look like it: a class that sifts every
pulse it sends, a decoy error count no error rate in [0, 1/2] explains, or a
signal class with most of its sifted bits in error.  Without its clamp, an
estimate leaves its range: the key is no longer conservative, or `keyrate`
fails.
"""
import pytest

from qkdsim.channel import PulseTally
from qkdsim.cli import EXIT_OK, main
from qkdsim.finite_key import (binary_entropy, distill, estimate_channel,
                               expectation_tally)


@pytest.fixture(scope="module")
def expected(preset) -> PulseTally:
    """The expectation tally of a 20-minute window at the GHz clock."""
    return expectation_tally(1.2e12, preset.source, preset.link)


def _keyrate(tmp_path, tally: PulseTally) -> dict[str, float]:
    """`keyrate --tally-file` of `tally`: its keyrate.csv row, by column."""
    counts = tmp_path / "counts.txt"
    counts.write_text("".join(f"{name} = {value}\n"
                              for name, value in tally._asdict().items()))
    assert main(["keyrate", "--tally-file", str(counts),
                 "--out", str(tmp_path)]) == EXIT_OK
    header, row = (tmp_path / "keyrate.csv").read_text().splitlines()
    return dict(zip(header.split(","), map(float, row.split(","))))


def test_single_photon_yield_is_capped_at_one(preset, expected):
    # every nu1 pulse detected: the raw decoy bound on y1 is about 13.6, and
    # a key counted from it would exceed the sifted signal bits
    tally = expected._replace(sifted_mu=expected.sent_mu // 5,
                              errors_mu=expected.sent_mu // 500,
                              sifted_nu1=expected.sent_nu1, errors_nu1=0)
    key = distill(tally, preset.source, preset.security)
    assert key.bounds.y1_lower == 1.0
    assert 0 < key.secure_bits <= tally.sifted_mu


def test_single_photon_error_rate_is_floored_at_zero(tmp_path, preset,
                                                     expected):
    # no nu1 error, but half the nu2 bits in error: the raw bound on e1 is
    # about -0.009, where binary_entropy is not defined
    tally = expected._replace(errors_nu1=0,
                              errors_nu2=expected.sifted_nu2 // 2)
    key = distill(tally, preset.source, preset.security)
    assert key.bounds.y1_lower > 0.0
    assert key.bounds.e1_upper == 0.0
    row = _keyrate(tmp_path, tally)
    assert row["e1_upper"] == 0.0
    assert row["secure_bits"] == key.secure_bits


def test_leakage_takes_a_signal_error_rate_above_half_as_half(tmp_path,
                                                              preset,
                                                              expected):
    # 80% of the sifted signal bits in error: H(0.8) = H(0.2) would leak
    # less than the whole sifted key, which is all error correction can hide
    tally = expected._replace(errors_mu=expected.sifted_mu * 4 // 5)
    key = distill(tally, preset.source, preset.security)
    assert key.bounds.e_mu_upper > 0.79
    full = preset.security.ec_efficiency * tally.sifted_mu
    assert binary_entropy(0.5) == 1.0
    assert key.leakage_bits == full
    assert _keyrate(tmp_path, tally)["leakage_bits"] == pytest.approx(
        full, rel=1e-8)


def test_gains_scaled_back_from_sifted_counts_are_capped_at_one(preset,
                                                                 expected):
    # a signal and a decoy class that sift every pulse: sifting keeps half of
    # the detections, so doubling the sifted fraction gives a gain of 2
    tally = expected._replace(sifted_mu=expected.sent_mu, errors_mu=0,
                              sifted_nu1=expected.sent_nu1, errors_nu1=0)
    key = distill(tally, preset.source, preset.security)
    assert key.bounds.q_mu_upper == 1.0
    estimates = estimate_channel(tally, preset.security)
    for name, bound in estimates._asdict().items():
        assert 0.0 <= bound.lower <= bound.upper <= 1.0, name
    assert estimates.q_mu.lower == estimates.q_nu1.lower == 1.0
    assert 0 <= key.secure_bits <= tally.sifted_mu


def test_single_photon_count_is_capped_at_the_sifted_count(preset, expected):
    # a signal class that sifts 1e6 of its 1.2e12 pulses, beside a decoy
    # class that sifts every pulse: the decoy bounds credit the signal class
    # with about 1.8e11 single-photon bits, far more than it sifted
    tally = expected._replace(sifted_mu=1_000_000, errors_mu=0,
                              sent_nu1=1_000_000, sifted_nu1=1_000_000,
                              errors_nu1=0)
    key = distill(tally, preset.source, preset.security)
    assert 0 < key.secure_bits <= tally.sifted_mu
