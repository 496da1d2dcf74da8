"""The clamps in the key path, each pinned by an explicit tally that needs it.

Every tally here passes `PulseTally.check`, so `keyrate --tally-file` takes
it, but no channel's expected counts look like it: a class that sifts every
pulse it sends, a decoy error count no error rate in [0, 1/2] explains, or a
signal class with most of its sifted bits in error.  Without its clamp, an
estimate leaves its range: the key is no longer conservative, or `keyrate`
fails.

Three guards sit where a looser comparison divides by zero or lets a ratio
pass 1: decoy intensities that sum to the signal's, which `keyrate` takes,
and decoy bounds that no tally's intervals give, a signal gain of 0 or a
key far above its infinite-statistics reference.
"""
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from qkdsim.channel import CLASSES, PulseTally
from qkdsim.cli import EXIT_OK, TALLY_KEYS, main
from qkdsim.config import SecurityConfig, SourceConfig
from qkdsim.finite_key import (BinomialBound, ChannelEstimates, DecoyBounds,
                               _infinite_key, _key_terms, binary_entropy,
                               decoy_bounds, distill, estimate_channel,
                               expectation_tally, secure_key_length)


@pytest.fixture(scope="module")
def expected(preset) -> PulseTally:
    """The expectation tally of a 20-minute window at the GHz clock."""
    return expectation_tally(1.2e12, preset.source, preset.link)


def _keyrate(tmp_path, *flags: str) -> dict[str, float]:
    """`keyrate` with `flags`: its keyrate.csv row, by column."""
    assert main(["keyrate", *flags, "--out", str(tmp_path)]) == EXIT_OK
    header, row = (tmp_path / "keyrate.csv").read_text().splitlines()
    return dict(zip(header.split(","), map(float, row.split(","))))


def _tally_file(tmp_path, tally: PulseTally) -> tuple[str, str]:
    """The flags of `keyrate --tally-file` with `tally` written to it."""
    counts = tmp_path / "counts.txt"
    counts.write_text("".join(f"{name} = {value}\n"
                              for name, value in tally._asdict().items()))
    return "--tally-file", str(counts)


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
    row = _keyrate(tmp_path, *_tally_file(tmp_path, tally))
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
    row = _keyrate(tmp_path, *_tally_file(tmp_path, tally))
    assert row["leakage_bits"] == pytest.approx(full, rel=1e-8)


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


def test_decoys_summing_to_the_signal_bound_no_single_photon(tmp_path):
    # nu1 + nu2 == mu exactly, so the decoy bound's denominator
    # mu (nu1 - nu2) - nu1^2 + nu2^2 is 0: no y1, no e1 and no key
    assert 0.3 + 0.2 == 0.5
    row = _keyrate(tmp_path, "--mu", "0.5", "--nu1", "0.3", "--nu2", "0.2")
    assert row["y1_lower"] == 0.0
    assert row["e1_upper"] == 0.5
    assert row["secure_bits"] == 0


def test_no_key_from_bounds_without_a_signal_gain(preset, expected):
    # the single-photon count divides by the signal gain's upper bound
    bounds = DecoyBounds(0.5, 0.1, 0.0, 0.0, 0.05)
    key = secure_key_length(expected, bounds, preset.security, preset.source)
    assert key.secure_bits == 0
    assert key.single_photon_bits == key.leakage_bits == 0.0


def test_efficiency_above_one_is_capped_at_one(preset, expected):
    # every signal click from one photon, none in error: the key is the
    # sifted key less privacy amplification, about 6 times its reference
    q_mu_upper = distill(expected, preset.source,
                         preset.security).bounds.q_mu_upper
    bounds = DecoyBounds(1.0, 0.0, 0.0, q_mu_upper, 0.0)
    key = secure_key_length(expected, bounds, preset.security, preset.source)
    reference = _infinite_key(expected, preset.source, preset.security)
    assert key.secure_bits > 5 * reference
    assert key.efficiency == 1.0


def _count(key: str, at_most: int | None = None) -> st.SearchStrategy[int]:
    """A count of the tally file's `key` in its declared range, and at most
    `at_most` if given: log-uniform over that range, or one of its ends."""
    lo, hi = TALLY_KEYS[key].range[:2]
    hi = int(hi) if at_most is None else min(int(hi), at_most)
    scaled = st.floats(0.0, 1.0).map(
        lambda u: min(hi, int(lo + (hi - lo + 1) ** u - 1)))
    return st.one_of(st.sampled_from(sorted({int(lo), hi})), scaled)


@st.composite
def _tallies(draw) -> PulseTally:
    """A tally whose every count lies in its declared range, up to 1e15.
    Each class sifts all it sent, none of it or a drawn share, and its
    errors are all, none or a drawn share of the sifted bits; a drawn count
    may exceed the one it must not, which makes the tally invalid."""
    counts = []
    for cls in CLASSES:
        sent = draw(_count(f"sent_{cls}"))
        sifted = draw(st.one_of(st.just(sent), _count(f"sifted_{cls}", sent),
                                _count(f"sifted_{cls}")))
        errors = draw(st.one_of(st.just(sifted),
                                _count(f"errors_{cls}", sifted),
                                _count(f"errors_{cls}")))
        counts += (sent, sifted, errors)
    return PulseTally(*counts)


@given(tally=_tallies())
@settings(max_examples=200, deadline=None)
def test_every_tally_in_range_gives_a_bounded_key_or_is_refused(preset,
                                                                tally):
    # the caps above at every count scale that `keyrate --tally-file` takes:
    # a tally that passes its check distills to bounds and a key in range,
    # and one that fails it is refused by the check alone
    try:
        tally.check()
    except ValueError as error:
        assert "tally invariant violated" in str(error)
        assert not all(0 <= e <= d <= s for s, d, e in zip(
            tally[0::3], tally[1::3], tally[2::3]))
        return
    key = distill(tally, preset.source, preset.security)
    assert 0.0 <= key.bounds.y1_lower <= 1.0
    assert 0.0 <= key.bounds.e1_upper <= 0.5
    assert 0.0 <= key.bounds.q_mu_upper <= 1.0
    assert 0 <= key.secure_bits <= tally.sifted_mu
    assert 0.0 <= key.efficiency <= 1.0


def _reference_decoy_bounds(estimates, source):
    """decoy_bounds as written with min and max."""
    mu, nu1, nu2 = source.mu, source.nu1, source.nu2
    e_nu1, e_nu2 = math.exp(nu1), math.exp(nu2)
    y0_lower = max(0.0, 2.0 * (estimates.eq_nu2.lower * e_nu2 - (e_nu2 - 1.0)))
    y1_lower, e1_upper = 0.0, 0.5
    if nu1 + nu2 < mu:
        denom = mu * (nu1 - nu2) - nu1 ** 2 + nu2 ** 2
        y1 = (mu / denom) * (
            estimates.q_nu1.lower * e_nu1
            - estimates.q_nu2.upper * e_nu2
            - ((nu1 ** 2 - nu2 ** 2) / mu ** 2)
            * (estimates.q_mu.upper * math.exp(mu) - y0_lower))
        y1_lower = min(1.0, max(0.0, y1))
        if y1_lower > 0.0:
            e1 = (estimates.eq_nu1.upper * e_nu1
                  - estimates.eq_nu2.lower * e_nu2) / ((nu1 - nu2) * y1_lower)
            e1_upper = min(0.5, max(0.0, e1))
    return (y1_lower, e1_upper, y0_lower, estimates.q_mu.upper,
            estimates.e_mu.upper)


def _reference_key_terms(tally, bounds, security, source):
    """_key_terms as written with min."""
    n_sift = tally.sifted_mu
    if n_sift == 0 or bounds.q_mu_upper <= 0.0:
        return 0.0, 0.0, 0.0
    p1 = source.mu * math.exp(-source.mu)
    n1_lower = min(n_sift, n_sift * p1 * bounds.y1_lower / bounds.q_mu_upper)
    single = n1_lower * (1.0 - binary_entropy(bounds.e1_upper))
    leakage = security.ec_efficiency * n_sift * binary_entropy(
        min(0.5, bounds.e_mu_upper))
    return single, leakage, math.log2(2.0 / (security.epsilon / 2.0))


def _outcome(f, *args):
    """f's result as hex floats, or the type of what it raised."""
    try:
        return [float(v).hex() for v in f(*args)]
    except (ValueError, ZeroDivisionError, OverflowError) as error:
        return type(error)


# an endpoint: mostly in [0, 1], else a value where a clamp's argument
# order shows, NaN and both zeros, or one out of range
_END = st.floats(0.0, 1.0) | st.sampled_from(
    [0.0, -0.0, 0.5, 1.0, math.nan, math.inf, -math.inf, -1.0, 2.0])
_INTENSITY = st.floats(0.0, 2.0) | st.sampled_from([0.0, -0.0, math.nan])


@given(st.lists(_END, min_size=12, max_size=12),
       st.tuples(_INTENSITY, _INTENSITY, _INTENSITY))
@settings(max_examples=300, deadline=None)
# a NaN single-photon yield, then a raw e1 of -0.0, then a raw y0 of -0.0
@example([0.5] * 4 + [math.nan] + [0.5] * 7, (0.5, 0.1, 0.0))
@example([0.5] * 6 + [0.0] * 3 + [-0.0, 0.0, 0.0], (0.5, 0.1, 0.0))
@example([0.5] * 6 + [0.0] * 4 + [-0.0, 0.0], (0.5, 0.1, 0.0))
def test_decoy_bounds_clamps_as_min_and_max_do(ends, intensities):
    # the conditional expressions give the builtins' floats, signed zeros
    # and NaN included, or the same error
    estimates = ChannelEstimates(*(BinomialBound(*ends[i:i + 2])
                                   for i in range(0, 12, 2)))
    mu, nu1, nu2 = intensities
    source = SourceConfig(mu=mu, nu1=nu1, nu2=nu2)
    assert _outcome(decoy_bounds, estimates, source) == _outcome(
        _reference_decoy_bounds, estimates, source)


@given(st.integers(0, 10**15), st.lists(_END, min_size=5, max_size=5),
       _INTENSITY)
@settings(max_examples=300, deadline=None)
# a NaN signal error rate, then a NaN single-photon yield
@example(1000, [0.5, 0.1, 0.0, 0.5, math.nan], 0.5)
@example(1000, [math.nan, 0.1, 0.0, 0.5, 0.1], 0.5)
def test_key_terms_caps_as_min_does(sifted, ends, mu):
    tally = PulseTally(sifted_mu=sifted)
    bounds = DecoyBounds(*ends)
    source, security = SourceConfig(mu=mu), SecurityConfig()
    assert _outcome(_key_terms, tally, bounds, security, source) == _outcome(
        _reference_key_terms, tally, bounds, security, source)
