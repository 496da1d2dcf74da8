"""The finite key, its infinite-statistics reference (`KeyResult.efficiency`)
and the infinite-session rate (`asymptotic_rate`) share one table of which
counts bound which estimate and one key formula, `_key_terms`, so a change
to either reaches all three at once.  Every reported efficiency, the
efficiency curve's too, is `KeyResult.efficiency`."""
import math
import random

import pytest

from qkdsim import finite_key
from qkdsim.cli import EXIT_OK, main
from qkdsim.channel import SIFTING, DriftState, PulseTally, class_rates
from qkdsim.config import LinkConfig, SecurityConfig, SourceConfig
from qkdsim.finite_key import (BinomialBound, ChannelEstimates, asymptotic_rate,
                               binary_entropy, decoy_bounds, distill,
                               efficiency_curve, estimate_channel,
                               expectation_tally, point_estimates,
                               secure_key_length)


def _reference_rate(source, link, security):
    """`asymptotic_rate` as written with its own estimates and formula."""
    (q_mu, e_mu), (q_nu1, e_nu1), (q_nu2, e_nu2) = class_rates(
        DriftState(), source, link)
    est = ChannelEstimates(
        q_mu=BinomialBound(q_mu, q_mu),
        e_mu=BinomialBound(e_mu, e_mu),
        q_nu1=BinomialBound(q_nu1, q_nu1),
        q_nu2=BinomialBound(q_nu2, q_nu2),
        eq_nu1=BinomialBound(e_nu1 * q_nu1, e_nu1 * q_nu1),
        eq_nu2=BinomialBound(e_nu2 * q_nu2, e_nu2 * q_nu2),
    )
    bounds = decoy_bounds(est, source)
    q1 = source.mu * math.exp(-source.mu) * bounds.y1_lower
    rate = SIFTING * source.p_mu * (
        q1 * (1.0 - binary_entropy(bounds.e1_upper))
        - security.ec_efficiency * q_mu * binary_entropy(e_mu)
    )
    return max(0.0, rate)


def _reference_point_estimates(tally):
    """`point_estimates` as written with its own ratios."""
    def ratio(k, n, scale=1.0 / SIFTING):
        p = min(1.0, scale * k / n) if n > 0 else 0.0
        return BinomialBound(p, p)

    return ChannelEstimates(
        q_mu=ratio(tally.sifted_mu, tally.sent_mu),
        e_mu=ratio(tally.errors_mu, tally.sifted_mu, scale=1.0),
        q_nu1=ratio(tally.sifted_nu1, tally.sent_nu1),
        q_nu2=ratio(tally.sifted_nu2, tally.sent_nu2),
        eq_nu1=ratio(tally.errors_nu1, tally.sent_nu1),
        eq_nu2=ratio(tally.errors_nu2, tally.sent_nu2),
    )


def _random_case(rng):
    mu = rng.uniform(0.05, 1.2)
    nu1 = rng.uniform(0.01, 0.6) * mu
    nu2 = rng.uniform(0.0, 0.9) * min(nu1, mu - nu1)
    p_mu = rng.uniform(0.3, 0.98)
    p_nu1 = rng.uniform(0.1, 0.9) * (1.0 - p_mu)
    source = SourceConfig(mu=mu, nu1=nu1, nu2=nu2, p_mu=p_mu, p_nu1=p_nu1,
                          p_nu2=1.0 - p_mu - p_nu1)
    link = LinkConfig(fiber_length=rng.uniform(0.0, 150.0),
                      detector_efficiency=rng.uniform(0.05, 0.6),
                      dark_count_prob=10.0 ** rng.uniform(-7.0, -4.0),
                      intrinsic_misalignment_error=rng.uniform(0.0, 0.06))
    return source, link, SecurityConfig(ec_efficiency=rng.uniform(1.0, 1.5))


def test_every_key_goes_through_key_terms(preset, monkeypatch):
    seen = []
    key_terms = finite_key._key_terms

    def counted(tally, *args):
        seen.append(tally)
        return key_terms(tally, *args)
    monkeypatch.setattr(finite_key, "_key_terms", counted)
    source, link, security = preset.source, preset.link, preset.security
    tally = expectation_tally(1.2e12, source, link)
    bounds = decoy_bounds(estimate_channel(tally, security), source)
    key = secure_key_length(tally, bounds, security, source)
    assert key.secure_bits > 0 and seen == [tally]
    assert 0 < key.efficiency < 1 and seen == [tally, tally]
    assert asymptotic_rate(source, link, security) > 0
    assert seen[2:] == [finite_key._expected_counts(1.0, source, link, float)]


def test_asymptotic_rate_matches_the_deleted_formula():
    rng = random.Random(20261019)
    positive = 0
    for _ in range(400):
        source, link, security = _random_case(rng)
        expected = _reference_rate(source, link, security)
        rate = asymptotic_rate(source, link, security)
        assert rate == pytest.approx(expected, rel=1e-11, abs=0.0)
        positive += expected > 0
    assert 100 < positive < 380    # both sides of the zero-key crossover


def _zero_width(k, n, eps):
    p = k / n if n > 0 else 0.0
    return BinomialBound(p, p)


@pytest.mark.parametrize("kind", ["expected", "no-sifted-signal",
                                  "empty-class"])
def test_point_estimates_are_the_table_at_zero_width(preset, kind):
    if kind == "expected":
        tally = expectation_tally(1e10, preset.source, preset.link)
    elif kind == "no-sifted-signal":
        tally = PulseTally(sent_mu=10**9, sent_nu1=10**8, sifted_nu1=10**5,
                           errors_nu1=10**3, sent_nu2=10**8, sifted_nu2=10**3,
                           errors_nu2=500)
    else:
        tally = PulseTally(sent_mu=10**9, sifted_mu=10**6, errors_mu=10**4,
                           sent_nu1=10**8, sifted_nu1=10**5, errors_nu1=10**3)
    est = point_estimates(tally)
    assert est == finite_key._estimates(tally, _zero_width, 0.0)
    assert est == _reference_point_estimates(tally)


def test_a_field_without_trials_bounds_nothing(preset):
    # no sifted signal bits leave e_mu unbounded; a class that sent nothing
    # leaves its gain and error gain unbounded, and the key at zero
    tally = PulseTally(sent_mu=10**9, sent_nu1=10**8, sifted_nu1=10**5,
                       errors_nu1=10**3)
    est = estimate_channel(tally, preset.security)
    whole = BinomialBound(0.0, 1.0)
    assert est.e_mu == est.q_nu2 == est.eq_nu2 == whole
    bounds = decoy_bounds(est, preset.source)
    key = secure_key_length(tally, bounds, preset.security, preset.source)
    assert key.secure_bits == 0 and key.efficiency == 0.0


def test_the_curve_reports_each_budgets_key_efficiency(preset, tmp_path,
                                                       capsys):
    source, security = preset.source, preset.security
    budgets = (1e9, 1e10, 1.2e12, 1e15)
    for link in (preset.link, LinkConfig(fiber_length=400.0)):   # no key
        expected = [distill(expectation_tally(n, source, link), source,
                            security).efficiency for n in budgets]
        assert efficiency_curve(budgets, source, link, security) == expected
    assert expected == [0.0] * len(budgets)
    for n in ("1e9", "1.2e12"):
        capsys.readouterr()
        assert main(["efficiency-curve", "--min-pulses", n, "--max-pulses", n,
                     "--points", "1", "--out", str(tmp_path)]) == EXIT_OK
        curve = capsys.readouterr().out.splitlines()[1].split(",")[1]
        assert main(["keyrate", "--n-pulses", n, "--out",
                     str(tmp_path)]) == EXIT_OK
        assert f"\nefficiency: {curve}\n" in capsys.readouterr().out
