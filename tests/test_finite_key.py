import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special, stats

from qkdsim import finite_key
from qkdsim.channel import DriftState, PulseTally, class_rates, expected_rates
from qkdsim.config import LinkConfig, SecurityConfig, SourceConfig
from qkdsim.finite_key import (N_BOUND_CALLS, BinomialBound, ChannelEstimates,
                               asymptotic_rate, binary_entropy, clopper_pearson,
                               decoy_bounds, efficiency_curve,
                               estimate_channel, expectation_tally,
                               point_estimates, secure_key_length)
from qkdsim.optimizer import optimize_source


# ---------------------------------------------------------------------------
# binary entropy
# ---------------------------------------------------------------------------

def test_binary_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_rejects_out_of_range():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


@given(x=st.floats(1e-9, 1 - 1e-9))
def test_binary_entropy_matches_scipy(x):
    # independent oracle: scipy's discrete distribution entropy
    oracle = stats.entropy([x, 1 - x], base=2)
    assert binary_entropy(x) == pytest.approx(oracle, rel=1e-9)
    assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), rel=1e-12)


# ---------------------------------------------------------------------------
# Clopper-Pearson intervals
# ---------------------------------------------------------------------------

def _binom_cdf(k: int, n: int, p: float) -> float:
    return sum(math.comb(n, i) * p ** i * (1 - p) ** (n - i)
               for i in range(k + 1))


def _oracle_interval(k: int, n: int, eps: float) -> tuple[float, float]:
    """Bisection against direct binomial CDF summation (no beta functions)."""
    half = eps / 2
    if k == 0:
        lower = 0.0
    else:
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = (lo + hi) / 2
            # P[X >= k; p] grows with p; lower endpoint pins it at half
            if 1 - _binom_cdf(k - 1, n, mid) < half:
                lo = mid
            else:
                hi = mid
        lower = (lo + hi) / 2
    if k == n:
        upper = 1.0
    else:
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = (lo + hi) / 2
            # P[X <= k; p] shrinks with p; upper endpoint pins it at half
            if _binom_cdf(k, n, mid) > half:
                lo = mid
            else:
                hi = mid
        upper = (lo + hi) / 2
    return lower, upper


@pytest.mark.parametrize("k,n,eps", [
    (3, 10, 0.05),
    (0, 25, 0.1),
    (25, 25, 0.1),
    (1, 1000, 0.01),
    (500, 1000, 1e-4),
    (7, 40, 1e-7),
])
def test_clopper_pearson_against_cdf_bisection(k, n, eps):
    lower, upper = _oracle_interval(k, n, eps)
    bound = clopper_pearson(k, n, eps)
    assert bound.lower == pytest.approx(lower, abs=1e-10)
    assert bound.upper == pytest.approx(upper, abs=1e-10)


def test_clopper_pearson_closed_form_edges():
    # k = 0 and k = n reduce to (1-u)^n = eps/2 and l^n = eps/2
    b = clopper_pearson(0, 100, 0.05)
    assert b.lower == 0.0
    assert b.upper == pytest.approx(1 - 0.025 ** (1 / 100), rel=1e-12)
    b = clopper_pearson(100, 100, 0.05)
    assert b.upper == 1.0
    assert b.lower == pytest.approx(0.025 ** (1 / 100), rel=1e-12)


def test_clopper_pearson_large_counts_forward_check():
    # at key-rate scales the endpoint must still put eps/2 in each tail;
    # verified through the forward regularized beta function
    n, k, eps = 1_185_960_000_000_000, 4_882_000_000_000, 1e-7 / 12
    bound = clopper_pearson(k, n, eps)
    assert 0 < bound.lower < k / n < bound.upper < 1
    tail_low = special.betainc(k, n - k + 1, bound.lower)
    tail_high = 1 - special.betainc(k + 1, n - k, bound.upper)
    # the tail is so steep that a 1% tail-probability error corresponds to
    # a sub-1e-8 relative error in the endpoint itself
    assert tail_low == pytest.approx(eps / 2, rel=1e-2)
    assert tail_high == pytest.approx(eps / 2, rel=1e-2)
    # relative half-width near z*sqrt(1/k) for a tail this deep
    rel_width = (bound.upper - bound.lower) / (k / n)
    assert 1e-7 < rel_width < 2e-5


def _forward_tails(k: int, n: int, bound: BinomialBound):
    """Probability each endpoint leaves in its tail, by the forward
    regularized beta function; None where the endpoint is pinned at 0 or 1."""
    low = special.betainc(k, n - k + 1, bound.lower) if k > 0 else None
    high = special.betaincc(k + 1, n - k, bound.upper) if k < n else None
    return low, high


@pytest.mark.parametrize("eps", [1e-2, 1e-7 / 12, 1e-15])
def test_clopper_pearson_conservative_across_count_scales(eps):
    # every endpoint, from 1e2 up to 1e16 trials, keeps each tail at or below
    # eps/2, and the next float towards the estimate no longer does
    for n in np.logspace(2, 16, 29):
        n = int(round(n))
        for frac in (1e-9, 1e-6, 1e-3, 0.05, 0.5, 0.999):
            k = round(frac * n)
            bound = clopper_pearson(k, n, eps)
            assert 0.0 <= bound.lower <= k / n <= bound.upper <= 1.0, (k, n)
            inward = BinomialBound(math.nextafter(bound.lower, 1.0),
                                   math.nextafter(bound.upper, 0.0))
            for tail, tail_inward in zip(_forward_tails(k, n, bound),
                                         _forward_tails(k, n, inward)):
                if tail is not None:
                    assert tail <= eps / 2 < tail_inward, (k, n)


def test_clopper_pearson_small_fraction_at_large_n():
    # scipy's betaincinv once put this lower endpoint above the estimate
    n, k, eps = 1_000_000_000, 1000, 1e-7 / 12
    bound = clopper_pearson(k, n, eps)
    assert 0 < bound.lower < k / n < bound.upper < 1
    for tail in _forward_tails(k, n, bound):
        assert (1 - 1e-6) * eps / 2 <= tail <= eps / 2


def test_clopper_pearson_input_validation():
    with pytest.raises(ValueError):
        clopper_pearson(1, 0, 0.05)
    with pytest.raises(ValueError):
        clopper_pearson(5, 4, 0.05)
    with pytest.raises(ValueError):
        clopper_pearson(1, 4, 0.0)


@given(n=st.integers(1, 400), frac=st.floats(0, 1), eps=st.floats(1e-9, 0.5))
@settings(max_examples=200)
def test_clopper_pearson_brackets_the_estimate(n, frac, eps):
    k = round(frac * n)
    bound = clopper_pearson(k, n, eps)
    assert 0.0 <= bound.lower <= k / n <= bound.upper <= 1.0


@st.composite
def _interval_inputs(draw):
    """(k, n, epsilon): n log-uniform in [1, 1e15], k in [0, n], epsilon
    log-uniform in [1e-15, 0.5]."""
    n = int(10 ** draw(st.floats(0, 15)))
    k = draw(st.integers(0, n))
    eps = 10 ** draw(st.floats(-15, math.log10(0.5)))
    return k, n, eps


@given(_interval_inputs())
@settings(max_examples=300, deadline=None)
# one input for each way the search moves: the extrapolated bracket step,
# the quarter-shrink fallback, and bisection after a one-sided streak
@example((2229, 3710, 8.261915855494622e-14))
@example((162, 181, 1.693139579212024e-13))
@example((1379, 3060, 1.0578765005006704e-05))
# the upper search probes points whose forward tail is exactly 0.0
@example((1, 10**15, 1e-300))
def test_clopper_pearson_endpoint_contract(inputs):
    # each endpoint brackets k/n and leaves at most eps/2 in its tail by the
    # forward function, while the next float towards k/n leaves more (or
    # gives NaN, which the search counts as a failure)
    k, n, eps = inputs
    bound = clopper_pearson(k, n, eps)
    assert 0.0 <= bound.lower <= k / n <= bound.upper <= 1.0
    inward = BinomialBound(math.nextafter(bound.lower, k / n),
                           math.nextafter(bound.upper, k / n))
    for tail, tail_inward in zip(_forward_tails(k, n, bound),
                                 _forward_tails(k, n, inward)):
        if tail is not None:
            assert tail <= eps / 2
            assert not tail_inward <= eps / 2


def test_interval_narrows_with_more_trials():
    widths = [clopper_pearson(n // 10, n, 1e-7).upper
              - clopper_pearson(n // 10, n, 1e-7).lower
              for n in (100, 10_000, 1_000_000)]
    assert widths[0] > widths[1] > widths[2]


# ---------------------------------------------------------------------------
# decoy-state single-photon bounds
# ---------------------------------------------------------------------------

def _exact_estimates(source: SourceConfig, eta: float, y0: float,
                     e_mis: float) -> ChannelEstimates:
    def point(m):
        q, e = expected_rates(m, eta, y0, e_mis)
        return q, e * q

    qm, eqm = point(source.mu)
    q1, eq1 = point(source.nu1)
    q2, eq2 = point(source.nu2)
    return ChannelEstimates(
        q_mu=BinomialBound(qm, qm), e_mu=BinomialBound(eqm / qm, eqm / qm),
        q_nu1=BinomialBound(q1, q1),
        q_nu2=BinomialBound(q2, q2), eq_nu1=BinomialBound(eq1, eq1),
        eq_nu2=BinomialBound(eq2, eq2))


def test_decoy_bounds_sound_over_random_channels():
    # soundness oracle: the Poisson-source photon-number expansion gives the
    # true single-photon yield Y1 = y0 + eta - y0*eta and error rate
    # e1 = (y0/2*(1-eta) + e_mis*eta) / Y1 for any channel; the estimated
    # bounds must never cross them
    rng = np.random.default_rng(77)
    source = SourceConfig()
    for _ in range(10_000):
        eta = 10 ** rng.uniform(-4, math.log10(0.2))
        y0 = 10 ** rng.uniform(-6, -3)
        e_mis = rng.uniform(0.0, 0.1)
        true_y1 = y0 + eta - y0 * eta
        true_e1 = (0.5 * y0 * (1 - eta) + e_mis * eta) / true_y1
        bounds = decoy_bounds(_exact_estimates(source, eta, y0, e_mis), source)
        assert bounds.y1_lower <= true_y1 + 1e-12
        if bounds.y1_lower > 0:
            assert bounds.e1_upper >= true_e1 - 1e-12
        assert bounds.y0_lower <= y0 + 1e-12


def test_decoy_bounds_tight_on_default_link(preset):
    # on the calibrated link the vacuum+weak bounds should recover most of
    # the true single-photon yield
    eta = 0.1 * 0.165
    y0 = preset.link.background_yield()
    bounds = decoy_bounds(
        _exact_estimates(preset.source, eta, y0,
                         preset.link.intrinsic_misalignment_error),
        preset.source)
    true_y1 = y0 + eta - y0 * eta
    assert bounds.y1_lower > 0.9 * true_y1
    assert bounds.e1_upper < 0.1


def test_decoy_bounds_dead_channel_pins_yield_near_background(preset):
    y0 = preset.link.background_yield()
    bounds = decoy_bounds(_exact_estimates(preset.source, 0.0, y0, 0.0),
                          preset.source)
    # with no transmission every class clicks at the background rate and the
    # inferred single-photon yield cannot exceed it
    assert 0.0 <= bounds.y1_lower <= y0


def test_decoy_bounds_sound_under_sampling(preset):
    # finite-count soundness: with epsilon = 1e-7 per call, violations over a
    # few hundred sampled tallies should essentially never occur
    rng = np.random.default_rng(123)
    security = SecurityConfig()
    rates = class_rates(DriftState(), preset.source, preset.link)
    eta = 0.1 * 0.165
    y0 = preset.link.background_yield()
    true_y1 = y0 + eta - y0 * eta
    true_e1 = (0.5 * y0 * (1 - eta)
               + preset.link.intrinsic_misalignment_error * eta) / true_y1
    from qkdsim.channel import sample_tally
    violations = 0
    for _ in range(200):
        tally = sample_tally(rates, preset.source, 0.1, rng)
        bounds = decoy_bounds(estimate_channel(tally, security), preset.source)
        if bounds.y1_lower > true_y1 or (bounds.y1_lower > 0
                                         and bounds.e1_upper < true_e1):
            violations += 1
    assert violations <= 1


def test_point_estimates_are_zero_width(preset):
    tally = expectation_tally(1e10, preset.source, preset.link)
    est = point_estimates(tally)
    for b in (est.q_mu, est.q_nu1, est.q_nu2, est.eq_nu1, est.eq_nu2):
        assert b.lower == b.upper


def test_estimate_channel_brackets_point_estimates(preset):
    tally = expectation_tally(1e10, preset.source, preset.link)
    est = estimate_channel(tally, SecurityConfig())
    pt = point_estimates(tally)
    for name in ("q_mu", "q_nu1", "q_nu2", "eq_nu1", "eq_nu2"):
        b, p = getattr(est, name), getattr(pt, name)
        assert b.lower <= p.lower <= p.upper <= b.upper


@pytest.mark.parametrize("n_pulses", np.logspace(9, 15, 13))
def test_expectation_tally_bounds_spend_their_epsilon_share(preset, n_pulses):
    # the six bounds one distillation draws, at the counts the program
    # actually feeds them, each put all but a part in 1e6 of their share
    # into each tail and never more
    tally = expectation_tally(n_pulses, preset.source, preset.link)
    eps = SecurityConfig().epsilon / 2 / N_BOUND_CALLS
    calls = [(tally.sifted_mu, tally.sent_mu),
             (tally.sifted_nu1, tally.sent_nu1),
             (tally.sifted_nu2, tally.sent_nu2),
             (tally.errors_nu1, tally.sent_nu1),
             (tally.errors_nu2, tally.sent_nu2),
             (tally.errors_mu, tally.sifted_mu)]
    assert len(calls) == N_BOUND_CALLS
    for k, n in calls:
        assert 0 < k < n
        for tail in _forward_tails(k, n, clopper_pearson(k, n, eps)):
            assert (1 - 1e-6) * eps / 2 <= tail <= eps / 2, (k, n)


def _reference_expected_counts(n_pulses, source, link, whole):
    """_expected_counts as written with a loop over the classes."""
    counts = []
    for p_cls, (q, e) in zip((source.p_mu, source.p_nu1, source.p_nu2),
                             class_rates(DriftState(), source, link)):
        sent = whole(n_pulses * p_cls)
        sifted = whole(sent * q * 0.5)
        counts.extend((sent, sifted, whole(sifted * e)))
    return PulseTally(*counts)


@given(st.floats(1.0, 1e15), st.floats(0.01, 1.5), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0), st.floats(0.0, 150.0),
       st.sampled_from([round, float]))
@settings(max_examples=200, deadline=None)
def test_expected_counts_are_the_loops_counts(n_pulses, mu, p_mu, p_nu1,
                                              fiber_length, whole):
    source = SourceConfig(mu=mu, nu1=mu / 4, nu2=mu / 100, p_mu=p_mu,
                          p_nu1=p_nu1, p_nu2=1.0 - p_mu - p_nu1)
    link = LinkConfig(fiber_length=fiber_length)
    got = finite_key._expected_counts(n_pulses, source, link, whole)
    expected = _reference_expected_counts(n_pulses, source, link, whole)
    assert [float(v).hex() for v in got] == [
        float(v).hex() for v in expected]


_BAD_BUDGETS = [-1.0, 0.0, math.inf, math.nan]


@pytest.mark.parametrize("n_pulses", _BAD_BUDGETS)
def test_expectation_tally_refuses_a_budget_that_is_not_positive(preset,
                                                                  n_pulses):
    # -1 once gave negative counts and a key of 4,679,106,967 bits from a
    # negative leakage; inf an OverflowError; NaN a ValueError that named no
    # budget
    with pytest.raises(ValueError, match="n_pulses must be finite and > 0"):
        expectation_tally(n_pulses, preset.source, preset.link)


@pytest.mark.parametrize("n_pulses", _BAD_BUDGETS)
def test_efficiency_curve_refuses_a_budget_that_is_not_positive(preset,
                                                                n_pulses):
    with pytest.raises(ValueError, match="n_pulses must be finite and > 0"):
        efficiency_curve([1.2e12, n_pulses], preset.source, preset.link,
                         preset.security)


@pytest.mark.parametrize("n_pulses", _BAD_BUDGETS)
def test_optimize_source_refuses_a_budget_that_is_not_positive(preset,
                                                               n_pulses):
    # -1 once searched 173 candidates and reported a rate of 0.0
    with pytest.raises(ValueError, match="n_pulses must be finite and > 0"):
        optimize_source(preset.link, preset.security, n_pulses, sweeps=1)


def test_one_distillation_computes_each_interval_once(preset, monkeypatch):
    # the epsilon ledger: one clopper_pearson call per ChannelEstimates
    # field, each at its equal share of half the budget, and none repeated
    calls = []
    inner = finite_key.clopper_pearson

    def counted(successes, trials, confidence_epsilon):
        calls.append((successes, trials, confidence_epsilon))
        return inner(successes, trials, confidence_epsilon)

    monkeypatch.setattr(finite_key, "clopper_pearson", counted)
    tally = expectation_tally(1.2e12, preset.source, preset.link)
    security = SecurityConfig()
    bounds = decoy_bounds(estimate_channel(tally, security), preset.source)
    secure_key_length(tally, bounds, security, preset.source)
    assert N_BOUND_CALLS == len(ChannelEstimates._fields) == 6
    assert len(calls) == len(set(calls)) == N_BOUND_CALLS
    assert {eps for _, _, eps in calls} == {security.epsilon / 2 / N_BOUND_CALLS}
    assert (tally.errors_mu, tally.sifted_mu) in {(k, n) for k, n, _ in calls}


class _CountingSpecial:
    """Stands in for scipy.special, counting forward beta evaluations."""

    def __init__(self):
        self.forward = 0

    def __getattr__(self, name):
        return getattr(special, name)

    def betainc(self, *args):
        self.forward += 1
        return special.betainc(*args)

    def betaincc(self, *args):
        self.forward += 1
        return special.betaincc(*args)


def test_endpoint_search_forward_evaluation_budget(preset, monkeypatch):
    # the endpoint search needs about 5.5 forward evaluations per endpoint at
    # the counts the program feeds it (7.2 with a doubling bracket and
    # Illinois false position, ~45 by bisection over bit patterns); the bound
    # is that mean plus one.  An endpoint not pinned at 0 or 1 takes at least
    # one passing and one failing evaluation, so fewer than 2 means the
    # search no longer calls the forward functions where they are counted.
    counter = _CountingSpecial()
    monkeypatch.setattr(finite_key, "special", counter)
    inner = finite_key.clopper_pearson
    endpoints = []

    def counted(successes, trials, confidence_epsilon):
        before = counter.forward
        bound = inner(successes, trials, confidence_epsilon)
        unpinned = (successes > 0) + (successes < trials)
        endpoints.append(unpinned)
        assert counter.forward - before >= 2 * unpinned, (successes, trials)
        return bound

    monkeypatch.setattr(finite_key, "clopper_pearson", counted)
    security = SecurityConfig()
    for n_pulses in np.logspace(9, 15, 25):
        tally = expectation_tally(n_pulses, preset.source, preset.link)
        estimate_channel(tally, security)
    assert len(endpoints) == 25 * N_BOUND_CALLS
    assert counter.forward / sum(endpoints) <= 6.5


# ---------------------------------------------------------------------------
# key length and efficiency
# ---------------------------------------------------------------------------

def test_secure_key_positive_at_session_scale(preset):
    tally = expectation_tally(1.2e12, preset.source, preset.link)
    security = SecurityConfig()
    bounds = decoy_bounds(estimate_channel(tally, security), preset.source)
    result = secure_key_length(tally, bounds, security, preset.source)
    assert result.secure_bits > 0
    assert result.single_photon_bits > result.secure_bits
    assert result.leakage_bits > 0
    assert result.finite_size_bits == pytest.approx(
        math.log2(2 / (1e-7 / 2)), rel=1e-12)
    assert 0 < result.efficiency <= 1
    assert result.epsilon_spent == 1e-7


def test_window_without_sifted_signal_bits_yields_no_key(preset):
    tally = PulseTally(sent_mu=10**9, sent_nu1=10**8, sifted_nu1=10**5,
                       errors_nu1=10**3, sent_nu2=10**8, sifted_nu2=10**3,
                       errors_nu2=500)
    security = SecurityConfig()
    estimates = estimate_channel(tally, security)
    assert estimates.e_mu == BinomialBound(0.0, 1.0)
    result = secure_key_length(tally, decoy_bounds(estimates, preset.source),
                               security, preset.source)
    assert result.secure_bits == 0 and result.efficiency == 0.0


def test_secure_key_never_exceeds_single_photon_budget(preset):
    tally = expectation_tally(1e11, preset.source, preset.link)
    security = SecurityConfig()
    bounds = decoy_bounds(estimate_channel(tally, security), preset.source)
    result = secure_key_length(tally, bounds, security, preset.source)
    assert result.secure_bits <= result.single_photon_bits


def test_asymptotic_rate_frozen_value(preset):
    # frozen from an independent evaluation of the two-decoy rate formula on
    # the drift-free default link
    rate = asymptotic_rate(preset.source, preset.link, SecurityConfig())
    assert rate == pytest.approx(6.8045e-4, rel=1e-4)


def test_asymptotic_rate_zero_for_hopeless_link(preset):
    # QBER beyond the entropy crossover yields nothing
    link = LinkConfig(intrinsic_misalignment_error=0.25)
    assert asymptotic_rate(preset.source, link, SecurityConfig()) == 0.0


def test_expectation_tally_matches_channel_model(preset):
    n = 1e9
    tally = expectation_tally(n, preset.source, preset.link)
    (q_mu, e_mu), _, _ = class_rates(DriftState(), preset.source, preset.link)
    assert tally.sent_mu == round(n * preset.source.p_mu)
    assert tally.sifted_mu == pytest.approx(
        tally.sent_mu * q_mu / 2, abs=1.0)
    assert tally.errors_mu == pytest.approx(
        tally.sifted_mu * e_mu, abs=1.0)
    tally.check()


def test_key_efficiency_monotone_in_pulse_budget(preset):
    security = SecurityConfig()
    effs = efficiency_curve((1e10, 1e11, 1e12, 1e13), preset.source,
                            preset.link, security)
    assert all(b > a for a, b in zip(effs, effs[1:]))
    assert all(0 < e <= 1 for e in effs)


@pytest.mark.xfail(strict=True, reason=(
    "expectation_tally rounds each count to a whole number, so the key and "
    "its reference step unevenly below about 1e10 pulses: this grid falls "
    "between neighbouring budgets 270 times, by up to 5.3e-3"))
def test_key_efficiency_never_falls_on_a_dense_grid(preset):
    effs = efficiency_curve(np.logspace(8, 10, 3000), preset.source,
                            preset.link, preset.security)
    assert all(b >= a for a, b in zip(effs, effs[1:]))


def test_key_efficiency_rejects_empty_budget(preset):
    with pytest.raises(ValueError):
        efficiency_curve((0,), preset.source, preset.link, SecurityConfig())
