import dataclasses
import hashlib
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qkdsim import finite_key, optimizer
from qkdsim.channel import SIFTING
from qkdsim.config import Config, LinkConfig, SourceConfig
from qkdsim.finite_key import (N_BOUND_CALLS, clopper_pearson,
                               estimate_channel, expectation_tally,
                               wilson_interval)
from qkdsim.optimizer import (_MARGIN, _P_FLOOR, MU_BOUNDS, _project,
                               objective, optimize_source)

N_PULSES = 1.2e12  # one 20-min window at the GHz clock


@pytest.fixture(scope="module")
def search_result(preset):
    return optimize_source(preset.link, preset.security, N_PULSES)


def test_negative_sweeps_rejected(preset):
    with pytest.raises(ValueError, match="sweeps must be >= 0, got -1"):
        optimize_source(preset.link, preset.security, N_PULSES, sweeps=-1)


def test_objective_zero_without_signal(preset):
    dead = SourceConfig(mu=0.0, nu1=-1.0, nu2=-2.0)
    assert objective(dead, preset.link, preset.security, N_PULSES) == 0.0


def test_objective_zero_outside_decoy_validity(preset):
    # nu1 + nu2 >= mu breaks the vacuum+weak inference; the objective must
    # not reward it
    crowded = SourceConfig(mu=0.4, nu1=0.39, nu2=0.02)
    assert objective(crowded, preset.link, preset.security, N_PULSES) == 0.0


def test_objective_positive_on_default_preset(preset):
    rate = objective(preset.source, preset.link, preset.security, N_PULSES)
    assert rate > 0.0
    # physically bounded by half the sifted signal gain
    assert rate < 0.5 * preset.source.p_mu


def test_optimizer_beats_default_preset(preset, search_result):
    preset_rate = objective(preset.source, preset.link, preset.security,
                            N_PULSES)
    assert search_result.rate >= preset_rate


def test_optimizer_is_deterministic(preset):
    a = optimize_source(preset.link, preset.security, N_PULSES, sweeps=2)
    b = optimize_source(preset.link, preset.security, N_PULSES, sweeps=2)
    assert a.best == b.best
    assert a.rate == b.rate
    assert a.evaluations == b.evaluations


def test_optimizer_output_satisfies_source_invariants(search_result):
    Config(source=search_result.best).validated()
    best = search_result.best
    assert best.nu1 + best.nu2 < best.mu


def test_optimizer_against_validation_grid(preset, search_result):
    # independent oracle: exhaustive 20x20 grid over (mu, nu1) with the other
    # parameters at their defaults; the search must match or beat it
    grid_best, at_half = 0.0, 0.0
    for mu in np.linspace(0.05, 1.0, 20):
        for nu1 in np.linspace(0.005, 0.2, 20):
            if nu1 >= mu:
                continue
            rate = objective(SourceConfig(mu=mu, nu1=nu1), preset.link,
                             preset.security, N_PULSES)
            grid_best = max(grid_best, rate)
            if abs(mu - 0.5) < 1e-9:
                at_half = max(at_half, rate)
    assert search_result.rate >= 0.99 * grid_best
    # the optimal signal intensity for this link sits in the moderate range
    assert 0.3 <= search_result.best.mu <= 0.8
    # a signal intensity of exactly 0.5 is near-optimal on this link
    assert at_half >= 0.95 * grid_best


def test_optimal_intensity_grows_with_transmittance(preset):
    lossless = optimize_source(LinkConfig(fiber_length=0.0), preset.security,
                               N_PULSES, sweeps=3)
    lossy = optimize_source(LinkConfig(fiber_length=50.0), preset.security,
                            N_PULSES, sweeps=3)
    assert lossless.best.mu > lossy.best.mu
    assert lossless.rate > lossy.rate


def test_decoy_fraction_grows_when_statistics_are_scarce(preset):
    scarce = optimize_source(preset.link, preset.security, 1e10, sweeps=3)
    plentiful = optimize_source(preset.link, preset.security, 1e15, sweeps=3)
    decoy_p = lambda s: s.p_nu1 + s.p_nu2
    assert decoy_p(scarce.best) > decoy_p(plentiful.best)


def test_mu_stays_inside_bounds(search_result):
    assert MU_BOUNDS[0] <= search_result.best.mu <= MU_BOUNDS[1]


def test_objective_zero_when_a_class_gets_no_pulses(preset):
    # 1000 pulses at p_nu2 = 1e-4, the search's floor, send no nu2 pulse
    sparse = SourceConfig(p_mu=0.9899, p_nu1=0.01, p_nu2=1e-4)
    assert expectation_tally(1000, sparse, preset.link).sent_nu2 == 0
    assert objective(sparse, preset.link, preset.security, 1000) == 0.0
    result = optimize_source(preset.link, preset.security, 1000, sweeps=1)
    assert result.rate >= 0.0


def _count_intervals(monkeypatch) -> list[tuple]:
    """Record every call that reaches `finite_key.clopper_pearson`."""
    calls = []

    def counted(*args):
        calls.append(args)
        return clopper_pearson(*args)
    monkeypatch.setattr(finite_key, "clopper_pearson", counted)
    return calls


def test_search_bounds_each_distinct_interval_once(preset, monkeypatch):
    calls = _count_intervals(monkeypatch)
    optimize_source(preset.link, preset.security, N_PULSES)
    # the sweeps rank on the Wilson interval: only the two certified points,
    # the best candidate and the start, are bounded exactly, and they share
    # no interval
    assert 0 < len(calls) <= 2 * N_BOUND_CALLS
    assert len(calls) == len(set(calls))


def test_reported_rate_is_the_exact_objective_at_the_best(preset,
                                                          search_result):
    exact = objective(search_result.best, preset.link, preset.security,
                      N_PULSES)
    assert search_result.rate == exact   # bit for bit
    start = _project(preset.source, "mu", preset.source.mu)
    assert search_result.rate >= objective(start, preset.link,
                                           preset.security, N_PULSES)


def test_a_search_of_no_sweeps_returns_the_start_at_its_exact_rate(preset):
    result = optimize_source(preset.link, preset.security, N_PULSES,
                             sweeps=0)
    start = _project(preset.source, "mu", preset.source.mu)
    assert result.best == start
    assert result.rate == objective(start, preset.link, preset.security,
                                    N_PULSES)
    assert result.evaluations == 3   # one ranked, two exact


@pytest.mark.parametrize("n_pulses", [6e11, N_PULSES, 2.4e12, 1e14])
def test_ranked_search_reaches_the_exact_five_sweep_search(preset,
                                                           monkeypatch,
                                                           n_pulses):
    ranked = optimize_source(preset.link, preset.security, n_pulses)
    # the search as it ranked before: every candidate on the exact bound
    monkeypatch.setattr(optimizer, "wilson_interval",
                        lru_cache(maxsize=None)(clopper_pearson))
    exact = optimize_source(preset.link, preset.security, n_pulses, sweeps=5)
    assert ranked.rate >= exact.rate > 0.0


def test_equal_searches_compute_the_same_intervals(preset, monkeypatch):
    calls = _count_intervals(monkeypatch)
    first = optimize_source(preset.link, preset.security, N_PULSES, sweeps=1)
    n_first = len(calls)
    second = optimize_source(preset.link, preset.security, N_PULSES, sweeps=1)
    assert n_first > 0
    assert calls[n_first:] == calls[:n_first]
    assert (second.best, second.rate, second.evaluations) == \
        (first.best, first.rate, first.evaluations)


def test_estimate_channel_bounds_through_its_interval_hook(preset):
    # the hook the search ranks by: one call for each field, in the table's
    # order, at the field's share of epsilon/2, the gains scaled back to Q
    tally = expectation_tally(N_PULSES, preset.source, preset.link)
    calls = []

    def wilson(k, n, eps):
        calls.append((k, n, eps))
        return wilson_interval(k, n, eps)
    estimates = estimate_channel(tally, preset.security, wilson)
    share = preset.security.epsilon / 2.0 / N_BOUND_CALLS
    t = tally
    assert calls == [(k, n, share) for k, n in (
        (t.sifted_mu, t.sent_mu), (t.errors_mu, t.sifted_mu),
        (t.sifted_nu1, t.sent_nu1), (t.sifted_nu2, t.sent_nu2),
        (t.errors_nu1, t.sent_nu1), (t.errors_nu2, t.sent_nu2))]
    for name, bound, args in zip(estimates._fields, estimates, calls):
        scale = 1.0 if name == "e_mu" else 1.0 / SIFTING
        assert bound == tuple(min(1.0, end * scale)
                              for end in wilson_interval(*args)), name


def test_a_candidate_keeps_every_field_that_is_not_searched():
    # _project names each field of SourceConfig: one it left out would take
    # its default, not the base's value
    searched = {"mu", "nu1", "nu2", "p_mu", "p_nu1", "p_nu2"}
    kept = [f.name for f in dataclasses.fields(SourceConfig)
            if f.name not in searched]
    assert kept   # clock_rate
    base = dataclasses.replace(
        SourceConfig(mu=0.6, nu1=0.2, nu2=0.01, p_mu=0.875, p_nu1=0.0625,
                     p_nu2=0.0625),
        **{name: getattr(SourceConfig(), name) * 2 for name in kept})
    for coord, x in (("mu", 0.7), ("nu1", 0.15), ("nu2", 0.02),
                     ("p_mu", 0.75), ("p_nu1", 0.1)):
        candidate = _project(base, coord, x)
        for name in kept:
            assert getattr(candidate, name) == getattr(base, name), name
        # inside the invariants, nothing is clamped: x is set, the other
        # coordinates are the base's, and p_nu2 is the simplex remainder
        for name in searched - {"p_nu2"}:
            assert getattr(candidate, name) == (
                x if name == coord else getattr(base, name)), name
        assert candidate.p_nu2 == 1.0 - candidate.p_mu - candidate.p_nu1


def _search_path_digest(preset, monkeypatch, n_pulses) -> tuple[int, str]:
    """The number of objective evaluations a default search makes, and the
    SHA-256 of each one's candidate fields, interval hook and rate, in
    order, as hex floats."""
    path = hashlib.sha256()
    calls = [0]
    inner = optimizer.objective

    def recorded(source, link, security, n, interval=None):
        rate = inner(source, link, security, n, interval)
        calls[0] += 1
        fields = dataclasses.astuple(source)
        path.update(" ".join([*(float(v).hex() for v in fields),
                              "ranked" if interval else "exact",
                              rate.hex()]).encode() + b"\n")
        return rate
    monkeypatch.setattr(optimizer, "objective", recorded)
    result = optimize_source(preset.link, preset.security, n_pulses)
    assert result.evaluations == calls[0]
    return calls[0], path.hexdigest()


@pytest.mark.parametrize("n_pulses, digest", [
    (0.6e12,
     "9b77a351c2dacbe4d9b776e06b09cf9ead93648d7c350c25521750292c828363"),
    (1.2e12,
     "280a30ed6c766dc344005e022135ebc8ef10c820029c18b6031d0938e92b55fc"),
    (2.4e12,
     "a7902aec3e5c4ab0d81a833ece5b7de916b91c6070319427f461471e1744e7ba"),
], ids=["0.6e12", "1.2e12", "2.4e12"])
def test_the_search_makes_the_same_evaluations_in_the_same_order(
        preset, monkeypatch, n_pulses, digest):
    # the golden pins only the search's result; this pins every candidate it
    # evaluates and every rate it ranks them by, to the last bit
    assert _search_path_digest(preset, monkeypatch, n_pulses) == (1363, digest)


def _reference_project(base, coord, x):
    """_project as written with min and max."""
    mu = min(max(x if coord == "mu" else base.mu, MU_BOUNDS[0]), MU_BOUNDS[1])
    nu1 = min(max(x if coord == "nu1" else base.nu1, _MARGIN),
              mu * (1.0 - _MARGIN))
    nu2 = min(max(x if coord == "nu2" else base.nu2, 0.0),
              nu1 * (1.0 - _MARGIN))
    p_mu = min(max(x if coord == "p_mu" else base.p_mu, _P_FLOOR),
               1.0 - 2.0 * _P_FLOOR)
    p_nu1 = min(max(x if coord == "p_nu1" else base.p_nu1, _P_FLOOR),
                1.0 - p_mu - _P_FLOOR)
    return (mu, nu1, nu2, p_mu, p_nu1, 1.0 - p_mu - p_nu1, base.clock_rate)


# a coordinate: mostly in [0, 2], else NaN, a signed zero, a bound, or a
# value far out of range
_COORDINATE = st.floats(0.0, 2.0) | st.sampled_from(
    [math.nan, 0.0, -0.0, MU_BOUNDS[1], 1.0 - 2.0 * _P_FLOOR, -1.0, 1e300])


@given(st.sampled_from(["mu", "nu1", "nu2", "p_mu", "p_nu1"]), _COORDINATE,
       st.lists(_COORDINATE, min_size=5, max_size=5))
@settings(max_examples=300, deadline=None)
# a NaN coordinate, and a signal probability whose p_nu1 range is empty
@example("nu1", math.nan, [0.5, 0.1, 0.0007, 0.9883, 0.0078])
@example("p_nu1", 0.5, [0.5, 0.1, 0.0007, 0.9998, 0.0078])
def test_project_clips_as_min_and_max_do(coord, x, fields):
    base = SourceConfig(*fields)
    got = dataclasses.astuple(_project(base, coord, x))
    assert [float(v).hex() for v in got] == [
        float(v).hex() for v in _reference_project(base, coord, x)]
