"""End-to-end acceptance suite.

Each test below checks one headline claim of the simulator at its stated
tolerance, so the -v report reads as one pass/fail line per claim.  The
36-hour stabilized session (`full_run`, from conftest.py) and the 6-hour
unstabilized session are shared fixtures; everything else is recomputed
deterministically.
"""
import dataclasses
import math
import time

import numpy as np
import pytest
from scipy import special

from qkdsim.channel import DriftState, class_rates, expected_rates, sample_tally
from qkdsim.config import SimConfig, SourceConfig
from qkdsim.finite_key import (BinomialBound, ChannelEstimates, asymptotic_rate,
                               clopper_pearson, decoy_bounds, efficiency_curve,
                               estimate_channel)
from qkdsim.optimizer import objective, optimize_source
from qkdsim.session import TelemetryRow, run_session


def _column(result, name: str) -> list[float]:
    """The telemetry column `name` of `result`, its absent steps left out.
    Read from the array, not `rows`: the 36 h session is shared by the whole
    test run, and its rows would be kept as long."""
    values = result.telemetry[:, TelemetryRow._fields.index(name)]
    return values[~np.isnan(values)].tolist()


@pytest.fixture(scope="module")
def unstabilized_run(preset):
    cfg = dataclasses.replace(preset, sim=SimConfig(duration=21600.0,
                                                    stabilization_enabled=False))
    return run_session(cfg, seed=1)


def test_criterion_01_secure_rate_and_volume_over_36_hours(full_run):
    result, elapsed = full_run
    rate_mbps = result.summary.mean_secure_rate_bps / 1e6
    assert 0.5 <= rate_mbps <= 2.0
    assert 6.5e10 <= result.summary.total_secure_bits <= 2.6e11
    assert elapsed <= 60.0


def test_criterion_02_key_efficiency_curve(preset):
    start = time.perf_counter()
    budgets = (7.5e11, 1.2e12, 1e10, 1e11)
    eff = dict(zip(budgets, efficiency_curve(budgets, preset.source,
                                             preset.link, preset.security)))
    assert eff[7.5e11] == pytest.approx(0.95, abs=0.03)
    assert eff[1.2e12] == pytest.approx(0.96, abs=0.03)
    assert eff[1e10] <= eff[1e11] - 0.05
    grid = np.logspace(9, 15, 20)
    curve = efficiency_curve(grid.tolist(), preset.source, preset.link,
                             preset.security)
    assert all(b >= a for a, b in zip(curve, curve[1:]))
    assert time.perf_counter() - start <= 10.0


def test_criterion_03_qber_stability_under_feedback(full_run):
    result, _ = full_run
    mean = result.summary.mean_qber_signal
    assert mean == pytest.approx(0.0385, abs=0.005)
    per_second = _column(result, "qber_mu")
    assert max(per_second) <= 0.08
    within = sum(abs(q - mean) <= 0.1 * mean for q in per_second)
    assert within / len(per_second) >= 0.85


def test_criterion_04_transmittance_with_and_without_loops(full_run,
                                                           unstabilized_run):
    free = _column(unstabilized_run, "trans_mu")
    initial = np.mean(free[:60])
    below = [i for i, t in enumerate(free) if t < 0.1 * initial]
    assert below and below[0] <= 6 * 3600

    result, _ = full_run
    held = _column(result, "trans_mu")
    assert min(held) >= 0.8 * np.mean(held[:60])


def test_criterion_05_intensity_ratio_stability(full_run):
    result, _ = full_run
    assert len(result.records) == 108  # 36 h of aligned 20-min windows
    for cls in ("nu1", "nu2"):
        ratios = np.array([getattr(rec.tally, f"sifted_{cls}")
                           / rec.tally.sifted_mu
                           for rec in result.records])
        assert np.std(ratios) / np.mean(ratios) < 0.005


def _cp_oracle_grid(n: int, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized bisection on direct binomial probability sums (no beta
    functions) for every k = 0..n at once."""
    k = np.arange(n + 1)
    log_comb = (special.gammaln(n + 1) - special.gammaln(k + 1)
                - special.gammaln(n - k + 1))
    # row r, column i masks: i <= r for P[X <= r] and i <= r-1 for P[X < r]
    mask_le = np.tril(np.ones((n + 1, n + 1)))
    mask_lt = np.tril(np.ones((n + 1, n + 1)), k=-1)

    def cdf(p: np.ndarray, mask: np.ndarray) -> np.ndarray:
        # row r sums exact binomial probabilities at that row's probe p[r]
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = (log_comb[None, :] + k[None, :] * np.log(p[:, None])
                    + (n - k)[None, :] * np.log1p(-p[:, None]))
        terms = np.where(np.isnan(logs), 0.0, np.exp(logs))
        # p = 0 or 1 rows: only the i = 0 or i = n term survives
        terms[p == 0.0, :] = 0.0
        terms[p == 0.0, 0] = 1.0
        terms[p == 1.0, :] = 0.0
        terms[p == 1.0, n] = 1.0
        return (terms * mask).sum(axis=1)

    half = eps / 2
    lo, hi = np.zeros(n + 1), np.ones(n + 1)
    for _ in range(50):  # 2^-50 < 1e-15 absolute resolution
        mid = 0.5 * (lo + hi)
        # lower endpoint: P[X >= k; p] = 1 - P[X < k; p] pinned at eps/2
        upper_tail = 1.0 - cdf(mid, mask_lt)
        lo = np.where(upper_tail < half, mid, lo)
        hi = np.where(upper_tail < half, hi, mid)
    lower = np.where(k == 0, 0.0, 0.5 * (lo + hi))

    lo, hi = np.zeros(n + 1), np.ones(n + 1)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        c = cdf(mid, mask_le)
        lo = np.where(c > half, mid, lo)
        hi = np.where(c > half, hi, mid)
    upper = np.where(k == n, 1.0, 0.5 * (lo + hi))
    return lower, upper


def test_criterion_06_clopper_pearson_oracle_equivalence():
    eps = 0.05
    for n in list(range(1, 41)) + [60, 100, 150, 200]:
        oracle_lower, oracle_upper = _cp_oracle_grid(n, eps)
        for k in range(n + 1):
            bound = clopper_pearson(k, n, eps)
            assert abs(bound.lower - oracle_lower[k]) < 1e-9, (k, n)
            assert abs(bound.upper - oracle_upper[k]) < 1e-9, (k, n)

    # large-count spot checks through the regularized-beta tail identity
    rng = np.random.default_rng(2718)
    for _ in range(1000):
        n = int(rng.integers(1, 1_000_001))
        k = int(rng.integers(0, n + 1))
        eps = 10 ** rng.uniform(-8, -1)
        bound = clopper_pearson(k, n, eps)
        if k > 0:
            tail = special.betainc(k, n - k + 1, bound.lower)
            assert abs(tail - eps / 2) < 1e-7
        if k < n:
            tail = 1.0 - special.betainc(k + 1, n - k, bound.upper)
            assert abs(tail - eps / 2) < 1e-7


def _exact_estimates(source, eta, y0, e_mis):
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


def test_criterion_07_decoy_bound_soundness(preset):
    source, security = preset.source, preset.security
    rng = np.random.default_rng(31)
    for _ in range(10_000):
        eta = 10 ** rng.uniform(-4, math.log10(0.2))
        y0 = rng.uniform(0.0, 1e-3)
        e_mis = rng.uniform(0.0, 0.1)
        true_y1 = y0 + eta - y0 * eta
        true_e1 = (0.5 * y0 * (1 - eta) + e_mis * eta) / true_y1
        bounds = decoy_bounds(_exact_estimates(source, eta, y0, e_mis), source)
        assert bounds.y1_lower <= true_y1 + 1e-12
        if bounds.y1_lower > 0:
            assert bounds.e1_upper >= true_e1 - 1e-12

    # finite statistics: 10^8-pulse tallies; with epsilon = 1e-7 per session
    # the allowed violation count over 200 trials rounds to zero
    eta = 0.1 * preset.link.detector_efficiency
    y0 = preset.link.background_yield()
    true_y1 = y0 + eta - y0 * eta
    true_e1 = (0.5 * y0 * (1 - eta)
               + preset.link.intrinsic_misalignment_error * eta) / true_y1
    rates = class_rates(DriftState(), source, preset.link)
    violations = 0
    for _ in range(200):
        tally = sample_tally(rates, source, 0.1, rng)
        bounds = decoy_bounds(estimate_channel(tally, security), source)
        if bounds.y1_lower > true_y1 or (bounds.y1_lower > 0
                                         and bounds.e1_upper < true_e1):
            violations += 1
    assert violations == 0


def test_criterion_08_finite_key_converges_to_asymptotic_rate(preset):
    [ratio] = efficiency_curve((1e15,), preset.source, preset.link,
                               preset.security)
    assert ratio == pytest.approx(1.0, abs=0.01)
    assert asymptotic_rate(preset.source, preset.link, preset.security) > 0


def test_criterion_09_optimizer_matches_grid_oracle(preset):
    n_pulses = 1.2e12
    result = optimize_source(preset.link, preset.security, n_pulses)
    grid_best, at_half = 0.0, 0.0
    for mu in np.linspace(0.05, 1.0, 20):
        for nu1 in np.linspace(0.005, 0.2, 20):
            if nu1 >= mu:
                continue
            rate = objective(SourceConfig(mu=mu, nu1=nu1), preset.link,
                             preset.security, n_pulses)
            grid_best = max(grid_best, rate)
            if abs(mu - 0.5) < 1e-9:
                at_half = max(at_half, rate)
    assert result.rate >= 0.99 * grid_best
    assert 0.3 <= result.best.mu <= 0.8
    assert at_half >= 0.95 * grid_best


def test_criterion_10_byte_identical_outputs_for_same_seed(preset, tmp_path):
    for name in ("a", "b"):
        run_session(preset, duration=3600.0, seed=13, out=tmp_path / name)
    for fname in ("telemetry.csv", "keys.csv", "summary.txt"):
        assert (tmp_path / "a" / fname).read_bytes() == \
            (tmp_path / "b" / fname).read_bytes()
