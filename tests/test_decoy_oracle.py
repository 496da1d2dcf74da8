"""The decoy bounds judged by linear programs over the photon-number yields.

Each class c sends a Poissonian number of photons, so its gain is
Q_c = sum_n P_c(n) Y_n and its error gain E_c Q_c = sum_n P_c(n) Z_n, with
Z_n = e_n Y_n the error yield of n photons.  Given the Clopper-Pearson
intervals that `estimate_channel` puts on these gains, the least Y1 and the
largest Z1 = E1 Y1 that any yields 0 <= Z_n <= Y_n <= 1 (a vacuum's clicks
are errors half the time: Z0 = Y0 / 2) can take are two linear programs,
solved by scipy's HiGHS.  Yields beyond 12 photons enter only through each
class's Poisson tail, which the lower endpoints give up.  `decoy_bounds`
must be no tighter than either optimum.
"""
import math

import numpy as np
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from qkdsim.config import LinkConfig, SecurityConfig, SourceConfig
from qkdsim.finite_key import decoy_bounds, estimate_channel, expectation_tally

PHOTONS = 13  # yields Y0..Y12 and Z0..Z12
# HiGHS's default primal feasibility tolerance, passed explicitly.  Every
# row and every yield is scaled to order one, so an optimum that HiGHS
# accepts can miss an interval endpoint by this fraction of it, and the
# optimum itself is off by about as much, relatively.
FEASIBILITY = 1e-7


def _poisson(mean: float) -> tuple[np.ndarray, float]:
    """P(0..12 photons) and the probability of more."""
    p = np.array([math.exp(-mean) * mean ** n / math.factorial(n)
                  for n in range(PHOTONS)])
    return p, max(0.0, 1.0 - p.sum())


def lp_extremes(estimates, source: SourceConfig) -> tuple[float, float]:
    """The least Y1 and the largest E1 Y1 consistent with `estimates`."""
    scale = estimates.q_mu.upper  # yields in units of the signal gain
    none = np.zeros(PHOTONS)
    rows, lower = [], []
    for mean, gain, error_gain in (
            (source.mu, estimates.q_mu, None),
            (source.nu1, estimates.q_nu1, estimates.eq_nu1),
            (source.nu2, estimates.q_nu2, estimates.eq_nu2)):
        p, tail = _poisson(mean)
        for coefficients, bound in ((np.r_[p, none], gain),
                                    (np.r_[none, p], error_gain)):
            if bound is not None:  # each row divided by its upper endpoint
                rows.append(coefficients * scale / bound.upper)
                lower.append((bound.lower - tail) / bound.upper)
    rows = np.array(rows)
    a_ub = np.vstack([rows, -rows,
                      np.hstack([-np.eye(PHOTONS), np.eye(PHOTONS)])])
    b_ub = np.r_[np.ones(len(rows)), -np.array(lower), np.zeros(PHOTONS)]
    a_eq = np.zeros((1, 2 * PHOTONS))
    a_eq[0, 0], a_eq[0, PHOTONS] = 0.5, -1.0  # Z0 = Y0 / 2
    optima = []
    for index, sign in ((1, 1.0), (PHOTONS + 1, -1.0)):  # min Y1, max Z1
        objective = np.zeros(2 * PHOTONS)
        objective[index] = sign
        result = linprog(objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq,
                         b_eq=[0.0], bounds=(0.0, 1.0 / scale),
                         method="highs", options={
                             "primal_feasibility_tolerance": FEASIBILITY})
        assert result.status == 0, result.message
        optima.append(sign * result.fun * scale)
    return optima[0], optima[1]


def _source(mu, nu1, nu2, p_nu1, p_nu2) -> SourceConfig:
    return SourceConfig(mu=mu, nu1=nu1, nu2=nu2, p_mu=1.0 - p_nu1 - p_nu2,
                        p_nu1=p_nu1, p_nu2=p_nu2)


@st.composite
def channels(draw):
    """A source with nu1 + nu2 < mu, a pulse budget and a fiber length."""
    mu = draw(st.floats(0.1, 1.0))
    nu1 = mu * draw(st.floats(0.005, 0.5))
    nu2 = nu1 * draw(st.one_of(st.just(0.0), st.floats(0.0, 0.3)))
    source = _source(mu, nu1, nu2, draw(st.floats(0.002, 0.05)),
                     draw(st.floats(0.002, 0.05)))
    return (source, 10.0 ** draw(st.floats(10.0, 14.0)),
            draw(st.floats(0.0, 150.0)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(channels())
# the defaults, and the sources that `optimize` reaches at 1e10, 1.2e12 and
# 1e14 pulses on the default link
@example((SourceConfig(), 1.2e12, 50.0))
@example((_source(0.412839397, 0.0605376435, 0.0, 0.0369803177,
                  0.0137246921), 1e10, 50.0))
@example((_source(0.442455268, 0.0219910947, 0.0, 0.0114185089,
                  0.00648545062), 1.2e12, 50.0))
@example((_source(0.452188448, 0.00852941241, 2.95481701e-09, 0.00432973947,
                  0.00304174525), 1e14, 50.0))
def test_decoy_bounds_are_no_tighter_than_the_linear_programs(channel):
    source, n_pulses, fiber_length = channel
    tally = expectation_tally(n_pulses, source,
                              LinkConfig(fiber_length=fiber_length))
    estimates = estimate_channel(tally, SecurityConfig())
    bounds = decoy_bounds(estimates, source)
    y1_min, e1y1_max = lp_extremes(estimates, source)
    assert bounds.y1_lower <= y1_min * (1.0 + FEASIBILITY)
    if 0.0 < bounds.y1_lower and bounds.e1_upper < 0.5:
        assert bounds.e1_upper * bounds.y1_lower >= \
            e1y1_max * (1.0 - FEASIBILITY)
