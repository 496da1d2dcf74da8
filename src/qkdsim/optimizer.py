"""Source-parameter search maximizing the finite-size secure key rate.

Coordinate descent over (mu, nu1, nu2, p_mu, p_nu1) with a golden-section
line search per coordinate.  p_nu2 is derived as the simplex remainder, and
every candidate is projected back inside the source invariants before
evaluation, so gradients through the clamped (max with zero) regions of the
objective are never needed.

The sweeps rank candidates on `finite_key.wilson_interval`, which is
smooth, cheap and not conservative, through the `interval` hook of
`objective`.  Only the ranking uses it: the search then evaluates the
projected start and its best candidate once each on the exact
`finite_key.clopper_pearson` and returns the one with the higher exact rate
(the start, on a tie).  So the reported point and rate are always an exact
key's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .config import LinkConfig, SecurityConfig, SourceConfig
from .finite_key import distill, expectation_tally, wilson_interval
# Not called here: perfbench/tracing.BOUNDARIES looks them up in this module.
from .finite_key import decoy_bounds, estimate_channel, secure_key_length

__all__ = [
    "OptimizationResult",
    "objective",
    "optimize_source",
    "MU_BOUNDS",
]

MU_BOUNDS = (0.01, 1.5)
_MARGIN = 1e-3    # strict-ordering margin between intensities
_P_FLOOR = 1e-4   # keep every send probability strictly inside (0, 1)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_LINE_SEARCH_ITERS = 30


def objective(source: SourceConfig, link: LinkConfig, security: SecurityConfig,
              n_pulses: float, interval=None) -> float:
    """Deterministic finite-size secure bits per emitted pulse at expectation
    tallies (no sampling); 0 where a class gets no pulses.  `interval` is
    passed on to `distill`."""
    if not (source.mu > source.nu1 > source.nu2 >= 0.0
            and source.nu1 + source.nu2 < source.mu):
        return 0.0
    tally = expectation_tally(n_pulses, source, link)
    if not (tally[0] and tally[3] and tally[6]):    # the sent counts
        return 0.0    # a class without pulses bounds nothing
    return distill(tally, source, security, interval).secure_bits / n_pulses


@dataclass(frozen=True)
class OptimizationResult:
    best: SourceConfig
    rate: float                # bits per pulse at the optimum
    evaluations: int = 0


def _clip(v: float, lo: float, hi: float) -> float:
    """min(max(v, lo), hi), the same float without the two calls: max(v, lo)
    is `lo if lo > v else v` and min(m, hi) is `hi if hi < m else m`."""
    v = lo if lo > v else v
    return hi if hi < v else v


def _project(base: SourceConfig, coord: str, x: float) -> SourceConfig:
    """`base` with its `coord` set to x, projected back inside the source
    invariants: one positional `SourceConfig` call, in field order."""
    mu = _clip(x if coord == "mu" else base.mu, MU_BOUNDS[0], MU_BOUNDS[1])
    nu1 = _clip(x if coord == "nu1" else base.nu1, _MARGIN,
                mu * (1.0 - _MARGIN))
    nu2 = _clip(x if coord == "nu2" else base.nu2, 0.0, nu1 * (1.0 - _MARGIN))
    p_mu = _clip(x if coord == "p_mu" else base.p_mu, _P_FLOOR,
                 1.0 - 2.0 * _P_FLOOR)
    p_nu1 = _clip(x if coord == "p_nu1" else base.p_nu1, _P_FLOOR,
                  1.0 - p_mu - _P_FLOOR)
    return SourceConfig(mu, nu1, nu2, p_mu, p_nu1, 1.0 - p_mu - p_nu1,
                        base.clock_rate)


def _golden_max(f, lo: float, hi: float) -> None:
    """Deterministic golden-section maximization of f over [lo, hi], probing
    both ends first; f itself keeps the best probe."""
    f(lo)
    f(hi)
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(_LINE_SEARCH_ITERS):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = f(d)


def optimize_source(link: LinkConfig, security: SecurityConfig, n_pulses: float,
                    start: SourceConfig = SourceConfig(),
                    sweeps: int = 8) -> OptimizationResult:
    """Maximize the finite-size rate over intensities and send probabilities
    from `start`.  `sweeps` full passes over the coordinates rank candidates
    on the Wilson interval; `rate` and `best` are the exact objective's, and
    `evaluations` counts every objective evaluation, ranked or exact."""
    if sweeps < 0:
        raise ValueError(f"sweeps must be >= 0, got {sweeps}")

    start = _project(start, "mu", start.mu)
    best, ranked, evaluations = start, -1.0, 0

    def evaluate(candidate: SourceConfig) -> float:
        nonlocal best, ranked, evaluations
        evaluations += 1
        rate = objective(candidate, link, security, n_pulses, wilson_interval)
        if rate > ranked:
            best, ranked = candidate, rate
        return rate

    evaluate(start)

    coordinates = ("mu", "nu1", "nu2", "p_mu", "p_nu1")
    for _ in range(sweeps):
        for coord in coordinates:
            base = best

            def line(x: float, coord=coord, base=base) -> float:
                return evaluate(_project(base, coord, x))

            if coord == "mu":
                lo, hi = MU_BOUNDS
            elif coord == "nu1":
                lo, hi = _MARGIN, base.mu * (1.0 - _MARGIN)
            elif coord == "nu2":
                lo, hi = 0.0, base.nu1 * (1.0 - _MARGIN)
            elif coord == "p_mu":
                lo, hi = 0.5, 1.0 - base.p_nu1 - _P_FLOOR
            else:
                lo, hi = _P_FLOOR, 1.0 - base.p_mu - _P_FLOOR
            _golden_max(line, lo, hi)

    rate = objective(start, link, security, n_pulses)    # exact bound
    searched = objective(best, link, security, n_pulses)
    if searched > rate:    # the start wins a tie
        start, rate = best, searched
    return OptimizationResult(start, rate, evaluations + 2)
