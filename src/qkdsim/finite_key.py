"""Finite-size secure key distillation with Clopper-Pearson binomial
confidence bounds.

Statistical parameters are never taken at face value: every estimated gain
and error rate is replaced by its worst-case Clopper-Pearson endpoint before
entering the two-decoy (vacuum + weak) single-photon bounds or the
error-correction leakage, and the final key length subtracts that leakage
and a privacy-amplification penalty.  The total failure probability epsilon
is split half to privacy amplification and half equally across the
intervals that `estimate_channel` computes, one per field of
`ChannelEstimates` (N_BOUND_CALLS of them): the signal gain and error rate,
the two decoy gains and the two decoy error gains.  Each is computed once
per distillation.  An optimizer search ranks its candidates on
`wilson_interval`, which is not conservative, and computes these intervals
only at the two points it certifies.

Each endpoint is found on the forward regularized incomplete beta function
alone and leaves at most its epsilon/2 in its tail as that function
measures it, at any count scale and on any scipy allowed by pyproject.toml
(the upper tail needs `special.betaincc`, new in scipy 1.11).  The search
starts from the Wilson score endpoint (`wilson_interval`), brackets the
crossing by extrapolating a near-linear transform of the tail from the
points that failed, and narrows the bracket down to two adjacent floats by
Anderson-Bjorck false position on that transform, bisecting instead where
that stalls.  It takes about 5.5 forward evaluations per endpoint at the
counts the program uses.  It moves between a float and its bit pattern
through one 8-byte buffer per thread, an `array('d')` also seen as a signed
64-bit integer.  tests/test_endpoint_replay.py pins its probes, in order,
to a reference copy of the search.

The forward functions are scipy's scalar entry points in
`scipy.special.cython_special`, looked up as `special.betainc`,
`special.betaincc` and `special.ndtri` at each call.  They run the same C
kernels as the `scipy.special` ufuncs and return Python floats, without the
ufunc dispatch, which took about 0.8 us of a 1.3 us scalar `betainc` call.
The two tails are Cython fused functions; the searches call the double
specialization that each picks for Python floats, without its dispatch on
the arguments' types (about 0.07 us a call).
tests/test_forward_identity.py pins them to the ufuncs bit for bit, so an
endpoint judged by the ufuncs gets the same verdict.

`distill` makes one record of a window, a `KeyResult`, which holds the
`DecoyBounds` its key rests on.  One table of which counts bound which
estimate (`_estimates`) and one key formula (`_key_terms`) serve the finite
key, its reference `_infinite_key` of the same tally, which a `KeyResult`
divides by in its `efficiency` on first read, and `asymptotic_rate`, the
same key of one pulse's exact expected counts on the drift-free channel.
That `efficiency` is the one key-extraction efficiency: `efficiency_curve`
reports it for each budget's expectation tally, and no efficiency divides
by `asymptotic_rate`.
"""
from __future__ import annotations

import math
import threading
from array import array
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

from scipy.special import cython_special as special

from .channel import SIFTING, DriftState, PulseTally, _new, class_rates
from .config import LinkConfig, SecurityConfig, SourceConfig

__all__ = [
    "BinomialBound",
    "ChannelEstimates",
    "DecoyBounds",
    "KeyResult",
    "binary_entropy",
    "clopper_pearson",
    "wilson_interval",
    "estimate_channel",
    "point_estimates",
    "decoy_bounds",
    "secure_key_length",
    "distill",
    "asymptotic_rate",
    "expectation_tally",
    "efficiency_curve",
]

def binary_entropy(x: float) -> float:
    """Shannon entropy of a bit with bias x, in bits."""
    if 0.0 < x < 1.0:
        return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)
    if x == 0.0 or x == 1.0:
        return 0.0
    raise ValueError(f"binary_entropy argument must lie in [0, 1], got {x}")


class BinomialBound(NamedTuple):
    """Two-sided confidence interval on a binomial success probability."""

    lower: float
    upper: float


class _Bits(threading.local):
    """An 8-byte buffer seen both as a double (`value`) and as its bit
    pattern, a signed 64-bit integer (`bits`): writing one view and reading
    the other converts between the two.  No call comes between the write
    and the read, so a forward function that starts another search cannot
    disturb a conversion; each thread has a buffer of its own, so threads
    never share one."""

    def __init__(self) -> None:
        self.value = array("d", (0.0,))
        self.bits = memoryview(self.value).cast("B").cast("q")


_BITS = _Bits()


# The double specialization of each fused tail function, which the searches
# call in its place; a stand-in for `special`, such as a recorder, is called
# as it is.
_DOUBLE = {f: getattr(f, "__signatures__", {}).get("double", f)
           for f in (special.betainc, special.betaincc)}


@lru_cache(maxsize=64)
def _target_constants(target: float) -> tuple[float, float, float]:
    """For a tail target epsilon/2: the normal quantile z = -ndtri(target)
    of the Wilson guesses, w_target = sqrt(-2 ln target), and the excess
    (see `_tail_endpoint`) of the tail 1/2 taken at k/n."""
    w_target = math.sqrt(-2.0 * math.log(target))
    log_ratio = math.log(0.5 / target)
    return (float(-special.ndtri(target)), w_target, -2.0 * log_ratio / (
        math.sqrt(max(0.0, w_target * w_target - 2.0 * log_ratio))
        + w_target))


def _tail_endpoint(forward: Callable[[float, float, float], float],
                   a: float, b: float, estimate: float, guess: float,
                   edge: float, target: float, w_target: float,
                   h_half: float) -> float:
    """Tightest float endpoint x whose forward tail `forward(a, b, x)` is
    <= target; `w_target` and `h_half` are the last two of
    `_target_constants(target)`.

    The tail is a binomial tail probability that falls monotonically from
    the point estimate k/n towards `edge` (0 or 1).  At k/n the binomial
    mean is the integer k, which is then also a median, so the tail there is
    at least 1/2 > target; at `edge` it is 0.  The search keeps a bracket of
    two floats: one whose tail failed the check (at first k/n) and one whose
    tail passed (at first `edge`, which is never evaluated).  Non-negative
    doubles order like their bit patterns, and every probe lies strictly
    inside the bracket's patterns, so the search ends on two adjacent floats
    and returns the one that passed.

    A tail t's excess, sqrt(-2 ln t) - sqrt(-2 ln target) formed from
    ln(t/target) to keep its precision as t nears target, is positive where
    t passes and near-linear in a near-normal tail's endpoint; it is +inf
    for t = 0 and -inf for a NaN.  Until a point passes the search probes
    `guess`, then the point where the straight line through the last two
    failed points crosses zero, with the excess as the ordinate over the
    bit patterns; k/n, never evaluated, counts as the first failed point
    with its tail taken as 1/2.
    Where that crossing does not lie between the last failed point and
    `edge`, it probes instead points twice as far from k/n as the last such
    point, and once those leave the bracket, points a quarter, a sixteenth,
    ... of the way from the failed end to `edge`.  Then it closes the
    bracket by Anderson-Bjorck false position (Anderson & Bjorck, BIT 13,
    253 (1973)) on the excess, interpolated over the bit patterns, which
    are linear in the value within a binade and follow its logarithm across
    binades.  The interpolation only picks the next probe: every pass or
    fail is decided by the forward tail itself.  After four probes in a row
    on one side it bisects the patterns instead.  A NaN tail fails the
    check, which errs on the conservative side.  Only the forward function
    is trusted, because `special.betaincinv` can return finite but wrong
    endpoints at large counts.

    scipy's tails are not monotone at the ulp level near the crossing, so
    another probe path can stop on another pair of adjacent floats that
    meets the same contract.
    """
    log, sqrt, inf = math.log, math.sqrt, math.inf
    forward = _DOUBLE.get(forward, forward)
    value, bits = _BITS.value, _BITS.bits
    w2 = w_target * w_target
    value[0] = edge
    edge_bits = bits[0]
    value[0] = estimate
    inside, h_in = bits[0], h_half
    outside, h_out = edge_bits, inf
    prev, h_prev = inside, -inf     # the failed point before `inside`
    rising = inside < outside   # the patterns grow from k/n towards edge
    failed = estimate           # the float at `inside`, while bracketing
    offset, shrink = guess - estimate, 0.25
    last_passed, streak = None, 0
    while (outside - inside > 1) if rising else (inside - outside > 1):
        x = None
        if outside == edge_bits:
            step = (h_in / (h_prev - h_in) * (inside - prev)
                    if -inf < h_prev < h_in else 0.0)
            if 0.0 < step / (edge_bits - inside) < 1.0:
                probe = inside + round(step)
            else:
                x = estimate + offset
                offset *= 2.0
                if not (failed < x < edge if rising else edge < x < failed):
                    x = edge + (failed - edge) * shrink
                    shrink *= shrink
                value[0] = x
                probe = bits[0]
        elif streak < 4 and -inf < h_in < h_out < inf:
            probe = inside + round(h_in / (h_in - h_out) * (outside - inside))
        else:
            probe = (inside + outside) // 2
        lo, hi = (inside, outside) if rising else (outside, inside)
        if probe <= lo:
            probe, x = lo + 1, None
        elif probe >= hi:
            probe, x = hi - 1, None
        if x is None:
            bits[0] = probe
            x = value[0]
        t = forward(a, b, x)
        if t > 0.0:     # the excess of t
            log_ratio = log(t / target)
            d = w2 - 2.0 * log_ratio
            h = -2.0 * log_ratio / (sqrt(d if d > 0.0 else 0.0) + w_target)
        else:
            h = inf if t == 0.0 else -inf
        if t <= target:
            if last_passed:
                streak += 1
                m = 1.0 - h / h_out if 0.0 < h_out < inf else 0.0
                h_in *= m if m > 0.0 else 0.5
            else:
                streak = 1
            last_passed = True
            outside, h_out = probe, h
        else:
            if last_passed is False:
                streak += 1
                m = 1.0 - h / h_in if -inf < h_in < 0.0 else 0.0
                h_out *= m if m > 0.0 else 0.5
            else:
                streak = 1
            last_passed = False
            prev, h_prev = inside, h_in
            inside, h_in, failed = probe, h, x
    bits[0] = outside
    return value[0]


def clopper_pearson(successes: int, trials: int,
                    confidence_epsilon: float) -> BinomialBound:
    """Clopper-Pearson interval at total failure probability
    confidence_epsilon.

    Each endpoint leaves at most confidence_epsilon/2 in its tail, as
    measured by the forward regularized incomplete beta function
    (P[X >= k; lower] = I_lower(k, n-k+1), P[X <= k; upper] =
    1 - I_upper(k+1, n-k)), while the next float towards k/n leaves more.
    """
    if trials <= 0:
        raise ValueError("clopper_pearson requires trials > 0")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    if not 0.0 < confidence_epsilon < 1.0:
        raise ValueError("confidence_epsilon must lie in (0, 1)")
    half = confidence_epsilon / 2.0
    k, n = successes, trials
    estimate = k / n
    z, w_target, h_half = _target_constants(half)
    guess_lower, guess_upper = _wilson(k, n, z)
    if k == 0:
        lower = 0.0
    else:
        lower = _tail_endpoint(special.betainc, float(k), float(n - k + 1),
                               estimate, guess_lower, 0.0, half,
                               w_target, h_half)
    if k == n:
        upper = 1.0
    else:
        upper = _tail_endpoint(special.betaincc, float(k + 1), float(n - k),
                               estimate, guess_upper, 1.0, half,
                               w_target, h_half)
    return _new(BinomialBound, (lower, upper))


def _wilson(k: int, n: int, z: float) -> tuple[float, float]:
    # The Wilson score endpoints of k of n trials at the normal quantile z.
    z2 = z * z
    center = (k + z2 / 2.0) / (n + z2)
    width = z * math.sqrt(k * (n - k) / n + z2 / 4.0) / (n + z2)
    return center - width, center + width


# The last confidence_epsilon that wilson_interval was called with, and its
# normal quantile: a search calls it six times a candidate with one epsilon,
# and comparing one float costs less than a call of the cache.
_wilson_z = (math.nan, math.nan)


def wilson_interval(successes: int, trials: int,
                    confidence_epsilon: float) -> BinomialBound:
    """Wilson score interval (trials > 0) at the normal quantile of
    confidence_epsilon/2 that `clopper_pearson` uses for each tail.

    It is not conservative: it leaves about confidence_epsilon/2 in each tail
    only as far as the binomial is normal.  `clopper_pearson` starts its
    searches from it, and the optimizer ranks candidates by it; no reported
    key length rests on it.
    """
    global _wilson_z
    eps, z = _wilson_z
    if eps != confidence_epsilon:
        z = _target_constants(confidence_epsilon / 2.0)[0]
        _wilson_z = confidence_epsilon, z
    return _new(BinomialBound, _wilson(successes, trials, z))



class ChannelEstimates(NamedTuple):
    """Confidence intervals on per-class gains Q_c and decoy error gains
    E_c*Q_c (probabilities per sent pulse, sifting undone), and on the signal
    error rate E_mu (per sifted bit)."""

    q_mu: BinomialBound
    e_mu: BinomialBound
    q_nu1: BinomialBound
    q_nu2: BinomialBound
    eq_nu1: BinomialBound
    eq_nu2: BinomialBound


# One distillation spends epsilon/2 on privacy amplification and splits the
# other half equally across the intervals that estimate_channel returns.
N_BOUND_CALLS = len(ChannelEstimates._fields)


def _doubled(b: BinomialBound) -> BinomialBound:
    # Sifted counts are binomial in Q * SIFTING per sent pulse; scale back to Q.
    lower, upper = b[0] / SIFTING, b[1] / SIFTING
    return _new(BinomialBound, (lower if lower < 1.0 else 1.0,
                                upper if upper < 1.0 else 1.0))


def _estimates(tally: PulseTally,
               interval: Callable[[int, int, float], BinomialBound],
               eps: float) -> ChannelEstimates:
    """Which counts bound which estimate: `interval(k, n, eps)` on each
    field's k of n, the gains scaled back from sifted counts to Q."""
    sent_mu, sifted_mu, errors_mu, sent_nu1, sifted_nu1, errors_nu1, \
        sent_nu2, sifted_nu2, errors_nu2 = tally
    return _new(ChannelEstimates, (
        _doubled(interval(sifted_mu, sent_mu, eps)),      # q_mu
        interval(errors_mu, sifted_mu, eps),              # e_mu
        _doubled(interval(sifted_nu1, sent_nu1, eps)),    # q_nu1
        _doubled(interval(sifted_nu2, sent_nu2, eps)),    # q_nu2
        _doubled(interval(errors_nu1, sent_nu1, eps)),    # eq_nu1
        _doubled(interval(errors_nu2, sent_nu2, eps)),    # eq_nu2
    ))


def estimate_channel(tally: PulseTally, security: SecurityConfig,
                     interval: Callable[[int, int, float], BinomialBound]
                     | None = None) -> ChannelEstimates:
    """Clopper-Pearson intervals for the key-length analysis, each at its
    share of the epsilon budget.  A field without trials, such as e_mu
    without sifted signal bits, bounds nothing: it is the whole of [0, 1].

    `interval` computes each interval in place of `clopper_pearson`, as the
    optimizer's ranking does with `wilson_interval`."""
    cp = interval or clopper_pearson
    eps = security.epsilon / 2.0 / N_BOUND_CALLS
    if tally[0] > 0 and tally[1] > 0 and tally[3] > 0 and tally[6] > 0:
        return _estimates(tally, cp, eps)    # every field has trials

    def bound(k: int, n: int, eps: float) -> BinomialBound:
        return cp(k, n, eps) if n > 0 else BinomialBound(0.0, 1.0)

    return _estimates(tally, bound, eps)


def _point(k: float, n: float, eps: float) -> BinomialBound:
    # A zero-width interval at k/n, or at 0.0 where there are no trials.
    p = k / n if n > 0 else 0.0
    return BinomialBound(p, p)


def point_estimates(tally: PulseTally) -> ChannelEstimates:
    """Zero-width intervals at the observed ratios (infinite-statistics limit)."""
    return _estimates(tally, _point, 0.0)


class DecoyBounds(NamedTuple):
    """Single-photon characterization from the decoy classes, with the
    signal-class endpoints the key length needs."""

    y1_lower: float     # single-photon yield, lower bound
    e1_upper: float     # single-photon error rate, upper bound
    y0_lower: float     # background yield, lower bound
    q_mu_upper: float   # signal gain, upper bound
    e_mu_upper: float   # signal error rate, upper bound


def decoy_bounds(estimates: ChannelEstimates, source: SourceConfig) -> DecoyBounds:
    """Vacuum+weak two-decoy bounds with every gain at its worst-case endpoint.

    The background lower bound comes from the near-vacuum error gain: its
    errors are at least half the background clicks minus everything a
    multi-photon emission could possibly contribute.
    """
    mu, nu1, nu2 = source.mu, source.nu1, source.nu2
    e_nu1, e_nu2 = math.exp(nu1), math.exp(nu2)
    # each a (lower, upper) pair; max(0.0, v) is `v if v > 0.0 else 0.0` and
    # min(c, v) is `v if v < c else c`, the same floats without the calls
    q_mu, e_mu, q_nu1, q_nu2, eq_nu1, eq_nu2 = estimates

    y0_lower = 2.0 * (eq_nu2[0] * e_nu2 - (e_nu2 - 1.0))
    y0_lower = y0_lower if y0_lower > 0.0 else 0.0

    # The vacuum+weak inference is only sound for nu1 + nu2 < mu (the
    # multi-photon comparison between classes flips sign otherwise); outside
    # that region report no single-photon knowledge at all.
    y1_lower, e1_upper = 0.0, 0.5
    if nu1 + nu2 < mu:
        denom = mu * (nu1 - nu2) - nu1 ** 2 + nu2 ** 2
        y1 = (mu / denom) * (
            q_nu1[0] * e_nu1
            - q_nu2[1] * e_nu2
            - ((nu1 ** 2 - nu2 ** 2) / mu ** 2)
            * (q_mu[1] * math.exp(mu) - y0_lower)
        )
        y1 = y1 if y1 > 0.0 else 0.0
        y1_lower = y1 if y1 < 1.0 else 1.0
        if y1_lower > 0.0:
            e1 = (eq_nu1[1] * e_nu1 - eq_nu2[0] * e_nu2) / (
                (nu1 - nu2) * y1_lower)
            e1 = e1 if e1 > 0.0 else 0.0
            e1_upper = e1 if e1 < 0.5 else 0.5
    return _new(DecoyBounds, (y1_lower, e1_upper, y0_lower, q_mu[1], e_mu[1]))


@dataclass(frozen=True)
class KeyResult:
    """Outcome of distilling one window: its key and the decoy bounds it
    rests on, with the tally, source and security settings it was distilled
    from."""

    secure_bits: int
    single_photon_bits: float   # N1_lower * (1 - H2(e1_upper))
    leakage_bits: float         # f * n_sift * H2(E_upper)
    finite_size_bits: float     # privacy-amplification penalty
    epsilon_spent: float
    bounds: DecoyBounds
    tally: PulseTally = field(repr=False)
    source: SourceConfig = field(repr=False)
    security: SecurityConfig = field(repr=False)

    @cached_property
    def efficiency(self) -> float:
        """Ratio of `secure_bits` to `_infinite_key` of the same tally, 0.0
        where that is 0, computed on first read and kept: a caller that reads
        only the key length (the optimizer's objective) never pays."""
        reference = _infinite_key(self.tally, self.source, self.security)
        return min(1.0, self.secure_bits / reference) if reference > 0 else 0.0


def _key_terms(tally: PulseTally, bounds: DecoyBounds,
               security: SecurityConfig,
               source: SourceConfig) -> tuple[float, float, float]:
    n_sift = tally.sifted_mu
    if n_sift == 0 or bounds.q_mu_upper <= 0.0:
        return 0.0, 0.0, 0.0
    p1 = source.mu * math.exp(-source.mu)
    # no more single-photon bits than sifted bits, whatever the classes say
    n1_lower = n_sift * p1 * bounds.y1_lower / bounds.q_mu_upper
    n1_lower = n1_lower if n1_lower < n_sift else n_sift    # min(n_sift, .)
    e_mu_upper = bounds.e_mu_upper
    e_mu_upper = e_mu_upper if e_mu_upper < 0.5 else 0.5    # min(0.5, .)
    single = n1_lower * (1.0 - binary_entropy(bounds.e1_upper))
    leakage = security.ec_efficiency * n_sift * binary_entropy(e_mu_upper)
    pa = math.log2(2.0 / (security.epsilon / 2.0))
    return single, leakage, pa


def _infinite_key(tally: PulseTally, source: SourceConfig,
                  security: SecurityConfig) -> float:
    """Key bits from `tally` in the infinite-statistics limit: every
    interval at its point estimate, no privacy-amplification penalty."""
    single, leakage, _ = _key_terms(
        tally, decoy_bounds(point_estimates(tally), source), security, source)
    return max(0.0, single - leakage)


def secure_key_length(tally: PulseTally, bounds: DecoyBounds,
                      security: SecurityConfig,
                      source: SourceConfig) -> KeyResult:
    """Extractable secure bits for one window's tally.

    Key bits come from the signal class only; the decoy classes enter through
    `bounds`, which also carries the signal gain and error-rate endpoints.
    Its key is epsilon-secure only when called as `distill` calls it.
    """
    single, leakage, pa = _key_terms(tally, bounds, security, source)
    return KeyResult(max(0, math.floor(single - leakage - pa)), single,
                     leakage, pa, security.epsilon, bounds, tally, source,
                     security)


def distill(tally: PulseTally, source: SourceConfig, security: SecurityConfig,
            interval: Callable[[int, int, float], BinomialBound] | None = None
            ) -> KeyResult:
    """One window's finite-size key, which holds its decoy bounds: the chain
    `estimate_channel` -> `decoy_bounds` -> `secure_key_length`, written once.

    The key is epsilon-secure because the bounds come from the same tally as
    the key, with epsilon split in two: the N_BOUND_CALLS intervals behind
    the bounds fail with epsilon/2 in total, privacy amplification with the
    other epsilon/2.  Each window spends its own epsilon, and the epsilons of
    a session's windows add up (Muller-Quade & Renner, NJP 11, 085006
    (2009)).  `interval` stands in for `clopper_pearson`, as in
    `estimate_channel`.
    """
    bounds = decoy_bounds(estimate_channel(tally, security, interval), source)
    return secure_key_length(tally, bounds, security, source)


_NO_DRIFT = DriftState()


def _expected_counts(n_pulses: float, source: SourceConfig, link: LinkConfig,
                     whole: Callable[[float], float]) -> PulseTally:
    """Expected counts for n_pulses emitted on the drift-free channel, each
    passed through `whole` before the next is derived from it."""
    (q_mu, e_mu), (q_nu1, e_nu1), (q_nu2, e_nu2) = class_rates(
        _NO_DRIFT, source, link)
    sent_mu = whole(n_pulses * source.p_mu)
    sifted_mu = whole(sent_mu * q_mu * SIFTING)
    sent_nu1 = whole(n_pulses * source.p_nu1)
    sifted_nu1 = whole(sent_nu1 * q_nu1 * SIFTING)
    sent_nu2 = whole(n_pulses * source.p_nu2)
    sifted_nu2 = whole(sent_nu2 * q_nu2 * SIFTING)
    return _new(PulseTally, (
        sent_mu, sifted_mu, whole(sifted_mu * e_mu),
        sent_nu1, sifted_nu1, whole(sifted_nu1 * e_nu1),
        sent_nu2, sifted_nu2, whole(sifted_nu2 * e_nu2)))


def asymptotic_rate(source: SourceConfig, link: LinkConfig,
                    security: SecurityConfig) -> float:
    """Secure bits per emitted pulse for an infinitely long session on the
    drift-free channel: the infinite-statistics key of one pulse's exact
    expected counts."""
    return _infinite_key(_expected_counts(1.0, source, link, float), source,
                         security)


def expectation_tally(n_pulses: float, source: SourceConfig,
                      link: LinkConfig) -> PulseTally:
    """Deterministic expected counts for n_pulses emitted on the drift-free
    channel (no sampling), each rounded to a whole count; n_pulses must be
    finite and > 0."""
    if not 0.0 < n_pulses < math.inf:
        raise ValueError(f"n_pulses must be finite and > 0, got {n_pulses}")
    return _expected_counts(n_pulses, source, link, round)


def efficiency_curve(budgets: Iterable[float], source: SourceConfig,
                     link: LinkConfig, security: SecurityConfig) -> list[float]:
    """For each pulse budget, the `KeyResult.efficiency` of the key
    distilled from its expectation tally."""
    return [distill(expectation_tally(n, source, link), source,
                    security).efficiency for n in budgets]
