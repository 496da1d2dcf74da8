"""The Clopper-Pearson endpoint search makes the same forward evaluations,
in the same order, and returns the same floats as the reference search
below, a verbatim copy of the search that converted floats to bit patterns
with `struct` and looked its constants up on every call.  Its bookkeeping
can be made cheaper, but its probes are part of the program's output: the
endpoints, and so every key length, follow from them."""
import math
import struct

from hypothesis import example, given, settings, strategies as st
from scipy.special import cython_special

from qkdsim import finite_key
from qkdsim.finite_key import _target_constants

_DOUBLE = struct.Struct("<d")
_INT64 = struct.Struct("<q")


def _reference_tail_endpoint(forward, a, b, estimate, guess, edge, target):
    pack_d, unpack_d = _DOUBLE.pack, _DOUBLE.unpack
    pack_q, unpack_q = _INT64.pack, _INT64.unpack
    log, sqrt, inf = math.log, math.sqrt, math.inf
    _, w_target, h_half = _target_constants(target)
    w2 = w_target * w_target
    edge_bits = unpack_q(pack_d(edge))[0]
    inside, h_in = unpack_q(pack_d(estimate))[0], h_half
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
                probe = unpack_q(pack_d(x))[0]
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
            x = unpack_d(pack_q(probe))[0]
        t = forward(a, b, x)
        # t's excess sqrt(-2 ln t) - sqrt(-2 ln target), formed from
        # ln(t / target) as _tail_endpoint computes it: +inf at t = 0, -inf
        # for a NaN
        if t > 0.0:
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
    return unpack_d(pack_q(outside))[0]


class _Recorder:
    """Stands in for scipy's cython_special, recording each forward call as
    (name, a, b, x.hex())."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return getattr(cython_special, name)

    def betainc(self, a, b, x):
        self.calls.append(("betainc", a, b, x.hex()))
        return cython_special.betainc(a, b, x)

    def betaincc(self, a, b, x):
        self.calls.append(("betaincc", a, b, x.hex()))
        return cython_special.betaincc(a, b, x)


def _reference_guesses(k, n, eps):
    """The Wilson score endpoints that the reference search starts from."""
    z = _target_constants(eps / 2.0)[0]
    z2 = z * z
    center = (k + z2 / 2.0) / (n + z2)
    width = z * math.sqrt(k * (n - k) / n + z2 / 4.0) / (n + z2)
    return center - width, center + width


def _reference_interval(k, n, eps, special):
    """The endpoints that `clopper_pearson` searches for, from the same
    Wilson first guesses, by the reference search."""
    half = eps / 2.0
    estimate = k / n
    guess_lower, guess_upper = _reference_guesses(k, n, eps)
    lower = 0.0 if k == 0 else _reference_tail_endpoint(
        special.betainc, float(k), float(n - k + 1), estimate, guess_lower,
        0.0, half)
    upper = 1.0 if k == n else _reference_tail_endpoint(
        special.betaincc, float(k + 1), float(n - k), estimate, guess_upper,
        1.0, half)
    return lower, upper


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
# the inputs of test_clopper_pearson_endpoint_contract, one for each way the
# search moves: the extrapolated bracket step, the quarter-shrink fallback,
# and bisection after a one-sided streak
@example((2229, 3710, 8.261915855494622e-14))
@example((162, 181, 1.693139579212024e-13))
@example((1379, 3060, 1.0578765005006704e-05))
# counts of the size the program distills
@example((4_882_000_000_000, 1_185_960_000_000_000, 1e-7 / 12))
@example((1000, 1_000_000_000, 1e-7 / 12))
def test_endpoint_search_replays_the_reference_probes(inputs):
    k, n, eps = inputs
    reference = _Recorder()
    expected = _reference_interval(k, n, eps, reference)
    recorder = _Recorder()
    special, finite_key.special = finite_key.special, recorder
    try:
        bound = finite_key.clopper_pearson(k, n, eps)
    finally:
        finite_key.special = special
    assert recorder.calls == reference.calls
    assert (bound.lower.hex(), bound.upper.hex()) == tuple(
        x.hex() for x in expected)
    # the optimizer ranks on the interval that the search starts from
    guesses = finite_key.wilson_interval(k, n, eps)
    assert (guesses.lower.hex(), guesses.upper.hex()) == tuple(
        x.hex() for x in _reference_guesses(k, n, eps))
