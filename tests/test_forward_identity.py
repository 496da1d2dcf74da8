"""`finite_key` evaluates its tails through scipy's `cython_special` scalar
entry points.  The oracle tests and the benchmark's endpoint check judge the
endpoints with `scipy.special`'s ufuncs, so an endpoint is conservative by
their forward function only while the two agree bit for bit wherever the
search evaluates them."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special

from qkdsim import finite_key
from qkdsim.cli import main

def _assert_bitwise_equal(name, points):
    """The entry point finite_key uses and the ufunc agree on every point,
    bit for bit, with any NaN matching any NaN."""
    entry = getattr(finite_key.special, name)
    fast = np.array([entry(*args) for args in points], dtype=np.float64)
    ufunc = getattr(special, name)(*np.array(points, dtype=np.float64).T)
    same = ((fast.view(np.int64) == ufunc.view(np.int64))
            | (np.isnan(fast) & np.isnan(ufunc)))
    if not same.all():
        i = int(np.argmin(same))
        pytest.fail(f"{name}{points[i]}: {fast[i]!r} != ufunc {ufunc[i]!r}")


class _Recorder:
    """Stands in for finite_key.special, recording each forward call."""

    def __init__(self, module):
        self._module = module
        self.calls = {name: [] for name in ("betainc", "betaincc", "ndtri")}

    def __getattr__(self, name):
        fn = getattr(self._module, name)
        if name not in self.calls:
            return fn

        def recorded(*args):
            self.calls[name].append(args)
            return fn(*args)
        return recorded


def test_entry_points_match_ufuncs_on_the_program_evaluations(tmp_path,
                                                              monkeypatch):
    recorder = _Recorder(finite_key.special)
    monkeypatch.setattr(finite_key, "special", recorder)
    finite_key._target_constants.cache_clear()   # so ndtri is called again
    # a search bounds only the two points it certifies: the curve's grid
    # gives the tails most of their evaluations
    for argv in (["keyrate", "--n-pulses", "1.2e12"],
                 ["optimize", "--sweeps", "1"],
                 ["efficiency-curve", "--points", "50"]):
        assert main([*argv, "--out", str(tmp_path)]) == 0
    monkeypatch.undo()
    finite_key._target_constants.cache_clear()
    assert len(recorder.calls["betainc"]) > 1000
    assert len(recorder.calls["betaincc"]) > 1000
    assert recorder.calls["ndtri"]
    for name, points in recorder.calls.items():
        _assert_bitwise_equal(name, points)


def test_searches_call_the_specialization_the_entry_point_picks(tmp_path,
                                                               monkeypatch):
    # the searches skip the fused entry point's dispatch on argument types;
    # the double specialization they call gives the entry point's bits
    recorder = _Recorder(finite_key.special)
    monkeypatch.setattr(finite_key, "special", recorder)
    assert main(["efficiency-curve", "--points", "20",
                 "--out", str(tmp_path)]) == 0
    monkeypatch.undo()
    for name in ("betainc", "betaincc"):
        entry = getattr(finite_key.special, name)
        double = finite_key._DOUBLE[entry]
        assert double is entry.__signatures__["double"]
        points = recorder.calls[name]
        assert len(points) > 100
        fast = np.array([double(*args) for args in points])
        picked = np.array([entry(*args) for args in points])
        assert (fast.view(np.int64) == picked.view(np.int64)).all(), name


@st.composite
def _interval_inputs(draw):
    """(k, n, epsilon): n log-uniform in [1, 1e16], k in [0, n], epsilon
    log-uniform in [1e-15, 0.5]."""
    n = int(10 ** draw(st.floats(0, 16)))
    k = draw(st.integers(0, n))
    eps = 10 ** draw(st.floats(-15, math.log10(0.5)))
    return k, n, eps


def _around(a, b, x, estimate):
    """(a, b, y) at x, its neighbouring floats and the estimate k/n."""
    return [(a, b, y) for y in (x, math.nextafter(x, 0.0),
                                math.nextafter(x, 1.0), estimate)]


@given(_interval_inputs())
@settings(max_examples=300, deadline=None)
@example((5 * 10**15, 10**16, 1e-10))   # the upper tail at k/n is NaN
def test_entry_points_match_ufuncs_around_endpoints(inputs):
    # each endpoint, its neighbouring floats and k/n, where the search
    # decides pass or fail; n reaches 1e16, where the tails can be NaN
    k, n, eps = inputs
    bound = finite_key.clopper_pearson(k, n, eps)
    _assert_bitwise_equal("ndtri", [(eps / 2,)])
    if k > 0:
        _assert_bitwise_equal("betainc", _around(float(k), float(n - k + 1),
                                                 bound.lower, k / n))
    if k < n:
        _assert_bitwise_equal("betaincc", _around(float(k + 1), float(n - k),
                                                  bound.upper, k / n))
