"""Spans and counts at qkdsim's layer boundaries, recorded from outside.

The benchmark does not edit the program.  It replaces public functions by
timing wrappers in the module namespaces where `qkdsim.session`,
`qkdsim.finite_key`, `qkdsim.optimizer` and `qkdsim.cli` look them up at
call time, and puts the originals back afterwards.  Every wrapped call adds
to its name's call count, total time and the time covered by its wrapped
children, so a layer's self time is its total minus its children's.  Cold
boundaries (one CLI operation, one session, one export, one window, one
optimization) also keep a span each: name, start, end, and the span that
caused it; spans of one benchmark operation share that operation's id.

If a change removes or renames one of the names in `BOUNDARIES`, `patch`
raises, and the layer behind it is no longer traced until this file follows.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from pathlib import Path

# (metric layer name, [module that looks the function up], keep a span per call)
BOUNDARIES = [
    ("session.run_session", ["qkdsim.session"], True),
    ("session.export_timeseries", ["qkdsim.session"], True),
    ("session.distill_window", ["qkdsim.session"], True),
    ("stabilization.step_drift", ["qkdsim.session"], False),
    ("stabilization.stretcher_feedback", ["qkdsim.session"], False),
    ("stabilization.polarization_feedback", ["qkdsim.session"], False),
    ("stabilization.gate_delay_feedback", ["qkdsim.session"], False),
    ("stabilization.intensity_feedback", ["qkdsim.session"], False),
    ("stabilization.apply_controls", ["qkdsim.session"], False),
    ("channel.class_rates", ["qkdsim.session", "qkdsim.finite_key"], False),
    ("channel.sample_tally", ["qkdsim.session"], False),
    ("finite_key.estimate_channel",
     ["qkdsim.session", "qkdsim.finite_key", "qkdsim.optimizer"], False),
    ("finite_key.decoy_bounds",
     ["qkdsim.session", "qkdsim.finite_key", "qkdsim.optimizer"], False),
    ("finite_key.secure_key_length",
     ["qkdsim.session", "qkdsim.finite_key", "qkdsim.optimizer"], False),
    ("finite_key.clopper_pearson", ["qkdsim.finite_key"], False),
    ("optimizer.optimize_source", ["qkdsim.optimizer"], True),
    ("optimizer.objective", ["qkdsim.optimizer"], False),
]
# The forward regularized incomplete beta functions that every
# Clopper-Pearson search evaluates, looked up as `qkdsim.finite_key.special`.
FORWARD = ("betainc", "betaincc")
FEEDBACK = ("stabilization.stretcher_feedback",
            "stabilization.polarization_feedback",
            "stabilization.gate_delay_feedback",
            "stabilization.intensity_feedback",
            "stabilization.apply_controls")


class _CountingModule:
    """Stands in for a module, counting calls to the named functions."""

    def __init__(self, module, names, counter: list):
        self._module = module
        for name in names:
            fn = getattr(module, name)

            def counted(*args, _fn=fn):
                counter[0] += 1
                return _fn(*args)
            setattr(self, name, counted)

    def __getattr__(self, name):
        return getattr(self._module, name)


@contextlib.contextmanager
def patched(replacements):
    """Set (module, attribute, value) triples; restore them on exit."""
    saved = []
    try:
        for module, attr, value in replacements:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def record_clopper_pearson(sink: list):
    """Patch that appends (k, n, eps, lower, upper) of every
    `clopper_pearson` call finite_key makes, for the endpoint check."""
    fk = importlib.import_module("qkdsim.finite_key")
    inner = fk.clopper_pearson

    @functools.wraps(inner)
    def recorded(successes, trials, confidence_epsilon):
        bound = inner(successes, trials, confidence_epsilon)
        sink.append((successes, trials, confidence_epsilon,
                     bound.lower, bound.upper))
        return bound
    return patched([(fk, "clopper_pearson", recorded)])


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, total ns, ns covered by wrapped children]
        self.stats: dict[str, list[int]] = {}
        self.forward = [0]      # betainc/betaincc calls
        self.export_bytes = 0
        self.spans: list[dict] = []
        self.operation = 0
        self._stack: list[list] = []   # [children ns, span id or None]

    def span(self, name: str, fn, keep: bool):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = None
            if keep:
                parent = next((f[1] for f in reversed(stack)
                               if f[1] is not None), None)
                span_id = len(self.spans)
                self.spans.append({"id": span_id, "parent": parent,
                                   "operation": self.operation, "name": name})
            frame = [0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += frame[0]
                if keep:
                    self.spans[span_id].update(start_ns=start, end_ns=end)
        return traced

    def patch(self):
        """Wrap every boundary where it is looked up; restore on exit."""
        replacements = []
        for name, modules, keep in BOUNDARIES:
            attr = name.split(".", 1)[1]
            for module_name in modules:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    raise AttributeError(f"{module_name}.{attr} is gone; "
                                         f"the {name} layer is not traced")
                fn = getattr(module, attr)
                if name == "session.export_timeseries":
                    fn = self._measure_export(fn)
                replacements.append((module, attr, self.span(name, fn, keep)))
        fk = importlib.import_module("qkdsim.finite_key")
        replacements.append((fk, "special",
                             _CountingModule(fk.special, FORWARD, self.forward)))
        return patched(replacements)

    def _measure_export(self, fn):
        @functools.wraps(fn)
        def export(*args, **kwargs):
            paths = fn(*args, **kwargs)
            self.export_bytes += sum(Path(p).stat().st_size for p in paths)
            return paths
        return export

    def _calls(self, name):
        return self.stats.get(name, [0, 0, 0])[0]

    def _total(self, name):
        return self.stats.get(name, [0, 0, 0])[1]

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; a layer the workload never entered reads 0."""
        def ratio(a, b):
            return a / b if b else 0.0

        steps = self._calls("stabilization.step_drift")
        run = self.stats.get("session.run_session", [0, 0, 0])
        cp = self._calls("finite_key.clopper_pearson")
        return {
            "stabilization.step_drift_us": (ratio(
                self._total("stabilization.step_drift"), steps) / 1e3, "us"),
            "stabilization.feedback_us_per_step": (ratio(
                sum(self._total(n) for n in FEEDBACK), steps) / 1e3, "us"),
            "channel.class_rates_us": (ratio(
                self._total("channel.class_rates"),
                self._calls("channel.class_rates")) / 1e3, "us"),
            "channel.sample_tally_us": (ratio(
                self._total("channel.sample_tally"),
                self._calls("channel.sample_tally")) / 1e3, "us"),
            "session.loop_self_us_per_step": (
                ratio(run[1] - run[2], steps) / 1e3, "us"),
            "session.export_s": (ratio(
                self._total("session.export_timeseries"),
                self._calls("session.export_timeseries")) / 1e9, "s"),
            "session.export_mb": (ratio(
                self.export_bytes,
                self._calls("session.export_timeseries")) / 1e6, "MB"),
            "session.distill_window_ms": (ratio(
                self._total("session.distill_window"),
                self._calls("session.distill_window")) / 1e6, "ms"),
            "finite_key.clopper_pearson_us": (ratio(
                self._total("finite_key.clopper_pearson"), cp) / 1e3, "us"),
            "finite_key.secure_key_length_us": (ratio(
                self._total("finite_key.secure_key_length"),
                self._calls("finite_key.secure_key_length")) / 1e3, "us"),
            "finite_key.cp_calls_per_window": (ratio(
                cp, self._calls("finite_key.secure_key_length")), "count"),
            "finite_key.forward_evals_per_cp": (ratio(
                self.forward[0], cp), "count"),
            "optimizer.objective_ms": (ratio(
                self._total("optimizer.objective"),
                self._calls("optimizer.objective")) / 1e6, "ms"),
            "optimizer.objective_calls": (ratio(
                self._calls("optimizer.objective"),
                self._calls("optimizer.optimize_source")), "count"),
        }

    def dump(self) -> dict:
        return {
            "stats": {name: {"calls": c, "total_s": t / 1e9,
                             "self_s": (t - ch) / 1e9}
                      for name, (c, t, ch) in sorted(self.stats.items())},
            "counts": {"forward_evals": self.forward[0],
                       "export_bytes": self.export_bytes},
            "spans": self.spans,
        }
