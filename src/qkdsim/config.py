"""Configuration dataclasses, validation, and the key=value config file format.

The defaults describe a 50 km, GHz-clocked phase-encoded decoy BB84 link:
signal intensity 0.5 photons/pulse with two weak decoys, 0.2 dB/km fiber,
16.5% efficient gated detectors with 9e-6 dark counts per gate, and a
composable security parameter of 1e-7.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Container, Iterator, Mapping, NamedTuple

__all__ = [
    "ConfigError",
    "SourceConfig",
    "LinkConfig",
    "SecurityConfig",
    "SimConfig",
    "ControlConfig",
    "Config",
    "load_config",
    "parse_key_values",
    "read_key_values",
    "read_values",
    "apply_overrides",
    "config_to_text",
    "config_keys",
    "ConfigKey",
    "Count",
    "Range",
    "steps_per",
    "MAX_SESSION_STEPS",
    "MAX_PULSES",
    "DEFAULT_MISALIGNMENT",
]

# Intrinsic optical misalignment chosen so the zero-drift signal QBER of the
# default link is exactly 3.85%.  Recompute with `qkdsim calibrate` if any
# link constant changes; tests assert consistency with fresh calibration.
DEFAULT_MISALIGNMENT = 0.03749724321045597

# numpy draws from a class's per-step sent count as a C long (int64).
_MAX_STEP_PULSES = 2.0 ** 63
# The largest count of one class's pulses that is distilled at once: the
# range the Clopper-Pearson bounds are tested to.
MAX_PULSES = 1e15
# A session given `out` streams its telemetry.  The array that `run_session`
# returns without `out` holds 18 float64 cells per step, so this bounds it
# at 1.44 GB; the 36 h default is 129,600 steps.
MAX_SESSION_STEPS = 10**7
# The texts of a boolean key's values.
_BOOLEANS = {**dict.fromkeys(("true", "1", "yes", "on"), True),
             **dict.fromkeys(("false", "0", "no", "off"), False)}


class Count(int):
    """A declared count: a whole number, read from integral float text too."""

    def __new__(cls, text: str) -> int:   # type: ignore[misc]
        if not (value := float(text)).is_integer():
            raise ValueError(text)
        return int(value)


class ConfigError(ValueError):
    """One or more configuration invariants are violated.

    The message carries one line per violation, naming the offending field
    and the bound it broke.
    """

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(problems))


class Range(NamedTuple):
    """The valid values of a configuration key: finite, from lo to hi, each
    end included where its bracket is square."""

    lo: float
    hi: float
    ends: str   # "[" or "(", then "]" or ")"

    def __contains__(self, value: float) -> bool:
        return ((self.lo <= value if self.ends[0] == "[" else self.lo < value)
                and (value <= self.hi if self.ends[1] == "]"
                     else value < self.hi))

    def __str__(self) -> str:
        if self.hi == math.inf:
            return f"{'>=' if self.ends[0] == '[' else '>'} {self.lo:g}"
        return f"in {self.ends[0]}{self.lo:g}, {self.hi:g}{self.ends[1]}"


def _key(default: Any, unit: str, interval: str) -> Any:
    """The dataclass field of a configuration key: its default, its unit and
    the interval of its valid values, written like "(0, 1]"."""
    lo, hi = interval[1:-1].split(",")
    return field(default=default, metadata={"unit": unit, "range": Range(
        float(lo), float(hi), interval[0] + interval[-1])})


@dataclass(frozen=True)
class SourceConfig:
    """Pulsed source: intensities, send probabilities, clock."""

    # Mean photon numbers: decoy_bounds takes exp(mu) and mu ** 2 of each.
    mu: float = _key(0.5, "photons/pulse", "(0, 100]")       # signal
    nu1: float = _key(0.1, "photons/pulse", "(0, 100]")      # first decoy
    nu2: float = _key(0.0007, "photons/pulse", "[0, 100]")   # near-vacuum
    # send probabilities
    p_mu: float = _key(0.9883, "probability", "(0, 1)")
    p_nu1: float = _key(0.0078, "probability", "(0, 1)")
    p_nu2: float = _key(0.0039, "probability", "(0, 1)")
    # keeps nominal_flux, up to 100 photons a pulse, far from overflow
    clock_rate: float = _key(1e9, "pulses/s", "(0, 1e20]")

    def mean_intensity(self) -> float:
        """Send-probability-weighted mean photons per pulse (monitored flux)."""
        return self.p_mu * self.mu + self.p_nu1 * self.nu1 + self.p_nu2 * self.nu2

    @cached_property
    def nominal_flux(self) -> float:
        """Monitored photons per second at zero drift and nominal
        attenuation, clock_rate * mean_intensity(); computed once, because
        the intensity loop compares against it at every update."""
        return self.clock_rate * self.mean_intensity()


@dataclass(frozen=True)
class LinkConfig:
    """Fiber, detectors, and environmental drift rates."""

    fiber_length: float = _key(50.0, "km", "[0, inf)")
    loss_coefficient: float = _key(0.2, "dB/km", "[0, inf)")
    detector_efficiency: float = _key(0.165, "probability", "[0, 1]")
    dark_count_prob: float = _key(9e-6, "per detector per gate", "[0, 1]")
    num_detectors: int = _key(2, "detectors", "[1, 1000]")
    # baseline optical error
    intrinsic_misalignment_error: float = _key(DEFAULT_MISALIGNMENT,
                                               "probability", "[0, 1]")
    # gate window width: drift_penalties divides by its square
    gate_sigma: float = _key(100.0, "ps", "[0.001, 1e6]")
    # Environmental drift.  step_drift scales each rate by the time step.  In
    # the longest session, MAX_SESSION_STEPS steps of 60 s, these bounds keep
    # every drift finite, the squared timing offset too, and keep the power
    # factor, the exp of a random walk, nine standard deviations inside the
    # +-709 where exp leaves float range.
    phase_diffusion: float = _key(1e-4, "rad^2/s", "[0, 1e6]")  # path length
    polarization_diffusion: float = _key(1e-6, "rad^2/s", "[0, 1e6]")
    # the photons' arrival time: a steady drift plus diffusion
    timing_drift_rate: float = _key(0.05, "ps/s", "[-1e6, 1e6]")
    timing_diffusion: float = _key(0.01, "ps^2/s", "[0, 1e6]")
    # fractional variance of the laser power
    laser_power_diffusion: float = _key(1e-8, "1/s", "[0, 1e-5]")

    def background_yield(self) -> float:
        """Probability at least one detector dark-fires in a gate."""
        return 1.0 - (1.0 - self.dark_count_prob) ** self.num_detectors

    @cached_property
    def zero_drift_detection(self) -> tuple[float, float]:
        """(eta, y0) at zero drift: the probability that a sent photon is
        detected (fiber transmittance times detector efficiency), and
        `background_yield()`.  Computed once, because the channel model
        reads them at every step."""
        from .channel import channel_transmittance   # channel imports config
        return (channel_transmittance(self.loss_coefficient, self.fiber_length)
                * self.detector_efficiency, self.background_yield())


@dataclass(frozen=True)
class SecurityConfig:
    """Composable security budget and distillation cadence."""

    # The total composable failure probability.  secure_key_length takes
    # log2(4 / epsilon); each of the N_BOUND_CALLS = 6 confidence intervals
    # gets epsilon / 12, and each of its two tails epsilon / 24.
    epsilon: float = _key(1e-7, "probability", "[1e-300, 1)")
    # Error-correction inefficiency f: secure_key_length floors f * n * H,
    # and at 10 no key is left.
    ec_efficiency: float = _key(1.15, "x Shannon limit", "[1, 10]")
    distill_interval: float = _key(1200.0, "s", "(0, inf)")  # per window


@dataclass(frozen=True)
class SimConfig:
    """Discrete-time session settings."""

    duration: float = _key(129600.0, "s", "[0, inf)")    # 36 h
    # the per-step statistics cadence, which step_drift scales the drift by
    time_step: float = _key(1.0, "s", "(0, 60]")
    rng_seed: int = _key(1, "integer", "[0, inf)")
    stabilization_enabled: bool = _key(True, "boolean", "[0, 1]")


@dataclass(frozen=True)
class ControlConfig:
    """Feedback-loop step sizes, gains, and cadences."""

    stretcher_step: float = _key(0.04, "rad", "(0, 1]")  # per dither move
    stretcher_interval: float = _key(1.0, "s", "(0, inf)")  # between updates
    epc_step: float = _key(0.02, "rad", "(0, 1]")
    epc_interval: float = _key(5.0, "s", "(0, inf)")
    # moves the timing offset that drift_penalties squares
    gate_step: float = _key(1.0, "ps", "(0, 1e6]")
    gate_interval: float = _key(5.0, "s", "(0, inf)")
    # proportional: each update corrects the flux error times this gain
    intensity_gain: float = _key(1.0, "dB/dB", "(0, 2]")
    intensity_interval: float = _key(1.0, "s", "(0, inf)")


@dataclass(frozen=True)
class Config:
    """Validated bundle of every configurable quantity."""

    source: SourceConfig = SourceConfig()
    link: LinkConfig = LinkConfig()
    security: SecurityConfig = SecurityConfig()
    sim: SimConfig = SimConfig()
    control: ControlConfig = ControlConfig()

    def validated(self) -> "Config":
        """Check every key's type and range (`ConfigKey.check`) and the rules
        that join keys (`rule_problems`); return self unchanged or raise
        ConfigError naming every violation.  A session's counts are checked
        by `session_steps`."""
        problems = [problem for key in _KEYS.values()
                    if (problem := key.check(key.value(self)))]
        problems += self.rule_problems(problems)
        if problems:
            raise ConfigError(problems)
        return self

    def rule_problems(self, problems: list[str]) -> list[str]:
        """Every rule that joins keys, such as `mu must exceed nu1`, that this
        config breaks.  The rules compare numbers: after `problems`, those
        of its values, they are checked only if every value is of its key's
        type, which no problem shows at once."""
        if problems and not all(key.is_typed(key.value(self))
                                for key in _KEYS.values()):
            return []
        source, sim = self.source, self.sim
        broken = []
        if not source.mu > source.nu1:
            broken.append("mu must exceed nu1")
        if not source.nu1 > source.nu2:
            broken.append("nu1 must exceed nu2")
        if abs(source.p_mu + source.p_nu1 + source.p_nu2 - 1.0) > 1e-12:
            broken.append("probabilities must sum to 1 (tolerance 1e-12)")
        if 0 < sim.duration < sim.time_step:
            broken.append("duration must be >= time_step")
        return broken

    def session_steps(self) -> int:
        """The time steps of a session of this validated config: duration /
        time_step, a trailing fraction of a step dropped.  Raises ConfigError
        naming every count the session makes an integer of and cannot hold:
        steps per session and per interval, sent pulses per class and step,
        and per class and distillation window."""
        source, dt = self.source, self.sim.time_step
        # the duration, the distillation window and the loop cadences
        out = [f"{key.name} / time_step must be finite"
               for key in _KEYS.values()
               if key.unit == "s" and key.name != "time_step"
               and not math.isfinite(key.value(self) / dt)]
        if out:
            raise ConfigError(out)
        ratio = self.sim.duration / dt
        steps = int(ratio + 1e-9) if ratio >= 0 else -1
        if not 0 <= steps <= MAX_SESSION_STEPS:
            out.append(f"duration / time_step = {ratio:.9g} steps; must "
                       f"lie in [0, {MAX_SESSION_STEPS:,}]")
        window = steps_per(self.security.distill_interval, dt) * dt
        for cls in ("mu", "nu1", "nu2"):
            p = getattr(source, f"p_{cls}")
            per_step = source.clock_rate * dt * p
            per_window = source.clock_rate * window * p
            if not per_step < _MAX_STEP_PULSES:
                out.append(f"clock_rate * time_step * p_{cls} = {per_step:.3g} "
                           f"pulses of class {cls} per step; must be < 2**63")
            elif not per_window >= 1.0:
                out.append(f"clock_rate * distill_interval * p_{cls} = "
                           f"{per_window:.3g}: class {cls} gets no pulses in a "
                           f"distillation window; must be >= 1")
            elif per_window > MAX_PULSES:
                out.append(f"clock_rate * distill_interval * p_{cls} = "
                           f"{per_window:.3g} pulses of class {cls} per "
                           f"distillation window; must be <= {MAX_PULSES:g}")
        if out:
            raise ConfigError(out)
        return steps


class ConfigKey(NamedTuple):
    """One declared input: a configuration key, as its dataclass field
    declares it, or a command's flag or a tally file's count, read alike."""

    name: str
    default: Any
    type: type
    unit: str
    range: Range
    section: str = ""   # the attribute of its section on Config, if a key

    def value(self, config: Config) -> Any:
        return getattr(getattr(config, self.section), self.name)

    def is_typed(self, value: Any) -> bool:
        """Whether `value` is of the declared type: a bool for a boolean key
        alone, any other real for a float key."""
        return (isinstance(value, numbers.Real if self.type is float
                           else numbers.Integral)
                and isinstance(value, bool) == (self.type is bool))

    def check(self, value: Any) -> str | None:
        """The message that rejects `value` of another type than declared
        (`is_typed`) or out of range."""
        if not self.is_typed(value):
            kind = {bool: "a boolean", int: "an integer",
                    Count: "a whole number"}.get(self.type, "a number")
            return f"{self.name} must be {kind}, got {value!r}"
        if value in self.range:
            return None
        finite = ("finite and " if value != value
                  or value in (math.inf, -math.inf) else "")
        return (f"{self.name} must be {finite}{self.range} ({self.unit}), "
                f"got {value!r}")


_KEYS = {f.name: ConfigKey(f.name, f.default, type(f.default),
                           f.metadata["unit"], f.metadata["range"],
                           section.name)
         for section in fields(Config) for f in fields(section.default)}


def config_keys() -> Iterator[ConfigKey]:
    """Every configuration key, section by section."""
    return iter(_KEYS.values())


def steps_per(interval: float, dt: float) -> int:
    """Whole time steps in `interval`, at least one."""
    return max(1, int(round(interval / dt)))


# ---------------------------------------------------------------------------
# Flat key=value configuration file support.
# ---------------------------------------------------------------------------

def read_values(texts: Mapping[str, Any], keys: Mapping[str, ConfigKey],
                problems: list[str], where: str = "") -> dict[str, Any]:
    """Each text's value, parsed by its key in `keys`; a malformed one stays
    text, which no key takes.  Adds to `problems`, each after `where`, every
    unknown key and every value of another type or out of range
    (`ConfigKey.check`)."""
    values: dict[str, Any] = {}
    for name, text in texts.items():
        if name not in keys:
            problems.append(f"{where}unknown configuration key: {name}")
            continue
        key, text = keys[name], str(text).strip()
        try:
            value = (_BOOLEANS[text.lower()] if key.type is bool
                     else key.type(text))
        except (KeyError, ValueError):
            value = text
        if problem := key.check(value):
            problems.append(where + problem)
        values[name] = value
    return values


def apply_overrides(config: Config, overrides: Mapping[str, Any],
                    problems: list[str], where: str = "") -> Config:
    """Layer key -> value-text overrides onto a Config, each as `read_values`
    reads it, which adds their problems to `problems` after `where`."""
    for name, value in read_values(overrides, _KEYS, problems, where).items():
        section = _KEYS[name].section
        config = replace(config, **{section: replace(getattr(config, section),
                                                     **{name: value})})
    return config


def parse_key_values(text: str, path: str, keys: Container[str],
                     problems: list[str]) -> dict[str, str]:
    """Parse the flat key = value format of config and tally files: `#`
    starts a comment, blank lines are skipped, and every other line is
    `key = value` with a key from `keys`.  Returns key -> value text of the
    good lines, and appends to `problems` every line without `=`, unknown
    key and repeated key, named as path:line:, so that a caller can name
    them beside its other problems."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, equals, raw = stripped.partition("=")
        key = key.strip()
        where = f"{path}:{lineno}"
        if not equals:
            problems.append(f"{where}: expected key = value, got {stripped!r}")
        elif key not in keys:
            problems.append(f"{where}: unknown key {key!r}")
        elif key in values:
            problems.append(f"{where}: repeated key {key!r}")
        else:
            values[key] = raw.strip()
    return values


def _read_utf8(path: str | Path) -> str:
    """A file's UTF-8 text, which may begin with a byte-order mark; OSError
    if it cannot be read or is not UTF-8 text."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path} is not UTF-8 text: {exc}") from None


def read_key_values(path: str | Path, keys: Container[str],
                    problems: list[str]) -> dict[str, str]:
    """`parse_key_values` of a file of UTF-8 text (`_read_utf8`)."""
    return parse_key_values(_read_utf8(path), str(path), keys, problems)


def load_config(path: str | Path | None, overrides: Mapping[str, Any],
                problems: list[str]) -> Config:
    """The defaults, then a config file's values if `path` is given, then
    key -> value-text `overrides` (the key flags); all keys optional.  Adds
    to `problems` every bad line of the file, every bad value, a file's
    after its path, and, once every line of the file is read (a refused
    line's key keeps its earlier value) and every value is of its key's
    type, every broken rule that joins keys.  OSError if the file cannot be
    read or is not UTF-8 text (`_read_utf8`)."""
    config, refused = Config(), []   # the file's refused lines
    if path is not None:
        texts = read_key_values(path, _KEYS, refused)
        problems += refused
        config = apply_overrides(config, texts, problems, f"{path}: ")
    config = apply_overrides(config, overrides, problems)
    if not refused:
        problems += config.rule_problems(problems)
    return config


def config_to_text(config: Config) -> str:
    """Serialize a Config as a flat key=value file round-trippable by the parser."""
    lines = []
    for section in fields(config):
        lines.append(f"# {section.name}")
        obj = getattr(config, section.name)
        for f in fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, bool):
                rendered = "true" if value else "false"
            elif isinstance(value, numbers.Integral):
                rendered = str(value)
            else:
                rendered = repr(float(value))
            lines.append(f"{f.name} = {rendered}")
        lines.append("")
    return "\n".join(lines)
