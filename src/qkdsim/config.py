"""Configuration dataclasses, validation, and the key=value config file format.

The defaults describe a 50 km, GHz-clocked phase-encoded decoy BB84 link:
signal intensity 0.5 photons/pulse with two weak decoys, 0.2 dB/km fiber,
16.5% efficient gated detectors with 9e-6 dark counts per gate, and a
composable security parameter of 1e-7.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Container, Iterator

__all__ = [
    "ConfigError",
    "SourceConfig",
    "LinkConfig",
    "SecurityConfig",
    "SimConfig",
    "ControlConfig",
    "Config",
    "load_config_file",
    "parse_config_text",
    "parse_key_values",
    "read_key_values",
    "apply_overrides",
    "config_to_text",
    "config_keys",
    "steps_per",
    "session_steps",
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
# A session keeps 18 float64 telemetry cells per step, so this bounds its
# telemetry at 1.44 GB; the 36 h default is 129,600 steps.
MAX_SESSION_STEPS = 10**7
_CADENCES = ("stretcher_interval", "epc_interval", "gate_interval",
             "intensity_interval")


class ConfigError(ValueError):
    """One or more configuration invariants are violated.

    The message carries one line per violation, naming the offending field
    and the bound it broke.
    """

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(problems))


@dataclass(frozen=True)
class SourceConfig:
    """Pulsed source: intensities, send probabilities, clock."""

    mu: float = 0.5            # signal mean photon number, photons/pulse
    nu1: float = 0.1           # first decoy mean photon number
    nu2: float = 0.0007        # second (near-vacuum) decoy mean photon number
    p_mu: float = 0.9883       # signal send probability
    p_nu1: float = 0.0078      # first decoy send probability
    p_nu2: float = 0.0039      # second decoy send probability
    clock_rate: float = 1e9    # pulses per second

    def mean_intensity(self) -> float:
        """Send-probability-weighted mean photons per pulse (monitored flux)."""
        return self.p_mu * self.mu + self.p_nu1 * self.nu1 + self.p_nu2 * self.nu2

    @cached_property
    def nominal_flux(self) -> float:
        """Monitored photons per second at zero drift and nominal
        attenuation, clock_rate * mean_intensity(); computed once, because
        the intensity loop compares against it at every update."""
        return self.clock_rate * self.mean_intensity()

    def _problems(self) -> list[str]:
        out = []
        if not self.mu > self.nu1:
            out.append("mu must exceed nu1")
        if not self.nu1 > self.nu2:
            out.append("nu1 must exceed nu2")
        if not self.nu2 >= 0:
            out.append("nu2 must be >= 0")
        for name in ("p_mu", "p_nu1", "p_nu2"):
            v = getattr(self, name)
            if not 0 < v < 1:
                out.append(f"{name} must lie in (0, 1)")
        if abs(self.p_mu + self.p_nu1 + self.p_nu2 - 1.0) > 1e-12:
            out.append("probabilities must sum to 1 (tolerance 1e-12)")
        if not 0 < self.clock_rate < math.inf:
            out.append("clock_rate must be finite and > 0")
        return out


@dataclass(frozen=True)
class LinkConfig:
    """Fiber, detectors, and environmental drift rates."""

    fiber_length: float = 50.0            # km
    loss_coefficient: float = 0.2         # dB/km
    detector_efficiency: float = 0.165    # probability
    dark_count_prob: float = 9e-6         # per detector per gate
    num_detectors: int = 2
    intrinsic_misalignment_error: float = DEFAULT_MISALIGNMENT  # baseline optical error
    gate_sigma: float = 100.0             # detector gate window width, ps
    phase_diffusion: float = 1e-4         # rad^2/s, interferometer path drift
    polarization_diffusion: float = 1e-6  # rad^2/s, channel polarization drift
    timing_drift_rate: float = 0.05       # ps/s, deterministic arrival-time drift
    timing_diffusion: float = 0.01        # ps^2/s
    laser_power_diffusion: float = 1e-8   # fractional variance per second

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

    def _problems(self) -> list[str]:
        out = []
        for name in ("detector_efficiency", "dark_count_prob",
                     "intrinsic_misalignment_error"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                out.append(f"{name} must lie in [0, 1]")
        if not self.loss_coefficient >= 0:
            out.append("loss_coefficient must be >= 0")
        if not self.fiber_length >= 0:
            out.append("fiber_length must be >= 0")
        if not self.num_detectors >= 1:
            out.append("num_detectors must be >= 1")
        if not self.gate_sigma > 0:
            out.append("gate_sigma must be > 0")
        for name in ("phase_diffusion", "polarization_diffusion",
                     "timing_diffusion", "laser_power_diffusion"):
            if not getattr(self, name) >= 0:
                out.append(f"{name} must be >= 0")
        if not math.isfinite(self.timing_drift_rate):
            out.append("timing_drift_rate must be finite")
        return out


@dataclass(frozen=True)
class SecurityConfig:
    """Composable security budget and distillation cadence."""

    epsilon: float = 1e-7        # total composable failure probability
    ec_efficiency: float = 1.15  # error-correction inefficiency factor f >= 1
    distill_interval: float = 1200.0  # seconds per distillation window

    def _problems(self) -> list[str]:
        out = []
        if not 0 < self.epsilon < 1:
            out.append("epsilon must lie in (0, 1)")
        if not self.ec_efficiency >= 1:
            out.append("ec_efficiency must be >= 1")
        if not 0 < self.distill_interval < math.inf:
            out.append("distill_interval must be finite and > 0")
        return out


@dataclass(frozen=True)
class SimConfig:
    """Discrete-time session settings."""

    duration: float = 129600.0    # seconds (36 h)
    time_step: float = 1.0        # seconds; per-step statistics cadence
    rng_seed: int = 1
    stabilization_enabled: bool = True

    def _problems(self) -> list[str]:
        out = []
        if not 0 < self.time_step < math.inf:
            out.append("time_step must be finite and > 0")
        if not 0 <= self.duration < math.inf:
            out.append("duration must be finite and >= 0")
        if 0 < self.duration < self.time_step:
            out.append("duration must be >= time_step")
        if not self.rng_seed >= 0:
            out.append("rng_seed must be >= 0")
        return out


@dataclass(frozen=True)
class ControlConfig:
    """Feedback-loop step sizes, gains, and cadences."""

    stretcher_step: float = 0.04     # rad-equivalent per dither move
    stretcher_interval: float = 1.0  # seconds between updates
    epc_step: float = 0.02           # rad-equivalent per channel move
    epc_interval: float = 5.0
    gate_step: float = 1.0           # ps per dither move
    gate_interval: float = 5.0
    intensity_gain: float = 1.0      # proportional loop gain
    intensity_interval: float = 1.0

    def _problems(self) -> list[str]:
        out = []
        for name in ("stretcher_step", "epc_step", "gate_step"):
            if not getattr(self, name) > 0:
                out.append(f"{name} must be > 0")
        for name in _CADENCES:
            if not 0 < getattr(self, name) < math.inf:
                out.append(f"{name} must be finite and > 0")
        if not 0 < self.intensity_gain <= 2:
            out.append("intensity_gain must lie in (0, 2]")
        return out


@dataclass(frozen=True)
class Config:
    """Validated bundle of every configurable quantity."""

    source: SourceConfig = SourceConfig()
    link: LinkConfig = LinkConfig()
    security: SecurityConfig = SecurityConfig()
    sim: SimConfig = SimConfig()
    control: ControlConfig = ControlConfig()

    def validated(self) -> "Config":
        """Check every invariant; return self unchanged or raise ConfigError
        naming every violation.  The step counts are checked only once each
        section is valid on its own."""
        problems = [problem for section in fields(self)
                    for problem in getattr(self, section.name)._problems()]
        problems = problems or self._step_problems()
        if problems:
            raise ConfigError(problems)
        return self

    def _step_problems(self) -> list[str]:
        """Counts the session makes integers of: steps per interval, sent
        pulses per class and step, and per class and distillation window."""
        source, dt = self.source, self.sim.time_step
        intervals = {"duration": self.sim.duration,
                     "distill_interval": self.security.distill_interval,
                     **{name: getattr(self.control, name) for name in _CADENCES}}
        out = [f"{name} / time_step must be finite"
               for name, value in intervals.items()
               if not math.isfinite(value / dt)]
        if out:
            return out
        try:
            session_steps(self.sim.duration, dt)
        except ConfigError as exc:
            out.extend(exc.problems)
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
        return out


def steps_per(interval: float, dt: float) -> int:
    """Whole time steps in `interval`, at least one."""
    return max(1, int(round(interval / dt)))


def session_steps(duration: float, dt: float) -> int:
    """Whole time steps in a session of `duration`, a trailing fraction of a
    step dropped; ConfigError unless that is 0 to MAX_SESSION_STEPS."""
    ratio = duration / dt
    steps = int(ratio + 1e-9) if 0 <= ratio < math.inf else -1
    if not 0 <= steps <= MAX_SESSION_STEPS:
        raise ConfigError([f"duration / time_step = {ratio:.9g} steps; must "
                           f"lie in [0, {MAX_SESSION_STEPS:,}]"])
    return steps


# ---------------------------------------------------------------------------
# Flat key=value configuration file support.
# ---------------------------------------------------------------------------

# section attr on Config -> its dataclass
_SECTIONS = {f.name: type(f.default) for f in fields(Config)}

# key -> (section attr on Config, field name, python type)
_KEYS: dict[str, tuple[str, str, type]] = {}
for _section, _cls in _SECTIONS.items():
    for _f in fields(_cls):
        _KEYS[_f.name] = (_section, _f.name, _f.type if isinstance(_f.type, type)
                          else {"float": float, "int": int, "bool": bool}[_f.type])


def config_keys() -> Iterator[tuple[str, Any, type]]:
    """Yield (key, default value, type) for every configuration key."""
    defaults = Config()
    for key, (section, name, typ) in _KEYS.items():
        yield key, getattr(getattr(defaults, section), name), typ


def _coerce(key: str, raw: str) -> Any:
    _, _, typ = _KEYS[key]
    raw = raw.strip()
    if typ is bool:
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError([f"{key} must be a boolean, got {raw!r}"])
    try:
        return typ(raw)
    except ValueError:
        kind = "an integer" if typ is int else "a number"
        raise ConfigError([f"{key} must be {kind}, got {raw!r}"]) from None


def apply_overrides(config: Config, overrides: dict[str, Any]) -> Config:
    """Layer key -> value overrides onto a Config; unknown keys are an error.
    Each value is parsed from its text, as a config file line would be."""
    unknown = sorted(set(overrides) - set(_KEYS))
    if unknown:
        raise ConfigError([f"unknown configuration key: {k}" for k in unknown])
    per_section: dict[str, dict[str, Any]] = {}
    for key, value in overrides.items():
        section, name, _ = _KEYS[key]
        per_section.setdefault(section, {})[name] = _coerce(key, str(value))
    for section, kv in per_section.items():
        config = replace(config, **{section: replace(getattr(config, section), **kv)})
    return config


def parse_key_values(text: str, path: str,
                     keys: Container[str]) -> dict[str, str]:
    """Parse the flat key = value format of config and tally files: `#`
    starts a comment, blank lines are skipped, and every other line is
    `key = value` with a key from `keys`.  Returns key -> value text; raises
    ConfigError naming, as path:line, every line without `=`, unknown key
    and repeated key."""
    values: dict[str, str] = {}
    problems: list[str] = []
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
    if problems:
        raise ConfigError(problems)
    return values


def read_key_values(path: str | Path, keys: Container[str]) -> dict[str, str]:
    """`parse_key_values` of a file; OSError if it cannot be read or is not
    UTF-8 text."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_key_values(text, str(path), keys)


def parse_config_text(text: str, path: str = "<config>") -> Config:
    """Parse a flat key=value file body. All keys optional; unknown keys error."""
    return apply_overrides(Config(), parse_key_values(text, path, _KEYS))


def load_config_file(path: str | Path) -> Config:
    return apply_overrides(Config(), read_key_values(path, _KEYS))


def config_to_text(config: Config) -> str:
    """Serialize a Config as a flat key=value file round-trippable by the parser."""
    lines = []
    for section, cls in _SECTIONS.items():
        lines.append(f"# {section}")
        obj = getattr(config, section)
        for f in fields(cls):
            value = getattr(obj, f.name)
            if isinstance(value, bool):
                rendered = "true" if value else "false"
            elif isinstance(value, int):
                rendered = str(value)
            else:
                rendered = repr(float(value))
            lines.append(f"{f.name} = {rendered}")
        lines.append("")
    return "\n".join(lines)
