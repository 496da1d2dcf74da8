import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from qkdsim.config import (MAX_PULSES, MAX_SESSION_STEPS, Config, ConfigError,
                           ControlConfig, LinkConfig, Range, SecurityConfig,
                           SimConfig, SourceConfig, apply_overrides,
                           config_keys, config_to_text, load_config,
                           read_key_values)
from qkdsim.optimizer import MU_BOUNDS
from qkdsim.session import run_session


def test_preset_passes_validation():
    cfg = Config(SourceConfig(), LinkConfig(), SecurityConfig(),
                 SimConfig()).validated()
    source, link, security = cfg.source, cfg.link, cfg.security
    assert source.mu == 0.5
    assert source.nu1 == 0.1
    assert source.nu2 == 0.0007
    assert (source.p_mu, source.p_nu1, source.p_nu2) == (0.9883, 0.0078, 0.0039)
    assert link.loss_coefficient == 0.2
    assert link.fiber_length == 50.0
    assert link.detector_efficiency == 0.165
    assert link.dark_count_prob == 9e-6
    assert security.epsilon == 1e-7


def test_validation_is_idempotent():
    bundle = Config(SourceConfig(), LinkConfig(), SecurityConfig(), SimConfig())
    once = bundle.validated()
    twice = once.validated()
    assert once == twice == bundle


def test_intensity_ordering_violation():
    with pytest.raises(ConfigError, match="mu must exceed nu1"):
        Config(SourceConfig(mu=0.1, nu1=0.5),
               LinkConfig(), SecurityConfig(), SimConfig()).validated()


def test_probability_normalization_violation():
    with pytest.raises(ConfigError, match="probabilities must sum to 1"):
        Config(SourceConfig(p_mu=0.5, p_nu1=0.5, p_nu2=0.5),
               LinkConfig(), SecurityConfig(), SimConfig()).validated()


def test_one_diagnostic_per_violation():
    with pytest.raises(ConfigError) as exc:
        Config(SourceConfig(mu=0.1, nu1=0.5, p_mu=1.5),
               LinkConfig(loss_coefficient=-1),
               SecurityConfig(epsilon=2.0), SimConfig(),
               ControlConfig(intensity_gain=3.0)).validated()
    problems = exc.value.problems
    assert any("mu must exceed nu1" in p for p in problems)
    assert any("p_mu" in p for p in problems)
    assert any("loss_coefficient" in p for p in problems)
    assert any("epsilon" in p for p in problems)
    assert any("intensity_gain" in p for p in problems)


def test_rules_are_judged_on_typed_values_alone():
    # a value of another type than its key's leaves no rule to compare
    assert Config(source=SourceConfig(mu="x")).rule_problems() == []
    assert Config(source=SourceConfig(mu=0.05)).rule_problems() == [
        "mu must exceed nu1"]


def _session(duration: float, time_step: float = 1.0) -> Config:
    return Config(sim=SimConfig(duration=duration, time_step=time_step))


def test_session_step_limit():
    # a command that runs no session accepts what only a session cannot hold
    longest = _session(MAX_SESSION_STEPS * 0.5, time_step=0.5)
    assert longest.session_steps() == MAX_SESSION_STEPS
    too_long = _session((MAX_SESSION_STEPS + 1) * 0.5, time_step=0.5)
    assert too_long.validated() is too_long
    with pytest.raises(ConfigError, match="duration / time_step"):
        run_session(too_long)
    assert _session(129600.0).session_steps() == 129600
    assert _session(0.0).session_steps() == 0
    for duration in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            _session(duration).session_steps()


def test_window_pulse_limit():
    # the clock rate that sends MAX_PULSES signal pulses per window
    window = SecurityConfig().distill_interval
    at_limit = MAX_PULSES / (window * SourceConfig().p_mu)
    fastest = Config(source=SourceConfig(clock_rate=at_limit * (1 - 1e-9)))
    assert fastest.validated().session_steps() == 129600
    too_fast = Config(source=SourceConfig(clock_rate=at_limit * (1 + 1e-9)))
    assert too_fast.validated() is too_fast
    with pytest.raises(ConfigError, match="class mu per distillation window"):
        run_session(too_fast)


def test_background_yield_counts_both_detectors():
    link = LinkConfig()
    assert link.background_yield() == pytest.approx(1 - (1 - 9e-6) ** 2)


def test_derived_constants_follow_the_configuration():
    # computed once per configuration object; a replaced one computes its own
    from qkdsim.channel import channel_transmittance
    for link in (LinkConfig(), LinkConfig(fiber_length=100.0, num_detectors=4)):
        link.zero_drift_detection
        for other in (link, dataclasses.replace(link, fiber_length=25.0,
                                                dark_count_prob=1e-5)):
            assert other.zero_drift_detection == (
                channel_transmittance(other.loss_coefficient, other.fiber_length)
                * other.detector_efficiency, other.background_yield())
    source = SourceConfig()
    assert source.nominal_flux == source.clock_rate * source.mean_intensity()
    faster = dataclasses.replace(source, clock_rate=2e9)
    assert faster.nominal_flux == 2e9 * source.mean_intensity()
    # the cache is not a field: equality, hashing and the file format ignore it
    assert source == SourceConfig() and hash(source) == hash(SourceConfig())
    assert config_to_text(Config(source=source)) == config_to_text(Config())


def _loaded(text: str, problems: list[str]) -> tuple[Path, Config]:
    """The path of a config file of `text`, written in a temporary directory
    of its own (a Hypothesis test runs many examples in one function
    scope), and `load_config` of it."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "link.cfg"
        path.write_text(text, encoding="utf-8")
        return path, load_config(path, {}, problems)


def _parsed(text):
    """`load_config` of a config file of `text` that has no problem."""
    problems: list[str] = []
    config = _loaded(text, problems)[1]
    assert problems == []
    return config


def test_config_file_round_trip():
    cfg = Config().validated()
    text = config_to_text(cfg)
    assert _parsed(text) == cfg


def _declared_value(key) -> st.SearchStrategy:
    """A value of `key`'s declared type inside its declared range."""
    lo, hi, ends = key.range
    if key.type is bool:
        return st.booleans()
    if key.type is int:
        return st.integers(int(lo), int(min(hi, 2**63 - 1)))
    top = None if hi == math.inf else hi
    return st.floats(lo, top, exclude_min=ends[0] == "(",
                     exclude_max=top is not None and ends[1] == ")",
                     allow_nan=False, allow_infinity=False)


def _with(config: Config, **values) -> Config:
    """`config` with the given keys set, whatever their sections."""
    keys = {key.name: key for key in config_keys()}
    for name, value in values.items():
        section = keys[name].section
        config = dataclasses.replace(config, **{section: dataclasses.replace(
            getattr(config, section), **{name: value})})
    return config


@st.composite
def _valid_configs(draw) -> Config:
    """A config of every key drawn from its declaration, sometimes as numpy's
    type of it, and kept if validation accepts it.  The intensities are
    ordered and the send probabilities scaled to sum to 1, so that the rules
    that join keys mostly hold."""
    values = {key.name: draw(_declared_value(key)) for key in config_keys()}
    values["mu"], values["nu1"], values["nu2"] = sorted(
        (values["mu"], values["nu1"], values["nu2"]), reverse=True)
    values["p_nu1"] *= 1.0 - values["p_mu"]
    values["p_nu2"] = 1.0 - values["p_mu"] - values["p_nu1"]
    if draw(st.booleans()):
        values = {name: value if isinstance(value, bool)
                  else np.float64(value) if isinstance(value, float)
                  else np.int64(value) for name, value in values.items()}
    config = _with(Config(), **values)
    try:
        return config.validated()
    except ConfigError:
        assume(False)


@given(_valid_configs())
def test_any_valid_config_round_trips_through_its_file(config):
    assert _parsed(config_to_text(config)) == config


@pytest.mark.parametrize("name,value,kind", [
    ("num_detectors", 2.5, "an integer"), ("num_detectors", True, "an integer"),
    ("rng_seed", 1.5, "an integer"), ("rng_seed", True, "an integer"),
    ("stabilization_enabled", 0.5, "a boolean"),
    ("stabilization_enabled", 1, "a boolean"),
    ("fiber_length", True, "a number"), ("mu", False, "a number"),
])
def test_validation_refuses_a_value_of_another_type(name, value, kind):
    # every int and bool key is among them
    assert {key.name for key in config_keys() if key.type is not float} == {
        "num_detectors", "rng_seed", "stabilization_enabled"}
    with pytest.raises(ConfigError) as exc:
        _with(Config(), **{name: value}).validated()
    assert exc.value.problems == [f"{name} must be {kind}, got {value!r}"]


@pytest.mark.parametrize("name", ["mu", "nu1", "nu2", "p_mu", "p_nu1",
                                  "p_nu2", "duration", "time_step"])
@pytest.mark.parametrize("value", ["x", None])
def test_validation_names_a_non_number_in_a_key_the_rules_join(name, value):
    # the rules that join keys (mu > nu1, ...) compare numbers: a value of
    # another kind is named, not compared
    with pytest.raises(ConfigError) as exc:
        _with(Config(), **{name: value}).validated()
    assert exc.value.problems == [f"{name} must be a number, got {value!r}"]


def test_validation_takes_ints_and_numpy_numbers_of_their_kind():
    config = _with(Config(), mu=np.float64(0.6), fiber_length=25,
                   clock_rate=10**9, num_detectors=np.int64(4),
                   rng_seed=np.uint32(7))
    assert config.validated() is config


@pytest.mark.parametrize("config,seed", [
    (Config(sim=SimConfig(rng_seed=1.5)), None), (Config(), 1.5)])
def test_session_refuses_a_seed_that_is_no_int(tmp_path, config, seed):
    out = tmp_path / "d"
    with pytest.raises(ConfigError,
                       match="rng_seed must be an integer, got 1.5"):
        run_session(config, duration=5, seed=seed, out=out)
    assert not out.exists()


def test_config_file_defaults_and_overrides():
    cfg = _parsed("fiber_length = 25\nrng_seed = 9\n")
    assert cfg.link.fiber_length == 25.0
    assert cfg.sim.rng_seed == 9
    # untouched keys keep the preset defaults
    assert cfg.source.mu == 0.5


def test_unknown_key_is_error():
    problems: list[str] = []
    path, _ = _loaded("fibre_len = 10\n", problems)
    assert problems == [f"{path}:1: unknown key 'fibre_len'"]
    problems.clear()
    apply_overrides(Config(), {"not_a_key": "1"}, problems)
    assert problems == ["unknown configuration key: not_a_key"]


def _read(text: str, keys: set[str],
          problems: list[str]) -> tuple[Path, dict[str, str]]:
    """The path of a file of `text`, written in a temporary directory of its
    own as `_loaded` writes one, and `read_key_values` of it."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "link.cfg"
        path.write_text(text, encoding="utf-8")
        return path, read_key_values(path, keys, problems)


def test_reader_names_every_bad_line_at_once():
    text = "mu = 0.6\nfibre_len = 10\njust words\n\nmu = 0.7 # again\n"
    problems: list[str] = []
    path, values = _read(text, {"mu"}, problems)
    assert values == {"mu": "0.6"}
    assert problems == [
        f"{path}:2: unknown key 'fibre_len'",
        f"{path}:3: expected key = value, got 'just words'",
        f"{path}:5: repeated key 'mu'"]


def test_reader_returns_stripped_value_text():
    problems: list[str] = []
    _, values = _read(" a =  1 \n# b = 2\nb=x # y\n", {"a", "b"}, problems)
    assert values == {"a": "1", "b": "x"}
    assert problems == []


def test_malformed_value_is_error():
    for text, message in (
            ("fiber_length = fifty\n",
             "fiber_length must be a number, got 'fifty'"),
            ("stabilization_enabled = maybe\n",
             "stabilization_enabled must be a boolean, got 'maybe'")):
        problems: list[str] = []
        path, _ = _loaded(text, problems)
        assert problems == [f"{path}: {message}"]


def test_comments_and_blank_lines_ignored():
    cfg = _parsed("# a comment\n\nmu = 0.6  # trailing\n")
    assert cfg.source.mu == 0.6


# Values the goldens, the README's examples, the optimizer's search and the
# benchmark's workloads run with.  The benchmark's fiber lengths are 10, 50
# and 100 km each times 0.9 to 1.1, and 175 km is on the roadmap.
VALUES_IN_USE = {
    "mu": [0.6, *MU_BOUNDS],
    "fiber_length": [9.0, 25.0, 50.0, 110.0, 175.0],
    "clock_rate": [100.0],
    "distill_interval": [120.0, 600.0],
    "duration": [600.0, 1200.0, 3600.0, 9000.0, 21600.0, 129600.0],
    "rng_seed": [1, 7, 13],
    "stabilization_enabled": [False, True],
}


def test_every_key_is_typed_and_defaulted():
    keys = {key.name: key for key in config_keys()}
    assert len(keys) == 34
    assert "mu" in keys and "duration" in keys and "epc_step" in keys
    for name, key in keys.items():
        assert isinstance(key.default, key.type), name
        assert key.unit and isinstance(key.range, Range), name
        assert key.default in key.range, name
    for name, values in VALUES_IN_USE.items():
        for value in values:
            assert value in keys[name].range, (name, value)


def test_range_brackets_include_their_ends():
    half_open = Range(0.0, 1.0, "(]")
    assert 1.0 in half_open and 0.5 in half_open
    assert 0.0 not in half_open and 1.5 not in half_open
    assert str(half_open) == "in (0, 1]"
    at_least = Range(0.0, math.inf, "[)")
    assert 0.0 in at_least and 1e308 in at_least and 10**400 in at_least
    for value in (-1.0, math.inf, math.nan):
        assert value not in at_least
    assert str(at_least) == ">= 0"


@pytest.mark.parametrize("key", [key for key in config_keys()
                                 if key.type is float], ids=lambda k: k.name)
def test_a_value_outside_its_range_names_the_key_and_range(key):
    # by the reader, where it reads the value, and by validation
    for value in (math.nan, key.range.lo - 1.0):
        problems: list[str] = []
        config = apply_overrides(Config(), {key.name: repr(value)}, problems)
        with pytest.raises(ConfigError) as exc:
            config.validated()
        for found in ("; ".join(problems), str(exc.value)):
            assert f"{key.name} must be " in found
            assert f"{key.range} ({key.unit}), got {value!r}" in found


@given(mu=st.floats(0.2, 1.5), nu1=st.floats(0.01, 0.15))
def test_ordering_invariant_enforced(mu, nu1):
    source = SourceConfig(mu=mu, nu1=nu1)
    if mu > nu1:
        assert Config(source, LinkConfig(), SecurityConfig(),
                      SimConfig()).validated().source is source
    else:
        with pytest.raises(ConfigError):
            Config(source, LinkConfig(), SecurityConfig(),
                   SimConfig()).validated()


def test_overrides_do_not_mutate():
    base = Config()
    problems: list[str] = []
    updated = apply_overrides(base, {"mu": "0.7"}, problems)
    assert problems == []
    assert base.source.mu == 0.5
    assert updated.source.mu == 0.7
    assert dataclasses.replace(updated) == updated
