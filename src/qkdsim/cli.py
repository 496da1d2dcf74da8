"""Command-line entry point.

Subcommands:
    simulate          run a closed-loop session, write telemetry/keys CSVs
    keyrate           distill one window from expectation or supplied tallies
    efficiency-curve  sweep key-extraction efficiency over a pulse-count grid
    optimize          search source intensities/probabilities for best rate
    calibrate         solve the intrinsic misalignment for a target QBER

`config.load_config` builds a command's configuration from its config file
and key flags, one flag per configuration key.  Each command's own flags
(`COMMAND_FLAGS`) and a tally file's counts (`TALLY_KEYS`) are read and
checked as the keys are, and one message names every bad value.  A call
builds the arguments of the one subcommand it names.  All randomness flows
from a single seed.

Exit status: 0 success, 2 usage, 3 unreadable config or input file,
4 configuration or input validation error, 5 output I/O failure.
"""
from __future__ import annotations

import argparse
import inspect
import re
import sys
from dataclasses import replace

import numpy as np

from . import channel, config as config_mod, finite_key, optimizer, session
from .config import Config, ConfigError, ConfigKey, Count, Range

__all__ = ["parse_command", "dispatch", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG_FILE = 3
EXIT_VALIDATION = 4
EXIT_IO = 5

# The most points of one efficiency curve: at 0.16-0.19 ms a point (2-vCPU
# Xeon, Python 3.11) 16 to 19 s of work, and 16,000 points to each decade of
# the default pulse range.  A larger grid spends minutes, then all memory.
MAX_POINTS = 10**5
# The most sweeps of one search: a sweep of about 170 candidates takes 3.7 to
# 7 ms even once the search has converged (2-vCPU Xeon), so 1,000 take 4-7 s.
MAX_SWEEPS = 1000


def _library_default(function, name: str):
    """`function`'s default for `name`, which the flag passing it shares."""
    return inspect.signature(function).parameters[name].default


# Each command's own flags, declared, parsed, checked and listed by --help
# as the configuration keys are.  A pulse budget is at most MAX_PULSES.
_PULSES = Range(0.0, config_mod.MAX_PULSES, "(]")
_N_PULSES = ConfigKey("--n-pulses", 1.2e12, float, "pulses", _PULSES)
COMMAND_FLAGS = {
    "simulate": (), "keyrate": (_N_PULSES,),
    "efficiency-curve": (
        ConfigKey("--min-pulses", 1e9, float, "pulses", _PULSES),
        ConfigKey("--max-pulses", 1e15, float, "pulses", _PULSES),
        ConfigKey("--points", 20, int, "grid points",
                  Range(1, MAX_POINTS, "[]"))),
    "optimize": (_N_PULSES, ConfigKey("--sweeps", _library_default(
        optimizer.optimize_source, "sweeps"), int,
        "coordinate-descent passes", Range(0, MAX_SWEEPS, "[]"))),
    "calibrate": (ConfigKey("--target-qber", _library_default(
        channel.calibrate_misalignment, "target_qber"), float,
        "probability", Range(0.0, 0.5, "[]")),),
}
# A tally file's counts; a class that sent no pulses has no key to distill.
TALLY_KEYS = {f"{count}_{cls}": ConfigKey(
    f"{count}_{cls}", None, Count, unit, Range(lo, config_mod.MAX_PULSES, "[]"))
    for cls in channel.CLASSES for count, unit, lo in (
        ("sent", "pulses", 1), ("sifted", "sifted detections", 0),
        ("errors", "sifted errors", 0))}

_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _add_input(parser, key: ConfigKey, *flags: str, dest=None, default=None):
    """Add the flags of a configuration key or a command flag: a value given
    stays text until `_load_config` parses it, one not given is `default`."""
    parser.add_argument(*flags, dest=dest, default=default,
                        metavar=key.type.__name__.upper(),
                        help=f"{key.unit}, {key.range} "
                             f"(default: {key.default})")


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of every subcommand's name and help line, with the
    arguments of `command` alone: the others are never parsed."""
    parser = argparse.ArgumentParser(
        prog="qkdsim",
        description="Simulate a continuously stabilized decoy-state BB84 link "
                    "and distill finite-size secure keys.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, run, about in (
            ("simulate", _run_simulate, "run a closed-loop session"),
            ("keyrate", _run_keyrate, "distill a single window"),
            ("efficiency-curve", _run_efficiency_curve,
             "key-extraction efficiency vs. pulse count"),
            ("optimize", _run_optimize, "optimize source parameters"),
            ("calibrate", _run_calibrate,
             "solve intrinsic misalignment for a target QBER")):
        p = sub.add_parser(name, help=about)
        if name != command:
            continue
        # argparse's own pattern has no exponent in some Python releases:
        # it would take "-1e6" for an option rather than a value
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.set_defaults(run=run)
        p.add_argument("--config", metavar="FILE",
                       help="key=value configuration file (all keys optional)")
        p.add_argument("--out", metavar="DIR", default=".",
                       help="output directory (default: current directory)")
        for key in config_mod.config_keys():
            _add_input(p, key, "--" + key.name.replace("_", "-"),
                       *(["--seed"] if key.name == "rng_seed" else []),
                       dest=f"key_{key.name}")
        if name == "keyrate":   # --n-pulses or --tally-file
            p = p.add_mutually_exclusive_group()
            p.add_argument("--tally-file", metavar="FILE",
                           help="key=value counts (sent_mu, sifted_mu, "
                                "errors_mu, ...) used instead of expectation "
                                "tallies")
        for key in COMMAND_FLAGS[name]:
            _add_input(p, key, key.name, default=key.default)
    return parser


def parse_command(argv: list[str]) -> argparse.Namespace:
    """Parse an argument list into the subcommand's namespace, with its
    runner as `run` and the configuration flags given as `overrides` (raises
    SystemExit(2) on usage errors, matching argparse conventions).  Only
    the subcommand named by the first positional argument gets its
    arguments built."""
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    req = _build_parser(command).parse_args(argv)
    req.overrides = {key.name: getattr(req, f"key_{key.name}")
                     for key in config_mod.config_keys()
                     if getattr(req, f"key_{key.name}") is not None}
    return req


def _load_config(req: argparse.Namespace) -> Config:
    """Parse and check the request's command flags in place and return the
    validated configuration of its config file and key flags
    (`config.load_config`); one ConfigError names every bad command flag
    beside the problems that `load_config` names."""
    flags = {key.name[2:].replace("-", "_"): key   # argparse's dest
             for key in COMMAND_FLAGS[req.subcommand]}
    problems: list[str] = []
    vars(req).update(config_mod.read_values(
        {dest: getattr(req, dest) for dest in flags}, flags, problems))
    try:
        cfg = config_mod.load_config(req.config, req.overrides, problems)
    except OSError as exc:
        raise _UnreadableInputError(f"cannot read config: {exc}") from exc
    if problems:
        raise ConfigError(problems)
    return cfg


def _check_pulses(flag: str, value: float,
                  source: config_mod.SourceConfig) -> None:
    """Reject a pulse budget whose expectation tally leaves a class without
    pulses (each class gets round(value * p_class) of them)."""
    for cls in channel.CLASSES:
        p = getattr(source, f"p_{cls}")
        if round(value * p) < 1:
            raise ValueError(f"{flag} {value:g} gives class {cls} no pulses "
                             f"at p_{cls} = {p:g}; it must exceed {0.5 / p:g}")


class _UnreadableInputError(Exception):
    """A config or input file named on the command line could not be read."""


def _read_tally_file(path: str) -> channel.PulseTally:
    problems: list[str] = []
    try:
        raw = config_mod.read_key_values(path, TALLY_KEYS, problems)
    except OSError as exc:
        raise _UnreadableInputError(f"cannot read tally file: {exc}") from exc
    counts = config_mod.read_values(raw, TALLY_KEYS, problems, f"{path}: ")
    missing = [name for name in TALLY_KEYS if name not in raw]
    if missing:
        problems.append(f"{path}: missing tally keys: {', '.join(missing)}")
    if problems:
        raise ConfigError(problems)
    tally = channel.PulseTally(**counts)
    tally.check(f"{path}: ")
    return tally


def _run_simulate(req: argparse.Namespace, cfg: Config) -> None:
    result = session.run_session(cfg, out=req.out)
    sys.stdout.write(session.format_summary(result.summary))


def _run_keyrate(req: argparse.Namespace, cfg: Config) -> None:
    if req.tally_file is not None:
        tally = _read_tally_file(req.tally_file)
    else:
        _check_pulses("--n-pulses", req.n_pulses, cfg.source)
        tally = finite_key.expectation_tally(req.n_pulses, cfg.source, cfg.link)
    with session.write_outputs(req.out, ("keyrate.csv",)) as files:
        result = finite_key.distill(tally, cfg.source, cfg.security)
        values = {name: getattr(result, name) for name in (
            "secure_bits", "single_photon_bits", "leakage_bits",
            "finite_size_bits", "efficiency", "epsilon_spent")}
        values.update(y1_lower=result.bounds.y1_lower,
                      e1_upper=result.bounds.e1_upper)
        files["keyrate.csv"].writelines([
            ",".join(values) + "\n",
            ",".join(session._fmt(v) for v in values.values()) + "\n"])
    sys.stdout.write("".join(f"{name}: {session._fmt(v)}\n"
                             for name, v in values.items()
                             if name != "epsilon_spent"))


def _run_efficiency_curve(req: argparse.Namespace, cfg: Config) -> None:
    _check_pulses("--min-pulses", req.min_pulses, cfg.source)
    _check_pulses("--max-pulses", req.max_pulses, cfg.source)
    if req.min_pulses > req.max_pulses:
        raise ValueError("--min-pulses must not exceed --max-pulses")
    if req.points == 1 and req.min_pulses != req.max_pulses:
        raise ValueError("--points 1 needs --min-pulses equal to --max-pulses")
    grid = np.logspace(np.log10(req.min_pulses), np.log10(req.max_pulses),
                       req.points).tolist()
    with session.write_outputs(req.out, ("efficiency_curve.csv",)) as files:
        effs = finite_key.efficiency_curve(grid, cfg.source, cfg.link,
                                           cfg.security)
        lines = ["n_pulses,efficiency\n"] + [
            f"{n:.9g},{eff:.9g}\n" for n, eff in zip(grid, effs)]
        files["efficiency_curve.csv"].writelines(lines)
    sys.stdout.writelines(lines)


def _run_optimize(req: argparse.Namespace, cfg: Config) -> None:
    _check_pulses("--n-pulses", req.n_pulses, cfg.source)
    with session.write_outputs(req.out, ("optimize.txt",
                                         "best_config.cfg")) as files:
        result = optimizer.optimize_source(
            cfg.link, cfg.security, req.n_pulses, start=cfg.source,
            sweeps=req.sweeps)
        best = result.best
        report = (
            f"rate_bits_per_pulse: {result.rate:.9g}\n"
            f"rate_bps_at_clock: {result.rate * best.clock_rate:.9g}\n"
            f"evaluations: {result.evaluations}\n"
            f"mu: {best.mu:.9g}\nnu1: {best.nu1:.9g}\nnu2: {best.nu2:.9g}\n"
            f"p_mu: {best.p_mu:.9g}\np_nu1: {best.p_nu1:.9g}\n"
            f"p_nu2: {best.p_nu2:.9g}\n"
        )
        files["optimize.txt"].write(report)
        files["best_config.cfg"].write(
            config_mod.config_to_text(replace(cfg, source=best)))
    sys.stdout.write(report)


def _run_calibrate(req: argparse.Namespace, cfg: Config) -> None:
    with session.write_outputs(req.out, ("calibrated.cfg",)) as files:
        value = channel.calibrate_misalignment(cfg.source, cfg.link,
                                               req.target_qber)
        calibrated = replace(cfg, link=replace(
            cfg.link, intrinsic_misalignment_error=value))
        files["calibrated.cfg"].write(config_mod.config_to_text(calibrated))
    sys.stdout.write(f"intrinsic_misalignment_error: {value:.9g}\n")


def dispatch(request: argparse.Namespace) -> int:
    """Execute a parsed request; returns the process exit status."""
    try:
        request.run(request, _load_config(request))
    except (_UnreadableInputError, OSError, ValueError) as exc:
        print(f"qkdsim: {exc}", file=sys.stderr)
        if isinstance(exc, _UnreadableInputError):
            return EXIT_CONFIG_FILE
        return EXIT_IO if isinstance(exc, OSError) else EXIT_VALIDATION
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    request = parse_command(sys.argv[1:] if argv is None else argv)
    return dispatch(request)


if __name__ == "__main__":
    sys.exit(main())
