"""Property tests over the whole command line, run in-process: whatever the
arguments, and whatever a config or tally file holds, `qkdsim` exits with a
documented status and prints no traceback.

Every configuration key (`config_keys()`), every command's own flag
(`cli.COMMAND_FLAGS`) and every tally-file count (`cli.TALLY_KEYS`) is drawn
from its declaration: mostly inside its declared range, sometimes outside it
or not a value at all, and a value outside its range, or no value of its
type, exits 4.  A new key, flag or count, or a new rule of one, is fuzzed as
soon as it is declared.  A simulated session is at
most 60 steps long, and a curve or a search is drawn with few points or
sweeps, so that one example runs in milliseconds.
"""
import contextlib
import io
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from qkdsim.channel import PulseTally
from qkdsim.cli import COMMAND_FLAGS, EXIT_VALIDATION, TALLY_KEYS, main
from qkdsim.config import ConfigKey, Count, config_keys

DOCUMENTED_EXITS = {0, 2, 3, 4, 5}
KEYS = {key.name: key for key in config_keys()}
# texts no numeric flag accepts, or accepts only to reject in validation
NOT_A_VALUE = st.sampled_from(["nan", "inf", "-inf", "1e400", "x", ""])
ODD = st.one_of(st.sampled_from(["0", "-1"]), NOT_A_VALUE)


def inside(key: ConfigKey) -> st.SearchStrategy[str]:
    """Text of a value of `key` inside its declared range."""
    lo, hi, ends = key.range
    top = None if hi == math.inf else hi
    if key.type is bool:
        values = st.booleans()
    elif issubclass(key.type, int):
        values = st.integers(int(lo), None if top is None else int(top))
    else:
        values = st.floats(lo, top, exclude_min=ends[0] == "(",
                           exclude_max=top is not None and ends[1] == ")",
                           allow_nan=False, allow_infinity=False)
    values = values.filter(lambda v: v in key.range)
    if key.type is Count:   # integral float text is a count too
        return st.one_of(values.map(repr), values.map(lambda v: repr(float(v))))
    return values.map(lambda v: str(v).lower() if key.type is bool
                      else repr(v))


def outside(key: ConfigKey) -> st.SearchStrategy[str]:
    """Text that is no value of `key`, or one outside its declared range."""
    lo, hi, ends = key.range
    if key.type is bool:
        return st.sampled_from(["maybe", "2", "-1", ""])
    if issubclass(key.type, int):
        sides = [st.integers(max_value=int(lo) - 1)]
        if hi < math.inf:
            sides.append(st.integers(min_value=int(hi) + 1))
        if key.type is Count:   # a float that is no whole number
            sides.append(st.floats().filter(lambda v: not v.is_integer()))
    else:
        sides = [st.floats(max_value=lo, exclude_max=ends[0] == "[")]
        if hi < math.inf:
            sides.append(st.floats(min_value=hi, exclude_min=ends[1] == "]"))
    return st.one_of(st.one_of(sides).filter(lambda v: v not in key.range)
                     .map(repr), NOT_A_VALUE)


# the keys that validation's rules join: mu > nu1 > nu2, and the send
# probabilities sum to 1
JOINED_KEYS = ("mu", "nu1", "nu2", "p_mu", "p_nu1", "p_nu2")


@st.composite
def source_keys(draw) -> dict[str, str]:
    """All seven source keys inside their ranges, with mu > nu1 > nu2 and the
    send probabilities summing to 1, so that they pass validation."""
    intensities = draw(st.lists(st.floats(0.0, KEYS["mu"].range.hi),
                                min_size=3, max_size=3, unique=True))
    mu, nu1, nu2 = sorted(intensities, reverse=True)
    p_mu = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    p_nu1 = (1.0 - p_mu) * draw(st.floats(0.0, 1.0, exclude_min=True,
                                          exclude_max=True))
    values = {"mu": mu, "nu1": nu1, "nu2": nu2, "p_mu": p_mu, "p_nu1": p_nu1,
              "p_nu2": 1.0 - p_mu - p_nu1,
              "clock_rate": float(draw(inside(KEYS["clock_rate"])))}
    return {name: repr(value) for name, value in values.items()}


# The most points and sweeps drawn inside the range: a grid point takes
# about 0.25 ms, and a sweep about 170 objective evaluations.
AFFORDABLE = {"--points": 3, "--sweeps": 1}


@st.composite
def arguments(draw) -> tuple[list[str], bool]:
    """A subcommand, some configuration keys and some of its own flags; and
    whether a value was drawn outside its range."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    values = draw(source_keys()) if draw(st.booleans()) else {}
    out_of_range = set()
    for name in draw(st.lists(st.sampled_from(list(KEYS)), max_size=8,
                              unique=True)):
        if draw(st.integers(0, 9)) == 0:
            values[name] = draw(outside(KEYS[name]))
            out_of_range.add(name)
        elif name not in JOINED_KEYS:   # one alone would break their rules
            values[name] = draw(inside(KEYS[name]))
    if command == "simulate" and "duration" not in out_of_range:
        # a whole number of steps, not the 36 h default
        step = (1.0 if "time_step" in out_of_range
                else float(values.get("time_step", 1.0)))
        values["duration"] = repr(draw(st.integers(0, 60)) * step)
    argv = [command]
    for name, value in values.items():
        flag = "--" + name.replace("_", "-")
        if name == "rng_seed" and draw(st.booleans()):
            flag = "--seed"
        argv.append(f"{flag}={value}")
    for key in COMMAND_FLAGS[command]:
        if not draw(st.booleans()):
            continue
        if draw(st.integers(0, 9)) == 0:
            value = draw(outside(key))
            out_of_range.add(key.name)
        else:
            hi = min(key.range.hi, AFFORDABLE.get(key.name, math.inf))
            value = draw(inside(key._replace(
                range=key.range._replace(hi=hi))))
        argv.append(f"{key.name}={value}")
    return argv, bool(out_of_range)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit status and stderr of `qkdsim argv`, writing into a scratch
    directory; argparse's SystemExit counts as a status, and any other
    exception escapes."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            status = main([*argv, "--out", out])
        except SystemExit as exc:
            status = exc.code
    return status, err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(arguments())
# the per-step sent count overflowed a C long in numpy's binomial draw
@example((["simulate", "--clock-rate=1e19", "--duration=5"], False))
# more steps than a session may hold: ran for hours, then could not
# allocate its telemetry
@example((["simulate", "--time-step=1e-6", "--duration=60"], False))
@example((["simulate", "--time-step=1e-3", "--duration=1e9"], False))
# a class got no pulses: once found only when a window closed or an interval
# was computed, after the work before it
@example((["simulate", "--clock-rate=0.01", "--duration=60",
           "--distill-interval=30"], False))
@example((["keyrate", "--n-pulses=1"], False))
@example((["optimize", "--n-pulses=10"], False))
@example((["efficiency-curve", "--min-pulses=1", "--max-pulses=100",
           "--points=2"], False))
# a negative seed reached numpy, whose message named no key
@example((["simulate", "--seed=-1", "--duration=5"], True))
@example((["simulate", "--rng-seed=-1", "--duration=5"], True))
# pulse counts past the range the bounds are tested to ran to exit 0
@example((["keyrate", "--n-pulses=1e300"], True))
@example((["simulate", "--clock-rate=1e13", "--duration=1200"], False))
# values that overflowed or divided by zero in the model's arithmetic, with
# a traceback, before the keys had declared ranges
@example((["simulate", "--laser-power-diffusion", "1e6"], True))
@example((["simulate", "--laser-power-diffusion", "1e17"], True))
@example((["simulate", "--timing-drift-rate", "1e300"], True))
@example((["simulate", "--gate-step", "1e300"], True))
@example((["simulate", "--gate-sigma", "1e-300"], True))
@example((["keyrate", "--gate-sigma", "1e-300"], True))
@example((["optimize", "--gate-sigma", "1e-300"], True))
@example((["efficiency-curve", "--gate-sigma", "1e-300"], True))
@example((["simulate", "--gate-sigma", "1e300"], True))
@example((["keyrate", "--gate-sigma", "1e300"], True))
@example((["keyrate", "--ec-efficiency", "1e300"], True))
@example((["optimize", "--ec-efficiency", "1e300"], True))
@example((["efficiency-curve", "--ec-efficiency", "1e300"], True))
@example((["keyrate", "--mu", "1e17"], True))
@example((["keyrate", "--mu", "1e300", "--nu1", "1"], True))
@example((["keyrate", "--epsilon", "1e-320"], True))
# a sweep count that no search finishes within months
@example((["optimize", "--sweeps=1000000000"], True))
def test_cli_exits_with_a_documented_status(command):
    argv, out_of_range = command
    status, err = run_cli(argv)
    assert status in DOCUMENTED_EXITS, (status, err)
    assert "Traceback" not in err
    if out_of_range:
        assert status == EXIT_VALIDATION, (status, err)


def _file_body(values: dict[str, st.SearchStrategy[str]]):
    """Random bytes, or lines that are mostly `key = value` with a key of
    `values` and a value it draws, or a key no file takes, and sometimes any
    text at all."""
    line = st.one_of(
        st.sampled_from([*values, "not_a_key"]).flatmap(
            lambda key: values.get(key, st.text()).map(f"{key} = ".__add__)),
        st.text(max_size=20))
    return st.one_of(
        st.binary(max_size=200),
        st.lists(line, max_size=12).map(lambda ls: "\n".join(ls).encode()))


CONFIG_VALUES = st.one_of(st.floats(-1.0, 2.0).map(repr),
                          st.integers(-2, 10).map(str),
                          st.sampled_from(["true", "false"]), ODD, st.text())
COUNTS = {name: st.one_of(inside(key), outside(key), st.text())
          for name, key in TALLY_KEYS.items()}


@st.composite
def _whole_tally(draw) -> bytes:
    """Every tally key once, errors <= sifted <= sent in each class, so that
    the counts reach the bounds."""
    counts = []
    for _ in range(3):
        sent = draw(st.integers(0, 10**15))
        sifted = draw(st.integers(0, min(sent, 10**10)))
        counts += [sent, sifted, draw(st.integers(0, sifted))]
    return "".join(f"{key} = {count}\n" for key, count
                   in zip(PulseTally._fields, counts)).encode()


TALLY_BODY = st.one_of(_file_body(COUNTS), _whole_tally())


@st.composite
def file_inputs(draw) -> tuple[list[str], bytes]:
    """`calibrate --config FILE` or `keyrate --tally-file FILE`, and the
    bytes of FILE."""
    if draw(st.booleans()):
        return ["calibrate", "--config"], draw(_file_body(
            dict.fromkeys(KEYS, CONFIG_VALUES)))
    return ["keyrate", "--tally-file"], draw(TALLY_BODY)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(file_inputs())
# not UTF-8: the config reader raised UnicodeDecodeError, exit 1
@example((["calibrate", "--config"], b"mu = 0.6\xff\n"))
@example((["keyrate", "--tally-file"], b"\xff"))
# a repeated key was taken last-wins without a word
@example((["calibrate", "--config"], b"mu = 0.6\nmu = 0.7\n"))
@example((["keyrate", "--tally-file"], b"sent_mu = 5\nsent_mu = 6\n"))
# a line without `=`
@example((["calibrate", "--config"], b"mu 0.6\n"))
@example((["keyrate", "--tally-file"], b"sent_mu 5\n"))
def test_file_contents_end_in_a_documented_status(command):
    argv, body = command
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_bytes(body)
        status, err = run_cli([*argv, str(path)])
    assert status in DOCUMENTED_EXITS, (status, err)
    assert "Traceback" not in err
