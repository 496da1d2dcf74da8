"""Property tests over the whole command line, run in-process: whatever the
arguments, and whatever a config or tally file holds, `qkdsim` exits with a
documented status and prints no traceback.

Durations stay at or below 60 s and the step at or above 0.5 s, so one
example runs in milliseconds; clock rates span 1e-3 to 1e20 pulses per
second, past both the C-long limit of a per-step count and the point where a
class gets no pulses in a window.
"""
import contextlib
import io
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from qkdsim.channel import PulseTally
from qkdsim.cli import main
from qkdsim.config import config_keys

DOCUMENTED_EXITS = {0, 2, 3, 4, 5}
# texts no numeric flag accepts, or accepts only to reject in validation
ODD = st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e400", "x", ""])


def _log_uniform(lo: float, hi: float) -> st.SearchStrategy[str]:
    return st.floats(math.log10(lo), math.log10(hi)).map(
        lambda e: repr(10.0 ** e))


def _flag(values: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    # one value in ten is odd, so that most examples get past validation
    return st.integers(0, 9).flatmap(lambda i: ODD if i == 0 else values)


def _floats(lo: float, hi: float) -> st.SearchStrategy[str]:
    return st.floats(lo, hi).map(repr)


COMMON = {
    "--clock-rate": _flag(_log_uniform(1e-3, 1e20)),
    "--time-step": _flag(_floats(0.5, 10.0)),
    "--distill-interval": _flag(_floats(0.5, 60.0)),
    "--fiber-length": _flag(_floats(0.0, 300.0)),
    "--mu": _flag(_floats(0.05, 1.5)),
    "--nu1": _flag(_floats(0.001, 0.3)),
    "--epsilon": _flag(_log_uniform(1e-30, 0.5)),
    "--stabilization-enabled": _flag(st.sampled_from(["true", "false"])),
    "--seed": st.one_of(st.integers(0, 2**32).map(str), ODD),
}
PULSES = _flag(_log_uniform(1e-1, 1e16))
SPECIFIC = {
    "simulate": {},   # and always a --duration: the default is 36 h
    "keyrate": {"--n-pulses": PULSES},
    "efficiency-curve": {"--min-pulses": PULSES, "--max-pulses": PULSES,
                         "--points": st.sampled_from(["-1", "0", "1", "3", "x"])},
    # sweeps stay small: one sweep is about 170 objective evaluations
    "optimize": {"--n-pulses": PULSES,
                 "--sweeps": st.sampled_from(["-1", "0", "1", "x"])},
    "calibrate": {"--target-qber": _flag(_floats(-0.1, 0.6))},
}


@st.composite
def arguments(draw) -> list[str]:
    """A subcommand and some of its flags, each usually in a working range
    and sometimes not a valid value at all."""
    command = draw(st.sampled_from(sorted(SPECIFIC)))
    flags = draw(st.fixed_dictionaries(
        {}, optional={**COMMON, **SPECIFIC[command]}))
    if command == "simulate":
        flags["--duration"] = draw(_flag(_floats(0.0, 60.0)))
    argv = [command]
    for flag, value in flags.items():
        argv.append(f"{flag}={value}")
    return argv


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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(arguments())
# the per-step sent count overflowed a C long in numpy's binomial draw
@example(["simulate", "--clock-rate=1e19", "--duration=5"])
# more steps than a session may hold: ran for hours, then could not
# allocate its telemetry
@example(["simulate", "--time-step=1e-6", "--duration=60"])
@example(["simulate", "--time-step=1e-3", "--duration=1e9"])
# a class got no pulses: once found only when a window closed or an interval
# was computed, after the work before it
@example(["simulate", "--clock-rate=0.01", "--duration=60",
          "--distill-interval=30"])
@example(["keyrate", "--n-pulses=1"])
@example(["optimize", "--n-pulses=10"])
@example(["efficiency-curve", "--min-pulses=1", "--max-pulses=100",
          "--points=2"])
# a negative seed reached numpy, whose message named no key
@example(["simulate", "--seed=-1", "--duration=5"])
# pulse counts past the range the bounds are tested to ran to exit 0
@example(["keyrate", "--n-pulses=1e300"])
@example(["simulate", "--clock-rate=1e13", "--duration=1200"])
def test_cli_exits_with_a_documented_status(argv):
    status, err = run_cli(argv)
    assert status in DOCUMENTED_EXITS, (status, err)
    assert "Traceback" not in err


def _file_body(keys: list[str], values: st.SearchStrategy[str]):
    """Random bytes, or lines that are mostly `key = value` with a key from
    `keys`, or one no file takes, and sometimes any text at all."""
    line = st.one_of(
        st.tuples(st.sampled_from([*keys, "not_a_key"]), values).map(
            " = ".join),
        st.text(max_size=20))
    return st.one_of(
        st.binary(max_size=200),
        st.lists(line, max_size=12).map(lambda ls: "\n".join(ls).encode()))


CONFIG_VALUES = st.one_of(_floats(-1.0, 2.0), st.integers(-2, 10).map(str),
                          st.sampled_from(["true", "false"]), ODD, st.text())
COUNTS = st.one_of(st.integers(0, 10**16).map(str), ODD,
                   st.floats(0, 1e16).map(repr), st.text())


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


TALLY_BODY = st.one_of(_file_body(PulseTally._fields, COUNTS), _whole_tally())


@st.composite
def file_inputs(draw) -> tuple[list[str], bytes]:
    """`calibrate --config FILE` or `keyrate --tally-file FILE`, and the
    bytes of FILE."""
    if draw(st.booleans()):
        keys = [key for key, _, _ in config_keys()]
        return ["calibrate", "--config"], draw(_file_body(keys, CONFIG_VALUES))
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
