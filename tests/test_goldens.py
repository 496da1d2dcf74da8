"""SHA-256 goldens of CLI outputs, to show a refactor or speed-up leaves the
program's answers byte-identical.

Recorded with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1.  The digests
depend on the numpy bit-generator stream and on scipy's forward regularized
incomplete beta functions, so another numpy or scipy release may change
them; a changed digest then needs to be explained, not just re-recorded.
"""
import hashlib

import pytest

from qkdsim.cli import EXIT_OK, main

SPARSE = ("simulate", "--seed", "13", "--duration", "600", "--clock-rate",
          "100", "--distill-interval", "120")
LOOPS_OFF = ("simulate", "--seed", "13", "--duration", "600",
             "--stabilization-enabled", "false")
# test ids: the subcommand, or a name for a further run of one
NAMES = {SPARSE: "simulate-sparse", LOOPS_OFF: "simulate-loops-off"}

GOLDENS = {
    ("simulate", "--seed", "13", "--duration", "3600"): {
        "telemetry.csv":
            "7df97dca4edb942f2ccb835f572b7d8d23a16c01a328bf7aaf1d1d574badcdde",
        "keys.csv":
            "1f6c67cfd4491707d316b79e02395fd2c89ae02040fa6a2a29053a93575dde3b",
        "summary.txt":
            "bd202840eccc4e95e0652b8e63624c826275b64499b39e59e6924c9cb49c3813",
    },
    # ~1 pulse per step per decoy class: every telemetry row has empty
    # cells, and the feedback loops see dark channels.
    SPARSE: {
        "telemetry.csv":
            "b12d861a385afc48a6764b283afe468c615b3f3dd153cf613fec9b6ca8dc3165",
        "keys.csv":
            "5e35ccc6988cf250ea076da26a7718253a2d320b2be33b27d4ae43b414430787",
        "summary.txt":
            "725d2b4dd1ee1e4aae1eea3f78018c7fdc589fa6f2fa241cd36de04f0a2eafbb",
    },
    LOOPS_OFF: {
        "telemetry.csv":
            "43f9542e1eff2cd6ce4bbcdb78a42fdaefa7aa7d2a177390aa12dd7f3611d82f",
        "keys.csv":
            "7f9cdfeee1c587b81aa0f2673a842ea5303624041f4685aa434e8f89be1167e7",
        "summary.txt":
            "3779182509f49543c48530f97b6aeb85115277aa514570ae554a45d1ce3d0ae5",
    },
    ("keyrate",): {
        "keyrate.csv":
            "0984456c233c819c19ac108e4ed3d2e23587ecdb342497c8d93113123f07238d",
    },
    ("efficiency-curve", "--points", "25"): {
        "efficiency_curve.csv":
            "5377eccafd5aab0d67fda0bdf5467d8507361144bfaf566ad98c45f63da1b71b",
    },
    ("optimize", "--sweeps", "1"): {
        "optimize.txt":
            "3896936f5bd1badc9ae4ad4205240a9b78f05598fd28813a7ce3c3d954400aba",
        "best_config.cfg":
            "4dae3cfc386ac26a379f754ddb15bdbdb6e9b4af582c77f1ea50405d3654ac3a",
    },
    ("calibrate",): {
        "calibrated.cfg":
            "d7813c20073f543ade477375de3422459051c426c858320735a694cb9d9cc569",
    },
}


@pytest.mark.parametrize("argv", list(GOLDENS),
                         ids=lambda a: NAMES.get(a, a[0]))
def test_cli_outputs_match_goldens(argv, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDENS[argv]}
    assert digests == GOLDENS[argv]
