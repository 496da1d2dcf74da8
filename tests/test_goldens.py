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

GOLDENS = {
    ("simulate", "--seed", "13", "--duration", "3600"): {
        "telemetry.csv":
            "7df97dca4edb942f2ccb835f572b7d8d23a16c01a328bf7aaf1d1d574badcdde",
        "keys.csv":
            "1f6c67cfd4491707d316b79e02395fd2c89ae02040fa6a2a29053a93575dde3b",
        "summary.txt":
            "bd202840eccc4e95e0652b8e63624c826275b64499b39e59e6924c9cb49c3813",
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


@pytest.mark.parametrize("argv", list(GOLDENS), ids=lambda a: a[0])
def test_cli_outputs_match_goldens(argv, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDENS[argv]}
    assert digests == GOLDENS[argv]
