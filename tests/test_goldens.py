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
# More steps than one 4,096-row block, so a change that goes wrong at a
# block boundary shows.
LONG_LOOPS_OFF = ("simulate", "--seed", "13", "--duration", "9000",
                  "--distill-interval", "600", "--stabilization-enabled",
                  "false")
# test ids: the subcommand, or a name for a further run of one
NAMES = {SPARSE: "simulate-sparse", LOOPS_OFF: "simulate-loops-off",
         LONG_LOOPS_OFF: "simulate-loops-off-9000"}

GOLDENS = {
    ("simulate", "--seed", "13", "--duration", "3600"): {
        "telemetry.csv":
            "1588965569bcef61c4189c09365f4d641446b5af691e0fef01d5867cf5ad522c",
        "keys.csv":
            "caff69796ef26e245ce237e3afca7d1775814c6fc4f8ac9a5fb1b96f27b18215",
        "summary.txt":
            "bbb4bd604ef60051be677b612a369dc4bb46f2a346ba94285880707693a65467",
    },
    # ~1 pulse per step per decoy class: every telemetry row has empty
    # cells, and the feedback loops see dark channels.
    SPARSE: {
        "telemetry.csv":
            "af573d11499aad98eeb4fc1535a0764610fb40f0214cad6955d77abdb07c0230",
        "keys.csv":
            "8a1ec562cf906f60a4b6397c27c6af2967886d3e607eccfe50802a26e594069e",
        "summary.txt":
            "c60366486e4636230a184c1c292282bee0b5aa139719b20247a8e18bd1df79b3",
    },
    LOOPS_OFF: {
        "telemetry.csv":
            "c1a0c486336af376969a90251a1f09122cacd0eaea4b13e19e3d3222adff5ad2",
        "keys.csv":
            "7f9cdfeee1c587b81aa0f2673a842ea5303624041f4685aa434e8f89be1167e7",
        "summary.txt":
            "0ef5dce9979eb3f0d9b0b3406874e3fad6c1d179b840962390cca68913e3802a",
    },
    LONG_LOOPS_OFF: {
        "telemetry.csv":
            "83532f1d0f298036a17ec807d8ee09b19f38f723d3242a3e4f170b336c5cefbe",
        "keys.csv":
            "6f6da889ab54bbc91854c542df07a6d97238d2a0583a7a6c6b64853e800f4047",
        "summary.txt":
            "5c44d67f88987e96cedfc69367fa1634d144e8c5b28d748f03437b25c01e3186",
    },
    ("keyrate",): {
        "keyrate.csv":
            "0984456c233c819c19ac108e4ed3d2e23587ecdb342497c8d93113123f07238d",
    },
    ("efficiency-curve", "--points", "25"): {
        "efficiency_curve.csv":
            "b63f8b879a91c340d6ec65caeb4c1ebaa1d553e7068a285868933438744e61d3",
    },
    ("optimize", "--sweeps", "1"): {
        "optimize.txt":
            "e730fa18166d5799ce3afb925a27a23f82a4f30ba7ac589d9283a89bc78f4be2",
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
