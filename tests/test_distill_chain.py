"""Every window is distilled by one chain, `finite_key.distill`.  The
session and the optimizer still import its three stages, for the
benchmark's tracer, but must not call them."""
import pytest

from qkdsim import finite_key, optimizer, session
from qkdsim.cli import EXIT_OK, main
from qkdsim.finite_key import expectation_tally

STAGES = ("estimate_channel", "decoy_bounds", "secure_key_length")
N_PULSES = 1.2e12


def _distill_window(preset, tmp_path):
    tally = expectation_tally(N_PULSES, preset.source, preset.link)
    session.distill_window(tally, preset, 0.0, 1200.0)


def _objective(preset, tmp_path):
    optimizer.objective(preset.source, preset.link, preset.security, N_PULSES)


def _key_efficiency(preset, tmp_path):
    finite_key.efficiency_curve((N_PULSES,), preset.source, preset.link,
                                preset.security)


def _keyrate(preset, tmp_path):
    assert main(["keyrate", "--out", str(tmp_path)]) == EXIT_OK


@pytest.mark.parametrize("run", [_distill_window, _objective, _key_efficiency,
                                 _keyrate],
                         ids=["distill_window", "objective", "key_efficiency",
                              "keyrate"])
def test_each_site_distills_through_one_chain(run, preset, tmp_path,
                                              monkeypatch, capsys):
    def uncalled(*args, **kwargs):
        raise AssertionError("a distillation stage called outside "
                             "finite_key.distill")
    for module in (session, optimizer):
        for name in STAGES:
            monkeypatch.setattr(module, name, uncalled)
    tallies = []
    estimate = finite_key.estimate_channel

    def counted(tally, *args, **kwargs):
        tallies.append(tally)
        return estimate(tally, *args, **kwargs)
    monkeypatch.setattr(finite_key, "estimate_channel", counted)
    run(preset, tmp_path)
    assert tallies == [expectation_tally(N_PULSES, preset.source, preset.link)]
