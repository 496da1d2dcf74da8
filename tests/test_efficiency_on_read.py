"""`KeyResult.efficiency` is computed on first read: the optimizer's
objective and a bare `distill`, which read only the key length, never build
the infinite-statistics reference behind it, and every reader gets the value
the eager formula gave."""
import pytest

from qkdsim import finite_key, optimizer, session
from qkdsim.channel import PulseTally
from qkdsim.cli import EXIT_OK, main
from qkdsim.finite_key import (_key_terms, decoy_bounds, distill,
                               expectation_tally, point_estimates)

N_PULSES = 1.2e12


def _eager_efficiency(tally, key, source, security):
    """The efficiency as `secure_key_length` computed it with every key."""
    ref_bounds = decoy_bounds(point_estimates(tally), source)
    ref_single, ref_leak, _ = _key_terms(tally, ref_bounds, security, source)
    reference = max(0.0, ref_single - ref_leak)
    return min(1.0, key.secure_bits / reference) if reference > 0 else 0.0


def _tally(kind, preset):
    if kind == "positive":
        return expectation_tally(N_PULSES, preset.source, preset.link)
    if kind == "no-key":     # bounds too loose for any secure bit
        return expectation_tally(1e8, preset.source, preset.link)
    # no sifted signal bits: the signal error rate is unbounded
    return PulseTally(sent_mu=10**9, sent_nu1=10**8, sifted_nu1=10**5,
                      errors_nu1=10**3, sent_nu2=10**8, sifted_nu2=10**3,
                      errors_nu2=500)


TALLIES = ["positive", "no-key", "no-sifted-signal"]


def test_key_length_readers_never_build_the_reference(preset, monkeypatch):
    # the infinite-statistics key is built only where an efficiency is
    # read: for a key's own tally, and for each budget's tally of a curve
    built = []
    infinite_key = finite_key._infinite_key

    def counted(tally, *args):
        built.append(tally)
        return infinite_key(tally, *args)
    monkeypatch.setattr(finite_key, "_infinite_key", counted)
    assert optimizer.objective(preset.source, preset.link, preset.security,
                               N_PULSES) > 0
    key = distill(_tally("positive", preset), preset.source,
                  preset.security)
    assert built == []
    budgets = (1e10, N_PULSES)
    effs = finite_key.efficiency_curve(budgets, preset.source, preset.link,
                                       preset.security)
    assert all(0 < eff <= 1 for eff in effs)
    assert built == [expectation_tally(n, preset.source, preset.link)
                     for n in budgets]
    built.clear()
    assert key.efficiency == key.efficiency
    assert built == [key.tally]


@pytest.mark.parametrize("kind", TALLIES)
def test_distill_window_reports_the_eager_efficiency(preset, kind):
    tally = _tally(kind, preset)
    record = session.distill_window(tally, preset, 0.0, 1200.0)
    expected = _eager_efficiency(tally, record.key, preset.source,
                                 preset.security)
    assert (kind == "positive") == (record.key.secure_bits > 0)
    assert (kind == "no-sifted-signal") == (tally.sifted_mu == 0)
    assert record.key.efficiency == expected
    assert record.key.efficiency is record.key.efficiency   # kept


@pytest.mark.parametrize("kind", TALLIES)
def test_keyrate_reports_the_eager_efficiency(preset, tmp_path, capsys, kind):
    tally = _tally(kind, preset)
    counts = tmp_path / "counts.txt"
    counts.write_text("".join(f"{name} = {value}\n"
                              for name, value in tally._asdict().items()))
    assert main(["keyrate", "--out", str(tmp_path), "--tally-file",
                 str(counts)]) == EXIT_OK
    key = distill(tally, preset.source, preset.security)
    expected = session._fmt(_eager_efficiency(tally, key, preset.source,
                                              preset.security))
    header, row = (tmp_path / "keyrate.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["efficiency"] \
        == expected
    assert f"\nefficiency: {expected}\n" in capsys.readouterr().out
