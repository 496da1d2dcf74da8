"""Output checks for the qkdsim benchmark.

Every check compares the program's outputs with quantities this module
computes itself from the inputs (the configuration the benchmark built),
never with a saved copy of earlier output.  Each check returns a list of
problems; an empty list means the output passed.

The link model below is written out here from the physics, independently of
`qkdsim.channel`: a Poissonian source of mean mu, channel-plus-detector
transmittance eta, background yield Y0 per gate, photon clicks that err with
the intrinsic misalignment probability and background-only clicks that err
with probability 1/2.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from types import SimpleNamespace

from scipy import special

# Tolerances, each with the reason it has the width it has.
# Stabilized signal gain against the drift-free model: the residual
# polarization and gate-timing errors the loops leave cost ~0.1% today.
GAIN_TOL = 0.01
# Stabilized mean signal QBER against the drift-free model (absolute), as in
# the paper's "3.85% +/- 0.5%" claim.
QBER_TOL = 0.005
# summary.txt and the CSVs print 9 significant digits.
PRINT_RTOL = 1e-8
# Efficiency targets of the paper: 96% at 1.2e12 pulses, ~1 at 1e15.
PAPER_EFFICIENCY = 0.96
PAPER_EFFICIENCY_PULSES = 1.2e12
PAPER_EFFICIENCY_TOL = 0.03
LARGE_BUDGET_EFFICIENCY_TOL = 0.01

CLASSES = ("mu", "nu1", "nu2")


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


@dataclass(frozen=True)
class LinkModel:
    """Drift-free signal statistics and the infinite-decoy GLLP bound."""

    gain: float            # Q_mu, detections per sent signal pulse
    qber: float            # E_mu
    gllp_per_pulse: float  # secure bits per emitted pulse, true Y1 and e1


def link_model(source, link, security) -> LinkModel:
    """The benchmark's own drift-free model of the signal class.

    The GLLP rate is 1/2 * p_mu * [Q1 (1 - H(e1)) - f Q_mu H(E_mu)] with the
    true single-photon gain Q1 = mu e^-mu Y1, i.e. with infinitely many
    decoys and infinite statistics; no finite-size window can beat it.
    """
    eta = (10.0 ** (-link.loss_coefficient * link.fiber_length / 10.0)
           * link.detector_efficiency)
    y0 = 1.0 - (1.0 - link.dark_count_prob) ** link.num_detectors
    e_mis = min(link.intrinsic_misalignment_error, 0.5)
    mu = source.mu
    photon = 1.0 - math.exp(-mu * eta)
    gain = 1.0 - (1.0 - y0) * math.exp(-mu * eta)
    qber = (0.5 * y0 * (1.0 - photon) + e_mis * photon) / gain
    y1 = eta + y0 * (1.0 - eta)
    e1 = (e_mis * eta + 0.5 * y0 * (1.0 - eta)) / y1
    q1 = mu * math.exp(-mu) * y1
    rate = 0.5 * source.p_mu * (q1 * (1.0 - binary_entropy(e1))
                                - security.ec_efficiency * gain
                                * binary_entropy(qber))
    return LinkModel(gain=gain, qber=qber, gllp_per_pulse=max(0.0, rate))


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------

@dataclass
class Window:
    start: float
    end: float
    sifted: dict[str, int]
    errors: dict[str, int]
    secure_bits: int
    secure_rate_bps: float
    efficiency: float


@dataclass
class SessionOutput:
    """What one session produced, read from files or from a SessionResult."""

    times: list[float]        # time_s of every telemetry row
    windows: list[Window]
    summary: dict[str, float]  # steps, windows, total_secure_bits,
    #                            mean_secure_rate_bps, mean_qber_signal


def _close(a: float, b: float, rtol: float = PRINT_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def check_session(out: SessionOutput, config, duration: float) -> list[str]:
    """Accounting identities and physics bounds for one session."""
    problems: list[str] = []
    source, link, security, sim = (config.source, config.link,
                                   config.security, config.sim)
    dt, interval = sim.time_step, security.distill_interval
    n_steps = int(math.floor(duration / dt + 1e-9))
    n_windows = int(math.floor(n_steps * dt / interval + 1e-9))

    if len(out.times) != n_steps:
        problems.append(f"telemetry has {len(out.times)} rows, expected "
                        f"{n_steps} (one per step)")
    bad = next((i for i, t in enumerate(out.times)
                if not _close(t, i * dt, 1e-12)), None)
    if bad is not None:
        problems.append(f"telemetry row {bad} has time_s {out.times[bad]}, "
                        f"expected {bad * dt}")
    if len(out.windows) != n_windows:
        problems.append(f"{len(out.windows)} key windows, expected {n_windows}")
    s = out.summary
    if s.get("steps") != n_steps:
        problems.append(f"summary steps {s.get('steps')} != {n_steps}")
    if s.get("windows") != len(out.windows):
        problems.append(f"summary windows {s.get('windows')} != "
                        f"{len(out.windows)} rows of keys")

    total = sum(w.secure_bits for w in out.windows)
    if s.get("total_secure_bits") != total:
        problems.append(f"total_secure_bits {s.get('total_secure_bits')} != "
                        f"sum over windows {total}")
    window_time = len(out.windows) * interval
    if window_time > 0 and not _close(s["mean_secure_rate_bps"],
                                      total / window_time):
        problems.append(f"mean_secure_rate_bps {s['mean_secure_rate_bps']} != "
                        f"total bits / window time {total / window_time}")

    model = link_model(source, link, security)
    gllp_bps = model.gllp_per_pulse * source.clock_rate
    probs = {"mu": source.p_mu, "nu1": source.p_nu1, "nu2": source.p_nu2}
    sent_max = {c: math.ceil(source.clock_rate * interval * probs[c])
                for c in CLASSES}
    for i, w in enumerate(out.windows):
        if not (_close(w.start, i * interval, 1e-12)
                and _close(w.end, (i + 1) * interval, 1e-12)):
            problems.append(f"window {i} spans [{w.start}, {w.end}], expected "
                            f"[{i * interval}, {(i + 1) * interval}]")
        for c in CLASSES:
            if not 0 <= w.errors[c] <= w.sifted[c] <= sent_max[c]:
                problems.append(f"window {i} class {c}: need 0 <= errors "
                                f"{w.errors[c]} <= sifted {w.sifted[c]} <= "
                                f"sent {sent_max[c]}")
        if w.secure_bits < 0 or not _close(w.secure_rate_bps,
                                           w.secure_bits / interval):
            problems.append(f"window {i}: secure_rate_bps {w.secure_rate_bps} "
                            f"!= secure_bits {w.secure_bits} / {interval} s")
        if w.secure_rate_bps > gllp_bps:
            problems.append(f"window {i}: secure rate {w.secure_rate_bps:.6g} "
                            f"bit/s exceeds the GLLP bound {gllp_bps:.6g}")
        if not 0.0 <= w.efficiency <= 1.0:
            problems.append(f"window {i}: efficiency {w.efficiency} outside [0, 1]")

    if out.windows:
        sent = len(out.windows) * source.clock_rate * interval * source.p_mu
        gain = 2.0 * sum(w.sifted["mu"] for w in out.windows) / sent
        if sim.stabilization_enabled:
            if abs(gain / model.gain - 1.0) > GAIN_TOL:
                problems.append(f"signal gain {gain:.6g} differs from the model "
                                f"{model.gain:.6g} by more than {GAIN_TOL:.0%}")
        elif gain > model.gain * (1.0 + GAIN_TOL):
            problems.append(f"free-running signal gain {gain:.6g} exceeds the "
                            f"drift-free model {model.gain:.6g}")
        sifted = sum(w.sifted["mu"] for w in out.windows)
        if sifted > 0:
            qber = sum(w.errors["mu"] for w in out.windows) / sifted
            if not _close(s["mean_qber_signal"], qber):
                problems.append(f"mean_qber_signal {s['mean_qber_signal']} != "
                                f"window errors / sifted {qber}")
            if (sim.stabilization_enabled
                    and abs(s["mean_qber_signal"] - model.qber) > QBER_TOL):
                problems.append(f"stabilized mean QBER {s['mean_qber_signal']:.5f}"
                                f" not within {QBER_TOL} of {model.qber:.5f}")
    return problems


def session_from_result(result) -> SessionOutput:
    """Read a `qkdsim.session.SessionResult` into the checked form."""
    windows = [Window(
        start=r.window_start, end=r.window_end,
        sifted={c: getattr(r.tally, f"sifted_{c}") for c in CLASSES},
        errors={c: getattr(r.tally, f"errors_{c}") for c in CLASSES},
        secure_bits=r.key.secure_bits, secure_rate_bps=r.secure_rate,
        efficiency=r.key.efficiency) for r in result.records]
    s = result.summary
    return SessionOutput(
        times=[row.time_s for row in result.rows],
        windows=windows,
        summary={"steps": s.n_steps, "windows": s.n_windows,
                 "total_secure_bits": s.total_secure_bits,
                 "mean_secure_rate_bps": s.mean_secure_rate_bps,
                 "mean_qber_signal": s.mean_qber_signal})


TELEMETRY_COLUMNS = 18
KEYS_COLUMNS = ("window_start_s", "window_end_s", "sifted_mu", "errors_mu",
                "sifted_nu1", "errors_nu1", "sifted_nu2", "errors_nu2",
                "qber_mu", "y1_lower", "e1_upper", "secure_bits",
                "secure_rate_bps", "efficiency")


def read_session_files(telemetry: Iterable[bytes], keys: str,
                       summary: str) -> SessionOutput:
    """Parse telemetry.csv (an iterable of its lines, so the 23 MB file of a
    36 h session is never held whole), keys.csv and summary.txt as
    `simulate` wrote them.  Raises ValueError on a malformed file.
    """
    lines = iter(telemetry)
    if next(lines).count(b",") != TELEMETRY_COLUMNS - 1:
        raise ValueError("telemetry.csv header has the wrong width")
    times = []
    for i, row in enumerate(lines):
        if row.count(b",") != TELEMETRY_COLUMNS - 1 or not row.endswith(b"\n"):
            raise ValueError(f"telemetry.csv row {i} is malformed")
        times.append(float(row[:row.index(b",")]))

    key_lines = keys.splitlines()
    if tuple(key_lines[0].split(",")) != KEYS_COLUMNS:
        raise ValueError("keys.csv header is not the expected schema")
    windows = []
    for line in key_lines[1:]:
        v = dict(zip(KEYS_COLUMNS, line.split(",")))
        windows.append(Window(
            start=float(v["window_start_s"]), end=float(v["window_end_s"]),
            sifted={c: int(v[f"sifted_{c}"]) for c in CLASSES},
            errors={c: int(v[f"errors_{c}"]) for c in CLASSES},
            secure_bits=int(v["secure_bits"]),
            secure_rate_bps=float(v["secure_rate_bps"]),
            efficiency=float(v["efficiency"])))

    fields = dict(line.split(": ", 1) for line in summary.splitlines())
    parsed = {"steps": int(fields["steps"]), "windows": int(fields["windows"]),
              "total_secure_bits": int(fields["total_secure_bits"]),
              "mean_secure_rate_bps": float(fields["mean_secure_rate_bps"]),
              "mean_qber_signal": (float(fields["mean_qber_signal"])
                                   if fields["mean_qber_signal"] else None)}
    return SessionOutput(times=times, windows=windows, summary=parsed)


# ---------------------------------------------------------------------------
# Finite-key design
# ---------------------------------------------------------------------------

def check_efficiency_curve(ns: list[float], effs: list[float],
                           min_pulses: float, max_pulses: float,
                           points: int) -> list[str]:
    problems = []
    if len(ns) != points or len(effs) != points:
        return [f"efficiency curve has {len(ns)} points, expected {points}"]
    if not (_close(ns[0], min_pulses) and _close(ns[-1], max_pulses)):
        problems.append(f"curve spans {ns[0]:.6g}..{ns[-1]:.6g}, expected "
                        f"{min_pulses:.6g}..{max_pulses:.6g}")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        problems.append("curve pulse counts are not increasing")
    if any(not 0.0 <= e <= 1.0 for e in effs):
        problems.append("an efficiency lies outside [0, 1]")
    drop = next((i for i in range(1, len(effs)) if effs[i] < effs[i - 1]), None)
    if drop is not None:
        problems.append(f"efficiency falls from {effs[drop - 1]} to {effs[drop]} "
                        f"between n = {ns[drop - 1]:.6g} and {ns[drop]:.6g}")
    if _close(ns[-1], 1e15) and abs(effs[-1] - 1.0) > LARGE_BUDGET_EFFICIENCY_TOL:
        problems.append(f"efficiency at 1e15 pulses is {effs[-1]}, not within "
                        f"{LARGE_BUDGET_EFFICIENCY_TOL} of 1")
    return problems


def check_paper_efficiency(eff: float) -> list[str]:
    if abs(eff - PAPER_EFFICIENCY) > PAPER_EFFICIENCY_TOL:
        return [f"efficiency at {PAPER_EFFICIENCY_PULSES:.3g} pulses is {eff}, "
                f"not within {PAPER_EFFICIENCY_TOL} of {PAPER_EFFICIENCY}"]
    return []


def check_optimum(best: dict[str, float], rate: float, start_rate: float,
                  link, security) -> list[str]:
    """The optimizer's best source is valid and its rate lies between the
    start configuration's rate and the GLLP bound at that source."""
    problems = []
    mu, nu1, nu2 = best["mu"], best["nu1"], best["nu2"]
    ps = (best["p_mu"], best["p_nu1"], best["p_nu2"])
    if not (mu > nu1 > nu2 >= 0.0 and nu1 + nu2 < mu):
        problems.append(f"best intensities mu={mu} nu1={nu1} nu2={nu2} break "
                        f"mu > nu1 > nu2 >= 0, nu1 + nu2 < mu")
    if not all(0.0 < p < 1.0 for p in ps) or abs(sum(ps) - 1.0) > 1e-12:
        problems.append(f"best send probabilities {ps} are not a distribution")
    if rate < start_rate * (1.0 - PRINT_RTOL):
        problems.append(f"optimized rate {rate} is below the start rate "
                        f"{start_rate}")
    bound = link_model(SimpleNamespace(mu=mu, p_mu=ps[0]), link,
                       security).gllp_per_pulse
    if rate > bound:
        problems.append(f"optimized rate {rate} exceeds the GLLP bound "
                        f"{bound} at the best source")
    return problems


def check_cp_endpoints(calls) -> list[str]:
    """Each (successes, trials, epsilon, lower, upper) leaves at most
    epsilon/2 in each tail, by scipy's forward betainc/betaincc."""
    problems = []
    for k, n, eps, lower, upper in calls:
        half = eps / 2.0
        if not 0.0 <= lower <= k / n <= upper <= 1.0:
            problems.append(f"CP({k}, {n}): [{lower}, {upper}] does not "
                            f"bracket {k / n}")
            continue
        if k > 0:
            tail = special.betainc(float(k), float(n - k + 1), lower)
            if not tail <= half:
                problems.append(f"CP({k}, {n}) lower {lower!r} leaves {tail} "
                                f"> eps/2 = {half}")
        if k < n:
            tail = special.betaincc(float(k + 1), float(n - k), upper)
            if not tail <= half:
                problems.append(f"CP({k}, {n}) upper {upper!r} leaves {tail} "
                                f"> eps/2 = {half}")
        if len(problems) >= 10:
            break
    return problems
