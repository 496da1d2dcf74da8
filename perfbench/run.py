#!/usr/bin/env python3
"""qkdsim benchmark: one workload per run, closed loop, one process.

Usage, from the root of a source checkout (nothing needs installing; the
package is imported from ./src):

    python3 perfbench/run.py --workload session-36h --seed 1 --seconds 30 --trace 0

Workloads (see README.md for their inputs and why each was chosen):
    session-36h        `qkdsim simulate` over 36 h at the paper's defaults
    ensemble-sweep     paired loops-on/off short sessions at ~10, 50, 100 km
    finite-key-design  `qkdsim optimize` at three budgets + `efficiency-curve`

A run first sets up (timed in fresh interpreters), warms up untimed, then
repeats whole rounds of the workload's operations, each round on the same
seed-derived inputs, until `--seconds` would be exceeded.  Every time it
reports is scaled to a reference machine speed (speed.py).  Every output is
checked.  The last line on stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  Results and traces are
also written under perfbench/out/.
"""
from __future__ import annotations

import os

# One worker thread: keep numpy's BLAS from starting a pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 7
# Kernel runs just before and just after each timed operation (speed.py).
BOUNDARY_REPS = 2
SETUP_CALIBRATION_REPS = 30
# What a user pays before the first operation: interpreter start, imports
# and config validation.  The interpreter then says so, and times the
# calibration kernel (speed.py) at the speed it met.
SETUP_CODE = ("import qkdsim.cli, qkdsim.session\n"
              "from qkdsim.config import Config\n"
              "Config().validated()\n"
              "print('ready', flush=True)\n"
              "import sys\n"
              f"sys.path.insert(0, {str(BENCH)!r})\n"
              "import speed\n"
              "print(speed.kernel_mean(speed.calibrate("
              f"{SETUP_CALIBRATION_REPS})))\n")


@dataclass
class Op:
    """One call into the program's public entry points."""

    name: str
    run: object       # () -> raw result; the only timed part
    collect: object   # (raw result) -> output, e.g. the files read back
    check: object     # (output) -> list of problems


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[Op]
    steps_per_round: int      # closed-loop steps, or design-loop steps
    evals_per_round: object   # (outputs of one round) -> key-length evaluations
    digest: object            # (outputs of one round) -> bytes, equal every round
    inputs: dict              # what the seed chose


class OpFailed(Exception):
    pass


def cli(argv: list[str]) -> str:
    """Run `qkdsim.cli.main(argv)`; return its stdout, raise on exit != 0."""
    import qkdsim.cli
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            status = qkdsim.cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    if status != 0:
        raise OpFailed(f"qkdsim {' '.join(argv)} exited with {status}")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Workloads.  Each builds its inputs from the seed alone.
# ---------------------------------------------------------------------------

def session_36h(seed: int, work: Path) -> Workload:
    """The paper's headline run: one stabilized 36 h session at the defaults,
    through `simulate`, which writes telemetry.csv, keys.csv, summary.txt."""
    import numpy as np
    import checks
    from qkdsim.config import Config

    session_seed = int(np.random.default_rng(seed).integers(1, 2**31 - 1))
    config = Config().validated()

    def simulate(duration: float, out: Path) -> Op:
        argv = ["simulate", "--out", str(out), "--seed", str(session_seed),
                "--duration", repr(duration)]

        def collect(_):
            digest = hashlib.sha256()
            for name in ("telemetry.csv", "keys.csv", "summary.txt"):
                with (out / name).open("rb") as fh:
                    digest.update(hashlib.file_digest(fh, "sha256").digest())
            with (out / "telemetry.csv").open("rb") as telemetry:
                output = checks.read_session_files(
                    telemetry, (out / "keys.csv").read_text(),
                    (out / "summary.txt").read_text())
            return output, digest.digest()

        def check(output):
            return checks.check_session(output[0], config, duration)
        return Op("simulate", lambda: cli(argv), collect, check)

    return Workload(
        ops=[simulate(config.sim.duration, work / "session")],
        warmup=[simulate(config.security.distill_interval, work / "warmup")],
        steps_per_round=int(config.sim.duration / config.sim.time_step),
        evals_per_round=lambda outs: len(outs[0][0].windows),
        digest=lambda outs: outs[0][1],
        inputs={"session_seed": session_seed,
                "duration_s": config.sim.duration})


ENSEMBLE_LENGTHS_KM = (10.0, 50.0, 100.0)
ENSEMBLE_WINDOW_S = 120.0
ENSEMBLE_WINDOWS = 5


def ensemble_sweep(seed: int, work: Path) -> Workload:
    """Many short sessions without export: loops-on and loops-off runs of the
    same session seed at fiber lengths of about 10, 50 and 100 km."""
    import numpy as np
    import checks
    import qkdsim.session
    from qkdsim.config import Config, LinkConfig, SecurityConfig, SimConfig

    rng = np.random.default_rng(seed)
    lengths = [float(km * f) for km, f in
               zip(ENSEMBLE_LENGTHS_KM, rng.uniform(0.9, 1.1, 3))]
    seeds = [int(s) for s in rng.integers(1, 2**31 - 1, 3)]
    duration = ENSEMBLE_WINDOW_S * ENSEMBLE_WINDOWS

    def session(length: float, session_seed: int, loops: bool) -> Op:
        config = Config(
            link=LinkConfig(fiber_length=length),
            security=SecurityConfig(distill_interval=ENSEMBLE_WINDOW_S),
            sim=SimConfig(duration=duration, stabilization_enabled=loops))

        def run():
            # looked up at call time, so a traced run sees the wrapper
            return qkdsim.session.run_session(config, duration=duration,
                                              seed=session_seed)

        def check(output):
            return checks.check_session(output, config, duration)
        return Op(f"run_session[{length:.1f} km, loops {'on' if loops else 'off'}]",
                  run, checks.session_from_result, check)

    ops = [session(length, s, loops) for length, s in zip(lengths, seeds)
           for loops in (True, False)]

    def digest(outs):
        return repr([(o.summary["total_secure_bits"], o.summary["mean_qber_signal"])
                     for o in outs]).encode()

    return Workload(
        ops=ops, warmup=[ops[0]],
        steps_per_round=len(ops) * int(duration / SimConfig().time_step),
        evals_per_round=lambda outs: sum(len(o.windows) for o in outs),
        digest=digest,
        inputs={"fiber_length_km": lengths, "session_seeds": seeds,
                "duration_s": duration, "distill_interval_s": ENSEMBLE_WINDOW_S})


DESIGN_BUDGET_FACTORS = (0.5, 1.0, 2.0)
CURVE_MIN, CURVE_MAX, CURVE_POINTS = 1e9, 1e15, 400


def finite_key_design(seed: int, work: Path) -> Workload:
    """The finite-key design loop: `optimize` at the default 5 sweeps at three
    pulse budgets around the paper's 1.2e12, and a dense `efficiency-curve`.
    Nothing is sampled."""
    import numpy as np
    import checks
    from qkdsim.config import Config

    config = Config().validated()
    rng = np.random.default_rng(seed)
    budgets = [float(checks.PAPER_EFFICIENCY_PULSES * f * j) for f, j in
               zip(DESIGN_BUDGET_FACTORS, rng.uniform(0.9, 1.1, 3))]
    start_rates: dict[float, float] = {}

    def keyrate(n: float) -> Op:
        out = work / f"keyrate-{len(start_rates)}"

        def collect(_):
            header, row = (out / "keyrate.csv").read_text().splitlines()
            start_rates[n] = int(row.split(",")[0]) / n
            return start_rates[n]
        return Op("keyrate",
                  lambda: cli(["keyrate", "--n-pulses", repr(n), "--out", str(out)]),
                  collect, lambda rate: [])

    def optimize(n: float, i: int) -> Op:
        out = work / f"optimize-{i}"

        def collect(report):
            fields = dict(line.split(": ", 1) for line in report.splitlines())
            best = {}
            for line in (out / "best_config.cfg").read_text().splitlines():
                key, sep, value = line.partition(" = ")
                if sep and key in ("mu", "nu1", "nu2", "p_mu", "p_nu1", "p_nu2"):
                    best[key] = float(value)
            return (report, float(fields["rate_bits_per_pulse"]),
                    int(fields["evaluations"]), best)

        def check(output):
            _, rate, _, best = output
            if n not in start_rates:
                return ["no start rate: the keyrate warm-up failed"]
            return checks.check_optimum(best, rate, start_rates[n],
                                        config.link, config.security)
        return Op(f"optimize[{n:.4g}]",
                  lambda: cli(["optimize", "--n-pulses", repr(n), "--out", str(out)]),
                  collect, check)

    def curve(lo: float, hi: float, points: int, out: Path) -> Op:
        argv = ["efficiency-curve", "--min-pulses", repr(lo), "--max-pulses",
                repr(hi), "--points", str(points), "--out", str(out)]

        def collect(text):
            rows = [line.split(",") for line in text.splitlines()[1:]]
            return text, [float(r[0]) for r in rows], [float(r[1]) for r in rows]

        def check(output):
            _, ns, effs = output
            problems = checks.check_efficiency_curve(ns, effs, lo, hi, points)
            if lo == hi == checks.PAPER_EFFICIENCY_PULSES and effs:
                problems += checks.check_paper_efficiency(effs[0])
            return problems
        return Op("efficiency-curve", lambda: cli(argv), collect, check)

    paper = checks.PAPER_EFFICIENCY_PULSES
    ops = [optimize(n, i) for i, n in enumerate(budgets)]
    ops.append(curve(CURVE_MIN, CURVE_MAX, CURVE_POINTS, work / "curve"))
    warmup = [keyrate(n) for n in budgets]
    warmup.append(curve(paper, paper, 1, work / "paper-point"))

    def evals(outs):
        return sum(o[2] for o in outs[:-1]) + len(outs[-1][1])

    return Workload(
        ops=ops, warmup=warmup,
        steps_per_round=0,    # no closed-loop step; see README
        evals_per_round=evals,
        digest=lambda outs: "".join(o[0] for o in outs).encode(),
        inputs={"n_pulses": budgets, "curve": [CURVE_MIN, CURVE_MAX,
                                               CURVE_POINTS]})


WORKLOADS = {
    "session-36h": session_36h,
    "ensemble-sweep": ensemble_sweep,
    "finite-key-design": finite_key_design,
}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure_setup() -> tuple[list[float], list[float], list[str]]:
    """Wall times from the start of a fresh interpreter until it has imported
    and validated, and the kernel's time in that interpreter just after."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, kernel, problems = [], [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=env,
                                cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            out, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or ready != "ready\n":
            problems.append(f"set-up exited with {proc.returncode}: "
                            f"{err.strip()[-300:]}")
            continue
        times.append(elapsed)
        kernel.append(float(out))
    return times, kernel, problems


def call(op: Op, problems: list[str], sampler):
    """Run one operation; return (ok, output, seconds).  The seconds leave
    out the sampler's handler, and `sampler.during` holds the kernel times
    it took during the operation."""
    first, handler_s = len(sampler.samples), sampler.handler_s
    start = time.perf_counter()
    try:
        with sampler.running():
            raw = op.run()
        elapsed = time.perf_counter() - start - (sampler.handler_s - handler_s)
        output = op.collect(raw)
    except Exception:   # an operation that fails is counted, not fatal
        print(f"operation {op.name} failed:\n{traceback.format_exc()}",
              file=sys.stderr)
        return False, None, time.perf_counter() - start
    finally:
        sampler.during = sampler.samples[first:]
    problems.extend(f"{op.name}: {p}" for p in op.check(output))
    return True, output, elapsed


def run(workload_name: str, seed: int, seconds: float,
        trace: bool) -> tuple[dict, dict]:
    """One benchmark run: the printed result, and the raw samples."""
    import checks
    import speed
    import tracing

    work = OUT / f"work-{os.getpid()}"
    problems: list[str] = []
    cp_calls: list[tuple] = []
    attempted = failed = rounds = 0
    latencies: list[float] = []    # raw seconds of each operation
    kernel: list[float] = []       # the kernel's mean time around each
    sampler = speed.Sampler()
    tracer = tracing.Tracer() if trace else None
    try:
        workload = WORKLOADS[workload_name](seed, work)
        with tracing.record_clopper_pearson(cp_calls):
            for op in workload.warmup:
                ok, _, _ = call(op, problems, sampler)
                if not ok:
                    problems.append(f"warm-up {op.name} failed")
            speed.calibrate(BOUNDARY_REPS)   # warm the kernel too
            setup_raw, setup_kernel, setup_problems = measure_setup()
            problems += setup_problems
            problems += checks.check_cp_endpoints(cp_calls)
            cp_calls.clear()

            first_digest = evals = None
            with tracer.patch() if tracer else contextlib.nullcontext():
                begin = time.perf_counter()
                boundary = speed.calibrate(BOUNDARY_REPS)
                while True:
                    outputs = []
                    for op in workload.ops:
                        if tracer:
                            tracer.operation = attempted
                            op = replace(op, run=tracer.span(
                                f"op.{op.name}", op.run, True))
                        attempted += 1
                        ok, output, elapsed = call(op, problems, sampler)
                        failed += not ok
                        latencies.append(elapsed)
                        after = speed.calibrate(BOUNDARY_REPS)
                        kernel.append(speed.kernel_mean(
                            boundary + sampler.during + after))
                        boundary = after
                        outputs.append(output)
                    rounds += 1
                    problems += checks.check_cp_endpoints(cp_calls)
                    cp_calls.clear()
                    if all(o is not None for o in outputs):
                        digest = workload.digest(outputs)
                        first_digest = first_digest or digest
                        if digest != first_digest:
                            problems.append("a round on the same inputs gave "
                                            "different outputs")
                        evals = workload.evals_per_round(outputs)
                    spent = time.perf_counter() - begin
                    if spent * (rounds + 1) / rounds > seconds:
                        break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Medians over the whole run, of times scaled to the reference speed.
    op_s = [t * speed.CALIBRATION_REF_S / k for t, k in zip(latencies, kernel)]
    per_round = len(workload.ops)
    round_s = [sum(op_s[i:i + per_round])
               for i in range(0, len(op_s), per_round)]
    wall_s = statistics.median(round_s)
    setup_s = statistics.median(
        [t * speed.CALIBRATION_REF_S / k
         for t, k in zip(setup_raw, setup_kernel)] or [math.nan])
    evals = evals or 0
    steps = workload.steps_per_round or evals
    if len(op_s) >= 2:
        p90 = statistics.quantiles(op_s, n=10, method="inclusive")[-1]
    else:
        p90 = op_s[0]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)

    if tracer:
        # Per-layer times at the reference speed too, by the run's own scale.
        scale = sum(op_s) / sum(latencies)
        metrics = {name: (value * scale if unit in ("s", "ms", "us") else value,
                          unit)
                   for name, (value, unit) in tracer.per_layer().items()}
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{workload_name}-seed{seed}.json").write_text(json.dumps({
            "workload": workload_name, "seed": seed, "inputs": workload.inputs,
            "rounds": len(round_s), "wall_s": wall_s, **tracer.dump()}))
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            "steps_per_s": (steps / wall_s, "1/s"),
            "session_p50_ms": (statistics.median(op_s) * 1e3, "ms"),
            "session_p90_ms": (p90 * 1e3, "ms"),
            "evals_per_s": (evals / wall_s, "1/s"),
        }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, {"inputs": workload.inputs, "round_s": round_s,
        "operation_s": op_s, "raw_operation_s": latencies,
        "kernel_s": kernel, "kernel_samples": len(sampler.samples),
        "raw_setup_s": setup_raw,
        "setup_kernel_s": setup_kernel, "problems": problems}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qkdsim" / "__init__.py").is_file():
        print(f"qkdsim sources not found under {SRC}; run from a source "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qkdsim
    if Path(qkdsim.__file__).resolve().parent != SRC / "qkdsim":
        print(f"imported qkdsim from {qkdsim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    result, samples = run(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({**result, "samples": samples}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
