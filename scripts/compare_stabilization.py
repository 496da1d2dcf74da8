#!/usr/bin/env python3
"""Run sessions with the feedback loops on and off and tabulate the signal
transmittance decay, reproducing the stabilized-versus-free-running
comparison.

The two sessions share a seed and so see the same environmental drift,
step for step: only the feedback loops differ between them.
"""
import argparse
import dataclasses

from qkdsim import Config
from qkdsim.config import SimConfig
from qkdsim.session import run_session


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=21600.0,
                        help="seconds per session (default: 6 h)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="stabilization_compare.csv")
    args = parser.parse_args()

    cfg = Config().validated()
    runs = {}
    for label, enabled in (("on", True), ("off", False)):
        sim = SimConfig(duration=args.duration, stabilization_enabled=enabled)
        result = run_session(dataclasses.replace(cfg, sim=sim), seed=args.seed)
        runs[label] = [r.trans_mu for r in result.rows]

    with open(args.out, "w") as fh:
        fh.write("time_s,trans_mu_loops_on,trans_mu_loops_off\n")
        for t, (on, off) in enumerate(zip(runs["on"], runs["off"])):
            fh.write(f"{t},{'' if on is None else f'{on:.9g}'},"
                     f"{'' if off is None else f'{off:.9g}'}\n")

    initial = next(v for v in runs["off"] if v is not None)
    final_off = next(v for v in reversed(runs["off"]) if v is not None)
    final_on = next(v for v in reversed(runs["on"]) if v is not None)
    print(f"loops on : final transmittance {final_on / initial:6.1%} of initial")
    print(f"loops off: final transmittance {final_off / initial:6.1%} of initial")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
