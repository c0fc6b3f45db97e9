"""Seeded input generator: recorded trajectory CSV plus model-based oracle gains.

Run in its own process so neither its time nor its memory counts toward
a workload:

    python3 perfbench/generate.py --root . --workload learn-long --seed 3 --out DIR

Writes ``DIR/oracle.json`` (K*, L*, P* from model_based_vi -> kleinman_pi
-> solve_regulator_exact) and, for workloads that learn from a recording,
``DIR/trajectory.csv`` from the seeded ``collect_data``. The same seed
gives byte-identical files; run.py checks that by generating twice.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Package, configure


def generate(root, workload, seed, out):
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    pkg = Package(root)
    cfg = configure(pkg, root, workload, seed)
    model, exo = cfg.scenario()
    if WORKLOADS[workload]["trajectory"]:
        log = pkg.adp.collect_data(model, exo, None, cfg.noise_spec(seed=seed), cfg.x0,
                                   horizon=cfg.horizon, dt=cfg.dt, interval=cfg.interval)
        log.to_csv(out / "trajectory.csv")

    P0 = cfg.p0_scale * np.eye(model.n)
    _, K_vi, _ = pkg.riccati.model_based_vi(
        model, cfg.Q, cfg.R, P0=P0, eps=cfg.eps,
        ball_schedule=pkg.riccati.linear_balls(cfg.ball_base), max_k=cfg.max_k)
    P_star, K_star, _ = pkg.riccati.kleinman_pi(model, cfg.Q, cfg.R, K_vi)
    exact = pkg.regulator.solve_regulator_exact(model, exo, cfg.Qbar, cfg.Rbar)
    L_star = pkg.regulator.feedforward_gain(exact, K_star)
    with open(out / "oracle.json", "w") as fh:
        json.dump({"K": K_star.tolist(), "L": L_star.tolist(), "P": P_star.tolist(),
                   "gain_tol": cfg.gain_tol}, fh, indent=1)
        fh.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.root, args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
