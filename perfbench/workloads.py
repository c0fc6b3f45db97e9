"""Workload definitions and the shared set-up step of every benchmark process.

All three workloads start from ``configs/docking.cfg``; the learn-*
workloads change only the horizon of the recorded trajectory or the VI
stop tolerance, so trajectory integrals (which scale with the horizon)
and the VI loop (which scales with the iteration count) move separately.
The workload seed replaces the config's exploration-noise seed.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from time import perf_counter

CONFIG = "configs/docking.cfg"

WORKLOADS = {
    # run_experiment as users run it: simulate, assembly, VI, oracles, artifact writes
    "docking-ref": {"horizon": None, "eps": None, "trajectory": False},
    # data -> (K, L) on a 100 s recording: assembly-bound, largest working set
    "learn-long": {"horizon": 100.0, "eps": None, "trajectory": True},
    # data -> (K, L) on a 25 s recording with a 10x tighter VI stop: VI-loop-bound
    "learn-tight": {"horizon": 25.0, "eps": 1e-4, "trajectory": True},
}

MODULES = ("dockcli", "adp", "riccati", "regulator", "sysmodels")


class Package:
    """The imported adpdock modules, looked up by attribute at call time."""

    def __init__(self, root):
        src = str(Path(root) / "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"adpdock.{name}"))


def configure(pkg, root, workload, seed):
    """The workload's ExperimentConfig: the reference config plus overrides."""
    spec = WORKLOADS[workload]
    cfg = pkg.dockcli.load_config(str(Path(root) / CONFIG))
    cfg.seed = seed
    if spec["horizon"] is not None:
        cfg.horizon = spec["horizon"]
    if spec["eps"] is not None:
        cfg.eps = spec["eps"]
    return cfg


def setup(root, workload, seed, data_dir):
    """Import adpdock, load the config, build the scenario, read the trajectory.

    This is what ``setup_s`` times, so nothing of adpdock (or numpy) may be
    imported by the caller before it runs. Returns the state and the time
    of each phase.
    """
    t0 = perf_counter()
    pkg = Package(root)
    t1 = perf_counter()
    cfg = configure(pkg, root, workload, seed)
    t2 = perf_counter()
    model, _ = cfg.scenario()
    t3 = perf_counter()
    log = None
    if WORKLOADS[workload]["trajectory"]:
        log = pkg.sysmodels.TrajectoryLog.from_csv(str(Path(data_dir) / "trajectory.csv"))
    t4 = perf_counter()
    phases = {
        "setup.import_s": t1 - t0,
        "setup.load_config_s": t2 - t1,
        "io.read_csv_s": t4 - t3,
        "setup_s": t4 - t0,
    }
    return {"pkg": pkg, "cfg": cfg, "model": model, "log": log}, phases
