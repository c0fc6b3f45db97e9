"""One workload process: set up, repeat the workload's operation, check every result.

    python3 perfbench/workload.py --root . --workload W --seed S --data DIR --work DIR \\
        (--probe | --seconds T --trace 0|1 --trace-file FILE)

``--probe`` only sets up and reports the time of each set-up phase.
Otherwise the process repeats the operation back to back (a closed loop:
one caller, nothing in parallel) for about ``--seconds``. With
``--trace 1`` untraced and traced repetitions alternate, so the tracing
overhead is measured in the same process under the same conditions. The
process prints one JSON object as its last line.

Each repetition is checked: the data matrix must have rank 87 of 87,
|K - K*|max and |L - L*|max must be within the config's gain tolerance,
A - BK must be Hurwitz, and on docking-ref |e(T)|/|e(0)| <= 1e-2.
A repetition that raises or fails a check counts as failed; none is
dropped.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, setup

RANK_REQUIRED = 87
TRACK_RATIO_MAX = 1e-2
MIN_REPS = 3
MIN_TRACED_REPS = 4


def quiet(*args, **kwargs):
    pass


class Runner:
    def __init__(self, state, workload, seed, data, work):
        self.pkg, self.cfg = state["pkg"], state["cfg"]
        self.model, self.log = state["model"], state["log"]
        self.workload, self.seed, self.work = workload, seed, Path(work)
        with open(Path(data) / "oracle.json") as fh:
            oracle = json.load(fh)
        import numpy as np

        self.np = np
        self.K_star, self.L_star = np.asarray(oracle["K"]), np.asarray(oracle["L"])
        self.gain_tol = oracle["gain_tol"]
        self.reps = []
        self.first_rep_rss_mb = None

    # -- the measured operation ------------------------------------------
    def learn_chain(self):
        """kernel_basis -> assemble -> rank -> VI -> recover -> regulator -> feedforward."""
        adp, riccati, regulator, cfg = self.pkg.adp, self.pkg.riccati, self.pkg.regulator, self.cfg
        basis = regulator.kernel_basis(self.model)
        bundles = adp.assemble_regression(self.log, basis, cfg.R, cfg.interval)
        ok, rank, required = adp.check_rank(bundles[0])
        if not ok:
            return rank, required, None, None
        P, K, _ = adp.vi_learn(bundles[0], cfg.Q, cfg.R, P0=cfg.p0_scale * self.np.eye(self.model.n),
                               eps=cfg.eps, ball_schedule=riccati.linear_balls(cfg.ball_base),
                               max_k=cfg.max_k)
        recovery = adp.recover_model_artifacts(bundles, P, K, cfg.R)
        solution = adp.solve_problem1_datadriven(recovery, basis, cfg.Qbar, cfg.Rbar)
        return rank, required, K, regulator.feedforward_gain(solution, K)

    # -- one checked repetition -----------------------------------------
    def repeat(self, call, traced):
        rep = len(self.reps)
        record = {"rep": rep, "traced": traced, "ok": False}
        out = self.work / f"rep-{rep}"
        t0 = perf_counter()
        if self.workload == "docking-ref":
            # looked up at call time, so an installed tracer's wrapper is used
            def operation():
                return self.pkg.dockcli.run_experiment(self.cfg, str(out), self.seed, quiet)
        else:
            operation = self.learn_chain
        try:
            result = call(operation)
            record["time_s"] = perf_counter() - t0
            self.check(result, out, record)
        except Exception as exc:  # a failed repetition is counted, never dropped
            record.setdefault("time_s", perf_counter() - t0)
            record["error"] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if not self.reps:
            self.first_rep_rss_mb = peak_rss_mb()
        self.reps.append(record)
        return record["time_s"]

    def check(self, result, out, record):
        np = self.np
        if self.workload == "docking-ref":
            report = result
            for name in report.files:
                if not (out / name).is_file():
                    raise FileNotFoundError(f"artifact {name} was not written")
            with open(out / "learned_gains.json") as fh:
                gains = json.load(fh)
            K, L = np.asarray(gains["K"]), np.asarray(gains["L"])
            rank, required = report.rank["rank"], report.rank["required"]
            record["track_ratio"] = float(report.tracking["ratio"])
        else:
            rank, required, K, L = result
        record["rank"], record["required"] = int(rank), int(required)
        failures = []
        if not rank == required == RANK_REQUIRED:
            failures.append(f"rank {rank}/{required}, expected {RANK_REQUIRED}/{RANK_REQUIRED}")
        else:
            record["K_gap"] = float(np.max(np.abs(K - self.K_star)))
            record["L_gap"] = float(np.max(np.abs(L - self.L_star)))
            if not record["K_gap"] <= self.gain_tol:
                failures.append(f"K_gap {record['K_gap']:.3e} > {self.gain_tol}")
            if not record["L_gap"] <= self.gain_tol:
                failures.append(f"L_gap {record['L_gap']:.3e} > {self.gain_tol}")
            closed = self.model.A - self.model.B @ K
            if not np.all(np.linalg.eigvals(closed).real < 0):
                failures.append("A - BK is not Hurwitz")
        if "track_ratio" in record and not record["track_ratio"] <= TRACK_RATIO_MAX:
            failures.append(f"track_ratio {record['track_ratio']:.3e} > {TRACK_RATIO_MAX}")
        record["ok"] = not failures
        if failures:
            record["error"] = "; ".join(failures)

    def measure(self, budget, min_reps, modes):
        """Repeat, cycling through ``modes`` of (call, traced), until the next
        repetition would likely end past ``budget`` seconds.

        Returns the repetition times keyed by ``traced``.
        """
        times = {traced: [] for _, traced in modes}
        done = []
        start = perf_counter()
        for call, traced in itertools.cycle(modes):
            if len(done) >= min_reps and perf_counter() - start + statistics.median(done) > budget:
                return times
            done.append(self.repeat(call, traced))
            times[traced].append(done[-1])


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def plain_call(operation):
    return operation()


def machine(np):
    """The hardware and numerical stack the result was measured on."""
    import platform

    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
    }


def blas_threads(np):
    """Thread count of the OpenBLAS bundled with numpy, or None if not found."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file")
    args = parser.parse_args()

    state, phases = setup(args.root, args.workload, args.seed, args.data)
    if args.probe:
        print(json.dumps({"phases": phases}))
        return

    runner = Runner(state, args.workload, args.seed, args.data, args.work)
    result = {"phases": phases, "machine": machine(runner.np)}
    if not args.trace:
        result["times"] = runner.measure(args.seconds, MIN_REPS, [(plain_call, False)])[False]
    else:
        import tracer as tr

        tracer = tr.Tracer()

        def traced_call(operation):
            tracer.begin_rep(len(runner.reps))
            tr.install(tracer, runner.pkg)
            try:
                return tracer.call("rep", operation)
            finally:
                tracer.uninstall()

        # alternate untraced and traced repetitions so drift of the machine
        # affects both alike and the tracing overhead can be read off
        times = runner.measure(args.seconds, MIN_TRACED_REPS,
                               [(plain_call, False), (traced_call, True)])
        traced_reps = [r["rep"] for r in runner.reps if r["traced"]]
        result["times"] = times[False]
        result["layers"] = tr.median_metrics([tr.rep_metrics(tracer, rep) for rep in traced_reps])
        result["layers"]["trace.overhead_frac"] = (statistics.median(times[True])
                                                   / statistics.median(times[False]) - 1.0)
        result["missing"] = tracer.missing
        tracer.dump(args.trace_file, {"workload": args.workload, "seed": args.seed,
                                      "machine": result["machine"], "reps": runner.reps})
    result["reps"] = runner.reps
    result["peak_rss_mb"] = runner.first_rep_rss_mb
    result["run_peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
