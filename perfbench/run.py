"""adpdock benchmark: time from data to (K, L), the reference docking run, and gain accuracy.

    python3 perfbench/run.py --workload docking-ref --seed 3 --seconds 50 --trace 0

Run from anywhere; the repository root is the parent of this directory.
Workloads (see workloads.py and README.md): docking-ref, learn-long,
learn-tight. The seed is the exploration-noise seed.

Steps, each in its own process:
1. generate the inputs twice from the seed (trajectory CSV and oracle
   gains) and check that both copies are byte-identical; untimed;
2. set up in several fresh processes to time ``setup_s``;
3. run the workload process, which sets up once more, repeats the
   workload's operation back to back for ``--seconds`` and checks every
   result against the oracle.

With ``--trace 0`` the last line reports the end-to-end metrics
(``setup_s``, ``run_s``, ``peak_rss_mb``); with ``--trace 1`` the
per-layer metrics from the traced repetitions, which alternate with
untraced ones. The metric names and
units are those declared in BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
REQUIRED = ("src/adpdock/__init__.py", "configs/docking.cfg", "BENCHMARK.json")
WORKLOADS = ("docking-ref", "learn-long", "learn-tight")

# fresh set-up-only processes; the workload process adds one more sample
SETUP_PROBES = 3
GENERATE_TIMEOUT_S = 45
PROBE_TIMEOUT_S = 10
# the workload process may finish one repetition past --seconds
RUN_SLACK_S = 30
# layer groups whose share of a traced repetition is printed with --trace 1
SHARES = {
    "simulate": ("sysmodels.simulate.collect_s", "sysmodels.simulate.evaluate_s"),
    "csv writes": ("io.write_csv_s",),
    "vi_learn": ("adp.vi_learn_s",),
    "assembly": ("adp.assemble_regression_s",),
    "oracles": ("riccati.model_based_vi_s", "riccati.kleinman_pi_s",
                "regulator.solve_regulator_exact_s"),
    "recovery+regulator": ("adp.recover_model_artifacts_s", "adp.solve_problem1_datadriven_s"),
}


class BenchError(Exception):
    pass


def python(script, *args):
    return [sys.executable, "-B", str(HERE / script), "--root", str(ROOT), *map(str, args)]


def last_json(stdout, what):
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{what} printed no result")
    return json.loads(lines[-1])


def run_child(cmd, timeout, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with code {proc.returncode}")
    return last_json(proc.stdout, what)


def generate(workload, seed, work):
    """Generate the inputs twice, concurrently, and keep one copy if they match."""
    dirs = [work / "inputs", work / "inputs-again"]
    procs = [subprocess.Popen(python("generate.py", "--workload", workload, "--seed", seed,
                                     "--out", d), cwd=ROOT) for d in dirs]
    try:
        codes = [p.wait(timeout=GENERATE_TIMEOUT_S) for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    if any(codes):
        raise BenchError(f"input generator exited with codes {codes}")
    names = sorted(os.listdir(dirs[0]))
    if names != sorted(os.listdir(dirs[1])):
        raise BenchError("input generator wrote different file sets for the same seed")
    for name in names:
        if not filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False):
            raise BenchError(f"input generator is not deterministic: {name} differs")
    shutil.rmtree(dirs[1])
    return dirs[0], {name: (dirs[0] / name).stat().st_size for name in names}


def summary(values):
    return (f"median of {len(values)}; min {min(values):.6g}, max {max(values):.6g}"
            if values else "no samples")


def report(workload, seed, seconds, trace, declared, work):
    inputs, sizes = generate(workload, seed, work)
    common = ["--workload", workload, "--seed", seed, "--data", inputs, "--work", work]
    probes = [run_child(python("workload.py", *common, "--probe"), PROBE_TIMEOUT_S, "set-up probe")
              for _ in range(SETUP_PROBES)]
    trace_file = STATE / "traces" / f"{workload}-seed{seed}.json"
    result = run_child(python("workload.py", *common, "--seconds", seconds,
                              "--trace", trace, "--trace-file", trace_file),
                       seconds + RUN_SLACK_S, "workload process")

    phases = [p["phases"] for p in probes] + [result["phases"]]
    reps = result["reps"]
    failed = [r for r in reps if not r["ok"]]
    setup = [p["setup_s"] for p in phases]
    values = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(result["times"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    for phase in ("setup.import_s", "setup.load_config_s", "io.read_csv_s"):
        values[phase] = statistics.median(p[phase] for p in phases)
    gaps = {gap: [r[gap] for r in reps if gap in r] for gap in ("K_gap", "L_gap", "track_ratio")}
    for gap, checked in gaps.items():
        if checked:
            values["gate." + gap] = statistics.median(checked)
    values["gate.fail_frac"] = len(failed) / len(reps)
    values.update(result.get("layers", {}))

    m = result["machine"]
    print(f"machine: nproc={m['nproc']} affinity={m['cpu_affinity']} cpu={m['cpu_model']!r} "
          f"python={m['python']} numpy={m['numpy']} scipy={m['scipy']} blas={m['blas']} "
          f"blas_threads={m['blas_threads']}")
    print(f"workload {workload} seed {seed}: closed loop, 1 caller, {len(reps)} repetitions "
          f"({len(result['times'])} untraced); inputs {sizes}")
    print(f"setup_s      = {values['setup_s']:.6g} s ({summary(setup)} fresh processes)")
    print(f"run_s        = {values['run_s']:.6g} s ({summary(result['times'])} untraced "
          f"repetitions; {'run_experiment' if workload == 'docking-ref' else 'learn_s: data->(K, L) chain'})")
    print("  repetition times: " + " ".join(f"{r['time_s']:.4g}{'t' if r['traced'] else ''}" for r in reps))
    print(f"peak_rss_mb  = {values['peak_rss_mb']:.6g} MB (workload process, set-up and first "
          f"repetition; {result['run_peak_rss_mb']:.6g} MB over all repetitions)")
    for gap, checked in gaps.items():
        if checked:
            print(f"{gap:<12} = {values['gate.' + gap]:.6g} ({summary(checked)} checked repetitions)")
    print(f"fail_frac    = {values['gate.fail_frac']:.6g} ({len(failed)} of {len(reps)} repetitions)")
    for r in failed:
        print(f"  FAILED rep {r['rep']}: {r.get('error')}")

    wanted = "per_layer" if trace else "end_to_end"
    metrics = {}
    for name, spec in declared.items():
        if spec["kind"] != wanted:
            continue
        if name not in values:
            print(f"MISSING {name}: its layer boundary could not be found")
            continue
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
        if trace:
            print(f"  {name:<40} {values[name]:.6g} {spec['unit']}")
    for target in result.get("missing", []):
        print(f"MISSING target {target}: renamed or inlined, its metrics are not reported")
    if trace:
        traced = statistics.median(r["time_s"] for r in reps if r["traced"])
        shares = {group: sum(values.get(name, 0.0) for name in names) / traced
                  for group, names in SHARES.items()}
        print(f"shares of a traced repetition ({traced:.4g} s): "
              + ", ".join(f"{group} {share:.1%}" for group, share in shares.items()))
        print(f"trace written to {trace_file.relative_to(ROOT)}")
    return {"correct": not failed, "attempted": len(reps), "failed": len(failed),
            "metrics": metrics}


def declared_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = {}
    for kind in ("end_to_end", "per_layer"):
        for metric in spec[kind]:
            declared[metric["name"]] = {"unit": metric["unit"], "kind": kind}
    return declared


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parsed = parser.parse_args()
    if parsed.seed < 0:
        parser.error("--seed must be nonnegative")
    if parsed.seconds < 1:
        parser.error("--seconds must be at least 1")
    return parsed


if __name__ == "__main__":
    args = parse_args()
    absent = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if absent:
        print(f"perfbench: not an adpdock checkout, missing {', '.join(absent)}", file=sys.stderr)
        sys.exit(2)
    work = STATE / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        outcome = report(args.workload, args.seed, args.seconds, args.trace, declared_metrics(), work)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(outcome))
