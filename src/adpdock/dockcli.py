"""Experiment runner CLI for the docking scenario.

One invocation runs the full pipeline: assumption checks, off-policy
data collection, regression assembly, rank verification, data-driven
value iteration, model recovery, the data-driven regulator solve, and a
closed-loop evaluation of the learned controller, with model-based
oracles (Kleinman PI and the exact regulator solver) computed alongside
for comparison. Everything is driven by a flat INI config whose
defaults reproduce the reference docking run; all artifacts are plain
CSV/JSON with full-precision floats so runs diff cleanly.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import adp, regulator, riccati
from .errors import ConvergenceError, RankDeficiencyError, StageFailure
from .matops import is_hurwitz
from .sysmodels import CwParams, build_docking_scenario, check_assumptions, simulate, sinusoid_noise

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "default_config",
    "load_config",
    "save_config",
    "run_experiment",
    "compare_gains",
    "main",
]

# exit codes keyed by the pipeline stage that failed
_STAGE_EXIT_CODES = {"assumptions": 2, "rank": 3, "convergence": 4}
_GENERIC_FAILURE = 1


@dataclass
class ExperimentConfig:
    """Every knob of one experiment; defaults give the reference run."""

    orbit: CwParams = field(default_factory=CwParams)
    frequencies: tuple = (1.0, 2.0, 3.0, 4.0)
    v0: np.ndarray = None
    disturbance_gain: float = 1.0
    Q: np.ndarray = None
    R: np.ndarray = None
    Qbar: np.ndarray = None
    Rbar: np.ndarray = None
    noise_amplitude: float = 0.1
    noise_terms: int = 10
    noise_freq_min: float = 0.1
    noise_freq_max: float = 10.0
    seed: int = 7
    x0: np.ndarray = None
    horizon: float = 25.0
    dt: float = 1e-3
    interval: float = 0.1
    eval_horizon: float = 25.0
    eps: float = 1e-3
    max_k: int = 200000
    ball_base: float = 10.0
    p0_scale: float = 1.0
    abort_on_assumption_failure: bool = True
    gain_tol: float = 1e-2
    value_tol: float = 1e-2
    out_dir: str = "out"

    def __post_init__(self):
        q = 2 * len(self.frequencies)
        if self.v0 is None:
            self.v0 = np.tile([1.0, 0.0], q // 2)
        self.v0 = np.asarray(self.v0, dtype=float)
        self.x0 = np.zeros(6) if self.x0 is None else np.asarray(self.x0, dtype=float)
        self.Q = _resolve_weight(20.0 if self.Q is None else self.Q, 6)
        self.R = _resolve_weight(2.0 if self.R is None else self.R, 3)
        self.Qbar = _resolve_weight(1.0 if self.Qbar is None else self.Qbar, 6)
        self.Rbar = _resolve_weight(1.0 if self.Rbar is None else self.Rbar, 3)
        for name in ("horizon", "dt", "interval", "eval_horizon", "eps",
                     "ball_base", "p0_scale", "gain_tol", "value_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_k < 1 or self.noise_terms < 1:
            raise ValueError("max_k and noise_terms must be at least 1")

    def scenario(self):
        return build_docking_scenario(
            self.orbit, self.frequencies, self.disturbance_gain, v0=self.v0
        )

    def noise_spec(self, seed=None):
        return sinusoid_noise(
            channels=3,
            terms=self.noise_terms,
            amplitude=self.noise_amplitude,
            freq_range=(self.noise_freq_min, self.noise_freq_max),
            seed=self.seed if seed is None else seed,
        )

    def to_dict(self):
        return {
            "orbit": {
                "mean_motion": self.orbit.mean_motion,
                "r_ref": self.orbit.r_ref,
                "earth_radius": self.orbit.earth_radius,
                "j2": self.orbit.j2,
                "inclination_deg": math.degrees(self.orbit.inclination),
                "include_j2": self.orbit.include_j2,
            },
            "exosystem": {
                "frequencies": list(self.frequencies),
                "v0": self.v0.tolist(),
                "disturbance_gain": self.disturbance_gain,
            },
            "cost": {
                "Q": self.Q.tolist(),
                "R": self.R.tolist(),
                "Qbar": self.Qbar.tolist(),
                "Rbar": self.Rbar.tolist(),
            },
            "noise": {
                "amplitude": self.noise_amplitude,
                "terms": self.noise_terms,
                "freq_min": self.noise_freq_min,
                "freq_max": self.noise_freq_max,
                "seed": self.seed,
            },
            "simulation": {
                "x0": self.x0.tolist(),
                "horizon": self.horizon,
                "dt": self.dt,
                "interval": self.interval,
                "eval_horizon": self.eval_horizon,
            },
            "learning": {
                "eps": self.eps,
                "max_k": self.max_k,
                "ball_base": self.ball_base,
                "p0_scale": self.p0_scale,
            },
            "pipeline": {
                "abort_on_assumption_failure": self.abort_on_assumption_failure,
                "gain_tol": self.gain_tol,
                "value_tol": self.value_tol,
            },
            "output": {"directory": self.out_dir},
        }


def _resolve_weight(value, dim):
    """Scalar -> scale*I, dim values -> diagonal, dim^2 values -> full."""
    arr = np.asarray(value, dtype=float).ravel()
    if arr.size == 1:
        mat = float(arr[0]) * np.eye(dim)
    elif arr.size == dim:
        mat = np.diag(arr)
    elif arr.size == dim * dim:
        mat = arr.reshape(dim, dim)
    else:
        raise ValueError(f"weight needs 1, {dim}, or {dim * dim} values, got {arr.size}")
    return mat


def default_config():
    return ExperimentConfig()


def _parse_floats(text):
    return [float(tok) for tok in text.replace(",", " ").split()]


def load_config(path):
    """Read an INI config; missing keys fall back to defaults.

    An unknown section or key is rejected with a ValueError naming it,
    so a misspelled knob cannot silently fall back to its default.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    defaults = default_config()
    known = {}  # section -> keys this reader looks up

    def get(section, key, cast, fallback):
        known.setdefault(section, set()).add(key)
        if parser.has_option(section, key):
            if cast is bool:
                return parser.getboolean(section, key)
            return cast(parser.get(section, key))
        return fallback

    orbit = dict(
        mean_motion=get("orbit", "mean_motion", float, defaults.orbit.mean_motion),
        r_ref=get("orbit", "r_ref", float, defaults.orbit.r_ref),
        earth_radius=get("orbit", "earth_radius", float, defaults.orbit.earth_radius),
        j2=get("orbit", "j2", float, defaults.orbit.j2),
        inclination=math.radians(
            get("orbit", "inclination_deg", float, math.degrees(defaults.orbit.inclination))
        ),
        include_j2=get("orbit", "include_j2", bool, defaults.orbit.include_j2),
    )
    fields = dict(
        frequencies=tuple(get("exosystem", "frequencies", _parse_floats,
                              list(defaults.frequencies))),
        v0=get("exosystem", "v0", _parse_floats, None),
        disturbance_gain=get("exosystem", "disturbance_gain", float, defaults.disturbance_gain),
        Q=get("cost", "q", _parse_floats, None),
        R=get("cost", "r", _parse_floats, None),
        Qbar=get("cost", "qbar", _parse_floats, None),
        Rbar=get("cost", "rbar", _parse_floats, None),
        noise_amplitude=get("noise", "amplitude", float, defaults.noise_amplitude),
        noise_terms=get("noise", "terms", int, defaults.noise_terms),
        noise_freq_min=get("noise", "freq_min", float, defaults.noise_freq_min),
        noise_freq_max=get("noise", "freq_max", float, defaults.noise_freq_max),
        seed=get("noise", "seed", int, defaults.seed),
        x0=get("simulation", "x0", _parse_floats, None),
        horizon=get("simulation", "horizon", float, defaults.horizon),
        dt=get("simulation", "dt", float, defaults.dt),
        interval=get("simulation", "interval", float, defaults.interval),
        eval_horizon=get("simulation", "eval_horizon", float, defaults.eval_horizon),
        eps=get("learning", "eps", float, defaults.eps),
        max_k=get("learning", "max_k", int, defaults.max_k),
        ball_base=get("learning", "ball_base", float, defaults.ball_base),
        p0_scale=get("learning", "p0_scale", float, defaults.p0_scale),
        abort_on_assumption_failure=get(
            "pipeline", "abort_on_assumption_failure", bool, defaults.abort_on_assumption_failure
        ),
        gain_tol=get("pipeline", "gain_tol", float, defaults.gain_tol),
        value_tol=get("pipeline", "value_tol", float, defaults.value_tol),
        out_dir=get("output", "directory", str, defaults.out_dir),
    )
    present = parser.sections() + ([parser.default_section] if parser.defaults() else [])
    for section in present:
        if section not in known:
            raise ValueError(f"{path}: unknown config section [{section}]")
        for key in parser.options(section):
            if key not in known[section]:
                raise ValueError(f"{path}: unknown key '{key}' in section [{section}]")
    return ExperimentConfig(orbit=CwParams(**orbit), **fields)


def save_config(config, path):
    """Write the config as an INI file that load_config reads back."""
    parser = configparser.ConfigParser()

    def fmt(value):
        if isinstance(value, (list, tuple, np.ndarray)):
            return ", ".join(repr(float(x)) for x in np.asarray(value).ravel())
        return str(value)

    parser["orbit"] = {
        "mean_motion": repr(config.orbit.mean_motion),
        "r_ref": repr(config.orbit.r_ref),
        "earth_radius": repr(config.orbit.earth_radius),
        "j2": repr(config.orbit.j2),
        "inclination_deg": repr(math.degrees(config.orbit.inclination)),
        "include_j2": str(config.orbit.include_j2).lower(),
    }
    parser["exosystem"] = {
        "frequencies": fmt(config.frequencies),
        "v0": fmt(config.v0),
        "disturbance_gain": repr(config.disturbance_gain),
    }
    parser["cost"] = {
        "q": fmt(np.diag(config.Q)) if _is_diagonal(config.Q) else fmt(config.Q),
        "r": fmt(np.diag(config.R)) if _is_diagonal(config.R) else fmt(config.R),
        "qbar": fmt(np.diag(config.Qbar)) if _is_diagonal(config.Qbar) else fmt(config.Qbar),
        "rbar": fmt(np.diag(config.Rbar)) if _is_diagonal(config.Rbar) else fmt(config.Rbar),
    }
    parser["noise"] = {
        "amplitude": repr(config.noise_amplitude),
        "terms": str(config.noise_terms),
        "freq_min": repr(config.noise_freq_min),
        "freq_max": repr(config.noise_freq_max),
        "seed": str(config.seed),
    }
    parser["simulation"] = {
        "x0": fmt(config.x0),
        "horizon": repr(config.horizon),
        "dt": repr(config.dt),
        "interval": repr(config.interval),
        "eval_horizon": repr(config.eval_horizon),
    }
    parser["learning"] = {
        "eps": repr(config.eps),
        "max_k": str(config.max_k),
        "ball_base": repr(config.ball_base),
        "p0_scale": repr(config.p0_scale),
    }
    parser["pipeline"] = {
        "abort_on_assumption_failure": str(config.abort_on_assumption_failure).lower(),
        "gain_tol": repr(config.gain_tol),
        "value_tol": repr(config.value_tol),
    }
    parser["output"] = {"directory": config.out_dir}
    with open(path, "w") as fh:
        parser.write(fh)


def _is_diagonal(mat):
    return np.count_nonzero(mat - np.diag(np.diag(mat))) == 0


@dataclass
class ExperimentReport:
    """Everything one run produced, JSON-serializable via to_dict."""

    config: dict
    assumptions: dict
    rank: dict
    learned: adp.LearnedController
    oracle: dict
    comparison: dict
    tracking: dict
    files: list

    def to_dict(self):
        return {
            "config": self.config,
            "assumptions": self.assumptions,
            "rank": self.rank,
            "learned": {
                "K": self.learned.K.tolist(),
                "L": self.learned.L.tolist(),
                "P": self.learned.P.tolist(),
                "iterations": self.learned.iterations,
                "resets": self.learned.resets,
                "rank": self.learned.rank,
                "rank_required": self.learned.rank_required,
            },
            "oracle": {key: np.asarray(val).tolist() if key in ("K", "L", "P") else val
                       for key, val in self.oracle.items()},
            "comparison": self.comparison,
            "tracking": self.tracking,
            "files": self.files,
        }


def compare_gains(learned, oracle_K, oracle_L, oracle_P, gain_tol=1e-2, value_tol=1e-2):
    """Max-abs and Frobenius gaps of learned (K, L, P) vs oracle values.

    P is compared in relative Frobenius norm (its scale tracks the cost
    weights); gains are compared absolutely. Returns a dict with an
    overall ``ok`` verdict against the tolerances.
    """
    K = np.asarray(learned.K, dtype=float)
    L = np.asarray(learned.L, dtype=float)
    P = np.asarray(learned.P, dtype=float)
    oracle_K = np.asarray(oracle_K, dtype=float)
    oracle_L = np.asarray(oracle_L, dtype=float)
    oracle_P = np.asarray(oracle_P, dtype=float)
    for name, a, b in (("K", K, oracle_K), ("L", L, oracle_L), ("P", P, oracle_P)):
        if a.shape != b.shape:
            raise ValueError(f"{name} shape {a.shape} does not match oracle {b.shape}")

    def gaps(a, b):
        diff = a - b
        return float(np.max(np.abs(diff))), float(np.linalg.norm(diff))

    k_max, k_frob = gaps(K, oracle_K)
    l_max, l_frob = gaps(L, oracle_L)
    p_max, p_frob = gaps(P, oracle_P)
    p_rel = float(p_frob / np.linalg.norm(oracle_P))
    result = {
        "K": {"max_abs": k_max, "frob": k_frob, "ok": k_max <= gain_tol},
        "L": {"max_abs": l_max, "frob": l_frob, "ok": l_max <= gain_tol},
        "P": {"max_abs": p_max, "frob": p_frob, "rel_frob": p_rel,
              "ok": p_rel <= value_tol},
        "gain_tol": gain_tol,
        "value_tol": value_tol,
    }
    result["ok"] = result["K"]["ok"] and result["L"]["ok"] and result["P"]["ok"]
    return result


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageFailure:
        raise
    except (RankDeficiencyError,) as exc:
        raise StageFailure("rank", exc) from exc
    except ConvergenceError as exc:
        raise StageFailure("convergence", exc) from exc
    except Exception as exc:
        raise StageFailure(name, exc) from exc


def run_experiment(config, out_dir=None, seed=None, log=print):
    """Run the full pipeline and write all artifacts; returns the report.

    Stage order: assumptions, collection, assembly, rank check,
    value-iteration learning, model recovery, regulator solve,
    feedforward composition, oracle solves, comparison, closed-loop
    evaluation. Artifacts are flushed as soon as their stage completes,
    so a failed run leaves the earlier CSVs behind for inspection.

    Raises StageFailure naming the stage on any error.
    """
    out = Path(config.out_dir if out_dir is None else out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []

    model, exo = _stage("setup", config.scenario)
    noise = config.noise_spec(seed=seed)

    assumptions = _stage("assumptions", check_assumptions, model, exo)
    if not assumptions.ok and config.abort_on_assumption_failure:
        raise StageFailure("assumptions", RuntimeError(
            "PBH checks failed: " + ", ".join(
                f"{r.test}@{r.eigenvalue:.3g}" for r in assumptions.records if not r.ok
            )
        ))
    log(f"assumptions: ok={assumptions.ok}")

    learning_log = _stage(
        "collect", adp.collect_data, model, exo, None, noise, config.x0,
        horizon=config.horizon, dt=config.dt, interval=config.interval,
    )
    learning_log.to_csv(out / "trajectory_learning.csv")
    files.append("trajectory_learning.csv")
    log(f"collected {len(learning_log)} samples over {config.horizon} s")

    basis = _stage("assemble", regulator.kernel_basis, model)
    bundles = _stage("assemble", adp.assemble_regression,
                     learning_log, basis, config.R, config.interval)

    ok, rank, required = adp.check_rank(bundles[0])
    rank_report = {"ok": bool(ok), "rank": int(rank), "required": int(required)}
    log(f"rank check: {rank}/{required}")
    if not ok:
        raise StageFailure("rank", RankDeficiencyError(
            f"data matrix rank {rank} < required {required}", rank=rank, required=required
        ))

    P0 = config.p0_scale * np.eye(model.n)
    P, K, history = _stage(
        "learn", adp.vi_learn, bundles[0], config.Q, config.R, P0=P0,
        eps=config.eps, ball_schedule=riccati.linear_balls(config.ball_base),
        max_k=config.max_k,
    )
    history.to_csv(out / "convergence.csv", kind="increment")
    files.append("convergence.csv")
    log(f"learning converged in {history.iterations} iterations ({history.resets} resets)")

    recovery = _stage("recover", adp.recover_model_artifacts, bundles, P, K, config.R)
    solution = _stage("regulator", adp.solve_problem1_datadriven,
                      recovery, basis, config.Qbar, config.Rbar)
    L = regulator.feedforward_gain(solution, K)
    learned = adp.LearnedController(
        K=K, L=L, P=P, iterations=history.iterations, resets=history.resets,
        rank=rank, rank_required=required, history=history,
    )

    # model-based oracles: VI bootstraps a stabilizing gain, PI refines it
    def oracles():
        _, K_vi, _ = riccati.model_based_vi(
            model, config.Q, config.R, P0=P0, eps=config.eps,
            ball_schedule=riccati.linear_balls(config.ball_base), max_k=config.max_k,
        )
        P_star, K_star, iterates = riccati.kleinman_pi(model, config.Q, config.R, K_vi)
        exact = regulator.solve_regulator_exact(model, exo, config.Qbar, config.Rbar)
        L_star = regulator.feedforward_gain(exact, K_star)
        return {
            "K": K_star, "L": L_star, "P": P_star,
            "pi_iterations": len(iterates),
            "regulator_residual_dyn": exact.residual_dyn,
            "regulator_residual_out": exact.residual_out,
        }

    oracle = _stage("oracle", oracles)
    comparison = compare_gains(learned, oracle["K"], oracle["L"], oracle["P"],
                               gain_tol=config.gain_tol, value_tol=config.value_tol)
    log(f"gain gaps: |K-K*|max={comparison['K']['max_abs']:.3e} "
        f"|L-L*|max={comparison['L']['max_abs']:.3e} ok={comparison['ok']}")

    eval_log = _stage("evaluate", simulate, model, exo, learned.feedback(),
                      config.x0, config.eval_horizon, config.dt)
    eval_log.to_csv(out / "trajectory_eval.csv")
    files.append("trajectory_eval.csv")
    e0 = float(np.linalg.norm(eval_log.e[0]))
    e_final = float(np.linalg.norm(eval_log.e[-1]))
    tracking = {
        "initial_error_norm": e0,
        "final_error_norm": e_final,
        "ratio": e_final / e0 if e0 > 0 else 0.0,
        "closed_loop_hurwitz": bool(is_hurwitz(model.A - model.B @ learned.K)),
    }
    log(f"tracking: |e(0)|={e0:.4g} |e(T)|={e_final:.4g}")

    adp.save_gains(out / "learned_gains.json", learned)
    files.append("learned_gains.json")
    with open(out / "oracle_gains.json", "w") as fh:
        json.dump({"K": oracle["K"].tolist(), "L": oracle["L"].tolist(),
                   "P": oracle["P"].tolist()}, fh, indent=2)
        fh.write("\n")
    files.append("oracle_gains.json")

    report = ExperimentReport(
        config=config.to_dict(), assumptions=assumptions.to_dict(), rank=rank_report,
        learned=learned, oracle=oracle, comparison=comparison, tracking=tracking,
        files=files + ["report.json"],
    )
    with open(out / "report.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    log(f"artifacts written to {out}")
    return report


def _cmd_run(args):
    config = load_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
    report = run_experiment(config, out_dir=args.out, seed=args.seed)
    return 0 if report.comparison["ok"] else _GENERIC_FAILURE


def _cmd_compare(args):
    learned = adp.load_gains(args.learned)
    oracle = adp.load_gains(args.oracle)
    stub = adp.LearnedController(
        K=learned["K"], L=learned["L"], P=learned["P"],
        iterations=learned.get("iterations", 0), resets=learned.get("resets", 0),
        rank=learned.get("rank", 0), rank_required=learned.get("rank_required", 0),
    )
    result = compare_gains(stub, oracle["K"], oracle["L"], oracle["P"],
                           gain_tol=args.gain_tol, value_tol=args.value_tol)
    for name in ("K", "L", "P"):
        entry = result[name]
        print(f"{name}: max_abs={entry['max_abs']:.6e} frob={entry['frob']:.6e} "
              f"ok={entry['ok']}")
    print(f"overall: {'ok' if result['ok'] else 'FAIL'}")
    return 0 if result["ok"] else _GENERIC_FAILURE


def _cmd_check(args):
    config = load_config(args.config)
    model, exo = config.scenario()
    assumptions = check_assumptions(model, exo)
    for record in assumptions.records:
        print(f"{record.test}: eig={record.eigenvalue:.4g} rank={record.rank}/"
              f"{record.required} margin={record.margin:.3e} ok={record.ok}")
    print(f"assumptions: ok={assumptions.ok}")
    if not assumptions.ok:
        return _STAGE_EXIT_CODES["assumptions"]

    noise = config.noise_spec()
    log = adp.collect_data(model, exo, None, noise, config.x0,
                           horizon=config.horizon, dt=config.dt, interval=config.interval)
    basis = regulator.kernel_basis(model)
    bundles = adp.assemble_regression(log, basis, config.R, config.interval)
    ok, rank, required = adp.check_rank(bundles[0])
    print(f"rank: {rank}/{required} ok={ok}")
    return 0 if ok else _STAGE_EXIT_CODES["rank"]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="adpdock",
        description="Learn an optimal docking controller from trajectory data "
                    "and compare it against model-based solutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full learning pipeline")
    p_run.add_argument("--config", required=True, help="INI config path")
    p_run.add_argument("--out", default=None, help="output directory (overrides config)")
    p_run.add_argument("--seed", type=int, default=None, help="exploration seed override")
    p_run.set_defaults(handler=_cmd_run)

    p_cmp = sub.add_parser("compare", help="compare two gains JSON files")
    p_cmp.add_argument("--learned", required=True)
    p_cmp.add_argument("--oracle", required=True)
    p_cmp.add_argument("--gain-tol", type=float, default=1e-2)
    p_cmp.add_argument("--value-tol", type=float, default=1e-2)
    p_cmp.set_defaults(handler=_cmd_compare)

    p_chk = sub.add_parser("check", help="assumption and rank diagnostics only")
    p_chk.add_argument("--config", required=True)
    p_chk.set_defaults(handler=_cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except StageFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _STAGE_EXIT_CODES.get(exc.stage, _GENERIC_FAILURE)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _GENERIC_FAILURE


if __name__ == "__main__":
    sys.exit(main())
