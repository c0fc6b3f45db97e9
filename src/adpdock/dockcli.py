"""Experiment runner CLI for the docking scenario.

One invocation runs the full pipeline: assumption checks, off-policy
data collection, regression assembly, rank verification, data-driven
value iteration, model recovery, the data-driven regulator solve, and a
closed-loop evaluation of the learned controller, with model-based
oracles (Kleinman PI started from Potter's eigenvector solution of the
CARE, and the exact regulator solver) computed alongside for comparison.
Every command, oracle stage included, uses numpy alone: none loads
scipy. Everything is driven by a flat INI config whose
defaults reproduce the reference docking run; all artifacts are plain
CSV/JSON with full-precision floats so runs diff cleanly.
"""

from __future__ import annotations

import argparse
import configparser
import math
import re
import sys
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import adp, regulator, riccati
from .errors import ConvergenceError, RankDeficiencyError, StageFailure
from .matops import check_weights, is_hurwitz, one_blas_thread, require_finite, write_json
from .sysmodels import (AssumptionReport, CwParams, build_docking_scenario, check_assumptions,
                        simulate, sinusoid_noise, whole_steps)

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

# the artifacts of a run, in the order report.json lists them
_ARTIFACTS = ("trajectory_learning.csv", "convergence.csv", "trajectory_eval.csv",
              "learned_gains.json", "oracle_gains.json", "report.json")


def _is_integer(value):
    """The rule for an integer knob: an int or np.integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
    gain_tol: float = 1e-2
    value_tol: float = 1e-2
    out_dir: str = "out"

    def __post_init__(self):
        # the scenario owns n, m, q, the v0 default and the exosystem's rules
        model, exo = self.scenario()
        n, m = model.n, model.m
        self.v0 = exo.v0
        self.x0 = np.zeros(n) if self.x0 is None else np.asarray(self.x0, dtype=float)
        if self.x0.shape != (n,):
            raise ValueError(f"x0 must have length {n}, got {self.x0.size}")
        # None is each weight's default: 20 I, 2 I, I and I
        self.Q, self.R = check_weights(20.0 if self.Q is None else self.Q,
                                       2.0 if self.R is None else self.R, n, m)
        self.Qbar, self.Rbar = check_weights(self.Qbar, self.Rbar, n, m, names=("Qbar", "Rbar"))
        for name in ("horizon", "dt", "interval", "eval_horizon", "eps",
                     "ball_base", "p0_scale", "gain_tol", "value_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        # a horizon need not hold a whole number of intervals, only of steps
        steps = {name: whole_steps(getattr(self, name), self.dt, name)
                 for name in ("horizon", "interval", "eval_horizon")}
        if steps["horizon"] < steps["interval"]:
            raise ValueError("horizon must cover at least one interval")
        # the integer knobs: an int or np.integer, never a bool (True would pass for 1)
        for name in ("max_k", "noise_terms"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        # not left to noise_spec(): it imports numpy.random and its messages name no key
        if not 0 < self.noise_freq_min < self.noise_freq_max:
            raise ValueError("noise_freq_min and noise_freq_max must satisfy "
                             "0 < noise_freq_min < noise_freq_max")
        for name in ("x0", "noise_amplitude", "noise_freq_max"):
            require_finite(getattr(self, name), name)

    def scenario(self):
        return build_docking_scenario(
            self.orbit, self.frequencies, self.disturbance_gain, v0=self.v0
        )

    def noise_spec(self, seed=None):
        return sinusoid_noise(
            channels=len(self.R),  # one per plant input: R is m x m
            terms=self.noise_terms,
            amplitude=self.noise_amplitude,
            freq_range=(self.noise_freq_min, self.noise_freq_max),
            seed=self.seed if seed is None else seed,
        )

    def to_dict(self):
        return _sections(self, "echo")


def default_config():
    return ExperimentConfig()


def _same(value):
    return value


class _Codec(NamedTuple):
    """One kind of knob: INI text -> value, value -> INI text, value -> JSON."""

    parse: Callable
    format: Callable
    echo: Callable = _same


def _parse_bool(text):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text}") from None


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text}")
    return value


_FLOAT = _Codec(_finite, repr)
_INT = _Codec(int, str)
_BOOL = _Codec(_parse_bool, lambda value: str(value).lower())
_STR = _Codec(str, str)
_FLOATS = _Codec(lambda text: tuple(_finite(tok) for tok in text.replace(",", " ").split()),
                 lambda value: ", ".join(repr(float(x)) for x in np.asarray(value).ravel()),
                 lambda value: np.asarray(value).tolist())


def _weight_text(mat):
    """A weight matrix as INI text: its diagonal when it is diagonal."""
    diagonal = np.count_nonzero(mat - np.diag(np.diag(mat))) == 0
    return _FLOATS.format(np.diag(mat) if diagonal else mat)


# a weight reads as its 1, n or n^2 values; matops.check_weights resolves the matrix
_WEIGHT = _FLOATS._replace(format=_weight_text)


# One row per knob: (INI section, key, ExperimentConfig attribute, codec).
# Row order is the order of the sections and keys in save_config's file and
# in to_dict. configparser lowercases keys in the file, so Q is written q.
_SCHEMA = (
    ("orbit", "mean_motion", "orbit.mean_motion", _FLOAT),
    ("orbit", "r_ref", "orbit.r_ref", _FLOAT),
    ("orbit", "earth_radius", "orbit.earth_radius", _FLOAT),
    ("orbit", "j2", "orbit.j2", _FLOAT),
    ("orbit", "inclination_deg", "orbit.inclination_deg", _FLOAT),
    ("orbit", "include_j2", "orbit.include_j2", _BOOL),
    ("exosystem", "frequencies", "frequencies", _FLOATS),
    ("exosystem", "v0", "v0", _FLOATS),
    ("exosystem", "disturbance_gain", "disturbance_gain", _FLOAT),
    ("cost", "Q", "Q", _WEIGHT),
    ("cost", "R", "R", _WEIGHT),
    ("cost", "Qbar", "Qbar", _WEIGHT),
    ("cost", "Rbar", "Rbar", _WEIGHT),
    ("noise", "amplitude", "noise_amplitude", _FLOAT),
    ("noise", "terms", "noise_terms", _INT),
    ("noise", "freq_min", "noise_freq_min", _FLOAT),
    ("noise", "freq_max", "noise_freq_max", _FLOAT),
    ("noise", "seed", "seed", _INT),
    ("simulation", "x0", "x0", _FLOATS),
    ("simulation", "horizon", "horizon", _FLOAT),
    ("simulation", "dt", "dt", _FLOAT),
    ("simulation", "interval", "interval", _FLOAT),
    ("simulation", "eval_horizon", "eval_horizon", _FLOAT),
    ("learning", "eps", "eps", _FLOAT),
    ("learning", "max_k", "max_k", _INT),
    ("learning", "ball_base", "ball_base", _FLOAT),
    ("learning", "p0_scale", "p0_scale", _FLOAT),
    ("pipeline", "gain_tol", "gain_tol", _FLOAT),
    ("pipeline", "value_tol", "value_tol", _FLOAT),
    ("output", "directory", "out_dir", _STR),
)


def _sections(config, kind):
    """``{section: {key: value}}`` of ``config``, each value through its codec's ``kind``."""
    out = {}
    for section, key, attr, codec in _SCHEMA:
        out.setdefault(section, {})[key] = getattr(codec, kind)(attrgetter(attr)(config))
    return out


def load_config(path):
    """Read an INI config; missing keys fall back to defaults.

    An unknown section or key is rejected with a ValueError naming it,
    so a misspelled knob cannot silently fall back to its default. A
    value that does not parse, or that parses but fails a range or
    length check, is rejected with a ValueError naming the file, its
    section and its key.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    known = {}  # section -> keys of the schema, as they read in the file
    values = {}
    given = {}  # attribute -> (section, key, text) of the keys the file sets

    def bad_value(attr, exc):
        section, key, text = given[attr]
        return ValueError(f"{path}: [{section}] {key} = {text!r}: {exc}")

    for section, key, attr, codec in _SCHEMA:
        key = parser.optionxform(key)
        known.setdefault(section, set()).add(key)
        if parser.has_option(section, key):
            given[attr] = section, key, parser.get(section, key)
            try:
                values[attr] = codec.parse(given[attr][2])
            except ValueError as exc:
                raise bad_value(attr, exc) from None
    present = parser.sections() + ([parser.default_section] if parser.defaults() else [])
    for section in present:
        if section not in known:
            raise ValueError(f"{path}: unknown config section [{section}]")
        for key in parser.options(section):
            if key not in known[section]:
                raise ValueError(f"{path}: unknown key '{key}' in section [{section}]")
    orbit = {attr.removeprefix("orbit."): values.pop(attr)
             for attr in list(values) if attr.startswith("orbit.")}
    try:
        return ExperimentConfig(orbit=CwParams(**orbit), **values)
    except ValueError as exc:
        # a range or length check names the attributes it rejects: blame
        # the first of them that the file sets
        words = re.findall(r"\w+", str(exc))
        named = sorted((words.index(name), attr) for attr in given
                       if (name := attr.rpartition(".")[2]) in words)
        if not named:
            raise ValueError(f"{path}: {exc}") from None
        raise bad_value(named[0][1], exc) from None


def save_config(config, path):
    """Write the config as an INI file that load_config reads back."""
    parser = configparser.ConfigParser()
    parser.read_dict(_sections(config, "format"))
    with open(path, "w") as fh:
        parser.write(fh)


@dataclass
class ExperimentReport:
    """Everything one run produced; the fields, in order, are the keys of ``report.json``."""

    config: dict
    assumptions: AssumptionReport
    rank: dict
    identification: dict
    learned: adp.LearnedController
    oracle: dict
    comparison: dict
    tracking: dict
    files: list


def compare_gains(learned, oracle_K, oracle_L, oracle_P, gain_tol=1e-2, value_tol=1e-2):
    """Max-abs and Frobenius gaps of learned (K, L, P) vs oracle values.

    ``learned`` is anything with K, L and P attributes: a
    :class:`adp.LearnedController`, or a loaded gains file as a namespace.
    P is compared in relative Frobenius norm (its scale tracks the cost
    weights); gains are compared absolutely. Against a zero oracle P the
    relative gap is 0 for a zero P and infinite for any other. Returns a
    dict with an overall ``ok`` verdict against the tolerances.
    """
    result = {}
    for name, a, b in (("K", learned.K, oracle_K), ("L", learned.L, oracle_L),
                       ("P", learned.P, oracle_P)):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if a.shape != b.shape:
            raise ValueError(f"{name} shape {a.shape} does not match oracle {b.shape}")
        diff = a - b
        entry = result[name] = {"max_abs": float(np.max(np.abs(diff))),
                                "frob": float(np.linalg.norm(diff))}
        if name == "P":
            frob, scale = entry["frob"], float(np.linalg.norm(b))
            entry["rel_frob"] = frob / scale if scale else (math.inf if frob else 0.0)
            entry["ok"] = entry["rel_frob"] <= value_tol
        else:
            entry["ok"] = entry["max_abs"] <= gain_tol
    result.update(gain_tol=gain_tol, value_tol=value_tol)
    result["ok"] = all(result[name]["ok"] for name in "KLP")
    return result


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageFailure:
        raise
    except RankDeficiencyError as exc:
        # value iteration makes the one rank decision on the data matrix; recovery's
        # is on the first moments and the regulator's on B_hat
        raise StageFailure("rank" if name == "learn" else name, exc) from exc
    except ConvergenceError as exc:
        # learning's value iteration, not the oracle's policy iteration
        raise StageFailure("convergence" if name == "learn" else name, exc) from exc
    except Exception as exc:
        raise StageFailure(name, exc) from exc


def _setup(config):
    """The setup and assumption stages: (model, exo, noise spec, assumption report)."""
    model, exo, noise = _stage("setup", lambda: (*config.scenario(), config.noise_spec()))
    return model, exo, noise, _stage("assumptions", check_assumptions, model, exo)


def _collect(config, model, exo, noise):
    """The collection stage: the exploration trajectory that learning reads."""
    return _stage("collect", adp.collect_data, model, exo, None, noise, config.x0,
                  horizon=config.horizon, dt=config.dt, interval=config.interval)


def _assemble(config, model, learning_log):
    """The assembly stage and the rank diagnostic: (basis, sweep, rank report)."""
    basis = _stage("assemble", regulator.kernel_basis, model)
    sweep = _stage("assemble", adp.assemble_regression,
                   learning_log, basis, config.R, config.interval)
    ok, rank, required = adp.check_rank(sweep[0])
    return basis, sweep, {"ok": bool(ok), "rank": int(rank), "required": int(required)}


def run_experiment(config, out_dir=None, seed=None, log=print):
    """Run the full pipeline and write all artifacts; returns the report.

    The run works on a copy of ``config`` made by ``dataclasses.replace``,
    so every config check runs again on the values it is handed, also on
    fields assigned after construction. A ``seed`` overrides
    ``config.seed`` in that copy, not in the caller's config: the noise is
    drawn from it and ``report.json`` echoes it.

    Stage order: setup, assumptions, collection, assembly, rank check,
    value-iteration learning, model recovery, regulator solve,
    feedforward composition, oracle solves, comparison, closed-loop
    evaluation. A failed PBH check ends the run in stage 'assumptions',
    before collection; ``check`` lists every record. The rank check only
    reports: value iteration rejects a rank-deficient data matrix by the
    same rule, in stage 'rank'. The learning stages are the chain of
    :func:`adp.learn_controller`. First moments that do not identify the
    model end the run in stage 'recover', an identified B of deficient
    column rank in stage 'regulator', and any oracle failure, a policy
    iteration that does not converge included, in stage 'oracle';
    ``report.json`` records the identification's ranks and residuals, the
    learned gain's consistency with the identified B, and the residuals
    of the regulator equations solved on the identified model, beside the
    data matrix's rank. The
    whole run holds numpy's OpenBLAS, the one BLAS the package loads, at
    one thread (:func:`matops.one_blas_thread`), whose idle worker would
    otherwise spin on the CPU the CSV child writes on, and sets its count
    back when the run returns or raises. The output directory is made
    when collection ends. After assembly, whether it succeeds or not, a forked
    child writes ``trajectory_learning.csv`` while the later stages run
    (:func:`matops.write_csv_in_background`), on any number of usable
    CPUs. That child is the run's only fork: every other artifact is
    written in this process, and assembly's threads are joined before it.
    The child only saves time: where it does not deliver the file (it
    failed, or ``os.fork`` is missing), this process writes it once the
    later stages end. The learning CSV is complete before the JSON
    artifacts are written and, in a run that fails after collection,
    before StageFailure propagates. Every other artifact is flushed as
    soon as its stage completes, so a failed run leaves the earlier CSVs
    behind.

    Raises ValueError naming the knob for a config that fails its checks,
    before any stage runs and with no output directory made; StageFailure
    naming the stage on any error; and :func:`matops.write_csv`'s own
    OSError if the learning CSV cannot be written, also over a failed
    later stage.
    """
    config = replace(config, **({} if seed is None else {"seed": seed}))
    with one_blas_thread(), ExitStack() as learning_csv:
        model, exo, noise, assumptions = _setup(config)
        if not assumptions.ok:
            raise StageFailure("assumptions", RuntimeError(
                "PBH checks failed: " + ", ".join(
                    f"{r.test}@{r.eigenvalue:.3g}" for r in assumptions.records if not r.ok
                )
            ))
        log(f"assumptions: ok={assumptions.ok}")

        learning_log = _collect(config, model, exo, noise)
        out = Path(config.out_dir if out_dir is None else out_dir)
        out.mkdir(parents=True, exist_ok=True)
        log(f"collected {len(learning_log)} samples over {config.horizon} s")

        try:
            basis, sweep, rank = _assemble(config, model, learning_log)
        finally:
            # assembly's threads are joined; a child writes the CSV while this
            # process learns, and ExitStack waits for it
            learning_csv.enter_context(
                learning_log.to_csv_in_background(out / "trajectory_learning.csv"))
        log(f"rank check: {rank['rank']}/{rank['required']}")

        def stage(name, fn, *args):
            result = _stage(name, fn, *args)
            if name == "learn":  # written before recovery, so a later failure leaves it
                history = result[2]
                history.to_csv(out / "convergence.csv")
                log(f"learning converged in {history.iterations} iterations and "
                    f"{history.newton_steps} Newton steps ({history.resets} resets)")
            elif name == "recover":
                log(f"identified A and E: E rank {result.E_rank}/{result.E_required}, relative "
                    f"residuals {result.A_residual:.3e} (A) and {result.E_residual:.3e} (E)")
            return result

        learned, _, recovery, solution = adp.learn_controller(sweep, basis, config, stage)
        identification = {
            **{key: getattr(recovery, key) for key in
               ("E_rank", "E_required", "A_residual", "E_residual", "gain_consistency")},
            "regulator_residual_dyn": solution.residual_dyn,
            "regulator_residual_out": solution.residual_out,
            **{key: getattr(recovery, key) for key in ("A_hat", "E_hat")},
        }

        # model-based oracles: Potter's eigenvector solution of the CARE seeds
        # Kleinman PI, which polishes it
        def oracles():
            P_star, K_star, iterates = riccati.kleinman_from_care(model, config.Q, config.R)
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
        e0 = float(np.linalg.norm(eval_log.e[0]))
        e_final = float(np.linalg.norm(eval_log.e[-1]))
        tracking = {
            "initial_error_norm": e0,
            "final_error_norm": e_final,
            "ratio": e_final / e0 if e0 > 0 else 0.0,
            "closed_loop_hurwitz": bool(is_hurwitz(model.A - model.B @ learned.K)),
        }
        log(f"tracking: |e(0)|={e0:.4g} |e(T)|={e_final:.4g}")

        learning_csv.close()  # trajectory_learning.csv is complete from here on
        adp.save_gains(out / "learned_gains.json", learned)
        write_json(out / "oracle_gains.json", {key: oracle[key] for key in ("K", "L", "P")})

        report = ExperimentReport(
            config=config.to_dict(), assumptions=assumptions, rank=rank,
            identification=identification, learned=learned, oracle=oracle,
            comparison=comparison, tracking=tracking, files=list(_ARTIFACTS),
        )
        write_json(out / "report.json", report)
        log(f"artifacts written to {out}")
        return report


def _cmd_run(args):
    report = run_experiment(load_config(args.config), out_dir=args.out, seed=args.seed)
    return 0 if report.comparison["ok"] else _GENERIC_FAILURE


def _cmd_compare(args):
    learned = adp.load_gains(args.learned)
    oracle = adp.load_gains(args.oracle)
    result = compare_gains(SimpleNamespace(**learned), oracle["K"], oracle["L"], oracle["P"],
                           gain_tol=args.gain_tol, value_tol=args.value_tol)
    for name in ("K", "L", "P"):
        entry = result[name]
        rel = f" rel_frob={entry['rel_frob']:.6e}" if "rel_frob" in entry else ""
        print(f"{name}: max_abs={entry['max_abs']:.6e} frob={entry['frob']:.6e}{rel} "
              f"ok={entry['ok']}")
    print(f"overall: {'ok' if result['ok'] else 'FAIL'}")
    return 0 if result["ok"] else _GENERIC_FAILURE


def _cmd_check(args):
    config = load_config(args.config)
    model, exo, noise, assumptions = _setup(config)
    for record in assumptions.records:
        print(f"{record.test}: eig={record.eigenvalue:.4g} rank={record.rank}/"
              f"{record.required} margin={record.margin:.3e} ok={record.ok}")
    print(f"assumptions: ok={assumptions.ok}")
    if not assumptions.ok:
        return _STAGE_EXIT_CODES["assumptions"]

    _, _, rank = _assemble(config, model, _collect(config, model, exo, noise))
    print(f"rank: {rank['rank']}/{rank['required']} ok={rank['ok']}")
    return 0 if rank["ok"] else _STAGE_EXIT_CODES["rank"]


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
