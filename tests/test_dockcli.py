"""Config handling, report comparison, and the CLI surface with its
stage-keyed exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adpdock import (
    ExperimentConfig,
    compare_gains,
    default_config,
    load_config,
    save_config,
)
from adpdock.dockcli import main
from adpdock.sysmodels import AssumptionReport, PbhRecord

REPO = Path(__file__).resolve().parents[1]


def test_default_config_values():
    cfg = default_config()
    assert cfg.frequencies == (1.0, 2.0, 3.0, 4.0)
    assert np.allclose(cfg.Q, 20.0 * np.eye(6))
    assert np.allclose(cfg.R, 2.0 * np.eye(3))
    assert np.allclose(cfg.Qbar, np.eye(6))
    assert np.allclose(cfg.Rbar, np.eye(3))
    assert np.array_equal(cfg.v0, [1, 0, 1, 0, 1, 0, 1, 0])
    assert cfg.horizon == 25.0 and cfg.dt == 1e-3 and cfg.interval == 0.1
    model, exo = cfg.scenario()
    assert (model.n, model.m, model.p, model.q) == (6, 3, 3, 8)
    assert exo.q == 8


def test_config_weight_forms():
    scalar = ExperimentConfig(Q=5.0)
    assert np.allclose(scalar.Q, 5.0 * np.eye(6))
    diag = ExperimentConfig(Q=[1, 2, 3, 4, 5, 6])
    assert np.allclose(diag.Q, np.diag([1, 2, 3, 4, 5, 6]))
    full = ExperimentConfig(R=np.arange(9.0))
    assert np.allclose(full.R, np.arange(9.0).reshape(3, 3))
    with pytest.raises(ValueError):
        ExperimentConfig(Q=[1.0, 2.0])


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(horizon=-1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(dt=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(max_k=0)


def test_config_roundtrip(tmp_path):
    cfg = ExperimentConfig(
        frequencies=(0.5, 1.5), Q=[1, 2, 3, 4, 5, 6], R=3.0,
        noise_amplitude=0.25, seed=11, horizon=12.0, interval=0.2,
        max_k=5000, abort_on_assumption_failure=False,
    )
    path = tmp_path / "case.cfg"
    save_config(cfg, path)
    back = load_config(path)
    assert back.frequencies == cfg.frequencies
    assert np.array_equal(back.v0, cfg.v0)
    assert np.allclose(back.Q, cfg.Q)
    assert np.allclose(back.R, cfg.R)
    assert back.noise_amplitude == cfg.noise_amplitude
    assert back.seed == cfg.seed
    assert back.horizon == cfg.horizon and back.interval == cfg.interval
    assert back.max_k == cfg.max_k
    assert back.abort_on_assumption_failure is False
    assert back.orbit == cfg.orbit


def test_load_config_reference_file_and_roundtrip(tmp_path):
    # every section and key of the shipped config is known to the reader
    shipped = load_config(REPO / "configs" / "docking.cfg")
    assert shipped.to_dict() == default_config().to_dict()
    path = tmp_path / "saved.cfg"
    save_config(shipped, path)
    assert load_config(path).to_dict() == shipped.to_dict()


@pytest.mark.parametrize("text, named", [
    ("[orbit]\nmean_motion = 0.001\nmean_motoin = 0.002\n", "'mean_motoin' in section [orbit]"),
    ("[noise]\nseed = 3\n\n[noize]\nseed = 4\n", "section [noize]"),
])
def test_load_config_rejects_unknown_names(tmp_path, text, named):
    path = tmp_path / "typo.cfg"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(named)):
        load_config(path)
    assert main(["check", "--config", str(path)]) == 1


def test_load_config_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "absent.cfg")


def test_compare_gains_exact_and_perturbed(learned):
    from adpdock import LearnedController
    stub = LearnedController(K=learned.K, L=learned.L, P=learned.P,
                             iterations=1, resets=0, rank=87, rank_required=87)
    same = compare_gains(stub, learned.K, learned.L, learned.P)
    assert same["ok"]
    assert same["K"]["max_abs"] == 0.0 and same["P"]["rel_frob"] == 0.0

    bumped = compare_gains(stub, learned.K + 0.1, learned.L, learned.P)
    assert not bumped["ok"]
    assert bumped["K"]["max_abs"] == pytest.approx(0.1, abs=1e-12)

    with pytest.raises(ValueError):
        compare_gains(stub, learned.K[:, :3], learned.L, learned.P)


def test_report_serializes(pipeline):
    payload = pipeline.report.to_dict()
    text = json.dumps(payload)  # everything must be plain python types
    assert "learned" in payload and "oracle" in payload
    assert payload["rank"] == {"ok": True, "rank": 87, "required": 87}
    assert payload["comparison"]["ok"] is True
    assert payload["tracking"]["closed_loop_hurwitz"] is True
    assert "trajectory_learning.csv" in payload["files"]
    assert len(text) > 1000


def test_cli_run_succeeds_and_writes_artifacts(tmp_path, pipeline):
    cfg_path = tmp_path / "docking.cfg"
    save_config(default_config(), cfg_path)
    out = tmp_path / "run"
    code = main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    for name in ("trajectory_learning.csv", "convergence.csv",
                 "trajectory_eval.csv", "learned_gains.json",
                 "oracle_gains.json", "report.json"):
        assert (out / name).exists(), name
    # same config, same seed: the report must be byte-identical
    assert (out / "report.json").read_bytes() == \
        (pipeline.out / "report.json").read_bytes()


def test_cli_rank_failure_exit_code(tmp_path):
    cfg = ExperimentConfig(noise_amplitude=0.0, horizon=10.0)
    path = tmp_path / "flat.cfg"
    save_config(cfg, path)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 3


def test_cli_convergence_failure_exit_code(tmp_path):
    cfg = ExperimentConfig(max_k=5)
    path = tmp_path / "short.cfg"
    save_config(cfg, path)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 4


def test_cli_assumption_failure_exit_code(tmp_path, monkeypatch):
    report = AssumptionReport(records=[PbhRecord(
        test="stabilizable", eigenvalue=0.0 + 0.0j, rank=5, required=6,
        margin=0.0,
    )])
    assert not report.ok
    monkeypatch.setattr("adpdock.dockcli.check_assumptions",
                        lambda model, exo: report)
    cfg_path = tmp_path / "docking.cfg"
    save_config(default_config(), cfg_path)
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 2


def test_cli_missing_config_exit_code(tmp_path):
    code = main(["run", "--config", str(tmp_path / "nope.cfg")])
    assert code == 1


def test_cli_compare(tmp_path, pipeline, capsys):
    learned = str(pipeline.out / "learned_gains.json")
    oracle = str(pipeline.out / "oracle_gains.json")
    assert main(["compare", "--learned", learned, "--oracle", oracle]) == 0
    out = capsys.readouterr().out
    assert "overall: ok" in out
    # identical files compare clean at any tolerance
    assert main(["compare", "--learned", learned, "--oracle", learned,
                 "--gain-tol", "1e-15"]) == 0
    # absurdly tight tolerance flags the learned-vs-oracle gap
    assert main(["compare", "--learned", learned, "--oracle", oracle,
                 "--gain-tol", "1e-12"]) == 1


def test_cli_check(tmp_path, capsys):
    cfg_path = tmp_path / "docking.cfg"
    save_config(default_config(), cfg_path)
    assert main(["check", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "rank: 87/87 ok=True" in out
    assert "assumptions: ok=True" in out


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_python_dash_m_entry_point():
    # the package runs as `python -m adpdock` without runpy's double-import warning
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "adpdock", "--help"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "usage: adpdock" in proc.stdout


# Runs in a fresh interpreter; prints one line per step that left
# scipy.linalg out of sys.modules and stops at the first that did not.
_SCIPY_FREE_STEPS = """
import runpy, sys

def step(name):
    assert "scipy.linalg" not in sys.modules, "scipy.linalg loaded by " + name
    print(name)

def cli(*argv):
    sys.argv = ["adpdock", *argv]
    try:
        runpy.run_module("adpdock", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert exc.code in (0, None), (argv, exc.code)

import adpdock
step("import")

from adpdock import adp, regulator
cfg = adpdock.load_config(sys.argv[1])
model, exo = cfg.scenario()
log = adp.collect_data(model, exo, None, cfg.noise_spec(), cfg.x0,
                       horizon=cfg.horizon, dt=cfg.dt, interval=cfg.interval)
basis = regulator.kernel_basis(model)
bundles = adp.assemble_regression(log, basis, cfg.R, cfg.interval)
P, K, _ = adp.vi_learn(bundles[0], cfg.Q, cfg.R, eps=cfg.eps)
recovery = adp.recover_model_artifacts(bundles, P, K, cfg.R)
solution = adp.solve_problem1_datadriven(recovery, basis, cfg.Qbar, cfg.Rbar)
regulator.feedforward_gain(solution, K)
step("learn")

back = adpdock.TrajectoryLog.from_csv(sys.argv[4])
assert all((getattr(back, name) == getattr(log, name)).all() for name in "txuve")
step("read")

config, learned, oracle = sys.argv[1:4]
cli("check", "--config", config)
step("check")
cli("compare", "--learned", learned, "--oracle", oracle)
step("compare")
cli("--help")
step("help")
"""


def test_learning_path_never_loads_scipy_linalg(pipeline):
    # only the oracle stage of `run` needs scipy; import, the data->(K, L)
    # chain, check, compare and --help must not pay for loading it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_STEPS, str(REPO / "configs" / "docking.cfg"),
         str(pipeline.out / "learned_gains.json"), str(pipeline.out / "oracle_gains.json"),
         str(pipeline.out / "trajectory_learning.csv")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    steps = [line for line in proc.stdout.splitlines()
             if line in ("import", "learn", "read", "check", "compare", "help")]
    assert steps == ["import", "learn", "read", "check", "compare", "help"]


_MULTI_RANGE_READ = """
import os, sys
from adpdock import TrajectoryLog, matops

forks = []
os.register_at_fork(after_in_parent=lambda: forks.append(None))
matops._usable_cpus = lambda: 3
log = TrajectoryLog.from_csv(sys.argv[1])
assert len(forks) == 2 and len(log) > 0, (len(forks), len(log))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_multi_range_read_is_warning_free(pipeline):
    # the forked CSV reader runs under -W error with BLAS threads alive
    # (Python 3.12+ warns about forking a multi-threaded process)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _MULTI_RANGE_READ,
         str(pipeline.out / "trajectory_learning.csv")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_reference_run_is_warning_free_and_reproducible(tmp_path, pipeline):
    # the forked CSV writer runs under -W error with BLAS threads alive,
    # and a rerun in a fresh process writes the same bytes
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "adpdock", "run",
         "--config", str(REPO / "configs" / "docking.cfg"), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    names = sorted(p.name for p in pipeline.out.iterdir())
    assert names == sorted(p.name for p in out.iterdir())
    for name in names:
        assert (out / name).read_bytes() == (pipeline.out / name).read_bytes(), name
