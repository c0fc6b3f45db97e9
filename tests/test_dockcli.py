"""Config handling, report comparison, and the CLI surface with its
stage-keyed exit codes."""

import dataclasses
import json
import math
import os
import re
import threading
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from adpdock import (
    ExperimentConfig,
    TrajectoryLog,
    adp,
    compare_gains,
    default_config,
    load_config,
    matops,
    riccati,
    run_experiment,
    save_config,
)
from adpdock.adp import collect_data
from adpdock.dockcli import _ARTIFACTS, _SCHEMA, main
from adpdock.errors import ConvergenceError
from adpdock.sysmodels import AssumptionReport, CwParams, PbhRecord
from conftest import (REPO, assert_no_child_left, counting_forks, numpy_openblas, open_fds,
                      run_python, slow_blocks, unpinned)
from test_regulator import random_solvable
from test_riccati import imaginary_axis_plant


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
    full = ExperimentConfig(R=[2.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 4.0])
    assert np.array_equal(full.R, [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    with pytest.raises(ValueError, match="Q needs 1, 6, or 36 values, got 2"):
        ExperimentConfig(Q=[1.0, 2.0])
    with pytest.raises(ValueError, match="R must be symmetric 3x3"):
        ExperimentConfig(R=np.arange(9.0))


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(horizon=-1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(dt=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(max_k=0)
    cfg = ExperimentConfig(max_k=np.int64(5), noise_terms=np.int32(3), seed=np.uint8(3))
    assert (cfg.max_k, cfg.noise_terms, cfg.seed) == (5, 3, 3)


def test_config_roundtrip(tmp_path):
    cfg = ExperimentConfig(
        frequencies=(0.5, 1.5), disturbance_gain=0.0, Q=[1, 2, 3, 4, 5, 6], R=3.0,
        noise_amplitude=0.25, seed=11, horizon=12.0, interval=0.2,
        max_k=5000,
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


def test_save_config_default_writes_shipped_file(tmp_path):
    path = tmp_path / "default.cfg"
    save_config(default_config(), path)
    assert path.read_bytes() == (REPO / "configs" / "docking.cfg").read_bytes()


# (section, key) -> a non-default value in the file, and the one attribute it sets
_NON_DEFAULT = {
    ("orbit", "mean_motion"): ("0.002", "orbit.mean_motion"),
    ("orbit", "r_ref"): ("7100.0", "orbit.r_ref"),
    ("orbit", "earth_radius"): ("6400.0", "orbit.earth_radius"),
    ("orbit", "j2"): ("0.0", "orbit.j2"),
    ("orbit", "inclination_deg"): ("30", "orbit.inclination_deg"),
    ("orbit", "include_j2"): ("false", "orbit.include_j2"),
    ("exosystem", "frequencies"): ("1.0, 2.0, 3.0, 5.0", "frequencies"),
    ("exosystem", "v0"): ("0.5 0.5 0.5 0.5 0.5 0.5 0.5 0.5", "v0"),
    ("exosystem", "disturbance_gain"): ("2.0", "disturbance_gain"),
    ("cost", "Q"): ("5", "Q"),
    ("cost", "R"): ("1, 2, 3", "R"),
    ("cost", "Qbar"): ("1, 2, 3, 4, 5, 6", "Qbar"),
    ("cost", "Rbar"): ("2, 1, 0, 1, 2, 0, 0, 0, 2", "Rbar"),
    ("noise", "amplitude"): ("0.2", "noise_amplitude"),
    ("noise", "terms"): ("5", "noise_terms"),
    ("noise", "freq_min"): ("0.2", "noise_freq_min"),
    ("noise", "freq_max"): ("5.0", "noise_freq_max"),
    ("noise", "seed"): ("3", "seed"),
    ("simulation", "x0"): ("1, 0, 0, 0, 0, 0", "x0"),
    ("simulation", "horizon"): ("12.0", "horizon"),
    ("simulation", "dt"): ("0.002", "dt"),
    ("simulation", "interval"): ("0.2", "interval"),
    ("simulation", "eval_horizon"): ("10.0", "eval_horizon"),
    ("learning", "eps"): ("1e-4", "eps"),
    ("learning", "max_k"): ("1000", "max_k"),
    ("learning", "ball_base"): ("5.0", "ball_base"),
    ("learning", "p0_scale"): ("2.0", "p0_scale"),
    ("pipeline", "gain_tol"): ("0.05", "gain_tol"),
    ("pipeline", "value_tol"): ("0.05", "value_tol"),
    ("output", "directory"): ("elsewhere", "out_dir"),
}


def _attributes(cfg):
    names = ["orbit." + f.name for f in dataclasses.fields(CwParams)]
    names += [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "orbit"]
    return {name: attrgetter(name)(cfg) for name in names}


@pytest.mark.parametrize("section, key", [row[:2] for row in _SCHEMA],
                         ids=[f"{row[0]}.{row[1]}" for row in _SCHEMA])
def test_schema_row_sets_one_attribute_and_entry(tmp_path, section, key):
    # a file holding one non-default key changes that key's attribute and
    # report entry and nothing else, and survives save_config -> load_config
    assert set(_NON_DEFAULT) == {row[:2] for row in _SCHEMA}
    text, attribute = _NON_DEFAULT[section, key]
    path = tmp_path / "one.cfg"
    path.write_text(f"[{section}]\n{key} = {text}\n")
    cfg = load_config(path)
    base = default_config()
    got, want = _attributes(cfg), _attributes(base)
    assert {name for name in got if not np.array_equal(got[name], want[name])} == {attribute}
    echo, base_echo = cfg.to_dict(), base.to_dict()
    assert [(s, k) for s in echo for k in echo[s] if echo[s][k] != base_echo[s][k]] == \
        [(section, key)]
    save_config(cfg, tmp_path / "saved.cfg")
    back = load_config(tmp_path / "saved.cfg")
    assert back.to_dict() == echo
    assert all(np.array_equal(value, got[name]) for name, value in _attributes(back).items())


@pytest.mark.parametrize("text, named", [
    ("[simulation]\nhorizon = 2O.0\n",
     "[simulation] horizon = '2O.0': could not convert string to float"),
    ("[orbit]\ninclude_j2 = maybe\n", "[orbit] include_j2 = 'maybe': not a boolean: maybe"),
    ("[noise]\nterms = 2.5\n", "[noise] terms = '2.5': invalid literal for int()"),
    ("[cost]\nq = 1, 2\n", "[cost] q = '1, 2': Q needs 1, 6, or 36 values, got 2"),
    ("[learning]\neps = nan\n", "[learning] eps = 'nan': not a finite number: nan"),
    ("[simulation]\nhorizon = inf\n", "[simulation] horizon = 'inf': not a finite number: inf"),
    ("[simulation]\ndt = nan\n", "[simulation] dt = 'nan': not a finite number: nan"),
    ("[pipeline]\ngain_tol = nan\n", "[pipeline] gain_tol = 'nan': not a finite number: nan"),
    ("[noise]\nfreq_max = nan\n", "[noise] freq_max = 'nan': not a finite number: nan"),
    ("[noise]\namplitude = -inf\n", "[noise] amplitude = '-inf': not a finite number: -inf"),
    ("[simulation]\nx0 = 0, 0, nan, 0, 0, 0\n",
     "[simulation] x0 = '0, 0, nan, 0, 0, 0': not a finite number: nan"),
    ("[orbit]\nmean_motion = nan\n", "[orbit] mean_motion = 'nan': not a finite number: nan"),
    ("[orbit]\ninclination_deg = inf\n",
     "[orbit] inclination_deg = 'inf': not a finite number: inf"),
    ("[exosystem]\ndisturbance_gain = nan\n",
     "[exosystem] disturbance_gain = 'nan': not a finite number: nan"),
    ("[cost]\nq = nan\n", "[cost] q = 'nan': not a finite number: nan"),
])
def test_load_config_names_file_section_and_key_of_bad_value(tmp_path, text, named):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {named}")):
        load_config(path)
    assert main(["check", "--config", str(path)]) == 1


@pytest.mark.parametrize("text, named", [
    ("[orbit]\nmean_motion = -1\n", "[orbit] mean_motion = '-1': mean_motion must be positive"),
    ("[orbit]\nearth_radius = 8000\n",
     "[orbit] earth_radius = '8000': need r_ref > earth_radius > 0"),
    ("[simulation]\nhorizon = 0\n", "[simulation] horizon = '0': horizon must be positive"),
    ("[noise]\nterms = 0\n", "[noise] terms = '0': noise_terms must be at least 1"),
    ("[noise]\nseed = -1\n", "[noise] seed = '-1': seed must be a non-negative integer"),
    ("[noise]\nfreq_max = 0.05\n", "[noise] freq_max = '0.05': noise_freq_min and "
     "noise_freq_max must satisfy 0 < noise_freq_min < noise_freq_max"),
    ("[exosystem]\nfrequencies = 1.0, 1.0, 3.0, 4.0\n",
     "[exosystem] frequencies = '1.0, 1.0, 3.0, 4.0': "
     "frequencies must be two or more distinct positive values"),
    ("[exosystem]\nfrequencies = 1.0\n",
     "[exosystem] frequencies = '1.0': frequencies must be two or more distinct positive values"),
    ("[simulation]\nx0 = 1, 2\n", "[simulation] x0 = '1, 2': x0 must have length 6, got 2"),
    ("[exosystem]\nv0 = 1, 0\n", "[exosystem] v0 = '1, 0': v0 must have length 8, got 2"),
    ("[exosystem]\nfrequencies = 1, 2, 3\nv0 = 1, 0, 1, 0, 1, 0, 1, 0\n",
     "[exosystem] v0 = '1, 0, 1, 0, 1, 0, 1, 0': v0 must have length 6, got 8"),
    ("[exosystem]\nfrequencies = 1, 2, 3\nv0 = 1, 0, 1, 0, 1, 0\n",
     "[exosystem] frequencies = '1, 2, 3': the J2 disturbance pattern needs exactly 4 "
     "frequencies, got 3; set disturbance_gain = 0 for other exosystems"),
    ("[simulation]\ninterval = 0.1005\n", "[simulation] interval = '0.1005': "
     "interval = 0.1005 is not an integer multiple of dt = 0.001"),
    ("[simulation]\nhorizon = 25.0005\ndt = 0.001\n", "[simulation] horizon = '25.0005': "
     "horizon = 25.0005 is not an integer multiple of dt = 0.001"),
    ("[simulation]\neval_horizon = 25.0005\n", "[simulation] eval_horizon = '25.0005': "
     "eval_horizon = 25.0005 is not an integer multiple of dt = 0.001"),
    ("[simulation]\ninterval = 30.0\n",
     "[simulation] interval = '30.0': horizon must cover at least one interval"),
    ("[simulation]\nhorizon = 0.05\n",
     "[simulation] horizon = '0.05': horizon must cover at least one interval"),
    ("[cost]\nq = -1.0\n", "[cost] q = '-1.0': Q must be positive semidefinite"),
    ("[cost]\nr = 1, 0, 1\n", "[cost] r = '1, 0, 1': R must be positive definite"),
    ("[cost]\nqbar = 1, 2, 3, 4, 5, -6\n",
     "[cost] qbar = '1, 2, 3, 4, 5, -6': Qbar must be positive semidefinite"),
    ("[cost]\nrbar = 1, 2, 3, 4, 5, 6, 7, 8, 9\n",
     "[cost] rbar = '1, 2, 3, 4, 5, 6, 7, 8, 9': Rbar must be symmetric 3x3"),
])
def test_load_config_names_file_section_and_key_of_value_out_of_range(tmp_path, capsys,
                                                                      text, named):
    path, out_dir = tmp_path / "bad.cfg", tmp_path / "out"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {named}")):
        load_config(path)
    for command in (["check", "--config", str(path)],
                    ["run", "--config", str(path), "--out", str(out_dir)]):
        assert main(command) == 1
        out, err = capsys.readouterr()
        assert out == ""  # rejected at load time, before any PBH record
        assert err == f"error: {path}: {named}\n"
    assert not out_dir.exists()


def test_run_rejects_a_time_grid_before_any_stage(tmp_path, capsys):
    path, out = tmp_path / "grid.cfg", tmp_path / "out"
    path.write_text("[simulation]\neval_horizon = 25.0005\n")
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().out == "" and not out.exists()
    # a whole number of steps that is not a whole number of intervals is kept
    cfg = ExperimentConfig(horizon=2.05, eval_horizon=0.001)
    assert (cfg.horizon, cfg.eval_horizon) == (2.05, 0.001)
    # a non-finite duration is named, not left to overflow or NaN arithmetic
    with pytest.raises(ValueError, match="horizon = inf is not finite"):
        ExperimentConfig(horizon=math.inf)
    with pytest.raises(ValueError, match="dt = inf is not finite"):
        ExperimentConfig(dt=math.inf)
    with pytest.raises(ValueError, match="eps must be positive"):
        ExperimentConfig(eps=math.nan)
    # so is every other non-finite value, by the object that owns it
    for bad, message in (({"noise_amplitude": math.nan}, "noise_amplitude contains non-finite"),
                         ({"noise_freq_max": math.inf}, "noise_freq_max contains non-finite"),
                         ({"disturbance_gain": math.nan}, "D contains non-finite"),
                         ({"x0": [math.nan] * 6}, "x0 contains non-finite"),
                         ({"v0": [math.nan] * 8}, "v0 contains non-finite"),
                         ({"frequencies": (1.0, math.nan)}, "frequencies must be two or more")):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**bad)


def test_config_checks_initial_state_lengths():
    with pytest.raises(ValueError, match="x0 must have length 6, got 2"):
        ExperimentConfig(x0=[1.0, 2.0])
    with pytest.raises(ValueError, match="v0 must have length 4, got 8"):
        ExperimentConfig(frequencies=(1.0, 2.0), disturbance_gain=0.0, v0=np.ones(8))
    assert ExperimentConfig(frequencies=(1.0, 2.0), disturbance_gain=0.0).v0.shape == (4,)


def test_config_takes_every_dimension_from_the_scenario(tmp_path, monkeypatch):
    # a 4-state, 2-input plant in place of CW: the config assumes no n or m
    model, exo = random_solvable(4, 2, 1, 2, np.random.default_rng(0))
    monkeypatch.setattr("adpdock.dockcli.build_docking_scenario",
                        lambda *args, **kwargs: (model, exo))
    cfg = ExperimentConfig()
    assert cfg.x0.shape == (4,) and cfg.v0.shape == (2,)
    assert cfg.Q.shape == cfg.Qbar.shape == (4, 4)
    assert cfg.R.shape == cfg.Rbar.shape == (2, 2)
    assert cfg.noise_spec().channels == 2
    path = tmp_path / "small.cfg"
    path.write_text("[cost]\nq = 1, 2, 3, 4\n")
    assert np.array_equal(load_config(path).Q, np.diag([1.0, 2.0, 3.0, 4.0]))


def test_inclination_degrees_echo_as_written(tmp_path):
    # the orbit keeps the file's degrees, so the echo and the saved file
    # show 30.0 (not the 29.999999999999996 of degrees(radians(30))), and
    # reading the saved file gives the same degrees
    path, saved = tmp_path / "orbit.cfg", tmp_path / "saved.cfg"
    for deg in [*range(181), 97.8]:
        path.write_text(f"[orbit]\ninclination_deg = {deg}\n")
        cfg = load_config(path)
        assert cfg.orbit.inclination_deg == deg
        assert repr(cfg.to_dict()["orbit"]["inclination_deg"]) == repr(float(deg))
        save_config(cfg, saved)
        assert f"inclination_deg = {float(deg)!r}\n" in saved.read_text()
        assert load_config(saved).orbit.inclination_deg == cfg.orbit.inclination_deg


def test_load_config_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "absent.cfg")


def test_compare_gains_exact_and_perturbed(learned):
    from adpdock import LearnedController
    stub = LearnedController(K=learned.K, L=learned.L, P=learned.P,
                             iterations=1, newton_steps=0, vi_stop_gap=0.0, resets=0,
                             rank=87, rank_required=87)
    same = compare_gains(stub, learned.K, learned.L, learned.P)
    assert same["ok"]
    assert same["K"]["max_abs"] == 0.0 and same["P"]["rel_frob"] == 0.0

    bumped = compare_gains(stub, learned.K + 0.1, learned.L, learned.P)
    assert not bumped["ok"]
    assert bumped["K"]["max_abs"] == pytest.approx(0.1, abs=1e-12)

    with pytest.raises(ValueError):
        compare_gains(stub, learned.K[:, :3], learned.L, learned.P)


def test_report_serializes(pipeline, tmp_path):
    # the report object encodes to the bytes run_experiment wrote
    matops.write_json(tmp_path / "report.json", pipeline.report)
    text = (tmp_path / "report.json").read_text()
    assert text == (pipeline.out / "report.json").read_text()
    payload = json.loads(text)
    assert "learned" in payload and "oracle" in payload
    assert payload["rank"] == {"ok": True, "rank": 87, "required": 87}
    assert payload["comparison"]["ok"] is True
    assert payload["tracking"]["closed_loop_hurwitz"] is True
    assert "trajectory_learning.csv" in payload["files"]
    assert len(text) > 1000


def test_json_artifact_key_layout(pipeline):
    # the fields of the result dataclasses, in order, are these keys
    def keys(name):
        return list(json.loads((pipeline.out / name).read_text()))

    gains = ["K", "L", "P", "iterations", "newton_steps", "vi_stop_gap", "resets", "rank",
             "rank_required"]
    assert keys("learned_gains.json") == gains
    assert keys("oracle_gains.json") == ["K", "L", "P"]
    assert keys("report.json") == ["config", "assumptions", "rank", "identification", "learned",
                                   "oracle", "comparison", "tracking", "files"]
    report = json.loads((pipeline.out / "report.json").read_text())
    assert list(report["identification"]) == ["E_rank", "E_required", "A_residual", "E_residual",
                                              "gain_consistency", "regulator_residual_dyn",
                                              "regulator_residual_out", "A_hat", "E_hat"]
    assert list(report["learned"]) == gains
    assert list(report["assumptions"]) == ["ok", "stabilizable", "observable",
                                           "regulator_rank_ok", "records"]
    record = report["assumptions"]["records"][0]
    assert list(record) == ["test", "eigenvalue", "rank", "required", "margin", "ok"]
    assert len(record["eigenvalue"]) == 2  # [real, imag]


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


def test_cli_rank_failure_exit_code(tmp_path, capsys):
    cfg = ExperimentConfig(noise_amplitude=0.0, horizon=10.0)
    path = tmp_path / "flat.cfg"
    save_config(cfg, path)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 3
    # the value-iteration solve makes the one rank decision and names the remedy
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'rank' failed: ")
    assert "enrich the exploration signal" in err
    assert not (tmp_path / "out" / "convergence.csv").exists()


def test_report_records_the_identification_beside_the_rank(pipeline, docking):
    identification = json.loads((pipeline.out / "report.json").read_text())["identification"]
    assert identification["E_rank"] == identification["E_required"] == 8
    assert 0.0 < identification["E_residual"] <= 1e-9
    assert 0.0 < identification["A_residual"] <= 1e-9
    # the end-corrected model is the true one to 1e-9 (E) and 1e-12 (A)
    assert np.abs(np.array(identification["E_hat"]) - docking.exo.E).max() <= 1e-9
    # the learned gain sits as far from R^-1 B_hat' P as from the oracle's
    K_gap = pipeline.report.comparison["K"]["max_abs"]
    assert 0.1 * K_gap <= identification["gain_consistency"] <= 10.0 * K_gap
    # the regulator equations on the identified model hold to round-off, far
    # inside the 1e-6 relative bound that solve accepts
    assert 0.0 <= identification["regulator_residual_dyn"] <= 1e-12
    assert 0.0 <= identification["regulator_residual_out"] <= 1e-12
    assert np.abs(np.array(identification["A_hat"]) - docking.model.A).max() <= 1e-12


def test_cli_exosystem_not_excited_fails_in_recover(tmp_path, capsys, monkeypatch):
    # a sweep whose last integral of v copies the one before: the data matrix
    # has full rank and value iteration converges, but the first moments do not
    # identify E, and the run fails in stage 'recover' with the generic code
    assemble = adp.assemble_regression

    def dependent_integrals_of_v(*args):
        sweep = assemble(*args)
        M_z = sweep.M_z.copy()
        M_z[:, -1] = M_z[:, -2]
        return adp.RegressionSweep(sweep[0], M_z, sweep.M_u, sweep.z_end, sweep.dt)

    monkeypatch.setattr(adp, "assemble_regression", dependent_integrals_of_v)
    path = tmp_path / "docking.cfg"
    save_config(ExperimentConfig(), path)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'recover' failed: first moments have rank 7 < 8; "
                          "the exostate does not excite every mode")
    assert (tmp_path / "out" / "convergence.csv").exists()
    assert not (tmp_path / "out" / "report.json").exists()


def test_cli_oracle_plant_with_a_mode_on_the_imaginary_axis_fails_in_oracle(
        tmp_path, capsys, monkeypatch):
    # the oracles see a plant whose mode at 0 no input reaches: the CARE seed
    # finds one stable eigenvalue of two, and the run ends in stage 'oracle'
    # with the generic code after the learning artifacts are written
    care = riccati.kleinman_from_care
    monkeypatch.setattr(riccati, "kleinman_from_care",
                        lambda model, Q, R: care(imaginary_axis_plant(), 1.0, 1.0))
    path = tmp_path / "docking.cfg"
    save_config(ExperimentConfig(), path)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'oracle' failed: the Hamiltonian has 1 stable "
                          "eigenvalues, not 2")
    assert (tmp_path / "out" / "convergence.csv").exists()
    assert not (tmp_path / "out" / "report.json").exists()


def test_cli_deficient_identified_input_fails_in_regulator(tmp_path, capsys, monkeypatch):
    # an identified B of zero: the data matrix has full rank and value iteration
    # converges, so the regulator's rank check on B_hat ends the run, in stage
    # 'regulator' with the generic code, not in stage 'rank'
    recover = adp.recover_model_artifacts

    def zero_input_matrix(*args):
        recovery = recover(*args)
        return dataclasses.replace(recovery, B_hat=np.zeros_like(recovery.B_hat))

    monkeypatch.setattr(adp, "recover_model_artifacts", zero_input_matrix)
    path = tmp_path / "docking.cfg"
    save_config(ExperimentConfig(), path)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'regulator' failed: B_hat is rank deficient")
    assert (tmp_path / "out" / "convergence.csv").exists()
    assert not (tmp_path / "out" / "report.json").exists()


def test_run_learns_the_controller_of_the_library_chain(pipeline, learned):
    # run and learn_controller on the same config and seed give the same bits
    run, library = pipeline.report.learned, learned.controller
    for field in dataclasses.fields(run):
        a, b = getattr(run, field.name), getattr(library, field.name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, field.name


def test_learning_csv_reads_back_to_the_collected_log_and_the_learned_gains(pipeline, docking,
                                                                           learning_data):
    # run's trajectory_learning.csv holds the collected log bit for bit, so
    # learning from the file gives learned_gains.json's K and L bit for bit
    back = TrajectoryLog.from_csv(pipeline.out / "trajectory_learning.csv")
    for name in "txuve":
        read, collected = getattr(back, name), getattr(learning_data.log, name)
        assert read.shape == collected.shape and read.tobytes() == collected.tobytes(), name
    cfg, basis = docking.config, learning_data.basis
    controller = adp.learn_controller(adp.assemble_regression(back, basis, cfg.R, cfg.interval),
                                      basis, cfg)[0]
    gains = json.loads((pipeline.out / "learned_gains.json").read_text())
    for name in ("K", "L"):
        learned, written = getattr(controller, name), np.array(gains[name])
        assert learned.shape == written.shape and learned.tobytes() == written.tobytes(), name


def test_readme_library_example_runs():
    # the example under "Library use" spells out the learn chain for readers
    text = (REPO / "README.md").read_text()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_cli_convergence_failure_exit_code(tmp_path, capsys):
    cfg = ExperimentConfig(max_k=5)
    path = tmp_path / "short.cfg"
    save_config(cfg, path)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: stage 'convergence' failed: value iteration")


def test_cli_oracle_nonconvergence_fails_in_oracle(tmp_path, capsys, monkeypatch):
    # a policy iteration that does not converge is the oracle's failure, not
    # learning's: stage 'oracle' with the generic code, not exit code 4
    def no_convergence(model, Q, R):
        raise ConvergenceError("policy iteration did not converge in 100 iterations",
                               iterations=100)

    monkeypatch.setattr(riccati, "kleinman_from_care", no_convergence)
    path = tmp_path / "docking.cfg"
    save_config(ExperimentConfig(), path)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'oracle' failed: policy iteration did not converge")
    assert (tmp_path / "out" / "convergence.csv").exists()
    assert not (tmp_path / "out" / "report.json").exists()


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
    assert not (tmp_path / "out").exists()


def test_cli_missing_config_exit_code(tmp_path):
    code = main(["run", "--config", str(tmp_path / "nope.cfg")])
    assert code == 1


def test_cli_compare_names_a_gains_file_without_a_matrix(tmp_path, pipeline, capsys):
    path = tmp_path / "no_l.json"
    gains = json.loads((pipeline.out / "learned_gains.json").read_text())
    del gains["L"]
    path.write_text(json.dumps(gains))
    oracle = str(pipeline.out / "oracle_gains.json")
    assert main(["compare", "--learned", str(path), "--oracle", oracle]) == 1
    assert capsys.readouterr().err == f"error: {path}: gains file has no L\n"


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


def test_cli_compare_with_a_zero_oracle_p_is_warning_free(tmp_path):
    # a zero P matches a zero oracle P; any other P is infinitely far from it
    # (a relative gap would divide by zero there)
    zero, one = tmp_path / "zero.json", tmp_path / "one.json"
    gains = {"K": [[1.0, 2.0]], "L": [[0.5]], "P": [[0.0]]}
    zero.write_text(json.dumps(gains))
    one.write_text(json.dumps({**gains, "P": [[1.0]]}))
    # the P line prints rel_frob, the gap its verdict is judged by; K and L have none
    for learned, code, rel, ok in ((zero, 0, "0.000000e+00", "True"), (one, 1, "inf", "False")):
        proc = run_python("-W", "error", "-m", "adpdock", "compare",
                          "--learned", str(learned), "--oracle", str(zero))
        assert proc.returncode == code, proc.stderr
        assert proc.stderr == ""
        lines = proc.stdout.splitlines()
        assert lines[2].startswith("P: ") and lines[2].endswith(f" rel_frob={rel} ok={ok}")
        assert all(line.startswith(("K: ", "L: ")) and "rel_frob" not in line
                   for line in lines[:2])
    K, L, P = np.ones((1, 2)), np.ones((1, 1)), np.zeros((1, 1))
    same = compare_gains(SimpleNamespace(K=K, L=L, P=P), K, L, P)
    assert same["P"]["rel_frob"] == 0.0 and same["ok"]
    off = compare_gains(SimpleNamespace(K=K, L=L, P=P + 1.0), K, L, P)
    assert off["P"]["rel_frob"] == math.inf and not off["ok"]


def test_cli_check(tmp_path, capsys):
    cfg_path = tmp_path / "docking.cfg"
    save_config(default_config(), cfg_path)
    assert main(["check", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "rank: 87/87 ok=True" in out
    assert "assumptions: ok=True" in out


def test_cli_check_reports_a_failed_stage(tmp_path, capsys):
    # the run diverges in collection; check names the stage, as run does
    path = tmp_path / "coarse.cfg"
    path.write_text("[simulation]\ndt = 1.0\nhorizon = 1000\ninterval = 1\n"
                    "eval_horizon = 1000\n")
    assert main(["check", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert "assumptions: ok=True" in out
    assert err == "error: stage 'collect' failed: state became non-finite at t = 350\n"
    # run fails the same way, before its output directory is made
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == err
    assert not out_dir.exists()


def test_run_seed_argument_is_the_seed_of_the_run(tmp_path, pipeline, capsys):
    # a seed argument learns from that seed and says so in report.json,
    # exactly as a config file that sets it does
    cfg = default_config()
    run_experiment(cfg, tmp_path / "arg", seed=3, log=quiet)
    assert cfg.seed == 7  # the caller's config is left as it is
    path = tmp_path / "seed3.cfg"
    path.write_text("[noise]\nseed = 3\n")
    run_experiment(load_config(path), tmp_path / "file", log=quiet)
    names = sorted(p.name for p in (tmp_path / "arg").iterdir())
    assert names == sorted(json.loads((tmp_path / "arg" / "report.json").read_text())["files"])
    assert names == sorted(p.name for p in (tmp_path / "file").iterdir())
    for name in names:
        assert (tmp_path / "arg" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()
    assert json.loads((tmp_path / "arg" / "report.json").read_text())["config"]["noise"] \
        ["seed"] == 3
    assert (tmp_path / "arg" / "trajectory_learning.csv").read_bytes() != \
        (pipeline.out / "trajectory_learning.csv").read_bytes()
    # a negative seed is rejected before any stage, with no output directory
    out_dir = tmp_path / "neg"
    assert main(["run", "--config", str(path), "--out", str(out_dir), "--seed", "-1"]) == 1
    assert capsys.readouterr() == ("", "error: seed must be a non-negative integer\n")
    assert not out_dir.exists()
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        ExperimentConfig(seed=1.5)


@pytest.mark.parametrize("knob, value, message", [
    ("seed", -1, "seed must be a non-negative integer"),
    ("horizon", 25.0005, "horizon = 25.0005 is not an integer multiple of dt = 0.001"),
    # an integer knob takes an int or np.integer, never a float or a bool
    ("noise_terms", 2.5, "noise_terms must be an integer, got 2.5"),
    ("max_k", 10.5, "max_k must be an integer, got 10.5"),
    ("max_k", True, "max_k must be an integer, got True"),
    ("seed", True, "seed must be a non-negative integer"),
])
def test_run_rechecks_a_knob_assigned_after_construction(tmp_path, monkeypatch, knob, value,
                                                         message):
    # the config stays mutable; run_experiment checks the values it is handed
    cfg = default_config()
    setattr(cfg, knob, value)
    stages = []
    monkeypatch.setattr("adpdock.dockcli._stage", lambda name, *args, **kwargs: stages.append(name))
    out_dir = tmp_path / "out"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_experiment(cfg, out_dir, log=quiet)
    assert stages == [] and not out_dir.exists()


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_python_dash_m_entry_point():
    # the package runs as `python -m adpdock` without runpy's double-import warning
    proc = run_python("-W", "error::RuntimeWarning", "-m", "adpdock", "--help", timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "usage: adpdock" in proc.stdout


# Runs in a fresh interpreter; prints one line per step that left every
# scipy module out of sys.modules and stops at the first that did not.
_SCIPY_FREE_STEPS = """
import runpy, sys

def step(name):
    loaded = sorted(mod for mod in sys.modules if mod.split(".")[0] == "scipy")
    assert not loaded, name + " loaded " + ", ".join(loaded)
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
adp.learn_controller(adp.assemble_regression(log, basis, cfg.R, cfg.interval), basis, cfg)
step("learn")

back = adpdock.TrajectoryLog.from_csv(sys.argv[4])
assert all((getattr(back, name) == getattr(log, name)).all() for name in "txuve")
step("read")

config, learned, oracle, _, out = sys.argv[1:6]
cli("check", "--config", config)
step("check")
cli("compare", "--learned", learned, "--oracle", oracle)
step("compare")
cli("--help")
step("help")
cli("run", "--config", config, "--out", out)
step("run")
"""


def test_cli_and_library_never_load_scipy(pipeline, tmp_path):
    # no part of the package needs scipy: import, the data->(K, L) chain,
    # reading a trajectory, check, compare, --help and a whole run with its
    # oracle stage all leave it unloaded
    proc = run_python("-c", _SCIPY_FREE_STEPS, str(REPO / "configs" / "docking.cfg"),
                      str(pipeline.out / "learned_gains.json"),
                      str(pipeline.out / "oracle_gains.json"),
                      str(pipeline.out / "trajectory_learning.csv"), str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    steps = [line for line in proc.stdout.splitlines()
             if line in ("import", "learn", "read", "check", "compare", "help", "run")]
    assert steps == ["import", "learn", "read", "check", "compare", "help", "run"]


def test_setup_never_loads_orjson(pipeline):
    # the CSV writer and reader import orjson on their first call, so the
    # set-up a caller pays before any work (import, load_config, scenario)
    # does not load it; reading a trajectory does
    proc = run_python("-c", """
import sys
import adpdock

def loaded():
    print(any(name.split(".")[0] == "orjson" for name in sys.modules))

cfg = adpdock.load_config(sys.argv[1])
cfg.scenario()
loaded()
adpdock.TrajectoryLog.from_csv(sys.argv[2])
loaded()
""", str(REPO / "configs" / "docking.cfg"), str(pipeline.out / "trajectory_learning.csv"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\nTrue\n"


_RUN_WITHOUT_SCIPY = """
import runpy, sys

class NoScipy:
    # what an interpreter without scipy installed does on any import of it
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy is not installed")
        return None

sys.meta_path.insert(0, NoScipy())
sys.argv = ["adpdock", *sys.argv[1:]]
runpy.run_module("adpdock", run_name="__main__", alter_sys=True)
"""


def test_run_succeeds_where_scipy_cannot_be_imported(pipeline, tmp_path):
    # scipy is a test dependency only: `run`, oracle stage included, exits 0
    # with every artifact where importing scipy fails, and learns the gains
    # that the pipeline fixture learned
    out = tmp_path / "out"
    proc = run_python("-c", _RUN_WITHOUT_SCIPY, "run",
                      "--config", str(REPO / "configs" / "docking.cfg"), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert sorted(path.name for path in out.iterdir()) == sorted(_ARTIFACTS)
    assert (out / "learned_gains.json").read_bytes() == \
        (pipeline.out / "learned_gains.json").read_bytes()


_TRAJECTORY_READ = """
import os, sys
from adpdock import TrajectoryLog, matops

forks = []
os.register_at_fork(after_in_parent=lambda: forks.append(None))
matops._usable_cpus = lambda: 3
log = TrajectoryLog.from_csv(sys.argv[1])
assert len(forks) == 0 and len(log) > 0, (len(forks), len(log))
"""


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="needs os.register_at_fork")
def test_trajectory_read_is_warning_free_and_forks_nothing(pipeline):
    # the CSV reader parses in this process under -W error, on three usable
    # CPUs too: orjson and numpy.loadtxt warn about nothing, and nothing forks
    proc = run_python("-W", "error", "-c", _TRAJECTORY_READ,
                      str(pipeline.out / "trajectory_learning.csv"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_reference_run_is_warning_free_and_reproducible(tmp_path, pipeline):
    # the forked CSV writer runs under -W error with BLAS threads alive,
    # and a rerun in a fresh process writes the same bytes
    out = tmp_path / "out"
    proc = run_python("-W", "error", "-m", "adpdock", "run",
                      "--config", str(REPO / "configs" / "docking.cfg"), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    names = sorted(p.name for p in pipeline.out.iterdir())
    assert names == sorted(p.name for p in out.iterdir())
    for name in names:
        assert (out / name).read_bytes() == (pipeline.out / name).read_bytes(), name


needs_pin = pytest.mark.skipif(not hasattr(os, "fork") or numpy_openblas() is None,
                               reason="needs os.fork and numpy's OpenBLAS thread control")


def quiet(*args):
    pass


@pytest.fixture
def csv_writes(monkeypatch):
    """Two usable CPUs, and a record of how each trajectory CSV is written.

    The record lists ("fg", name) for ``TrajectoryLog.to_csv`` and ("bg",
    name) for ``TrajectoryLog.to_csv_in_background``, in call order.
    """
    monkeypatch.setattr(matops, "_usable_cpus", lambda: 2)
    calls = []
    for kind, name in (("fg", "to_csv"), ("bg", "to_csv_in_background")):
        def record(log, path, _kind=kind, _write=getattr(TrajectoryLog, name)):
            calls.append((_kind, Path(path).name))
            return _write(log, path)

        monkeypatch.setattr(TrajectoryLog, name, record)
    return calls


@needs_pin
def test_learning_csv_bytes_match_on_background_and_foreground_paths(tmp_path, monkeypatch,
                                                                     pipeline, csv_writes):
    cfg = default_config()
    written = []  # this process's write_csv calls; a child's land in its own memory
    real_write = matops.write_csv

    def write(path, *args):
        written.append(Path(path).name)
        real_write(path, *args)

    monkeypatch.setattr(matops, "write_csv", write)
    # the learning CSV's child is the run's one fork on one usable CPU, on
    # two and on three: every other artifact is written in this process
    for cpus in (1, 2, 3):
        with monkeypatch.context() as mp:
            mp.setattr(matops, "_usable_cpus", lambda: cpus)
            forks = counting_forks(mp)
            run_experiment(cfg, tmp_path / f"cpus{cpus}", log=quiet)
        assert len(forks) == 1, cpus
    # without a thread control the counts stay as they are; the child still writes
    with monkeypatch.context() as mp:
        unpinned(mp)
        run_experiment(cfg, tmp_path / "unpinned", log=quiet)
    assert written == []
    # without os.fork no child delivers the file, so this process writes it
    with monkeypatch.context() as mp:
        mp.delattr(os, "fork")
        run_experiment(cfg, tmp_path / "nofork", log=quiet)
    assert written == ["trajectory_learning.csv"]
    assert csv_writes == [("bg", "trajectory_learning.csv"), ("fg", "trajectory_eval.csv")] * 5
    names = sorted(p.name for p in pipeline.out.iterdir())
    assert len(names) == 6
    for name in names:
        expected = (pipeline.out / name).read_bytes()
        for run in ("cpus1", "cpus2", "cpus3", "unpinned", "nofork"):
            assert (tmp_path / run / name).read_bytes() == expected, (run, name)


@needs_pin
def test_failed_learning_csv_child_leaves_the_file_to_this_process(tmp_path, monkeypatch,
                                                                  pipeline, csv_writes):
    def disk_full(*args):
        raise OSError("no space left on device")

    monkeypatch.setattr(matops, "_write_whole", disk_full)  # the child inherits the patch
    fds = open_fds()
    threads = threading.active_count()
    run_experiment(default_config(), tmp_path / "out", log=quiet)
    assert_no_child_left()
    assert threading.active_count() == threads  # no stage leaves a thread behind
    assert open_fds() <= fds
    assert csv_writes[0] == ("bg", "trajectory_learning.csv")
    for name in _ARTIFACTS:
        assert (tmp_path / "out" / name).read_bytes() == (pipeline.out / name).read_bytes(), name


@pytest.mark.parametrize("path", ["one_cpu", "two_cpus", "no_fork"])
def test_learning_csv_that_is_a_directory_fails_the_run_alike(tmp_path, monkeypatch, capsys,
                                                              path):
    # the child's write and this process's fail alike: every path runs each
    # stage, leaves the same files and exits 1 naming write_csv's own error
    out = tmp_path / "out"
    (out / "trajectory_learning.csv").mkdir(parents=True)
    with pytest.raises(OSError) as serial:
        matops.write_csv(out / "trajectory_learning.csv", np.ones((1, 1)), "t")
    if path == "no_fork":
        monkeypatch.delattr(os, "fork", raising=False)
    elif not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    monkeypatch.setattr(matops, "_usable_cpus", lambda: 1 if path == "one_cpu" else 2)
    fds = open_fds()
    assert main(["run", "--config", str(REPO / "configs" / "docking.cfg"),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {serial.value}\n"
    assert sorted(p.name for p in out.iterdir()) == \
        ["convergence.csv", "trajectory_eval.csv", "trajectory_learning.csv"]
    assert not any((out / "trajectory_learning.csv").iterdir())
    assert_no_child_left()
    assert open_fds() <= fds


@needs_pin
def test_rank_failure_still_leaves_the_complete_learning_csv(tmp_path, monkeypatch, csv_writes):
    cfg = ExperimentConfig(noise_amplitude=0.0, horizon=10.0)
    path, out = tmp_path / "flat.cfg", tmp_path / "out"
    save_config(cfg, path)
    with monkeypatch.context() as mp:
        slow_blocks(mp)  # the rank stage fails long before the file is done
        assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    assert csv_writes == [("bg", "trajectory_learning.csv")]
    assert_no_child_left()
    model, exo = cfg.scenario()
    log = collect_data(model, exo, None, cfg.noise_spec(), cfg.x0,
                       horizon=cfg.horizon, dt=cfg.dt, interval=cfg.interval)
    log.to_csv(tmp_path / "expected.csv")
    assert (out / "trajectory_learning.csv").read_bytes() == \
        (tmp_path / "expected.csv").read_bytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_assemble_failure_still_leaves_the_complete_learning_csv(tmp_path, monkeypatch,
                                                                  csv_writes, capsys):
    def broken(*args):
        raise FloatingPointError("assembly broke")

    cfg = ExperimentConfig(horizon=10.0)
    path, out = tmp_path / "short.cfg", tmp_path / "out"
    save_config(cfg, path)
    fds = open_fds()
    with monkeypatch.context() as mp:
        mp.setattr(adp, "assemble_regression", broken)
        slow_blocks(mp)  # the child is still writing when the stage fails
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert "stage 'assemble' failed: assembly broke" in capsys.readouterr().err
    assert csv_writes == [("bg", "trajectory_learning.csv")]
    assert_no_child_left()
    assert open_fds() <= fds
    model, exo = cfg.scenario()
    log = collect_data(model, exo, None, cfg.noise_spec(), cfg.x0,
                       horizon=cfg.horizon, dt=cfg.dt, interval=cfg.interval)
    log.to_csv(tmp_path / "expected.csv")
    assert sorted(p.name for p in out.iterdir()) == ["trajectory_learning.csv"]
    assert (out / "trajectory_learning.csv").read_bytes() == \
        (tmp_path / "expected.csv").read_bytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_assembly_threads_are_joined_before_the_learning_csv_fork(tmp_path, monkeypatch,
                                                                  csv_writes):
    # two usable CPUs: the 25001-sample log is above the size floor, so
    # assembly starts one thread, and the child writing trajectory_learning.csv
    # is forked only once that thread is joined; one usable CPU: no thread,
    # and the same child
    events, start, fork, assemble = [], threading.Thread.start, os.fork, adp.assemble_regression
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: (events.append("thread"), start(thread)))

    def counted_fork():
        events.append(("fork", threading.active_count()))
        return fork()

    def spy(log, *args):
        events.append(("assemble", len(log)))
        sweep = assemble(log, *args)
        events.append("assembled")
        return sweep

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(adp, "assemble_regression", spy)
    threads = threading.active_count()
    run_experiment(default_config(), tmp_path / "two", log=quiet)
    assert events == [("assemble", 25001), "thread", "assembled", ("fork", threads)]
    assert csv_writes[0] == ("bg", "trajectory_learning.csv")
    events.clear()
    with monkeypatch.context() as mp:
        mp.setattr(matops, "_usable_cpus", lambda: 1)
        run_experiment(default_config(), tmp_path / "one", log=quiet)
    assert events == [("assemble", 25001), "assembled", ("fork", threads)]
    assert threading.active_count() == threads
