"""Scenario builders, the fixed-step simulator, and PBH diagnostics."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from adpdock import (
    CwParams,
    Exosystem,
    LinearPolicy,
    StateSpaceModel,
    TrajectoryLog,
    build_cw_plant,
    build_docking_scenario,
    check_assumptions,
    exploration_noise,
    simulate,
    sinusoid_noise,
)
from adpdock.errors import DivergenceError
from adpdock.matops import _jsonable
from adpdock.sysmodels import _BLOCK, _CHUNK, _rk4_map
from conftest import assert_csv_holds

# frozen values for the default orbit (nbar = 0.00108, r_ref = 7000 km,
# Re = 6378.14 km, J2 = 1.08263e-3, i = 45 deg); cos(2i) = 0 there, so
# s = 3 J2 Re^2 / (8 r_ref^2)
J2_STRETCH = 0.0003370569919140211
COUPLING = 1.0001685142974228
KAPPA = -2.2016023420636796e-05


def test_cwparams_defaults_and_derived():
    p = CwParams()
    assert p.mean_motion == 0.00108
    assert p.r_ref == 7000.0
    assert abs(p.j2_stretch - J2_STRETCH) <= 1e-18
    assert abs(p.coupling - COUPLING) <= 1e-15
    assert CwParams(include_j2=False).j2_stretch == 0.0
    assert CwParams(include_j2=False).coupling == 1.0


def test_cwparams_validation():
    with pytest.raises(ValueError):
        CwParams(mean_motion=0.0)
    with pytest.raises(ValueError):
        CwParams(r_ref=6000.0)  # below Earth radius
    with pytest.raises(ValueError):
        CwParams(j2=1.5)
    with pytest.raises(ValueError, match="mean_motion must be positive"):
        CwParams(mean_motion=math.nan)


def test_cw_plant_entries():
    nbar = 0.00108
    model = build_cw_plant(CwParams())
    A = model.A
    expected = np.zeros((6, 6))
    expected[0, 3] = expected[1, 4] = expected[2, 5] = 1.0
    expected[3, 0] = (5.0 * COUPLING**2 - 2.0) * nbar**2
    expected[3, 4] = 2.0 * nbar * COUPLING
    expected[4, 3] = -2.0 * nbar
    expected[5, 2] = -(nbar**2)  # cross-track harmonic oscillator
    assert np.allclose(A, expected, atol=1e-18)
    assert np.array_equal(model.B, np.vstack([np.zeros((3, 3)), np.eye(3)]))
    # the bare plant states no output and no exostate: the scenario adds both
    assert (model.n, model.m, model.p, model.q) == (6, 3, 0, 0)
    assert model.C.shape == (0, 6) and model.F.shape == (0, 0)
    # J2 off reduces to the plain CW coefficients
    A0 = build_cw_plant(CwParams(include_j2=False)).A
    assert abs(A0[3, 0] - 3.0 * nbar**2) <= 1e-18
    assert abs(A0[3, 4] - 2.0 * nbar) <= 1e-18


def test_docking_scenario_structure():
    model, exo = build_docking_scenario(CwParams())
    assert (model.n, model.m, model.p, model.q) == (6, 3, 3, 8)
    assert np.array_equal(model.C, np.hstack([np.eye(3), np.zeros((3, 3))]))
    assert np.array_equal(model.F, np.hstack([np.eye(3), np.zeros((3, 5))]))
    # one rotation block per frequency
    for idx, w in enumerate((1.0, 2.0, 3.0, 4.0)):
        blk = exo.E[2 * idx : 2 * idx + 2, 2 * idx : 2 * idx + 2]
        assert np.array_equal(blk, [[0.0, w], [-w, 0.0]])
    assert np.array_equal(exo.v0, [1.0, 0.0] * 4)
    # J2 disturbance slots and nothing else
    D = model.D
    slots = {(3, 2), (3, 5), (4, 4), (5, 0), (5, 6)}
    for row in range(6):
        for col in range(8):
            want = KAPPA if (row, col) in slots else 0.0
            assert abs(D[row, col] - want) <= 1e-20


def test_docking_scenario_options():
    model, _ = build_docking_scenario(CwParams(), disturbance_gain=0.5)
    assert abs(model.D[3, 2] - 0.5 * KAPPA) <= 1e-20
    # non-default exosystem sizes only work without the J2 pattern
    model, exo = build_docking_scenario(CwParams(), exo_frequencies=(1.0, 2.0),
                                        disturbance_gain=0.0)
    assert exo.q == 4 and np.all(model.D == 0)
    with pytest.raises(ValueError, match="J2 disturbance pattern needs exactly 4 frequencies"):
        build_docking_scenario(CwParams(), exo_frequencies=(1.0, 2.0))
    # the exostate is checked before the J2 pattern
    with pytest.raises(ValueError, match="v0 must have length 4, got 8"):
        build_docking_scenario(CwParams(), exo_frequencies=(1.0, 2.0), v0=np.ones(8))
    for freqs in ((1.0, 1.0), (1.0,), (1.0, -2.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="frequencies must be two or more distinct positive"):
            build_docking_scenario(CwParams(), exo_frequencies=freqs, disturbance_gain=0.0)


def reference_rk4(model, exo, controller, x0, t_span, dt):
    """The stage-by-stage RK4 loop: four joint-matrix products per step
    around one held controller output. Slow but literal; both drivers
    of simulate must reproduce it."""
    n, q = model.n, exo.q
    n_steps = int(round(t_span / dt))
    joint = np.block([[model.A, model.D], [np.zeros((q, n)), exo.E]])
    gain_u = np.vstack([model.B, np.zeros((q, model.m))])
    z = np.concatenate([np.asarray(x0, dtype=float), exo.v0])
    times = np.arange(n_steps + 1) * dt
    zs = np.empty((n_steps + 1, n + q))
    us = np.empty((n_steps + 1, model.m))
    zs[0] = z
    half, sixth = 0.5 * dt, dt / 6.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            us[k] = controller(z[:n], z[n:], times[k])
            forced = gain_u @ us[k]
            k1 = joint @ z + forced
            k2 = joint @ (z + half * k1) + forced
            k3 = joint @ (z + half * k2) + forced
            k4 = joint @ (z + dt * k3) + forced
            z = z + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(z)):
                raise DivergenceError("non-finite", time=float(times[k + 1]))
            zs[k + 1] = z
    us[n_steps] = controller(z[:n], z[n:], times[n_steps])
    xs, vs = zs[:, :n], zs[:, n:]
    return TrajectoryLog(t=times, x=xs, u=us, v=vs, e=xs @ model.C.T + vs @ model.F.T)


def reference_step_loop(model, exo, policy, x0, t_span, dt):
    """simulate's former LinearPolicy path: the closed-loop map
    z+ = Phi_cl z + Gamma eta applied one step per sample. The blocked
    scan must reproduce it to round-off."""
    n, m, q = model.n, model.m, exo.q
    n_steps = int(round(t_span / dt))
    phi, gamma = _rk4_map(model, exo, dt)
    K = policy.K
    L = np.zeros((m, q)) if policy.L is None else policy.L
    phi_cl = phi - gamma @ np.hstack([K, -L])
    times = np.arange(n_steps + 1) * dt
    eta = (np.zeros((n_steps + 1, m)) if policy.noise is None
           else exploration_noise(policy.noise, times))
    forced = eta @ gamma.T
    zs = np.empty((n_steps + 1, n + q))
    zs[0] = np.concatenate([np.asarray(x0, dtype=float), exo.v0])
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            zs[k + 1] = phi_cl @ zs[k] + forced[k]
            if not np.all(np.isfinite(zs[k + 1])):
                raise DivergenceError("non-finite", time=float(times[k + 1]))
    xs, vs = zs[:, :n], zs[:, n:]
    return TrajectoryLog(t=times, x=xs, u=eta - xs @ K.T + vs @ L.T, v=vs,
                         e=xs @ model.C.T + vs @ model.F.T)


def assert_logs_close(log, ref, rel):
    assert np.array_equal(log.t, ref.t)
    for name in ("x", "u", "v", "e"):
        got, want = getattr(log, name), getattr(ref, name)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@st.composite
def random_closed_loop(draw):
    """A random plant, a rotation exosystem, and a LinearPolicy with noise."""
    n, m, q = draw(st.sampled_from([(1, 1, 1), (2, 1, 3), (4, 2, 1), (6, 3, 8)]))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = 2
    model = StateSpaceModel(A=g.standard_normal((n, n)) / np.sqrt(n),
                            B=g.standard_normal((n, m)), C=g.standard_normal((p, n)),
                            D=g.standard_normal((n, q)), F=g.standard_normal((p, q)))
    W = g.standard_normal((q, q))
    exo = Exosystem(E=W - W.T, v0=g.standard_normal(q))
    noise = sinusoid_noise(m, terms=3, amplitude=0.5, seed=int(g.integers(1000)))
    policy = LinearPolicy(0.3 * g.standard_normal((m, n)), g.standard_normal((m, q)), noise)
    return model, exo, policy, g.standard_normal(n)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(random_closed_loop())
def test_simulate_drivers_match_reference_rk4(case):
    model, exo, policy, x0 = case
    t_span, dt = 1.2, 0.001  # 1200 steps: crosses a divergence-check chunk boundary
    ref = reference_rk4(model, exo, policy, x0, t_span, dt)
    structured = simulate(model, exo, policy, x0, t_span, dt)
    callback = simulate(model, exo, lambda x, v, t: policy(x, v, t), x0, t_span, dt)
    for log in (structured, callback):
        assert np.array_equal(log.t, ref.t)
        for name in ("x", "u", "v", "e"):
            got, want = getattr(log, name), getattr(ref, name)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.fixture(scope="module")
def scan_plant():
    """A fixed random (n, m, q) = (4, 2, 3) plant and exosystem."""
    g = np.random.default_rng(41)
    model = StateSpaceModel(A=g.standard_normal((4, 4)) / 2.0, B=g.standard_normal((4, 2)),
                            C=g.standard_normal((2, 4)), D=g.standard_normal((4, 3)),
                            F=g.standard_normal((2, 3)))
    W = g.standard_normal((3, 3))
    return model, Exosystem(E=W - W.T, v0=g.standard_normal(3))


@pytest.mark.parametrize("with_noise", [False, True])
@pytest.mark.parametrize("with_L", [False, True])
@pytest.mark.parametrize("steps", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, _CHUNK - 1,
                                   _CHUNK, _CHUNK + 1, 2 * _CHUNK + 7])
def test_blocked_scan_matches_step_loop_and_rk4(scan_plant, steps, with_L, with_noise):
    # block and chunk edges: a partial block, whole blocks, a partial chunk
    model, exo = scan_plant
    rows = np.random.default_rng(steps)
    policy = LinearPolicy(0.3 * rows.standard_normal((2, 4)),
                          rows.standard_normal((2, 3)) if with_L else None,
                          sinusoid_noise(2, terms=3, amplitude=0.5, seed=steps)
                          if with_noise else None)
    x0, dt = rows.standard_normal(4), 0.002
    log = simulate(model, exo, policy, x0, steps * dt, dt)
    assert len(log) == steps + 1
    assert_logs_close(log, reference_step_loop(model, exo, policy, x0, steps * dt, dt), 1e-12)
    assert_logs_close(log, reference_rk4(model, exo, policy, x0, steps * dt, dt), 1e-12)


def test_blocked_scan_matches_step_loop_on_docking_collection(docking, learning_data):
    # the 25k-step collection log of the reference run
    cfg = docking.config
    policy = LinearPolicy(np.zeros((3, 6)), noise=learning_data.noise)
    ref = reference_step_loop(docking.model, docking.exo, policy, cfg.x0, cfg.horizon, cfg.dt)
    assert len(ref) == 25001
    assert_logs_close(learning_data.log, ref, 1e-12)


def test_blocked_scan_divergence_mid_block_in_a_later_chunk():
    # a forced, fed-forward plant with exploration whose state overflows
    # inside a block of the fourth chunk
    model = StateSpaceModel(A=[[20.0, 1.0], [0.0, -1.0]], B=[[0.0], [1.0]],
                            C=[[1.0, 0.0]], D=np.eye(2), F=np.zeros((1, 2)))
    exo = Exosystem(E=[[0.0, 3.0], [-3.0, 0.0]], v0=[1.0, 0.0])
    policy = LinearPolicy([[0.5, 0.2]], [[0.3, -0.1]],
                          sinusoid_noise(1, terms=3, amplitude=0.5, seed=2))
    dt = 0.01
    with pytest.raises(DivergenceError) as scan:
        simulate(model, exo, policy, [1.0, 0.0], 50.0, dt)
    t_fail = scan.value.time
    k_fail = int(round(t_fail / dt))
    k0 = (k_fail - 1) // _CHUNK * _CHUNK
    assert k0 >= 3 * _CHUNK and 0 < (k_fail - 1 - k0) % _BLOCK < _BLOCK - 1
    with pytest.raises(DivergenceError) as callback:
        simulate(model, exo, lambda x, v, t: policy(x, v, t), [1.0, 0.0], 50.0, dt)
    assert callback.value.time == t_fail
    with pytest.raises(DivergenceError) as stepped:
        reference_step_loop(model, exo, policy, [1.0, 0.0], 50.0, dt)
    assert stepped.value.time == t_fail
    before = simulate(model, exo, policy, [1.0, 0.0], t_fail - dt, dt)
    assert np.all(np.isfinite(before.x)) and np.max(np.abs(before.x[-1])) > 1e300


def test_blocked_scan_survives_overflowing_powers():
    # Phi is about 4e10 per step, so Phi^s overflows; a zero state must
    # stay zero and a nonzero one diverge where the step-by-step map does
    model = StateSpaceModel(A=[[1000.0]], B=[[1.0]], C=[[1.0]],
                            D=np.zeros((1, 1)), F=np.zeros((1, 1)))
    exo = Exosystem(E=[[0.0]], v0=[0.0])
    policy = LinearPolicy([[0.0]])
    log = simulate(model, exo, policy, [0.0], 100.0, 1.0)
    assert np.all(log.x == 0.0)
    with pytest.raises(DivergenceError) as scan:
        simulate(model, exo, policy, [1.0], 100.0, 1.0)
    with pytest.raises(DivergenceError) as callback:
        simulate(model, exo, lambda x, v, t: policy(x, v, t), [1.0], 100.0, 1.0)
    assert scan.value.time == callback.value.time < _BLOCK


def test_exploration_noise_on_a_grid_matches_pointwise():
    spec = sinusoid_noise(3, terms=10, amplitude=0.1, seed=7)
    t = np.arange(2001) * 1e-3 + 0.5
    grid = exploration_noise(spec, t)
    assert grid.shape == (t.size, 3)
    pointwise = np.array([exploration_noise(spec, tk) for tk in t])
    assert np.max(np.abs(grid - pointwise)) <= 1e-15


def test_linear_policy_validation(docking):
    model, exo = docking.model, docking.exo
    with pytest.raises(ValueError):
        LinearPolicy(np.zeros(6))  # K must be 2-D
    with pytest.raises(ValueError):
        LinearPolicy(np.zeros((3, 6)), np.zeros((2, 8)))  # L rows differ from K
    with pytest.raises(ValueError):
        LinearPolicy(np.zeros((3, 6)), noise=sinusoid_noise(2))  # noise channels
    for policy in (LinearPolicy(np.zeros((3, 5))), LinearPolicy(np.zeros((2, 6))),
                   LinearPolicy(np.zeros((3, 6)), np.zeros((3, 7)))):
        with pytest.raises(ValueError):
            simulate(model, exo, policy, np.zeros(6), 1.0, 0.1)


def test_linear_policy_divergence_reports_time():
    model = StateSpaceModel(A=[[40.0]], B=[[1.0]], C=[[1.0]],
                            D=np.zeros((1, 1)), F=np.zeros((1, 1)))
    exo = Exosystem(E=[[0.0]], v0=[0.0])
    policy = LinearPolicy([[-1.0]])
    with pytest.raises(DivergenceError) as excinfo:
        simulate(model, exo, policy, [1.0], 50.0, 0.01)
    t_fail = excinfo.value.time
    assert 10.0 < t_fail <= 50.0  # past the first divergence-check chunk
    # the reported sample is the first non-finite one
    before = simulate(model, exo, policy, [1.0], t_fail - 0.01, 0.01)
    assert np.all(np.isfinite(before.x)) and before.x[-1, 0] > 1e300
    with pytest.raises(DivergenceError) as callback:
        simulate(model, exo, lambda x, v, t: policy(x, v, t), [1.0], 50.0, 0.01)
    assert callback.value.time == t_fail


def test_simulate_rk4_fourth_order(docking):
    # one second of the free joint dynamics vs the matrix exponential
    model, exo = docking.model, docking.exo
    joint = np.zeros((14, 14))
    joint[:6, :6] = model.A
    joint[:6, 6:] = model.D
    joint[6:, 6:] = exo.E
    x0 = np.array([0.1, -0.2, 0.3, 0.0, 0.05, -0.1])
    exact = expm(joint) @ np.concatenate([x0, exo.v0])

    def err(dt):
        log = simulate(model, exo, lambda x, v, t: np.zeros(3), x0, 1.0, dt)
        return np.linalg.norm(np.concatenate([log.x[-1], log.v[-1]]) - exact)

    ratio = err(0.05) / err(0.025)
    assert 8.0 <= ratio <= 32.0  # asymptotically 16 for a 4th-order method


def test_simulate_holds_input_per_step():
    # nilpotent dynamics make RK4 exact, so any deviation from the
    # discrete zero-order-hold map would expose stage re-evaluation
    model = StateSpaceModel(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]],
                            C=[[1.0, 0.0]], D=np.zeros((2, 1)), F=np.zeros((1, 1)))
    exo = Exosystem(E=[[0.0]], v0=[0.0])
    dt = 0.01
    log = simulate(model, exo, lambda x, v, t: np.array([np.sin(5.0 * t)]),
                   [0.3, -0.2], 1.0, dt)
    Ad = np.array([[1.0, dt], [0.0, 1.0]])
    Bd = np.array([dt**2 / 2.0, dt])
    x = np.array([0.3, -0.2])
    for k in range(len(log) - 1):
        x = Ad @ x + Bd * log.u[k, 0]
        assert np.max(np.abs(x - log.x[k + 1])) <= 1e-12
    # logged input is the held left-endpoint value
    assert abs(log.u[3, 0] - np.sin(5.0 * log.t[3])) <= 1e-15


def test_simulate_divergence_reports_time():
    model = StateSpaceModel(A=[[40.0]], B=[[1.0]], C=[[1.0]],
                            D=np.zeros((1, 1)), F=np.zeros((1, 1)))
    exo = Exosystem(E=[[0.0]], v0=[0.0])
    with pytest.raises(DivergenceError) as excinfo:
        simulate(model, exo, lambda x, v, t: np.zeros(1), [1.0], 50.0, 0.01)
    assert 0.0 < excinfo.value.time <= 50.0


def test_simulate_validation(docking):
    model, exo = docking.model, docking.exo
    ctrl = lambda x, v, t: np.zeros(3)
    with pytest.raises(ValueError):
        simulate(model, exo, ctrl, np.zeros(6), 1.05, 0.1)  # not a multiple
    with pytest.raises(ValueError):
        simulate(model, exo, ctrl, np.zeros(3), 1.0, 0.1)  # wrong x0 size
    with pytest.raises(ValueError):
        simulate(model, exo, lambda x, v, t: np.zeros(2), np.zeros(6), 1.0, 0.1)


def test_statespace_shape_validation():
    with pytest.raises(ValueError):
        StateSpaceModel(A=np.zeros((2, 3)), B=np.zeros((2, 1)),
                        C=np.zeros((1, 2)), D=np.zeros((2, 1)), F=np.zeros((1, 1)))
    with pytest.raises(ValueError):
        StateSpaceModel(A=np.zeros((2, 2)), B=np.zeros((3, 1)),
                        C=np.zeros((1, 2)), D=np.zeros((2, 1)), F=np.zeros((1, 1)))
    with pytest.raises(ValueError, match="v0 must have length 2, got 1"):
        Exosystem(E=np.zeros((2, 2)), v0=[1.0])
    with pytest.raises(ValueError, match="E contains non-finite entries"):
        Exosystem(E=[[0.0, math.inf], [-1.0, 0.0]], v0=[1.0, 0.0])
    with pytest.raises(ValueError, match="v0 contains non-finite entries"):
        Exosystem(E=np.zeros((2, 2)), v0=[math.nan, 0.0])


def test_trajectory_log_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    t = np.arange(11) * 0.1
    log = TrajectoryLog(t=t, x=rng.standard_normal((11, 4)),
                        u=rng.standard_normal((11, 2)),
                        v=rng.standard_normal((11, 3)),
                        e=rng.standard_normal((11, 1)))
    path = tmp_path / "log.csv"
    log.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,x1,x2,x3,x4,u1,u2,v1,v2,v3,e1"
    back = TrajectoryLog.from_csv(path)
    # the shortest round-trip decimal is lossless for doubles
    for name in ("t", "x", "u", "v", "e"):
        assert np.array_equal(getattr(back, name), getattr(log, name))


def test_trajectory_log_csv_reads_back_bit_for_bit(tmp_path, learning_data):
    # the 25k-row collection log, with edge values spliced into x, against
    # the reference check; the reader gives the arrays back
    log = learning_data.log
    x = log.x.copy()
    x[:3, 0] = [-0.0, 5e-324, -1e300]
    log = TrajectoryLog(t=log.t, x=x, u=log.u, v=log.v, e=log.e)
    path = tmp_path / "log.csv"
    log.to_csv(path)
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
    assert_csv_holds(path, np.hstack([log.t[:, None], log.x, log.u, log.v, log.e]), header)
    back = TrajectoryLog.from_csv(path)
    for name in ("t", "x", "u", "v", "e"):
        assert np.array_equal(getattr(back, name), getattr(log, name))
    assert np.signbit(back.x[0, 0])


@pytest.mark.parametrize("text, mismatch", [
    (b"t,x1,u1,v1,e1,e2\n0,1,2,3,4\n", "header names 6"),  # header wider than the rows
    (b"t,x1,u1,v1,e1\n0,1,2,3,4,5\n", "header names 5"),  # rows wider than the header
    (b"t,x1,u1,v1\n0,1,2,3\n", "header"),  # no e* group
    (b"t,x1,x3,u1,v1,e1\n0,1,2,3,4,5\n", "header"),  # a gap in the numbering
    (b"t,x1,u1,v1,e1\n", "no data rows"),  # header only
    (b"t,x1,u1,v1,e1\n0,1,2,3,4\n0.1,1,2,3\n", "bytes 14:34"),  # ragged row
    (b"t,x1,u1,v1,e1\n0,1,2,3,4\n0.1,nan,2,3,4\n", "x contains non-finite"),  # a nan sample
])
def test_trajectory_log_from_csv_rejects_mismatch(tmp_path, text, mismatch):
    # each raises a ValueError naming the file, and numpy warns about nothing
    path = tmp_path / "log.csv"
    path.write_bytes(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"log.csv.*{mismatch}"):
            TrajectoryLog.from_csv(path)


@pytest.mark.parametrize("name", ["t", "x", "u", "v", "e"])
def test_trajectory_log_rejects_non_finite(name):
    arrays = {"t": 0.1 * np.arange(3), **{group: np.zeros((3, 1)) for group in "xuve"}}
    arrays[name][1] = math.nan
    with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
        TrajectoryLog(**arrays)


def test_trajectory_log_grid_validation():
    with pytest.raises(ValueError):
        TrajectoryLog(t=[0.0, 0.1, 0.3], x=np.zeros((3, 1)), u=np.zeros((3, 1)),
                      v=np.zeros((3, 1)), e=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        TrajectoryLog(t=[0.0, 0.1], x=np.zeros((3, 1)), u=np.zeros((2, 1)),
                      v=np.zeros((2, 1)), e=np.zeros((2, 1)))


def test_sinusoid_noise_draw():
    spec = sinusoid_noise(3, terms=10, amplitude=0.1, freq_range=(0.1, 10.0), seed=7)
    again = sinusoid_noise(3, terms=10, amplitude=0.1, freq_range=(0.1, 10.0), seed=7)
    assert np.array_equal(spec.frequencies, again.frequencies)
    assert np.array_equal(spec.phases, again.phases)
    assert spec.amplitudes.shape == (3, 10)
    assert np.all((spec.frequencies >= 0.1) & (spec.frequencies <= 10.0))
    for row in spec.frequencies:
        assert np.unique(row).size == row.size
    other = sinusoid_noise(3, seed=8)
    assert not np.array_equal(spec.frequencies, other.frequencies)
    with pytest.raises(ValueError):
        sinusoid_noise(3, freq_range=(5.0, 1.0))
    with pytest.raises(ValueError, match="freq_range must satisfy"):
        sinusoid_noise(3, freq_range=(0.1, math.inf))
    with pytest.raises(ValueError, match="amplitudes contains non-finite entries"):
        sinusoid_noise(3, amplitude=math.nan)


def test_exploration_noise_matches_sum():
    spec = sinusoid_noise(2, terms=4, amplitude=0.3, seed=3)
    t = 1.7
    value = exploration_noise(spec, t)
    for ch in range(2):
        manual = sum(
            spec.amplitudes[ch, i] * math.sin(spec.frequencies[ch, i] * t + spec.phases[ch, i])
            for i in range(4)
        )
        assert abs(value[ch] - manual) <= 1e-15


def test_check_assumptions_docking(docking):
    report = check_assumptions(docking.model, docking.exo)
    assert report.ok
    assert report.stabilizable and report.observable and report.regulator_rank_ok
    tests = {r.test for r in report.records}
    assert tests == {"stabilizability", "observability", "regulator_rank"}
    assert all(r.margin > 0 for r in report.records)
    payload = json.loads(json.dumps(report, default=_jsonable))
    assert payload["ok"] is True
    assert len(payload["records"]) == len(report.records)


def test_check_assumptions_flags_failures():
    # unreachable unstable mode
    bad = StateSpaceModel(A=np.eye(2), B=[[1.0], [0.0]], C=[[1.0, 0.0]],
                          D=np.zeros((2, 1)), F=np.zeros((1, 1)))
    exo = Exosystem(E=[[0.0]], v0=[1.0])
    report = check_assumptions(bad, exo)
    assert not report.stabilizable and not report.ok

    # unobservable stable mode
    bad = StateSpaceModel(A=np.diag([1.0, 2.0]), B=np.eye(2), C=[[1.0, 0.0]],
                          D=np.zeros((2, 1)), F=np.zeros((1, 1)))
    report = check_assumptions(bad, exo)
    assert not report.observable

    # exosystem eigenvalue sitting on a transmission zero (s = -1 here)
    zero_hit = StateSpaceModel(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]],
                               C=[[1.0, 1.0]], D=np.zeros((2, 1)), F=np.zeros((1, 1)))
    report = check_assumptions(zero_hit, Exosystem(E=[[-1.0]], v0=[1.0]))
    assert not report.regulator_rank_ok


def test_check_assumptions_skips_stable_modes_and_keeps_record_order():
    # the mode at -1 is unreachable but strictly stable, so stabilizability
    # is tested at the unstable eigenvalue 1 alone; a record at -1 would fail
    model = StateSpaceModel(A=np.diag([-1.0, 1.0]), B=[[0.0], [1.0]], C=[[1.0, 1.0]],
                            D=np.zeros((2, 1)), F=np.zeros((1, 1)))
    report = check_assumptions(model, Exosystem(E=[[0.0]], v0=[1.0]))
    assert [(r.test, r.eigenvalue, r.required) for r in report.records] == [
        ("stabilizability", 1.0, 2), ("observability", -1.0, 2), ("observability", 1.0, 2),
        ("regulator_rank", 0.0, 3)]
    assert report.ok
