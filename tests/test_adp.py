"""Data pipeline: collection, regression assembly, learning, recovery,
and the data-driven regulator solve."""

import dataclasses
import os
import re
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.linalg import expm, solve_continuous_are

from adpdock import (
    Exosystem,
    ModelRecovery,
    StateSpaceModel,
    TrajectoryLog,
    adp,
    assemble_regression,
    check_rank,
    collect_data,
    feedforward_gain,
    kleinman_from_care,
    linear_balls,
    matops,
    model_based_vi,
    recover_model_artifacts,
    solve_problem1_datadriven,
    solve_regulator_exact,
    vi_learn,
)
from adpdock.adp import (
    DataRiccati,
    RegressionBundle,
    RegressionSweep,
    load_gains,
    save_gains,
)
from adpdock.errors import (
    ConvergenceError,
    DivergenceError,
    NoSolutionError,
    RankDeficiencyError,
)
from adpdock.matops import (equilibrate, kron, lstsq, numerical_rank, unvec, unvecs, vec, vecs,
                            vecv)
from adpdock.regulator import KernelBasis, kernel_basis
from adpdock.riccati import run_value_iteration
from conftest import numpy_openblas, unpinned
from test_regulator import random_solvable

rng = np.random.default_rng(1618)


def sylvester_image(X, A, E):
    return X @ E - A @ X


def identified_sylvester_images(recovery, offsets):
    """S(X_j) = X_j E_hat - A_hat X_j of the identified model, for each offset."""
    return [sylvester_image(X, recovery.A_hat, recovery.E_hat) for X in offsets]


def exact_recovery(model, exo):
    """ModelRecovery built from the true matrices, bypassing the data path."""
    return ModelRecovery(D_hat=model.D.copy(), B_hat=model.B.copy(),
                         A_hat=model.A.copy(), E_hat=exo.E.copy(), E_rank=exo.q ** 2,
                         E_required=exo.q ** 2, A_residual=0.0, E_residual=0.0)


def sweep_offsets(basis):
    """The paper's h + 2 kernel-basis offsets X_0 = 0, X_1, X_1 + N_1, ..., X_1 + N_h."""
    return [np.zeros_like(basis.X1), basis.X1] + [basis.X1 + N for N in basis.basis]


def reference_assembly(log, offsets, R, interval):
    """Per-offset integration of the log: one pass over every sample for
    each offset X_j, of the shifted state x - X_j v. Slow but literal.
    Returns one RegressionBundle per offset, in the order given: Theta is
    [Ixx | 2 Gxu (I_n (*) R) | 2 Gxv] and Dxx the endpoint differences."""
    dt = log.dt
    steps = int(round(interval / dt))
    n_int = (len(log) - 1) // steps
    n_fine = n_int * steps
    x, u, v = log.x, log.u, log.v
    n, m, q = x.shape[1], u.shape[1], v.shape[1]
    scale_u = 2.0 * np.kron(np.eye(n), R)
    ends = np.arange(0, n_fine + 1, steps)

    def per_interval(step_values):
        return step_values[:n_fine].reshape(n_int, steps, -1).sum(axis=1)

    out = []
    for Xj in offsets:
        xbar = x - v @ Xj.T
        vv = vecv(xbar)
        xbar_avg = (0.5 * dt) * (xbar[:-1] + xbar[1:])
        xu = np.einsum("ka,kb->kab", xbar_avg[:n_fine], u[:n_fine]).reshape(n_fine, n * m)
        xv = np.einsum("ka,kb->kab", xbar, v).reshape(len(log), n * q)
        Ixx = per_interval((0.5 * dt) * (vv[:-1] + vv[1:]))
        Gxu = per_interval(xu)
        Gxv = per_interval((0.5 * dt) * (xv[:-1] + xv[1:]))
        out.append(RegressionBundle(Theta=np.hstack([Ixx, Gxu @ scale_u, 2.0 * Gxv]),
                                    Dxx=vv[ends[1:]] - vv[ends[:-1]], n=n, m=m, q=q))
    return out


def eager_assembly(log, R, interval):
    """(Theta, Dxx, M_vv) from the products of z = [x; v] over the whole log
    in one pass, by batched products. Assembly must reproduce each bit for
    bit, whatever its ranges and blocks."""
    dt = log.dt
    steps = int(round(interval / dt))
    n_int = (len(log) - 1) // steps
    n_fine = n_int * steps
    x, u, v = log.x, log.u, log.v
    n, m, q = x.shape[1], u.shape[1], v.shape[1]
    ends = np.arange(0, n_fine + 1, steps)

    d = n + q
    z = np.hstack([x, v])
    z_left = z[:n_fine].reshape(n_int, steps, d).transpose(0, 2, 1)
    z_right = z[1 : n_fine + 1].reshape(n_int, steps, d).transpose(0, 2, 1)
    u_held = u[:n_fine].reshape(n_int, steps, m)
    z_end = z[ends]
    zz_end = z_end[:, :, None] * z_end[:, None, :]
    zz = dt * (np.matmul(z_left, z_left.transpose(0, 2, 1))
               + 0.5 * (zz_end[1:] - zz_end[:-1]))
    zu = (0.5 * dt) * (np.matmul(z_left, u_held) + np.matmul(z_right, u_held))
    ix, jx = np.triu_indices(n)
    iv, jv = np.triu_indices(q)
    Theta = np.hstack([zz[:, ix, jx], zu[:, :n].reshape(n_int, n * m) @ (2.0 * kron(np.eye(n), R)),
                       2.0 * zz[:, :n, n:].reshape(n_int, n * q)])
    vv = vecv(x[ends])
    return Theta, vv[1:] - vv[:-1], zz[:, n + iv, n + jv]


def reference_recovery(bundles, P, K, R):
    """D_hat, B_hat and the S(X_j) from one matops.lstsq per built bundle at P:
    the paper's per-offset recovery, which identification replaces."""
    n, m, q = bundles[0].n, bundles[0].m, bundles[0].q
    ns = n * (n + 1) // 2
    blocks = [unvec(lstsq(b.Theta, b.Dxx @ vecs(P))[0][ns + m * n :], q, n) for b in bundles]
    D_hat = np.linalg.solve(P, blocks[0].T)
    S_values = [D_hat - np.linalg.solve(P, Mj.T) for Mj in blocks[1:]]
    return SimpleNamespace(D_hat=D_hat, B_hat=np.linalg.solve(P, (R @ K).T), S_values=S_values)


def reference_vi_residual(solve_op, Q, R, n, m):
    """The data-side VI residual as a round-trip through the orderings:
    theta = solve_op vecs(P), then H and K rebuilt from its blocks. Slow
    but literal; the fixed-coordinate map in vi_learn must reproduce it.
    Returns residual_fn(P) -> (H + Q - K'RK, K)."""
    ns = n * (n + 1) // 2

    def residual_fn(P):
        theta = solve_op @ vecs(P)
        H = unvecs(theta[:ns])
        K = unvec(theta[ns : ns + m * n], m, n)
        return H + Q - K.T @ R @ K, K

    return residual_fn


def assert_matches_reference(bundle, reference):
    assert bundle.Theta.shape == reference.Theta.shape
    ns, nm = bundle.n * (bundle.n + 1) // 2, bundle.n * bundle.m
    cuts = [ns, ns + nm]
    for name, block, ref in zip(("Ixx", "2 Gxu (I (*) R)", "2 Gxv"),
                                np.split(bundle.Theta, cuts, axis=1),
                                np.split(reference.Theta, cuts, axis=1)):
        rel = np.linalg.norm(block - ref) / np.linalg.norm(ref)
        assert rel <= 1e-12, f"{name}: relative error {rel:.2e}"
    assert np.array_equal(bundle.Dxx, reference.Dxx)


def random_log_and_basis(n, m, q, n_samples, dt, generator):
    """Unstructured data of the given dimensions, a basis of their shape and a weight R."""
    t = dt * np.arange(n_samples)
    log = TrajectoryLog(t=t, x=generator.standard_normal((n_samples, n)),
                        u=generator.standard_normal((n_samples, m)),
                        v=generator.standard_normal((n_samples, q)),
                        e=np.zeros((n_samples, 1)))
    X1 = generator.standard_normal((n, q))
    basis = KernelBasis(X1=X1, basis=[], C=np.eye(1, n), F=-X1[:1])
    R = generator.standard_normal((m, m))
    return log, basis, R @ R.T + np.eye(m)


def test_interval_count_and_log_length(docking, learning_data):
    cfg = docking.config
    assert learning_data.bundles[0].rows == 250
    assert len(learning_data.log) == int(round(cfg.horizon / cfg.dt)) + 1
    assert learning_data.log.dt == pytest.approx(cfg.dt)
    # intervals are counted in whole dt steps: 0.3 s holds three of 0.1 s
    # although 0.3 / 0.1 < 3 in floating point, and 0.05 s holds none
    log = collect_data(docking.model, docking.exo, None, None, np.zeros(6),
                       horizon=0.3, dt=cfg.dt, interval=0.1)
    assert assemble_regression(log, learning_data.basis, cfg.R, 0.1)[0].rows == 3
    with pytest.raises(ValueError, match="horizon must cover at least one interval"):
        collect_data(docking.model, docking.exo, None, None, np.zeros(6),
                     horizon=0.05, dt=cfg.dt, interval=0.1)


def test_collect_zero_excitation_is_zero(docking):
    cfg = docking.config
    silent_exo = Exosystem(E=docking.exo.E, v0=np.zeros(8))
    log = collect_data(docking.model, silent_exo, None, None, np.zeros(6),
                       horizon=1.0, dt=cfg.dt, interval=cfg.interval)
    assert not np.any(log.x)
    assert not np.any(log.u)
    assert not np.any(log.v)


def test_collect_replay_is_deterministic(docking, learning_data):
    cfg = docking.config
    replay = collect_data(docking.model, docking.exo, None, cfg.noise_spec(),
                          cfg.x0, horizon=cfg.horizon, dt=cfg.dt,
                          interval=cfg.interval)
    assert np.array_equal(replay.x, learning_data.log.x)
    assert np.array_equal(replay.u, learning_data.log.u)


def test_collect_detects_divergence(docking):
    # positive position feedback blows up well inside the horizon
    K0 = -1e6 * np.hstack([np.eye(3), np.zeros((3, 3))])
    with pytest.raises(DivergenceError) as excinfo:
        collect_data(docking.model, docking.exo, K0, None, np.zeros(6),
                     horizon=2.0, dt=1e-3, interval=0.1)
    assert 0.0 < excinfo.value.time <= 2.0


def test_collect_validates_inputs(docking):
    cfg = docking.config
    with pytest.raises(ValueError):
        collect_data(docking.model, docking.exo, np.zeros((2, 6)), None,
                     cfg.x0, horizon=1.0, dt=1e-3, interval=0.1)
    bad_noise = cfg.noise_spec()
    bad_noise = type(bad_noise)(amplitudes=bad_noise.amplitudes[:2],
                                frequencies=bad_noise.frequencies[:2],
                                phases=bad_noise.phases[:2])
    with pytest.raises(ValueError):
        collect_data(docking.model, docking.exo, None, bad_noise, cfg.x0,
                     horizon=1.0, dt=1e-3, interval=0.1)
    with pytest.raises(ValueError):
        collect_data(docking.model, docking.exo, None, None, cfg.x0,
                     horizon=1.0, dt=1e-3, interval=0.00037)


def test_bundle_dimensions(learning_data):
    b0 = learning_data.bundles[0]
    assert (b0.n, b0.m, b0.q) == (6, 3, 8)
    assert b0.rows == 250
    assert b0.required_rank == 87
    assert b0.Theta.shape == (250, 87)


def test_bundle_rejects_inconsistent_dimensions(learning_data):
    b0 = learning_data.bundles[0]
    matrices = dict(Theta=b0.Theta, Dxx=b0.Dxx)
    with pytest.raises(ValueError, match="Theta must have 250 rows and 63 columns"):
        RegressionBundle(**matrices, n=6, m=3, q=4)
    with pytest.raises(ValueError, match="Theta must have 250 rows and 70 columns"):
        RegressionBundle(**matrices, n=5, m=3, q=8)
    with pytest.raises(ValueError, match="Dxx must have 250 rows and 21 columns"):
        RegressionBundle(Theta=b0.Theta, Dxx=b0.Dxx[1:], n=6, m=3, q=8)


def test_sweep_stores_bundle_0_and_the_exostate_moments_only(learning_data):
    # Theta, Dxx, the vv' integrals and the exostate at the interval ends: no
    # moment that only an offset regression reads, and no copy of the log
    sweep = learning_data.bundles
    stored = [value for value in vars(sweep).values() if isinstance(value, np.ndarray)]
    stored += [sweep[0].Theta, sweep[0].Dxx]
    assert all(value.dtype == np.float64 for value in stored)
    assert sum(value.size for value in stored) == 250 * (87 + 21 + 36) + 251 * 8
    assert sweep.M_vv.shape == (250, 36) and sweep.v_end.shape == (251, 8)


def test_sweep_holds_bundle_0_read_only(learning_data):
    sweep = learning_data.bundles
    assert isinstance(sweep, RegressionSweep) and len(sweep) == 1
    assert sweep[0] is sweep[0] is sweep.bundle
    for j in (1, -1):
        with pytest.raises(IndexError, match="bundle 0 only"):
            sweep[j]
    with pytest.raises(TypeError):
        sweep[0] = sweep[0]
    for value in (sweep[0].Theta, sweep[0].Dxx, sweep.M_vv, sweep.v_end):
        with pytest.raises(ValueError, match="read-only"):
            value[0, 0] = 1.0


def test_assembly_matches_per_offset_reference(learning_data, offset_bundles):
    assert_matches_reference(learning_data.bundles[0], offset_bundles.bundles[0])


@pytest.mark.parametrize("n, m, q", [(1, 1, 1), (2, 1, 3), (4, 2, 1), (5, 3, 4)])
def test_assembly_matches_reference_random_dims(n, m, q):
    # 7 whole intervals of 20 steps plus a ragged tail the assembly must ignore
    g = np.random.default_rng(100 * n + 10 * m + q)
    log, basis, R = random_log_and_basis(n, m, q, 7 * 20 + 6, 0.01, g)
    bundle = assemble_regression(log, basis, R, 0.2)[0]
    assert (bundle.n, bundle.m, bundle.q, bundle.rows) == (n, m, q, 7)
    reference, = reference_assembly(log, [np.zeros((n, q))], R, 0.2)
    assert_matches_reference(bundle, reference)


@st.composite
def random_assembly_case(draw):
    """Random (n, m, q) data over at least as many intervals as unknowns and a
    ragged tail."""
    n, m, q = draw(st.sampled_from([(1, 1, 1), (2, 1, 3), (3, 2, 2), (4, 2, 1), (5, 3, 4)]))
    cols, d = n * (n + 1) // 2 + (m + q) * n, n + q
    intervals = draw(st.integers(cols, d * (d + 1) // 2 + d * m + 40))
    steps = draw(st.integers(1, 5))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    log, basis, R = random_log_and_basis(n, m, q, intervals * steps + 1 + draw(
        st.integers(0, steps - 1)), 0.01, g)
    return log, basis, R, 0.01 * steps


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(random_assembly_case())
def test_assembly_matches_the_one_pass_reference(case):
    log, basis, R, interval = case
    sweep = assemble_regression(log, basis, R, interval)
    assert sweep.dt == log.dt
    assert (sweep.n, sweep.m, sweep.q) == (log.x.shape[1], log.u.shape[1], log.v.shape[1])
    for got, want in zip((sweep[0].Theta, sweep[0].Dxx, sweep.M_vv),
                         eager_assembly(log, R, interval), strict=True):
        assert np.array_equal(got, want)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="where os.fork is missing, assembly starts no thread")


def assemble_on_cpus(mp, cpus, block_values, log, basis, R, interval):
    """assemble_regression with ``cpus`` free CPUs, no size floor and blocks of
    ``block_values`` values (None for the default): (sweep, threads started).

    Every float buffer numpy.empty gives out starts as NaN, so a row that
    no range writes shows even where the allocator hands back the memory
    of an earlier, correct assembly.
    """
    empty = np.empty

    def poisoned(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out

    mp.setattr(np, "empty", poisoned)
    mp.setattr(matops, "_usable_cpus", lambda: cpus)
    mp.setattr(matops, "FORK_MIN_VALUES", 1)
    if block_values is not None:
        mp.setattr(adp, "ASSEMBLY_BLOCK_VALUES", block_values)
    started, start = [], threading.Thread.start
    mp.setattr(threading.Thread, "start", lambda thread: (started.append(thread), start(thread)))
    threads = threading.active_count()
    sweep = assemble_regression(log, basis, R, interval)
    assert threading.active_count() == threads  # every worker is joined
    return sweep, len(started)


def assert_same_bits_on_1_2_3_threads(log, basis, R, interval, block_values=None):
    """Theta, Dxx and M_vv on 1, 2 and 3 threads equal the one-pass reference to the bit."""
    eager = eager_assembly(log, R, interval)
    sweeps = []
    for cpus in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            sweep, started = assemble_on_cpus(mp, cpus, block_values, log, basis, R, interval)
        assert started == min(cpus, sweep[0].rows) - 1
        for name, got, want in zip(("Theta", "Dxx", "M_vv"),
                                   (sweep[0].Theta, sweep[0].Dxx, sweep.M_vv), eager):
            assert np.array_equal(got, want), (name, cpus)
        sweeps.append(sweep)
    return sweeps


@needs_fork
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(random_assembly_case(), st.integers(1, 400))
def test_assembly_bits_do_not_depend_on_the_thread_count(case, block_values):
    # blocks from one interval to the whole log, with a ragged last block
    assert_same_bits_on_1_2_3_threads(*case, block_values=block_values)


@needs_fork
def test_docking_assembly_bits_do_not_depend_on_the_thread_count(docking, learning_data):
    cfg = docking.config
    assert_same_bits_on_1_2_3_threads(learning_data.log, learning_data.basis, cfg.R,
                                      cfg.interval)


@needs_fork
def test_learned_gains_do_not_depend_on_the_assembly_thread_count_at_1000_intervals(docking):
    # a 100 s docking log sampled at 10 ms: 1000 intervals, split 1000, 500 + 500
    # and 333 + 333 + 334
    cfg = docking.config
    log = collect_data(docking.model, docking.exo, None, cfg.noise_spec(), cfg.x0,
                       horizon=100.0, dt=0.01, interval=cfg.interval)
    sweeps = assert_same_bits_on_1_2_3_threads(log, kernel_basis(docking.model), cfg.R,
                                               cfg.interval)
    assert sweeps[0][0].rows == 1000
    (P, K, _), *others = [vi_learn(sweep[0], cfg.Q, cfg.R) for sweep in sweeps]
    for P_other, K_other, _ in others:
        assert np.array_equal(P_other, P) and np.array_equal(K_other, K)


def test_identification_matches_per_offset_recovery_on_a_simulated_log(docking, offset_bundles,
                                                                      learned):
    # the per-offset regressions of the docking log stay the reference: D_hat and
    # B_hat solve bundle 0's regression as they do (D_hat is about 5e-5 in size, so
    # its rounding shows at 1e-8 relative), and each S(X_j) agrees within the
    # reference's own quadrature error while lying closer to the true Sylvester image
    cfg, offsets = docking.config, offset_bundles.offsets
    recovery = learned.recovery
    reference = reference_recovery(offset_bundles.bundles, learned.P, learned.K, cfg.R)
    for got, want in ((recovery.D_hat, reference.D_hat), (recovery.B_hat, reference.B_hat)):
        assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)
    truth = [sylvester_image(X, docking.model.A, docking.exo.E) for X in offsets[1:]]
    for got, want, exact in zip(identified_sylvester_images(recovery, offsets[1:]),
                                reference.S_values, truth, strict=True):
        assert np.linalg.norm(got - want) <= 1e-3 * np.linalg.norm(want)
        assert np.linalg.norm(got - exact) < np.linalg.norm(want - exact)


def test_recovery_reuses_the_operator_value_iteration_solved(docking, learning_data, learned,
                                                            monkeypatch):
    # one lstsq of bundle 0 gives check_rank's verdict and serves vi_learn and
    # recovery, through adp's lstsq name
    cfg = docking.config
    calls = []

    def counting(theta, rhs):
        calls.append(theta.shape)
        return lstsq(theta, rhs)

    monkeypatch.setattr("adpdock.adp.lstsq", counting)
    sweep = assemble_regression(learning_data.log, learning_data.basis, cfg.R, cfg.interval)
    assert check_rank(sweep[0]) == (True, 87, 87) and calls == [(250, 87)]
    P, K, _ = vi_learn(sweep[0], cfg.Q, cfg.R)
    recovery = recover_model_artifacts(sweep, P, K, cfg.R)
    assert calls == [(250, 87)]
    assert np.array_equal(recovery.E_hat, learned.recovery.E_hat)
    assert np.array_equal(recovery.D_hat, learned.recovery.D_hat)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_lyapunov_fit_recovers_A_from_its_operator(n, seed):
    # the H block of an exact operator is vecs(P) -> vecs(A'P + PA); the fit inverts it
    A = np.random.default_rng(seed).standard_normal((n, n))
    coords = [unvecs(e) for e in np.eye(n * (n + 1) // 2)]
    dH = np.column_stack([vecs(A.T @ P + P @ A) for P in coords])
    A_hat, residual = adp._identify_plant(dH, n)
    assert np.abs(A_hat - A).max() <= 1e-12 * (1.0 + np.abs(A).max()) and residual <= 1e-14
    design, pinv = adp._lyapunov_design(n)
    assert adp._lyapunov_design(n)[1] is pinv and not pinv.flags.writeable
    assert design.shape == ((n * (n + 1) // 2) ** 2, n * n)


def test_bundle_operator_is_solved_once_and_a_failed_solve_is_not_kept(monkeypatch):
    g = np.random.default_rng(5)
    theta, calls = g.standard_normal((40, 7)), []

    def counting(theta, rhs):
        calls.append(theta.shape)
        return lstsq(theta, rhs)

    monkeypatch.setattr("adpdock.adp.lstsq", counting)
    bundle = _scaled_bundle(theta)
    assert bundle.solve_op is bundle.solve_op and calls == [(40, 7)]
    assert np.array_equal(bundle.solve_op, lstsq(theta, bundle.Dxx)[0])
    dependent = theta.copy()
    dependent[:, 6] = dependent[:, 0]
    deficient = _scaled_bundle(dependent)
    for _ in range(2):
        with pytest.raises(RankDeficiencyError):
            deficient.solve_op
    assert calls == [(40, 7)] * 3


def test_exosystem_fit_reports_the_rank_of_a_silent_exostate():
    # v = 0: no moment and no change identifies any entry of E
    g = np.random.default_rng(8)
    log, basis, R = random_log_and_basis(2, 1, 3, 201, 0.01, g)
    log = TrajectoryLog(t=log.t, x=log.x, u=log.u, v=np.zeros_like(log.v), e=log.e)
    with pytest.raises(RankDeficiencyError, match="rank 0 < 9") as excinfo:
        adp._identify_exosystem(assemble_regression(log, basis, R, 0.1))
    assert (excinfo.value.rank, excinfo.value.required) == (0, 9)


def exact_moment_sweep(model, exo, R, K0, intervals, h, generator):
    """A RegressionSweep of exact interval moments of the plant's flow.

    z = [x; v] follows dz/dt = [[A, D], [0, E]] z + [B; 0] u exactly (matrix
    exponentials), with u = -K0 x_l + eta_l held over interval l and eta_l
    random, ten times the unit normal. The moments are 8-point
    Gauss-Legendre integrals of that flow, exact to rounding for its smooth
    integrands over short intervals, so the sweep carries dt = 0: there is
    no quadrature bias to correct.
    """
    n, m, q = model.n, model.m, exo.q
    d = n + q
    flow = np.zeros((d + m, d + m))
    flow[:n, :n], flow[:n, n:d], flow[n:d, n:d], flow[:n, d:] = model.A, model.D, exo.E, model.B
    nodes, weights = leggauss(8)
    at_nodes = [expm(flow * 0.5 * h * (1.0 + tau)) for tau in nodes]
    step = expm(flow * h)
    z = np.concatenate([generator.standard_normal(n), exo.v0])
    ends, zz, zu = [z], [], []
    for _ in range(intervals):
        u = -K0 @ z[:n] + 10.0 * generator.standard_normal(m)
        w0 = np.concatenate([z, u])
        samples = np.array([flow_map @ w0 for flow_map in at_nodes])[:, :d]
        zz.append(np.einsum("k,ka,kb->ab", 0.5 * h * weights, samples, samples))
        zu.append(np.outer(0.5 * h * weights @ samples, u).ravel())
        z = (step @ w0)[:d]
        ends.append(z)
    zz, zu, ends = np.array(zz), np.array(zu), np.array(ends)
    ix, jx = np.triu_indices(n)
    iv, jv = np.triu_indices(q)
    Theta = np.hstack([zz[:, ix, jx], zu[:, : n * m] @ (2.0 * np.kron(np.eye(n), R)),
                       2.0 * zz[:, :n, n:].reshape(intervals, n * q)])
    bundle = RegressionBundle(Theta=Theta, Dxx=np.diff(vecv(ends[:, :n]), axis=0), n=n, m=m, q=q)
    return RegressionSweep(bundle, zz[:, n + iv, n + jv], ends[:, n:], 0.0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, n), st.integers(1, n), st.integers(1, 3),
    st.integers(0, 2**32 - 1))))
def test_identification_on_exact_moments_matches_exact_regulator(plant):
    # p < n and p = n: identification from model-consistent data, then the
    # data-driven regulator solve, gives the model-based (X, U). The bound
    # assumes a data matrix of condition number below 1e8, where rounding in
    # its least-squares solve stays well under 1e-9; a nearly uncontrollable
    # plant (its stabilizing gain in the thousands) gives cond 5e9 and 1.6e-6
    n, m, p, q, seed = plant
    g = np.random.default_rng(seed)
    model, exo = random_solvable(n, m, p, q, g)
    exo = Exosystem(E=exo.E, v0=g.standard_normal(q))
    R = np.diag(g.uniform(0.5, 2.0, m))
    K0 = np.linalg.solve(R, model.B.T @ solve_continuous_are(model.A, model.B, np.eye(n), R))
    basis = kernel_basis(model)
    cols = n * (n + 1) // 2 + (m + q) * n
    sweep = exact_moment_sweep(model, exo, R, K0, 3 * cols + 20, 0.1, g)
    assume(np.linalg.cond(equilibrate(sweep[0].Theta)[0]) < 1e8)
    W = g.standard_normal((n, n))
    P = W @ W.T + n * np.eye(n)  # any P: K carries B and the M block D at every P
    recovery = recover_model_artifacts(sweep, P, np.linalg.solve(R, model.B.T @ P), R)
    assert recovery.E_rank == recovery.E_required == q * q
    Qbar, Rbar = np.diag(g.uniform(0.5, 2.0, n)), np.diag(g.uniform(0.5, 2.0, m))
    sol = solve_problem1_datadriven(recovery, basis, Qbar, Rbar)
    ref = solve_regulator_exact(model, exo, Qbar, Rbar)
    got = np.concatenate([vec(sol.X), vec(sol.U)])
    want = np.concatenate([vec(ref.X), vec(ref.U)])
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


@st.composite
def neutral_exosystem(draw):
    """A random neutrally stable E = T blockdiag(w_i [[0, 1], [-1, 0]]) T^-1 with
    distinct frequencies w_i, a well-conditioned T and a v0 exciting every mode."""
    blocks = draw(st.integers(1, 3))
    gaps = draw(st.lists(st.floats(0.25, 1.5), min_size=blocks, max_size=blocks))
    freqs = 0.5 + np.cumsum(gaps) - gaps[0]
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T = np.linalg.qr(g.standard_normal((2 * blocks, 2 * blocks)))[0] * g.uniform(0.5, 2.0,
                                                                                  2 * blocks)
    return freqs, T, g.uniform(0.5, 1.5, 2 * blocks) * g.choice([-1.0, 1.0], 2 * blocks)


def exostate_sweep(freqs, T, c0, dt, horizon=10.0, interval=0.1):
    """The sweep of a log whose exostate is v(t) = T c(t), each block of c a
    rotation at its frequency, sampled in closed form; x and u are noise."""
    t = dt * np.arange(int(round(horizon / dt)) + 1)
    c = np.empty((len(t), 2 * len(freqs)))
    for i, w in enumerate(freqs):
        cos, sin = np.cos(w * t), np.sin(w * t)
        a, b = c0[2 * i], c0[2 * i + 1]
        c[:, 2 * i], c[:, 2 * i + 1] = cos * a + sin * b, cos * b - sin * a
    g = np.random.default_rng(0)
    log = TrajectoryLog(t=t, x=g.standard_normal((len(t), 1)), u=g.standard_normal((len(t), 1)),
                        v=c @ T.T, e=np.zeros((len(t), 1)))
    basis = KernelBasis(X1=np.ones((1, T.shape[0])), basis=[], C=np.eye(1),
                        F=-np.ones((1, T.shape[0])))
    return assemble_regression(log, basis, np.eye(1), interval)


def without_end_correction(sweep):
    return RegressionSweep(sweep[0], sweep.M_vv, sweep.v_end, 0.0)


def bdiag_rotations(freqs):
    return matops.bdiag([np.array([[0.0, w], [-w, 0.0]]) for w in freqs])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(neutral_exosystem())
def test_exosystem_identified_after_the_end_correction(case):
    # the corrected fit recovers E to 1e-9; the plain trapezoidal one is off by
    # O(dt^2), a quarter of it at half the step
    freqs, T, c0 = case
    E = T @ bdiag_rotations(freqs) @ np.linalg.inv(T)
    errors = []
    for dt in (1e-3, 5e-4):
        sweep = exostate_sweep(freqs, T, c0, dt)
        E_hat, rank, residual = adp._identify_exosystem(sweep)
        assert rank == E.size and residual <= 1e-9
        assert np.linalg.norm(E_hat - E) <= 1e-9 * np.linalg.norm(E)
        plain = adp._identify_exosystem(without_end_correction(sweep))[0]
        errors.append(np.linalg.norm(plain - E) / np.linalg.norm(E))
    assert 3.5 <= errors[0] / errors[1] <= 4.5


@pytest.mark.skipif(numpy_openblas() is None, reason="needs OpenBLAS thread control")
def test_recovery_bits_do_not_depend_on_the_blas_thread_count_at_1000_intervals(docking,
                                                                                 monkeypatch):
    # the docking dimensions over 1000 intervals, the size of a 100 s log,
    # unpinned: bundle 0's 1000 x 108 QR (rank verdict and operator) and the
    # exosystem's 1000 x 72 QR run on one and on two OpenBLAS threads. Value
    # iteration needs data from a plant, so it runs on a 100 s docking log
    # sampled at 10 ms, which has 1000 intervals too
    g = np.random.default_rng(1000)
    log, basis, R = random_log_and_basis(6, 3, 8, 1001, 0.01, g)
    W = g.standard_normal((6, 6))
    P, K = W @ W.T + 6 * np.eye(6), g.standard_normal((3, 6))
    cfg = docking.config
    plant_log = collect_data(docking.model, docking.exo, None, cfg.noise_spec(), cfg.x0,
                             horizon=100.0, dt=0.01, interval=cfg.interval)
    plant_basis = kernel_basis(docking.model)
    get, put = numpy_openblas()
    unpinned(monkeypatch)
    previous, runs = get(), []
    try:
        for threads in (1, 2):
            put(threads)
            sweep = assemble_regression(log, basis, R, 0.01)
            assert sweep[0].rows == 1000
            verdict = check_rank(sweep[0])
            recovery = recover_model_artifacts(sweep, P, K, R)
            plant_sweep = assemble_regression(plant_log, plant_basis, cfg.R, cfg.interval)
            assert plant_sweep[0].rows == 1000
            plant_verdict = check_rank(plant_sweep[0])
            P_vi, K_vi, _ = vi_learn(plant_sweep[0], cfg.Q, cfg.R)
            runs.append((verdict, plant_verdict, recovery, P_vi, K_vi))
    finally:
        put(previous)
    (verdict, plant_verdict, one, P_one, K_one), (*verdicts, two, P_two, K_two) = runs
    assert verdict == plant_verdict == (True, 87, 87) and verdicts == [verdict, plant_verdict]
    for name in ("D_hat", "B_hat", "A_hat", "E_hat", "A_residual", "E_residual"):
        assert np.array_equal(getattr(one, name), getattr(two, name)), name
    assert np.array_equal(P_one, P_two) and np.array_equal(K_one, K_two)


def test_bundle_j0_difference_is_raw(docking, learning_data):
    # X_0 = 0, so the j = 0 endpoint differences come straight from x
    cfg = docking.config
    b0 = learning_data.bundles[0]
    steps = int(round(cfg.interval / cfg.dt))
    ends = np.arange(0, b0.rows * steps + 1, steps)
    vv = vecv(learning_data.log.x[ends])
    assert np.array_equal(b0.Dxx, vv[1:] - vv[:-1])


def test_offset_fixture_holds_the_papers_26_offsets(docking, learning_data, offset_bundles):
    # criterion 8 and the per-offset tests cover the paper's h + 2 = 26 offsets:
    # X_0 = 0, then X_1 and X_1 + N_i, all solving C X + F = 0, with the N_i
    # spanning C's h-dimensional kernel
    model, basis = docking.model, learning_data.basis
    offsets = offset_bundles.offsets
    assert len(offsets) == len(offset_bundles.bundles) == basis.h + 2 == 26
    assert np.array_equal(offsets[0], np.zeros((6, 8))) and offsets[1] is basis.X1
    for Xj in offsets[1:]:
        assert np.linalg.norm(model.C @ Xj + model.F) <= 1e-12
    directions = np.column_stack([vec(Xj - basis.X1) for Xj in offsets[2:]])
    assert np.linalg.matrix_rank(directions) == basis.h


def test_regression_identity_all_offsets(docking, oracle, offset_bundles):
    # the integrated rows must satisfy the continuous-time value identity
    # for the true (H, K, M) at any symmetric P, every offset included
    A, B, D = docking.model.A, docking.model.B, docking.model.D
    E = docking.exo.E
    R = docking.config.R
    raw = rng.standard_normal((6, 6))
    for P in (oracle.P_star, raw + raw.T):
        H = A.T @ P + P @ A
        K = np.linalg.solve(R, B.T @ P)
        for bundle, Xj in zip(offset_bundles.bundles, offset_bundles.offsets, strict=True):
            M = (D - sylvester_image(Xj, A, E)).T @ P
            theta = np.concatenate([vecs(H), vec(K), vec(M)])
            lhs = bundle.Dxx @ vecs(P)
            residual = np.linalg.norm(lhs - bundle.Theta @ theta)
            assert residual <= 1e-5 * np.linalg.norm(lhs)


def test_rank_check(docking, learning_data):
    ok, rank, required = check_rank(learning_data.bundles[0])
    assert ok and rank == 87 and required == 87

    cfg = docking.config
    silent_exo = Exosystem(E=docking.exo.E, v0=np.zeros(8))
    zero_log = collect_data(docking.model, silent_exo, None, None, np.zeros(6),
                            horizon=1.0, dt=cfg.dt, interval=cfg.interval)
    zero_bundle = assemble_regression(zero_log, learning_data.basis, cfg.R,
                                      cfg.interval)[0]
    ok, rank, _ = check_rank(zero_bundle)
    assert not ok and rank == 0

    log = learning_data.log
    keep = int(round(5.0 / cfg.dt)) + 1  # 50 intervals: fewer rows than unknowns
    short = TrajectoryLog(t=log.t[:keep], x=log.x[:keep], u=log.u[:keep],
                          v=log.v[:keep], e=log.e[:keep])
    short_bundle = assemble_regression(short, learning_data.basis, cfg.R,
                                       cfg.interval)[0]
    ok, rank, required = check_rank(short_bundle)
    assert not ok and rank < required


def _scaled_bundle(theta):
    """A (n, m, q) = (2, 1, 1) bundle with R = I around a given Theta."""
    rows = theta.shape[0]
    return RegressionBundle(Theta=theta, Dxx=np.ones((rows, 3)), n=2, m=1, q=1)


def test_rank_check_agrees_with_lstsq_across_column_scales():
    g = np.random.default_rng(27)
    cases = []
    for span in (0.0, 6.0, 9.0, 12.0):
        theta = g.standard_normal((40, 7)) * 10.0 ** np.linspace(-span, span, 7)
        dependent = theta.copy()
        dependent[:, 6] = 1e-9 * theta[:, 0] + 1e9 * theta[:, 3]
        cases += [theta, dependent]
    cases.append(np.zeros((40, 7)))
    verdicts = []
    for theta in cases:
        ok, rank, required = check_rank(_scaled_bundle(theta))
        try:
            lstsq(theta, np.ones(40))
            solvable = True
        except RankDeficiencyError:
            solvable = False
        assert ok == solvable and required == 7
        verdicts.append((ok, rank))
    assert verdicts[-1] == (False, 0)
    assert [ok for ok, _ in verdicts[:-1]] == [True, False] * 4
    # the widest spans defeat a rank test on the unscaled blocks
    raw = np.hstack([cases[6][:, :3], cases[6][:, 3:5] / 2.0, cases[6][:, 5:] / 2.0])
    assert numerical_rank(raw) < 7 and verdicts[6] == (True, 7)


def test_rank_check_reports_what_lstsq_raises_without_rows_to_spare():
    # no rows, and fewer rows than columns: the solve raises the rank and the
    # required count, and check_rank returns them as its verdict
    g = np.random.default_rng(31)
    for rows in (0, 5):
        theta = g.standard_normal((rows, 7))
        with pytest.raises(RankDeficiencyError, match=f"rank {rows} < 7 columns") as excinfo:
            lstsq(theta, np.ones(rows))
        assert (excinfo.value.rank, excinfo.value.required) == (rows, 7)
        assert check_rank(_scaled_bundle(theta)) == (False, rows, 7)


def test_recovery_fails_loudly_when_the_exostate_does_not_excite_the_exosystem(docking):
    # the 4 rad/s mode starts at 1e-9: the data matrix keeps full rank and value
    # iteration converges, but E_hat's normal system has rank 48 of 64
    cfg = docking.config
    model, exo = cfg.scenario()
    faint = Exosystem(E=exo.E, v0=[1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1e-9, 0.0])
    log = collect_data(model, faint, None, cfg.noise_spec(), cfg.x0, horizon=cfg.horizon,
                       dt=cfg.dt, interval=cfg.interval)
    sweep = assemble_regression(log, kernel_basis(model), cfg.R, cfg.interval)
    assert check_rank(sweep[0]) == (True, 87, 87)
    P, K, _ = vi_learn(sweep[0], cfg.Q, cfg.R)
    with pytest.raises(RankDeficiencyError, match="does not excite every mode") as excinfo:
        recover_model_artifacts(sweep, P, K, cfg.R)
    assert (excinfo.value.rank, excinfo.value.required) == (48, 64)


def test_vi_learn_requires_rank(docking, learning_data):
    cfg = docking.config
    silent_exo = Exosystem(E=docking.exo.E, v0=np.zeros(8))
    zero_log = collect_data(docking.model, silent_exo, None, None, np.zeros(6),
                            horizon=1.0, dt=cfg.dt, interval=cfg.interval)
    bundle = assemble_regression(zero_log, learning_data.basis, cfg.R,
                                 cfg.interval)[0]
    with pytest.raises(RankDeficiencyError) as excinfo:
        vi_learn(bundle, cfg.Q, cfg.R)
    assert excinfo.value.rank == 0
    assert excinfo.value.required == 87


def test_vi_learn_decides_rank_once_through_lstsq(docking, monkeypatch):
    # a dependent column: the one rank decision is lstsq's, with the
    # message that names the remedy and the rank and required count
    cfg = docking.config
    theta = np.random.default_rng(3).standard_normal((40, 7))
    theta[:, 6] = theta[:, 0] + theta[:, 3]
    monkeypatch.setattr("adpdock.adp.check_rank", None)  # not called any more
    with pytest.raises(RankDeficiencyError, match=re.escape(
            "data matrix rank 6 < required 7; "
            "extend the horizon or enrich the exploration signal")) as excinfo:
        vi_learn(_scaled_bundle(theta), np.eye(2), np.eye(1))
    assert (excinfo.value.rank, excinfo.value.required) == (6, 7)
    # fewer rows than columns is a rank deficiency too
    with pytest.raises(RankDeficiencyError) as excinfo:
        vi_learn(_scaled_bundle(theta[:5]), np.eye(2), np.eye(1))
    assert (excinfo.value.rank, excinfo.value.required) == (5, 7)


def test_vi_learn_matches_model_based(docking, oracle, learned):
    rel_K = np.linalg.norm(learned.K - oracle.K_star) / np.linalg.norm(oracle.K_star)
    rel_P = np.linalg.norm(learned.P - oracle.P_star) / np.linalg.norm(oracle.P_star)
    assert rel_K <= 1e-2
    assert rel_P <= 1e-2
    assert learned.history.converged


def test_vi_learn_off_policy_invariance(docking, learning_data, learned):
    # a different initial value lands on the same value
    cfg = docking.config
    P_alt, _, _ = vi_learn(learning_data.bundles[0], cfg.Q, cfg.R, P0=2.0 * np.eye(6))
    assert np.linalg.norm(P_alt - learned.P) <= 2.0 * cfg.eps


def test_vi_learn_fixed_point(docking, oracle, learning_data, learned):
    # started at P*, the first Newton try (k = 2) stops the run at the root
    # of the data equation that the run from P0 = I reaches
    cfg = docking.config
    P, _, history = vi_learn(learning_data.bundles[0], cfg.Q, cfg.R,
                             P0=oracle.P_star)
    assert history.iterations == 2 and history.newton_steps >= 1
    assert np.abs(P - learned.P).max() <= 1e-8


def test_vi_learn_matches_reference_residual_loop(docking, learning_data, learned, monkeypatch):
    # run_value_iteration on the round-trip residual visits the same
    # iterates: the rows before the Newton handoff, and the whole run when
    # no Newton try passes
    cfg = docking.config
    bundle = learning_data.bundles[0]
    solve_op, _ = lstsq(bundle.Theta, bundle.Dxx)
    P, K, history = run_value_iteration(
        reference_vi_residual(solve_op, cfg.Q, cfg.R, bundle.n, bundle.m), np.eye(bundle.n),
        1e-3, linear_balls(), 200000)

    def same_rows(got, want):
        rows = got.iterations
        assert np.array_equal(got.reset_count, want.reset_count[:rows])
        assert np.abs(got.increment - want.increment[:rows]).max() <= 1e-12 * want.increment.max()

    handoff = learned.history
    assert handoff.newton_steps > 0 and handoff.iterations < history.iterations
    same_rows(handoff, history)

    def singular(self, P, F, K):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(DataRiccati, "newton_step", singular)
    P_vi, K_vi, fallback = vi_learn(bundle, cfg.Q, cfg.R)
    assert np.abs(P_vi - P).max() <= 1e-12
    assert np.abs(K_vi - K).max() <= 1e-12
    assert (fallback.iterations, fallback.resets, fallback.newton_steps, fallback.vi_stop_gap) == (
        history.iterations, history.resets, 0, 0.0)
    same_rows(fallback, history)


def test_vi_stop_gap_is_the_gain_change_of_the_accepted_newton_try(docking, learning_data,
                                                                   learned, monkeypatch):
    # a try starts where newton_step is handed a P it did not return: a value iterate
    newton_step, tries = DataRiccati.newton_step, []

    def recording(self, P, F, K):
        if not tries or P is not tries[-1][1]:
            tries.append([K, None])
        tries[-1][1] = newton_step(self, P, F, K)
        return tries[-1][1]

    monkeypatch.setattr(DataRiccati, "newton_step", recording)
    cfg = docking.config
    P, K, history = vi_learn(learning_data.bundles[0], cfg.Q, cfg.R)
    assert np.array_equal(P, learned.P) and history.newton_steps > 0
    assert history.vi_stop_gap == np.abs(tries[-1][0] - K).max() > 0.0


@st.composite
def regression_and_state(draw):
    """A full-column-rank regression solve operator, a symmetric P and weights."""
    n, m, q = draw(st.sampled_from([(1, 1, 1), (2, 1, 3), (4, 2, 1), (5, 3, 4)]))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ns = n * (n + 1) // 2
    cols = ns + (m + q) * n
    solve_op, _ = lstsq(g.standard_normal((cols + 5, cols)), g.standard_normal((cols + 5, ns)))
    S, W, V = g.standard_normal((n, n)), g.standard_normal((n, n)), g.standard_normal((m, m))
    return n, m, solve_op, S + S.T, W @ W.T, V @ V.T + np.eye(m)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(regression_and_state())
def test_data_residual_matches_reference(case):
    n, m, solve_op, P, Q, R = case
    riccati_map = DataRiccati(solve_op, Q, R, n, m)
    # the index-built coordinate maps are the vecs and unvecs images of unit matrices
    units = np.eye(n * n).reshape(n * n, n, n)
    assert np.array_equal(riccati_map._to_vecs,
                          np.column_stack([vecs(0.5 * (E + E.T)) for E in units]))
    assert np.array_equal(riccati_map._from_vecs,
                          np.column_stack([unvecs(e).ravel() for e in np.eye(n * (n + 1) // 2)]))
    delta, K = riccati_map(P)
    ref_delta, ref_K = reference_vi_residual(solve_op, Q, R, n, m)(P)
    assert K.shape == (m, n)
    assert np.linalg.norm(delta - ref_delta) <= 1e-12 * np.linalg.norm(ref_delta)
    assert np.linalg.norm(K - ref_K) <= 1e-12 * np.linalg.norm(ref_K)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(regression_and_state(), st.integers(0, 2**32 - 1))
def test_data_riccati_jacobian_matches_central_differences(case, seed):
    # F is quadratic, so central differences are its derivative up to rounding
    n, m, solve_op, P, Q, R = case
    riccati_map = DataRiccati(solve_op, Q, R, n, m)
    S = np.random.default_rng(seed).standard_normal((n, n))
    direction, h = S + S.T, 1e-3
    central = (riccati_map(P + h * direction)[0] - riccati_map(P - h * direction)[0]) / (2 * h)
    jac = riccati_map.jacobian(riccati_map(P)[1])
    assert jac.shape == (n * (n + 1) // 2,) * 2
    got = unvecs(jac @ vecs(direction))
    assert np.linalg.norm(got - central) <= 1e-8 * np.linalg.norm(central)


def exact_operator_bundle(model, R):
    """The j = 0 regression of exact data: Theta = I and Dxx the map
    vecs(P) -> [vecs(A'P + PA); vec(R^-1 B'P); vec(D'P)]."""
    n = model.n
    Dxx = np.column_stack([
        np.concatenate([vecs(model.A.T @ P + P @ model.A),
                        vec(np.linalg.solve(R, model.B.T @ P)), vec(model.D.T @ P)])
        for P in map(unvecs, np.eye(n * (n + 1) // 2))])
    return RegressionBundle(Theta=np.eye(len(Dxx)), Dxx=Dxx, n=n, m=model.m, q=model.q)


def test_vi_learn_newton_finisher_on_random_plants():
    # every Newton point is the stabilizing ARE solution, and wherever value
    # iteration alone converges vi_learn does too; every plant is counted
    g = np.random.default_rng(2016)
    max_k = 2000
    rescued = neither = 0
    for _ in range(100):
        n, m = int(g.integers(1, 5)), int(g.integers(1, 4))
        model, _ = random_solvable(n, m, 1, 2, generator=g)
        Q, R = np.eye(n), np.eye(m)
        bundle = exact_operator_bundle(model, R)
        riccati_map = DataRiccati(lstsq(bundle.Theta, bundle.Dxx)[0], Q, R, n, m)
        try:
            run_value_iteration(riccati_map, np.eye(n), 1e-3, linear_balls(), max_k)
            vi_converged = True
        except ConvergenceError:
            vi_converged = False
        try:
            P, _, history = vi_learn(bundle, Q, R, max_k=max_k)
        except ConvergenceError:
            assert not vi_converged
            neither += 1
            continue
        if history.newton_steps:
            P_star, _, _ = kleinman_from_care(model, Q, R)
            assert np.linalg.norm(P - P_star) <= 1e-10 * np.linalg.norm(P_star)
            rescued += not vi_converged
    # seed 2016 gives 19 plants that only Newton solves and 7 that neither solves
    assert rescued > 0 and neither <= 10


def test_vi_learn_rejects_bad_weights_like_model_based_vi(docking, learning_data):
    cfg = docking.config
    asym_Q, asym_R = cfg.Q.copy(), cfg.R.copy()
    asym_Q[0, 1] += 1.0
    asym_R[0, 1] += 1.0
    bad = [
        (asym_Q, cfg.R), (np.eye(5), cfg.R), (-np.eye(6), cfg.R),
        (cfg.Q, asym_R), (cfg.Q, np.eye(2)), (cfg.Q, np.diag([1.0, -1.0, 1.0])),
        (cfg.Q, np.zeros((3, 3))),
    ]
    for Q, R in bad:
        with pytest.raises(ValueError) as expected:
            model_based_vi(docking.model, Q, R)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            vi_learn(learning_data.bundles[0], Q, R)


def test_vi_learn_does_not_mutate_data(docking, learning_data):
    cfg = docking.config
    bundle = learning_data.bundles[0]
    theta_before = bundle.Theta.copy()
    dxx_before = bundle.Dxx.copy()
    vi_learn(bundle, cfg.Q, cfg.R)
    assert np.array_equal(bundle.Theta, theta_before)
    assert np.array_equal(bundle.Dxx, dxx_before)


def test_assemble_validates_inputs(docking, learning_data):
    cfg = docking.config
    log = learning_data.log
    with pytest.raises(ValueError):
        assemble_regression(log, learning_data.basis, np.eye(2), cfg.interval)
    tiny = TrajectoryLog(t=log.t[:5], x=log.x[:5], u=log.u[:5],
                         v=log.v[:5], e=log.e[:5])
    with pytest.raises(ValueError):
        assemble_regression(tiny, learning_data.basis, cfg.R, cfg.interval)


def test_assembly_and_recovery_take_every_weight_form(docking, learning_data, learned):
    # R resolves by the one weight rule: 2.0 and its diagonal give the
    # bundles and the recovery of the config's 2 I, bit for bit
    cfg = docking.config
    assert np.array_equal(cfg.R, 2.0 * np.eye(3))
    log, basis, bundles = learning_data.log, learning_data.basis, learning_data.bundles
    for R in (2.0, [2.0, 2.0, 2.0]):
        again = assemble_regression(log, basis, R, cfg.interval)
        assert np.array_equal(again[0].Theta, bundles[0].Theta)
        assert np.array_equal(again[0].Dxx, bundles[0].Dxx)
        assert np.array_equal(again.M_vv, bundles.M_vv)
        recovery = recover_model_artifacts(bundles, learned.P, learned.K, R)
        assert np.array_equal(recovery.B_hat, learned.recovery.B_hat)
        assert np.array_equal(recovery.D_hat, learned.recovery.D_hat)
    with pytest.raises(ValueError, match="R must be positive definite"):
        assemble_regression(log, basis, [1.0, 0.0, 1.0], cfg.interval)
    with pytest.raises(ValueError, match="R must be positive definite"):
        recover_model_artifacts(bundles, learned.P, learned.K, [1.0, 0.0, 1.0])


@pytest.mark.parametrize("samples", [0, 1])
def test_assemble_rejects_logs_without_a_step(docking, learning_data, samples):
    log = learning_data.log
    short = TrajectoryLog(t=log.t[:samples], x=log.x[:samples], u=log.u[:samples],
                          v=log.v[:samples], e=log.e[:samples])
    with pytest.raises(ValueError, match="log too short for a single interval"):
        assemble_regression(short, learning_data.basis, docking.config.R,
                            docking.config.interval)


def test_recovery_against_truth(docking, learned):
    model, exo = docking.model, docking.exo
    recovery = learned.recovery
    assert np.max(np.abs(recovery.D_hat - model.D)) <= 1e-2 * (1.0 + np.max(np.abs(model.D)))
    assert np.max(np.abs(recovery.B_hat - model.B)) <= 1e-2 * (1.0 + np.max(np.abs(model.B)))
    # S(X_1) from data vs the true Sylvester image
    basis = kernel_basis(model)
    S1_true = sylvester_image(basis.X1, model.A, exo.E)
    S1, = identified_sylvester_images(recovery, [basis.X1])
    err = np.linalg.norm(S1 - S1_true)
    assert err <= 1e-2 * (1.0 + np.linalg.norm(S1_true))


def test_recovery_zero_disturbance(docking, oracle):
    # with the disturbance switched off the recovered D must vanish
    cfg = docking.config
    model, exo = cfg.scenario()
    clean = StateSpaceModel(A=model.A, B=model.B, C=model.C,
                            D=np.zeros_like(model.D), F=model.F)
    log = collect_data(clean, exo, None, cfg.noise_spec(), cfg.x0,
                       horizon=cfg.horizon, dt=cfg.dt, interval=cfg.interval)
    basis = kernel_basis(clean)
    bundles = assemble_regression(log, basis, cfg.R, cfg.interval)
    P, K, _ = vi_learn(bundles[0], cfg.Q, cfg.R)
    recovery = recover_model_artifacts(bundles, P, K, cfg.R)
    assert np.max(np.abs(recovery.D_hat)) <= 1e-2


def test_recovery_validates_inputs(docking, learning_data, learned):
    cfg = docking.config
    with pytest.raises(NoSolutionError):
        recover_model_artifacts(learning_data.bundles, np.zeros((6, 6)),
                                learned.K, cfg.R)
    with pytest.raises(ValueError):
        recover_model_artifacts(learning_data.bundles[0], learned.P,
                                learned.K, cfg.R)
    # a silent log: bundle 0's operator raises lstsq's verdict before any fit
    silent_exo = Exosystem(E=docking.exo.E, v0=np.zeros(8))
    zero_log = collect_data(docking.model, silent_exo, None, None, np.zeros(6),
                            horizon=1.0, dt=cfg.dt, interval=cfg.interval)
    sweep = assemble_regression(zero_log, learning_data.basis, cfg.R, cfg.interval)
    with pytest.raises(RankDeficiencyError, match="regression matrix rank 0 < 87 columns"):
        recover_model_artifacts(sweep, learned.P, learned.K, cfg.R)


def test_recovery_names_a_P_or_K_of_the_wrong_shape(docking, learning_data, learned):
    # the bundle's (n, m) = (6, 3) fixes P at 6 x 6 and K at 3 x 6; a 6 x 5 P is
    # not singular, and a 5 x 5 P or a 2 x 6 K does not reach a numpy solve
    P, K = learned.P, learned.K
    for P_final, K_next, message in ((P[:, :5], K, r"P_final must be 6x6 .* \(6, 5\)"),
                                     (P[:5, :5], K, r"P_final must be 6x6 .* \(5, 5\)"),
                                     (P, K[:2], r"K_next_final must be 3x6 .* \(2, 6\)")):
        with pytest.raises(ValueError, match=r"for the bundle's \(n, m\) = \(6, 3\)") as excinfo:
            recover_model_artifacts(learning_data.bundles, P_final, K_next, docking.config.R)
        assert re.search(message, str(excinfo.value))


def test_problem1_from_exact_recovery(docking, oracle):
    # fed the true matrices, the data-driven path reproduces the exact solver
    cfg = docking.config
    basis = kernel_basis(docking.model)
    recovery = exact_recovery(docking.model, docking.exo)
    sol = solve_problem1_datadriven(recovery, basis, cfg.Qbar, cfg.Rbar)
    ref = oracle.exact
    assert np.max(np.abs(sol.X - ref.X)) <= 1e-6 * (1.0 + np.max(np.abs(ref.X)))
    assert np.max(np.abs(sol.U - ref.U)) <= 1e-6 * (1.0 + np.max(np.abs(ref.U)))
    assert sol.residual_dyn <= 1e-8 * (1.0 + np.linalg.norm(recovery.D_hat))


def test_problem1_from_data_is_the_exact_solve_on_the_identified_model(docking, learned):
    # the data route is the model-based solver on the model recovery identified,
    # (A_hat, B_hat, C, D_hat, F) with E_hat, bit for bit
    cfg, model, recovery = docking.config, docking.model, learned.recovery
    identified = StateSpaceModel(A=recovery.A_hat, B=recovery.B_hat, C=model.C,
                                 D=recovery.D_hat, F=model.F)
    with matops.one_blas_thread():  # the data route's own BLAS setting
        ref = solve_regulator_exact(identified, Exosystem(E=recovery.E_hat, v0=docking.exo.v0),
                                    cfg.Qbar, cfg.Rbar)
    sol = learned.solution
    for got, want in ((sol.X, ref.X), (sol.U, ref.U),
                      (learned.L, feedforward_gain(ref, learned.K))):
        assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, n), st.integers(1, n), st.integers(1, 4),
    st.integers(0, 2**32 - 1))))
def test_problem1_from_exact_recovery_matches_exact_solver(plant):
    # on any solvable plant with p <= n and m <= n, the data path fed the
    # true matrices and the model-based solver pick the same (X, U)
    n, m, p, q, seed = plant
    g = np.random.default_rng(seed)
    model, exo = random_solvable(n, m, p, q, g)
    Qbar = np.diag(g.uniform(0.5, 2.0, n))
    Rbar = np.diag(g.uniform(0.5, 2.0, m))
    basis = kernel_basis(model)
    sol = solve_problem1_datadriven(exact_recovery(model, exo), basis, Qbar, Rbar)
    ref = solve_regulator_exact(model, exo, Qbar, Rbar)
    got = np.concatenate([vec(sol.X), vec(sol.U)])
    want = np.concatenate([vec(ref.X), vec(ref.U)])
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_problem1_accepts_a_residual_that_the_model_based_solver_rejects():
    # p > m: (n + p) q equations in (n + m) q unknowns, so a generic change of D
    # leaves a residual. Scaled to 1e-7 of 1 + |b|, it lies between the exact
    # solver's default tolerance (1e-8) and the data route's (1e-6)
    g = np.random.default_rng(24)
    n, m, p, q = 4, 1, 2, 2
    model, exo = random_solvable(n, m, p, q, g)
    M = np.vstack([np.hstack([np.kron(exo.E.T, np.eye(n)) - np.kron(np.eye(q), model.A),
                              -np.kron(np.eye(q), model.B)]),
                   np.hstack([np.kron(np.eye(q), model.C), np.zeros((p * q, m * q))])])

    def relative_residual(D):
        b = np.concatenate([vec(D), vec(-model.F)])
        y, *_ = np.linalg.lstsq(M, b, rcond=None)
        return np.linalg.norm(M @ y - b) / (1.0 + np.linalg.norm(b))

    direction = g.standard_normal((n, q))
    D = model.D + 1e-7 / relative_residual(model.D + direction) * direction
    assert 1e-8 < relative_residual(D) < 1e-6
    perturbed = dataclasses.replace(model, D=D)
    with pytest.raises(NoSolutionError):
        solve_regulator_exact(perturbed, exo)
    sol = solve_problem1_datadriven(exact_recovery(perturbed, exo), kernel_basis(perturbed))
    assert np.array_equal(sol.X, solve_regulator_exact(perturbed, exo, rtol=1e-6).X)


def test_problem1_trivial_when_unforced(docking):
    model = docking.model
    clean = StateSpaceModel(A=model.A, B=model.B, C=model.C,
                            D=np.zeros_like(model.D), F=np.zeros_like(model.F))
    basis = kernel_basis(clean)
    recovery = exact_recovery(clean, docking.exo)
    sol = solve_problem1_datadriven(recovery, basis)
    assert np.max(np.abs(sol.X)) <= 1e-9
    assert np.max(np.abs(sol.U)) <= 1e-9


def test_problem1_learned_matches_oracle(docking, oracle, learned):
    assert np.max(np.abs(learned.L - oracle.L_star)) <= 1e-2
    assert np.max(np.abs(learned.solution.X - oracle.exact.X)) <= 1e-2
    assert np.max(np.abs(learned.solution.U - oracle.exact.U)) <= 1e-2


def test_problem1_rejects_deficient_input_matrix(docking):
    basis = kernel_basis(docking.model)
    recovery = exact_recovery(docking.model, docking.exo)
    broken = dataclasses.replace(recovery, B_hat=np.zeros_like(recovery.B_hat))
    with pytest.raises(RankDeficiencyError):
        solve_problem1_datadriven(broken, basis)


def test_gains_roundtrip(tmp_path, learned, docking):
    from adpdock import LearnedController
    controller = LearnedController(
        K=learned.K, L=learned.L, P=learned.P,
        iterations=learned.history.iterations, newton_steps=learned.history.newton_steps,
        vi_stop_gap=learned.history.vi_stop_gap, resets=learned.history.resets, rank=87,
        rank_required=87,
    )
    path = tmp_path / "gains.json"
    save_gains(path, controller)
    back = load_gains(path)
    assert np.array_equal(back["K"], learned.K)
    assert np.array_equal(back["L"], learned.L)
    assert np.array_equal(back["P"], learned.P)
    assert back["iterations"] == learned.history.iterations
    assert back["newton_steps"] == learned.history.newton_steps
    assert back["vi_stop_gap"] == learned.history.vi_stop_gap
    assert back["rank"] == 87

    x = rng.standard_normal(6)
    v = rng.standard_normal(8)
    u = controller.feedback()(x, v, 0.0)
    assert np.allclose(u, -learned.K @ x + learned.L @ v, atol=1e-14)
