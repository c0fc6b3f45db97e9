"""Data pipeline: collection, regression assembly, learning, recovery,
and the data-driven regulator solve."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adpdock import (
    ModelRecovery,
    StateSpaceModel,
    TrajectoryLog,
    assemble_regression,
    check_rank,
    collect_data,
    harmonic_steps,
    linear_balls,
    model_based_vi,
    recover_model_artifacts,
    solve_problem1_datadriven,
    solve_regulator_exact,
    vi_learn,
)
from adpdock.adp import (
    RegressionBundle,
    _data_residual,
    interval_count,
    load_gains,
    save_gains,
)
from adpdock.errors import (
    ConvergenceError,
    DivergenceError,
    NoSolutionError,
    RankDeficiencyError,
)
from adpdock.matops import lstsq, numerical_rank, unvec, unvecs, vec, vecs, vecv
from adpdock.regulator import KernelBasis, kernel_basis
from adpdock.riccati import run_value_iteration

rng = np.random.default_rng(1618)


def sylvester_image(X, A, E):
    return X @ E - A @ X


def exact_recovery(model, exo, basis):
    """ModelRecovery built from the true matrices, bypassing the data path."""
    S = [sylvester_image(X, model.A, exo.E) for X in basis.sequence()[1:]]
    return ModelRecovery(D_hat=model.D.copy(), B_hat=model.B.copy(), S_values=S)


def reference_assembly(log, basis, R, interval):
    """Per-offset integration of the log: one pass over every sample for
    each X_j. Slow but literal; the moment algebra must reproduce it.
    Returns (Ixx, Gxu, Gxv, Dxx, Theta) per offset, in sweep order."""
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
    for Xj in basis.sequence():
        xbar = x - v @ Xj.T
        vv = vecv(xbar)
        xbar_avg = (0.5 * dt) * (xbar[:-1] + xbar[1:])
        xu = np.einsum("ka,kb->kab", xbar_avg[:n_fine], u[:n_fine]).reshape(n_fine, n * m)
        xv = np.einsum("ka,kb->kab", xbar, v).reshape(len(log), n * q)
        Ixx = per_interval((0.5 * dt) * (vv[:-1] + vv[1:]))
        Gxu = per_interval(xu)
        Gxv = per_interval((0.5 * dt) * (xv[:-1] + xv[1:]))
        Dxx = vv[ends[1:]] - vv[ends[:-1]]
        out.append((Ixx, Gxu, Gxv, Dxx, np.hstack([Ixx, Gxu @ scale_u, 2.0 * Gxv])))
    return out


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


def assert_matches_reference(bundles, reference):
    assert len(bundles) == len(reference)
    for bundle, blocks in zip(bundles, reference):
        for name, ref in zip(("Ixx", "Gxu", "Gxv", "Dxx", "Theta"), blocks):
            got = getattr(bundle, name)
            assert got.shape == ref.shape
            if name == "Dxx":
                assert np.array_equal(got, ref), f"Dxx differs at j = {bundle.j}"
            else:
                rel = np.linalg.norm(got - ref) / np.linalg.norm(ref)
                assert rel <= 1e-12, f"{name} at j = {bundle.j}: relative error {rel:.2e}"


def random_log_and_basis(n, m, q, n_samples, dt, generator):
    """Unstructured data of the given dimensions and a random sweep."""
    t = dt * np.arange(n_samples)
    log = TrajectoryLog(t=t, x=generator.standard_normal((n_samples, n)),
                        u=generator.standard_normal((n_samples, m)),
                        v=generator.standard_normal((n_samples, q)),
                        e=np.zeros((n_samples, 1)))
    basis = KernelBasis(X0=np.zeros((n, q)), X1=generator.standard_normal((n, q)),
                        basis=[generator.standard_normal((n, q)) for _ in range(3)])
    R = generator.standard_normal((m, m))
    return log, basis, R @ R.T + np.eye(m)


def test_interval_count_and_log_length(docking, learning_data):
    cfg = docking.config
    assert interval_count(cfg.horizon, cfg.interval) == 250
    assert len(learning_data.log) == int(round(cfg.horizon / cfg.dt)) + 1
    assert learning_data.log.dt == pytest.approx(cfg.dt)


def test_collect_zero_excitation_is_zero(docking):
    cfg = docking.config
    log = collect_data(docking.model, docking.exo, None, None, np.zeros(6),
                       v0=np.zeros(8), horizon=1.0, dt=cfg.dt, interval=cfg.interval)
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
    bundles = learning_data.bundles
    assert len(bundles) == 2 + learning_data.basis.h
    b0 = bundles[0]
    assert (b0.n, b0.m, b0.q) == (6, 3, 8)
    assert b0.rows == 250
    assert b0.required_rank == 87
    assert b0.Theta.shape == (250, 87)


def test_bundle_rejects_inconsistent_dimensions(learning_data):
    b0 = learning_data.bundles[0]
    blocks = dict(j=0, Ixx=b0.Ixx, Gxu=b0.Gxu, Gxv=b0.Gxv, Dxx=b0.Dxx, Theta=b0.Theta)
    with pytest.raises(ValueError):
        RegressionBundle(**blocks, n=6, m=8, q=3)
    with pytest.raises(ValueError):
        RegressionBundle(**blocks, n=5, m=3, q=8)


def test_assembly_matches_per_offset_reference(docking, learning_data):
    cfg = docking.config
    reference = reference_assembly(learning_data.log, learning_data.basis, cfg.R,
                                   cfg.interval)
    assert_matches_reference(learning_data.bundles, reference)


@pytest.mark.parametrize("n, m, q", [(1, 1, 1), (2, 1, 3), (4, 2, 1), (5, 3, 4)])
def test_assembly_matches_reference_random_dims(n, m, q):
    # 7 whole intervals of 20 steps plus a ragged tail the assembly must ignore
    g = np.random.default_rng(100 * n + 10 * m + q)
    log, basis, R = random_log_and_basis(n, m, q, 7 * 20 + 6, 0.01, g)
    bundles = assemble_regression(log, basis, R, 0.2)
    assert [(b.n, b.m, b.q, b.rows) for b in bundles] == [(n, m, q, 7)] * 5
    assert_matches_reference(bundles, reference_assembly(log, basis, R, 0.2))


def test_bundle_j0_difference_is_raw(docking, learning_data):
    # X_0 = 0, so the j = 0 endpoint differences come straight from x
    cfg = docking.config
    b0 = learning_data.bundles[0]
    steps = int(round(cfg.interval / cfg.dt))
    ends = np.arange(0, b0.rows * steps + 1, steps)
    vv = vecv(learning_data.log.x[ends])
    assert np.array_equal(b0.Dxx, vv[1:] - vv[:-1])


def test_theta_layout(docking, learning_data):
    cfg = docking.config
    for bundle in learning_data.bundles[:3]:
        rebuilt = np.hstack([
            bundle.Ixx,
            2.0 * bundle.Gxu @ np.kron(np.eye(6), cfg.R),
            2.0 * bundle.Gxv,
        ])
        assert np.allclose(bundle.Theta, rebuilt, atol=1e-14)


def test_regression_identity_all_offsets(docking, oracle, learning_data):
    # the integrated rows must satisfy the continuous-time value identity
    # for the true (H, K, M) at any symmetric P, every offset included
    A, B, D = docking.model.A, docking.model.B, docking.model.D
    E = docking.exo.E
    R = docking.config.R
    raw = rng.standard_normal((6, 6))
    for P in (oracle.P_star, raw + raw.T):
        H = A.T @ P + P @ A
        K = np.linalg.solve(R, B.T @ P)
        for bundle, Xj in zip(learning_data.bundles,
                              learning_data.basis.sequence()):
            M = (D - sylvester_image(Xj, A, E)).T @ P
            theta = np.concatenate([vecs(H), vec(K), vec(M)])
            lhs = bundle.Dxx @ vecs(P)
            residual = np.linalg.norm(lhs - bundle.Theta @ theta)
            assert residual <= 1e-5 * np.linalg.norm(lhs)


def test_rank_check(docking, learning_data):
    ok, rank, required = check_rank(learning_data.bundles[0])
    assert ok and rank == 87 and required == 87

    cfg = docking.config
    zero_log = collect_data(docking.model, docking.exo, None, None, np.zeros(6),
                            v0=np.zeros(8), horizon=1.0, dt=cfg.dt,
                            interval=cfg.interval)
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
    return RegressionBundle(j=0, Ixx=theta[:, :3], Gxu=theta[:, 3:5] / 2.0,
                            Gxv=theta[:, 5:] / 2.0, Dxx=np.ones((rows, 3)),
                            Theta=theta, n=2, m=1, q=1)


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


def test_vi_learn_requires_rank(docking, learning_data):
    cfg = docking.config
    zero_log = collect_data(docking.model, docking.exo, None, None, np.zeros(6),
                            v0=np.zeros(8), horizon=1.0, dt=cfg.dt,
                            interval=cfg.interval)
    bundle = assemble_regression(zero_log, learning_data.basis, cfg.R,
                                 cfg.interval)[0]
    with pytest.raises(RankDeficiencyError) as excinfo:
        vi_learn(bundle, cfg.Q, cfg.R)
    assert excinfo.value.rank == 0
    assert excinfo.value.required == 87


def test_vi_learn_matches_model_based(docking, oracle, learned):
    rel_K = np.linalg.norm(learned.K - oracle.K_star) / np.linalg.norm(oracle.K_star)
    rel_P = np.linalg.norm(learned.P - oracle.P_star) / np.linalg.norm(oracle.P_star)
    assert rel_K <= 1e-2
    assert rel_P <= 1e-2
    assert learned.history.converged


def test_vi_learn_off_policy_invariance(docking, learning_data, learned):
    # a different diminishing-step schedule lands on the same value
    cfg = docking.config
    P_alt, _, _ = vi_learn(learning_data.bundles[0], cfg.Q, cfg.R,
                           eps_schedule=lambda k: 1.0 / (k + 5.0))
    assert np.linalg.norm(P_alt - learned.P) <= 2.0 * cfg.eps


def test_vi_learn_fixed_point(docking, oracle, learning_data):
    cfg = docking.config
    P, _, history = vi_learn(learning_data.bundles[0], cfg.Q, cfg.R,
                             P0=oracle.P_star)
    assert history.iterations == 2
    assert np.allclose(P, oracle.P_star, atol=1e-8)


def test_vi_learn_matches_reference_residual_loop(docking, learning_data, learned):
    # the same driver run on the round-trip residual visits the same iterates
    cfg = docking.config
    bundle = learning_data.bundles[0]
    solve_op, _ = lstsq(bundle.Theta, bundle.Dxx)
    P, K, history = run_value_iteration(
        reference_vi_residual(solve_op, cfg.Q, cfg.R, bundle.n, bundle.m), np.eye(bundle.n),
        1e-3, harmonic_steps(), linear_balls(), 200000)
    assert np.abs(learned.P - P).max() <= 1e-12
    assert np.abs(learned.K - K).max() <= 1e-12
    assert learned.history.iterations == history.iterations
    assert learned.history.resets == history.resets


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
    delta, K = _data_residual(solve_op, Q, R, n, m)(P)
    ref_delta, ref_K = reference_vi_residual(solve_op, Q, R, n, m)(P)
    assert K.shape == (m, n)
    assert np.linalg.norm(delta - ref_delta) <= 1e-12 * np.linalg.norm(ref_delta)
    assert np.linalg.norm(K - ref_K) <= 1e-12 * np.linalg.norm(ref_K)


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
    with pytest.raises(ConvergenceError):
        vi_learn(bundle, cfg.Q, cfg.R, max_k=10)
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


def test_recovery_against_truth(docking, learned):
    model, exo = docking.model, docking.exo
    recovery = learned.recovery
    assert np.max(np.abs(recovery.D_hat - model.D)) <= 1e-2 * (1.0 + np.max(np.abs(model.D)))
    assert np.max(np.abs(recovery.B_hat - model.B)) <= 1e-2 * (1.0 + np.max(np.abs(model.B)))
    # S(X_1) from data vs the true Sylvester image
    basis = kernel_basis(model)
    S1_true = sylvester_image(basis.X1, model.A, exo.E)
    err = np.linalg.norm(recovery.S_values[0] - S1_true)
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
        recover_model_artifacts(learning_data.bundles[1:], learned.P,
                                learned.K, cfg.R)


def test_problem1_from_exact_recovery(docking, oracle):
    # fed the true matrices, the data-driven path reproduces the exact solver
    cfg = docking.config
    basis = kernel_basis(docking.model)
    recovery = exact_recovery(docking.model, docking.exo, basis)
    sol = solve_problem1_datadriven(recovery, basis, cfg.Qbar, cfg.Rbar)
    ref = oracle.exact
    assert np.max(np.abs(sol.X - ref.X)) <= 1e-6 * (1.0 + np.max(np.abs(ref.X)))
    assert np.max(np.abs(sol.U - ref.U)) <= 1e-6 * (1.0 + np.max(np.abs(ref.U)))
    assert sol.residual_dyn <= 1e-8 * (1.0 + np.linalg.norm(recovery.D_hat))


def test_problem1_trivial_when_unforced(docking):
    model = docking.model
    clean = StateSpaceModel(A=model.A, B=model.B, C=model.C,
                            D=np.zeros_like(model.D), F=np.zeros_like(model.F))
    basis = kernel_basis(clean)
    recovery = exact_recovery(clean, docking.exo, basis)
    sol = solve_problem1_datadriven(recovery, basis)
    assert np.max(np.abs(sol.X)) <= 1e-9
    assert np.max(np.abs(sol.U)) <= 1e-9


def test_problem1_learned_matches_oracle(docking, oracle, learned):
    assert np.max(np.abs(learned.L - oracle.L_star)) <= 1e-2
    assert np.max(np.abs(learned.solution.X - oracle.exact.X)) <= 1e-2
    assert np.max(np.abs(learned.solution.U - oracle.exact.U)) <= 1e-2


def test_problem1_rejects_deficient_input_matrix(docking):
    basis = kernel_basis(docking.model)
    recovery = exact_recovery(docking.model, docking.exo, basis)
    broken = ModelRecovery(D_hat=recovery.D_hat,
                           B_hat=np.zeros_like(recovery.B_hat),
                           S_values=recovery.S_values)
    with pytest.raises(RankDeficiencyError):
        solve_problem1_datadriven(broken, basis)


def test_gains_roundtrip(tmp_path, learned, docking):
    from adpdock import LearnedController
    controller = LearnedController(
        K=learned.K, L=learned.L, P=learned.P,
        iterations=learned.history.iterations, resets=learned.history.resets,
        rank=87, rank_required=87,
    )
    path = tmp_path / "gains.json"
    save_gains(path, controller)
    back = load_gains(path)
    assert np.array_equal(back["K"], learned.K)
    assert np.array_equal(back["L"], learned.L)
    assert np.array_equal(back["P"], learned.P)
    assert back["iterations"] == learned.history.iterations
    assert back["rank"] == 87

    x = rng.standard_normal(6)
    v = rng.standard_normal(8)
    u = controller.feedback()(x, v, 0.0)
    assert np.allclose(u, -learned.K @ x + learned.L @ v, atol=1e-14)
