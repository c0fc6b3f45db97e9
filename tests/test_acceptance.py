"""Acceptance gate: one test per shipped guarantee, each printing a
single pass/fail line with the measured values. Run alone via
``pytest tests/test_acceptance.py -v``."""

import math

import numpy as np
from scipy.linalg import expm

from adpdock import (
    StateSpaceModel,
    check_rank,
    collect_data,
    kleinman_pi,
    model_based_vi,
    simulate,
    solve_regulator_exact,
)
from adpdock.adp import assemble_regression
from adpdock.matops import is_hurwitz, vec, vecs, vecv

from test_regulator import random_solvable

# entries of the reference feedforward gain the default run must hit
L_REF = {
    (0, 0): -2.1644, (0, 1): -4.0387,
    (1, 0): 4.0387, (1, 1): -2.1644,
    (2, 2): 0.8377, (2, 3): -8.0807,
}


def _criterion(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_feedforward_reproduction(pipeline):
    L = np.asarray(pipeline.report.learned.L)
    worst = max(abs(L[idx] - ref) for idx, ref in L_REF.items())
    spurious = max(abs(L[i, j]) for i in range(L.shape[0])
                   for j in range(L.shape[1]) if (i, j) not in L_REF)
    ok = worst <= 1e-2 and spurious <= 1e-2 and pipeline.wall <= 60.0
    _criterion(1, ok, f"|L - L_ref|max = {worst:.2e}, "
                      f"other entries max = {spurious:.2e}, "
                      f"wall = {pipeline.wall:.1f} s")


def test_criterion_2_vi_convergence(oracle):
    iters = oracle.vi_history.iterations
    rel = np.linalg.norm(oracle.P_vi - oracle.P_star) / np.linalg.norm(oracle.P_star)
    ok = 1e3 <= iters <= 1e5 and rel <= 1e-2
    _criterion(2, ok, f"{iters} iterations ({oracle.vi_history.resets} resets), "
                      f"|P - P*|F/|P*|F = {rel:.2e}")


def test_criterion_3_oracle_equivalence(oracle, learned):
    rel_P = np.linalg.norm(oracle.P_vi - oracle.P_star) / np.linalg.norm(oracle.P_star)
    rel_K = np.linalg.norm(learned.K - oracle.K_vi) / np.linalg.norm(oracle.K_vi)
    ok = rel_P <= 1e-3 and rel_K <= 1e-2
    _criterion(3, ok, f"VI vs PI: {rel_P:.2e} in P; "
                      f"data-driven vs model-based: {rel_K:.2e} in K")


def test_criterion_4_regulator_residuals(docking, oracle):
    g = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(100):
        n = int(g.integers(2, 7))
        m = int(g.integers(1, 4))
        p = int(g.integers(1, 4))
        q = int(g.integers(1, 9))
        model, exo = random_solvable(n, m, p, q, generator=g)
        sol = solve_regulator_exact(model, exo)
        scale = 1.0 + np.linalg.norm(model.D) + np.linalg.norm(model.F)
        worst = max(worst, sol.residual_dyn / scale, sol.residual_out / scale)
    scale = 1.0 + np.linalg.norm(docking.model.D) + np.linalg.norm(docking.model.F)
    worst = max(worst, oracle.exact.residual_dyn / scale,
                oracle.exact.residual_out / scale)
    ok = worst <= 1e-8
    _criterion(4, ok, f"worst scaled residual over 100 random instances "
                      f"and the docking scenario = {worst:.2e}")


def test_criterion_5_rank_condition(docking, learning_data):
    ok_full, rank, required = check_rank(learning_data.bundles[0])
    cfg = docking.config
    silent = collect_data(docking.model, docking.exo, None, None, cfg.x0,
                          horizon=cfg.horizon, dt=cfg.dt, interval=cfg.interval)
    bundle = assemble_regression(silent, learning_data.basis, cfg.R,
                                 cfg.interval)[0]
    ok_silent, rank_silent, _ = check_rank(bundle)
    ok = ok_full and rank == required == 87 and not ok_silent
    _criterion(5, ok, f"default excitation rank {rank}/{required}; "
                      f"zero noise rank {rank_silent} (fails as required)")


def test_criterion_6_closed_loop_tracking(pipeline):
    tracking = pipeline.report.tracking
    ok = tracking["ratio"] <= 1e-2 and tracking["closed_loop_hurwitz"]
    _criterion(6, ok, f"|e(T)|/|e(0)| = {tracking['ratio']:.2e}, "
                      f"closed loop Hurwitz = {tracking['closed_loop_hurwitz']}")


def test_criterion_7_scalar_ground_truth():
    # scalar ARE admits the closed form p = (ar + sqrt(a^2 r^2 + q r b^2)) / b^2
    g = np.random.default_rng(42)
    worst_pi = worst_vi = 0.0
    for _ in range(20):
        a = g.uniform(-1.0, 1.0)
        b = g.uniform(1.0, 2.0) * g.choice([-1.0, 1.0])
        q = g.uniform(2.0, 5.0)
        r = g.uniform(0.5, 1.0)
        p_true = (a * r + math.sqrt(a * a * r * r + q * r * b * b)) / (b * b)
        model = StateSpaceModel(A=[[a]], B=[[b]], C=[[1.0]],
                                D=np.zeros((1, 1)), F=np.zeros((1, 1)))
        k0 = (a + 1.0) / b  # places the loop at -1
        P_pi, _, _ = kleinman_pi(model, [[q]], [[r]], [[k0]])
        P_vi, _, _ = model_based_vi(model, [[q]], [[r]], eps=1e-6)
        worst_pi = max(worst_pi, abs(P_pi[0, 0] - p_true))
        worst_vi = max(worst_vi, abs(P_vi[0, 0] - p_true))
    ok = worst_pi <= 1e-4 and worst_vi <= 1e-4
    _criterion(7, ok, f"worst |P - P_true| over 20 instances: "
                      f"PI {worst_pi:.2e}, VI {worst_vi:.2e}")


def test_criterion_8_property_suite(docking, oracle, offset_bundles):
    g = np.random.default_rng(314)
    model, exo, cfg = docking.model, docking.exo, docking.config

    # quadratic-form and Kronecker vectorization identities
    worst_quad = worst_kron = 0.0
    for _ in range(20):
        x = g.standard_normal(5)
        sym = g.standard_normal((5, 5))
        sym = sym + sym.T
        worst_quad = max(worst_quad, abs(x @ sym @ x - vecv(x) @ vecs(sym)))
        a = g.standard_normal(4)
        b = g.standard_normal(3)
        mat = g.standard_normal((4, 3))
        worst_kron = max(worst_kron, abs(a @ mat @ b - np.kron(b, a) @ vec(mat)))
    ok_ident = worst_quad <= 1e-12 and worst_kron <= 1e-12

    # PI iterates stay stabilizing and monotonically decreasing
    ok_pi = True
    previous = None
    for P, K in oracle.iterates:
        ok_pi &= bool(is_hurwitz(model.A - model.B @ K))
        if previous is not None:
            ok_pi &= np.min(np.linalg.eigvalsh(previous - P)) >= -1e-9
        previous = P

    # integrated data rows satisfy the value identity at P* for every offset of
    # the paper's kernel-basis sweep, each integrated from the log on its own
    H = model.A.T @ oracle.P_star + oracle.P_star @ model.A
    K = np.linalg.solve(cfg.R, model.B.T @ oracle.P_star)
    worst_rel = 0.0
    for bundle, Xj in zip(offset_bundles.bundles, offset_bundles.offsets, strict=True):
        M = (model.D - (Xj @ exo.E - model.A @ Xj)).T @ oracle.P_star
        theta = np.concatenate([vecs(H), vec(K), vec(M)])
        lhs = bundle.Dxx @ vecs(oracle.P_star)
        rel = np.linalg.norm(lhs - bundle.Theta @ theta) / np.linalg.norm(lhs)
        worst_rel = max(worst_rel, rel)
    ok_regression = worst_rel <= 1e-5

    # integrator shows fourth-order error decay against the matrix exponential
    joint = np.block([[model.A, model.D], [np.zeros((8, 6)), exo.E]])
    x0 = g.standard_normal(6)
    exact = expm(joint) @ np.concatenate([x0, exo.v0])
    idle = lambda x, v, t: np.zeros(3)

    def integration_error(dt):
        run = simulate(model, exo, idle, x0, 1.0, dt)
        return np.linalg.norm(np.concatenate([run.x[-1], run.v[-1]]) - exact)

    ratio = integration_error(0.05) / integration_error(0.025)
    ok_rk4 = 8.0 <= ratio <= 32.0

    # replaying the same seed reproduces the log bit for bit
    runs = [collect_data(model, exo, None, cfg.noise_spec(), cfg.x0,
                         horizon=5.0, dt=cfg.dt, interval=cfg.interval)
            for _ in range(2)]
    ok_replay = (np.array_equal(runs[0].x, runs[1].x)
                 and np.array_equal(runs[0].u, runs[1].u))

    ok = ok_ident and ok_pi and ok_regression and ok_rk4 and ok_replay
    _criterion(8, ok, f"identities {max(worst_quad, worst_kron):.1e}; "
                      f"PI invariants {'ok' if ok_pi else 'FAIL'}; "
                      f"regression identity {worst_rel:.1e} over "
                      f"{len(offset_bundles.bundles)} offsets; "
                      f"RK4 ratio {ratio:.1f}; "
                      f"replay {'ok' if ok_replay else 'FAIL'}")
