"""Model-based ARE solvers: Lyapunov, Kleinman PI, value iteration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_continuous_are, solve_continuous_lyapunov

from adpdock import (
    StateSpaceModel,
    are_residual,
    kleinman_from_care,
    kleinman_pi,
    linear_balls,
    lyapunov_solve,
    model_based_vi,
)
from adpdock.errors import ConvergenceError
from adpdock.matops import is_hurwitz
from conftest import assert_csv_holds
from test_regulator import random_solvable

rng = np.random.default_rng(2718)


def scalar_model(a, b):
    return StateSpaceModel(A=[[a]], B=[[b]], C=[[1.0]],
                           D=np.zeros((1, 1)), F=np.zeros((1, 1)))


def imaginary_axis_plant():
    """A = diag(0, -1), B = [0; 1]: the mode at 0 is not stabilizable.

    With Q = I its Hamiltonian has eigenvalues +-sqrt(2) and a pair at 0,
    which LAPACK's balancing isolates exactly, so one of them is stable.
    """
    return StateSpaceModel(A=[[0.0, 0.0], [0.0, -1.0]], B=[[0.0], [1.0]], C=[[1.0, 0.0]],
                           D=np.zeros((2, 1)), F=np.zeros((1, 1)))


def random_weight(g, n):
    """A random symmetric positive definite n x n weight, no smaller than I/2."""
    factor = g.standard_normal((n, n))
    return factor @ factor.T + 0.5 * np.eye(n)


def test_lyapunov_diagonal_case():
    Q = np.diag([1.0, 2.0, 3.0])
    P = lyapunov_solve(-0.5 * np.eye(3), Q)
    assert np.allclose(P, Q, atol=1e-12)  # a = -I/2 forces P = Q


def test_lyapunov_scalar():
    P = lyapunov_solve(np.array([[-1.0]]), np.array([[2.0]]))
    assert abs(P[0, 0] - 1.0) <= 1e-12


def test_lyapunov_random_stable():
    for _ in range(5):
        raw = rng.standard_normal((4, 4))
        a_cl = raw - (np.max(np.linalg.eigvals(raw).real) + 1.0) * np.eye(4)
        m = rng.standard_normal((4, 4))
        m = m @ m.T
        P = lyapunov_solve(a_cl, m)
        assert np.allclose(P, P.T, atol=1e-12)
        assert np.linalg.norm(a_cl.T @ P + P @ a_cl + m) <= 1e-9 * (1.0 + np.linalg.norm(m))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_lyapunov_matches_scipy_on_random_hurwitz_matrices(n, seed):
    # scipy's Bartels-Stewart solver is the independent reference
    g = np.random.default_rng(seed)
    raw = g.standard_normal((n, n))
    a_cl = raw - (np.max(np.linalg.eigvals(raw).real) + g.uniform(0.1, 2.0)) * np.eye(n)
    m = random_weight(g, n)
    P = lyapunov_solve(a_cl, m)
    reference = solve_continuous_lyapunov(a_cl.T, -m)
    assert np.array_equal(P, P.T)
    assert np.linalg.norm(P - reference) <= 1e-10 * np.linalg.norm(reference)


def test_lyapunov_rejects_bad_inputs():
    with pytest.raises(ValueError):
        lyapunov_solve(np.eye(2), np.eye(2))  # not Hurwitz
    with pytest.raises(ValueError):
        lyapunov_solve(-np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))  # asymmetric


def test_are_residual_values(docking, oracle):
    cfg = docking.config
    assert are_residual(docking.model, cfg.Q, cfg.R, oracle.P_star) <= 1e-8
    assert are_residual(docking.model, cfg.Q, cfg.R, np.zeros((6, 6))) == pytest.approx(
        np.linalg.norm(cfg.Q)
    )
    assert are_residual(docking.model, cfg.Q, cfg.R, 2.0 * oracle.P_star) > 1.0


def test_are_residual_takes_every_weight_form(docking, oracle):
    # the scalar and diagonal forms of the config's 20 I and 2 I give its residual exactly
    cfg = docking.config
    reference = are_residual(docking.model, cfg.Q, cfg.R, oracle.P_star)
    assert reference <= 1e-8
    for Q, R in ((20.0, cfg.R), (cfg.Q, 2.0), (20.0, 2.0), ([20.0] * 6, [2.0] * 3)):
        assert are_residual(docking.model, Q, R, oracle.P_star) == reference
    with pytest.raises(ValueError, match="R must be positive definite"):
        are_residual(docking.model, cfg.Q, [1.0, 0.0, 1.0], oracle.P_star)


def test_kleinman_scalar_closed_form():
    model = scalar_model(0.0, 1.0)
    P, K, iterates = kleinman_pi(model, [[1.0]], [[1.0]], [[1.0]])
    assert abs(P[0, 0] - 1.0) <= 1e-12
    assert abs(K[0, 0] - 1.0) <= 1e-12
    assert len(iterates) >= 1


def test_kleinman_matches_care(docking, oracle):
    # independent oracle: the Schur-based solver from scipy
    cfg = docking.config
    P_care = solve_continuous_are(docking.model.A, docking.model.B, cfg.Q, cfg.R)
    rel = np.linalg.norm(oracle.P_star - P_care) / np.linalg.norm(P_care)
    assert rel <= 1e-8


def test_care_seeded_kleinman_matches_vi_seeded(docking, oracle):
    # the run's oracle stage starts Kleinman from Potter's CARE solution;
    # the VI-bootstrapped oracle fixture is the reference it replaced
    cfg = docking.config
    P, K, iterates = kleinman_from_care(docking.model, cfg.Q, cfg.R)
    assert np.abs(K - oracle.K_star).max() <= 1e-12
    assert np.abs(P - oracle.P_star).max() <= 1e-11
    assert len(iterates) == 2


def test_oracle_stage_is_care_seeded(pipeline, oracle):
    report = pipeline.report.oracle
    assert report["pi_iterations"] == 2
    assert np.abs(report["K"] - oracle.K_star).max() <= 1e-12
    assert np.abs(report["P"] - oracle.P_star).max() <= 1e-11


def test_care_seeded_kleinman_random_plants():
    g = np.random.default_rng(1968)
    compared = 0
    for _ in range(12):
        n, m = int(g.integers(1, 5)), int(g.integers(1, 4))
        model, _ = random_solvable(n, m, 1, 2, generator=g)
        Q, R = np.eye(n), np.eye(m)
        P, K, _ = kleinman_from_care(model, Q, R)
        assert is_hurwitz(model.A - model.B @ K)
        assert are_residual(model, Q, R, P) <= 1e-9 * (1.0 + np.linalg.norm(P))
        try:
            # radius 1e3: with the default 10 the iterate keeps resetting on
            # plants whose P* is large
            _, K_vi, _ = model_based_vi(model, Q, R, ball_schedule=linear_balls(1e3),
                                        max_k=10000)
        except ConvergenceError:
            # 1/k steps stall near P* on some plants (residual ~1e-2 after
            # 1e4 steps); there is then no VI seed to compare against
            continue
        P_vi, K_ref, _ = kleinman_pi(model, Q, R, K_vi)
        assert np.abs(K - K_ref).max() <= 1e-12 * (1.0 + np.abs(K_ref).max())
        assert np.abs(P - P_vi).max() <= 1e-11 * (1.0 + np.abs(P_vi).max())
        compared += 1
    assert compared >= 6


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_care_seeded_kleinman_matches_scipy_on_random_plants(n, m, seed):
    # random (A, B) is stabilizable and a positive definite Q makes every
    # plant detectable; scipy's Schur solver is the independent reference
    g = np.random.default_rng(seed)
    model, _ = random_solvable(n, m, 1, 1, generator=g)
    Q, R = random_weight(g, n), random_weight(g, m)
    P, K, _ = kleinman_from_care(model, Q, R)
    reference = solve_continuous_are(model.A, model.B, Q, R)
    assert is_hurwitz(model.A - model.B @ K)
    assert np.linalg.norm(P - reference) <= 1e-9 * np.linalg.norm(reference)


def test_care_seeded_kleinman_stops_where_rounding_moves_the_iterates():
    # n = 4, m = 1 with |P*| about 1.4e6: every Lyapunov solve's P has an ARE
    # residual near 3e-13 relative, yet successive solves differ by 1.5e-8 to
    # 2.9e-8 relative, so the step test alone never fires. The stop on a step
    # that no longer shrinks returns such a P. scipy's own solution is 3.5e-10
    # to 1.9e-8 away here, so it is no reference at 1e-9
    g = np.random.default_rng(309)
    n, m = int(g.integers(1, 7)), int(g.integers(1, 4))
    model, _ = random_solvable(n, m, 1, 1, generator=g)
    Q, R = random_weight(g, n), random_weight(g, m)
    assert (n, m) == (4, 1)
    P, K, _ = kleinman_from_care(model, Q, R)
    assert 1e6 <= np.linalg.norm(P) <= 2e6
    assert is_hurwitz(model.A - model.B @ K)
    assert are_residual(model, Q, R, P) <= 1e-9 * (1.0 + np.linalg.norm(P))


def test_care_seed_with_a_repeated_stable_eigenvalue():
    # the double integrator with Q = diag(1, 2) and R = 1 has the closed
    # loop s^2 + 2 s + 1: its Hamiltonian's stable eigenvalue -1 is double
    model = StateSpaceModel(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]], C=[[1.0, 0.0]],
                            D=np.zeros((2, 1)), F=np.zeros((1, 1)))
    Q, R = np.diag([1.0, 2.0]), np.eye(1)
    P, K, iterates = kleinman_from_care(model, Q, R)
    assert np.abs(P - solve_continuous_are(model.A, model.B, Q, R)).max() <= 1e-12
    assert np.abs(P - [[2.0, 1.0], [1.0, 2.0]]).max() <= 1e-12
    assert np.abs(K - [[1.0, 2.0]]).max() <= 1e-12


def test_care_seed_rejects_a_mode_on_the_imaginary_axis():
    with pytest.raises(ValueError, match="the Hamiltonian has 1 stable eigenvalues, not 2"):
        kleinman_from_care(imaginary_axis_plant(), np.eye(2), np.eye(1))


def test_care_seed_rejects_an_unstable_mode_no_input_reaches():
    # A = diag(1, -1), B = [0; 1]: the Hamiltonian has its two stable
    # eigenvalues, but their eigenvectors do not give a stabilizing P
    model = StateSpaceModel(A=[[1.0, 0.0], [0.0, -1.0]], B=[[0.0], [1.0]], C=[[1.0, 0.0]],
                            D=np.zeros((2, 1)), F=np.zeros((1, 1)))
    with pytest.raises(ValueError, match="must be stabiliz"):
        kleinman_from_care(model, np.eye(2), np.eye(1))


def test_kleinman_fixed_point(docking, oracle):
    cfg = docking.config
    P, K, iterates = kleinman_pi(docking.model, cfg.Q, cfg.R, oracle.K_star)
    assert np.allclose(iterates[0][0], oracle.P_star, atol=1e-8)
    assert np.allclose(P, oracle.P_star, atol=1e-8)


def test_kleinman_preconditions(docking):
    cfg = docking.config
    with pytest.raises(ValueError):
        kleinman_pi(docking.model, cfg.Q, cfg.R, np.zeros((3, 6)))  # not stabilizing
    model = scalar_model(0.0, 1.0)
    with pytest.raises(ValueError):
        kleinman_pi(model, [[0.0]], [[1.0]], [[1.0]])  # (A, sqrt(Q)) unobservable


def test_pi_monotone_and_stabilizing(docking, oracle):
    # every iterate keeps the loop Hurwitz and never increases P
    A, B = docking.model.A, docking.model.B
    previous = None
    for P, K in oracle.iterates:
        assert is_hurwitz(A - B @ K)
        if previous is not None:
            assert np.min(np.linalg.eigvalsh(previous - P)) >= -1e-9
        previous = P
    assert np.min(np.linalg.eigvalsh(oracle.iterates[-1][0] - oracle.P_star)) >= -1e-9


def test_vi_scalar_closed_form():
    model = scalar_model(0.0, 1.0)
    P, K, history = model_based_vi(model, [[1.0]], [[1.0]])
    assert abs(P[0, 0] - 1.0) <= 1e-3
    assert history.converged


def test_vi_fixed_point_stops_immediately(docking, oracle):
    cfg = docking.config
    P, K, history = model_based_vi(docking.model, cfg.Q, cfg.R, P0=oracle.P_star)
    assert history.iterations == 2  # stop test is guarded until k = 2
    assert np.allclose(P, oracle.P_star, atol=1e-6)


def test_vi_docking_agrees_with_pi(docking, oracle):
    rel = np.linalg.norm(oracle.P_vi - oracle.P_star) / np.linalg.norm(oracle.P_star)
    assert rel <= 1e-3
    assert 1e3 <= oracle.vi_history.iterations <= 1e5
    assert oracle.vi_history.resets > 0  # P0 = I needs ball growth on this scenario


def test_vi_tighter_tolerance(docking, oracle):
    cfg = docking.config
    P, _, history = model_based_vi(docking.model, cfg.Q, cfg.R, eps=1e-4)
    rel = np.linalg.norm(P - oracle.P_star) / np.linalg.norm(oracle.P_star)
    assert rel <= 1e-3
    assert history.iterations > oracle.vi_history.iterations


def test_vi_nonconvergence_carries_history(docking):
    cfg = docking.config
    with pytest.raises(ConvergenceError) as excinfo:
        model_based_vi(docking.model, cfg.Q, cfg.R, max_k=50)
    assert excinfo.value.iterations == 50
    assert excinfo.value.history is not None
    assert not excinfo.value.history.converged
    assert excinfo.value.history.k.size == 50


def test_vi_validates_p0(docking):
    cfg = docking.config
    with pytest.raises(ValueError):
        model_based_vi(docking.model, cfg.Q, cfg.R, P0=-np.eye(6))


def test_schedules(oracle):
    history = oracle.vi_history
    assert history.k.tolist() == list(range(1, history.iterations + 1))
    assert np.array_equal(history.eps, 1.0 / history.k)
    balls = linear_balls(10.0)
    radii = [balls(r) for r in range(6)]
    assert radii[0] == 10.0
    assert all(a < b for a, b in zip(radii, radii[1:]))
    with pytest.raises(ValueError):
        linear_balls(0.0)


def test_history_csv_schemas(tmp_path, oracle):
    history = oracle.vi_history
    path = tmp_path / "convergence.csv"
    history.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,eps_k,frob_P_increment,reset_count"
    assert len(lines) == history.iterations + 1
    # reset counter is nondecreasing
    assert np.all(np.diff(history.reset_count) >= 0)
    # k and eps_k are built here as the loop counts and steps, not read
    # back from the history; every value reads back bit for bit
    k = np.arange(1, history.iterations + 1)
    eps = [1.0 / j for j in range(1, history.iterations + 1)]
    assert_csv_holds(path, np.column_stack([k, eps, history.increment, history.reset_count]),
                     lines[0])
