"""Model-based ARE solvers: Lyapunov, Kleinman PI, value iteration."""

import numpy as np
import pytest
from scipy.linalg import solve_continuous_are

from adpdock import (
    StateSpaceModel,
    are_residual,
    harmonic_steps,
    kleinman_pi,
    linear_balls,
    lyapunov_solve,
    model_based_vi,
)
from adpdock.errors import ConvergenceError
from adpdock.matops import is_hurwitz

rng = np.random.default_rng(2718)


def scalar_model(a, b):
    return StateSpaceModel(A=[[a]], B=[[b]], C=[[1.0]],
                           D=np.zeros((1, 1)), F=np.zeros((1, 1)))


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


def test_schedules():
    steps = harmonic_steps()
    values = [steps(k) for k in range(1, 50)]
    assert all(v > 0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))
    balls = linear_balls(10.0)
    radii = [balls(r) for r in range(6)]
    assert radii[0] == 10.0
    assert all(a < b for a, b in zip(radii, radii[1:]))
    with pytest.raises(ValueError):
        linear_balls(0.0)


def test_history_csv_schemas(tmp_path, docking, oracle):
    cfg = docking.config
    # distance schema needs a recorded reference
    _, _, with_ref = model_based_vi(docking.model, cfg.Q, cfg.R,
                                    p_ref=oracle.P_star)
    path = tmp_path / "dist.csv"
    with_ref.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,eps_k,frob(P_k - P_star),reset_count"
    assert len(lines) == with_ref.iterations + 1
    # distances shrink overall as the iterate closes in on P*
    assert with_ref.distance[-1] < 1e-2 * with_ref.distance.max()
    # reset counter is nondecreasing
    assert np.all(np.diff(with_ref.reset_count) >= 0)

    inc_path = tmp_path / "inc.csv"
    oracle.vi_history.to_csv(inc_path, kind="increment")
    assert inc_path.read_text().splitlines()[0] == "k,eps_k,frob_P_increment,reset_count"
    # np.savetxt is the reference writer for both schemas
    for hist, kind, third, written in ((with_ref, "distance", with_ref.distance, path),
                                       (oracle.vi_history, "increment",
                                        oracle.vi_history.increment, inc_path)):
        reference = tmp_path / f"reference_{kind}.csv"
        np.savetxt(reference, np.column_stack([hist.k, hist.eps, third, hist.reset_count]),
                   delimiter=",", header=written.read_text().splitlines()[0], comments="",
                   fmt=["%d", "%.17g", "%.17g", "%d"])
        assert written.read_bytes() == reference.read_bytes()
    with pytest.raises(ValueError):
        oracle.vi_history.to_csv(tmp_path / "bad.csv", kind="distance")
    with pytest.raises(ValueError):
        oracle.vi_history.to_csv(tmp_path / "bad.csv", kind="wat")
