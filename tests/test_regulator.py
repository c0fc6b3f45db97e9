"""Exact regulator-equation solver and the output equation."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import null_space

from adpdock import (
    Exosystem,
    StateSpaceModel,
    feedforward_gain,
    kernel_basis,
    solve_regulator_exact,
)
from adpdock.errors import NoSolutionError
from adpdock.matops import numerical_rank, vec

rng = np.random.default_rng(99)


def random_solvable(n, m, p, q, generator=None, dead_inputs=0):
    """Backsolve D and F from a chosen (X, U) so a solution exists.

    The first ``dead_inputs`` columns of B are zero.
    """
    g = rng if generator is None else generator
    A = g.standard_normal((n, n))
    B = g.standard_normal((n, m))
    B[:, :dead_inputs] = 0.0
    C = g.standard_normal((p, n))
    E = g.standard_normal((q, q))
    E = 0.5 * (E - E.T)  # neutrally stable, like a real exosystem
    X = g.standard_normal((n, q))
    U = g.standard_normal((m, q))
    D = X @ E - A @ X - B @ U
    F = -C @ X
    model = StateSpaceModel(A=A, B=B, C=C, D=D, F=F)
    return model, Exosystem(E=E, v0=np.zeros(q))


def particular_solution(basis):
    """X_1, the least-norm solution of C X = -F: the base point of the
    paper's kernel-basis parametrization X = X_1 + N, C N = 0."""
    return np.linalg.pinv(basis.C) @ (-basis.F)


def kernel_directions(basis):
    """The h = (n - p) q directions w_s e_r' spanning {X : C X = 0}, over an
    orthonormal basis {w_s} of ker C (scipy's) and the exostate coordinates
    e_r, with r varying slowest."""
    W, q = null_space(basis.C), basis.F.shape[1]
    return [np.outer(W[:, s], e_r) for e_r in np.eye(q) for s in range(W.shape[1])]


def test_kernel_basis_docking(docking):
    model = docking.model
    basis = kernel_basis(model)
    assert [f.name for f in dataclasses.fields(basis)] == ["C", "F"]
    assert basis.C is model.C and basis.F is model.F
    assert np.linalg.norm(model.C @ particular_solution(basis) + model.F) <= 1e-12
    directions = kernel_directions(basis)
    assert len(directions) == (model.n - model.p) * model.q == 24
    stacked = np.column_stack([vec(N) for N in directions])
    assert np.linalg.matrix_rank(stacked) == 24
    for N in directions:
        assert np.linalg.norm(model.C @ N) <= 1e-12


def test_kernel_basis_needs_full_row_rank():
    model = StateSpaceModel(A=np.zeros((2, 2)), B=np.eye(2),
                            C=[[1.0, 0.0], [2.0, 0.0]],  # rank 1
                            D=np.zeros((2, 1)), F=[[1.0], [0.0]])
    with pytest.raises(NoSolutionError, match=r"^C must have full row rank: rank 1 < 2 rows$"):
        kernel_basis(model)


def test_kernel_basis_rejects_an_output_equation_rounding_leaves_unsolved():
    # C = U diag(1, 1e-12) V' has full row rank, so C X = -F is solvable in
    # exact arithmetic; but for an F along C's smallest singular direction the
    # solution has size 1e12, and its rounding leaves a residual near 1e-5,
    # far above 1e-8 (1 + |F|)
    g = np.random.default_rng(0)
    U = np.linalg.qr(g.standard_normal((2, 2)))[0]
    V = np.linalg.qr(g.standard_normal((3, 3)))[0][:, :2]
    C = U @ np.diag([1.0, 1e-12]) @ V.T
    assert numerical_rank(C) == 2 and np.linalg.cond(C) == pytest.approx(1e12, rel=1e-3)
    model = StateSpaceModel(A=np.zeros((3, 3)), B=np.eye(3, 1), C=C,
                            D=np.zeros((3, 1)), F=U[:, 1:])
    with pytest.raises(NoSolutionError, match=r"^C X = -F has no solution$"):
        kernel_basis(model)


def test_exact_solver_docking(docking, oracle):
    model, exo = docking.model, docking.exo
    sol = oracle.exact
    bound = 1e-8 * (1.0 + np.linalg.norm(model.D) + np.linalg.norm(model.F))
    assert sol.residual_dyn <= bound
    assert sol.residual_out <= bound
    # the position rows of X are forced to -F, the velocity rows to -F E
    assert np.allclose(sol.X[:3], -model.F, atol=1e-9)
    assert np.allclose(sol.X[3:], -model.F @ exo.E, atol=1e-9)
    assert sol.trace_cost == pytest.approx(
        np.trace(sol.X.T @ sol.X) + np.trace(sol.U.T @ sol.U), rel=1e-12
    )


def test_exact_solver_random_instances():
    # three shape families: p <= min(n, m); p > m, more equations than
    # unknowns; and p = n, where C X = -F pins X (h = 0)
    for family in ("p <= min(n, m)", "p > m", "p = n"):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            if family == "p <= min(n, m)":
                m = int(rng.integers(1, 4))
                p = int(rng.integers(1, min(n, m) + 1))
            else:
                m = int(rng.integers(1, n))
                p = n if family == "p = n" else int(rng.integers(m + 1, n + 1))
            q = int(rng.integers(1, 9))
            model, exo = random_solvable(n, m, p, q)
            sol = solve_regulator_exact(model, exo)
            bound = 1e-8 * (1.0 + np.linalg.norm(model.D) + np.linalg.norm(model.F))
            assert sol.residual_dyn <= bound, (family, n, m, p, q)
            assert sol.residual_out <= bound, (family, n, m, p, q)


def test_exact_solver_minimizes_trace():
    # oversized input (m > p) leaves freedom; at the optimum the weighted
    # cost gradient must be orthogonal to the feasible directions
    for dead_inputs in (0, 0, 0, 0, 0, 1, 1):
        n, m, p, q = 4, 3, 1, 3
        model, exo = random_solvable(n, m, p, q, dead_inputs=dead_inputs)
        Qbar = np.diag(rng.uniform(0.5, 2.0, n))
        Rbar = np.diag(rng.uniform(0.5, 2.0, m))
        sol = solve_regulator_exact(model, exo, Qbar, Rbar)

        top = np.hstack([np.kron(exo.E.T, np.eye(n)) - np.kron(np.eye(q), model.A),
                         -np.kron(np.eye(q), model.B)])
        bottom = np.hstack([np.kron(np.eye(q), model.C), np.zeros((p * q, m * q))])
        feasible = null_space(np.vstack([top, bottom]))
        assert feasible.shape[1] > 0  # there is actual freedom to optimize over

        weight = np.zeros((n * q + m * q,) * 2)
        weight[: n * q, : n * q] = np.kron(np.eye(q), Qbar)
        weight[n * q :, n * q :] = np.kron(np.eye(q), Rbar)
        z = np.concatenate([vec(sol.X), vec(sol.U)])
        gradient = weight @ z
        assert np.linalg.norm(feasible.T @ gradient) <= 1e-8 * (1.0 + np.linalg.norm(gradient))
        # an input that B does not carry costs without acting: it is left at zero
        assert np.abs(sol.U[:dead_inputs]).max(initial=0.0) <= 1e-12


def test_exact_solver_inconsistent():
    # B = 0 forces X E = A X + D with X pinned by C X = -F; pick D off that
    model = StateSpaceModel(A=[[0.0]], B=[[0.0]], C=[[1.0]],
                            D=[[1.0, 1.0]], F=[[1.0, 0.0]])
    exo = Exosystem(E=[[0.0, 1.0], [-1.0, 0.0]], v0=[1.0, 0.0])
    with pytest.raises(NoSolutionError) as excinfo:
        solve_regulator_exact(model, exo)
    assert excinfo.value.residual > 0


def test_weight_validation(docking):
    model, exo = docking.model, docking.exo
    with pytest.raises(ValueError):
        solve_regulator_exact(model, exo, Qbar=np.ones((6, 6)) - 2 * np.eye(6))
    with pytest.raises(ValueError):
        solve_regulator_exact(model, exo, Rbar=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        solve_regulator_exact(model, exo, Qbar=np.eye(5))


def test_feedforward_gain_composition(docking, oracle):
    sol = oracle.exact
    L = feedforward_gain(sol, oracle.K_star)
    assert np.allclose(L, sol.U + oracle.K_star @ sol.X, atol=1e-14)
    zero = feedforward_gain(sol, np.zeros((3, 6)))
    assert np.array_equal(zero, sol.U)
