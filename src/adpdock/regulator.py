"""Regulator equations: exact solver and kernel parametrization.

A pair (X, U) solves the regulator equations when

    X E = A X + B U + D,      0 = C X + F.

Any such pair makes x - X v an error-free steady-state manifold, and a
stabilizing state feedback K turns it into the tracking controller
u = -K x + (U + K X) v. Among all solutions we pick the one minimizing
the quadratic size measure Tr(X' Qbar X + U' Rbar U), which is a
trace-weighted least-norm problem over an affine set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from .errors import NoSolutionError
from .matops import check_weights, kron, unvec, vec

__all__ = [
    "RegulatorSolution",
    "KernelBasis",
    "kernel_basis",
    "solve_regulator_exact",
    "feedforward_gain",
]

# acceptance threshold for calling a stacked least-squares fit a solution
_SOLVE_RTOL = 1e-8


@dataclass
class RegulatorSolution:
    """Solution (X, U) with its equation residuals and trace cost."""

    X: np.ndarray
    U: np.ndarray
    residual_dyn: float
    residual_out: float
    trace_cost: float


@dataclass
class KernelBasis:
    """Affine parametrization of {X : C X + F = 0}.

    ``X0`` is the zero matrix, ``X1`` a particular solution of
    C X = -F, and ``basis`` a list of h = (n - p) q independent matrices
    spanning {X : C X = 0}. Every constraint-satisfying X is
    X1 + sum_j alpha_j basis[j].
    """

    X0: np.ndarray
    X1: np.ndarray
    basis: list[np.ndarray]

    @property
    def h(self):
        return len(self.basis)

    def sequence(self):
        """The h + 2 sweep points X_0, X_1, X_1 + N_1, ..., X_1 + N_h.

        Data collection visits these in order: the zero matrix first,
        then the particular solution, then one kernel direction at a
        time on top of it.
        """
        return [self.X0, self.X1] + [self.X1 + N for N in self.basis]


def kernel_basis(model):
    """Build the :class:`KernelBasis` for C X = -F.

    The kernel directions are w_s e_r' over an orthonormal basis
    {w_s} of ker C and exostate coordinate vectors e_r, ordered with the
    exostate index varying slowest.
    """
    n, p, q = model.n, model.p, model.q
    W = null_space(model.C)
    if W.shape[1] != n - p:
        raise NoSolutionError(
            f"C must have full row rank: ker C has dimension {W.shape[1]}, expected {n - p}"
        )
    X1 = np.linalg.pinv(model.C) @ (-model.F)
    if np.linalg.norm(model.C @ X1 + model.F) > _SOLVE_RTOL * (1.0 + np.linalg.norm(model.F)):
        raise NoSolutionError("C X = -F has no solution")
    basis = []
    for r in range(q):
        e_r = np.zeros(q)
        e_r[r] = 1.0
        for s in range(W.shape[1]):
            basis.append(np.outer(W[:, s], e_r))
    return KernelBasis(X0=np.zeros((n, q)), X1=X1, basis=basis)


def _min_trace_over_affine(z0, nullspace, weight):
    """argmin_z z' W z over {z0 + N a}; returns the minimizer."""
    if nullspace.shape[1] == 0:
        return z0
    gram = nullspace.T @ weight @ nullspace
    rhs = nullspace.T @ (weight @ z0)
    alpha, *_ = np.linalg.lstsq(gram, -rhs, rcond=None)
    return z0 + nullspace @ alpha


def solve_regulator_exact(model, exo, Qbar=None, Rbar=None):
    """Solve the regulator equations, minimizing Tr(X'QbarX + U'RbarU).

    Stacks both matrix equations into one linear system in
    (vec X, vec U), takes the pseudoinverse solution, and if the system
    is underdetermined minimizes the trace cost over the solution set.
    Weights default to identity.

    Raises
    ------
    NoSolutionError
        If the stacked system is inconsistent beyond a relative
        residual of 1e-8.
    """
    n, m, p, q = model.n, model.m, model.p, model.q
    if exo.q != q:
        raise ValueError(f"exosystem has q = {exo.q}, model expects {q}")
    Qbar, Rbar = check_weights(Qbar, Rbar, n, m, names=("Qbar", "Rbar"))

    I_n, I_q = np.eye(n), np.eye(q)
    # rows: vec(X E - A X - B U) = vec(D) and vec(C X) = vec(-F)
    M_top = np.hstack([kron(exo.E.T, I_n) - kron(I_q, model.A), -kron(I_q, model.B)])
    M_bot = np.hstack([kron(I_q, model.C), np.zeros((p * q, m * q))])
    M = np.vstack([M_top, M_bot])
    b = np.concatenate([vec(model.D), vec(-model.F)])

    z0, *_ = np.linalg.lstsq(M, b, rcond=None)
    residual = np.linalg.norm(M @ z0 - b)
    if residual > _SOLVE_RTOL * (1.0 + np.linalg.norm(b)):
        raise NoSolutionError(
            f"regulator equations are inconsistent (residual {residual:.3e})",
            residual=float(residual),
        )

    weight = np.zeros((n * q + m * q, n * q + m * q))
    weight[: n * q, : n * q] = kron(I_q, Qbar)
    weight[n * q :, n * q :] = kron(I_q, Rbar)
    z = _min_trace_over_affine(z0, null_space(M), weight)

    X = unvec(z[: n * q], n, q)
    U = unvec(z[n * q :], m, q)
    return RegulatorSolution(
        X=X,
        U=U,
        residual_dyn=float(np.linalg.norm(X @ exo.E - model.A @ X - model.B @ U - model.D)),
        residual_out=float(np.linalg.norm(model.C @ X + model.F)),
        trace_cost=float(np.trace(X.T @ Qbar @ X) + np.trace(U.T @ Rbar @ U)),
    )


def feedforward_gain(solution, K):
    """Feedforward gain L = U + K X for the controller u = -K x + L v."""
    return solution.U + np.asarray(K, dtype=float) @ solution.X
