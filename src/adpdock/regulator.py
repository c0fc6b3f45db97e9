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

from .errors import NoSolutionError
from .matops import _svd_rank, bdiag, check_weights, kron, null_space, unvec, vec

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

    ``X1`` is a particular solution of C X = -F, and ``basis`` a list of
    h = (n - p) q independent matrices spanning {X : C X = 0}. Every
    constraint-satisfying X is X1 + sum_j alpha_j basis[j]. ``C`` and
    ``F`` are the output equation's matrices that it parametrizes: the
    learned regulator solve reads them, and assembly checks the log's
    dimensions against the shape of ``X1``.
    """

    X1: np.ndarray
    basis: list[np.ndarray]
    C: np.ndarray
    F: np.ndarray

    @property
    def h(self):
        return len(self.basis)


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
    return KernelBasis(X1=X1, basis=basis, C=model.C, F=model.F)


def solve_regulator_exact(model, exo, Qbar=None, Rbar=None, rtol=_SOLVE_RTOL):
    """Solve the regulator equations, minimizing Tr(X'QbarX + U'RbarU).

    Stacks both matrix equations into one linear system M y = b in
    y = [vec X; vec U] and factors M by one SVD. Its numerical rank, under
    :func:`matops.numerical_rank`'s rule, gives both the minimum-norm
    solution and the null space of M; if that null space is not empty,
    the trace cost, whose weight on y is blockdiag(I_q (*) Qbar,
    I_q (*) Rbar), is minimized over it. Weights default to identity.

    Raises
    ------
    NoSolutionError
        If the stacked system is inconsistent: the minimum-norm solution
        leaves a residual above rtol (1 + |b|).
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

    left, sv, right = np.linalg.svd(M)
    rank = _svd_rank(sv, M.shape)
    z = right[:rank].T @ ((left[:, :rank].T @ b) / sv[:rank])
    residual = np.linalg.norm(M @ z - b)
    if residual > rtol * (1.0 + np.linalg.norm(b)):
        raise NoSolutionError(
            f"regulator equations are inconsistent (residual {residual:.3e})",
            residual=float(residual),
        )
    nullspace = right[rank:].T
    if nullspace.shape[1]:
        W = bdiag([kron(I_q, Qbar), kron(I_q, Rbar)])
        # minimizing (z + N a)' W (z + N a) over a
        alpha, *_ = np.linalg.lstsq(nullspace.T @ W @ nullspace, -(nullspace.T @ (W @ z)),
                                    rcond=None)
        z = z + nullspace @ alpha

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
