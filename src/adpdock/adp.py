"""Data-driven learning of the optimal regulator from trajectory data.

Nothing in this module multiplies by A, B, or D. One off-policy
trajectory is collected under an arbitrary (not necessarily stabilizing)
gain plus exploration noise; integral data matrices are assembled for a
sweep of tracking offsets X_j; and value iteration runs entirely on the
j = 0 regression equation

    Dxx vecs(P) = Theta [vecs(H); vec(K); vec(M)],

whose blocks recover H = A'P + PA, the improved gain K = R^{-1}B'P, and
M = (D - S(X_j))' P with the Sylvester map S(X) = X E - A X. After
convergence the third blocks across the sweep yield D, S(X_j), and B,
which is enough to pose and solve the trace-optimal regulator-equation
problem from data alone.

Derivation of the regression equation: along dx/dt = A x + B u + D v the
shifted state xbar_j = x - X_j v obeys
dxbar/dt = A xbar + B u + (D - S(X_j)) v, so

    d/dt xbar'P xbar = xbar'H xbar + 2 u'R K xbar + 2 v'M xbar,

and integrating over [t_{l-1}, t_l] gives one row per interval with the
Kronecker identities a'Wb = (b (*) a)' vec(W) and vec(RK) =
(I_n (*) R) vec(K), where (*) is the Kronecker product.

The sweep needs no pass over the log per offset. With z = [x; v] every
shifted state is linear in z, xbar_j = T_j z with T_j = [I_n, -X_j], so
the integrands of all offsets are fixed linear images of three interval
moments of z, each integrated once:

    vecv(xbar_j)    = V(T_j) vecv(z),          V = matops.vecv_map,
    xbar_j (*) u    = (T_j (*) I_m) (z (*) u),
    xbar_j (*) v    = (T_j (*) I_q) (z (*) v).

Integration is linear, so Ixx_j = M_zz V(T_j)', Gxu_j = M_zu (T_j (*) I_m)'
and Gxv_j = M_zv (T_j (*) I_q)', where row l of M_zz, M_zu, M_zv holds the
interval-l integrals of vecv(z), z (*) u and z (*) v.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import null_space

from .errors import NoSolutionError, RankDeficiencyError
from .matops import (check_weights, equilibrate, kron, lstsq, numerical_rank, unvec, unvecs,
                     vec, vecs, vecv, vecv_map)
from .regulator import RegulatorSolution
from .riccati import ViHistory, harmonic_steps, linear_balls, run_value_iteration
from .sysmodels import Exosystem, LinearPolicy, simulate

__all__ = [
    "RegressionBundle",
    "LearnedController",
    "ModelRecovery",
    "collect_data",
    "assemble_regression",
    "check_rank",
    "vi_learn",
    "recover_model_artifacts",
    "solve_problem1_datadriven",
    "save_gains",
    "load_gains",
]


@dataclass
class RegressionBundle:
    """Integral data matrices for one tracking offset X_j.

    Rows are collection intervals; ``Ixx`` holds the integrated vecv of
    the shifted state, ``Gxu`` and ``Gxv`` the integrated Kronecker
    products with the input and exostate, ``Dxx`` the vecv differences
    at interval endpoints, and ``Theta`` the assembled regression matrix
    [Ixx | 2 Gxu (I_n (*) R) | 2 Gxv]. ``n``, ``m`` and ``q`` are the
    state, input and exostate dimensions the blocks were built for.
    """

    j: int
    Ixx: np.ndarray
    Gxu: np.ndarray
    Gxv: np.ndarray
    Dxx: np.ndarray
    Theta: np.ndarray
    n: int
    m: int
    q: int

    def __post_init__(self):
        rows = self.Ixx.shape[0]
        for name in ("Gxu", "Gxv", "Dxx", "Theta"):
            if getattr(self, name).shape[0] != rows:
                raise ValueError(f"{name} row count differs from Ixx")
        ns = self.n * (self.n + 1) // 2
        for name, cols in (("Ixx", ns), ("Dxx", ns), ("Gxu", self.n * self.m),
                           ("Gxv", self.n * self.q)):
            if getattr(self, name).shape[1] != cols:
                raise ValueError(f"{name} must have {cols} columns for (n, m, q) = "
                                 f"({self.n}, {self.m}, {self.q})")
        if self.Theta.shape[1] != self.required_rank:
            raise ValueError("Theta column count must match the three blocks")

    @property
    def rows(self):
        return self.Ixx.shape[0]

    @property
    def required_rank(self):
        return self.n * (self.n + 1) // 2 + (self.m + self.q) * self.n


@dataclass
class LearnedController:
    """Gains learned from data, with the run's diagnostics attached."""

    K: np.ndarray
    L: np.ndarray
    P: np.ndarray
    iterations: int
    resets: int
    rank: int
    rank_required: int
    history: ViHistory | None = field(default=None, repr=False)

    def feedback(self):
        """The control law u = -K x + L v as a simulate() controller."""
        return LinearPolicy(self.K, self.L)


@dataclass
class ModelRecovery:
    """Matrices reconstructed from converged regression blocks.

    ``S_values[j - 1]`` is the recovered Sylvester image S(X_j) for
    j = 1..h+1 (S(X_0) = 0 by construction and is not stored).
    """

    D_hat: np.ndarray
    B_hat: np.ndarray
    S_values: list[np.ndarray]


def collect_data(model, exo, K0, noise, x0, v0=None, horizon=25.0, dt=1e-3,
                 interval=0.1):
    """Run the off-policy collection phase and log the fine-grid trajectory.

    The input is u = -K0 x + eta(t) with eta the exploration signal
    from ``noise`` (pass None for no exploration). K0 need not
    stabilize; a zero gain is the usual choice. ``interval`` is the
    regression interval the log will later be integrated over; it must
    be an integer multiple of dt and divide the horizon.
    """
    K0 = np.zeros((model.m, model.n)) if K0 is None else np.asarray(K0, dtype=float)
    if K0.shape != (model.m, model.n):
        raise ValueError(f"K0 must be {model.m}x{model.n}")
    _steps_per_interval(interval, dt)
    n_int = interval_count(horizon, interval)
    if n_int < 1:
        raise ValueError("horizon must cover at least one interval")
    exo_run = exo if v0 is None else Exosystem(E=exo.E, v0=v0)
    return simulate(model, exo_run, LinearPolicy(K0, noise=noise), x0, horizon, dt)


def interval_count(horizon, interval):
    """Number of whole regression intervals in the horizon."""
    count = int(round(horizon / interval))
    if abs(count * interval - horizon) > 1e-9 * max(1.0, horizon):
        count = int(np.floor(horizon / interval + 1e-12))
    return count


def _steps_per_interval(interval, dt):
    steps = int(round(interval / dt))
    if steps < 1 or abs(steps * dt - interval) > 1e-9 * max(1.0, interval):
        raise ValueError(f"interval = {interval} must be an integer multiple of dt = {dt}")
    return steps


def assemble_regression(log, basis, R, interval):
    """Integrate the data matrices for every offset in the basis sweep.

    For each X_j in X_0, X_1, X_1 + N_1, ..., X_1 + N_h the shifted
    state is xbar = x - X_j v. Within each interval the integrals use
    trapezoidal quadrature on the fine grid, except that the input
    factor of the xbar (*) u rows is taken as the held (zero-order)
    value on each fine step, matching how the input was actually
    applied; the xbar factor is still averaged. Endpoint vecv
    differences form Dxx exactly.

    The log is integrated once, as moments of z = [x; v]: M_zz holds the
    trapezoidal integrals of vecv(z), M_zv those of z (*) v, and M_zu the
    held-input integrals of z (*) u. Since xbar_j = T_j z with
    T_j = [I_n, -X_j], each offset is then

        Ixx_j = M_zz V(T_j)',  Gxu_j = M_zu (T_j (*) I_m)',
        Gxv_j = M_zv (T_j (*) I_q)',

    with V = :func:`adpdock.matops.vecv_map`. Interval sums are batched
    products over (intervals, steps, columns) views of the log: the sum
    of f over the left samples of the fine steps, plus half of f at the
    interval's end minus half at its start, is the trapezoidal sum.

    Returns one :class:`RegressionBundle` per j, in sweep order.
    """
    R = np.asarray(R, dtype=float)
    dt = log.dt
    steps = _steps_per_interval(interval, dt)
    n_int = (len(log) - 1) // steps
    if n_int < 1:
        raise ValueError("log too short for a single interval")
    n_fine = n_int * steps

    x, u, v = log.x, log.u, log.v
    n = x.shape[1]
    m = u.shape[1]
    q = v.shape[1]
    if R.shape != (m, m):
        raise ValueError(f"R must be {m}x{m}")
    if basis.X1.shape != (n, q):
        raise ValueError(f"basis shape {basis.X1.shape} does not match log dims ({n}, {q})")
    scale_u = 2.0 * kron(np.eye(n), R)
    ends = np.arange(0, n_fine + 1, steps)

    d = n + q
    z = np.hstack([x, v])
    # (intervals, d, steps) views: z at the left and right end of each fine step
    z_left = z[:n_fine].reshape(n_int, steps, d).transpose(0, 2, 1)
    z_right = z[1 : n_fine + 1].reshape(n_int, steps, d).transpose(0, 2, 1)
    u_held = u[:n_fine].reshape(n_int, steps, m)
    z_end = z[ends]
    zz_end = z_end[:, :, None] * z_end[:, None, :]
    # per-interval integral of z z'; v is part of z, so z (*) v is its v columns
    zz = dt * (np.matmul(z_left, z_left.transpose(0, 2, 1))
               + 0.5 * (zz_end[1:] - zz_end[:-1]))
    ic, ie = np.triu_indices(d)
    M_zz = zz[:, ic, ie]
    M_zv = zz[:, :, n:].reshape(n_int, d * q)
    # held input: exact in u, trapezoidal in z
    M_zu = (0.5 * dt) * (np.matmul(z_left, u_held) + np.matmul(z_right, u_held))
    M_zu = M_zu.reshape(n_int, d * m)

    x_end, v_end = x[ends], v[ends]
    bundles = []
    for j, Xj in enumerate(basis.sequence()):
        T = np.hstack([np.eye(n), -Xj])
        Ixx = M_zz @ vecv_map(T).T
        Gxu = M_zu @ kron(T, np.eye(m)).T
        Gxv = M_zv @ kron(T, np.eye(q)).T
        vv = vecv(x_end - v_end @ Xj.T)
        Dxx = vv[1:] - vv[:-1]
        Theta = np.hstack([Ixx, Gxu @ scale_u, 2.0 * Gxv])
        bundles.append(RegressionBundle(j=j, Ixx=Ixx, Gxu=Gxu, Gxv=Gxv, Dxx=Dxx,
                                        Theta=Theta, n=n, m=m, q=q))
    return bundles


def check_rank(bundle):
    """Rank of the column-equilibrated regression matrix vs the required count.

    Full column rank (n(n+1)/2 + (m+q)n, which is 87 for the docking
    scenario) makes the per-iteration regression uniquely solvable. The
    rank is that of ``equilibrate(bundle.Theta)`` under the
    ``max(shape) * eps * sigma_max`` threshold: the matrix and the rule
    with which :func:`matops.lstsq` accepts or rejects the value-iteration
    solve.
    Returns (ok, rank, required); diagnostic only.
    """
    required = bundle.required_rank
    rank = numerical_rank(equilibrate(bundle.Theta)[0]) if bundle.rows else 0
    return rank >= required, rank, required


def vi_learn(bundle_j0, Q, R, P0=None, eps=1e-3, eps_schedule=None,
             ball_schedule=None, max_k=200000, p_ref=None):
    """Value iteration driven purely by the j = 0 regression equation.

    Each iterate solves Theta theta = Dxx vecs(P_k) by least squares;
    the H and K blocks of theta give the update
    P <- P + eps_k (H + Q - K'RK), with the same diminishing-step and
    ball-reset rules as the model-based iteration. The data matrices are
    fixed, so the least-squares operator is factored once up front and
    composed with the vecs and unvecs maps: an iteration is one
    matrix-vector product plus the K'RK term.

    Returns (P, K, history) with K the regression gain at the stopping
    iterate.

    Raises
    ------
    ValueError
        If Q or R is not a valid cost weight.
    RankDeficiencyError
        If the data matrix fails the rank condition.
    ConvergenceError
        If max_k passes without the increment test firing.
    """
    n, m = bundle_j0.n, bundle_j0.m
    Q, R = check_weights(Q, R, n, m)
    ok, rank, required = check_rank(bundle_j0)
    if not ok:
        raise RankDeficiencyError(
            f"data matrix rank {rank} < required {required}; "
            "extend the horizon or enrich the exploration signal",
            rank=rank, required=required,
        )
    if P0 is None:
        P0 = np.eye(n)
    if eps_schedule is None:
        eps_schedule = harmonic_steps()
    if ball_schedule is None:
        ball_schedule = linear_balls()

    # Theta is fixed across iterations, so solve once for the operator
    # mapping vecs(P) to the stacked unknowns [vecs(H); vec(K); vec(M)].
    solve_op, _ = lstsq(bundle_j0.Theta, bundle_j0.Dxx)
    return run_value_iteration(_data_residual(solve_op, Q, R, n, m), P0, eps,
                               eps_schedule, ball_schedule, max_k, p_ref=p_ref)


def _data_residual(solve_op, Q, R, n, m):
    """P -> (H + Q - K'RK, K) through one precomputed map.

    ``solve_op`` maps vecs(P) to [vecs(H); vec(K); vec(M)]; wrapped in
    the vecs and unvecs maps it becomes vec(P) -> [vec(H); K row-major].
    """
    ns = n * (n + 1) // 2
    # vecs(P) == to_vecs @ P.ravel() for symmetric P. Every P reaching the
    # residual is exactly symmetric (the driver symmetrizes P0 and each
    # iterate, and 0.5 (P + P') is exactly symmetric in IEEE arithmetic),
    # so the symmetry check vecs would make per iteration can never fire.
    units = np.eye(n * n).reshape(n * n, n, n)
    to_vecs = np.column_stack([vecs(0.5 * (E + E.T)) for E in units])
    from_vecs = np.column_stack([unvecs(e).ravel() for e in np.eye(ns)])
    k_rows = ns + unvec(np.arange(m * n), m, n).ravel().astype(int)  # vec(K) row by row
    step_map = np.vstack([from_vecs @ solve_op[:ns], solve_op[k_rows]]) @ to_vecs

    def residual_fn(P):
        theta = step_map @ P.ravel()
        K = theta[n * n :].reshape(m, n)
        return theta[: n * n].reshape(n, n) + Q - K.T @ R @ K, K

    return residual_fn


def recover_model_artifacts(bundles, P_final, K_next_final, R):
    """Reconstruct D, B, and the Sylvester images S(X_j) from data.

    Re-solves each bundle's regression at the converged P. The third
    block of the j = 0 solution is vec(D'P) since S(X_0) = 0, giving
    D_hat; for j >= 1 it is vec((D - S(X_j))'P), giving S(X_j) by
    subtraction; and B_hat follows from inverting K = R^{-1}B'P.
    """
    P = np.asarray(P_final, dtype=float)
    n = P.shape[0]
    if numerical_rank(P) < n:
        raise NoSolutionError("P_final is singular; model recovery needs P invertible")
    if not bundles or bundles[0].j != 0:
        raise ValueError("bundles must start with the j = 0 bundle")
    m, q = bundles[0].m, bundles[0].q
    ns = n * (n + 1) // 2
    R = np.asarray(R, dtype=float)

    blocks = []
    rhs = vecs(P)
    for bundle in bundles:
        theta, _ = lstsq(bundle.Theta, bundle.Dxx @ rhs)
        blocks.append(unvec(theta[ns + m * n :], q, n))
    D_hat = np.linalg.solve(P, blocks[0].T)
    S_values = [D_hat - np.linalg.solve(P, Mj.T) for Mj in blocks[1:]]
    B_hat = np.linalg.solve(P, (R @ np.asarray(K_next_final, dtype=float)).T)
    return ModelRecovery(D_hat=D_hat, B_hat=B_hat, S_values=S_values)


def solve_problem1_datadriven(recovery, basis, Qbar=None, Rbar=None):
    """Trace-optimal regulator pair (X, U) from recovered quantities only.

    Every constraint-satisfying X is X_1 + sum_j alpha_j N_j, and by
    linearity of the Sylvester map S(X(alpha)) is known from the
    recovered sweep values. The dynamic regulator equation
    S(X) = B U + D then becomes one linear system in (alpha, vec U),
    solved jointly; any remaining freedom minimizes
    Tr(X'QbarX + U'RbarU) as a closed-form quadratic program.

    Raises
    ------
    RankDeficiencyError
        If B_hat is column-rank deficient (input directions missing).
    NoSolutionError
        If the recovered quantities admit no regulator solution.
    """
    D_hat, B_hat = recovery.D_hat, recovery.B_hat
    n, q = D_hat.shape
    m = B_hat.shape[1]
    h = basis.h
    if len(recovery.S_values) != h + 1:
        raise ValueError(f"recovery holds {len(recovery.S_values)} sweep values, expected {h + 1}")
    if numerical_rank(B_hat) < m:
        raise RankDeficiencyError(
            "B_hat is rank deficient; the input does not excite all directions",
            rank=numerical_rank(B_hat), required=m,
        )
    Qbar, Rbar = check_weights(Qbar, Rbar, n, m, names=("Qbar", "Rbar"))

    S1 = recovery.S_values[0]
    S_dirs = [recovery.S_values[j] - S1 for j in range(1, h + 1)]
    # columns: effect of alpha_j on vec(S(X)); then the -B U coupling
    M = np.hstack([
        np.column_stack([vec(Sd) for Sd in S_dirs]),
        -kron(np.eye(q), B_hat),
    ])
    rhs = vec(D_hat - S1)
    y0, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    residual = np.linalg.norm(M @ y0 - rhs)
    if residual > 1e-6 * (1.0 + np.linalg.norm(rhs)):
        raise NoSolutionError(
            f"recovered regulator system is inconsistent (residual {residual:.3e})",
            residual=float(residual),
        )

    nullspace = null_space(M)
    if nullspace.shape[1]:
        # trace cost in terms of y = (alpha, vec U): X = X1 + sum alpha_j N_j
        T = np.zeros((n * q + m * q, h + m * q))
        T[: n * q, :h] = np.column_stack([vec(N) for N in basis.basis])
        T[n * q :, h:] = np.eye(m * q)
        c = np.concatenate([vec(basis.X1), np.zeros(m * q)])
        W = np.zeros((n * q + m * q, n * q + m * q))
        W[: n * q, : n * q] = kron(np.eye(q), Qbar)
        W[n * q :, n * q :] = kron(np.eye(q), Rbar)
        G = nullspace.T @ T.T @ W @ T @ nullspace
        g = nullspace.T @ T.T @ (W @ (T @ y0 + c))
        a, *_ = np.linalg.lstsq(G, -g, rcond=None)
        y = y0 + nullspace @ a
    else:
        y = y0

    alpha = y[:h]
    U = unvec(y[h:], m, q)
    X = basis.X1 + sum(a_j * N for a_j, N in zip(alpha, basis.basis))
    S_X = S1 + sum(a_j * Sd for a_j, Sd in zip(alpha, S_dirs))
    return RegulatorSolution(
        X=X,
        U=U,
        residual_dyn=float(np.linalg.norm(S_X - B_hat @ U - D_hat)),
        # the kernel parametrization satisfies the output equation exactly
        residual_out=0.0,
        trace_cost=float(np.trace(X.T @ Qbar @ X) + np.trace(U.T @ Rbar @ U)),
    )


def save_gains(path, controller):
    """Write the learned gains and run diagnostics as JSON."""
    payload = {
        "K": np.asarray(controller.K).tolist(),
        "L": np.asarray(controller.L).tolist(),
        "P": np.asarray(controller.P).tolist(),
        "iterations": int(controller.iterations),
        "resets": int(controller.resets),
        "rank": int(controller.rank),
        "rank_required": int(controller.rank_required),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_gains(path):
    """Read a gains JSON back; matrices come back as arrays."""
    with open(path) as fh:
        payload = json.load(fh)
    for key in ("K", "L", "P"):
        if key in payload:
            payload[key] = np.asarray(payload[key], dtype=float)
    return payload
