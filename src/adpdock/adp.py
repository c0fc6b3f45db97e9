"""Data-driven learning of the optimal regulator from trajectory data.

Nothing in this module multiplies by A, B, or D. One off-policy
trajectory is collected under an arbitrary (not necessarily stabilizing)
gain plus exploration noise; integral data matrices are assembled for a
sweep of tracking offsets X_j; and value iteration runs entirely on the
j = 0 regression equation

    Dxx vecs(P) = Theta [vecs(H); vec(K); vec(M)],

whose blocks recover H = A'P + PA, the improved gain K = R^{-1}B'P, and
M = (D - S(X_j))' P with the Sylvester map S(X) = X E - A X. Newton
steps on the same equation finish the iteration. After
convergence the third blocks of the regressions across the sweep, solved
at the converged P, yield D, S(X_j), and B, which is enough to pose and
solve the trace-optimal regulator-equation problem from data alone.

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
interval-l integrals of vecv(z), z (*) u and z (*) v. The same holds at
the interval ends: Dxx_j = dZZ V(T_j)' with dZZ the differences of vecv(z).

So every offset's regression is a fixed column image of one data matrix:
Theta_j = W G_j with W = [M_zz | M_zu], because the columns of M_zv are
columns of M_zz (v is part of z). :class:`RegressionSweep` holds the
moments and builds an offset's Theta_j only when asked for it. Recovery
factors W = Q R_W once (a thin Householder QR) and solves every offset's
regression as R_W G_j theta = Q' dZZ V(T_j)' vecs(P): a problem with at
most W's column count of rows, and the same least-squares solution and
singular values as the interval-row one. These compressed regressions
are solved as one stack, with one stacked call each for the column
equilibration, the QR, the SVD of the rank verdict and the triangular
solve (:func:`matops.lstsq_compressed`). The SVDs and the solves are cut
into one contiguous chunk of offsets per usable CPU, each run on a
thread of its own, since numpy's linalg calls release the GIL.

Assembly, the rank check, value iteration, recovery and the regulator
solve run on one OpenBLAS thread (:class:`matops.one_blas_thread`):
their matrices are at most a few thousand by a hundred, where a second
BLAS thread costs more in wake-ups than it saves. Recovery's second CPU
comes from its own threads instead.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NoSolutionError, RankDeficiencyError
# unvecs is not called here any more; perfbench counts the calls of adp.unvecs
from .matops import (bdiag, check_input_weight, check_weights, equilibrate, kron, lstsq,
                     lstsq_compressed, numerical_rank, one_blas_thread, unvec, unvecs, vec, vecs,
                     vecv, vecv_map, write_json)
from .regulator import RegulatorSolution, solve_min_trace
from .riccati import linear_balls, run_value_iteration
from .sysmodels import LinearPolicy, simulate, whole_steps

__all__ = [
    "RegressionBundle",
    "RegressionSweep",
    "DataRiccati",
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
    """The regression Dxx vecs(P) = Theta [vecs(H); vec(K); vec(M)] for one offset X_j.

    Rows are collection intervals. ``Dxx`` holds the vecv differences of
    the shifted state at interval endpoints, n(n+1)/2 columns. ``Theta``
    is [Ixx | 2 Gxu (I_n (*) R) | 2 Gxv], n(n+1)/2 + (m+q)n columns:
    Ixx holds the integrated vecv of the shifted state, and Gxu and Gxv
    its integrated Kronecker products with the input and the exostate.
    ``n``, ``m`` and ``q`` are the state, input and exostate dimensions
    the matrices were built for.
    """

    j: int
    Theta: np.ndarray
    Dxx: np.ndarray
    n: int
    m: int
    q: int

    def __post_init__(self):
        ns = self.n * (self.n + 1) // 2
        for name, cols in (("Theta", self.required_rank), ("Dxx", ns)):
            if getattr(self, name).shape != (self.rows, cols):
                raise ValueError(f"{name} must have {self.rows} rows and {cols} columns "
                                 f"for (n, m, q) = ({self.n}, {self.m}, {self.q})")

    @property
    def rows(self):
        return self.Theta.shape[0]

    @property
    def required_rank(self):
        return self.n * (self.n + 1) // 2 + (self.m + self.q) * self.n


class RegressionSweep(Sequence):
    """The regressions of a whole offset sweep, held as interval moments of z = [x; v].

    ``sweep[j]`` is the :class:`RegressionBundle` of offset ``offsets[j]``,
    built on request from the moments; bundle 0 is built once, with the
    sweep. A slice gives a list of bundles. The sweep keeps the moments
    ``M_zz``, ``M_zu`` and ``M_zv`` of :func:`assemble_regression`, the
    state ``x_end`` and exostate ``v_end`` at the interval ends, and
    ``scale_u`` = 2 (I_n (*) R), all read-only; it does not keep the
    log. :meth:`solve` solves every offset's regression on one QR factor
    of the moments, without building any Theta_j.
    """

    def __init__(self, offsets, M_zz, M_zu, M_zv, x_end, v_end, scale_u):
        self.offsets = tuple(offsets)
        self.M_zz, self.M_zu, self.M_zv = M_zz, M_zu, M_zv
        self.x_end, self.v_end, self.scale_u = x_end, v_end, scale_u
        for a in (M_zz, M_zu, M_zv, x_end, v_end, scale_u):
            a.flags.writeable = False
        self.n, self.q = self.offsets[0].shape
        self.m = scale_u.shape[0] // self.n
        self._first = self._bundle(0)

    def __len__(self):
        return len(self.offsets)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return [self[i] for i in range(len(self))[j]]
        j = range(len(self))[j]  # a list's index rules: IndexError, negatives from the end
        return self._first if j == 0 else self._bundle(j)

    def _bundle(self, j):
        vv = vecv(self.x_end - self.v_end @ self.offsets[j].T)
        maps = self._maps([j])
        Theta = np.empty((len(self.M_zz), sum(a.shape[2] for a in maps)))
        self._theta(maps, self.M_zz, self.M_zu, self.M_zv, Theta[None])
        return RegressionBundle(j=j, Theta=Theta, Dxx=vv[1:] - vv[:-1],
                                n=self.n, m=self.m, q=self.q)

    def _maps(self, js):
        """Stacks of V(T_j)', (T_j (*) I_m)' and (T_j (*) I_q)' for the offsets js.

        T_j = [I_n, -X_j] maps z to offset j's shifted state. Each V(T_j)'
        is C-ordered: a product's bits depend on its operands' layout.
        """
        X = np.stack([self.offsets[j] for j in js])
        J, n, d = len(X), self.n, self.n + self.q
        T = np.concatenate([np.broadcast_to(np.eye(n), (J, n, n)), -X], axis=2)

        def with_eye(k):  # T_j (*) I_k, entry (a k + i, c k + l) = T_j[a, c] I_k[i, l]
            return (T[:, :, None, :, None] * np.eye(k)[:, None, :]).reshape(J, n * k, d * k)

        return (np.ascontiguousarray(vecv_map(T).transpose(0, 2, 1)),
                with_eye(self.m).transpose(0, 2, 1), with_eye(self.q).transpose(0, 2, 1))

    def _theta(self, maps, M_zz, M_zu, M_zv, out):
        """Write the stack of Theta_j for the :meth:`_maps` stacks ``maps`` into the leading
        columns of ``out``, from the moments or the same column image of their R factor."""
        Vt, Ku, Kv = maps
        cut_u, cut_v = Vt.shape[2], Vt.shape[2] + Ku.shape[2]
        np.matmul(M_zz, Vt, out=out[..., :cut_u])
        np.matmul(M_zu @ Ku, self.scale_u, out=out[..., cut_u:cut_v])
        np.multiply(M_zv @ Kv, 2.0, out=out[..., cut_v : cut_v + Kv.shape[2]])

    def solve(self, p):
        """The least-squares solution of Theta_j theta = Dxx_j p for every offset j.

        One thin Householder QR of [W | B], with W = [M_zz | M_zu] = Q R_W
        and column j of B the right-hand side Dxx_j p = dZZ V(T_j)' p
        (dZZ: the differences of vecv(z) at the interval ends), gives R_W
        and Q' B. Offset j is then the compressed regression
        R_W G_j theta = Q' B e_j. All offsets' [R_W G_j | Q' B e_j] are
        built as one stack and solved by :func:`matops.lstsq_compressed`,
        under the rank rule that :func:`matops.lstsq` applies to the
        interval-row Theta_j; its rank verdicts and solves run on one
        thread per usable CPU.

        Returns one solution per row, in sweep order.

        Raises
        ------
        RankDeficiencyError
            For the first offset whose Theta_j lacks full column rank, with
            the rank and required count :func:`matops.lstsq` reports on it.
        """
        rows = len(self.x_end) - 1
        n_zz, w_cols = self.M_zz.shape[1], self.M_zz.shape[1] + self.M_zu.shape[1]
        maps = self._maps(range(len(self)))
        cols = sum(a.shape[2] for a in maps)
        dZZ = np.diff(vecv(np.hstack([self.x_end, self.v_end])), axis=0)
        # B has one column per offset where dZZ has d(d+1)/2: a narrower factor, and
        # on the docking run's 250 rows one whose bits do not depend on the BLAS
        # thread count (with dZZ itself they do). One V'p product per offset: a
        # stacked product gives other bits.
        B = dZZ @ np.column_stack([Vt @ p for Vt in maps[0]])
        # the first w_cols rows of the augmented R factor are [R_W | Q' B]
        tri = np.linalg.qr(np.hstack([self.M_zz, self.M_zu, B]), mode="r")[:w_cols]
        R_zz, R_zu, Q_B = tri[:, :n_zz], tri[:, n_zz:w_cols], tri[:, w_cols:]
        R_zv = R_zz[:, self._zv_columns()]

        system = np.empty((len(self), len(tri), cols + 1))  # [R_W G_j | Q' B e_j] for every j
        self._theta(maps, R_zz, R_zu, R_zv, system)
        system[:, :, cols] = Q_B.T
        return lstsq_compressed(system, rows)

    def _zv_columns(self):
        """The column of M_zz that holds each column of M_zv: z_a v_b is z_a z_{n+b}."""
        d = self.n + self.q
        ic, ie = np.triu_indices(d)
        position = np.empty((d, d), dtype=int)
        position[ic, ie] = position[ie, ic] = np.arange(ic.size)
        return position[:, self.n:].ravel()


@dataclass
class LearnedController:
    """Gains learned from data, with the run's diagnostics attached.

    The fields, in order, are the keys of ``learned_gains.json`` and of
    ``report.json``'s ``learned``. ``iterations``, ``newton_steps``,
    ``vi_stop_gap`` and ``resets`` are those of the learning run's
    :class:`riccati.ViHistory`.
    """

    K: np.ndarray
    L: np.ndarray
    P: np.ndarray
    iterations: int
    newton_steps: int
    vi_stop_gap: float
    resets: int
    rank: int
    rank_required: int

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


def collect_data(model, exo, K0, noise, x0, horizon=25.0, dt=1e-3, interval=0.1):
    """Run the off-policy collection phase and log the fine-grid trajectory.

    The input is u = -K0 x + eta(t) with eta the exploration signal
    from ``noise`` (pass None for no exploration). K0 need not
    stabilize; a zero gain is the usual choice. The exostate starts at
    ``exo.v0``. ``interval`` is the regression interval the log will
    later be integrated over. It and the horizon must be whole numbers
    of dt steps, and the horizon must hold at least one whole interval;
    assembly ignores a partial interval at the end.
    """
    K0 = np.zeros((model.m, model.n)) if K0 is None else np.asarray(K0, dtype=float)
    if K0.shape != (model.m, model.n):
        raise ValueError(f"K0 must be {model.m}x{model.n}")
    if whole_steps(horizon, dt, "horizon") // _steps_per_interval(interval, dt) < 1:
        raise ValueError("horizon must cover at least one interval")
    return simulate(model, exo, LinearPolicy(K0, noise=noise), x0, horizon, dt)


def _steps_per_interval(interval, dt):
    steps = whole_steps(interval, dt, "interval")
    if steps < 1:
        raise ValueError(f"interval = {interval} must be at least dt = {dt}")
    return steps


@one_blas_thread()
def assemble_regression(log, basis, R, interval):
    """Integrate the interval moments that every offset of the basis sweep is built from.

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

    R takes every weight form of :func:`matops.check_weights`.

    Returns a :class:`RegressionSweep` of h + 2 bundles, one per j in
    sweep order. Only bundle 0 is built here; ``sweep[j]`` builds bundle
    j from the moments when asked for it, by the products above.
    """
    if len(log) < 2:
        raise ValueError("log too short for a single interval")
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
    R = check_input_weight(R, m)
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

    return RegressionSweep(basis.sequence(), M_zz, M_zu, M_zv, x[ends], v[ends], scale_u)


@one_blas_thread()
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


@one_blas_thread()
def vi_learn(bundle_j0, Q, R, P0=None, eps=1e-3, ball_schedule=None, max_k=200000):
    """Value iteration driven purely by the j = 0 regression equation, finished by Newton.

    Each iterate solves Theta theta = Dxx vecs(P_k) by least squares;
    the H and K blocks of theta give the update
    P <- P + eps_k F(P), F(P) = H + Q - K'RK, with the steps
    eps_k = 1/k and the ball resets of the model-based iteration
    (:func:`riccati.run_value_iteration`); P0 defaults to the identity
    and ball radii to 10 (r + 1). The data matrices are fixed, so the
    least-squares operator is factored once up front and composed with
    the vecs and unvecs maps (:class:`DataRiccati`): an iteration is one
    matrix-vector product plus the K'RK term.

    At k = 2, 4, 8, ... :func:`riccati.run_value_iteration` tries Newton
    steps on F from the current iterate (:meth:`DataRiccati.newton_step`)
    and stops at their point if |F(P)| < eps and P is positive definite; a failed try
    leaves value iteration as it was. Either way the returned P
    satisfies |F(P)| < eps, value iteration's own stop rule.
    ``history.iterations`` counts the value iterations and
    ``history.newton_steps`` the Newton steps of the try that stopped
    the run (0 when value iteration's own test did), and
    ``history.vi_stop_gap`` is |K(P_vi) - K|max between the gain at the
    value iterate P_vi that try started from and the returned gain.

    Returns (P, K, history) with K the regression gain at the stopping
    point.

    Raises
    ------
    ValueError
        If Q or R is not a valid cost weight.
    RankDeficiencyError
        If the data matrix fails the rank condition, decided once, by
        :func:`matops.lstsq` (the rule of :func:`check_rank`).
    ConvergenceError
        If max_k passes without the increment test firing.
    """
    n, m = bundle_j0.n, bundle_j0.m
    Q, R = check_weights(Q, R, n, m)
    # Theta is fixed across iterations, so solve once for the operator
    # mapping vecs(P) to the stacked unknowns [vecs(H); vec(K); vec(M)].
    try:
        solve_op, _ = lstsq(bundle_j0.Theta, bundle_j0.Dxx)
    except RankDeficiencyError as exc:
        raise RankDeficiencyError(
            f"data matrix rank {exc.rank} < required {exc.required}; "
            "extend the horizon or enrich the exploration signal",
            rank=exc.rank, required=exc.required,
        ) from None
    if P0 is None:
        P0 = np.eye(n)
    if ball_schedule is None:
        ball_schedule = linear_balls()
    riccati_map = DataRiccati(solve_op, Q, R, n, m)
    return run_value_iteration(riccati_map, P0, eps, ball_schedule, max_k,
                               newton_step=riccati_map.newton_step)


class DataRiccati:
    """The data-side Riccati map F(P) = H(P) + Q - K(P)'RK(P) of one regression.

    ``solve_op`` maps vecs(P) to [vecs(H); vec(K); vec(M)], the
    least-squares solution of the regression at P, so H(P) and K(P) are
    linear in P and F is quadratic. Called on P, the object returns
    (F(P), K(P)), the value-iteration residual of :func:`vi_learn`.
    :meth:`newton_step` takes one Newton step on F, the data-driven
    policy-iteration step of Jiang & Jiang (Automatica 2012).
    """

    def __init__(self, solve_op, Q, R, n, m):
        ns = n * (n + 1) // 2
        self.Q, self.R, self.n, self.m = Q, R, n, m
        # vecs coordinate i is p_ac, doubled off the diagonal, with (a, c) = (iu[i], ju[i]),
        # so vecs(P) == to_vecs @ P.ravel() for symmetric P. Every P reaching the
        # residual is exactly symmetric (run_value_iteration symmetrizes P0 and each
        # iterate, and 0.5 (P + P') is exactly symmetric in IEEE arithmetic;
        # a Newton step adds a from_vecs image, whose every entry is one
        # product), so the symmetry check vecs would make can never fire.
        iu, ju = np.triu_indices(n)
        coords = np.arange(ns)
        self._to_vecs = np.zeros((ns, n * n))
        self._to_vecs[coords, iu * n + ju] = self._to_vecs[coords, ju * n + iu] = 1.0
        self._from_vecs = np.zeros((n * n, ns))
        self._from_vecs[iu * n + ju, coords] = self._from_vecs[ju * n + iu, coords] = \
            np.where(iu == ju, 1.0, 0.5)
        k_rows = ns + unvec(np.arange(m * n), m, n).ravel().astype(int)  # vec(K) row by row
        # vec(P) -> [vec(H); K row-major] through one precomputed map
        self._step_map = np.vstack([self._from_vecs @ solve_op[:ns],
                                    solve_op[k_rows]]) @ self._to_vecs
        # vecs(Delta) -> vecs(H(Delta)), and K(Delta) for each vecs coordinate of Delta
        self._dH = solve_op[:ns]
        self._dK = solve_op[k_rows].reshape(m, n, ns)

    def __call__(self, P):
        n = self.n
        theta = self._step_map @ P.ravel()
        K = theta[n * n :].reshape(self.m, n)
        return theta[: n * n].reshape(n, n) + self.Q - K.T @ self.R @ K, K

    def jacobian(self, K):
        """dF at a P with gain K = K(P), as a matrix on the vecs coordinates.

        dF[Delta] = H(Delta) - K(Delta)'RK - K'RK(Delta) in closed form:
        column i is vecs(dF[unvecs(e_i)]).
        """
        n = self.n
        cross = np.einsum("aik,aj->ijk", self._dK, self.R @ K)  # K(Delta)'RK per coordinate
        # vecs of a square T is that of 0.5 (T + T'), and dF takes T + T'
        return self._dH - 2.0 * (self._to_vecs @ cross.reshape(n * n, -1))

    def newton_step(self, P, F, K):
        """P + Delta with dF[Delta] = -F, given F = F(P) and K = K(P).

        Raises numpy.linalg.LinAlgError if the Jacobian is singular.
        """
        step = np.linalg.solve(self.jacobian(K), -(self._to_vecs @ F.ravel()))
        return P + (self._from_vecs @ step).reshape(self.n, self.n)


@one_blas_thread()
def recover_model_artifacts(sweep, P_final, K_next_final, R):
    """Reconstruct D, B, and the Sylvester images S(X_j) from data.

    Solves every regression of the :class:`RegressionSweep` ``sweep`` at
    the converged P, on one QR factor of its moments
    (:meth:`RegressionSweep.solve`). The third block of the j = 0
    solution is vec(D'P) since S(X_0) = 0, giving D_hat; for j >= 1 it is
    vec((D - S(X_j))'P), giving S(X_j) by subtraction (one stacked solve
    with P serves D_hat and every S(X_j)); and B_hat follows
    from inverting K = R^{-1}B'P, with R in any weight form of
    :func:`matops.check_weights`.

    Raises
    ------
    ValueError
        If ``sweep`` is not a RegressionSweep, or R is not a valid weight.
    NoSolutionError
        If P_final is singular.
    RankDeficiencyError
        If an offset's regression lacks full column rank.
    """
    if not isinstance(sweep, RegressionSweep):
        raise ValueError("recovery needs the RegressionSweep of assemble_regression, "
                         f"got {type(sweep).__name__}")
    P = np.asarray(P_final, dtype=float)
    n = P.shape[0]
    if numerical_rank(P) < n:
        raise NoSolutionError("P_final is singular; model recovery needs P invertible")
    m, q = sweep.m, sweep.q
    ns = n * (n + 1) // 2
    R = check_input_weight(R, m)

    # row j's last block is vec(M_j), M_j = (D - S(X_j))'P, so it reshapes to M_j' row by row
    DS = np.linalg.solve(P, sweep.solve(vecs(P))[:, ns + m * n :].reshape(len(sweep), n, q))
    D_hat = DS[0]
    S_values = list(D_hat - DS[1:])
    B_hat = np.linalg.solve(P, (R @ np.asarray(K_next_final, dtype=float)).T)
    return ModelRecovery(D_hat=D_hat, B_hat=B_hat, S_values=S_values)


@one_blas_thread()
def solve_problem1_datadriven(recovery, basis, Qbar=None, Rbar=None):
    """Trace-optimal regulator pair (X, U) from recovered quantities only.

    Every constraint-satisfying X is X_1 + sum_j alpha_j N_j, and by
    linearity of the Sylvester map S(X(alpha)) is known from the
    recovered sweep values. The dynamic regulator equation
    S(X) = B U + D then becomes one linear system in (alpha, vec U),
    solved jointly to a relative residual of 1e-6 by
    :func:`regulator.solve_min_trace`; any remaining freedom minimizes
    Tr(X'QbarX + U'RbarU).

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
    if (rank := numerical_rank(B_hat)) < m:
        raise RankDeficiencyError(
            "B_hat is rank deficient; the input does not excite all directions",
            rank=rank, required=m,
        )
    Qbar, Rbar = check_weights(Qbar, Rbar, n, m, names=("Qbar", "Rbar"))

    S1 = recovery.S_values[0]
    S_dirs = [recovery.S_values[j] - S1 for j in range(1, h + 1)]

    def columns(mats):  # one vec per column; nq x 0 when C is square (h = 0)
        return np.reshape([vec(A) for A in mats], (h, n * q)).T

    # columns: effect of alpha_j on vec(S(X)); then the -B U coupling
    M = np.hstack([columns(S_dirs), -kron(np.eye(q), B_hat)])
    # y = (alpha, vec U) gives [vec X; vec U] = T y + c
    T = bdiag([columns(basis.basis), np.eye(m * q)])
    c = np.concatenate([vec(basis.X1), np.zeros(m * q)])
    y = solve_min_trace(M, vec(D_hat - S1), T, c, Qbar, Rbar, rtol=1e-6)

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
    """Write the learned gains and run diagnostics as JSON, one key per field."""
    write_json(path, controller)


def load_gains(path):
    """Read a gains JSON back; K, L and P come back as arrays.

    Raises ValueError naming the file and the first of K, L and P it lacks.
    """
    with open(path) as fh:
        payload = json.load(fh)
    for key in ("K", "L", "P"):
        if key not in payload:
            raise ValueError(f"{path}: gains file has no {key}")
        payload[key] = np.asarray(payload[key], dtype=float)
    return payload
