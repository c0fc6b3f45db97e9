"""Data-driven learning of the optimal regulator from trajectory data.

Nothing in this module multiplies by A, B, or D. One off-policy
trajectory is collected under an arbitrary (not necessarily stabilizing)
gain plus exploration noise; integral data matrices are assembled for a
sweep of tracking offsets X_j; and value iteration runs entirely on the
j = 0 regression equation

    Dxx vecs(P) = Theta [vecs(H); vec(K); vec(M)],

whose blocks recover H = A'P + PA, the improved gain K = R^{-1}B'P, and
M = (D - S(X_j))' P with the Sylvester map S(X) = X E - A X. Newton
steps on the same equation finish the iteration. After convergence the
plant and the exosystem are identified from the same data (see below):
A_hat, B_hat, D_hat and E_hat. The trace-optimal regulator pair is then
the exact solve of the identified model's regulator equations
(:func:`regulator.solve_regulator_exact`), from data alone.

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

So every offset's regression is a fixed column image of the moments.
:class:`RegressionSweep` holds them and builds an offset's Theta_j only
when asked for it.

Recovery solves no offset's regression. Bundle 0's least-squares
operator, vecs(P) -> [vecs(H); vec(K); vec(M)], is solved once, on one
thin QR factor of the equilibrated Theta beside Dxx
(:func:`matops.lstsq`), and shared by the rank check, value iteration
and recovery (:attr:`RegressionBundle.solve_op`): the factor that gives
the operator also gives the rank verdict. Its H block is the matrix of
the Lyapunov operator P -> A'P + PA, so a least-squares fit of that
operator gives A_hat; at the converged P its M block gives D_hat and K
gives B_hat. The exosystem is identified from the exostate alone: over
interval l, with M_vv,l the integral of v v' (the vv' columns of M_zz)
and Delta_l the change of v v' across it,

    Delta_l = E M_vv,l + M_vv,l E'.

One thin QR of [M_vv | Delta] compresses the intervals to a square
factor with the same least-squares problem, which is solved for E_hat by
q^2 x q^2 normal equations. The trapezoidal M_vv,l is biased by
dt^2/12 (E Delta_l + Delta_l E'), the Euler-Maclaurin end term of
d(v v')/dt = E v v' + v v' E'. That term is linear in the Delta columns,
so it is subtracted on the same factor with the first E_hat, and E_hat
is refitted.

Assembly, the rank check, value iteration, recovery and the regulator
solve run on one OpenBLAS thread (:class:`matops.one_blas_thread`):
their matrices are at most a few thousand by a hundred, where a second
BLAS thread costs more in wake-ups than it saves. Assembly instead
splits the intervals into contiguous ranges, one per free CPU, each
integrated on a thread of its own (:func:`matops._split_over_cpus`).
:func:`matops._worker_count` is the rule: a CPU held by a
:func:`matops.write_csv_in_background` child is not free, and a log
below its size floor stays in the calling thread. Every interval is
integrated by products of its own, so the moments, and all that is
learned from them, have the same bits on any number of threads.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import NoSolutionError, RankDeficiencyError
# unvecs is not called here any more; perfbench counts the calls of adp.unvecs
from .matops import (_split_over_cpus, check_input_weight, check_weights, kron, lstsq,
                     numerical_rank, one_blas_thread, unvec, unvecs, vecs, vecv, vecv_map,
                     write_json)
# by name: perfbench times regulator.solve_regulator_exact for the oracle's call only
from .regulator import solve_regulator_exact
from .riccati import linear_balls, run_value_iteration
from .sysmodels import Exosystem, LinearPolicy, StateSpaceModel, simulate, whole_steps

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

    @cached_property
    def solve_op(self):
        """The least-squares operator ``lstsq(Theta, Dxx)``, solved on first use and kept.

        It maps vecs(P) to the regression's solution [vecs(H); vec(K);
        vec(M)] at P. One QR factor of the equilibrated Theta beside Dxx
        gives both the rank verdict and the operator, so :func:`check_rank`,
        value iteration and recovery share one factorisation. Raises
        :class:`RankDeficiencyError` as :func:`matops.lstsq` does; a failed
        solve is not kept.
        """
        return lstsq(self.Theta, self.Dxx)[0]


class RegressionSweep(Sequence):
    """The regressions of a whole offset sweep, held as interval moments of z = [x; v].

    ``sweep[j]`` is the :class:`RegressionBundle` of offset ``offsets[j]``,
    built on request from the moments; bundle 0 is built once, with the
    sweep. A slice gives a list of bundles. The sweep keeps the moments
    ``M_zz``, ``M_zu`` and ``M_zv`` of :func:`assemble_regression`, the
    state ``x_end`` and exostate ``v_end`` at the interval ends, and
    ``scale_u`` = 2 (I_n (*) R), all read-only, and ``dt``, the fine step
    the moments were integrated with by the trapezoidal rule (0 for
    exact integrals, which need no end correction); it does not keep
    the log.
    """

    def __init__(self, offsets, M_zz, M_zu, M_zv, x_end, v_end, scale_u, dt):
        self.offsets = tuple(offsets)
        self.M_zz, self.M_zu, self.M_zv = M_zz, M_zu, M_zv
        self.x_end, self.v_end, self.scale_u = x_end, v_end, scale_u
        for a in (M_zz, M_zu, M_zv, x_end, v_end, scale_u):
            a.flags.writeable = False
        self.dt = float(dt)
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
        """Bundle j from the moments: T_j = [I_n, -X_j] maps z to its shifted state."""
        X = self.offsets[j]
        T = np.hstack([np.eye(self.n), -X])
        vv = vecv(self.x_end - self.v_end @ X.T)
        # V(T_j)' C-ordered: a product's bits depend on its operands' layout
        Vt = np.ascontiguousarray(vecv_map(T).T)
        Ku, Kv = kron(T, np.eye(self.m)).T, kron(T, np.eye(self.q)).T
        cut_u, cut_v = Vt.shape[1], Vt.shape[1] + Ku.shape[1]
        # written in place: bundle 0 is built while assembly's temporaries are alive
        Theta = np.empty((len(self.M_zz), cut_v + Kv.shape[1]))
        np.matmul(self.M_zz, Vt, out=Theta[:, :cut_u])
        np.matmul(self.M_zu @ Ku, self.scale_u, out=Theta[:, cut_u:cut_v])
        np.multiply(self.M_zv @ Kv, 2.0, out=Theta[:, cut_v:])
        return RegressionBundle(j=j, Theta=Theta, Dxx=vv[1:] - vv[:-1],
                                n=self.n, m=self.m, q=self.q)


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
    """The model identified from data, and how well the data fit it.

    ``A_hat``, ``B_hat`` and ``D_hat`` are the identified plant matrices
    and ``E_hat`` the identified exosystem matrix; with the output
    equation's C and F they pose the regulator equations that
    :func:`solve_problem1_datadriven` solves. ``E_rank`` is the
    numerical rank of E_hat's normal system and ``E_required`` its size,
    q^2. ``A_residual`` and ``E_residual`` are the relative least-squares
    residuals of the two fits (Frobenius norms, residual over data).
    """

    D_hat: np.ndarray
    B_hat: np.ndarray
    A_hat: np.ndarray
    E_hat: np.ndarray
    E_rank: int
    E_required: int
    A_residual: float
    E_residual: float


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


#: Values of z = [x; v] that assembly copies and integrates at a time: a 512 KB
#: block stays in cache while the products read it. At 100k samples, blocks
#: cut the peak memory of assembly by 10 MB against one copy of the whole log,
#: and blocks of a quarter of this size were 65% slower.
ASSEMBLY_BLOCK_VALUES = 1 << 16


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

    The intervals are split into contiguous ranges, one per free CPU
    (:func:`matops._split_over_cpus`, by :func:`matops._worker_count`'s
    rule): a usable CPU that no live
    :func:`matops.write_csv_in_background` child holds. Below one range
    per :data:`matops.FORK_MIN_VALUES` values of samples x (n + m + q),
    the whole log is integrated in the calling thread. A range
    integrates its intervals a block at a time: it copies a block's rows
    of z into a buffer of its own, of at most
    :data:`ASSEMBLY_BLOCK_VALUES` values, runs the batched products on it
    and writes the block's rows of the moments. Ranges share no buffer
    but the moments, of which each writes its own rows. Every thread is
    joined before this returns or raises. An interval's products do not
    depend on the range or block that holds it, so the moments, bundle 0
    and all that is learned from them have the same bits on any number
    of threads.

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

    d = n + q
    ic, ie = np.triu_indices(d)
    # M_zz column-major, as numpy lays out the triu gather zz[:, ic, ie] that
    # fills it: a product's bits depend on its operands' layout
    M_zz = np.empty((n_int, len(ic)), order="F")
    M_zu, M_zv = np.empty((n_int, d * m)), np.empty((n_int, d * q))
    block = max(1, ASSEMBLY_BLOCK_VALUES // (steps * d))

    def integrate(span):
        """Write the moment rows of the intervals in ``span``, a block of intervals at a time."""
        z = np.empty((min(block, span.stop - span.start) * steps + 1, d))
        for first in range(span.start, span.stop, block):
            rows = slice(first, min(first + block, span.stop))
            count, lo = rows.stop - rows.start, rows.start * steps
            zb = z[: count * steps + 1]
            zb[:, :n], zb[:, n:] = x[lo : lo + len(zb)], v[lo : lo + len(zb)]
            # (intervals, d, steps) views: z at the left and right end of each fine step
            z_left = zb[:-1].reshape(count, steps, d).transpose(0, 2, 1)
            z_right = zb[1:].reshape(count, steps, d).transpose(0, 2, 1)
            u_held = u[lo : lo + count * steps].reshape(count, steps, m)
            z_end = zb[::steps]
            zz_end = z_end[:, :, None] * z_end[:, None, :]
            # per-interval integral of z z'; v is part of z, so z (*) v is its v columns
            zz = dt * (np.matmul(z_left, z_left.transpose(0, 2, 1))
                       + 0.5 * (zz_end[1:] - zz_end[:-1]))
            M_zz[rows] = zz[:, ic, ie]
            M_zv[rows].reshape(count, d, q)[...] = zz[:, :, n:]
            # held input: exact in u, trapezoidal in z
            zu = np.matmul(z_left, u_held, out=M_zu[rows].reshape(count, d, m))
            zu += np.matmul(z_right, u_held)
            zu *= 0.5 * dt

    _split_over_cpus(integrate, n_int, len(log) * (d + m))
    ends = slice(0, n_fine + 1, steps)  # copied below: the sweep does not keep the log
    return RegressionSweep(basis.sequence(), M_zz, M_zu, M_zv, x[ends].copy(), v[ends].copy(),
                           scale_u, dt)


@one_blas_thread()
def check_rank(bundle):
    """Rank of the column-equilibrated regression matrix vs the required count.

    Full column rank (n(n+1)/2 + (m+q)n, which is 87 for the docking
    scenario) makes the per-iteration regression uniquely solvable. The
    verdict is that of bundle 0's solve (:attr:`RegressionBundle.solve_op`):
    the QR factor of :func:`matops.lstsq` decides the rank, under the
    ``max(shape) * eps * sigma_max`` threshold on ``equilibrate(bundle.Theta)``,
    and the operator it solves is kept for value iteration and recovery.
    Returns (ok, rank, required); the rank is the required count when the
    solve succeeds and that of the :class:`RankDeficiencyError` when it
    does not. Never raises for a deficient bundle.
    """
    required = bundle.required_rank
    try:
        bundle.solve_op
    except RankDeficiencyError as exc:
        return False, exc.rank, required
    return True, required, required


@one_blas_thread()
def vi_learn(bundle_j0, Q, R, P0=None, eps=1e-3, ball_schedule=None, max_k=200000):
    """Value iteration driven purely by the j = 0 regression equation, finished by Newton.

    Each iterate solves Theta theta = Dxx vecs(P_k) by least squares;
    the H and K blocks of theta give the update
    P <- P + eps_k F(P), F(P) = H + Q - K'RK, with the steps
    eps_k = 1/k and the ball resets of the model-based iteration
    (:func:`riccati.run_value_iteration`); P0 defaults to the identity
    and ball radii to 10 (r + 1). The data matrices are fixed, so the
    least-squares operator is solved once (:attr:`RegressionBundle.solve_op`,
    which recovery reuses) and composed with the vecs and unvecs maps
    (:class:`DataRiccati`): an iteration is one matrix-vector product plus
    the K'RK term.

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
        solve_op = bundle_j0.solve_op
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


def _vecs_maps(n):
    """(to_vecs, from_vecs): vecs(P) == to_vecs @ P.ravel() for symmetric P, and
    unvecs(s).ravel() == from_vecs @ s.

    vecs coordinate i is p_ac, doubled off the diagonal, with (a, c) the
    i-th pair of ``numpy.triu_indices(n)``.
    """
    ns = n * (n + 1) // 2
    iu, ju = np.triu_indices(n)
    coords = np.arange(ns)
    to_vecs = np.zeros((ns, n * n))
    to_vecs[coords, iu * n + ju] = to_vecs[coords, ju * n + iu] = 1.0
    from_vecs = np.zeros((n * n, ns))
    from_vecs[iu * n + ju, coords] = from_vecs[ju * n + iu, coords] = np.where(iu == ju, 1.0, 0.5)
    return to_vecs, from_vecs


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
        # Every P reaching the residual is exactly symmetric (run_value_iteration
        # symmetrizes P0 and each iterate, and 0.5 (P + P') is exactly symmetric in
        # IEEE arithmetic; a Newton step adds a from_vecs image, whose every entry is
        # one product), so the symmetry check vecs would make can never fire.
        self._to_vecs, self._from_vecs = _vecs_maps(n)
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
    """Identify the plant (A_hat, B_hat, D_hat) and the exosystem E_hat from data.

    A_hat is the least-squares fit of the Lyapunov operator P -> A'P + PA
    to the H block of bundle 0's operator (:attr:`RegressionBundle.solve_op`,
    shared with :func:`vi_learn`). E_hat is fitted to the exostate moments
    of the :class:`RegressionSweep` ``sweep`` and refitted after the
    Euler-Maclaurin end correction (see the module docstring). At the
    converged P, the M block of bundle 0's solution is vec(D'P) since
    S(X_0) = 0, giving D_hat, and B_hat follows from inverting
    K = R^{-1}B'P, with R in any weight form of
    :func:`matops.check_weights`.

    Raises
    ------
    ValueError
        If ``sweep`` is not a RegressionSweep, or R is not a valid weight.
    NoSolutionError
        If P_final is singular.
    RankDeficiencyError
        If bundle 0's regression lacks full column rank, or the exostate
        moments do not identify E: the rank of E_hat's normal system,
        under :func:`matops.numerical_rank`'s rule, falls short of q^2.
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

    solve_op = sweep[0].solve_op
    A_hat, A_residual = _identify_plant(solve_op[:ns], n)
    E_hat, E_rank, E_residual = _identify_exosystem(sweep)
    # the M block is vec(D'P), so it reshapes to P D row by row
    D_hat = np.linalg.solve(P, (solve_op[ns + m * n :] @ vecs(P)).reshape(n, q))
    B_hat = np.linalg.solve(P, (R @ np.asarray(K_next_final, dtype=float)).T)
    return ModelRecovery(D_hat=D_hat, B_hat=B_hat, A_hat=A_hat, E_hat=E_hat,
                         E_rank=E_rank, E_required=q * q,
                         A_residual=A_residual, E_residual=E_residual)


def _relative(residual, data):
    return float(np.linalg.norm(residual) / (np.linalg.norm(data) or 1.0))


@cache
def _lyapunov_design(n):
    """(L, pinv(L)) for n: L maps vec(A), row by row, to the operator P -> A'P + PA.

    The operator is taken as its n(n+1)/2 x n(n+1)/2 matrix on the vecs
    coordinates, flattened row by row: the layout of the H block of
    :attr:`RegressionBundle.solve_op`. Both arrays are read-only.
    """
    to_vecs, from_vecs = _vecs_maps(n)
    ns = len(to_vecs)
    units = np.eye(n * n).reshape(n * n, 1, n, n)  # A = e_a e_b', (a, b) row by row
    coords = from_vecs.T.reshape(ns, n, n)  # P = unvecs(e_i)
    images = (units.transpose(0, 1, 3, 2) @ coords + coords @ units).reshape(n * n, ns, n * n)
    design = (images @ to_vecs.T).transpose(2, 1, 0).reshape(ns * ns, n * n)
    pinv = np.linalg.pinv(design)
    design.flags.writeable = pinv.flags.writeable = False
    return design, pinv


def _identify_plant(dH, n):
    """(A_hat, relative residual): the least-squares fit of P -> A'P + PA to ``dH``."""
    design, pinv = _lyapunov_design(n)
    a = pinv @ dH.ravel()
    return a.reshape(n, n), _relative(design @ a - dH.ravel(), dH)


def _identify_exosystem(sweep):
    """(E_hat, rank, relative residual) from the exostate moments of ``sweep``.

    Interval l gives Delta_l = E M_vv,l + M_vv,l E'. Q in the thin QR
    [M_vv | Delta] = Q [S | D] has orthonormal columns, so the rows of
    the factor, read as symmetric matrices S_k and D_k, pose the same
    least-squares problem in at most q(q+1) rows. The end correction of
    M_vv is linear in the Delta columns, so it acts on the same factor.
    """
    n, q = sweep.n, sweep.q
    rows, _ = np.triu_indices(n + q)
    iu, ju = np.triu_indices(q)
    # the vv' columns of M_zz, in vecv(v) order, and the changes of vecv(v)
    factor = np.linalg.qr(np.hstack([sweep.M_zz[:, rows >= n],
                                     np.diff(vecv(sweep.v_end), axis=0)]), mode="r")
    S, D = np.empty((2, len(factor), q, q))
    for out, half in zip((S, D), np.hsplit(factor, 2)):
        out[:, iu, ju] = out[:, ju, iu] = half
    E, _ = _fit_exosystem(S, D)
    # the trapezoidal integral of v v' minus the Euler-Maclaurin end term
    S = S - sweep.dt ** 2 / 12.0 * (E @ D + D @ E.T)
    E, rank = _fit_exosystem(S, D)
    return E, rank, _relative(D - E @ S - S @ E.T, D)


def _fit_exosystem(S, D):
    """(E, rank) minimizing sum_k |D_k - E S_k - S_k E'|_F^2 over the stacks S and D.

    Its normal equations E G + sum_k S_k E' S_k = sum_k D_k S_k, with
    G = sum_k S_k S_k, are q^2 equations in E row by row. Their rank is
    :func:`matops.numerical_rank`'s.

    Raises RankDeficiencyError if it falls short of q^2.
    """
    k, q, _ = S.shape
    flat = S.reshape(k, q * q)
    # sum_k S_k E' S_k: entry (a, b) takes E[d, c] times sum_k S_k[a, c] S_k[d, b]
    cross = (flat.T @ flat).reshape(q, q, q, q).transpose(0, 3, 2, 1).reshape(q * q, q * q)
    normal = np.kron(np.eye(q), (S @ S).sum(axis=0)) + cross
    rank = numerical_rank(normal)
    if rank < q * q:
        raise RankDeficiencyError(
            f"exostate moments identify E to rank {rank} < {q * q}; "
            "the exostate does not excite every mode of the exosystem",
            rank=rank, required=q * q)
    return np.linalg.solve(normal, (D @ S).sum(axis=0).ravel()).reshape(q, q), rank


@one_blas_thread()
def solve_problem1_datadriven(recovery, basis, Qbar=None, Rbar=None):
    """Trace-optimal regulator pair (X, U) of the model identified from data.

    The regulator equations X E_hat = A_hat X + B_hat U + D_hat and
    0 = C X + F, with the C and F that ``basis`` parametrizes, are solved
    by :func:`regulator.solve_regulator_exact` to a relative residual of
    1e-6; any remaining freedom minimizes Tr(X'QbarX + U'RbarU).

    Raises
    ------
    RankDeficiencyError
        If B_hat is column-rank deficient (input directions missing).
    NoSolutionError
        If the identified model admits no regulator solution.
    """
    B_hat = recovery.B_hat
    if (rank := numerical_rank(B_hat)) < B_hat.shape[1]:
        raise RankDeficiencyError(
            "B_hat is rank deficient; the input does not excite all directions",
            rank=rank, required=B_hat.shape[1],
        )
    identified = StateSpaceModel(A=recovery.A_hat, B=B_hat, C=basis.C, D=recovery.D_hat,
                                 F=basis.F)
    exo = Exosystem(E=recovery.E_hat, v0=np.zeros(len(recovery.E_hat)))
    return solve_regulator_exact(identified, exo, Qbar, Rbar, rtol=1e-6)


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
