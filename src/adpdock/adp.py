"""Data-driven learning of the optimal regulator from trajectory data.

Nothing in this module multiplies by A, B, or D. One off-policy
trajectory is collected under an arbitrary (not necessarily stabilizing)
gain plus exploration noise; the log is integrated over regression
intervals into the j = 0 regression equation

    Dxx vecs(P) = Theta [vecs(H); vec(K); vec(M)],

and value iteration runs entirely on it. Its blocks recover
H = A'P + PA, the improved gain K = R^{-1}B'P, and M = D'P. Newton
steps on the same equation finish the iteration. After convergence the
plant and the exosystem are identified from the first moments of the
same log (see below): A_hat, B_hat, D_hat and E_hat. The trace-optimal
regulator pair is then the exact solve of the identified model's
regulator equations (:func:`regulator.solve_regulator_exact`), from
data alone.

Derivation of the regression equation: along dx/dt = A x + B u + D v,

    d/dt x'P x = x'H x + 2 u'R K x + 2 v'M x,

and integrating over [t_{l-1}, t_l] gives one row per interval with the
Kronecker identities a'Wb = (b (*) a)' vec(W) and vec(RK) =
(I_n (*) R) vec(K), where (*) is the Kronecker product. The paper
writes the same identity for the shifted state x - X_j v at each offset
X_j of a kernel basis; the shift changes M to (D - S(X_j))'P with the
Sylvester map S(X) = X E - A X, and X_0 = 0 gives the equation above.
Only that one is built: recovery identifies the model instead of
solving a regression per offset.

The regression's least-squares operator, vecs(P) -> [vecs(H); vec(K);
vec(M)], is solved on one thin QR factor of the equilibrated Theta
beside Dxx (:func:`matops.lstsq`) and shared by the rank check and value
iteration (:attr:`RegressionBundle.solve_op`): the factor that gives the
operator also gives the rank verdict.

Recovery identifies the model by the integral-equation route of
continuous-time identification (Garnier & Wang, eds., *Identification
of Continuous-time Models from Sampled Data*, Springer 2008). Over
interval l the flow integrates to

    Delta v_l = E int v,    Delta x_l = A int x + B int u + D int v,

regressions of q and n + m + q columns in the first moments that
assembly keeps. The held input makes int u exact. The trapezoidal int x
and int v exceed the exact integrals by the Euler-Maclaurin end term
dt^2/12 times the jump of the integrand's derivative over the interval:
dt^2/12 E Delta v_l for v, and dt^2/12 (A Delta x_l + D Delta v_l) for x,
because the held input is constant on every fine step and drops out of
the jump. That term is linear in the model, so each regression is
fitted, corrected with its own fit and refitted.

Assembly, the rank check, value iteration, recovery and the regulator
solve run on one OpenBLAS thread (:func:`matops.one_blas_thread`):
their matrices are at most a few thousand by a hundred, where a second
BLAS thread costs more in wake-ups than it saves. Assembly instead
splits the intervals into contiguous ranges, one per usable CPU, each
integrated on a thread of its own (:func:`matops._split_over_cpus`);
a log below its size floor stays in the calling thread. Every interval
is integrated by products of its own, so Theta, Dxx and the first
moments, and all that is learned from them, have the same bits on any
number of threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import RankDeficiencyError
# vecs and unvecs are not called here any more; perfbench counts the calls of adp.vecs
# and adp.unvecs
from .matops import (_split_over_cpus, check_input_weight, check_weights, kron, lstsq,
                     numerical_rank, one_blas_thread, unvec, unvecs, vecs, vecv, write_json)
# by name: perfbench times regulator.solve_regulator_exact for the oracle's call only
from .regulator import feedforward_gain, solve_regulator_exact
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
    "learn_controller",
    "save_gains",
    "load_gains",
]


@dataclass
class RegressionBundle:
    """The regression Dxx vecs(P) = Theta [vecs(H); vec(K); vec(M)] of one log.

    Rows are collection intervals. ``Dxx`` holds the vecv differences of
    the state at interval endpoints, n(n+1)/2 columns. ``Theta`` is
    [Ixx | 2 Gxu (I_n (*) R) | 2 Gxv], n(n+1)/2 + (m+q)n columns: Ixx
    holds the integrated vecv of the state, and Gxu and Gxv its
    integrated Kronecker products with the input and the exostate.
    ``n``, ``m`` and ``q`` are the state, input and exostate dimensions
    the matrices were built for.
    """

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
        gives both the rank verdict and the operator, so :func:`check_rank`
        and value iteration share one factorisation. Raises
        :class:`RankDeficiencyError` as :func:`matops.lstsq` does; a failed
        solve is not kept.
        """
        return lstsq(self.Theta, self.Dxx)[0]


class RegressionSweep:
    """What assembly keeps of a log: its regression and its first moments.

    ``sweep[0]`` is the :class:`RegressionBundle` of the log, and
    ``len(sweep)`` is 1; any other index raises IndexError. Per interval,
    ``M_z`` holds the trapezoidal integral of z = [x; v] and ``M_u`` the
    exact integral of the held input, and ``z_end`` holds z at the
    interval ends: the data of the model fit. ``dt`` is the fine step the
    moments were integrated with (0 for exact integrals, which need no
    end correction). The arrays are read-only, and the log is not kept.
    """

    def __init__(self, bundle, M_z, M_u, z_end, dt):
        self.bundle, self.M_z, self.M_u, self.z_end = bundle, M_z, M_u, z_end
        for a in (bundle.Theta, bundle.Dxx, M_z, M_u, z_end):
            a.flags.writeable = False
        self.dt = float(dt)
        self.n, self.m, self.q = bundle.n, bundle.m, bundle.q

    def __len__(self):
        return 1

    def __getitem__(self, j):
        if j != 0:
            raise IndexError(f"a sweep holds bundle 0 only, not {j!r}")
        return self.bundle


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
    numerical rank of the integrals of v that E_hat is fitted to and
    ``E_required`` their column count, q. ``A_residual`` and
    ``E_residual`` are the relative least-squares residuals of the plant
    and the exosystem fits (Frobenius norms, residual over data).
    ``gain_consistency`` is |K - R^{-1} B_hat' P|max for the learned P
    and K: a model-free read of how far the learned gain is from B_hat.
    """

    D_hat: np.ndarray
    B_hat: np.ndarray
    A_hat: np.ndarray
    E_hat: np.ndarray
    E_rank: int
    E_required: int
    A_residual: float
    E_residual: float
    gain_consistency: float


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
    """Integrate the log into its regression and its first moments.

    Within each interval the integrals use trapezoidal quadrature on the
    fine grid, except that the input factor of the x (*) u columns is
    taken as the held (zero-order) value on each fine step, matching how
    the input was actually applied; the x factor is still averaged.
    Endpoint vecv differences form Dxx exactly. ``basis`` is the
    :class:`regulator.KernelBasis` of the plant; its C must have n
    columns and its F q columns, one row per row of C.

    The products are those of z = [x; v; 1]: per interval, the
    trapezoidal integral of z z' and the held-input integral of z u'.
    Their x x' triangle is Ixx, their x u' block scaled once by
    2 (I_n (*) R) is the input block of Theta, and 2 x v' is its
    exostate block. The constant entry of z gives the first moments: the
    last column of z z' is the trapezoidal integral of [x; v]
    (``M_z``), and the last row of z u' the exact integral of the held
    input, dt times the sum of its values (``M_u``). Interval sums are batched products over
    (intervals, steps, columns) views of the log: the sum of f over the
    left samples of the fine steps, plus half of f at the interval's end
    minus half at its start, is the trapezoidal sum.

    R takes every weight form of :func:`matops.check_weights`.

    The intervals are split into contiguous ranges, one per usable CPU
    (:func:`matops._split_over_cpus`). Below one range per
    :data:`matops.THREAD_MIN_VALUES` values of samples x (n + m + q), the
    whole log is integrated in the calling thread. A range
    integrates its intervals a block at a time: it copies a block's rows
    of z into a buffer of its own, of at most
    :data:`ASSEMBLY_BLOCK_VALUES` values, runs the batched products on it
    and writes the block's rows of Theta, M_z and M_u. Ranges share no
    buffer but those, of which each writes its own rows. Every thread is
    joined before this returns or raises; Dxx and the ends of z are
    then taken from the log. An interval's products do not depend on the
    range or block that holds it, so Theta, Dxx and the first moments,
    and all that is learned from them, have the same bits on any number
    of threads.

    Returns the :class:`RegressionSweep` of the log.
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
    if basis.C.shape[1] != n or basis.F.shape != (len(basis.C), q):
        raise ValueError(f"basis C {basis.C.shape} and F {basis.F.shape} do not match log dims "
                         f"n = {n}, q = {q}")

    d = n + q
    ix, jx = np.triu_indices(n)
    cut_u, cut_v = len(ix), len(ix) + n * m
    Theta = np.empty((n_int, cut_v + n * q))
    M_z = np.empty((n_int, d))
    G_xu = np.empty((n_int, n * m))  # scaled into Theta once every range is done
    M_u = np.empty((n_int, m))
    block = max(1, ASSEMBLY_BLOCK_VALUES // (steps * (d + 1)))

    def integrate(span):
        """Write the rows of the intervals in ``span``, a block of intervals at a time."""
        most = min(block, span.stop - span.start)
        z, zu_buffer = np.empty((most * steps + 1, d + 1)), np.empty((most, d + 1, m))
        z[:, d] = 1.0  # the constant column: z z' and z u' carry the first moments
        for first in range(span.start, span.stop, block):
            rows = slice(first, min(first + block, span.stop))
            count, lo = rows.stop - rows.start, rows.start * steps
            zb = z[: count * steps + 1]
            zb[:, :n], zb[:, n:d] = x[lo : lo + len(zb)], v[lo : lo + len(zb)]
            # (intervals, d + 1, steps) views: z at the left and right end of each fine step
            z_left = zb[:-1].reshape(count, steps, d + 1).transpose(0, 2, 1)
            z_right = zb[1:].reshape(count, steps, d + 1).transpose(0, 2, 1)
            u_held = u[lo : lo + count * steps].reshape(count, steps, m)
            z_end = zb[::steps]
            zz_end = z_end[:, :, None] * z_end[:, None, :]
            # per-interval integral of z z'
            zz = dt * (np.matmul(z_left, z_left.transpose(0, 2, 1))
                       + 0.5 * (zz_end[1:] - zz_end[:-1]))
            # its x x' triangle and 2 x v' into Theta, its constant column (the
            # integral of x and v) into M_z
            Theta[rows, :cut_u] = zz[:, ix, jx]
            np.multiply(zz[:, :n, n:d], 2.0, out=Theta[rows, cut_v:].reshape(count, n, q))
            M_z[rows] = zz[:, :d, d]
            # held input: exact in u, trapezoidal in z; the constant row is dt sum_k u_k
            zu = np.matmul(z_left, u_held, out=zu_buffer[:count])
            zu += np.matmul(z_right, u_held)
            zu *= 0.5 * dt
            G_xu[rows].reshape(count, n, m)[...] = zu[:, :n]
            M_u[rows] = zu[:, d]

    _split_over_cpus(integrate, n_int, len(log) * (d + m))
    np.matmul(G_xu, 2.0 * kron(np.eye(n), R), out=Theta[:, cut_u:cut_v])
    ends = slice(0, n_fine + 1, steps)
    vv = vecv(x[ends])
    bundle = RegressionBundle(Theta=Theta, Dxx=vv[1:] - vv[:-1], n=n, m=m, q=q)
    # copied: the sweep does not keep the log
    return RegressionSweep(bundle, M_z, M_u, np.hstack([x[ends], v[ends]]), dt)


@one_blas_thread()
def check_rank(bundle):
    """Rank of the column-equilibrated regression matrix vs the required count.

    Full column rank (n(n+1)/2 + (m+q)n, which is 87 for the docking
    scenario) makes the per-iteration regression uniquely solvable. The
    verdict is that of bundle 0's solve (:attr:`RegressionBundle.solve_op`):
    the QR factor of :func:`matops.lstsq` decides the rank, under the
    ``max(shape) * eps * sigma_max`` threshold on ``equilibrate(bundle.Theta)``,
    and the operator it solves is kept for value iteration.
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
    which :func:`check_rank` shares) and composed with the vecs and unvecs maps
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

    Over interval l the flow integrates to Delta v_l = E int v and
    Delta x_l = A int x + B int u + D int v, two regressions in the first
    moments of the :class:`RegressionSweep` ``sweep``. Each is fitted,
    its trapezoidal integral is corrected by the fit's Euler-Maclaurin
    end term, and it is refitted (see the module docstring): four
    :func:`matops.lstsq` solves under its one rank rule. E_hat comes
    first, so the plant fit reads the corrected int v. The learned P and
    K do not enter the model; ``gain_consistency`` is
    |K - R^{-1} B_hat' P|max, how far K is from the gain that B_hat and
    P give. R takes every weight form of :func:`matops.check_weights`.

    Raises
    ------
    ValueError
        If ``sweep`` is not a RegressionSweep, P_final is not n x n or
        K_next_final not m x n for the bundle's (n, m), or R is not a
        valid weight.
    RankDeficiencyError
        If the first moments do not identify the model: the integrals of
        v have rank below q (the exostate does not excite every mode of
        the exosystem), or those of [x; u; v] rank below n + m + q.
    """
    if not isinstance(sweep, RegressionSweep):
        raise ValueError("recovery needs the RegressionSweep of assemble_regression, "
                         f"got {type(sweep).__name__}")
    n, m, q = sweep.n, sweep.m, sweep.q
    P, K = np.asarray(P_final, dtype=float), np.asarray(K_next_final, dtype=float)
    for name, value, shape in (("P_final", P, (n, n)), ("K_next_final", K, (m, n))):
        if value.shape != shape:
            raise ValueError(f"{name} must be {shape[0]}x{shape[1]} for the bundle's "
                             f"(n, m) = ({n}, {m}), got shape {value.shape}")
    R = check_input_weight(R, m)

    # a trapezoidal integral exceeds the exact one by dt^2/12 times the jump of
    # the integrand's derivative across the interval; the held input drops out
    end_term = sweep.dt ** 2 / 12.0
    dx, dv = np.hsplit(np.diff(sweep.z_end, axis=0), [n])
    int_x, int_v = np.hsplit(sweep.M_z, [n])
    exosystem = "the exostate does not excite every mode of the exosystem"
    E_t = _fit(int_v, dv, exosystem)[0]
    int_v = int_v - end_term * (dv @ E_t)
    E_t, E_residual = _fit(int_v, dv, exosystem)
    plant = "the log does not excite every direction of the plant"
    moments = np.hstack([int_x, sweep.M_u, int_v])
    theta = _fit(moments, dx, plant)[0]
    moments[:, :n] -= end_term * (dx @ theta[:n] + dv @ theta[n + m :])
    theta, A_residual = _fit(moments, dx, plant)
    A_hat, B_hat, D_hat = (block.T for block in np.split(theta, [n, n + m]))
    gain_consistency = float(np.abs(K - np.linalg.solve(R, B_hat.T @ P)).max())
    return ModelRecovery(D_hat=D_hat, B_hat=B_hat, A_hat=A_hat, E_hat=E_t.T,
                         E_rank=q, E_required=q, A_residual=A_residual,
                         E_residual=E_residual, gain_consistency=gain_consistency)


def _fit(moments, change, remedy):
    """(solution, relative residual) of ``lstsq(moments, change)``.

    Raises RankDeficiencyError naming ``remedy`` if ``moments`` fails
    :func:`matops.lstsq`'s rank rule.
    """
    try:
        solution, residual = lstsq(moments, change)
    except RankDeficiencyError as exc:
        raise RankDeficiencyError(
            f"first moments have rank {exc.rank} < {exc.required}; {remedy}",
            rank=exc.rank, required=exc.required) from None
    return solution, residual / (np.linalg.norm(change) or 1.0)


@one_blas_thread()
def solve_problem1_datadriven(recovery, basis, Qbar=None, Rbar=None):
    """Trace-optimal regulator pair (X, U) of the model identified from data.

    The regulator equations X E_hat = A_hat X + B_hat U + D_hat and
    0 = C X + F, with ``basis``'s C and F, are solved by
    :func:`regulator.solve_regulator_exact` to a relative residual of
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


def _call(name, fn, *args):
    """The default ``stage`` of :func:`learn_controller`: ``fn(*args)``, nothing more."""
    return fn(*args)


def learn_controller(sweep, basis, config, stage=_call):
    """The data-to-controller chain: value iteration, recovery, regulator, feedforward.

    ``sweep`` is the :class:`RegressionSweep` of :func:`assemble_regression`
    and ``basis`` the :class:`regulator.KernelBasis` it was assembled
    with. ``config`` is anything with the attributes Q, R, Qbar, Rbar,
    eps, p0_scale, ball_base and max_k, such as
    :class:`dockcli.ExperimentConfig`: :func:`vi_learn` starts from
    P0 = p0_scale I and resets to the radii of
    :func:`riccati.linear_balls` (ball_base), and the regulator solve
    weighs its trace cost with Qbar and Rbar. The feedforward gain is
    L = U + K X (:func:`regulator.feedforward_gain`).

    Each step runs as ``stage(name, fn, *args)``, under the names
    'learn' (:func:`vi_learn`), 'recover' (:func:`recover_model_artifacts`)
    and 'regulator' (:func:`solve_problem1_datadriven`); the default calls
    ``fn(*args)``. The steps are looked up at call time, so a wrapper set
    on this module's attribute is the one that runs.

    Returns (:class:`LearnedController`, :class:`riccati.ViHistory`,
    :class:`ModelRecovery`, :class:`regulator.RegulatorSolution`). The
    controller's rank is the required one: :func:`vi_learn` raises on a
    data matrix that falls short of it. Raises what the steps raise.
    """
    bundle = sweep[0]
    P, K, history = stage("learn", vi_learn, bundle, config.Q, config.R,
                          config.p0_scale * np.eye(bundle.n), config.eps,
                          linear_balls(config.ball_base), config.max_k)
    recovery = stage("recover", recover_model_artifacts, sweep, P, K, config.R)
    solution = stage("regulator", solve_problem1_datadriven, recovery, basis,
                     config.Qbar, config.Rbar)
    controller = LearnedController(
        K=K, L=feedforward_gain(solution, K), P=P, iterations=history.iterations,
        newton_steps=history.newton_steps, vi_stop_gap=history.vi_stop_gap,
        resets=history.resets, rank=bundle.required_rank, rank_required=bundle.required_rank)
    return controller, history, recovery, solution


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
