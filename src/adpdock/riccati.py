"""Model-based LQR solvers: Kleinman policy iteration and value iteration.

Both target the continuous-time algebraic Riccati equation

    A'P + PA + Q - P B R^{-1} B' P = 0,

whose stabilizing solution P* gives the optimal feedback K* = R^{-1}B'P*.
Policy iteration needs a stabilizing initial gain and converges
quadratically; value iteration needs no such gain and instead follows
the Riccati residual with diminishing steps eps_k = 1/k, resetting to P0
whenever the iterate escapes a growing sequence of Frobenius-norm balls.
The value-iteration driver is shared with the data-driven learner, which
supplies the residual from trajectory data instead of (A, B), together
with a Newton step on it that finishes the iteration.

The Lyapunov and CARE solves use numpy alone: the Lyapunov equation is
one Kronecker-form linear system, and the CARE's stabilizing solution is
seeded from the stable invariant subspace of its Hamiltonian. Neither
this module nor any other of the package imports scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .matops import check_weights, is_hurwitz, numerical_rank, write_csv

__all__ = [
    "ViHistory",
    "linear_balls",
    "lyapunov_solve",
    "kleinman_pi",
    "kleinman_from_care",
    "model_based_vi",
    "run_value_iteration",
    "are_residual",
]

_LYAP_RTOL = 1e-9
# kleinman_pi stops once |P_k - P_{k-1}| < _PI_TOL (1 + |P_k|), within _PI_MAX_ITER
# iterations: relative, because the rounding of a Lyapunov solve grows with |P|
_PI_TOL = 1e-10
_PI_MAX_ITER = 100
# a Newton try of run_value_iteration stops after this many steps even while
# the residual still falls; from a point that converges it needs a handful
_NEWTON_MAX_STEPS = 20


@dataclass
class ViHistory:
    """The per-iteration record of a value-iteration run, as convergence.csv holds it.

    Iteration k = 1, ..., N steps by eps_k = 1/k. ``increment`` holds the
    Frobenius norm of the step eps_k delta_k computed at iteration k
    (taken unless the iterate stops or resets there) and ``reset_count``
    the ball resets before iteration k; ``resets`` is the count at the
    end. ``newton_steps`` counts the Newton steps of the finisher try
    that ended the run at iteration N, and is 0 when value iteration's
    own stop test fired or the run did not converge. ``vi_stop_gap`` is
    max|aux(P_vi) - aux(P_d)| between the residual's payloads at the
    value iterate P_vi that try started from and at the Newton point P_d
    it returned (for the data-driven learner, |K(P_vi) - K_d|max), and
    0.0 whenever ``newton_steps`` is. ``iterations``, ``k`` and ``eps``
    follow from the length of ``increment``.
    """

    increment: np.ndarray
    reset_count: np.ndarray
    converged: bool
    resets: int
    newton_steps: int
    vi_stop_gap: float

    @property
    def iterations(self):
        return len(self.increment)

    @property
    def k(self):
        return np.arange(1, self.iterations + 1)

    @property
    def eps(self):
        return 1.0 / self.k

    def to_csv(self, path):
        """Write one `k,eps_k,frob_P_increment,reset_count` row per iteration."""
        data = np.column_stack([self.k, self.eps, self.increment, self.reset_count])
        write_csv(path, data, "k,eps_k,frob_P_increment,reset_count")


def linear_balls(base=10.0):
    """Radius rule B_r = base (r + 1): strictly increasing in the reset count."""
    if base <= 0:
        raise ValueError("base radius must be positive")
    return lambda r: base * (r + 1.0)


def _symmetrize(P):
    return 0.5 * (P + P.T)


def _sqrt_psd(Q):
    w, V = np.linalg.eigh(Q)
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T


def lyapunov_solve(a_cl, m):
    """Solve a_cl' P + P a_cl + m = 0 for symmetric P, a_cl Hurwitz.

    One linear system in the row-major vec(P), with the n^2 x n^2 matrix
    kron(a_cl', I) + kron(I, a_cl') (36 x 36 on the docking plant),
    solved by LU and symmetrized. That costs O(n^6), trivial for the
    n <= 10 plants this package solves; the residual is checked
    afterwards. The system's condition grows with |P|: where |P| is
    about 1e6 or more, rounding moves the solution by 1e-9 to 1e-5
    relative, which the residual check accepts but which limits
    :func:`kleinman_pi`'s stop test.
    """
    a_cl = np.asarray(a_cl, dtype=float)
    m = np.asarray(m, dtype=float)
    n = a_cl.shape[0]
    if a_cl.shape != (n, n) or m.shape != (n, n):
        raise ValueError("a_cl and m must be square with matching size")
    if not np.allclose(m, m.T):
        raise ValueError("m must be symmetric")
    if not is_hurwitz(a_cl):
        raise ValueError("a_cl must be Hurwitz for a unique definite solution")
    eye = np.eye(n)
    system = np.kron(a_cl.T, eye) + np.kron(eye, a_cl.T)
    P = _symmetrize(np.linalg.solve(system, -m.reshape(-1)).reshape(n, n))
    residual = np.linalg.norm(a_cl.T @ P + P @ a_cl + m)
    if residual > _LYAP_RTOL * (1.0 + np.linalg.norm(m)):
        raise ValueError(f"Lyapunov solve failed: residual {residual:.3e}")
    return P


def are_residual(model, Q, R, P):
    """Frobenius norm of A'P + PA + Q - P B R^{-1} B' P.

    Q and R take every weight form of :func:`matops.check_weights`.
    """
    P = np.asarray(P, dtype=float)
    A, B = model.A, model.B
    Q, R = check_weights(Q, R, model.n, model.m)
    gain = np.linalg.solve(R, B.T @ P)
    return float(np.linalg.norm(A.T @ P + P @ A + Q - P @ B @ gain))


def kleinman_pi(model, Q, R, K0):
    """Policy iteration for the ARE from a stabilizing initial gain.

    Alternates policy evaluation (a Lyapunov solve under the closed loop
    A - B K) with policy improvement K = R^{-1} B' P. Iterates are
    monotonically nonincreasing and every closed loop stays Hurwitz.

    Returns (P, K, iterates) where iterates is the list of (P_k, K_k)
    pairs including the final one.

    Raises
    ------
    ValueError
        If K0 does not stabilize A - B K0 or (A, sqrt(Q)) is not
        observable (the evaluation equation would be degenerate).
    ConvergenceError
        If 100 iterations pass without |P_k - P_{k-1}| < 1e-10 (1 + |P_k|).

    The stop test compares successive :func:`lyapunov_solve` results, so
    rounding limits it, not the iteration: on ill-conditioned plants
    (|P*| from about 1e6; in random surveys single-input plants with
    n = 4 to 6, a few in a thousand) successive solves keep differing by
    1e-9 to 1e-5 relative and ConvergenceError is raised, although every
    iterate's ARE residual is at rounding level (1e-10 relative or less).
    """
    A, B = model.A, model.B
    n = model.n
    Q, R = check_weights(Q, R, n, model.m)
    K = np.asarray(K0, dtype=float)
    if K.shape != (model.m, n):
        raise ValueError(f"K0 must be {model.m}x{n}")
    if not is_hurwitz(A - B @ K):
        raise ValueError("K0 must be stabilizing (A - B K0 Hurwitz)")
    sqrt_q = _sqrt_psd(Q)
    for lam in np.linalg.eigvals(A):
        pencil = np.vstack([A - lam * np.eye(n), sqrt_q])
        if numerical_rank(pencil) < n:
            raise ValueError("(A, sqrt(Q)) must be observable")

    iterates = []
    P_prev = None
    for _ in range(_PI_MAX_ITER):
        P = lyapunov_solve(A - B @ K, Q + K.T @ R @ K)
        K = np.linalg.solve(R, B.T @ P)
        iterates.append((P, K))
        if P_prev is not None and \
                np.linalg.norm(P - P_prev) < _PI_TOL * (1.0 + np.linalg.norm(P)):
            return P, K, iterates
        P_prev = P
    raise ConvergenceError(
        f"policy iteration did not converge in {_PI_MAX_ITER} iterations",
        iterations=_PI_MAX_ITER,
    )


def kleinman_from_care(model, Q, R):
    """Kleinman policy iteration seeded with the eigenvector solution of the ARE.

    The seed is Potter's (SIAM J. Appl. Math. 1966): the n eigenvectors
    [U1; U2] of the Hamiltonian H = [[A, -B R^{-1} B'], [-Q, -A']] whose
    eigenvalues have negative real part span the graph of the stabilizing
    P, so P0 = Re(U2 U1^{-1}), symmetrized. Its gain K0 = R^{-1} B' P0
    starts :func:`kleinman_pi` (Kleinman, IEEE TAC 1968), which polishes
    it to its tolerance and rejects a K0 that does not stabilize. Returns
    :func:`kleinman_pi`'s (P, K, iterates).

    Raises ValueError, naming the count, if H does not have exactly n
    stable eigenvalues: a mode on the imaginary axis is not stabilizable
    or not detectable. Any other mode that is not leaves U1 singular,
    which raises ValueError as well, or a seed that does not stabilize,
    which :func:`kleinman_pi` rejects; so does an on-axis pair that
    rounding moved off the axis.
    """
    A, B, n = model.A, model.B, model.n
    Q, R = check_weights(Q, R, n, model.m)
    hamiltonian = np.block([[A, -B @ np.linalg.solve(R, B.T)], [-Q, -A.T]])
    w, V = np.linalg.eig(hamiltonian)
    stable = V[:, w.real < 0]
    if stable.shape[1] != n:
        raise ValueError(f"the Hamiltonian has {stable.shape[1]} stable eigenvalues, "
                         f"not {n}: (A, B) must be stabilizable and (A, sqrt(Q)) detectable")
    try:  # P0 U1 = U2, solved as U1' P0' = U2'
        P0 = _symmetrize(np.linalg.solve(stable[:n].T, stable[n:].T).T.real)
    except np.linalg.LinAlgError:
        raise ValueError("the stable eigenvectors of the Hamiltonian have a singular upper "
                         "half: (A, B) must be stabilizable and (A, sqrt(Q)) detectable") from None
    K0 = np.linalg.solve(R, B.T @ P0)
    return kleinman_pi(model, Q, R, K0)


def _newton_finish(residual_fn, newton_step, P, delta, aux, stop_eps):
    """Newton steps from (P, delta, aux) while |delta| falls, at most _NEWTON_MAX_STEPS.

    Returns (P, aux, steps) at the last point if its |delta| < stop_eps
    and P passes a Cholesky factorization, else None.
    """
    norm = float(np.linalg.norm(delta))
    steps = 0
    while steps < _NEWTON_MAX_STEPS:
        try:
            P_next = newton_step(P, delta, aux)
        except np.linalg.LinAlgError:  # singular Jacobian
            break
        delta_next, aux_next = residual_fn(P_next)
        norm_next = float(np.linalg.norm(delta_next))
        if not norm_next < norm:
            break
        P, delta, aux, norm = P_next, delta_next, aux_next, norm_next
        steps += 1
    if not norm < stop_eps:
        return None
    try:
        np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        return None
    return P, aux, steps


def run_value_iteration(residual_fn, P0, stop_eps, ball_schedule, max_k, newton_step=None):
    """Value iteration with steps eps_k = 1/k, ball resets and a Newton finisher.

    ``residual_fn(P) -> (delta, aux)`` supplies the symmetric residual
    matrix driving the update P <- P + eps_k delta with eps_k = 1/k, plus
    any auxiliary payload (the data-driven learner returns its current
    gain there). The steps are positive, vanishing and sum to infinity,
    the rule of Bian & Jiang (Automatica 2016). When the candidate
    leaves the ball of radius ball_schedule(r) the iterate resets to P0
    and r increments. The run stops at the first k >= 2 with
    |delta| < stop_eps, i.e. when the previous accepted step scaled
    back by its eps falls below the tolerance.

    ``newton_step(P, delta, aux)``, when given, returns the Newton
    iterate of the map delta(P) (Kleinman, IEEE TAC 1968). At
    k = 2, 4, 8, ..., before the stop test, it is tried from the
    current iterate: it steps while |delta| falls, for at most
    _NEWTON_MAX_STEPS steps, and stops the run at the last point if that
    point has |delta| < stop_eps, the stop rule of value iteration, and
    is positive definite (a Cholesky factorization succeeds). The
    stabilizing solution of a Riccati equation of a stabilizable,
    detectable plant is its only positive semidefinite one, so the test
    rejects the other roots Newton can land on. A rejected try leaves
    the iteration as it was.

    Returns (P, aux, history) at the stopping point.
    """
    P0 = _symmetrize(np.asarray(P0, dtype=float))
    if np.min(np.linalg.eigvalsh(P0)) <= 0:
        raise ValueError("P0 must be symmetric positive definite")
    if stop_eps <= 0:
        raise ValueError("stop tolerance must be positive")
    if max_k < 1:
        raise ValueError("max_k must be at least 1")

    P = P0.copy()
    r = 0
    incs, resets = [], []

    def history(converged, newton_steps=0, vi_stop_gap=0.0):
        return ViHistory(increment=np.asarray(incs), reset_count=np.asarray(resets, dtype=int),
                         converged=converged, resets=r, newton_steps=newton_steps,
                         vi_stop_gap=vi_stop_gap)

    for k in range(1, max_k + 1):
        eps_k = 1.0 / k
        delta, aux = residual_fn(P)
        delta_norm = float(np.linalg.norm(delta))
        incs.append(eps_k * delta_norm)
        resets.append(r)
        if newton_step is not None and k >= 2 and k & (k - 1) == 0:  # k = 2, 4, 8, ...
            finished = _newton_finish(residual_fn, newton_step, P, delta, aux, stop_eps)
            if finished is not None:
                P_newton, aux_newton, steps = finished
                gap = float(np.max(np.abs(aux_newton - aux)))
                return P_newton, aux_newton, history(True, steps, gap)
        # clipped-step stop: the candidate increment, rescaled by eps, is the residual norm
        if k >= 2 and delta_norm < stop_eps:
            return P, aux, history(True)
        candidate = _symmetrize(P + eps_k * delta)
        if np.linalg.norm(candidate) > float(ball_schedule(r)):
            P = P0.copy()
            r += 1
        else:
            P = candidate
    raise ConvergenceError(
        f"value iteration did not converge in {max_k} iterations "
        f"({r} resets, last residual norm {delta_norm:.3e})",
        iterations=max_k,
        history=history(False),
    )


def model_based_vi(model, Q, R, P0=None, eps=1e-3, ball_schedule=None, max_k=200000):
    """Value iteration on the ARE residual computed from known (A, B).

    Needs no stabilizing initial gain; P0 defaults to the identity and
    ball radii to 10 (r + 1), and the steps are 1/k
    (:func:`run_value_iteration`). Returns (P, K, history) with
    K = R^{-1} B' P at the stopping iterate.

    With these defaults it may stop with :class:`ConvergenceError` on
    plants other than the docking one: of 12 small random plants
    (n <= 4, m <= 3, Q = R = I, drawn like the tests' ``random_solvable``)
    it stalled on 4, three of them single-input. It is a library tool and
    a test reference, not an oracle: use :func:`kleinman_from_care` for
    ground truth.
    """
    A, B = model.A, model.B
    Q, R = check_weights(Q, R, model.n, model.m)
    if P0 is None:
        P0 = np.eye(model.n)
    if ball_schedule is None:
        ball_schedule = linear_balls()
    BRB = B @ np.linalg.solve(R, B.T)

    def residual_fn(P):
        return A.T @ P + P @ A + Q - P @ BRB @ P, None

    P, _, hist = run_value_iteration(residual_fn, P0, eps, ball_schedule, max_k)
    K = np.linalg.solve(R, B.T @ P)
    return P, K, hist
