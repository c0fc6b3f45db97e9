"""Model-based LQR solvers: Kleinman policy iteration and value iteration.

Both target the continuous-time algebraic Riccati equation

    A'P + PA + Q - P B R^{-1} B' P = 0,

whose stabilizing solution P* gives the optimal feedback K* = R^{-1}B'P*.
Policy iteration needs a stabilizing initial gain and converges
quadratically; value iteration needs no such gain and instead follows
the Riccati residual with diminishing steps eps_k, resetting to P0
whenever the iterate escapes a growing sequence of Frobenius-norm balls.
The value-iteration driver is shared with the data-driven learner, which
supplies the residual from trajectory data instead of (A, B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

from .errors import ConvergenceError
from .matops import check_weights, is_hurwitz, numerical_rank, write_csv

__all__ = [
    "ViHistory",
    "harmonic_steps",
    "linear_balls",
    "lyapunov_solve",
    "kleinman_pi",
    "model_based_vi",
    "run_value_iteration",
    "are_residual",
]

_LYAP_RTOL = 1e-9


@dataclass
class ViHistory:
    """Per-iteration scalars from a value-iteration run.

    ``increment`` holds the Frobenius norm of P_{k+1} - P_k (the actual
    step taken, eps_k times the residual norm); ``distance`` holds
    |P_k - P_ref| when a reference matrix was supplied, else NaN.
    """

    k: np.ndarray
    eps: np.ndarray
    increment: np.ndarray
    reset_count: np.ndarray
    distance: np.ndarray
    converged: bool
    iterations: int
    resets: int

    @property
    def has_distance(self):
        return bool(np.all(np.isfinite(self.distance)))

    def to_csv(self, path, kind=None):
        """Export `k,eps_k,...,reset_count` rows.

        ``kind`` is "distance" (column `frob(P_k - P_star)`, needs a
        recorded reference) or "increment" (column `frob_P_increment`);
        default picks "distance" when available.
        """
        if kind is None:
            kind = "distance" if self.has_distance else "increment"
        if kind == "distance":
            if not self.has_distance:
                raise ValueError("no reference distances recorded; use kind='increment'")
            header = "k,eps_k,frob(P_k - P_star),reset_count"
            third = self.distance
        elif kind == "increment":
            header = "k,eps_k,frob_P_increment,reset_count"
            third = self.increment
        else:
            raise ValueError(f"unknown history export kind {kind!r}")
        data = np.column_stack([self.k, self.eps, third, self.reset_count])
        write_csv(path, data, header, fmt=["%d", "%.17g", "%.17g", "%d"])


def harmonic_steps():
    """Step rule eps_k = 1/k for k >= 1: positive, summing to infinity, vanishing."""
    return lambda k: 1.0 / k


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

    Bartels-Stewart via :func:`scipy.linalg.solve_continuous_lyapunov`,
    O(n^3); the residual is checked afterwards.
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
    P = _symmetrize(solve_continuous_lyapunov(a_cl.T, -m))
    residual = np.linalg.norm(a_cl.T @ P + P @ a_cl + m)
    if residual > _LYAP_RTOL * (1.0 + np.linalg.norm(m)):
        raise ValueError(f"Lyapunov solve failed: residual {residual:.3e}")
    return P


def are_residual(model, Q, R, P):
    """Frobenius norm of A'P + PA + Q - P B R^{-1} B' P."""
    P = np.asarray(P, dtype=float)
    A, B = model.A, model.B
    gain = np.linalg.solve(np.asarray(R, dtype=float), B.T @ P)
    return float(np.linalg.norm(A.T @ P + P @ A + np.asarray(Q, dtype=float) - P @ B @ gain))


def kleinman_pi(model, Q, R, K0, tol=1e-10, max_iter=100):
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
        If max_iter passes without |P_k - P_{k-1}| < tol.
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
    for _ in range(max_iter):
        P = lyapunov_solve(A - B @ K, Q + K.T @ R @ K)
        K = np.linalg.solve(R, B.T @ P)
        iterates.append((P, K))
        if P_prev is not None and np.linalg.norm(P - P_prev) < tol:
            return P, K, iterates
        P_prev = P
    raise ConvergenceError(
        f"policy iteration did not converge in {max_iter} iterations",
        iterations=max_iter,
    )


def run_value_iteration(residual_fn, P0, stop_eps, eps_schedule, ball_schedule,
                        max_k, p_ref=None):
    """Generic diminishing-step value-iteration driver.

    ``residual_fn(P) -> (delta, aux)`` supplies the symmetric residual
    matrix driving the update P <- P + eps_k delta, plus any auxiliary
    payload (the data-driven learner returns its current gain there).
    When the candidate leaves the ball of radius ball_schedule(r) the
    iterate resets to P0 and r increments. The run stops at the first
    k >= 2 with |delta| < stop_eps, i.e. when the previous accepted step
    scaled back by its eps falls below the tolerance.

    Returns (P, aux, history) at the stopping iterate.
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
    ks, epss, incs, resets, dists = [], [], [], [], []

    def history(converged, iterations):
        return ViHistory(
            k=np.asarray(ks, dtype=int),
            eps=np.asarray(epss),
            increment=np.asarray(incs),
            reset_count=np.asarray(resets, dtype=int),
            distance=np.asarray(dists),
            converged=converged,
            iterations=iterations,
            resets=r,
        )

    for k in range(1, max_k + 1):
        eps_k = float(eps_schedule(k))
        if eps_k <= 0:
            raise ValueError(f"eps_schedule must stay positive, got {eps_k} at k = {k}")
        delta, aux = residual_fn(P)
        delta_norm = float(np.linalg.norm(delta))
        ks.append(k)
        epss.append(eps_k)
        incs.append(eps_k * delta_norm)
        resets.append(r)
        dists.append(float(np.linalg.norm(P - p_ref)) if p_ref is not None else np.nan)
        # clipped-step stop: the candidate increment, rescaled by eps, is the residual norm
        if k >= 2 and delta_norm < stop_eps:
            return P, aux, history(True, k)
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
        history=history(False, max_k),
    )


def model_based_vi(model, Q, R, P0=None, eps=1e-3, eps_schedule=None,
                   ball_schedule=None, max_k=200000, p_ref=None):
    """Value iteration on the ARE residual computed from known (A, B).

    Needs no stabilizing initial gain; P0 defaults to the identity,
    steps to 1/k, ball radii to 10 (r + 1). Returns (P, K, history)
    with K = R^{-1} B' P at the stopping iterate.
    """
    A, B = model.A, model.B
    Q, R = check_weights(Q, R, model.n, model.m)
    if P0 is None:
        P0 = np.eye(model.n)
    if eps_schedule is None:
        eps_schedule = harmonic_steps()
    if ball_schedule is None:
        ball_schedule = linear_balls()
    BRB = B @ np.linalg.solve(R, B.T)

    def residual_fn(P):
        return A.T @ P + P @ A + Q - P @ BRB @ P, None

    P, _, hist = run_value_iteration(residual_fn, P0, eps, eps_schedule,
                                     ball_schedule, max_k, p_ref=p_ref)
    K = np.linalg.solve(R, B.T @ P)
    return P, K, hist
