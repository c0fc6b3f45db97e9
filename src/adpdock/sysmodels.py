"""Plant, exosystem, and scenario models plus trajectory simulation.

The plant tracked throughout the toolkit is the linear time-invariant
system

    dx/dt = A x + B u + D v,      e = C x + F v,      dv/dt = E v,

where ``v`` is the exostate of an autonomous exosystem that generates
both reference signals (through ``F``) and disturbances (through ``D``).
The docking scenario instantiates this with the Clohessy-Wiltshire (CW)
relative-motion equations of a deputy satellite about a chief on a
circular orbit, optionally corrected for Earth-oblateness (J2) effects:
the in-plane coupling constant becomes ``c = sqrt(1 + s)`` with
``s = (3 J2 Re^2 / (8 r_ref^2)) (1 + 3 cos 2i)``, and the J2
differential acceleration enters as an exosystem-driven disturbance.

State ordering is ``[x, y, z, xdot, ydot, zdot]`` in the rotating Hill
frame: ``x`` radial, ``y`` along-track, ``z`` cross-track.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError
from .matops import bdiag, numerical_rank, write_csv

__all__ = [
    "CwParams",
    "StateSpaceModel",
    "Exosystem",
    "TrajectoryLog",
    "NoiseSpec",
    "LinearPolicy",
    "PbhRecord",
    "AssumptionReport",
    "build_cw_plant",
    "build_docking_scenario",
    "simulate",
    "exploration_noise",
    "sinusoid_noise",
    "check_assumptions",
]


@dataclass(frozen=True)
class CwParams:
    """Orbit and oblateness parameters for the CW builders.

    Units: ``mean_motion`` in rad/s, radii in km, ``inclination`` in rad.
    """

    mean_motion: float = 0.00108
    r_ref: float = 7000.0
    earth_radius: float = 6378.14
    j2: float = 1.08263e-3
    inclination: float = math.radians(45.0)
    include_j2: bool = True

    def __post_init__(self):
        if self.mean_motion <= 0:
            raise ValueError("mean_motion must be positive")
        if not (self.r_ref > self.earth_radius > 0):
            raise ValueError("need r_ref > earth_radius > 0")
        if not (0 <= self.j2 < 1):
            raise ValueError("j2 must lie in [0, 1)")

    @property
    def j2_stretch(self):
        """The dimensionless s in c = sqrt(1 + s); zero when J2 is off."""
        if not self.include_j2:
            return 0.0
        return (3.0 * self.j2 * self.earth_radius**2 / (8.0 * self.r_ref**2)) * (
            1.0 + 3.0 * math.cos(2.0 * self.inclination)
        )

    @property
    def coupling(self):
        """In-plane coupling constant c = sqrt(1 + s)."""
        return math.sqrt(1.0 + self.j2_stretch)


@dataclass
class StateSpaceModel:
    """Plant matrices (A, B, C, D, F) with dimension bookkeeping."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    F: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        self.C = np.atleast_2d(np.asarray(self.C, dtype=float))
        self.D = np.atleast_2d(np.asarray(self.D, dtype=float))
        self.F = np.atleast_2d(np.asarray(self.F, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got {self.B.shape}")
        if self.C.shape[1] != n:
            raise ValueError(f"C must have {n} cols, got {self.C.shape}")
        if self.D.shape[0] != n:
            raise ValueError(f"D must have {n} rows, got {self.D.shape}")
        if self.F.shape != (self.p, self.q):
            raise ValueError(f"F must be {self.p}x{self.q}, got {self.F.shape}")
        for name in ("A", "B", "C", "D", "F"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def p(self):
        return self.C.shape[0]

    @property
    def q(self):
        return self.D.shape[1]


@dataclass
class Exosystem:
    """Autonomous generator dv/dt = E v with initial exostate v0."""

    E: np.ndarray
    v0: np.ndarray

    def __post_init__(self):
        self.E = np.atleast_2d(np.asarray(self.E, dtype=float))
        self.v0 = np.asarray(self.v0, dtype=float).ravel()
        q = self.E.shape[0]
        if self.E.shape != (q, q):
            raise ValueError(f"E must be square, got {self.E.shape}")
        if self.v0.shape != (q,):
            raise ValueError(f"v0 must have length {q}, got {self.v0.shape}")

    @property
    def q(self):
        return self.E.shape[0]


@dataclass
class TrajectoryLog:
    """Uniformly sampled (t, x, u, v, e) records from one simulation."""

    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float).ravel()
        for name in ("x", "u", "v", "e"):
            arr = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            setattr(self, name, arr)
            if arr.shape[0] != self.t.size:
                raise ValueError(f"{name} has {arr.shape[0]} rows, expected {self.t.size}")
        steps = np.diff(self.t)
        if self.t.size >= 2:
            if np.any(steps <= 0):
                raise ValueError("times must be strictly increasing")
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
                raise ValueError("times must use a constant step")

    @property
    def dt(self):
        return float(self.t[1] - self.t[0])

    def __len__(self):
        return self.t.size

    def to_csv(self, path):
        """Write `t,x1..,u1..,v1..,e1..` rows in full double precision."""
        header = ",".join(
            ["t"]
            + [f"x{i+1}" for i in range(self.x.shape[1])]
            + [f"u{i+1}" for i in range(self.u.shape[1])]
            + [f"v{i+1}" for i in range(self.v.shape[1])]
            + [f"e{i+1}" for i in range(self.e.shape[1])]
        )
        data = np.hstack([self.t[:, None], self.x, self.u, self.v, self.e])
        write_csv(path, data, header)

    @classmethod
    def from_csv(cls, path):
        with open(path) as fh:
            names = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        counts = {}
        for name in names:
            counts[name[0]] = counts.get(name[0], 0) + 1
        n, m, q, p = counts["x"], counts["u"], counts["v"], counts["e"]
        cols = np.cumsum([1, n, m, q, p])
        return cls(
            t=data[:, 0],
            x=data[:, cols[0] : cols[1]],
            u=data[:, cols[1] : cols[2]],
            v=data[:, cols[2] : cols[3]],
            e=data[:, cols[3] : cols[4]],
        )


@dataclass(frozen=True)
class NoiseSpec:
    """Sum-of-sinusoids exploration signal, one row of terms per channel.

    ``amplitudes``, ``frequencies`` (rad/s) and ``phases`` share the shape
    ``(channels, terms)``. Frequencies are pairwise distinct within each
    channel. ``seed`` records the draw that produced the tables so a
    collection run can be replayed exactly.
    """

    amplitudes: np.ndarray
    frequencies: np.ndarray
    phases: np.ndarray
    seed: int = 0

    def __post_init__(self):
        for name in ("amplitudes", "frequencies", "phases"):
            arr = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, arr)
        if not (self.amplitudes.shape == self.frequencies.shape == self.phases.shape):
            raise ValueError("amplitudes, frequencies, phases must share one shape")
        for row in self.frequencies:
            if np.unique(row).size != row.size:
                raise ValueError("frequencies must be pairwise distinct per channel")

    @property
    def channels(self):
        return self.amplitudes.shape[0]


def sinusoid_noise(channels, terms=10, amplitude=0.1, freq_range=(0.1, 10.0), seed=0):
    """Draw a :class:`NoiseSpec` with fixed amplitude, random frequencies/phases.

    The draw is deterministic in ``seed``; frequencies are sampled
    uniformly from ``freq_range`` and are distinct across all channels.
    """
    lo, hi = freq_range
    if not (0 < lo < hi):
        raise ValueError("freq_range must satisfy 0 < lo < hi")
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(lo, hi, size=(channels, terms))
    while np.unique(freqs).size != freqs.size:  # measure-zero, but be safe
        freqs = rng.uniform(lo, hi, size=(channels, terms))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(channels, terms))
    amps = np.full((channels, terms), float(amplitude))
    return NoiseSpec(amplitudes=amps, frequencies=freqs, phases=phases, seed=seed)


def exploration_noise(spec, t):
    """Evaluate the exploration signal at time ``t``; one value per channel.

    ``t`` may also be an array of times; the result then has shape
    ``t.shape + (channels,)`` and each entry equals the scalar evaluation.
    """
    t = np.asarray(t, dtype=float)[..., None, None]
    return np.sum(spec.amplitudes * np.sin(spec.frequencies * t + spec.phases), axis=-1)


@dataclass(frozen=True)
class LinearPolicy:
    """The control law u = -K x + L v + eta(t) as a structured controller.

    ``L`` None means no feedforward term and ``noise`` None no
    exploration signal eta. :func:`simulate` folds the gains into its
    step map instead of calling back once per step; calling the policy
    evaluates the law at one sample, so it also serves anywhere a plain
    ``controller(x, v, t)`` callback does.
    """

    K: np.ndarray
    L: np.ndarray | None = None
    noise: NoiseSpec | None = None

    def __post_init__(self):
        K = np.asarray(self.K, dtype=float)
        if K.ndim != 2:
            raise ValueError(f"K must be a 2-D m x n gain, got shape {K.shape}")
        object.__setattr__(self, "K", K)
        if self.L is not None:
            L = np.asarray(self.L, dtype=float)
            if L.ndim != 2 or L.shape[0] != K.shape[0]:
                raise ValueError(f"L must be a 2-D gain with {K.shape[0]} rows, got shape {L.shape}")
            object.__setattr__(self, "L", L)
        if self.noise is not None and self.noise.channels != K.shape[0]:
            raise ValueError(f"noise must have {K.shape[0]} channels, got {self.noise.channels}")

    def __call__(self, x, v, t):
        u = -self.K @ x
        if self.L is not None:
            u = u + self.L @ v
        if self.noise is not None:
            u = u + exploration_noise(self.noise, t)
        return u


def build_cw_plant(params):
    """CW/J2 plant matrices A and B; C, D, F are zero-filled placeholders.

    With ``include_j2`` false the coupling constant c is 1 and the plain
    CW equations result. The cross-track row uses -nbar^2 (harmonic
    oscillator, consistent with zdotdot + nbar^2 z = d).
    """
    nbar = params.mean_motion
    c = params.coupling
    A = np.zeros((6, 6))
    A[0, 3] = A[1, 4] = A[2, 5] = 1.0
    A[3, 0] = (5.0 * c**2 - 2.0) * nbar**2
    A[3, 4] = 2.0 * nbar * c
    A[4, 3] = -2.0 * nbar
    A[5, 2] = -(nbar**2)
    B = np.vstack([np.zeros((3, 3)), np.eye(3)])
    return StateSpaceModel(
        A=A, B=B, C=np.zeros((3, 6)), D=np.zeros((6, 8)), F=np.zeros((3, 8))
    )


# 0-indexed (row, col) slots of the J2 differential-acceleration coupling.
_J2_DISTURBANCE_SLOTS = ((3, 2), (3, 5), (4, 4), (5, 0), (5, 6))


def build_docking_scenario(params, exo_frequencies=(1.0, 2.0, 3.0, 4.0),
                           disturbance_gain=1.0, v0=None):
    """Full docking setup: CW/J2 plant, rotation exosystem, error output.

    Parameters
    ----------
    params : CwParams
    exo_frequencies : sequence of float
        One rotation block [[0, w], [-w, 0]] per frequency; the exostate
        dimension is twice the block count. -F v is the position
        reference tracked by the deputy.
    disturbance_gain : float
        Scales the J2 disturbance coupling D; 0 gives pure tracking.
    v0 : array_like, optional
        Initial exostate; defaults to [1, 0] repeated per block.
    """
    freqs = [float(w) for w in exo_frequencies]
    if len(freqs) != len(set(freqs)) or any(w <= 0 for w in freqs):
        raise ValueError("exo_frequencies must be distinct and positive")
    q = 2 * len(freqs)
    if q < 3:
        raise ValueError(f"need at least 2 frequency blocks for 3 error channels, got q={q}")
    E = bdiag([np.array([[0.0, w], [-w, 0.0]]) for w in freqs])

    plant = build_cw_plant(params)
    C = np.hstack([np.eye(3), np.zeros((3, 3))])
    F = np.hstack([np.eye(3), np.zeros((3, q - 3))])
    D = np.zeros((6, q))
    if disturbance_gain != 0.0:
        if q != 8:
            raise ValueError(
                f"J2 disturbance pattern is defined for q = 8 exostates, got q = {q}; "
                "set disturbance_gain = 0 for other exosystem sizes"
            )
        nbar = params.mean_motion
        kappa = -3.0 * nbar**2 * params.j2 * params.earth_radius**2 / params.r_ref
        for row, col in _J2_DISTURBANCE_SLOTS:
            D[row, col] = disturbance_gain * kappa

    if v0 is None:
        v0 = np.tile([1.0, 0.0], q // 2)
    model = StateSpaceModel(A=plant.A, B=plant.B, C=C, D=D, F=F)
    return model, Exosystem(E=E, v0=np.asarray(v0, dtype=float))


#: Steps between divergence checks in :func:`simulate`.
_CHUNK = 1000


def simulate(model, exo, controller, x0, t_span, dt):
    """Fixed-step RK4 propagation of the joint (x, v) dynamics.

    The control is evaluated once per step at the left endpoint and held
    constant across the step (zero-order hold), so the integrated system
    is piecewise-LTI with exact meaning at any dt. For an LTI plant with
    a held input one RK4 step is exactly the linear map

        z+ = Phi z + Gamma u,    z = [x; v],
        Phi = sum_{i<=4} (dt J)^i / i!,
        Gamma = dt sum_{i<=3} (dt J)^i / (i+1)! G,

    with J = [[A, D], [0, E]] and G = [B; 0]. (Phi, Gamma) are built once
    and the run takes one of two drivers:

    * a :class:`LinearPolicy` u = -K x + L v + eta(t) runs the
      closed-loop map Phi - Gamma [K, -L], with eta evaluated once on
      the whole time grid and Gamma eta added per chunk of steps; the
      logged input is recovered afterwards as -X K' + V L' + eta;
    * any other callable(x, v, t) -> u is called once per step and the
      open-loop map is applied to its output.

    The error e = C x + F v is recorded per sample, and the input at the
    trailing sample is evaluated too so the log is rectangular.
    Non-finiteness is checked once per chunk of steps; the reported time
    is that of the first non-finite sample, so it is the same as with a
    per-step check.

    Parameters
    ----------
    controller : LinearPolicy or callable(x, v, t) -> u
    t_span : float
        Total duration; integration starts at t = 0.
    dt : float
        Step size; ``t_span / dt`` must be integral.

    Raises
    ------
    DivergenceError
        If the state leaves the finite range (possible under a
        destabilizing controller over long horizons).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not np.isfinite(t_span) or t_span < 0:
        raise ValueError("t_span must be finite and nonnegative")
    n_steps = int(round(t_span / dt))
    if abs(n_steps * dt - t_span) > 1e-9 * max(1.0, t_span):
        raise ValueError(f"t_span = {t_span} is not an integer multiple of dt = {dt}")

    n, m, q = model.n, model.m, exo.q
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.shape != (n,):
        raise ValueError(f"x0 must have length {n}")
    phi, gamma = _rk4_map(model, exo, dt)

    times = np.arange(n_steps + 1) * dt
    zs = np.empty((n_steps + 1, n + q))
    zs[0, :n], zs[0, n:] = x0, exo.v0
    # overflow to inf is detected and reported, so keep numpy quiet about it
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(controller, LinearPolicy):
            K = controller.K
            L = np.zeros((m, q)) if controller.L is None else controller.L
            if K.shape != (m, n) or L.shape != (m, q):
                raise ValueError(f"LinearPolicy gains must be K {m}x{n} and L {m}x{q}, "
                                 f"got {K.shape} and {L.shape}")
            # us holds eta until the state is known, then becomes u in place;
            # eta is evaluated in chunks to bound the per-term temporaries
            us = np.zeros((n_steps + 1, m))
            if controller.noise is not None:
                for k0 in range(0, n_steps + 1, _CHUNK):
                    us[k0 : k0 + _CHUNK] = exploration_noise(controller.noise,
                                                             times[k0 : k0 + _CHUNK])
            phi_cl = phi - gamma @ np.hstack([K, -L])
            for k0 in range(0, n_steps, _CHUNK):
                k1 = min(k0 + _CHUNK, n_steps)
                forced = us[k0:k1] @ gamma.T
                z = zs[k0]
                for k in range(k0, k1):
                    z = phi_cl @ z + forced[k - k0]
                    zs[k + 1] = z
                _check_finite(zs, times, k0, k1)
            xs, vs = zs[:, :n], zs[:, n:]
            us -= xs @ K.T
            us += vs @ L.T
        else:
            us = np.empty((n_steps + 1, m))
            for k0 in range(0, n_steps, _CHUNK):
                k1 = min(k0 + _CHUNK, n_steps)
                z = zs[k0]
                for k in range(k0, k1):
                    us[k] = _held_input(controller, z[:n], z[n:], times[k], m)
                    z = phi @ z + gamma @ us[k]
                    zs[k + 1] = z
                _check_finite(zs, times, k0, k1)
            xs, vs = zs[:, :n], zs[:, n:]
            us[n_steps] = _held_input(controller, xs[-1], vs[-1], times[n_steps], m)

    errors = xs @ model.C.T + vs @ model.F.T
    return TrajectoryLog(t=times, x=xs, u=us, v=vs, e=errors)


def _rk4_map(model, exo, dt):
    """(Phi, Gamma) with one RK4 step of the joint dynamics z+ = Phi z + Gamma u."""
    n, q = model.n, exo.q
    joint = np.zeros((n + q, n + q))
    joint[:n, :n] = model.A
    joint[:n, n:] = model.D
    joint[n:, n:] = exo.E
    gain_u = np.vstack([model.B, np.zeros((q, model.m))])
    step = dt * joint
    # Horner form of sum_{i<=4} step^i / i! and sum_{i<=3} step^i / (i+1)!
    eye = np.eye(n + q)
    series = eye + step / 4.0
    series = eye + step @ series / 3.0
    series = eye + step @ series / 2.0
    return eye + step @ series, dt * series @ gain_u


def _held_input(controller, x, v, t, m):
    u = np.asarray(controller(x, v, t), dtype=float).ravel()
    if u.shape != (m,):
        raise ValueError(f"controller must return an m-vector of length {m}")
    return u


def _check_finite(zs, times, k0, k1):
    """Raise DivergenceError at the first non-finite sample of rows k0+1..k1."""
    finite = np.isfinite(zs[k0 + 1 : k1 + 1]).all(axis=1)
    if not finite.all():
        t = float(times[k0 + 1 + np.argmin(finite)])
        raise DivergenceError(f"state became non-finite at t = {t:.6g}", time=t)


@dataclass(frozen=True)
class PbhRecord:
    """One PBH rank test at one test point of the complex plane."""

    test: str
    eigenvalue: complex
    rank: int
    required: int
    margin: float

    @property
    def ok(self):
        return self.rank >= self.required

    def to_dict(self):
        return {
            "test": self.test,
            "eigenvalue": [self.eigenvalue.real, self.eigenvalue.imag],
            "rank": self.rank,
            "required": self.required,
            "margin": self.margin,
            "ok": self.ok,
        }


@dataclass
class AssumptionReport:
    """Diagnostics for stabilizability, observability, and regulator rank."""

    records: list[PbhRecord] = field(default_factory=list)

    def _ok(self, test):
        return all(r.ok for r in self.records if r.test == test)

    @property
    def stabilizable(self):
        return self._ok("stabilizability")

    @property
    def observable(self):
        return self._ok("observability")

    @property
    def regulator_rank_ok(self):
        return self._ok("regulator_rank")

    @property
    def ok(self):
        return all(r.ok for r in self.records)

    def to_dict(self):
        return {
            "ok": self.ok,
            "stabilizable": self.stabilizable,
            "observable": self.observable,
            "regulator_rank_ok": self.regulator_rank_ok,
            "records": [r.to_dict() for r in self.records],
        }


def _distinct(eigenvalues):
    seen = []
    for lam in eigenvalues:
        if not any(abs(lam - s) < 1e-9 for s in seen):
            seen.append(lam)
    return seen


def check_assumptions(model, exo):
    """PBH rank diagnostics for the three solvability assumptions.

    Checks (A, B) stabilizability at every closed-right-half-plane
    eigenvalue of A, (C, A) observability at every eigenvalue, and the
    regulator-equation condition rank [[A - lambda I, B], [C, 0]] = n + p
    at every eigenvalue of E. Diagnostic only; never raises.
    """
    A, B, C = model.A, model.B, model.C
    n, p = model.n, model.p
    report = AssumptionReport()

    for lam in _distinct(np.linalg.eigvals(A)):
        if lam.real >= -1e-12:
            pencil = np.hstack([A - lam * np.eye(n), B])
            rank, margin = numerical_rank(pencil, n)
            report.records.append(PbhRecord("stabilizability", complex(lam), rank, n, margin))

    for lam in _distinct(np.linalg.eigvals(A)):
        pencil = np.vstack([A - lam * np.eye(n), C])
        rank, margin = numerical_rank(pencil, n)
        report.records.append(PbhRecord("observability", complex(lam), rank, n, margin))

    for lam in _distinct(np.linalg.eigvals(exo.E)):
        top = np.hstack([A - lam * np.eye(n), B])
        bottom = np.hstack([C, np.zeros((p, model.m))])
        pencil = np.vstack([top, bottom])
        rank, margin = numerical_rank(pencil, n + p)
        report.records.append(PbhRecord("regulator_rank", complex(lam), rank, n + p, margin))

    return report
