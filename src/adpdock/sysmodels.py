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
from .matops import (bdiag, numerical_rank, read_csv, require_finite, write_csv,
                     write_csv_in_background)

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
    "whole_steps",
    "exploration_noise",
    "sinusoid_noise",
    "check_assumptions",
]


@dataclass(frozen=True)
class CwParams:
    """Orbit and oblateness parameters for the CW builders.

    Units: ``mean_motion`` in rad/s, radii in km, ``inclination_deg`` in
    degrees, the unit of the config key ``[orbit] inclination_deg``.
    """

    mean_motion: float = 0.00108
    r_ref: float = 7000.0
    earth_radius: float = 6378.14
    j2: float = 1.08263e-3
    inclination_deg: float = 45.0
    include_j2: bool = True

    def __post_init__(self):
        if not self.mean_motion > 0:
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
            1.0 + 3.0 * math.cos(2.0 * math.radians(self.inclination_deg))
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
        for name in ("A", "B", "C", "D", "F"):
            matrix = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            setattr(self, name, require_finite(matrix, name))
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
        self.E = require_finite(np.atleast_2d(np.asarray(self.E, dtype=float)), "E")
        self.v0 = require_finite(np.asarray(self.v0, dtype=float).ravel(), "v0")
        q = self.E.shape[0]
        if self.E.shape != (q, q):
            raise ValueError(f"E must be square, got {self.E.shape}")
        if self.v0.shape != (q,):
            raise ValueError(f"v0 must have length {q}, got {self.v0.size}")

    @property
    def q(self):
        return self.E.shape[0]


@dataclass
class TrajectoryLog:
    """Uniformly sampled (t, x, u, v, e) records from one simulation; every entry finite."""

    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        self.t = require_finite(np.asarray(self.t, dtype=float).ravel(), "t")
        for name in ("x", "u", "v", "e"):
            arr = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            setattr(self, name, require_finite(arr, name))
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
        write_csv(path, *self._csv_table())

    def to_csv_in_background(self, path):
        """Context manager: write :meth:`to_csv`'s file from a forked child while the block runs.

        The file is complete once the block is left, also when it raises
        (see :func:`matops.write_csv_in_background`).
        """
        return write_csv_in_background(path, self._csv_table)

    def _csv_table(self):
        """The rows of :meth:`to_csv` as one array, and its header."""
        dims = [arr.shape[1] for arr in (self.x, self.u, self.v, self.e)]
        return np.hstack([self.t[:, None], self.x, self.u, self.v, self.e]), _csv_header(dims)

    @classmethod
    def from_csv(cls, path):
        """Read a log written by :meth:`to_csv`.

        Raises
        ------
        ValueError
            Naming the file, if the header is not ``t`` followed by
            nonempty ``x``, ``u``, ``v`` and ``e`` groups numbered from 1,
            if a row does not parse or holds another number of values than
            the header names, if the file has no data rows, or if the rows
            fail a check of the log itself (a non-finite value, or times
            not strictly increasing by one constant step).
        """
        header, data = read_csv(path)
        dims = [sum(name[:1] == group for name in header.split(",")) for group in "xuve"]
        if min(dims) == 0 or header != _csv_header(dims):
            raise ValueError(f"{path}: header {header!r} is not t,x1..,u1..,v1..,e1.. "
                             "with every group nonempty")
        if len(data) == 0:
            raise ValueError(f"{path}: no data rows after the header")
        cols = np.cumsum([1, *dims])
        try:
            return cls(
                t=data[:, 0],
                x=data[:, cols[0] : cols[1]],
                u=data[:, cols[1] : cols[2]],
                v=data[:, cols[2] : cols[3]],
                e=data[:, cols[3] : cols[4]],
            )
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _csv_header(dims):
    """The `t,x1..,u1..,v1..,e1..` header for group widths ``dims`` = (n, m, q, p)."""
    return ",".join(["t"] + [f"{group}{i + 1}" for group, width in zip("xuve", dims)
                             for i in range(width)])


@dataclass(frozen=True)
class NoiseSpec:
    """Sum-of-sinusoids exploration signal, one row of terms per channel.

    ``amplitudes``, ``frequencies`` (rad/s) and ``phases`` share the shape
    ``(channels, terms)`` and hold finite values. Frequencies are pairwise
    distinct within each channel. ``seed`` records the draw that produced
    the tables so a collection run can be replayed exactly.
    """

    amplitudes: np.ndarray
    frequencies: np.ndarray
    phases: np.ndarray
    seed: int = 0

    def __post_init__(self):
        for name in ("amplitudes", "frequencies", "phases"):
            arr = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, require_finite(arr, name))
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
    uniformly from ``freq_range``. :class:`NoiseSpec` rejects a frequency
    repeated within a channel, an event of probability zero here.
    """
    lo, hi = freq_range
    if not (0 < lo < hi < math.inf):
        raise ValueError("freq_range must satisfy 0 < lo < hi < inf")
    rng = np.random.default_rng(seed)
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
    """CW/J2 plant matrices A and B, in a model with no outputs and no exostate (p = q = 0).

    :func:`build_docking_scenario` adds the error output and the exosystem.

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
    return StateSpaceModel(A=A, B=B, C=np.zeros((0, 6)), D=np.zeros((6, 0)), F=np.zeros((0, 0)))


# 0-indexed (row, col) slots of the J2 differential-acceleration coupling.
_J2_DISTURBANCE_SLOTS = ((3, 2), (3, 5), (4, 4), (5, 0), (5, 6))


def build_docking_scenario(params, exo_frequencies=(1.0, 2.0, 3.0, 4.0),
                           disturbance_gain=1.0, v0=None):
    """Full docking setup: CW/J2 plant, rotation exosystem, error output.

    The one home of the scenario's rules; the experiment config takes them, and n and m, from here.

    Parameters
    ----------
    params : CwParams
    exo_frequencies : sequence of float
        Two or more distinct positive values, one rotation block
        [[0, w], [-w, 0]] each; the exostate dimension q is twice the
        block count. -F v is the position reference tracked by the deputy.
    disturbance_gain : float
        Scales the J2 disturbance coupling D; 0 gives pure tracking, and
        any other value needs exactly four frequencies.
    v0 : array_like, optional
        Initial exostate, q finite values; defaults to [1, 0] per block.
    """
    freqs = [float(w) for w in exo_frequencies]
    if len(freqs) < 2 or len(set(freqs)) != len(freqs) or not all(w > 0 for w in freqs):
        raise ValueError("frequencies must be two or more distinct positive values")
    exo = Exosystem(E=bdiag([np.array([[0.0, w], [-w, 0.0]]) for w in freqs]),
                    v0=np.tile([1.0, 0.0], len(freqs)) if v0 is None else v0)

    plant = build_cw_plant(params)
    C = np.hstack([np.eye(3), np.zeros((3, 3))])
    F = np.hstack([np.eye(3), np.zeros((3, exo.q - 3))])
    D = np.zeros((6, exo.q))
    if disturbance_gain != 0.0:
        if exo.q != 8:
            raise ValueError(f"the J2 disturbance pattern needs exactly 4 frequencies, got "
                             f"{len(freqs)}; set disturbance_gain = 0 for other exosystems")
        nbar = params.mean_motion
        kappa = -3.0 * nbar**2 * params.j2 * params.earth_radius**2 / params.r_ref
        for row, col in _J2_DISTURBANCE_SLOTS:
            D[row, col] = disturbance_gain * kappa

    return StateSpaceModel(A=plant.A, B=plant.B, C=C, D=D, F=F), exo


#: Steps between divergence checks in :func:`simulate`.
_CHUNK = 1000
#: Steps per block of the closed-loop scan in :func:`simulate`, about sqrt(_CHUNK).
_BLOCK = 32


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
      closed-loop map z+ = Phi_cl z + Gamma eta, Phi_cl = Phi - Gamma [K, -L],
      with eta evaluated once on the whole time grid. The recurrence is
      linear, so each chunk of steps is a blocked scan
      (:func:`_scan_chunk`) over blocks of 32 steps: about 64
      Python-level steps per 1000-step chunk instead of 1000, with the
      powers Phi_cl^1..Phi_cl^32 built once per run (blocks are one step
      long where Phi_cl^32 overflows). Samples agree with the
      step-by-step recurrence to round-off relative to the largest
      |Phi_cl^j|; replacing that recurrence moved every logged value
      once, by about 1e-13 relative. The logged input is recovered
      afterwards as -X K' + V L' + eta;
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
    n_steps = whole_steps(t_span, dt, "t_span")

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
            powers = _matrix_powers(phi - gamma @ np.hstack([K, -L]), _BLOCK)
            if not np.isfinite(powers[-1]).all():
                powers = powers[:1]  # Phi_cl^s overflows: scan one step per block
            for k0 in range(0, n_steps, _CHUNK):
                k1 = min(k0 + _CHUNK, n_steps)
                _scan_chunk(zs, k0, us[k0:k1] @ gamma.T, powers)
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


def whole_steps(duration, dt, name):
    """The number of dt steps in ``duration``, which must be a whole number.

    Whole means to within 1e-9 of max(1, duration); otherwise ValueError
    naming ``name``, as also for a non-finite duration (or ``dt``).
    Simulation spans, regression intervals and the configured horizons
    are all checked by this one rule.
    """
    for label, value in ((name, duration), ("dt", dt)):
        if not math.isfinite(value):
            raise ValueError(f"{label} = {value} is not finite")
    steps = int(round(duration / dt))
    if abs(steps * dt - duration) > 1e-9 * max(1.0, duration):
        raise ValueError(f"{name} = {duration} is not an integer multiple of dt = {dt}")
    return steps


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


def _matrix_powers(a, count):
    """The stack a^1, ..., a^count, shape (count, d, d)."""
    powers = np.empty((count,) + a.shape)
    powers[0] = a
    for j in range(1, count):
        powers[j] = a @ powers[j - 1]
    return powers


def _scan_chunk(zs, k0, forced, powers):
    """Write zs[k0+1 : k0+1+len(forced)] of z+ = Phi z + f, started from zs[k0].

    ``powers`` stacks Phi^1..Phi^s. The steps are cut into blocks of s;
    the forced responses y_{b,j} of all blocks from a zero state take s
    vectorised steps, the block starts z_{b+1,0} = Phi^s z_{b,0} + y_{b,s-1}
    one step per block, and every sample is then
    z_{b,j+1} = Phi^(j+1) z_{b,0} + y_{b,j} in one product.
    """
    steps = len(forced)
    s, d = powers.shape[:2]
    blocks = -(-steps // s)
    y = np.zeros((blocks, s, d))  # the trailing block is zero-padded
    y.reshape(-1, d)[:steps] = forced
    phi_t = powers[0].T
    for j in range(1, s):
        y[:, j] += y[:, j - 1] @ phi_t
    starts = np.empty((blocks, d))
    starts[0] = zs[k0]
    for b in range(1, blocks):
        starts[b] = powers[-1] @ starts[b - 1] + y[b - 1, -1]
    y += np.tensordot(starts, powers, axes=([1], [2]))
    zs[k0 + 1 : k0 + 1 + steps] = y.reshape(-1, d)[:steps]


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
    """One PBH rank test at one test point of the complex plane.

    ``ok`` is set on construction: rank >= required. The fields, in order,
    are the keys of one record in ``report.json``'s ``assumptions``.
    """

    test: str
    eigenvalue: complex
    rank: int
    required: int
    margin: float
    ok: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ok", self.rank >= self.required)


@dataclass
class AssumptionReport:
    """Diagnostics for stabilizability, observability, and regulator rank.

    The flags are set from ``records`` on construction: ``ok`` when every
    record passes, each other flag when every record of its test does.
    The fields, in order, are the keys of ``report.json``'s ``assumptions``.
    """

    ok: bool = field(init=False)
    stabilizable: bool = field(init=False)
    observable: bool = field(init=False)
    regulator_rank_ok: bool = field(init=False)
    records: list[PbhRecord]

    def __post_init__(self):
        self.ok = all(r.ok for r in self.records)
        self.stabilizable, self.observable, self.regulator_rank_ok = (
            all(r.ok for r in self.records if r.test == test)
            for test in ("stabilizability", "observability", "regulator_rank"))


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
    eye, eig_a = np.eye(n), _distinct(np.linalg.eigvals(A))
    # (test, test points, PBH pencil at a point, required rank), in record order
    tests = (
        ("stabilizability", [lam for lam in eig_a if lam.real >= -1e-12],
         lambda lam: np.hstack([A - lam * eye, B]), n),
        ("observability", eig_a, lambda lam: np.vstack([A - lam * eye, C]), n),
        ("regulator_rank", _distinct(np.linalg.eigvals(exo.E)),
         lambda lam: np.block([[A - lam * eye, B], [C, np.zeros((p, model.m))]]), n + p),
    )
    records = []
    for test, points, pencil, required in tests:
        for lam in points:
            rank, margin = numerical_rank(pencil(lam), required)
            records.append(PbhRecord(test, complex(lam), rank, required, margin))
    return AssumptionReport(records)
