"""Matrix and vectorization utilities.

Conventions used throughout the toolkit:

* ``vec`` stacks matrix columns (Fortran order), so that
  ``vec(A X B) = kron(B.T, A) @ vec(X)``.
* ``vecs`` maps a symmetric matrix to its upper triangle scanned row by
  row with off-diagonal entries doubled:
  ``vecs(P) = [p11, 2 p12, ..., 2 p1n, p22, 2 p23, ..., pnn]``.
* ``vecv`` maps a vector to its ordered pairwise products:
  ``vecv(x) = [x1^2, x1 x2, ..., x1 xn, x2^2, ..., xn^2]``.

The pairing of the two is the quadratic-form identity

    x' P x == dot(vecs(P), vecv(x))

which the regression machinery in :mod:`adpdock.adp` relies on; both
orderings are frozen because they define regression column layouts.

* ``vecv_map(T)`` is the matrix that carries ``vecv`` through a linear
  map: for any r x d matrix ``T`` and d-vector ``z``,

      vecv(T z) == vecv_map(T) @ vecv(z),

  with shape ``(r(r+1)/2, d(d+1)/2)``. Entry ((a, b), (c, e)) is
  ``T[a, c] T[b, e] + T[a, e] T[b, c]`` for c < e and ``T[a, c] T[b, c]``
  on the diagonal c == e. Together with ``kron(T, I) (z (*) w) ==
  (T z) (*) w`` it lets a quadratic moment of ``z`` be integrated once
  and then shifted to any ``T z``.

:func:`write_csv` is the one CSV artifact writer. Its bytes equal
``numpy.savetxt(path, data, delimiter=",", header=header, comments="",
fmt=fmt)``, and it splits the formatting across forked workers.
"""

from __future__ import annotations

import os
import signal
import warnings

import numpy as np
from scipy.linalg import block_diag

from .errors import RankDeficiencyError

__all__ = [
    "kron",
    "vec",
    "unvec",
    "vecs",
    "unvecs",
    "vecv",
    "vecv_map",
    "bdiag",
    "equilibrate",
    "lstsq",
    "is_hurwitz",
    "write_csv",
]

#: Tolerance under which a nominally symmetric matrix is accepted and
#: symmetrized by averaging. VI updates accumulate roundoff asymmetry.
SYMMETRY_ATOL = 1e-10


def _as_matrix(a, name="matrix", dtype=float):
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def kron(a, b):
    """Kronecker product of two matrices.

    Parameters
    ----------
    a, b : array_like
        Real matrices.

    Returns
    -------
    ndarray
        Matrix of shape ``(a.rows * b.rows, a.cols * b.cols)``.
    """
    return np.kron(_as_matrix(a, "a"), _as_matrix(b, "b"))


def vec(a):
    """Column-stacking vectorization, ``vec(A X B) = kron(B.T, A) vec(X)``."""
    return _as_matrix(a).flatten(order="F")


def unvec(s, rows, cols):
    """Inverse of :func:`vec` for a known shape."""
    s = np.asarray(s, dtype=float)
    if s.size != rows * cols:
        raise ValueError(f"cannot reshape length {s.size} into {rows}x{cols}")
    return s.reshape((rows, cols), order="F")


def vecs(p, atol=SYMMETRY_ATOL):
    """Half-vectorization of a symmetric matrix with doubled off-diagonals.

    Parameters
    ----------
    p : array_like
        Square matrix, symmetric within ``atol``. It is symmetrized by
        averaging before extraction.
    atol : float
        Largest tolerated asymmetry ``max|p - p.T|``.

    Returns
    -------
    ndarray
        Vector of length ``n(n+1)/2`` in row-scan upper-triangular order.

    Raises
    ------
    ValueError
        If ``p`` is not square or exceeds the symmetry tolerance.
    """
    p = _as_matrix(p, "p")
    n = p.shape[0]
    if p.shape[1] != n:
        raise ValueError(f"p must be square, got {p.shape}")
    skew = np.abs(p - p.T).max()
    if skew > atol:
        raise ValueError(f"p asymmetric beyond tolerance: max|p - p.T| = {skew:.3e}")
    p = 0.5 * (p + p.T)
    iu, ju = np.triu_indices(n)
    weights = np.where(iu == ju, 1.0, 2.0)
    return p[iu, ju] * weights


def unvecs(s):
    """Rebuild the symmetric matrix encoded by :func:`vecs`.

    Off-diagonal entries are halved to undo the doubling.
    """
    s = np.asarray(s, dtype=float)
    # n(n+1)/2 = len  =>  n = (sqrt(8 len + 1) - 1) / 2
    n = int(round((np.sqrt(8 * s.size + 1) - 1) / 2))
    if n * (n + 1) // 2 != s.size:
        raise ValueError(f"length {s.size} is not a triangular number")
    iu, ju = np.triu_indices(n)
    m = np.zeros((n, n))
    m[iu, ju] = s * np.where(iu == ju, 1.0, 0.5)
    return m + np.triu(m, 1).T


def vecv(v):
    """Ordered pairwise products of a vector's entries.

    ``vecv([a, b]) == [a^2, ab, b^2]``; length ``n(n+1)/2``. Accepts a
    single vector or a batch of row vectors (2-D input, one vector per
    row), in which case one ``vecv`` row is produced per input row.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        outer = np.outer(v, v)
        iu, ju = np.triu_indices(v.size)
        return outer[iu, ju]
    if v.ndim == 2:
        iu, ju = np.triu_indices(v.shape[1])
        return v[:, iu] * v[:, ju]
    raise ValueError(f"v must be 1-D or 2-D, got shape {v.shape}")


def vecv_map(t):
    """Linear map V with ``vecv(t @ z) == V @ vecv(z)`` for every z.

    Parameters
    ----------
    t : array_like, shape (r, d)
        Any real matrix.

    Returns
    -------
    ndarray
        Matrix of shape ``(r(r+1)/2, d(d+1)/2)`` in the ``vecv`` row and
        column orderings.
    """
    t = _as_matrix(t, "t")
    r, d = t.shape
    ia, ib = np.triu_indices(r)
    ic, ie = np.triu_indices(d)
    # z_c z_e appears once in vecv(z) for c < e but twice in (Tz)_a (Tz)_b
    v = t[ia][:, ic] * t[ib][:, ie] + t[ia][:, ie] * t[ib][:, ic]
    v[:, ic == ie] *= 0.5
    return v


def bdiag(blocks):
    """Block-diagonal composition of a nonempty list of matrices."""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("bdiag requires at least one block")
    return block_diag(*[_as_matrix(b, "block") for b in blocks])


def equilibrate(theta):
    """Scale every column of ``theta`` to unit 2-norm; returns (scaled, scales).

    Rescaling columns does not change the unique full-rank least-squares
    solution, but it makes the rank decision independent of column scales
    that span many orders of magnitude. Zero columns keep scale 1. This is
    the one matrix on which both :func:`lstsq` and the data-rank check
    decide rank.
    """
    theta = _as_matrix(theta, "theta")
    col_scale = np.linalg.norm(theta, axis=0)
    col_scale[col_scale == 0.0] = 1.0
    return theta / col_scale, col_scale


def lstsq(theta, rhs):
    """Least-squares solve with an explicit full-column-rank requirement.

    Parameters
    ----------
    theta : array_like, shape (rows, cols)
        Regression matrix, ``rows >= cols``.
    rhs : array_like
        Right-hand side vector or matrix with ``rows`` rows.

    Returns
    -------
    solution : ndarray
        Minimum-residual solution (unique under the rank precondition).
    residual_norm : float
        ``|theta @ solution - rhs|`` in the Frobenius/2-norm.

    Raises
    ------
    RankDeficiencyError
        If the numerical rank of the column-equilibrated ``theta`` (see
        :func:`equilibrate`) falls below its column count. The threshold
        is ``max(rows, cols) * eps * sigma_max``.
    """
    theta = _as_matrix(theta, "theta")
    rhs = np.asarray(rhs, dtype=float)
    rows, cols = theta.shape
    if rows < cols:
        raise ValueError(f"theta has {rows} rows < {cols} cols; system is underdetermined")
    scaled, col_scale = equilibrate(theta)
    # rcond=None is numerical_rank's threshold max(rows, cols) * eps * sigma_max
    solution, _, rank, _ = np.linalg.lstsq(scaled, rhs, rcond=None)
    if rank < cols:
        raise RankDeficiencyError(
            f"regression matrix rank {rank} < {cols} columns", rank=rank, required=cols
        )
    solution = (solution.T / col_scale).T
    residual_norm = float(np.linalg.norm(theta @ solution - rhs))
    return solution, residual_norm


def numerical_rank(a, required=None):
    """Numerical rank of a real or complex matrix via SVD.

    Singular values above ``max(rows, cols) * eps * sigma_max`` count.
    With ``required`` given, returns ``(rank, margin)`` where margin is
    the ``required``-th largest singular value (0.0 if there are fewer).
    """
    a = np.asarray(a)
    a = _as_matrix(a, "a", dtype=np.result_type(a, float))
    sv = np.linalg.svd(a, compute_uv=False)
    threshold = max(a.shape) * np.finfo(float).eps * sv[0] if sv.size else 0.0
    rank = int(np.sum(sv > threshold))
    if required is None:
        return rank
    return rank, float(sv[required - 1]) if sv.size >= required else 0.0


def check_weights(Q, R, n, m, names=("Q", "R")):
    """Validate a cost pair: Q symmetric PSD n x n, R symmetric PD m x m.

    None stands for the identity and ``names`` label the pair in error
    messages. Returns both as float arrays; raises ValueError otherwise.
    """
    q_name, r_name = names
    Q = np.eye(n) if Q is None else np.asarray(Q, dtype=float)
    R = np.eye(m) if R is None else np.asarray(R, dtype=float)
    for name, M, dim in ((q_name, Q, n), (r_name, R, m)):
        if M.shape != (dim, dim) or not np.allclose(M, M.T):
            raise ValueError(f"{name} must be symmetric {dim}x{dim}")
    if np.min(np.linalg.eigvalsh(Q)) < -1e-10:
        raise ValueError(f"{q_name} must be positive semidefinite")
    if np.min(np.linalg.eigvalsh(R)) <= 0:
        raise ValueError(f"{r_name} must be positive definite")
    return Q, R


def is_hurwitz(a, margin=0.0):
    """True iff every eigenvalue of ``a`` has real part below ``-margin``.

    Parameters
    ----------
    a : array_like
        Square matrix.
    margin : float
        Nonnegative stability margin.
    """
    a = _as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"a must be square, got {a.shape}")
    if margin < 0:
        raise ValueError("margin must be >= 0")
    return bool(np.all(np.linalg.eigvals(a).real < -margin))


#: Rows formatted by one ``%`` in :func:`write_csv`. The writing process
#: holds about 1 KB per 17-column row of a block while it formats one, so
#: a small block keeps its peak memory flat at no measurable speed cost.
CSV_BLOCK_ROWS = 256
#: Fewest values worth a forked worker. A worker costs milliseconds: split
#: over two CPUs, the 28k-value VI history took 8 ms longer to write.
FORK_MIN_VALUES = 1 << 16
_PIPE_READ_BYTES = 1 << 16


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _format_rows(data, row_fmt, start, stop, write):
    """Pass rows ``start:stop`` of ``data`` to ``write`` as ASCII, one block at a time."""
    for lo in range(start, stop, CSV_BLOCK_ROWS):
        block = data[lo:min(lo + CSV_BLOCK_ROWS, stop)]
        write((row_fmt * len(block) % tuple(block.ravel().tolist())).encode("ascii"))


def _fork_worker(data, row_fmt, start, stop):
    """Fork a child that sends rows ``start:stop`` down a pipe; returns (pid, read fd).

    Forking with OpenBLAS threads alive is safe because the child only
    formats, writes and leaves through ``os._exit``: it calls no BLAS
    routine, takes no lock another thread could have held at the fork,
    and runs none of the parent's exit handlers or buffer flushes. The
    DeprecationWarning that Python 3.12+ gives for forking a
    multi-threaded process is therefore silenced. (OpenBLAS's own at-fork
    handler stops its pool; the parent restarts it on its next BLAS call,
    which costs it just under 1 MB of resident memory once.) The child
    formats its whole range before writing, so a full pipe does not stall
    it while the parent formats range 0.
    """
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=r".*fork\(\)", category=DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            chunks = []
            _format_rows(data, row_fmt, start, stop, chunks.append)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.writelines(chunks)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def write_csv(path, data, header, fmt="%.17g"):
    """Write a 2-D array as comma-separated rows, byte-identical to ``numpy.savetxt``.

    Parameters
    ----------
    path : str or path-like
        Output file, overwritten.
    data : array_like, shape (rows, cols)
        Values, formatted row by row.
    header : str
        First line (written without a comment prefix); empty for none.
    fmt : str or sequence of str
        One ``%`` format for every column, or one per column.

    The rows are split into contiguous ranges, one per usable CPU but no
    more than one per :data:`FORK_MIN_VALUES` values, and a single range
    where ``os.fork`` is missing. This process formats the first range
    straight into the file; a forked child formats each other range, and
    its pipe is copied into the file in bounded reads and in row order,
    so the whole text is never held in memory.

    Raises
    ------
    OSError
        If a child fails or sends fewer rows than its range holds. Every
        child is reaped before this function returns or raises.
    """
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-D, got shape {data.shape}")
    rows, cols = data.shape
    fmts = [fmt] * cols if isinstance(fmt, str) else list(fmt)
    if len(fmts) != cols:
        raise ValueError(f"{len(fmts)} formats for {cols} columns")
    row_fmt = ",".join(fmts) + "\n"
    workers = 1
    if hasattr(os, "fork"):
        workers = max(1, min(_usable_cpus(), rows * cols // FORK_MIN_VALUES))
    bounds = [rows * i // workers for i in range(workers + 1)]
    children = []
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            children.append((*_fork_worker(data, row_fmt, start, stop), stop - start))
        with open(path, "wb") as fh:
            if header:
                fh.write((header + "\n").encode("ascii"))
            _format_rows(data, row_fmt, 0, bounds[1], fh.write)
            # one reused buffer: a fresh bytes object per read grows the heap
            buf = bytearray(_PIPE_READ_BYTES)
            view = memoryview(buf)
            while children:
                pid, read_fd, expected = children[0]
                received = 0
                while size := os.readv(read_fd, [buf]):
                    received += buf.count(b"\n", 0, size)
                    fh.write(view[:size])
                os.close(read_fd)
                children.pop(0)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if code != 0 or received != expected:
                    raise OSError(f"CSV worker {pid} exited with code {code} "
                                  f"after sending {received} of {expected} rows")
    finally:
        for pid, read_fd, _ in children:
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
