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

:func:`write_csv` is the one CSV artifact writer. It writes each value
as the shortest round-trip decimal (orjson's compiled formatter), so
values read back bit for bit with :func:`read_csv`, ``numpy.loadtxt``
or ``float``, and it formats the rows in the calling process.
:func:`read_csv` reads such a file back in one pass of chunks in this
process, with orjson where a chunk is plain numbers and
``numpy.loadtxt`` elsewhere; its values equal a whole-file
``numpy.loadtxt``. :func:`write_csv_in_background` writes
:func:`write_csv`'s bytes from one forked child while the caller goes
on with other work.

That child only saves time. Its work counts once this process has
received its one byte, and where the byte does not come, this process
writes the file itself by the serial code. So every failure raises the
serial code's own error, and the child's exit status is not read.

:func:`write_json` is the one JSON artifact writer: two-space indents and
a final newline. What the ``json`` module cannot encode itself goes
through :func:`_jsonable`: a dataclass becomes its fields in declaration
order, so each result dataclass is the schema of the artifact it becomes;
an array or numpy scalar becomes its ``tolist()``, and a complex number
``[real, imag]``. Anything else raises TypeError.

:func:`one_blas_thread` runs a block, or a decorated function, with
numpy's OpenBLAS set to one thread. Every matrix of the learning chain
is small (at most a few thousand by a hundred), so a second BLAS thread
only adds wake-ups; and an OpenBLAS left at two threads keeps a worker
thread spinning after its last call, on the CPU that a forked CSV
writer needs. :func:`_split_over_cpus` splits assembly over threads, one
per usable CPU above a size floor.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import re
import signal
import threading
import warnings
from contextlib import contextmanager
from functools import cache, partial
from itertools import chain

import numpy as np

from .errors import RankDeficiencyError

__all__ = [
    "kron",
    "vec",
    "unvec",
    "vecs",
    "unvecs",
    "vecv",
    "bdiag",
    "equilibrate",
    "lstsq",
    "is_hurwitz",
    "write_csv",
    "write_csv_in_background",
    "read_csv",
    "write_json",
    "one_blas_thread",
]

#: Tolerance under which a nominally symmetric matrix is accepted and
#: symmetrized by averaging. VI updates accumulate roundoff asymmetry.
SYMMETRY_ATOL = 1e-10


def require_finite(a, name):
    """``a`` itself; ValueError ``<name> contains non-finite entries`` if any entry is not finite.

    The one non-finite rule for arrays handed to the toolkit.
    """
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _as_matrix(a, name="matrix", dtype=float):
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    return require_finite(a, name)


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


def vecs(p):
    """Half-vectorization of a symmetric matrix with doubled off-diagonals.

    Parameters
    ----------
    p : array_like
        Square matrix, symmetric within :data:`SYMMETRY_ATOL` (the largest
        tolerated ``max|p - p.T|``). It is symmetrized by averaging before
        extraction.

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
    if skew > SYMMETRY_ATOL:
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


def bdiag(blocks):
    """Block-diagonal composition of a nonempty list of matrices.

    Blocks need not be square; block i occupies the rows and columns
    that follow those of block i - 1, and every other entry is zero.
    """
    blocks = [_as_matrix(b, "block") for b in blocks]
    if not blocks:
        raise ValueError("bdiag requires at least one block")
    rows, cols = np.sum([b.shape for b in blocks], axis=0)
    out = np.zeros((rows, cols))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def equilibrate(theta, out=None):
    """Scale every column of ``theta`` to unit 2-norm; returns (scaled, scales).

    Rescaling columns does not change the unique full-rank least-squares
    solution, but it makes the rank decision independent of column scales
    that span many orders of magnitude. Zero columns keep scale 1. This is
    the one matrix on which :func:`lstsq` decides rank, and with it the
    data-rank check. The scaled columns are written to ``out`` when it is
    given (an array of ``theta``'s shape), so a caller can place them in
    a larger buffer without a second copy.
    """
    theta = _as_matrix(theta, "theta")
    col_scale = np.linalg.norm(theta, axis=0)
    col_scale[col_scale == 0.0] = 1.0
    return np.divide(theta, col_scale, out=out), col_scale


def lstsq(theta, rhs):
    """Least-squares solve with an explicit full-column-rank requirement.

    One thin Householder QR of [equilibrate(theta) | rhs] answers both
    questions. The singular values of its leading triangle are those of
    the equilibrated ``theta``, so they decide the rank; the same
    triangle gives the solution by back substitution, and the trailing
    block of the factor holds the part of ``rhs`` outside theta's column
    space, whose norm is the residual.

    Parameters
    ----------
    theta : array_like, shape (rows, cols)
        Regression matrix; full column rank needs ``rows >= cols``.
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
        :func:`equilibrate`) falls below its column count, as it does
        whenever ``rows < cols``. The threshold is
        ``max(rows, cols) * eps * sigma_max``.
    ValueError
        If ``rhs`` is not a vector or matrix with ``rows`` rows.
    """
    theta = _as_matrix(theta, "theta")
    rhs = np.asarray(rhs, dtype=float)
    rows, cols = theta.shape
    if rhs.ndim not in (1, 2) or len(rhs) != rows:
        raise ValueError(f"rhs must be a vector or matrix with {rows} rows, got shape {rhs.shape}")
    # column-major: the layout LAPACK factors in, so the factor's own copy is a plain one
    stacked = np.empty((rows, cols + (rhs.shape[1] if rhs.ndim == 2 else 1)), order="F")
    _, col_scale = equilibrate(theta, out=stacked[:, :cols])
    stacked[:, cols:] = rhs[:, None] if rhs.ndim == 1 else rhs
    factor = np.linalg.qr(stacked, mode="r")
    # the threshold takes theta's shape: rows count intervals, not the factor's rows
    rank = _svd_rank(np.linalg.svd(factor[:min(rows, cols), :cols], compute_uv=False),
                     theta.shape)
    if rank < cols:
        raise RankDeficiencyError(f"regression matrix rank {rank} < {cols} columns", rank=rank,
                                  required=cols)
    # upper triangular: partial pivoting swaps no row, so solve's LU is the triangle itself
    solution = np.linalg.solve(factor[:cols, :cols], factor[:cols, cols:]) / col_scale[:, None]
    residual_norm = float(np.linalg.norm(factor[cols:, cols:]))
    return (solution[:, 0] if rhs.ndim == 1 else solution), residual_norm


def numerical_rank(a, required=None):
    """Numerical rank of a real or complex matrix via SVD.

    Singular values above ``max(rows, cols) * eps * sigma_max`` count.
    With ``required`` given, returns ``(rank, margin)`` where margin is
    the ``required``-th largest singular value (0.0 if there are fewer).

    This is the package's one rank helper: the PBH checks of
    :func:`sysmodels.check_assumptions`, the observability check of
    :func:`riccati.kleinman_pi`, the row rank of C in
    :func:`regulator.kernel_basis` and the column rank of the identified B
    in :func:`adp.solve_problem1_datadriven` call it. :func:`lstsq` and
    :func:`regulator.solve_regulator_exact` factor their matrix anyway
    and count its singular values by the same rule (:func:`_svd_rank`).
    """
    a = np.asarray(a)
    a = _as_matrix(a, "a", dtype=np.result_type(a, float))
    sv = np.linalg.svd(a, compute_uv=False)
    rank = _svd_rank(sv, a.shape)
    if required is None:
        return rank
    return rank, float(sv[required - 1]) if sv.size >= required else 0.0


def _svd_rank(sv, shape):
    """Count of the singular values ``sv`` above ``max(shape) * eps * sigma_max``."""
    threshold = max(shape) * np.finfo(float).eps * sv[0] if sv.size else 0.0
    return int(np.sum(sv > threshold))


def _weight(value, dim, name):
    """``value`` as a symmetric ``dim`` x ``dim`` matrix, read by :func:`check_weights`'s forms.

    Definiteness is left to the caller.
    """
    if value is None:
        return np.eye(dim)
    M = np.asarray(value, dtype=float)
    if M.ndim < 2:
        flat = M.ravel()
        if flat.size == 1:
            M = float(flat[0]) * np.eye(dim)
        elif flat.size == dim:
            M = np.diag(flat)
        elif flat.size == dim * dim:
            M = flat.reshape(dim, dim)
        else:
            raise ValueError(f"{name} needs 1, {dim}, or {dim * dim} values, got {flat.size}")
    if M.shape != (dim, dim) or not np.allclose(M, M.T):
        raise ValueError(f"{name} must be symmetric {dim}x{dim}")
    return M


def check_input_weight(R, m, name="R"):
    """Resolve and validate an input weight alone: R symmetric PD m x m.

    The R half of :func:`check_weights`, in the same weight forms, for
    the stages that take R without Q. Returns R as a float matrix; raises
    ValueError naming ``name`` otherwise.
    """
    R = _weight(R, m, name)
    if np.min(np.linalg.eigvalsh(R)) <= 0:
        raise ValueError(f"{name} must be positive definite")
    return R


def check_weights(Q, R, n, m, names=("Q", "R")):
    """Resolve and validate a cost pair: Q symmetric PSD n x n, R symmetric PD m x m.

    The one weight rule. A weight is None for the identity, one value for
    that multiple of the identity, ``dim`` values for the diagonal,
    ``dim**2`` values for the matrix row by row, or a ``dim`` x ``dim``
    matrix; ``dim`` is n for Q and m for R. ``names`` label the pair in
    error messages. Returns both as float matrices; raises ValueError
    otherwise.
    """
    Q = _weight(Q, n, names[0])
    if np.min(np.linalg.eigvalsh(Q)) < -1e-10:
        raise ValueError(f"{names[0]} must be positive semidefinite")
    return Q, check_input_weight(R, m, names[1])


def is_hurwitz(a):
    """True iff every eigenvalue of the square matrix ``a`` has negative real part."""
    a = _as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"a must be square, got {a.shape}")
    return bool(np.all(np.linalg.eigvals(a).real < 0))


#: (get, set) names of OpenBLAS's thread-count functions: the prefixed build
#: that numpy 2's wheels bundle (``scipy_openblas64_``, 64-bit integers) first,
#: then plain builds.
_OPENBLAS_THREAD_SYMBOLS = [(f"{prefix}_get_num_threads{suffix}",
                             f"{prefix}_set_num_threads{suffix}")
                            for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]


@cache
def _find_openblas():
    """(get, set): the thread-count functions of numpy's OpenBLAS, or None where none is found.

    Looks in ``numpy.libs``, where numpy's wheel bundles its OpenBLAS, and
    only at a library this process has already loaded (``RTLD_NOLOAD``), so
    no further copy is ever loaded. Looked up once per process, on the
    first call.
    """
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


_pin_lock = threading.Lock()
_pin_depth = 0  # one_blas_thread blocks open, in every thread
_pin_restore = None  # (set, count) to apply on leaving the outermost block, or None


@contextmanager
def one_blas_thread():
    """Run a block, or every call of a decorated function, on one OpenBLAS thread.

    Entering the outermost block sets numpy's OpenBLAS to one thread, and
    leaving it restores the count it had, also when the block raises; a
    count that is already one is left alone. An entry while another block
    is open, in this thread or another, changes nothing. The library is
    looked up on the first entry (:func:`_find_openblas`), never at import;
    where it has no thread control, the block runs with the count as it is.

    A library left at two threads is not idle after its last call: its
    worker spins for a while, on the CPU a forked CSV writer needs.
    """
    global _pin_depth, _pin_restore
    with _pin_lock:
        if _pin_depth == 0 and (control := _find_openblas()) is not None:
            get, put = control
            count = get()
            if count != 1:
                put(1)
                _pin_restore = put, count
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0 and _pin_restore is not None:
                put, count = _pin_restore
                _pin_restore = None
                put(count)


#: Rows formatted by one ``orjson.dumps`` in :func:`write_csv`. The writing
#: process holds about 0.4 KB of text per 21-column row of a block while it
#: formats one, so a block keeps its peak memory flat; the 25,001 x 21
#: learning table took 54 ms at 1024 rows and 72 ms at 256.
CSV_BLOCK_ROWS = 1024
#: Fewest values worth a thread of their own in :func:`_split_over_cpus`, so
#: a second thread starts from twice this (262k values). On a 2-vCPU VM a
#: second assembly thread cost 0.1-0.16 ms at 7.7k and 10k samples of 17
#: values, broke even near 15k samples (255k values) and saved 2 ms at 100k.
THREAD_MIN_VALUES = 1 << 17
#: Bytes of whole lines that :func:`read_csv` parses with one ``orjson.loads``.
CSV_CHUNK_BYTES = 1 << 16
#: Bytes that :func:`read_csv` reads at a time while it counts the lines. A
#: freed block this large raises glibc's mmap threshold above the learning
#: chain's temporaries, which then reuse heap pages instead of faulting in
#: fresh ones. On a 2-vCPU VM, reading learn-long's 40.5 MB log before the
#: chain (perfbench, 6 rounds): 1 MiB blocks made the chain's ``run_s``
#: 26.6 ms against 25.0 ms at 8 MiB (slower in 5 of 6), and 32 MiB blocks
#: raised peak RSS from 57.5 to 71.3 MB, the heap keeping a block resident.
_COUNT_BLOCK_BYTES = 8 << 20
#: Bytes that send a chunk to ``numpy.loadtxt``. JSON's true, false, null,
#: strings, lists and objects hold one of them, and orjson would read each
#: where ``numpy.loadtxt`` rejects it; so do nan and inf, which JSON lacks.
_NOT_NUMBERS = (b"t", b"f", b"n", b'"', b"[", b"]", b"{")
#: The integer token ``-0``, which orjson reads as 0 and so drops its sign.
#: A pattern, not a compiled one: ``re`` compiles it on the first use, not
#: at import.
_INTEGER_MINUS_ZERO = rb"-0(?![\d.eE])"


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _split_over_cpus(task, count, values):
    """``[task(chunk) for chunk in chunks]``, the chunks cut contiguously from ``range(count)``.

    There is one chunk, a ``slice``, per usable CPU, but no more than one
    per :data:`THREAD_MIN_VALUES` of the ``values`` values of work, and
    no more than ``count``; so a task below that size floor, or on one
    usable CPU, runs whole in the calling thread.
    The first chunk runs in the calling
    thread and every other one in a thread of its own; that pays where
    ``task`` spends its time in numpy calls that release the GIL. Every
    thread is joined before this returns or raises, so none outlives the
    call and a later ``os.fork`` forks a single-threaded process. An
    exception raised by ``task`` is raised here, the earliest chunk's
    first.
    """
    parts = max(1, min(_usable_cpus(), values // THREAD_MIN_VALUES, count))
    chunks = [slice(count * i // parts, count * (i + 1) // parts) for i in range(parts)]
    results, errors = [None] * parts, [None] * parts

    def run(i):
        try:
            results[i] = task(chunks[i])
        except Exception as exc:  # raised by the caller once every thread is joined
            errors[i] = exc

    threads = []
    try:
        for i in range(1, parts):
            thread = threading.Thread(target=run, args=(i,))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _fork_worker(send):
    """Fork a child that calls ``send(pipe)`` on the write end of a new pipe; returns (pid, read fd).

    Forking with OpenBLAS threads alive is safe because the child only
    writes a CSV file, sends one byte and leaves through ``os._exit``: it
    calls no BLAS routine, takes no lock another thread could have held at
    the fork, and runs none of the parent's exit handlers or buffer flushes.
    The DeprecationWarning that Python 3.12+ gives for forking a
    multi-threaded process is therefore silenced. (OpenBLAS's own at-fork
    handler stops its pool. Outside :func:`one_blas_thread` the parent
    restarts numpy's pool on its next BLAS call, which costs it just
    under 1 MB of resident memory once; inside it, on one thread, no pool
    is restarted.)
    The child's pipe closes when ``send`` returns or raises, and the
    child then leaves with no traceback. Its exit status means nothing:
    what it sent down the pipe is all it delivers.
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
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                send(pipe)
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, read_fd


def _format_rows(data, write):
    """Pass the rows of the 2-D array ``data`` to ``write`` as ASCII, one block at a time.

    Each value is the shortest decimal that reads back to the same double,
    as orjson's numpy serializer writes it; orjson would write ``null``
    for a non-finite value, which :func:`write_csv` rejects beforehand.
    A block is dumped flat, so ``data`` needs at least one column for its
    commas to mark the row ends.
    """
    import orjson  # here, not at module import, so that importing adpdock does not load it

    data = np.ascontiguousarray(data, dtype=float)
    cols = data.shape[1]
    for lo in range(0, len(data), CSV_BLOCK_ROWS):
        block = data[lo:lo + CSV_BLOCK_ROWS].reshape(-1)
        text = bytearray(orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY))
        # [a,b,c,d] -> a,b\nc,d\n in place: every cols-th comma and the closing ] end a row
        chars = np.frombuffer(text, dtype=np.uint8)
        chars[np.flatnonzero(chars == ord(","))[cols - 1::cols]] = ord("\n")
        chars[-1] = ord("\n")
        write(memoryview(text)[1:])


def write_csv(path, data, header):
    """Write a 2-D array of finite values as comma-separated rows.

    Parameters
    ----------
    path : str or path-like
        Output file, overwritten.
    data : array_like, shape (rows, cols)
        Finite values, formatted row by row, each as the shortest decimal
        that reads back to the same double: every value reads back bit for
        bit with :func:`read_csv`, ``numpy.loadtxt`` or ``float``.
    header : str
        First line (written without a comment prefix); empty for none.

    The rows are formatted in this process, :data:`CSV_BLOCK_ROWS` at a
    time, and each block is written before the next is formatted, so the
    whole text is never held in memory.

    Raises
    ------
    ValueError
        If ``data`` is not 2-D, has no column or holds a non-finite value,
        or ``header`` is not ASCII. The input is checked before the file
        is opened, so a rejected call leaves no file behind.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-D, got shape {data.shape}")
    if data.shape[1] == 0:
        raise ValueError(f"data must have at least one column, got shape {data.shape}")
    require_finite(data, "data")
    if not header.isascii():
        raise ValueError(f"header must be ASCII, got {header!r}")
    with open(path, "wb") as fh:
        if header:
            fh.write((header + "\n").encode("ascii"))
        _format_rows(data, fh.write)


def _write_whole(path, table, pipe):
    """Write the CSV of ``table()``, then send one byte down ``pipe``: the file is complete."""
    write_csv(path, *table())
    pipe.write(b"\0")


@contextmanager
def write_csv_in_background(path, table):
    """Write a CSV from one forked child while the with-block runs.

    ``table()`` returns the ``(data, header)`` pair that :func:`write_csv`
    takes, and the file holds the same bytes. The child calls it and
    formats every row, so this process never holds the array; it sends
    one byte once :func:`write_csv` has returned. Leaving the block,
    also when it raises, waits for that byte or the child's end, and the
    child is reaped. Where the byte does not come (the child failed, or
    ``os.fork`` is missing), this process writes the file itself with
    :func:`write_csv` on leaving the block, so the file is complete
    whenever that write succeeds. Its error propagates, also over an
    error in the block (which becomes its ``__context__``): a write made
    before the block, in one process, would have failed first. The child
    is reaped before that write, and killed first if the wait for its
    byte is interrupted; its exit status is not read.
    """
    child = _fork_worker(partial(_write_whole, path, table)) if hasattr(os, "fork") else None
    try:
        yield
    finally:
        delivered = False
        if child is not None:
            pid, read_fd = child
            try:
                delivered = os.read(read_fd, 1) == b"\0"
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                os.close(read_fd)
                os.waitpid(pid, 0)
        if not delivered:
            write_csv(path, *table())


def _jsonable(obj):
    """The ``default`` of :func:`write_json`; its rules are in the module docstring."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path, payload):
    """Write ``payload`` as JSON, encoding through :func:`_jsonable`."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=_jsonable)
        fh.write("\n")


def _json_chunk(text, fields):
    """The rows of ``text``, whole lines of plain JSON numbers, parsed by orjson; None otherwise.

    None also where a row holds other than ``fields`` values or ``text``
    holds the integer ``-0``, which orjson reads without its sign. Each
    line becomes a JSON list of its own whose length is checked, so a
    short row and a long one cannot make up each other's count.
    """
    import orjson  # here, not at module import, so that importing adpdock does not load it

    if any(char in text for char in _NOT_NUMBERS):
        return None
    try:
        rows = orjson.loads(b"[[" + text.rstrip(b"\n").replace(b"\n", b"],[") + b"]]")
    except orjson.JSONDecodeError:
        return None
    if set(map(len, rows)) != {fields}:
        return None
    part = np.fromiter(chain.from_iterable(rows), float, len(rows) * fields).reshape(-1, fields)
    return None if (part == 0).any() and re.search(_INTEGER_MINUS_ZERO, text) else part


def _loadtxt_chunk(path, start, text, fields):
    """``numpy.loadtxt`` of ``text``, the whole lines at byte ``start`` of ``path``.

    An error names the file, the chunk's byte range and, for a bad row,
    its file line (:func:`_range_error`); so does a row width other than
    ``fields``.
    """
    stop = start + len(text)
    try:
        with warnings.catch_warnings():
            # a chunk of blank lines holds no rows, which a whole-file read would not warn about
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            part = np.loadtxt(io.StringIO(text.decode("ascii")), delimiter=",", ndmin=2)
    except ValueError as exc:
        raise _range_error(path, start, stop, exc) from exc
    if len(part) and part.shape[1] != fields:
        raise _range_error(path, start, stop,
                           f"rows hold {part.shape[1]} values, the header names {fields} columns")
    return part


def _range_error(path, start, stop, reason):
    """A ValueError naming the file, the byte range and, for a bad row, its file line.

    ``numpy.loadtxt`` names a bad row by its place among the rows of the
    range, from 1 for a changed column count and from 0 for a value that
    does not convert; its "at row N" becomes "at line L" of the file.
    """
    reason = str(reason)
    match = re.search(r"at row (\d+)", reason)
    if match:
        line = _file_line(path, start, int(match[1]) - ("columns changed" in reason))
        if line is not None:
            reason = f"{reason[:match.start()]}at line {line}{reason[match.end():]}"
    return ValueError(f"{path}, bytes {start}:{stop}: {reason}")


def _file_line(path, start, row):
    """The line number (from 1) of row ``row`` (from 0) of the range at byte ``start``.

    Every line before ``start`` is counted; from ``start`` on, only the
    lines ``numpy.loadtxt`` reads as rows, all but empty lines and lines
    starting with '#'. Only a failed read calls this, so a good read
    makes no extra pass over the file.
    """
    with open(path, "rb") as fh:
        offset = 0
        for line, text in enumerate(fh, 1):
            if offset >= start and text.rstrip(b"\r\n") and not text.startswith(b"#"):
                if row == 0:
                    return line
                row -= 1
            offset += len(text)
    return None


def read_csv(path):
    """Read a header line and comma-separated rows of floats; returns (header, data).

    The counterpart of :func:`write_csv`. The values equal those of
    ``numpy.loadtxt(fh, delimiter=",", ndmin=2)`` with ``fh`` positioned
    after the header line, bit for bit; lines end in ``\\n`` or ``\\r\\n``.

    One pass counts the body's lines, :data:`_COUNT_BLOCK_BYTES` at a
    time, and the rows are put into one array of that many rows. A second
    pass parses the body in chunks of whole lines, each
    :data:`CSV_CHUNK_BYTES` bytes and the rest of its last line, so the
    whole text is never held in memory. A chunk of plain JSON numbers,
    every row holding as many as the header names, is parsed as one JSON
    list of rows by orjson, which is imported on the first call. Any
    other chunk, and one that holds the integer ``-0`` (orjson reads it
    as 0), is parsed by ``numpy.loadtxt``: ``nan``, ``inf``, ``+1``,
    ``.5``, blank and ``#`` lines, and rows that do not parse.

    Returns
    -------
    header : str
        The first line without its line ending.
    data : ndarray, shape (rows, cols)
        The rows, with as many columns as the header has comma-separated
        fields; no rows for a file that holds only its header.

    Raises
    ------
    ValueError
        If a row does not parse or holds another number of values than
        the header names. The message names the file, the byte range of
        the chunk that holds the row and, for a row that
        ``numpy.loadtxt`` rejects, its line in the file.
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", "replace").rstrip("\r\n")
        fields = header.count(",") + 1
        start = fh.tell()
        lines, end = 0, b"\n"
        while block := fh.read(_COUNT_BLOCK_BYTES):
            lines, end = lines + block.count(b"\n"), block[-1:]
        data = np.empty((lines + (end != b"\n"), fields))
        fh.seek(start)
        rows = 0
        while text := fh.read(CSV_CHUNK_BYTES):
            text += fh.readline()  # the rest of the chunk's last line
            part = _json_chunk(text, fields)
            if part is None:
                part = _loadtxt_chunk(path, start, text, fields)
            data[rows:rows + len(part)] = part
            rows += len(part)
            start += len(text)
    return header, data[:rows]
