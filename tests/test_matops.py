"""Vectorization conventions and small linear-algebra helpers.

The vecs/vecv and Kronecker identities here are what the regression
equation in adp relies on; tolerances are machine-level.
"""

import io
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adpdock import matops
from adpdock.errors import RankDeficiencyError
from adpdock.matops import (
    bdiag,
    is_hurwitz,
    kron,
    lstsq,
    numerical_rank,
    unvec,
    unvecs,
    vec,
    vecs,
    vecv,
    vecv_map,
    write_csv,
)

rng = np.random.default_rng(1234)


def test_vec_is_column_major():
    a = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(vec(a), [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(unvec(vec(a), 2, 2), a)


def test_kron_vec_identity():
    # a' M b == (b kron a)' vec(M), the ordering the regression rows use
    for _ in range(50):
        n, m = rng.integers(1, 7, size=2)
        a = rng.standard_normal(m)
        b = rng.standard_normal(n)
        M = rng.standard_normal((m, n))
        lhs = a @ M @ b
        rhs = kron(b[:, None], a[:, None]).ravel() @ vec(M)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_vecs_pinned_example():
    P = np.array([[1.0, 2.0], [2.0, 3.0]])
    assert np.array_equal(vecs(P), [1.0, 4.0, 3.0])
    x = np.array([5.0, 7.0])
    assert np.array_equal(vecv(x), [25.0, 35.0, 49.0])


def test_vecs_vecv_quadratic_identity():
    for _ in range(50):
        n = int(rng.integers(1, 9))
        P = rng.standard_normal((n, n))
        P = 0.5 * (P + P.T)
        x = rng.standard_normal(n)
        lhs = x @ P @ x
        rhs = vecs(P) @ vecv(x)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_vecs_unvecs_roundtrip():
    for n in (1, 2, 5, 8):
        P = rng.standard_normal((n, n))
        P = 0.5 * (P + P.T)
        assert np.allclose(unvecs(vecs(P)), P, atol=1e-14)


def test_vecs_rejects_asymmetric():
    with pytest.raises(ValueError):
        vecs(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        vecs(np.zeros((2, 3)))


def test_vecv_batch_rows():
    X = rng.standard_normal((10, 4))
    batch = vecv(X)
    assert batch.shape == (10, 10)
    for i in range(10):
        assert np.array_equal(batch[i], vecv(X[i]))


finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def map_and_batch(draw):
    """A rectangular r x d map T and a batch of d-vectors as rows."""
    r, d, rows = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 5))
    return draw(arrays(float, (r, d), elements=finite)), draw(arrays(float, (rows, d), elements=finite))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(map_and_batch())
def test_vecv_map_carries_vecv_through_linear_maps(case):
    # vecv(T z) == V(T) vecv(z), row by row over a batch of z
    T, z = case
    V = vecv_map(T)
    r, d = T.shape
    assert V.shape == (r * (r + 1) // 2, d * (d + 1) // 2)
    scale = (1.0 + np.abs(T).max()) ** 2 * (1.0 + np.abs(z).max()) ** 2
    assert np.allclose(vecv(z @ T.T), vecv(z) @ V.T, rtol=0.0, atol=1e-13 * scale)
    assert np.allclose(vecv(T @ z[0]), V @ vecv(z[0]), rtol=0.0, atol=1e-13 * scale)


def test_vecv_map_pinned_example():
    # (a + 2b)^2, (a + 2b)(3a), (3a)^2 over vecv([a, b]) = [a^2, ab, b^2]
    T = np.array([[1.0, 2.0], [3.0, 0.0]])
    assert np.array_equal(vecv_map(T), [[1.0, 4.0, 4.0], [3.0, 6.0, 0.0], [9.0, 0.0, 0.0]])
    assert np.array_equal(vecv_map(np.eye(4)), np.eye(10))


def test_bdiag_layout():
    blocks = [np.array([[1.0, 2.0]]), np.array([[3.0]])]
    expected = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
    assert np.array_equal(bdiag(blocks), expected)
    with pytest.raises(ValueError):
        bdiag([])


def test_lstsq_recovers_solution():
    theta = rng.standard_normal((40, 7))
    x_true = rng.standard_normal(7)
    sol, residual = lstsq(theta, theta @ x_true)
    assert np.allclose(sol, x_true, atol=1e-10)
    assert residual <= 1e-10


def test_lstsq_matrix_rhs_and_residual():
    theta = rng.standard_normal((30, 5))
    X_true = rng.standard_normal((5, 3))
    noise = rng.standard_normal((30, 3))
    # project noise out of the column space so the residual is known
    qmat, _ = np.linalg.qr(theta)
    noise -= qmat @ (qmat.T @ noise)
    sol, residual = lstsq(theta, theta @ X_true + noise)
    assert np.allclose(sol, X_true, atol=1e-10)
    assert abs(residual - np.linalg.norm(noise)) <= 1e-10


def test_lstsq_rank_deficiency():
    theta = np.ones((10, 3))
    with pytest.raises(RankDeficiencyError) as excinfo:
        lstsq(theta, np.ones(10))
    assert excinfo.value.rank == 1
    assert excinfo.value.required == 3


def test_lstsq_needs_enough_rows():
    with pytest.raises(ValueError):
        lstsq(np.ones((2, 5)), np.ones(2))


def test_numerical_rank():
    a = rng.standard_normal((8, 3))
    full = np.hstack([a, a @ rng.standard_normal((3, 4))])
    assert numerical_rank(full) == 3
    assert numerical_rank(np.zeros((4, 4))) == 0


def test_numerical_rank_complex_pbh_pencil():
    # oscillator modes at s = +-i: [A - iI, B] loses rank exactly when B
    # misses the mode, and the margin is the n-th singular value
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for B, expected in ((np.array([[0.0], [1.0]]), 2), (np.zeros((2, 1)), 1)):
        pencil = np.hstack([A - 1j * np.eye(2), B])
        sv = np.linalg.svd(pencil, compute_uv=False)
        assert numerical_rank(pencil) == expected
        rank, margin = numerical_rank(pencil, 2)
        assert rank == expected and margin == float(sv[1])
    assert numerical_rank(pencil, 3) == (1, 0.0)
    assert numerical_rank(np.zeros((0, 3)), 1) == (0, 0.0)


def test_is_hurwitz():
    assert is_hurwitz(np.array([[-1.0, 0.0], [0.0, -2.0]]))
    assert not is_hurwitz(np.array([[0.0, 1.0], [-1.0, 0.0]]))  # marginal
    assert not is_hurwitz(np.array([[0.1]]))
    assert is_hurwitz(np.array([[-1.0]]), margin=0.5)
    assert not is_hurwitz(np.array([[-0.3]]), margin=0.5)


# --- write_csv: bytes equal to np.savetxt, the reference writer ---------

BLOCK = matops.CSV_BLOCK_ROWS
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
                    1.0, -3.0, 2.0 ** 52, 1e16, 123456789.0, np.nan, np.inf, -np.inf])
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def savetxt_bytes(data, header, fmt="%.17g"):
    buf = io.BytesIO()
    np.savetxt(buf, data, delimiter=",", header=header, comments="", fmt=fmt)
    return buf.getvalue()


def written_bytes(path, data, header, fmt="%.17g"):
    write_csv(path, data, header, fmt=fmt)
    with open(path, "rb") as fh:
        return fh.read()


def force_workers(mp, cpus, min_values=matops.FORK_MIN_VALUES):
    """Make ``cpus`` CPUs usable and a worker worth ``min_values`` values."""
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    mp.setattr(os, "cpu_count", lambda: cpus)
    mp.setattr(matops, "FORK_MIN_VALUES", min_values)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@st.composite
def csv_tables(draw):
    """Tables at the block edges (0, 1, one below a block, one block) or with a ragged tail."""
    rows = draw(st.one_of(
        st.sampled_from([0, 1, BLOCK - 1, BLOCK]),
        st.builds(lambda k, r: k * BLOCK + r, st.integers(1, 8), st.integers(1, BLOCK - 1)),
    ))
    cols = draw(st.integers(1, 21))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** gen.integers(-300, 300, size=(rows, cols))
    data = gen.standard_normal((rows, cols)) * scale
    special = gen.random((rows, cols)) < draw(st.sampled_from([0.0, 0.1, 1.0]))
    data[special] = gen.choice(SPECIAL, size=int(special.sum()))
    return data


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(csv_tables())
def test_write_csv_matches_savetxt(tmp_path_factory, data):
    # one range, and three ranges of which the first is formatted in this
    # process and the others by forked workers
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    header = ",".join(f"c{j}" for j in range(data.shape[1]))
    expected = savetxt_bytes(data, header)
    for cpus in (1, 3):
        with pytest.MonkeyPatch.context() as mp:
            force_workers(mp, cpus, min_values=1)
            assert written_bytes(path, data, header) == expected
    assert_no_child_left()


def test_write_csv_per_column_formats(tmp_path, monkeypatch):
    # the convergence-history layout: integer columns around two doubles
    rows = 9 * BLOCK + 17
    data = np.column_stack([np.arange(1, rows + 1), 1.0 / np.arange(1, rows + 1),
                            np.geomspace(1e-300, 1e3, rows), np.arange(rows) // 100])
    fmt = ["%d", "%.17g", "%.17g", "%d"]
    expected = savetxt_bytes(data, "k,eps_k,x,r", fmt)
    assert written_bytes(tmp_path / "h.csv", data, "k,eps_k,x,r", fmt) == expected
    force_workers(monkeypatch, 3, min_values=1)
    assert written_bytes(tmp_path / "h.csv", data, "k,eps_k,x,r", fmt) == expected
    assert written_bytes(tmp_path / "e.csv", data[:0], "", fmt) == b""
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", data, "h", fmt=fmt[:3])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", data[0], "h")


@needs_fork
@pytest.mark.parametrize("row, error", [(BLOCK, OSError), (3 * BLOCK - 1, OSError),
                                        (0, ValueError)])
def test_write_csv_failure_raises_and_reaps(tmp_path, monkeypatch, row, error):
    # "%d" cannot format NaN; the NaN sits in the first worker's range,
    # the last one's, or the range this process formats itself
    force_workers(monkeypatch, 3, min_values=1)
    data = np.ones((3 * BLOCK, 2))
    data[row, 1] = np.nan
    with pytest.raises(error, match="exited with code 1" if error is OSError else "NaN"):
        write_csv(tmp_path / "t.csv", data, "a,b", fmt=["%.17g", "%d"])
    assert_no_child_left()


@needs_fork
def test_write_csv_short_worker_output_raises_and_reaps(tmp_path, monkeypatch):
    # the forked children inherit the patch: each worker drops its last row
    real = matops._format_rows

    def drop_last_row(data, row_fmt, start, stop, write):
        real(data, row_fmt, start, stop - (start > 0), write)

    monkeypatch.setattr(matops, "_format_rows", drop_last_row)
    force_workers(monkeypatch, 3, min_values=1)
    data = np.ones((3 * BLOCK, 2))
    with pytest.raises(OSError, match=f"sending {BLOCK - 1} of {BLOCK} rows"):
        write_csv(tmp_path / "t.csv", data, "a,b")
    assert_no_child_left()


@needs_fork
def test_write_csv_failed_fork_raises_and_reaps(tmp_path, monkeypatch):
    # the second fork fails: the first worker is reaped and no pipe is left open
    real_fork = os.fork
    forks = []

    def second_fork_fails():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError("fork: resource temporarily unavailable")
        return real_fork()

    force_workers(monkeypatch, 3, min_values=1)
    monkeypatch.setattr(os, "fork", second_fork_fails)
    fds = set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    with pytest.raises(BlockingIOError):
        write_csv(tmp_path / "t.csv", np.ones((3 * BLOCK, 2)), "a,b")
    assert_no_child_left()
    if fds is not None:
        assert set(os.listdir("/proc/self/fd")) <= fds


def test_write_csv_one_cpu_never_forks(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("os.fork called with one usable CPU")

    force_workers(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    data = np.arange(3 * matops.FORK_MIN_VALUES, dtype=float).reshape(-1, 8) / 7.0
    assert written_bytes(tmp_path / "t.csv", data, "h") == savetxt_bytes(data, "h")


@needs_fork
def test_write_csv_forks_one_worker_per_extra_cpu(tmp_path, monkeypatch):
    pids = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        pids.append(pid)
        return pid

    force_workers(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", counting_fork)
    data = np.arange(3 * matops.FORK_MIN_VALUES, dtype=float).reshape(-1, 8) / 7.0
    # small tables are not worth a fork: one range per FORK_MIN_VALUES values
    for rows, forks in ((len(data), 2), (len(data) - 1, 1), (len(data) // 3 - 1, 0)):
        pids.clear()
        assert written_bytes(tmp_path / "t.csv", data[:rows], "h") == \
            savetxt_bytes(data[:rows], "h")
        assert len(pids) == forks
    assert_no_child_left()


@needs_fork
def test_write_csv_silences_multithreaded_fork_warning(tmp_path, monkeypatch):
    # Python 3.12+ warns in the parent when it forks with threads alive;
    # the worker only formats and exits, so the writer ignores that one
    real_fork = os.fork

    def warn():
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                      "may lead to deadlocks in the child.", DeprecationWarning)

    def warning_fork():
        pid = real_fork()
        if pid:
            warn()
        return pid

    force_workers(monkeypatch, 2, min_values=1)
    monkeypatch.setattr(os, "fork", warning_fork)
    data = np.arange(4 * BLOCK, dtype=float).reshape(-1, 2) / 3.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert written_bytes(tmp_path / "t.csv", data, "h") == savetxt_bytes(data, "h")
        with pytest.raises(DeprecationWarning):
            warn()  # the same warning outside the writer is an error
    assert_no_child_left()
