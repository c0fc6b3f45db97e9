"""Vectorization conventions and small linear-algebra helpers.

The vecs/vecv and Kronecker identities here are what the regression
equation in adp relies on; tolerances are machine-level.
"""

import dataclasses
import functools
import json
import os
import sys
import threading
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adpdock import matops
from adpdock.errors import RankDeficiencyError
from conftest import (assert_csv_holds, assert_no_child_left, counting_forks, numpy_openblas,
                      open_fds, run_python, slow_blocks, unpinned)
from adpdock.matops import (
    bdiag,
    check_weights,
    is_hurwitz,
    kron,
    lstsq,
    null_space,
    numerical_rank,
    one_blas_thread,
    unvec,
    unvecs,
    vec,
    vecs,
    vecv,
    write_csv,
    write_csv_in_background,
)

rng = np.random.default_rng(1234)
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


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


def test_bdiag_layout():
    blocks = [np.array([[1.0, 2.0]]), np.array([[3.0]])]
    expected = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
    assert np.array_equal(bdiag(blocks), expected)
    with pytest.raises(ValueError):
        bdiag([])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=5))
def test_bdiag_matches_scipy_block_diag(shapes):
    # scipy's block_diag is the reference the numpy composition replaced
    blocks = [rng.standard_normal(shape) for shape in shapes]
    assert np.array_equal(bdiag(blocks), scipy.linalg.block_diag(*blocks))


def test_bdiag_row_and_column_blocks():
    blocks = [np.arange(1.0, 4.0)[None, :], np.arange(4.0, 7.0)[:, None],
              np.array([[7.0]]), np.ones((2, 3)), np.arange(1.0, 3.0)[:, None]]
    assert np.array_equal(bdiag(blocks), scipy.linalg.block_diag(*blocks))
    assert bdiag(blocks).shape == (9, 9)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_check_weights_resolves_each_form_to_its_matrix(n, m, data):
    # a scalar, a diagonal and a flat dim^2 list give the matrices their
    # explicit forms give; a 2-D weight must be dim x dim
    positive = st.floats(0.1, 10.0)
    factor = data.draw(arrays(float, (n, n), elements=finite))
    Q = factor @ factor.T
    scale, diagonal = data.draw(positive), data.draw(st.lists(positive, min_size=m, max_size=m))
    for forms, matrices in (((Q.ravel().tolist(), scale), (Q, scale * np.eye(m))),
                            ((scale, diagonal), (scale * np.eye(n), np.diag(diagonal))),
                            ((None, None), (np.eye(n), np.eye(m)))):
        got, want = check_weights(*forms, n, m), check_weights(*matrices, n, m)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    rows, cols = data.draw(st.tuples(st.integers(1, n + 1), st.integers(1, n * n))
                           .filter(lambda shape: shape != (n, n)))
    with pytest.raises(ValueError, match=f"^Q must be symmetric {n}x{n}$"):
        check_weights(np.ones((rows, cols)), scale, n, m)
    with pytest.raises(ValueError, match=f"^R needs 1, {m}, or {m * m} values, got {m + 1}$"):
        check_weights(Q, np.ones(m + 1), n, m)


@st.composite
def rank_deficient(draw):
    """A rows x cols matrix whose columns repeat, negate or zero out those of a
    random base, so its rank is below cols exactly, not only up to round-off."""
    rows, rank = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    base = draw(arrays(float, (rows, rank), elements=finite))
    extra = draw(st.lists(st.tuples(st.integers(0, rank - 1), st.sampled_from([1.0, -1.0, 0.0])),
                          min_size=1, max_size=4))
    columns = [base[:, i] for i in range(rank)] + [sign * base[:, i] for i, sign in extra]
    order = draw(st.permutations(range(len(columns))))
    return np.column_stack([columns[i] for i in order])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rank_deficient())
def test_null_space_property(a):
    rows, cols = a.shape
    N = null_space(a)
    assert N.shape == (cols, cols - numerical_rank(a))
    assert np.allclose(N.T @ N, np.eye(N.shape[1]), rtol=0.0, atol=1e-12)
    scale = 1.0 + np.linalg.norm(a, 2)
    assert np.allclose(a @ N, 0.0, rtol=0.0, atol=16 * max(rows, cols) * np.finfo(float).eps * scale)
    # the null space itself, whatever basis spans it, is scipy's
    reference = scipy.linalg.null_space(a)
    assert np.allclose(N @ N.T, reference @ reference.T, rtol=0.0, atol=1e-9)


def test_null_space_edge_cases():
    assert np.array_equal(null_space(np.zeros((0, 3))), np.eye(3))
    N = null_space(np.zeros((2, 3)))
    assert np.allclose(N @ N.T, np.eye(3), rtol=0.0, atol=1e-15)
    assert null_space(np.eye(4)).shape == (4, 0)
    assert null_space(np.ones((3, 0))).shape == (0, 0)
    with pytest.raises(ValueError):
        null_space(np.ones(3))


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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12), st.integers(3, 40), st.sampled_from([None, 1, 4]),
       st.integers(0, 2**32 - 1))
def test_lstsq_matches_numpy_on_the_equilibrated_matrix(cols, spare_rows, rhs_cols, seed):
    # full-rank systems with column scales across 1e-12..1e12: the QR solve is
    # gelsd's on the equilibrated matrix, and the factor's trailing block
    # gives the residual |theta x - b|
    g = np.random.default_rng(seed)
    rows = cols + spare_rows
    theta = g.standard_normal((rows, cols)) * 10.0 ** g.uniform(-12.0, 12.0, cols)
    rhs = g.standard_normal(rows if rhs_cols is None else (rows, rhs_cols))
    sol, residual = lstsq(theta, rhs)
    scaled, scales = matops.equilibrate(theta)
    want = np.linalg.lstsq(scaled, rhs, rcond=None)[0]
    assert sol.shape == want.shape
    assert np.linalg.norm((sol.T * scales).T - want) <= 1e-10 * np.linalg.norm(want)
    exact = np.linalg.norm(theta @ sol - rhs)
    assert abs(residual - exact) <= 1e-12 * exact


def test_lstsq_rank_deficiency():
    theta = np.ones((10, 3))
    with pytest.raises(RankDeficiencyError) as excinfo:
        lstsq(theta, np.ones(10))
    assert excinfo.value.rank == 1
    assert excinfo.value.required == 3


def test_lstsq_needs_enough_rows():
    with pytest.raises(ValueError):
        lstsq(np.ones((2, 5)), np.ones(2))


def test_lstsq_rejects_a_rhs_of_another_row_count():
    # a one-row rhs would broadcast into the factor's columns
    theta = rng.standard_normal((6, 2))
    for rhs in (np.ones((1, 3)), np.ones(5), np.ones((6, 1, 1))):
        with pytest.raises(ValueError, match="rhs must be a vector or matrix with 6 rows"):
            lstsq(theta, rhs)


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


#: Work that is worth a thread per CPU for any CPU count the tests below patch in.
ABOVE_FLOOR = 1 << 40


@pytest.mark.parametrize("cpus, count, values, chunks", [
    (1, 5, ABOVE_FLOOR, [(0, 5)]),
    (2, 1, ABOVE_FLOOR, [(0, 1)]),
    # two usable CPUs give two chunks: nothing holds one aside for a CSV child
    (2, 5, ABOVE_FLOOR, [(0, 2), (2, 5)]),
    (3, 5, ABOVE_FLOOR, [(0, 1), (1, 3), (3, 5)]),
    (4, 2, ABOVE_FLOOR, [(0, 1), (1, 2)]),
    # the size floor: fewer chunks than CPUs below one per FORK_MIN_VALUES values
    (3, 5, 2 * matops.FORK_MIN_VALUES, [(0, 2), (2, 5)]),
    (3, 5, matops.FORK_MIN_VALUES - 1, [(0, 5)]),
])
@needs_fork  # where os.fork is missing, _worker_count gives one range
def test_split_over_cpus_runs_each_contiguous_chunk_on_its_own_thread(monkeypatch, cpus, count,
                                                                      values, chunks):
    # every chunk waits for all the others: they can only meet on separate threads
    monkeypatch.setattr(matops, "_usable_cpus", lambda: cpus)
    meet = threading.Barrier(len(chunks), timeout=30)
    threads = threading.active_count()

    def task(js):
        meet.wait()
        return js.start, js.stop, threading.get_ident()

    results = matops._split_over_cpus(task, count, values)
    assert [(start, stop) for start, stop, _ in results] == chunks
    assert results[0][2] == threading.get_ident()  # the first chunk runs in the caller
    assert len({ident for _, _, ident in results}) == len(chunks)
    assert threading.active_count() == threads


@needs_fork
def test_split_over_cpus_raises_the_earliest_chunks_error_after_joining(monkeypatch):
    monkeypatch.setattr(matops, "_usable_cpus", lambda: 3)
    threads = threading.active_count()
    finished = []

    def task(js):  # chunks [0, 1), [1, 3) and [3, 5): the last two fail
        if js.start > 0:
            time.sleep(0.05 if js.start == 1 else 0.0)
            finished.append(js.start)
            raise ValueError(f"chunk from {js.start}")
        return js

    with pytest.raises(ValueError, match="chunk from 1"):
        matops._split_over_cpus(task, 5, ABOVE_FLOOR)
    assert sorted(finished) == [1, 3]  # the slower failing chunk was waited for
    assert threading.active_count() == threads


@needs_fork
def test_split_over_cpus_keeps_every_result_under_frequent_thread_switches(monkeypatch):
    # more threads than CPUs, switching every microsecond, each storing its chunk's result
    monkeypatch.setattr(matops, "_usable_cpus", lambda: 8)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            results = matops._split_over_cpus(lambda js: list(range(js.start, js.stop)), 29,
                                              ABOVE_FLOOR)
            assert len(results) == 8 and sum(results, []) == list(range(29))
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads


def test_is_hurwitz():
    assert is_hurwitz(np.array([[-1.0, 0.0], [0.0, -2.0]]))
    assert not is_hurwitz(np.array([[0.0, 1.0], [-1.0, 0.0]]))  # marginal
    assert not is_hurwitz(np.array([[0.1]]))


# --- write_csv: shortest round-trip values, checked by assert_csv_holds --

BLOCK = matops.CSV_BLOCK_ROWS
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
                    1.0, -3.0, 0.1, 2.0 ** 52, 1e16, 123456789.0])


def force_workers(mp, cpus, min_values=matops.FORK_MIN_VALUES):
    """Make ``cpus`` CPUs usable and a worker worth ``min_values`` values."""
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    mp.setattr(os, "cpu_count", lambda: cpus)
    mp.setattr(matops, "FORK_MIN_VALUES", min_values)


@st.composite
def csv_tables(draw):
    """Tables at the block edges (0, 1, one below a block, one block) or with a ragged tail."""
    rows = draw(st.one_of(
        st.sampled_from([0, 1, BLOCK - 1, BLOCK]),
        st.builds(lambda k, r: k * BLOCK + r, st.integers(1, 2), st.integers(1, BLOCK - 1)),
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
def test_write_csv_reads_back_bit_for_bit(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    header = ",".join(f"c{j}" for j in range(data.shape[1]))
    write_csv(path, data, header)
    assert_csv_holds(path, data, header)


@pytest.mark.parametrize("cols", [1, 2, 21])
def test_write_csv_matches_the_nested_dump_with_replaced_row_ends(tmp_path, cols):
    # the flat dump with its row-ending commas set in place writes the bytes
    # of the nested dump with "],[" replaced, across two block edges and a tail
    import orjson

    gen = np.random.default_rng(cols)
    shape = (2 * BLOCK + 37, cols)
    data = gen.standard_normal(shape) * 10.0 ** gen.integers(-300, 300, size=shape)
    special = gen.random(data.shape) < 0.1
    data[special] = gen.choice(SPECIAL, size=int(special.sum()))
    path = tmp_path / "t.csv"
    write_csv(path, data, "")
    expected = b"".join(
        orjson.dumps(data[lo:lo + BLOCK], option=orjson.OPT_SERIALIZE_NUMPY)[2:-2]
        .replace(b"],[", b"\n") + b"\n"
        for lo in range(0, len(data), BLOCK))
    assert path.read_bytes() == expected


@pytest.mark.parametrize("data, header, message", [
    (np.ones(3), "a", r"data must be 2-D, got shape \(3,\)"),
    (np.ones((2, 3, 1)), "a", r"data must be 2-D, got shape \(2, 3, 1\)"),
    ([[1.0, np.nan]], "a,b", "data contains non-finite entries"),
    ([[1.0, 2.0], [np.inf, 0.0]], "a,b", "data contains non-finite entries"),
    ([[-np.inf]], "a", "data contains non-finite entries"),
    ([[1.0, 2.0]], "a,\u00b5", "header must be ASCII"),
    (np.ones((3, 0)), "", r"data must have at least one column, got shape \(3, 0\)"),
])
def test_write_csv_rejects_bad_input_before_opening_the_file(tmp_path, data, header, message):
    # orjson would write null for nan and +-inf; each bad input is rejected
    # before the file is opened, so none leaves a file behind
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=message):
        write_csv(path, data, header)
    assert not path.exists()


def test_write_csv_failure_raises_and_reaps(tmp_path, monkeypatch):
    # formatting fails on the block holding the marked row, in this process:
    # the error is raised as it is and no child is left, also with CPUs to spare
    real = matops._format_rows

    def fail_on_mark(data, write):
        if (data < 0).any():
            raise ValueError("cannot format the mark")
        real(data, write)

    monkeypatch.setattr(matops, "_format_rows", fail_on_mark)
    force_workers(monkeypatch, 3, min_values=1)
    pids = counting_forks(monkeypatch)
    data = np.ones((3 * BLOCK, 2))
    data[0, 1] = -1.0
    with pytest.raises(ValueError, match="mark"):
        write_csv(tmp_path / "t.csv", data, "a,b")
    assert pids == []
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_write_csv_never_forks(tmp_path, monkeypatch, cpus):
    # every row is formatted in this process, at any CPU count and far above
    # the size floor of a forked range
    def no_fork():
        raise AssertionError(f"os.fork called by write_csv with {cpus} usable CPUs")

    force_workers(monkeypatch, cpus)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    data = np.arange(3 * matops.FORK_MIN_VALUES, dtype=float).reshape(-1, 8) / 7.0
    write_csv(tmp_path / "t.csv", data, "h")
    assert_csv_holds(tmp_path / "t.csv", data, "h")
    write_csv(tmp_path / "e.csv", data[:0], "")
    assert (tmp_path / "e.csv").read_bytes() == b""
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", data[0], "h")


@needs_fork
def test_write_csv_in_background_writes_write_csvs_bytes_from_one_child(tmp_path, monkeypatch):
    force_workers(monkeypatch, 2, min_values=1)
    data = np.random.default_rng(5).standard_normal((5 * BLOCK + 3, 17))
    data[::7, 3] = SPECIAL[np.arange(len(data[::7])) % len(SPECIAL)]
    path = tmp_path / "bg.csv"
    pids = counting_forks(monkeypatch)
    with write_csv_in_background(path, lambda: (data, "h")):
        assert len(pids) == 1  # the child formats every row; it forks no worker
    assert_csv_holds(path, data, "h")
    write_csv(tmp_path / "fg.csv", data, "h")
    assert path.read_bytes() == (tmp_path / "fg.csv").read_bytes()
    assert_no_child_left()


@pytest.mark.parametrize("cpus, fork", [(1, True), (2, False)])
def test_write_csv_in_background_without_a_free_cpu_writes_on_entry(tmp_path, monkeypatch,
                                                                     cpus, fork):
    def no_fork():
        raise AssertionError("os.fork called without a CPU to spare")

    force_workers(monkeypatch, cpus, min_values=1)
    if fork:
        monkeypatch.setattr(os, "fork", no_fork)
    else:
        monkeypatch.delattr(os, "fork", raising=False)
    data = np.arange(6 * BLOCK, dtype=float).reshape(-1, 3) / 7.0
    path = tmp_path / "fg.csv"
    with write_csv_in_background(path, lambda: (data, "a,b,c")):
        assert_csv_holds(path, data, "a,b,c")


@needs_fork
def test_write_csv_in_background_waits_for_the_child_when_the_block_raises(tmp_path,
                                                                         monkeypatch):
    # the child takes 0.2 s; the block fails at once, and leaving it waits
    force_workers(monkeypatch, 2, min_values=1)
    slow_blocks(monkeypatch)
    data = np.arange(20 * BLOCK, dtype=float).reshape(-1, 2) / 3.0
    path = tmp_path / "t.csv"
    with pytest.raises(KeyError, match="stage"):
        with write_csv_in_background(path, lambda: (data, "a,b")):
            raise KeyError("stage")
    assert_csv_holds(path, data, "a,b")
    assert_no_child_left()


@needs_fork
def test_write_csv_in_background_failure_raises_after_reaping(tmp_path, monkeypatch):
    # a 1-D table is no CSV, so the child exits with code 1
    force_workers(monkeypatch, 2, min_values=1)
    data = np.ones(3 * BLOCK)
    fds = open_fds()
    with pytest.raises(OSError, match="exited with code 1"):
        with write_csv_in_background(tmp_path / "t.csv", lambda: (data, "a")):
            pass
    assert_no_child_left()
    assert open_fds() <= fds
    # an error in the block takes precedence over the child's
    with pytest.raises(KeyError):
        with write_csv_in_background(tmp_path / "t.csv", lambda: (data, "a")):
            raise KeyError("stage")
    assert_no_child_left()
    assert open_fds() <= fds


# --- one_blas_thread: a scoped OpenBLAS thread count ----------------------

@pytest.fixture
def fake_blas(monkeypatch):
    """A stand-in for numpy's OpenBLAS thread control, at count 4.

    ``sets`` records every count set and ``lookups`` counts the lookups,
    which are cached like :func:`matops._find_openblas`'s.
    """
    state = SimpleNamespace(count=4, sets=[], lookups=0)

    def put(count):
        state.sets.append(count)
        state.count = count

    @functools.cache
    def find():
        state.lookups += 1
        return (lambda: state.count), put

    monkeypatch.setattr(matops, "_find_openblas", find)
    return state


def test_one_blas_thread_restores_the_count_on_return_exception_and_nesting(fake_blas):
    with one_blas_thread():
        assert fake_blas.count == 1
    assert fake_blas.count == 4

    @one_blas_thread()
    def count():
        return fake_blas.count

    assert count() == 1 and fake_blas.count == 4
    with pytest.raises(KeyError):
        with one_blas_thread():
            raise KeyError("stage")
    assert fake_blas.count == 4
    with one_blas_thread():
        with one_blas_thread():
            assert fake_blas.count == 1
        assert fake_blas.count == 1
        assert count() == 1
        with pytest.raises(KeyError):
            with one_blas_thread():
                raise KeyError("stage")
        assert fake_blas.count == 1
    assert fake_blas.count == 4
    # only the outermost block sets and restores, and the library was looked up once
    assert fake_blas.sets == [1, 4] * 4
    assert fake_blas.lookups == 1


def test_one_blas_thread_looks_up_once_even_when_sys_modules_changes(monkeypatch):
    # the real lookup: however many blocks open, and whatever is imported
    # between them (as of scipy.linalg), numpy's control is found once per process
    with one_blas_thread():
        pass
    assert matops._find_openblas.cache_info().misses == 1
    monkeypatch.setitem(sys.modules, f"fake_import_{len(sys.modules)}", SimpleNamespace())
    control = numpy_openblas()
    for _ in range(3):
        with one_blas_thread(), one_blas_thread():
            assert control is None or control[0]() == 1
    assert matops._find_openblas.cache_info().misses == 1


def test_one_blas_thread_keeps_the_pin_under_frequent_thread_switches(fake_blas):
    # eight threads enter and leave nested blocks, switching every microsecond:
    # inside every block the count reads one, and once all have left it is restored
    interval, errors = sys.getswitchinterval(), []
    start = threading.Barrier(8, timeout=30)

    def work():
        try:
            start.wait()
            for _ in range(200):
                with one_blas_thread():
                    with one_blas_thread():
                        assert fake_blas.count == 1
        except Exception as exc:  # raised by the test once every thread is joined
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(8)]
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    assert fake_blas.count == 4 and fake_blas.lookups == 1
    assert matops._pin_depth == 0 and matops._pin_restore is None


def test_one_blas_thread_leaves_a_count_of_one_alone(fake_blas):
    fake_blas.count = 1
    with one_blas_thread():
        assert fake_blas.count == 1
    assert fake_blas.sets == [] and fake_blas.count == 1


def test_one_blas_thread_without_a_thread_control_does_nothing(monkeypatch):
    unpinned(monkeypatch)
    with one_blas_thread():
        assert matops._pin_depth == 1 and matops._pin_restore is None
    assert matops._pin_depth == 0


# Prefix of the subprocess scripts below: ``control(module)`` reads the
# (get, set) thread-count functions of the OpenBLAS in ``<module>.libs``
# through ctypes, without the package.
_OPENBLAS_CONTROL = """
import ctypes, glob, os

def control(module):
    name = module.__name__
    for path in glob.glob(os.path.join(os.path.dirname(module.__file__), os.pardir,
                                       f"{name}.libs", "*openblas*")):
        lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get is not None:
                    return get, getattr(lib, f"{prefix}_set_num_threads{suffix}")
    raise SystemExit(f"no OpenBLAS thread control in {name}.libs")
"""

# Reads the count of numpy's OpenBLAS without the package, imports the
# package, and checks the count and the pin.
_IMPORT_KEEPS_COUNT = _OPENBLAS_CONTROL + """
import numpy as np

count = control(np)[0]
before = count()
import adpdock
from adpdock import matops
assert matops._find_openblas.cache_info().currsize == 0, "looked up at import"
assert count() == before, (count(), before)
with matops.one_blas_thread():
    assert count() == 1, count()
assert count() == before, (count(), before)
print("ok", before)
"""


def test_import_leaves_the_blas_thread_count_alone():
    proc = run_python("-c", _IMPORT_KEEPS_COUNT, timeout=120)
    if "no OpenBLAS thread control" in proc.stderr:
        pytest.skip("numpy's OpenBLAS thread control not found")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok ")


# Importing scipy.linalg loads the separate OpenBLAS that scipy's wheels
# bundle. Both libraries are set to two threads; a block pins numpy's
# alone and restores it.
_SCIPY_OPENBLAS_LEFT_ALONE = _OPENBLAS_CONTROL + """
import numpy as np
import scipy
import scipy.linalg

(numpy_get, numpy_set), (scipy_get, scipy_set) = control(np), control(scipy)
numpy_set(2)
scipy_set(2)
from adpdock import matops
with matops.one_blas_thread():
    assert (numpy_get(), scipy_get()) == (1, 2), (numpy_get(), scipy_get())
    scipy.linalg.solve_continuous_are(-np.eye(2), np.eye(2), np.eye(2), np.eye(2))
assert (numpy_get(), scipy_get()) == (2, 2), (numpy_get(), scipy_get())
print("ok")
"""


def test_one_blas_thread_pins_numpys_openblas_and_leaves_scipys_alone():
    proc = run_python("-c", _SCIPY_OPENBLAS_LEFT_ALONE, timeout=120)
    if "no OpenBLAS thread control" in proc.stderr:
        pytest.skip(proc.stderr.strip().splitlines()[-1])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


# --- read_csv: values equal np.loadtxt, the reference reader ------------

def force_ranges(mp, cpus, min_values=1):
    """Make ``cpus`` CPUs usable and a parsing range worth ``min_values`` values."""
    mp.setattr(matops, "_usable_cpus", lambda: cpus)
    mp.setattr(matops, "FORK_MIN_VALUES", min_values)


def loadtxt_reference(path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        return header, np.loadtxt(fh, delimiter=",", ndmin=2)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(csv_tables())
def test_read_csv_round_trips_write_csv(tmp_path_factory, data):
    # bit for bit, so -0.0 keeps its sign and subnormals and +-1e300 come
    # back; one, two and three ranges give the same array
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    header = ",".join(f"c{j}" for j in range(data.shape[1]))
    write_csv(path, data, header)
    for cpus in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            force_ranges(mp, cpus)
            back_header, back = matops.read_csv(path)
        assert back_header == header
        assert back.shape == data.shape and back.dtype == np.float64
        assert back.tobytes() == data.tobytes()
        if len(data):
            assert np.array_equal(back, loadtxt_reference(path)[1])
    assert_no_child_left()


@needs_fork
def test_read_csv_splits_on_line_boundaries(tmp_path, monkeypatch):
    # rows of growing width move the split offsets across every position in
    # a line, including onto a newline and just past one; with and without
    # a trailing newline the array equals a serial np.loadtxt
    path = tmp_path / "t.csv"
    hits = set()
    for rows in range(4, 40):
        data = np.arange(2 * rows).reshape(rows, 2) * 7
        for trailing in (True, False):
            write_csv(path, data, "a,b")
            text = path.read_bytes()
            if not trailing:
                path.write_bytes(text[:-1])
                text = text[:-1]
            body = text.index(b"\n") + 1
            for ranges in (2, 3):
                values = (len(text) - body) // matops.CSV_VALUE_BYTES
                if values < ranges:
                    continue
                for i in range(1, ranges):
                    offset = body + (len(text) - body) * i // ranges
                    hits.add("after" if text[offset - 1:offset] == b"\n" else
                             "on" if text[offset:offset + 1] == b"\n" else "inside")
                with pytest.MonkeyPatch.context() as mp:
                    force_ranges(mp, ranges)
                    pids = counting_forks(mp)
                    header, back = matops.read_csv(path)
                assert pids, "the table was read in one range"
                assert header == "a,b"
                assert np.array_equal(back, loadtxt_reference(path)[1])
                assert np.array_equal(back, data)
    assert hits == {"after", "on", "inside"}
    assert_no_child_left()


@needs_fork
def test_read_csv_forks_one_worker_per_extra_cpu(tmp_path, monkeypatch):
    # a range is worth FORK_MIN_VALUES values, counted as CSV_VALUE_BYTES bytes each
    path = tmp_path / "t.csv"
    path.write_bytes(b"h\n" + b"1\n" * (4 * matops.CSV_VALUE_BYTES // 2))
    expected = loadtxt_reference(path)[1]
    force_ranges(monkeypatch, 3)
    pids = counting_forks(monkeypatch)
    for min_values, forks in ((1, 2), (2, 1), (3, 0), (5, 0)):
        monkeypatch.setattr(matops, "FORK_MIN_VALUES", min_values)
        pids.clear()
        assert np.array_equal(matops.read_csv(path)[1], expected)
        assert len(pids) == forks
    assert_no_child_left()


@pytest.mark.parametrize("cpus, workers", [(2, 1), (3, 2)])
@needs_fork
def test_read_csv_beside_a_background_child_forks_one_worker_per_extra_cpu(tmp_path,
                                                                           monkeypatch,
                                                                           cpus, workers):
    # a live write_csv_in_background child keeps no usable CPU from read_csv
    data = np.random.default_rng(7).standard_normal((4 * BLOCK + 5, 6))
    path = tmp_path / "t.csv"
    write_csv(path, data, "a,b,c,d,e,f")
    force_ranges(monkeypatch, cpus)
    pids = counting_forks(monkeypatch)
    with write_csv_in_background(tmp_path / "bg.csv", lambda: (data, "a,b,c,d,e,f")):
        assert len(pids) == 1
        header, back = matops.read_csv(path)
        assert len(pids) == 1 + workers
    assert header == "a,b,c,d,e,f" and back.tobytes() == data.tobytes()
    assert (tmp_path / "bg.csv").read_bytes() == path.read_bytes()
    assert_no_child_left()


@needs_fork
def test_read_csv_silences_multithreaded_fork_warning(tmp_path, monkeypatch):
    # Python 3.12+ warns in the parent when it forks with threads alive;
    # the worker only parses, sends and exits, so the reader ignores that one
    real_fork = os.fork
    forks = []

    def warn():
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                      "may lead to deadlocks in the child.", DeprecationWarning)

    def warning_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
            warn()
        return pid

    data = np.arange(4 * BLOCK, dtype=float).reshape(-1, 2) / 3.0
    write_csv(tmp_path / "t.csv", data, "a,b")
    force_ranges(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", warning_fork)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(matops.read_csv(tmp_path / "t.csv")[1], data)
        with pytest.raises(DeprecationWarning):
            warn()  # the same warning outside the reader is an error
    assert len(forks) == 1
    assert_no_child_left()


def test_read_csv_one_cpu_never_forks(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("os.fork called with one usable CPU")

    force_ranges(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    data = np.arange(3 * BLOCK, dtype=float).reshape(-1, 3) / 7.0
    write_csv(tmp_path / "t.csv", data, "a,b,c")
    assert np.array_equal(matops.read_csv(tmp_path / "t.csv")[1], data)


def test_read_csv_checks_columns_against_header(tmp_path, monkeypatch):
    # a header-only file, or one with only blank lines after the header,
    # reads as no rows, and a range of blank lines as none of its rows,
    # without numpy's empty-input warning (the forked children inherit
    # the warning filter)
    path = tmp_path / "t.csv"
    force_ranges(monkeypatch, 2)
    for text, rows in ((b"a,b,c\n", 0), (b"a,b,c\n" + b"\n" * 60, 0),
                       (b"a,b,c\n" + b"1,2,3\n" * 30 + b"\n" * 200, 30)):
        path.write_bytes(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            header, data = matops.read_csv(path)
        assert header == "a,b,c" and data.shape == (rows, 3)
        assert np.all(data == [1, 2, 3])
    for text in (b"a,b,c\n1,2\n3,4\n", b"a,b\n1,2,3\n"):
        path.write_bytes(text)
        with pytest.raises(ValueError, match="t.csv.*header names"):
            matops.read_csv(path)


@needs_fork
@pytest.mark.parametrize("row", [0, BLOCK, 3 * BLOCK - 1])
@pytest.mark.parametrize("bad", [b"1.5", b"1.5,2.5,x"])
def test_read_csv_bad_row_raises_and_reaps(tmp_path, monkeypatch, row, bad):
    # a short row or one that does not parse, in the range this process
    # parses (row 0), in the first child's range or in the last one's; the
    # message names its file line (the header is line 1), except that a
    # short first row sets the range's width, so the next line is named
    lines = [b"%d.5,%d.5,3" % (k, k) for k in range(3 * BLOCK)]
    lines[row] = bad
    path = tmp_path / "bad.csv"
    path.write_bytes(b"a,b,c\n" + b"\n".join(lines) + b"\n")
    force_ranges(monkeypatch, 3)
    pids = counting_forks(monkeypatch)
    fds = open_fds()
    line = row + 3 if (row, bad) == (0, b"1.5") else row + 2
    with pytest.raises(ValueError, match=rf"bad.csv, bytes \d+:\d+: .* at line {line}\b"):
        matops.read_csv(path)
    assert len(pids) == 2
    assert_no_child_left()
    assert open_fds() <= fds


@needs_fork
def test_read_csv_short_range_raises_and_reaps(tmp_path, monkeypatch):
    # the forked children inherit the patch: each sends one float64 too few
    class Short:
        def __init__(self, pipe):
            self.pipe = pipe

        def write(self, b):
            self.pipe.write(b[:-8] if len(b) > 16 else b)

    real = matops._send_parsed
    monkeypatch.setattr(matops, "_send_parsed",
                        lambda path, start, stop, pipe: real(path, start, stop, Short(pipe)))
    force_ranges(monkeypatch, 3)
    data = np.ones((3 * BLOCK, 2))
    write_csv(tmp_path / "t.csv", data, "a,b")
    fds = open_fds()
    with pytest.raises(OSError, match="sent a short range"):
        matops.read_csv(tmp_path / "t.csv")
    assert_no_child_left()
    assert open_fds() <= fds


@needs_fork
def test_read_csv_failed_fork_raises_and_reaps(tmp_path, monkeypatch):
    # the second fork fails: the first worker is reaped and no pipe is left open
    real_fork = os.fork
    forks = []

    def second_fork_fails():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError("fork: resource temporarily unavailable")
        return real_fork()

    write_csv(tmp_path / "t.csv", np.ones((3 * BLOCK, 2)), "a,b")
    force_ranges(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", second_fork_fails)
    fds = open_fds()
    with pytest.raises(BlockingIOError):
        matops.read_csv(tmp_path / "t.csv")
    assert len(forks) == 2
    assert_no_child_left()
    assert open_fds() <= fds


def test_write_json_encodes_dataclasses_arrays_and_complex(tmp_path):
    @dataclasses.dataclass
    class Record:
        z: complex
        a: np.ndarray
        flag: bool = dataclasses.field(init=False, default=True)

    payload = {"record": Record(z=1.5 - 2j, a=np.arange(4.0).reshape(2, 2)),
               "count": np.int64(3), "root": np.complex128(0.5j)}
    matops.write_json(tmp_path / "out.json", payload)
    text = (tmp_path / "out.json").read_text()
    assert text == json.dumps({"record": {"z": [1.5, -2.0], "a": [[0.0, 1.0], [2.0, 3.0]],
                                          "flag": True},
                               "count": 3, "root": [0.0, 0.5]}, indent=2) + "\n"
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        matops.write_json(tmp_path / "bad.json", {"tags": {"a"}})
