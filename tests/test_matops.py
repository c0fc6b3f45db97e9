"""Vectorization conventions and small linear-algebra helpers.

The vecs/vecv and Kronecker identities here are what the regression
equation in adp relies on; tolerances are machine-level.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
