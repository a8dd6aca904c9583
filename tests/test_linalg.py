import math

import numpy as np
import pytest

from qmm.circuits import hermitian_dilation, marginal_probabilities, pipeline_initial_state
from qmm.linalg import compute_svd, exact_product, vectorize


def jacobi_svd(a, sweeps=60, tol=1e-14):
    """Independent one-sided Jacobi SVD oracle: rotate column pairs until
    mutually orthogonal, then read off norms."""
    m = np.array(a, dtype=float)
    rows, cols = m.shape
    v = np.eye(cols)
    for _ in range(sweeps):
        off = 0.0
        for p in range(cols):
            for q in range(p + 1, cols):
                apq = m[:, p] @ m[:, q]
                app = m[:, p] @ m[:, p]
                aqq = m[:, q] @ m[:, q]
                off = max(off, abs(apq))
                if abs(apq) < tol:
                    continue
                phi = 0.5 * math.atan2(2 * apq, aqq - app)
                c, s = math.cos(phi), math.sin(phi)
                rot = np.array([[c, s], [-s, c]])
                m[:, [p, q]] = m[:, [p, q]] @ rot
                v[:, [p, q]] = v[:, [p, q]] @ rot
        if off < tol:
            break
    sigmas = np.linalg.norm(m, axis=0)
    order = np.argsort(sigmas)[::-1]
    return sigmas[order]


def triple_loop_product(a, b):
    """Independently coded schoolbook product oracle."""
    out = np.zeros((len(a), len(b[0])))
    for i in range(len(a)):
        for j in range(len(b[0])):
            acc = 0.0
            for k in range(len(b)):
                acc += a[i][k] * b[k][j]
            out[i][j] = acc
    return out


# ---------------------------------------------------------------------------
# SVD

def test_svd_identity_gauge():
    bundle = compute_svd(np.eye(2))
    assert np.allclose(bundle.sigmas, 1.0)
    assert np.allclose(bundle.left_vectors, np.eye(2))
    assert np.allclose(bundle.right_vectors, np.eye(2))


def test_svd_diagonal():
    bundle = compute_svd(np.diag([3.0, 0.0]))
    assert np.allclose(bundle.sigmas, [3.0, 0.0])


def test_svd_matches_jacobi_oracle():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4))
    bundle = compute_svd(a)
    assert np.allclose(bundle.sigmas, jacobi_svd(a), atol=1e-8)


def test_svd_invariants_and_reconstruction():
    rng = np.random.default_rng(23)
    for shape in ((3, 3), (4, 2), (2, 5)):
        a = rng.normal(size=shape)
        bundle = compute_svd(a)
        u, v, k = bundle.left_vectors, bundle.right_vectors, bundle.sigmas.size
        assert np.max(np.abs((u[:, :k] * bundle.sigmas) @ v[:, :k].conj().T - a)) < 1e-10
        assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[1]))) < 1e-10
        assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))) < 1e-10
        assert np.all(np.diff(bundle.sigmas) <= 1e-12)
        # gauge: first nonzero coordinate of each right vector is positive
        for k in range(v.shape[1]):
            nz = np.flatnonzero(np.abs(v[:, k]) > 1e-12)
            assert v[nz[0], k].real > 0


def test_svd_deterministic_bit_identical():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 5))
    b1 = compute_svd(a)
    b2 = compute_svd(a)
    assert np.array_equal(b1.sigmas, b2.sigmas)
    assert np.array_equal(b1.left_vectors, b2.left_vectors)
    assert np.array_equal(b1.right_vectors, b2.right_vectors)


def column_loop_gauge(a):
    """compute_svd's gauge applied one column at a time: the reference its
    vectorized form must equal bit for bit."""
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    v = vh.conj().T
    for i in range(v.shape[1]):
        col = v[:, i]
        nz = np.flatnonzero(np.abs(col) > 1e-14)
        if nz.size == 0:
            continue
        phase = col[nz[0]] / abs(col[nz[0]])
        v[:, i] = col / phase
        if i < u.shape[1] and i < s.size:
            u[:, i] = u[:, i] * phase
    return s, u, v


@pytest.mark.parametrize("complex_entries", [False, True])
def test_svd_gauge_matches_column_loop_bit_for_bit(complex_entries):
    rng = np.random.default_rng(11)
    for shape in ((1, 1), (3, 3), (4, 2), (2, 5), (7, 9), (64, 64)):
        for zero_first_column in (False, True):
            a = rng.normal(size=shape)
            if complex_entries:
                a = a + 1j * rng.normal(size=shape)
            if zero_first_column:
                # right vectors of nonzero sigmas then start with a coordinate below the threshold
                a[:, 0] = 0.0
            bundle = compute_svd(a)
            s, u, v = column_loop_gauge(a)
            assert np.array_equal(bundle.sigmas, s)
            assert np.array_equal(bundle.left_vectors, u)
            assert np.array_equal(bundle.right_vectors, v)


def test_svd_degenerate_subspace_projectors():
    # degenerate sigmas: compare projectors, not individual vectors
    a = np.eye(3) * 2.0
    bundle = compute_svd(a)
    v = bundle.right_vectors
    proj = v @ v.conj().T
    assert np.allclose(proj, np.eye(3), atol=1e-10)


# ---------------------------------------------------------------------------
# dilation

def test_dilation_scalar():
    out = hermitian_dilation(np.array([[2.0]]))
    assert np.allclose(out, [[0, 2], [2, 0]])
    assert np.allclose(np.linalg.eigvalsh(out), [-2, 2])


def test_dilation_identity():
    out = hermitian_dilation(np.eye(2))
    vals = np.sort(np.linalg.eigvalsh(out))
    assert np.allclose(vals, [-1, -1, 1, 1])


def test_dilation_eigenvalues_are_plus_minus_sigma():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 2))
    sigmas = compute_svd(a).sigmas
    # oracle: dense eigendecomposition of the dilation
    vals = np.sort(np.linalg.eigvalsh(hermitian_dilation(a)))
    expected = np.sort(np.concatenate([-sigmas, sigmas, np.zeros(1)]))
    assert np.allclose(vals, expected, atol=1e-10)


# ---------------------------------------------------------------------------
# products

def test_exact_product_identity():
    b = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(exact_product(np.eye(2), b), b)


def test_exact_product_nilpotent():
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(exact_product(n, n), np.zeros((2, 2)))


def test_exact_product_matches_triple_loop():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4))
    assert np.max(np.abs(exact_product(a, b) - triple_loop_product(a, b))) < 1e-12


def test_exact_product_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        exact_product(np.eye(2), np.eye(3))


# ---------------------------------------------------------------------------
# vectorize

def test_vectorize_identity():
    s = vectorize(np.eye(2))
    assert np.allclose(s.amplitudes, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])


def test_vectorize_row_three_four_five():
    s = vectorize(np.array([[3.0, 4.0]]))
    assert s.layout == (("row", 0), ("col", 1))
    assert np.allclose(s.amplitudes, [0.6, 0.8])


def test_vectorize_zero_matrix_rejected():
    with pytest.raises(ValueError, match="zero matrix"):
        vectorize(np.zeros((2, 2)))


def test_vectorize_marginals_match_profile():
    # oracle: direct marginalization of the squared amplitudes
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3))
    frob2 = float(np.sum(a**2))
    s = vectorize(a)
    row_probs = marginal_probabilities(s, "row")
    expected = np.zeros(4)
    expected[:3] = np.sum(a**2, axis=1) / frob2
    assert np.allclose(row_probs, expected, atol=1e-12)
    col_probs = marginal_probabilities(s, "col")
    expected[:3] = np.sum(a**2, axis=0) / frob2
    assert np.allclose(col_probs, expected, atol=1e-12)


def test_pipeline_initial_state_amplitudes():
    # amplitude at (i, j) must be ||A_i.|| ||B_.j|| / (||A||_F ||B||_F)
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    s = pipeline_initial_state(a, b)
    expected = np.outer(np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=0)) / (np.linalg.norm(a) * np.linalg.norm(b))
    assert np.allclose(s.reshaped(), expected, atol=1e-12)


def test_padding_pads_with_zeros():
    s = vectorize(np.ones((3, 3)))
    table = s.reshaped()
    assert table.shape == (4, 4)
    assert np.all(table[3, :] == 0)
    assert np.all(table[:, 3] == 0)
