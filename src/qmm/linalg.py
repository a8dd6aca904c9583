"""Classical dense linear algebra: norms and profiles, gauge-fixed SVD,
Hermitian dilation, exact products, and amplitude-encoded matrix states.

Matrices are plain 2-D numpy arrays (real float64 in the primary mode,
complex only where a caller opts in). Everything here is the exact side of
the dual-route checks: pipelines are compared against these values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statevector import Statevector, from_vector, tensor

SIGMA_ZERO_TOL = 1e-12


def as_matrix(a, *, allow_complex: bool = True) -> np.ndarray:
    arr = np.asarray(a)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1) if arr.size else arr
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("expected a nonempty 2-D matrix")
    if np.iscomplexobj(arr):
        if not allow_complex:
            raise ValueError("complex entries are not supported here")
        arr = arr.astype(complex)
    else:
        arr = arr.astype(float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has non-finite entries")
    return arr


def pad_dim(n: int) -> int:
    """Smallest power of two >= n (minimum 1)."""
    d = 1
    while d < n:
        d <<= 1
    return d


def pad_matrix(a: np.ndarray, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Zero-pad to (rows, cols); defaults pad each side to a power of two.
    Profiles are always computed on the unpadded matrix."""
    a = as_matrix(a)
    r = pad_dim(a.shape[0]) if rows is None else rows
    c = pad_dim(a.shape[1]) if cols is None else cols
    if r < a.shape[0] or c < a.shape[1]:
        raise ValueError("padding cannot shrink the matrix")
    out = np.zeros((r, c), dtype=a.dtype)
    out[: a.shape[0], : a.shape[1]] = a
    return out


@dataclass(frozen=True)
class MatrixProfile:
    """Norm data of a matrix: Frobenius norm, row/column 2-norms, and the
    singular-value extremes. kappa is the ratio sigma_max/sigma_min over
    nonzero singular values; for rank-deficient input both kappa and
    sigma_min_nonzero are absent and the matrix is flagged singular."""

    frobenius: float
    row_norms: np.ndarray
    col_norms: np.ndarray
    sigma_max: float
    sigma_min_nonzero: float | None
    kappa: float | None
    singular: bool


def matrix_profile(a) -> MatrixProfile:
    a = as_matrix(a)
    row_norms = np.linalg.norm(a, axis=1)
    col_norms = np.linalg.norm(a, axis=0)
    frob = float(np.linalg.norm(a))
    sigmas = np.linalg.svd(a, compute_uv=False)
    sigma_max = float(sigmas[0]) if sigmas.size else 0.0
    cutoff = SIGMA_ZERO_TOL * max(sigma_max, 1.0)
    nonzero = sigmas[sigmas > cutoff]
    singular = nonzero.size < min(a.shape)
    if singular or nonzero.size == 0:
        sigma_min_nonzero = None
        kappa = None
    else:
        sigma_min_nonzero = float(nonzero[-1])
        kappa = float(sigma_max / sigma_min_nonzero)
    return MatrixProfile(
        frobenius=frob,
        row_norms=row_norms,
        col_norms=col_norms,
        sigma_max=sigma_max,
        sigma_min_nonzero=sigma_min_nonzero,
        kappa=kappa,
        singular=singular,
    )


@dataclass(frozen=True)
class SVDBundle:
    """Full singular value decomposition with a deterministic sign gauge:
    the first nonzero coordinate of each right vector is real and positive,
    left vectors absorb the compensating phase. sigmas has length
    min(rows, cols); left_vectors and right_vectors are full square
    orthonormal bases (columns)."""

    sigmas: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    gauge: str = "first-nonzero-of-v-real-positive"

    def reconstruct(self) -> np.ndarray:
        k = self.sigmas.size
        return (self.left_vectors[:, :k] * self.sigmas) @ self.right_vectors[:, :k].conj().T


def compute_svd(a) -> SVDBundle:
    a = as_matrix(a)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"SVD iteration failed to converge: {exc}") from exc
    v = vh.conj().T
    # gauge: rotate each v column so its first nonzero coordinate is real
    # positive; paired u columns absorb the conjugate phase
    for i in range(v.shape[1]):
        col = v[:, i]
        nz = np.flatnonzero(np.abs(col) > 1e-14)
        if nz.size == 0:
            continue
        phase = col[nz[0]] / abs(col[nz[0]])
        v[:, i] = col / phase
        if i < u.shape[1] and i < s.size:
            u[:, i] = u[:, i] * phase
    return SVDBundle(sigmas=s, left_vectors=u, right_vectors=v)


def hermitian_dilation(a) -> np.ndarray:
    """[[0, A], [A^dag, 0]]; Hermitian with eigenvalues +-sigma_i plus zeros."""
    a = as_matrix(a)
    r, c = a.shape
    out = np.zeros((r + c, r + c), dtype=complex if np.iscomplexobj(a) else float)
    out[:r, r:] = a
    out[r:, :r] = a.conj().T
    return out


def exact_product(a, b) -> np.ndarray:
    """Ground-truth classical product C = AB."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    return a @ b


def vectorize(a) -> Statevector:
    """Amplitude-encode a matrix: amplitudes a_ij / ||A||_F on registers
    ("row", "col"), each zero-padded to a power of two."""
    a = as_matrix(a)
    frob = np.linalg.norm(a)
    if frob == 0:
        raise ValueError("cannot vectorize the zero matrix")
    padded = pad_matrix(a) / frob
    layout = (
        ("row", int(math.log2(padded.shape[0]))),
        ("col", int(math.log2(padded.shape[1]))),
    )
    return Statevector(layout, padded.reshape(-1))


def row_marginal_state(a, name: str = "row") -> Statevector:
    """Unit state whose amplitudes are the row norms over ||A||_F."""
    a = as_matrix(a)
    norms = np.linalg.norm(a, axis=1)
    if not norms.any():
        raise ValueError("cannot encode marginals of the zero matrix")
    return from_vector(name, norms)


def col_marginal_state(a, name: str = "col") -> Statevector:
    """Unit state whose amplitudes are the column norms over ||A||_F."""
    a = as_matrix(a)
    norms = np.linalg.norm(a, axis=0)
    if not norms.any():
        raise ValueError("cannot encode marginals of the zero matrix")
    return from_vector(name, norms)


def pipeline_initial_state(a, b) -> Statevector:
    """Tensor of A's row-norm marginal and B's column-norm marginal, the
    initial state of the swap-test multiplication pipeline; demo 01 shows it."""
    return tensor(row_marginal_state(a, "row"), col_marginal_state(b, "col"))
