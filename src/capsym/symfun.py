"""Elementary symmetric functions of symmetric matrices and the Newton inequality.

The S^2 tensor (gradient of S_2 with respect to the matrix entries), the
quadratic form w^T S^2(A) w, and the Newton deficit

    (n-1)/(2n) Tr(A)^2 - S_2(A) >= 0,

whose vanishing (for Tr != 0) forces A to be a multiple of the identity.

Every function but `is_identity_multiple` takes one matrix (n, n) or a
stack (..., n, n) and gives each matrix of a stack the bits of a call on
that matrix alone; `dot`, `matvec` and `quadratic_form` are a.b, A w and
w^T A w over the last axes, rounded as `a @ b`, `A @ w` and `w @ A @ w`
on one pair.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

# minor enumeration is exact combinatorics but explodes past this size
_MINOR_ENUM_MAX_N = 6


def symmetrize(A) -> np.ndarray:
    """Symmetric part (A + A^T)/2 of a square matrix or of each in a stack
    (..., n, n), as floats; the shape is validated, non-finite entries pass."""
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {A.shape}")
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def dot(a, b):
    """a . b over the last axis, for one pair of vectors or per pair of a
    stack; each pair gets the bits of `a @ b` on that pair alone (the BLAS
    dot, which numpy's stacked matmul calls pair by pair)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def matvec(A, w):
    """A w for one matrix (n, n) and vector (n,), or per pair of a stack;
    each pair gets the bits of `A @ w` on that pair alone (BLAS gemv)."""
    A, w = np.asarray(A, dtype=float), np.asarray(w, dtype=float)
    return np.matmul(A, w[..., :, None])[..., 0]


def quadratic_form(A, w):
    """w^T A w for one matrix and vector or per pair of a stack; each pair
    gets the bits of `w @ A @ w` on that pair alone (BLAS gemv, then dot)."""
    w = np.asarray(w, dtype=float)
    return dot(np.matmul(w[..., None, :], A)[..., 0, :], w)


def sym_elementary(A, k: int):
    """k-th elementary symmetric function S_k(A) of the eigenvalues, of one
    matrix or per matrix of a stack (..., n, n).

    S_1 = trace, S_n = determinant.  Computed as the sum of k x k
    principal minors for n <= 6, and from the characteristic polynomial
    coefficients otherwise.
    """
    A = symmetrize(A)
    n = A.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if k == 1:
        return np.trace(A, axis1=-2, axis2=-1)
    if n <= _MINOR_ENUM_MAX_N:
        total = 0.0
        for idx in combinations(range(n), k):
            total = total + np.linalg.det(A[..., idx, :][..., :, idx])
        return total
    # char poly of A: l^n - S_1 l^(n-1) + S_2 l^(n-2) - ... ; numpy's
    # poly() returns monic coefficients [1, c_1, ..., c_n] with
    # c_k = (-1)^k S_k.
    coeffs = np.apply_along_axis(np.poly, -1, np.linalg.eigvalsh(A))
    return (-1) ** k * coeffs[..., k]


def s2_tensor(A) -> np.ndarray:
    """The tensor S^2_ij(A) = d S_2 / d a_ij, of one matrix or per matrix
    of a stack (..., n, n).

    Off-diagonal entries -a_ji, diagonal entries Tr(A) - a_ii; satisfies
    the contraction identity S_2(A) = (1/2) sum_ij S^2_ij a_ij.
    """
    A = symmetrize(A)
    trace = np.trace(A, axis1=-2, axis2=-1)
    return trace[..., None, None] * np.eye(A.shape[-1]) - A


def s2_quadratic_form(A, w):
    """w^T S^2(A) w, which equals |w|^2 Tr(A) - w^T A w, for one matrix and
    vector or per pair of a stack: A (..., n, n), w (..., n)."""
    A = symmetrize(A)
    w = np.asarray(w, dtype=float)
    if w.ndim < 1 or w.shape[-1] != A.shape[-1]:
        raise ValueError(f"vector of shape {w.shape} does not match matrix of size {A.shape[-1]}")
    return dot(w, w) * np.trace(A, axis1=-2, axis2=-1) - quadratic_form(A, w)


def newton_deficit(A):
    """Deficit (n-1)/(2n) Tr(A)^2 - S_2(A) of the Newton inequality, per matrix of a stack.

    Computed as (1/2) ||A - (Tr(A)/n) I||_F^2, which equals the deficit
    and is nonnegative by construction, without the cancellation of the
    difference form; zero (with Tr != 0) exactly when A is a scalar
    multiple of the identity.  sym_elementary gives the difference form
    as a reference.
    """
    A = symmetrize(A)
    n = A.shape[-1]
    dev = A - (np.trace(A, axis1=-2, axis2=-1) / n)[..., None, None] * np.eye(n)
    return 0.5 * np.sum((dev * dev).reshape(*A.shape[:-2], n * n), axis=-1)


def is_identity_multiple(A, tol: float) -> bool:
    """Whether A equals (Tr(A)/n) I within tol, in max-norm with relative floor.

    The floor max(1, ||A||_max) avoids false negatives near the zero matrix.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    A = symmetrize(A)
    n, _ = A.shape  # one matrix: a stack fails to unpack
    dev = A - (np.trace(A) / n) * np.eye(n)
    scale = max(1.0, float(np.max(np.abs(A))))
    return float(np.max(np.abs(dev))) <= tol * scale
