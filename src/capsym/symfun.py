"""Elementary symmetric functions of symmetric matrices and the Newton inequality.

The S^2 tensor (gradient of S_2 with respect to the matrix entries), the
quadratic form w^T S^2(A) w, and the Newton deficit

    (n-1)/(2n) Tr(A)^2 - S_2(A) >= 0,

whose vanishing (for Tr != 0) forces A to be a multiple of the identity.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

# minor enumeration is exact combinatorics but explodes past this size
_MINOR_ENUM_MAX_N = 6


def symmetrize(A) -> np.ndarray:
    """Return the symmetric part (A + A^T)/2 as a float array, validating shape."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    return 0.5 * (A + A.T)


def sym_elementary(A, k: int) -> float:
    """k-th elementary symmetric function S_k(A) of the eigenvalues.

    S_1 = trace, S_n = determinant.  Computed as the sum of k x k
    principal minors for n <= 6, and from the characteristic polynomial
    coefficients otherwise.
    """
    A = symmetrize(A)
    n = A.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if k == 1:
        return float(np.trace(A))
    if n <= _MINOR_ENUM_MAX_N:
        total = 0.0
        for idx in combinations(range(n), k):
            sub = A[np.ix_(idx, idx)]
            total += float(np.linalg.det(sub))
        return total
    # char poly of A: l^n - S_1 l^(n-1) + S_2 l^(n-2) - ... ; numpy's
    # poly() returns monic coefficients [1, c_1, ..., c_n] with
    # c_k = (-1)^k S_k.
    coeffs = np.poly(np.linalg.eigvalsh(A))
    return float((-1) ** k * coeffs[k])


def s2_tensor(A) -> np.ndarray:
    """The tensor S^2_ij(A) = d S_2 / d a_ij.

    Off-diagonal entries -a_ji, diagonal entries Tr(A) - a_ii; satisfies
    the contraction identity S_2(A) = (1/2) sum_ij S^2_ij a_ij.
    """
    A = symmetrize(A)
    tr = np.trace(A)
    return tr * np.eye(A.shape[0]) - A


def s2_quadratic_form(A, w) -> float:
    """w^T S^2(A) w, which equals |w|^2 Tr(A) - w^T A w."""
    A = symmetrize(A)
    w = np.asarray(w, dtype=float)
    if w.shape != (A.shape[0],):
        raise ValueError(f"vector of shape {w.shape} does not match matrix of size {A.shape[0]}")
    return float((w @ w) * np.trace(A) - w @ A @ w)


def newton_deficit(A) -> float:
    """Deficit (n-1)/(2n) Tr(A)^2 - S_2(A) of the Newton inequality.

    Computed as (1/2) ||A - (Tr(A)/n) I||_F^2, which equals the deficit
    and is nonnegative by construction, without the cancellation of the
    difference form; zero (with Tr != 0) exactly when A is a scalar
    multiple of the identity.  sym_elementary gives the difference form
    as a reference.
    """
    A = symmetrize(A)
    dev = A - (np.trace(A) / A.shape[0]) * np.eye(A.shape[0])
    return 0.5 * float(np.sum(dev * dev))


def is_identity_multiple(A, tol: float) -> bool:
    """Whether A equals (Tr(A)/n) I within tol, in max-norm with relative floor.

    The floor max(1, ||A||_max) avoids false negatives near the zero matrix.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    A = symmetrize(A)
    n = A.shape[0]
    dev = A - (np.trace(A) / n) * np.eye(n)
    scale = max(1.0, float(np.max(np.abs(A))))
    return float(np.max(np.abs(dev))) <= tol * scale
