from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from capsym import oracles, symfun


def random_symmetric(rng, n, scale=1.0):
    A = rng.normal(size=(n, n)) * scale
    return 0.5 * (A + A.T)


def brute_force_sk(A, k):
    # independent oracle: enumerate principal minors directly
    n = A.shape[0]
    return sum(float(np.linalg.det(A[np.ix_(idx, idx)]))
               for idx in combinations(range(n), k))


class TestSymElementary:
    def test_identity_matrix(self):
        I3 = np.eye(3)
        assert symfun.sym_elementary(I3, 1) == pytest.approx(3.0)
        assert symfun.sym_elementary(I3, 2) == pytest.approx(3.0)
        assert symfun.sym_elementary(I3, 3) == pytest.approx(1.0)

    def test_diagonal(self):
        D = np.diag([1.0, 2.0, 3.0])
        assert symfun.sym_elementary(D, 2) == pytest.approx(11.0)  # 1*2+1*3+2*3

    def test_trace_and_det(self):
        rng = np.random.default_rng(0)
        A = random_symmetric(rng, 5)
        assert symfun.sym_elementary(A, 1) == pytest.approx(np.trace(A), rel=1e-13)
        assert symfun.sym_elementary(A, 5) == pytest.approx(np.linalg.det(A), rel=1e-11)

    def test_matches_minor_enumeration_4x4(self):
        rng = np.random.default_rng(1)
        A = random_symmetric(rng, 4)
        assert symfun.sym_elementary(A, 2) == pytest.approx(brute_force_sk(A, 2), rel=1e-13)

    def test_large_n_charpoly_path_agrees(self):
        rng = np.random.default_rng(2)
        A = random_symmetric(rng, 9)
        assert symfun.sym_elementary(A, 2) == pytest.approx(brute_force_sk(A, 2), rel=1e-11)

    def test_eigenvalue_consistency_small_n(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            A = random_symmetric(rng, n)
            lam = np.linalg.eigvalsh(A)
            pairwise = sum(lam[i] * lam[j] for i in range(n) for j in range(i + 1, n))
            assert symfun.sym_elementary(A, 2) == pytest.approx(pairwise, rel=1e-10)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            symfun.sym_elementary(np.eye(3), 0)
        with pytest.raises(ValueError):
            symfun.sym_elementary(np.eye(3), 4)


class TestS2Tensor:
    def test_identity(self):
        assert np.allclose(symfun.s2_tensor(np.eye(3)), 2.0 * np.eye(3))

    def test_diagonal(self):
        S2 = symfun.s2_tensor(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(S2, np.diag([5.0, 4.0, 3.0]))

    def test_entry_structure(self):
        rng = np.random.default_rng(4)
        A = random_symmetric(rng, 4)
        S2 = symfun.s2_tensor(A)
        tr = np.trace(A)
        for i in range(4):
            for j in range(4):
                expect = tr - A[i, i] if i == j else -A[j, i]
                assert S2[i, j] == pytest.approx(expect, rel=1e-14, abs=1e-14)

    def test_contraction_identity(self):
        rng = np.random.default_rng(5)
        A = random_symmetric(rng, 5)
        S2 = symfun.s2_tensor(A)
        contraction = 0.5 * float(np.sum(S2 * A))
        assert contraction == pytest.approx(symfun.sym_elementary(A, 2), rel=1e-13)


class TestQuadraticForm:
    def test_identity_direction(self):
        assert symfun.s2_quadratic_form(np.eye(3), [1, 0, 0]) == pytest.approx(2.0)

    def test_diagonal_ones(self):
        val = symfun.s2_quadratic_form(np.diag([1.0, 2.0, 3.0]), [1.0, 1.0, 1.0])
        assert val == pytest.approx(12.0)  # |w|^2 * 6 - 6

    def test_two_formulas_agree(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = rng.integers(2, 7)
            A = random_symmetric(rng, n)
            w = rng.normal(size=n)
            direct = float(w @ symfun.s2_tensor(A) @ w)
            alt = symfun.s2_quadratic_form(A, w)
            assert direct == pytest.approx(alt, rel=1e-13, abs=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            symfun.s2_quadratic_form(np.eye(3), [1.0, 2.0])


class TestNewtonDeficit:
    def test_identity_multiple_gives_zero(self):
        for n in (2, 3, 5):
            for c in (-2.0, 0.5, 3.0):
                assert symfun.newton_deficit(c * np.eye(n)) == pytest.approx(0.0, abs=1e-12)

    def test_rank_one_example(self):
        assert symfun.newton_deficit(np.diag([1.0, 0.0, 0.0])) == pytest.approx(1.0 / 3.0)

    def test_nonnegative_on_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            n = rng.integers(2, 7)
            A = random_symmetric(rng, n, scale=rng.uniform(0.1, 10.0))
            tr = np.trace(A)
            assert symfun.newton_deficit(A) >= -1e-12 * max(tr * tr, 1.0)

    def test_scale_covariance(self):
        rng = np.random.default_rng(8)
        A = random_symmetric(rng, 4)
        d = symfun.newton_deficit(A)
        for t in (0.5, 2.0, -3.0):
            assert symfun.newton_deficit(t * A) == pytest.approx(t * t * d, rel=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, (3, 3), elements=st.floats(-100, 100)))
    def test_nonnegative_property(self, A):
        A = 0.5 * (A + A.T)
        tr = float(np.trace(A))
        scale = max(tr * tr, float(np.abs(A).max()) ** 2, 1.0)
        assert symfun.newton_deficit(A) >= -1e-12 * scale

    def test_near_equality_implies_identity_multiple(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            c = rng.uniform(0.5, 5.0)
            A = c * np.eye(n) + 1e-13 * random_symmetric(rng, n)
            if abs(np.trace(A)) < 1e-6:
                continue
            d = symfun.newton_deficit(A)
            if d <= 1e-12 * np.trace(A) ** 2:
                assert symfun.is_identity_multiple(A, 1e-10)


class TestIsIdentityMultiple:
    def test_exact_multiple(self):
        assert symfun.is_identity_multiple(3.7 * np.eye(4), 1e-12)

    def test_perturbed_beyond_tolerance(self):
        tol = 1e-8
        A = np.diag([1.0, 1.0, 1.0 + 2 * tol])
        assert not symfun.is_identity_multiple(A, tol)

    def test_radial_v_hessian(self):
        _, _, D2v = oracles.radial_v_fields(3, 1.0, [2.0, 0.5, -1.0])
        assert symfun.is_identity_multiple(D2v, 1e-12)

    def test_zero_matrix_floor(self):
        # relative floor max(1, ||A||) keeps the zero matrix well-defined
        assert symfun.is_identity_multiple(np.zeros((3, 3)), 1e-12)


class TestNewtonDeficitClosedForm:
    def test_matches_minor_form_and_is_nonnegative(self):
        rng = np.random.default_rng(10)
        for n in range(2, 9):
            for _ in range(50):
                A = random_symmetric(rng, n, scale=rng.uniform(0.1, 10.0))
                ref = (n - 1) / (2.0 * n) * np.trace(A) ** 2 - symfun.sym_elementary(A, 2)
                d = symfun.newton_deficit(A)
                assert d >= 0.0
                assert abs(d - ref) <= 1e-12 * abs(ref)
