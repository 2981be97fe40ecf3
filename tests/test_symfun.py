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


class TestStacks:
    def test_newton_deficit_of_a_stack_is_bitwise_each_matrix(self):
        rng = np.random.default_rng(12)
        for n in (2, 3, 5):
            A = rng.normal(size=(4, 6, n, n)) * rng.uniform(0.1, 10.0, size=(4, 6, 1, 1))
            d = symfun.newton_deficit(A)
            assert d.shape == (4, 6)
            for idx in np.ndindex(4, 6):
                assert d[idx] == symfun.newton_deficit(A[idx])

    def test_symmetrize_transposes_each_matrix(self):
        A = np.arange(18.0).reshape(2, 3, 3)
        S = symfun.symmetrize(A)
        for k in range(2):
            assert np.array_equal(S[k], symfun.symmetrize(A[k]))
            assert np.array_equal(S[k], S[k].T)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
    def test_symmetrize_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="square"):
            symfun.symmetrize(np.zeros(shape))

    @pytest.mark.parametrize("name", ["is_identity_multiple"])
    def test_one_matrix_functions_reject_a_stack(self, name):
        with pytest.raises(ValueError):
            getattr(symfun, name)(np.eye(3) * np.ones((3, 1, 1)), 1e-9)

    @pytest.mark.parametrize("n", [2, 3, 5, 6, 7, 9])
    def test_stack_functions_are_bitwise_each_matrix(self, n):
        # sym_elementary (every k, minors and characteristic polynomial),
        # s2_tensor and s2_quadratic_form, with A and w broadcast together,
        # against the one-matrix code they replaced
        def frozen_sym_elementary(A, k):
            A = symfun.symmetrize(A)
            if k == 1:
                return float(np.trace(A))
            if n <= 6:
                return sum((float(np.linalg.det(A[np.ix_(idx, idx)]))
                            for idx in combinations(range(n), k)), 0.0)
            return float((-1) ** k * np.poly(np.linalg.eigvalsh(A))[k])

        def frozen_s2_tensor(A):
            A = symfun.symmetrize(A)
            return np.trace(A) * np.eye(n) - A

        def frozen_s2_quadratic_form(A, w):
            A = symfun.symmetrize(A)
            return float((w @ w) * np.trace(A) - w @ A @ w)

        rng = np.random.default_rng(20 + n)
        A = rng.normal(size=(4, 3, n, n)) * rng.uniform(0.1, 10.0, size=(4, 3, 1, 1))
        w = rng.normal(size=(3, n))
        S2, quad = symfun.s2_tensor(A), symfun.s2_quadratic_form(A, w)
        sk = {k: symfun.sym_elementary(A, k) for k in range(1, n + 1)}
        assert S2.shape == (4, 3, n, n) and quad.shape == (4, 3)
        for i, j in np.ndindex(4, 3):
            assert np.array_equal(S2[i, j], frozen_s2_tensor(A[i, j]))
            assert np.array_equal(S2[i, j], symfun.s2_tensor(A[i, j]))
            assert quad[i, j] == frozen_s2_quadratic_form(A[i, j], w[j])
            assert quad[i, j] == symfun.s2_quadratic_form(A[i, j], w[j])
            for k, got in sk.items():
                assert got.shape == (4, 3)
                assert got[i, j] == frozen_sym_elementary(A[i, j], k)
                assert got[i, j] == symfun.sym_elementary(A[i, j], k)

    def test_products_round_as_the_matmul_of_one_pair(self):
        rng = np.random.default_rng(30)
        for n in (2, 3, 4, 6, 9):
            a, b = rng.normal(size=(2, 5, n)), rng.normal(size=(5, n))
            M = rng.normal(size=(2, 5, n, n))
            d, mv, q = symfun.dot(a, b), symfun.matvec(M, b), symfun.quadratic_form(M, b)
            for i, j in np.ndindex(2, 5):
                assert d[i, j] == a[i, j] @ b[j]
                assert np.array_equal(mv[i, j], M[i, j] @ b[j])
                assert q[i, j] == b[j] @ M[i, j] @ b[j]


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
