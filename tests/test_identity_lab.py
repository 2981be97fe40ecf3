import math
from fractions import Fraction

import numpy as np
import pytest

from capsym import identity_lab as lab, oracles


def _rng_points(n, count, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.3, 1.2, size=(count, n))


@pytest.fixture(scope="module", params=[3, 4])
def battery(request):
    n = request.param
    funcs = lab.standard_test_functions(n)
    pts = _rng_points(n, 10, seed=n)
    for f in funcs:
        f.check_consistency(pts[0])
    return n, funcs, pts


def _order(check, x):
    h = lab.default_step(x)
    r1 = check(h)
    if r1 < 1e-11:
        return None  # identity exact for this function (e.g. constant Hessian)
    r2 = check(h / 2.0)
    return math.log2(r1 / r2)


class TestTestFunctions:
    def test_consistency_gate_catches_typos(self):
        bad = lab.TestFunction(
            "bad", 3,
            value=lambda x: float(x @ x),
            gradient=lambda x: 3.0 * x,  # wrong factor
            hessian=lambda x: 2.0 * np.eye(3),
        )
        with pytest.raises(ValueError, match="gradient"):
            bad.check_consistency(np.array([0.5, 0.2, 0.9]))


class TestDivFreeS2:
    def test_quadratic_exact(self):
        f = lab.standard_test_functions(3)[0]  # 1 + |x|^2, constant Hessian
        res = lab.check_div_free_s2(f, [0.4, 0.2, 0.7], 1e-4)
        assert np.max(np.abs(res)) <= 1e-10

    def test_exp_sin_convergence_order(self):
        funcs = {f.name: f for f in lab.standard_test_functions(3)}
        f = funcs["exp_sin"]
        x = np.array([0.5, 0.8, 0.3])
        h = lab.default_step(x)
        r1 = np.max(np.abs(lab.check_div_free_s2(f, x, h)))
        r2 = np.max(np.abs(lab.check_div_free_s2(f, x, h / 2)))
        assert 3.5 <= r1 / r2 <= 4.5

    def test_r4_dimension4_exact(self):
        # rows of the cofactor tensor of the r^4 Hessian are quadratic, and
        # central differences are exact on quadratics
        funcs = {f.name: f for f in lab.standard_test_functions(4)}
        f = funcs["r4"]
        x = np.array([0.6, 0.4, 0.9, 0.2])
        res = lab.check_div_free_s2(f, x, lab.default_step(x))
        assert np.max(np.abs(res)) <= 1e-8

    def test_exp_sin_dimension4(self):
        funcs = {f.name: f for f in lab.standard_test_functions(4)}
        f = funcs["exp_sin"]
        x = np.array([0.6, 0.4, 0.9, 0.2])
        h = lab.default_step(x)
        r1 = np.max(np.abs(lab.check_div_free_s2(f, x, h)))
        r2 = np.max(np.abs(lab.check_div_free_s2(f, x, h / 2)))
        assert 3.5 <= r1 / r2 <= 4.5


class TestIdentityChecks:
    def test_linear_function_trivial(self):
        f = lab.TestFunction(
            "affine", 3,
            value=lambda x: 2.0 + float(x.sum()),
            gradient=lambda x: np.ones(3),
            hessian=lambda x: np.zeros((3, 3)),
            positive=True,
        )
        x = np.array([0.3, 0.1, 0.5])
        assert lab.check_identity_A(f, 2.0, x, 1e-4) <= 1e-11
        assert lab.check_identity_C(f, 2.0, x, 1e-4) <= 1e-11

    @pytest.mark.parametrize("check", [lab.check_identity_A, lab.check_identity_B,
                                       lab.check_identity_C])
    def test_second_order_convergence(self, battery, check):
        n, funcs, pts = battery
        gammas = [float(g) for g in lab.gamma_roots(n)] + [0.0, -2.0]
        orders = []
        for f in funcs:
            for x in pts:
                for gamma in gammas:
                    if gamma != int(gamma) and not f.positive:
                        continue
                    got = _order(lambda h: check(f, gamma, x, h), x)
                    if got is not None:
                        orders.append(got)
        assert len(orders) >= 10
        med = float(np.median(orders))
        assert 1.8 <= med <= 2.2

    def test_gamma_zero_reduces_to_s2_definition(self):
        funcs = {f.name: f for f in lab.standard_test_functions(3)}
        f = funcs["random_cubic"]
        x = np.array([0.4, 0.7, 0.2])
        got = _order(lambda h: lab.check_identity_C(f, 0.0, x, h), x)
        assert got is None or 1.5 <= got <= 2.5

    def test_fractional_gamma_requires_positive(self):
        funcs = {f.name: f for f in lab.standard_test_functions(3)}
        f = funcs["exp_sin"]  # not flagged positive
        with pytest.raises(ValueError, match="positive"):
            lab.check_identity_A(f, -1.5, np.array([0.4, 0.2, 0.3]), 1e-4)


class TestLevelSetIdentities:
    def test_sphere_level_sets(self):
        # v = |x|^2: level sets are spheres of radius |x|, H = 1/|x|
        f = lab.TestFunction(
            "r2", 3,
            value=lambda x: float(x @ x),
            gradient=lambda x: 2.0 * x,
            hessian=lambda x: 2.0 * np.eye(3),
            positive=True,
        )
        for x in _rng_points(3, 20, seed=1):
            rp, rq = lab.check_level_set_identity(f, x)
            g3 = (2 * np.linalg.norm(x)) ** 3
            assert rp <= 1e-12 * g3
            assert rq <= 1e-12 * g3

    def test_plane_level_sets(self):
        f = lab.TestFunction(
            "affine", 3,
            value=lambda x: float(x.sum()),
            gradient=lambda x: np.ones(3),
            hessian=lambda x: np.zeros((3, 3)),
        )
        rp, rq = lab.check_level_set_identity(f, np.array([0.1, 0.5, 0.9]))
        assert rp == pytest.approx(0.0, abs=1e-14)
        assert rq == pytest.approx(0.0, abs=1e-14)

    def test_anisotropic_quadric(self):
        f = lab.TestFunction(
            "quadric", 3,
            value=lambda x: 1.0 + x[0] ** 2 + 2 * x[1] ** 2 + 3 * x[2] ** 2,
            gradient=lambda x: np.array([2 * x[0], 4 * x[1], 6 * x[2]]),
            hessian=lambda x: np.diag([2.0, 4.0, 6.0]),
            positive=True,
        )
        for x in _rng_points(3, 20, seed=2):
            rp, rq = lab.check_level_set_identity(f, x)
            scale = max(1.0, np.linalg.norm(f.gradient(x)) ** 3)
            assert rp <= 1e-12 * scale
            assert rq <= 1e-12 * scale

    def test_critical_point_rejected(self):
        f = lab.TestFunction(
            "r2", 3,
            value=lambda x: float(x @ x),
            gradient=lambda x: 2.0 * x,
            hessian=lambda x: 2.0 * np.eye(3),
        )
        with pytest.raises(ValueError, match="critical"):
            lab.check_level_set_identity(f, np.zeros(3))


class TestGammaAlgebra:
    def test_roots_n3(self):
        r1, r2 = lab.gamma_roots(3)
        assert (r1, r2) == (Fraction(-2), Fraction(-3, 2))

    def test_roots_general(self):
        for n in range(3, 11):
            r1, r2 = lab.gamma_roots(n)
            assert r1 == 1 - n
            assert r2 == Fraction(-n, 2)

    def test_coefficient_vanishes_at_roots_exactly(self):
        for n in range(3, 11):
            assert lab.gamma_coefficient(n, 1 - n) == 0
            assert lab.gamma_coefficient(n, Fraction(-n, 2)) == 0

    def test_coefficient_at_zero(self):
        for n in range(3, 11):
            assert lab.gamma_coefficient(n, 0) == Fraction(n * (n - 1), 4)
            assert lab.gamma_coefficient(n, 0) > 0


class TestBoundaryLimits:
    def test_gamma1_flux_vanishes_n3(self):
        rows = lab.check_boundary_limits(3, [10.0, 100.0, 1000.0], -2.0)
        for _, flux in rows:
            assert abs(flux) <= 1e-8

    def test_gamma2_flux_constant_n3(self):
        # for the unit ball the flux equals 8 pi at every radius
        rows = lab.check_boundary_limits(3, [10.0, 100.0, 1000.0], -1.5)
        for _, flux in rows:
            assert flux == pytest.approx(8 * math.pi, rel=1e-6)
        limit = lab.boundary_limit_constant(3, oracles.ball_capacity(3, 1.0))
        assert limit == pytest.approx(8 * math.pi, rel=1e-14)

    def test_gamma2_limit_n4(self):
        # exponent (n-4)/(n-2) = 0: limit = 4 omega_4 = 8 pi^2
        limit = lab.boundary_limit_constant(4, oracles.ball_capacity(4, 1.0))
        assert limit == pytest.approx(8 * math.pi**2, rel=1e-14)
        rows = lab.check_boundary_limits(4, [10.0, 1000.0], -2.0)
        for _, flux in rows:
            assert flux == pytest.approx(limit, rel=1e-12)

    def test_limits_all_dims(self):
        for n in (3, 4, 5, 6):
            g1, g2 = (float(g) for g in lab.gamma_roots(n))
            cap = oracles.ball_capacity(n, 1.0)
            limit = lab.boundary_limit_constant(n, cap)
            rows1 = lab.check_boundary_limits(n, [1000.0], g1)
            rows2 = lab.check_boundary_limits(n, [1000.0], g2)
            assert abs(rows1[0][1]) <= 1e-6 * limit
            assert rows2[0][1] == pytest.approx(limit, rel=0.01)

    def test_interior_radius_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            lab.check_boundary_limits(3, [0.5], -2.0)


def _div_free_cases(f, pts):
    return [(x, lambda h, x=x: float(np.max(np.abs(lab.check_div_free_s2(f, x, h)))))
            for x in pts]


class TestSuite:
    def test_default_suite_passes(self):
        result = lab.run_suite([3], 4, 0)
        assert result.ok
        assert len(result.lines) == len(result.line_ok)

    def test_injected_fault_fails_every_measured_row(self):
        result = lab.run_suite([3], 4, 0, inject_fault=True)
        assert not result.ok
        kinds = {"order": [], "level_set": [], "boundary": [], "gamma": []}
        for line, ok in zip(result.lines, result.line_ok):
            if ": order " in line:
                kinds["order"].append(ok)
            elif " level_set: " in line:
                kinds["level_set"].append(ok)
            elif " boundary limits: " in line:
                kinds["boundary"].append(ok)
            elif "gamma1=" in line:
                kinds["gamma"].append(ok)
        assert all(kinds.values())
        assert not any(kinds["order"] + kinds["level_set"] + kinds["boundary"])
        assert all(kinds["gamma"]) and len(kinds["gamma"]) == 8

    def test_exact_rows_give_no_order(self):
        n = 3
        f = next(f for f in lab.standard_test_functions(n) if f.name == "one_plus_r2")
        pts = _rng_points(n, 4)
        assert lab.median_order(f, _div_free_cases(f, pts), 1e-10) is None
        # an exact row stays exact under the cut-off only without a fault
        assert lab.median_order(f, _div_free_cases(f, pts), 1e-10, fault=1e-3) is not None
        assert not any("one_plus_r2 div_free_s2" in line
                       for line in lab.run_suite([n], 4, 0).lines)

    def test_inexact_row_is_second_order(self):
        n = 3
        f = next(f for f in lab.standard_test_functions(n) if f.name == "exp_sin")
        assert 1.8 <= lab.median_order(f, _div_free_cases(f, _rng_points(n, 4)), 1e-10) <= 2.2
