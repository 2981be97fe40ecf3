import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from capsym import geometry, identity_lab as lab, oracles, symfun


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
            value=lambda x: np.sum(x * x, axis=-1),
            gradient=lambda x: 3.0 * x,  # wrong factor
            hessian=lambda x: 2.0 * np.eye(3) * np.ones(x.shape[:-1] + (1, 1)),
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

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_one_pass_matches_frozen_row_loop(self, n, monkeypatch):
        # the per-row loop `check_div_free_s2` ran before it took the
        # divergence of every row in one pass; same summation order, so equal
        def row_loop(f, x, h):
            res = np.empty(f.n)
            for i in range(f.n):
                total = 0.0
                for j in range(f.n):
                    e = np.zeros(f.n)
                    e[j] = h
                    total += (symfun.s2_tensor(f.hessian(x + e))[i][j]
                              - symfun.s2_tensor(f.hessian(x - e))[i][j]) / (2.0 * h)
                res[i] = total
            return res

        # the count is of matrices, which the one pass hands over as one stack
        calls = []
        s2_tensor = symfun.s2_tensor
        monkeypatch.setattr(symfun, "s2_tensor",
                            lambda M: calls.append(np.prod(np.shape(M)[:-2], dtype=int))
                            or s2_tensor(M))
        for f in lab.standard_test_functions(n, np.random.default_rng(n)):
            for x in _rng_points(n, 3, seed=n):
                for h in (lab.default_step(x), lab.default_step(x) / 2):
                    del calls[:]
                    got = lab.check_div_free_s2(f, x, h)
                    assert len(calls) == 1 and calls[0] == 2 * n
                    assert np.array_equal(got, row_loop(f, x, h))


class TestIdentityChecks:
    def test_linear_function_trivial(self):
        f = lab.TestFunction(
            "affine", 3,
            value=lambda x: 2.0 + x.sum(axis=-1),
            gradient=lambda x: np.ones(x.shape),
            hessian=lambda x: np.zeros(x.shape + (3,)),
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
            value=lambda x: np.sum(x * x, axis=-1),
            gradient=lambda x: 2.0 * x,
            hessian=lambda x: 2.0 * np.eye(3) * np.ones(x.shape[:-1] + (1, 1)),
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
            value=lambda x: x.sum(axis=-1),
            gradient=lambda x: np.ones(x.shape),
            hessian=lambda x: np.zeros(x.shape + (3,)),
        )
        rp, rq = lab.check_level_set_identity(f, np.array([0.1, 0.5, 0.9]))
        assert rp == pytest.approx(0.0, abs=1e-14)
        assert rq == pytest.approx(0.0, abs=1e-14)

    def test_anisotropic_quadric(self):
        f = lab.TestFunction(
            "quadric", 3,
            value=lambda x: 1.0 + x[..., 0] ** 2 + 2 * x[..., 1] ** 2 + 3 * x[..., 2] ** 2,
            gradient=lambda x: np.array([2.0, 4.0, 6.0]) * x,
            hessian=lambda x: np.diag([2.0, 4.0, 6.0]) * np.ones(x.shape[:-1] + (1, 1)),
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
            value=lambda x: np.sum(x * x, axis=-1),
            gradient=lambda x: 2.0 * x,
            hessian=lambda x: 2.0 * np.eye(3) * np.ones(x.shape[:-1] + (1, 1)),
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


def _flux_terms(gamma, x):
    """The two summands of the flux field F on the unit-ball oracle."""
    v, Dv, D2v = oracles.radial_v_fields(len(x), 1.0, x)
    return (v**gamma * (symfun.s2_tensor(D2v) @ Dv),
            0.5 * gamma * v ** (gamma - 1) * float(Dv @ Dv) * Dv)


def _flux_integrand(gamma, x, nu):
    a, b = _flux_terms(gamma, x)
    return float((a + b) @ nu)


def _icosphere_flux_n3(R, gamma):
    """The earlier n = 3 flux, frozen: the integrand summed over the 5,120
    panel centroids of a level-4 icosphere, projected onto the sphere, with
    the panel areas rescaled so that constants integrate exactly."""
    mesh = geometry.make_sphere_mesh(1.0, 4)
    nodes = mesh.centroids / np.linalg.norm(mesh.centroids, axis=1)[:, None]
    w = mesh.areas * (oracles.unit_sphere_area(3) / mesh.total_area) * R**2
    return sum(wk * _flux_integrand(gamma, R * node, node) for node, wk in zip(nodes, w))


class TestSphereFlux:
    @pytest.mark.parametrize("R", [10.0, 100.0, 1000.0])
    def test_matches_frozen_icosphere_quadrature(self, R):
        g1, g2 = (float(g) for g in lab.gamma_roots(3))
        assert abs(lab.sphere_flux(3, R, g1)) <= 1e-12
        assert abs(_icosphere_flux_n3(R, g1)) <= 1e-12
        ref = _icosphere_flux_n3(R, g2)
        assert abs(lab.sphere_flux(3, R, g2) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_integrand_constant_on_centred_sphere(self, n):
        # the fact the single-sample flux rests on: F.nu at any point of the
        # sphere equals its value at R e_1.  Relative to the size of its
        # summands, since at gamma = 1-n they cancel and the value is 0.
        rng = np.random.default_rng(n)
        gammas = [float(g) for g in lab.gamma_roots(n)] + [0.0, 1.0, -2.0]
        for R in (1.0, 3.7, 250.0):
            e1 = np.zeros(n)
            e1[0] = 1.0
            for gamma in gammas:
                ref = _flux_integrand(gamma, R * e1, e1)
                scale = sum(abs(float(t @ e1)) for t in _flux_terms(gamma, R * e1))
                for _ in range(20):
                    nu = rng.normal(size=n)
                    nu /= np.linalg.norm(nu)
                    got = _flux_integrand(gamma, R * nu, nu)
                    assert abs(got - ref) <= 1e-13 * scale

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            lab.sphere_flux(3, 0.0, -2.0)


def _div_free_residual(f):
    """`median_order`'s residual for the divergence-free rows of S^2, with
    the cut 1e-10 max(1, |f|)."""
    def residual(x, h):
        rows = lab.check_div_free_s2(f, x, h)
        return (np.max(np.abs(rows), axis=-1, keepdims=True),
                1e-10 * np.maximum(1.0, np.abs(f.value(x))))
    return residual


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
        assert lab.median_order(_div_free_residual(f), pts)[0] is None
        # an exact row stays exact under the cut-off only without a fault
        assert lab.median_order(_div_free_residual(f), pts, fault=1e-3)[0] is not None
        assert not any("one_plus_r2 div_free_s2" in line
                       for line in lab.run_suite([n], 4, 0).lines)

    def test_dims_3_to_6_pass_at_seeds_1_to_50(self):
        for seed in range(1, 51):
            result = lab.run_suite([3, 4, 5, 6], 10, seed)
            assert result.ok, [line for line in result.lines if line.endswith("FAIL")]

    def test_inexact_row_is_second_order(self):
        n = 3
        f = next(f for f in lab.standard_test_functions(n) if f.name == "exp_sin")
        assert 1.8 <= lab.median_order(_div_free_residual(f), _rng_points(n, 4))[0] <= 2.2


# ---------------------------------------------------------------------------
# the three identity checks and the far-sphere flux as they were before they
# shared one field and one finite-difference pass, frozen as references


def _frozen_power_checks(f, gamma, x):
    v = f.value(x)
    if gamma != int(gamma):
        if not f.positive or v <= 0:
            raise ValueError(f"{f.name}: fractional power gamma={gamma} needs a positive "
                             "function value")
    elif gamma < 0 and v == 0:
        raise ValueError(f"{f.name}: negative power gamma={gamma} at a zero of the function")


def _frozen_identity_A(f, gamma, x, h):
    x = np.asarray(x, dtype=float)
    _frozen_power_checks(f, gamma, x)

    def field(y):
        v = f.value(y)
        Dv = np.asarray(f.gradient(y), dtype=float)
        return v**gamma * (symfun.s2_tensor(f.hessian(y)) @ Dv)

    lhs = _frozen_divergence(field, x, h)
    v = f.value(x)
    Dv = np.asarray(f.gradient(x), dtype=float)
    D2v = f.hessian(x)
    rhs = 2.0 * v**gamma * symfun.sym_elementary(D2v, 2)
    rhs += gamma * v ** (gamma - 1) * symfun.s2_quadratic_form(D2v, Dv)
    return abs(lhs - rhs)


def _frozen_identity_B(f, gamma, x, h):
    x = np.asarray(x, dtype=float)
    _frozen_power_checks(f, gamma, x)

    def field(y):
        v = f.value(y)
        Dv = np.asarray(f.gradient(y), dtype=float)
        return v ** (gamma - 1) * float(Dv @ Dv) * Dv

    div = _frozen_divergence(field, x, h)
    v = f.value(x)
    Dv = np.asarray(f.gradient(x), dtype=float)
    D2v = f.hessian(x)
    g2 = float(Dv @ Dv)
    lap = float(np.trace(D2v))
    lhs = v ** (gamma - 1) * symfun.s2_quadratic_form(D2v, Dv)
    rhs = (1.5 * v ** (gamma - 1) * g2 * lap + 0.5 * (gamma - 1) * v ** (gamma - 2) * g2**2
           - 0.5 * div)
    return abs(lhs - rhs)


def _frozen_identity_C(f, gamma, x, h):
    x = np.asarray(x, dtype=float)
    _frozen_power_checks(f, gamma, x)

    def field(y):
        v = f.value(y)
        Dv = np.asarray(f.gradient(y), dtype=float)
        s2dv = symfun.s2_tensor(f.hessian(y)) @ Dv
        return 0.5 * gamma * v ** (gamma - 1) * float(Dv @ Dv) * Dv + v**gamma * s2dv

    div = _frozen_divergence(field, x, h)
    v = f.value(x)
    Dv = np.asarray(f.gradient(x), dtype=float)
    D2v = f.hessian(x)
    g2 = float(Dv @ Dv)
    lap = float(np.trace(D2v))
    lhs = 2.0 * v**gamma * symfun.sym_elementary(D2v, 2)
    rhs = (div - 1.5 * gamma * v ** (gamma - 1) * g2 * lap
           - 0.5 * gamma * (gamma - 1) * v ** (gamma - 2) * g2**2)
    return abs(lhs - rhs)


def _frozen_divergence(field, x, h):
    n = len(x)
    total = 0.0
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        total += (field(x + e)[..., j] - field(x - e)[..., j]) / (2.0 * h)
    return total


def _frozen_sphere_flux(n, R, gamma):
    x = np.zeros(n)
    x[0] = R
    v, Dv, D2v = oracles.radial_v_fields(n, 1.0, x)
    F = v**gamma * (symfun.s2_tensor(D2v) @ Dv)
    F = F + 0.5 * gamma * v ** (gamma - 1) * float(Dv @ Dv) * Dv
    return oracles.unit_sphere_area(n) * R ** (n - 1) * float(F[0])


def _suite_gammas(n):
    return [float(g) for g in lab.gamma_roots(n)] + [0.0, 1.0, -2.0]


class TestSharedFluxField:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_checks_equal_frozen_copies(self, n):
        rng = np.random.default_rng(n)
        funcs = lab.standard_test_functions(n, rng)
        pts = rng.uniform(0.3, 1.2, size=(4, n))
        compared = 0
        for f in funcs:
            for x in pts:
                for gamma in _suite_gammas(n):
                    if gamma != int(gamma) and not f.positive:
                        continue
                    for h in (lab.default_step(x), lab.default_step(x) / 2.0):
                        frozen = (_frozen_identity_A(f, gamma, x, h),
                                  _frozen_identity_B(f, gamma, x, h),
                                  _frozen_identity_C(f, gamma, x, h))
                        assert lab.check_identities(f, gamma, x, h) == frozen
                        assert lab.check_identity_A(f, gamma, x, h) == frozen[0]
                        assert lab.check_identity_B(f, gamma, x, h) == frozen[1]
                        assert lab.check_identity_C(f, gamma, x, h) == frozen[2]
                        compared += 1
        assert compared >= 4 * 2 * 3 * len(funcs)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_sphere_flux_equals_frozen_copy(self, n):
        for gamma in _suite_gammas(n):
            for R in (1.0, 10.0, 100.0, 1000.0):
                assert lab.sphere_flux(n, R, gamma) == _frozen_sphere_flux(n, R, gamma)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_one_pass_evaluates_the_hessian_2n_plus_1_times(self, n):
        # the count is of points, which the one pass hands over as one stack
        for f in lab.standard_test_functions(n):
            calls = []
            counted = dataclasses.replace(
                f, hessian=lambda y, f=f: calls.append(np.prod(np.shape(y)[:-1], dtype=int))
                or f.hessian(y))
            x = _rng_points(n, 1, seed=n)[0]
            lab.check_identities(counted, -1.5 if f.positive else 0.0, x, lab.default_step(x))
            assert calls == [2 * n + 1]

    def test_rows_share_one_half_step_call(self):
        # r(h/2) is taken in one call for all rows, and only for cases
        # where some row is not exact
        calls = []

        def residual(x, h):
            calls.append(h)
            return np.stack([h * h, 0.0 * h, 4.0 * h * h], axis=-1), np.full(len(x), 1e-11)

        x = np.array([[0.5, 0.5, 0.5], [0.2, 0.3, 0.4]])
        orders = lab.median_order(residual, x)
        assert len(calls) == 2 and len(calls[1]) == 2
        assert np.array_equal(calls[1], calls[0] / 2.0)
        assert orders[1] is None
        assert orders[0] == pytest.approx(2.0) and orders[2] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# the battery and the suite as per-point code, frozen as references for the
# stacked evaluation


def _frozen_battery(n, rng):
    """name -> (value, gradient, hessian) of the five test functions as
    one-point code, drawing the random cubic from rng as the battery does."""
    def exp_sin_grad(x):
        g = np.zeros(len(x))
        g[0] = math.exp(x[0]) * math.sin(x[1])
        g[1] = math.exp(x[0]) * math.cos(x[1])
        return g

    def exp_sin_hess(x):
        H = np.zeros((len(x), len(x)))
        H[0, 0] = math.exp(x[0]) * math.sin(x[1])
        H[0, 1] = H[1, 0] = math.exp(x[0]) * math.cos(x[1])
        H[1, 1] = -math.exp(x[0]) * math.sin(x[1])
        return H

    b = rng.normal(size=n)
    Q = rng.normal(size=(n, n))
    Q = 0.5 * (Q + Q.T)
    T = rng.normal(size=(n, n, n)) * 0.2
    T = (T + T.transpose(1, 0, 2) + T.transpose(2, 1, 0)
         + T.transpose(0, 2, 1) + T.transpose(1, 2, 0) + T.transpose(2, 0, 1)) / 6.0
    return {
        "one_plus_r2": (lambda x: 1.0 + float(x @ x), lambda x: 2.0 * x,
                        lambda x: 2.0 * np.eye(len(x))),
        "r4": (lambda x: float(x @ x) ** 2, lambda x: 4.0 * float(x @ x) * x,
               lambda x: 4.0 * float(x @ x) * np.eye(len(x)) + 8.0 * np.outer(x, x)),
        "exp_sin": (lambda x: math.exp(x[0]) * math.sin(x[1]), exp_sin_grad, exp_sin_hess),
        "aniso_quadric": (lambda x: 1.0 + float(np.arange(1, len(x) + 1) @ (x * x)),
                          lambda x: 2.0 * np.arange(1, len(x) + 1) * x,
                          lambda x: 2.0 * np.diag(np.arange(1.0, len(x) + 1))),
        "random_cubic": (
            lambda x: 50.0 + float(b @ x + x @ Q @ x + np.einsum("ijk,i,j,k->", T, x, x, x)),
            lambda x: b + 2.0 * Q @ x + 3.0 * np.einsum("ijk,j,k->i", T, x, x),
            lambda x: 2.0 * Q + 6.0 * np.einsum("ijk,k->ij", T, x)),
    }


def _per_point_suite(dims, points, seed):
    """The measured rows of `run_suite` from one-point calls: each case's
    residuals at h and h/2, the median order per row, and the level-set
    residuals point by point."""
    lines = []

    def order(f, label, cases, n):
        orders = None
        for x, residual, cut in cases:
            h = lab.default_step(x)
            r1 = np.atleast_1d(residual(x, h))
            orders = orders or [[] for _ in r1]
            exact = r1 < cut(x, h)
            if exact.all():
                continue
            r2 = np.atleast_1d(residual(x, h / 2.0))
            for i in np.flatnonzero(~exact):
                if r2[i] > 0:
                    orders[i].append(float(np.log2(r1[i] / r2[i])))
        for lab_i, row in zip(label, orders):
            if row:
                med = float(np.median(row))
                ok = "ok" if 1.8 <= med <= 2.2 else "FAIL"
                lines.append(f"n={n} {f.name:>14} {lab_i}: order {med:+.3f} {ok}")

    def rounding_cut(f, n):
        def cut(x, h):
            mags = []
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                mags.append(max(np.max(np.abs(symfun.s2_tensor(f.hessian(x + e)))),
                                np.max(np.abs(symfun.s2_tensor(f.hessian(x - e))))))
            return 16.0 * np.finfo(float).eps * np.sum(mags) / h
        return cut

    for n in dims:
        rng = np.random.default_rng(seed)
        funcs = lab.standard_test_functions(n, rng)
        pts = rng.uniform(0.3, 1.2, size=(points, n))
        for f in funcs:
            cases = [(x, lambda x, h, g=g: lab.check_identities(f, g, x, h),
                      lambda x, h: 1e-11 * max(1.0, abs(f.value(x))))
                     for x in pts for g in _suite_gammas(n) if g == int(g) or f.positive]
            order(f, ("identity_A", "identity_B", "identity_C"), cases, n)
            cases = [(x, lambda x, h: np.max(np.abs(lab.check_div_free_s2(f, x, h))),
                      rounding_cut(f, n)) for x in pts]
            order(f, ("div_free_s2",), cases, n)
            worst = 0.0
            for x in pts:
                g = np.linalg.norm(f.gradient(x))
                if g >= 1e-8:
                    rp, rq = lab.check_level_set_identity(f, x)
                    worst = max(worst, rp / max(1.0, g**3), rq / max(1.0, g**3))
            ok = "ok" if worst <= 1e-11 else "FAIL"
            lines.append(f"n={n} {f.name:>14} level_set: residual {worst:.3e} {ok}")
    return lines


class TestStacks:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_battery_on_a_stack_is_bitwise_each_point(self, n):
        funcs = lab.standard_test_functions(n, np.random.default_rng(n))
        frozen = _frozen_battery(n, np.random.default_rng(n))
        X = np.random.default_rng(40 + n).uniform(-1.2, 1.2, size=(3, 7, n))
        for f in funcs:
            got = (f.value(X), f.gradient(X), f.hessian(X))
            assert [a.shape for a in got] == [(3, 7), (3, 7, n), (3, 7, n, n)]
            for idx in np.ndindex(3, 7):
                x = X[idx]
                for stacked, one, ref in zip(got, (f.value(x), f.gradient(x), f.hessian(x)),
                                             frozen[f.name]):
                    assert np.array_equal(stacked[idx], one)
                    assert np.array_equal(one, ref(x))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_checks_on_a_stack_are_bitwise_each_point(self, n):
        f = lab.standard_test_functions(n, np.random.default_rng(n))[-1]  # random cubic
        X = _rng_points(n, 6, seed=n).reshape(2, 3, n)
        gammas = np.array(_suite_gammas(n))[:, None, None]
        H = lab.default_step(X) * np.array([[1.0], [0.5]])[:, None]  # (2, 2, 3)
        rA, rB, rC = lab.check_identities(f, gammas[:, None], X, H)
        assert rA.shape == (len(gammas), 2, 2, 3)
        div = lab.check_div_free_s2(f, X, H)
        assert div.shape == (2, 2, 3, n)
        rp, rq = lab.check_level_set_identity(f, X)
        for k, g in enumerate(gammas[:, 0, 0]):
            for s, i, j in np.ndindex(2, 2, 3):
                one = lab.check_identities(f, g, X[i, j], H[s, i, j])
                assert (rA[k, s, i, j], rB[k, s, i, j], rC[k, s, i, j]) == one
        for s, i, j in np.ndindex(2, 2, 3):
            assert np.array_equal(div[s, i, j], lab.check_div_free_s2(f, X[i, j], H[s, i, j]))
        for i, j in np.ndindex(2, 3):
            assert (rp[i, j], rq[i, j]) == lab.check_level_set_identity(f, X[i, j])

    @pytest.mark.parametrize("dims, seed", [((3, 4), 1), ((3, 4, 5, 6), 6),
                                            ((5,), 913070797)])
    def test_suite_equals_a_per_point_loop(self, dims, seed):
        got = [line for line in lab.run_suite(dims, 10, seed).lines
               if ": order " in line or " level_set: " in line]
        assert got == _per_point_suite(dims, 10, seed)

    def test_rounding_cut_separates_exact_rows_from_exp_sin(self):
        for n in (3, 4, 5, 6):
            rng = np.random.default_rng(6)
            funcs = lab.standard_test_functions(n, rng)
            pts = rng.uniform(0.3, 1.2, size=(10, n))
            h = lab.default_step(pts)
            for f in funcs:
                rows, cut = lab._div_free_s2(f, pts, h)
                ratio = np.max(np.abs(rows), axis=-1) / (cut / 16.0)
                if f.name == "exp_sin":
                    assert np.min(ratio) > 16.0 * 10
                else:
                    assert np.max(ratio) < 16.0 / 10
