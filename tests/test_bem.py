import math

import numpy as np
import pytest
from scipy.integrate import quad

from capsym import bem, geometry as geo, oracles

FOUR_PI = 4.0 * math.pi


@pytest.fixture(scope="module")
def sphere2_sol():
    return bem.solve_equilibrium(geo.make_sphere_mesh(1.0, 2), 6)


@pytest.fixture(scope="module")
def sphere3_sol():
    return bem.solve_equilibrium(geo.make_sphere_mesh(1.0, 3), 6)


class TestTriangleRules:
    @pytest.mark.parametrize("order", [1, 3, 6, 12])
    def test_weights_sum_to_one(self, order):
        pts, w = bem.triangle_rule(order)
        assert w.sum() == pytest.approx(1.0, rel=1e-13)
        assert np.allclose(pts.sum(axis=1), 1.0, atol=1e-13)

    @pytest.mark.parametrize("order,degree", [(1, 1), (3, 2), (6, 4), (12, 6)])
    def test_polynomial_exactness(self, order, degree):
        # exact on barycentric monomials up to the rule's degree:
        # int_T b1^p b2^q dA = p! q! / (p+q+2)! * 2 * area (area = 1/2 here)
        pts, w = bem.triangle_rule(order)
        for p in range(degree + 1):
            for q in range(degree + 1 - p):
                exact = (
                    math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)
                )
                got = float(w @ (pts[:, 0] ** p * pts[:, 1] ** q)) / 2.0
                assert got == pytest.approx(exact, rel=1e-12, abs=1e-15)

    def test_unknown_order(self):
        with pytest.raises(ValueError):
            bem.triangle_rule(7)


def _polar_self_integral(p0, p1, p2):
    """Independent oracle: adaptive polar quadrature of 1/r about the centroid."""
    p0, p1, p2 = (np.asarray(p) for p in (p0, p1, p2))
    c = (p0 + p1 + p2) / 3.0
    # build an in-plane orthonormal frame
    e1 = p1 - p0
    e1 = e1 / np.linalg.norm(e1)
    nrm = np.cross(p1 - p0, p2 - p0)
    nrm = nrm / np.linalg.norm(nrm)
    e2 = np.cross(nrm, e1)
    total = 0.0
    corners = [p0, p1, p2]
    for k in range(3):
        a, b = corners[k], corners[(k + 1) % 3]
        a2 = np.array([(a - c) @ e1, (a - c) @ e2])
        b2 = np.array([(b - c) @ e1, (b - c) @ e2])
        th_a = math.atan2(a2[1], a2[0])
        th_b = math.atan2(b2[1], b2[0])
        if th_b < th_a:
            th_b += 2 * math.pi
        edge = b2 - a2
        n2 = np.array([edge[1], -edge[0]])
        n2 /= np.linalg.norm(n2)
        d = float(a2 @ n2)

        def rmax(theta, d=d, n2=n2):
            u = np.array([math.cos(theta), math.sin(theta)])
            return d / float(u @ n2)

        val, _ = quad(rmax, th_a, th_b, epsabs=1e-12, epsrel=1e-12)
        total += abs(val)
    return total


class TestSelfIntegral:
    def test_equilateral_against_polar_oracle(self):
        # unit-area equilateral triangle
        side = math.sqrt(4.0 / math.sqrt(3.0))
        h = side * math.sqrt(3.0) / 2.0
        p0 = np.array([0.0, 0.0, 0.0])
        p1 = np.array([side, 0.0, 0.0])
        p2 = np.array([side / 2.0, h, 0.0])
        exact = bem.self_integral_inv_r(p0, p1, p2)
        oracle = _polar_self_integral(p0, p1, p2)
        assert exact == pytest.approx(oracle, abs=1e-8)

    def test_skewed_triangle_against_polar_oracle(self):
        p0 = np.array([0.1, -0.2, 0.5])
        p1 = np.array([1.3, 0.4, 0.6])
        p2 = np.array([0.2, 1.1, 0.1])
        assert bem.self_integral_inv_r(p0, p1, p2) == pytest.approx(
            _polar_self_integral(p0, p1, p2), abs=1e-8
        )

    def test_scaling_law(self):
        # integral of 1/r scales linearly with the triangle
        p = [np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.1, 0.0]), np.array([0.3, 0.9, 0.0])]
        v1 = bem.self_integral_inv_r(*p)
        v2 = bem.self_integral_inv_r(*(3.0 * q for q in p))
        assert v2 == pytest.approx(3.0 * v1, rel=1e-12)


class TestAssembly:
    def test_far_field_point_mass(self):
        # separation (2.0) is ~60x the panel diameter, so the point-mass
        # limit holds to well under 0.1%
        m = geo.make_sphere_mesh(0.05, 1)
        pts, wts = bem.panel_quadrature(m, 6)
        x = np.array([2.0, 0.0, 0.0])
        j = 0
        d = np.linalg.norm(x - pts[j], axis=1)
        entry = (wts[j] / d).sum() / FOUR_PI
        expect = m.areas[j] / (FOUR_PI * np.linalg.norm(x - m.centroids[j]))
        assert entry == pytest.approx(expect, rel=1e-3)

    def test_near_symmetry_uniform_mesh(self):
        # collocation is only approximately symmetric, and only when all
        # panels are congruent: the plain icosahedron
        m = geo.make_sphere_mesh(1.0, 0)
        M = bem.assemble_single_layer(m, 6)
        asym = np.abs(M - M.T).max() / np.abs(M).max()
        assert asym <= 5e-3

    def test_rejects_invalid_mesh(self):
        m = geo.make_sphere_mesh(1.0, 1)
        broken = geo.TriMesh(m.vertices.copy(), m.triangles[1:].copy())
        with pytest.raises(geo.MeshError):
            bem.assemble_single_layer(broken, 6)


class TestEquilibrium:
    def test_sphere_capacity_and_density(self, sphere3_sol):
        sol = sphere3_sol
        assert abs(sol.capacity - FOUR_PI) / FOUR_PI < 0.01
        assert sol.sigma_positive
        assert np.max(np.abs(sol.sigma - 1.0)) < 0.03  # |Du| = (n-2)/R = 1
        assert sol.residual_inf < 1e-10

    def test_radius_doubling(self):
        sol = bem.solve_equilibrium(geo.make_sphere_mesh(2.0, 2), 6)
        assert abs(sol.capacity - 8 * math.pi) / (8 * math.pi) < 0.015

    def test_capacity_scaling_invariance(self, sphere2_sol):
        base = sphere2_sol.capacity
        m = geo.make_sphere_mesh(1.0, 2)
        for t in (0.5, 2.0, 10.0):
            cap_t = bem.solve_equilibrium(m.scaled(t), 6).capacity
            assert cap_t == pytest.approx(t * base, rel=1e-3)

    def test_rigid_motion_invariance(self, sphere2_sol):
        theta = 1.1
        Rz = np.array([
            [math.cos(theta), -math.sin(theta), 0.0],
            [math.sin(theta), math.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ])
        m = geo.make_sphere_mesh(1.0, 2).transformed(rotation=Rz, translation=[5.0, 1.0, -2.0])
        sol = bem.solve_equilibrium(m, 6)
        assert sol.capacity == pytest.approx(sphere2_sol.capacity, rel=1e-10)

    def test_refinement_convergence(self, sphere2_sol, sphere3_sol):
        e2 = abs(sphere2_sol.capacity - FOUR_PI)
        e3 = abs(sphere3_sol.capacity - FOUR_PI)
        assert e3 < e2

    def test_spheroid_capacity_vs_oracle(self):
        sol = bem.solve_equilibrium(geo.make_ellipsoid_mesh(2.0, 1.0, 1.0, 3), 6)
        ref = oracles.ellipsoid_capacity(2.0, 1.0, 1.0)
        assert abs(sol.capacity - ref) / ref < 0.02
        assert sol.sigma_positive

    def test_spheroid_density_peaks_at_poles(self):
        m = geo.make_ellipsoid_mesh(2.0, 1.0, 1.0, 3)
        sol = bem.solve_equilibrium(m, 6)
        xc = np.abs(m.centroids[:, 0])
        poles = sol.sigma[xc > 1.8].mean()
        equator = sol.sigma[xc < 0.2].mean()
        assert poles > equator

    def test_condition_refusal(self):
        with pytest.raises(bem.SolverError, match="condition"):
            bem.solve_equilibrium(geo.make_sphere_mesh(1.0, 1), 6, cond_limit=1.0)


class TestEvaluation:
    def test_potential_against_radial_oracle(self, sphere3_sol):
        u = bem.eval_potential(sphere3_sol, [5.0, 0.0, 0.0])
        assert abs(u - 0.2) / 0.2 < 0.01

    def test_far_field_capacity(self, sphere3_sol):
        x = np.array([1e3, 0.0, 0.0])
        u = bem.eval_potential(sphere3_sol, x)
        assert u * 1e3 * FOUR_PI == pytest.approx(sphere3_sol.capacity, rel=0.01)

    def test_gradient_against_radial_oracle(self, sphere3_sol):
        x = np.array([0.0, 3.0, 0.0])
        Du = bem.eval_gradient(sphere3_sol, x)
        _, Du_exact, _ = oracles.radial_potential(3, 1.0, x)
        assert np.linalg.norm(Du - Du_exact) / np.linalg.norm(Du_exact) < 0.01

    def test_hessian_asymptotic_expansion(self, sphere3_sol):
        cap = sphere3_sol.capacity
        x = np.array([1e3, 200.0, -50.0])
        r = np.linalg.norm(x)
        D2u = bem.eval_hessian(sphere3_sol, x)
        expect = cap / FOUR_PI * r**-3 * (3.0 * np.outer(x, x) / r**2 - np.eye(3))
        assert np.abs(D2u - expect).max() / np.abs(expect).max() < 0.02

    def test_hessian_harmonic(self, sphere3_sol):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.normal(size=3)
            x *= rng.uniform(2.0, 20.0) / np.linalg.norm(x)
            H = bem.eval_hessian(sphere3_sol, x)
            assert abs(np.trace(H)) <= 1e-8 * np.abs(H).max()

    def test_interior_point_rejected(self, sphere2_sol):
        with pytest.raises(ValueError, match="inside"):
            bem.eval_potential(sphere2_sol, [0.1, 0.0, 0.0])

    def test_winding_number(self, sphere2_sol):
        m = sphere2_sol.mesh
        assert bem.winding_number(m, [0.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-10)
        assert bem.winding_number(m, [3.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-10)

    def test_distance_ratio_flag(self, sphere2_sol):
        near = bem.evaluation_distance_ratio(sphere2_sol, [1.05, 0.0, 0.0])
        far = bem.evaluation_distance_ratio(sphere2_sol, [10.0, 0.0, 0.0])
        assert near < 1.0 < far


class TestBoundaryGradient:
    def test_sphere_values(self, sphere3_sol):
        du = bem.boundary_gradient(sphere3_sol)
        assert np.max(np.abs(du - 1.0)) < 0.03

    def test_radius_scaling(self):
        sol = bem.solve_equilibrium(geo.make_sphere_mesh(2.0, 2), 6)
        du = bem.boundary_gradient(sol)
        assert np.max(np.abs(du - 0.5)) < 0.02


class TestCapacityThreeWays:
    def test_sphere_agreement(self, sphere3_sol):
        cc, ca, ce = bem.capacity_three_ways(sphere3_sol, 40.0)
        for v in (cc, ca, ce):
            assert abs(v - FOUR_PI) / FOUR_PI < 0.015
        assert cc == ce  # algebraic identity of the discretization
        assert abs(ca - cc) / cc < 0.005

    def test_spheroid_spread(self):
        sol = bem.solve_equilibrium(geo.make_ellipsoid_mesh(2.0, 1.0, 1.0, 3), 6)
        cc, ca, ce = bem.capacity_three_ways(sol, 60.0)
        vals = np.array([cc, ca, ce])
        assert (vals.max() - vals.min()) / vals.min() < 0.01

    def test_far_radius_precondition(self, sphere2_sol):
        with pytest.raises(ValueError, match="far_radius"):
            bem.capacity_three_ways(sphere2_sol, 5.0)


# ---------------------------------------------------------------------------
# equivalence with the per-point evaluators and the scalar self-integral
# that the batched code replaced, frozen here as references


def _frozen_self_integral(p0, p1, p2):
    c = (p0 + p1 + p2) / 3.0
    total = 0.0
    for a, b in ((p0, p1), (p1, p2), (p2, p0)):
        t = (b - a) / np.linalg.norm(b - a)
        d = float(np.linalg.norm(c - (a + ((c - a) @ t) * t)))
        r1, r2 = float(np.linalg.norm(a - c)), float(np.linalg.norm(b - c))
        total += d * math.log((float((b - c) @ t) + r2) / (float((a - c) @ t) + r1))
    return total


def _frozen_fields(sol, x):
    pts, wts = bem.panel_quadrature(sol.mesh, sol.quad_order)
    diff = x - pts
    r = np.linalg.norm(diff, axis=2)
    u = float(((wts / r).sum(axis=1) @ sol.sigma) / FOUR_PI)
    g = -(wts / r**3)[:, :, None] * diff
    Du = np.einsum("fqd,f->d", g, sol.sigma) / FOUR_PI
    sw = wts * sol.sigma[:, None]
    H = 3.0 * np.einsum("fq,fqij->ij", sw / r**5, np.einsum("fqi,fqj->fqij", diff, diff))
    H -= np.einsum("fq->", sw / r**3) * np.eye(3)
    return u, Du, H / FOUR_PI


@pytest.fixture(scope="module", params=["sphere", "spheroid"])
def level2_sol(request):
    if request.param == "sphere":
        return bem.solve_equilibrium(geo.make_sphere_mesh(1.0, 2), 6)
    return bem.solve_equilibrium(geo.make_ellipsoid_mesh(2.0, 1.0, 1.0, 2), 6)


class TestSharedKernels:
    def test_eval_fields_matches_per_point_reference(self, level2_sol):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(40, 3))
        X *= rng.uniform(2.5, 40.0, size=40)[:, None] / np.linalg.norm(X, axis=1)[:, None]
        u, Du, D2u = bem.eval_fields(level2_sol, X)
        assert u.shape == (40,) and Du.shape == (40, 3) and D2u.shape == (40, 3, 3)
        for k, x in enumerate(X):
            u0, Du0, D2u0 = _frozen_fields(level2_sol, x)
            assert abs(u[k] - u0) <= 1e-13 * abs(u0)
            assert np.abs(Du[k] - Du0).max() <= 1e-13 * np.abs(Du0).max()
            assert np.abs(D2u[k] - D2u0).max() <= 1e-13 * np.abs(D2u0).max()
            assert bem.eval_potential(level2_sol, x) == pytest.approx(u[k], rel=1e-14)
            assert np.allclose(bem.eval_hessian(level2_sol, x), D2u[k],
                               rtol=0, atol=1e-14 * np.abs(D2u0).max())

    def test_interior_point_in_batch_rejected(self, level2_sol):
        X = np.array([[5.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 7.0, 0.0]])
        with pytest.raises(ValueError, match="inside"):
            bem.eval_fields(level2_sol, X)

    def test_batched_winding_numbers(self, level2_sol):
        X = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.1, 0.2, -0.1]])
        w = bem.winding_number(level2_sol.mesh, X)
        assert w.shape == (3,)
        for k, x in enumerate(X):
            assert w[k] == pytest.approx(bem.winding_number(level2_sol.mesh, x), abs=1e-14)
        assert np.allclose(w, [1.0, 0.0, 1.0], atol=1e-10)

    def test_kernel_rows_match_assembly(self, level2_sol):
        mesh = level2_sol.mesh
        M = bem.assemble_single_layer(mesh, 6)
        rows = np.array([0, 7, 100, 101, mesh.num_panels - 1])
        R = bem._single_layer_rows(mesh, rows, 6)
        assert R.shape == (len(rows), mesh.num_panels)
        assert np.abs(R - M[rows]).max() <= 1e-14 * np.abs(M[rows]).max()

    def test_broadcast_self_integral(self, level2_sol):
        p = level2_sol.mesh.vertices[level2_sol.mesh.triangles]
        stacked = bem.self_integral_inv_r(p[:, 0], p[:, 1], p[:, 2])
        assert stacked.shape == (len(p),)
        for k in range(len(p)):
            one = bem.self_integral_inv_r(p[k, 0], p[k, 1], p[k, 2])
            assert isinstance(one, float)
            assert abs(stacked[k] - one) <= 1e-14 * abs(one)
            assert abs(one - _frozen_self_integral(*p[k])) <= 1e-14 * abs(one)
