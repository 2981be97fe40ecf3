import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve
from scipy.spatial import cKDTree

from capsym import bem, cli, functionals as fn, geometry as geo, oracles

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
        cc, ca, cf = bem.capacity_three_ways(sphere3_sol, 40.0)
        for v in (cc, ca, cf):
            assert abs(v - FOUR_PI) / FOUR_PI < 0.015
        assert cc == sphere3_sol.capacity
        # Gauss's law: the flux of the discrete potential through an enclosing
        # sphere is its total charge, up to the far-sphere quadrature
        assert cf == pytest.approx(cc, rel=1e-10)
        assert abs(ca - cc) / cc < 0.005

    def test_spheroid_spread(self):
        sol = bem.solve_equilibrium(geo.make_ellipsoid_mesh(2.0, 1.0, 1.0, 3), 6)
        cc, ca, cf = bem.capacity_three_ways(sol, 60.0)
        vals = np.array([cc, ca, cf])
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


def _frozen_norm(v):
    s = np.asarray(np.einsum("...k,...k->...", v, v))
    return np.sqrt(s, out=s)


def _frozen_single_layer_rows(mesh, rows, order):
    # the row kernel as it was before its loops were made cache-sized: the
    # far field by one (rows, F*Q, 3) difference block per 5e6 distances,
    # the near field over all pairs at once
    rows = np.asarray(rows)
    F = mesh.num_panels
    cen = mesh.centroids
    pts, wts = bem.panel_quadrature(mesh, order)
    Q = pts.shape[1]
    pts, wts = pts.reshape(-1, 3), wts.reshape(-1)

    out = np.empty((len(rows), F), order="F")
    chunk = max(1, int(5e6 / len(pts)))
    for start in range(0, len(rows), chunk):
        d = _frozen_norm(cen[rows[start:start + chunk], None, :] - pts)
        np.divide(wts, d, out=d)
        out[start:start + chunk] = d.reshape(len(d), F, Q).sum(axis=2) / FOUR_PI

    max_edge = mesh.edge_lengths.max(axis=1)
    near = cKDTree(cen[rows]).sparse_distance_matrix(
        cKDTree(cen), 2.0 * float(max_edge.max()), output_type="ndarray")
    r, j = near["i"], near["j"]
    i = rows[r]
    keep = (i != j) & (np.linalg.norm(cen[i] - cen[j], axis=1) < 2.0 * max_edge[j])
    r, i, j = r[keep], i[keep], j[keep]
    spts, swts = bem.panel_quadrature(mesh, order, subdivide=True)
    out[r, j] = (swts[j] / _frozen_norm(cen[i][:, None, :] - spts[j])).sum(axis=1) / FOUR_PI

    p = mesh.vertices[mesh.triangles[rows]]
    out[np.arange(len(rows)), rows] = bem.self_integral_inv_r(p[:, 0], p[:, 1], p[:, 2]) / FOUR_PI
    return out


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


def _moved_scaled_spheroid():
    q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))
    return geo.make_ellipsoid_mesh(2.0, 1.0, 1.0, 2).transformed(
        q, np.array([0.3, -1.2, 0.7])).scaled(2.5)


def _kd_pairs(a, b, radius):
    near = cKDTree(a).sparse_distance_matrix(cKDTree(b), radius, output_type="ndarray")
    return np.stack([near["i"], near["j"]])


def _pair_points(case):
    """Points a, b and a radius for the near-pair search."""
    rng = np.random.default_rng(13)
    if case == "planar":
        # zero extent along y
        b = rng.uniform(-1.0, 1.0, size=(400, 3))
        b[:, 1] = 0.25
        return b[:150], b, 0.1
    if case == "cube-edge":
        # x = 1 - 2^-53 and x = 2 are 1.0 apart in floating point, yet
        # their quotients by a side of 1.0 floor to 0 and 2
        b = np.array([[0.0, 9.0, 9.0], [1.0 - 2.0**-53, 0.0, 0.0], [2.0, 0.0, 0.0]])
        return b, b, 1.0
    if case == "clusters-1e30":
        # cube indices near 1e33 along x, beyond int64
        near = rng.uniform(0.0, 0.02, size=(300, 3))
        b = np.concatenate([near, near + [1e30, 0.0, 0.0]])
        return b, b, 1e-3
    mesh = {"sphere-L3": lambda: geo.make_sphere_mesh(1.0, 3),
            "moved+scaled": _moved_scaled_spheroid,
            "bumpy": lambda: geo.make_bumpy_sphere_mesh(1.0, 2)}.get(
                case, lambda: geo.make_ellipsoid_mesh(2.0, 1.0, 1.0, 2))()
    cen, F = mesh.centroids, mesh.num_panels
    rows = {"unsorted-57": rng.permutation(F)[:57], "single": np.array([F // 3])}.get(
        case, np.arange(F))
    return cen[rows], cen, 2.0 * float(mesh.edge_lengths.max())


class TestNearPairs:
    @pytest.mark.parametrize("case", ["sphere-L3", "moved+scaled", "bumpy", "unsorted-57",
                                      "single", "planar", "cube-edge", "clusters-1e30"])
    # no cube index may overflow a cast
    @pytest.mark.filterwarnings("error")
    def test_pairs_equal_kd_tree(self, case):
        a, b, radius = _pair_points(case)
        p, q = bem._near_pairs(a, b, radius)
        got = np.stack([p, q])
        want = _kd_pairs(a, b, radius)
        assert want.shape[1] > len(a)
        # each pair once, and the same pairs as the tree's
        assert np.unique(got, axis=1).shape == got.shape
        assert np.array_equal(np.unique(got, axis=1), np.unique(want, axis=1))

    def test_far_cluster_keeps_its_pairs(self):
        a, b, radius = _pair_points("clusters-1e30")
        p, q = bem._near_pairs(a, b, radius)
        far = len(b) // 2
        # the far cluster's pairs, apart from each point with itself
        assert np.count_nonzero((p >= far) & (q >= far) & (p != q)) > 0


class TestCacheSizedKernels:
    @pytest.mark.parametrize("budget", ["default", "small"])
    @pytest.mark.parametrize("subset", ["unsorted", "single", "chunk+1", "all"])
    @pytest.mark.parametrize("shape", ["sphere", "spheroid", "moved+scaled"])
    def test_rows_match_frozen_kernel(self, shape, subset, budget, monkeypatch):
        mesh = {"sphere": lambda: geo.make_sphere_mesh(1.0, 2),
                "spheroid": lambda: geo.make_ellipsoid_mesh(2.0, 1.0, 1.0, 2),
                "moved+scaled": _moved_scaled_spheroid}[shape]()
        F = mesh.num_panels
        if budget == "small":
            # chunk boundaries inside the column range and the pair range
            monkeypatch.setattr(bem, "_CHUNK", 6 * 40 * 7)
        rows = {"unsorted": np.random.default_rng(3).permutation(F)[:57],
                "single": np.array([F // 3]),
                # one row more than a chunk of F*Q-wide planes holds
                "chunk+1": np.arange(bem._chunk_len(F * 6) + 1),
                "all": np.arange(F)}[subset]
        R = bem._single_layer_rows(mesh, rows, 6)
        R0 = _frozen_single_layer_rows(mesh, rows, 6)
        assert R.shape == R0.shape == (len(rows), F) and R.flags.f_contiguous
        assert np.all(np.abs(R - R0) <= 1e-13 * np.abs(R0))

    def test_assembly_peak_below_twice_the_matrix(self):
        mesh = geo.make_sphere_mesh(1.0, 3)
        tracemalloc.start()
        try:
            M = bem.assemble_single_layer(mesh, 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * M.nbytes

    def test_eval_fields_peak_independent_of_points(self, sphere3_sol):
        peaks = {}
        for count in (32, 512):
            X = fn.sample_exterior_points(sphere3_sol.mesh, count, 0)
            tracemalloc.start()
            try:
                bem.eval_fields(sphere3_sol, X)
                _, peaks[count] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peaks[512] < 16 * 2**20
        # beyond the 13 output doubles per point, nothing grows with the count
        assert peaks[512] - peaks[32] < 2 * 480 * 13 * 8


# ---------------------------------------------------------------------------
# far-field lanes and the bounding-sphere gate of the inside test


class TestLanes:
    @pytest.mark.parametrize("sample", ["all", "residual"])
    def test_rows_equal_at_one_and_three_lanes(self, sample, monkeypatch):
        mesh = _moved_scaled_spheroid()
        F = mesh.num_panels
        rows = {"all": np.arange(F),
                # the 200 sorted rows the residual check once rebuilt
                "residual": np.sort(np.random.default_rng(0).choice(F, 200, replace=False))}[sample]
        # three lanes of one panel a chunk, one lane of three or four:
        # hundreds of chunks on another grid at each lane count
        monkeypatch.setattr(bem, "_CHUNK", 6 * 3 * F)
        runs = {}
        for cores in (1, 3):
            monkeypatch.setattr(bem, "_usable_cores", lambda cores=cores: cores)
            assert bem._far_grid(len(rows) * 6, F)[0] == cores
            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                R = bem._single_layer_rows(mesh, rows, 6)
                M = bem.assemble_single_layer(mesh, 6) if sample == "all" else R
            finally:
                sys.setswitchinterval(switch)
            runs[cores] = R, M
        assert np.array_equal(runs[1][0], runs[3][0])
        assert np.array_equal(runs[1][1], runs[3][1])

    @pytest.mark.parametrize("failing", [0, 1])
    def test_lane_error_raised_after_every_lane_finished(self, failing):
        threads = threading.active_count()
        started = [threading.Event() for _ in range(3)]
        done = []

        def body(lane, start):
            # every lane takes a chunk before any chunk ends
            started[lane].set()
            assert all(e.wait(30) for e in started)
            if lane == failing:
                raise RuntimeError(f"lane {lane} failed")
            # lane 2 is the slowest, so it is still running when the
            # calling thread's lane 0 ends
            time.sleep(0.05 if lane == 2 else 0.0)
            done.append(start)

        with pytest.raises(RuntimeError, match=f"lane {failing} failed"):
            bem._each_chunk(body, range(9), 3)
        # the other lanes took every other chunk and ended, their threads too
        assert len(done) == 8 and len(set(done)) == 8
        assert threading.active_count() == threads

    @pytest.mark.parametrize("cores", [8, 16])
    def test_assembly_peak_below_twice_the_matrix_on_many_cores(self, cores, monkeypatch):
        monkeypatch.setattr(bem, "_usable_cores", lambda: cores)
        mesh = geo.make_sphere_mesh(1.0, 3)
        assert bem._far_grid(mesh.num_panels * 6, mesh.num_panels)[0] == cores
        tracemalloc.start()
        try:
            M = bem.assemble_single_layer(mesh, 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * M.nbytes

    @pytest.mark.parametrize("width", [1, 6, 1200, 7680, 30720, 2**17, 2**17 + 6])
    @pytest.mark.parametrize("cores", [1, 2, 3, 8, 64])
    def test_far_scratch_within_one_budget(self, cores, width, monkeypatch):
        monkeypatch.setattr(bem, "_usable_cores", lambda: cores)
        panels = 5120
        lanes, cols = bem._far_grid(width, panels)
        assert 1 <= lanes <= cores and lanes <= -(-panels // cols)
        # all lanes' planes within the budget, unless one panel exceeds it
        assert lanes * cols * width <= max(bem._CHUNK, width)

    def test_import_starts_no_thread(self):
        src = os.path.dirname(os.path.dirname(bem.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import threading, capsym.cli; print(threading.active_count())"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "1"


@pytest.fixture(scope="module")
def spheroid2_sol():
    return bem.solve_equilibrium(geo.make_ellipsoid_mesh(2.0, 1.0, 1.0, 2), 6)


@pytest.fixture
def winding_calls(monkeypatch):
    """Points passed to each winding_number call eval_fields makes."""
    calls = []
    real = bem.winding_number

    def counting(mesh, x):
        calls.append(np.array(x))
        return real(mesh, x)

    monkeypatch.setattr(bem, "winding_number", counting)
    return calls


class TestInsideGate:
    def test_sample_points_skip_inside_test(self, level2_sol, winding_calls):
        X = fn.sample_exterior_points(level2_sol.mesh, 300, 4)
        bem.eval_fields(level2_sol, X)
        assert winding_calls == []

    def test_point_within_bounding_sphere_is_tested(self, spheroid2_sol, winding_calls):
        mesh = spheroid2_sol.mesh
        x = np.array([0.0, 1.2, 0.0])
        # outside the 2:1:1 spheroid, inside its bounding sphere of radius 2
        assert np.linalg.norm(x - mesh.center) <= mesh.bounding_radius
        X = np.vstack([fn.sample_exterior_points(mesh, 5, 1), x])
        u, Du, D2u = bem.eval_fields(spheroid2_sol, X)
        assert len(winding_calls) == 1 and np.array_equal(winding_calls[0], x[None])
        u0, Du0, D2u0 = _frozen_fields(spheroid2_sol, x)
        assert abs(u[-1] - u0) <= 1e-13 * abs(u0)
        assert np.abs(Du[-1] - Du0).max() <= 1e-13 * np.abs(Du0).max()
        assert np.abs(D2u[-1] - D2u0).max() <= 1e-13 * np.abs(D2u0).max()

    def test_interior_point_message(self, spheroid2_sol):
        X = np.array([[5.0, 0.0, 0.0], [0.0, 1.2, 0.0], [0.1, 0.0, 0.0], [0.0, 0.2, 0.0]])
        msg = "evaluation point [0.1, 0.0, 0.0] lies inside the surface"
        with pytest.raises(ValueError, match=re.escape(msg)):
            bem.eval_fields(spheroid2_sol, X)


# ---------------------------------------------------------------------------
# the Krylov solve against the dense LU it replaced, frozen here as the
# reference


def _frozen_lu_solve(mesh, quad_order=6):
    """sigma, capacity and gecon's 1-norm condition estimate of the dense
    LU solve with partial pivoting."""
    M = bem.assemble_single_layer(mesh, quad_order)
    cols = max(1, bem._CHUNK // M.shape[0])
    anorm = max(float(np.abs(M[:, start:start + cols]).sum(axis=0).max())
                for start in range(0, M.shape[1], cols))
    lu, piv = lu_factor(M, overwrite_a=True)
    (gecon,) = get_lapack_funcs(("gecon",), (lu,))
    rcond, info = gecon(lu, anorm, norm="1")
    assert info == 0
    sigma = lu_solve((lu, piv), np.ones(mesh.num_panels))
    return sigma, float(sigma @ mesh.areas), 1.0 / float(rcond)


def _moved_spheroid():
    q, _ = np.linalg.qr(np.random.default_rng(8).normal(size=(3, 3)))
    return geo.make_ellipsoid_mesh(2.0, 1.0, 1.0, 2).transformed(q, np.array([1.5, -0.4, 2.0]))


KRYLOV_MESHES = {
    "sphere-L2": lambda: geo.make_sphere_mesh(1.0, 2),
    "sphere-L3": lambda: geo.make_sphere_mesh(1.0, 3),
    "spheroid-L3": lambda: geo.make_ellipsoid_mesh(2.0, 1.0, 1.0, 3),
    "moved-spheroid-L2": _moved_spheroid,
    "bumpy-L2": lambda: geo.make_bumpy_sphere_mesh(1.0, 2),
}
LEVEL2 = ["sphere-L2", "moved-spheroid-L2", "bumpy-L2"]


class TestKrylovSolve:
    @pytest.mark.parametrize("name", list(KRYLOV_MESHES))
    def test_matches_frozen_lu(self, name):
        mesh = KRYLOV_MESHES[name]()
        sol = bem.solve_equilibrium(mesh, 6)
        sigma0, cap0, _ = _frozen_lu_solve(mesh)
        assert np.abs(sol.sigma - sigma0).max() <= 1e-10 * np.abs(sigma0).max()
        assert abs(sol.capacity - cap0) <= 1e-14 * cap0

    @pytest.mark.parametrize("name", LEVEL2)
    def test_true_residual_meets_tolerance(self, name):
        mesh = KRYLOV_MESHES[name]()
        sol = bem.solve_equilibrium(mesh, 6)
        M = bem.assemble_single_layer(mesh, 6)
        b = np.ones(mesh.num_panels)
        # the tolerance up to the roundoff of forming M sigma
        assert np.linalg.norm(b - M @ sol.sigma) <= 10 * bem._GMRES_RTOL * np.linalg.norm(b)

    @pytest.mark.parametrize("name", LEVEL2)
    def test_cond_estimate_bounds_kappa2(self, name):
        mesh = KRYLOV_MESHES[name]()
        sol = bem.solve_equilibrium(mesh, 6)
        M = bem.assemble_single_layer(mesh, 6)
        kappa2 = np.linalg.cond(M / M.diagonal())
        assert 0.5 * kappa2 <= sol.cond_estimate <= kappa2 * (1 + 1e-10)

    @pytest.mark.parametrize("name", list(KRYLOV_MESHES))
    def test_full_residual_covers_row_sample(self, name):
        mesh = KRYLOV_MESHES[name]()
        sol = bem.solve_equilibrium(mesh, 6)
        M = bem.assemble_single_layer(mesh, 6)
        assert sol.residual_inf == np.abs(M @ sol.sigma - 1.0).max()
        # the residual as it was measured before: 200 seeded rows, rebuilt
        rows = np.sort(np.random.default_rng(0).choice(mesh.num_panels, 200, replace=False))
        R = bem._single_layer_rows(mesh, rows, 6)
        sampled = np.abs(R @ sol.sigma - 1.0).max()
        rounding = math.sqrt(mesh.num_panels) * np.finfo(float).eps * (
            np.abs(R) @ np.abs(sol.sigma)).max()
        assert sol.residual_inf >= sampled - rounding

    def test_iteration_cap(self, monkeypatch, capsys):
        monkeypatch.setattr(bem, "_GMRES_MAXITER", 2)
        with pytest.raises(bem.SolverError, match="GMRES did not reach .* in 2 iterations"):
            bem.solve_equilibrium(geo.make_sphere_mesh(1.0, 2), 6)
        assert cli.main(["capacity", "--shape", "sphere", "1", "3"]) == cli.EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "2 iterations" in err[0]

    def test_nan_entry_raises(self, monkeypatch):
        assemble = bem.assemble_single_layer

        def with_nan(mesh, quad_order=6):
            M = assemble(mesh, quad_order)
            M[5, 17] = np.nan
            return M

        monkeypatch.setattr(bem, "assemble_single_layer", with_nan)
        with pytest.raises(bem.SolverError, match="non-finite Krylov vector"):
            bem.solve_equilibrium(geo.make_sphere_mesh(1.0, 2), 6)
