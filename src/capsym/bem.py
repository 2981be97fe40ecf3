"""Single-layer boundary element solver for the exterior Dirichlet problem in R^3.

Piecewise-constant collocation at panel centroids for the first-kind
equation S sigma = 1, where S is the single-layer operator with kernel
1/(4 pi |x - y|).  The resulting density sigma is the equilibrium charge
density, its integral is the capacity, and off-surface potentials,
gradients and Hessians come from differentiating the kernel under the
integral.

One kernel, `_single_layer_rows`, builds any rows of the matrix for both
assembly and the residual check: diagonal entries by the exact integral of
1/r over a planar triangle from its centroid, near-diagonal entries by one
level of 4:1 panel subdivision.  One batched `eval_fields` gives u, Du and
D2u off the surface; every other evaluation goes through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve
from scipy.spatial import cKDTree

from .geometry import MeshError, TriMesh, _unit_icosphere, require_valid

FOUR_PI = 4.0 * math.pi

# chunk size of the kernel loops: a row chunk holds _BLOCK distances
# (rows x F*Q), a point chunk _BLOCK offsets (points x F*Q x 3), since
# evaluation keeps several such blocks alive; well under the dense matrix
_BLOCK = 5e6


class SolverError(RuntimeError):
    """Equilibrium solve failed (ill-conditioning or invalid input)."""


# ---------------------------------------------------------------------------
# triangle quadrature (symmetric Gauss rules, barycentric points)

def _perm3(a: float) -> list[tuple[float, float, float]]:
    b = 1.0 - 2.0 * a
    return [(b, a, a), (a, b, a), (a, a, b)]


def _perm6(a: float, b: float) -> list[tuple[float, float, float]]:
    c = 1.0 - a - b
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _build_rules() -> None:
    one = [(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)]
    _RULES[1] = (np.array(one), np.array([1.0]))

    _RULES[3] = (np.array(_perm3(1.0 / 6.0)), np.full(3, 1.0 / 3.0))

    pts6 = _perm3(0.445948490915965) + _perm3(0.091576213509771)
    w6 = [0.223381589678011] * 3 + [0.109951743655322] * 3
    _RULES[6] = (np.array(pts6), np.array(w6))

    pts12 = (
        _perm3(0.063089014491502)
        + _perm3(0.249286745170910)
        + _perm6(0.310352451033785, 0.053145049844816)
    )
    w12 = [0.050844906370207] * 3 + [0.116786275726379] * 3 + [0.082851075618374] * 6
    _RULES[12] = (np.array(pts12), np.array(w12))


_build_rules()


def triangle_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric points and weights (summing to 1) for order in {1, 3, 6, 12}."""
    try:
        return _RULES[order]
    except KeyError:
        raise ValueError(f"quadrature order must be one of {sorted(_RULES)}, got {order}") from None


def _norm(v) -> np.ndarray:
    """Norm over the last axis; unlike np.linalg.norm, no temporary of v's size."""
    s = np.asarray(np.einsum("...k,...k->...", v, v))
    return np.sqrt(s, out=s)


def _dot(a, b) -> np.ndarray:
    return np.einsum("...k,...k->...", a, b)


def self_integral_inv_r(p0, p1, p2):
    """Exact integral of 1/|c - y| over the planar triangle (p0, p1, p2),
    with c its centroid; stacked corners (..., 3) give one per triangle.

    Edge decomposition: for each edge the sub-integral in polar
    coordinates about c reduces to d * log((s2 + r2)/(s1 + r1)), d the
    in-plane distance from c to the edge line and s the arc-length
    coordinate along the edge.
    """
    p = [np.asarray(q, dtype=float) for q in (p0, p1, p2)]
    c = (p[0] + p[1] + p[2]) / 3.0
    total = 0.0
    for k in range(3):
        a, b = p[k], p[(k + 1) % 3]
        t = b - a
        lt = _norm(t)
        if np.any(lt == 0):
            raise MeshError("degenerate triangle in self-integral")
        t = t / lt[..., None]
        s1, r1 = _dot(a - c, t), _norm(a - c)
        s2, r2 = _dot(b - c, t), _norm(b - c)
        d = _norm(c - (a + _dot(c - a, t)[..., None] * t))
        with np.errstate(divide="ignore", invalid="ignore"):
            total = total + np.where(d < 1e-300, 0.0, d * np.log((s2 + r2) / (s1 + r1)))
    return float(total) if np.ndim(total) == 0 else total


def panel_quadrature(mesh: TriMesh, order: int, subdivide: bool = False
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Physical quadrature points (F, Q, 3) and weights (F, Q) including areas.

    With subdivide=True the rule is applied on each of the four 4:1
    subtriangles (Q becomes 4x larger).
    """
    bary, w = triangle_rule(order)
    p = mesh.vertices[mesh.triangles]  # (F, 3, 3)
    if not subdivide:
        pts = np.einsum("qk,fkd->fqd", bary, p)
        wts = np.outer(mesh.areas, w)
        return pts, wts
    v0, v1, v2 = p[:, 0], p[:, 1], p[:, 2]
    m01, m12, m20 = (v0 + v1) / 2, (v1 + v2) / 2, (v2 + v0) / 2
    subs = [(v0, m01, m20), (v1, m12, m01), (v2, m20, m12), (m01, m12, m20)]
    all_pts, all_wts = [], []
    for (a, b, c) in subs:
        sub = np.stack([a, b, c], axis=1)
        all_pts.append(np.einsum("qk,fkd->fqd", bary, sub))
        all_wts.append(np.outer(mesh.areas / 4.0, w))
    return np.concatenate(all_pts, axis=1), np.concatenate(all_wts, axis=1)


def _single_layer_rows(mesh: TriMesh, rows, order: int) -> np.ndarray:
    """Rows `rows` of the collocation matrix, shape (len(rows), F), in
    Fortran order: entry (r, j) = int_{T_j} dA(y) / (4 pi |c_i - y|) with
    i = rows[r].

    The diagonal (j = i) by the exact planar self-integral; entries whose
    centroid separation is below twice T_j's longest edge by subdivided
    quadrature; everything else by the plain panel rule.
    """
    rows = np.asarray(rows)
    F = mesh.num_panels
    cen = mesh.centroids
    pts, wts = panel_quadrature(mesh, order)
    Q = pts.shape[1]
    pts, wts = pts.reshape(-1, 3), wts.reshape(-1)

    # Fortran order lets the LU factorization downstream work truly in
    # place; a C-ordered matrix would be copied by LAPACK
    out = np.empty((len(rows), F), order="F")
    chunk = max(1, int(_BLOCK / len(pts)))
    for start in range(0, len(rows), chunk):
        d = _norm(cen[rows[start:start + chunk], None, :] - pts)
        np.divide(wts, d, out=d)
        out[start:start + chunk] = d.reshape(len(d), F, Q).sum(axis=2) / FOUR_PI

    # near-diagonal correction: one level of 4:1 subdivision
    max_edge = mesh.edge_lengths.max(axis=1)
    near = cKDTree(cen[rows]).sparse_distance_matrix(
        cKDTree(cen), 2.0 * float(max_edge.max()), output_type="ndarray")
    r, j = near["i"], near["j"]
    i = rows[r]
    keep = (i != j) & (np.linalg.norm(cen[i] - cen[j], axis=1) < 2.0 * max_edge[j])
    r, i, j = r[keep], i[keep], j[keep]
    spts, swts = panel_quadrature(mesh, order, subdivide=True)
    out[r, j] = (swts[j] / _norm(cen[i][:, None, :] - spts[j])).sum(axis=1) / FOUR_PI

    # diagonal: exact self-integral
    p = mesh.vertices[mesh.triangles[rows]]
    out[np.arange(len(rows)), rows] = self_integral_inv_r(p[:, 0], p[:, 1], p[:, 2]) / FOUR_PI
    return out


def assemble_single_layer(mesh: TriMesh, quad_order: int = 6) -> np.ndarray:
    """Dense collocation matrix, all rows of `_single_layer_rows`, after
    validating the mesh."""
    require_valid(mesh)
    return _single_layer_rows(mesh, np.arange(mesh.num_panels), quad_order)


# ---------------------------------------------------------------------------
# equilibrium solve


@dataclass(eq=False)
class EquilibriumSolution:
    """Equilibrium density on a mesh, with capacity and solver metadata."""

    mesh: TriMesh
    sigma: np.ndarray
    capacity: float
    quad_order: int
    residual_inf: float
    cond_estimate: float
    sigma_positive: bool


def solve_equilibrium(mesh: TriMesh, quad_order: int = 6,
                      cond_limit: float = 1e12) -> EquilibriumSolution:
    """Solve S sigma = 1 by dense LU with partial pivoting.

    Refuses to return results when the estimated 1-norm condition number
    exceeds cond_limit (first-kind conditioning grows like 1/h; refine or
    coarsen instead of trusting noise).  The collocation residual is
    checked on a deterministic sample of rows rebuilt by the assembly
    kernel, so no second matrix copy is needed.
    """
    M = assemble_single_layer(mesh, quad_order)
    F = mesh.num_panels
    # 1-norm in column blocks: np.abs(M) on the whole matrix would double
    # the peak memory at the largest refinement levels
    anorm = 0.0
    for start in range(0, F, 1024):
        anorm = max(anorm, float(np.abs(M[:, start:start + 1024]).sum(axis=0).max()))
    try:
        lu, piv = lu_factor(M, overwrite_a=True)
    except Exception as exc:  # singular factorization
        raise SolverError(f"LU factorization failed: {exc}") from exc
    del M

    (gecon,) = get_lapack_funcs(("gecon",), (lu,))
    rcond, info = gecon(lu, anorm, norm="1")
    if info != 0 or rcond == 0 or not np.isfinite(rcond):
        raise SolverError("condition estimation failed; matrix effectively singular")
    cond = 1.0 / float(rcond)
    if cond > cond_limit:
        raise SolverError(
            f"estimated condition number {cond:.3e} exceeds {cond_limit:.1e}; "
            "change the refinement level"
        )

    sigma = lu_solve((lu, piv), np.ones(F))
    capacity = float(sigma @ mesh.areas)

    # residual on a deterministic row sample
    rng = np.random.default_rng(0)
    rows = np.arange(F) if F <= 200 else np.sort(rng.choice(F, 200, replace=False))
    residual = float(np.max(np.abs(_single_layer_rows(mesh, rows, quad_order) @ sigma - 1.0)))

    return EquilibriumSolution(
        mesh=mesh,
        sigma=sigma,
        capacity=capacity,
        quad_order=quad_order,
        residual_inf=residual,
        cond_estimate=cond,
        sigma_positive=bool(np.all(sigma > 0)),
    )


def boundary_gradient(sol: EquilibriumSolution) -> np.ndarray:
    """|Du| on the boundary panels.

    The interior potential is constant, so the layer jump gives the
    exterior normal derivative -sigma; hence |Du| = sigma panelwise.
    """
    return sol.sigma.copy()


# ---------------------------------------------------------------------------
# off-surface evaluation


def winding_number(mesh: TriMesh, x):
    """Generalized winding number of the closed surface about x
    (1 inside, 0 outside), by summed signed solid angles.

    x of shape (3,) gives a float; stacked points (..., 3) give an array
    of shape (...).
    """
    x = np.asarray(x, dtype=float)
    p = mesh.vertices[mesh.triangles] - x[..., None, None, :]  # (..., F, 3, 3)
    a, b, c = p[..., 0, :], p[..., 1, :], p[..., 2, :]
    la, lb, lc = _norm(a), _norm(b), _norm(c)
    num = _dot(a, np.cross(b, c))
    den = la * lb * lc + _dot(a, b) * lc + _dot(b, c) * la + _dot(a, c) * lb
    w = np.sum(2.0 * np.arctan2(num, den), axis=-1) / FOUR_PI
    return float(w) if np.ndim(w) == 0 else w


def evaluation_distance_ratio(sol: EquilibriumSolution, x) -> float:
    """min distance to a panel centroid over that panel's diameter.

    Below ~1 the quadrature-based evaluations degrade; callers may warn.
    """
    x = np.asarray(x, dtype=float)
    d = np.linalg.norm(sol.mesh.centroids - x, axis=1)
    k = int(np.argmin(d))
    return float(d[k] / sol.mesh.edge_lengths[k].max())


def eval_fields(sol: EquilibriumSolution, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u (P,), Du (P, 3) and D2u (P, 3, 3) at the exterior points X (P, 3).

    u(x) = int sigma(y) / (4 pi |x - y|) dA(y); Du and D2u by the kernel
    gradient -r/(4 pi |r|^3) and Hessian (3 rr^T - |r|^2 I)/(4 pi |r|^5),
    r = x - y.  The quadrature is formed once; each chunk of points gets
    one batched winding-number test, and a point inside raises ValueError.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != 3:
        raise ValueError(f"evaluation points must have shape (P, 3), got {X.shape}")
    pts, wts = panel_quadrature(sol.mesh, sol.quad_order)
    ys = pts.reshape(-1, 3)
    sw = (wts * sol.sigma[:, None]).reshape(-1)
    u, Du, D2u = np.empty(len(X)), np.empty((len(X), 3)), np.empty((len(X), 3, 3))
    chunk = max(1, int(_BLOCK / (3 * len(ys))))
    for start in range(0, len(X), chunk):
        x = X[start:start + chunk]
        inside = winding_number(sol.mesh, x) > 0.5
        if inside.any():
            raise ValueError(f"evaluation point {x[np.argmax(inside)].tolist()} "
                             "lies inside the surface")
        diff = x[:, None, :] - ys  # (p, F*Q, 3)
        inv_r = 1.0 / _norm(diff)
        w3 = sw * inv_r * inv_r * inv_r
        w5 = w3 * inv_r * inv_r
        u[start:start + chunk] = inv_r @ sw
        Du[start:start + chunk] = -(w3[:, None, :] @ diff)[:, 0]
        D2u[start:start + chunk] = (
            3.0 * ((diff * w5[..., None]).transpose(0, 2, 1) @ diff)
            - w3.sum(axis=1)[:, None, None] * np.eye(3))
    return u / FOUR_PI, Du / FOUR_PI, D2u / FOUR_PI


def _point(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise ValueError(f"evaluation point must be in R^3, got shape {x.shape}")
    return x[None]


def eval_potential(sol: EquilibriumSolution, x) -> float:
    """u(x) at one strictly exterior point (see eval_fields)."""
    return float(eval_fields(sol, _point(x))[0][0])


def eval_gradient(sol: EquilibriumSolution, x) -> np.ndarray:
    """Du(x) at one strictly exterior point (see eval_fields)."""
    return eval_fields(sol, _point(x))[1][0]


def eval_hessian(sol: EquilibriumSolution, x) -> np.ndarray:
    """D2u(x) at one strictly exterior point (see eval_fields)."""
    return eval_fields(sol, _point(x))[2][0]


def capacity_three_ways(sol: EquilibriumSolution, far_radius: float
                        ) -> tuple[float, float, float]:
    """Capacity by total charge, far-field asymptotics, and boundary energy.

    cap_charge  = sum sigma * area (total equilibrium charge)
    cap_asympt  = (n-2) omega_n * mean over a far sample sphere of u |x|^{n-2}
    cap_energy  = int_{boundary} u (du/dnu) dA with u = 1 on the boundary,
                  which collapses to the same charge sum: not independent.
    """
    if far_radius < 10.0 * sol.mesh.diameter:
        raise ValueError(
            f"far_radius {far_radius} below 10x mesh diameter {sol.mesh.diameter}"
        )
    cap_charge = float(sol.sigma @ sol.mesh.areas)
    center = np.einsum("f,fd->d", sol.mesh.areas, sol.mesh.centroids) / sol.mesh.total_area
    dirs, _ = _unit_icosphere(2)
    X = center + far_radius * dirs
    u, _, _ = eval_fields(sol, X)
    cap_asympt = FOUR_PI * float(np.mean(u * np.linalg.norm(X - center, axis=1)))
    return cap_charge, cap_asympt, cap_charge
