"""Single-layer boundary element solver for the exterior Dirichlet problem in R^3.

Piecewise-constant collocation at panel centroids for the first-kind
equation S sigma = 1, where S is the single-layer operator with kernel
1/(4 pi |x - y|).  The dense collocation system is solved by full GMRES,
right-preconditioned by its diagonal.  The resulting density sigma is the
equilibrium charge density, its integral is the capacity, and off-surface
potentials, gradients and Hessians come from differentiating the kernel
under the integral.

One kernel, `_single_layer_rows`, builds any rows of the matrix: diagonal
entries by the exact integral of 1/r over a planar triangle from its
centroid, near-diagonal entries by one level of 4:1 panel subdivision.
The near pairs are found on a uniform grid of cubes whose side is twice
the longest edge (`_near_pairs`): a pair can only join centroids in
neighbouring cubes, and sorting the centroids by cube makes each column
of three cubes one contiguous run.  Only numpy is imported; scipy is
not needed to solve or evaluate.  One batched `eval_fields` gives u, Du
and D2u off the surface; every other evaluation goes through it.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import MeshError, TriMesh, _unit_icosphere, require_valid

FOUR_PI = 4.0 * math.pi


def __getattr__(name):
    # scipy's LU, which the solver does not use, resolved on first access
    # only for perfbench/tracer.py, which traces these two names here
    if name in ("lu_factor", "lu_solve"):
        import scipy.linalg
        return getattr(scipy.linalg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# element budget of one kernel temporary.  The kernel loops keep the three
# coordinates in separate contiguous planes and cut their work into chunks
# whose planes hold at most _CHUNK doubles (1 MB): two (panels*Q, rows)
# planes in the far field, shared among its lanes, seven (points, F*Q)
# planes in eval_fields.
# Every numpy pass over them then runs in cache, where a (rows, F*Q, 3)
# difference block would stream through DRAM once per pass.  The
# near-field pairs and the winding-number test are chunked by the same
# budget.
_CHUNK = 2**17


def _chunk_len(width: int) -> int:
    """Rows of a chunk whose rows hold `width` elements each."""
    return max(1, _CHUNK // width)


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity mask where the
    platform has one (so `taskset -c 0` gives one lane), else all."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _each_chunk(body, starts, lanes: int) -> None:
    """Call body(lane, start) for every chunk start on `lanes` lanes, each
    taking the next start from one shared iterator, so a lane whose core is
    busy elsewhere does less of the work.  Lane 0 runs on the calling
    thread, the others on a pool made for this call; the numpy passes
    inside body release the GIL, so the lanes overlap.  Returns, or raises
    a lane's exception, only once every lane has finished, so no lane
    still writes into the caller's buffers.
    """
    todo = iter(starts)
    lock = threading.Lock()

    def run(lane):
        while True:
            with lock:
                start = next(todo, None)
            if start is None:
                return
            body(lane, start)

    if lanes == 1:
        run(0)
        return
    # leaving the block waits for every lane, also when run(0) raises
    with ThreadPoolExecutor(lanes - 1, thread_name_prefix="capsym-lane") as pool:
        others = [pool.submit(run, lane) for lane in range(1, lanes)]
        run(0)
    for f in others:
        f.result()


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
    # Fortran order makes each far-field column chunk one contiguous block;
    # the solver's matrix-vector products read it in either order
    out = np.empty((len(rows), mesh.num_panels), order="F")
    _far_entries(out, mesh, rows, order)
    _near_entries(out, mesh, rows, order)
    _self_entries(out, mesh, rows)
    return out


def _far_grid(width: int, panels: int) -> tuple[int, int]:
    """Lanes and panels per chunk of a far field whose panels each take
    `width` elements of a plane (rows times quadrature points).

    One lane per usable core, but no more lanes than chunks, and all lanes'
    scratch together within the one-lane budget: every lane's planes hold
    at least one panel and together at most _CHUNK elements, whatever the
    number of cores.
    """
    lanes = max(1, min(_usable_cores(), _CHUNK // width))
    cols = _chunk_len(width * lanes)
    return min(lanes, -(-panels // cols)), cols


def _far_entries(out, mesh: TriMesh, rows, order: int) -> None:
    """Every entry of `out` by the plain panel rule.

    Column chunk by column chunk, so that each chunk lands in a contiguous
    block of the Fortran-ordered `out`: the squared distances from the
    chunk's quadrature points to all collocation points are summed
    coordinate by coordinate in two reused (points, rows) planes, then
    turned into w/|c - y| in place and summed over each panel's points.
    Distances are formed from the differences, never as
    |c|^2 + |y|^2 - 2 c.y, whose cancellation would cost digits next to
    the panels.

    The chunks are spread over the lanes of `_far_grid`, which narrows
    them as lanes are added.  Each entry is one panel's sum over its own
    quadrature points for one row, the same arithmetic whatever the chunk
    width or the lane that computes it, so no entry depends on the number
    of cores.  Each lane gets its own scratch planes, allocated here:
    blocks that worker threads allocate and free stay in glibc's
    per-thread arenas and raise the peak RSS.
    """
    pts, wts = panel_quadrature(mesh, order)
    F, Q = wts.shape
    C = np.ascontiguousarray(mesh.centroids[rows].T)
    lanes, cols = _far_grid(len(rows) * Q, F)
    planes = np.empty((lanes, 2, min(cols, F) * Q, len(rows)))
    sums = np.empty((lanes, min(cols, F), len(rows)))

    def chunk(lane, start):
        y = pts[start:start + cols].reshape(-1, 3)
        w = wts[start:start + cols].reshape(-1, 1)
        d, t = planes[lane, :, :len(y)]
        np.subtract(C[0], y[:, 0:1], out=d)
        np.multiply(d, d, out=d)
        for k in (1, 2):
            np.subtract(C[k], y[:, k:k + 1], out=t)
            np.multiply(t, t, out=t)
            np.add(d, t, out=d)
        np.sqrt(d, out=d)
        np.divide(w, d, out=d)
        m = len(y) // Q
        s = d.reshape(m, Q, -1).sum(axis=1, out=sums[lane, :m])
        np.divide(s.T, FOUR_PI, out=out[:, start:start + m])

    _each_chunk(chunk, range(0, F, cols), lanes)


def _near_pairs(a, b, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (p, q) with |a[p] - b[q]| <= radius, in no particular order:
    the pair set of scipy's `cKDTree.sparse_distance_matrix`, from a
    uniform grid of cubes.

    Both point sets fall into cubes of side radius, enlarged by 2^-20 so
    that rounding in the cube coordinates (below 2^-21 of a cube while the
    points span fewer than 2^30 cubes) cannot part a pair at distance
    radius by two cubes.  On each axis the occupied cube coordinates are
    renumbered in order, a step of one cube kept and every wider gap
    shrunk to two: neighbouring cubes stay neighbours, others stay apart,
    and however far apart the points lie, each axis spans fewer than
    2N + 2 cubes (N = len(a) + len(b)), so the key (x, y, z) of a cube
    fits in int64 for N below a million.  b is sorted by that key, so a
    column of three cubes along z is one contiguous run: each point of a
    finds its 27 neighbouring cubes as 9 `searchsorted` ranges, and the
    candidates of each of the 9 column offsets are filtered by distance
    before the next offset is searched.
    """
    a = np.asarray(a, dtype=float)
    pts = np.concatenate([a, np.asarray(b, dtype=float)])
    n = len(a)
    side = radius * (1.0 + 2.0**-20)
    cube = np.empty(pts.shape, dtype=np.int64)
    for k in range(3):
        c, at = np.unique(np.floor((pts[:, k] - pts[:, k].min()) / side), return_inverse=True)
        steps = np.minimum(np.diff(c), 2.0).astype(np.int64)
        # from 1, so that the cubes just below and above every column exist
        cube[:, k] = np.concatenate(([1], 1 + np.cumsum(steps)))[at]
    _, ny, nz = cube.max(axis=0) + 2
    key = (cube[:, 0] * ny + cube[:, 1]) * nz + cube[:, 2]
    order = np.argsort(key[n:], kind="stable")
    key_a, key_b = key[:n], key[n:][order]
    # coordinate planes, b's in key order
    (ax, ay, az), (bx, by, bz) = a.T.copy(), pts[n:][order].T.copy()
    r2 = radius * radius
    found_p, found_q = [], []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            mid = key_a + (dx * ny + dy) * nz
            start = np.searchsorted(key_b, mid - 1, side="left")
            count = np.searchsorted(key_b, mid + 1, side="right") - start
            p = np.repeat(np.arange(n), count)
            at = np.arange(len(p)) + np.repeat(start - np.cumsum(count) + count, count)
            # summed x, y, z in that order, as cKDTree does
            d = np.square(ax[p] - bx[at])
            d += np.square(ay[p] - by[at])
            d += np.square(az[p] - bz[at])
            near = d <= r2
            found_p.append(p[near])
            found_q.append(order[at[near]])
    return np.concatenate(found_p), np.concatenate(found_q)


def _near_entries(out, mesh: TriMesh, rows, order: int) -> None:
    """Overwrite the near-diagonal entries of `out` by one level of 4:1
    subdivision, in chunks of candidate pairs.

    The candidates are the (row, panel) pairs whose centroids lie within
    twice the mesh's longest edge, found by `_near_pairs` on a grid of
    cubes of that side; of these, a pair is near when its separation is
    below twice the longest edge of its own panel T_j.
    """
    cen = mesh.centroids
    max_edge = mesh.edge_lengths.max(axis=1)
    r, j = _near_pairs(cen[rows], cen, 2.0 * float(max_edge.max()))
    i = rows[r]
    keep = (i != j) & (np.linalg.norm(cen[i] - cen[j], axis=1) < 2.0 * max_edge[j])
    r, i, j = r[keep], i[keep], j[keep]
    spts, swts = panel_quadrature(mesh, order, subdivide=True)
    chunk = _chunk_len(spts[0].size)
    for start in range(0, len(r), chunk):
        ic, jc = i[start:start + chunk], j[start:start + chunk]
        out[r[start:start + chunk], jc] = (
            swts[jc] / _norm(cen[ic][:, None, :] - spts[jc])).sum(axis=1) / FOUR_PI


def _self_entries(out, mesh: TriMesh, rows) -> None:
    """Overwrite the diagonal entries of `out` by the exact self-integral."""
    p = mesh.vertices[mesh.triangles[rows]]
    out[np.arange(len(rows)), rows] = self_integral_inv_r(p[:, 0], p[:, 1], p[:, 2]) / FOUR_PI


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


# GMRES stops at ||1 - M sigma||_2 <= _GMRES_RTOL ||1||_2, and gives up
# after _GMRES_MAXITER iterations: the L4 sphere takes 36, the L4 2:1:1
# spheroid 54, about a dozen more per refinement level
_GMRES_RTOL = 1e-14
_GMRES_MAXITER = 200


def _gmres(M, b) -> tuple[np.ndarray, np.ndarray]:
    """x with ||b - M x||_2 <= _GMRES_RTOL ||b||_2, and the Arnoldi matrix.

    Full (unrestarted) GMRES from x = 0 on M D^-1 y = b, x = D^-1 y, with
    D = diag(M) (Saad & Schultz 1986).  Right preconditioning leaves the
    residual that GMRES minimises equal to b - M x.  Arnoldi applies
    classical Gram-Schmidt twice and builds the (k+1, k) Hessenberg matrix
    Hbar = V_{k+1}^T M D^-1 V_k.  The Givens rotations that would reduce
    it to triangular form give the least-squares residual, beta times the
    product of their sines; once that meets the tolerance, y minimises
    ||beta e_1 - Hbar y||.  Returns x and Hbar; raises SolverError on a
    non-finite Krylov vector or when the tolerance is not met within
    _GMRES_MAXITER iterations.
    """
    m = _GMRES_MAXITER
    d = M.diagonal().copy()
    beta = float(np.linalg.norm(b))
    # rows of V are written only as the iteration reaches them
    V = np.empty((m + 1, len(b)))
    z = np.empty(len(b))
    H = np.zeros((m + 1, m))
    rotations, residual = [], beta
    np.divide(b, beta, out=V[0])
    for k in range(m):
        w, Vk = V[k + 1], V[:k + 1]
        np.matmul(M, np.divide(V[k], d, out=z), out=w)
        h = Vk @ w
        w -= h @ Vk
        h2 = Vk @ w
        w -= h2 @ Vk
        H[:k + 1, k] = h + h2
        H[k + 1, k] = np.linalg.norm(w)
        if not np.all(np.isfinite(H[:k + 2, k])):
            raise SolverError(f"non-finite Krylov vector at GMRES iteration {k + 1}")
        col = H[:k + 2, k].tolist()
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        rho = math.hypot(col[k], col[k + 1])
        if rho == 0.0:
            raise SolverError(f"singular Krylov projection at GMRES iteration {k + 1}")
        rotations.append((col[k] / rho, col[k + 1] / rho))
        residual *= col[k + 1] / rho
        if residual <= _GMRES_RTOL * beta:
            hbar = H[:k + 2, :k + 1]
            y = np.linalg.lstsq(hbar, beta * np.eye(k + 2, 1)[:, 0], rcond=None)[0]
            return (y @ Vk) / d, hbar
        w /= H[k + 1, k]
    raise SolverError(
        f"GMRES did not reach relative residual {_GMRES_RTOL:.0e} in {m} iterations "
        f"(reached {residual / beta:.3e}); the matrix is too ill-conditioned, "
        "change the refinement level"
    )


def solve_equilibrium(mesh: TriMesh, quad_order: int = 6,
                      cond_limit: float = 1e12) -> EquilibriumSolution:
    """Solve S sigma = 1 by diagonally preconditioned GMRES (`_gmres`).

    `cond_estimate` is sigma_max / sigma_min of GMRES's Hessenberg matrix,
    a lower bound on the 2-norm condition number of the Jacobi-scaled
    matrix M diag(M)^-1 that comes with the solve (first-kind
    conditioning grows like 1/h).  Refuses to return results when it
    exceeds cond_limit, or when GMRES does not converge; refine or coarsen
    instead of trusting noise.  The collocation residual is checked on
    every row by one matrix-vector product before the matrix is freed.
    """
    M = assemble_single_layer(mesh, quad_order)
    sigma, hbar = _gmres(M, np.ones(mesh.num_panels))
    residual = float(np.max(np.abs(M @ sigma - 1.0)))
    del M
    s = np.linalg.svd(hbar, compute_uv=False)
    cond = float(s[0] / s[-1])
    if cond > cond_limit:
        raise SolverError(
            f"estimated condition number {cond:.3e} exceeds {cond_limit:.1e}; "
            "change the refinement level"
        )
    capacity = float(sigma @ mesh.areas)
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


def _within_bounding_sphere(mesh: TriMesh, X) -> np.ndarray:
    """Mask of the points X (P, 3) that lie within the mesh's bounding
    sphere, the only ones that can be inside the surface."""
    return np.linalg.norm(X - mesh.center, axis=1) <= mesh.bounding_radius


def eval_fields(sol: EquilibriumSolution, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u (P,), Du (P, 3) and D2u (P, 3, 3) at the exterior points X (P, 3).

    u(x) = int sigma(y) / (4 pi |x - y|) dA(y); Du and D2u by the kernel
    gradient -r/(4 pi |r|^3) and Hessian (3 rr^T - |r|^2 I)/(4 pi |r|^5),
    r = x - y.  The quadrature is formed once.  The points of each chunk
    that lie within the mesh's bounding sphere get one batched
    winding-number test, and a point inside raises ValueError; a point
    beyond that sphere cannot be inside and is not tested.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != 3:
        raise ValueError(f"evaluation points must have shape (P, 3), got {X.shape}")
    pts, wts = panel_quadrature(sol.mesh, sol.quad_order)
    Y = np.ascontiguousarray(pts.reshape(-1, 3).T)
    sw = (wts * sol.sigma[:, None]).reshape(-1)
    P, n = len(X), len(sw)
    u, Du, D2u = np.empty(P), np.empty((P, 3)), np.empty((P, 3, 3))
    chunk = _chunk_len(n)
    # per chunk: the three planes of r = x - y, then 1/|r|, sigma w/|r|^3,
    # sigma w/|r|^5 and one scratch plane, each (points, F*Q)
    planes = np.empty((7, min(chunk, P), n))
    may_be_inside = _within_bounding_sphere(sol.mesh, X)
    for start in range(0, P, chunk):
        x = X[start:start + chunk]
        tested = x[may_be_inside[start:start + chunk]]
        if len(tested):
            inside = winding_number(sol.mesh, tested) > 0.5
            if inside.any():
                raise ValueError(f"evaluation point {tested[np.argmax(inside)].tolist()} "
                                 "lies inside the surface")
        m = len(x)
        diff, (inv_r, w3, w5, t) = planes[:3, :m], planes[3:, :m]
        for k in range(3):
            np.subtract(x[:, k:k + 1], Y[k], out=diff[k])
        np.multiply(diff[0], diff[0], out=inv_r)
        for k in (1, 2):
            np.multiply(diff[k], diff[k], out=t)
            np.add(inv_r, t, out=inv_r)
        np.sqrt(inv_r, out=inv_r)
        np.divide(1.0, inv_r, out=inv_r)
        np.multiply(inv_r, inv_r, out=t)
        np.multiply(sw, inv_r, out=w3)
        np.multiply(w3, t, out=w3)
        np.multiply(w3, t, out=w5)
        at = slice(start, start + m)
        u[at] = inv_r @ sw
        for a in range(3):
            Du[at, a] = -np.einsum("pn,pn->p", w3, diff[a])
            np.multiply(w5, diff[a], out=t)
            for b in range(a, 3):
                D2u[at, a, b] = D2u[at, b, a] = 3.0 * np.einsum("pn,pn->p", t, diff[b])
        D2u[at] -= w3.sum(axis=1)[:, None, None] * np.eye(3)
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
    """Capacity by total charge, far-field asymptotics, and Gauss's law.

    cap_charge  = sum sigma * area (total equilibrium charge, `sol.capacity`)
    cap_asympt  = (n-2) omega_n * mean over a far sample sphere of u |x|^{n-2}
    cap_flux    = -int du/dnu dA over the same sphere, the mean of Du.nu times
                  its area, from the Du of the same evaluation
    """
    if far_radius < 10.0 * sol.mesh.diameter:
        raise ValueError(
            f"far_radius {far_radius} below 10x mesh diameter {sol.mesh.diameter}"
        )
    center = sol.mesh.center
    dirs, _ = _unit_icosphere(2)
    X = center + far_radius * dirs
    u, Du, _ = eval_fields(sol, X)
    cap_asympt = FOUR_PI * float(np.mean(u * np.linalg.norm(X - center, axis=1)))
    cap_flux = -FOUR_PI * far_radius**2 * float(np.mean(np.einsum("pi,pi->p", Du, dirs)))
    return sol.capacity, cap_asympt, cap_flux
