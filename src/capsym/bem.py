"""Single-layer boundary element solver for the exterior Dirichlet problem in R^3.

Piecewise-constant collocation at panel centroids for the first-kind
equation S sigma = 1, where S is the single-layer operator with kernel
1/(4 pi |x - y|).  The dense collocation system is solved by full GMRES,
right-preconditioned by a near-field approximate inverse P: row i of P
inverts M on panel i and every T_j whose centroid lies within 1.1 h_j,
h_j T_j's longest edge, of c_i (`_near_preconditioner`), the smallest
measured radius that holds the level-5 spheroid within 25 iterations;
wider ones cost more setup than they save.  The resulting
density sigma is the equilibrium charge density: its integral is the
capacity, and since the interior potential is constant, the layer jump
makes sigma = |Du| on the boundary.  Off-surface potentials, gradients
and Hessians come from differentiating the kernel under the integral.

Every number is formed on one unit-scale discretisation per mesh
(`_unit_discretisation`): the mesh times 2^-e, e = `TriMesh._exponent`,
with the plain panel rule of each quadrature order on that copy and its
near pairs, each built once, kept while the mesh lives, and read by the
assembly, the preconditioner and every evaluation on the solution.  Each
matrix entry and field is scaled back to the mesh's own scale by
`np.ldexp`, all exact, so it is bitwise the one formed at that scale
wherever that neither overflows nor underflows, and finite at any radius
where the result is representable.

`assemble_single_layer` builds the whole square matrix: diagonal
entries by the exact integral of 1/r over a planar triangle from its
centroid, near-diagonal entries by the panel rule on the four
sub-triangles of each panel's edge-midpoint split (`geometry._split4`,
which also builds the icosphere), every other entry by the plain panel
rule, whose squared distances come
from one k = 5 matrix product per block, |c|^2 + |y|^2 - 2 c.y about
the unit copy's centre (`_far_entries`).  The near pairs are found on
a uniform grid of cubes whose side is twice the longest edge
(`_near_pairs`): a pair can only join centroids in neighbouring cubes,
and sorting the centroids by cube makes each column of three cubes one
contiguous run.  Only numpy is imported; scipy is not needed to solve or
evaluate.  One batched `eval_fields_at_unit_scale` gives u, Du and D2u
off the surface at the unit scale; `eval_fields` is the same fields
scaled back, and every other evaluation goes through it.
The far field's column chunks, the field evaluator's point chunks and, on
matrices large enough to pay for it, the row blocks of GMRES's
matrix-vector products run on one lane per usable core (`_each_chunk`);
no matrix entry and no product depends on the number of lanes, and no
point's fields on it or on the batch the point came in.  Lanes nest with
threaded BLAS, so callers should run OpenBLAS on one thread, as the
`capsym` command does.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import MeshError, TriMesh, _split4, _unit_icosphere, require_valid

FOUR_PI = 4.0 * math.pi


def __getattr__(name):
    # scipy's LU, which the solver does not use, resolved on first access
    # only for perfbench/tracer.py, which traces these two names here
    if name in ("lu_factor", "lu_solve"):
        import scipy.linalg
        return getattr(scipy.linalg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# element budget of one kernel temporary.  The kernel loops cut their work
# into chunks whose planes hold at most _CHUNK doubles (1 MB): one
# (panels*Q, F) plane of squared distances per lane in the far field and
# six (points, F*Q) planes per lane in the field evaluator, in both
# cases shared among the lanes, so that all lanes' planes together stay
# within the budget of one unless one item a lane exceeds it (`_lane_grid`).
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
    thread, the others on a pool made for this call, each in a copy of the
    caller's `contextvars` context, so the caller's `np.errstate` holds on
    every lane; the numpy passes inside body release the GIL, so the lanes
    overlap.  Returns, or raises a lane's exception, only once every lane
    has finished, so no lane still writes into the caller's buffers; with
    no chunk at all it returns at once, whatever `lanes` is.
    """
    starts = list(starts)
    if not starts:
        return
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
        others = [pool.submit(contextvars.copy_context().run, run, lane)
                  for lane in range(1, lanes)]
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

    With subdivide=True the rule is applied on each of the four sub-triangles
    of `_split4`, in its order, each weighted by a quarter of its parent's
    area (Q becomes 4x larger).
    """
    bary, w = triangle_rule(order)
    corners, areas = mesh.vertices[mesh.triangles], mesh.areas
    if subdivide:
        mid, sub = _split4(mesh.vertices, mesh.triangles)
        corners, areas = np.concatenate([mesh.vertices, mid])[sub], np.repeat(areas / 4.0, 4)
    F = mesh.num_panels
    pts = np.einsum("qk,fkd->fqd", bary, corners).reshape(F, -1, 3)
    return pts, np.outer(areas, w).reshape(F, -1)


@dataclass(eq=False)
class _UnitCopy:
    """A mesh times 2^-e, with what is formed on it once: the plain panel
    rule per quadrature order, {order: (points, weights)}, and the near
    pairs of `_near_field` once the assembly has found them."""

    unit: TriMesh
    rules: dict
    near: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


# one _UnitCopy per mesh object (TriMesh hashes by identity), so a solve
# and every evaluation on its solution share one discretisation, which
# dies with its mesh
_UNIT_DISCRETISATIONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _unit_copy(mesh: TriMesh) -> _UnitCopy:
    copy = _UNIT_DISCRETISATIONS.get(mesh)
    if copy is None:
        unit = TriMesh(np.ldexp(mesh.vertices, -mesh._exponent), mesh.triangles)
        copy = _UNIT_DISCRETISATIONS[mesh] = _UnitCopy(unit, {})
    return copy


def _unit_discretisation(mesh: TriMesh, order: int) -> tuple[TriMesh, np.ndarray, np.ndarray]:
    """The mesh times 2^-e, e = `TriMesh._exponent`: an exact copy whose
    every coordinate lies below 1 in magnitude, with the plain panel rule on
    it, points (F, Q, 3) and weights (F, Q)."""
    copy = _unit_copy(mesh)
    if order not in copy.rules:
        copy.rules[order] = panel_quadrature(copy.unit, order)
    return (copy.unit, *copy.rules[order])


def _lane_grid(width: int, count: int) -> tuple[int, int]:
    """Lanes and items per chunk of `count` items that each take `width`
    elements of a plane: a far-field panel (every row times its quadrature
    points) or an evaluation point (F*Q).

    One lane per usable core, but no more lanes than chunks.  The chunks
    narrow so that all lanes' planes together hold at most _CHUNK
    elements, but never below one item a lane.
    """
    lanes = max(1, min(_usable_cores(), count))
    per = _chunk_len(width * lanes)
    return min(lanes, -(-count // per)), per


# entries whose pair is closer than the near radius are overwritten, so a
# collocation point on its own panel's quadrature point (order 1) or the
# rounding of a squared distance next to zero is no error here
@np.errstate(divide="ignore", invalid="ignore")
def _far_entries(out, mesh: TriMesh, order: int) -> None:
    """Every entry of `out` by the plain panel rule.

    Chunk by chunk, each chunk every row of a run of panels, a contiguous
    run of columns of the Fortran-ordered `out`.  The squared distances
    from the chunk's quadrature points y to every collocation point c come
    from one k = 5 matrix product into the lane's one (points, F) plane,
    |c - y|^2 = [-2y, 1, |y|^2] . [c, |c|^2, 1], which is then turned into
    w/|c - y| in place and summed over each panel's points.  c and y are
    the centroids and rule points of `_unit_discretisation`, taken relative
    to the unit copy's centre, so every term is O(1) at any radius, and the
    weights times 2^e, so the entries come out at the mesh's own scale.

    The product's rounding is about eps (r0/|c - y|)^2 relative, r0 the
    mesh's radius about its centre: the cancellation that the difference
    form avoids.  It never reaches a pair next to a panel: a pair (i, j)
    closer than twice T_j's longest edge h_j is overwritten by
    `_near_entries`, so every entry kept here has |c - y| above about
    1.3 h_j, and its relative change from the difference form stays near
    1e-14 from level 2 to 4.

    The chunks are spread over the lanes of `_lane_grid`, which narrows
    them as lanes are added.  Each entry is one panel's sum over its own
    quadrature points for one row, and every product holds every
    collocation point in the same column, so each squared distance is the
    same five-term BLAS sum whatever the chunk or the lane that computes
    it, and no entry depends on the number of cores or of BLAS threads.
    No product has a single quadrature point, which numpy would hand to
    gemv, whose sums round differently: with one quadrature point a panel
    the chunks hold an even number of panels, so every chunk does, as a
    closed triangle mesh has an even number of panels (3F = 2E).  Each
    lane gets its own scratch plane, allocated here: planes that worker
    threads allocate and free stay in glibc's per-thread arenas and raise
    the peak RSS.
    """
    unit, pts, wts = _unit_discretisation(mesh, order)
    F, Q = wts.shape
    c = unit.centroids - unit.center
    y = pts.reshape(-1, 3) - unit.center
    # columns (c, |c|^2, 1) of the centroids and rows (-2y, 1, |y|^2) of
    # the points
    C = np.empty((5, F))
    C[:3], C[3], C[4] = c.T, _dot(c, c), 1.0
    Y = np.column_stack([-2.0 * y, np.ones(F * Q), _dot(y, y)])
    W = np.ldexp(wts, mesh._exponent).reshape(-1, 1)
    lanes, cols = _lane_grid(F * Q, F)
    if Q == 1:
        cols = max(2, cols - cols % 2)
    planes = np.empty((lanes, min(cols, F) * Q * F))

    def chunk(lane, start):
        at = slice(start * Q, (start + cols) * Q)
        ys = Y[at]
        m = len(ys) // Q
        d = planes[lane, :len(ys) * F].reshape(len(ys), F)
        np.matmul(ys, C, out=d)
        np.sqrt(d, out=d)
        np.divide(W[at], d, out=d)
        # the chunk's columns of `out`, transposed: a contiguous (m, F) run
        s = d.reshape(m, Q, F).sum(axis=1, out=out[:, start:start + m].T)
        np.divide(s, FOUR_PI, out=s)

    _each_chunk(chunk, range(0, F, cols), lanes)


def _near_pairs(points, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (p, q) with |points[p] - points[q]| <= radius, in no
    particular order: the pair set of scipy's `cKDTree.sparse_distance_matrix`
    of the points with themselves, from a uniform grid of cubes.

    The points fall into cubes of side radius, enlarged by 2^-20 so that
    rounding in the cube coordinates (below 2^-21 of a cube while the
    points span fewer than 2^30 cubes) cannot part a pair at distance
    radius by two cubes.  On each axis the occupied cube coordinates are
    renumbered in order, a step of one cube kept and every wider gap
    shrunk to two: neighbouring cubes stay neighbours, others stay apart,
    and however far apart the points lie, each axis spans fewer than
    2N + 2 cubes (N = len(points)), so the key (x, y, z) of a cube fits in
    int64 for N below a million.  The points are sorted once by that key,
    so a column of three cubes along z is one contiguous run: each point
    finds its 27 neighbouring cubes as 9 `searchsorted` ranges, and the
    candidates of each of the 9 column offsets are filtered by distance
    before the next offset is searched.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    side = radius * (1.0 + 2.0**-20)
    cube = np.empty(pts.shape, dtype=np.int64)
    for k in range(3):
        c, at = np.unique(np.floor((pts[:, k] - pts[:, k].min()) / side), return_inverse=True)
        steps = np.minimum(np.diff(c), 2.0).astype(np.int64)
        # from 1, so that the cubes just below and above every column exist
        cube[:, k] = np.concatenate(([1], 1 + np.cumsum(steps)))[at]
    _, ny, nz = cube.max(axis=0) + 2
    key = (cube[:, 0] * ny + cube[:, 1]) * nz + cube[:, 2]
    order = np.argsort(key, kind="stable")
    key = key[order]
    # coordinate planes in key order
    x, y, z = pts[order].T.copy()
    r2 = radius * radius
    found_p, found_q = [], []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            mid = key + (dx * ny + dy) * nz
            start = np.searchsorted(key, mid - 1, side="left")
            count = np.searchsorted(key, mid + 1, side="right") - start
            p = np.repeat(np.arange(n), count)
            at = np.arange(len(p)) + np.repeat(start - np.cumsum(count) + count, count)
            # summed x, y, z in that order, as cKDTree does
            d = np.square(x[p] - x[at])
            d += np.square(y[p] - y[at])
            d += np.square(z[p] - z[at])
            near = d <= r2
            found_p.append(order[p[near]])
            found_q.append(order[at[near]])
    return np.concatenate(found_p), np.concatenate(found_q)


def _near_field(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The near pairs (i, j), i != j, and their centroid separations d on
    the unit copy, searched once per mesh and kept in its `_UnitCopy`.

    The candidates are the pairs of centroids within twice the mesh's
    longest edge, found by `_near_pairs` on a grid of cubes of that side;
    of these, a pair (i, j) is near when its separation is below twice the
    longest edge of its own panel T_j.  Read by the assembly's near field
    and by the preconditioner.
    """
    copy = _unit_copy(mesh)
    if copy.near is None:
        cen = copy.unit.centroids
        max_edge = copy.unit.edge_lengths.max(axis=1)
        i, j = _near_pairs(cen, 2.0 * float(max_edge.max()))
        d = np.linalg.norm(cen[i] - cen[j], axis=1)
        keep = (i != j) & (d < 2.0 * max_edge[j])
        copy.near = (i[keep], j[keep], d[keep])
    return copy.near


def _near_entries(out, mesh: TriMesh, order: int) -> None:
    """Overwrite the near-diagonal entries of `out` by one level of 4:1
    subdivision, in chunks of the pairs of `_near_field`.

    The subdivided rule runs on the unit copy of `_unit_discretisation`,
    and each entry is scaled back by 2^e.
    """
    unit = _unit_discretisation(mesh, order)[0]
    cen = unit.centroids
    i, j, _ = _near_field(mesh)
    spts, swts = panel_quadrature(unit, order, subdivide=True)
    # coordinate planes (F, 4Q) of the subdivided rule's points
    planes = np.moveaxis(spts, -1, 0).copy()
    chunk = _chunk_len(spts[0].size)
    for start in range(0, len(i), chunk):
        ic, jc = i[start:start + chunk], j[start:start + chunk]
        c = cen[ic]
        # |c - y|^2 summed as (x^2 + z^2) + y^2, the order of _norm's
        # einsum for a 3-vector, so the entries keep its bits
        d = np.square(c[:, 0:1] - planes[0][jc])
        d += np.square(c[:, 2:3] - planes[2][jc])
        d += np.square(c[:, 1:2] - planes[1][jc])
        np.sqrt(d, out=d)
        out[ic, jc] = np.ldexp((swts[jc] / d).sum(axis=1) / FOUR_PI, mesh._exponent)


def _self_entries(out, mesh: TriMesh, order: int) -> None:
    """Overwrite the diagonal of `out` by the exact self-integral, formed on
    the unit copy of `_unit_discretisation` and scaled back by 2^e."""
    # the first, second and third corners (3, F, 3) of the unit copy's panels
    p = _unit_discretisation(mesh, order)[0].vertices[mesh.triangles.T]
    np.fill_diagonal(out, np.ldexp(self_integral_inv_r(*p), mesh._exponent) / FOUR_PI)


def assemble_single_layer(mesh: TriMesh, quad_order: int = 6) -> np.ndarray:
    """Dense (F, F) collocation matrix in Fortran order, after validating
    the mesh: entry (i, j) = int_{T_j} dA(y) / (4 pi |c_i - y|).

    The diagonal by the exact planar self-integral; entries whose centroid
    separation is below twice T_j's longest edge by subdivided quadrature;
    everything else by the plain panel rule.
    """
    require_valid(mesh)
    F = mesh.num_panels
    # Fortran order makes each far-field column chunk one contiguous block;
    # the solver's matrix-vector products read it in either order
    out = np.empty((F, F), order="F")
    _far_entries(out, mesh, quad_order)
    _near_entries(out, mesh, quad_order)
    _self_entries(out, mesh, quad_order)
    return out


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


# matrices of at least this many entries (F >= 2048) get their
# matrix-vector products on lanes.  One `M @ x` against two lanes, as the
# range of five runs' medians on a 2-core Xeon at one BLAS thread: 0.41-0.56
# against 0.50-0.84 ms at F = 1280 (level 3), 0.93-1.09 against 0.92-1.16
# ms at F = 1792, 1.23-1.36 against 1.13-1.31 ms at F = 2048, and 16-18
# against 9.4-11 ms at F = 5120 (level 4)
_MATVEC_LANE_ENTRIES = 2**22
# rows of a matvec block: a multiple of 64, so that every block starts on
# the row alignment of the whole matrix; 320-row blocks ran no faster than
# one `M @ x` at level 4
_MATVEC_ROWS = 640


def _row_block_matvec(M: np.ndarray):
    """x -> M x for the Fortran-ordered square matrix M, one `M[rows] @ x`
    per block of _MATVEC_ROWS rows on the lanes of `_each_chunk`.

    A matrix of fewer than _MATVEC_LANE_ENTRIES entries is one block on one
    lane, as threads cost more than they save on a product that small; a
    larger one gets one lane per usable core, but no more lanes than
    blocks.  Each row's product is the same BLAS arithmetic as in `M @ x`,
    whatever the block or the number of lanes: blocks that start off a
    multiple of 64 rows change the last bits.
    """
    F = len(M)
    rows = F if M.size < _MATVEC_LANE_ENTRIES else _MATVEC_ROWS
    lanes = min(_usable_cores(), -(-F // rows))
    starts = range(0, F, rows)

    def matvec(x):
        y = np.empty(F)

        def block(lane, start):
            np.matmul(M[start:start + rows], x, out=y[start:start + rows])

        _each_chunk(block, starts, lanes)
        return y

    return matvec


# the near-field preconditioner's neighbours of panel i are the T_j whose
# centroid lies within _NEAR_RADIUS h_j of c_i, h_j T_j's longest edge.
# GMRES iterations (setup s) at radius h_j, 1.1 h_j and 1.25 h_j, single
# runs on a 2-core Xeon at one BLAS thread: L4 sphere 13, 11 (0.030), 11;
# L5 sphere 16, 14 (0.11); L4 2:1:1 spheroid 17, 16 (0.047), 15 (0.097);
# L5 spheroid 26 (0.19), 24 (0.27), 23 (0.50).  1.1 h_j is the smallest
# of these that keeps the L5 spheroid within 25 iterations; 1.5 h_j and
# 2 h_j cost more setup than they save
_NEAR_RADIUS = 1.1


def _near_preconditioner(M: np.ndarray, mesh: TriMesh):
    """x -> P x, the overlapped near-field approximate inverse of M
    (Nabors, Korsmeyer, Leighton & White, SIAM J. Sci. Comput. 15, 1994).

    Panel i's neighbours are N_i = {i} and the j of its near pairs
    (`_near_field`) whose centroid lies within _NEAR_RADIUS h_j of c_i,
    h_j T_j's longest edge: at most 13 panels on the icospheres and 21 on
    the 2:1:1 spheroids up to level 5, which takes the level-4 sphere's
    GMRES from 36 iterations to 11.  Row i of P is the row of
    M[N_i, N_i]^-1 that belongs to i, zero off N_i.  The blocks are
    gathered from M with i first and padded with the identity to the
    largest |N_i| = k, and one batched `np.linalg.solve` of their
    transposes against e_1 gives every row at once; the padding's entries
    of a row come out 0.  P x is then one gather and one row sum,
    (P x)_i = sum_k z_ik x[nb_ik].  Raises SolverError on a singular
    block.
    """
    i, j, d = _near_field(mesh)
    close = d < _NEAR_RADIUS * _unit_copy(mesh).unit.edge_lengths.max(axis=1)[j]
    i, j = i[close], j[close]
    at = np.argsort(i, kind="stable")
    i, j = i[at], j[at]
    F = len(M)
    count = np.bincount(i, minlength=F) + 1
    k = int(count.max())
    # the padding points at i itself, where its zero weight meets a finite x
    nb = np.repeat(np.arange(F)[:, None], k, axis=1)
    # each panel's pairs are one run of the sorted ones; slot 0 is i itself
    first = np.cumsum(count) - count - np.arange(F)
    nb[i, 1 + np.arange(len(i)) - first[i]] = j
    real = np.arange(k) < count[:, None]
    blocks = M[nb[:, :, None], nb[:, None, :]]
    blocks[~(real[:, :, None] & real[:, None, :])] = 0.0
    blocks.reshape(F, k * k)[:, ::k + 1][~real] = 1.0
    try:
        z = np.linalg.solve(blocks.transpose(0, 2, 1), np.eye(k, 1)[None])[:, :, 0]
    except np.linalg.LinAlgError:
        raise SolverError("singular near-field block in the preconditioner") from None

    def precondition(x):
        return (z * x[nb]).sum(axis=1)

    return precondition


# GMRES stops at ||1 - M sigma||_2 <= _GMRES_RTOL ||1||_2, and gives up
# after _GMRES_MAXITER iterations.  Right-preconditioned by the near-field P
# (neighbours within 1.1 h_j, see _NEAR_RADIUS), the L3, L4 and L5 sphere
# take 10, 11 and 14, the 2:1:1 spheroid 12, 16 and 24; by the diagonal
# alone they took 20, 36, 52 and 40, 54, 72
_GMRES_RTOL = 1e-14
_GMRES_MAXITER = 200


def _gmres(matvec, precondition, b) -> tuple[np.ndarray, np.ndarray]:
    """x with ||b - M x||_2 <= _GMRES_RTOL ||b||_2, and the Arnoldi matrix.

    Full (unrestarted) GMRES from x = 0 on M P y = b, x = P y (Saad &
    Schultz 1986), reaching M only through `matvec(x)` = M x and the
    right preconditioner only through `precondition(x)` = P x.  Right
    preconditioning leaves the residual that GMRES minimises equal to
    b - M x.  Arnoldi applies classical Gram-Schmidt twice and builds the
    (k+1, k) Hessenberg matrix Hbar = V_{k+1}^T M P V_k.  The Givens
    rotations that would reduce it to triangular form give the
    least-squares residual, beta times the product of their sines; once
    that meets the tolerance, y minimises ||beta e_1 - Hbar y||.  Returns
    x and Hbar; raises SolverError on a non-finite Krylov vector or when
    the tolerance is not met within _GMRES_MAXITER iterations.
    """
    m = _GMRES_MAXITER
    beta = float(np.linalg.norm(b))
    # rows of V are written only as the iteration reaches them
    V = np.empty((m + 1, len(b)))
    H = np.zeros((m + 1, m))
    rotations, residual = [], beta
    np.divide(b, beta, out=V[0])
    for k in range(m):
        V[k + 1] = matvec(precondition(V[k]))
        w, Vk = V[k + 1], V[:k + 1]
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
            return precondition(y @ Vk), hbar
        w /= H[k + 1, k]
    raise SolverError(
        f"GMRES did not reach relative residual {_GMRES_RTOL:.0e} in {m} iterations "
        f"(reached {residual / beta:.3e}); the matrix is too ill-conditioned, "
        "change the refinement level"
    )


def solve_equilibrium(mesh: TriMesh, quad_order: int = 6,
                      cond_limit: float = 1e12) -> EquilibriumSolution:
    """Solve S sigma = 1 by GMRES (`_gmres`), right-preconditioned by the
    near-field approximate inverse P of `_near_preconditioner`.

    `cond_estimate` is sigma_max / sigma_min of GMRES's Hessenberg matrix,
    a lower bound on the 2-norm condition number of the preconditioned
    matrix M P that comes with the solve.  Refuses to return results when
    it exceeds cond_limit, or when GMRES does not converge; refine or
    coarsen instead of trusting noise.  The collocation residual is
    checked on every row by one matrix-vector product before the matrix
    and P are freed.
    """
    M = assemble_single_layer(mesh, quad_order)
    matvec = _row_block_matvec(M)
    precondition = _near_preconditioner(M, mesh)
    sigma, hbar = _gmres(matvec, precondition, np.ones(mesh.num_panels))
    residual = float(np.max(np.abs(matvec(sigma) - 1.0)))
    del M, matvec, precondition
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


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value is the caller's to report
def eval_fields_at_unit_scale(sol: EquilibriumSolution, X
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u (P,), Du (P, 3) and D2u (P, 3, 3) at the exterior points X (P, 3),
    formed on the unit copy of `_unit_discretisation` at X times 2^-e with
    sigma times 2^e: u is the unscaled one, Du and D2u are 2^e and 2^2e
    times the unscaled ones, all exact, and every scale-free ratio is the
    unscaled one at any radius.  An error names a point as X gives it.

    u(x) = int sigma(y) / (4 pi |x - y|) dA(y); Du and D2u by the kernel
    gradient -r/(4 pi |r|^3) and Hessian (3 rhat rhat^T - I)/(4 pi |r|^3),
    r = x - y and rhat = r/|r|.  The smallest weight formed is
    sigma w/|r|^3, the one Du needs, so D2u stays right as far out as Du.

    First the points within the mesh's bounding sphere get the
    winding-number test, in chunks taken in X's order, and the first point
    inside raises ValueError; a point beyond that sphere cannot be inside
    and is not tested.  Then the point chunks run on the lanes of
    `_lane_grid`, which narrows them as lanes are added.  Every sum over
    the quadrature points is the row sum of a contiguous product plane,
    with no BLAS and no einsum (whose order of summation for a one-row
    operand differs from that for a row of a larger one beyond 8192
    quadrature points), so a point's u, Du and D2u keep their bits
    whatever its batch, its place in it or the number of cores.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != 3:
        raise ValueError(f"evaluation points must have shape (P, 3), got {X.shape}")
    unit, pts, wts = _unit_discretisation(sol.mesh, sol.quad_order)
    Xu = np.ldexp(X, -sol.mesh._exponent)
    within = np.flatnonzero(_within_bounding_sphere(unit, Xu))
    # chunks whose (points, F, 3, 3) corner differences hold _CHUNK doubles
    step = _chunk_len(9 * unit.num_panels)
    for start in range(0, len(within), step):
        at = within[start:start + step]
        inside = winding_number(unit, Xu[at]) > 0.5
        if inside.any():
            raise ValueError(f"evaluation point {X[at[np.argmax(inside)]].tolist()} "
                             "lies inside the surface")
    Y = np.ascontiguousarray(pts.reshape(-1, 3).T)
    sw = (wts * np.ldexp(sol.sigma, sol.mesh._exponent)[:, None]).reshape(-1)
    P, n = len(X), len(sw)
    u, Du, D2u = np.empty(P), np.empty((P, 3)), np.empty((P, 3, 3))
    lanes, chunk = _lane_grid(n, P)
    # per lane: the three planes of r = x - y (later of r/|r|), then 1/|r|
    # (later sigma w r_a/|r|^4), sigma w/|r|^3 and one scratch plane that
    # holds each product to sum, each (points, F*Q)
    planes = np.empty((lanes, 6, min(chunk, P), n))

    def fields(lane, start):
        at = slice(start, start + chunk)
        x = Xu[at]
        diff, (inv_r, w3, t) = planes[lane, :3, :len(x)], planes[lane, 3:, :len(x)]
        np.subtract(x.T[:, :, None], Y[:, None], out=diff)
        np.multiply(diff[0], diff[0], out=inv_r)
        for k in (1, 2):
            np.multiply(diff[k], diff[k], out=t)
            np.add(inv_r, t, out=inv_r)
        np.sqrt(inv_r, out=inv_r)
        np.divide(1.0, inv_r, out=inv_r)
        np.multiply(inv_r, inv_r, out=t)
        np.multiply(sw, inv_r, out=w3)
        u[at] = w3.sum(axis=1)
        np.multiply(w3, t, out=w3)
        for a in range(3):
            np.multiply(w3, diff[a], out=t)
            Du[at, a] = -t.sum(axis=1)
        # r becomes rhat = r/|r|; the 1/|r| plane is then free
        np.multiply(diff, inv_r, out=diff)
        for a in range(3):
            np.multiply(w3, diff[a], out=inv_r)
            for b in range(a, 3):
                np.multiply(inv_r, diff[b], out=t)
                D2u[at, a, b] = D2u[at, b, a] = 3.0 * t.sum(axis=1)
        D2u[at] -= w3.sum(axis=1)[:, None, None] * np.eye(3)

    _each_chunk(fields, range(0, P, chunk), lanes)
    for field in (u, Du, D2u):
        np.divide(field, FOUR_PI, out=field)
    return u, Du, D2u


@np.errstate(over="ignore")  # a non-finite value is the caller's to report
def eval_fields(sol: EquilibriumSolution, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u (P,), Du (P, 3) and D2u (P, 3, 3) at the exterior points X (P, 3):
    `eval_fields_at_unit_scale` with Du and D2u scaled back by 2^-e and
    2^-2e, bitwise the fields at the mesh's own scale wherever those are
    representable."""
    u, Du, D2u = eval_fields_at_unit_scale(sol, X)
    e = sol.mesh._exponent
    return u, np.ldexp(Du, -e, out=Du), np.ldexp(D2u, -2 * e, out=D2u)


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

    Both far-sphere values are formed at the mesh's unit scale
    (`eval_fields_at_unit_scale`) and scaled back by 2^e, all exact, so the
    squared radius and Du stay in range wherever the far points do.  Raises
    ArithmeticError when far_radius times 2^-e exceeds 2^300: up to there
    the kernel weights sigma w/|r|^3 stay normal for sigma w at unit scale
    down to 2^-40, while further out they can leave the normal range and
    the flux lose digits without a warning (on the L1-L4 sphere and the L3
    spheroid it first moves between 2^339 and 2^341).
    """
    if far_radius < 10.0 * sol.mesh.diameter:
        raise ValueError(
            f"far_radius {far_radius} below 10x mesh diameter {sol.mesh.diameter}"
        )
    e = sol.mesh._exponent
    if not math.ldexp(far_radius, -e) <= 2.0**300:
        raise ArithmeticError(f"far_radius {far_radius} exceeds 2^300 times the mesh's "
                              f"scale 2^{e}: the far-field kernel could underflow")
    center = sol.mesh.center
    dirs, _ = _unit_icosphere(2)
    X = center + far_radius * dirs
    u, Du, _ = eval_fields_at_unit_scale(sol, X)
    r = np.linalg.norm(np.ldexp(X - center, -e), axis=1)
    cap_asympt = math.ldexp(FOUR_PI * float(np.mean(u * r)), e)
    cap_flux = math.ldexp(-FOUR_PI * math.ldexp(far_radius, -e) ** 2
                          * float(np.mean(np.einsum("pi,pi->p", Du, dirs))), e)
    return sol.capacity, cap_asympt, cap_flux
