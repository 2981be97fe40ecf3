"""Closed triangulated surfaces in R^3.

Icosphere-based generators for spheres, ellipsoids and perturbed spheres,
validation of closedness/orientation, discrete mean curvature by the
cotangent formula with mixed Voronoi areas, and ASCII OFF file I/O.

Curvature sign convention: outward normals, H > 0 on convex surfaces, so
the unit sphere has H = +1.

Every product of coordinates (edge cross products, areas, normals, edge
lengths, the centre, validation and the curvature) is formed at one exact
scale: each mesh keeps the binary exponent e of its largest |coordinate|
(`TriMesh._exponent`), works on its vertices times 2^-e and scales each
result back by `np.ldexp`.  So every value is bitwise the unscaled one at
ordinary scales, and none overflows or underflows while the result itself
is representable.  One edge-midpoint 4:1 split (`_split4`) builds the
icosphere and the BEM near field's subdivided panel rule.  `validate`
reports; `require_valid` raises `MeshError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class MeshError(ValueError):
    """Invalid or degenerate mesh data."""


class OffParseError(ValueError):
    """Malformed OFF file; message carries the offending line number."""


@dataclass(eq=False)
class TriMesh:
    """Triangulated surface: vertex coordinates and oriented triangles.

    Derived quantities (areas, normals, centroids, curvature) are cached
    lazily; the mesh is treated as immutable after construction.
    Generators for analytic shapes attach exact per-vertex mean curvature
    in ``exact_vertex_H``; consumers may prefer it over the discrete
    estimate to separate curvature error from solver error.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    exact_vertex_H: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError(f"vertices must be (V, 3), got {self.vertices.shape}")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError(f"triangles must be (F, 3), got {self.triangles.shape}")
        if self.triangles.size and (
            self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices)
        ):
            raise MeshError("triangle indices out of range")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_panels(self) -> int:
        return len(self.triangles)

    @cached_property
    def _exponent(self) -> int:
        """Binary exponent e of the largest |coordinate|.  Every product of
        coordinates is formed on the exact copy vertices * 2^-e and scaled
        back by `np.ldexp`: bitwise the unscaled result where that neither
        overflows nor underflows, and finite wherever the result is."""
        return int(np.frexp(np.max(np.abs(self.vertices), initial=0.0))[1])

    @cached_property
    def _unit_edges(self) -> np.ndarray:
        """(F, 3, 3) edge vectors at unit scale, edge k opposite vertex k:
        p_{k+2} - p_{k+1}."""
        p = np.ldexp(self.vertices, -self._exponent)[self.triangles]
        return np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1)

    @cached_property
    def _unit_cross(self) -> np.ndarray:
        """(p1 - p0) x (p2 - p0) at unit scale; p2 - p0 = -(p0 - p2) exactly."""
        return np.cross(self._unit_edges[:, 2], -self._unit_edges[:, 1])

    @cached_property
    def _unit_areas(self) -> np.ndarray:
        return 0.5 * np.linalg.norm(self._unit_cross, axis=1)

    @cached_property
    def areas(self) -> np.ndarray:
        """Per-triangle areas."""
        return np.ldexp(self._unit_areas, 2 * self._exponent)

    @cached_property
    def normals(self) -> np.ndarray:
        """Per-triangle unit normals (orientation as given by the winding)."""
        a = 2.0 * self._unit_areas
        if np.any(a <= 0):
            raise MeshError("mesh contains a degenerate (zero-area) triangle")
        return self._unit_cross / a[:, None]

    @cached_property
    def centroids(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)

    @cached_property
    def total_area(self) -> float:
        return float(self.areas.sum())

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        """Per-triangle (3,) edge lengths, edge k opposite vertex k."""
        return np.ldexp(np.linalg.norm(self._unit_edges, axis=2), self._exponent)

    @cached_property
    def center(self) -> np.ndarray:
        """Centroid of the panels, weighted by their areas at unit scale."""
        w = self._unit_areas
        return np.einsum("f,fd->d", w, self.centroids) / w.sum()

    @cached_property
    def bounding_radius(self) -> float:
        """Largest distance from `center` to a vertex: the whole surface,
        and every point it encloses, lies within this sphere.  Formed at unit
        scale, as `diameter` is, so neither overflows where it is finite."""
        d = np.linalg.norm(np.ldexp(self.vertices - self.center, -self._exponent), axis=1)
        return math.ldexp(float(d.max()), self._exponent)

    @cached_property
    def diameter(self) -> float:
        """Length of the diagonal of the vertices' bounding box."""
        span = np.ldexp(np.ptp(self.vertices, axis=0), -self._exponent)
        return math.ldexp(float(np.linalg.norm(span)), self._exponent)

    def transformed(self, rotation=None, translation=None) -> "TriMesh":
        """Rigidly moved copy; exact curvature carries over unchanged."""
        v = self.vertices
        if rotation is not None:
            v = v @ np.asarray(rotation, dtype=float).T
        if translation is not None:
            v = v + np.asarray(translation, dtype=float)
        return TriMesh(v, self.triangles.copy(), exact_vertex_H=self.exact_vertex_H)

    def scaled(self, t: float) -> "TriMesh":
        """Scaled copy: areas scale by t^2, curvatures by 1/t."""
        if t <= 0:
            raise MeshError(f"scale factor must be positive, got {t}")
        exact = None if self.exact_vertex_H is None else self.exact_vertex_H / t
        return TriMesh(t * self.vertices, self.triangles.copy(), exact_vertex_H=exact)


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    closed: bool
    oriented: bool
    euler_characteristic: int
    outward: bool
    min_area: float
    min_quality: float
    open_edges: list
    issues: list

    @property
    def ok(self) -> bool:
        return not self.issues


def validate(mesh: TriMesh) -> ValidationReport:
    """Check closedness, orientation consistency, Euler characteristic and
    triangle quality.  Report-only: never raises on a defective mesh."""
    # directed edges (i, j), (j, k), (k, i) of every triangle, keyed a*V + b
    V = mesh.num_vertices
    a = mesh.triangles.reshape(-1)
    b = mesh.triangles[:, [1, 2, 0]].reshape(-1)
    _, directed_counts = np.unique(a * V + b, return_counts=True)
    undirected, undirected_counts = np.unique(
        np.minimum(a, b) * V + np.maximum(a, b), return_counts=True)

    # ascending keys are the (low, high) pairs in sorted order
    open_edges = [(int(k // V), int(k % V)) for k in undirected[undirected_counts != 2]]
    closed = not open_edges
    # consistent orientation: every directed edge appears exactly once
    oriented = bool(np.all(directed_counts == 1)) and closed

    E = len(undirected)
    F = mesh.num_panels
    euler = V - E + F

    # coordinates near the float range overflow the areas: reported as an
    # issue below, not warned about
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        areas = mesh.areas
        # quality = 4 sqrt(3) area / sum(edge^2): 1 for equilateral, -> 0 degenerate
        qual = 4.0 * math.sqrt(3.0) * areas / (mesh.edge_lengths**2).sum(axis=1)
    min_area = float(areas.min()) if len(areas) else 0.0
    finite = bool(np.isfinite(areas).all())
    sized = finite and min_area > 0
    min_quality = float(np.min(qual)) if len(qual) else 0.0

    outward = False
    if sized:
        unit_centroids = np.ldexp(mesh.centroids, -mesh._exponent)
        flux = float(np.einsum("ij,ij->", unit_centroids, mesh._unit_cross))
        outward = flux > 0

    issues = []
    if not closed:
        issues.append(f"open edges: {open_edges[:10]}")
    if not oriented:
        issues.append("inconsistent triangle orientation")
    if euler != 2:
        issues.append(f"Euler characteristic {euler} != 2")
    if not finite:
        issues.append("non-finite triangle area (coordinates overflow)")
    elif min_area <= 0:
        issues.append("degenerate triangle with zero area")
    if closed and oriented and sized and not outward:
        issues.append("normals point inward (negative position flux)")
    return ValidationReport(
        closed=closed,
        oriented=oriented,
        euler_characteristic=euler,
        outward=outward,
        min_area=min_area,
        min_quality=min_quality,
        open_edges=open_edges,
        issues=issues,
    )


def require_valid(mesh: TriMesh) -> None:
    """Raise MeshError listing every issue `validate` finds."""
    rep = validate(mesh)
    if not rep.ok:
        raise MeshError("mesh failed validation: " + "; ".join(rep.issues))


# ---------------------------------------------------------------------------
# icosphere generators

# regular icosahedron: 12 vertices from three orthogonal golden rectangles
_PHI = (1.0 + math.sqrt(5.0)) / 2.0

_ICO_VERTS = np.array(
    [
        (-1, _PHI, 0), (1, _PHI, 0), (-1, -_PHI, 0), (1, -_PHI, 0),
        (0, -1, _PHI), (0, 1, _PHI), (0, -1, -_PHI), (0, 1, -_PHI),
        (_PHI, 0, -1), (_PHI, 0, 1), (-_PHI, 0, -1), (-_PHI, 0, 1),
    ],
    dtype=float,
)

_ICO_FACES = np.array(
    [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ],
    dtype=np.int64,
)


def _split4(vertices: np.ndarray, triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edge-midpoint 4:1 split of a triangle mesh: the midpoints
    (a + b)/2, one per edge, numbered V, V + 1, ... in the order in which
    the triangles first use their edges (ij, jk, ki of each triangle in
    turn), and the 4F sub-triangles (i, a, c), (j, b, a), (k, c, b),
    (a, b, c) of triangle (i, j, k), a, b and c the midpoints of ij, jk and
    ki, those of triangle f at rows 4f to 4f + 3.  A midpoint is the same
    from either end of its edge, as floating-point addition commutes."""
    V = len(vertices)
    a, b = triangles.reshape(-1), triangles[:, [1, 2, 0]].reshape(-1)
    _, first, edge = np.unique(np.minimum(a, b) * V + np.maximum(a, b),
                               return_index=True, return_inverse=True)
    # edge numbers each corner's edge by its key; used lists the keys in
    # order of first use, and argsort(used) renumbers the edges in that order
    used = np.argsort(first)
    mid = (vertices[a[first[used]]] + vertices[b[first[used]]]) / 2
    i, j, k = triangles.T
    ma, mb, mc = (V + np.argsort(used)[edge]).reshape(-1, 3).T
    sub = np.stack([i, ma, mc, j, mb, ma, k, mc, mb, ma, mb, mc], axis=1)
    return mid, sub.reshape(-1, 3)


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row over its norm, the square root of a BLAS dot of that one
    3-vector, so every row gets the bits of `row / np.linalg.norm(row)`."""
    return v / np.sqrt(np.matmul(v[:, None, :], v[:, :, None]))[:, 0]


def _unit_icosphere(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Split the icosahedron 4:1 `level` times, vertices on the unit sphere."""
    if level < 0:
        raise ValueError(f"subdivision level must be >= 0, got {level}")
    verts, faces = _unit_rows(_ICO_VERTS), _ICO_FACES
    for _ in range(level):
        mid, faces = _split4(verts, faces)
        # halving is exact, so (m/2)/|m/2| = m/|m| bitwise
        verts = np.concatenate([verts, _unit_rows(mid)])
    return verts, faces


def make_sphere_mesh(R: float, level: int) -> TriMesh:
    """Icosphere of radius R with 20 * 4^level triangles; exact H = 1/R attached."""
    if R <= 0:
        raise MeshError(f"radius must be positive, got {R}")
    verts, faces = _unit_icosphere(level)
    exact = np.full(len(verts), 1.0 / R)
    return TriMesh(R * verts, faces, exact_vertex_H=exact)


def ellipsoid_mean_curvature(points, a: float, b: float, c: float) -> np.ndarray:
    """Exact mean curvature of x^2/a^2 + y^2/b^2 + z^2/c^2 = 1 at surface points.

    From the level-set formula H = div(DF/|DF|) / 2 with F the implicit
    function; outward orientation, so H = 1/R on the sphere a = b = c = R.
    H is formed on the points and axes times 2^-e, e the binary exponent of
    the largest axis, and scaled back by 2^-e, all exact: bitwise H at the
    caller's scale wherever that neither overflows nor underflows, and
    H(2^k x; 2^k axes) = 2^-k H(x; axes) bitwise while both are normal.
    """
    e = math.frexp(max(a, b, c))[1]
    p = np.ldexp(np.atleast_2d(np.asarray(points, dtype=float)), -e)
    inv2 = np.array([1.0 / math.ldexp(x, -e) ** 2 for x in (a, b, c)])
    g = 2.0 * p * inv2  # DF
    gnorm = np.linalg.norm(g, axis=1)
    lap = 2.0 * inv2.sum()  # trace of D2F
    # g^T D2F g with D2F = 2 diag(inv2)
    gHg = 2.0 * (g**2 * inv2).sum(axis=1)
    H = np.ldexp((lap - gHg / gnorm**2) / (2.0 * gnorm), -e)
    return H if np.asarray(points).ndim == 2 else float(H[0])


def make_ellipsoid_mesh(a: float, b: float, c: float, level: int) -> TriMesh:
    """Icosphere mapped by (x,y,z) -> (ax, by, cz); exact curvature attached."""
    if min(a, b, c) <= 0:
        raise MeshError(f"semi-axes must be positive, got ({a}, {b}, {c})")
    verts, faces = _unit_icosphere(level)
    verts = verts * np.array([a, b, c])
    exact = ellipsoid_mean_curvature(verts, a, b, c)
    return TriMesh(verts, faces, exact_vertex_H=exact)


# relative amplitude of the radial bump of `make_bumpy_sphere_mesh`
BUMP_AMPLITUDE = 0.05


def make_bumpy_sphere_mesh(R: float, level: int) -> TriMesh:
    """Sphere with a smooth radial perturbation r = R (1 + BUMP_AMPLITUDE * g).

    g is the degree-3 harmonic x y z / |x|^3 scaled to [-1, 1], so the
    surface is smooth, genus 0 and mildly nonconvex.
    No exact curvature is attached; consumers fall back to the discrete
    estimate.
    """
    if R <= 0:
        raise MeshError(f"radius must be positive, got {R}")
    verts, faces = _unit_icosphere(level)
    g = 3.0 * math.sqrt(3.0) * verts[:, 0] * verts[:, 1] * verts[:, 2]
    r = R * (1.0 + BUMP_AMPLITUDE * g)
    return TriMesh(verts * r[:, None], faces)


# ---------------------------------------------------------------------------
# discrete mean curvature


def _curvature_sums(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """At unit scale, from one pass over the triangle corners: the cotangent
    sum K, the mixed Voronoi areas A and the area-weighted vertex normals vn
    (Meyer, Desbrun, Schroeder & Barr 2003)."""
    tri, areas = mesh.triangles, mesh._unit_areas
    e = mesh._unit_edges  # e_k = p_j - p_i for corner k, i = k + 1, j = k + 2
    l2 = (e**2).sum(axis=2)
    # (p_i - p_k).(p_j - p_k) = -e_j.e_i, bitwise: negation is exact
    dots = np.stack([-(e[:, (k + 2) % 3] * e[:, (k + 1) % 3]).sum(axis=1) for k in range(3)],
                    axis=1)
    cot = dots / (2.0 * areas[:, None])
    obtuse_corner = np.argmin(dots, axis=1)
    any_obtuse = dots.min(axis=1) < 0
    weighted_normal = mesh._unit_cross / 2.0

    K, vn = np.zeros((2, mesh.num_vertices, 3))
    A = np.zeros(mesh.num_vertices)
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        # edge (i, j) gets weight cot(angle at k)
        w = cot[:, k][:, None] * e[:, k]
        np.add.at(K, tri[:, i], -w)
        np.add.at(K, tri[:, j], w)
        # non-obtuse: Voronoi-exact (1/8)(l_j^2 cot_j + l_i^2 cot_i) at corner k
        vor = 0.125 * (l2[:, j] * cot[:, j] + l2[:, i] * cot[:, i])
        share = np.where(any_obtuse,
                         np.where(obtuse_corner == k, 0.5 * areas, 0.25 * areas), vor)
        np.add.at(A, tri[:, k], share)
        np.add.at(vn, tri[:, k], weighted_normal)
    return K, A, vn


def mixed_voronoi_areas(mesh: TriMesh) -> np.ndarray:
    """Per-vertex mixed Voronoi areas (with the obtuse-triangle correction)."""
    return np.ldexp(_curvature_sums(mesh)[1], 2 * mesh._exponent)


def mean_curvature(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    """Discrete mean curvature: (per-vertex H, per-panel H).

    Cotangent mean-curvature normal over mixed Voronoi areas, signed by
    projection onto the outward vertex normal; per-panel values are the
    average of the three vertex values.
    """
    require_valid(mesh)
    K, A, vn = _curvature_sums(mesh)
    if np.any(A <= 0):
        raise MeshError("zero or negative mixed Voronoi area at a vertex")
    norms = np.linalg.norm(vn, axis=1)
    if np.any(norms == 0):
        raise MeshError("isolated vertex: cannot form a vertex normal")
    K /= 2.0 * A[:, None]
    vertex_H = np.ldexp(0.5 * (K * (vn / norms[:, None])).sum(axis=1), -mesh._exponent)
    panel_H = vertex_H[mesh.triangles].mean(axis=1)
    return vertex_H, panel_H


def panel_curvature(mesh: TriMesh, use_exact: bool = True) -> np.ndarray:
    """Per-panel H: exact values when the mesh carries them, else discrete."""
    if use_exact and mesh.exact_vertex_H is not None:
        return mesh.exact_vertex_H[mesh.triangles].mean(axis=1)
    return mean_curvature(mesh)[1]


# ---------------------------------------------------------------------------
# OFF file I/O


def save_off(mesh: TriMesh, path) -> None:
    """Write ASCII OFF: coordinates at 17 significant digits (lossless)."""
    with open(path, "w") as fh:
        fh.write("OFF\n")
        E = 3 * mesh.num_panels // 2
        fh.write(f"{mesh.num_vertices} {mesh.num_panels} {E}\n")
        for v in mesh.vertices:
            fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for t in mesh.triangles:
            fh.write(f"3 {t[0]} {t[1]} {t[2]}\n")


def load_off(path) -> TriMesh:
    """Parse an ASCII OFF file; raises OffParseError with the line number."""
    with open(path) as fh:
        raw = fh.readlines()

    lines = []  # (lineno, content) with comments/blank lines stripped
    for no, text in enumerate(raw, start=1):
        s = text.split("#", 1)[0].strip()
        if s:
            lines.append((no, s))

    if not lines:
        raise OffParseError("line 1: empty file")
    pos = 0
    no, header = lines[pos]
    if header != "OFF":
        raise OffParseError(f"line {no}: expected 'OFF' header, got {header!r}")
    pos += 1
    if pos >= len(lines):
        raise OffParseError(f"line {no}: missing counts line")
    no, counts = lines[pos]
    parts = counts.split()
    if len(parts) != 3:
        raise OffParseError(f"line {no}: counts line must have 3 integers")
    try:
        nv, nf, _ne = (int(x) for x in parts)
    except ValueError:
        raise OffParseError(f"line {no}: counts must be integers") from None
    if nv < 0 or nf < 0:
        raise OffParseError(f"line {no}: vertex and face counts must not be negative")
    pos += 1

    if len(lines) - pos < nv + nf:
        raise OffParseError(f"line {lines[-1][0]}: truncated file, expected {nv} vertices and {nf} faces")

    verts = np.empty((nv, 3))
    for i in range(nv):
        no, s = lines[pos + i]
        parts = s.split()
        if len(parts) != 3:
            raise OffParseError(f"line {no}: vertex line must have 3 coordinates")
        try:
            verts[i] = [float(x) for x in parts]
        except ValueError:
            raise OffParseError(f"line {no}: bad coordinate") from None
    pos += nv

    faces = np.empty((nf, 3), dtype=np.int64)
    for i in range(nf):
        no, s = lines[pos + i]
        parts = s.split()
        try:
            vals = [int(x) for x in parts]
        except ValueError:
            raise OffParseError(f"line {no}: bad face index") from None
        if not vals or vals[0] != 3 or len(vals) != 4:
            raise OffParseError(f"line {no}: non-triangular face")
        if min(vals[1:]) < 0 or max(vals[1:]) >= nv:
            raise OffParseError(f"line {no}: vertex index out of range")
        faces[i] = vals[1:]
    return TriMesh(verts, faces)
