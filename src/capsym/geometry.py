"""Closed triangulated surfaces in R^3.

Icosphere-based generators for spheres, ellipsoids and perturbed spheres,
validation of closedness/orientation, discrete mean curvature by the
cotangent formula with mixed Voronoi areas, and ASCII OFF file I/O.

Curvature sign convention: outward normals, H > 0 on convex surfaces, so
the unit sphere has H = +1.
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
    def _cross(self) -> np.ndarray:
        p0 = self.vertices[self.triangles[:, 0]]
        p1 = self.vertices[self.triangles[:, 1]]
        p2 = self.vertices[self.triangles[:, 2]]
        return np.cross(p1 - p0, p2 - p0)

    @cached_property
    def areas(self) -> np.ndarray:
        """Per-triangle areas."""
        return 0.5 * np.linalg.norm(self._cross, axis=1)

    @cached_property
    def normals(self) -> np.ndarray:
        """Per-triangle unit normals (orientation as given by the winding)."""
        a = 2.0 * self.areas
        if np.any(a <= 0):
            raise MeshError("mesh contains a degenerate (zero-area) triangle")
        return self._cross / a[:, None]

    @cached_property
    def centroids(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)

    @cached_property
    def total_area(self) -> float:
        return float(self.areas.sum())

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        """Per-triangle (3,) edge lengths, edge k opposite vertex k."""
        p = self.vertices[self.triangles]
        return np.stack(
            [
                np.linalg.norm(p[:, 2] - p[:, 1], axis=1),
                np.linalg.norm(p[:, 0] - p[:, 2], axis=1),
                np.linalg.norm(p[:, 1] - p[:, 0], axis=1),
            ],
            axis=1,
        )

    @cached_property
    def diameter(self) -> float:
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return float(np.linalg.norm(hi - lo))

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
    directed = {}
    for f, (i, j, k) in enumerate(mesh.triangles):
        for a, b in ((i, j), (j, k), (k, i)):
            directed[(int(a), int(b))] = directed.get((int(a), int(b)), 0) + 1

    undirected = {}
    for (a, b), c in directed.items():
        key = (a, b) if a < b else (b, a)
        undirected[key] = undirected.get(key, 0) + c

    open_edges = sorted(e for e, c in undirected.items() if c != 2)
    closed = not open_edges
    # consistent orientation: every directed edge appears exactly once
    oriented = all(c == 1 for c in directed.values()) and closed

    V = mesh.num_vertices
    E = len(undirected)
    F = mesh.num_panels
    euler = V - E + F

    areas = mesh.areas
    min_area = float(areas.min()) if len(areas) else 0.0
    # quality = 4 sqrt(3) area / sum(edge^2): 1 for equilateral, -> 0 degenerate
    with np.errstate(divide="ignore", invalid="ignore"):
        qual = 4.0 * math.sqrt(3.0) * areas / (mesh.edge_lengths**2).sum(axis=1)
    min_quality = float(np.min(qual)) if len(qual) else 0.0

    outward = False
    if min_area > 0:
        flux = float(np.einsum("ij,ij,i->", mesh.centroids, mesh._cross / 2.0, np.ones(F)))
        outward = flux > 0

    issues = []
    if not closed:
        issues.append(f"open edges: {open_edges[:10]}")
    if not oriented:
        issues.append("inconsistent triangle orientation")
    if euler != 2:
        issues.append(f"Euler characteristic {euler} != 2")
    if min_area <= 0:
        issues.append("degenerate triangle with zero area")
    if closed and oriented and min_area > 0 and not outward:
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


def _unit_icosphere(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Subdivide the icosahedron `level` times, vertices on the unit sphere."""
    if level < 0:
        raise ValueError(f"subdivision level must be >= 0, got {level}")
    verts = [v / np.linalg.norm(v) for v in _ICO_VERTS]
    faces = _ICO_FACES
    for _ in range(level):
        cache: dict[tuple[int, int], int] = {}

        def midpoint(i: int, j: int) -> int:
            key = (i, j) if i < j else (j, i)
            idx = cache.get(key)
            if idx is None:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                idx = len(verts) - 1
                cache[key] = idx
            return idx

        new_faces = []
        for i, j, k in faces:
            a = midpoint(i, j)
            b = midpoint(j, k)
            c = midpoint(k, i)
            new_faces.extend([(i, a, c), (j, b, a), (k, c, b), (a, b, c)])
        faces = np.array(new_faces, dtype=np.int64)
    return np.array(verts), faces


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
    """
    p = np.atleast_2d(np.asarray(points, dtype=float))
    inv2 = np.array([1.0 / a**2, 1.0 / b**2, 1.0 / c**2])
    g = 2.0 * p * inv2  # DF
    gnorm = np.linalg.norm(g, axis=1)
    lap = 2.0 * inv2.sum()  # trace of D2F
    # g^T D2F g with D2F = 2 diag(inv2)
    gHg = 2.0 * (g**2 * inv2).sum(axis=1)
    H = (lap - gHg / gnorm**2) / (2.0 * gnorm)
    return H if np.asarray(points).ndim == 2 else float(H[0])


def make_ellipsoid_mesh(a: float, b: float, c: float, level: int) -> TriMesh:
    """Icosphere mapped by (x,y,z) -> (ax, by, cz); exact curvature attached."""
    if min(a, b, c) <= 0:
        raise MeshError(f"semi-axes must be positive, got ({a}, {b}, {c})")
    verts, faces = _unit_icosphere(level)
    verts = verts * np.array([a, b, c])
    exact = ellipsoid_mean_curvature(verts, a, b, c)
    return TriMesh(verts, faces, exact_vertex_H=exact)


def make_bumpy_sphere_mesh(R: float, level: int, amplitude: float = 0.05) -> TriMesh:
    """Sphere with a smooth radial perturbation r = R (1 + amplitude * g).

    g is the degree-3 harmonic x y z / |x|^3 scaled to [-1, 1], so the
    surface is smooth, genus 0 and mildly nonconvex at amplitude 0.05.
    No exact curvature is attached; consumers fall back to the discrete
    estimate.
    """
    if R <= 0:
        raise MeshError(f"radius must be positive, got {R}")
    verts, faces = _unit_icosphere(level)
    g = 3.0 * math.sqrt(3.0) * verts[:, 0] * verts[:, 1] * verts[:, 2]
    r = R * (1.0 + amplitude * g)
    return TriMesh(verts * r[:, None], faces)


# ---------------------------------------------------------------------------
# discrete mean curvature


def vertex_normals(mesh: TriMesh) -> np.ndarray:
    """Area-weighted average of incident triangle normals, normalized."""
    vn = np.zeros_like(mesh.vertices)
    w = mesh._cross / 2.0  # area-weighted normals
    for k in range(3):
        np.add.at(vn, mesh.triangles[:, k], w)
    norms = np.linalg.norm(vn, axis=1)
    if np.any(norms == 0):
        raise MeshError("isolated vertex: cannot form a vertex normal")
    return vn / norms[:, None]


def mixed_voronoi_areas(mesh: TriMesh) -> np.ndarray:
    """Per-vertex mixed Voronoi areas (with the obtuse-triangle correction)."""
    tri = mesh.triangles
    p = mesh.vertices[tri]  # (F, 3, 3)
    areas = mesh.areas
    A = np.zeros(mesh.num_vertices)

    # edge vectors opposite each vertex corner
    e = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1)
    l2 = (e**2).sum(axis=2)  # (F, 3) squared edge lengths, edge k opposite vertex k

    # cot of angle at corner k: (l_i^2 + l_j^2 - l_k^2) / (8 area)  *? ---
    # cot(theta_k) = dot / (2 area) with dot = (p_i-p_k).(p_j-p_k)
    dots = np.empty_like(l2)
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        dots[:, k] = ((p[:, i] - p[:, k]) * (p[:, j] - p[:, k])).sum(axis=1)
    cot = dots / (2.0 * areas[:, None])

    obtuse_corner = np.argmin(dots, axis=1)
    any_obtuse = dots.min(axis=1) < 0

    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        # non-obtuse: Voronoi-exact (1/8)(l_j^2 cot_j + l_i^2 cot_i) at corner k
        vor = 0.125 * (l2[:, j] * cot[:, j] + l2[:, i] * cot[:, i])
        share = np.where(
            any_obtuse,
            np.where(obtuse_corner == k, 0.5 * areas, 0.25 * areas),
            vor,
        )
        np.add.at(A, tri[:, k], share)
    return A


def mean_curvature(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    """Discrete mean curvature: (per-vertex H, per-panel H).

    Cotangent mean-curvature normal over mixed Voronoi areas, signed by
    projection onto the outward vertex normal; per-panel values are the
    average of the three vertex values.
    """
    require_valid(mesh)
    tri = mesh.triangles
    p = mesh.vertices[tri]
    areas = mesh.areas

    dots = np.empty((mesh.num_panels, 3))
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        dots[:, k] = ((p[:, i] - p[:, k]) * (p[:, j] - p[:, k])).sum(axis=1)
    cot = dots / (2.0 * areas[:, None])

    K = np.zeros_like(mesh.vertices)
    # edge (i, j) inside each triangle gets weight cot(angle at k)
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        w = cot[:, k][:, None]
        d = mesh.vertices[tri[:, i]] - mesh.vertices[tri[:, j]]
        np.add.at(K, tri[:, i], w * d)
        np.add.at(K, tri[:, j], -w * d)

    A = mixed_voronoi_areas(mesh)
    if np.any(A <= 0):
        raise MeshError("zero or negative mixed Voronoi area at a vertex")
    K /= 2.0 * A[:, None]
    vn = vertex_normals(mesh)
    vertex_H = 0.5 * (K * vn).sum(axis=1)
    panel_H = vertex_H[tri].mean(axis=1)
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
