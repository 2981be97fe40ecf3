import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsym import geometry as geo


@pytest.fixture(scope="module")
def sphere3():
    return geo.make_sphere_mesh(1.0, 3)


class TestSphereMesh:
    def test_icosahedron_counts(self):
        m = geo.make_sphere_mesh(1.0, 0)
        assert m.num_vertices == 12
        assert m.num_panels == 20

    def test_subdivision_counts_and_area(self):
        m = geo.make_sphere_mesh(1.0, 3)
        assert m.num_panels == 1280
        assert abs(m.total_area - 4 * math.pi) / (4 * math.pi) < 0.005

    def test_vertices_on_sphere(self, sphere3):
        r = np.linalg.norm(sphere3.vertices, axis=1)
        assert np.allclose(r, 1.0, atol=1e-14)

    def test_area_scaling(self):
        m1 = geo.make_sphere_mesh(1.0, 2)
        m2 = geo.make_sphere_mesh(2.0, 2)
        assert np.allclose(m2.areas, 4.0 * m1.areas, rtol=1e-12)

    def test_rejects_bad_radius(self):
        with pytest.raises(geo.MeshError):
            geo.make_sphere_mesh(0.0, 1)


def _frozen_unit_icosphere(level):
    # the icosphere as it was built before the split was written once as
    # array code: a loop over faces with a dict of midpoints
    verts = [v / np.linalg.norm(v) for v in geo._ICO_VERTS]
    faces = geo._ICO_FACES
    for _ in range(level):
        cache = {}

        def midpoint(i, j):
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


def _relabelled(mesh, seed):
    # the same surface with its vertices numbered in a random order
    perm = np.random.default_rng(seed).permutation(mesh.num_vertices)
    verts = np.empty_like(mesh.vertices)
    verts[perm] = mesh.vertices
    return geo.TriMesh(verts, perm[mesh.triangles])


class TestSplit4:
    @pytest.mark.parametrize("level", range(7))
    def test_icosphere_bitwise_equal_to_frozen_loop(self, level):
        verts, faces = geo._unit_icosphere(level)
        frozen_verts, frozen_faces = _frozen_unit_icosphere(level)
        assert np.array_equal(verts, frozen_verts)
        assert np.array_equal(faces, frozen_faces) and faces.dtype == frozen_faces.dtype

    @pytest.mark.parametrize("shape", ["spheroid-L3", "bumpy-L2"])
    def test_split_of_relabelled_mesh_is_closed(self, shape):
        mesh = _relabelled({"spheroid-L3": lambda: geo.make_ellipsoid_mesh(2.0, 1.0, 1.0, 3),
                            "bumpy-L2": lambda: geo.make_bumpy_sphere_mesh(1.0, 2)}[shape](),
                           seed=5)
        V, F = mesh.num_vertices, mesh.num_panels
        mid, sub = geo._split4(mesh.vertices, mesh.triangles)
        assert len(mid) == 3 * F // 2 and sub.shape == (4 * F, 3)
        fine = geo.TriMesh(np.concatenate([mesh.vertices, mid]), sub)
        rep = geo.validate(fine)
        assert rep.ok and rep.euler_characteristic == 2
        # midpoints numbered from V in the order the triangles first use
        # their edges ij, jk, ki
        first_use = {}
        for i, j, k in mesh.triangles.tolist():
            for a, b in ((i, j), (j, k), (k, i)):
                first_use.setdefault((min(a, b), max(a, b)), (a, b))
        a, b = np.array(list(first_use.values())).T
        assert np.array_equal(mid, (mesh.vertices[a] + mesh.vertices[b]) / 2)
        i, j, k = mesh.triangles.T
        m = {key: V + n for n, key in enumerate(first_use)}
        ma, mb, mc = (np.array([m[min(p, q), max(p, q)] for p, q in zip(x, y)])
                      for x, y in ((i, j), (j, k), (k, i)))
        assert np.array_equal(sub[0::4], np.column_stack([i, ma, mc]))
        assert np.array_equal(sub[1::4], np.column_stack([j, mb, ma]))
        assert np.array_equal(sub[2::4], np.column_stack([k, mc, mb]))
        assert np.array_equal(sub[3::4], np.column_stack([ma, mb, mc]))


class TestEllipsoidMesh:
    def test_sphere_special_case(self):
        a = geo.make_sphere_mesh(1.5, 2)
        b = geo.make_ellipsoid_mesh(1.5, 1.5, 1.5, 2)
        assert np.allclose(a.vertices, b.vertices, atol=1e-13)
        assert np.array_equal(a.triangles, b.triangles)

    def test_prolate_spheroid_area(self):
        # closed-form prolate spheroid area for a > b = c
        a, b = 2.0, 1.0
        e = math.sqrt(1 - (b / a) ** 2)
        exact = 2 * math.pi * b * b * (1 + (a / b) * math.asin(e) / e)
        m = geo.make_ellipsoid_mesh(a, b, b, 4)
        assert abs(m.total_area - exact) / exact < 0.01

    def test_degenerate_axis(self):
        with pytest.raises(geo.MeshError):
            geo.make_ellipsoid_mesh(0.0, 1.0, 1.0, 1)


class TestValidation:
    def test_good_sphere(self, sphere3):
        rep = geo.validate(sphere3)
        assert rep.ok
        assert rep.closed and rep.oriented and rep.outward
        assert rep.euler_characteristic == 2
        assert rep.min_area > 0

    def test_open_edge_detection(self, sphere3):
        broken = geo.TriMesh(sphere3.vertices.copy(), sphere3.triangles[1:].copy())
        rep = geo.validate(broken)
        assert not rep.closed
        assert len(rep.open_edges) == 3
        assert any("open edges" in msg for msg in rep.issues)

    def test_flipped_triangle_detection(self, sphere3):
        tris = sphere3.triangles.copy()
        tris[0] = tris[0][::-1]
        rep = geo.validate(geo.TriMesh(sphere3.vertices.copy(), tris))
        assert not rep.oriented

    def test_inward_normals_detected(self, sphere3):
        tris = sphere3.triangles[:, ::-1].copy()
        rep = geo.validate(geo.TriMesh(sphere3.vertices.copy(), tris))
        assert rep.closed and rep.oriented
        assert not rep.outward

    def test_overflowing_areas_reported_without_warnings(self, sphere3):
        # coordinates near the float range: the cross products overflow
        huge = geo.TriMesh(sphere3.vertices * 1e200, sphere3.triangles.copy())
        with np.errstate(all="raise"):
            rep = geo.validate(huge)
        assert rep.closed and rep.oriented
        assert rep.issues == ["non-finite triangle area (coordinates overflow)"]


def _frozen_validate(mesh):
    # validate as it was before its edge counts were vectorized: one dict
    # entry per directed edge, filled triangle by triangle
    directed = {}
    for i, j, k in mesh.triangles:
        for a, b in ((i, j), (j, k), (k, i)):
            directed[(int(a), int(b))] = directed.get((int(a), int(b)), 0) + 1
    undirected = {}
    for (a, b), c in directed.items():
        key = (a, b) if a < b else (b, a)
        undirected[key] = undirected.get(key, 0) + c
    open_edges = sorted(e for e, c in undirected.items() if c != 2)
    closed = not open_edges
    oriented = all(c == 1 for c in directed.values()) and closed
    euler = mesh.num_vertices - len(undirected) + mesh.num_panels
    areas = mesh.areas
    min_area = float(areas.min())
    qual = 4.0 * math.sqrt(3.0) * areas / (mesh.edge_lengths**2).sum(axis=1)
    min_quality = float(np.min(qual))
    outward = False
    if min_area > 0:
        flux = float(np.einsum("ij,ij,i->", mesh.centroids, _frozen_cross(mesh) / 2.0,
                               np.ones(mesh.num_panels)))
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
    return geo.ValidationReport(closed, oriented, euler, outward, min_area,
                                min_quality, open_edges, issues)


def _defective(kind):
    m = geo.make_sphere_mesh(1.0, 2)
    v, t = m.vertices.copy(), m.triangles.copy()
    if kind == "hole":
        t = t[1:]
    elif kind == "holes":  # more open edges than the message lists
        t = np.delete(t, np.arange(0, len(t), 40), axis=0)
    elif kind == "flipped":
        t[0] = t[0][::-1]
    elif kind == "duplicated":
        t = np.vstack([t, t[5]])
    elif kind == "non-manifold":
        # a fin on the edge (t[0][0], t[0][1]), shared by three triangles
        a, b = t[0][0], t[0][1]
        v = np.vstack([v, 2.0 * (v[a] + v[b])])
        t = np.vstack([t, [[b, a, len(v) - 1]]])
    return geo.TriMesh(v, t)


class TestVectorizedValidation:
    @pytest.mark.parametrize("kind", ["hole", "holes", "flipped", "duplicated", "non-manifold"])
    def test_defective_matches_frozen(self, kind):
        mesh = _defective(kind)
        rep = geo.validate(mesh)
        assert not rep.ok
        assert rep == _frozen_validate(mesh)
        assert all(type(k) is int for e in rep.open_edges for k in e)

    @pytest.mark.parametrize("mesh", [
        geo.make_sphere_mesh(1.0, 0),
        geo.make_sphere_mesh(2.0, 3),
        geo.make_ellipsoid_mesh(2.0, 1.0, 1.0, 2),
        geo.make_bumpy_sphere_mesh(1.0, 2),
        geo.make_sphere_mesh(1.0, 2).transformed(translation=[3.0, -1.0, 0.5]),
    ])
    def test_valid_matches_frozen(self, mesh):
        rep = geo.validate(mesh)
        assert rep.ok
        assert rep == _frozen_validate(mesh)


class TestBoundingSphere:
    def test_formula_and_containment(self):
        m = geo.make_ellipsoid_mesh(2.0, 1.0, 1.0, 2).transformed(translation=[0.3, -1.2, 0.7])
        center = np.einsum("f,fd->d", m.areas, m.centroids) / m.total_area
        assert np.array_equal(m.center, center)
        assert m.bounding_radius == float(np.max(np.linalg.norm(m.vertices - center, axis=1)))
        assert np.allclose(m.center, [0.3, -1.2, 0.7], atol=1e-12)
        assert m.bounding_radius == pytest.approx(2.0, rel=1e-12)


class TestClosureIdentities:
    def test_gauss_closure(self, sphere3):
        total = np.einsum("f,fd->d", sphere3.areas, sphere3.normals)
        assert np.linalg.norm(total) <= 1e-10 * sphere3.total_area

    def test_gauss_closure_bumpy(self):
        m = geo.make_bumpy_sphere_mesh(1.0, 3)
        total = np.einsum("f,fd->d", m.areas, m.normals)
        assert np.linalg.norm(total) <= 1e-10 * m.total_area


class TestMeanCurvature:
    def test_unit_sphere(self):
        m = geo.make_sphere_mesh(1.0, 4)
        vh, ph = geo.mean_curvature(m)
        assert np.max(np.abs(vh - 1.0)) <= 0.02
        assert np.max(np.abs(ph - 1.0)) <= 0.02

    def test_radius_two(self):
        m = geo.make_sphere_mesh(2.0, 3)
        vh, _ = geo.mean_curvature(m)
        assert np.max(np.abs(vh - 0.5)) <= 0.01

    def test_total_curvature(self):
        m = geo.make_sphere_mesh(1.0, 3)
        vh, _ = geo.mean_curvature(m)
        total = float(vh @ geo.mixed_voronoi_areas(m))
        assert abs(total - 4 * math.pi) / (4 * math.pi) < 0.02

    def test_ellipsoid_pole_value(self):
        a, b = 2.0, 1.0
        m = geo.make_ellipsoid_mesh(a, b, b, 4)
        vh, _ = geo.mean_curvature(m)
        exact = geo.ellipsoid_mean_curvature(np.array([[a, 0.0, 0.0]]), a, b, b)[0]
        # principal curvatures at the pole: both b/a^2... via level-set formula
        pole = int(np.argmax(m.vertices[:, 0]))
        assert abs(vh[pole] - exact) / exact < 0.03

    def test_scaling_covariance(self):
        m = geo.make_bumpy_sphere_mesh(1.0, 3)
        vh, _ = geo.mean_curvature(m)
        vh2, _ = geo.mean_curvature(m.scaled(2.0))
        assert np.allclose(vh2, vh / 2.0, rtol=1e-10, atol=1e-12)

    def test_rigid_motion_invariance(self):
        m = geo.make_bumpy_sphere_mesh(1.0, 2)
        theta = 0.7
        Rz = np.array([
            [math.cos(theta), -math.sin(theta), 0.0],
            [math.sin(theta), math.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ])
        moved = m.transformed(rotation=Rz, translation=[1.0, -2.0, 0.5])
        vh, _ = geo.mean_curvature(m)
        vh2, _ = geo.mean_curvature(moved)
        assert np.allclose(vh, vh2, atol=1e-12 * np.abs(vh).max())
        assert np.allclose(m.areas, moved.areas, rtol=1e-12)

    def test_exact_curvature_tags(self):
        m = geo.make_sphere_mesh(2.0, 2)
        assert np.allclose(m.exact_vertex_H, 0.5)
        assert np.allclose(geo.panel_curvature(m), 0.5)
        e = geo.make_ellipsoid_mesh(2.0, 1.0, 1.0, 2)
        assert e.exact_vertex_H is not None
        bumpy = geo.make_bumpy_sphere_mesh(1.0, 2)
        assert bumpy.exact_vertex_H is None
        # discrete fallback still works
        assert geo.panel_curvature(bumpy).shape == (bumpy.num_panels,)

    def test_ellipsoid_exact_formula_sphere_reduction(self):
        pts = geo.make_sphere_mesh(3.0, 1).vertices
        H = geo.ellipsoid_mean_curvature(pts, 3.0, 3.0, 3.0)
        assert np.allclose(H, 1.0 / 3.0, rtol=1e-12)


class TestOffIO:
    def test_round_trip(self, sphere3, tmp_path):
        path = tmp_path / "sphere.off"
        geo.save_off(sphere3, path)
        back = geo.load_off(path)
        assert np.array_equal(back.triangles, sphere3.triangles)
        assert np.array_equal(back.vertices, sphere3.vertices)  # bit-exact via 17g

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_round_trip_is_bitwise_lossless(self, data, tmp_path_factory):
        # every finite double, -0.0, subnormals and magnitudes near 1e+-300
        # come back with the bits they were written with
        signed = st.sampled_from([1.0, -1.0])
        coord = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([0.0, -0.0, 5e-324, 2.225073858507201e-308,
                             2.2250738585072014e-308, 1.7976931348623157e308]),
            st.builds(lambda s, x: s * x, signed, st.floats(1e-310, 1e-290)),
            st.builds(lambda s, x: s * x, signed, st.floats(1e290, 1.7976931348623157e308)))
        nv = data.draw(st.integers(3, 9))
        verts = np.array(data.draw(st.lists(coord, min_size=3 * nv, max_size=3 * nv)))
        tris = np.array(data.draw(st.lists(st.integers(0, nv - 1), min_size=3,
                                           max_size=30).filter(lambda t: len(t) % 3 == 0)))
        mesh = geo.TriMesh(verts.reshape(nv, 3), tris.reshape(-1, 3))
        path = tmp_path_factory.mktemp("off") / "mesh.off"
        geo.save_off(mesh, path)
        back = geo.load_off(path)
        assert np.array_equal(back.vertices.view(np.int64), mesh.vertices.view(np.int64))
        assert np.array_equal(back.triangles, mesh.triangles)

    def test_non_triangular_face(self, tmp_path):
        path = tmp_path / "quad.off"
        path.write_text("OFF\n4 1 4\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
        with pytest.raises(geo.OffParseError, match="non-triangular"):
            geo.load_off(path)

    def test_out_of_range_index(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n")
        with pytest.raises(geo.OffParseError, match="out of range"):
            geo.load_off(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.off"
        path.write_text("OFX\n1 0 0\n0 0 0\n")
        with pytest.raises(geo.OffParseError, match="line 1"):
            geo.load_off(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "trunc.off"
        path.write_text("OFF\n4 2 6\n0 0 0\n1 0 0\n")
        with pytest.raises(geo.OffParseError, match="truncated"):
            geo.load_off(path)

    # a negative vertex count, then a negative face count, on the counts line
    @pytest.mark.parametrize("counts", ["-1 0 0", "3 -1 0"])
    def test_negative_count(self, tmp_path, counts):
        path = tmp_path / "neg.off"
        path.write_text(f"# counts on line 3\nOFF\n{counts}\n0 0 0\n1 0 0\n0 1 0\n")
        with pytest.raises(geo.OffParseError, match="^line 3: .*must not be negative"):
            geo.load_off(path)


# geometry as it was before every product of coordinates moved to one exact
# power-of-two scale and the discrete curvature to one pass over the corners
def _frozen_cross(mesh):
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    p1 = mesh.vertices[mesh.triangles[:, 1]]
    p2 = mesh.vertices[mesh.triangles[:, 2]]
    return np.cross(p1 - p0, p2 - p0)


def _frozen_areas(mesh):
    cross = _frozen_cross(mesh)
    exp = np.frexp(np.max(np.abs(cross), axis=1, initial=0.0))[1]
    return 0.5 * np.ldexp(np.linalg.norm(np.ldexp(cross, -exp[:, None]), axis=1), exp)


def _frozen_normals(mesh):
    return _frozen_cross(mesh) / (2.0 * _frozen_areas(mesh))[:, None]


def _frozen_edge_lengths(mesh):
    p = mesh.vertices[mesh.triangles]
    return np.stack([np.linalg.norm(p[:, 2] - p[:, 1], axis=1),
                     np.linalg.norm(p[:, 0] - p[:, 2], axis=1),
                     np.linalg.norm(p[:, 1] - p[:, 0], axis=1)], axis=1)


def _frozen_center(mesh):
    areas = _frozen_areas(mesh)
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    return np.einsum("f,fd->d", areas, centroids) / float(areas.sum())


def _frozen_vertex_normals(mesh):
    vn = np.zeros_like(mesh.vertices)
    w = _frozen_cross(mesh) / 2.0
    for k in range(3):
        np.add.at(vn, mesh.triangles[:, k], w)
    return vn / np.linalg.norm(vn, axis=1)[:, None]


def _frozen_corner_cotangents(p, areas):
    dots = np.empty(p.shape[:2])
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        dots[:, k] = ((p[:, i] - p[:, k]) * (p[:, j] - p[:, k])).sum(axis=1)
    return dots, dots / (2.0 * areas[:, None])


def _frozen_mixed_voronoi_areas(mesh):
    tri = mesh.triangles
    p = mesh.vertices[tri]
    areas = _frozen_areas(mesh)
    A = np.zeros(mesh.num_vertices)
    e = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1)
    l2 = (e**2).sum(axis=2)
    dots, cot = _frozen_corner_cotangents(p, areas)
    obtuse_corner = np.argmin(dots, axis=1)
    any_obtuse = dots.min(axis=1) < 0
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        vor = 0.125 * (l2[:, j] * cot[:, j] + l2[:, i] * cot[:, i])
        share = np.where(any_obtuse, np.where(obtuse_corner == k, 0.5 * areas, 0.25 * areas),
                         vor)
        np.add.at(A, tri[:, k], share)
    return A


def _frozen_mean_curvature(mesh):
    tri = mesh.triangles
    _, cot = _frozen_corner_cotangents(mesh.vertices[tri], _frozen_areas(mesh))
    K = np.zeros_like(mesh.vertices)
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        w = cot[:, k][:, None]
        d = mesh.vertices[tri[:, i]] - mesh.vertices[tri[:, j]]
        np.add.at(K, tri[:, i], w * d)
        np.add.at(K, tri[:, j], -w * d)
    K /= 2.0 * _frozen_mixed_voronoi_areas(mesh)[:, None]
    vertex_H = 0.5 * (K * _frozen_vertex_normals(mesh)).sum(axis=1)
    return vertex_H, vertex_H[tri].mean(axis=1)


_SHAPES = {
    "sphere": lambda level: geo.make_sphere_mesh(1.3, level),
    "spheroid": lambda level: geo.make_ellipsoid_mesh(2.0, 1.0, 1.0, level),
    "bumpy": lambda level: geo.make_bumpy_sphere_mesh(1.0, level),
}


def _jittered(mesh, seed):
    # each vertex moved by up to a fifth of the mean edge: obtuse corners
    # appear, the surface stays closed and outward
    rng = np.random.default_rng(seed)
    h = float(mesh.edge_lengths.mean())
    return geo.TriMesh(mesh.vertices + rng.uniform(-0.2 * h, 0.2 * h, mesh.vertices.shape),
                       mesh.triangles.copy())


class TestFrozenGeometry:
    """Every derived quantity is bitwise the one computed before, at
    ordinary scales, on shapes whose largest coordinate gives a nonzero
    binary exponent."""

    @pytest.mark.parametrize("variant", ["plain", "jitter", "off"])
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_bitwise_equal_to_frozen(self, shape, level, variant, tmp_path):
        mesh = _SHAPES[shape](level)
        if variant != "plain":
            mesh = _jittered(mesh, seed=level)
        if variant == "off":
            geo.save_off(mesh, tmp_path / "m.off")
            mesh = geo.load_off(tmp_path / "m.off")
        assert mesh._exponent != 0
        if variant != "plain":
            assert np.any(_frozen_corner_cotangents(mesh.vertices[mesh.triangles],
                                                    _frozen_areas(mesh))[0] < 0)
        assert np.array_equal(mesh.areas, _frozen_areas(mesh))
        assert np.array_equal(np.ldexp(mesh._unit_cross, 2 * mesh._exponent),
                              _frozen_cross(mesh))
        assert np.array_equal(mesh.normals, _frozen_normals(mesh))
        assert np.array_equal(mesh.edge_lengths, _frozen_edge_lengths(mesh))
        assert np.array_equal(mesh.center, _frozen_center(mesh))
        assert np.array_equal(geo.mixed_voronoi_areas(mesh), _frozen_mixed_voronoi_areas(mesh))
        vh, ph = geo.mean_curvature(mesh)
        frozen_vh, frozen_ph = _frozen_mean_curvature(mesh)
        assert np.array_equal(vh, frozen_vh)
        assert np.array_equal(ph, frozen_ph)
        vn = geo._curvature_sums(mesh)[2]
        assert np.array_equal(vn / np.linalg.norm(vn, axis=1)[:, None],
                              _frozen_vertex_normals(mesh))


_SCALED_BASE = _jittered(geo.make_bumpy_sphere_mesh(1.0, 2), seed=3).transformed(
    translation=[0.3, -1.2, 0.7])


class TestExactScale:
    """Scaling a mesh by 2^k scales every derived quantity exactly, with no
    floating-point exception, across most of the exponent range."""

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(min_value=-460, max_value=460))
    def test_power_of_two_scaling_is_exact(self, k):
        base = _SCALED_BASE
        vh, ph = geo.mean_curvature(base)
        with np.errstate(all="raise"):
            m = base.scaled(2.0**k)
            assert geo.validate(m).ok
            scaled_vh, scaled_ph = geo.mean_curvature(m)
            assert np.array_equal(scaled_vh, np.ldexp(vh, -k))
            assert np.array_equal(scaled_ph, np.ldexp(ph, -k))
            assert np.array_equal(m.areas, np.ldexp(base.areas, 2 * k))
            assert np.array_equal(m.center, np.ldexp(base.center, k))
            assert np.array_equal(geo.mixed_voronoi_areas(m),
                                  np.ldexp(geo.mixed_voronoi_areas(base), 2 * k))

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(min_value=-1000, max_value=1000))
    def test_exact_ellipsoid_curvature_scales_exactly(self, k):
        axes = (3.0, 2.0, 1.0)
        pts = geo.make_ellipsoid_mesh(*axes, 1).vertices
        H = geo.ellipsoid_mean_curvature(pts, *axes)
        with np.errstate(all="raise"):
            scaled = geo.ellipsoid_mean_curvature(
                np.ldexp(pts, k), *(math.ldexp(x, k) for x in axes))
        assert np.array_equal(scaled, np.ldexp(H, -k))
