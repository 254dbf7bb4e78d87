"""Tests for triangulation construction, connectivity and file IO."""

import math
import re
import warnings

import numpy as np
import pytest

from fenep.meshing import (
    MeshError,
    MeshFormatError,
    TriMesh,
    load_mesh,
    save_mesh,
    structured_unit_square,
)


def loop_edge_data(vertices, cells):
    """Edge data built by a per-cell loop (oracle of ``TriMesh._build_edges``).

    ``cells`` are counterclockwise.  Returns the edge vertices, the edge
    of each cell opposite each local vertex, the (left, right) cells of
    each edge and the oriented unit normals.
    """
    m = len(cells)
    local = cells[:, [[1, 2], [2, 0], [0, 1]]]
    pairs = np.sort(local.reshape(-1, 2), axis=1)
    edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
    cell_edges = inverse.reshape(m, 3)
    edge_cells = np.full((len(edges), 2), -1, np.int64)
    count = np.zeros(len(edges), np.int64)
    for k in range(m):
        for e in cell_edges[k]:
            if count[e] == 2:
                raise MeshError(f"edge {tuple(edges[e])} shared by more "
                                "than two cells")
            edge_cells[e, count[e]] = k
            count[e] += 1
    interior = count == 2
    swap = interior & (edge_cells[:, 0] > edge_cells[:, 1])
    edge_cells[swap] = edge_cells[swap][:, ::-1]
    pa, pb = vertices[edges[:, 0]], vertices[edges[:, 1]]
    tang = pb - pa
    normal = (np.stack([tang[:, 1], -tang[:, 0]], axis=1)
              / np.linalg.norm(tang, axis=1)[:, None])
    centroids = vertices[cells].mean(axis=1)
    ref = np.where(interior[:, None],
                   centroids[edge_cells[:, 1]] - centroids[edge_cells[:, 0]],
                   0.5 * (pa + pb) - centroids[edge_cells[:, 0]])
    sign = np.where(np.einsum("ej,ej->e", normal, ref) < 0.0, -1.0, 1.0)
    return edges, cell_edges, edge_cells, normal * sign[:, None]


def dfs_edge_connected(cell_edges, edge_cells):
    """Depth-first search over shared edges (oracle of
    ``TriMesh._check_edge_connected``): True when every cell is reached."""
    m = len(cell_edges)
    seen = np.zeros(m, bool)
    stack = [0]
    seen[0] = True
    while stack:
        k = stack.pop()
        for e in cell_edges[k]:
            for kk in edge_cells[e]:
                if kk >= 0 and not seen[kk]:
                    seen[kk] = True
                    stack.append(kk)
    return bool(seen.all())


def shear_mesh(n, slope):
    base = structured_unit_square(n)
    pts = base.vertices.copy()
    pts[:, 1] += slope * pts[:, 0]
    return TriMesh(pts, base.cells)


# ---------------------------------------------------------------------------
# structured generator


@pytest.mark.parametrize("n,cells,verts,interior", [(1, 2, 4, 1), (2, 8, 9, 8)])
def test_structured_counts(n, cells, verts, interior):
    mesh = structured_unit_square(n)
    assert mesh.n_cells == cells
    assert mesh.n_vertices == verts
    assert len(mesh.interior_edges) == interior


def test_structured_geometry():
    mesh = structured_unit_square(4)
    assert mesh.cell_areas.sum() == pytest.approx(1.0)
    assert np.allclose(mesh.cell_areas, 1.0 / 32.0)
    assert mesh.h_max == pytest.approx(math.sqrt(2.0) / 4.0)
    # all cells CCW
    assert np.all(mesh.cell_areas > 0)


def test_audit_right_isoceles():
    assert structured_unit_square(3).non_obtuse is True


def test_audit_detects_obtuse_shear():
    assert shear_mesh(3, 1.2).non_obtuse is False
    # mild shear keeps every angle at or below a right angle
    assert shear_mesh(3, 0.0).non_obtuse is True


@pytest.mark.parametrize("slope,expected", [(0.0, True), (1.2, False)])
def test_non_obtuse_of_a_mesh_read_from_file(tmp_path, slope, expected):
    path = tmp_path / "m.txt"
    save_mesh(shear_mesh(4, slope), path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        back = load_mesh(path)
    assert back.non_obtuse is expected


# ---------------------------------------------------------------------------
# connectivity invariants


def test_edge_structures():
    mesh = structured_unit_square(3)
    ev = mesh.edge_vertices
    assert np.all(ev[:, 0] < ev[:, 1])
    # interior edges have two distinct cells in ascending order,
    # boundary edges have -1 on the right
    inter = ~mesh.is_boundary_edge
    assert np.all(mesh.edge_cells[inter, 0] < mesh.edge_cells[inter, 1])
    assert np.all(mesh.edge_cells[mesh.is_boundary_edge, 1] == -1)
    assert np.all(mesh.edge_cells[:, 0] >= 0)
    # Euler characteristic of a disk: V - E + F = 1
    assert mesh.n_vertices - len(mesh.edge_vertices) + mesh.n_cells == 1
    assert np.all(np.linalg.norm(mesh.edge_normals, axis=1)
                  == pytest.approx(1.0))


def relabelled(mesh, seed):
    """The same triangulation with permuted vertex labels and cell order."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.n_vertices)        # new vertex r is old perm[r]
    new_label = np.argsort(perm)
    cells = new_label[mesh.cells][rng.permutation(mesh.n_cells)]
    return TriMesh(mesh.vertices[perm], cells)


ORACLE_MESHES = ([structured_unit_square(n) for n in range(1, 7)]
                 + [shear_mesh(4, 0.6), relabelled(shear_mesh(5, 0.3), 1),
                    relabelled(structured_unit_square(4), 2)])


@pytest.mark.parametrize("mesh", ORACLE_MESHES)
def test_edge_data_matches_loop_oracle(mesh):
    edges, cell_edges, edge_cells, normals = loop_edge_data(mesh.vertices,
                                                            mesh.cells)
    assert np.array_equal(mesh.edge_vertices, edges)
    assert np.array_equal(mesh.cell_edges, cell_edges)
    assert np.array_equal(mesh.edge_cells, edge_cells)
    assert np.array_equal(mesh.edge_normals, normals)
    assert np.array_equal(mesh.interior_edges,
                          np.nonzero(edge_cells[:, 1] >= 0)[0])
    assert dfs_edge_connected(cell_edges, edge_cells)


def test_disconnected_meshes_match_dfs_oracle():
    # two unit squares: apart, and touching at one corner
    square = structured_unit_square(1)
    apart = (np.vstack([square.vertices, square.vertices + [2.0, 0.0]]),
             np.vstack([square.cells, square.cells + 4]))
    corner = (np.vstack([square.vertices, [[2.0, 1.0], [1.0, 2.0],
                                           [2.0, 2.0]]]),
              np.vstack([square.cells, [[3, 4, 6], [3, 6, 5]]]))
    for verts, cells in (apart, corner):
        _, cell_edges, edge_cells, _ = loop_edge_data(verts, cells)
        assert not dfs_edge_connected(cell_edges, edge_cells)
        with pytest.raises(MeshError, match="not edge-connected"):
            TriMesh(verts, cells)


def test_long_strip_is_connected():
    # a 40 x 1 strip of squares whose cell labels run against its length
    n = 40
    x = np.repeat(np.arange(n + 1.0), 2)
    y = np.tile([0.0, 1.0], n + 1)
    lo = 2 * np.arange(n)
    cells = np.concatenate([np.stack([lo, lo + 2, lo + 3], 1),
                            np.stack([lo, lo + 3, lo + 1], 1)])[::-1]
    mesh = TriMesh(np.column_stack([x, y]), cells)
    assert mesh.n_cells == 2 * n
    _, cell_edges, edge_cells, _ = loop_edge_data(mesh.vertices, mesh.cells)
    assert dfs_edge_connected(cell_edges, edge_cells)


def test_edge_normals_point_left_to_right():
    mesh = structured_unit_square(2)
    cent = mesh.vertices[mesh.cells].mean(axis=1)
    for e in mesh.interior_edges:
        left, right = mesh.edge_cells[e]
        d = cent[right] - cent[left]
        assert d @ mesh.edge_normals[e] > 0


def test_cell_edges_opposite_local_vertex():
    mesh = structured_unit_square(3)
    for k in range(mesh.n_cells):
        for i in range(3):
            e = mesh.cell_edges[k, i]
            pair = set(mesh.edge_vertices[e])
            assert pair == set(mesh.cells[k]) - {mesh.cells[k, i]}


def test_boundary_vertices():
    mesh = structured_unit_square(4)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    on_edge = (np.isclose(x, 0) | np.isclose(x, 1)
               | np.isclose(y, 0) | np.isclose(y, 1))
    assert np.array_equal(mesh.is_boundary_vertex, on_edge)


def test_barycentric_gradients():
    mesh = structured_unit_square(2)
    # gradients of the three barycentric coordinates sum to zero and
    # reproduce linear functions exactly
    assert np.allclose(mesh.bary_grads.sum(axis=1), 0.0, atol=1e-14)
    coeff = np.array([2.0, -1.0])
    vals = mesh.vertices @ coeff
    grads = np.einsum("kj,kjd->kd", vals[mesh.cells], mesh.bary_grads)
    assert np.allclose(grads, coeff, atol=1e-13)


def test_ccw_fix_and_validation_errors():
    V = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    fixed = TriMesh(V, np.array([[0, 2, 1]]))
    assert fixed.cell_areas[0] == pytest.approx(0.5)

    with pytest.raises(MeshError, match="cell 0 is degenerate"):
        TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
                np.array([[0, 1, 2]]))
    with pytest.raises(MeshError, match="cell 0 repeats a vertex index"):
        TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                np.array([[0, 1, 1]]))
    V2 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                   [0.5, -1.0]])
    with pytest.raises(MeshError,
                       match=re.escape("edge (0, 1) shared by more than two")):
        TriMesh(V2, np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]]))
    V3 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0],
                   [0.0, -1.0]])
    with pytest.raises(MeshError, match="not edge-connected"):
        TriMesh(V3, np.array([[0, 1, 2], [0, 3, 4]]))
    # no cells, or a vertex in none, whose dofs no equation would see
    with pytest.raises(MeshError, match="mesh has no cells"):
        TriMesh(V, np.zeros((0, 3), int))
    with pytest.raises(MeshError, match="vertex 3 is in no cell"):
        TriMesh(V2, np.array([[0, 1, 2]]))


def test_repeated_vertex_names_the_first_bad_cell():
    V = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(MeshError, match="cell 1 repeats a vertex index"):
        TriMesh(V, np.array([[0, 1, 2], [3, 2, 3], [1, 1, 3]]))


@pytest.mark.parametrize("vertices,cells,edge", [
    # the same cell twice: every edge has both cells on one side
    ([[0, 0], [1, 0], [0, 1], [1, 1]], [[0, 1, 2], [0, 1, 2]], (0, 1)),
    # a folded pair: vertex 3 lies inside cell 0, on its side of edge (1, 2)
    ([[0, 0], [1, 0], [0, 1], [0.2, 0.2]], [[0, 1, 2], [1, 2, 3]], (1, 2)),
])
def test_overlapping_cells_are_rejected(vertices, cells, edge):
    with pytest.raises(MeshError, match=re.escape(f"shared edge {edge}")):
        TriMesh(np.array(vertices, float), np.array(cells))


def test_valid_meshes_pass_the_overlap_check(tmp_path):
    square = structured_unit_square(4)
    clockwise = TriMesh(square.vertices, square.cells[:, [0, 2, 1]])
    for mesh in (structured_unit_square(5), shear_mesh(4, 1.2),
                 relabelled(shear_mesh(3, 0.5), 3), clockwise):
        path = tmp_path / "m.txt"
        save_mesh(mesh, path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            back = load_mesh(path)
        assert back.cell_areas.sum() == pytest.approx(mesh.cell_areas.sum())
        assert len(back.interior_edges) == len(mesh.interior_edges)


# ---------------------------------------------------------------------------
# file format


def test_save_load_roundtrip(tmp_path):
    mesh = shear_mesh(3, 0.4)
    path = tmp_path / "m.txt"
    save_mesh(mesh, path)
    with pytest.warns(UserWarning, match="all vertices on the boundary"):
        back = load_mesh(path)
    assert np.allclose(back.vertices, mesh.vertices)
    assert np.array_equal(back.cells, mesh.cells)
    # derived connectivity rebuilt identically
    assert np.array_equal(back.edge_vertices, mesh.edge_vertices)


def test_load_rejects_bad_signature(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("tri-mesh 3d v9\n3 1\n0 0\n1 0\n0 1\n0 1 2\n")
    with pytest.raises(MeshFormatError):
        load_mesh(p)


def test_load_rejects_truncated_file(tmp_path):
    p = tmp_path / "short.txt"
    p.write_text("tri-mesh 2d v1\n4 2\n0 0\n1 0\n0 1\n")
    with pytest.raises(MeshFormatError):
        load_mesh(p)


@pytest.mark.parametrize("text", ["-1 1\n", "3 -1\n0 0\n1 0\n"])
def test_load_rejects_a_negative_count(tmp_path, text):
    # each count line agrees with the number of lines that follow it
    p = tmp_path / "negative.txt"
    p.write_text("tri-mesh 2d v1\n" + text)
    with pytest.raises(MeshFormatError,
                       match="line 2: counts must not be negative"):
        load_mesh(p)


def test_load_rejects_out_of_range_index(tmp_path):
    p = tmp_path / "oob.txt"
    p.write_text("tri-mesh 2d v1\n3 1\n0 0\n1 0\n0 1\n0 1 7\n")
    with pytest.raises(MeshError):
        load_mesh(p)
