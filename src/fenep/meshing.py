"""Conforming triangular meshes with the adjacency data the schemes need.

A :class:`TriMesh` stores vertices and counterclockwise cells and derives
everything else at construction time: the gradients of each cell's
barycentric coordinates, areas and diameters, a global edge enumeration with
cell adjacency, oriented unit normals on every edge, and boundary flags.
Only the non-obtuse test waits for its first use.  Meshes are immutable
once built.

Edge conventions used throughout the package:

* ``cell_edges[k, i]`` is the global edge opposite local vertex ``i`` of
  cell ``k`` (the edge joining local vertices ``i+1`` and ``i+2`` mod 3);
* for an interior edge the "left" cell is the adjacent cell with the
  smaller index and the stored unit normal points from left to right;
  boundary edges store their single cell as left and an outward normal.
  The schemes only consume ``|u . n|`` and jump orientations derived from
  the sign of ``u . n``, so the convention itself is a reproducibility
  device, not a modelling choice.

The only generator shipped is the structured unit-square mesh (squares
split along a fixed diagonal into right isoceles triangles, hence
non-obtuse); general polygonal meshes enter through the ASCII file
format handled by :func:`load_mesh` / :func:`save_mesh`.
"""

from __future__ import annotations

import warnings
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

__all__ = [
    "MeshError",
    "MeshFormatError",
    "TriMesh",
    "structured_unit_square",
    "save_mesh",
    "load_mesh",
]

#: reference gradients of the barycentric coordinates, row l = grad_xi lambda_l
REF_GRADS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


class MeshError(Exception):
    """Invalid mesh topology or geometry."""


class MeshFormatError(MeshError):
    """Malformed or unreadable mesh file; the message carries the
    offending line number or the reason the file cannot be read."""


class TriMesh:
    """Immutable conforming triangulation of a polygonal domain.

    Parameters
    ----------
    vertices : array_like, shape (n_vertices, 2)
    cells : array_like, shape (n_cells, 3)
        Vertex index triples.  Clockwise cells are reoriented; degenerate
        or overlapping cells, an edge shared by more than two cells, a
        mesh that is not edge-connected, one without cells and a vertex
        that no cell uses raise :class:`MeshError`.
    """

    def __init__(self, vertices, cells):
        vertices = np.ascontiguousarray(vertices, float)
        cells = np.ascontiguousarray(cells, np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError("vertices must have shape (n, 2)")
        if cells.ndim != 2 or cells.shape[1] != 3:
            raise MeshError("cells must have shape (m, 3)")
        if not np.all(np.isfinite(vertices)):
            raise MeshError("vertex coordinates must be finite")
        if cells.size and (cells.min() < 0 or cells.max() >= len(vertices)):
            raise MeshError("cell vertex index out of range")
        repeats = cells != np.roll(cells, 1, axis=1)
        if not repeats.all():
            k = int(np.argmin(repeats.all(axis=1)))
            raise MeshError(f"cell {k} repeats a vertex index")

        def _signed_area(p):
            u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
            return 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])

        # orientation and signed area
        p = vertices[cells]
        signed = _signed_area(p)
        flip = signed < 0.0
        if np.any(flip):
            cells = cells.copy()
            cells[flip] = cells[flip][:, [0, 2, 1]]
            p = vertices[cells]
            signed = _signed_area(p)
        if np.any(signed <= 0.0):
            k = int(np.argmin(signed))
            raise MeshError(f"cell {k} is degenerate (area {signed[k]:g})")

        self.vertices = vertices
        self.cells = cells
        self.cell_areas = signed
        edge_len = np.stack([
            np.linalg.norm(p[:, 2] - p[:, 1], axis=1),
            np.linalg.norm(p[:, 0] - p[:, 2], axis=1),
            np.linalg.norm(p[:, 1] - p[:, 0], axis=1),
        ], axis=1)
        self.cell_diameters = edge_len.max(axis=1)

        # the affine map of each cell: columns of B are P1 - P0, P2 - P0
        B = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
        det = B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]
        inv = np.empty_like(B)
        inv[:, 0, 0] = B[:, 1, 1] / det
        inv[:, 0, 1] = -B[:, 0, 1] / det
        inv[:, 1, 0] = -B[:, 1, 0] / det
        inv[:, 1, 1] = B[:, 0, 0] / det
        # gradients of the three barycentric coordinates, constant per cell
        self.bary_grads = np.einsum("kji,lj->kli", inv, REF_GRADS)

        self._build_edges()
        self._check_edge_connected()
        if not len(cells):
            raise MeshError("mesh has no cells")
        unused = np.bincount(cells.ravel(), minlength=len(vertices)) == 0
        if unused.any():
            raise MeshError(f"vertex {int(np.argmax(unused))} is in no cell")

    # -- construction helpers ------------------------------------------------

    def _build_edges(self) -> None:
        m, n_v = len(self.cells), len(self.vertices)
        # half-edge 3k + i: the edge opposite local vertex i of cell k
        local = self.cells[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2)
        key = local.min(axis=1) * n_v + local.max(axis=1)
        order = np.argsort(key, kind="stable")   # cells ascending per edge
        first = np.flatnonzero(np.diff(key[order], prepend=-1))
        n_e = len(first)
        half_left = order[first]             # each edge's first half-edge
        edges = np.column_stack(np.divmod(key[half_left], n_v))
        count = np.diff(first, append=len(key))
        if count.max(initial=0) > 2:
            e = int(np.argmax(count > 2))
            raise MeshError(f"edge {tuple(edges[e].tolist())} shared by more "
                            "than two cells")
        inverse = np.empty(len(key), np.int64)
        inverse[order] = np.repeat(np.arange(n_e), count)
        self.edge_vertices = edges
        self.cell_edges = inverse.reshape(m, 3)

        # left cell = smaller index when interior
        interior = count == 2
        edge_cells = np.full((n_e, 2), -1, np.int64)
        edge_cells[:, 0] = half_left // 3
        half_right = order[first[interior] + 1]
        edge_cells[interior, 1] = half_right // 3
        self.edge_cells = edge_cells
        self.is_boundary_edge = ~interior
        self.interior_edges = np.nonzero(interior)[0]

        # counterclockwise cells on opposite sides of their shared edge run
        # along it in opposite directions
        forward = local[:, 0] < local[:, 1]
        folded = forward[half_left[interior]] == forward[half_right]
        if folded.any():
            e = int(self.interior_edges[np.argmax(folded)])
            raise MeshError(
                f"cells {tuple(edge_cells[e].tolist())} overlap: both lie on "
                f"one side of their shared edge {tuple(edges[e].tolist())}")

        # oriented unit normals (left -> right, or outward on the boundary)
        pa = self.vertices[edges[:, 0]]
        pb = self.vertices[edges[:, 1]]
        tang = pb - pa
        self.edge_lengths = np.linalg.norm(tang, axis=1)
        normal = np.stack([tang[:, 1], -tang[:, 0]], axis=1) / self.edge_lengths[:, None]

        centroids = self.vertices[self.cells].mean(axis=1)
        ref = np.where(interior[:, None],
                       centroids[edge_cells[:, 1]] - centroids[edge_cells[:, 0]],
                       0.5 * (pa + pb) - centroids[edge_cells[:, 0]])
        sign = np.where((normal * ref).sum(axis=1) < 0.0, -1.0, 1.0)
        self.edge_normals = normal * sign[:, None]

        bmask = np.zeros(len(self.vertices), bool)
        bmask[edges[self.is_boundary_edge].ravel()] = True
        self.is_boundary_vertex = bmask

    def _check_edge_connected(self) -> None:
        """Cells joined across interior edges must form one component."""
        m = len(self.cells)
        left, right = self.edge_cells[self.interior_edges].T
        adjacency = sp.coo_matrix((np.ones(len(left)), (left, right)),
                                  shape=(m, m))
        if m > 1 and connected_components(adjacency, directed=False)[0] > 1:
            raise MeshError(
                "mesh is not edge-connected (cells touching at most at "
                "vertices are not conforming)")

    # -- queries ---------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def h_max(self) -> float:
        return float(self.cell_diameters.max())

    @cached_property
    def non_obtuse(self) -> bool:
        """Whether no cell has an obtuse angle: every pairwise product of
        a cell's barycentric gradients is nonpositive.  The diffusive
        scheme's gradient terms are certified only on such meshes."""
        g = self.bary_grads
        worst = max(np.einsum("kj,kj->k", g[:, i], g[:, j]).max()
                    for i, j in ((0, 1), (0, 2), (1, 2)))
        return bool(worst <= 1e-14)

    def cells_with_interior_vertex(self) -> np.ndarray:
        """Per-cell flag: at least one vertex off the boundary."""
        return ~self.is_boundary_vertex[self.cells].all(axis=1)


def structured_unit_square(n: int) -> TriMesh:
    """Uniform mesh of [0,1]^2: n x n squares, each split along the same
    diagonal into two right isoceles (hence non-obtuse) triangles."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    side = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(side, side, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    j, i = np.divmod(np.arange(n * n), n)
    a = j * (n + 1) + i                     # lower-left corner of square
    b, c, d = a + 1, a + n + 2, a + n + 1
    cells = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    return TriMesh(vertices, cells)


def save_mesh(mesh: TriMesh, path) -> None:
    """Write the ASCII mesh format (see :func:`load_mesh`)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("tri-mesh 2d v1\n")
        fh.write(f"{mesh.n_vertices} {mesh.n_cells}\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.17g} {y:.17g}\n")
        for a, b, c in mesh.cells:
            fh.write(f"{a} {b} {c}\n")


def load_mesh(path) -> TriMesh:
    """Read the ASCII mesh format.

    Line 1 is the signature ``tri-mesh 2d v1``, line 2 holds the vertex
    and cell counts, then one ``x y`` pair per vertex and one 0-based
    ``i j k`` triple per cell.  ``#`` starts a comment.  Clockwise cells
    are reoriented; nonconforming topology raises :class:`MeshError`,
    and a file that cannot be read as ASCII text
    :class:`MeshFormatError`.
    """
    rows = []
    try:
        with open(path, encoding="ascii") as fh:
            for ln, raw in enumerate(fh, start=1):
                text = raw.split("#", 1)[0].strip()
                if text:
                    rows.append((ln, text))
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshFormatError(f"cannot read mesh file {path}: {exc}") from exc
    if not rows:
        raise MeshFormatError("line 1: empty mesh file")
    ln, sig = rows[0]
    if sig != "tri-mesh 2d v1":
        raise MeshFormatError(f"line {ln}: expected signature 'tri-mesh 2d v1'")
    if len(rows) < 2:
        raise MeshFormatError(f"line {ln}: missing count line")
    ln, counts = rows[1]
    parts = counts.split()
    if len(parts) != 2:
        raise MeshFormatError(f"line {ln}: expected '<n_vertices> <n_cells>'")
    try:
        n_v, n_c = int(parts[0]), int(parts[1])
    except ValueError:
        raise MeshFormatError(f"line {ln}: counts must be integers") from None
    if n_v < 0 or n_c < 0:
        raise MeshFormatError(f"line {ln}: counts must not be negative")
    if len(rows) != 2 + n_v + n_c:
        raise MeshFormatError(
            f"line {rows[-1][0]}: expected {n_v} vertex and {n_c} cell lines, "
            f"found {len(rows) - 2}")
    vertices = np.empty((n_v, 2))
    for r, (ln, text) in enumerate(rows[2:2 + n_v]):
        parts = text.split()
        if len(parts) != 2:
            raise MeshFormatError(f"line {ln}: expected 'x y'")
        try:
            vertices[r] = (float(parts[0]), float(parts[1]))
        except ValueError:
            raise MeshFormatError(f"line {ln}: bad coordinate") from None
    cells = np.empty((n_c, 3), np.int64)
    for r, (ln, text) in enumerate(rows[2 + n_v:]):
        parts = text.split()
        if len(parts) != 3:
            raise MeshFormatError(f"line {ln}: expected 'i j k'")
        try:
            cells[r] = (int(parts[0]), int(parts[1]), int(parts[2]))
        except ValueError:
            raise MeshFormatError(f"line {ln}: bad vertex index") from None
    try:
        mesh = TriMesh(vertices, cells)
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from None
    if not mesh.cells_with_interior_vertex().all():
        warnings.warn(
            "some cells have all vertices on the boundary; the Taylor-Hood "
            "pressure pairing may lose stability on this mesh",
            stacklevel=2)
    return mesh
