"""Conforming triangular meshes with the adjacency data the schemes need.

A :class:`TriMesh` stores vertices and counterclockwise cells and derives
everything else at construction time: per-cell affine maps onto the
reference triangle, areas, diameters and inradii, a global edge
enumeration with cell adjacency, oriented unit normals on every edge, and
boundary flags.  Meshes are immutable once built.

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
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MeshError",
    "MeshFormatError",
    "MeshAudit",
    "TriMesh",
    "structured_unit_square",
    "audit_mesh",
    "save_mesh",
    "load_mesh",
]

#: reference gradients of the barycentric coordinates, row l = grad_xi lambda_l
REF_GRADS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


class MeshError(Exception):
    """Invalid mesh topology or geometry."""


class MeshFormatError(MeshError):
    """Malformed mesh file; message carries the offending line number."""


@dataclass(frozen=True)
class MeshAudit:
    """Mesh quality summary.

    ``non_obtuse`` is the discrete gradient condition (all pairwise
    barycentric gradient products nonpositive), which is what the lumped
    scheme's certified entropy terms rely on.
    """

    non_obtuse: bool
    max_regularity_ratio: float
    quasi_uniform_ratio: float
    min_area: float


class TriMesh:
    """Immutable conforming triangulation of a polygonal domain.

    Parameters
    ----------
    vertices : array_like, shape (n_vertices, 2)
    cells : array_like, shape (n_cells, 3)
        Vertex index triples.  Clockwise cells are reoriented; degenerate
        cells raise :class:`MeshError`.
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
        for k, (a, b, c) in enumerate(cells):
            if a == b or b == c or a == c:
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
        self.cell_inradii = 2.0 * signed / edge_len.sum(axis=1)

        # affine maps: columns of B are P1 - P0, P2 - P0
        B = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
        self.affine_B = B
        det = B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]
        inv = np.empty_like(B)
        inv[:, 0, 0] = B[:, 1, 1] / det
        inv[:, 0, 1] = -B[:, 0, 1] / det
        inv[:, 1, 0] = -B[:, 1, 0] / det
        inv[:, 1, 1] = B[:, 0, 0] / det
        self.affine_Binv = inv
        # gradients of the three barycentric coordinates, constant per cell
        self.bary_grads = np.einsum("kji,lj->kli", inv, REF_GRADS)

        self._build_edges()
        self._check_edge_connected()

    # -- construction helpers ------------------------------------------------

    def _build_edges(self) -> None:
        m = len(self.cells)
        local = self.cells[:, [[1, 2], [2, 0], [0, 1]]]  # edge opposite vertex i
        pairs = np.sort(local.reshape(-1, 2), axis=1)
        edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
        self.edge_vertices = edges
        self.cell_edges = inverse.reshape(m, 3)

        n_e = len(edges)
        edge_cells = np.full((n_e, 2), -1, np.int64)
        count = np.zeros(n_e, np.int64)
        for k in range(m):
            for e in self.cell_edges[k]:
                if count[e] == 2:
                    raise MeshError(
                        f"edge {tuple(self.edge_vertices[e])} shared by more "
                        "than two cells")
                edge_cells[e, count[e]] = k
                count[e] += 1
        # left cell = smaller index when interior
        interior = count == 2
        swap = interior & (edge_cells[:, 0] > edge_cells[:, 1])
        edge_cells[swap] = edge_cells[swap][:, ::-1]
        self.edge_cells = edge_cells
        self.is_boundary_edge = ~interior
        self.interior_edges = np.nonzero(interior)[0]

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
        sign = np.where(np.einsum("ej,ej->e", normal, ref) < 0.0, -1.0, 1.0)
        self.edge_normals = normal * sign[:, None]

        bmask = np.zeros(len(self.vertices), bool)
        bmask[edges[self.is_boundary_edge].ravel()] = True
        self.is_boundary_vertex = bmask

    def _check_edge_connected(self) -> None:
        m = len(self.cells)
        if m <= 1:
            return
        seen = np.zeros(m, bool)
        stack = [0]
        seen[0] = True
        while stack:
            k = stack.pop()
            for e in self.cell_edges[k]:
                for kk in self.edge_cells[e]:
                    if kk >= 0 and not seen[kk]:
                        seen[kk] = True
                        stack.append(kk)
        if not seen.all():
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
    def n_edges(self) -> int:
        return len(self.edge_vertices)

    @property
    def h_max(self) -> float:
        return float(self.cell_diameters.max())

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

    def vid(i, j):
        return j * (n + 1) + i

    cells = []
    for j in range(n):
        for i in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            cells.append((a, b, c))
            cells.append((a, c, d))
    return TriMesh(vertices, np.array(cells, np.int64))


def audit_mesh(mesh: TriMesh) -> MeshAudit:
    """Quality report: obtuseness, regularity, quasi-uniformity, min area."""
    if np.any(mesh.cell_areas <= 0.0):
        k = int(np.argmin(mesh.cell_areas))
        raise MeshError(f"cell {k} is degenerate (area {mesh.cell_areas[k]:g})")
    g = mesh.bary_grads
    worst = max(
        np.einsum("kj,kj->k", g[:, i], g[:, j]).max()
        for i in range(3) for j in range(3) if i < j)
    return MeshAudit(
        non_obtuse=bool(worst <= 1e-14),
        max_regularity_ratio=float((mesh.cell_diameters / mesh.cell_inradii).max()),
        quasi_uniform_ratio=float(mesh.cell_diameters.max() / mesh.cell_diameters.min()),
        min_area=float(mesh.cell_areas.min()),
    )


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
    are reoriented; nonconforming topology raises :class:`MeshError`.
    """
    rows = []
    with open(path, encoding="ascii") as fh:
        for ln, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                rows.append((ln, text))
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
