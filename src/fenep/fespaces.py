"""Finite element spaces, quadrature, lumped vertex weights and assembly.

The elements are data.  ``_FAMILIES`` gives each family of scalar shape
functions as the mesh entities its local functions attach to and the
terms of each function, monomials in the barycentric coordinates.
``_SPACES`` gives each space as (family, direction) blocks; a direction
is a coordinate axis, the edge normal (the reduced-quadratic bubbles)
or none (a scalar space).  :class:`FESpace` numbers the dofs of every
kind and evaluates values and derivatives from the same terms.
Assembly therefore runs one code path over ``(scalar factor,
direction)`` pairs; the operators below never special-case an element.

Assembly works on whole arrays of cells, never cell by cell.  Each
operator contracts a small reference tensor, tabulated once on the
reference triangle, with the per-cell geometry (barycentric gradients
and areas) in one matrix product or a few broadcast products; vectors are
summed into dofs with ``np.bincount`` and matrices through one COO
triple list.  A velocity matrix stores only entries whose two direction
vectors are not orthogonal (``dirs_i . dirs_j != 0``), which halves the
coordinate-direction elements, and no entry that sums to exactly zero.
The convection, the one velocity operator rebuilt on every time step,
reads the tables of a :class:`FixedPattern` made once per run: the skew
part of its reference tensor, the direction-gradient products and
scales of the cells, and the slots of its upper local pairs.  A step
then costs a gather of the transport coefficients, one small matrix
product per block of cells and a scatter into the pattern's data
array.  The gradient operator
``G = integral( psi grad(phi) )`` against a scalar test space is
assembled once per scheme and serves three forms by matrix products:
the tested velocity gradient ``G u``, the stress coupling ``G^T W`` and,
in its trace rows, the divergence.

Scalar fields (pressure, stress components, the auxiliary trace) use
piecewise constants or continuous piecewise linears.  Tensor fields are
stored component-blocked as ``[xx | xy | yy]`` with each block a scalar
field, which is what lets the implicit stress solves share one scalar
matrix across components.

Quadrature rules are symmetric tabulated rules up to degree 5 and
collapsed-square Gauss product rules beyond; every rule is validated in
the test suite against closed-form monomial integrals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .meshing import TriMesh

__all__ = [
    "QuadratureRule",
    "triangle_rule",
    "gauss01",
    "build_space",
    "FESpace",
    "VELOCITY_KINDS",
    "lumped_weights",
    "velocity_mass",
    "velocity_stiffness",
    "FixedPattern",
    "compressed_pattern",
    "velocity_pattern",
    "convection_matrix",
    "gradient_matrix",
    "gradient_trace",
    "velocity_load",
    "sample_cells",
    "cell_mean_velocity",
    "evaluate_velocity",
    "scalar_stiffness",
    "pressure_integral_vector",
]


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadratureRule:
    """Barycentric points and weights; weights sum to 1 and are scaled by
    the cell area at use, so ``integral = area * sum(w * f(x))``."""

    points: np.ndarray
    weights: np.ndarray


def _orbit(a: float, b: float | None = None) -> list[tuple]:
    """The point (a, b, b) and its rotations; b is (1 - a) / 2 if not given."""
    b = 0.5 * (1.0 - a) if b is None else b
    return [(a, b, b), (b, a, b), (b, b, a)]


_R15 = np.sqrt(15.0)

_TABULATED: dict[int, tuple[list, list]] = {
    1: ([(1 / 3, 1 / 3, 1 / 3)], [1.0]),
    2: (_orbit(2 / 3), [1 / 3] * 3),
    4: (_orbit(0.108103018168070) + _orbit(0.816847572980459),
        [0.223381589678011] * 3 + [0.109951743655322] * 3),
    # Radon's seven-point rule in closed form: orbits of b = (6 -+ sqrt 15)/21
    5: ([(1 / 3, 1 / 3, 1 / 3)]
        + _orbit((9 + 2 * _R15) / 21, (6 - _R15) / 21)
        + _orbit((9 - 2 * _R15) / 21, (6 + _R15) / 21),
        [9 / 40] + [(155 - _R15) / 1200] * 3 + [(155 + _R15) / 1200] * 3),
}


def gauss01(n: int):
    """Gauss-Legendre nodes/weights on [0, 1] (weights sum to 1)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def triangle_rule(degree: int) -> QuadratureRule:
    """Smallest shipped rule exact for polynomials of the given degree."""
    if degree <= 5:
        for deg in (1, 2, 4, 5):
            if deg >= degree:
                pts, w = _TABULATED[deg]
                return QuadratureRule(np.array(pts), np.array(w))
    # collapsed-square product rule: x = a, y = b (1 - a), jacobian (1 - a)
    n = (degree + 3) // 2
    a, wa = gauss01(n)
    b, wb = gauss01(n)
    A, B = np.meshgrid(a, b, indexing="ij")
    WA, WB = np.meshgrid(wa, wb, indexing="ij")
    x = A.ravel()
    y = (B * (1.0 - A)).ravel()
    w = 2.0 * (WA * WB * (1.0 - A)).ravel()
    pts = np.column_stack([1.0 - x - y, x, y])
    return QuadratureRule(pts, w)


# ---------------------------------------------------------------------------
# elements as data

#: family -> (the mesh entities its local functions attach to, in dof
#: order: three per cell for vertices and edges, edge i opposite vertex i,
#: one for the cell; each function as terms (c, a, b, d), meaning
#: c * lam0^a lam1^b lam2^d)
_FAMILIES = {
    "p0": (("cell",), [[(1, 0, 0, 0)]]),
    "p1": (("vertex",), [[(1, 1, 0, 0)], [(1, 0, 1, 0)], [(1, 0, 0, 1)]]),
    "p2": (("vertex", "edge"), [
        [(2, 2, 0, 0), (-1, 1, 0, 0)], [(2, 0, 2, 0), (-1, 0, 1, 0)],
        [(2, 0, 0, 2), (-1, 0, 0, 1)],
        [(4, 0, 1, 1)], [(4, 1, 0, 1)], [(4, 1, 1, 0)]]),
    # linear plus the cubic bubble: the scalar factor of the mini element
    "p1b": (("vertex", "cell"), [
        [(1, 1, 0, 0)], [(1, 0, 1, 0)], [(1, 0, 0, 1)], [(27, 1, 1, 1)]]),
    "edge_bubble": (("edge",),
                    [[(1, 0, 1, 1)], [(1, 1, 0, 1)], [(1, 1, 1, 0)]]),
}

#: kind -> (family, direction) blocks, numbered block after block; a
#: direction is "x", "y", "normal" (the global unit normal of the
#: function's edge) or None in a scalar space
_SPACES = {
    "velocity_p2": (("p2", "x"), ("p2", "y")),
    "velocity_p2_reduced": (("p1", "x"), ("p1", "y"),
                            ("edge_bubble", "normal")),
    "velocity_mini": (("p1b", "x"), ("p1b", "y")),
    "velocity_p1": (("p1", "x"), ("p1", "y")),
    "pressure_p0": (("p0", None),),
    "pressure_p1": (("p1", None),),
}

VELOCITY_KINDS = tuple(k for k, blocks in _SPACES.items() if blocks[0][1])

_AXES = {"x": (1.0, 0.0), "y": (0.0, 1.0)}


def _derivative(function, j):
    """Terms of the derivative of ``function`` in ``lam_j``; one that
    vanishes is the term ``0 * 1``, which evaluates to +0.0."""
    return [(c * e[j], *e[:j], e[j] - 1, *e[j + 1:])
            for c, *e in function if e[j]] or [(0, 0, 0, 0)]


#: family -> the terms of the barycentric derivatives of its functions,
#: function after function and lam0, lam1, lam2 within each
_DERIVATIVES = {family: [_derivative(f, j) for f in terms for j in range(3)]
                for family, (_, terms) in _FAMILIES.items()}


def _tabulate(functions):
    """Arrays ``(coef, exps, starts)`` of functions given as term lists:
    function i owns the terms from ``starts[i]`` to ``starts[i + 1]``."""
    flat = np.array([t for f in functions for t in f], float)
    starts = np.cumsum([0] + [len(f) for f in functions[:-1]])
    return flat[:, 0], flat[:, 1:].astype(int), starts


def _evaluate(table, lam):
    """Values (..., n_functions) of tabulated functions at ``lam`` (..., 3):
    each term its coefficient times its factors in coordinate order."""
    coef, exps, starts = table
    lam = np.asarray(lam, float)
    powers = [np.ones_like(lam)]
    for _ in range(exps.max()):
        powers.append(powers[-1] * lam)
    powers = np.stack(powers, axis=-1)                  # (..., 3, degree + 1)
    terms = coef * powers[..., 0, exps[:, 0]]
    for i in (1, 2):
        terms *= powers[..., i, exps[:, i]]
    return np.add.reduceat(terms, starts, axis=-1)


class FESpace:
    """The space of one kind of :data:`_SPACES` on a mesh: each local
    function is a scalar factor of a family times a constant direction.

    Attributes
    ----------
    cell_dofs : (n_cells, nloc) global dof indices
    cell_dirs : (n_cells, nloc, 2) direction of each local dof; None in a
        scalar space
    dirichlet_mask : (n_dofs,) True on boundary-attached dofs
    cell_local : (n_dofs,) True on dofs attached to a cell (the mini
        bubbles, the P0 constants): each lives on that one cell alone
    degree : polynomial degree of the scalar factors
    """

    def __init__(self, mesh: TriMesh, kind: str):
        self.mesh = mesh
        attached = {"vertex": (mesh.cells, mesh.is_boundary_vertex),
                    "edge": (mesh.cell_edges, mesh.is_boundary_edge),
                    "cell": (np.arange(mesh.n_cells)[:, None],
                             np.zeros(mesh.n_cells, bool))}
        functions, derivatives, dofs, boundary, in_cell, dirs = (
            [], [], [], [], [], [])
        self.n_dofs = 0
        for family, direction in _SPACES[kind]:
            entities, terms = _FAMILIES[family]
            functions += terms
            derivatives += _DERIVATIVES[family]
            for entity in entities:
                local, on_boundary = attached[entity]
                dofs.append(self.n_dofs + local)
                boundary.append(on_boundary)
                in_cell.append(np.full(len(on_boundary), entity == "cell"))
                self.n_dofs += len(on_boundary)
                if direction:
                    dirs.append(np.broadcast_to(
                        mesh.edge_normals[local] if direction == "normal"
                        else _AXES[direction], local.shape + (2,)))
        self.cell_dofs = np.hstack(dofs)
        self.dirichlet_mask = np.concatenate(boundary)
        self.cell_local = np.concatenate(in_cell)
        self.cell_dirs = np.concatenate(dirs, axis=1) if dirs else None
        self.nloc = len(functions)
        self.degree = max(sum(e) for f in functions for _, *e in f)
        self._val = _tabulate(functions)
        self._dbary = _tabulate(derivatives)

    def val(self, lam) -> np.ndarray:
        """Scalar factors of the local dofs at barycentric points ``lam``
        (..., 3), shape (..., nloc)."""
        return _evaluate(self._val, lam)

    def dbary(self, lam) -> np.ndarray:
        """Their barycentric derivatives, shape (..., nloc, 3)."""
        d = _evaluate(self._dbary, lam)
        return d.reshape(d.shape[:-1] + (self.nloc, 3))

    def vertex_values(self, coeffs) -> np.ndarray:
        """Velocity at the mesh vertices, shape (n_vertices, 2)."""
        out = np.empty((self.mesh.n_vertices, 2))
        out[self.mesh.cells] = evaluate_velocity(self.mesh, self, coeffs,
                                                 np.eye(3))
        return out


def build_space(mesh: TriMesh, kind: str) -> FESpace:
    """Construct the degree-of-freedom map for one of the shipped spaces.

    ``velocity_p1`` exists only as the classical unstable negative control
    for the inf-sup test utility; the schemes reject it.
    """
    if kind not in _SPACES:
        raise ValueError(f"unknown space kind {kind!r}")
    return FESpace(mesh, kind)


# ---------------------------------------------------------------------------
# lumped integration


def lumped_weights(mesh: TriMesh) -> np.ndarray:
    """Vertex quadrature weights: w_p = sum of |K|/3 over cells at p."""
    return np.bincount(mesh.cells.ravel(), np.repeat(mesh.cell_areas / 3.0, 3),
                       minlength=mesh.n_vertices)


# ---------------------------------------------------------------------------
# assembly kernels


def _to_csr(cellvals, dofs, n, stored=...):
    """Sum the cell matrices ``cellvals`` (M, nloc, nloc) on the dofs
    ``dofs`` (M, nloc) into an n x n CSR matrix; only the entries flagged
    in ``stored`` enter it."""
    rows = np.broadcast_to(dofs[:, :, None], cellvals.shape)
    cols = np.swapaxes(rows, 1, 2)
    return sp.csr_matrix(
        (cellvals[stored].ravel(), (rows[stored].ravel(), cols[stored].ravel())),
        shape=(n, n))


def _velocity_csr(v: FESpace, cellvals):
    """Assembled cell matrices ``cellvals_ij dirs_i . dirs_j`` of ``v``.

    Only nonzeros are stored: entries of orthogonal direction pairs are
    never assembled, and sums that cancel exactly are dropped.
    """
    dd = _dir_products(v.cell_dirs)
    mat = _to_csr(dd * cellvals, v.cell_dofs, v.n_dofs, dd != 0.0)
    mat.eliminate_zeros()
    return mat


def _weighted_products(a, b, weights):
    """``sum_q weights_q a_q[..., :, None] b_q[..., None, :]`` over the
    leading axis q; exactly symmetric when ``a`` is ``b``."""
    prod = a[..., :, None] * b[..., None, :]
    return (prod * weights.reshape((-1,) + (1,) * (prod.ndim - 1))).sum(axis=0)


def velocity_mass(mesh: TriMesh, v: FESpace, degree: int | None = None):
    rule = triangle_rule(degree if degree is not None else 2 * v.degree)
    sval = v.val(rule.points)                            # (nq, nloc)
    s2 = _weighted_products(sval, sval, rule.weights)
    return _velocity_csr(v, s2 * mesh.cell_areas[:, None, None])


def velocity_stiffness(mesh: TriMesh, v: FESpace):
    """integral( grad(phi_i) : grad(phi_j) ) through the reference tensor
    ``R[a, b] = integral( d_a s_i d_b s_j )`` of barycentric derivatives:
    a cell's matrix is ``sum_ab (grad(lambda_a) . grad(lambda_b)) R[a, b]``,
    one matrix product over all cells."""
    rule = triangle_rule(max(2 * v.degree - 2, 1))
    dbar = np.swapaxes(v.dbary(rule.points), 1, 2)       # (nq, 3, nloc)
    ref = _weighted_products(dbar[:, :, None], dbar[:, None, :],
                             rule.weights)            # (3, 3, nloc, nloc)
    g = mesh.bary_grads
    gram = g @ np.swapaxes(g, 1, 2)                       # (M, 3, 3)
    e = (gram.reshape(-1, 9) @ ref.reshape(9, -1)).reshape(-1, v.nloc, v.nloc)
    # the product sums (i, j) and (j, i) in different orders: averaging
    # the two makes the matrix exactly symmetric
    e = (e + np.swapaxes(e, 1, 2)) * (0.5 * mesh.cell_areas[:, None, None])
    return _velocity_csr(v, e)


def evaluate_velocity(mesh: TriMesh, v: FESpace, coeffs, lam) -> np.ndarray:
    """Velocity values at barycentric points, shape (n_cells, nq, 2)."""
    sval = v.val(lam)                                    # (nq, nloc)
    c = np.asarray(coeffs, float)[v.cell_dofs]           # (M, nloc)
    return sval @ (c[:, :, None] * v.cell_dirs)


@dataclass(frozen=True)
class FixedPattern:
    """CSR pattern of the convection on a set of dofs, with the tables
    its per-step fill reads; all are built once, by :func:`velocity_pattern`.

    A convection cell matrix is skew, so only its upper local pairs
    ``(i, l)``, ``i < l``, whose direction vectors are not orthogonal on
    some cell are computed: P of them.  ``slots[k, p]`` holds the
    positions in the data array of entries ``(i, l)`` and ``(l, i)`` of
    pair p on cell k.  Entries outside the kept dofs, and entries whose
    direction vectors are orthogonal on that cell, go to the dump slot
    ``nnz`` past the end.

    ``tensor[(j, a), p] = integral( s_j (s_i d_a s_l - s_l d_a s_i) )``
    is the skew part of the reference tensor of the scalar factors s,
    ``d_a`` the derivative in the barycentric coordinate ``lambda_a``;
    ``dir_grads[k, j, a] = dirs_kj . grad(lambda_a)`` and ``scale[k, p]
    = |K| / 2 dirs_ki . dirs_kl`` are the geometry of the cells.
    """

    slots: np.ndarray        # (n_cells, P, 2) int32
    indices: np.ndarray      # int32 column of each stored entry, row-sorted
    indptr: np.ndarray
    tensor: np.ndarray       # (3 nloc, P)
    dir_grads: np.ndarray    # (n_cells, nloc, 3)
    scale: np.ndarray        # (n_cells, P)


def _dir_products(dirs):
    """``dirs_i . dirs_j`` of each cell, (M, nloc, nloc), exactly symmetric."""
    d_x, d_y = dirs[:, :, None, 0], dirs[:, :, None, 1]
    return d_x * np.swapaxes(d_x, 1, 2) + d_y * np.swapaxes(d_y, 1, 2)


def compressed_pattern(major, minor, n: int):
    """The compressed pattern of an n x n matrix with entries at the index
    pairs ``(major, minor)``: the row pairs of CSR, the column pairs of CSC.

    Returns int32 arrays ``(slots, indices, indptr)``: ``slots[e]`` is
    the position of pair e in the data array (repeated pairs share one),
    ``indices`` the minor index of each stored entry, sorted within each
    major line, and ``indptr`` where each line starts.
    """
    key, slots = np.unique(major * n + minor, return_inverse=True)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(key // n,
                                                        minlength=n))])
    return (slots.astype(np.int32), (key % n).astype(np.int32),
            indptr.astype(np.int32))


def velocity_pattern(v: FESpace, keep) -> FixedPattern:
    """The convection's pattern and tables for ``v`` on the dofs ``keep``.

    ``keep`` is an increasing array of dof indices (the free dofs of a
    scheme, or every dof); row and column r of the matrix belong to dof
    ``keep[r]``.
    """
    mesh, n = v.mesh, len(keep)
    dd = _dir_products(v.cell_dirs)
    first, second = np.nonzero(np.triu((dd != 0.0).any(axis=0), 1))
    dd = dd[:, first, second]           # (M, P); the full products go
    pos = np.full(v.n_dofs, -1, np.int64)
    pos[keep] = np.arange(n)
    loc = pos[v.cell_dofs]                                # (M, nloc)
    rows = np.stack([loc[:, first], loc[:, second]], axis=-1)   # (M, P, 2)
    cols = rows[..., ::-1]
    stored = (rows >= 0) & (cols >= 0) & (dd != 0.0)[..., None]
    inverse, indices, indptr = compressed_pattern(
        rows[stored], cols[stored], n)
    slots = np.full(rows.shape, len(indices), np.int32)
    slots[stored] = inverse
    rule = triangle_rule(3 * v.degree - 1)
    sval = v.val(rule.points)                            # (nq, nloc)
    # ref[j, a, i, l] = integral( s_j s_i d_a s_l )
    ref = np.einsum("q,qj,qi,qla->jail", rule.weights, sval, sval,
                    v.dbary(rule.points), optimize=True)
    tensor = ref[..., first, second] - ref[..., second, first]
    return FixedPattern(
        slots, indices, indptr, tensor.reshape(3 * v.nloc, -1),
        v.cell_dirs @ np.swapaxes(mesh.bary_grads, 1, 2),
        dd * (0.5 * mesh.cell_areas[:, None]))


#: cells per block of the convection fill (bounds its temporaries)
_CHUNK = 256


def convection_matrix(mesh: TriMesh, v: FESpace, w_coeffs,
                      pattern: FixedPattern):
    """Skew-symmetrized convection with a frozen transport velocity w:

        c(w; u, phi) = 1/2 * integral( ((w.grad)u).phi - ((w.grad)phi).u )

    on the dofs of ``pattern`` (see :func:`velocity_pattern`).  With
    ``w = sum_j c_j s_j dirs_j`` on a cell, the skew part of its matrix
    is the reference tensor contracted with ``c_j dirs_j .
    grad(lambda_a)`` (Kirby and Logg, *ACM TOMS* 32, 2006): a gather of
    the coefficients, one product with the tables of the pattern and a
    scatter, block by block of cells, so the only temporaries are one
    block's pair values and one data array.  Each pair value enters its
    entry (i, l) as +v and (l, i) as -v, side by side in the summed
    order, so C + C^T = 0 holds exactly.
    """
    w_cells = np.asarray(w_coeffs, float)[v.cell_dofs]   # (M, nloc)
    nnz, n = len(pattern.indices), len(pattern.indptr) - 1
    data = np.zeros(nnz + 1)
    for lo in range(0, mesh.n_cells, _CHUNK):
        k = slice(lo, lo + _CHUNK)
        cell_data = w_cells[k, :, None] * pattern.dir_grads[k]
        vals = (cell_data.reshape(len(cell_data), -1) @ pattern.tensor
                ) * pattern.scale[k]
        data += np.bincount(pattern.slots[k].ravel(),
                            np.stack([vals, -vals], axis=-1).ravel(),
                            minlength=nnz + 1)
    return sp.csr_matrix((data[:nnz], pattern.indices, pattern.indptr),
                         shape=(n, n))


#: a gradient entry within this share of the magnitudes summed into its
#: column is the rounding residue of a moment that vanishes exactly
RESIDUE = 8 * np.finfo(float).eps


def gradient_matrix(mesh: TriMesh, v: FESpace, s: FESpace):
    """G[4n + 2a + b, i] = integral( psi_n * d_b (phi_i)_a ), (4 n_s, n_u).

    The moments of the velocity gradient against the scalar test space
    ``s``, one flattened 2x2 block per test function:
    ``(G @ u).reshape(-1, 2, 2)`` are the tested gradients of ``u``, and
    ``G.T @ W.reshape(-1)`` is the coupling ``integral( W : grad(phi_i) )``
    of a tensor field ``W = sum_n W_n psi_n`` given as full (n_s, 2, 2)
    matrices.  The trace rows (:func:`gradient_trace`) are the
    divergence matrix.  Only nonzeros are stored: a local velocity dof
    enters the components its direction vector has, and the moments
    that vanish exactly, on every cell or across the cells of a test
    function, are dropped.  Their sums leave residue of up to 1e-16 of
    the magnitudes of the terms summed into the entry's column, where
    the other entries sit at 3e-3 of them or more on the shipped pairs,
    sheared meshes included; an entry within ``RESIDUE`` is dropped.
    """
    rule = triangle_rule(max(v.degree - 1 + s.degree, 1))
    dbar = np.swapaxes(v.dbary(rule.points), 1, 2)      # (nq, 3, nloc)
    sval = s.val(rule.points)[:, None]
    # R[j, n, i] = integral( psi_n d_j s_i ) on the reference cell
    ref = _weighted_products(sval, dbar, rule.weights)
    # mom[k, b, n, i] = integral over cell k of psi_n d_b s_i
    g = mesh.bary_grads * mesh.cell_areas[:, None, None]
    mom = sum(g[:, j, :, None, None] * ref[j] for j in range(3))
    # d_b (phi_i)_a = dirs[i, a] * d_b s_i for each structural (k, i, a)
    k, i, a = np.nonzero(v.cell_dirs)
    vals = v.cell_dirs[k, i, a][:, None, None] * np.moveaxis(
        mom[k, :, :, i], 1, 2)
    rows = (4 * s.cell_dofs[k][:, :, None] + 2 * a[:, None, None]
            + np.arange(2))
    cols = np.broadcast_to(v.cell_dofs[k, i][:, None, None], rows.shape)
    mat = sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                        shape=(4 * s.n_dofs, v.n_dofs)).tocsr()
    # the magnitudes of the terms summed into each column: over its cells,
    # |dirs| times sum_{b, n, j} |g_jb| integral( |psi_n d_j s_i| )
    ref_abs = _weighted_products(np.abs(sval), np.abs(dbar),
                                 rule.weights).sum(axis=1)
    local = ((np.abs(g).sum(axis=2) @ ref_abs)
             * np.abs(v.cell_dirs).sum(axis=2))
    size = np.bincount(v.cell_dofs.ravel(), local.ravel(),
                       minlength=v.n_dofs)
    mat.data[np.abs(mat.data) <= RESIDUE * size[mat.indices]] = 0.0
    mat.eliminate_zeros()
    return mat


def gradient_trace(grad):
    """The trace rows ``G[0::4] + G[3::4]`` of a gradient matrix."""
    return grad[0::4] + grad[3::4]


def sample_cells(mesh: TriMesh, f, lam) -> np.ndarray:
    """Components of a callable ``f(x, y) -> (f_0, f_1, ...)`` at the
    barycentric points ``lam`` of every cell, shape (n_cells, nq, n_comp)."""
    xq = np.asarray(lam, float) @ mesh.vertices[mesh.cells]
    return np.stack(np.broadcast_arrays(*f(xq[..., 0], xq[..., 1])), axis=-1)


def velocity_load(mesh: TriMesh, v: FESpace, f, degree: int = 6):
    """Load vector integral( f . phi_i ) for a callable f(x, y) -> (fx, fy)."""
    rule = triangle_rule(degree)
    sw = v.val(rule.points) * rule.weights[:, None]       # (nq, nloc)
    fq = sample_cells(mesh, f, rule.points)               # (M, nq, 2)
    # f_d against every scalar factor, then dotted with the directions
    fs = np.swapaxes(fq, 1, 2) @ sw                       # (M, 2, nloc)
    cellvals = fs[:, 0] * v.cell_dirs[..., 0] + fs[:, 1] * v.cell_dirs[..., 1]
    return np.bincount(v.cell_dofs.ravel(),
                       (cellvals * mesh.cell_areas[:, None]).ravel(),
                       minlength=v.n_dofs)


def cell_mean_velocity(mesh: TriMesh, v: FESpace, coeffs) -> np.ndarray:
    """Per-cell integral of the velocity, shape (n_cells, 2)."""
    rule = triangle_rule(v.degree)
    u = evaluate_velocity(mesh, v, coeffs, rule.points)
    return np.einsum("kqd,q->kd", u, rule.weights) * mesh.cell_areas[:, None]


def scalar_stiffness(mesh: TriMesh):
    """P1 stiffness matrix integral( grad q . grad r )."""
    g = mesh.bary_grads                                   # (M, 3, 2)
    cellvals = np.einsum("kid,kjd->kij", g, g) * mesh.cell_areas[:, None, None]
    return _to_csr(cellvals, mesh.cells, mesh.n_vertices)


def pressure_integral_vector(mesh: TriMesh, p: FESpace) -> np.ndarray:
    """Vector of integral( psi_q ): the zero-mean weights of the pressure
    and the quadrature of the stress nodes."""
    if p.degree == 0:
        return mesh.cell_areas.copy()
    return lumped_weights(mesh)  # exact for P1
