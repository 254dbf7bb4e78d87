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
summed into dofs with ``np.bincount``.  A matrix of fixed pattern is one
:meth:`Pattern.fill`, a bincount of its cell values into the data array
of a compressed :class:`Pattern`.  Every space, velocity or scalar, has
one CSR pattern, its :class:`SpacePattern`, built from the space's
blocks on first use and kept on the space: the two axis blocks never
couple, so the second repeats the first block's sorted entries, and only
a ``normal`` block is tested edge by edge for directions that are
orthogonal.  It serves the mass and the stiffness, which store no entry
that sums to exactly zero, and, on every time step, the convection.  The
convection also reads :class:`ConvectionTables` made once per space: the
skew part of its reference tensor for the upper local pairs and the
direction-gradient products of the cells.  A step then costs a gather
of the transport coefficients, one matrix product over all cells and
one fill.  The gradient operator ``G = integral( psi grad(phi) )``
against a scalar test space is assembled once per scheme and serves
three forms by matrix products: the tested velocity gradient ``G u``,
the stress coupling ``G^T W`` and, in its trace rows, the divergence.

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
from functools import cache, cached_property

import numpy as np
import scipy.sparse as sp

from .meshing import TriMesh

__all__ = [
    "QuadratureRule",
    "triangle_rule",
    "gauss01",
    "build_space",
    "FESpace",
    "lumped_weights",
    "Pattern",
    "SpacePattern",
    "velocity_mass",
    "velocity_stiffness",
    "ConvectionTables",
    "compressed_pattern",
    "convection_matrix",
    "gradient_matrix",
    "gradient_trace",
    "velocity_load",
    "sample_cells",
    "cell_mean_velocity",
    "evaluate_velocity",
    "pressure_integral_vector",
]


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadratureRule:
    """Barycentric points and weights; weights sum to 1 and are scaled by
    the cell area at use, so ``integral = area * sum(w * f(x))``.  A rule
    is shared by every caller of :func:`triangle_rule`, so it is read-only."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)


def _orbit(a: float, b: float | None = None) -> list[tuple]:
    """The point (a, b, b) and its rotations; b is (1 - a) / 2 if not given."""
    b = 0.5 * (1.0 - a) if b is None else b
    return [(a, b, b), (b, a, b), (b, b, a)]


_R15 = np.sqrt(15.0)

_TABULATED: dict[int, tuple[list, list]] = {
    1: ([(1 / 3, 1 / 3, 1 / 3)], [1.0]),
    2: (_orbit(2 / 3), [1 / 3] * 3),
    # Radon's seven-point rule in closed form: orbits of b = (6 -+ sqrt 15)/21
    5: ([(1 / 3, 1 / 3, 1 / 3)]
        + _orbit((9 + 2 * _R15) / 21, (6 - _R15) / 21)
        + _orbit((9 - 2 * _R15) / 21, (6 + _R15) / 21),
        [9 / 40] + [(155 - _R15) / 1200] * 3 + [(155 + _R15) / 1200] * 3),
}


@cache
def gauss01(n: int):
    """Gauss-Legendre nodes/weights on [0, 1] (weights sum to 1), made
    once per n and shared by every caller, so read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    rule = 0.5 * (x + 1.0), 0.5 * w
    for arr in rule:
        arr.setflags(write=False)
    return rule


@cache
def triangle_rule(degree: int) -> QuadratureRule:
    """Smallest shipped rule exact for polynomials of the given degree,
    made once per degree (a product rule takes about 0.5 ms)."""
    if degree <= max(_TABULATED):
        pts, w = _TABULATED[min(d for d in _TABULATED if d >= degree)]
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
    blocks : the direction of each (family, direction) block of the kind
        and the slice of its local dofs
    pattern : the :class:`SpacePattern` that the mass and the stiffness
        of the space and the convection of a velocity space fill
    convection_tables : the :class:`ConvectionTables` the convection of
        a velocity space reads; it and ``pattern`` are cached properties,
        built from the space on first use and kept
    """

    def __init__(self, mesh: TriMesh, kind: str):
        self.mesh = mesh
        attached = {"vertex": (mesh.cells, mesh.is_boundary_vertex),
                    "edge": (mesh.cell_edges, mesh.is_boundary_edge),
                    "cell": (np.arange(mesh.n_cells)[:, None],
                             np.zeros(mesh.n_cells, bool))}
        functions, derivatives, dofs, boundary, in_cell, dirs = (
            [], [], [], [], [], [])
        self.n_dofs, self.blocks = 0, []
        for family, direction in _SPACES[kind]:
            entities, terms = _FAMILIES[family]
            self.blocks.append((direction, slice(len(functions),
                                                 len(functions) + len(terms))))
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

    @cached_property
    def pattern(self) -> SpacePattern:
        """The :class:`SpacePattern` of the space, from its blocks.

        In a space with a ``normal`` block (reduced P2) every pair of
        local dofs but the ``x``-``y`` ones is sorted by
        :func:`compressed_pattern` where its two directions are not
        orthogonal.  Every other space is one block, or two axis blocks
        of one family whose dofs are those of the first shifted by its
        dof count: only the first block's pairs are sorted, and each
        further block repeats their entries, shifted.
        """
        directions = [d for d, span in self.blocks
                      for _ in range(span.start, span.stop)]
        normal = "normal" in directions
        m = self.blocks[0][1].stop          # local dofs of the first block
        if normal:
            first, second = np.nonzero([[{a, b} != {"x", "y"}
                                         for b in directions]
                                        for a in directions])
        else:
            first, second = np.divmod(np.arange(m * m), m)
        copies = 1 if normal else len(self.blocks)
        n = self.n_dofs // copies
        rows, cols = self.cell_dofs[:, first], self.cell_dofs[:, second]
        kept, weight = np.ones(rows.shape, bool), None
        if normal:
            product = np.einsum("kpd,kpd->kp", self.cell_dirs[:, first],
                                self.cell_dirs[:, second])
            kept = product != 0.0
        block = compressed_pattern(rows[kept], cols[kept], n)
        nnz = len(block.indices)
        shift = np.arange(copies, dtype=np.int32)[:, None]
        table = np.full(rows.shape, nnz, np.intp)         # the dump slot
        table[kept] = block.slots
        if normal:
            weight = np.zeros(nnz + 1)
            weight[block.slots] = product[kept]
        first = (first + m * shift).ravel()
        second = (second + m * shift).ravel()
        pair = np.zeros((self.nloc, self.nloc), int)
        pair[first, second] = np.arange(len(first))
        return SpacePattern(
            np.hstack([table + nnz * c for c in range(copies)]),
            (block.indices + n * shift).ravel(),
            np.append((block.indptr[:-1] + nnz * shift).ravel(),
                      copies * nnz),
            weight, first=first, second=second, mirror=pair[second, first])

    @cached_property
    def convection_tables(self) -> ConvectionTables:
        """The :class:`ConvectionTables` of a velocity space."""
        pat = self.pattern
        upper = np.flatnonzero(pat.first < pat.second)
        first, second = pat.first[upper], pat.second[upper]
        rule = triangle_rule(3 * self.degree - 1)
        sval = self.val(rule.points)                     # (nq, nloc)
        # ref[j, a, i, l] = integral( s_j s_i d_a s_l )
        ref = np.einsum("q,qj,qi,qla->jail", rule.weights, sval, sval,
                        self.dbary(rule.points), optimize=True)
        tensor = ref[..., first, second] - ref[..., second, first]
        return ConvectionTables(
            upper, tensor.reshape(3 * self.nloc, -1),
            self.cell_dirs @ np.swapaxes(self.mesh.bary_grads, 1, 2))

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
# the pattern of a space and its fills


@dataclass(frozen=True)
class Pattern:
    """A fixed compressed pattern of an n x n matrix and the one fill of
    values into it, made by :func:`compressed_pattern`.

    ``slots`` gives the position in the data array of each value the
    fill sums, or the dump slot ``nnz`` past its end for a value that is
    dropped; ``indices`` the minor index of each stored entry, sorted
    within each major line, and ``indptr`` where each line starts.
    ``weight`` (nnz + 1,), 0 at the dump slot, is a factor of every
    entry, or None where every factor is 1.
    """

    slots: np.ndarray        # intp, which bincount reads without a cast
    indices: np.ndarray      # int32
    indptr: np.ndarray
    weight: np.ndarray | None = None

    def fill(self, values):
        """The data array of ``values``, shaped like ``slots``: summed
        into their entries in order, times the weights."""
        data = np.bincount(self.slots.ravel(), values.ravel(),
                           minlength=len(self.indices) + 1)
        return data[:-1] if self.weight is None else (data * self.weight)[:-1]

    def matrix(self, data, *, nonzero=False):
        """The CSR matrix of ``data`` on the pattern's own index arrays,
        or, with ``nonzero``, on copies without the exact zeros
        (``eliminate_zeros`` on the shared arrays would rewrite the
        pattern under every later fill).  A pattern of column pairs gives
        the transpose."""
        n = len(self.indptr) - 1
        if not nonzero:
            return sp.csr_matrix((data, self.indices, self.indptr),
                                 shape=(n, n))
        stored = data != 0.0
        indptr = np.concatenate([[0], np.cumsum(stored)])[self.indptr]
        return sp.csr_matrix((data[stored], self.indices[stored], indptr),
                             shape=(n, n))


@dataclass(frozen=True, kw_only=True)
class SpacePattern(Pattern):
    """The CSR :class:`Pattern` that the matrices of a space fill, built
    once per space as :attr:`FESpace.pattern`.

    Its local pairs ``(first[p], second[p])`` are those of the blocks that
    may couple: every pair of a scalar space; in a velocity space each
    block with itself and with a ``normal`` block, never ``x`` with
    ``y``.  ``mirror[p]`` is the pair ``(second[p], first[p])``, and
    ``slots[k, p]`` the position of pair p of cell k, or the dump slot
    where the two directions are orthogonal.  A dof has one direction on
    all its cells, so the direction product of an entry, ``weight``, is
    a factor of the whole entry; it is None where every product is 1 (no
    ``normal`` block).
    """

    first: np.ndarray        # (P,) local pairs
    second: np.ndarray
    mirror: np.ndarray


def _weighted_products(a, b, weights):
    """``sum_q weights_q a_q[..., :, None] b_q[..., None, :]`` over the
    leading axis q; exactly symmetric when ``a`` is ``b``."""
    prod = a[..., :, None] * b[..., None, :]
    return (prod * weights.reshape((-1,) + (1,) * (prod.ndim - 1))).sum(axis=0)


def velocity_mass(mesh: TriMesh, v: FESpace, degree: int | None = None):
    """integral( phi_i . phi_j ), on :attr:`FESpace.pattern` without its
    exact zeros; on a scalar space, the scalar mass."""
    rule = triangle_rule(degree if degree is not None else 2 * v.degree)
    sval = v.val(rule.points)                            # (nq, nloc)
    pat = v.pattern
    s2 = _weighted_products(sval, sval, rule.weights)[pat.first, pat.second]
    return pat.matrix(pat.fill(mesh.cell_areas[:, None] * s2), nonzero=True)


def velocity_stiffness(mesh: TriMesh, v: FESpace):
    """integral( grad(phi_i) : grad(phi_j) ) through the reference tensor
    ``R[a, b] = integral( d_a s_i d_b s_j )`` of barycentric derivatives:
    a cell's matrix is ``sum_ab (grad(lambda_a) . grad(lambda_b)) R[a, b]``,
    one matrix product over all cells and the pairs of the pattern,
    which it fills without its exact zeros.  On a scalar space it is the
    scalar stiffness ``integral( grad q . grad r )``."""
    rule = triangle_rule(max(2 * v.degree - 2, 1))
    dbar = np.swapaxes(v.dbary(rule.points), 1, 2)       # (nq, 3, nloc)
    pat = v.pattern
    ref = _weighted_products(dbar[:, :, None], dbar[:, None, :],
                             rule.weights)            # (3, 3, nloc, nloc)
    g = mesh.bary_grads
    gram = g @ np.swapaxes(g, 1, 2)                       # (M, 3, 3)
    e = gram.reshape(-1, 9) @ ref[..., pat.first, pat.second].reshape(9, -1)
    # the product sums pairs (i, j) and (j, i) in different orders:
    # averaging the two makes the matrix exactly symmetric
    e = (e + e[:, pat.mirror]) * (0.5 * mesh.cell_areas[:, None])
    return pat.matrix(pat.fill(e), nonzero=True)


def evaluate_velocity(mesh: TriMesh, v: FESpace, coeffs, lam) -> np.ndarray:
    """Velocity values at barycentric points, shape (n_cells, nq, 2)."""
    sval = v.val(lam)                                    # (nq, nloc)
    c = np.asarray(coeffs, float)[v.cell_dofs]           # (M, nloc)
    return sval @ (c[:, :, None] * v.cell_dirs)


@dataclass(frozen=True)
class ConvectionTables:
    """What the convection reads besides the space's pattern, built once
    per space as :attr:`FESpace.convection_tables`.

    A convection cell matrix is skew, so only the P ``upper`` pairs ``(i,
    l)``, ``i < l``, of the pattern are computed.  ``tensor[(j, a), p] =
    integral( s_j (s_i d_a s_l - s_l d_a s_i) )`` is the skew part of the
    reference tensor of the scalar factors s, ``d_a`` the derivative in
    ``lambda_a``, and ``dir_grads[k, j, a] = dirs_kj . grad(lambda_a)``
    the geometry of the cells.
    """

    upper: np.ndarray        # (P,) positions among the pattern's pairs
    tensor: np.ndarray       # (3 nloc, P)
    dir_grads: np.ndarray    # (n_cells, nloc, 3)


def compressed_pattern(major, minor, n: int) -> Pattern:
    """The :class:`Pattern` of an n x n matrix with entries at the index
    pairs ``(major, minor)``: the row pairs of CSR, the column pairs of
    CSC.  ``slots[e]`` is the position of pair e (repeated pairs share
    one)."""
    key, slots = np.unique(major * n + minor, return_inverse=True)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(key // n,
                                                        minlength=n))])
    return Pattern(slots, (key % n).astype(np.int32), indptr.astype(np.int32))


def convection_matrix(mesh: TriMesh, v: FESpace, w_coeffs):
    """Skew-symmetrized convection with a frozen transport velocity w:

        c(w; u, phi) = 1/2 * integral( ((w.grad)u).phi - ((w.grad)phi).u )

    on every dof of ``v``, filled on :attr:`FESpace.pattern` and sharing
    its index arrays; the diagonal is stored and zero.  With ``w =
    sum_j c_j s_j dirs_j`` on a cell, the skew part of its matrix is the
    reference tensor contracted with ``c_j dirs_j . grad(lambda_a)``
    (Kirby and Logg, *ACM TOMS* 32, 2006): a gather of the coefficients,
    one product with the :class:`ConvectionTables` of ``v`` and one fill
    of the pattern.  Each pair value enters its entry (i, l) as +v and
    (l, i) as -v, each summed in cell order, so C + C^T = 0 holds
    exactly.
    """
    tables, pat = v.convection_tables, v.pattern
    w_cells = np.asarray(w_coeffs, float)[v.cell_dofs]   # (M, nloc)
    cell_data = (w_cells[:, :, None] * tables.dir_grads).reshape(
        mesh.n_cells, -1)
    vals = (cell_data @ tables.tensor) * (0.5 * mesh.cell_areas[:, None])
    cellvals = np.zeros(pat.slots.shape)
    cellvals[:, tables.upper] = vals
    cellvals[:, pat.mirror[tables.upper]] = -vals
    return pat.matrix(pat.fill(cellvals))


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


def pressure_integral_vector(mesh: TriMesh, p: FESpace) -> np.ndarray:
    """Vector of integral( psi_q ): the zero-mean weights of the pressure
    and the quadrature of the stress nodes."""
    if p.degree == 0:
        return mesh.cell_areas.copy()
    return lumped_weights(mesh)  # exact for P1
