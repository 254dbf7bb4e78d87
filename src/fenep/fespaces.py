"""Finite element spaces, quadrature, vertex sampling and assembly.

Every velocity element used by the schemes factors locally into scalar
shape functions times constant direction vectors: the plain quadratic and
mini elements carry the two coordinate directions per scalar function,
and the reduced-quadratic element adds one scalar bubble per edge whose
direction is the edge's global unit normal.  Assembly therefore runs one
generic code path over ``(scalar factor, direction)`` pairs; the mass,
stiffness, convection and gradient operators below never special-case
an element.  The convection, the one operator rebuilt on every time
step, fills the data array of a :class:`FixedPattern` on the free dofs
instead of assembling a new matrix.  The gradient operator
``G = integral( psi grad(phi) )`` against a scalar test space is
assembled once per scheme and serves three forms by matrix products:
the tested velocity gradient ``G u``, the stress coupling ``G^T W`` and,
in its trace rows, the divergence.

Scalar fields (pressure, stress components, the auxiliary trace) use
piecewise constants or continuous piecewise linears.  Tensor fields are
stored component-blocked as ``[xx | xy | yy]`` with each block a scalar
field, which is what lets the implicit stress solves share one scalar
matrix across components.

The vertex-sampling interpolant ``pi_h`` replaces a nonlinear expression
by the piecewise linear function matching it at mesh vertices; combined
with the lumped (vertex) quadrature rule it integrates products of
nonlinear functions of P1 fields exactly as the lumped scheme prescribes.

Quadrature rules are symmetric tabulated rules up to degree 5 and
collapsed-square Gauss product rules beyond; every rule is validated in
the test suite against closed-form monomial integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .meshing import TriMesh

__all__ = [
    "QuadratureRule",
    "triangle_rule",
    "gauss01",
    "SupportError",
    "DiscreteField",
    "build_space",
    "VelocitySpace",
    "ScalarSpace",
    "VELOCITY_KINDS",
    "pi_h",
    "lumped_weights",
    "velocity_mass",
    "velocity_stiffness",
    "FixedPattern",
    "velocity_pattern",
    "convection_matrix",
    "gradient_matrix",
    "gradient_trace",
    "divergence_matrix",
    "velocity_load",
    "sample_cells",
    "cell_mean_velocity",
    "evaluate_velocity",
    "scalar_mass",
    "scalar_stiffness",
    "pressure_integral_vector",
    "inf_sup_estimate",
]


class SupportError(RuntimeError):
    """Requested operation exceeds the supported (desk-scale) problem size."""


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadratureRule:
    """Barycentric points and weights; weights sum to 1 and are scaled by
    the cell area at use, so ``integral = area * sum(w * f(x))``."""

    degree: int
    points: np.ndarray
    weights: np.ndarray


def _orbit(a: float) -> list[tuple[float, float, float]]:
    b = 0.5 * (1.0 - a)
    return [(a, b, b), (b, a, b), (b, b, a)]


_TABULATED: dict[int, tuple[list, list]] = {
    1: ([(1 / 3, 1 / 3, 1 / 3)], [1.0]),
    2: (_orbit(2 / 3), [1 / 3] * 3),
    4: (_orbit(0.108103018168070) + _orbit(0.816847572980459),
        [0.223381589678011] * 3 + [0.109951743655322] * 3),
    5: ([(1 / 3, 1 / 3, 1 / 3)]
        + _orbit(0.059715871789770) + _orbit(0.797426985353087),
        [0.225] + [0.132394152788506] * 3 + [0.125939180544827] * 3),
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
                return QuadratureRule(deg, np.array(pts), np.array(w))
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
    return QuadratureRule(degree, pts, w)


# ---------------------------------------------------------------------------
# scalar shape function families
#
# Each family evaluates at arbitrary barycentric coordinates lam (..., 3)
# and returns values (..., nloc) and barycentric derivatives (..., nloc, 3).


def _p1_val(lam):
    return np.asarray(lam, float).copy()


def _p1_dbary(lam):
    lam = np.asarray(lam, float)
    out = np.zeros(lam.shape[:-1] + (3, 3))
    out[...] = np.eye(3)
    return out


def _p2_val(lam):
    lam = np.asarray(lam, float)
    l0, l1, l2 = lam[..., 0], lam[..., 1], lam[..., 2]
    return np.stack([
        l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
        4 * l1 * l2, 4 * l2 * l0, 4 * l0 * l1,
    ], axis=-1)


def _p2_dbary(lam):
    lam = np.asarray(lam, float)
    l0, l1, l2 = lam[..., 0], lam[..., 1], lam[..., 2]
    z = np.zeros_like(l0)
    rows = [
        [4 * l0 - 1, z, z],
        [z, 4 * l1 - 1, z],
        [z, z, 4 * l2 - 1],
        [z, 4 * l2, 4 * l1],
        [4 * l2, z, 4 * l0],
        [4 * l1, 4 * l0, z],
    ]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def _p1b_val(lam):
    lam = np.asarray(lam, float)
    bub = 27.0 * lam[..., 0] * lam[..., 1] * lam[..., 2]
    return np.concatenate([lam, bub[..., None]], axis=-1)


def _p1b_dbary(lam):
    lam = np.asarray(lam, float)
    l0, l1, l2 = lam[..., 0], lam[..., 1], lam[..., 2]
    out = np.zeros(lam.shape[:-1] + (4, 3))
    out[..., :3, :] = np.eye(3)
    out[..., 3, 0] = 27.0 * l1 * l2
    out[..., 3, 1] = 27.0 * l0 * l2
    out[..., 3, 2] = 27.0 * l0 * l1
    return out


def _edge_bubble_val(lam):
    lam = np.asarray(lam, float)
    l0, l1, l2 = lam[..., 0], lam[..., 1], lam[..., 2]
    return np.stack([l1 * l2, l2 * l0, l0 * l1], axis=-1)


def _edge_bubble_dbary(lam):
    lam = np.asarray(lam, float)
    l0, l1, l2 = lam[..., 0], lam[..., 1], lam[..., 2]
    z = np.zeros_like(l0)
    rows = [[z, l2, l1], [l2, z, l0], [l1, l0, z]]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


# ---------------------------------------------------------------------------
# spaces


@dataclass
class DiscreteField:
    """A coefficient vector tied to its space."""

    space: object
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, float)
        if self.values.shape[0] != self.space.n_dofs:
            raise ValueError(
                f"coefficient length {self.values.shape[0]} does not match "
                f"{self.space.kind} with {self.space.n_dofs} dofs")


class VelocitySpace:
    """Vector-valued velocity space with no-flow Dirichlet bookkeeping.

    Attributes
    ----------
    cell_dofs : (n_cells, nloc) global dof indices
    cell_dirs : (n_cells, nloc, 2) constant direction of each local dof
    dirichlet_mask : (n_dofs,) True on boundary-attached dofs
    degree : polynomial degree of the scalar factors
    """

    def __init__(self, mesh: TriMesh, kind: str):
        self.mesh = mesh
        self.kind = kind
        n_p, n_c, n_e = mesh.n_vertices, mesh.n_cells, mesh.n_edges
        bvert = mesh.is_boundary_vertex
        bedge = mesh.is_boundary_edge

        if kind in ("velocity_p2", "velocity_mini", "velocity_p1"):
            if kind == "velocity_p2":
                self._val, self._dbary = _p2_val, _p2_dbary
                self.degree = 2
                scalar_dofs = np.hstack([mesh.cells, n_p + mesh.cell_edges])
                n_s = n_p + n_e
                sc_boundary = np.concatenate([bvert, bedge])
            elif kind == "velocity_mini":
                self._val, self._dbary = _p1b_val, _p1b_dbary
                self.degree = 3
                scalar_dofs = np.hstack(
                    [mesh.cells, n_p + np.arange(n_c)[:, None]])
                n_s = n_p + n_c
                sc_boundary = np.concatenate([bvert, np.zeros(n_c, bool)])
            else:
                self._val, self._dbary = _p1_val, _p1_dbary
                self.degree = 1
                scalar_dofs = mesh.cells
                n_s = n_p
                sc_boundary = bvert
            nloc_s = scalar_dofs.shape[1]
            self.n_dofs = 2 * n_s
            self.nloc = 2 * nloc_s
            self.cell_dofs = np.hstack([scalar_dofs, n_s + scalar_dofs])
            dirs = np.zeros((n_c, self.nloc, 2))
            dirs[:, :nloc_s, 0] = 1.0
            dirs[:, nloc_s:, 1] = 1.0
            self.cell_dirs = dirs
            self.dirichlet_mask = np.concatenate([sc_boundary, sc_boundary])
            self.vertex_dof_x = np.arange(n_p)
            self.vertex_dof_y = n_s + np.arange(n_p)

        elif kind == "velocity_p2_reduced":
            # linear vector part plus one quadratic normal bubble per edge
            self.degree = 2
            self.n_dofs = 2 * n_p + n_e
            self.nloc = 9
            self.cell_dofs = np.hstack(
                [mesh.cells, n_p + mesh.cells, 2 * n_p + mesh.cell_edges])
            dirs = np.zeros((n_c, 9, 2))
            dirs[:, 0:3, 0] = 1.0
            dirs[:, 3:6, 1] = 1.0
            dirs[:, 6:9, :] = mesh.edge_normals[mesh.cell_edges]
            self.cell_dirs = dirs
            self.dirichlet_mask = np.concatenate([bvert, bvert, bedge])
            self.vertex_dof_x = np.arange(n_p)
            self.vertex_dof_y = n_p + np.arange(n_p)
        else:
            raise ValueError(f"unknown velocity kind {kind!r}")

    def scalar_val(self, lam) -> np.ndarray:
        """Scalar factors of all local dofs at barycentric points."""
        if self.kind == "velocity_p2_reduced":
            p1 = _p1_val(lam)
            eb = _edge_bubble_val(lam)
            return np.concatenate([p1, p1, eb], axis=-1)
        v = self._val(lam)
        return np.concatenate([v, v], axis=-1)

    def scalar_dbary(self, lam) -> np.ndarray:
        if self.kind == "velocity_p2_reduced":
            p1 = _p1_dbary(lam)
            eb = _edge_bubble_dbary(lam)
            return np.concatenate([p1, p1, eb], axis=-2)
        d = self._dbary(lam)
        return np.concatenate([d, d], axis=-2)

    def vertex_values(self, coeffs) -> np.ndarray:
        """Velocity at mesh vertices, shape (n_vertices, 2).

        Exact for every shipped element: bubbles vanish at vertices.
        """
        coeffs = np.asarray(coeffs, float)
        return np.column_stack(
            [coeffs[self.vertex_dof_x], coeffs[self.vertex_dof_y]])


class ScalarSpace:
    """Piecewise constant or continuous piecewise linear scalar space."""

    def __init__(self, mesh: TriMesh, kind: str):
        self.mesh = mesh
        self.kind = kind
        if kind in ("pressure_p1", "trace_p1"):
            self.degree = 1
            self.n_dofs = mesh.n_vertices
            self.cell_dofs = mesh.cells
            self._val = _p1_val
        elif kind == "pressure_p0":
            self.degree = 0
            self.n_dofs = mesh.n_cells
            self.cell_dofs = np.arange(mesh.n_cells)[:, None]
            self._val = lambda lam: np.ones(np.shape(lam)[:-1] + (1,))
        else:
            raise ValueError(f"unknown scalar kind {kind!r}")
        self.nloc = self.cell_dofs.shape[1]

    def val(self, lam) -> np.ndarray:
        return self._val(lam)


VELOCITY_KINDS = (
    "velocity_p2", "velocity_p2_reduced", "velocity_mini", "velocity_p1")


def build_space(mesh: TriMesh, kind: str):
    """Construct the degree-of-freedom map for one of the shipped spaces.

    ``velocity_p1`` exists only as the classical unstable negative control
    for the inf-sup test utility; the schemes reject it.
    """
    if kind in VELOCITY_KINDS:
        return VelocitySpace(mesh, kind)
    if kind in ("pressure_p0", "pressure_p1", "trace_p1"):
        return ScalarSpace(mesh, kind)
    raise ValueError(f"unknown space kind {kind!r}")


# ---------------------------------------------------------------------------
# vertex sampling and lumped integration


def pi_h(mesh: TriMesh, f):
    """Vertex-sampling interpolant onto P1.

    ``f`` is either a callable of vertex coordinate arrays ``(x, y)`` or
    an array of per-vertex values (returned unchanged, so the interpolant
    is idempotent on P1 data).
    """
    if callable(f):
        out = np.asarray(
            f(mesh.vertices[:, 0], mesh.vertices[:, 1]), float)
    else:
        out = np.asarray(f, float)
    if out.shape[0] != mesh.n_vertices:
        raise ValueError("vertex value array has wrong length")
    return out.copy()


def lumped_weights(mesh: TriMesh) -> np.ndarray:
    """Vertex quadrature weights: w_p = sum of |K|/3 over cells at p."""
    w = np.zeros(mesh.n_vertices)
    np.add.at(w, mesh.cells.ravel(),
              np.repeat(mesh.cell_areas / 3.0, 3))
    return w


# ---------------------------------------------------------------------------
# assembly kernels


def _to_csr(cellvals, rows_dofs, cols_dofs, shape):
    m, nr, nc = cellvals.shape
    rows = np.repeat(rows_dofs, nc, axis=1).ravel()
    cols = np.tile(cols_dofs, (1, nr)).ravel()
    mat = sp.coo_matrix((cellvals.ravel(), (rows, cols)), shape=shape)
    return mat.tocsr()


def _shape_grads(mesh: TriMesh, v: VelocitySpace, rule: QuadratureRule):
    """Physical gradients of the local scalar factors, (M, nloc, nq, 2)."""
    dbar = v.scalar_dbary(rule.points)                  # (nq, nloc, 3)
    return np.einsum("qlj,kjd->klqd", dbar, mesh.bary_grads)


def velocity_mass(mesh: TriMesh, v: VelocitySpace, degree: int | None = None):
    rule = triangle_rule(degree if degree is not None else 2 * v.degree)
    sval = v.scalar_val(rule.points).T                  # (nloc, nq)
    s2 = np.einsum("iq,jq,q->ij", sval, sval, rule.weights)
    dd = np.einsum("kid,kjd->kij", v.cell_dirs, v.cell_dirs)
    cellvals = dd * s2[None] * mesh.cell_areas[:, None, None]
    return _to_csr(cellvals, v.cell_dofs, v.cell_dofs, (v.n_dofs, v.n_dofs))


def velocity_stiffness(mesh: TriMesh, v: VelocitySpace):
    rule = triangle_rule(max(2 * v.degree - 2, 1))
    gx = _shape_grads(mesh, v, rule)
    e = np.einsum("kiqd,kjqd,q->kij", gx, gx, rule.weights)
    dd = np.einsum("kid,kjd->kij", v.cell_dirs, v.cell_dirs)
    cellvals = e * dd * mesh.cell_areas[:, None, None]
    return _to_csr(cellvals, v.cell_dofs, v.cell_dofs, (v.n_dofs, v.n_dofs))


def evaluate_velocity(mesh: TriMesh, v: VelocitySpace, coeffs, lam) -> np.ndarray:
    """Velocity values at barycentric points, shape (n_cells, nq, 2)."""
    sval = v.scalar_val(lam)                             # (nq, nloc)
    c = np.asarray(coeffs, float)[v.cell_dofs]           # (M, nloc)
    return sval @ (c[:, :, None] * v.cell_dirs)


@dataclass(frozen=True)
class FixedPattern:
    """CSR pattern of a velocity operator restricted to a set of dofs.

    ``slots[k, i, j]`` is the position in the data array that the entry of
    local dofs i, j of cell k adds to.  Entries outside the kept dofs, and
    entries whose direction vectors are orthogonal (and so vanish in every
    operator of the space), go to the dump slot ``nnz`` past the end.
    """

    slots: np.ndarray        # (n_cells, nloc, nloc) int32
    indices: np.ndarray      # int32 column of each stored entry, row-sorted
    indptr: np.ndarray


def _dir_products(dirs):
    """``dirs_i . dirs_j`` of each cell, (M, nloc, nloc), exactly symmetric."""
    d_x, d_y = dirs[:, :, None, 0], dirs[:, :, None, 1]
    return d_x * np.swapaxes(d_x, 1, 2) + d_y * np.swapaxes(d_y, 1, 2)


def velocity_pattern(v: VelocitySpace, keep) -> FixedPattern:
    """Fixed pattern of cell-assembled operators of ``v`` on dofs ``keep``.

    ``keep`` is an increasing array of dof indices (the free dofs of a
    scheme, or every dof); row and column r of the matrix belong to dof
    ``keep[r]``.
    """
    n = len(keep)
    pos = np.full(v.n_dofs, -1, np.int64)
    pos[keep] = np.arange(n)
    loc = pos[v.cell_dofs]                                # (M, nloc)
    rows = np.broadcast_to(loc[:, :, None], (len(loc),) + (v.nloc,) * 2)
    cols = np.swapaxes(rows, 1, 2)
    stored = (rows >= 0) & (cols >= 0) & (_dir_products(v.cell_dirs) != 0.0)
    key, inverse = np.unique(rows[stored] * n + cols[stored],
                             return_inverse=True)
    slots = np.full(rows.shape, len(key), np.int32)
    slots[stored] = inverse
    indptr = np.concatenate([[0], np.cumsum(np.bincount(key // n,
                                                        minlength=n))])
    return FixedPattern(slots, (key % n).astype(np.int32),
                        indptr.astype(np.int32))


#: cells per block of the convection fill (bounds its temporaries)
_CHUNK = 256


def convection_matrix(mesh: TriMesh, v: VelocitySpace, w_coeffs,
                      pattern: FixedPattern):
    """Skew-symmetrized convection with a frozen transport velocity w:

        c(w; u, phi) = 1/2 * integral( ((w.grad)u).phi - ((w.grad)phi).u )

    on the dofs of ``pattern`` (see :func:`velocity_pattern`).  The cell
    matrices are summed into the pattern's data array block by block of
    cells, so the only temporaries are one block's cell matrices and one
    data array.  Entries (i, j) and (j, i) add exactly negated cell
    values in the same order, so C + C^T = 0 holds exactly.
    """
    rule = triangle_rule(3 * v.degree - 1)
    sw = v.scalar_val(rule.points).T * rule.weights      # (nloc, nq)
    dbar = v.scalar_dbary(rule.points)                   # (nq, nloc, 3)
    wq = evaluate_velocity(mesh, v, w_coeffs, rule.points)   # (M, nq, 2)
    nnz, n = len(pattern.indices), len(pattern.indptr) - 1
    data = np.zeros(nnz + 1)
    for lo in range(0, mesh.n_cells, _CHUNK):
        k = slice(lo, lo + _CHUNK)
        # w . grad(lambda_j), then w . grad(s_l), at the points
        w_bary = wq[k] @ np.swapaxes(mesh.bary_grads[k], 1, 2)
        adv = np.einsum("kqj,qlj->kql", w_bary, dbar, optimize=True)
        t = sw @ adv                      # t[i, l] = integral s_i w.grad s_l
        scale = (_dir_products(v.cell_dirs[k])
                 * (0.5 * mesh.cell_areas[k])[:, None, None])
        vals = (t - np.swapaxes(t, 1, 2)) * scale
        data += np.bincount(pattern.slots[k].ravel(), vals.ravel(),
                            minlength=nnz + 1)
    return sp.csr_matrix((data[:nnz], pattern.indices, pattern.indptr),
                         shape=(n, n))


def gradient_matrix(mesh: TriMesh, v: VelocitySpace, s: ScalarSpace):
    """G[4n + 2a + b, i] = integral( psi_n * d_b (phi_i)_a ), (4 n_s, n_u).

    The moments of the velocity gradient against the scalar test space
    ``s``, one flattened 2x2 block per test function:
    ``(G @ u).reshape(-1, 2, 2)`` are the tested gradients of ``u``, and
    ``G.T @ W.reshape(-1)`` is the coupling ``integral( W : grad(phi_i) )``
    of a tensor field ``W = sum_n W_n psi_n`` given as full (n_s, 2, 2)
    matrices.  The trace rows (:func:`gradient_trace`) are the
    divergence matrix.  Only nonzeros are stored: a local velocity dof
    enters the components its direction vector has, and zero moments
    are dropped after assembly.
    """
    rule = triangle_rule(max(v.degree - 1 + s.degree, 1))
    gx = _shape_grads(mesh, v, rule)                      # (M, nloc, nq, 2)
    sval = s.val(rule.points)                             # (nq, nloc_s)
    mom = np.einsum("qn,kiqb,q->knib", sval, gx, rule.weights)
    mom = mom * mesh.cell_areas[:, None, None, None]  # (M, nloc_s, nloc, 2)
    # d_b (phi_i)_a = dirs[i, a] * d_b s_i for each structural (k, i, a)
    k, i, a = np.nonzero(v.cell_dirs)
    vals = v.cell_dirs[k, i, a][:, None, None] * mom[k, :, i, :]
    rows = (4 * s.cell_dofs[k][:, :, None] + 2 * a[:, None, None]
            + np.arange(2))
    cols = np.broadcast_to(v.cell_dofs[k, i][:, None, None], rows.shape)
    mat = sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                        shape=(4 * s.n_dofs, v.n_dofs)).tocsr()
    mat.eliminate_zeros()
    return mat


def gradient_trace(grad):
    """The trace rows ``G[0::4] + G[3::4]`` of a gradient matrix."""
    return grad[0::4] + grad[3::4]


def divergence_matrix(mesh: TriMesh, v: VelocitySpace, p: ScalarSpace):
    """B[q, i] = integral( psi_q * div(phi_i) ), shape (n_p, n_u)."""
    return gradient_trace(gradient_matrix(mesh, v, p))


def sample_cells(mesh: TriMesh, f, lam) -> np.ndarray:
    """Components of a callable ``f(x, y) -> (f_0, f_1, ...)`` at the
    barycentric points ``lam`` of every cell, shape (n_cells, nq, n_comp)."""
    xq = np.einsum("qj,kjd->kqd", np.asarray(lam, float),
                   mesh.vertices[mesh.cells])
    return np.stack(np.broadcast_arrays(*f(xq[..., 0], xq[..., 1])), axis=-1)


def velocity_load(mesh: TriMesh, v: VelocitySpace, f, degree: int = 6):
    """Load vector integral( f . phi_i ) for a callable f(x, y) -> (fx, fy)."""
    rule = triangle_rule(degree)
    sval = v.scalar_val(rule.points).T
    fq = sample_cells(mesh, f, rule.points)               # (M, nq, 2)
    fd = np.einsum("kqd,kld->klq", fq, v.cell_dirs)
    cellvals = np.einsum("klq,lq,q->kl", fd, sval, rule.weights)
    cellvals = cellvals * mesh.cell_areas[:, None]
    out = np.zeros(v.n_dofs)
    np.add.at(out, v.cell_dofs.ravel(), cellvals.ravel())
    return out


def cell_mean_velocity(mesh: TriMesh, v: VelocitySpace, coeffs) -> np.ndarray:
    """Per-cell integral of the velocity, shape (n_cells, 2)."""
    rule = triangle_rule(v.degree)
    u = evaluate_velocity(mesh, v, coeffs, rule.points)
    return np.einsum("kqd,q->kd", u, rule.weights) * mesh.cell_areas[:, None]


def scalar_mass(mesh: TriMesh, s: ScalarSpace):
    rule = triangle_rule(max(2 * s.degree, 1))
    val = s.val(rule.points)
    m = np.einsum("qi,qj,q->ij", val, val, rule.weights)
    cellvals = m[None] * mesh.cell_areas[:, None, None]
    return _to_csr(cellvals, s.cell_dofs, s.cell_dofs, (s.n_dofs, s.n_dofs))


def scalar_stiffness(mesh: TriMesh):
    """P1 stiffness matrix integral( grad q . grad r )."""
    g = mesh.bary_grads                                   # (M, 3, 2)
    cellvals = np.einsum("kid,kjd->kij", g, g) * mesh.cell_areas[:, None, None]
    return _to_csr(cellvals, mesh.cells, mesh.cells,
                   (mesh.n_vertices, mesh.n_vertices))


def pressure_integral_vector(mesh: TriMesh, p: ScalarSpace) -> np.ndarray:
    """Vector of integral( psi_q ), used for the zero-mean constraint."""
    if p.degree == 0:
        return mesh.cell_areas.copy()
    return lumped_weights(mesh)  # exact for P1


# ---------------------------------------------------------------------------
# diagnostics


def inf_sup_estimate(mesh: TriMesh, velocity_kind: str, pressure_kind: str) -> float:
    """Numerical inf-sup constant of a velocity/pressure pairing.

    Returns the smallest nonzero generalized singular value of the
    divergence coupling against the H1 velocity norm and the L2 pressure
    norm, restricted to homogeneous velocity data and mean-zero pressures.
    Dense linear algebra; intended as a desk-scale test utility and
    guarded accordingly.
    """
    import scipy.linalg as la
    from scipy.sparse.linalg import splu

    v = VelocitySpace(mesh, velocity_kind)
    p = ScalarSpace(mesh, pressure_kind)
    if v.n_dofs > 6000 or p.n_dofs > 1500:
        raise SupportError(
            "inf_sup_estimate is a dense test utility; use meshes with "
            "n <= 16")
    free = ~v.dirichlet_mask
    x_mat = (velocity_stiffness(mesh, v) + velocity_mass(mesh, v)).tocsr()
    x_ff = x_mat[free][:, free].tocsc()
    b = divergence_matrix(mesh, v, p).tocsr()[:, free]
    lu = splu(x_ff)
    z = lu.solve(b.toarray().T)                      # X^{-1} B^T
    s_mat = b @ z
    m_p = scalar_mass(mesh, p).toarray()
    eigs = la.eigh(0.5 * (s_mat + s_mat.T), m_p, eigvals_only=True)
    # the constant pressure is in the kernel; the next eigenvalue is mu^2
    return float(math.sqrt(max(eigs[1], 0.0)))
