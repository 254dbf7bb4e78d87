"""Reference forms of the finite element operators, for the tests only.

The einsum kernels are the cell-by-cell contractions that
:mod:`fenep.fespaces` replaced by matrix products: they assemble every
local entry, orthogonal direction pairs included, through COO.  The
scalar mass matrix, the divergence matrix, the dense inf-sup estimate
and the vertex-sampling interpolant are used by the tests alone.  The
transport coefficients of given vertex pairs are laid out as edges, so
they are the corner coefficients the diffusive scheme's step builds;
the per-cell evaluation the step made before it evaluated per edge is
kept as their oracle.
"""

import math

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import fenep.fespaces as fe
import fenep.tensorcalc as tc
from fenep.scheme_p1diff import corner_coefficients


class SupportError(RuntimeError):
    """Requested operation exceeds the supported (desk-scale) problem size."""


def coo_assemble(cellvals, dofs, n):
    """Sum cell matrices (M, nloc, nloc) on ``dofs`` into an n x n CSR matrix."""
    nloc = dofs.shape[1]
    rows = np.repeat(dofs, nloc, axis=1).ravel()
    cols = np.tile(dofs, (1, nloc)).ravel()
    return sp.coo_matrix((cellvals.ravel(), (rows, cols)),
                         shape=(n, n)).tocsr()


def shape_grads(mesh, v, rule):
    """Physical gradients of the local scalar factors, (M, nloc, nq, 2)."""
    return np.einsum("qlj,kjd->klqd", v.dbary(rule.points),
                     mesh.bary_grads)


def velocity_mass(mesh, v, degree=None):
    rule = fe.triangle_rule(degree if degree is not None else 2 * v.degree)
    sval = v.val(rule.points).T
    s2 = np.einsum("iq,jq,q->ij", sval, sval, rule.weights)
    dd = np.einsum("kid,kjd->kij", v.cell_dirs, v.cell_dirs)
    cellvals = dd * s2[None] * mesh.cell_areas[:, None, None]
    return coo_assemble(cellvals, v.cell_dofs, v.n_dofs)


def velocity_stiffness(mesh, v):
    rule = fe.triangle_rule(max(2 * v.degree - 2, 1))
    gx = shape_grads(mesh, v, rule)
    e = np.einsum("kiqd,kjqd,q->kij", gx, gx, rule.weights)
    dd = np.einsum("kid,kjd->kij", v.cell_dirs, v.cell_dirs)
    cellvals = e * dd * mesh.cell_areas[:, None, None]
    return coo_assemble(cellvals, v.cell_dofs, v.n_dofs)


def gradient_matrix(mesh, v, s):
    """G[4n + 2a + b, i] = integral( psi_n * d_b (phi_i)_a ), every
    local (component, dof) pair stored."""
    rule = fe.triangle_rule(max(v.degree - 1 + s.degree, 1))
    gx = shape_grads(mesh, v, rule)
    mom = np.einsum("qn,kiqb,q->knib", s.val(rule.points), gx, rule.weights)
    mom = mom * mesh.cell_areas[:, None, None, None]
    # vals[k, n, i, a, b] = dirs[k, i, a] * mom[k, n, i, b]
    vals = np.einsum("kia,knib->kniab", v.cell_dirs, mom)
    a_b = 2 * np.arange(2)[:, None] + np.arange(2)
    rows = np.broadcast_to(4 * s.cell_dofs[:, :, None, None, None] + a_b,
                           vals.shape)
    cols = np.broadcast_to(v.cell_dofs[:, None, :, None, None], vals.shape)
    return sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(4 * s.n_dofs, v.n_dofs)).tocsr()


def velocity_load(mesh, v, f, degree=6):
    rule = fe.triangle_rule(degree)
    sval = v.val(rule.points).T
    xq = np.einsum("qj,kjd->kqd", rule.points, mesh.vertices[mesh.cells])
    fq = np.stack(np.broadcast_arrays(*f(xq[..., 0], xq[..., 1])), axis=-1)
    fd = np.einsum("kqd,kld->klq", fq, v.cell_dirs)
    cellvals = np.einsum("klq,lq,q->kl", fd, sval, rule.weights)
    cellvals = cellvals * mesh.cell_areas[:, None]
    out = np.zeros(v.n_dofs)
    np.add.at(out, v.cell_dofs.ravel(), cellvals.ravel())
    return out


def scalar_mass(mesh, s):
    rule = fe.triangle_rule(max(2 * s.degree, 1))
    val = s.val(rule.points)
    m = np.einsum("qi,qj,q->ij", val, val, rule.weights)
    cellvals = m[None] * mesh.cell_areas[:, None, None]
    return coo_assemble(cellvals, s.cell_dofs, s.n_dofs)


def divergence_matrix(mesh, v, p):
    """B[q, i] = integral( psi_q * div(phi_i) ), shape (n_p, n_u)."""
    return fe.gradient_trace(fe.gradient_matrix(mesh, v, p))


def inf_sup_estimate(mesh, velocity_kind, pressure_kind):
    """Numerical inf-sup constant of a velocity/pressure pairing.

    Returns the smallest nonzero generalized singular value of the
    divergence coupling against the H1 velocity norm and the L2 pressure
    norm, restricted to homogeneous velocity data and mean-zero pressures.
    Dense linear algebra, so guarded to desk-scale meshes.
    """
    v = fe.build_space(mesh, velocity_kind)
    p = fe.build_space(mesh, pressure_kind)
    if v.n_dofs > 6000 or p.n_dofs > 1500:
        raise SupportError(
            "inf_sup_estimate is a dense test utility; use meshes with "
            "n <= 16")
    free = ~v.dirichlet_mask
    x_mat = (fe.velocity_stiffness(mesh, v) + fe.velocity_mass(mesh, v)).tocsr()
    x_ff = x_mat[free][:, free].tocsc()
    b = divergence_matrix(mesh, v, p).tocsr()[:, free]
    lu = splu(x_ff)
    z = lu.solve(b.toarray().T)                      # X^{-1} B^T
    s_mat = b @ z
    m_p = scalar_mass(mesh, p).toarray()
    eigs = la.eigh(0.5 * (s_mat + s_mat.T), m_p, eigvals_only=True)
    # the constant pressure is in the kernel; the next eigenvalue is mu^2
    return float(math.sqrt(max(eigs[1], 0.0)))


def pi_h(mesh, f):
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


def pair_coefficients(a, c, rp):
    """The transport coefficients of the vertex pairs (a[i], c[i]).

    The values are laid out a first, so pair i is the edge ``(n + i,
    i)`` whose higher numbered end is a; tensors (n, 3) enter through
    their tensor nodes, scalars q (n,) through ``g'(q)``.
    """
    values = np.concatenate([np.asarray(a, float), np.asarray(c, float)])
    n = len(values) // 2
    ends = np.column_stack([n + np.arange(n), np.arange(n)])
    return corner_coefficients(ends, vertex_nodes(values, rp), rp)


def vertex_nodes(values, rp):
    """What the transport coefficients of a vertex field depend on: the
    tensor nodes of a tensor field (n, 3), ``g'`` of a scalar field."""
    if values.ndim == 2:
        return tc.tensor_nodes(*tc.eig_sym(values), rp)
    return tc.g_delta(values, rp)[1]


def cell_lambda_pair(a, c):
    """The matching-weight combination of beta(a) and beta(c), through
    the tensor calculus's double contractions and norms: the form the
    step evaluated per cell before it evaluated per edge."""
    d_tr = a.tr_h - c.tr_h
    d_gp = a.gprime - c.gprime
    num = d_tr - tc.ddot(a.beta, d_gp)
    den = tc.ddot(c.beta - a.beta, d_gp)
    scale = tc.frob_norm(c.beta - a.beta) * tc.frob_norm(d_gp)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(np.abs(den) > 1e-13 * scale + 1e-300, num / den, 0.0)
    lam = np.clip(np.nan_to_num(lam, nan=0.0), 0.0, 1.0)
    return (1.0 - lam)[..., None] * a.beta + lam[..., None] * c.beta


def cell_corner_coefficients(cells, nodes, rp):
    """Per-cell transport coefficients (n_cells, 2[, 3]): entry [k, j]
    belongs to the pair (a, c) of vertices j + 1 and 0 of cell k, the
    edge along reference direction j."""
    if isinstance(nodes, tc.TensorNodes):
        corner0 = nodes.take(cells[:, 0])
        hat = [cell_lambda_pair(nodes.take(cells[:, j]), corner0)
               for j in (1, 2)]
    else:
        hat = [tc._h_delta_dd(nodes[cells[:, j]], nodes[cells[:, 0]], rp)
               for j in (1, 2)]
    return np.stack(hat, axis=1)
