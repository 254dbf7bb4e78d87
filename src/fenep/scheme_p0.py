"""Implicit step of the piecewise-constant stress scheme.

The stress lives as one symmetric tensor per cell and is transported by
upwinded jumps across interior edges, weighted by the normal flux of the
previous velocity.  Because each Stokes-type solve keeps the velocity
discretely divergence-free against piecewise-constant pressures, the
per-cell normal fluxes telescope and the transport contributes no energy,
which is what makes the step satisfy a clean free-energy budget:

    F(new) - F(old) + kinetic jump + viscous + relaxation <= forcing work.

Every step runs that budget as an audit against the assembled operators
(see :mod:`fenep.energy`).

The nonlinear step couples the momentum equation (convection frozen at
the previous velocity) to the per-cell stress update through the
regularized relaxation product; a damped Picard iteration alternates the
two factorized linear solves.  That step, its right-hand sides, its
Picard driver and its audit are shared with the diffusive scheme
(:mod:`fenep.nlsolve`); this module supplies only the stress block: the
stress matrix (cell areas over dt plus the upwind transport of the
previous velocity, factorized once per step for the three components)
and the cut of each iterate, with k = 1.  The transport reads an
:class:`EdgeTransport` made once per run: the sparse map from the
velocity to its normal component at three points of each interior
edge, and the matrix's cell-adjacency pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import tensorcalc as tc
from .fespaces import Pattern, compressed_pattern, gauss01
from .meshing import TriMesh
from .nlsolve import LU_OPTIONS, ImplicitScheme, State

__all__ = [
    "EdgeTransport",
    "SchemeP0",
    "edge_transport",
    "upwind_fluxes",
    "upwind_matrix",
]

#: pointwise normal velocities below this are treated as zero flux
FLUX_FLOOR = 1e-14


# ---------------------------------------------------------------------------
# upwinded edge transport


@dataclass(frozen=True)
class EdgeTransport:
    """Tables of the upwind transport of one velocity space, built once
    per scheme by :func:`edge_transport`.

    ``flux_map`` (3 n_e, n_dofs) takes velocity coefficients to the
    normal velocity ``u . n`` at the points t = 0, 1/2, 1 of each of the
    n_e interior edges, one block of rows per point.  Along an edge the
    normal velocity is a polynomial of degree <= 2 in t for every
    shipped element (interior bubbles vanish on edges), so the three
    values determine it exactly.  ``pattern`` is the CSR :class:`Pattern
    <fenep.fespaces.Pattern>` of the transport matrix's transpose, so the
    CSC pattern of the matrix: the cell adjacency, each cell with itself
    and its neighbours across interior edges.  Its ``slots`` (4 n_e +
    n_cells) are the positions of the entries (right, right), (right,
    left), (left, left) and (left, right) of the interior edges, block
    after block, and then of the diagonal entries.
    """

    flux_map: sp.csr_matrix
    pattern: Pattern


def edge_transport(mesh: TriMesh, vspace) -> EdgeTransport:
    """The :class:`EdgeTransport` of ``vspace`` on ``mesh``."""
    e_ids = mesh.interior_edges
    ne, m = len(e_ids), mesh.n_cells
    left, right = mesh.edge_cells[e_ids].T
    # the local functions at t = 0, 1/2, 1 along the segment from local
    # vertex a to local vertex b, tabulated in row 3 a + b for every (a, b)
    ts = np.array([0.0, 0.5, 1.0])
    row = np.arange(9)[:, None]
    lam = np.zeros((9, 3, 3))
    lam[row, np.arange(3), row // 3] = 1.0 - ts
    lam[row, np.arange(3), row % 3] += ts
    # the local vertices of each edge's two ends in its left cell
    ends = [np.argmax(mesh.cells[left] == mesh.edge_vertices[e_ids, j, None],
                      axis=1) for j in (0, 1)]
    normal_dirs = np.einsum("eld,ed->el", vspace.cell_dirs[left],
                            mesh.edge_normals[e_ids])
    vals = (np.swapaxes(vspace.val(lam)[3 * ends[0] + ends[1]], 0, 1)
            * normal_dirs)                               # (3, ne, nloc)
    cols = np.broadcast_to(vspace.cell_dofs[left], vals.shape)
    flux_map = sp.csr_matrix(
        (vals.ravel(), cols.ravel(), np.arange(0, vals.size + 1, vspace.nloc)),
        shape=(3 * ne, vspace.n_dofs))
    flux_map.eliminate_zeros()
    cells = np.arange(m)
    rows = np.concatenate([right, right, left, left, cells])
    cols = np.concatenate([right, left, left, right, cells])
    return EdgeTransport(flux_map, compressed_pattern(cols, rows, m))


def upwind_fluxes(mesh: TriMesh, tables: EdgeTransport, u_coeffs):
    """Signed flux integrals over interior edges.

    Returns ``(a_plus, a_minus)`` with ``a_plus = integral of [u.n]_+``
    and ``a_minus = integral of [-u.n]_+`` along each interior edge, the
    normal pointing from the lower-numbered (left) cell to the right one.
    The normal velocity at t = 0, 1/2, 1 is one product of the velocity
    coefficients ``u_coeffs`` with the ``flux_map`` of ``tables``; the
    edge is split at the exact roots of the quadratic through those
    values so each piece has one sign and three-point Gauss integrates
    it exactly.
    """
    # u . n at t = 0 (the constant coefficient c0), 1/2 and 1
    c0, qh, q1 = (tables.flux_map @ np.asarray(u_coeffs, float)).reshape(3, -1)
    c2 = 2.0 * (c0 + q1 - 2.0 * qh)
    c1 = q1 - c0 - c2
    ne = len(c0)
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = c1 * c1 - 4.0 * c2 * c0
        sq = np.sqrt(np.maximum(disc, 0.0))
        quad = np.abs(c2) > 1e-300
        r1 = np.where(quad & (disc > 0), (-c1 - sq) / (2.0 * c2), np.nan)
        r2 = np.where(quad & (disc > 0), (-c1 + sq) / (2.0 * c2), np.nan)
        rl = np.where(np.abs(c1) > 1e-300, -c0 / c1, np.nan)
    r1 = np.where(quad, r1, rl)
    r2 = np.where(quad, r2, np.nan)
    breaks = np.stack([
        np.zeros(ne),
        np.where(np.isfinite(r1), np.clip(r1, 0.0, 1.0), 0.0),
        np.where(np.isfinite(r2), np.clip(r2, 0.0, 1.0), 0.0),
        np.ones(ne),
    ], axis=1)
    breaks.sort(axis=1)
    g3, w3 = gauss01(3)
    a_plus = np.zeros(ne)
    a_minus = np.zeros(ne)
    for s in range(3):
        lo, hi = breaks[:, s], breaks[:, s + 1]
        span = hi - lo
        tq = lo[:, None] + span[:, None] * g3
        qv = c0[:, None] + tq * (c1[:, None] + tq * c2[:, None])
        qv[np.abs(qv) < FLUX_FLOOR] = 0.0
        a_plus += span * (np.maximum(qv, 0.0) @ w3)
        a_minus += span * (np.maximum(-qv, 0.0) @ w3)
    lens = mesh.edge_lengths[mesh.interior_edges]
    return a_plus * lens, a_minus * lens


def upwind_matrix(mesh: TriMesh, tables: EdgeTransport, u_coeffs,
                  diagonal=None):
    """Cell-to-cell upwind transport operator, one scalar stress component.

    Row K collects the inflow terms a_in * (sigma_K - sigma_upwind) of
    cell K; the quadratic form is nonnegative whenever the transporting
    velocity is discretely divergence-free against cell constants.  The
    fluxes fill the CSC pattern of ``tables`` (the scheme passes its
    :attr:`SchemeP0.edge_tables`, made once per run), with ``diagonal``
    (n_cells,), if given, added to the diagonal.  Entries that are zero,
    such as the inflow across an edge the flow only leaves by, are not
    stored: they would add fill to the factor, which for a fluid at rest
    is diagonal.
    """
    a_plus, a_minus = upwind_fluxes(mesh, tables, u_coeffs)
    pat = tables.pattern
    data = pat.fill(np.concatenate([
        a_plus, -a_plus, a_minus, -a_minus,
        np.zeros(mesh.n_cells) if diagonal is None else diagonal]))
    return pat.matrix(data, nonzero=True).T


# ---------------------------------------------------------------------------
# the scheme


class SchemeP0(ImplicitScheme):
    """Operator cache and step driver for the cellwise-stress scheme.

    Velocity/pressure pairs: the quadratic or reduced-quadratic velocity
    against piecewise-constant pressure.  Constant pressures are what
    make the per-cell divergence integrals vanish, which the transport
    term's energy neutrality relies on, so the pressure space is fixed.
    """

    VELOCITIES = ("velocity_p2", "velocity_p2_reduced")
    PRESSURE = "pressure_p0"

    @cached_property
    def edge_tables(self) -> EdgeTransport:
        """The upwind transport's edge map and pattern, built once."""
        return edge_transport(self.mesh, self.v)

    def stress_block(self, state: State, dt: float):
        """The per-step factorization of the cell areas over dt plus the
        upwind transport of the previous velocity; the cut, and k = 1.

        The matrix fills the pattern of :attr:`edge_tables`.  It is
        strictly diagonally dominant by rows for any velocity, divergence
        free or not: its off-diagonal entries in row K are minus the
        inflows of K, its diagonal their sum plus ``|K|/dt``.  So it needs
        no pivoting (:data:`fenep.nlsolve.LU_OPTIONS`).
        """
        transport = upwind_matrix(self.mesh, self.edge_tables, state.u,
                                  self.mesh.cell_areas / dt)
        lu = splu(transport, **LU_OPTIONS)
        reg, k = self.params.reg, np.ones(self.mesh.n_cells)

        def local_terms(eigs, frame, eta, rho):
            return tc._recompose(tc.beta_delta(eigs, reg), frame), k, 0.0

        return lu, local_terms

