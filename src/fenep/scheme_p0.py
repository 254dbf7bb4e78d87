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
two factorized linear solves.  The velocity/pressure matrix without the
convection is factorized once per step size and kept on the scheme; the
convection is lagged to the right-hand side of each sweep.  That step,
its right-hand sides, its Picard driver and its audit are shared with
the diffusive scheme (:mod:`fenep.nlsolve`); this module supplies only
the stress block: the stress matrix (cell areas over dt plus the upwind
transport of the previous velocity, factorized once per step for the
three components) and the cut of each iterate, with k = 1.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import tensorcalc as tc
from .fespaces import gauss01
from .meshing import TriMesh
from .nlsolve import ImplicitScheme, State

__all__ = [
    "SchemeP0",
    "upwind_fluxes",
    "upwind_matrix",
]

#: pointwise normal velocities below this are treated as zero flux
FLUX_FLOOR = 1e-14


# ---------------------------------------------------------------------------
# upwinded edge transport


def _edge_flux_coeffs(mesh: TriMesh, vspace, u_coeffs):
    """Quadratic coefficients of u . n along each interior edge.

    The normal velocity along an edge is a polynomial of degree <= 2 in
    the edge parameter for every shipped element (interior bubbles vanish
    on edges), so sampling it at t = 0, 1/2, 1 recovers it exactly.
    Returns (edge_ids, c0, c1, c2).
    """
    e_ids = mesh.interior_edges
    if len(e_ids) == 0:
        z = np.zeros(0)
        return e_ids, z, z, z
    left = mesh.edge_cells[e_ids, 0]
    va, vb = mesh.edge_vertices[e_ids, 0], mesh.edge_vertices[e_ids, 1]
    # local indices of the edge endpoints within the left cell
    la = np.argmax(mesh.cells[left] == va[:, None], axis=1)
    lb = np.argmax(mesh.cells[left] == vb[:, None], axis=1)
    ne = len(e_ids)
    ts = np.array([0.0, 0.5, 1.0])
    lam = np.zeros((ne, 3, 3))
    rows = np.arange(ne)
    for ti, t in enumerate(ts):
        lam[rows, ti, la] = 1.0 - t
        lam[rows, ti, lb] += t
    svals = vspace.val(lam)                        # (ne, 3, nloc)
    c_loc = np.asarray(u_coeffs, float)[vspace.cell_dofs[left]]
    dirs = vspace.cell_dirs[left]
    uq = np.einsum("el,etl,eld->etd", c_loc, svals, dirs)  # (ne, 3, 2)
    q = np.einsum("etd,ed->et", uq, mesh.edge_normals[e_ids])
    q0, qh, q1 = q[:, 0], q[:, 1], q[:, 2]
    c2 = 2.0 * (q0 + q1 - 2.0 * qh)
    c1 = q1 - q0 - c2
    return e_ids, q0, c1, c2


def upwind_fluxes(mesh: TriMesh, vspace, u_coeffs):
    """Signed flux integrals over interior edges.

    Returns ``(a_plus, a_minus)`` with ``a_plus = integral of [u.n]_+``
    and ``a_minus = integral of [-u.n]_+`` along each interior edge, the
    normal pointing from the lower-numbered (left) cell to the right one.
    The edge is split at the exact roots of the quadratic normal velocity
    so each piece has one sign and three-point Gauss integrates it
    exactly.
    """
    e_ids, c0, c1, c2 = _edge_flux_coeffs(mesh, vspace, u_coeffs)
    ne = len(e_ids)
    if ne == 0:
        return np.zeros(0), np.zeros(0)
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
    lens = mesh.edge_lengths[e_ids]
    return a_plus * lens, a_minus * lens


def upwind_matrix(mesh: TriMesh, vspace, u_coeffs):
    """Cell-to-cell upwind transport operator, one scalar stress component.

    Row K collects the inflow terms a_in * (sigma_K - sigma_upwind) of
    cell K; the quadratic form is nonnegative whenever the transporting
    velocity is discretely divergence-free against cell constants.
    """
    a_plus, a_minus = upwind_fluxes(mesh, vspace, u_coeffs)
    e_ids = mesh.interior_edges
    left = mesh.edge_cells[e_ids, 0]
    right = mesh.edge_cells[e_ids, 1]
    m = mesh.n_cells
    rows = np.concatenate([right, right, left, left])
    cols = np.concatenate([right, left, left, right])
    vals = np.concatenate([a_plus, -a_plus, a_minus, -a_minus])
    return sp.coo_matrix((vals, (rows, cols)), shape=(m, m)).tocsr()


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

    def stress_block(self, state: State, dt: float):
        """The per-step factorization of the cell areas over dt plus the
        upwind transport of the previous velocity; the cut, and k = 1."""
        transport = upwind_matrix(self.mesh, self.v, state.u)
        lu = splu((sp.diags(self.mesh.cell_areas / dt) + transport).tocsc())
        reg, k = self.params.reg, np.ones(self.mesh.n_cells)

        def local_terms(eigs, frame, eta, rho):
            return tc._recompose(tc.beta_delta(eigs, reg), frame), k, 0.0

        return lu, local_terms

