"""Implicit step of the piecewise-linear stress scheme with stress diffusion.

The stress (and, for finite extensibility, an auxiliary trace field) is
continuous piecewise linear; nonlinear expressions enter only through
the vertex-sampling interpolant and the lumped vertex quadrature.  A
small diffusion ``alpha`` replaces the upwind transport of the cellwise
scheme, and the advection is carried by per-cell transport coefficients
built so that the chain rule the energy estimate needs holds exactly,
cell by cell, at the discrete level:

    u . Lambda(q) grad pi_h[g'(q)] = u . grad pi_h[tr h(g'(q))]

for every cell velocity u.  In the reference frame of a cell Lambda is
diagonal: one coefficient C per reference edge, the corner coefficients
(``corner_coefficients``), each satisfying the chain rule along its
edge, ``C : (g'(q_a) - g'(q_c)) = tr h(g'(q_a)) - tr h(g'(q_c))`` for
the edge's ends a and c.  The transport velocity and the geometry are
fixed for a step, so the advection is one sparse map of the corner
coefficients (``advection_map``), built once per step and applied once
per stress iterate and field.  :func:`fenep.verify.chain_rule_residual`
states the chain rule through that map, on the coefficients the step
builds.

Testing the stress and trace equations with the same hat function shows
the integral of ``pi_h[tr(sigma) - rho]`` is conserved to solver
precision at every Picard iterate: the two equations share their matrix
and their frozen source terms contract consistently, the advection terms
vanish against constants and the stiffness matrix annihilates them.

The per-step energy budget adds two diffusion gradient terms to the
dissipation; their lower bound is certified only on meshes with no
obtuse corner (the vertex interpolant of a monotone function of a P1
field has controlled gradients exactly when the stiffness matrix has
nonpositive off-diagonal entries), so the audit marks them uncertified
otherwise and excludes them from the required dissipation.

The implicit step, its right-hand sides, its Picard driver and its
audit are shared with the cellwise scheme (:mod:`fenep.nlsolve`); this
module supplies the two extra budget terms and the stress block: the
scalar matrix (lumped mass over dt plus alpha times the stiffness,
factorized once per dt for the stress components and the trace) and,
per stress iterate, the cut, the coupling weight k and the advection of
the stress and the trace.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import tensorcalc as tc
from .energy import tensor_gradient_energy
from .fespaces import cell_mean_velocity, velocity_stiffness
from .meshing import REF_GRADS, TriMesh
from .nlsolve import LU_OPTIONS, ImplicitScheme, State
from .params import ModelParams

__all__ = [
    "InitialReport",
    "TimeStepWarning",
    "SchemeP1Diff",
    "corner_coefficients",
    "advection_map",
]


#: the theory covers dt <= DT_CAP_CSTAR * alpha^(1 + DT_CAP_ZETA) * h^2
DT_CAP_CSTAR = 1.0
DT_CAP_ZETA = 1.0


class TimeStepWarning(UserWarning):
    """The step size exceeds the range the convergence theory covers."""


# ---------------------------------------------------------------------------
# transport coefficients


def _lambda_pair(a: tc.TensorNodes, c: tc.TensorNodes) -> np.ndarray:
    """The matching-weight combination of beta(a) and beta(c)."""
    d_tr = a.tr_h - c.tr_h
    d_gp = a.gprime - c.gprime
    num = d_tr - tc.ddot(a.beta, d_gp)
    den = tc.ddot(c.beta - a.beta, d_gp)
    scale = tc.frob_norm(c.beta - a.beta) * tc.frob_norm(d_gp)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(np.abs(den) > 1e-13 * scale + 1e-300, num / den, 0.0)
    lam = np.clip(np.nan_to_num(lam, nan=0.0), 0.0, 1.0)
    return (1.0 - lam)[..., None] * a.beta + lam[..., None] * c.beta


def corner_coefficients(cells, nodes, rp: tc.RegParams):
    """Per-cell transport coefficients, one per reference edge of a cell.

    ``nodes`` holds what the coefficients of a vertex field depend on:
    its :func:`fenep.tensorcalc.tensor_nodes` (a tensor field) or
    ``g'`` of it (a scalar field, :func:`fenep.tensorcalc.g_delta`).
    The vertex values are evaluated once, per vertex, and only gathered
    to the ``cells`` (n_cells, 3) here.  Entry [k, j] belongs to the
    pair (a, c) of vertices j + 1 and 0 of cell k, the edge along
    reference direction j; a tensor field gives (n_cells, 2, 3), a
    scalar field (n_cells, 2).  The scalar coefficient is the divided
    difference of ``h`` between ``g'(a)`` and ``g'(c)``, ``beta(a)`` at
    coincidence and always between ``beta(a)`` and ``beta(c)``.  The
    tensor coefficient is the convex combination ``(1 - lam) beta(a) +
    lam beta(c)`` whose weight, clipped to [0, 1], is fixed by

        C : (g'(a) - g'(c)) = tr h(g'(a)) - tr h(g'(c));

    coincident ends, or a vanishing matching denominator, give
    ``beta(a)``.  The step advects with them through
    :func:`advection_map`.
    """
    if isinstance(nodes, tc.TensorNodes):
        corner0 = nodes.take(cells[:, 0])
        hat = [_lambda_pair(nodes.take(cells[:, j]), corner0) for j in (1, 2)]
    else:
        hat = [tc._h_delta_dd(nodes[cells[:, j]], nodes[cells[:, 0]], rp)
               for j in (1, 2)]
    return np.stack(hat, axis=1)


def advection_map(mesh: TriMesh, u_cell) -> sp.csr_matrix:
    """Sparse map from corner coefficients to vertex advection terms.

    Shape (n_vertices, 2 n_cells): ``advection_map(mesh, u_cell) @
    corner_coefficients(...).reshape(2 * n_cells, -1)`` is the hat
    function test of the advection, ``sum_K u_K . Lambda_K grad(eta_l)``
    over the cells K at vertex l, for the cell velocity integrals
    ``u_cell`` (n_cells, 2).  The weight of coefficient j in the row of
    local vertex l is ``grad(lambda_{j+1}) . u_K`` times entry j of the
    reference gradient of ``lambda_l``; four of the six are nonzero.
    So the transpose takes a vertex field f to ``(grad(lambda_{j+1}) .
    u_K) (f_{j+1} - f_0)``, the change of ``pi_h f`` along edge j.
    """
    vel = np.einsum("kjm,km->kj", mesh.bary_grads[:, 1:], u_cell)
    loc, ref = np.nonzero(REF_GRADS)
    rows = mesh.cells[:, loc]
    cols = 2 * np.arange(mesh.n_cells)[:, None] + ref
    vals = vel[:, ref] * REF_GRADS[loc, ref]
    return sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(mesh.n_vertices, 2 * mesh.n_cells))


# ---------------------------------------------------------------------------
# the scheme


class SchemeP1Diff(ImplicitScheme):
    """Operator cache and step driver for the diffusive linear-stress scheme.

    Velocity/pressure pairs: the mini element (default) or the quadratic
    element against continuous linear pressure.
    """

    VELOCITIES = ("velocity_mini", "velocity_p2")
    PRESSURE = "pressure_p1"

    def __init__(self, mesh: TriMesh, params: ModelParams, *,
                 velocity: str | None = None, forcing=None):
        if params.alpha is None:
            raise ValueError("this scheme requires a diffusion alpha > 0")
        super().__init__(mesh, params, velocity=velocity, forcing=forcing)
        self.k_scalar = velocity_stiffness(mesh, self.q)

    def check_step_size(self, dt: float) -> None:
        cap = (DT_CAP_CSTAR * self.params.alpha ** (1.0 + DT_CAP_ZETA)
               * self.mesh.h_max ** 2)
        if dt > cap * (1.0 + 1e-12):
            warnings.warn(
                f"dt={dt:.3g} exceeds the theory-covered range "
                f"{cap:.3g} (= C* alpha^(1+zeta) h^2); the energy audit "
                "still runs but convergence guarantees do not apply",
                TimeStepWarning, stacklevel=3)

    @property
    def carries_trace(self) -> bool:
        return not self.params.oldroyd_b

    def _initial_report(self, samples, eigs, audit) -> InitialReport:
        """The vertex range check of the projected stress, whose
        eigenvalues are ``eigs`` and whose bounds ``audit`` holds."""
        w_data = tc.eig_sym(samples)[0]
        low = float(w_data[..., 0].min())
        high = float(w_data[..., 1].max())
        trace = float(tc.trace(samples).max())
        tol = 1e-9 * (1.0 + abs(high))
        return InitialReport(
            data_min_eig=low, data_max_eig=high, data_max_trace=trace,
            bounds_hold=bool(audit.min_eig_sigma >= low - tol
                             and float(eigs[:, 1].max()) <= high + tol
                             and audit.max_trace_sigma <= trace + tol))

    # -- one implicit step ------------------------------------------------------

    def stress_block(self, state: State, dt: float):
        """The factorization of lumped/dt + alpha * stiffness, kept across
        steps of one size, and the local terms.  The transport velocity is
        explicit, so the advection is one :func:`advection_map` per step
        of the corner coefficients of the stress and of the trace."""
        prm, reg = self.params, self.params.reg
        lu = self._cached("scalar", (dt, prm.alpha), lambda: splu(
            (sp.diags(self.weights / dt) + prm.alpha * self.k_scalar).tocsc(),
            **LU_OPTIONS))
        amap = advection_map(self.mesh, cell_mean_velocity(
            self.mesh, self.v, state.u))
        cells = self.mesh.cells

        def local_terms(eigs, frame, eta, rho):
            nodes = tc.tensor_nodes(eigs, frame, reg)
            adv = amap @ corner_coefficients(cells, nodes,
                                             reg).reshape(-1, 3)
            if rho is not None:
                lam_r = corner_coefficients(
                    cells, tc.g_delta(1.0 - rho / prm.b, reg)[1], reg)
                adv = np.column_stack(
                    [adv, -(prm.b * (amap @ lam_r.reshape(-1)))])
            return nodes.beta, tc.k_delta_of_beta(nodes.beta, eta, reg), adv

        return lu, local_terms

    def _extra_audit_terms(self, eigs, frame, rho, dt: float) -> dict:
        """Diffusion gradient terms of the budget; g'(sigma) is recomposed
        in the ``frame`` of the audited stress."""
        prm, k = self.params, self.k_scalar
        scale = dt * prm.alpha * prm.eps * prm.delta ** 2 / (2.0 * prm.wi)
        gp = tc._recompose(tc.g_delta(eigs, prm.reg)[1], frame)
        terms = {"diffusion_sigma": scale * tensor_gradient_energy(k, gp),
                 "certified_gradient_terms": self.mesh.non_obtuse}
        if rho is not None:
            _, gp_tr = tc.g_delta(1.0 - rho / prm.b, prm.reg)
            terms["diffusion_rho"] = (scale * prm.b
                                      * tensor_gradient_energy(k, gp_tr))
        return terms


@dataclass(frozen=True)
class InitialReport:
    """Vertexwise range check of the projected initial stress.

    On non-obtuse meshes (``TriMesh.non_obtuse``) the smoothed projection
    cannot widen the eigenvalue range of the data nor raise its largest
    trace; elsewhere the comparison is reported but carries no guarantee.
    The report holds the range of the data and ``bounds_hold``, whether
    the vertex values stay inside it up to ``1e-9 (1 + |data_max_eig|)``.
    The projected stress's own smallest eigenvalue and largest trace are
    the initial state's ``audit.min_eig_sigma`` and ``max_trace_sigma``.
    """

    data_min_eig: float
    data_max_eig: float
    data_max_trace: float
    bounds_hold: bool
