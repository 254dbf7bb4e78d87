"""Implicit step of the piecewise-linear stress scheme with stress diffusion.

The stress (and, for finite extensibility, an auxiliary trace field) is
continuous piecewise linear; nonlinear expressions enter only through
the vertex-sampling interpolant and the lumped vertex quadrature.  A
small diffusion ``alpha`` replaces the upwind transport of the cellwise
scheme, and the advection is carried by per-cell transport coefficients
Lambda (``lambda_transport``) built so that the chain rule the energy
estimate needs holds exactly, cell by cell, at the discrete level:

    sum_p Lambda_{m,p}(q) d_p pi_h[g'(q)] = d_m pi_h[h(g'(q))].

Lambda is ``B^{-1}`` and ``B`` of the cell's affine map around two
corner coefficients, one per reference edge (``corner_coefficients``).
The oracles (``fenep verify`` and the acceptance checks) test the chain
rule on Lambda itself.  The step never forms it: the transport velocity
and the geometry are fixed for a step, so the advection is one sparse
map of the corner coefficients (``advection_map``), built once per step
and applied once per stress iterate and field.

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
from .fespaces import cell_mean_velocity, scalar_stiffness
from .meshing import REF_GRADS, TriMesh, audit_mesh
from .nlsolve import ImplicitScheme, State
from .params import ModelParams

__all__ = [
    "InitialReport",
    "TimeStepWarning",
    "SchemeP1Diff",
    "lambda_scalar",
    "lambda_matrix",
    "lambda_transport",
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


def lambda_scalar(a, c, rp: tc.RegParams):
    """Scalar transport coefficient for the vertex pair values (a, c).

    The divided difference of ``h`` between ``g'(a)`` and ``g'(c)``; it
    satisfies ``lambda * (g'(a) - g'(c)) = h(g'(a)) - h(g'(c))`` exactly
    and collapses to ``beta(a)`` at coincidence.  Always within the
    closed interval between ``beta(a)`` and ``beta(c)``.
    """
    return tc._h_delta_dd(tc.g_delta(a, rp)[1], tc.g_delta(c, rp)[1], rp)


def lambda_matrix(phi_a, phi_c, rp: tc.RegParams):
    """Tensor transport coefficient for a vertex pair of tensors.

    A convex combination ``(1 - lam) beta(phi_a) + lam beta(phi_c)``
    whose weight is fixed by the trace chain-rule matching condition

        Lambda : (g'(phi_a) - g'(phi_c)) = tr h(g'(phi_a)) - tr h(g'(phi_c));

    the weight lies in [0, 1] in exact arithmetic and is clipped there.
    Coincident arguments (or a vanishing matching denominator) give
    ``beta(phi_a)``.
    """
    return _lambda_pair(tc.tensor_nodes(*tc.eig_sym(phi_a), rp),
                        tc.tensor_nodes(*tc.eig_sym(phi_c), rp))


def corner_coefficients(mesh: TriMesh, nodes, rp: tc.RegParams):
    """Per-cell transport coefficients in the reference frame of each cell.

    ``nodes`` is the :func:`fenep.tensorcalc.transport_nodes` of the
    field: the vertex values are evaluated once, per vertex, and only
    gathered to the cells here, where each cell pairs its vertices 1
    and 2 with vertex 0 through :func:`lambda_matrix` (tensor) or
    :func:`lambda_scalar` (scalar) arithmetic.  Entry [k, j] belongs to
    the pair (j + 1, 0), the edge along reference direction j; a tensor
    field gives (n_cells, 2, 3), a scalar field (n_cells, 2).  The step
    advects with them through :func:`advection_map`;
    :func:`lambda_transport` expands them to physical coordinates.
    """
    cells = mesh.cells
    if isinstance(nodes, tc.TensorNodes):
        corner0 = nodes.take(cells[:, 0])
        hat = [_lambda_pair(nodes.take(cells[:, j]), corner0) for j in (1, 2)]
    else:
        hat = [tc._h_delta_dd(nodes[cells[:, j]], nodes[cells[:, 0]], rp)
               for j in (1, 2)]
    return np.stack(hat, axis=1)


def lambda_transport(mesh: TriMesh, nodes, rp: tc.RegParams):
    """Per-cell transport coefficients of a vertex field, physical frame.

    The :func:`corner_coefficients` mapped by ``B^{-1}`` and ``B``: for
    a tensor field (n_vertices, 3) returns (n_cells, 2, 2, 3); for a
    scalar field (n_vertices,) returns (n_cells, 2, 2).  Entry [k, m, p]
    multiplies the m-th transport velocity component against the p-th
    test derivative.  A constant field yields ``beta(value) * delta_mp``.
    The discrete chain rule is stated on this form, so it is what
    ``fenep verify`` and the acceptance checks test; the step never
    builds it.
    """
    binv = mesh.affine_Binv          # rows j, columns m: (B^{-1})_{jm}
    lam_hat = corner_coefficients(mesh, nodes, rp)
    if lam_hat.ndim == 3:
        return np.einsum("kjm,kpj,kjc->kmpc", binv, mesh.affine_B, lam_hat)
    return np.einsum("kjm,kpj,kj->kmp", binv, mesh.affine_B, lam_hat)


def advection_map(mesh: TriMesh, u_cell) -> sp.csr_matrix:
    """Sparse map from corner coefficients to vertex advection terms.

    Shape (n_vertices, 2 n_cells): ``advection_map(mesh, u_cell) @
    corner_coefficients(...).reshape(2 * n_cells, -1)`` is the hat
    function test of the advection, ``sum_K u_K . Lambda_K grad(eta_l)``
    over the cells K at vertex l, for the cell velocity integrals
    ``u_cell`` (n_cells, 2).  Since ``B^T grad(lambda_l)`` is the
    reference gradient of the barycentric coordinate, the weight of
    coefficient j in the row of local vertex l is ``(B^{-1} u_K)_j``
    times that gradient's entry j; four of the six are nonzero.
    """
    vel = np.einsum("kjm,km->kj", mesh.affine_Binv, u_cell)  # reference frame
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
        self.k_scalar = scalar_stiffness(mesh)
        self.non_obtuse = audit_mesh(mesh).non_obtuse

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

    def _initial_report(self, samples, sig, eigs) -> InitialReport:
        """The vertex range check of ``sig`` (eigenvalues ``eigs``)."""
        w_data = tc.eig_sym(samples)[0]
        return InitialReport(
            non_obtuse=self.non_obtuse,
            data_min_eig=float(w_data[..., 0].min()),
            data_max_eig=float(w_data[..., 1].max()),
            data_max_trace=float(tc.trace(samples).max()),
            vertex_min_eig=float(eigs[:, 0].min()),
            vertex_max_eig=float(eigs[:, 1].max()),
            vertex_max_trace=float(tc.trace(sig).max()))

    # -- one implicit step ------------------------------------------------------

    def stress_block(self, state: State, dt: float):
        """The factorization of lumped/dt + alpha * stiffness, kept across
        steps of one size, and the local terms.  The transport velocity is
        explicit, so the advection is one :func:`advection_map` per step
        of the corner coefficients of the stress and of the trace."""
        prm, reg = self.params, self.params.reg
        lu = self._cached("scalar", (dt, prm.alpha), lambda: splu(
            (sp.diags(self.weights / dt) + prm.alpha * self.k_scalar).tocsc()))
        amap = advection_map(self.mesh, cell_mean_velocity(
            self.mesh, self.v, state.u))

        def local_terms(eigs, frame, eta, rho):
            nodes = tc.tensor_nodes(eigs, frame, reg)
            adv = amap @ corner_coefficients(self.mesh, nodes,
                                             reg).reshape(-1, 3)
            if rho is not None:
                lam_r = corner_coefficients(
                    self.mesh, tc.transport_nodes(1.0 - rho / prm.b, reg), reg)
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
                 "certified_gradient_terms": self.non_obtuse}
        if rho is not None:
            _, gp_tr = tc.g_delta(1.0 - rho / prm.b, prm.reg)
            terms["diffusion_rho"] = (scale * prm.b
                                      * tensor_gradient_energy(k, gp_tr))
        return terms


@dataclass(frozen=True)
class InitialReport:
    """Vertexwise range check of the projected initial stress.

    On non-obtuse meshes the smoothed projection cannot widen the
    eigenvalue range of the data nor raise its largest trace; elsewhere
    the comparison is reported but carries no guarantee.
    """

    non_obtuse: bool
    data_min_eig: float
    data_max_eig: float
    data_max_trace: float
    vertex_min_eig: float
    vertex_max_eig: float
    vertex_max_trace: float

    @property
    def bounds_hold(self) -> bool:
        tol = 1e-9 * (1.0 + abs(self.data_max_eig))
        return bool(self.vertex_min_eig >= self.data_min_eig - tol
                    and self.vertex_max_eig <= self.data_max_eig + tol
                    and self.vertex_max_trace <= self.data_max_trace + tol)
