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

The implicit step, its Picard driver and its audit are the skeleton
shared with the cellwise scheme (:mod:`fenep.nlsolve`); this module
supplies the scalar matrix (lumped mass over dt plus alpha times the
stiffness, factorized once per dt for the stress components and the
trace), the right-hand sides and the two extra budget terms.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import tensorcalc as tc
from .energy import tensor_gradient_energy
from .fespaces import (cell_mean_velocity, lumped_weights, scalar_stiffness,
                       triangle_rule, velocity_load)
from .meshing import REF_GRADS, TriMesh, audit_mesh
from .nlsolve import BlockStep, ImplicitScheme, State
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
    "transport_nodes",
    "TensorNodes",
]


#: the theory covers dt <= DT_CAP_CSTAR * alpha^(1 + DT_CAP_ZETA) * h^2
DT_CAP_CSTAR = 1.0
DT_CAP_ZETA = 1.0


class TimeStepWarning(UserWarning):
    """The step size exceeds the range the convergence theory covers."""


# ---------------------------------------------------------------------------
# transport coefficients


class TensorNodes(NamedTuple):
    """Vertex values of a tensor field that fix its transport coefficients."""

    beta: np.ndarray      # beta_delta(phi), (..., 3)
    gprime: np.ndarray    # g_delta'(phi), (..., 3)
    tr_h: np.ndarray      # tr h_delta(g_delta'(phi)), (...)

    def take(self, idx) -> TensorNodes:
        return TensorNodes(self.beta[idx], self.gprime[idx], self.tr_h[idx])


def _tensor_nodes(phi, rp: tc.RegParams) -> TensorNodes:
    w, v = tc.eig_sym(phi)
    _, gp_w = tc.g_delta(w, rp)
    return TensorNodes(tc._recompose(tc.beta_delta(w, rp), v),
                       tc._recompose(gp_w, v),
                       tc.h_delta(gp_w, rp).sum(axis=-1))


def transport_nodes(field, rp: tc.RegParams):
    """Per-vertex values the transport coefficients of a field depend on.

    A tensor field (n, 3) gives its :class:`TensorNodes`, all from one
    spectral decomposition per vertex; a scalar field (n,) gives
    ``g'(field)``.  :func:`corner_coefficients` gathers them to the cells.
    """
    field = np.asarray(field, float)
    if field.ndim == 2:
        return _tensor_nodes(field, rp)
    return tc.g_delta(field, rp)[1]


def _lambda_pair(a: TensorNodes, c: TensorNodes) -> np.ndarray:
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
    return _lambda_pair(_tensor_nodes(phi_a, rp), _tensor_nodes(phi_c, rp))


def corner_coefficients(mesh: TriMesh, nodes, rp: tc.RegParams):
    """Per-cell transport coefficients in the reference frame of each cell.

    ``nodes`` is the :func:`transport_nodes` of the field: the vertex
    values are evaluated once, per vertex, and only gathered to the
    cells here, where each cell pairs its vertices 1 and 2 with vertex 0
    through :func:`lambda_matrix` (tensor) or :func:`lambda_scalar`
    (scalar) arithmetic.  Entry [k, j] belongs to the pair (j + 1, 0),
    the edge along reference direction j; a tensor field gives
    (n_cells, 2, 3), a scalar field (n_cells, 2).  The step advects
    with them through :func:`advection_map`; :func:`lambda_transport`
    expands them to physical coordinates.
    """
    cells = mesh.cells
    if isinstance(nodes, TensorNodes):
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
                 velocity: str = "velocity_mini",
                 pressure: str = "pressure_p1", forcing=None):
        if params.alpha is None:
            raise ValueError("this scheme requires a diffusion alpha > 0")
        super().__init__(mesh, params, velocity, pressure, forcing)
        self.weights = lumped_weights(mesh)
        self.k_scalar = scalar_stiffness(mesh)
        self.non_obtuse = audit_mesh(mesh).non_obtuse

    def scalar_operator(self, dt: float):
        """The factorization of the shared matrix lumped/dt + alpha *
        stiffness."""
        alpha = self.params.alpha

        def build():
            return splu((sp.diags(self.weights / dt)
                         + alpha * self.k_scalar).tocsc())

        return self._cached("scalar", (dt, alpha), build)

    def check_step_size(self, dt: float) -> None:
        cap = (DT_CAP_CSTAR * self.params.alpha ** (1.0 + DT_CAP_ZETA)
               * self.mesh.h_max ** 2)
        if dt > cap * (1.0 + 1e-12):
            warnings.warn(
                f"dt={dt:.3g} exceeds the theory-covered range "
                f"{cap:.3g} (= C* alpha^(1+zeta) h^2); the energy audit "
                "still runs but convergence guarantees do not apply",
                TimeStepWarning, stacklevel=4)

    # -- initial data ----------------------------------------------------------

    def project_initial(self, dt0: float, u0=None, sigma0=None):
        """Smoothed projections of the initial data; see the module notes.

        Velocity and stress each solve one linear system mixing an L2
        match with ``dt0`` times a stiffness term; the auxiliary trace
        starts as the exact vertex trace of the projected stress.
        Returns ``(state, InitialReport)``; the report checks the
        vertexwise eigenvalue and trace bounds that hold on non-obtuse
        meshes.
        """
        mesh, v = self.mesh, self.v
        u = np.zeros(v.n_dofs)
        if u0 is not None:
            a_mat = (self.mass + dt0 * self.stiff)[self.free][:, self.free]
            load = velocity_load(mesh, v, u0)[self.free]
            u_f = splu(a_mat.tocsc()).solve(load)
            u[self.free] = u_f

        s_mat = (sp.diags(self.weights) + dt0 * self.k_scalar).tocsc()
        lu = splu(s_mat)
        rhs, data_vals = _stress_data_moments(mesh, sigma0)
        sig = np.stack([lu.solve(rhs[:, c]) for c in range(3)], axis=1)
        rho = None if self.params.oldroyd_b else tc.trace(sig)

        w_data, _ = tc.eig_sym(data_vals)
        w_vert, _ = tc.eig_sym(sig)        # the one decomposition of the state
        report = InitialReport(
            non_obtuse=self.non_obtuse,
            data_min_eig=float(w_data[..., 0].min()),
            data_max_eig=float(w_data[..., 1].max()),
            data_max_trace=float(tc.trace(data_vals).max()),
            vertex_min_eig=float(w_vert[..., 0].min()),
            vertex_max_eig=float(w_vert[..., 1].max()),
            vertex_max_trace=float(tc.trace(sig).max()))
        return self._start(u, sig, rho, w_vert), report

    # -- one implicit step ------------------------------------------------------

    def _block_step(self, state: State, dt: float) -> BlockStep:
        self.check_step_size(dt)
        return _P1Step(self, state, dt)

    def _extra_audit_terms(self, eigs, vecs, rho, dt: float) -> dict:
        """Diffusion gradient terms of the budget; g'(sigma) is recomposed
        in the eigenframe ``vecs`` of the audited stress."""
        prm, k = self.params, self.k_scalar
        scale = dt * prm.alpha * prm.eps * prm.delta ** 2 / (2.0 * prm.wi)
        gp = tc._recompose(tc.g_delta(eigs, prm.reg)[1], vecs)
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


def _stress_data_moments(mesh: TriMesh, sigma0):
    """Hat-function moments of the stress data and its sampled values.

    Returns ``(rhs, samples)`` with ``rhs[v, c] = integral(sigma0_c eta_v)``
    and ``samples`` the data tensors at the quadrature points used (for
    range reporting).
    """
    rule = triangle_rule(6)
    if sigma0 is None:
        vals = np.tile(tc.IDENTITY, (mesh.n_cells, len(rule.weights), 1))
    elif callable(sigma0):
        pts = np.einsum("qj,kjd->kqd", rule.points, mesh.vertices[mesh.cells])
        comps = sigma0(pts[..., 0], pts[..., 1])
        vals = np.stack(np.broadcast_arrays(*comps), axis=-1)
    else:
        arr = np.asarray(sigma0, float)
        if arr.shape != (3,):
            raise ValueError("sigma0 must be callable or a single tensor (3,)")
        vals = np.tile(arr, (mesh.n_cells, len(rule.weights), 1))
    cellvals = np.einsum("qj,kqc,q->kjc", rule.points, vals, rule.weights)
    cellvals = cellvals * mesh.cell_areas[:, None, None]
    rhs = np.zeros((mesh.n_vertices, 3))
    np.add.at(rhs, mesh.cells.ravel(), cellvals.reshape(-1, 3))
    return rhs, vals


class _P1Step(BlockStep):
    """Diffusive vertex blocks: k = 3 stress components, plus the trace."""

    def __init__(self, scheme: SchemeP1Diff, state: State, dt: float):
        super().__init__(scheme, state, dt)
        self.scalar_lu = scheme.scalar_operator(dt)
        # the transport velocity is explicit in the previous velocity, so
        # the advection is one fixed linear map of the corner coefficients
        self.adv_map = advection_map(
            scheme.mesh, cell_mean_velocity(scheme.mesh, scheme.v,
                                            state.u.values))

    def stress_terms(self, sig, rho):
        prm = self.scheme.params
        mesh = self.scheme.mesh
        w = self.scheme.weights
        eta = rho if rho is not None else tc.trace(sig)
        nodes = transport_nodes(sig, prm.reg)         # the one decomposition
        flux = tc.relax_flux_of_beta(nodes.beta, eta, prm.reg)
        kv = tc.k_delta_of_beta(nodes.beta, eta, prm.reg)
        coupling = (self.scheme.grad_t
                    @ tc.to_full(kv[:, None] * flux).reshape(-1))
        rhs_u = self.rhs_u_base - (prm.eps / prm.wi) * coupling

        lam_hat = corner_coefficients(mesh, nodes, prm.reg)      # (M, 2, 3)
        adv = self.adv_map @ lam_hat.reshape(-1, 3)
        fixed = w[:, None] * (self.sigma_prev / self.dt - flux / prm.wi)
        if rho is not None:
            lam_s = corner_coefficients(
                mesh, transport_nodes(1.0 - rho / prm.b, prm.reg), prm.reg)
            adv_r = self.adv_map @ lam_s.reshape(-1)
            fixed_r = w * (self.rho_prev / self.dt - tc.trace(flux) / prm.wi)
            fixed = np.column_stack([fixed, fixed_r])
            adv = np.column_stack([adv, -(prm.b * adv_r)])
        return rhs_u, (kv, tc.to_full(nodes.beta), fixed, adv)

    def rhs_scalars(self, u, frozen):
        """Right sides of the component and trace solves, frozen fields."""
        kv, beta, fixed, adv = frozen
        g_v = (self.scheme.grad @ u).reshape(self.m, 2, 2)
        prod = g_v @ beta                             # (n, 2, 2)
        sym = np.stack([prod[:, 0, 0],
                        0.5 * (prod[:, 0, 1] + prod[:, 1, 0]),
                        prod[:, 1, 1]], axis=1)
        defo = 2.0 * kv[:, None] * sym
        if self.k == 4:
            tr_defo = 2.0 * kv * (prod[:, 0, 0] + prod[:, 1, 1])
            defo = np.column_stack([defo, tr_defo])
        return fixed + defo + adv
