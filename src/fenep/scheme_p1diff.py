"""Implicit step of the piecewise-linear stress scheme with stress diffusion.

The stress (and, for finite extensibility, an auxiliary trace field) is
continuous piecewise linear; nonlinear expressions enter only through
the vertex-sampling interpolant and the lumped vertex quadrature.  A
small diffusion ``alpha`` replaces the upwind transport of the cellwise
scheme, and the advection is carried by per-cell transport coefficients
(``lambda_transport``) built so that the chain rule the energy estimate
needs holds exactly, cell by cell, at the discrete level:

    sum_p Lambda_{m,p}(q) d_p pi_h[g'(q)] = d_m pi_h[h(g'(q))].

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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import tensorcalc as tc
from .energy import (audit_slack, audit_step, free_energy,
                     relaxation_dissipation, tensor_gradient_energy)
from .fespaces import (DiscreteField, build_space, cell_mean_velocity,
                       convection_matrix, divergence_matrix,
                       grad_coupling_load, lumped_weights,
                       pressure_integral_vector, scalar_stiffness,
                       triangle_rule, velocity_load, velocity_mass,
                       velocity_stiffness, vertex_weighted_gradient)
from .meshing import TriMesh, audit_mesh
from .nlsolve import PicardConfig, SaddleOperator, SolverError, picard_solve
from .params import ModelParams

__all__ = [
    "StateP1",
    "InitialReport",
    "TimeStepWarning",
    "SchemeP1Diff",
    "project_initial",
    "step_p1diff",
    "lambda_scalar",
    "lambda_matrix",
    "lambda_transport",
]


class TimeStepWarning(UserWarning):
    """The step size exceeds the range the convergence theory covers."""


@dataclass
class StateP1:
    u: DiscreteField
    p: DiscreteField
    sigma: np.ndarray          # (n_vertices, 3)
    rho: np.ndarray | None     # (n_vertices,), None without a trace bound
    t: float = 0.0


# ---------------------------------------------------------------------------
# transport coefficients


def lambda_scalar(a, c, rp: tc.RegParams):
    """Scalar transport coefficient for the vertex pair values (a, c).

    The divided difference of ``h`` between ``g'(a)`` and ``g'(c)``; it
    satisfies ``lambda * (g'(a) - g'(c)) = h(g'(a)) - h(g'(c))`` exactly
    and collapses to ``beta(a)`` at coincidence.  Always within the
    closed interval between ``beta(a)`` and ``beta(c)``.
    """
    _, gpa = tc.g_delta(a, rp)
    _, gpc = tc.g_delta(c, rp)
    return tc._h_delta_dd(gpa, gpc, rp)


def lambda_matrix(phi_a, phi_c, rp: tc.RegParams):
    """Tensor transport coefficient for a vertex pair of tensors.

    A convex combination ``(1 - lam) beta(phi_a) + lam beta(phi_c)``
    whose weight is fixed by the trace chain-rule matching condition

        Lambda : (g'(phi_a) - g'(phi_c)) = tr h(g'(phi_a)) - tr h(g'(phi_c));

    the weight lies in [0, 1] in exact arithmetic and is clipped there.
    Coincident arguments (or a vanishing matching denominator) give
    ``beta(phi_a)``.
    """
    phi_a = np.asarray(phi_a, float)
    phi_c = np.asarray(phi_c, float)
    beta_a = tc.beta_delta_mat(phi_a, rp)
    beta_c = tc.beta_delta_mat(phi_c, rp)
    _, gp_a = tc.g_delta_mat(phi_a, rp)
    _, gp_c = tc.g_delta_mat(phi_c, rp)

    def tr_h_of_gprime(phi):
        w, _ = tc.eig_sym(phi)
        _, gp = tc.g_delta(w, rp)
        return tc.h_delta(gp, rp).sum(axis=-1)

    d_tr = tr_h_of_gprime(phi_a) - tr_h_of_gprime(phi_c)
    d_gp = gp_a - gp_c
    num = d_tr - tc.ddot(beta_a, d_gp)
    den = tc.ddot(beta_c - beta_a, d_gp)
    scale = tc.frob_norm(beta_c - beta_a) * tc.frob_norm(d_gp)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(np.abs(den) > 1e-13 * scale + 1e-300, num / den, 0.0)
    lam = np.clip(np.nan_to_num(lam, nan=0.0), 0.0, 1.0)
    return (1.0 - lam)[..., None] * beta_a + lam[..., None] * beta_c


def lambda_transport(mesh: TriMesh, field, rp: tc.RegParams):
    """Per-cell transport coefficients of a vertex field.

    For a tensor field (n_vertices, 3) returns (n_cells, 2, 2, 3); for a
    scalar field (n_vertices,) returns (n_cells, 2, 2).  Entry [k, m, p]
    multiplies the m-th transport velocity component against the p-th
    test derivative.  A constant field yields ``beta(value) * delta_mp``.
    """
    field = np.asarray(field, float)
    cells = mesh.cells
    binv = mesh.affine_Binv          # rows j, columns m: (B^{-1})_{jm}
    bmat = mesh.affine_B
    if field.ndim == 2:
        hat = [lambda_matrix(field[cells[:, j]], field[cells[:, 0]], rp)
               for j in (1, 2)]
        lam_hat = np.stack(hat, axis=1)               # (M, 2, 3)
        return np.einsum("kjm,kpj,kjc->kmpc", binv, bmat, lam_hat)
    hat = [lambda_scalar(field[cells[:, j]], field[cells[:, 0]], rp)
           for j in (1, 2)]
    lam_hat = np.stack(hat, axis=1)                   # (M, 2)
    return np.einsum("kjm,kpj,kj->kmp", binv, bmat, lam_hat)


# ---------------------------------------------------------------------------
# the scheme


class SchemeP1Diff:
    """Operator cache and step driver for the diffusive linear-stress scheme.

    Velocity/pressure pairs: the mini element (default) or the quadratic
    element against continuous linear pressure.
    """

    VELOCITIES = ("velocity_mini", "velocity_p2")

    def __init__(self, mesh: TriMesh, params: ModelParams, *,
                 velocity: str = "velocity_mini",
                 pressure: str = "pressure_p1", forcing=None,
                 dt_cap_zeta: float = 1.0, dt_cap_cstar: float = 1.0):
        if params.alpha is None:
            raise ValueError("this scheme requires a diffusion alpha > 0")
        if velocity not in self.VELOCITIES:
            raise ValueError(
                f"velocity kind {velocity!r} is not supported here; "
                f"choose one of {self.VELOCITIES}")
        if pressure != "pressure_p1":
            raise ValueError(
                "the diffusive linear-stress scheme requires pressure_p1")
        self.mesh = mesh
        self.params = params
        self.v = build_space(mesh, velocity)
        self.q = build_space(mesh, pressure)
        self.stress = build_space(mesh, "stress_p1_sym")
        self.mass = velocity_mass(mesh, self.v)
        self.stiff = velocity_stiffness(mesh, self.v)
        self.div = divergence_matrix(mesh, self.v, self.q)
        self.mean_p = pressure_integral_vector(mesh, self.q)
        self.free = np.nonzero(~self.v.dirichlet_mask)[0]
        self.b_free = self.div[:, self.free].tocsr()
        self.lumped = lumped_weights(mesh)
        self.k_scalar = scalar_stiffness(mesh)
        self.non_obtuse = audit_mesh(mesh).non_obtuse
        self.forcing = forcing
        self.fvec = (velocity_load(mesh, self.v, forcing)
                     if forcing is not None else np.zeros(self.v.n_dofs))
        self.dt_cap_zeta = dt_cap_zeta
        self.dt_cap_cstar = dt_cap_cstar
        self._scalar_cache: tuple | None = None

    def scalar_operator(self, dt: float):
        """Factorized shared matrix lumped/dt + alpha * stiffness."""
        if self._scalar_cache is not None and self._scalar_cache[0] == dt:
            return self._scalar_cache[1], self._scalar_cache[2]
        s_mat = (sp.diags(self.lumped / dt)
                 + self.params.alpha * self.k_scalar).tocsc()
        lu = splu(s_mat)
        self._scalar_cache = (dt, s_mat.tocsr(), lu)
        return self._scalar_cache[1], self._scalar_cache[2]

    def check_step_size(self, dt: float) -> None:
        cap = (self.dt_cap_cstar
               * self.params.alpha ** (1.0 + self.dt_cap_zeta)
               * self.mesh.h_max ** 2)
        if dt > cap * (1.0 + 1e-12):
            warnings.warn(
                f"dt={dt:.3g} exceeds the theory-covered range "
                f"{cap:.3g} (= C* alpha^(1+zeta) h^2); the energy audit "
                "still runs but convergence guarantees do not apply",
                TimeStepWarning, stacklevel=3)

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

        s_mat = (sp.diags(self.lumped) + dt0 * self.k_scalar).tocsc()
        lu = splu(s_mat)
        rhs, data_vals = _stress_data_moments(mesh, sigma0)
        sig = np.stack([lu.solve(rhs[:, c]) for c in range(3)], axis=1)
        rho = None if self.params.oldroyd_b else tc.trace(sig)

        w_data, _ = tc.eig_sym(data_vals)
        w_vert, _ = tc.eig_sym(sig)
        report = InitialReport(
            non_obtuse=self.non_obtuse,
            data_min_eig=float(w_data[..., 0].min()),
            data_max_eig=float(w_data[..., 1].max()),
            data_max_trace=float(tc.trace(data_vals).max()),
            vertex_min_eig=float(w_vert[..., 0].min()),
            vertex_max_eig=float(w_vert[..., 1].max()),
            vertex_max_trace=float(tc.trace(sig).max()))
        state = StateP1(DiscreteField(v, u),
                        DiscreteField(self.q, np.zeros(self.q.n_dofs)),
                        sig, rho, 0.0)
        return state, report

    # -- one implicit step ------------------------------------------------------

    def step(self, state: StateP1, dt: float,
             config: PicardConfig | None = None):
        """Advance one step; returns (state, solve report, energy audit)."""
        cfg = config or PicardConfig()
        self.check_step_size(dt)
        problem = _P1Step(self, state, dt)
        x, report = picard_solve(problem, problem.x0, cfg)
        if not report.converged:
            err = SolverError(
                f"step at t={state.t:.6g} (dt={dt:.3g}) did not converge: "
                f"residual {report.residual:.3e} after {report.iterations} "
                f"iterations (damping {report.damping:.3g})")
            err.report = report
            raise err
        u, p, sig, rho = problem.split(x)

        prm = self.params
        f_before = free_energy(prm, self.mesh, self.mass, state.u.values,
                               state.sigma, state.rho, layout="vertex")
        f_after = free_energy(prm, self.mesh, self.mass, u, sig, rho,
                              layout="vertex")
        du = u - state.u.values
        kinetic_jump = 0.5 * prm.re * float(du @ (self.mass @ du))
        viscous = dt * (1.0 - prm.eps) * float(u @ (self.stiff @ u))
        eta = rho if rho is not None else tc.trace(sig)
        relax = dt * relaxation_dissipation(prm, self.lumped, sig, eta)
        forcing = dt * float(self.fvec @ u)

        scale = dt * prm.alpha * prm.eps * prm.delta ** 2 / (2.0 * prm.wi)
        _, gp = tc.g_delta_mat(sig, prm.reg)
        diff_sig = scale * tensor_gradient_energy(self.k_scalar, gp)
        if rho is not None:
            _, gp_tr = tc.g_delta(1.0 - rho / prm.b, prm.reg)
            diff_rho = (scale * prm.b
                        * tensor_gradient_energy(self.k_scalar, gp_tr))
            balance = float(self.lumped @ (tc.trace(sig) - rho))
        else:
            diff_rho = 0.0
            balance = 0.0

        w_sig, _ = tc.eig_sym(sig)
        audit = audit_step(
            f_before.total, f_after.total,
            kinetic_jump=kinetic_jump, viscous=viscous, relaxation=relax,
            diffusion_sigma=diff_sig, diffusion_rho=diff_rho,
            forcing=forcing,
            slack=audit_slack(cfg.tol, f_before.total, f_after.total),
            certified_gradient_terms=self.non_obtuse,
            trace_balance=balance,
            min_eig_sigma=float(w_sig[..., 0].min()),
            max_trace_sigma=float(tc.trace(sig).max()))
        new_state = StateP1(DiscreteField(self.v, u),
                            DiscreteField(self.q, p), sig, rho, state.t + dt)
        return new_state, report, audit


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


class _P1Step:
    """Factorized operators of one implicit step, exposed to the driver."""

    def __init__(self, scheme: SchemeP1Diff, state: StateP1, dt: float):
        self.scheme = scheme
        self.dt = dt
        prm = scheme.params
        mesh = scheme.mesh
        u_prev = state.u.values
        self.u_prev = u_prev
        self.sigma_prev = state.sigma
        self.rho_prev = state.rho
        free = scheme.free

        conv = convection_matrix(mesh, scheme.v, u_prev)
        a_mat = (prm.re / dt) * scheme.mass + prm.re * conv \
            + (1.0 - prm.eps) * scheme.stiff
        self.a_ff = a_mat[free][:, free].tocsr()
        self.b_f = scheme.b_free
        self.saddle = SaddleOperator(self.a_ff, self.b_f, scheme.mean_p)
        self.s_mat, self.stress_lu = scheme.scalar_operator(dt)

        # transport velocity moments are explicit in the previous velocity
        self.u_cell = cell_mean_velocity(mesh, scheme.v, u_prev)

        self.n_u = scheme.v.n_dofs
        self.n_p = scheme.q.n_dofs
        self.n_vert = mesh.n_vertices
        self.has_rho = state.rho is not None
        self.x0 = self.pack(u_prev, state.p.values, state.sigma, state.rho)
        self.scale = float(np.linalg.norm(self.x0)) + 1.0
        self.rhs_u_base = (prm.re / dt) * (scheme.mass @ u_prev) + scheme.fvec

    def pack(self, u, p, sig, rho):
        parts = [u, p, np.asarray(sig).T.ravel()]
        if self.has_rho:
            parts.append(rho)
        return np.concatenate(parts)

    def split(self, x):
        n_u, n_p, n = self.n_u, self.n_p, self.n_vert
        u = x[:n_u]
        p = x[n_u:n_u + n_p]
        sig = x[n_u + n_p:n_u + n_p + 3 * n].reshape(3, n).T
        rho = x[n_u + n_p + 3 * n:] if self.has_rho else None
        return u, p, sig, rho

    def _frozen_fields(self, sig, rho):
        prm = self.scheme.params
        eta = rho if rho is not None else tc.trace(sig)
        flux = tc.relax_flux(sig, eta, prm.reg)
        kv = tc.k_delta(sig, eta, prm.reg)
        beta = tc.beta_delta_mat(sig, prm.reg)
        return eta, flux, kv, beta

    def _rhs_u(self, flux, kv):
        prm = self.scheme.params
        coupling = grad_coupling_load(
            self.scheme.mesh, self.scheme.v, kv[:, None] * flux, "vertex")
        return self.rhs_u_base - (prm.eps / prm.wi) * coupling

    def _stress_rhs(self, u, sig, rho, flux, kv, beta):
        """Right sides of the component and trace solves, frozen fields."""
        prm = self.scheme.params
        mesh = self.scheme.mesh
        w = self.scheme.lumped
        g_v = vertex_weighted_gradient(mesh, self.scheme.v, u)
        prod = g_v @ tc.to_full(beta)                 # (n, 2, 2)
        sym = np.stack([prod[:, 0, 0],
                        0.5 * (prod[:, 0, 1] + prod[:, 1, 0]),
                        prod[:, 1, 1]], axis=1)
        defo = 2.0 * kv[:, None] * sym

        lam_t = lambda_transport(mesh, sig, prm.reg)  # (M, 2, 2, 3)
        adv = np.zeros((self.n_vert, 3))
        contrib = np.einsum("km,kmpc,klp->klc",
                            self.u_cell, lam_t, mesh.bary_grads)
        np.add.at(adv, mesh.cells.ravel(), contrib.reshape(-1, 3))

        rhs_sig = (w[:, None] * (self.sigma_prev / self.dt - flux / prm.wi)
                   + defo + adv)
        if rho is None:
            return rhs_sig, None
        lam_s = lambda_transport(mesh, 1.0 - rho / prm.b, prm.reg)
        adv_r = np.zeros(self.n_vert)
        contrib_r = np.einsum("km,kmp,klp->kl",
                              self.u_cell, lam_s, mesh.bary_grads)
        np.add.at(adv_r, mesh.cells.ravel(), contrib_r.ravel())
        tr_flux = tc.trace(flux)
        tr_defo = 2.0 * kv * (prod[:, 0, 0] + prod[:, 1, 1])
        rhs_rho = (w * (self.rho_prev / self.dt - tr_flux / prm.wi)
                   + tr_defo - prm.b * adv_r)
        return rhs_sig, rhs_rho

    def sweep(self, x):
        _, _, sig, rho = self.split(x)
        _, flux, kv, beta = self._frozen_fields(sig, rho)
        free = self.scheme.free
        u_f, p_new = self.saddle.solve(self._rhs_u(flux, kv)[free])
        u_new = np.zeros(self.n_u)
        u_new[free] = u_f
        rhs_sig, rhs_rho = self._stress_rhs(u_new, sig, rho, flux, kv, beta)
        sig_new = np.stack(
            [self.stress_lu.solve(rhs_sig[:, c]) for c in range(3)], axis=1)
        rho_new = self.stress_lu.solve(rhs_rho) if self.has_rho else None
        return self.pack(u_new, p_new, sig_new, rho_new)

    def residual(self, x):
        u, p, sig, rho = self.split(x)
        _, flux, kv, beta = self._frozen_fields(sig, rho)
        free = self.scheme.free
        u_f = u[free]
        r_u = self._rhs_u(flux, kv)[free] - self.a_ff @ u_f - self.b_f.T @ p
        r_div = -(self.b_f @ u_f)
        e_u, e_p = self.saddle.solve(r_u, r_div)
        total = float(e_u @ e_u + e_p @ e_p)
        rhs_sig, rhs_rho = self._stress_rhs(u, sig, rho, flux, kv, beta)
        for c in range(3):
            e_c = self.stress_lu.solve(rhs_sig[:, c] - self.s_mat @ sig[:, c])
            total += float(e_c @ e_c)
        if self.has_rho:
            e_r = self.stress_lu.solve(rhs_rho - self.s_mat @ rho)
            total += float(e_r @ e_r)
        return math.sqrt(total)


def project_initial(scheme: SchemeP1Diff, dt0: float, u0=None, sigma0=None):
    """Functional alias for :meth:`SchemeP1Diff.project_initial`."""
    return scheme.project_initial(dt0, u0, sigma0)


def step_p1diff(scheme: SchemeP1Diff, state: StateP1, dt: float,
                config: PicardConfig | None = None):
    """Functional alias for :meth:`SchemeP1Diff.step`."""
    return scheme.step(state, dt, config)
