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
two factorized linear solves.

``delta_continuation`` re-solves one step under a halving sequence of
regularization cuts; once the answer stagnates while staying positive
definite with trace below the extensibility bound, the regularization is
certifiably inactive at that resolution.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import tensorcalc as tc
from .energy import (audit_slack, audit_step, free_energy,
                     relaxation_dissipation)
from .fespaces import (DiscreteField, build_space, cell_mean_gradient,
                       divergence_matrix, gauss01, grad_coupling_load,
                       pressure_integral_vector, triangle_rule, velocity_load,
                       velocity_mass, velocity_stiffness, convection_matrix)
from .meshing import TriMesh
from .nlsolve import PicardConfig, SaddleOperator, SolverError, picard_solve
from .params import ModelParams

__all__ = [
    "StateP0",
    "SchemeP0",
    "step_p0",
    "upwind_fluxes",
    "upwind_matrix",
    "upwind_edge_term",
    "SpdAudit",
    "spd_audit",
    "ContinuationReport",
    "delta_continuation",
]

#: pointwise normal velocities below this are treated as zero flux
FLUX_FLOOR = 1e-14


@dataclass
class StateP0:
    u: DiscreteField
    p: DiscreteField
    sigma: np.ndarray  # (n_cells, 3) symmetric tensors
    t: float = 0.0


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
    svals = vspace.scalar_val(lam)                        # (ne, 3, nloc)
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


def upwind_edge_term(mesh: TriMesh, vspace, u_coeffs, sigma, edge: int):
    """Transport contributions of one edge to its two cell residuals.

    Returns ``(contrib_left, contrib_right)``, each a length-3 component
    vector added to the stress equation of the respective cell.  Boundary
    edges carry no flux under the no-flow condition and return zeros.
    """
    sigma = np.asarray(sigma, float)
    zeros = np.zeros(3)
    if mesh.is_boundary_edge[edge]:
        return zeros, zeros
    pos = int(np.searchsorted(mesh.interior_edges, edge))
    a_plus, a_minus = upwind_fluxes(mesh, vspace, u_coeffs)
    kl, kr = mesh.edge_cells[edge]
    jump = sigma[kr] - sigma[kl]
    return -a_minus[pos] * jump, a_plus[pos] * jump


# ---------------------------------------------------------------------------
# positivity / bound diagnostics


@dataclass(frozen=True)
class SpdAudit:
    min_eig: float
    max_trace: float
    positive: bool
    within_bound: bool


def spd_audit(sigma, b: float = math.inf) -> SpdAudit:
    """Smallest eigenvalue and largest trace over a tensor field."""
    sigma = np.asarray(sigma, float)
    w, _ = tc.eig_sym(sigma)
    mn = float(w[..., 0].min())
    mx = float(tc.trace(sigma).max())
    return SpdAudit(mn, mx, mn > 0.0, mx < b)


# ---------------------------------------------------------------------------
# the scheme


class SchemeP0:
    """Operator cache and step driver for the cellwise-stress scheme.

    Velocity/pressure pairs: the quadratic or reduced-quadratic velocity
    against piecewise-constant pressure.  Constant pressures are what
    make the per-cell divergence integrals vanish, which the transport
    term's energy neutrality relies on, so other pressure spaces are
    rejected.
    """

    VELOCITIES = ("velocity_p2", "velocity_p2_reduced")

    def __init__(self, mesh: TriMesh, params: ModelParams, *,
                 velocity: str = "velocity_p2",
                 pressure: str = "pressure_p0", forcing=None):
        if velocity not in self.VELOCITIES:
            raise ValueError(
                f"velocity kind {velocity!r} is not supported here; "
                f"choose one of {self.VELOCITIES}")
        if pressure != "pressure_p0":
            raise ValueError(
                "the cellwise-stress scheme requires pressure_p0")
        self.mesh = mesh
        self.params = params
        self.v = build_space(mesh, velocity)
        self.q = build_space(mesh, pressure)
        self.stress = build_space(mesh, "stress_p0_sym")
        self.mass = velocity_mass(mesh, self.v)
        self.stiff = velocity_stiffness(mesh, self.v)
        self.div = divergence_matrix(mesh, self.v, self.q)
        self.mean_p = pressure_integral_vector(mesh, self.q)
        self.free = np.nonzero(~self.v.dirichlet_mask)[0]
        self.b_free = self.div[:, self.free].tocsr()
        self.forcing = forcing
        self.fvec = (velocity_load(mesh, self.v, forcing)
                     if forcing is not None else np.zeros(self.v.n_dofs))

    # -- initial data --------------------------------------------------------

    def initial_state(self, u0=None, sigma0=None) -> StateP0:
        """Project initial data into the scheme's spaces.

        The velocity is L2-projected onto the discretely divergence-free
        subspace (a mass-matrix saddle solve); the stress is averaged
        cellwise.  ``u0``/``sigma0`` are callables of coordinate arrays,
        ``sigma0`` may also be a single tensor or a per-cell array, and
        both default to rest and identity.
        """
        mesh, v = self.mesh, self.v
        u = np.zeros(v.n_dofs)
        if u0 is not None:
            load = velocity_load(mesh, v, u0)
            m_ff = self.mass[self.free][:, self.free]
            op = SaddleOperator(m_ff, self.b_free, self.mean_p)
            u_f, _ = op.solve(load[self.free])
            u[self.free] = u_f
        if sigma0 is None:
            sig = np.tile(tc.IDENTITY, (mesh.n_cells, 1))
        elif callable(sigma0):
            rule = triangle_rule(6)
            pts = np.einsum("qj,kjd->kqd", rule.points, mesh.vertices[mesh.cells])
            comps = sigma0(pts[..., 0], pts[..., 1])
            vals = np.stack(np.broadcast_arrays(*comps), axis=-1)
            sig = np.einsum("kqc,q->kc", vals, rule.weights)
        else:
            arr = np.asarray(sigma0, float)
            sig = (np.tile(arr, (mesh.n_cells, 1)) if arr.shape == (3,)
                   else arr.copy())
            if sig.shape != (mesh.n_cells, 3):
                raise ValueError("sigma0 must be (3,) or (n_cells, 3)")
        return StateP0(DiscreteField(v, u),
                       DiscreteField(self.q, np.zeros(self.q.n_dofs)),
                       sig, 0.0)

    # -- one implicit step ----------------------------------------------------

    def step(self, state: StateP0, dt: float,
             config: PicardConfig | None = None):
        """Advance one step; returns (state, solve report, energy audit).

        Raises :class:`SolverError` when the Picard iteration fails, with
        the report attached as ``exc.report``.
        """
        cfg = config or PicardConfig()
        problem = _P0Step(self, state, dt)
        x, report = picard_solve(problem, problem.x0, cfg)
        if not report.converged:
            err = SolverError(
                f"step at t={state.t:.6g} (dt={dt:.3g}) did not converge: "
                f"residual {report.residual:.3e} after {report.iterations} "
                f"iterations (damping {report.damping:.3g})")
            err.report = report
            raise err
        u, p, sig = problem.split(x)

        prm = self.params
        f_before = free_energy(prm, self.mesh, self.mass,
                               state.u.values, state.sigma, layout="cell")
        f_after = free_energy(prm, self.mesh, self.mass, u, sig, layout="cell")
        du = u - state.u.values
        kinetic_jump = 0.5 * prm.re * float(du @ (self.mass @ du))
        viscous = dt * (1.0 - prm.eps) * float(u @ (self.stiff @ u))
        relax = dt * relaxation_dissipation(prm, self.mesh.cell_areas, sig)
        forcing = dt * float(self.fvec @ u)
        spd = spd_audit(sig, prm.b)
        audit = audit_step(
            f_before.total, f_after.total,
            kinetic_jump=kinetic_jump, viscous=viscous, relaxation=relax,
            forcing=forcing,
            slack=audit_slack(cfg.tol, f_before.total, f_after.total),
            min_eig_sigma=spd.min_eig, max_trace_sigma=spd.max_trace)
        new_state = StateP0(DiscreteField(self.v, u),
                            DiscreteField(self.q, p), sig, state.t + dt)
        return new_state, report, audit


class _P0Step:
    """Factorized operators of one implicit step, exposed to the driver."""

    def __init__(self, scheme: SchemeP0, state: StateP0, dt: float):
        self.scheme = scheme
        self.dt = dt
        prm = scheme.params
        mesh = scheme.mesh
        u_prev = state.u.values
        self.u_prev = u_prev
        self.sigma_prev = state.sigma
        free = scheme.free

        conv = convection_matrix(mesh, scheme.v, u_prev)
        a_mat = (prm.re / dt) * scheme.mass + prm.re * conv \
            + (1.0 - prm.eps) * scheme.stiff
        self.a_ff = a_mat[free][:, free].tocsr()
        self.b_f = scheme.b_free
        self.saddle = SaddleOperator(self.a_ff, self.b_f, scheme.mean_p)

        areas = mesh.cell_areas
        transport = upwind_matrix(mesh, scheme.v, u_prev)
        s_mat = sp.diags(areas / dt) + transport
        self.stress_lu = splu(s_mat.tocsc())
        self.s_mat = s_mat.tocsr()
        self.areas = areas

        self.n_u = scheme.v.n_dofs
        self.n_p = scheme.q.n_dofs
        self.m = mesh.n_cells
        self.x0 = self.pack(u_prev, state.p.values, state.sigma)
        self.scale = float(np.linalg.norm(self.x0)) + 1.0
        self.rhs_u_base = (prm.re / dt) * (scheme.mass @ u_prev) + scheme.fvec

    def pack(self, u, p, sig):
        return np.concatenate([u, p, np.asarray(sig).T.ravel()])

    def split(self, x):
        u = x[:self.n_u]
        p = x[self.n_u:self.n_u + self.n_p]
        sig = x[self.n_u + self.n_p:].reshape(3, self.m).T
        return u, p, sig

    def _rhs_u(self, sig):
        prm = self.scheme.params
        flux = tc.relax_flux(sig, tc.trace(sig), prm.reg)
        coupling = grad_coupling_load(self.scheme.mesh, self.scheme.v,
                                      flux, "cell")
        return self.rhs_u_base - (prm.eps / prm.wi) * coupling, flux

    def _stress_rhs(self, u, sig, flux):
        """Per-component right sides with frozen coefficient fields."""
        prm = self.scheme.params
        grad_int = cell_mean_gradient(self.scheme.mesh, self.scheme.v, u)
        beta = tc.to_full(tc.beta_delta_mat(sig, prm.reg))
        prod = grad_int @ beta
        src = np.stack([
            2.0 * prod[:, 0, 0],
            prod[:, 0, 1] + prod[:, 1, 0],
            2.0 * prod[:, 1, 1],
        ], axis=1)
        return (self.areas[:, None] * (self.sigma_prev / self.dt
                                       - flux / prm.wi) + src)

    def sweep(self, x):
        _, _, sig = self.split(x)
        free = self.scheme.free
        rhs_u, flux = self._rhs_u(sig)
        u_f, p_new = self.saddle.solve(rhs_u[free])
        u_new = np.zeros(self.n_u)
        u_new[free] = u_f
        rhs_s = self._stress_rhs(u_new, sig, flux)
        sig_new = np.empty_like(sig)
        for c in range(3):
            sig_new[:, c] = self.stress_lu.solve(rhs_s[:, c])
        return self.pack(u_new, p_new, sig_new)

    def residual(self, x):
        u, p, sig = self.split(x)
        free = self.scheme.free
        rhs_u, flux = self._rhs_u(sig)
        u_f = u[free]
        r_u = rhs_u[free] - self.a_ff @ u_f - self.b_f.T @ p
        r_div = -(self.b_f @ u_f)
        e_u, e_p = self.saddle.solve(r_u, r_div)
        total = float(e_u @ e_u + e_p @ e_p)
        rhs_s = self._stress_rhs(u, sig, flux)
        for c in range(3):
            r_c = rhs_s[:, c] - self.s_mat @ sig[:, c]
            e_c = self.stress_lu.solve(r_c)
            total += float(e_c @ e_c)
        return math.sqrt(total)


def step_p0(scheme: SchemeP0, state: StateP0, dt: float,
            config: PicardConfig | None = None):
    """Functional alias for :meth:`SchemeP0.step`."""
    return scheme.step(state, dt, config)


# ---------------------------------------------------------------------------
# regularization continuation


@dataclass
class ContinuationReport:
    deltas: list
    diffs: list
    state: StateP0
    stagnated: bool
    spd: SpdAudit


def delta_continuation(mesh: TriMesh, params: ModelParams, state: StateP0,
                       dt: float, *, velocity: str = "velocity_p2",
                       forcing=None, delta_start: float = 0.25,
                       delta_min: float = 1.0 / 256.0,
                       stag_tol: float = 1e-8,
                       config: PicardConfig | None = None) -> ContinuationReport:
    """Solve the same step under a halving regularization cut.

    Stops once successive solutions differ by less than ``stag_tol`` in
    the max norm (or ``delta_min`` is reached) and reports the positivity
    diagnostics of the final stress; stagnation plus a positive audit
    means the cut no longer binds and the unregularized step was solved.
    """
    deltas, diffs = [], []
    prev_vec = None
    last = None
    d = delta_start
    while d >= delta_min * (1.0 - 1e-12):
        prm = dataclasses.replace(params, delta=d)
        scheme = SchemeP0(mesh, prm, velocity=velocity, forcing=forcing)
        new_state, _, _ = scheme.step(state, dt, config)
        vec = np.concatenate([new_state.u.values, new_state.sigma.ravel()])
        deltas.append(d)
        if prev_vec is not None:
            diffs.append(float(np.max(np.abs(vec - prev_vec))))
        prev_vec, last = vec, new_state
        if diffs and diffs[-1] < stag_tol:
            break
        d *= 0.5
    return ContinuationReport(
        deltas, diffs, last,
        stagnated=bool(diffs and diffs[-1] < stag_tol),
        spd=spd_audit(last.sigma, params.b))
