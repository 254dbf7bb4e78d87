"""Free energy evaluation and the per-step dissipation audit.

The schemes guarantee, step by step, that the discrete free energy plus
the accumulated dissipation stays below the previous energy plus the
work done by the body force.  This module evaluates both sides of that
budget from the very operators and coefficient vectors the solver used,
so a passing audit certifies the computed state rather than a separately
discretized approximation of it.  ``spd_audit`` adds the positivity and
trace-bound indicators of the stress.

Conventions: the free energy is

    F = (Re/2) |u|^2  +  (eps / 2 Wi) * integral(entropy density)

with the entropy density of :func:`fenep.tensorcalc.entropy_density`
(regularized, nonnegative at admissible states).  The stress layout
``"cell"`` integrates cellwise constants, ``"vertex"`` uses the lumped
vertex rule of the diffusive scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensorcalc as tc
from .fespaces import lumped_weights
from .params import ModelParams

__all__ = [
    "EnergyBreakdown",
    "StepAudit",
    "free_energy",
    "relaxation_integrand",
    "relaxation_dissipation",
    "tensor_gradient_energy",
    "audit_slack",
    "audit_step",
    "SpdAudit",
    "spd_audit",
]


@dataclass(frozen=True)
class EnergyBreakdown:
    kinetic: float
    entropy: float

    @property
    def total(self) -> float:
        return self.kinetic + self.entropy


def free_energy(params: ModelParams, mesh, mass_mat, u_coeffs,
                sigma, eta=None, layout: str = "cell") -> EnergyBreakdown:
    """Discrete free energy of a state.

    ``sigma`` holds symmetric tensors (n, 3); ``eta`` is the auxiliary
    trace field where the scheme carries one, else the trace of sigma.
    """
    u = np.asarray(u_coeffs, float)
    kinetic = 0.5 * params.re * float(u @ (mass_mat @ u))
    sigma = np.asarray(sigma, float)
    if eta is None:
        eta = tc.trace(sigma)
    if layout == "cell":
        w = mesh.cell_areas
    elif layout == "vertex":
        w = lumped_weights(mesh)
    else:
        raise ValueError("layout must be 'cell' or 'vertex'")
    dens = tc.entropy_density(sigma, np.asarray(eta, float), params.reg)
    entropy = params.eps / (2.0 * params.wi) * float(w @ dens)
    return EnergyBreakdown(kinetic, entropy)


def relaxation_integrand(params: ModelParams, sigma, eta=None) -> np.ndarray:
    """Pointwise tr(A^2 beta) with A the regularized relaxation tensor.

    This is the quantity whose weighted sum, scaled by eps / (2 Wi^2),
    the energy estimate collects as relaxation dissipation.  Nonnegative
    for every argument.
    """
    sigma = np.asarray(sigma, float)
    if eta is None:
        eta = tc.trace(sigma)
    rp = params.reg
    a = tc.relax_reg(sigma, np.asarray(eta, float), rp)
    beta = tc.beta_delta_mat(sigma, rp)
    af = tc.to_full(a)
    bf = tc.to_full(beta)
    prod = af @ af @ bf
    return prod[..., 0, 0] + prod[..., 1, 1]


def relaxation_dissipation(params: ModelParams, weights, sigma, eta=None) -> float:
    """Weighted relaxation dissipation rate eps/(2 Wi^2) * sum(w * tr(A^2 beta))."""
    vals = relaxation_integrand(params, sigma, eta)
    return params.eps / (2.0 * params.wi ** 2) * float(np.asarray(weights) @ vals)


def tensor_gradient_energy(stiffness, field) -> float:
    """|grad field|^2 through a scalar stiffness matrix.

    ``field`` is (n,) for a scalar or (n, 3) for a symmetric tensor in
    (xx, xy, yy) components, where the Frobenius norm doubles the
    off-diagonal contribution.
    """
    field = np.asarray(field, float)
    if field.ndim == 1:
        return float(field @ (stiffness @ field))
    total = 0.0
    for c, factor in ((0, 1.0), (1, 2.0), (2, 1.0)):
        col = field[:, c]
        total += factor * float(col @ (stiffness @ col))
    return total


def audit_slack(tol: float, f_before: float, f_after: float) -> float:
    """Tolerance granted to the budget check, covering solver residuals."""
    return max(1e-8, 100.0 * tol * (abs(f_before) + abs(f_after) + 1.0))


@dataclass(frozen=True)
class StepAudit:
    """Outcome of one free-energy budget check.

    ``margin`` is (income) - (outgo): previous energy plus forcing work
    plus slack, minus new energy and the certified dissipation terms.
    Nonnegative margin means the step respected its energy estimate.
    When ``certified_gradient_terms`` is False (obtuse cells present),
    the diffusion gradient terms carry no guarantee and are excluded
    from the required dissipation; they are still reported.
    """

    f_before: float
    f_after: float
    kinetic_jump: float
    viscous: float
    relaxation: float
    diffusion_sigma: float
    diffusion_rho: float
    forcing: float
    slack: float
    certified_gradient_terms: bool
    trace_balance: float
    min_eig_sigma: float
    max_trace_sigma: float

    @property
    def margin(self) -> float:
        required = self.kinetic_jump + self.viscous + self.relaxation
        if self.certified_gradient_terms:
            required += self.diffusion_sigma + self.diffusion_rho
        return (self.f_before + self.forcing + self.slack
                - self.f_after - required)

    @property
    def passed(self) -> bool:
        return bool(self.margin >= 0.0)


def audit_step(f_before: float, f_after: float, *, kinetic_jump: float,
               viscous: float, relaxation: float, diffusion_sigma: float = 0.0,
               diffusion_rho: float = 0.0, forcing: float = 0.0,
               slack: float, certified_gradient_terms: bool = True,
               trace_balance: float = 0.0, min_eig_sigma: float,
               max_trace_sigma: float) -> StepAudit:
    """Assemble a :class:`StepAudit`; see the class for the pass rule.

    All dissipation arguments are per-step totals (already multiplied by
    the step length), taken from the assembled operators of the scheme.
    """
    return StepAudit(
        f_before=float(f_before), f_after=float(f_after),
        kinetic_jump=float(kinetic_jump), viscous=float(viscous),
        relaxation=float(relaxation), diffusion_sigma=float(diffusion_sigma),
        diffusion_rho=float(diffusion_rho), forcing=float(forcing),
        slack=float(slack),
        certified_gradient_terms=bool(certified_gradient_terms),
        trace_balance=float(trace_balance),
        min_eig_sigma=float(min_eig_sigma),
        max_trace_sigma=float(max_trace_sigma))


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
