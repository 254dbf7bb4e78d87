"""Free energy evaluation and the per-step dissipation audit.

The schemes guarantee, step by step, that the discrete free energy plus
the accumulated dissipation stays below the previous energy plus the
work done by the body force.  This module evaluates both sides of that
budget from the very operators and coefficient vectors the solver used,
so a passing audit certifies the computed state rather than a separately
discretized approximation of it.  The audit record also carries the
stress bounds of the state, its smallest eigenvalue and largest trace.

Conventions: the free energy is

    F = (Re/2) |u|^2  +  (eps / 2 Wi) * integral(entropy density)

with the entropy density of :func:`fenep.tensorcalc.entropy_density`
(regularized, nonnegative at admissible states).  The integral is the
weighted sum over the stress nodes with the scheme's quadrature
``weights``: the cell areas of the cellwise scheme, the lumped vertex
weights of the diffusive one.

Every stress quantity the audit needs is a spectral function of the
stress plus the trace variable ``eta``, so the functions here take the
eigenvalues ``eigs`` (n, 2) of :func:`fenep.tensorcalc.eig_sym` rather
than the tensors: a caller decomposes each audited state once and hands
the same spectrum to every term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensorcalc as tc
from .params import ModelParams

__all__ = [
    "EnergyBreakdown",
    "StepAudit",
    "free_energy",
    "relaxation_integrand",
    "relaxation_dissipation",
    "tensor_gradient_energy",
    "audit_slack",
]


@dataclass(frozen=True)
class EnergyBreakdown:
    kinetic: float
    entropy: float

    @property
    def total(self) -> float:
        return self.kinetic + self.entropy


def free_energy(params: ModelParams, weights, mass_mat, u_coeffs,
                eigs, eta) -> EnergyBreakdown:
    """Discrete free energy of a state.

    ``eigs`` (n, 2) are the eigenvalues of the stress at the n nodes of
    the quadrature ``weights``; ``eta`` is the auxiliary trace field
    where the scheme carries one, else the trace of the stress.
    """
    u = np.asarray(u_coeffs, float)
    kinetic = 0.5 * params.re * float(u @ (mass_mat @ u))
    dens = tc.entropy_density(eigs, eta, params.reg)
    entropy = params.eps / (2.0 * params.wi) * float(weights @ dens)
    return EnergyBreakdown(kinetic, entropy)


def relaxation_integrand(params: ModelParams, eigs, eta) -> np.ndarray:
    """Pointwise tr(A^2 beta) with A the regularized relaxation tensor.

    This is the quantity whose weighted sum, scaled by eps / (2 Wi^2),
    the energy estimate collects as relaxation dissipation.  A and beta
    are spectral functions of the same stress, so they commute and from its
    eigenvalues ``eigs`` it is ``sum_i (c - g'(w_i))^2 max(w_i, delta)``
    with ``c = g'(1 - eta/b)`` (1 in the Oldroyd-B limit).  Nonnegative
    for every argument.
    """
    rp = params.reg
    eigs = np.asarray(eigs, float)
    beta = tc.beta_delta(eigs, rp)
    coef = 1.0 / tc.beta_delta(1.0 - np.asarray(eta, float) / rp.b, rp)
    return ((coef[..., None] - 1.0 / beta) ** 2 * beta).sum(axis=-1)


def relaxation_dissipation(params: ModelParams, weights, eigs, eta) -> float:
    """Weighted relaxation dissipation rate eps/(2 Wi^2) * sum(w * tr(A^2 beta))."""
    vals = relaxation_integrand(params, eigs, eta)
    return params.eps / (2.0 * params.wi ** 2) * float(np.asarray(weights) @ vals)


def tensor_gradient_energy(stiffness, field) -> float:
    """|grad field|^2 through a symmetric scalar stiffness matrix K (CSR).

    ``field`` is (n,) for a scalar or (n, 3) for a symmetric tensor in
    (xx, xy, yy) components, where the Frobenius norm doubles the
    off-diagonal contribution.  The rows of K sum to zero, so ``f^T K f
    = -1/2 sum_ab K_ab (f_a - f_b)^2`` over its stored entries, which is
    how it is summed: a field constant up to rounding gives that rounding
    squared, and on a non-obtuse mesh, where K is at most zero off the
    diagonal, a value that is never negative.
    """
    field = np.asarray(field, float)
    jumps = (np.repeat(field, np.diff(stiffness.indptr), axis=0)
             - np.take(field, stiffness.indices, axis=0)) ** 2
    if field.ndim == 2:
        jumps = jumps @ tc._DDOT_WEIGHTS
    return -0.5 * float(stiffness.data @ jumps)


def audit_slack(tol: float, f_before: float, f_after: float) -> float:
    """Tolerance granted to the budget check, covering solver residuals."""
    return max(1e-8, 100.0 * tol * (abs(f_before) + abs(f_after) + 1.0))


@dataclass(frozen=True, kw_only=True)
class StepAudit:
    """Outcome of one free-energy budget check.

    ``margin`` is (income) - (outgo): previous energy plus forcing work
    plus slack, minus new energy and the certified dissipation terms.
    Nonnegative margin means the step respected its energy estimate.
    When ``certified_gradient_terms`` is False (obtuse cells present),
    the diffusion gradient terms carry no guarantee and are excluded
    from the required dissipation; they are still reported.  All
    dissipation fields are per-step totals (already multiplied by the
    step length), taken from the assembled operators of the scheme; the
    terms a scheme does not have default to zero.  ``min_eig_sigma`` and
    ``max_trace_sigma`` are the bounds of the new stress.
    """

    f_before: float
    f_after: float
    kinetic_jump: float
    viscous: float
    relaxation: float
    diffusion_sigma: float = 0.0
    diffusion_rho: float = 0.0
    forcing: float = 0.0
    slack: float
    certified_gradient_terms: bool = True
    trace_balance: float = 0.0
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
        """The margin is finite and nonnegative."""
        return bool(0.0 <= self.margin < np.inf)

