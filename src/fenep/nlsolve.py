"""The implicit step shared by both schemes: saddle solves, the block
sweep and the damped Picard driver.

Each time step is a coupled implicit system for velocity, pressure and
stress (plus the auxiliary trace in the diffusive scheme).  Both schemes
give it one shape, written once here as :class:`BlockStep`: a Stokes-type
saddle block for velocity and pressure, with convection frozen at the
previous velocity, and k scalar blocks (the three stress components, and
the trace when the scheme carries one) that share one factorized matrix.
The schemes supply only that matrix and the right-hand sides of the two
kinds of block; :class:`ImplicitScheme` holds the operators, the step and
its energy audit common to both.

The saddle block is split as ``Re/dt M + (1-eps) K + Re C(u_prev)``.  The
first two terms depend on the step size and the parameters alone, so
their saddle matrix with ``B`` is factorized once per step size and kept
on the scheme; only the convection ``C(u_prev)``, the one velocity
operator that changes from step to step, is assembled per step, on a
fixed sparsity pattern (the Picard/Oseen splitting of Elman, Silvester
and Wathen, *Finite Elements and Fast Iterative Solvers*, 2014).

The step is exposed to the driver as a fixed-point problem: one
``sweep`` performs a block Gauss-Seidel pass through the factorized
linear blocks with the other fields frozen, the convection lagged at
the velocity of the iterate, and ``residual`` evaluates the monolithic
implicit residual at a state, convection included, preconditioned
block-wise by the same factorized operators so its entries carry the
units of the unknowns themselves.  Lagging the convection changes the
path of the iteration, not its fixed point.  Everything that depends on
the stress iterate alone (its spectral decomposition, the relaxation
flux, the momentum coupling and the transport terms) is computed once
per iterate: the residual computes it, and the sweep that follows from
the same iterate reuses it.

The driver blends each sweep with a relaxation factor chosen two ways:
a secant (Aitken) update estimates the dominant contraction factor from
successive increments and jumps to the blend that cancels it, and a
backtracking loop halves the factor whenever the preconditioned residual
would grow, down to a floor.  At the floor the step is accepted anyway
so slowly contracting problems still make progress, with a divergence
guard aborting runs whose residual blows up.  The implicit relaxation
term makes the bare fixed-point map stiff at large steps (its factor
scales like dt/Wi over the squared distance to the trace bound), which
is exactly the regime the adaptive blend is there for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .energy import (EnergyBreakdown, audit_slack, audit_step, free_energy,
                     relaxation_dissipation, spd_audit)
from .fespaces import (DiscreteField, build_space, convection_matrix,
                       gradient_matrix, gradient_trace,
                       pressure_integral_vector, velocity_load,
                       velocity_mass, velocity_pattern, velocity_stiffness)

__all__ = [
    "SolverError",
    "PicardConfig",
    "SolveReport",
    "SaddleOperator",
    "picard_solve",
    "State",
    "BlockStep",
    "ImplicitScheme",
]


class SolverError(RuntimeError):
    """The nonlinear (or linear) solve failed to produce a usable state."""


class SaddleOperator:
    """Factorized Stokes-type saddle system with a zero-mean pressure.

    The system is ``[[A, B^T], [B, 0]]`` with the pressure determined up
    to a constant.  The factorized matrix is ``[[A, B0^T], [B0, 0]]``,
    where ``B0`` is ``B`` without the row of pressure dof 0: that dof is
    pinned to zero, and after each solve the pressure is shifted by the
    constant that gives ``mean_vec . p = 0``.  ``A`` acts on the free
    (non-Dirichlet) velocity dofs only; constrained dofs stay zero.

    Dropping the row is exact for compatible data.  With the boundary
    velocity dofs removed, constant pressures lie in the kernel of
    ``B^T`` (``1^T B = 0``): the rows of ``B`` sum to zero, so the
    dropped row is implied by the kept ones whenever the pressure data
    sums to zero, as the divergence residual ``-B u`` always does.
    Bordering the system with a multiplier for the mean instead would
    add a dense row and column that defeat the fill-reducing ordering
    of the LU.
    """

    def __init__(self, a_mat, b_mat, mean_vec):
        a_mat = sp.csr_matrix(a_mat)
        b_mat = sp.csr_matrix(b_mat)
        self.n_u = a_mat.shape[0]
        self.n_p = b_mat.shape[0]
        if b_mat.shape[1] != self.n_u:
            raise ValueError("velocity dimensions of A and B disagree")
        mean = np.asarray(mean_vec, float).reshape(self.n_p)
        self._mean_weights = mean / mean.sum()
        b_kept = b_mat[1:]
        k = sp.bmat([[a_mat, b_kept.T], [b_kept, None]], format="csc")
        try:
            self._lu = splu(k)
        except RuntimeError as exc:
            raise SolverError(f"saddle matrix factorization failed: {exc}") from exc

    def solve(self, rhs_u, rhs_p=None):
        rhs = np.zeros(self.n_u + self.n_p - 1)
        rhs[:self.n_u] = rhs_u
        if rhs_p is not None:
            rhs[self.n_u:] = np.asarray(rhs_p)[1:]
        sol = self._lu.solve(rhs)
        if not np.all(np.isfinite(sol)):
            raise SolverError("saddle solve produced non-finite values")
        p = np.concatenate([[0.0], sol[self.n_u:]])
        p -= self._mean_weights @ p
        return sol[:self.n_u], p


@dataclass(frozen=True)
class PicardConfig:
    tol: float = 1e-10
    max_iters: int = 200
    min_damping: float = 1.0 / 16.0
    divergence_factor: float = 1e8


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    residual: float
    damping: float
    history: list = field(default_factory=list)


def picard_solve(problem, x0, config: PicardConfig | None = None):
    """Damped block Gauss-Seidel fixed-point iteration.

    ``problem`` provides ``sweep(x) -> x_new`` (one pass through the
    factorized blocks), ``residual(x) -> float`` (preconditioned
    monolithic residual) and a ``scale`` attribute fixing the absolute
    convergence threshold ``tol * scale``.

    Returns ``(x, SolveReport)``; inspect ``report.converged``.
    """
    cfg = config or PicardConfig()
    x = np.asarray(x0, float).copy()
    r = problem.residual(x)
    threshold = cfg.tol * problem.scale
    guard = cfg.divergence_factor * (r + threshold)
    history = [r]
    omega = 1.0
    incr_prev = None
    omega_prev = None

    for it in range(1, cfg.max_iters + 1):
        if r <= threshold:
            return x, SolveReport(True, it - 1, r, omega, history)
        x_raw = problem.sweep(x)
        incr = x_raw - x
        if incr_prev is not None:
            diff = incr - incr_prev
            denom = float(diff @ diff)
            if denom > 0.0:
                est = -omega_prev * float(incr_prev @ diff) / denom
                omega = min(max(est, cfg.min_damping), 1.0)
        while True:
            x_try = x + omega * incr
            r_try = problem.residual(x_try)
            if r_try <= r * (1.0 + 1e-12) or omega <= cfg.min_damping:
                break
            omega = max(0.5 * omega, cfg.min_damping)
        incr_prev = incr
        omega_prev = omega
        x, r = x_try, r_try
        history.append(r)
        if not np.isfinite(r) or r > guard:
            return x, SolveReport(False, it, r, omega, history)

    return x, SolveReport(r <= threshold, cfg.max_iters, r, omega, history)


# ---------------------------------------------------------------------------
# the implicit step shared by both schemes


@dataclass
class State:
    """One time level of either scheme.

    ``sigma`` holds symmetric tensors (n, 3), one per cell or per vertex;
    ``rho`` is the auxiliary trace field of the diffusive scheme under a
    finite extensibility bound, else None.  ``energy`` is the free energy
    of the state under the parameters of the scheme that made it; the
    next step takes it as its starting energy, and computes that value
    itself only when ``energy`` is None.
    """

    u: DiscreteField
    p: DiscreteField
    sigma: np.ndarray
    rho: np.ndarray | None = None
    t: float = 0.0
    energy: EnergyBreakdown | None = None


class BlockStep:
    """Factorized operators of one implicit step, exposed to the driver.

    The unknowns are the velocity, the pressure and k scalar fields on
    the m stress nodes: the three tensor components, plus the trace
    field when the state carries one.  They are packed as
    ``[u, p, scalars.T.ravel()]`` with ``scalars`` of shape (m, k).  The
    velocity/pressure block is the scheme's :class:`SaddleOperator` of
    ``Re/dt M + (1-eps) K`` with ``B``, factorized once per step size
    (:meth:`ImplicitScheme.saddle_operator`); the step adds only the
    convection ``c_ff = Re C(u_prev)`` on the free dofs, which the sweep
    moves to its right-hand side at the velocity of the iterate and the
    residual applies in its matvec.  The k scalar blocks share one
    matrix, which a subclass sets as ``s_mat`` with its factorization
    ``scalar_lu`` after this constructor.  On the first step of a step
    size the saddle matrix is therefore factored first (factoring the
    small matrix first raised the peak memory of a run by a few MB).
    Factorizations held across steps raise the floor under every later
    peak, so the convection fills the data array of a fixed pattern
    instead of assembling through COO temporaries.

    Subclasses give the right-hand sides with the other fields frozen:
    ``stress_terms(sig, rho) -> (rhs_u, frozen)`` computes everything
    that depends on the stress iterate alone (the momentum right-hand
    side and whatever ``frozen`` holds for the scalar blocks), and
    ``rhs_scalars(u, frozen)`` adds the velocity-dependent deformation
    term to give the (m, k) scalar right-hand sides.

    The stress terms are computed once per iterate.  The driver sweeps
    from the iterate whose residual it evaluated last, so the sweep
    reuses the residual's terms from a one-entry cache keyed on a copy
    of the (m, k) scalar block.  The key is compared by value; an
    iterate holding NaN never equals it and is always recomputed.
    """

    def __init__(self, scheme: ImplicitScheme, state: State, dt: float):
        self.scheme = scheme
        self.dt = dt
        prm = scheme.params
        u_prev = state.u.values
        self.sigma_prev = state.sigma
        self.rho_prev = state.rho
        self.free = scheme.free
        self.b_f = scheme.b_free
        self.b_ft = scheme.b_free_t

        self.a_ff, self.saddle = scheme.saddle_operator(dt)
        # Re C(u_prev) on the free dofs; filled in place, no second a_ff
        self.c_ff = convection_matrix(scheme.mesh, scheme.v, u_prev,
                                      scheme.free_pattern)
        self.c_ff.data *= prm.re
        self.rhs_u_base = (prm.re / dt) * (scheme.mass @ u_prev) + scheme.fvec

        self.n_u = scheme.v.n_dofs
        self.n_up = self.n_u + scheme.q.n_dofs
        self.m = len(state.sigma)
        self.k = 3 if state.rho is None else 4
        scalars = (state.sigma if state.rho is None
                   else np.column_stack([state.sigma, state.rho]))
        self.x0 = self.pack(u_prev, state.p.values, scalars)
        self.scale = float(np.linalg.norm(self.x0)) + 1.0
        self._terms_key = None
        self._terms = None

    def pack(self, u, p, scalars):
        return np.concatenate([u, p, np.asarray(scalars).T.ravel()])

    def _scalars(self, x):
        return x[self.n_up:].reshape(self.k, self.m).T

    def split(self, x):
        """Views ``(u, p, sigma, rho)`` of an iterate; rho is None if k = 3."""
        s = self._scalars(x)
        rho = s[:, 3] if self.k == 4 else None
        return x[:self.n_u], x[self.n_u:self.n_up], s[:, :3], rho

    def _stress_terms(self, x):
        scalars = self._scalars(x)
        if not np.array_equal(self._terms_key, scalars):
            _, _, sig, rho = self.split(x)
            self._terms = self.stress_terms(sig, rho)
            self._terms_key = scalars.copy()
        return self._terms

    def sweep(self, x):
        rhs_u, frozen = self._stress_terms(x)
        u_lag = x[:self.n_u][self.free]
        u_f, p_new = self.saddle.solve(rhs_u[self.free] - self.c_ff @ u_lag)
        u_new = np.zeros(self.n_u)
        u_new[self.free] = u_f
        scalars = self.scalar_lu.solve(self.rhs_scalars(u_new, frozen))
        if not np.all(np.isfinite(scalars)):
            raise SolverError("scalar solve produced non-finite values")
        return self.pack(u_new, p_new, scalars)

    def residual(self, x):
        u, p, _, _ = self.split(x)
        rhs_u, frozen = self._stress_terms(x)
        u_f = u[self.free]
        r_u = (rhs_u[self.free] - self.a_ff @ u_f - self.c_ff @ u_f
               - self.b_ft @ p)
        r_div = -(self.b_f @ u_f)
        e_u, e_p = self.saddle.solve(r_u, r_div)
        total = float(e_u @ e_u + e_p @ e_p)
        r_s = self.rhs_scalars(u, frozen) - self.s_mat @ self._scalars(x)
        for e_c in self.scalar_lu.solve(r_s).T:
            total += float(e_c @ e_c)
        return math.sqrt(total)


class ImplicitScheme:
    """Operators, free energy and the audited implicit step of a scheme.

    A subclass names its spaces (``VELOCITIES``, ``PRESSURE``) and the
    quadrature of its stress fields (``LAYOUT`` for
    :func:`fenep.energy.free_energy` and the matching ``weights``), and
    supplies ``_block_step(state, dt)``, the :class:`BlockStep` of one
    step.  ``_extra_audit_terms`` adds scheme-specific terms to the
    energy budget.

    Operators that depend on the step size are factorized on the first
    step that needs them and kept in a one-entry cache per operator
    (:meth:`_cached`), keyed on everything the matrix reads: the saddle
    matrix on ``(dt, re, eps)``, the diffusive scheme's scalar matrix on
    ``(dt, alpha)``.  A step at a new key replaces the entry; a change of
    the regularization ``delta`` alone keeps it.

    The stress nodes are tested by the pressure space (cell constants in
    the cellwise scheme, hat functions in the diffusive one), so
    ``grad``, the :func:`fenep.fespaces.gradient_matrix` of the velocity
    against the pressure space, serves both halves of the coupling that
    cancels in the energy estimate: ``grad_t @ W`` is the momentum term
    ``integral( W : grad(v) )`` and ``grad @ u`` the tested velocity
    gradient of the stress equation's deformation term.  Its trace rows
    are the divergence ``div``.  ``grad_t`` and ``b_free_t`` are the
    transposes, bound once as views that share the arrays.
    """

    def __init__(self, mesh, params, velocity: str, pressure: str, forcing):
        if velocity not in self.VELOCITIES:
            raise ValueError(
                f"velocity kind {velocity!r} is not supported here; "
                f"choose one of {self.VELOCITIES}")
        if pressure != self.PRESSURE:
            raise ValueError(
                f"{type(self).__name__} requires {self.PRESSURE}")
        self.mesh = mesh
        self.params = params
        self.v = build_space(mesh, velocity)
        self.q = build_space(mesh, pressure)
        self.mass = velocity_mass(mesh, self.v)
        self.stiff = velocity_stiffness(mesh, self.v)
        self.grad = gradient_matrix(mesh, self.v, self.q)
        self.div = gradient_trace(self.grad)
        self.mean_p = pressure_integral_vector(mesh, self.q)
        self.free = np.nonzero(~self.v.dirichlet_mask)[0]
        self.b_free = self.div[:, self.free].tocsr()
        self.grad_t = self.grad.T
        self.b_free_t = self.b_free.T
        self.forcing = forcing
        self.fvec = (velocity_load(mesh, self.v, forcing)
                     if forcing is not None else np.zeros(self.v.n_dofs))
        self._cache = {}

    def _cached(self, name: str, key, build):
        """The value ``build()`` made for ``key``, kept until the key changes.

        The old value is dropped before the new one is built, so two
        factorizations of one operator are never held at once.
        """
        if name not in self._cache or self._cache[name][0] != key:
            self._cache.pop(name, None)
            self._cache[name] = (key, build())
        return self._cache[name][1]

    def saddle_operator(self, dt: float):
        """``(a_ff, saddle)``: ``Re/dt M + (1-eps) K`` on the free dofs and
        its factorized saddle matrix with ``B``."""
        prm = self.params

        def build():
            a_mat = (prm.re / dt) * self.mass + (1.0 - prm.eps) * self.stiff
            a_ff = a_mat[self.free][:, self.free].tocsr()
            del a_mat  # freed before the factorization, the memory peak
            return a_ff, SaddleOperator(a_ff, self.b_free, self.mean_p)

        return self._cached("saddle", (dt, prm.re, prm.eps), build)

    @cached_property
    def free_pattern(self):
        """Fixed free x free pattern of the per-step convection."""
        return velocity_pattern(self.v, self.free)

    def _free_energy(self, u, sigma, rho) -> EnergyBreakdown:
        return free_energy(self.params, self.mesh, self.mass, u, sigma, rho,
                           layout=self.LAYOUT)

    def _extra_audit_terms(self, sig, rho, dt: float) -> dict:
        return {}

    def step(self, state: State, dt: float,
             config: PicardConfig | None = None):
        """Advance one step; returns (state, solve report, energy audit).

        Raises :class:`SolverError` when the Picard iteration fails, with
        the report attached as ``exc.report``.
        """
        cfg = config or PicardConfig()
        problem = self._block_step(state, dt)
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
        f_before = state.energy
        if f_before is None:
            f_before = self._free_energy(state.u.values, state.sigma,
                                         state.rho)
        f_after = self._free_energy(u, sig, rho)
        du = u - state.u.values
        relax = relaxation_dissipation(prm, self.weights, sig, rho)
        spd = spd_audit(sig, prm.b)
        audit = audit_step(
            f_before.total, f_after.total,
            kinetic_jump=0.5 * prm.re * float(du @ (self.mass @ du)),
            viscous=dt * (1.0 - prm.eps) * float(u @ (self.stiff @ u)),
            relaxation=dt * relax, forcing=dt * float(self.fvec @ u),
            slack=audit_slack(cfg.tol, f_before.total, f_after.total),
            min_eig_sigma=spd.min_eig, max_trace_sigma=spd.max_trace,
            **self._extra_audit_terms(sig, rho, dt))
        new_state = State(DiscreteField(self.v, u), DiscreteField(self.q, p),
                          sig, rho, state.t + dt, f_after)
        return new_state, report, audit
