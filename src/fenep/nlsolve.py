"""The implicit step shared by both schemes: saddle solves, the block
sweep and the damped Picard driver.

Each time step is a coupled implicit system for velocity, pressure and
stress (plus the auxiliary trace in the diffusive scheme).  Both schemes
give it one shape, written once here as :class:`BlockStep`: a Stokes-type
saddle block for velocity and pressure, with convection frozen at the
previous velocity, and k scalar blocks (the three stress components, and
the trace when the scheme carries one) that share one factorized matrix.
The right-hand sides are written once too: both schemes owe their
energy bound to the momentum coupling ``(eps/Wi) (k A beta, grad v)``
cancelling the stress equation's deformation term ``2 k grad(u) beta``
tested with ``A``.  The schemes differ only in the transport of the
stress, which a scheme supplies as its stress block: the factorization
of its scalar matrix and the cut, coupling weight ``k`` and advection of
a stress iterate.  :class:`ImplicitScheme` holds the operators, the
projection of initial data, the step and its energy audit common to both.

The saddle block is split as ``Re/dt M + (1-eps) K + Re C(u_prev)``.  The
first two terms depend on the step size and the parameters alone, so
their saddle matrix with ``B`` is factorized once per step size and kept
on the scheme; only the convection ``C(u_prev)``, the one velocity
operator that changes from step to step, is assembled per step, on a
fixed sparsity pattern (the Picard/Oseen splitting of Elman, Silvester
and Wathen, *Finite Elements and Fast Iterative Solvers*, 2014).  The
:class:`SaddleOperator` condenses the velocity dofs that live on one
cell (the mini element's bubbles), which is exact because their block
of the matrix is diagonal, and factors what remains under a symmetric
order without pivoting.  It regularizes only the pressure rows whose
condensed diagonal is zero, with ``-g D`` (``D`` the Schur-complement
diagonal, ``g`` = :data:`SADDLE_REGULARIZATION`): none for the mini
element, every row for the P2 and reduced-P2 pairs.  Each solve is
checked against the exact matrix and refined only while its normwise
backward error exceeds :data:`SADDLE_BACKWARD_ERROR`; one that cannot
reach it raises :class:`SolverError`.  So the velocity stays discretely
divergence-free, as the energy identity needs.

The step is exposed to the driver as a fixed-point problem: one
``sweep`` performs a block Gauss-Seidel pass through the factorized
linear blocks with the other fields frozen, the convection lagged at
the velocity of the iterate, and ``residual`` measures the monolithic
implicit residual at a state, convection included, preconditioned
block-wise by the same factorized operators so its entries carry the
units of the unknowns themselves.  Lagging the convection changes the
path of the iteration, not its fixed point.  By linearity that
residual is the increment of one block-Jacobi pass through the
factorizations, so the step's operator is held only in them: the
residual computes the pass's stress terms (the spectral decomposition,
relaxation flux, momentum coupling and transport of the iterate) and
its saddle solve, and the sweep from the same iterate reuses both.

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

Where the blend alone contracts slowly, the step stops lagging the
local stress terms.  Once an accepted iterate leaves more than
:data:`LINEARIZE_ABOVE` of the residual before it, every later sweep of
that step solves its scalar blocks with those terms linearized at the
iterate: ``(kron(I_k, S) - J) s_new = R(u_new, frozen(x)) - J s(x)``,
``S`` the scalar matrix, ``R`` the scalar right-hand sides and ``J``
the per-node derivative of the relaxation flux and the deformation term
in the node's scalars (:meth:`BlockStep.local_jacobian`).  GMRES
solves it through the factor of ``S`` the plain sweep uses, started at
``s(x)`` and stopped at :data:`LINEARIZED_RTOL` of the plain sweep's
increment, so the step factors nothing more and a linearized sweep
costs about ten more solves with that factor (11 on the stiff forced
cavity at n = 8 to 64).  At a fixed point of the plain sweep
that increment is zero and so is the linearized one; a fixed point of
the linearized sweep leaves a GMRES residual of zero, so its increment
is zero too.  The residual and its stopping test are the same either
way, so the rule changes the path and the cost of an iterate, not the
answer or the energy audit's slack.  On the forced cavity at dt = 0.05
every iterate cuts the residual to 0.11 of the last or less, so the
rule never fires there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import tensorcalc as tc
from .energy import (EnergyBreakdown, StepAudit, audit_slack, free_energy,
                     relaxation_dissipation)
from .fespaces import (build_space, convection_matrix, gradient_matrix,
                       gradient_trace, pressure_integral_vector, sample_cells,
                       triangle_rule, velocity_load, velocity_mass,
                       velocity_pattern, velocity_stiffness)

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


#: the driver gives up once the residual exceeds this multiple of its start
DIVERGENCE_FACTOR = 1e8
#: g, the weight of the Schur-diagonal regularization of the saddle factor
SADDLE_REGULARIZATION = 1e-9
#: normwise backward error every saddle solve must reach
SADDLE_BACKWARD_ERROR = 1e-14
#: most refinement steps a saddle solve may take to reach it
SADDLE_MAX_REFINEMENTS = 3
#: an accepted iterate whose residual exceeds this fraction of the last
#: one's switches the rest of its step to the linearized scalar solve
LINEARIZE_ABOVE = 0.5
#: a linearized scalar solve stops once its GMRES residual is this
#: fraction of its right-hand side, or after this many products
LINEARIZED_RTOL = 1e-2
LINEARIZED_MAX_PRODUCTS = 30


class SolverError(RuntimeError):
    """The nonlinear (or linear) solve failed to produce a usable state."""


class SaddleOperator:
    """Factorized Stokes-type saddle system with a zero-mean pressure.

    The system is ``[[A, B^T], [B, 0]]`` with the pressure determined up
    to a constant.  The solved matrix is ``K = [[A, B0^T], [B0, 0]]``,
    where ``B0`` is ``B`` without the row of pressure dof 0: that dof is
    pinned to zero, and after each solve the pressure is shifted by the
    constant that gives ``mean_vec . p = 0``.  ``A`` acts on the free
    (non-Dirichlet) velocity dofs only; constrained dofs stay zero.

    Dropping the row is exact: the constraint is ``B u = 0``, and with
    the boundary velocity dofs removed, constant pressures lie in the
    kernel of ``B^T`` (``1^T B = 0``), so the rows of ``B`` sum to zero
    and the dropped row is implied by the kept ones.
    Bordering the system with a multiplier for the mean instead would
    add a dense row and column that defeat the fill-reducing ordering
    of the LU.

    ``cell_local`` marks the velocity dofs that live on one cell (the
    bubbles of the mini element; :attr:`fenep.fespaces.FESpace.cell_local`
    restricted to the free dofs).  Each vanishes outside its cell, and
    the two of one cell point along different axes, which the mass,
    the stiffness and the convection do not couple.  So their block
    ``K_bb`` of ``K`` is diagonal, and eliminating them is exact: with
    ``s`` the other unknowns, the factored matrix is ``K_c = K_ss -
    K_sb K_bb^-1 K_bs``, a solve is ``y_s = K_c^-1 (r_s - K_sb K_bb^-1
    r_b)`` and the local dofs follow cell by cell as ``y_b = K_bb^-1
    (r_b - K_bs y_s)``.  Without cell-local dofs ``K_c`` is ``K``.  A
    mask whose block is not diagonal raises :class:`SolverError`.

    ``K_c`` is factored in SuperLU's symmetric mode, without pivoting,
    under the minimum degree order of ``K_c^T + K_c``: about a third of
    the fill of a pivoted LU of ``K`` on the shipped pairs.  That is
    stable for a quasi-definite matrix (Vanderbei, SIAM J. Optim. 5,
    1995).  The condensed pressure block ``-B0_b K_bb^-1 B0_b^T`` is
    negative definite for the mini element, so its ``K_c`` is
    quasi-definite as it stands, and its factor solves ``K`` exactly.
    A pressure row whose condensed diagonal is exactly zero, which is
    every row of a pair without cell-local velocity dofs, is regularized
    to ``-g D``, with ``D = diag(B0 diag(A)^-1 B0^T)`` the diagonal of the
    Schur complement and ``g`` = :data:`SADDLE_REGULARIZATION`.  ``D``
    scales the regularization with ``A`` and the mesh, so it stays small
    against ``K`` for a mass matrix alone and for any step size.

    Every solve is checked against the exact ``K``: its normwise
    backward error must reach ``|b - K x| <= SADDLE_BACKWARD_ERROR (|b| +
    |K| |x|)`` (max norms).  While it does not, the solve is refined
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
    ch. 12), ``x += K_c^-1 (b - K x)`` through the same elimination, at
    most :data:`SADDLE_MAX_REFINEMENTS` times.  An unregularized factor
    meets the bound at once; a regularized one needs refinement, since
    ``B u`` would otherwise be of order ``g |p|``, not zero.  A solve that
    misses the bound raises :class:`SolverError`, as does an ``A`` whose
    diagonal is not positive, for which ``K_c`` is not quasi-definite.
    The factor works in the order kept dofs first, then the local ones:
    each right-hand side it takes is gathered into that order once, and
    each iterate scattered back once for its check against ``K``.
    """

    def __init__(self, a_mat, b_mat, mean_vec, cell_local=None):
        a_mat = sp.csr_matrix(a_mat)
        b_mat = sp.csr_matrix(b_mat)
        self.n_u = a_mat.shape[0]
        self.n_p = b_mat.shape[0]
        if b_mat.shape[1] != self.n_u:
            raise ValueError("velocity dimensions of A and B disagree")
        a_diag = a_mat.diagonal()
        if not np.all(a_diag > 0.0):
            raise SolverError("saddle matrix has a velocity block whose "
                              "diagonal is not positive")
        mean = np.asarray(mean_vec, float).reshape(self.n_p)
        self._mean_weights = mean / mean.sum()
        b_kept = b_mat[1:]
        schur_diag = b_kept.multiply(b_kept) @ (1.0 / a_diag)
        self._k = sp.bmat([[a_mat, b_kept.T], [b_kept, None]], format="csr")
        self._k.eliminate_zeros()       # stored zeros of B would add fill
        self._k_norm = float(abs(self._k).sum(axis=1).max())

        local = np.zeros(self._k.shape[0], bool)
        if cell_local is not None:
            local[:self.n_u] = cell_local
        s, b = np.nonzero(~local)[0], np.nonzero(local)[0]
        k_c = self._condense(s, b)
        n_kept_u = len(s) - (self.n_p - 1)
        singular = k_c.diagonal()[n_kept_u:] == 0.0
        reg = np.zeros(len(s))
        reg[n_kept_u:] = np.where(singular,
                                  SADDLE_REGULARIZATION * schur_diag, 0.0)
        k_g = (k_c - sp.diags(reg)).tocsc()
        del k_c
        try:
            self._lu = splu(k_g, permc_spec="MMD_AT_PLUS_A",
                            diag_pivot_thresh=0.0,
                            options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise SolverError(f"saddle matrix factorization failed: {exc}") from exc
        self._order, self._n_s = np.concatenate([s, b]), len(s)

    def _condense(self, s, b):
        """``K_c = K_ss - K_sb K_bb^-1 K_bs``, keeping ``K_sb``, ``K_bs``
        and the diagonal of ``K_bb`` for the solves."""
        k_s, k_b = self._k[s], self._k[b]
        k_bb = k_b[:, b]
        if k_bb.nnz != len(b):          # its diagonal is A's, stored and > 0
            raise SolverError("saddle matrix couples the cell-local dofs "
                              "it would condense")
        self._d_b = k_bb.diagonal()
        self._k_sb, self._k_bs = k_s[:, b], k_b[:, s]
        return (k_s[:, s]
                - self._k_sb @ sp.diags(1.0 / self._d_b) @ self._k_bs)

    def _apply_factor(self, r):
        """``K^-1 r`` through the factor of the condensed matrix, in the
        solve order: one triangular solve, then the cell-local dofs cell
        by cell."""
        r_s, r_b = r[:self._n_s], r[self._n_s:]
        y = np.empty_like(r)
        y[:self._n_s] = y_s = self._lu.solve(
            r_s - self._k_sb @ (r_b / self._d_b))
        y[self._n_s:] = (r_b - self._k_bs @ y_s) / self._d_b
        return y

    def solve(self, rhs_u):
        rhs = np.zeros(self.n_u + self.n_p - 1)
        rhs[:self.n_u] = rhs_u
        rhs_norm = np.abs(rhs).max()
        sol = self._apply_factor(rhs[self._order])      # in the solve order
        x = np.empty_like(sol)
        for refinement in range(SADDLE_MAX_REFINEMENTS + 1):
            x[self._order] = sol
            res = rhs - self._k @ x
            err = np.abs(res).max()
            bound = SADDLE_BACKWARD_ERROR * (
                rhs_norm + self._k_norm * np.abs(sol).max())
            if err <= bound < math.inf:     # a non-finite sol fails here
                break
            if refinement == SADDLE_MAX_REFINEMENTS:
                raise SolverError(
                    f"saddle solve missed its backward error bound after "
                    f"{SADDLE_MAX_REFINEMENTS} refinements: residual "
                    f"{err:.3e} > {bound:.3e}")
            sol += self._apply_factor(res[self._order])
        p = np.concatenate([[0.0], x[self.n_u:]])
        p -= self._mean_weights @ p
        return x[:self.n_u], p


@dataclass(frozen=True)
class PicardConfig:
    tol: float = 1e-10
    max_iters: int = 200
    min_damping: float = 1.0 / 16.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not 0.0 < self.min_damping <= 1.0:
            raise ValueError(
                f"min_damping must lie in (0, 1], got {self.min_damping}")


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    residual: float
    damping: float
    history: list = field(default_factory=list)
    #: the iteration whose sweep first linearized the scalar blocks
    #: (:class:`BlockStep`), None if none did, and how many sweeps did
    linearized_at: int | None = None
    linearized_sweeps: int = 0


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
    guard = DIVERGENCE_FACTOR * (r + threshold)
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

    ``u`` and ``p`` are coefficient vectors in the scheme's spaces ``v``
    and ``q``; ``sigma`` holds symmetric tensors (n, 3), one per cell or
    per vertex; ``rho`` is the auxiliary trace field of the diffusive
    scheme under a finite extensibility bound, else None.  ``energy`` is
    the free energy of the state under the parameters of the scheme that
    made it; the next step takes it as its starting energy, and computes
    that value itself only when ``energy`` is None.  ``audit`` is the
    budget check of the step that made the state, and the one record of
    its stress bounds; an initial state carries the check of a step of
    length zero (no dissipation, no work), which records its trace
    balance and stress bounds.  An initial state of the diffusive scheme
    also carries ``initial_report``, the range check of its projected
    stress (:class:`fenep.scheme_p1diff.InitialReport`).
    """

    u: np.ndarray
    p: np.ndarray
    sigma: np.ndarray
    rho: np.ndarray | None = None
    t: float = 0.0
    energy: EnergyBreakdown | None = None
    audit: StepAudit | None = None
    initial_report: object | None = None


class BlockStep:
    """Factorized operators of one implicit step, exposed to the driver.

    The unknowns are the velocity, the pressure and k scalar fields on
    the m stress nodes: the three tensor components, plus the trace
    field when the state carries one.  They are packed as
    ``[u, p, scalars.T.ravel()]`` with ``scalars`` of shape (m, k).  The
    velocity/pressure block is the scheme's :class:`SaddleOperator` of
    ``Re/dt M + (1-eps) K`` with ``B``, factorized once per step size
    (:meth:`ImplicitScheme.saddle_operator`); the step adds only the
    convection ``c_ff = Re C(u_prev)`` on the free dofs, which the block
    pass moves to its right-hand side at the velocity of the iterate.
    The k scalar blocks share one factorized matrix, ``scalar_lu``, which
    the scheme's ``stress_block`` gives with its ``local_terms``, after
    the saddle matrix is factored (factoring the small matrix first
    raised the peak memory of a run by a few MB).
    Factorizations held across steps raise the floor under every later
    peak, so the convection fills the data array of a fixed pattern
    instead of assembling through COO temporaries.

    ``stress_terms(sig, rho) -> (rhs_u, frozen)`` computes all that
    depends on the stress iterate alone, from one spectral decomposition
    of ``sig`` and the ``local_terms`` of it: the momentum right-hand side
    with the coupling ``(eps/Wi) (k A beta, grad v)``, the relaxation,
    previous-step and advection terms of the scalar blocks, and ``2 k``,
    the weight of the deformation term ``2 k sym(grad(u) beta)`` (and
    its trace) that the coupling cancels; ``frozen`` keeps the
    decomposition too.  ``rhs_scalars(u, frozen)`` adds that term to
    give the (m, k) scalar right-hand sides.

    One cached block pass per iterate serves both methods: the stress
    terms and the saddle solve ``(u_new, p_new)`` of ``rhs_u - c_ff u``.
    ``sweep`` returns ``(u_new, p_new, S^-1 R(u_new))``, ``residual`` the
    norm of ``(u_new - u, p_new - p, S^-1 R(u) - s)`` with ``R`` the
    ``rhs_scalars``: the block solve of the monolithic residual whenever
    ``p`` has zero mean, as the saddle solve and the driver's blends
    keep it.  The one-entry cache is keyed on a copy of the whole
    iterate, compared by value; an iterate holding NaN never equals it.

    :func:`picard_solve` sweeps from each iterate it accepts, after
    taking its residual.  From the first sweep whose iterate left more than
    :data:`LINEARIZE_ABOVE` of the previous accepted residual to the end
    of the step, a sweep solves ``(kron(I_k, S) - J) s_new = R(u_new,
    frozen(x)) - J s(x)`` instead, with ``J`` the :meth:`local_jacobian`
    at ``x``: as ``s_new = s(x) + d``, where ``(I - S^-1 J) d = S^-1 R -
    s(x)``, the plain sweep's increment, which GMRES solves through
    ``scalar_lu`` to :data:`LINEARIZED_RTOL` of that increment in at most
    :data:`LINEARIZED_MAX_PRODUCTS` products.  A fixed point of either
    sweep has ``d = 0`` and so a zero increment, ``S s = R``, and the
    residual above measures both.  ``linearized_at`` is the number of
    that first sweep, None while the plain sweep serves, and
    ``linearized_sweeps`` counts the linearized ones; the step copies
    both into its :class:`SolveReport`.
    """

    def __init__(self, scheme: ImplicitScheme, state: State, dt: float):
        self.scheme = scheme
        self.dt = dt
        prm = scheme.params
        u_prev = state.u
        self.free = scheme.free

        self.saddle = scheme.saddle_operator(dt)
        # Re C(u_prev) on the free dofs; filled in place on a fixed pattern
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
        self.scalars_prev = scalars
        self.x0 = self.pack(u_prev, state.p, scalars)
        self.scale = float(np.linalg.norm(self.x0)) + 1.0
        self._pass_key = self._pass = self._pass_residual = None
        self.scalar_lu, self.local_terms = scheme.stress_block(state, dt)
        self.sweeps = self.linearized_sweeps = 0
        self.linearized_at = self._accepted_residual = None

    def pack(self, u, p, scalars):
        return np.concatenate([u, p, np.asarray(scalars).T.ravel()])

    def _scalars(self, x):
        return x[self.n_up:].reshape(self.k, self.m).T

    def split(self, x):
        """Views ``(u, p, sigma, rho)`` of an iterate; rho is None if k = 3."""
        s = self._scalars(x)
        rho = s[:, 3] if self.k == 4 else None
        return x[:self.n_u], x[self.n_u:self.n_up], s[:, :3], rho

    def _rows(self, t):
        """The k scalar rows of tensors ``t`` (..., 3): the components,
        then their trace when the state carries one."""
        return t if self.k == 3 else np.concatenate(
            [t, tc.trace(t)[..., None]], axis=-1)

    def _deformation(self, grad_u, beta):
        """The rows of ``sym(grad_u beta)`` of full (..., 2, 2) tensors."""
        prod = grad_u @ beta
        return self._rows(tc.tensor(prod[..., 0, 0],
                                    0.5 * (prod[..., 0, 1] + prod[..., 1, 0]),
                                    prod[..., 1, 1]))

    def stress_terms(self, sig, rho):
        scheme, prm = self.scheme, self.scheme.params
        eta = _eta(sig, rho)
        spectrum = tc.eig_sym(sig)          # the one decomposition
        beta, kv, adv = self.local_terms(*spectrum, eta, rho)
        flux = tc.relax_flux_of_beta(beta, eta, prm.reg)
        coupling = scheme.grad_t @ tc.to_full(kv[:, None] * flux).reshape(-1)
        rhs_u = self.rhs_u_base - (prm.eps / prm.wi) * coupling
        fixed = scheme.weights[:, None] * (
            self.scalars_prev / self.dt - self._rows(flux) / prm.wi)
        return rhs_u, (2.0 * kv[:, None], tc.to_full(beta), fixed, adv,
                       spectrum)

    def rhs_scalars(self, u, frozen):
        weight, beta, fixed, adv, _ = frozen
        grad_u = (self.scheme.grad @ u).reshape(self.m, 2, 2)
        return fixed + weight * self._deformation(grad_u, beta) + adv

    @cached_property
    def _increment_rows(self):
        """Constant maps of a tensor increment ``E`` (a unit component):
        the rows of ``sym(G E)`` for each unit entry ``G``, as a (4, 3k)
        matrix against the flattened ``grad(u)``, and the rows of ``E``
        itself, (k, 3)."""
        units = np.eye(4).reshape(4, 1, 2, 2)
        sym = self._deformation(units, tc.to_full(np.eye(3)))
        return (np.swapaxes(sym, 1, 2).reshape(4, -1),
                self._rows(np.eye(3)).T)

    def local_jacobian(self, s, u, frozen):
        """``J``: per stress node, the k x k derivative of the local terms
        of ``R(u, frozen(s))`` (relaxation flux and deformation term) in
        the node's scalars ``s`` (m, k), with the coupling weight frozen;
        entry ``[node, row, column]``.  ``frozen`` is that of ``s``, whose
        spectrum it holds."""
        prm, reg = self.scheme.params, self.scheme.params.reg
        weight, beta, _, _, spectrum = frozen
        eta = s[:, 3] if self.k == 4 else tc.trace(s)
        arg = 1.0 - eta / prm.b
        coef = tc.g_delta(arg, reg)[1]
        # d coef / d eta = -g''(arg) / b, with g'' = -1/arg^2 = -coef^2
        dcoef = np.where(arg >= reg.delta, coef * coef / prm.b, 0.0)
        relax = self.scheme.weights / prm.wi
        sym_map, rows_map = self._increment_rows
        grad_u = (self.scheme.grad @ u).reshape(self.m, 4)
        # the local terms' derivative in beta, then beta's in sigma
        d_terms = (weight[:, :, None]
                   * (grad_u @ sym_map).reshape(self.m, self.k, 3)
                   - (relax * coef)[:, None, None] * rows_map)
        jac = np.zeros((self.m, self.k, self.k))
        jac[:, :, :3] = d_terms @ tc.beta_delta_jacobian(*spectrum, reg)
        # and the flux's coefficient in eta: rho, or the trace of sigma
        d_eta = np.array([0.0, 0.0, 0.0, 1.0] if self.k == 4
                         else [1.0, 0.0, 1.0])
        beta_rows = self._rows(beta[:, [0, 0, 1], [0, 1, 1]])
        jac -= ((relax * dcoef)[:, None] * beta_rows)[:, :, None] * d_eta
        return jac

    def _block_pass(self, x):
        """``(frozen, u_new, p_new)``: the stress terms of ``x`` and the
        saddle solve with the convection lagged at the velocity of ``x``."""
        if not np.array_equal(self._pass_key, x):
            u, _, sig, rho = self.split(x)
            rhs_u, frozen = self.stress_terms(sig, rho)
            u_f, p_new = self.saddle.solve(
                rhs_u[self.free] - self.c_ff @ u[self.free])
            u_new = np.zeros(self.n_u)
            u_new[self.free] = u_f
            self._pass = (frozen, u_new, p_new)
            self._pass_key = x.copy()
            self._pass_residual = None
        return self._pass

    def _scalar_solve(self, u, frozen):
        return _finite(self.scalar_lu.solve(self.rhs_scalars(u, frozen)))

    def _linear_scalar_solve(self, x, u, frozen):
        """``s + d`` at ``s`` of ``x``, where ``(I - S^-1 J) d = S^-1 R(u,
        frozen) - s`` (the plain sweep's increment) is solved by GMRES
        through the step's factor of ``S``: that is ``(kron(I_k, S) - J)
        (s + d) = R(u, frozen) - J s``."""
        s = self._scalars(x)
        jac = self.local_jacobian(s, u, frozen)
        k, m, lu = self.k, self.m, self.scalar_lu

        def apply(v):       # v and the product packed like the iterate
            jv = np.einsum("nij,jn->in", jac, v.reshape(k, m))
            return v - lu.solve(jv.T).T.ravel()

        d = _gmres(apply, (self._scalar_solve(u, frozen) - s).T.ravel(),
                   LINEARIZED_RTOL, LINEARIZED_MAX_PRODUCTS)
        return _finite(s + d.reshape(k, m).T)

    def sweep(self, x):
        frozen, u_new, p_new = self._block_pass(x)
        self.sweeps += 1
        r = self._pass_residual         # None if residual(x) was not taken
        if (self.linearized_at is None and r is not None
                and self._accepted_residual is not None
                and r > LINEARIZE_ABOVE * self._accepted_residual):
            self.linearized_at = self.sweeps
        self._accepted_residual = r
        if self.linearized_at is None:
            return self.pack(u_new, p_new, self._scalar_solve(u_new, frozen))
        self.linearized_sweeps += 1
        return self.pack(u_new, p_new,
                         self._linear_scalar_solve(x, u_new, frozen))

    def residual(self, x):
        frozen, u_new, p_new = self._block_pass(x)
        u = x[:self.n_u]
        self._pass_residual = float(np.linalg.norm(
            self.pack(u_new, p_new, self._scalar_solve(u, frozen)) - x))
        return self._pass_residual


def _gmres(apply, b, rtol: float, max_products: int):
    """GMRES (Saad and Schultz, 1986) for ``apply(x) = b`` from ``x = 0``,
    without restarts: it stops once the residual is at most ``rtol |b|``
    or after ``max_products`` products, and returns the iterate.  The
    Arnoldi basis is orthogonalized by classical Gram-Schmidt run twice,
    and Givens rotations carry the residual norm.  ``b = 0`` gives 0."""
    beta = float(np.linalg.norm(b))
    basis = np.zeros((max_products + 1, len(b)))
    hess = np.zeros((max_products + 1, max_products))
    rotations = []
    res = np.zeros(max_products + 1)     # the rotated residual
    res[0] = beta
    if beta > 0.0:
        basis[0] = b / beta
    n = 0
    while n < max_products and abs(res[n]) > rtol * beta:
        w = apply(basis[n])
        col = hess[:, n]
        for _ in range(2):
            h = basis[:n + 1] @ w
            w -= h @ basis[:n + 1]
            col[:n + 1] += h
        sub = float(np.linalg.norm(w))
        for i, (c, sn) in enumerate(rotations):
            col[i:i + 2] = (c * col[i] + sn * col[i + 1],
                            c * col[i + 1] - sn * col[i])
        r = math.hypot(col[n], sub)
        if r == 0.0:        # singular on the Krylov space: keep the iterate
            break
        c, sn = col[n] / r, sub / r
        rotations.append((c, sn))
        col[n] = r
        res[n:n + 2] = c * res[n], -sn * res[n]
        n += 1
        if sub > 0.0:       # else the space is invariant and res[n] is 0
            basis[n] = w / sub
    y = np.zeros(n)
    for i in reversed(range(n)):    # back substitution in the triangle
        y[i] = (res[i] - hess[i, i + 1:n] @ y[i + 1:]) / hess[i, i]
    return y @ basis[:n]


def _finite(scalars):
    if not np.all(np.isfinite(scalars)):
        raise SolverError("scalar solve produced non-finite values")
    return scalars


class ImplicitScheme:
    """Operators, free energy and the audited implicit step of a scheme.

    A subclass names its spaces (``VELOCITIES``, the first the default, and
    ``PRESSURE``) and supplies ``stress_block(state, dt) -> (scalar_lu,
    local_terms)``: the factorization of the matrix the scalar blocks of
    a step share, and ``local_terms(eigs, frame, eta, rho) -> (beta, k,
    adv)``, the cut (m, 3), coupling weight (m,) and advection (m, k) of
    a stress iterate of spectrum ``eigs, frame`` (``0.0`` when the matrix
    holds the transport).  The step is
    the one :class:`BlockStep` of both schemes.  ``weights``, the
    integrals of the pressure basis functions, is both the quadrature of
    the stress nodes that every stress integral of the energy budget uses
    and the zero-mean weight of the pressure.  ``check_step_size`` has
    no cap here.  ``_extra_audit_terms`` adds scheme-specific terms to the
    budget; a scheme with stress diffusion sets ``k_scalar``, the
    stiffness of its stress nodes, and one with a trace variable
    ``carries_trace``.

    Each audited state is decomposed once: :func:`fenep.tensorcalc.eig_sym`
    of its stress gives the eigenvalues that the free energy, the
    relaxation dissipation and the positivity bound take, and the frame
    in which ``_extra_audit_terms`` may recompose spectral functions.

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
    are the divergence ``div``.  ``grad_t`` is the transpose, bound once
    as a view that shares the arrays.
    """

    #: stiffness matrix of the stress nodes; None without stress diffusion
    k_scalar = None
    #: whether the states carry the auxiliary trace field ``rho``
    carries_trace = False

    def __init__(self, mesh, params, *, velocity: str | None = None,
                 forcing=None):
        velocity = self.VELOCITIES[0] if velocity is None else velocity
        if velocity not in self.VELOCITIES:
            raise ValueError(
                f"velocity kind {velocity!r} is not supported here; "
                f"choose one of {self.VELOCITIES}")
        self.mesh = mesh
        self.params = params
        self.v = build_space(mesh, velocity)
        self.q = build_space(mesh, self.PRESSURE)
        self.mass = velocity_mass(mesh, self.v)
        self.stiff = velocity_stiffness(mesh, self.v)
        self.grad = gradient_matrix(mesh, self.v, self.q)
        self.div = gradient_trace(self.grad)
        self.weights = pressure_integral_vector(mesh, self.q)
        self.free = np.nonzero(~self.v.dirichlet_mask)[0]
        self.b_free = self.div[:, self.free].tocsr()
        self.grad_t = self.grad.T
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

    def saddle_operator(self, dt: float) -> SaddleOperator:
        """The factorized saddle matrix of ``Re/dt M + (1-eps) K`` on the
        free dofs with ``B``."""
        prm = self.params

        def build():
            a_mat = (prm.re / dt) * self.mass + (1.0 - prm.eps) * self.stiff
            a_ff = a_mat[self.free][:, self.free].tocsr()
            del a_mat  # freed before the factorization, the memory peak
            return SaddleOperator(a_ff, self.b_free, self.weights,
                                  self.v.cell_local[self.free])

        return self._cached("saddle", (dt, prm.re, prm.eps), build)

    @cached_property
    def free_pattern(self):
        """Fixed free x free pattern of the per-step convection."""
        return velocity_pattern(self.v, self.free)

    def _bounds(self, sig, rho, eigs) -> dict:
        """Trace balance, smallest eigenvalue and largest trace of a stress."""
        tr = tc.trace(sig)
        return {"trace_balance": (0.0 if rho is None
                                  else float(self.weights @ (tr - rho))),
                "min_eig_sigma": float(eigs[:, 0].min()),
                "max_trace_sigma": float(tr.max())}

    def initial_state(self, u0=None, sigma0=None, dt0: float = 0.0) -> State:
        """The projection of initial data into the scheme's spaces.

        The velocity solves the scheme's saddle system with ``M + dt0 K``
        in place of the step's matrix: for all discrete v and q,
        ``(u, v) + dt0 (grad u, grad v) + (p, div v) = (u0, v)`` and
        ``(q, div u) = 0``.  With ``dt0 = 0`` that is the L2 projection
        onto the discretely divergence-free velocities, else a smoothed
        one; either way ``B u = 0``, which the energy identity of both
        schemes needs of the first step's transport velocity.  Each stress
        component solves ``(diag(w) + dt0 K_s) sigma = integral(sigma0
        psi)``: the degree-6 moments against the stress nodes' test
        functions ``psi`` (cell indicators or hats), with ``w`` the
        ``weights`` and ``K_s`` the ``k_scalar`` of the scheme (none
        without stress diffusion, which leaves the cell means).  A carried
        trace starts as the trace of the projected stress.

        ``u0``/``sigma0`` are callables of coordinate arrays, or None for
        rest and the identity; ``sigma0`` may also be one tensor (3,) or a
        stress-space field (n_nodes, 3).
        """
        u = np.zeros(self.v.n_dofs)
        if u0 is not None:
            a_ff = (self.mass + dt0 * self.stiff)[self.free][:, self.free]
            load = velocity_load(self.mesh, self.v, u0)[self.free]
            u[self.free] = SaddleOperator(
                a_ff, self.b_free, self.weights,
                self.v.cell_local[self.free]).solve(load)[0]

        rule = triangle_rule(6)
        samples = self._stress_samples(sigma0, rule.points)
        psi_w = self.q.val(rule.points).T * rule.weights      # (nloc, nq)
        cellvals = (psi_w @ samples) * self.mesh.cell_areas[:, None, None]
        moments = np.stack([np.bincount(self.q.cell_dofs.ravel(), comp,
                                        self.q.n_dofs)
                            for comp in cellvals.reshape(-1, 3).T], axis=1)
        if self.k_scalar is None:
            sig = moments / self.weights[:, None]
        else:
            sig = splu((sp.diags(self.weights)
                        + dt0 * self.k_scalar).tocsc()).solve(moments)
        rho = tc.trace(sig) if self.carries_trace else None

        eigs = tc.eig_sym(sig)[0]          # the one decomposition of the state
        f0 = free_energy(self.params, self.weights, self.mass, u, eigs,
                         _eta(sig, rho))
        audit = StepAudit(f_before=f0.total, f_after=f0.total,
                          kinetic_jump=0.0, viscous=0.0, relaxation=0.0,
                          slack=0.0, **self._bounds(sig, rho, eigs))
        return State(u, np.zeros(self.q.n_dofs), sig, rho,
                     energy=f0, audit=audit,
                     initial_report=self._initial_report(samples, sig, eigs))

    def _stress_samples(self, sigma0, lam):
        """The stress data at the barycentric points ``lam`` of every cell,
        (n_cells, nq, 3)."""
        if sigma0 is None:
            sigma0 = tc.IDENTITY
        if callable(sigma0):
            return sample_cells(self.mesh, sigma0, lam)
        arr = np.asarray(sigma0, float)
        if arr.shape == (3,):
            return np.broadcast_to(arr, (self.mesh.n_cells, len(lam), 3))
        if arr.shape == (self.q.n_dofs, 3):
            return self.q.val(lam) @ arr[self.q.cell_dofs]
        raise ValueError(f"sigma0 must be callable, (3,) or "
                         f"({self.q.n_dofs}, 3), got shape {arr.shape}")

    def _initial_report(self, samples, sig, eigs):
        """A check of the projected stress against its data; none here."""
        return None

    def _extra_audit_terms(self, eigs, frame, rho, dt: float) -> dict:
        return {}

    def check_step_size(self, dt: float) -> None:
        """Warn when ``dt`` leaves the range the scheme's theory covers,
        naming the caller of :meth:`step`; every dt is covered here."""

    def step(self, state: State, dt: float,
             config: PicardConfig | None = None):
        """Advance one step; returns (state, solve report, energy audit).

        The audit is also the new state's ``audit``.  Raises
        :class:`SolverError` when the Picard iteration fails, with the
        report attached as ``exc.report``.
        """
        cfg = config or PicardConfig()
        self.check_step_size(dt)
        problem = BlockStep(self, state, dt)
        x, report = picard_solve(problem, problem.x0, cfg)
        report.linearized_at = problem.linearized_at
        report.linearized_sweeps = problem.linearized_sweeps
        if not report.converged:
            err = SolverError(
                f"step at t={state.t:.6g} (dt={dt:.3g}) did not converge: "
                f"residual {report.residual:.3e} after {report.iterations} "
                f"iterations (damping {report.damping:.3g})")
            err.report = report
            raise err
        u, p, sig, rho = problem.split(x)

        prm, w = self.params, self.weights
        eigs, frame = tc.eig_sym(sig)      # the one decomposition of the state
        eta = _eta(sig, rho)
        f_after = free_energy(prm, w, self.mass, u, eigs, eta)
        f_before = state.energy
        if f_before is None:
            f_before = free_energy(prm, w, self.mass, state.u,
                                   tc.eig_sym(state.sigma)[0],
                                   _eta(state.sigma, state.rho))
        du = u - state.u
        audit = StepAudit(
            f_before=f_before.total, f_after=f_after.total,
            kinetic_jump=0.5 * prm.re * float(du @ (self.mass @ du)),
            viscous=dt * (1.0 - prm.eps) * float(u @ (self.stiff @ u)),
            relaxation=dt * relaxation_dissipation(prm, w, eigs, eta),
            forcing=dt * float(self.fvec @ u),
            slack=audit_slack(cfg.tol, f_before.total, f_after.total),
            **self._bounds(sig, rho, eigs),
            **self._extra_audit_terms(eigs, frame, rho, dt))
        new_state = State(u, p, sig, rho, state.t + dt, f_after, audit)
        return new_state, report, audit


def _eta(sig, rho):
    """The trace variable: the carried trace field, else the trace of sig."""
    return tc.trace(sig) if rho is None else rho
