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
and Wathen, *Finite Elements and Fast Iterative Solvers*, 2014).  How a
saddle matrix is condensed, pinned or regularized, factored, checked and
refined, and from which start, is stated on :class:`SaddleOperator`;
the one regularization weight and its measured cost on
:data:`SADDLE_REGULARIZATION`.

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
its saddle solve, and hands both to the driver for the sweep from the
same iterate.

The driver blends each sweep with a relaxation factor chosen two ways:
a secant (Aitken) update estimates the dominant contraction factor from
successive increments and jumps to the blend that cancels it, and a
backtracking loop halves the factor whenever the preconditioned residual
would grow, down to the floor :data:`MIN_DAMPING`.  At the floor the
step is accepted anyway so slowly contracting problems still make
progress, with a divergence guard aborting runs whose residual blows
up.  The implicit relaxation term makes the bare fixed-point map stiff
at large steps (its factor scales like dt/Wi over the squared distance
to the trace bound), which is exactly the regime the adaptive blend is
there for.

Where the blend alone contracts slowly, the step stops lagging the
local stress terms.  The driver owns that rule as it owns the blend:
once an accepted iterate leaves more than :data:`LINEARIZE_ABOVE` of the
residual before it, it asks for the linearized sweep for the rest of the
solve, which solves the scalar blocks with those terms linearized at the
iterate: ``(kron(I_k, S) - J) s_new = R(u_new, frozen(x)) - J s(x)``,
``S`` the scalar matrix, ``R`` the scalar right-hand sides and ``J``
the per-node derivative of the relaxation flux and the deformation term
in the node's scalars (:meth:`BlockStep.local_jacobian`).  GMRES
solves it through the factor of ``S`` the plain sweep uses, started at
``s(x)`` and stopped at :data:`LINEARIZED_RTOL` of the plain sweep's
increment, so the step factors nothing more and a linearized sweep
costs about ten more solves with that factor (1,000 GMRES products over
97 linearized sweeps on the stiff forced cavity at n = 8, three steps
at dt = 1).  At a fixed point of the plain sweep
that increment is zero and so is the linearized one; a fixed point of
the linearized sweep leaves a GMRES residual of zero, so its increment
is zero too.  The residual and its stopping test are the same either
way, so the rule changes the path and the cost of an iterate, not the
answer or the energy audit's slack.  On the forced cavity at dt = 0.05
every iterate cuts the residual to 0.11 of the last or less, so the
rule never fires there.

The linearized sweep still contracts only linearly where the stall is
in the velocity-stress coupling (about 0.72 an iterate on the stiff
forced cavity at n = 8, dt = 1).  So once it has linearized and the
accepted residual is at most :data:`ANDERSON_BELOW` of the solve's
first one, the driver tries an Anderson candidate on every iteration,
a multisecant update over the whole coupled vector (Walker and Ni, SIAM
J. Numer. Anal. 49, 2011; Toth and Kelley, SIAM J. Numer. Anal. 53,
2015), kept only where its residual does not grow
(:func:`picard_solve`).  Engaging as soon as the sweep linearizes made
first steps slower (57 iterations became 78 on the stiff forced cavity
at n = 16, and 68 became 99 at n = 8 and dt = 10), hence the
threshold.  The candidate combines sweeps with weights summing to one,
and the residual and its stopping test are untouched, so again only
the path and its cost change: the stiff forced cavity at n = 8 takes
40/32/29 iterations for three steps where the blend alone took
42/56/54.
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
                       velocity_stiffness)

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
#: the smallest relaxation factor the driver blends with; an iterate
#: blended at it is accepted even if its residual grew
MIN_DAMPING = 1.0 / 16.0
#: g, the weight of the Schur-diagonal regularization of every saddle
#: factor (:class:`SaddleOperator`).  The factor's rounding grows like 1/g
#: (its largest entry is 6.4e10 at 1e-9 and 6.4e9 at 1e-8, P2/P0 at
#: n = 32), while each refinement contracts the error less as g grows.
#: With the stiffness in the step operators ``Re/dt M + (1-eps) K`` the
#: rounding decides: at 1e-8 one refinement meets the backward error
#: bound for every step operator of the P2 pairs (random right-hand sides
#: from zero, n = 8 to 64 and dt = 1e-7 to 100), where at 1e-9 P2/P0 needs
#: two at n >= 32 and dt >= 0.05.  Started from the Picard iterate, the 24
#: solves of the forced cavity P2/P0 (3 steps, dt = 0.05) take 45, 40, 36,
#: 36 and 33 applications at n = 32 for g = 1e-9, 3e-9, 1e-8, 3e-8 and
#: 1e-7, and 45, 41, 37, 36 and 34 at n = 64.  The mass-only projection
#: of initial data (P2/P0, reduced P2/P0, and P2/P1 at dt0 = 0.1) takes
#: two applications of the decay data from n = 8 to 64, as at 1e-9.  On
#: random right-hand sides (seeds 0 to 6) P2/P1 takes two up to n = 64;
#: the P0 pairs take three at n = 64 on 13 of the 14 (two at 1e-9), as
#: P2/P0 does at n = 32 on two seeds; at n = 128 (one seed) the P0 pairs
#: take three and P2/P1 two.  That is one application more once a run,
#: well under the cap.
SADDLE_REGULARIZATION = 1e-8
#: normwise backward error every saddle solve must reach
SADDLE_BACKWARD_ERROR = 1e-14
#: most refinement steps a saddle solve from zero may take to reach it:
#: any solve makes at most one factor application more
SADDLE_MAX_REFINEMENTS = 3
#: the SuperLU options of every sparse factorization in the package:
#: symmetric mode, the minimum degree order of ``A^T + A`` and diagonal
#: pivots only.  No factored matrix needs pivoting: the condensed saddle
#: matrix is quasi-definite (Vanderbei, SIAM J. Optim. 5, 1995), the
#: cellwise stress matrix is diagonally dominant by rows (growth factor
#: <= 2; Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
#: Thm 9.9), and the diffusive scheme's scalar matrix and stress
#: projection, a positive diagonal plus a stiffness, are symmetric
#: positive definite (Higham, ch. 10).
LU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
              "options": {"SymmetricMode": True}}
#: an accepted iterate whose residual exceeds this fraction of the last
#: one's switches the driver to the linearized sweep for the rest of the
#: solve
LINEARIZE_ABOVE = 0.5
#: a linearized scalar solve stops once its GMRES residual is this
#: fraction of its right-hand side, or after this many products
LINEARIZED_RTOL = 1e-2
LINEARIZED_MAX_PRODUCTS = 30
#: once the sweep has linearized and an accepted residual is at most this
#: fraction of the solve's first one, the driver tries an Anderson
#: candidate on every iteration for the rest of the solve, from a window
#: of at most ANDERSON_DEPTH differences of iterates and their increments.
#: The stiff forced cavity at n = 8 (dt = 1, three steps) takes 98-109
#: iterations for depths 4 to 8 and fractions 1e-1 to 1e-3, and 132 and
#: 127 at depths 2 and 3
ANDERSON_BELOW = 0.1
ANDERSON_DEPTH = 5


class SolverError(RuntimeError):
    """The nonlinear (or linear) solve failed to produce a usable state."""


class SaddleOperator:
    """Factorized Stokes-type saddle system with a zero-mean pressure.

    The system is ``K = [[A, B^T], [B, 0]]``, with the pressure
    determined up to a constant: with the boundary velocity dofs
    removed, constant pressures lie in the kernel of ``B^T`` (``1^T B =
    0``), so the rows of ``B`` sum to zero.  After each solve the
    pressure is shifted by the constant that gives ``mean_vec . p = 0``.
    ``A`` acts on the free (non-Dirichlet) velocity dofs only;
    constrained dofs stay zero.  Bordering the system with a multiplier
    for the mean would add a dense row and column that defeat the
    fill-reducing ordering of the LU.

    ``cell_local`` marks the velocity dofs that live on one cell (the
    bubbles of the mini element; :attr:`fenep.fespaces.FESpace.cell_local`
    restricted to the free dofs).  Each vanishes outside its cell, and
    the two of one cell point along different axes, which the mass,
    the stiffness and the convection do not couple.  So their block
    ``K_bb`` of ``K`` is diagonal, and eliminating them is exact: with
    ``s`` the other unknowns, the factored matrix is ``K_c = K_ss -
    K_sb K_bb^-1 K_bs``, a solve is ``y_s = K_c^-1 (r_s - K_sb K_bb^-1
    r_b)`` and the local dofs follow cell by cell as ``y_b = K_bb^-1
    (r_b - K_bs y_s)``.  Without cell-local dofs ``K_c`` is ``K``, and
    nothing is gathered or eliminated.  A mask whose block is not
    diagonal raises :class:`SolverError`.

    ``K_c`` is factored under :data:`LU_OPTIONS`, with about a third of
    the fill of a pivoted LU of ``K`` on the shipped pairs, which is
    stable because ``K_c`` is quasi-definite.  A pressure row whose
    condensed diagonal is exactly zero, one without cell-local entries
    in ``B``, is regularized to ``-g D``, with ``D = diag(B diag(A)^-1
    B^T)`` the diagonal of the Schur complement and ``g`` the one weight
    :data:`SADDLE_REGULARIZATION`.  ``D`` scales the regularization with
    ``A`` and the mesh, so it stays small against ``K`` for a mass
    matrix alone and for any step size.

    Every row is regularized for a pair without cell-local velocity
    dofs, and its regularized ``K_c`` is factored whole.  Its solution
    has ``B u = g D p``, whose rows sum to ``g 1^T D p = 0``, so the
    regularization puts no constant into the divergence.  With pressure
    dof 0 pinned instead, ``B u = g D (p - p_0)`` sums coherently over
    the rows, and the left-out row's residual, minus that sum, grows
    with their number: pinned, the P2/P0 projection of the decay data
    read 2.0e-14, 1.3e-13 and 1.1e-12 on ``K`` at n = 16, 32 and 64;
    factored whole, 1.7e-16, 3.0e-16 and 3.5e-16, both after one
    refinement.  The condensed pressure block ``-B_b K_bb^-1 B_b^T`` of
    the mini element is negative definite but for the constants, so
    there dof 0 is pinned to zero, its row and column left out of the
    factor.  That is exact, since the left-out row is implied by the
    others, and the unregularized factor solves ``K``.

    Every solve is checked against ``K``, every pressure row included:
    its normwise backward error must reach ``|b - K x| <=
    SADDLE_BACKWARD_ERROR (|b| + |K| |x|)`` (max norms).  While it does
    not, the solve is refined (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, ch. 12), ``x += K_c^-1 (b - K x)``
    through the same elimination, in at most ``SADDLE_MAX_REFINEMENTS
    + 1`` factor applications; a constant pressure, which ``K`` does not
    see, it leaves as it is.  An unregularized factor meets the bound at
    once; a regularized one needs refinement, since ``B u`` would
    otherwise be of order ``g |p|``, not zero.  So a regularized factor
    refines from ``start = (u, p)`` when given one: an application then
    leaves an error of order ``g`` times the correction, not the
    solution, and a start that meets the bound costs none.  The block
    step starts each solve at its Picard iterate, whose late solves take
    one application (:data:`SADDLE_REGULARIZATION` gives the counts).  The
    unregularized factor ignores the start, which would only add a
    product with ``K``.  A solve that misses the bound raises
    :class:`SolverError`, as does an ``A`` whose diagonal is not
    positive, for which ``K_c`` is not quasi-definite.
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
        schur_diag = b_mat.multiply(b_mat) @ (1.0 / a_diag)
        self._k = sp.bmat([[a_mat, b_mat.T], [b_mat, None]], format="csr")
        self._k.eliminate_zeros()       # stored zeros of B would add fill
        self._k_norm = float(abs(self._k).sum(axis=1).max())

        local = np.zeros(self._k.shape[0], bool)
        if cell_local is not None:
            local[:self.n_u] = cell_local
        singular = np.diff(self._k[self.n_u:][:, local].indptr) == 0
        kept = ~local
        kept[self.n_u] = singular.all()     # else pressure dof 0 is pinned
        s, b = np.nonzero(kept)[0], np.nonzero(local)[0]
        # without cell-local dofs every row is singular, and s is all
        k_c = self._condense(s, b) if len(b) else self._k
        reg = np.zeros(len(local))
        reg[self.n_u:] = np.where(singular, schur_diag, 0.0)
        k_g = (k_c - SADDLE_REGULARIZATION * sp.diags(reg[s])).tocsc()
        del k_c
        try:
            self._lu = splu(k_g, **LU_OPTIONS)
        except RuntimeError as exc:
            raise SolverError(f"saddle matrix factorization failed: {exc}") from exc
        self._order, self._n_s = np.concatenate([s, b]), len(s)
        self._regularized = bool(singular.any())

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
        if self._n_s == len(r):         # nothing condensed
            return self._lu.solve(r)
        r_s, r_b = r[:self._n_s], r[self._n_s:]
        y = np.empty_like(r)
        y[:self._n_s] = y_s = self._lu.solve(
            r_s - self._k_sb @ (r_b / self._d_b))
        y[self._n_s:] = (r_b - self._k_bs @ y_s) / self._d_b
        return y

    def solve(self, rhs_u, start=None):
        """``(u, p)`` of ``K (u, p) = (rhs_u, 0)``, ``p`` of zero mean,
        refined from ``start = (u, p)`` when the factor is regularized."""
        rhs = np.zeros(self.n_u + self.n_p)
        rhs[:self.n_u] = rhs_u
        rhs_norm = np.abs(rhs).max()
        x = np.zeros_like(rhs)          # a pinned pressure dof stays zero
        if start is not None and self._regularized:
            x[:self.n_u], x[self.n_u:] = start
            sol, applications = x[self._order], 0      # in the solve order
        else:           # zero misses the bound unless rhs_u is zero
            sol, applications = self._apply_factor(rhs[self._order]), 1
        while True:
            x[self._order] = sol
            res = rhs - self._k @ x
            err = np.abs(res).max()
            bound = SADDLE_BACKWARD_ERROR * (
                rhs_norm + self._k_norm * np.abs(sol).max())
            if err <= bound < math.inf:     # a non-finite sol fails here
                break
            if applications > SADDLE_MAX_REFINEMENTS:
                raise SolverError(
                    f"saddle solve missed its backward error bound after "
                    f"{applications} factor applications: residual "
                    f"{err:.3e} > {bound:.3e}")
            sol += self._apply_factor(res[self._order])
            applications += 1
        p = x[self.n_u:]
        return x[:self.n_u], p - self._mean_weights @ p


@dataclass(frozen=True)
class PicardConfig:
    tol: float = 1e-10
    max_iters: int = 200

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    residual: float
    damping: float
    history: list = field(default_factory=list)
    #: the iteration whose sweep first linearized, None if none did, and
    #: how many sweeps did
    linearized_at: int | None = None
    linearized_sweeps: int = 0
    #: the first iteration whose iterate was an Anderson candidate, None
    #: if none was, and how many were
    accelerated_at: int | None = None
    accelerated: int = 0


def picard_solve(problem, x0, config: PicardConfig | None = None):
    """Damped block Gauss-Seidel fixed-point iteration.

    ``problem`` provides ``residual(x) -> (r, pass)`` (the
    preconditioned monolithic residual and what a sweep from ``x``
    reuses), ``sweep(pass, linearize) -> x_new`` (one pass through the
    factorized blocks, the plain one or the linearized one) and a
    ``scale`` attribute fixing the absolute convergence threshold ``tol *
    scale``.  The driver sweeps from the accepted iterate's pass.  It asks
    for the linearized sweep from the first iteration whose accepted
    iterate left more than :data:`LINEARIZE_ABOVE` of the residual before
    it, to the end of the solve.

    Once the sweep has linearized and the accepted residual is at most
    :data:`ANDERSON_BELOW` of the first one, each iteration first tries
    an Anderson candidate (type II, Walker and Ni, SIAM J. Numer. Anal.
    49, 2011) built from the increment ``f = sweep - x`` and a window of
    the last :data:`ANDERSON_DEPTH` differences ``dX``, ``dF`` of the
    iterates and their increments: ``x + f - (dX + dF) gamma``, with
    ``gamma`` minimizing ``|f - dF gamma|``, once the window holds two
    differences.  The candidate is kept if its residual passes the
    blend's test; otherwise the window is cleared to the current point
    and the iteration blends the same increment.  The candidate is an
    affine combination of sweeps, so it keeps what every sweep keeps
    (the Dirichlet velocity, the pressure's mean, a conserved integral).
    An accepted candidate is taken whole, so ``damping`` reads 1 after
    it, and the next blend starts from 1 without a secant estimate.

    Returns ``(x, SolveReport)``; inspect ``report.converged``.
    """
    cfg = config or PicardConfig()
    x = np.asarray(x0, float).copy()
    r, block_pass = problem.residual(x)
    threshold = cfg.tol * problem.scale
    guard = DIVERGENCE_FACTOR * (r + threshold)
    history = [r]
    omega = 1.0
    incr_prev = None
    omega_prev = None
    linearized_at, linearized_sweeps = None, 0
    accelerated_at, accelerated = None, 0
    window = None       # the Anderson phase's last (iterate, increment)s

    def report(converged, iterations):
        return SolveReport(converged, iterations, r, omega, history,
                           linearized_at, linearized_sweeps,
                           accelerated_at, accelerated)

    for it in range(1, cfg.max_iters + 1):
        if r <= threshold:
            return x, report(True, it - 1)
        if (linearized_at is None and len(history) > 1
                and r > LINEARIZE_ABOVE * history[-2]):
            linearized_at = it
        linearize = linearized_at is not None
        linearized_sweeps += linearize
        incr = problem.sweep(block_pass, linearize) - x
        if (window is None and linearize
                and r <= ANDERSON_BELOW * history[0]):
            window = []
        x_try = None
        if window is not None:
            window = (window + [(x, incr)])[-ANDERSON_DEPTH - 1:]
            if len(window) > 2:         # two differences
                x_try = _anderson_candidate(window)
                if x_try is not None:
                    r_try, pass_try = problem.residual(x_try)
                    if not r_try <= r * (1.0 + 1e-12):
                        x_try = None
                if x_try is None:
                    window = window[-1:]
                else:
                    accelerated_at = accelerated_at or it
                    accelerated += 1
                    omega, incr_prev = 1.0, None
        if x_try is None:
            if incr_prev is not None:
                diff = incr - incr_prev
                denom = float(diff @ diff)
                if denom > 0.0:
                    est = -omega_prev * float(incr_prev @ diff) / denom
                    omega = min(max(est, MIN_DAMPING), 1.0)
            while True:
                x_try = x + omega * incr
                r_try, pass_try = problem.residual(x_try)
                if r_try <= r * (1.0 + 1e-12) or omega <= MIN_DAMPING:
                    break
                omega = max(0.5 * omega, MIN_DAMPING)
            incr_prev = incr
            omega_prev = omega
        x, r, block_pass = x_try, r_try, pass_try
        history.append(r)
        if not np.isfinite(r) or r > guard:
            return x, report(False, it)

    return x, report(r <= threshold, cfg.max_iters)


def _anderson_candidate(window):
    """``x + f - (dX + dF) gamma`` for the last ``(x, f)`` of ``window``,
    with ``dX`` and ``dF`` the differences of its successive iterates and
    increments and ``gamma`` minimizing ``|f - dF gamma|``: a QR of the
    few columns of ``dF`` by :func:`_orthogonalize`, its triangle and the
    back substitution kept in Python floats.  None if a column depends on
    those before it or the candidate is not finite."""
    (x, f), n = window[-1], len(window) - 1
    q, steps = np.empty((n, len(x))), np.empty((n, len(x)))
    tri = []                        # the triangle's columns
    for j, ((x0, f0), (x1, f1)) in enumerate(zip(window, window[1:])):
        w = f1 - f0
        steps[j] = (x1 - x0) + w
        col, norm = _orthogonalize(q[:j], w)
        if not norm > 0.0:
            return None
        q[j] = w / norm
        tri.append(col + [norm])
    rhs, gamma = (q @ f).tolist(), [0.0] * n
    for i in reversed(range(n)):    # back substitution in the triangle
        gamma[i] = (rhs[i] - sum(tri[k][i] * gamma[k]
                                 for k in range(i + 1, n))) / tri[i][i]
    x_new = x + f - np.array(gamma) @ steps
    return x_new if np.all(np.isfinite(x_new)) else None


def _orthogonalize(basis, w):
    """Classical Gram-Schmidt run twice: ``w`` is made orthogonal to the
    orthonormal rows of ``basis`` in place, and the coefficients of both
    passes (summed, as a list of floats) and the norm of what remains
    are returned.  The second pass restores orthogonality to working
    precision (Giraud, Langou and Rozloznik, Comput. Math. Appl. 50,
    2005) with two matrix products a pass, where modified Gram-Schmidt
    needs one Python-level loop step per row."""
    h = basis @ w
    w -= h @ basis
    h2 = basis @ w
    w -= h2 @ basis
    return (h + h2).tolist(), math.sqrt(w @ w)     # as np.linalg.norm sums


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
    also carries ``initial_report``
    (:class:`fenep.scheme_p1diff.InitialReport`): the range of the
    stress data, and whether the projected stress, whose bounds are in
    ``audit``, stays inside it.
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
    convection ``conv = Re C(u_prev)``, which the block pass moves to its
    right-hand side at the velocity of the iterate.
    The k scalar blocks share one factorized matrix, ``scalar_lu``, which
    the scheme's ``stress_block`` gives with its ``local_terms``, after
    the saddle matrix is factored (factoring the small matrix first
    raised the peak memory of a run by a few MB).  Factorizations held
    across steps raise the floor under every later peak, so the
    convection fills a data array on the velocity space's one pattern
    (:attr:`fenep.fespaces.FESpace.pattern`, which the mass and the
    stiffness fill too), with geometry tables made once per run, instead
    of assembling through COO temporaries: a step gathers the
    coefficients of ``u_prev``, takes one matrix product over all cells
    and fills the pattern once.  ``conv`` holds every dof, and the pass
    takes its free rows of ``conv @ u``: every iterate vanishes on the
    Dirichlet dofs, so they equal the free block of ``conv`` times the
    free part of ``u``.

    ``stress_terms(sig, rho) -> (rhs_u, frozen)`` computes all that
    depends on the stress iterate alone, from one spectral decomposition
    of ``sig`` and the ``local_terms`` of it: the momentum right-hand side
    with the coupling ``(eps/Wi) (k A beta, grad v)``, the relaxation,
    previous-step and advection terms of the scalar blocks, and ``2 k``,
    the weight of the deformation term ``2 k sym(grad(u) beta)`` (and
    its trace) that the coupling cancels; ``frozen`` keeps the
    decomposition too.  ``rhs_scalars(grad_u, frozen)`` adds that term,
    at the :meth:`velocity_gradient` ``grad_u`` of ``u``, to give the
    (m, k) scalar right-hand sides.

    One block pass per iterate serves both methods: the stress terms
    and the saddle solve ``(u_new, p_new)`` of ``rhs_u - conv u``,
    started at the iterate's own ``(u, p)``.
    ``residual(x)`` computes the pass and returns it beside the norm of
    ``(u_new - u, p_new - p, S^-1 R(u) - s)``, with ``R`` the
    ``rhs_scalars``: the block solve of the monolithic residual whenever
    ``p`` has zero mean, as the saddle solve and the driver's blends
    keep it.  ``sweep(pass)`` returns ``(u_new, p_new, S^-1 R(u_new))``
    from that pass and evaluates nothing of the iterate again.

    ``sweep(pass, linearize=True)``, which :func:`picard_solve` asks for
    once the plain sweep stalls, solves ``(kron(I_k, S) - J) s_new =
    R(u_new, frozen(x)) - J s(x)`` instead, with ``J`` the
    :meth:`local_jacobian` at ``x``: as ``s_new = s(x) + d``, where ``(I -
    S^-1 J) d = S^-1 R - s(x)``, the plain sweep's increment, which GMRES
    solves through ``scalar_lu`` to :data:`LINEARIZED_RTOL` of that
    increment in at most :data:`LINEARIZED_MAX_PRODUCTS` products.  A
    fixed point of either sweep has ``d = 0`` and so a zero increment,
    ``S s = R``, and the residual above measures both.  Either sweep is a
    function of the pass and the flag alone: the step keeps no state
    across calls.
    """

    def __init__(self, scheme: ImplicitScheme, state: State, dt: float):
        self.scheme = scheme
        self.dt = dt
        prm = scheme.params
        u_prev = state.u
        self.free = scheme.free

        self.saddle = scheme.saddle_operator(dt)
        # Re C(u_prev) on every dof, filled on the velocity space's pattern
        self.conv = convection_matrix(scheme.mesh, scheme.v, u_prev)
        self.conv.data *= prm.re
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
        self.scalar_lu, self.local_terms = scheme.stress_block(state, dt)

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

    def velocity_gradient(self, u):
        """The tested velocity gradient ``grad @ u``, (m, 2, 2)."""
        return (self.scheme.grad @ u).reshape(self.m, 2, 2)

    def rhs_scalars(self, grad_u, frozen):
        weight, beta, fixed, adv, _ = frozen
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

    def local_jacobian(self, s, grad_u, frozen):
        """``J``: per stress node, the k x k derivative of the local terms
        of ``R(u, frozen(s))`` (relaxation flux and deformation term) in
        the node's scalars ``s`` (m, k), with the coupling weight frozen
        and ``grad_u`` the :meth:`velocity_gradient` of ``u``; entry
        ``[node, row, column]``.  ``frozen`` is that of ``s``, whose
        spectrum it holds."""
        prm, reg = self.scheme.params, self.scheme.params.reg
        weight, beta, _, _, spectrum = frozen
        eta = s[:, 3] if self.k == 4 else tc.trace(s)
        arg = 1.0 - eta / prm.b
        coef = 1.0 / tc.beta_delta(arg, reg)    # g'(arg)
        # d coef / d eta = -g''(arg) / b, with g'' = -1/arg^2 = -coef^2
        dcoef = np.where(arg >= reg.delta, coef * coef / prm.b, 0.0)
        relax = self.scheme.weights / prm.wi
        sym_map, rows_map = self._increment_rows
        # the local terms' derivative in beta, then beta's in sigma
        d_def = grad_u.reshape(self.m, 4) @ sym_map
        d_terms = (weight[:, :, None] * d_def.reshape(self.m, self.k, 3)
                   - (relax * coef)[:, None, None] * rows_map)
        jac = np.zeros((self.m, self.k, self.k))
        jac[:, :, :3] = d_terms @ tc.beta_delta_jacobian(*spectrum, reg)
        # and the flux's coefficient in eta: rho, or the trace of sigma
        d_eta = np.array([0.0, 0.0, 0.0, 1.0] if self.k == 4
                         else [1.0, 0.0, 1.0])
        beta_rows = self._rows(beta[:, [0, 0, 1], [0, 1, 1]])
        jac -= ((relax * dcoef)[:, None] * beta_rows)[:, :, None] * d_eta
        return jac

    def _scalar_solve(self, grad_u, frozen):
        return _finite(self.scalar_lu.solve(self.rhs_scalars(grad_u, frozen)))

    def _linear_scalar_solve(self, x, grad_u, frozen):
        """``s + d`` at ``s`` of ``x``, where ``(I - S^-1 J) d = S^-1 R(u,
        frozen) - s`` (the plain sweep's increment) is solved by GMRES
        through the step's factor of ``S``: that is ``(kron(I_k, S) - J)
        (s + d) = R(u, frozen) - J s``, with ``R`` and ``J`` at the
        :meth:`velocity_gradient` ``grad_u`` of ``u``."""
        s = self._scalars(x)
        jac = self.local_jacobian(s, grad_u, frozen)
        k, m, lu = self.k, self.m, self.scalar_lu

        def apply(v):       # v and the product packed like the iterate
            jv = np.einsum("nij,jn->in", jac, v.reshape(k, m))
            return v - lu.solve(jv.T).T.ravel()

        d = _gmres(apply, (self._scalar_solve(grad_u, frozen) - s).T.ravel(),
                   LINEARIZED_RTOL, LINEARIZED_MAX_PRODUCTS)
        return _finite(s + d.reshape(k, m).T)

    def residual(self, x):
        """``(norm, pass)``, the pass ``(x, frozen, u_new, p_new)``."""
        u, p, sig, rho = self.split(x)
        rhs_u, frozen = self.stress_terms(sig, rho)
        u_f, p_new = self.saddle.solve(
            (rhs_u - self.conv @ u)[self.free], start=(u[self.free], p))
        u_new = np.zeros(self.n_u)
        u_new[self.free] = u_f
        scalars = self._scalar_solve(self.velocity_gradient(u), frozen)
        r = float(np.linalg.norm(self.pack(u_new, p_new, scalars) - x))
        return r, (x, frozen, u_new, p_new)

    def sweep(self, block_pass, linearize=False):
        x, frozen, u_new, p_new = block_pass
        grad_u = self.velocity_gradient(u_new)
        scalars = (self._linear_scalar_solve(x, grad_u, frozen) if linearize
                   else self._scalar_solve(grad_u, frozen))
        return self.pack(u_new, p_new, scalars)


def _gmres(apply, b, rtol: float, max_products: int):
    """GMRES (Saad and Schultz, 1986) for ``apply(x) = b`` from ``x = 0``,
    without restarts: it stops once the residual is at most ``rtol |b|``
    or after ``max_products`` products, and returns the iterate.  The
    Arnoldi basis is orthogonalized by :func:`_orthogonalize`, and Givens
    rotations carry the residual norm.  The Hessenberg columns, the
    rotations, the rotated residual and the back substitution are Python
    floats: with a few dozen of them, numpy's per-call cost would
    outweigh their arithmetic.  The back substitution's sums round every
    product, where a BLAS ``dot`` may fuse it with the add, so its last
    bits may differ from a numpy row product's.  ``b = 0`` gives 0."""
    beta = float(np.linalg.norm(b))
    basis = np.empty((max_products + 1, len(b)))     # rows set before use
    cols, rotations = [], []        # the triangle's columns
    res = [beta]                    # the rotated residual
    if beta > 0.0:
        basis[0] = b / beta
    n = 0
    while n < max_products and abs(res[n]) > rtol * beta:
        w = apply(basis[n])
        col, sub = _orthogonalize(basis[:n + 1], w)
        for i, (c, sn) in enumerate(rotations):
            col[i], col[i + 1] = (c * col[i] + sn * col[i + 1],
                                  c * col[i + 1] - sn * col[i])
        r = math.hypot(col[n], sub)
        if r == 0.0:        # singular on the Krylov space: keep the iterate
            break
        c, sn = col[n] / r, sub / r
        rotations.append((c, sn))
        col[n] = r
        cols.append(col)
        res[n:] = c * res[n], -sn * res[n]
        n += 1
        if sub > 0.0:       # else the space is invariant and res[n] is 0
            basis[n] = w / sub
    y = [0.0] * n
    for i in reversed(range(n)):    # back substitution in the triangle
        y[i] = (res[i] - sum(cols[k][i] * y[k]
                             for k in range(i + 1, n))) / cols[i][i]
    return np.array(y) @ basis[:n]


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

    def _free_saddle(self, a_mat) -> SaddleOperator:
        """The :class:`SaddleOperator` of the velocity matrix ``a_mat`` on
        the free dofs with ``B``."""
        a_ff = a_mat[self.free][:, self.free].tocsr()
        del a_mat  # freed before the factorization, the memory peak
        return SaddleOperator(a_ff, self.b_free, self.weights,
                              self.v.cell_local[self.free])

    def saddle_operator(self, dt: float) -> SaddleOperator:
        """The factorized saddle matrix of ``Re/dt M + (1-eps) K`` on the
        free dofs with ``B``."""
        prm = self.params
        return self._cached("saddle", (dt, prm.re, prm.eps), lambda: (
            self._free_saddle((prm.re / dt) * self.mass
                              + (1.0 - prm.eps) * self.stiff)))

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
            load = velocity_load(self.mesh, self.v, u0)[self.free]
            u[self.free] = self._free_saddle(
                self.mass + dt0 * self.stiff).solve(load)[0]

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
            sig = splu((sp.diags(self.weights) + dt0 * self.k_scalar).tocsc(),
                       **LU_OPTIONS).solve(moments)
        rho = tc.trace(sig) if self.carries_trace else None

        state, eigs = self._audited_state(u, np.zeros(self.q.n_dofs), sig, rho)
        state.initial_report = self._initial_report(samples, eigs, state.audit)
        return state

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

    def _initial_report(self, samples, eigs, audit):
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
        if not report.converged:
            err = SolverError(
                f"step at t={state.t:.6g} (dt={dt:.3g}) did not converge: "
                f"residual {report.residual:.3e} after {report.iterations} "
                f"iterations (damping {report.damping:.3g})")
            err.report = report
            raise err
        new_state = self._audited_state(*problem.split(x), state, dt,
                                        cfg.tol)[0]
        return new_state, report, new_state.audit

    def _audited_state(self, u, p, sig, rho, before: State | None = None,
                       dt: float = 0.0, tol: float | None = None):
        """The state ``(u, p, sig, rho)`` that a step of length ``dt`` made
        from ``before``, with its free energy and the audit of that step
        at the slack of Picard tolerance ``tol``, and the eigenvalues of
        its stress.  ``before`` None is the state itself: a step of length
        zero, with no dissipation, no work and no slack.  The state is
        decomposed once: :func:`fenep.tensorcalc.eig_sym` of ``sig`` gives
        the eigenvalues that the free energy, the relaxation dissipation
        and the stress bounds take, and the frame in which
        ``_extra_audit_terms`` may recompose spectral functions.
        """
        prm, w = self.params, self.weights
        eigs, frame = tc.eig_sym(sig)      # the one decomposition of the state
        eta = _eta(sig, rho)
        f_after = free_energy(prm, w, self.mass, u, eigs, eta)
        if before is None:
            before = State(u, p, sig, rho, energy=f_after)
        f_before = before.energy
        if f_before is None:
            f_before = free_energy(prm, w, self.mass, before.u,
                                   tc.eig_sym(before.sigma)[0],
                                   _eta(before.sigma, before.rho))
        du = u - before.u
        terms = {
            "kinetic_jump": 0.5 * prm.re * float(du @ (self.mass @ du)),
            "viscous": dt * (1.0 - prm.eps) * float(u @ (self.stiff @ u)),
            "relaxation": dt * relaxation_dissipation(prm, w, eigs, eta),
            "forcing": dt * float(self.fvec @ u),
            **self._extra_audit_terms(eigs, frame, rho, dt)}
        # + 0.0 turns the -0.0 of a negative rate times dt = 0 into 0.0
        terms = {k: v + 0.0 if isinstance(v, float) else v
                 for k, v in terms.items()}
        tr = tc.trace(sig)
        audit = StepAudit(
            f_before=f_before.total, f_after=f_after.total,
            slack=(0.0 if tol is None
                   else audit_slack(tol, f_before.total, f_after.total)),
            trace_balance=0.0 if rho is None else float(w @ (tr - rho)),
            min_eig_sigma=float(eigs[:, 0].min()),
            max_trace_sigma=float(tr.max()), **terms)
        return State(u, p, sig, rho, before.t + dt, f_after, audit), eigs


def _eta(sig, rho):
    """The trace variable: the carried trace field, else the trace of sig."""
    return tc.trace(sig) if rho is None else rho
