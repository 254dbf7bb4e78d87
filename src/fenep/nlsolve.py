"""Saddle point solves and the damped Picard driver shared by both schemes.

Each time step is a coupled implicit system for velocity, pressure and
stress (plus the auxiliary trace in the diffusive scheme).  The schemes
expose it to the driver as a fixed-point problem: one ``sweep`` performs
a block Gauss-Seidel pass through the factorized linear blocks with the
other fields frozen, and ``residual`` evaluates the monolithic implicit
residual at a state, preconditioned block-wise by the same factorized
operators so its entries carry the units of the unknowns themselves.

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

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

__all__ = [
    "SolverError",
    "PicardConfig",
    "SolveReport",
    "SaddleOperator",
    "picard_solve",
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
