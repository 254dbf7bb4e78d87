"""Tests for the saddle-point operator, the damped Picard driver and the
block step both schemes share (its block-pass cache, its residual
against the monolithic form, solve checks and the per-step-size saddle
factorization).  The saddle solves are checked for their backward
error, their failure when refinement stalls and the fill of their
symmetric factorization; with the mini element's bubbles condensed
out, for one triangular solve each and for agreement with the
uncondensed operator; the regularized step operators and the initial
projection, for two each; and from a start, for the cold answer in
fewer applications when the factor is regularized.

The manufactured Stokes forcing below was generated symbolically from
the stream function psi = x^2 (1-x)^2 y^2 (1-y)^2 (velocity u = curl
psi, pressure 0, f = -laplace u) and frozen here together with two
point values and the exact L2 norm of u as cross-checks.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import fe_oracles as oracle
import fenep.fespaces as fe
import fenep.tensorcalc as tc
from continuation import delta_continuation
from fenep import cli, nlsolve, scheme_p0, scheme_p1diff
from fenep.meshing import structured_unit_square
from fenep.nlsolve import (
    PicardConfig,
    SaddleOperator,
    SolverError,
    picard_solve,
)
from fenep.params import ModelParams


def stream_velocity(x, y):
    ux = 2.0 * x ** 2 * (1 - x) ** 2 * y * (1 - y) * (1 - 2 * y)
    uy = -2.0 * x * (1 - x) * (1 - 2 * x) * y ** 2 * (1 - y) ** 2
    return ux, uy


def stokes_forcing(x, y):
    f1 = (x ** 2 * (x * (12 * x - 24) + 12)
          + y * (x * (x * (x * (48 - 24 * x) - 48) + 24)
                 + y * (x * (72 * x - 72) + y * (x * (48 - 48 * x) - 8) + 12)
                 - 4))
    f2 = (x * (x * (x * (y * (48 * y - 48) + 8) + y * (72 - 72 * y) - 12)
               + y * (y * (y * (24 * y - 48) + 48) - 24) + 4)
          + y ** 2 * (y * (24 - 12 * y) - 12))
    return f1, f2


U_NORM_SQ = 2.0 / 33075.0


def test_frozen_point_values():
    ux, uy = stream_velocity(0.25, 1.0 / 3.0)
    assert ux == pytest.approx(1.0 / 192.0, abs=1e-15)
    assert uy == pytest.approx(-1.0 / 108.0, abs=1e-15)
    fx, fy = stokes_forcing(0.25, 1.0 / 3.0)
    assert fx == pytest.approx(307.0 / 1728.0, abs=1e-13)
    assert fy == pytest.approx(-91.0 / 216.0, abs=1e-13)
    ux, uy = stream_velocity(0.5, 0.2)
    assert ux == pytest.approx(3.0 / 250.0, abs=1e-15)
    assert uy == pytest.approx(0.0, abs=1e-15)
    fx, fy = stokes_forcing(0.5, 0.2)
    assert fx == pytest.approx(321.0 / 500.0, abs=1e-13)
    assert fy == pytest.approx(0.0, abs=1e-13)


def solve_stokes(n):
    mesh = structured_unit_square(n)
    v = fe.build_space(mesh, "velocity_p2")
    p = fe.build_space(mesh, "pressure_p1")
    free = ~v.dirichlet_mask
    k = fe.velocity_stiffness(mesh, v).tocsr()
    b = oracle.divergence_matrix(mesh, v, p).tocsr()
    rhs = fe.velocity_load(mesh, v, stokes_forcing, degree=8)
    op = SaddleOperator(k[free][:, free], b[:, free],
                        fe.pressure_integral_vector(mesh, p))
    uf, ph = op.solve(rhs[free])
    coeffs = np.zeros(v.n_dofs)
    coeffs[free] = uf
    return mesh, v, coeffs, ph


def velocity_l2_error(mesh, v, coeffs):
    rule = fe.triangle_rule(8)
    uh = fe.evaluate_velocity(mesh, v, coeffs, rule.points)
    pts = np.einsum("qj,kjd->kqd", rule.points, mesh.vertices[mesh.cells])
    ux, uy = stream_velocity(pts[..., 0], pts[..., 1])
    diff = (uh[..., 0] - ux) ** 2 + (uh[..., 1] - uy) ** 2
    return float(np.sqrt(mesh.cell_areas @ (diff @ rule.weights)))


def test_stokes_zero_forcing_gives_rest():
    mesh = structured_unit_square(4)
    v = fe.build_space(mesh, "velocity_p2")
    p = fe.build_space(mesh, "pressure_p1")
    free = ~v.dirichlet_mask
    k = fe.velocity_stiffness(mesh, v).tocsr()
    b = oracle.divergence_matrix(mesh, v, p).tocsr()
    op = SaddleOperator(k[free][:, free], b[:, free],
                        fe.pressure_integral_vector(mesh, p))
    uf, ph = op.solve(np.zeros(int(free.sum())))
    assert np.allclose(uf, 0.0, atol=1e-13)
    assert np.allclose(ph, 0.0, atol=1e-12)


def test_stokes_manufactured_convergence():
    errors = {}
    for n in (8, 16):
        mesh, v, coeffs, ph = solve_stokes(n)
        errors[n] = velocity_l2_error(mesh, v, coeffs)
        # pressure of the manufactured solution is zero mean anyway;
        # the operator shifts the discrete pressure to zero mean
        w = fe.pressure_integral_vector(mesh,
                                        fe.build_space(mesh, "pressure_p1"))
        assert abs(w @ ph) < 1e-12
    rate = np.log2(errors[8] / errors[16])
    assert errors[16] < errors[8] < np.sqrt(U_NORM_SQ)
    assert rate >= 2.7, f"observed L2 rate {rate:.3f}"


def test_saddle_operator_validates_shapes():
    mesh = structured_unit_square(2)
    v = fe.build_space(mesh, "velocity_p2")
    p = fe.build_space(mesh, "pressure_p1")
    k = fe.velocity_stiffness(mesh, v).tocsr()
    b = oracle.divergence_matrix(mesh, v, p).tocsr()
    with pytest.raises(ValueError):
        SaddleOperator(k[:10][:, :10], b,
                       fe.pressure_integral_vector(mesh, p))


PAIRS = [("velocity_p2", "pressure_p0"), ("velocity_mini", "pressure_p1")]


def convective_saddle(vel, pres, seed=0):
    """Non-symmetric free-dof blocks of one implicit step on n = 4."""
    rng = np.random.default_rng(seed)
    mesh = structured_unit_square(4)
    v = fe.build_space(mesh, vel)
    p = fe.build_space(mesh, pres)
    free = ~v.dirichlet_mask
    conv = fe.convection_matrix(mesh, v, rng.standard_normal(v.n_dofs)
                                )[free][:, free]
    a = (20.0 * fe.velocity_mass(mesh, v)
         + fe.velocity_stiffness(mesh, v)).tocsr()[free][:, free] + conv
    b = oracle.divergence_matrix(mesh, v, p).tocsr()[:, free]
    return (a, b, fe.pressure_integral_vector(mesh, p), v.cell_local[free],
            rng)


def bordered_solve(a, b, mean_vec, rhs_u, rhs_div):
    """Dense solve with one multiplier bordering the mean constraint;
    ``rhs_div`` is the data of the divergence rows."""
    n_u, n_p = a.shape[0], b.shape[0]
    k = np.zeros((n_u + n_p + 1,) * 2)
    k[:n_u, :n_u] = a.toarray()
    k[:n_u, n_u:n_u + n_p] = b.T.toarray()
    k[n_u:n_u + n_p, :n_u] = b.toarray()
    k[n_u:n_u + n_p, -1] = mean_vec
    k[-1, n_u:n_u + n_p] = mean_vec
    sol = np.linalg.solve(k, np.concatenate([rhs_u, rhs_div, [0.0]]))
    return sol[:n_u], sol[n_u:n_u + n_p]


@pytest.mark.parametrize("vel,pres", PAIRS)
def test_pinned_saddle_matches_bordered_system(vel, pres):
    a, b, mean_vec, local, rng = convective_saddle(vel, pres)
    assert abs(a - a.T).max() > 1e-3          # convection makes A non-symmetric
    op = SaddleOperator(a, b, mean_vec, local)
    rhs_u = rng.standard_normal(a.shape[0])
    u, p = op.solve(rhs_u)
    u_ref, p_ref = bordered_solve(a, b, mean_vec, rhs_u, np.zeros(b.shape[0]))
    assert np.linalg.norm(u - u_ref) <= 1e-10 * np.linalg.norm(u_ref)
    assert np.linalg.norm(p - p_ref) <= 1e-10 * np.linalg.norm(p_ref)
    assert abs(mean_vec @ p) <= 1e-12 * np.linalg.norm(p)


@pytest.mark.parametrize("vel,pres", PAIRS)
def test_singular_saddle_raises_solver_error(vel, pres):
    a, b, mean_vec, local, _ = convective_saddle(vel, pres)
    with pytest.raises(SolverError):
        SaddleOperator(0.0 * a, b, mean_vec, local)


def step_saddle(vel, pres, n, dt):
    """Free-dof blocks of ``Re/dt M + (1-eps) K`` (Re = 1, eps = 0.5) with
    ``B`` on n x n, or of the mass ``M`` alone when dt is None, and the
    free cell-local dofs."""
    mesh = structured_unit_square(n)
    v = fe.build_space(mesh, vel)
    p = fe.build_space(mesh, pres)
    free = ~v.dirichlet_mask
    a = fe.velocity_mass(mesh, v)
    if dt is not None:
        a = a / dt + 0.5 * fe.velocity_stiffness(mesh, v)
    b = oracle.divergence_matrix(mesh, v, p).tocsr()[:, free]
    return (a.tocsr()[free][:, free], b, fe.pressure_integral_vector(mesh, p),
            v.cell_local[free])


def pinned_matrix(a, b):
    """``[[A, B0^T], [B0, 0]]``, ``B0`` being B less its first row."""
    b0 = b[1:]
    return sp.bmat([[a, b0.T], [b0, None]], format="csc")


class CountedFactor:
    """A factor that counts its triangular solves."""

    def __init__(self, lu):
        self.lu = lu
        self.calls = 0

    def solve(self, rhs):
        self.calls += 1
        return self.lu.solve(rhs)


class HalvedFactor(CountedFactor):
    """The factor of twice the matrix of ``lu``."""

    def solve(self, rhs):
        return 0.5 * super().solve(rhs)


def fill(lu):
    return lu.L.nnz + lu.U.nnz


STEP_PAIRS = [("velocity_p2", "pressure_p0"),
              ("velocity_p2_reduced", "pressure_p0"),
              ("velocity_mini", "pressure_p1")]


def backward_error(k, rhs_u, x):
    """Normwise backward error of ``x`` in ``k x = (rhs_u, 0)``, max norms."""
    res = np.concatenate([rhs_u, np.zeros(k.shape[0] - len(rhs_u))]) - k @ x
    k_norm = abs(k).sum(axis=1).max()
    return np.abs(res).max() / (np.abs(rhs_u).max()
                                + k_norm * np.abs(x).max())


@pytest.mark.parametrize("dt", [None, 1e-3, 0.05, 1.0, 10.0])
@pytest.mark.parametrize("vel,pres", STEP_PAIRS)
def test_saddle_solve_meets_its_backward_error_bound(vel, pres, dt):
    a, b, mean_vec, local = step_saddle(vel, pres, 8, dt)
    rhs_u = np.random.default_rng(1).standard_normal(a.shape[0])
    op = SaddleOperator(a, b, mean_vec, local)
    op._lu = factor = CountedFactor(op._lu)
    u, p = op.solve(rhs_u)
    # the unpinned system: the zero-mean shift of p leaves B^T p unchanged
    k = sp.bmat([[a, b.T], [b, None]], format="csr")
    assert backward_error(k, rhs_u, np.concatenate([u, p])) <= 1e-14
    assert np.linalg.norm(b @ u) <= 1e-12 * np.linalg.norm(u)
    # the condensed factor is unregularized: it solves K at once
    assert factor.calls == 1 or not local.any()


#: the schemes' pairs without cell-local velocity dofs, whose every
#: pressure row is regularized
REGULARIZED_SCHEMES = [("p0", "velocity_p2"), ("p0", "velocity_p2_reduced"),
                       ("p1diff", "velocity_p2")]


@pytest.mark.parametrize("kind,vel", REGULARIZED_SCHEMES)
def test_step_saddle_solve_takes_two_factor_applications(kind, vel):
    # at n = 32 the weight 1e-8 is what keeps one refinement enough: at
    # 1e-9 P2/P0 takes three applications at dt >= 0.05
    params = ModelParams(re=1.0, wi=1.0, eps=0.5, b=5.0, delta=0.1,
                         alpha=None if kind == "p0" else 0.1)
    cls = scheme_p0.SchemeP0 if kind == "p0" else scheme_p1diff.SchemeP1Diff
    scheme = cls(structured_unit_square(32), params, velocity=vel)
    free, b = scheme.free, scheme.b_free
    rhs_u = np.random.default_rng(1).standard_normal(len(free))
    calls = {}
    for dt in (1e-3, 0.05, 1.0, 10.0):
        op = scheme.saddle_operator(dt)
        op._lu = factor = CountedFactor(op._lu)
        u, p = op.solve(rhs_u)
        # the zero-mean shift of p leaves B^T p unchanged
        a = (scheme.mass / dt + 0.5 * scheme.stiff)[free][:, free]
        k = sp.bmat([[a, b.T], [b, None]], format="csr")
        assert backward_error(k, rhs_u, np.concatenate([u, p])) <= 1e-14, dt
        calls[dt] = factor.calls
    assert calls == dict.fromkeys(calls, 2)


@pytest.mark.parametrize("dt", [1e-3, 0.05, 1.0, 10.0])
@pytest.mark.parametrize("vel,pres", STEP_PAIRS)
def test_started_saddle_solve_matches_the_cold_one(vel, pres, dt):
    """From a zero start, the cold solution and a perturbed one, a solve
    meets the bound and lands on the cold solve.  A regularized factor
    refines from the start, so the cold solution costs it at most one
    application; the exact mini factor ignores the start."""
    a, b, mean_vec, local = step_saddle(vel, pres, 8, dt)
    n_u = a.shape[0]
    rng = np.random.default_rng(1)
    rhs_u = rng.standard_normal(n_u)
    op = SaddleOperator(a, b, mean_vec, local)
    cold = np.concatenate(op.solve(rhs_u))
    k = sp.bmat([[a, b.T], [b, None]], format="csr")
    op._lu = factor = CountedFactor(op._lu)
    calls = []
    for start in (np.zeros_like(cold), cold,
                  cold * (1.0 + 1e-3 * rng.standard_normal(len(cold)))):
        factor.calls = 0
        u, p = op.solve(rhs_u, start=(start[:n_u], start[n_u:]))
        x = np.concatenate([u, p])
        assert backward_error(k, rhs_u, x) <= 1e-14
        assert np.linalg.norm(x - cold) <= 1e-12 * np.linalg.norm(cold)
        calls.append(factor.calls)
    if local.any():
        assert calls == [1, 1, 1]
    else:
        assert calls[1] <= 1


@pytest.mark.parametrize("kind,vel", [
    *(pytest.param("p0", v, id=v) for v in scheme_p0.SchemeP0.VELOCITIES),
    pytest.param("p1diff", "velocity_p2", id="p1diff-velocity_p2")])
def test_initial_projection_takes_two_factor_applications(kind, vel,
                                                          monkeypatch):
    """The mass-only projection of p0 and P2/P1's smoothed one at dt0 =
    0.1 take one refinement of the decay data, at the one weight."""
    made = count_saddles(monkeypatch)
    params = ModelParams(re=1.0, wi=1.0, eps=0.5, b=5.0, delta=0.1,
                         alpha=None if kind == "p0" else 0.1)
    cls = scheme_p0.SchemeP0 if kind == "p0" else scheme_p1diff.SchemeP1Diff
    u0, sigma0, _ = cli.scenario_fields("decay", 1.0, params)
    for n in (8, 32):
        scheme = cls(structured_unit_square(n), params, velocity=vel)
        scheme.initial_state(u0, sigma0, dt0=0.0 if kind == "p0" else 0.1)
    assert [op._lu.calls for op in made] == [2, 2]


def test_projection_meets_the_bound_on_every_pressure_row():
    """Every pressure row is checked and regularized, none pinned: with
    pressure dof 0 pinned and its row left unchecked, P2/P0's projection
    of the decay data read 2.0e-14 on the whole system, in two
    applications as now."""
    params = ModelParams(re=1.0, wi=1.0, eps=0.5, b=5.0, delta=0.1)
    u0 = cli.scenario_fields("decay", 1.0, params)[0]
    scheme = scheme_p0.SchemeP0(structured_unit_square(16), params)
    free, b = scheme.free, scheme.b_free
    load = fe.velocity_load(scheme.mesh, scheme.v, u0)[free]
    op = scheme._free_saddle(scheme.mass)
    op._lu = factor = CountedFactor(op._lu)
    u, p = op.solve(load)
    k = sp.bmat([[scheme.mass[free][:, free], b.T], [b, None]], format="csr")
    assert backward_error(k, load, np.concatenate([u, p])) <= 1e-14
    assert factor.calls == 2


@pytest.mark.parametrize("dt", [None, 1e-3, 1.0])
def test_condensed_saddle_solve_matches_the_uncondensed_one(dt):
    a, b, mean_vec, local = step_saddle("velocity_mini", "pressure_p1", 8, dt)
    assert local.any()
    rhs_u = np.random.default_rng(3).standard_normal(a.shape[0])
    u, p = SaddleOperator(a, b, mean_vec, local).solve(rhs_u)
    u_ref, p_ref = SaddleOperator(a, b, mean_vec).solve(rhs_u)
    assert np.linalg.norm(u - u_ref) <= 1e-10 * np.linalg.norm(u_ref)
    assert np.linalg.norm(p - p_ref) <= 1e-10 * np.linalg.norm(p_ref)


def test_condensing_coupled_dofs_raises_solver_error():
    a, b, mean_vec, local = step_saddle("velocity_mini", "pressure_p1", 4,
                                        0.05)
    # two vertex velocity dofs that A couples: K_bb is not diagonal
    vertex = np.nonzero(~local)[0]
    coo = sp.triu(a[vertex][:, vertex], k=1).tocoo()
    coupled = np.zeros_like(local)
    coupled[vertex[[coo.row[0], coo.col[0]]]] = True
    with pytest.raises(SolverError, match="couples"):
        SaddleOperator(a, b, mean_vec, coupled)


@pytest.mark.parametrize("vel,pres", PAIRS)
def test_saddle_solve_raises_when_refinement_stalls(vel, pres):
    a, b, mean_vec, local = step_saddle(vel, pres, 4, 0.05)
    op = SaddleOperator(a, b, mean_vec, local)
    # the factor of twice the factored matrix: each refinement only
    # halves the error
    rhs_u = np.ones(a.shape[0])
    u, p = op.solve(rhs_u)
    op._lu = HalvedFactor(op._lu)
    with pytest.raises(SolverError, match="backward error"):
        op.solve(rhs_u)
    # nor does a start near the solution save it
    with pytest.raises(SolverError, match="backward error"):
        op.solve(rhs_u, start=(1.001 * u, 1.001 * p))


@pytest.mark.parametrize("vel,pres", PAIRS)
def test_symmetric_saddle_factor_cuts_the_fill(vel, pres):
    a, b, mean_vec, local = step_saddle(vel, pres, 16, 0.05)
    lu = SaddleOperator(a, b, mean_vec, local)._lu
    assert np.array_equal(lu.perm_r, lu.perm_c)   # symmetric, no pivoting
    plain = splu(pinned_matrix(a, b))          # COLAMD, partial pivoting
    assert fill(lu) <= 0.6 * fill(plain)
    uncondensed = fill(SaddleOperator(a, b, mean_vec)._lu)
    assert fill(lu) < uncondensed if local.any() else fill(lu) == uncondensed


# ---------------------------------------------------------------------------
# fixed-point driver


class AffineToy:
    """Map x -> c + J x with contraction/expansion controlled by J.

    The pass a residual hands to the sweep is the iterate itself.
    ``flags`` records the ``linearize`` flag of each sweep, which the map
    itself ignores."""

    def __init__(self, jac, target):
        self.jac = np.asarray(jac, float)
        self.target = np.asarray(target, float)
        self.c = self.target - self.jac @ self.target
        self.scale = float(np.linalg.norm(self.target)) + 1.0
        self.flags = []

    def sweep(self, x, linearize=False):
        self.flags.append(linearize)
        return self.c + self.jac @ x

    def residual(self, x):
        return float(np.linalg.norm(self.c + self.jac @ x - x)), x


def test_picard_converges_on_mild_contraction():
    toy = AffineToy(0.3 * np.eye(3), [1.0, -2.0, 0.5])
    x, rep = picard_solve(toy, np.zeros(3), PicardConfig(tol=1e-12))
    assert rep.converged
    assert np.allclose(x, toy.target, atol=1e-10)
    assert rep.iterations < 30
    assert rep.history[0] > rep.residual


def test_picard_handles_oscillatory_stiff_map():
    # spectral factor -6: undamped iteration diverges, the adaptive
    # relaxation must settle near omega = 1/7
    toy = AffineToy(-6.0 * np.eye(2), [2.0, -1.0])
    x, rep = picard_solve(toy, np.array([10.0, 10.0]),
                          PicardConfig(tol=1e-12, max_iters=200))
    assert rep.converged
    assert np.allclose(x, toy.target, atol=1e-9)
    assert rep.damping < 0.5


def test_picard_reports_divergence():
    toy = AffineToy(40.0 * np.eye(2), [1.0, 1.0])
    x, rep = picard_solve(toy, np.array([5.0, 5.0]),
                          PicardConfig(tol=1e-12, max_iters=50))
    assert not rep.converged


def test_picard_threshold_uses_problem_scale():
    toy = AffineToy(0.5 * np.eye(2), [1000.0, 0.0])
    cfg = PicardConfig(tol=1e-10)
    x, rep = picard_solve(toy, np.zeros(2), cfg)
    assert rep.converged
    assert rep.residual <= cfg.tol * toy.scale


def test_picard_accepts_converged_start():
    toy = AffineToy(0.5 * np.eye(2), [1.0, 2.0])
    x, rep = picard_solve(toy, toy.target, PicardConfig(tol=1e-8))
    assert rep.converged
    assert rep.iterations == 0
    assert np.allclose(x, toy.target)


def test_picard_keeps_the_plain_sweep_while_it_contracts():
    toy = AffineToy(0.3 * np.eye(3), [1.0, -2.0, 0.5])
    _, rep = picard_solve(toy, np.zeros(3), PicardConfig(tol=1e-12))
    assert rep.converged and len(toy.flags) == rep.iterations > 2
    assert not any(toy.flags)
    assert rep.linearized_at is None and rep.linearized_sweeps == 0
    assert rep.accelerated_at is None and rep.accelerated == 0


def test_picard_linearizes_once_the_plain_sweep_stalls():
    """A contraction of 0.8 leaves more than LINEARIZE_ABOVE of each
    residual: the driver asks for the linearized sweep from iteration 2
    to the end of the solve."""
    toy = AffineToy(0.8 * np.eye(2), [1.0, -1.0])
    _, rep = picard_solve(toy, np.zeros(2), PicardConfig(tol=1e-10))
    assert rep.converged and len(toy.flags) == rep.iterations > 2
    assert toy.flags == [False] + [True] * (rep.iterations - 1)
    assert rep.linearized_at == 2
    assert rep.linearized_sweeps == rep.iterations - 1


#: slow rates of both signs, which no one blend factor damps at once
SLOW_RATES = np.diag([0.95, 0.8, -0.6])


def test_anderson_cuts_the_iterations_on_several_slow_rates(monkeypatch):
    """The accelerated phase takes a small fraction of the iterations the
    secant blend alone takes, to the same fixed point."""
    reports = []
    for below in (nlsolve.ANDERSON_BELOW, 0.0):
        monkeypatch.setattr(nlsolve, "ANDERSON_BELOW", below)
        toy = AffineToy(SLOW_RATES, [1.0, -2.0, 0.5])
        x, rep = picard_solve(toy, np.zeros(3),
                              PicardConfig(tol=1e-10, max_iters=1000))
        assert rep.converged
        assert np.allclose(x, toy.target, rtol=0.0, atol=1e-8)
        reports.append(rep)
    fast, slow = reports
    assert fast.linearized_at < fast.accelerated_at < fast.iterations
    assert 0 < fast.accelerated and fast.damping == 1.0
    assert slow.accelerated_at is None and slow.accelerated == 0
    assert 5 * fast.iterations < slow.iterations


class LoggedToy(AffineToy):
    """An :class:`AffineToy` that logs its calls in order: ``"sweep"``,
    ``"candidate"`` for the residual of a point in ``candidates``, and
    ``"residual"`` for any other."""

    def __init__(self, jac, target):
        super().__init__(jac, target)
        self.log, self.candidates = [], []

    def sweep(self, x, linearize=False):
        self.log.append("sweep")
        return super().sweep(x, linearize)

    def residual(self, x):
        seen = any(x is c for c in self.candidates)
        self.log.append("candidate" if seen else "residual")
        return super().residual(x)


def test_a_rejected_candidate_falls_back_to_the_blend(monkeypatch):
    """The first candidate is pushed far from the fixed point, so its
    residual grows and it is rejected: that iteration blends the same
    increment, and the next candidate waits until the window holds two
    differences again, two sweeps later."""
    toy = LoggedToy(SLOW_RATES, [1.0, -2.0, 0.5])
    build = nlsolve._anderson_candidate

    def spoiled(window):
        cand = build(window)
        if not toy.candidates:
            x = window[-1][0]
            cand = x + 1e3 * (cand - x)
        toy.candidates.append(cand)
        return cand

    monkeypatch.setattr(nlsolve, "_anderson_candidate", spoiled)
    x, rep = picard_solve(toy, np.zeros(3), PicardConfig(tol=1e-10))
    assert rep.converged
    assert np.allclose(x, toy.target, rtol=0.0, atol=1e-8)
    assert len(toy.candidates) == rep.accelerated + 1 >= 2
    # the iterations, each from its sweep: a rejected candidate is
    # followed by the blend's residuals in the same iteration, then by
    # two iterations without a candidate
    iterations = " ".join(toy.log[1:]).split("sweep ")[1:]
    tried = [i for i, it in enumerate(iterations) if "candidate" in it]
    first, second = tried[:2]
    assert iterations[first].startswith("candidate residual")
    assert second == first + 2
    assert rep.accelerated_at == second + 1
    # one residual a blended iteration, none an accepted candidate
    assert toy.log.count("residual") == 1 + rep.iterations - rep.accelerated
    assert toy.log.count("candidate") == len(toy.candidates)


# ---------------------------------------------------------------------------
# the block step of both schemes

SCHEMES = ["p0", "p1diff"]


def stirred_state(kind, b=5.0, n=3):
    """A scheme on n x n and a moving, anisotropic initial state."""
    mesh = structured_unit_square(n)
    params = ModelParams(re=1.0, wi=1.0, eps=0.5, b=b, delta=0.1,
                         alpha=None if kind == "p0" else 0.1)

    def u0(x, y):
        ux, uy = stream_velocity(x, y)
        return 50.0 * ux, 50.0 * uy

    def sigma0(x, y):
        return 1.0 + x, 0.3 * y, 1.2 - 0.5 * x * y

    if kind == "p0":
        scheme = scheme_p0.SchemeP0(mesh, params)
        return scheme, scheme.initial_state(u0, sigma0)
    scheme = scheme_p1diff.SchemeP1Diff(mesh, params)
    state = scheme.initial_state(u0, sigma0, 0.1)
    return scheme, state


def block_step(scheme, state, dt=0.5):
    return nlsolve.BlockStep(scheme, state, dt)


def sweep_from(problem, x, linearize=False):
    """The sweep from ``x``, through the pass of its residual."""
    return problem.sweep(problem.residual(x)[1], linearize)


def count_calls(monkeypatch):
    """Count eig_sym and corner_coefficients calls from here on."""
    counts = {"eig_sym": 0, "corner_coefficients": 0}
    for mod, name in ((tc, "eig_sym"),
                      (scheme_p1diff, "corner_coefficients")):
        def counted(*args, _fn=getattr(mod, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    return counts


@pytest.mark.parametrize("kind", SCHEMES)
def test_sweep_reuses_the_residual_stress_terms(kind, monkeypatch):
    scheme, state = stirred_state(kind)
    first = block_step(scheme, state)
    x = sweep_from(first, first.x0)
    counts = count_calls(monkeypatch)
    _, block_pass = block_step(scheme, state).residual(x)
    # one spectral decomposition per iterate; p1diff transports sigma, rho
    assert counts == {"eig_sym": 1,
                      "corner_coefficients": 2 if kind == "p1diff" else 0}
    alone = dict(counts)
    block_step(scheme, state).sweep(block_pass)
    block_step(scheme, state).sweep(block_pass, True)
    assert counts == alone


def count_saddle_solves(monkeypatch):
    """Count the SaddleOperator solves from here on."""
    calls = []
    solve = nlsolve.SaddleOperator.solve

    def counted(self, *args, **kwargs):
        calls.append(1)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(nlsolve.SaddleOperator, "solve", counted)
    return calls


@pytest.mark.parametrize("kind", SCHEMES)
def test_residual_and_sweep_share_one_saddle_solve(kind, monkeypatch):
    scheme, state = stirred_state(kind)
    problem = block_step(scheme, state)
    x = sweep_from(problem, problem.x0)
    calls = count_saddle_solves(monkeypatch)
    _, block_pass = problem.residual(x)
    problem.sweep(block_pass)
    problem.sweep(block_pass, True)
    assert len(calls) == 1


def test_step_saddle_solves_start_from_the_iterate(monkeypatch):
    """Each Picard solve of a P2/P0 step refines from the iterate's own
    velocity and pressure: fewer than two factor applications a solve,
    where cold solves take two, in as many iterations and to the same
    state within round-off."""
    scheme, state = stirred_state("p0", n=16)
    dt = 0.05
    op = scheme.saddle_operator(dt)
    op._lu = factor = CountedFactor(op._lu)
    solves = count_saddle_solves(monkeypatch)
    started, report = scheme.step(state, dt)[:2]
    started_solves = len(solves)
    assert factor.calls < 2 * started_solves

    solve = nlsolve.SaddleOperator.solve
    monkeypatch.setattr(nlsolve.SaddleOperator, "solve",
                        lambda self, rhs_u, start=None: solve(self, rhs_u))
    factor.calls, solves[:] = 0, []
    cold, cold_report = scheme.step(state, dt)[:2]
    assert factor.calls == 2 * len(solves) == 2 * started_solves
    assert report.iterations == cold_report.iterations
    scale = float(np.linalg.norm(state_vector(state))) + 1.0
    assert (np.linalg.norm(state_vector(started) - state_vector(cold))
            <= 1e-12 * scale)


def scalar_matrix(scheme, state, dt):
    """The matrix the k scalar blocks of a step share."""
    if isinstance(scheme, scheme_p0.SchemeP0):
        return (sp.diags(scheme.mesh.cell_areas / dt)
                + scheme_p0.upwind_matrix(scheme.mesh, scheme.edge_tables,
                                          state.u))
    return (sp.diags(scheme.weights / dt)
            + scheme.params.alpha * scheme.k_scalar)


@pytest.mark.parametrize("kind", SCHEMES)
def test_residual_matches_the_monolithic_block_solve(kind):
    """The residual is the block solve of the monolithic implicit
    residual, convection included, with every matvec written out."""
    scheme, state = stirred_state(kind)
    dt = 0.5
    problem = block_step(scheme, state, dt)
    x = 0.5 * (problem.x0 + sweep_from(problem, problem.x0))  # not converged
    prm, free = scheme.params, scheme.free
    u, p, sig, rho = problem.split(x)
    rhs_u, frozen = problem.stress_terms(sig, rho)
    a_ff = ((prm.re / dt) * scheme.mass
            + (1.0 - prm.eps) * scheme.stiff).tocsr()[free][:, free]
    b_f = scheme.div.tocsr()[:, free]
    u_f = u[free]
    c_ff = problem.conv[free][:, free]
    r_u = rhs_u[free] - (a_ff + c_ff) @ u_f - b_f.T @ p
    e_u, e_p = bordered_solve(a_ff, b_f, scheme.weights, r_u, -(b_f @ u_f))
    s_mat = scalar_matrix(scheme, state, dt).toarray()
    scalars = x[problem.n_up:].reshape(problem.k, problem.m).T
    e_s = np.linalg.solve(
        s_mat, problem.rhs_scalars(problem.velocity_gradient(u), frozen)
        - s_mat @ scalars)
    want = np.sqrt(e_u @ e_u + e_p @ e_p + np.sum(e_s * e_s))
    assert want > 1e-3
    assert problem.residual(x)[0] == pytest.approx(want, rel=1e-10)


class NaNFactor:
    """A factorization whose every solve returns NaN; it takes the
    keyword arguments of ``splu``."""

    def __init__(self, matrix, **options):
        self.shape = matrix.shape

    def solve(self, rhs):
        return np.full(np.shape(rhs), np.nan)


@pytest.mark.parametrize("kind", SCHEMES)
def test_non_finite_scalar_solve_raises_solver_error(kind, monkeypatch):
    scheme, state = stirred_state(kind)
    module = scheme_p0 if kind == "p0" else scheme_p1diff
    monkeypatch.setattr(module, "splu", NaNFactor)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scheme_p1diff.TimeStepWarning)
        with pytest.raises(SolverError, match="scalar solve"):
            scheme.step(state, 0.5)


# ---------------------------------------------------------------------------
# one saddle factorization per step size


def count_saddles(monkeypatch):
    """Record the SaddleOperators made from here on, each with its factor
    wrapped in a :class:`CountedFactor`."""
    made = []

    class Counted(nlsolve.SaddleOperator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._lu = CountedFactor(self._lu)
            made.append(self)

    monkeypatch.setattr(nlsolve, "SaddleOperator", Counted)
    return made


def step(scheme, state, dt):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scheme_p1diff.TimeStepWarning)
        return scheme.step(state, dt)[0]


def state_vector(state):
    parts = [state.u, state.p, state.sigma.T.ravel()]
    return np.concatenate(parts + ([] if state.rho is None else [state.rho]))


def assert_same_step(scheme, state, dt, new):
    """``new`` is the step a freshly built scheme makes, within tol * scale."""
    fresh = type(scheme)(scheme.mesh, scheme.params)
    ref = step(fresh, state, dt)
    scale = float(np.linalg.norm(state_vector(state))) + 1.0
    diff = np.linalg.norm(state_vector(new) - state_vector(ref))
    assert diff <= PicardConfig().tol * scale


@pytest.mark.parametrize("kind", SCHEMES)
def test_one_saddle_factorization_per_step_size(kind, monkeypatch):
    made = count_saddles(monkeypatch)
    scheme, state = stirred_state(kind)
    assert len(made) == 1                     # the initial projection's own
    made.clear()                              # the step's: on the first step
    states = [state]
    for _ in range(3):
        states.append(step(scheme, states[-1], 0.5))
    assert len(made) == 1
    step(scheme, states[-1], 0.25)
    assert len(made) == 2
    # back at the first step size, from the refactored cache
    assert_same_step(scheme, states[1], 0.5, step(scheme, states[1], 0.5))
    assert len(made) == 4                     # 0.5 again, and the fresh one


#: symmetric mode, minimum degree on A^T + A, diagonal pivots only
LU_POLICY = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
             "options": {"SymmetricMode": True}}


def test_every_factorization_takes_the_one_option_set(monkeypatch):
    """Every splu of a p0 projection and step, and of a p1diff projection
    of velocity and stress and two steps, passes the one option set,
    ``LU_OPTIONS``.  The options keep p1diff's scalar factor at n = 32
    to 0.7 of the fill of SuperLU's default (COLAMD with partial
    pivoting)."""
    calls = []
    for mod in (nlsolve, scheme_p0, scheme_p1diff):
        def recorded(mat, *args, _splu=mod.splu, _site=mod.__name__,
                     **options):
            calls.append((_site, args, options))
            return _splu(mat, *args, **options)
        monkeypatch.setattr(mod, "splu", recorded)
    for kind, step_sizes in (("p0", [0.5]), ("p1diff", [0.5, 0.25])):
        scheme, state = stirred_state(kind)
        for dt in step_sizes:
            state = step(scheme, state, dt)
    sites = [site for site, _, _ in calls]
    # the saddles: p0's projection and step, p1diff's projection and
    # steps; p1diff's stress projection; the stress blocks of the steps
    assert sites.count("fenep.nlsolve") == 2 + 3 + 1
    assert sites.count("fenep.scheme_p0") == 1
    assert sites.count("fenep.scheme_p1diff") == 2
    for site, args, options in calls:
        assert args == () and options == LU_POLICY, site
    assert nlsolve.LU_OPTIONS == LU_POLICY

    params = ModelParams(re=1.0, wi=1.0, eps=0.5, b=5.0, delta=0.1,
                         alpha=0.1)
    scheme = scheme_p1diff.SchemeP1Diff(structured_unit_square(32), params)
    state = scheme.initial_state()
    lu = scheme.stress_block(state, 0.05)[0]
    default = splu(scalar_matrix(scheme, state, 0.05).tocsc())
    assert fill(lu) <= 0.7 * fill(default)


@pytest.mark.parametrize("kind", SCHEMES)
def test_transport_tables_are_built_once_per_scheme(kind, monkeypatch):
    """Building the scheme and three steps sort the velocity space's
    pattern once (the pairs of one axis block) and the p0 edge pattern
    once, and build the convection's tables once; each step only fills
    them.  The mass, the stiffness and the convection all come from that
    one pattern; p1diff's scalar stiffness comes from the pattern of its
    pressure space, sorted once."""
    built = []

    def counted(module):
        build = module.compressed_pattern

        def wrapper(major, minor, n):
            built.append((module.__name__, n))
            return build(major, minor, n)
        return wrapper

    for module in (fe, scheme_p0):
        monkeypatch.setattr(module, "compressed_pattern", counted(module))
    scheme, state = stirred_state(kind)
    state = step(scheme, state, 0.5)
    tables = scheme.v.convection_tables
    for _ in range(2):
        state = step(scheme, state, 0.5)
    assert scheme.v.convection_tables is tables
    want = [("fenep.fespaces", scheme.v.n_dofs // 2)]
    want.append(("fenep.scheme_p0", scheme.mesh.n_cells) if kind == "p0"
                else ("fenep.fespaces", scheme.q.n_dofs))
    assert sorted(built) == sorted(want)

    pattern = scheme.v.pattern
    stored = sp.csr_matrix((np.ones(len(pattern.indices)), pattern.indices,
                            pattern.indptr))
    for mat in (scheme.mass, scheme.stiff):
        ones = mat.copy()
        ones.data[:] = 1.0
        assert (ones - stored).max() <= 0.0     # a subset of the pattern
    conv = fe.convection_matrix(scheme.mesh, scheme.v, state.u)
    assert np.shares_memory(conv.indices, pattern.indices)
    assert scheme.mass.nnz == len(pattern.indices)   # no entry vanishes


@pytest.mark.parametrize("kind", SCHEMES)
def test_saddle_cache_keys_on_what_the_matrix_reads(kind, monkeypatch):
    made = count_saddles(monkeypatch)
    scheme, state = stirred_state(kind)
    base = scheme.params
    step(scheme, state, 0.5)
    changes = [("delta", 0.05, 0), ("re", 2.0, 1), ("eps", 0.25, 1)]
    if kind == "p1diff":
        changes.append(("alpha", 0.2, 0))     # refactors the scalar block
    for name, value, refactors in changes:
        before = len(made)
        # as delta_continuation does: swap the parameters of one scheme
        scheme.params = dataclasses.replace(base, **{name: value})
        new = step(scheme, state, 0.5)
        assert len(made) - before == refactors, name
        assert_same_step(scheme, state, 0.5, new)
        scheme.params = base
        step(scheme, state, 0.5)


def test_delta_continuation_reuses_one_saddle_factorization(monkeypatch):
    made = count_saddles(monkeypatch)
    scheme, state = stirred_state("p0")
    assert len(made) == 1                     # the initial projection's own
    made.clear()
    rep = delta_continuation(scheme.mesh, scheme.params, state, 0.5,
                             delta_min=1.0 / 16.0)
    assert len(rep.deltas) > 1
    assert len(made) == 1


# ---------------------------------------------------------------------------
# the linearized scalar block

#: stresses that put every branch of the local terms at some node (delta
#: = 0.1): eigenvalues on both sides of delta, both below, coincident
#: above and below, generic, and traces on both sides of b (1 - delta)
#: for b = 5, where the flux coefficient g'(1 - tr/b) stops moving
NODE_STRESSES = np.array([
    [0.05, 0.2, 0.7], [0.05, 0.01, 0.06], [0.5, 0.0, 0.5],
    [0.04, 0.0, 0.04], [1.2, 0.3, 0.9], [2.0, 0.3, 2.25], [2.3, 0.1, 2.4]])
#: carried traces on both sides of b (1 - delta), and two generic ones
NODE_TRACES = np.array([4.25, 4.7, 2.0, -1.0, 0.8])


def node_scalars(problem):
    """Scalars (m, k) cycling through the stresses and traces above."""
    m = problem.m
    sig = NODE_STRESSES[np.arange(m) % len(NODE_STRESSES)]
    if problem.k == 3:
        return sig
    rho = NODE_TRACES[np.arange(m) % len(NODE_TRACES)]
    return np.column_stack([sig, rho])


def local_terms_by_differences(problem, s, grad_u, h=1e-6):
    """Central differences of ``R(u, frozen(s))`` node by node, at the
    velocity gradient ``grad_u`` of ``u``, with the coupling weight and
    the advection held at ``s``: each node's terms read its own scalars
    only, so one shift of a component at every node gives that column of
    every block."""
    def parts(t):
        return t[:, :3], (t[:, 3] if problem.k == 4 else None)

    _, at_s = problem.stress_terms(*parts(s))

    def rhs(t):
        _, frozen = problem.stress_terms(*parts(t))
        return problem.rhs_scalars(
            grad_u, (at_s[0], frozen[1], frozen[2], at_s[3], frozen[4]))

    cols = [(rhs(s + h * e) - rhs(s - h * e)) / (2.0 * h)
            for e in np.eye(problem.k)]
    return at_s, np.stack(cols, axis=2)


@pytest.mark.parametrize("kind, b, k", [("p0", 5.0, 3), ("p1diff", 5.0, 4),
                                        ("p1diff", math.inf, 3)])
def test_local_jacobian_matches_central_differences(kind, b, k):
    scheme, state = stirred_state(kind, b)
    problem = block_step(scheme, state)
    assert problem.k == k
    s = node_scalars(problem)
    u = sweep_from(problem, problem.x0)[:problem.n_u]
    grad_u = problem.velocity_gradient(u)
    frozen, want = local_terms_by_differences(problem, s, grad_u)
    got = problem.local_jacobian(s, grad_u, frozen)
    assert got.shape == (problem.m, k, k)
    scale = np.abs(want).max()
    assert scale > 0.1
    assert np.allclose(got, want, rtol=0.0, atol=1e-8 * scale)


def test_gmres_solves_to_its_tolerance():
    rng = np.random.default_rng(8)
    n = 40
    mat = np.eye(n) + 0.4 * rng.standard_normal((n, n)) / math.sqrt(n)
    b = rng.standard_normal(n)
    exact = nlsolve._gmres(lambda v: mat @ v, b, 1e-13, n)
    assert np.allclose(exact, np.linalg.solve(mat, b), rtol=0.0, atol=1e-11)
    for rtol in (1e-1, 1e-3):
        x = nlsolve._gmres(lambda v: mat @ v, b, rtol, n)
        assert np.linalg.norm(mat @ x - b) <= rtol * np.linalg.norm(b)
    products = []
    nlsolve._gmres(lambda v: products.append(v) or mat @ v, b, 1e-13, 3)
    assert len(products) == 3
    assert not nlsolve._gmres(lambda v: mat @ v, np.zeros(n), 1e-2, 5).any()
    # an invariant Krylov space ends the iteration with the exact answer
    assert np.allclose(nlsolve._gmres(lambda v: 2.0 * v, b, 1e-13, 5),
                       0.5 * b, rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# the linearized phase's small dense solvers against numpy oracles: the
# same algorithms with the Hessenberg matrix, the rotated residual and the
# QR triangle held in numpy arrays, as the package once computed them.
# Only their back substitutions round differently: numpy's dot may fuse
# a multiply and an add where a Python sum rounds both, hence 1e-13


def gmres_oracle(apply, b, rtol, max_products):
    """:func:`fenep.nlsolve._gmres` with its bookkeeping in numpy."""
    beta = float(np.linalg.norm(b))
    basis = np.zeros((max_products + 1, len(b)))
    hess = np.zeros((max_products + 1, max_products))
    rotations = []
    res = np.zeros(max_products + 1)
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
        if r == 0.0:
            break
        c, sn = col[n] / r, sub / r
        rotations.append((c, sn))
        col[n] = r
        res[n:n + 2] = c * res[n], -sn * res[n]
        n += 1
        if sub > 0.0:
            basis[n] = w / sub
    y = np.zeros(n)
    for i in reversed(range(n)):
        y[i] = (res[i] - hess[i, i + 1:n] @ y[i + 1:]) / hess[i, i]
    return y @ basis[:n]


def anderson_oracle(window):
    """:func:`fenep.nlsolve._anderson_candidate` with its window stacked
    and its triangle in numpy."""
    xs, fs = (np.array(a) for a in zip(*window))
    dxs, dfs = np.diff(xs, axis=0), np.diff(fs, axis=0)
    x, f, n = xs[-1], fs[-1], len(dfs)
    q, tri = np.zeros_like(dfs), np.zeros((n, n))
    for j, w in enumerate(dfs.copy()):
        for _ in range(2):
            h = q[:j] @ w
            w -= h @ q[:j]
            tri[:j, j] += h
        tri[j, j] = float(np.linalg.norm(w))
        if not tri[j, j] > 0.0:
            return None
        q[j] = w / tri[j, j]
    rhs, gamma = q @ f, np.zeros(n)
    for i in reversed(range(n)):
        gamma[i] = (rhs[i] - tri[i, i + 1:] @ gamma[i + 1:]) / tri[i, i]
    x_new = x + f - gamma @ (dxs + dfs)
    return x_new if np.all(np.isfinite(x_new)) else None


def counted(apply):
    """``apply`` and the list of the vectors it was called with."""
    calls = []
    return (lambda v: calls.append(v) or apply(v)), calls


def assert_close(got, want, rel=1e-13):
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= rel * np.linalg.norm(want)


def random_system(n, seed):
    rng = np.random.default_rng(seed)
    mat = np.eye(n) + 0.6 * rng.standard_normal((n, n)) / math.sqrt(n)
    return mat, rng.standard_normal(n)


#: a nilpotent shift: from e_0 each product moves one place down, so the
#: Krylov space is all of R^4 and the fourth product breaks down (r = 0)
SHIFT = np.eye(4, k=-1)


@pytest.mark.parametrize("n, seed", [(40, 1), (324, 2)])
@pytest.mark.parametrize("rtol", [1e-1, 1e-2, 1e-13])
@pytest.mark.parametrize("max_products", [3, 30])
def test_gmres_matches_its_oracle(n, seed, rtol, max_products):
    """Random nonsymmetric systems, one of the stiff block's 324
    unknowns: the same products, and iterates that agree to 1e-13."""
    mat, b = random_system(n, seed)
    apply, calls = counted(lambda v: mat @ v)
    got = nlsolve._gmres(apply, b, rtol, max_products)
    apply_ref, calls_ref = counted(lambda v: mat @ v)
    want = gmres_oracle(apply_ref, b, rtol, max_products)
    assert 0 < len(calls) == len(calls_ref) <= max_products
    assert_close(got, want)


@pytest.mark.parametrize("op, b, products", [
    (lambda v: 2.0 * v, np.zeros(6), 0),                  # b = 0
    (lambda v: 2.0 * v, np.arange(1.0, 7.0), 1),          # invariant 2 I
    (lambda v: SHIFT @ v, np.eye(4)[0], 4),               # r == 0
], ids=["zero-rhs", "invariant", "breakdown"])
def test_gmres_matches_its_oracle_on_the_edge_cases(op, b, products):
    apply, calls = counted(op)
    got = nlsolve._gmres(apply, b, 1e-13, 10)
    apply_ref, calls_ref = counted(op)
    want = gmres_oracle(apply_ref, b, 1e-13, 10)
    assert len(calls) == len(calls_ref) == products
    assert np.array_equal(got, want)


def test_orthogonalize_runs_gram_schmidt_twice():
    """A vector within 1e-10 of the span of the basis: one classical pass
    would leave what remains about 1e-6 off orthogonal, the second takes
    it to rounding.  The coefficients and the remainder rebuild the
    vector."""
    rng = np.random.default_rng(5)
    basis = np.linalg.qr(rng.standard_normal((50, 6)))[0].T
    coef = rng.standard_normal(6)
    w0 = coef @ basis + 1e-10 * rng.standard_normal(50)
    w = w0.copy()
    got, norm = nlsolve._orthogonalize(basis, w)
    assert norm == pytest.approx(np.linalg.norm(w), rel=1e-15)
    assert 1e-11 < norm < 1e-9
    assert np.abs(basis @ w).max() <= 1e-14 * norm
    assert np.allclose(np.array(got) @ basis + w, w0, rtol=0.0, atol=1e-15)
    assert np.allclose(got, coef, rtol=0.0, atol=1e-9)


def random_window(entries, size, seed):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal(size), rng.standard_normal(size))
            for _ in range(entries)]


@pytest.mark.parametrize("entries", [3, 4, 5, 6])
@pytest.mark.parametrize("size", [7, 823])
def test_anderson_candidate_matches_its_oracle(entries, size):
    window = random_window(entries, size, entries * size)
    want = anderson_oracle(window)
    assert want is not None
    assert_close(nlsolve._anderson_candidate(window), want)


@pytest.mark.parametrize("spoil", ["repeated", "nan-increment",
                                   "inf-iterate"])
def test_anderson_candidate_refuses_what_its_oracle_refuses(spoil):
    """A repeated increment gives a zero, so dependent, ``dF`` column;
    a non-finite entry gives a candidate that is not finite.  Both give
    None, wherever in the window they sit."""
    for at in range(1, 5):
        window = random_window(5, 9, at)
        x, f = window[at]
        if spoil == "repeated":
            window[at] = (x, window[at - 1][1])
        elif spoil == "nan-increment":
            window[at] = (x, np.where(np.arange(9) == 3, np.nan, f))
        else:
            window[at] = (np.where(np.arange(9) == 3, np.inf, x), f)
        with np.errstate(invalid="ignore"):     # inf - inf in the steps
            assert anderson_oracle(window) is None
            assert nlsolve._anderson_candidate(window) is None


@pytest.mark.parametrize("kind", SCHEMES)
def test_linearized_scalar_solve_meets_its_tolerance(kind):
    """The linearized sweep's scalars ``s + d`` solve ``(kron(I_k, S) -
    J) (s + d) = R - J s`` to the GMRES tolerance, measured as the
    plain sweep's increment ``S^-1 R - s`` is."""
    scheme, state = stirred_state(kind)
    dt = 0.5
    problem = block_step(scheme, state, dt)
    x = 0.5 * (problem.x0 + sweep_from(problem, problem.x0))
    s = problem._scalars(x)
    _, frozen, u_new, _ = problem.residual(x)[1]
    grad_u = problem.velocity_gradient(u_new)
    got = problem._linear_scalar_solve(x, grad_u, frozen)
    m, k = problem.m, problem.k
    s_mat = scalar_matrix(scheme, state, dt).toarray()
    jac = problem.local_jacobian(s, grad_u, frozen)
    assert np.abs(jac).max() > 0.1
    system = np.kron(np.eye(k), s_mat)
    nodes = np.arange(m)
    for row in range(k):
        for col in range(k):
            system[row * m + nodes, col * m + nodes] -= jac[:, row, col]
    precond = np.kron(np.eye(k), np.linalg.inv(s_mat))
    rhs = (problem.rhs_scalars(grad_u, frozen)
           - np.einsum("nij,nj->ni", jac, s)).T.ravel()
    increment = np.linalg.solve(s_mat, problem.rhs_scalars(grad_u, frozen)) - s
    miss = precond @ (rhs - system @ got.T.ravel())
    assert np.linalg.norm(increment) > 1e-3
    assert (np.linalg.norm(miss)
            <= nlsolve.LINEARIZED_RTOL * np.linalg.norm(increment))


@pytest.mark.parametrize("kind", SCHEMES)
def test_a_sweep_depends_on_the_iterate_and_the_flag_alone(kind):
    """The residuals and sweeps a step took before do not change its
    sweep: from the pass of ``x``, ``sweep(pass)`` is the plain sweep
    of a fresh step from ``x``, and ``sweep(pass, True)`` its
    linearized one."""
    scheme, state = stirred_state(kind)
    problem = block_step(scheme, state)
    x1 = sweep_from(problem, problem.x0)
    x2 = 0.5 * (x1 + sweep_from(problem, x1))
    _, block_pass = problem.residual(x2)
    sweep_from(problem, x1, True)       # another iterate in between
    plain = problem.sweep(block_pass)
    assert np.array_equal(plain, sweep_from(block_step(scheme, state), x2))
    linear = problem.sweep(block_pass, True)
    assert np.array_equal(
        linear, sweep_from(block_step(scheme, state), x2, True))
    assert not np.array_equal(plain, linear)


def forced_cavity_setup(tmp_path, scheme, dt, amplitude, name, n=4,
                        steps=2, velocity=None):
    """A forced-cavity run of ``steps`` steps on n x n, in the scheme's
    default velocity space unless ``velocity`` names one."""
    alpha = "alpha = 0.1" if scheme == "p1diff" else ""
    velocity = "" if velocity is None else f"velocity = {velocity}"
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(f"""[model]
scenario = forced-cavity
amplitude = {amplitude}
b = 5.0
delta = 0.1
{alpha}
[mesh]
n = {n}
[time]
dt = {dt}
tmax = {steps * dt}
[solver]
scheme = {scheme}
{velocity}
[output]
dir = {tmp_path / name}
""")
    return cli.build_setup(cli.parse_config(cfg))


def never_linearized(*args):
    raise AssertionError("the scalar blocks were linearized")


@pytest.mark.filterwarnings("ignore::fenep.scheme_p1diff.TimeStepWarning")
@pytest.mark.parametrize("kind", SCHEMES)
def test_cavity_like_run_never_linearizes(kind, tmp_path, monkeypatch):
    monkeypatch.setattr(nlsolve.BlockStep, "local_jacobian",
                        never_linearized)
    setup = forced_cavity_setup(tmp_path, kind, 0.05, 1.0, "cavity")
    _, summary = cli.run_simulation(setup)
    worst = summary["picard_worst"]
    assert worst["linearized_at"] is None
    assert worst["linearized_sweeps"] == 0


def count_factorizations(monkeypatch):
    """Record the shape of every splu the step's modules make from here
    on."""
    made = []
    for mod in (nlsolve, scheme_p1diff):
        def counted(mat, *args, _splu=mod.splu, **kwargs):
            made.append(mat.shape)
            return _splu(mat, *args, **kwargs)
        monkeypatch.setattr(mod, "splu", counted)
    return made


@pytest.mark.filterwarnings("ignore::fenep.scheme_p1diff.TimeStepWarning")
def test_stiff_run_linearizes_to_the_picard_answer(tmp_path, monkeypatch):
    """Linearizing changes the path, not the fixed point: the rows match
    pure Picard's within 100 tol, the bound of the benchmark's gate.  The
    linearized solve works through the step's own factor of ``S``, so
    the run factors no more matrices than pure Picard does."""
    factored = count_factorizations(monkeypatch)
    setup = forced_cavity_setup(tmp_path, "p1diff", 1.0, 20.0, "linear")
    _, summary = cli.run_simulation(setup)
    linear_factors, factored[:] = list(factored), []
    monkeypatch.setattr(nlsolve, "LINEARIZE_ABOVE", math.inf)
    picard_setup = forced_cavity_setup(tmp_path, "p1diff", 1.0, 20.0,
                                       "picard")
    _, picard = cli.run_simulation(picard_setup)
    assert linear_factors == factored != []

    worst = summary["picard_worst"]
    assert worst["linearized_at"] >= 1
    assert 0 < worst["linearized_sweeps"] <= worst["iterations"]
    assert picard["picard_worst"]["linearized_at"] is None
    assert picard["picard_worst"]["linearized_sweeps"] == 0
    assert summary["picard_iters_total"] < picard["picard_iters_total"]
    assert_rows_agree(tmp_path / "linear", tmp_path / "picard", 3,
                      100.0 * setup.picard.tol)


def assert_rows_agree(out, ref_out, n_rows, bound):
    """The ``energy.csv`` rows of two runs agree within ``bound`` relative
    to ``1 + |entry|`` on every state column, the bound of the
    benchmark's gate at 100 tol, and every audit passes."""
    rows = cli.read_energy_csv(out / "energy.csv")
    ref = cli.read_energy_csv(ref_out / "energy.csv")
    assert len(rows) == len(ref) == n_rows
    state_columns = [c for c in cli.ENERGY_COLUMNS
                     if c not in ("picard_iters", "residual", "audit_pass")]
    for row, want in zip(rows, ref):
        assert row["audit_pass"] and want["audit_pass"]
        for col in state_columns:
            assert (abs(row[col] - want[col])
                    <= bound * (1.0 + abs(want[col]))), col


@pytest.mark.filterwarnings("ignore::fenep.scheme_p1diff.TimeStepWarning")
def test_stiff_run_accelerates_to_the_unaccelerated_answer(tmp_path,
                                                           monkeypatch):
    """The Anderson phase changes the path, not the fixed point: on the
    stiff forced cavity at n = 8 (the stiff-p1diff workload) the rows
    match the run without it within 100 tol, with the same
    factorizations and at most 110 Picard iterations, against 152."""
    factored = count_factorizations(monkeypatch)
    setup = forced_cavity_setup(tmp_path, "p1diff", 1.0, 20.0, "fast", n=8,
                                steps=3)
    _, summary = cli.run_simulation(setup)
    fast_factors, factored[:] = list(factored), []
    monkeypatch.setattr(nlsolve, "ANDERSON_BELOW", 0.0)
    _, plain = cli.run_simulation(forced_cavity_setup(
        tmp_path, "p1diff", 1.0, 20.0, "plain", n=8, steps=3))
    assert fast_factors == factored != []

    worst = summary["picard_worst"]
    assert isinstance(worst["accelerated_at"], int)
    assert 0 < worst["accelerated"] < worst["iterations"]
    assert plain["picard_worst"]["accelerated_at"] is None
    assert plain["picard_worst"]["accelerated"] == 0
    assert summary["picard_iters_total"] <= 110 < 140 <= plain[
        "picard_iters_total"]
    assert_rows_agree(tmp_path / "fast", tmp_path / "plain", 4,
                      100.0 * setup.picard.tol)


def stiff_run_path(tmp_path, name, gmres, anderson):
    """The stiff forced cavity at n = 8 (dt = 1, amplitude 20, mini/P1,
    three steps) run with the given GMRES and Anderson kernels: per step,
    the Picard iterations, linearized sweeps, accepted Anderson
    candidates and GMRES products, and the run's output directory."""
    steps, solve = [], nlsolve.picard_solve

    def logged_solve(*args, **kwargs):
        steps.append({"products": 0})
        x, rep = solve(*args, **kwargs)
        steps[-1].update(iterations=rep.iterations,
                         linearized_sweeps=rep.linearized_sweeps,
                         accelerated=rep.accelerated)
        return x, rep

    def counted_gmres(apply, *args):
        def product(v):
            steps[-1]["products"] += 1
            return apply(v)
        return gmres(product, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nlsolve, "picard_solve", logged_solve)
        patch.setattr(nlsolve, "_gmres", counted_gmres)
        patch.setattr(nlsolve, "_anderson_candidate", anderson)
        cli.run_simulation(forced_cavity_setup(
            tmp_path, "p1diff", 1.0, 20.0, name, n=8, steps=3))
    return steps, tmp_path / name


@pytest.mark.filterwarnings("ignore::fenep.scheme_p1diff.TimeStepWarning")
def test_stiff_run_takes_the_oracles_path(tmp_path):
    """The Python-float bookkeeping of the small dense solvers keeps the
    numpy oracles' path on the stiff-p1diff data: per step the same
    iterations, linearized sweeps, Anderson candidates and GMRES
    products, and rows that agree within 1e-12."""
    path, out = stiff_run_path(tmp_path, "floats", nlsolve._gmres,
                               nlsolve._anderson_candidate)
    ref_path, ref_out = stiff_run_path(tmp_path, "oracles", gmres_oracle,
                                       anderson_oracle)
    assert path == ref_path
    assert len(path) == 3
    assert all(step["products"] > 0 and step["accelerated"] > 0
               for step in path)
    assert_rows_agree(out, ref_out, 4, 1e-12)


@pytest.mark.filterwarnings("ignore::fenep.scheme_p1diff.TimeStepWarning")
@pytest.mark.parametrize("kind", SCHEMES)
def test_cavity_like_run_is_the_same_without_acceleration(kind, tmp_path,
                                                          monkeypatch):
    """At dt = 0.05 the sweep never linearizes, so the Anderson rule
    never engages and the run's energy.csv is the same byte for byte."""
    tables = []
    for below in (nlsolve.ANDERSON_BELOW, 0.0):
        monkeypatch.setattr(nlsolve, "ANDERSON_BELOW", below)
        name = f"below_{below}"
        cli.run_simulation(forced_cavity_setup(tmp_path, kind, 0.05, 1.0,
                                               name))
        tables.append((tmp_path / name / "energy.csv").read_bytes())
    assert tables[0] == tables[1]


#: the four cells of the guarantee matrix where block Picard does not
#: reach the step the paper proves exists: p0 at dt >= 1
P0_STALLS = pytest.mark.xfail(
    strict=True, raises=SolverError,
    reason="ROADMAP item 2: p0's Picard loop stalls on the stiff data")


@pytest.mark.filterwarnings("ignore::fenep.scheme_p1diff.TimeStepWarning")
@pytest.mark.parametrize("kind, velocity, dt", [
    pytest.param(kind, velocity, dt, id=f"{kind}-{velocity}-dt{dt:g}",
                 marks=P0_STALLS if kind == "p0" and dt >= 1.0 else ())
    for kind, velocity in (("p0", "p2"), ("p0", "p2r"),
                           ("p1diff", "mini"), ("p1diff", "p2"))
    for dt in (0.1, 1.0, 10.0)])
def test_guarantee_matrix(kind, velocity, dt, tmp_path):
    """The discrete step exists at any dt: on the forced cavity at n = 8
    and amplitude 20, three steps of every shipped pair converge and pass
    their audits."""
    setup = forced_cavity_setup(tmp_path, kind, dt, 20.0, "matrix", n=8,
                                steps=3, velocity=velocity)
    _, summary = cli.run_simulation(setup)
    assert summary["audit_all_pass"]
    rows = cli.read_energy_csv(tmp_path / "matrix" / "energy.csv")
    assert len(rows) == 4 and all(row["audit_pass"] for row in rows)


def test_p0_still_fails_on_the_stiff_data(tmp_path):
    setup = forced_cavity_setup(tmp_path, "p0", 1.0, 20.0, "negative")
    with pytest.raises(SolverError, match="did not converge") as failed:
        cli.run_simulation(setup)
    report = failed.value.report
    assert report.iterations == setup.picard.max_iters
    assert report.linearized_sweeps > 0
