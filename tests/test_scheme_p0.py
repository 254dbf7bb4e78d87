"""Tests for the cellwise-constant stress scheme with edge upwinding.

The homogeneous (zero velocity) oracle integrates the isotropic
backward-Euler update with a bisection independent of the package's
tensor code; the upwind checks exercise the exact edge-flux quadrature
against structural identities.
"""

import dataclasses
import math

import numpy as np
import pytest

import fenep.fespaces as fe
import fenep.tensorcalc as tc
from fenep.energy import spd_audit
from fenep.meshing import structured_unit_square
from fenep.nlsolve import PicardConfig, SolverError
from fenep.scheme_p0 import (
    SchemeP0,
    delta_continuation,
    upwind_fluxes,
    upwind_matrix,
)
from fenep.params import ModelParams
from fenep.scheme_p1diff import SchemeP1Diff

PARAMS = ModelParams(re=1.0, wi=1.0, eps=0.5, b=5.0, delta=0.1)
CFG = PicardConfig(tol=1e-12, max_iters=200)


def decay_velocity(x, y):
    ux = 2.0 * x ** 2 * (1 - x) ** 2 * y * (1 - y) * (1 - 2 * y)
    uy = -2.0 * x * (1 - x) * (1 - 2 * x) * y ** 2 * (1 - y) ** 2
    return ux, uy


def isotropic_backward_euler(c_prev, dt, params):
    """Scalar oracle: solve c = c_prev - (dt/wi) (g'(1-2c/b) c - 1).

    Written from the scalar branch definitions, bisected to 1e-14.
    """
    delta, b, wi = params.delta, params.b, params.wi

    def gprime(s):
        return 1.0 / max(s, delta)

    def resid(c):
        flux = gprime(1.0 - 2.0 * c / b) * max(c, delta) - 1.0
        return c - c_prev + (dt / wi) * flux

    lo, hi = 1e-12, max(c_prev, 1.0) + dt / wi + 1.0
    assert resid(lo) < 0 < resid(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if resid(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# homogeneous relaxation


def test_zero_velocity_reduces_to_cellwise_ode():
    mesh = structured_unit_square(3)
    scheme = SchemeP0(mesh, PARAMS)
    state = scheme.initial_state(sigma0=np.array([2.0, 0.0, 2.0]))
    c = 2.0
    dt = 0.1
    for _ in range(5):
        state, report, audit = scheme.step(state, dt, CFG)
        assert report.converged
        assert audit.passed
        c = isotropic_backward_euler(c, dt, PARAMS)
        assert np.allclose(state.u.values, 0.0, atol=1e-13)
        assert np.allclose(state.sigma[:, 0], c, atol=1e-10)
        assert np.allclose(state.sigma[:, 2], c, atol=1e-10)
        assert np.allclose(state.sigma[:, 1], 0.0, atol=1e-12)


def test_equilibrium_is_a_fixed_point():
    mesh = structured_unit_square(3)
    scheme = SchemeP0(mesh, PARAMS)
    c = PARAMS.b / (PARAMS.b + 2.0)
    state = scheme.initial_state(sigma0=np.array([c, 0.0, c]))
    for dt in (0.1, 1.0):
        state, report, audit = scheme.step(state, dt, CFG)
        assert report.converged
        assert audit.passed
        assert np.allclose(state.sigma, np.tile([c, 0.0, c],
                                                (mesh.n_cells, 1)),
                           atol=1e-9)
        assert audit.relaxation == pytest.approx(0.0, abs=1e-12)


def test_oldroyd_b_equilibrium_is_identity():
    params = ModelParams(re=1.0, wi=1.0, eps=0.5, b=math.inf, delta=0.1)
    mesh = structured_unit_square(3)
    scheme = SchemeP0(mesh, params)
    state = scheme.initial_state()  # defaults to the identity
    state, report, audit = scheme.step(state, 0.5, CFG)
    assert report.converged and audit.passed
    assert np.allclose(state.sigma,
                       np.tile(tc.IDENTITY, (mesh.n_cells, 1)), atol=1e-10)


# ---------------------------------------------------------------------------
# upwind structure


def project_decay_velocity(n=4):
    mesh = structured_unit_square(n)
    scheme = SchemeP0(mesh, PARAMS)
    state = scheme.initial_state(u0=decay_velocity)
    return mesh, scheme, state


def test_upwind_fluxes_nonnegative_and_neutral():
    mesh, scheme, state = project_decay_velocity()
    a_plus, a_minus = upwind_fluxes(mesh, scheme.v, state.u.values)
    assert a_plus.shape == (len(mesh.interior_edges),)
    assert np.all(a_plus >= 0.0)
    assert np.all(a_minus >= 0.0)
    assert a_plus.max() > 0.0
    # discretely divergence-free velocity: per-cell net flux vanishes
    net = np.zeros(mesh.n_cells)
    for pos, e in enumerate(mesh.interior_edges):
        left, right = mesh.edge_cells[e]
        net[left] += a_minus[pos] - a_plus[pos]
        net[right] += a_plus[pos] - a_minus[pos]
    assert np.abs(net).max() < 1e-12


def test_upwind_matrix_annihilates_constants():
    mesh, scheme, state = project_decay_velocity()
    u_mat = upwind_matrix(mesh, scheme.v, state.u.values)
    ones = np.ones(mesh.n_cells)
    assert np.abs(u_mat @ ones).max() < 1e-13


def test_upwind_quadratic_form_nonnegative():
    mesh, scheme, state = project_decay_velocity()
    u_mat = upwind_matrix(mesh, scheme.v, state.u.values)
    rng = np.random.default_rng(50)
    for _ in range(50):
        q = rng.standard_normal(mesh.n_cells)
        assert q @ (u_mat @ q) >= -1e-12


def upwind_edge_term(mesh, vspace, u_coeffs, sigma, edge):
    """Transport contributions of one edge to its two cell residuals.

    Returns ``(contrib_left, contrib_right)``, each a length-3 component
    vector added to the stress equation of the respective cell.  Boundary
    edges carry no flux under the no-flow condition and return zeros.
    """
    zeros = np.zeros(3)
    if mesh.is_boundary_edge[edge]:
        return zeros, zeros
    pos = int(np.searchsorted(mesh.interior_edges, edge))
    a_plus, a_minus = upwind_fluxes(mesh, vspace, u_coeffs)
    kl, kr = mesh.edge_cells[edge]
    jump = sigma[kr] - sigma[kl]
    return -a_minus[pos] * jump, a_plus[pos] * jump


def test_upwind_edge_term_matches_matrix():
    mesh, scheme, state = project_decay_velocity(3)
    u_mat = upwind_matrix(mesh, scheme.v, state.u.values).toarray()
    rng = np.random.default_rng(51)
    sigma = rng.standard_normal((mesh.n_cells, 3))
    ref = u_mat @ sigma
    acc = np.zeros((mesh.n_cells, 3))
    for e in range(mesh.n_edges):
        c_left, c_right = upwind_edge_term(mesh, scheme.v, state.u.values,
                                           sigma, e)
        left, right = mesh.edge_cells[e]
        acc[left] += c_left
        if right >= 0:
            acc[right] += c_right
    assert np.allclose(acc, ref, atol=1e-12)


def test_upwind_zero_velocity_gives_zero_fluxes():
    mesh = structured_unit_square(3)
    scheme = SchemeP0(mesh, PARAMS)
    state = scheme.initial_state()
    a_plus, a_minus = upwind_fluxes(mesh, scheme.v, state.u.values)
    assert np.all(a_plus == 0.0)
    assert np.all(a_minus == 0.0)


# ---------------------------------------------------------------------------
# initial data handling


@pytest.mark.parametrize("kind, velocity", [
    ("p0", "velocity_p2"), ("p1diff", "velocity_mini"),
    ("p1diff", "velocity_p2")], ids=["p0", "p1diff-mini", "p1diff-p2"])
def test_initial_state_projects_divergence_free(kind, velocity):
    """Both schemes start from a discretely divergence-free velocity, the
    diffusive one also under its smoothing dt0 > 0."""
    mesh = structured_unit_square(4)
    if kind == "p0":
        scheme, dt0 = SchemeP0(mesh, PARAMS, velocity=velocity), 0.0
    else:
        params = dataclasses.replace(PARAMS, alpha=0.1)
        scheme, dt0 = SchemeP1Diff(mesh, params, velocity=velocity), 0.05
    u = scheme.initial_state(decay_velocity, None, dt0).u.values
    assert np.linalg.norm(u) > 1e-3
    assert np.linalg.norm(scheme.div @ u) <= 1e-12 * np.linalg.norm(u)


def test_initial_sigma_forms():
    mesh = structured_unit_square(2)
    scheme = SchemeP0(mesh, PARAMS)
    assert np.allclose(scheme.initial_state().sigma,
                       np.tile(tc.IDENTITY, (mesh.n_cells, 1)))
    tiled = scheme.initial_state(sigma0=np.array([2.0, 0.1, 1.0])).sigma
    assert np.allclose(tiled, np.tile([2.0, 0.1, 1.0], (mesh.n_cells, 1)))
    full = np.tile([1.5, 0.0, 1.5], (mesh.n_cells, 1))
    assert np.allclose(scheme.initial_state(sigma0=full).sigma, full)

    def f(x, y):
        return (1.0 + x * 0.0, 0.0 * x, 1.0 + 0.0 * y)

    vals = scheme.initial_state(sigma0=f).sigma
    assert np.allclose(vals, np.tile(tc.IDENTITY, (mesh.n_cells, 1)),
                       atol=1e-12)


def test_velocity_pairing_enforced():
    mesh = structured_unit_square(2)
    with pytest.raises(ValueError):
        SchemeP0(mesh, PARAMS, velocity="velocity_mini")
    with pytest.raises(ValueError):
        SchemeP0(mesh, PARAMS, velocity="velocity_p1")
    with pytest.raises(ValueError):
        SchemeP0(mesh, PARAMS, pressure="pressure_p1")
    SchemeP0(mesh, PARAMS, velocity="velocity_p2_reduced")


# ---------------------------------------------------------------------------
# stepping and audits


def test_decay_run_dissipates_energy():
    mesh, scheme, state = project_decay_velocity()
    totals = []
    for _ in range(4):
        state, report, audit = scheme.step(state, 0.05, CFG)
        assert report.converged
        assert audit.passed
        totals.append(audit.f_after)
        assert audit.forcing == 0.0
    assert all(b < a for a, b in zip(totals, totals[1:]))
    w, _ = tc.eig_sym(state.sigma)
    assert w.min() > 0.0
    assert tc.trace(state.sigma).max() < PARAMS.b


def test_forced_run_reports_forcing_power():
    mesh = structured_unit_square(4)

    def forcing(x, y):
        return (np.sin(np.pi * x) * np.cos(np.pi * y),
                -np.cos(np.pi * x) * np.sin(np.pi * y))

    scheme = SchemeP0(mesh, PARAMS, forcing=forcing)
    c = PARAMS.b / (PARAMS.b + 2.0)
    state = scheme.initial_state(sigma0=np.array([c, 0.0, c]))
    state, report, audit = scheme.step(state, 0.05, CFG)
    assert report.converged and audit.passed
    assert audit.forcing != 0.0
    assert np.abs(state.u.values).max() > 1e-8


def test_nonconvergence_report():
    mesh = structured_unit_square(2)
    scheme = SchemeP0(mesh, PARAMS)
    state = scheme.initial_state(sigma0=np.array([2.0, 0.0, 2.0]))
    strict = PicardConfig(tol=1e-16, max_iters=2)
    with pytest.raises(SolverError) as err:
        scheme.step(state, 0.1, strict)
    assert err.value.report.iterations == 2
    assert not err.value.report.converged


def test_state_time_advances():
    mesh = structured_unit_square(2)
    scheme = SchemeP0(mesh, PARAMS)
    state = scheme.initial_state()
    assert state.t == 0.0
    state, _, _ = scheme.step(state, 0.25, CFG)
    assert state.t == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# positivity audit


def test_spd_audit_classifies_states():
    good = np.tile([1.0, 0.2, 2.0], (4, 1))
    rep = spd_audit(good, 5.0)
    assert rep.positive and rep.within_bound
    assert rep.min_eig > 0
    assert rep.max_trace == pytest.approx(3.0)
    indef = np.array([[1.0, 3.0, 1.0]])
    rep2 = spd_audit(indef, 5.0)
    assert not rep2.positive
    fat = np.array([[3.0, 0.0, 2.5]])
    rep3 = spd_audit(fat, 5.0)
    assert rep3.positive and not rep3.within_bound
    # infinite extensibility never trips the trace bound
    rep4 = spd_audit(fat, math.inf)
    assert rep4.within_bound


# ---------------------------------------------------------------------------
# regularization continuation


def test_delta_continuation_stagnates_on_interior_state():
    mesh = structured_unit_square(2)
    scheme = SchemeP0(mesh, PARAMS)
    state = scheme.initial_state(sigma0=np.array([1.2, 0.0, 1.2]))
    report = delta_continuation(mesh, PARAMS, state, 0.1,
                                delta_start=0.25, delta_min=1.0 / 64.0,
                                config=CFG)
    assert report.deltas[0] == 0.25
    assert all(b == a / 2 for a, b in zip(report.deltas, report.deltas[1:]))
    assert report.stagnated
    assert report.diffs[-1] < 1e-8
    assert report.spd.positive and report.spd.within_bound
