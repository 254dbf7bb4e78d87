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
import scipy.sparse as sp

import fenep.fespaces as fe
import fenep.tensorcalc as tc
from continuation import delta_continuation
from fenep.meshing import TriMesh, structured_unit_square
from fenep.nlsolve import PicardConfig, SolverError
from fenep.scheme_p0 import SchemeP0, upwind_fluxes, upwind_matrix
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
        assert np.allclose(state.u, 0.0, atol=1e-13)
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
    a_plus, a_minus = upwind_fluxes(mesh, scheme.edge_tables, state.u)
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
    u_mat = upwind_matrix(mesh, scheme.edge_tables, state.u)
    ones = np.ones(mesh.n_cells)
    assert np.abs(u_mat @ ones).max() < 1e-13


def test_upwind_quadratic_form_nonnegative():
    mesh, scheme, state = project_decay_velocity()
    u_mat = upwind_matrix(mesh, scheme.edge_tables, state.u)
    rng = np.random.default_rng(50)
    for _ in range(50):
        q = rng.standard_normal(mesh.n_cells)
        assert q @ (u_mat @ q) >= -1e-12


def test_upwind_matrix_stores_no_zero_and_keeps_the_tables():
    mesh, scheme, state = project_decay_velocity()
    tables = scheme.edge_tables
    indices = tables.pattern.indices.copy()
    rest = upwind_matrix(mesh, tables, np.zeros(scheme.v.n_dofs),
                         mesh.cell_areas)
    assert rest.nnz == mesh.n_cells
    assert np.array_equal(rest.diagonal(), mesh.cell_areas)
    moving = upwind_matrix(mesh, tables, state.u)
    assert np.all(moving.data != 0.0)
    assert rest.format == moving.format == "csc"    # what splu takes
    assert np.array_equal(tables.pattern.indices, indices)


def upwind_edge_term(mesh, tables, u_coeffs, sigma, edge):
    """Transport contributions of one edge to its two cell residuals.

    Returns ``(contrib_left, contrib_right)``, each a length-3 component
    vector added to the stress equation of the respective cell.  Boundary
    edges carry no flux under the no-flow condition and return zeros.
    """
    zeros = np.zeros(3)
    if mesh.is_boundary_edge[edge]:
        return zeros, zeros
    pos = int(np.searchsorted(mesh.interior_edges, edge))
    a_plus, a_minus = upwind_fluxes(mesh, tables, u_coeffs)
    kl, kr = mesh.edge_cells[edge]
    jump = sigma[kr] - sigma[kl]
    return -a_minus[pos] * jump, a_plus[pos] * jump


def test_upwind_edge_term_matches_matrix():
    mesh, scheme, state = project_decay_velocity(3)
    u_mat = upwind_matrix(mesh, scheme.edge_tables, state.u).toarray()
    rng = np.random.default_rng(51)
    sigma = rng.standard_normal((mesh.n_cells, 3))
    ref = u_mat @ sigma
    acc = np.zeros((mesh.n_cells, 3))
    for e in range(len(mesh.edge_vertices)):
        c_left, c_right = upwind_edge_term(mesh, scheme.edge_tables,
                                           state.u, sigma, e)
        left, right = mesh.edge_cells[e]
        acc[left] += c_left
        if right >= 0:
            acc[right] += c_right
    assert np.allclose(acc, ref, atol=1e-12)


def test_upwind_zero_velocity_gives_zero_fluxes():
    mesh = structured_unit_square(3)
    scheme = SchemeP0(mesh, PARAMS)
    state = scheme.initial_state()
    a_plus, a_minus = upwind_fluxes(mesh, scheme.edge_tables, state.u)
    assert np.all(a_plus == 0.0)
    assert np.all(a_minus == 0.0)


def sheared_mesh(n, slope=0.7):
    square = structured_unit_square(n)
    verts = square.vertices.copy()
    verts[:, 1] += slope * verts[:, 0]
    return TriMesh(verts, square.cells)


def sampled_normal_velocity(mesh, vspace, u_coeffs):
    """u . n at t = 0, 1/2, 1 along each interior edge, (3, n_e): the
    left cell's local functions evaluated at the points, one by one."""
    e_ids = mesh.interior_edges
    left = mesh.edge_cells[e_ids, 0]
    va, vb = mesh.edge_vertices[e_ids, 0], mesh.edge_vertices[e_ids, 1]
    la = np.argmax(mesh.cells[left] == va[:, None], axis=1)
    lb = np.argmax(mesh.cells[left] == vb[:, None], axis=1)
    ne = len(e_ids)
    lam = np.zeros((ne, 3, 3))
    rows = np.arange(ne)
    for ti, t in enumerate((0.0, 0.5, 1.0)):
        lam[rows, ti, la] = 1.0 - t
        lam[rows, ti, lb] += t
    svals = vspace.val(lam)                        # (ne, 3, nloc)
    c_loc = np.asarray(u_coeffs, float)[vspace.cell_dofs[left]]
    dirs = vspace.cell_dirs[left]
    uq = np.einsum("el,etl,eld->etd", c_loc, svals, dirs)
    return np.einsum("etd,ed->te", uq, mesh.edge_normals[e_ids])


def exact_signed_fluxes(mesh, q):
    """Integrals of the positive and negative parts of the quadratic
    through the samples ``q``, split at its roots by ``np.roots`` and
    integrated through the antiderivative, edge by edge."""
    out = np.zeros((2, q.shape[1]))
    for e, (q0, qh, q1) in enumerate(q.T):
        c2 = 2.0 * (q0 + q1 - 2.0 * qh)
        poly = np.array([c2, q1 - q0 - c2, q0])          # highest first
        prim = np.polyint(poly)
        roots = [r.real for r in np.roots(poly)
                 if abs(r.imag) < 1e-12 and 0.0 < r.real < 1.0]
        cuts = [0.0] + sorted(roots) + [1.0]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            piece = np.polyval(prim, hi) - np.polyval(prim, lo)
            out[0 if piece > 0 else 1, e] += abs(piece)
    return out * mesh.edge_lengths[mesh.interior_edges]


@pytest.mark.parametrize("kind", ["velocity_p2", "velocity_p2_reduced"])
def test_edge_map_matches_point_sampling(kind):
    """The edge map gives the normal velocity the local functions give
    at the edge points, and the fluxes are the exact integrals of its
    positive and negative parts, for a velocity with sign changes."""
    mesh = sheared_mesh(4)
    scheme = SchemeP0(mesh, PARAMS, velocity=kind)
    u = np.random.default_rng(52).standard_normal(scheme.v.n_dofs)
    q = sampled_normal_velocity(mesh, scheme.v, u)
    mapped = (scheme.edge_tables.flux_map @ u).reshape(3, -1)
    assert np.abs(mapped - q).max() <= 1e-14 * np.abs(q).max()
    want = exact_signed_fluxes(mesh, q)
    got = np.array(upwind_fluxes(mesh, scheme.edge_tables, u))
    assert np.all((want[0] > 0) | (want[1] > 0))
    assert np.count_nonzero((want[0] > 0) & (want[1] > 0)) > 5
    assert np.abs(got - want).max() <= 1e-14 * want.max()


@pytest.mark.parametrize("dt", [1e-6, 1e-3, 1.0, 1e3])
def test_stress_factor_without_pivoting_solves_its_matrix(dt):
    """The scalar matrix is strictly diagonally dominant by rows for a
    velocity that is not divergence-free too, and its factor, made with
    no row interchange, solves it to rounding at every step size."""
    mesh = sheared_mesh(6)
    scheme = SchemeP0(mesh, PARAMS)
    rng = np.random.default_rng(53)
    state = dataclasses.replace(scheme.initial_state(),
                                u=rng.standard_normal(scheme.v.n_dofs))
    assert np.abs(scheme.div @ state.u).max() > 1e-2
    lu, _ = scheme.stress_block(state, dt)
    a = (sp.diags(mesh.cell_areas / dt)
         + upwind_matrix(mesh, scheme.edge_tables, state.u)).tocsr()
    diag = a.diagonal()
    assert np.all(diag > abs(a - sp.diags(diag)).sum(axis=1).A1)
    assert np.array_equal(lu.perm_r, lu.perm_c)
    b = rng.standard_normal((mesh.n_cells, 3))
    x = lu.solve(b)
    residual = np.abs(b - a @ x).max()
    scale = abs(a).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()
    assert residual <= 1e-13 * scale


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
    u = scheme.initial_state(decay_velocity, None, dt0).u
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
    assert np.abs(state.u).max() > 1e-8


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
# stress bounds of a state


@pytest.mark.parametrize("sigma0, b, positive, within_bound", [
    ([1.0, 0.2, 2.0], 5.0, True, True),
    ([1.0, 3.0, 1.0], 5.0, False, True),         # indefinite
    ([3.0, 0.0, 2.5], 5.0, True, False),         # over the trace bound
    ([3.0, 0.0, 2.5], math.inf, True, True),     # no trace bound at b = inf
], ids=["positive", "indefinite", "over_trace", "oldroyd_b"])
def test_state_audit_bounds_classify_states(sigma0, b, positive,
                                            within_bound):
    params = dataclasses.replace(PARAMS, b=b)
    scheme = SchemeP0(structured_unit_square(2), params)
    audit = scheme.initial_state(sigma0=np.array(sigma0)).audit
    w = np.linalg.eigvalsh([[sigma0[0], sigma0[1]], [sigma0[1], sigma0[2]]])
    assert audit.min_eig_sigma == pytest.approx(w[0], abs=1e-14)
    assert audit.max_trace_sigma == pytest.approx(sigma0[0] + sigma0[2])
    assert (audit.min_eig_sigma > 0) == positive
    assert (audit.max_trace_sigma < b) == within_bound


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
    audit = report.state.audit
    assert audit.min_eig_sigma > 0 and audit.max_trace_sigma < PARAMS.b


def test_delta_continuation_reports_its_last_state_audit():
    mesh = structured_unit_square(2)
    state = SchemeP0(mesh, PARAMS).initial_state(
        sigma0=np.array([1.2, 0.3, 0.9]))
    report = delta_continuation(mesh, PARAMS, state, 0.1,
                                delta_start=0.25, delta_min=1.0 / 64.0,
                                config=CFG)
    sigma = report.state.sigma
    w, _ = tc.eig_sym(sigma)
    assert report.state.audit.min_eig_sigma == float(w[:, 0].min())
    assert report.state.audit.max_trace_sigma == float(tc.trace(sigma).max())
    # the audit of the last cut's step: the initial state's has no
    # relaxation dissipation
    assert report.state.audit.passed and report.state.audit.relaxation > 0
