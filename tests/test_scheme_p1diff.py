"""Tests for the vertexwise stress scheme with stress diffusion.

The transport checks verify the discrete chain rule that the scheme's
advection is built to satisfy, on the corner coefficients and through
the advection map the step applies; the stepping tests exercise the
homogeneous oracle, the conserved trace integral and the obtuse-mesh
certification flag.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import fenep.fespaces as fe
import fenep.tensorcalc as tc
from fe_oracles import cell_corner_coefficients, pair_coefficients, vertex_nodes
from fenep.meshing import TriMesh, structured_unit_square
from fenep.nlsolve import BlockStep, PicardConfig, SolverError
from fenep.params import ModelParams
from fenep.scheme_p1diff import (
    DT_CAP_CSTAR,
    DT_CAP_ZETA,
    SchemeP1Diff,
    TimeStepWarning,
    advection_map,
    corner_coefficients,
)
from fenep.verify import chain_rule_residual

PARAMS = ModelParams(re=1.0, wi=1.0, eps=0.5, b=5.0, delta=0.1, alpha=0.1)
CFG = PicardConfig(tol=1e-12, max_iters=200)
RP = PARAMS.reg


def make_scheme(n=3, params=PARAMS, **kw):
    return SchemeP1Diff(structured_unit_square(n), params, **kw)


def quiet_step(scheme, state, dt, cfg=CFG):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TimeStepWarning)
        return scheme.step(state, dt, cfg)


def initial(scheme, dt0, u0=None, sigma0=None):
    """The initial state and its range check."""
    state = scheme.initial_state(u0, sigma0, dt0)
    return state, state.initial_report


# ---------------------------------------------------------------------------
# transport coefficients


def test_lambda_scalar_frozen_and_coincident():
    def lam(a, c):
        return pair_coefficients([a], [c], RP)[0]

    assert lam(2.0, 1.0) == pytest.approx(1.3862943611198906, abs=1e-14)
    # divided difference collapses to beta at coincidence
    assert lam(1.7, 1.7) == pytest.approx(1.7)
    assert lam(0.03, 0.03) == pytest.approx(RP.delta)
    # symmetric in its arguments
    assert lam(0.4, 2.9) == pytest.approx(lam(2.9, 0.4))


def test_lambda_scalar_nearly_coincident_is_stable():
    a = 1.234567
    vals = pair_coefficients(np.full(3, a), a * (1 + np.array(
        [0.0, 1e-13, 1e-9])), RP)
    assert vals[0] == pytest.approx(a)
    assert abs(vals[1] - vals[0]) < 1e-10
    assert abs(vals[2] - vals[0]) < 1e-6


def test_lambda_matrix_endpoints_and_psd():
    a = tc.tensor(2.0, 0.3, 1.5)
    c = tc.tensor(1.0, -0.2, 2.5)
    lam = pair_coefficients(np.stack([a, a]), np.stack([c, a]), RP)
    # a convex combination of two positive matrices stays positive
    w, _ = tc.eig_sym(lam[0])
    assert w.min() >= RP.delta - 1e-12
    assert np.allclose(lam[1], tc.beta_delta_mat(a, RP))
    ba = tc.beta_delta_mat(a, RP)
    bc = tc.beta_delta_mat(c, RP)
    # the combination stays inside the segment [beta(a), beta(c)]
    for t in np.linspace(0, 1, 5):
        seg = (1 - t) * ba + t * bc
        ws, _ = tc.eig_sym(seg)
        assert ws.min() >= RP.delta - 1e-12


def test_corner_coefficients_of_a_constant_field_are_beta():
    mesh = structured_unit_square(3)
    value = np.array([1.3, 0.1, 0.8])
    field = np.tile(value, (mesh.n_vertices, 1))
    coef = corner_coefficients(
        mesh.edge_vertices, tc.tensor_nodes(*tc.eig_sym(field), RP), RP)
    assert coef.shape == (len(mesh.edge_vertices), 3)
    assert np.allclose(coef, tc.beta_delta_mat(value, RP), atol=1e-13)
    # in the physical frame, beta times the identity
    lam = physical_frame(mesh, coef)
    assert np.allclose(lam[:, 0, 1], 0.0, atol=1e-13)
    assert np.allclose(lam[:, 1, 0], 0.0, atol=1e-13)
    assert np.allclose(lam[:, 0, 0], tc.beta_delta_mat(value, RP), atol=1e-13)
    assert np.allclose(lam[:, 1, 1], tc.beta_delta_mat(value, RP), atol=1e-13)


def sheared(n, slope=0.4):
    base = structured_unit_square(n)
    pts = base.vertices.copy()
    pts[:, 0] += slope * pts[:, 1]
    return TriMesh(pts, base.cells)


@pytest.mark.parametrize("make_mesh,seed", [
    pytest.param(lambda: structured_unit_square(2), 3, id="2-3"),
    pytest.param(lambda: structured_unit_square(4), 4, id="4-4"),
    pytest.param(lambda: sheared(6), 6, id="sheared6-6")])
def test_transport_chain_rule_tensor(make_mesh, seed):
    mesh = make_mesh()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(25):
        amap_t = advection_map(
            mesh, rng.standard_normal((mesh.n_cells, 2))).T
        field = rng.uniform(-2.0, 2.0, size=(mesh.n_vertices, 3))
        worst = max(worst, chain_rule_residual(
            mesh.edge_vertices, amap_t, field, RP))
    assert worst <= 1e-13, f"relative chain-rule residual {worst:.3e}"


def test_transport_chain_rule_scalar():
    mesh = structured_unit_square(3)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(25):
        amap_t = advection_map(
            mesh, rng.standard_normal((mesh.n_cells, 2))).T
        q = rng.uniform(-1.5, 1.5, size=mesh.n_vertices)
        worst = max(worst, chain_rule_residual(
            mesh.edge_vertices, amap_t, q, RP))
    assert worst <= 1e-13, f"relative scalar chain-rule residual {worst:.3e}"


def test_corner_coefficients_are_pairwise_stacking():
    """Vertex-first evaluation equals evaluation pair by pair."""
    n = 4
    mesh = structured_unit_square(n)
    ends = mesh.edge_vertices
    rng = np.random.default_rng(11)
    # eigenvalues on both sides of delta, and traces up to 1.2 b
    field = rng.uniform(-2.0, 2.0, size=(mesh.n_vertices, 3))
    rho = rng.uniform(0.0, 1.2 * RP.b, size=mesh.n_vertices)
    # coincident pairs on disjoint edges: horizontal, from an even column
    col = ends[:, 0] % (n + 1)
    same = np.flatnonzero((ends[:, 1] == ends[:, 0] + 1) & (col % 2 == 0))[:6]
    field[ends[same, 1]] = field[ends[same, 0]]
    rho[ends[same, 1]] = rho[ends[same, 0]]
    field[-6:] = np.outer(                            # isotropic tensors
        [0.05, 0.1, 0.5, 1.0, 2.0, -0.3], tc.IDENTITY)
    q = 1.0 - rho / RP.b
    assert (q < RP.delta).any() and (q > RP.delta).any()
    w, _ = tc.eig_sym(field)
    assert (w < RP.delta).any() and (w > RP.delta).any()
    assert (field[ends[:, 1]] == field[ends[:, 0]]).all(axis=1).sum() == 6

    for values in (field, q):
        want = pair_coefficients(values[ends[:, 1]], values[ends[:, 0]], RP)
        got = corner_coefficients(ends, vertex_nodes(values, RP), RP)
        assert np.array_equal(got, want)


def random_pairs(rng, count):
    """Tensor pairs (a, c) with eigenvalues on both sides of delta and
    traces up to 1.2 b, coincident and isotropic ones among them, and
    scalar pairs of ``1 - rho / b`` with rho up to 1.2 b."""
    def tensors():
        diag = rng.uniform(-1.0, 0.6 * RP.b, size=(count, 2))
        return tc.tensor(diag[:, 0], rng.uniform(-1.5, 1.5, count), diag[:, 1])

    a, c = tensors(), tensors()
    c[:50] = a[:50]
    a[50:100] = np.outer(rng.uniform(-0.5, 2.0, 50), tc.IDENTITY)
    c[75:125] = np.outer(rng.uniform(-0.5, 2.0, 50), tc.IDENTITY)
    w, _ = tc.eig_sym(np.concatenate([a, c]))
    assert (w < RP.delta).any() and (w > RP.delta).any()
    assert tc.trace(a).max() > RP.b
    rho = rng.uniform(0.0, 1.2 * RP.b, size=(2, count))
    rho[1, :50] = rho[0, :50]
    return (a, c), tuple(1.0 - rho / RP.b)


def test_corner_coefficients_match_the_per_cell_oracle():
    """The per-edge kernel against the per-cell evaluation it replaced,
    with the pair's ends in the oracle's order and swapped: the tensor
    coefficient is symmetric in its ends up to round-off, and the
    scalar one exactly."""
    rng = np.random.default_rng(21)
    count = 20_000
    tensors, scalars = random_pairs(rng, count)
    idx = np.arange(count)
    # the oracle's pair (a, c) is (vertex 1, vertex 0) of cell (c, a, a)
    cells = np.column_stack([count + idx, idx, idx])
    ends = cells[:, :2]
    for a, c in (tensors, scalars):
        nodes = vertex_nodes(np.concatenate([a, c]), RP)
        want = cell_corner_coefficients(cells, nodes, RP)[:, 0]
        same = corner_coefficients(ends, nodes, RP)
        swapped = corner_coefficients(ends[:, ::-1], nodes, RP)
        if a.ndim == 1:
            assert np.array_equal(same, want)
            assert np.array_equal(swapped, want)
            continue
        beta = tc.beta_delta_mat(np.concatenate([a, c]), RP)
        scale = (tc.frob_norm(beta[:count])
                 + tc.frob_norm(beta[count:]))[:, None]
        assert (np.abs(same - want) <= 1e-15 * scale).all()
        assert (np.abs(swapped - want) <= 1e-14 * scale).all()


@pytest.mark.parametrize("n", [4, 8, 32])
def test_edge_orientation_is_the_per_cell_one_on_the_unit_square(n):
    """On the structured meshes local vertex 0 is each cell's lowest
    index, so the higher numbered end of an edge is the per-cell a, and
    each cell reads the coefficients the per-cell oracle gives it."""
    mesh = structured_unit_square(n)
    assert (mesh.cells[:, 0] < mesh.cells[:, 1:].min(axis=1)).all()
    rng = np.random.default_rng(n)
    field = rng.uniform(-2.0, 2.0, size=(mesh.n_vertices, 3))
    nodes = vertex_nodes(field, RP)
    want = cell_corner_coefficients(mesh.cells, nodes, RP)
    got = corner_coefficients(mesh.edge_vertices, nodes, RP)
    scale = (tc.frob_norm(nodes.beta[mesh.cells[:, 1:]])
             + tc.frob_norm(nodes.beta[mesh.cells[:, :1]]))[..., None]
    assert (np.abs(got[mesh.cell_edges[:, [2, 1]]] - want)
            <= 1e-15 * scale).all()


def physical_frame(mesh, coef):
    """The edge coefficients (n_edges[, 3]) of each cell's two reference
    directions as the physical-frame Lambda, ``B^{-1}`` and ``B`` of the
    cell's affine map around them: entry [k, m, p] multiplies the m-th
    velocity component against the p-th test derivative."""
    corners = mesh.vertices[mesh.cells]
    b = np.stack([corners[:, 1] - corners[:, 0],
                  corners[:, 2] - corners[:, 0]], axis=2)
    return np.einsum("kjm,kpj,kj...->kmp...", np.linalg.inv(b), b,
                     coef[mesh.cell_edges[:, [2, 1]]])


def einsum_advection(mesh, u_cell, lam):
    """Vertex advection contracted from the physical-frame Lambda.

    The formula the step used before it mapped corner coefficients
    directly; kept as the oracle of :func:`advection_map`.
    """
    if lam.ndim == 4:
        contrib = np.einsum("km,kmpc,klp->klc", u_cell, lam, mesh.bary_grads)
        adv = np.zeros((mesh.n_vertices, 3))
        np.add.at(adv, mesh.cells.ravel(), contrib.reshape(-1, 3))
        return adv
    contrib = np.einsum("km,kmp,klp->kl", u_cell, lam, mesh.bary_grads)
    adv = np.zeros(mesh.n_vertices)
    np.add.at(adv, mesh.cells.ravel(), contrib.ravel())
    return adv


def test_advection_map_matches_einsum_contraction():
    scheme = SchemeP1Diff(sheared(6), PARAMS)
    mesh, v = scheme.mesh, scheme.v
    rng = np.random.default_rng(12)
    state, _ = initial(scheme, 0.1)
    sig = rng.uniform(-2.0, 2.0, size=(mesh.n_vertices, 3))
    rho = rng.uniform(0.0, 1.2 * RP.b, size=mesh.n_vertices)
    coef = corner_coefficients(
        mesh.edge_vertices, tc.tensor_nodes(*tc.eig_sym(sig), RP), RP)
    coef_r = corner_coefficients(
        mesh.edge_vertices, tc.g_delta(1.0 - rho / RP.b, RP)[1], RP)

    def close(got, want):
        return np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    # two steps of one scheme: each maps its own previous velocity
    for _ in range(2):
        u = rng.standard_normal(v.n_dofs)
        state = dataclasses.replace(state, u=u)
        problem = BlockStep(scheme, state, 0.1)
        u_cell = fe.cell_mean_velocity(mesh, v, u)
        want = einsum_advection(mesh, u_cell, physical_frame(mesh, coef))
        want_r = einsum_advection(mesh, u_cell, physical_frame(mesh, coef_r))
        amap = advection_map(mesh, u_cell)
        assert amap.shape == (mesh.n_vertices, len(mesh.edge_vertices))
        assert close(amap @ coef, want)
        assert close(amap @ coef_r, want_r)
        adv = problem.stress_terms(sig, rho)[1][3]
        assert close(adv[:, :3], want)
        assert close(adv[:, 3], -RP.b * want_r)


# ---------------------------------------------------------------------------
# construction rules


def test_alpha_required():
    bare = ModelParams(re=1.0, wi=1.0, eps=0.5, b=5.0, delta=0.1)
    with pytest.raises(ValueError):
        make_scheme(params=bare)


def test_velocity_pairing_enforced():
    make_scheme(velocity="velocity_mini")
    make_scheme(velocity="velocity_p2")
    with pytest.raises(ValueError):
        make_scheme(velocity="velocity_p2_reduced")
    with pytest.raises(ValueError):
        make_scheme(velocity="velocity_p1")


def test_step_size_warning_threshold():
    scheme = make_scheme(2)
    cap = (DT_CAP_CSTAR * PARAMS.alpha ** (1.0 + DT_CAP_ZETA)
           * scheme.mesh.h_max ** 2)
    with pytest.warns(TimeStepWarning):
        scheme.check_step_size(2.0 * cap)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scheme.check_step_size(0.5 * cap)


def test_step_size_warning_names_the_caller_of_step():
    scheme = make_scheme(2)
    state, _ = initial(scheme, 0.1)
    with pytest.warns(TimeStepWarning) as caught:
        scheme.step(state, 0.1, CFG)
    assert [w.filename for w in caught] == [__file__]


# ---------------------------------------------------------------------------
# initial projection


def test_project_initial_identity_data():
    scheme = make_scheme()
    state, report = initial(scheme, 0.01)
    assert scheme.mesh.non_obtuse
    assert report.bounds_hold
    assert np.allclose(state.sigma,
                       np.tile(tc.IDENTITY, (scheme.mesh.n_vertices, 1)),
                       atol=1e-10)
    assert np.allclose(state.rho, 2.0, atol=1e-10)
    assert state.t == 0.0


def test_project_initial_smooths_and_reports_bounds():
    scheme = make_scheme(4)

    def sigma0(x, y):
        base = 1.0 + 0.5 * np.sin(np.pi * x) * np.sin(np.pi * y)
        return (base, 0.1 * x * (1 - x), base)

    state, report = initial(scheme, 0.01, sigma0=sigma0)
    assert scheme.mesh.non_obtuse
    assert report.data_min_eig > 0
    assert report.data_max_trace < PARAMS.b
    assert report.bounds_hold
    assert np.allclose(state.rho, state.sigma[:, 0] + state.sigma[:, 2],
                       atol=1e-12)


# ---------------------------------------------------------------------------
# stepping


def isotropic_backward_euler(c_prev, dt, params):
    delta, b, wi = params.delta, params.b, params.wi

    def resid(c):
        gp = 1.0 / max(1.0 - 2.0 * c / b, delta)
        return c - c_prev + (dt / wi) * (gp * max(c, delta) - 1.0)

    lo, hi = 1e-12, max(c_prev, 1.0) + dt / wi + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if resid(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_zero_velocity_reduces_to_vertexwise_ode():
    scheme = make_scheme(3)
    state, _ = initial(scheme, 0.05,
                       sigma0=np.array([2.0, 0.0, 2.0]))
    c = 2.0
    for _ in range(4):
        state, report, audit = quiet_step(scheme, state, 0.1)
        assert report.converged and audit.passed
        c = isotropic_backward_euler(c, 0.1, PARAMS)
        assert np.allclose(state.u, 0.0, atol=1e-13)
        assert np.allclose(state.sigma[:, 0], c, atol=1e-10)
        assert np.allclose(state.sigma[:, 1], 0.0, atol=1e-12)
        assert np.allclose(state.rho, 2.0 * c, atol=1e-9)
        assert audit.certified_gradient_terms
        assert audit.diffusion_sigma >= 0.0
        assert audit.diffusion_rho >= 0.0


def test_trace_integral_conserved_under_forcing():
    def forcing(x, y):
        return (np.sin(np.pi * x) * np.cos(np.pi * y),
                -np.cos(np.pi * x) * np.sin(np.pi * y))

    scheme = make_scheme(4, forcing=forcing)
    c = PARAMS.b / (PARAMS.b + 2.0)
    state, _ = initial(scheme, 0.05, sigma0=np.array([c, 0.0, c]))
    w = fe.lumped_weights(scheme.mesh)
    for _ in range(5):
        state, report, audit = quiet_step(scheme, state, 0.05)
        assert report.converged and audit.passed
        balance = float(w @ (tc.trace(state.sigma) - state.rho))
        assert abs(balance) < 1e-12
        assert audit.trace_balance == pytest.approx(balance, abs=1e-15)
    assert np.abs(state.u).max() > 1e-6


def test_oldroyd_b_mode_drops_trace_variable():
    params = ModelParams(re=1.0, wi=1.0, eps=0.5, b=math.inf, delta=0.1,
                         alpha=0.1)
    scheme = make_scheme(3, params=params)
    state, report = initial(scheme, 0.05)
    assert state.rho is None
    state, rep, audit = quiet_step(scheme, state, 0.1)
    assert rep.converged and audit.passed
    assert audit.trace_balance == 0.0
    assert audit.diffusion_rho == 0.0
    assert np.allclose(state.sigma,
                       np.tile(tc.IDENTITY, (scheme.mesh.n_vertices, 1)),
                       atol=1e-10)


def test_obtuse_mesh_marks_gradient_terms_uncertified():
    base = structured_unit_square(3)
    pts = base.vertices.copy()
    pts[:, 1] += 1.2 * pts[:, 0]
    mesh = TriMesh(pts, base.cells)
    scheme = SchemeP1Diff(mesh, PARAMS)
    state, report = initial(scheme, 0.05,
                            sigma0=np.array([1.5, 0.0, 1.5]))
    assert not scheme.mesh.non_obtuse
    state, rep, audit = quiet_step(scheme, state, 0.1)
    assert rep.converged
    assert not audit.certified_gradient_terms
    # the terms are still measured, but without the non-obtuse geometry
    # their sign is no longer guaranteed
    assert np.isfinite(audit.diffusion_sigma)


def test_nonconvergence_raises_with_report():
    scheme = make_scheme(2)
    state, _ = initial(scheme, 0.05,
                       sigma0=np.array([2.0, 0.0, 2.0]))
    with pytest.raises(SolverError) as err:
        quiet_step(scheme, state, 0.1, PicardConfig(tol=1e-16, max_iters=2))
    assert not err.value.report.converged
