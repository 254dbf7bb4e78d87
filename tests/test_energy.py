"""Tests for the free-energy functional and the per-step audit record."""

import math
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spl

import fenep.fespaces as fe
import fenep.tensorcalc as tc
from fenep.energy import (
    StepAudit,
    audit_slack,
    audit_step,
    free_energy,
    relaxation_dissipation,
    relaxation_integrand,
    tensor_gradient_energy,
)
from fenep.meshing import structured_unit_square
from fenep.nlsolve import PicardConfig
from fenep.params import ModelParams
from fenep.scheme_p0 import SchemeP0
from fenep.scheme_p1diff import SchemeP1Diff, TimeStepWarning

PARAMS = ModelParams(re=1.0, wi=1.0, eps=0.5, b=5.0, delta=0.1)


def p2_setup(n=3):
    mesh = structured_unit_square(n)
    v = fe.build_space(mesh, "velocity_p2")
    m = fe.velocity_mass(mesh, v)
    return mesh, v, m


def test_free_energy_frozen_homogeneous_state():
    mesh, v, m = p2_setup()
    u = np.zeros(v.n_dofs)
    sig = np.tile(tc.IDENTITY, (mesh.n_cells, 1))
    out = free_energy(PARAMS, mesh, m, u, sig, layout="cell")
    expected = -0.25 * (5.0 * math.log(0.6) + 2.0)
    assert out.kinetic == 0.0
    assert out.entropy == pytest.approx(expected, abs=1e-14)
    assert out.total == pytest.approx(0.1385320297074884, abs=1e-13)
    # vertex layout with the matching trace field agrees exactly
    sig_v = np.tile(tc.IDENTITY, (mesh.n_vertices, 1))
    eta_v = 2.0 * np.ones(mesh.n_vertices)
    out_v = free_energy(PARAMS, mesh, m, u, sig_v, eta_v, layout="vertex")
    assert out_v.total == pytest.approx(out.total, abs=1e-14)


def test_free_energy_kinetic_part():
    mesh, v, m = p2_setup()
    rhs = fe.velocity_load(mesh, v, lambda x, y: (3.0 + 0 * x, -4.0 + 0 * x))
    u = spl.spsolve(m.tocsc(), rhs)
    sig = np.tile(tc.IDENTITY, (mesh.n_cells, 1))
    re = 2.0
    params = ModelParams(re=re, wi=1.0, eps=0.5, b=5.0, delta=0.1)
    out = free_energy(params, mesh, m, u, sig, layout="cell")
    assert out.kinetic == pytest.approx(0.5 * re * 25.0, abs=1e-10)
    assert out.total == pytest.approx(out.kinetic + out.entropy)


def test_relaxation_dissipation_closed_form():
    # at sigma = 2I, eta = 4: A = (G'(0.2) - G'(2)) I = 4.5 I and
    # tr(A^2 beta) = 2 * 4.5^2 * 2 = 81
    mesh = structured_unit_square(2)
    sig = np.tile(2.0 * tc.IDENTITY, (mesh.n_cells, 1))
    eta = 4.0 * np.ones(mesh.n_cells)
    vals = relaxation_integrand(PARAMS, sig, eta)
    assert np.allclose(vals, 81.0)
    d = relaxation_dissipation(PARAMS, mesh.cell_areas, sig, eta)
    assert d == pytest.approx(PARAMS.eps / (2.0 * PARAMS.wi ** 2) * 81.0)


def test_relaxation_dissipation_nonnegative_on_random_states():
    rng = np.random.default_rng(40)
    sig = rng.uniform(-5.0, 5.0, size=(400, 3))
    eta = rng.uniform(-5.0, 5.0, size=400)
    vals = relaxation_integrand(PARAMS, sig, eta)
    assert np.all(vals >= -1e-12)


def test_relaxation_dissipation_zero_at_equilibrium():
    b = PARAMS.b
    c = b / (b + 2.0)
    sig = np.tile(c * tc.IDENTITY, (7, 1))
    eta = 2.0 * c * np.ones(7)
    assert relaxation_dissipation(PARAMS, np.ones(7) / 7.0, sig, eta) == \
        pytest.approx(0.0, abs=1e-14)


def test_tensor_gradient_energy_counts_offdiagonal_twice():
    mesh = structured_unit_square(3)
    k = fe.scalar_stiffness(mesh)
    lin = fe.pi_h(mesh, lambda x, y: x - 2.0 * y)
    scalar_energy = float(lin @ (k @ lin))
    assert scalar_energy == pytest.approx(5.0, abs=1e-12)
    field = np.zeros((mesh.n_vertices, 3))
    field[:, 1] = lin
    assert tensor_gradient_energy(k, field) == pytest.approx(
        2.0 * scalar_energy, abs=1e-12)
    field2 = np.zeros((mesh.n_vertices, 3))
    field2[:, 0] = lin
    field2[:, 2] = lin
    assert tensor_gradient_energy(k, field2) == pytest.approx(
        2.0 * scalar_energy, abs=1e-12)
    assert tensor_gradient_energy(k, lin) == pytest.approx(scalar_energy)


def test_audit_slack_floor_and_scaling():
    assert audit_slack(1e-10, 0.0, 0.0) == pytest.approx(1e-8)
    big = audit_slack(1e-6, 50.0, 30.0)
    assert big == pytest.approx(100 * 1e-6 * (50.0 + 30.0 + 1.0))
    assert audit_slack(1e-12, 1.0, 1.0) == pytest.approx(1e-8)


def test_step_audit_margin_and_pass():
    common = dict(kinetic_jump=0.1, viscous=0.2, relaxation=0.3,
                  diffusion_sigma=0.05, diffusion_rho=0.01, forcing=0.0,
                  slack=1e-8, trace_balance=0.0, min_eig_sigma=0.5,
                  max_trace_sigma=3.0)
    ok = audit_step(2.0, 1.3, certified_gradient_terms=True, **common)
    assert isinstance(ok, StepAudit)
    assert ok.margin == pytest.approx(2.0 - 1.3 - 0.66 + 1e-8)
    assert ok.passed
    bad = audit_step(2.0, 1.5, certified_gradient_terms=True, **common)
    assert bad.margin < 0 and not bad.passed
    # uncertified gradient terms drop out of the requirement: a budget
    # between the two thresholds passes only without them
    border = audit_step(2.0, 1.37, certified_gradient_terms=False, **common)
    assert border.margin == pytest.approx(2.0 - 1.37 - 0.6 + 1e-8)
    assert border.passed
    assert not audit_step(2.0, 1.37, certified_gradient_terms=True,
                          **common).passed


def test_step_audit_forcing_enters_budget():
    audit = audit_step(1.0, 1.5, kinetic_jump=0.0, viscous=0.0,
                       relaxation=0.0, forcing=0.6, slack=1e-8,
                       min_eig_sigma=1.0, max_trace_sigma=2.0)
    assert audit.passed
    audit2 = audit_step(1.0, 1.5, kinetic_jump=0.0, viscous=0.0,
                        relaxation=0.0, forcing=0.4, slack=1e-8,
                        min_eig_sigma=1.0, max_trace_sigma=2.0)
    assert not audit2.passed


# ---------------------------------------------------------------------------
# the free energy a step carries forward


def _forcing(x, y):
    return (np.sin(np.pi * x) * np.cos(np.pi * y),
            -np.cos(np.pi * x) * np.sin(np.pi * y))


def _p0_start():
    scheme = SchemeP0(structured_unit_square(3), PARAMS, forcing=_forcing)
    return scheme, scheme.initial_state(sigma0=np.array([1.5, 0.1, 1.2]))


def _p1diff_start(b):
    params = ModelParams(re=1.0, wi=1.0, eps=0.5, b=b, delta=0.1, alpha=0.1)
    scheme = SchemeP1Diff(structured_unit_square(3), params,
                          forcing=_forcing)
    state, _ = scheme.project_initial(0.05, None, np.array([1.5, 0.1, 1.2]))
    return scheme, state


@pytest.mark.parametrize("start", [
    _p0_start,
    lambda: _p1diff_start(5.0),
    lambda: _p1diff_start(math.inf),
], ids=["p0", "p1diff", "p1diff-oldroyd-b"])
def test_step_carries_free_energy(start):
    scheme, state = start()
    layout = "cell" if isinstance(scheme, SchemeP0) else "vertex"
    cfg = PicardConfig(tol=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TimeStepWarning)
        for _ in range(3):
            f_prev = state.energy.total
            state, report, audit = scheme.step(state, 0.05, cfg)
            assert report.converged and audit.passed
            assert audit.f_before == f_prev
            fresh = free_energy(scheme.params, scheme.mesh, scheme.mass,
                                state.u.values, state.sigma, state.rho,
                                layout=layout)
            assert state.energy == fresh
            assert audit.f_after == fresh.total
    assert np.abs(state.u.values).max() > 1e-6
