"""Tests for the free-energy functional and the per-step audit record."""

import math
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spl

import fe_oracles as oracle
import fenep.fespaces as fe
import fenep.tensorcalc as tc
from fenep import nlsolve
from fenep.cli import (
    build_setup, parse_config, read_energy_csv, run_simulation)
from fenep.energy import (
    StepAudit,
    audit_slack,
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
    out = free_energy(PARAMS, mesh.cell_areas, m, u, tc.eig_sym(sig)[0],
                      tc.trace(sig))
    expected = -0.25 * (5.0 * math.log(0.6) + 2.0)
    assert out.kinetic == 0.0
    assert out.entropy == pytest.approx(expected, abs=1e-14)
    assert out.total == pytest.approx(0.1385320297074884, abs=1e-13)
    # lumped vertex weights with the matching trace field agree exactly
    sig_v = np.tile(tc.IDENTITY, (mesh.n_vertices, 1))
    eta_v = 2.0 * np.ones(mesh.n_vertices)
    out_v = free_energy(PARAMS, fe.lumped_weights(mesh), m, u,
                        tc.eig_sym(sig_v)[0], eta_v)
    assert out_v.total == pytest.approx(out.total, abs=1e-14)


def test_free_energy_kinetic_part():
    mesh, v, m = p2_setup()
    rhs = fe.velocity_load(mesh, v, lambda x, y: (3.0 + 0 * x, -4.0 + 0 * x))
    u = spl.spsolve(m.tocsc(), rhs)
    sig = np.tile(tc.IDENTITY, (mesh.n_cells, 1))
    re = 2.0
    params = ModelParams(re=re, wi=1.0, eps=0.5, b=5.0, delta=0.1)
    out = free_energy(params, mesh.cell_areas, m, u, tc.eig_sym(sig)[0],
                      tc.trace(sig))
    assert out.kinetic == pytest.approx(0.5 * re * 25.0, abs=1e-10)
    assert out.total == pytest.approx(out.kinetic + out.entropy)


def test_relaxation_dissipation_closed_form():
    # at sigma = 2I, eta = 4: A = (G'(0.2) - G'(2)) I = 4.5 I and
    # tr(A^2 beta) = 2 * 4.5^2 * 2 = 81
    mesh = structured_unit_square(2)
    sig = np.tile(2.0 * tc.IDENTITY, (mesh.n_cells, 1))
    eta = 4.0 * np.ones(mesh.n_cells)
    eigs, _ = tc.eig_sym(sig)
    vals = relaxation_integrand(PARAMS, eigs, eta)
    assert np.allclose(vals, 81.0)
    d = relaxation_dissipation(PARAMS, mesh.cell_areas, eigs, eta)
    assert d == pytest.approx(PARAMS.eps / (2.0 * PARAMS.wi ** 2) * 81.0)


def test_relaxation_dissipation_nonnegative_on_random_states():
    rng = np.random.default_rng(40)
    sig = rng.uniform(-5.0, 5.0, size=(400, 3))
    eta = rng.uniform(-5.0, 5.0, size=400)
    vals = relaxation_integrand(PARAMS, tc.eig_sym(sig)[0], eta)
    assert np.all(vals >= -1e-12)


def test_derivative_only_terms_keep_a_nan():
    """The terms that need only g' take ``1 / beta_delta``: the same
    value as the derivative of ``g_delta`` for finite input, and a NaN,
    not ``1 / delta``, for a NaN."""
    rp = PARAMS.reg
    s = np.random.default_rng(41).uniform(-3.0, 3.0, size=1000)
    assert np.array_equal(1.0 / tc.beta_delta(s, rp), tc.g_delta(s, rp)[1])
    assert tc.g_delta(math.nan, rp)[1] == 1.0 / rp.delta

    nodes = tc.tensor_nodes(np.array([[math.nan, 1.0]]),
                            tc.tensor(1.0, 0.0, -1.0)[None], rp)
    assert np.isnan(nodes.gprime).all() and np.isnan(nodes.tr_h).all()
    assert np.isnan(tc.relax_flux_of_beta(tc.IDENTITY, math.nan, rp)).all()
    assert np.isnan(relaxation_integrand(
        PARAMS, np.array([[math.nan, 1.0]]), np.array([2.0]))).all()
    assert np.isnan(relaxation_integrand(
        PARAMS, np.array([[0.5, 1.0]]), np.array([math.nan]))).all()


def test_relaxation_dissipation_zero_at_equilibrium():
    b = PARAMS.b
    c = b / (b + 2.0)
    sig = np.tile(c * tc.IDENTITY, (7, 1))
    eta = 2.0 * c * np.ones(7)
    eigs, _ = tc.eig_sym(sig)
    assert relaxation_dissipation(PARAMS, np.ones(7) / 7.0, eigs, eta) == \
        pytest.approx(0.0, abs=1e-14)


def test_tensor_gradient_energy_counts_offdiagonal_twice():
    mesh = structured_unit_square(3)
    k = fe.velocity_stiffness(mesh, fe.build_space(mesh, "pressure_p1"))
    lin = oracle.pi_h(mesh, lambda x, y: x - 2.0 * y)
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


def test_tensor_gradient_energy_is_nonnegative_at_rounding():
    """A field constant up to rounding has a gradient energy of that
    rounding squared, never below zero on a non-obtuse mesh (the plain
    quadratic form gives round-off of either sign, near 1e-15)."""
    mesh = structured_unit_square(16)
    k = fe.velocity_stiffness(mesh, fe.build_space(mesh, "pressure_p1"))
    rng = np.random.default_rng(5)
    for _ in range(20):
        field = 1.0 + 1e-16 * rng.standard_normal((mesh.n_vertices, 3))
        for f in (field, field[:, 0]):
            energy = tensor_gradient_energy(k, f)
            assert 0.0 <= energy <= 1e-28
    # and the quadratic form of a field that is not constant
    field = rng.standard_normal((mesh.n_vertices, 3))
    want = sum(w * float(c @ (k @ c))
               for w, c in zip((1.0, 2.0, 1.0), field.T))
    assert tensor_gradient_energy(k, field) == pytest.approx(want, rel=1e-12)


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
    ok = StepAudit(f_before=2.0, f_after=1.3, certified_gradient_terms=True,
                   **common)
    assert isinstance(ok, StepAudit)
    assert ok.margin == pytest.approx(2.0 - 1.3 - 0.66 + 1e-8)
    assert ok.passed
    bad = StepAudit(f_before=2.0, f_after=1.5, certified_gradient_terms=True,
                    **common)
    assert bad.margin < 0 and not bad.passed
    # uncertified gradient terms drop out of the requirement: a budget
    # between the two thresholds passes only without them
    border = StepAudit(f_before=2.0, f_after=1.37,
                       certified_gradient_terms=False, **common)
    assert border.margin == pytest.approx(2.0 - 1.37 - 0.6 + 1e-8)
    assert border.passed
    assert not StepAudit(f_before=2.0, f_after=1.37,
                         certified_gradient_terms=True, **common).passed


def test_step_audit_forcing_enters_budget():
    audit = StepAudit(f_before=1.0, f_after=1.5, kinetic_jump=0.0,
                      viscous=0.0, relaxation=0.0, forcing=0.6, slack=1e-8,
                      min_eig_sigma=1.0, max_trace_sigma=2.0)
    assert audit.passed
    audit2 = StepAudit(f_before=1.0, f_after=1.5, kinetic_jump=0.0,
                       viscous=0.0, relaxation=0.0, forcing=0.4, slack=1e-8,
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
    state = scheme.initial_state(None, np.array([1.5, 0.1, 1.2]), 0.05)
    return scheme, state


@pytest.mark.parametrize("start", [
    _p0_start,
    lambda: _p1diff_start(5.0),
    lambda: _p1diff_start(math.inf),
], ids=["p0", "p1diff", "p1diff-oldroyd-b"])
def test_step_carries_free_energy(start):
    scheme, state = start()
    cfg = PicardConfig(tol=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TimeStepWarning)
        for _ in range(3):
            f_prev = state.energy.total
            state, report, audit = scheme.step(state, 0.05, cfg)
            assert report.converged and audit.passed
            assert audit.f_before == f_prev
            eta = (tc.trace(state.sigma) if state.rho is None
                   else state.rho)
            fresh = free_energy(scheme.params, scheme.weights, scheme.mass,
                                state.u, tc.eig_sym(state.sigma)[0],
                                eta)
            assert state.energy == fresh
            assert audit.f_after == fresh.total
    assert np.abs(state.u).max() > 1e-6


# ---------------------------------------------------------------------------
# the eigenvalue forms against the full-matrix compositions they replace


def entropy_oracle(phi, eta, rp):
    """Entropy density from the trace of the matrix function g(phi)."""
    tr_g = tc.trace(tc.g_delta_mat(phi, rp)[0])
    if rp.oldroyd_b:
        return tc.trace(phi) - tr_g - 2.0
    return -(rp.b * tc.g_delta(1.0 - eta / rp.b, rp)[0] + tr_g + 2.0)


def relaxation_oracle(phi, eta, rp):
    """tr(A A beta) from the matrices A = relax_reg and beta_delta_mat."""
    a = tc.to_full(tc.relax_reg(phi, eta, rp))
    prod = a @ a @ tc.to_full(tc.beta_delta_mat(phi, rp))
    return prod[..., 0, 0] + prod[..., 1, 1]


def oracle_tensors(rng, b):
    """Random symmetric tensors with indefinite ones, repeated eigenvalues
    and traces beyond b, and trace variables coupled and independent."""
    n = 600
    phi = rng.uniform(-5.0, 5.0, size=(n, 3))
    phi[:100, 1] = 0.0                      # diagonal
    phi[:50, 2] = phi[:50, 0]               # xx = yy, xy = 0: repeated
    phi[100:200] *= 3.0                     # traces well beyond b = 5
    phi[200:250] = rng.uniform(0.01, 0.2) * tc.IDENTITY   # below delta
    eta = tc.trace(phi).copy()
    eta[::2] = rng.uniform(-3.0 * b, 3.0 * b, size=n // 2)
    return phi, eta


@pytest.mark.parametrize("b", [5.0, math.inf], ids=["fene-p", "oldroyd-b"])
def test_eigenvalue_forms_match_the_matrix_compositions(b):
    params = ModelParams(re=1.0, wi=1.0, eps=0.5, b=b, delta=0.1)
    rp = params.reg
    phi, eta = oracle_tensors(np.random.default_rng(4040),
                              5.0 if math.isinf(b) else b)
    eigs, _ = tc.eig_sym(phi)
    assert np.any(eigs[:, 0] < 0.0) and np.any(tc.trace(phi) > 5.0)
    assert np.any(eigs[:, 0] == eigs[:, 1])

    ent = tc.entropy_density(eigs, eta, rp)
    ent_ref = entropy_oracle(phi, eta, rp)
    # relative to the size of the summands, since they cancel at equilibrium
    size = np.abs(tc.g_delta(eigs, rp)[0]).sum(axis=1) + np.abs(phi).sum(axis=1)
    if not rp.oldroyd_b:
        size += rp.b * np.abs(tc.g_delta(1.0 - eta / rp.b, rp)[0])
    assert np.all(np.abs(ent - ent_ref) <= 1e-12 * (2.0 + size))

    relax = relaxation_integrand(params, eigs, eta)
    relax_ref = relaxation_oracle(phi, eta, rp)
    assert np.all(relax >= 0.0)
    assert np.all(np.abs(relax - relax_ref) <= 1e-12 * (1.0 + relax_ref))


# ---------------------------------------------------------------------------
# one spectral decomposition per audited state


@pytest.mark.filterwarnings("ignore::fenep.scheme_p1diff.TimeStepWarning")
@pytest.mark.parametrize("scheme", ["p0", "p1diff"])
def test_each_audited_state_is_decomposed_once(tmp_path, monkeypatch,
                                               scheme):
    """eig_sym calls of a run outside the Picard loop, by phase and by
    the shape of the decomposed field."""
    calls = []
    phase = ["setup"]

    def counted(phi, _fn=tc.eig_sym):
        calls.append((phase[0], np.shape(phi)))
        return _fn(phi)

    def in_phase(name, fn):
        def wrapped(*args, **kwargs):
            outer, phase[0] = phase[0], name
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = outer
        return wrapped

    monkeypatch.setattr(tc, "eig_sym", counted)
    monkeypatch.setattr(nlsolve, "picard_solve",
                        in_phase("picard", nlsolve.picard_solve))
    monkeypatch.setattr(nlsolve.ImplicitScheme, "step",
                        in_phase("step", nlsolve.ImplicitScheme.step))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[model]\nscenario = forced-cavity\n"
        + ("alpha = 0.1\n" if scheme == "p1diff" else "")
        + f"[mesh]\nn = 3\n[time]\ndt = 0.1\ntmax = 0.3\n"
        f"[solver]\nscheme = {scheme}\n[output]\ndir = {tmp_path}\n")
    state, _ = run_simulation(build_setup(parse_config(cfg)))
    stress = state.sigma.shape
    assert len(read_energy_csv(tmp_path / "energy.csv")) == 4
    outside = [c for c in calls if c[0] != "picard"]
    assert outside.count(("setup", stress)) == 1
    assert outside.count(("step", stress)) == 3
    # the only other decomposition is p1diff's range check of the data
    others = [c for c in outside if c[1] != stress]
    assert others == ([] if scheme == "p0" else [("setup", others[0][1])])
    assert any(c[0] == "picard" for c in calls)
