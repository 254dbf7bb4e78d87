"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Each criterion pins its tolerances here; the tests call independent
oracles (bisection, dense eigensolves, scipy root finding, closed-form
integrals) rather than trusting package output against itself.
"""

import math
import time

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp

import fe_oracles as oracle
import fenep.fespaces as fe
import fenep.tensorcalc as tc
from continuation import delta_continuation
from fenep.energy import StepAudit, free_energy
from fenep.meshing import TriMesh, structured_unit_square
from fenep.nlsolve import PicardConfig
from fenep.params import ModelParams
from fenep.scheme_p0 import SchemeP0
from fenep.scheme_p1diff import SchemeP1Diff, TimeStepWarning, advection_map
from fenep.verify import chain_rule_residual

BASE = dict(re=1.0, wi=1.0, eps=0.5, b=5.0)
CFG = PicardConfig(tol=1e-10, max_iters=300)
TIGHT = PicardConfig(tol=1e-13, max_iters=300)


def report(num, passed, detail):
    line = f"criterion {num:02d}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def smooth_near_equilibrium(params):
    """Small solenoidal velocity and a positive perturbed stress field."""
    c = 1.0 if params.oldroyd_b else params.b / (params.b + 2.0)

    def u0(x, y):
        gx = x * x * (1.0 - x) ** 2
        gy = y * y * (1.0 - y) ** 2
        dgx = 2.0 * x * (1.0 - x) * (1.0 - 2.0 * x)
        dgy = 2.0 * y * (1.0 - y) * (1.0 - 2.0 * y)
        return 0.3 * gx * dgy, -0.3 * dgx * gy

    def sigma0(x, y):
        a = 0.05 * np.sin(np.pi * x) * np.sin(np.pi * y)
        return c + a, 0.5 * a, c - a

    return u0, sigma0


def ode_oracle_step(s_prev, dt, params):
    """Independent 3-unknown implicit step of the homogeneous relaxation."""
    rp = params.reg

    def resid(s):
        if params.oldroyd_b:
            coef = 1.0
        else:
            _, coef = tc.g_delta(1.0 - (s[0] + s[2]) / params.b, rp)
        return s - s_prev + (dt / params.wi) * (
            coef * tc.beta_delta_mat(s, rp) - tc.IDENTITY)

    sol = scipy.optimize.root(resid, s_prev, tol=1e-14)
    residual = float(np.abs(resid(sol.x)).max())
    assert residual < 1e-12, "oracle root solve did not converge"
    return sol.x


def relaxation_to_equilibrium(params, tol_traj=1e-10, tol_eq=1e-6):
    """Drive the homogeneous relaxation and compare against the oracle."""
    target = 1.0 if params.oldroyd_b else params.b / (params.b + 2.0)
    mesh = structured_unit_square(2)
    scheme = SchemeP0(mesh, params)
    s0 = np.array([2.0, 0.3, 1.5])
    state = scheme.initial_state(None, s0)
    s_ref = s0.copy()
    worst_traj = 0.0
    for step in range(1, 201):
        state, rep, aud = scheme.step(state, 0.25, TIGHT)
        assert rep.converged and aud.passed
        s_ref = ode_oracle_step(s_ref, 0.25, params)
        worst_traj = max(worst_traj,
                         float(np.abs(state.sigma - s_ref).max()))
        dev = float(np.abs(state.sigma - target * tc.IDENTITY).max())
        if dev < tol_eq:
            return step, dev, worst_traj
    raise AssertionError("equilibrium not reached in 200 steps")


# ---------------------------------------------------------------------------


def test_criterion_01_inequality_oracles():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = math.inf
    combos = 0
    for delta in (0.5, 0.25, 0.1, 0.01):
        for b in (1.0, 5.0, 50.0):
            rp = tc.RegParams(delta, b)
            phi = rng.uniform(-5.0, 5.0, size=(100_000, 3))
            psi = rng.uniform(-5.0, 5.0, size=(100_000, 3))
            eta = rng.uniform(-5.0, 5.0, size=100_000)
            margins = tc.lemma_margins_pair(phi, psi, eta, rp)
            margins.update(tc.lemma_margins_scalar(eta, rp))
            worst = min(worst,
                        min(float(v.min()) for v in margins.values()))
            combos += 1
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-10 and elapsed < 60.0
    report(1, ok, f"{combos} (delta,b) combos x 1e5 samples, worst margin "
                  f"{worst:.2e}, {elapsed:.1f}s")


def disjoint_copies(mesh, count):
    """The cells of ``count`` disjoint copies of ``mesh``; vertex block c
    belongs to copy c, so one field over the union is ``count`` fields."""
    offsets = mesh.n_vertices * np.arange(count)
    return (mesh.cells[None] + offsets[:, None, None]).reshape(-1, 3)


def test_criterion_02_transport_identities():
    rng = np.random.default_rng(202)
    rp = tc.RegParams(0.1, 5.0)
    worst = 0.0
    fields = 0
    for n, count in ((2, 4000), (4, 3000), (8, 3000)):
        # the corner coefficients are cellwise, so the fields of one n are
        # evaluated together, one per copy of the mesh; each copy is
        # advected by the same random cell velocity
        base = structured_unit_square(n)
        amap_t = advection_map(base, rng.standard_normal((base.n_cells, 2))).T
        union_t = sp.kron(sp.identity(count), amap_t, format="csr")
        field = rng.uniform(-3.0, 3.0, size=(count * base.n_vertices, 3))
        worst = max(worst, chain_rule_residual(
            disjoint_copies(base, count), union_t, field, rp))
        fields += count
        # the scalar identity, same construction one rank down
        union_t = sp.kron(sp.identity(500), amap_t, format="csr")
        q = rng.uniform(-3.0, 3.0, size=500 * base.n_vertices)
        worst = max(worst, chain_rule_residual(
            disjoint_copies(base, 500), union_t, q, rp))

    # the tensor coefficient is a convex combination of the endpoint betas
    phi_a = rng.uniform(-3.0, 3.0, size=(10_000, 3))
    phi_c = rng.uniform(-3.0, 3.0, size=(10_000, 3))
    lam = oracle.pair_coefficients(phi_a, phi_c, rp)
    beta_a = tc.beta_delta_mat(phi_a, rp)
    beta_c = tc.beta_delta_mat(phi_c, rp)
    seg = beta_c - beta_a
    den = tc.ddot(seg, seg)
    num = tc.ddot(lam - beta_a, seg)
    live = den > 1e-20
    t = num[live] / den[live]
    weight_ok = bool((t > -1e-10).all() and (t < 1.0 + 1e-10).all())
    off_segment = ((lam - beta_a)[live]
                   - np.clip(t, 0.0, 1.0)[:, None] * seg[live])
    collinear_ok = bool(
        (tc.frob_norm(off_segment) <= 1e-10 * (1.0 + tc.frob_norm(seg[live]))).all())
    scalar_lam = oracle.pair_coefficients(phi_a[:, 0], phi_c[:, 0], rp)
    lo = np.minimum(np.maximum(phi_a[:, 0], rp.delta),
                    np.maximum(phi_c[:, 0], rp.delta))
    hi = np.maximum(np.maximum(phi_a[:, 0], rp.delta),
                    np.maximum(phi_c[:, 0], rp.delta))
    scalar_ok = bool(((scalar_lam >= lo - 1e-12)
                      & (scalar_lam <= hi + 1e-12)).all())

    ok = worst <= 1e-13 and weight_ok and collinear_ok and scalar_ok
    report(2, ok, f"{fields} tensor fields on n in {{2,4,8}}, worst relative "
                  f"chain-rule residual {worst:.2e}, weights in [0,1]: "
                  f"{weight_ok and collinear_ok}")


@pytest.mark.filterwarnings("ignore::fenep.scheme_p1diff.TimeStepWarning")
def test_criterion_03_unconditional_stability():
    t0 = time.perf_counter()
    steps_checked = 0
    worst_margin = math.inf
    for delta in (0.25, 0.1):
        params = ModelParams(delta=delta, **BASE)
        params_d = ModelParams(delta=delta, alpha=0.1, **BASE)
        u0, sigma0 = smooth_near_equilibrium(params)
        for dt in (0.01, 0.1, 1.0, 10.0):
            mesh = structured_unit_square(8)
            p0 = SchemeP0(mesh, params)
            state = p0.initial_state(u0, sigma0)
            for _ in range(3):
                state, rep, aud = p0.step(state, dt, CFG)
                assert rep.converged, f"p0 dt={dt} delta={delta}"
                assert aud.passed, f"p0 audit dt={dt} delta={delta}: {aud}"
                worst_margin = min(worst_margin, aud.margin)
                steps_checked += 1
            p1 = SchemeP1Diff(mesh, params_d)
            state = p1.initial_state(u0, sigma0, min(dt, 0.1))
            for _ in range(3):
                state, rep, aud = p1.step(state, dt, CFG)
                assert rep.converged, f"p1diff dt={dt} delta={delta}"
                assert aud.passed, f"p1diff audit dt={dt} delta={delta}: {aud}"
                worst_margin = min(worst_margin, aud.margin)
                steps_checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 300.0
    report(3, ok, f"{steps_checked} steps over dt in {{0.01,0.1,1,10}} x "
                  f"delta in {{0.25,0.1}} x both schemes, worst energy "
                  f"margin {worst_margin:.2e}, {elapsed:.1f}s")


@pytest.mark.filterwarnings("ignore::fenep.scheme_p1diff.TimeStepWarning")
def test_criterion_04_trace_conservation():
    def forcing(x, y):
        return (np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
                -np.pi * np.cos(np.pi * x) * np.sin(np.pi * y))

    params = ModelParams(delta=0.1, alpha=0.1, **BASE)
    mesh = structured_unit_square(8)
    scheme = SchemeP1Diff(mesh, params, forcing=forcing)
    c = params.b / (params.b + 2.0)
    state = scheme.initial_state(None, np.array([c, 0.0, c]), 0.02)
    w = fe.lumped_weights(mesh)
    worst = 0.0
    for _ in range(100):
        state, rep, aud = scheme.step(state, 0.02, CFG)
        assert rep.converged and aud.passed
        worst = max(worst,
                    abs(float(w @ (tc.trace(state.sigma) - state.rho))))
    moving = float(np.abs(state.u).max())
    ok = worst < 1e-9 and moving > 1e-3
    report(4, ok, f"100 forced steps on n=8, worst |integral(tr sigma - "
                  f"rho)| = {worst:.2e}")


def test_criterion_05_equilibrium_against_ode_oracle():
    params = ModelParams(delta=0.1, **BASE)
    steps, dev, traj = relaxation_to_equilibrium(params)
    ok = dev < 1e-6 and traj < 1e-10
    report(5, ok, f"reached |sigma - (b/(b+2))I| = {dev:.2e} at step "
                  f"{steps}; worst per-step gap to the implicit ODE "
                  f"oracle {traj:.2e}")


def test_criterion_06_delta_continuation():
    params = ModelParams(delta=0.25, **BASE)
    mesh = structured_unit_square(4)
    scheme = SchemeP0(mesh, params)
    sigma0 = np.array([0.05, 0.0, 4.3])       # positive, trace <= 0.9 b
    w0, _ = tc.eig_sym(sigma0)
    assert w0.min() > 0 and sigma0[0] + sigma0[2] <= 0.9 * params.b
    state = scheme.initial_state(None, sigma0)
    rep = delta_continuation(mesh, params, state, 0.1,
                             delta_start=0.25, delta_min=1.0 / 256.0,
                             stag_tol=1e-8, config=TIGHT)
    halving = all(b == pytest.approx(0.5 * a)
                  for a, b in zip(rep.deltas, rep.deltas[1:]))
    audit = rep.state.audit
    ok = (rep.stagnated and halving and rep.diffs[-1] < 1e-8
          and audit.min_eig_sigma > 0 and audit.max_trace_sigma < params.b)
    report(6, ok, f"deltas {rep.deltas}, final diff {rep.diffs[-1]:.2e}, "
                  f"min eig {audit.min_eig_sigma:.4f} > 0, max trace "
                  f"{audit.max_trace_sigma:.4f} < b")


def run_decay(scheme, state, dt, n_steps):
    """Step a scheme and accumulate the telescoped budget pieces."""
    params = scheme.params

    def total(st):
        eta = tc.trace(st.sigma) if st.rho is None else st.rho
        return free_energy(params, scheme.weights, scheme.mass, st.u,
                           tc.eig_sym(st.sigma)[0], eta).total

    f0 = total(state)
    spent = 0.0
    forcing_sum = 0.0
    slack_sum = 0.0
    for _ in range(n_steps):
        state, rep, aud = scheme.step(state, dt, CFG)
        assert rep.converged and aud.passed
        spent += (aud.kinetic_jump + aud.viscous + aud.relaxation
                  + aud.diffusion_sigma + aud.diffusion_rho)
        forcing_sum += aud.forcing
        slack_sum += aud.slack
    return f0, total(state), spent, forcing_sum, slack_sum


@pytest.mark.filterwarnings("ignore::fenep.scheme_p1diff.TimeStepWarning")
def test_criterion_07_telescoped_bound_and_alpha_independence():
    u0, sigma0 = smooth_near_equilibrium(ModelParams(delta=0.1, **BASE))
    mesh = structured_unit_square(4)

    params = ModelParams(delta=0.1, **BASE)
    p0 = SchemeP0(mesh, params)
    f0, fend, spent, forc, slack = run_decay(
        p0, p0.initial_state(u0, sigma0), 0.1, 10)
    bound_p0 = fend + spent <= f0 + forc + slack

    starts = []
    bounds = []
    for alpha in (0.01, 0.1, 1.0):
        prm = ModelParams(delta=0.1, alpha=alpha, **BASE)
        scheme = SchemeP1Diff(mesh, prm)
        state = scheme.initial_state(u0, sigma0, 0.1)
        f0, fend, spent, forc, slack = run_decay(
            scheme, state, 0.1, 10)
        starts.append(f0)
        bounds.append(fend + spent <= f0 + forc + slack)
    # the budget's right-hand side carries no alpha term: identical
    # initial data gives the identical bound across alpha values
    alpha_free = max(starts) - min(starts) <= 1e-13 * (1.0 + abs(starts[0]))
    ok = bound_p0 and all(bounds) and alpha_free
    report(7, ok, f"telescoped budget holds over 10-step decay runs "
                  f"(p0 and p1diff at alpha in {{0.01,0.1,1}}); F(0) "
                  f"spread across alpha {max(starts) - min(starts):.2e}")


def test_criterion_08_infinite_extensibility_collapse():
    params = ModelParams(re=1.0, wi=1.0, eps=0.5, b=math.inf, delta=0.1)
    rp = params.reg

    # the entropy reduces to tr(sigma - G_delta(sigma) - I)
    rng = np.random.default_rng(808)
    mesh = structured_unit_square(3)
    scheme = SchemeP0(mesh, params)
    sigma = rng.uniform(0.3, 3.0, size=(mesh.n_cells, 3))
    sigma[:, 1] = 0.2 * rng.standard_normal(mesh.n_cells)
    bd = free_energy(params, scheme.weights, scheme.mass,
                     np.zeros(scheme.v.n_dofs), tc.eig_sym(sigma)[0],
                     tc.trace(sigma))
    g, _ = tc.g_delta_mat(sigma, rp)
    direct = (params.eps / (2.0 * params.wi)) * float(
        mesh.cell_areas @ (tc.trace(sigma) - tc.trace(g) - 2.0))
    entropy_matches = abs(bd.entropy - direct) < 1e-12

    # stability sweep as in criterion 3, now without a trace bound
    u0, sigma0 = smooth_near_equilibrium(params)
    worst_margin = math.inf
    for delta in (0.25, 0.1):
        prm = ModelParams(re=1.0, wi=1.0, eps=0.5, b=math.inf, delta=delta)
        for dt in (0.01, 0.1, 1.0, 10.0):
            sch = SchemeP0(structured_unit_square(8), prm)
            state = sch.initial_state(u0, sigma0)
            for _ in range(3):
                state, rep, aud = sch.step(state, dt, CFG)
                assert rep.converged and aud.passed, f"dt={dt} delta={delta}"
                worst_margin = min(worst_margin, aud.margin)

    # homogeneous relaxation equilibrates at the identity
    steps, dev, traj = relaxation_to_equilibrium(params)
    ok = entropy_matches and dev < 1e-6 and traj < 1e-10
    report(8, ok, f"entropy formula gap {abs(bd.entropy - direct):.1e}; "
                  f"stability margin {worst_margin:.2e}; |sigma - I| = "
                  f"{dev:.2e} at step {steps}, oracle gap {traj:.2e}")


def test_criterion_09_interpolation_and_inf_sup():
    rule = fe.triangle_rule(6)
    bc, wq = rule.points, rule.weights
    ns = [4, 8, 16, 32]

    def f1(x, y):
        return np.sin(np.pi * x + 0.3) * np.cos(np.pi * y)

    def f2(x, y):
        return x * x + x * y - 0.5 * y

    product_errs = []
    for n in ns:
        mesh = structured_unit_square(n)
        q1 = f1(mesh.vertices[:, 0], mesh.vertices[:, 1])
        q2 = f2(mesh.vertices[:, 0], mesh.vertices[:, 1])
        v1 = q1[mesh.cells] @ bc.T
        v2 = q2[mesh.cells] @ bc.T
        interp = (q1 * q2)[mesh.cells] @ bc.T
        product_errs.append(
            float(mesh.cell_areas @ (np.abs(v1 * v2 - interp) @ wq)))
    h = np.log([1.0 / n for n in ns])
    product_rate = float(np.polyfit(h, np.log(product_errs), 1)[0])

    rp = tc.RegParams(0.25, 50.0)

    def phi_field(x, y):
        sxx = 0.5 + 0.9 * np.sin(np.pi * x) * np.cos(0.5 * np.pi * y)
        syy = 0.5 - 0.9 * np.cos(np.pi * x) * np.sin(np.pi * y)
        sxy = 0.45 * np.sin(np.pi * (x + y))
        return np.stack([sxx, sxy, syy], axis=-1)

    beta_errs = []
    eig_lo = eig_hi = 0.0
    for n in ns:
        mesh = structured_unit_square(n)
        phi_v = phi_field(mesh.vertices[:, 0], mesh.vertices[:, 1])
        w, _ = tc.eig_sym(phi_v)
        eig_lo, eig_hi = float(w.min()), float(w.max())
        beta_v = tc.beta_delta_mat(phi_v, rp)
        phi_q = np.einsum("kjc,qj->kqc", phi_v[mesh.cells], bc)
        d = (np.einsum("kjc,qj->kqc", beta_v[mesh.cells], bc)
             - tc.beta_delta_mat(phi_q, rp))
        fro2 = d[..., 0] ** 2 + 2.0 * d[..., 1] ** 2 + d[..., 2] ** 2
        beta_errs.append(float(np.sqrt(mesh.cell_areas @ (fro2 @ wq))))
    beta_rate = float(np.polyfit(h, np.log(beta_errs), 1)[0])
    assert eig_lo < rp.delta < eig_hi  # the cut is active in the field

    pairings = [("velocity_p2", "pressure_p0"),
                ("velocity_p2_reduced", "pressure_p0"),
                ("velocity_p2", "pressure_p1"),
                ("velocity_mini", "pressure_p1")]
    stable_ok = True
    stable_vals = []
    for vk, pk in pairings:
        v4 = oracle.inf_sup_estimate(structured_unit_square(4), vk, pk)
        v8 = oracle.inf_sup_estimate(structured_unit_square(8), vk, pk)
        stable_vals.append((vk, pk, v4, v8))
        stable_ok &= v4 > 0.1 and v8 > 0.1 and 0.5 <= v8 / v4 <= 2.0
    bad4 = oracle.inf_sup_estimate(structured_unit_square(4),
                                   "velocity_p1", "pressure_p1")
    bad8 = oracle.inf_sup_estimate(structured_unit_square(8),
                                   "velocity_p1", "pressure_p1")
    control_ok = bad4 < 1e-8 and bad8 < 1e-8

    ok = (product_rate >= 1.9 and beta_rate >= 0.9 and stable_ok
          and control_ok)
    report(9, ok, f"product-interp rate {product_rate:.2f} (>=1.9), cut "
                  f"interp rate {beta_rate:.2f} (>=0.9); stable pairings "
                  f"{[f'{v4:.2f}/{v8:.2f}' for _, _, v4, v8 in stable_vals]}, "
                  f"control {bad4:.1e}/{bad8:.1e}")


@pytest.mark.filterwarnings("ignore::fenep.scheme_p1diff.TimeStepWarning")
def test_criterion_10_negative_controls():
    params = ModelParams(delta=0.1, **BASE)
    u0, sigma0 = smooth_near_equilibrium(params)
    mesh = structured_unit_square(4)
    scheme = SchemeP0(mesh, params)
    state = scheme.initial_state(u0, sigma0)
    state, rep, aud = scheme.step(state, 0.1, CFG)
    assert rep.converged and aud.passed

    corrupted_f = free_energy(params, scheme.weights, scheme.mass,
                              state.u, tc.eig_sym(2.0 * state.sigma)[0],
                              tc.trace(2.0 * state.sigma)).total
    corrupted = StepAudit(
        f_before=aud.f_before, f_after=corrupted_f,
        kinetic_jump=aud.kinetic_jump,
        viscous=aud.viscous, relaxation=aud.relaxation,
        forcing=aud.forcing, slack=aud.slack,
        min_eig_sigma=aud.min_eig_sigma,
        max_trace_sigma=aud.max_trace_sigma)
    corruption_detected = not corrupted.passed

    pts = mesh.vertices.copy()
    pts[:, 1] += 1.2 * pts[:, 0]
    sheared = TriMesh(pts, mesh.cells)
    prm = ModelParams(delta=0.1, alpha=0.1, **BASE)
    diff = SchemeP1Diff(sheared, prm)
    st = diff.initial_state(None, np.array([1.5, 0.0, 1.5]), 0.05)
    st, rep2, aud2 = diff.step(st, 0.1, CFG)
    uncertified = (not diff.mesh.non_obtuse and rep2.converged
                   and not aud2.certified_gradient_terms)

    ok = corruption_detected and uncertified
    report(10, ok, f"doubled-stress audit fails: {corruption_detected}; "
                   f"obtuse-mesh gradient terms uncertified: {uncertified}")
