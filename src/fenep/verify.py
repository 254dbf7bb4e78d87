"""Built-in oracle checks behind ``fenep verify``.

A trimmed, dependency-free rerun of the core correctness properties:
closed-form values of the regularized functions, the pointwise
inequality suite on random tensors, the chain rule of the diffusive
scheme's corner coefficients through its advection map, quadrature
exactness, the neutrality of the cellwise scheme's upwind fluxes on the
edge tables it caches, and the model equilibrium.
The full test suite covers the same ground with far larger sweeps; this
exists so an installed package can vouch for itself in seconds.
"""

from __future__ import annotations

import math

import numpy as np

from . import scheme_p1diff
from . import tensorcalc as tc
from .cli import scenario_fields
from .fespaces import triangle_rule
from .meshing import structured_unit_square
from .params import ModelParams
from .scheme_p0 import SchemeP0, upwind_fluxes

__all__ = ["chain_rule_residual", "run_all"]


def _check_frozen_values():
    rp = tc.RegParams(0.5)
    val, der = tc.g_delta(0.25, rp)
    ok = math.isclose(val, -1.193147180559945, rel_tol=0, abs_tol=1e-15)
    ok &= der == 2.0
    ok &= math.isclose(tc.h_delta(4.0, tc.RegParams(0.5)),
                       1.693147180559945, abs_tol=1e-15)
    rp2 = tc.RegParams(0.1, 5.0)
    flux = tc.relax_reg(tc.IDENTITY, 2.0, rp2)
    ok &= np.allclose(flux, (2.0 / 3.0) * tc.IDENTITY, atol=1e-15)
    beta = tc.beta_delta_mat(tc.IDENTITY, rp2)
    ok &= math.isclose(tc.k_delta_of_beta(beta, 8.0, rp2),
                       math.sqrt(2.5), abs_tol=1e-15)
    return ok, "closed-form values of g, h, relaxation, coupling weight"


def _check_lemma_sweep():
    rng = np.random.default_rng(2024)
    worst = np.inf
    for delta, b in ((0.5, 5.0), (0.1, 5.0), (0.25, 50.0)):
        rp = tc.RegParams(delta, b)
        phi = rng.uniform(-5.0, 5.0, size=(2000, 3))
        psi = rng.uniform(-5.0, 5.0, size=(2000, 3))
        eta = rng.uniform(-5.0, 5.0, size=2000)
        margins = tc.lemma_margins_pair(phi, psi, eta, rp)
        worst = min(worst, min(float(np.min(v)) for v in margins.values()))
        s = rng.uniform(-4.0 * b, 4.0 * b, size=2000)
        scal = tc.lemma_margins_scalar(s, rp)
        worst = min(worst, min(float(np.min(v)) for v in scal.values()))
    return worst >= -1e-10, f"worst inequality margin {worst:.2e}"


def chain_rule_residual(cells, amap_t, field, rp):
    """Worst residual of the discrete chain rule, relative to the values.

    ``C`` are the diffusive scheme's corner coefficients of the vertex
    ``field`` on ``cells`` and ``amap_t`` the transposed advection map,
    which takes a vertex field to its change along each reference edge
    of each cell, times the velocity there.  A tensor field
    (n_vertices, 3) gives ``sum_c w_c C[e, c] (A^T g')[e, c] = (A^T tr
    h)[e]`` for every cell and edge e, w = (1, 2, 1) counting the
    off-diagonal component twice; a scalar field q (n_vertices,) gives
    ``C[e] (A^T g')[e] = (A^T h)[e]`` with ``g' = g'(q)``.
    """
    if field.ndim == 2:
        w, frame = tc.eig_sym(field)
        coef = scheme_p1diff.corner_coefficients(
            cells, tc.tensor_nodes(w, frame, rp), rp)
        _, gp = tc.g_delta_mat(field, rp)
        lhs = (coef.reshape(-1, 3) * (amap_t @ gp)) @ np.array([1.0, 2.0, 1.0])
        rhs = amap_t @ tc.h_delta(tc.g_delta(w, rp)[1], rp).sum(axis=-1)
    else:
        _, gp = tc.g_delta(field, rp)
        coef = scheme_p1diff.corner_coefficients(cells, gp, rp)
        lhs = coef.reshape(-1) * (amap_t @ gp)
        rhs = amap_t @ tc.h_delta(gp, rp)
    return float(np.abs(lhs - rhs).max() / np.abs(rhs).max())


def _check_transport_identity():
    """The chain rule of random vertex fields through an advection map."""
    rng = np.random.default_rng(7)
    mesh = structured_unit_square(3)
    rp = tc.RegParams(0.25, 5.0)
    amap_t = scheme_p1diff.advection_map(
        mesh, rng.standard_normal((mesh.n_cells, 2))).T
    worst = max(chain_rule_residual(
        mesh.cells, amap_t, rng.uniform(-2.0, 2.0, size=shape), rp)
        for shape in ((mesh.n_vertices, 3), mesh.n_vertices))
    return worst <= 1e-13, f"worst relative chain-rule residual {worst:.2e}"


def _check_quadrature():
    worst = 0.0
    for degree in (1, 2, 4, 5, 6, 8):
        rule = triangle_rule(degree)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                x = rule.points[:, 1]
                y = rule.points[:, 2]
                got = 0.5 * float(rule.weights @ (x ** a * y ** b))
                want = (math.factorial(a) * math.factorial(b)
                        / math.factorial(a + b + 2))
                worst = max(worst, abs(got - want))
    return worst <= 4e-16, f"worst monomial error {worst:.2e}"


def _check_upwind_neutrality():
    mesh = structured_unit_square(4)
    params = ModelParams(re=1.0, wi=1.0, eps=0.5, b=5.0, delta=0.1)
    scheme = SchemeP0(mesh, params)
    u0, _, _ = scenario_fields("decay", 1.0, params)
    state = scheme.initial_state(u0)
    a_plus, a_minus = upwind_fluxes(mesh, scheme.edge_tables, state.u)
    net = np.zeros(mesh.n_cells)
    e = mesh.interior_edges
    np.add.at(net, mesh.edge_cells[e, 0], -(a_plus - a_minus))
    np.add.at(net, mesh.edge_cells[e, 1], a_plus - a_minus)
    worst = float(np.max(np.abs(net)))
    return worst <= 1e-12, f"worst per-cell net flux {worst:.2e}"


def _check_equilibrium():
    b = 5.0
    rp = tc.RegParams(0.1, b)
    c = b / (b + 2.0)
    sig = c * tc.IDENTITY
    flux = tc.relax_flux_of_beta(tc.beta_delta_mat(sig, rp), 2.0 * c, rp)
    res = float(np.max(np.abs(flux)))
    return res <= 1e-15, f"relaxation residual at equilibrium {res:.2e}"


def run_all():
    """Run every check; returns (name, passed, detail) triples."""
    checks = [
        ("frozen-values", _check_frozen_values),
        ("inequality-sweep", _check_lemma_sweep),
        ("transport-identity", _check_transport_identity),
        ("quadrature", _check_quadrature),
        ("upwind-neutrality", _check_upwind_neutrality),
        ("equilibrium", _check_equilibrium),
    ]
    results = []
    for name, fn in checks:
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(passed), detail))
    return results
