"""Built-in oracle checks behind ``fenep verify``.

A trimmed, dependency-free rerun of the core correctness properties:
closed-form values of the regularized functions, the pointwise
inequality suite on random tensors, the transport chain-rule identity,
quadrature exactness, upwind flux neutrality and the model equilibrium.
The full test suite covers the same ground with far larger sweeps; this
exists so an installed package can vouch for itself in seconds.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensorcalc as tc
from .fespaces import triangle_rule
from .meshing import structured_unit_square
from .params import ModelParams
from .scheme_p0 import SchemeP0, upwind_fluxes
from .scheme_p1diff import lambda_transport

__all__ = ["run_all"]


def _random_tensors(rng, n, scale=5.0):
    t = rng.uniform(-scale, scale, size=(n, 3))
    return t


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
        phi = _random_tensors(rng, 2000)
        psi = _random_tensors(rng, 2000)
        eta = rng.uniform(-5.0, 5.0, size=2000)
        margins = tc.lemma_margins_pair(phi, psi, eta, rp)
        worst = min(worst, min(float(np.min(v)) for v in margins.values()))
        s = rng.uniform(-4.0 * b, 4.0 * b, size=2000)
        scal = tc.lemma_margins_scalar(s, rp)
        worst = min(worst, min(float(np.min(v)) for v in scal.values()))
    return worst >= -1e-10, f"worst inequality margin {worst:.2e}"


def _check_transport_identity():
    rng = np.random.default_rng(7)
    mesh = structured_unit_square(3)
    rp = tc.RegParams(0.25, 5.0)
    field = rng.uniform(-2.0, 2.0, size=(mesh.n_vertices, 3))
    lam = lambda_transport(mesh, tc.transport_nodes(field, rp), rp)
    _, gp = tc.g_delta_mat(field, rp)
    w, _ = tc.eig_sym(field)
    _, gpw = tc.g_delta(w, rp)
    trh = tc.h_delta(gpw, rp).sum(axis=-1)
    grads, cells = mesh.bary_grads, mesh.cells
    d_gp = np.einsum("kjp,kjc->kpc", grads, gp[cells])
    d_trh = np.einsum("kjm,kj->km", grads, trh[cells])
    # Lambda : d_gp with the off-diagonal component counted twice
    lhs = np.einsum("kmpc,kpc,c->km", lam, d_gp, np.array([1.0, 2.0, 1.0]))
    worst = float(np.abs(lhs - d_trh).max())
    return worst <= 1e-12, f"worst chain-rule residual {worst:.2e}"


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
    return worst <= 1e-15, f"worst monomial error {worst:.2e}"


def _check_upwind_neutrality():
    mesh = structured_unit_square(4)
    params = ModelParams(re=1.0, wi=1.0, eps=0.5, b=5.0, delta=0.1)
    scheme = SchemeP0(mesh, params)

    def u0(x, y):
        gx = x * x * (1.0 - x) ** 2
        gy = y * y * (1.0 - y) ** 2
        dgx = 2.0 * x * (1.0 - x) * (1.0 - 2.0 * x)
        dgy = 2.0 * y * (1.0 - y) * (1.0 - 2.0 * y)
        return gx * dgy, -dgx * gy

    state = scheme.initial_state(u0)
    a_plus, a_minus = upwind_fluxes(mesh, scheme.v, state.u.values)
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
