"""Tests for quadrature, element spaces and the assembled operators.

Exactness statements use the closed-form reference
``int_T x^a y^b = a! b! / (a + b + 2)!`` on the unit reference triangle
and L2 projections of polynomials that each space reproduces.
"""

import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spl

import fenep.fespaces as fe
from fenep.meshing import TriMesh, structured_unit_square


def ref_monomial(a, b):
    return (math.factorial(a) * math.factorial(b)
            / math.factorial(a + b + 2))


def project_velocity(mesh, v, f, degree=8):
    m = fe.velocity_mass(mesh, v, degree=degree)
    rhs = fe.velocity_load(mesh, v, f, degree=degree)
    return spl.spsolve(m.tocsc(), rhs)


# ---------------------------------------------------------------------------
# quadrature


@pytest.mark.parametrize("degree", [1, 2, 4, 5, 6, 8])
def test_triangle_rule_monomial_exactness(degree):
    rule = triangle = fe.triangle_rule(degree)
    assert triangle.weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(rule.points >= -1e-12)
    x = rule.points[:, 1]
    y = rule.points[:, 2]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = 0.5 * float(rule.weights @ (x ** a * y ** b))
            assert val == pytest.approx(ref_monomial(a, b), abs=1e-15), \
                f"x^{a} y^{b} at degree {degree}"


def test_triangle_rule_degree_floor():
    # asking for an odd low degree returns a rule of at least that degree
    r3 = fe.triangle_rule(3)
    x, y = r3.points[:, 1], r3.points[:, 2]
    val = 0.5 * float(r3.weights @ (x ** 2 * y))
    assert val == pytest.approx(ref_monomial(2, 1), abs=1e-15)


def test_gauss01_interval():
    pts, wts = fe.gauss01(4)
    assert wts.sum() == pytest.approx(1.0)
    for k in range(8):
        assert float(wts @ pts ** k) == pytest.approx(1.0 / (k + 1))


# ---------------------------------------------------------------------------
# spaces and interpolation


@pytest.mark.parametrize("kind,n_dofs", [
    ("velocity_p2", 50),
    ("velocity_p2_reduced", 34),
    ("velocity_mini", 34),
    ("velocity_p1", 18),
])
def test_velocity_dof_counts(kind, n_dofs):
    v = fe.build_space(structured_unit_square(2), kind)
    assert v.n_dofs == n_dofs


def test_scalar_dof_counts():
    mesh = structured_unit_square(2)
    assert fe.build_space(mesh, "pressure_p0").n_dofs == mesh.n_cells
    assert fe.build_space(mesh, "pressure_p1").n_dofs == mesh.n_vertices
    assert fe.build_space(mesh, "trace_p1").n_dofs == mesh.n_vertices


def test_build_space_rejects_unknown():
    with pytest.raises(ValueError):
        fe.build_space(structured_unit_square(1), "velocity_p9")


def test_discrete_field_validates_length():
    mesh = structured_unit_square(2)
    v = fe.build_space(mesh, "velocity_p2")
    fe.DiscreteField(v, np.zeros(v.n_dofs))
    with pytest.raises(ValueError):
        fe.DiscreteField(v, np.zeros(v.n_dofs + 1))


def test_pi_h_reproduces_linear_and_is_idempotent():
    mesh = structured_unit_square(3)

    def f(x, y):
        return 2.0 * x - 0.5 * y + 1.0

    vals = fe.pi_h(mesh, f)
    assert np.allclose(vals, f(mesh.vertices[:, 0], mesh.vertices[:, 1]))
    assert np.allclose(fe.pi_h(mesh, vals), vals)


@pytest.mark.parametrize("kind", ["velocity_p2", "velocity_mini",
                                  "velocity_p2_reduced"])
def test_velocity_space_reproduces_linear_fields(kind):
    mesh = structured_unit_square(2)
    v = fe.build_space(mesh, kind)

    def f(x, y):
        return (2.0 * x - y + 0.5, x + 3.0 * y - 1.0)

    co = project_velocity(mesh, v, f)
    lam = np.array([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]])
    vals = fe.evaluate_velocity(mesh, v, co, lam)
    pts = np.einsum("qj,kjd->kqd", lam, mesh.vertices[mesh.cells])
    ref = np.stack(f(pts[..., 0], pts[..., 1]), axis=-1)
    assert np.allclose(vals, ref, atol=1e-11)
    g = fe.gradient_matrix(mesh, v, fe.build_space(mesh, "pressure_p0"))
    grad = (g @ co).reshape(-1, 2, 2) / mesh.cell_areas[:, None, None]
    exact = np.array([[2.0, -1.0], [1.0, 3.0]])
    assert np.allclose(grad, exact, atol=1e-11)
    assert np.allclose(v.vertex_values(co),
                       np.stack(f(mesh.vertices[:, 0], mesh.vertices[:, 1]),
                                axis=-1), atol=1e-11)


def test_p2_space_reproduces_quadratics():
    mesh = structured_unit_square(2)
    v = fe.build_space(mesh, "velocity_p2")

    def f(x, y):
        return (x * x - 2.0 * x * y, y * y + x)

    co = project_velocity(mesh, v, f)
    lam = np.array([[0.25, 0.25, 0.5]])
    pts = np.einsum("qj,kjd->kqd", lam, mesh.vertices[mesh.cells])
    vals = fe.evaluate_velocity(mesh, v, co, lam)
    ref = np.stack(f(pts[..., 0], pts[..., 1]), axis=-1)
    assert np.allclose(vals, ref, atol=1e-11)


def test_dirichlet_mask_marks_boundary_rows():
    mesh = structured_unit_square(3)
    for kind in ("velocity_p2", "velocity_mini", "velocity_p2_reduced"):
        v = fe.build_space(mesh, kind)
        co = np.zeros(v.n_dofs)
        co[v.dirichlet_mask] = 1.0
        vv = v.vertex_values(co)
        assert np.allclose(vv[~mesh.is_boundary_vertex], 0.0)
        assert np.all(np.abs(vv[mesh.is_boundary_vertex]).max(axis=1) > 0)


# ---------------------------------------------------------------------------
# assembled operators


def test_mass_matrix_integrates_constants():
    mesh = structured_unit_square(2)
    for kind in ("velocity_p2", "velocity_mini", "velocity_p2_reduced"):
        v = fe.build_space(mesh, kind)
        co = project_velocity(mesh, v, lambda x, y: (1.0 + 0 * x, 0 * x))
        m = fe.velocity_mass(mesh, v)
        assert co @ (m @ co) == pytest.approx(1.0, abs=1e-12)


def test_stiffness_energy_of_linear_field():
    mesh = structured_unit_square(3)
    v = fe.build_space(mesh, "velocity_p2")
    co = project_velocity(mesh, v, lambda x, y: (y, -x))
    k = fe.velocity_stiffness(mesh, v)
    # grad u has Frobenius norm squared 2 everywhere
    assert co @ (k @ co) == pytest.approx(2.0, abs=1e-11)
    ones = project_velocity(mesh, v, lambda x, y: (1.0 + 0 * x, 2.0 + 0 * x))
    assert ones @ (k @ ones) == pytest.approx(0.0, abs=1e-11)


@pytest.mark.parametrize("kind", ["velocity_p2", "velocity_mini",
                                  "velocity_p2_reduced"])
def test_convection_is_antisymmetric(kind):
    mesh = structured_unit_square(2)
    v = fe.build_space(mesh, kind)
    rng = np.random.default_rng(31)
    w = rng.standard_normal(v.n_dofs)
    every_dof = fe.velocity_pattern(v, np.arange(v.n_dofs))
    c = fe.convection_matrix(mesh, v, w, every_dof)
    asym = abs(c + c.T)
    assert asym.max() < 1e-13


def coo_convection(mesh, v, w):
    """Full convection matrix assembled through COO (the oracle)."""
    rule = fe.triangle_rule(3 * v.degree - 1)
    sval = v.scalar_val(rule.points).T
    gx = np.einsum("qlj,kjd->klqd", v.scalar_dbary(rule.points),
                   mesh.bary_grads)
    wq = fe.evaluate_velocity(mesh, v, w, rule.points)
    adv = np.einsum("kqd,klqd->klq", wq, gx)
    dd = np.einsum("kid,kjd->kij", v.cell_dirs, v.cell_dirs)
    t = np.einsum("kjq,iq,q->kij", adv, sval, rule.weights)
    t = t * dd * mesh.cell_areas[:, None, None]
    cellvals = 0.5 * (t - np.swapaxes(t, 1, 2))
    rows = np.repeat(v.cell_dofs, v.nloc, axis=1).ravel()
    cols = np.tile(v.cell_dofs, (1, v.nloc)).ravel()
    return sp.coo_matrix((cellvals.ravel(), (rows, cols)),
                         shape=(v.n_dofs, v.n_dofs)).tocsr()


@pytest.mark.parametrize("chunk", [7, fe._CHUNK])
@pytest.mark.parametrize("kind", ["velocity_p2", "velocity_p2_reduced",
                                  "velocity_mini"])
def test_fixed_pattern_convection_matches_coo_assembly(kind, chunk,
                                                       monkeypatch):
    monkeypatch.setattr(fe, "_CHUNK", chunk)   # 7: several uneven blocks
    square = structured_unit_square(6)
    verts = square.vertices.copy()
    verts[:, 1] += 0.7 * verts[:, 0]
    mesh = TriMesh(verts, square.cells)
    v = fe.build_space(mesh, kind)
    free = np.nonzero(~v.dirichlet_mask)[0]
    pattern = fe.velocity_pattern(v, free)
    rng = np.random.default_rng(8)
    re = 3.7
    for _ in range(2):                   # the same pattern serves each w
        w = rng.standard_normal(v.n_dofs)
        c_ff = fe.convection_matrix(mesh, v, w, pattern)
        c_ff.data *= re
        ref = (re * coo_convection(mesh, v, w))[free][:, free]
        assert abs(c_ff - ref).max() <= 1e-14 * abs(ref).max()
        assert (c_ff + c_ff.T).count_nonzero() == 0
        assert np.shares_memory(c_ff.indices, pattern.indices)


def test_divergence_matrix_values():
    mesh = structured_unit_square(2)
    v = fe.build_space(mesh, "velocity_p2")
    p0 = fe.build_space(mesh, "pressure_p0")
    b = fe.divergence_matrix(mesh, v, p0)
    assert b.shape == (p0.n_dofs, v.n_dofs)
    # div(x, y) = 2: each row integrates to 2 |K|
    co = project_velocity(mesh, v, lambda x, y: (x, y))
    assert np.allclose(b @ co, 2.0 * mesh.cell_areas, atol=1e-12)
    # solenoidal field has zero discrete divergence against P0
    sol = project_velocity(mesh, v, lambda x, y: (y, -x))
    assert np.allclose(b @ sol, 0.0, atol=1e-12)
    p1 = fe.build_space(mesh, "pressure_p1")
    b1 = fe.divergence_matrix(mesh, v, p1)
    assert b1.shape == (p1.n_dofs, v.n_dofs)
    # against P1 hats the constant divergence integrates the hat masses
    assert np.allclose(b1 @ co, 2.0 * fe.lumped_weights(mesh), atol=1e-12)


def test_velocity_load_matches_quadrature():
    mesh = structured_unit_square(2)
    v = fe.build_space(mesh, "velocity_p2")

    def f(x, y):
        return (x * y, x - y)

    load = fe.velocity_load(mesh, v, f)
    co = project_velocity(mesh, v, lambda x, y: (x + y, 1.0 + 0 * x))
    # <f, u> for u in the space equals the exact integral
    exact = 0.0
    rule = fe.triangle_rule(6)
    pts = np.einsum("qj,kjd->kqd", rule.points, mesh.vertices[mesh.cells])
    fx, fy = f(pts[..., 0], pts[..., 1])
    ux = pts[..., 0] + pts[..., 1]
    uy = np.ones_like(ux)
    cellwise = (rule.weights[None, :] * (fx * ux + fy * uy)).sum(axis=1)
    exact = float(mesh.cell_areas @ cellwise)
    assert co @ load == pytest.approx(exact, abs=1e-12)


GRADIENT_PAIRS = [(v, s) for v in ("velocity_p2", "velocity_p2_reduced",
                                     "velocity_mini")
                  for s in ("pressure_p0", "pressure_p1")]


@pytest.mark.parametrize("v_kind,s_kind", GRADIENT_PAIRS)
def test_gradient_matrix_linear_field(v_kind, s_kind):
    # u = A x + c: the tested gradient is A times the test function's mass
    mesh = structured_unit_square(3)
    v = fe.build_space(mesh, v_kind)
    s = fe.build_space(mesh, s_kind)
    g = fe.gradient_matrix(mesh, v, s)
    assert g.shape == (4 * s.n_dofs, v.n_dofs)
    co = project_velocity(mesh, v, lambda x, y: (x - 2 * y + 0.5,
                                                 3 * x + y - 1.0))
    a_mat = np.array([[1.0, -2.0], [3.0, 1.0]])
    moments = (mesh.cell_areas if s.degree == 0
               else fe.lumped_weights(mesh))
    assert np.allclose((g @ co).reshape(-1, 2, 2),
                       moments[:, None, None] * a_mat, atol=1e-12)


def test_gradient_matrix_quadratic_field_cell_integrals():
    mesh = structured_unit_square(3)
    v = fe.build_space(mesh, "velocity_p2")
    g = fe.gradient_matrix(mesh, v, fe.build_space(mesh, "pressure_p0"))
    co = project_velocity(mesh, v, lambda x, y: (x * x, x * y))
    # grad (x^2, xy) = [[2x, 0], [y, x]] is linear: exact at the centroid
    cx, cy = mesh.vertices[mesh.cells].mean(axis=1).T
    exact = np.zeros((mesh.n_cells, 2, 2))
    exact[:, 0, 0] = 2.0 * cx
    exact[:, 1, 0] = cy
    exact[:, 1, 1] = cx
    exact *= mesh.cell_areas[:, None, None]
    assert np.allclose((g @ co).reshape(-1, 2, 2), exact, atol=1e-12)


@pytest.mark.parametrize("v_kind,s_kind", GRADIENT_PAIRS)
def test_gradient_matrix_constant_tensor_coupling_vanishes(v_kind, s_kind):
    # integral( W : grad(phi) ) = boundary flux of W phi, zero when phi = 0
    # there; the test functions sum to one, so W_n = W is the constant W
    mesh = structured_unit_square(3)
    v = fe.build_space(mesh, v_kind)
    s = fe.build_space(mesh, s_kind)
    g = fe.gradient_matrix(mesh, v, s)
    w_full = np.array([[1.5, -0.7], [-0.7, 2.0]])
    load = g.T @ np.tile(w_full, (s.n_dofs, 1, 1)).reshape(-1)
    assert np.abs(load[~v.dirichlet_mask]).max() < 1e-13
    assert np.abs(load).max() > 1e-3


@pytest.mark.parametrize("v_kind,s_kind", GRADIENT_PAIRS)
def test_divergence_matrix_is_gradient_trace(v_kind, s_kind):
    mesh = structured_unit_square(3)
    v = fe.build_space(mesh, v_kind)
    s = fe.build_space(mesh, s_kind)
    g = fe.gradient_matrix(mesh, v, s)
    b = fe.divergence_matrix(mesh, v, s)
    assert abs(b - (g[0::4] + g[3::4])).max() == 0.0
    # neither stores explicit zeros
    assert np.all(g.data != 0.0) and np.all(b.data != 0.0)


def test_gradient_reductions():
    mesh = structured_unit_square(3)
    v = fe.build_space(mesh, "velocity_p2")
    co = project_velocity(mesh, v, lambda x, y: (2 * x - y, x + 3 * y))
    exact = np.array([[2.0, -1.0], [1.0, 3.0]])
    g0 = fe.gradient_matrix(mesh, v, fe.build_space(mesh, "pressure_p0"))
    g = (g0 @ co).reshape(-1, 2, 2)
    assert np.allclose(g, mesh.cell_areas[:, None, None] * exact, atol=1e-12)
    g1 = fe.gradient_matrix(mesh, v, fe.build_space(mesh, "pressure_p1"))
    gp = (g1 @ co).reshape(-1, 2, 2)
    # hat-weighted gradients sum to the domain integral
    assert np.allclose(gp.sum(axis=0), exact, atol=1e-12)
    w = fe.lumped_weights(mesh)
    assert np.allclose(gp / w[:, None, None], exact, atol=1e-11)
    um = fe.cell_mean_velocity(mesh, v, co)
    cent = mesh.vertices[mesh.cells].mean(axis=1)
    ref = np.stack([2 * cent[:, 0] - cent[:, 1],
                    cent[:, 0] + 3 * cent[:, 1]], axis=-1)
    # integral convention, same as the gradient reductions
    assert np.allclose(um, mesh.cell_areas[:, None] * ref, atol=1e-12)


def test_lumped_weights_and_integration():
    mesh = structured_unit_square(3)
    w = fe.lumped_weights(mesh)
    assert w.sum() == pytest.approx(1.0)
    assert np.all(w > 0)
    # vertex quadrature integrates linear interpolants exactly
    vals = fe.pi_h(mesh, lambda x, y: x + 2.0)
    assert w @ vals == pytest.approx(2.5)


def test_scalar_operators():
    mesh = structured_unit_square(3)
    s = fe.build_space(mesh, "pressure_p1")
    m = fe.scalar_mass(mesh, s)
    ones = np.ones(mesh.n_vertices)
    assert ones @ (m @ ones) == pytest.approx(1.0)
    k = fe.scalar_stiffness(mesh)
    assert np.allclose(k @ ones, 0.0, atol=1e-14)
    lin = fe.pi_h(mesh, lambda x, y: 3.0 * x - y)
    assert lin @ (k @ lin) == pytest.approx(10.0, abs=1e-12)
    p0 = fe.build_space(mesh, "pressure_p0")
    m0 = fe.scalar_mass(mesh, p0)
    assert np.allclose(m0.diagonal(), mesh.cell_areas)


def test_pressure_integral_vector():
    mesh = structured_unit_square(3)
    p0 = fe.build_space(mesh, "pressure_p0")
    p1 = fe.build_space(mesh, "pressure_p1")
    assert np.allclose(fe.pressure_integral_vector(mesh, p0),
                       mesh.cell_areas)
    assert np.allclose(fe.pressure_integral_vector(mesh, p1),
                       fe.lumped_weights(mesh))


# ---------------------------------------------------------------------------
# stability diagnostics


def lumped_norm_equivalence_constant(mesh):
    """Largest ratio of the lumped to the consistent P1 L2 norm squared.

    The largest generalized eigenvalue of the lumped against the
    consistent mass matrix (4 in exact arithmetic on any triangulation,
    attained on mean-zero local modes).  Dense.
    """
    mc = fe.scalar_mass(mesh, fe.build_space(mesh, "pressure_p1")).toarray()
    ml = np.diag(fe.lumped_weights(mesh))
    return float(sla.eigh(ml, mc, eigvals_only=True)[-1])


def test_lumped_norm_equivalence_constant_is_four():
    mesh = structured_unit_square(3)
    c = lumped_norm_equivalence_constant(mesh)
    assert c == pytest.approx(4.0, abs=1e-10)
    assert c <= 4.0 + 1e-10


def test_inf_sup_p2_p0():
    mu = fe.inf_sup_estimate(structured_unit_square(4), "velocity_p2",
                             "pressure_p0")
    assert mu > 0.1


def test_inf_sup_rejects_large_problems():
    with pytest.raises(fe.SupportError):
        fe.inf_sup_estimate(structured_unit_square(40), "velocity_p2",
                            "pressure_p0")
