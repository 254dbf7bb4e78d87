"""Unit tests for the regularized tensor calculus kernels.

Closed-form expectations were evaluated by hand from the defining
formulas before the implementation existed; the random sweeps check
structural identities and inequality margins on seeded samples.
"""

import math

import numpy as np
import pytest

import fenep.tensorcalc as tc
import tensor_oracles as oracle

RP_HALF = tc.RegParams(0.5, 5.0)
RP_TENTH = tc.RegParams(0.1, 5.0)
RP_OB = tc.RegParams(0.1)


def apply_spectral(g, phi):
    """Reference matrix function: ``g`` applied to the eigenvalues of
    ``eig_sym`` and recomposed in its frame."""
    w, frame = tc.eig_sym(phi)
    return tc._recompose(np.asarray(g(w), float), frame)


def pos_part(phi):
    """Spectral positive part ``max(., 0)``, the partner of ``neg_part``."""
    return apply_spectral(lambda w: np.maximum(w, 0.0), phi)


def random_sym(rng, n, scale=5.0):
    return rng.uniform(-scale, scale, size=(n, 3))


# ---------------------------------------------------------------------------
# packed representation


def test_tensor_pack_and_algebra():
    phi = tc.tensor(1.0, 2.0, 3.0)
    assert phi.shape == (3,)
    assert tc.trace(phi) == pytest.approx(4.0)
    assert oracle.det_sym(phi) == pytest.approx(1.0 * 3.0 - 4.0)
    assert tc.frob_norm(phi) == pytest.approx(math.sqrt(1 + 2 * 4 + 9))
    assert tc.ddot(phi, phi) == pytest.approx(tc.frob_norm(phi) ** 2)


def test_full_roundtrip_and_symmetry_check():
    rng = np.random.default_rng(11)
    phi = random_sym(rng, 40)
    full = tc.to_full(phi)
    assert full.shape == (40, 2, 2)
    assert np.allclose(full, np.swapaxes(full, -1, -2))
    back = tc.from_full(full)
    assert np.allclose(back, phi)
    with pytest.raises(ValueError):
        tc.from_full(np.array([[1.0, 0.5], [0.2, 1.0]]))


def test_inverse():
    rng = np.random.default_rng(12)
    phi = random_sym(rng, 60)
    phi = phi[np.abs(oracle.det_sym(phi)) > 1e-3]
    inv = oracle.inv_sym(phi)
    prod = tc.to_full(phi) @ tc.to_full(inv)
    eye = np.broadcast_to(np.eye(2), prod.shape)
    assert np.allclose(prod, eye, atol=1e-10)


# ---------------------------------------------------------------------------
# spectral decomposition


def test_eig_frozen_value():
    w, frame = tc.eig_sym(tc.tensor(0.0, 1.0, 0.0))
    assert np.allclose(w, [-1.0, 1.0])
    assert np.allclose(frame, [0.0, 1.0, 0.0])
    w, frame = tc.eig_sym(tc.tensor(3.0, 0.0, 1.0))
    assert np.array_equal(w, [1.0, 3.0])
    assert np.array_equal(frame, [1.0, 0.0, -1.0])


def test_eig_reconstructs_and_orders():
    rng = np.random.default_rng(13)
    phi = random_sym(rng, 200)
    w, frame = tc.eig_sym(phi)
    assert np.all(w[:, 0] <= w[:, 1] + 1e-14)
    assert np.allclose(tc._recompose(w, frame), phi, atol=1e-12)
    # (I -+ frame)/2 are complementary eigenprojectors: frame is
    # traceless and squares to the identity
    assert np.allclose(tc.trace(frame), 0.0, atol=1e-15)
    sq = tc.to_full(frame) @ tc.to_full(frame)
    assert np.allclose(sq, np.broadcast_to(np.eye(2), sq.shape), atol=1e-14)


def test_eig_degenerate_gives_zero_frame():
    w, frame = tc.eig_sym(tc.tensor(2.0, 0.0, 2.0))
    assert np.array_equal(w, [2.0, 2.0])
    assert np.array_equal(frame, np.zeros(3))
    out = tc._recompose(np.exp(w), frame)
    assert np.allclose(out, math.exp(2.0) * tc.IDENTITY, rtol=1e-15)


@pytest.mark.parametrize("rel_gap", [1.0, 1e-4, 1e-8, 1e-12, 1e-15, 0.0])
def test_spectral_functions_are_accurate_near_degenerate_spectra(rel_gap):
    """exp, g' and max(., delta) through eig_sym/_recompose agree with
    numpy's eigh recomposition as the two eigenvalues merge."""
    rng = np.random.default_rng(16)
    mean = rng.uniform(-2.0, 4.0, 50)
    angle = rng.uniform(0.0, 2.0 * math.pi, 50)
    r = 0.5 * rel_gap * (1.0 + np.abs(mean))
    # eigenvalues mean -+ r
    phi = tc.tensor(mean + r * np.cos(angle), r * np.sin(angle),
                    mean - r * np.cos(angle))
    funcs = (np.exp, lambda w: tc.g_delta(w, RP_TENTH)[1],
             lambda w: tc.beta_delta(w, RP_TENTH))
    wr, vr = np.linalg.eigh(tc.to_full(phi))
    worst = 0.0
    for f in funcs:
        ref = np.einsum("kij,kj,klj->kil", vr, f(wr), vr)
        err = tc.to_full(apply_spectral(f, phi)) - ref
        worst = max(worst, float(np.max(np.linalg.norm(err, axis=(1, 2))
                                        / np.linalg.norm(ref, axis=(1, 2)))))
    assert worst <= 1e-13


def test_apply_spectral_matches_reference():
    rng = np.random.default_rng(14)
    phi = random_sym(rng, 100)
    out = apply_spectral(np.exp, phi)
    for k in range(phi.shape[0]):
        full = tc.to_full(phi[k])
        w, v = np.linalg.eigh(full)
        ref = v @ np.diag(np.exp(w)) @ v.T
        assert np.allclose(tc.to_full(out[k]), ref, atol=1e-10)


def test_pos_neg_split():
    rng = np.random.default_rng(15)
    phi = random_sym(rng, 150)
    pos = pos_part(phi)
    neg = tc.neg_part(phi)
    assert np.allclose(pos + neg, phi, atol=1e-12)
    wp, _ = tc.eig_sym(pos)
    wn, _ = tc.eig_sym(neg)
    assert np.all(wp >= -1e-12)
    assert np.all(wn <= 1e-12)


# ---------------------------------------------------------------------------
# scalar regularizations


def test_g_delta_frozen_values():
    val, der = tc.g_delta(0.25, RP_HALF)
    assert val == pytest.approx(-1.193147180559945, abs=1e-14)
    assert der == pytest.approx(2.0)
    val, der = tc.g_delta(-3.0, RP_TENTH)
    assert val == pytest.approx(-33.302585092994046, abs=1e-12)
    assert der == pytest.approx(10.0)


def test_g_delta_branches_and_continuity():
    rp = tc.RegParams(0.2, 8.0)
    val, der = tc.g_delta(1.7, rp)
    assert val == pytest.approx(math.log(1.7))
    assert der == pytest.approx(1.0 / 1.7)
    lo_val, lo_der = tc.g_delta(0.2 - 1e-12, rp)
    hi_val, hi_der = tc.g_delta(0.2 + 1e-12, rp)
    assert lo_val == pytest.approx(hi_val, abs=1e-10)
    assert lo_der == pytest.approx(hi_der, abs=1e-10)
    # the linear branch caps the log singularity from above
    s = np.linspace(1e-3, 0.2, 50)
    val, _ = tc.g_delta(s, rp)
    assert np.all(val >= np.log(s) - 1e-14)
    assert np.all(np.isfinite(tc.g_delta(np.array([-50.0, 0.0]), rp)[0]))


def test_beta_h_frozen_values():
    assert tc.beta_delta(0.03, RP_TENTH) == pytest.approx(0.1)
    assert tc.beta_delta(2.5, RP_TENTH) == pytest.approx(2.5)
    assert tc.beta_delta_b(7.4, RP_TENTH) == pytest.approx(5.0)
    assert tc.h_delta(4.0, tc.RegParams(0.5)) == pytest.approx(
        1.693147180559945, abs=1e-14)
    assert tc.h_delta(1.5, tc.RegParams(0.5)) == pytest.approx(math.log(1.5))
    with pytest.raises(ValueError):
        tc.h_delta(0.0, RP_HALF)


def test_h_delta_is_concave_and_dominates():
    # H is log below the 1/delta kink and affine above, kept C1
    rp = tc.RegParams(0.25, 50.0)
    kink = 1.0 / rp.delta
    lo = tc.h_delta(kink - 1e-9, rp)
    hi = tc.h_delta(kink + 1e-9, rp)
    assert lo == pytest.approx(hi, abs=1e-8)
    # affine continuation dominates the log it replaces
    s = np.array([0.5, 1.0, 3.0, 4.0, 8.0, 100.0])
    vals = tc.h_delta(s, rp)
    assert np.all(vals >= np.log(s) - 1e-14)
    assert np.allclose(vals[s <= kink], np.log(s[s <= kink]))


def test_matrix_maps_match_spectral_definition():
    rng = np.random.default_rng(16)
    phi = random_sym(rng, 80)
    g, gp = tc.g_delta_mat(phi, RP_TENTH)
    ref_g = apply_spectral(lambda s: tc.g_delta(s, RP_TENTH)[0], phi)
    ref_gp = apply_spectral(lambda s: tc.g_delta(s, RP_TENTH)[1], phi)
    assert np.allclose(g, ref_g, atol=1e-12)
    assert np.allclose(gp, ref_gp, atol=1e-12)
    beta = tc.beta_delta_mat(phi, RP_TENTH)
    ref_b = apply_spectral(lambda s: tc.beta_delta(s, RP_TENTH), phi)
    assert np.allclose(beta, ref_b, atol=1e-12)


def rotated(w0, w1, angle):
    """The tensor with eigenvalues (w0, w1), its first axis at ``angle``."""
    c, s = math.cos(angle), math.sin(angle)
    return tc.tensor(w0 * c * c + w1 * s * s, (w0 - w1) * c * s,
                     w0 * s * s + w1 * c * c)


def test_beta_jacobian_matches_central_differences():
    rng = np.random.default_rng(21)
    phi = np.concatenate([
        random_sym(rng, 60, scale=1.0),
        [rotated(0.03, 0.8, 0.4),        # one eigenvalue on each side
         rotated(0.05, 0.07, 1.1),       # both below delta
         rotated(0.3, 2.0, -0.7),        # both above
         tc.tensor(0.5, 0.0, 0.5),       # coincident above delta
         tc.tensor(0.04, 0.0, 0.04),     # coincident below delta
         tc.tensor(-1.0, 0.0, -1.0)]])
    # keep every eigenvalue clear of the kink at delta
    w = tc.eig_sym(phi)[0]
    phi = phi[np.all(np.abs(w - RP_TENTH.delta) > 1e-3, axis=1)]
    jac = tc.beta_delta_jacobian(*tc.eig_sym(phi), RP_TENTH)
    h = 1e-6
    for j in range(3):
        step = h * np.eye(3)[j]
        fd = (tc.beta_delta_mat(phi + step, RP_TENTH)
              - tc.beta_delta_mat(phi - step, RP_TENTH)) / (2.0 * h)
        assert np.allclose(jac[..., j], fd, rtol=0.0, atol=1e-8)
    # at a coincident spectrum the derivative is f'(w) times the identity
    assert np.array_equal(jac[-3], np.eye(3))
    assert np.array_equal(jac[-1], np.zeros((3, 3)))


def test_beta_is_gprime_inverse():
    rng = np.random.default_rng(17)
    phi = random_sym(rng, 80)
    _, gp = tc.g_delta_mat(phi, RP_TENTH)
    beta = tc.beta_delta_mat(phi, RP_TENTH)
    prod = tc.to_full(gp) @ tc.to_full(beta)
    eye = np.broadcast_to(np.eye(2), prod.shape)
    assert np.allclose(prod, eye, atol=1e-12)


# ---------------------------------------------------------------------------
# relaxation operators


def test_relax_classic_frozen():
    out = oracle.relax_classic(tc.tensor(1.0, 0.0, 2.0), 5.0)
    assert np.allclose(out, [1.5, 0.0, 2.0])


def test_relax_reg_frozen():
    out = tc.relax_reg(tc.IDENTITY, 2.0, RP_TENTH)
    assert np.allclose(out, (2.0 / 3.0) * tc.IDENTITY, atol=1e-14)
    out = tc.relax_reg(tc.IDENTITY, 5.0, RP_TENTH)
    assert np.allclose(out, 9.0 * tc.IDENTITY, atol=1e-12)


def test_relax_reg_matches_classic_inside_bounds():
    rng = np.random.default_rng(18)
    b = 50.0
    rp = tc.RegParams(0.01, b)
    diag = rng.uniform(0.5, 3.0, size=(40, 2))
    phi = np.stack([diag[:, 0], np.zeros(40), diag[:, 1]], axis=-1)
    eta = tc.trace(phi)
    assert np.allclose(tc.relax_reg(phi, eta, rp), oracle.relax_classic(phi, b),
                       atol=1e-12)


def test_relax_flux_is_commuted_product():
    rng = np.random.default_rng(19)
    phi = random_sym(rng, 120)
    eta = rng.uniform(-6.0, 6.0, size=120)
    beta = tc.beta_delta_mat(phi, RP_TENTH)
    flux = tc.relax_flux_of_beta(beta, eta, RP_TENTH)
    a = tc.relax_reg(phi, eta, RP_TENTH)
    prod = tc.to_full(a) @ tc.to_full(beta)
    assert np.allclose(tc.to_full(flux), prod, atol=1e-10)


def test_relax_flux_vanishes_at_equilibrium():
    for b in (1.0, 5.0, 50.0):
        rp = tc.RegParams(0.1, min(0.1, b) if b < 0.1 else 0.1)
        rp = tc.RegParams(rp.delta, b)
        c = b / (b + 2.0)
        beta = tc.beta_delta_mat(c * tc.IDENTITY, rp)
        flux = tc.relax_flux_of_beta(beta, 2.0 * c, rp)
        assert np.allclose(flux, 0.0, atol=1e-14)
    beta = tc.beta_delta_mat(tc.IDENTITY, RP_OB)
    flux = tc.relax_flux_of_beta(beta, 2.0, RP_OB)
    assert np.allclose(flux, 0.0, atol=1e-15)


def test_k_delta_frozen():
    def k_delta(phi, eta):
        return tc.k_delta_of_beta(tc.beta_delta_mat(phi, RP_TENTH), eta,
                                  RP_TENTH)

    assert k_delta(tc.IDENTITY, 8.0) == pytest.approx(
        1.5811388300841898, abs=1e-14)
    assert k_delta(3.0 * tc.IDENTITY, 0.0) == pytest.approx(
        0.12909944487358055, abs=1e-14)


def test_entropy_density_frozen_and_nonnegative():
    eig_i, _ = tc.eig_sym(tc.IDENTITY)
    assert tc.entropy_density(eig_i, 2.0, RP_TENTH) == pytest.approx(
        0.5541281188299536, abs=1e-13)
    assert tc.entropy_density(eig_i, None, RP_OB) == pytest.approx(0.0)
    # nonnegative on the coupled slice eta = tr(phi), and never below
    # eta - tr(phi) for independent eta
    rng = np.random.default_rng(20)
    phi = random_sym(rng, 500)
    eigs, _ = tc.eig_sym(phi)
    eta = rng.uniform(-6.0, 6.0, size=500)
    vals = tc.entropy_density(eigs, eta, RP_TENTH)
    assert np.all(vals >= eta - tc.trace(phi) - 1e-12)
    coupled = tc.entropy_density(eigs, tc.trace(phi), RP_TENTH)
    assert np.all(coupled >= -1e-12)
    # coupled minimum sits at the equilibrium state with the closed-form
    # offset left by the Oldroyd-B normalization
    b = 5.0
    c = b / (b + 2.0)
    e_eq = -(b + 2.0) * math.log(c) - 2.0
    assert tc.entropy_density(c * eig_i, 2.0 * c, RP_TENTH) == \
        pytest.approx(e_eq, abs=1e-13)
    assert np.all(coupled >= e_eq - 1e-12)


def test_oldroyd_b_mode():
    assert RP_OB.oldroyd_b
    assert not RP_TENTH.oldroyd_b
    rng = np.random.default_rng(21)
    phi = random_sym(rng, 50)
    beta = tc.beta_delta_mat(phi, RP_OB)
    # with b = inf, g'(1 - eta/b) = g'(1) = 1 exactly, whatever eta
    eta = rng.uniform(-50.0, 50.0, size=50)
    flux = tc.relax_flux_of_beta(beta, eta, RP_OB)
    assert np.array_equal(flux, beta - tc.IDENTITY)


def test_regparams_validation():
    with pytest.raises(ValueError):
        tc.RegParams(0.0)
    with pytest.raises(ValueError):
        tc.RegParams(0.6)
    with pytest.raises(ValueError):
        tc.RegParams(0.3, 0.2)


# ---------------------------------------------------------------------------
# inequality margins (small seeded sweeps; the acceptance suite runs the
# full grid)


@pytest.mark.parametrize("delta,b", [(0.5, 5.0), (0.1, 5.0), (0.25, 50.0),
                                     (0.01, 1.0)])
def test_lemma_margins_pair_sweep(delta, b):
    rp = tc.RegParams(delta, b)
    rng = np.random.default_rng(hash((delta, b)) % 2**32)
    n = 2000
    phi = random_sym(rng, n)
    psi = random_sym(rng, n)
    eta = rng.uniform(-5.0, 5.0, size=n)
    margins = tc.lemma_margins_pair(phi, psi, eta, rp)
    for name, vals in margins.items():
        worst = float(np.min(vals))
        assert worst >= -1e-10, f"{name} margin {worst:.3e}"


def test_lemma_margins_scalar_sweep():
    rng = np.random.default_rng(22)
    s = rng.uniform(-5.0, 5.0, size=5000)
    for rp in (RP_HALF, RP_TENTH):
        margins = tc.lemma_margins_scalar(s, rp)
        for name, vals in margins.items():
            worst = float(np.min(vals))
            assert worst >= -1e-10, f"{name} margin {worst:.3e}"
