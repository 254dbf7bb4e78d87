"""Symmetric 2x2 tensor calculus for the FENE-P conformation tensor.

The conformation tensor and every quantity derived from it (relaxation
tensors, regularized logarithms, entropy densities) are symmetric 2x2
matrices.  Throughout this package such a tensor is stored as an array
whose last axis has length 3 and holds the components ``(xx, xy, yy)``;
all functions here broadcast over any leading axes, so a single tensor,
a per-cell field and a 100000-sample Monte Carlo batch all go through
the same code path.

Conventions baked into the component layout::

    trace(phi)  = xx + yy
    ||phi||^2   = xx^2 + 2*xy^2 + yy^2          (Frobenius)
    phi : psi   = phi_xx*psi_xx + 2*phi_xy*psi_xy + phi_yy*psi_yy

The regularized scalar functions form a consistent family built from a
cut parameter ``delta``:

* ``g_delta``: the logarithm continued below ``delta`` by its tangent,
  concave and C^1 on all of R, with derivative ``min(1/s, 1/delta)``;
* ``beta_delta(s) = max(s, delta)``, the reciprocal of that derivative;
* ``_beta_delta_b`` additionally caps at the extensibility bound ``b``;
* ``h_delta``: the logarithm flattened to slope ``delta`` above
  ``1/delta``, so that ``h_delta'(g_delta'(s)) = beta_delta(s)``.

Applied spectrally (closed-form 2x2 eigenvalues, then a two-term
formula affine in the tensor) these give total, globally Lipschitz
matrix functions, which is what lets the implicit schemes accept any
symmetric iterate while still agreeing with the physical model wherever
the conformation tensor is comfortably positive definite with trace
below ``b``.

Setting ``b = math.inf`` switches every ``b``-dependent formula to its
infinite-extensibility (Oldroyd-B) limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "RegParams",
    "IDENTITY",
    "tensor",
    "trace",
    "frob_norm",
    "ddot",
    "to_full",
    "eig_sym",
    "g_delta",
    "beta_delta",
    "h_delta",
    "g_delta_mat",
    "beta_delta_mat",
    "beta_delta_jacobian",
    "TensorNodes",
    "tensor_nodes",
    "relax_reg",
    "k_delta_of_beta",
    "entropy_density",
    "relax_flux_of_beta",
    "lemma_margins_pair",
    "lemma_margins_scalar",
]

#: The identity tensor in (xx, xy, yy) component form.
IDENTITY = np.array([1.0, 0.0, 1.0])

#: The component weights of a double contraction, phi : psi = (phi * psi) @ w.
_DDOT_WEIGHTS = np.array([1.0, 2.0, 1.0])


@dataclass(frozen=True)
class RegParams:
    """Regularization cut ``delta`` and extensibility bound ``b``.

    ``delta`` must lie in (0, 1/2] and, when ``b`` is finite, must not
    exceed ``b``.  ``b = math.inf`` selects the Oldroyd-B limit.
    """

    delta: float
    b: float = math.inf

    def __post_init__(self) -> None:
        if not (0.0 < self.delta <= 0.5):
            raise ValueError(f"delta must lie in (0, 1/2], got {self.delta}")
        if not self.b > 0.0:
            raise ValueError(f"b must be positive, got {self.b}")
        if math.isfinite(self.b) and self.delta > self.b:
            raise ValueError(f"delta={self.delta} exceeds b={self.b}")

    @property
    def oldroyd_b(self) -> bool:
        return math.isinf(self.b)


# ---------------------------------------------------------------------------
# component arithmetic


def tensor(xx, xy, yy) -> np.ndarray:
    """Stack components into the (..., 3) tensor layout."""
    return np.stack(np.broadcast_arrays(
        np.asarray(xx, float), np.asarray(xy, float), np.asarray(yy, float)), axis=-1)


def trace(phi) -> np.ndarray:
    phi = np.asarray(phi, float)
    return phi[..., 0] + phi[..., 2]


def frob_norm(phi) -> np.ndarray:
    phi = np.asarray(phi, float)
    return np.sqrt(phi[..., 0] ** 2 + 2.0 * phi[..., 1] ** 2 + phi[..., 2] ** 2)


def ddot(phi, psi) -> np.ndarray:
    """Double contraction phi : psi of two symmetric tensors."""
    phi = np.asarray(phi, float)
    psi = np.asarray(psi, float)
    return (phi[..., 0] * psi[..., 0] + 2.0 * phi[..., 1] * psi[..., 1]
            + phi[..., 2] * psi[..., 2])


def to_full(phi) -> np.ndarray:
    """Expand (..., 3) components to full (..., 2, 2) matrices."""
    phi = np.asarray(phi, float)
    out = np.empty(phi.shape[:-1] + (2, 2))
    out[..., 0, 0] = phi[..., 0]
    out[..., 0, 1] = phi[..., 1]
    out[..., 1, 0] = phi[..., 1]
    out[..., 1, 1] = phi[..., 2]
    return out


def _from_full(m, tol: float = 1e-12) -> np.ndarray:
    """Collapse full (..., 2, 2) matrices to components, checking symmetry."""
    m = np.asarray(m, float)
    skew = np.max(np.abs(m[..., 0, 1] - m[..., 1, 0]), initial=0.0)
    scale = np.max(np.abs(m), initial=0.0) + 1.0
    if skew > tol * scale:
        raise ValueError(f"matrix is not symmetric (skew part {skew:g})")
    return tensor(m[..., 0, 0], 0.5 * (m[..., 0, 1] + m[..., 1, 0]), m[..., 1, 1])


# ---------------------------------------------------------------------------
# spectral machinery


def eig_sym(phi):
    """Closed-form spectrum of symmetric 2x2 tensors ``phi`` (..., 3).

    Returns the eigenvalues ``w`` (..., 2) in ascending order and the
    unit deviator ``frame = (phi - mean I) / r`` (..., 3) of their mean and
    half-gap ``r``, zero where ``r = 0``; ``(I - frame)/2`` and
    ``(I + frame)/2`` are the eigenprojectors of ``w[..., 0]`` and
    ``w[..., 1]``.
    """
    phi = np.asarray(phi, float)
    if not np.all(np.isfinite(phi)):
        raise ValueError("eig_sym: tensor entries must be finite")
    axx, axy, ayy = phi[..., 0], phi[..., 1], phi[..., 2]
    mean = 0.5 * (axx + ayy)
    half = 0.5 * (axx - ayy)
    r = np.hypot(half, axy)
    w = np.stack([mean - r, mean + r], axis=-1)
    safe = np.where(r > 0.0, r, 1.0)    # r = 0 only where half = axy = 0
    return w, tensor(half / safe, axy / safe, -half / safe)


def _recompose(w_fun, frame) -> np.ndarray:
    """The spectral function with eigenvalues ``w_fun`` in ``frame``:
    ``f(phi) = (f0 + f1)/2 I + (f1 - f0)/2 frame`` (Lagrange-Sylvester)."""
    avg = 0.5 * (w_fun[..., 0] + w_fun[..., 1])
    gap = 0.5 * (w_fun[..., 1] - w_fun[..., 0])
    return avg[..., None] * IDENTITY + gap[..., None] * frame


# ---------------------------------------------------------------------------
# regularized scalar functions


def g_delta(s, rp: RegParams):
    """Regularized logarithm and its derivative.

    Returns ``(value, derivative)`` with ``value = ln s`` for
    ``s >= delta`` and the tangent continuation ``s/delta + ln delta - 1``
    below, so both are defined for every real ``s`` and the derivative is
    ``min(1/s, 1/delta)`` branchwise.
    """
    s = np.asarray(s, float)
    d = rp.delta
    above = s >= d
    safe = np.where(above, s, 1.0)
    value = np.where(above, np.log(safe), s / d + math.log(d) - 1.0)
    deriv = np.where(above, 1.0 / safe, 1.0 / d)
    return value, deriv


def beta_delta(s, rp: RegParams) -> np.ndarray:
    """``max(s, delta)``, the reciprocal of the regularized log-derivative."""
    return np.maximum(np.asarray(s, float), rp.delta)


def _beta_delta_b(s, rp: RegParams) -> np.ndarray:
    """``min(max(s, delta), b)``; the cap is inactive in the Oldroyd-B limit."""
    return np.minimum(beta_delta(s, rp), rp.b)


def h_delta(s, rp: RegParams) -> np.ndarray:
    """Logarithm flattened to slope ``delta`` above ``1/delta`` (s > 0)."""
    s = np.asarray(s, float)
    if np.any(s <= 0.0):
        bad = s[s <= 0.0]
        raise ValueError(f"h_delta requires s > 0, got {bad.flat[0]!r}")
    d = rp.delta
    cap = 1.0 / d
    low = s <= cap
    return np.where(low, np.log(np.where(low, s, 1.0)),
                    d * s + math.log(cap) - 1.0)


def _h_delta_dd(x, y, rp: RegParams) -> np.ndarray:
    """Stable divided difference (h_delta(x) - h_delta(y)) / (x - y).

    Both arguments must be positive.  Coincident arguments return
    ``h_delta'``.  On the logarithmic branch the difference is computed
    with ``log1p`` so nearly equal arguments lose no precision; arguments
    straddling the kink at ``1/delta`` are split exactly at the kink.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    d = rp.delta
    cap = 1.0 / d
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    diff = hi - lo
    same = diff == 0.0
    safe = np.where(same, 1.0, diff)
    # piece below the kink: d/ds h = 1/s, integrated with log1p for stability
    lo_c = np.minimum(lo, cap)
    hi_c = np.minimum(hi, cap)
    log_part = np.log1p((hi_c - lo_c) / lo_c)
    # piece above the kink: constant slope delta
    lin_part = d * (np.maximum(hi, cap) - np.maximum(lo, cap))
    dd = (log_part + lin_part) / safe
    # coincident arguments: h_delta'(s) = max(1/s, delta), which is 1/s up
    # to the kink at 1/delta and delta above it
    deriv = np.where(lo <= cap, 1.0 / lo, d)
    return np.where(same, deriv, dd)


# ---------------------------------------------------------------------------
# spectral versions


def g_delta_mat(phi, rp: RegParams):
    """Spectral regularized log of a tensor: returns ``(G(phi), G'(phi))``."""
    w, frame = eig_sym(phi)
    val, der = g_delta(w, rp)
    return _recompose(val, frame), _recompose(der, frame)


def beta_delta_mat(phi, rp: RegParams) -> np.ndarray:
    """Spectral ``max(., delta)`` of a tensor."""
    w, frame = eig_sym(phi)
    return _recompose(np.maximum(w, rp.delta), frame)


#: the means and deviators (rows) of the three unit component directions
_UNIT_MEAN = np.array([0.5, 0.0, 0.5])
_UNIT_DEV = np.array([[0.5, 0.0, -0.5], [0.0, 1.0, 0.0], [-0.5, 0.0, 0.5]])


def beta_delta_jacobian(w, frame, rp: RegParams) -> np.ndarray:
    """Derivative of :func:`beta_delta_mat` with respect to the components,
    at the tensors of spectrum ``w, frame`` (:func:`eig_sym`).

    Entry ``[..., i, j]`` is ``d beta_i / d phi_j`` (an increment of the
    xy component moves both off-diagonal entries).  With ``beta = a I +
    g D``, ``a`` and ``g`` the mean and half-gap of ``f = max(., delta)``
    at the eigenvalues ``mu -+ r`` and ``D`` the unit deviator of
    :func:`eig_sym`, a direction ``E`` moves ``mu`` by ``tr E / 2`` and
    ``r`` by ``dr = (D : E) / 2``, so

        d beta = da I + dg D + [f0, f1] (E_dev - dr D),

    where ``[f0, f1]`` is the divided difference of ``f`` over the two
    eigenvalues, ``f'`` where they coincide.  ``f'`` is 1 from ``delta``
    on and 0 below, as ``g_delta`` splits its branches.
    """
    f = np.maximum(w, rp.delta)
    fp = (w >= rp.delta).astype(float)
    gap = w[..., 1] - w[..., 0]
    split = gap > 0.0
    slope = np.where(split, (f[..., 1] - f[..., 0])
                     / np.where(split, gap, 1.0), fp[..., 0])
    dr = 0.5 * frame * _DDOT_WEIGHTS                  # (D : E_j) / 2
    dw0, dw1 = _UNIT_MEAN - dr, _UNIT_MEAN + dr
    da = 0.5 * (fp[..., :1] * dw0 + fp[..., 1:] * dw1)
    dg = 0.5 * (fp[..., 1:] * dw1 - fp[..., :1] * dw0)
    return (IDENTITY[:, None] * da[..., None, :]
            + frame[..., :, None] * (dg - slope[..., None] * dr)[..., None, :]
            + slope[..., None, None] * _UNIT_DEV)


class TensorNodes(NamedTuple):
    """Nodal values of a tensor field that fix its transport coefficients."""

    beta: np.ndarray      # beta_delta(phi), (..., 3)
    gprime: np.ndarray    # g_delta'(phi), (..., 3)
    tr_h: np.ndarray      # tr h_delta(g_delta'(phi)), (...)

    def take(self, idx) -> TensorNodes:
        return TensorNodes(self.beta[idx], self.gprime[idx], self.tr_h[idx])


def tensor_nodes(w, frame, rp: RegParams) -> TensorNodes:
    """The :class:`TensorNodes` of the tensors of spectrum ``w, frame``
    (:func:`eig_sym`)."""
    beta_w = beta_delta(w, rp)
    gp_w = 1.0 / beta_w
    return TensorNodes(_recompose(beta_w, frame),
                       _recompose(gp_w, frame),
                       h_delta(gp_w, rp).sum(axis=-1))


def _neg_part(phi) -> np.ndarray:
    """Spectral negative part ``min(., 0)``."""
    w, frame = eig_sym(phi)
    return _recompose(np.minimum(w, 0.0), frame)


# ---------------------------------------------------------------------------
# model tensors


def relax_reg(phi, eta, rp: RegParams) -> np.ndarray:
    """Regularized relaxation tensor g'(1 - eta/b) I - g'(phi).

    Total on symmetric tensors and real ``eta``; coincides with the
    unregularized ``(1 - tr/b)^(-1) I - phi^(-1)`` whenever the
    eigenvalues of ``phi`` and
    ``1 - eta/b`` all sit above ``delta``.  In the Oldroyd-B limit
    ``1 - eta/b`` is 1, so the scalar prefactor is exactly 1.
    """
    w, frame = eig_sym(phi)
    gp = _recompose(1.0 / beta_delta(w, rp), frame)
    coef = 1.0 / beta_delta(1.0 - np.asarray(eta, float) / rp.b, rp)
    return tensor(coef - gp[..., 0], -gp[..., 1], coef - gp[..., 2])


def k_delta_of_beta(beta, eta, rp: RegParams) -> np.ndarray:
    """Stress-scaling factor sqrt(_beta_delta_b(eta) / tr(beta_delta(phi)))
    from ``beta = beta_delta_mat(phi)``.

    Bounds the momentum coupling in L2: ||k A beta||^2 <= b tr(A^2 beta)
    pointwise.  The Oldroyd-B limit of the scheme uses k = 1.
    """
    eta = np.asarray(eta, float)
    if rp.oldroyd_b:
        return np.ones(np.broadcast_shapes(np.shape(eta), np.shape(beta)[:-1]))
    return np.sqrt(_beta_delta_b(eta, rp) / trace(beta))


def entropy_density(eigs, eta, rp: RegParams) -> np.ndarray:
    """Regularized elastic entropy density from the spectrum of ``phi``.

    ``eigs`` (..., 2) are the eigenvalues of ``phi`` (:func:`eig_sym`);
    the density is a spectral function, ``tr g(phi) = sum_i g(w_i)``.
    For finite ``b`` this is ``-[b g(1 - eta/b) + tr(g(phi) + I)]`` with
    the regularized logarithm ``g``; it is nonnegative whenever
    ``eta = trace(phi)``.  The Oldroyd-B limit drops the ``b``-term in
    favor of its limit ``eta -> trace(phi)`` contribution, giving
    ``tr(phi - g(phi) - I)``, and ignores ``eta``.
    """
    eigs = np.asarray(eigs, float)
    g, _ = g_delta(eigs, rp)
    if rp.oldroyd_b:
        return (eigs - g).sum(axis=-1) - 2.0
    bval, _ = g_delta(1.0 - np.asarray(eta, float) / rp.b, rp)
    return -(rp.b * bval + g.sum(axis=-1) + 2.0)


def relax_flux_of_beta(beta, eta, rp: RegParams) -> np.ndarray:
    """The product A_delta(phi, eta) beta_delta(phi) in component form,
    from ``beta = beta_delta_mat(phi)``.

    Both factors are spectral functions of ``phi`` (plus a multiple of the
    identity), so they commute and the product is symmetric; using
    ``beta_delta(phi) g'(phi) = I`` it collapses to

        g'(1 - eta/b) * beta_delta(phi) - I,

    with coefficient exactly 1 in the Oldroyd-B limit.  This is the term
    the momentum equation couples to the velocity gradient and the stress
    relaxation drives to zero.
    """
    coef = 1.0 / beta_delta(1.0 - np.asarray(eta, float) / rp.b, rp)
    return coef[..., None] * beta - IDENTITY


# ---------------------------------------------------------------------------
# lemma oracles
#
# Each margin is the quantity "lhs - rhs" of an inequality that is exact in
# real arithmetic, so a margin >= -slack (tiny slack for rounding) certifies
# the property.  Identity checks return the negated residual norm so the
# same convention applies.


def lemma_margins_pair(phi, psi, eta, rp: RegParams) -> dict[str, np.ndarray]:
    """Inequality margins for tensor pairs (phi, psi) and scalar eta.

    Covers the reciprocal identity beta g' = I, entropy nonnegativity and
    its norm lower bounds, both concavity inequalities of the regularized
    log, the squared-difference monotonicity bound, the Lipschitz bounds
    of the spectral functions, the quadratic-form positivity of the
    relaxation tensor, and (finite b) the k-weighted coupling bound.
    """
    phi = np.asarray(phi, float)
    psi = np.asarray(psi, float)
    eta = np.asarray(eta, float)
    d = rp.delta

    g_phi, gp_phi = g_delta_mat(phi, rp)
    g_psi, gp_psi = g_delta_mat(psi, rp)
    b_phi = beta_delta_mat(phi, rp)
    b_psi = beta_delta_mat(psi, rp)

    out: dict[str, np.ndarray] = {}

    prod = to_full(b_phi) @ to_full(gp_phi)
    out["inverse_identity"] = -np.sqrt(
        (prod[..., 0, 0] - 1.0) ** 2 + prod[..., 0, 1] ** 2
        + prod[..., 1, 0] ** 2 + (prod[..., 1, 1] - 1.0) ** 2)

    ent = trace(phi) - trace(g_phi)
    out["entropy_nonneg"] = ent - 2.0
    out["entropy_half_norm"] = ent - 0.5 * frob_norm(phi)
    out["entropy_neg_part"] = ent - frob_norm(_neg_part(phi)) / (2.0 * d)
    out["identity_gap"] = ddot(phi, IDENTITY - gp_phi) - (0.5 * frob_norm(phi) - 2.0)

    diff = phi - psi
    dtr_g = trace(g_phi) - trace(g_psi)
    out["concavity_upper"] = ddot(diff, gp_psi) - dtr_g
    out["concavity_lower"] = dtr_g - ddot(diff, gp_phi)

    dgp = gp_phi - gp_psi
    out["lipschitz_gap"] = -ddot(diff, dgp) - d ** 2 * frob_norm(dgp) ** 2

    out["lipschitz_beta"] = frob_norm(diff) - frob_norm(b_phi - b_psi)
    out["lipschitz_neg_part"] = (frob_norm(diff)
                                 - frob_norm(_neg_part(phi) - _neg_part(psi)))
    out["lipschitz_gprime"] = frob_norm(diff) / d ** 2 - frob_norm(dgp)

    # tr((eta I - g'(phi))^2 beta(phi)) >= 0 and the same with the full
    # relaxation tensor in place of the bracket.
    m = tensor(eta - gp_phi[..., 0], -gp_phi[..., 1], eta - gp_phi[..., 2])
    m2 = _from_full(to_full(m) @ to_full(m), tol=1e-9)
    out["positive_term"] = ddot(m2, b_phi)

    a = relax_reg(phi, eta, rp)
    a2 = _from_full(to_full(a) @ to_full(a), tol=1e-9)
    relax_quad = ddot(a2, b_phi)
    out["relax_quadratic"] = relax_quad

    if not rp.oldroyd_b:
        k = k_delta_of_beta(b_phi, eta, rp)
        kab = k[..., None] * _from_full(to_full(a) @ to_full(b_phi), tol=1e-9)
        out["k_coupling_bound"] = rp.b * relax_quad - frob_norm(kab) ** 2
    return out


def lemma_margins_scalar(s, rp: RegParams) -> dict[str, np.ndarray]:
    """Scalar trace-variable inequality margins (finite b only)."""
    if rp.oldroyd_b:
        raise ValueError("scalar trace bounds require finite b")
    s = np.asarray(s, float)
    b = rp.b
    val, der = g_delta(1.0 - s / b, rp)
    out = {
        "trace_entropy_bound": (-b * val - s) - 0.5 * np.maximum(np.abs(s) - 3.0 * b, 0.0),
        "trace_stress_gap": (der - 1.0) * s - np.maximum(np.abs(s) - b, 0.0),
    }
    return out
