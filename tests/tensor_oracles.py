"""Reference forms of the tensor algebra, for the tests only.

The closed-form determinant and inverse of a symmetric 2x2 tensor, and
the unregularized relaxation tensor that the package's regularized
``relax_reg`` must reproduce inside the admissible set.
"""

import math

import numpy as np

import fenep.tensorcalc as tc


def det_sym(phi) -> np.ndarray:
    phi = np.asarray(phi, float)
    return phi[..., 0] * phi[..., 2] - phi[..., 1] ** 2


def inv_sym(phi) -> np.ndarray:
    """Inverse of a symmetric 2x2 tensor (caller guarantees invertibility)."""
    phi = np.asarray(phi, float)
    d = det_sym(phi)
    return tc.tensor(phi[..., 2] / d, -phi[..., 1] / d, phi[..., 0] / d)


def relax_classic(phi, b: float) -> np.ndarray:
    """Unregularized relaxation tensor (1 - tr/b)^(-1) I - phi^(-1).

    Requires ``phi`` positive definite and, for finite ``b``,
    ``trace(phi) < b``.  With ``b = inf`` this is ``I - phi^(-1)``.
    """
    phi = np.asarray(phi, float)
    w, _ = tc.eig_sym(phi)
    if np.any(w[..., 0] <= 0.0):
        bad = w[..., 0][w[..., 0] <= 0.0]
        raise ValueError(
            f"relax_classic requires a positive definite tensor; "
            f"smallest eigenvalue {bad.flat[0]!r}")
    tr = tc.trace(phi)
    if math.isinf(b):
        coef = np.ones_like(tr)
    else:
        if np.any(tr >= b):
            bad = tr[tr >= b]
            raise ValueError(
                f"relax_classic requires trace < b={b}; got trace {bad.flat[0]!r}")
        coef = 1.0 / (1.0 - tr / b)
    inv = inv_sym(phi)
    return tc.tensor(coef - inv[..., 0], -inv[..., 1], coef - inv[..., 2])
