"""Regularization continuation of one step of the cellwise scheme, for
the tests only.

``delta_continuation`` re-solves one step under a halving sequence of
regularization cuts; once the answer stagnates while staying positive
definite with trace below the extensibility bound, the regularization is
certifiably inactive at that resolution (the delta -> 0 limit that
acceptance criterion 06 checks).
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from fenep.meshing import TriMesh
from fenep.nlsolve import PicardConfig, State
from fenep.params import ModelParams
from fenep.scheme_p0 import SchemeP0


@dataclass
class ContinuationReport:
    deltas: list
    diffs: list
    state: State
    stagnated: bool


def delta_continuation(mesh: TriMesh, params: ModelParams, state: State,
                       dt: float, *, velocity: str = "velocity_p2",
                       forcing=None, delta_start: float = 0.25,
                       delta_min: float = 1.0 / 256.0,
                       stag_tol: float = 1e-8,
                       config: PicardConfig | None = None) -> ContinuationReport:
    """Solve the same step under a halving regularization cut.

    Stops once successive solutions differ by less than ``stag_tol`` in
    the max norm (or ``delta_min`` is reached) and reports the final
    state, whose ``audit`` bounds its stress; stagnation with a positive
    smallest eigenvalue and a largest trace below ``b`` means the cut no
    longer binds and the unregularized step was solved.
    """
    # the operators, and the cached saddle factorization, do not depend on
    # delta, so one scheme serves every cut; a carried free energy belongs
    # to one delta
    scheme = SchemeP0(mesh, params, velocity=velocity, forcing=forcing)
    state = dataclasses.replace(state, energy=None)
    deltas, diffs = [], []
    prev_vec = None
    last = None
    d = delta_start
    while d >= delta_min * (1.0 - 1e-12):
        scheme.params = dataclasses.replace(params, delta=d)
        new_state, _, _ = scheme.step(state, dt, config)
        vec = np.concatenate([new_state.u, new_state.sigma.ravel()])
        deltas.append(d)
        if prev_vec is not None:
            diffs.append(float(np.max(np.abs(vec - prev_vec))))
        prev_vec, last = vec, new_state
        if diffs and diffs[-1] < stag_tol:
            break
        d *= 0.5
    return ContinuationReport(
        deltas, diffs, dataclasses.replace(last, energy=None),
        stagnated=bool(diffs and diffs[-1] < stag_tol))
