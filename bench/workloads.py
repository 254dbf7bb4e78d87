"""Benchmark workloads and the correctness gate applied to every run.

Each workload is one ``fenep run`` configuration on the forced cavity
(b = 5, delta = 0.1).  The three are chosen so that a different layer of
the step dominates each one: the saddle factorization on cavity-p0, the
fespaces kernels on cavity-p1diff and the Picard loop (residuals and
tensorcalc) on stiff-p1diff.  README.md gives the per-layer profile.

Seed 0 is the canonical configuration, whose ``energy.csv`` must match
the table recorded in ``reference/<name>.csv``.  Other seeds scale the
forcing amplitude by a deterministic factor within +-AMPLITUDE_JITTER,
so a claimed gain can be rechecked on inputs it was not tuned on.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: largest relative change of the forcing amplitude a non-zero seed applies
AMPLITUDE_JITTER = 0.01

#: Picard tolerance of every workload (the ``[solver] tol`` default)
PICARD_TOL = 1e-10

#: Reference rows must agree to ROW_TOL_FACTOR * tol relative to the
#: magnitude of the entry (1 + |reference|).  A Picard solve stops once the
#: preconditioned residual is below tol * (|x0| + 1), so a solver that
#: meets the same stopping rule along another path may land anywhere in a
#: ball of about that radius.  Rerunning the workloads at tol = 1e-11 and
#: 1e-12 moves every checked column by at most 8.5e-11 relative
#: (stiff-p1diff, with 111-144 iterations a step) and 2.6e-11 on the
#: cavity workloads, so 100 * tol = 1e-8 leaves a factor above 100 for a
#: different solver path.  It is the factor the energy audit itself grants
#: the solver (``energy.audit_slack``), and it is far below any change of
#: the discretization.  For entries well below 1 the bound is in effect
#: absolute, 1e-8: the cavity workloads' diffusion_rho (~1e-10),
#: trace_balance (~1e-17) and relaxation (~1e-5) are checked only to that,
#: and stiff-p1diff, where these terms are 1e-2 to 10, is the workload that
#: guards them.  A bound relative to each column's own size would reject
#: a correct solver: at tol = 1e-11 the cavity-p1diff diffusion_rho moves
#: by 1.3e-8 of itself, and trace_balance is round-off.
ROW_TOL_FACTOR = 100.0

#: energy.csv columns compared with the reference.  ``picard_iters`` and
#: ``residual`` describe the solver path, which a faster solver may
#: legitimately change; the state it converges to may not.
CHECKED_COLUMNS = (
    "t", "F_total", "kinetic", "entropy", "kinetic_jump", "viscous",
    "relaxation", "diffusion_sigma", "diffusion_rho", "forcing",
    "trace_balance", "min_eig_sigma", "max_trace_sigma")


@dataclass(frozen=True)
class Workload:
    name: str
    scheme: str
    velocity: str
    n: int
    dt: float
    steps: int
    amplitude: float = 1.0
    alpha: float | None = None

    def amplitude_for(self, seed: int) -> float:
        if seed == 0:
            return self.amplitude
        u = random.Random(seed).uniform(-1.0, 1.0)
        return self.amplitude * (1.0 + AMPLITUDE_JITTER * u)

    def config_text(self, seed: int, out_dir) -> str:
        alpha = "" if self.alpha is None else f"alpha = {self.alpha!r}\n"
        return (
            "[model]\n"
            "scenario = forced-cavity\n"
            f"amplitude = {self.amplitude_for(seed)!r}\n"
            "b = 5.0\n"
            "delta = 0.1\n"
            f"{alpha}"
            "[mesh]\n"
            f"n = {self.n}\n"
            "[time]\n"
            f"dt = {self.dt!r}\n"
            f"tmax = {self.dt * self.steps!r}\n"
            "[solver]\n"
            f"scheme = {self.scheme}\n"
            f"velocity = {self.velocity}\n"
            f"tol = {PICARD_TOL!r}\n"
            "[output]\n"
            f"dir = {out_dir}\n")


WORKLOADS = {w.name: w for w in (
    Workload("cavity-p0", "p0", "p2", n=32, dt=0.05, steps=3),
    Workload("cavity-p1diff", "p1diff", "mini", n=32, dt=0.05, steps=3,
             alpha=0.1),
    Workload("stiff-p1diff", "p1diff", "mini", n=8, dt=1.0, steps=3,
             amplitude=20.0, alpha=0.1),
)}

#: p0 at the stiff workload's data: Picard gives up after 200 iterations
#: on the first step, so every planned step must count as failed.
NEGATIVE_CONTROL = Workload("negative-p0", "p0", "p2", n=8, dt=1.0, steps=3,
                            amplitude=20.0)


def _rows_agree(row, ref, tol: float) -> bool:
    return row["step"] == ref["step"] and all(
        abs(row[c] - ref[c]) <= tol * (1.0 + abs(ref[c]))
        for c in CHECKED_COLUMNS)


def failed_steps(cli, out_dir: Path, planned: int, step_audits: list,
                 expected=None) -> set:
    """Steps 1..planned of one finished ``fenep run`` that fail the gate.

    ``step_audits`` holds the audit verdict of each step that returned;
    the steps after them failed (a SolverError at step k fails steps
    k..planned).  Each row written to ``energy.csv`` must pass its own
    audit, the offline replay of ``fenep audit`` and, when ``expected``
    rows are given, agree with them within ROW_TOL_FACTOR * tol.  A run
    that finished every step must have written all rows, else all its
    steps fail, and a ``summary.json`` that reports every audit passed.
    A summary that reports a failure no step accounts for fails them all.
    """
    every = set(range(1, planned + 1))
    completed = len(step_audits)
    bad = {k for k in every if k > completed or not step_audits[k - 1]}
    csv_path = out_dir / "energy.csv"
    if not csv_path.is_file():
        return bad if completed < planned else every
    rows = cli.read_energy_csv(csv_path)
    if completed == planned and len(rows) != planned + 1:
        return every
    _, replay_failures = cli.audit_csv(csv_path, PICARD_TOL)
    bad.update(replay_failures)
    tol = ROW_TOL_FACTOR * PICARD_TOL
    for row in rows[1:]:
        k = row["step"]
        if not row["audit_pass"] or (expected is not None and (
                k >= len(expected) or not _rows_agree(row, expected[k], tol))):
            bad.add(k)
    if completed == planned and not bad and not _summary_passes(out_dir):
        return every
    return bad & every


def _summary_passes(out_dir: Path) -> bool:
    path = out_dir / "summary.json"
    return (path.is_file()
            and json.loads(path.read_text()).get("audit_all_pass") is True)


def reference_rows(cli, workload: Workload, seed: int):
    """Recorded rows seed 0 of a benchmark workload must reproduce.

    Returns None for other seeds and for workloads outside WORKLOADS.
    """
    if seed != 0 or workload.name not in WORKLOADS:
        return None
    return cli.read_energy_csv(REFERENCE_DIR / f"{workload.name}.csv")
