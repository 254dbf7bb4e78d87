"""Golden runs: the discrete solution of three short cavity runs.

Each case is a forced cavity on the structured n = 4 mesh, two steps of
dt = 0.05, whose ``energy.csv`` must match the table recorded in
``tests/golden/<case>.csv``.  Rows agree when every checked column is
within ``ROW_TOL_FACTOR * tol * (1 + |recorded|)`` of the recorded value:
a Picard solve stops anywhere in a ball of about ``tol`` around the
fixed point, so a change of the solver path may move a column by that
much, while any change of the discretization moves it by far more.
``picard_iters`` and ``residual`` describe the path and are not checked.

To rerecord the tables after a deliberate change of the discretization:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import textwrap
import warnings
from pathlib import Path

import pytest

from fenep.cli import main, read_energy_csv
from fenep.scheme_p1diff import TimeStepWarning

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Picard tolerance of every case
TOL = 1e-10
#: rows agree to this multiple of TOL, relative to 1 + |recorded|
ROW_TOL_FACTOR = 100.0

#: energy.csv columns that describe the state, not the solver path
CHECKED_COLUMNS = (
    "t", "F_total", "kinetic", "entropy", "kinetic_jump", "viscous",
    "relaxation", "diffusion_sigma", "diffusion_rho", "forcing",
    "trace_balance", "min_eig_sigma", "max_trace_sigma")

#: case name -> (scheme, velocity, b)
CASES = {
    "p0-p2-b5": ("p0", "p2", "5.0"),
    "p1diff-mini-b5": ("p1diff", "mini", "5.0"),
    "p1diff-mini-binf": ("p1diff", "mini", "inf"),
}


def run_case(name, out_dir):
    """Run one case into ``out_dir``; returns its ``energy.csv`` path."""
    scheme, velocity, b = CASES[name]
    alpha = "alpha = 0.1\n" if scheme == "p1diff" else ""
    cfg = Path(out_dir) / f"{name}.cfg"
    cfg.parent.mkdir(parents=True, exist_ok=True)
    cfg.write_text(textwrap.dedent(f"""\
        [model]
        scenario = forced-cavity
        b = {b}
        delta = 0.1
        {alpha}
        [mesh]
        n = 4
        [time]
        dt = 0.05
        tmax = 0.1
        [solver]
        scheme = {scheme}
        velocity = {velocity}
        tol = {TOL!r}
        [output]
        dir = {out_dir}
        """))
    with warnings.catch_warnings():
        # dt lies above the p1diff theory's step-size cap on this mesh
        warnings.simplefilter("ignore", TimeStepWarning)
        assert main(["run", str(cfg)]) == 0
    return Path(out_dir) / "energy.csv"


@pytest.mark.parametrize("name", sorted(CASES))
def test_energy_table_matches_the_golden_run(name, tmp_path):
    rows = read_energy_csv(run_case(name, tmp_path))
    golden = read_energy_csv(GOLDEN_DIR / f"{name}.csv")
    assert [r["step"] for r in rows] == [r["step"] for r in golden]
    tol = ROW_TOL_FACTOR * TOL
    for row, ref in zip(rows, golden):
        assert row["audit_pass"]
        for col in CHECKED_COLUMNS:
            assert abs(row[col] - ref[col]) <= tol * (1.0 + abs(ref[col])), (
                f"step {ref['step']} {col}: {row[col]!r} != {ref[col]!r}")


if __name__ == "__main__":
    import shutil
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copyfile(run_case(case, tmp), GOLDEN_DIR / f"{case}.csv")
        print(f"recorded {GOLDEN_DIR / case}.csv")
