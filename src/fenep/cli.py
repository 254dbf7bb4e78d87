"""Command line front end: configured runs, offline audits, mesh tooling.

Subcommands
-----------
``fenep run CONFIG``
    Time-step one of the built-in scenarios per an INI-style config.
    Each step's audited row of ``energy.csv`` (after a baseline row) and
    due ``state_NNNN.vtk`` are written as the step finishes, and
    ``summary.json`` and ``final.vtk`` after the last step.  Exit code 0,
    or 5 when any step failed its energy audit; config (output directory
    included), mesh and solver problems exit 2, 3 and 4, the first two
    before an earlier run's outputs are replaced.  A ``--sweep`` checks
    the config at every value before its first run starts.
``fenep audit CSV``
    Recheck the energy budget of an existing ``energy.csv`` row by row
    from the recorded columns alone; exit 5 on the first violation, 2
    when the table cannot be read.
``fenep mesh gen``
    Write a structured triangulation (optionally sheared, which makes
    it obtuse) in the plain-text mesh format; exit 2 for ``--n`` below 1,
    a ``--shear`` that is not finite or an ``--out`` that cannot be
    written.
``fenep verify``
    Run the built-in oracle checks and report PASS/FAIL lines.

Config format: sections ``[model] [mesh] [time] [solver] [output]``,
``key = value`` entries, ``#`` comments; unknown sections or keys are
errors.  Floats are written with ``repr`` so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .energy import StepAudit
from .meshing import MeshError, TriMesh, load_mesh, save_mesh, structured_unit_square
from .nlsolve import PicardConfig, SolverError
from .params import ModelParams, ParameterError
from .scheme_p0 import SchemeP0
from .scheme_p1diff import SchemeP1Diff

__all__ = [
    "ConfigError",
    "SCHEMES",
    "main",
    "parse_config",
    "build_setup",
    "run_simulation",
    "read_energy_csv",
    "audit_csv",
    "write_vtk",
    "scenario_fields",
    "ENERGY_COLUMNS",
]

ENERGY_COLUMNS = (
    "step", "t", "F_total", "kinetic", "entropy", "kinetic_jump", "viscous",
    "relaxation", "diffusion_sigma", "diffusion_rho", "forcing",
    "trace_balance", "min_eig_sigma", "max_trace_sigma", "picard_iters",
    "residual", "audit_pass")
_HEADER = ",".join(ENERGY_COLUMNS) + "\n"


def _flag(raw: str) -> bool:
    """An ``audit_pass`` cell: exactly ``True`` or ``False``."""
    if raw not in ("True", "False"):
        raise ValueError(f"audit_pass must be True or False, not {raw!r}")
    return raw == "True"


#: how ``read_energy_csv`` parses a column that is not a float
_COLUMN_TYPES = {"step": int, "picard_iters": int, "audit_pass": _flag}


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


# ---------------------------------------------------------------------------
# config parsing

#: the most steps a run may plan, checked before any mesh is built
MAX_STEPS = 10 ** 6

#: section -> key -> (type, default) of every config entry; a default of
#: None marks an entry that is required, or whose absence means something
_KEYS = {
    "model": {"scenario": (str, "relax"), "amplitude": (float, 1.0),
              "re": (float, 1.0), "wi": (float, 1.0), "eps": (float, 0.5),
              "b": (float, 5.0), "delta": (float, 0.1),
              "alpha": (float, None)},
    "mesh": {"n": (int, None), "file": (str, None), "shear": (float, 0.0)},
    "time": {"dt": (float, None), "tmax": (float, None),
             "dt0": (float, None)},
    "solver": {"scheme": (str, None), "velocity": (str, None),
               "tol": (float, 1e-10), "max_iters": (int, 200)},
    "output": {"dir": (str, "out"), "vtk_every": (int, 0)},
}

#: ``fenep run`` flag -> the config entry it overrides
_FLAGS = {
    "scheme": ("solver", "scheme"), "velocity": ("solver", "velocity"),
    "delta": ("model", "delta"), "alpha": ("model", "alpha"),
    "dt": ("time", "dt"), "tmax": ("time", "tmax"), "b": ("model", "b"),
    "wi": ("model", "wi"), "re": ("model", "re"), "eps": ("model", "eps"),
    "out": ("output", "dir"),
}

#: the flags ``--sweep`` may vary: the numbers, but not the run's length
_SWEEPABLE = tuple(flag for flag, (section, key) in _FLAGS.items()
                   if _KEYS[section][key][0] is float and key != "tmax")

SCHEMES = {"p0": SchemeP0, "p1diff": SchemeP1Diff}

_VELOCITY_TOKENS = {
    "p2": "velocity_p2",
    "p2r": "velocity_p2_reduced",
    "mini": "velocity_mini",
}


def parse_config(path) -> dict:
    """Read an INI-style config into nested string dicts, strictly."""
    import configparser

    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#",), interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    out: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(
                f"unknown section [{section}]; expected one of "
                f"{sorted(_KEYS)}")
        allowed = _KEYS[section]
        out[section] = {}
        for key, value in parser.items(section):
            if key not in allowed:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]; allowed: "
                    f"{sorted(allowed)}")
            out[section][key] = value.strip()
    return out


def _typed(section, key, raw):
    """The value of a config entry given as the string ``raw`` (None:
    absent, which gives the default)."""
    kind, default = _KEYS[section][key]
    if raw is None:
        return default
    try:
        return kind(raw)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise ConfigError(
            f"[{section}] {key} must be {noun}, got {raw!r}") from None


def _positive(x) -> bool:
    return math.isfinite(x) and x > 0


@dataclass
class RunSetup:
    scheme: str
    velocity: str
    params: ModelParams
    scenario: str
    amplitude: float
    mesh_n: int | None
    mesh_file: str | None
    shear: float
    dt: float
    tmax: float
    steps: int
    dt0: float
    picard: PicardConfig
    out_dir: str
    vtk_every: int


def build_setup(cfg: dict, overrides: dict | None = None) -> RunSetup:
    """Combine a parsed config with CLI overrides into a typed setup.

    ``overrides`` maps ``fenep run`` flags to values; a value of None
    leaves the config's entry.
    """
    raw = {section: dict(cfg.get(section, {})) for section in _KEYS}
    for flag, value in (overrides or {}).items():
        if value is not None:
            section, key = _FLAGS[flag]
            raw[section][key] = str(value)
    model, mesh, time, solver, output = (
        {key: _typed(section, key, raw[section].get(key)) for key in keys}
        for section, keys in _KEYS.items())

    scheme = solver["scheme"]
    if scheme is None:
        raise ConfigError("[solver] scheme is required (p0 or p1diff)")
    if scheme not in SCHEMES:
        raise ConfigError(f"scheme must be p0 or p1diff, got {scheme!r}")
    kinds = SCHEMES[scheme].VELOCITIES

    vel_raw = solver["velocity"]
    velocity = kinds[0] if vel_raw is None else _VELOCITY_TOKENS.get(vel_raw)
    if velocity not in kinds:
        tokens = sorted(t for t, k in _VELOCITY_TOKENS.items() if k in kinds)
        raise ConfigError(f"velocity of the {scheme} scheme must be one of "
                          f"{tokens}, got {vel_raw!r}")

    # the diffusion and the smoothing of the initial data are p1diff's own
    if scheme == "p1diff" and model["alpha"] is None:
        raise ConfigError("[model] alpha is required for the p1diff scheme")
    if scheme == "p0":
        for where, value in (("[model] alpha", model["alpha"]),
                             ("[time] dt0", time["dt0"])):
            if value is not None:
                raise ConfigError(f"{where} is not used by the p0 scheme")
    try:
        params = ModelParams(**{f.name: model[f.name]
                                for f in fields(ModelParams)})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if model["scenario"] not in ("relax", "decay", "forced-cavity"):
        raise ConfigError(
            f"scenario must be relax, decay or forced-cavity, got "
            f"{model['scenario']!r}")
    for where, value in (("[model] amplitude", model["amplitude"]),
                         ("[mesh] shear", mesh["shear"])):
        if not math.isfinite(value):
            raise ConfigError(f"{where} must be finite, got {value}")
    if (mesh["n"] is None) == (mesh["file"] is None):
        raise ConfigError("[mesh] needs exactly one of 'n' or 'file'")
    if mesh["n"] is not None and mesh["n"] < 1:
        raise ConfigError("[mesh] n must be at least 1")

    dt, tmax = time["dt"], time["tmax"]
    if dt is None or tmax is None:
        raise ConfigError("[time] dt and tmax are required")
    if not (_positive(dt) and _positive(tmax)):
        raise ConfigError("[time] dt and tmax must be positive and finite")
    steps = tmax / dt
    if not (math.isfinite(steps) and round(steps) <= MAX_STEPS):
        raise ConfigError(
            f"[time] tmax / dt must give at most {MAX_STEPS} steps, got "
            f"{tmax!r} / {dt!r}")
    # a run ends at tmax: tmax / dt is a whole number up to rounding
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise ConfigError(
            f"[time] tmax / dt must be a whole number of steps, got "
            f"{tmax!r} / {dt!r} = {steps!r}")
    dt0 = 0.0
    if scheme == "p1diff":
        dt0 = dt if time["dt0"] is None else time["dt0"]
        if not _positive(dt0):
            raise ConfigError(
                f"[time] dt0 must be positive and finite, got {dt0}")

    try:
        picard = PicardConfig(tol=solver["tol"], max_iters=solver["max_iters"])
    except ValueError as exc:
        raise ConfigError(f"[solver] {exc}") from exc

    if output["vtk_every"] < 0:
        raise ConfigError(f"[output] vtk_every must be 0 (off) or positive, "
                          f"got {output['vtk_every']}")
    return RunSetup(
        scheme=scheme, velocity=velocity, params=params,
        scenario=model["scenario"], amplitude=model["amplitude"],
        mesh_n=mesh["n"], mesh_file=mesh["file"], shear=mesh["shear"],
        dt=dt, tmax=tmax, steps=round(steps), dt0=dt0,
        picard=picard, out_dir=output["dir"], vtk_every=output["vtk_every"])


# ---------------------------------------------------------------------------
# scenarios


def scenario_fields(name: str, amplitude: float, params: ModelParams):
    """Initial data and forcing of a built-in scenario.

    Returns ``(u0, sigma0, forcing)``; entries may be None (rest /
    identity / no force).  All velocities vanish on the boundary of the
    unit square and the decay velocity is pointwise divergence-free.
    """
    a = amplitude
    if name == "relax":
        return None, np.array([2.0, 0.0, 2.0]), None
    if name == "decay":
        def u0(x, y):
            gx = x * x * (1.0 - x) ** 2
            gy = y * y * (1.0 - y) ** 2
            dgx = 2.0 * x * (1.0 - x) * (1.0 - 2.0 * x)
            dgy = 2.0 * y * (1.0 - y) * (1.0 - 2.0 * y)
            return a * gx * dgy, -a * dgx * gy
        return u0, np.array([1.0, 0.0, 1.0]), None
    if name == "forced-cavity":
        def forcing(x, y):
            return (a * math.pi * np.sin(math.pi * x) * np.cos(math.pi * y),
                    -a * math.pi * np.cos(math.pi * x) * np.sin(math.pi * y))
        c = 1.0 if params.oldroyd_b else params.b / (params.b + 2.0)
        return None, np.array([c, 0.0, c]), forcing
    raise ConfigError(f"unknown scenario {name!r}")


def _sheared(mesh: TriMesh, shear: float) -> TriMesh:
    """The mesh under the shear map y -> y + shear * x."""
    if shear == 0.0:
        return mesh
    pts = mesh.vertices.copy()
    pts[:, 1] += shear * pts[:, 0]
    return TriMesh(pts, mesh.cells)


def _build_mesh(setup: RunSetup) -> TriMesh:
    mesh = (structured_unit_square(setup.mesh_n) if setup.mesh_file is None
            else load_mesh(setup.mesh_file))
    return _sheared(mesh, setup.shear)


# ---------------------------------------------------------------------------
# the run loop


def run_simulation(setup: RunSetup):
    """Run the configured scenario, writing its outputs as it goes.

    The output directory is made, then the mesh read, and only then are
    an earlier run's outputs replaced, so bad input leaves them as they
    were.  ``energy.csv`` is opened before the first step, so a run
    stopped early keeps the rows and snapshots of the steps it finished,
    without ``final.vtk`` or ``summary.json``.  Returns the final state
    and the summary.
    """
    out = Path(setup.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        mesh = _build_mesh(setup)       # raises MeshError, never OSError
        for stale in ("summary.json", "final.vtk"):
            (out / stale).unlink(missing_ok=True)
        # line buffered: each row reaches the file as it is written
        table = open(out / "energy.csv", "w", buffering=1)
    except OSError as exc:
        raise ConfigError(f"[output] dir {setup.out_dir!r} cannot be "
                          f"written: {exc}") from exc

    with table:
        u0, sigma0, forcing = scenario_fields(
            setup.scenario, setup.amplitude, setup.params)
        scheme = SCHEMES[setup.scheme](mesh, setup.params,
                                       velocity=setup.velocity,
                                       forcing=forcing)
        state = scheme.initial_state(u0, sigma0, setup.dt0)
        init_report = state.initial_report

        def snapshot(name, st):
            cells = scheme.q.degree == 0    # p0's stress nodes are cells
            write_vtk(out / name, mesh, scheme.v.vertex_values(st.u),
                      cell_tensors=st.sigma if cells else None,
                      point_tensors=None if cells else st.sigma, rho=st.rho)

        first = row = _row(0, state, 0, 0.0)
        table.write(_HEADER + _csv_line(row))
        passed, iters, worst = True, 0, None
        low, high = row["min_eig_sigma"], row["max_trace_sigma"]
        for step in range(1, setup.steps + 1):
            state, report, _ = scheme.step(state, setup.dt, setup.picard)
            row = _row(step, state, report.iterations, report.residual)
            table.write(_csv_line(row))
            if setup.vtk_every > 0 and step % setup.vtk_every == 0:
                snapshot(f"state_{step:04d}.vtk", state)
            passed = passed and row["audit_pass"]
            low = min(low, row["min_eig_sigma"])
            high = max(high, row["max_trace_sigma"])
            iters += report.iterations
            if worst is None or report.iterations > worst["iterations"]:
                worst = {"step": step, "iterations": report.iterations,
                         "history": report.history,
                         "linearized_at": report.linearized_at,
                         "linearized_sweeps": report.linearized_sweeps,
                         "accelerated_at": report.accelerated_at,
                         "accelerated": report.accelerated}

    snapshot("final.vtk", state)
    summary = {
        "scheme": setup.scheme,
        "velocity": setup.velocity,
        "scenario": setup.scenario,
        "amplitude": setup.amplitude,
        "mesh": {
            "n": setup.mesh_n, "file": setup.mesh_file,
            "shear": setup.shear, "cells": mesh.n_cells,
            "vertices": mesh.n_vertices,
            "non_obtuse": mesh.non_obtuse,
        },
        "params": {key: _json_float(value)
                   for key, value in asdict(setup.params).items()},
        "time": {"dt": setup.dt, "tmax": setup.tmax, "dt0": setup.dt0,
                 "steps": setup.steps},
        "energy": {"initial": first["F_total"], "final": row["F_total"]},
        "audit_all_pass": passed,
        "min_eig_sigma": low,
        "max_trace_sigma": high,
        "picard_iters_total": iters,
        "picard_worst": worst,
    }
    if init_report is not None:
        summary["initial_projection"] = {
            "bounds_hold": init_report.bounds_hold,
            "vertex_min_eig": first["min_eig_sigma"],
            "vertex_max_trace": first["max_trace_sigma"],
        }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return state, summary


def _row(step: int, state, picard_iters: int, residual: float) -> dict:
    """The ``energy.csv`` row of a state, from its energy and its audit."""
    values = {**asdict(state.energy), **asdict(state.audit), "step": step,
              "t": state.t, "F_total": state.energy.total,
              "picard_iters": picard_iters, "residual": residual,
              "audit_pass": state.audit.passed}
    return {c: values[c] for c in ENERGY_COLUMNS}


def _json_float(x):
    if x is None or math.isfinite(x):
        return x
    return "inf" if x > 0 else "-inf"


# ---------------------------------------------------------------------------
# output files


def _fmt(value) -> str:
    if isinstance(value, (bool, int, np.integer)):
        return str(value)
    return repr(float(value))


def _csv_line(row) -> str:
    return ",".join(_fmt(row[c]) for c in ENERGY_COLUMNS) + "\n"


def read_energy_csv(path) -> list:
    """The rows of an ``energy.csv``; a table that cannot be read or
    parsed raises :class:`ConfigError`."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read energy table {path}: {exc}") from exc
    if not lines or lines[0].strip().split(",") != list(ENERGY_COLUMNS):
        raise ConfigError(f"{path} is not an energy table (unexpected header)")
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.strip().split(",")
        if len(parts) != len(ENERGY_COLUMNS):
            raise ConfigError(f"{path}:{ln}: wrong number of columns")
        try:
            rows.append({key: _COLUMN_TYPES.get(key, float)(raw)
                         for key, raw in zip(ENERGY_COLUMNS, parts)})
        except ValueError as exc:
            raise ConfigError(f"{path}:{ln}: {exc}") from None
    return rows


#: the columns of a row that are fields of its :class:`StepAudit`
_AUDIT_COLUMNS = [f.name for f in fields(StepAudit)
                  if f.name in ENERGY_COLUMNS]


def audit_csv(path, tol: float = 1e-10):
    """Recheck every recorded step's energy budget.

    Uses only the table itself: each pair of rows is replayed as the
    :class:`fenep.energy.StepAudit` of a step from the previous row's
    total to the new one, with the new row's dissipation and forcing and
    the slack ``tol (1 + |F_prev| + |F_cur|)``, and must pass it.  A step
    whose budget reads a value that is not finite fails.  Returns ``(ok,
    failures)`` with the offending step numbers.
    """
    rows = read_energy_csv(path)
    failures = [
        cur["step"] for prev, cur in zip(rows, rows[1:])
        if not StepAudit(
            f_before=prev["F_total"], f_after=cur["F_total"],
            slack=tol * (1.0 + abs(prev["F_total"]) + abs(cur["F_total"])),
            **{key: cur[key] for key in _AUDIT_COLUMNS}).passed]
    return (not failures), failures


def write_vtk(path, mesh: TriMesh, velocity_vertices, *, point_tensors=None,
              cell_tensors=None, rho=None) -> None:
    """Write a legacy-ASCII VTK snapshot of one state.

    Velocity is always vertexwise (z component zero); ``point_tensors``
    (with the trace ``rho``) go to POINT_DATA and ``cell_tensors`` to
    CELL_DATA.
    """
    v = np.asarray(velocity_vertices, float)
    lines = ["# vtk DataFile Version 3.0", "fenep state", "ASCII",
             "DATASET UNSTRUCTURED_GRID",
             f"POINTS {mesh.n_vertices} double"]
    lines.extend(f"{x!r} {y!r} 0.0" for x, y in mesh.vertices.tolist())
    lines.append(f"CELLS {mesh.n_cells} {4 * mesh.n_cells}")
    lines.extend(f"3 {a} {b} {c}" for a, b, c in mesh.cells.tolist())
    lines.append(f"CELL_TYPES {mesh.n_cells}")
    lines.extend(["5"] * mesh.n_cells)
    lines.append(f"POINT_DATA {mesh.n_vertices}")
    lines.append("VECTORS velocity double")
    lines.extend(f"{ux!r} {uy!r} 0.0" for ux, uy in v.tolist())

    def scalar_block(name, vals):
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(map(repr, vals.tolist()))

    if point_tensors is not None:
        pt = np.asarray(point_tensors, float)
        for c, name in enumerate(("sig_xx", "sig_xy", "sig_yy")):
            scalar_block(name, pt[:, c])
        if rho is not None:
            scalar_block("rho", np.asarray(rho, float))
    if cell_tensors is not None:
        ct = np.asarray(cell_tensors, float)
        lines.append(f"CELL_DATA {mesh.n_cells}")
        for c, name in enumerate(("sig_xx", "sig_xy", "sig_yy")):
            scalar_block(name, ct[:, c])
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# entry points

#: the block size from which ``fenep run`` has glibc map a block on its own
MMAP_THRESHOLD = 1 << 20


def _pin_mmap_threshold() -> None:
    """Pin glibc's mmap threshold (``mallopt`` parameter -3) at
    MMAP_THRESHOLD; do nothing where the C library has no ``mallopt``.

    glibc raises the threshold to the largest mapped block freed so far.
    Past the sparse LU's large, partly touched work arrays, those come
    from the heap and fragment it, and in some processes that run many
    solves the peak resident memory creeps by 10-15 MB.  Pinned, each
    factor's arrays are mapped and returned whole when it is freed.
    """
    try:
        ctypes.CDLL(None).mallopt(-3, MMAP_THRESHOLD)
    except (AttributeError, OSError, TypeError):
        pass


def _cmd_run(args) -> int:
    _pin_mmap_threshold()
    overrides = {flag: getattr(args, flag) for flag in _FLAGS}
    cfg = parse_config(args.config)

    sweeps = [(None, None)]
    if args.sweep:
        key, _, raw = args.sweep.partition("=")
        key = key.strip()
        if key not in _SWEEPABLE:
            raise ConfigError(f"cannot sweep {key!r}")
        values = [v.strip() for v in raw.split(",") if v.strip()]
        if not values:
            raise ConfigError("--sweep needs key=v1,v2,...")
        sweeps = [(key, v) for v in values]

    runs = []       # every value is checked before the first run starts
    for key, value in sweeps:
        setup = build_setup(cfg, {**overrides, key: value} if key
                            else overrides)
        if key is not None:
            setup = replace(
                setup, out_dir=str(Path(setup.out_dir) / f"{key}_{value}"))
        runs.append((key, value, setup))

    worst = 0
    for key, value, setup in runs:
        _, summary = run_simulation(setup)
        passed = summary["audit_all_pass"]
        tag = f" [{key}={value}]" if key else ""
        print(f"run{tag}: {summary['time']['steps']} steps, "
              f"F {summary['energy']['initial']:.6g} -> "
              f"{summary['energy']['final']:.6g}, "
              f"audit {'PASS' if passed else 'FAIL'} "
              f"({setup.out_dir})")
        if not passed:
            worst = 5
    return worst


def _cmd_audit(args) -> int:
    if not _positive(args.tol):
        raise ConfigError(f"--tol must be positive and finite, got {args.tol}")
    ok, failures = audit_csv(args.csv, args.tol)
    if ok:
        print(f"audit PASS: {args.csv}")
        return 0
    print(f"audit FAIL: {args.csv}: budget violated at steps "
          f"{failures[:10]}{'...' if len(failures) > 10 else ''}",
          file=sys.stderr)
    return 5


def _cmd_mesh_gen(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be at least 1, got {args.n}")
    if not math.isfinite(args.shear):
        raise ConfigError(f"--shear must be finite, got {args.shear}")
    mesh = _sheared(structured_unit_square(args.n), args.shear)
    try:
        save_mesh(mesh, args.out)
    except OSError as exc:
        raise ConfigError(f"cannot write mesh file {args.out}: {exc}") from exc
    print(f"wrote {args.out}: {mesh.n_cells} cells, "
          f"{mesh.n_vertices} vertices, "
          f"{'non-obtuse' if mesh.non_obtuse else 'obtuse'}")
    return 0


def _cmd_verify(_args) -> int:
    from .verify import run_all
    results = run_all()
    width = max(len(name) for name, _, _ in results)
    ok = True
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        print(f"{name:<{width}}  {status}  {detail}")
        ok &= passed
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fenep",
        description="Energy-stable solvers for a dilute polymer model")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="time-step a configured scenario")
    run.add_argument("config")
    choices = {"scheme": sorted(SCHEMES),
               "velocity": sorted(_VELOCITY_TOKENS)}
    for flag, (section, key) in _FLAGS.items():
        run.add_argument(f"--{flag}", type=_KEYS[section][key][0],
                         choices=choices.get(flag),
                         help=f"overrides [{section}] {key}")
    run.add_argument("--sweep", metavar="KEY=V1,V2,...",
                     help="repeat the run over parameter values")
    run.set_defaults(fn=_cmd_run)

    audit = sub.add_parser("audit", help="recheck an energy.csv budget")
    audit.add_argument("csv")
    audit.add_argument("--tol", type=float, default=1e-10)
    audit.set_defaults(fn=_cmd_audit)

    mesh = sub.add_parser("mesh", help="mesh utilities")
    msub = mesh.add_subparsers(dest="mesh_command", required=True)
    gen = msub.add_parser("gen", help="generate a structured mesh file")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--shear", type=float, default=0.0)
    gen.set_defaults(fn=_cmd_mesh_gen)

    ver = sub.add_parser("verify", help="run built-in oracle checks")
    ver.set_defaults(fn=_cmd_verify)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MeshError as exc:
        print(f"mesh error: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
