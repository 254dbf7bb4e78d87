"""Command line front end: configured runs, offline audits, mesh tooling.

Subcommands
-----------
``fenep run CONFIG``
    Time-step one of the built-in scenarios per an INI-style config,
    writing ``energy.csv`` (one audited budget row per step, plus a
    baseline row), ``summary.json`` and a legacy-ASCII VTK snapshot of
    the final state.  Exit code 0, or 5 when any step failed its energy
    audit; config, mesh and solver problems exit 2, 3 and 4.
``fenep audit CSV``
    Recheck the energy budget of an existing ``energy.csv`` row by row
    from the recorded columns alone; exit 5 on the first violation.
``fenep mesh gen``
    Write a structured triangulation (optionally sheared, which makes
    it obtuse) in the plain-text mesh format.
``fenep verify``
    Run the built-in oracle checks and report PASS/FAIL lines.

Config format: sections ``[model] [mesh] [time] [solver] [output]``,
``key = value`` entries, ``#`` comments; unknown sections or keys are
errors.  Floats are written with ``repr`` so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .meshing import MeshError, TriMesh, audit_mesh, load_mesh, save_mesh, structured_unit_square
from .nlsolve import PicardConfig, SolverError
from .params import ModelParams, ParameterError, validate_time_steps
from .scheme_p0 import SchemeP0
from .scheme_p1diff import SchemeP1Diff

__all__ = [
    "ConfigError",
    "SCHEMES",
    "main",
    "parse_config",
    "build_setup",
    "run_simulation",
    "write_energy_csv",
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


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


# ---------------------------------------------------------------------------
# config parsing

_SCHEMA = {
    "model": {"scenario", "amplitude", "re", "wi", "eps", "b", "delta",
              "alpha"},
    "mesh": {"n", "file", "shear"},
    "time": {"dt", "tmax", "dt0"},
    "solver": {"scheme", "velocity", "tol", "max_iters", "min_damping"},
    "output": {"dir", "vtk_every"},
}

SCHEMES = {"p0": SchemeP0, "p1diff": SchemeP1Diff}

_VELOCITY_TOKENS = {
    "p2": "velocity_p2",
    "p2r": "velocity_p2_reduced",
    "p2_reduced": "velocity_p2_reduced",
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
        if section not in _SCHEMA:
            raise ConfigError(
                f"unknown section [{section}]; expected one of "
                f"{sorted(_SCHEMA)}")
        allowed = _SCHEMA[section]
        out[section] = {}
        for key, value in parser.items(section):
            if key not in allowed:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]; allowed: "
                    f"{sorted(allowed)}")
            out[section][key] = value.strip()
    return out


def _get(cfg, section, key, default=None):
    return cfg.get(section, {}).get(key, default)


def _as_float(raw, where):
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be a number, got {raw!r}") from None


def _positive(x) -> bool:
    return math.isfinite(x) and x > 0


def _as_int(raw, where):
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be an integer, got {raw!r}") from None


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
    dt0: float
    picard: PicardConfig
    out_dir: str
    vtk_every: int


def build_setup(cfg: dict, overrides: dict | None = None) -> RunSetup:
    """Combine a parsed config with CLI overrides into a typed setup."""
    overrides = overrides or {}

    def oget(name, section, key, default=None):
        if overrides.get(name) is not None:
            return str(overrides[name])
        return _get(cfg, section, key, default)

    scheme = oget("scheme", "solver", "scheme")
    if scheme is None:
        raise ConfigError("[solver] scheme is required (p0 or p1diff)")
    if scheme not in SCHEMES:
        raise ConfigError(f"scheme must be p0 or p1diff, got {scheme!r}")
    kinds = SCHEMES[scheme].VELOCITIES

    vel_raw = oget("velocity", "solver", "velocity")
    velocity = kinds[0] if vel_raw is None else _VELOCITY_TOKENS.get(vel_raw)
    if velocity not in kinds:
        tokens = sorted(t for t, k in _VELOCITY_TOKENS.items() if k in kinds)
        raise ConfigError(f"velocity of the {scheme} scheme must be one of "
                          f"{tokens}, got {vel_raw!r}")

    # the diffusion and the smoothing of the initial data are p1diff's own
    alpha_raw = oget("alpha", "model", "alpha")
    dt0_raw = _get(cfg, "time", "dt0")
    if scheme == "p1diff" and alpha_raw is None:
        raise ConfigError("[model] alpha is required for the p1diff scheme")
    if scheme == "p0":
        for where, raw in (("[model] alpha", alpha_raw),
                           ("[time] dt0", dt0_raw)):
            if raw is not None:
                raise ConfigError(f"{where} is not used by the p0 scheme")
    try:
        params = ModelParams(
            re=_as_float(oget("re", "model", "re", "1.0"), "[model] re"),
            wi=_as_float(oget("wi", "model", "wi", "1.0"), "[model] wi"),
            eps=_as_float(oget("eps", "model", "eps", "0.5"), "[model] eps"),
            b=_as_float(oget("b", "model", "b", "5.0"), "[model] b"),
            delta=_as_float(oget("delta", "model", "delta", "0.1"),
                            "[model] delta"),
            alpha=(None if alpha_raw is None
                   else _as_float(alpha_raw, "[model] alpha")))
    except (ParameterError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    scenario = _get(cfg, "model", "scenario", "relax")
    if scenario not in ("relax", "decay", "forced-cavity"):
        raise ConfigError(
            f"scenario must be relax, decay or forced-cavity, got "
            f"{scenario!r}")
    amplitude = _as_float(_get(cfg, "model", "amplitude", "1.0"),
                          "[model] amplitude")
    if not math.isfinite(amplitude):
        raise ConfigError(f"[model] amplitude must be finite, got {amplitude}")

    n_raw = _get(cfg, "mesh", "n")
    file_raw = _get(cfg, "mesh", "file")
    if (n_raw is None) == (file_raw is None):
        raise ConfigError("[mesh] needs exactly one of 'n' or 'file'")
    mesh_n = None if n_raw is None else _as_int(n_raw, "[mesh] n")
    shear = _as_float(_get(cfg, "mesh", "shear", "0.0"), "[mesh] shear")
    if not math.isfinite(shear):
        raise ConfigError(f"[mesh] shear must be finite, got {shear}")

    dt_raw = oget("dt", "time", "dt")
    tmax_raw = oget("tmax", "time", "tmax")
    if dt_raw is None or tmax_raw is None:
        raise ConfigError("[time] dt and tmax are required")
    dt = _as_float(dt_raw, "[time] dt")
    tmax = _as_float(tmax_raw, "[time] tmax")
    if not (_positive(dt) and _positive(tmax)):
        raise ConfigError("[time] dt and tmax must be positive and finite")
    dt0 = 0.0
    if scheme == "p1diff":
        dt0 = _as_float(_get(cfg, "time", "dt0", repr(dt)), "[time] dt0")
        if not _positive(dt0):
            raise ConfigError(
                f"[time] dt0 must be positive and finite, got {dt0}")

    tol = _as_float(_get(cfg, "solver", "tol", "1e-10"), "[solver] tol")
    max_iters = _as_int(_get(cfg, "solver", "max_iters", "200"),
                        "[solver] max_iters")
    min_damping = _as_float(
        _get(cfg, "solver", "min_damping", repr(1.0 / 16.0)),
        "[solver] min_damping")
    try:
        picard = PicardConfig(tol=tol, max_iters=max_iters,
                              min_damping=min_damping)
    except ValueError as exc:
        raise ConfigError(f"[solver] {exc}") from exc

    out_dir = overrides.get("out") or _get(cfg, "output", "dir", "out")
    vtk_every = _as_int(_get(cfg, "output", "vtk_every", "0"),
                        "[output] vtk_every")
    if vtk_every < 0:
        raise ConfigError(
            f"[output] vtk_every must be 0 (off) or positive, got {vtk_every}")
    return RunSetup(
        scheme=scheme, velocity=velocity, params=params, scenario=scenario,
        amplitude=amplitude, mesh_n=mesh_n, mesh_file=file_raw, shear=shear,
        dt=dt, tmax=tmax, dt0=dt0, picard=picard,
        out_dir=str(out_dir), vtk_every=vtk_every)


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
    if setup.mesh_file is not None:
        mesh = load_mesh(setup.mesh_file)
    else:
        if setup.mesh_n < 1:
            raise ConfigError("[mesh] n must be at least 1")
        mesh = structured_unit_square(setup.mesh_n)
    return _sheared(mesh, setup.shear)


# ---------------------------------------------------------------------------
# the run loop


@dataclass
class RunResult:
    rows: list
    summary: dict
    mesh: TriMesh
    scheme: object
    state: object
    all_pass: bool
    snapshots: list = field(default_factory=list)


def run_simulation(setup: RunSetup) -> RunResult:
    mesh = _build_mesh(setup)
    u0, sigma0, forcing = scenario_fields(
        setup.scenario, setup.amplitude, setup.params)

    n_steps = max(1, int(round(setup.tmax / setup.dt)))
    validate_time_steps([setup.dt] * n_steps)

    scheme = SCHEMES[setup.scheme](mesh, setup.params,
                                   velocity=setup.velocity, forcing=forcing)
    state = scheme.initial_state(u0, sigma0, setup.dt0)
    init_report = state.initial_report

    rows = [_row(0, state, 0, 0.0)]
    all_pass = True
    snapshots = []
    worst = None
    for step in range(1, n_steps + 1):
        state, report, audit = scheme.step(state, setup.dt, setup.picard)
        all_pass &= audit.passed
        if worst is None or report.iterations > worst["iterations"]:
            worst = {"step": step, "iterations": report.iterations,
                     "history": report.history}
        if setup.vtk_every > 0 and step % setup.vtk_every == 0:
            snapshots.append((step, state))
        rows.append(_row(step, state, report.iterations, report.residual))

    summary = {
        "scheme": setup.scheme,
        "velocity": setup.velocity,
        "scenario": setup.scenario,
        "amplitude": setup.amplitude,
        "mesh": {
            "n": setup.mesh_n, "file": setup.mesh_file,
            "shear": setup.shear, "cells": mesh.n_cells,
            "vertices": mesh.n_vertices,
            "non_obtuse": bool(audit_mesh(mesh).non_obtuse),
        },
        "params": {
            "re": setup.params.re, "wi": setup.params.wi,
            "eps": setup.params.eps, "b": _json_float(setup.params.b),
            "delta": setup.params.delta,
            "alpha": setup.params.alpha,
        },
        "time": {"dt": setup.dt, "tmax": setup.tmax, "dt0": setup.dt0,
                 "steps": n_steps},
        "energy": {"initial": rows[0]["F_total"],
                   "final": rows[-1]["F_total"]},
        "audit_all_pass": bool(all_pass),
        "min_eig_sigma": min(r["min_eig_sigma"] for r in rows),
        "max_trace_sigma": max(r["max_trace_sigma"] for r in rows),
        "picard_iters_total": sum(r["picard_iters"] for r in rows),
        "picard_worst": worst,
    }
    if init_report is not None:
        summary["initial_projection"] = {
            "non_obtuse": init_report.non_obtuse,
            "bounds_hold": init_report.bounds_hold,
            "vertex_min_eig": init_report.vertex_min_eig,
            "vertex_max_trace": init_report.vertex_max_trace,
        }
    return RunResult(rows, summary, mesh, scheme, state, bool(all_pass),
                     snapshots)


def _row(step: int, state, picard_iters: int, residual: float) -> dict:
    """The ``energy.csv`` row of a state, from its energy and its audit."""
    f, audit = state.energy, state.audit
    return {
        "step": step, "t": state.t, "F_total": f.total, "kinetic": f.kinetic,
        "entropy": f.entropy, "kinetic_jump": audit.kinetic_jump,
        "viscous": audit.viscous, "relaxation": audit.relaxation,
        "diffusion_sigma": audit.diffusion_sigma,
        "diffusion_rho": audit.diffusion_rho, "forcing": audit.forcing,
        "trace_balance": audit.trace_balance,
        "min_eig_sigma": audit.min_eig_sigma,
        "max_trace_sigma": audit.max_trace_sigma,
        "picard_iters": picard_iters, "residual": residual,
        "audit_pass": audit.passed,
    }


def _json_float(x):
    if x is None or math.isfinite(x):
        return x
    return "inf" if x > 0 else "-inf"


# ---------------------------------------------------------------------------
# output files


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_energy_csv(path, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(ENERGY_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in ENERGY_COLUMNS) + "\n")


def read_energy_csv(path) -> list:
    with open(path) as fh:
        header = fh.readline().strip()
        if header.split(",") != list(ENERGY_COLUMNS):
            raise ConfigError(
                f"{path} is not an energy table (unexpected header)")
        rows = []
        for ln, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.strip().split(",")
            if len(parts) != len(ENERGY_COLUMNS):
                raise ConfigError(f"{path}:{ln}: wrong number of columns")
            row = {}
            for key, raw in zip(ENERGY_COLUMNS, parts):
                if key in ("step", "picard_iters"):
                    row[key] = int(raw)
                elif key == "audit_pass":
                    row[key] = raw == "True"
                else:
                    row[key] = float(raw)
            rows.append(row)
    return rows


def audit_csv(path, tol: float = 1e-10):
    """Recheck every recorded step's energy budget.

    Uses only the table itself: for each row, the previous row's total
    plus forcing must cover the new total plus all recorded dissipation,
    within ``tol`` scaled by the energy magnitudes.  A step whose budget
    reads a value that is not finite fails.  Returns ``(ok, failures)``
    with the offending step numbers.
    """
    rows = read_energy_csv(path)
    failures = []
    for prev, cur in zip(rows, rows[1:]):
        spent = (cur["F_total"] + cur["kinetic_jump"] + cur["viscous"]
                 + cur["relaxation"] + cur["diffusion_sigma"]
                 + cur["diffusion_rho"])
        slack = tol * (1.0 + abs(prev["F_total"]) + abs(cur["F_total"]))
        budget = prev["F_total"] + cur["forcing"] + slack
        # a NaN or inf column leaves its sum non-finite
        if not (math.isfinite(spent) and math.isfinite(budget)
                and spent <= budget):
            failures.append(cur["step"])
    return (not failures), failures


def write_vtk(path, mesh: TriMesh, velocity_vertices, *, point_tensors=None,
              cell_tensors=None, rho=None, title="fenep state") -> None:
    """Write a legacy-ASCII VTK snapshot of one state.

    Velocity is always vertexwise (z component zero); ``point_tensors``
    (with the trace ``rho``) go to POINT_DATA and ``cell_tensors`` to
    CELL_DATA.
    """
    v = np.asarray(velocity_vertices, float)
    lines = ["# vtk DataFile Version 3.0", title, "ASCII",
             "DATASET UNSTRUCTURED_GRID",
             f"POINTS {mesh.n_vertices} double"]
    for x, y in mesh.vertices.tolist():
        lines.append(f"{x!r} {y!r} 0.0")
    lines.append(f"CELLS {mesh.n_cells} {4 * mesh.n_cells}")
    for a, b, c in mesh.cells:
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {mesh.n_cells}")
    lines.extend(["5"] * mesh.n_cells)
    lines.append(f"POINT_DATA {mesh.n_vertices}")
    lines.append("VECTORS velocity double")
    for ux, uy in v.tolist():
        lines.append(f"{ux!r} {uy!r} 0.0")

    def scalar_block(name, vals):
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(repr(float(s)) for s in vals)

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


def _write_outputs(setup: RunSetup, result: RunResult) -> None:
    out = Path(setup.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_energy_csv(out / "energy.csv", result.rows)
    with open(out / "summary.json", "w") as fh:
        json.dump(result.summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    def snapshot(path, st):
        vel = result.scheme.v.vertex_values(st.u.values)
        if result.scheme.q.degree == 0:       # stress nodes on the cells
            write_vtk(path, result.mesh, vel, cell_tensors=st.sigma)
        else:
            write_vtk(path, result.mesh, vel, point_tensors=st.sigma,
                      rho=st.rho)

    for step, st in result.snapshots:
        snapshot(out / f"state_{step:04d}.vtk", st)
    snapshot(out / "final.vtk", result.state)


# ---------------------------------------------------------------------------
# entry points


def _cmd_run(args) -> int:
    overrides = {k: getattr(args, k) for k in
                 ("scheme", "velocity", "delta", "alpha", "dt", "tmax", "b",
                  "wi", "re", "eps", "out")}
    cfg = parse_config(args.config)

    sweeps = [(None, None)]
    if args.sweep:
        key, _, raw = args.sweep.partition("=")
        key = key.strip()
        if key not in ("delta", "alpha", "dt", "b", "wi", "re", "eps"):
            raise ConfigError(f"cannot sweep {key!r}")
        values = [v.strip() for v in raw.split(",") if v.strip()]
        if not values:
            raise ConfigError("--sweep needs key=v1,v2,...")
        sweeps = [(key, v) for v in values]

    worst = 0
    for key, value in sweeps:
        ov = dict(overrides)
        if key is not None:
            ov[key] = value
            base = ov.get("out") or _get(cfg, "output", "dir", "out")
            ov["out"] = str(Path(base) / f"{key}_{value}")
        setup = build_setup(cfg, ov)
        result = run_simulation(setup)
        _write_outputs(setup, result)
        tag = f" [{key}={value}]" if key else ""
        print(f"run{tag}: {len(result.rows) - 1} steps, "
              f"F {result.rows[0]['F_total']:.6g} -> "
              f"{result.rows[-1]['F_total']:.6g}, "
              f"audit {'PASS' if result.all_pass else 'FAIL'} "
              f"({setup.out_dir})")
        if not result.all_pass:
            worst = max(worst, 5)
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
    mesh = _sheared(structured_unit_square(args.n), args.shear)
    save_mesh(mesh, args.out)
    audit = audit_mesh(mesh)
    print(f"wrote {args.out}: {mesh.n_cells} cells, "
          f"{mesh.n_vertices} vertices, "
          f"{'non-obtuse' if audit.non_obtuse else 'obtuse'}")
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
    run.add_argument("--scheme", choices=sorted(SCHEMES))
    run.add_argument("--velocity", choices=sorted(_VELOCITY_TOKENS))
    for flag in ("delta", "alpha", "dt", "tmax", "b", "wi", "re", "eps"):
        run.add_argument(f"--{flag}", type=float)
    run.add_argument("--out", help="output directory (overrides config)")
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
