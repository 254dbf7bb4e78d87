"""End-to-end tests of the command-line interface.

Commands are exercised through ``cli.main`` with argv lists, so exit
codes and file outputs are checked exactly as a shell user would see
them.
"""

import copy
import json
import math
import re
import sys
import textwrap

import numpy as np
import pytest

from fenep import cli, energy, nlsolve, scheme_p1diff, verify
from fenep.cli import (
    ENERGY_COLUMNS,
    ConfigError,
    audit_csv,
    build_setup,
    main,
    parse_config,
    read_energy_csv,
    run_simulation,
    scenario_fields,
)
from fenep.meshing import TriMesh, load_mesh, save_mesh, structured_unit_square
from fenep.params import ModelParams


def write_table(path, rows):
    """An ``energy.csv`` of ``rows``, in the lines a run streams."""
    path.write_text(cli._HEADER + "".join(map(cli._csv_line, rows)))


def write_config(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


def base_config(tmp_path, scheme="p0", extra_model="", mesh="n = 2",
                solver_extra="", out="out", scenario="relax"):
    alpha = "alpha = 0.1" if scheme == "p1diff" else ""

    def ind(block):
        # keep inserted multi-line blocks flush with the template body
        return block.replace("\n", "\n        ")

    return write_config(tmp_path, f"""\
        [model]
        scenario = {scenario}
        {alpha}
        {ind(extra_model)}

        [mesh]
        {ind(mesh)}

        [time]
        dt = 0.1
        tmax = 0.3

        [solver]
        scheme = {scheme}
        {ind(solver_extra)}

        [output]
        dir = {tmp_path / out}
        """)


# ---------------------------------------------------------------------------
# config parsing and setup


def test_parse_config_rejects_unknown_section(tmp_path):
    path = write_config(tmp_path, "[banana]\nn = 2\n")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(path)


def test_parse_config_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path, "[mesh]\nresolution = 2\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(path)


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(str(tmp_path / "nope.cfg"))


def test_build_setup_requires_scheme(tmp_path):
    cfg = parse_config(write_config(
        tmp_path, "[mesh]\nn = 2\n\n[time]\ndt = 0.1\ntmax = 0.2\n"))
    with pytest.raises(ConfigError, match="scheme is required"):
        build_setup(cfg)


def test_build_setup_alpha_rules(tmp_path):
    cfg = parse_config(base_config(tmp_path, scheme="p0",
                                   extra_model="alpha = 0.1"))
    with pytest.raises(ConfigError, match="alpha is not used"):
        build_setup(cfg)
    cfg2 = parse_config(write_config(tmp_path, """\
        [mesh]
        n = 2
        [time]
        dt = 0.1
        tmax = 0.2
        [solver]
        scheme = p1diff
        """, name="noalpha.cfg"))
    with pytest.raises(ConfigError, match="alpha is required"):
        build_setup(cfg2)


def test_build_setup_mesh_source_exclusive(tmp_path):
    cfg = parse_config(base_config(tmp_path, mesh="n = 2\nfile = m.txt"))
    with pytest.raises(ConfigError, match="exactly one"):
        build_setup(cfg)
    cfg2 = parse_config(base_config(tmp_path, mesh="shear = 0.0",
                                    out="o2"))
    with pytest.raises(ConfigError, match="exactly one"):
        build_setup(cfg2)


def test_build_setup_defaults_and_overrides(tmp_path):
    cfg = parse_config(base_config(tmp_path))
    setup = build_setup(cfg)
    assert setup.velocity == "velocity_p2"
    assert setup.params.b == 5.0
    assert setup.dt0 == 0.0        # p0 does not smooth its initial data
    p1 = build_setup(parse_config(base_config(tmp_path, scheme="p1diff",
                                              out="o1")))
    assert p1.velocity == "velocity_mini" and p1.dt0 == p1.dt
    assert setup.picard.tol == 1e-10
    assert setup.picard.max_iters == 200
    over = build_setup(cfg, {"b": 8.0, "velocity": "p2r"})
    assert over.params.b == 8.0
    assert over.velocity == "velocity_p2_reduced"
    with pytest.raises(ConfigError, match="velocity"):
        build_setup(cfg, {"velocity": "p3"})
    # one spelling per velocity kind
    with pytest.raises(ConfigError, match=re.escape(
            "must be one of ['p2', 'p2r'], got 'p2_reduced'")):
        build_setup(cfg, {"velocity": "p2_reduced"})


def test_flags_name_config_keys():
    for flag, (section, key) in cli._FLAGS.items():
        assert key in cli._KEYS[section], flag
    assert cli._SWEEPABLE
    for flag in cli._SWEEPABLE:
        section, key = cli._FLAGS[flag]
        assert cli._KEYS[section][key][0] is float, flag


@pytest.mark.parametrize("section, key, raw, message", [
    ("model", "re", "fast", "[model] re must be a number, got 'fast'"),
    ("mesh", "n", "2.5", "[mesh] n must be an integer, got '2.5'"),
    ("solver", "max_iters", "many",
     "[solver] max_iters must be an integer, got 'many'"),
], ids=["re", "n", "max_iters"])
def test_build_setup_names_a_malformed_entry(tmp_path, section, key, raw,
                                             message):
    cfg = parse_config(base_config(tmp_path))
    cfg[section][key] = raw
    with pytest.raises(ConfigError) as err:
        build_setup(cfg)
    assert str(err.value) == message


def test_build_setup_counts_the_steps(tmp_path):
    cfg = parse_config(base_config(tmp_path))
    assert build_setup(cfg).steps == 3
    # 0.15 / 0.05 is 2.9999999999999996 in floating point
    assert build_setup(cfg, {"dt": 0.05, "tmax": 0.15}).steps == 3
    assert build_setup(cfg, {"dt": 1e-6, "tmax": 1.0}).steps == cli.MAX_STEPS
    # a count too large to run is refused before anything is built
    with pytest.raises(ConfigError, match="at most 1000000 steps"):
        build_setup(cfg, {"dt": 1e-12, "tmax": 1.0})


def test_run_rejects_a_step_count_that_overflows(tmp_path, capsys,
                                                 monkeypatch):
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built for a bad setting")

    monkeypatch.setattr(cli, "structured_unit_square", no_mesh)
    cfg = write_config(tmp_path, f"""\
        [mesh]
        n = 2
        [time]
        dt = 1e-300
        tmax = 1e300
        [solver]
        scheme = p0
        [output]
        dir = {tmp_path / 'out'}
        """)
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [time] tmax / dt")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dt,tmax", [(0.1, 0.25), (0.1, 0.04), (0.3, 1.0)])
def test_run_rejects_a_tmax_that_is_not_a_whole_number_of_steps(
        tmp_path, capsys, monkeypatch, dt, tmax):
    """The run would stop short of tmax, or step past it."""
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built for a bad setting")

    monkeypatch.setattr(cli, "structured_unit_square", no_mesh)
    cfg = base_config(tmp_path)
    assert main(["run", cfg, "--dt", str(dt), "--tmax", str(tmax)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [time] tmax / dt must be a whole")
    assert not (tmp_path / "out").exists()


def test_scenario_fields_shapes():
    params = ModelParams(re=1.0, wi=1.0, eps=0.5, b=5.0, delta=0.1)
    u0, sigma0, forcing = scenario_fields("relax", 1.0, params)
    assert u0 is None and forcing is None
    assert np.allclose(sigma0, [2.0, 0.0, 2.0])
    u0, sigma0, forcing = scenario_fields("decay", 2.0, params)
    assert forcing is None
    assert u0(0.5, 0.5) == pytest.approx((0.0, 0.0))
    ux, uy = u0(0.25, 0.5)
    assert (ux, uy) != (0.0, 0.0)
    _, sigma0, forcing = scenario_fields("forced-cavity", 1.0, params)
    c = 5.0 / 7.0
    assert np.allclose(sigma0, [c, 0.0, c])
    fx, fy = forcing(0.25, 0.25)
    assert fx == pytest.approx(-fy)


# ---------------------------------------------------------------------------
# the run command


def test_run_p0_roundtrip(tmp_path, capsys):
    cfg = base_config(tmp_path)
    assert main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert "3 steps" in out and "audit PASS" in out

    outdir = tmp_path / "out"
    rows = read_energy_csv(outdir / "energy.csv")
    assert len(rows) == 4
    assert rows[0]["step"] == 0 and rows[-1]["step"] == 3
    # free energy decays in the unforced relaxation scenario
    totals = [r["F_total"] for r in rows]
    assert all(b < a for a, b in zip(totals, totals[1:]))
    assert all(r["audit_pass"] for r in rows)

    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["scheme"] == "p0"
    assert summary["audit_all_pass"] is True
    assert summary["params"]["b"] == 5.0
    assert summary["time"]["steps"] == 3
    assert summary["energy"]["final"] < summary["energy"]["initial"]
    assert summary["min_eig_sigma"] > 0
    assert "initial_projection" not in summary
    worst = summary["picard_worst"]
    assert worst["iterations"] == max(r["picard_iters"] for r in rows)
    assert rows[worst["step"]]["picard_iters"] == worst["iterations"]
    assert len(worst["history"]) == worst["iterations"] + 1
    assert worst["history"][-1] == pytest.approx(
        rows[worst["step"]]["residual"])

    vtk = (outdir / "final.vtk").read_text()
    assert "CELL_DATA" in vtk and "sig_xx" in vtk
    assert "rho" not in vtk


@pytest.mark.filterwarnings("ignore::fenep.scheme_p1diff.TimeStepWarning")
@pytest.mark.parametrize("scheme", ["p0", "p1diff"])
def test_run_evaluates_free_energy_once_per_step(tmp_path, monkeypatch,
                                                 scheme):
    calls = []
    original = energy.free_energy

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # replace the function under every name a fenep module binds it to
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("fenep")
                and getattr(mod, "free_energy", None) is original):
            monkeypatch.setattr(mod, "free_energy", counted)
    state, _ = run_simulation(build_setup(parse_config(
        base_config(tmp_path, scheme=scheme))))
    rows = read_energy_csv(tmp_path / "out" / "energy.csv")
    steps = len(rows) - 1
    assert steps == 3
    assert len(calls) == 1 + steps
    assert state.energy.total == rows[-1]["F_total"]


def test_run_is_deterministic(tmp_path):
    cfg = base_config(tmp_path)
    assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", cfg, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "energy.csv").read_bytes()
    b = (tmp_path / "b" / "energy.csv").read_bytes()
    assert a == b


@pytest.mark.filterwarnings("ignore::fenep.scheme_p1diff.TimeStepWarning")
def test_run_p1diff_roundtrip(tmp_path):
    cfg = base_config(tmp_path, scheme="p1diff")
    assert main(["run", cfg]) == 0
    outdir = tmp_path / "out"
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["scheme"] == "p1diff"
    assert summary["velocity"] == "velocity_mini"
    assert summary["params"]["alpha"] == 0.1
    proj = summary["initial_projection"]
    assert summary["mesh"]["non_obtuse"] is True
    assert proj["bounds_hold"] is True
    rows = read_energy_csv(outdir / "energy.csv")
    # the projected stress's bounds are the initial state's audit row
    assert proj["vertex_min_eig"] == rows[0]["min_eig_sigma"]
    assert proj["vertex_max_trace"] == rows[0]["max_trace_sigma"]
    assert all(abs(r["trace_balance"]) < 1e-9 for r in rows)
    vtk = (outdir / "final.vtk").read_text()
    assert "POINT_DATA" in vtk and "sig_xx" in vtk and "rho" in vtk
    assert "CELL_DATA" not in vtk


@pytest.mark.filterwarnings("ignore::fenep.scheme_p1diff.TimeStepWarning")
def test_run_oldroyd_b_summary_and_vtk(tmp_path):
    cfg = base_config(tmp_path, scheme="p1diff")
    assert main(["run", cfg, "--b", "inf"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["params"]["b"] == "inf"
    vtk = (tmp_path / "out" / "final.vtk").read_text()
    assert "sig_xx" in vtk and "rho" not in vtk


def test_run_vtk_snapshots(tmp_path):
    cfg = base_config(tmp_path, extra_model="", out="snap")
    text = (tmp_path / "run.cfg").read_text().replace(
        "dir =", "vtk_every = 1\ndir =")
    (tmp_path / "run.cfg").write_text(text)
    assert main(["run", cfg, "--out", str(tmp_path / "snap")]) == 0
    names = sorted(p.name for p in (tmp_path / "snap").glob("*.vtk"))
    assert names == ["final.vtk", "state_0001.vtk", "state_0002.vtk",
                     "state_0003.vtk"]


def test_run_sweep_makes_subdirectories(tmp_path, capsys):
    cfg = base_config(tmp_path)
    assert main(["run", cfg, "--sweep", "delta=0.25,0.1",
                 "--out", str(tmp_path / "sw")]) == 0
    out = capsys.readouterr().out
    assert "[delta=0.25]" in out and "[delta=0.1]" in out
    for tag, want in (("delta_0.25", 0.25), ("delta_0.1", 0.1)):
        summary = json.loads(
            (tmp_path / "sw" / tag / "summary.json").read_text())
        assert summary["params"]["delta"] == want


@pytest.mark.parametrize("sweep", ["dt=0.1,-1", "eps=0.5,1.5"])
def test_run_sweep_checks_every_value_before_the_first_run(tmp_path, capsys,
                                                           sweep):
    cfg = base_config(tmp_path)
    assert main(["run", cfg, "--sweep", sweep,
                 "--out", str(tmp_path / "sw")]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "sw").exists()


def test_run_sweep_checks_the_step_count_at_every_dt(tmp_path, capsys):
    """At tmax = 1, dt = 0.3 would stop at t = 0.9: the sweep exits 2
    before its dt = 0.1 run."""
    cfg = base_config(tmp_path)
    assert main(["run", cfg, "--tmax", "1", "--sweep", "dt=0.1,0.3",
                 "--out", str(tmp_path / "sw")]) == 2
    assert "whole number of steps" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_run_sweep_rejects_unknown_key(tmp_path, capsys):
    cfg = base_config(tmp_path)
    assert main(["run", cfg, "--sweep", "scenario=a,b"]) == 2
    assert "cannot sweep" in capsys.readouterr().err


def test_run_exit_codes(tmp_path, capsys):
    bad = write_config(tmp_path, "[solver]\nscheme = p3\n", name="bad.cfg")
    assert main(["run", bad]) == 2
    assert "config error" in capsys.readouterr().err

    # unreadable mesh file -> mesh error
    mesh_file = tmp_path / "broken.txt"
    mesh_file.write_text("not a mesh\n")
    cfg = base_config(tmp_path, mesh=f"file = {mesh_file}")
    assert main(["run", cfg]) == 3
    assert "mesh error" in capsys.readouterr().err

    # unattainable tolerance -> solver error
    cfg2 = base_config(tmp_path,
                       solver_extra="tol = 1e-18\nmax_iters = 2",
                       out="solverr")
    assert main(["run", cfg2]) == 4
    assert "solver error" in capsys.readouterr().err


#: mesh input that must leave an earlier run's outputs alone: the
#: [mesh] entry, the exit code and the start of the message
BAD_MESHES = {
    "n_zero": ("n = 0", 2, "config error: [mesh] n must be at least 1"),
    "malformed": ("file = {dir}/broken.txt", 3, "mesh error: line 1:"),
    "missing": ("file = {dir}/missing.txt", 3,
                "mesh error: cannot read mesh file"),
    "directory": ("file = {dir}", 3, "mesh error: cannot read mesh file"),
    "non_ascii": ("file = {dir}/latin.txt", 3,
                  "mesh error: cannot read mesh file"),
    "no_cells": ("file = {dir}/no_cells.txt", 3,
                 "mesh error: {dir}/no_cells.txt: mesh has no cells"),
    "unused_vertex": ("file = {dir}/unused.txt", 3,
                      "mesh error: {dir}/unused.txt: vertex 3 is in no cell"),
    "negative_vertices": ("file = {dir}/no_vertices.txt", 3,
                          "mesh error: line 2: counts must not be negative"),
    "negative_cells": ("file = {dir}/minus_cells.txt", 3,
                       "mesh error: line 2: counts must not be negative"),
}


@pytest.mark.parametrize("case", sorted(BAD_MESHES))
def test_bad_mesh_input_leaves_an_earlier_run_alone(tmp_path, capsys,
                                                    case):
    """The mesh is read before a run replaces the outputs an earlier run
    left in its directory."""
    assert main(["run", base_config(tmp_path)]) == 0
    out = tmp_path / "out"
    outputs = ("energy.csv", "final.vtk", "summary.json")
    before = [(out / name).read_bytes() for name in outputs]
    (tmp_path / "broken.txt").write_text("not a mesh\n")
    (tmp_path / "latin.txt").write_bytes(
        "tri-mesh 2d v1  # caf\xe9\n".encode("latin-1"))
    (tmp_path / "no_cells.txt").write_text(
        "tri-mesh 2d v1\n3 0\n0 0\n1 0\n0 1\n")
    (tmp_path / "unused.txt").write_text(
        "tri-mesh 2d v1\n4 1\n0 0\n1 0\n0 1\n1 1\n0 1 2\n")
    # counts that agree with the number of lines that follow them
    (tmp_path / "no_vertices.txt").write_text("tri-mesh 2d v1\n-1 1\n")
    (tmp_path / "minus_cells.txt").write_text(
        "tri-mesh 2d v1\n3 -1\n0 0\n1 0\n")
    setting, code, message = BAD_MESHES[case]
    cfg = base_config(tmp_path, mesh=setting.format(dir=tmp_path))
    capsys.readouterr()
    assert main(["run", cfg]) == code
    assert capsys.readouterr().err.startswith(message.format(dir=tmp_path))
    assert sorted(p.name for p in out.iterdir()) == list(outputs)
    assert [(out / name).read_bytes() for name in outputs] == before


@pytest.mark.parametrize("scheme, section, setting", [
    ("p1diff", "time", "dt0 = nan"),
    ("p1diff", "time", "dt0 = -1"),
    ("p0", "solver", "tol = -1"),
    ("p0", "solver", "tol = nan"),
    ("p0", "solver", "max_iters = 0"),
    ("p0", "model", "amplitude = nan"),
    ("p0", "model", "amplitude = inf"),
    # the damping floor is a constant: setting it is an unknown key
    ("p0", "solver", "min_damping = 0"),
    ("p0", "solver", "min_damping = 2"),
    ("p0", "output", "vtk_every = -3"),
    ("p0", "mesh", "shear = nan"),
    ("p0", "mesh", "shear = inf"),
    ("p0", "time", "dt0 = 0.1"),
    ("p0", "solver", "velocity = mini"),
    ("p0", "solver", "velocity = p2_reduced"),
])
def test_run_rejects_bad_settings_before_compute(tmp_path, capsys,
                                                 monkeypatch, scheme,
                                                 section, setting):
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built for a bad setting")

    monkeypatch.setattr(cli, "structured_unit_square", no_mesh)
    sections = {"model": ["scenario = decay"], "mesh": ["n = 2"],
                "time": ["dt = 0.1", "tmax = 0.2"],
                "solver": [f"scheme = {scheme}"],
                "output": [f"dir = {tmp_path / 'out'}"]}
    if scheme == "p1diff":
        sections["model"].append("alpha = 0.1")
    sections[section].append(setting)
    cfg = write_config(tmp_path, "".join(
        f"[{name}]\n" + "".join(line + "\n" for line in lines)
        for name, lines in sections.items()))
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and setting.split()[0] in err
    assert not (tmp_path / "out").exists()


def test_run_rejects_an_output_dir_it_cannot_make(tmp_path, capsys,
                                                  monkeypatch):
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built for a bad setting")

    monkeypatch.setattr(cli, "structured_unit_square", no_mesh)
    (tmp_path / "plain").write_text("a file, not a directory\n")
    cfg = base_config(tmp_path, out="plain/out")
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [output] dir")


@pytest.mark.filterwarnings("ignore::fenep.scheme_p1diff.TimeStepWarning")
def test_a_failed_run_keeps_the_steps_it_finished(tmp_path, capsys,
                                                  monkeypatch):
    """Seven Picard iterations are too few for the third step of this
    cavity, which takes eight: the rows and snapshots of steps 0-2 stay
    on disk, each row written before the next step starts."""
    out = tmp_path / "out"
    lines_before_step = []
    step = nlsolve.ImplicitScheme.step

    def watched(self, *args, **kwargs):
        lines_before_step.append(
            len((out / "energy.csv").read_text().splitlines()))
        return step(self, *args, **kwargs)

    monkeypatch.setattr(nlsolve.ImplicitScheme, "step", watched)
    out.mkdir()
    (out / "summary.json").write_text("{}\n")     # left by an earlier run
    cfg = write_config(tmp_path, f"""\
        [model]
        scenario = forced-cavity
        alpha = 0.1
        [mesh]
        n = 3
        [time]
        dt = 0.1
        tmax = 0.4
        [solver]
        scheme = p1diff
        max_iters = 7
        [output]
        dir = {out}
        vtk_every = 1
        """)
    assert main(["run", cfg]) == 4
    assert "solver error: step at t=0.2" in capsys.readouterr().err
    rows = read_energy_csv(out / "energy.csv")
    assert [r["step"] for r in rows] == [0, 1, 2]
    assert lines_before_step == [2, 3, 4]       # the header and the rows
    assert main(["audit", str(out / "energy.csv")]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "energy.csv", "state_0001.vtk", "state_0002.vtk"]


@pytest.mark.filterwarnings("ignore:some cells have all vertices")
def test_run_with_mesh_file(tmp_path, capsys):
    mesh_path = tmp_path / "m3.txt"
    assert main(["mesh", "gen", "--n", "3", "--out", str(mesh_path)]) == 0
    msg = capsys.readouterr().out
    assert "18 cells" in msg and "non-obtuse" in msg
    mesh = load_mesh(mesh_path)
    assert mesh.n_cells == 18

    cfg = base_config(tmp_path, mesh=f"file = {mesh_path}")
    assert main(["run", cfg]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["mesh"]["cells"] == 18
    assert summary["mesh"]["file"] == str(mesh_path)


@pytest.mark.filterwarnings("ignore:some cells have all vertices")
@pytest.mark.filterwarnings("ignore::fenep.scheme_p1diff.TimeStepWarning")
def test_p1diff_run_is_invariant_under_vertex_renumbering(tmp_path):
    """The corner coefficients belong to the mesh edges, not to the cells
    that ask for them: a driven p1diff cavity on a mesh and on the same
    mesh with its vertex numbers reversed, which turns every edge around,
    takes the same Picard counts and lands on the same energy rows.  Each
    cell keeps its local vertex 0: the two edges there carry the cell's
    transport, so rotating a cell's vertex list changes the scheme
    (min_eig_sigma moves by 9e-6 on this run)."""
    mesh = structured_unit_square(4)
    new_index = mesh.n_vertices - 1 - np.arange(mesh.n_vertices)
    renumbered = TriMesh(mesh.vertices[::-1], new_index[mesh.cells])
    rows = []
    for name, m in (("base", mesh), ("renumbered", renumbered)):
        save_mesh(m, tmp_path / f"{name}.txt")
        cfg = base_config(tmp_path, scheme="p1diff", scenario="forced-cavity",
                          mesh=f"file = {tmp_path / name}.txt", out=name)
        setup = build_setup(parse_config(cfg), {"tmax": 0.2})
        assert setup.steps == 2
        run_simulation(setup)
        rows.append(read_energy_csv(tmp_path / name / "energy.csv"))
    base, other = rows
    assert len(base) == len(other) == 3
    values = [c for c in ENERGY_COLUMNS
              if c not in ("step", "picard_iters", "residual", "audit_pass")]
    for got, want in zip(other, base):
        assert got["picard_iters"] == want["picard_iters"]
        assert got["audit_pass"] and want["audit_pass"]
        for c in values:
            assert abs(got[c] - want[c]) <= 1e-12 * (1.0 + abs(want[c])), c


@pytest.mark.parametrize("n, out, message", [
    ("0", "m.txt", "config error: --n must be at least 1"),
    ("2", "no/such/dir/m.txt", "config error: cannot write mesh file"),
], ids=["n_zero", "unwritable"])
def test_mesh_gen_rejects_bad_arguments(tmp_path, capsys, n, out,
                                        message):
    argv = ["mesh", "gen", "--n", n, "--out", str(tmp_path / out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(message)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("shear", ["nan", "inf", "-inf"])
def test_mesh_gen_rejects_a_shear_that_is_not_finite(tmp_path, capsys,
                                                     shear):
    argv = ["mesh", "gen", "--n", "2", f"--shear={shear}",
            "--out", str(tmp_path / "m.txt")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        "config error: --shear must be finite")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("ignore:some cells have all vertices")
def test_mesh_gen_shear_is_obtuse(tmp_path, capsys):
    path = tmp_path / "sheared.txt"
    assert main(["mesh", "gen", "--n", "2", "--shear", "1.2",
                 "--out", str(path)]) == 0
    assert "obtuse" in capsys.readouterr().out
    mesh = load_mesh(path)
    assert mesh.vertices[:, 1].max() > 1.0


@pytest.mark.filterwarnings("ignore:some cells have all vertices")
@pytest.mark.filterwarnings("ignore::fenep.scheme_p1diff.TimeStepWarning")
def test_run_with_shear_matches_mesh_gen(tmp_path, capsys):
    path = tmp_path / "sheared.txt"
    assert main(["mesh", "gen", "--n", "2", "--shear", "1.2",
                 "--out", str(path)]) == 0
    # driven, so the uncertified diffusion terms stand above round-off
    cfg = base_config(tmp_path, scheme="p1diff", mesh="n = 2\nshear = 1.2",
                      scenario="forced-cavity")
    assert main(["run", cfg]) == 0
    outdir = tmp_path / "out"
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["mesh"]["shear"] == 1.2
    assert summary["mesh"]["non_obtuse"] is False
    assert "non_obtuse" not in summary["initial_projection"]
    lines = (outdir / "final.vtk").read_text().splitlines()
    start = lines.index("POINTS 9 double") + 1
    points = np.array([[float(c) for c in ln.split()[:2]]
                       for ln in lines[start:start + 9]])
    assert np.array_equal(points, load_mesh(path).vertices)
    # on an obtuse mesh each row's own audit leaves out the uncertified
    # diffusion terms, which ``fenep audit`` counts: the two must agree,
    # on terms above the offline slack
    rows = read_energy_csv(outdir / "energy.csv")
    assert all(cur["diffusion_sigma"]
               > 1e-10 * (1.0 + prev["F_total"] + cur["F_total"])
               for prev, cur in zip(rows, rows[1:]))
    assert main(["audit", str(outdir / "energy.csv")]) == 0


# ---------------------------------------------------------------------------
# the audit command and csv round trip


def test_energy_csv_roundtrip(tmp_path):
    rows = [
        {c: 0 for c in ENERGY_COLUMNS},
        {c: 1.5 for c in ENERGY_COLUMNS},
    ]
    rows[0].update(step=0, picard_iters=0, audit_pass=True)
    rows[1].update(step=1, picard_iters=7, audit_pass=False)
    path = tmp_path / "energy.csv"
    write_table(path, rows)
    back = read_energy_csv(path)
    assert back == [
        {**{c: 0.0 for c in ENERGY_COLUMNS},
         "step": 0, "picard_iters": 0, "audit_pass": True},
        {**{c: 1.5 for c in ENERGY_COLUMNS},
         "step": 1, "picard_iters": 7, "audit_pass": False},
    ]


def test_read_energy_csv_rejects_foreign_tables(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError, match="unexpected header"):
        read_energy_csv(path)
    good = tmp_path / "short.csv"
    good.write_text(",".join(ENERGY_COLUMNS) + "\n1,2\n")
    with pytest.raises(ConfigError, match="wrong number"):
        read_energy_csv(good)


def test_audit_command_pass_and_fail(tmp_path, capsys):
    cfg = base_config(tmp_path)
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    csv_path = tmp_path / "out" / "energy.csv"
    assert main(["audit", str(csv_path)]) == 0
    assert "audit PASS" in capsys.readouterr().out

    rows = read_energy_csv(csv_path)
    rows[-1]["F_total"] += 1.0
    write_table(csv_path, rows)
    ok, failures = audit_csv(csv_path)
    assert not ok and failures == [rows[-1]["step"]]
    assert main(["audit", str(csv_path)]) == 5
    assert "audit FAIL" in capsys.readouterr().err


def test_audit_rejects_a_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert main(["audit", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read energy table")
    assert str(missing) in err


def test_audit_rejects_a_table_that_is_not_utf8(tmp_path, capsys):
    cfg = base_config(tmp_path)
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    csv_path = tmp_path / "out" / "energy.csv"
    csv_path.write_bytes(csv_path.read_bytes() + b"\xff\xfe\n")
    assert main(["audit", str(csv_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read energy table "
                          f"{csv_path}")


def test_audit_rejects_a_non_numeric_cell(tmp_path, capsys):
    cfg = base_config(tmp_path)
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    csv_path = tmp_path / "out" / "energy.csv"
    lines = csv_path.read_text().splitlines()
    lines[2] = "x" + lines[2][1:]          # the step column of step 1
    csv_path.write_text("\n".join(lines) + "\n")
    assert main(["audit", str(csv_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {csv_path}:3:")
    assert "'x" in err


@pytest.mark.parametrize("flag", ["true", "TRUE", "1", ""])
def test_audit_rejects_a_flag_that_is_not_true_or_false(tmp_path, capsys,
                                                         flag):
    cfg = base_config(tmp_path)
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    csv_path = tmp_path / "out" / "energy.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[2].endswith(",True")
    lines[2] = lines[2][:-len("True")] + flag     # the flag of step 1
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=f"{csv_path}:3: audit_pass must "
                                          f"be True or False, not '{flag}'"):
        read_energy_csv(csv_path)
    assert main(["audit", str(csv_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {csv_path}:3:")


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_audit_rejects_bad_tolerance(tmp_path, capsys, tol):
    cfg = base_config(tmp_path)
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    csv_path = tmp_path / "out" / "energy.csv"
    assert main(["audit", str(csv_path), f"--tol={tol}"]) == 2
    assert capsys.readouterr().err.startswith("config error: --tol")


@pytest.mark.parametrize("bad", [
    {"F_total": math.nan}, {"viscous": math.nan}, {"relaxation": math.nan},
    {"F_total": math.inf, "forcing": math.inf}],
    ids=["F_nan", "viscous_nan", "relaxation_nan", "F_forcing_inf"])
def test_audit_fails_a_step_with_non_finite_terms(tmp_path, capsys, bad):
    cfg = base_config(tmp_path)
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    csv_path = tmp_path / "out" / "energy.csv"
    rows = read_energy_csv(csv_path)
    rows[-1].update(bad)
    write_table(csv_path, rows)
    ok, failures = audit_csv(csv_path)
    assert not ok and failures == [rows[-1]["step"]]
    assert main(["audit", str(csv_path)]) == 5
    assert "audit FAIL" in capsys.readouterr().err


def test_verify_command(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 5 and "FAIL" not in out


def test_verify_checks_the_advection_map_the_step_applies(monkeypatch):
    """A map that swaps the edges of the two reference directions of
    every cell fails the transport check and nothing else: the check
    reads the map the diffusive scheme's step calls."""
    original = scheme_p1diff.advection_map

    def swapped(mesh, u_cell):
        mesh = copy.copy(mesh)
        mesh.cell_edges = mesh.cell_edges[:, [0, 2, 1]]
        return original(mesh, u_cell)

    monkeypatch.setattr(scheme_p1diff, "advection_map", swapped)
    passed = {name: ok for name, ok, _ in verify.run_all()}
    assert not passed.pop("transport-identity")
    assert all(passed.values())
