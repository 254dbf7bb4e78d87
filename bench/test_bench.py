"""Self-tests of the benchmark: repeatable counts, the rationale of each
workload, the correctness gate, the calibration and a negative control.

    python3 -m pytest -q bench/test_bench.py

Each workload is run twice traced (about a minute in all).
"""

from __future__ import annotations

import json
import shutil
from dataclasses import replace
from pathlib import Path
from statistics import median

import pytest

import calibrate
import run
from tracing import SELF_TIME_METRICS, Tracer
from workloads import NEGATIVE_CONTROL, REFERENCE_DIR, WORKLOADS, failed_steps

REPEATED_COUNTS = (
    "nlsolve.picard_iters", "nlsolve.sweeps", "nlsolve.residual_evals",
    "nlsolve.saddle_factor_calls", "nlsolve.saddle_lu_nnz",
    "energy.free_energy_calls")


@pytest.fixture(scope="module")
def fx():
    return run.load_fenep()


@pytest.fixture(scope="module")
def traced_pairs(fx):
    """Two traced seed-0 runs of every workload."""
    pairs = {}
    with run.StepClock().installed(fx) as clock:
        for name, wl in WORKLOADS.items():
            cfg = run.write_config(wl, 0, f"{name}-selftest")
            expected = run.reference_rows(fx.cli, wl, 0)
            pairs[name] = [
                run.run_once(fx, clock, wl, cfg, run.OUT / f"{name}-selftest",
                             expected, Tracer())
                for _ in range(2)]
    return pairs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_and_gate_passes(traced_pairs, name):
    first, second = traced_pairs[name]
    assert first.failed == second.failed == 0
    for metric in REPEATED_COUNTS:
        assert first.layers[metric] == second.layers[metric], metric
    assert first.layers["nlsolve.saddle_lu_nnz"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_add_up_to_the_traced_run(traced_pairs, name):
    for rec in traced_pairs[name]:
        total = sum(rec.layers[m] for m in SELF_TIME_METRICS.values())
        assert total == pytest.approx(rec.layers["trace.run_s"], rel=1e-9)
        assert rec.layers["trace.run_s"] <= rec.wall_s


def _share(rec, metric):
    return rec.layers[metric] / rec.layers["trace.run_s"]


def test_traces_confirm_the_workload_rationale(traced_pairs):
    p0 = traced_pairs["cavity-p0"][0]
    p1 = traced_pairs["cavity-p1diff"][0]
    stiff = traced_pairs["stiff-p1diff"][0]
    largest = max(SELF_TIME_METRICS.values(), key=lambda m: p0.layers[m])
    assert largest == "nlsolve.saddle_factor_s"
    assert _share(stiff, "nlsolve.saddle_factor_s") < 0.05
    assert (_share(p1, "fespaces.kernel_s")
            > _share(p0, "fespaces.kernel_s"))
    assert (stiff.layers["nlsolve.residual_s"]
            > stiff.layers["nlsolve.sweep_s"])


def test_untraced_run_is_calibrated_around_every_step(fx):
    small = replace(WORKLOADS["cavity-p0"], n=4, steps=2)
    cfg = run.write_config(small, 0, "calibration-selftest")
    with run.StepClock().installed(fx) as clock:
        rec = run.run_once(fx, clock, small, cfg,
                           run.OUT / "calibration-selftest", None)
    assert rec.failed == 0
    assert len(rec.bursts) == small.steps + 2
    assert all(len(b) == calibrate.BURST for b in rec.bursts)
    assert run.speed(rec.bursts[:2]) == (
        calibrate.REFERENCE_S / median(rec.bursts[0] + rec.bursts[1]))
    assert rec.setup_s + sum(rec.step_s) <= rec.wall_s
    assert rec.wall_s + clock.burst_s <= rec.elapsed_s


def test_negative_control_counts_every_step_failed(fx):
    plain, traced = run.measure(fx, NEGATIVE_CONTROL, 0, 0.0, False)
    result = run.summarize(plain, traced, False)
    assert result["attempted"] == NEGATIVE_CONTROL.steps * len(plain)
    assert result["failed"] == result["attempted"]
    assert not result["correct"]


def test_gate_counts_a_mismatched_row(fx, tmp_path):
    ref = REFERENCE_DIR / "cavity-p0.csv"
    rows = fx.cli.read_energy_csv(ref)
    summary = json.dumps({"audit_all_pass": True})
    (tmp_path / "summary.json").write_text(summary)
    shutil.copyfile(ref, tmp_path / "energy.csv")
    assert failed_steps(fx.cli, tmp_path, 3, [True] * 3, rows) == set()

    rows[2]["entropy"] *= 1.0 + 1e-6
    assert failed_steps(fx.cli, tmp_path, 3, [True] * 3, rows) == {2}
    assert failed_steps(fx.cli, tmp_path, 3, [True], None) == {2, 3}


def test_gate_blames_the_failed_step_not_the_run(fx, tmp_path):
    ref = REFERENCE_DIR / "cavity-p0.csv"
    (tmp_path / "summary.json").write_text(
        json.dumps({"audit_all_pass": False}))
    shutil.copyfile(ref, tmp_path / "energy.csv")
    assert failed_steps(fx.cli, tmp_path, 3, [True, False, True]) == {2}
    assert failed_steps(fx.cli, tmp_path, 3, [True] * 3) == {1, 2, 3}
    (tmp_path / "summary.json").unlink()
    assert failed_steps(fx.cli, tmp_path, 3, [True] * 3) == {1, 2, 3}


def test_benchmark_json_lists_every_printed_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed = [*Tracer().metrics(), "trace.overhead_s"]
    assert per_layer == {m: run.metric_unit(m) for m in printed}
