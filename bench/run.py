"""End-to-end and per-layer benchmark of ``fenep run``.

Usage, from the root of a checkout:

    python3 bench/run.py --workload cavity-p0 --seed 0 --seconds 40 --trace 0
    python3 bench/run.py                 # every workload, one process each

A run imports fenep from ``src/`` of the checkout, then repeats the
workload's ``fenep run`` (``fenep.cli.main(["run", config])``: config in,
``energy.csv``, ``summary.json`` and ``final.vtk`` out) for ``--seconds``
seconds (by default ``run_seconds`` of ``BENCHMARK.json``), starting
another run only while it still fits.  Every run goes through the
correctness gate of ``workloads.failed_steps``.  The lines
printed before the last one give every metric with its unit; the last
line is one JSON object with ``correct``, ``attempted`` (planned steps),
``failed`` (steps failing the gate) and ``metrics``.

With ``--trace 0`` the only instrumentation is one ``perf_counter`` pair
around each scheme ``step`` and the calibration bursts of calibrate.py,
timed before the run, before each step and after the run; the metrics
are the end-to-end ones, in seconds at the reference machine speed.
With ``--trace 1`` untraced and traced runs alternate; the traced runs
give the per-layer metrics (see tracing.py) as raw wall times, and
their extra wall time is ``trace.overhead_s``.  All outputs go under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from dataclasses import dataclass, field, replace
from importlib import metadata
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import calibrate
from tracing import Tracer
from workloads import WORKLOADS, failed_steps, reference_rows

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: BLAS/OpenMP pools are pinned to one thread (nproc is 2 on the reference
#: machine); the solver's own work is single threaded either way.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "step_s.p50": "s",
                    "peak_rss_mb": "MB"}


def load_fenep():
    """Import fenep from this checkout's ``src/``; exit if it is absent."""
    if not (SRC / "fenep" / "__init__.py").is_file():
        sys.exit(f"bench: no fenep sources under {SRC}")
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import fenep
    from fenep import cli, scheme_p0, scheme_p1diff

    if SRC not in Path(fenep.__file__).resolve().parents:
        sys.exit(f"bench: fenep was imported from {fenep.__file__}, "
                 f"not from {SRC}")
    modules = {name.split(".")[-1]: mod for name, mod in sys.modules.items()
               if name.startswith("fenep.")}
    return SimpleNamespace(
        cli=cli, modules=modules,
        SchemeP0=scheme_p0.SchemeP0, SchemeP1Diff=scheme_p1diff.SchemeP1Diff,
        TimeStepWarning=scheme_p1diff.TimeStepWarning)


class StepClock:
    """One perf_counter pair around every scheme ``step`` call.

    With ``calibrating`` set, a calibration burst runs before each step,
    outside the step's timing.  ``bursts`` holds the kernel times of every
    burst in order, ``burst_s`` the time they took and ``setup_burst_s``
    the part of it spent before the first step.
    """

    def __init__(self):
        self.calibrating = False
        self.reset()

    def reset(self):
        self.first_start = None
        self.durations = []
        self.audits = []
        self.bursts = []
        self.burst_s = 0.0
        self.setup_burst_s = 0.0

    def calibrate(self):
        start = perf_counter()
        self.bursts.append(calibrate.burst())
        self.burst_s += perf_counter() - start

    @contextlib.contextmanager
    def installed(self, fx):
        """Time the schemes' ``step`` for the duration of the block."""
        classes = (fx.SchemeP0, fx.SchemeP1Diff)
        originals = [cls.step for cls in classes]
        try:
            for cls, step in zip(classes, originals):
                cls.step = self._timed(step)
            yield self
        finally:
            for cls, step in zip(classes, originals):
                cls.step = step

    def _timed(self, step):
        def timed(scheme, *args, **kwargs):
            if self.calibrating:
                self.calibrate()
            start = perf_counter()
            if self.first_start is None:
                self.first_start = start
                self.setup_burst_s = self.burst_s
            result = step(scheme, *args, **kwargs)
            self.durations.append(perf_counter() - start)
            self.audits.append(result[2].passed)
            return result
        return timed


@dataclass
class RunRecord:
    """One run; the times are wall times without the calibration bursts.

    ``bursts`` are the kernel times of the calibration bursts before the
    run, before each step and after the run (none for a traced run).
    The first two bracket the set-up, which is short enough to see the
    machine speed of its moment; the steps and the whole run span
    several speed changes and are scaled by all bursts of the run.
    """
    wall_s: float
    setup_s: float
    step_s: list
    planned: int
    failed: int
    time_step_warnings: int
    bursts: list = field(default_factory=list)
    elapsed_s: float = 0.0
    layers: dict = field(default_factory=dict)


@contextlib.contextmanager
def _captured():
    """Collect what a run prints and warns instead of showing it."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield sink, caught


def run_once(fx, clock, workload, cfg_path, out_dir, expected, tracer=None):
    """One ``fenep run`` of the workload, checked by the correctness gate.

    An untraced run is calibrated: bursts before it, before each step
    and after it.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    clock.reset()
    clock.calibrating = tracer is None
    begin = perf_counter()
    if clock.calibrating:
        clock.calibrate()
    traced = tracer.installed(fx) if tracer else contextlib.nullcontext()
    with _captured() as (sink, caught), traced:
        start = perf_counter()
        before = clock.burst_s
        code = fx.cli.main(["run", str(cfg_path)])
        end = perf_counter()
    wall = end - start - (clock.burst_s - before)
    setup = ((clock.first_start or end) - start
             - (clock.setup_burst_s - before if clock.first_start else 0.0))
    if clock.calibrating:
        clock.calibrate()
    if code not in (0, 4, 5):
        raise RuntimeError(f"fenep run exited {code}: {sink.getvalue()}")
    bad = failed_steps(fx.cli, out_dir, workload.steps, clock.audits,
                       expected)
    return RunRecord(
        wall_s=wall, setup_s=setup, step_s=list(clock.durations),
        planned=workload.steps, failed=len(bad),
        time_step_warnings=sum(issubclass(w.category, fx.TimeStepWarning)
                               for w in caught),
        bursts=list(clock.bursts), elapsed_s=perf_counter() - begin,
        layers=tracer.metrics() if tracer else {})


def write_config(workload, seed, name) -> Path:
    OUT.mkdir(exist_ok=True)
    out_dir = OUT / name
    cfg = OUT / f"{name}.cfg"
    cfg.write_text(workload.config_text(seed, out_dir))
    return cfg


def measure(fx, workload, seed: int, seconds: float, trace: bool):
    """Measure the workload for ``seconds``.

    Returns ``(plain, traced)``, the untraced and traced run records.  A
    one-step run at n = 4 and a calibration burst first warm lazy imports
    and allocator pools.
    Whole runs follow, each started only while it still fits the window.
    With ``trace`` untraced and traced runs alternate, at least one of
    each.  Seed 0 is checked
    against the recorded reference rows, other seeds against the first
    run of the process.
    """
    with StepClock().installed(fx) as clock:
        return _measure(fx, clock, workload, seed, seconds, trace)


def _measure(fx, clock, workload, seed, seconds, trace):
    warm = replace(workload, n=4, steps=1)
    with _captured():
        fx.cli.main(["run", str(write_config(warm, seed, "warm-up"))])
    calibrate.burst()

    name = f"{workload.name}-seed{seed}"
    cfg = write_config(workload, seed, name)
    expected = reference_rows(fx.cli, workload, seed)
    begin = perf_counter()
    plain, traced, last_tracer = [], [], None
    longest = 0.0
    while True:
        tracer = Tracer() if trace and len(plain) > len(traced) else None
        rec = run_once(fx, clock, workload, cfg, OUT / name, expected, tracer)
        (traced if tracer else plain).append(rec)
        last_tracer = tracer or last_tracer
        if expected is None and rec.failed == 0:
            expected = fx.cli.read_energy_csv(OUT / name / "energy.csv")
        longest = max(longest, rec.elapsed_s)
        if (perf_counter() - begin + longest > seconds
                and (traced or not trace)):
            break
    if last_tracer:
        last_tracer.write_spans(OUT / f"{name}-spans.csv")
    return plain, traced


def summarize(plain, traced, trace: bool) -> dict:
    runs = plain + traced
    attempted = sum(r.planned for r in runs)
    failed = sum(r.failed for r in runs)
    if trace:
        metrics = {m: statistics.median(r.layers[m] for r in traced)
                   for m in traced[0].layers}
        metrics["trace.overhead_s"] = statistics.median(
            t.layers["trace.run_s"] - p.wall_s for p, t in zip(plain, traced))
    else:
        metrics = {
            "run_s": statistics.median(
                r.wall_s * speed(r.bursts) for r in plain),
            "setup_s": statistics.median(
                r.setup_s * speed(r.bursts[:2]) for r in plain),
            "step_s.p50": median_or_none(
                [s * speed(r.bursts) for r in plain for s in r.step_s]),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": metric_unit(m)}
                    for m, v in metrics.items()},
    }


def speed(bursts) -> float:
    """REFERENCE_S over the median kernel time of ``bursts``.

    A time measured between these bursts, times this factor, is in
    seconds at the reference machine speed (see calibrate.py).
    """
    return calibrate.REFERENCE_S / statistics.median(
        t for burst in bursts for t in burst)


def median_or_none(values):
    """Median of the samples; None when no step completed."""
    return statistics.median(values) if values else None


def metric_unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def _fmt(value) -> str:
    return f"{'n/a':>14}" if value is None else f"{value:>14.6g}"


def report_lines(result: dict, plain, traced) -> list:
    runs = plain + traced
    steps = sum(len(r.step_s) for r in plain)
    frac = result["failed"] / result["attempted"]
    lines = [f"{m:<40} {_fmt(e['value'])} {e['unit']}"
             for m, e in result["metrics"].items()]
    lines.append(f"{'runs':<40} {len(plain):>14d} untraced, "
                 f"{len(traced)} traced")
    lines.append(f"{'step_s.samples':<40} {steps:>14d} count")
    if plain:
        wall = statistics.median(r.wall_s for r in plain)
        factor = statistics.median(speed(r.bursts) for r in plain)
        lines.append(f"{'run_s.wall':<40} {_fmt(wall)} s (uncalibrated)")
        lines.append(f"{'machine_speed':<40} {_fmt(factor)} x reference")
    lines.append(f"{'step_fail_frac':<40} {frac:>14.6g} "
                 f"({result['failed']} of {result['attempted']} "
                 "planned steps)")
    lines.append(f"{'time_step_warnings':<40} "
                 f"{sum(r.time_step_warnings for r in runs):>14d} count "
                 "(expected for p1diff, not failures)")
    return lines


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_info() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": {v: os.environ.get(v, "1") for v in THREAD_VARS},
    }


def run_all(args) -> int:
    """Every workload in a fresh process; prints a table and one JSON line."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *table, last = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(table))
        results[name] = json.loads(last)
    print(json.dumps({"machine": machine_info(), "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window; default: run_seconds of "
                        "BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    fx = load_fenep()
    plain, traced = measure(fx, WORKLOADS[args.workload], args.seed,
                            args.seconds, bool(args.trace))
    result = summarize(plain, traced, bool(args.trace))
    print("\n".join(report_lines(result, plain, traced)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
