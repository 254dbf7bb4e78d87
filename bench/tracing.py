"""Layer spans of one ``fenep run``, recorded from outside the package.

The tracer wraps public functions of the fenep modules for the length
of one run and restores them afterwards.  A function defined in fenep is
replaced under every name a fenep module binds it to (the schemes import
``picard_solve`` and the fespaces kernels by name, and tensorcalc calls
its own helpers through module globals), so a call is recorded wherever
it is made.  A foreign function (``splu``) is replaced only in the
module named, which decides the layer it is charged to.

Each span keeps its layer, start, end and parent span in memory.  A
layer's self time is the time its spans cover minus the time their
child spans cover, so the self times of all layers add up to the root
span, the whole ``cli.main`` call.  Only the layers in COMPOSITE_LAYERS
record the wrapped calls made inside them; the others are leaves, whose
nested calls (the tensorcalc helpers of an energy function, say) are
counted but charged to the leaf.  That keeps the audit's spectral work
in ``energy.audit`` and the span count small.

The two schemes share the ``scheme.*`` layers, so a layer metric means
the same on every workload: ``scheme.step`` is either scheme's ``step``,
``scheme.transport`` its stress transport operator (``upwind_matrix`` of
p0, ``lambda_transport`` of p1diff) and ``scheme.stress_factor`` the
``splu`` calls made by the scheme module itself.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter

#: layers whose wrapped callees are recorded as child spans
COMPOSITE_LAYERS = frozenset({
    "cli.run", "scheme.step", "nlsolve.picard", "nlsolve.sweep",
    "nlsolve.residual", "scheme.transport"})

#: layer -> metric reporting its self time
SELF_TIME_METRICS = {
    "cli.run": "cli.self_s",
    "meshing.build": "meshing.build_s",
    "fespaces.assemble": "fespaces.assemble_s",
    "fespaces.kernel": "fespaces.kernel_s",
    "fespaces.convection": "fespaces.convection_s",
    "nlsolve.picard": "nlsolve.picard_self_s",
    "nlsolve.sweep": "nlsolve.sweep_self_s",
    "nlsolve.residual": "nlsolve.residual_self_s",
    "nlsolve.saddle_factor": "nlsolve.saddle_factor_s",
    "nlsolve.saddle_solve": "nlsolve.saddle_solve_s",
    "tensorcalc.spectral": "tensorcalc.spectral_s",
    "scheme.step": "scheme.step_self_s",
    "scheme.transport": "scheme.transport_s",
    "scheme.stress_factor": "scheme.stress_factor_s",
    "energy.audit": "energy.audit_s",
    "cli.output": "cli.output_s",
}

#: layer -> metric counting its recorded spans
CALL_METRICS = {
    "nlsolve.saddle_factor": "nlsolve.saddle_factor_calls",
    "nlsolve.saddle_solve": "nlsolve.saddle_solve_calls",
    "nlsolve.sweep": "nlsolve.sweeps",
    "nlsolve.residual": "nlsolve.residual_evals",
    "fespaces.kernel": "fespaces.kernel_calls",
    "scheme.stress_factor": "scheme.stress_factor_calls",
    "scheme.transport": "scheme.transport_calls",
}

#: (module, names, layer): module-level functions wrapped as layer spans
_FUNCTIONS = (
    ("meshing", ("structured_unit_square", "load_mesh", "audit_mesh"),
     "meshing.build"),
    ("fespaces", ("build_space", "velocity_mass", "velocity_stiffness",
                  "divergence_matrix", "pressure_integral_vector",
                  "velocity_load", "scalar_stiffness", "lumped_weights"),
     "fespaces.assemble"),
    ("fespaces", ("grad_coupling_load", "cell_mean_gradient",
                  "cell_mean_velocity", "vertex_weighted_gradient"),
     "fespaces.kernel"),
    ("fespaces", ("convection_matrix",), "fespaces.convection"),
    ("energy", ("free_energy", "relaxation_dissipation",
                "tensor_gradient_energy", "audit_slack", "audit_step"),
     "energy.audit"),
    ("scheme_p0", ("spd_audit",), "energy.audit"),
    ("scheme_p0", ("upwind_matrix",), "scheme.transport"),
    ("scheme_p1diff", ("lambda_transport",), "scheme.transport"),
    ("scheme_p0", ("splu",), "scheme.stress_factor"),
    ("scheme_p1diff", ("splu",), "scheme.stress_factor"),
    ("cli", ("write_energy_csv", "write_vtk"), "cli.output"),
    ("cli", ("main",), "cli.run"),
)


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans = []          # [layer, start, end, parent index or -1]
        self.counts = Counter()
        self.lu_nnz = None       # nnz(L) + nnz(U) of the first saddle factor
        self._stack = []

    def wrap(self, layer, fn, count=None):
        """``fn`` recorded as a span of ``layer``, its calls under ``count``.

        A call made while a leaf span or a span of ``layer`` itself is
        open is counted but not recorded.
        """
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if count:
                counts[count] += 1
            if stack:
                open_layer = spans[stack[-1]][0]
                if open_layer == layer or open_layer not in COMPOSITE_LAYERS:
                    return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([layer, perf_counter(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        return traced

    def _picard(self, picard_solve):
        """Picard driver whose problem's sweep and residual are spans."""
        def picard(problem, x0, config=None):
            problem.sweep = self.wrap("nlsolve.sweep", problem.sweep)
            problem.residual = self.wrap("nlsolve.residual", problem.residual)
            x, report = picard_solve(problem, x0, config)
            self.counts["nlsolve.picard_calls"] += 1
            self.counts["nlsolve.picard_iters"] += report.iterations
            return x, report
        return self.wrap("nlsolve.picard", picard)

    def _saddle_init(self, init):
        traced_init = self.wrap("nlsolve.saddle_factor", init)

        def saddle_init(op, *args, **kwargs):
            traced_init(op, *args, **kwargs)
            lu = getattr(op, "_lu", None)
            if self.lu_nnz is None and lu is not None:
                self.lu_nnz = lu.L.nnz + lu.U.nnz
        return saddle_init

    def _replacements(self, fx):
        """(owner, attribute, original, wrapper) for every patched name."""
        out = []
        mods = fx.modules

        def rebind_everywhere(orig, new):
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        out.append((mod, attr, orig, new))

        for mod_name, names, layer in _FUNCTIONS:
            mod = mods[mod_name]
            for name in names:
                orig = getattr(mod, name, None)
                if orig is None:
                    continue
                count = ("energy.free_energy_calls" if name == "free_energy"
                         else None)
                new = self.wrap(layer, orig, count=count)
                if getattr(orig, "__module__", "").startswith("fenep"):
                    rebind_everywhere(orig, new)
                else:
                    out.append((mod, name, orig, new))

        tc = mods["tensorcalc"]
        for name in tc.__all__:
            orig = getattr(tc, name)
            if callable(orig) and not isinstance(orig, type):
                count = "tensorcalc.eig_calls" if name == "eig_sym" else None
                rebind_everywhere(orig, self.wrap(
                    "tensorcalc.spectral", orig, count=count))

        rebind_everywhere(mods["nlsolve"].picard_solve,
                          self._picard(mods["nlsolve"].picard_solve))
        saddle = mods["nlsolve"].SaddleOperator
        out.append((saddle, "__init__", saddle.__init__,
                    self._saddle_init(saddle.__init__)))
        out.append((saddle, "solve", saddle.solve,
                    self.wrap("nlsolve.saddle_solve", saddle.solve)))
        for cls in (fx.SchemeP0, fx.SchemeP1Diff):
            out.append((cls, "step", cls.step,
                        self.wrap("scheme.step", cls.step)))
        return out

    @contextmanager
    def installed(self, fx):
        """Patch the fenep modules for the duration of the block."""
        patches = self._replacements(fx)
        try:
            for owner, attr, _, new in patches:
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, orig, _ in reversed(patches):
                setattr(owner, attr, orig)

    def metrics(self) -> dict:
        """Per-layer self times, counts and derived ratios of the run."""
        self_s = Counter()
        total_s = Counter()
        calls = Counter()
        for layer, start, end, parent in self.spans:
            dur = end - start
            self_s[layer] += dur
            total_s[layer] += dur
            calls[layer] += 1
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
        out = {metric: self_s[layer]
               for layer, metric in SELF_TIME_METRICS.items()}
        out.update({metric: calls[layer]
                    for layer, metric in CALL_METRICS.items()})
        sweeps, evals = calls["nlsolve.sweep"], calls["nlsolve.residual"]
        out.update({
            "nlsolve.sweep_s": total_s["nlsolve.sweep"],
            "nlsolve.residual_s": total_s["nlsolve.residual"],
            "nlsolve.picard_iters": self.counts["nlsolve.picard_iters"],
            "nlsolve.backtracks":
                evals - sweeps - self.counts["nlsolve.picard_calls"],
            "nlsolve.accept_ratio": sweeps / evals if evals else 0.0,
            "nlsolve.saddle_lu_nnz": self.lu_nnz or 0,
            "tensorcalc.eig_calls": self.counts["tensorcalc.eig_calls"],
            "energy.free_energy_calls":
                self.counts["energy.free_energy_calls"],
            "trace.run_s": total_s["cli.run"],
        })
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("layer,start_s,end_s,parent\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for layer, start, end, parent in self.spans:
                fh.write(f"{layer},{start - t0!r},{end - t0!r},{parent}\n")
