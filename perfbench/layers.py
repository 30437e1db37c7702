"""Per-layer tracing from outside the program.

The tracer replaces module-level names of circumlab with timing wrappers.
circumlab imports names into each module (``fem`` does
``from .mesh import stats``; ``constants``, ``fem`` and ``cli`` each
import ``make_rule``), so a function is replaced under every name that
holds it, in every circumlab module, unless the span is restricted to
the modules named in ``only``.

Spans nest: each keeps the time its child spans covered, so a layer's
self time is its duration minus that part.  A span whose name is already
open further up the stack adds to the self time but not to the inclusive
time, so recursion through the same layer is not counted twice.
"""
from __future__ import annotations

import dataclasses
import sys
import time
from collections import Counter, defaultdict

import numpy as np

_perf = time.perf_counter

PER_LAYER = (
    # name, unit, better
    ("fields.eval_s", "s", "lower"),
    ("fields.eval_calls", "count", "lower"),
    ("fields.points", "count", "lower"),
    ("geometry.batch_s", "s", "lower"),
    ("geometry.metrics_s", "s", "lower"),
    ("quadrature.seminorm_s", "s", "lower"),
    ("quadrature.seminorm_calls", "count", "lower"),
    ("quadrature.make_rule_calls", "count", "lower"),
    ("quadrature.rule_points", "count", "lower"),
    ("interp.error_report_s", "s", "lower"),
    ("interp.p1_interpolate_s", "s", "lower"),
    ("constants.audit_s", "s", "lower"),
    ("constants.rayleigh_s", "s", "lower"),
    ("basis.tabulate_s", "s", "lower"),
    ("basis.tabulate_calls", "count", "lower"),
    ("mesh.gen_s", "s", "lower"),
    ("mesh.stats_s", "s", "lower"),
    ("mesh.write_s", "s", "lower"),
    ("mesh.read_s", "s", "lower"),
    ("mesh.validate_s", "s", "lower"),
    ("mesh.bytes", "bytes", "lower"),
    ("fem.assemble_s", "s", "lower"),
    ("fem.solve_s", "s", "lower"),
    ("fem.cg_iterations", "count", "lower"),
    ("fem.cg_iterations_finest", "count", "lower"),
    ("fem.us_per_iter", "us", "lower"),
    ("fem.dofs", "count", "lower"),
    ("fem.error_s", "s", "lower"),
    ("report.emit_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
)

# counts that must repeat exactly from pass to pass and from run to run
EXACT_COUNTS = (
    "fields.points", "fields.eval_calls", "quadrature.seminorm_calls",
    "quadrature.make_rule_calls", "quadrature.rule_points",
    "basis.tabulate_calls", "fem.cg_iterations", "fem.cg_iterations_finest",
    "fem.dofs", "mesh.bytes",
)


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # [span name, time covered by children]
        self._open: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: defaultdict = defaultdict(int)
        self.last_cg_iterations = 0

    def wrap(self, span: str, fn, count: str | None = None, after=None):
        """Timing wrapper; ``count`` names a call counter, ``after`` is
        called as after(tracer, result, args) once the call returns."""
        tracer = self

        def wrapper(*args, **kwargs):
            if count is not None:
                tracer.counts[count] += 1
            outer = tracer._open[span] == 0
            tracer._open[span] += 1
            frame = [span, 0.0]
            tracer._stack.append(frame)
            t0 = _perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                tracer._stack.pop()
                tracer._open[span] -= 1
                if tracer._stack:
                    tracer._stack[-1][1] += dt
                tracer.self_time[span] += dt - frame[1]
                if outer:
                    tracer.inclusive[span] += dt
            if after is not None:
                after(tracer, out, args)
            return out

        return wrapper

    def _replace(self, orig, new, only: tuple[str, ...] | None) -> None:
        names = only or [n for n in sys.modules
                         if n == "circumlab" or n.startswith("circumlab.")]
        for modname in names:
            mod = sys.modules[modname]
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, new)
                    self._patches.append((mod, name, orig))

    def patch(self, module, attr: str, span: str, count: str | None = None,
              after=None, only: tuple[str, ...] | None = None) -> None:
        """Replace ``module.attr`` under every name that holds it in the
        circumlab modules (or in the modules listed in ``only``)."""
        orig = getattr(module, attr)
        self._replace(orig, self.wrap(span, orig, count=count, after=after), only)

    def uninstall(self) -> None:
        for mod, name, orig in reversed(self._patches):
            setattr(mod, name, orig)
        self._patches.clear()

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics name."""
        from circumlab import (_basis, cli, constants, fem, fields, geometry,
                               interp, mesh, quadrature, report)

        def field_eval(fn):
            def count_points(tr, out, args):
                tr.counts["fields.points"] += int(np.size(args[0]))
            return self.wrap("fields.eval", fn, count="fields.eval_calls",
                             after=count_points)

        orig_get_field = fields.get_field

        def get_field(name):
            f = orig_get_field(name)
            return dataclasses.replace(
                f,
                value=field_eval(f.value),
                grad=None if f.grad is None else field_eval(f.grad),
                hess=None if f.hess is None else field_eval(f.hess),
            )

        self._replace(orig_get_field, get_field, None)

        for attr in ("random_triangles", "edge_lengths_and_area",
                     "kobayashi_constant", "circumradius"):
            # only the batch calls the benchmark makes through the package
            self.patch(geometry, attr, "geometry.batch", only=("circumlab",))
        self.patch(geometry, "metrics", "geometry.metrics",
                   only=("circumlab.interp",))

        def rule_points(tr, out, args):
            tr.counts["quadrature.rule_points"] += len(out.weights)

        self.patch(quadrature, "make_rule", "quadrature.make_rule",
                   count="quadrature.make_rule_calls", after=rule_points)
        self.patch(quadrature, "seminorm", "quadrature.seminorm",
                   count="quadrature.seminorm_calls")
        self.patch(quadrature, "seminorm_auto", "quadrature.seminorm")

        self.patch(interp, "error_report", "interp.error_report")
        self.patch(interp, "p1_interpolate", "interp.p1_interpolate")

        self.patch(constants, "lemma_inequality_audit", "constants.audit")
        for attr in ("rayleigh_A", "rayleigh_B", "rayleigh_D"):
            self.patch(constants, attr, "constants.rayleigh")
        self.patch(_basis, "tabulate", "basis.tabulate",
                   count="basis.tabulate_calls")

        def written(tr, out, args):
            tr.counts["mesh.bytes"] += len(out)

        def parsed(tr, out, args):
            tr.counts["mesh.bytes"] += len(args[0])

        for attr in ("gen_uniform", "gen_crisscross_aniso", "gen_lens"):
            self.patch(mesh, attr, "mesh.gen")
        self.patch(mesh, "stats", "mesh.stats")
        self.patch(mesh, "write_mesh", "mesh.write", after=written)
        self.patch(mesh, "read_mesh", "mesh.read", after=parsed)
        self.patch(mesh, "validate", "mesh.validate")

        def solved(tr, out, args):
            iterations = out[1].iterations
            tr.counts["fem.cg_iterations"] += iterations
            tr.counts["fem.dofs"] += len(args[0].rhs)
            tr.last_cg_iterations = iterations

        self.patch(fem, "assemble", "fem.assemble")
        self.patch(fem, "solve_cg", "fem.solve", after=solved)
        for attr in ("h1_error", "interpolation_h1_error", "hessian_seminorm"):
            self.patch(fem, attr, "fem.error")

        for attr in ("json_text", "csv_text", "write_text"):
            self.patch(report, attr, "report.emit")
        for attr in [a for a in vars(cli) if a.startswith("_cmd_")]:
            self.patch(cli, attr, "cli.handler", only=("circumlab.cli",))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of everything recorded since the last reset."""
        inc, own, cnt = self.inclusive, self.self_time, self.counts
        solve_s = inc["fem.solve"]
        iters = cnt["fem.cg_iterations"]
        return {
            "fields.eval_s": inc["fields.eval"],
            "fields.eval_calls": cnt["fields.eval_calls"],
            "fields.points": cnt["fields.points"],
            "geometry.batch_s": inc["geometry.batch"],
            "geometry.metrics_s": inc["geometry.metrics"],
            "quadrature.seminorm_s": inc["quadrature.seminorm"],
            "quadrature.seminorm_calls": cnt["quadrature.seminorm_calls"],
            "quadrature.make_rule_calls": cnt["quadrature.make_rule_calls"],
            "quadrature.rule_points": cnt["quadrature.rule_points"],
            "interp.error_report_s": inc["interp.error_report"],
            "interp.p1_interpolate_s": inc["interp.p1_interpolate"],
            "constants.audit_s": inc["constants.audit"],
            "constants.rayleigh_s": inc["constants.rayleigh"],
            "basis.tabulate_s": inc["basis.tabulate"],
            "basis.tabulate_calls": cnt["basis.tabulate_calls"],
            "mesh.gen_s": inc["mesh.gen"],
            "mesh.stats_s": inc["mesh.stats"],
            "mesh.write_s": inc["mesh.write"],
            "mesh.read_s": own["mesh.read"],
            "mesh.validate_s": inc["mesh.validate"],
            "mesh.bytes": cnt["mesh.bytes"],
            "fem.assemble_s": inc["fem.assemble"],
            "fem.solve_s": solve_s,
            "fem.cg_iterations": iters,
            "fem.cg_iterations_finest": self.last_cg_iterations,
            "fem.us_per_iter": 1e6 * solve_s / iters if iters else 0.0,
            "fem.dofs": cnt["fem.dofs"],
            "fem.error_s": inc["fem.error"],
            "report.emit_s": inc["report.emit"],
            "cli.self_s": own["cli.handler"],
        }
