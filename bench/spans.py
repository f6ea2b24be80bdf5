"""Outside-in tracing of ``meanrisk``'s public functions.

``Tracer.install`` wraps each target function and rebinds the wrapper in
every ``meanrisk`` module namespace that holds the original, so calls the
package makes internally (``solve_milp`` -> ``solve_lp``, ``psi_metric`` ->
``bounded_lipschitz``, ``argmin_set`` -> ``q_profile``) are caught too.
``uninstall`` puts every original back.  Nothing under ``src/`` changes.

Each call records a span: name, parent span, start, end and a size read
from the arguments.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np


def _lp_cells(prob, *args, **kwargs):
    return prob.n_rows * prob.n_vars


def _recourse_kind(model, *args, **kwargs):
    return model.kind


def _atoms_in(raw_atoms, *args, **kwargs):
    return len(raw_atoms)


def _union_atoms(mu, nu, *args, **kwargs):
    return len(np.unique(np.vstack([mu.points, nu.points]), axis=0))


def _bytes_written(path, text, *args, **kwargs):
    return len(text.encode("utf-8"))


# (module, attribute, span name, size read from the arguments).  Private
# names are the CLI's own loaders and writer; they have no public form.
TARGETS = (
    ("meanrisk.cli", "main", "cli.main", None),
    ("meanrisk.cli", "_load_model", "cli.load", None),
    ("meanrisk.cli", "_load_measure", "cli.load", None),
    ("meanrisk.cli", "_load_scheme", "cli.load", None),
    ("meanrisk.cli", "_atomic_write", "cli.write", _bytes_written),
    ("meanrisk.svgchart", "render_loglog_chart", "svgchart.render_loglog_chart", None),
    ("meanrisk.stability", "generate_sequence", "stability.generate_sequence", None),
    ("meanrisk.stability", "run_experiment", "stability.run_experiment", None),
    ("meanrisk.objective", "Q", "objective.Q", None),
    ("meanrisk.objective", "q_profile", "objective.q_profile", None),
    ("meanrisk.objective", "argmin_set", "objective.argmin_set", None),
    ("meanrisk.recourse", "eval_recourse", "recourse.eval_recourse", _recourse_kind),
    ("meanrisk.optim", "solve_lp", "optim.solve_lp", _lp_cells),
    ("meanrisk.optim", "solve_milp", "optim.solve_milp", None),
    ("meanrisk.optim", "solve_miqp", "optim.solve_miqp", None),
    ("meanrisk.optim", "solve_qp_convex", "optim.solve_qp_convex", None),
    ("meanrisk.optim", "solve_convex_mip", "optim.solve_convex_mip", None),
    ("meanrisk.risk", "evaluate_risk", "risk.evaluate_risk", None),
    ("meanrisk.measure", "canonicalize", "measure.canonicalize", _atoms_in),
    ("meanrisk.measure", "pushforward", "measure.pushforward", None),
    ("meanrisk.metrics", "bounded_lipschitz", "metrics.bounded_lipschitz", _union_atoms),
    ("meanrisk.metrics", "psi_metric", "metrics.psi_metric", None),
    ("meanrisk.metrics", "wasserstein", "metrics.wasserstein", None),
    ("meanrisk.metrics", "fortet_mourier", "metrics.fortet_mourier", None),
    ("meanrisk.metrics", "transport_plan", "metrics.transport_plan", None),
    (
        "meanrisk.metrics",
        "diagnose_uniform_integrability",
        "metrics.diagnose_uniform_integrability",
        None,
    ),
)

# Per-layer metrics: (name, unit, better).  README.md says which end-to-end
# metric each should move, on which workload.
PER_LAYER = (
    ("optim.solve_lp.calls", "count", "lower"),
    ("optim.solve_lp.s", "s", "lower"),
    ("optim.solve_lp.cells", "count", "lower"),
    ("optim.solve_lp.highs_calls", "count", "lower"),
    ("optim.solve_milp.calls", "count", "lower"),
    ("optim.solve_milp.self_s", "s", "lower"),
    ("optim.solve_milp.lp_per_call", "lp/call", "lower"),
    ("optim.solve_miqp.calls", "count", "lower"),
    ("optim.solve_miqp.self_s", "s", "lower"),
    ("optim.solve_qp_convex.calls", "count", "lower"),
    ("optim.solve_convex_mip.calls", "count", "lower"),
    ("optim.solve_convex_mip.s", "s", "lower"),
    ("recourse.eval_recourse.calls", "count", "lower"),
    ("recourse.eval_recourse.self_s", "s", "lower"),
    ("recourse.eval_recourse.linear.s", "s", "lower"),
    ("recourse.eval_recourse.milp.s", "s", "lower"),
    ("recourse.eval_recourse.miqp.s", "s", "lower"),
    ("recourse.eval_recourse.convex_mip.s", "s", "lower"),
    ("objective.Q.calls", "count", "lower"),
    ("objective.Q.self_s", "s", "lower"),
    ("objective.recourse_value.calls", "count", "lower"),
    ("objective.f_cache.hit_ratio", "ratio", "higher"),
    ("measure.canonicalize.calls", "count", "lower"),
    ("measure.canonicalize.atoms_in", "count", "lower"),
    ("measure.canonicalize.self_s", "s", "lower"),
    ("measure.pushforward.calls", "count", "lower"),
    ("measure.pushforward.self_s", "s", "lower"),
    ("risk.evaluate_risk.calls", "count", "lower"),
    ("risk.evaluate_risk.s", "s", "lower"),
    ("metrics.bounded_lipschitz.calls", "count", "lower"),
    ("metrics.bounded_lipschitz.s", "s", "lower"),
    ("metrics.bounded_lipschitz.union_atoms_max", "count", "lower"),
    ("metrics.psi_metric.self_s", "s", "lower"),
    ("metrics.wasserstein.s", "s", "lower"),
    ("metrics.fortet_mourier.s", "s", "lower"),
    ("metrics.transport_plan.s", "s", "lower"),
    ("metrics.diagnose_uniform_integrability.s", "s", "lower"),
    ("stability.generate_sequence.s", "s", "lower"),
    ("stability.run_experiment.self_s", "s", "lower"),
    ("cli.load.s", "s", "lower"),
    ("cli.write.s", "s", "lower"),
    ("cli.write.bytes", "B", "lower"),
    ("svgchart.render_loglog_chart.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Metrics that count work; they must repeat exactly between passes.
COUNT_METRICS = tuple(name for name, unit, _ in PER_LAYER if unit not in ("s",))


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self):
        self.spans = []  # [name, parent index, start, end, size]
        self._stack = []
        self._undo = []

    def _wrap(self, fn, name, size):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0,
                    size(*args, **kwargs) if size else None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def _rebind(self, original, wrapper):
        for modname, module in list(sys.modules.items()):
            if modname != "meanrisk" and not modname.startswith("meanrisk."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self):
        import scipy.optimize

        from meanrisk.objective import MeanRiskModel

        for modname, attr, name, size in TARGETS:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                print(f"trace: {modname}.{attr} not found; {name} reads 0", file=sys.stderr)
                continue
            self._rebind(original, self._wrap(original, name, size))
        method = MeanRiskModel.__dict__["recourse_value"]
        self._undo.append((MeanRiskModel, "recourse_value", method))
        MeanRiskModel.recourse_value = self._wrap(method, "objective.recourse_value", None)
        # HiGHS is reached through scipy.optimize.linprog.
        self._undo.append((scipy.optimize, "linprog", scipy.optimize.linprog))
        scipy.optimize.linprog = self._wrap(scipy.optimize.linprog, "highs.linprog", None)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self) -> dict:
        """Per-layer metrics of the recorded spans (``trace.overhead_s``
        excepted: it needs an untraced pass)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        children = defaultdict(list)
        for i, (_, parent, t0, t1, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += t1 - t0
                children[parent].append(i)

        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)  # outermost spans only, so recursion counts once
        sizes = defaultdict(list)
        names = [s[0] for s in spans]
        for i, (name, parent, t0, t1, size) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child_time[i]
            p = parent
            while p >= 0 and names[p] != name:
                p = spans[p][1]
            if p < 0:
                total_s[name] += t1 - t0
                if name == "recourse.eval_recourse":
                    total_s[f"{name}.{size}"] += t1 - t0
            if size is not None:
                sizes[name].append(size)

        def under(child, parent):
            return sum(1 for s in spans if s[0] == child and s[1] >= 0 and names[s[1]] == parent)

        lookups = calls["objective.recourse_value"]
        misses = sum(
            1
            for i, s in enumerate(spans)
            if s[0] == "objective.recourse_value"
            and any(names[c] == "recourse.eval_recourse" for c in children[i])
        )
        milp_calls = calls["optim.solve_milp"]
        out = {
            "optim.solve_lp.calls": calls["optim.solve_lp"],
            "optim.solve_lp.s": total_s["optim.solve_lp"],
            "optim.solve_lp.cells": sum(sizes["optim.solve_lp"]),
            "optim.solve_lp.highs_calls": under("highs.linprog", "optim.solve_lp"),
            "optim.solve_milp.calls": milp_calls,
            "optim.solve_milp.self_s": self_s["optim.solve_milp"],
            "optim.solve_milp.lp_per_call": (
                under("optim.solve_lp", "optim.solve_milp") / milp_calls if milp_calls else 0.0
            ),
            "optim.solve_miqp.calls": calls["optim.solve_miqp"],
            "optim.solve_miqp.self_s": self_s["optim.solve_miqp"],
            "optim.solve_qp_convex.calls": calls["optim.solve_qp_convex"],
            "optim.solve_convex_mip.calls": calls["optim.solve_convex_mip"],
            "optim.solve_convex_mip.s": total_s["optim.solve_convex_mip"],
            "recourse.eval_recourse.calls": calls["recourse.eval_recourse"],
            "recourse.eval_recourse.self_s": self_s["recourse.eval_recourse"],
            "objective.Q.calls": calls["objective.Q"],
            "objective.Q.self_s": self_s["objective.Q"],
            "objective.recourse_value.calls": lookups,
            "objective.f_cache.hit_ratio": (lookups - misses) / lookups if lookups else 0.0,
            "measure.canonicalize.calls": calls["measure.canonicalize"],
            "measure.canonicalize.atoms_in": sum(sizes["measure.canonicalize"]),
            "measure.canonicalize.self_s": self_s["measure.canonicalize"],
            "measure.pushforward.calls": calls["measure.pushforward"],
            "measure.pushforward.self_s": self_s["measure.pushforward"],
            "risk.evaluate_risk.calls": calls["risk.evaluate_risk"],
            "risk.evaluate_risk.s": total_s["risk.evaluate_risk"],
            "metrics.bounded_lipschitz.calls": calls["metrics.bounded_lipschitz"],
            "metrics.bounded_lipschitz.s": total_s["metrics.bounded_lipschitz"],
            "metrics.bounded_lipschitz.union_atoms_max": max(
                sizes["metrics.bounded_lipschitz"], default=0
            ),
            "metrics.psi_metric.self_s": self_s["metrics.psi_metric"],
            "metrics.wasserstein.s": total_s["metrics.wasserstein"],
            "metrics.fortet_mourier.s": total_s["metrics.fortet_mourier"],
            "metrics.transport_plan.s": total_s["metrics.transport_plan"],
            "metrics.diagnose_uniform_integrability.s": total_s[
                "metrics.diagnose_uniform_integrability"
            ],
            "stability.generate_sequence.s": total_s["stability.generate_sequence"],
            "stability.run_experiment.self_s": self_s["stability.run_experiment"],
            "cli.load.s": total_s["cli.load"],
            "cli.write.s": total_s["cli.write"],
            "cli.write.bytes": sum(sizes["cli.write"]),
            "svgchart.render_loglog_chart.s": total_s["svgchart.render_loglog_chart"],
        }
        for kind in ("linear", "milp", "miqp", "convex_mip"):
            out[f"recourse.eval_recourse.{kind}.s"] = total_s[f"recourse.eval_recourse.{kind}"]
        return out
