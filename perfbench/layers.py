"""Per-layer measurement from outside the package: span tracing and solver counts.

The layers are the package's modules. Tracing wraps their public functions
and methods; a function imported by name into another module (``from .core
import norm``) is looked up there, so every module attribute bound to the
original is replaced. Spans (name, start, end, parent span, cell) live in
flat arrays and are written out once, at the end of the run.

Solver evaluation counts come from a separate pass under ``sys.setprofile``
that watches the code objects of the link evaluation inside
``link_inverse_solve`` and of the residual inside ``weighted_project``.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from robust_oco import adversaries, core, epigraph, mirror_descent, protocol
from robust_oco import regularizer, thresholds
from robust_oco.harness import runner


def _traced_targets():
    """(span name, owner, attribute) for every wrapped function or method."""
    rounds = [
        ("adversaries.round", cls, "round")
        for cls in vars(adversaries).values()
        if isinstance(cls, type) and issubclass(cls, adversaries.Adversary)
        and cls is not adversaries.Adversary and "round" in vars(cls)
    ]
    return [
        ("core.as_vector", core, "as_vector"),
        ("core.ensure_finite", core, "ensure_finite"),
        ("core.norm", core, "norm"),
        ("core.clip_gradient", core, "clip_gradient"),
        ("core.regret_ledger.update", core.RegretLedger, "update"),
        ("core.corruption_ledger.update", core.CorruptionLedger, "update"),
        ("regularizer.advance", regularizer.HuberRegularizer, "advance"),
        ("regularizer.evaluate", regularizer.HuberRegularizer, "evaluate"),
        ("regularizer.subgradient_inverse", regularizer.HuberRegularizer,
         "radial_subgradient_inverse"),
        ("thresholds.filter_step", thresholds.GradientFilter, "step"),
        ("thresholds.tracker_step", thresholds.MagnitudeTracker, "step"),
        ("mirror_descent.observe", mirror_descent.MirrorDescentLearner, "observe"),
        ("mirror_descent.solve", mirror_descent, "link_inverse_solve"),
        ("epigraph.observe", epigraph.EpigraphLearner, "observe"),
        ("epigraph.project", epigraph, "weighted_project"),
        ("epigraph.correction", epigraph, "correction_direction"),
        ("protocol.round", protocol.RobustProtocol, "round"),
        ("protocol.update_ledgers", protocol.RobustProtocol, "_update_ledgers"),
        ("protocol.init", protocol.RobustProtocol, "__init__"),
        ("adversaries.make", adversaries, "make_adversary"),
        ("adversaries.kt_observe", adversaries.KTBettor, "observe"),
        ("harness.run_experiment", runner, "run_experiment"),
        ("harness.trace_write", runner.ExperimentTrace, "write"),
    ] + rounds


def _binding_sites(owner, attr):
    """Every (namespace owner, attribute) where the target is looked up."""
    if isinstance(owner, type):
        return [(owner, attr)]
    original = getattr(owner, attr)
    return [
        (mod, name)
        for mod_name, mod in list(sys.modules.items())
        if mod_name == "robust_oco" or mod_name.startswith("robust_oco.")
        for name, value in list(vars(mod).items())
        if value is original
    ]


class SpanRecorder:
    """In-memory spans of the traced calls, plus the protocols each cell built."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.cell = array("i")
        self.stack = [-1]
        self.current_cell = -1
        self.protocols: list = []
        self._patches: list = []

    def _wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        ident = self.names.index(name)
        name_id, parent, start, end, cell, stack = (
            self.name_id, self.parent, self.start, self.end, self.cell, self.stack
        )
        clock = time.perf_counter
        recorder = self
        capture = self.protocols.append if name == "protocol.init" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(ident)
            parent.append(stack[-1])
            cell.append(recorder.current_cell)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
                if capture is not None:
                    capture(args[0])

        return traced

    @contextmanager
    def installed(self):
        """Replace every target with its traced wrapper for the duration."""
        if not self.names:
            self._build()
        for site, attr, wrapper, _ in self._patches:
            setattr(site, attr, wrapper)
        try:
            yield self
        finally:
            for site, attr, _, original in self._patches:
                setattr(site, attr, original)

    def _build(self):
        for name, owner, attr in _traced_targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name)
            for site, site_attr in _binding_sites(owner, attr):
                self._patches.append((site, site_attr, wrapper, original))

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "cell": np.frombuffer(self.cell, dtype=np.int32),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **self.arrays())

    def totals(self) -> dict:
        """Per span name: calls, total seconds and self seconds.

        A span nested directly in a span of the same name (a reweighting
        adversary calling its base stream) is folded into its parent.
        """
        a = self.arrays()
        ids, par = a["name_id"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        nested = np.zeros(len(dur), dtype=bool)
        nested[has_parent] = ids[par[has_parent]] == ids[has_parent]
        top = ~nested
        calls = np.bincount(ids[top], minlength=len(self.names))
        total = np.bincount(ids[top], weights=dur[top], minlength=len(self.names))
        self_total = np.bincount(ids, weights=own, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(total[i]), float(self_total[i]))
            for i, name in enumerate(self.names)
        }


def _nested_codes(fn) -> set[int]:
    return {id(c) for c in fn.__code__.co_consts if hasattr(c, "co_code")}


def count_solver_work(run_cells) -> dict:
    """Run ``run_cells()`` under a profile hook and count solver evaluations.

    A solve that evaluates the link neither in its bisection nor in its
    bracket expansion is closed-form. A projection is on the boundary when
    it returns a point other than its input.
    """
    solve_code = mirror_descent.link_inverse_solve.__code__
    link_value_code = mirror_descent.link_value.__code__
    project_code = epigraph.weighted_project.__code__
    link_evals = _nested_codes(mirror_descent.link_inverse_solve)
    residuals = _nested_codes(epigraph.weighted_project)
    c = dict(solves=0, closed_form=0, bisection_evals=0, expansion_evals=0,
             projections=0, boundary=0, boundary_evals=0)
    evals = expansions = resid = 0

    def hook(frame, event, arg):
        nonlocal evals, expansions, resid
        if event == "call":
            code = frame.f_code
            if id(code) in link_evals:
                evals += 1
            elif code is link_value_code:
                expansions += 1
            elif id(code) in residuals:
                resid += 1
            elif code is solve_code:
                evals = expansions = 0
            elif code is project_code:
                resid = 0
        elif event == "return":
            code = frame.f_code
            if code is solve_code:
                c["solves"] += 1
                if evals == 0 and expansions == 0:
                    c["closed_form"] += 1
                c["bisection_evals"] += evals
                c["expansion_evals"] += expansions
            elif code is project_code:
                c["projections"] += 1
                if arg is not frame.f_locals["point"]:
                    c["boundary"] += 1
                    c["boundary_evals"] += resid

    sys.setprofile(hook)
    try:
        run_cells()
    finally:
        sys.setprofile(None)
    c["link_eval_code_found"] = bool(link_evals)
    c["residual_code_found"] = bool(residuals)
    return c


def _per(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(totals: dict, rounds: int, protocols: list, counts: dict) -> dict:
    """The per-layer metrics of a traced run; a layer that never ran reads 0."""

    def us_per_call(name):
        calls, total, _ = totals.get(name, (0, 0.0, 0.0))
        return _per(total * 1e6, calls)

    def self_us_per_call(name):
        calls, _, own = totals.get(name, (0, 0.0, 0.0))
        return _per(own * 1e6, calls)

    def calls_per_round(name):
        return _per(totals.get(name, (0, 0.0, 0.0))[0], rounds)

    def total_s(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    filters = [p.filter for p in protocols if p.filter is not None]
    trackers = [p.tracker for p in protocols if p.tracker is not None]
    steps = sum(f.pass_rounds + f.clip_rounds for f in filters)
    writes = totals.get("harness.trace_write", (0, 0.0, 0.0))
    bisections = counts["solves"] - counts["closed_form"]
    return {
        "core.as_vector.calls_per_round": calls_per_round("core.as_vector"),
        "core.as_vector.us_per_call": us_per_call("core.as_vector"),
        "core.ensure_finite.calls_per_round": calls_per_round("core.ensure_finite"),
        "core.ensure_finite.us_per_call": us_per_call("core.ensure_finite"),
        "core.norm.calls_per_round": calls_per_round("core.norm"),
        "core.norm.us_per_call": us_per_call("core.norm"),
        "core.ledgers.us_per_round": _per(
            (total_s("core.regret_ledger.update")
             + total_s("core.corruption_ledger.update")) * 1e6, rounds),
        "regularizer.advance.us_per_call": us_per_call("regularizer.advance"),
        "regularizer.evaluate.us_per_call": us_per_call("regularizer.evaluate"),
        "regularizer.subgradient_inverse.us_per_call":
            us_per_call("regularizer.subgradient_inverse"),
        "thresholds.filter_step.us_per_call": us_per_call("thresholds.filter_step"),
        "thresholds.filter_clip_share": _per(sum(f.clip_rounds for f in filters), steps),
        "thresholds.filter_doublings": _per(sum(f.doublings for f in filters), len(filters)),
        "thresholds.tracker_step.us_per_call": us_per_call("thresholds.tracker_step"),
        "thresholds.tracker_epochs": _per(sum(t.epoch_index for t in trackers), len(trackers)),
        "mirror_descent.observe.self_us_per_call": self_us_per_call("mirror_descent.observe"),
        "mirror_descent.solve.us_per_call": us_per_call("mirror_descent.solve"),
        "mirror_descent.solve.calls_per_round": calls_per_round("mirror_descent.solve"),
        "mirror_descent.solve.closed_form_share": _per(counts["closed_form"], counts["solves"]),
        "mirror_descent.solve.evals_per_bisection": _per(counts["bisection_evals"], bisections),
        "mirror_descent.solve.expansion_evals_per_solve":
            _per(counts["expansion_evals"], counts["solves"]),
        "epigraph.observe.self_us_per_call": self_us_per_call("epigraph.observe"),
        "epigraph.project.us_per_call": us_per_call("epigraph.project"),
        "epigraph.project.evals_per_boundary_call":
            _per(counts["boundary_evals"], counts["boundary"]),
        "epigraph.project.boundary_share": _per(counts["boundary"], counts["projections"]),
        "epigraph.correction.us_per_call": us_per_call("epigraph.correction"),
        "protocol.round.self_us_per_call": self_us_per_call("protocol.round"),
        "protocol.update_ledgers.us_per_call": us_per_call("protocol.update_ledgers"),
        "protocol.init.us_per_call": us_per_call("protocol.init"),
        "adversaries.make.us_per_call": us_per_call("adversaries.make"),
        "adversaries.round.us_per_call": us_per_call("adversaries.round"),
        "adversaries.kt_observe.us_per_call": us_per_call("adversaries.kt_observe"),
        "harness.run_experiment.self_us_per_round": _per(
            totals.get("harness.run_experiment", (0, 0.0, 0.0))[2] * 1e6, rounds),
        "harness.trace_write.ms_per_cell": _per(writes[1] * 1e3, writes[0]),
    }

