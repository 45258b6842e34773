"""Spans and counts around validus's layers, recorded from outside.

``Tracer.install`` wraps functions of the ``validus`` modules by
rebinding module attributes: every module global that holds the
original function (``from .linear import feasible`` in the analyzer,
the re-exports in ``validus/__init__``) is pointed at the wrapper, and
``uninstall`` restores them.  No source file changes.  A target the
program no longer has is skipped and listed in ``missing``, so later
versions of the program can still be traced.

A span is ``(id, parent id, name, start, end)``; the first part of its
name is the layer (module).  A layer's self time is its spans' duration
minus the time covered by their child spans, so the self times of all
layers add up to the traced operation's wall time.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional

DETECTORS = (
    "lint_rule",
    "detect_partial_infeasibility",
    "implied_bound_findings",
    "detect_redundant",
    "detect_nonrelaxing",
    "detect_nonconstraining",
    "simplify_ruleset",
)
DETECTOR_SPANS = {f"analyzer.{d}" for d in DETECTORS}
PROBES = ("analyzer.is_satisfiable", "analyzer.implied_bounds")  # counted per enclosing detector
SHAPES = ("record", "lagged", "aggregate", "record_agg")
DIAG_KINDS = ("missing_cell", "type_mismatch", "division_by_zero", "unresolved_reference", "empty_group")
LAYERS = ("bench", "cli", "csvio", "model", "schema", "rules", "classifier", "evaluator", "analyzer", "linear")


class Tracer:
    def __init__(self, rule_shapes: dict[str, str]):
        self.rule_shapes = rule_shapes
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[tuple[int, str, float]] = [(0, "", 0.0)]  # open spans
        self._next = 1
        self._rule_span: Optional[int] = None
        self._bindings: Optional[list[tuple[object, str, object, object]]] = None

    def reset(self) -> None:
        """Forget the spans and counts of the previous operation."""
        self.spans = []
        self.counts = defaultdict(float)

    # -- spans ------------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = self._next
        self._next += 1
        self._stack.append((sid, name, perf_counter()))
        return sid

    def end(self, sid: int) -> None:
        end = perf_counter()
        top, name, start = self._stack.pop()
        if top != sid:
            raise RuntimeError(f"span {name} ended out of order")
        self.spans.append((sid, self._stack[-1][0], name, start, end))

    def _wrap(self, orig: Callable, name, observe: Optional[Callable]) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.begin(name(args) if callable(name) else name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.end(sid)
            if observe is not None:
                observe(tracer, args, result)
            return result

        traced.__wrapped__ = orig
        return traced

    # -- evaluator: one span per rule, named by the rule's shape ------------

    def _close_rule(self) -> None:
        if self._rule_span is not None:
            self.end(self._rule_span)
            self._rule_span = None

    def _wrap_rule_boundary(self, orig: Callable) -> Callable:
        # evaluate_ruleset calls _rule_scoping(evaluator, rule) once at the
        # start of each rule; the rule's span runs until the next call
        tracer = self

        def boundary(evaluator, rule):
            tracer._close_rule()
            shape = tracer.rule_shapes.get(rule.name, "record")
            tracer._rule_span = tracer.begin(f"evaluator.{shape}")
            return orig(evaluator, rule)

        return boundary

    def _wrap_evaluate(self, orig: Callable) -> Callable:
        tracer = self

        def evaluate(*args, **kwargs):
            sid = tracer.begin("evaluator.evaluate")
            try:
                report = orig(*args, **kwargs)
            finally:
                tracer._close_rule()
                tracer.end(sid)
            tracer.counts["evaluator.verdicts"] += len(report.entries)
            for diag in report.diagnostics:
                tracer.counts[f"evaluator.diag.{diag.kind}"] += 1
            return report

        return evaluate

    # -- installing ---------------------------------------------------------

    def _targets(self):
        def cells(t, args, dataset):
            t.counts["csvio.cells"] += len(dataset)

        def rule_count(t, args, ruleset):
            t.counts["rules.count"] += len(ruleset)

        def rows(t, args, result):
            t.counts["linear.max_rows"] = max(t.counts["linear.max_rows"], len(args[0]))

        def feasible(t, args, result):
            rows(t, args, result)
            if result is None:
                t.counts["linear.feasible.infeasible"] += 1

        def steps(t, args, result):
            t.counts["analyzer.simplify.steps"] += len(result[1])

        def command(args):  # main(argv): one span name per CLI command
            return f"cli.{args[0][0]}"

        yield "validus.cli", "main", command, None
        yield "validus.csvio", "dataset_from_csv", "csvio.read", cells
        yield "validus.model", "build_dataset", "model.build_dataset", None
        yield "validus.model", "natural_order", "model.natural_order", None
        yield "validus.schema", "parse_schema", "schema.parse", None
        yield "validus.rules", "parse_rules", "rules.parse", rule_count
        yield "validus.classifier", "classify_rule", "classifier.classify", None
        yield "validus.analyzer", "analyze_ruleset", "analyzer.analyze_ruleset", None
        for detector in DETECTORS:
            yield "validus.analyzer", detector, f"analyzer.{detector}", steps if detector == "simplify_ruleset" else None
        yield "validus.analyzer", "compile_rules", "analyzer.compile_rules", None
        yield "validus.analyzer", "is_satisfiable", "analyzer.is_satisfiable", None
        yield "validus.analyzer", "implied_bounds", "analyzer.implied_bounds", None
        yield "validus.linear", "feasible", "linear.feasible", feasible
        yield "validus.linear", "project", "linear.project", rows

    def _swaps(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to wrap."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "validus" or n.startswith("validus."))]
        replacements: list[tuple[object, object]] = []
        for module_name, attr, name, observe in self._targets():
            orig = getattr(importlib.import_module(module_name), attr, None)
            if orig is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            replacements.append((orig, self._wrap(orig, name, observe)))
        evaluator = importlib.import_module("validus.evaluator")
        for attr, make in (("evaluate_ruleset", self._wrap_evaluate),
                           ("_rule_scoping", self._wrap_rule_boundary)):
            orig = getattr(evaluator, attr, None)
            if orig is None:
                self.missing.append(f"validus.evaluator.{attr}")
                continue
            replacements.append((orig, make(orig)))
        swaps = []
        for orig, wrapper in replacements:
            for module in modules:
                for key, value in vars(module).items():
                    if value is orig:
                        swaps.append((module, key, orig, wrapper))
        # RuleSet construction (the duplicate-name check) is a method
        ruleset = getattr(importlib.import_module("validus.rules"), "RuleSet", None)
        post_init = vars(ruleset).get("__post_init__") if ruleset is not None else None
        if post_init is None:
            self.missing.append("validus.rules.RuleSet.__post_init__")
        else:
            swaps.append((ruleset, "__post_init__", post_init, self._wrap(post_init, "rules.ruleset", None)))
        return swaps

    def install(self) -> None:
        if self._bindings is None:
            self._bindings = self._swaps()
        for owner, key, _orig, wrapper in self._bindings:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig, _wrapper in self._bindings or ():
            setattr(owner, key, orig)


def layer_metrics(spans: list[tuple[int, int, str, float, float]], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced operation (one root span)."""
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, _name, start, end in spans:
        child_time[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_time: dict[str, float] = defaultdict(float)
    probes: dict[str, int] = defaultdict(int)
    for sid, parent, name, start, end in spans:
        total[name] += end - start
        calls[name] += 1
        self_time[name.split(".", 1)[0]] += end - start - child_time[sid]
        if name in PROBES:
            up = parent
            while up in by_id:
                owner = by_id[up][2]
                if owner in DETECTOR_SPANS:
                    probes[owner] += 1
                    break
                up = by_id[up][1]

    m: dict[str, float] = {}
    for command in ("validate", "analyze", "simplify", "classify"):
        m[f"cli.{command}_s"] = total[f"cli.{command}"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    m["csvio.read_s"] = total["csvio.read"]
    m["csvio.cells"] = counts.get("csvio.cells", 0)
    m["model.build_dataset_s"] = total["model.build_dataset"]
    m["model.natural_order_s"] = total["model.natural_order"]
    m["model.natural_order_calls"] = calls["model.natural_order"]
    m["schema.parse_s"] = total["schema.parse"]
    m["rules.parse_s"] = total["rules.parse"]
    m["rules.count"] = counts.get("rules.count", 0)
    m["rules.ruleset_s"] = total["rules.ruleset"]
    m["rules.ruleset_calls"] = calls["rules.ruleset"]
    m["classifier.classify_s"] = total["classifier.classify"]
    m["classifier.calls"] = calls["classifier.classify"]
    m["evaluator.evaluate_s"] = total["evaluator.evaluate"]
    for shape in SHAPES:
        m[f"evaluator.{shape}_s"] = total[f"evaluator.{shape}"]
    m["evaluator.verdicts"] = counts.get("evaluator.verdicts", 0)
    for kind in DIAG_KINDS:
        m[f"evaluator.diag.{kind}"] = counts.get(f"evaluator.diag.{kind}", 0)
    m["analyzer.analyze_ruleset_s"] = total["analyzer.analyze_ruleset"]
    for name in ("compile_rules", "is_satisfiable"):
        m[f"analyzer.{name}_s"] = total[f"analyzer.{name}"]
        m[f"analyzer.{name}.calls"] = calls[f"analyzer.{name}"]
    for detector in DETECTORS:
        m[f"analyzer.{detector}_s"] = total[f"analyzer.{detector}"]
        m[f"analyzer.{detector}.probes"] = probes[f"analyzer.{detector}"]
    m["analyzer.simplify.steps"] = counts.get("analyzer.simplify.steps", 0)
    for name in ("feasible", "project"):
        m[f"linear.{name}_s"] = total[f"linear.{name}"]
        m[f"linear.{name}.calls"] = calls[f"linear.{name}"]
    feasible_calls = calls["linear.feasible"]
    m["linear.feasible.infeasible_ratio"] = (
        counts.get("linear.feasible.infeasible", 0) / feasible_calls if feasible_calls else 0.0)
    m["linear.max_rows"] = counts.get("linear.max_rows", 0)
    m["trace.self_sum_s"] = sum(self_time.values())
    m["trace.spans"] = len(spans)
    return m
