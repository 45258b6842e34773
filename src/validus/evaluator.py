"""Evaluates rule sets against datasets under three-valued logic.

Each rule is scheduled over the scopes it needs: plain record rules get
one verdict per (unit, occasion) of their table, aggregate rules one
verdict per occasion (unit = ALL), and single-occasion data collapses
the occasion dimension as well.  Each rule is compiled once per run
into a plan: one closure per node, with its table column, lag,
comparison and aggregate memo bound in, so a verdict is one call tree
over the dataset's table index.  Both operands of every node are
evaluated, in source order, so every diagnostic is recorded.  Missing
values, type confusion, division by zero, and lags reaching before the
first occasion or into an occasion the table lacks all evaluate to NA
instead of aborting the run; each records a diagnostic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Union

from .errors import IncompatibleScopeError, UnevaluableRulesError, UnknownVariableError, ValidusError
from .model import NA, Dataset, Key, Value, is_number, is_text, natural_order
from .rules import (
    COMPARE,
    Aggregate,
    Binary,
    Builtin,
    Expr,
    If,
    NALit,
    NumberLit,
    Rule,
    RuleSet,
    SetLit,
    TextLit,
    Unary,
    VarRef,
    scoped_nodes,
)
from .schema import Schema
from .tribool import TriBool, and2, implies, not_, or2

NA_POLICIES = ("propagate", "ignore")


@dataclass(frozen=True)
class EvalOptions:
    na_policy: str = "propagate"

    def __post_init__(self) -> None:
        if self.na_policy not in NA_POLICIES:
            raise ValueError(f"na_policy must be one of {NA_POLICIES}, not {self.na_policy!r}")


@dataclass(frozen=True)
class Entry:
    """One verdict; unit or time of None means the whole dimension (ALL)."""

    rule: str
    table: str
    unit: Optional[str]
    time: Optional[str]
    result: TriBool


@dataclass(frozen=True)
class Diagnostic:
    rule: str
    table: str
    unit: Optional[str]
    time: Optional[str]
    kind: str
    message: str


@dataclass
class ValidationReport:
    entries: list[Entry] = field(default_factory=list)
    summary: dict[str, dict[str, int]] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        results = [entry.result for entry in self.entries]
        return {"true": results.count(TriBool.TRUE), "false": results.count(TriBool.FALSE),
                "na": results.count(TriBool.NA)}


__all__ = ["EvalOptions", "Entry", "Diagnostic", "ValidationReport", "evaluate_ruleset"]


_T, _F, _N = TriBool.TRUE, TriBool.FALSE, TriBool.NA
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_TESTS = {
    "is_number": is_number,
    "is_integer": lambda v: is_number(v) and v.denominator == 1,
    "is_text": is_text,
}

# A compiled node: (unit, occasion) -> value or truth value.  unit is
# None only where no record is in scope, and no reference reads it there.
Node = Callable[[Optional[str], Optional[str]], Union[Value, TriBool]]
# The rule's plan: the table its verdicts are reported under, its scopes
# in report order, and its compiled body.
Plan = tuple[str, list[tuple[Optional[str], Optional[str]]], Node]


class _Evaluator:
    """One run: the dataset, schema and options, each rule's plan, and the
    (kind, message) of every diagnostic the current verdict recorded."""

    def __init__(self, dataset: Dataset, schema: Schema, options: EvalOptions):
        self.dataset = dataset
        self.schema = schema
        self.options = options
        self.notes: list[tuple[str, str]] = []
        self.plans: dict[str, Plan] = {}
        self._resolved: dict[tuple[Optional[str], str], str] = {}

    def _resolve(self, rule_name: str, ref: VarRef) -> str:
        name = (ref.table, ref.variable)
        if name not in self._resolved:
            hit = self.schema.lookup(ref.table, ref.variable)
            if hit is None:  # not cached, so each rule that uses it is named
                shown = ref.variable if ref.table is None else f"{ref.table}.{ref.variable}"
                raise UnknownVariableError(rule_name, shown)
            self._resolved[name] = hit[0]
        return self._resolved[name]

    def scoping(self, rule: Rule) -> tuple[Optional[str], dict[int, str]]:
        """The table whose records the rule is evaluated on (None for a
        rule evaluated once per occasion) and the group table of each of
        its aggregates, keyed by node id.  Resolves every reference, so a
        rule whose scope is not determined fails here, whatever the data."""
        nodes = scoped_nodes(rule.body)
        # tables referenced directly in each scope: None or an aggregate's id
        scope_tables: dict[Optional[int], set[str]] = {}
        for node, scope in nodes:
            if isinstance(node, VarRef):
                key = None if scope is None else id(scope)
                scope_tables.setdefault(key, set()).add(self._resolve(rule.name, node))
        bare_tables = scope_tables.get(None, set())
        if len(bare_tables) > 1:
            raise IncompatibleScopeError(rule.name, "references records of several tables")
        record_table = next(iter(bare_tables), None)
        groups: dict[int, str] = {}
        for node, scope in nodes:  # every aggregate comes after its enclosing one
            if isinstance(node, Aggregate):
                own = scope_tables.get(id(node), set())
                if len(own) > 1:
                    raise IncompatibleScopeError(rule.name, "one aggregate spans several tables")
                enclosing = record_table if scope is None else groups[id(scope)]
                group = next(iter(own), enclosing)
                if group is None:
                    raise IncompatibleScopeError(rule.name, "aggregate group cannot be determined")
                groups[id(node)] = group
        return record_table, groups

    def plan(self, rule: Rule) -> Plan:
        record_table, groups = self.scoping(rule)
        body = self.compile(rule.body, groups)
        if record_table is not None:
            return record_table, self.dataset.index(record_table).records, body
        tables = sorted(set(groups.values()))
        label = tables[0] if len(tables) == 1 else ",".join(tables) if tables else "-"
        times = {t for table in tables for t in self.dataset.index(table).times}
        ordered = sorted(times, key=natural_order) if times else [None]
        return label, [(None, time) for time in ordered], body

    # -- compilation: one closure per node ------------------------------

    def compile(self, expr: Expr, groups: dict[int, str]) -> Node:
        if isinstance(expr, (NumberLit, TextLit, NALit)):
            value = NA if isinstance(expr, NALit) else expr.value
            return lambda unit, time: value
        if isinstance(expr, VarRef):
            return self._compile_ref(expr)
        if isinstance(expr, Aggregate):
            return self._compile_aggregate(expr, groups)
        if isinstance(expr, If):
            cond, then = self.compile(expr.cond, groups), self.compile(expr.then, groups)
            return lambda unit, time: implies(cond(unit, time), then(unit, time))
        if isinstance(expr, Unary):
            operand = self.compile(expr.operand, groups)
            if expr.op == "not":
                return lambda unit, time: not_(operand(unit, time))
            return self._compile_sign(expr.op, operand)
        if isinstance(expr, Binary):
            left, right = self.compile(expr.left, groups), self.compile(expr.right, groups)
            if expr.op in ("and", "or"):
                connective = and2 if expr.op == "and" else or2
                return lambda unit, time: connective(left(unit, time), right(unit, time))
            if expr.op in COMPARE:
                return self._compile_compare(expr.op, left, right)
            return self._compile_arithmetic(expr.op, left, right)
        if isinstance(expr, Builtin):
            return self._compile_builtin(expr, groups)
        raise AssertionError(f"cannot evaluate {expr!r}")

    def _compile_ref(self, ref: VarRef) -> Node:
        table = self._resolved[ref.table, ref.variable]
        variable, lag, notes = ref.variable, ref.lag, self.notes
        index = self.dataset.index(table)
        column = index.columns.get(variable, {})

        def cell(unit, time):
            try:
                return column[unit, time]
            except KeyError:
                notes.append(("missing_cell", f"no data point for {Key(table, time, unit, variable)!r}"))
                return NA

        if lag == 0:
            return cell
        times, positions = index.times, index.positions
        earlier = {time: times[i - lag] for i, time in enumerate(times) if i >= lag}

        def lagged(unit, time):
            if time in earlier:
                return cell(unit, earlier[time])
            if time in positions:
                notes.append(("unresolved_reference", f"{variable}@{lag} reaches before the first occasion"))
            else:
                notes.append(("unresolved_reference",
                              f"{variable}@{lag}: occasion {time} is not an occasion of table {table}"))
            return NA

        return lagged

    def _compile_sign(self, op: str, operand: Node) -> Node:
        apply = operator.neg if op == "neg" else abs
        notes = self.notes

        def sign(unit, time):
            value = operand(unit, time)
            if value is NA:
                return NA
            if not isinstance(value, Fraction):
                notes.append(("type_mismatch", f"{op} applied to text {value!r}"))
                return NA
            return apply(value)

        return sign

    def _compile_arithmetic(self, op: str, left: Node, right: Node) -> Node:
        apply, notes = _ARITHMETIC[op], self.notes

        def arithmetic(unit, time):
            a, b = left(unit, time), right(unit, time)
            if a is NA or b is NA:
                return NA
            if not isinstance(a, Fraction) or not isinstance(b, Fraction):
                notes.append(("type_mismatch", f"arithmetic {op} on text operand"))
                return NA
            try:
                return apply(a, b)
            except ZeroDivisionError:
                notes.append(("division_by_zero", "division by zero"))
                return NA

        return arithmetic

    def _compile_compare(self, op: str, left: Node, right: Node) -> Node:
        test, textual, notes = COMPARE[op], op in ("==", "!="), self.notes

        def compare(unit, time):
            a, b = left(unit, time), right(unit, time)
            if a is NA or b is NA:
                return _N
            if isinstance(a, Fraction) and isinstance(b, Fraction):
                return _T if test(a, b) else _F
            if isinstance(a, str) and isinstance(b, str):
                if textual:
                    return _T if test(a, b) else _F
                notes.append(("type_mismatch", f"ordering {op} is undefined for text"))
                return _N
            notes.append(("type_mismatch", f"comparison {op} between number and text"))
            return _N

        return compare

    def _compile_builtin(self, expr: Builtin, groups: dict[int, str]) -> Node:
        arg = self.compile(expr.args[0], groups)
        if expr.fn == "in_set":
            items = expr.args[1]
            assert isinstance(items, SetLit)
            members = frozenset(items.items)  # a number never equals a text
            return lambda unit, time: _N if (v := arg(unit, time)) is NA else _T if v in members else _F
        if expr.fn == "is_na":
            return lambda unit, time: _T if arg(unit, time) is NA else _F
        test = _TESTS[expr.fn]
        return lambda unit, time: _T if test(arg(unit, time)) else _F

    def _compile_aggregate(self, expr: Aggregate, groups: dict[int, str]) -> Node:
        """An aggregate's value depends on the occasion, never on the unit,
        so it is computed once per (node, occasion).  A later use records
        the same diagnostics again, at its own entry's scope."""
        group_table = groups[id(expr)]
        element = self.compile(expr.arg, groups)
        units = self.dataset.index(group_table).units
        fn, notes = expr.fn, self.notes
        numeric = fn != "count"
        propagate = self.options.na_policy == "propagate"
        memo: dict[Optional[str], tuple[Value, list[tuple[str, str]]]] = {}

        def compute(time):
            kept: list[Value] = []
            saw_na = False
            for unit in units:
                value = element(unit, time)
                if numeric and isinstance(value, str):
                    notes.append(("type_mismatch", f"{fn} over text value {value!r}"))
                    value = NA
                if value is NA:
                    saw_na = True
                else:
                    kept.append(value)
            if saw_na and propagate:
                return NA
            if not kept:
                notes.append(("empty_group", f"{fn} over an empty group in table {group_table!r}"))
                return NA
            return _fold(fn, kept)

        def aggregate(unit, time):
            hit = memo.get(time)
            if hit is None:
                start = len(notes)
                value = compute(time)
                hit = memo[time] = value, notes[start:]
            else:
                notes.extend(hit[1])
            return hit[0]

        return aggregate


def _fold(fn: str, kept: list[Value]) -> Fraction:
    """The aggregate of a non-empty group without NA."""
    if fn == "count":
        return Fraction(len(kept))
    numbers = [v for v in kept if isinstance(v, Fraction)]
    if fn == "sum":
        return sum(numbers, Fraction(0))
    if fn == "mean":
        return sum(numbers, Fraction(0)) / len(numbers)
    if fn == "min":
        return min(numbers)
    return max(numbers)


def _rule_scoping(evaluator: _Evaluator, rule: Rule) -> Plan:
    """The rule's plan, built on the first call for the rule and returned
    again on later ones.  Building it resolves every reference and the
    rule's scope, so a rule that cannot be evaluated fails here, whatever
    the data."""
    plan = evaluator.plans.get(rule.name)
    if plan is None:
        plan = evaluator.plans[rule.name] = evaluator.plan(rule)
    return plan


def evaluate_ruleset(rules: RuleSet, dataset: Dataset, schema: Schema,
                     options: EvalOptions = EvalOptions()) -> ValidationReport:
    """Evaluate every rule over every scope it applies to.

    Every rule is planned before the first verdict: one rule that cannot
    be evaluated raises its own error, several raise
    UnevaluableRulesError naming each in file order.  The report is
    deterministic: entries are ordered by rule (file order), then table,
    unit, and time in natural order.
    """
    evaluator = _Evaluator(dataset, schema, options)
    failures: list[ValidusError] = []
    for rule in rules:
        try:
            _rule_scoping(evaluator, rule)
        except (UnknownVariableError, IncompatibleScopeError) as exc:
            failures.append(exc)
    if len(failures) == 1:
        raise failures[0]
    if failures:
        raise UnevaluableRulesError(failures)

    entries: list[Entry] = []
    summary: dict[str, dict[str, int]] = {}
    diagnostics: list[Diagnostic] = []
    notes = evaluator.notes
    for rule in rules:
        # each rule's evaluation starts with this call, which returns the
        # plan built above (bench/tracer.py opens the rule's span on it)
        table, scopes, body = _rule_scoping(evaluator, rule)
        name = rule.name
        verdicts = []
        for unit, time in scopes:
            verdict = body(unit, time)
            verdicts.append(verdict)
            entries.append(Entry(name, table, unit, time, verdict))
            if notes:
                diagnostics += [Diagnostic(name, table, unit, time, kind, message) for kind, message in notes]
                notes.clear()
        summary[name] = {"true": verdicts.count(_T), "false": verdicts.count(_F), "na": verdicts.count(_N)}

    return ValidationReport(entries=entries, summary=summary, diagnostics=diagnostics)
