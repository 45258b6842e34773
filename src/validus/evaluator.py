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
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Union

from .errors import IncompatibleScopeError, UnevaluableRulesError, UnknownVariableError, ValidusError
from .model import NA, NUMBER, Dataset, Key, Number, Value, as_number, is_number, is_text, natural_order
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
    RuleScope,
    RuleSet,
    SetLit,
    TextLit,
    Unary,
    VarRef,
    rule_scope,
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


class Entry(NamedTuple):
    """One verdict; unit or time of None means the whole dimension (ALL).
    A named tuple, so it equals the plain tuple of its fields."""

    rule: str
    table: str
    unit: Optional[str]
    time: Optional[str]
    result: TriBool


class Diagnostic(NamedTuple):
    """A note recorded while one verdict was evaluated (such as a missing
    cell or a division by zero); a named tuple, like ``Entry``."""

    rule: str
    table: str
    unit: Optional[str]
    time: Optional[str]
    kind: str
    message: str


class RuleVerdicts(NamedTuple):
    """One rule's verdicts: ``results[i]`` is its verdict at ``scopes[i]``.
    ``scopes`` is the tuple the rule's plan returned, so the record rules
    of one table all hold the dataset's own ``records`` tuple."""

    rule: str
    table: str
    scopes: tuple[tuple[Optional[str], Optional[str]], ...]
    results: list[TriBool]


@dataclass
class ValidationReport:
    """The verdict blocks in file order, each rule's tally, the
    diagnostics, and each rule's ``RuleScope`` under the schema by rule
    name, as planning resolved it (``classify_rule`` can read a rule's
    signature from it without scoping the rule again)."""

    blocks: list[RuleVerdicts] = field(default_factory=list)
    summary: dict[str, dict[str, int]] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    rule_scopes: dict[str, RuleScope] = field(default_factory=dict)

    @cached_property
    def entries(self) -> list[Entry]:
        """One ``Entry`` per verdict, in report order, built from the
        blocks on the first read."""
        return [Entry(rule, table, unit, time, result)
                for rule, table, scopes, results in self.blocks
                for (unit, time), result in zip(scopes, results)]

    def counts(self) -> dict[str, int]:
        return {key: sum(block.results.count(value) for block in self.blocks)
                for key, value in (("true", TriBool.TRUE), ("false", TriBool.FALSE), ("na", TriBool.NA))}


__all__ = ["EvalOptions", "Entry", "Diagnostic", "RuleVerdicts", "ValidationReport", "evaluate_ruleset"]


_T, _F, _N = TriBool.TRUE, TriBool.FALSE, TriBool.NA
# int / int would give a float; Fraction(a, b) is the exact quotient of any
# two numbers, and raises ZeroDivisionError when b is zero
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": Fraction}
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
Plan = tuple[str, tuple[tuple[Optional[str], Optional[str]], ...], Node]


class _Evaluator:
    """One run: the dataset, schema and options, each rule's scope and
    plan, and the (kind, message) of every diagnostic the current verdict
    recorded."""

    def __init__(self, dataset: Dataset, schema: Schema, options: EvalOptions):
        self.dataset = dataset
        self.schema = schema
        self.options = options
        self.notes: list[tuple[str, str]] = []
        self.plans: dict[str, Plan] = {}
        self.scopes: dict[str, RuleScope] = {}

    def plan(self, rule: Rule) -> Plan:
        """Scope the rule and compile it.  A rule whose scope is not
        determined fails here, whatever the data."""
        scope = self.scopes[rule.name] = rule_scope(rule, self.schema)
        for ref, table in scope.refs:
            if table is None:
                shown = ref.variable if ref.table is None else f"{ref.table}.{ref.variable}"
                raise UnknownVariableError(rule.name, shown)
        if len(scope.record_tables) > 1:
            raise IncompatibleScopeError(rule.name, "references records of several tables")
        for _, own, group in scope.aggregates:
            if len(own) > 1:
                raise IncompatibleScopeError(rule.name, "one aggregate spans several tables")
            if group is None:
                raise IncompatibleScopeError(rule.name, "aggregate group cannot be determined")
        # each reference's table and each aggregate's group, by node id
        tables = {id(node): table for node, table in scope.refs}
        tables.update((id(node), group) for node, _, group in scope.aggregates)
        body = self.compile(rule.body, tables)
        if scope.record_tables:
            record_table = next(iter(scope.record_tables))
            return record_table, self.dataset.index(record_table).records, body
        groups = sorted({group for _, _, group in scope.aggregates})
        label = groups[0] if len(groups) == 1 else ",".join(groups) if groups else "-"
        times = {t for table in groups for t in self.dataset.index(table).times}
        ordered = sorted(times, key=natural_order) if times else [None]
        return label, tuple((None, time) for time in ordered), body

    # -- compilation: one closure per node ------------------------------

    def compile(self, expr: Expr, tables: dict[int, str]) -> Node:
        if isinstance(expr, NumberLit):
            number = as_number(expr.value)
            return lambda unit, time: number
        if isinstance(expr, (TextLit, NALit)):
            value = NA if isinstance(expr, NALit) else expr.value
            return lambda unit, time: value
        if isinstance(expr, VarRef):
            return self._compile_ref(expr, tables[id(expr)])
        if isinstance(expr, Aggregate):
            return self._compile_aggregate(expr, tables)
        if isinstance(expr, If):
            cond, then = self.compile(expr.cond, tables), self.compile(expr.then, tables)
            return lambda unit, time: implies(cond(unit, time), then(unit, time))
        if isinstance(expr, Unary):
            operand = self.compile(expr.operand, tables)
            if expr.op == "not":
                return lambda unit, time: not_(operand(unit, time))
            return self._compile_sign(expr.op, operand)
        if isinstance(expr, Binary):
            left, right = self.compile(expr.left, tables), self.compile(expr.right, tables)
            if expr.op in ("and", "or"):
                connective = and2 if expr.op == "and" else or2
                return lambda unit, time: connective(left(unit, time), right(unit, time))
            if expr.op in COMPARE:
                return self._compile_compare(expr.op, left, right)
            return self._compile_arithmetic(expr.op, left, right)
        if isinstance(expr, Builtin):
            return self._compile_builtin(expr, tables)
        raise AssertionError(f"cannot evaluate {expr!r}")

    def _compile_ref(self, ref: VarRef, table: str) -> Node:
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
            if not isinstance(value, NUMBER):
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
            if not isinstance(a, NUMBER) or not isinstance(b, NUMBER):
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
            # a value that is not NA is a number or a str; str is tested
            # first, as isinstance(x, Fraction) runs ABCMeta's slow check
            if isinstance(a, str):
                if isinstance(b, str):
                    if textual:
                        return _T if test(a, b) else _F
                    notes.append(("type_mismatch", f"ordering {op} is undefined for text"))
                    return _N
            elif not isinstance(b, str):
                return _T if test(a, b) else _F
            notes.append(("type_mismatch", f"comparison {op} between number and text"))
            return _N

        return compare

    def _compile_builtin(self, expr: Builtin, tables: dict[int, str]) -> Node:
        arg = self.compile(expr.args[0], tables)
        if expr.fn == "in_set":
            items = expr.args[1]
            assert isinstance(items, SetLit)
            members = frozenset(items.items)  # a number never equals a text
            return lambda unit, time: _N if (v := arg(unit, time)) is NA else _T if v in members else _F
        if expr.fn == "is_na":
            return lambda unit, time: _T if arg(unit, time) is NA else _F
        test = _TESTS[expr.fn]
        return lambda unit, time: _T if test(arg(unit, time)) else _F

    def _compile_aggregate(self, expr: Aggregate, tables: dict[int, str]) -> Node:
        """An aggregate's value depends on the occasion, never on the unit,
        so it is computed once per (node, occasion).  A later use records
        the same diagnostics again, at its own entry's scope."""
        group_table = tables[id(expr)]
        element = self.compile(expr.arg, tables)
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


def _fold(fn: str, kept: list[Value]) -> Number:
    """The aggregate of a non-empty group without NA; every kept value is
    a number unless ``fn`` is count."""
    if fn == "count":
        return len(kept)
    if fn == "sum":
        return sum(kept)
    if fn == "mean":
        return Fraction(sum(kept), len(kept))
    if fn == "min":
        return min(kept)
    return max(kept)


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
    deterministic: one block of verdicts per rule, in file order, each
    over the rule's scopes (unit, then time, in natural order).
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

    blocks: list[RuleVerdicts] = []
    summary: dict[str, dict[str, int]] = {}
    diagnostics: list[Diagnostic] = []
    notes = evaluator.notes
    for rule in rules:
        # each rule's evaluation starts with this call, which returns the
        # plan built above (bench/tracer.py opens the rule's span on it)
        table, scopes, body = _rule_scoping(evaluator, rule)
        name = rule.name
        results: list[TriBool] = []
        append = results.append
        for unit, time in scopes:
            append(body(unit, time))
            if notes:
                diagnostics += [Diagnostic(name, table, unit, time, kind, message) for kind, message in notes]
                notes.clear()
        blocks.append(RuleVerdicts(name, table, scopes, results))
        summary[name] = {"true": results.count(_T), "false": results.count(_F), "na": results.count(_N)}

    return ValidationReport(blocks=blocks, summary=summary, diagnostics=diagnostics, rule_scopes=evaluator.scopes)
