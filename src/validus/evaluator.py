"""Evaluates rule sets against datasets under three-valued logic.

Each rule is scheduled over the scopes it needs: plain record rules get
one verdict per (unit, occasion) of their table, aggregate rules one
verdict per occasion (unit = ALL), and single-occasion data collapses
the occasion dimension as well.  Missing values, type confusion,
division by zero, and lags reaching before the first occasion or into
an occasion the table lacks all evaluate to NA instead of aborting the
run; each records a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .errors import IncompatibleScopeError, UnknownVariableError
from .model import NA, Dataset, Key, Value, is_na, natural_order
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
from .tribool import TriBool, and_, implies, not_, or_

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
        total = {"true": 0, "false": 0, "na": 0}
        for entry in self.entries:
            total[entry.result.value] += 1
        return total


__all__ = ["EvalOptions", "Entry", "Diagnostic", "ValidationReport", "evaluate_ruleset"]


class _Evaluator:
    def __init__(self, dataset: Dataset, schema: Schema, options: EvalOptions):
        self.dataset = dataset
        self.schema = schema
        self.options = options
        self.diagnostics: list[Diagnostic] = []
        self._times: dict[str, list[Optional[str]]] = {}
        self._units: dict[str, list[str]] = {}
        self._records: dict[str, list[tuple[str, Optional[str]]]] = {}
        self._positions: dict[str, dict[Optional[str], int]] = {}
        self._resolved: dict[tuple[Optional[str], str], str] = {}
        # the current rule's group table per id of its Aggregate nodes
        self.groups: dict[int, str] = {}
        # (id of Aggregate node, occasion) -> (value, (kind, message) of
        # each diagnostic the evaluation recorded), for the current rule
        self.aggregates: dict[tuple[int, Optional[str]], tuple[Value, list[tuple[str, str]]]] = {}
        self._entry_scope: tuple[str, str, Optional[str], Optional[str]] = ("", "", None, None)

    # -- dataset access ----------------------------------------------

    def times(self, table: str) -> list[Optional[str]]:
        if table not in self._times:
            self._times[table] = self.dataset.times(table)
        return self._times[table]

    def units(self, table: str) -> list[str]:
        if table not in self._units:
            self._units[table] = self.dataset.units(table)
        return self._units[table]

    def records(self, table: str) -> list[tuple[str, Optional[str]]]:
        if table not in self._records:
            self._records[table] = self.dataset.records(table)
        return self._records[table]

    def positions(self, table: str) -> dict[Optional[str], int]:
        if table not in self._positions:
            self._positions[table] = {t: i for i, t in enumerate(self.times(table))}
        return self._positions[table]

    def _diag(self, kind: str, message: str) -> None:
        rule, table, unit, time = self._entry_scope
        self.diagnostics.append(Diagnostic(rule, table, unit, time, kind, message))

    def _resolve(self, rule_name: str, ref: VarRef) -> str:
        name = (ref.table, ref.variable)
        if name not in self._resolved:
            hit = self.schema.lookup(ref.table, ref.variable)
            if hit is None:  # not cached, so each rule that uses it is named
                shown = ref.variable if ref.table is None else f"{ref.table}.{ref.variable}"
                raise UnknownVariableError(rule_name, shown)
            self._resolved[name] = hit[0]
        return self._resolved[name]

    def _cell(self, table: str, unit: str, time: Optional[str], variable: str, lag: int) -> Value:
        if lag > 0:
            position = self.positions(table).get(time)
            if position is None:
                self._diag("unresolved_reference",
                           f"{variable}@{lag}: occasion {time} is not an occasion of table {table}")
                return NA
            if position < lag:
                self._diag("unresolved_reference", f"{variable}@{lag} reaches before the first occasion")
                return NA
            time = self.times(table)[position - lag]
        key = Key(table, time, unit, variable)
        if key not in self.dataset:
            self._diag("missing_cell", f"no data point for {key!r}")
            return NA
        return self.dataset.get(key)

    # -- expression evaluation ---------------------------------------

    def eval_logical(self, expr: Expr, unit: Optional[str], time: Optional[str]) -> TriBool:
        result = self.eval(expr, unit, time)
        assert isinstance(result, TriBool)
        return result

    def eval(self, expr: Expr, unit: Optional[str], time: Optional[str]) -> Union[Value, TriBool]:
        if isinstance(expr, NumberLit):
            return expr.value
        if isinstance(expr, TextLit):
            return expr.value
        if isinstance(expr, NALit):
            return NA
        if isinstance(expr, VarRef):
            assert unit is not None, "bare variable reference outside record scope"
            ref_table = self._resolved[expr.table, expr.variable]
            return self._cell(ref_table, unit, time, expr.variable, expr.lag)
        if isinstance(expr, Aggregate):
            return self._aggregate(expr, time)
        if isinstance(expr, Unary):
            return self._unary(expr, unit, time)
        if isinstance(expr, Binary):
            return self._binary(expr, unit, time)
        if isinstance(expr, If):
            cond = self.eval_logical(expr.cond, unit, time)
            then = self.eval_logical(expr.then, unit, time)
            return implies(cond, then)
        if isinstance(expr, Builtin):
            return self._builtin(expr, unit, time)
        raise AssertionError(f"cannot evaluate {expr!r}")

    def _unary(self, expr: Unary, unit, time) -> Union[Value, TriBool]:
        if expr.op == "not":
            return not_(self.eval_logical(expr.operand, unit, time))
        value = self.eval(expr.operand, unit, time)
        if is_na(value):
            return NA
        if not isinstance(value, Fraction):
            self._diag("type_mismatch", f"{expr.op} applied to text {value!r}")
            return NA
        return -value if expr.op == "neg" else abs(value)

    def _binary(self, expr: Binary, unit, time) -> Union[Value, TriBool]:
        if expr.op in ("and", "or"):
            left = self.eval_logical(expr.left, unit, time)
            right = self.eval_logical(expr.right, unit, time)
            return and_([left, right]) if expr.op == "and" else or_([left, right])

        left = self.eval(expr.left, unit, time)
        right = self.eval(expr.right, unit, time)
        if expr.op in ("+", "-", "*", "/"):
            if is_na(left) or is_na(right):
                return NA
            if not isinstance(left, Fraction) or not isinstance(right, Fraction):
                self._diag("type_mismatch", f"arithmetic {expr.op} on text operand")
                return NA
            if expr.op == "/":
                if right == 0:
                    self._diag("division_by_zero", "division by zero")
                    return NA
                return left / right
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            return left * right

        # comparison
        if is_na(left) or is_na(right):
            return TriBool.NA
        if isinstance(left, Fraction) and isinstance(right, Fraction):
            return TriBool.of(COMPARE[expr.op](left, right))
        if isinstance(left, str) and isinstance(right, str):
            if expr.op in ("==", "!="):
                return TriBool.of(COMPARE[expr.op](left, right))
            self._diag("type_mismatch", f"ordering {expr.op} is undefined for text")
            return TriBool.NA
        self._diag("type_mismatch", f"comparison {expr.op} between number and text")
        return TriBool.NA

    def _builtin(self, expr: Builtin, unit, time) -> TriBool:
        if expr.fn == "in_set":
            value = self.eval(expr.args[0], unit, time)
            if is_na(value):
                return TriBool.NA
            items = expr.args[1]
            assert isinstance(items, SetLit)
            return TriBool.of(any(value == item for item in items.items))
        value = self.eval(expr.args[0], unit, time)
        if expr.fn == "is_na":
            return TriBool.of(is_na(value))
        if is_na(value):
            return TriBool.FALSE
        if expr.fn == "is_number":
            return TriBool.of(isinstance(value, Fraction))
        if expr.fn == "is_integer":
            return TriBool.of(isinstance(value, Fraction) and value.denominator == 1)
        return TriBool.of(isinstance(value, str))  # is_text

    def _aggregate(self, expr: Aggregate, time: Optional[str]) -> Value:
        """An aggregate's value depends on the occasion, never on the unit,
        so it is computed once per (node, occasion).  A later use records
        the same diagnostics again, at its own entry's scope."""
        # keyed on identity: hashing a deep frozen tree costs more than it
        # saves, and the rules outlive the run, so no id is reused
        memo_key = (id(expr), time)
        hit = self.aggregates.get(memo_key)
        if hit is None:
            start = len(self.diagnostics)
            value = self._compute_aggregate(expr, time)
            hit = value, [(d.kind, d.message) for d in self.diagnostics[start:]]
            self.aggregates[memo_key] = hit
        else:
            for kind, message in hit[1]:
                self._diag(kind, message)
        return hit[0]

    def _compute_aggregate(self, expr: Aggregate, time: Optional[str]) -> Value:
        group_table = self.groups[id(expr)]
        numeric = expr.fn != "count"
        values: list[Value] = []
        for unit in self.units(group_table):
            element = self.eval(expr.arg, unit, time)
            assert not isinstance(element, TriBool)
            if numeric and isinstance(element, str):
                self._diag("type_mismatch", f"{expr.fn} over text value {element!r}")
                element = NA
            values.append(element)

        if self.options.na_policy == "propagate":
            if any(is_na(v) for v in values):
                return NA
            kept = values
        else:
            kept = [v for v in values if not is_na(v)]
        if not kept:
            self._diag("empty_group", f"{expr.fn} over an empty group in table {group_table!r}")
            return NA
        if expr.fn == "count":
            return Fraction(len(kept))
        numbers = [v for v in kept if isinstance(v, Fraction)]
        if expr.fn == "sum":
            return sum(numbers, Fraction(0))
        if expr.fn == "mean":
            return sum(numbers, Fraction(0)) / len(numbers)
        if expr.fn == "min":
            return min(numbers)
        return max(numbers)


def _rule_scoping(evaluator: _Evaluator, rule: Rule) -> tuple[Optional[str], dict[int, str]]:
    """The table whose records the rule is evaluated on (None for a rule
    evaluated once per occasion) and the group table of each of its
    aggregates, keyed by node id.  Resolves every reference, so a rule
    whose scope is not determined fails here, whatever the data."""
    nodes = scoped_nodes(rule.body)
    # tables referenced directly in each scope: None or an aggregate's id
    scope_tables: dict[Optional[int], set[str]] = {}
    for node, scope in nodes:
        if isinstance(node, VarRef):
            key = None if scope is None else id(scope)
            scope_tables.setdefault(key, set()).add(evaluator._resolve(rule.name, node))
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


def evaluate_ruleset(rules: RuleSet, dataset: Dataset, schema: Schema,
                     options: EvalOptions = EvalOptions()) -> ValidationReport:
    """Evaluate every rule over every scope it applies to.

    The report is deterministic: entries are ordered by rule (file
    order), then table, unit, and time in natural order.
    """
    evaluator = _Evaluator(dataset, schema, options)
    entries: list[Entry] = []
    summary: dict[str, dict[str, int]] = {}

    for rule in rules:
        tally = {"true": 0, "false": 0, "na": 0}
        summary[rule.name] = tally
        # groups and memo are per rule: a node two rules share may have
        # a different group in each
        record_table, evaluator.groups = _rule_scoping(evaluator, rule)
        evaluator.aggregates = {}

        if record_table is not None:
            for unit, time in evaluator.records(record_table):
                evaluator._entry_scope = (rule.name, record_table, unit, time)
                verdict = evaluator.eval_logical(rule.body, unit, time)
                entries.append(Entry(rule.name, record_table, unit, time, verdict))
                tally[verdict.value] += 1
        else:
            tables = sorted(set(evaluator.groups.values()))
            label = tables[0] if len(tables) == 1 else ",".join(tables) if tables else "-"
            times: set[Optional[str]] = set()
            for t in tables:
                times.update(evaluator.times(t))
            ordered = sorted(times, key=natural_order) if times else [None]
            for time in ordered:
                evaluator._entry_scope = (rule.name, label, None, time)
                verdict = evaluator.eval_logical(rule.body, None, time)
                entries.append(Entry(rule.name, label, None, time, verdict))
                tally[verdict.value] += 1

    return ValidationReport(entries=entries, summary=summary, diagnostics=evaluator.diagnostics)
