"""Evaluates rule sets against datasets under three-valued logic.

Each rule is scheduled over the scopes it needs: plain record rules get
one verdict per (unit, occasion) of their table, aggregate rules one
verdict per occasion (unit = ALL), and single-occasion data collapses
the occasion dimension as well.  Each rule is compiled once per run
into a column plan: every node becomes a function from a tuple of
scopes to the node's value at each scope, with its table column, lag,
comparison and aggregate memo bound in, so a rule's verdicts are one
call of its body over its scopes (``_CHUNK`` scopes at a time).  A
literal stays a scalar.  Both operands of every node are evaluated at
every scope, so every diagnostic is recorded; each note carries its
scope's position, and a stable sort by position puts every verdict's
notes in source order.  Missing values, type confusion, division by
zero, and lags reaching before the first occasion or into an occasion
the table lacks all evaluate to NA instead of aborting the run; each
records a diagnostic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Callable, NamedTuple, Optional

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
from .tribool import TriBool

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
# the comparison that holds with its operands swapped
_MIRROR = {"<": ">", "<=": ">=", "==": "==", "!=": "!=", ">=": "<=", ">": "<"}
# a verdict that its node works out again, one scope at a time, with notes
_BAD = object()
# A rule's body is called on at most this many scopes at a time, so that
# a node's column of new values (quotients, say) stays small whatever the
# table's size; whole-table columns raised validate's peak RSS at 40,000
# records from 50.6 to 54.0 MB (scripts/report_memory.py, CSV report).
_CHUNK = 4096

Scopes = tuple[tuple[Optional[str], Optional[str]], ...]
# A compiled node: the rule's (unit, occasion) scopes -> its value or
# truth value at each, in order.  unit is None only where no record is in
# scope, and no reference reads it there.
Column = Callable[[Scopes], list]


class _Literal(NamedTuple):
    """A literal operand: the same value at every scope.  Operators read
    ``value`` where they can; called, it is a column like any node."""

    value: Value

    def __call__(self, scopes: Scopes) -> list:
        return [self.value] * len(scopes)


# The rule's plan: the table its verdicts are reported under, its scopes
# in report order, and its compiled body.
Plan = tuple[str, Scopes, Column]


def _patch(verdicts: list, work_out: Callable[[int], TriBool]) -> list:
    """``verdicts`` with each ``_BAD`` replaced by ``work_out(position)``,
    in position order (``index`` scans truth values quickly)."""
    pos = -1
    try:
        while True:
            pos = verdicts.index(_BAD, pos + 1)
            verdicts[pos] = work_out(pos)
    except ValueError:
        return verdicts


class _Evaluator:
    """One run: the dataset, schema and options, each rule's scope and
    plan, and the (scope position, kind, message) of every diagnostic the
    current rule recorded."""

    def __init__(self, dataset: Dataset, schema: Schema, options: EvalOptions):
        self.dataset = dataset
        self.schema = schema
        self.options = options
        self.notes: list[tuple[int, str, str]] = []
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

    # -- compilation: one column function per node ---------------------
    # A comprehension computes the common values; a value that may need a
    # note is worked out again by a function that knows its position.

    def compile(self, expr: Expr, tables: dict[int, str]) -> Column:
        if isinstance(expr, NumberLit):
            return _Literal(as_number(expr.value))
        if isinstance(expr, (TextLit, NALit)):
            return _Literal(NA if isinstance(expr, NALit) else expr.value)
        if isinstance(expr, VarRef):
            return self._compile_ref(expr, tables[id(expr)])
        if isinstance(expr, Aggregate):
            return self._compile_aggregate(expr, tables)
        if isinstance(expr, If):  # not cond or then
            cond, then = self.compile(expr.cond, tables), self.compile(expr.then, tables)
            return lambda scopes: [_T if c is _F or q is _T else _N if c is _N or q is _N else _F
                                   for c, q in zip(cond(scopes), then(scopes))]
        if isinstance(expr, Unary):
            operand = self.compile(expr.operand, tables)
            if expr.op == "not":
                return lambda scopes: [_F if v is _T else _T if v is _F else _N for v in operand(scopes)]
            return self._compile_sign(expr.op, operand)
        if isinstance(expr, Binary):
            left, right = self.compile(expr.left, tables), self.compile(expr.right, tables)
            if expr.op in COMPARE:
                return self._compile_compare(expr.op, left, right)
            if expr.op == "and":
                return lambda scopes: [_F if a is _F or b is _F else _N if a is _N or b is _N else _T
                                       for a, b in zip(left(scopes), right(scopes))]
            if expr.op == "or":
                return lambda scopes: [_T if a is _T or b is _T else _N if a is _N or b is _N else _F
                                       for a, b in zip(left(scopes), right(scopes))]
            return self._compile_arithmetic(expr.op, left, right)
        if isinstance(expr, Builtin):
            return self._compile_builtin(expr, tables)
        raise AssertionError(f"cannot evaluate {expr!r}")

    def _compile_ref(self, ref: VarRef, table: str) -> Column:
        variable, lag, notes = ref.variable, ref.lag, self.notes
        index = self.dataset.index(table)
        column = index.columns.get(variable, {})
        times, positions = index.times, index.positions
        earlier = {time: times[i - lag] for i, time in enumerate(times) if i >= lag}

        def read(pos, unit, time):
            if lag and time not in earlier:
                notes.append((pos, "unresolved_reference",
                              f"{variable}@{lag} reaches before the first occasion" if time in positions
                              else f"{variable}@{lag}: occasion {time} is not an occasion of table {table}"))
                return NA
            key = unit, earlier[time] if lag else time
            if key in column:
                return column[key]
            notes.append((pos, "missing_cell", f"no data point for {Key(table, key[1], unit, variable)!r}"))
            return NA

        def cells(scopes):
            start = len(notes)
            try:
                if not lag:
                    return [column[scope] for scope in scopes]
                return [column[unit, earlier[time]] if time in earlier else read(pos, unit, time)
                        for pos, (unit, time) in enumerate(scopes)]
            except KeyError:  # a missing cell: read every scope again, with its notes
                del notes[start:]
                return [read(pos, unit, time) for pos, (unit, time) in enumerate(scopes)]

        return cells

    def _compile_sign(self, op: str, operand: Column) -> Column:
        apply, notes = operator.neg if op == "neg" else abs, self.notes

        def value(pos, v):
            if v is NA or isinstance(v, NUMBER):
                return v if v is NA else apply(v)
            notes.append((pos, "type_mismatch", f"{op} applied to text {v!r}"))
            return NA

        def sign(scopes):
            values = operand(scopes)
            try:
                return [v if v is NA else apply(v) for v in values]
            except TypeError:  # text
                return [value(pos, v) for pos, v in enumerate(values)]

        return sign

    def _compile_arithmetic(self, op: str, left: Column, right: Column) -> Column:
        apply, notes = _ARITHMETIC[op], self.notes

        def value(pos, a, b):
            if a is NA or b is NA:
                return NA
            if not isinstance(a, NUMBER) or not isinstance(b, NUMBER):
                notes.append((pos, "type_mismatch", f"arithmetic {op} on text operand"))
                return NA
            try:
                return apply(a, b)
            except ZeroDivisionError:
                notes.append((pos, "division_by_zero", "division by zero"))
                return NA

        if isinstance(left, _Literal) and op in ("+", "*"):
            left, right = right, left
        # a number literal on the right is applied as a scalar
        k = right.value if isinstance(right, _Literal) and isinstance(right.value, NUMBER) else None
        divide = op == "/"

        def arithmetic(scopes):
            lefts, rights = left(scopes), right(scopes)
            # text (str + str and str * int would not raise) and zero divisors
            # need notes; without them one comprehension does
            if str not in map(type, lefts):
                if k is not None and (k or not divide):
                    return [NA if a is NA else apply(a, k) for a in lefts]
                if str not in map(type, rights) and (not divide or all(rights)):
                    return [NA if a is NA or b is NA else apply(a, b) for a, b in zip(lefts, rights)]
            values = [NA if a is NA or b is NA else _BAD if a.__class__ is str or b.__class__ is str or divide and not b
                      else apply(a, b) for a, b in zip(lefts, rights)]
            for pos in [pos for pos, v in enumerate(values) if v is _BAD]:  # index() would compare Fractions
                values[pos] = value(pos, lefts[pos], rights[pos])
            return values

        return arithmetic

    def _compile_compare(self, op: str, left: Column, right: Column) -> Column:
        test, textual, notes = COMPARE[op], op in ("==", "!="), self.notes

        def verdict(a, b, pos):
            if a is NA or b is NA:
                return _N
            # a value that is not NA is a number or a str
            texts = isinstance(a, str) + isinstance(b, str)
            if texts == 0 or texts == 2 and textual:
                return _T if test(a, b) else _F
            notes.append((pos, "type_mismatch", f"ordering {op} is undefined for text" if texts == 2
                          else f"comparison {op} between number and text"))
            return _N

        if isinstance(left, _Literal):
            left, right, test = right, left, COMPARE[_MIRROR[op]]
        if isinstance(right, _Literal) and right.value is not NA and (textual or not isinstance(right.value, str)):
            operand, k, text = left, right.value, isinstance(right.value, str)
            kn, kd = (None, None) if text else (k.numerator, k.denominator)

            def compare(scopes):
                values = operand(scopes)
                # an operand of the literal's own kind needs no note
                if text:
                    verdicts = [_N if a is NA else _BAD if a.__class__ is not str else _T if test(a, k) else _F
                                for a in values]
                else:  # n/d against p/q (d, q > 0) is n*q against p*d: exact, and quicker than Fraction's
                    verdicts = [_N if a is NA else _BAD if a.__class__ is str
                                else (_T if test(a, k) else _F) if a.__class__ is int
                                else _T if test(a.numerator * kd, kn * a.denominator) else _F for a in values]
                return _patch(verdicts, lambda pos: verdict(values[pos], k, pos))

            return compare

        def compare(scopes):
            lefts, rights = left(scopes), right(scopes)
            return _patch([_N if a is NA or b is NA else _BAD if a.__class__ is str or b.__class__ is str
                           else _T if test(a, b) else _F for a, b in zip(lefts, rights)],
                          lambda pos: verdict(lefts[pos], rights[pos], pos))

        return compare

    def _compile_builtin(self, expr: Builtin, tables: dict[int, str]) -> Column:
        arg = self.compile(expr.args[0], tables)
        if expr.fn == "in_set":
            items = expr.args[1]
            assert isinstance(items, SetLit)
            members = frozenset(items.items)  # a number never equals a text
            return lambda scopes: [_N if v is NA else _T if v in members else _F for v in arg(scopes)]
        if expr.fn == "is_na":
            return lambda scopes: [_T if v is NA else _F for v in arg(scopes)]
        test = _TESTS[expr.fn]
        return lambda scopes: [_T if test(v) else _F for v in arg(scopes)]

    def _compile_aggregate(self, expr: Aggregate, tables: dict[int, str]) -> Column:
        """An aggregate's value depends on the occasion, never on the unit,
        so it is computed once per (node, occasion), its argument as one
        column over the group's records at that occasion.  Each verdict
        that reads it records its notes again."""
        group_table = tables[id(expr)]
        element = self.compile(expr.arg, tables)
        units = self.dataset.index(group_table).units
        fn, notes = expr.fn, self.notes
        numeric = fn != "count"
        propagate = self.options.na_policy == "propagate"
        empty = ("empty_group", f"{fn} over an empty group in table {group_table!r}")
        values: dict[Optional[str], Value] = {}
        replay: dict[Optional[str], list[tuple[str, str]]] = {}  # an occasion's notes, if any

        def compute(time):
            start = len(notes)
            column = element(tuple((unit, time) for unit in units))
            if numeric and str in map(type, column):
                for pos, value in enumerate(column):
                    if isinstance(value, str):
                        notes.append((pos, "type_mismatch", f"{fn} over text value {value!r}"))
                        column[pos] = NA
            kept = [value for value in column if value is not NA]
            if len(kept) < len(column) and propagate:
                values[time] = NA
            elif kept:
                values[time] = _fold(fn, kept)
            else:
                notes.append((len(column), *empty))
                values[time] = NA
            if len(notes) > start:
                replay[time] = [(kind, message) for _, kind, message in sorted(notes[start:], key=itemgetter(0))]
                del notes[start:]

        def aggregate(scopes):
            for time in dict.fromkeys(map(itemgetter(1), scopes)):
                if time not in values:
                    compute(time)
            if replay:
                for pos, (_, time) in enumerate(scopes):
                    notes.extend((pos, kind, message) for kind, message in replay.get(time, ()))
            return [values[time] for _, time in scopes]

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
        for start in range(0, len(scopes), _CHUNK):
            part = scopes[start:start + _CHUNK]
            results += body(part)
            if notes:
                # stable: a verdict's notes keep the order its nodes recorded them in
                notes.sort(key=itemgetter(0))
                diagnostics += [Diagnostic(name, table, *part[pos], kind, message) for pos, kind, message in notes]
                notes.clear()
        blocks.append(RuleVerdicts(name, table, scopes, results))
        summary[name] = {"true": results.count(_T), "false": results.count(_F), "na": results.count(_N)}

    return ValidationReport(blocks=blocks, summary=summary, diagnostics=diagnostics, rule_scopes=evaluator.scopes)
