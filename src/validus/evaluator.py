"""Evaluates rule sets against datasets under three-valued logic.

Each rule is scheduled over the scopes it needs: plain record rules get
one verdict per (unit, occasion) of their table, aggregate rules one
verdict per occasion (unit = ALL), and single-occasion data collapses
the occasion dimension as well.  Each rule is compiled once per run
into a column plan: every node becomes a function from a tuple of
scopes to the node's value at each scope, with its table column, lag,
comparison and aggregate memo bound in, so a rule's verdicts are one
call of its body over its scopes (``_CHUNK`` scopes at a time).  A
literal stays a scalar.  Work that does not depend on the rule is done
once per run: a column that several value nodes read is scaled once
and kept, and equal aggregates over one group table, in any rules,
share one compiled node and so one value per occasion.

Numbers stay exact without a Fraction per value: a value node's column
is a list of int numerators over one positive denominator d.  Every
reference reads its cells over the lcm of the column's denominators,
so ``76.1`` is 761 over 10.  A column that one reference reads is
scaled as that reference reads it; one that several read is scaled on
the first read of the run into a dict that all of them read (building
that dict costs more per cell than scaling a list of the cells once,
so a lone reader does not pay for it).  ``+`` and ``-`` align two
denominators, ``*`` multiplies them, a mean is its sum over n·d, and a
comparison cross-multiplies: a over d against a literal k over kd is
a·kd against k·d.  ``a / b`` compared with c compares a with c·b,
mirrored where b < 0; only a quotient that feeds further arithmetic
builds Fractions.  A built-in tests elements too: a number is an
element that is neither NA nor text, an integer one that d divides,
and a set member m matches m·d.  Both operands of every node are
evaluated at every scope, so every diagnostic is recorded; a numeric
operator sets each text operand to NA, with its note, before its one
comprehension.  Each note carries its scope's position, and a stable
sort by position puts every verdict's notes in source order.  Missing
values, type confusion, division by zero, and lags reaching before the
first occasion or into an occasion the table lacks all evaluate to NA
instead of aborting the run; each records a diagnostic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Optional

from .errors import IncompatibleScopeError, UnevaluableRulesError, UnknownVariableError, ValidusError
from .model import NA, NUMBER, Dataset, Key, Value, as_number, natural_order
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
# the operators whose result has one denominator: a * b is over da * db,
# a + b and a - b over lcm(da, db); a quotient is a _Quotient
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
# the comparison that holds with its operands swapped
_MIRROR = {"<": ">", "<=": ">=", "==": "==", "!=": "!=", ">=": "<=", ">": "<"}
# a comparison's verdict that it works out again, one scope at a time, with its note
_BAD = object()
# A rule's body is called on at most this many scopes at a time, so that
# a node's column of new values (quotients, say) stays small whatever the
# table's size; whole-table columns raised validate's peak RSS at 40,000
# records from 50.6 to 54.0 MB (scripts/report_memory.py, CSV report).
_CHUNK = 4096
# A common denominator longer than this many bits is not used: a column
# whose cells would need one keeps its Fractions (d = 1).  On 4,096 cells
# 1/k, five rules took 77 ms over a common denominator of 1,479 bits
# (137 ms in Fractions) but 457 ms over one of 5,925 bits (165 ms;
# CPython 3.11, one core of a 2-vCPU VM).
_MAX_SCALE_BITS = 2048

Scopes = tuple[tuple[Optional[str], Optional[str]], ...]
# A compiled node: the rule's (unit, occasion) scopes -> its truth value
# at each, in order, for a logical node; for a value node, (elements, d):
# the value at each scope is its element over the positive int d.  A
# number's element is an int, or a Fraction where a quotient or a too
# long common denominator keeps its value as it is; text and NA are their
# own elements.  unit is None only where no record is in scope, and no
# reference reads it there.
Column = Callable[[Scopes], list]
Numbers = Callable[[Scopes], tuple[list, int]]
# The rule's plan: the table its verdicts are reported under, its scopes
# in report order, and its compiled body.
Plan = tuple[str, Scopes, Column]


class _Literal(NamedTuple):
    """A literal operand: the same value at every scope, as ``element``
    over ``d`` (a number's numerator and denominator).  Operators read
    these where they can; called, it is a column like any value node."""

    element: object
    d: int

    def __call__(self, scopes: Scopes) -> tuple[list, int]:
        return [self.element] * len(scopes), self.d


def _literal(value: Value) -> _Literal:
    if isinstance(value, NUMBER):
        return _Literal(value.numerator, value.denominator)
    return _Literal(value, 1)


class _Quotient(NamedTuple):
    """``numerator / denominator``.  ``parts`` gives both operands'
    elements and denominators, with NA as the numerator's element where
    the quotient is NA, its note recorded; a comparison reads them
    without dividing.  Called, it is a column of Fractions over 1."""

    numerator: Numbers
    denominator: Numbers
    notes: list

    def parts(self, scopes: Scopes) -> tuple[list, int, list, int]:
        a, da = self.numerator(scopes)
        b, db = self.denominator(scopes)
        _no_text(self.notes, "arithmetic / on text operand", a, b)
        if not all(b):
            for pos, (x, y) in enumerate(zip(a, b)):
                if x is not NA and not y:  # y is a number: where it is text, x is NA now
                    self.notes.append((pos, "division_by_zero", "division by zero"))
                    a[pos] = NA
        return a, da, b, db

    def __call__(self, scopes: Scopes) -> tuple[list, int]:
        a, da, b, db = self.parts(scopes)
        # (x / da) / (y / db)
        return [NA if x is NA or y is NA else Fraction(x * db, y * da) for x, y in zip(a, b)], 1


def _common(denominators) -> int:
    """The lcm of positive ints, or 1 where it would pass _MAX_SCALE_BITS."""
    d = 1
    for den in denominators:
        d = lcm(d, den)
        if d.bit_length() > _MAX_SCALE_BITS:
            return 1
    return d


def _scale(cells: Iterable, d: int) -> list:
    """Cells as elements over ``d``, a multiple of each Fraction cell's
    denominator: the cells themselves where ``d`` is 1."""
    if d == 1:
        return cells
    # a Fraction's slots are read without the call of its properties or of as_integer_ratio
    return [v * d if v.__class__ is int else v._numerator * (d // v._denominator) if v.__class__ is Fraction
            else v for v in cells]


def _scaled(cache: dict, key: tuple[str, str], column: dict, readers: int) -> tuple[dict, int]:
    """The column of (table, variable) ``key`` and its common denominator
    d, worked out on the first read of the run and kept in ``cache``:
    scaled once where ``readers`` value nodes, more than one, read it, or
    else the dataset's own, which its one reader scales as it reads."""
    if key not in cache:
        d = _common({v._denominator for v in column.values() if v.__class__ is Fraction})
        cache[key] = dict(zip(column, _scale(column.values(), d))) if d != 1 and readers > 1 else column, d
    return cache[key]


def _times(elements: list, m: int) -> list:
    """Elements over d as elements over m·d."""
    if m == 1:
        return elements
    return [e if e is NA or e.__class__ is str else e * m for e in elements]


def _no_text(notes: list, message: str, values: list, beside: Optional[list] = None) -> None:
    """Set to NA, with a type_mismatch note at its position (``message``,
    the value in its ``{!r}``), each value of ``values`` that is text or
    whose ``beside`` value is text, where neither value is NA."""
    if str not in map(type, values) and (beside is None or str not in map(type, beside)):
        return
    for pos, (a, b) in enumerate(zip(values, values if beside is None else beside)):
        if a is not NA and b is not NA and (a.__class__ is str or b.__class__ is str):
            notes.append((pos, "type_mismatch", message.format(a)))
            values[pos] = NA


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
    plan, the number of value nodes that read each (table, variable)
    and its column over its common denominator, each compiled aggregate
    by (expression, group table), and the (scope position, kind,
    message) of every diagnostic the current rule recorded."""

    def __init__(self, dataset: Dataset, schema: Schema, options: EvalOptions):
        self.dataset = dataset
        self.schema = schema
        self.options = options
        self.notes: list[tuple[int, str, str]] = []
        self.plans: dict[str, Plan] = {}
        self.scopes: dict[str, RuleScope] = {}
        self.scaled: dict[tuple[str, str], tuple[dict, int]] = {}
        self.readers: dict[tuple[str, str], int] = {}
        self.aggregates: dict[tuple[Aggregate, str], Numbers] = {}

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
    # A comprehension computes each node's values; a comparison works out
    # again, with its note, a verdict that involves text.

    def compile(self, expr: Expr, tables: dict[int, str]) -> Column:
        if isinstance(expr, (NumberLit, TextLit, NALit)):
            return _literal(NA if isinstance(expr, NALit) else expr.value)
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

    def _compile_ref(self, ref: VarRef, table: str) -> Numbers:
        """The reference's cells over d, from the run's column over its
        common denominator.  Compiling it counts the references that
        read the column, which all rules compile before the first read."""
        variable, lag, notes, cache, readers = ref.variable, ref.lag, self.notes, self.scaled, self.readers
        key = table, variable
        readers[key] = readers.get(key, 0) + 1
        index = self.dataset.index(table)
        raw = index.columns.get(variable, {})
        times, positions = index.times, index.positions
        earlier = {time: times[i - lag] for i, time in enumerate(times) if i >= lag}

        def read(column, pos, unit, time):
            if lag and time not in earlier:
                notes.append((pos, "unresolved_reference",
                              f"{variable}@{lag} reaches before the first occasion" if time in positions
                              else f"{variable}@{lag}: occasion {time} is not an occasion of table {table}"))
                return NA
            cell = unit, earlier[time] if lag else time
            if cell in column:
                return column[cell]
            notes.append((pos, "missing_cell", f"no data point for {Key(table, cell[1], unit, variable)!r}"))
            return NA

        def cells(scopes):
            column, d = _scaled(cache, key, raw, readers[key])
            start = len(notes)
            try:
                if not lag:
                    values = [column[scope] for scope in scopes]
                else:
                    values = [column[unit, earlier[time]] if time in earlier else read(column, pos, unit, time)
                              for pos, (unit, time) in enumerate(scopes)]
            except KeyError:  # a missing cell: read every scope again, with its notes
                del notes[start:]
                values = [read(column, pos, unit, time) for pos, (unit, time) in enumerate(scopes)]
            return _scale(values, d) if column is raw else values, d

        return cells

    def _compile_sign(self, op: str, operand: Numbers) -> Numbers:
        apply, notes, message = operator.neg if op == "neg" else abs, self.notes, f"{op} applied to text {{!r}}"

        def sign(scopes):
            values, d = operand(scopes)
            _no_text(notes, message, values)
            return [v if v is NA else apply(v) for v in values], d

        return sign

    def _compile_arithmetic(self, op: str, left: Numbers, right: Numbers) -> Numbers:
        if op == "/":
            if not (isinstance(right, _Literal) and right.element.__class__ is int and right.element):
                return _Quotient(left, right, self.notes)
            kernel, right = "*", _literal(Fraction(right.d, right.element))  # times the reciprocal: one denominator
        else:
            kernel = op
        apply, notes, message = _ARITHMETIC[kernel], self.notes, f"arithmetic {op} on text operand"
        if isinstance(left, _Literal) and kernel != "-":
            left, right = right, left
        # a number literal on the right is applied as a scalar
        k = right.element if isinstance(right, _Literal) and right.element.__class__ is int else None

        def arithmetic(scopes):
            lefts, da = left(scopes)
            rights, db = right(scopes)
            # text first (str + str and str * int would not raise)
            _no_text(notes, message, lefts, None if k is not None else rights)
            if kernel == "*":
                d, ma, mb = da * db, 1, 1
            else:  # both operands over d, the lcm of theirs
                d = lcm(da, db)
                ma, mb = d // da, d // db
            lefts = _times(lefts, ma)
            if k is not None:
                kb = k * mb
                return [NA if a is NA else apply(a, kb) for a in lefts], d
            rights = _times(rights, mb)
            return [NA if a is NA or b is NA else apply(a, b) for a, b in zip(lefts, rights)], d

        return arithmetic

    def _compile_compare(self, op: str, left: Numbers, right: Numbers) -> Column:
        """a / da against b / db (da, db > 0) is a * db against b * da."""
        shown, textual, notes = op, op in ("==", "!="), self.notes

        def verdict(a, b, pos):
            # neither is NA, and one at least is text; a text literal is b
            if textual and isinstance(a, str) and isinstance(b, str):
                return _T if COMPARE[shown](a, b) else _F
            notes.append((pos, "type_mismatch", f"ordering {shown} is undefined for text" if isinstance(a, str)
                          and isinstance(b, str) else f"comparison {shown} between number and text"))
            return _N

        if isinstance(left, _Literal):  # a literal records no notes, so its operand may go first
            left, right, op = right, left, _MIRROR[op]
        test = COMPARE[op]
        if isinstance(left, _Quotient) or isinstance(right, _Quotient):
            # (x / da) / (y / db) against z / dc, both times y * da * dc, is
            # x * db * dc against z * y * da, mirrored where y < 0
            first = isinstance(left, _Quotient)
            quotient, other = (left, right) if first else (right, left)
            qtest = test if first else COMPARE[_MIRROR[op]]

            def compare(scopes):
                if first:
                    x_, da, y_, db = quotient.parts(scopes)
                    z_, dc = other(scopes)
                else:
                    z_, dc = other(scopes)
                    x_, da, y_, db = quotient.parts(scopes)
                fx = db * dc
                return _patch([_N if x is NA or y is NA or z is NA else _BAD if z.__class__ is str
                               else (_T if qtest(x * fx, z * y * da) else _F) if y > 0
                               else _T if qtest(z * y * da, x * fx) else _F for x, y, z in zip(x_, y_, z_)],
                              lambda pos: verdict(x_[pos], z_[pos], pos))

            return compare
        k = right.element if isinstance(right, _Literal) else NA
        if k is not NA and (textual or k.__class__ is not str):
            operand, kd, text = left, right.d, k.__class__ is str

            def compare(scopes):
                values, d = operand(scopes)
                # an operand of the literal's own kind needs no note
                if text:
                    verdicts = [_N if a is NA else _BAD if a.__class__ is not str else _T if test(a, k) else _F
                                for a in values]
                else:  # a / d against k / kd is a * kd against k * d
                    kb = k * d
                    verdicts = [_N if a is NA else _BAD if a.__class__ is str else _T if test(a * kd, kb) else _F
                                for a in values]
                return _patch(verdicts, lambda pos: verdict(values[pos], k, pos))

            return compare

        def compare(scopes):
            lefts, da = left(scopes)
            rights, db = right(scopes)
            return _patch([_N if a is NA or b is NA else _BAD if a.__class__ is str or b.__class__ is str
                           else _T if test(a * db, b * da) else _F for a, b in zip(lefts, rights)],
                          lambda pos: verdict(lefts[pos], rights[pos], pos))

        return compare

    def _compile_builtin(self, expr: Builtin, tables: dict[int, str]) -> Column:
        """Each element over d of the argument tested; a number never
        equals a text, so a set's members need no kind check."""
        arg, fn = self.compile(expr.args[0], tables), expr.fn
        items = expr.args[1].items if fn == "in_set" else None
        whole = fn == "is_integer"

        def test(scopes):
            elements, d = arg(scopes)
            if fn == "is_na":
                return [_T if e is NA else _F for e in elements]
            if fn == "is_text":
                return [_T if e.__class__ is str else _F for e in elements]
            if items is not None:
                members = frozenset(m if m.__class__ is str else as_number(m * d) for m in items)
                return [_N if e is NA else _T if e in members else _F for e in elements]
            return [_F if e is NA or e.__class__ is str else _T if not whole or e % d == 0 else _F for e in elements]

        return test

    def _compile_aggregate(self, expr: Aggregate, tables: dict[int, str]) -> Numbers:
        """An aggregate's value depends on the occasion, never on the unit,
        so it is computed once per run for each distinct (expression,
        group table, occasion), its argument as one column over the
        group's records at that occasion, and kept as a (numerator,
        denominator) pair.  With a schema every reference resolves
        without context, so equal aggregates of any rules share one
        compiled node.  Each verdict that reads it records its notes
        again."""
        group_table = tables[id(expr)]
        shared = self.aggregates.get((expr, group_table))
        if shared is not None:
            return shared
        element = self.compile(expr.arg, tables)
        units = self.dataset.index(group_table).units
        fn, notes = expr.fn, self.notes
        numeric = fn != "count"
        propagate = self.options.na_policy == "propagate"
        empty = ("empty_group", f"{fn} over an empty group in table {group_table!r}")
        message = f"{fn} over text value {{!r}}"
        values: dict[Optional[str], object] = {}
        replay: dict[Optional[str], list[tuple[str, str]]] = {}  # an occasion's notes, if any

        def compute(time):
            start = len(notes)
            column, d = element(tuple((unit, time) for unit in units))
            if numeric:
                _no_text(notes, message, column)
            kept = [value for value in column if value is not NA]
            if len(kept) < len(column) and propagate:
                values[time] = NA
            elif kept:
                values[time] = _fold(fn, kept, d)
            else:
                notes.append((len(column), *empty))
                values[time] = NA
            if len(notes) > start:
                replay[time] = [(kind, message) for _, kind, message in sorted(notes[start:], key=itemgetter(0))]
                del notes[start:]

        def aggregate(scopes):
            times = dict.fromkeys(map(itemgetter(1), scopes))
            for time in times:
                if time not in values:
                    compute(time)
            if replay:
                for pos, (_, time) in enumerate(scopes):
                    notes.extend((pos, kind, message) for kind, message in replay.get(time, ()))
            # this call's occasions over one denominator
            d = _common({values[time][1] for time in times if values[time] is not NA})
            over = {time: NA if (v := values[time]) is NA else v[0] * (d // v[1]) if d % v[1] == 0
                    else Fraction(v[0] * d, v[1]) for time in times}
            return [over[time] for _, time in scopes], d

        self.aggregates[expr, group_table] = aggregate
        return aggregate


def _fold(fn: str, kept: list, d: int) -> tuple[object, int]:
    """The aggregate of a non-empty group without NA, whose numbers are
    elements over ``d`` (any values if ``fn`` is count), as (numerator,
    denominator)."""
    if fn == "count":
        return len(kept), 1
    if fn == "mean":
        return sum(kept), len(kept) * d
    return (sum(kept) if fn == "sum" else min(kept) if fn == "min" else max(kept)), d


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
