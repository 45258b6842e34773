"""Static analysis of rule sets over the schema-declared universes.

Record-scoped rules built from linear numeric comparisons and
categorical membership compile to conjunctions of disjunctive clauses;
each public call compiles each rule, and each negated claim, once, and
turns each clause into interned integer rows once.  Satisfiability is
decided exactly: clause disjuncts and categorical levels are case-split
into disjoint cases, and each conjunction of linear atoms goes to the
rational elimination core unless the witness of the conjunction it
extends satisfies it or it contains an infeasible core found earlier in
the call.  A clause's plan alone decides its options (!= gives two, <
and >).  The clauses that leave no choice come first, and each search
step takes every clause left without a choice in one loop before it
splits the next; feasibility is checked at the leaves and for each
option of a split, and each distinct conjunction is solved once per call.
Integer-declared variables are analyzed over their rational relaxation,
so a set that only fails over the integers is reported feasible.

On top of the solver sit the rule-set diagnostics: tautology and
contradiction lint for single rules, infeasibility, levels a rule set
silently excludes, values and ranges it implicitly fixes, redundant
rules, and conditional rules whose condition or consequent the rest of
the set already decides.  Levels and bounds are read off the leaves.
Tautologies, redundancy, decided conditions and consequents, and
``ruleset_implies`` all ask one question through one probe: do the
compiled rules plus the negated claim admit no assignment?  The
detectors of the last three and the simplifier, which applies them to a
fixpoint preserving the solution set, share one test.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps
from typing import Iterable, Iterator, Optional, Union

from .errors import UnsupportedForAnalysisError
from .linear import Interval, Row, feasible, make_row, project
from .model import format_number, is_number
from .rules import (
    COMPARE,
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
    format_expr,
    format_rule,
    negate_expr,
    rule_scope,
)
from .schema import CATEGORICAL, Schema, VariableDecl

# finding kinds
INFEASIBLE = "infeasible"
PARTIAL_INFEASIBILITY = "partial_infeasibility"
FIXED_VALUE = "fixed_value"
RANGE_RESTRICTION = "range_restriction"
REDUNDANT = "redundant"
TAUTOLOGY = "tautology"
CONTRADICTION = "contradiction"
NONRELAXING = "nonrelaxing_clause"
NONCONSTRAINING = "nonconstraining_clause"


@dataclass(frozen=True)
class LinearAtom:
    """sum(coeff * var) relation constant, over numeric variables."""

    coeffs: tuple[tuple[str, Fraction], ...]
    relation: str  # < <= == != >= >
    constant: Fraction


@dataclass(frozen=True)
class CategoricalAtom:
    """variable takes one of the allowed levels."""

    variable: str
    allowed: frozenset[str]


Atom = Union[LinearAtom, CategoricalAtom]

#: A clause is a disjunction of atoms; () is the unsatisfiable clause.
ClauseAtoms = tuple[Atom, ...]


@dataclass(frozen=True)
class Clause:
    disjuncts: ClauseAtoms
    origin: str


@dataclass
class ConstraintSystem:
    clauses: list[Clause]
    numeric_vars: dict[str, Optional[tuple[Fraction, Fraction]]]
    categorical_vars: dict[str, tuple[str, ...]]
    display: dict[str, str]

    def label(self, var: str) -> str:
        return self.display.get(var, var)


@dataclass(frozen=True)
class Finding:
    kind: str
    rule: Optional[str] = None
    variable: Optional[str] = None
    value: Optional[str] = None
    low: Optional[str] = None
    high: Optional[str] = None
    evidence: str = ""


@dataclass(frozen=True)
class SatResult:
    satisfiable: bool
    witness: Optional[dict[str, Union[Fraction, str]]] = None

    def __bool__(self) -> bool:
        return self.satisfiable


# --- the per-call memo ---------------------------------------------------

#: Each option of a clause: its categorical atom, or the ids of the
#: interned rows a linear option adds.
_Plan = list[Union[CategoricalAtom, tuple[int, ...]]]

#: The rows of each relation but !=, which a plan splits into < and >,
#: each as ``(sign, strict)``: sign * sum <= sign * constant (< if strict).
_ROWS = {"<=": ((1, False),), "<": ((1, True),), ">=": ((-1, False),), ">": ((-1, True),),
         "==": ((1, False), (-1, False))}


@dataclass
class _Memo:
    """What the public analyzer call in progress works out once: the
    compiled form of each rule and of each negated claim, the domain
    clauses of each numeric variable, the plan of each clause, one id for
    each distinct row, the feasibility answer of each distinct tuple of
    row ids, and the infeasible cores found."""

    parts: dict[tuple[Rule, bool], _Part] = field(default_factory=dict)
    domains: dict[str, tuple[Clause, Clause]] = field(default_factory=dict)
    #: by ``id`` of a clause's disjunct tuple, which the entry keeps alive
    plans: dict[int, tuple[ClauseAtoms, _Plan]] = field(default_factory=dict)
    ids: dict[Row, int] = field(default_factory=dict)
    rows: list[Row] = field(default_factory=list)
    #: the empty conjunction holds at the origin
    solved: dict[tuple[int, ...], Optional[dict[str, Fraction]]] = field(default_factory=lambda: {(): {}})
    cores: list[frozenset[int]] = field(default_factory=list)

    def plan(self, disjuncts: ClauseAtoms) -> _Plan:
        """Each option of a clause (see ``_Plan``); the one place that
        splits !=, into two options, < and >."""
        if (known := self.plans.get(id(disjuncts))) is not None:
            return known[1]
        plan: _Plan = []
        for atom in disjuncts:
            if isinstance(atom, CategoricalAtom):
                plan.append(atom)
            elif atom.relation == "!=":
                plan += (self.intern(_atom_rows(LinearAtom(atom.coeffs, r, atom.constant))) for r in "<>")
            else:
                plan.append(self.intern(_atom_rows(atom)))
        self.plans[id(disjuncts)] = (disjuncts, plan)
        return plan

    def intern(self, rows: list[Row]) -> tuple[int, ...]:
        """The ids of ``rows``; equal rows share one id."""
        ids = []
        for row in rows:
            if (i := self.ids.get(row)) is None:
                i = self.ids[row] = len(self.rows)
                self.rows.append(row)
            ids.append(i)
        return tuple(ids)


#: The memo of the public analyzer call in progress; unset outside one.
_MEMO: ContextVar[Optional[_Memo]] = ContextVar("_MEMO", default=None)


def _solves_once(fn):
    """Give the outermost public call one memo, shared by the public
    calls it makes and dropped when it returns."""
    @wraps(fn)
    def call(*args, **kwargs):
        if _MEMO.get() is not None:
            return fn(*args, **kwargs)
        token = _MEMO.set(_Memo())
        try:
            return fn(*args, **kwargs)
        finally:
            _MEMO.reset(token)
    return call


# --- compilation ---------------------------------------------------------

_CNF = list  # list of disjunct tuples


class _Compiler:
    """Compiles one rule body to clause form over resolved variables."""

    def __init__(self, rule_name: str, schema: Schema):
        self.rule = rule_name
        self.schema = schema
        self.numeric: dict[str, Optional[tuple[Fraction, Fraction]]] = {}
        self.categorical: dict[str, tuple[str, ...]] = {}
        self.display: dict[str, str] = {}

    def fail(self, reason: str):
        raise UnsupportedForAnalysisError(self.rule, reason)

    def resolve(self, ref: VarRef) -> tuple[str, VariableDecl]:
        hit = self.schema.lookup(ref.table, ref.variable)
        if hit is None:
            shown = ref.variable if ref.table is None else f"{ref.table}.{ref.variable}"
            self.fail(f"unknown variable {shown!r}")
        table, decl = hit
        var_id = f"{table}.{decl.name}"
        if var_id not in self.display:
            bare_ok = self.schema.lookup(None, decl.name) is not None
            self.display[var_id] = decl.name if bare_ok else var_id
        if decl.kind == CATEGORICAL:
            self.categorical.setdefault(var_id, decl.levels)
        else:
            self.numeric.setdefault(var_id, decl.bounds)
        return var_id, decl

    def cnf(self, expr: Expr) -> _CNF:
        if isinstance(expr, Unary) and expr.op == "not":
            pushed = negate_expr(expr.operand)
            if pushed != expr:  # else negate_expr left a call wrapped: a negated leaf
                return self.cnf(pushed)
        if isinstance(expr, If):
            return self.cnf(Binary("or", Unary("not", expr.cond), expr.then))
        if isinstance(expr, Binary) and expr.op in ("and", "or"):
            left = self.cnf(expr.left)
            right = self.cnf(expr.right)
            if expr.op == "and":
                return left + right
            return [l + r for l in left for r in right]
        return self.leaf(expr)

    def leaf(self, expr: Expr) -> _CNF:
        negated = isinstance(expr, Unary) and expr.op == "not"
        call = expr.operand if negated else expr
        if isinstance(call, Builtin):
            if call.fn == "in_set":
                return self.membership(call.args[0], call.args[1], negated)
            self.fail(f"{call.fn} is a three-valued test, not a linear or categorical atom")
        if isinstance(expr, Binary) and expr.op in COMPARE:
            return self.comparison(expr.op, expr.left, expr.right)
        self.fail(f"cannot analyze {format_expr(call)!r}")

    def membership(self, target: Expr, items: Expr, negated: bool) -> _CNF:
        assert isinstance(items, SetLit)
        if not isinstance(target, VarRef):
            self.fail("in_set needs a plain variable on the left")
        var_id, decl = self.resolve(target)
        if decl.kind == CATEGORICAL:
            levels = frozenset(decl.levels)
            allowed = levels & frozenset(i for i in items.items if isinstance(i, str))
            if negated:
                allowed = levels - allowed
            if allowed == levels:
                return []
            return [(CategoricalAtom(var_id, allowed),)] if allowed else [()]
        numbers = [i for i in items.items if isinstance(i, Fraction)]
        unit = ((var_id, Fraction(1)),)
        if not negated:
            clause = tuple(LinearAtom(unit, "==", n) for n in numbers)
            return [clause] if clause else [()]
        return [(LinearAtom(unit, "!=", n),) for n in numbers]

    def is_text(self, expr: Expr) -> bool:
        """Whether ``expr`` is text: a text literal or a categorical variable."""
        return isinstance(expr, TextLit) or (isinstance(expr, VarRef) and self.resolve(expr)[1].kind == CATEGORICAL)

    def comparison(self, op: str, left: Expr, right: Expr) -> _CNF:
        # validate decides a comparison of text with text (== and != only)
        # or of number with number, and gives NA on anything else
        left_text, right_text = self.is_text(left), self.is_text(right)
        if left_text != right_text:
            self.fail("text compared with a number or NA is outside the two-valued fragment")
        if left_text:
            if op not in ("==", "!="):
                self.fail(f"ordering {op} is undefined for text")
            if isinstance(left, TextLit) and isinstance(right, TextLit):
                holds = (left.value == right.value) == (op == "==")
                return [] if holds else [()]
            if isinstance(left, VarRef) and isinstance(right, VarRef):
                self.fail("comparison between two categorical variables")
            var, text = (left, right) if isinstance(left, VarRef) else (right, left)
            return self.membership(var, SetLit((text.value,)), op == "!=")
        coeffs, offset = self.linear(Binary("-", left, right))
        items = tuple(sorted((v, c) for v, c in coeffs.items() if c != 0))
        constant = -offset  # left op right  <=>  sum(items) op -offset
        if not items:
            return [] if COMPARE[op](Fraction(0), constant) else [()]
        return [(LinearAtom(items, op, constant),)]

    def linear(self, expr: Expr) -> tuple[dict[str, Fraction], Fraction]:
        """Linear form (coefficients, constant) of a numeric expression."""
        if isinstance(expr, NumberLit):
            return {}, expr.value
        if isinstance(expr, NALit):
            self.fail("NA literal is outside the two-valued fragment")
        if isinstance(expr, VarRef):
            var_id, decl = self.resolve(expr)
            if decl.kind == CATEGORICAL:
                self.fail(f"categorical variable {decl.name!r} in numeric context")
            return {var_id: Fraction(1)}, Fraction(0)
        if isinstance(expr, Unary):
            if expr.op == "neg":
                coeffs, const = self.linear(expr.operand)
                return {v: -c for v, c in coeffs.items()}, -const
            self.fail(f"{expr.op} is not linear")
        if isinstance(expr, Binary):
            if expr.op in ("+", "-"):
                lc, lk = self.linear(expr.left)
                rc, rk = self.linear(expr.right)
                sign = Fraction(1) if expr.op == "+" else Fraction(-1)
                out = dict(lc)
                for v, c in rc.items():
                    out[v] = out.get(v, Fraction(0)) + sign * c
                return out, lk + sign * rk
            if expr.op == "*":
                lc, lk = self.linear(expr.left)
                rc, rk = self.linear(expr.right)
                if lc and rc:
                    self.fail("product of two variable expressions is not linear")
                if lc:
                    return {v: c * rk for v, c in lc.items()}, lk * rk
                return {v: c * lk for v, c in rc.items()}, lk * rk
            if expr.op == "/":
                rc, rk = self.linear(expr.right)
                if rc:
                    self.fail("variable in a divisor is not linear")
                if rk == 0:
                    self.fail("division by the constant zero")
                lc, lk = self.linear(expr.left)
                return {v: c / rk for v, c in lc.items()}, lk / rk
        self.fail(f"cannot linearize {format_expr(expr)!r}")


def _check_analyzable(rule: Rule, schema: Schema) -> None:
    """Reject rules outside one record of one table, deciding the tables
    by the scoping ``validate`` uses; an unknown variable is left to the
    compiler to name."""
    scope = rule_scope(rule, schema)
    if scope.has_aggregate:
        raise UnsupportedForAnalysisError(rule.name, "aggregates are not record-scoped")
    if scope.max_lag:
        raise UnsupportedForAnalysisError(rule.name, "lagged references span occasions")
    if len(scope.record_tables) > 1:
        raise UnsupportedForAnalysisError(rule.name, "cross-table references")


#: One compiled rule: (clause origin, compiler with its variables, clauses).
_Part = tuple[str, _Compiler, tuple[Clause, ...]]


def _compile(rule: Rule, schema: Schema, negated: bool = False) -> _Part:
    """``rule``, or its negation, in clause form, from the memo of the
    public call in progress: each is compiled once per call, clauses
    and all, so every system built from it shares them."""
    parts = _MEMO.get().parts
    if (part := parts.get((rule, negated))) is None:
        _check_analyzable(rule, schema)
        compiler = _Compiler(rule.name, schema)
        origin = f"not:{rule.name}" if negated else rule.name
        cnf = compiler.cnf(negate_expr(rule.body) if negated else rule.body)
        part = parts[rule, negated] = (origin, compiler, tuple(Clause(tuple(d), origin) for d in cnf))
    return part


def _build_system(parts: Iterable[_Part]) -> ConstraintSystem:
    clauses: list[Clause] = []
    numeric: dict[str, Optional[tuple[Fraction, Fraction]]] = {}
    categorical: dict[str, tuple[str, ...]] = {}
    display: dict[str, str] = {}
    for _origin, compiler, part_clauses in parts:
        clauses += part_clauses
        numeric.update(compiler.numeric)
        categorical.update(compiler.categorical)
        display.update(compiler.display)
    domains = _MEMO.get().domains  # each variable's two clauses, built once per call
    for var_id in sorted(numeric):
        bounds = numeric[var_id]
        if bounds is None:
            continue
        if (pair := domains.get(var_id)) is None:
            low, high = bounds
            unit, origin = ((var_id, Fraction(1)),), f"domain:{display.get(var_id, var_id)}"
            pair = domains[var_id] = (Clause((LinearAtom(unit, ">=", low),), origin),
                                      Clause((LinearAtom(unit, "<=", high),), origin))
        clauses += pair
    return ConstraintSystem(clauses, numeric, categorical, display)


@_solves_once
def compile_rules(rules: RuleSet, schema: Schema) -> ConstraintSystem:
    """Conjoin every rule into one clause system over the schema domains."""
    return _build_system([_compile(rule, schema) for rule in rules])


# --- satisfiability -------------------------------------------------------

def _atom_rows(atom: LinearAtom) -> list[Row]:
    # negated, not multiplied by the sign: a Fraction product costs more
    return [make_row({v: c if sign > 0 else -c for v, c in atom.coeffs}, strict,
                     atom.constant if sign > 0 else -atom.constant)
            for sign, strict in _ROWS[atom.relation]]


def _solve(key: tuple[int, ...], known: int) -> Optional[dict[str, Fraction]]:
    """Feasibility of the interned rows ``key``, answered once per
    distinct key per call; ``key[:known]`` has a witness in the memo.
    That witness answers when every row added after the prefix holds
    there, and a core found earlier answers when the rows contain it;
    else ``feasible`` runs, and an infeasible answer's core is kept."""
    memo = _MEMO.get()
    if key not in memo.solved:
        witness, rows = memo.solved[key[:known]], memo.rows
        if not all(rows[i].holds(witness) for i in key[known:]):
            ids = frozenset(key)
            if any(core <= ids for core in memo.cores):
                witness = None
            elif (witness := feasible([rows[i] for i in key], core := [])) is None:
                memo.cores.append(frozenset(key[i] for i in core))
        memo.solved[key] = witness
    return memo.solved[key]


def _search(system: ConstraintSystem, memo: _Memo) -> Iterator[tuple[dict[str, frozenset[str]], tuple[int, ...]]]:
    """Every feasible conjunction covering the system's solution set, as
    its categorical state and the ids of its rows.

    The clauses whose plan has at most one option come first, so that a
    contradiction among them shows before any clause is split (fail
    first); each group keeps its order.  Each step of the search opens
    with one loop over the clauses that leave at most one option once the
    categorical state has filtered them: a clause the state satisfies is
    passed over, a linear option's rows join the key unchecked, a
    categorical option narrows the state, and a clause with no option
    left ends the branch.  The next clause is split.  Feasibility is
    checked at the leaves and for each option of a split.  Before a
    categorical option is taken the rows are known feasible, either
    because a linear option of the same clause (a superset of them) was,
    or by a direct check, so no infeasible subtree is ever split.  The
    options of a clause cover disjoint solutions: once a categorical
    option has been searched, the later options exclude its levels, and
    the clause ends when no level is left.  ``_solve`` answers each check.
    """
    plans = [memo.plan(clause.disjuncts) for clause in system.clauses]
    plans.sort(key=lambda plan: len(plan) > 1)

    def descend(index: int, cats: dict[str, frozenset[str]], key: tuple[int, ...],
                known: int) -> Iterator[tuple[dict[str, frozenset[str]], tuple[int, ...]]]:
        # known: the length of the longest prefix of ``key`` with a witness in the memo
        while index < len(plans):  # take each clause that leaves no choice
            left = 0  # the options the state leaves, the last of them in ``last``
            for option in plans[index]:
                if isinstance(option, CategoricalAtom):
                    if cats[option.variable] <= option.allowed:
                        break  # the state satisfies the clause
                    if cats[option.variable].isdisjoint(option.allowed):
                        continue
                left, last = left + 1, option
            else:
                if left > 1:
                    break  # a choice: split this clause below
                if not left:  # the branch has no solution
                    return
                if isinstance(last, CategoricalAtom):
                    cats = {**cats, last.variable: cats[last.variable] & last.allowed}
                else:
                    key += last
            index += 1
        if index == len(plans):
            if _solve(key, known) is not None:
                yield cats, key
            return
        for option in plans[index]:
            if isinstance(option, CategoricalAtom):
                narrowed = cats[option.variable] & option.allowed
                if not narrowed:  # an earlier option took these levels
                    continue
                if known < len(key):
                    if _solve(key, known) is None:
                        return
                    known = len(key)
                yield from descend(index + 1, {**cats, option.variable: narrowed}, key, known)
                if not (rest := cats[option.variable] - option.allowed):
                    return
                cats = {**cats, option.variable: rest}
            elif (witness := _solve(extended := key + option, known)) is not None:
                # a witness of the rows plus an option is one of the rows alone
                memo.solved.setdefault(key, witness)
                known = len(key)
                yield from descend(index + 1, cats, extended, len(extended))

    yield from descend(0, {v: frozenset(levels) for v, levels in system.categorical_vars.items()}, (), 0)


def _leaves(system: ConstraintSystem) -> Iterator[tuple[dict[str, frozenset[str]], list[Row]]]:
    """``_search``'s leaves, each as its categorical state and its rows,
    within a public call."""
    memo = _MEMO.get()
    return ((cats, [memo.rows[i] for i in key]) for cats, key in _search(system, memo))


def check_witness(system: ConstraintSystem, witness: dict[str, Union[Fraction, str]]) -> bool:
    """Re-check a witness against every clause: a categorical option by
    the witness's level, a linear option by its integer rows."""
    memo = _MEMO.get() or _Memo()
    numeric = {v: val for v, val in witness.items() if is_number(val)}
    cats = {v: val for v, val in witness.items() if isinstance(val, str)}
    rows = memo.rows
    return all(
        any(cats.get(option.variable) in option.allowed if isinstance(option, CategoricalAtom)
            else all(rows[i].holds(numeric) for i in option)
            for option in memo.plan(clause.disjuncts))
        for clause in system.clauses
    )


@_solves_once
def is_satisfiable(system: ConstraintSystem) -> SatResult:
    """Exact satisfiability over the rational relaxation plus declared
    categorical levels; a positive verdict carries a re-checked witness."""
    memo = _MEMO.get()
    for cats, key in _search(system, memo):
        numeric_witness = memo.solved[key]
        witness: dict[str, Union[Fraction, str]] = {}
        for var in system.numeric_vars:
            witness[var] = numeric_witness.get(var, Fraction(0))
        for var, levels in cats.items():
            witness[var] = sorted(levels)[0]
        assert check_witness(system, witness), "leaf witness failed a clause"
        return SatResult(True, witness)
    return SatResult(False, None)


def _entails(parts: list[_Part], claim: Rule, schema: Schema) -> bool:
    """True when the compiled rules ``parts`` entail ``claim``: the rules
    plus the negated claim are unsatisfiable over the declared domains."""
    return not is_satisfiable(_build_system([*parts, _compile(claim, schema, negated=True)]))


#: The branch of a conditional each branch finding says the set entails.
_BRANCHES = {NONRELAXING: ("cond", "condition"), NONCONSTRAINING: ("then", "consequent")}


def _fires(kind: str, rule: Rule, parts: list[_Part], schema: Schema) -> bool:
    """Whether ``rule`` is a finding of ``kind`` within the compiled rules
    ``parts``: REDUNDANT when the other rules entail it, NONRELAXING or
    NONCONSTRAINING when they all entail its condition or consequent."""
    if kind == REDUNDANT:
        return _entails([part for part in parts if part[0] != rule.name], rule, schema)
    if not isinstance(rule.body, If):
        return False
    branch = getattr(rule.body, _BRANCHES[kind][0])
    return _entails(parts, Rule(rule.name, branch, rule.source_span), schema)


# --- findings -------------------------------------------------------------

@_solves_once
def lint_rule(rule: Rule, schema: Schema) -> Optional[Finding]:
    """Tautology or contradiction verdict for one rule over the schema
    domains, None for a genuine validation rule."""
    if not is_satisfiable(_build_system([_compile(rule, schema)])):
        return Finding(
            kind=CONTRADICTION,
            rule=rule.name,
            evidence=f"{format_expr(rule.body)} admits no assignment over the declared domains",
        )
    if _entails([], rule, schema):
        return Finding(
            kind=TAUTOLOGY,
            rule=rule.name,
            evidence=f"the negation of {format_expr(rule.body)} admits no assignment over the declared domains",
        )
    return None


@_solves_once
def implied_bounds(system: ConstraintSystem, variable: str) -> Interval:
    """Tightest interval enclosing the attainable values of a numeric
    variable over all solutions of a satisfiable system."""
    var_id = _resolve_variable(system, variable)
    return _hulls(system, [var_id])[var_id]


def _hulls(system: ConstraintSystem, var_ids: list[str]) -> dict[str, Interval]:
    """``implied_bounds`` of each of ``var_ids``, in one walk over the
    leaves: one ``project`` call per leaf gives every variable's
    interval there, from eliminations shared between the variables."""
    hulls: dict[str, Interval] = {}
    for _cats, rows in _leaves(system):
        for var_id, interval in project(rows, var_ids).items():
            hulls[var_id] = interval if var_id not in hulls else hulls[var_id].hull(interval)
    if len(hulls) < len(var_ids):
        raise ValueError("implied_bounds needs a satisfiable system")
    return hulls


def _resolve_variable(system: ConstraintSystem, variable: str) -> str:
    if variable in system.numeric_vars:
        return variable
    for var_id, label in system.display.items():
        if label == variable and var_id in system.numeric_vars:
            return var_id
    raise KeyError(f"not a numeric variable of this system: {variable!r}")


def _interval_text(value: Optional[Fraction]) -> Optional[str]:
    return None if value is None else format_number(value)


@_solves_once
def implied_bound_findings(system: ConstraintSystem) -> list[Finding]:
    """Fixed values and range restrictions implied by the whole set."""
    findings: list[Finding] = []
    var_ids = sorted(system.numeric_vars, key=lambda v: system.label(v))
    if not var_ids:
        return findings
    hulls = _hulls(system, var_ids)
    for var_id in var_ids:
        interval = hulls[var_id]
        label = system.label(var_id)
        declared = system.numeric_vars[var_id]
        if interval.is_point:
            findings.append(Finding(
                kind=FIXED_VALUE,
                variable=label,
                value=format_number(interval.lo),
                evidence=f"every solution has {label} = {format_number(interval.lo)}",
            ))
            continue
        if _strictly_tighter(interval, declared):
            findings.append(Finding(
                kind=RANGE_RESTRICTION,
                variable=label,
                low=_interval_text(interval.lo),
                high=_interval_text(interval.hi),
                evidence=f"solutions confine {label} to "
                         f"{_format_interval(interval)} inside its declared domain",
            ))
    return findings


def _format_interval(interval: Interval) -> str:
    left = "(" if interval.lo_open or interval.lo is None else "["
    right = ")" if interval.hi_open or interval.hi is None else "]"
    lo = "-inf" if interval.lo is None else format_number(interval.lo)
    hi = "inf" if interval.hi is None else format_number(interval.hi)
    return f"{left}{lo}, {hi}{right}"


def _strictly_tighter(interval: Interval, declared: Optional[tuple[Fraction, Fraction]]) -> bool:
    if declared is None:
        return interval.lo is not None or interval.hi is not None
    low, high = declared
    tighter_low = interval.lo is not None and (interval.lo > low or (interval.lo == low and interval.lo_open))
    tighter_high = interval.hi is not None and (interval.hi < high or (interval.hi == high and interval.hi_open))
    return tighter_low or tighter_high


@_solves_once
def detect_partial_infeasibility(system: ConstraintSystem) -> list[Finding]:
    """Levels of categorical variables that no solution can take: those
    of no leaf, since the leaves cover every solution."""
    unseen = {v: set(levels) for v, levels in system.categorical_vars.items()}
    for cats, _rows in _leaves(system) if any(unseen.values()) else ():
        for v, levels in unseen.items():
            levels -= cats[v]
        if not any(unseen.values()):
            break
    findings = []
    for v in sorted(unseen, key=system.label):
        label = system.label(v)
        findings += [Finding(kind=PARTIAL_INFEASIBILITY, variable=label, value=level,
                             evidence=f"the rule set plus {label} == \"{level}\" is unsatisfiable")
                     for level in system.categorical_vars[v] if level in unseen[v]]
    return findings


def _detect(kind: str, rules: RuleSet, schema: Schema) -> list[Finding]:
    """The rules of ``rules`` that are a finding of ``kind``, in order."""
    parts = [_compile(rule, schema) for rule in rules]
    findings = []
    for rule in rules:
        if not _fires(kind, rule, parts, schema):
            continue
        if kind == REDUNDANT:
            evidence = f"the other rules plus the negation of {format_rule(rule)!r} are unsatisfiable"
        else:
            branch, noun = _BRANCHES[kind]
            evidence = (f"the rule set plus the negation of the {noun} "
                        f"{format_expr(getattr(rule.body, branch))!r} is unsatisfiable")
        findings.append(Finding(kind=kind, rule=rule.name, evidence=evidence))
    return findings


@_solves_once
def detect_redundant(rules: RuleSet, schema: Schema) -> list[Finding]:
    """Rules already implied by the rest of the set."""
    return _detect(REDUNDANT, rules, schema)


@_solves_once
def detect_nonrelaxing(rules: RuleSet, schema: Schema) -> list[Finding]:
    """Conditional rules whose condition the set forces to be true."""
    return _detect(NONRELAXING, rules, schema)


@_solves_once
def detect_nonconstraining(rules: RuleSet, schema: Schema) -> list[Finding]:
    """Conditional rules whose consequent already holds on every solution."""
    return _detect(NONCONSTRAINING, rules, schema)


def _split(rules: RuleSet, schema: Schema) -> tuple[list[Rule], list[tuple[str, str]]]:
    """(the analyzable rules, and the name and reason of each rule
    outside the analyzable fragment)."""
    supported: list[Rule] = []
    unsupported: list[tuple[str, str]] = []
    for rule in rules:
        try:
            _compile(rule, schema)
        except UnsupportedForAnalysisError as exc:
            unsupported.append((rule.name, exc.reason))
        else:
            supported.append(rule)
    return supported, unsupported


@_solves_once
def lint_ruleset(rules: RuleSet, schema: Schema) -> tuple[list[Finding], RuleSet, list[tuple[str, str]]]:
    """Lint every rule; returns (findings, the analyzable rules, and the
    name and reason of each rule outside the analyzable fragment)."""
    supported, unsupported = _split(rules, schema)
    findings = [finding for rule in supported if (finding := lint_rule(rule, schema)) is not None]
    return findings, RuleSet(tuple(supported)), unsupported


@_solves_once
def analyze_ruleset(rules: RuleSet, schema: Schema) -> tuple[list[Finding], list[tuple[str, str]]]:
    """Run every detection; returns (findings, unsupported rules).

    Rules outside the analyzable fragment are reported, not analyzed;
    set-level findings cover the analyzable remainder.
    """
    findings, subset, unsupported = lint_ruleset(rules, schema)
    system = compile_rules(subset, schema)
    if not is_satisfiable(system):
        findings.append(Finding(
            kind=INFEASIBLE,
            evidence="the conjunction of all rules admits no assignment over the declared domains",
        ))
        return findings, unsupported
    findings.extend(detect_partial_infeasibility(system))
    findings.extend(implied_bound_findings(system))
    findings.extend(detect_redundant(subset, schema))
    findings.extend(detect_nonrelaxing(subset, schema))
    findings.extend(detect_nonconstraining(subset, schema))
    return findings, unsupported


@_solves_once
def ruleset_implies(stronger: RuleSet, weaker: RuleSet, schema: Schema) -> bool:
    """True when every solution of ``stronger`` satisfies every rule of
    ``weaker`` (checked rule by rule via unsatisfiability probes)."""
    parts = [_compile(rule, schema) for rule in stronger]
    return all(_entails(parts, rule, schema) for rule in weaker)


# --- simplification --------------------------------------------------------

@dataclass(frozen=True)
class SimplifyStep:
    action: str  # nonrelaxing, nonconstraining, drop_redundant, infeasible
    rule: str
    before: str
    after: Optional[str]
    probe: str


@_solves_once
def simplify_ruleset(rules: RuleSet, schema: Schema) -> tuple[RuleSet, list[SimplifyStep]]:
    """Rewrite the rule set without changing its solution set.

    Scans rules in file order and applies the first transformation that
    fires: a conditional whose condition always holds collapses to its
    consequent; a conditional whose consequent always holds collapses to
    its consequent; a rule implied by the others is dropped.  Repeats to
    a fixpoint.  Rules outside the analyzable fragment are kept as they
    are.  An unsatisfiable input is returned unchanged with an
    ``infeasible`` log entry.  Every step keeps the solution set, so a
    conditional's condition and consequent probes are asked once per
    call.  A rule found not redundant is not asked again until a rewrite:
    a drop only removes premises of its probe, but a rewrite makes a rule
    stronger.
    """
    supported, unsupported = _split(rules, schema)
    if not is_satisfiable(_build_system([_compile(rule, schema) for rule in supported])):
        return rules, [SimplifyStep(action="infeasible", rule="", before="", after=None,
                                    probe="the conjunction of all rules is unsatisfiable")]

    kept = {name for name, _reason in unsupported}
    current = rules
    log: list[SimplifyStep] = []
    settled: set[Rule] = set()
    irredundant: set[Rule] = set()
    while True:
        analyzable = [rule for rule in current if rule.name not in kept]
        parts = [_compile(rule, schema) for rule in analyzable]
        for rule in analyzable:
            if (rewrite := _first_rewrite(rule, parts, schema, settled, irredundant)) is None:
                continue
            action, new_rule, probe = rewrite
            log.append(SimplifyStep(
                action=action, rule=rule.name, before=format_rule(rule),
                after=None if new_rule is None else format_rule(new_rule), probe=probe,
            ))
            if new_rule is None:
                current = current.without(rule.name)
            else:
                current = current.replacing(rule.name, new_rule)
                irredundant.clear()
            break
        else:
            return current, log


def _first_rewrite(rule: Rule, parts: list[_Part], schema: Schema, settled: set[Rule],
                   irredundant: set[Rule]) -> Optional[tuple[str, Optional[Rule], str]]:
    """(action, rewritten rule or None to drop it, probe text) for the
    first simplification that applies to ``rule`` within ``parts``;
    ``settled`` holds the conditionals neither of whose branches the
    set entails, and ``irredundant`` the rules the others do not entail,
    and each gains ``rule`` when that is found."""
    if isinstance(rule.body, If) and rule not in settled:
        consequent = Rule(rule.name, rule.body.then, rule.source_span)
        if _fires(NONRELAXING, rule, parts, schema):
            return "nonrelaxing", consequent, "rule set plus negated condition is unsatisfiable"
        if _fires(NONCONSTRAINING, rule, parts, schema):
            return "nonconstraining", consequent, "rule set plus negated consequent is unsatisfiable"
        settled.add(rule)
    if rule not in irredundant:
        if _fires(REDUNDANT, rule, parts, schema):
            return "drop_redundant", None, "remaining rules plus the negated rule are unsatisfiable"
        irredundant.add(rule)
    return None
