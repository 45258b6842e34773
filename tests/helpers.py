"""Shared test machinery: independent oracles and random generators.

The oracles here never call the production solver or evaluator paths
they are used to check.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import itertools
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Optional, Union

import numpy as np

import validus.cli
from validus.analyzer import (
    CONTRADICTION,
    FIXED_VALUE,
    INFEASIBLE,
    NONCONSTRAINING,
    NONRELAXING,
    PARTIAL_INFEASIBILITY,
    RANGE_RESTRICTION,
    REDUNDANT,
    TAUTOLOGY,
    CategoricalAtom,
    Clause,
    ConstraintSystem,
    LinearAtom,
    _atom_rows,
    analyze_ruleset,
    simplify_ruleset,
)
from validus.classifier import classify_rule
from validus.csvio import CsvFormatError, dataset_from_csv
from validus.errors import (
    DuplicateKeyError,
    IncompatibleScopeError,
    RuleParseError,
    UnknownVariableError,
    UnsupportedForAnalysisError,
    ValidusError,
)
from validus.evaluator import NA_POLICIES, EvalOptions, evaluate_ruleset
from validus.linear import Interval, feasible
from validus.model import NA, DataPoint, Key, build_dataset, format_number, natural_order
from validus.rules import (
    AGGREGATE_FNS,
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
    format_rule,
    format_ruleset,
    parse_rules,
    scoped_nodes,
    type_check,
)
from validus.schema import parse_schema
from validus.tribool import TriBool


# --- strong Kleene connectives, one value at a time ----------------------
# The reference the evaluator's compiled connectives are checked against.

_T, _F, _N = TriBool.TRUE, TriBool.FALSE, TriBool.NA


def not_(a: TriBool) -> TriBool:
    return _F if a is _T else _T if a is _F else _N


def and2(a: TriBool, b: TriBool) -> TriBool:
    """Conjunction of two operands, both already evaluated."""
    if a is _F or b is _F:
        return _F
    return _N if a is _N or b is _N else _T


def or2(a: TriBool, b: TriBool) -> TriBool:
    """Disjunction of two operands, both already evaluated."""
    if a is _T or b is _T:
        return _T
    return _N if a is _N or b is _N else _F


def and_(args: Iterable[TriBool]) -> TriBool:
    return reduce(and2, args, _T)


def or_(args: Iterable[TriBool]) -> TriBool:
    return reduce(or2, args, _F)


def implies(cond: TriBool, conseq: TriBool) -> TriBool:
    return or2(not_(cond), conseq)


def kleene_apply(op: str, args: list[TriBool]) -> TriBool:
    """Apply a logical connective; ``if`` reads its two args as
    (condition, consequent)."""
    if op == "not":
        (a,) = args
        return not_(a)
    if op == "and":
        return and_(args)
    if op == "or":
        return or_(args)
    if op == "if":
        cond, conseq = args
        return implies(cond, conseq)
    raise ValueError(f"unknown logical operator {op!r}")


# --- three-valued truth-table oracle over rule bodies ---------------------

_CANON = {"<": ("<", True), ">=": ("<", False),
          "<=": ("<=", True), ">": ("<=", False),
          "==": ("==", True), "!=": ("==", False)}


def _atom_key(expr: Expr):
    if isinstance(expr, Binary) and expr.op in _CANON:
        op, positive = _CANON[expr.op]
        return (op, expr.left, expr.right), positive
    return expr, True


def atom_keys(expr: Expr) -> list:
    """Distinct logical atoms of a body, in first-seen order."""
    keys = []

    def walk(e: Expr) -> None:
        if isinstance(e, Binary) and e.op in ("and", "or"):
            walk(e.left)
            walk(e.right)
        elif isinstance(e, Unary) and e.op == "not":
            walk(e.operand)
        elif isinstance(e, If):
            walk(e.cond)
            walk(e.then)
        else:
            key, _ = _atom_key(e)
            if key not in keys:
                keys.append(key)

    walk(expr)
    return keys


def abstract_eval(expr: Expr, assignment: dict) -> TriBool:
    """Evaluate a logical body with atoms abstracted to TriBool values.

    A comparison and its flipped form are the same atom with opposite
    polarity, so this is a sound oracle for negation rewrites.
    """
    if isinstance(expr, Binary) and expr.op == "and":
        return and_([abstract_eval(expr.left, assignment), abstract_eval(expr.right, assignment)])
    if isinstance(expr, Binary) and expr.op == "or":
        return or_([abstract_eval(expr.left, assignment), abstract_eval(expr.right, assignment)])
    if isinstance(expr, Unary) and expr.op == "not":
        return not_(abstract_eval(expr.operand, assignment))
    if isinstance(expr, If):
        return implies(abstract_eval(expr.cond, assignment), abstract_eval(expr.then, assignment))
    key, positive = _atom_key(expr)
    value = assignment[key]
    return value if positive else not_(value)


def all_assignments(keys: list):
    for combo in itertools.product((TriBool.TRUE, TriBool.FALSE, TriBool.NA), repeat=len(keys)):
        yield dict(zip(keys, combo))


# --- grid oracle for systems of single-variable atoms ---------------------

def grid_candidates(system: ConstraintSystem, var: str) -> list[Fraction]:
    breaks = set()
    for clause in system.clauses:
        for atom in clause.disjuncts:
            if isinstance(atom, LinearAtom):
                assert len(atom.coeffs) == 1, "grid oracle needs single-variable atoms"
                v, coeff = atom.coeffs[0]
                if v == var:
                    breaks.add(atom.constant / coeff)
    return grid_points(breaks)


def grid_points(breaks) -> list[Fraction]:
    """Each breakpoint, the midpoints between neighbours, and one point
    outside each end: a point in every cell the breakpoints cut."""
    if not breaks:
        return [Fraction(0)]
    points = sorted(breaks)
    candidates = [points[0] - 1]
    for a, b in zip(points, points[1:]):
        candidates.append(a)
        candidates.append((a + b) / 2)
    candidates.append(points[-1])
    candidates.append(points[-1] + 1)
    return candidates


def grid_oracle(system: ConstraintSystem) -> bool:
    """Exhaustive satisfiability over categorical levels and a rational
    grid containing every atom breakpoint, its midpoints, and outside
    offsets.  Exact for systems whose linear atoms touch one variable."""
    num_vars = sorted(system.numeric_vars)
    cat_vars = sorted(system.categorical_vars)
    grids = {v: grid_candidates(system, v) for v in num_vars}
    shape = tuple(len(grids[v]) for v in num_vars)
    axis = {v: i for i, v in enumerate(num_vars)}

    def atom_vector(atom: LinearAtom) -> np.ndarray:
        (v, coeff), = atom.coeffs
        values = grids[v]
        ops = {
            "<": lambda q: coeff * q < atom.constant,
            "<=": lambda q: coeff * q <= atom.constant,
            "==": lambda q: coeff * q == atom.constant,
            "!=": lambda q: coeff * q != atom.constant,
            ">=": lambda q: coeff * q >= atom.constant,
            ">": lambda q: coeff * q > atom.constant,
        }
        truth = np.array([ops[atom.relation](q) for q in values], dtype=bool)
        reshape = [1] * len(num_vars)
        reshape[axis[v]] = len(values)
        return truth.reshape(reshape)

    level_lists = [system.categorical_vars[v] for v in cat_vars]
    for combo in itertools.product(*level_lists) if cat_vars else [()]:
        cat_assign = dict(zip(cat_vars, combo))
        ok = np.ones(shape, dtype=bool)
        for clause in system.clauses:
            acc = np.zeros(shape, dtype=bool)
            for atom in clause.disjuncts:
                if isinstance(atom, CategoricalAtom):
                    if cat_assign[atom.variable] in atom.allowed:
                        acc |= True
                else:
                    acc = acc | atom_vector(atom)
            ok = ok & acc
            if not ok.any():
                break
        if ok.any():
            return True
    return False


def grid_oracle_excluded_levels(system: ConstraintSystem) -> list[tuple[str, str]]:
    """Each (variable, level) for which ``grid_oracle`` finds the system
    plus a clause fixing that level unsatisfiable, by sorted variable and
    then declared level order: ``detect_partial_infeasibility``'s order
    for a system whose labels are its variable ids."""
    return [(v, level) for v in sorted(system.categorical_vars) for level in system.categorical_vars[v]
            if not grid_oracle(dataclasses.replace(system, clauses=[
                *system.clauses, Clause((CategoricalAtom(v, frozenset({level})),), "level")]))]


# --- reference case split: a feasibility check after every clause ------------

def reference_leaves(system: ConstraintSystem):
    """The analyzer's case split as it was before it checked feasibility
    only at branch points: every added clause is checked at once.  The
    leaves it yields, in order, are the ones the analyzer must yield."""
    domains = {v: frozenset(levels) for v, levels in system.categorical_vars.items()}
    clauses = system.clauses

    def descend(index, cats, rows):
        if index == len(clauses):
            if feasible(rows) is not None:
                yield cats, rows
            return
        clause = clauses[index]
        for atom in clause.disjuncts:
            if isinstance(atom, CategoricalAtom) and cats[atom.variable] <= atom.allowed:
                yield from descend(index + 1, cats, rows)
                return
        for atom in clause.disjuncts:
            if isinstance(atom, CategoricalAtom):
                narrowed = cats[atom.variable] & atom.allowed
                if narrowed:
                    yield from descend(index + 1, {**cats, atom.variable: narrowed}, rows)
                continue
            variants = ([LinearAtom(atom.coeffs, "<", atom.constant), LinearAtom(atom.coeffs, ">", atom.constant)]
                        if atom.relation == "!=" else [atom])
            for variant in variants:
                extended = rows + _atom_rows(variant)
                if feasible(extended) is not None:
                    yield from descend(index + 1, cats, extended)

    yield from descend(0, domains, [])


def reference_witness(system: ConstraintSystem):
    """The witness ``is_satisfiable`` gives, built from the first
    reference leaf; None when the system is unsatisfiable."""
    for cats, rows in reference_leaves(system):
        numeric = feasible(rows)
        witness = {var: numeric.get(var, Fraction(0)) for var in system.numeric_vars}
        witness.update({var: sorted(levels)[0] for var, levels in cats.items()})
        return witness
    return None


# --- reference witness check: every atom evaluated over Fractions ----------

def reference_atom_holds(atom, numeric: dict, cats: dict) -> bool:
    """Whether one atom holds at a witness, by direct ``Fraction``
    arithmetic; a numeric variable the witness lacks counts as 0."""
    if isinstance(atom, CategoricalAtom):
        return cats.get(atom.variable) in atom.allowed
    total = sum((c * numeric.get(v, Fraction(0)) for v, c in atom.coeffs), Fraction(0))
    return COMPARE[atom.relation](total, atom.constant)


def reference_check_witness(system: ConstraintSystem, witness: dict) -> bool:
    """``check_witness`` as it was before it read integer rows, with
    ``int`` values counted as the numbers they are."""
    numeric = {v: Fraction(val) for v, val in witness.items() if isinstance(val, (int, Fraction))}
    cats = {v: val for v, val in witness.items() if isinstance(val, str)}
    return all(
        any(reference_atom_holds(atom, numeric, cats) for atom in clause.disjuncts)
        for clause in system.clauses
    )


# --- reference Fourier-Motzkin: the solver before integer rows -------------

@dataclass(frozen=True)
class ReferenceRow:
    """sum(coeff * var) <= bound, strictly when ``strict``; coefficients
    and bound are the ``Fraction``s given, not normalised."""

    coeffs: tuple[tuple[str, Fraction], ...]
    strict: bool
    bound: Fraction

    def coeff(self, var: str) -> Fraction:
        for name, c in self.coeffs:
            if name == var:
                return c
        return Fraction(0)

    def evaluate(self, assignment: dict) -> Fraction:
        return sum((c * assignment.get(v, Fraction(0)) for v, c in self.coeffs), Fraction(0))

    def holds(self, assignment: dict) -> bool:
        lhs = self.evaluate(assignment)
        return lhs < self.bound if self.strict else lhs <= self.bound


def reference_make_row(coeffs: dict, strict: bool, bound) -> ReferenceRow:
    items = tuple(sorted((v, Fraction(c)) for v, c in coeffs.items() if c != 0))
    return ReferenceRow(items, strict, Fraction(bound))


def _ref_scale_add(a: ReferenceRow, fa: Fraction, b: ReferenceRow, fb: Fraction) -> ReferenceRow:
    coeffs: dict = {}
    for v, c in a.coeffs:
        coeffs[v] = coeffs.get(v, Fraction(0)) + fa * c
    for v, c in b.coeffs:
        coeffs[v] = coeffs.get(v, Fraction(0)) + fb * c
    return reference_make_row(coeffs, a.strict or b.strict, fa * a.bound + fb * b.bound)


def _ref_split(rows: list, var: str) -> tuple[list, list, list]:
    lowers, uppers, rest = [], [], []
    for row in rows:
        c = row.coeff(var)
        (lowers if c < 0 else uppers if c > 0 else rest).append(row)
    return lowers, uppers, rest


def _ref_pick_var(rows: list, keep: frozenset) -> Optional[str]:
    counts: dict = {}
    for row in rows:
        for v, c in row.coeffs:
            if v in keep:
                continue
            lo_up = counts.setdefault(v, [0, 0])
            lo_up[0 if c < 0 else 1] += 1
    if not counts:
        return None
    return min(counts, key=lambda v: (counts[v][0] * counts[v][1], v))


def _ref_eliminate(rows: list, keep: frozenset):
    rows = list(dict.fromkeys(rows))
    trace = []
    while True:
        pending = []
        for row in rows:
            if row.coeffs:
                pending.append(row)
            elif not (0 < row.bound if row.strict else 0 <= row.bound):
                return None
        rows = pending
        var = _ref_pick_var(rows, keep)
        if var is None:
            return rows, trace
        lowers, uppers, rest = _ref_split(rows, var)
        trace.append((var, lowers, uppers))
        combined = list(rest)
        for low in lowers:
            for up in uppers:
                combined.append(_ref_scale_add(low, up.coeff(var), up, -low.coeff(var)))
        rows = list(dict.fromkeys(combined))


def _ref_bounds_on(var: str, lowers: list, uppers: list, assignment: dict):
    lo = hi = None
    for row in lowers:
        c = row.coeff(var)
        value = (row.bound - (row.evaluate(assignment) - c * assignment.get(var, Fraction(0)))) / c
        if lo is None or value > lo[0] or (value == lo[0] and row.strict):
            lo = (value, row.strict)
    for row in uppers:
        c = row.coeff(var)
        value = (row.bound - (row.evaluate(assignment) - c * assignment.get(var, Fraction(0)))) / c
        if hi is None or value < hi[0] or (value == hi[0] and row.strict):
            hi = (value, row.strict)
    return lo, hi


def fraction_bounds_on(var: str, lowers: list, uppers: list, assignment: dict):
    """``linear._bounds_on`` over integer rows as it was before back
    substitution kept integers: each candidate bound a ``Fraction``,
    compared as one; (value, open) on each side, or None."""
    lo = hi = None
    for row in lowers:
        value = _fraction_solve_for(var, row, assignment)  # c < 0 flips into a lower bound
        if lo is None or value > lo[0] or (value == lo[0] and row.strict):
            lo = (value, row.strict)
    for row in uppers:
        value = _fraction_solve_for(var, row, assignment)
        if hi is None or value < hi[0] or (value == hi[0] and row.strict):
            hi = (value, row.strict)
    return lo, hi


def _fraction_solve_for(var: str, row, assignment: dict) -> Fraction:
    rest = sum((c * Fraction(assignment.get(v, 0)) for v, c in row.coeffs if v != var), Fraction(0))
    return (Fraction(row.bound) - rest) / row.coeff(var)


def _ref_choose(lo, hi) -> Fraction:
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return hi[0] - 1
    if hi is None:
        return lo[0] + 1
    if lo[0] == hi[0]:
        return lo[0]
    return (lo[0] + hi[0]) / 2


def reference_feasible(rows: list) -> Optional[dict]:
    """``linear.feasible`` as it was over ``Fraction`` rows, keeping
    every parallel row: a witness assignment, or None if infeasible."""
    result = _ref_eliminate(rows, frozenset())
    if result is None:
        return None
    assignment: dict = {}
    for var, lowers, uppers in reversed(result[1]):
        assignment[var] = _ref_choose(*_ref_bounds_on(var, lowers, uppers, assignment))
    assert all(row.holds(assignment) for row in rows)
    return assignment


def reference_project(rows: list, var: str) -> Optional[Interval]:
    """``linear.project`` as it was over ``Fraction`` rows."""
    result = _ref_eliminate(rows, frozenset({var}))
    if result is None:
        return None
    lowers, uppers, _rest = _ref_split(result[0], var)
    lo, hi = _ref_bounds_on(var, lowers, uppers, {})
    if lo is not None and hi is not None:
        if lo[0] > hi[0] or (lo[0] == hi[0] and (lo[1] or hi[1])):
            return None
    return Interval(
        lo=None if lo is None else lo[0],
        lo_open=False if lo is None else lo[1],
        hi=None if hi is None else hi[0],
        hi_open=False if hi is None else hi[1],
    )


# --- exact LP oracle for general systems -----------------------------------

def lp_oracle(system: ConstraintSystem) -> bool:
    """Independent exact satisfiability: enumerate every clause branch and
    categorical combination, decide each linear conjunction with an exact
    simplex (strict rows get a maximized slack)."""
    from sympy import Rational, Symbol
    from sympy.solvers.simplex import InfeasibleLPError, lpmax

    num_vars = sorted(system.numeric_vars)
    cat_vars = sorted(system.categorical_vars)
    syms = {v: Symbol(f"v{i}") for i, v in enumerate(num_vars)}
    eps = Symbol("eps")

    def conjunction_sat(atoms: list[LinearAtom]) -> bool:
        constraints = [eps >= 0, eps <= 1]
        for atom in atoms:
            lhs = sum(Rational(c.numerator, c.denominator) * syms[v] for v, c in atom.coeffs)
            bound = Rational(atom.constant.numerator, atom.constant.denominator)
            if atom.relation == "<=":
                constraints.append(lhs <= bound)
            elif atom.relation == "<":
                constraints.append(lhs + eps <= bound)
            elif atom.relation == ">=":
                constraints.append(-lhs <= -bound)
            elif atom.relation == ">":
                constraints.append(-lhs + eps <= -bound)
            elif atom.relation == "==":
                constraints.append(lhs <= bound)
                constraints.append(-lhs <= -bound)
            else:
                raise AssertionError("!= must be split by the caller")
        strict = any(a.relation in ("<", ">") for a in atoms)
        try:
            best, _ = lpmax(eps, constraints)
        except InfeasibleLPError:
            return False
        return best > 0 if strict else True

    def branch_atoms(atom: LinearAtom) -> list[list[LinearAtom]]:
        if atom.relation == "!=":
            return [[LinearAtom(atom.coeffs, "<", atom.constant)],
                    [LinearAtom(atom.coeffs, ">", atom.constant)]]
        return [[atom]]

    level_lists = [system.categorical_vars[v] for v in cat_vars]
    for combo in itertools.product(*level_lists) if cat_vars else [()]:
        cat_assign = dict(zip(cat_vars, combo))
        residual = []
        ok = True
        for clause in system.clauses:
            options: list[list[LinearAtom]] = []
            satisfied = False
            for atom in clause.disjuncts:
                if isinstance(atom, CategoricalAtom):
                    if cat_assign[atom.variable] in atom.allowed:
                        satisfied = True
                        break
                else:
                    options.extend(branch_atoms(atom))
            if satisfied:
                continue
            if not options:
                ok = False
                break
            residual.append(options)
        if not ok:
            continue
        for selection in itertools.product(*residual):
            atoms = [a for group in selection for a in group]
            if conjunction_sat(atoms):
                return True
    return False


# --- random generators ------------------------------------------------------

NUM_VARS = ("x0", "x1", "x2", "x3")
CAT_VARS = {"g0": ("a", "b", "c"), "g1": ("u", "v")}


def random_linear_atom(rng: random.Random, var_pool, multivar: bool) -> LinearAtom:
    relation = rng.choice(["<", "<=", "==", "!=", ">=", ">"])
    constant = Fraction(rng.randint(-3, 3))
    if multivar and rng.random() < 0.6 and len(var_pool) > 1:
        count = rng.randint(2, min(3, len(var_pool)))
        chosen = rng.sample(list(var_pool), count)
    else:
        chosen = [rng.choice(list(var_pool))]
    coeffs = []
    for v in chosen:
        c = 0
        while c == 0:
            c = rng.randint(-3, 3)
        coeffs.append((v, Fraction(c)))
    return LinearAtom(tuple(sorted(coeffs)), relation, constant)


def random_categorical_atom(rng: random.Random, var: str) -> CategoricalAtom:
    levels = CAT_VARS[var]
    size = rng.randint(1, len(levels))
    return CategoricalAtom(var, frozenset(rng.sample(levels, size)))


def random_system(rng: random.Random, multivar: bool) -> ConstraintSystem:
    n_num = rng.randint(1, 4)
    num_pool = NUM_VARS[:n_num]
    cat_pool = [v for v in CAT_VARS if rng.random() < 0.5][:2]
    clauses = []
    for i in range(rng.randint(1, 6)):
        disjuncts = []
        for _ in range(rng.choice([1, 1, 2, 2, 3])):
            if cat_pool and rng.random() < 0.3:
                disjuncts.append(random_categorical_atom(rng, rng.choice(cat_pool)))
            else:
                disjuncts.append(random_linear_atom(rng, num_pool, multivar))
        clauses.append(Clause(tuple(disjuncts), f"c{i}"))
    return ConstraintSystem(
        clauses=clauses,
        numeric_vars={v: None for v in num_pool},
        categorical_vars={v: CAT_VARS[v] for v in cat_pool},
        display={},
    )


def random_witness(rng: random.Random) -> dict:
    """Values for some of ``NUM_VARS`` (``int`` or fractional ``Fraction``)
    and ``CAT_VARS``; a variable left out counts as 0 or as no level."""
    witness = {}
    for v in NUM_VARS:
        if rng.random() < 0.85:
            witness[v] = (rng.randint(-4, 4) if rng.random() < 0.5
                          else Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4, 6])))
    for v, levels in CAT_VARS.items():
        if rng.random() < 0.85:
            witness[v] = rng.choice(levels)
    return witness


def random_fractional_atom(rng: random.Random, witness: dict) -> LinearAtom:
    """A linear atom over one to three of ``NUM_VARS`` with any of the six
    relations and fractional coefficients; a third of the time its
    constant makes it tight at ``witness``."""
    coeffs = []
    for v in sorted(rng.sample(NUM_VARS, rng.randint(1, 3))):
        c = Fraction(0)
        while c == 0:
            c = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 5]))
        coeffs.append((v, c))
    if rng.random() < 1 / 3:
        constant = sum((c * Fraction(witness.get(v, 0)) for v, c in coeffs), Fraction(0))
    else:
        constant = Fraction(rng.randint(-16, 16), rng.choice([1, 2, 3, 6]))
    return LinearAtom(tuple(coeffs), rng.choice(["<", "<=", "==", "!=", ">=", ">"]), constant)


def random_witness_system(rng: random.Random, witness: dict) -> ConstraintSystem:
    """Up to five clauses of fractional linear atoms and categorical
    atoms over every variable of ``random_witness``."""
    clauses = []
    for i in range(rng.randint(1, 5)):
        disjuncts = tuple(
            random_categorical_atom(rng, rng.choice(list(CAT_VARS))) if rng.random() < 0.25
            else random_fractional_atom(rng, witness)
            for _ in range(rng.randint(1, 3)))
        clauses.append(Clause(disjuncts, f"c{i}"))
    return ConstraintSystem(clauses, {v: None for v in NUM_VARS}, dict(CAT_VARS), {})


def random_row_specs(rng: random.Random) -> list[tuple[dict, bool, Fraction]]:
    """(coefficients, strict, bound) of a random system over up to four
    variables: fractional coefficients and bounds, strict rows,
    equalities as row pairs, and parallel copies with other bounds."""
    names = NUM_VARS[:rng.randint(1, 4)]

    def number(spread: int) -> Fraction:
        return Fraction(rng.randint(-spread, spread), rng.choice([1, 1, 1, 2, 3, 6]))

    specs = []
    for _ in range(rng.randint(1, 7)):
        coeffs = {}
        for v in rng.sample(names, rng.randint(1, len(names))):
            c = Fraction(0)
            while c == 0:
                c = number(4)
            coeffs[v] = c
        bound = number(8)
        kind = rng.random()
        if kind < 0.15:  # equality
            specs.append((coeffs, False, bound))
            specs.append(({v: -c for v, c in coeffs.items()}, False, -bound))
            continue
        specs.append((coeffs, rng.random() < 0.3, bound))
        if kind < 0.55:  # parallel copies: scaled, with the same or another bound
            for _ in range(rng.randint(1, 3)):
                scale = Fraction(rng.randint(1, 4), rng.randint(1, 3))
                moved = rng.choice([bound, bound, bound + number(2)])
                specs.append(({v: c * scale for v, c in coeffs.items()}, rng.random() < 0.5, moved * scale))
    rng.shuffle(specs)
    return specs


# rule generator covering every syntactic feature, for classifier coverage

_TABLES = ("trade", "partner")


def _random_arith(rng: random.Random, depth: int, table: str | None, lag_ok: bool) -> Expr:
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        if rng.random() < 0.4:
            return NumberLit(Fraction(rng.randint(-9, 9)))
        lag = rng.choice([0, 0, 0, 1, 2]) if lag_ok else 0
        name = rng.choice(["alpha", "beta", "gamma"])
        return VarRef(name, table=table, lag=lag)
    if roll < 0.55:
        inner_table = rng.choice([table, table, rng.choice(_TABLES)])
        fn = rng.choice(["mean", "sum", "min", "max", "count"])
        return Aggregate(fn, _random_arith(rng, depth - 1, inner_table, lag_ok))
    if roll < 0.65:
        op = rng.choice(["neg", "abs"])
        operand = _random_arith(rng, depth - 1, table, lag_ok)
        if op == "neg" and isinstance(operand, NumberLit):
            return NumberLit(-operand.value)  # parser folds negative literals
        return Unary(op, operand)
    op = rng.choice(["+", "-", "*", "/"])
    return Binary(op, _random_arith(rng, depth - 1, table, lag_ok), _random_arith(rng, depth - 1, table, lag_ok))


def random_rule(rng: random.Random, name: str = "g") -> Rule:
    """A random type-correct rule exercising literals, lags, aggregates,
    cross-table references, builtins, and every logical connective."""
    table = rng.choice([None, None, None, rng.choice(_TABLES)])

    def logical(depth: int) -> Expr:
        roll = rng.random()
        if depth <= 0 or roll < 0.45:
            kind = rng.random()
            if kind < 0.15:
                fn = rng.choice(["is_number", "is_integer", "is_text", "is_na"])
                return Builtin(fn, (_random_arith(rng, 0, table, True),))
            if kind < 0.25:
                target = VarRef(rng.choice(["alpha", "beta"]), table=table)
                return Builtin("in_set", (target, SetLit(("p", "q"))))
            op = rng.choice(["<", "<=", "==", "!=", ">=", ">"])
            return Binary(op, _random_arith(rng, rng.randint(0, 2), table, True),
                          _random_arith(rng, rng.randint(0, 2), table, True))
        if roll < 0.6:
            return Binary(rng.choice(["and", "or"]), logical(depth - 1), logical(depth - 1))
        if roll < 0.75:
            return Unary("not", logical(depth - 1))
        return If(logical(depth - 1), logical(depth - 1))

    return Rule(name, logical(rng.randint(1, 3)))


# --- reference rule parser: one token object and one regex match at a time --

@dataclass(frozen=True)
class _RefToken:
    kind: str  # NUMBER STRING IDENT OP EOF
    text: str
    line: int
    col: int
    value: object = None


_REF_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r]+)
    | (?P<comment>\#[^\n]*)
    | (?P<nl>\n)
    | (?P<number>\d+(?:\.\d+)?)
    | (?P<ident>[A-Za-z_]\w*)
    | (?P<string>"(?:\\.|[^"\\\n])*")
    | (?P<op><=|==|!=|>=|[-+*/<>(){},.@:])
    """,
    re.VERBOSE,
)
_REF_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
_REF_KEYWORDS = ("if", "and", "or", "not", "NA")
_REF_CALL_FNS = AGGREGATE_FNS + ("abs", "is_number", "is_integer", "is_text", "is_na", "in_set")


def _ref_unescape(raw: str, line: int, col: int) -> str:
    out = []
    i = 1
    while i < len(raw) - 1:
        ch = raw[i]
        if ch == "\\":
            esc = raw[i + 1]
            if esc not in _REF_ESCAPES:
                raise RuleParseError(line, col, f"valid escape, not \\{esc}")
            out.append(_REF_ESCAPES[esc])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _ref_tokenize(text: str) -> list[_RefToken]:
    tokens: list[_RefToken] = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        col = pos - line_start + 1
        if not m:
            raise RuleParseError(line, col, f"a token, not {text[pos]!r}")
        pos = m.end()
        if m.lastgroup in ("ws", "comment"):
            continue
        if m.lastgroup == "nl":
            line += 1
            line_start = pos
            continue
        raw = m.group()
        if m.lastgroup == "number":
            tokens.append(_RefToken("NUMBER", raw, line, col, Fraction(raw)))
        elif m.lastgroup == "ident":
            tokens.append(_RefToken("IDENT", raw, line, col))
        elif m.lastgroup == "string":
            tokens.append(_RefToken("STRING", raw, line, col, _ref_unescape(raw, line, col)))
        else:
            tokens.append(_RefToken("OP", raw, line, col))
    tokens.append(_RefToken("EOF", "", line, pos - line_start + 1))
    return tokens


class _RefParser:
    def __init__(self, tokens: list[_RefToken]):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self) -> _RefToken:
        return self.tokens[self.pos]

    def _fail(self, expected: str):
        tok = self.cur
        raise RuleParseError(tok.line, tok.col, expected)

    def _advance(self) -> _RefToken:
        tok = self.cur
        self.pos += 1
        return tok

    def _accept_op(self, *ops: str) -> Optional[_RefToken]:
        if self.cur.kind == "OP" and self.cur.text in ops:
            return self._advance()
        return None

    def _expect_op(self, op: str) -> _RefToken:
        tok = self._accept_op(op)
        if tok is None:
            self._fail(f"{op!r}")
        return tok

    def _accept_word(self, word: str) -> Optional[_RefToken]:
        if self.cur.kind == "IDENT" and self.cur.text == word:
            return self._advance()
        return None

    def ruleset(self) -> list[Rule]:
        rules = []
        while self.cur.kind != "EOF":
            rules.append(self.rule())
        return rules

    def rule(self) -> Rule:
        if self.cur.kind != "IDENT" or self.cur.text in _REF_KEYWORDS:
            self._fail("a rule name")
        name_tok = self._advance()
        self._expect_op(":")
        body = self.expr()
        return Rule(name_tok.text, body, (name_tok.line, name_tok.col))

    def expr(self) -> Expr:
        if self._accept_word("if"):
            self._expect_op("(")
            cond = self.expr()
            self._expect_op(")")
            then = self.expr()
            return If(cond, then)
        return self.or_expr()

    def or_expr(self) -> Expr:
        node = self.and_expr()
        while self._accept_word("or"):
            node = Binary("or", node, self.and_expr())
        return node

    def and_expr(self) -> Expr:
        node = self.not_expr()
        while self._accept_word("and"):
            node = Binary("and", node, self.not_expr())
        return node

    def not_expr(self) -> Expr:
        if self._accept_word("not"):
            return Unary("not", self.not_expr())
        return self.cmp()

    def cmp(self) -> Expr:
        node = self.sum()
        if self.cur.kind == "OP" and self.cur.text in COMPARE:
            op = self._advance().text
            node = Binary(op, node, self.sum())
        return node

    def sum(self) -> Expr:
        node = self.term()
        while True:
            tok = self._accept_op("+", "-")
            if tok is None:
                return node
            node = Binary(tok.text, node, self.term())

    def term(self) -> Expr:
        node = self.factor()
        while True:
            tok = self._accept_op("*", "/")
            if tok is None:
                return node
            node = Binary(tok.text, node, self.factor())

    def factor(self) -> Expr:
        tok = self.cur
        if tok.kind == "NUMBER":
            self._advance()
            return NumberLit(tok.value)
        if tok.kind == "STRING":
            self._advance()
            return TextLit(tok.value)
        if self._accept_op("-"):
            inner = self.factor()
            if isinstance(inner, NumberLit):  # fold negative literals
                return NumberLit(-inner.value)
            return Unary("neg", inner)
        if self._accept_op("("):
            node = self.expr()
            self._expect_op(")")
            return node
        if self._accept_op("{"):
            return self.set_tail()
        if tok.kind == "IDENT":
            if tok.text == "NA":
                self._advance()
                return NALit()
            if tok.text in _REF_KEYWORDS:
                self._fail("an expression")
            if tok.text in _REF_CALL_FNS and self._peek_is_call():
                return self.call()
            return self.varref()
        self._fail("an expression")

    def _peek_is_call(self) -> bool:
        nxt = self.tokens[self.pos + 1]
        return nxt.kind == "OP" and nxt.text == "("

    def set_tail(self) -> SetLit:
        items: list[Union[Fraction, str]] = []
        while True:
            tok = self.cur
            if tok.kind == "NUMBER":
                self._advance()
                items.append(tok.value)
            elif tok.kind == "STRING":
                self._advance()
                items.append(tok.value)
            elif tok.kind == "OP" and tok.text == "-" and self.tokens[self.pos + 1].kind == "NUMBER":
                self._advance()
                items.append(-self._advance().value)
            else:
                self._fail("a number or string inside { }")
            if self._accept_op("}"):
                return SetLit(tuple(items))
            self._expect_op(",")

    def call(self) -> Expr:
        fn = self._advance().text
        self._expect_op("(")
        args = [self.expr()]
        while self._accept_op(","):
            args.append(self.expr())
        self._expect_op(")")
        if fn == "abs":
            if len(args) != 1:
                self._fail("one argument to abs")
            return Unary("abs", args[0])
        if fn in AGGREGATE_FNS:
            if len(args) != 1:
                self._fail(f"one argument to {fn}")
            return Aggregate(fn, args[0])
        if fn == "in_set":
            if len(args) != 2:
                self._fail("two arguments to in_set")
        elif len(args) != 1:
            self._fail(f"one argument to {fn}")
        return Builtin(fn, tuple(args))

    def varref(self) -> VarRef:
        first = self._advance().text
        table: Optional[str] = None
        name = first
        if self._accept_op("."):
            if self.cur.kind != "IDENT":
                self._fail("a variable name after '.'")
            table = first
            name = self._advance().text
        lag = 0
        if self._accept_op("@"):
            tok = self.cur
            if tok.kind != "NUMBER" or not isinstance(tok.value, Fraction) or tok.value.denominator != 1:
                self._fail("an integer lag after '@'")
            self._advance()
            lag = int(tok.value)
        return VarRef(name, table=table, lag=lag)


def reference_parse_rules(text: str) -> RuleSet:
    """``parse_rules`` as it was before the lexer became one regex pass
    over tuple tokens: one regex match and one frozen token object at a
    time, read through a cursor property.  It differs from that version
    only where the grammar now does: a set literal takes a "-" before a
    number.  The type check and the rule set are the production ones."""
    rules = _RefParser(_ref_tokenize(text)).ruleset()
    for rule in rules:
        type_check(rule)
    return RuleSet(tuple(rules))


def parse_outcome(parse, text: str):
    """What ``parse(text)`` gives, in a form two parsers can be compared
    on: each rule's name, body and source span, or the error's type with
    its line, column and expected text (its message, for other errors)."""
    try:
        ruleset = parse(text)
    except RuleParseError as exc:
        return ("RuleParseError", exc.line, exc.column, exc.expected)
    except ValidusError as exc:
        return (type(exc).__name__, str(exc))
    return [(rule.name, rule.body, rule.source_span) for rule in ruleset]


# --- reference rule formatter: isinstance dispatch, precedence per node ----

_REF_PREC_IF, _REF_PREC_OR, _REF_PREC_AND, _REF_PREC_NOT, _REF_PREC_CMP = range(5)
_REF_PREC_SUM, _REF_PREC_TERM, _REF_PREC_NEG, _REF_PREC_ATOM = range(5, 9)
_REF_BINARY_PREC = {
    "or": _REF_PREC_OR, "and": _REF_PREC_AND, "+": _REF_PREC_SUM, "-": _REF_PREC_SUM,
    "*": _REF_PREC_TERM, "/": _REF_PREC_TERM,
}
_REF_UNARY_PREC = {"not": _REF_PREC_NOT, "neg": _REF_PREC_NEG}


def _ref_prec(expr: Expr) -> int:
    if isinstance(expr, Binary):
        return _REF_BINARY_PREC.get(expr.op, _REF_PREC_CMP)
    if isinstance(expr, If):
        return _REF_PREC_IF
    if isinstance(expr, Unary):
        return _REF_UNARY_PREC.get(expr.op, _REF_PREC_ATOM)
    if isinstance(expr, NumberLit) and "/" in format_number(expr.value):
        return _REF_PREC_TERM  # the text p/q reads back as a division
    return _REF_PREC_ATOM


def _ref_fmt_literal(item: Union[Fraction, str]) -> str:
    if isinstance(item, Fraction):
        text = format_number(item)
        if "/" in text:
            raise ValueError(f"set item {text} has no finite decimal form, so the rule text would not parse")
        return text
    escaped = item.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _ref_format_expr(expr: Expr, minprec: int = 0) -> str:
    text = _ref_format_bare(expr)
    if minprec and _ref_prec(expr) < minprec:
        return f"({text})"
    return text


def _ref_format_bare(expr: Expr) -> str:
    if isinstance(expr, Binary):
        prec = _ref_prec(expr)
        left = _ref_format_expr(expr.left, prec)
        right = _ref_format_expr(expr.right, prec + 1)
        return f"{left} {expr.op} {right}"
    if isinstance(expr, NumberLit):
        return format_number(expr.value)
    if isinstance(expr, TextLit):
        return _ref_fmt_literal(expr.value)
    if isinstance(expr, NALit):
        return "NA"
    if isinstance(expr, SetLit):
        return "{" + ", ".join(_ref_fmt_literal(i) for i in expr.items) + "}"
    if isinstance(expr, VarRef):
        text = expr.variable if expr.table is None else f"{expr.table}.{expr.variable}"
        return text if expr.lag == 0 else f"{text}@{expr.lag}"
    if isinstance(expr, Aggregate):
        return f"{expr.fn}({_ref_format_expr(expr.arg)})"
    if isinstance(expr, Builtin):
        return f"{expr.fn}(" + ", ".join(_ref_format_expr(a) for a in expr.args) + ")"
    if isinstance(expr, Unary):
        if expr.op == "not":
            return "not " + _ref_format_expr(expr.operand, _REF_PREC_NOT)
        if expr.op == "abs":
            return f"abs({_ref_format_expr(expr.operand)})"
        return "-" + _ref_format_expr(expr.operand, _REF_PREC_NEG)
    if isinstance(expr, If):
        return f"if ({_ref_format_expr(expr.cond)}) {_ref_format_expr(expr.then)}"
    raise AssertionError(f"unhandled node {expr!r}")


def reference_format_rule(rule: Rule) -> str:
    """``format_rule`` as it was before the walks dispatched on node type:
    isinstance tests in a fixed order, and the precedence of a number
    literal read off its formatted text every time."""
    return f"{rule.name}: {_ref_format_expr(rule.body)}"


def reference_format_escaped(rule: Rule) -> str:
    """``reference_format_rule`` with each newline, tab and carriage
    return written as the escape ``\\n``, ``\\t`` or ``\\r``, as
    ``format_rule`` writes them: the reference writes them raw, so its
    text does not parse back.  No other part of a formatted rule holds
    any of these characters."""
    return reference_format_rule(rule).replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")


def format_outcome(format_, rule: Rule):
    """The text ``format_(rule)`` gives, or the type and message of the
    ValueError it raises for a set item with no finite decimal form."""
    try:
        return format_(rule)
    except ValueError as exc:
        return ("ValueError", str(exc))


def random_set_rule(rng: random.Random, name: str = "s") -> Rule:
    """An in_set rule over a literal set of signed decimals, fractions
    with no finite decimal form (which have no rule text) and strings
    holding every escape."""
    def item():
        roll = rng.random()
        if roll < 0.4:
            return Fraction(rng.randint(-999, 999), rng.choice([1, 2, 4, 5, 8, 10, 100]))
        if roll < 0.5:
            return Fraction(rng.randint(-9, 9), rng.choice([3, 7]))
        return rng.choice(["p", 'say "hi"', "back\\slash", "tab\tnew\nline", "car\rreturn", "", "# not a comment", "é"])

    target = VarRef(rng.choice(["alpha", "beta"]), table=rng.choice([None, "trade"]), lag=rng.choice([0, 0, 1]))
    return Rule(name, Builtin("in_set", (target, SetLit(tuple(item() for _ in range(rng.randint(1, 4)))))))


# --- rule files for the parser: valid files and token soup -----------------

_ESCAPED_STRINGS = ('"plain"', '"say \\"hi\\""', '"back\\\\slash"', '"tab\\tnew\\nline"', '"car\\rreturn"', '""',
                    '"# not a comment"')


def random_rule_file(rng: random.Random, count: int) -> str:
    """``count`` formatted random rules, some broken over several lines,
    with comments, blank lines, CRLF line ends, indentation and string
    literals holding every escape."""
    parts = []
    for i in range(count):
        if rng.random() < 0.15:
            text = f"s{i}: name == {rng.choice(_ESCAPED_STRINGS)} or in_set(kind, {{{rng.choice(_ESCAPED_STRINGS)}}})"
        else:
            text = format_rule(random_rule(rng, name=f"g{i}"))
        if rng.random() < 0.3:
            text = text.replace(" and ", rng.choice(["\n  and ", " and\n\t", " # why\n and "]))
        if rng.random() < 0.2:
            text = rng.choice(["  ", "\t", " \t"]) + text
        if rng.random() < 0.2:
            text += "  # trailing: \"quoted\" $ @"
        parts.append(text)
        if rng.random() < 0.2:
            parts.append(rng.choice(["", "# comment", "   ", "#", "# é ünïcode"]))
    return "".join(part + rng.choice(["\n", "\n", "\r\n"]) for part in parts)


_SOUP = (
    "r", "x", "y", "t.", "t.x", "x@1", "x@1.5", "x@", "x@0", "@", ".", "1", "2.5", "007", "0.",
    "-", "+", "*", "/", "<", "<=", "==", "!=", ">=", ">", "=", "!", "(", ")", "{", "}", ",", ":",
    "and", "or", "not", "if", "if (", "NA", "mean(", "sum(", "count(", "abs(", "in_set(", "is_na(",
    "{-1", "{-", "{-x}", "{1, -2}", '"s"', '"a\\"b"', '"bad\\q"', '"', '"unterminated', '"\\', "$",
    "# c", "#", "\n", "\r\n", "\r", " ", "\t", "\f", "r:", "r2:", "é", "x >= 0", "a: b", "\n q: ",
    "\u0663", "x\u0663", "\u00b2", "\v",
)


def token_soup(rng: random.Random) -> str:
    """A short text built from DSL fragments and stray characters: most
    fail to parse, somewhere; some are rule files with a mutation."""
    if rng.random() < 0.3:
        text = format_rule(random_rule(rng, name="m"))
        for _ in range(rng.randint(1, 2)):
            at = rng.randint(0, len(text))
            cut = rng.choice([0, 0, 1, 2])
            text = text[:at] + rng.choice(("",) + _SOUP) + text[at + cut:]
        return text
    pieces = [rng.choice(["r: ", "r: x ", "", "  a:"])]
    for _ in range(rng.randint(1, 8)):
        pieces.append(rng.choice(_SOUP))
        pieces.append(rng.choice(["", " ", " ", "\n"]))
    return "".join(pieces)


def with_fraction_literals(rule: Rule, rng: random.Random) -> Rule:
    """``rule`` with every number literal replaced by a signed fraction
    that has no finite decimal form, so it prints as p/q."""
    def fraction() -> Fraction:
        q = rng.choice([3, 7, 9, 11, 13])
        p = rng.choice([q * k + r for k in range(3) for r in range(1, q)])
        return Fraction(rng.choice([1, -1]) * p, q)

    def rebuild(node):
        if isinstance(node, NumberLit):
            return NumberLit(fraction())
        if isinstance(node, tuple):
            return tuple(rebuild(item) for item in node)
        if dataclasses.is_dataclass(node):
            return type(node)(*(rebuild(getattr(node, f.name)) for f in dataclasses.fields(node)))
        return node

    return Rule(rule.name, rebuild(rule.body))


ROUND_TRIP_SCHEMA_TEXT = "trade.alpha : numeric\ntrade.beta : numeric\ntrade.gamma : numeric\n"


def random_trade_csv(rng: random.Random) -> str:
    """A small panel for table ``trade`` (the variables ``random_rule``
    reads), with NA, text, zero and fractional cells."""
    lines = ["id,time,alpha,beta,gamma"]
    for unit in range(1, rng.randint(2, 4)):
        for time in range(1, rng.randint(2, 4)):
            cells = [rng.choice(["NA", "n/a", "0", "-1.5", "2", "0.25", "7", "-3"]) for _ in range(3)]
            lines.append(",".join([str(unit), str(time)] + cells))
    return "\n".join(lines) + "\n"


def verdicts_of(rule: Rule, dataset, schema):
    """What ``validate`` makes of one rule, for comparing two forms of
    it: its entries and the kind of each diagnostic, or the name of the
    error that rejects it."""
    try:
        report = evaluate_ruleset(RuleSet((rule,)), dataset, schema)
    except ValidusError as exc:
        return type(exc).__name__
    return ([(e.unit, e.time, e.result) for e in report.entries],
            [(d.unit, d.time, d.kind) for d in report.diagnostics])


# --- plain-Python reference for evaluate_ruleset over one panel table -----
# Table ``p`` with numeric variables x and y.  Units and occasions are
# integers, so their natural order is integer order.  Values are Fraction,
# text or None for NA; verdicts are True, False or None.  Each rule below
# is written as direct Python over the cells and lists the kind of each
# diagnostic the evaluator records, in the order it records them;
# nothing here calls the evaluator.

PANEL_SCHEMA_TEXT = "p.x : numeric\np.y : numeric\n"


class PanelOracle:
    def __init__(self, cells: dict, na_policy: str):
        self.cells = cells  # (unit, occasion, variable) -> value; absent = no data point
        self.units = sorted({u for u, _, _ in cells})
        self.times = sorted({t for _, t, _ in cells})
        self.records = sorted({(u, t) for u, t, _ in cells})
        self.na_policy = na_policy
        self.kinds: list[str] = []

    def cell(self, unit: int, time: int, var: str, lag: int = 0):
        if lag:
            position = self.times.index(time)
            if position < lag:
                self.kinds.append("unresolved_reference")
                return None
            time = self.times[position - lag]
        if (unit, time, var) not in self.cells:
            self.kinds.append("missing_cell")
            return None
        return self.cells[unit, time, var]

    def arith(self, op: str, a, b):
        if a is None or b is None:
            return None
        if isinstance(a, str) or isinstance(b, str):
            self.kinds.append("type_mismatch")
            return None
        if op == "/":
            if b == 0:
                self.kinds.append("division_by_zero")
                return None
            return a / b
        return {"+": a + b, "-": a - b, "*": a * b}[op]

    def cmp(self, op: str, a, b):
        if a is None or b is None:
            return None
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b, "==": a == b, "!=": a != b}[op]
        if isinstance(a, str) and isinstance(b, str) and op in ("==", "!="):
            return (a == b) == (op == "==")
        self.kinds.append("type_mismatch")  # text with a number, or text ordered
        return None

    def sign(self, op: str, a):
        if a is None:
            return None
        if isinstance(a, str):
            self.kinds.append("type_mismatch")
            return None
        return -a if op == "neg" else abs(a)

    def agg(self, fn: str, element, time: int):
        """Recomputed at every use, as the naive definition reads."""
        values = []
        for unit in self.units:
            value = element(unit, time)
            if fn != "count" and isinstance(value, str):
                self.kinds.append("type_mismatch")
                value = None
            values.append(value)
        if self.na_policy == "propagate" and None in values:
            return None
        kept = [v for v in values if v is not None]
        if not kept:
            self.kinds.append("empty_group")
            return None
        if fn == "count":
            return Fraction(len(kept))
        if fn == "sum":
            return sum(kept, Fraction(0))
        if fn == "mean":
            return sum(kept, Fraction(0)) / len(kept)
        return min(kept) if fn == "min" else max(kept)


def _not(a):
    return None if a is None else not a


def _and(a, b):
    if a is False or b is False:
        return False
    return None if a is None or b is None else True


def _or(a, b):
    if a is True or b is True:
        return True
    return None if a is None or b is None else False


def _x(o, u, t, lag=0):
    return o.cell(u, t, "x", lag)


def _y(o, u, t, lag=0):
    return o.cell(u, t, "y", lag)


# (name, rule text, scope, reference): scope "record" gets one verdict per
# (unit, occasion) record, "occasion" one per occasion of the table
PANEL_RULES = [
    ("rec", "x >= 0", "record", lambda o, u, t: o.cmp(">=", _x(o, u, t), Fraction(0))),
    ("ratio", "x / y <= 2", "record",
     lambda o, u, t: o.cmp("<=", o.arith("/", _x(o, u, t), _y(o, u, t)), Fraction(2))),
    ("step", "x - x@1 <= 3", "record",
     lambda o, u, t: o.cmp("<=", o.arith("-", _x(o, u, t), _x(o, u, t, 1)), Fraction(3))),
    ("step2", "y - y@2 >= -4", "record",
     lambda o, u, t: o.cmp(">=", o.arith("-", _y(o, u, t), _y(o, u, t, 2)), Fraction(-4))),
    ("member", 'in_set(x, {1, 2.5, "n/a"})', "record",
     lambda o, u, t: None if (v := _x(o, u, t)) is None else v in (Fraction(1), Fraction(5, 2), "n/a")),
    ("kinds", "is_na(x) or is_number(y)", "record",
     lambda o, u, t: _or(_x(o, u, t) is None, isinstance(_y(o, u, t), Fraction))),
    ("whole", "not (is_integer(x) and is_text(y))", "record",
     lambda o, u, t: _not(_and(isinstance(v := _x(o, u, t), Fraction) and v.denominator == 1,
                               isinstance(_y(o, u, t), str)))),
    ("sign", "-x <= abs(y)", "record",
     lambda o, u, t: o.cmp("<=", o.sign("neg", _x(o, u, t)), o.sign("abs", _y(o, u, t)))),
    ("label", 'y == "n/a" or x < "m"', "record",
     lambda o, u, t: _or(o.cmp("==", _y(o, u, t), "n/a"), o.cmp("<", _x(o, u, t), "m"))),
    # both sides of an implication are evaluated, condition first
    ("cond", "if (y > 1) x@1 <= x", "record",
     lambda o, u, t: _or(_not(o.cmp(">", _y(o, u, t), Fraction(1))), o.cmp("<=", _x(o, u, t, 1), _x(o, u, t)))),
    # division by zero, and a missing cell where the earlier record is absent
    ("inverse", "1 / x >= 0 or is_na(y@1)", "record",
     lambda o, u, t: _or(o.cmp(">=", o.arith("/", Fraction(1), _x(o, u, t)), Fraction(0)),
                         _y(o, u, t, 1) is None)),
    ("avg", "mean(x) >= 1", "occasion",
     lambda o, t: o.cmp(">=", o.agg("mean", lambda u, s: _x(o, u, s), t), Fraction(1))),
    ("tot", "sum(y) <= count(x)", "occasion",
     lambda o, t: o.cmp("<=", o.agg("sum", lambda u, s: _y(o, u, s), t),
                        o.agg("count", lambda u, s: _x(o, u, s), t))),
    ("spread", "max(x - y) <= 4", "occasion",
     lambda o, t: o.cmp("<=", o.agg("max", lambda u, s: o.arith("-", _x(o, u, s), _y(o, u, s)), t),
                        Fraction(4))),
    ("centred", "sum(x - mean(x)) == 0", "occasion",
     lambda o, t: o.cmp("==", o.agg("sum", lambda u, s: o.arith(
         "-", _x(o, u, s), o.agg("mean", lambda v, r: _x(o, v, r), s)), t), Fraction(0))),
    ("rel", "x <= 2 * mean(x)", "record",
     lambda o, u, t: o.cmp("<=", _x(o, u, t),
                           o.arith("*", Fraction(2), o.agg("mean", lambda v, s: _x(o, v, s), t)))),
    ("rel_lag", "y - y@1 <= max(x@1) - min(y)", "record",
     lambda o, u, t: o.cmp("<=", o.arith("-", _y(o, u, t), _y(o, u, t, 1)),
                           o.arith("-", o.agg("max", lambda v, s: _x(o, v, s, 1), t),
                                   o.agg("min", lambda v, s: _y(o, v, s), t)))),
    # exact, but False in floats (x = 1, y = 2): division stays rational
    ("tenths", "x / 10 + y / 10 == (x + y) / 10", "record",
     lambda o, u, t: o.cmp("==", o.arith("+", o.arith("/", _x(o, u, t), Fraction(10)),
                                         o.arith("/", _y(o, u, t), Fraction(10))),
                           o.arith("/", o.arith("+", _x(o, u, t), _y(o, u, t)), Fraction(10)))),
    # decimal literals: operands over different denominators
    ("half_lag", "0.5 * x@1 >= y - 1.25", "record",
     lambda o, u, t: o.cmp(">=", o.arith("*", Fraction(1, 2), _x(o, u, t, 1)),
                           o.arith("-", _y(o, u, t), Fraction(5, 4)))),
    ("rel3", "x <= 3 * mean(x)", "record",
     lambda o, u, t: o.cmp("<=", _x(o, u, t),
                           o.arith("*", Fraction(3), o.agg("mean", lambda v, s: _x(o, v, s), t)))),
    # quotients compared without dividing: y may be zero or negative
    ("quot", "x / y >= -0.5", "record",
     lambda o, u, t: o.cmp(">=", o.arith("/", _x(o, u, t), _y(o, u, t)), Fraction(-1, 2))),
    ("quot_right", "y - 1 < x@1 / y", "record",
     lambda o, u, t: o.cmp("<", o.arith("-", _y(o, u, t), Fraction(1)),
                           o.arith("/", _x(o, u, t, 1), _y(o, u, t)))),
    # a quotient inside arithmetic
    ("quot_sum", "x / y + 1 <= 2", "record",
     lambda o, u, t: o.cmp("<=", o.arith("+", o.arith("/", _x(o, u, t), _y(o, u, t)), Fraction(1)),
                           Fraction(2))),
]


def panel_oracle(cells: dict, na_policy: str):
    """Verdicts {(rule, unit, occasion): True/False/None} (unit None for a
    per-occasion verdict) and the diagnostics as a list of (rule, unit,
    occasion, kind): rule by rule in file order, verdict by verdict in
    report order, and within one verdict in the order they arise."""
    verdicts = {}
    diagnostics = []
    for name, _text, scope, reference in PANEL_RULES:
        oracle = PanelOracle(cells, na_policy)
        if scope == "record":
            scopes = [((u, t), (oracle, u, t)) for u, t in oracle.records]
        else:
            scopes = [((None, t), (oracle, t)) for t in oracle.times]
        for (u, t), args in scopes:
            start = len(oracle.kinds)
            verdicts[name, u, t] = reference(*args)
            diagnostics += [(name, u, t, kind) for kind in oracle.kinds[start:]]
    return verdicts, diagnostics


def panel_csv(cells: dict) -> tuple[dict[str, str], dict]:
    """The panel as CSV table ``p``, and the cells that table holds.  A
    CSV row has every column, so a variable absent from a record that has
    the other one is written, and read back, as NA.  Numbers are written
    as ``str(Fraction)`` (``3``, ``-5/2``)."""
    records = sorted({(u, t) for u, t, _ in cells})
    held = {(u, t, var): cells.get((u, t, var)) for u, t in records for var in ("x", "y")}
    lines = ["id,time,x,y"]
    lines += [",".join([str(u), str(t)] + ["NA" if (v := held[u, t, var]) is None else str(v) for var in ("x", "y")])
              for u, t in records]
    return {"p": "\n".join(lines) + "\n"}, held


def panel_disagreement(cells: dict) -> Optional[str]:
    """Evaluate ``PANEL_RULES`` on the panel read both ways, through
    ``build_dataset`` from the Fraction cells and through
    ``dataset_from_csv`` from ``panel_csv``, under both NA policies, and
    compare the verdicts, and the diagnostics as an ordered list of
    (rule, unit, occasion, kind), with ``panel_oracle`` over the cells
    each dataset holds; each rule evaluated alone must give the verdicts
    and diagnostics it has in the whole set, which shares columns and
    aggregates between rules.  None if all agree, else what differs."""
    rules = parse_rules("\n".join(f"{name}: {text}" for name, text, _, _ in PANEL_RULES))
    schema = parse_schema(PANEL_SCHEMA_TEXT)
    as_tribool = {True: TriBool.TRUE, False: TriBool.FALSE, None: TriBool.NA}
    tables, held = panel_csv(cells)
    paths = [
        ("build_dataset", cells, build_dataset(DataPoint(Key("p", str(t), str(u), var), NA if v is None else v)
                                               for (u, t, var), v in cells.items())),
        ("dataset_from_csv", held, dataset_from_csv(tables)),
    ]
    for path, oracle_cells, dataset in paths:
        for policy in NA_POLICIES:
            verdicts, kinds = panel_oracle(oracle_cells, policy)
            report = evaluate_ruleset(rules, dataset, schema, EvalOptions(policy))
            got = {(e.rule, e.unit, e.time): e.result for e in report.entries}
            expected = {(rule, None if u is None else str(u), str(t)): as_tribool[v]
                        for (rule, u, t), v in verdicts.items()}
            if got != expected:
                wrong = sorted((key for key in expected.keys() | got.keys() if got.get(key) != expected.get(key)),
                               key=repr)[:5]
                return (f"{path}, {policy}: verdicts differ at {wrong}: got {[got.get(key) for key in wrong]}, "
                        f"expected {[expected.get(key) for key in wrong]}")
            diagnostics = [(d.rule, d.unit, d.time, d.kind) for d in report.diagnostics]
            expected_kinds = [(rule, None if u is None else str(u), str(t), kind) for rule, u, t, kind in kinds]
            if diagnostics != expected_kinds:
                at = next(i for i, pair in enumerate(zip(diagnostics + [None], expected_kinds + [None]))
                          if pair[0] != pair[1])
                return (f"{path}, {policy}: diagnostic {at} of {len(expected_kinds)} differs: "
                        f"got {diagnostics[at:at + 3]}, expected {expected_kinds[at:at + 3]}")
            for rule in rules:
                alone = evaluate_ruleset(RuleSet((rule,)), dataset, schema, EvalOptions(policy))
                if (alone.entries != [e for e in report.entries if e.rule == rule.name]
                        or alone.diagnostics != [d for d in report.diagnostics if d.rule == rule.name]):
                    return f"{path}, {policy}: rule {rule.name} alone differs from its part of the whole set"
    return None


def random_panel(rng: random.Random) -> dict:
    """An unbalanced panel: rows (unit, occasion) and single cells may be
    absent; values may be NA, text, zero, negative or fractional.  One
    column of x mixes decimals of 0 to 3 places with p/q cells such as
    1/3 and -7/6; y, the divisor of the quotient rules, is often zero or
    negative."""
    n_units, n_times = rng.randint(1, 6), rng.randint(1, 5)
    cells = {}
    for u in range(1, n_units + 1):
        for t in range(1, n_times + 1):
            if rng.random() < 0.2:
                continue
            for var in ("x", "y"):
                roll = rng.random()
                if roll < 0.05:
                    continue
                if roll < 0.17:
                    cells[u, t, var] = None
                elif roll < 0.25:
                    cells[u, t, var] = "n/a"
                elif var == "y":
                    cells[u, t, var] = Fraction(rng.randint(-3, 6), rng.choice([1, 1, 2]))
                elif roll < 0.4:
                    cells[u, t, var] = Fraction(rng.randint(-9, 9), rng.choice([3, 6, 7]))
                else:
                    scale = 10 ** rng.randint(0, 3)
                    cells[u, t, var] = Fraction(rng.randint(-3 * scale, 6 * scale), scale)
    return cells or {(1, 1, "x"): Fraction(1)}


# --- CSV ingest as it was before cells went straight into columns ---------
# One DataPoint and one Key per cell, an exactly-once check over a map from
# Key to value once every table is read, and the per-table order computed
# from that map.  The value types, natural_order and the exception classes
# are the production ones; cell parsing, the check and the order are not.

def reference_parse_value(text: str):
    stripped = text.strip()
    if stripped == "" or stripped == "NA":
        return NA
    try:
        return Fraction(stripped)
    except (ValueError, ZeroDivisionError):
        return text


def reference_read_table(table: str, text: str, unit_column: str = "id",
                         time_column: Optional[str] = "time") -> list[DataPoint]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = [name.strip() for name in next(reader)]
    except StopIteration:
        raise CsvFormatError(table, "missing header row") from None
    if unit_column not in header:
        raise CsvFormatError(table, f"missing unit column {unit_column!r}")
    seen: set[str] = set()
    for name in header:
        if name in seen:
            raise CsvFormatError(table, f"header names column {name!r} twice")
        seen.add(name)
    unit_idx = header.index(unit_column)
    time_idx = header.index(time_column) if time_column in header else None
    variable_cols = [
        (i, name) for i, name in enumerate(header) if i not in (unit_idx, time_idx)
    ]

    points: list[DataPoint] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise CsvFormatError(table, f"row {lineno} has {len(row)} cells, header has {len(header)}")
        unit = row[unit_idx].strip()
        if not unit:
            raise CsvFormatError(table, f"row {lineno} has an empty unit cell")
        time = None
        if time_idx is not None:
            raw_time = row[time_idx].strip()
            time = raw_time or None
        for i, name in variable_cols:
            key = Key(table, time, unit, name)
            points.append(DataPoint(key, reference_parse_value(row[i])))
    return points


def reference_dataset_from_csv(tables: dict[str, str], unit_column: str = "id",
                               time_column: Optional[str] = "time") -> dict[Key, object]:
    """The map from key to value that ``dataset_from_csv`` held before
    columns became the only storage, or the error it raised."""
    points: list[DataPoint] = []
    for table, text in tables.items():
        points.extend(reference_read_table(table, text, unit_column, time_column))
    mapping = {}
    for point in points:
        if point.key in mapping:
            raise DuplicateKeyError(point.key)
        mapping[point.key] = point.value
    return mapping


def reference_table_order(mapping: dict[Key, object]) -> dict[str, tuple[list, list, list]]:
    """(units, times, records) of each table of a key-value map, in
    natural order, computed from the keys one by one."""
    records: dict[str, set] = {}
    for key in mapping:
        records.setdefault(key.table, set()).add((key.unit, key.time))
    labels = {label for pairs in records.values() for record in pairs for label in record}
    rank = {label: i for i, label in enumerate(sorted(labels, key=natural_order))}
    return {
        table: (sorted({unit for unit, _ in pairs}, key=rank.__getitem__),
                sorted({time for _, time in pairs}, key=rank.__getitem__),
                sorted(pairs, key=lambda r: (rank[r[0]], rank[r[1]])))
        for table, pairs in records.items()
    }


_CSV_UNITS = ["1", "2", "01", "10", "a", " 3 "]
_CSV_TIMES = ["1", "2", "10", "", "1.0"]
_CSV_CELLS = ["1", "-2", "007", "+5", "1.5", "1/3", "1e3", "NA", "", " ", "n/a", "x y", "q, r",
              'say "hi"', " 4 ", "٣", "1_0", "two\nlines"]


def _csv_cell(rng: random.Random, text: str) -> str:
    if any(c in text for c in ',"\n') or rng.random() < 0.1:
        return '"' + text.replace('"', '""') + '"'
    return text


def random_csv_table(rng: random.Random) -> str:
    """One table's CSV text: some header-only, some without a unit column
    or with a repeated name, with blank, ragged and duplicate rows, empty
    unit cells, quoted cells, NA, empty and text cells, and LF or CRLF
    line ends.  Units and occasions come from small pools, so records
    repeat now and then."""
    header = rng.sample(["x", "y", "z"], rng.randint(0, 3))
    if rng.random() < 0.1:
        header.append(rng.choice(["x", "y", "time", "id"]))  # a repeated name
    if rng.random() < 0.93:
        header.append("id")
    has_time = rng.random() < 0.6
    if has_time:
        header.append("time")
    rng.shuffle(header)
    lines = [",".join(header)]
    units = rng.sample(_CSV_UNITS, rng.randint(1, 4))
    for _ in range(rng.choice([0, 1, 2, 3, 5, 8])):
        roll = rng.random()
        if roll < 0.05:
            lines.append(rng.choice(["", ",", " , ", "  "]))  # blank
            continue
        row = []
        for name in header:
            if name == "id":
                row.append("" if rng.random() < 0.02 else rng.choice(units))
            elif name == "time":
                row.append(rng.choice(_CSV_TIMES[:rng.randint(1, len(_CSV_TIMES))]))
            else:
                row.append(rng.choice(_CSV_CELLS))
        if roll > 0.98:  # ragged
            row = row[:-1] if row and rng.random() < 0.5 else row + ["1"]
        lines.append(",".join(_csv_cell(rng, cell) for cell in row))
    end = rng.choice(["\n", "\r\n"])
    return end.join(lines) + rng.choice([end, ""])


def random_csv_tables(rng: random.Random) -> dict[str, str]:
    """One to three tables, so an error can sit in an earlier or a later
    table than a duplicate; now and then a table with no text at all."""
    return {f"t{i}": "" if rng.random() < 0.02 else random_csv_table(rng)
            for i in range(rng.randint(1, 3))}


# --- reference scoping: each command's own walk, before one scoping served all --

def reference_lookup(schema, table: Optional[str], variable: str):
    """``Schema.lookup`` as a scan of every declaration: a qualified name
    resolves in its table, an unqualified one when exactly one
    declaration has it."""
    if table is not None:
        for decl in schema.tables.get(table, ()):
            if decl.name == variable:
                return table, decl
        return None
    hits = [(tbl, decl) for tbl, decls in schema.tables.items() for decl in decls if decl.name == variable]
    return hits[0] if len(hits) == 1 else None


def reference_scoping(rule: Rule, schema) -> tuple[Optional[str], dict[int, str]]:
    """The evaluator's scoping as it was when it resolved names itself:
    the table whose records the rule is evaluated on (None for a rule
    evaluated once per occasion) and the group table of each aggregate,
    keyed by node id; or the error that rejects the rule."""
    resolved: dict[tuple[Optional[str], str], str] = {}

    def resolve(ref: VarRef) -> str:
        name = (ref.table, ref.variable)
        if name not in resolved:
            hit = schema.lookup(ref.table, ref.variable)
            if hit is None:
                shown = ref.variable if ref.table is None else f"{ref.table}.{ref.variable}"
                raise UnknownVariableError(rule.name, shown)
            resolved[name] = hit[0]
        return resolved[name]

    nodes = scoped_nodes(rule.body)
    scope_tables: dict[Optional[int], set[str]] = {}
    for node, scope in nodes:
        if isinstance(node, VarRef):
            key = None if scope is None else id(scope)
            scope_tables.setdefault(key, set()).add(resolve(node))
    bare_tables = scope_tables.get(None, set())
    if len(bare_tables) > 1:
        raise IncompatibleScopeError(rule.name, "references records of several tables")
    record_table = next(iter(bare_tables), None)
    groups: dict[int, str] = {}
    for node, scope in nodes:
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


def reference_check_analyzable(rule: Rule, schema) -> None:
    """The analyzer's fragment check as it was when it walked the rule
    and looked names up itself."""
    nodes = [node for node, _ in scoped_nodes(rule.body)]
    refs = [node for node in nodes if isinstance(node, VarRef)]
    if any(isinstance(node, Aggregate) for node in nodes):
        raise UnsupportedForAnalysisError(rule.name, "aggregates are not record-scoped")
    if any(ref.lag for ref in refs):
        raise UnsupportedForAnalysisError(rule.name, "lagged references span occasions")
    resolved = (schema.lookup(ref.table, ref.variable) for ref in refs)
    if len({hit[0] for hit in resolved if hit is not None}) > 1:
        raise UnsupportedForAnalysisError(rule.name, "cross-table references")


def reference_signature(rule: Rule) -> str:
    """The classifier's signature as it was when it read the rule's syntax
    alone: an unqualified name is attributed to the one explicitly named
    table when there is exactly one, else to the default table (None)."""
    refs: list[VarRef] = []
    has_aggregate = False
    for node, _ in scoped_nodes(rule.body):
        if isinstance(node, VarRef):
            refs.append(node)
        elif isinstance(node, Aggregate):
            has_aggregate = True
    explicit = {ref.table for ref in refs if ref.table is not None}
    fold = next(iter(explicit)) if len(explicit) == 1 else None
    variables = frozenset((ref.table or fold, ref.variable) for ref in refs)
    tables = frozenset(table for table, _ in variables) or frozenset({None})
    multi_table = len(tables) > 1
    slots = (multi_table, max((ref.lag for ref in refs), default=0) > 0,
             has_aggregate or multi_table, len(variables) > 1)
    return "".join("m" if multi else "s" for multi in slots)


def schema_signature_oracle(rule: Rule, schema) -> str:
    """The signature a schema gives the rule, by plain recursion: each
    name counts under the table ``Schema.lookup`` resolves it to, and a
    name the schema does not resolve under its qualifier, else the
    rule's one qualifier, else the default table, which is no unit type
    of its own."""
    refs: list[VarRef] = []
    aggregates = 0

    def walk(node: Expr) -> None:
        nonlocal aggregates
        if isinstance(node, VarRef):
            refs.append(node)
        elif isinstance(node, Aggregate):
            aggregates += 1
            walk(node.arg)
        elif isinstance(node, Unary):
            walk(node.operand)
        elif isinstance(node, Binary):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, If):
            walk(node.cond)
            walk(node.then)
        elif isinstance(node, Builtin):
            for arg in node.args:
                walk(arg)

    walk(rule.body)
    qualifiers = sorted({ref.table for ref in refs if ref.table is not None})
    fold = qualifiers[0] if len(qualifiers) == 1 else None

    def table_of(ref: VarRef) -> Optional[str]:
        hit = schema.lookup(ref.table, ref.variable)
        return hit[0] if hit is not None else ref.table or fold

    variables = {(table_of(ref), ref.variable) for ref in refs}
    unit_types = {table for table, _ in variables if table is not None}
    multi_table = len(unit_types) > 1
    slots = (multi_table, any(ref.lag > 0 for ref in refs),
             aggregates > 0 or multi_table, len(variables) > 1)
    return "".join("m" if multi else "s" for multi in slots)


# --- the report writer against json.dumps and csv.writer -----------------
# ``report_case`` draws a rule file and tables whose reports hold empty and
# non-empty blocks, aggregate entries (unit ALL), a panel with named
# occasions, and units and occasions with non-ASCII characters, quotes,
# backslashes, commas and newlines (quoted CSV cells).
# ``reference_reports`` writes what ``validate`` should print the plain
# way, from ``report.entries``.

REPORT_SCHEMA_TEXT = ("person.x : numeric\nperson.c : categorical {a, b}\n"
                      "trade.v : numeric\nempty.z : numeric\n")
_REPORT_UNITS = ("1", "2", "10", "ALL", "é", "日本", 'say "hi"', "back\\slash", "two\nlines",
                 "a,b", 'q",\n\\', "tab\there", "x y")
_REPORT_TIMES = ("1", "2", "10", "2020-01", "é", '"t"', "n\nl")
_REPORT_CELLS = ("1", "2.5", "-3", "0", "NA", "", "abc", "1/2")
# rules by the tables their verdicts read: record rules give one entry per
# record (none on an empty table), aggregate rules one per occasion
_REPORT_RULES = {
    "person": ("x >= 0", 'if (c == "a") x >= 1', "is_na(x) or x <= 2", "x <= 2 * mean(x)"),
    "trade": ("v >= 0", "v - v@1 <= 1", "v <= 3 * max(v)"),
    "empty": ("z >= 0", "not is_na(z)"),
    "aggregate": ("mean(x) >= 1", "sum(v) <= 10", "count(z) >= 0", "max(v) >= min(x)"),
}


def report_case(rng: random.Random) -> tuple[str, dict[str, str]]:
    """A rule file and {table: CSV text} over ``REPORT_SCHEMA_TEXT``.
    Each table is empty (a header only) with some chance; about one case
    in eight has only record rules over empty tables, so every block is
    empty."""
    def table(header: list[str], rows: list[list[str]]) -> str:
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([header] + rows)
        return out.getvalue()

    all_empty = rng.random() < 0.125

    def units() -> list[str]:
        return [] if all_empty or rng.random() < 0.25 else rng.sample(_REPORT_UNITS, rng.randint(1, 5))

    person = [[u, rng.choice(_REPORT_CELLS), rng.choice(("a", "b", "NA"))] for u in units()]
    times = rng.sample(_REPORT_TIMES, rng.randint(1, 4))
    trade = [[u, t, rng.choice(_REPORT_CELLS)] for u in units() for t in times if rng.random() < 0.8]
    empty = [[u, rng.choice(_REPORT_CELLS)] for u in units()] if rng.random() < 0.3 else []
    tables = {"person": table(["id", "x", "c"], person), "trade": table(["id", "time", "v"], trade),
              "empty": table(["id", "z"], empty)}
    groups = ("person", "trade", "empty") if all_empty else tuple(_REPORT_RULES)
    bodies = [body for group in groups for body in _REPORT_RULES[group] if rng.random() < 0.5]
    if not bodies:
        bodies = [rng.choice(_REPORT_RULES["empty"])]
    rng.shuffle(bodies)
    return "".join(f"r{i}: {body}\n" for i, body in enumerate(bodies)), tables


def reference_reports(rules: RuleSet, schema, report) -> tuple[str, str]:
    """The JSON and CSV reports ``validate`` (default options) should
    write for ``report``: ``json.dumps(payload, indent=2)`` of the whole
    payload, totals counted over the entries, and ``csv.writer`` over
    the entries."""
    records = []
    for rule in rules:
        sig = classify_rule(rule, schema)
        records.append({"name": rule.name, "text": format_rule(rule), "signature": str(sig), "level": sig.level})
    rows = [(e.rule, e.table, "ALL" if e.unit is None else e.unit, "ALL" if e.time is None else e.time,
             str(e.result)) for e in report.entries]
    totals = {key: sum(1 for e in report.entries if e.result is value)
              for key, value in (("true", TriBool.TRUE), ("false", TriBool.FALSE), ("na", TriBool.NA))}
    payload = {
        "rules": records,
        "entries": [dict(zip(("rule", "table", "unit", "time", "result"), row)) for row in rows],
        "findings": [],
        "summary": {"per_rule": report.summary, "totals": totals, "strict_na": False},
    }
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["rule", "table", "unit", "time", "result"])
    writer.writerows(rows)
    return json.dumps(payload, indent=2) + "\n", out.getvalue()


def validate_reports(workdir, rules_text: str, tables: dict[str, str], stdout: bool = False) -> tuple[str, str]:
    """The JSON and CSV reports of ``validus validate`` on the files,
    written in ``workdir`` (a ``pathlib.Path``): each report as written
    to an ``-o`` file there, or with ``stdout`` as written to standard
    output."""
    files = {"schema.txt": REPORT_SCHEMA_TEXT, "rules.txt": rules_text}
    files.update((f"{name}.csv", text) for name, text in tables.items())
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8", newline="")
    argv = ["validate", "--rules", str(workdir / "rules.txt"), "--schema", str(workdir / "schema.txt")]
    argv += [f"--data={name}={workdir / name}.csv" for name in tables]
    reports = []
    for fmt in ("json", "csv"):
        out = workdir / f"report.{fmt}"
        printed = io.StringIO()
        # stderr holds the NA warning
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(printed):
            code = validus.cli.main(argv + ["--format", fmt] + ([] if stdout else ["-o", str(out)]))
        if code not in (0, 1):
            raise AssertionError(f"validate exited {code}")
        if stdout:
            reports.append(printed.getvalue())
        else:
            with open(out, encoding="utf-8", newline="") as handle:
                reports.append(handle.read())
    return reports[0], reports[1]


# --- validate as the oracle of lint, analyze and simplify --------------------
# In the paper a rule is a predicate over a dataset, so validate's verdicts
# are the reference semantics.  The analyzer decides over the rational
# relaxation of the integer domains, so only its sound directions are
# checked, on the in-domain records: a claim that no solution exists, or
# that every solution has a property, must hold of the integer records on
# which validate finds every rule TRUE.

ORACLE_SCHEMA = parse_schema("t.x : integer [0, 4]\nt.y : integer [0, 4]\nt.z : integer [0, 4]\n"
                             "t.c : categorical {a, b, d}\n")
_ORACLE_NUMERIC = ("x", "y", "z")
_ORACLE_LEVELS = ("a", "b", "d")
#: every in-domain record, by unit: 5 * 5 * 5 * 3 = 375
ORACLE_RECORDS = {str(i): dict(zip(_ORACLE_NUMERIC + ("c",), values)) for i, values in enumerate(
    itertools.product(range(5), range(5), range(5), _ORACLE_LEVELS))}
# records validate reads but the analyzer's domains exclude: out of bounds,
# not integral, text, an undeclared level and NA cells
_ORACLE_OUTSIDE = ["-1,2,2,a", "5,0,4,b", "2,2.5,1,d", "1,1,abc,a", "3,0,0,e", ",1,2,b", "0,4,4,"]
ORACLE_DATASET = dataset_from_csv({"t": "id,x,y,z,c\n" + "".join(
    [f"{unit},{r['x']},{r['y']},{r['z']},{r['c']}\n" for unit, r in ORACLE_RECORDS.items()]
    + [f"out{i},{cells}\n" for i, cells in enumerate(_ORACLE_OUTSIDE)])})


def _oracle_linear_text(rng: random.Random) -> str:
    terms = []
    for var in rng.sample(_ORACLE_NUMERIC, rng.randint(1, 3)):
        k = rng.choice([-3, -2, -1, 1, 1, 2, 3])
        piece = var if abs(k) == 1 else f"{abs(k)} * {var}"
        terms.append(("-" if k < 0 else "+", piece))
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    return text + "".join(f" {sign} {piece}" for sign, piece in terms[1:])


def _oracle_atom(rng: random.Random) -> str:
    if rng.random() < 0.25:
        level = rng.choice(_ORACLE_LEVELS)
        if rng.random() < 0.6:
            return f'c {rng.choice(["==", "!="])} "{level}"'
        levels = sorted(rng.sample(_ORACLE_LEVELS, rng.randint(1, 2)))
        return "in_set(c, {" + ", ".join(f'"{lv}"' for lv in levels) + "})"
    relation = rng.choice(["<", "<=", "==", "!=", ">=", ">"])
    if rng.random() < 0.25:  # variables on both sides
        left, right = rng.sample(_ORACLE_NUMERIC, 2)
        offset = rng.randint(-2, 2)
        return f"{left} {relation} {right}" + (f" {'-' if offset < 0 else '+'} {abs(offset)}" if offset else "")
    return f"{_oracle_linear_text(rng)} {relation} {rng.randint(-2, 8)}"


def random_oracle_ruleset(rng: random.Random) -> RuleSet:
    """One to five rules over ``ORACLE_SCHEMA``, all in the analyzable
    fragment: linear atoms with small coefficients over all six
    relations, categorical ``==``, ``!=`` and ``in_set``, joined by
    ``or``, ``and`` and ``if``."""
    lines = []
    for i in range(rng.randint(1, 5)):
        shape = rng.random()
        if shape < 0.35:
            body = _oracle_atom(rng)
        elif shape < 0.55:
            body = f"{_oracle_atom(rng)} or {_oracle_atom(rng)}"
        elif shape < 0.65:
            body = f"{_oracle_atom(rng)} and {_oracle_atom(rng)}"
        else:
            cond = _oracle_atom(rng) if rng.random() < 0.7 else f"{_oracle_atom(rng)} and {_oracle_atom(rng)}"
            body = f"if ({cond}) {_oracle_atom(rng)}"
        lines.append(f"r{i}: {body}")
    return parse_rules("\n".join(lines))


def oracle_verdicts(rules: Iterable[Rule]) -> dict[str, dict[str, TriBool]]:
    """validate's verdict of each rule at each unit of ``ORACLE_DATASET``."""
    verdicts: dict[str, dict[str, TriBool]] = {}
    report = evaluate_ruleset(RuleSet(tuple(rules)), ORACLE_DATASET, ORACLE_SCHEMA)
    for rule, _table, scopes, results in report.blocks:
        verdicts[rule] = {unit: result for (unit, _time), result in zip(scopes, results)}
    return verdicts


def _all_true(verdicts: dict[str, dict[str, TriBool]], names: Iterable[str], unit: str) -> bool:
    return all(verdicts[name][unit] is TriBool.TRUE for name in names)


_INTERVAL_RE = re.compile(r"to ([\[(])(\S+), (\S+)([\])]) inside")


def _in_interval(value: int, evidence: str) -> bool:
    left, lo, hi, right = _INTERVAL_RE.search(evidence).groups()
    above = lo == "-inf" or (value > Fraction(lo) if left == "(" else value >= Fraction(lo))
    below = hi == "inf" or (value < Fraction(hi) if right == ")" else value <= Fraction(hi))
    return above and below


def check_analysis_against_validate(rules: RuleSet) -> dict[str, int]:
    """Check every sound claim of ``analyze_ruleset`` (which lints each
    rule first) and ``simplify_ruleset`` on ``rules`` against validate's
    verdicts on the in-domain records; returns how many claims of each
    kind were checked.  An AssertionError names the claim that failed."""
    names = [rule.name for rule in rules]
    by_name = {rule.name: rule for rule in rules}
    # the condition and the consequent of each conditional, as rules
    branches = [Rule(f"{rule.name}__{part}", getattr(rule.body, part))
                for rule in rules if isinstance(rule.body, If) for part in ("cond", "then")]
    verdicts = oracle_verdicts([*rules, *branches])
    for name, by_unit in verdicts.items():
        assert all(by_unit[unit] is not TriBool.NA for unit in ORACLE_RECORDS), f"{name} is NA in the domain"
    solutions = {unit for unit in ORACLE_RECORDS if _all_true(verdicts, names, unit)}
    findings, unsupported = analyze_ruleset(rules, ORACLE_SCHEMA)
    assert unsupported == [], unsupported
    checked: dict[str, int] = {}
    for f in findings:
        checked[f.kind] = checked.get(f.kind, 0) + 1
        claim = f"{f.kind} {f.rule or f.variable} {f.value or ''}: {f.evidence}"
        if f.kind == INFEASIBLE:
            assert not solutions, f"{claim}, but validate finds units {sorted(solutions)[:3]} satisfy every rule"
        elif f.kind == PARTIAL_INFEASIBILITY:
            assert all(ORACLE_RECORDS[unit][f.variable] != f.value for unit in solutions), claim
        elif f.kind == FIXED_VALUE:
            assert all(ORACLE_RECORDS[unit][f.variable] == Fraction(f.value) for unit in solutions), claim
        elif f.kind == RANGE_RESTRICTION:
            assert all(_in_interval(ORACLE_RECORDS[unit][f.variable], f.evidence) for unit in solutions), claim
        elif f.kind == REDUNDANT:
            others = [name for name in names if name != f.rule]
            assert all(verdicts[f.rule][unit] is TriBool.TRUE for unit in ORACLE_RECORDS
                       if _all_true(verdicts, others, unit)), claim
        elif f.kind in (TAUTOLOGY, CONTRADICTION):
            want = TriBool.TRUE if f.kind == TAUTOLOGY else TriBool.FALSE
            assert all(verdicts[f.rule][unit] is want for unit in ORACLE_RECORDS), claim
        elif f.kind in (NONRELAXING, NONCONSTRAINING):
            assert isinstance(by_name[f.rule].body, If), claim
            branch = f"{f.rule}__{'cond' if f.kind == NONRELAXING else 'then'}"
            assert all(verdicts[branch][unit] is TriBool.TRUE for unit in solutions), claim
        else:
            raise AssertionError(f"unexpected finding {f}")
    simplified, log = simplify_ruleset(rules, ORACLE_SCHEMA)
    text = format_ruleset(simplified)
    assert format_ruleset(parse_rules(text)) == text, text
    if any(step.action == "infeasible" for step in log):
        assert not solutions and simplified == rules
        return checked
    checked["simplify"] = checked.get("simplify", 0) + len(log)
    after = oracle_verdicts(simplified)
    kept = [rule.name for rule in simplified]
    for unit in ORACLE_RECORDS:
        assert _all_true(after, kept, unit) == (unit in solutions), \
            f"simplify changed unit {unit}: {format_ruleset(rules)!r} -> {text!r}"
    return checked
