"""Shared test machinery: independent oracles and random generators.

The oracles here never call the production solver or evaluator paths
they are used to check.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np

from validus.analyzer import CategoricalAtom, Clause, ConstraintSystem, LinearAtom, _atom_rows
from validus.linear import feasible
from validus.rules import (
    Aggregate,
    Binary,
    Builtin,
    Expr,
    If,
    NumberLit,
    Rule,
    SetLit,
    Unary,
    VarRef,
)
from validus.tribool import TriBool, and_, implies, not_, or_

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


# --- plain-Python reference for evaluate_ruleset over one panel table -----
# Table ``p`` with numeric variables x and y.  Units and occasions are
# integers, so their natural order is integer order.  Values are Fraction,
# text or None for NA; verdicts are True, False or None.  Each rule below
# is written as direct Python over the cells and counts the diagnostics
# the evaluator records, by kind; nothing here calls the evaluator.

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
]


def panel_oracle(cells: dict, na_policy: str):
    """Verdicts {(rule, unit, occasion): True/False/None} (unit None for a
    per-occasion verdict) and diagnostic counts {(rule, kind): n}."""
    verdicts = {}
    counts: dict = {}
    for name, _text, scope, reference in PANEL_RULES:
        oracle = PanelOracle(cells, na_policy)
        if scope == "record":
            for u, t in oracle.records:
                verdicts[name, u, t] = reference(oracle, u, t)
        else:
            for t in oracle.times:
                verdicts[name, None, t] = reference(oracle, t)
        for kind in oracle.kinds:
            counts[name, kind] = counts.get((name, kind), 0) + 1
    return verdicts, counts


def random_panel(rng: random.Random) -> dict:
    """An unbalanced panel: rows (unit, occasion) and single cells may be
    absent; values may be NA, text, zero or fractional."""
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
                else:
                    cells[u, t, var] = Fraction(rng.randint(-3, 6), rng.choice([1, 1, 2]))
    return cells or {(1, 1, "x"): Fraction(1)}
