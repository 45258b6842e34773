"""Exact linear feasibility: goldens, witnesses, row normal form, and
cross-checks against an LP and the Fraction-row solver."""

import random
from fractions import Fraction

from helpers import (
    fraction_bounds_on,
    in_number_form,
    probe_row_specs,
    random_row_specs,
    reference_feasible,
    reference_make_row,
    reference_project,
)
from validus.linear import Interval, _bounds_on, _eliminate, feasible, make_row, project


def le(coeffs, bound):
    return make_row({v: Fraction(c) for v, c in coeffs.items()}, False, bound)


def lt(coeffs, bound):
    return make_row({v: Fraction(c) for v, c in coeffs.items()}, True, bound)


def test_contradictory_bounds_infeasible():
    # x >= 0 and x <= -1
    assert feasible([le({"x": -1}, 0), le({"x": 1}, -1)]) is None


def test_point_solution():
    witness = feasible([le({"x": -1}, 0), le({"x": 1}, 0)])
    assert witness == {"x": Fraction(0)}


def test_scaled_point_solution():
    # 3x <= 1 and 3x >= 1 forces x = 1/3
    witness = feasible([le({"x": 3}, 1), le({"x": -3}, -1)])
    assert witness == {"x": Fraction(1, 3)}


def test_strict_interval():
    witness = feasible([lt({"x": -1}, 0), lt({"x": 1}, 1)])
    assert witness is not None and 0 < witness["x"] < 1


def test_strict_point_infeasible():
    # x > 0 and x <= 0
    assert feasible([lt({"x": -1}, 0), le({"x": 1}, 0)]) is None


def test_two_variable_chain():
    # x + y <= 1, x >= 1, y >= 1
    rows = [le({"x": 1, "y": 1}, 1), le({"x": -1}, -1), le({"y": -1}, -1)]
    assert feasible(rows) is None
    rows = [le({"x": 1, "y": 1}, 2), le({"x": -1}, -1), le({"y": -1}, -1)]
    witness = feasible(rows)
    assert witness == {"x": Fraction(1), "y": Fraction(1)}


def test_unconstrained_variable_defaults():
    witness = feasible([le({"x": 1, "y": 0}, 5)])
    assert witness is not None and witness["x"] <= 5


def test_projection_bounded():
    # x >= 1, x + y <= 3, y >= 0  projects x onto [1, 3]
    rows = [le({"x": -1}, -1), le({"x": 1, "y": 1}, 3), le({"y": -1}, 0)]
    assert project(rows, ["x"]) == {"x": Interval(Fraction(1), False, Fraction(3), False)}
    # a closed tie is a point, also when it shows only once y is eliminated
    point = Interval(Fraction(1), False, Fraction(1), False)
    assert project([le({"x": -1}, -1), le({"x": 1}, 1)], ["x"]) == {"x": point}
    rows = [le({"x": 1, "y": 1}, 1), le({"y": -1}, 0), le({"x": -1}, -1)]
    assert project(rows, ["x", "y"]) == {"x": point, "y": Interval(Fraction(0), False, Fraction(0), False)}


def test_projection_open_end():
    rows = [lt({"x": -1}, 0)]
    assert project(rows, ["x"]) == {"x": Interval(Fraction(0), True, None, False)}


def test_projection_unbounded():
    rows = [le({"y": 1}, 2)]
    assert project(rows, ["x"]) == {"x": Interval(None, False, None, False)}


def test_projection_infeasible():
    assert project([le({"x": 1}, -1), le({"x": -1}, 0)], ["x"]) is None
    # a tie with an open end is empty, also when it shows only once y is
    # eliminated: x + y <= 1 (or < 1) and y >= 0 bound x by 1
    for lower, upper in ((lt, le), (le, lt), (lt, lt)):
        assert project([lower({"x": -1}, -1), upper({"x": 1}, 1)], ["x"]) is None
        assert project([upper({"x": 1, "y": 1}, 1), le({"y": -1}, 0), lower({"x": -1}, -1)], ["x"]) is None
    assert project([le({"x": 1, "y": 1}, 1), lt({"y": -1}, 0), le({"x": -1}, -1)], ["x"]) is None


def test_interval_hull():
    a = Interval(Fraction(0), True, Fraction(1), False)
    b = Interval(Fraction(0), False, Fraction(2), True)
    assert a.hull(b) == Interval(Fraction(0), False, Fraction(2), True)
    assert a.hull(Interval(None, False, Fraction(0), False)) == Interval(None, False, Fraction(1), False)


def _random_rows(rng, n_vars, n_rows):
    rows = []
    for _ in range(n_rows):
        coeffs = {}
        for v in rng.sample(["x0", "x1", "x2", "x3"][:n_vars], rng.randint(1, n_vars)):
            c = 0
            while c == 0:
                c = rng.randint(-3, 3)
            coeffs[v] = Fraction(c)
        row = make_row(coeffs, rng.random() < 0.3, Fraction(rng.randint(-4, 4)))
        rows.append(row)
    return rows


def test_witness_satisfies_every_row():
    rng = random.Random(93)
    feasible_seen = 0
    for _ in range(400):
        rows = _random_rows(rng, rng.randint(1, 4), rng.randint(1, 6))
        witness = feasible(rows)
        if witness is not None:
            feasible_seen += 1
            assert all(row.holds(witness) for row in rows)
    assert feasible_seen > 100


def test_agreement_with_exact_simplex():
    # independent oracle: maximize a slack on the strict rows with an
    # exact LP; positive optimum iff the open system is satisfiable
    from sympy import Rational, Symbol
    from sympy.solvers.simplex import InfeasibleLPError, lpmax

    def lp_feasible(rows):
        syms = {v: Symbol(v) for row in rows for v, _ in row.coeffs}
        eps = Symbol("eps")
        constraints = [eps >= 0, eps <= 1]
        strict = False
        for row in rows:
            lhs = sum(Rational(c.numerator, c.denominator) * syms[v] for v, c in row.coeffs)
            bound = Rational(row.bound.numerator, row.bound.denominator)
            if row.strict:
                strict = True
                constraints.append(lhs + eps <= bound)
            else:
                constraints.append(lhs <= bound)
        try:
            best, _ = lpmax(eps, constraints)
        except InfeasibleLPError:
            return False
        return best > 0 if strict else True

    rng = random.Random(1812)
    for _ in range(120):
        rows = _random_rows(rng, rng.randint(1, 3), rng.randint(1, 5))
        assert (feasible(rows) is not None) == lp_feasible(rows)


# --- integer rows -------------------------------------------------------------

def test_rows_are_scaled_to_coprime_integers():
    third = Fraction(1, 3)
    assert make_row({"x": 2 * third, "y": 4 * third}, False, 2) == make_row({"x": 1, "y": 2}, False, 3)
    row = make_row({"x": Fraction(-4), "y": Fraction(6), "z": Fraction(0)}, True, Fraction(-10))
    assert row.coeffs == (("x", -2), ("y", 3)) and row.strict and row.bound == -5
    assert all(type(c) is int for _, c in row.coeffs) and type(row.bound) is int
    half = make_row({"x": Fraction(2)}, False, 1)
    assert half.coeffs == (("x", 1),) and half.bound == Fraction(1, 2) and type(half.bound) is Fraction
    assert make_row({}, False, Fraction(6, 3)).bound == 2 and type(make_row({}, False, Fraction(2)).bound) is int


def test_parallel_rows_reduce_to_the_tightest():
    rows = [make_row({"x": k, "y": k}, False, bound * k) for k, bound in ((1, 9), (3, 4), (2, 7), (Fraction(1, 2), 5))]
    assert len(set(rows)) == 4
    assert list(next(_eliminate(rows)).rows) == [make_row({"x": 1, "y": 1}, False, 4)]
    # on a tie the strict row stays, wherever it comes
    for strict_at in range(3):
        tied = [le({"x": 1, "y": 1}, 4) if i != strict_at else lt({"x": 2, "y": 2}, 8) for i in range(3)]
        assert list(next(_eliminate(tied)).rows) == [lt({"x": 1, "y": 1}, 4)]
    # a row in one variable is that variable's bound on its side, not a
    # kept row: the tightest stays, and on a tie the strict one
    for strict_at in range(3):
        uppers = [le({"x": 1}, 4) if i != strict_at else lt({"x": 2}, 8) for i in range(3)]
        lowers = [le({"x": -1}, -1) if i != strict_at else lt({"x": -3}, -3) for i in range(3)]
        step = next(_eliminate(uppers + [le({"x": 1}, 5), le({"x": -1}, 0)] + lowers))
        assert list(step.rows) == [] and step.lo[:2] == (1, True) and step.hi[:2] == (4, True)
    # after an elimination step: eliminating x gives y <= 4, y < 4 and y <= 5,
    # so y's upper bound is y < 4
    rows = [le({"x": 1, "y": 1}, 4), le({"x": -1}, 0), lt({"x": 2, "y": 1}, 4), le({"x": 3, "y": 1}, 5)]
    steps = [(step.var, list(step.rows), step.lo and step.lo[:2], step.hi and step.hi[:2])
             for step in _eliminate(rows, last="y")]
    assert steps == [("x", [rows[0], rows[2], rows[3]], (0, False), None), ("y", [], None, (4, True))]


def _kept(step):
    """How many rows and bounds a step sees."""
    return len(step.rows) + sum(None in side for sides in step.sides.values() for side in sides)


def test_matches_the_fraction_row_solver():
    rng = random.Random(2718)
    outcomes = {True: 0, False: 0}
    pruned = 0
    for _ in range(600):
        specs = random_row_specs(rng)
        rows = [make_row(*spec) for spec in specs]
        reference = [reference_make_row(*spec) for spec in specs]
        pruned += _kept(next(_eliminate(rows))) < len(rows)
        witness = feasible(rows)
        assert (witness is None) == (reference_feasible(reference) is None), specs
        outcomes[witness is not None] += 1
        if witness is not None:
            assert all(in_number_form(value) for value in witness.values())
            assert all(row.holds(witness) for row in reference)
        # every variable at once, and one that is in no row: unbounded
        # when the rows are feasible
        variables = sorted({v for coeffs, _, _ in specs for v in coeffs}) + ["absent"]
        shadows = project(rows, variables)
        if witness is None:
            assert shadows is None, specs
            continue
        assert list(shadows) == variables, specs
        assert shadows["absent"] == Interval(None, False, None, False)
        for var, interval in shadows.items():
            assert interval == reference_project(reference, var), (specs, var)
            assert project(rows, [var]) == {var: interval}, (specs, var)
            assert all(end is None or in_number_form(end) for end in (interval.lo, interval.hi))
    assert outcomes[True] > 150 and outcomes[False] > 150 and pruned > 150


def test_integer_back_substitution_matches_the_fraction_one():
    # back substitution compares the bounds on x as integer pairs; it must
    # pick the (value, open) the Fraction comparison picks on each side,
    # a strict row winning a tie in either order
    rng = random.Random(3141)

    def number(spread):
        return Fraction(rng.randint(-spread, spread), rng.choice([1, 1, 2, 3, 4]))

    ties = fractional = 0
    for _ in range(1500):
        assignment = {v: number(9) for v in ("y", "z")}
        if rng.random() < 0.3:
            assignment["y"] = rng.randint(-9, 9)  # back substitution keeps integral values as ints
        rows = []
        for _ in range(rng.randint(1, 6)):
            coeffs = {"x": rng.choice([-1, 1]) * Fraction(rng.randint(1, 4), rng.choice([1, 2, 3]))}
            coeffs.update({v: number(3) for v in ("y", "z") if rng.random() < 0.7})
            strict, bound = rng.random() < 0.4, number(20)
            row = make_row(coeffs, strict, bound)
            rows.append(row)
            if rng.random() < 0.4:
                # the same value of x at the assignment from other coefficients,
                # strict where the row is not, before or after it
                k = rng.choice([-2, -1, 1, 2])
                tie = make_row({**coeffs, "z": coeffs.get("z", 0) + k}, not strict,
                               bound + k * Fraction(assignment["z"]))
                rows.insert(len(rows) - rng.randint(0, 1), tie)
                ties += 1
        lowers = [row for row in rows if row.coeff("x") < 0]
        uppers = [row for row in rows if row.coeff("x") > 0]
        sides = _bounds_on("x", lowers, uppers, assignment)
        assert sides == fraction_bounds_on("x", lowers, uppers, assignment), (rows, assignment)
        for side in sides:
            if side is not None:
                assert in_number_form(side[0]), (rows, assignment)
                fractional += type(side[0]) is Fraction
        witness = feasible(rows)
        assert witness is None or all(in_number_form(value) for value in witness.values())
        shadow = project(rows, ["x"])
        assert shadow is None or all(end is None or in_number_form(end)
                                     for end in (shadow["x"].lo, shadow["x"].hi))
    assert ties > 400 and fractional > 400


def _implies(shadow, upper, bound):
    """Whether every value in ``shadow`` (None when empty) keeps a
    variable's (value, strict) upper (or lower) ``bound``."""
    if shadow is None:
        return True
    value, strict = bound[:2]
    end, is_open = (shadow.hi, shadow.hi_open) if upper else (shadow.lo, shadow.lo_open)
    if end is None:
        return False
    return (end < value if upper else end > value) or (end == value and (is_open or not strict))


def test_eliminate_keeps_the_sides_of_the_rows_it_returns():
    # the sides are updated in place step by step; at each step every
    # variable's sides must hold what one pass over the rows as they stand
    # finds, in the same order, beside its bounds, and no bound may be
    # tighter than the reference projection of the input rows
    rng = random.Random(4111)
    checked = bounds = 0
    for _ in range(600):
        specs = random_row_specs(rng)
        rows = [make_row(*spec) for spec in specs]
        reference = [reference_make_row(*spec) for spec in specs]
        shadows = {}
        for step in _eliminate(rows, last=rng.choice(["x0", "x1", "x2", "x3", None])):
            if step is None:
                break
            assert all(len(row.coeffs) > 1 for row in step.rows), rows
            assert len({row.coeffs for row in step.rows}) == len(step.rows), rows
            assert {v for row in step.rows for v, _ in row.coeffs} <= set(step.sides), rows
            for var, sides in step.sides.items():
                assert sides[0] or sides[1], rows
                for upper, side in enumerate(sides):
                    assert [row for key, row in side.items() if key is not None] == \
                        [row for row in step.rows if (row.coeff(var) > 0 if upper else row.coeff(var) < 0)], rows
                    if (bound := side.get(None)) is None:
                        continue
                    if var not in shadows:
                        shadows[var] = reference_project(reference, var)
                    assert _implies(shadows[var], upper, bound), (specs, var)
                    bounds += 1
            lower_side, upper_side = step.sides[step.var]
            assert (step.lo, step.hi) == (lower_side.get(None), upper_side.get(None)), rows
            assert step.lowers == [row for row in step.rows if row.coeff(step.var) < 0], rows
            assert step.uppers == [row for row in step.rows if row.coeff(step.var) > 0], rows
            checked += 1
    assert checked > 1000 and bounds > 1000


def test_probe_shaped_systems_match_the_fraction_row_solver():
    # domain rows, several unit bounds on each variable (equal strict and
    # non-strict ones among them) and fractional rows in two and three
    # variables, as the analyzer's probes have them: the answer, the
    # witness, each projection and each core must be the reference's
    rng = random.Random(3535)
    outcomes = {True: 0, False: 0}
    for _ in range(400):
        specs = probe_row_specs(rng)
        rows = [make_row(*spec) for spec in specs]
        reference = [reference_make_row(*spec) for spec in specs]
        variables = sorted({v for coeffs, _, _ in specs for v in coeffs})
        core = []
        witness = feasible(rows, core)
        assert (witness is None) == (reference_feasible(reference) is None), specs
        outcomes[witness is not None] += 1
        if witness is None:
            assert core and reference_feasible([reference[i] for i in core]) is None, (specs, core)
            assert project(rows, variables) is None, specs
            continue
        assert core == [] and all(in_number_form(value) for value in witness.values()), specs
        assert all(row.holds(witness) for row in reference), specs
        shadows = project(rows, variables)
        for var in variables:
            assert shadows[var] == reference_project(reference, var), (specs, var)
    assert outcomes[True] > 100 and outcomes[False] > 100


def test_an_infeasible_answer_names_a_core_infeasible_on_its_own():
    rng = random.Random(6021)
    cores = smaller = 0
    for _ in range(600):
        specs = random_row_specs(rng)
        rows = [make_row(*spec) for spec in specs]
        core = []
        if feasible(rows, core) is not None:
            assert core == []
            continue
        assert core and len(set(core)) == len(core) and all(0 <= i < len(rows) for i in core), specs
        assert reference_feasible([reference_make_row(*specs[i]) for i in core]) is None, (specs, core)
        cores += 1
        smaller += len(core) < len(rows)
    assert cores > 150 and smaller > 100
