"""Rule-set analysis: the golden corpus, oracle equivalence, and
solution-preserving simplification."""

import importlib.util
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    NUM_VARS,
    ORACLE_SCHEMA,
    grid_oracle,
    grid_oracle_excluded_levels,
    grid_points,
    in_number_form,
    lp_oracle,
    random_fractional_atom,
    random_oracle_ruleset,
    random_system,
    random_witness,
    random_witness_system,
    reference_check_witness,
    reference_leaves,
    reference_make_row,
    reference_project,
    reference_witness,
)
from validus import analyzer
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
    analyze_ruleset,
    check_witness,
    compile_rules,
    detect_nonconstraining,
    detect_nonrelaxing,
    detect_partial_infeasibility,
    detect_redundant,
    implied_bound_findings,
    implied_bounds,
    is_satisfiable,
    lint_rule,
    lint_ruleset,
    ruleset_implies,
    simplify_ruleset,
)
from validus.csvio import dataset_from_csv
from validus.errors import IncompatibleScopeError, UnsupportedForAnalysisError
from validus.evaluator import evaluate_ruleset
from validus.linear import Interval
from validus.model import DataPoint, Key, build_dataset, format_number
from validus.rules import RuleSet, format_ruleset, parse_rule, parse_rules
from validus.schema import parse_schema
from validus.tribool import TriBool

SCHEMA = parse_schema("""
t.x : numeric
t.y : numeric
t.gender : categorical {male, female}
t.income : numeric
t.age : integer
t.job : categorical {employed, unemployed}
""")

GENDER_RULES = 'a: if (gender == "male") income > 2000\nb: if (gender == "male") income < 1000\n'


# --- compilation ------------------------------------------------------------

def test_conditional_compiles_to_clause():
    system = compile_rules(parse_rules('r: if (gender == "male") income > 2000'), SCHEMA)
    (clause,) = system.clauses
    cat, lin = clause.disjuncts
    assert isinstance(cat, CategoricalAtom) and cat.allowed == frozenset({"female"})
    assert isinstance(lin, LinearAtom) and lin.relation == ">" and lin.constant == 2000


def test_plain_bound_is_unit_clause():
    system = compile_rules(parse_rules("r: x >= 0"), SCHEMA)
    (clause,) = system.clauses
    (atom,) = clause.disjuncts
    assert atom == LinearAtom((("t.x", Fraction(1)),), ">=", Fraction(0))


def test_numeric_inequality_splits():
    # the compiler keeps != as written; the plan alone splits it into < and >
    unit = (("t.x", Fraction(1)),)
    system = compile_rules(parse_rules("r: x != 1"), SCHEMA)
    (clause,) = system.clauses
    assert clause.disjuncts == (LinearAtom(unit, "!=", Fraction(1)),)
    memo = analyzer._Memo()
    options = [[memo.rows[i] for i in option] for option in memo.plan(clause.disjuncts)]
    assert options == [analyzer._atom_rows(LinearAtom(unit, relation, Fraction(1))) for relation in "<>"]
    # a negated numeric in_set gives one != atom per number
    system = compile_rules(parse_rules("r: not in_set(x, {1, 2})"), SCHEMA)
    assert [c.disjuncts for c in system.clauses] == [(LinearAtom(unit, "!=", Fraction(n)),) for n in (1, 2)]


def test_division_compiles_to_the_reference_rows_without_a_float():
    # number literals compile to ints, so a quotient must be built exactly
    schema = parse_schema("t.x : numeric\nt.y : numeric\n")
    cases = [("r: x / 2 <= 1", {"t.x": Fraction(1, 2)}, "<=", 1),
             ("r: (x + 1) / 3 <= y", {"t.x": Fraction(1, 3), "t.y": -1}, "<=", Fraction(-1, 3)),
             ("r: x / 2 * 4 >= 1", {"t.x": 2}, ">=", 1)]
    for text, coeffs, relation, constant in cases:
        (clause,) = compile_rules(parse_rules(text), schema).clauses
        (atom,) = clause.disjuncts
        assert atom == LinearAtom(tuple(sorted(coeffs.items())), relation, constant), text
        (row,) = analyzer._atom_rows(atom)
        assert all(in_number_form(n) for n in [*(c for _, c in atom.coeffs), atom.constant,
                                               *(c for _, c in row.coeffs), row.bound]), text
        sign = 1 if relation == "<=" else -1
        reference = reference_make_row({v: sign * c for v, c in coeffs.items()}, False, sign * constant)
        # the row is the reference row scaled by a positive factor
        scale = row.coeffs[0][1] / reference.coeffs[0][1]
        assert [v for v, _ in row.coeffs] == [v for v, _ in reference.coeffs] and scale > 0, text
        assert all(c == scale * r for (_, c), (_, r) in zip(row.coeffs, reference.coeffs)), text
        assert row.bound == scale * reference.bound and not row.strict, text


def test_schema_bounds_become_clauses():
    schema = parse_schema("t.x : numeric [0, 10]\n")
    system = compile_rules(parse_rules("r: x >= 5"), schema)
    origins = [c.origin for c in system.clauses]
    assert origins == ["r", "domain:x", "domain:x"]


@pytest.mark.parametrize("text,fragment", [
    ("r: mean(age) >= 5", "aggregate"),
    ("r: price - price@1 >= 0", "lag"),
    ("r: trade.u >= partner.v", "cross-table"),
    ("r: trade.u >= 0 and v <= 1", "cross-table"),
    ("r: x * x >= 0", "linear"),
    ("r: 1 / x <= 2", "divisor"),
    ("r: is_na(x)", "three-valued"),
    ("r: abs(x) <= 1", "not linear"),
    ('r: gender < "male"', "ordering"),
    ("r: gender == job", "two categorical"),
    ("r: gender + 1 >= 0", "numeric context"),
])
def test_unsupported_fragments(text, fragment):
    schema = parse_schema(
        "t.x : numeric\nt.age : integer\nt.price : numeric\n"
        "t.gender : categorical {male, female}\nt.job : categorical {employed}\n"
        "trade.u : numeric\npartner.v : numeric\n"
    )
    with pytest.raises(UnsupportedForAnalysisError) as err:
        compile_rules(parse_rules(text), schema)
    assert fragment in str(err.value)


def test_analyze_rejects_the_cross_table_rules_validate_rejects():
    schema = parse_schema("a.x : numeric\nb.y : numeric\n")
    rules = parse_rules("r: a.x >= 0 and y <= 1\nq: x >= 0 and b.y <= 1")
    reason = "cross-table references"
    assert analyze_ruleset(rules, schema) == ([], [("r", reason), ("q", reason)])
    assert simplify_ruleset(rules, schema) == (rules, [])
    for rule in rules:
        with pytest.raises(IncompatibleScopeError, match="records of several tables"):
            evaluate_ruleset(rules.without(rule.name), build_dataset([]), schema)


def test_numeric_membership_compiles_to_equalities():
    rules = parse_rules("a: in_set(x, {1, 2})\nb: x != 1\nc: x != 2")
    assert not is_satisfiable(compile_rules(rules, SCHEMA))
    rules = parse_rules("a: in_set(x, {1, 2})\nb: x != 1")
    result = is_satisfiable(compile_rules(rules, SCHEMA))
    assert result and result.witness["t.x"] == Fraction(2)


def test_undeclared_level_is_vacuous():
    # equality against a level outside the declared set cannot hold
    system = compile_rules(parse_rules('r: gender == "other"'), SCHEMA)
    assert not is_satisfiable(system)
    system = compile_rules(parse_rules('r: gender != "other"'), SCHEMA)
    assert is_satisfiable(system)


# --- satisfiability -----------------------------------------------------------

def test_contradictory_pair_unsat():
    system = compile_rules(parse_rules("a: x >= 0\nb: x <= -1"), SCHEMA)
    assert not is_satisfiable(system)


def test_gender_pair_satisfiable_with_witness():
    system = compile_rules(parse_rules(GENDER_RULES), SCHEMA)
    result = is_satisfiable(system)
    assert result
    assert result.witness["t.gender"] == "female"
    assert check_witness(system, result.witness)


def test_three_clause_case_split_unsat():
    # y <= 0 forces x >= 1 through the second rule, then the first rule
    # forces y > 0: contradiction (verified by the grid oracle too)
    rules = parse_rules("a: if (x > 0) y > 0\nb: if (x < 1) y > 1\nc: y <= 0")
    system = compile_rules(rules, SCHEMA)
    assert not is_satisfiable(system)
    assert grid_oracle(system) is False


def test_integer_kind_relaxes_to_rationals():
    # only integer-infeasible: 2*age == 1 has the rational solution 1/2
    system = compile_rules(parse_rules("r: 2 * age == 1"), SCHEMA)
    assert is_satisfiable(system)


# --- lint ---------------------------------------------------------------------

def test_lint_tautology():
    for body in [
        "x >= 0 or x <= 1",
        'not in_set(job, {"employed"}) or job == "employed"',
        "not in_set(x, {1, 2}) or x == 1 or x == 2",
        "not not x >= 0 or x < 0",
    ]:
        finding = lint_rule(parse_rule(f"r: {body}"), SCHEMA)
        assert finding is not None and finding.kind == TAUTOLOGY, body


def test_lint_contradiction():
    for body in [
        "x >= 0 and x <= -1",
        "not (if (x >= 0) y >= 0) and y >= 0 and x >= 0",
        'not in_set(job, {"employed"}) and job == "employed"',
    ]:
        finding = lint_rule(parse_rule(f"r: {body}"), SCHEMA)
        assert finding is not None and finding.kind == CONTRADICTION, body


def test_lint_valid_rule():
    assert lint_rule(parse_rule("r: x >= 0"), SCHEMA) is None


def test_lint_relative_to_declared_levels():
    finding = lint_rule(parse_rule('r: job == "employed" or job == "unemployed"'), SCHEMA)
    assert finding is not None and finding.kind == TAUTOLOGY


def test_lint_section_corpus_is_otherwise_clean():
    rules = parse_rules(GENDER_RULES + "c: x >= 0\nd: x >= 1\ne: if (x >= 0) y >= 0\n")
    assert all(lint_rule(r, SCHEMA) is None for r in rules)


#: One rule shape per branch of the compiler, with lint_rule's outcome:
#: a finding kind, None for a genuine rule, or "unsupported".
_LINT_SHAPES = [
    ("x <= y", None),
    ("-x <= 0", TAUTOLOGY),
    ("x / 2 <= 2", TAUTOLOGY),
    ("x * 2 >= 7", CONTRADICTION),
    ("x + y <= 6", TAUTOLOGY),
    ("1 < 2", TAUTOLOGY),
    ("2 < 1", CONTRADICTION),
    ('"a" == "a"', TAUTOLOGY),
    ('"a" != "a"', CONTRADICTION),
    ('c == "z"', CONTRADICTION),
    ('c != "z"', TAUTOLOGY),
    ('"a" == c', None),
    ("3 >= x", TAUTOLOGY),
    ('in_set(c, {"a", "b", "d"})', TAUTOLOGY),
    ('not in_set(c, {"a"})', None),
    ('in_set(c, {1})', CONTRADICTION),
    ("in_set(x, {1, 2})", None),
    ("not in_set(x, {0, 1, 2, 3})", None),  # the rational relaxation has 1/2
    ('in_set(x, {"a"})', CONTRADICTION),
    ("x != 1", None),
    ('if (c == "a") x >= 1', None),
    ('x <= 3 or c == "b"', TAUTOLOGY),
    ('x == "a"', "unsupported"),
    ('x != "a"', "unsupported"),
    ("c == 1", "unsupported"),
    ("c != 1", "unsupported"),
    ("c == x", "unsupported"),
    ('c < "b"', "unsupported"),
    ('"a" < "b"', "unsupported"),
    ("x == NA", "unsupported"),
    ('c != NA', "unsupported"),
    ("abs(x) <= 3", "unsupported"),
    ("x * y >= 0", "unsupported"),
    ("x / 0 <= 1", "unsupported"),
    ("in_set(x + 1, {1})", "unsupported"),
]


def test_lint_verdicts_hold_for_what_validate_checks():
    # validate's verdicts on every in-domain record are the reference: a
    # tautology is TRUE on each, a contradiction FALSE on each, and no
    # analyzable rule is ever NA
    schema = parse_schema("t.x : integer [0, 3]\nt.y : integer [0, 3]\nt.c : categorical {a, b, d}\n")
    rules = parse_rules("\n".join(f"r{i}: {shape}" for i, (shape, _) in enumerate(_LINT_SHAPES)))
    records = list(itertools.product(range(4), range(4), "abd"))
    dataset = build_dataset(DataPoint(Key("t", None, str(i), var), value)
                            for i, record in enumerate(records) for var, value in zip("xyc", record))
    verdicts: dict[str, set[TriBool]] = {rule.name: set() for rule in rules}
    for entry in evaluate_ruleset(rules, dataset, schema).entries:
        verdicts[entry.rule].add(entry.result)
    assert len(records) == 48
    for rule, (shape, expected) in zip(rules, _LINT_SHAPES):
        try:
            finding = lint_rule(rule, schema)
        except UnsupportedForAnalysisError:
            assert expected == "unsupported", shape
            continue
        assert (finding and finding.kind) == expected, shape
        assert TriBool.NA not in verdicts[rule.name], shape
        if expected == TAUTOLOGY:
            assert verdicts[rule.name] == {TriBool.TRUE}, shape
        elif expected == CONTRADICTION:
            assert verdicts[rule.name] == {TriBool.FALSE}, shape


def test_simplify_keeps_the_comparisons_validate_makes_na():
    schema = parse_schema("t.x : numeric [0, 10]\nt.c : categorical {a, b}\n")
    rules = parse_rules('cap: x <= 9\nnum_text: x != "a"\ncat_num: c != 1')
    reason = "text compared with a number or NA is outside the two-valued fragment"
    assert analyze_ruleset(rules, schema)[1] == [("num_text", reason), ("cat_num", reason)]
    assert simplify_ruleset(rules, schema) == (rules, [])


@pytest.mark.parametrize("levels,odd", [("1, 2", "1"), ("a, NA", "NA"), ('a, ""', "")])
def test_a_level_ingest_reads_as_a_number_or_na_leaves_the_fragment(levels, odd):
    # ingest reads the cell 1 as the number 1, which validate never finds
    # in a set of text levels: r2 is FALSE on both records, not a tautology
    schema = parse_schema(f"t.c : categorical {{{levels}}}\nt.x : numeric\n")
    rules = parse_rules('r1: c == "1"\nr2: in_set(c, {"1", "2"})\nr3: x >= 0')
    reason = f"level {odd!r} of 'c' ingests as a number or NA, not as text"
    findings, subset, unsupported = lint_ruleset(rules, schema)
    assert (findings, [rule.name for rule in subset], unsupported) == ([], ["r3"], [("r1", reason), ("r2", reason)])
    assert analyze_ruleset(rules, schema)[1] == [("r1", reason), ("r2", reason)]
    assert simplify_ruleset(rules, schema) == (rules, [])
    if odd == "1":
        data = dataset_from_csv({"t": "id,c,x\n1,1,0\n2,2,0\n"})
        verdicts = {(e.rule, e.result) for e in evaluate_ruleset(rules, data, schema).entries}
        assert ("r2", TriBool.FALSE) in verdicts and ("r2", TriBool.TRUE) not in verdicts


def test_each_categorical_declaration_is_read_once_per_call(monkeypatch):
    # whether a level ingests as text depends on its declaration alone, so
    # each level is parsed once per public call, not once per compiled rule
    parsed = []
    parse_value = analyzer.parse_value
    monkeypatch.setattr(analyzer, "parse_value", lambda text: parsed.append(text) or parse_value(text))
    rules = parse_rules(GENDER_RULES + 'c: gender != "female"\nd: if (job == "employed") income >= 0\n')
    for call in (analyze_ruleset, simplify_ruleset):
        parsed.clear()
        call(rules, SCHEMA)
        assert sorted(parsed) == ["employed", "female", "male", "unemployed"], call


# --- implied bounds -------------------------------------------------------------

def test_fixed_value():
    system = compile_rules(parse_rules("a: x >= 0\nb: x <= 0"), SCHEMA)
    assert implied_bounds(system, "x") == Interval(Fraction(0), False, Fraction(0), False)
    findings = implied_bound_findings(system)
    assert any(f.kind == FIXED_VALUE and f.variable == "x" and f.value == "0" for f in findings)


def test_implied_bounds_rejects_an_unsatisfiable_system_and_an_unknown_variable():
    with pytest.raises(ValueError, match="satisfiable"):
        implied_bounds(compile_rules(parse_rules("a: x >= 1\nb: x <= 0"), SCHEMA), "x")
    with pytest.raises(KeyError, match="'y'"):
        implied_bounds(compile_rules(parse_rules("a: x >= 1"), SCHEMA), "y")


def test_nonrelaxing_set_bounds():
    system = compile_rules(parse_rules("a: if (x >= 0) y >= 0\nb: x >= 0"), SCHEMA)
    assert implied_bounds(system, "y") == Interval(Fraction(0), False, None, False)


def test_nonconstraining_set_bounds():
    system = compile_rules(parse_rules("a: if (x > 0) y > 0\nb: if (x < 1) y > 1"), SCHEMA)
    assert implied_bounds(system, "y") == Interval(Fraction(0), True, None, False)


def test_range_restriction_within_declared_domain():
    schema = parse_schema("t.x : numeric [0, 100]\n")
    system = compile_rules(parse_rules("r: x >= 10"), schema)
    findings = implied_bound_findings(system)
    assert [(f.kind, f.variable, f.low, f.high) for f in findings] == [
        (RANGE_RESTRICTION, "x", "10", "100")
    ]


def test_no_restriction_when_domain_is_filled():
    schema = parse_schema("t.x : numeric [0, 100]\n")
    system = compile_rules(parse_rules("r: x >= 0"), schema)
    assert implied_bound_findings(system) == []


def test_bound_findings_equal_the_per_variable_hulls():
    rng = random.Random(6011)
    kinds = {FIXED_VALUE: 0, RANGE_RESTRICTION: 0}
    checked = 0
    while checked < 150:
        system = random_system(rng, multivar=rng.random() < 0.5)
        for var in system.numeric_vars:  # declare a domain for some variables
            if rng.random() < 0.5:
                low, high = sorted(Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(2))
                system.numeric_vars[var] = (low, high)
                system.clauses += [Clause((LinearAtom(((var, Fraction(1)),), ">=", low),), "domain"),
                                   Clause((LinearAtom(((var, Fraction(1)),), "<=", high),), "domain")]
        if not is_satisfiable(system):
            continue
        checked += 1
        expected = []
        for var in sorted(system.numeric_vars):
            hull = implied_bounds(system, var)
            reference = None
            for _cats, rows in reference_leaves(system):
                interval = reference_project([reference_make_row(dict(r.coeffs), r.strict, r.bound) for r in rows], var)
                reference = interval if reference is None else reference.hull(interval)
            assert hull == reference
            assert all(end is None or in_number_form(end) for end in (hull.lo, hull.hi))
            declared = system.numeric_vars[var] or (None, None)
            if hull.is_point:
                expected.append((FIXED_VALUE, var, format_number(hull.lo), None, None))
            elif (hull.lo, hull.lo_open, hull.hi, hull.hi_open) != (declared[0], False, declared[1], False):
                expected.append((RANGE_RESTRICTION, var, None, _text(hull.lo), _text(hull.hi)))
        findings = implied_bound_findings(system)
        assert [(f.kind, f.variable, f.value, f.low, f.high) for f in findings] == expected
        for finding in findings:
            kinds[finding.kind] += 1
    assert kinds[FIXED_VALUE] > 10 and kinds[RANGE_RESTRICTION] > 50


def _text(value):
    return None if value is None else format_number(value)


# --- partial infeasibility -------------------------------------------------------

def test_partial_infeasibility_gender_pair():
    system = compile_rules(parse_rules(GENDER_RULES), SCHEMA)
    findings = detect_partial_infeasibility(system)
    assert [(f.variable, f.value) for f in findings] == [("gender", "male")]


def test_single_conditional_excludes_nothing():
    system = compile_rules(parse_rules('a: if (gender == "male") income > 2000'), SCHEMA)
    assert detect_partial_infeasibility(system) == []


def test_partial_infeasibility_three_levels():
    schema = parse_schema("t.gender : categorical {male, female, other}\nt.income : numeric\n")
    system = compile_rules(parse_rules(GENDER_RULES), schema)
    findings = detect_partial_infeasibility(system)
    assert [(f.variable, f.value) for f in findings] == [("gender", "male")]


def test_excluded_levels_match_the_grid_oracle():
    # a level is excluded exactly when the system plus a clause fixing it has no solution
    rng = random.Random(2828)
    checked = excluded = 0
    for _ in range(200):
        system = random_system(rng, multivar=False)
        expected = grid_oracle_excluded_levels(system)
        assert [(f.variable, f.value) for f in detect_partial_infeasibility(system)] == expected, system
        checked += sum(map(len, system.categorical_vars.values()))
        excluded += len(expected)
    assert checked > 300 and 20 < excluded < checked


# --- redundancy --------------------------------------------------------------------

def test_simple_redundancy():
    findings = detect_redundant(parse_rules("a: x >= 0\nb: x >= 1"), SCHEMA)
    assert [f.rule for f in findings] == ["a"]


def test_independent_rules_not_redundant():
    assert detect_redundant(parse_rules("a: x >= 0\nb: y >= 0"), SCHEMA) == []


def test_duplicate_rules_both_flagged_one_removed():
    rules = parse_rules("a: x >= 0\nb: x >= 0")
    findings = detect_redundant(rules, SCHEMA)
    assert [f.rule for f in findings] == ["a", "b"]
    simplified, log = simplify_ruleset(rules, SCHEMA)
    assert len(simplified) == 1
    assert format_ruleset(simplified) in ("a: x >= 0\n", "b: x >= 0\n")
    assert [s.action for s in log] == ["drop_redundant"]


# --- conditional clause detections ---------------------------------------------------

def test_detect_nonrelaxing():
    rules = parse_rules("a: if (x >= 0) y >= 0\nb: x >= 0")
    assert [f.rule for f in detect_nonrelaxing(rules, SCHEMA)] == ["a"]


def test_detect_nonconstraining():
    rules = parse_rules("a: if (x > 0) y > 0\nb: if (x < 1) y > 1")
    assert [f.rule for f in detect_nonconstraining(rules, SCHEMA)] == ["a"]
    assert detect_nonrelaxing(rules, SCHEMA) == []


# --- simplification -------------------------------------------------------------------

def test_simplify_redundant_pair():
    simplified, log = simplify_ruleset(parse_rules("a: x >= 0\nb: x >= 1"), SCHEMA)
    assert format_ruleset(simplified) == "b: x >= 1\n"
    assert [s.action for s in log] == ["drop_redundant"]


def test_simplify_nonrelaxing_pair():
    simplified, log = simplify_ruleset(parse_rules("a: if (x >= 0) y >= 0\nb: x >= 0"), SCHEMA)
    assert format_ruleset(simplified) == "a: y >= 0\nb: x >= 0\n"
    assert [s.action for s in log] == ["nonrelaxing"]


def test_simplify_nonconstraining_pair():
    simplified, log = simplify_ruleset(parse_rules("a: if (x > 0) y > 0\nb: if (x < 1) y > 1"), SCHEMA)
    assert format_ruleset(simplified) == "a: y > 0\nb: if (x < 1) y > 1\n"
    assert [s.action for s in log] == ["nonconstraining"]


def test_simplify_singleton_is_fixpoint():
    simplified, log = simplify_ruleset(parse_rules("a: x >= 0"), SCHEMA)
    assert format_ruleset(simplified) == "a: x >= 0\n"
    assert log == []


def test_simplify_infeasible_stops():
    rules = parse_rules("a: x >= 0\nb: x <= -1")
    simplified, log = simplify_ruleset(rules, SCHEMA)
    assert [s.action for s in log] == ["infeasible"]
    assert list(simplified) == list(rules)


def test_simplify_preserves_solution_set():
    for text in [
        "a: x >= 0\nb: x >= 1",
        "a: if (x >= 0) y >= 0\nb: x >= 0",
        "a: if (x > 0) y > 0\nb: if (x < 1) y > 1",
        GENDER_RULES,
        "a: x >= 0\nb: x >= 0\nc: if (x >= 0) y >= 1\nd: y >= 0",
    ]:
        rules = parse_rules(text)
        simplified, log = simplify_ruleset(rules, SCHEMA)
        # the first step is the first detector finding, by rule and then
        # nonrelaxing, nonconstraining, redundant; no step iff none
        found = {(f.rule, _ACTIONS[f.kind]) for detect in (detect_nonrelaxing, detect_nonconstraining, detect_redundant)
                 for f in detect(rules, SCHEMA)}
        first = next(((rule.name, action) for rule in rules for action in _ACTIONS.values()
                      if (rule.name, action) in found), None)
        assert ((log[0].rule, log[0].action) if log else None) == first, text
        assert ruleset_implies(rules, simplified, SCHEMA)
        assert ruleset_implies(simplified, rules, SCHEMA)


# --- whole-set analysis -----------------------------------------------------------------

def test_analyze_gender_pair_exact_findings():
    findings, unsupported = analyze_ruleset(parse_rules(GENDER_RULES), SCHEMA)
    assert unsupported == []
    assert [(f.kind, f.variable, f.value) for f in findings] == [
        (PARTIAL_INFEASIBILITY, "gender", "male")
    ]


def test_analyze_infeasible_set():
    findings, _ = analyze_ruleset(parse_rules("a: x >= 0\nb: x <= -1"), SCHEMA)
    assert any(f.kind == INFEASIBLE for f in findings)


def test_analyze_reports_unsupported_rules():
    findings, unsupported = analyze_ruleset(parse_rules("a: x >= 0\nb: mean(x) >= 0"), SCHEMA)
    assert unsupported == [("b", "aggregates are not record-scoped")]
    assert all(f.kind != INFEASIBLE for f in findings)


def test_analyze_clean_set_is_empty():
    findings, unsupported = analyze_ruleset(parse_rules('a: if (gender == "male") income > 2000'), SCHEMA)
    assert findings == [] and unsupported == []


def test_analyze_is_deterministic():
    rules = parse_rules(GENDER_RULES + "c: x >= 0\nd: x >= 1\n")
    first = analyze_ruleset(rules, SCHEMA)
    second = analyze_ruleset(rules, SCHEMA)
    assert first == second


# --- randomized oracle equivalence --------------------------------------------------------

def test_solver_matches_grid_oracle():
    # single-variable atoms keep the breakpoint grid a complete decision
    # procedure; coefficients range over -3..3 as in the corpus contract
    rng = random.Random(424242)
    agree = 0
    for _ in range(500):
        system = random_system(rng, multivar=False)
        verdict = bool(is_satisfiable(system))
        assert verdict == grid_oracle(system)
        agree += 1
    assert agree == 500


def test_solver_matches_exact_lp_oracle_multivariable():
    rng = random.Random(99)
    for _ in range(60):
        system = random_system(rng, multivar=True)
        assert bool(is_satisfiable(system)) == lp_oracle(system)


def test_every_sat_verdict_carries_a_sound_witness():
    rng = random.Random(7311)
    seen_sat = 0
    for _ in range(300):
        system = random_system(rng, multivar=True)
        result = is_satisfiable(system)
        if result:
            seen_sat += 1
            assert check_witness(system, result.witness)
            assert all(in_number_form(value) for value in result.witness.values() if not isinstance(value, str))
    assert seen_sat > 50


def test_check_witness_reads_int_values_as_numbers():
    system = compile_rules(parse_rules("a: x >= 5\n"), SCHEMA)
    assert check_witness(system, {"t.x": 7})
    assert check_witness(system, {"t.x": Fraction(11, 2)})
    assert not check_witness(system, {"t.x": 4})


def test_integer_witness_check_agrees_with_fraction_evaluation():
    rng = random.Random(8128)
    verdicts = set()  # (relation, verdict) pairs seen atom by atom
    for _ in range(3000):
        witness = random_witness(rng)
        atom = random_fractional_atom(rng, witness)
        system = ConstraintSystem([Clause((atom,), "a")], {v: None for v in NUM_VARS}, {}, {})
        verdict = check_witness(system, witness)
        assert verdict == reference_check_witness(system, witness), (atom, witness)
        verdicts.add((atom.relation, verdict))
    assert len(verdicts) == 12
    outcomes = []
    for _ in range(1500):
        witness = random_witness(rng)
        system = random_witness_system(rng, witness)
        outcomes.append(check_witness(system, witness))
        assert outcomes[-1] == reference_check_witness(system, witness), (system, witness)
    assert 300 < sum(outcomes) < 1200


# --- search work -------------------------------------------------------------------------

def _count_calls(monkeypatch, name: str = "feasible") -> list[int]:
    calls = [0]
    solve = getattr(analyzer, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(analyzer, name, counted)
    return calls


def _unit(var: str, relation: str, constant: int) -> LinearAtom:
    return LinearAtom(((var, Fraction(1)),), relation, Fraction(constant))


def test_clauses_without_a_choice_are_not_checked(monkeypatch):
    clauses = [Clause((_unit("x", ">=", -i),), f"u{i}") for i in range(30)]
    clauses.append(Clause((_unit("x", "<=", 5), _unit("x", ">=", 10)), "split"))
    system = ConstraintSystem(clauses, {"x": None}, {}, {})
    calls = _count_calls(monkeypatch)
    assert is_satisfiable(system)
    assert calls[0] <= 4
    calls[0] = 0
    assert implied_bounds(system, "x") == Interval(Fraction(0), False, None, False)
    assert calls[0] <= 4


def test_clauses_without_a_choice_end_the_search_or_hand_it_to_the_split(monkeypatch):
    # an empty clause, or two unit levels that share none, ends the search
    # with no check; a lone != offers two options, so it waits until the
    # unit clauses are taken and is then split with their rows and levels
    # (x >= 1 keeps the origin from answering the first branch, so its
    # witness is the reference's)
    def g(*levels):
        return CategoricalAtom("g", frozenset(levels))

    low, high = Clause((_unit("x", ">=", 1),), "low"), Clause((_unit("x", "<=", 3),), "high")
    cases = [
        ([low, Clause((), "empty"), high], False),
        ([low, Clause((g("a"),), "a"), Clause((g("b"),), "b"), high], False),
        ([low, Clause((g("a", "b"),), "ab"), Clause((_unit("x", "!=", 2),), "ne"), high], True),
    ]
    for clauses, satisfiable in cases:
        system = ConstraintSystem(clauses, {"x": None}, {"g": ("a", "b", "c")}, {})
        calls = _count_calls(monkeypatch)
        leaves = analyzer._solves_once(lambda: list(analyzer._leaves(system)))()
        result = is_satisfiable(system)
        assert calls[0] > 0 if satisfiable else calls[0] == 0, clauses
        assert ([(cats, set(rows)) for cats, rows in leaves]
                == [(cats, set(rows)) for cats, rows in reference_leaves(system)]), clauses
        assert len(leaves) == (2 if satisfiable else 0)
        assert (result.witness if result else None) == reference_witness(system), clauses


def test_a_lone_inequality_waits_for_the_unit_clauses(monkeypatch):
    # x != 2 has two options, so x >= 1 and x <= 0 are taken first and the
    # first option's check finds their contradiction; its core answers the
    # second option
    ne = Clause((_unit("x", "!=", 2),), "ne")
    system = ConstraintSystem([ne, Clause((_unit("x", ">=", 1),), "low"), Clause((_unit("x", "<=", 0),), "high")],
                              {"x": None}, {}, {})
    calls = _count_calls(monkeypatch)
    assert not is_satisfiable(system)
    assert calls[0] == 1


def test_a_split_narrows_a_later_clause_to_one_option_or_satisfies_it():
    # g = a satisfies the later clause, so it is passed over; g = b leaves it
    # one option, x >= 5, which is taken without a split
    def g(level):
        return CategoricalAtom("g", frozenset(level))

    clauses = [Clause((g("a"), g("b")), "split"), Clause((g("a"), _unit("x", ">=", 5)), "later")]
    system = ConstraintSystem(clauses, {"x": None}, {"g": ("a", "b", "c")}, {})
    leaves = analyzer._solves_once(lambda: list(analyzer._leaves(system)))()
    assert leaves == list(reference_leaves(system))
    assert [(cats["g"], len(rows)) for cats, rows in leaves] == [(frozenset("a"), 0), (frozenset("b"), 1)]
    assert is_satisfiable(system).witness == reference_witness(system)


def test_contradictory_unit_rows_prune_before_categorical_splits(monkeypatch):
    levels = {f"g{i}": ("a", "b") for i in range(12)}
    clauses = [Clause((_unit("x", ">=", 1),), "low"), Clause((_unit("x", "<=", 0),), "high")]
    clauses += [Clause((CategoricalAtom(v, frozenset("a")), CategoricalAtom(v, frozenset("b"))), v) for v in levels]
    system = ConstraintSystem(clauses, {"x": None}, levels, {})
    calls = _count_calls(monkeypatch)
    checks = _count_calls(monkeypatch, "_solve")  # memo hits too: walking 2^12 paths shows here
    assert not is_satisfiable(system)
    assert calls[0] <= 4 and checks[0] <= 4


def test_an_infeasible_core_answers_the_cases_that_contain_it(monkeypatch):
    # 2^10 leaves, each with the same contradiction x >= 1, x <= 0; the first
    # leaf's elimination finds it, the others contain its core
    clauses = [Clause((_unit(f"y{i}", "<=", 0), _unit(f"y{i}", ">=", 0)), f"y{i}") for i in range(10)]
    clauses += [Clause((_unit("x", ">=", 1),), "low"), Clause((_unit("x", "<=", 0),), "high")]
    system = ConstraintSystem(clauses, {"x": None, **{f"y{i}": None for i in range(10)}}, {}, {})
    calls = _count_calls(monkeypatch)
    assert not is_satisfiable(system)
    assert calls[0] <= 2


def test_the_level_walk_stops_once_every_level_is_seen(monkeypatch):
    checks = _count_calls(monkeypatch, "_solve")
    numeric = ConstraintSystem([Clause((_unit("x", "<=", 0), _unit("x", ">=", 1)), "x")], {"x": None}, {}, {})
    assert detect_partial_infeasibility(numeric) == []
    assert checks[0] == 0
    # 2^10 leaves; g is in no clause, so the first leaf has both its levels
    clauses = [Clause((_unit(f"y{i}", "<=", 0), _unit(f"y{i}", ">=", 1)), f"y{i}") for i in range(10)]
    system = ConstraintSystem(clauses, {f"y{i}": None for i in range(10)}, {"g": ("a", "b")}, {})
    assert detect_partial_infeasibility(system) == []
    assert checks[0] <= 11  # one check per branching clause, then the leaf


def _combinations(cats: dict[str, frozenset[str]]) -> list[tuple[str, ...]]:
    """Every level combination of a leaf's categorical state, by sorted variable."""
    return list(itertools.product(*(sorted(cats[v]) for v in sorted(cats))))


def test_search_yields_the_leaves_and_witnesses_of_checking_every_clause():
    # the search splits categories apart, reuses witnesses and takes the
    # clauses without a choice first, so its leaves, their row order and its
    # witness need not be the reference's; they must cover the same solutions
    rng = random.Random(5150)
    for multivar in (False, True):
        for _ in range(150):
            system = random_system(rng, multivar=multivar)
            leaves = analyzer._solves_once(lambda: list(analyzer._leaves(system)))()
            reference = list(reference_leaves(system))
            for cats, rows in leaves:
                assert any(set(rows) == set(ref_rows) and all(cats[v] <= ref_cats[v] for v in cats)
                           for ref_cats, ref_rows in reference), (system, cats, rows)
            covering = [(set(_combinations(cats)), set(rows)) for cats, rows in leaves]
            for ref_cats, ref_rows in reference:
                for combination in _combinations(ref_cats):
                    assert any(combination in combos and rows <= set(ref_rows)
                               for combos, rows in covering), (system, combination, ref_rows)
            result = is_satisfiable(system)
            assert bool(result) == (reference_witness(system) is not None)
            if result:
                assert check_witness(system, result.witness)
                assert reference_check_witness(system, result.witness)


def test_analysis_does_not_depend_on_rule_order():
    # a later option of a clause excludes the levels of the earlier ones, so the
    # search depends on clause order; the findings must not
    rng = random.Random(8080)
    for _ in range(40):
        rules = list(random_oracle_ruleset(rng))
        findings, unsupported = analyze_ruleset(RuleSet(tuple(rules)), ORACLE_SCHEMA)
        for _ in range(3):
            rng.shuffle(rules)
            shuffled, shuffled_unsupported = analyze_ruleset(RuleSet(tuple(rules)), ORACLE_SCHEMA)
            assert set(shuffled) == set(findings), rules
            assert set(shuffled_unsupported) == set(unsupported), rules


def test_no_feasibility_answer_outlives_a_call(monkeypatch):
    rules = parse_rules(GENDER_RULES + "c: x >= 0\nd: x >= 1\n")
    calls = _count_calls(monkeypatch)
    first = analyze_ruleset(rules, SCHEMA)
    first_calls, calls[0] = calls[0], 0
    assert analyze_ruleset(rules, SCHEMA) == first
    assert calls[0] == first_calls > 0


def test_simplify_asks_each_conditional_branch_once(monkeypatch):
    rules = parse_rules('c: if (gender == "male") income > 2000\nd: x >= 0\ne: x >= 1\n')
    claims = []
    entails = analyzer._entails

    def recorded(parts, claim, schema):
        claims.append(claim.body)
        return entails(parts, claim, schema)

    monkeypatch.setattr(analyzer, "_entails", recorded)
    simplified, log = simplify_ruleset(rules, SCHEMA)
    assert [s.action for s in log] == ["drop_redundant"]
    assert [r.name for r in simplified] == ["c", "e"]
    conditional = rules["c"].body
    assert claims.count(conditional.cond) == 1
    assert claims.count(conditional.then) == 1
    assert claims.count(conditional) == 1  # a drop leaves a rule found not redundant so


def test_simplify_forgets_irredundant_rules_after_a_rewrite():
    # r is not redundant at first; once q collapses to y >= 1, t forces x >= 6 and r is
    schema = parse_schema("t.x : numeric [0, 100]\nt.y : numeric [0, 100]\n")
    rules = parse_rules("r: x >= 5\nq: if (x >= 5) y >= 1\nt: if (y >= 1) x >= 6\n")
    simplified, log = simplify_ruleset(rules, schema)
    assert [(s.action, s.rule) for s in log] == [
        ("nonrelaxing", "q"), ("drop_redundant", "r"), ("nonrelaxing", "t")]
    assert format_ruleset(simplified) == "q: y >= 1\nt: x >= 6\n"


def test_each_rule_and_negated_claim_compiles_once_per_call(monkeypatch):
    rules = parse_rules(GENDER_RULES + "c: x >= 0\nd: x >= 1\ne: if (x >= 1) y >= 0\nf: mean(x) >= 0\n")
    built = []
    compiled = []  # (rule name, the body or negated body a compiler was built for)

    class Counted(analyzer._Compiler):
        def __init__(self, rule_name, schema):
            super().__init__(rule_name, schema)
            built.append(self)

        def cnf(self, expr):
            if not hasattr(self, "top"):
                self.top = expr
                compiled.append((self.rule, expr))
            return super().cnf(expr)

    monkeypatch.setattr(analyzer, "_Compiler", Counted)
    analyze_ruleset(rules, SCHEMA)
    # the 5 analyzable rules and their negations, and the negated branches of the 3 conditionals
    assert len(built) == len(compiled) == len(set(compiled)) == 2 * 5 + 2 * 3
    built.clear()
    compiled.clear()
    simplify_ruleset(rules, SCHEMA)
    assert len(built) == len(compiled) == len(set(compiled))


_COEFFS = {"": 1, "2 * ": 2, "-1 * ": -1}


def _random_simple_rules(rng: random.Random) -> tuple[str, dict[str, set[Fraction]]]:
    """Rule text and, per variable, the breakpoints of its atoms."""
    breaks: dict[str, set[Fraction]] = {"x": set(), "y": set()}

    def atom():
        v = rng.choice(["x", "y"])
        coeff = rng.choice(["", "", "2 * ", "-1 * "])
        rel = rng.choice(["<", "<=", ">=", ">", "=="])
        constant = rng.randint(-2, 2)
        breaks[v].add(Fraction(constant, _COEFFS[coeff]))
        return f"{coeff}{v} {rel} {constant}"

    lines = []
    for i in range(rng.randint(2, 4)):
        if rng.random() < 0.5:
            lines.append(f"r{i}: if ({atom()}) {atom()}")
        else:
            lines.append(f"r{i}: {atom()}")
    return "\n".join(lines), breaks


def _all_true_on_grid(rules, grid: list[tuple[Fraction, Fraction]]) -> list[bool]:
    """evaluate_ruleset's verdict, per grid point, that every rule holds."""
    dataset = build_dataset(
        DataPoint(Key("t", None, str(i), var), value)
        for i, point in enumerate(grid)
        for var, value in zip(("x", "y"), point)
    )
    holds = [True] * len(grid)
    for entry in evaluate_ruleset(rules, dataset, SCHEMA).entries:
        holds[int(entry.unit)] &= entry.result is TriBool.TRUE
    return holds


#: The simplifier's action on each detector's finding, in the order it tries them.
_ACTIONS = {NONRELAXING: "nonrelaxing", NONCONSTRAINING: "nonconstraining", REDUNDANT: "drop_redundant"}


def test_simplification_soundness_randomized():
    rng = random.Random(20240613)
    checked = 0
    while checked < 200:
        text, breaks = _random_simple_rules(rng)
        rules = parse_rules(text)
        if not is_satisfiable(compile_rules(rules, SCHEMA)):
            continue
        checked += 1
        simplified, log = simplify_ruleset(rules, SCHEMA)
        # the first step is the first detector finding, by rule and then
        # nonrelaxing, nonconstraining, redundant; no step iff none
        found = {(f.rule, _ACTIONS[f.kind]) for detect in (detect_nonrelaxing, detect_nonconstraining, detect_redundant)
                 for f in detect(rules, SCHEMA)}
        first = next(((rule.name, action) for rule in rules for action in _ACTIONS.values()
                      if (rule.name, action) in found), None)
        assert ((log[0].rule, log[0].action) if log else None) == first, text
        assert ruleset_implies(rules, simplified, SCHEMA)
        assert ruleset_implies(simplified, rules, SCHEMA)
        # the same verdicts from the evaluator alone, on every cell of the
        # atoms' breakpoint grid (every atom is single-variable)
        grid = list(itertools.product(grid_points(breaks["x"]), grid_points(breaks["y"])))
        assert _all_true_on_grid(rules, grid) == _all_true_on_grid(simplified, grid), text
        # fixpoint: re-analysis finds nothing left to rewrite
        assert detect_redundant(simplified, SCHEMA) == []
        assert detect_nonrelaxing(simplified, SCHEMA) == []
        assert detect_nonconstraining(simplified, SCHEMA) == []


def test_random_mix_output_is_pinned():
    # analyze_scaling.py's finding and simplify digests at 20 rules, as an earlier
    # analyzer printed them: a faster search must give the same output
    pinned = {
        1: ("805e1bc2a9dc32e2", "c0b8bd903f5796a4"),
        2: ("e51ade94905a649a", "57c8b0d61c5b0827"),
        3: ("0a3fa90b5be75458", "81ca6adce444faca"),
        4: ("4a66239b5a25ef24", "4be3e999ce364bf4"),
        5: ("dd2fcdb35bfee7f2", "43f79aad036837de"),
    }
    # and at 40 rules, where the search splits many more categorical cases
    pinned_40 = {
        1: ("53fea39fa790ef66", "b5071c852f00d927"),
        7: ("c2d30b7078ab53a8", "37368fb3cccff7ea"),
        10: ("0733cede716f348b", "91e127f00495b835"),
    }
    # and the numeric mix at 20 rules, whose conditions are linear atoms
    pinned_numeric = {
        1: ("ca6200bbb94a4ce4", "d2566875f67dba7a"),
        7: ("4ecbe708a1c178d3", "0f550a75f6dd86fb"),
        10: ("bd0f6f20bd281776", "cc6140ef658a7ace"),
    }
    # and the numeric mix at 30 rules, where implied bounds project many leaves
    pinned_numeric_30 = {
        3: ("5e33064a564fe7f7", "5bb1a0b298ffa8b1"),
        5: ("b7810e5b00ff3a72", "dfaae466ffb38932"),
    }
    # and the balance mix at 20 rules, whose equality atoms give two rows each
    pinned_balance = {
        3: ("a616482faa4d225a", "f3c5834629255473"),
        8: ("f6095a3288f152e5", "b07d2e7b14d0e506"),
    }
    path = Path(__file__).resolve().parent.parent / "scripts" / "analyze_scaling.py"
    spec = importlib.util.spec_from_file_location("analyze_scaling", path)
    scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaling)
    schema = parse_schema(scaling.SCHEMA)
    cases = [(20, seed, "categorical", digests) for seed, digests in pinned.items()]
    cases += [(40, seed, "categorical", digests) for seed, digests in pinned_40.items()]
    cases += [(20, seed, "numeric", digests) for seed, digests in pinned_numeric.items()]
    cases += [(30, seed, "numeric", digests) for seed, digests in pinned_numeric_30.items()]
    cases += [(20, seed, "balance", digests) for seed, digests in pinned_balance.items()]
    for count, seed, mix, digests in cases:
        rules = parse_rules(scaling.rule_text(count, seed, mix))
        findings, unsupported = analyze_ruleset(rules, schema)
        simplified, log = simplify_ruleset(rules, schema)
        assert (scaling.digest(findings, unsupported),
                scaling.digest(format_ruleset(simplified), log)) == digests, (count, seed, mix)
