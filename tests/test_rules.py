"""Rule DSL: parsing, negation, span reports, canonical formatting."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    ROUND_TRIP_SCHEMA_TEXT,
    abstract_eval,
    all_assignments,
    atom_keys,
    format_outcome,
    not_,
    parse_outcome,
    random_rule,
    random_rule_file,
    random_set_rule,
    random_trade_csv,
    reference_format_escaped,
    reference_format_rule,
    reference_parse_rules,
    token_soup,
    verdicts_of,
    with_fraction_literals,
)
from validus.csvio import dataset_from_csv
from validus.errors import DuplicateRuleNameError, RuleParseError, RuleTypeError
from validus.rules import (
    Aggregate,
    Binary,
    Builtin,
    If,
    NALit,
    NumberLit,
    Rule,
    SetLit,
    TextLit,
    Unary,
    VarRef,
    format_expr,
    format_rule,
    format_ruleset,
    negate_expr,
    parse_rule,
    parse_rules,
    rule_scope,
    scoped_nodes,
    _Parser,
    _tokenize,
)
from validus.schema import parse_schema


def test_parse_simple_comparison():
    rule = parse_rule("r1: age >= 0")
    assert rule.body == Binary(">=", VarRef("age"), NumberLit(Fraction(0)))


def test_parse_conditional():
    rule = parse_rule('r2: if (job == "employed") age >= 15')
    assert rule.body == If(
        Binary("==", VarRef("job"), TextLit("employed")),
        Binary(">=", VarRef("age"), NumberLit(Fraction(15))),
    )


def test_parse_aggregate():
    rule = parse_rule("r3: mean(age) >= 5")
    assert rule.body == Binary(">=", Aggregate("mean", VarRef("age")), NumberLit(Fraction(5)))


def test_parse_lag_and_table_qualifier():
    rule = parse_rule("r: abs(price - price@1) <= 0.1 * trade.price@1")
    ref = VarRef("price", table="trade", lag=1)
    assert ref in _all_varrefs(rule.body)
    assert VarRef("price", lag=1) in _all_varrefs(rule.body)


def _all_varrefs(expr):
    found = []

    def walk(e):
        if isinstance(e, VarRef):
            found.append(e)
        elif isinstance(e, (Unary, Aggregate)):
            walk(e.operand if isinstance(e, Unary) else e.arg)
        elif isinstance(e, Binary):
            walk(e.left)
            walk(e.right)
        elif isinstance(e, If):
            walk(e.cond)
            walk(e.then)
        elif isinstance(e, Builtin):
            for a in e.args:
                walk(a)

    walk(expr)
    return found


def test_parse_in_set():
    rule = parse_rule('r: in_set(job, {"employed", "unemployed"})')
    assert rule.body == Builtin("in_set", (VarRef("job"), SetLit(("employed", "unemployed"))))


def test_logical_as_arithmetic_is_a_type_error():
    with pytest.raises(RuleTypeError):
        parse_rules('r4: age + ("a" < 3) > 0')


def test_rule_body_must_be_logical():
    with pytest.raises(RuleTypeError):
        parse_rules("r: age + 1")


def test_parse_error_location():
    with pytest.raises(RuleParseError) as err:
        parse_rules("r1: age >= 0\nr2: age >=\n")
    assert err.value.line == 3  # the missing operand is discovered at EOF
    with pytest.raises(RuleParseError) as err:
        parse_rules("r1: age >= )")
    assert err.value.line == 1


def test_duplicate_rule_names_rejected():
    with pytest.raises(DuplicateRuleNameError):
        parse_rules("r: age >= 0\nr: age <= 10\n")
    # the first name in file order that occurs twice, not the first repeat
    with pytest.raises(DuplicateRuleNameError) as err:
        parse_rules("a: age >= 0\nb: age >= 1\nb: age >= 2\na: age >= 3\n")
    assert err.value.name == "a"


def test_parse_negative_numbers_in_sets():
    rule = parse_rule('s: in_set(x, {-1, 0, 1, - 2.5, "a"})')
    assert rule.body == Builtin("in_set", (VarRef("x"), SetLit((
        Fraction(-1), Fraction(0), Fraction(1), Fraction(-5, 2), "a"))))
    assert format_rule(rule) == 's: in_set(x, {-1, 0, 1, -2.5, "a"})'
    assert parse_rule(format_rule(rule)) == rule
    # a "-" before anything but a number is still the same error, at the "-"
    for text in ("s: in_set(x, {-x})", 's: in_set(x, {1, -"a"})', "s: in_set(x, {--1})"):
        with pytest.raises(RuleParseError) as err:
            parse_rules(text)
        assert err.value.expected == "a number or string inside { }"
        assert text[err.value.column - 1] == "-"


def test_parser_matches_reference_on_rule_files():
    rng = random.Random(7301)
    for _ in range(20):
        text = random_rule_file(rng, 100)
        outcome = parse_outcome(parse_rules, text)
        assert isinstance(outcome, list) and len(outcome) == 100
        assert outcome == parse_outcome(reference_parse_rules, text)


def test_parser_matches_reference_on_token_soup():
    rng = random.Random(7302)
    seen = Counter()
    for _ in range(20_000):
        text = token_soup(rng)
        outcome = parse_outcome(parse_rules, text)
        assert outcome == parse_outcome(reference_parse_rules, text), text
        seen["parsed" if isinstance(outcome, list) else outcome[-1]] += 1
    assert seen["parsed"] >= 500
    for expected in ("a token, not '$'", "valid escape, not \\q", "a token, not '\"'",
                     "an integer lag after '@'", "a variable name after '.'", "an expression",
                     "')'", "a rule name", "a number or string inside { }"):
        assert seen[expected] > 0, expected


def test_lexer_kinds_follow_the_first_character():
    # \d is str.isdecimal: an Arabic-Indic digit starts a number, and
    # may follow a letter in a name, but a superscript digit starts no token
    assert parse_rule("r: \u0663 > x\u0663").body == Binary(">", NumberLit(Fraction(3)), VarRef("x\u0663"))
    assert parse_rule("r: x >= 1\u0663.\u0665").body == Binary(">=", VarRef("x"), NumberLit(Fraction(27, 2)))
    for text, column, bad in (("r: x > \u00b2", 8, "\u00b2"), ("r: x\v> 1", 5, "\v"), ('r: x == "', 9, '"'),
                              ("r: x = 1", 6, "="), ("r: x ! 1", 6, "!"), ("r: x\n  $", 3, "$")):
        with pytest.raises(RuleParseError) as err:
            parse_rules(text)
        line = 2 if "\n" in text else 1
        assert (err.value.line, err.value.column, err.value.expected) == (line, column, f"a token, not {bad!r}")
        assert parse_outcome(reference_parse_rules, text) == ("RuleParseError", line, column, f"a token, not {bad!r}")


def test_formatter_matches_reference():
    rng = random.Random(7303)
    rules = []
    for i in range(1500):
        rule = random_rule(rng, name=f"g{i}")
        rules += [rule, with_fraction_literals(rule, rng), random_set_rule(rng, name=f"s{i}")]
    rules += parse_rules(random_rule_file(rng, 300)).rules  # escaped strings in sets and comparisons
    kinds = Counter()
    for rule in rules:
        outcome = format_outcome(format_rule, rule)
        assert outcome == format_outcome(reference_format_escaped, rule)
        kinds["text" if isinstance(outcome, str) else "error"] += 1
        kinds["escaped"] += isinstance(outcome, str) and outcome != reference_format_rule(rule)
        kinds["carriage return"] += isinstance(outcome, str) and "\\r" in outcome
    assert kinds["text"] > 4000 and kinds["error"] > 100 and kinds["escaped"] > 100 and kinds["carriage return"] > 50


def test_text_literal_newline_and_tab_are_written_as_escapes():
    text = 's: name == "a\\nb\\tc" or in_set(kind, {"d\\ne", "q\\"\\\\"})'
    rule = parse_rule(text)
    assert rule.body.left.right == TextLit("a\nb\tc")
    assert format_rule(rule) == text
    assert parse_rule(format_rule(rule)).body == rule.body


def test_text_literal_carriage_return_is_written_as_an_escape():
    # a raw carriage return in a rule file reads back as a line end
    rule = parse_rule('s: x == "a\rb"')
    assert rule.body.right == TextLit("a\rb")
    assert format_rule(rule) == 's: x == "a\\rb"'
    assert parse_rule(format_rule(rule)) == rule
    assert parse_rules(format_rule(rule) + "\r\n").rules[0] == rule


def test_comments_and_blank_lines():
    rules = parse_rules("# header\n\nr1: age >= 0  # trailing\n\n# done\n")
    assert rules.names() == ["r1"]


def test_multiple_rules_and_order():
    rules = parse_rules("b: age >= 0\na: age <= 120\n")
    assert rules.names() == ["b", "a"]


# --- negation ---------------------------------------------------------------

def test_negate_flips_comparison():
    rule = parse_rule("r: x >= 0")
    assert negate_expr(rule.body) == parse_rule("r: x < 0").body


def test_negate_conditional():
    rule = parse_rule("r: if (x >= 0) y >= 0")
    assert negate_expr(rule.body) == parse_rule("r: x >= 0 and y < 0").body


def test_negate_builtin_wraps():
    rule = parse_rule("r: is_na(x)")
    assert negate_expr(rule.body) == Unary("not", rule.body)
    assert negate_expr(negate_expr(rule.body)) == rule.body


NEGATE_CORPUS = [
    "r: x >= 0",
    "r: x > 0 and y <= 1",
    "r: x == 1 or y != 2",
    "r: if (x >= 0) y >= 0",
    "r: if (x > 0 or z < 1) not y == 2",
    "r: not (x < 1 and y < 1)",
    "r: is_na(x) or x > 3",
    'r: in_set(job, {"a", "b"}) and x <= 0',
]


@pytest.mark.parametrize("text", NEGATE_CORPUS)
def test_negation_truth_tables(text):
    # oracle: enumerate every three-valued assignment of the atoms
    rule = parse_rule(text)
    negated = negate_expr(rule.body)
    keys = atom_keys(rule.body)
    assert atom_keys(negated) == keys or set(atom_keys(negated)) <= set(keys)
    for assignment in all_assignments(keys):
        assert abstract_eval(negated, assignment) is not_(abstract_eval(rule.body, assignment))


@pytest.mark.parametrize("text", NEGATE_CORPUS)
def test_double_negation_is_equivalent(text):
    rule = parse_rule(text)
    twice = negate_expr(negate_expr(rule.body))
    keys = atom_keys(rule.body)
    for assignment in all_assignments(keys):
        assert abstract_eval(twice, assignment) is abstract_eval(rule.body, assignment)


# --- span report --------------------------------------------------------------

def test_scoped_nodes_pair_each_node_with_its_innermost_aggregate():
    rule = parse_rule("r: x <= sum(a.y - mean(z))")
    outer = rule.body.right
    inner = outer.arg.right
    assert scoped_nodes(rule.body) == [
        (rule.body, None), (rule.body.left, None), (outer, None),
        (outer.arg, outer), (outer.arg.left, outer), (inner, outer), (inner.arg, inner),
    ]


def _variables(span):
    return frozenset((table, ref.variable) for ref, table in span.refs)


def _tables(span):
    return frozenset(table for ref, table in span.refs)


def test_span_plain_rule():
    span = rule_scope(parse_rule("r: age >= 0"))
    assert _tables(span) == frozenset({None})
    assert _variables(span) == frozenset({(None, "age")})
    assert not span.has_aggregate and span.max_lag == 0


def test_span_two_variables():
    span = rule_scope(parse_rule('r: if (job == "employed") age >= 15'))
    assert _variables(span) == frozenset({(None, "job"), (None, "age")})


def test_span_lag():
    span = rule_scope(parse_rule("r: abs(price - price@1) <= 0.1 * price@1"))
    assert span.max_lag == 1 and not span.has_aggregate


def test_span_aggregate_and_tables():
    span = rule_scope(parse_rule("r: mean(trade.exports) == mean(partner.imports)"))
    assert _tables(span) == frozenset({"trade", "partner"})
    assert span.has_aggregate
    assert [(own, group) for _, own, group in span.aggregates] == [({"trade"}, "trade"), ({"partner"}, "partner")]


def test_span_qualifier_folds_into_single_table():
    span = rule_scope(parse_rule("r: trade.x >= 0 and y <= 1"))
    assert _tables(span) == frozenset({"trade"})
    assert _variables(span) == frozenset({("trade", "x"), ("trade", "y")})


# --- formatting ---------------------------------------------------------------

GOLDEN_RULES = [
    "r1: age >= 0",
    'r2: if (job == "employed") age >= 15',
    "r3: mean(age) >= 5",
    "r4: x > 0 or y > 0 and z > 1",
    "r5: not (x > 0 or y > 0)",
    "r6: abs(price - price@1) <= 0.1 * price@1",
    'r7: in_set(job, {"employed", "unemployed"})',
    "r8: x - (y + 1) == x - y - 1",
    "r9: if (is_na(x)) y == 0",
    "r10: count(trade.exports) >= 2",
]


@pytest.mark.parametrize("text", GOLDEN_RULES)
def test_round_trip_golden(text):
    rule = parse_rule(text)
    assert parse_rule(format_rule(rule)) == rule


def test_precedence_formats_explicitly():
    rule = parse_rule("p: x > 0 or y > 0 and z > 1")
    assert rule.body == Binary(
        "or",
        Binary(">", VarRef("x"), NumberLit(Fraction(0))),
        Binary("and", Binary(">", VarRef("y"), NumberLit(Fraction(0))),
               Binary(">", VarRef("z"), NumberLit(Fraction(1)))),
    )
    other = parse_rule("p: (x > 0 or y > 0) and z > 1")
    assert format_rule(other) == "p: (x > 0 or y > 0) and z > 1"
    assert parse_rule(format_rule(other)) == other


@pytest.mark.parametrize("text", ["(x > 1) < 2", "(x == 1) == (y == 2)", "not (x > 1) == 2"])
def test_a_comparison_inside_a_comparison_keeps_its_parentheses(text):
    # comparisons do not chain, so the text without them does not parse; these
    # bodies fail the type check, so they are parsed without it
    def untyped(source):
        return _Parser(_tokenize(f"r: {source}")).ruleset()[0].body

    body = untyped(text)
    assert format_expr(body) == text
    assert untyped(format_expr(body)) == body


@pytest.mark.parametrize("text, message", [
    ("r: abs(x, y) >= 0", "parse error at 1:14: expected one argument to abs"),
    ("r: is_na(x, y)", "parse error at 1:15: expected one argument to is_na"),
    ("r: mean(x, y) > 0", "parse error at 1:15: expected one argument to mean"),
    ("r: in_set(x)", "parse error at 1:13: expected two arguments to in_set"),
    ("r: (x > 1) < 2", "rule 'r': '<' compares data values, got logical (at (x > 1) < 2)"),
    ("r: in_set(x, y)", "rule 'r': the second argument of in_set must be a literal set (at in_set(x, y))"),
])
def test_call_arity_and_operand_errors(text, message):
    with pytest.raises((RuleParseError, RuleTypeError)) as err:
        parse_rules(text)
    assert str(err.value) == message


def test_fraction_literals_keep_their_value_when_formatted():
    third = NumberLit(Fraction(1, 3))
    assert format_expr(Binary("/", VarRef("x"), third)) == "x / (1/3)"
    assert format_expr(Unary("neg", third)) == "-(1/3)"
    assert format_expr(Binary("-", VarRef("x"), NumberLit(Fraction(-1, 3)))) == "x - -1/3"
    assert format_expr(Binary("*", third, VarRef("x"))) == "1/3 * x"
    # literals with a decimal form print as before
    assert format_expr(Binary("/", VarRef("x"), NumberLit(Fraction(-1, 4)))) == "x / -0.25"


def test_format_rejects_a_set_item_without_a_decimal_form():
    rule = Rule("s", Builtin("in_set", (VarRef("x"), SetLit((Fraction(1, 2), Fraction(1, 3))))))
    with pytest.raises(ValueError, match="set item 1/3 has no finite decimal form"):
        format_rule(rule)
    # the text it would have printed does not parse back
    with pytest.raises(RuleParseError, match="parse error at 1:16"):
        parse_rule("s: in_set(x, {1/3})")
    assert "Fraction(1, 3)" in repr(rule)


def test_fraction_literals_give_the_same_verdicts_after_a_round_trip():
    rng = random.Random(7303)
    schema = parse_schema(ROUND_TRIP_SCHEMA_TEXT)
    evaluated = 0
    for i in range(300):
        rule = with_fraction_literals(random_rule(rng, name=f"g{i}"), rng)
        dataset = dataset_from_csv({"trade": random_trade_csv(rng)})
        expected = verdicts_of(rule, dataset, schema)
        assert verdicts_of(parse_rule(format_rule(rule)), dataset, schema) == expected, format_rule(rule)
        evaluated += not isinstance(expected, str)
    assert evaluated >= 100


def test_format_ruleset_is_reparseable():
    rules = parse_rules("\n".join(GOLDEN_RULES) + "\n")
    again = parse_rules(format_ruleset(rules))
    assert list(again) == list(rules)


# hypothesis strategy over type-correct logical bodies

_numbers = st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(25), Fraction(-2), Fraction(1, 2), Fraction(3, 10)]
).map(NumberLit)
_varrefs = st.builds(
    VarRef,
    variable=st.sampled_from(["x", "y", "price"]),
    table=st.sampled_from([None, None, "trade"]),
    lag=st.sampled_from([0, 0, 0, 1, 2]),
)
_arith = st.recursive(
    st.one_of(_numbers, _varrefs),
    lambda child: st.one_of(
        st.builds(Binary, op=st.sampled_from(["+", "-", "*", "/"]), left=child, right=child),
        st.builds(Unary, op=st.just("abs"), operand=child),
        st.builds(Unary, op=st.just("neg"), operand=_varrefs),
        st.builds(Aggregate, fn=st.sampled_from(["mean", "sum", "min", "max", "count"]), arg=child),
    ),
    max_leaves=5,
)
_scalar = st.one_of(
    _arith,
    st.builds(TextLit, value=st.sampled_from(["employed", "a b", 'quo"te', "back\\slash", "tab\tnew\nline",
                                             "car\rreturn"])),
    st.just(NALit()),
)
_atoms = st.one_of(
    st.builds(Binary, op=st.sampled_from(["<", "<=", "==", "!=", ">=", ">"]), left=_scalar, right=_scalar),
    st.builds(Builtin, fn=st.sampled_from(["is_number", "is_integer", "is_text", "is_na"]),
              args=st.tuples(_scalar)),
    st.builds(Builtin, fn=st.just("in_set"),
              args=st.tuples(_varrefs, st.builds(SetLit, items=st.tuples(
                  st.sampled_from(["a", "b"]), st.just(Fraction(3)))))),
)
_logical = st.recursive(
    _atoms,
    lambda child: st.one_of(
        st.builds(Binary, op=st.sampled_from(["and", "or"]), left=child, right=child),
        st.builds(Unary, op=st.just("not"), operand=child),
        st.builds(If, cond=child, then=child),
    ),
    max_leaves=6,
)
_rule_bodies = _logical.map(lambda body: Rule("g", body))


@given(_rule_bodies)
@settings(max_examples=200)
def test_round_trip_generated(rule):
    assert parse_rule(format_rule(rule)).body == rule.body


@given(_rule_bodies)
def test_span_stable_under_round_trip(rule):
    again = parse_rule(format_rule(rule))
    assert rule_scope(again) == rule_scope(rule)


@given(_rule_bodies)
def test_negate_format_parse_is_stable(rule):
    negated = Rule(rule.name, negate_expr(rule.body))
    assert parse_rule(format_rule(negated)).body == negated.body
