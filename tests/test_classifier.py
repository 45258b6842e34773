"""Rule classification into the ten admissible signatures."""

import random

import pytest

from helpers import random_rule
from validus.classifier import (
    ADMISSIBLE_SIGNATURES,
    EXCLUDED_SIGNATURES,
    RuleSignature,
    classify_rule,
)
from validus.rules import Rule, format_rule, negate_expr, parse_rule
from validus.schema import parse_schema

GOLDEN = [
    ("r: age >= 0", "ssss", 0),
    ('r: if (job == "employed") age >= 15', "sssm", 1),
    ("r: mean(age) >= 5", "ssms", 1),
    ("r: abs(price - price@1) <= 0.1 * price@1", "smss", 1),
    ("r: abs(mean(price) - mean(price@1)) <= 0.1 * mean(price@1)", "smms", 2),
    ("r: mean(trade.exports) == mean(partner.imports)", "msmm", 3),
]


@pytest.mark.parametrize("text,signature,level", GOLDEN)
def test_golden_signatures(text, signature, level):
    sig = classify_rule(parse_rule(text))
    assert str(sig) == signature
    assert sig.level == level


def test_level_counts_m_slots():
    assert RuleSignature("s", "s", "s", "s").level == 0
    assert RuleSignature("s", "m", "m", "s").level == 2
    assert RuleSignature("m", "m", "m", "m").level == 4


def test_excluded_signatures_are_unconstructible():
    for text in EXCLUDED_SIGNATURES:
        with pytest.raises(ValueError):
            RuleSignature(*text)
    for text in ADMISSIBLE_SIGNATURES:
        RuleSignature(*text)


def test_admissible_set_is_exactly_ten():
    assert len(ADMISSIBLE_SIGNATURES) == 10
    assert len(set(ADMISSIBLE_SIGNATURES) | set(EXCLUDED_SIGNATURES)) == 16


def test_lagged_variable_is_one_variable():
    # a lag reaches another occasion of the same variable
    sig = classify_rule(parse_rule("r: price - price@1 >= 0"))
    assert str(sig) == "smss"


def test_qualified_single_table_stays_single_type():
    assert str(classify_rule(parse_rule("r: trade.x >= 0"))) == "ssss"
    assert str(classify_rule(parse_rule("r: x >= 0"))) == "ssss"


def test_cross_table_forces_units_and_variables():
    sig = classify_rule(parse_rule("r: mean(trade.x) == mean(partner.x)"))
    assert sig.type_span == "m" and sig.unit_span == "m" and sig.variable_span == "m"


def test_schema_resolves_names_before_the_fold():
    # x is declared in table a only, so q reads two unit types, and
    # r's unqualified y is b.y, not the a.y the fold would make it
    schema = parse_schema("a.x : numeric\nb.y : numeric\n")
    q = parse_rule("q: x >= mean(b.y)")
    r = parse_rule("r: a.x >= 0 and y <= 1")
    assert str(classify_rule(q, schema)) == "msmm" and classify_rule(q, schema).level == 3
    assert str(classify_rule(r, schema)) == "msmm"
    assert str(classify_rule(q)) == "ssmm"
    assert str(classify_rule(r)) == "sssm"


def test_generated_corpus_stays_admissible():
    # coverage generator: every syntactic feature, 1000 rules, only the
    # ten admissible signatures may appear
    rng = random.Random(20240811)
    seen = set()
    for i in range(1000):
        rule = random_rule(rng, name=f"g{i}")
        sig = classify_rule(rule)
        assert str(sig) in ADMISSIBLE_SIGNATURES
        assert str(sig) not in EXCLUDED_SIGNATURES
        assert sig.level == str(sig).count("m")
        seen.add(str(sig))
    # the generator must actually exercise the space
    assert {"ssss", "sssm", "ssms", "smss", "msmm", "mmmm"} <= seen


def test_classification_invariant_under_round_trip_and_negation():
    rng = random.Random(7)
    for i in range(200):
        rule = random_rule(rng, name=f"g{i}")
        sig = classify_rule(rule)
        assert classify_rule(parse_rule(format_rule(rule))) == sig
        assert classify_rule(Rule(rule.name, negate_expr(rule.body))) == sig


def test_each_signature_is_one_shared_object():
    rng = random.Random(20240812)
    shared = {}
    for i in range(500):
        sig = classify_rule(random_rule(rng, name=f"g{i}"))
        assert sig is shared.setdefault(sig.text, sig)
        assert sig == RuleSignature(*sig.text) and sig.level == sig.text.count("m")
    assert len(shared) >= 6
