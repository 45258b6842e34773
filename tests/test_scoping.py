"""One scoping per rule: the evaluator, the analyzer's fragment check and
the classifier all read ``rule_scope``, and each agrees with the walk
it made on its own before (kept in helpers.py) or with a plain-Python
oracle."""

import random

import pytest

from helpers import (
    random_rule,
    reference_check_analyzable,
    reference_scoping,
    reference_signature,
    schema_signature_oracle,
)
from validus.analyzer import _check_analyzable
from validus.classifier import classify_rule
from validus.errors import ValidusError
from validus.evaluator import EvalOptions, _Evaluator
from validus.model import build_dataset
from validus.rules import parse_rule, rule_scope
from validus.schema import parse_schema

# three tables; beta is declared in two, so an unqualified beta resolves
# nowhere, and random_rule also writes partner.alpha and partner.gamma,
# which no table declares
SCHEMA = parse_schema(
    "trade.alpha : numeric\n"
    "trade.beta : numeric\n"
    "trade.gamma : numeric\n"
    "partner.beta : numeric\n"
    "firm.delta : numeric\n"
)

HAND_WRITTEN = [
    "alpha >= 0",
    "alpha >= delta",
    "beta >= 0",
    "partner.gamma >= 0",
    "zz >= 0 and alpha >= delta",
    "alpha >= delta and zz >= 0",
    "alpha >= 0 and zz <= 1",
    "trade.alpha >= 0 and delta <= 1",
    "alpha >= mean(partner.beta)",
    "alpha >= mean(gamma) + sum(firm.delta)",
    "mean(alpha) >= mean(delta)",
    "mean(alpha + delta) >= 0",
    "mean(alpha + mean(delta)) >= 0",
    "mean(alpha - mean(alpha)) >= mean(delta - mean(delta))",
    "mean(gamma + delta) >= 0 and alpha >= delta",
    "count(1) >= 0",
    "alpha >= count(1)",
    "mean(count(1)) >= 0",
    "mean(alpha * count(1)) >= 0",
    "count(1) >= mean(alpha + delta)",
    "mean(alpha + delta) >= count(1)",
    "mean(alpha + mean(gamma + delta)) >= 0",
    "alpha - alpha@1 >= 0",
    "alpha@2 >= mean(alpha@1)",
    "if (gamma > 0) delta@1 >= 0",
    "in_set(firm.delta, {1, 2}) or is_na(alpha)",
    "trade.beta >= partner.beta",
    "max(trade.beta) <= min(partner.beta)",
    "partner.beta >= alpha",
    "1 >= 0",
]


# the rules whose signature the schema changes; in each, the schema
# resolves some name to another table than the fold does
CHANGED_BY_SCHEMA = [
    "h1", "h4", "h5", "h7", "h8", "h9", "h10", "h11", "h12", "h13", "h14", "h19", "h20", "h21", "h24",
    "h25", "h28", "g12", "g72", "g91", "g109", "g118", "g129", "g298", "g309", "g326", "g335", "g411",
    "g438", "g461", "g476", "g485", "g497", "g514", "g529", "g534", "g579",
]


def corpus():
    rng = random.Random(962)
    return [parse_rule(f"h{i}: {text}") for i, text in enumerate(HAND_WRITTEN)] + [random_rule(rng, name=f"g{i}") for i in range(600)]


def outcome(check, *args):
    try:
        return "ok", check(*args)
    except ValidusError as exc:
        return type(exc).__name__, str(exc)


class _RecordingEvaluator(_Evaluator):
    """Records the group table each aggregate is compiled against."""

    def __init__(self):
        super().__init__(build_dataset([]), SCHEMA, EvalOptions())
        self.groups = {}

    def _compile_aggregate(self, expr, tables):
        self.groups[id(expr)] = tables[id(expr)]
        return super()._compile_aggregate(expr, tables)


def evaluator_scoping(rule):
    evaluator = _RecordingEvaluator()
    label, scopes, _ = evaluator.plan(rule)
    # over an empty dataset a record rule has no scopes, and a rule
    # evaluated once per occasion has the one scope (ALL, ALL)
    return (label if scopes == () else None), evaluator.groups


def kinds(results, phrases):
    """Which of ``phrases`` (or "ok") each outcome in ``results`` shows."""
    return {next((p for p in phrases if p in str(result)), "ok") for result in results}


def test_evaluator_scopes_as_its_own_walk_did():
    expected = []
    for rule in corpus():
        expected.append(outcome(reference_scoping, rule, SCHEMA))
        assert outcome(evaluator_scoping, rule) == expected[-1], rule
    # the corpus reaches every outcome, so the order of the checks is tested
    assert kinds(expected, ("unknown variable", "records of several tables", "aggregate spans several tables",
                            "group cannot be determined")) == {
        "ok", "unknown variable", "records of several tables", "aggregate spans several tables",
        "group cannot be determined"}


def test_analyzer_fragment_check_as_its_own_walk_did():
    expected = []
    for rule in corpus():
        expected.append(outcome(reference_check_analyzable, rule, SCHEMA))
        assert outcome(_check_analyzable, rule, SCHEMA) == expected[-1], rule
    assert kinds(expected, ("aggregates", "lagged", "cross-table")) == {"ok", "aggregates", "lagged", "cross-table"}


def test_classifier_without_schema_reads_the_syntax_as_before():
    for rule in corpus():
        assert str(classify_rule(rule)) == reference_signature(rule), rule


def test_classifier_with_schema_matches_the_oracle():
    changed = []
    for rule in corpus():
        signature = str(classify_rule(rule, SCHEMA))
        assert signature == schema_signature_oracle(rule, SCHEMA), rule
        if signature != reference_signature(rule):
            changed.append(rule)
    # a schema changes a signature only where it resolves some name to
    # another table than the fold does
    for rule in changed:
        scope = rule_scope(rule, SCHEMA)
        assert any(table is not None and table != (ref.table or scope.fold) for ref, table in scope.refs), rule
    assert [rule.name for rule in changed] == CHANGED_BY_SCHEMA


@pytest.mark.parametrize("text, tables, groups", [
    ("r: x >= mean(b.y)", {"a"}, ["b"]),
    ("r: a.x >= 0 and y <= 1", {"a", "b"}, []),
    ("r: mean(x + y) >= 0", set(), [None]),
    ("r: mean(x - mean(b.y)) >= count(1)", set(), ["a", "b", None]),
    ("r: zz >= mean(x)", set(), ["a"]),
])
def test_rule_scope_record_tables_and_groups(text, tables, groups):
    scope = rule_scope(parse_rule(text), parse_schema("a.x : numeric\nb.y : numeric\n"))
    assert scope.record_tables == tables
    assert [group for _, _, group in scope.aggregates] == groups
