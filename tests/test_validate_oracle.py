"""validate's verdicts as the oracle for lint, analyze and simplify.

The long run of the same check is ``scripts/oracle_stress.py``.
"""

import random

import pytest
from helpers import ORACLE_RECORDS, check_analysis_against_validate, oracle_verdicts, random_oracle_ruleset

from validus.analyzer import INFEASIBLE, analyze_ruleset, simplify_ruleset
from validus.csvio import dataset_from_csv
from validus.evaluator import evaluate_ruleset
from validus.rules import parse_rules
from validus.schema import parse_schema
from validus.tribool import TriBool


def test_analysis_claims_hold_for_what_validate_checks():
    rng = random.Random(4)
    checked: dict[str, int] = {}
    for _ in range(100):
        for kind, count in check_analysis_against_validate(random_oracle_ruleset(rng)).items():
            checked[kind] = checked.get(kind, 0) + count
    # every kind of claim was put to the oracle at least once
    assert set(checked) == {"infeasible", "partial_infeasibility", "fixed_value", "range_restriction",
                            "redundant", "tautology", "contradiction", "nonrelaxing_clause",
                            "nonconstraining_clause", "simplify"}, checked


def test_the_oracle_table_holds_every_in_domain_record_and_some_outside():
    domain = parse_rules('domain: x >= 0 and x <= 4 and is_integer(y) and z <= 4 and in_set(c, {"a", "b", "d"})')
    verdicts = oracle_verdicts(domain)["domain"]
    assert len(ORACLE_RECORDS) == 375 and len(verdicts) == 375 + 7
    assert [unit for unit, v in verdicts.items() if v is not TriBool.TRUE] == [f"out{i}" for i in range(7)]


AGE = parse_schema("person.age : integer [0, 120]\n")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: simplify drops rules that only the schema's "
                                       "domain implies, and validate does not check the domain")
def test_item_5_simplify_keeps_validate_totals_outside_the_domain():
    rules = parse_rules("nonneg: age >= 0\nupper: age <= 200\n")
    dataset = dataset_from_csv({"person": "id,age\n1,-5\n2,30\n3,abc\n4,\n"})
    simplified, _ = simplify_ruleset(rules, AGE)
    before = evaluate_ruleset(rules, dataset, AGE).counts()
    assert (before["false"], before["na"]) == (1, 4)
    after = evaluate_ruleset(simplified, dataset, AGE).counts()
    assert (after["false"], after["na"]) == (1, 4)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: the analyzer decides over the rational "
                                       "relaxation, where 2 * age == 1 has the solution 0.5")
def test_item_6_an_integer_infeasible_rule_is_reported_infeasible():
    rules = parse_rules("half: 2 * age == 1\n")
    records = "".join(f"{age},{age}\n" for age in range(121))
    report = evaluate_ruleset(rules, dataset_from_csv({"person": "id,age\n" + records}), AGE)
    assert report.counts()["true"] == 0
    findings, _ = analyze_ruleset(rules, AGE)
    assert any(f.kind == INFEASIBLE for f in findings)
