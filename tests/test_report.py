"""The validation report: per-rule verdict blocks, the entries built from
them, and the JSON and CSV writers against json.dumps and csv.writer."""

import random
import sys
from pathlib import Path

import pytest

import validus.evaluator as evaluator
from helpers import (
    REPORT_SCHEMA_TEXT,
    reference_reports,
    report_case,
    validate_reports,
    verdicts_of,
)
from validus.csvio import dataset_from_csv
from validus.evaluator import evaluate_ruleset
from validus.rules import parse_rules
from validus.schema import parse_schema
from validus.tribool import TriBool

SCHEMA = parse_schema(REPORT_SCHEMA_TEXT)
CASES = 150


def _report(rules_text, tables):
    rules = parse_rules(rules_text)
    return rules, evaluate_ruleset(rules, dataset_from_csv(tables), SCHEMA)


def _table(header, *rows):
    return "\n".join([header, *rows]) + "\n"


# hand-written cases, one per shape the writer must get right
NAMED_CASES = {
    "every block empty": ("a: x >= 0\nb: z >= 0\n", {"person": "id,x,c\n", "empty": "id,z\n"}),
    "empty and non-empty blocks": (
        "a: z >= 0\nb: x >= 0\nc: not is_na(z)\nd: x <= 2\n",
        {"person": _table("id,x,c", "1,5,a", "2,-1,b"), "empty": "id,z\n"}),
    "aggregates": ("m: mean(x) >= 1\nn: sum(v) <= 10\no: max(v) >= min(x)\n",
                   {"person": _table("id,x,c", "1,5,a", "2,NA,b"),
                    "trade": _table("id,time,v", "1,2020-01,3", "1,2020-02,9")}),
    "panel": ("p: v - v@1 <= 1\nq: v <= 3 * max(v)\n",
              {"trade": _table("id,time,v", "u,1,1", "u,2,5", "w,1,2", "w,10,abc")}),
    "quoted and non-ASCII cells": (
        "a: x >= 0\nb: v >= 0\n",
        {"person": 'id,x,c\n"say ""hi""",1,a\n"two\nlines",2,b\nback\\slash,-1,a\né,NA,b\n"a,b",0,a\n',
         "trade": 'id,time,v\n日本,"n\nl",1\n"q"",\\",é,2\n'}),
}


@pytest.mark.parametrize("name", NAMED_CASES)
def test_writers_match_json_dumps_and_csv_writer_on_named_cases(tmp_path, name):
    rules_text, tables = NAMED_CASES[name]
    rules, report = _report(rules_text, tables)
    assert validate_reports(tmp_path, rules_text, tables) == reference_reports(rules, SCHEMA, report)


def test_every_block_empty_writes_an_empty_entries_array(tmp_path):
    rules_text, tables = NAMED_CASES["every block empty"]
    json_text, csv_text = validate_reports(tmp_path, rules_text, tables)
    assert '\n  "entries": [],\n' in json_text
    assert csv_text == "rule,table,unit,time,result\n"


def test_writers_match_json_dumps_and_csv_writer_on_random_cases(tmp_path):
    rng = random.Random(20261018)
    seen = set()
    for case in range(CASES):
        rules_text, tables = report_case(rng)
        rules, report = _report(rules_text, tables)
        expected = reference_reports(rules, SCHEMA, report)
        got = validate_reports(tmp_path, rules_text, tables)
        assert got[0] == expected[0], f"JSON report of case {case}: {rules_text!r} {tables!r}"
        assert got[1] == expected[1], f"CSV report of case {case}: {rules_text!r} {tables!r}"
        empty = [not block.results for block in report.blocks]
        seen.add("all empty" if all(empty) else "mixed" if any(empty) else "none empty")
        entries = report.entries
        if any(e.unit is None for e in entries):
            seen.add("aggregate")
        if any(e.unit is not None and e.time is not None for e in entries):
            seen.add("panel")
        if any(ch in (e.unit or "") + (e.time or "") for e in entries for ch in '"\\\né日'):
            seen.add("quoted or non-ASCII")
    assert seen == {"all empty", "mixed", "none empty", "aggregate", "panel", "quoted or non-ASCII"}


# --- the mechanism: verdict blocks, entries built on read -----------------

def test_entries_follow_the_blocks_in_the_per_verdict_order():
    rng = random.Random(7)
    for _ in range(40):
        rules_text, tables = report_case(rng)
        rules, report = _report(rules_text, tables)
        dataset = dataset_from_csv(tables)
        # one rule at a time, in file order: the order the evaluator used
        # to append one entry per verdict
        expected = []
        for rule in rules:
            alone, _ = verdicts_of(rule, dataset, SCHEMA)
            block = next(b for b in report.blocks if b.rule == rule.name)
            expected += [(rule.name, block.table, unit, time, result) for unit, time, result in alone]
        assert report.entries == expected
        assert [b.rule for b in report.blocks] == [rule.name for rule in rules]
        for block in report.blocks:
            assert len(block.scopes) == len(block.results)


def _tally(entries):
    return {"true": sum(e.result is TriBool.TRUE for e in entries),
            "false": sum(e.result is TriBool.FALSE for e in entries),
            "na": sum(e.result is TriBool.NA for e in entries)}


def test_counts_and_summary_equal_tallies_over_entries():
    rng = random.Random(8)
    for _ in range(40):
        rules, report = _report(*report_case(rng))
        assert report.counts() == _tally(report.entries)
        assert report.summary == {rule.name: _tally([e for e in report.entries if e.rule == rule.name])
                                  for rule in rules}


def test_record_rules_of_a_table_share_one_scope_list():
    _, report = _report("a: x >= 0\nb: x <= 2\nc: mean(x) >= 0\n", {"person": _table("id,x,c", "1,1,a", "2,3,b")})
    a, b, c = report.blocks
    assert a.scopes is b.scopes
    assert c.scopes == ((None, None),)


def test_editing_a_report_leaves_the_next_evaluation_alone():
    rules_text, tables = NAMED_CASES["panel"]
    rules = parse_rules(rules_text)
    dataset = dataset_from_csv(tables)
    first = evaluate_ruleset(rules, dataset, SCHEMA)
    expected = list(first.entries)
    with pytest.raises(AttributeError):
        first.blocks[0].scopes.append(("x", "1"))
    first.entries.reverse()
    first.entries.clear()
    first.blocks.clear()
    assert evaluate_ruleset(rules, dataset, SCHEMA).entries == expected


def test_entries_are_built_once_and_counts_read_the_blocks():
    rules, report = _report(*NAMED_CASES["empty and non-empty blocks"])
    assert report.entries is report.entries
    bare = evaluator.ValidationReport(blocks=report.blocks)
    assert bare.counts() == report.counts() == _tally(report.entries)


def test_validate_builds_no_entry(tmp_path, monkeypatch):
    built = []

    class CountedEntry(evaluator.Entry):
        def __new__(cls, *fields):
            built.append(fields)
            return super().__new__(cls, *fields)

    monkeypatch.setattr(evaluator, "Entry", CountedEntry)
    rules_text, tables = NAMED_CASES["empty and non-empty blocks"]
    validate_reports(tmp_path, rules_text, tables)
    assert built == []
    # the patch does count: reading entries builds one per verdict
    _, report = _report(rules_text, tables)
    assert len(report.entries) == len(built) == 4


def test_entries_count_equals_the_traced_verdict_count(tmp_path):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    try:
        from tracer import Tracer
    finally:
        sys.path.pop(0)
    rules_text, tables = NAMED_CASES["quoted and non-ASCII cells"]
    _, report = _report(rules_text, tables)
    tracer = Tracer({})
    tracer.install()
    try:
        validate_reports(tmp_path, rules_text, tables)
    finally:
        tracer.uninstall()
    # two validate runs, one per format
    assert tracer.counts["evaluator.verdicts"] == 2 * len(report.entries) == 2 * 7
    assert tracer.missing == []


# --- the writer streams: its added memory stays far below the report's ----

@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_writer_adds_under_a_quarter_of_the_report_size(tmp_path, fmt):
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "bench"), str(root / "scripts")]
    try:
        from report_memory import validate_argv, writer_added_bytes
        from workloads import validate_records
    finally:
        del sys.path[:2]
    for name, text in validate_records(201, records=10_000).files.items():
        (tmp_path / name).write_text(text, encoding="utf-8", newline="")
    added = writer_added_bytes(validate_argv(tmp_path, fmt))
    size = (tmp_path / f"report.{fmt}").stat().st_size
    assert size > 3_000_000
    assert added < size / 4, f"the writer added {added} bytes for a {size}-byte report"
