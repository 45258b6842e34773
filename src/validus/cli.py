"""Batch command line: validate data, classify, lint, analyze, simplify.

Exit codes: 0 success, 1 validation failures present, 2 input or parse
error, 3 infeasible rule set.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Optional

from .errors import UnevaluableRulesError, ValidusError
from .tribool import TriBool

# each command imports the modules it runs when it runs, so a process
# compiles only those: validate never loads the analyzer, nor analyze
# the evaluator
if TYPE_CHECKING:
    from .analyzer import Finding
    from .evaluator import RuleVerdicts
    from .rules import RuleSet
    from .schema import Schema

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_INPUT_ERROR = 2
EXIT_INFEASIBLE = 3

_T, _F, _N = TriBool.TRUE, TriBool.FALSE, TriBool.NA


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="validus",
        description="Validate tabular data against a rule file, and analyze the rules themselves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("validate", "classify", "lint", "analyze", "simplify"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--rules", required=True, metavar="FILE")
        cmd.add_argument("--schema", required=name != "classify", metavar="FILE")
        if name != "simplify":
            cmd.add_argument("--format", choices=("json", "csv"), default="json")
        if name == "validate":
            cmd.add_argument("--data", action="append", default=[], metavar="TABLE=FILE")
            cmd.add_argument("--na-policy", choices=("propagate", "ignore"), default="propagate")
            cmd.add_argument("--strict-na", action="store_true")
            cmd.add_argument("--unit-column", default="id")
            cmd.add_argument("--time-column", default="time")
        cmd.add_argument("-o", "--output", metavar="FILE")
    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ValidusError(f"{path} is not UTF-8 text: {exc.reason}") from None


def _load_schema(args) -> Optional[Schema]:
    from .schema import parse_schema

    return parse_schema(_read(args.schema)) if args.schema else None


def _load_data(args, schema: Schema):
    from .csvio import dataset_from_csv

    tables: dict[str, str] = {}
    for spec in args.data:
        if "=" not in spec:
            raise ValidusError(f"--data expects TABLE=FILE, got {spec!r}")
        table, path = spec.split("=", 1)
        if table not in schema.tables:
            raise ValidusError(f"--data table {table!r} is not declared in the schema")
        tables[table] = _read(path)
    return dataset_from_csv(tables, args.unit_column, args.time_column or None)


def _rule_records(rules: RuleSet, schema: Optional[Schema]) -> list[tuple[str, str, str, int]]:
    from .classifier import classify_rule
    from .rules import format_rule

    records = []
    for rule in rules:
        sig = classify_rule(rule, schema)
        records.append((rule.name, format_rule(rule), sig.text, sig.level))
    return records


def _finding_record(finding: Finding) -> dict:
    record = {"kind": finding.kind}
    for attr in ("rule", "variable", "value", "low", "high"):
        value = getattr(finding, attr)
        if value is not None:
            record[attr] = value
    record["evidence"] = finding.evidence
    return record


def _unsupported_records(unsupported: list[tuple[str, str]]) -> list[dict]:
    return [{"rule": name, "reason": reason} for name, reason in unsupported]


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# the report, a rule record, and an entry's three pieces as
# json.dumps(payload, indent=2) lays them out; an entry's head holds its
# rule and table, its middle the unit and time, its tail the result
_REPORT_JSON = '{\n  "rules": %s,\n  "entries": %s,\n  "findings": %s,\n  "summary": %s\n}\n'
_RULE_JSON = ('    {\n      "name": %s,\n      "text": %s,\n      "signature": %s,\n'
              '      "level": %d\n    }')
_ENTRY_HEAD_JSON = '    {\n      "rule": %s,\n      "table": %s,\n      "unit": '
_ENTRY_MIDDLE_JSON = '%s,\n      "time": %s,\n      "result": '
_ENTRY_TAIL_JSON = '%s\n    }'
_FINDING_FIELDS = ("kind", "rule", "variable", "value", "low", "high", "evidence")


def _json_entries(blocks: list[RuleVerdicts]) -> list[str]:
    """The JSON text of each non-empty block's entries.  Every piece is
    quoted once: a head per rule, a middle per scope of each distinct
    scope tuple (the record rules of one table share theirs), a tail per
    result value."""
    quote = encode_basestring_ascii
    t, f, n = (_ENTRY_TAIL_JSON % quote(str(value)) for value in (_T, _F, _N))
    middles: dict[int, list[str]] = {}
    texts = []
    for rule, table, scopes, results in blocks:
        if not results:
            continue
        mids = middles.get(id(scopes))
        if mids is None:
            mids = middles[id(scopes)] = [
                _ENTRY_MIDDLE_JSON % (quote("ALL" if unit is None else unit), quote("ALL" if time is None else time))
                for unit, time in scopes]
        head = _ENTRY_HEAD_JSON % (quote(rule), quote(table))
        texts.append(head + (",\n" + head).join(
            [mid + (t if v is _T else f if v is _F else n) for mid, v in zip(mids, results)]))
    return texts


def _json_array(items: list[str]) -> str:
    return "[\n%s\n  ]" % ",\n".join(items) if items else "[]"


def _json_report(rules: list[tuple[str, str, str, int]], blocks: list[RuleVerdicts],
                 findings: list[dict], summary: dict) -> str:
    """``json.dumps(payload, indent=2) + "\\n"`` of the report.  Rule
    records and entries are written through templates (with ``indent``
    the encoder runs in pure Python), and entries from their pieces."""
    quote = encode_basestring_ascii
    records = [_RULE_JSON % (quote(name), quote(text), quote(sig), level) for name, text, sig, level in rules]
    return _REPORT_JSON % (_json_array(records), _json_array(_json_entries(blocks)),
                           json.dumps(findings, indent=2).replace("\n", "\n  "),
                           json.dumps(summary, indent=2).replace("\n", "\n  "))


def _emit_report(args, rules: RuleSet, schema: Optional[Schema], blocks: list[RuleVerdicts],
                 findings: list[dict], summary: dict) -> None:
    """Write the report.  As CSV, each command writes its own table, with
    its header even when the table is empty: validate its entries, lint
    and analyze their findings, classify its rules.  Only JSON holds each
    rule's text, and only JSON and classify's table its signature, so
    the rules are formatted and classified only for those."""
    if args.format == "json":
        _emit(args, _json_report(_rule_records(rules, schema), blocks, findings, summary))
        return
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if args.command == "validate":
        writer.writerow(("rule", "table", "unit", "time", "result"))
        writer.writerows((rule, table, "ALL" if unit is None else unit, "ALL" if time is None else time, str(result))
                         for rule, table, scopes, results in blocks for (unit, time), result in zip(scopes, results))
    elif args.command in ("lint", "analyze"):
        writer.writerow(_FINDING_FIELDS)
        writer.writerows([f.get(k, "") for k in _FINDING_FIELDS] for f in findings)
    else:
        from .classifier import classify_rule

        writer.writerow(("name", "signature", "level"))
        for rule in rules:
            sig = classify_rule(rule, schema)
            writer.writerow((rule.name, sig.text, sig.level))
    _emit(args, out.getvalue())


def _cmd_validate(args) -> int:
    from .evaluator import EvalOptions, evaluate_ruleset
    from .rules import parse_rules

    schema = _load_schema(args)
    rules = parse_rules(_read(args.rules))
    if not args.data:
        print("validate needs at least one --data TABLE=FILE", file=sys.stderr)
        return EXIT_INPUT_ERROR
    dataset = _load_data(args, schema)
    options = EvalOptions(na_policy=args.na_policy)
    report = evaluate_ruleset(rules, dataset, schema, options)
    counts = report.counts()
    summary = {"per_rule": report.summary, "totals": counts, "strict_na": args.strict_na}
    _emit_report(args, rules, schema, report.blocks, [], summary)
    if counts["false"] > 0 or (args.strict_na and counts["na"] > 0):
        return EXIT_FAILURES
    if counts["na"] > 0:
        print(f"warning: {counts['na']} entries could not be decided (NA)", file=sys.stderr)
    return EXIT_OK


def _cmd_classify(args) -> int:
    from .rules import parse_rules

    schema = _load_schema(args)
    rules = parse_rules(_read(args.rules))
    _emit_report(args, rules, schema, [], [], {})
    return EXIT_OK


def _cmd_lint(args) -> int:
    from .analyzer import lint_ruleset
    from .rules import parse_rules

    schema = _load_schema(args)
    rules = parse_rules(_read(args.rules))
    findings, _, unsupported = lint_ruleset(rules, schema)
    records = [_finding_record(f) for f in findings]
    summary = {"finding_count": len(records), "unsupported": _unsupported_records(unsupported)}
    _emit_report(args, rules, schema, [], records, summary)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    from .analyzer import INFEASIBLE, analyze_ruleset
    from .rules import parse_rules

    schema = _load_schema(args)
    rules = parse_rules(_read(args.rules))
    findings, unsupported = analyze_ruleset(rules, schema)
    records = [_finding_record(f) for f in findings]
    infeasible = any(f.kind == INFEASIBLE for f in findings)
    summary = {
        "satisfiable": not infeasible,
        "finding_count": len(records),
        "unsupported": _unsupported_records(unsupported),
    }
    _emit_report(args, rules, schema, [], records, summary)
    return EXIT_INFEASIBLE if infeasible else EXIT_OK


def _cmd_simplify(args) -> int:
    from .analyzer import simplify_ruleset
    from .rules import format_ruleset, parse_rules

    schema = _load_schema(args)
    rules = parse_rules(_read(args.rules))
    simplified, log = simplify_ruleset(rules, schema)
    if any(step.action == "infeasible" for step in log):
        print("rule set is infeasible; nothing to simplify", file=sys.stderr)
        return EXIT_INFEASIBLE
    for step in log:
        if step.after is None:
            print(f"simplify: {step.action}: dropped {step.before!r}", file=sys.stderr)
        else:
            print(f"simplify: {step.action}: {step.before!r} -> {step.after!r}", file=sys.stderr)
    _emit(args, format_ruleset(simplified))
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "lint": _cmd_lint,
    "analyze": _cmd_analyze,
    "simplify": _cmd_simplify,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:  # a directory, no permission, a full disk, ...
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ValidusError as exc:
        for error in exc.errors if isinstance(exc, UnevaluableRulesError) else [exc]:
            print(f"error: {error}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
