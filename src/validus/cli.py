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
from typing import Optional

from .analyzer import INFEASIBLE, Finding, analyze_ruleset, lint_ruleset, simplify_ruleset
from .classifier import classify_rule
from .csvio import dataset_from_csv
from .errors import UnevaluableRulesError, ValidusError
from .evaluator import EvalOptions, ValidationReport, evaluate_ruleset
from .rules import RuleSet, format_rule, format_ruleset, parse_rules
from .schema import Schema, parse_schema

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_INPUT_ERROR = 2
EXIT_INFEASIBLE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="validus",
        description="Validate tabular data against a rule file, and analyze the rules themselves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_schema, needs_data in (
        ("validate", True, True),
        ("classify", False, False),
        ("lint", True, False),
        ("analyze", True, False),
        ("simplify", True, False),
    ):
        cmd = sub.add_parser(name)
        cmd.add_argument("--rules", required=True, metavar="FILE")
        cmd.add_argument("--schema", required=needs_schema, metavar="FILE")
        cmd.add_argument("--data", action="append", default=[], metavar="TABLE=FILE")
        cmd.add_argument("--na-policy", choices=("propagate", "ignore"), default="propagate")
        cmd.add_argument("--strict-na", action="store_true")
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
        cmd.add_argument("--unit-column", default="id")
        cmd.add_argument("--time-column", default="time")
        cmd.add_argument("-o", "--output", metavar="FILE")
        cmd.set_defaults(needs_data=needs_data)
    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_schema(args) -> Optional[Schema]:
    if not args.schema:
        return None
    schema = parse_schema(_read(args.schema))
    return schema.with_columns(args.unit_column, args.time_column or None)


def _load_data(args, schema: Schema):
    tables: dict[str, str] = {}
    for spec in args.data:
        if "=" not in spec:
            raise ValidusError(f"--data expects TABLE=FILE, got {spec!r}")
        table, path = spec.split("=", 1)
        if table not in schema.tables:
            raise ValidusError(f"--data table {table!r} is not declared in the schema")
        tables[table] = _read(path)
    return dataset_from_csv(tables, schema.unit_column, schema.time_column)


def _rule_records(rules: RuleSet) -> list[dict]:
    records = []
    for rule in rules:
        sig = classify_rule(rule)
        records.append({
            "name": rule.name,
            "text": format_rule(rule),
            "signature": str(sig),
            "level": sig.level,
        })
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


def _entry_rows(report: ValidationReport) -> list[tuple[str, str, str, str, str]]:
    return [
        (entry.rule, entry.table, "ALL" if entry.unit is None else entry.unit,
         "ALL" if entry.time is None else entry.time, str(entry.result))
        for entry in report.entries
    ]


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# one entry as json.dumps(payload, indent=2) lays it out, at depth 2
_ENTRY_JSON = ('    {\n      "rule": %s,\n      "table": %s,\n      "unit": %s,\n'
               '      "time": %s,\n      "result": %s\n    }')


def _json_report(payload: dict) -> str:
    """``json.dumps(payload, indent=2)``, with the flat entries, if any,
    written into a template: the indenting encoder runs in pure Python."""
    if not payload["entries"]:
        return json.dumps(payload, indent=2)
    members = []
    for key, value in payload.items():
        if key == "entries":
            quote = encode_basestring_ascii
            text = "[\n" + ",\n".join(_ENTRY_JSON % tuple(map(quote, row)) for row in value) + "\n  ]"
        else:
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        members.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(members) + "\n}"


def _emit_report(args, rules: list[dict], entries: list[tuple[str, str, str, str, str]],
                 findings: list[dict], summary: dict) -> None:
    if args.format == "json":
        payload = {"rules": rules, "entries": entries, "findings": findings, "summary": summary}
        _emit(args, _json_report(payload) + "\n")
        return
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if entries:
        writer.writerow(["rule", "table", "unit", "time", "result"])
        writer.writerows(entries)
    elif findings:
        writer.writerow(["kind", "rule", "variable", "value", "low", "high", "evidence"])
        for f in findings:
            writer.writerow([f.get(k, "") for k in ("kind", "rule", "variable", "value", "low", "high", "evidence")])
    else:
        writer.writerow(["name", "signature", "level"])
        for rule in rules:
            writer.writerow([rule["name"], rule["signature"], rule["level"]])
    _emit(args, out.getvalue())


def _cmd_validate(args) -> int:
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
    _emit_report(args, _rule_records(rules), _entry_rows(report), [], summary)
    if counts["false"] > 0 or (args.strict_na and counts["na"] > 0):
        return EXIT_FAILURES
    if counts["na"] > 0:
        print(f"warning: {counts['na']} entries could not be decided (NA)", file=sys.stderr)
    return EXIT_OK


def _cmd_classify(args) -> int:
    rules = parse_rules(_read(args.rules))
    _emit_report(args, _rule_records(rules), [], [], {})
    return EXIT_OK


def _cmd_lint(args) -> int:
    schema = _load_schema(args)
    rules = parse_rules(_read(args.rules))
    findings, _, unsupported = lint_ruleset(rules, schema)
    records = [_finding_record(f) for f in findings]
    summary = {"finding_count": len(records), "unsupported": _unsupported_records(unsupported)}
    _emit_report(args, _rule_records(rules), [], records, summary)
    return EXIT_OK


def _cmd_analyze(args) -> int:
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
    _emit_report(args, _rule_records(rules), [], records, summary)
    return EXIT_INFEASIBLE if infeasible else EXIT_OK


def _cmd_simplify(args) -> int:
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
    except ValidusError as exc:
        for error in exc.errors if isinstance(exc, UnevaluableRulesError) else [exc]:
            print(f"error: {error}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
