"""Batch command line: validate data, classify, lint, analyze, simplify.

Exit codes: 0 success, 1 validation failures present, 2 input or parse
error, 3 infeasible rule set, 141 standard output closed by its reader.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from functools import cache
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from .errors import UnevaluableRulesError, ValidusError
from .tribool import TriBool

# each command imports the modules it runs when it runs, so a process
# compiles only those: validate never loads the analyzer, nor analyze
# the evaluator
if TYPE_CHECKING:
    from .analyzer import Finding
    from .evaluator import RuleVerdicts
    from .rules import RuleScope, RuleSet
    from .schema import Schema

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_INPUT_ERROR = 2
EXIT_INFEASIBLE = 3
EXIT_CLOSED_PIPE = 128 + 13  # as a process killed by SIGPIPE

_T, _F, _N = TriBool.TRUE, TriBool.FALSE, TriBool.NA


# built on the first main call, not at import, and kept: building the
# tree costs about a millisecond, and a process may call main many times
@cache
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
            cmd.add_argument("--data", action="append", required=True, metavar="TABLE=FILE")
            cmd.add_argument("--na-policy", choices=("propagate", "ignore"), default="propagate")
            cmd.add_argument("--strict-na", action="store_true")
            cmd.add_argument("--unit-column", default="id")
            cmd.add_argument("--time-column", default="time")
        cmd.add_argument("-o", "--output", metavar="FILE")
    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ValidusError(f"{path} is not UTF-8 text: {exc.reason}") from None


def _load_data(args, schema: Schema):
    from .csvio import dataset_from_csv

    tables: dict[str, str] = {}
    for spec in args.data:
        if "=" not in spec:
            raise ValidusError(f"--data expects TABLE=FILE, got {spec!r}")
        table, path = spec.split("=", 1)
        if table not in schema.tables:
            raise ValidusError(f"--data table {table!r} is not declared in the schema")
        if table in tables:
            raise ValidusError(f"--data table {table!r} given twice")
        tables[table] = _read(path)
    return dataset_from_csv(tables, args.unit_column, args.time_column or None)


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


# entries, rule records or CSV rows per written piece: a piece of a
# report is some tens of kilobytes, however many verdicts it holds
_CHUNK = 256


def _emit(args, pieces: Iterable[str]) -> None:
    """Write ``pieces`` in order to ``-o`` or standard output, each one
    as it is made, so the whole text is never held at once.  Callers
    compute everything that can raise before this opens the output, so
    an error leaves an existing ``-o`` file as it was."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


# a rule record and an entry's three pieces as json.dumps(payload,
# indent=2) lays them out; an entry's head holds its rule and table, its
# middle the unit and time, its tail the result
_RULE_JSON = ('    {\n      "name": %s,\n      "text": %s,\n      "signature": %s,\n'
              '      "level": %d\n    }')
_ENTRY_HEAD_JSON = '    {\n      "rule": %s,\n      "table": %s,\n      "unit": '
_ENTRY_MIDDLE_JSON = '%s,\n      "time": %s,\n      "result": '
_ENTRY_TAIL_JSON = '%s\n    }'
_REPORT_TAIL_JSON = ',\n  "findings": %s,\n  "summary": %s\n}\n'
_ENTRY_FIELDS = ("rule", "table", "unit", "time", "result")
_FINDING_FIELDS = ("kind", "rule", "variable", "value", "low", "high", "evidence")


def _json_rule_records(rules: RuleSet, schema: Optional[Schema], rule_scopes: dict[str, RuleScope]) -> list[str]:
    """The JSON text of each rule's record: its name, text, signature
    and level."""
    from .classifier import classify_rule
    from .rules import format_rule

    quote = encode_basestring_ascii
    records = []
    for rule in rules:
        sig = classify_rule(rule, schema, rule_scopes.get(rule.name))
        records.append(_RULE_JSON % (quote(rule.name), quote(format_rule(rule)), quote(sig.text), sig.level))
    return records


def _json_entries(blocks: list[RuleVerdicts]) -> Iterator[str]:
    """The JSON text of the entries of the non-empty blocks, ``_CHUNK``
    entries per piece.  Every piece of an entry is quoted once: a head
    per rule, a middle per scope of each distinct scope tuple (the
    record rules of one table share theirs), a tail per result value."""
    quote = encode_basestring_ascii
    t, f, n = (_ENTRY_TAIL_JSON % quote(str(value)) for value in (_T, _F, _N))
    middles: dict[int, list[str]] = {}
    for rule, table, scopes, results in blocks:
        if not results:
            continue
        mids = middles.get(id(scopes))
        if mids is None:
            mids = middles[id(scopes)] = [
                _ENTRY_MIDDLE_JSON % (quote("ALL" if unit is None else unit), quote("ALL" if time is None else time))
                for unit, time in scopes]
        head = _ENTRY_HEAD_JSON % (quote(rule), quote(table))
        joiner = ",\n" + head
        for start in range(0, len(results), _CHUNK):
            stop = start + _CHUNK
            yield head + joiner.join([mid + (t if v is _T else f if v is _F else n)
                                      for mid, v in zip(mids[start:stop], results[start:stop])])


def _json_array(pieces: Iterable[str]) -> Iterator[str]:
    """The array of one member of the report's object around ``pieces``,
    each one or more items joined by ``",\\n"``."""
    opener = "[\n"
    for piece in pieces:
        yield opener
        yield piece
        opener = ",\n"
    yield "[]" if opener == "[\n" else "\n  ]"


def _json_report(records: list[str], blocks: list[RuleVerdicts], tail: str) -> Iterator[str]:
    """``json.dumps(payload, indent=2) + "\\n"`` of the report, in
    pieces, from the rule records, the blocks and the findings and
    summary text that follows the entries.  Rule records and entries are
    written through templates (with ``indent`` the encoder runs in pure
    Python), and entries from their pieces."""
    yield '{\n  "rules": '
    yield from _json_array(",\n".join(records[start:start + _CHUNK]) for start in range(0, len(records), _CHUNK))
    yield ',\n  "entries": '
    yield from _json_array(_json_entries(blocks))
    yield tail


def _csv_table(header: tuple[str, ...], rows: Iterable[Iterable]) -> Iterator[str]:
    """The CSV text of ``header`` and ``rows`` through ``csv.writer``,
    ``_CHUNK`` rows per piece."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    rows = iter(rows)
    while True:
        writer.writerows(islice(rows, _CHUNK))
        piece = out.getvalue()
        if not piece:
            return
        yield piece
        out.seek(0)
        out.truncate()


def _emit_report(args, rules: RuleSet, schema: Optional[Schema], blocks: list[RuleVerdicts],
                 findings: list[dict], summary: dict, rule_scopes: Optional[dict[str, RuleScope]] = None) -> None:
    """Write the report as it is generated.  As CSV, each command writes
    its own table, with its header even when the table is empty:
    validate its entries, lint and analyze their findings, classify its
    rules.  Only JSON holds each rule's text, and only JSON and
    classify's table its signature, so the rules are formatted and
    classified only for those, before the output opens; what is left to
    write is string assembly, which cannot fail.  A rule in
    ``rule_scopes`` is classified from the scope given there."""
    if args.format == "json":
        tail = _REPORT_TAIL_JSON % (json.dumps(findings, indent=2).replace("\n", "\n  "),
                                    json.dumps(summary, indent=2).replace("\n", "\n  "))
        _emit(args, _json_report(_json_rule_records(rules, schema, rule_scopes or {}), blocks, tail))
        return
    if args.command == "validate":
        header, rows = _ENTRY_FIELDS, (
            (rule, table, "ALL" if unit is None else unit, "ALL" if time is None else time, str(result))
            for rule, table, scopes, results in blocks for (unit, time), result in zip(scopes, results))
    elif args.command in ("lint", "analyze"):
        header, rows = _FINDING_FIELDS, [[f.get(k, "") for k in _FINDING_FIELDS] for f in findings]
    else:
        from .classifier import classify_rule

        sigs = [(rule.name, classify_rule(rule, schema)) for rule in rules]
        header, rows = ("name", "signature", "level"), [(name, sig.text, sig.level) for name, sig in sigs]
    _emit(args, _csv_table(header, rows))


def _cmd_validate(args, rules: RuleSet, schema: Schema) -> int:
    from .evaluator import EvalOptions, evaluate_ruleset

    dataset = _load_data(args, schema)
    options = EvalOptions(na_policy=args.na_policy)
    report = evaluate_ruleset(rules, dataset, schema, options)
    counts = report.counts()
    summary = {"per_rule": report.summary, "totals": counts, "strict_na": args.strict_na}
    _emit_report(args, rules, schema, report.blocks, [], summary, report.rule_scopes)
    if counts["false"] > 0 or (args.strict_na and counts["na"] > 0):
        return EXIT_FAILURES
    if counts["na"] > 0:
        print(f"warning: {counts['na']} entries could not be decided (NA)", file=sys.stderr)
    return EXIT_OK


def _cmd_classify(args, rules: RuleSet, schema: Optional[Schema]) -> int:
    _emit_report(args, rules, schema, [], [], {})
    return EXIT_OK


def _cmd_lint(args, rules: RuleSet, schema: Schema) -> int:
    from .analyzer import lint_ruleset

    findings, _, unsupported = lint_ruleset(rules, schema)
    records = [_finding_record(f) for f in findings]
    summary = {"finding_count": len(records), "unsupported": _unsupported_records(unsupported)}
    _emit_report(args, rules, schema, [], records, summary)
    return EXIT_OK


def _cmd_analyze(args, rules: RuleSet, schema: Schema) -> int:
    from .analyzer import INFEASIBLE, analyze_ruleset

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


def _cmd_simplify(args, rules: RuleSet, schema: Schema) -> int:
    from .analyzer import simplify_ruleset
    from .rules import format_ruleset

    simplified, log = simplify_ruleset(rules, schema)
    if any(step.action == "infeasible" for step in log):
        print("rule set is infeasible; nothing to simplify", file=sys.stderr)
        return EXIT_INFEASIBLE
    for step in log:
        if step.after is None:
            print(f"simplify: {step.action}: dropped {step.before!r}", file=sys.stderr)
        else:
            print(f"simplify: {step.action}: {step.before!r} -> {step.after!r}", file=sys.stderr)
    _emit(args, (format_ruleset(simplified),))
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "lint": _cmd_lint,
    "analyze": _cmd_analyze,
    "simplify": _cmd_simplify,
}


def main(argv: Optional[list[str]] = None) -> int:
    """Read the schema, then the rules, and run the command on them;
    ``--data`` is read by validate, after both."""
    args = _build_parser().parse_args(argv)
    try:
        from .rules import parse_rules
        from .schema import parse_schema

        schema = parse_schema(_read(args.schema)) if args.schema else None
        rules = parse_rules(_read(args.rules))
        return _COMMANDS[args.command](args, rules, schema)
    except BrokenPipeError:
        # the reader of standard output stopped early: end quietly, as a
        # process killed by SIGPIPE would, and let the interpreter's last
        # flush of what is still buffered go to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_PIPE
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
