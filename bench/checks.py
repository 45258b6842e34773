"""Output checks that use nothing from ``validus``.

Each check takes the text a command wrote and the expected outcome
from ``workloads.py`` and returns a list of problems; an empty list
means the output is correct.  ``judge_op`` decides whether one
operation failed.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from workloads import template_holds

_RESULTS = {"True": "true", "False": "false", "NA": "na"}


def check_validate(text: str, expect: dict) -> list[str]:
    report = json.loads(text)
    problems = []
    recount: dict[str, dict[str, int]] = {}
    for entry in report["entries"]:
        if entry["table"] != expect["table"]:
            problems.append(f"entry of rule {entry['rule']} names table {entry['table']!r}")
            break
        tally = recount.setdefault(entry["rule"], {"true": 0, "false": 0, "na": 0})
        tally[_RESULTS[entry["result"]]] += 1
    for rule, want in expect["per_rule"].items():
        got = recount.get(rule)
        if got != want:
            problems.append(f"rule {rule}: entries tally {got}, expected {want}")
        if report["summary"]["per_rule"].get(rule) != want:
            problems.append(f"rule {rule}: summary {report['summary']['per_rule'].get(rule)}, expected {want}")
    extra = set(recount) - set(expect["per_rule"])
    if extra:
        problems.append(f"unexpected rules in entries: {sorted(extra)}")
    return problems


def check_analyze(text: str, expect: dict) -> list[str]:
    report = json.loads(text)
    problems = []
    if report["summary"].get("satisfiable") is not True:
        problems.append("rule set not reported satisfiable")
    for planted in expect["planted"]:
        if not any(all(f.get(k) == v for k, v in planted.items()) for f in report["findings"]):
            problems.append(f"planted finding missing: {planted}")
    return problems


_NUMBER = r"(-?\d+(?:\.\d+)?(?:/\d+)?)"
_FORMS = (
    (re.compile(rf"^(\w+) \+ (\w+) <= {_NUMBER}$"), lambda m: {"t": "sum", "a": m[1], "b": m[2]}),
    (re.compile(rf"^(\w+) - (\w+) <= {_NUMBER}$"), lambda m: {"t": "diff", "a": m[1], "b": m[2]}),
    (re.compile(rf'^if \((\w+) == "(\w+)"\) (\w+) >= {_NUMBER}$'),
     lambda m: {"t": "cond", "var": m[1], "level": m[2], "x": m[3]}),
    (re.compile(rf"^(\w+) >= {_NUMBER}$"), lambda m: {"t": "bound", "x": m[1]}),
)


def parse_templates(text: str) -> dict[str, dict]:
    """Rules of a simplified analyze-ruleset file, as templates.

    Raises ValueError for a line that is not one of the template forms.
    """
    templates = {}
    for line in filter(str.strip, text.splitlines()):
        name, _, body = (part.strip() for part in line.partition(":"))
        for pattern, build in _FORMS:
            match = pattern.match(body)
            if match:
                break
        else:
            raise ValueError(f"not a rule of the generated forms: {line!r}")
        if name in templates:
            raise ValueError(f"duplicate rule name {name!r}")
        templates[name] = {**build(match), "c": Fraction(match[match.lastindex])}
    return templates


def check_simplify(text: str, expect: dict) -> list[str]:
    try:
        simplified = parse_templates(text)
    except ValueError as exc:
        return [f"simplified output does not reparse: {exc}"]
    problems = []
    if expect["dropped"] in simplified:
        problems.append(f"planted redundant rule {expect['dropped']} was kept")
    unknown = set(simplified) - set(expect["templates"])
    if unknown:
        problems.append(f"simplified output has unknown rules {sorted(unknown)}")
    for point in expect["points"]:
        before = all(template_holds(t, point) for t in expect["templates"].values())
        after = all(template_holds(t, point) for t in simplified.values())
        if before != after:
            problems.append(f"original and simplified sets disagree at {point}")
            break
    return problems


def check_classify(text: str, expect: dict) -> list[str]:
    report = json.loads(text)
    want = expect["signatures"]
    got = {r["name"]: r["signature"] for r in report["rules"]}
    problems = []
    if list(got) != list(want):
        problems.append(f"{len(got)} rules reported, expected {len(want)} in file order")
    wrong = [name for name, sig in want.items() if got.get(name) != sig]
    if wrong:
        problems.append(f"{len(wrong)} signatures differ, first {wrong[0]}: "
                        f"{got.get(wrong[0])} instead of {want[wrong[0]]}")
    levels = [r["name"] for r in report["rules"] if r["level"] != r["signature"].count("m")]
    if levels:
        problems.append(f"level does not match signature for {levels[0]}")
    return problems


CHECKS = {
    "validate": check_validate,
    "analyze": check_analyze,
    "simplify": check_simplify,
    "classify": check_classify,
}


def check_output(label: str, text: str, expect: dict) -> list[str]:
    try:
        return CHECKS[label](text, expect)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{label} output is malformed: {exc!r}"]


def judge_op(op: dict, commands: list[dict], outputs: dict[str, list[str]]) -> list[str]:
    """Problems of one operation; it failed if the list is not empty.

    ``op["commands"]`` holds, per command, the exit code, the error text
    if the call raised, and the digest of its output; ``outputs`` maps
    each digest to the problems that ``check_output`` found in it.
    """
    problems = []
    for spec, result in zip(commands, op["commands"]):
        label = spec["label"]
        if result["error"]:
            problems.append(f"{label} raised {result['error']}")
        elif result["exit"] != spec["exit_code"]:
            problems.append(f"{label} exited {result['exit']}, expected {spec['exit_code']}")
        else:
            problems += outputs.get(result["digest"], [f"{label} wrote no output"])
    return problems
