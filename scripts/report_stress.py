"""Randomized stress run: the validate report writers against json.dumps
and csv.writer.

On each seeded case (``tests/helpers.py::report_case``: random rules over
a records table, a panel and a header-only table, with units and
occasions holding non-ASCII characters, quotes, backslashes, commas and
newlines) it runs ``validus validate`` in both formats, once to an
``-o`` file and once to standard output, and checks that each time
- the JSON report equals ``json.dumps(payload, indent=2)`` of the report
  expanded to one entry per verdict, and
- the CSV report equals ``csv.writer`` over ``report.entries``,
as ``tests/helpers.py::reference_reports`` writes them, so the file and
the standard output agree too.  It exits 1 at the first disagreement.

    python scripts/report_stress.py [count] [seed]
"""

import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from helpers import REPORT_SCHEMA_TEXT, reference_reports, report_case, validate_reports  # noqa: E402

from validus.csvio import dataset_from_csv  # noqa: E402
from validus.evaluator import evaluate_ruleset  # noqa: E402
from validus.rules import parse_rules  # noqa: E402
from validus.schema import parse_schema  # noqa: E402


def main(count: int = 500, seed: int = 1018) -> None:
    rng = random.Random(seed)
    schema = parse_schema(REPORT_SCHEMA_TEXT)
    seen: Counter = Counter()
    with tempfile.TemporaryDirectory() as workdir:
        for case in range(count):
            rules_text, tables = report_case(rng)
            rules = parse_rules(rules_text)
            report = evaluate_ruleset(rules, dataset_from_csv(tables), schema)
            expected = reference_reports(rules, schema, report)
            written = validate_reports(Path(workdir), rules_text, tables)
            printed = validate_reports(Path(workdir), rules_text, tables, stdout=True)
            for fmt, ours, theirs in zip(("JSON -o", "CSV -o", "JSON stdout", "CSV stdout"),
                                         written + printed, expected + expected):
                if ours != theirs:
                    print(f"DISAGREEMENT ({fmt} report) at case {case}:")
                    print(repr(rules_text))
                    print(repr(tables))
                    print(f"  got:      {ours!r}"[:2000])
                    print(f"  expected: {theirs!r}"[:2000])
                    raise SystemExit(1)
            empty = sum(not block.results for block in report.blocks)
            seen["all blocks empty" if empty == len(report.blocks) else "some blocks empty" if empty else
                 "no block empty"] += 1
            seen["entries"] += len(report.entries)
    print(f"{count} cases, {4 * count} reports, 0 disagreements; "
          + ", ".join(f"{key}: {n}" for key, n in sorted(seen.items())))


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    main(*args)
