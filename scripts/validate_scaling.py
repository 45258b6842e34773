"""Time CSV ingest and ``evaluate_ruleset`` per rule shape on seeded panels of growing size.

The panels are the validate-panel workload of ``bench/workloads.py``
(``validate_panel``) with 100 units and a growing number of occasions:
50, 200 and 800 by default, or about 5k, 20k and 80k records.  One rule
of each shape is taken from that workload's rule file:
- record: ``x >= 0``,
- lagged: ``abs(x - x@1) <= 0.5 * x@1``,
- aggregate: ``mean(x) >= 60``, one verdict per occasion,
- record with aggregate: ``x <= 10 * mean(x)``,
two record rules of our own on the same panel:
- quotient: ``y / x <= 2``, compared without dividing,
- builtin: ``in_set(x, {50.5, 60}) or is_integer(x)``, built-in tests
  of x's values over their common denominator,
and one rule set:
- shared: ``x_mean`` and ``x_rel`` together, whose ``mean(x)`` is one
  computation per occasion for both rules.
With the units fixed, every shape's verdicts grow with the records, so
its time per verdict stays flat exactly when its path is linear; the
same holds for ingest's time per cell.  Each timing is the best of
``--repeat`` timed runs, a run being as many calls as make it last
50 ms or more (as ``timeit.Timer.autorange`` picks them), so that a
call of a few ms is not judged on one draw of the machine's load.
For each size it prints an ``ingest`` row: the time of a
``dataset_from_csv`` call on the panel's CSV text, the µs per cell,
and a digest of the dataset's points.  Then, for each shape and for
the shared set, the time of an ``evaluate_ruleset`` call (the dataset
is read and indexed before), the µs per verdict, and a digest of the
verdicts and diagnostics.  So two versions of the reader or the
evaluator can be compared for speed and for identical output.  It
exits 1 when the µs per cell or a row's µs per verdict at the largest
size is more than 3x that at the smallest.  stdlib only.

    PYTHONPATH=src python scripts/validate_scaling.py [--occasions 50 200 800] [--seed 201] [--repeat 3]
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

from validus.csvio import dataset_from_csv
from validus.evaluator import evaluate_ruleset
from validus.rules import RuleSet, parse_rules
from validus.schema import parse_schema

ROOT = Path(__file__).resolve().parent.parent
UNITS = 100
SHAPES = {"record": "x_pos", "lagged": "x_drift", "aggregate": "x_mean", "record_agg": "x_rel"}
SHARED = ("x_mean", "x_rel")
QUOTIENT = "y_per_x: y / x <= 2"
BUILTIN = "x_test: in_set(x, {50.5, 60}) or is_integer(x)"
MIN_RUN = 0.05  # seconds: a timed run repeats its call until it lasts this long
LIMIT = 3.0  # largest size's µs per cell or verdict over the smallest size's, per row kind


def digest(report) -> str:
    verdicts = [(e.unit, e.time, e.result.value) for e in report.entries]
    notes = [(d.unit, d.time, d.kind, d.message) for d in report.diagnostics]
    return hashlib.sha256(repr((verdicts, notes)).encode()).hexdigest()[:12]


def points_digest(dataset) -> str:
    points = sorted((repr(key), repr(value)) for key, value in dataset.points.items())
    return hashlib.sha256(repr(points).encode()).hexdigest()[:12]


def best_of(repeat: int, call):
    """The least time per call of ``repeat`` timed runs, and the last
    call's result.  The first run doubles its number of calls until it
    lasts ``MIN_RUN`` or more, and the later runs make that many."""
    number = 1
    while True:
        seconds, result = run(number, call)
        if seconds >= MIN_RUN:
            break
        number *= 2
    best = seconds / number
    for _ in range(repeat - 1):
        seconds, result = run(number, call)
        best = min(best, seconds / number)
    return best, result


def run(number: int, call):
    """The time of ``number`` calls, and the last call's result."""
    start = time.perf_counter()
    for _ in range(number):
        result = call()
    return time.perf_counter() - start, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--occasions", type=int, nargs="+", default=[50, 200, 800],
                        help="occasions per panel, smallest first (100 units each)")
    parser.add_argument("--seed", type=int, default=201, help="workload seed (default 201)")
    parser.add_argument("--repeat", type=int, default=3, help="timed runs per row; the best counts")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import validate_panel

    per_item: dict[str, list[float]] = {row: [] for row in ("ingest", *SHAPES, "quotient", "builtin", "shared")}
    print(f"{'records':>8} {'row':<11} {'cells/verdicts':>14} {'diagnostics':>11} {'seconds':>9} "
          f"{'µs each':>9}  digest")

    def row(records: int, kind: str, count: int, diagnostics: str, seconds: float, text: str) -> None:
        per_item[kind].append(seconds / count * 1e6)
        print(f"{records:>8} {kind:<11} {count:>14} {diagnostics:>11} {seconds:>9.4f} "
              f"{per_item[kind][-1]:>9.2f}  {text}")

    for occasions in args.occasions:
        workload = validate_panel(args.seed, units=UNITS, occasions=occasions)
        rules = {rule.name: rule for rule in parse_rules(workload.files["rules.txt"])}
        quotient, builtin = parse_rules(QUOTIENT + "\n" + BUILTIN)
        schema = parse_schema(workload.files["schema.txt"])
        tables = {"firm": workload.files["firm.csv"]}
        seconds, dataset = best_of(args.repeat, lambda: dataset_from_csv(tables))
        row(UNITS * occasions, "ingest", len(dataset), "-", seconds, points_digest(dataset))
        dataset.index("firm")
        for shape, name in SHAPES.items():
            assert workload.rule_shapes[name] == shape, name
        rulesets = [(shape, RuleSet((rules[name],))) for shape, name in SHAPES.items()]
        rulesets += [("quotient", RuleSet((quotient,))), ("builtin", RuleSet((builtin,))),
                     ("shared", RuleSet(tuple(rules[name] for name in SHARED)))]
        for shape, ruleset in rulesets:
            seconds, report = best_of(args.repeat, lambda: evaluate_ruleset(ruleset, dataset, schema))
            row(UNITS * occasions, shape, len(report.entries), str(len(report.diagnostics)), seconds, digest(report))
    failed = [kind for kind, times in per_item.items() if times[-1] > LIMIT * times[0]]
    print(f"limit: µs per cell or verdict at {UNITS * args.occasions[-1]} records at most {LIMIT}x that at "
          f"{UNITS * args.occasions[0]}; " + (f"exceeded by {', '.join(failed)}" if failed else "met by every row"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
