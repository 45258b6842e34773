"""Time ``evaluate_ruleset`` per rule shape on seeded panels of growing size.

The panels are the validate-panel workload of ``bench/workloads.py``
(``validate_panel``) with 100 units and a growing number of occasions:
50, 200 and 800 by default, or about 5k, 20k and 80k records.  One rule
of each shape is taken from that workload's rule file:
- record: ``x >= 0``,
- lagged: ``abs(x - x@1) <= 0.5 * x@1``,
- aggregate: ``mean(x) >= 60``, one verdict per occasion,
- record with aggregate: ``x <= 10 * mean(x)``.
With the units fixed, every shape's verdicts grow with the records, so
its time per verdict stays flat exactly when its path is linear.  For
each size and shape it prints the best of ``--repeat`` timed
``evaluate_ruleset`` calls (the dataset is read and indexed before),
the µs per verdict, and a digest of the verdicts and diagnostics, so two
versions of the evaluator can be compared for speed and for identical
output.  It exits 1 when a shape's µs per verdict at the largest size is
more than 3x that at the smallest.  stdlib only.

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
LIMIT = 3.0  # largest size's µs per verdict over the smallest size's, per shape


def digest(report) -> str:
    verdicts = [(e.unit, e.time, e.result.value) for e in report.entries]
    notes = [(d.unit, d.time, d.kind, d.message) for d in report.diagnostics]
    return hashlib.sha256(repr((verdicts, notes)).encode()).hexdigest()[:12]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--occasions", type=int, nargs="+", default=[50, 200, 800],
                        help="occasions per panel, smallest first (100 units each)")
    parser.add_argument("--seed", type=int, default=201, help="workload seed (default 201)")
    parser.add_argument("--repeat", type=int, default=3, help="timed calls per shape; the best counts")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import validate_panel

    per_verdict: dict[str, list[float]] = {shape: [] for shape in SHAPES}
    print(f"{'records':>8} {'shape':<11} {'verdicts':>9} {'diagnostics':>11} {'seconds':>9} {'µs/verdict':>11}  digest")
    for occasions in args.occasions:
        workload = validate_panel(args.seed, units=UNITS, occasions=occasions)
        rules = {rule.name: rule for rule in parse_rules(workload.files["rules.txt"])}
        schema = parse_schema(workload.files["schema.txt"])
        dataset = dataset_from_csv({"firm": workload.files["firm.csv"]})
        dataset.index("firm")
        for shape, name in SHAPES.items():
            assert workload.rule_shapes[name] == shape, name
            ruleset = RuleSet((rules[name],))
            best = float("inf")
            for _ in range(args.repeat):
                start = time.perf_counter()
                report = evaluate_ruleset(ruleset, dataset, schema)
                best = min(best, time.perf_counter() - start)
            verdicts = len(report.entries)
            per_verdict[shape].append(best / verdicts * 1e6)
            print(f"{UNITS * occasions:>8} {shape:<11} {verdicts:>9} {len(report.diagnostics):>11} "
                  f"{best:>9.4f} {per_verdict[shape][-1]:>11.2f}  {digest(report)}")
    failed = [shape for shape, times in per_verdict.items() if times[-1] > LIMIT * times[0]]
    print(f"limit: µs per verdict at {UNITS * args.occasions[-1]} records at most {LIMIT}x that at "
          f"{UNITS * args.occasions[0]}; " + (f"exceeded by {', '.join(failed)}" if failed else "met by every shape"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
