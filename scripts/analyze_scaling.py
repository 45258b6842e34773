"""Time ``analyze_ruleset`` and ``simplify_ruleset`` on seeded random rule sets.

The rule sets grow in size.  Each mixes three shapes over 12 numeric
variables declared in [0, 100] and 2 categorical variables over
{a, b, c}:
- 40% ``x_i + x_j <= c``,
- 30% conditionals: ``if (c_k == "lvl") x_i >= c`` in the categorical
  mix (the default), ``if (x_k >= c) x_i >= c2`` with ``x_k`` other than
  ``x_i`` in the numeric mix (``--mix numeric``), which names no
  categorical variable,
- 30% ``x_i - x_j <= c``, or in the balance mix (``--mix balance``)
  balance equalities ``x_i - x_j == x_k`` over three distinct
  variables, ``x_i`` declared last, beside categorical conditionals as
  in the default mix; there the sums' bounds start at 100, not 40, and
  the conditionals' at most 50, not 90, so that most sets stay
  feasible.
For each rule count and seed it prints the wall time of one
``analyze_ruleset`` call, its number of ``linear.feasible`` calls and a
digest of its findings, then the same for one ``simplify_ruleset`` call
with a digest of the simplified rule text and its log, so two versions
of the analyzer can be compared for speed, for work and for identical
output; then the median and the worst time of each per rule count, and
the ``feasible`` calls of each summed over the seeds, which do not
drift with load as the times do.
``feasible`` is counted by wrapping ``validus.analyzer.feasible`` here.
It exits 1 after the run, naming each rule count and seed whose
``analyze_ruleset`` or ``simplify_ruleset`` call took longer than
``LIMIT`` seconds.  stdlib only.

    PYTHONPATH=src python scripts/analyze_scaling.py [--rules 20 30 40] [--seeds 1 10] [--mix numeric|balance]
"""

import argparse
import hashlib
import random
import statistics
import time

from validus import analyzer
from validus.analyzer import analyze_ruleset, simplify_ruleset
from validus.rules import format_ruleset, parse_rules
from validus.schema import parse_schema

NUMERIC = [f"x{i}" for i in range(12)]
CATEGORICAL = ["c0", "c1"]
LEVELS = ["a", "b", "c"]

SCHEMA = "".join(f"t.{v} : numeric [0, 100]\n" for v in NUMERIC)
SCHEMA += "".join(f"t.{v} : categorical {{{', '.join(LEVELS)}}}\n" for v in CATEGORICAL)

LIMIT = 5.0  # seconds for any analyze or simplify call


MIXES = ("categorical", "numeric", "balance")


def rule_text(rules: int, seed: int, mix: str = "categorical") -> str:
    """``rules`` rules in the 40/30/30 mix, shuffled; the same text for
    the same arguments.  Each mix draws from its own seed string."""
    rng = random.Random(f"analyze-scaling:{rules}:{seed}" if mix == "categorical"
                        else f"analyze-scaling-{mix}:{rules}:{seed}")
    n_sum = round(0.4 * rules)
    n_cond = round(0.3 * rules)
    shapes = ["sum"] * n_sum + ["cond"] * n_cond + ["diff"] * (rules - n_sum - n_cond)
    rng.shuffle(shapes)
    # balance equalities tie the variables together: looser sums and
    # lower conditional bounds keep most of those sets feasible
    sum_low, cond_high = (100, 50) if mix == "balance" else (40, 90)
    lines = []
    for i, shape in enumerate(shapes):
        a, b = rng.sample(NUMERIC, 2)
        if shape == "sum":
            body = f"{a} + {b} <= {rng.randint(sum_low, 180)}"
        elif shape == "cond" and mix == "numeric":
            body = f"if ({b} >= {rng.randint(10, 90)}) {a} >= {rng.randint(0, 90)}"
        elif shape == "cond":
            body = f'if ({rng.choice(CATEGORICAL)} == "{rng.choice(LEVELS)}") {a} >= {rng.randint(0, cond_high)}'
        elif mix == "balance":
            # the later-declared variable is the total of the other two
            total, *parts = sorted([a, b, rng.choice([v for v in NUMERIC if v not in (a, b)])],
                                   key=NUMERIC.index, reverse=True)
            body = f"{total} - {parts[0]} == {parts[1]}"
        else:
            body = f"{a} - {b} <= {rng.randint(-20, 60)}"
        lines.append(f"r{i}: {body}\n")
    return "".join(lines)


def digest(*outputs) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()[:16]


def count_feasible() -> list[int]:
    """Wrap the analyzer's ``feasible``; the returned one-item list counts
    its calls."""
    calls = [0]
    solve = analyzer.feasible

    def counted(*args, **kwargs):
        calls[0] += 1
        return solve(*args, **kwargs)

    analyzer.feasible = counted
    return calls


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rules", type=int, nargs="+", default=[20, 30, 40], help="rule counts to time")
    parser.add_argument("--seeds", type=int, nargs=2, default=[1, 10], metavar=("FIRST", "LAST"),
                        help="inclusive range of seeds")
    parser.add_argument("--mix", choices=MIXES, default="categorical", help="shape of the conditional rules")
    args = parser.parse_args()
    schema = parse_schema(SCHEMA)
    feasible_calls = count_feasible()
    slow = []
    for rules in args.rules:
        times, simplify_times = [], []
        feasible_sums = [0, 0]  # analyze, simplify
        for seed in range(args.seeds[0], args.seeds[1] + 1):
            ruleset = parse_rules(rule_text(rules, seed, args.mix))
            feasible_calls[0] = 0
            start = time.perf_counter()
            findings, unsupported = analyze_ruleset(ruleset, schema)
            elapsed = time.perf_counter() - start
            times.append(elapsed)
            analyze_feasible, feasible_calls[0] = feasible_calls[0], 0
            start = time.perf_counter()
            simplified, log = simplify_ruleset(ruleset, schema)
            simplify_times.append(time.perf_counter() - start)
            feasible_sums[0] += analyze_feasible
            feasible_sums[1] += feasible_calls[0]
            print(f"rules {rules:3d}  seed {seed:3d}  {elapsed:9.3f} s  {analyze_feasible:5d} feasible  "
                  f"{len(findings):3d} findings  digest {digest(findings, unsupported)}  "
                  f"simplify {simplify_times[-1]:9.3f} s  {feasible_calls[0]:5d} feasible  "
                  f"{len(log):3d} steps  digest {digest(format_ruleset(simplified), log)}", flush=True)
            if max(elapsed, simplify_times[-1]) > LIMIT:
                slow.append(f"rules {rules} seed {seed}: analyze {elapsed:.3f} s, simplify {simplify_times[-1]:.3f} s")
        print(f"rules {rules:3d}  median {statistics.median(times):.3f} s  worst {max(times):.3f} s  "
              f"{feasible_sums[0]:6d} feasible  "
              f"simplify median {statistics.median(simplify_times):.3f} s  worst {max(simplify_times):.3f} s  "
              f"{feasible_sums[1]:6d} feasible", flush=True)
    if slow:
        raise SystemExit(f"over the limit of {LIMIT} s:\n" + "\n".join(slow))


if __name__ == "__main__":
    main()
