"""Randomized stress run: the rule parser against its reference copy.

On each seeded case it checks that
- a rule file of formatted random rules (comments, blank lines, CRLF line
  ends, escaped strings) and a token-soup text parse to the same rules,
  or fail with the same error at the same place, with ``parse_rules`` and
  with ``tests/helpers.py::reference_parse_rules``;
- a random rule whose number literals are fractions such as -1/3 gives
  the same verdicts on a small random dataset after a format/parse round
  trip;
- that rule, the rule it came from and a random ``in_set`` rule format
  to the same text (or the same error) with ``format_rule`` and with
  ``tests/helpers.py::reference_format_escaped``, the reference formatter
  with newlines, tabs and carriage returns written as escapes;
- the ``in_set`` rule's text, whose strings hold every escapable
  character, and each rule of the parsed rule file parse back to the
  same body after a format;
- each rule of the parsed rule file gets the signature
  ``reference_signature`` gives it.
Then it prints the µs per rule of ``parse_rules`` (and of the reference)
on generated files of 1k, 5k and 20k rules, each with the gen-0/1/2
garbage collections during its fastest run; the figures should stay flat.

    python scripts/parser_stress.py [count] [seed]
"""

import gc
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from helpers import (  # noqa: E402
    ROUND_TRIP_SCHEMA_TEXT,
    format_outcome,
    parse_outcome,
    random_rule,
    random_rule_file,
    random_set_rule,
    random_trade_csv,
    reference_format_escaped,
    reference_parse_rules,
    reference_signature,
    token_soup,
    verdicts_of,
    with_fraction_literals,
)

from validus.classifier import classify_rule  # noqa: E402
from validus.csvio import dataset_from_csv  # noqa: E402
from validus.rules import format_rule, parse_rule, parse_rules  # noqa: E402
from validus.schema import parse_schema  # noqa: E402


def _disagree(kind: str, case: int, text: str, got, expected) -> None:
    print(f"DISAGREEMENT ({kind}) at case {case}:")
    print(repr(text))
    print(f"  got:      {got!r}"[:2000])
    print(f"  expected: {expected!r}"[:2000])
    raise SystemExit(1)


def _collections() -> list[int]:
    return [generation["collections"] for generation in gc.get_stats()]


def _best_of(runs: int, fn, arg) -> tuple[float, list[int]]:
    """The fastest of ``runs`` calls, and the gen-0/1/2 collections in it."""
    best, collected = float("inf"), []
    for _ in range(runs):
        before = _collections()
        t0 = time.perf_counter()
        fn(arg)
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best, collected = elapsed, [after - b for after, b in zip(_collections(), before)]
    return best, collected


def main(count: int = 1000, seed: int = 20261018) -> None:
    rng = random.Random(seed)
    schema = parse_schema(ROUND_TRIP_SCHEMA_TEXT)
    parsed = failed = evaluated = formatted = classified = reparsed = carriage = 0
    for i in range(count):
        rule_file = random_rule_file(rng, 10)
        for kind, text in (("rule file", rule_file), ("token soup", token_soup(rng))):
            ours = parse_outcome(parse_rules, text)
            theirs = parse_outcome(reference_parse_rules, text)
            if ours != theirs:
                _disagree(kind, i, text, ours, theirs)
            parsed += isinstance(ours, list)
            failed += not isinstance(ours, list)
        file_rules = parse_rules(rule_file)
        for parsed_rule in file_rules:
            got, expected = str(classify_rule(parsed_rule)), reference_signature(parsed_rule)
            if got != expected:
                _disagree("signature", i, format_rule(parsed_rule), got, expected)
            classified += 1
        plain = random_rule(rng, name=f"g{i}")
        rule = with_fraction_literals(plain, rng)
        set_rule = random_set_rule(rng, name=f"s{i}")
        for formed in (plain, rule, set_rule):
            got, expected = format_outcome(format_rule, formed), format_outcome(reference_format_escaped, formed)
            if got != expected:
                _disagree("format", i, repr(formed.body), got, expected)
            formatted += 1
        for formed in (set_rule, *file_rules):
            text = format_outcome(format_rule, formed)
            if isinstance(text, str) and parse_rule(text).body != formed.body:
                _disagree("text round trip", i, text, parse_rule(text).body, formed.body)
            reparsed += isinstance(text, str)
            carriage += isinstance(text, str) and "\\r" in text
        dataset = dataset_from_csv({"trade": random_trade_csv(rng)})
        expected = verdicts_of(rule, dataset, schema)
        again = verdicts_of(parse_rule(format_rule(rule)), dataset, schema)
        if again != expected:
            _disagree("round trip", i, format_rule(rule), again, expected)
        evaluated += not isinstance(expected, str)
    print(f"{count} cases: {2 * count} texts ({parsed} parsed, {failed} rejected), "
          f"{count} round trips ({evaluated} evaluated), {formatted} formats ({reparsed} parsed back, "
          f"{carriage} of them holding \\r), "
          f"{classified} signatures, 0 disagreements")

    print(f"{'rules':>6} {'parse_rules':>12} {'µs/rule':>8} {'gc 0/1/2':>10} {'reference':>10} {'µs/rule':>8} {'gc 0/1/2':>10}")
    for size in (1_000, 5_000, 20_000):
        text = random_rule_file(random.Random(f"{seed}:{size}"), size)
        ours, ours_gc = _best_of(3, parse_rules, text)
        theirs, theirs_gc = _best_of(3, reference_parse_rules, text)
        print(f"{size:>6} {ours:>11.3f}s {ours / size * 1e6:>8.1f} {'/'.join(map(str, ours_gc)):>10} "
              f"{theirs:>9.3f}s {theirs / size * 1e6:>8.1f} {'/'.join(map(str, theirs_gc)):>10}")


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    main(*args)
