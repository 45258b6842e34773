"""Randomized stress run: lint, analyze and simplify against validate.

Generates rule sets in the analyzable fragment over three integers in
[0, 4] and one three-level categorical, evaluates them with validate on
all 375 in-domain records (and on records outside the domains), and
checks every sound claim of ``analyze_ruleset`` and ``simplify_ruleset``
against those verdicts (``tests/helpers.py``,
``check_analysis_against_validate``).  Prints how many claims of each
kind were checked; exits 1 at the first claim validate contradicts.

    python scripts/oracle_stress.py [count] [seed]
"""

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from helpers import check_analysis_against_validate, random_oracle_ruleset  # noqa: E402

from validus.rules import format_ruleset  # noqa: E402


def main(count: int = 1500, seed: int = 20261019) -> None:
    rng = random.Random(seed)
    checked: dict[str, int] = {}
    start = time.perf_counter()
    for i in range(count):
        rules = random_oracle_ruleset(rng)
        try:
            claims = check_analysis_against_validate(rules)
        except AssertionError as exc:
            print(f"DISAGREEMENT at set {i}: {exc}")
            print(format_ruleset(rules))
            raise SystemExit(1)
        for kind, n in claims.items():
            checked[kind] = checked.get(kind, 0) + n
    print(f"{count} rule sets, {time.perf_counter() - start:.1f}s, 0 disagreements")
    for kind in sorted(checked):
        print(f"  {kind:24} {checked[kind]:6} checked")


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    main(*args)
