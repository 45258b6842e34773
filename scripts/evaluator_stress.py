"""Randomized stress run: the evaluator against a plain-Python oracle.

On each seeded panel (``tests/helpers.py::random_panel``: an unbalanced
panel whose cells may be absent, NA, text, zero or fractional) it
evaluates ``PANEL_RULES`` on the panel read two ways, through
``build_dataset`` from Fraction cells and through ``dataset_from_csv``
from the panel written as CSV, where integral cells are ints, under both
NA policies.  Verdicts, and diagnostics in order, must equal
``panel_oracle``'s, and each rule evaluated alone must report what it
reports in the whole set (``tests/helpers.py::panel_disagreement``).
It exits 1 at the first disagreement.

    python scripts/evaluator_stress.py [count] [seed]
"""

import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from helpers import panel_csv, panel_disagreement, random_panel  # noqa: E402


def main(count: int = 1000, seed: int = 6021) -> None:
    rng = random.Random(seed)
    seen: Counter = Counter()
    for case in range(count):
        cells = random_panel(rng)
        found = panel_disagreement(cells)
        if found is not None:
            print(f"DISAGREEMENT at case {case}: {found}")
            print(repr(cells))
            raise SystemExit(1)
        seen["cells"] += len(cells)
        seen["CSV cells"] += len(panel_csv(cells)[1])
    print(f"{count} panels, 2 ingestion paths x 2 NA policies each, 0 disagreements; "
          + ", ".join(f"{key}: {n}" for key, n in sorted(seen.items())))


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    main(*args)
