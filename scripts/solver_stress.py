"""Randomized stress run: the exact solver against the grid oracle.

Generates systems of clauses over numeric and categorical variables
(single-variable atoms, so the breakpoint grid is a complete decision
procedure), compares verdicts, checks each satisfiable verdict's witness
by direct ``Fraction`` evaluation of every atom, and reports timing and
the SAT/UNSAT mix.

    python scripts/solver_stress.py [count] [seed]
"""

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from helpers import grid_oracle, random_system, reference_check_witness  # noqa: E402

from validus.analyzer import is_satisfiable  # noqa: E402


def main(count: int = 1000, seed: int = 20240811) -> None:
    rng = random.Random(seed)
    sat = unsat = 0
    solver_time = oracle_time = 0.0
    for i in range(count):
        system = random_system(rng, multivar=False)
        t0 = time.perf_counter()
        result = is_satisfiable(system)
        verdict = bool(result)
        t1 = time.perf_counter()
        expected = grid_oracle(system)
        t2 = time.perf_counter()
        solver_time += t1 - t0
        oracle_time += t2 - t1
        if verdict != expected:
            print(f"DISAGREEMENT at case {i}: solver={verdict} oracle={expected}")
            print(system.clauses)
            raise SystemExit(1)
        if verdict and not reference_check_witness(system, result.witness):
            print(f"BAD WITNESS at case {i}: {result.witness}")
            print(system.clauses)
            raise SystemExit(1)
        sat += verdict
        unsat += not verdict
    print(f"{count} systems: {sat} satisfiable, {unsat} unsatisfiable, 0 disagreements")
    print(f"solver {solver_time:.2f}s total, oracle {oracle_time:.2f}s total")


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    main(*args)
