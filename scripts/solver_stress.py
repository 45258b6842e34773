"""Randomized stress run: the exact solver against the grid oracle.

Generates systems of clauses over numeric and categorical variables
(single-variable atoms, so the breakpoint grid is a complete decision
procedure), compares verdicts, checks each satisfiable verdict's witness
by direct ``Fraction`` evaluation of every atom and that each of its
numbers is an ``int`` when integral, else a ``Fraction``, checks the levels
``detect_partial_infeasibility`` reports against the grid oracle run on
the system plus a clause fixing each level, and reports timing and the
SAT/UNSAT mix.  Every infeasible ``linear.feasible`` call the solver
makes is checked too: the core it names must be infeasible on its own
under the reference ``Fraction``-row solver.

    python scripts/solver_stress.py [count] [seed]
"""

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from helpers import (grid_oracle, grid_oracle_excluded_levels, in_number_form, random_system,  # noqa: E402
                     reference_check_witness, reference_feasible, reference_make_row)

from validus import analyzer  # noqa: E402
from validus.analyzer import detect_partial_infeasibility, is_satisfiable  # noqa: E402


def check_cores() -> list[int]:
    """Wrap the analyzer's ``feasible`` so that each infeasible call's
    core is checked; the returned list counts the cores and those
    smaller than their system."""
    counts = [0, 0]
    solve = analyzer.feasible

    def checked(rows, core):  # the analyzer always asks for the core
        witness = solve(rows, core)
        if witness is None:
            # as many rows as positions only when the positions are distinct and in range
            alone = [reference_make_row(dict(rows[i].coeffs), rows[i].strict, rows[i].bound)
                     for i in set(core) if 0 <= i < len(rows)]
            if not core or len(alone) != len(core) or reference_feasible(alone) is not None:
                print(f"BAD CORE {core} of {rows}")
                raise SystemExit(1)
            counts[0] += 1
            counts[1] += len(core) < len(rows)
        return witness

    analyzer.feasible = checked
    return counts


def main(count: int = 1000, seed: int = 20240811) -> None:
    rng = random.Random(seed)
    cores = check_cores()
    sat = unsat = levels = 0
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
        if verdict and not (reference_check_witness(system, result.witness) and all(
                in_number_form(value) for value in result.witness.values() if not isinstance(value, str))):
            print(f"BAD WITNESS at case {i}: {result.witness}")
            print(system.clauses)
            raise SystemExit(1)
        excluded = [(f.variable, f.value) for f in detect_partial_infeasibility(system)]
        if excluded != grid_oracle_excluded_levels(system):
            print(f"LEVEL DISAGREEMENT at case {i}: solver excludes {excluded}")
            print(system.clauses)
            raise SystemExit(1)
        levels += sum(map(len, system.categorical_vars.values()))
        sat += verdict
        unsat += not verdict
    print(f"{count} systems: {sat} satisfiable, {unsat} unsatisfiable, 0 disagreements")
    print(f"{levels} categorical levels checked against the grid oracle, 0 disagreements")
    print(f"{cores[0]} infeasible cores, each infeasible on its own, {cores[1]} smaller than their system")
    print(f"solver {solver_time:.2f}s total, oracle {oracle_time:.2f}s total")


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    main(*args)
