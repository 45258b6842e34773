"""Cold start of the validus command: what one fresh process pays.

For each command on the demo files in ``scripts/demo`` it runs ``--runs``
fresh interpreters, each importing ``validus.cli`` and running the
command once, and prints the median start-to-finish wall time of the
process; the first row is a process that only imports ``validus.cli``.
Each process reports the validus modules it loaded.  The script prints
them, and exits 1 if a command loaded other modules than its own set.

The processes run with ``PYTHONDONTWRITEBYTECODE=1``, so without a
``src/validus/__pycache__`` each of them compiles every validus module
it imports, as in a checkout that caches no bytecode.  Runs of the
commands alternate, so a slow spell of the machine spreads over all of
them.

    python scripts/cold_start.py [--runs N]
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "scripts" / "demo"

# runs the command given as arguments (if any), then prints the validus
# modules the process loaded
CHILD = (
    "import sys, validus.cli\n"
    "if sys.argv[1:]:\n"
    "    validus.cli.main(sys.argv[1:])\n"
    "print(' '.join(sorted(m for m in sys.modules if m.partition('.')[0] == 'validus')))\n"
)

CLI = {"validus", "validus.cli", "validus.errors", "validus.tribool"}
PARSE = CLI | {"validus.rules", "validus.schema", "validus.model"}
CLASSIFY = PARSE | {"validus.classifier"}  # every JSON report classifies its rules
ANALYZE = PARSE | {"validus.analyzer", "validus.linear"}
RULES = ["--rules", "rules.txt", "--schema", "schema.txt"]
CHECKS = ["--rules", "ruleset_checks.txt", "--schema", "schema.txt"]

# name: (arguments, the validus modules the process may load)
CASES = {
    "import validus.cli": ([], CLI),
    "classify": (["classify", *RULES], CLASSIFY),
    "validate": (["validate", *RULES, "--data", "person=person.csv"],
                 CLASSIFY | {"validus.evaluator", "validus.csvio"}),
    "lint": (["lint", *CHECKS], ANALYZE | {"validus.classifier"}),
    "analyze": (["analyze", *CHECKS], ANALYZE | {"validus.classifier"}),
    "simplify": (["simplify", *CHECKS], ANALYZE),
}


def run_once(argv: list[str], out: Path, env: dict[str, str]) -> tuple[float, set[str]]:
    if argv:
        argv = [*argv, "-o", str(out)]
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=DEMO, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
    return perf_counter() - start, set(proc.stdout.split())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=15, help="fresh processes per command (default 15)")
    args = parser.parse_args()
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    if (ROOT / "src" / "validus" / "__pycache__").exists():
        print("note: src/validus/__pycache__ exists, so the processes read cached bytecode")
    times: dict[str, list[float]] = {name: [] for name in CASES}
    loaded: dict[str, set[str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(args.runs):
            for name, (argv, _) in CASES.items():
                elapsed, modules = run_once(argv, Path(tmp) / "out", env)
                times[name].append(elapsed)
                loaded[name] = modules
    failed = False
    print(f"{'command':<20} {'median s':>9}  validus modules loaded")
    for name, (_, allowed) in CASES.items():
        modules = loaded[name]
        names = " ".join(sorted(m.partition(".")[2] or m for m in modules))
        print(f"{name:<20} {statistics.median(times[name]):>9.4f}  {names}")
        if modules != allowed:
            failed = True
            print(f"  error: expected {' '.join(sorted(allowed))}", file=sys.stderr)
    print(f"{args.runs} runs each; " + ("module sets differ" if failed else "every module set as expected"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
