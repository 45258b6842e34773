"""Record the performance trajectory: one ``BENCH_<n>.json`` per change.

In fresh processes it runs:
- ``bench/run.py --workload all --seed 201 --trace 0`` for ``--seconds``
  seconds per workload, and keeps every figure of its last line: each
  workload's ``op_s``, ``setup_s`` and ``peak_rss_mb`` and each
  command's time, all of them medians over the run;
- ``scripts/analyze_scaling.py`` for each mix at the rule counts CI
  times (categorical 20, 40 and 60, numeric 20, 30 and 40, balance 20;
  with ``--smallest``, 20 rules each), over the seeds ``--seeds``, and
  keeps the median and the worst time of ``analyze`` and ``simplify``
  at each rule count, the ``feasible`` calls of each summed over the
  seeds, and one digest of the per-seed output digests.

The file holds those figures, the commit (and whether the tracked files
differ from it), the CPython version and the CPU count.  It then prints
each figure's change against the newest earlier ``BENCH_*.json`` at the
repository root (the one with the greatest number below ``--pr``, or the
greatest of all when ``--pr`` is not given), and every digest that
changed.  The summed ``feasible`` counts do not drift with load as the
times do.  A time over ``analyze_scaling.py``'s limit is recorded, not
a failure; the script exits 1 only when a run fails or a benchmark
output is wrong.  stdlib only.

    python scripts/bench_record.py --pr N [--seconds 20] [--seeds 1 10] [--smallest] [--out PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: the rule counts CI times for each ``analyze_scaling.py`` mix
MIXES = {"categorical": (20, 40, 60), "numeric": (20, 30, 40), "balance": (20,)}

_SEED_LINE = re.compile(r"rules +(\d+) +seed +\d+ .* digest (\w+) .* digest (\w+)$")
_SUMMARY = re.compile(r"rules +(\d+) +median ([\d.]+) s +worst ([\d.]+) s +(\d+) feasible +"
                      r"simplify median ([\d.]+) s +worst ([\d.]+) s +(\d+) feasible$")


def _run(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True)


def bench_figures(seconds: float) -> tuple[dict[str, float], bool]:
    """Every figure of an untraced ``bench/run.py`` run of all workloads,
    and whether every operation's output was right."""
    proc = _run(["bench/run.py", "--workload", "all", "--seed", "201", "--seconds", str(seconds), "--trace", "0"])
    if proc.returncode != 0:
        raise SystemExit(f"bench/run.py exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {f"bench.{k}": m["value"] for k, m in result["metrics"].items()}, result["correct"]


def scaling_figures(mix: str, rules: tuple[int, ...], seeds: list[int]) -> tuple[dict[str, float], dict[str, str]]:
    """The summary figures of one ``analyze_scaling.py`` mix, and a digest
    of its per-seed output digests at each rule count."""
    proc = _run(["scripts/analyze_scaling.py", "--mix", mix, "--rules", *map(str, rules),
                 "--seeds", *map(str, seeds)])
    figures: dict[str, float] = {}
    outputs: dict[int, list[str]] = {}
    for line in proc.stdout.splitlines():
        if m := _SEED_LINE.match(line):
            outputs.setdefault(int(m[1]), []).extend(m.group(2, 3))
        elif m := _SUMMARY.match(line):
            prefix = f"scaling.{mix}.{m[1]}"
            for i, name in enumerate(("analyze_median_s", "analyze_worst_s", "analyze_feasible",
                                      "simplify_median_s", "simplify_worst_s", "simplify_feasible")):
                figures[f"{prefix}.{name}"] = int(m[i + 2]) if name.endswith("feasible") else float(m[i + 2])
    if any(f"scaling.{mix}.{n}.analyze_feasible" not in figures for n in rules):
        # over the time limit it exits 1 after every summary line; anything else is a failure
        raise SystemExit(f"analyze_scaling.py --mix {mix} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    digests = {f"scaling.{mix}.{n}": hashlib.sha256(" ".join(d).encode()).hexdigest()[:16]
               for n, d in outputs.items()}
    return figures, digests


def _git(*argv: str) -> str:
    proc = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def previous(pr: int | None) -> Path | None:
    """The newest ``BENCH_<n>.json`` at the root, with n below ``pr``."""
    found = []
    for path in ROOT.glob("BENCH_*.json"):
        if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name)) and (pr is None or int(m[1]) < pr):
            found.append((int(m[1]), path))
    return max(found)[1] if found else None


def compare(record: dict, before: dict, name: str) -> None:
    print(f"change against {name}:")
    old = before.get("figures", {})
    for key, value in record["figures"].items():
        if key not in old:
            print(f"  {key:48s} {value:>12.6g}  (new)")
        elif old[key]:
            print(f"  {key:48s} {old[key]:>12.6g} -> {value:<12.6g} {100 * (value - old[key]) / old[key]:+7.1f}%")
        else:
            print(f"  {key:48s} {old[key]:>12.6g} -> {value:<12.6g}")
    for key, digest in record["digests"].items():
        if key in before.get("digests", {}) and before["digests"][key] != digest:
            print(f"  {key:48s} output digest changed: {before['digests'][key]} -> {digest}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, help="the n of BENCH_<n>.json, written at the repository root")
    parser.add_argument("--out", type=Path, help="write here instead")
    parser.add_argument("--seconds", type=float, default=20.0, help="bench/run.py seconds per workload")
    parser.add_argument("--seeds", type=int, nargs=2, default=[1, 10], metavar=("FIRST", "LAST"),
                        help="inclusive range of analyze_scaling.py seeds")
    parser.add_argument("--smallest", action="store_true", help="each mix at its smallest rule count only")
    args = parser.parse_args()
    if args.out is None and args.pr is None:
        parser.error("give --pr or --out")
    out = args.out or ROOT / f"BENCH_{args.pr}.json"

    figures, correct = bench_figures(args.seconds)
    digests: dict[str, str] = {}
    for mix, rules in MIXES.items():
        mix_figures, mix_digests = scaling_figures(mix, rules[:1] if args.smallest else rules, args.seeds)
        figures.update(mix_figures)
        digests.update(mix_digests)
    record = {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "bench": {"seed": 201, "seconds": args.seconds, "correct": correct},
        "scaling": {"seeds": args.seeds, "rules": {m: list(r[:1] if args.smallest else r) for m, r in MIXES.items()}},
        "figures": figures,
        "digests": digests,
    }
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    before = previous(args.pr)
    if before is not None and before.resolve() != out.resolve():
        compare(record, json.loads(before.read_text(encoding="utf-8")), before.name)
    else:
        print("no earlier BENCH_*.json to compare with")
    if not correct:
        print("bench/run.py: some outputs were wrong", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
