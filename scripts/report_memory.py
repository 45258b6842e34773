"""Peak memory of ``validus validate`` and of its report writer.

Generates the seeded validate-records table of ``bench/workloads.py``
with ``--records`` rows (12 record rules), then runs ``validate`` on it
in JSON and in CSV, each format in two fresh processes:
- one plain, for the process's high-water RSS (VmHWM) and the report's
  size, and
- one that traces allocations with ``tracemalloc`` while
  ``cli._emit_report`` runs, for the writer's added memory: the traced
  peak during the call minus the traced memory when it starts.
It prints one row per format and exits 1 when the writer adds more
than a quarter of the report's size.  Stdlib only; Linux (VmHWM is read
from ``/proc/self/status``).

    python scripts/report_memory.py [--records N] [--seed S]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIMIT = 0.25  # the writer's added memory, as a share of the report's size


def vm_hwm_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def validate_argv(workdir: Path, fmt: str) -> list[str]:
    return ["validate", "--rules", str(workdir / "rules.txt"), "--schema", str(workdir / "schema.txt"),
            "--data", f"person={workdir / 'person.csv'}", "--format", fmt, "-o", str(workdir / f"report.{fmt}")]


def writer_added_bytes(argv: list[str]) -> int:
    """Run ``validus.cli.main(argv)`` in this process and return the
    memory the report writer added: the traced peak while
    ``_emit_report`` runs minus the traced memory when it starts."""
    import validus.cli as cli

    emit_report = cli._emit_report
    added = []

    def traced(*args, **kwargs):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            emit_report(*args, **kwargs)
            added.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            if started:
                tracemalloc.stop()

    cli._emit_report = traced
    try:
        cli.main(argv)
    finally:
        cli._emit_report = emit_report
    if len(added) != 1:
        raise RuntimeError(f"validate wrote {len(added)} reports, not one")
    return added[0]


def child(workdir: Path, fmt: str, trace: bool) -> None:
    argv = validate_argv(workdir, fmt)
    if trace:
        result = {"added": writer_added_bytes(argv)}
    else:
        import validus.cli

        validus.cli.main(argv)
        result = {"vm_hwm_kb": vm_hwm_kb(), "report": (workdir / f"report.{fmt}").stat().st_size}
    print(json.dumps(result))


def run_child(workdir: Path, fmt: str, trace: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, __file__, "--child", str(workdir), fmt, str(int(trace))],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--records", type=int, default=40_000, help="rows of the table (default 40000)")
    parser.add_argument("--seed", type=int, default=201, help="workload seed (default 201)")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import validate_records

    workload = validate_records(args.seed, records=args.records)
    failed = False
    mb = 1 << 20
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, text in workload.files.items():
            (workdir / name).write_text(text, encoding="utf-8", newline="")
        print(f"validate-records, seed {args.seed}: {args.records} records x {workload.size['rules']} rules")
        print(f"{'format':<7} {'VmHWM MB':>9} {'report MB':>10} {'writer adds MB':>15} {'share':>7}")
        for fmt in ("json", "csv"):
            plain = run_child(workdir, fmt, trace=False)
            added = run_child(workdir, fmt, trace=True)["added"]
            share = added / plain["report"]
            failed |= share > LIMIT
            print(f"{fmt:<7} {plain['vm_hwm_kb'] / 1024:>9.1f} {plain['report'] / mb:>10.2f} "
                  f"{added / mb:>15.2f} {share:>7.3f}")
    print(f"limit: the writer adds at most {LIMIT} of the report's size; "
          + ("exceeded" if failed else "met for both formats"))
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(Path(sys.argv[2]), sys.argv[3], sys.argv[4] == "1")
    else:
        sys.exit(main())
