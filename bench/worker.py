"""Runs one workload's operations in a closed loop and reports timings.

    python3 bench/worker.py WORKDIR SECONDS TRACE SPANS_FILE

Run by ``run.py`` in a process of its own, so that its peak RSS is the
workload's.  One thread runs one operation at a time; an operation is
the workload's commands, each one in-process ``validus.cli.main`` call
with ``-o`` pointing to a file in WORKDIR.  After one untimed warm-up
operation, operations start until SECONDS have passed (at least
MIN_OPS); a speed calibration (``speed.py``) runs between operations.
With TRACE 1, untraced and traced operations alternate; the traced ones
record spans, which are written to SPANS_FILE at the end.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from speed import calibrate
from tracer import Tracer, layer_metrics

MIN_OPS = 3


def run_op(commands: list[dict], out_dir: Path, kept: set[str]) -> list[dict]:
    import validus.cli

    results = []
    for spec in commands:
        out = out_dir / f"{spec['label']}.tmp"
        error, code = None, None
        start = perf_counter()
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                code = validus.cli.main(spec["argv"] + ["-o", str(out)])
        except (Exception, SystemExit):  # raising (argparse exits) counts as failed
            error = traceback.format_exc(limit=3)
        elapsed = perf_counter() - start
        digest = None
        if out.exists():
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            if digest in kept:
                out.unlink()
            else:
                kept.add(digest)
                out.rename(out_dir / f"{spec['label']}-{digest}.out")
        results.append({"label": spec["label"], "s": elapsed, "exit": code,
                        "error": error, "digest": digest})
    return results


def peak_rss_kb() -> int:
    """High-water RSS of this process.  ``ru_maxrss`` would not do: Linux
    carries the forking parent's peak over into it across exec."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(workdir: str, seconds: float, trace: bool, spans_file: str) -> None:
    root = Path(workdir)
    plan = json.loads((root / "plan.json").read_text())
    os.chdir(root / "inputs")
    out_dir = root / "out"
    out_dir.mkdir(exist_ok=True)
    import validus.cli  # noqa: F401  imported before timing starts

    tracer = Tracer(plan["rule_shapes"]) if trace else None
    ops, layers, spans = [], [], []
    kept: set[str] = set()
    # one untimed operation first: the first one in a process runs slower
    # (cold caches, the CPU clocking up) and would widen the spread
    run_op(plan["commands"], out_dir, set())
    for leftover in out_dir.iterdir():
        leftover.unlink()
    begin = perf_counter()
    speed = calibrate()
    while True:
        traced = trace and len(ops) % 2 == 1
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
            root_span = tracer.begin("bench.op")
        start = perf_counter()
        try:
            results = run_op(plan["commands"], out_dir, kept)
        finally:
            wall = perf_counter() - start
            if traced:
                tracer.end(root_span)
                tracer.uninstall()
        if traced:
            layers.append(layer_metrics(tracer.spans, tracer.counts))
            spans.append(tracer.spans)
        # the calibrations before and after an operation bracket its speed
        after = calibrate()
        ops.append({"traced": traced, "wall": wall, "calibration": (speed + after) / 2,
                    "brackets": (speed, after), "commands": results})
        speed = after
        done = perf_counter() - begin
        typical = statistics.median(op["wall"] for op in ops)
        # in a traced run, stop only after a traced operation: pairs stay whole
        if len(ops) >= (2 * MIN_OPS if trace else MIN_OPS) and done + typical > seconds \
                and (traced or not trace):
            break

    result = {"ops": ops, "maxrss_kb": peak_rss_kb()}
    if trace:
        result["layers"] = layers
        result["missing"] = tracer.missing
        with open(spans_file, "w", encoding="utf-8") as handle:
            for number, op_spans in enumerate(spans):
                base = op_spans[-1][3]  # the root span ends last
                for sid, parent, name, start, end in op_spans:
                    handle.write(json.dumps({"op": number, "id": sid, "parent": parent, "name": name,
                                             "start": round(start - base, 9),
                                             "end": round(end - base, 9)}) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1", sys.argv[4])
