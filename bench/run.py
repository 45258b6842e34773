"""Seeded benchmark of the validus CLI: validate, analyze/simplify, classify.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout; stdlib only.  The benchmark generates
the workload's input files from the seed (``workloads.py``), measures
set-up time, then runs the workload's operations in a worker process
for S seconds (``worker.py``) and checks every distinct output against
an expectation computed without validus (``checks.py``).  Every time
it reports is scaled to a reference CPU speed by a calibration loop
measured next to it (``speed.py``); the unscaled median wall time of
an operation is printed as ``op_wall_s``.

It prints one line per metric, then, as the last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json, with ``--trace 1`` the per-layer ones, measured on the
traced operations of a run in which untraced and traced operations
alternate.  The spans of a traced run and each run's full results go
to ``.bench_work/`` in the checkout.

Exits 2 without a result when the checkout holds no ``src/validus``,
and 1 when the worker process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_output, judge_op  # noqa: E402
from speed import scaled  # noqa: E402
from workloads import GENERATORS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_RUNS = 15
WORKER_TIMEOUT_S = 150


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup() -> list[float]:
    """Time for fresh interpreters to start and finish ``import validus.cli``,
    scaled to the reference CPU speed.

    The child reads the (system-wide) monotonic clock right after the
    import and then calibrates, so the scaling uses the speed of the CPU
    the child ran on.
    """
    code = ("import time, validus.cli; done = time.perf_counter(); import sys; "
            f"sys.path.insert(0, {str(HERE)!r}); from speed import calibrate; print(done, calibrate())")
    times = []
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        out = subprocess.run([sys.executable, "-c", code], env=_env(), check=True, timeout=60,
                             capture_output=True, text=True).stdout
        done, speed = (float(x) for x in out.split())
        times.append(scaled(done - start, speed))
    return times


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = GENERATORS[name](seed)
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "inputs").mkdir(parents=True)
    try:
        for filename, text in workload.files.items():
            (workdir / "inputs" / filename).write_text(text, encoding="utf-8")
        commands = [vars(c) for c in workload.commands]
        (workdir / "plan.json").write_text(json.dumps(
            {"commands": commands, "rule_shapes": workload.rule_shapes}))
        setup = measure_setup()
        spans_file = WORK / f"spans-{name}-{seed}.jsonl"
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(workdir), str(seconds),
             "1" if trace else "0", str(spans_file)],
            env=_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise RuntimeError(f"worker for {name} exited {proc.returncode}")
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
        outputs = {}
        for path in (workdir / "out").glob("*.out"):
            label, digest = path.stem.split("-", 1)
            outputs[digest] = check_output(label, path.read_text(encoding="utf-8"), workload.expect)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = raw["ops"]
    problems = [judge_op(op, commands, outputs) for op in ops]
    failed = sum(1 for p in problems if p)
    for p in problems:
        for line in p[:5]:
            print(f"FAILED: {line}", file=sys.stderr)
    untraced = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    command_s = {c["label"]: _median([scaled(op["commands"][i]["s"], op["calibration"]) for op in untraced])
                 for i, c in enumerate(commands)}
    metrics = {
        "setup_s": (_median(setup), "s", len(setup)),
        "op_s": (_median([scaled(op["wall"], op["calibration"]) for op in untraced]), "s", len(untraced)),
        "peak_rss_mb": (raw["maxrss_kb"] / 1024, "MB", 1),
    }
    named = {f"{label}_s": (v, "s", len(untraced)) for label, v in command_s.items()}
    if "verdicts" in workload.size and command_s.get("validate"):
        named["verdicts_per_s"] = (workload.size["verdicts"] / command_s["validate"], "1/s", len(untraced))
    named["fail_ratio"] = (failed / len(ops), "ratio", len(ops))
    named["op_wall_s"] = (_median([op["wall"] for op in untraced]), "s", len(untraced))
    named["calibration_s"] = (_median([op["calibration"] for op in untraced]), "s", len(untraced))
    layers = {}
    if trace:
        # per-layer times are scaled like op_s, with their operation's calibration
        per_op = [{k: scaled(v, op["calibration"]) if k.endswith("_s") else v for k, v in m.items()}
                  for m, op in zip(raw["layers"], traced)]
        for key in per_op[0]:
            unit = "s" if key.endswith("_s") else "ratio" if key.endswith("_ratio") else "count"
            layers[key] = (_median([m[key] for m in per_op]), unit, len(traced))
        traced_s = _median([scaled(op["wall"], op["calibration"]) for op in traced])
        layers["trace.op_s"] = (traced_s, "s", len(traced))
        layers["trace.untraced_op_s"] = (metrics["op_s"][0], "s", len(untraced))
        layers["trace.overhead_s"] = (traced_s - metrics["op_s"][0], "s", len(traced))
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "why": workload.why, "size": workload.size,
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "attempted": len(ops), "failed": failed,
        "op_walls": [(op["traced"], op["wall"], *op["brackets"]) for op in ops],
        "metrics": metrics, "named": named, "layers": layers,
        "missing_trace_targets": raw.get("missing", []),
        "spans_file": str(spans_file.relative_to(ROOT)) if trace else None,
    }


def report(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} size {json.dumps(result['size'])}")
    print(f"  why: {result['why']}")
    print(f"  python {result['python']}, cpu_count {result['cpu_count']}, "
          f"{result['attempted']} operations, {result['failed']} failed")
    groups = [result["named"], result["metrics"]] if not result["trace"] else [result["layers"]]
    for group in groups:
        for key, (value, unit, n) in group.items():
            print(f"  {key:42s} {value:14.6g} {unit:6s} n={n}")
    for target in result["missing_trace_targets"]:
        print(f"  warning: trace target {target} not found; its metrics read 0")
    if result["spans_file"]:
        print(f"  spans written to {result['spans_file']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "validus" / "cli.py").is_file():
        print(f"error: no validus sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = list(GENERATORS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.SubprocessError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        (WORK / "results").mkdir(parents=True, exist_ok=True)
        (WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=2))
        report(result)
        results.append(result)

    key = "layers" if args.trace else "metrics"
    if len(results) == 1:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _n) in results[0][key].items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": v, "unit": u}
                   for r in results for k, (v, u, _n) in {**r[key], **r["named"]}.items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
