"""Tests of the benchmark's own output checks.

    python3 bench/test_checks.py

A genuine output of each command must pass its check, and a tampered
one (a flipped verdict, a missing finding, a wrong signature, a dropped
rule) must make the operation count as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from checks import check_output, judge_op  # noqa: E402


def run_commands(workload: workloads.Workload) -> dict[str, tuple[int, str]]:
    """{label: (exit code, output text)} of one operation."""
    from validus.cli import main

    results = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for filename, text in workload.files.items():
            Path(tmp, filename).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        try:
            for command in workload.commands:
                with contextlib.redirect_stderr(io.StringIO()):
                    code = main(command.argv + ["-o", "out"])
                results[command.label] = (code, Path(tmp, "out").read_text(encoding="utf-8"))
        finally:
            os.chdir(cwd)
    return results


def failed(workload: workloads.Workload, outputs: dict[str, tuple[int, str]]) -> bool:
    """Whether the benchmark counts this operation as failed."""
    commands = [vars(c) for c in workload.commands]
    op = {"commands": []}
    checked = {}
    for spec in commands:
        code, text = outputs[spec["label"]]
        digest = hashlib.sha256(text.encode()).hexdigest()
        checked[digest] = check_output(spec["label"], text, workload.expect)
        op["commands"].append({"exit": code, "error": None, "digest": digest})
    return bool(judge_op(op, commands, checked))


class ValidateChecks(unittest.TestCase):
    def setUp(self):
        self.workload = workloads.validate_records(3, records=300)
        self.outputs = run_commands(self.workload)

    def test_genuine_report_passes(self):
        self.assertFalse(failed(self.workload, self.outputs))

    def test_flipped_verdict_fails(self):
        code, text = self.outputs["validate"]
        report = json.loads(text)
        entry = next(e for e in report["entries"] if e["result"] == "True")
        entry["result"] = "False"
        self.assertTrue(failed(self.workload, {"validate": (code, json.dumps(report))}))

    def test_flipped_verdict_with_matching_summary_fails(self):
        code, text = self.outputs["validate"]
        report = json.loads(text)
        entry = next(e for e in report["entries"] if e["result"] == "NA")
        entry["result"] = "True"
        tally = report["summary"]["per_rule"][entry["rule"]]
        tally["na"] -= 1
        tally["true"] += 1
        self.assertTrue(failed(self.workload, {"validate": (code, json.dumps(report))}))

    def test_panel_report_passes(self):
        workload = workloads.validate_panel(3, units=6, occasions=5)
        self.assertFalse(failed(workload, run_commands(workload)))

    def test_wrong_exit_code_or_raise_fails(self):
        code, text = self.outputs["validate"]
        self.assertTrue(failed(self.workload, {"validate": (0, text)}))
        commands = [vars(c) for c in self.workload.commands]
        op = {"commands": [{"exit": None, "error": "Traceback ...", "digest": None}]}
        self.assertTrue(judge_op(op, commands, {}))


class AnalyzeChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workload = workloads.analyze_ruleset(3)
        cls.outputs = run_commands(cls.workload)

    def test_genuine_outputs_pass(self):
        self.assertFalse(failed(self.workload, self.outputs))

    def test_missing_finding_fails(self):
        code, text = self.outputs["analyze"]
        report = json.loads(text)
        report["findings"] = [f for f in report["findings"] if f.get("rule") != "weak"]
        self.assertTrue(failed(self.workload, {**self.outputs, "analyze": (code, json.dumps(report))}))

    def test_unsatisfiable_fails(self):
        code, text = self.outputs["analyze"]
        report = json.loads(text)
        report["summary"]["satisfiable"] = False
        self.assertTrue(failed(self.workload, {**self.outputs, "analyze": (code, json.dumps(report))}))

    def test_simplify_keeping_redundant_rule_fails(self):
        code, text = self.outputs["simplify"]
        weak = next(line for line in self.workload.files["rules.txt"].splitlines()
                    if line.startswith("weak:"))
        self.assertTrue(failed(self.workload, {**self.outputs, "simplify": (code, text + weak + "\n")}))

    def test_simplify_dropping_a_needed_rule_fails(self):
        code, text = self.outputs["simplify"]
        kept = "".join(line + "\n" for line in text.splitlines() if not line.startswith("strong:"))
        self.assertTrue(failed(self.workload, {**self.outputs, "simplify": (code, kept)}))

    def test_simplify_output_that_does_not_reparse_fails(self):
        code, text = self.outputs["simplify"]
        self.assertTrue(failed(self.workload, {**self.outputs, "simplify": (code, text + "broken: x0 >>= 1\n")}))


class ClassifyChecks(unittest.TestCase):
    def setUp(self):
        self.workload = workloads.classify_rules(3, n_rules=70)
        self.outputs = run_commands(self.workload)

    def test_every_signature_is_generated(self):
        self.assertEqual(len(set(self.workload.expect["signatures"].values())), 10)

    def test_genuine_report_passes(self):
        self.assertFalse(failed(self.workload, self.outputs))

    def test_wrong_signature_fails(self):
        code, text = self.outputs["classify"]
        report = json.loads(text)
        report["rules"][5]["signature"] = "ssss" if report["rules"][5]["signature"] != "ssss" else "sssm"
        self.assertTrue(failed(self.workload, {"classify": (code, json.dumps(report))}))


if __name__ == "__main__":
    unittest.main()
