"""Acceptance suite: one test per criterion, one printed line each.

Every check is exact (rational arithmetic or structural equality); the
randomized criteria run at their stated corpus sizes with fixed seeds.
"""

import json
import random
from fractions import Fraction

from helpers import and_, grid_oracle, implies, not_, or_, random_rule, random_system
from validus.analyzer import (
    CONTRADICTION,
    PARTIAL_INFEASIBILITY,
    TAUTOLOGY,
    analyze_ruleset,
    compile_rules,
    detect_nonconstraining,
    detect_nonrelaxing,
    detect_redundant,
    is_satisfiable,
    lint_rule,
    ruleset_implies,
    simplify_ruleset,
)
from validus.classifier import ADMISSIBLE_SIGNATURES, EXCLUDED_SIGNATURES, classify_rule
from validus.cli import main as cli_main
from validus.csvio import dataset_from_csv, write_table
from validus.evaluator import EvalOptions, evaluate_ruleset
from validus.model import NA, DataPoint, build_dataset
from validus.rules import format_rule, parse_rule, parse_rules
from validus.schema import parse_schema
from validus.tribool import TriBool

T, F, N = TriBool.TRUE, TriBool.FALSE, TriBool.NA

SCHEMA = parse_schema("""
t.x : numeric
t.y : numeric
t.gender : categorical {male, female}
t.income : numeric
""")

PERSON_SCHEMA = parse_schema(
    "person.age : integer\nperson.job : categorical {employed, unemployed}\n"
)

PERSON_CSV = "id,age,job\n1,25,unemployed\n2,employed,42\n"

SECTION_RULES = (
    "int_age: is_integer(age)\n"
    "nonneg: age >= 0\n"
    'emp15: if (job == "employed") age >= 15\n'
    "avg: mean(age) >= 5\n"
)


def _report(number: int, description: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS  {description}")


def test_criterion_1_golden_rule_set_corpus():
    def body():
        # (a) partially infeasible pair
        pair = parse_rules(
            'a: if (gender == "male") income > 2000\n'
            'b: if (gender == "male") income < 1000\n'
        )
        assert is_satisfiable(compile_rules(pair, SCHEMA))
        findings, unsupported = analyze_ruleset(pair, SCHEMA)
        assert unsupported == []
        assert [(f.kind, f.variable, f.value) for f in findings] == [
            (PARTIAL_INFEASIBILITY, "gender", "male")
        ]

        # (b) simple redundancy
        redundant = parse_rules("a: x >= 0\nb: x >= 1")
        assert [f.rule for f in detect_redundant(redundant, SCHEMA)] == ["a"]
        simplified, _ = simplify_ruleset(redundant, SCHEMA)
        assert [format_rule(r) for r in simplified] == ["b: x >= 1"]

        # (c) nonrelaxing clause
        nonrelaxing = parse_rules("a: if (x >= 0) y >= 0\nb: x >= 0")
        assert [f.rule for f in detect_nonrelaxing(nonrelaxing, SCHEMA)] == ["a"]
        simplified, _ = simplify_ruleset(nonrelaxing, SCHEMA)
        assert [format_rule(r) for r in simplified] == ["a: y >= 0", "b: x >= 0"]

        # (d) nonconstraining clause
        nonconstraining = parse_rules("a: if (x > 0) y > 0\nb: if (x < 1) y > 1")
        assert [f.rule for f in detect_nonconstraining(nonconstraining, SCHEMA)] == ["a"]
        simplified, _ = simplify_ruleset(nonconstraining, SCHEMA)
        assert [format_rule(r) for r in simplified] == ["a: y > 0", "b: if (x < 1) y > 1"]

    _report(1, "rule-set corpus: partial infeasibility, redundancy, "
               "nonrelaxing, nonconstraining (exact)", body)


def test_criterion_2_lint():
    def body():
        tautology = lint_rule(parse_rule("r: x >= 0 or x <= 1"), SCHEMA)
        assert tautology is not None and tautology.kind == TAUTOLOGY
        contradiction = lint_rule(parse_rule("r: x >= 0 and x <= -1"), SCHEMA)
        assert contradiction is not None and contradiction.kind == CONTRADICTION
        assert lint_rule(parse_rule("r: x >= 0"), SCHEMA) is None

    _report(2, "lint: tautology and contradiction flagged, a genuine rule is not", body)


def test_criterion_3_classification():
    def body():
        golden = [
            ("r: age >= 0", "ssss"),
            ('r: if (job == "employed") age >= 15', "sssm"),
            ("r: mean(age) >= 5", "ssms"),
            ("r: abs(price - price@1) <= 0.1 * price@1", "smss"),
            ("r: abs(mean(price) - mean(price@1)) <= 0.1 * mean(price@1)", "smms"),
            ("r: mean(trade.exports) == mean(partner.imports)", "msmm"),
        ]
        assert [str(classify_rule(parse_rule(t))) for t, _ in golden] == [s for _, s in golden]

        rng = random.Random(20240811)
        seen = set()
        for i in range(1000):
            sig = str(classify_rule(random_rule(rng, name=f"g{i}")))
            assert sig in ADMISSIBLE_SIGNATURES and sig not in EXCLUDED_SIGNATURES
            seen.add(sig)
        assert len(seen) >= 6

    _report(3, "classification: golden signatures, 1000 generated rules stay "
               "inside the ten admissible classes", body)


def test_criterion_4_solver_oracle_equivalence():
    def body():
        rng = random.Random(424242)
        for _ in range(500):
            system = random_system(rng, multivar=False)
            assert bool(is_satisfiable(system)) == grid_oracle(system)

    _report(4, "solver agrees with the brute-force grid oracle on 500 random systems", body)


def test_criterion_5_simplification_soundness():
    def body():
        golden = [
            "a: x >= 0\nb: x >= 1",
            "a: if (x >= 0) y >= 0\nb: x >= 0",
            "a: if (x > 0) y > 0\nb: if (x < 1) y > 1",
            'a: if (gender == "male") income > 2000\nb: if (gender == "male") income < 1000',
        ]
        rng = random.Random(20240613)

        def random_rules_text():
            def atom():
                v = rng.choice(["x", "y"])
                coeff = rng.choice(["", "", "2 * ", "-1 * "])
                rel = rng.choice(["<", "<=", ">=", ">", "=="])
                return f"{coeff}{v} {rel} {rng.randint(-2, 2)}"

            lines = []
            for i in range(rng.randint(2, 4)):
                if rng.random() < 0.5:
                    lines.append(f"r{i}: if ({atom()}) {atom()}")
                else:
                    lines.append(f"r{i}: {atom()}")
            return "\n".join(lines)

        checked = 0
        cases = list(golden)
        while len(cases) < len(golden) + 200:
            text = random_rules_text()
            if is_satisfiable(compile_rules(parse_rules(text), SCHEMA)):
                cases.append(text)
        for text in cases:
            rules = parse_rules(text)
            simplified, _ = simplify_ruleset(rules, SCHEMA)
            assert ruleset_implies(rules, simplified, SCHEMA)
            assert ruleset_implies(simplified, rules, SCHEMA)
            assert detect_redundant(simplified, SCHEMA) == []
            assert detect_nonrelaxing(simplified, SCHEMA) == []
            assert detect_nonconstraining(simplified, SCHEMA) == []
            checked += 1
        assert checked == len(golden) + 200

    _report(5, "simplification preserves the solution set on golden plus 200 "
               "random satisfiable sets, and reaches a fixpoint", body)


def test_criterion_6_three_valued_semantics():
    def body():
        assert {a: not_(a) for a in (T, F, N)} == {T: F, F: T, N: N}
        and_table = {(a, b): and_([a, b]) for a in (T, F, N) for b in (T, F, N)}
        or_table = {(a, b): or_([a, b]) for a in (T, F, N) for b in (T, F, N)}
        if_table = {(a, b): implies(a, b) for a in (T, F, N) for b in (T, F, N)}
        assert len(and_table) + len(or_table) + len(if_table) == 27
        for (a, b), value in and_table.items():
            expected = F if F in (a, b) else (N if N in (a, b) else T)
            assert value is expected
        for (a, b), value in or_table.items():
            expected = T if T in (a, b) else (N if N in (a, b) else F)
            assert value is expected
        for (a, b), value in if_table.items():
            assert value is or_([not_(a), b])

        # monotonicity under single-value NA mutation
        schema = parse_schema("t.a : numeric\nt.b : numeric\nt.c : categorical {p, q}\n")
        rng = random.Random(321321)
        atoms = ["a >= 0", "a > b", "b <= 2", "a + b == 1", 'c == "p"',
                 'in_set(c, {"p"})', "mean(a) >= 1", "sum(b) < 4", "count(a) >= 2", "a@1 <= a"]

        def rule_text():
            def expr(depth):
                if depth <= 0 or rng.random() < 0.4:
                    return rng.choice(atoms)
                kind = rng.random()
                if kind < 0.4:
                    return f"({expr(depth - 1)}) and ({expr(depth - 1)})"
                if kind < 0.8:
                    return f"({expr(depth - 1)}) or ({expr(depth - 1)})"
                return f"not ({expr(depth - 1)})"

            return f"m: {expr(2)}"

        def random_dataset():
            from validus.model import Key

            points = []
            for unit in ("1", "2", "3"):
                for time in ("1", "2"):
                    for var in ("a", "b"):
                        value = NA if rng.random() < 0.15 else Fraction(rng.randint(-3, 3))
                        points.append(DataPoint(Key("t", time, unit, var), value))
                    points.append(DataPoint(Key("t", time, unit, "c"), rng.choice(["p", "q", NA])))
            return build_dataset(points)

        mutations = 0
        while mutations < 500:
            rules = parse_rules(rule_text())
            dataset = random_dataset()
            base = evaluate_ruleset(rules, dataset, schema, EvalOptions("propagate"))
            base_map = {(e.rule, e.unit, e.time): e.result for e in base.entries}
            for key in rng.sample(sorted(dataset.key_set), 8):
                if dataset.get(key) is NA:
                    continue
                points = dict(dataset.points)
                points[key] = NA
                mutated = build_dataset([DataPoint(k, v) for k, v in points.items()])
                report = evaluate_ruleset(rules, mutated, schema, EvalOptions("propagate"))
                mutations += 1
                for entry in report.entries:
                    before = base_map[(entry.rule, entry.unit, entry.time)]
                    assert not (before is T and entry.result is F)
                    assert not (before is F and entry.result is T)
        assert mutations >= 500

    _report(6, "Kleene tables exact (27 cells plus negation); NA monotone on "
               "500 dataset mutations", body)


def test_criterion_7_end_to_end(tmp_path, capsys):
    def body():
        rules_path = tmp_path / "rules.txt"
        schema_path = tmp_path / "schema.txt"
        data_path = tmp_path / "person.csv"
        report_path = tmp_path / "report.json"
        rules_path.write_text(SECTION_RULES)
        schema_path.write_text(
            "person.age : integer\nperson.job : categorical {employed, unemployed}\n"
        )
        data_path.write_text(PERSON_CSV)
        code = cli_main([
            "validate",
            "--rules", str(rules_path),
            "--schema", str(schema_path),
            "--data", f"person={data_path}",
            "-o", str(report_path),
        ])
        assert code == 1
        report = json.loads(report_path.read_text())
        verdicts = {(e["rule"], e["unit"]): e["result"] for e in report["entries"]}
        for rule in ("int_age", "nonneg", "emp15"):
            assert verdicts[(rule, "1")] == "True"
        assert verdicts[("int_age", "2")] == "False"
        assert verdicts[("nonneg", "2")] == "NA"

    _report(7, "end-to-end validation of the two-person dataset exits 1 with "
               "the expected verdicts", body)


def test_criterion_8_round_trips():
    def body():
        corpus = [
            "r1: age >= 0",
            'r2: if (job == "employed") age >= 15',
            "r3: mean(age) >= 5",
            "r4: abs(price - price@1) <= 0.1 * price@1",
            "r5: abs(mean(price) - mean(price@1)) <= 0.1 * mean(price@1)",
            "r6: mean(trade.exports) == mean(partner.imports)",
            "r7: x >= 0 or x <= 1",
            "r8: x >= 0 and x <= -1",
            'r9: if (gender == "male") income > 2000',
            'r10: in_set(job, {"employed", "unemployed"})',
            "r11: is_integer(age)",
            "r12: not (x > 0 or y > 0)",
        ]
        for text in corpus:
            rule = parse_rule(text)
            assert parse_rule(format_rule(rule)) == rule
        rng = random.Random(5150)
        for i in range(200):
            rule = random_rule(rng, name=f"g{i}")
            assert parse_rule(format_rule(rule)).body == rule.body

        for csv_text in (PERSON_CSV, "id,time,price\n1,2020,10\n1,2021,12.5\n2,2020,NA\n"):
            table = "person" if "age" in csv_text else "shop"
            ds = dataset_from_csv({table: csv_text})
            assert dataset_from_csv({table: write_table(ds, table)}) == ds

    _report(8, "parse/format/parse on the rule corpus and CSV "
               "ingest/export/ingest both round-trip", body)
