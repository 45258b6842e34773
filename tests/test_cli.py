"""Command-line behavior: exit codes, report shapes, determinism."""

import json

import pytest

from validus.cli import main

PERSON_SCHEMA = "person.age : integer\nperson.job : categorical {employed, unemployed}\n"
PERSON_CSV = "id,age,job\n1,25,unemployed\n2,employed,42\n"
SECTION_RULES = (
    "int_age: is_integer(age)\n"
    "nonneg: age >= 0\n"
    'emp15: if (job == "employed") age >= 15\n'
    "avg: mean(age) >= 5\n"
)

XY_SCHEMA = "t.x : numeric\nt.y : numeric\nt.gender : categorical {male, female}\nt.income : numeric\n"


@pytest.fixture
def workspace(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return tmp_path, write


def run(argv):
    return main(argv)


def test_validate_example_fails_with_exit_1(workspace, capsys):
    tmp, write = workspace
    code = run([
        "validate",
        "--rules", write("rules.txt", SECTION_RULES),
        "--schema", write("schema.txt", PERSON_SCHEMA),
        "--data", f"person={write('person.csv', PERSON_CSV)}",
        "-o", str(tmp / "report.json"),
    ])
    assert code == 1
    report = json.loads((tmp / "report.json").read_text())
    assert list(report) == ["rules", "entries", "findings", "summary"]
    verdicts = {(e["rule"], e["unit"]): e["result"] for e in report["entries"]}
    assert verdicts[("int_age", "1")] == "True"
    assert verdicts[("int_age", "2")] == "False"
    assert verdicts[("nonneg", "2")] == "NA"
    assert verdicts[("avg", "ALL")] == "NA"


def test_validate_all_true_exits_0(workspace, capsys):
    tmp, write = workspace
    clean_csv = write("person.csv", "id,age,job\n1,25,employed\n")
    code = run([
        "validate",
        "--rules", write("rules.txt", "r: age >= 0\n"),
        "--schema", write("schema.txt", PERSON_SCHEMA),
        "--data", f"person={clean_csv}",
        "-o", str(tmp / "out.json"),
    ])
    assert code == 0


def test_validate_na_only_warns_unless_strict(workspace, capsys):
    tmp, write = workspace
    na_csv = write("person.csv", "id,age,job\n1,NA,employed\n")
    args = [
        "validate",
        "--rules", write("rules.txt", "r: age >= 0\n"),
        "--schema", write("schema.txt", PERSON_SCHEMA),
        "--data", f"person={na_csv}",
        "-o", str(tmp / "out.json"),
    ]
    assert run(args) == 0
    assert "NA" in capsys.readouterr().err
    assert run(args + ["--strict-na"]) == 1


def test_validate_missing_schema_file(workspace, capsys):
    tmp, write = workspace
    code = run([
        "validate",
        "--rules", write("rules.txt", "r: age >= 0\n"),
        "--schema", str(tmp / "missing.txt"),
        "--data", f"person={write('person.csv', PERSON_CSV)}",
    ])
    assert code == 2


def test_classify_table(workspace, capsys):
    tmp, write = workspace
    code = run(["classify", "--rules", write("rules.txt", SECTION_RULES), "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "name,signature,level"
    assert "int_age,ssss,0" in lines
    assert "emp15,sssm,1" in lines
    assert "avg,ssms,1" in lines


def test_classify_empty_file(workspace, capsys):
    tmp, write = workspace
    assert run(["classify", "--rules", write("rules.txt", "# nothing\n")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rules"] == []


def test_classify_parse_error_exits_2(workspace, capsys):
    tmp, write = workspace
    assert run(["classify", "--rules", write("rules.txt", "r: age >=\n")]) == 2
    # the message carries a line:column location
    assert "error: parse error at 2:1" in capsys.readouterr().err


def test_analyze_partial_infeasibility(workspace, capsys):
    tmp, write = workspace
    rules = 'a: if (gender == "male") income > 2000\nb: if (gender == "male") income < 1000\n'
    code = run([
        "analyze",
        "--rules", write("rules.txt", rules),
        "--schema", write("schema.txt", XY_SCHEMA),
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert [f["kind"] for f in report["findings"]] == ["partial_infeasibility"]
    assert report["findings"][0]["variable"] == "gender"
    assert report["findings"][0]["value"] == "male"
    assert report["summary"]["satisfiable"] is True


def test_analyze_infeasible_exits_3(workspace, capsys):
    tmp, write = workspace
    code = run([
        "analyze",
        "--rules", write("rules.txt", "a: x >= 0\nb: x <= -1\n"),
        "--schema", write("schema.txt", XY_SCHEMA),
    ])
    assert code == 3


def test_analyze_clean_set(workspace, capsys):
    tmp, write = workspace
    # implies no bounds, excludes no level, nothing redundant
    code = run([
        "analyze",
        "--rules", write("rules.txt", 'a: if (gender == "male") income > 2000\nb: x != 0\n'),
        "--schema", write("schema.txt", XY_SCHEMA),
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["findings"] == []


def test_lint_flags_tautology_and_contradiction(workspace, capsys):
    tmp, write = workspace
    code = run([
        "lint",
        "--rules", write("rules.txt", "a: x >= 0 or x <= 1\nb: x >= 0 and x <= -1\nc: x >= 0\n"),
        "--schema", write("schema.txt", XY_SCHEMA),
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert [(f["kind"], f["rule"]) for f in report["findings"]] == [
        ("tautology", "a"), ("contradiction", "b"),
    ]


def test_simplify_nonrelaxing_file(workspace, capsys):
    tmp, write = workspace
    out = tmp / "simplified.txt"
    code = run([
        "simplify",
        "--rules", write("rules.txt", "a: if (x >= 0) y >= 0\nb: x >= 0\n"),
        "--schema", write("schema.txt", XY_SCHEMA),
        "-o", str(out),
    ])
    assert code == 0
    assert out.read_text() == "a: y >= 0\nb: x >= 0\n"
    assert "nonrelaxing" in capsys.readouterr().err


def test_simplify_nonconstraining_file(workspace, capsys):
    tmp, write = workspace
    out = tmp / "simplified.txt"
    code = run([
        "simplify",
        "--rules", write("rules.txt", "a: if (x > 0) y > 0\nb: if (x < 1) y > 1\n"),
        "--schema", write("schema.txt", XY_SCHEMA),
        "-o", str(out),
    ])
    assert code == 0
    assert out.read_text() == "a: y > 0\nb: if (x < 1) y > 1\n"


def test_simplify_minimal_file_unchanged(workspace, capsys):
    tmp, write = workspace
    out = tmp / "simplified.txt"
    code = run([
        "simplify",
        "--rules", write("rules.txt", "a: x >= 0   # canonical after reprint\n"),
        "--schema", write("schema.txt", XY_SCHEMA),
        "-o", str(out),
    ])
    assert code == 0
    assert out.read_text() == "a: x >= 0\n"
    assert "simplify:" not in capsys.readouterr().err


def test_simplify_infeasible_exits_3(workspace, capsys):
    tmp, write = workspace
    code = run([
        "simplify",
        "--rules", write("rules.txt", "a: x >= 0\nb: x <= -1\n"),
        "--schema", write("schema.txt", XY_SCHEMA),
    ])
    assert code == 3


def test_reports_are_byte_deterministic(workspace, capsys):
    tmp, write = workspace
    args = [
        "validate",
        "--rules", write("rules.txt", SECTION_RULES),
        "--schema", write("schema.txt", PERSON_SCHEMA),
        "--data", f"person={write('person.csv', PERSON_CSV)}",
    ]
    run(args)
    first = capsys.readouterr().out
    run(args)
    second = capsys.readouterr().out
    assert first == second


def test_validate_csv_format(workspace, capsys):
    tmp, write = workspace
    code = run([
        "validate",
        "--rules", write("rules.txt", "r: age >= 0\n"),
        "--schema", write("schema.txt", PERSON_SCHEMA),
        "--data", f"person={write('person.csv', PERSON_CSV)}",
        "--format", "csv",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "rule,table,unit,time,result"
    assert lines[1] == "r,person,1,ALL,True"


def test_validate_names_every_rule_it_cannot_evaluate(workspace, capsys):
    tmp, write = workspace
    code = run([
        "validate",
        "--rules", write("rules.txt", "salary: salary >= 0\nnonneg: age >= 0\nwage: wage <= 10\n"),
        "--schema", write("schema.txt", PERSON_SCHEMA),
        "--data", f"person={write('person.csv', PERSON_CSV)}",
        "-o", str(tmp / "report.json"),
    ])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: rule 'salary' references unknown variable 'salary'",
        "error: rule 'wage' references unknown variable 'wage'",
    ]
    assert not (tmp / "report.json").exists()
