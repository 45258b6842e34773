"""Command-line behavior: exit codes, report shapes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from validus.cli import main
from validus.rules import TextLit, parse_rules

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "scripts" / "demo"

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


def test_validate_orders_a_unit_label_too_long_for_int_as_text(workspace, capsys):
    tmp, write = workspace
    long_id = "9" * 5000  # more digits than int() reads
    data = write("person.csv", f"id,age\n{long_id},30\n2,1\n")
    code = run([
        "validate",
        "--rules", write("rules.txt", "a: age >= 0\n"),
        "--schema", write("schema.txt", PERSON_SCHEMA),
        "--data", f"person={data}",
        "-o", str(tmp / "report.json"),
    ])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp / "report.json").read_text())
    assert [(e["unit"], e["result"]) for e in report["entries"]] == [("2", "True"), (long_id, "True")]


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


@pytest.mark.parametrize("spec, message", [
    ("person", "error: --data expects TABLE=FILE, got 'person'"),
    ("other={csv}", "error: --data table 'other' is not declared in the schema"),
])
def test_a_bad_data_option_is_an_input_error(workspace, capsys, spec, message):
    tmp, write = workspace
    code = run([
        "validate",
        "--rules", write("rules.txt", "r: age >= 0\n"),
        "--schema", write("schema.txt", PERSON_SCHEMA),
        "--data", spec.format(csv=write("person.csv", PERSON_CSV)),
        "-o", str(tmp / "report.json"),
    ])
    assert code == 2
    assert capsys.readouterr().err == message + "\n"
    assert not (tmp / "report.json").exists()


@pytest.mark.parametrize("first, second", [("person.csv", "empty.csv"), ("empty.csv", "person.csv")])
def test_a_table_given_twice_to_data_is_an_input_error(workspace, capsys, first, second):
    # neither file may silently replace the other
    tmp, write = workspace
    files = {"person.csv": write("person.csv", PERSON_CSV), "empty.csv": write("empty.csv", "")}
    code = run([
        "validate",
        "--rules", write("rules.txt", "r: age >= 0\n"),
        "--schema", write("schema.txt", PERSON_SCHEMA),
        "--data", f"person={files[first]}",
        "--data", f"person={files[second]}",
        "-o", str(tmp / "report.json"),
    ])
    assert code == 2
    assert capsys.readouterr().err == "error: --data table 'person' given twice\n"
    assert not (tmp / "report.json").exists()


@pytest.mark.parametrize("csv_text", ["id,age,age\n1,25,30\n", "id,age,age\n", "id,age, age\n1,25,30\n"],
                         ids=["with rows", "header only", "equal once stripped"])
def test_a_header_that_names_a_column_twice_is_an_input_error(workspace, capsys, csv_text):
    tmp, write = workspace
    code = run([
        "validate",
        "--rules", write("rules.txt", "r: age >= 0\n"),
        "--schema", write("schema.txt", PERSON_SCHEMA),
        "--data", f"person={write('person.csv', csv_text)}",
        "-o", str(tmp / "report.json"),
    ])
    assert code == 2
    assert capsys.readouterr().err == "error: table 'person': header names column 'age' twice\n"
    assert not (tmp / "report.json").exists()


@pytest.mark.parametrize("csv_text,verdicts", [
    ("id, age\n1,5\n2,-1\n", ["r,person,1,ALL,True", "r,person,2,ALL,False"]),
    (" id,age\n1,5\n2,-1\n", ["r,person,1,ALL,True", "r,person,2,ALL,False"]),
    ("id ,\tage \n1,5\n2,-1\n", ["r,person,1,ALL,True", "r,person,2,ALL,False"]),
    (" time ,id,age\n1,7,5\n2,7,-1\n", ["r,person,7,1,True", "r,person,7,2,False"]),
], ids=["space before a variable", "space before the unit column", "spaces and a tab", "time column"])
def test_header_names_are_stripped(workspace, capsys, csv_text, verdicts):
    # an unstripped ` age` was a column no rule could name, so every verdict was NA
    tmp, write = workspace
    code = run([
        "validate",
        "--rules", write("rules.txt", "r: age >= 0\n"),
        "--schema", write("schema.txt", PERSON_SCHEMA),
        "--data", f"person={write('person.csv', csv_text)}",
        "--format", "csv",
    ])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert out.splitlines() == ["rule,table,unit,time,result", *verdicts]


@pytest.mark.parametrize("command", ["validate", "classify", "lint", "analyze", "simplify"])
def test_every_command_reads_the_schema_then_the_rules_then_the_data(workspace, capsys, command):
    tmp, write = workspace
    schema, rules = write("schema.txt", PERSON_SCHEMA), write("rules.txt", "r: age >= 0\n")
    data = ["--data", f"person={tmp / 'data.csv'}"] if command == "validate" else []
    for schema_file, rules_file, missing in ((tmp / "schema.csv", tmp / "rules.csv", "schema.csv"),
                                             (schema, tmp / "rules.csv", "rules.csv"),
                                             (schema, rules, "data.csv")):
        code = run([command, "--rules", str(rules_file), "--schema", str(schema_file), *data, "-o", str(tmp / "out")])
        err = capsys.readouterr().err
        if missing == "data.csv" and command != "validate":
            assert code == 0 and err == ""
            continue
        assert code == 2 and err == f"error: no such file: {tmp / missing}\n"


def test_validate_without_data_is_a_usage_error(workspace, capsys):
    tmp, _ = workspace
    # no file is read: the rule and schema files do not exist
    with pytest.raises(SystemExit) as exit_info:
        run(["validate", "--rules", str(tmp / "missing.txt"), "--schema", str(tmp / "missing.txt")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "the following arguments are required: --data" in err and "no such file" not in err


def test_a_usage_error_leaves_the_kept_parser_as_new(workspace, capsys):
    from validus import cli

    tmp, write = workspace
    argv = ["analyze", "--rules", write("rules.txt", SECTION_RULES), "--schema", write("schema.txt", PERSON_SCHEMA)]
    cli._build_parser.cache_clear()
    fresh = (run(argv), capsys.readouterr())
    parser = cli._build_parser()
    with pytest.raises(SystemExit) as exit_info:
        run(["analyze", "--rules", argv[2], "--format", "xml"])
    assert exit_info.value.code == 2 and "invalid choice" in capsys.readouterr().err
    assert (run(argv), capsys.readouterr()) == fresh
    assert cli._build_parser() is parser


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_closed_output_pipe_ends_quietly_with_status_141(workspace, fmt):
    _, write = workspace
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    rules = "".join(f"r{i}: age >= {i}\n" for i in range(5))
    data = write("person.csv", "id,age\n" + "".join(f"{i},{i % 90}\n" for i in range(10000)))
    argv = ["validate", "--rules", write("rules.txt", rules), "--schema", write("schema.txt", PERSON_SCHEMA),
            "--data", f"person={data}", "--format", fmt]
    full = subprocess.run([sys.executable, "-m", "validus.cli", *argv], env=env, capture_output=True, timeout=60)
    assert full.returncode == 1 and len(full.stdout) >= 1_000_000
    proc = subprocess.Popen([sys.executable, "-m", "validus.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(100)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""
    assert head == full.stdout[:100]


@pytest.mark.parametrize("bad, kind", [
    ("rules", "directory"), ("data", "directory"), ("output", "directory"),
    ("rules", "not UTF-8"), ("data", "not UTF-8"),
])
def test_unreadable_input_or_output_is_an_input_error(workspace, capsys, bad, kind):
    tmp, write = workspace
    if kind == "directory":
        (tmp / "a_directory").mkdir()
        path = str(tmp / "a_directory")
    else:
        path = str(tmp / "latin1.txt")
        (tmp / "latin1.txt").write_bytes("r: age >= 0 # \u00e9\n".encode("latin-1"))
    files = {
        "rules": write("rules.txt", "r: age >= 0\n"),
        "data": write("person.csv", PERSON_CSV),
        "output": str(tmp / "report.json"),
    }
    files[bad] = path
    code = run([
        "validate",
        "--rules", files["rules"],
        "--schema", write("schema.txt", PERSON_SCHEMA),
        "--data", f"person={files['data']}",
        "-o", files["output"],
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ") and path in err


@pytest.mark.parametrize("marked", ["rules", "schema", "data"])
def test_a_utf8_byte_order_mark_is_skipped(tmp_path, capsys, marked):
    # spreadsheet programs write one at the start of a "CSV UTF-8" file
    texts = {"rules": SECTION_RULES, "schema": PERSON_SCHEMA, "data": PERSON_CSV}

    def validate(bom):
        paths = {}
        for kind, text in texts.items():
            paths[kind] = tmp_path / f"{kind}-{bom}.txt"
            paths[kind].write_bytes((b"\xef\xbb\xbf" if bom and kind == marked else b"") + text.encode())
        code = run(["validate", "--rules", str(paths["rules"]), "--schema", str(paths["schema"]),
                    "--data", f"person={paths['data']}"])
        return code, capsys.readouterr()

    plain = validate(False)
    assert plain[0] == 1 and plain[1].err == ""
    assert validate(True) == plain


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


AB_SCHEMA = "a.x : numeric\nb.y : numeric\n"


def test_classify_reads_the_schema_validate_scopes_with(workspace, capsys):
    tmp, write = workspace
    rules = write("rules.txt", "q: x >= mean(b.y)\nr: a.x >= 0 and y <= 1\n")
    schema = write("schema.txt", AB_SCHEMA)
    assert run(["classify", "--rules", rules, "--schema", schema, "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["q,msmm,3", "r,msmm,3"]
    assert run(["classify", "--rules", rules, "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["q,ssmm,2", "r,sssm,1"]

    a_csv, b_csv = write("a.csv", "id,x\n1,5\n"), write("b.csv", "id,y\n1,3\n")
    data = ["--data", f"a={a_csv}", "--data", f"b={b_csv}"]
    code = run(["validate", "--rules", write("q.txt", "q: x >= mean(b.y)\n"), "--schema", schema] + data)
    assert code == 0
    record = json.loads(capsys.readouterr().out)["rules"][0]
    assert (record["signature"], record["level"]) == ("msmm", 3)
    assert run(["validate", "--rules", write("r.txt", "r: a.x >= 0 and y <= 1\n"), "--schema", schema] + data) == 2
    assert capsys.readouterr().err == "error: rule 'r' cannot be scheduled: references records of several tables\n"


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


def test_simplify_writes_text_literal_escapes_that_parse_back(workspace, capsys):
    tmp, write = workspace
    out = tmp / "simplified.txt"
    code = run([
        "simplify",
        "--rules", write("rules.txt", 's: name == "a\\nb\\tc\\rd"\nt: age >= 0\n'),
        "--schema", write("schema.txt", "p.age : integer [0, 120]\n"),
        "-o", str(out),
    ])
    assert code == 0
    assert out.read_text() == 's: name == "a\\nb\\tc\\rd"\n'
    assert parse_rules(out.read_text()).rules[0].body.right == TextLit("a\nb\tc\rd")
    assert run(["classify", "--rules", str(out)]) == 0


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


_VALIDATE_ONLY = [["--data", "person=person.csv"], ["--na-policy", "ignore"], ["--strict-na"],
                  ["--unit-column", "id"], ["--time-column", "time"]]


@pytest.mark.parametrize("command, option", [
    (command, option) for command in ("classify", "lint", "analyze", "simplify") for option in _VALIDATE_ONLY
] + [("simplify", ["--format", "csv"])], ids=lambda value: value if isinstance(value, str) else value[0])
def test_options_a_command_does_not_read_are_usage_errors(workspace, capsys, command, option):
    tmp, write = workspace
    argv = [command, "--rules", write("rules.txt", "r: age >= 0\n"), "--schema", write("schema.txt", PERSON_SCHEMA)]
    with pytest.raises(SystemExit) as exit_info:
        run(argv + option)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_validate_reads_the_unit_and_time_columns(workspace, capsys):
    tmp, write = workspace
    panel = write("person.csv", "key,period,age\n7,2,30\n7,1,-1\n")
    argv = ["validate", "--rules", write("rules.txt", "r: age >= 0\n"), "--schema", write("schema.txt", PERSON_SCHEMA),
            "--data", f"person={panel}", "--format", "csv", "--unit-column", "key"]
    assert run(argv + ["--time-column", "period"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == ["r,person,7,1,False", "r,person,7,2,True"]
    # with no time column, the period is one more variable and the unit repeats
    assert run(argv + ["--time-column", ""]) == 2
    assert "more than once" in capsys.readouterr().err


# --- each command's CSV table keeps its header when it is empty -----------

def test_validate_csv_with_no_verdicts_writes_the_entries_header(workspace, capsys):
    tmp, write = workspace
    header_only = write("person.csv", "id,age\n")
    code = run(["validate", "--rules", write("rules.txt", "a: age >= 0\n"),
                "--schema", write("schema.txt", PERSON_SCHEMA),
                "--data", f"person={header_only}", "--format", "csv"])
    assert code == 0
    assert capsys.readouterr().out == "rule,table,unit,time,result\n"


def test_lint_csv_with_no_findings_writes_the_findings_header(workspace, capsys):
    tmp, write = workspace
    code = run(["lint", "--rules", write("rules.txt", "a: x >= 0\n"),
                "--schema", write("schema.txt", XY_SCHEMA), "--format", "csv"])
    assert code == 0
    assert capsys.readouterr().out == "kind,rule,variable,value,low,high,evidence\n"


def test_analyze_csv_with_no_findings_writes_the_findings_header(workspace, capsys):
    tmp, write = workspace
    code = run(["analyze", "--rules", write("rules.txt", 'a: if (gender == "male") income > 2000\nb: x != 0\n'),
                "--schema", write("schema.txt", XY_SCHEMA), "--format", "csv"])
    assert code == 0
    assert capsys.readouterr().out == "kind,rule,variable,value,low,high,evidence\n"


def test_classify_csv_with_no_rules_writes_the_rules_header(workspace, capsys):
    tmp, write = workspace
    assert run(["classify", "--rules", write("rules.txt", "# nothing\n"), "--format", "csv"]) == 0
    assert capsys.readouterr().out == "name,signature,level\n"


@pytest.mark.parametrize("command", ["classify", "validate", "lint", "analyze"])
def test_csv_reports_format_and_classify_only_what_they_write(workspace, capsys, monkeypatch, command):
    import validus.classifier
    import validus.rules

    # the commands import these two inside their functions, so they read
    # them from the defining modules at each call
    owners = {"format_rule": validus.rules, "classify_rule": validus.classifier}
    calls = dict.fromkeys(owners, 0)

    def counting(name):
        original = getattr(owners[name], name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name, owner in owners.items():
        monkeypatch.setattr(owner, name, counting(name))
    tmp, write = workspace
    argv = [command, "--rules", write("rules.txt", SECTION_RULES), "--schema", write("schema.txt", PERSON_SCHEMA)]
    if command == "validate":
        argv += ["--data", f"person={write('person.csv', PERSON_CSV)}"]
    run(argv + ["--format", "csv", "-o", str(tmp / "report.csv")])
    # no CSV table holds the rule text; only classify's holds signatures
    assert calls == {"format_rule": 0, "classify_rule": 4 if command == "classify" else 0}
    run(argv + ["--format", "json", "-o", str(tmp / "report.json")])
    assert calls == {"format_rule": 4, "classify_rule": 8 if command == "classify" else 4}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_validate_scopes_each_rule_once(workspace, capsys, monkeypatch, fmt):
    import validus.classifier
    import validus.evaluator
    import validus.rules

    calls = []
    original = validus.rules.rule_scope

    def counting(rule, schema=None):
        calls.append(rule.name)
        return original(rule, schema)

    for owner in (validus.rules, validus.evaluator, validus.classifier):
        monkeypatch.setattr(owner, "rule_scope", counting)
    tmp, write = workspace
    code = run(["validate", "--rules", write("rules.txt", SECTION_RULES),
                "--schema", write("schema.txt", PERSON_SCHEMA), "--data", f"person={write('person.csv', PERSON_CSV)}",
                "--format", fmt, "-o", str(tmp / "report")])
    assert code == 1
    assert calls == ["int_age", "nonneg", "emp15", "avg"]


@pytest.mark.parametrize("command", ["classify", "validate", "lint", "analyze"])
def test_an_error_before_writing_leaves_the_output_file_untouched(workspace, capsys, monkeypatch, command):
    import validus.rules

    def failing(rule):
        raise ValueError(f"cannot format {rule.name}")

    monkeypatch.setattr(validus.rules, "format_rule", failing)
    tmp, write = workspace
    out = tmp / "report.json"
    out.write_bytes(b"an earlier report\r\n")
    argv = [command, "--rules", write("rules.txt", SECTION_RULES), "--schema", write("schema.txt", PERSON_SCHEMA),
            "-o", str(out)]
    if command == "validate":
        argv += ["--data", f"person={write('person.csv', PERSON_CSV)}"]
    with pytest.raises(ValueError, match="cannot format int_age"):
        run(argv)
    assert out.read_bytes() == b"an earlier report\r\n"


_DEMO_RULES = ["--rules", "rules.txt", "--schema", "schema.txt"]
_DEMO_CHECKS = ["--rules", "ruleset_checks.txt", "--schema", "schema.txt"]
_DEMO_COMMANDS = {
    "validate": ["validate", *_DEMO_RULES, "--data", "person=person.csv"],
    "classify": ["classify", *_DEMO_RULES],
    "lint": ["lint", *_DEMO_CHECKS],
    "analyze": ["analyze", *_DEMO_CHECKS],
}


@pytest.mark.parametrize("argv", [
    argv + ["--format", fmt] for argv in _DEMO_COMMANDS.values() for fmt in ("json", "csv")
] + [["simplify", *_DEMO_CHECKS]], ids=" ".join)
def test_stdout_and_output_file_get_the_same_bytes(tmp_path, argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))

    def cli(*extra):
        return subprocess.run([sys.executable, "-m", "validus.cli", *argv, *extra], cwd=DEMO, env=env,
                              capture_output=True, timeout=60)

    printed = cli()
    written = cli("-o", str(tmp_path / "report"))
    assert written.returncode == printed.returncode in (0, 1, 3)
    assert written.stdout == b""
    assert len(printed.stdout) > 40
    assert (tmp_path / "report").read_bytes() == printed.stdout
