"""Which validus modules each command loads, and the lazy package namespace.

A process without cached bytecode compiles every module it imports, so
each command imports only the modules it runs.  Each case runs in a
fresh interpreter on the demo files in ``scripts/demo``.
"""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import validus

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "scripts" / "demo"

# runs the command given as arguments (if any) and prints the validus
# modules the process loaded
_LOADED = (
    "import sys\n"
    "exec(sys.argv[1])\n"
    "if sys.argv[2:]:\n"
    "    validus.cli.main(sys.argv[2:])\n"
    "print(' '.join(sorted(m for m in sys.modules if m.partition('.')[0] == 'validus')))\n"
)

CLI = {"validus", "validus.cli", "validus.errors", "validus.tribool"}
PARSE = CLI | {"validus.rules", "validus.schema", "validus.model"}
CLASSIFY = PARSE | {"validus.classifier"}  # every JSON report classifies its rules
EVALUATE = {"validus.evaluator", "validus.csvio"}
ANALYZE = {"validus.analyzer", "validus.linear"}
RULES = ["--rules", "rules.txt", "--schema", "schema.txt"]
CHECKS = ["--rules", "ruleset_checks.txt", "--schema", "schema.txt"]
VALIDATE = ["validate", *RULES, "--data", "person=person.csv"]

CASES = {
    "import validus": ("import validus", [], {"validus"}),
    "import validus.cli": ("import validus.cli", [], CLI),
    "classify": ("import validus.cli", ["classify", *RULES], CLASSIFY),
    "classify-csv": ("import validus.cli", ["classify", *RULES, "--format", "csv"], CLASSIFY),
    "validate": ("import validus.cli", VALIDATE, CLASSIFY | EVALUATE),
    "validate-csv": ("import validus.cli", [*VALIDATE, "--format", "csv"], PARSE | EVALUATE),
    "lint": ("import validus.cli", ["lint", *CHECKS], CLASSIFY | ANALYZE),
    "analyze": ("import validus.cli", ["analyze", *CHECKS], CLASSIFY | ANALYZE),
    "analyze-csv": ("import validus.cli", ["analyze", *CHECKS, "--format", "csv"], PARSE | ANALYZE),
    "simplify": ("import validus.cli", ["simplify", *CHECKS], PARSE | ANALYZE),
    "one name": ("import validus; validus.TriBool", [], {"validus", "validus.tribool"}),
}


def loaded_modules(statement: str, argv: list[str], out: Path) -> set[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    if argv:
        argv = [*argv, "-o", str(out)]
    proc = subprocess.run([sys.executable, "-c", _LOADED, statement, *argv], cwd=DEMO, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("case", list(CASES))
def test_each_command_loads_only_the_modules_it_runs(case, tmp_path):
    statement, argv, expected = CASES[case]
    assert loaded_modules(statement, argv, tmp_path / "out") == expected
    assert (tmp_path / "out").exists() == bool(argv)


def test_every_public_name_resolves_to_its_defining_module():
    assert len(validus.__all__) == len(set(validus.__all__)) == 59
    assert set(validus._SUBMODULE) == set(validus.__all__)
    for name in validus.__all__:
        module = importlib.import_module(f"validus.{validus._SUBMODULE[name]}")
        assert getattr(validus, name) is getattr(module, name), name
        assert name in vars(validus), name  # cached after the first lookup


def test_readme_lists_every_public_name():
    # a public name added for the tests alone shows up in this list's diff
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"`(\w+)`", section)
    assert len(listed) == len(set(listed))
    assert set(listed) == set(validus.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from validus import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(validus.__all__)


def test_dir_lists_all():
    assert set(validus.__all__) <= set(dir(validus))
    assert "__version__" in dir(validus)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        validus.no_such_name
    assert not hasattr(validus, "parse")
    with pytest.raises(ImportError):
        exec("from validus import no_such_name", {})
