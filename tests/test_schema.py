"""Schema parsing and name lookup."""

import random
import re
from fractions import Fraction

import pytest

from helpers import reference_lookup
from validus.errors import DuplicateVariableError, SchemaSyntaxError
from validus.schema import Schema, VariableDecl, parse_schema

PERSON_SCHEMA = """
# the running example
person.age : integer
person.job : categorical {employed, unemployed}
"""


def test_parse_person_schema():
    schema = parse_schema(PERSON_SCHEMA)
    assert list(schema.tables) == ["person"]
    age, job = schema.tables["person"]
    assert age.name == "age" and age.kind == "integer"
    assert job.kind == "categorical" and job.levels == ("employed", "unemployed")


def test_parse_bounds_and_nullable():
    schema = parse_schema("t.x : numeric [0, 1.5] nullable\nt.n : integer [-2, 7]\n")
    x, n = schema.tables["t"]
    assert x.bounds == (Fraction(0), Fraction(3, 2)) and x.nullable
    assert n.bounds == (Fraction(-2), Fraction(7)) and not n.nullable


def test_quoted_levels_lose_their_quotes():
    schema = parse_schema('t.c : categorical {"a b", c, ""}\n')
    assert schema.tables["t"][0].levels == ("a b", "c", "")


def test_a_comment_may_follow_a_declaration():
    schema = parse_schema("t.c : categorical {a, b} # levels {x, y\nt.x : numeric [0, 1] nullable # [or 2\n# {\n")
    c, x = schema.tables["t"]
    assert c.levels == ("a", "b") and x.bounds == (0, 1) and x.nullable


def test_duplicate_variable_rejected():
    with pytest.raises(DuplicateVariableError):
        parse_schema("t.age : integer\nt.age : numeric\n")


@pytest.mark.parametrize("text, line, message", [
    ("t.job : categorical {}\n", 1, "level set is empty"),
    ("t.x : numeric\nnot a declaration\n", 2, "cannot parse declaration"),
    ("t.x : numeric [3, 1]\n", 1, "lower bound above upper bound"),
    ("t.job : categorical {a,,b}\n", 1, "empty level name"),
    ("t.job : categorical a, b\n", 1, "needs {level, ...}"),
    ("t.job : categorical {a, a}\n", 1, "duplicate level"),
    ("t.x : numeric [1/0, 2]\n", 1, "exact numbers"),
    ("t.x : numeric\nt.y : integer [0, 1] required\n", 2, "trailing text: 'required'"),
    ('t.c : categorical {"a,b", c}\n', 1, "unbalanced quote in level '\"a'"),
    ('t.c : categorical {a, b"c}\n', 1, "unbalanced quote in level 'b\"c'"),
    # a '#' starts a comment anywhere on the line, so it cuts a level set
    # or a pair of bounds short
    ('t.c : categorical {"a#b", c}\n', 1, "'#' starts a comment, so it cannot be part of a level or a bound"),
    ("t.c : categorical {a, #b}\n", 1, "'#' starts a comment, so it cannot be part of a level or a bound"),
    ("t.y : integer\nt.x : numeric [0, 1#0]\n", 2, "'#' starts a comment, so it cannot be part of a level or a bound"),
], ids=["empty level set", "garbage line", "inverted bounds", "empty level name", "levels without braces",
        "duplicate level", "zero denominator", "trailing text", "comma in a quoted level", "quote inside a level",
        "hash inside a quoted level", "hash in a level set", "hash inside a bound"])
def test_schema_syntax_errors_name_their_line(text, line, message):
    with pytest.raises(SchemaSyntaxError, match=re.escape(message)) as err:
        parse_schema(text)
    assert err.value.line == line


def test_lookup_resolution():
    schema = parse_schema("a.x : numeric\nb.x : numeric\nb.y : numeric\n")
    assert schema.lookup("a", "x")[0] == "a"
    assert schema.lookup(None, "y")[0] == "b"
    assert schema.lookup(None, "x") is None  # ambiguous
    assert schema.lookup(None, "zzz") is None


def test_lookup_matches_a_scan_of_every_declaration():
    rng = random.Random(404)
    names = ["a", "b", "c", "d", "e"]
    outcomes = {"qualified": 0, "unique": 0, "ambiguous": 0, "missing": 0}
    for _ in range(300):
        tables = {}
        for table in rng.sample(["p", "q", "r", "s"], rng.randint(1, 4)):
            tables[table] = tuple(VariableDecl(n, rng.choice(["numeric", "integer"]))
                                  for n in rng.sample(names, rng.randint(0, 4)))
        schema = Schema(tables)
        for table in [None, "p", "q", "r", "s", "zz"]:
            for name in names + ["zz"]:
                hit = schema.lookup(table, name)
                assert hit == reference_lookup(schema, table, name)
                if table is not None:
                    outcomes["qualified"] += hit is not None
                elif hit is not None:
                    outcomes["unique"] += 1
                else:
                    declared = sum(d.name == name for decls in tables.values() for d in decls)
                    outcomes["ambiguous" if declared else "missing"] += 1
    assert min(outcomes.values()) > 100


def test_invalid_decl_invariants():
    with pytest.raises(ValueError):
        VariableDecl("x", "categorical")
    with pytest.raises(ValueError):
        VariableDecl("x", "numeric", levels=("a",))
    with pytest.raises(ValueError):
        VariableDecl("x", "numeric", bounds=(Fraction(2), Fraction(1)))
