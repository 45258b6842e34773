"""Three-valued evaluation over datasets: scoping, policies, monotonicity."""

import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import PANEL_RULES, PANEL_SCHEMA_TEXT, panel_oracle, random_panel
from validus.errors import IncompatibleScopeError, UnevaluableRulesError, UnknownVariableError
from validus.evaluator import NA_POLICIES, EvalOptions, evaluate_ruleset
from validus.model import NA, DataPoint, Dataset, Key, build_dataset
from validus.rules import parse_rules
from validus.schema import parse_schema
from validus.tribool import TriBool

T, F, N = TriBool.TRUE, TriBool.FALSE, TriBool.NA

PERSON_SCHEMA = parse_schema(
    "person.age : integer\nperson.job : categorical {employed, unemployed}\n"
)


def person_dataset(rows: dict[str, tuple]) -> Dataset:
    points = []
    for unit, (age, job) in rows.items():
        points.append(DataPoint(Key("person", None, unit, "age"), age))
        points.append(DataPoint(Key("person", None, unit, "job"), job))
    return build_dataset(points)


EXAMPLE = person_dataset({
    "1": (Fraction(25), "unemployed"),
    "2": ("employed", Fraction(42)),
})


def results(report, rule):
    return {(e.unit, e.time): e.result for e in report.entries if e.rule == rule}


def test_record_rule_on_example_dataset():
    report = evaluate_ruleset(parse_rules("r: age >= 0"), EXAMPLE, PERSON_SCHEMA)
    assert results(report, "r") == {("1", None): T, ("2", None): N}
    kinds = {d.kind for d in report.diagnostics}
    assert kinds == {"type_mismatch"}


def test_vacuous_implication_record():
    rules = parse_rules('r: if (job == "employed") age >= 15')
    report = evaluate_ruleset(rules, EXAMPLE, PERSON_SCHEMA)
    assert results(report, "r")[("1", None)] is T


def test_aggregate_rule_single_entry():
    clean = person_dataset({"1": (Fraction(25), "a"), "2": (Fraction(42), "b")})
    report = evaluate_ruleset(parse_rules("r: mean(age) >= 5"), clean, PERSON_SCHEMA)
    assert [(e.table, e.unit, e.time, e.result) for e in report.entries] == [
        ("person", None, None, T)
    ]


def test_mean_na_policies():
    withna = person_dataset({"1": (Fraction(25), "a"), "2": (NA, "b")})
    rules = parse_rules("r: mean(age) >= 5")
    propagate = evaluate_ruleset(rules, withna, PERSON_SCHEMA, EvalOptions("propagate"))
    assert propagate.entries[0].result is N
    ignore = evaluate_ruleset(rules, withna, PERSON_SCHEMA, EvalOptions("ignore"))
    assert ignore.entries[0].result is T


def test_mean_hand_arithmetic():
    clean = person_dataset({"1": (Fraction(25), "a"), "2": (Fraction(42), "b")})
    report = evaluate_ruleset(parse_rules("r: mean(age) == 33.5"), clean, PERSON_SCHEMA)
    assert [entry.result for entry in report.entries] == [T]


def test_empty_group_is_na():
    empty = build_dataset([])
    report = evaluate_ruleset(parse_rules("r: mean(age) >= 5"), empty, PERSON_SCHEMA)
    assert report.entries[0].result is N


def test_count_policies():
    withna = person_dataset({"1": (Fraction(25), "a"), "2": (NA, "b")})
    rules = parse_rules("r: count(age) == 1")
    assert evaluate_ruleset(rules, withna, PERSON_SCHEMA, EvalOptions("ignore")).entries[0].result is T
    assert evaluate_ruleset(rules, withna, PERSON_SCHEMA, EvalOptions("propagate")).entries[0].result is N


def test_builtin_predicates():
    report = evaluate_ruleset(
        parse_rules("a: is_integer(age)\nb: is_number(age)\nc: is_text(age)\nd: is_na(age)"),
        person_dataset({"1": (Fraction(25), "x"), "2": ("employed", "x"), "3": (NA, "x")}),
        PERSON_SCHEMA,
    )
    assert results(report, "a") == {("1", None): T, ("2", None): F, ("3", None): F}
    assert results(report, "b") == {("1", None): T, ("2", None): F, ("3", None): F}
    assert results(report, "c") == {("1", None): F, ("2", None): T, ("3", None): F}
    assert results(report, "d") == {("1", None): F, ("2", None): F, ("3", None): T}


def test_in_set():
    report = evaluate_ruleset(
        parse_rules('r: in_set(job, {"employed", "unemployed"})'),
        person_dataset({"1": (Fraction(1), "employed"), "2": (Fraction(1), "retired"),
                        "3": (Fraction(1), NA)}),
        PERSON_SCHEMA,
    )
    assert results(report, "r") == {("1", None): T, ("2", None): F, ("3", None): N}


def test_division_by_zero_is_na():
    report = evaluate_ruleset(
        parse_rules("r: 1 / age >= 0"),
        person_dataset({"1": (Fraction(0), "x")}),
        PERSON_SCHEMA,
    )
    assert report.entries[0].result is N
    assert any(d.kind == "division_by_zero" for d in report.diagnostics)


def test_unknown_variable_raises():
    with pytest.raises(UnknownVariableError):
        evaluate_ruleset(parse_rules("r: salary >= 0"), EXAMPLE, PERSON_SCHEMA)


def test_every_rule_that_cannot_be_evaluated_is_named():
    schema = parse_schema("a.x : numeric\nb.y : numeric\n")
    ds = build_dataset([DataPoint(Key("a", None, "1", "x"), Fraction(1))])
    rules = parse_rules("ok: x >= 0\nunknown: z >= 0\nfine: x <= 9\ncross: x >= b.y\nspan: mean(x + y) >= 0")
    with pytest.raises(UnevaluableRulesError) as caught:
        evaluate_ruleset(rules, ds, schema)
    assert [(type(e), e.rule) for e in caught.value.errors] == [
        (UnknownVariableError, "unknown"), (IncompatibleScopeError, "cross"), (IncompatibleScopeError, "span"),
    ]
    # a single bad rule raises its own error, whichever rule it is
    with pytest.raises(IncompatibleScopeError, match="rule 'span'"):
        evaluate_ruleset(rules.without("unknown").without("cross"), ds, schema)


def test_cross_table_record_rule_rejected():
    schema = parse_schema("a.x : numeric\nb.y : numeric\nc.z : numeric\n")
    ds = build_dataset([
        DataPoint(Key("a", None, "1", "x"), Fraction(1)),
        DataPoint(Key("b", None, "1", "y"), Fraction(1)),
    ])
    with pytest.raises(IncompatibleScopeError):
        evaluate_ruleset(parse_rules("r: a.x >= b.y"), ds, schema)
    # rejected before any verdict, although table c has no records
    with pytest.raises(IncompatibleScopeError, match="one aggregate spans several tables"):
        evaluate_ruleset(parse_rules("r: c.z <= mean(a.x + b.y)"), ds, schema)


TIMED_SCHEMA = parse_schema("shop.price : numeric\n")


def timed_dataset(series: dict[str, dict[str, object]]) -> Dataset:
    points = []
    for unit, by_time in series.items():
        for time, price in by_time.items():
            points.append(DataPoint(Key("shop", time, unit, "price"), price))
    return build_dataset(points)


def test_lag_rule_over_occasions():
    ds = timed_dataset({"1": {"1": Fraction(100), "2": Fraction(105), "3": Fraction(200)}})
    rules = parse_rules("r: abs(price - price@1) <= 0.1 * price@1")
    report = evaluate_ruleset(rules, ds, TIMED_SCHEMA)
    assert results(report, "r") == {("1", "1"): N, ("1", "2"): T, ("1", "3"): F}
    assert any(d.kind == "unresolved_reference" for d in report.diagnostics)


def test_lag_into_an_occasion_the_table_lacks():
    schema = parse_schema("tx.a : numeric\nty.b : numeric\n")
    points = [DataPoint(Key("tx", t, "1", "a"), Fraction(1)) for t in ("1", "2", "3")]
    points += [DataPoint(Key("ty", t, "1", "b"), Fraction(1)) for t in ("1", "2")]
    report = evaluate_ruleset(parse_rules("r: sum(tx.a) <= sum(ty.b@1) + 10"),
                              build_dataset(points), schema)
    assert [(e.time, e.result) for e in report.entries] == [("1", N), ("2", T), ("3", N)]
    assert [(d.time, d.kind, d.message) for d in report.diagnostics] == [
        ("1", "unresolved_reference", "b@1 reaches before the first occasion"),
        ("3", "unresolved_reference", "b@1: occasion 3 is not an occasion of table ty"),
    ]


_LAG_OVER_EQUAL_LABELS = """
from validus.csvio import dataset_from_csv
from validus.evaluator import evaluate_ruleset
from validus.rules import parse_rules
from validus.schema import parse_schema
ds = dataset_from_csv({"t": "id,time,x\\n1,1,5\\n1,01,3\\n1,2,4\\n"})
report = evaluate_ruleset(parse_rules("r: x - x@1 >= 0"), ds, parse_schema("t.x : numeric"))
print([(e.unit, e.time, e.result.value) for e in report.entries])
"""


def test_lag_verdicts_do_not_depend_on_hash_seed():
    # occasions 1 and 01 are numerically equal; their order (and so the
    # lag verdicts) once followed set iteration, which the hash seed sets
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for seed in ("0", "5"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", _LAG_OVER_EQUAL_LABELS], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].strip() == "[('1', '01', 'na'), ('1', '1', 'true'), ('1', '2', 'false')]"


def test_aggregate_per_occasion():
    ds = timed_dataset({
        "1": {"1": Fraction(10), "2": Fraction(0)},
        "2": {"1": Fraction(20), "2": Fraction(0)},
    })
    report = evaluate_ruleset(parse_rules("r: mean(price) >= 10"), ds, TIMED_SCHEMA)
    assert [(e.unit, e.time, e.result) for e in report.entries] == [
        (None, "1", T), (None, "2", F)
    ]


class CountingColumn(dict):
    """A table column that counts the cells read from it."""

    def __init__(self, column: dict):
        super().__init__(column)
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_record_with_aggregate_reads_each_cell_a_bounded_number_of_times():
    # the group mean is needed once per occasion, not once per record
    n_units, n_times = 40, 3
    ds = timed_dataset({
        str(u): {str(t): Fraction(u * t) for t in range(1, n_times + 1)}
        for u in range(1, n_units + 1)
    })
    columns = ds.index("shop").columns
    columns["price"] = counted = CountingColumn(columns["price"])
    report = evaluate_ruleset(parse_rules("r: price <= 2 * mean(price)"), ds, TIMED_SCHEMA)
    assert len(report.entries) == n_units * n_times
    assert n_units * n_times <= counted.reads <= 3 * n_units * n_times


_MEAN_TEXT = ("type_mismatch", "mean over text value 'text'")
_MINUS_TEXT = ("type_mismatch", "arithmetic - on text operand")
_ORDER_TEXT = ("type_mismatch", "comparison <= between number and text")
_EMPTY = {fn: ("empty_group", f"{fn} over an empty group in table 'shop'") for fn in ("mean", "sum", "max")}


@pytest.mark.parametrize("policy", NA_POLICIES)
def test_reused_aggregates_report_their_diagnostics_at_every_verdict(policy):
    # occasion 1 holds one text and one NA cell; occasion 2 holds only NA
    ds = timed_dataset({
        "1": {"1": Fraction(10), "2": NA},
        "2": {"1": "text", "2": NA},
        "3": {"1": NA, "2": NA},
        "4": {"1": Fraction(20), "2": NA},
    })
    rules = parse_rules("rel: price <= 10 * mean(price)\n"
                        "centred: sum(price - mean(price)) == 0\n"
                        "top: price <= max(price - mean(price))")
    report = evaluate_ruleset(rules, ds, TIMED_SCHEMA, EvalOptions(policy))
    ignore = policy == "ignore"  # then occasion 2 leaves an empty group
    # the inner mean is evaluated once per unit of the outer group
    inner = [_MEAN_TEXT, _MEAN_TEXT, *([_MINUS_TEXT] if ignore else []), _MEAN_TEXT, _MEAN_TEXT]
    order_text = [_ORDER_TEXT] if ignore else []
    expected = {"rel": [], "centred": [], "top": []}
    for u in ("1", "2", "3", "4"):  # records by unit, then occasion
        expected["rel"] += [(u, "1", *_MEAN_TEXT)] + [(u, "1", *d) for d in order_text if u == "2"]
        expected["top"] += [(u, "1", *d) for d in inner] + [(u, "1", *d) for d in order_text if u == "2"]
        if ignore:
            expected["rel"] += [(u, "2", *_EMPTY["mean"])]
            expected["top"] += [(u, "2", *_EMPTY["mean"])] * 4 + [(u, "2", *_EMPTY["max"])]
    expected["centred"] += [(None, "1", *d) for d in inner]
    if ignore:
        expected["centred"] += [(None, "2", *_EMPTY["mean"])] * 4 + [(None, "2", *_EMPTY["sum"])]
    assert [(d.rule, d.unit, d.time, d.kind, d.message) for d in report.diagnostics] == [
        (rule, *diag) for rule in ("rel", "centred", "top") for diag in expected[rule]
    ]
    if ignore:
        assert results(report, "rel")[("2", "1")] is N
        assert results(report, "centred") == {(None, "1"): T, (None, "2"): N}


def test_evaluator_matches_plain_python_oracle_on_random_panels():
    rules = parse_rules("\n".join(f"{name}: {text}" for name, text, _, _ in PANEL_RULES))
    schema = parse_schema(PANEL_SCHEMA_TEXT)
    as_tribool = {True: T, False: F, None: N}
    rng = random.Random(19580205)
    for _ in range(80):
        cells = random_panel(rng)
        dataset = build_dataset(DataPoint(Key("p", str(t), str(u), var), NA if v is None else v)
                                for (u, t, var), v in cells.items())
        for policy in NA_POLICIES:
            verdicts, counts = panel_oracle(cells, policy)
            report = evaluate_ruleset(rules, dataset, schema, EvalOptions(policy))
            assert {(e.rule, e.unit, e.time): e.result for e in report.entries} == {
                (rule, None if u is None else str(u), str(t)): as_tribool[v]
                for (rule, u, t), v in verdicts.items()
            }
            assert Counter((d.rule, d.kind) for d in report.diagnostics) == counts


def test_constant_rule_gets_one_entry():
    report = evaluate_ruleset(parse_rules("r: 1 <= 2"), EXAMPLE, PERSON_SCHEMA)
    assert [(e.unit, e.time, e.result) for e in report.entries] == [(None, None, T)]


def test_entries_deterministic_and_ordered():
    rules = parse_rules("b: age >= 0\na: age <= 100")
    first = evaluate_ruleset(rules, EXAMPLE, PERSON_SCHEMA)
    second = evaluate_ruleset(rules, EXAMPLE, PERSON_SCHEMA)
    assert first == second
    assert [e.rule for e in first.entries] == ["b", "b", "a", "a"]
    assert [e.unit for e in first.entries] == ["1", "2", "1", "2"]


def test_summary_counts_match_entries():
    report = evaluate_ruleset(parse_rules("r: age >= 0"), EXAMPLE, PERSON_SCHEMA)
    assert report.summary == {"r": {"true": 1, "false": 0, "na": 1}}
    assert report.counts() == {"true": 1, "false": 0, "na": 1}


def test_two_valued_restriction_on_clean_data():
    # no NA and no type confusion: every verdict is definite
    clean = person_dataset({"1": (Fraction(25), "employed"), "2": (Fraction(12), "unemployed")})
    rules = parse_rules(
        'a: age >= 0\nb: if (job == "employed") age >= 15\nc: mean(age) >= 5\n'
        'd: in_set(job, {"employed", "unemployed"})\ne: age * 2 - 1 > 30 or age < 20'
    )
    report = evaluate_ruleset(rules, clean, PERSON_SCHEMA)
    assert all(e.result in (T, F) for e in report.entries)


SURJECTIVITY_CORPUS = [
    ("r: age >= 0", (Fraction(5), "x"), (Fraction(-5), "x")),
    ("r: is_integer(age)", (Fraction(5), "x"), (Fraction(5, 2), "x")),
    ('r: if (job == "employed") age >= 15', (Fraction(20), "employed"), (Fraction(10), "employed")),
    ("r: mean(age) >= 5", (Fraction(9), "x"), (Fraction(1), "x")),
    ('r: in_set(job, {"employed"})', (Fraction(1), "employed"), (Fraction(1), "unemployed")),
]


@pytest.mark.parametrize("text,accepting,failing", SURJECTIVITY_CORPUS)
def test_rules_are_surjective(text, accepting, failing):
    # a witness dataset that satisfies the rule and one that fails it
    rules = parse_rules(text)
    for row, expected in ((accepting, T), (failing, F)):
        report = evaluate_ruleset(rules, person_dataset({"1": row}), PERSON_SCHEMA)
        assert report.entries[0].result is expected


# --- NA monotonicity ---------------------------------------------------------

MONO_SCHEMA = parse_schema(
    "t.a : numeric\nt.b : numeric\nt.c : categorical {p, q}\n"
)

_MONO_ATOMS = [
    "a >= 0", "a > b", "b <= 2", "a + b == 1", "a - 2 * b < 1",
    'c == "p"', 'c != "q"', 'in_set(c, {"p"})', "a / b >= 1",
    "mean(a) >= 1", "sum(b) < 4", "min(a) <= max(b)", "count(a) >= 2",
    "a@1 <= a", "mean(a@1) <= mean(a)",
]


def _random_monotone_rule(rng: random.Random) -> str:
    def atom():
        return rng.choice(_MONO_ATOMS)

    def expr(depth):
        if depth <= 0 or rng.random() < 0.4:
            return atom()
        kind = rng.random()
        if kind < 0.35:
            return f"({expr(depth - 1)}) and ({expr(depth - 1)})"
        if kind < 0.7:
            return f"({expr(depth - 1)}) or ({expr(depth - 1)})"
        if kind < 0.85:
            return f"not ({expr(depth - 1)})"
        return f"if ({expr(depth - 1)}) ({expr(depth - 1)})"

    return f"m: {expr(2)}"


def _random_mono_dataset(rng: random.Random) -> Dataset:
    points = []
    for unit in ("1", "2", "3"):
        for time in ("1", "2"):
            for var in ("a", "b"):
                roll = rng.random()
                if roll < 0.15:
                    value = NA
                elif roll < 0.25:
                    value = "text"  # type confusion on purpose
                else:
                    value = Fraction(rng.randint(-3, 3))
                points.append(DataPoint(Key("t", time, unit, var), value))
            level = rng.choice(["p", "q", NA])
            points.append(DataPoint(Key("t", time, unit, "c"), level))
    return build_dataset(points)


def test_na_monotonicity_under_mutation():
    # replacing any single value by NA may only move verdicts to NA,
    # never flip True and False (propagate policy, no is_* predicates)
    rng = random.Random(321321)
    mutations = 0
    while mutations < 500:
        rules = parse_rules(_random_monotone_rule(rng))
        dataset = _random_mono_dataset(rng)
        base = evaluate_ruleset(rules, dataset, MONO_SCHEMA, EvalOptions("propagate"))
        base_map = {(e.rule, e.table, e.unit, e.time): e.result for e in base.entries}
        keys = sorted(dataset.key_set)
        for key in rng.sample(keys, 10):
            if dataset.get(key) is NA:
                continue
            mutated_points = dict(dataset.points)
            mutated_points[key] = NA
            mutated = build_dataset([DataPoint(k, v) for k, v in mutated_points.items()])
            report = evaluate_ruleset(rules, mutated, MONO_SCHEMA, EvalOptions("propagate"))
            mutations += 1
            for entry in report.entries:
                before = base_map[(entry.rule, entry.table, entry.unit, entry.time)]
                if before is T:
                    assert entry.result is not F
                elif before is F:
                    assert entry.result is not T
    assert mutations >= 500
