"""Datasets: exactly-once keys, NA fill, total access."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from helpers import reference_parse_value

from validus.errors import DuplicateKeyError, MissingKeyError, UnknownKeyError
from validus.model import (
    NA,
    DataPoint,
    Key,
    build_dataset,
    format_number,
    format_value,
    natural_order,
    parse_value,
)


def k(unit, var):
    return Key("person", None, unit, var)


# the running two-person example: a number in the job field and a job
# value in the age field are representable on purpose
EXAMPLE_POINTS = [
    DataPoint(k("1", "age"), Fraction(25)),
    DataPoint(k("1", "job"), "unemployed"),
    DataPoint(k("2", "age"), "employed"),
    DataPoint(k("2", "job"), Fraction(42)),
]


def test_build_example_dataset():
    ds = build_dataset(EXAMPLE_POINTS)
    assert len(ds) == 4
    assert ds.key_set == frozenset(p.key for p in EXAMPLE_POINTS)


def test_get_value_on_example():
    ds = build_dataset(EXAMPLE_POINTS)
    assert ds.get(k("1", "age")) == Fraction(25)
    assert ds.get(k("2", "job")) == Fraction(42)
    assert ds.get(k("2", "age")) == "employed"
    with pytest.raises(MissingKeyError):
        ds.get(k("3", "age"))


def test_duplicate_key_rejected():
    points = EXAMPLE_POINTS + [DataPoint(k("1", "age"), Fraction(30))]
    with pytest.raises(DuplicateKeyError) as err:
        build_dataset(points)
    assert err.value.key == k("1", "age")


def test_the_first_repeated_point_is_reported():
    # the age column is bound first, but a job point is repeated first
    points = EXAMPLE_POINTS + [DataPoint(k("2", "job"), "x"), DataPoint(k("1", "age"), Fraction(30))]
    with pytest.raises(DuplicateKeyError) as err:
        build_dataset(points)
    assert err.value.key == k("2", "job")


def test_declared_keys_fill_with_na():
    declared = {k("1", "age"), k("1", "job")}
    ds = build_dataset([DataPoint(k("1", "age"), Fraction(25))], declared)
    assert ds.get(k("1", "job")) is NA
    assert ds.get(k("1", "age")) == 25
    assert ds.key_set == frozenset(declared)


def test_point_outside_declared_keys_rejected():
    declared = {k("1", "age")}
    with pytest.raises(UnknownKeyError):
        build_dataset([DataPoint(k("2", "age"), Fraction(1))], declared)


def test_tables_units_times():
    ds = build_dataset(EXAMPLE_POINTS)
    assert {key.table for key in ds.key_set} == {"person"}
    assert ds.index("person").units == ["1", "2"]
    assert ds.index("person").times == [None]
    assert ds.variables("person") == ["age", "job"]


_LABEL_ORDER = """
from validus.model import NA, DataPoint, Key, build_dataset, natural_order
labels = ["1", "01", "1.0", "2", "10", "a"]
points = [DataPoint(Key("p", t, u, "x"), NA) for u in labels for t in labels if u != t]
points += [DataPoint(Key("q", t, u, "y"), NA) for u in labels[::2] for t in labels[1::2]]
ds = build_dataset(points)
for table in ("p", "q"):
    keys = [k for k in ds.key_set if k.table == table]
    expected = (
        sorted({(k.unit, k.time) for k in keys}, key=lambda r: (natural_order(r[0]), natural_order(r[1]))),
        sorted({k.unit for k in keys}, key=natural_order),
        sorted({k.time for k in keys}, key=natural_order),
    )
    index = ds.index(table)
    assert (list(index.records), index.units, index.times) == expected, table
    print(table, index.units, index.times, list(index.records))
"""


def test_index_orders_labels_as_natural_order_sorts_them():
    # numerically equal labels order by their text, whatever the hash seed
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for seed in ("0", "5"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", _LABEL_ORDER], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("p ['01', '1', '1.0', '2', '10', 'a'] ['01', '1', '1.0', '2', '10', 'a']")


_DECLARED_ORDER = """
from validus.model import DataPoint, Key, build_dataset
declared = [Key("p", "1", str(unit), variable) for unit in range(6) for variable in ("x", "y")]
ds = build_dataset([DataPoint(declared[0], 1)], declared)
print([(key.unit, key.variable) for key in ds.points])
"""


def test_declared_keys_fill_in_the_callers_order_whatever_the_hash_seed():
    # the NA fill follows the declared keys' order, not a set's
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for seed in ("1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", _DECLARED_ORDER], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0] == repr([(str(unit), "x") for unit in range(6)] + [(str(unit), "y") for unit in range(6)]) + "\n"


def _int_first_order(label):
    """natural_order with int() outside the try: the reference key for
    every label int() reads (it raises ValueError on a longer one)."""
    if label is None:
        return (0, 0, "")
    if label.isascii() and label.isdigit():
        return (1, int(label), label)
    try:
        return (1, Fraction(label), label)
    except (ValueError, ZeroDivisionError):
        return (2, Fraction(0), label)


def test_natural_order_key_is_unchanged_where_int_reads_the_label():
    rng = random.Random(3301)
    labels = [None, "", "007", "-0", "+5", "1_000", "\u0663\u0664", "1e3", "1/2", ".5", "1/0", "a", "9" * 4300]
    labels += ["".join(rng.choice("0123456789+-_ ./e\u0663x") for _ in range(rng.randint(0, 7)))
               for _ in range(20000)]
    for label in labels:
        assert natural_order(label) == _int_first_order(label), label


values = st.one_of(
    st.integers(-1000, 1000).map(Fraction),
    st.text(st.characters(whitelist_categories=("Lu", "Ll", "Nd")), max_size=6),
    st.just(NA),
)
keys = st.builds(
    Key,
    table=st.sampled_from(["t1", "t2"]),
    time=st.sampled_from([None, "2020", "2021"]),
    unit=st.sampled_from(["1", "2", "3", "4"]),
    variable=st.sampled_from(["a", "b", "c"]),
)
point_lists = st.dictionaries(keys, values, max_size=12).map(
    lambda d: [DataPoint(key, val) for key, val in d.items()]
)


@given(point_lists)
def test_round_trip_rebuild(points):
    ds = build_dataset(points)
    rebuilt = build_dataset([DataPoint(key, val) for key, val in ds.points.items()])
    assert rebuilt == ds


@given(point_lists, st.randoms())
def test_order_insensitive(points, rnd):
    shuffled = list(points)
    rnd.shuffle(shuffled)
    assert build_dataset(shuffled) == build_dataset(points)


@given(point_lists)
def test_total_on_key_set(points):
    ds = build_dataset(points)
    for key in ds.key_set:
        ds.get(key)
    outside = Key("elsewhere", None, "9", "z")
    assert outside not in ds.key_set
    with pytest.raises(MissingKeyError):
        ds.get(outside)


def test_parse_value_integer_fast_path_matches_fraction():
    rng = random.Random(4217)
    texts = ["007", "-0", "+5", " 12 ", "1_000", "\u0663\u0664", "1\u0663", "1e3", "1/2", ".5", "NA", "", " ",
             "+", "-", "+-1", "- 1", "9" * 5000, "-" + "9" * 5000]
    texts += ["".join(rng.choice("0123456789+-_ ./e\u0663x") for _ in range(rng.randint(0, 6)))
              for _ in range(20000)]
    for text in texts:
        stripped = text.strip()
        if stripped in ("", "NA"):
            expected = NA
        else:
            try:
                q = Fraction(stripped)
                # an integral number is stored as an int
                expected = q.numerator if q.denominator == 1 else q
            except (ValueError, ZeroDivisionError):
                expected = text
        value = parse_value(text)
        assert (type(value), value) == (type(expected), expected), text[:20]


def test_parse_value_decimal_fast_path_matches_reference():
    rng = random.Random(4219)
    texts = ["76.1", "+76.1", "-76.1", "007.250", "-0.0", "+0.50", "4.0", "-4.000", "12.5e1", " 3.25 ",
             "1.", ".5", "-.5", "+.", "1_0.5", "1.5_0", "\u0663.\u0665", "1.\u0665", "1.2.3", "+-1.5", "- 1.5",
             "9" * 3000 + "." + "9" * 3000, "NA", ""]
    texts += ["".join(rng.choice("0123456789+-_ .e\u0663") for _ in range(rng.randint(1, 7)))
              for _ in range(20000)]
    texts += [f"{rng.choice(['', '+', '-'])}{rng.randint(0, 10 ** rng.randint(0, 6))}.{rng.randint(0, 999):0{rng.randint(1, 4)}d}"
              for _ in range(5000)]
    for text in texts:
        expected = reference_parse_value(text)
        if isinstance(expected, Fraction) and expected.denominator == 1:
            expected = expected.numerator  # an integral number is stored as an int
        value = parse_value(text)
        assert (type(value), value) == (type(expected), expected), text[:20]


def test_parse_value_round_trip():
    assert parse_value("25") == Fraction(25)
    assert parse_value("2.5") == Fraction(5, 2)
    assert parse_value("") is NA
    assert parse_value("NA") is NA
    assert parse_value("employed") == "employed"
    for raw in ["25", "2.5", "-0.125", "employed", "NA"]:
        assert format_value(parse_value(raw)) == raw


def test_format_number_exact():
    assert format_number(Fraction(5)) == "5"
    assert format_number(Fraction(1, 2)) == "0.5"
    assert format_number(Fraction(-1, 8)) == "-0.125"
    assert format_number(Fraction(1, 3)) == "1/3"
    assert Fraction(format_number(Fraction(7, 20))) == Fraction(7, 20)
