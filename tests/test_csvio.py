"""CSV ingestion and export round trips."""

import random
from collections import Counter
from fractions import Fraction

import pytest

import validus.csvio
import validus.model
from helpers import random_csv_tables, reference_dataset_from_csv, reference_table_order
from validus.csvio import CsvFormatError, dataset_from_csv, write_table
from validus.errors import DuplicateKeyError, ValidusError
from validus.model import NA, DataPoint, Dataset, Key, build_dataset

PERSON_CSV = "id,age,job\n1,25,unemployed\n2,employed,42\n"


def test_read_person_table():
    points = dataset_from_csv({"person": PERSON_CSV}).points
    assert points[Key("person", None, "1", "age")] == Fraction(25)
    assert points[Key("person", None, "1", "job")] == "unemployed"
    assert points[Key("person", None, "2", "age")] == "employed"
    assert points[Key("person", None, "2", "job")] == Fraction(42)


def test_na_and_empty_cells():
    points = dataset_from_csv({"t": "id,a,b\n1,NA,\n"}).points
    assert points[Key("t", None, "1", "a")] is NA
    assert points[Key("t", None, "1", "b")] is NA


def test_numeric_then_text_fallback():
    points = dataset_from_csv({"t": "id,a\n1,2.5\n2,hello\n"}).points
    assert points[Key("t", None, "1", "a")] == Fraction(5, 2)
    assert points[Key("t", None, "2", "a")] == "hello"


def test_time_column():
    text = "id,time,price\n1,2020,10\n1,2021,12\n"
    ds = dataset_from_csv({"shop": text})
    assert ds.index("shop").times == ["2020", "2021"]
    assert ds.get(Key("shop", "2021", "1", "price")) == Fraction(12)


def test_missing_unit_column():
    with pytest.raises(CsvFormatError):
        dataset_from_csv({"t": "name,a\nx,1\n"})


def test_ragged_row_rejected():
    with pytest.raises(CsvFormatError):
        dataset_from_csv({"t": "id,a,b\n1,2\n"})


def test_duplicate_record_rejected():
    with pytest.raises(DuplicateKeyError):
        dataset_from_csv({"t": "id,a\n1,1\n1,2\n"})


def test_quoted_cells_round_trip():
    text = 'id,note\n1,"hello, world"\n2,"say ""hi"""\n'
    ds = dataset_from_csv({"t": text})
    assert ds.get(Key("t", None, "1", "note")) == "hello, world"
    assert ds.get(Key("t", None, "2", "note")) == 'say "hi"'
    again = dataset_from_csv({"t": write_table(ds, "t")})
    assert again == ds


def test_ingest_export_ingest_equality():
    ds = dataset_from_csv({"person": PERSON_CSV})
    exported = write_table(ds, "person")
    assert dataset_from_csv({"person": exported}) == ds


def test_export_with_time_and_na():
    points = [
        DataPoint(Key("t", "1", "u", "a"), Fraction(1)),
        DataPoint(Key("t", "2", "u", "a"), NA),
    ]
    ds = build_dataset(points)
    text = write_table(ds, "t")
    assert text.splitlines()[0] == "id,time,a"
    assert dataset_from_csv({"t": text}) == ds


def test_export_is_deterministic():
    ds = dataset_from_csv({"person": PERSON_CSV})
    assert write_table(ds, "person") == write_table(ds, "person")


def _rows(units) -> str:
    return "".join(f"{unit},{unit}\n" for unit in units)


@pytest.mark.parametrize("tables, error", [
    # every table is read before a duplicate is reported
    ({"a": "id,x\n1,1\n1,2\n", "b": "id,x\n1,2,3\n"}, "table 'b': row 2 has 3 cells, header has 2"),
    ({"a": "id,x\n1,1\n1,2\n2\n"}, "table 'a': row 4 has 1 cells, header has 2"),
    # the first duplicate in (table, row, column) order
    ({"a": "id,x,y\n1,1,1\n2,2,2\n", "b": "id,time,y,x\n1,1,0,0\n1,1,0,0\n2,,0,0\n2,,0,0\n"},
     "key occurs more than once: (b.1, t=1, y)"),
    # a header that names a column twice is a format error, not a
    # duplicate key, and is reported before any row is read
    ({"a": "id,x,y,x\n7,1,2,3\n"}, "table 'a': header names column 'x' twice"),
    ({"a": "id,x\n", "b": "id,time,x,x\n5,1,1,2\n"}, "table 'b': header names column 'x' twice"),
    # rows 2 to 513 are the first chunk of 512: a duplicate whose two rows
    # fall in different chunks, and the first of two such
    ({"a": "id,x\n" + _rows(range(600)) + "7,1\n3,1\n"}, "key occurs more than once: (a.7, x)"),
    # a width error in a later chunk beats a duplicate in an earlier one
    ({"a": "id,x\n1,1\n1,2\n" + _rows(range(2, 600)) + "5\n"}, "table 'a': row 602 has 1 cells, header has 2"),
    # blank rows end one chunk and start the next; line numbers count them
    ({"a": "id,x\n" + _rows(range(511)) + "\n , \n0,1\n,1\n"}, "table 'a': row 516 has an empty unit cell"),
    # the header is checked for a repeated name with no row to read, before
    # the width of any row, and after the unit column
    ({"a": "id,x,x\n"}, "table 'a': header names column 'x' twice"),
    ({"a": "id,x,y,y,x\n1,2\n"}, "table 'a': header names column 'y' twice"),
    ({"a": "x,x\n"}, "table 'a': missing unit column 'id'"),
])
def test_errors_are_reported_in_reading_order(tables, error):
    with pytest.raises(ValidusError) as caught:
        dataset_from_csv(tables)
    assert str(caught.value) == error


def test_tables_and_columns_come_only_from_cells():
    ds = dataset_from_csv({"header_only": "id,time,x\n", "no_variables": "id,time\n1,1\n", "t": "id,x\n1,2\n"})
    assert {key.table for key in ds.key_set} == {"t"}
    assert ds.variables("header_only") == [] and ds.variables("no_variables") == []
    assert len(ds) == 1


def _outcome(ingest, tables, time_column):
    try:
        return ingest(tables, "id", time_column)
    except ValidusError as exc:
        return type(exc).__name__, str(exc)


def test_ingest_matches_the_point_by_point_reference():
    _check_against_the_point_by_point_reference()


def test_ingest_matches_the_point_by_point_reference_across_chunks(monkeypatch):
    # two rows a chunk, so most random tables cross chunk boundaries
    monkeypatch.setattr(validus.csvio, "_CHUNK", 2)
    _check_against_the_point_by_point_reference()


def _check_against_the_point_by_point_reference():
    rng = random.Random(20260)
    kinds = Counter()
    for _ in range(4000):
        tables = random_csv_tables(rng)
        time_column = rng.choice(["time", "time", None])
        expected = _outcome(reference_dataset_from_csv, tables, time_column)
        actual = _outcome(dataset_from_csv, tables, time_column)
        if isinstance(expected, tuple):
            kinds[expected[0]] += 1
            assert actual == expected, tables
            continue
        kinds["ok" if expected else "empty"] += 1
        assert isinstance(actual, Dataset), (tables, actual)
        # the reference parses every number as a Fraction; ingest stores an
        # integral one as an int
        stored = {k: v.numerator if isinstance(v, Fraction) and v.denominator == 1 else v
                  for k, v in expected.items()}
        assert {k: (type(v), v) for k, v in actual.points.items()} == {
            k: (type(v), v) for k, v in stored.items()}, tables
        assert actual.key_set == frozenset(expected)
        assert len(actual) == len(expected)
        assert actual == build_dataset(DataPoint(k, v) for k, v in expected.items())
        order = reference_table_order(expected)
        assert {key.table for key in actual.key_set} == set(order)
        for table, (units, times, records) in order.items():
            index = actual.index(table)
            assert (index.units, index.times, list(index.records)) == (units, times, records)
    assert min(kinds[kind] for kind in ("ok", "empty", "CsvFormatError", "DuplicateKeyError")) >= 100, kinds


def test_ingest_builds_no_key_or_data_point_per_cell(monkeypatch):
    built = Counter()
    # csvio imports no DataPoint, so it can build one only through model
    for module, names in ((validus.csvio, ("Key",)), (validus.model, ("Key", "DataPoint"))):
        for name in names:
            def counting(*args, _name=name, _make=getattr(module, name), **kwargs):
                built[_name] += 1
                return _make(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
    text = "id,time,a,b\n" + "".join(f"{u},{t},{u * t},x\n" for u in range(20) for t in range(3))
    ds = validus.csvio.dataset_from_csv({"t": text})
    assert len(ds) == 120
    assert built == Counter()


def test_each_distinct_cell_text_is_parsed_once_per_column_per_chunk(monkeypatch):
    texts = []

    def counting(text, _parse=validus.csvio.parse_value):
        texts.append(text)
        return _parse(text)

    monkeypatch.setattr(validus.csvio, "parse_value", counting)
    chunk = validus.csvio._CHUNK
    rows = [(u, f"{u % 7}", ["a", "b", "NA", ""][u % 4]) for u in range(3 * chunk)]
    text = "id,x,y\n" + "".join(f"{u},{x},{y}\n" for u, x, y in rows)
    ds = dataset_from_csv({"t": text})
    assert len(ds) == 2 * len(rows)
    allowed = Counter()
    for start in range(0, len(rows), chunk):
        for column in (1, 2):
            allowed.update({row[column] for row in rows[start:start + chunk]})
    assert sum(allowed.values()) == 3 * (7 + 4)
    assert Counter(texts) <= allowed
