"""CSV ingestion and export, one file per table.

Parsing is schema-free: the unit column (and optional time column)
identify the record, every other column is a variable.  Empty cells and
the literal ``NA`` ingest as missing; anything that parses as an exact
number becomes a number; everything else stays text.

``dataset_from_csv`` writes each row's parsed cells straight into the
dataset's columns (``model.bind_cells``); no key object is built per
cell.  Every table is read before a key bound twice is reported, so a
format error anywhere in the input wins over a duplicate.
"""

from __future__ import annotations

import csv
import io
from typing import Iterator, Optional

from .errors import DuplicateKeyError, ValidusError
from .model import NA, Column, DataPoint, Dataset, Key, Value, bind_cells, format_value, parse_value


class CsvFormatError(ValidusError):
    def __init__(self, table: str, message: str):
        self.table = table
        super().__init__(f"table {table!r}: {message}")


Row = tuple[str, Optional[str], list[Value]]


def _read_rows(table: str, text: str, unit_column: str,
               time_column: Optional[str]) -> tuple[list[str], Iterator[Row]]:
    """The table's variable names, in header order, and an iterator over
    its rows as (unit, time, parsed values).  The header is checked here;
    each row as the iterator reaches it."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise CsvFormatError(table, "missing header row") from None
    if unit_column not in header:
        raise CsvFormatError(table, f"missing unit column {unit_column!r}")
    unit_idx = header.index(unit_column)
    time_idx = header.index(time_column) if time_column in header else None
    width = len(header)
    value_idx = [i for i in range(width) if i not in (unit_idx, time_idx)]

    def rows() -> Iterator[Row]:
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != width:
                raise CsvFormatError(table, f"row {lineno} has {len(row)} cells, header has {width}")
            unit = row[unit_idx].strip()
            if not unit:
                raise CsvFormatError(table, f"row {lineno} has an empty unit cell")
            time = None if time_idx is None else row[time_idx].strip() or None
            yield unit, time, [parse_value(row[i]) for i in value_idx]

    return [header[i] for i in value_idx], rows()


def read_table(table: str, text: str, unit_column: str = "id",
               time_column: Optional[str] = "time") -> list[DataPoint]:
    """Data points for one table from CSV text."""
    variables, rows = _read_rows(table, text, unit_column, time_column)
    return [DataPoint(Key(table, time, unit, name), value)
            for unit, time, values in rows for name, value in zip(variables, values)]


def dataset_from_csv(tables: dict[str, str], unit_column: str = "id",
                     time_column: Optional[str] = "time") -> Dataset:
    """Build one dataset from {table name: CSV text}."""
    columns: dict[str, dict[str, Column]] = {}
    duplicate: Optional[Key] = None
    for table, text in tables.items():
        variables, rows = _read_rows(table, text, unit_column, time_column)
        for unit, time, values in rows:
            found = bind_cells(columns, table, unit, time, variables, values)
            if duplicate is None:
                duplicate = found
    if duplicate is not None:
        raise DuplicateKeyError(duplicate)
    return Dataset(columns)


def write_table(dataset: Dataset, table: str, unit_column: str = "id",
                time_column: Optional[str] = "time") -> str:
    """CSV text for one table; re-ingesting reproduces its points."""
    index = dataset.index(table)
    variables = dataset.variables(table)
    records = index.records
    has_time = any(time is not None for _, time in records)

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = [unit_column] + ([time_column] if has_time else []) + variables
    writer.writerow(header)
    for unit, time in records:
        row = [unit] + ([time or ""] if has_time else [])
        row += [format_value(index.columns[var].get((unit, time), NA)) for var in variables]
        writer.writerow(row)
    return out.getvalue()
