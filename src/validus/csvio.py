"""CSV ingestion and export, one file per table.

Parsing is schema-free: the unit column (and optional time column)
identify the record, every other column is a variable.  Empty cells and
the literal ``NA`` ingest as missing; anything that parses as an exact
number becomes a number; everything else stays text.
"""

from __future__ import annotations

import csv
import io
from typing import Optional

from .errors import ValidusError
from .model import DataPoint, Dataset, Key, build_dataset, format_value, parse_value


class CsvFormatError(ValidusError):
    def __init__(self, table: str, message: str):
        self.table = table
        super().__init__(f"table {table!r}: {message}")


def read_table(table: str, text: str, unit_column: str = "id",
               time_column: Optional[str] = "time") -> list[DataPoint]:
    """Data points for one table from CSV text."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise CsvFormatError(table, "missing header row") from None
    if unit_column not in header:
        raise CsvFormatError(table, f"missing unit column {unit_column!r}")
    unit_idx = header.index(unit_column)
    time_idx = header.index(time_column) if time_column in header else None
    variable_cols = [
        (i, name) for i, name in enumerate(header) if i not in (unit_idx, time_idx)
    ]

    points: list[DataPoint] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise CsvFormatError(table, f"row {lineno} has {len(row)} cells, header has {len(header)}")
        unit = row[unit_idx].strip()
        if not unit:
            raise CsvFormatError(table, f"row {lineno} has an empty unit cell")
        time = None
        if time_idx is not None:
            raw_time = row[time_idx].strip()
            time = raw_time or None
        for i, name in variable_cols:
            key = Key(table, time, unit, name)
            points.append(DataPoint(key, parse_value(row[i])))
    return points


def dataset_from_csv(tables: dict[str, str], unit_column: str = "id",
                     time_column: Optional[str] = "time") -> Dataset:
    """Build one dataset from {table name: CSV text}."""
    points: list[DataPoint] = []
    for table, text in tables.items():
        points.extend(read_table(table, text, unit_column, time_column))
    return build_dataset(points)


def write_table(dataset: Dataset, table: str, unit_column: str = "id",
                time_column: Optional[str] = "time") -> str:
    """CSV text for one table; re-ingesting reproduces its points."""
    variables = dataset.variables(table)
    records = dataset.records(table)
    has_time = any(time is not None for _, time in records)

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = [unit_column] + ([time_column] if has_time else []) + variables
    writer.writerow(header)
    for unit, time in records:
        row = [unit] + ([time or ""] if has_time else [])
        for var in variables:
            key = Key(table, time, unit, var)
            row.append(format_value(dataset.get(key)) if key in dataset else "NA")
        writer.writerow(row)
    return out.getvalue()
