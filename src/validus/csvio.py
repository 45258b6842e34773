"""CSV ingestion and export, one file per table.

Parsing is schema-free: the unit column (and optional time column)
identify the record, every other column is a variable.  Empty cells and
the literal ``NA`` ingest as missing; anything that parses as an exact
number becomes a number; everything else stays text.

Header names are stripped of surrounding spaces, as unit and time cells
are, before the unit, time and duplicate-name checks.  The reader takes
a table's rows ``_CHUNK`` at a time.  Each row is checked in file order
(blank rows skipped, then width, then the unit cell); then, for each
variable, each distinct cell text of the chunk is parsed once and the
chunk's slice of the column is bound with ``model.bind_columns``, so no
key object is built per cell.  Every table
is read before a key bound twice is reported, so a format error anywhere
in the input wins over a duplicate.
"""

from __future__ import annotations

import csv
import io
from itertools import islice
from typing import Iterator, Optional

from .errors import DuplicateKeyError, ValidusError
from .model import NA, Column, Dataset, Key, Record, Value, bind_columns, format_value, parse_value

# rows read, checked and parsed together; the memo of parsed cell texts
# lives for one chunk, which bounds it however large the table
_CHUNK = 512


class CsvFormatError(ValidusError):
    def __init__(self, table: str, message: str):
        self.table = table
        super().__init__(f"table {table!r}: {message}")


# one chunk: its records, and each variable's values at those records
Chunk = tuple[list[Record], list[list[Value]]]


def _read_chunks(table: str, text: str, unit_column: str,
                 time_column: Optional[str]) -> tuple[list[str], Iterator[Chunk]]:
    """The table's variable names, in header order, and an iterator over
    its chunks of rows.  The header is checked here; each row as the
    iterator reaches its chunk."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = [name.strip() for name in next(reader)]
    except StopIteration:
        raise CsvFormatError(table, "missing header row") from None
    if unit_column not in header:
        raise CsvFormatError(table, f"missing unit column {unit_column!r}")
    if len(set(header)) < len(header):
        twice = next(name for i, name in enumerate(header) if name in header[:i])
        raise CsvFormatError(table, f"header names column {twice!r} twice")
    unit_idx = header.index(unit_column)
    time_idx = header.index(time_column) if time_column in header else None
    width = len(header)
    value_idx = [i for i in range(width) if i not in (unit_idx, time_idx)]
    numbered = enumerate(reader, start=2)

    def chunks() -> Iterator[Chunk]:
        while True:
            rows = list(islice(numbered, _CHUNK))
            if not rows:
                return
            records: list[Record] = []
            kept = []
            for lineno, row in rows:
                if not "".join(row).strip():
                    continue
                if len(row) != width:
                    raise CsvFormatError(table, f"row {lineno} has {len(row)} cells, header has {width}")
                unit = row[unit_idx].strip()
                if not unit:
                    raise CsvFormatError(table, f"row {lineno} has an empty unit cell")
                records.append((unit, None if time_idx is None else row[time_idx].strip() or None))
                kept.append(row)
            if not kept:
                continue
            cells = list(zip(*kept))
            values = []
            for i in value_idx:
                texts = cells[i]
                distinct = set(texts)
                parsed = dict(zip(distinct, map(parse_value, distinct)))
                values.append(list(map(parsed.__getitem__, texts)))
            yield records, values

    return [header[i] for i in value_idx], chunks()


def dataset_from_csv(tables: dict[str, str], unit_column: str = "id",
                     time_column: Optional[str] = "time") -> Dataset:
    """Build one dataset from {table name: CSV text}."""
    columns: dict[str, dict[str, Column]] = {}
    duplicate: Optional[Key] = None
    for table, text in tables.items():
        variables, chunks = _read_chunks(table, text, unit_column, time_column)
        for records, values in chunks:
            found = bind_columns(columns, table, records, variables, values)
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
