"""Datasets as finite maps from composite keys to values.

A value is an exact rational number, a piece of text, or the missing
marker NA.  CSV ingest stores a number as an ``int`` when it is
integral and as a ``Fraction`` otherwise; ``build_dataset`` keeps a
caller's numbers as given.  The two types compare, hash and combine
exactly, so code that reads values tests for a number with
``is_number``.  A key names one observed cell: which table (unit type)
it belongs to, at which measurement occasion, for which unit, and for
which variable.  A dataset binds every key of its key set to exactly
one value.

A dataset stores that map by column, and only so: one dict per (table,
variable) from (unit, occasion) to the value.  ``bind_columns`` is the
one way cells enter a column and the one place a key bound twice is
caught: it binds a slice of records' cells, one column at a time, with
one dict update per column when no key of the slice is bound yet.
``build_dataset`` and the CSV reader both go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import DuplicateKeyError, MissingKeyError, UnknownKeyError


class NAType:
    """Singleton marker for a missing value."""

    _instance: Optional["NAType"] = None

    def __new__(cls) -> "NAType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NA"

    def __reduce__(self):
        return (NAType, ())


NA = NAType()

# The types of an exact rational number
NUMBER = (int, Fraction)
Number = Union[int, Fraction]

# A value is exactly one of: exact rational number, text, or NA.
Value = Union[int, Fraction, str, NAType]


def is_na(value: Value) -> bool:
    return isinstance(value, NAType)


def is_number(value: Value) -> bool:
    return isinstance(value, NUMBER)


def as_number(q: Number) -> Number:
    """A rational in its stored form: an int when it is integral."""
    return q.numerator if q.denominator == 1 else q


def parse_value(text: str) -> Value:
    """Interpret raw cell text: empty or NA is missing, a number (int or
    Fraction, as ``as_number`` stores it) if it parses exactly, text
    otherwise."""
    stripped = text.strip()
    if stripped == "" or stripped == "NA":
        return NA
    try:
        # plain integers and decimals, the common cells, skip the Fraction regex
        if (stripped[1:] if stripped[0] in "+-" else stripped).isdigit() and stripped.isascii():
            return int(stripped)
        head, point, tail = stripped.partition(".")
        if point and tail.isdigit() and (head[1:] if head[:1] in "+-" else head).isdigit() and stripped.isascii():
            # each part converts on its own, as Fraction converts it
            scale = 10 ** len(tail)
            numerator = abs(int(head)) * scale + int(tail)
            return as_number(Fraction(-numerator if head[0] == "-" else numerator, scale))
        return as_number(Fraction(stripped))
    except (ValueError, ZeroDivisionError):
        return text


def format_value(value: Value) -> str:
    """Render a value the way ingestion reads it back (round trip)."""
    if is_na(value):
        return "NA"
    if is_number(value):
        return format_number(value)
    return str(value)


def format_number(q: Number) -> str:
    """Exact text for a rational: integer, finite decimal, or p/q."""
    if q.denominator == 1:
        return str(q.numerator)
    den = q.denominator
    shift = 0
    while den % 2 == 0:
        den //= 2
        shift += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{q.numerator}/{q.denominator}"
    digits = max(shift, fives)
    scaled = q * Fraction(10) ** digits
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled.numerator)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


@dataclass(frozen=True, order=True)
class Key:
    """Identifies one cell by unit type (table), occasion, unit, variable.

    ``time`` is None for data observed at a single, unnamed occasion.
    """

    table: str
    time: Optional[str]
    unit: str
    variable: str

    def __repr__(self) -> str:
        t = "" if self.time is None else f", t={self.time}"
        return f"({self.table}.{self.unit}{t}, {self.variable})"


@dataclass(frozen=True)
class DataPoint:
    key: Key
    value: Value


Record = tuple[str, Optional[str]]
# one variable of one table: (unit, occasion) -> value
Column = dict[Record, Value]


class TableIndex(NamedTuple):
    """One table's records, ordered once: units and occasions in natural
    order, records by unit then occasion (a tuple, since validation
    reports hand it out as their scopes), each occasion's position, and
    the dataset's column of each variable."""

    units: list[str]
    times: list[Optional[str]]
    records: tuple[Record, ...]
    positions: dict[Optional[str], int]
    columns: dict[str, Column]


class Dataset:
    """Total assignment of values to a finite key set, held as one column
    per (table, variable).  Build it with ``build_dataset`` or
    ``csvio.dataset_from_csv``.

    Immutable after construction; equality compares the full mapping.
    """

    def __init__(self, columns: dict[str, dict[str, Column]]):
        # a table without cells is no table of the dataset
        self._columns = {table: variables for table, variables in columns.items() if variables}
        self._key_set: Optional[frozenset[Key]] = None
        self._indexes: Optional[dict[str, TableIndex]] = None

    def _cells(self):
        for table, variables in self._columns.items():
            for variable, column in variables.items():
                for (unit, time), value in column.items():
                    yield Key(table, time, unit, variable), value

    @property
    def points(self) -> dict[Key, Value]:
        return dict(self._cells())

    @property
    def key_set(self) -> frozenset[Key]:
        if self._key_set is None:
            self._key_set = frozenset(key for key, _ in self._cells())
        return self._key_set

    def __contains__(self, key: Key) -> bool:
        return (key.unit, key.time) in self._columns.get(key.table, {}).get(key.variable, {})

    def __len__(self) -> int:
        return sum(len(column) for variables in self._columns.values() for column in variables.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self._columns == other._columns

    def __repr__(self) -> str:
        return f"Dataset({len(self)} points)"

    def get(self, key: Key) -> Value:
        try:
            return self._columns[key.table][key.variable][key.unit, key.time]
        except KeyError:
            raise MissingKeyError(key) from None

    def index(self, table: str) -> TableIndex:
        """The table's index (empty for a table without data points); all
        tables are indexed together, on the first call."""
        if self._indexes is None:
            self._indexes = _index_tables(self._columns)
        found = self._indexes.get(table)
        return found if found is not None else TableIndex([], [], (), {}, {})

    def variables(self, table: str) -> list[str]:
        return sorted(self._columns.get(table, {}))


def _index_tables(tables: dict[str, dict[str, Column]]) -> dict[str, TableIndex]:
    """Index every table.  A table's records are the union of its
    columns' keys.  Each distinct unit or occasion label is ranked by
    ``natural_order`` once, and records are sorted by those ranks."""
    records = {table: set().union(*variables.values()) for table, variables in tables.items()}
    labels = {label for pairs in records.values() for record in pairs for label in record}
    # Sort keys are freed in the order they were made (``keys``, not a
    # sorted copy, holds the last reference) and a record's key is an int:
    # a free list that kept tuples freed in sorted order would pin a little
    # of every pool they filled, which raised validate's VmHWM at 40,000
    # records by 2.5 MB (scripts/report_memory.py).
    keys = [natural_order(label) for label in labels if label is not None]  # (kind, value, label)
    ordered = [None] * (None in labels) + [key[2] for key in sorted(keys)]
    del keys
    rank = {label: i for i, label in enumerate(ordered)}
    width = len(rank)
    indexes = {}
    for table, pairs in records.items():
        times = sorted({time for _, time in pairs}, key=rank.__getitem__)
        indexes[table] = TableIndex(
            units=sorted({unit for unit, _ in pairs}, key=rank.__getitem__),
            times=times,
            records=tuple(sorted(pairs, key=lambda r: rank[r[0]] * width + rank[r[1]])),
            positions={time: i for i, time in enumerate(times)},
            columns=tables[table],
        )
    return indexes


def natural_order(label: Optional[str]):
    """Sort key for unit and time labels: numbers before text, by value.
    Numerically equal labels (``1``, ``01``, ``1.0``) order by their text,
    so the order never depends on set iteration.  A label that does not
    parse, such as one of more digits than ``int`` reads, orders as text,
    as ``parse_value`` reads such a cell."""
    if label is None:
        return (0, 0, "")
    try:
        if label.isascii() and label.isdigit():  # the common case: an int compares faster
            return (1, int(label), label)
        return (1, Fraction(label), label)
    except (ValueError, ZeroDivisionError):
        return (2, 0, label)


def bind_columns(tables: dict[str, dict[str, Column]], table: str, records: Sequence[Record],
                 variables: Sequence[str], values: Sequence[Sequence[Value]]) -> Optional[Key]:
    """Bind a slice of records' cells into its table's columns in
    ``tables`` (table -> variable -> column): ``values[j][i]`` is the cell
    of ``records[i]`` for ``variables[j]``.  A cell whose key is already
    bound, before the call or by an earlier cell of the slice in (record,
    variable) order, is not bound, so a bound key keeps its value.
    Returns the key of the first such cell in that order, or None.  A
    column is created by its first cell."""
    columns = tables.setdefault(table, {})
    targets = [columns.setdefault(variable, {}) for variable in variables]
    if (len(set(records)) == len(records) and len(set(variables)) == len(variables)
            and all(column.keys().isdisjoint(records) for column in targets)):
        for column, cells in zip(targets, values):
            column.update(zip(records, cells))
        return None
    duplicate = None
    for i, record in enumerate(records):
        for column, variable, cells in zip(targets, variables, values):
            if record not in column:
                column[record] = cells[i]
            elif duplicate is None:
                duplicate = Key(table, record[1], record[0], variable)
    return duplicate


def build_dataset(points: Iterable[DataPoint], declared_keys: Optional[Iterable[Key]] = None) -> Dataset:
    """Assemble a dataset, enforcing exactly-once keys.

    With ``declared_keys`` given, every point's key must be declared and
    declared keys absent from ``points`` are bound to NA.
    """
    points = list(points)
    tables: dict[str, dict[str, Column]] = {}
    duplicates = set()
    for table, variable, records, values in _slices((point.key, point.value) for point in points):
        found = bind_columns(tables, table, records, (variable,), (values,))
        if found is not None:
            duplicates.add(found)
    if duplicates:
        # each is its column's first; report the one a point repeats first
        seen = set()
        for point in points:
            if point.key in duplicates:
                if point.key in seen:
                    raise DuplicateKeyError(point.key)
                seen.add(point.key)
    if declared_keys is not None:
        # in the caller's order, so the NA fill's order does not hang on the hash seed
        declared = dict.fromkeys(declared_keys)
        for point in points:
            if point.key not in declared:
                raise UnknownKeyError(point.key)
        for table, variable, records, values in _slices((key, NA) for key in declared):
            bind_columns(tables, table, records, (variable,), (values,))  # a bound key keeps its value
    return Dataset(tables)


def _slices(cells: Iterable[tuple[Key, Value]]):
    """(table, variable, records, values) for each column the cells fall
    in, with the cells in their given order."""
    columns: dict[tuple[str, str], tuple[list[Record], list[Value]]] = {}
    for key, value in cells:
        records, values = columns.setdefault((key.table, key.variable), ([], []))
        records.append((key.unit, key.time))
        values.append(value)
    for (table, variable), (records, values) in columns.items():
        yield table, variable, records, values
