"""Datasets as finite maps from composite keys to values.

A value is an exact rational number, a piece of text, or the missing
marker NA.  A key names one observed cell: which table (unit type) it
belongs to, at which measurement occasion, for which unit, and for which
variable.  A dataset binds every key of its key set to exactly one value.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Union

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

# A value is exactly one of: exact rational number, text, or NA.
Value = Union[Fraction, str, NAType]


def is_na(value: Value) -> bool:
    return isinstance(value, NAType)


def is_number(value: Value) -> bool:
    return isinstance(value, Fraction)


def is_text(value: Value) -> bool:
    return isinstance(value, str)


def parse_value(text: str) -> Value:
    """Interpret raw cell text: empty or NA is missing, numeric if it
    parses exactly, text otherwise."""
    stripped = text.strip()
    if stripped == "" or stripped == "NA":
        return NA
    try:
        return Fraction(stripped)
    except (ValueError, ZeroDivisionError):
        return text


def format_value(value: Value) -> str:
    """Render a value the way ingestion reads it back (round trip)."""
    if is_na(value):
        return "NA"
    if isinstance(value, Fraction):
        return format_number(value)
    return str(value)


def format_number(q: Fraction) -> str:
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


class TableIndex(NamedTuple):
    """One table's records, ordered once: units and occasions in natural
    order, records by unit then occasion, each occasion's position, and
    one column per variable mapping (unit, occasion) to the cell value."""

    units: list[str]
    times: list[Optional[str]]
    records: list[tuple[str, Optional[str]]]
    positions: dict[Optional[str], int]
    columns: dict[str, dict[tuple[str, Optional[str]], Value]]


class Dataset:
    """Total assignment of values to a finite key set.

    Immutable after construction; equality compares the full mapping.
    """

    def __init__(self, points: dict[Key, Value], key_set: frozenset[Key]):
        self._points = dict(points)
        self.key_set = key_set
        self._indexes: Optional[dict[str, TableIndex]] = None

    @property
    def points(self) -> dict[Key, Value]:
        return dict(self._points)

    def __contains__(self, key: Key) -> bool:
        return key in self._points

    def __len__(self) -> int:
        return len(self._points)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self._points == other._points and self.key_set == other.key_set

    def __repr__(self) -> str:
        return f"Dataset({len(self._points)} points)"

    def get(self, key: Key) -> Value:
        try:
            return self._points[key]
        except KeyError:
            raise MissingKeyError(key) from None

    def index(self, table: str) -> TableIndex:
        """The table's index (empty for a table without data points); all
        tables are indexed together, on the first call."""
        if self._indexes is None:
            self._indexes = _index_tables(self._points)
        found = self._indexes.get(table)
        return found if found is not None else TableIndex([], [], [], {}, {})

    def tables(self) -> list[str]:
        return sorted({k.table for k in self.key_set})

    def units(self, table: str) -> list[str]:
        return list(self.index(table).units)

    def times(self, table: str) -> list[Optional[str]]:
        """Distinct occasions of a table, oldest first (numeric-aware order)."""
        return list(self.index(table).times)

    def records(self, table: str) -> list[tuple[str, Optional[str]]]:
        """(unit, time) of every record of a table, by unit then time in
        natural order."""
        return list(self.index(table).records)

    def variables(self, table: str) -> list[str]:
        return sorted(self.index(table).columns)


def _index_tables(points: dict[Key, Value]) -> dict[str, TableIndex]:
    """Index every table in one pass over the points.  Each distinct unit
    or occasion label is ranked by ``natural_order`` once, and records
    are sorted by those ranks."""
    records: dict[str, set[tuple[str, Optional[str]]]] = defaultdict(set)
    columns: dict[str, dict[str, dict]] = defaultdict(lambda: defaultdict(dict))
    for key, value in points.items():
        records[key.table].add((key.unit, key.time))
        columns[key.table][key.variable][key.unit, key.time] = value
    labels = {label for pairs in records.values() for record in pairs for label in record}
    rank = {label: i for i, label in enumerate(sorted(labels, key=natural_order))}
    indexes = {}
    for table, pairs in records.items():
        times = sorted({time for _, time in pairs}, key=rank.__getitem__)
        indexes[table] = TableIndex(
            units=sorted({unit for unit, _ in pairs}, key=rank.__getitem__),
            times=times,
            records=sorted(pairs, key=lambda r: (rank[r[0]], rank[r[1]])),
            positions={time: i for i, time in enumerate(times)},
            columns=dict(columns[table]),
        )
    return indexes


def natural_order(label: Optional[str]):
    """Sort key for unit and time labels: numbers before text, by value.
    Numerically equal labels (``1``, ``01``, ``1.0``) order by their text,
    so the order never depends on set iteration."""
    if label is None:
        return (0, 0, "")
    if label.isascii() and label.isdigit():  # the common case: an int compares faster
        return (1, int(label), label)
    try:
        return (1, Fraction(label), label)
    except (ValueError, ZeroDivisionError):
        return (2, Fraction(0), label)


def build_dataset(points: Iterable[DataPoint], declared_keys: Optional[Iterable[Key]] = None) -> Dataset:
    """Assemble a dataset, enforcing exactly-once keys.

    With ``declared_keys`` given, every point's key must be declared and
    declared keys absent from ``points`` are bound to NA.
    """
    mapping: dict[Key, Value] = {}
    for point in points:
        if point.key in mapping:
            raise DuplicateKeyError(point.key)
        mapping[point.key] = point.value
    if declared_keys is None:
        key_set = frozenset(mapping)
    else:
        key_set = frozenset(declared_keys)
        for key in mapping:
            if key not in key_set:
                raise UnknownKeyError(key)
        for key in key_set:
            mapping.setdefault(key, NA)
    return Dataset(mapping, key_set)


def get_value(dataset: Dataset, key: Key) -> Value:
    """Total-function access; MissingKeyError outside the key set."""
    return dataset.get(key)
