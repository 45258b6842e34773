"""Declared tables, variables, and value domains.

The schema fixes the universe that validation and analysis work over:
which variables exist per table, whether each is numeric, integer, or
categorical, its bounds or level set, and whether NA is an admissible
value for it.

Schema file format (one declaration per line, ``#`` starts a comment
anywhere on a line)::

    person.age  : integer [0, 120]
    person.job  : categorical {employed, unemployed} nullable
    trade.value : numeric

Bounds are inclusive on both ends.  A categorical level is the text
between two commas of its set, stripped; double quotes around it are
dropped (``""`` is the empty level).  A level holds no comma, ``}``,
``#`` or other double quote, so ``{"a,b", c}`` is a syntax error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import DuplicateVariableError, SchemaSyntaxError

NUMERIC = "numeric"
INTEGER = "integer"
CATEGORICAL = "categorical"

_KINDS = (NUMERIC, INTEGER, CATEGORICAL)


@dataclass(frozen=True)
class VariableDecl:
    """One declared variable: its kind, its domain, and NA admissibility.

    ``levels`` keeps declaration order; analysis code treats it as a set.
    """

    name: str
    kind: str
    bounds: Optional[tuple[Fraction, Fraction]] = None
    levels: Optional[tuple[str, ...]] = None
    nullable: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.kind == CATEGORICAL:
            if not self.levels:
                raise ValueError(f"categorical variable {self.name!r} needs levels")
            if self.bounds is not None:
                raise ValueError(f"categorical variable {self.name!r} cannot have bounds")
        else:
            if self.levels is not None:
                raise ValueError(f"{self.kind} variable {self.name!r} cannot have levels")
        if self.bounds is not None and self.bounds[0] > self.bounds[1]:
            raise ValueError(f"variable {self.name!r}: lower bound above upper bound")


@dataclass(frozen=True)
class Schema:
    """All table declarations."""

    tables: dict[str, tuple[VariableDecl, ...]] = field(default_factory=dict)
    #: (table or None, name) -> (table, decl), built once from ``tables``
    _names: dict[tuple[Optional[str], str], tuple[str, VariableDecl]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names: dict[tuple[Optional[str], str], tuple[str, VariableDecl]] = {}
        declared: dict[str, int] = {}
        for tbl, decls in self.tables.items():
            for decl in decls:
                names.setdefault((tbl, decl.name), (tbl, decl))
                names.setdefault((None, decl.name), (tbl, decl))
                declared[decl.name] = declared.get(decl.name, 0) + 1
        for name, count in declared.items():
            if count > 1:
                del names[None, name]
        object.__setattr__(self, "_names", names)

    def lookup(self, table: Optional[str], variable: str) -> Optional[tuple[str, VariableDecl]]:
        """Resolve a possibly unqualified variable reference.

        Unqualified names resolve when exactly one table declares them.
        Returns (table, decl) or None.
        """
        return self._names.get((table, variable))


_DECL_RE = re.compile(
    r"""^\s*
    (?P<table>[A-Za-z_]\w*)\s*\.\s*(?P<var>[A-Za-z_]\w*)
    \s*:\s*
    (?P<kind>numeric|integer|categorical)
    (?P<rest>.*)$""",
    re.VERBOSE,
)

_BOUNDS_RE = re.compile(r"^\s*\[\s*([^,\]]+)\s*,\s*([^,\]]+)\s*\]")
_LEVELS_RE = re.compile(r"^\s*\{([^}]*)\}")


def _parse_level(raw: str, lineno: int) -> str:
    raw = raw.strip()
    level = raw[1:-1] if len(raw) >= 2 and raw[0] == raw[-1] == '"' else raw
    if '"' in level:
        raise SchemaSyntaxError(lineno, f"unbalanced quote in level {raw!r}")
    if not raw:
        raise SchemaSyntaxError(lineno, "empty level name")
    return level


def parse_schema(text: str) -> Schema:
    """Parse the line-oriented schema format documented in the module
    docstring."""
    tables: dict[str, list[VariableDecl]] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line, comment, _ = raw_line.partition("#")
        line = line.strip()
        if comment and (line.rfind("{") > line.rfind("}") or line.rfind("[") > line.rfind("]")):
            raise SchemaSyntaxError(lineno, "'#' starts a comment, so it cannot be part of a level or a bound")
        if not line:
            continue
        m = _DECL_RE.match(line)
        if not m:
            raise SchemaSyntaxError(lineno, f"cannot parse declaration: {line!r}")
        table, var, kind = m.group("table"), m.group("var"), m.group("kind")
        rest = m.group("rest")

        bounds: Optional[tuple[Fraction, Fraction]] = None
        levels: Optional[tuple[str, ...]] = None
        if kind == CATEGORICAL:
            lm = _LEVELS_RE.match(rest)
            if not lm:
                raise SchemaSyntaxError(lineno, "categorical declaration needs {level, ...}")
            items = [s for s in lm.group(1).split(",")]
            if len(items) == 1 and not items[0].strip():
                raise SchemaSyntaxError(lineno, "categorical level set is empty")
            levels = tuple(_parse_level(item, lineno) for item in items)
            if len(set(levels)) != len(levels):
                raise SchemaSyntaxError(lineno, "duplicate level in level set")
            rest = rest[lm.end():]
        else:
            bm = _BOUNDS_RE.match(rest)
            if bm:
                try:
                    low, high = Fraction(bm.group(1).strip()), Fraction(bm.group(2).strip())
                except (ValueError, ZeroDivisionError):
                    raise SchemaSyntaxError(lineno, "bounds must be exact numbers") from None
                if low > high:
                    raise SchemaSyntaxError(lineno, "lower bound above upper bound")
                bounds = (low, high)
                rest = rest[bm.end():]

        nullable = False
        tail = rest.strip()
        if tail == "nullable":
            nullable = True
        elif tail:
            raise SchemaSyntaxError(lineno, f"unexpected trailing text: {tail!r}")

        decls = tables.setdefault(table, [])
        if any(d.name == var for d in decls):
            raise DuplicateVariableError(table, var)
        decls.append(VariableDecl(var, kind, bounds=bounds, levels=levels, nullable=nullable))
    return Schema(tables={t: tuple(ds) for t, ds in tables.items()})
