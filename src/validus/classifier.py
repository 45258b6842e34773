"""Assigns each rule a four-slot single/multiple signature and a level.

Each slot answers, for one key dimension, whether evaluating the rule
needs a single value (s) or multiple values (m) of that dimension:
the unit type (table), the measurement occasion, the unit, and the
variable, in that order.  Two combinations are impossible by
construction: a rule never needs multiple types with a single unit, and
never a single variable across multiple types.  That leaves ten
admissible signatures; the level is the number of m slots (0 to 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .rules import Rule, RuleScope, rule_scope
from .schema import Schema

SINGLE = "s"
MULTI = "m"

#: The ten admissible signatures, grouped by level.
ADMISSIBLE_SIGNATURES = (
    "ssss",
    "sssm", "ssms", "smss",
    "ssmm", "smsm", "smms",
    "smmm", "msmm",
    "mmmm",
)

EXCLUDED_SIGNATURES = ("msss", "mssm", "msms", "mmss", "mmsm", "mmms")


@dataclass(frozen=True)
class RuleSignature:
    """Span over (unit type, occasion, unit, variable); each slot s or m.
    ``text`` is the four slots as one string, ``level`` the number of m
    slots."""

    type_span: str
    time_span: str
    unit_span: str
    variable_span: str
    text: str = field(init=False, repr=False, compare=False)
    level: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for slot in (self.type_span, self.time_span, self.unit_span, self.variable_span):
            if slot not in (SINGLE, MULTI):
                raise ValueError(f"span slot must be 's' or 'm', not {slot!r}")
        if self.type_span == MULTI and self.unit_span == SINGLE:
            raise ValueError("multiple unit types require multiple units")
        if self.type_span == MULTI and self.variable_span == SINGLE:
            raise ValueError("multiple unit types require multiple variables")
        text = self.type_span + self.time_span + self.unit_span + self.variable_span
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "level", text.count(MULTI))

    def __str__(self) -> str:
        return self.text


#: The one RuleSignature of each admissible signature, under its slots
#: as booleans (True for m).
_SIGNATURES = {tuple(slot == MULTI for slot in text): RuleSignature(*text) for text in ADMISSIBLE_SIGNATURES}


def classify_rule(rule: Rule, schema: Optional[Schema] = None, scope: Optional[RuleScope] = None) -> RuleSignature:
    """Read the signature off the rule's scoping.

    Each reference counts under the table the schema resolves it to.
    Without a schema, and for a name the schema does not resolve, it
    counts under its qualifier, else the rule's only qualifier, else
    the default table, which is no unit type of its own.  Multiple
    tables make the type span m (and force the unit and variable spans
    to m); any aggregate or a second table makes the unit span m; any
    lag makes the time span m; more than one distinct (table, variable)
    makes the variable span m.  The result is one of the ten shared
    signatures of ``ADMISSIBLE_SIGNATURES``.  ``scope``, when given, is
    ``rule_scope(rule, schema)``, which the caller already holds.
    """
    if scope is None:
        scope = rule_scope(rule, schema)
    variables = {(table or ref.table or scope.fold, ref.variable) for ref, table in scope.refs}
    multi_table = len({table for table, _ in variables if table is not None}) > 1
    return _SIGNATURES[multi_table, scope.max_lag > 0, scope.has_aggregate or multi_table, len(variables) > 1]
