"""Three-valued truth values with strong Kleene connectives.

TRUE and FALSE behave classically; NA means "cannot be decided from the
data at hand" and propagates except where a definite operand already
decides the outcome (FALSE dominates conjunction, TRUE dominates
disjunction).
"""

from __future__ import annotations

from enum import Enum
from functools import reduce
from typing import Iterable


class TriBool(Enum):
    TRUE = "true"
    FALSE = "false"
    NA = "na"

    def __repr__(self) -> str:
        return self.value.upper() if self is not TriBool.NA else "NA"

    def __str__(self) -> str:
        return _TEXT[self._value_]

    @staticmethod
    def of(flag: bool) -> "TriBool":
        return _T if flag else _F


# enum member and value lookups are slow; these are read instead
_T, _F, _N = TriBool.TRUE, TriBool.FALSE, TriBool.NA
_TEXT = {"true": "True", "false": "False", "na": "NA"}


def not_(a: TriBool) -> TriBool:
    return _F if a is _T else _T if a is _F else _N


def and2(a: TriBool, b: TriBool) -> TriBool:
    """Conjunction of two operands, both already evaluated."""
    if a is _F or b is _F:
        return _F
    return _N if a is _N or b is _N else _T


def or2(a: TriBool, b: TriBool) -> TriBool:
    """Disjunction of two operands, both already evaluated."""
    if a is _T or b is _T:
        return _T
    return _N if a is _N or b is _N else _F


def and_(args: Iterable[TriBool]) -> TriBool:
    return reduce(and2, args, _T)


def or_(args: Iterable[TriBool]) -> TriBool:
    return reduce(or2, args, _F)


def implies(cond: TriBool, conseq: TriBool) -> TriBool:
    return or2(not_(cond), conseq)


def kleene_apply(op: str, args: list[TriBool]) -> TriBool:
    """Apply a logical connective; ``if`` reads its two args as
    (condition, consequent)."""
    if op == "not":
        (a,) = args
        return not_(a)
    if op == "and":
        return and_(args)
    if op == "or":
        return or_(args)
    if op == "if":
        cond, conseq = args
        return implies(cond, conseq)
    raise ValueError(f"unknown logical operator {op!r}")
