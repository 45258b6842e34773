"""Three-valued truth values.

TRUE and FALSE behave classically; NA means "cannot be decided from the
data at hand".  Rules combine them with the strong Kleene connectives,
under which NA propagates except where a definite operand already
decides the outcome (FALSE dominates conjunction, TRUE dominates
disjunction).  The evaluator computes the connectives inside its
compiled rule plans; ``tests/helpers.py`` keeps a one-value-at-a-time
reference of them for the tests.
"""

from __future__ import annotations

from enum import Enum


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
