"""Three-valued truth values.

TRUE and FALSE behave classically; NA means "cannot be decided from the
data at hand".  Rules combine them with the strong Kleene connectives,
under which NA propagates except where a definite operand already
decides the outcome (FALSE dominates conjunction, TRUE dominates
disjunction).  This module holds only the three values and their
text: the evaluator computes the connectives inside its compiled rule
plans, and ``tests/helpers.py`` keeps a one-value-at-a-time reference
of them for the tests.
"""

from enum import Enum


class TriBool(Enum):
    TRUE = "true"
    FALSE = "false"
    NA = "na"

    def __repr__(self) -> str:
        return self.value.upper() if self is not TriBool.NA else "NA"

    def __str__(self) -> str:
        return _TEXT[self._value_]


# an enum value lookup is slow; __str__ reads this instead
_TEXT = {"true": "True", "false": "False", "na": "NA"}
