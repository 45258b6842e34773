"""Exact feasibility of conjunctions of linear inequalities.

Every number here is in the package's one exact form, ``model.Number``:
an ``int`` when integral, else a ``Fraction``.  Constraints are rows
"sum of coeff*var <= bound" (or strictly below), kept in one normal
form: their coefficients are coprime integers.  Variable elimination
(Fourier-Motzkin) cancels a variable with gcd-reduced integer
multipliers, and among rows with the same coefficients keeps only the
tightest, which implies the others.  Each variable's rows, split by the
sign of its coefficient, are kept beside the rows and updated in place:
a step touches only the rows of the variable it eliminates and the rows
it derives.  The elimination yields each step before making it, and its
callers drive it: ``feasible`` back-substitutes through the steps, and
``project`` projects the rows as they stand at each wanted variable's
step onto that variable, by eliminating the others first.  The
arithmetic stays exact, so strict inequalities and degenerate systems
are decided exactly, and a feasible system yields a rational witness by
back substitution.  That works in integers too: it compares the
candidate bounds on a variable as integer pairs by cross-multiplication,
so only the tightest non-integral bound builds a ``Fraction``.  An
infeasible system yields a core: each derived row carries the set of
input rows it was combined from, so the constant row that shows
infeasibility names a subset of the input that is infeasible on its own
(a Farkas certificate).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Collection, Iterator, Optional

from .model import Number


@dataclass(frozen=True)
class Row:
    """sum(coeff * var) <= bound, strictly when ``strict``; the
    coefficients are coprime integers, sorted by variable."""

    coeffs: tuple[tuple[str, int], ...]
    strict: bool
    bound: Number

    def coeff(self, var: str) -> int:
        for name, c in self.coeffs:
            if name == var:
                return c
        return 0

    def holds(self, assignment: dict[str, Number]) -> bool:
        num, den = _dot(self.coeffs, assignment)
        lhs, rhs = num * self.bound.denominator, self.bound.numerator * den
        return lhs < rhs if self.strict else lhs <= rhs


def _dot(coeffs: tuple[tuple[str, int], ...], assignment: dict[str, Number]) -> tuple[int, int]:
    """sum(coeff * value) (absent variables count as 0), as an integer
    numerator and positive denominator."""
    num, den = 0, 1
    for v, c in coeffs:
        value = assignment.get(v)
        if value is None:
            continue
        n, d = value.numerator, value.denominator
        if d == den:
            num += c * n
        else:
            num, den = num * d + c * n * den, den * d
    return num, den


def _normal(items: list[tuple[str, int]], strict: bool, bound: Number) -> Row:
    """The row of nonzero integer coefficients ``items`` (sorted by
    variable) divided by their gcd."""
    g = gcd(*(c for _, c in items))
    if g > 1:
        items = [(v, c // g) for v, c in items]
        bound = Fraction(bound, g)
    if type(bound) is Fraction and bound.denominator == 1:
        bound = bound.numerator
    return Row(tuple(items), strict, bound)


def make_row(coeffs: dict[str, Number], strict: bool, bound: Number) -> Row:
    """The normal form of sum(coeffs[v] * v) <= bound (strictly when
    ``strict``): scaled by a positive factor to coprime integers."""
    items = sorted((v, c) for v, c in coeffs.items() if c != 0)
    scale = lcm(*(c.denominator for _, c in items))
    return _normal([(v, (c * scale).numerator) for v, c in items], strict, bound * scale)


def _combine(low: Row, up: Row, var: str) -> Row:
    """The row ``low`` and ``up`` imply once ``var`` cancels; ``var`` has
    a negative coefficient in ``low`` and a positive one in ``up``."""
    a, b = -low.coeff(var), up.coeff(var)
    g = gcd(a, b)
    fl, fu = b // g, a // g  # positive, so the inequality direction is kept
    coeffs = {v: fl * c for v, c in low.coeffs}
    for v, c in up.coeffs:
        coeffs[v] = coeffs.get(v, 0) + fu * c
    items = sorted((v, c) for v, c in coeffs.items() if c)
    return _normal(items, low.strict or up.strict, fl * low.bound + fu * up.bound)


def _tighter(row: Row, best: Optional[Row]) -> bool:
    """Whether ``row`` replaces ``best`` of the same coefficients: a
    lesser bound, or strict on a tie.  The kept row implies the other."""
    return best is None or row.bound < best.bound or (row.bound == best.bound and row.strict)


@dataclass
class _Step:
    var: str
    lowers: list[Row]  # rows with negative coefficient on var
    uppers: list[Row]  # rows with positive coefficient on var
    rows: Collection[Row]  # a live view of every row, as it stands before the step


def _eliminate(rows: Collection[Row], core: Optional[list[int]] = None,
               last: Optional[str] = None) -> Iterator[Optional[_Step]]:
    """Eliminate every variable, each step the one with the fewest
    combined rows, then by name, and ``last`` after all the others.  The
    rows are kept one per coefficient tuple (the tightest), and each
    variable's sides are kept beside them: a step removes the eliminated
    variable's rows, adds the combined ones and checks the tightest
    constant row among them, so no step looks at a row it does not
    change.

    Yields each step before making it.  When a constant row shows the
    rows infeasible, yields None and stops; then, when a ``core`` list is
    given, the positions in ``rows`` of the input rows that constant row
    was combined from are appended to it first.
    """
    # by id of each row: a bit per input position it was combined from
    masks = None if core is None else {id(row): 1 << i for i, row in enumerate(rows)}
    # the rows and each variable's two sides, by coefficient tuple; a
    # side lists its rows in the order of ``kept``
    kept: dict[tuple[tuple[str, int], ...], Row] = {}
    sides: dict[str, tuple[dict, dict]] = {}

    def add(new: Collection[Row]) -> bool:
        """Keep the tightest of ``new`` per coefficient tuple; False when
        the tightest constant row among them is infeasible."""
        constant = None
        for row in new:
            key = row.coeffs
            if not key:
                if _tighter(row, constant):
                    constant = row
                continue
            best = kept.get(key)
            if _tighter(row, best):
                kept[key] = row
                for v, c in key:
                    side = sides.get(v)
                    if side is None:
                        side = sides[v] = ({}, {})
                    side[c > 0][key] = row
        if constant is None or constant.bound > 0 or (constant.bound == 0 and not constant.strict):
            return True
        if masks is not None:
            mask = masks[id(constant)]
            core.extend(i for i in range(mask.bit_length()) if mask >> i & 1)
        return False

    if not add(rows):
        yield None
        return
    while sides:
        var = min(sides, key=lambda v: (v == last, len(sides[v][0]) * len(sides[v][1]), v))
        lower_side, upper_side = sides.pop(var)
        lowers, uppers = list(lower_side.values()), list(upper_side.values())
        yield _Step(var, lowers, uppers, kept.values())
        for row in lowers + uppers:
            key = row.coeffs
            del kept[key]
            for v, c in key:
                if v != var:
                    side = sides[v]
                    del side[c > 0][key]
                    if not side[0] and not side[1]:
                        del sides[v]
        combined = []
        for low in lowers:
            for up in uppers:
                combined.append(row := _combine(low, up, var))
                if masks is not None:
                    masks[id(row)] = masks[id(low)] | masks[id(up)]
        if not add(combined):
            yield None
            return


def _bounds_on(var: str, lowers: list[Row], uppers: list[Row],
               assignment: dict[str, Number]) -> tuple[Optional[tuple[Number, bool]], Optional[tuple[Number, bool]]]:
    """(value, open) bounds on var once later variables are fixed."""
    return _tightest(var, lowers, assignment, 1), _tightest(var, uppers, assignment, -1)


def _tightest(var: str, rows: list[Row], assignment: dict[str, Number],
              sign: int) -> Optional[tuple[Number, bool]]:
    """The greatest (``sign`` 1) or least (``sign`` -1) of the values of
    ``var`` at which one of ``rows`` is tight, the other variables taking
    their ``assignment`` values; open when a strict row gives it.  The
    values are compared as integer pairs, and only the tightest becomes
    a number: an ``int`` when integral, else a ``Fraction``."""
    best = None  # (numerator, positive denominator, strict)
    for row in rows:
        num, den = _dot(row.coeffs, assignment)  # ``var`` has no value yet
        bound = row.bound
        # (bound - num/den) / c
        n = bound.numerator * den - num * bound.denominator
        d = bound.denominator * den * row.coeff(var)
        if d < 0:  # c < 0 flips the row into a lower bound
            n, d = -n, -d
        if best is not None:
            ahead = (n * best[1] - best[0] * d) * sign
            if ahead < 0 or (ahead == 0 and not row.strict):  # a strict row wins a tie
                continue
        best = (n, d, row.strict)
    if best is None:
        return None
    n, d, strict = best
    return _number(n, d), strict


def _number(n: int, d: int) -> Number:
    """n / d for a positive ``d``: an ``int`` when integral, else a ``Fraction``."""
    return n // d if n % d == 0 else Fraction(n, d)


def _choose(lo: Optional[tuple[Number, bool]], hi: Optional[tuple[Number, bool]]) -> Number:
    if lo is None:
        return hi[0] - 1
    if hi is None:
        return lo[0] + 1
    if lo[0] == hi[0]:
        return lo[0]
    total = lo[0] + hi[0]
    return _number(total.numerator, 2 * total.denominator)


def feasible(rows: list[Row], core: Optional[list[int]] = None) -> Optional[dict[str, Number]]:
    """Witness assignment for the conjunction, or None if infeasible;
    then the positions of an infeasible subset of ``rows`` are appended
    to ``core`` when it is given."""
    steps = list(_eliminate(rows, core))
    if steps and steps[-1] is None:
        return None
    assignment: dict[str, Number] = {}
    for step in reversed(steps):
        lo, hi = _bounds_on(step.var, step.lowers, step.uppers, assignment)
        assignment[step.var] = _choose(lo, hi)
    for row in rows:
        assert row.holds(assignment), f"back substitution violated {row}"
    return assignment


@dataclass(frozen=True)
class Interval:
    """Set of attainable values of one variable; None ends are unbounded."""

    lo: Optional[Number]
    lo_open: bool
    hi: Optional[Number]
    hi_open: bool

    @property
    def is_point(self) -> bool:
        return self.lo is not None and self.lo == self.hi and not self.lo_open and not self.hi_open

    def hull(self, other: "Interval") -> "Interval":
        return Interval(*_outer(self.lo, self.lo_open, other.lo, other.lo_open, -1),
                        *_outer(self.hi, self.hi_open, other.hi, other.hi_open, 1))


def _outer(end: Optional[Number], is_open: bool, other: Optional[Number], other_open: bool,
           sign: int) -> tuple[Optional[Number], bool]:
    """The end of two intervals' hull on one side: the lesser of two lower
    ends (``sign`` -1) or the greater of two upper ends (``sign`` 1),
    unbounded when either is; on a tie, open only when both are."""
    if end is None or other is None:
        return None, False
    if end == other:
        return end, is_open and other_open
    return (end, is_open) if (end - other) * sign > 0 else (other, other_open)


def project(rows: list[Row], variables: Collection[str]) -> Optional[dict[str, Interval]]:
    """Exact shadow of the solution set onto each of ``variables``, by
    variable; None if the conjunction is infeasible.

    One elimination of every variable serves them all: at a wanted
    variable's step, the rows as they stand are projected onto that
    variable alone, and the elimination stops once no wanted variable is
    left in them.  Each shadow is so reached by the same steps as a
    projection of ``rows`` onto its variable alone, but the steps before
    the variable's turn are made once for all of them.
    """
    wanted = set(variables)
    shadows: dict[str, Interval] = {}
    for step in _eliminate(rows):
        if step is None:
            return None
        if step.var in wanted:
            if (shadow := _shadow(step.rows, step.var)) is None:
                return None
            shadows[step.var] = shadow
            wanted.discard(step.var)
            if not any(v in wanted for row in step.rows for v, _ in row.coeffs):
                break
    # a variable in no row is unbounded
    return {var: shadows.get(var, Interval(None, False, None, False)) for var in variables}


def _shadow(rows: Collection[Row], var: str) -> Optional[Interval]:
    """The attainable values of ``var``; None if ``rows`` are infeasible.
    ``var`` goes last, so its step reads its bounds off rows in ``var``
    alone, and that step's one combination shows whether they meet."""
    lo = hi = None
    for step in _eliminate(rows, last=var):
        if step is None:
            return None
        if step.var == var:
            lo, hi = _bounds_on(var, step.lowers, step.uppers, {})
    return Interval(*(lo or (None, False)), *(hi or (None, False)))
