"""Exact feasibility of conjunctions of linear inequalities.

Every number here is in the package's one exact form, ``model.Number``:
an ``int`` when integral, else a ``Fraction``.  Constraints are rows
"sum of coeff*var <= bound" (or strictly below), kept in one normal
form: their coefficients are coprime integers.  Variable elimination
(Fourier-Motzkin) keeps each variable's tightest lower and upper bound
apart from the rows, as a value and whether it is strict: a row in one
variable, given or derived, only tightens that variable's bound.  Among
the rows of two or more variables it keeps, per coefficient tuple, only
the tightest, which implies the others.  Each variable's rows, split by
the sign of its coefficient, are kept beside the rows with its bounds
and updated in place: a step touches only the rows and bounds of the
variable it eliminates and what it derives.  Eliminating a variable
meets its two bounds in one constant check, fixes it at each bound in
the rows of the other side (a substitution), and cancels it with
gcd-reduced integer multipliers between two rows.  The elimination
yields each step before making it, and its callers drive it:
``feasible`` back-substitutes through the steps, and ``project``
projects the rows and bounds as they stand at each wanted variable's
step onto that variable, by eliminating the others first.  The
arithmetic stays exact, so strict inequalities and degenerate systems
are decided exactly, and a feasible system yields a rational witness by
back substitution.  That works in integers too: it compares the
candidate bounds on a variable as integer pairs by cross-multiplication,
so only the tightest non-integral bound builds a ``Fraction``.  An
infeasible system yields a core: each derived row and bound carries the
set of input rows it was combined from, so the constant that shows
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


def _combine(low: Row, up: Row, var: str) -> tuple[list[tuple[str, int]], bool, Number]:
    """The coefficients (sorted, nonzero), strictness and bound of the
    row ``low`` and ``up`` imply once ``var`` cancels, before the gcd is
    divided out; ``var`` has a negative coefficient in ``low`` and a
    positive one in ``up``."""
    a, b = -low.coeff(var), up.coeff(var)
    g = gcd(a, b)
    fl, fu = b // g, a // g  # positive, so the inequality direction is kept
    coeffs = {v: fl * c for v, c in low.coeffs}
    for v, c in up.coeffs:
        coeffs[v] = coeffs.get(v, 0) + fu * c
    items = sorted((v, c) for v, c in coeffs.items() if c)
    return items, low.strict or up.strict, fl * low.bound + fu * up.bound


def _substitute(row: Row, var: str, value: Number) -> tuple[list[tuple[str, int]], Number]:
    """The coefficients and bound of ``row`` once ``var`` is fixed at
    ``value``, before the gcd is divided out."""
    items = []
    for v, c in row.coeffs:
        if v == var:
            bound = row.bound - c * value
        else:
            items.append((v, c))
    return items, bound


def _tighter(row: Row, best: Optional[Row]) -> bool:
    """Whether ``row`` replaces ``best`` of the same coefficients: a
    lesser bound, or strict on a tie.  The kept row implies the other."""
    return best is None or row.bound < best.bound or (row.bound == best.bound and row.strict)


#: A bound on one variable: its value, whether it is strict, and a bit
#: per input position it was derived from (read only for a core).
_Bound = tuple[Number, bool, int]

#: Each variable's two sides, lower then upper: the rows of two or more
#: variables with a negative (positive) coefficient on it, by coefficient
#: tuple, and under the key None its tightest lower (upper) bound.
_Sides = dict[str, tuple[dict, dict]]


@dataclass
class _Step:
    var: str
    lo: Optional[_Bound]  # var's tightest lower bound
    hi: Optional[_Bound]  # var's tightest upper bound
    lowers: list[Row]  # rows of two or more variables with negative coefficient on var
    uppers: list[Row]  # rows of two or more variables with positive coefficient on var
    rows: Collection[Row]  # a live view of every such row, as it stands before the step
    sides: _Sides  # a live view of every variable's sides, as they stand before the step


def _eliminate(rows: Collection[Row], core: Optional[list[int]] = None, last: Optional[str] = None,
               sides: Optional[_Sides] = None) -> Iterator[Optional[_Step]]:
    """Eliminate every variable, each step the one with the fewest
    combined rows (a bound counts as one row), then by name, and ``last``
    after all the others.  A row in one variable only tightens that
    variable's bound; the rows of two or more variables are kept one per
    coefficient tuple (the tightest).  Each variable's sides are kept
    beside them: a step removes the eliminated variable's rows, meets its
    two bounds in one constant check, substitutes each bound into the
    rows of the other side, combines the rows pairwise and checks the
    tightest constant among what it derived, so no step looks at a row
    it does not change.  ``sides``, when given, are those of ``rows`` as
    a step shows them, and the elimination starts from a copy of them.

    Yields each step before making it.  When a constant shows the rows
    infeasible, yields None and stops; then, when a ``core`` list is
    given, the positions in ``rows`` of the input rows that constant was
    combined from are appended to it first.
    """
    # by coefficient tuple of each kept row: a bit per input position it
    # was combined from
    masks: Optional[dict] = None if core is None else {}
    kept: dict[tuple[tuple[str, int], ...], Row] = {}

    def keep(row: Row, mask: int) -> None:
        """Keep ``row``, of two or more variables, if it is the tightest
        of its coefficients."""
        key = row.coeffs
        if _tighter(row, kept.get(key)):
            kept[key] = row
            if masks is not None:
                masks[key] = mask
            for v, c in key:
                side = sides.get(v)
                if side is None:
                    side = sides[v] = ({}, {})
                side[c > 0][key] = row

    def tighten(v: str, upper: bool, value: Number, strict: bool, mask: int) -> None:
        """Make ``v``'s upper (or lower) bound ``value`` if that is tighter
        than the bound it has: lesser (greater), or strict on a tie."""
        side = sides.get(v)
        if side is None:
            side = sides[v] = ({}, {})
        side = side[upper]
        best = side.get(None)
        if best is None or (value < best[0] if upper else value > best[0]) or (value == best[0] and strict):
            side[None] = (value, strict, mask)

    def refutes(constant: Optional[tuple[Number, bool, int]]) -> bool:
        """Whether the constant row (bound, strict, mask), 0 <= bound or
        0 < bound when strict, fails; then its core is appended."""
        if constant is None or constant[0] > 0 or (constant[0] == 0 and not constant[1]):
            return False
        if core is not None:
            mask = constant[2]
            core.extend(i for i in range(mask.bit_length()) if mask >> i & 1)
        return True

    if sides is None:
        sides = {}
        constant = None  # the tightest constant row: (bound, strict, mask)
        for i, row in enumerate(rows):
            coeffs = row.coeffs
            if len(coeffs) > 1:
                keep(row, 1 << i)
            elif coeffs:
                v, c = coeffs[0]  # c is 1 or -1
                tighten(v, c > 0, row.bound * c, row.strict, 1 << i)
            elif constant is None or row.bound < constant[0] or (row.bound == constant[0] and row.strict):
                constant = (row.bound, row.strict, 1 << i)
        if refutes(constant):
            yield None
            return
    else:
        kept.update((row.coeffs, row) for row in rows)
        sides = {v: (dict(lower), dict(upper)) for v, (lower, upper) in sides.items()}
    while sides:
        var = min(sides, key=lambda v: (v == last, len(sides[v][0]) * len(sides[v][1]), v))
        lower_side, upper_side = sides[var]
        lowers = [row for key, row in lower_side.items() if key is not None]
        uppers = [row for key, row in upper_side.items() if key is not None]
        yield _Step(var, lower_side.get(None), upper_side.get(None), lowers, uppers, kept.values(), sides)
        del sides[var]
        for row in lowers + uppers:
            key = row.coeffs
            del kept[key]
            for v, c in key:
                if v != var:
                    side = sides[v]
                    del side[c > 0][key]
                    if not side[0] and not side[1]:
                        del sides[v]
        # each lower against each upper, in the order of the sides: two
        # bounds meet in a constant, a bound substitutes into a row, two
        # rows combine
        constant = None
        for lkey, low in lower_side.items():
            for ukey, up in upper_side.items():
                if lkey is None and ukey is None:  # 0 <= hi - lo
                    items, strict, bound = (), low[1] or up[1], up[0] - low[0]
                    mask = low[2] | up[2]
                elif lkey is None or ukey is None:
                    (value, strict, mask), row = (low, up) if lkey is None else (up, low)
                    items, bound = _substitute(row, var, value)
                    strict = strict or row.strict
                    if masks is not None:
                        mask |= masks[row.coeffs]
                else:
                    items, strict, bound = _combine(low, up, var)
                    mask = 0 if masks is None else masks[lkey] | masks[ukey]
                if len(items) > 1:
                    keep(_normal(items, strict, bound), mask)
                elif items:
                    v, c = items[0]
                    tighten(v, c > 0, _quotient(bound, c), strict, mask)
                elif constant is None or bound < constant[0] or (bound == constant[0] and strict):
                    constant = (bound, strict, mask)
        if refutes(constant):
            yield None
            return


def _bounds_on(var: str, lowers: list[Row], uppers: list[Row], assignment: dict[str, Number],
               lo: Optional[_Bound] = None,
               hi: Optional[_Bound] = None) -> tuple[Optional[tuple[Number, bool]], Optional[tuple[Number, bool]]]:
    """(value, open) bounds on var once later variables are fixed; ``lo``
    and ``hi`` are its bounds apart from the rows."""
    return _tightest(var, lowers, assignment, 1, lo), _tightest(var, uppers, assignment, -1, hi)


def _tightest(var: str, rows: list[Row], assignment: dict[str, Number], sign: int,
              start: Optional[_Bound] = None) -> Optional[tuple[Number, bool]]:
    """The greatest (``sign`` 1) or least (``sign`` -1) of ``start``'s
    value and the values of ``var`` at which one of ``rows`` is tight,
    the other variables taking their ``assignment`` values; open when a
    strict row or bound gives it.  The values are compared as integer
    pairs, and only the tightest row's becomes a number: an ``int`` when
    integral, else a ``Fraction``."""
    if start is None:
        best = None  # (numerator, positive denominator, strict)
    elif not rows:
        return start[0], start[1]
    else:
        value = start[0]
        best = (value.numerator, value.denominator, start[1])
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


def _quotient(x: Number, c: int) -> Number:
    """x / c for a nonzero ``c``, in the number form."""
    n, d = x.numerator, x.denominator * c
    return _number(n, d) if d > 0 else _number(-n, -d)


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
        lo, hi = _bounds_on(step.var, step.lowers, step.uppers, assignment, step.lo, step.hi)
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
    variable's step, the rows and bounds as they stand are projected onto
    that variable alone, and the elimination stops once no wanted
    variable is left in them.  Each shadow is so reached by the same
    steps as a projection of ``rows`` onto its variable alone, but the
    steps before the variable's turn are made once for all of them.
    """
    wanted = set(variables)
    shadows: dict[str, Interval] = {}
    for step in _eliminate(rows):
        if step is None:
            return None
        if step.var in wanted:
            if (shadow := _shadow(step)) is None:
                return None
            shadows[step.var] = shadow
            wanted.discard(step.var)
            if wanted.isdisjoint(step.sides):
                break
    # a variable in no row is unbounded
    return {var: shadows.get(var, Interval(None, False, None, False)) for var in variables}


def _shadow(step: _Step) -> Optional[Interval]:
    """The attainable values of ``step.var`` under the rows and bounds as
    they stand at ``step``; None if they are infeasible.  The variable
    goes last, so its step holds nothing but its two bounds, and that
    step's one constant check shows whether they meet."""
    lo = hi = None
    for last in _eliminate(step.rows, last=step.var, sides=step.sides):
        if last is None:
            return None
        if last.var == step.var:
            lo, hi = last.lo, last.hi
    return Interval(*(lo[:2] if lo else (None, False)), *(hi[:2] if hi else (None, False)))
