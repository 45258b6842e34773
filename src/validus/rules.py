"""The rule DSL: abstract syntax, parser, formatter, and rule algebra.

Grammar (comments start with ``#``, strings are double-quoted, numbers
are exact decimal literals)::

    ruleset    = { rule } ;
    rule       = name ":" expr ;
    expr       = "if" "(" expr ")" expr | or_expr ;
    or_expr    = and_expr { "or" and_expr } ;
    and_expr   = not_expr { "and" not_expr } ;
    not_expr   = "not" not_expr | cmp ;
    cmp        = sum [ ("<"|"<="|"=="|"!="|">="|">") sum ] ;
    sum        = term { ("+"|"-") term } ;
    term       = factor { ("*"|"/") factor } ;
    factor     = number | string | "NA" | set | varref | call
               | "(" expr ")" | "-" factor ;
    set        = "{" literal { "," literal } "}" ;
    literal    = [ "-" ] number | string ;
    call       = fn "(" expr { "," expr } ")" ;
    varref     = [ ident "." ] ident [ "@" integer ] ;

``fn`` is one of mean, sum, min, max, count, abs, is_number,
is_integer, is_text, is_na, in_set.  ``var@n`` reads the variable n
occasions back for the same unit; ``table.variable`` references another
table and is only meaningful under an aggregate.  ``if (C) Q`` is
logical implication.
"""

from __future__ import annotations

import operator
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Union

from .errors import DuplicateRuleNameError, RuleParseError, RuleTypeError
from .model import format_number
from .schema import Schema

AGGREGATE_FNS = ("mean", "sum", "min", "max", "count")
BUILTIN_FNS = ("is_number", "is_integer", "is_text", "is_na", "in_set")
_CALL_FNS = AGGREGATE_FNS + ("abs",) + BUILTIN_FNS

#: Each comparison operator as a predicate on two values.
COMPARE = {
    "<": operator.lt, "<=": operator.le, "==": operator.eq,
    "!=": operator.ne, ">=": operator.ge, ">": operator.gt,
}
#: The operator whose comparison is the negation of each one.
_NEGATED_CMP = {"<": ">=", "<=": ">", "==": "!=", "!=": "==", ">=": "<", ">": "<="}
_KEYWORDS = ("if", "and", "or", "not", "NA")


# --- abstract syntax ----------------------------------------------------

@dataclass(frozen=True)
class NumberLit:
    value: Fraction


@dataclass(frozen=True)
class TextLit:
    value: str


@dataclass(frozen=True)
class NALit:
    pass


@dataclass(frozen=True)
class SetLit:
    """Literal value set; only valid as the second argument of in_set."""

    items: tuple[Union[Fraction, str], ...]


@dataclass(frozen=True)
class VarRef:
    variable: str
    table: Optional[str] = None
    lag: int = 0


@dataclass(frozen=True)
class Aggregate:
    fn: str
    arg: "Expr"


@dataclass(frozen=True)
class Unary:
    op: str  # neg, not, abs
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # + - * / < <= == != >= > and or
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class If:
    """Logical implication: if (cond) then."""

    cond: "Expr"
    then: "Expr"


@dataclass(frozen=True)
class Builtin:
    fn: str
    args: tuple["Expr", ...]


Expr = Union[NumberLit, TextLit, NALit, SetLit, VarRef, Aggregate, Unary, Binary, If, Builtin]


@dataclass(frozen=True)
class Rule:
    name: str
    body: Expr
    source_span: Optional[tuple[int, int]] = None

    def __repr__(self) -> str:
        try:
            return f"Rule({format_rule(self)!r})"
        except ValueError:  # a body that has no rule text
            return f"Rule(name={self.name!r}, body={self.body!r})"


@dataclass(frozen=True)
class RuleSet:
    rules: tuple[Rule, ...] = ()
    _index: dict[str, Rule] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index = {rule.name: rule for rule in self.rules}
        if len(index) < len(self.rules):
            # name the first name in file order that occurs twice
            counts = Counter(r.name for r in self.rules)
            raise DuplicateRuleNameError(next(n for n in index if counts[n] > 1))
        object.__setattr__(self, "_index", index)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __getitem__(self, name: str) -> Rule:
        return self._index[name]

    def names(self) -> list[str]:
        return [r.name for r in self.rules]

    def without(self, name: str) -> "RuleSet":
        return RuleSet(tuple(r for r in self.rules if r.name != name))

    def replacing(self, name: str, new_rule: Rule) -> "RuleSet":
        return RuleSet(tuple(new_rule if r.name == name else r for r in self.rules))


# --- lexer --------------------------------------------------------------
# A token is a tuple (kind, text, line, col, value).  The kind is the
# name of the pattern group that matched (NUMBER, STRING, IDENT, OP) or
# EOF; the value is a NUMBER's Fraction or a STRING's unescaped text.

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<comment>\#[^\n]*)
    | (?P<NUMBER>\d+(?:\.\d+)?)
    | (?P<IDENT>[A-Za-z_]\w*)
    | (?P<STRING>"(?:\\.|[^"\\\n])*")
    | (?P<OP><=|==|!=|>=|[-+*/<>(){},.@:])
    | (?P<bad>(?s:.))
    """,
    re.VERBOSE,
)

_STRING_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}


def _unescape(raw: str, line: int, col: int) -> str:
    out = []
    i = 1
    while i < len(raw) - 1:
        ch = raw[i]
        if ch == "\\":
            esc = raw[i + 1]
            if esc not in _STRING_ESCAPES:
                raise RuleParseError(line, col, f"valid escape, not \\{esc}")
            out.append(_STRING_ESCAPES[esc])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _tokenize(text: str) -> list[tuple]:
    # ``bad`` matches any character no token starts with, so the matches
    # tile the text and each one starts where the previous one ended
    tokens: list[tuple] = []
    append = tokens.append
    numbers: dict[str, Fraction] = {}
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            raw = m.group()
            if "\n" in raw:
                line += raw.count("\n")
                line_start = m.start() + raw.rindex("\n") + 1
        elif kind == "IDENT" or kind == "OP":
            append((kind, m.group(), line, m.start() - line_start + 1, None))
        elif kind == "NUMBER":
            raw = m.group()
            value = numbers.get(raw)
            if value is None:
                value = numbers[raw] = Fraction(raw)
            append((kind, raw, line, m.start() - line_start + 1, value))
        elif kind == "STRING":
            raw, col = m.group(), m.start() - line_start + 1
            append((kind, raw, line, col, _unescape(raw, line, col)))
        elif kind == "bad":
            raise RuleParseError(line, m.start() - line_start + 1, f"a token, not {m.group()!r}")
    append(("EOF", "", line, len(text) - line_start + 1, None))
    return tokens


# --- parser -------------------------------------------------------------
# Operators and keywords are recognised by their text alone: no number,
# string or name has the text of an operator, and a keyword is a name.

class _Parser:
    def __init__(self, tokens: list[tuple]):
        self.tokens = tokens
        self.pos = 0

    def _fail(self, expected: str):
        _, _, line, col, _ = self.tokens[self.pos]
        raise RuleParseError(line, col, expected)

    def _expect_op(self, op: str) -> None:
        if self.tokens[self.pos][1] != op:
            self._fail(f"{op!r}")
        self.pos += 1

    def ruleset(self) -> list[Rule]:
        rules = []
        while self.tokens[self.pos][0] != "EOF":
            rules.append(self.rule())
        return rules

    def rule(self) -> Rule:
        kind, name, line, col, _ = self.tokens[self.pos]
        if kind != "IDENT" or name in _KEYWORDS:
            self._fail("a rule name")
        self.pos += 1
        self._expect_op(":")
        return Rule(name, self.expr(), (line, col))

    def expr(self) -> Expr:
        if self.tokens[self.pos][1] == "if":
            self.pos += 1
            self._expect_op("(")
            cond = self.expr()
            self._expect_op(")")
            return If(cond, self.expr())
        return self.or_expr()

    def or_expr(self) -> Expr:
        node = self.and_expr()
        while self.tokens[self.pos][1] == "or":
            self.pos += 1
            node = Binary("or", node, self.and_expr())
        return node

    def and_expr(self) -> Expr:
        node = self.not_expr()
        while self.tokens[self.pos][1] == "and":
            self.pos += 1
            node = Binary("and", node, self.not_expr())
        return node

    def not_expr(self) -> Expr:
        if self.tokens[self.pos][1] == "not":
            self.pos += 1
            return Unary("not", self.not_expr())
        return self.cmp()

    def cmp(self) -> Expr:
        node = self.sum()
        op = self.tokens[self.pos][1]
        if op in COMPARE:
            self.pos += 1
            node = Binary(op, node, self.sum())
        return node

    def sum(self) -> Expr:
        node = self.term()
        while (op := self.tokens[self.pos][1]) in ("+", "-"):
            self.pos += 1
            node = Binary(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while (op := self.tokens[self.pos][1]) in ("*", "/"):
            self.pos += 1
            node = Binary(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        kind, text, _, _, value = self.tokens[self.pos]
        if kind == "NUMBER":
            self.pos += 1
            return NumberLit(value)
        if kind == "STRING":
            self.pos += 1
            return TextLit(value)
        if kind == "IDENT":
            if text in _KEYWORDS:
                if text != "NA":
                    self._fail("an expression")
                self.pos += 1
                return NALit()
            if text in _CALL_FNS and self.tokens[self.pos + 1][1] == "(":
                return self.call()
            return self.varref()
        if text == "-":
            self.pos += 1
            inner = self.factor()
            if isinstance(inner, NumberLit):  # fold negative literals
                return NumberLit(-inner.value)
            return Unary("neg", inner)
        if text == "(":
            self.pos += 1
            node = self.expr()
            self._expect_op(")")
            return node
        if text == "{":
            self.pos += 1
            return self.set_tail()
        self._fail("an expression")

    def set_tail(self) -> SetLit:
        tokens = self.tokens
        items: list[Union[Fraction, str]] = []
        while True:
            kind, text, _, _, value = tokens[self.pos]
            if kind == "NUMBER" or kind == "STRING":
                self.pos += 1
                items.append(value)
            elif text == "-" and tokens[self.pos + 1][0] == "NUMBER":
                items.append(-tokens[self.pos + 1][4])
                self.pos += 2
            else:
                self._fail("a number or string inside { }")
            if tokens[self.pos][1] == "}":
                self.pos += 1
                return SetLit(tuple(items))
            self._expect_op(",")

    def call(self) -> Expr:
        fn = self.tokens[self.pos][1]
        self.pos += 2  # the name and its "("
        args = [self.expr()]
        while self.tokens[self.pos][1] == ",":
            self.pos += 1
            args.append(self.expr())
        self._expect_op(")")
        if fn == "abs":
            if len(args) != 1:
                self._fail("one argument to abs")
            return Unary("abs", args[0])
        if fn in AGGREGATE_FNS:
            if len(args) != 1:
                self._fail(f"one argument to {fn}")
            return Aggregate(fn, args[0])
        if fn == "in_set":
            if len(args) != 2:
                self._fail("two arguments to in_set")
        elif len(args) != 1:
            self._fail(f"one argument to {fn}")
        return Builtin(fn, tuple(args))

    def varref(self) -> VarRef:
        tokens = self.tokens
        name = tokens[self.pos][1]
        self.pos += 1
        table: Optional[str] = None
        if tokens[self.pos][1] == ".":
            self.pos += 1
            kind, text, _, _, _ = tokens[self.pos]
            if kind != "IDENT":
                self._fail("a variable name after '.'")
            table, name = name, text
            self.pos += 1
        lag = 0
        if tokens[self.pos][1] == "@":
            self.pos += 1
            kind, _, _, _, value = tokens[self.pos]
            if kind != "NUMBER" or value.denominator != 1:
                self._fail("an integer lag after '@'")
            self.pos += 1
            lag = int(value)
        return VarRef(name, table, lag)


# --- static typing ------------------------------------------------------

T_NUM, T_TEXT, T_VAL, T_LOG, T_SET = "number", "text", "value", "logical", "set"
_SCALARS = (T_NUM, T_TEXT, T_VAL)
_NUMERICISH = (T_NUM, T_VAL)


def _typeof(expr: Expr, rule_name: str) -> str:
    def err(node: Expr, message: str):
        raise RuleTypeError(rule_name, format_expr(node), message)

    if isinstance(expr, NumberLit):
        return T_NUM
    if isinstance(expr, TextLit):
        return T_TEXT
    if isinstance(expr, (NALit, VarRef)):
        return T_VAL
    if isinstance(expr, SetLit):
        return T_SET
    if isinstance(expr, Aggregate):
        t = _typeof(expr.arg, rule_name)
        if expr.fn == "count":
            if t not in _SCALARS:
                err(expr, f"count needs a data argument, not {t}")
        elif t not in _NUMERICISH:
            err(expr, f"{expr.fn} needs a numeric argument, not {t}")
        return T_NUM
    if isinstance(expr, Unary):
        t = _typeof(expr.operand, rule_name)
        if expr.op == "not":
            if t != T_LOG:
                err(expr, f"not needs a logical operand, not {t}")
            return T_LOG
        if t not in _NUMERICISH:
            err(expr, f"{expr.op} needs a numeric operand, not {t}")
        return T_NUM
    if isinstance(expr, Binary):
        lt = _typeof(expr.left, rule_name)
        rt = _typeof(expr.right, rule_name)
        if expr.op in ("+", "-", "*", "/"):
            for t in (lt, rt):
                if t not in _NUMERICISH:
                    err(expr, f"{expr.op!r} needs numeric operands, got {t}")
            return T_NUM
        if expr.op in COMPARE:
            for t in (lt, rt):
                if t not in _SCALARS:
                    err(expr, f"{expr.op!r} compares data values, got {t}")
            return T_LOG
        # and / or
        for t in (lt, rt):
            if t != T_LOG:
                err(expr, f"{expr.op!r} needs logical operands, got {t}")
        return T_LOG
    if isinstance(expr, If):
        for part in (expr.cond, expr.then):
            if _typeof(part, rule_name) != T_LOG:
                err(expr, "if needs logical condition and consequent")
        return T_LOG
    if isinstance(expr, Builtin):
        if expr.fn == "in_set":
            t0 = _typeof(expr.args[0], rule_name)
            if t0 not in _SCALARS:
                err(expr, f"in_set tests a data value, got {t0}")
            if not isinstance(expr.args[1], SetLit):
                err(expr, "the second argument of in_set must be a literal set")
            return T_LOG
        t = _typeof(expr.args[0], rule_name)
        if t not in _SCALARS:
            err(expr, f"{expr.fn} tests a data value, got {t}")
        return T_LOG
    raise AssertionError(f"unhandled node {expr!r}")


def type_check(rule: Rule) -> None:
    """Reject rules whose body is not a logical expression."""
    t = _typeof(rule.body, rule.name)
    if t != T_LOG:
        raise RuleTypeError(rule.name, format_expr(rule.body), f"rule body must be logical, not {t}")


# --- public operations --------------------------------------------------

def parse_rules(text: str) -> RuleSet:
    """Parse and type-check a rule file."""
    rules = _Parser(_tokenize(text)).ruleset()
    for rule in rules:
        type_check(rule)
    return RuleSet(tuple(rules))


def parse_rule(text: str) -> Rule:
    """Parse a single ``name: expr`` rule (convenience for tests and API use)."""
    ruleset = parse_rules(text)
    if len(ruleset) != 1:
        raise ValueError("expected exactly one rule")
    return ruleset.rules[0]


def negate_expr(expr: Expr) -> Expr:
    """An expression equivalent to not(expr) under three-valued logic,
    with the negation pushed inward (comparisons flip, De Morgan on
    and/or, implications become cond-and-not-consequent)."""
    if isinstance(expr, Binary):
        if expr.op in _NEGATED_CMP:
            return Binary(_NEGATED_CMP[expr.op], expr.left, expr.right)
        if expr.op == "and":
            return Binary("or", negate_expr(expr.left), negate_expr(expr.right))
        if expr.op == "or":
            return Binary("and", negate_expr(expr.left), negate_expr(expr.right))
    if isinstance(expr, Unary) and expr.op == "not":
        return expr.operand
    if isinstance(expr, If):
        return Binary("and", expr.cond, negate_expr(expr.then))
    return Unary("not", expr)


def negate_rule(rule: Rule) -> Rule:
    return Rule(rule.name, negate_expr(rule.body), rule.source_span)


def scoped_nodes(expr: Expr) -> list[tuple[Expr, Optional[Aggregate]]]:
    """Every node of ``expr`` in source order, each with its innermost
    enclosing aggregate (None at record scope).  A node comes before
    the nodes inside it, so an aggregate precedes its whole argument."""
    nodes: list[tuple[Expr, Optional[Aggregate]]] = []
    stack: list[tuple[Expr, Optional[Aggregate]]] = [(expr, None)]
    while stack:
        node, scope = stack.pop()
        nodes.append((node, scope))
        if isinstance(node, Aggregate):
            stack.append((node.arg, node))
        elif isinstance(node, Unary):
            stack.append((node.operand, scope))
        elif isinstance(node, Binary):
            stack += ((node.right, scope), (node.left, scope))
        elif isinstance(node, If):
            stack += ((node.then, scope), (node.cond, scope))
        elif isinstance(node, Builtin):
            stack += ((arg, scope) for arg in reversed(node.args))
    return nodes


class RuleScope(NamedTuple):
    """The tables a rule reads, from one walk of its body.

    ``refs`` holds each reference in source order with its table.  With
    a schema the table is the one ``Schema.lookup`` resolves, and None
    when it resolves none.  Without one it is the qualifier, or else
    ``fold``, the rule's only qualifier when it names one table, or else
    None for the default table.  ``record_tables`` holds the tables that
    references outside every aggregate read, and ``aggregates`` each
    aggregate, enclosing ones first, with the tables its own references
    read (not those of aggregates inside it) and its group table: its
    one own table, else the group of the enclosing aggregate, else the
    one record table, else None.  Only tables that are not None count.
    """

    refs: list[tuple[VarRef, Optional[str]]]
    fold: Optional[str]
    record_tables: set[str]
    aggregates: list[tuple[Aggregate, set[str], Optional[str]]]
    max_lag: int

    @property
    def has_aggregate(self) -> bool:
        return bool(self.aggregates)


def rule_scope(rule: Rule, schema: Optional[Schema] = None) -> RuleScope:
    """Scope ``rule`` in one walk.  Raises nothing: each caller turns
    the facts into its own errors."""
    found: list[tuple[VarRef, Optional[Aggregate]]] = []
    aggregates: list[tuple[Aggregate, Optional[Aggregate]]] = []
    for node, scope in scoped_nodes(rule.body):
        if isinstance(node, VarRef):
            found.append((node, scope))
        elif isinstance(node, Aggregate):
            aggregates.append((node, scope))
    explicit = {ref.table for ref, _ in found if ref.table is not None}
    fold = next(iter(explicit)) if len(explicit) == 1 else None
    refs: list[tuple[VarRef, Optional[str]]] = []
    # tables read directly in each scope: None or an aggregate's id
    scope_tables: dict[Optional[int], set[str]] = {}
    max_lag = 0
    for ref, scope in found:
        if schema is None:
            table = ref.table or fold
        else:
            hit = schema.lookup(ref.table, ref.variable)
            table = None if hit is None else hit[0]
        refs.append((ref, table))
        if table is not None:
            scope_tables.setdefault(None if scope is None else id(scope), set()).add(table)
        if ref.lag > max_lag:
            max_lag = ref.lag
    record_tables = scope_tables.get(None, set())
    record_table = next(iter(record_tables)) if len(record_tables) == 1 else None
    groups: dict[int, Optional[str]] = {}
    scoped: list[tuple[Aggregate, set[str], Optional[str]]] = []
    for node, scope in aggregates:  # an aggregate comes after its enclosing one
        own = scope_tables.get(id(node), set())
        enclosing = record_table if scope is None else groups[id(scope)]
        groups[id(node)] = group = None if len(own) > 1 else next(iter(own), enclosing)
        scoped.append((node, own, group))
    return RuleScope(refs, fold, record_tables, scoped, max_lag)


# --- formatting ---------------------------------------------------------

_PREC_IF, _PREC_OR, _PREC_AND, _PREC_NOT, _PREC_CMP, _PREC_SUM, _PREC_TERM, _PREC_NEG, _PREC_ATOM = range(9)


_BINARY_PREC = {
    "or": _PREC_OR, "and": _PREC_AND, "+": _PREC_SUM, "-": _PREC_SUM, "*": _PREC_TERM, "/": _PREC_TERM,
}
_UNARY_PREC = {"not": _PREC_NOT, "neg": _PREC_NEG}


def _prec(expr: Expr) -> int:
    if isinstance(expr, Binary):
        return _BINARY_PREC.get(expr.op, _PREC_CMP)
    if isinstance(expr, If):
        return _PREC_IF
    if isinstance(expr, Unary):
        return _UNARY_PREC.get(expr.op, _PREC_ATOM)
    if isinstance(expr, NumberLit) and "/" in format_number(expr.value):
        return _PREC_TERM  # the text p/q reads back as a division
    return _PREC_ATOM


def _fmt_literal(item: Union[Fraction, str]) -> str:
    """A set item or a text literal as the parser reads it."""
    if isinstance(item, Fraction):
        text = format_number(item)
        if "/" in text:  # p/q would read back as a division, which a set cannot hold
            raise ValueError(f"set item {text} has no finite decimal form, so the rule text would not parse")
        return text
    escaped = item.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def format_expr(expr: Expr, minprec: int = 0) -> str:
    text = _format_bare(expr)
    if minprec and _prec(expr) < minprec:
        return f"({text})"
    return text


def _format_bare(expr: Expr) -> str:
    if isinstance(expr, Binary):
        prec = _prec(expr)
        left = format_expr(expr.left, prec)
        right = format_expr(expr.right, prec + 1)
        return f"{left} {expr.op} {right}"
    if isinstance(expr, NumberLit):
        return format_number(expr.value)
    if isinstance(expr, TextLit):
        return _fmt_literal(expr.value)
    if isinstance(expr, NALit):
        return "NA"
    if isinstance(expr, SetLit):
        return "{" + ", ".join(_fmt_literal(i) for i in expr.items) + "}"
    if isinstance(expr, VarRef):
        text = expr.variable if expr.table is None else f"{expr.table}.{expr.variable}"
        return text if expr.lag == 0 else f"{text}@{expr.lag}"
    if isinstance(expr, Aggregate):
        return f"{expr.fn}({format_expr(expr.arg)})"
    if isinstance(expr, Builtin):
        return f"{expr.fn}(" + ", ".join(format_expr(a) for a in expr.args) + ")"
    if isinstance(expr, Unary):
        if expr.op == "not":
            return "not " + format_expr(expr.operand, _PREC_NOT)
        if expr.op == "abs":
            return f"abs({format_expr(expr.operand)})"
        return "-" + format_expr(expr.operand, _PREC_NEG)
    if isinstance(expr, If):
        return f"if ({format_expr(expr.cond)}) {format_expr(expr.then)}"
    raise AssertionError(f"unhandled node {expr!r}")


def format_rule(rule: Rule) -> str:
    """Canonical one-line text; reparsing reproduces the same AST.  A set
    item with no finite decimal form has no such text: ValueError."""
    return f"{rule.name}: {format_expr(rule.body)}"


def format_ruleset(rules: RuleSet) -> str:
    return "".join(format_rule(r) + "\n" for r in rules)
