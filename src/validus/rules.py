"""The rule DSL: abstract syntax, parser, formatter, and rule algebra.

Grammar (comments start with ``#``, strings are double-quoted with the
escapes ``\\"``, ``\\\\``, ``\\n``, ``\\t`` and ``\\r``, numbers are exact
decimal literals)::

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
import string
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

@dataclass(frozen=True, slots=True)
class NumberLit:
    value: Fraction


@dataclass(frozen=True, slots=True)
class TextLit:
    value: str


@dataclass(frozen=True, slots=True)
class NALit:
    pass


@dataclass(frozen=True, slots=True)
class SetLit:
    """Literal value set; only valid as the second argument of in_set."""

    items: tuple[Union[Fraction, str], ...]


@dataclass(frozen=True, slots=True)
class VarRef:
    variable: str
    table: Optional[str] = None
    lag: int = 0


@dataclass(frozen=True, slots=True)
class Aggregate:
    fn: str
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class Unary:
    op: str  # neg, not, abs
    operand: "Expr"


@dataclass(frozen=True, slots=True)
class Binary:
    op: str  # + - * / < <= == != >= > and or
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class If:
    """Logical implication: if (cond) then."""

    cond: "Expr"
    then: "Expr"


@dataclass(frozen=True, slots=True)
class Builtin:
    fn: str
    args: tuple["Expr", ...]


Expr = Union[NumberLit, TextLit, NALit, SetLit, VarRef, Aggregate, Unary, Binary, If, Builtin]


@dataclass(frozen=True, slots=True)
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
# One findall reads the whole text.  The matches tile it: the last
# alternative takes any character no token starts with, so each match
# starts where the previous one ended.  A match's kind follows from its
# first character, by the pattern's own classes: white space, "#" a
# comment, \d (str.isdecimal) a NUMBER, [A-Za-z_] an IDENT, a quote a
# STRING, an operator character an OP.  A lone quote, "=" or "!", and
# any other character, is a character no token starts with.

_TOKEN_RE = re.compile(
    r"""
      [ \t\r\n]+
    | \#[^\n]*
    | \d+(?:\.\d+)?
    | [A-Za-z_]\w*
    | "(?:\\.|[^"\\\n])*"
    | <=|==|!=|>=|[-+*/<>(){},.@:]
    | (?s:.)
    """,
    re.VERBOSE,
)

_WS, _COMMENT, _NUMBER, _IDENT, _STRING, _OP, _BAD = "ws", "comment", "NUMBER", "IDENT", "STRING", "OP", "bad"
_FIRST_KIND = {
    **dict.fromkeys(" \t\r\n", _WS),
    "#": _COMMENT,
    **dict.fromkeys("0123456789", _NUMBER),
    **dict.fromkeys(string.ascii_letters + "_", _IDENT),
    '"': _STRING,
    **dict.fromkeys("-+*/<>(){},.@:=!", _OP),
}
#: the operator characters that are no token on their own
_LONE = ("=", "!")

_STRING_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


def _unescape(raw: str, line: int, col: int) -> str:
    if "\\" not in raw:
        return raw[1:-1]
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


class _Tokens(NamedTuple):
    """The tokens of a text as parallel columns.  A kind is NUMBER,
    STRING, IDENT, OP or EOF; a value is a NUMBER's Fraction, a STRING's
    unescaped text, else None."""

    kinds: list[str]
    texts: list[str]
    values: list[object]
    lines: list[int]
    cols: list[int]


def _tokenize(text: str) -> _Tokens:
    tokens = _Tokens([], [], [], [], [])
    add_kind, add_text, add_value, add_line, add_col = (column.append for column in tokens)
    first_kind = _FIRST_KIND
    numbers: dict[str, Fraction] = {}
    line, line_start, pos = 1, 0, 0
    for tok in _TOKEN_RE.findall(text):
        kind = first_kind.get(tok[0])
        if kind is _WS:
            if "\n" in tok:
                line += tok.count("\n")
                line_start = pos + tok.rindex("\n") + 1
        elif kind is not _COMMENT:
            col = pos - line_start + 1
            if kind is _IDENT or kind is _OP:
                value = None
                if tok in _LONE:
                    kind = _BAD
            elif kind is _NUMBER or (kind is None and tok[0].isdecimal()):
                kind = _NUMBER
                value = numbers.get(tok)
                if value is None:
                    value = numbers[tok] = Fraction(tok)
            elif kind is _STRING and len(tok) > 1:
                value = _unescape(tok, line, col)
            else:
                kind = _BAD
            if kind is _BAD:
                raise RuleParseError(line, col, f"a token, not {tok!r}")
            add_kind(kind)
            add_text(tok)
            add_value(value)
            add_line(line)
            add_col(col)
        pos += len(tok)
    add_kind("EOF")
    add_text("")
    add_value(None)
    add_line(line)
    add_col(len(text) - line_start + 1)
    return tokens


# --- parser -------------------------------------------------------------
# Operators and keywords are recognised by their text alone: no number,
# string or name has the text of an operator, and a keyword is a name.

class _Parser:
    def __init__(self, tokens: _Tokens):
        self.kinds, self.texts, self.values, self.lines, self.cols = tokens
        self.pos = 0

    def _fail(self, expected: str):
        raise RuleParseError(self.lines[self.pos], self.cols[self.pos], expected)

    def _expect_op(self, op: str) -> None:
        if self.texts[self.pos] != op:
            self._fail(f"{op!r}")
        self.pos += 1

    def ruleset(self) -> list[Rule]:
        rules = []
        kinds = self.kinds
        while kinds[self.pos] != "EOF":
            rules.append(self.rule())
        return rules

    def rule(self) -> Rule:
        pos = self.pos
        name = self.texts[pos]
        if self.kinds[pos] != _IDENT or name in _KEYWORDS:
            self._fail("a rule name")
        self.pos += 1
        self._expect_op(":")
        return Rule(name, self.expr(), (self.lines[pos], self.cols[pos]))

    def expr(self) -> Expr:
        if self.texts[self.pos] == "if":
            self.pos += 1
            self._expect_op("(")
            cond = self.expr()
            self._expect_op(")")
            return If(cond, self.expr())
        return self.or_expr()

    def or_expr(self) -> Expr:
        node = self.and_expr()
        while self.texts[self.pos] == "or":
            self.pos += 1
            node = Binary("or", node, self.and_expr())
        return node

    def and_expr(self) -> Expr:
        node = self.not_expr()
        while self.texts[self.pos] == "and":
            self.pos += 1
            node = Binary("and", node, self.not_expr())
        return node

    def not_expr(self) -> Expr:
        if self.texts[self.pos] == "not":
            self.pos += 1
            return Unary("not", self.not_expr())
        return self.cmp()

    def cmp(self) -> Expr:
        node = self.sum()
        op = self.texts[self.pos]
        if op in COMPARE:
            self.pos += 1
            node = Binary(op, node, self.sum())
        return node

    def sum(self) -> Expr:
        node = self.term()
        while (op := self.texts[self.pos]) in ("+", "-"):
            self.pos += 1
            node = Binary(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while (op := self.texts[self.pos]) in ("*", "/"):
            self.pos += 1
            node = Binary(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        pos = self.pos
        kind = self.kinds[pos]
        if kind is _NUMBER:
            self.pos += 1
            return NumberLit(self.values[pos])
        if kind is _STRING:
            self.pos += 1
            return TextLit(self.values[pos])
        text = self.texts[pos]
        if kind is _IDENT:
            if text in _KEYWORDS:
                if text != "NA":
                    self._fail("an expression")
                self.pos += 1
                return NALit()
            if text in _CALL_FNS and self.texts[pos + 1] == "(":
                return self.call()
            return self.varref()
        if text == "-":
            self.pos += 1
            inner = self.factor()
            if type(inner) is NumberLit:  # fold negative literals
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
        kinds, texts, values = self.kinds, self.texts, self.values
        items: list[Union[Fraction, str]] = []
        while True:
            pos = self.pos
            kind = kinds[pos]
            if kind is _NUMBER or kind is _STRING:
                self.pos += 1
                items.append(values[pos])
            elif texts[pos] == "-" and kinds[pos + 1] is _NUMBER:
                items.append(-values[pos + 1])
                self.pos += 2
            else:
                self._fail("a number or string inside { }")
            if texts[self.pos] == "}":
                self.pos += 1
                return SetLit(tuple(items))
            self._expect_op(",")

    def call(self) -> Expr:
        fn = self.texts[self.pos]
        self.pos += 2  # the name and its "("
        args = [self.expr()]
        while self.texts[self.pos] == ",":
            self.pos += 1
            args.append(self.expr())
        self._expect_op(")")
        if fn == "in_set":
            if len(args) != 2:
                self._fail("two arguments to in_set")
        elif len(args) != 1:
            self._fail(f"one argument to {fn}")
        if fn == "abs":
            return Unary("abs", args[0])
        if fn in AGGREGATE_FNS:
            return Aggregate(fn, args[0])
        return Builtin(fn, tuple(args))

    def varref(self) -> VarRef:
        kinds, texts = self.kinds, self.texts
        name = texts[self.pos]
        self.pos += 1
        table: Optional[str] = None
        if texts[self.pos] == ".":
            self.pos += 1
            if kinds[self.pos] is not _IDENT:
                self._fail("a variable name after '.'")
            table, name = name, texts[self.pos]
            self.pos += 1
        lag = 0
        if texts[self.pos] == "@":
            self.pos += 1
            value = self.values[self.pos]
            if kinds[self.pos] is not _NUMBER or value.denominator != 1:
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

    cls = type(expr)
    if cls is Binary:
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
    if cls is NumberLit:
        return T_NUM
    if cls is VarRef or cls is NALit:
        return T_VAL
    if cls is TextLit:
        return T_TEXT
    if cls is SetLit:
        return T_SET
    if cls is Aggregate:
        t = _typeof(expr.arg, rule_name)
        if expr.fn == "count":
            if t not in _SCALARS:
                err(expr, f"count needs a data argument, not {t}")
        elif t not in _NUMERICISH:
            err(expr, f"{expr.fn} needs a numeric argument, not {t}")
        return T_NUM
    if cls is Unary:
        t = _typeof(expr.operand, rule_name)
        if expr.op == "not":
            if t != T_LOG:
                err(expr, f"not needs a logical operand, not {t}")
            return T_LOG
        if t not in _NUMERICISH:
            err(expr, f"{expr.op} needs a numeric operand, not {t}")
        return T_NUM
    if cls is If:
        for part in (expr.cond, expr.then):
            if _typeof(part, rule_name) != T_LOG:
                err(expr, "if needs logical condition and consequent")
        return T_LOG
    if cls is Builtin:
        if expr.fn == "in_set":
            t0 = _typeof(expr.args[0], rule_name)
            if t0 not in _SCALARS:
                err(expr, f"in_set tests a data value, got {t0}")
            if type(expr.args[1]) is not SetLit:
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


def scoped_nodes(expr: Expr) -> list[tuple[Expr, Optional[Aggregate]]]:
    """Every node of ``expr`` in source order, each with its innermost
    enclosing aggregate (None at record scope).  A node comes before
    the nodes inside it, so an aggregate precedes its whole argument."""
    nodes: list[tuple[Expr, Optional[Aggregate]]] = []
    stack: list[tuple[Expr, Optional[Aggregate]]] = [(expr, None)]
    while stack:
        item = stack.pop()
        nodes.append(item)
        node, scope = item
        cls = type(node)
        if cls is Binary:
            stack += ((node.right, scope), (node.left, scope))
        elif cls is Unary:
            stack.append((node.operand, scope))
        elif cls is Aggregate:
            stack.append((node.arg, node))
        elif cls is If:
            stack += ((node.then, scope), (node.cond, scope))
        elif cls is Builtin:
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
    for item in scoped_nodes(rule.body):
        cls = type(item[0])
        if cls is VarRef:
            found.append(item)
        elif cls is Aggregate:
            aggregates.append(item)
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
    cls = type(expr)
    if cls is Binary:
        return _BINARY_PREC.get(expr.op, _PREC_CMP)
    if cls is Unary:
        return _UNARY_PREC.get(expr.op, _PREC_ATOM)
    if cls is If:
        return _PREC_IF
    if cls is NumberLit and expr.value.denominator != 1 and "/" in format_number(expr.value):
        return _PREC_TERM  # the text p/q reads back as a division
    return _PREC_ATOM


def _fmt_literal(item: Union[Fraction, str]) -> str:
    """A set item or a text literal as the parser reads it."""
    if isinstance(item, Fraction):
        text = format_number(item)
        if "/" in text:  # p/q would read back as a division, which a set cannot hold
            raise ValueError(f"set item {text} has no finite decimal form, so the rule text would not parse")
        return text
    # the escapes _STRING_ESCAPES reads; a raw newline would end the
    # literal, and a raw carriage return reads back from a file as one
    escaped = (item.replace("\\", "\\\\").replace('"', '\\"')
               .replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r"))
    return f'"{escaped}"'


def format_expr(expr: Expr, minprec: int = 0) -> str:
    text = _format_bare(expr)
    if minprec and _prec(expr) < minprec:
        return f"({text})"
    return text


def _format_bare(expr: Expr) -> str:
    cls = type(expr)
    if cls is Binary:
        prec = _BINARY_PREC.get(expr.op, _PREC_CMP)
        # a comparison does not chain, so an operand that is one is parenthesised
        left = format_expr(expr.left, prec + 1 if prec == _PREC_CMP else prec)
        right = format_expr(expr.right, prec + 1)
        return f"{left} {expr.op} {right}"
    if cls is VarRef:
        text = expr.variable if expr.table is None else f"{expr.table}.{expr.variable}"
        return text if expr.lag == 0 else f"{text}@{expr.lag}"
    if cls is NumberLit:
        return format_number(expr.value)
    if cls is Aggregate:
        return f"{expr.fn}({format_expr(expr.arg)})"
    if cls is Unary:
        if expr.op == "not":
            return "not " + format_expr(expr.operand, _PREC_NOT)
        if expr.op == "abs":
            return f"abs({format_expr(expr.operand)})"
        return "-" + format_expr(expr.operand, _PREC_NEG)
    if cls is TextLit:
        return _fmt_literal(expr.value)
    if cls is Builtin:
        return f"{expr.fn}(" + ", ".join(format_expr(a) for a in expr.args) + ")"
    if cls is If:
        return f"if ({format_expr(expr.cond)}) {format_expr(expr.then)}"
    if cls is SetLit:
        return "{" + ", ".join(_fmt_literal(i) for i in expr.items) + "}"
    if cls is NALit:
        return "NA"
    raise AssertionError(f"unhandled node {expr!r}")


def format_rule(rule: Rule) -> str:
    """Canonical one-line text; reparsing reproduces the same AST.  A set
    item with no finite decimal form has no such text: ValueError."""
    return f"{rule.name}: {format_expr(rule.body)}"


def format_ruleset(rules: RuleSet) -> str:
    return "".join(format_rule(r) + "\n" for r in rules)
