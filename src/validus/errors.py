"""Exception hierarchy shared across the package."""

from __future__ import annotations


class ValidusError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateKeyError(ValidusError):
    def __init__(self, key):
        self.key = key
        super().__init__(f"key occurs more than once: {key}")


class UnknownKeyError(ValidusError):
    def __init__(self, key):
        self.key = key
        super().__init__(f"key not among the declared keys: {key}")


class MissingKeyError(ValidusError):
    def __init__(self, key):
        self.key = key
        super().__init__(f"key not in dataset: {key}")


class SchemaSyntaxError(ValidusError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"schema line {line}: {message}")


class DuplicateVariableError(ValidusError):
    def __init__(self, table: str, name: str):
        self.table = table
        self.name = name
        super().__init__(f"variable {name!r} declared twice in table {table!r}")


class RuleParseError(ValidusError):
    def __init__(self, line: int, column: int, expected: str):
        self.line = line
        self.column = column
        self.expected = expected
        super().__init__(f"parse error at {line}:{column}: expected {expected}")


class RuleTypeError(ValidusError):
    def __init__(self, rule: str, node: str, message: str):
        self.rule = rule
        self.node = node
        super().__init__(f"rule {rule!r}: {message} (at {node})")


class DuplicateRuleNameError(ValidusError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"rule name {name!r} used more than once")


class UnknownVariableError(ValidusError):
    def __init__(self, rule: str, name: str):
        self.rule = rule
        self.name = name
        super().__init__(f"rule {rule!r} references unknown variable {name!r}")


class IncompatibleScopeError(ValidusError):
    def __init__(self, rule: str, reason: str):
        self.rule = rule
        super().__init__(f"rule {rule!r} cannot be scheduled: {reason}")


class UnevaluableRulesError(ValidusError):
    """Several rules that cannot be evaluated; ``errors`` holds each
    rule's own error, in file order."""

    def __init__(self, errors: list[ValidusError]):
        self.errors = errors
        super().__init__("; ".join(str(error) for error in errors))


class UnsupportedForAnalysisError(ValidusError):
    def __init__(self, rule: str, reason: str):
        self.rule = rule
        self.reason = reason
        super().__init__(f"rule {rule!r} is outside the analyzable fragment: {reason}")
