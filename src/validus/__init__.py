"""Validation rules for tabular data.

A small rule language over key-value datasets, evaluated with
three-valued logic; a classifier that grades each rule by how much of
the data it needs; and an exact analyzer that finds infeasible,
partially infeasible, and redundant rule sets and simplifies them
without changing their solution set.
"""

from .analyzer import (
    CategoricalAtom,
    Clause,
    ConstraintSystem,
    Finding,
    LinearAtom,
    SatResult,
    SimplifyStep,
    analyze_ruleset,
    compile_rules,
    detect_nonconstraining,
    detect_nonrelaxing,
    detect_partial_infeasibility,
    detect_redundant,
    implied_bound_findings,
    implied_bounds,
    is_satisfiable,
    lint_rule,
    lint_ruleset,
    ruleset_implies,
    simplify_ruleset,
)
from .classifier import RuleSignature, classify_rule, level_of
from .csvio import dataset_from_csv, read_table, write_table
from .errors import (
    DuplicateKeyError,
    DuplicateRuleNameError,
    DuplicateVariableError,
    IncompatibleScopeError,
    MissingKeyError,
    RuleParseError,
    RuleTypeError,
    SchemaSyntaxError,
    UnevaluableRulesError,
    UnknownKeyError,
    UnknownVariableError,
    UnsupportedForAnalysisError,
    ValidusError,
)
from .evaluator import Entry, EvalOptions, RuleVerdicts, ValidationReport, evaluate_ruleset
from .model import NA, DataPoint, Dataset, Key, NAType, Value, build_dataset
from .rules import (
    Rule,
    RuleSet,
    format_rule,
    format_ruleset,
    negate_rule,
    parse_rule,
    parse_rules,
)
from .schema import Schema, VariableDecl, check_domain, parse_schema
from .tribool import TriBool

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
