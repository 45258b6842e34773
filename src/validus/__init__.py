"""Validation rules for tabular data.

A small rule language over key-value datasets, evaluated with
three-valued logic; a classifier that grades each rule by how much of
the data it needs; and an exact analyzer that finds infeasible,
partially infeasible, and redundant rule sets and simplifies them
without changing their solution set.

Each public name is imported from its submodule on first use (PEP 562),
so ``import validus`` loads no submodule and a program compiles only
the submodules whose names it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each public name and the submodule that defines it
_SUBMODULE = {
    name: module
    for module, names in (
        ("analyzer", "CategoricalAtom Clause ConstraintSystem Finding LinearAtom SatResult SimplifyStep"
                     " analyze_ruleset compile_rules detect_nonconstraining detect_nonrelaxing"
                     " detect_partial_infeasibility detect_redundant implied_bound_findings implied_bounds"
                     " is_satisfiable lint_rule lint_ruleset ruleset_implies simplify_ruleset"),
        ("classifier", "RuleSignature classify_rule"),
        ("csvio", "dataset_from_csv write_table"),
        ("errors", "DuplicateKeyError DuplicateRuleNameError DuplicateVariableError IncompatibleScopeError"
                   " MissingKeyError RuleParseError RuleTypeError SchemaSyntaxError UnevaluableRulesError"
                   " UnknownKeyError UnknownVariableError UnsupportedForAnalysisError ValidusError"),
        ("evaluator", "Entry EvalOptions RuleVerdicts ValidationReport evaluate_ruleset"),
        ("model", "NA DataPoint Dataset Key NAType Value build_dataset"),
        ("rules", "Rule RuleSet format_rule format_ruleset parse_rule parse_rules"),
        ("schema", "Schema VariableDecl parse_schema"),
        ("tribool", "TriBool"),
    )
    for name in names.split()
}
__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
