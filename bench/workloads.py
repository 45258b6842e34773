"""Seeded workload generators for the benchmark (stdlib only).

Each generator takes a seed and returns a ``Workload``: the input files
the program receives, the CLI commands one operation runs, and the
expected outcome that ``checks.py`` compares the program's output with.
The expected outcome is computed here, in plain Python, from the
generated cells and rule templates; nothing from ``validus`` is used.

The same seed always gives byte-identical files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

# --- sizes -----------------------------------------------------------------

RECORDS = 2_500           # validate-records: rows of one table
PANEL_UNITS = 60          # validate-panel: units ...
PANEL_OCCASIONS = 50      # ... times occasions
ANALYZE_NUMERIC = 8       # analyze-ruleset: numeric variables in [0, 100]
ANALYZE_RULES = 12        # analyze-ruleset: rules in the ROADMAP mix
CLASSIFY_RULES = 5_000    # classify-rules: generated rules


@dataclass
class Command:
    """One ``validus.cli.main`` call: its label, arguments (paths relative
    to the workload directory, without ``-o``) and expected exit code."""

    label: str
    argv: list[str]
    exit_code: int


@dataclass
class Workload:
    why: str
    size: dict
    files: dict[str, str]
    commands: list[Command]
    expect: dict
    rule_shapes: dict[str, str] = field(default_factory=dict)


# --- three-valued reference semantics (README "Semantics notes") -----------
# Values are Fraction, str, or None for NA; truth values True/False/None.

def parse_cell(text: str):
    stripped = text.strip()
    if stripped in ("", "NA"):
        return None
    try:
        return Fraction(stripped)
    except (ValueError, ZeroDivisionError):
        return text


def _num(v) -> bool:
    return isinstance(v, Fraction)


def cmp(op: str, a, b):
    if a is None or b is None:
        return None
    if _num(a) and _num(b):
        return {"<": a < b, "<=": a <= b, "==": a == b,
                "!=": a != b, ">=": a >= b, ">": a > b}[op]
    if isinstance(a, str) and isinstance(b, str) and op in ("==", "!="):
        return (a == b) == (op == "==")
    return None


def arith(op: str, a, b):
    if not (_num(a) and _num(b)):
        return None
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    return None if b == 0 else a / b


def absval(a):
    return abs(a) if _num(a) else None


def and3(a, b):
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def implies3(c, q):
    if c is False or q is True:
        return True
    if c is None or q is None:
        return None
    return False


def in_set(v, items) -> Optional[bool]:
    return None if v is None else v in items


def is_integer(v) -> bool:
    return _num(v) and v.denominator == 1


def mean_of(values):
    """``mean`` under na-policy propagate: any NA or text gives NA."""
    if not values or any(not _num(v) for v in values):
        return None
    return sum(values, Fraction(0)) / len(values)


def sum_of(values):
    if not values or any(not _num(v) for v in values):
        return None
    return sum(values, Fraction(0))


def tally(verdicts) -> dict[str, int]:
    out = {"true": 0, "false": 0, "na": 0}
    for v in verdicts:
        out["na" if v is None else "true" if v else "false"] += 1
    return out


def _csv(header: list[str], rows: list[list[str]]) -> str:
    # generated cells never contain commas, quotes or newlines
    return "\n".join(",".join(r) for r in [header] + rows) + "\n"


def _dirty(rng: random.Random, clean: str, na: float, text: float = 0.0, word: str = "unknown") -> str:
    roll = rng.random()
    if roll < na:
        return rng.choice(("", "NA"))
    if roll < na + text:
        return word
    return clean


# --- validate-records ------------------------------------------------------

Q = Fraction
# ranges, conditionals, in_set, is_integer, division and abs; each rule with
# its plain-Python reading
RECORD_RULES: list[tuple[str, str, Callable[[dict], Optional[bool]]]] = [
    ("age_lo", "age >= 0", lambda r: cmp(">=", r["age"], Q(0))),
    ("age_hi", "age <= 110", lambda r: cmp("<=", r["age"], Q(110))),
    ("income_nonneg", "income >= 0", lambda r: cmp(">=", r["income"], Q(0))),
    ("hours_range", "hours >= 0 and hours <= 80",
     lambda r: and3(cmp(">=", r["hours"], Q(0)), cmp("<=", r["hours"], Q(80)))),
    ("emp_hours", 'if (status == "employed") hours >= 10',
     lambda r: implies3(cmp("==", r["status"], "employed"), cmp(">=", r["hours"], Q(10)))),
    ("retired_age", 'if (status == "retired") age >= 55',
     lambda r: implies3(cmp("==", r["status"], "retired"), cmp(">=", r["age"], Q(55)))),
    ("minor_income", "if (age < 18) income <= 2000",
     lambda r: implies3(cmp("<", r["age"], Q(18)), cmp("<=", r["income"], Q(2000)))),
    ("status_set", 'in_set(status, {"employed", "unemployed", "retired"})',
     lambda r: in_set(r["status"], ("employed", "unemployed", "retired"))),
    ("kids_int", "is_integer(kids)", lambda r: is_integer(r["kids"])),
    ("hourly_wage", "income / hours <= 150",
     lambda r: cmp("<=", arith("/", r["income"], r["hours"]), Q(150))),
    ("spend_share", "spend / income <= 1.5",
     lambda r: cmp("<=", arith("/", r["spend"], r["income"]), Q(3, 2))),
    ("spend_gap", "abs(spend - income) <= 4000",
     lambda r: cmp("<=", absval(arith("-", r["spend"], r["income"])), Q(4000))),
]


def validate_records(seed: int, records: int = RECORDS) -> Workload:
    rng = random.Random(f"validate-records:{seed}")
    header = ["id", "age", "income", "hours", "spend", "kids", "status"]
    rows = []
    for i in range(1, records + 1):
        income = rng.randint(0, 9000) if rng.random() > 0.01 else 0
        income_text = str(income) if rng.random() > 0.2 else f"{income}.5"
        hours = 0 if rng.random() < 0.05 else rng.randint(1, 90)
        rows.append([
            str(i),
            _dirty(rng, str(rng.randint(0, 115)), na=0.01, text=0.005),
            _dirty(rng, income_text, na=0.01),
            _dirty(rng, str(hours), na=0.01, text=0.005, word="n/a"),
            _dirty(rng, str(rng.randint(0, 12000)), na=0.01),
            _dirty(rng, str(rng.randint(0, 5)) if rng.random() > 0.03 else "1.5", na=0.01),
            _dirty(rng, rng.choice(("employed", "unemployed", "retired")), na=0.01,
                   text=0.01, word="student"),
        ])
    parsed = [{h: parse_cell(c) for h, c in zip(header[1:], row[1:])} for row in rows]
    expect = {name: tally(fn(r) for r in parsed) for name, _text, fn in RECORD_RULES}
    rules = "".join(f"{name}: {text}\n" for name, text, _fn in RECORD_RULES)
    schema = (
        "person.age    : integer [0, 120]\n"
        "person.income : numeric\n"
        "person.hours  : numeric [0, 168]\n"
        "person.spend  : numeric\n"
        "person.kids   : integer [0, 20]\n"
        "person.status : categorical {employed, unemployed, retired} nullable\n"
    )
    return Workload(
        why="one cross-sectional table: ingest, natural_order scheduling and per-verdict "
            "record evaluation dominate; no lags and no aggregates",
        size={"records": records, "variables": len(header) - 1, "rules": len(RECORD_RULES),
              "verdicts": records * len(RECORD_RULES)},
        files={"rules.txt": rules, "schema.txt": schema, "person.csv": _csv(header, rows)},
        commands=[Command("validate", ["validate", "--rules", "rules.txt", "--schema", "schema.txt",
                                       "--data", "person=person.csv"], 1)],
        expect={"table": "person", "per_rule": expect},
        rule_shapes={name: "record" for name, *_ in RECORD_RULES},
    )


# --- validate-panel --------------------------------------------------------

def validate_panel(seed: int, units: int = PANEL_UNITS, occasions: int = PANEL_OCCASIONS) -> Workload:
    rng = random.Random(f"validate-panel:{seed}")
    # x follows a random walk per unit; some steps exceed the 50% drift limit
    x: dict[tuple[int, int], str] = {}
    y: dict[tuple[int, int], str] = {}
    for u in range(1, units + 1):
        level = rng.uniform(50, 150)
        for t in range(1, occasions + 1):
            level = max(1.0, level * (1 + rng.uniform(-0.6, 0.6)))
            x[u, t] = _dirty(rng, f"{level:.1f}", na=0.002)
            y[u, t] = _dirty(rng, str(rng.randint(0, 120)), na=0.002, text=0.001)
    rows = [[str(u), str(t), x[u, t], y[u, t]]
            for t in range(1, occasions + 1) for u in range(1, units + 1)]
    X = {k: parse_cell(v) for k, v in x.items()}
    Y = {k: parse_cell(v) for k, v in y.items()}
    units_r = range(1, units + 1)
    times = range(1, occasions + 1)
    mean_x = {t: mean_of([X[u, t] for u in units_r]) for t in times}
    sum_y = {t: sum_of([Y[u, t] for u in units_r]) for t in times}

    def lag(values, u, t):
        return values[u, t - 1] if t > 1 else None

    per_record = [
        ("x_pos", "x >= 0", "record", lambda u, t: cmp(">=", X[u, t], Q(0))),
        ("y_cap", "y <= 2 * x", "record",
         lambda u, t: cmp("<=", Y[u, t], arith("*", Q(2), X[u, t]))),
        ("x_drift", "abs(x - x@1) <= 0.5 * x@1", "lagged",
         lambda u, t: cmp("<=", absval(arith("-", X[u, t], lag(X, u, t))),
                          arith("*", Q(1, 2), lag(X, u, t)))),
        ("y_step", "y - y@1 <= 100", "lagged",
         lambda u, t: cmp("<=", arith("-", Y[u, t], lag(Y, u, t)), Q(100))),
        ("x_rel", "x <= 10 * mean(x)", "record_agg",
         lambda u, t: cmp("<=", X[u, t], arith("*", Q(10), mean_x[t]))),
    ]
    per_occasion = [
        ("x_mean", "mean(x) >= 60", "aggregate", lambda t: cmp(">=", mean_x[t], Q(60))),
        ("y_sum", "sum(y) <= 3700", "aggregate", lambda t: cmp("<=", sum_y[t], Q(3700))),
    ]
    order = ["x_pos", "y_cap", "x_drift", "y_step", "x_mean", "y_sum", "x_rel"]
    defs = {name: (text, shape, fn) for name, text, shape, fn in per_record + per_occasion}
    expect = {name: tally(fn(u, t) for t in times for u in units_r) for name, _t, _s, fn in per_record}
    expect.update({name: tally(fn(t) for t in times) for name, _t, _s, fn in per_occasion})
    rules = "".join(f"{name}: {defs[name][0]}\n" for name in order)
    schema = "firm.x : numeric\nfirm.y : numeric\n"
    verdicts = sum(sum(tally_.values()) for tally_ in expect.values())
    return Workload(
        why="a long panel: lag lookup and per-record aggregate recomputation dominate, "
            "and each rule shape (record, lagged, aggregate, record-with-aggregate) has a visible share",
        size={"records": units * occasions, "units": units, "occasions": occasions,
              "variables": 2, "rules": len(order), "verdicts": verdicts},
        files={"rules.txt": rules, "schema.txt": schema,
               "firm.csv": _csv(["id", "time", "x", "y"], rows)},
        commands=[Command("validate", ["validate", "--rules", "rules.txt", "--schema", "schema.txt",
                                       "--data", "firm=firm.csv"], 1)],
        expect={"table": "firm", "per_rule": expect},
        rule_shapes={name: defs[name][1] for name in order},
    )


# --- analyze-ruleset -------------------------------------------------------
# The rule structure (which variables each template uses, and the file
# order) is fixed; the seed draws the planted witness, the slacks and the
# sample points.  A fixed structure keeps the solver's work about the same
# from seed to seed: with free structure, random sets range from 0.1 s
# (infeasible) to tens of seconds, which no bound could absorb.

def _analyze_structure(n_num: int, n_rules: int) -> list[tuple]:
    n_sum = round(0.4 * n_rules)
    n_cond = round(0.3 * n_rules)
    n_diff = n_rules - n_sum - n_cond
    s = random.Random(20121228)
    # no pair of variables appears in two rules of one kind, so that no
    # rule implies another of its kind
    sum_pairs = s.sample([(i, j) for i in range(n_num) for j in range(i + 1, n_num)], n_sum - 1)
    diff_pairs = s.sample([(i, j) for i in range(n_num) for j in range(n_num) if i != j], n_diff)

    # planted: two caps with an exclusion each, one nonrelaxing conditional,
    # one strong/weak pair; they count towards the mix
    body = [("sum", p) for p in sum_pairs[2:]]
    body[0] = ("strong", body[0][1])
    # conditionals bound distinct variables, so none implies another
    cond_vars = s.sample(range(n_num), n_cond - 2)
    body += [("cond", (v, s.choice("pq"))) for v in cond_vars[1:]]
    body += [("nonrelax", (cond_vars[0],))]
    body += [("diff", p) for p in diff_pairs]
    s.shuffle(body)
    caps = [("cap_b", sum_pairs[0]), ("cap_r", sum_pairs[1])]
    return caps + body


def analyze_ruleset(seed: int, n_num: int = ANALYZE_NUMERIC, n_rules: int = ANALYZE_RULES) -> Workload:
    rng = random.Random(f"analyze-ruleset:{seed}")
    names = [f"x{i}" for i in range(n_num)]
    # witness values stay low enough that every cap is below 100
    w = {v: rng.randint(20, 45) for v in names}
    c1_level = rng.choice("pq")

    def slack() -> int:
        # any two slacks sum above any single one, so no chain of two rules
        # implies a third: the only redundancy is the planted one
        return rng.randint(5, 9)

    lines: list[tuple[str, str]] = []
    templates: dict[str, dict] = {}

    def add(name: str, text: str, tpl: dict) -> None:
        lines.append((name, text))
        templates[name] = tpl

    counter = 0
    for kind, arg in _analyze_structure(n_num, n_rules):
        counter += 1
        if kind in ("sum", "strong", "cap_b", "cap_r"):
            a, b = names[arg[0]], names[arg[1]]
            c = w[a] + w[b] + slack()
            name = {"sum": f"sum{counter}"}.get(kind, kind)
            add(name, f"{a} + {b} <= {c}", {"t": "sum", "a": a, "b": b, "c": c})
            if kind == "strong":
                weak = c + slack()
                add("weak", f"{a} + {b} <= {weak}", {"t": "sum", "a": a, "b": b, "c": weak})
            elif kind in ("cap_b", "cap_r"):
                var, level = ("c0", "b") if kind == "cap_b" else ("c1", "r")
                add(f"excl_{level}", f'if ({var} == "{level}") {a} >= 100',
                    {"t": "cond", "var": var, "level": level, "x": a, "c": 100})
        elif kind == "diff":
            a, b = names[arg[0]], names[arg[1]]
            c = w[a] - w[b] + slack()
            add(f"diff{counter}", f"{a} - {b} <= {c}", {"t": "diff", "a": a, "b": b, "c": c})
        else:
            x = names[arg[0]]
            c = w[x] - slack()
            var, level, name = ("c0", "a", "nonrelax") if kind == "nonrelax" else ("c1", arg[1], f"cond{counter}")
            add(name, f'if ({var} == "{level}") {x} >= {c}',
                {"t": "cond", "var": var, "level": level, "x": x, "c": c})
    # a planted witness satisfies every rule
    witness = {**{v: w[v] for v in names}, "c0": "a", "c1": c1_level}
    for name, tpl in templates.items():
        if not template_holds(tpl, witness):
            raise RuntimeError(f"planted witness violates {name}")

    rules = "".join(f"{name}: {text}\n" for name, text in lines)
    schema = "".join(f"t.{v} : numeric [0, 100]\n" for v in sorted(names))
    schema += "t.c0 : categorical {a, b}\nt.c1 : categorical {p, q, r}\n"
    planted = [
        {"kind": "redundant", "rule": "weak"},
        {"kind": "partial_infeasibility", "variable": "c0", "value": "b"},
        {"kind": "partial_infeasibility", "variable": "c1", "value": "r"},
        {"kind": "nonrelaxing_clause", "rule": "nonrelax"},
    ]
    # in-domain sample points: uniform ones, and for each rule one that
    # violates that rule alone, so that dropping or weakening any rule that
    # is not implied by the others changes a verdict
    points = []
    for _ in range(100):
        p = {v: Fraction(rng.randint(0, 200), 2) for v in names}
        points.append({**p, "c0": rng.choice("ab"), "c1": rng.choice("pqr")})
    for name, tpl in templates.items():
        moved = [tpl[k] for k in ("a", "b", "x") if k in tpl]
        for _ in range(300):
            p = {**witness, **{v: min(Fraction(100), max(Fraction(0), w[v] + Fraction(rng.randint(-24, 24), 2)))
                               for v in moved}}
            if tpl["t"] == "cond":
                p[tpl["var"]] = tpl["level"]
            if [n for n, t in templates.items() if not template_holds(t, p)] == [name]:
                points.append(p)
                break
    points = [{k: str(v) for k, v in p.items()} for p in points]
    return Workload(
        why="exact rule-set analysis: analyze runs many probes against one system, "
            "simplify re-probes a shrinking set; case splits and Fourier-Motzkin dominate",
        size={"rules": len(lines), "variables": n_num + 2, "numeric": n_num, "categorical": 2,
              "conditionals": sum(1 for t in templates.values() if t["t"] == "cond")},
        files={"rules.txt": rules, "schema.txt": schema},
        commands=[
            Command("analyze", ["analyze", "--rules", "rules.txt", "--schema", "schema.txt"], 0),
            Command("simplify", ["simplify", "--rules", "rules.txt", "--schema", "schema.txt"], 0),
        ],
        expect={"planted": planted, "templates": templates,
                "dropped": "weak", "points": points},
    )


def template_holds(tpl: dict, point: dict) -> bool:
    """Two-valued truth of one analyze-ruleset template at a point whose
    numeric values are Fractions (or decimal strings)."""
    def num(name):
        return Fraction(point[name])
    if tpl["t"] == "sum":
        return num(tpl["a"]) + num(tpl["b"]) <= tpl["c"]
    if tpl["t"] == "diff":
        return num(tpl["a"]) - num(tpl["b"]) <= tpl["c"]
    if tpl["t"] == "bound":
        return num(tpl["x"]) >= tpl["c"]
    return point[tpl["var"]] != tpl["level"] or num(tpl["x"]) >= tpl["c"]


# --- classify-rules --------------------------------------------------------
# Seven shapes; the variant drawn decides the signature, which the
# generator records as the expected classification.

def _classify_rule(rng: random.Random, shape: int) -> tuple[str, str]:
    a, b = rng.sample([f"v{i}" for i in range(40)], 2)
    c = rng.randint(1, 500)
    k = rng.randint(1, 3)
    two = rng.random() < 0.5
    if shape == 0:
        return f"{a} >= {c}", "ssss"
    if shape == 1:
        return (f'if ({a} == "x{c}") {b} <= {c}', "sssm") if two else (f"in_set({a}, {{\"p\", \"q\"}})", "ssss")
    if shape == 2:
        return (f"{a} - {b}@{k} <= {c}", "smsm") if two else (f"abs({a} - {a}@{k}) <= {c}", "smss")
    if shape == 3:
        return (f"{a} <= {c} * mean({b})", "ssmm") if two else (f"mean({a}) >= {c}", "ssms")
    if shape == 4:
        return (f"{a} - {a}@{k} <= mean({b})", "smmm") if two else (f"sum({a}) <= sum({a}@{k}) + {c}", "smms")
    if shape == 5:
        return f"{a} + {b} <= {c}", "sssm"
    t1, t2 = rng.sample(["tx", "ty", "tz"], 2)
    return (f"sum({t1}.{a}) <= sum({t2}.{b}@{k})", "mmmm") if two else (f"sum({t1}.{a}) <= sum({t2}.{b}) + {c}", "msmm")


def classify_rules(seed: int, n_rules: int = CLASSIFY_RULES) -> Workload:
    rng = random.Random(f"classify-rules:{seed}")
    lines, signatures = [], {}
    for i in range(n_rules):
        text, sig = _classify_rule(rng, i % 7)
        name = f"r{i:05d}"
        lines.append(f"{name}: {text}\n")
        signatures[name] = sig
    return Workload(
        why="many rules: rule parsing, type checking, RuleSet construction and the "
            "classifier do most of the work",
        size={"rules": n_rules, "shapes": 7, "signatures": len(set(signatures.values()))},
        files={"rules.txt": "".join(lines)},
        commands=[Command("classify", ["classify", "--rules", "rules.txt"], 0)],
        expect={"signatures": signatures},
    )


GENERATORS = {
    "validate-records": validate_records,
    "validate-panel": validate_panel,
    "analyze-ruleset": analyze_ruleset,
    "classify-rules": classify_rules,
}
