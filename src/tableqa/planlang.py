"""The loop-free plan DSL: parser, validator and the registry of
builtins.

A plan is a straight-line sequence of bindings ending in an `answer =`
line.  There are no loops, conditionals or user-defined functions, so
every plan terminates after at most bindings+1 builtin calls.

The language is a checked subset of Python, read by `ast.parse`: each
statement is one assignment to a single name, and an expression is a
call of a name with positional arguments, a name, a str/int/float
constant (a number may carry one unary - or +), a list of constants, or
true/false/True/False.  Every number is a float.  Anything else is a
PlanSyntaxError at its position.  Leading whitespace on a line is
ignored, and code fences in LLM output are stripped before parsing.

Each builtin is declared once in BUILTINS, by its signature line, its doc
and its implementation.  The parameter names in the signature decide the
arity, which arguments the validator snaps to the schema and how each
argument is coerced before the implementation runs.  A table builtin
names its `tablefns` function (by default its own name), looked up at
call time.  An int result is a float; an overflow is a runtime error.
"""

from __future__ import annotations

import ast
import math
import operator
import re
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from . import tablefns
from .fuzzy import correct_name, similarity
from .table_core import Cell, Table, equal_to, extract_numeric, render_cell
from .tablefns import TableFnError

# `ast.parse` warns on stderr about some malformed replies (`1if`, "\d").
# One filter, installed once: switching filters per call is not
# thread-safe under the concurrent ensemble.
warnings.filterwarnings("ignore", module="<plan>")


class PlanSyntaxError(Exception):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class PlanValidationError(Exception):
    pass


class PlanRuntimeError(Exception):
    """A builtin failed during evaluation; message names the builtin."""


@dataclass(frozen=True)
class Literal:
    value: Union[Cell, tuple]


@dataclass(frozen=True)
class Ref:
    name: str


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


Expr = Union[Literal, Ref, Call]


@dataclass(frozen=True)
class Plan:
    bindings: tuple[tuple[str, Expr], ...]
    answer: Expr


# Argument coercions, one per parameter kind.  Each returns the value
# the implementation sees, or raises TypeError/ValueError with a message
# that Builtin.call prefixes with the builtin's name.

def _kind_name(v) -> str:
    if isinstance(v, Table):
        return "table"
    if isinstance(v, list):
        return "list"
    return "scalar"


def _table(v) -> Table:
    if not isinstance(v, Table):
        raise TypeError(f"expected a table, got a {_kind_name(v)}")
    return v


def _cell(v) -> Cell:
    if isinstance(v, (Table, list)):
        raise TypeError(f"expected a scalar, got a {_kind_name(v)}")
    return v


def _text(v) -> str:
    return render_cell(_cell(v))


def _number(v) -> float:
    if isinstance(v, (Table, list)):
        raise TypeError(f"expected a number, got a {_kind_name(v)}")
    x = extract_numeric(v)
    if x is None:
        raise ValueError(f"value {render_cell(v)!r} is not numeric")
    return x


def _count(v) -> int:
    x = _number(v)
    if not math.isfinite(x):
        raise ValueError(f"n must be a finite number, got {x}")
    return int(x)


def _list(v) -> list:
    if isinstance(v, Table):
        raise TypeError("expected a list, got a table")
    return v if isinstance(v, list) else [v]


def _boolean(v) -> bool:
    if not isinstance(v, bool):
        raise TypeError("expected a boolean")
    return v


# Parameter name in a signature -> coercion of that argument.
_COERCIONS: dict[str, Callable] = {
    "table": _table,
    "column": _text, "target_column": _text, "subset_column": _text,
    "value": _cell, "filter_value": _cell, "scalar": _cell,
    "n": _count,
    "number": _number,
    "list": _list,
    "boolean": _boolean,
}


class Builtin:
    """One builtin: its signature line, its doc and its implementation.
    The signature's parameter names give the arity, the arguments the
    validator snaps to the schema (those named `*column`) and the
    coercion of each argument.  `impl` takes the coerced arguments, or
    names the `tablefns` function (by default the builtin's own name) to
    look up at each call, so a function replaced on the module (by a
    tracer, say) is the one that runs.  An int result becomes a float."""

    def __init__(self, signature: str, doc: str, impl: Union[Callable, str, None] = None):
        self.signature = signature
        self.doc = doc
        self.name, rest = signature.split("(", 1)
        self.impl = self.name if impl is None else impl
        params = rest.split(")", 1)[0].split(", ")
        self.arity = len(params)
        self.column_args = tuple(i for i, p in enumerate(params) if p.endswith("column"))
        self._coercions = tuple(_COERCIONS[p] for p in params)

    def call(self, args: Sequence, **options):
        """Coerce the arguments and run the implementation with `options`;
        a failure (arithmetic too) becomes a PlanRuntimeError naming it."""
        impl = getattr(tablefns, self.impl) if isinstance(self.impl, str) else self.impl
        try:
            result = impl(*(coerce(a) for coerce, a in zip(self._coercions, args, strict=True)),
                          **options)
        except (TableFnError, TypeError, ValueError, ArithmeticError) as exc:
            raise PlanRuntimeError(f"{self.name}: {exc}") from exc
        return float(result) if type(result) is int else result


def _numbers(items: list) -> list[float]:
    return [x for x in map(extract_numeric, items) if x is not None]


def _of_numbers(reduce: Callable) -> Callable:
    def impl(items: list) -> float:
        numbers = _numbers(items)
        if not numbers:
            raise ValueError("no numeric values")
        return reduce(numbers)
    return impl


def _unique(items: list) -> list:
    seen, out = set(), []
    for e in items:
        if e is None:
            continue
        key = render_cell(e)
        if key not in seen:
            seen.add(key)
            out.append(e)
    return out


def _head(items: list, n: int) -> list:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return items[:n]


def _sorted(items: list) -> list:
    present = [e for e in items if e is not None]
    if present and all(extract_numeric(e) is not None for e in present):
        ordered = sorted(present, key=extract_numeric)
    else:
        ordered = sorted(present, key=lambda e: render_cell(e).lower())
    return ordered + [None] * (len(items) - len(present))


def _div(x: float, y: float) -> float:
    if y == 0:
        raise ValueError("division by zero")
    return x / y


def _compare(op: Callable) -> Callable:
    """Numbers when both sides have one, else their text renderings."""
    def impl(a: Cell, b: Cell) -> bool:
        x, y = extract_numeric(a), extract_numeric(b)
        if x is None or y is None:
            x, y = render_cell(a), render_cell(b)
        return op(x, y)
    return impl


def _first(items: list) -> Cell:
    if not items:
        raise ValueError("empty list")
    return items[0]


# The four orders, each spelled once: (name, symbol, doc, operator).
_ORDERS = (("le", "<=", "Less or equal.", operator.le), ("lt", "<", "Less than.", operator.lt),
           ("ge", ">=", "Greater or equal.", operator.ge), ("gt", ">", "Greater than.", operator.gt))

BUILTINS: dict[str, Builtin] = {b.name: b for b in [
    Builtin("flatten_column_values(table, column) -> table",
            "Split multi-valued cells (';', ',' or '|' separated) into one row per value."),
    *(Builtin(f"{name}_n_non_missing(table, column, n) -> table",
              f"{which} n rows whose cell in the column is not missing, original order.",
              lambda t, c, n, tail=tail: tablefns.top_n_non_missing(t, c, n, tail))
      for name, which, tail in (("top", "First", False), ("tail", "Last", True))),
    Builtin("delete_rows_by_column_value(table, column, value) -> table",
            "Remove rows whose cell equals the value exactly."),
    Builtin("sort_alphabetical(table, column) -> table",
            "Sort rows alphabetically (case-insensitive) by the column; missing last."),
    *(Builtin(f"filter_{name}(table, column, number) -> table",
              f"Keep rows whose numeric value in the column is {symbol} the number.",
              lambda t, c, x, op=op: tablefns.filter_numeric(t, c, op, x))
      for name, symbol, _, op in _ORDERS),
    Builtin("filter_contains(table, column, value) -> table",
            "Keep rows whose cell contains the value (case-insensitive substring; "
            "falls back to fuzzy matching of the stored value)."),
    Builtin("filter_not_contains(table, column, value) -> table",
            "Keep rows whose cell does NOT contain the value."),
    Builtin("exists_value(table, column, value) -> boolean",
            "Whether any row's cell contains the value."),
    Builtin("count_equal(table, column, value) -> number",
            "Count cells exactly equal to the value (case-sensitive)."),
    Builtin("count_containing(table, column, value) -> number",
            "Count rows whose cell contains the value."),
    Builtin("most_frequent(table, column) -> value", "The most frequent value in the column."),
    Builtin("most_frequent_n(table, column, n) -> list",
            "The n most frequent values in the column, most frequent first.", "most_frequent"),
    Builtin("most_frequent_in_subset(table, target_column, subset_column, filter_value)"
            " -> value",
            "Most frequent value in target_column among rows matching filter_value."),
    Builtin("most_frequent_n_in_subset(table, target_column, subset_column, filter_value, n)"
            " -> list",
            "The n most frequent values in target_column among matching rows.",
            "most_frequent_in_subset"),
    Builtin("column(table, column) -> list",
            "The list of cell values of the column.",
            lambda t, c: list(tablefns._resolve(t, c).cells)),
    Builtin("count_rows(table) -> number", "Number of rows in the table.",
            lambda t: t.row_count),
    Builtin("unique(list) -> list",
            "Distinct values, first occurrence order, missing dropped.", _unique),
    Builtin("length(list) -> number", "Number of elements.", len),
    Builtin("sum(list) -> number",
            "Sum of the numeric values of the elements (missing skipped).",
            lambda items: sum(_numbers(items))),
    Builtin("mean(list) -> number",
            "Mean of the numeric values of the elements (missing skipped).",
            _of_numbers(lambda xs: math.fsum(xs) / len(xs))),
    Builtin("min_of(list) -> number", "Minimum numeric value among the elements.",
            _of_numbers(min)),
    Builtin("max_of(list) -> number", "Maximum numeric value among the elements.",
            _of_numbers(max)),
    Builtin("head_n(list, n) -> list", "First n elements.", _head),
    Builtin("sort_asc(list) -> list", "Sort ascending.",
            _sorted),
    Builtin("sort_desc(list) -> list", "Sort descending.",
            lambda items: list(reversed(_sorted(items)))),
    Builtin("add(number, number) -> number", "Addition.", lambda x, y: x + y),
    Builtin("sub(number, number) -> number", "Subtraction.", lambda x, y: x - y),
    Builtin("mul(number, number) -> number", "Multiplication.", lambda x, y: x * y),
    Builtin("div(number, number) -> number",
            "Division; dividing by zero is a runtime error.", _div),
    *(Builtin(f"{name}(scalar, scalar) -> boolean", doc, _compare(op))
      for name, _, doc, op in reversed(_ORDERS)),
    Builtin("eq(scalar, scalar) -> boolean", "Equality.", lambda a, b: equal_to(b)(a)),
    Builtin("not_(boolean) -> boolean", "Logical negation.", lambda v: not v),
    Builtin("to_number(scalar) -> number",
            "Extract a number from a scalar (first number in a string).",
            _number),
    Builtin("first(list) -> value", "First element of a list.", _first),
]}


def dsl_reference() -> str:
    """Human/LLM-readable reference for the plan language; this same
    text is embedded in the coder prompt and emitted by the CLI."""
    lines = [
        "PLAN LANGUAGE REFERENCE",
        "",
        "A plan is a sequence of assignment lines. Each line binds a name to",
        "the result of a builtin call. The input table is available as `df`.",
        "The last line must assign the final result to `answer`.",
        "",
        "    x = filter_contains(df, \"Mes\", \"Enero\")",
        "    answer = count_rows(x)",
        "",
        "Literals: numbers (1, 2.5, -3), double-quoted strings, true, false,",
        "and lists of literals like [1, 2, 3]. Comments start with '#'.",
        "There are no loops, conditionals or user-defined functions.",
        "",
        "Builtins:",
    ]
    for b in BUILTINS.values():
        lines.append(f"  {b.signature}")
        lines.append(f"      {b.doc}")
    return "\n".join(lines)


def strip_llm_wrapping(text: str) -> str:
    """Remove markdown code fences and a leading language tag."""
    text = text.strip()
    m = re.search(r"```[a-zA-Z]*\n(.*?)```", text, re.DOTALL)
    if m:
        text = m.group(1)
    return text.strip()


def _literal(node: ast.AST, reject) -> Cell:
    if isinstance(node, ast.Name) and node.id in ("true", "false"):
        return node.id == "true"
    if isinstance(node, ast.Constant) and isinstance(node.value, (str, bool)):
        return node.value
    number, sign = node, 1.0
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        number, sign = node.operand, -1.0 if isinstance(node.op, ast.USub) else 1.0
    if isinstance(number, ast.Constant) and type(number.value) in (int, float):
        # via str: float() of an int too large for a float raises
        return sign * float(str(number.value))
    raise reject(node)


def _expr(node: ast.AST, reject) -> Expr:
    # Not a closure: one that calls itself is a reference cycle.
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.keywords:
            raise reject(node.keywords[0], "keyword arguments are not allowed")
        return Call(node.func.id, tuple(_expr(a, reject) for a in node.args))
    if isinstance(node, ast.Name) and node.id not in ("true", "false"):
        return Ref(node.id)
    if isinstance(node, ast.List):
        return Literal(tuple(_literal(e, reject) for e in node.elts))
    return Literal(_literal(node, reject))


def parse_plan(text: str) -> Plan:
    """Parse plan source into a Plan; raises PlanSyntaxError with
    line/column and a one-line message suitable for repair prompts."""
    raw = re.split(r"\r\n?|\n", strip_llm_wrapping(text))  # Python's line breaks
    # Leading whitespace is not indentation in a plan: it is dropped
    # before Python reads a line and added back to reported columns.
    lines = [line.lstrip(" \t") for line in raw]

    def error(message: str, lineno: int, column: int) -> PlanSyntaxError:
        if 1 <= lineno <= len(raw):
            column += len(raw[lineno - 1]) - len(lines[lineno - 1])
        return PlanSyntaxError(message, lineno, column)

    def reject(node: ast.AST, message: str = "") -> PlanSyntaxError:
        # col_offset counts UTF-8 bytes; columns count characters.
        prefix = lines[node.lineno - 1].encode()[:node.col_offset]
        what = f"constant {node.value!r:.40}" if isinstance(node, ast.Constant) \
            else type(node).__name__
        return error(message or f"{what} is not allowed in a plan",
                     node.lineno, len(prefix.decode(errors="ignore")) + 1)

    try:
        module = ast.parse("\n".join(lines), "<plan>")
    except SyntaxError as exc:
        raise error(exc.msg, exc.lineno or 1, exc.offset or 1) from None
    except (ValueError, MemoryError, RecursionError) as exc:
        # a NUL byte (before Python 3.12), a lone surrogate, or a plan
        # nested too deeply for Python's parser
        raise PlanSyntaxError(f"cannot parse the plan ({type(exc).__name__})", 1) from None
    bindings: list[tuple[str, Expr]] = []
    answer: Optional[Expr] = None
    for stmt in module.body:
        if answer is not None:
            raise PlanSyntaxError("no lines allowed after the answer line", stmt.lineno)
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            raise reject(stmt, "each line must be one assignment `name = expression`")
        name, value = stmt.targets[0].id, _expr(stmt.value, reject)
        if name == "answer":
            answer = value
        else:
            bindings.append((name, value))
    if answer is None:
        raise PlanSyntaxError("plan must end with an 'answer =' line", 1)
    return Plan(tuple(bindings), answer)


def _walk_validate(expr: Expr, defined: set[str], schema: Sequence[str]) -> Expr:
    if isinstance(expr, Ref):
        if expr.name not in defined:
            raise PlanValidationError(f"undefined reference '{expr.name}'")
        return expr
    if isinstance(expr, Literal):
        return expr
    builtin = BUILTINS.get(expr.fn)
    if builtin is None:
        suggestion = max(BUILTINS, key=lambda n: similarity(n, expr.fn))
        raise PlanValidationError(
            f"unknown builtin '{expr.fn}' (did you mean '{suggestion}'?)")
    if len(expr.args) != builtin.arity:
        raise PlanValidationError(
            f"'{expr.fn}' takes {builtin.arity} arguments, got {len(expr.args)}")
    args = []
    for i, arg in enumerate(expr.args):
        arg = _walk_validate(arg, defined, schema)
        if i in builtin.column_args and isinstance(arg, Literal) \
                and isinstance(arg.value, str) and schema:
            arg = Literal(correct_name(arg.value, schema))
        args.append(arg)
    return Call(expr.fn, tuple(args))


def validate_plan(plan: Plan, schema: Sequence[str]) -> Plan:
    """Check builtins, arities, reference ordering; snap column-name
    string literals to the schema.  Idempotent."""
    defined = {"df"}
    bindings = []
    for name, expr in plan.bindings:
        bindings.append((name, _walk_validate(expr, defined, schema)))
        defined.add(name)
    answer = _walk_validate(plan.answer, defined, schema)
    return Plan(tuple(bindings), answer)
