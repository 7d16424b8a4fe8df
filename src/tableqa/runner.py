"""Plan execution and the coder repair loop.

The coder is prompted with the clarified instructions, the selected
schema and the full DSL reference.  Any parse, validation or runtime
error feeds a repair prompt (last failed plan plus the error, not the
whole history) and the loop continues until success or the attempt limit.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from typing import Optional, Union

from . import tablefns
from .explainer import InstructionSet
from .fuzzy import FuzzyConfig
from .llm_client import ChatRequest, LLMError, Message
from .planlang import (
    Call,
    Expr,
    Literal,
    Plan,
    PlanSyntaxError,
    PlanValidationError,
    Ref,
    dsl_reference,
    parse_plan,
    render_plan,
    validate_plan,
)
from .profiler import ColumnProfile
from .table_core import Cell, Table, extract_numeric, render_cell
from .tablefns import TableFnError

RuntimeValue = Union[Table, list, Cell]

DEFAULT_MAX_ATTEMPTS = 5


class PlanRuntimeError(Exception):
    """A builtin failed during evaluation; message names the builtin."""


@dataclass
class Attempt:
    plan_text: str
    stage: str  # parsed | validated | executed | error
    error_stage: Optional[str] = None  # parse | validate | execute
    error_message: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "plan_text": self.plan_text,
            "stage": self.stage,
            "error_stage": self.error_stage,
            "error_message": self.error_message,
        }


@dataclass
class RunTrace:
    attempts: list[Attempt] = field(default_factory=list)
    final_value: Optional[RuntimeValue] = None
    succeeded: bool = False

    @property
    def attempts_used(self) -> int:
        return len(self.attempts)

    def to_dict(self) -> dict:
        return {
            "attempts": [a.to_dict() for a in self.attempts],
            "succeeded": self.succeeded,
            "attempts_used": self.attempts_used,
            "final_value": render_value(self.final_value) if self.succeeded else None,
        }


def render_value(v: RuntimeValue) -> object:
    """A runtime value as JSON-ready data: a table as {"table": {column:
    [cells]}}, a list as a list, a scalar as its cell rendering."""
    if isinstance(v, Table):
        return {"table": {c.name: [render_cell(x) for x in c.cells] for c in v.columns}}
    if isinstance(v, list):
        return [render_cell(x) for x in v]
    return render_cell(v)


def _as_number(v: RuntimeValue, fn: str) -> float:
    if isinstance(v, (Table, list)):
        raise PlanRuntimeError(f"{fn}: expected a number, got a {_type_name(v)}")
    x = extract_numeric(v)
    if x is None:
        raise PlanRuntimeError(f"{fn}: value {render_cell(v)!r} is not numeric")
    return x


def _as_table(v: RuntimeValue, fn: str) -> Table:
    if not isinstance(v, Table):
        raise PlanRuntimeError(f"{fn}: expected a table, got a {_type_name(v)}")
    return v


def _as_list(v: RuntimeValue, fn: str) -> list:
    if isinstance(v, Table):
        raise PlanRuntimeError(f"{fn}: expected a list, got a table")
    if not isinstance(v, list):
        return [v]
    return v


def _as_text(v: RuntimeValue, fn: str) -> str:
    if isinstance(v, (Table, list)):
        raise PlanRuntimeError(f"{fn}: expected a scalar, got a {_type_name(v)}")
    return render_cell(v)


def _type_name(v: RuntimeValue) -> str:
    if isinstance(v, Table):
        return "table"
    if isinstance(v, list):
        return "list"
    return "scalar"


def _list_numbers(v: RuntimeValue, fn: str) -> list[float]:
    return [x for x in (extract_numeric(e) for e in _as_list(v, fn)) if x is not None]


def _sort_key_list(items: list) -> list:
    present = [e for e in items if e is not None]
    if present and all(extract_numeric(e) is not None for e in present):
        ordered = sorted(present, key=lambda e: extract_numeric(e))
    else:
        ordered = sorted(present, key=lambda e: render_cell(e).lower())
    return ordered + [None] * (len(items) - len(present))


def _scalar_compare(a: RuntimeValue, b: RuntimeValue, op: str, fn: str) -> bool:
    na, nb = extract_numeric(a) if not isinstance(a, (Table, list)) else None, \
             extract_numeric(b) if not isinstance(b, (Table, list)) else None
    if na is not None and nb is not None:
        x, y = na, nb
    else:
        x, y = _as_text(a, fn), _as_text(b, fn)
    return {"gt": x > y, "ge": x >= y, "lt": x < y, "le": x <= y}[op]


def _builtin_impls(fuzzy_cfg: FuzzyConfig) -> dict:
    def _mean(v):
        nums = _list_numbers(v, "mean")
        if not nums:
            raise PlanRuntimeError("mean: no numeric values")
        return statistics.fmean(nums)

    def _minmax(v, fn, picker):
        nums = _list_numbers(v, fn)
        if not nums:
            raise PlanRuntimeError(f"{fn}: no numeric values")
        return picker(nums)

    def _div(a, b):
        x, y = _as_number(a, "div"), _as_number(b, "div")
        if y == 0:
            raise PlanRuntimeError("div: division by zero")
        return x / y

    def _unique(v):
        seen, out = set(), []
        for e in _as_list(v, "unique"):
            if e is None:
                continue
            key = render_cell(e)
            if key not in seen:
                seen.add(key)
                out.append(e)
        return out

    def _first(v):
        items = _as_list(v, "first")
        if not items:
            raise PlanRuntimeError("first: empty list")
        return items[0]

    def _to_number(v):
        return _as_number(v, "to_number")

    def _eq(a, b):
        if isinstance(a, (Table, list)) or isinstance(b, (Table, list)):
            raise PlanRuntimeError("eq: expected scalars")
        from .table_core import cells_equal
        return cells_equal(a, b)

    def _not(v):
        if not isinstance(v, bool):
            raise PlanRuntimeError("not_: expected a boolean")
        return not v

    return {
        "flatten_column_values": lambda t, c: tablefns.flatten_column_values(
            _as_table(t, "flatten_column_values"), _as_text(c, "flatten_column_values")),
        "top_n_non_missing": lambda t, c, n: tablefns.top_n_non_missing(
            _as_table(t, "top_n_non_missing"), _as_text(c, "top_n_non_missing"),
            int(_as_number(n, "top_n_non_missing")), "head"),
        "tail_n_non_missing": lambda t, c, n: tablefns.top_n_non_missing(
            _as_table(t, "tail_n_non_missing"), _as_text(c, "tail_n_non_missing"),
            int(_as_number(n, "tail_n_non_missing")), "tail"),
        "delete_rows_by_column_value": lambda t, c, v: tablefns.delete_rows_by_column_value(
            _as_table(t, "delete_rows_by_column_value"),
            _as_text(c, "delete_rows_by_column_value"), _scalar(v)),
        "sort_alphabetical": lambda t, c: tablefns.sort_alphabetical(
            _as_table(t, "sort_alphabetical"), _as_text(c, "sort_alphabetical")),
        "filter_le": lambda t, c, v: tablefns.filter_numeric(
            _as_table(t, "filter_le"), _as_text(c, "filter_le"), "le", _as_number(v, "filter_le")),
        "filter_lt": lambda t, c, v: tablefns.filter_numeric(
            _as_table(t, "filter_lt"), _as_text(c, "filter_lt"), "lt", _as_number(v, "filter_lt")),
        "filter_ge": lambda t, c, v: tablefns.filter_numeric(
            _as_table(t, "filter_ge"), _as_text(c, "filter_ge"), "ge", _as_number(v, "filter_ge")),
        "filter_gt": lambda t, c, v: tablefns.filter_numeric(
            _as_table(t, "filter_gt"), _as_text(c, "filter_gt"), "gt", _as_number(v, "filter_gt")),
        "filter_contains": lambda t, c, v: tablefns.filter_contains(
            _as_table(t, "filter_contains"), _as_text(c, "filter_contains"),
            _scalar(v), fuzzy_cfg),
        "filter_not_contains": lambda t, c, v: tablefns.filter_not_contains(
            _as_table(t, "filter_not_contains"), _as_text(c, "filter_not_contains"), _scalar(v)),
        "exists_value": lambda t, c, v: tablefns.exists_value(
            _as_table(t, "exists_value"), _as_text(c, "exists_value"), _scalar(v), fuzzy_cfg),
        "count_equal": lambda t, c, v: float(tablefns.count_equal(
            _as_table(t, "count_equal"), _as_text(c, "count_equal"), _scalar(v))),
        "count_containing": lambda t, c, v: float(tablefns.count_containing(
            _as_table(t, "count_containing"), _as_text(c, "count_containing"),
            _scalar(v), fuzzy_cfg)),
        "most_frequent": lambda t, c: tablefns.most_frequent(
            _as_table(t, "most_frequent"), _as_text(c, "most_frequent")),
        "most_frequent_n": lambda t, c, n: tablefns.most_frequent(
            _as_table(t, "most_frequent_n"), _as_text(c, "most_frequent_n"),
            int(_as_number(n, "most_frequent_n"))),
        "most_frequent_in_subset": lambda t, tc, sc, fv: tablefns.most_frequent_in_subset(
            _as_table(t, "most_frequent_in_subset"), _as_text(tc, "most_frequent_in_subset"),
            _as_text(sc, "most_frequent_in_subset"), _scalar(fv), None, fuzzy_cfg),
        "most_frequent_n_in_subset": lambda t, tc, sc, fv, n: tablefns.most_frequent_in_subset(
            _as_table(t, "most_frequent_n_in_subset"), _as_text(tc, "most_frequent_n_in_subset"),
            _as_text(sc, "most_frequent_n_in_subset"), _scalar(fv),
            int(_as_number(n, "most_frequent_n_in_subset")), fuzzy_cfg),
        "column": lambda t, c: list(tablefns._resolve(
            _as_table(t, "column"), _as_text(c, "column")).cells),
        "count_rows": lambda t: float(_as_table(t, "count_rows").row_count),
        "unique": _unique,
        "length": lambda v: float(len(_as_list(v, "length"))),
        "sum": lambda v: float(sum(_list_numbers(v, "sum"))),
        "mean": _mean,
        "min_of": lambda v: _minmax(v, "min_of", min),
        "max_of": lambda v: _minmax(v, "max_of", max),
        "head_n": lambda v, n: _as_list(v, "head_n")[:int(_as_number(n, "head_n"))],
        "sort_asc": lambda v: _sort_key_list(_as_list(v, "sort_asc")),
        "sort_desc": lambda v: list(reversed(_sort_key_list(_as_list(v, "sort_desc")))),
        "add": lambda a, b: _as_number(a, "add") + _as_number(b, "add"),
        "sub": lambda a, b: _as_number(a, "sub") - _as_number(b, "sub"),
        "mul": lambda a, b: _as_number(a, "mul") * _as_number(b, "mul"),
        "div": _div,
        "gt": lambda a, b: _scalar_compare(a, b, "gt", "gt"),
        "ge": lambda a, b: _scalar_compare(a, b, "ge", "ge"),
        "lt": lambda a, b: _scalar_compare(a, b, "lt", "lt"),
        "le": lambda a, b: _scalar_compare(a, b, "le", "le"),
        "eq": _eq,
        "not_": _not,
        "to_number": _to_number,
        "first": _first,
    }


def _scalar(v: RuntimeValue) -> Cell:
    if isinstance(v, (Table, list)):
        raise PlanRuntimeError("expected a scalar value")
    return v


def execute_plan(plan: Plan, t: Table,
                 fuzzy_cfg: FuzzyConfig = FuzzyConfig()) -> RuntimeValue:
    """Evaluate the plan's bindings in order with `df` bound to t and
    return the answer expression's value."""
    impls = _builtin_impls(fuzzy_cfg)
    env: dict[str, RuntimeValue] = {"df": t}

    def evaluate(expr: Expr) -> RuntimeValue:
        if isinstance(expr, Literal):
            return list(expr.value) if isinstance(expr.value, tuple) else expr.value
        if isinstance(expr, Ref):
            if expr.name not in env:
                raise PlanRuntimeError(f"undefined reference '{expr.name}'")
            return env[expr.name]
        assert isinstance(expr, Call)
        args = [evaluate(a) for a in expr.args]
        try:
            return impls[expr.fn](*args)
        except PlanRuntimeError:
            raise
        except TableFnError as exc:
            raise PlanRuntimeError(f"{expr.fn}: {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise PlanRuntimeError(f"{expr.fn}: {exc}") from exc

    for name, expr in plan.bindings:
        env[name] = evaluate(expr)
    return evaluate(plan.answer)


CODER_SYSTEM = (
    "You translate natural language instructions into a short plan in a "
    "restricted table query language. Output ONLY the plan, no prose, no "
    "explanations. The plan must end with an `answer =` line."
)


def build_coder_prompt(inst: InstructionSet, schema: list[ColumnProfile],
                       reference: Optional[str] = None) -> str:
    if reference is None:
        reference = dsl_reference()
    lines = ["Instructions:"]
    for i, step in enumerate(inst.instructions, start=1):
        lines.append(f"{i}) {step}")
    lines.append("")
    lines.append("Table columns:")
    for p in schema:
        examples = ", ".join(p.example_values) or "(none)"
        lines.append(f"- \"{p.name}\" (type {p.kind.value}; example values: {examples})")
    lines.append("")
    lines.append(reference)
    lines.append("")
    lines.append("Write the plan now. Output only plan lines, ending with `answer =` "
                 "assigning the final result.")
    return "\n".join(lines)


def _repair_prompt(base_prompt: str, plan_text: str, stage: str, message: str) -> str:
    return (
        f"{base_prompt}\n\n"
        f"Your previous plan failed at the {stage} stage.\n"
        f"Previous plan:\n{plan_text}\n"
        f"Error: {message}\n"
        f"Write a corrected plan. Output only plan lines, ending with `answer =`."
    )


def solve(inst: InstructionSet, t: Table, schema: list[ColumnProfile], llm,
          max_attempts: int = DEFAULT_MAX_ATTEMPTS,
          fuzzy_cfg: FuzzyConfig = FuzzyConfig()) -> RunTrace:
    """Coder loop: prompt, parse, validate, execute; on any failure,
    re-prompt with the failed plan and its error, up to max_attempts."""
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    base_prompt = build_coder_prompt(inst, schema)
    trace = RunTrace()
    prompt = base_prompt
    for _ in range(max_attempts):
        try:
            plan_text = llm.complete(ChatRequest(
                messages=(Message("system", CODER_SYSTEM), Message("user", prompt)),
                stage_tag="coder",
            ))
        except LLMError as exc:
            trace.attempts.append(Attempt("", "error", "transport", str(exc)))
            break
        stage, message = "", ""
        try:
            plan = parse_plan(plan_text)
            plan = validate_plan(plan, t.column_names)
            value = execute_plan(plan, t, fuzzy_cfg)
        except PlanSyntaxError as exc:
            stage, message = "parse", str(exc)
        except PlanValidationError as exc:
            stage, message = "validate", str(exc)
        except PlanRuntimeError as exc:
            stage, message = "execute", str(exc)
        if not stage:
            trace.attempts.append(Attempt(plan_text, "executed"))
            trace.final_value = value
            trace.succeeded = True
            return trace
        trace.attempts.append(Attempt(plan_text, "error", stage, message))
        prompt = _repair_prompt(base_prompt, plan_text, stage, message)
    return trace
