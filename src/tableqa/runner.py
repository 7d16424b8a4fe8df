"""Plan execution and the coder repair loop.

The coder is prompted with the clarified instructions, the selected
schema and the full DSL reference.  Any parse, validation or runtime
error feeds a repair prompt (last failed plan plus the error, not the
whole history) and the loop continues until success or the attempt limit.
Only flattens grow tables: one plan's build `tablefns.PLAN_ROW_BUDGET`
rows in all at most, and the one that would pass that fails unbuilt.
A plan text already run on the table in this ensemble (the memo the
ensemble hands `solve`) reuses that outcome: its value, or its parse,
validation or runtime error.  Any other exception is not memoised and
propagates from every run that reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .explainer import InstructionSet
from .llm_client import ChatRequest, LLMError
from .planlang import (
    BUILTINS,
    Expr,
    Literal,
    Plan,
    PlanRuntimeError,
    PlanSyntaxError,
    PlanValidationError,
    Ref,
    dsl_reference,
    parse_plan,
    validate_plan,
)
from .profiler import ColumnProfile
from .table_core import Cell, Table, render_cell

RuntimeValue = Union[Table, list, Cell]

DEFAULT_MAX_ATTEMPTS = 5


@dataclass
class Attempt:
    plan_text: str
    stage: str  # executed | error
    error_stage: Optional[str] = None  # transport | parse | validate | execute
    error_message: Optional[str] = None

    def to_dict(self) -> dict:
        return dict(vars(self))


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


def _evaluate(expr: Expr, env: dict[str, RuntimeValue], rows: list[int]) -> RuntimeValue:
    if isinstance(expr, Literal):
        return list(expr.value) if isinstance(expr.value, tuple) else expr.value
    if isinstance(expr, Ref):
        if expr.name not in env:
            raise PlanRuntimeError(f"undefined reference '{expr.name}'")
        return env[expr.name]
    args = [_evaluate(a, env, rows) for a in expr.args]
    if expr.fn != "flatten_column_values":
        return BUILTINS[expr.fn].call(args)
    value = BUILTINS[expr.fn].call(args, built=rows[0])
    rows[0] += value.row_count
    return value


def execute_plan(plan: Plan, t: Table) -> RuntimeValue:
    """Evaluate the plan's bindings in order with `df` bound to t and
    return the answer expression's value."""
    # `_evaluate` is not a closure: one that calls itself is a reference
    # cycle, keeping `env` and its tables alive until the cyclic GC runs.
    env: dict[str, RuntimeValue] = {"df": t}
    rows = [0]  # the rows the plan's flattens have built
    for name, expr in plan.bindings:
        env[name] = _evaluate(expr, env, rows)
    return _evaluate(plan.answer, env, rows)


CODER_SYSTEM = (
    "You translate natural language instructions into a short plan in a "
    "restricted table query language. Output ONLY the plan, no prose, no "
    "explanations. The plan must end with an `answer =` line."
)


def build_coder_prompt(inst: InstructionSet, schema: list[ColumnProfile]) -> str:
    lines = ["Instructions:"]
    for i, step in enumerate(inst.instructions, start=1):
        lines.append(f"{i}) {step}")
    lines.append("")
    lines.append("Table columns:")
    for p in schema:
        examples = ", ".join(p.example_values) or "(none)"
        lines.append(f"- \"{p.name}\" (type {p.kind.value}; example values: {examples})")
    lines.append("")
    lines.append(dsl_reference())
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


def try_plan(plan_text: str, t: Table) -> tuple[str, str, Optional[RuntimeValue]]:
    """Parse, validate and execute one plan: ("", "", value), or the
    failed stage, its error text and None."""
    try:
        return "", "", execute_plan(validate_plan(parse_plan(plan_text), t.column_names), t)
    except PlanSyntaxError as exc:
        return "parse", str(exc), None
    except PlanValidationError as exc:
        return "validate", str(exc), None
    except PlanRuntimeError as exc:
        return "execute", str(exc), None


def solve(base_prompt: str, t: Table, llm, memo: Optional[dict] = None) -> RunTrace:
    """Coder loop: send `base_prompt` (see `build_coder_prompt`), parse,
    validate, execute; on any failure, re-prompt with the failed plan and
    its error, up to DEFAULT_MAX_ATTEMPTS attempts.  `memo` maps the plan
    texts already tried on `t` to their outcomes, and is filled here."""
    memo = {} if memo is None else memo
    trace = RunTrace()
    prompt = base_prompt
    for _ in range(DEFAULT_MAX_ATTEMPTS):
        try:
            plan_text = llm.complete(ChatRequest("coder", CODER_SYSTEM, prompt))
        except LLMError as exc:
            trace.attempts.append(Attempt("", "error", "transport", str(exc)))
            break
        if plan_text not in memo:
            memo[plan_text] = try_plan(plan_text, t)
        stage, message, value = memo[plan_text]
        if not stage:
            trace.attempts.append(Attempt(plan_text, "executed"))
            trace.final_value = value
            trace.succeeded = True
            return trace
        trace.attempts.append(Attempt(plan_text, "error", stage, message))
        prompt = _repair_prompt(base_prompt, plan_text, stage, message)
    return trace
