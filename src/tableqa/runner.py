"""Plan execution and the coder repair loop.

The coder is prompted with the clarified instructions, the selected
schema and the full DSL reference.  Any parse, validation or runtime
error feeds a repair prompt (last failed plan plus the error, not the
whole history) and the loop continues until success or the attempt limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .explainer import InstructionSet
from .llm_client import ChatRequest, LLMError, Message
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


def _evaluate(expr: Expr, env: dict[str, RuntimeValue]) -> RuntimeValue:
    if isinstance(expr, Literal):
        return list(expr.value) if isinstance(expr.value, tuple) else expr.value
    if isinstance(expr, Ref):
        if expr.name not in env:
            raise PlanRuntimeError(f"undefined reference '{expr.name}'")
        return env[expr.name]
    return BUILTINS[expr.fn].call([_evaluate(a, env) for a in expr.args])


def execute_plan(plan: Plan, t: Table) -> RuntimeValue:
    """Evaluate the plan's bindings in order with `df` bound to t and
    return the answer expression's value."""
    # `_evaluate` is not a closure: one that calls itself is a reference
    # cycle, keeping `env` and its tables alive until the cyclic GC runs.
    env: dict[str, RuntimeValue] = {"df": t}
    for name, expr in plan.bindings:
        env[name] = _evaluate(expr, env)
    return _evaluate(plan.answer, env)


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


def solve(inst: InstructionSet, t: Table, schema: list[ColumnProfile], llm) -> RunTrace:
    """Coder loop: prompt, parse, validate, execute; on any failure,
    re-prompt with the failed plan and its error, up to
    DEFAULT_MAX_ATTEMPTS attempts."""
    base_prompt = build_coder_prompt(inst, schema)
    trace = RunTrace()
    prompt = base_prompt
    for _ in range(DEFAULT_MAX_ATTEMPTS):
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
            value = execute_plan(plan, t)
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
