"""Natural-language instruction generation and clarification.

The explainer asks the LLM for a JSON object with three fields
(instructions, columns, filter_values), then a deterministic clarify pass
snaps column names to the schema and appends clarification lines: stored
format hints for filter values ("Be careful!. ...") and type/example
lines for non-numeric columns.  The appended strings are byte-exact
templates that downstream prompts and tests anchor on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .fuzzy import MATCH_THRESHOLD, best_fuzzy_match, correct_name
from .llm_client import ChatRequest, first_json
from .profiler import EXAMPLE_COUNT, ColumnProfile
from .table_core import ColumnKind, Table, render_cell

BE_CAREFUL_TEMPLATE = (
    "Be careful!. The value {value} appears in the database with the "
    "following format: '{stored}'"
)
TYPE_LINE_TEMPLATE = (
    "The column '{column}' is of type '{kind}' and has the following "
    "example values: {examples}"
)

KIND_RENDERING = {
    ColumnKind.CATEGORICAL: "object",
    ColumnKind.NUMERIC: "number",
    ColumnKind.MIXED_NUMERIC: "mixed",
    ColumnKind.BOOLEAN: "bool",
}


class InstructionParseError(Exception):
    """The explainer reply held no usable instruction JSON."""


@dataclass
class InstructionSet:
    instructions: list[str]
    columns: list[str] = field(default_factory=list)
    filter_values: list[tuple[Optional[str], str]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "instructions": list(self.instructions),
            "columns": list(self.columns),
            "filter_values": [
                {"column": c, "value": v} for c, v in self.filter_values
            ],
        }


EXPLAINER_ATTEMPTS = 3  # explainer replies asked for before giving up

EXPLAINER_SYSTEM = (
    "You write step-by-step natural language instructions for answering "
    "a question over a table. Do not write code. Reply with a JSON object "
    "with exactly these fields: \"instructions\" (list of instruction "
    "strings), \"columns\" (list of column names the instructions use) "
    "and \"filter_values\" (list of values used to filter rows, each "
    "either a plain string or an object {\"column\": ..., \"value\": ...})."
)


def build_explainer_prompt(question: str, selected: list[ColumnProfile]) -> str:
    if not selected:
        raise ValueError("explainer needs at least one selected column")
    lines = [f"Question: {question}", "", "Available columns:"]
    for p in selected:
        examples = ", ".join(p.example_values[:EXAMPLE_COUNT]) or "(none)"
        lines.append(
            f"- {p.name} (type {p.kind.value}): {p.description} "
            f"Example values: {examples}")
    lines.append("")
    lines.append(
        'Reply with a JSON object: {"instructions": [...], '
        '"columns": [...], "filter_values": [...]}')
    return "\n".join(lines)


def parse_instruction_set(reply: str) -> InstructionSet:
    """Extract the first JSON object from the reply (tolerating fences
    and surrounding prose) and validate the three fields."""
    obj = first_json(reply, dict)
    if obj is None:
        raise InstructionParseError("no JSON object found in explainer reply")
    instructions = obj.get("instructions")
    if not isinstance(instructions, list) or not instructions:
        raise InstructionParseError("missing or empty 'instructions' field")
    instructions = [str(x) for x in instructions]
    columns = [str(x) for x in obj.get("columns", []) if isinstance(x, (str, int, float))]
    filter_values: list[tuple[Optional[str], str]] = []
    for fv in obj.get("filter_values", []) or []:
        if isinstance(fv, dict):
            value = fv.get("value")
            if value is None:
                continue
            column = fv.get("column")
            filter_values.append((str(column) if column is not None else None, str(value)))
        else:
            filter_values.append((None, str(fv)))
    return InstructionSet(instructions, columns, filter_values)


def request_instructions(prompt: str, llm) -> InstructionSet:
    """Send the explainer `prompt` (see `build_explainer_prompt`),
    re-asking on parse failure up to EXPLAINER_ATTEMPTS total attempts."""
    req = ChatRequest("explainer", EXPLAINER_SYSTEM, prompt)
    last_error: Optional[Exception] = None
    for _ in range(EXPLAINER_ATTEMPTS):
        try:
            return parse_instruction_set(llm.complete(req))
        except InstructionParseError as exc:
            last_error = exc
    raise InstructionParseError(
        f"explainer failed after {EXPLAINER_ATTEMPTS} attempts: {last_error}")


def clarify(inst: InstructionSet, t: Table, profiles: list[ColumnProfile]) -> InstructionSet:
    """Correct column names and append clarification instructions.

    Never removes or reorders the original instructions.  Appends all
    Be-careful lines first, then all type/example lines.
    """
    schema = t.column_names
    by_name = {p.name: p for p in profiles}
    corrected_columns = [correct_name(c, schema) for c in inst.columns] if schema else []

    be_careful: list[str] = []
    for column, value in inst.filter_values:
        if column is not None:
            candidates = [correct_name(column, schema)] if schema else []
        else:
            candidates = corrected_columns
        for cand in candidates:
            distinct = t.column(cand).distinct
            if value in distinct:
                break
            firsts = [first for first, _ in distinct.values()]
            match = best_fuzzy_match(firsts, value, MATCH_THRESHOLD)
            if match is not None:
                be_careful.append(BE_CAREFUL_TEMPLATE.format(value=value, stored=render_cell(match)))
                break

    type_lines: list[str] = []
    for name in corrected_columns:
        profile = by_name.get(name)
        if profile is None:
            continue
        if profile.kind is ColumnKind.NUMERIC:
            continue
        examples = ", ".join(profile.example_values[:EXAMPLE_COUNT])
        type_lines.append(TYPE_LINE_TEMPLATE.format(
            column=name, kind=KIND_RENDERING[profile.kind], examples=examples))

    return InstructionSet(
        instructions=list(inst.instructions) + be_careful + type_lines,
        columns=corrected_columns,
        filter_values=list(inst.filter_values),
    )
