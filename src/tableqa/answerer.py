"""Coercion of runtime values into typed answers, and the benchmark
comparator.

The formatter is rule-based.  Category formatting is the identity on
text scalars: "+65", "18-24" and "PP (Partido Popular)" come out
byte-identical, never stripped or normalized.

The comparator matches numbers within ABS_TOL or REL_TOL of the gold,
categories up to case and surrounding spaces, and lists as multisets.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Union

from .runner import RuntimeValue
from .table_core import (
    BOOLEAN_FALSE,
    BOOLEAN_TRUE,
    Cell,
    Table,
    extract_numeric,
    is_number,
    render_cell,
)


class AnswerType(enum.Enum):
    BOOLEAN = "Boolean"
    NUMBER = "Number"
    CATEGORY = "Category"
    LIST_CATEGORY = "List[Category]"
    LIST_NUMBER = "List[Number]"


AnswerValue = Union[bool, float, str, list]


class FormatError(ValueError):
    """The value cannot be coerced to the requested answer type."""


@dataclass(frozen=True)
class Answer:
    type: AnswerType
    value: AnswerValue

    def to_dict(self) -> dict:
        return {"type": self.type.value, "value": self.value}

    @staticmethod
    def from_dict(d: dict) -> "Answer":
        at = AnswerType(d["type"])
        return Answer(at, _normalize_value(d["value"], at))

    def canonical_key(self) -> str:
        """Stable serialization used as the ensemble vote key."""
        return json.dumps(self.to_dict(), ensure_ascii=False, sort_keys=True)


def _normalize_value(value, at: AnswerType) -> AnswerValue:
    """A stored answer value as its type's Python value: Boolean text goes
    through the boolean lexicon, and list types need a JSON array."""
    if at is AnswerType.BOOLEAN:
        return _coerce_boolean(value)
    if at is AnswerType.NUMBER:
        return float(value)
    if at is AnswerType.CATEGORY:
        return str(value)
    if not isinstance(value, list):
        raise FormatError(f"{at.value} needs a JSON array, not {value!r}")
    if at is AnswerType.LIST_NUMBER:
        return [float(v) for v in value]
    return [str(v) for v in value]


def _unwrap_single(v: RuntimeValue) -> RuntimeValue:
    while True:
        if isinstance(v, Table) and len(v.columns) == 1 and v.row_count == 1:
            v = v.columns[0].cells[0]
        elif isinstance(v, list) and len(v) == 1:
            v = v[0]
        else:
            return v


def _coerce_boolean(v: Cell) -> bool:
    if isinstance(v, bool):
        return v
    if is_number(v):
        if float(v) == 1:
            return True
        if float(v) == 0:
            return False
        raise FormatError(f"number {v!r} is not a boolean")
    if isinstance(v, str):
        word = v.strip().lower()
        if word in BOOLEAN_TRUE:
            return True
        if word in BOOLEAN_FALSE:
            return False
    raise FormatError(f"cannot coerce {v!r} to Boolean")


def _coerce_number(v: Cell) -> float:
    x = extract_numeric(v)
    if x is None:
        raise FormatError(f"cannot coerce {v!r} to Number")
    return x


def _coerce_category(v: Cell) -> str:
    # Identity on text: no symbol stripping, no case folding.
    if v is None:
        raise FormatError("cannot coerce missing to Category")
    return render_cell(v)


def _as_cell_list(v: RuntimeValue) -> list[Cell]:
    if isinstance(v, Table):
        if len(v.columns) != 1:
            raise FormatError(
                f"cannot coerce a {len(v.columns)}-column table to a list")
        return list(v.columns[0].cells)
    if isinstance(v, list):
        return v
    return [v]


def format_answer(v: RuntimeValue, at: AnswerType) -> Answer:
    """Rule-based coercion of a successful runtime value to the target
    answer type; raises FormatError when no rule applies."""
    if at in (AnswerType.BOOLEAN, AnswerType.NUMBER, AnswerType.CATEGORY):
        scalar = _unwrap_single(v)
        if isinstance(scalar, (Table, list)):
            raise FormatError(f"cannot coerce a non-scalar value to {at.value}")
        if at is AnswerType.BOOLEAN:
            return Answer(at, _coerce_boolean(scalar))
        if at is AnswerType.NUMBER:
            return Answer(at, _coerce_number(scalar))
        return Answer(at, _coerce_category(scalar))
    cells = _as_cell_list(v)
    if at is AnswerType.LIST_NUMBER:
        return Answer(at, [_coerce_number(c) for c in cells])
    return Answer(at, [_coerce_category(c) for c in cells])


ABS_TOL = 1e-9
REL_TOL = 1e-6


def _numbers_close(a: float, b: float) -> bool:
    return abs(a - b) <= max(ABS_TOL, REL_TOL * abs(b))


def _category_equal(a: str, b: str) -> bool:
    return a.strip().lower() == b.strip().lower()


def compare_answers(pred: Answer, gold: Answer) -> bool:
    """Strict benchmark comparison; a type mismatch is a mismatch, never
    an exception.  Lists compare as multisets."""
    if pred.type is not gold.type:
        return False
    at = gold.type
    if at is AnswerType.BOOLEAN:
        return bool(pred.value) is bool(gold.value)
    if at is AnswerType.NUMBER:
        return _numbers_close(float(pred.value), float(gold.value))
    if at is AnswerType.CATEGORY:
        return _category_equal(str(pred.value), str(gold.value))
    pv, gv = list(pred.value), list(gold.value)
    if len(pv) != len(gv):
        return False
    if at is AnswerType.LIST_NUMBER:
        pv, gv = sorted(map(float, pv)), sorted(map(float, gv))
        return all(_numbers_close(a, b) for a, b in zip(pv, gv))
    pv = sorted(pv, key=lambda s: str(s).strip().lower())
    gv = sorted(gv, key=lambda s: str(s).strip().lower())
    return all(_category_equal(str(a), str(b)) for a, b in zip(pv, gv))
