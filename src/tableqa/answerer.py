"""Coercion of runtime values into typed answers, and the benchmark
comparator.

`_RULES` gives each scalar type one row: its runtime coercion, its
stored reading and the form the scorer compares; a list type applies
its `_ELEMENT` type's row to each element.  Category coercion is the
identity on text ("+65", "18-24" and "PP (Partido Popular)" come out
byte-identical); only the compared form is stripped and lower-cased.
`Answer.vote_key()` is the type and that form, for a list the sorted
tuple of its elements' forms, NaN last; every NaN has one form, so NaN
answers vote as one class.  The comparator is key equality, except that
numbers match when `a == b` (so infinities match themselves) or within
ABS_TOL or REL_TOL of a finite gold; the vote keys stay exact.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Callable, Hashable, NamedTuple, Union

from .runner import RuntimeValue
from .table_core import (
    BOOLEAN_LEXICON,
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
        """The exact JSON text of the answer; the vote counts `vote_key`."""
        return json.dumps(self.to_dict(), ensure_ascii=False, sort_keys=True)

    def vote_key(self) -> tuple:
        """(type, compared form): answers with equal keys score alike."""
        element = _ELEMENT.get(self.type)
        if element is None:
            return self.type, _RULES[self.type].form(self.value)
        return self.type, tuple(sorted(map(_RULES[element].form, self.value),
                                       key=lambda x: (x != x, x)))


def _normalize_value(value, at: AnswerType) -> AnswerValue:
    """A stored answer value as its type's Python value: Boolean text goes
    through the boolean lexicon, and list types need a JSON array."""
    element = _ELEMENT.get(at)
    if element is None:
        return _RULES[at].read(value)
    if not isinstance(value, list):
        raise FormatError(f"{at.value} needs a JSON array, not {value!r}")
    return [_RULES[element].read(v) for v in value]


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
        if float(v) not in (0, 1):
            raise FormatError(f"number {v!r} is not a boolean")
        return float(v) == 1
    if isinstance(v, str) and v.strip().lower() in BOOLEAN_LEXICON:
        return v.strip().lower() in BOOLEAN_TRUE
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


class _Rule(NamedTuple):
    coerce: Callable[[Cell], AnswerValue]  # a runtime cell
    read: Callable[[object], AnswerValue]  # a stored JSON value
    form: Callable[[AnswerValue], Hashable]  # what the scorer compares


_RULES = {
    AnswerType.BOOLEAN: _Rule(_coerce_boolean, _coerce_boolean, bool),
    AnswerType.NUMBER: _Rule(_coerce_number, float, lambda v: math.nan if v != v else float(v)),
    AnswerType.CATEGORY: _Rule(_coerce_category, str, lambda v: str(v).strip().lower()),
}
_ELEMENT = {AnswerType.LIST_CATEGORY: AnswerType.CATEGORY,
            AnswerType.LIST_NUMBER: AnswerType.NUMBER}


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
    element = _ELEMENT.get(at)
    if element is None:
        scalar = _unwrap_single(v)
        if isinstance(scalar, (Table, list)):
            raise FormatError(f"cannot coerce a non-scalar value to {at.value}")
        return Answer(at, _RULES[at].coerce(scalar))
    return Answer(at, [_RULES[element].coerce(c) for c in _as_cell_list(v)])


ABS_TOL = 1e-9
REL_TOL = 1e-6


def _numbers_close(a: float, b: float) -> bool:
    # A tolerance around an infinite gold would take in every number.
    return a == b or math.isfinite(b) and abs(a - b) <= max(ABS_TOL, REL_TOL * abs(b))


def compare_answers(pred: Answer, gold: Answer) -> bool:
    """Strict benchmark comparison; a type mismatch is a mismatch, never
    an exception.  Lists compare as multisets."""
    if pred.type is not gold.type:
        return False
    at, (_, p), (_, g) = gold.type, pred.vote_key(), gold.vote_key()
    if at is AnswerType.NUMBER:
        return _numbers_close(p, g)
    if at is AnswerType.LIST_NUMBER:
        return len(p) == len(g) and all(map(_numbers_close, p, g))
    return p == g
