"""The fixed library of generic table functions exposed to plans.

Every function takes and returns value-semantics Tables.  Column
arguments are corrected against the schema with Levenshtein snapping
before use.  Numeric predicates go through extract_numeric per cell, so
mixed columns like "10 - Le votaría siempre" still filter correctly;
cells with no extractable number never satisfy a numeric predicate.

Fuzzy value matching lives only in the contains-family (filter_contains,
exists_value, count_containing and the subset variants); the exact-match
family (count_equal, delete_rows_by_column_value) never goes fuzzy.
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Optional, Union

from .fuzzy import FILTER_THRESHOLD, best_fuzzy_match, correct_name
from .table_core import (
    Cell,
    Column,
    ColumnKind,
    Table,
    equal_to,
    render_cell,
)

NO_MATCHING_RECORDS = "No matching records were found"

FLATTEN_DELIMITERS = (";", ",", "|")
# The rows one plan's flattens may build in all, so the most one flatten builds.
PLAN_ROW_BUDGET = 500_000


class TableFnError(Exception):
    """Raised by table functions on contract violations (missing column,
    non-numeric column, empty subset...)."""


def _resolve(t: Table, column: str) -> Column:
    if not t.columns:
        raise TableFnError(f"column {column!r} not found: table has no columns")
    return t.column(correct_name(column, t.column_names))


def _split_cell(cell: Cell) -> tuple[Cell, ...]:
    if isinstance(cell, str):
        for delim in FLATTEN_DELIMITERS:
            if delim in cell:
                return tuple(p.strip() or None for p in cell.split(delim))
    return (cell,)


def _rows_where(col: Column, test: Callable[[int], bool]) -> list[int]:
    """The rows whose code passes `test`, calling it once per code present."""
    hit = {code: test(code) for code in col.counts}
    return list(compress(range(len(col)), map(hit.__getitem__, col.codes)))


def flatten_column_values(t: Table, column: str, built: int = 0) -> Table:
    """Explode multi-valued text cells into one row per value.

    A cell splits on the first of ";", ",", "|" that occurs in it; split
    values are trimmed.  Single-valued rows pass through.  A result over
    PLAN_ROW_BUDGET less the `built` rows the plan has is refused unbuilt.
    """
    col = _resolve(t, column)
    split = {code: _split_cell(col.uniques[code]) for code in col.counts}
    rows = sum(len(split[code]) * n for code, n in col.counts.items())
    if rows > PLAN_ROW_BUDGET - built:
        raise TableFnError(f"would build {rows} rows, over the budget of {PLAN_ROW_BUDGET - built} rows")
    parts = list(map(split.__getitem__, col.codes))
    out = t.take_rows([i for i, ps in enumerate(parts) for _ in ps]).columns
    # An unsplit row keeps its own cell: 0.0 and -0.0 share a code.
    flat = Column(col.name, col.kind, [p for ps, cell in zip(parts, col.cells)
                                       for p in (ps if len(ps) > 1 else (cell,))])
    j = t.column_names.index(col.name)
    return Table(t.name, out[:j] + (flat,) + out[j + 1:])


def top_n_non_missing(t: Table, column: str, n: int, tail: bool = False) -> Table:
    """First (or with `tail`, last) n rows whose cell is non-missing, in
    original order; fewer than n available returns all of them."""
    if n < 0:
        raise TableFnError(f"n must be >= 0, got {n}")
    col = _resolve(t, column)
    idx = _rows_where(col, lambda code: col.uniques[code] is not None)
    chosen = idx[len(idx) - min(n, len(idx)):] if tail else idx[:n]
    return t.take_rows(chosen)


def delete_rows_by_column_value(t: Table, column: str, value: Cell) -> Table:
    """Drop rows whose cell equals `value` exactly (numeric equality for
    numbers; value=None drops missing-valued rows).  No fuzzy fallback."""
    col, equal = _resolve(t, column), equal_to(value)
    return t.take_rows(_rows_where(col, lambda code: not equal(col.uniques[code])))


def sort_alphabetical(t: Table, column: str) -> Table:
    """Stable ascending sort by case-insensitive text rendering; missing
    cells sort last."""
    col = _resolve(t, column)
    lowered = col.unique_lowered
    texts = sorted({lowered[code] for code in col.counts if col.uniques[code] is not None})
    rank = dict(zip(texts, range(len(texts))))
    code_rank = {code: len(texts) if col.uniques[code] is None else rank[lowered[code]]
                 for code in col.counts}
    keys = list(map(code_rank.__getitem__, col.codes))
    return t.take_rows(sorted(range(len(col)), key=keys.__getitem__))


def filter_numeric(t: Table, column: str, operator: Callable[[float, float], bool],
                   value: float) -> Table:
    """Keep rows where `operator(cell's extracted number, value)` holds
    (`operator.ge`, say); cells with no extractable number are excluded."""
    col = _resolve(t, column)
    numbers = col.unique_numbers
    if all(numbers[code] is None for code in col.counts) \
            and any(col.uniques[code] is not None for code in col.counts):
        raise TableFnError(f"non-numeric column {col.name!r}")
    v = float(value)
    return t.take_rows(_rows_where(
        col, lambda code: numbers[code] is not None and operator(numbers[code], v)))


def _contains(col: Column, value: Cell) -> Callable[[int], bool]:
    """Round-1 containment, per code: the cell is present and its
    lowercased rendering contains the value's."""
    needle = render_cell(value).strip().lower()
    lowered = col.unique_lowered
    return lambda code: col.uniques[code] is not None and needle in lowered[code]


def filter_contains(t: Table, column: str, value: Cell) -> Table:
    """Two-round containment filter.

    Round 1 keeps rows whose cell text contains the value's text as a
    case-insensitive substring.  If that yields nothing and the column is
    textual, round 2 looks for the best fuzzy match over the column's
    values (FILTER_THRESHOLD, 75) and keeps rows exactly equal to
    the matched value.
    """
    col = _resolve(t, column)
    keep = _rows_where(col, _contains(col, value))
    textual = col.kind in (ColumnKind.CATEGORICAL, ColumnKind.MIXED_NUMERIC)
    if not keep and textual and isinstance(value, str) and value != "":
        firsts = [first for first, _ in col.distinct.values()]
        match = best_fuzzy_match(firsts, value, FILTER_THRESHOLD)
        if match is not None:
            equal = equal_to(match)
            keep = _rows_where(col, lambda code: equal(col.uniques[code]))
    return t.take_rows(keep)


def filter_not_contains(t: Table, column: str, value: Cell) -> Table:
    """Complement of round-1 containment; the fuzzy round never applies
    to negation."""
    col = _resolve(t, column)
    hit = _contains(col, value)
    return t.take_rows(_rows_where(col, lambda code: not hit(code)))


def exists_value(t: Table, column: str, value: Cell) -> bool:
    return filter_contains(t, column, value).row_count > 0


def count_equal(t: Table, column: str, value: Cell) -> int:
    """Exact, case-sensitive count; no fuzzy fallback."""
    col, equal = _resolve(t, column), equal_to(value)
    return sum(n for code, n in col.counts.items() if equal(col.uniques[code]))


def count_containing(t: Table, column: str, value: Cell) -> int:
    return filter_contains(t, column, value).row_count


def most_frequent(t: Table, column: str,
                  n: Optional[int] = None) -> Union[Cell, list[Cell]]:
    """Mode of the non-missing cells (n omitted), or the n most frequent
    values ordered by descending count then first occurrence."""
    if n is not None and n < 1:
        raise TableFnError(f"n must be >= 1, got {n}")
    col = _resolve(t, column)
    if not col.distinct:
        raise TableFnError(f"no values in column {col.name!r}")
    # A stable sort keeps first-seen order among equal counts.
    ranked = sorted(col.distinct.values(), key=lambda fc: -fc[1])
    if n is None:
        return ranked[0][0]
    return [first for first, _ in ranked[:n]]


def most_frequent_in_subset(t: Table, target_column: str, subset_column: str,
                            filter_value: Cell,
                            n: Optional[int] = None) -> Union[Cell, list[Cell]]:
    """most_frequent over the rows matching filter_value in subset_column
    (two-round contains semantics); an empty subset raises the sentinel
    message."""
    _resolve(t, target_column)
    sub = filter_contains(t, subset_column, filter_value)
    if sub.row_count == 0:
        raise TableFnError(NO_MATCHING_RECORDS)
    return most_frequent(sub, target_column, n)
