"""Immutable columnar table model: CSV loading (UTF-8, `,` delimited,
`"` quoted, one header row), column-kind inference, missing-value
handling, and numeric extraction from mixed-type cells.

A cell is one of: a number (float), a boolean, a text string, or None
(missing).  Missing is distinct from the empty string and from 0.
Tables are never mutated after load; every transforming operation
returns a new Table.

Columns are dictionary-coded.  A *root* column holds `uniques` (one cell
per distinct `(type(c), c)`, or for a loaded column per distinct raw
text), `codes` (per row, the position of its cell in `uniques`) and
`cells`, which a loaded column builds on first read.  A *derived*
column, made by `Table.take_rows`, holds its root and a tuple of root
row numbers, one tuple shared by the table's columns; it gathers its
`cells` and `codes` from the root when first read and shares the root's
`uniques`.  A filter therefore builds one index tuple and copies no column.

Columns never change, so derived values are cached on them:

- per unique, on the root: `unique_lowered` (lowercased rendering) and
  `unique_numbers` (`extract_numeric`), computed once per loaded table
  and read per row through `codes`;
- per column: `counts` (code -> rows, first-seen order), `distinct`
  (rendering -> (first cell, count) over the non-missing cells, in
  first-seen order) and `fuzzy_matches` ((value, threshold) -> match).

Loading codes LOAD_CHUNK_ROWS rows at a time by raw text, classifies each
distinct text once, and fills `uniques`, `codes`, `counts` and
`unique_numbers` and no other view; `profile_table` fills `distinct`.
"""

from __future__ import annotations

import csv
import enum
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count, islice
from typing import Callable, Iterable, Optional, Sequence, Union

Cell = Union[float, bool, str, None]


class TableError(Exception):
    """Raised for unloadable or malformed CSV input."""


class ColumnKind(enum.Enum):
    NUMERIC = "Numeric"
    MIXED_NUMERIC = "MixedNumeric"
    CATEGORICAL = "Categorical"
    BOOLEAN = "Boolean"


# Spanish survey data: si/sí alongside the usual english tokens.
BOOLEAN_TRUE = {"si", "sí", "yes", "true"}
BOOLEAN_FALSE = {"no", "false"}
BOOLEAN_LEXICON = BOOLEAN_TRUE | BOOLEAN_FALSE

# A numeric token: optional sign, digits, optional decimal part with "."
# or "," (decimal comma normalized to point).
_NUMBER = r"[+-]?(?:\d+(?:[.,]\d+)?|\.\d+)"
_FULL_NUMBER_RE = re.compile(rf"^{_NUMBER}$")
# First number embedded in free text; the comma/point only counts as a
# decimal separator when it sits between digits.
_EMBEDDED_NUMBER_RE = re.compile(r"[+-]?\d+(?:[.,]\d+)?")
LOAD_CHUNK_ROWS = 1024  # rows a load holds at once, so no GC pass walks every row


def is_number(cell: Cell) -> bool:
    return isinstance(cell, (int, float)) and not isinstance(cell, bool)


def extract_numeric(cell: Cell) -> Optional[float]:
    """Pull the first number out of a cell.

    Plain numbers pass through; booleans map to 1/0; for text the first
    embedded decimal number is returned ("1 - No le votaría nunca" -> 1.0,
    "+65" -> 65.0).  Missing passes through, and text with no digits
    yields missing.
    """
    if cell is None:
        return None
    if isinstance(cell, (int, float)):  # booleans too, as 1.0 and 0.0
        return float(cell)
    m = _EMBEDDED_NUMBER_RE.search(cell)
    return None if m is None else float(m.group(0).replace(",", "."))


def render_cell(cell: Cell) -> str:
    """Canonical text rendering: numbers without a trailing .0, booleans
    as true/false, missing as the empty string."""
    if isinstance(cell, str):
        return cell
    if cell is None:
        return ""
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, (int, float)):  # booleans were rendered above
        f = float(cell)
        if f.is_integer() and abs(f) < 1e15:
            return str(int(f))
        return repr(f)
    return cell


def _as_number(cell: Cell) -> Optional[float]:
    """A number, or a text that fully parses as one, as a float."""
    if isinstance(cell, str):
        text = cell.strip()
        return float(text.replace(",", ".")) if _FULL_NUMBER_RE.match(text) else None
    return float(cell) if is_number(cell) else None


def equal_to(value: Cell) -> Callable[[Cell], bool]:
    """The test `cell == value`, with `value` parsed once: numeric equality
    for numbers (including a number vs. a fully-numeric string), trimmed
    case-sensitive text otherwise; missing only equals missing."""
    number = _as_number(value)
    if number is not None:
        return lambda cell: _as_number(cell) == number
    if value is None or isinstance(value, bool):
        return lambda cell: cell is value
    text = str(value).strip()
    return lambda cell: (cell is not None and not isinstance(cell, bool)
                         and _as_number(cell) is None and str(cell).strip() == text)


def _classify(cells: Sequence[Cell], weights: Sequence[int]
              ) -> tuple[ColumnKind, tuple[Cell, ...], tuple[Optional[float], ...]]:
    """Kind inference and coercion, parsing each cell once, where each
    cell stands for `weights` rows: (kind, coerced cells, their numbers).
    Numeric when every non-missing cell is (or fully parses as) a number,
    Boolean when every one sits in the boolean lexicon, MixedNumeric when
    at least half the non-missing rows carry an extractable number, and
    Categorical otherwise, or when no cell is present."""
    present = [c for c in cells if c is not None]
    # With text cells only, one regex pass over them finds all-number or digit-free columns.
    texts = set(map(type, present)) <= {str}
    joined = "\n".join(present) if texts else ""
    if texts and joined.count("\n") == len(present) - 1 \
            and not re.search(rf"(?m)^(?!{_NUMBER}$)", joined):  # a line that is no number
        floats = map(float, joined.replace(",", ".").split("\n"))
        numbers = tuple(map(dict(zip(present, floats)).get, cells) if None in cells else floats)
        return ColumnKind.NUMERIC, numbers, numbers
    if None not in map(_as_number, present):  # every cell is missing or a number,
        numbers = tuple(map(_as_number, cells))  # which is then its own coercion
        return ColumnKind.NUMERIC if present else ColumnKind.CATEGORICAL, numbers, numbers

    if all(isinstance(c, bool) or (isinstance(c, str) and c.strip().lower() in BOOLEAN_LEXICON)
           for c in present):
        coerced = tuple(c if c is None or isinstance(c, bool) else c.strip().lower() in BOOLEAN_TRUE
                        for c in cells)
        return ColumnKind.BOOLEAN, coerced, tuple(map(extract_numeric, coerced))

    numbers = (None,) * len(cells) if texts and not re.search(r"\d", joined) \
        else tuple(map(extract_numeric, cells))
    # The majority is over rows, not over distinct cells.
    rows = sum(w for c, w in zip(cells, weights) if c is not None)
    extractable = sum(w for n, w in zip(numbers, weights) if n is not None)
    kind = ColumnKind.MIXED_NUMERIC if extractable * 2 >= rows else ColumnKind.CATEGORICAL
    return kind, tuple(cells), numbers


class Column:
    """A named, typed column: a root, or a row selection of a root (see
    the module docstring).  Equal by (name, kind, cells)."""

    def __init__(self, name: str, kind: ColumnKind, cells: Optional[Iterable[Cell]] = None, *,
                 root: Optional["Column"] = None, index: Optional[tuple[int, ...]] = None):
        self.name = name
        self.kind = kind
        self.root = root  # None on a root: pointing at itself would be a reference
        # cycle, which frees the loaded table only at a cyclic collection
        self.index = index
        self.fuzzy_matches: dict = {}
        if cells is not None:  # None on a loaded root, whose loader sets `uniques` and `codes`
            self.cells = tuple(cells)
            code_of = defaultdict(count().__next__)
            self.codes = tuple(map(code_of.__getitem__, zip(map(type, self.cells), self.cells)))
            self.uniques = tuple(c for _, c in code_of)

    @staticmethod
    def from_cells(name: str, cells: Iterable[Cell]) -> "Column":
        raw = list(cells)
        return Column(name, *_classify(raw, [1] * len(raw))[:2])

    def __len__(self) -> int:
        return len(self.codes if self.index is None else self.index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return (self.name, self.kind, self.cells) == (other.name, other.kind, other.cells)

    def __repr__(self) -> str:
        return f"Column(name={self.name!r}, kind={self.kind!r}, cells={self.cells!r})"

    @cached_property
    def cells(self) -> tuple[Cell, ...]:
        if self.root is None:  # a loaded root
            return tuple(map(self.uniques.__getitem__, self.codes))
        return tuple(map(self.root.cells.__getitem__, self.index))

    @cached_property
    def uniques(self) -> tuple[Cell, ...]:
        return self.root.uniques

    @cached_property
    def codes(self) -> tuple[int, ...]:
        return tuple(map(self.root.codes.__getitem__, self.index))

    @cached_property
    def unique_lowered(self) -> tuple[str, ...]:
        if self.root is not None:
            return self.root.unique_lowered
        return tuple(render_cell(c).lower() for c in self.uniques)

    @cached_property
    def unique_numbers(self) -> tuple[Optional[float], ...]:
        if self.root is not None:
            return self.root.unique_numbers
        return tuple(map(extract_numeric, self.uniques))

    @cached_property
    def counts(self) -> Counter:
        return Counter(self.codes)

    @cached_property
    def distinct(self) -> dict[str, tuple[Cell, int]]:
        out: dict[str, tuple[Cell, int]] = {}
        for code, n in self.counts.items():
            cell = self.uniques[code]
            if cell is None:
                continue
            key = render_cell(cell)
            first, count = out.get(key, (cell, 0))
            out[key] = (first, count + n)
        return out


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple[Column, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        lengths = {len(c) for c in self.columns}
        if len(lengths) > 1:
            raise TableError(f"ragged table {self.name!r}: column lengths {sorted(lengths)}")

    @property
    def row_count(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        for c in self.columns:
            if c.name == name:
                return c
        raise TableError(f"no column named {name!r}")

    def take_rows(self, indices: Sequence[int]) -> "Table":
        """The given rows, in the given order, as derived columns."""
        indices = tuple(indices)
        composed: dict[int, tuple[int, ...]] = {}  # one root index per source index
        cols = []
        for c in self.columns:
            key = id(c.index)
            if key not in composed:
                composed[key] = indices if c.index is None else tuple(map(c.index.__getitem__, indices))
            cols.append(Column(c.name, c.kind, root=c if c.root is None else c.root,
                               index=composed[key]))
        return Table(self.name, tuple(cols))


def _dedupe_names(names: list[str]) -> list[str]:
    out: dict[str, None] = {}
    for n in names:
        if n in out:
            n = next(m for k in count(2) if (m := f"{n}#{k}") not in out and m not in names)
        out[n] = None
    return list(out)


def load_csv(path: str) -> Table:
    """Load a UTF-8, comma-separated, double-quoted CSV with a header row
    into an immutable Table.

    Cell values are trimmed of surrounding whitespace and empty cells
    become missing.  Repeated header names get the first free #2, #3, ...
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            if (header := next(reader, None)) is None:
                raise TableError(f"empty CSV file {path!r}: no header row")
            width = len(header)
            code_of = [defaultdict(count().__next__) for _ in header]  # text -> code, first seen first
            codes: list[list[int]] = [[] for _ in header]
            for i, chunk in enumerate(iter(lambda: list(islice(reader, LOAD_CHUNK_ROWS)), [])):
                for n, row in enumerate(chunk, 2 + i * LOAD_CHUNK_ROWS):
                    if row and len(row) != width:
                        raise TableError(f"{path!r} row {n}: expected {width} fields, got {len(row)}")
                for col_codes, code, raw in zip(codes, code_of, zip(*filter(None, chunk))):
                    col_codes.extend(map(code.__getitem__, raw))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise TableError(f"cannot read {path!r}: {exc}") from exc

    name = path.rsplit("/", 1)[-1].removesuffix(".csv")
    header = _dedupe_names([h.strip() for h in header])
    return Table(name, tuple(map(_load_column, header, code_of, codes)))


def _load_column(name: str, code_of: dict[str, int], codes: list[int]) -> Column:
    """Strip and classify once per distinct raw text."""
    counts = Counter(codes)
    kind, uniques, numbers = _classify([text.strip() or None for text in code_of],
                                       list(counts.values()))
    col = Column(name, kind)
    col.uniques, col.unique_numbers, col.codes, col.counts = uniques, numbers, tuple(codes), counts
    return col
