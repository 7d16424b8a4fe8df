"""Immutable columnar table model: CSV loading, column-kind inference,
missing-value handling, and numeric extraction from mixed-type cells.

A cell is one of: a number (float), a boolean, a text string, or None
(missing).  Missing is distinct from the empty string and from 0.
Tables are never mutated after load; every transforming operation
returns a new Table.

Because a Column never changes, per-cell work done for it can be kept on
it.  Three lazy views are computed on first use and then shared by every
caller of that Column (one loaded table serves all the questions and
repetitions of an ensemble):

- `distinct`: rendering -> (first cell, count) over the non-missing
  cells, in first-seen order;
- `lowered`: the lowercased rendering of each row ("" for missing);
- `numbers`: `extract_numeric` of each row.

A view derives each distinct cell once, keyed by `(type(c), c)`: equal
cells share one derived object, so a per-row view costs one pointer per
row, and True, 1 and 1.0 are still derived apart.  Loading computes no
view.
"""

from __future__ import annotations

import csv
import enum
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
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

# A full numeric token: optional sign, digits, optional decimal part with
# "." or "," (decimal comma normalized to point).
_FULL_NUMBER_RE = re.compile(r"^[+-]?(?:\d+(?:[.,]\d+)?|\.\d+)$")
# First number embedded in free text; the comma/point only counts as a
# decimal separator when it sits between digits.
_EMBEDDED_NUMBER_RE = re.compile(r"[+-]?\d+(?:[.,]\d+)?")


def is_number(cell: Cell) -> bool:
    return isinstance(cell, (int, float)) and not isinstance(cell, bool)


def parse_full_number(text: str) -> Optional[float]:
    """Parse `text` as a complete number, or None if it is not one."""
    text = text.strip()
    if not _FULL_NUMBER_RE.match(text):
        return None
    return float(text.replace(",", "."))


def extract_numeric(cell: Cell) -> Optional[float]:
    """Pull the first number out of a cell.

    Plain numbers pass through; booleans map to 1/0; for text the first
    embedded decimal number is returned ("1 - No le votaría nunca" -> 1.0,
    "+65" -> 65.0).  Missing passes through, and text with no digits
    yields missing.
    """
    if cell is None:
        return None
    if isinstance(cell, bool):
        return 1.0 if cell else 0.0
    if is_number(cell):
        return float(cell)
    m = _EMBEDDED_NUMBER_RE.search(cell)
    if m is None:
        return None
    return float(m.group(0).replace(",", "."))


def render_cell(cell: Cell) -> str:
    """Canonical text rendering: numbers without a trailing .0, booleans
    as true/false, missing as the empty string."""
    if cell is None:
        return ""
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if is_number(cell):
        f = float(cell)
        if f.is_integer() and abs(f) < 1e15:
            return str(int(f))
        return repr(f)
    return cell


def cells_equal(a: Cell, b: Cell) -> bool:
    """Exact cell equality: numeric equality for numbers (including a
    number vs. a fully-numeric string), trimmed case-sensitive text
    otherwise; missing only equals missing."""
    if a is None or b is None:
        return a is None and b is None
    na = float(a) if is_number(a) else (parse_full_number(a) if isinstance(a, str) else None)
    nb = float(b) if is_number(b) else (parse_full_number(b) if isinstance(b, str) else None)
    if na is not None and nb is not None:
        return na == nb
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if na is not None or nb is not None:
        return False
    return str(a).strip() == str(b).strip()


def infer_column_kind(cells: Sequence[Cell]) -> ColumnKind:
    """Deterministic kind inference over a cell list.

    Numeric when every non-missing cell is (or fully parses as) a number;
    Boolean when every non-missing cell sits in the boolean lexicon;
    MixedNumeric when at least half the non-missing cells carry an
    extractable number but not all parse fully; Categorical otherwise.
    Empty or all-missing columns are Categorical.
    """
    present = [c for c in cells if c is not None]
    if not present:
        return ColumnKind.CATEGORICAL

    def fully_numeric(c: Cell) -> bool:
        if isinstance(c, bool):
            return False
        if is_number(c):
            return True
        return isinstance(c, str) and parse_full_number(c) is not None

    if all(fully_numeric(c) for c in present):
        return ColumnKind.NUMERIC

    def boolean_token(c: Cell) -> bool:
        if isinstance(c, bool):
            return True
        return isinstance(c, str) and c.strip().lower() in BOOLEAN_LEXICON

    if all(boolean_token(c) for c in present):
        return ColumnKind.BOOLEAN

    extractable = sum(1 for c in present if extract_numeric(c) is not None)
    if extractable * 2 >= len(present):
        return ColumnKind.MIXED_NUMERIC
    return ColumnKind.CATEGORICAL


def _coerce_cells(cells: list[Cell], kind: ColumnKind) -> list[Cell]:
    if kind is ColumnKind.NUMERIC:
        return [None if c is None else parse_full_number(c) if isinstance(c, str) else float(c)
                for c in cells]
    if kind is ColumnKind.BOOLEAN:
        out: list[Cell] = []
        for c in cells:
            if c is None or isinstance(c, bool):
                out.append(c)
            else:
                out.append(str(c).strip().lower() in BOOLEAN_TRUE)
        return out
    return cells


def map_cells(cells: Sequence[Cell], fn: Callable[[Cell], object]) -> tuple:
    """`fn` of each cell, calling `fn` once per distinct (type, cell)."""
    keys = list(zip(map(type, cells), cells))
    derived = {key: fn(key[1]) for key in dict.fromkeys(keys)}
    return tuple(map(derived.__getitem__, keys))


def distinct_cells(cells: Sequence[Cell]) -> dict[str, tuple[Cell, int]]:
    """Rendering -> (first cell, count) over the non-missing cells, in
    first-seen order."""
    out: dict[str, tuple[Cell, int]] = {}
    for (_, cell), n in Counter(zip(map(type, cells), cells)).items():
        if cell is None:
            continue
        key = render_cell(cell)
        first, count = out.get(key, (cell, 0))
        out[key] = (first, count + n)
    return out


@dataclass(frozen=True)
class Column:
    name: str
    kind: ColumnKind
    cells: tuple[Cell, ...]

    @staticmethod
    def from_cells(name: str, cells: Iterable[Cell]) -> "Column":
        raw = list(cells)
        kind = infer_column_kind(raw)
        return Column(name, kind, tuple(_coerce_cells(raw, kind)))

    @cached_property
    def distinct(self) -> dict[str, tuple[Cell, int]]:
        return distinct_cells(self.cells)

    @cached_property
    def lowered(self) -> tuple[str, ...]:
        return map_cells(self.cells, lambda c: render_cell(c).lower())

    @cached_property
    def numbers(self) -> tuple[Optional[float], ...]:
        return map_cells(self.cells, extract_numeric)


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple[Column, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        lengths = {len(c.cells) for c in self.columns}
        if len(lengths) > 1:
            raise TableError(f"ragged table {self.name!r}: column lengths {sorted(lengths)}")

    @property
    def row_count(self) -> int:
        return len(self.columns[0].cells) if self.columns else 0

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        for c in self.columns:
            if c.name == name:
                return c
        raise TableError(f"no column named {name!r}")

    def take_rows(self, indices: Sequence[int]) -> "Table":
        cols = tuple(
            Column(c.name, c.kind, tuple(map(c.cells.__getitem__, indices)))
            for c in self.columns
        )
        return Table(self.name, cols)

    def row(self, i: int) -> list[Cell]:
        return [c.cells[i] for c in self.columns]


@dataclass(frozen=True)
class LoadOptions:
    delimiter: str = ","
    quotechar: str = '"'
    encoding: str = "utf-8"


def _dedupe_names(names: list[str]) -> list[str]:
    seen: dict[str, int] = {}
    out = []
    for n in names:
        if n in seen:
            seen[n] += 1
            out.append(f"{n}#{seen[n]}")
        else:
            seen[n] = 1
            out.append(n)
    return out


def load_csv(path: str, options: LoadOptions = LoadOptions()) -> Table:
    """Load a UTF-8 CSV with a header row into an immutable Table.

    Cell values are trimmed of surrounding whitespace and empty cells
    become missing.  Duplicate header names get #2, #3, ... suffixes.
    """
    try:
        with open(path, encoding=options.encoding, newline="") as fh:
            reader = csv.reader(fh, delimiter=options.delimiter,
                                quotechar=options.quotechar)
            rows = list(reader)
    except OSError as exc:
        raise TableError(f"cannot read {path!r}: {exc}") from exc
    if not rows:
        raise TableError(f"empty CSV file {path!r}: no header row")

    header = _dedupe_names([h.strip() for h in rows[0]])
    width = len(header)
    data: list[list[Cell]] = [[] for _ in header]
    for rownum, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != width:
            raise TableError(
                f"{path!r} row {rownum}: expected {width} fields, got {len(row)}")
        for i, raw in enumerate(row):
            value = raw.strip()
            data[i].append(value if value != "" else None)

    name = path.rsplit("/", 1)[-1]
    if name.endswith(".csv"):
        name = name[:-4]
    columns = tuple(Column.from_cells(h, cells) for h, cells in zip(header, data))
    return Table(name, columns)


def write_csv(table: Table, path: str, options: LoadOptions = LoadOptions()) -> None:
    """Write a table back to CSV (missing cells as empty fields)."""
    with open(path, "w", encoding=options.encoding, newline="") as fh:
        writer = csv.writer(fh, delimiter=options.delimiter,
                            quotechar=options.quotechar)
        writer.writerow(table.column_names)
        for i in range(table.row_count):
            writer.writerow([render_cell(c) for c in table.row(i)])
