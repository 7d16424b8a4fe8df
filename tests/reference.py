"""Independent naive reference implementations used as oracles.

Everything here is written against the documented semantics, not against
the library code: tables are plain lists of row dicts, string distances
use difflib / a textbook DP, and number extraction is a simple character
scan.  Agreement between these and the real implementations is what the
randomized tests assert.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter

from tableqa.planlang import Call, Plan, Ref
from tableqa.table_core import Column, ColumnKind, Table


# ---------------------------------------------------------------------------
# scalar helpers

def ref_render(cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, (int, float)):
        f = float(cell)
        return str(int(f)) if f.is_integer() and abs(f) < 1e15 else repr(f)
    return cell


def ref_extract_numeric(cell):
    """Character-scan extraction of the first number in a cell."""
    if cell is None:
        return None
    if isinstance(cell, bool):
        return 1.0 if cell else 0.0
    if isinstance(cell, (int, float)):
        return float(cell)
    text = cell
    i = 0
    while i < len(text):
        if text[i].isdecimal() or (text[i] in "+-" and i + 1 < len(text) and text[i + 1].isdecimal()):
            j = i
            if text[j] in "+-":
                j += 1
            while j < len(text) and text[j].isdecimal():
                j += 1
            if j < len(text) and text[j] in ".," and j + 1 < len(text) and text[j + 1].isdecimal():
                j += 1
                while j < len(text) and text[j].isdecimal():
                    j += 1
            return float(text[i:j].replace(",", "."))
        i += 1
    return None


def ref_indel_distance(a: str, b: str) -> int:
    """Full-matrix edit distance with insert/delete cost 1 and
    substitution cost 2 (so substitutions never beat indel pairs)."""
    dp = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        dp[i][0] = i
    for j in range(len(b) + 1):
        dp[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            dp[i][j] = min(
                dp[i - 1][j] + 1,
                dp[i][j - 1] + 1,
                dp[i - 1][j - 1] + (0 if a[i - 1] == b[j - 1] else 2),
            )
    return dp[len(a)][len(b)]


def ref_similarity(a: str, b: str) -> float:
    if not a and not b:
        return 100.0
    return 100.0 * (1.0 - ref_indel_distance(a, b) / (len(a) + len(b)))


def ref_levenshtein(a: str, b: str) -> int:
    dp = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        dp[i][0] = i
    for j in range(len(b) + 1):
        dp[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            dp[i][j] = min(dp[i - 1][j] + 1, dp[i][j - 1] + 1,
                           dp[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return dp[len(a)][len(b)]


def ref_correct_name(name, candidates):
    """Exhaustive argmin over (Levenshtein distance, candidate index); an
    exact match passes through."""
    if name in candidates:
        return name
    return min(enumerate(candidates),
               key=lambda ic: (ref_levenshtein(name, ic[1]), ic[0]))[1]


def ref_best_fuzzy_match(values, target, threshold):
    """Exhaustive argmax over the deduplicated values."""
    seen = set()
    best, best_score = None, -1.0
    for v in values:
        if v is None:
            continue
        key = ref_render(v)
        if key in seen:
            continue
        seen.add(key)
        s = ref_similarity(key.lower(), target.lower())
        if s > best_score:
            best, best_score = v, s
    return best if best is not None and best_score >= threshold else None


def ref_cells_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b

    def as_num(x):
        if isinstance(x, (int, float)):
            return float(x)
        if isinstance(x, str):
            s = x.strip().replace(",", ".", 1)
            try:
                return float(s)
            except ValueError:
                return None
        return None

    na, nb = as_num(a), as_num(b)
    if na is not None and nb is not None:
        return na == nb
    if (na is None) != (nb is None):
        return False
    return str(a).strip() == str(b).strip()


# ---------------------------------------------------------------------------
# the row-by-row CSV loader

_REF_TRUE = ("si", "sí", "yes", "true")
_REF_FALSE = ("no", "false")


def ref_full_number(text):
    """`text` as a complete number ("1", "-2", "1,5", ".5"), else None."""
    body = text.strip()
    digits = body[1:] if body[:1] in ("+", "-") else body
    if digits.startswith("."):
        ok = digits[1:].isdecimal()
    else:
        head, sep, tail = digits.replace(",", ".", 1).partition(".")
        ok = head.isdecimal() and (not sep or tail.isdecimal())
    return float(body.replace(",", ".")) if ok else None


def ref_infer_kind(cells):
    """The kind rules, applied cell by cell."""
    present = [c for c in cells if c is not None]
    if not present:
        return ColumnKind.CATEGORICAL
    if all(ref_full_number(c) is not None for c in present):
        return ColumnKind.NUMERIC
    if all(c.lower() in _REF_TRUE + _REF_FALSE for c in present):
        return ColumnKind.BOOLEAN
    extractable = [c for c in present if ref_extract_numeric(c) is not None]
    if 2 * len(extractable) >= len(present):
        return ColumnKind.MIXED_NUMERIC
    return ColumnKind.CATEGORICAL


def ref_load_csv(path) -> Table:
    """Read every row, strip every cell, then infer and coerce each column
    cell by cell."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, seen = [], Counter()
    for h in (h.strip() for h in rows[0]):
        seen[h] += 1
        header.append(h if seen[h] == 1 else f"{h}#{seen[h]}")
    data = [[] for _ in header]
    for row in rows[1:]:
        for i, raw in enumerate(row):
            data[i].append(raw.strip() or None)
    columns = []
    for name, cells in zip(header, data):
        kind = ref_infer_kind(cells)
        if kind is ColumnKind.NUMERIC:
            cells = [None if c is None else ref_full_number(c) for c in cells]
        elif kind is ColumnKind.BOOLEAN:
            cells = [None if c is None else c.lower() in _REF_TRUE for c in cells]
        columns.append(Column(name, kind, cells))
    stem = path.rsplit("/", 1)[-1]
    return Table(stem[:-4] if stem.endswith(".csv") else stem, tuple(columns))


# ---------------------------------------------------------------------------
# row-dict view of a table

def rows_of(t: Table) -> list[dict]:
    return [{c.name: c.cells[i] for c in t.columns} for i in range(t.row_count)]


def per_row_views(col) -> tuple[tuple, tuple]:
    """The column's per-row lowered renderings and numbers, gathered from
    its per-unique views through `codes`."""
    return (tuple(col.unique_lowered[c] for c in col.codes),
            tuple(col.unique_numbers[c] for c in col.codes))


def table_equals_rows(t: Table, rows: list[dict]) -> bool:
    return rows_of(t) == rows


def kind_of(t: Table, column: str) -> ColumnKind:
    return t.column(column).kind


# ---------------------------------------------------------------------------
# naive operations (column name assumed already exact)

def ref_flatten(rows, column):
    out = []
    for row in rows:
        cell = row[column]
        parts = [cell]
        if isinstance(cell, str):
            for d in (";", ",", "|"):
                if d in cell:
                    parts = [p.strip() or None for p in cell.split(d)]
                    break
        for p in parts:
            new = dict(row)
            new[column] = p
            out.append(new)
    return out


def ref_top_n(rows, column, n, end):
    present = [r for r in rows if r[column] is not None]
    return present[:n] if end == "head" else present[len(present) - min(n, len(present)):]


def ref_delete_rows(rows, column, value):
    return [r for r in rows if not ref_cells_equal(r[column], value)]


def ref_sort_alpha(rows, column):
    return sorted(rows, key=lambda r: (r[column] is None, ref_render(r[column]).lower()))


def ref_filter_numeric(rows, column, cmp, value):
    ops = {"le": lambda x: x <= value, "lt": lambda x: x < value,
           "ge": lambda x: x >= value, "gt": lambda x: x > value}
    out = []
    for r in rows:
        x = ref_extract_numeric(r[column])
        if x is not None and ops[cmp](x):
            out.append(r)
    return out


def ref_round1(rows, column, value):
    needle = ref_render(value).strip().lower()
    return [r for r in rows
            if r[column] is not None and needle in ref_render(r[column]).lower()]


def ref_filter_contains(rows, column, value, kind, threshold=75):
    hit = ref_round1(rows, column, value)
    if hit:
        return hit
    textual = kind in (ColumnKind.CATEGORICAL, ColumnKind.MIXED_NUMERIC)
    if textual and isinstance(value, str) and value != "":
        match = ref_best_fuzzy_match([r[column] for r in rows], value, threshold)
        if match is not None:
            fuzzy = [r for r in rows if ref_cells_equal(r[column], match)]
            if fuzzy:
                return fuzzy
    return hit


def ref_filter_not_contains(rows, column, value):
    hit = {id(r) for r in ref_round1(rows, column, value)}
    return [r for r in rows if id(r) not in hit]


def ref_count_equal(rows, column, value):
    return sum(1 for r in rows if ref_cells_equal(r[column], value))


def ref_most_frequent(rows, column, n=None):
    keys = [ref_render(r[column]) for r in rows if r[column] is not None]
    if not keys:
        raise ValueError("no values")
    counts = Counter(keys)
    order = list(dict.fromkeys(keys))
    ranked = sorted(order, key=lambda k: -counts[k])
    first = {}
    for r in rows:
        if r[column] is not None:
            first.setdefault(ref_render(r[column]), r[column])
    if n is None:
        return first[ranked[0]]
    return [first[k] for k in ranked[:n]]


# ---------------------------------------------------------------------------
# answer scoring and the ensemble vote

def ref_compare_answers(pred, gold):
    """The README's scoring rules, type by type."""
    if pred.type != gold.type:
        return False

    def fold(text):
        return text.strip().lower()

    def matches(p, g, kind):
        if kind == "Boolean":
            return p == g
        if kind == "Number":
            return p == g or (math.isfinite(g) and abs(p - g) <= max(1e-9, 1e-6 * abs(g)))
        return fold(p) == fold(g)

    kind = gold.type.value
    if not kind.startswith("List["):
        return matches(pred.value, gold.value, kind)
    element = kind[len("List["):-1]
    key = fold if element == "Category" else None
    p, g = sorted(pred.value, key=key), sorted(gold.value, key=key)
    return len(p) == len(g) and all(matches(a, b, element) for a, b in zip(p, g))


def ref_vote_form(answer):
    """What the scorer tells apart: the type, and a Category text
    stripped and lower-cased, a list as the multiset of its elements'
    forms, a Number or Boolean as its exact value."""
    def form(v):
        return v.strip().lower() if isinstance(v, str) else v

    if isinstance(answer.value, list):
        return answer.type.value, Counter(map(form, answer.value))
    return answer.type.value, form(answer.value)


def ref_vote(records, sentinels):
    """Brute force: keep runs with an answer none of whose texts is a
    sentinel, count for each kept run the kept runs of equal form, and
    among the most counted pick the one seen at the lowest repetition;
    None with no run kept."""
    def texts(answer):
        values = answer.value if isinstance(answer.value, list) else [answer.value]
        return [v if isinstance(v, str) else ref_render(v) for v in values]

    kept = [r for r in records
            if r.answer is not None and not set(texts(r.answer)) & set(sentinels)]
    if not kept:
        return None
    forms = {r.repetition: ref_vote_form(r.answer) for r in kept}
    counts = {rep: sum(f == g for g in forms.values()) for rep, f in forms.items()}
    top = max(counts.values())
    earliest = min(rep for rep, n in counts.items() if n == top)
    return next(r.answer for r in kept if r.repetition == earliest)


# ---------------------------------------------------------------------------
# plan printer

def render_plan(plan: Plan) -> str:
    """Canonical text; parse_plan(render_plan(p)) structurally equals p."""
    lines = [f"{name} = {_render_expr(expr)}" for name, expr in plan.bindings]
    lines.append(f"answer = {_render_expr(plan.answer)}")
    return "\n".join(lines)


def _render_expr(expr) -> str:
    if isinstance(expr, Ref):
        return expr.name
    if isinstance(expr, Call):
        return f"{expr.fn}({', '.join(_render_expr(a) for a in expr.args)})"
    value = expr.value
    if isinstance(value, tuple):
        return "[" + ", ".join(_render_literal(v) for v in value) + "]"
    return _render_literal(value)


def _render_literal(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        f = float(value)
        return str(int(f)) if f.is_integer() else repr(f).replace("inf", "1e999")
    return json.dumps(str(value), ensure_ascii=False)  # escapes as Python reads them
