import csv
import os
import random
import tempfile
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import random_table
from reference import (per_row_views, ref_cells_equal, ref_extract_numeric, ref_load_csv,
                       ref_render)
from tableqa import table_core
from tableqa.profiler import profile_table
from tableqa.table_core import (
    Column,
    ColumnKind,
    TableError,
    equal_to,
    extract_numeric,
    load_csv,
    render_cell,
)


# padded, equal-valued and boolean-cased texts, numbers with and without
# text, so that a column lands near the MixedNumeric line, a Unicode digit,
# and a number split by a newline, the separator of the one-pass kind check
_LOAD_TEXTS = ["1", "1.0", " 1 ", "1,5", "-0", "0", ".5", "+65", "Sí", "si", "SI", "no",
               "true", "", "  ", "a", " a", "10 - Le votaría siempre", "texto", "x;y",
               "\u0663", "1\n2"]


@st.composite
def csv_files(draw):
    width = draw(st.integers(1, 4))
    header = draw(st.lists(st.sampled_from(["a", "b", " a", "", "a#2"]),
                           min_size=width, max_size=width))
    pools = [draw(st.lists(st.sampled_from(_LOAD_TEXTS), min_size=1, max_size=3))
             for _ in range(width)]
    # blank rows ([]) are skipped, but still counted in row numbers
    rows = draw(st.lists(st.one_of(st.tuples(*(st.sampled_from(p) for p in pools)),
                                   st.just(())), max_size=12))
    return [header] + [list(r) for r in rows]


def _write_csv(tmp, rows):
    path = os.path.join(tmp, "t.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return path


@settings(max_examples=300, deadline=None)
@given(csv_files(), st.integers(1, 3))
def test_load_csv_matches_the_row_by_row_loader(rows, chunk_rows):
    def shape(t):
        return t.name, [(c.name, c.kind, [repr(x) for x in c.cells]) for c in t.columns]

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(table_core, "LOAD_CHUNK_ROWS", chunk_rows):
        path = _write_csv(tmp, rows)
        assert shape(load_csv(path)) == shape(ref_load_csv(path))


@pytest.mark.parametrize("chunk_rows", [1, 2, 3])
@pytest.mark.parametrize("bad_row", [2, 3, 5, 6, 7])
def test_ragged_row_after_a_chunk_reports_its_row_number(monkeypatch, tmp_path, chunk_rows, bad_row):
    monkeypatch.setattr(table_core, "LOAD_CHUNK_ROWS", chunk_rows)
    rows = [["a", "b"], ["1", "2"], [], ["3", "4"], ["5", "6"], [], ["7", "8"]]
    rows[bad_row - 1] = ["9", "9", "9"]
    with pytest.raises(TableError, match=f"row {bad_row}: expected 2 fields, got 3$"):
        load_csv(_write_csv(str(tmp_path), rows))


@pytest.mark.parametrize("tail", [b"\xff\xfe,1\n", b'"' + b"x" * 200_000 + b'",1\n'],
                         ids=["utf8", "csv"])
def test_unreadable_rows_after_a_chunk_fail_the_load(monkeypatch, tmp_path, tail):
    monkeypatch.setattr(table_core, "LOAD_CHUNK_ROWS", 2)
    path = tmp_path / "t.csv"
    path.write_bytes(b"a,b\n1,2\n3,4\n5,6\n" + tail + b"7,8\n")
    with pytest.raises(TableError, match="^cannot read"):
        load_csv(str(path))


# Unicode digits, padded numbers and boolean cases on top of _LOAD_TEXTS;
# a column may also draw from the missing texts alone.
_VIEW_TEXTS = _LOAD_TEXTS + ["\u0663", "\u0661\u0662", " \u0663 ", "1,5 kg", "S\u00cd", " no "]
_MISSING_TEXTS = ["", "  "]


@st.composite
def view_csv_files(draw):
    width = draw(st.integers(1, 4))
    pools = [draw(st.one_of(st.just(_MISSING_TEXTS),
                            st.lists(st.sampled_from(_VIEW_TEXTS), min_size=1, max_size=4)))
             for _ in range(width)]
    rows = draw(st.lists(st.tuples(*(st.sampled_from(p) for p in pools)), max_size=12))
    return [[f"c{i}" for i in range(width)]] + [list(r) for r in rows]


def _by_cell(col):
    """`counts` merged by cell, in first-seen order: a loaded column codes
    by raw text, so " a" and "a" are two codes of one cell."""
    merged = {}
    for code, n in col.counts.items():
        cell = col.uniques[code]
        merged[type(cell), cell] = merged.get((type(cell), cell), 0) + n
    return [(repr(cell), n) for (_, cell), n in merged.items()]


@settings(max_examples=300, deadline=None)
@given(view_csv_files())
@example([["c0", "c1"], ["0", ""], ["-0", "  "], [" 1 ", ""], ["1,5", ""]])
def test_load_time_views_match_a_column_rebuilt_from_the_cells(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)
        table = load_csv(path)
    loaded = {"counts", "unique_numbers"}
    assert all(loaded <= set(vars(col)) for col in table.columns)
    profile_table(table)
    for col in table.columns:
        rebuilt = Column(col.name, col.kind, col.cells)
        assert _by_cell(col) == _by_cell(rebuilt)
        assert sum(col.counts.values()) == len(col.cells)
        # per row, through the codes ("0" and "-0" are one code when rebuilt)
        assert [col.unique_numbers[c] for c in col.codes] == \
            [rebuilt.unique_numbers[c] for c in rebuilt.codes]
        assert [(k, repr(first), n) for k, (first, n) in col.distinct.items()] == \
            [(k, repr(first), n) for k, (first, n) in rebuilt.distinct.items()]


_EQUALITY_CELLS = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False),
    st.sampled_from(_VIEW_TEXTS + ["1", "01", "1.5", "-1", "Enero", " Enero"]))


@settings(max_examples=500)
@given(_EQUALITY_CELLS, _EQUALITY_CELLS)
def test_equal_to_matches_the_reference_equality(a, b):
    assert equal_to(b)(a) is ref_cells_equal(a, b)


class TestLoadCsv:
    def test_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n", encoding="utf-8")
        t = load_csv(str(path))
        assert t.column_names == ["a", "b"]
        assert t.row_count == 0

    def test_integer_table_shape(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3,4\n5,6\n", encoding="utf-8")
        t = load_csv(str(path))
        assert t.row_count == 3
        assert all(c.kind is ColumnKind.NUMERIC for c in t.columns)

    def test_mixed_numeric_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "voto\n5\n6\n7\n1 - No le votaría nunca\n10 - Le votaría siempre\n",
            encoding="utf-8")
        t = load_csv(str(path))
        assert t.columns[0].kind is ColumnKind.MIXED_NUMERIC

    def test_trims_and_missing(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('a,b\n"  x  ",\n', encoding="utf-8")
        t = load_csv(str(path))
        assert t.columns[0].cells == ("x",)
        assert t.columns[1].cells == (None,)

    def test_duplicate_headers_disambiguated(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,a,a\n1,2,3\n", encoding="utf-8")
        t = load_csv(str(path))
        assert t.column_names == ["a", "a#2", "a#3"]

    def test_duplicate_header_skips_a_suffix_the_file_holds(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,a,a#2,a\n1,2,3,4\n", encoding="utf-8")
        t = load_csv(str(path))
        assert t.column_names == ["a", "a#3", "a#2", "a#4"]
        assert t.column("a#2").cells == (3.0,)

    def test_ragged_row_reports_row_number(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n1,2,3\n", encoding="utf-8")
        with pytest.raises(TableError, match="row 3"):
            load_csv(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(TableError, match="no header"):
            load_csv(str(path))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(TableError):
            load_csv(str(tmp_path / "does_not_exist.csv"))


def infer_column_kind(cells):
    return Column.from_cells("c", cells).kind


class TestInferColumnKind:
    def test_numeric(self):
        assert infer_column_kind(["1", "2", "3"]) is ColumnKind.NUMERIC

    def test_categorical_months(self):
        assert infer_column_kind(["Enero", "Febrero", "Marzo"]) is ColumnKind.CATEGORICAL

    def test_mixed(self):
        assert infer_column_kind(["5", "10 - Le votaría siempre"]) is ColumnKind.MIXED_NUMERIC

    def test_boolean_lexicon(self):
        assert infer_column_kind(["Sí", "no", "sí"]) is ColumnKind.BOOLEAN

    def test_zero_one_column_is_numeric(self):
        assert infer_column_kind(["0", "1", "0"]) is ColumnKind.NUMERIC

    def test_empty_and_all_missing(self):
        assert infer_column_kind([]) is ColumnKind.CATEGORICAL
        assert infer_column_kind([None, None]) is ColumnKind.CATEGORICAL

    def test_decimal_comma_is_numeric(self):
        assert infer_column_kind(["3,5", "2.5"]) is ColumnKind.NUMERIC

    @given(st.lists(st.sampled_from(
        ["1", "2", "Enero", "sí", "no", "10 - Le votaría siempre", None, "abc"]),
        max_size=12))
    def test_permutation_invariant(self, cells):
        rng = random.Random(0)
        shuffled = list(cells)
        rng.shuffle(shuffled)
        assert infer_column_kind(cells) is infer_column_kind(shuffled)


class TestExtractNumeric:
    @pytest.mark.parametrize("cell,expected", [
        ("1 - No le votaría nunca", 1.0),
        ("abc", None),
        ("+65", 65.0),
        (42, 42.0),
        ("3,5 puntos", 3.5),
        ("18-24", 18.0),
        (None, None),
        ("", None),
    ])
    def test_examples(self, cell, expected):
        assert extract_numeric(cell) == expected

    @given(st.one_of(
        st.none(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(alphabet=st.characters(max_codepoint=0x2FF), max_size=20)))
    def test_matches_reference(self, cell):
        assert extract_numeric(cell) == ref_extract_numeric(cell)

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_idempotent_on_rendering(self, x):
        # Large/tiny magnitudes render in scientific notation, which is
        # outside the embedded-number grammar; skip those.
        assume(x == 0 or 1e-4 <= abs(x) <= 1e15)
        extracted = extract_numeric(x)
        assert extract_numeric(render_cell(extracted)) == extracted


def test_table_is_immutable(survey_table):
    from tableqa import tablefns
    before = [c.cells for c in survey_table.columns]
    tablefns.sort_alphabetical(survey_table, "Partido")
    tablefns.filter_contains(survey_table, "Mes de realización", "enero")
    assert [c.cells for c in survey_table.columns] == before


# ---------------------------------------------------------------------------
# lazy per-column views


def _fresh_views(cells):
    """`distinct` and the per-row lowered renderings and numbers,
    recomputed row by row, without any memo."""
    distinct = {}
    for c in cells:
        if c is not None:
            first, count = distinct.get(ref_render(c), (c, 0))
            distinct[ref_render(c)] = (first, count + 1)
    lowered = tuple(ref_render(c).lower() for c in cells)
    numbers = tuple(ref_extract_numeric(c) for c in cells)
    return distinct, lowered, numbers


class TestColumnViews:
    def test_typed_cells_stay_apart(self):
        col = Column("c", ColumnKind.CATEGORICAL, (True, 1.0, "1"))
        assert per_row_views(col) == (("true", "1", "1"), (1.0, 1.0, 1.0))
        assert col.distinct == {"true": (True, 1), "1": (1.0, 2)}
        assert col.distinct["1"][0] is col.cells[1]

    def test_equal_cells_share_one_derived_object(self):
        col = Column("c", ColumnKind.CATEGORICAL, ("Ab", None, "Ab", "Ab"))
        assert per_row_views(col)[0] == ("ab", "", "ab", "ab")
        assert col.codes[0] == col.codes[2] == col.codes[3]
        assert len(col.unique_lowered) == 2
        assert col.distinct == {"Ab": ("Ab", 3)}

    def test_first_seen_order_and_first_cell(self):
        col = Column("c", ColumnKind.CATEGORICAL, ("b", 2.0, "a", "2", "b", None))
        assert list(col.distinct.items()) == [
            ("b", ("b", 2)), ("2", (2.0, 2)), ("a", ("a", 1))]

    def test_load_computes_no_view(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\nx,1\ny,2\n", encoding="utf-8")
        t = load_csv(str(path))
        for col in t.columns:
            assert not {"distinct", "unique_lowered", "cells"} & set(vars(col))
        profile_table(t)
        assert t.row_count == 2
        assert not any("cells" in vars(col) for col in t.columns)
        assert t.columns[0].cells == ("x", "y")  # built on first read

    def test_take_rows_views_match_fresh_recomputation(self):
        rng = random.Random(11)
        for _ in range(200):
            t = random_table(rng, max_rows=30)
            for col in t.columns:  # fill the parent's views first
                col.distinct, col.unique_lowered, col.unique_numbers
            indices = [rng.randrange(t.row_count) for _ in range(rng.randint(0, 40))] \
                if t.row_count else []
            for col in t.take_rows(indices).columns:
                assert (col.distinct, *per_row_views(col)) == _fresh_views(col.cells)
