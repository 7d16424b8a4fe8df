import operator
import random

import pytest

import reference as ref
from conftest import random_table
from tableqa import tablefns
from tableqa.table_core import Column, ColumnKind, Table
from tableqa.tablefns import NO_MATCHING_RECORDS, TableFnError


def one_col(name, cells):
    return Table("t", (Column.from_cells(name, cells),))


def col_values(t, name):
    return list(t.column(name).cells)


class TestFlattenColumnValues:
    def test_semicolon_split(self):
        t = one_col("c", ["a;b"])
        out = tablefns.flatten_column_values(t, "c")
        assert col_values(out, "c") == ["a", "b"]

    def test_unsplit_cells_are_kept_as_they_are(self):
        t = Table("t", (Column("c", ColumnKind.NUMERIC, (-0.0, 0.0, -0.0)),))
        out = tablefns.flatten_column_values(t, "c")
        assert [repr(c) for c in col_values(out, "c")] == ["-0.0", "0.0", "-0.0"]

    def test_no_delimiters_noop(self, survey_table):
        out = tablefns.flatten_column_values(survey_table, "Mes de realización")
        assert ref.rows_of(out) == ref.rows_of(survey_table)

    def test_empty_table(self):
        t = one_col("c", [])
        assert tablefns.flatten_column_values(t, "c").row_count == 0

    def test_other_columns_duplicated(self):
        t = Table("t", (Column.from_cells("c", ["x,y"]),
                        Column.from_cells("d", ["keep"])))
        out = tablefns.flatten_column_values(t, "c")
        assert col_values(out, "d") == ["keep", "keep"]

    def test_row_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(tablefns, "PLAN_ROW_BUDGET", 5)
        assert tablefns.flatten_column_values(one_col("c", ["a;b", "x", "p|q"]), "c").row_count == 5
        with pytest.raises(TableFnError, match="^would build 6 rows, over the budget of 5 rows$"):
            tablefns.flatten_column_values(one_col("c", ["a;b", "x,y", "p|q"]), "c")


class TestTopN:
    def test_head_skips_missing(self):
        t = one_col("c", ["a", None, "b", None, "c"])
        out = tablefns.top_n_non_missing(t, "c", 2)
        assert col_values(out, "c") == ["a", "b"]

    def test_n_zero(self, survey_table):
        assert tablefns.top_n_non_missing(survey_table, "Edad", 0).row_count == 0

    def test_n_larger_than_rows(self):
        t = one_col("c", ["a", None, "b"])
        out = tablefns.top_n_non_missing(t, "c", 10, tail=True)
        assert col_values(out, "c") == ["a", "b"]


class TestDeleteRows:
    def test_removes_matches(self):
        t = one_col("c", ["A", "B", "A"])
        out = tablefns.delete_rows_by_column_value(t, "c", "A")
        assert col_values(out, "c") == ["B"]

    def test_value_absent(self):
        t = one_col("c", ["A", "B"])
        out = tablefns.delete_rows_by_column_value(t, "c", "Z")
        assert col_values(out, "c") == ["A", "B"]

    def test_missing_value(self):
        t = one_col("c", ["A", None])
        out = tablefns.delete_rows_by_column_value(t, "c", None)
        assert col_values(out, "c") == ["A"]


class TestSortAlphabetical:
    def test_case_insensitive(self):
        t = one_col("c", ["b", "A", "c"])
        assert col_values(tablefns.sort_alphabetical(t, "c"), "c") == ["A", "b", "c"]

    def test_stability(self):
        t = Table("t", (Column.from_cells("c", ["a", "a"]),
                        Column.from_cells("tag", ["first", "second"])))
        out = tablefns.sort_alphabetical(t, "c")
        assert col_values(out, "tag") == ["first", "second"]

    def test_missing_last(self):
        t = one_col("c", [None, "a"])
        assert col_values(tablefns.sort_alphabetical(t, "c"), "c") == ["a", None]


class TestFilterNumeric:
    def test_ge(self):
        t = one_col("Edad", ["18", "25", "70"])
        out = tablefns.filter_numeric(t, "Edad", operator.ge, 65)
        assert col_values(out, "Edad") == [70.0]

    def test_mixed_column(self):
        t = one_col("v", ["5", "10 - Le votaría siempre"])
        out = tablefns.filter_numeric(t, "v", operator.ge, 6)
        assert col_values(out, "v") == ["10 - Le votaría siempre"]

    def test_below_min_empty(self):
        t = one_col("v", ["5", "6"])
        assert tablefns.filter_numeric(t, "v", operator.lt, 0).row_count == 0

    def test_fully_non_numeric_errors(self):
        t = one_col("v", ["abc", "def"])
        with pytest.raises(TableFnError, match="non-numeric"):
            tablefns.filter_numeric(t, "v", operator.ge, 1)


class TestFilterContains:
    def test_case_insensitive_contains(self):
        t = one_col("Mes", ["Enero", "Febrero"])
        out = tablefns.filter_contains(t, "Mes", "enero")
        assert col_values(out, "Mes") == ["Enero"]

    def test_fuzzy_round(self):
        t = one_col("p", ["Partido Popular"])
        out = tablefns.filter_contains(t, "p", "Partido Populer")
        assert col_values(out, "p") == ["Partido Popular"]

    def test_no_match_either_round(self):
        t = one_col("c", ["a", "b"])
        assert tablefns.filter_contains(t, "c", "zzz").row_count == 0

    def test_fuzzy_round_is_memoised_on_the_column(self, monkeypatch):
        calls = []

        def counting(values, target, threshold):
            calls.append((target, threshold))
            return best_fuzzy_match(values, target, threshold)

        best_fuzzy_match = tablefns.best_fuzzy_match
        monkeypatch.setattr(tablefns, "best_fuzzy_match", counting)
        t = one_col("p", ["Partido Popular", "Vox", "Partido Popular"])
        fresh = tablefns.filter_contains(t, "p", "Partido Populer")
        memoised = tablefns.filter_contains(t, "p", "Partido Populer")
        assert ref.rows_of(memoised) == ref.rows_of(fresh) == [{"p": "Partido Popular"}] * 2
        assert calls == [("Partido Populer", 75)]
        assert t.columns[0].fuzzy_matches == {("Partido Populer", 75): "Partido Popular"}
        # A derived column has its own memo.
        derived = t.take_rows([1, 2])
        assert ref.rows_of(tablefns.filter_contains(derived, "p", "Partido Populer")) == \
            [{"p": "Partido Popular"}]
        assert len(calls) == 2 and derived.columns[0].fuzzy_matches is not t.columns[0].fuzzy_matches

    def test_column_name_corrected(self, survey_table):
        out = tablefns.filter_contains(survey_table, "Mes de realizacion", "Enero")
        assert out.row_count == 3


class TestFilterNotContains:
    def test_complement(self):
        t = one_col("c", ["Enero", "Otro"])
        assert col_values(tablefns.filter_not_contains(t, "c", "enero"), "c") == ["Otro"]

    def test_value_absent(self):
        t = one_col("c", ["a", "b"])
        assert tablefns.filter_not_contains(t, "c", "z").row_count == 2

    def test_partitions_with_contains_round1(self):
        t = one_col("c", ["Enero", "enero viejo", "Otro", None])
        inside = tablefns.filter_contains(t, "c", "enero").row_count
        outside = tablefns.filter_not_contains(t, "c", "enero").row_count
        assert inside + outside == t.row_count


class TestCounts:
    def test_exists_value(self):
        t = one_col("c", ["Enero"])
        assert tablefns.exists_value(t, "c", "enero") is True
        assert tablefns.exists_value(one_col("c", []), "c", "x") is False

    def test_count_equal_case_sensitive(self):
        t = one_col("c", ["Enero", "Enero", "Febrero"])
        assert tablefns.count_equal(t, "c", "Enero") == 2
        assert tablefns.count_equal(t, "c", "enero") == 0
        assert tablefns.count_equal(t, "c", "absent") == 0

    def test_count_containing(self):
        t = one_col("c", ["Enero", "enero viejo"])
        assert tablefns.count_containing(t, "c", "enero") == 2
        assert tablefns.count_containing(one_col("c", []), "c", "x") == 0


class TestTypedCells:
    """Cells that compare or hash equal across types: True, 1.0 and "1"."""

    VALUES = [True, False, 1.0, 1, "1", "1.0", " 1 ", "true", "True", None, 2.0]

    def table(self):
        return Table("t", (Column("c", ColumnKind.CATEGORICAL, (True, 1.0, "1", None)),))

    def test_count_equal_agrees_with_reference(self):
        t = self.table()
        for value in self.VALUES:
            expected = sum(ref.ref_cells_equal(c, value) for c in t.column("c").cells)
            assert tablefns.count_equal(t, "c", value) == expected, value

    def test_delete_rows_agrees_with_reference(self):
        t = self.table()
        for value in self.VALUES:
            expected = ref.ref_delete_rows(ref.rows_of(t), "c", value)
            got = tablefns.delete_rows_by_column_value(t, "c", value)
            assert ref.rows_of(got) == expected, value


class TestMostFrequent:
    def test_mode(self):
        t = one_col("c", ["a", "b", "a"])
        assert tablefns.most_frequent(t, "c") == "a"

    def test_top_n_tie_first_occurrence(self):
        t = one_col("c", ["a", "b", "a", "b", "c"])
        assert tablefns.most_frequent(t, "c", 2) == ["a", "b"]

    def test_single_row(self):
        assert tablefns.most_frequent(one_col("c", ["solo"]), "c") == "solo"

    def test_all_missing_errors(self):
        with pytest.raises(TableFnError, match="no values"):
            tablefns.most_frequent(one_col("c", [None, None]), "c")

    def test_many_tied_values_keep_first_seen_order(self):
        rng = random.Random(3)
        names = [f"town{i:04d}" for i in range(5000)]
        rng.shuffle(names)
        # Every value twice, a few three times; ties span thousands of values.
        cells = names + names[::-1] + names[:7] + [None] * 10
        rng.shuffle(cells)
        t = one_col("c", cells)
        rows = ref.rows_of(t)
        assert tablefns.most_frequent(t, "c") == ref.ref_most_frequent(rows, "c")
        for n in (1, 10, 4000, 5000, 6000):
            got = tablefns.most_frequent(t, "c", n)
            assert got == ref.ref_most_frequent(rows, "c", n)
        first_seen = list(dict.fromkeys(c for c in cells if c is not None))
        twice = [c for c in first_seen if c not in names[:7]]
        assert tablefns.most_frequent(t, "c", 5000)[7:] == twice


class TestMostFrequentInSubset:
    def test_basic(self):
        t = Table("t", (Column.from_cells("target", ["x", "y", "x", "z"]),
                        Column.from_cells("subset", ["A", "A", "A", "B"])))
        assert tablefns.most_frequent_in_subset(t, "target", "subset", "A") == "x"

    def test_empty_subset_sentinel(self):
        t = Table("t", (Column.from_cells("target", ["x"]),
                        Column.from_cells("subset", ["A"])))
        with pytest.raises(TableFnError, match=NO_MATCHING_RECORDS):
            tablefns.most_frequent_in_subset(t, "target", "subset", "zzzzz")

    def test_n_equals_distinct_count(self):
        t = Table("t", (Column.from_cells("target", ["x", "y"]),
                        Column.from_cells("subset", ["A", "A"])))
        assert tablefns.most_frequent_in_subset(t, "target", "subset", "A", 2) == ["x", "y"]


# ---------------------------------------------------------------------------
# randomized agreement with the naive reference

def _random_value(rng, t, column):
    cells = [c for c in t.column(column).cells if c is not None]
    roll = rng.random()
    if cells and roll < 0.5:
        return rng.choice(cells)
    if roll < 0.7:
        return float(rng.randint(0, 30))
    return rng.choice(["Enero", "enero", "ite", "zzz", "a", "Partido Populer"])


def check_one_table(rng, t):
    rows = ref.rows_of(t)
    column = rng.choice(t.column_names)
    kind = ref.kind_of(t, column)
    value = _random_value(rng, t, column)
    n = rng.randint(0, t.row_count + 1)

    assert ref.rows_of(tablefns.flatten_column_values(t, column)) == \
        ref.ref_flatten(rows, column)
    for end in ("head", "tail"):
        assert ref.rows_of(tablefns.top_n_non_missing(t, column, n, end == "tail")) == \
            ref.ref_top_n(rows, column, n, end)
    assert ref.rows_of(tablefns.delete_rows_by_column_value(t, column, value)) == \
        ref.ref_delete_rows(rows, column, value)
    assert ref.rows_of(tablefns.sort_alphabetical(t, column)) == \
        ref.ref_sort_alpha(rows, column)

    cmp = rng.choice(["le", "lt", "ge", "gt"])
    threshold_value = float(rng.randint(0, 30))
    try:
        result = ref.rows_of(tablefns.filter_numeric(t, column, getattr(operator, cmp),
                                                     threshold_value))
    except TableFnError:
        present = [r[column] for r in rows if r[column] is not None]
        assert present and all(ref.ref_extract_numeric(v) is None for v in present)
    else:
        assert result == ref.ref_filter_numeric(rows, column, cmp, threshold_value)

    contains = tablefns.filter_contains(t, column, value)
    assert ref.rows_of(contains) == ref.ref_filter_contains(rows, column, value, kind)
    assert ref.rows_of(tablefns.filter_not_contains(t, column, value)) == \
        ref.ref_filter_not_contains(rows, column, value)
    assert tablefns.exists_value(t, column, value) == \
        (len(ref.ref_filter_contains(rows, column, value, kind)) > 0)
    assert tablefns.count_equal(t, column, value) == \
        ref.ref_count_equal(rows, column, value)
    assert tablefns.count_containing(t, column, value) == \
        len(ref.ref_filter_contains(rows, column, value, kind))

    n_top = rng.randint(1, 4)
    try:
        mode = tablefns.most_frequent(t, column)
        top = tablefns.most_frequent(t, column, n_top)
    except TableFnError:
        assert all(r[column] is None for r in rows)
    else:
        assert mode == ref.ref_most_frequent(rows, column)
        assert top == ref.ref_most_frequent(rows, column, n_top)

    if len(t.column_names) >= 2:
        target, subset = rng.sample(t.column_names, 2)
        fv = _random_value(rng, t, subset)
        sub_rows = ref.ref_filter_contains(rows, subset, fv, ref.kind_of(t, subset))
        try:
            got = tablefns.most_frequent_in_subset(t, target, subset, fv)
        except TableFnError as exc:
            if str(exc) == NO_MATCHING_RECORDS:
                assert not sub_rows
            else:
                assert all(r[target] is None for r in sub_rows)
        else:
            assert got == ref.ref_most_frequent(sub_rows, target)


def test_randomized_reference_agreement_smoke():
    rng = random.Random(20240824)
    for _ in range(150):
        check_one_table(rng, random_table(rng))


# ---------------------------------------------------------------------------
# chains of row-selecting builtins over derived tables

CHAIN_STEPS = {
    "filter_contains": lambda rng, t, c: (_random_value(rng, t, c),),
    "filter_not_contains": lambda rng, t, c: (_random_value(rng, t, c),),
    "delete_rows_by_column_value": lambda rng, t, c: (_random_value(rng, t, c),),
    "sort_alphabetical": lambda rng, t, c: (),
    "top_n_non_missing": lambda rng, t, c: (rng.randint(0, 12), rng.choice([False, True])),
    "filter_numeric": lambda rng, t, c: (rng.choice([operator.le, operator.lt,
                                                     operator.ge, operator.gt]),
                                         float(rng.randint(0, 30))),
    "flatten_column_values": lambda rng, t, c: (),
}


def _materialized(t):
    return Table(t.name, tuple(Column(c.name, c.kind, c.cells) for c in t.columns))


def test_chained_derived_tables_match_materialized_ones():
    """Every table along a chain of 1-4 builtins reads like a fresh table
    built from its cells: the same views, counts and containment rows."""
    rng = random.Random(7)
    for _ in range(150):
        t = random_table(rng)
        for _ in range(rng.randint(1, 4)):
            name = rng.choice(sorted(CHAIN_STEPS))
            column = rng.choice(t.column_names)
            try:
                t = getattr(tablefns, name)(t, column, *CHAIN_STEPS[name](rng, t, column))
            except TableFnError:  # filter_numeric on a non-numeric column
                continue
            fresh = _materialized(t)
            for col, want in zip(t.columns, fresh.columns):
                assert (col.cells, col.distinct, *ref.per_row_views(col)) == \
                    (want.cells, want.distinct, *ref.per_row_views(want))
                value = _random_value(rng, t, col.name)
                for fn in (tablefns.count_equal, tablefns.filter_not_contains,
                           tablefns.filter_contains):
                    assert fn(t, col.name, value) == fn(fresh, col.name, value)
            check_one_table(rng, t)
