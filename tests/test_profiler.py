import json

import pytest

from tableqa import profiler
from tableqa.llm_client import MockClient
from tableqa.profiler import (
    ColumnProfile,
    ProfileCache,
    describe_columns,
    fallback_description,
    profile_table,
    table_fingerprint,
)
from tableqa.table_core import Column, ColumnKind, Table


def one_col(name, cells):
    return Table("t", (Column.from_cells(name, cells),))


class TestProfileTable:
    def test_distinct_and_examples(self):
        [p] = profile_table(one_col("Mes", ["Enero", "Enero", "Febrero"]))
        assert p.distinct_count == 2
        assert p.example_values == ["Enero", "Febrero"]
        assert p.null_count == 0

    def test_all_missing(self):
        [p] = profile_table(one_col("c", [None, None]))
        assert p.null_count == 2
        assert p.example_values == []
        assert p.min is None and p.max is None

    def test_numeric_min_max(self):
        [p] = profile_table(one_col("n", ["1", "2", "3"]))
        assert p.kind is ColumnKind.NUMERIC
        assert (p.min, p.max) == (1.0, 3.0)

    def test_mixed_min_max_via_extraction(self):
        [p] = profile_table(one_col("v", ["5", "10 - Le votaría siempre"]))
        assert p.kind is ColumnKind.MIXED_NUMERIC
        assert (p.min, p.max) == (5.0, 10.0)

    def test_example_values_capped_at_example_count(self):
        [p] = profile_table(one_col("c", ["a", "b", "c", "d"]))
        assert p.example_values == ["a", "b", "c"]

    def test_fills_distinct_but_no_per_row_view(self, survey_table):
        """The explainer and the builtins read `distinct` again, so the
        profile keeps it on the column; it builds no per-row view."""
        profile_table(survey_table)
        for col in survey_table.columns:
            assert "distinct" in vars(col)
            assert not {"lowered", "numbers"} & set(vars(col))


class TestDescribeColumns:
    def test_no_llm_uses_fallback_template(self, survey_table):
        profiles = describe_columns(profile_table(survey_table), llm=None)
        for p in profiles:
            assert p.description == fallback_description(p)
        mes = next(p for p in profiles if p.name == "Mes de realización")
        assert mes.description == (
            "Column 'Mes de realización' of type Categorical "
            "with example values: Enero, Febrero")

    def test_mock_description_stored(self, survey_table):
        mock = MockClient.from_list([{
            "stage": "descriptor",
            "match": "Mes de realización",
            "reply": json.dumps({"Mes de realización": "Month of the survey"}),
        }])
        profiles = describe_columns(profile_table(survey_table), mock)
        mes = next(p for p in profiles if p.name == "Mes de realización")
        assert mes.description == "Month of the survey"
        # columns absent from the reply keep the fallback
        edad = next(p for p in profiles if p.name == "Edad")
        assert edad.description == fallback_description(edad)

    def test_empty_profiles(self, survey_table):
        assert describe_columns([], None) == []

    def test_batches_of_25(self, survey_table):
        profiles = [ColumnProfile(name=f"c{i}", kind=ColumnKind.CATEGORICAL)
                    for i in range(60)]
        mock = MockClient.from_list([
            {"stage": "descriptor", "reply": "{}"},
        ])
        describe_columns(profiles, mock)
        assert len(mock.calls) == 3


class TestCache:
    def test_round_trip(self, tmp_path, survey_table):
        cache = ProfileCache(str(tmp_path))
        profiles = profile_table(survey_table)
        fp = table_fingerprint(b"some csv bytes")
        cache.put(fp, profiles)
        assert cache.get(fp) == profiles

    def test_cold_cache_miss(self, tmp_path):
        assert ProfileCache(str(tmp_path)).get(table_fingerprint(b"x")) is None

    def test_fingerprint_changes_with_bytes(self):
        assert table_fingerprint(b"a,b\n1,2\n") != table_fingerprint(b"a,b\n1,3\n")

    def test_corrupt_entry_is_miss_and_evicted(self, tmp_path):
        cache = ProfileCache(str(tmp_path))
        fp = table_fingerprint(b"x")
        (tmp_path / f"{fp}.json").write_text("{not json", encoding="utf-8")
        assert cache.get(fp) is None
        assert not (tmp_path / f"{fp}.json").exists()

    def test_failed_put_keeps_the_old_entry(self, tmp_path, survey_table, monkeypatch):
        cache_dir = tmp_path / "cache"
        cache = ProfileCache(str(cache_dir))
        fp = table_fingerprint(b"x")
        profiles = profile_table(survey_table)
        cache.put(fp, profiles)

        def half_open(*args, **kwargs):
            # a file whose first write stores two characters, then fails
            fh = open(*args, **kwargs)

            def half_write(text):
                type(fh).write(fh, text[:2])
                raise OSError("disk full")

            fh.write = half_write
            return fh

        monkeypatch.setattr(profiler, "open", half_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            cache.put(fp, profiles[:1])
        monkeypatch.undo()
        assert cache.get(fp) == profiles
        assert [p.name for p in cache_dir.iterdir()] == [f"{fp}.json"]

    def test_corrupt_entry_evicted_by_another_reader(self, tmp_path, monkeypatch):
        cache = ProfileCache(str(tmp_path))
        fp = table_fingerprint(b"x")
        path = tmp_path / f"{fp}.json"
        path.write_text("{not json", encoding="utf-8")

        def load_then_lose_race(fh):
            path.unlink()  # the other reader's evict lands first
            raise ValueError("corrupt")

        monkeypatch.setattr(profiler.json, "load", load_then_lose_race)
        assert cache.get(fp) is None
        assert not path.exists()
