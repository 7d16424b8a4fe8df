import json

from e2e_fixtures import Recording

from tableqa.llm_client import MockClient
from tableqa.profiler import ColumnProfile
from tableqa.selector import DENYLIST, prune_uninformative, select_columns
from tableqa.table_core import ColumnKind


def profiles_named(*names):
    return [ColumnProfile(name=n, kind=ColumnKind.CATEGORICAL, description=f"desc {n}")
            for n in names]


class TestPrune:
    def test_denylist(self):
        kept, dropped = prune_uninformative(profiles_named("N_R_1", "Edad"))
        assert [p.name for p in kept] == ["Edad"]
        assert dropped == ["N_R_1"]

    def test_suffix_family_dropped_at_threshold(self):
        names = [f"Ns_Nc_{i}" for i in range(6)] + ["Edad"]
        kept, dropped = prune_uninformative(profiles_named(*names))
        assert [p.name for p in kept] == ["Edad"]
        assert set(dropped) == set(names[:6])

    def test_small_family_kept(self):
        kept, dropped = prune_uninformative(profiles_named("A_1", "A_2"))
        assert [p.name for p in kept] == ["A_1", "A_2"]
        assert dropped == []

    def test_never_drops_unmatched(self):
        profiles = profiles_named("Edad", "Mes", "Partido", "B_1", "N_R", "C_9")
        kept, dropped = prune_uninformative(profiles)
        import re
        for name in dropped:
            assert DENYLIST.search(name) or re.match(r".+_\d+$", name)
        assert set(p.name for p in kept) | set(dropped) == {p.name for p in profiles}


class TestSelectColumns:
    def test_chunking_three_calls(self):
        profiles = profiles_named(*[f"c{i}" for i in range(60)])
        mock = Recording(MockClient.from_list([{"stage": "selector", "reply": "[]"}]))
        select_columns("q?", profiles, mock)
        assert len(mock.calls) == 3
        sizes = [c.last_user_content.count("- c") for c in mock.calls]
        assert sizes == [25, 25, 10]

    def test_name_corrected_against_chunk(self):
        profiles = profiles_named("Mes de realización", "Edad")
        mock = MockClient.from_list([
            {"stage": "selector", "reply": json.dumps(["Mes de realizacion"])},
        ])
        out = select_columns("q?", profiles, mock)
        assert [p.name for p in out] == ["Mes de realización"]

    def test_unparseable_chunk_kept(self):
        profiles = profiles_named("a", "b")
        mock = Recording(MockClient.from_list([
            {"stage": "selector", "reply": "not json", "consume_once": True},
            {"stage": "selector", "reply": "still not json", "consume_once": True},
        ]))
        out = select_columns("q?", profiles, mock)
        assert [p.name for p in out] == ["a", "b"]
        assert len(mock.calls) == 2

    def test_empty_union_keeps_all(self):
        profiles = profiles_named("a", "b", "c")
        mock = MockClient.from_list([{"stage": "selector", "reply": "[]"}])
        out = select_columns("q?", profiles, mock)
        assert [p.name for p in out] == ["a", "b", "c"]

    def test_transport_failure_keeps_all(self):
        from tableqa.llm_client import LLMError

        class FailingClient:
            def complete(self, req):
                raise LLMError("connection refused")

        profiles = profiles_named("a", "b")
        warnings = []
        out = select_columns("q?", profiles, FailingClient(), warnings=warnings)
        assert [p.name for p in out] == ["a", "b"]
        assert warnings and "transport" in warnings[0]

    def test_output_preserves_original_order(self):
        profiles = profiles_named("a", "b", "c", "d")
        mock = MockClient.from_list([
            {"stage": "selector", "reply": json.dumps(["d", "b"])},
        ])
        out = select_columns("q?", profiles, mock)
        assert [p.name for p in out] == ["b", "d"]

    def test_prompt_contains_question_and_recall_bias(self):
        profiles = profiles_named("a")
        mock = Recording(MockClient.from_list([{"stage": "selector", "reply": '["a"]'}]))
        select_columns("¿Cuántas encuestas?", profiles, mock)
        assert "¿Cuántas encuestas?" in mock.calls[0].last_user_content
        system = mock.calls[0].messages[0].content
        assert "in case of doubt" in system.lower()
