import gc
import random
import weakref

import pytest

from conftest import random_table
from tableqa.explainer import InstructionSet
from tableqa.llm_client import MockClient
from tableqa.planlang import parse_plan, validate_plan
from tableqa.profiler import describe_columns, profile_table
from tableqa.runner import (
    PlanRuntimeError,
    build_coder_prompt,
    execute_plan,
    solve,
)
from tableqa.table_core import Column, Table


def run(source, table):
    plan = validate_plan(parse_plan(source), table.column_names)
    return execute_plan(plan, table)


@pytest.fixture
def mes_table():
    return Table("t", (Column.from_cells("Mes", ["Enero", "Enero", "Febrero"]),))


class TestExecutePlan:
    def test_filter_count(self, mes_table):
        value = run('x = filter_contains(df, "Mes", "Enero")\n'
                    "answer = count_rows(x)", mes_table)
        assert value == 2.0

    def test_count_rows(self, mes_table):
        assert run("answer = count_rows(df)", mes_table) == 3.0

    def test_division_by_zero(self, mes_table):
        with pytest.raises(PlanRuntimeError, match="division by zero"):
            run('answer = div(to_number("1"), 0)', mes_table)

    def test_arithmetic_and_comparison(self, mes_table):
        assert run("answer = gt(mul(add(1, 1), 2), 3)", mes_table) is True
        assert run("answer = sub(10, div(4, 2))", mes_table) == 8.0

    def test_list_primitives(self, mes_table):
        assert run('answer = unique(column(df, "Mes"))', mes_table) == ["Enero", "Febrero"]
        assert run('answer = length(column(df, "Mes"))', mes_table) == 3.0
        assert run('answer = first(sort_desc([3, 1, 2]))', mes_table) == 3.0
        assert run("answer = mean([1, 2, 3])", mes_table) == 2.0
        assert run('answer = sum(["1 - No", "2 - Si"])', mes_table) == 3.0

    def test_head_n_rejects_negative_n(self, mes_table):
        with pytest.raises(PlanRuntimeError) as info:
            run('answer = head_n(column(df, "Mes"), -1)', mes_table)
        assert str(info.value) == "head_n: n must be >= 0, got -1"

    def test_runtime_error_names_builtin(self, mes_table):
        with pytest.raises(PlanRuntimeError, match="most_frequent"):
            run('e = filter_contains(df, "Mes", "zzzz")\n'
                'answer = most_frequent(e, "Mes")', mes_table)

    def test_sentinel_error_message(self, mes_table):
        from tableqa.tablefns import NO_MATCHING_RECORDS
        with pytest.raises(PlanRuntimeError, match=NO_MATCHING_RECORDS):
            run('answer = most_frequent_in_subset(df, "Mes", "Mes", "zzzzzz")',
                mes_table)

    def test_tables_die_without_the_cyclic_collector(self):
        """Plan evaluation makes no reference cycle: the input table and a
        derived one die as soon as the caller drops them."""
        t = Table("t", (Column.from_cells("Mes", ["Enero", "Enero", "Febrero"]),))
        plan = validate_plan(parse_plan('x = filter_contains(df, "Mes", "Enero")\n'
                                        "answer = x"), t.column_names)
        gc.collect()
        gc.disable()
        try:
            derived = execute_plan(plan, t)
            assert derived.row_count == 2
            refs = [weakref.ref(t), weakref.ref(derived)]
            del t, derived
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_parse_plan_leaves_no_cyclic_garbage(self):
        source = 'x = filter_contains(df, "Mes", ["a", -1])\nanswer = count_rows(x)'
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                parse_plan(source)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_deterministic_on_random_tables(self):
        rng = random.Random(5)
        for _ in range(30):
            t = random_table(rng)
            source = f'x = sort_alphabetical(df, "{t.column_names[0]}")\n' \
                     "answer = count_rows(x)"
            assert run(source, t) == run(source, t)


class TestBuildCoderPrompt:
    def test_instructions_verbatim(self, survey_table):
        profiles = describe_columns(profile_table(survey_table), None)
        inst = InstructionSet(instructions=[
            "Count the surveys in january",
            "Be careful!. The value enero appears in the database with the "
            "following format: 'Enero'",
        ])
        prompt = build_coder_prompt(inst, profiles)
        for line in inst.instructions:
            assert line in prompt
        assert "answer =" in prompt
        for p in profiles:
            assert p.name in prompt


VALID_PLAN = 'answer = count_rows(df)'
BROKEN_PLAN = 'answer = count_rows('


class TestSolve:
    def make_inst(self):
        return InstructionSet(instructions=["count the rows"])

    @pytest.mark.parametrize("k", range(5))
    def test_k_failures_then_success(self, k, mes_table):
        entries = [{"stage": "coder", "reply": BROKEN_PLAN, "consume_once": True}
                   for _ in range(k)]
        entries.append({"stage": "coder", "reply": VALID_PLAN})
        mock = MockClient.from_list(entries)
        trace = solve(self.make_inst(), mes_table, [], mock)
        assert trace.succeeded
        assert trace.attempts_used == k + 1
        assert trace.final_value == 3.0
        assert len([c for c in mock.calls if c.stage_tag == "coder"]) == k + 1

    def test_all_failures(self, mes_table):
        mock = MockClient.from_list([{"stage": "coder", "reply": BROKEN_PLAN}])
        trace = solve(self.make_inst(), mes_table, [], mock)
        assert not trace.succeeded
        assert trace.final_value is None
        assert trace.attempts_used == 5
        for a in trace.attempts:
            assert a.error_stage == "parse"
            assert a.error_message

    def test_repair_prompt_includes_previous_plan_and_error(self, mes_table):
        mock = MockClient.from_list([
            {"stage": "coder", "reply": BROKEN_PLAN, "consume_once": True},
            {"stage": "coder", "reply": VALID_PLAN},
        ])
        solve(self.make_inst(), mes_table, [], mock)
        repair = mock.calls[1].last_user_content
        assert BROKEN_PLAN in repair
        assert "parse" in repair

    def test_runtime_error_feeds_repair(self, mes_table):
        mock = MockClient.from_list([
            {"stage": "coder", "reply": 'answer = div(1, 0)', "consume_once": True},
            {"stage": "coder", "reply": VALID_PLAN},
        ])
        trace = solve(self.make_inst(), mes_table, [], mock)
        assert trace.succeeded
        assert trace.attempts[0].error_stage == "execute"
        assert "division by zero" in mock.calls[1].last_user_content

    def test_unparseable_reply_is_repaired_not_raised(self, mes_table):
        deep = "answer = " + "head_n(" * 2000 + "1" + ", 1)" * 2000
        mock = MockClient.from_list([
            {"stage": "coder", "reply": deep, "consume_once": True},
            {"stage": "coder", "reply": VALID_PLAN},
        ])
        trace = solve(self.make_inst(), mes_table, [], mock)
        assert trace.succeeded
        assert trace.attempts[0].error_stage == "parse"

    def test_non_finite_n_is_repaired(self, mes_table):
        huge = "9" * 400  # parses to inf
        mock = MockClient.from_list([
            {"stage": "coder", "reply": f'answer = head_n(column(df, "Mes"), {huge})',
             "consume_once": True},
            {"stage": "coder", "reply": VALID_PLAN},
        ])
        trace = solve(self.make_inst(), mes_table, [], mock)
        assert trace.succeeded
        assert trace.attempts_used == 2
        assert trace.attempts[0].error_stage == "execute"
        assert trace.attempts[0].error_message == "head_n: n must be a finite number, got inf"

    def test_trace_serializes(self, mes_table):
        import json
        mock = MockClient.from_list([{"stage": "coder", "reply": VALID_PLAN}])
        trace = solve(self.make_inst(), mes_table, [], mock)
        payload = json.dumps(trace.to_dict())
        assert "count_rows" in payload


@pytest.mark.parametrize("source, message", [
    ('answer = count_rows(column(df, "Mes"))', "count_rows: expected a table, got a list"),
    ("answer = count_rows(3)", "count_rows: expected a table, got a scalar"),
    ('answer = sort_alphabetical(df, column(df, "Mes"))',
     "sort_alphabetical: expected a scalar, got a list"),
    ('answer = count_equal(df, "Mes", column(df, "Mes"))',
     "count_equal: expected a scalar, got a list"),
    ('answer = most_frequent_in_subset(df, "Mes", "Mes", df)',
     "most_frequent_in_subset: expected a scalar, got a table"),
    ("answer = head_n([1, 2], df)", "head_n: expected a number, got a table"),
    ('answer = top_n_non_missing(df, "Mes", "two")',
     "top_n_non_missing: value 'two' is not numeric"),
    ('answer = add(1, column(df, "Mes"))', "add: expected a number, got a list"),
    ('answer = mul(1, "x")', "mul: value 'x' is not numeric"),
    ("answer = length(df)", "length: expected a list, got a table"),
    ("answer = gt(df, 1)", "gt: expected a scalar, got a table"),
    ('answer = le(1, column(df, "Mes"))', "le: expected a scalar, got a list"),
    ('answer = eq(column(df, "Mes"), 1)', "eq: expected a scalar, got a list"),
    ('answer = to_number(column(df, "Mes"))', "to_number: expected a scalar, got a list"),
    ('answer = to_number("x")', "to_number: value 'x' is not numeric"),
    ("answer = not_(1)", "not_: expected a boolean"),
], ids=["table", "table-scalar", "column", "value", "filter_value", "n", "n-text",
        "number", "number-text", "list", "scalar", "scalar-second", "scalar-eq",
        "scalar-to_number", "scalar-to_number-text", "boolean"])
def test_wrong_kind_error_text(source, message, mes_table):
    with pytest.raises(PlanRuntimeError) as info:
        run(source, mes_table)
    assert str(info.value) == message
