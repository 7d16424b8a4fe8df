import gc
import json
import os
import random
import subprocess
import sys
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_table
from e2e_fixtures import Recording
from tableqa import tablefns
from tableqa.answerer import AnswerType, format_answer
from tableqa.explainer import InstructionSet
from tableqa.llm_client import MockClient
from tableqa.planlang import BUILTINS, parse_plan, validate_plan
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

    # One plan per `-> number` builtin; counts and lengths come back as
    # floats like every other number.
    NUMBER_PLANS = {
        "count_equal": 'answer = count_equal(df, "Mes", "Enero")',
        "count_containing": 'answer = count_containing(df, "Mes", "ero")',
        "count_rows": "answer = count_rows(df)",
        "length": 'answer = length(column(df, "Mes"))',
        "sum": "answer = sum([])",
        "mean": "answer = mean([1, 2])",
        "min_of": "answer = min_of([1, 2])",
        "max_of": "answer = max_of([1, 2])",
        "add": "answer = add(1, 2)",
        "sub": "answer = sub(1, 2)",
        "mul": "answer = mul(1, 2)",
        "div": "answer = div(1, 2)",
        "to_number": 'answer = to_number("3 - Tres")',
    }

    def test_every_number_builtin_has_a_plan(self):
        assert sorted(self.NUMBER_PLANS) == sorted(
            name for name, b in BUILTINS.items() if b.signature.endswith("-> number"))

    @pytest.mark.parametrize("name", sorted(NUMBER_PLANS))
    def test_number_builtins_return_floats(self, mes_table, name):
        assert type(run(self.NUMBER_PLANS[name], mes_table)) is float

    # Thresholds below, at and above a value, and n below, at and above the
    # 3 present cells: a swapped operator or end changes some result.
    @pytest.mark.parametrize("builtin, threshold, expected", [
        ("filter_le", 1.5, [1.0]), ("filter_le", 2, [1.0, 2.0]), ("filter_le", 2.5, [1.0, 2.0]),
        ("filter_lt", 1.5, [1.0]), ("filter_lt", 2, [1.0]), ("filter_lt", 2.5, [1.0, 2.0]),
        ("filter_ge", 1.5, [2.0, 3.0]), ("filter_ge", 2, [2.0, 3.0]), ("filter_ge", 2.5, [3.0]),
        ("filter_gt", 1.5, [2.0, 3.0]), ("filter_gt", 2, [3.0]), ("filter_gt", 2.5, [3.0]),
        ("top_n_non_missing", 2, [1.0, 2.0]), ("top_n_non_missing", 3, [1.0, 2.0, 3.0]),
        ("top_n_non_missing", 4, [1.0, 2.0, 3.0]),
        ("tail_n_non_missing", 2, [2.0, 3.0]), ("tail_n_non_missing", 3, [1.0, 2.0, 3.0]),
        ("tail_n_non_missing", 4, [1.0, 2.0, 3.0]),
    ])
    def test_row_selecting_variants(self, builtin, threshold, expected):
        t = Table("t", (Column.from_cells("v", ["1", "2", None, "3"]),))
        assert run(f'answer = column({builtin}(df, "v", {threshold}), "v")', t) == expected

    @pytest.mark.parametrize("builtin, expected", [
        ("gt", [False, False, True]), ("ge", [False, True, True]),
        ("lt", [True, False, False]), ("le", [True, True, False]),
        ("eq", [False, True, False]),
    ])
    def test_comparison_variants(self, mes_table, builtin, expected):
        assert [run(f"answer = {builtin}({x}, 2)", mes_table) for x in (1, 2, 3)] == expected

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

    def test_plan_over_the_row_budget_fails_fast_in_little_memory(self):
        """Eleven flattens of 200 rows of `a;b` cells reach 409,600 rows, each
        within the flatten limit, and thirty more flattens of the flat column
        keep that many: unbounded, the plan ran 18 s at 1.3 GiB and answered
        409600.  The first ten build 409,200 rows, so the eleventh is refused
        unbuilt.  It runs in a child, whose peak RSS before the plan is that
        of its start-up, timed in CPU seconds, which other load does not
        inflate."""
        names = [f"c{i}" for i in range(14)]
        steps = names[:11] + ["c0"] * 30
        plan = "".join(f't{i + 1} = flatten_column_values({f"t{i}" if i else "df"}, "{n}")\n'
                       for i, n in enumerate(steps)) + f"answer = count_rows(t{len(steps)})"
        child = (
            "import json, resource, sys, time\n"
            "from tableqa.runner import try_plan\n"
            "from tableqa.table_core import Column, Table\n"
            "t = Table('t', tuple(Column.from_cells(f'c{i}', ['a;b'] * 200) for i in range(14)))\n"
            "rss = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # MiB\n"
            "before, start = rss(), time.process_time()\n"
            "stage, message, _ = try_plan(sys.stdin.read(), t)\n"
            "print(json.dumps([stage, message, time.process_time() - start, rss() - before]))\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        result = subprocess.run([sys.executable, "-c", child], input=plan, capture_output=True,
                                text=True, env={**os.environ, "PYTHONPATH": src}, timeout=10)
        assert result.returncode == 0, result.stderr
        stage, message, seconds, rss_mib = json.loads(result.stdout)
        assert (stage, message) == ("execute", "flatten_column_values: would build "
                                              "409600 rows, over the budget of 90800 rows")
        assert seconds < 1.0
        assert rss_mib < 100

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
        profiles = profile_table(survey_table)
        describe_columns(profiles, [])
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
    def prompt(self):
        return build_coder_prompt(InstructionSet(instructions=["count the rows"]), [])

    @pytest.mark.parametrize("k", range(5))
    def test_k_failures_then_success(self, k, mes_table):
        entries = [{"stage": "coder", "reply": BROKEN_PLAN, "consume_once": True}
                   for _ in range(k)]
        entries.append({"stage": "coder", "reply": VALID_PLAN})
        mock = Recording(MockClient.from_list(entries))
        trace = solve(self.prompt(), mes_table, mock)
        assert trace.succeeded
        assert trace.attempts_used == k + 1
        assert trace.final_value == 3.0
        assert len([c for c in mock.calls if c.stage_tag == "coder"]) == k + 1

    def test_all_failures(self, mes_table):
        mock = MockClient.from_list([{"stage": "coder", "reply": BROKEN_PLAN}])
        trace = solve(self.prompt(), mes_table, mock)
        assert not trace.succeeded
        assert trace.final_value is None
        assert trace.attempts_used == 5
        for a in trace.attempts:
            assert a.error_stage == "parse"
            assert a.error_message

    def test_repair_prompt_includes_previous_plan_and_error(self, mes_table):
        mock = Recording(MockClient.from_list([
            {"stage": "coder", "reply": BROKEN_PLAN, "consume_once": True},
            {"stage": "coder", "reply": VALID_PLAN},
        ]))
        solve(self.prompt(), mes_table, mock)
        repair = mock.calls[1].last_user_content
        assert BROKEN_PLAN in repair
        assert "parse" in repair

    def test_runtime_error_feeds_repair(self, mes_table):
        mock = Recording(MockClient.from_list([
            {"stage": "coder", "reply": 'answer = div(1, 0)', "consume_once": True},
            {"stage": "coder", "reply": VALID_PLAN},
        ]))
        trace = solve(self.prompt(), mes_table, mock)
        assert trace.succeeded
        assert trace.attempts[0].error_stage == "execute"
        assert "division by zero" in mock.calls[1].last_user_content

    def test_overflow_feeds_repair(self, mes_table):
        mock = Recording(MockClient.from_list([
            {"stage": "coder", "reply": "answer = mean([1e308, 1e308])", "consume_once": True},
            {"stage": "coder", "reply": VALID_PLAN},
        ]))
        trace = solve(self.prompt(), mes_table, mock)
        assert trace.succeeded
        assert trace.final_value == 3.0
        assert trace.attempts[0].error_stage == "execute"
        assert "Error: mean: intermediate overflow in fsum" in mock.calls[1].last_user_content

    def test_unparseable_reply_is_repaired_not_raised(self, mes_table):
        deep = "answer = " + "head_n(" * 2000 + "1" + ", 1)" * 2000
        mock = MockClient.from_list([
            {"stage": "coder", "reply": deep, "consume_once": True},
            {"stage": "coder", "reply": VALID_PLAN},
        ])
        trace = solve(self.prompt(), mes_table, mock)
        assert trace.succeeded
        assert trace.attempts[0].error_stage == "parse"

    def test_non_finite_n_is_repaired(self, mes_table):
        huge = "9" * 400  # parses to inf
        mock = MockClient.from_list([
            {"stage": "coder", "reply": f'answer = head_n(column(df, "Mes"), {huge})',
             "consume_once": True},
            {"stage": "coder", "reply": VALID_PLAN},
        ])
        trace = solve(self.prompt(), mes_table, mock)
        assert trace.succeeded
        assert trace.attempts_used == 2
        assert trace.attempts[0].error_stage == "execute"
        assert trace.attempts[0].error_message == "head_n: n must be a finite number, got inf"

    def test_flatten_chain_over_the_row_budget_is_repaired(self):
        # Nine chained flattens of four-valued cells would build 200 * 4**9
        # (~52M) rows; the first five build 272,800, so the sixth, at
        # 819,200 rows, is refused unbuilt.
        left = tablefns.PLAN_ROW_BUDGET - 272_800
        names = [f"c{i}" for i in range(9)]
        t = Table("t", tuple(Column.from_cells(n, ["a;b;c;d"] * 200) for n in names))
        chain = "".join(f't{i + 1} = flatten_column_values({f"t{i}" if i else "df"}, "{n}")\n'
                        for i, n in enumerate(names))
        mock = Recording(MockClient.from_list([
            {"stage": "coder", "reply": chain + "answer = count_rows(t9)", "consume_once": True},
            {"stage": "coder", "reply": VALID_PLAN},
        ]))
        start = time.perf_counter()
        trace = solve(self.prompt(), t, mock)
        assert time.perf_counter() - start < 1.0
        error = ("flatten_column_values: would build 819200 rows, "
                 f"over the budget of {left} rows")
        assert (trace.attempts[0].error_stage, trace.attempts[0].error_message) == \
            ("execute", error)
        assert f"Error: {error}" in mock.calls[1].last_user_content
        assert trace.succeeded and trace.final_value == 200.0

    def test_plan_over_the_row_budget_is_repaired_and_memoised(self, mes_table, monkeypatch):
        monkeypatch.setattr(tablefns, "PLAN_ROW_BUDGET", 5)
        over = ('x = flatten_column_values(df, "Mes")\n'
                'y = flatten_column_values(x, "Mes")\nanswer = count_rows(y)')
        mock = Recording(MockClient.from_list([
            {"stage": "coder", "reply": over, "consume_once": True},
            {"stage": "coder", "reply": VALID_PLAN},
        ]))
        memo = {}
        trace = solve(self.prompt(), mes_table, mock, memo)
        error = "flatten_column_values: would build 3 rows, over the budget of 2 rows"
        assert (trace.attempts[0].error_stage, trace.attempts[0].error_message) == \
            ("execute", error)
        assert f"Error: {error}" in mock.calls[1].last_user_content
        assert trace.succeeded and trace.final_value == 3.0
        assert memo[over] == ("execute", error, None)

    def test_only_flattens_spend_the_row_budget(self, mes_table, monkeypatch):
        # Sorts, filters and deletes never return more rows than they
        # take, so a plan of them answers on a table of any size.
        monkeypatch.setattr(tablefns, "PLAN_ROW_BUDGET", 1)
        plan = ('a = sort_alphabetical(df, "Mes")\nb = filter_not_contains(a, "Mes", "zz")\n'
                'c = delete_rows_by_column_value(b, "Mes", "Marzo")\nd = sort_alphabetical(c, "Mes")\n'
                'answer = count_rows(d)')
        assert run(plan, mes_table) == 3.0

    def test_formatting_a_memoised_list_leaves_it_unchanged(self, mes_table):
        plan = 'answer = head_n(unique(column(df, "Mes")), 1)'
        memo = {}
        mock = MockClient.from_list([{"stage": "coder", "reply": plan}])
        first, second = (solve(self.prompt(), mes_table, mock, memo) for _ in range(2))
        assert first.final_value is second.final_value  # one memoised value
        as_list = format_answer(first.final_value, AnswerType.LIST_CATEGORY)
        as_scalar = format_answer(second.final_value, AnswerType.CATEGORY)
        assert (as_list.value, as_scalar.value) == (["Enero"], "Enero")
        assert as_list.value is not memo[plan][2]
        assert memo == {plan: ("", "", ["Enero"])}

    def test_trace_serializes(self, mes_table):
        import json
        mock = MockClient.from_list([{"stage": "coder", "reply": VALID_PLAN}])
        trace = solve(self.prompt(), mes_table, mock)
        payload = json.dumps(trace.to_dict())
        assert "count_rows" in payload


# Plans over `random_table`'s columns that succeed, fail to parse, fail
# validation or fail at run time (some only on some tables).
PLAN_POOL = [
    "answer = count_rows(df)",
    'answer = unique(column(df, "col0"))',
    'x = sort_alphabetical(df, "col0")\nanswer = x',
    'answer = most_frequent(df, "col0")',
    'answer = sum(column(df, "col0"))',
    "answer = count_rows(",
    "I cannot write this plan",
    "answer = no_such_builtin(df)",
    'answer = count_rows(df, "col0")',
    "answer = div(1, 0)",
]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.lists(st.sampled_from(PLAN_POOL), max_size=6), min_size=1, max_size=6))
def test_shared_memo_solves_like_a_fresh_one(seed, streams):
    """Each stream is one run's coder replies in order; one memo shared
    by all the runs changes no trace and no prompt sent."""
    t = random_table(random.Random(seed))
    prompt = build_coder_prompt(InstructionSet(instructions=["answer it"]), [])

    def solve_all(memo_for_run):
        out = []
        for stream in streams:
            mock = Recording(MockClient.from_list([{"stage": "coder", "reply": r,
                                                    "consume_once": True} for r in stream]))
            trace = solve(prompt, t, mock, memo_for_run())
            out.append((trace.to_dict(), [c.last_user_content for c in mock.calls]))
        return out

    shared: dict = {}
    assert solve_all(lambda: shared) == solve_all(lambda: None)


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
