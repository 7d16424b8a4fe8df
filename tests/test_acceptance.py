"""Acceptance suite: one test per release criterion, each printing a
single PASS line on success (run with -s or read the -v report)."""

import json
import os
import random
import time

import pytest
from click.testing import CliRunner

import e2e_fixtures
import reference as ref
from conftest import random_table
from test_planlang import random_plan
from test_tablefns import check_one_table
from tableqa.answerer import Answer, AnswerType, format_answer
from tableqa.cli import main as cli_main
from tableqa.explainer import InstructionSet, clarify
from tableqa.fuzzy import best_fuzzy_match, similarity
from tableqa.llm_client import MockClient
from tableqa.pipeline import (
    EnsembleConfig,
    PipelineContext,
    Question,
    RunRecord,
    ensemble_answers,
    ensemble_curve,
    load_questions,
    run_pipeline_batch,
    score,
    vote,
)
from tableqa.planlang import (
    Literal,
    PlanValidationError,
    parse_plan,
    validate_plan,
)
from tableqa.profiler import profile_table
from tableqa.runner import PlanRuntimeError, build_coder_prompt, execute_plan, solve
from tableqa.table_core import Column, Table


def ok(line):
    print(f"PASS: {line}")


def test_oracle_equivalence_1000_random_tables():
    rng = random.Random(20250824)
    start = time.monotonic()
    for _ in range(1000):
        check_one_table(rng, random_table(rng))
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    ok("table operations agree with the naive reference on 1000 random "
       f"tables ({elapsed:.1f}s, no network)")


def test_fuzzy_matching_correctness():
    rng = random.Random(31)
    alphabet = "abcdefíóñ -"
    for _ in range(1000):
        values = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 9)))
                  for _ in range(rng.randint(0, 7))]
        target = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 9)))
        threshold = rng.randint(0, 100)
        assert best_fuzzy_match(values, target, threshold) == \
            ref.ref_best_fuzzy_match(values, target, threshold)

    assert abs(similarity("item", "items") - 88.9) < 0.1

    # score == threshold must match, threshold + 1 must not
    assert similarity("aaaaaaaaaa", "aaaaaaaaab") == 90.0
    assert best_fuzzy_match(["aaaaaaaaab"], "aaaaaaaaaa", 90) == "aaaaaaaaab"
    assert best_fuzzy_match(["aaaaaaaaab"], "aaaaaaaaaa", 91) is None
    assert similarity("aaaaaaaa", "aaaaaabb") == 75.0
    assert best_fuzzy_match(["aaaaaabb"], "aaaaaaaa", 75) == "aaaaaabb"
    assert best_fuzzy_match(["aaaaaabb"], "aaaaaaaa", 76) is None
    ok("best_fuzzy_match equals exhaustive argmax on 1000 pairs; "
       "item/items = 88.9; thresholds 90/75 inclusive at the boundary")


def test_clarification_golden_lines():
    table = Table("meses", (Column.from_cells(
        "Mes de realización", ["Enero", "Febrero", "Marzo"]),))
    profiles = profile_table(table)
    inst = InstructionSet(
        instructions=["Count the surveys conducted in january",
                      "Check whether that count is a majority"],
        columns=["Mes de realización"],
        filter_values=[("Mes de realización", "enero")],
    )
    out = clarify(inst, table, profiles)
    assert out.instructions[:2] == inst.instructions
    assert out.instructions[2] == (
        "Be careful!. The value enero appears in the database with the "
        "following format: 'Enero'")
    assert out.instructions[3] == (
        "The column 'Mes de realización' is of type 'object' and has the "
        "following example values: Enero, Febrero, Marzo")
    assert len(out.instructions) == 4
    ok("clarify emits the byte-exact stored-format and type/example lines")


def test_plan_dsl_round_trip_validation_and_bounded_execution():
    rng = random.Random(4242)
    for _ in range(500):
        p = random_plan(rng)
        assert parse_plan(ref.render_plan(p)) == p

    schema = ["Mes de realización", "Edad"]
    corrected = validate_plan(
        parse_plan('answer = count_containing(df, "Mes de realizacion", "x")'),
        schema)
    assert corrected.answer.args[1] == Literal("Mes de realización")

    with pytest.raises(PlanValidationError, match="filter_contains"):
        validate_plan(parse_plan('answer = filter_contians(df, "Edad", "x")'),
                      schema)

    table = Table("t", (
        Column.from_cells("Mes de realización", ["Enero", "Febrero", None]),
        Column.from_cells("Edad", [18.0, 25.0, 70.0]),
    ))
    start = time.monotonic()
    executed = 0
    for _ in range(200):
        p = validate_plan(random_plan(rng), table.column_names)
        try:
            execute_plan(p, table)
        except PlanRuntimeError:
            pass
        executed += 1
    assert executed == 200
    assert time.monotonic() - start < 30.0
    ok("500-plan parse/render identity; distance-1 column correction; "
       "unknown-builtin near-miss rejection; generated plans terminate")


def test_retry_loop_attempt_counts():
    table = Table("t", (Column.from_cells("Mes", ["Enero", "Febrero"]),))
    prompt = build_coder_prompt(InstructionSet(instructions=["count the rows"]), [])
    for k in range(5):
        entries = [{"stage": "coder", "reply": "answer = count_rows(",
                    "consume_once": True} for _ in range(k)]
        entries.append({"stage": "coder", "reply": "answer = count_rows(df)"})
        mock = e2e_fixtures.Recording(MockClient.from_list(entries))
        trace = solve(prompt, table, mock)
        assert trace.succeeded and trace.final_value == 2.0
        coder_calls = [c for c in mock.calls if c.stage_tag == "coder"]
        assert len(coder_calls) == k + 1 and trace.attempts_used == k + 1

    mock = MockClient.from_list([{"stage": "coder", "reply": "answer = ("}])
    trace = solve(prompt, table, mock)
    assert not trace.succeeded
    assert trace.final_value is None
    assert len(trace.attempts) == 5
    ok("solve uses exactly k+1 coder calls for k=0..4 scripted failures; "
       "5 failures yield a 5-entry trace and no final value")


def test_end_to_end_deterministic_bench(tmp_path):
    tables_dir, questions_path, mock_path = e2e_fixtures.write_fixture(tmp_path)
    out_dir = str(tmp_path / "bench_out")
    result = CliRunner().invoke(cli_main, [
        "bench", questions_path, "--tables-dir", tables_dir,
        "--mock", mock_path, "--repetitions", "2", "--out-dir", out_dir,
    ])
    assert result.exit_code == 0, result.output

    preds = {}
    with open(os.path.join(out_dir, "predictions.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            preds[obj["id"]] = obj["answer"]
    assert preds == e2e_fixtures.EXPECTED  # five answers + one abstain

    runs, votes = e2e_fixtures.read_run_log(os.path.join(out_dir, "trace"))
    run = next(r for r in runs if r["question_id"] == "q1" and r["repetition"] == 0)
    for artifact in ("explainer_prompt", "instruction_set", "coder_prompt", "run_trace"):
        assert artifact in run, artifact
    assert any(a.get("plan_text") for a in run["run_trace"]["attempts"])
    assert any(v["question_id"] == "q1" for v in votes)
    ok("deterministic mock bench answers all 6 fixture questions "
       "(one per answer type, one abstain) with full per-question traces")


def _rec(rep, answer, failure=None):
    return RunRecord("q", rep, answer=answer, failure=failure)


def test_ensemble_voting_and_curve(tmp_path):
    tables_dir, questions_path, mock_path = e2e_fixtures.write_fixture(tmp_path)
    questions = load_questions(questions_path)
    ctx = PipelineContext(llm=MockClient.from_file(mock_path),
                          cache_dir=str(tmp_path / "cache"))

    finals, records = ensemble_answers(questions, tables_dir, ctx,
                                       EnsembleConfig(repetitions=1))
    single = {r.question_id: r.answer
              for r in run_pipeline_batch(questions, tables_dir, ctx)}
    assert all(finals[q.id] == single[q.id] for q in questions)

    num = lambda x: Answer(AnswerType.NUMBER, float(x))
    cfg = EnsembleConfig()
    assert vote([_rec(0, num(1)), _rec(1, num(2)), _rec(2, num(2))], cfg).value == 2.0
    a, b = Answer(AnswerType.CATEGORY, "a"), Answer(AnswerType.CATEGORY, "b")
    assert vote([_rec(0, b), _rec(1, a), _rec(2, a), _rec(3, b)], cfg).value == "b"
    sentinel = Answer(AnswerType.CATEGORY, "No matching records were found")
    assert vote([_rec(0, sentinel), _rec(1, sentinel), _rec(2, num(9))],
                cfg).value == 9.0
    assert vote([_rec(0, sentinel), _rec(1, None, failure="x")], cfg) is None

    finals8, records8 = ensemble_answers(questions, tables_dir, ctx,
                                         EnsembleConfig(repetitions=4))
    bench_accuracy = score([(q, finals8[q.id]) for q in questions]).overall_accuracy
    curve = ensemble_curve(records8, questions)
    assert curve[-1] == (4, pytest.approx(bench_accuracy))
    ok("repetitions=1 equals a single pass; plurality, tie-break and "
       "sentinel discarding behave as documented; curve at n=max equals "
       "the bench accuracy")


def test_scorer_71_of_100():
    types = list(AnswerType)
    questions = []
    preds = []
    for i in range(100):
        at = types[i % len(types)]
        gold_value = {
            AnswerType.BOOLEAN: True,
            AnswerType.NUMBER: float(i),
            AnswerType.CATEGORY: f"cat{i}",
            AnswerType.LIST_CATEGORY: [f"a{i}", f"b{i}"],
            AnswerType.LIST_NUMBER: [float(i), float(i + 1)],
        }[at]
        q = Question(f"q{i}", "t", "?", at, gold=Answer(at, gold_value))
        correct = i < 71
        if correct:
            pred = Answer(at, gold_value)
        elif i % 7 == 6:
            pred = None  # abstain counts as wrong
        else:
            wrong_value = {
                AnswerType.BOOLEAN: False,
                AnswerType.NUMBER: float(i) + 5.0,
                AnswerType.CATEGORY: "other",
                AnswerType.LIST_CATEGORY: ["x"],
                AnswerType.LIST_NUMBER: [-1.0],
            }[at]
            pred = Answer(at, wrong_value)
        questions.append((q, correct))
        preds.append((q, pred))

    report = score(preds)
    assert report.overall_count == 100
    assert report.overall_accuracy == pytest.approx(0.71)
    for at in types:
        expected_n = sum(1 for q, _ in questions if q.answer_type is at)
        expected_correct = sum(1 for q, c in questions if q.answer_type is at and c)
        acc, n = report.per_type[at.value]
        assert n == expected_n
        assert acc == pytest.approx(expected_correct / expected_n)
    assert "0.71" in report.to_text()
    ok("71-of-100 synthetic predictions score overall 0.71 with per-type "
       "columns matching a brute-force recount")


def test_formatter_category_byte_identity():
    for text in ("+65", "18-24", "PP (Partido Popular)"):
        assert format_answer(text, AnswerType.CATEGORY).value == text
        assert format_answer([text], AnswerType.LIST_CATEGORY).value == [text]
    ok("Category formatting is byte-identity on '+65', '18-24' and "
       "'PP (Partido Popular)'")
