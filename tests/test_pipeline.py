import collections
import dataclasses
import errno
import json
import math
import os
import random
import re
import shutil
import sys
import threading
import time
import weakref

import pytest
from hypothesis import given, strategies as st

import e2e_fixtures
import reference as ref
from tableqa import pipeline, planlang, runner, selector
from tableqa.answerer import Answer, AnswerType
from tableqa.llm_client import LLMError, MockClient
from tableqa.pipeline import (
    EnsembleConfig,
    PipelineContext,
    Question,
    RunRecord,
    ensemble_answers,
    ensemble_curve,
    load_questions,
    load_table_profiles,
    run_pipeline_batch,
    score,
    vote,
)
from tableqa.profiler import (
    ProfileCache,
    describe_requests,
    fallback_description,
    profile_table,
    table_fingerprint,
)


@pytest.fixture
def e2e(tmp_path):
    tables_dir, questions_path, mock_path = e2e_fixtures.write_fixture(tmp_path)
    questions = load_questions(questions_path)
    ctx = PipelineContext(
        llm=e2e_fixtures.Recording(MockClient.from_file(mock_path)),
        cache_dir=str(tmp_path / "cache"),
        trace_dir=str(tmp_path / "trace"),
    )
    return tables_dir, questions, ctx, tmp_path


def answer_dict(answer):
    return answer.to_dict() if answer is not None else None


class TestRunPipelineBatch:
    def test_end_to_end_answers(self, e2e):
        tables_dir, questions, ctx, _ = e2e
        records = run_pipeline_batch(questions, tables_dir, ctx)
        by_id = {r.question_id: r for r in records}
        for qid, expected in e2e_fixtures.EXPECTED.items():
            if expected is None:
                assert not by_id[qid].succeeded
                assert by_id[qid].failure.startswith("solve:")
            else:
                assert answer_dict(by_id[qid].answer) == expected, qid

    def test_profiler_runs_once_for_shared_table(self, e2e):
        tables_dir, questions, ctx, _ = e2e
        run_pipeline_batch(questions, tables_dir, ctx)
        descriptor_calls = [c for c in ctx.llm.calls if c.stage_tag == "descriptor"]
        assert len(descriptor_calls) == 1
        # second batch: cache hit, no new descriptor calls
        run_pipeline_batch(questions, tables_dir, ctx)
        descriptor_calls = [c for c in ctx.llm.calls if c.stage_tag == "descriptor"]
        assert len(descriptor_calls) == 1

    def test_failed_question_does_not_abort_batch(self, e2e):
        tables_dir, questions, ctx, _ = e2e
        records = run_pipeline_batch(questions, tables_dir, ctx)
        assert len(records) == len(questions)
        assert sum(1 for r in records if r.succeeded) == 5

    def test_empty_question_list(self, e2e):
        tables_dir, _, ctx, _ = e2e
        assert run_pipeline_batch([], tables_dir, ctx) == []

    def test_trace_artifacts_written(self, e2e):
        tables_dir, questions, ctx, tmp_path = e2e
        run_pipeline_batch(questions, tables_dir, ctx)
        runs, votes = e2e_fixtures.read_run_log(tmp_path / "trace")
        assert [r["question_id"] for r in runs] == [q.id for q in questions]
        assert list(runs[0]) == ["question_id", "repetition", "answer", "failure",
                                 "selector", "explainer_prompt", "instruction_set",
                                 "coder_prompt", "run_trace"]
        inst = runs[0]["instruction_set"]
        assert any(line.startswith("Be careful!.") for line in inst["instructions"])
        assert votes == []  # a batch does not vote


def mk_record(rep, answer, failure=None):
    return RunRecord("q", rep, answer=answer, failure=failure)


def num(x):
    return Answer(AnswerType.NUMBER, float(x))


class TestTraceWriter:
    @pytest.mark.parametrize("qid", ["../x", "a/b", "..", ".", "", "a\\b", "a%2Fb",
                                     "\ud800x"])
    def test_unsafe_ids_stay_under_the_root(self, e2e, qid):
        """A question id is data in the run log, never a path."""
        tables_dir, questions, ctx, _ = e2e
        asked = [dataclasses.replace(questions[1], id=qid)]
        finals, _ = ensemble_answers(asked, tables_dir, ctx, EnsembleConfig(repetitions=2))
        runs, votes = e2e_fixtures.read_run_log(ctx.trace_dir)
        assert [r["question_id"] for r in runs + votes] == [qid] * 3
        assert answer_dict(finals[qid]) == e2e_fixtures.EXPECTED["q2"]
        assert os.listdir(ctx.trace_dir) == ["runs.jsonl"]


SENTINEL = "No matching records were found"
VOTE_ANSWERS = [
    num(1), num(2),
    Answer(AnswerType.CATEGORY, "a"), Answer(AnswerType.CATEGORY, "A"),
    Answer(AnswerType.CATEGORY, SENTINEL),
    Answer(AnswerType.LIST_CATEGORY, ["x", SENTINEL]),
    Answer(AnswerType.LIST_CATEGORY, ["x", "y"]),
    Answer(AnswerType.LIST_NUMBER, [1.0, 2.0]),
    Answer(AnswerType.BOOLEAN, False),
]


class TestVote:
    def test_plurality(self):
        records = [mk_record(i, num(2)) for i in range(5)]
        records += [mk_record(5 + i, num(3)) for i in range(2)]
        records += [mk_record(7, None, failure="solve: boom")]
        assert vote(records, EnsembleConfig()).value == 2.0

    def test_all_discarded_abstains(self):
        records = [mk_record(i, None, failure="x") for i in range(8)]
        assert vote(records, EnsembleConfig()) is None

    def test_tie_break_lowest_first_repetition(self):
        a = Answer(AnswerType.CATEGORY, "a")
        b = Answer(AnswerType.CATEGORY, "b")
        records = [mk_record(1, b), mk_record(2, a), mk_record(3, a),
                   mk_record(4, b), mk_record(5, a), mk_record(6, b)]
        assert vote(records, EnsembleConfig()).value == "b"

    def test_sentinel_discarded(self):
        sentinel = Answer(AnswerType.CATEGORY, "No matching records were found")
        records = [mk_record(0, sentinel), mk_record(1, sentinel),
                   mk_record(2, sentinel), mk_record(3, num(7))]
        assert vote(records, EnsembleConfig()).value == 7.0

    def test_permutation_invariant_without_ties(self):
        records = [mk_record(0, num(1)), mk_record(1, num(2)), mk_record(2, num(2))]
        import itertools
        for perm in itertools.permutations(records):
            assert vote(list(perm), EnsembleConfig()).value == 2.0

    @given(st.lists(st.one_of(st.none(), st.sampled_from(VOTE_ANSWERS)), max_size=12),
           st.randoms(use_true_random=False))
    def test_matches_reference(self, answers, rng):
        """Any mix of answers, ties, sentinels and failed runs, in any
        record order, votes as the brute-force reference does."""
        records = [mk_record(rep, a, failure=None if a else "solve: boom")
                   for rep, a in enumerate(answers)]
        rng.shuffle(records)
        assert vote(records, EnsembleConfig()) == ref.ref_vote(records, [SENTINEL])

    def test_counts_what_the_scorer_counts(self):
        """Three of five runs give the gold up to order, case and spaces;
        the two identical wrong runs must not outvote them."""
        runs = [["Madrid", "Sevilla"], ["Sevilla", "Madrid"], ["Bilbao"], ["Bilbao"],
                ["Madrid ", "sevilla"]]
        records = [mk_record(rep, Answer(AnswerType.LIST_CATEGORY, value))
                   for rep, value in enumerate(runs)]
        assert vote(records, EnsembleConfig()).value == ["Madrid", "Sevilla"]

    @pytest.mark.parametrize("shared", [False, True], ids=["separate", "shared"])
    def test_nan_answers_vote_as_one_class(self, shared):
        """Two NaN runs outvote two single runs, whether the NaNs are one
        float object or two (as when each run computes its own)."""
        nans = [math.nan] * 2 if shared else [float("nan"), float("nan")]
        records = [mk_record(rep, num(x)) for rep, x in enumerate([1.0, *nans, 2.0])]
        assert math.isnan(vote(records, EnsembleConfig()).value)


class TestEnsemble:
    def test_repetitions_one_equals_single_run(self, e2e):
        tables_dir, questions, ctx, _ = e2e
        finals, _ = ensemble_answers(questions, tables_dir, ctx,
                                     EnsembleConfig(repetitions=1))
        single = {r.question_id: r.answer
                  for r in run_pipeline_batch(questions, tables_dir, ctx)}
        for q in questions:
            assert finals[q.id] == single[q.id]

    def test_eight_repetitions_deterministic_mock(self, e2e):
        tables_dir, questions, ctx, _ = e2e
        finals, records = ensemble_answers(questions, tables_dir, ctx,
                                           EnsembleConfig(repetitions=8))
        assert all(len(recs) == 8 for recs in records.values())
        for qid, expected in e2e_fixtures.EXPECTED.items():
            assert answer_dict(finals[qid]) == expected

    def test_a_logged_run_lets_go_of_its_artifacts(self, e2e, monkeypatch):
        tables_dir, questions, ctx, _ = e2e
        ctx.concurrency = 1

        class Probe:
            pass

        probes = []
        real_run_one = pipeline._run_one

        def probed_run_one(q, repetition, loaded, llm, artifacts):
            artifacts["probe"] = Probe()
            probes.append(weakref.ref(artifacts["probe"]))
            return real_run_one(q, repetition, loaded, llm, artifacts)

        alive = []  # probes alive at each run line
        real_write = pipeline.TraceWriter.write

        def counting_write(self, line):
            if "probe" in line:
                alive.append(sum(p() is not None for p in probes))
                line = {k: v for k, v in line.items() if k != "probe"}
            real_write(self, line)

        monkeypatch.setattr(pipeline, "_run_one", probed_run_one)
        monkeypatch.setattr(pipeline.TraceWriter, "write", counting_write)
        ensemble_answers(questions, tables_dir, ctx, EnsembleConfig(repetitions=8))
        # Every run has finished by the last line; only that line's own
        # artifacts are still held.
        assert len(alive) == 8 * len(questions)
        assert alive[-1] == 1

    def test_votes_trace_written(self, e2e):
        tables_dir, questions, ctx, tmp_path = e2e
        ensemble_answers(questions, tables_dir, ctx, EnsembleConfig(repetitions=2))
        lines = (tmp_path / "trace" / "runs.jsonl").read_text("utf-8").splitlines()
        assert len(lines) == 2 * len(questions) + len(questions)
        runs, votes = e2e_fixtures.read_run_log(tmp_path / "trace")
        assert lines[-len(votes):] == [json.dumps(v, ensure_ascii=False) for v in votes]
        assert [(r["repetition"], r["question_id"]) for r in runs] == [
            (rep, q.id) for rep in range(2) for q in questions]
        assert [v["question_id"] for v in votes] == [q.id for q in questions]
        assert votes[1] == {"question_id": "q2", "final": {"type": "Number", "value": 3.0}}

    def test_logged_prompts_are_the_ones_sent(self, e2e):
        tables_dir, questions, ctx, _ = e2e
        ctx.concurrency = 1
        ensemble_answers(questions, tables_dir, ctx, EnsembleConfig(repetitions=2))
        runs, _ = e2e_fixtures.read_run_log(ctx.trace_dir)
        # At concurrency 1 the runs call the LLM one after another, each
        # starting with its one selector chunk.
        sent = []
        for call in ctx.llm.calls:
            if call.stage_tag == "selector":
                sent.append({})
            if call.stage_tag != "descriptor":
                sent[-1].setdefault(call.stage_tag, call.last_user_content)
        assert len(sent) == len(runs) == 2 * len(questions)
        for run, first in zip(runs, sent):
            assert run["explainer_prompt"] == first["explainer"]
            assert run["coder_prompt"] == first["coder"]


class TestScore:
    def test_e2e_accuracy(self, e2e):
        tables_dir, questions, ctx, _ = e2e
        finals, _ = ensemble_answers(questions, tables_dir, ctx,
                                     EnsembleConfig(repetitions=1))
        report = score([(q, finals[q.id]) for q in questions])
        assert report.overall_count == 6
        assert report.overall_accuracy == pytest.approx(5 / 6)
        # q6 abstained: its Number bucket is 1 of 2 correct
        assert report.per_type["Number"] == (pytest.approx(0.5), 2)
        assert report.per_type["Boolean"] == (1.0, 1)

    def test_missing_gold_excluded(self):
        q1 = Question("a", "t", "?", AnswerType.NUMBER, gold=num(1))
        q2 = Question("b", "t", "?", AnswerType.NUMBER, gold=None)
        report = score([(q1, num(1)), (q2, num(1))])
        assert report.overall_count == 1
        assert report.skipped == ["b"]

    def test_type_without_questions_omitted(self):
        q = Question("a", "t", "?", AnswerType.NUMBER, gold=num(1))
        report = score([(q, num(1))])
        assert list(report.per_type.keys()) == ["Number"]

    def test_text_table_layout(self):
        q = Question("a", "t", "?", AnswerType.NUMBER, gold=num(1))
        text = score([(q, num(1))]).to_text()
        assert "Total" in text and "Score" in text and "Size" in text


def _write_questions(tmp_path, answer_type, answer):
    path = tmp_path / "questions.jsonl"
    path.write_text(json.dumps({"id": "g1", "table_id": "t", "question": "?",
                                "answer_type": answer_type, "answer": answer},
                               ensure_ascii=False) + "\n", encoding="utf-8")
    return str(path)


class TestLoadQuestions:
    @pytest.mark.parametrize("text, value", [
        ("False", False), ("no", False), (" No ", False),
        ("true", True), ("Sí", True), ("si", True),
    ])
    def test_boolean_text_gold_read_through_the_lexicon(self, tmp_path, text, value):
        [q] = load_questions(_write_questions(tmp_path, "Boolean", text))
        assert q.gold.value is value
        # A correct prediction scores as correct.
        assert score([(q, Answer(AnswerType.BOOLEAN, value))]).overall_accuracy == 1.0

    @pytest.mark.parametrize("answer_type, answer", [
        ("Boolean", "maybe"),
        ("Boolean", [True]),
        ("List[Category]", "PSOE"),
        ("List[Number]", 3),
        ("Number", "three"),
        ("Number", [3]),
    ])
    def test_unreadable_gold_names_the_question(self, tmp_path, answer_type, answer):
        path = _write_questions(tmp_path, answer_type, answer)
        pattern = f"^question 'g1': bad {re.escape(answer_type)}"
        with pytest.raises(ValueError, match=pattern):
            load_questions(path)

    @pytest.mark.parametrize("text, spelt", [
        (None, "null"), (3, "3"), (["Q?"], '["Q?"]'), ({"es": "Q?"}, '{"es": "Q?"}'),
    ], ids=["null", "number", "list", "object"])
    def test_question_text_must_be_a_string(self, tmp_path, text, spelt):
        path = tmp_path / "questions.jsonl"
        path.write_text(json.dumps({"id": "g1", "table_id": "t", "question": text,
                                    "answer_type": "Number"}) + "\n", encoding="utf-8")
        message = f"line 1: TypeError: question is {spelt}, not a string"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_questions(str(path))


    def test_table_id_may_name_a_subdirectory(self, tmp_path):
        tables_dir, _, mock_path = e2e_fixtures.write_fixture(tmp_path)
        os.mkdir(os.path.join(tables_dir, "2024..25"))
        os.rename(os.path.join(tables_dir, "encuestas.csv"),
                  os.path.join(tables_dir, "2024..25", "encuestas.csv"))
        path = tmp_path / "sub.jsonl"
        path.write_text(json.dumps({**e2e_fixtures.QUESTIONS[1], "table_id": "2024..25/encuestas"},
                                   ensure_ascii=False) + "\n", encoding="utf-8")
        questions = load_questions(str(path))
        [rec] = run_pipeline_batch(questions, tables_dir,
                                   PipelineContext(llm=MockClient.from_file(mock_path)))
        assert answer_dict(rec.answer) == e2e_fixtures.EXPECTED["q2"]


class TestEnsembleCurve:
    def _records(self, per_question):
        return {
            qid: [mk_record(i, a) if a else mk_record(i, None, failure="x")
                  for i, a in enumerate(answers)]
            for qid, answers in per_question.items()
        }

    def test_flat_curve_when_runs_identical(self):
        q = Question("a", "t", "?", AnswerType.NUMBER, gold=num(1))
        recs = self._records({"a": [num(1)] * 4})
        for qid_recs in recs.values():
            for r in qid_recs:
                r.question_id = "a"
        points = ensemble_curve(recs, [q])
        assert points == [(1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0)]

    def test_n1_equals_first_run(self):
        q = Question("a", "t", "?", AnswerType.NUMBER, gold=num(1))
        recs = self._records({"a": [num(2), num(1), num(1)]})
        points = ensemble_curve(recs, [q])
        assert points[0] == (1, 0.0)
        assert points[-1] == (3, 1.0)

    def test_votes_each_questions_first_n_logged_runs(self):
        # A log with a gap in its repetitions (0, 2, 3) still votes all
        # three runs at n = 3.
        q = Question("a", "t", "?", AnswerType.NUMBER, gold=num(1))
        recs = {"a": [mk_record(rep, num(a)) for rep, a in ((0, 2), (2, 1), (3, 1))]}
        assert ensemble_curve(recs, [q]) == [(1, 0.0), (2, 0.0), (3, 1.0)]

    def test_max_n_truncated_to_available(self):
        q = Question("a", "t", "?", AnswerType.NUMBER, gold=num(1))
        recs = self._records({"a": [num(1), num(1)]})
        assert ensemble_curve(recs, [q])[-1][0] == 2


class _ShuffledDelays:
    """MockClient wrapper that sleeps a seeded delay picked by the call's
    ordinal among calls with the same stage and prompt, which tracks the
    repetition the call belongs to, so concurrent runs finish out of
    order."""

    def __init__(self, inner, repetitions, seed=7):
        self.inner = inner
        rng = random.Random(seed)
        self.delays = [rng.uniform(0.0, 0.004) for _ in range(repetitions)]
        self.ordinals = collections.Counter()
        self.lock = threading.Lock()

    def complete(self, req):
        key = (req.stage_tag, req.last_user_content)
        with self.lock:
            ordinal = self.ordinals[key]
            self.ordinals[key] += 1
        time.sleep(self.delays[ordinal % len(self.delays)])
        return self.inner.complete(req)


class _InFlight:
    """An LLM that holds each call open briefly and records the most
    `complete` calls ever in flight at once."""

    def __init__(self, inner, seconds=0.005):
        self.inner = inner
        self.seconds = seconds
        self.now = self.peak = 0
        self.lock = threading.Lock()

    def complete(self, req):
        with self.lock:
            self.now += 1
            self.peak = max(self.peak, self.now)
        try:
            time.sleep(self.seconds)
            return self.inner.complete(req)
        finally:
            with self.lock:
                self.now -= 1


def _context(tmp_path, name, llm, concurrency, cache=True):
    return PipelineContext(
        llm=llm,
        cache_dir=str(tmp_path / name / "cache") if cache else None,
        trace_dir=str(tmp_path / name / "trace"),
        concurrency=concurrency,
    )


class _CallCounter:
    """Counts completed LLM calls and sets `reached` once `target` have."""

    def __init__(self, inner):
        self.inner = inner
        self.done = 0
        self.target = None
        self.reached = threading.Event()
        self.lock = threading.Lock()

    def complete(self, req):
        reply = self.inner.complete(req)
        with self.lock:
            self.done += 1
            if self.target is not None and self.done >= self.target:
                self.reached.set()
        return reply


def _outcomes(records):
    return {qid: [(r.repetition, answer_dict(r.answer), r.failure) for r in recs]
            for qid, recs in records.items()}


class TestConcurrentEnsemble:
    def test_each_table_loaded_and_described_once(self, tmp_path, monkeypatch):
        tables_dir, questions_path, mock_path = e2e_fixtures.write_fixture(tmp_path)
        shutil.copy(os.path.join(tables_dir, "encuestas.csv"),
                    os.path.join(tables_dir, "encuestas2.csv"))
        questions = load_questions(questions_path)
        questions[1].table_id = "encuestas2"
        loads = collections.Counter()
        real_load_csv = pipeline.load_csv

        def counting_load_csv(path, *args, **kwargs):
            loads[os.path.basename(path)] += 1
            return real_load_csv(path, *args, **kwargs)

        monkeypatch.setattr(pipeline, "load_csv", counting_load_csv)
        mock = e2e_fixtures.Recording(MockClient.from_file(mock_path))
        ctx = _context(tmp_path, "run", mock, concurrency=4, cache=False)
        finals, _ = ensemble_answers(questions[:2], tables_dir, ctx,
                                     EnsembleConfig(repetitions=8))
        assert loads == {"encuestas.csv": 1, "encuestas2.csv": 1}
        assert sum(c.stage_tag == "descriptor" for c in mock.calls) == 2
        assert answer_dict(finals["q2"]) == e2e_fixtures.EXPECTED["q2"]

    def test_out_of_order_completion_keeps_repetition_order(self, tmp_path,
                                                            monkeypatch):
        tables_dir, questions_path, mock_path = e2e_fixtures.write_fixture(tmp_path)
        questions = load_questions(questions_path)
        reps = 8
        serial_ctx = _context(tmp_path, "serial", MockClient.from_file(mock_path), 1)
        serial_finals, serial_records = ensemble_answers(
            questions, tables_dir, serial_ctx, EnsembleConfig(repetitions=reps))

        finished = []
        real_run_one = pipeline._run_one

        def recording_run_one(q, repetition, *args):
            rec = real_run_one(q, repetition, *args)
            finished.append((repetition, q.id))
            return rec

        monkeypatch.setattr(pipeline, "_run_one", recording_run_one)
        llm = _ShuffledDelays(MockClient.from_file(mock_path), reps)
        ctx = _context(tmp_path, "concurrent", llm, concurrency=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            start = time.monotonic()
            finals, records = ensemble_answers(questions, tables_dir, ctx,
                                               EnsembleConfig(repetitions=reps))
            assert time.monotonic() - start < 30.0
        finally:
            sys.setswitchinterval(interval)

        submitted = [(rep, q.id) for rep in range(reps) for q in questions]
        assert sorted(finished) == submitted and finished != submitted
        assert _outcomes(records) == _outcomes(serial_records)
        assert finals == serial_finals
        logs = [_read_tree(c.trace_dir) for c in (serial_ctx, ctx)]
        assert list(logs[0]) == ["runs.jsonl"]
        assert logs[0] == logs[1]

    def test_serial_prompt_order_per_stage(self, tmp_path):
        tables_dir, questions_path, mock_path = e2e_fixtures.write_fixture(tmp_path)
        questions = load_questions(questions_path)
        reps = 3
        reference = e2e_fixtures.Recording(MockClient.from_file(mock_path))
        reference_ctx = _context(tmp_path, "reference", reference, 1)
        for rep in range(reps):
            for q in questions:
                run_pipeline_batch([q], tables_dir, reference_ctx, rep)
        mock = e2e_fixtures.Recording(MockClient.from_file(mock_path))
        ensemble_answers(questions, tables_dir, _context(tmp_path, "run", mock, 1),
                         EnsembleConfig(repetitions=reps))

        def per_stage(calls):
            prompts = collections.defaultdict(list)
            for c in calls:
                prompts[c.stage_tag].append(c.last_user_content)
            return dict(prompts)

        assert per_stage(mock.calls) == per_stage(reference.calls)
        selector_order = [next(q.id for q in questions if q.text in c.last_user_content)
                          for c in mock.calls if c.stage_tag == "selector"]
        assert selector_order == [q.id for _ in range(reps) for q in questions]

    def test_llm_failure_is_contained_to_its_question(self, tmp_path):
        tables_dir, questions_path, _ = e2e_fixtures.write_fixture(tmp_path)
        questions = load_questions(questions_path)
        script = [e for e in e2e_fixtures.MOCK_SCRIPT
                  if not (e["stage"] == "explainer"
                          and e.get("match") == "partido más frecuente")]
        ctx = _context(tmp_path, "run", MockClient.from_list(script), 4)
        finals, records = ensemble_answers(questions, tables_dir, ctx,
                                           EnsembleConfig(repetitions=3))
        assert finals["q3"] is None
        assert all(r.failure.startswith("explain: ") for r in records["q3"])
        runs, _ = e2e_fixtures.read_run_log(ctx.trace_dir)
        q3 = [r for r in runs if r["question_id"] == "q3"]
        assert len(q3) == 3
        assert all(r["traceback"].startswith("Traceback") and "instruction_set" not in r
                   for r in q3)
        for qid, expected in e2e_fixtures.EXPECTED.items():
            if qid != "q3":
                assert answer_dict(finals[qid]) == expected, qid

    def test_unloadable_table_fails_its_questions_only(self, e2e):
        tables_dir, questions, ctx, _ = e2e
        questions[0].table_id = "missing"
        finals, records = ensemble_answers(questions, tables_dir, ctx,
                                           EnsembleConfig(repetitions=2))
        assert all(r.failure.startswith("profile: ") for r in records["q1"])
        assert answer_dict(finals["q2"]) == e2e_fixtures.EXPECTED["q2"]

    def test_concurrency_bounds_llm_calls_in_flight(self, tmp_path):
        """The pool of `concurrency` workers is the only bound on open
        LLM calls: at 2 they overlap, and never more than 2 at once."""
        tables_dir, questions_path, mock_path = e2e_fixtures.write_fixture(tmp_path)
        llm = _InFlight(MockClient.from_file(mock_path))
        ctx = _context(tmp_path, "run", llm, concurrency=2)
        finals, _ = ensemble_answers(load_questions(questions_path), tables_dir, ctx,
                                     EnsembleConfig(repetitions=8))
        assert llm.peak == 2
        assert {q: answer_dict(a) for q, a in finals.items()} == e2e_fixtures.EXPECTED

    def test_log_write_failure_fails_that_run_and_every_later_one(self, tmp_path,
                                                                    monkeypatch):
        tables_dir, questions_path, mock_path = e2e_fixtures.write_fixture(tmp_path)
        questions = load_questions(questions_path)
        logs = []
        real_open = open

        class FullDisk:
            """The run log's file, whose third write finds the disk full.
            Closing it then raises too, as a buffered file does when it
            retries the failed write."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, text):
                self.writes += 1
                if self.writes >= 3:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.fh.write(text)

            def close(self):
                self.fh.close()
                if self.writes >= 3:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def __getattr__(self, name):
                return getattr(self.fh, name)

        def full_disk_open(path, *args, **kwargs):
            fh = real_open(path, *args, **kwargs)
            if os.path.basename(path) == "runs.jsonl":
                logs.append(fh := FullDisk(fh))
            return fh

        monkeypatch.setattr(pipeline, "open", full_disk_open, raising=False)
        ctx = _context(tmp_path, "run", MockClient.from_file(mock_path), 4)
        finals, records = ensemble_answers(questions, tables_dir, ctx,
                                           EnsembleConfig(repetitions=2))
        in_order = [records[q.id][rep] for rep in range(2) for q in questions]
        assert [answer_dict(r.answer) for r in in_order[:2]] == [
            e2e_fixtures.EXPECTED["q1"], e2e_fixtures.EXPECTED["q2"]]
        full = f"trace: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert [(r.answer, r.failure) for r in in_order[2:]] == [(None, full)] * 10
        assert {q: answer_dict(a) for q, a in finals.items()} == {
            **dict.fromkeys(finals), "q1": e2e_fixtures.EXPECTED["q1"],
            "q2": e2e_fixtures.EXPECTED["q2"]}
        runs, votes = e2e_fixtures.read_run_log(ctx.trace_dir)
        assert [(r["question_id"], r["repetition"]) for r in runs] == [("q1", 0), ("q2", 0)]
        assert votes == []
        assert len(logs) == 1 and logs[0].writes == 3 and logs[0].fh.closed

    def test_unopenable_log_fails_every_run(self, tmp_path):
        tables_dir, questions_path, mock_path = e2e_fixtures.write_fixture(tmp_path)
        ctx = _context(tmp_path, "run", MockClient.from_file(mock_path), 4)
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "trace").write_text("not a directory", encoding="utf-8")
        finals, records = ensemble_answers(load_questions(questions_path), tables_dir,
                                           ctx, EnsembleConfig(repetitions=2))
        failure = f"trace: [Errno 17] File exists: '{ctx.trace_dir}'"
        assert [(r.answer, r.failure) for recs in records.values() for r in recs] == [
            (None, failure)] * 12
        assert set(finals.values()) == {None}
        assert (tmp_path / "run" / "trace").read_text("utf-8") == "not a directory"

    def test_trace_writes_do_not_hold_up_other_runs(self, tmp_path, monkeypatch):
        """The calling thread writes the run log while the runs go on, so
        a slow disk under the log does not stop them."""
        tables_dir, questions_path, mock_path = e2e_fixtures.write_fixture(tmp_path)
        llm = _CallCounter(MockClient.from_file(mock_path))
        progress = []
        real_write = pipeline.TraceWriter.write

        def blocking_write(self, *args):
            with llm.lock:
                first = llm.target is None
                if first:
                    start, llm.target = llm.done, llm.done + 10
            if first:
                llm.reached.wait(timeout=5.0)
                with llm.lock:
                    progress.append(llm.done - start)
            real_write(self, *args)

        monkeypatch.setattr(pipeline.TraceWriter, "write", blocking_write)
        ctx = _context(tmp_path, "run", llm, concurrency=4)
        finals, _ = ensemble_answers(load_questions(questions_path), tables_dir, ctx,
                                     EnsembleConfig(repetitions=8))
        assert progress and progress[0] >= 10
        assert {q: answer_dict(a) for q, a in finals.items()} == e2e_fixtures.EXPECTED

    def test_concurrency_must_be_positive(self):
        with pytest.raises(ValueError, match="concurrency"):
            PipelineContext(llm=None, concurrency=0)


WIDE_COLUMNS = 60  # three descriptor chunks per table


def _write_wide_tables(tables_dir, rows=(3, 4)):
    """Tables wide_a and wide_b of WIDE_COLUMNS columns (a0.., b0..) with
    3 and 4 rows, and a mock script that describes every column, keeps
    the first one and counts the rows."""
    os.makedirs(tables_dir, exist_ok=True)
    names = {}
    for prefix, n_rows in zip("ab", rows):
        names[prefix] = [f"{prefix}{i}" for i in range(WIDE_COLUMNS)]
        lines = [",".join(names[prefix])]
        lines += [",".join(f"v{r}x{i}" for i in range(WIDE_COLUMNS)) for r in range(n_rows)]
        with open(os.path.join(tables_dir, f"wide_{prefix}.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    described = {n: f"Described {n}" for ns in names.values() for n in ns}
    return [
        {"stage": "descriptor", "reply": json.dumps(described)},
        {"stage": "selector", "reply": json.dumps(["a0", "b0"])},
        {"stage": "explainer", "reply": e2e_fixtures._inst(["Count the rows"], [])},
        {"stage": "coder", "reply": "answer = count_rows(df)"},
    ]


def _wide_questions(*table_ids):
    return [Question(f"q_{t}", t, f"¿Cuántas filas tiene {t}?", AnswerType.NUMBER)
            for t in table_ids]


class _Held:
    """An LLM that holds each call open for `seconds` and records the most
    calls ever open at once, per stage and over all.  With `gather`, a
    descriptor call is held until that many descriptor calls are open
    (at most a second), so a wave that is sent together is seen whole."""

    def __init__(self, inner, seconds=0.02, gather=None):
        self.inner, self.seconds, self.gather = inner, seconds, gather
        self.open = collections.Counter()
        self.peak = collections.Counter()
        self.cond = threading.Condition()

    def complete(self, req):
        stage = req.stage_tag
        with self.cond:
            self.open[stage] += 1
            self.open["all"] += 1
            for key in (stage, "all"):
                self.peak[key] = max(self.peak[key], self.open[key])
            self.cond.notify_all()
            if stage == "descriptor" and self.gather:
                self.cond.wait_for(lambda: self.open[stage] >= self.gather, timeout=1.0)
        try:
            time.sleep(self.seconds)
            return self.inner.complete(req)
        finally:
            with self.cond:
                self.open[stage] -= 1
                self.open["all"] -= 1


def _read_tree(root):
    """{relative path: bytes} of every file under root."""
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


class TestDescriptorFanOut:
    """Every cache-missing table's descriptor requests go out on the run
    pool, each table's before any of its runs starts."""

    def test_all_tables_chunks_in_flight_at_once(self, tmp_path):
        tables_dir = str(tmp_path / "tables")
        llm = _Held(MockClient.from_list(_write_wide_tables(tables_dir)), gather=6)
        ctx = _context(tmp_path, "run", llm, concurrency=8)
        finals, _ = ensemble_answers(_wide_questions("wide_a", "wide_b"), tables_dir,
                                     ctx, EnsembleConfig(repetitions=2))
        assert llm.peak["descriptor"] == 6
        assert {q: answer_dict(a) for q, a in finals.items()} == {
            "q_wide_a": {"type": "Number", "value": 3.0},
            "q_wide_b": {"type": "Number", "value": 4.0}}

    def test_concurrency_bounds_descriptor_requests_too(self, tmp_path):
        tables_dir = str(tmp_path / "tables")
        llm = _Held(MockClient.from_list(_write_wide_tables(tables_dir)))
        ctx = _context(tmp_path, "run", llm, concurrency=2)
        ensemble_answers(_wide_questions("wide_a", "wide_b"), tables_dir, ctx,
                         EnsembleConfig(repetitions=2))
        assert llm.peak["all"] == 2
        assert llm.peak["descriptor"] == 2

    def test_serial_and_concurrent_outputs_are_byte_identical(self, tmp_path):
        tables_dir = str(tmp_path / "tables")
        script = _write_wide_tables(tables_dir)
        questions = _wide_questions("wide_a", "wide_b")
        outputs = []
        for concurrency in (1, 8):
            ctx = _context(tmp_path, f"c{concurrency}", MockClient.from_list(script),
                           concurrency)
            finals, _ = ensemble_answers(questions, tables_dir, ctx,
                                         EnsembleConfig(repetitions=3))
            outputs.append((finals, _read_tree(ctx.trace_dir), _read_tree(ctx.cache_dir)))
        assert len(outputs[0][2]) == 2 and list(outputs[0][1]) == ["runs.jsonl"]
        assert outputs[0] == outputs[1]

    def test_serial_descriptor_prompts_keep_table_then_chunk_order(self, tmp_path):
        tables_dir = str(tmp_path / "tables")
        mock = e2e_fixtures.Recording(MockClient.from_list(_write_wide_tables(tables_dir)))
        expected = [req.last_user_content for t in ("wide_a", "wide_b")
                    for req in describe_requests(profile_table(
                        pipeline.load_csv(os.path.join(tables_dir, f"{t}.csv"))))]
        ensemble_answers(_wide_questions("wide_a", "wide_b", "wide_a"), tables_dir,
                         _context(tmp_path, "run", mock, 1), EnsembleConfig(repetitions=2))
        prompts = [c.last_user_content for c in mock.calls if c.stage_tag == "descriptor"]
        assert len(prompts) == 6
        assert prompts == expected

    def test_failed_chunk_keeps_only_its_columns_on_the_template(self, tmp_path):
        tables_dir = str(tmp_path / "tables")
        mock = e2e_fixtures.Recording(MockClient.from_list(_write_wide_tables(tables_dir)))

        class FailingChunk:
            def complete(self, req):
                if req.stage_tag == "descriptor" and "\n- a25 (" in req.last_user_content:
                    raise LLMError("chunk lost")
                return mock.complete(req)

        ctx = _context(tmp_path, "run", FailingChunk(), concurrency=8)
        finals, _ = ensemble_answers(_wide_questions("wide_a", "wide_b"), tables_dir,
                                     ctx, EnsembleConfig(repetitions=2))
        assert answer_dict(finals["q_wide_a"]) == {"type": "Number", "value": 3.0}
        described = {}  # as the selector prompts showed them
        for call in mock.calls:
            if call.stage_tag == "selector":
                for line in call.last_user_content.splitlines():
                    if line.startswith("- "):
                        name, _, text = line[2:].partition(": ")
                        described[name] = text
        table = pipeline.load_csv(os.path.join(tables_dir, "wide_a.csv"))
        for i, p in enumerate(profile_table(table)):
            if 25 <= i < 50:
                assert described[p.name] == fallback_description(p), p.name
            else:
                assert described[p.name] == f"Described {p.name}", p.name
        # No cache entry was written for wide_a; wide_b's chunks all parsed.
        with open(os.path.join(tables_dir, "wide_a.csv"), "rb") as fh:
            assert ProfileCache(ctx.cache_dir).get(table_fingerprint(fh.read())) is None
        assert len(os.listdir(ctx.cache_dir)) == 1

    def test_missing_table_between_two_fails_only_its_questions(self, tmp_path):
        tables_dir = str(tmp_path / "tables")
        llm = _Held(MockClient.from_list(_write_wide_tables(tables_dir)), gather=6)
        ctx = _context(tmp_path, "run", llm, concurrency=8)
        finals, records = ensemble_answers(
            _wide_questions("wide_a", "missing", "wide_b"), tables_dir, ctx,
            EnsembleConfig(repetitions=2))
        assert all(r.failure.startswith("profile: ") for r in records["q_missing"])
        assert finals["q_missing"] is None
        assert answer_dict(finals["q_wide_a"]) == {"type": "Number", "value": 3.0}
        assert answer_dict(finals["q_wide_b"]) == {"type": "Number", "value": 4.0}
        assert llm.peak["descriptor"] == 6

    def test_no_cache_dir_never_fingerprints(self, tmp_path, monkeypatch):
        tables_dir = str(tmp_path / "tables")
        script = _write_wide_tables(tables_dir)
        fingerprinted = []
        monkeypatch.setattr(pipeline, "table_fingerprint", fingerprinted.append)
        ctx = _context(tmp_path, "run", MockClient.from_list(script), 8, cache=False)
        finals, _ = ensemble_answers(_wide_questions("wide_a"), tables_dir, ctx,
                                     EnsembleConfig(repetitions=2))
        assert fingerprinted == []
        assert answer_dict(finals["q_wide_a"]) == {"type": "Number", "value": 3.0}


def _table_of(req):
    """Which wide table, "a" or "b", a descriptor or selector request is about."""
    text = req.last_user_content
    return "b" if "wide_b" in text or re.search(r"\n- b\d+ \(", text) else "a"


class TestRunsStartPerTable:
    """A table's runs are submitted right after its descriptor requests,
    before the next table loads, and each waits for its own table alone."""

    def test_first_table_runs_while_second_is_described(self, tmp_path):
        tables_dir = str(tmp_path / "tables")
        mock = MockClient.from_list(_write_wide_tables(tables_dir))
        a_selecting = threading.Event()
        b_answered_after_a_selected = []

        class SlowSecondTable:
            """wide_b's descriptor calls wait (at most 2 s) for wide_a's
            first selector request."""

            def complete(self, req):
                if req.stage_tag == "selector" and _table_of(req) == "a":
                    a_selecting.set()
                elif req.stage_tag == "descriptor" and _table_of(req) == "b":
                    b_answered_after_a_selected.append(a_selecting.wait(timeout=2.0))
                return mock.complete(req)

        ctx = _context(tmp_path, "run", SlowSecondTable(), concurrency=8)
        finals, _ = ensemble_answers(_wide_questions("wide_a", "wide_b"), tables_dir, ctx,
                                     EnsembleConfig(repetitions=2))
        assert b_answered_after_a_selected == [True] * 3
        assert {q: answer_dict(a) for q, a in finals.items()} == {
            "q_wide_a": {"type": "Number", "value": 3.0},
            "q_wide_b": {"type": "Number", "value": 4.0}}

    def test_failed_description_fails_only_its_table(self, tmp_path, monkeypatch):
        tables_dir = str(tmp_path / "tables")
        llm = _Held(MockClient.from_list(_write_wide_tables(tables_dir)))
        described = collections.Counter()
        real_describe = pipeline.describe_columns

        def describe(profiles, replies):
            described[profiles[0].name] += 1
            if profiles[0].name == "a0":
                raise RuntimeError("descriptions lost")
            return real_describe(profiles, replies)

        monkeypatch.setattr(pipeline, "describe_columns", describe)
        ctx = _context(tmp_path, "run", llm, concurrency=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            finals, records = ensemble_answers(_wide_questions("wide_a", "wide_b"),
                                               tables_dir, ctx, EnsembleConfig(repetitions=6))
        finally:
            sys.setswitchinterval(interval)
        assert described == {"a0": 1, "b0": 1}
        assert [r.failure for r in records["q_wide_a"]] == ["profile: descriptions lost"] * 6
        assert finals["q_wide_a"] is None
        assert answer_dict(finals["q_wide_b"]) == {"type": "Number", "value": 4.0}
        assert len(os.listdir(ctx.cache_dir)) == 1  # wide_b's profiles only

    def test_serial_prompts_go_table_by_table(self, tmp_path):
        tables_dir = str(tmp_path / "tables")
        mock = e2e_fixtures.Recording(MockClient.from_list(_write_wide_tables(tables_dir)))
        questions = [Question("q1", "wide_a", "¿Cuántas filas tiene wide_a?", AnswerType.NUMBER),
                     Question("q2", "wide_b", "¿Cuántas filas tiene wide_b?", AnswerType.NUMBER),
                     Question("q3", "wide_a", "¿Y filas en wide_a?", AnswerType.NUMBER)]
        ctx = _context(tmp_path, "run", mock, 1)
        ensemble_answers(questions, tables_dir, ctx, EnsembleConfig(repetitions=2))
        selector = [c for c in mock.calls if c.stage_tag == "selector"]
        per_run = len(selector) // 6
        order = [next(q.id for q in questions if q.text in c.last_user_content)
                 for c in selector]
        assert order == [qid for qid in ("q1", "q3", "q1", "q3", "q2", "q2")
                         for _ in range(per_run)]
        # wide_b's descriptor requests go out after wide_a's runs.
        assert [(c.stage_tag, _table_of(c)) for c in mock.calls
                if c.stage_tag in ("descriptor", "selector")] == (
            [("descriptor", "a")] * 3 + [("selector", "a")] * 4 * per_run
            + [("descriptor", "b")] * 3 + [("selector", "b")] * 2 * per_run)
        # The run log stays in repetition order, questions in order.
        runs, _ = e2e_fixtures.read_run_log(ctx.trace_dir)
        assert [(r["question_id"], r["repetition"]) for r in runs] == [
            (q.id, rep) for rep in range(2) for q in questions]


class _Down:
    """A backend that refuses every call."""

    def complete(self, req):
        raise LLMError("connection refused")


class TestProfileCacheAfterOutage:
    """Only profiles whose every descriptor chunk got a reply that parsed
    are cached; a template would otherwise outlive the outage."""

    @pytest.mark.parametrize("llm", [_Down(), MockClient.from_list(
        [{"stage": "descriptor", "reply": "no JSON here"}]), None],
        ids=["refused", "unparsed", "offline"])
    def test_template_descriptions_are_not_cached(self, tmp_path, llm):
        tables_dir, _, mock_path = e2e_fixtures.write_fixture(tmp_path)
        path = os.path.join(tables_dir, "encuestas.csv")
        cache_dir = str(tmp_path / "cache")
        _, profiles = load_table_profiles(path, PipelineContext(llm=llm, cache_dir=cache_dir))
        assert profiles[0].description == fallback_description(profiles[0])
        assert os.listdir(cache_dir) == []
        working = PipelineContext(llm=MockClient.from_file(mock_path), cache_dir=cache_dir)
        _, profiles = load_table_profiles(path, working)
        assert profiles[0].name == "Mes de realización"
        assert profiles[0].description == "Month when the survey was conducted"
        # Cached now: a later outage reads the LLM descriptions back.
        _, profiles = load_table_profiles(path, PipelineContext(llm=_Down(),
                                                                cache_dir=cache_dir))
        assert profiles[0].description == "Month when the survey was conducted"

    def test_lone_surrogate_description_is_cached(self, tmp_path):
        tables_dir, _, _ = e2e_fixtures.write_fixture(tmp_path)
        path = os.path.join(tables_dir, "encuestas.csv")
        cache_dir = str(tmp_path / "cache")
        mock = MockClient.from_list([{"stage": "descriptor", "reply": json.dumps(
            {"Mes de realización": "Month \ud800"})}])
        for llm in (mock, _Down()):  # the second load reads the cache entry
            _, profiles = load_table_profiles(path, PipelineContext(llm=llm,
                                                                    cache_dir=cache_dir))
            assert profiles[0].description == "Month \ud800"
        assert len(os.listdir(cache_dir)) == 1


DEEP_REPLY = '[{"a": ' * 2500  # lists and objects nested past the recursion limit


class TestRepliesNestedTooDeep:
    """A reply nested past the recursion limit reads as a reply that does
    not parse, at every stage: no run fails for it."""

    def _ensemble(self, tmp_path, script):
        tables_dir, questions_path, _ = e2e_fixtures.write_fixture(tmp_path)
        ctx = PipelineContext(llm=e2e_fixtures.Recording(MockClient.from_list(script)),
                              cache_dir=str(tmp_path / "cache"), trace_dir=str(tmp_path / "trace"))
        finals, _ = ensemble_answers(load_questions(questions_path), tables_dir, ctx,
                                     EnsembleConfig(repetitions=1))
        for qid, expected in e2e_fixtures.EXPECTED.items():
            assert answer_dict(finals[qid]) == expected, qid
        return ctx, [c for c in ctx.llm.calls if c.stage_tag != "descriptor"]

    def test_descriptor_reply_keeps_the_templates_uncached(self, tmp_path):
        script = [{"stage": "descriptor", "reply": DEEP_REPLY}] + e2e_fixtures.MOCK_SCRIPT[1:]
        ctx, calls = self._ensemble(tmp_path, script)
        assert "- Mes de realización: Column 'Mes de realización' of type" \
            in calls[0].last_user_content
        assert os.listdir(ctx.cache_dir) == []

    def test_selector_reply_keeps_the_chunk_whole(self, tmp_path):
        script = [{"stage": "selector", "reply": DEEP_REPLY} if e["stage"] == "selector" else e
                  for e in e2e_fixtures.MOCK_SCRIPT]
        ctx, calls = self._ensemble(tmp_path, script)
        runs, _ = e2e_fixtures.read_run_log(ctx.trace_dir)
        assert all(r["selector"]["selected"] == ["Mes de realización", "Edad", "Partido",
                                                 "Valoración"] for r in runs)
        selector_calls = [c for c in calls if c.stage_tag == "selector"]
        assert len(selector_calls) == selector.PARSE_ATTEMPTS * len(runs)

    def test_explainer_reply_is_asked_again(self, tmp_path):
        script = [{"stage": "explainer", "reply": DEEP_REPLY, "consume_once": True},
                  *e2e_fixtures.MOCK_SCRIPT]
        _, calls = self._ensemble(tmp_path, script)
        explainer_calls = [c for c in calls if c.stage_tag == "explainer"]
        assert len(explainer_calls) == len(e2e_fixtures.QUESTIONS) + 1


class _CountedExecutions:
    """Patches `runner.execute_plan` to count its calls per (table, plan)."""

    def __init__(self, monkeypatch):
        self.counts = collections.Counter()
        real = runner.execute_plan

        def counting(plan, t):
            self.counts[id(t), plan] += 1
            return real(plan, t)
        monkeypatch.setattr(runner, "execute_plan", counting)


class TestPlanMemo:
    """Within one ensemble a plan text already run on a table reuses its
    outcome; the memo dies with the ensemble."""

    def test_each_plan_runs_once_per_table(self, tmp_path, monkeypatch):
        tables_dir, questions_path, mock_path = e2e_fixtures.write_fixture(tmp_path)
        shutil.copy(os.path.join(tables_dir, "encuestas.csv"),
                    os.path.join(tables_dir, "encuestas2.csv"))
        questions = load_questions(questions_path)
        questions.append(dataclasses.replace(questions[1], id="q2b", table_id="encuestas2"))
        executions = _CountedExecutions(monkeypatch)
        ctx = _context(tmp_path, "run", MockClient.from_file(mock_path), concurrency=8)
        finals, _ = ensemble_answers(questions, tables_dir, ctx, EnsembleConfig(repetitions=8))
        # Five plans run on encuestas, the q2 plan once more on encuestas2;
        # q6's plan never parses.
        assert sorted(executions.counts.values()) == [1] * 6
        assert answer_dict(finals["q2b"]) == e2e_fixtures.EXPECTED["q2"]
        for qid, expected in e2e_fixtures.EXPECTED.items():
            assert answer_dict(finals[qid]) == expected, qid

    def test_memoised_failure_repairs_every_repetition_alike(self, tmp_path, monkeypatch):
        tables_dir, questions_path, _ = e2e_fixtures.write_fixture(tmp_path)
        failing, valid = "answer = div(1, 0)", "answer = count_rows(df)"
        script = [e for e in e2e_fixtures.MOCK_SCRIPT if e["stage"] != "coder"] + [
            {"stage": "coder", "match": "Your previous plan failed", "reply": valid},
            {"stage": "coder", "reply": failing}]
        mock = e2e_fixtures.Recording(MockClient.from_list(script))
        executions = _CountedExecutions(monkeypatch)
        ctx = _context(tmp_path, "run", mock, concurrency=8)
        question = load_questions(questions_path)[1]
        finals, _ = ensemble_answers([question], tables_dir, ctx, EnsembleConfig(repetitions=8))
        assert answer_dict(finals["q2"]) == {"type": "Number", "value": 5.0}
        assert sorted(executions.counts.values()) == [1, 1]
        runs, _ = e2e_fixtures.read_run_log(ctx.trace_dir)
        attempts = [r["run_trace"]["attempts"] for r in runs]
        assert len(attempts) == 8 and all(a == attempts[0] for a in attempts)
        assert attempts[0][0] == {"plan_text": failing, "stage": "error",
                                  "error_stage": "execute",
                                  "error_message": "div: division by zero"}
        repair = runner._repair_prompt(runs[0]["coder_prompt"], failing, "execute",
                                       "div: division by zero")
        coder = [c.last_user_content for c in mock.calls if c.stage_tag == "coder"]
        assert sorted(coder) == sorted([runs[0]["coder_prompt"], repair] * 8)

    def test_memo_dies_with_the_ensemble(self, e2e, monkeypatch):
        tables_dir, questions, ctx, _ = e2e
        executions = _CountedExecutions(monkeypatch)
        per_call = []
        for _ in range(2):
            ensemble_answers(questions, tables_dir, ctx, EnsembleConfig(repetitions=2))
            per_call.append(sum(executions.counts.values()))
            executions.counts.clear()
        assert per_call == [5, 5]  # one per valid plan, in each ensemble

    def test_other_exceptions_are_not_memoised(self, e2e, monkeypatch):
        tables_dir, questions, ctx, _ = e2e
        raised = []

        def broken(args):
            raised.append(args)
            raise TypeError("broken builtin")
        monkeypatch.setattr(planlang.BUILTINS["count_containing"], "call", broken)
        _, records = ensemble_answers([questions[1]], tables_dir, ctx,
                                      EnsembleConfig(repetitions=3))
        assert len(raised) == 3
        assert [r.failure for r in records["q2"]] == ["solve: broken builtin"] * 3
        runs, _ = e2e_fixtures.read_run_log(ctx.trace_dir)
        assert all("TypeError: broken builtin" in r["traceback"] for r in runs)
