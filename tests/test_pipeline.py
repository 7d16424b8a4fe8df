import collections
import json
import os
import random
import re
import shutil
import sys
import threading
import time

import pytest
from hypothesis import given, strategies as st

import e2e_fixtures
import reference as ref
from tableqa import pipeline
from tableqa.answerer import Answer, AnswerType
from tableqa.llm_client import MockClient
from tableqa.pipeline import (
    EnsembleConfig,
    PipelineContext,
    Question,
    RunRecord,
    TraceWriter,
    ensemble_answers,
    ensemble_curve,
    load_questions,
    run_pipeline_batch,
    score,
    vote,
)


@pytest.fixture
def e2e(tmp_path):
    tables_dir, questions_path, mock_path = e2e_fixtures.write_fixture(tmp_path)
    questions = load_questions(questions_path)
    ctx = PipelineContext(
        llm=MockClient.from_file(mock_path),
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
        rep_dir = tmp_path / "trace" / "q1" / "rep0"
        for artifact in ("selector.json", "explainer_prompt.txt",
                         "instruction_set.json", "coder_prompt.txt",
                         "run_trace.json"):
            assert (rep_dir / artifact).exists(), artifact
        inst = json.loads((rep_dir / "instruction_set.json").read_text("utf-8"))
        assert any(line.startswith("Be careful!.") for line in inst["instructions"])


def mk_record(rep, answer, failure=None):
    return RunRecord("q", rep, answer=answer, failure=failure)


def num(x):
    return Answer(AnswerType.NUMBER, float(x))


class TestTraceWriter:
    @pytest.mark.parametrize("qid", ["../x", "a/b", "..", ".", "", "a\\b"])
    def test_unsafe_ids_stay_under_the_root(self, tmp_path, qid):
        root = tmp_path / "trace"
        writer = TraceWriter(str(root))
        writer.write(qid, 0, "a.txt", "hi")
        writer.write(qid, None, "votes.json", {})
        written = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert len(written) == 2
        for path in written:
            assert path.parent.resolve().is_relative_to(root.resolve())
            assert len(path.relative_to(root).parts) in (2, 3)

    def test_distinct_ids_keep_distinct_directories(self, tmp_path):
        writer = TraceWriter(str(tmp_path))
        ids = ["a/b", "a%2Fb", "..", "%..", "q1", ""]
        for qid in ids:
            writer.write(qid, None, "votes.json", {"id": qid})
        assert len(list(tmp_path.iterdir())) == len(ids)

    def test_safe_ids_map_to_themselves(self, tmp_path):
        writer = TraceWriter(str(tmp_path))
        for qid in ["q1", "pregunta-2_b.v3", "número 7"]:
            writer.write(qid, 1, "a.txt", "x")
            assert (tmp_path / qid / "rep1" / "a.txt").read_text() == "x"


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
           st.sampled_from([EnsembleConfig(), EnsembleConfig(sentinel_messages=["a", "x"])]),
           st.randoms(use_true_random=False))
    def test_matches_reference(self, answers, cfg, rng):
        """Any mix of answers, ties, sentinels and failed runs, in any
        record order, votes as the brute-force reference does."""
        records = [mk_record(rep, a, failure=None if a else "solve: boom")
                   for rep, a in enumerate(answers)]
        rng.shuffle(records)
        assert vote(records, cfg) == ref.ref_vote(records, cfg.sentinel_messages)


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

    def test_votes_trace_written(self, e2e):
        tables_dir, questions, ctx, tmp_path = e2e
        ensemble_answers(questions, tables_dir, ctx, EnsembleConfig(repetitions=2))
        votes = json.loads((tmp_path / "trace" / "q2" / "votes.json").read_text("utf-8"))
        assert len(votes["runs"]) == 2
        assert votes["final"] == {"type": "Number", "value": 3.0}


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
        points = ensemble_curve(recs, [q], 4)
        assert points == [(1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0)]

    def test_n1_equals_first_run(self):
        q = Question("a", "t", "?", AnswerType.NUMBER, gold=num(1))
        recs = self._records({"a": [num(2), num(1), num(1)]})
        points = ensemble_curve(recs, [q], 3)
        assert points[0] == (1, 0.0)
        assert points[-1] == (3, 1.0)

    def test_max_n_truncated_to_available(self):
        q = Question("a", "t", "?", AnswerType.NUMBER, gold=num(1))
        recs = self._records({"a": [num(1), num(1)]})
        assert ensemble_curve(recs, [q], 10)[-1][0] == 2


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
        mock = MockClient.from_file(mock_path)
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
        real_write = pipeline.TraceWriter.write

        def recording_write(self, question_id, repetition, name, payload):
            if name == "run_trace.json":
                finished.append((repetition, question_id))
            real_write(self, question_id, repetition, name, payload)

        monkeypatch.setattr(pipeline.TraceWriter, "write", recording_write)
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
        for q in questions:
            name = os.path.join(q.id, "votes.json")
            with open(os.path.join(serial_ctx.trace_dir, name), "rb") as fh:
                expected = fh.read()
            with open(os.path.join(ctx.trace_dir, name), "rb") as fh:
                assert fh.read() == expected, q.id

    def test_serial_prompt_order_per_stage(self, tmp_path):
        tables_dir, questions_path, mock_path = e2e_fixtures.write_fixture(tmp_path)
        questions = load_questions(questions_path)
        reps = 3
        reference = MockClient.from_file(mock_path)
        reference_ctx = _context(tmp_path, "reference", reference, 1)
        for rep in range(reps):
            for q in questions:
                run_pipeline_batch([q], tables_dir, reference_ctx, rep)
        mock = MockClient.from_file(mock_path)
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
        assert (tmp_path / "run" / "trace" / "q3" / "rep0" / "failure.txt").exists()
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

    def test_trace_write_failure_fails_only_its_run(self, tmp_path):
        tables_dir, questions_path, mock_path = e2e_fixtures.write_fixture(tmp_path)
        questions = load_questions(questions_path)
        ctx = _context(tmp_path, "run", MockClient.from_file(mock_path), 4)
        squat = tmp_path / "run" / "trace" / "q1" / "rep1"
        squat.parent.mkdir(parents=True)
        squat.write_text("not a directory", encoding="utf-8")
        finals, records = ensemble_answers(questions, tables_dir, ctx,
                                           EnsembleConfig(repetitions=3))
        failures = {(qid, r.repetition): r.failure
                    for qid, recs in records.items() for r in recs if r.failure}
        assert failures.pop(("q1", 1)) == f"select: [Errno 17] File exists: '{squat}'"
        assert all(qid == "q6" for qid, _ in failures)  # the fixture's abstain
        assert {q: answer_dict(a) for q, a in finals.items()} == e2e_fixtures.EXPECTED

    def test_trace_writes_do_not_hold_up_other_runs(self, tmp_path, monkeypatch):
        """A run writes its trace files after it leaves the turn lock, so
        a slow disk under one run does not stop the others."""
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
