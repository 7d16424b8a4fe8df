"""Pipeline orchestration, majority-voting ensemble, and benchmark
scoring.

An ensemble loads and profiles each distinct table once, and runs every
(question, repetition) pair as one independent task: prune+select ->
explain+clarify -> solve -> format.  Tasks run on a thread pool of
`PipelineContext.concurrency` workers.  The calling thread loads the
tables in order of first use, and submits each table's column descriptor
requests and then its runs before it loads the next; a run first waits
for its table's replies, each read once, for the descriptions and the
cache rule alike.  A task runs pipeline code only while it holds a
shared turn lock, which it gives up while it waits on the LLM: pipeline
code never runs in two threads at once, and the LLM waits of up to
`concurrency` runs overlap.  A plan text already run on a table in this
ensemble reuses its outcome from the table's memo, which dies with the
ensemble; only the plan's parse, validation and runtime errors are
memoised.  Any exception inside a task becomes that run's failure,
prefixed with its stage (`select:`, `explain:`, `solve:`, `format:`); a
table that fails to load or to be described fails every run of its
questions, and no other, with `profile:`.

Records come back repetition by repetition, questions in order within a
repetition, whatever order the runs finish in, and the calling thread
writes them in that order to the run log, `<trace_dir>/runs.jsonl`, one
line per run; an ensemble then adds a vote line per question.  A run
line's `explainer_prompt` and `coder_prompt` are the very prompts its
stages sent first.  A lone surrogate (from a question id, say) is
written as its JSON escape; a failed log write fails that run and every
later one with `trace:`.  At concurrency 1 the LLM sees the prompts
table by table and a table's runs repetition by repetition, in question
order, which scripted mocks with `consume_once` entries rely on.  Failed
runs and sentinel answers ("No matching records were found") are
discarded before voting; a question with no surviving runs abstains
(scored incorrect).
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import traceback
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from .answerer import Answer, AnswerType, compare_answers, format_answer
from .explainer import (
    build_explainer_prompt,
    clarify,
    request_instructions,
)
from .llm_client import DEFAULT_CONCURRENCY
from .profiler import (
    ProfileCache,
    describe_columns,
    describe_requests,
    profile_table,
    table_fingerprint,
)
from .runner import build_coder_prompt, solve
from .selector import prune_uninformative, select_columns
from .table_core import load_csv
from .tablefns import NO_MATCHING_RECORDS


@dataclass
class Question:
    id: str
    table_id: str
    text: str
    answer_type: AnswerType
    gold: Optional[Answer] = None


@dataclass
class EnsembleConfig:
    repetitions: int = 8

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


@dataclass
class RunRecord:
    """Outcome of one pipeline pass over one question."""
    question_id: str
    repetition: int
    answer: Optional[Answer] = None
    failure: Optional[str] = None

    @property
    def succeeded(self) -> bool:
        return self.answer is not None

    def to_dict(self) -> dict:
        """The run as its line in the run log stores it."""
        return {
            "repetition": self.repetition,
            "answer": self.answer.to_dict() if self.answer else None,
            "failure": self.failure,
        }

    @staticmethod
    def from_dict(question_id: str, d: dict) -> "RunRecord":
        if not isinstance(d["repetition"], (int, float)):  # the vote sorts by it
            raise TypeError(f"repetition is {d['repetition']!r}, not a number")
        answer = Answer.from_dict(d["answer"]) if d["answer"] else None
        return RunRecord(question_id, d["repetition"], answer, d["failure"])


class TraceWriter:
    """The run log `<root>/runs.jsonl` (none when root is None).  The first
    OSError on opening or writing becomes `error`; nothing is written after."""

    def __init__(self, root: Optional[str]):
        self._fh = None
        self.error: Optional[OSError] = None
        if root is not None:
            try:
                os.makedirs(root, exist_ok=True)
                self._fh = open(os.path.join(root, "runs.jsonl"), "w", encoding="utf-8",
                                errors="backslashreplace")
            except OSError as exc:
                self.error = exc

    def write(self, line: dict) -> None:
        """Append and flush one line, unless the log has failed."""
        if self._fh is not None and self.error is None:
            try:
                self._fh.write(json.dumps(line, ensure_ascii=False) + "\n")
                self._fh.flush()
            except OSError as exc:
                self.error = exc

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:  # the unflushed line already failed its run
                pass


@dataclass
class PipelineContext:
    llm: object
    cache_dir: Optional[str] = None
    trace_dir: Optional[str] = None
    concurrency: int = DEFAULT_CONCURRENCY  # runs in flight at once

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")


def _load_table(path: str, ctx: PipelineContext, pool: ThreadPoolExecutor):
    """Load a CSV and take its profiles from the on-disk cache when the
    file bytes are unchanged; else profile it and send its descriptor
    requests on `pool`.  Returns a function that waits for the replies,
    fills the descriptions, caches the profiles if every reply parsed and
    returns (table, profiles)."""
    table = load_csv(path)
    cache = ProfileCache(ctx.cache_dir) if ctx.cache_dir else None
    if cache:
        with open(path, "rb") as fh:
            fingerprint = table_fingerprint(fh.read())
        if (profiles := cache.get(fingerprint)) is not None:
            return lambda: (table, profiles)
    profiles = profile_table(table)
    # Each request runs in a copy of the caller's context, as the runs do.
    futures = [] if ctx.llm is None else [
        pool.submit(contextvars.copy_context().run, ctx.llm.complete, req)
        for req in describe_requests(profiles)]

    def finish():
        replies = [None if f.exception() else f.result() for f in futures]
        # Templates are not cached: a chunk that failed is asked again next time.
        if describe_columns(profiles, replies) and cache:
            cache.put(fingerprint, profiles)
        return table, profiles
    return finish


def load_table_profiles(path: str, ctx: PipelineContext):
    """Load a CSV and profile it, reusing the on-disk cache when the
    file bytes are unchanged."""
    with ThreadPoolExecutor(max_workers=ctx.concurrency) as pool:
        return _load_table(path, ctx, pool)()


class _TurnTakingLLM:
    """The LLM client as a task sees it.  A task holds the turn lock
    while it runs pipeline code and gives it up only for the duration of
    an LLM call, so one task at a time runs pipeline code while the LLM
    waits of several tasks overlap."""

    def __init__(self, llm, turn: threading.Lock):
        self._llm = llm
        self._turn = turn

    def complete(self, req):
        self._turn.release()
        try:
            return self._llm.complete(req)
        finally:
            self._turn.acquire()


def _run_one(q: Question, repetition: int, loaded, llm, artifacts: dict) -> RunRecord:
    """One pipeline pass over one question: prune+select ->
    explain+clarify -> solve -> format.  `loaded` is the question's
    (table, profiles, plan memo) triple, or the failure text of its table
    load; its stages call `llm`.  Any exception becomes the run's failure,
    prefixed with its stage.  Log artifacts go into `artifacts`, unwritten."""
    rec = RunRecord(q.id, repetition)
    if isinstance(loaded, str):
        rec.failure = loaded
        return rec
    table, profiles, memo = loaded
    stage = "select"
    try:
        kept, dropped = prune_uninformative(profiles)
        warnings: list[str] = []
        chosen = select_columns(q.text, kept, llm, warnings)
        artifacts["selector"] = {
            "dropped_by_rule": dropped,
            "selected": [p.name for p in chosen],
            "warnings": warnings,
        }

        stage = "explain"
        artifacts["explainer_prompt"] = prompt = build_explainer_prompt(q.text, chosen)
        inst = clarify(request_instructions(prompt, llm), table, profiles)
        artifacts["instruction_set"] = inst.to_dict()

        stage = "solve"
        artifacts["coder_prompt"] = prompt = build_coder_prompt(inst, chosen)
        run = solve(prompt, table, llm, memo)
        artifacts["run_trace"] = run.to_dict()
        if not run.succeeded:
            rec.failure = f"solve: {run.attempts[-1].error_message}"
            return rec

        stage = "format"
        rec.answer = format_answer(run.final_value, q.answer_type)
    except Exception as exc:
        rec.failure = f"{stage}: {exc}"
        artifacts["traceback"] = traceback.format_exc()
    return rec


def _run_repetitions(questions: list[Question], tables_dir: str, ctx: PipelineContext,
                     repetitions, log: TraceWriter) -> list[RunRecord]:
    """Run every (question, repetition) pair as one task on a pool of
    `ctx.concurrency` threads.  Tables load on this thread in order of
    first use; right after a table's descriptor requests its runs are
    submitted (repetition by repetition, questions in order), so the FIFO
    pool has started those requests before a run waits for their replies.
    Records come back, and go to `log`, in repetition order, then question order."""
    turn = threading.Lock()
    task_llm = _TurnTakingLLM(ctx.llm, turn)
    loaded: dict[str, object] = {}

    def task(q: Question, repetition: int, table_lock: threading.Lock):
        artifacts: dict = {}
        with table_lock:  # waiting under the turn lock would stop every other run
            if callable(loaded[q.table_id]):
                try:
                    loaded[q.table_id] = (*loaded[q.table_id](), {})  # the table's plan memo
                except Exception as exc:
                    loaded[q.table_id] = f"profile: {exc}"
        with turn:
            rec = _run_one(q, repetition, loaded[q.table_id], task_llm, artifacts)
        return rec, artifacts

    pool = ThreadPoolExecutor(max_workers=ctx.concurrency)
    futures: dict = {}
    try:
        for table_id in dict.fromkeys(q.table_id for q in questions):
            path = os.path.join(tables_dir, f"{table_id}.csv")
            try:
                loaded[table_id] = _load_table(path, ctx, pool)
            except Exception as exc:
                loaded[table_id] = f"profile: {exc}"
            table_lock = threading.Lock()
            # Each task runs in a copy of the caller's context, so context
            # variables (a tracer's current span, say) reach the workers.
            futures.update({(rep, i): pool.submit(contextvars.copy_context().run, task,
                                                  q, rep, table_lock)
                            for rep in repetitions
                            for i, q in enumerate(questions) if q.table_id == table_id})
        records = []
        for key in sorted(futures):  # (repetition, question index)
            # Logged while later runs go on; a failed log fails the rest.
            rec, artifacts = futures.pop(key).result()  # its artifacts go once logged
            log.write({"question_id": rec.question_id, **rec.to_dict(), **artifacts})
            if log.error:
                rec.answer, rec.failure = None, f"trace: {log.error}"
            records.append(rec)
        return records
    finally:
        # On an interrupt, drop the requests and runs not yet started.
        pool.shutdown(cancel_futures=True)


def run_pipeline_batch(questions: list[Question], tables_dir: str,
                       ctx: PipelineContext, repetition: int = 0) -> list[RunRecord]:
    """One pass over all questions: the one-repetition case of
    `ensemble_answers`, returning one record per question in order."""
    with TraceWriter(ctx.trace_dir) as log:
        return _run_repetitions(questions, tables_dir, ctx, [repetition], log)


def _is_sentinel(answer: Answer) -> bool:
    value = answer.value
    return NO_MATCHING_RECORDS in (value if isinstance(value, list) else [value])


def vote(records: list[RunRecord], cfg: EnsembleConfig) -> Optional[Answer]:
    """Plurality vote over classes of equal `Answer.vote_key()`, the
    answers the scorer counts as one (categories up to case and
    surrounding spaces, lists as multisets, numbers by exact value).

    Failed or sentinel runs are discarded; ties break toward the class
    whose first surviving repetition is lowest, and the vote returns that
    first member byte for byte; no survivors means abstain (None).  `cfg`
    is unread, and stays because perfbench/selftest.py passes it.
    """
    survivors = [
        r for r in sorted(records, key=lambda r: r.repetition)
        if r.succeeded and not _is_sentinel(r.answer)
    ]
    if not survivors:
        return None
    # Keys in survivor order, and `max` keeps the first of equal counts:
    # a tie goes to the class of the earliest repetition.
    keys = [r.answer.vote_key() for r in survivors]
    counts = Counter(keys)
    return survivors[keys.index(max(counts, key=counts.get))].answer


def ensemble_answers(questions: list[Question], tables_dir: str,
                     ctx: PipelineContext, cfg: EnsembleConfig
                     ) -> tuple[dict[str, Optional[Answer]], dict[str, list[RunRecord]]]:
    """Run every question `repetitions` times and vote per question.
    Returns final answers (None = abstain) and all records, each
    question's in repetition order."""
    all_records: dict[str, list[RunRecord]] = {q.id: [] for q in questions}
    finals: dict[str, Optional[Answer]] = {}
    with TraceWriter(ctx.trace_dir) as log:
        for rec in _run_repetitions(questions, tables_dir, ctx, range(cfg.repetitions), log):
            all_records[rec.question_id].append(rec)
        for q in questions:
            final = finals[q.id] = vote(all_records[q.id], cfg)
            log.write({"question_id": q.id, "final": final.to_dict() if final else None})
    return finals, all_records


@dataclass
class ScoreReport:
    overall_accuracy: float
    overall_count: int
    per_type: dict[str, tuple[float, int]]
    skipped: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "overall": {"accuracy": self.overall_accuracy, "count": self.overall_count},
            "per_type": {
                k: {"accuracy": acc, "count": n} for k, (acc, n) in self.per_type.items()
            },
            "skipped": self.skipped,
        }

    def to_text(self) -> str:
        headers = ["", "Total"] + list(self.per_type.keys())
        score_row = ["Score", f"{self.overall_accuracy:.2f}"] + [
            f"{acc:.2f}" for acc, _ in self.per_type.values()
        ]
        size_row = ["Size", str(self.overall_count)] + [
            str(n) for _, n in self.per_type.values()
        ]
        widths = [max(len(r[i]) for r in (headers, score_row, size_row))
                  for i in range(len(headers))]
        lines = []
        for row in (headers, score_row, size_row):
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        return "\n".join(lines)


def score(predictions: list[tuple[Question, Optional[Answer]]]) -> ScoreReport:
    """Accuracy overall and per answer type; abstains count as wrong,
    questions without gold are excluded with a warning."""
    totals: dict[str, list[int]] = {}  # answer type -> [correct, count]
    skipped = []
    for q, pred in predictions:
        if q.gold is None:
            skipped.append(q.id)
            continue
        ok = pred is not None and compare_answers(pred, q.gold)
        bucket = totals.setdefault(q.answer_type.value, [0, 0])
        bucket[0] += int(ok)
        bucket[1] += 1
    per_type = {
        at.value: (totals[at.value][0] / totals[at.value][1], totals[at.value][1])
        for at in AnswerType if at.value in totals
    }
    count_all = sum(n for _, n in totals.values())
    overall = sum(c for c, _ in totals.values()) / count_all if count_all else 0.0
    return ScoreReport(overall, count_all, per_type, skipped)


def ensemble_curve(records_by_question: dict[str, list[RunRecord]],
                   questions: list[Question]) -> list[tuple[int, float]]:
    """Accuracy when voting over each question's first n logged runs, in
    log order, n = 1..the most runs any question has."""
    by_id = {q.id: q for q in questions}
    max_n = max(map(len, records_by_question.values()), default=0)
    return [(n, score([(by_id[qid], vote(recs[:n], EnsembleConfig()))
                       for qid, recs in records_by_question.items()]).overall_accuracy)
            for n in range(1, max_n + 1)]


def load_questions(path: str) -> list[Question]:
    """Questions JSONL: {id, table_id, question, answer_type, answer}.  A malformed
    line, a repeated id or a table_id outside the tables dir raises ValueError naming
    its line number, and a gold answer its type cannot read one naming the question id."""
    questions: dict[str, Question] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise TypeError(f"a JSON {type(obj).__name__}, not an object")
                at, table_id = AnswerType(obj["answer_type"]), str(obj["table_id"])
                qid, text = str(obj["id"]), obj["question"]
                if not isinstance(text, str):
                    raise TypeError(f"question is {json.dumps(text)}, not a string")
                if qid in questions:
                    raise ValueError(f"duplicate question id {qid!r}")
                if os.path.isabs(table_id) or ".." in table_id.replace("\\", "/").split("/"):
                    raise ValueError(f"table_id {table_id!r} leaves the tables directory")
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                raise ValueError(f"line {lineno}: {type(exc).__name__}: {exc}") from exc
            gold = None
            if obj.get("answer") is not None:
                try:
                    gold = Answer.from_dict({"type": at.value, "value": obj["answer"]})
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ValueError(
                        f"question {obj['id']!r}: bad {at.value} gold answer: {exc}"
                    ) from exc
            questions[qid] = Question(qid, table_id, text, at, gold)
    return list(questions.values())
