"""Pipeline orchestration, majority-voting ensemble, and benchmark
scoring.

An ensemble loads and profiles each distinct table once, then runs every
(question, repetition) pair as one independent task: prune+select ->
explain+clarify -> solve -> format.  Tasks run on a thread pool of
`PipelineContext.concurrency` workers.  A task runs pipeline code only
while it holds a shared turn lock, which it gives up while it waits on
the LLM: pipeline code never runs in two threads at once, and the LLM
waits of up to `concurrency` runs overlap; a task writes its trace files
after it leaves the lock.  Any exception inside a task becomes that run's
failure, prefixed with its stage (`select:`, `explain:`, `solve:`,
`format:`); a table that fails to load fails every run of its questions
with `profile:`.

Tasks are submitted repetition by repetition, questions in order within
a repetition, and records come back in that order whatever order the
runs finish in.  At concurrency 1 the LLM therefore sees each stage's
prompts in that order, which scripted mocks with `consume_once` entries
rely on.  Failed runs and sentinel answers ("No matching records were
found") are discarded before voting, and a question with no surviving
runs abstains (scored incorrect).
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import re
import threading
import traceback
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
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
    profile_table,
    table_fingerprint,
)
from .runner import build_coder_prompt, solve
from .selector import prune_uninformative, select_columns
from .table_core import load_csv, render_cell

DEFAULT_SENTINELS = ["No matching records were found"]


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
    sentinel_messages: list[str] = field(default_factory=lambda: list(DEFAULT_SENTINELS))

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
        """The run as votes.json and repetitions.json store it."""
        return {
            "repetition": self.repetition,
            "answer": self.answer.to_dict() if self.answer else None,
            "failure": self.failure,
        }

    @staticmethod
    def from_dict(question_id: str, d: dict) -> "RunRecord":
        answer = Answer.from_dict(d["answer"]) if d["answer"] else None
        return RunRecord(question_id, d["repetition"], answer, d["failure"])


# What could take a question id out of its trace directory, plus the
# escape character itself, so distinct ids keep distinct directories.
_PATH_UNSAFE = re.compile(r"[%/\\\x00]")


def _path_component(question_id: str) -> str:
    """A question id as one path component: '%', '/', '\\' and NUL
    become %XX, and '', '.' and '..' get a '%' prefix.  Other ids map to
    themselves."""
    text = _PATH_UNSAFE.sub(lambda m: f"%{ord(m.group()):02X}", question_id)
    return "%" + text if text in ("", ".", "..") else text


class TraceWriter:
    """Per-question, per-repetition explainability artifacts on disk."""

    def __init__(self, root: Optional[str]):
        self.root = root
        self._made: set[str] = set()  # directories this writer has made

    def write(self, question_id: str, repetition: Optional[int], name: str,
              payload) -> None:
        """Write one artifact under the question's repetition directory,
        or under the question's own directory when repetition is None."""
        if self.root is None:
            return
        directory = os.path.join(self.root, _path_component(question_id))
        if repetition is not None:
            directory = os.path.join(directory, f"rep{repetition}")
        if directory not in self._made:
            os.makedirs(directory, exist_ok=True)
            self._made.add(directory)
        if not isinstance(payload, str):
            payload = json.dumps(payload, ensure_ascii=False, indent=2)
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(payload)


@dataclass
class PipelineContext:
    llm: object
    cache_dir: Optional[str] = None
    trace_dir: Optional[str] = None
    concurrency: int = DEFAULT_CONCURRENCY  # runs in flight at once

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")


def load_table_profiles(path: str, ctx: PipelineContext):
    """Load a CSV and profile it, reusing the on-disk cache when the
    file bytes are unchanged."""
    table = load_csv(path)
    with open(path, "rb") as fh:
        fingerprint = table_fingerprint(fh.read())
    cache = ProfileCache(ctx.cache_dir) if ctx.cache_dir else None
    profiles = cache.get(fingerprint) if cache else None
    if profiles is None:
        profiles = profile_table(table)
        profiles = describe_columns(profiles, ctx.llm)
        if cache:
            cache.put(fingerprint, profiles)
    return table, profiles


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


def _run_one(q: Question, repetition: int, loaded, ctx: PipelineContext,
             artifacts: list) -> RunRecord:
    """One pipeline pass over one question: prune+select ->
    explain+clarify -> solve -> format.  `loaded` is the question's
    (table, profiles) pair, or the failure text of its table load.  Any
    exception becomes the run's failure, prefixed with its stage.  Trace
    artifacts go to `artifacts` as (stage, name, payload), unwritten."""
    rec = RunRecord(q.id, repetition)
    if isinstance(loaded, str):
        rec.failure = loaded
        return rec
    table, profiles = loaded
    stage = "select"
    try:
        kept, dropped = prune_uninformative(profiles)
        warnings: list[str] = []
        chosen = select_columns(q.text, kept, ctx.llm, warnings)
        artifacts.append((stage, "selector.json", {
            "dropped_by_rule": dropped,
            "selected": [p.name for p in chosen],
            "warnings": warnings,
        }))

        stage = "explain"
        artifacts.append((stage, "explainer_prompt.txt",
                          build_explainer_prompt(q.text, chosen)))
        inst = request_instructions(q.text, chosen, ctx.llm)
        inst = clarify(inst, table, profiles)
        artifacts.append((stage, "instruction_set.json", inst.to_dict()))

        stage = "solve"
        artifacts.append((stage, "coder_prompt.txt", build_coder_prompt(inst, chosen)))
        run = solve(inst, table, chosen, ctx.llm)
        artifacts.append((stage, "run_trace.json", run.to_dict()))
        if not run.succeeded:
            last = run.attempts[-1] if run.attempts else None
            rec.failure = f"solve: {last.error_message if last else 'no attempts'}"
            return rec

        stage = "format"
        rec.answer = format_answer(run.final_value, q.answer_type)
    except Exception as exc:
        rec.failure = f"{stage}: {exc}"
        artifacts.append((stage, "failure.txt", traceback.format_exc()))
    return rec


def _write_artifacts(rec: RunRecord, artifacts: list, trace: TraceWriter) -> None:
    """Write a run's artifacts in order.  An OSError stops there and fails
    the run as the artifact's stage would have; one on failure.txt does not."""
    for stage, name, payload in artifacts:
        try:
            trace.write(rec.question_id, rec.repetition, name, payload)
        except OSError as exc:
            if name != "failure.txt":
                rec.answer, rec.failure = None, f"{stage}: {exc}"
                with contextlib.suppress(OSError):
                    trace.write(rec.question_id, rec.repetition, "failure.txt",
                                traceback.format_exc())
            return


def _run_repetitions(questions: list[Question], tables_dir: str,
                     ctx: PipelineContext, repetitions) -> list[RunRecord]:
    """Load and profile each distinct table once, then run every
    (question, repetition) pair as one task on a pool of
    `ctx.concurrency` threads.  Records come back in submission order:
    repetitions in order, questions in order within a repetition."""
    loaded: dict[str, object] = {}
    for q in questions:
        if q.table_id in loaded:
            continue
        path = os.path.join(tables_dir, f"{q.table_id}.csv")
        try:
            table, profiles = load_table_profiles(path, ctx)
        except Exception as exc:
            loaded[q.table_id] = f"profile: {exc}"
        else:
            loaded[q.table_id] = (table, profiles)

    trace = TraceWriter(ctx.trace_dir)
    turn = threading.Lock()
    task_ctx = replace(ctx, llm=_TurnTakingLLM(ctx.llm, turn))

    def task(q: Question, repetition: int) -> RunRecord:
        artifacts: list = []
        with turn:
            rec = _run_one(q, repetition, loaded[q.table_id], task_ctx, artifacts)
        # Disk writes overlap other runs' pipeline code and LLM waits.
        _write_artifacts(rec, artifacts, trace)
        return rec

    pool = ThreadPoolExecutor(max_workers=ctx.concurrency)
    try:
        # Each task runs in a copy of the caller's context, so context
        # variables (a tracer's current span, say) reach the workers.
        futures = [pool.submit(contextvars.copy_context().run, task, q, rep)
                   for rep in repetitions for q in questions]
        return [f.result() for f in futures]
    finally:
        # On an interrupt, drop the runs that have not started yet.
        pool.shutdown(cancel_futures=True)


def run_pipeline_batch(questions: list[Question], tables_dir: str,
                       ctx: PipelineContext, repetition: int = 0) -> list[RunRecord]:
    """One pass over all questions: the one-repetition case of
    `ensemble_answers`, returning one record per question in order."""
    return _run_repetitions(questions, tables_dir, ctx, [repetition])


def _is_sentinel(answer: Answer, sentinels: list[str]) -> bool:
    value = answer.value
    texts = [str(v) for v in value] if isinstance(value, list) else [render_cell(value) if not isinstance(value, str) else value]
    return any(t in sentinels for t in texts)


def vote(records: list[RunRecord], cfg: EnsembleConfig) -> Optional[Answer]:
    """Plurality vote over canonical answer serializations.

    Failed or sentinel runs are discarded; ties break toward the answer
    whose first surviving repetition index is lowest; no survivors means
    abstain (None).
    """
    survivors = [
        r for r in sorted(records, key=lambda r: r.repetition)
        if r.succeeded and not _is_sentinel(r.answer, cfg.sentinel_messages)
    ]
    if not survivors:
        return None
    # Keys in survivor order, and `max` keeps the first of equal counts:
    # a tie goes to the answer of the earliest repetition.
    keys = [r.answer.canonical_key() for r in survivors]
    counts = Counter(keys)
    return survivors[keys.index(max(counts, key=counts.get))].answer


def ensemble_answers(questions: list[Question], tables_dir: str,
                     ctx: PipelineContext, cfg: EnsembleConfig
                     ) -> tuple[dict[str, Optional[Answer]], dict[str, list[RunRecord]]]:
    """Run every question `repetitions` times and vote per question.
    Returns final answers (None = abstain) and all records, each
    question's in repetition order."""
    all_records: dict[str, list[RunRecord]] = {q.id: [] for q in questions}
    for rec in _run_repetitions(questions, tables_dir, ctx, range(cfg.repetitions)):
        all_records[rec.question_id].append(rec)
    finals: dict[str, Optional[Answer]] = {}
    trace = TraceWriter(ctx.trace_dir)
    for q in questions:
        finals[q.id] = vote(all_records[q.id], cfg)
        trace.write(q.id, None, "votes.json", {
            "runs": [r.to_dict() for r in all_records[q.id]],
            "final": finals[q.id].to_dict() if finals[q.id] else None,
        })
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
    totals: dict[str, list[int]] = {}
    correct_all = 0
    count_all = 0
    skipped = []
    for q, pred in predictions:
        if q.gold is None:
            skipped.append(q.id)
            continue
        ok = pred is not None and compare_answers(pred, q.gold)
        count_all += 1
        correct_all += int(ok)
        bucket = totals.setdefault(q.answer_type.value, [0, 0])
        bucket[0] += int(ok)
        bucket[1] += 1
    per_type = {
        at.value: (totals[at.value][0] / totals[at.value][1], totals[at.value][1])
        for at in AnswerType if at.value in totals
    }
    overall = correct_all / count_all if count_all else 0.0
    return ScoreReport(overall, count_all, per_type, skipped)


def ensemble_curve(records_by_question: dict[str, list[RunRecord]],
                   questions: list[Question], max_n: int,
                   cfg: EnsembleConfig = EnsembleConfig()) -> list[tuple[int, float]]:
    """Accuracy when voting over only the first n repetitions, for
    n = 1..max_n."""
    by_id = {q.id: q for q in questions}
    available = max(
        (len({r.repetition for r in recs}) for recs in records_by_question.values()),
        default=0,
    )
    if max_n > available:
        max_n = available
    points = []
    for n in range(1, max_n + 1):
        preds = []
        for qid, recs in records_by_question.items():
            subset = [r for r in recs if r.repetition < n]
            preds.append((by_id[qid], vote(subset, cfg)))
        points.append((n, score(preds).overall_accuracy))
    return points


def load_questions(path: str) -> list[Question]:
    """Questions JSONL: {id, table_id, question, answer_type, answer}.
    A gold answer its type cannot read raises ValueError naming the
    question id."""
    questions = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            at = AnswerType(obj["answer_type"])
            gold = None
            if obj.get("answer") is not None:
                try:
                    gold = Answer.from_dict({"type": at.value, "value": obj["answer"]})
                except (TypeError, ValueError) as exc:
                    raise ValueError(
                        f"question {obj['id']!r}: bad {at.value} gold answer: {exc}"
                    ) from exc
            questions.append(Question(
                id=str(obj["id"]),
                table_id=str(obj["table_id"]),
                text=obj["question"],
                answer_type=at,
                gold=gold,
            ))
    return questions
