"""Outside-in span tracer for tableqa.

`Tracer.install()` replaces public functions at the name their caller looks
up (tableqa modules bind each other with `from ... import`, so the pipeline
calls `tableqa.pipeline.load_csv`, the runner `tableqa.runner.parse_plan`, and
so on) with wrappers that record one span per call: name, start, end, parent
span and request id.  The parent comes from a context variable, so spans nest
per thread; a span without a parent (one `ensemble_answers` call) opens a new
request, which its descendants share.  Spans stay in memory; `dump()` writes
them out at the end.  With tracing off nothing is installed.

A span's self time is its duration minus the part of it that its child spans
cover.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

TABLEFNS = ["flatten_column_values", "top_n_non_missing", "delete_rows_by_column_value",
            "sort_alphabetical", "filter_numeric", "filter_contains", "filter_not_contains",
            "exists_value", "count_equal", "count_containing", "most_frequent",
            "most_frequent_in_subset"]

# (module whose global the caller looks up, attribute, span name)
TARGETS = [
    ("tableqa.pipeline", "ensemble_answers", "pipeline.ensemble_answers"),
    ("tableqa.pipeline", "load_csv", "table_core.load_csv"),
    ("tableqa.pipeline", "profile_table", "profiler.profile_table"),
    ("tableqa.pipeline", "describe_columns", "profiler.describe_columns"),
    ("tableqa.pipeline", "prune_uninformative", "selector.prune_uninformative"),
    ("tableqa.pipeline", "select_columns", "selector.select_columns"),
    ("tableqa.pipeline", "request_instructions", "explainer.request_instructions"),
    ("tableqa.pipeline", "clarify", "explainer.clarify"),
    ("tableqa.explainer", "best_fuzzy_match", "fuzzy.best_fuzzy_match"),
    ("tableqa.tablefns", "best_fuzzy_match", "fuzzy.best_fuzzy_match"),
    ("tableqa.selector", "correct_name", "fuzzy.correct_name"),
    ("tableqa.explainer", "correct_name", "fuzzy.correct_name"),
    ("tableqa.tablefns", "correct_name", "fuzzy.correct_name"),
    ("tableqa.planlang", "correct_name", "fuzzy.correct_name"),
    ("tableqa.runner", "parse_plan", "planlang.parse_plan"),
    ("tableqa.runner", "validate_plan", "planlang.validate_plan"),
    ("tableqa.runner", "execute_plan", "runner.execute_plan"),
    ("tableqa.pipeline", "solve", "runner.solve"),
    ("tableqa.pipeline", "format_answer", "answerer.format_answer"),
    ("tableqa.pipeline", "vote", "pipeline.vote"),
    ("tableqa.pipeline", "run_pipeline_batch", "pipeline.run_pipeline_batch"),
    ("tableqa.pipeline.TraceWriter", "write", "pipeline.TraceWriter.write"),
] + [("tableqa.tablefns", fn, f"tablefns.{fn}") for fn in TABLEFNS]

# Called too often for a span each; only counted.
COUNTED = [("tableqa.fuzzy", "similarity", "fuzzy.similarity"),
           ("tableqa.planlang", "similarity", "fuzzy.similarity")]

BE_CAREFUL = "Be careful!. "


def _resolve(path: str):
    """A module, or a class inside one ("tableqa.pipeline.TraceWriter")."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "failed")

    def __init__(self, id, name, start, parent, request):
        self.id, self.name, self.start, self.parent, self.request = id, name, start, parent, request
        self.end = start
        self.failed = False


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count()
        self._requests = itertools.count()
        self._current: contextvars.ContextVar = contextvars.ContextVar("span", default=None)
        self._patches: list = []

    # -- recording
    def start(self, name: str) -> tuple[Span, contextvars.Token]:
        parent = self._current.get()
        if parent is None:
            span = Span(next(self._ids), name, self.clock(), None, next(self._requests))
        else:
            span = Span(next(self._ids), name, self.clock(), parent.id, parent.request)
        self.spans.append(span)
        return span, self._current.set(span)

    def finish(self, span: Span, token: contextvars.Token, failed: bool = False) -> None:
        span.end = self.clock()
        span.failed = failed
        self._current.reset(token)

    def wrap(self, fn: Callable, name: str, observe: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, token = self.start(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.finish(span, token, failed=True)
                raise
            self.finish(span, token)
            if observe is not None:
                observe(args, result)
            return result
        return traced

    def count(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[name + ".calls"] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installation
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, llm) -> None:
        """Wrap every target and the LLM client's `complete`."""
        observers = {
            "selector.select_columns": self._observe_select,
            "explainer.clarify": self._observe_clarify,
            "runner.solve": self._observe_solve,
        }
        for path, attr, name in TARGETS:
            owner = _resolve(path)
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name, observers.get(name)))
        for path, attr, name in COUNTED:
            owner = _resolve(path)
            self._patch(owner, attr, self.count(getattr(owner, attr), name))
        cache = _resolve("tableqa.profiler.ProfileCache")
        self._patch(cache, "get", self.wrap(cache.get, "profiler.ProfileCache.get",
                                            self._observe_cache))
        complete = llm.complete

        def traced_complete(req):
            span, token = self.start(f"llm.{req.stage_tag}")
            try:
                return complete(req)
            finally:
                self.finish(span, token)
        llm.complete = traced_complete
        self._patches.append((llm, "complete", None))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- counters read off results
    def _observe_select(self, args, result) -> None:
        self.counters["selector.offered"] += len(args[1])
        self.counters["selector.selected"] += len(result)

    def _observe_clarify(self, args, result) -> None:
        self.counters["explainer.be_careful_lines"] += sum(
            line.startswith(BE_CAREFUL) for line in result.instructions)

    def _observe_solve(self, args, result) -> None:
        self.counters["runner.solve.attempts"] += result.attempts_used
        self.counters["runner.solve.successes"] += int(result.succeeded)

    def _observe_cache(self, args, result) -> None:
        self.counters["profiler.cache_misses" if result is None else "profiler.cache_hits"] += 1

    # -- analysis
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for a, b in sorted(children.get(s.id, ())):
                a, b = max(a, reach), min(b, s.end)
                if b > a:
                    covered += b - a
                    reach = b
            out[s.id] = (s.end - s.start) - covered
        return out

    def layer_totals(self) -> dict[str, dict]:
        """Per span name: calls, self_s, fails, total_s."""
        self_s = self.self_times()
        totals: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "fails": 0, "total_s": 0.0})
        for s in self.spans:
            t = totals[s.name]
            t["calls"] += 1
            t["self_s"] += self_s[s.id]
            t["fails"] += int(s.failed)
            t["total_s"] += s.end - s.start
        return dict(totals)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "request": s.request,
                                     "failed": s.failed}) + "\n")
