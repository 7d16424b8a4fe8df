"""Simulated, thread-safe LLM backend for the benchmark.

`SimLLM.complete(request)` has the same contract as tableqa's clients.  It
finds the question (or, for the descriptor, the table chunk) a prompt belongs
to with one dictionary lookup, picks the reply by the per-question call
ordinal of that stage, and sleeps the stage's fixed latency outside its lock,
so concurrent callers overlap their waits.  A reply therefore depends only on
(seed, question, stage, ordinal): the generator gives every question's
winning answer a strict majority of its surviving runs, which keeps the voted
answer independent of the order in which repetitions call the backend.

The scheduler wakes a sleeping thread late by a varying amount (more on a
busy host), so each thread carries the oversleep of its earlier calls and
shortens its next waits by it: a thread's total wait stays at the sum of the
nominal latencies, whatever the host's wake-up jitter.

Coder prompts that carry a repair request ("Your previous plan failed ...")
are looked up under their own stage key, "repair".  Ordinals wrap around the
reply list, so a question asked again replays its script.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter

REPAIR_MARKER = "\nYour previous plan failed at the "


class UnscriptedPrompt(LookupError):
    """The script holds no reply for this prompt."""


class SimLLM:
    def __init__(self, script: dict):
        self.latency = dict(script["latency_s"])
        self._questions = script["questions"]
        self._instructions = script["instructions"]
        self._replies = script["replies"]
        self._lock = threading.Lock()
        self._ordinals: Counter = Counter()
        self.calls: Counter = Counter()
        self.prompt_chars = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self.misses = 0
        self._local = threading.local()

    @staticmethod
    def from_file(path: str) -> "SimLLM":
        with open(path, encoding="utf-8") as fh:
            return SimLLM(json.load(fh))

    def _key(self, stage: str, prompt: str) -> str:
        if stage == "descriptor":
            line = prompt.split("\n", 3)[2]
            return "descriptor|" + line[2:].split(" (type=", 1)[0]
        if stage == "coder":
            first = prompt.split("\n", 2)[1][3:]
            tag = "repair" if REPAIR_MARKER in prompt else "coder"
            return f"{tag}|{self._instructions.get(first)}"
        head = prompt.split("\n", 4)
        qid = self._questions.get(head[0][len("Question: "):])
        if stage == "selector":
            return f"selector|{qid}|" + head[3][2:].split(": ", 1)[0]
        return f"{stage}|{qid}"

    def complete(self, req) -> str:
        prompt = req.last_user_content
        try:
            key = self._key(req.stage_tag, prompt)
        except IndexError:
            key = f"{req.stage_tag}|?"
        replies = self._replies.get(key)
        chars = sum(len(m.content) for m in req.messages)
        with self._lock:
            self.calls[req.stage_tag] += 1
            self.prompt_chars += chars
            ordinal = self._ordinals[key]
            self._ordinals[key] = ordinal + 1
            if replies is None:
                self.misses += 1
                raise UnscriptedPrompt(key)
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            self._wait(self.latency.get(req.stage_tag, 0.0))
            return replies[ordinal % len(replies)]
        finally:
            with self._lock:
                self.in_flight -= 1

    def _wait(self, seconds: float) -> None:
        if seconds <= 0:
            return
        debt = getattr(self._local, "debt", 0.0)
        start = time.perf_counter()
        time.sleep(max(0.0, seconds - debt))
        self._local.debt = debt + (time.perf_counter() - start) - seconds

    def reset_counters(self) -> None:
        with self._lock:
            self.calls.clear()
            self.prompt_chars = 0
            self.max_in_flight = 0
