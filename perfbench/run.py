"""Offline benchmark of the tableqa pipeline.

    python3 perfbench/run.py --workload ask_survey --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run generates its inputs from the seed
(perfbench/gen.py, in a child process, before any timing), then drives the
public entry point `tableqa.pipeline.ensemble_answers` through the simulated
LLM backend (perfbench/simllm.py) in a closed loop from one client thread:
the next ensemble starts only when the previous one has returned.

Workloads (see gen.WORKLOADS):
  ask_survey         single-question ensembles, 8 repetitions, no cache dir,
                     as `tableqa ask` runs them; LLM wait dominates.
  batch_bigtable     one `tableqa bench`-style batch per round over a 20k-row
                     table, 3 repetitions, zero LLM latency; table work dominates.
  batch_wide_repair  one batch of six questions per round over two ~250-column
                     tables, with misspelt selector replies, coder repairs and
                     one designed abstain per block.

Throughput is the number of questions in one pass over all blocks divided by
the sum of each block's median round time.  In a batch every answer arrives
when the batch returns, so a question's latency there is the median wall time
of its block's rounds; in `ask_survey` every ask is one latency sample.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
spends half the time untraced and half with the outside-in tracer
(perfbench/tracer.py) installed, and reports per-layer metrics, normalised
per question, plus the tracing overhead.  Every voted answer is checked
against the generator's gold; a mismatch, or a designed abstain that answers,
makes the run print "correct": false and exit 1.  The last stdout line is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7

sys.path.insert(0, str(HERE))
import gen  # noqa: E402

E2E_UNITS = {
    "questions_per_s": "1/s",
    "answer_latency_p50_s": "s",
    "answer_latency_p90_s": "s",
    "llm_calls_per_question": "calls",
    "prompt_kchars_per_question": "kchar",
    "accuracy": "ratio",
    "failed_run_share": "ratio",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

LLM_STAGES = ["descriptor", "selector", "explainer", "coder"]
SPAN_LAYERS = ["table_core.load_csv", "profiler.profile_table", "profiler.describe_columns",
               "selector.prune_uninformative", "selector.select_columns",
               "explainer.request_instructions", "explainer.clarify",
               "fuzzy.best_fuzzy_match", "fuzzy.correct_name",
               "planlang.parse_plan", "planlang.validate_plan", "runner.execute_plan",
               "runner.solve", "answerer.format_answer", "pipeline.vote",
               "pipeline.run_pipeline_batch", "pipeline.TraceWriter.write"]


def layer_units() -> dict:
    """Every per-layer metric name and its unit (all counts and times are
    per question answered in the traced half)."""
    from tracer import TABLEFNS
    units = {f"llm.calls.{s}": "calls/q" for s in LLM_STAGES}
    units.update({"llm.prompt_kchars": "kchar/q", "llm.wait_s": "s/q",
                  "llm.max_in_flight": "count"})
    for name in SPAN_LAYERS:
        units.update({f"{name}.calls": "calls/q", f"{name}.self_s": "s/q",
                      f"{name}.fails": "fails/q"})
    for fn in TABLEFNS:
        units.update({f"tablefns.{fn}.calls": "calls/q", f"tablefns.{fn}.self_s": "s/q"})
    units.update({"profiler.cache_hits": "hits/q", "profiler.cache_misses": "misses/q",
                  "selector.kept_ratio": "ratio", "explainer.be_careful_lines": "lines/q",
                  "fuzzy.similarity.calls": "calls/q", "runner.solve.attempts_per_call": "ratio",
                  "runner.solve.success_ratio": "ratio", "trace.overhead_ratio": "ratio"})
    return units


class Workload:
    """Generated inputs plus the closed loop that drives the pipeline."""

    def __init__(self, work: Path):
        from simllm import SimLLM
        from tableqa.pipeline import EnsembleConfig, load_questions

        self.work = work
        self.spec = json.loads((work / "workload.json").read_text(encoding="utf-8"))
        self.tables_dir = str(work / "tables")
        self.questions = load_questions(str(work / "questions.jsonl"))
        with open(work / "questions.jsonl", encoding="utf-8") as fh:
            self.abstain = {o["id"]: o["abstain"] for o in map(json.loads, fh)}
        self.client = SimLLM.from_file(str(work / "script.json"))
        self.cfg = EnsembleConfig(repetitions=self.spec["repetitions"])
        self.reset()

    def reset(self) -> None:
        self.latencies: list = []
        self.by_question: dict = {}
        self.round_times: list = []
        self.predictions: list = []
        self.answered = self.runs = self.failed_runs = self.wrong = 0
        self.client.reset_counters()

    def _ensemble(self, questions: list, ctx) -> None:
        from tableqa.pipeline import ensemble_answers
        from tableqa.answerer import compare_answers

        self.answered += len(questions)
        t0 = time.perf_counter()
        try:
            finals, records = ensemble_answers(questions, self.tables_dir, ctx, self.cfg)
        except Exception:
            traceback.print_exc()
            self._took(questions, time.perf_counter() - t0)
            self.wrong += len(questions)
            return
        self._took(questions, time.perf_counter() - t0)
        for q in questions:
            pred = finals[q.id]
            recs = records[q.id]
            self.runs += len(recs)
            self.failed_runs += sum(r.failure is not None for r in recs)
            self.predictions.append((q, pred))
            if self.abstain[q.id]:
                ok = pred is None
            else:
                ok = pred is not None and compare_answers(pred, q.gold)
            if not ok:
                self.wrong += 1
                print(f"gold mismatch on {q.id}: got {pred and pred.to_dict()}, "
                      f"expected {'abstain' if self.abstain[q.id] else q.gold.to_dict()}",
                      file=sys.stderr)

    def _took(self, questions: list, seconds: float) -> None:
        self.latencies.append(seconds)
        for q in questions:
            self.by_question.setdefault(q.id, []).append(seconds)

    def answer_latencies(self) -> list:
        """One sample per ask in ask mode; per question, the median over its
        batches in batch mode."""
        if self.spec["mode"] == "ask":
            return self.latencies
        return [statistics.median(v) for v in self.by_question.values()]

    def blocks(self) -> int:
        return len(self.questions) // self.spec.get("block", len(self.questions))

    def round(self, index: int) -> None:
        """One unit of closed-loop work on block `index % blocks()`: its
        questions as single-question asks, or as one batch in a fresh out-dir."""
        from tableqa.pipeline import PipelineContext

        block = len(self.questions) // self.blocks()
        start = (index % self.blocks()) * block
        questions = self.questions[start:start + block]
        if self.spec["mode"] == "ask":
            for q in questions:
                self._ensemble([q], PipelineContext(llm=self.client))
            return
        out = self.work / f"round{index}"
        ctx = PipelineContext(llm=self.client, cache_dir=str(out / "cache"),
                              trace_dir=str(out / "trace"))
        self._ensemble(questions, ctx)
        shutil.rmtree(out, ignore_errors=True)

    def loop(self, seconds: float, min_rounds: int = 1) -> None:
        """Run whole rounds while the next one is expected to end in time,
        and at least `min_rounds` of them and one of every block."""
        start = time.perf_counter()
        min_rounds = max(min_rounds, self.blocks())
        done = 0
        while True:
            t0 = time.perf_counter()
            self.round(done)
            self.round_times.append(time.perf_counter() - t0)
            done += 1
            elapsed = time.perf_counter() - start
            if done >= min_rounds and elapsed + elapsed / done > seconds:
                return

    def pass_time(self) -> float:
        """Wall time of one pass over all blocks: the sum over blocks of the
        median time of that block's rounds."""
        n = self.blocks()
        return sum(statistics.median(self.round_times[b::n]) for b in range(n))


def quantile(values: list, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(w: Workload, setup_s: float) -> dict:
    from tableqa.pipeline import score

    questions = w.answered
    return {
        "questions_per_s": len(w.questions) / w.pass_time(),
        "answer_latency_p50_s": statistics.median(w.answer_latencies()),
        "answer_latency_p90_s": quantile(w.answer_latencies(), 0.9),
        "llm_calls_per_question": sum(w.client.calls.values()) / questions,
        "prompt_kchars_per_question": w.client.prompt_chars / 1000 / questions,
        "accuracy": score(w.predictions).overall_accuracy,
        "failed_run_share": w.failed_runs / max(1, w.runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def per_layer(w: Workload, tracer, untraced_per_q: float) -> dict:
    from tracer import TABLEFNS

    q = w.answered
    totals = tracer.layer_totals()
    c = tracer.counters
    empty = {"calls": 0, "self_s": 0.0, "fails": 0, "total_s": 0.0}
    m = {f"llm.calls.{s}": w.client.calls[s] / q for s in LLM_STAGES}
    m["llm.prompt_kchars"] = w.client.prompt_chars / 1000 / q
    m["llm.wait_s"] = sum(t["total_s"] for n, t in totals.items() if n.startswith("llm.")) / q
    m["llm.max_in_flight"] = w.client.max_in_flight
    for name in SPAN_LAYERS:
        t = totals.get(name, empty)
        m[f"{name}.calls"] = t["calls"] / q
        m[f"{name}.self_s"] = t["self_s"] / q
        m[f"{name}.fails"] = t["fails"] / q
    for fn in TABLEFNS:
        t = totals.get(f"tablefns.{fn}", empty)
        m[f"tablefns.{fn}.calls"] = t["calls"] / q
        m[f"tablefns.{fn}.self_s"] = t["self_s"] / q
    m["profiler.cache_hits"] = c["profiler.cache_hits"] / q
    m["profiler.cache_misses"] = c["profiler.cache_misses"] / q
    m["selector.kept_ratio"] = c["selector.selected"] / max(1, c["selector.offered"])
    m["explainer.be_careful_lines"] = c["explainer.be_careful_lines"] / q
    m["fuzzy.similarity.calls"] = c["fuzzy.similarity.calls"] / q
    solves = totals.get("runner.solve", empty)["calls"]
    m["runner.solve.attempts_per_call"] = c["runner.solve.attempts"] / max(1, solves)
    m["runner.solve.success_ratio"] = c["runner.solve.successes"] / max(1, c["runner.solve.attempts"])
    m["trace.overhead_ratio"] = (sum(w.latencies) / q) / untraced_per_q
    return m


def measure_setup(script: Path) -> float:
    """Median wall time of fresh interpreters that import tableqa and build
    the context and client."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(script)],
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run(args, work: Path) -> int:
    subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--out", str(work)], check=True, timeout=170)
    sys.path.insert(0, str(SRC))
    w = Workload(work)

    if args.trace:
        from tracer import Tracer

        w.loop(args.seconds / 2)
        untraced_per_q = sum(w.latencies) / w.answered
        attempted, wrong = w.answered, w.wrong
        w.reset()
        tracer = Tracer()
        tracer.install(w.client)
        try:
            w.loop(args.seconds / 2)
        finally:
            tracer.uninstall()
        metrics = per_layer(w, tracer, untraced_per_q)
        units = layer_units()
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(str(out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl"))
        attempted += w.answered
        wrong += w.wrong
    else:
        setup_s = measure_setup(work / "script.json")
        w.loop(args.seconds, w.spec.get("min_rounds", 1))
        metrics = end_to_end(w, setup_s)
        units = E2E_UNITS
        attempted, wrong = w.answered, w.wrong
    if w.client.misses:
        print(f"{w.client.misses} prompts had no scripted reply", file=sys.stderr)
        wrong += w.client.misses
    correct = wrong == 0
    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": wrong,
                      "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}))
    return 0 if correct else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "tableqa" / "pipeline.py").is_file():
        print(f"tableqa sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
