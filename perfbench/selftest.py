"""Self-tests of the benchmark harness (not of tableqa).

    python3 perfbench/selftest.py

They check that the simulated backend's voted answers do not depend on the
order of a question's repetitions, that self-time arithmetic holds on nested
and overlapping spans, that the tracer restores every name it wraps, that
one seed always generates byte-identical inputs, and that BENCHMARK.json
lists exactly the metrics and workloads run.py reports.
"""

from __future__ import annotations

import filecmp
import os
import random
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
from simllm import SimLLM  # noqa: E402
from tracer import TARGETS, Span, Tracer  # noqa: E402

WORK = HERE.parent / ".perfbench_work" / f"selftest-{os.getpid()}"


def tearDownModule():
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        WORK.parent.rmdir()
    except OSError:
        pass  # a benchmark run still uses it


def _files(root: Path) -> list:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for workload in sorted(gen.WORKLOADS):
            a, b, c = (WORK / f"{workload}-{k}" for k in "abc")
            gen.generate(workload, 11, str(a))
            gen.generate(workload, 11, str(b))
            gen.generate(workload, 12, str(c))
            self.assertEqual(_files(a), _files(b))
            _, mismatch, errors = filecmp.cmpfiles(a, b, _files(a), shallow=False)
            self.assertEqual((mismatch, errors), ([], []), workload)
            self.assertFalse(filecmp.cmp(a / "questions.jsonl", c / "questions.jsonl",
                                         shallow=False), workload)


class ShuffledRepetitionsTest(unittest.TestCase):
    def test_vote_independent_of_repetition_order(self):
        from tableqa.pipeline import (EnsembleConfig, PipelineContext, load_questions,
                                      run_pipeline_batch, vote)

        out = WORK / "shuffle"
        gen.generate("ask_survey", 5, str(out))
        questions = load_questions(str(out / "questions.jsonl"))
        cfg = EnsembleConfig(repetitions=gen.WORKLOADS["ask_survey"]["repetitions"])
        rng = random.Random(0)

        def voted(q, order):
            ctx = PipelineContext(llm=SimLLM.from_file(str(out / "script.json")))
            records = []
            for rep in order:
                records += run_pipeline_batch([q], str(out / "tables"), ctx, rep)
            self.assertEqual(ctx.llm.misses, 0)
            return vote(records, cfg)

        for q in questions[:20]:
            order = list(range(cfg.repetitions))
            baseline = voted(q, order)
            self.assertIsNotNone(baseline, q.id)
            self.assertEqual(baseline.canonical_key(), q.gold.canonical_key(), q.id)
            for _ in range(2):
                rng.shuffle(order)
                self.assertEqual(voted(q, order).canonical_key(), baseline.canonical_key(),
                                 (q.id, order))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        clock = FakeClock()
        tr = Tracer(clock)

        def at(t):
            clock.now = t

        root, root_tok = tr.start("root")            # [0, 10]
        at(1)
        a, a_tok = tr.start("a")                     # [1, 4]
        at(2)
        g, g_tok = tr.start("grandchild")            # [2, 3]
        at(3)
        tr.finish(g, g_tok)
        at(4)
        tr.finish(a, a_tok)
        # A sibling that overlaps `a`, as a concurrent child would: [3, 6].
        b = Span(99, "b", 3.0, root.id, root.request)
        b.end = 6.0
        tr.spans.append(b)
        at(10)
        tr.finish(root, root_tok, failed=True)

        self_s = tr.self_times()
        self.assertAlmostEqual(self_s[root.id], 10 - 5)   # children cover [1, 6]
        self.assertAlmostEqual(self_s[a.id], 3 - 1)
        self.assertAlmostEqual(self_s[g.id], 1)
        self.assertAlmostEqual(self_s[b.id], 3)
        self.assertEqual(g.parent, a.id)
        self.assertEqual(a.parent, root.id)
        self.assertEqual({g.request, a.request}, {root.request})
        other, other_tok = tr.start("next request")
        tr.finish(other, other_tok)
        self.assertNotEqual(other.request, root.request)
        totals = tr.layer_totals()
        self.assertEqual(totals["root"]["fails"], 1)
        # The overlap [3, 4] of the siblings counts in both of them.
        self.assertAlmostEqual(sum(t["self_s"] for t in totals.values()), 11)


class InstallTest(unittest.TestCase):
    def test_uninstall_restores_every_name(self):
        import importlib

        from tracer import _resolve

        originals = [(p, a, _resolve(p).__dict__[a]) for p, a, _ in TARGETS]
        llm = SimLLM({"latency_s": {}, "questions": {}, "instructions": {}, "replies": {}})
        tr = Tracer()
        tr.install(llm)
        self.assertIsNot(importlib.import_module("tableqa.pipeline").load_csv,
                         importlib.import_module("tableqa.table_core").load_csv)
        tr.uninstall()
        for path, attr, original in originals:
            self.assertIs(_resolve(path).__dict__[attr], original, (path, attr))
        self.assertNotIn("complete", vars(llm))


class ContractTest(unittest.TestCase):
    def test_benchmark_json_lists_what_run_reports(self):
        import json
        from collections import Counter
        from types import SimpleNamespace

        import run

        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.E2E_UNITS)
        units = run.layer_units()
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, units)
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(gen.WORKLOADS))
        client = SimpleNamespace(calls=Counter(), prompt_chars=0, max_in_flight=1)
        w = SimpleNamespace(answered=1, client=client, latencies=[1.0])
        self.assertEqual(set(run.per_layer(w, Tracer(), 1.0)), set(units))


if __name__ == "__main__":
    unittest.main()
