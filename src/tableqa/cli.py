"""Command line interface.

Subcommands: describe, ask, bench, plan-run, ensemble-curve,
dsl-reference.  Global flags pick the LLM backend (--mock for scripted
tests, otherwise HTTP per the config file), the cache and trace
directories, and deterministic sampling.
"""

from __future__ import annotations

import json
import os
import sys

import click
import yaml

from .answerer import Answer, AnswerType, CompareConfig, format_answer
from .llm_client import HTTPClient, LLMConfig, MockClient
from .pipeline import (
    EnsembleConfig,
    PipelineContext,
    Question,
    ensemble_answers,
    ensemble_curve,
    load_questions,
    load_table_profiles,
    score,
    vote,
)
from .planlang import dsl_reference, parse_plan, validate_plan
from .runner import execute_plan, _render_value
from .table_core import load_csv


def _build_context(config_path, mock_path, deterministic, use_interpreter,
                   cache_dir, trace_dir=None) -> PipelineContext:
    cfg = LLMConfig()
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            cfg = LLMConfig.from_dict(yaml.safe_load(fh) or {})
    cfg.deterministic = deterministic
    if deterministic:
        cfg.temperature = 0.0
    llm = MockClient.from_file(mock_path) if mock_path else HTTPClient(cfg)
    return PipelineContext(
        llm=llm,
        cache_dir=cache_dir,
        trace_dir=trace_dir,
        use_interpreter=use_interpreter,
        concurrency=cfg.concurrency,
    )


def _global_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(exists=True),
                      default=None, help="YAML/JSON config file.")(fn)
    fn = click.option("--mock", "mock_path", type=click.Path(exists=True),
                      default=None, help="Scripted mock LLM (JSON).")(fn)
    fn = click.option("--deterministic", is_flag=True,
                      help="Temperature 0 for reproducible runs.")(fn)
    fn = click.option("--use-interpreter", is_flag=True,
                      help="Use the LLM interpreter instead of the rule formatter.")(fn)
    fn = click.option("--cache-dir", type=click.Path(), default=None,
                      help="Column-profile cache directory.")(fn)
    return fn


@click.group()
def main():
    """Question answering over CSV tables via LLM-generated plans."""


@main.command()
@click.argument("table_path", type=click.Path(exists=True))
@_global_options
def describe(table_path, config_path, mock_path, deterministic,
             use_interpreter, cache_dir):
    """Profile a table and print its column descriptions."""
    ctx = _build_context(config_path, mock_path, deterministic,
                         use_interpreter, cache_dir)
    if mock_path is None and config_path is None:
        ctx.llm = None  # offline: template descriptions
    _, profiles, _ = load_table_profiles(table_path, ctx)
    click.echo(json.dumps([p.to_dict() for p in profiles],
                          ensure_ascii=False, indent=2))


@main.command()
@click.argument("table_path", type=click.Path(exists=True))
@click.argument("question")
@click.option("--type", "answer_type", required=True,
              type=click.Choice([t.value for t in AnswerType]),
              help="Expected answer type.")
@click.option("--repetitions", default=1, show_default=True)
@click.option("--trace-dir", type=click.Path(), default=None)
@_global_options
def ask(table_path, question, answer_type, repetitions, trace_dir,
        config_path, mock_path, deterministic, use_interpreter, cache_dir):
    """Answer a single question over one CSV table."""
    ctx = _build_context(config_path, mock_path, deterministic,
                         use_interpreter, cache_dir, trace_dir)
    tables_dir = os.path.dirname(os.path.abspath(table_path))
    table_id = os.path.basename(table_path)
    if table_id.endswith(".csv"):
        table_id = table_id[:-4]
    q = Question("q0", table_id, question, AnswerType(answer_type))
    finals, _ = ensemble_answers([q], tables_dir, ctx,
                                 EnsembleConfig(repetitions=repetitions))
    answer = finals["q0"]
    if answer is None:
        click.echo(json.dumps({"abstain": True}))
        sys.exit(1)
    click.echo(json.dumps(answer.to_dict(), ensure_ascii=False))


@main.command()
@click.argument("questions_path", type=click.Path(exists=True))
@click.option("--tables-dir", required=True, type=click.Path(exists=True))
@click.option("--repetitions", default=8, show_default=True)
@click.option("--out-dir", type=click.Path(), default="bench_out",
              show_default=True, help="Predictions, report and traces.")
@_global_options
def bench(questions_path, tables_dir, repetitions, out_dir, config_path,
          mock_path, deterministic, use_interpreter, cache_dir):
    """Run the benchmark: answer every question, vote, score, report."""
    os.makedirs(out_dir, exist_ok=True)
    ctx = _build_context(config_path, mock_path, deterministic, use_interpreter,
                         cache_dir or os.path.join(out_dir, "cache"),
                         trace_dir=os.path.join(out_dir, "trace"))
    questions = load_questions(questions_path)
    cfg = EnsembleConfig(repetitions=repetitions)
    finals, records = ensemble_answers(questions, tables_dir, ctx, cfg)

    with open(os.path.join(out_dir, "predictions.jsonl"), "w", encoding="utf-8") as fh:
        for q in questions:
            answer = finals[q.id]
            fh.write(json.dumps({
                "id": q.id,
                "answer": answer.to_dict() if answer else None,
            }, ensure_ascii=False) + "\n")

    # Per-repetition answers, for ensemble-curve recomputation.
    with open(os.path.join(out_dir, "repetitions.json"), "w", encoding="utf-8") as fh:
        json.dump({
            "questions": [
                {
                    "id": q.id,
                    "answer_type": q.answer_type.value,
                    "gold": q.gold.value if q.gold else None,
                }
                for q in questions
            ],
            "runs": {
                qid: [
                    {
                        "repetition": r.repetition,
                        "answer": r.answer.to_dict() if r.answer else None,
                        "failure": r.failure,
                    }
                    for r in recs
                ]
                for qid, recs in records.items()
            },
        }, fh, ensure_ascii=False, indent=2)

    if any(q.gold is not None for q in questions):
        report = score([(q, finals[q.id]) for q in questions])
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, ensure_ascii=False, indent=2)
        click.echo(report.to_text())
    else:
        click.echo(f"answered {len(questions)} questions (no gold answers to score)")


@main.command("plan-run")
@click.argument("table_path", type=click.Path(exists=True))
@click.argument("plan_path", type=click.Path(exists=True))
def plan_run(table_path, plan_path):
    """Parse, validate and execute a plan file against a table."""
    table = load_csv(table_path)
    with open(plan_path, encoding="utf-8") as fh:
        plan = validate_plan(parse_plan(fh.read()), table.column_names)
    value = execute_plan(plan, table)
    click.echo(json.dumps(_render_value(value), ensure_ascii=False))


@main.command("ensemble-curve")
@click.argument("bench_dir", type=click.Path(exists=True))
@click.option("--max-n", default=8, show_default=True)
def ensemble_curve_cmd(bench_dir, max_n):
    """Recompute voting accuracy for n=1..max-n from a bench run; emits
    CSV (n,accuracy) on stdout."""
    from .pipeline import RunRecord

    with open(os.path.join(bench_dir, "repetitions.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    questions = []
    for qd in data["questions"]:
        at = AnswerType(qd["answer_type"])
        gold = None
        if qd["gold"] is not None:
            gold = Answer.from_dict({"type": at.value, "value": qd["gold"]})
        questions.append(Question(qd["id"], "", "", at, gold))
    records = {}
    for qid, runs in data["runs"].items():
        records[qid] = [
            RunRecord(
                question_id=qid,
                repetition=r["repetition"],
                answer=Answer.from_dict(r["answer"]) if r["answer"] else None,
                failure=r["failure"],
            )
            for r in runs
        ]
    click.echo("n,accuracy")
    for n, acc in ensemble_curve(records, questions, max_n):
        click.echo(f"{n},{acc:.4f}")


@main.command("dsl-reference")
def dsl_reference_cmd():
    """Print the plan language reference (the same text the coder
    prompt embeds)."""
    click.echo(dsl_reference())


if __name__ == "__main__":
    main()
