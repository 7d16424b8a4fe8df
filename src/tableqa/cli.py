"""Command line interface.

Subcommands: describe, ask, bench, plan-run, ensemble-curve,
dsl-reference.  Global flags pick the LLM backend (--mock for scripted
tests, otherwise HTTP per the config file) and the profile cache
directory.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys

import click

from .answerer import AnswerType
from .llm_client import HTTPClient, LLMConfig, MockClient
from .pipeline import (
    EnsembleConfig,
    PipelineContext,
    Question,
    RunRecord,
    ensemble_answers,
    ensemble_curve,
    load_questions,
    load_table_profiles,
    score,
)
from .planlang import dsl_reference
from .runner import render_value, try_plan
from .table_core import TableError, load_csv


@contextlib.contextmanager
def _usage_error(param: str, *errors: type, named: bool = False):
    """Raise any of `errors` from the block, which loads the file given as
    `param`, as a usage error naming it (exit 2), typed when `named`."""
    try:
        yield
    except errors as exc:
        message = f"{type(exc).__name__}: {exc}" if named else str(exc)
        raise click.BadParameter(message, param_hint=f"'{param}'") from exc


def _build_context(config_path, mock_path, cache_dir, trace_dir=None) -> PipelineContext:
    cfg = LLMConfig()
    if config_path:
        import yaml  # only runs with a config file pay for it
        with _usage_error("--config", OSError, TypeError, ValueError, OverflowError,
                          RecursionError, yaml.YAMLError, named=True), \
                open(config_path, encoding="utf-8") as fh:
            cfg = LLMConfig.from_dict(yaml.safe_load(fh) or {})
    with _usage_error("--mock", OSError, TypeError, ValueError, RecursionError, named=True):
        llm = MockClient.from_file(mock_path) if mock_path else HTTPClient(cfg)
    return PipelineContext(
        llm=llm,
        cache_dir=cache_dir,
        trace_dir=trace_dir,
        concurrency=cfg.concurrency,
    )


def _echo_json(obj, **kwargs) -> None:
    """Print obj as JSON with non-ASCII text kept, but a lone surrogate
    (which no encoding can write) as its escape, as the run log does."""
    text = json.dumps(obj, ensure_ascii=False, **kwargs)
    click.echo(text.encode("utf-8", "backslashreplace").decode("utf-8"))


def _global_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(exists=True),
                      default=None, help="YAML/JSON config file.")(fn)
    fn = click.option("--mock", "mock_path", type=click.Path(exists=True),
                      default=None, help="Scripted mock LLM (JSON).")(fn)
    fn = click.option("--cache-dir", type=click.Path(file_okay=False), default=None,
                      help="Column-profile cache directory.")(fn)
    return fn


@click.group()
def main():
    """Question answering over CSV tables via LLM-generated plans."""


@main.command()
@click.argument("table_path", type=click.Path(exists=True))
@_global_options
def describe(table_path, config_path, mock_path, cache_dir):
    """Profile a table and print its column descriptions."""
    ctx = _build_context(config_path, mock_path, cache_dir)
    if mock_path is None and config_path is None:
        ctx.llm = None  # offline: template descriptions
    with _usage_error("TABLE_PATH", TableError):
        _, profiles = load_table_profiles(table_path, ctx)
    _echo_json([p.to_dict() for p in profiles], indent=2)


@main.command()
@click.argument("table_path", type=click.Path(exists=True))
@click.argument("question")
@click.option("--type", "answer_type", required=True,
              type=click.Choice([t.value for t in AnswerType]),
              help="Expected answer type.")
@click.option("--repetitions", default=1, show_default=True,
              type=click.IntRange(min=1))
@click.option("--trace-dir", type=click.Path(file_okay=False), default=None)
@_global_options
def ask(table_path, question, answer_type, repetitions, trace_dir,
        config_path, mock_path, cache_dir):
    """Answer a single question over one CSV table."""
    # The pipeline finds a table as <tables-dir>/<table id>.csv.
    table_id = os.path.basename(table_path)
    if not table_id.endswith(".csv"):
        raise click.BadParameter(f"{table_path!r} is not a .csv file",
                                 param_hint="'TABLE_PATH'")
    table_id = table_id[:-4]
    ctx = _build_context(config_path, mock_path, cache_dir, trace_dir)
    tables_dir = os.path.dirname(os.path.abspath(table_path))
    q = Question("q0", table_id, question, AnswerType(answer_type))
    finals, _ = ensemble_answers([q], tables_dir, ctx, EnsembleConfig(repetitions))
    answer = finals["q0"]
    if answer is None:
        _echo_json({"abstain": True})
        sys.exit(1)
    _echo_json(answer.to_dict())


@main.command()
@click.argument("questions_path", type=click.Path(exists=True))
@click.option("--tables-dir", required=True, type=click.Path(exists=True))
@click.option("--repetitions", default=8, show_default=True,
              type=click.IntRange(min=1))
@click.option("--out-dir", type=click.Path(file_okay=False), default="bench_out",
              show_default=True, help="Predictions, report and traces.")
@_global_options
def bench(questions_path, tables_dir, repetitions, out_dir, config_path, mock_path, cache_dir):
    """Run the benchmark: answer every question, vote, score, report."""
    with _usage_error("QUESTIONS_PATH", OSError, ValueError):
        questions = load_questions(questions_path)
    ctx = _build_context(config_path, mock_path, cache_dir or os.path.join(out_dir, "cache"),
                         trace_dir=os.path.join(out_dir, "trace"))
    for option, path in (("--out-dir", ctx.trace_dir),
                         ("--cache-dir" if cache_dir else "--out-dir", ctx.cache_dir)):
        with _usage_error(option, OSError):
            os.makedirs(path, exist_ok=True)
    finals, _ = ensemble_answers(questions, tables_dir, ctx, EnsembleConfig(repetitions))

    def output(name):  # writes a lone surrogate (from a question id, say) as its escape
        return open(os.path.join(out_dir, name), "w", encoding="utf-8", errors="backslashreplace")

    with output("predictions.jsonl") as fh:
        for q in questions:
            answer = finals[q.id] and finals[q.id].to_dict()
            fh.write(json.dumps({"id": q.id, "answer": answer}, ensure_ascii=False) + "\n")

    if any(q.gold is not None for q in questions):
        report = score([(q, finals[q.id]) for q in questions])
        with output("report.json") as fh:
            json.dump(report.to_dict(), fh, ensure_ascii=False, indent=2)
        click.echo(report.to_text())
    else:
        click.echo(f"answered {len(questions)} questions (no gold answers to score)")


@main.command("plan-run")
@click.argument("table_path", type=click.Path(exists=True))
@click.argument("plan_path", type=click.Path(exists=True))
def plan_run(table_path, plan_path):
    """Parse, validate and execute a plan file against a table."""
    with _usage_error("TABLE_PATH", TableError):
        table = load_csv(table_path)
    with _usage_error("PLAN_PATH", OSError, UnicodeDecodeError), \
            open(plan_path, encoding="utf-8") as fh:
        plan = fh.read()
    stage, message, value = try_plan(plan, table)
    if stage:
        raise click.ClickException(f"{stage}: {message}")  # exit 1
    _echo_json(render_value(value))


@main.command("ensemble-curve")
@click.argument("questions_path", type=click.Path(exists=True))
@click.argument("bench_dir", type=click.Path(exists=True))
def ensemble_curve_cmd(questions_path, bench_dir):
    """Recompute voting accuracy over each question's first n logged runs,
    n=1..(most of any question), from a bench run's log; emits CSV (n,accuracy)."""
    with _usage_error("QUESTIONS_PATH", OSError, ValueError):
        questions = load_questions(questions_path)
    records = {q.id: [] for q in questions}  # a question with no run lines abstains
    with _usage_error("BENCH_DIR", OSError, ValueError), \
            open(os.path.join(bench_dir, "trace", "runs.jsonl"), "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:  # every line names a known question; vote lines are then skipped
                line = json.loads(raw)
                runs = records[line["question_id"]]
                if "repetition" in line:
                    runs.append(RunRecord.from_dict(line["question_id"], line))
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
                raise ValueError(f"line {lineno}: {type(exc).__name__}: {exc}") from exc
    click.echo("n,accuracy")
    for n, acc in ensemble_curve(records, questions):
        click.echo(f"{n},{acc:.4f}")


@main.command("dsl-reference")
def dsl_reference_cmd():
    """Print the plan language reference (the same text the coder
    prompt embeds)."""
    click.echo(dsl_reference())


if __name__ == "__main__":
    main()
