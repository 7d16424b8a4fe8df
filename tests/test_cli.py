import json
import os
import pathlib
import re
import tempfile

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import e2e_fixtures
from tableqa.cli import main
from tableqa.llm_client import MockClient
from tableqa.table_core import TableError, load_csv

# CSV bytes that cannot be loaded, and the load error after the path.
UNLOADABLE_CSVS = {
    "undecodable": (b"a,b\n1,\xff\n", ": 'utf-8' codec can't decode byte 0xff"),
    "field-too-large": (b"a,b\n1," + b"x" * 200_000 + b"\n",
                        ": field larger than field limit (131072)"),
    "ragged-row": (b"a,b\n1,2,3\n", " row 2: expected 2 fields, got 3"),
}


@pytest.fixture
def fixture_paths(tmp_path):
    return e2e_fixtures.write_fixture(tmp_path)


@pytest.fixture
def runner():
    return CliRunner()


class TestDescribe:
    def test_offline_template_descriptions(self, runner, fixture_paths):
        tables_dir, _, _ = fixture_paths
        result = runner.invoke(main, ["describe",
                                      os.path.join(tables_dir, "encuestas.csv")])
        assert result.exit_code == 0, result.output
        assert '"name": "Mes de realización"' in result.output  # UTF-8, not escaped
        profiles = json.loads(result.output)
        names = [p["name"] for p in profiles]
        assert names == ["Mes de realización", "Edad", "Partido", "Valoración"]
        edad = next(p for p in profiles if p["name"] == "Edad")
        assert edad["kind"] == "Numeric"
        assert edad["description"].startswith("Column 'Edad'")

    def test_mock_descriptions(self, runner, fixture_paths):
        tables_dir, _, mock_path = fixture_paths
        result = runner.invoke(main, ["describe",
                                      os.path.join(tables_dir, "encuestas.csv"),
                                      "--mock", mock_path])
        assert result.exit_code == 0, result.output
        profiles = {p["name"]: p for p in json.loads(result.output)}
        assert profiles["Mes de realización"]["description"] == \
            "Month when the survey was conducted"


class TestAsk:
    def test_single_question(self, runner, fixture_paths):
        tables_dir, _, mock_path = fixture_paths
        result = runner.invoke(main, [
            "ask", os.path.join(tables_dir, "encuestas.csv"),
            "¿Cuántas encuestas se realizaron en enero?",
            "--type", "Number", "--mock", mock_path,
        ])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output) == {"type": "Number", "value": 3.0}

    def test_abstain_exits_nonzero(self, runner, fixture_paths):
        tables_dir, _, mock_path = fixture_paths
        result = runner.invoke(main, [
            "ask", os.path.join(tables_dir, "encuestas.csv"),
            "¿Pregunta imposible?",
            "--type", "Number", "--mock", mock_path,
        ])
        assert result.exit_code == 1
        assert json.loads(result.output) == {"abstain": True}

    def test_trace_dir(self, runner, fixture_paths, tmp_path):
        tables_dir, _, mock_path = fixture_paths
        trace_dir = str(tmp_path / "ask_trace")
        result = runner.invoke(main, [
            "ask", os.path.join(tables_dir, "encuestas.csv"),
            "¿Cuál es el partido más frecuente?",
            "--type", "Category", "--mock", mock_path,
            "--trace-dir", trace_dir,
        ])
        assert result.exit_code == 0, result.output
        runs, votes = e2e_fixtures.read_run_log(trace_dir)
        assert [(r["question_id"], r["repetition"]) for r in runs] == [("q0", 0)]
        assert "run_trace" in runs[0] and votes[0]["question_id"] == "q0"

    def test_lone_surrogate_answer_prints_as_its_escape(self, runner, tmp_path):
        tables_dir, _, _ = e2e_fixtures.write_fixture(tmp_path)
        script = [dict(e, reply='answer = "\\ud800"') if e["stage"] == "coder" else e
                  for e in e2e_fixtures.MOCK_SCRIPT]
        mock_path = tmp_path / "surrogate.json"
        mock_path.write_text(json.dumps(script), encoding="utf-8")
        result = runner.invoke(main, [
            "ask", os.path.join(tables_dir, "encuestas.csv"),
            "¿Cuál es el partido más frecuente?",
            "--type", "Category", "--mock", str(mock_path),
        ])
        assert result.exit_code == 0, result.output
        assert result.output == '{"type": "Category", "value": "\\ud800"}\n'

    def test_refuses_a_table_that_is_not_csv(self, runner, fixture_paths, tmp_path):
        tables_dir, _, mock_path = fixture_paths
        table = tmp_path / "t.txt"
        with open(os.path.join(tables_dir, "encuestas.csv"), encoding="utf-8") as fh:
            table.write_text(fh.read(), encoding="utf-8")
        result = runner.invoke(main, [
            "ask", str(table), "¿Cuántas encuestas se realizaron en enero?",
            "--type", "Number", "--mock", mock_path,
        ])
        assert result.exit_code == 2
        assert "TABLE_PATH" in result.output and "t.txt" in result.output
        assert "is not a .csv file" in result.output

    def test_ask_help_has_no_interpreter_flag(self, runner):
        result = runner.invoke(main, ["ask", "--help"])
        assert result.exit_code == 0
        assert "interpret" not in result.output


@pytest.mark.parametrize("command", ["ask", "bench"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_repetitions_below_one_is_a_usage_error(runner, fixture_paths, command, value):
    tables_dir, questions_path, mock_path = fixture_paths
    args = {
        "ask": ["ask", os.path.join(tables_dir, "encuestas.csv"), "¿Q?",
                "--type", "Number"],
        "bench": ["bench", questions_path, "--tables-dir", tables_dir],
    }[command]
    result = runner.invoke(main, args + ["--mock", mock_path, "--repetitions", value])
    assert result.exit_code == 2, result.output
    assert "--repetitions" in result.output
    assert not isinstance(result.exception, ValueError)


@pytest.mark.parametrize("line, message", [
    ("{not json", "line 2: JSONDecodeError: Expecting property name"),
    ('["q2", "encuestas"]', "line 2: TypeError: a JSON list, not an object"),
    ('{"id": "q2", "question": "?", "answer_type": "Number"}', "line 2: KeyError: 'table_id'"),
    ('{"id": "q2", "table_id": "encuestas", "question": "?", "answer_type": "Numero"}',
     "line 2: ValueError: 'Numero' is not a valid AnswerType"),
    ('{"id": "q2", "table_id": "encuestas", "question": null, "answer_type": "Number"}',
     "line 2: TypeError: question is null, not a string"),
    (None, "[Errno 21] Is a directory"),
    ('{"id": "q1", "table_id": "encuestas", "question": "?", "answer_type": "Category"}',
     "line 2: ValueError: duplicate question id 'q1'"),
    ('{"id": "q2", "table_id": "../../outside/secret", "question": "?", "answer_type": "Number"}',
     "line 2: ValueError: table_id '../../outside/secret' leaves the tables directory"),
    ('{"id": "q2", "table_id": "/etc/secret", "question": "?", "answer_type": "Number"}',
     "line 2: ValueError: table_id '/etc/secret' leaves the tables directory"),
], ids=["not-json", "not-an-object", "no-table-id", "unknown-answer-type", "null-question",
        "directory", "duplicate-id", "table-id-parent", "table-id-absolute"])
def test_malformed_questions_file_is_a_usage_error(runner, fixture_paths, tmp_path,
                                                   line, message):
    tables_dir, questions_path, mock_path = fixture_paths
    with open(questions_path, encoding="utf-8") as fh:
        first = fh.readline()
    bad = tmp_path / "bad.jsonl"
    if line is None:
        bad.mkdir()
    else:
        bad.write_text(first + line + "\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    for args in (["bench", str(bad), "--tables-dir", tables_dir, "--mock", mock_path,
                  "--out-dir", str(out_dir)],
                 ["ensemble-curve", str(bad), str(tmp_path)]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"Invalid value for 'QUESTIONS_PATH': {message}" in result.output
    assert not out_dir.exists()


# `message` is a regex: an unknown or missing key is matched on the key, not
# on the wording of Python's TypeError, which differs between versions.
@pytest.mark.parametrize("option, text, message", [
    ("--config", "temperature: hot\n",
     "ValueError: temperature must be a finite number, not 'hot'"),
    ("--config", "base_url: [unclosed\n", "ParserError: while parsing a flow sequence"),
    ("--mock", '[{"stage": "coder"}]', "TypeError: .*'reply'"),
    ("--mock", '[{"stage": ', "JSONDecodeError: Expecting value"),
    ("--config", None, "IsADirectoryError"),
    ("--config", "concurency: 1\n", "TypeError: .*'concurency'"),
    ("--config", "model: {genral: x}\n", "TypeError: .*'genral'"),
    ("--config", "base_url: 5\n", "ValueError: base_url must be a string, not 5"),
    ("--config", "api_key: 5\n", "ValueError: api_key must be a string, not 5"),
    ("--mock", '[{"stage": "coder", "reply": "x", "consume_onse": true}]',
     "TypeError: .*'consume_onse'"),
    ("--mock", '[{"stage": "coder", "reply": "x", "match": 5}]',
     "ValueError: match must be a string, not 5"),
    ("--mock", '[{"stage": "coder", "reply": 5}]', "ValueError: reply must be a string, not 5"),
    ("--mock", '[{"stage": "explainr", "reply": "x"}]',
     "ValueError: stage must be one of descriptor, selector, explainer, coder, not 'explainr'"),
    ("--mock", '[{"stage": "coder", "reply": "x", "consume_once": "yes"}]',
     "ValueError: consume_once must be true or false, not 'yes'"),
    # Settings removed from the config file are unknown keys like any other.
    ("--config", "retries: 5\n", "TypeError: .*'retries'"),
    ("--config", "model: {explainer_override: x}\n", "TypeError: .*'explainer_override'"),
], ids=["config-bad-setting", "config-bad-yaml", "mock-no-reply", "mock-bad-json",
        "config-directory", "config-unknown-key", "config-unknown-model-key",
        "config-url-not-text", "config-key-not-text", "mock-unknown-key",
        "mock-match-not-text", "mock-reply-not-text", "mock-unknown-stage",
        "mock-consume-once-not-bool", "config-retries", "config-explainer-override"])
def test_unreadable_config_or_mock_file_is_a_usage_error(runner, fixture_paths,
                                                         tmp_path, option, text, message):
    tables_dir, questions_path, _ = fixture_paths
    path = tmp_path / "settings"
    if text is None:
        path.mkdir()
    else:
        path.write_text(text, encoding="utf-8")
    out_dir = tmp_path / "out"
    for args in (["ask", os.path.join(tables_dir, "encuestas.csv"), "¿Q?", "--type", "Number"],
                 ["bench", questions_path, "--tables-dir", tables_dir, "--out-dir", str(out_dir)]):
        result = runner.invoke(main, args + [option, str(path)])
        assert result.exit_code == 2, result.output
        assert re.search(f"Invalid value for '{option}': {message}", result.output)
    assert not out_dir.exists()


@pytest.mark.parametrize("command, option", [
    ("bench", "--out-dir"), ("bench", "--cache-dir"), ("ask", "--trace-dir"), ("ask", "--cache-dir"),
])
def test_output_directory_that_is_a_file_is_a_usage_error(runner, fixture_paths, tmp_path,
                                                           command, option):
    tables_dir, questions_path, mock_path = fixture_paths
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    out_dir = tmp_path / "out"  # the last --out-dir given wins
    args = {"bench": ["bench", questions_path, "--tables-dir", tables_dir, "--out-dir", str(out_dir)],
            "ask": ["ask", os.path.join(tables_dir, "encuestas.csv"), "¿Q?", "--type", "Number"]}
    result = runner.invoke(main, args[command] + ["--mock", mock_path, option, str(taken)])
    assert result.exit_code == 2, result.output
    assert re.search(f"Invalid value for '{option}': .* is a file", result.output)
    assert not out_dir.exists()


@pytest.mark.parametrize("taken, option", [
    ("out/trace", "--out-dir"), ("out/cache", "--out-dir"), ("taken", "--cache-dir"),
])
def test_bench_refuses_an_output_directory_it_cannot_make_before_any_request(
        runner, fixture_paths, tmp_path, monkeypatch, taken, option):
    tables_dir, questions_path, mock_path = fixture_paths
    calls = []
    complete = MockClient.complete
    monkeypatch.setattr(MockClient, "complete",
                        lambda self, req: calls.append(req) or complete(self, req))
    (tmp_path / "out").mkdir()
    (tmp_path / taken).write_text("", encoding="utf-8")
    cache = ["--cache-dir", str(tmp_path / "taken" / "cache")] if option == "--cache-dir" else []
    result = runner.invoke(main, ["bench", questions_path, "--tables-dir", tables_dir,
                                  "--mock", mock_path, "--out-dir", str(tmp_path / "out"),
                                  *cache])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}': [Errno" in result.output
    assert calls == []


DEEP = "[" * 100_000 + "]" * 100_000  # deeper than any parser recurses


@pytest.mark.parametrize("param", ["QUESTIONS_PATH", "--mock", "--config"])
def test_deeply_nested_input_is_a_usage_error(runner, fixture_paths, tmp_path, param):
    tables_dir, questions_path, mock_path = fixture_paths
    deep = tmp_path / "deep"
    deep.write_text(DEEP, encoding="utf-8")
    files = {"QUESTIONS_PATH": questions_path, "--mock": mock_path, param: str(deep)}
    config = ["--config", str(deep)] if param == "--config" else []
    result = runner.invoke(main, ["bench", files["QUESTIONS_PATH"], "--tables-dir", tables_dir,
                                  "--mock", files["--mock"], *config,
                                  "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{param}': " in result.output
    assert "RecursionError: maximum recursion depth exceeded" in result.output


@pytest.mark.parametrize("command", ["describe", "plan-run"])
@pytest.mark.parametrize("case", sorted(UNLOADABLE_CSVS))
def test_unloadable_table_is_a_usage_error(runner, tmp_path, command, case):
    content, message = UNLOADABLE_CSVS[case]
    table = tmp_path / "t.csv"
    table.write_bytes(content)
    plan = tmp_path / "plan.txt"
    plan.write_text("answer = count_rows(df)\n", encoding="utf-8")
    extra = [str(plan)] if command == "plan-run" else []
    result = runner.invoke(main, [command, str(table)] + extra)
    assert result.exit_code == 2, result.output
    assert "Invalid value for 'TABLE_PATH': " in result.output
    assert f"{str(table)!r}{message}" in result.output


class TestBench:
    @pytest.mark.parametrize("case", ["undecodable", "field-too-large"])
    def test_unloadable_table_fails_its_runs_with_the_load_error(
            self, runner, fixture_paths, tmp_path, case):
        tables_dir, questions_path, mock_path = fixture_paths
        table = os.path.join(tables_dir, "encuestas.csv")
        with open(table, "wb") as fh:
            fh.write(UNLOADABLE_CSVS[case][0])
        with pytest.raises(TableError) as error:
            load_csv(table)
        out_dir = tmp_path / "bench_out"
        result = runner.invoke(main, [
            "bench", questions_path, "--tables-dir", tables_dir,
            "--mock", mock_path, "--repetitions", "1", "--out-dir", str(out_dir),
        ])
        assert result.exit_code == 0, result.output
        runs, _ = e2e_fixtures.read_run_log(out_dir / "trace")
        assert {r["failure"] for r in runs} == {f"profile: {error.value}"}

    def test_full_benchmark(self, runner, fixture_paths, tmp_path):
        tables_dir, questions_path, mock_path = fixture_paths
        out_dir = str(tmp_path / "bench_out")
        result = runner.invoke(main, [
            "bench", questions_path, "--tables-dir", tables_dir,
            "--mock", mock_path, "--repetitions", "2", "--out-dir", out_dir,
        ])
        assert result.exit_code == 0, result.output
        assert "Score" in result.output and "Total" in result.output

        preds = {}
        with open(os.path.join(out_dir, "predictions.jsonl"), encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                preds[obj["id"]] = obj["answer"]
        assert preds == e2e_fixtures.EXPECTED

        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["overall"]["count"] == 6
        assert report["overall"]["accuracy"] == pytest.approx(5 / 6)

        # Explainability trace: prompts, instruction sets, plans.
        runs, votes = e2e_fixtures.read_run_log(os.path.join(out_dir, "trace"))
        assert [r["repetition"] for r in runs if r["question_id"] == "q1"] == [0, 1]
        run = next(r for r in runs if r["question_id"] == "q1" and r["repetition"] == 0)
        assert "explainer_prompt" in run and "coder_prompt" in run
        assert "count_containing" in json.dumps(run["run_trace"])
        assert any(v["question_id"] == "q1" for v in votes)

    def test_lone_surrogate_answer_is_written_as_its_escape(self, runner, tmp_path):
        tables_dir, questions_path, _ = e2e_fixtures.write_fixture(tmp_path)
        script = [dict(e, reply='answer = "\\ud800"') if e["stage"] == "coder" else e
                  for e in e2e_fixtures.MOCK_SCRIPT]
        mock_path = tmp_path / "surrogate.json"
        mock_path.write_text(json.dumps(script), encoding="utf-8")
        out_dir = tmp_path / "bench_out"
        result = runner.invoke(main, [
            "bench", questions_path, "--tables-dir", tables_dir,
            "--mock", str(mock_path), "--repetitions", "1", "--out-dir", str(out_dir),
        ])
        assert result.exit_code == 0, result.output
        category = {"type": "Category", "value": "\ud800"}
        preds = [json.loads(line) for line in
                 (out_dir / "predictions.jsonl").read_text("utf-8").splitlines()]
        assert {p["id"]: p["answer"] for p in preds}["q3"] == category
        runs, votes = e2e_fixtures.read_run_log(out_dir / "trace")
        assert next(r for r in runs if r["question_id"] == "q3")["answer"] == category
        assert votes[2] == {"question_id": "q3", "final": category}

    def test_bench_then_ensemble_curve(self, runner, fixture_paths, tmp_path):
        tables_dir, questions_path, mock_path = fixture_paths
        out_dir = str(tmp_path / "bench_out")
        result = runner.invoke(main, [
            "bench", questions_path, "--tables-dir", tables_dir,
            "--mock", mock_path, "--repetitions", "3", "--out-dir", out_dir,
        ])
        assert result.exit_code == 0, result.output
        curve = runner.invoke(main, ["ensemble-curve", questions_path, out_dir])
        assert curve.exit_code == 0, curve.output
        lines = curve.output.strip().splitlines()
        assert lines[0] == "n,accuracy"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(n) for n, _ in rows] == [1, 2, 3]
        # deterministic mock: flat curve equal to the bench accuracy
        assert all(float(acc) == pytest.approx(5 / 6, abs=1e-4) for _, acc in rows)

    def test_ensemble_curve_runs_to_the_bench_repetitions(self, runner, fixture_paths, tmp_path):
        # The curve has a point for every repetition in the log, past the 8
        # that `bench` runs by default.
        tables_dir, questions_path, mock_path = fixture_paths
        out_dir = str(tmp_path / "bench_out")
        result = runner.invoke(main, [
            "bench", questions_path, "--tables-dir", tables_dir,
            "--mock", mock_path, "--repetitions", "10", "--out-dir", out_dir,
        ])
        assert result.exit_code == 0, result.output
        curve = runner.invoke(main, ["ensemble-curve", questions_path, out_dir])
        assert curve.exit_code == 0, curve.output
        assert curve.output.splitlines() == ["n,accuracy"] + [f"{n},0.8333" for n in range(1, 11)]

    def test_repetitions_round_trip_with_failed_run_and_abstain(
            self, runner, fixture_paths, tmp_path):
        tables_dir, questions_path, mock_path = fixture_paths
        out_dir = str(tmp_path / "bench_out")
        result = runner.invoke(main, [
            "bench", questions_path, "--tables-dir", tables_dir,
            "--mock", mock_path, "--repetitions", "2", "--out-dir", out_dir,
        ])
        assert result.exit_code == 0, result.output
        log_path = os.path.join(out_dir, "trace", "runs.jsonl")
        with open(log_path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        runs = {(r["question_id"], r["repetition"]): r for r in lines if "repetition" in r}
        # q6 is the designed solve failure: failed runs, then an abstain.
        assert [runs["q6", rep]["answer"] for rep in (0, 1)] == [None, None]
        assert all(runs["q6", rep]["failure"].startswith("solve: ") for rep in (0, 1))
        assert runs["q2", 1]["answer"] == {"type": "Number", "value": 3.0}
        # A failed first repetition of q2 abstains q2 at n=1 only.
        runs["q2", 0].update(answer=None, failure="explain: no JSON object")
        with open(log_path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(line, ensure_ascii=False) + "\n" for line in lines)
        curve = runner.invoke(main, ["ensemble-curve", questions_path, out_dir])
        assert curve.exit_code == 0, curve.output
        assert curve.output.splitlines() == ["n,accuracy", "1,0.6667", "2,0.8333"]


GOOD_QUESTIONS = [
    {"id": "q1", "table_id": "t", "question": "?", "answer_type": "Number", "answer": 3},
    {"id": "q2", "table_id": "t", "question": "?", "answer_type": "Boolean", "answer": True},
]
# A bench run's log: each run line, then a vote line per question.
GOOD_LOG = [
    {"question_id": "q1", "repetition": 0, "answer": {"type": "Number", "value": 3},
     "failure": None, "coder_prompt": "..."},
    {"question_id": "q2", "repetition": 0, "answer": {"type": "Boolean", "value": True},
     "failure": None},
    {"question_id": "q1", "final": {"type": "Number", "value": 3}},
    {"question_id": "q2", "final": {"type": "Boolean", "value": True}},
]


def write_bench_dir(root, questions=GOOD_QUESTIONS, log=GOOD_LOG):
    """Write a questions file and a bench dir whose run log holds `log`
    (lines given as bytes are written as they are); returns their paths."""
    questions_path = root / "questions.jsonl"
    questions_path.write_text("".join(json.dumps(q) + "\n" for q in questions), "utf-8")
    (root / "bench" / "trace").mkdir(parents=True)
    if log is not None:
        (root / "bench" / "trace" / "runs.jsonl").write_bytes(b"".join(
            line if isinstance(line, bytes) else json.dumps(line).encode() + b"\n"
            for line in log))
    return str(questions_path), str(root / "bench")


def _run_line(**changes):
    return {**GOOD_LOG[1], **changes}


# The run log is the one file of repetitions a bench run writes.
@pytest.mark.parametrize("log, message", [
    (GOOD_LOG[:1] + [json.dumps(GOOD_LOG[1]).encode()[:-5]],
     "line 2: JSONDecodeError: Expecting value"),  # a torn last line
    (GOOD_LOG[:1] + [b"\xff\n"], "line 2: UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff"),
    (None, "[Errno 2] No such file or directory"),
    (GOOD_LOG[:1] + [b"5\n"], "line 2: TypeError: 'int' object is not subscriptable"),
    (GOOD_LOG[:1] + [b'["q2", 0, null, null]\n'], "line 2: TypeError: list indices must be integers"),
    (GOOD_LOG[:1] + [_run_line(repetition="0")],
     "line 2: TypeError: repetition is '0', not a number"),
    (GOOD_LOG[:1] + [_run_line(question_id="q9")], "line 2: KeyError: 'q9'"),
    (GOOD_LOG[:3] + [{"final": None}], "line 4: KeyError: 'question_id'"),
    (GOOD_LOG[:1] + [{k: v for k, v in GOOD_LOG[1].items() if k != "failure"}],
     "line 2: KeyError: 'failure'"),
    (GOOD_LOG[:1] + [_run_line(answer={"type": "Boolean", "value": "maybe"})],
     "line 2: FormatError: cannot coerce 'maybe' to Boolean"),
    (GOOD_LOG[:1] + [DEEP.encode() + b"\n"], "line 2: RecursionError: maximum recursion depth exceeded"),
], ids=["truncated", "not-utf8", "missing", "not-an-object", "run-a-list", "repetition-a-string",
        "unknown-question", "no-question-id", "no-failure", "bad-answer", "deep-nesting"])
def test_malformed_repetitions_file_is_a_usage_error(runner, tmp_path, log, message):
    result = runner.invoke(main, ["ensemble-curve", *write_bench_dir(tmp_path, log=log)])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for 'BENCH_DIR': {message}" in result.output
    assert "n,accuracy" not in result.output


HUGE = 10 ** 400  # an integer too large for a float


@pytest.mark.parametrize("param", ["QUESTIONS_PATH", "--config", "BENCH_DIR"])
def test_number_too_large_for_a_float_is_a_usage_error(runner, fixture_paths, tmp_path, param):
    tables_dir, questions_path, mock_path = fixture_paths
    path = tmp_path / "input"
    if param == "BENCH_DIR":
        log = GOOD_LOG[:1] + [_run_line(answer={"type": "Number", "value": HUGE})]
        args = ["ensemble-curve", *write_bench_dir(tmp_path, log=log)]
    elif param == "--config":
        path.write_text(f"temperature: {HUGE}\n", encoding="utf-8")
        args = ["bench", questions_path, "--config", str(path)]
    else:
        path.write_text(json.dumps({**e2e_fixtures.QUESTIONS[1], "answer": HUGE}), "utf-8")
        args = ["bench", str(path)]
    if args[0] == "bench":
        args += ["--tables-dir", tables_dir, "--mock", mock_path, "--out-dir", str(tmp_path / "out")]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{param}': " in result.output
    assert "int too large to convert to float" in result.output


def test_ensemble_curve_reads_questions_with_load_questions(runner, tmp_path):
    questions = [{**GOOD_QUESTIONS[0], "answer": "x"}]
    result = runner.invoke(main, ["ensemble-curve", *write_bench_dir(tmp_path, questions)])
    assert result.exit_code == 2, result.output
    assert "Invalid value for 'QUESTIONS_PATH': question 'q1': bad Number gold answer" \
        in result.output


def test_ensemble_curve_reads_a_well_formed_file(runner, tmp_path):
    result = runner.invoke(main, ["ensemble-curve", *write_bench_dir(tmp_path)])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines() == ["n,accuracy", "1,1.0000"]


def test_question_without_run_lines_abstains(runner, tmp_path):
    # As when the log failed partway: the rest of the runs are missing.
    log = [line for line in GOOD_LOG if line["question_id"] == "q1"]
    result = runner.invoke(main, ["ensemble-curve", *write_bench_dir(tmp_path, log=log)])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines() == ["n,accuracy", "1,0.5000"]


@pytest.mark.parametrize("command", ["describe", "ask", "bench"])
def test_deterministic_is_a_usage_error(runner, fixture_paths, command):
    # `temperature: 0` in --config is the one way to set greedy sampling.
    tables_dir, questions_path, mock_path = fixture_paths
    table_path = os.path.join(tables_dir, "encuestas.csv")
    args = {
        "describe": ["describe", table_path],
        "ask": ["ask", table_path, "¿Q?", "--type", "Number"],
        "bench": ["bench", questions_path, "--tables-dir", tables_dir],
    }[command]
    result = runner.invoke(main, args + ["--mock", mock_path, "--deterministic"])
    assert result.exit_code == 2, result.output
    assert "No such option" in result.output and "--deterministic" in result.output


def test_ensemble_curve_max_n_is_a_usage_error(runner, tmp_path):
    # The curve runs to the most repetitions in the log; there is no option.
    result = runner.invoke(main, ["ensemble-curve", *write_bench_dir(tmp_path), "--max-n", "8"])
    assert result.exit_code == 2, result.output
    assert "--max-n" in result.output


class TestPlanRun:
    def test_execute_plan_file(self, runner, fixture_paths, tmp_path):
        tables_dir, _, _ = fixture_paths
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text(
            'x = filter_contains(df, "Mes de realización", "enero")\n'
            "answer = count_rows(x)\n", encoding="utf-8")
        result = runner.invoke(main, [
            "plan-run", os.path.join(tables_dir, "encuestas.csv"), str(plan_path),
        ])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output) == "3"

    def _fails(self, runner, fixture_paths, tmp_path, plan, message):
        tables_dir, _, _ = fixture_paths
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text(plan, encoding="utf-8")
        result = runner.invoke(main, [
            "plan-run", os.path.join(tables_dir, "encuestas.csv"), str(plan_path),
        ])
        assert result.exit_code == 1, result.output
        assert result.output == f"Error: {message}\n"

    def test_syntax_error_fails(self, runner, fixture_paths, tmp_path):
        self._fails(runner, fixture_paths, tmp_path, "answer = count_rows(",
                    "parse: line 1, column 20: '(' was never closed")

    def test_validation_error_fails(self, runner, fixture_paths, tmp_path):
        self._fails(runner, fixture_paths, tmp_path, "answer = nope(df)",
                    "validate: unknown builtin 'nope' (did you mean 'not_'?)")

    def test_runtime_error_fails(self, runner, fixture_paths, tmp_path):
        self._fails(runner, fixture_paths, tmp_path, 'answer = to_number("x")',
                    "execute: to_number: value 'x' is not numeric")

    def test_arithmetic_overflow_fails(self, runner, fixture_paths, tmp_path):
        self._fails(runner, fixture_paths, tmp_path, "answer = mean([1e308, 1e308])",
                    "execute: mean: intermediate overflow in fsum")


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff in position 0"),
    (None, "[Errno 21] Is a directory"),
], ids=["not-utf8", "directory"])
def test_unreadable_plan_file_is_a_usage_error(runner, survey_csv, tmp_path, content, message):
    plan = tmp_path / "plan.txt"
    if content is None:
        plan.mkdir()
    else:
        plan.write_bytes(content)
    result = runner.invoke(main, ["plan-run", survey_csv, str(plan)])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for 'PLAN_PATH': {message}" in result.output


def test_dsl_reference_lists_builtins(runner):
    result = runner.invoke(main, ["dsl-reference"])
    assert result.exit_code == 0
    for name in ("filter_contains", "count_rows", "most_frequent", "answer"):
        assert name in result.output


def test_config_concurrency_sets_runs_in_flight(tmp_path):
    from tableqa.cli import _build_context
    from tableqa.llm_client import DEFAULT_CONCURRENCY

    config = tmp_path / "config.yaml"
    config.write_text("concurrency: 2\n", encoding="utf-8")
    assert _build_context(str(config), None, None).concurrency == 2
    assert _build_context(None, None, None).concurrency == DEFAULT_CONCURRENCY


# Every input file is untrusted: seeded mutations of valid inputs must end
# each subcommand with exit 0, 1 (an abstain or a failed plan) or 2 (a usage
# error), never an uncaught exception.
FUZZ_PLAN = 'x = filter_contains(df, "Mes de realización", "enero")\nanswer = count_rows(x)\n'
FUZZ_FILES = {  # name -> (path in the run's dir, kind)
    "questions": ("questions.jsonl", "jsonl"),
    "mock": ("mock.json", "json"),
    "config": ("config.yaml", "yaml"),
    "table": ("t.csv", "text"),
    "plan": ("plan.txt", "text"),
    "log": ("bench/trace/runs.jsonl", "jsonl"),
}
FUZZ_COMMANDS = {  # subcommand -> (the files it reads, its arguments given their paths)
    "bench": (["questions", "mock", "config"], lambda f, tables_dir, out: [
        "bench", f["questions"], "--tables-dir", tables_dir, "--repetitions", "1",
        "--mock", f["mock"], "--config", f["config"], "--out-dir", out]),
    "plan-run": (["table", "plan"], lambda f, tables_dir, out: [
        "plan-run", f["table"], f["plan"]]),
    "ensemble-curve": (["questions", "log"], lambda f, tables_dir, out: [
        "ensemble-curve", f["questions"], os.path.dirname(os.path.dirname(f["log"]))]),
}
MUTATIONS = ["drop-key", "wrong-type", "truncate", "invalid-utf8", "lone-surrogate",
             "deep-nesting", "directory"]
WRONG_TYPES = [None, True, -1, 1.5, HUGE, "x", [], {}, [None]]
DEEP_MARKER = "<deep>"
# PyYAML's scanner is quadratic in the nesting depth, and 600 levels already
# exceed the recursion limit of its composer.
YAML_DEEP = "[" * 600 + "]" * 600


def _slots(doc) -> list:
    """Every (container, key) slot of a parsed document, in walk order."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    slots = []
    for key, value in items:
        slots += [(doc, key)] + _slots(value)
    return slots


def mutate(kind: str, data: bytes, mutation: str, pick: int):
    """`data` with one mutation, placed by `pick`; None stands for a directory."""
    if mutation == "directory":
        return None
    if mutation == "truncate":
        return data[:pick % len(data)]
    if mutation == "invalid-utf8":
        at = pick % (len(data) + 1)
        return data[:at] + b"\xff" + data[at:]
    if kind == "text":  # a CSV or a plan: replace one of its lines
        lines = data.decode("utf-8").splitlines(keepends=True)
        i = pick % len(lines)
        lines[i] = {"drop-key": "",
                    "wrong-type": json.dumps(WRONG_TYPES[pick % len(WRONG_TYPES)]) + "\n",
                    "lone-surrogate": "\ud800" + lines[i],
                    "deep-nesting": DEEP + "\n"}[mutation]
        return "".join(lines).encode("utf-8", "surrogatepass")
    # JSON, JSON lines or YAML: edit one slot of the parsed document, then
    # write it back as JSON (which YAML reads too).
    doc = ([json.loads(line) for line in data.splitlines()] if kind == "jsonl"
           else json.loads(data) if kind == "json" else yaml.safe_load(data))
    slots = [s for s in _slots(doc) if mutation != "drop-key" or isinstance(s[0], dict)]
    container, key = slots[pick % len(slots)]
    if mutation == "drop-key":
        del container[key]
    else:
        container[key] = {"wrong-type": WRONG_TYPES[pick % len(WRONG_TYPES)],
                          "lone-surrogate": "\ud800", "deep-nesting": DEEP_MARKER}[mutation]
    text = ("".join(json.dumps(line) + "\n" for line in doc) if kind == "jsonl"
            else json.dumps(doc))
    deep = YAML_DEEP if kind == "yaml" else DEEP
    return text.replace(json.dumps(DEEP_MARKER), deep).encode("utf-8")


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """The tables dir, and each fuzzed file's valid bytes by name."""
    root = tmp_path_factory.mktemp("valid")
    tables_dir, questions_path, mock_path = e2e_fixtures.write_fixture(root)
    result = CliRunner().invoke(main, ["bench", questions_path, "--tables-dir", tables_dir,
                                       "--mock", mock_path, "--repetitions", "1",
                                       "--out-dir", str(root / "out")])
    assert result.exit_code == 0, result.output
    read = lambda path: pathlib.Path(path).read_bytes()  # noqa: E731
    return tables_dir, {
        "questions": read(questions_path), "mock": read(mock_path),
        "config": b"concurrency: 2\ntemperature: 0.0\nmodel:\n  general: m\n",
        "table": read(os.path.join(tables_dir, "encuestas.csv")),
        "plan": FUZZ_PLAN.encode("utf-8"), "log": read(root / "out" / "trace" / "runs.jsonl"),
    }


@pytest.mark.parametrize("command", sorted(FUZZ_COMMANDS))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_input_files_never_raise(valid_inputs, command, data):
    tables_dir, valid = valid_inputs
    names, args = FUZZ_COMMANDS[command]
    name = data.draw(st.sampled_from(names), label="file")
    mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    content = mutate(FUZZ_FILES[name][1], valid[name], mutation,
                     data.draw(st.integers(0, 2**16), label="pick"))
    with tempfile.TemporaryDirectory() as root:
        files = {n: os.path.join(root, FUZZ_FILES[n][0]) for n in names}
        for n, path in files.items():
            os.makedirs(os.path.dirname(path), exist_ok=True)
            if n != name:
                pathlib.Path(path).write_bytes(valid[n])
            elif content is None:
                os.mkdir(path)
            else:
                pathlib.Path(path).write_bytes(content)
        result = CliRunner().invoke(main, args(files, tables_dir, os.path.join(root, "out")))
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        repr(result.exception)
