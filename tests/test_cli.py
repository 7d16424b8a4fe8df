import json
import os

import pytest
from click.testing import CliRunner

import e2e_fixtures
from tableqa.cli import main
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
], ids=["not-json", "not-an-object", "no-table-id", "unknown-answer-type", "null-question",
        "directory"])
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
    result = runner.invoke(main, ["bench", str(bad), "--tables-dir", tables_dir,
                                  "--mock", mock_path, "--out-dir", str(out_dir)])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for 'QUESTIONS_PATH': {message}" in result.output
    assert not out_dir.exists()


@pytest.mark.parametrize("option, text, message", [
    ("--config", "temperature: hot\n",
     "ValueError: temperature must be a finite number, not 'hot'"),
    ("--config", "base_url: [unclosed\n", "ParserError: while parsing a flow sequence"),
    ("--mock", '[{"stage": "coder"}]', "KeyError: 'reply'"),
    ("--mock", '[{"stage": ', "JSONDecodeError: Expecting value"),
    ("--config", None, "IsADirectoryError"),
], ids=["config-bad-setting", "config-bad-yaml", "mock-no-reply", "mock-bad-json",
        "config-directory"])
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
        assert f"Invalid value for '{option}': {message}" in result.output
    assert not out_dir.exists()


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
        reps = json.loads((out_dir / "repetitions.json").read_text("utf-8"))
        assert {r["failure"] for runs in reps["runs"].values() for r in runs} == \
            {f"profile: {error.value}"}

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

        with open(os.path.join(out_dir, "repetitions.json"), encoding="utf-8") as fh:
            reps = json.load(fh)
        assert len(reps["runs"]["q1"]) == 2

        # Explainability trace: prompts, instruction sets, plans.
        runs, votes = e2e_fixtures.read_run_log(os.path.join(out_dir, "trace"))
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
        reps = json.loads((out_dir / "repetitions.json").read_text("utf-8"))
        assert reps["runs"]["q3"][0]["answer"] == category
        _, votes = e2e_fixtures.read_run_log(out_dir / "trace")
        assert votes[2] == {"question_id": "q3", "final": category}

    def test_bench_then_ensemble_curve(self, runner, fixture_paths, tmp_path):
        tables_dir, questions_path, mock_path = fixture_paths
        out_dir = str(tmp_path / "bench_out")
        result = runner.invoke(main, [
            "bench", questions_path, "--tables-dir", tables_dir,
            "--mock", mock_path, "--repetitions", "3", "--out-dir", out_dir,
        ])
        assert result.exit_code == 0, result.output
        curve = runner.invoke(main, ["ensemble-curve", out_dir, "--max-n", "8"])
        assert curve.exit_code == 0, curve.output
        lines = curve.output.strip().splitlines()
        assert lines[0] == "n,accuracy"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(n) for n, _ in rows] == [1, 2, 3]
        # deterministic mock: flat curve equal to the bench accuracy
        assert all(float(acc) == pytest.approx(5 / 6, abs=1e-4) for _, acc in rows)

    def test_repetitions_round_trip_with_failed_run_and_abstain(
            self, runner, fixture_paths, tmp_path):
        tables_dir, questions_path, mock_path = fixture_paths
        out_dir = str(tmp_path / "bench_out")
        result = runner.invoke(main, [
            "bench", questions_path, "--tables-dir", tables_dir,
            "--mock", mock_path, "--repetitions", "2", "--out-dir", out_dir,
        ])
        assert result.exit_code == 0, result.output
        reps_path = os.path.join(out_dir, "repetitions.json")
        with open(reps_path, encoding="utf-8") as fh:
            reps = json.load(fh)
        # Every run is written as in the run log.
        logged, _ = e2e_fixtures.read_run_log(os.path.join(out_dir, "trace"))
        for qid, runs in reps["runs"].items():
            assert [{k: r[k] for k in ("repetition", "answer", "failure")}
                    for r in logged if r["question_id"] == qid] == runs
        # q6 is the designed solve failure: failed runs, then an abstain.
        assert [r["answer"] for r in reps["runs"]["q6"]] == [None, None]
        assert all(r["failure"].startswith("solve: ") for r in reps["runs"]["q6"])
        assert reps["runs"]["q2"][1]["answer"] == {"type": "Number", "value": 3.0}
        # A failed first repetition of q2 abstains q2 at n=1 only.
        reps["runs"]["q2"][0] = {"repetition": 0, "answer": None,
                                 "failure": "explain: no JSON object"}
        with open(reps_path, "w", encoding="utf-8") as fh:
            json.dump(reps, fh)
        curve = runner.invoke(main, ["ensemble-curve", out_dir, "--max-n", "2"])
        assert curve.exit_code == 0, curve.output
        assert curve.output.splitlines() == ["n,accuracy", "1,0.6667", "2,0.8333"]


GOOD_REPETITIONS = {
    "questions": [{"id": "q1", "answer_type": "Number", "gold": 3}],
    "runs": {"q1": [{"repetition": 0, "answer": {"type": "Number", "value": 3},
                     "failure": None}]},
}


@pytest.mark.parametrize("content, message", [
    (json.dumps(GOOD_REPETITIONS)[:-1], "JSONDecodeError: Expecting ',' delimiter"),
    (b"\xff", "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff"),
    (None, "FileNotFoundError: [Errno 2] No such file or directory"),
    ({"questions": GOOD_REPETITIONS["questions"]}, "KeyError: 'runs'"),
    ([GOOD_REPETITIONS], "TypeError: list indices must be integers"),
    ({**GOOD_REPETITIONS, "runs": [["q1"]]}, "AttributeError: 'list' object has no attribute"),
    ({**GOOD_REPETITIONS, "runs": {"q1": [[0, None, None]]}}, "TypeError: list indices"),
    ({**GOOD_REPETITIONS, "runs": {"q1": [{"repetition": "0", "answer": None,
                                           "failure": "x"}]}},
     "TypeError: '<' not supported"),
    ({**GOOD_REPETITIONS, "runs": {"q9": GOOD_REPETITIONS["runs"]["q1"]}}, "KeyError: 'q9'"),
    ({**GOOD_REPETITIONS, "questions": [{"id": "q1", "answer_type": "Number", "gold": "x"}]},
     "ValueError: "),
], ids=["truncated", "not-utf8", "missing", "no-runs", "not-an-object", "runs-a-list",
        "run-a-list", "repetition-a-string", "unknown-question", "bad-gold"])
def test_malformed_repetitions_file_is_a_usage_error(runner, tmp_path, content, message):
    if isinstance(content, (dict, list)):
        content = json.dumps(content)
    if isinstance(content, str):
        content = content.encode("utf-8")
    if content is not None:
        (tmp_path / "repetitions.json").write_bytes(content)
    result = runner.invoke(main, ["ensemble-curve", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for 'BENCH_DIR': {message}" in result.output
    assert "n,accuracy" not in result.output


def test_ensemble_curve_reads_a_well_formed_file(runner, tmp_path):
    (tmp_path / "repetitions.json").write_text(json.dumps(GOOD_REPETITIONS), encoding="utf-8")
    result = runner.invoke(main, ["ensemble-curve", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines() == ["n,accuracy", "1,1.0000"]


def test_ensemble_curve_max_n_below_one_is_a_usage_error(runner, tmp_path):
    (tmp_path / "repetitions.json").write_text('{"questions": [], "runs": {}}')
    result = runner.invoke(main, ["ensemble-curve", str(tmp_path), "--max-n", "0"])
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
    assert _build_context(str(config), None, False, None).concurrency == 2
    assert _build_context(None, None, False, None).concurrency == DEFAULT_CONCURRENCY
