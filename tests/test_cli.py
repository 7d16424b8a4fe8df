import json
import os

import pytest
from click.testing import CliRunner

import e2e_fixtures
from tableqa.cli import main


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
        assert os.path.exists(os.path.join(trace_dir, "q0", "rep0", "run_trace.json"))

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
    tables_dir, _, _ = fixture_paths
    path = tmp_path / "settings"
    if text is None:
        path.mkdir()
    else:
        path.write_text(text, encoding="utf-8")
    result = runner.invoke(main, [
        "ask", os.path.join(tables_dir, "encuestas.csv"), "¿Q?", "--type", "Number",
        option, str(path),
    ])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}': {message}" in result.output


class TestBench:
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
        rep_dir = os.path.join(out_dir, "trace", "q1", "rep0")
        assert os.path.exists(os.path.join(rep_dir, "explainer_prompt.txt"))
        assert os.path.exists(os.path.join(rep_dir, "coder_prompt.txt"))
        with open(os.path.join(rep_dir, "run_trace.json"), encoding="utf-8") as fh:
            run_trace = json.load(fh)
        assert "count_containing" in json.dumps(run_trace)
        assert os.path.exists(os.path.join(out_dir, "trace", "q1", "votes.json"))

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
        # Every run is written as in the question's votes.json.
        for qid, runs in reps["runs"].items():
            with open(os.path.join(out_dir, "trace", qid, "votes.json"),
                      encoding="utf-8") as fh:
                assert json.load(fh)["runs"] == runs
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

    def test_syntax_error_fails(self, runner, fixture_paths, tmp_path):
        tables_dir, _, _ = fixture_paths
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text("answer = count_rows(", encoding="utf-8")
        result = runner.invoke(main, [
            "plan-run", os.path.join(tables_dir, "encuestas.csv"), str(plan_path),
        ])
        assert result.exit_code != 0


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
