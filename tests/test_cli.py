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

        report = json.loads(
            open(os.path.join(out_dir, "report.json"), encoding="utf-8").read())
        assert report["overall"]["count"] == 6
        assert report["overall"]["accuracy"] == pytest.approx(5 / 6)

        reps = json.loads(
            open(os.path.join(out_dir, "repetitions.json"), encoding="utf-8").read())
        assert len(reps["runs"]["q1"]) == 2

        # Explainability trace: prompts, instruction sets, plans.
        rep_dir = os.path.join(out_dir, "trace", "q1", "rep0")
        assert os.path.exists(os.path.join(rep_dir, "explainer_prompt.txt"))
        assert os.path.exists(os.path.join(rep_dir, "coder_prompt.txt"))
        run_trace = json.loads(
            open(os.path.join(rep_dir, "run_trace.json"), encoding="utf-8").read())
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

    config = tmp_path / "config.yaml"
    config.write_text("concurrency: 2\n", encoding="utf-8")
    assert _build_context(str(config), None, False, False, None).concurrency == 2
    assert _build_context(None, None, False, False, None).concurrency == 4
