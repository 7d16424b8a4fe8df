"""Shared end-to-end fixture: six questions over the survey table (one
per answer type plus one designed solve-failure), a mock script
covering all four LLM stages, and a client wrapper that records the
requests sent."""

import json
import os

QUESTIONS = [
    {"id": "q1", "table_id": "encuestas",
     "question": "¿Fueron la mayoría de las encuestas realizadas en enero?",
     "answer_type": "Boolean", "answer": True},
    {"id": "q2", "table_id": "encuestas",
     "question": "¿Cuántas encuestas se realizaron en enero?",
     "answer_type": "Number", "answer": 3},
    {"id": "q3", "table_id": "encuestas",
     "question": "¿Cuál es el partido más frecuente?",
     "answer_type": "Category", "answer": "PP (Partido Popular)"},
    {"id": "q4", "table_id": "encuestas",
     "question": "¿Qué partidos aparecen en las encuestas?",
     "answer_type": "List[Category]",
     "answer": ["PP (Partido Popular)", "PSOE", "Sumar"]},
    {"id": "q5", "table_id": "encuestas",
     "question": "¿Qué edades tienen los encuestados mayores de 30?",
     "answer_type": "List[Number]", "answer": [70, 33, 45]},
    {"id": "q6", "table_id": "encuestas",
     "question": "¿Pregunta imposible?",
     "answer_type": "Number", "answer": 42},
]


def _inst(instructions, columns, filter_values=()):
    return json.dumps({
        "instructions": instructions,
        "columns": columns,
        "filter_values": list(filter_values),
    }, ensure_ascii=False)


MOCK_SCRIPT = [
    {"stage": "descriptor", "reply": json.dumps(
        {"Mes de realización": "Month when the survey was conducted"},
        ensure_ascii=False)},
    {"stage": "selector", "reply": json.dumps(
        ["Mes de realización", "Edad", "Partido", "Valoración"], ensure_ascii=False)},

    {"stage": "explainer", "match": "mayoría de las encuestas",
     "reply": _inst(
         ["Count the surveys conducted in january",
          "Compare twice that count with the total number of surveys"],
         ["Mes de realización"],
         [{"column": "Mes de realización", "value": "enero"}])},
    {"stage": "explainer", "match": "Cuántas encuestas",
     "reply": _inst(
         ["Count the number of surveys conducted in january"],
         ["Mes de realización"],
         [{"column": "Mes de realización", "value": "enero"}])},
    {"stage": "explainer", "match": "partido más frecuente",
     "reply": _inst(["Find the most frequent party"], ["Partido"])},
    {"stage": "explainer", "match": "Qué partidos aparecen",
     "reply": _inst(["List the distinct parties"], ["Partido"])},
    {"stage": "explainer", "match": "mayores de 30",
     "reply": _inst(["Keep respondents older than 30", "List their ages"],
                    ["Edad"])},
    {"stage": "explainer", "match": "imposible",
     "reply": _inst(["Do something impossible"], [])},

    {"stage": "coder", "match": "Compare twice that count",
     "reply": ('c = count_containing(df, "Mes de realización", "enero")\n'
               "total = count_rows(df)\n"
               "answer = gt(mul(c, 2), total)")},
    {"stage": "coder", "match": "Count the number of surveys",
     "reply": 'answer = count_containing(df, "Mes de realización", "enero")'},
    {"stage": "coder", "match": "Find the most frequent party",
     "reply": 'answer = most_frequent(df, "Partido")'},
    {"stage": "coder", "match": "List the distinct parties",
     "reply": 'answer = unique(column(df, "Partido"))'},
    {"stage": "coder", "match": "Keep respondents older than 30",
     "reply": ('older = filter_gt(df, "Edad", 30)\n'
               'answer = column(older, "Edad")')},
    {"stage": "coder", "match": "Do something impossible",
     "reply": "I cannot write this plan"},
]

EXPECTED = {
    "q1": {"type": "Boolean", "value": True},
    "q2": {"type": "Number", "value": 3.0},
    "q3": {"type": "Category", "value": "PP (Partido Popular)"},
    "q4": {"type": "List[Category]", "value": ["PP (Partido Popular)", "PSOE", "Sumar"]},
    "q5": {"type": "List[Number]", "value": [70.0, 33.0, 45.0]},
    "q6": None,  # coder never produces a valid plan -> abstain
}


def write_fixture(tmp_path):
    """Write tables dir, questions JSONL and mock script; returns paths."""
    from conftest import FIXTURE_CSV

    tables_dir = tmp_path / "tables"
    tables_dir.mkdir(exist_ok=True)
    (tables_dir / "encuestas.csv").write_text(FIXTURE_CSV, encoding="utf-8")
    questions_path = tmp_path / "questions.jsonl"
    questions_path.write_text(
        "".join(json.dumps(q, ensure_ascii=False) + "\n" for q in QUESTIONS),
        encoding="utf-8")
    mock_path = tmp_path / "mock.json"
    mock_path.write_text(json.dumps(MOCK_SCRIPT, ensure_ascii=False), encoding="utf-8")
    return str(tables_dir), str(questions_path), str(mock_path)


def read_run_log(trace_dir):
    """The lines of `trace_dir`'s run log as (run lines, vote lines),
    each in file order."""
    with open(os.path.join(trace_dir, "runs.jsonl"), encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    return ([line for line in lines if "final" not in line],
            [line for line in lines if "final" in line])


class Recording:
    """An LLM client wrapper that keeps every request in `calls`, in the
    order the requests reach it.  It records before the inner call, so at
    concurrency 1 that is the order the inner client served them."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def complete(self, req):
        self.calls.append(req)
        return self.inner.complete(req)
