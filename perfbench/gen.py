"""Seeded input generator for the tableqa benchmark.

For one workload and one seed it writes, into an output directory:

    tables/<table_id>.csv   the synthetic survey tables
    questions.jsonl         one {id, table_id, question, answer_type, answer,
                            abstain} object per line, the `tableqa bench` format
    script.json             the simulated LLM's replies and per-stage latency
    workload.json           the workload parameters the harness needs

Every gold answer is computed here from the generator's own knowledge of the
cells it wrote (value pools, the numbers inside mixed cells, row order), never
by running tableqa.  The same (workload, seed) pair always produces the same
bytes.

    python3 perfbench/gen.py --workload ask_survey --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
from dataclasses import dataclass, field
from typing import Optional

SENTINEL = "No matching records were found"
CHUNK = 25  # selector and descriptor chunk size (the paper's 25 columns)

# Simulated per-call latency in seconds, per LLM stage.
SURVEY_LATENCY = {"descriptor": 0.003, "selector": 0.003,
                  "explainer": 0.005, "coder": 0.005}
WIDE_LATENCY = {"descriptor": 0.003, "selector": 0.002,
                "explainer": 0.005, "coder": 0.005}
ZERO_LATENCY = {"descriptor": 0.0, "selector": 0.0, "explainer": 0.0, "coder": 0.0}

# Sizes and simulated latencies; BENCHMARK.json says why each workload exists.
WORKLOADS = {
    "ask_survey": {
        "mode": "ask", "repetitions": 8, "block": 10, "blocks": 4, "min_rounds": 10,
        "tables": 4, "rows": [120, 200], "latency_s": SURVEY_LATENCY,
    },
    "batch_bigtable": {
        "mode": "batch", "repetitions": 3, "rows": 20000, "distinct": 5000,
        "latency_s": ZERO_LATENCY,
    },
    "batch_wide_repair": {
        "mode": "batch", "repetitions": 8, "tables": 2, "rows": 250,
        "informative": 124, "families": 12, "family_size": 8, "denylisted": 12,
        "questions": 24, "block": 6, "latency_s": WIDE_LATENCY,
    },
}

# ---------------------------------------------------------------- value pools

MESES = ["Enero", "Febrero", "Marzo", "Abril", "Mayo", "Junio", "Julio",
         "Agosto", "Septiembre", "Octubre", "Noviembre", "Diciembre"]
PROVINCIAS = ["Madrid", "Barcelona", "Valencia", "Sevilla", "Zaragoza", "Málaga",
              "Murcia", "Alicante", "Córdoba", "Granada", "Bizkaia", "Asturias",
              "Cantabria", "Navarra", "Toledo", "Badajoz", "Cáceres", "Huelva",
              "Cádiz", "Jaén", "Almería", "Burgos", "Soria", "Segovia", "Ávila",
              "Salamanca", "Zamora", "Lugo", "Ourense", "Teruel"]
PARTIDOS = ["PP (Partido Popular)", "PSOE", "Sumar", "Vox", "ERC", "Junts",
            "EH Bildu", "PNV"]
ESTUDIOS = ["Sin estudios", "Primaria", "Secundaria", "FP", "Universitarios"]
SITUACION = ["Muy buena", "Buena", "Regular", "Mala", "Muy mala"]
SEXO = ["Hombre", "Mujer"]
GRUPO_EDAD = ["18-24", "25-34", "35-44", "45-54", "55-64", "+65"]
MEDIOS = ["Televisión", "Radio", "Prensa", "Internet", "Redes sociales"]
SI_NO = ["Sí", "No"]
# Mixed cells and the number tableqa's first-number rule reads from each.
VALORACION = [("1 - No le votaría nunca", 1.0)] + [(str(k), float(k)) for k in range(2, 10)] \
    + [("10 - Le votaría siempre", 10.0), ("N.S.", None), ("N.C.", None)]
CAT_POOLS = [MESES, PROVINCIAS, PARTIDOS, ESTUDIOS, SITUACION, SEXO, GRUPO_EDAD]

WIDE_TOPICS = ["Confianza en", "Valoración de", "Preocupación por", "Opinión sobre",
               "Interés en", "Satisfacción con", "Conocimiento de", "Uso de"]
WIDE_SUBJECTS = ["el Gobierno", "el Congreso", "los jueces", "la sanidad",
                 "la educación", "el paro", "la vivienda", "las pensiones",
                 "la inmigración", "el clima", "la corrupción", "los impuestos",
                 "la monarquía", "la Unión Europea", "la OTAN", "los bancos",
                 "la prensa", "la televisión", "la radio", "internet"]
FAMILY_STEMS = ["P%d" % k for k in range(3, 40, 3)]
DENY_NAMES = ["N_R%d" % k for k in range(1, 40)]

# Fuzzy-miss probes use only these characters, none of which occur in any
# generated municipality name, so no stored value can reach a threshold.
_FOREIGN = "jkqwxy0123456789"
_CONS = "bcdfglmnprstvz"
_VOWELS = "aeiou"
_TOWN_PREFIXES = ["San", "Villa", "Torre", "Puerto", "Castillo", "Valle", "Monte",
                  "Fuente", "Puebla", "Campo", "Santa", "Alcalá"]


# ------------------------------------------------------------- table model

@dataclass
class TableData:
    table_id: str
    columns: dict = field(default_factory=dict)   # name -> list[str] ("" = missing)
    kinds: dict = field(default_factory=dict)     # name -> cat|mixed|bool|num|multi|id
    numbers: dict = field(default_factory=dict)   # mixed cell text -> its number

    def add(self, name: str, kind: str, cells: list) -> None:
        self.columns[name] = cells
        self.kinds[name] = kind

    def of_kind(self, kind: str) -> list:
        return [n for n, k in self.kinds.items() if k == kind]

    def write(self, path: str) -> None:
        names = list(self.columns)
        rows = zip(*(self.columns[n] for n in names))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(names)
            writer.writerows(rows)


def _present(cells: list) -> list:
    return [c for c in cells if c != ""]


def _counts_in_order(cells: list) -> tuple[dict, list]:
    counts: dict = {}
    order: list = []
    for c in cells:
        if c == "":
            continue
        if c not in counts:
            counts[c] = 0
            order.append(c)
        counts[c] += 1
    return counts, order


def _ranked(cells: list) -> list:
    """Values by descending count, ties by first occurrence."""
    counts, order = _counts_in_order(cells)
    rank = {v: i for i, v in enumerate(order)}
    return sorted(order, key=lambda v: (-counts[v], rank[v]))


def _contains(cell: str, needle: str) -> bool:
    return cell != "" and needle.strip().lower() in cell.lower()


def _fmt_num(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def levenshtein(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def indel_similarity(a: str, b: str) -> float:
    prev = [0] * (len(b) + 1)
    for ca in a:
        cur = [0]
        for j, cb in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if ca == cb else max(prev[j], cur[j - 1]))
        prev = cur
    total = len(a) + len(b)
    return 100.0 if total == 0 else 100.0 * (2 * prev[-1]) / total


def misspell(rng: random.Random, name: str, candidates: list) -> str:
    """A one-edit misspelling of `name` that Levenshtein snapping still maps
    back to `name` (strictly nearest among `candidates`, so ties never
    matter).  Falls back to the exact name when no such edit exists."""
    positions = [i for i in range(1, len(name) - 1) if name[i].isalpha()]
    rng.shuffle(positions)
    for i in positions[:6]:
        typo = name[:i] + name[i + 1:]
        if typo in candidates:
            continue
        # Only names within one character of length can be one edit away.
        near = [c for c in candidates if c != name and abs(len(c) - len(typo)) <= 1]
        if all(levenshtein(typo, c) > 1 for c in near):
            return typo
    return name


class Rng:
    """Two streams: `shape` fixes the structure of a workload (schemas,
    which templates and columns questions use, where repairs and failures
    go) and depends on the workload only; `value` draws cells, filter values
    and misspellings from the seed.  Seeds thus vary the data, not the
    amount of work, which keeps run-to-run spread small."""

    def __init__(self, workload: str, seed: int):
        self.shape = random.Random(f"{workload}:shape")
        self.value = random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------- question model

@dataclass
class QuestionSpec:
    qid: str
    table_id: str
    text: str
    answer_type: str
    gold: object                 # JSON value, None for a designed abstain
    columns: list                # columns the question needs
    lines: list                  # plan binding lines
    final: str                   # plan answer expression
    steps: list                  # natural-language instructions after the first
    filter_values: list = field(default_factory=list)

    @property
    def plan(self) -> str:
        return "\n".join(self.lines + ["answer = " + self.final])

    def wrong_plan(self) -> str:
        """A valid plan whose answer differs from gold (or is the sentinel)."""
        t = self.answer_type
        if t == "Number":
            final = f"add({self.final}, 1)"
        elif t == "Boolean":
            final = f"not_({self.final})"
        elif t == "Category":
            final = json.dumps(SENTINEL)
        else:
            final = f"head_n({self.final}, {len(self.gold) - 1})"
        return "\n".join(self.lines + ["answer = " + final])

    def broken_plan(self, kind: str) -> str:
        """A first plan that fails validation (near-miss builtin) or
        execution (type error), so the coder must repair it."""
        if kind == "near_miss":
            fn, _, rest = self.final.partition("(")
            final = fn[:-1] + "(" + rest if len(fn) > 4 else "uniq(" + rest
            return "\n".join(self.lines + ["answer = " + final])
        return "\n".join(self.lines + [f"answer = count_rows(column(df, {_q(self.columns[0])}))"])


def _q(s: str) -> str:
    return json.dumps(s, ensure_ascii=False)


def t_count_contains(rng, t: TableData, col: Optional[str] = None) -> dict:
    col = col or rng.shape.choice(t.of_kind("cat"))
    value = rng.value.choice(_present(t.columns[col]))
    needle = value.lower()
    gold = float(sum(_contains(c, needle) for c in t.columns[col]))
    return dict(text=f"¿Cuántas respuestas de {col} contienen {needle}?",
                answer_type="Number", gold=gold, columns=[col], lines=[],
                final=f"count_containing(df, {_q(col)}, {_q(needle)})",
                steps=[f"Count the rows whose {col} contains {needle}"],
                filter_values=[{"column": col, "value": needle}])


def t_majority(rng, t: TableData) -> dict:
    col = rng.shape.choice(t.of_kind("cat"))
    value = rng.value.choice(_present(t.columns[col]))
    hits = sum(_contains(c, value) for c in t.columns[col])
    n = len(t.columns[col])
    return dict(text=f"¿Es {value} la respuesta de la mayoría en {col}?",
                answer_type="Boolean", gold=2 * hits > n, columns=[col],
                lines=[f"c = count_containing(df, {_q(col)}, {_q(value)})",
                       "total = count_rows(df)"],
                final="gt(mul(c, 2), total)",
                steps=[f"Count the rows whose {col} contains {value}",
                       "Compare twice that count with the number of rows"],
                filter_values=[{"column": col, "value": value}])


def t_bool_balance(rng, t: TableData) -> dict:
    col = rng.shape.choice(t.of_kind("bool"))
    cells = t.columns[col]
    yes, no = cells.count("Sí"), cells.count("No")
    return dict(text=f"¿Responden más personas Sí que No en {col}?",
                answer_type="Boolean", gold=yes > no, columns=[col], lines=[],
                final=f"gt(count_equal(df, {_q(col)}, true), count_equal(df, {_q(col)}, false))",
                steps=[f"Count true and false answers in {col} and compare them"])


def t_exists(rng, t: TableData) -> dict:
    col = rng.shape.choice(t.of_kind("cat"))
    value = rng.value.choice(_present(t.columns[col]))
    return dict(text=f"¿Aparece {value} en {col}?", answer_type="Boolean",
                gold=True, columns=[col], lines=[],
                final=f"exists_value(df, {_q(col)}, {_q(value)})",
                steps=[f"Check whether any row of {col} contains {value}"],
                filter_values=[{"column": col, "value": value}])


def t_mode(rng, t: TableData) -> dict:
    col = rng.shape.choice(t.of_kind("cat"))
    return dict(text=f"¿Cuál es la respuesta más frecuente en {col}?",
                answer_type="Category", gold=_ranked(t.columns[col])[0], columns=[col],
                lines=[], final=f"most_frequent(df, {_q(col)})",
                steps=[f"Find the most frequent value of {col}"])


def t_mode_subset(rng, t: TableData) -> dict:
    target, subset = rng.shape.sample(t.of_kind("cat"), 2)
    value = rng.value.choice(_present(t.columns[subset]))
    rows = [tv for tv, sv in zip(t.columns[target], t.columns[subset]) if _contains(sv, value)]
    return dict(text=f"Entre quienes tienen {value} en {subset}, ¿qué {target} es más frecuente?",
                answer_type="Category", gold=_ranked(rows)[0], columns=[target, subset],
                lines=[], final=f"most_frequent_in_subset(df, {_q(target)}, {_q(subset)}, {_q(value)})",
                steps=[f"Keep the rows whose {subset} contains {value}",
                       f"Find the most frequent value of {target} among them"],
                filter_values=[{"column": subset, "value": value}])


def t_sort_first(rng, t: TableData) -> dict:
    col = rng.shape.choice(t.of_kind("cat"))
    first = min(_present(t.columns[col]), key=str.lower)
    return dict(text=f"¿Qué valor de {col} va primero en orden alfabético?",
                answer_type="Category", gold=first, columns=[col],
                lines=[f"s = sort_alphabetical(df, {_q(col)})"],
                final=f"first(column(s, {_q(col)}))",
                steps=[f"Sort the rows alphabetically by {col}", "Take the first value"])


def t_top3(rng, t: TableData) -> dict:
    col = rng.shape.choice(t.of_kind("cat"))
    return dict(text=f"¿Cuáles son las tres respuestas más frecuentes en {col}?",
                answer_type="List[Category]", gold=_ranked(t.columns[col])[:3],
                columns=[col], lines=[], final=f"most_frequent_n(df, {_q(col)}, 3)",
                steps=[f"Find the three most frequent values of {col}"])


def t_flatten_distinct(rng, t: TableData) -> dict:
    col = rng.shape.choice(t.of_kind("multi"))
    seen: list = []
    for cell in _present(t.columns[col]):
        for part in cell.split(";"):
            if part.strip() and part.strip() not in seen:
                seen.append(part.strip())
    return dict(text=f"¿Qué valores distintos se mencionan en {col}?",
                answer_type="List[Category]", gold=seen, columns=[col],
                lines=[f"f = flatten_column_values(df, {_q(col)})"],
                final=f"unique(column(f, {_q(col)}))",
                steps=[f"Split the multi-valued cells of {col}", "List the distinct values"])


def t_numeric_above(rng, t: TableData) -> dict:
    col = rng.shape.choice(t.of_kind("num"))
    values = [float(c) for c in t.columns[col] if c != ""]
    distinct = sorted(set(values), reverse=True)
    threshold = distinct[-1]
    for x in distinct[1:]:
        if sum(v > x for v in values) >= 2:
            threshold = x
            break
    gold = [v for v in values if v > threshold]
    return dict(text=f"¿Qué valores de {col} superan {_fmt_num(threshold)}?",
                answer_type="List[Number]", gold=gold, columns=[col],
                lines=[f"x = filter_gt(df, {_q(col)}, {_fmt_num(threshold)})"],
                final=f"column(x, {_q(col)})",
                steps=[f"Keep the rows whose {col} is greater than {_fmt_num(threshold)}",
                       f"List their {col}"])


def t_first_present(rng, t: TableData) -> dict:
    col = rng.shape.choice(t.of_kind("num"))
    n = rng.shape.randint(3, 5)
    gold = [float(c) for c in t.columns[col] if c != ""][:n]
    return dict(text=f"¿Cuáles son los primeros {n} valores registrados de {col}?",
                answer_type="List[Number]", gold=gold, columns=[col],
                lines=[f"x = top_n_non_missing(df, {_q(col)}, {n})"],
                final=f"column(x, {_q(col)})",
                steps=[f"Take the first {n} rows with a value in {col}", f"List their {col}"])


def t_mixed_above(rng, t: TableData) -> dict:
    col = rng.shape.choice(t.of_kind("mixed"))
    threshold = rng.shape.randint(5, 8)
    gold = 0.0
    for c in t.columns[col]:
        x = t.numbers.get(c) if c else None
        gold += x is not None and x > threshold
    return dict(text=f"¿Cuántas personas dan a {col} una nota mayor que {threshold}?",
                answer_type="Number", gold=gold, columns=[col],
                lines=[f"x = filter_gt(df, {_q(col)}, {threshold})"], final="count_rows(x)",
                steps=[f"Keep the rows whose {col} is greater than {threshold}", "Count them"])


def t_not_contains(rng, t: TableData) -> dict:
    col = rng.shape.choice(t.of_kind("cat"))
    value = rng.value.choice(_present(t.columns[col]))
    gold = float(sum(not _contains(c, value) for c in t.columns[col]))
    return dict(text=f"¿Cuántas filas no contienen {value} en {col}?",
                answer_type="Number", gold=gold, columns=[col],
                lines=[f"x = filter_not_contains(df, {_q(col)}, {_q(value)})"],
                final="count_rows(x)",
                steps=[f"Drop the rows whose {col} contains {value}", "Count the rest"])


def t_delete_rows(rng, t: TableData) -> dict:
    col = rng.shape.choice(t.of_kind("cat"))
    value = rng.value.choice(_present(t.columns[col]))
    gold = float(sum(c != value for c in t.columns[col]))
    return dict(text=f"¿Cuántas filas quedan al quitar las de {col} igual a {value}?",
                answer_type="Number", gold=gold, columns=[col],
                lines=[f"x = delete_rows_by_column_value(df, {_q(col)}, {_q(value)})"],
                final="count_rows(x)",
                steps=[f"Remove the rows whose {col} is exactly {value}", "Count the rest"])


# ---------------------------------------------------------- table generators

def _weights(rng, n: int) -> list:
    return [rng.uniform(0.2, 1.0) * (1.0 / (i + 1)) ** 0.6 for i in range(n)]


def _cat_cells(rng, pool: list, rows: int) -> list:
    pool = list(pool)
    rng.shuffle(pool)
    return rng.choices(pool, weights=_weights(rng, len(pool)), k=rows)


def _mixed_cells(rng, rows: int) -> list:
    texts = [v for v, _ in VALORACION]
    return rng.choices(texts, weights=_weights(rng, len(texts)), k=rows)


def _num_cells(rng, rows: int, lo: int, hi: int, missing: float) -> list:
    return ["" if rng.random() < missing else str(rng.randint(lo, hi)) for _ in range(rows)]


def _multi_cells(rng, rows: int) -> list:
    out = []
    for _ in range(rows):
        k = rng.choice([1, 1, 2, 2, 3])
        out.append(";".join(rng.sample(MEDIOS, k)))
    return out


def survey_table(rng, table_id: str, label: str, rows: int) -> TableData:
    """`rng` draws the cells only; the schema is fixed."""
    t = TableData(table_id)
    t.numbers = dict(VALORACION)
    t.add(f"Registro {label}", "id", [str(i) for i in range(1, rows + 1)])
    t.add("Mes de realización", "cat", _cat_cells(rng, MESES, rows))
    t.add("Provincia", "cat", _cat_cells(rng, PROVINCIAS, rows))
    t.add("Sexo", "cat", _cat_cells(rng, SEXO, rows))
    t.add("Edad", "num", _num_cells(rng, rows, 18, 90, 0.0))
    t.add("Grupo de edad", "cat", _cat_cells(rng, GRUPO_EDAD, rows))
    t.add("Partido", "cat", _cat_cells(rng, PARTIDOS, rows))
    t.add("Valoración líder", "mixed", _mixed_cells(rng, rows))
    t.add("Vota", "bool", _cat_cells(rng, SI_NO, rows))
    t.add("Conoce al candidato", "bool", _cat_cells(rng, SI_NO, rows))
    t.add("Medios", "multi", _multi_cells(rng, rows))
    t.add("Estudios", "cat", _cat_cells(rng, ESTUDIOS, rows))
    t.add("Ingresos", "num", _num_cells(rng, rows, 600, 6000, 0.1))
    return t


def town_names(rng, n: int) -> list:
    names: set = set()
    while len(names) < n:
        word = "".join(rng.choice(_CONS) + rng.choice(_VOWELS) for _ in range(rng.randint(3, 4)))
        names.add(f"{rng.choice(_TOWN_PREFIXES)} {word.capitalize()}")
    return sorted(names)


def big_table(rng, rows: int, distinct: int) -> tuple[TableData, list]:
    """`rng` draws the cells only; the schema is fixed."""
    towns = town_names(rng, distinct)
    rng.shuffle(towns)
    zipf = [1.0 / (i + 1) for i in range(distinct)]
    t = TableData("municipios")
    t.numbers = dict(VALORACION)
    t.add("Registro", "id", [str(i) for i in range(1, rows + 1)])
    t.add("Municipio", "town", rng.choices(towns, weights=zipf, k=rows))
    t.add("Provincia", "cat", _cat_cells(rng, PROVINCIAS, rows))
    t.add("Edad", "num", _num_cells(rng, rows, 18, 90, 0.05))
    t.add("Valoración", "mixed", _mixed_cells(rng, rows))
    t.add("Medios", "multi", _multi_cells(rng, rows))
    t.add("Vota", "bool", _cat_cells(rng, SI_NO, rows))
    return t, towns


def wide_table(rng, table_id: str, label: str, spec: dict) -> TableData:
    rows = spec["rows"]
    shape, rng = rng.shape, rng.value
    t = TableData(table_id)
    t.numbers = dict(VALORACION)
    subjects = [f"{a} {b}" for a in WIDE_TOPICS for b in WIDE_SUBJECTS]
    shape.shuffle(subjects)
    informative: list = []
    for i, name in enumerate(subjects[:spec["informative"]]):
        kind = ("cat", "cat", "mixed", "bool", "num", "multi")[i % 6]
        if kind == "cat":
            cells = _cat_cells(rng, shape.choice(CAT_POOLS), rows)
        elif kind == "mixed":
            cells = _mixed_cells(rng, rows)
        elif kind == "bool":
            cells = _cat_cells(rng, SI_NO, rows)
        elif kind == "multi":
            cells = _multi_cells(rng, rows)
        else:
            cells = _num_cells(rng, rows, 0, 500, 0.05)
        informative.append((name, kind, cells))
    groups = [[item] for item in informative]
    for stem in shape.sample(FAMILY_STEMS, spec["families"]):
        groups.append([(f"{stem}_{k}", "family", _cat_cells(rng, SI_NO, rows))
                       for k in range(1, spec["family_size"] + 1)])
    for name in shape.sample(DENY_NAMES, spec["denylisted"]):
        groups.append([(name, "deny", _num_cells(rng, rows, 1, 9, 0.0))])
    shape.shuffle(groups)
    t.add(f"Id cuestionario {label}", "id", [str(i) for i in range(1, rows + 1)])
    for group in groups:
        for name, kind, cells in group:
            t.add(name, kind, cells)
    return t


def kept_columns(t: TableData) -> list:
    """Columns the selector's prune rule keeps (no families, no N_R*)."""
    return [n for n, k in t.kinds.items() if k not in ("family", "deny")]


def chunks(names: list) -> list:
    return [names[i:i + CHUNK] for i in range(0, len(names), CHUNK)]


# ------------------------------------------------------------ script model

class Script:
    """Replies of the simulated LLM, keyed the way the backend looks them up."""

    def __init__(self, latency: dict):
        self.latency = dict(latency)
        self.questions: dict = {}     # question text -> qid
        self.instructions: dict = {}  # first instruction -> qid
        self.replies: dict = {}       # "stage|key" -> list of replies

    def put(self, stage: str, key: str, replies: list) -> None:
        self.replies[f"{stage}|{key}"] = list(replies)

    def describe_table(self, t: TableData) -> None:
        for chunk in chunks(list(t.columns)):
            reply = {n: f"Respuesta a la pregunta «{n}» del cuestionario." for n in chunk}
            self.put("descriptor", chunk[0], [json.dumps(reply, ensure_ascii=False)])

    def to_dict(self) -> dict:
        return {"latency_s": self.latency, "questions": self.questions,
                "instructions": self.instructions, "replies": self.replies}


def explainer_reply(spec: QuestionSpec, columns: list) -> str:
    return json.dumps({"instructions": [f"Responder a: {spec.text}"] + spec.steps,
                       "columns": columns, "filter_values": spec.filter_values},
                      ensure_ascii=False)


def register(script: Script, spec: QuestionSpec) -> None:
    script.questions[spec.text] = spec.qid
    script.instructions[f"Responder a: {spec.text}"] = spec.qid


def make_spec(qid: str, t: TableData, fields: dict) -> QuestionSpec:
    fields = dict(fields)
    fields["text"] = f"{fields['text']} [{qid}]"
    return QuestionSpec(qid=qid, table_id=t.table_id, **fields)


def selector_reply(rng, spec: QuestionSpec, chunk: list, typos: bool) -> str:
    needed = [c for c in chunk if c in spec.columns]
    decoys = [c for c in chunk if c not in spec.columns]
    if typos:
        needed = [misspell(rng.value, n, chunk) for n in needed]
    picked = needed + rng.shape.sample(decoys, min(len(decoys), rng.shape.randint(1, 2)))
    return json.dumps(picked, ensure_ascii=False)


# --------------------------------------------------------------- workloads

SURVEY_TEMPLATES = {
    "Number": [t_count_contains, t_mixed_above, t_delete_rows, t_not_contains],
    "Boolean": [t_majority, t_bool_balance, t_exists],
    "Category": [t_mode, t_mode_subset, t_sort_first],
    "List[Category]": [t_flatten_distinct, t_top3],
    "List[Number]": [t_numeric_above, t_first_present],
}


def gen_ask_survey(rng, spec: dict):
    tables = []
    for k in range(spec["tables"]):
        label = f"{rng.shape.randint(3000, 3999)}-{chr(65 + k)}"
        tables.append(survey_table(rng.value, f"encuesta_{k + 1}", label,
                                   rng.shape.randint(*spec["rows"])))
    script = Script(spec["latency_s"])
    for t in tables:
        script.describe_table(t)
    reps = spec["repetitions"]
    questions = []
    for b in range(spec["blocks"]):
        picks = []
        for answer_type, templates in SURVEY_TEMPLATES.items():
            picks += [templates[(2 * b) % len(templates)], templates[(2 * b + 1) % len(templates)]]
        # Two questions per block need one coder repair in half of their
        # repetitions (10% of all runs); one question loses a repetition at
        # the explainer.  With a fifth of the asks slower, the latency p90
        # falls inside that group rather than on the edge between two groups.
        failing_pos, *repair_pos = rng.shape.sample(range(len(picks)), 3)
        for i, template in enumerate(picks):
            t = tables[(b + i) % len(tables)]
            q = make_spec(f"s{b:02d}{i:02d}", t, template(rng, t))
            register(script, q)
            schema = list(t.columns)
            script.put("selector", f"{q.qid}|{schema[0]}", [selector_reply(rng, q, schema, False)])
            good = explainer_reply(q, q.columns)
            runs = reps
            if i == failing_pos:
                # One repetition gets prose three times and fails at the explainer.
                prose = "Lo siento, no puedo ayudar con esta pregunta."
                at = rng.shape.randrange(reps)
                script.put("explainer", q.qid, [good] * at + [prose] * 3 + [good] * (reps - 1 - at))
                runs = reps - 1
            else:
                script.put("explainer", q.qid, [good])
            plans = [q.plan] * runs
            plans[rng.shape.randrange(runs)] = q.wrong_plan()
            if i in repair_pos:
                broken = set(rng.shape.sample(range(runs), runs // 2))
                bad = q.broken_plan(rng.shape.choice(["near_miss", "type_error"]))
                script.put("coder", q.qid, [bad if k in broken else p for k, p in enumerate(plans)])
                script.put("repair", q.qid, [p for k, p in enumerate(plans) if k in broken])
            else:
                script.put("coder", q.qid, plans)
            questions.append((q, False))
    return tables, questions, script


def gen_batch_bigtable(rng, spec: dict):
    t, towns = big_table(rng.value, spec["rows"], spec["distinct"])
    script = Script(spec["latency_s"])
    script.describe_table(t)
    cells = t.columns["Municipio"]
    counts, _ = _counts_in_order(cells)
    mid = [n for n in towns if 5 <= counts.get(n, 0) <= 50]
    target = rng.value.choice(mid)
    typo = _town_typo(rng.value, target, towns)
    probe = "".join(rng.value.choice(_FOREIGN) for _ in range(9))
    fields = [
        t_mode(rng, _with_kinds(t, {"Municipio": "cat"})),
        dict(text=f"¿Cuántas respuestas vienen de {typo}?", answer_type="Number",
             gold=float(counts[target]), columns=["Municipio"],
             lines=[f"x = filter_contains(df, \"Municipio\", {_q(typo)})"], final="count_rows(x)",
             steps=[f"Keep the rows whose Municipio is {typo}", "Count them"],
             filter_values=[{"column": "Municipio", "value": typo}]),
        t_mixed_above(rng, t),
        dict(text="¿Cuántas veces se menciona la radio en Medios?", answer_type="Number",
             gold=float(sum(p.strip().lower().find("radio") >= 0
                            for c in t.columns["Medios"] for p in c.split(";"))),
             columns=["Medios"], lines=["f = flatten_column_values(df, \"Medios\")"],
             final="count_containing(f, \"Medios\", \"radio\")",
             steps=["Split the multi-valued cells of Medios", "Count the mentions of radio"]),
        t_sort_first(rng, _with_kinds(t, {"Municipio": "cat"})),
        t_count_contains(rng, t, "Provincia"),
        t_mode_subset(rng, _with_kinds(t, {"Municipio": "cat", "Provincia": "cat"})),
        dict(text=f"¿Aparece el municipio {probe}?", answer_type="Boolean", gold=False,
             columns=["Municipio"], lines=[],
             final=f"exists_value(df, \"Municipio\", {_q(probe)})",
             steps=[f"Check whether any Municipio contains {probe}"]),
        t_first_present(rng, t),
        t_not_contains(rng, t),
        t_delete_rows(rng, _with_kinds(t, {"Municipio": "cat"})),
        t_bool_balance(rng, t),
    ]
    reps = spec["repetitions"]
    questions = []
    failing = rng.shape.randrange(len(fields))
    for i, f in enumerate(fields):
        q = make_spec(f"b{i:02d}", t, f)
        register(script, q)
        schema = list(t.columns)
        script.put("selector", f"{q.qid}|{schema[0]}", [selector_reply(rng, q, schema, False)])
        script.put("explainer", q.qid, [explainer_reply(q, q.columns)])
        plans = [q.plan] * reps
        if i == failing:
            # One repetition only ever gets prose and fails in the coder loop.
            prose = "No sé cómo escribir este plan."
            plans[rng.shape.randrange(reps)] = prose
            script.put("repair", q.qid, [prose])
        script.put("coder", q.qid, plans)
        questions.append((q, False))
    return [t], questions, script


def _town_typo(rng, target: str, towns: list) -> str:
    """Drop one letter of the target's second word so that no stored name
    contains the probe (a round-1 miss) while the target stays the strictly
    best fuzzy match, above the 90 clarify threshold."""
    prefix, word = target.split(" ", 1)
    rivals = [n for n in towns if n != target and abs(len(n) - len(target)) <= 3]
    for i in rng.sample(range(1, len(word)), len(word) - 1):
        typo = f"{prefix} {word[:i]}{word[i + 1:]}"
        if any(typo.lower() in n.lower() for n in towns):
            continue
        best = indel_similarity(typo.lower(), target.lower())
        if best >= 90 and all(indel_similarity(typo.lower(), n.lower()) < best for n in rivals):
            return typo
    raise ValueError(f"no unambiguous misspelling for {target!r}")


def _with_kinds(t: TableData, kinds: dict) -> TableData:
    """A view of `t` in which only the given columns have the given kinds."""
    return TableData(t.table_id, t.columns, dict(kinds), t.numbers)


WIDE_TEMPLATES = [t_count_contains, t_mode, t_majority, t_top3, t_mixed_above,
                  t_mode_subset, t_numeric_above, t_exists, t_bool_balance,
                  t_first_present, t_not_contains, t_sort_first, t_flatten_distinct,
                  t_delete_rows]
# First-attempt behaviour of the coder in every block of six questions.  All
# blocks share this mix, so every round of the closed loop does about the same
# work; one question per block never yields a valid plan and must abstain.
WIDE_BLOCK_MODES = ["clean", "typo_literal", "near_miss", "type_error", "type_error",
                    "never_valid"]


def _wide_modes(rng, questions: int) -> list:
    """Per-question modes, block by block.  A designed abstain goes to a
    question whose template some answered question also uses, so every table
    function still runs once per pass over the blocks."""
    block = len(WIDE_BLOCK_MODES)
    n = len(WIDE_TEMPLATES)
    modes: list = []
    for start in range(0, questions, block):
        taken = {i % n for i, m in enumerate(modes) if m == "never_valid"}
        spare = [i for i in range(start, start + block)
                 if i % n not in taken and any(j % n == i % n for j in range(questions) if j != i)]
        abstain = rng.shape.choice(spare)
        rest = [m for m in WIDE_BLOCK_MODES if m != "never_valid"]
        rng.shape.shuffle(rest)
        modes += ["never_valid" if i == abstain else rest.pop() for i in range(start, start + block)]
    return modes


def gen_batch_wide_repair(rng, spec: dict):
    tables = [wide_table(rng, f"barometro_{k + 1}", chr(65 + k), spec)
              for k in range(spec["tables"])]
    script = Script(spec["latency_s"])
    for t in tables:
        script.describe_table(t)
    reps = spec["repetitions"]
    modes = _wide_modes(rng, spec["questions"])
    questions = []
    for i in range(spec["questions"]):
        t = tables[i % len(tables)]
        schema = list(t.columns)
        q = make_spec(f"w{i:02d}", t, WIDE_TEMPLATES[i % len(WIDE_TEMPLATES)](rng, t))
        register(script, q)
        for chunk in chunks(kept_columns(t)):
            script.put("selector", f"{q.qid}|{chunk[0]}", [selector_reply(rng, q, chunk, True)])
        script.put("explainer", q.qid, [explainer_reply(q, q.columns)])
        mode = modes[i]
        plans = [q.plan] * reps
        plans[rng.shape.randrange(reps)] = q.wrong_plan()
        abstain = mode == "never_valid"
        if mode == "clean":
            script.put("coder", q.qid, plans)
        elif mode == "typo_literal":
            col = q.columns[0]
            typo = misspell(rng.value, col, schema)
            script.put("coder", q.qid, [p.replace(_q(col), _q(typo), 1) for p in plans])
        elif mode in ("near_miss", "type_error"):
            script.put("coder", q.qid, [q.broken_plan(mode)])
            script.put("repair", q.qid, plans)
        else:
            script.put("coder", q.qid, ["Este plan no se puede escribir con esas columnas."])
            script.put("repair", q.qid, [q.broken_plan("near_miss"), q.broken_plan("type_error")])
        if abstain:
            q.gold = None
        questions.append((q, abstain))
    return tables, questions, script


GENERATORS = {"ask_survey": gen_ask_survey, "batch_bigtable": gen_batch_bigtable,
              "batch_wide_repair": gen_batch_wide_repair}


def generate(workload: str, seed: int, out: str) -> None:
    spec = WORKLOADS[workload]
    tables, questions, script = GENERATORS[workload](Rng(workload, seed), spec)
    os.makedirs(os.path.join(out, "tables"), exist_ok=True)
    for t in tables:
        t.write(os.path.join(out, "tables", f"{t.table_id}.csv"))
    with open(os.path.join(out, "questions.jsonl"), "w", encoding="utf-8") as fh:
        for q, abstain in questions:
            fh.write(json.dumps({"id": q.qid, "table_id": q.table_id, "question": q.text,
                                 "answer_type": q.answer_type, "answer": q.gold,
                                 "abstain": abstain}, ensure_ascii=False) + "\n")
    with open(os.path.join(out, "script.json"), "w", encoding="utf-8") as fh:
        json.dump(script.to_dict(), fh, ensure_ascii=False, sort_keys=True)
    with open(os.path.join(out, "workload.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(spec, name=workload, seed=seed), fh, ensure_ascii=False, sort_keys=True)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
