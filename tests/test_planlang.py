import hashlib
import math
import os
import random
import statistics
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from reference import render_plan
from tableqa import tablefns
from tableqa.planlang import (
    BUILTINS,
    Call,
    Literal,
    Plan,
    PlanSyntaxError,
    PlanValidationError,
    Ref,
    dsl_reference,
    parse_plan,
    strip_llm_wrapping,
    validate_plan,
)
from tableqa.table_core import Column, Table


class TestParse:
    def test_answer_only(self):
        p = parse_plan("answer = count_rows(df)")
        assert p.bindings == ()
        assert p.answer == Call("count_rows", (Ref("df"),))

    def test_binding_and_answer(self):
        p = parse_plan(
            'x = filter_contains(df, "Mes de realización", "Enero")\n'
            'answer = count_rows(x)')
        assert len(p.bindings) == 1
        name, expr = p.bindings[0]
        assert name == "x"
        assert expr == Call("filter_contains",
                            (Ref("df"), Literal("Mes de realización"), Literal("Enero")))

    def test_syntax_error_position(self):
        with pytest.raises(PlanSyntaxError, match="line 1"):
            parse_plan("answer = ")

    def test_missing_answer(self):
        with pytest.raises(PlanSyntaxError, match="answer"):
            parse_plan("x = count_rows(df)")

    def test_comments_and_blanks(self):
        p = parse_plan("# a comment\n\nanswer = count_rows(df)  # trailing\n")
        assert p.answer == Call("count_rows", (Ref("df"),))

    def test_code_fences_stripped(self):
        p = parse_plan("```python\nanswer = count_rows(df)\n```")
        assert p.answer == Call("count_rows", (Ref("df"),))

    def test_literals(self):
        p = parse_plan('answer = head_n([1, "dos", true], 2)')
        assert p.answer == Call("head_n", (Literal((1.0, "dos", True)), Literal(2.0)))

    def test_nothing_after_answer(self):
        with pytest.raises(PlanSyntaxError, match="after the answer"):
            parse_plan("answer = count_rows(df)\nx = count_rows(df)")


class TestValidate:
    SCHEMA = ["Mes de realización", "Edad"]

    def test_unknown_builtin_suggestion(self):
        p = parse_plan('answer = filter_contians(df, "Edad", "x")')
        with pytest.raises(PlanValidationError, match="filter_contains"):
            validate_plan(p, self.SCHEMA)

    def test_column_literal_corrected(self):
        p = parse_plan('answer = count_containing(df, "Mes de realizacion", "Enero")')
        out = validate_plan(p, self.SCHEMA)
        assert out.answer.args[1] == Literal("Mes de realización")

    def test_valid_plan_unchanged(self):
        p = parse_plan('answer = count_containing(df, "Edad", "x")')
        assert validate_plan(p, self.SCHEMA) == p

    def test_arity_mismatch(self):
        p = parse_plan("answer = count_rows(df, df)")
        with pytest.raises(PlanValidationError, match="1 argument"):
            validate_plan(p, self.SCHEMA)

    def test_undefined_reference(self):
        p = parse_plan("answer = count_rows(y)")
        with pytest.raises(PlanValidationError, match="undefined"):
            validate_plan(p, self.SCHEMA)

    def test_reference_ordering(self):
        with pytest.raises(PlanValidationError, match="undefined"):
            validate_plan(parse_plan(
                "a = count_rows(b)\nb = count_rows(df)\nanswer = add(a, b)"),
                self.SCHEMA)

    def test_idempotent(self):
        p = parse_plan('x = filter_contains(df, "Mes de realizacion", "enero")\n'
                       "answer = count_rows(x)")
        once = validate_plan(p, self.SCHEMA)
        assert validate_plan(once, self.SCHEMA) == once


class TestRender:
    def test_round_trip_table1_plan(self):
        p = parse_plan('x = filter_contains(df, "Mes de realización", "Enero")\n'
                       "answer = count_rows(x)")
        assert parse_plan(render_plan(p)) == p

    def test_embedded_quote(self):
        p = Plan((), Call("count_containing",
                          (Ref("df"), Literal('a "quoted" name'), Literal("x\\y"))))
        assert parse_plan(render_plan(p)) == p


# ---------------------------------------------------------------------------
# random plan generation

NAMES = ["x", "y", "z", "t0", "result"]
STRINGS = ["Enero", "Mes de realización", 'with "quote"', "back\\slash", "", "ñé",
           "a\nb", "tab\t", "x\u2028y", "form\x0cfeed"]
NUMBERS = [1e-05, 2.5e-07, -0.5, math.inf, -math.inf]


def random_literal(rng):
    roll = rng.random()
    if roll < 0.3:
        return Literal(float(rng.randint(-10, 100)))
    if roll < 0.4:
        return Literal(rng.choice(NUMBERS))
    if roll < 0.7:
        return Literal(rng.choice(STRINGS))
    if roll < 0.8:
        return Literal(rng.random() < 0.5)
    return Literal(tuple(rng.choice([1.0, "a", True]) for _ in range(rng.randint(0, 3))))


def random_expr(rng, scope, depth=0):
    roll = rng.random()
    if roll < 0.35 or depth >= 2:
        return random_literal(rng)
    if roll < 0.5:
        return Ref(rng.choice(scope))
    builtin = rng.choice(list(BUILTINS.values()))
    args = tuple(random_expr(rng, scope, depth + 1) for _ in range(builtin.arity))
    return Call(builtin.name, args)


def random_plan(rng):
    scope = ["df"]
    bindings = []
    for _ in range(rng.randint(0, 4)):
        name = rng.choice([n for n in NAMES if n not in scope])
        bindings.append((name, random_expr(rng, scope)))
        scope.append(name)
    return Plan(tuple(bindings), random_expr(rng, scope))


def test_500_random_plans_round_trip():
    rng = random.Random(99)
    for _ in range(500):
        p = random_plan(rng)
        assert parse_plan(render_plan(p)) == p


def test_dsl_reference_lists_every_builtin():
    text = dsl_reference()
    for name in BUILTINS:
        assert name + "(" in text
    assert "answer =" in text


def test_dsl_reference_is_byte_identical():
    # The coder prompt embeds this text; any change to it changes every
    # coder prompt and so every recorded benchmark prompt size.
    text = dsl_reference()
    assert len(text) == 4111
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        "bfb57bad0ac1030896c31af9eabc640f7e775d4c5acb39a45116209622e62c63"


@pytest.mark.parametrize("name", list(BUILTINS))
def test_validator_snaps_exactly_the_column_parameters(name):
    builtin = BUILTINS[name]
    params = builtin.signature[builtin.signature.index("(") + 1:
                               builtin.signature.index(")")].split(", ")
    assert builtin.arity == len(params)
    call = Call(name, tuple(Literal("Edda") for _ in params))
    out = validate_plan(Plan((), call), ["Edad"])
    snapped = [i for i, arg in enumerate(out.answer.args) if arg.value == "Edad"]
    assert snapped == [i for i, p in enumerate(params) if p.endswith("column")]


def test_strip_llm_wrapping_variants():
    assert strip_llm_wrapping("```\nanswer = count_rows(df)\n```") == \
        "answer = count_rows(df)"
    assert strip_llm_wrapping("answer = count_rows(df)") == "answer = count_rows(df)"


@given(st.text())
def test_any_string_literal_round_trips(text):
    p = Plan((), Literal(text))
    assert parse_plan(render_plan(p)) == p


# ---------------------------------------------------------------------------
# the front end: a checked subset of Python

DF = Ref("df")
COUNT_MES_ENERO = Call("count_containing", (DF, Literal("Mes"), Literal("Enero")))


@pytest.mark.parametrize("text, answer", [
    ("answer = count_containing(df, 'Mes', 'Enero')", COUNT_MES_ENERO),
    ("answer = [True, False, true, false]", Literal((True, False, True, False))),
    ("answer = [1e3, 1_000, 0x10]", Literal((1000.0, 1000.0, 16.0))),
    ('answer = count_containing(df, "M" "es", "Enero")', COUNT_MES_ENERO),
    ('answer = count_containing(\n    df,\n    "Mes",\n    "Enero"\n)', COUNT_MES_ENERO),
    ('answer = count_containing(df, "Mes", "Enero",)', COUNT_MES_ENERO),
    ("answer = [- 1, +2.5, (3)]", Literal((-1.0, 2.5, 3.0))),
], ids=["single-quotes", "python-booleans", "number-forms", "implicit-concatenation",
        "call-over-several-lines", "trailing-comma", "signs-and-parentheses"])
def test_python_forms_parse(text, answer):
    assert parse_plan(text) == Plan((), answer)


def test_statements_separated_by_a_semicolon():
    assert parse_plan("a = 1; answer = a") == Plan((("a", Literal(1.0)),), Ref("a"))


@pytest.mark.parametrize("text, value", [
    (r'answer = "a\nb"', "a\nb"),
    (r'answer = "\u00e9"', "é"),
    (r'answer = "tab\there"', "tab\there"),
    (r'answer = "say \"hi\" \\o/"', 'say "hi" \\o/'),
], ids=["newline", "unicode-escape", "tab", "quote-and-backslash"])
def test_string_escapes_have_their_python_meaning(text, value):
    assert parse_plan(text) == Plan((), Literal(value))


def test_indented_lines_parse():
    # The plan language reference shows its example indented by 4 spaces.
    assert parse_plan('    x = filter_contains(df, "Mes", "Enero")\n'
                      "    answer = count_rows(x)") == \
        Plan((("x", Call("filter_contains", (DF, Literal("Mes"), Literal("Enero")))),),
             Call("count_rows", (Ref("x"),)))
    assert parse_plan("x = 1\n\t  answer = x") == Plan((("x", Literal(1.0)),), Ref("x"))


@pytest.mark.parametrize("digits, value", [("9" * 400, math.inf), ("-" + "9" * 400, -math.inf)],
                         ids=["positive", "negative"])
def test_integer_too_large_for_a_float_is_infinite(digits, value):
    assert parse_plan(f"answer = {digits}") == Plan((), Literal(value))


def test_every_number_is_a_float():
    answer = parse_plan("answer = [1, -2, 0x10, 1_0]").answer
    assert [type(v) for v in answer.value] == [float] * 4


@pytest.mark.parametrize("text, message", [
    ("answer = count_rows(df)\nx = count_rows(df)",
     "line 2, column 1: no lines allowed after the answer line"),
    ("x = count_rows(df)", "line 1, column 1: plan must end with an 'answer =' line"),
    ("# only a comment", "line 1, column 1: plan must end with an 'answer =' line"),
])
def test_own_messages_keep_their_text(text, message):
    with pytest.raises(PlanSyntaxError) as info:
        parse_plan(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text, line, column", [
    ("answer = None", 1, 10),
    ("answer = 1j", 1, 10),
    ("answer = head_n(x, n=1)", 1, 20),
    ("answer = df.rows", 1, 10),
    ("answer = df.count_rows()", 1, 10),
    ("answer = x[0]", 1, 10),
    ("answer = add(1, 2 + 3)", 1, 17),
    ("answer = [count_rows(df)]", 1, 11),
    ("answer = [[1]]", 1, 11),
    ("answer = --1", 1, 10),
    ("answer = -true", 1, 10),
    ("answer = head_n(*x)", 1, 17),
    ("x = y = 1\nanswer = x", 1, 1),
    ("count_rows(df)\nanswer = 1", 1, 1),
    ("x = 1\nx += 1\nanswer = x", 2, 1),
    ('answer = head_n("ñé€", None)', 1, 24),
    ("x = 1\n    answer = None", 2, 14),
    ("x = 1\ranswer = None", 2, 10),
    ("x = 1\r\nanswer = None", 2, 10),
], ids=["none", "complex", "keyword-argument", "attribute", "method-call", "subscript",
        "operator", "call-in-list", "nested-list", "double-sign", "signed-boolean",
        "starred", "chained-assignment", "bare-expression", "augmented-assignment",
        "column-counts-characters", "column-counts-indentation", "cr-line-break",
        "crlf-line-break"])
def test_outside_the_subset_is_a_parse_error_at_the_node(text, line, column):
    with pytest.raises(PlanSyntaxError) as info:
        parse_plan(text)
    assert (info.value.line, info.value.column) == (line, column)


@pytest.mark.parametrize("text, line", [
    ("in = count_rows(df)\nanswer = in", 1),
    ("x = 1\nanswer = not(x)", 2),
    ('x = 1\nanswer = count_containing(df, "Mes", "Enero"', 2),
    ("Sure! Here is the plan.\nanswer = count_rows(df)", 1),
], ids=["keyword-binding", "keyword-call", "unclosed-call", "prose"])
def test_python_syntax_errors_keep_their_line(text, line):
    with pytest.raises(PlanSyntaxError) as info:
        parse_plan(text)
    assert info.value.line == line


@pytest.mark.parametrize("text", [
    "answer = " + "head_n(" * 2000 + "1" + ", 1)" * 2000,
    "answer = " + "-" * 100000 + "1",
    "answer = " + "+".join(["1"] * 100000),
    'answer = "a\0b"',
    'answer = "\ud800"',
], ids=["2000-nested-calls", "100000-signs", "100000-term-sum", "nul-byte", "lone-surrogate"])
def test_hostile_input_is_a_parse_error(text):
    with pytest.raises(PlanSyntaxError) as info:
        parse_plan(text)
    assert info.value.line == 1


def test_hex_literal_is_a_number():
    assert parse_plan("answer = 0x10") == Plan((), Literal(16.0))


def test_deepest_nesting_python_accepts_parses():
    plan = parse_plan("answer = " + "head_n(" * 190 + "[1]" + ", 1)" * 190)
    depth, expr = 0, plan.answer
    while isinstance(expr, Call):
        depth, expr = depth + 1, expr.args[0]
    assert depth == 190


PLAN_PIECES = ["answer", "x", "df", " = ", "=", "(", ")", "[", "]", ",", '"', "'", "\\",
               "\n", "\r", "\0", "\u2028", "\x0c", "\t", "    ", "#", "-", "+", "1", "1e3",
               "0x", "_", ".", ":", ";", "true", "True", "None", "in", "not", "lambda",
               "count_rows", "head_n(", "é", "\ud800", "```"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(st.one_of(st.sampled_from(PLAN_PIECES),
                                               st.text(max_size=2)), max_size=40).map("".join)))
def test_parse_plan_returns_a_plan_or_raises_plan_syntax_error(text):
    try:
        plan = parse_plan(text)
    except PlanSyntaxError as exc:
        assert exc.line >= 1 and exc.column >= 1
    else:
        assert isinstance(plan, Plan)


def test_malformed_replies_print_no_parser_warnings(capfd):
    """CPython's parser warns about `1if` and an unknown escape; with every
    warning shown (`-W default`), parsing such replies still leaves stderr
    empty.  A child process is used because pytest records warnings
    instead of printing them."""
    code = ("from tableqa.planlang import parse_plan, PlanSyntaxError\n"
            "for reply in ['answer = 1if x else 2', 'answer = \"\\\\d\"']:\n"
            "    try:\n"
            "        parse_plan(reply)\n"
            "    except PlanSyntaxError:\n"
            "        pass\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-W", "default", "-c", code], env=env, check=True, timeout=60)
    assert capfd.readouterr().err == ""


def _outcome(fn, numbers):
    try:
        return fn(numbers)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=30))
def test_mean_is_statistics_fmean(numbers):
    """`mean` is fmean's own arithmetic (fsum, then one division), so
    results and overflow errors are the same, bit for bit."""
    assert _outcome(BUILTINS["mean"].impl, numbers) == _outcome(statistics.fmean, numbers)


# Builtins whose implementation is named, not given: a tablefns function.
NAMED = [name for name, b in BUILTINS.items() if isinstance(b.impl, str)]


def test_named_builtins_are_the_table_functions():
    assert NAMED == ["flatten_column_values", "delete_rows_by_column_value",
                     "sort_alphabetical", "filter_contains", "filter_not_contains",
                     "exists_value", "count_equal", "count_containing", "most_frequent",
                     "most_frequent_n", "most_frequent_in_subset", "most_frequent_n_in_subset"]


@pytest.mark.parametrize("name", NAMED)
def test_named_impl_is_a_tablefns_function(name):
    fn = getattr(tablefns, BUILTINS[name].impl)
    assert callable(fn) and fn.__module__ == "tableqa.tablefns"


@pytest.mark.parametrize("name", NAMED)
def test_named_impl_is_looked_up_at_call_time(name, monkeypatch):
    """A function replaced on `tablefns` after import (as a tracer does)
    is the one the builtin runs, with the coerced arguments."""
    builtin = BUILTINS[name]
    table = Table("t", (Column.from_cells("c", ["x"]),))
    raw = {"table": table, "n": 2.0}  # any other parameter is a column or a value
    params = builtin.signature[builtin.signature.index("(") + 1:
                               builtin.signature.index(")")].split(", ")
    seen, result = [], object()
    monkeypatch.setattr(tablefns, builtin.impl, lambda *args: seen.append(args) or result)
    assert builtin.call([raw.get(p, "c") for p in params]) is result
    assert seen == [tuple(raw.get(p, "c") for p in params)]
