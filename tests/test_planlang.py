import hashlib
import random

import pytest

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
    render_plan,
    strip_llm_wrapping,
    validate_plan,
)


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
STRINGS = ["Enero", "Mes de realización", 'with "quote"', "back\\slash", "", "ñé"]


def random_literal(rng):
    roll = rng.random()
    if roll < 0.4:
        return Literal(float(rng.randint(-10, 100)))
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
