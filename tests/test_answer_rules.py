"""Properties of the per-type answer rules: the scorer against the
README's rules, the vote key against the scorer, and the stored form."""

import json
import math

import pytest
from hypothesis import assume, example, given, strategies as st

import reference as ref
from tableqa.answerer import ABS_TOL, REL_TOL, Answer, AnswerType, compare_answers

INF = math.inf
ELEMENT = {AnswerType.LIST_CATEGORY: AnswerType.CATEGORY,
           AnswerType.LIST_NUMBER: AnswerType.NUMBER}

# NaN is left out: it never equals itself, so no rule can match it.
NUMBERS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-9, -1e-9, 1e308, INF, -INF]))
TEXTS = st.one_of(
    st.sampled_from(["Madrid", "madrid", "Sevilla", "PP (Partido Popular)", "", "İ", "ß"]),
    st.text(max_size=4))
SCALARS = {AnswerType.BOOLEAN: st.booleans(), AnswerType.NUMBER: NUMBERS,
           AnswerType.CATEGORY: TEXTS}


def values(at):
    if at in ELEMENT:
        return st.lists(SCALARS[ELEMENT[at]], max_size=4)
    return SCALARS[at]


ANSWERS = st.sampled_from(list(AnswerType)).flatmap(
    lambda at: values(at).map(lambda v: Answer(at, v)))


def near(x):
    """x itself and numbers on either side of the tolerance."""
    return st.sampled_from([
        x, -x, x + ABS_TOL / 2, x + 2 * ABS_TOL, x * (1 + REL_TOL / 2),
        x * (1 + 2 * REL_TOL), math.nextafter(x, INF), math.nextafter(x, -INF)])


@st.composite
def variant(draw, at, value, same_key=False):
    """A value like `value`: case and space variants, permuted lists,
    near and far numbers, and (unless `same_key`) length changes."""
    if at is AnswerType.BOOLEAN:
        return value if same_key else draw(st.booleans())
    if at is AnswerType.NUMBER:
        if same_key:  # 0.0 and -0.0 are one key
            return -value if value == 0 and draw(st.booleans()) else value
        return draw(near(value))
    if at is AnswerType.CATEGORY:
        return draw(st.sampled_from(
            [value, value.upper(), value.lower(), value.swapcase(), f" {value}  ", f"\t{value}"]))
    items = draw(st.permutations([draw(variant(ELEMENT[at], v, same_key)) for v in value]))
    if not same_key and draw(st.booleans()):
        if items and draw(st.booleans()):
            items.pop(draw(st.integers(0, len(items) - 1)))
        else:
            items.append(draw(SCALARS[ELEMENT[at]]))
    return items


@st.composite
def answer_pairs(draw):
    """(pred, gold): a variant of the gold, another value of its type, or
    an answer of any type."""
    gold = draw(ANSWERS)
    pred = draw(st.one_of(
        variant(gold.type, gold.value).map(lambda v: Answer(gold.type, v)),
        values(gold.type).map(lambda v: Answer(gold.type, v)),
        ANSWERS))
    return pred, gold


@st.composite
def same_key_pairs(draw):
    gold = draw(ANSWERS)
    return Answer(gold.type, draw(variant(gold.type, gold.value, same_key=True))), gold


@example((Answer(AnswerType.NUMBER, INF), Answer(AnswerType.NUMBER, INF)))
@example((Answer(AnswerType.NUMBER, -INF), Answer(AnswerType.NUMBER, INF)))
@example((Answer(AnswerType.NUMBER, 5.0), Answer(AnswerType.NUMBER, -INF)))
@example((Answer(AnswerType.NUMBER, -0.0), Answer(AnswerType.NUMBER, 0.0)))
@example((Answer(AnswerType.LIST_CATEGORY, ["a", " B"]), Answer(AnswerType.LIST_CATEGORY, ["b", "A"])))
@example((Answer(AnswerType.LIST_NUMBER, [1.0]), Answer(AnswerType.LIST_NUMBER, [1.0, 1.0])))
@example((Answer(AnswerType.NUMBER, 1.0), Answer(AnswerType.CATEGORY, "1")))
@given(answer_pairs())
def test_compare_answers_follows_the_readme_rules(pair):
    pred, gold = pair
    assert compare_answers(pred, gold) == ref.ref_compare_answers(pred, gold)


@given(st.one_of(answer_pairs(), same_key_pairs()))
def test_equal_vote_keys_compare_equal_both_ways(pair):
    """The vote never merges answers that the scorer tells apart."""
    a, b = pair
    assume(a.vote_key() == b.vote_key())
    assert compare_answers(a, b) and compare_answers(b, a)


@given(ANSWERS)
def test_stored_answer_reads_back_equal(answer):
    assert Answer.from_dict(answer.to_dict()) == answer
    assert Answer.from_dict(json.loads(json.dumps(answer.to_dict()))) == answer


@pytest.mark.parametrize("wrap", [
    lambda x: Answer(AnswerType.NUMBER, x),
    lambda x: Answer(AnswerType.LIST_NUMBER, [1.0, x]),
], ids=["Number", "List[Number]"])
def test_infinity_scores_equal_only_to_itself(wrap):
    assert compare_answers(wrap(INF), wrap(INF))
    assert compare_answers(wrap(-INF), wrap(-INF))
    assert not compare_answers(wrap(-INF), wrap(INF))
    assert not compare_answers(wrap(INF), wrap(-INF))
    assert not compare_answers(wrap(5.0), wrap(INF))
    assert not compare_answers(wrap(1e308), wrap(INF))
    assert not compare_answers(wrap(math.nan), wrap(math.nan))


def test_nan_list_vote_key_ignores_order():
    first = Answer(AnswerType.LIST_NUMBER, [float("nan"), 1.0])
    last = Answer(AnswerType.LIST_NUMBER, [1.0, float("nan")])
    assert first.vote_key() == last.vote_key() == (AnswerType.LIST_NUMBER, (1.0, math.nan))
    assert not compare_answers(first, last)  # NaN still never scores correct


def test_infinite_gold_from_the_questions_file():
    """JSON's Infinity loads as inf, and a plan's overflow gives inf."""
    gold = Answer.from_dict(json.loads('{"type": "Number", "value": Infinity}'))
    assert compare_answers(Answer(AnswerType.NUMBER, 1e308 * 10), gold)
