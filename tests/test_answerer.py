import pytest

from tableqa.answerer import (
    Answer,
    AnswerType,
    FormatError,
    compare_answers,
    format_answer,
)
from tableqa.table_core import Column, Table


def one_col(name, cells):
    return Table("t", (Column.from_cells(name, cells),))


class TestFormatAnswer:
    def test_number_from_count(self):
        assert format_answer(2.0, AnswerType.NUMBER).value == 2.0

    def test_boolean_lexicon(self):
        assert format_answer("sí", AnswerType.BOOLEAN).value is True
        assert format_answer("NO ", AnswerType.BOOLEAN).value is False
        assert format_answer(True, AnswerType.BOOLEAN).value is True
        assert format_answer(1.0, AnswerType.BOOLEAN).value is True
        assert format_answer(0.0, AnswerType.BOOLEAN).value is False

    @pytest.mark.parametrize("text", ["+65", "18-24", "PP (Partido Popular)"])
    def test_category_byte_identity(self, text):
        assert format_answer(text, AnswerType.CATEGORY).value == text

    def test_number_via_extraction(self):
        assert format_answer("10 - Le votaría siempre", AnswerType.NUMBER).value == 10.0
        with pytest.raises(FormatError):
            format_answer("abc", AnswerType.NUMBER)

    def test_single_element_unwrap(self):
        assert format_answer(["5"], AnswerType.NUMBER).value == 5.0
        assert format_answer(one_col("c", ["sólo"]), AnswerType.CATEGORY).value == "sólo"

    def test_lists(self):
        assert format_answer(["1", "2"], AnswerType.LIST_NUMBER).value == [1.0, 2.0]
        assert format_answer(one_col("c", ["a", "b"]),
                             AnswerType.LIST_CATEGORY).value == ["a", "b"]
        assert format_answer("solo", AnswerType.LIST_CATEGORY).value == ["solo"]

    def test_multi_column_table_scalar_error(self):
        t = Table("t", (Column.from_cells("a", ["1"]), Column.from_cells("b", ["2"])))
        with pytest.raises(FormatError):
            format_answer(t, AnswerType.NUMBER)
        with pytest.raises(FormatError):
            format_answer(t, AnswerType.LIST_NUMBER)

    def test_number_rendering_in_category(self):
        assert format_answer(3.0, AnswerType.CATEGORY).value == "3"


class TestAnswerFromDict:
    @pytest.mark.parametrize("text, value", [
        ("False", False), ("TRUE", True), ("si", True), ("yes", True),
    ])
    def test_boolean_text(self, text, value):
        assert Answer.from_dict({"type": "Boolean", "value": text}).value is value

    @pytest.mark.parametrize("at", ["List[Category]", "List[Number]"])
    def test_list_types_need_an_array(self, at):
        with pytest.raises(ValueError, match="needs a JSON array"):
            Answer.from_dict({"type": at, "value": "PSOE"})

    def test_round_trip(self):
        for answer in (Answer(AnswerType.BOOLEAN, False),
                       Answer(AnswerType.LIST_CATEGORY, ["PSOE", "PP"]),
                       Answer(AnswerType.LIST_NUMBER, [1.0, 2.5])):
            assert Answer.from_dict(answer.to_dict()) == answer


class TestCompareAnswers:
    def test_strict_category(self):
        pred = Answer(AnswerType.CATEGORY, "PP")
        gold = Answer(AnswerType.CATEGORY, "PP (Partido Popular)")
        assert compare_answers(pred, gold) is False

    def test_category_case_and_whitespace(self):
        assert compare_answers(Answer(AnswerType.CATEGORY, " enero"),
                               Answer(AnswerType.CATEGORY, "Enero")) is True

    def test_list_multiset(self):
        assert compare_answers(Answer(AnswerType.LIST_NUMBER, [1.0, 2.0]),
                               Answer(AnswerType.LIST_NUMBER, [2.0, 1.0])) is True

    def test_number_tolerance(self):
        assert compare_answers(Answer(AnswerType.NUMBER, 0.5),
                               Answer(AnswerType.NUMBER, 0.5 + 1e-12)) is True
        assert compare_answers(Answer(AnswerType.NUMBER, 0.5),
                               Answer(AnswerType.NUMBER, 0.6)) is False

    def test_type_mismatch_is_false(self):
        assert compare_answers(Answer(AnswerType.NUMBER, 1.0),
                               Answer(AnswerType.CATEGORY, "1")) is False

    def test_reflexive_symmetric(self):
        a = Answer(AnswerType.LIST_CATEGORY, ["a", "b"])
        b = Answer(AnswerType.LIST_CATEGORY, ["B", "A"])
        assert compare_answers(a, a)
        assert compare_answers(a, b) == compare_answers(b, a) is True

    def test_length_mismatch(self):
        assert compare_answers(Answer(AnswerType.LIST_CATEGORY, ["a"]),
                               Answer(AnswerType.LIST_CATEGORY, ["a", "b"])) is False


def test_canonical_key_stable():
    a = Answer(AnswerType.LIST_NUMBER, [1.0, 2.0])
    b = Answer(AnswerType.LIST_NUMBER, [1.0, 2.0])
    assert a.canonical_key() == b.canonical_key()
    assert a.canonical_key() != Answer(AnswerType.LIST_NUMBER, [2.0, 1.0]).canonical_key()
