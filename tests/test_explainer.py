import json

import pytest

from tableqa.explainer import (
    InstructionParseError,
    InstructionSet,
    build_explainer_prompt,
    clarify,
    parse_instruction_set,
)
from tableqa.profiler import describe_columns, profile_table


@pytest.fixture
def survey_profiles(survey_table):
    profiles = profile_table(survey_table)
    describe_columns(profiles, [])
    return profiles


class TestBuildPrompt:
    def test_contains_question_and_column(self, survey_profiles):
        prompt = build_explainer_prompt("¿Cuántas encuestas?", survey_profiles[:1])
        assert "¿Cuántas encuestas?" in prompt
        assert "Mes de realización" in prompt

    def test_all_names_present(self, survey_profiles):
        prompt = build_explainer_prompt("q?", survey_profiles)
        for p in survey_profiles:
            assert p.name in prompt

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            build_explainer_prompt("q?", [])


class TestParseInstructionSet:
    def test_fenced_json(self):
        reply = "```json\n" + json.dumps({
            "instructions": ["step 1", "step 2"],
            "columns": ["Mes"],
            "filter_values": ["enero"],
        }) + "\n```"
        inst = parse_instruction_set(reply)
        assert inst.instructions == ["step 1", "step 2"]
        assert inst.filter_values == [(None, "enero")]

    def test_prose_then_json(self):
        reply = 'Sure! Here is the plan: {"instructions": ["a"], "columns": []}'
        inst = parse_instruction_set(reply)
        assert inst.instructions == ["a"]
        assert inst.filter_values == []

    def test_no_json(self):
        with pytest.raises(InstructionParseError):
            parse_instruction_set("I cannot answer")

    def test_empty_instructions(self):
        with pytest.raises(InstructionParseError):
            parse_instruction_set('{"instructions": [], "columns": []}')

    def test_filter_values_with_columns(self):
        inst = parse_instruction_set(json.dumps({
            "instructions": ["a"],
            "columns": ["c"],
            "filter_values": [{"column": "c", "value": "v"}],
        }))
        assert inst.filter_values == [("c", "v")]


class TestClarify:
    def test_be_careful_line(self, survey_table, survey_profiles):
        inst = InstructionSet(
            instructions=["Count the surveys conducted in january"],
            columns=["Mes de realización"],
            filter_values=[("Mes de realización", "enero")],
        )
        out = clarify(inst, survey_table, survey_profiles)
        assert ("Be careful!. The value enero appears in the database with "
                "the following format: 'Enero'") in out.instructions

    def test_type_line(self, survey_table, survey_profiles):
        inst = InstructionSet(instructions=["x"], columns=["Mes de realización"])
        out = clarify(inst, survey_table, survey_profiles)
        assert ("The column 'Mes de realización' is of type 'object' and has "
                "the following example values: Enero, Febrero") in out.instructions

    def test_exact_value_no_line(self, survey_table, survey_profiles):
        inst = InstructionSet(instructions=["x"], columns=["Mes de realización"],
                              filter_values=[("Mes de realización", "Enero")])
        out = clarify(inst, survey_table, survey_profiles)
        assert not any(line.startswith("Be careful") for line in out.instructions)

    def test_numeric_column_no_type_line(self, survey_table, survey_profiles):
        inst = InstructionSet(instructions=["x"], columns=["Edad"])
        out = clarify(inst, survey_table, survey_profiles)
        assert out.instructions == ["x"]

    def test_column_names_corrected(self, survey_table, survey_profiles):
        inst = InstructionSet(instructions=["x"], columns=["Mes de realizacion"])
        out = clarify(inst, survey_table, survey_profiles)
        assert out.columns == ["Mes de realización"]
        assert all(c in survey_table.column_names for c in out.columns)

    def test_original_instructions_preserved_order(self, survey_table, survey_profiles):
        inst = InstructionSet(
            instructions=["step 1", "step 2"],
            columns=["Mes de realización", "Partido"],
            filter_values=[(None, "enero")],
        )
        out = clarify(inst, survey_table, survey_profiles)
        assert out.instructions[:2] == ["step 1", "step 2"]
        extra = out.instructions[2:]
        careful = [x for x in extra if x.startswith("Be careful")]
        types = [x for x in extra if x.startswith("The column")]
        assert extra == careful + types

    def test_bare_filter_value_matched_across_columns(self, survey_table, survey_profiles):
        inst = InstructionSet(instructions=["x"], columns=["Partido"],
                              filter_values=[(None, "psoe")])
        out = clarify(inst, survey_table, survey_profiles)
        assert ("Be careful!. The value psoe appears in the database with "
                "the following format: 'PSOE'") in out.instructions

    def test_mixed_kind_rendering(self, survey_table, survey_profiles):
        inst = InstructionSet(instructions=["x"], columns=["Valoración"])
        out = clarify(inst, survey_table, survey_profiles)
        assert any("is of type 'mixed'" in line for line in out.instructions)
