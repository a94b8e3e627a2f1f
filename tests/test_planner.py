"""Grammar, conjunction splitting, and template decomposition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clothfold import planner
from clothfold.planner.templates import (AUX_FAMILIES, FAMILY_KIND,
                                         PREP_VARIANTS, TASK_FAMILIES)


class TestSplitAtConjunction:
    def test_reference_sentence(self):
        tokens = "grasp the left leg and place it over the right leg".split()
        pick, place = planner.split_at_conjunction(tokens)
        assert pick == ["grasp", "the", "left", "leg"]
        assert place == ["place", "it", "over", "the", "right", "leg"]

    def test_minimal(self):
        assert planner.split_at_conjunction(["a", "and", "b"]) == (["a"], ["b"])

    def test_first_occurrence_rule(self):
        pick, place = planner.split_at_conjunction(["a", "and", "b", "and", "c"])
        assert pick == ["a"] and place == ["b", "and", "c"]

    def test_missing_conjunction(self):
        with pytest.raises(planner.GrammarError) as e:
            planner.split_at_conjunction(["grasp", "the", "left", "leg"])
        assert e.value.reason == "missing-conjunction"

    def test_boundary_conjunction_rejected(self):
        for tokens in (["and", "b"], ["a", "and"]):
            with pytest.raises(planner.GrammarError):
                planner.split_at_conjunction(tokens)

    @given(st.lists(st.sampled_from(["grasp", "the", "left", "leg", "place",
                                     "it", "over", "right"]),
                    min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_split_segments_never_contain_first_and(self, extra):
        tokens = extra + ["and"] + extra + ["x"]
        pick, place = planner.split_at_conjunction(tokens)
        assert "and" not in pick
        assert pick + ["and"] + place == tokens


class TestValidateSubtask:
    def test_reference_sentence_phrases(self):
        st_ = planner.validate_subtask(
            "Grasp the left leg and place it over the right leg")
        assert st_.pick_phrase == "Grasp the left leg"
        assert st_.place_phrase == "place it over the right leg"
        assert st_.pick_landmark == "left leg"
        assert st_.place_landmark == "right leg"

    def test_missing_conjunction(self):
        with pytest.raises(planner.GrammarError) as e:
            planner.validate_subtask("Grasp the left leg place it")
        assert e.value.reason == "missing-conjunction"

    def test_unresolvable_part_on_towel(self):
        with pytest.raises(planner.GrammarError) as e:
            planner.validate_subtask(
                "Grasp the antenna and place it to the center", cloth_kind="towel")
        assert e.value.reason == "unresolvable-part"

    def test_in_sentence_kind_mention(self):
        st_ = planner.validate_subtask(
            "Grasp the left waist of the Trousers and place it to the right waist")
        assert st_.cloth_kind == "trousers"

    def test_empty_text(self):
        with pytest.raises(planner.GrammarError):
            planner.validate_subtask("   ")

    def test_bad_verb(self):
        with pytest.raises(planner.GrammarError) as e:
            planner.validate_subtask("Wave the left leg and place it to the right leg")
        assert e.value.reason == "bad-verb"

    def test_bad_preposition(self):
        with pytest.raises(planner.GrammarError) as e:
            planner.validate_subtask(
                "Grasp the left leg and place it beneath the right leg")
        assert e.value.reason == "bad-preposition"

    def test_tokens_split_never_errors_for_valid(self):
        st_ = planner.validate_subtask(
            "Grasp the top edge of the Towel and place it to the bottom edge")
        pick, place = planner.split_at_conjunction(st_.text.split())
        assert pick and place


class TestDecompose:
    def test_trousers_plan_verbatim(self):
        plan = planner.decompose("Fold the Trousers in half from left to right")
        assert [s.text for s in plan] == [
            "Grasp the left waist of the Trousers and place it to the right waist",
            "Grasp the left leg of the Trousers and place it to the right leg",
        ]

    def test_sleeve_plan_verbatim(self):
        plan = planner.decompose("Fold the sleeve towards the inner of the T-Shirt")
        assert [s.text for s in plan] == [
            "Grasp the left sleeve of the T-Shirt and place it to the left middle part",
            "Grasp the right sleeve of the T-Shirt and place it to the right middle part",
        ]

    def test_atomic_instruction_passthrough(self):
        text = "Grasp the left leg of the Trousers and place it to the right leg"
        plan = planner.decompose(text)
        assert len(plan) == 1 and plan[0].text == text

    def test_plan_lengths(self):
        expected = {"DSF": 2, "DTF": 1, "FCIF": 4, "TF": 2, "TSF": 3}
        for family, n in expected.items():
            cmd = planner.command_bank(family)[family][0]
            assert len(planner.decompose(cmd)) == n, family

    def test_every_paraphrase_variant_decomposes_and_validates(self):
        for family in TASK_FAMILIES + AUX_FAMILIES:
            for variant, cmd in enumerate(planner.command_bank(family)[family]):
                plan = planner.decompose(cmd)
                assert plan, (family, variant)
                for s in plan:
                    # round trip through the validator
                    again = planner.validate_subtask(s.text, cloth_kind=s.cloth_kind)
                    assert again.pick_landmark == s.pick_landmark
                    assert again.place_landmark == s.place_landmark

    def test_paraphrase_bank_has_four_variants_per_family(self):
        for family in TASK_FAMILIES:
            assert len(planner.command_bank(family)[family]) >= 4

    def test_unknown_family_raises(self):
        with pytest.raises(planner.PlanningError):
            planner.decompose("Iron the shirt flat")

    def test_deterministic(self):
        cmd = "Fold all corners of the Towel to the center"
        a = [s.text for s in planner.decompose(cmd)]
        b = [s.text for s in planner.decompose(cmd)]
        assert a == b

    def test_variant_preposition_always_valid(self):
        for family in TASK_FAMILIES:
            tpl = planner.plan_for(family)
            for v in range(len(PREP_VARIANTS)):
                for text in tpl.instantiate(v):
                    planner.validate_subtask(text, cloth_kind=tpl.kind)

    def test_family_kinds(self):
        assert FAMILY_KIND["TF"] == "trousers"
        assert FAMILY_KIND["TSF"] == "t-shirt"
        assert FAMILY_KIND["DSF"] == "towel"


class TestParseCommand:
    def test_bank_exact_match_sets_variant(self):
        cmd = planner.parse_command("Fold the Towel into a triangle")
        assert cmd.task_family == "DTF" and cmd.variant == 1

    def test_case_and_punctuation_insensitive(self):
        cmd = planner.parse_command("fold the TOWEL in half, diagonally!")
        assert cmd.task_family == "DTF"

    def test_unknown_marked(self):
        cmd = planner.parse_command("Levitate the sock")
        assert not cmd.known

    def test_transcript_stub(self):
        tr = planner.transcribe_text(" Fold the T-Shirt ")
        assert tr.text == "Fold the T-Shirt"
        assert tr.source == "text-input"
