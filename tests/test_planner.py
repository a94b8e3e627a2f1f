"""Grammar, conjunction splitting, and template decomposition."""

import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clothfold import planner
from clothfold.planner.grammar import PREPOSITIONS, landmark_names
from clothfold.planner.templates import (AUX_FAMILIES, CLOTH_DISPLAY, FAMILY_KIND,
                                         PREP_VARIANTS, TASK_FAMILIES)
from clothfold.sim import cloth_kinds, init_cloth, jittered_sim, scripted_expert


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

    @pytest.mark.parametrize("text,reason", [
        ("Grasp left leg and place it over the right leg", "empty-phrase"),
        ("Grasp the left leg and put it over the right leg", "bad-verb"),
        ("Grasp the left leg and place it over", "empty-phrase"),
        ("Grasp the left leg and place it over a right leg", "empty-phrase"),
        ("Grasp the left leg and place it over the", "empty-phrase"),
    ])
    def test_malformed_phrase_reason(self, text, reason):
        with pytest.raises(planner.GrammarError) as e:
            planner.validate_subtask(text)
        assert e.value.reason == reason

    def test_every_kindless_sentence_resolves_against_the_cloths_holding_both_parts(self):
        """Every part of every cloth as pick and as place, each with no cloth or
        any cloth named, under every preposition: 34,656 sentences. A sentence
        that names no cloth takes the one kind with both parts; none is a
        cloth mismatch, several ("center" to "center") leave it kind-less.
        The parts are those a cloth's mesh can look up."""
        parts = {kind: set(init_cloth(kind).landmark_names()) for kind in cloth_kinds()}
        names = sorted(set().union(*parts.values()))
        suffixes = [("", None)] + [(f" of the {CLOTH_DISPLAY[k]}", k) for k in parts]

        def expected(pick, place, pick_kind, place_kind):
            named = {pick_kind, place_kind} - {None}
            if len(named) > 1:
                return "cloth-mismatch"
            if named:
                (kind,) = named
                if pick not in parts[kind]:
                    return "unresolvable-part"
                if place not in parts[kind]:
                    return "unresolvable-target"
                return (pick, place, kind)
            fits = [k for k in parts if pick in parts[k] and place in parts[k]]
            if not fits:
                return "cloth-mismatch"
            return (pick, place, fits[0] if len(fits) == 1 else None)

        n = 0
        for pick, place in itertools.product(names, names):
            for (pick_sfx, pick_kind), (place_sfx, place_kind) in itertools.product(
                    suffixes, suffixes):
                want = expected(pick, place, pick_kind, place_kind)
                for prep in PREPOSITIONS:
                    text = f"Grasp the {pick}{pick_sfx} and place it {prep} the {place}{place_sfx}"
                    try:
                        s = planner.validate_subtask(text)
                        got = (s.pick_landmark, s.place_landmark, s.cloth_kind)
                    except planner.GrammarError as e:
                        got = e.reason
                    assert got == want, text
                    n += 1
        assert n == 34_656

    def test_part_of_no_cloth_is_unresolvable(self):
        for text, reason in (
                ("Grasp the antenna and place it to the center", "unresolvable-part"),
                ("Grasp the center and place it to the antenna", "unresolvable-target")):
            with pytest.raises(planner.GrammarError) as e:
                planner.validate_subtask(text)
            assert e.value.reason == reason

    def test_every_accepted_sentence_is_executable(self):
        """Every ordered pair of a cloth's parts, named with its cloth, is
        accepted, scripted and folded on three random poses of that cloth:
        155 pairs, 465 folds, none of which may raise."""
        rng = np.random.default_rng(21)
        n = 0
        for kind in cloth_kinds():
            parts = landmark_names(kind)
            for env in [jittered_sim(kind, rng) for _ in range(3)]:
                rest = env.mesh
                for pick, place in itertools.product(parts, parts):
                    text = (f"Grasp the {pick} of the {CLOTH_DISPLAY[kind]} "
                            f"and place it to the {place}")
                    subtask = planner.validate_subtask(text)
                    assert (subtask.pick_landmark, subtask.place_landmark,
                            subtask.cloth_kind) == (pick, place, kind), text
                    env.mesh = rest
                    action = scripted_expert(rest, subtask, env.camera)
                    env.step(action.pick_world, action.place_world)
                    n += 1
        assert n == 465

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
            cmd = planner.command_bank(family)[0]
            assert len(planner.decompose(cmd)) == n, family

    def test_every_paraphrase_variant_decomposes_and_validates(self):
        for family in TASK_FAMILIES + AUX_FAMILIES:
            for variant, cmd in enumerate(planner.command_bank(family)):
                plan = planner.decompose(cmd)
                assert plan, (family, variant)
                for s in plan:
                    # round trip through the validator
                    again = planner.validate_subtask(s.text, cloth_kind=s.cloth_kind)
                    assert again.pick_landmark == s.pick_landmark
                    assert again.place_landmark == s.place_landmark

    def test_paraphrase_bank_has_four_variants_per_family(self):
        for family in TASK_FAMILIES:
            assert len(planner.command_bank(family)) >= 4

    def test_unknown_family_raises(self):
        with pytest.raises(planner.PlanningError):
            planner.decompose("Iron the shirt flat")

    @pytest.mark.parametrize("text,reason", [
        ("Grasp the left leg and place it to the left sleeve", "cloth-mismatch"),
        ("Grasp the left leg of the Towel and place it to the center", "unresolvable-part"),
        ("Grasp the center and place it to the hood", "unresolvable-target"),
    ])
    def test_a_sub_task_sentence_keeps_its_reason(self, text, reason):
        # No command template matches these either, so the sentence's own
        # fault is the one reported, not an unrecognized task family.
        with pytest.raises(planner.GrammarError) as err:
            planner.decompose(text)
        assert err.value.reason == reason

    def test_a_sentence_of_another_shape_is_an_unknown_family(self):
        with pytest.raises(planner.PlanningError, match="task family not recognized") as err:
            planner.decompose("Grasp the center or place it to the center")
        assert not isinstance(err.value, planner.GrammarError)

    def test_deterministic(self):
        cmd = "Fold all corners of the Towel to the center"
        a = [s.text for s in planner.decompose(cmd)]
        b = [s.text for s in planner.decompose(cmd)]
        assert a == b

    def test_variant_preposition_always_valid(self):
        for family in TASK_FAMILIES:
            for v in range(len(PREP_VARIANTS)):
                for s in planner.decompose(planner.command_bank(family)[v]):
                    assert s.place_phrase.startswith(f"place it {PREP_VARIANTS[v]} the ")
                    planner.validate_subtask(s.text, cloth_kind=FAMILY_KIND[family])

    def test_bank_plans_pinned(self):
        """The sub-task records of all 24 bank commands (6 families x 4
        variants), pinned by the SHA-256 of their sorted-key JSON."""
        plans = [[s.to_record() for s in planner.decompose(cmd)]
                 for family in TASK_FAMILIES + AUX_FAMILIES
                 for cmd in planner.command_bank(family)]
        assert len(plans) == 24 and sum(map(len, plans)) == 56
        digest = hashlib.sha256(json.dumps(plans, sort_keys=True).encode()).hexdigest()
        assert digest == "c03767449434d71f98260fb70b798151c308f279fc4c65096e4780adff15b8a3"

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

    @pytest.mark.parametrize("text,family,kind", [
        ("Please fold my towel along the diagonal", "DTF", "towel"),
        ("Fold the towel's corners into the middle", "FCIF", "towel"),
        ("Fold each sleeve of the shirt in", "SLEEVE_IN", "t-shirt"),
        ("Fold this shirt for me", "TSF", "t-shirt"),
        ("Fold up the pants", "TF", "trousers"),
        ("Fold these trousers", "TF", "trousers"),
        ("Fold the towel in half twice", "DSF", "towel"),
        ("Fold the towel in half left to right, then top to bottom", "DSF", "towel"),
        ("Fold the towel into a swan", None, "towel"),
        ("Roll the shirt into a tube", None, "t-shirt"),
        ("Fold the sock", None, None),
    ])
    def test_free_text_keyword_heuristics(self, text, family, kind):
        cmd = planner.parse_command(f"  {text} ")
        assert (cmd.text, cmd.task_family, cmd.cloth_kind, cmd.variant) == (
            text, family, kind, 0)
