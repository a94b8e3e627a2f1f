"""Template decomposition of high-level fold commands into sub-task plans.

Each task family carries a paraphrase bank of surface commands. Variant
indices {0, 1} are the "seen instruction" pool, {2, 3} the "unseen
instruction" pool; the unseen-task condition holds out a whole family.
Sub-task surface forms vary with the variant through the preposition slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .grammar import (GrammarError, PlanningError, SubTask, normalize_text,
                      validate_subtask)

TASK_FAMILIES = ("DSF", "DTF", "FCIF", "TF", "TSF")
AUX_FAMILIES = ("SLEEVE_IN",)

CLOTH_DISPLAY = {"towel": "Towel", "t-shirt": "T-Shirt", "trousers": "Trousers"}

# Sub-task preposition per paraphrase variant; variant 0 is the canonical
# phrasing used by the worked examples.
PREP_VARIANTS = ("to", "onto", "over", "towards")

SEEN_VARIANTS = (0, 1)
UNSEEN_VARIANTS = (2, 3)

# family -> (cloth kind, its sub-tasks as (pick landmark, place landmark),
# its paraphrase bank with the canonical command first)
_FAMILIES: dict[str, tuple[str, tuple[tuple[str, str], ...], tuple[str, ...]]] = {
    "DSF": ("towel", (("left edge", "right edge"), ("top edge", "bottom edge")),
            ("Fold the Towel in half from left to right and then from top to bottom",
             "Fold the Towel in half twice to make a rectangle",
             "Do a double straight fold on the Towel",
             "Fold the Towel straight in half two times")),
    "DTF": ("towel", (("top-left corner", "bottom-right corner"),),
            ("Fold the Towel in half diagonally",
             "Fold the Towel into a triangle",
             "Do a triangle fold on the Towel",
             "Fold the Towel corner to corner")),
    "FCIF": ("towel", (("top-left corner", "center"), ("top-right corner", "center"),
                       ("bottom-left corner", "center"), ("bottom-right corner", "center")),
             ("Fold all corners of the Towel to the center",
              "Fold the four corners of the Towel inward",
              "Bring every corner of the Towel to the middle",
              "Do a four corners inward fold on the Towel")),
    "TF": ("trousers", (("left waist", "right waist"), ("left leg", "right leg")),
           ("Fold the Trousers in half from left to right",
            "Fold the Trousers in half",
            "Fold the Trousers from the left side over to the right side",
            "Do a half fold on the Trousers")),
    "TSF": ("t-shirt", (("left sleeve", "left middle part"),
                        ("right sleeve", "right middle part"), ("bottom", "shoulder")),
            ("Fold the T-Shirt",
             "Fold the T-Shirt neatly",
             "Do a standard fold on the T-Shirt",
             "Fold up the T-Shirt for storage")),
    "SLEEVE_IN": ("t-shirt", (("left sleeve", "left middle part"),
                              ("right sleeve", "right middle part")),
                  ("Fold the sleeve towards the inner of the T-Shirt",
                   "Fold the sleeves inward on the T-Shirt",
                   "Bring the sleeves of the T-Shirt inward",
                   "Tuck the sleeves of the T-Shirt in")),
}

FAMILY_KIND = {family: kind for family, (kind, _, _) in _FAMILIES.items()}

_BANK_INDEX = {normalize_text(cmd): (family, variant)
               for family, (_, _, bank) in _FAMILIES.items()
               for variant, cmd in enumerate(bank)}


def command_bank(family: str) -> tuple[str, ...]:
    """The paraphrase commands of ``family``, canonical variant first."""
    return _FAMILIES[family][2]


@dataclass(frozen=True)
class HighLevelCommand:
    text: str
    task_family: Optional[str]       # one of TASK_FAMILIES/AUX_FAMILIES, or None
    cloth_kind: Optional[str]
    variant: int = 0

    @property
    def known(self) -> bool:
        return self.task_family is not None


def _detect_kind(norm: str) -> Optional[str]:
    if "towel" in norm:
        return "towel"
    if "shirt" in norm:
        return "t-shirt"
    if "trousers" in norm or "pants" in norm:
        return "trousers"
    return None


def _heuristic_family(norm: str, kind: Optional[str]) -> Optional[str]:
    words = set(norm.split())
    if not ({"fold", "folding", "folded"} & words):
        return None
    if "diagonal" in norm or "triangle" in norm or "corner to corner" in norm:
        return "DTF"
    if "corners" in words and ({"center", "middle", "inward"} & words):
        return "FCIF"
    if kind == "t-shirt" and ("sleeve" in norm) and ({"inner", "inward", "in"} & words):
        return "SLEEVE_IN"
    if kind == "t-shirt":
        return "TSF"
    if kind == "trousers":
        return "TF"
    if kind == "towel" and "half" in words and ({"twice", "two", "rectangle"} & words
                                                or ("left" in words and "top" in words)):
        return "DSF"
    return None


def parse_command(text: str) -> HighLevelCommand:
    """Recognize a high-level command: exact paraphrase-bank match first,
    then keyword heuristics. Unknown commands are returned unresolved."""
    norm = normalize_text(text)
    if not norm:
        raise PlanningError("empty command")
    hit = _BANK_INDEX.get(norm)
    if hit is not None:
        family, variant = hit
        return HighLevelCommand(text.strip(), family, FAMILY_KIND[family], variant)
    kind = _detect_kind(norm)
    family = _heuristic_family(norm, kind)
    if family is not None:
        return HighLevelCommand(text.strip(), family, FAMILY_KIND[family], 0)
    return HighLevelCommand(text.strip(), None, kind, 0)


def decompose(text: str) -> list[SubTask]:
    """Deterministic template decomposition into validated sub-tasks.

    A command that is already a grammar-valid atomic instruction passes
    through as a single-element plan.
    """
    try:
        return [validate_subtask(text)]
    except GrammarError:
        pass
    command = parse_command(text)
    if not command.known:
        raise PlanningError(
            f"cannot decompose {command.text!r}: task family not recognized "
            f"(cloth kind: {command.cloth_kind}); an LLM backend may handle it")
    kind, steps, _ = _FAMILIES[command.task_family]
    prep = PREP_VARIANTS[command.variant % len(PREP_VARIANTS)]
    return [validate_subtask(f"Grasp the {pick} of the {CLOTH_DISPLAY[kind]} "
                             f"and place it {prep} the {place}", cloth_kind=kind)
            for pick, place in steps]
