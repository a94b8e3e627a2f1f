"""Sub-task grammar: ``Grasp the <part> [of the <cloth>] and place it <prep>
the <target> [of the <cloth>]``. Validation resolves part names against the
cloth kind's landmark table so that every accepted sentence is executable."""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass
from typing import Optional

from ..sim import mesh as _mesh

PREPOSITIONS = ("to", "onto", "over", "towards", "on", "at")

_NORMALIZE_RE = re.compile(r"[^a-z0-9]+")


class PlanningError(RuntimeError):
    """Base class for planner failures."""


class GrammarError(PlanningError):
    """A sentence does not fit the sub-task grammar.

    ``reason`` is a stable code: missing-conjunction, empty-phrase, bad-verb,
    bad-preposition, unresolvable-part, unresolvable-target, empty-text.
    """

    def __init__(self, reason: str, message: str, text: str = ""):
        super().__init__(message)
        self.reason = reason
        self.text = text


def normalize_text(text: str) -> str:
    return _NORMALIZE_RE.sub(" ", text.lower()).strip()


def tokenize_text(text: str) -> list[str]:
    """Lowercase, map punctuation to spaces, split on whitespace."""
    norm = normalize_text(text)
    return norm.split() if norm else []


def split_at_conjunction(tokens: list[str]) -> tuple[list[str], list[str]]:
    """Split at the first ``and``; the conjunction joins neither segment."""
    if not tokens:
        raise GrammarError("empty-text", "cannot split an empty token list")
    try:
        i = tokens.index("and")
    except ValueError:
        raise GrammarError("missing-conjunction",
                           f"no coordinating conjunction 'and' in {tokens}") from None
    before, after = tokens[:i], tokens[i + 1:]
    if not before or not after:
        raise GrammarError("empty-phrase",
                           f"conjunction at position {i} leaves an empty segment")
    return before, after


@dataclass(frozen=True)
class SubTask:
    """One validated atomic instruction."""

    text: str
    pick_phrase: str
    place_phrase: str
    pick_landmark: str
    place_landmark: str
    cloth_kind: Optional[str] = None

    def to_record(self) -> dict:
        return asdict(self)


def _landmark_tables() -> dict[str, dict[str, str]]:
    """kind -> normalized landmark phrase -> canonical landmark key."""
    tables = {}
    for kind, spec in _mesh._SHAPES["kinds"].items():
        tables[kind] = {normalize_text(name): name for name in spec["landmarks"]}
    return tables


_TABLES = _landmark_tables()
_KIND_BY_NORM = {normalize_text(k): k for k in _TABLES}


def landmark_names(kind: str) -> list[str]:
    if kind not in _TABLES:
        raise ValueError(f"unknown cloth kind {kind!r}")
    return sorted(_TABLES[kind].values())


def _strip_cloth_suffix(tokens: list[str]) -> tuple[list[str], Optional[str]]:
    """Remove a trailing 'of the <cloth>' and report the mentioned kind."""
    for n_kind in sorted(_KIND_BY_NORM, key=len, reverse=True):
        kt = n_kind.split()
        tail = ["of", "the"] + kt
        if len(tokens) > len(tail) and tokens[-len(tail):] == tail:
            return tokens[:-len(tail)], _KIND_BY_NORM[n_kind]
    return tokens, None


def _resolve_landmark(phrase_tokens: list[str], kind: Optional[str],
                      role: str, text: str) -> str:
    phrase = " ".join(phrase_tokens)
    if not phrase:
        raise GrammarError("empty-phrase", f"{role} phrase names no part in {text!r}", text)
    kinds = [kind] if kind else sorted(_TABLES)
    for k in kinds:
        if phrase in _TABLES[k]:
            return _TABLES[k][phrase]
    known = landmark_names(kind) if kind else sorted(
        {name for t in _TABLES.values() for name in t.values()})
    raise GrammarError(f"unresolvable-{role}",
                       f"{role} {phrase!r} is not a cloth part"
                       + (f" of {kind!r}" if kind else "") + f"; known: {known}",
                       text)


def validate_subtask(text: str, cloth_kind: Optional[str] = None) -> SubTask:
    """Parse one sentence, resolving both landmark references.

    When ``cloth_kind`` is omitted, an in-sentence mention ("of the Trousers")
    or, failing that, any kind's landmark table is used for resolution.
    """
    if not text or not text.strip():
        raise GrammarError("empty-text", "empty sub-task text", text)
    tokens = tokenize_text(text)
    pick_tokens, place_tokens = split_at_conjunction(tokens)

    if pick_tokens[0] != "grasp":
        raise GrammarError("bad-verb",
                           f"pick phrase must start with 'Grasp', got {pick_tokens[0]!r}", text)
    if len(pick_tokens) < 3 or pick_tokens[1] != "the":
        raise GrammarError("empty-phrase", f"malformed pick phrase in {text!r}", text)
    pick_part, pick_kind = _strip_cloth_suffix(pick_tokens[2:])

    if place_tokens[:2] != ["place", "it"]:
        raise GrammarError("bad-verb",
                           f"place phrase must start with 'place it' in {text!r}", text)
    if len(place_tokens) < 4:
        raise GrammarError("empty-phrase", f"malformed place phrase in {text!r}", text)
    prep = place_tokens[2]
    if prep not in PREPOSITIONS:
        raise GrammarError("bad-preposition",
                           f"preposition {prep!r} not in {PREPOSITIONS}", text)
    if place_tokens[3] != "the":
        raise GrammarError("empty-phrase", f"expected 'the' after {prep!r} in {text!r}", text)
    place_part, place_kind = _strip_cloth_suffix(place_tokens[4:])

    kind = cloth_kind or pick_kind or place_kind
    if kind is not None and kind not in _TABLES:
        raise ValueError(f"unknown cloth kind {kind!r}")
    pick_landmark = _resolve_landmark(pick_part, kind, "part", text)
    place_landmark = _resolve_landmark(place_part, kind, "target", text)

    m = re.search(r"\band\b", text, flags=re.IGNORECASE)
    pick_phrase = text[:m.start()].strip() if m else text
    place_phrase = text[m.end():].strip() if m else ""
    return SubTask(text=text.strip(), pick_phrase=pick_phrase, place_phrase=place_phrase,
                   pick_landmark=pick_landmark, place_landmark=place_landmark,
                   cloth_kind=kind)
