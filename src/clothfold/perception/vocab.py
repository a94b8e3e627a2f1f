"""Fixed word-level vocabulary and tokenizer for sub-task sentences."""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from ..planner.grammar import tokenize_text


class TokenizeError(ValueError):
    pass


@dataclass(frozen=True)
class Vocabulary:
    word_to_id: dict
    unk_token: str = "<unk>"

    @property
    def unk_id(self) -> int:
        return self.word_to_id[self.unk_token]

    def __len__(self) -> int:
        return len(self.word_to_id)

    def encode(self, words: list[str]) -> list[int]:
        unk = self.unk_id
        return [self.word_to_id.get(w, unk) for w in words]


_DEFAULT: Vocabulary | None = None


def default_vocabulary() -> Vocabulary:
    global _DEFAULT
    if _DEFAULT is None:
        raw = json.loads(resources.files("clothfold.assets")
                         .joinpath("vocab.json").read_text())
        _DEFAULT = Vocabulary(word_to_id=raw["words"], unk_token=raw["unk"])
    return _DEFAULT


def tokenize(text: str, vocab: Vocabulary | None = None,
             max_len: int | None = None) -> list[int]:
    """Lowercase, strip punctuation, split, map through the vocabulary.

    Unknown words map to the UNK id. Raises on empty text or when the token
    count exceeds ``max_len``.
    """
    vocab = vocab or default_vocabulary()
    words = tokenize_text(text)
    if not words:
        raise TokenizeError(f"no tokens in text {text!r}")
    if max_len is not None and len(words) > max_len:
        raise TokenizeError(f"{len(words)} tokens exceed the limit of {max_len} "
                            f"(model.max_text_len) in {text!r}")
    return vocab.encode(words)
