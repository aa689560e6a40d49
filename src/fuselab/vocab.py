"""Token/id maps with fixed reserved ids."""

from __future__ import annotations

PAD, SOS, EOS, UNK = 0, 1, 2, 3
RESERVED = ("<pad>", "<sos>", "<eos>", "<unk>")


class Vocabulary:
    """Bijective token<->id map over non-reserved tokens; ids 0..3 reserved."""

    def __init__(self, tokens: list[str]):
        self.id_to_token = list(RESERVED) + sorted(set(tokens) - set(RESERVED))
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: list[str]) -> list[int]:
        return [self.token_to_id.get(t, UNK) for t in tokens]

    @classmethod
    def from_corpus(cls, sentences) -> "Vocabulary":
        tokens: list[str] = []
        for s in sentences:
            tokens.extend(s)
        return cls(tokens)
