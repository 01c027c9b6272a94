"""Deterministic synthetic conversation corpus for desk-scale testing.

Each label owns a small keyword pool; the signal strength sets how often a
labeled turn actually draws from its pools instead of the shared filler
vocabulary. At signal 1.0 labels are keyword-separable; at 0.0 the corpus
carries no lexical signal at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import ASSISTANT, PARTICIPANT, Conversation, LabelCatalog, Turn

_KEYWORDS_PER_LABEL = 8
_KEYWORD_SLOTS = 3
_FILLER_VOCAB = 60


@dataclass(frozen=True)
class SynthSpec:
    n_labels: int = 6
    turns_per_label: int = 50
    signal: float = 1.0
    multi_label_rate: float = 0.2
    seed: int = 0
    turns_per_conversation: int = 25  # participant turns; assistants interleave

    def __post_init__(self):
        if self.n_labels < 2:
            raise ValueError("need at least 2 labels")
        if self.turns_per_label < 1:
            raise ValueError("turns_per_label must be >= 1")
        if not 0.0 <= self.signal <= 1.0:
            raise ValueError("signal must lie in [0, 1]")
        if not 0.0 <= self.multi_label_rate <= 1.0:
            raise ValueError("multi_label_rate must lie in [0, 1]")
        if self.turns_per_conversation < 1:
            raise ValueError("turns_per_conversation must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def label_names(self) -> list[str]:
        return [f"act{i}" for i in range(self.n_labels)]


def synth_catalog(spec: SynthSpec) -> LabelCatalog:
    return LabelCatalog(labels=tuple(spec.label_names), excluded=frozenset())


def _keyword_pool(label: str) -> list[str]:
    return [f"{label}kw{j}" for j in range(_KEYWORDS_PER_LABEL)]


def synth_corpus(spec: SynthSpec) -> list[Conversation]:
    """Generate labeled conversations; identical specs yield identical corpora."""
    rng = np.random.default_rng(spec.seed)
    labels = spec.label_names
    pools = {name: _keyword_pool(name) for name in labels}
    filler = [f"filler{j}" for j in range(_FILLER_VOCAB)]

    def words(n: int) -> list[str]:
        return [filler[int(rng.integers(0, len(filler)))] for _ in range(n)]

    # primary labels in blocks, optional second label, then one global shuffle
    assignments: list[frozenset[str]] = []
    for name in labels:
        for _ in range(spec.turns_per_label):
            chosen = {name}
            if spec.multi_label_rate > 0 and rng.random() < spec.multi_label_rate:
                others = [x for x in labels if x != name]
                chosen.add(others[int(rng.integers(0, len(others)))])
            assignments.append(frozenset(chosen))
    order = rng.permutation(len(assignments))
    assignments = [assignments[i] for i in order]

    conversations = []
    cursor = 0
    conv_no = 0
    while cursor < len(assignments):
        chunk = assignments[cursor : cursor + spec.turns_per_conversation]
        cursor += len(chunk)
        cid = f"conv{conv_no:03d}"
        conv_no += 1
        turns = []
        ts = 0.0
        for label_set in chunk:
            text_words = []
            for name in sorted(label_set):
                for _ in range(_KEYWORD_SLOTS):
                    if rng.random() < spec.signal:
                        pool = pools[name]
                        text_words.append(pool[int(rng.integers(0, len(pool)))])
                    else:
                        text_words.append(filler[int(rng.integers(0, len(filler)))])
            text_words.extend(words(int(rng.integers(4, 9))))
            ts += float(rng.uniform(2.0, 20.0))
            turns.append(
                Turn(cid, len(turns), PARTICIPANT, round(ts, 3), " ".join(text_words), label_set)
            )
            ts += float(rng.uniform(2.0, 20.0))
            turns.append(
                Turn(cid, len(turns), ASSISTANT, round(ts, 3),
                     " ".join(words(int(rng.integers(3, 8)))), frozenset())
            )
        conversations.append(Conversation(cid, turns))
    return conversations
