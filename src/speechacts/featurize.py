"""Turn text and context into feature rows.

Each modeling example becomes a binary bag of words over a vocabulary fixed
on training data, plus three shallow context features:

* ``slen``: word count of the turn divided by the mean word count of the
  speaker's previous turns in the conversation (1.0 when there is no such
  history, the raw word count when that mean is 0),
* ``wc``: raw word count,
* ``ppau``: seconds since the immediately preceding turn of any speaker
  (0.0 for a conversation's first turn).

Shallow features are z-scored with training-set statistics before they meet
the classifier; word columns stay 0/1.

Context comes from one running ``ContextState`` per conversation, which
``predict``, training, cross-validation and serve sessions all advance turn
by turn, so each turn is tokenized once and costs O(1) whatever precedes it.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import Conversation, ModelingExample

SAME_SPEAKER = "same"
ANY_SPEAKER = "any"
SLEN_SCOPES = (SAME_SPEAKER, ANY_SPEAKER)

SHALLOW_NAMES = ("slen_sf", "wc_sf", "ppau_sf")
N_SHALLOW = 3

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on every non-alphanumeric character.

    No stemming, no stop-word removal; duplicates keep their order.
    """
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Vocabulary:
    """Token -> dense column index map, in first-occurrence order."""

    tokens: dict[str, int]

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.tokens

    @property
    def token_list(self) -> list[str]:
        """Tokens in column order."""
        ordered = [""] * len(self.tokens)
        for tok, idx in self.tokens.items():
            ordered[idx] = tok
        return ordered

    @staticmethod
    def from_tokens(ordered: Sequence[str]) -> "Vocabulary":
        return Vocabulary({tok: i for i, tok in enumerate(ordered)})


@dataclass(frozen=True)
class ShallowFeatures:
    slen: float
    wc: int
    ppau: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.slen, float(self.wc), self.ppau)


@dataclass
class ContextState:
    """Running context of one conversation, constant in size.

    Holds what the causal shallow features of the next turn need: word-count
    sums and turn counts per speaker and in total, and the last timestamp.
    The sums are ints, so ``words / turns`` is exactly the mean of the prior
    word counts. Batch featurization and serve sessions both advance one.
    """

    scope: str = SAME_SPEAKER
    speaker_words: dict[str, int] = field(default_factory=dict)
    speaker_turns: dict[str, int] = field(default_factory=dict)
    total_words: int = 0
    total_turns: int = 0
    last_ts: float | None = None

    def __post_init__(self):
        if self.scope not in SLEN_SCOPES:
            raise ValueError(f"slen scope must be one of {SLEN_SCOPES}, got {self.scope!r}")

    def observe(self, speaker: str, timestamp_s: float, wc: int) -> ShallowFeatures:
        """Shallow features of this turn from the turns before it, then add it."""
        ppau = timestamp_s - self.last_ts if self.last_ts is not None else 0.0
        if self.scope == ANY_SPEAKER:
            words, turns = self.total_words, self.total_turns
        else:
            words = self.speaker_words.get(speaker, 0)
            turns = self.speaker_turns.get(speaker, 0)
        if not turns:
            slen = 1.0
        else:
            mean_wc = words / turns
            slen = wc / mean_wc if mean_wc > 0 else float(wc)
        self.speaker_words[speaker] = self.speaker_words.get(speaker, 0) + wc
        self.speaker_turns[speaker] = self.speaker_turns.get(speaker, 0) + 1
        self.total_words += wc
        self.total_turns += 1
        self.last_ts = timestamp_s
        return ShallowFeatures(slen=slen, wc=wc, ppau=ppau)


def conversation_context(
    conversation: Conversation, scope: str = SAME_SPEAKER
) -> Iterator[tuple[list[str], ShallowFeatures]]:
    """(tokens, shallow features) of each turn, in turn order.

    Tokenizes every turn once and carries the context forward, so T turns
    cost O(T). Stopping early skips the later turns.
    """
    state = ContextState(scope)  # rejects an unknown scope here, not at the first turn
    return _advance(conversation.turns, state)


def _advance(turns, state: ContextState) -> Iterator[tuple[list[str], ShallowFeatures]]:
    for turn in turns:
        tokens = tokenize(turn.text)
        yield tokens, state.observe(turn.speaker, turn.timestamp_s, len(tokens))


def example_contexts(
    examples: Sequence[ModelingExample], scope: str
) -> list[tuple[list[str], ShallowFeatures]]:
    """(tokens, shallow features) per example.

    Each conversation's context runs once, up to the last turn any of the
    examples needs.
    """
    last_needed: dict[int, tuple[Conversation, int]] = {}
    for ex in examples:
        _, last = last_needed.get(id(ex.conversation), (None, -1))
        last_needed[id(ex.conversation)] = (ex.conversation, max(last, ex.turn_index))
    contexts = {
        key: list(itertools.islice(conversation_context(conv, scope), last + 1))
        for key, (conv, last) in last_needed.items()
    }
    return [contexts[id(ex.conversation)][ex.turn_index] for ex in examples]


@dataclass(frozen=True)
class ScalingParams:
    """Training-set mean and population standard deviation per shallow feature."""

    means: tuple[float, float, float]
    stds: tuple[float, float, float]

    def scale(self, shallow: ShallowFeatures) -> tuple[float, float, float]:
        # (v - m) / s per feature, or 0.0 where s is not positive; written out,
        # since every scored turn and matrix row calls it
        (m0, m1, m2), (s0, s1, s2) = self.means, self.stds
        return ((shallow.slen - m0) / s0 if s0 > 0 else 0.0,
                (float(shallow.wc) - m1) / s1 if s1 > 0 else 0.0,
                (shallow.ppau - m2) / s2 if s2 > 0 else 0.0)


def fit_scaling(features: Sequence[ShallowFeatures]) -> ScalingParams:
    """Mean and population std over training shallow features (never test ones).

    A feature whose mean or std is not a finite float (timestamps near the
    float limit, say) is a ValueError naming it.
    """
    if not features:
        raise ValueError("cannot fit scaling on an empty training set")
    cols = list(zip(*(f.as_tuple() for f in features)))
    means = tuple(sum(c) / len(c) for c in cols)
    stds = []
    for name, c, m in zip(SHALLOW_NAMES, cols, means):
        try:
            std = math.sqrt(sum((v - m) ** 2 for v in c) / len(c))
        except OverflowError:  # a float ** 2 past the float limit raises
            std = math.inf
        if not (math.isfinite(m) and math.isfinite(std)):
            raise ValueError(f"cannot scale shallow feature {name}: its training mean or "
                             "standard deviation is not finite")
        stds.append(std)
    return ScalingParams(means=means, stds=tuple(stds))


def turn_row(
    tokens: Iterable[str],
    shallow: ShallowFeatures,
    vocabulary: Vocabulary,
    scaling: ScalingParams,
) -> tuple[list[int], tuple[float, float, float]]:
    """A turn as the classifier scores it: the ascending column ids of its
    distinct in-vocabulary tokens, and its scaled shallow features."""
    columns = vocabulary.tokens
    return sorted({columns[tok] for tok in tokens if tok in columns}), scaling.scale(shallow)


def fit_from_contexts(
    contexts: Sequence[tuple[list[str], ShallowFeatures]]
) -> tuple[Vocabulary, ScalingParams]:
    """Vocabulary and scaling from the training split's :func:`example_contexts`.

    The vocabulary has one column per distinct token, in first-occurrence
    order. Must only ever see training-fold turns; test tokens never enlarge
    the vocabulary.
    """
    tokens = dict.fromkeys(itertools.chain.from_iterable(tokens for tokens, _ in contexts))
    return Vocabulary.from_tokens(list(tokens)), fit_scaling([shallow for _, shallow in contexts])


def matrix_from_contexts(
    contexts: Sequence[tuple[list[str], ShallowFeatures]],
    vocabulary: Vocabulary,
    scaling: ScalingParams,
) -> np.ndarray:
    """Dense design matrix of the examples whose :func:`example_contexts` these
    are: |vocabulary| word indicators then 3 scaled shallow features."""
    width = len(vocabulary) + N_SHALLOW
    X = np.zeros((len(contexts), width), dtype=np.float64)
    rows = [turn_row(tokens, shallow, vocabulary, scaling) for tokens, shallow in contexts]
    counts = [len(ids) for ids, _ in rows]
    words = itertools.chain.from_iterable(ids for ids, _ in rows)
    X[np.repeat(np.arange(len(rows)), counts), np.fromiter(words, np.intp, sum(counts))] = 1.0
    X[:, len(vocabulary):] = np.reshape([scaled for _, scaled in rows], (-1, N_SHALLOW))
    return X


def feature_names(vocabulary: Vocabulary) -> list[str]:
    """Column names for the dense layout: vocabulary tokens then *_sf."""
    return vocabulary.token_list + list(SHALLOW_NAMES)
