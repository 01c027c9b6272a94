"""Seeded input generators for the two benchmark workloads.

Every workload writes a training transcript file, a request transcript file
for batch ``predict`` and a serve request stream built from the request
conversations.

The training corpus of a workload is fixed: it comes from the workload's own
seed (``CORPUS_SEED``), as does the fold seed. ``--seed`` draws the request
conversations that ``predict`` and ``serve`` see. A fixed corpus keeps the
work of ``evaluate``, ``train --tune`` and ``train`` the same from run to run,
so their times measure the code and not the draw: stratification time alone
ranges from 0.6 s to 20 s over corpora and fold seeds of the same size and
shape (1,200 synth examples), and at a few hundred examples the CV scores
move by several percent between draws. It also makes the CV rows and the
model file comparable, byte for byte, between commits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("study", "narrow")

# the bundled catalog; the study corpus uses it as is
CATALOG = (
    "apianswer", "apiquestion", "clarificationanswer", "clarificationquestion",
    "confirmation", "documentationanswer", "implementationquestion",
    "implementationstatement", "introduction", "statement", "systemquestion",
)
# skewed label frequencies. The repository README knows two counts of the
# study corpus, clarificationquestion 204 and apiquestion 94, and these two
# weights keep about that ratio; the other nine are made up.
LABEL_WEIGHTS = (7, 9, 8, 20, 9, 4, 6, 8, 2, 18, 5)
# second labels of multi-label turns: plausible co-occurrences
SECOND_LABEL = {
    "apianswer": "documentationanswer", "apiquestion": "clarificationquestion",
    "clarificationanswer": "statement", "clarificationquestion": "apiquestion",
    "confirmation": "statement", "documentationanswer": "apianswer",
    "implementationquestion": "systemquestion", "implementationstatement": "statement",
    "introduction": "statement", "statement": "implementationstatement",
    "systemquestion": "implementationquestion",
}
QUESTIONS = {"apiquestion", "clarificationquestion", "implementationquestion", "systemquestion"}

CORPUS_SEED = {"study": 11, "narrow": 1}
FOLD_SEED = {"study": 0, "narrow": 4}

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


def pseudo_word(rank: int) -> str:
    """A distinct lowercase token per rank; a few carry digits, like 'v2'."""
    word = _SYLLABLES[rank % 70] + _SYLLABLES[(rank // 70) % 70]
    if rank >= 4900:
        word += _SYLLABLES[rank // 4900 % 70]
    if rank % 37 == 5:
        word += str(rank % 10)
    return word


# the make-up of every study-style turn
VOCAB_SIZE = 2000  # pseudo-words in the Zipf background draw
ZIPF_S = 1.07
CUES_PER_LABEL = 5  # cue words per label, drawn from ranks 40..1499
CUE_SLOTS = 2  # chances per label for a cue word to appear in a turn
CUE_SIGNAL = 0.75  # probability that a cue slot fires
MULTI_LABEL_RATE = 0.17
UNLABELED_RATE = 0.06
SETUP_RATE = 0.04  # turns labeled only with the excluded "setup"


@dataclass(frozen=True)
class StudyShape:
    """Conversations and participant turns per conversation."""

    conversations: int
    turns_min: int
    turns_max: int


STUDY_TRAIN = StudyShape(conversations=7, turns_min=36, turns_max=52)
# the long-session stress shape: about 1,500 lines each, so that the
# per-turn context path and serve carry long histories
STUDY_SESSIONS = StudyShape(conversations=24, turns_min=740, turns_max=760)
NARROW_TURNS_PER_LABEL = 200
# narrow's batch-predict requests: 9,000 participant turns in 360
# conversations, so that one predict pass takes a couple of seconds
NARROW_REQUEST_TURNS_PER_LABEL = 1500
# added to --seed for the narrow request corpus, which keeps it apart from
# the training corpus (seed 1)
NARROW_REQUEST_SEED_BASE = 1_000_000


def _turn_record(cid, index, speaker, ts, text, labels):
    return {"conversation_id": cid, "turn_index": index, "speaker": speaker,
            "timestamp_s": ts, "text": text, "labels": sorted(labels)}


def study_skeleton(shape: StudyShape, seed: int) -> list[list[tuple[str, frozenset]]]:
    """Per conversation, the sequence of (speaker, label set) turns."""
    rng = np.random.default_rng(seed)
    p = np.asarray(LABEL_WEIGHTS, dtype=float)
    p /= p.sum()
    skeleton = []
    for _ in range(shape.conversations):
        turns = []
        for _ in range(int(rng.integers(shape.turns_min, shape.turns_max + 1))):
            u = rng.random()
            if u < UNLABELED_RATE:
                labels = frozenset()
            elif u < UNLABELED_RATE + SETUP_RATE:
                labels = frozenset({"setup"})
            else:
                first = CATALOG[int(rng.choice(len(CATALOG), p=p))]
                labels = {first}
                if rng.random() < MULTI_LABEL_RATE:
                    labels.add(SECOND_LABEL[first])
                labels = frozenset(labels)
            turns.append(("participant", labels))
            for _ in range(int(rng.choice(3, p=(0.15, 0.7, 0.15)))):
                turns.append(("assistant", frozenset()))
        skeleton.append(turns)
    return skeleton


class StudyText:
    """Zipf background words plus per-label cue words, drawn from one rng.

    The cue words are the same in every corpus and request stream: they come
    from the study training corpus's seed.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        ranks = np.arange(1, VOCAB_SIZE + 1, dtype=float)
        p = ranks ** -ZIPF_S
        self.cdf = np.cumsum(p / p.sum())
        cue_rng = np.random.default_rng(CORPUS_SEED["study"])
        self.cues = {
            name: [pseudo_word(int(r)) for r in
                   cue_rng.choice(np.arange(40, 1500), CUES_PER_LABEL, replace=False)]
            for name in CATALOG
        }

    def background(self, n: int) -> list[str]:
        ranks = np.searchsorted(self.cdf, self.rng.random(n))
        return [pseudo_word(int(r)) for r in np.minimum(ranks, VOCAB_SIZE - 1)]

    def text(self, labels: frozenset) -> str:
        words = self.background(int(self.rng.integers(3, 15)))
        for name in sorted(labels & set(CATALOG)):
            for _ in range(CUE_SLOTS):
                if self.rng.random() < CUE_SIGNAL:
                    cue = self.cues[name][int(self.rng.integers(0, len(self.cues[name])))]
                    words.insert(int(self.rng.integers(0, len(words) + 1)), cue)
        sentence = " ".join(words)
        end = "?" if labels & QUESTIONS else "."
        return sentence[:1].upper() + sentence[1:] + end


def study_records(skeleton, text: StudyText, prefix: str, keep_labels: bool = True) -> list[dict]:
    rng = text.rng
    records = []
    for c, turns in enumerate(skeleton):
        cid = f"{prefix}{c:04d}"
        ts = 0.0
        for index, (speaker, labels) in enumerate(turns):
            if index:
                ts += float(rng.exponential(18.0)) + 0.5
            records.append(_turn_record(cid, index, speaker, round(ts, 3), text.text(labels),
                                        labels if keep_labels else ()))
    return records


def synth_records(turns_per_label: int, seed: int, keep_labels: bool = True) -> list[dict]:
    """``synth_corpus(SynthSpec(n_labels=6, signal=0.6, ...))`` as records."""
    from speechacts.synth import SynthSpec, synth_corpus

    spec = SynthSpec(n_labels=6, signal=0.6, seed=seed, turns_per_label=turns_per_label)
    return [_turn_record(t.conversation_id, t.turn_index, t.speaker, t.timestamp_s, t.text,
                         t.labels if keep_labels else ())
            for conv in synth_corpus(spec) for t in conv.turns]


@dataclass
class Workload:
    """Paths and records of one generated workload."""

    corpus: Path  # training transcripts
    tune_corpus: Path  # the leading turns holding the first TUNE_SLICE examples
    requests: Path  # batch predict transcripts
    catalog: Path | None  # None: the bundled catalog
    labels: tuple[str, ...]
    fold_seed: int
    corpus_records: list[dict]
    request_records: list[dict]
    serve_conversations: list[list[dict]]  # the serve stream's source, in order


TUNE_SLICE = 16


def write_jsonl(path: Path, records: list[dict]) -> None:
    path.write_text("".join(json.dumps(r, ensure_ascii=True) + "\n" for r in records),
                    encoding="utf-8")


def by_conversation(records: list[dict]) -> list[list[dict]]:
    grouped: dict[str, list[dict]] = {}
    for rec in records:
        grouped.setdefault(rec["conversation_id"], []).append(rec)
    return list(grouped.values())


def leading_examples(records: list[dict], labels, count: int) -> list[dict]:
    """The shortest prefix of ``records`` holding ``count`` modeling examples."""
    wanted = set(labels)
    taken = 0
    for end, rec in enumerate(records):
        if rec["speaker"] == "participant" and wanted & set(rec["labels"]):
            taken += 1
            if taken == count:
                return records[: end + 1]
    raise ValueError(f"corpus holds fewer than {count} modeling examples")


def make_inputs(workload: str, seed: int, out: Path) -> Workload:
    """Write the workload's transcripts under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    catalog = None
    labels = CATALOG
    if workload == "study":
        fixed = CORPUS_SEED["study"]
        corpus = study_records(study_skeleton(STUDY_TRAIN, fixed),
                               StudyText(np.random.default_rng(fixed)), "study")
        text = StudyText(np.random.default_rng([seed, 0]))
        serve = by_conversation(study_records(study_skeleton(STUDY_SESSIONS, seed), text,
                                              "long", keep_labels=False))
        requests = serve[0]  # batch predict: one session's conversation, as long as the rest
    elif workload == "narrow":
        # ROADMAP's reference corpus; the requests come from the same
        # generator under a seed drawn from --seed, with their labels dropped
        corpus = synth_records(NARROW_TURNS_PER_LABEL, CORPUS_SEED["narrow"])
        requests = synth_records(NARROW_REQUEST_TURNS_PER_LABEL,
                                 NARROW_REQUEST_SEED_BASE + seed, keep_labels=False)
        serve = by_conversation(requests)
        labels = tuple(f"act{i}" for i in range(6))
        catalog = out / "catalog.json"
        catalog.write_text(json.dumps({"labels": list(labels), "excluded": []}) + "\n",
                           encoding="utf-8")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    paths = {name: out / f"{name}.jsonl" for name in ("corpus", "tune_corpus", "requests")}
    write_jsonl(paths["corpus"], corpus)
    write_jsonl(paths["tune_corpus"], leading_examples(corpus, labels, TUNE_SLICE))
    write_jsonl(paths["requests"], requests)
    return Workload(paths["corpus"], paths["tune_corpus"], paths["requests"], catalog, labels,
                    FOLD_SEED[workload], corpus, requests, serve)
