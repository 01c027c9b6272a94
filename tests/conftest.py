import json

import numpy as np
import pytest

from speechacts.corpus import Conversation, LabelCatalog, Turn


@pytest.fixture
def catalog_ab():
    return LabelCatalog(labels=("a", "b"), excluded=frozenset({"setup"}))


def make_turn(cid, idx, speaker, ts, text, labels=()):
    return Turn(cid, idx, speaker, float(ts), text, frozenset(labels))


def make_conversation(cid, rows):
    """rows: list of (speaker, ts, text, labels) tuples."""
    turns = [make_turn(cid, i, s, ts, text, labels) for i, (s, ts, text, labels) in enumerate(rows)]
    return Conversation(cid, turns)


def record_line(cid, idx, speaker, ts, text, labels=(), **extra):
    rec = {
        "conversation_id": cid,
        "turn_index": idx,
        "speaker": speaker,
        "timestamp_s": ts,
        "text": text,
        "labels": list(labels),
    }
    rec.update(extra)
    return json.dumps(rec)


class ZeroEveryOtherWeight:
    """A generator whose interpolation weights are 0.0 at every even draw."""

    def __init__(self, seed, default_rng=np.random.default_rng):
        self.rng = default_rng(seed)

    def integers(self, *args):
        return self.rng.integers(*args)

    def random(self, size):
        r = self.rng.random(size)
        r[::2] = 0.0
        return r
