import json

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
