import json

import pytest

from speechacts.classifier import predict_rows
from speechacts.corpus import PARTICIPANT, Conversation, LabelCatalog, Turn
from speechacts.featurize import conversation_context, turn_row


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


def batch_predictions(model, conversation, fallback=False):
    """Each turn's prediction as ``predict`` makes it: one context run over the
    conversation and one scoring call for its participant turns; None for
    every other turn."""
    contexts = conversation_context(conversation, model.config.slen_scope)
    rows = [turn_row(tokens, shallow, model.vocabulary, model.scaling)
            for turn, (tokens, shallow) in zip(conversation.turns, contexts)
            if turn.speaker == PARTICIPANT]
    predictions = iter(predict_rows(model, [ids for ids, _ in rows],
                                    [scaled for _, scaled in rows], fallback))
    return [next(predictions) if turn.speaker == PARTICIPANT else None
            for turn in conversation.turns]
