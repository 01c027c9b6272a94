import collections
import json
import math
from json.encoder import encode_basestring_ascii as _json_str
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speechacts import serve
from speechacts.classifier import MultiLabelModel, label_positions
from speechacts.config import RunConfig
from speechacts.corpus import Conversation, LabelCatalog, Turn, encode_record
from speechacts.featurize import ScalingParams, Vocabulary
from speechacts.reports import AnswerText, answer_json, predict_lines
from speechacts.serve import ServeEngine


def answer_record(names, row, chosen, low_confidence):
    """The per-turn answer as a dict, the form ``predict`` and ``serve``
    once built and encoded; the writer's text is held to its encoding."""
    return {
        "labels": sorted(names[j] for j in chosen),
        "probabilities": dict(zip(names, row)),
        "low_confidence": low_confidence,
    }


# ids that JSON must escape: quotes, backslashes, control characters,
# non-ASCII and astral characters (written as surrogate pairs)
ODD_TEXT = st.text(alphabet=st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "é",
                                             "\u2028", "\ud800", "\U0001F600", "a", " "])
                   | st.characters(), min_size=1)
PROBABILITIES = st.sampled_from([0.0, 1.0, 5e-324, 0.1 + 0.2, 1 / 3, 0.9999999999999999,
                                 2.2250738585072014e-308]) | st.floats(0.0, 1.0)
NAMES = st.from_regex(r"[a-z][a-z0-9]{0,6}", fullmatch=True) | ODD_TEXT


@st.composite
def answers(draw, names=NAMES):
    """A catalog, a probability row over it, chosen positions in label-name
    order (none, some or all) and a low-confidence flag."""
    catalog = tuple(draw(st.lists(names, unique=True, max_size=8)))
    row = [draw(PROBABILITIES) for _ in catalog]
    chosen = draw(st.sets(st.sampled_from(range(len(catalog))))) if catalog else set()
    if catalog and draw(st.booleans()):
        chosen = set(range(len(catalog)))  # the full label set
    chosen = sorted(chosen, key=catalog.__getitem__)
    return catalog, row, chosen, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(answer=answers())
@example(answer=((), [], [], True))
@example(answer=(("b", "a", "c"), [5e-324, 1.0, 0.30000000000000004], [1, 0, 2], False))
def test_writer_is_the_encoder_byte_for_byte(answer):
    names, row, chosen, low_confidence = answer
    assert (answer_json(AnswerText(names), row, chosen, low_confidence)
            == encode_record(answer_record(*answer)))


@settings(max_examples=100, deadline=None)
@given(cid=ODD_TEXT, start=st.integers(0, 10**40), data=st.data())
@example(cid='"\\\x01é\U0001F600', start=2**63, data=None)
def test_predict_line_is_the_encoded_record(cid, start, data):
    speakers = ["participant", "assistant", "participant"]
    model, row = data.draw(scored_turns()) if data else (rule_model(["b", "a"], 0.5, False),
                                                         [0.75, 1.0])
    rows = [row, None, data.draw(st.permutations(row)) if data else row]
    turns = [Turn(cid, start + i, speaker, 0.0, "") for i, speaker in enumerate(speakers)]
    lines = predict_lines(model, AnswerText(model.catalog.labels), Conversation(cid, turns), rows)
    expected = []
    for turn, probs in zip(turns, rows):
        answer = {"labels": [], "probabilities": {}, "low_confidence": False}
        if probs is not None:
            answer = answer_record(model.catalog.labels, probs, *label_positions(model, probs))
        expected.append(encode_record({"conversation_id": cid, "turn_index": turn.turn_index,
                                       "speaker": turn.speaker, **answer}))
    assert lines == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("others", [[], [0.5], [1e308, 1e308]])
def test_non_finite_probability_raises_as_the_encoder(bad, others):
    names, row = tuple(f"l{i}" for i in range(len(others) + 1)), others + [bad]
    with pytest.raises(ValueError) as expected:
        encode_record(answer_record(names, row, [], True))
    with pytest.raises(ValueError) as got:
        answer_json(AnswerText(names), row, [], True)
    assert str(got.value) == str(expected.value)


def test_finite_probabilities_whose_sum_overflows_are_written():
    answer = (("a", "b"), [1.7e308, 1.7e308], [0], False)
    assert answer_json(AnswerText(answer[0]), *answer[1:]) == encode_record(answer_record(*answer))


# The labelling rule and the writer as they were before predict and serve
# answered from the probability row: a Prediction built from a dict, and
# written from it.

Prediction = collections.namedtuple("Prediction", "probabilities labels low_confidence")


def reference_prediction(model, probs):
    chosen = frozenset(name for name, p in probs.items() if p >= model.config.threshold)
    if chosen or not model.config.fallback:
        return Prediction(probs, chosen, low_confidence=not chosen)
    best = max(model.catalog.labels, key=lambda name: probs[name])
    return Prediction(probs, frozenset({best}), low_confidence=True)


def reference_prediction_json(prediction, head="{"):
    if prediction is None:
        return head + '"labels": [], "probabilities": {}, "low_confidence": false}'
    probs = prediction.probabilities
    total = sum(probs.values())
    if total - total != 0.0:
        encode_record(probs)
    labels = ", ".join(map(_json_str, sorted(prediction.labels)))
    members = ", ".join([f"{_json_str(name)}: {float.__repr__(p)}" for name, p in probs.items()])
    flag = "true" if prediction.low_confidence else "false"
    return f'{head}"labels": [{labels}], "probabilities": {{{members}}}, "low_confidence": {flag}}}'


def rule_model(names, threshold, fallback):
    """A model whose catalog and labelling rule are these, with no
    classifiers: its rows come from the test, not from scoring."""
    return MultiLabelModel(classifiers={}, vocabulary=Vocabulary.from_tokens([]),
                           scaling=ScalingParams((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
                           catalog=LabelCatalog(tuple(names)),
                           config=RunConfig(threshold=threshold, fallback=fallback))


TURN = json.dumps({"conversation_id": "c", "speaker": "participant", "timestamp_s": 1.0,
                   "text": "a turn"})


def served(model, row):
    """The reply serve writes for a participant turn whose probabilities are
    row, and whether the turn left its session table empty."""
    engine = ServeEngine(model)
    with mock.patch.object(serve, "score_rows", lambda _, rows: [list(row)]):
        reply = engine.handle_line(TURN)
    return reply, not engine._sessions


@st.composite
def scored_turns(draw):
    """A rule model and one probability row for its catalog: values at 0.0,
    1.0, the threshold and its neighbours, the least subnormal and 17-digit
    decimals; sometimes all under the threshold, sometimes tied for the
    maximum, and sometimes with skipped labels' 0.0."""
    # catalogs of 1 to 11 labels, whose name order is seldom their order
    names = draw(st.lists(st.from_regex(r"[a-z][a-z0-9]{0,2}", fullmatch=True), unique=True,
                          min_size=1, max_size=11))
    threshold = draw(st.sampled_from([0.5, 1 / 3, 5e-324, 0.9999999999999999])
                     | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    below, above = math.nextafter(threshold, 0.0), math.nextafter(threshold, 1.0)
    value = st.sampled_from([0.0, 1.0, threshold, below, above, 5e-324, 0.30000000000000004,
                             0.12345678901234568, 0.9999999999999999]) | st.floats(0.0, 1.0)
    row = [draw(value) for _ in names]
    positions = st.sampled_from(range(len(names)))
    if draw(st.booleans()):  # nothing reaches the threshold
        row = [min(p, below) for p in row]
    if draw(st.booleans()):  # several labels share the maximum
        for j in draw(st.sets(positions, min_size=2 if len(names) > 1 else 1)):
            row[j] = max(row)
    for j in draw(st.sets(positions)):  # skipped labels
        row[j] = 0.0
    return rule_model(names, threshold, draw(st.booleans())), row


HEADS = st.sampled_from(["{", '{"conversation_id": "c%s", "turn_index": 7, '
                              '"speaker": "participant", '])


@settings(max_examples=300, deadline=None)
@given(turn=scored_turns(), head=HEADS)
@example(turn=(rule_model(["b", "a", "c"], 0.5, True), [0.25, 0.25, 0.125]), head="{")
@example(turn=(rule_model(["zz", "b", "a1"], 0.5, False), [0.5, 0.75, 1.0]), head="{")
def test_rule_and_writer_answer_as_the_reference(turn, head):
    model, row = turn
    names = model.catalog.labels
    expected = reference_prediction(model, dict(zip(names, row)))
    text = reference_prediction_json(expected, head)
    chosen, low_confidence = label_positions(model, row)
    assert [names[j] for j in chosen] == sorted(expected.labels)
    assert low_confidence == expected.low_confidence
    assert answer_json(AnswerText(names), row, chosen, low_confidence, head) == text
    if head == "{":
        assert served(model, row) == (text, False)
    else:  # predict's record of the same turn
        turn = Turn("c%s", 7, "participant", 0.0, "")
        assert predict_lines(model, AnswerText(names), Conversation("c%s", [turn]), [row]) == [text]


@settings(max_examples=100, deadline=None)
@given(turn=scored_turns(), bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       data=st.data())
def test_non_finite_row_raises_as_the_encoder_and_serve_refuses_it(turn, bad, data):
    model, row = turn
    row[data.draw(st.sampled_from(range(len(row))))] = bad
    with pytest.raises(ValueError) as expected:
        reference_prediction_json(reference_prediction(model, dict(zip(model.catalog.labels, row))))
    with pytest.raises(ValueError) as got:
        answer_json(AnswerText(model.catalog.labels), row, *label_positions(model, row))
    assert str(got.value) == str(expected.value)
    with pytest.raises(ValueError) as got:
        conversation = Conversation("c", [Turn("c", 0, "participant", 0.0, "")])
        predict_lines(model, AnswerText(model.catalog.labels), conversation, [row])
    assert str(got.value) == str(expected.value)
    assert served(model, row) == (serve._NOT_FINITE, True)

