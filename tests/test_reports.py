import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speechacts.classifier import Prediction
from speechacts.corpus import Conversation, Turn, encode_record
from speechacts.reports import predict_lines, prediction_json


def prediction_record(prediction):
    """The per-turn answer as a dict, the form ``predict`` and ``serve``
    once built and encoded; the writer's text is held to its encoding."""
    if prediction is None:
        return {"labels": [], "probabilities": {}, "low_confidence": False}
    return {
        "labels": sorted(prediction.labels),
        "probabilities": dict(prediction.probabilities),
        "low_confidence": prediction.low_confidence,
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
def predictions(draw, names=NAMES):
    catalog = draw(st.lists(names, unique=True, max_size=8))
    probabilities = {name: draw(PROBABILITIES) for name in catalog}
    labels = frozenset(draw(st.sets(st.sampled_from(catalog)))) if catalog else frozenset()
    if catalog and draw(st.booleans()):
        labels = frozenset(catalog)  # the full label set
    return Prediction(probabilities, labels, draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(prediction=st.none() | predictions())
@example(prediction=None)
@example(prediction=Prediction({}, frozenset(), True))
@example(prediction=Prediction({"b": 5e-324, "a": 1.0, "c": 0.30000000000000004},
                               frozenset({"c", "a", "b"}), False))
def test_writer_is_the_encoder_byte_for_byte(prediction):
    assert prediction_json(prediction) == encode_record(prediction_record(prediction))


@settings(max_examples=100, deadline=None)
@given(cid=ODD_TEXT, start=st.integers(0, 10**40), data=st.data())
@example(cid='"\\\x01é\U0001F600', start=2**63, data=None)
def test_predict_line_is_the_encoded_record(cid, start, data):
    speakers = ["participant", "assistant", "participant"]
    chosen = [data.draw(st.none() | predictions()) if data else None for _ in speakers]
    turns = [Turn(cid, start + i, speaker, 0.0, "") for i, speaker in enumerate(speakers)]
    lines = predict_lines(Conversation(cid, turns), chosen)
    assert lines == [encode_record({"conversation_id": cid, "turn_index": turn.turn_index,
                                    "speaker": turn.speaker, **prediction_record(prediction)})
                     for turn, prediction in zip(turns, chosen)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("others", [[], [0.5], [1e308, 1e308]])
def test_non_finite_probability_raises_as_the_encoder(bad, others):
    probabilities = {f"l{i}": p for i, p in enumerate(others + [bad])}
    prediction = Prediction(probabilities, frozenset(), True)
    with pytest.raises(ValueError) as expected:
        encode_record(prediction_record(prediction))
    with pytest.raises(ValueError) as got:
        prediction_json(prediction)
    assert str(got.value) == str(expected.value)


def test_finite_probabilities_whose_sum_overflows_are_written():
    prediction = Prediction({"a": 1.7e308, "b": 1.7e308}, frozenset({"a"}), False)
    assert prediction_json(prediction) == encode_record(prediction_record(prediction))
