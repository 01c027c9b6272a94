import pytest

from speechacts.corpus import modeling_examples, serialize_transcripts, validate
from speechacts.synth import SynthSpec, synth_catalog, synth_corpus


def test_same_seed_identical_output():
    spec = SynthSpec(n_labels=4, turns_per_label=10, signal=0.8, seed=3)
    assert serialize_transcripts(synth_corpus(spec)) == serialize_transcripts(synth_corpus(spec))


def test_different_seed_differs():
    a = SynthSpec(n_labels=4, turns_per_label=10, seed=3)
    b = SynthSpec(n_labels=4, turns_per_label=10, seed=4)
    assert serialize_transcripts(synth_corpus(a)) != serialize_transcripts(synth_corpus(b))


def test_corpus_is_valid_and_sized():
    spec = SynthSpec(n_labels=3, turns_per_label=20, seed=0)
    conversations = synth_corpus(spec)
    assert validate(conversations).ok
    catalog = synth_catalog(spec)
    examples = modeling_examples(conversations, catalog)
    assert len(examples) == 60  # one modeling example per labeled participant turn
    for name in catalog.labels:
        assert sum(1 for ex in examples if name in ex.labels) >= 20


def test_signal_zero_has_no_keywords():
    spec = SynthSpec(n_labels=2, turns_per_label=10, signal=0.0, seed=1)
    for conv in synth_corpus(spec):
        for turn in conv.turns:
            assert "kw" not in turn.text


def test_multi_label_rate_zero_single_labels():
    spec = SynthSpec(n_labels=3, turns_per_label=10, multi_label_rate=0.0, seed=2)
    for conv in synth_corpus(spec):
        for turn in conv.turns:
            if turn.speaker == "participant":
                assert len(turn.labels) == 1


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(n_labels=1)
    with pytest.raises(ValueError):
        SynthSpec(signal=1.5)
    with pytest.raises(ValueError):
        SynthSpec(multi_label_rate=-0.1)
    with pytest.raises(ValueError):
        SynthSpec(turns_per_label=0)
    with pytest.raises(ValueError, match="seed"):
        SynthSpec(seed=-1)
