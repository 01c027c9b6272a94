import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speechacts.corpus import (
    SPEAKERS,
    Conversation,
    LabelCatalog,
    ModelingExample,
    Turn,
    modeling_examples,
)
from speechacts.featurize import (
    ANY_SPEAKER,
    N_SHALLOW,
    SAME_SPEAKER,
    SLEN_SCOPES,
    ContextState,
    ScalingParams,
    Vocabulary,
    conversation_context,
    example_contexts,
    feature_names,
    fit_from_contexts,
    fit_scaling,
    matrix_from_contexts,
    tokenize,
    turn_row,
)

from conftest import make_conversation


def shallow_of(conversation, turn_index, scope=SAME_SPEAKER):
    """One turn's shallow features, through :func:`example_contexts`."""
    return example_contexts([ModelingExample(conversation, turn_index, frozenset())], scope)[0][1]


def vocabulary_of(texts):
    """The vocabulary :func:`fit_from_contexts` fits on turns with these texts."""
    return fit_from_contexts([(tokenize(text), (1.0, 0.0, 0.0)) for text in texts])[0]


def fit_examples(examples):
    return fit_from_contexts(example_contexts(examples, SAME_SPEAKER))


class TestTokenize:
    def test_plain_words(self):
        assert tokenize("I am unsure") == ["i", "am", "unsure"]

    def test_punctuation_split(self):
        # hand-applied rule: case-fold, then split on everything outside [a-z0-9]
        assert tokenize("What methods are in eventyhandler(?)") == [
            "what", "methods", "are", "in", "eventyhandler",
        ]

    def test_empty(self):
        assert tokenize("") == []

    def test_numbers_kept(self):
        assert tokenize("openjdk-7-jre") == ["openjdk", "7", "jre"]

    def test_duplicates_preserved_in_order(self):
        assert tokenize("go go went Go") == ["go", "go", "went", "go"]

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=100))
    def test_tokens_are_lowercase_alnum(self, text):
        for tok in tokenize(text):
            assert re.fullmatch(r"[a-z0-9]+", tok)


class TestVocabulary:
    def test_first_occurrence_order(self):
        vocab = vocabulary_of(["a b", "b c"])
        assert vocab.tokens == {"a": 0, "b": 1, "c": 2}
        assert vocab.token_list == ["a", "b", "c"]

    def test_empty_training_set(self):
        with pytest.raises(ValueError):
            fit_from_contexts([])

    def test_case_folding(self):
        vocab = vocabulary_of(["Fix fix FIX"])
        assert vocab.tokens == {"fix": 0}

    def test_determinism(self):
        texts = ["what is this", "this is what", "another one"]
        assert vocabulary_of(texts) == vocabulary_of(texts)


class TestShallow:
    def test_ppau_from_previous_turn(self):
        conv = make_conversation(
            "c1", [("participant", 10.0, "one two", ["a"]), ("participant", 14.5, "three", ["a"])]
        )
        assert shallow_of(conv, 1)[2] == 4.5

    def test_first_turn_boundaries(self):
        conv = make_conversation("c1", [("participant", 3.0, "one two three four five six", ["a"])])
        assert shallow_of(conv, 0) == (1.0, 6.0, 0.0)

    def test_slen_same_speaker_mean(self):
        conv = make_conversation(
            "c1",
            [
                ("participant", 0.0, "w x y z", ["a"]),               # wc 4
                ("assistant", 1.0, "ignore me entirely okay", []),     # other speaker
                ("participant", 2.0, "a b c d e f", ["a"]),            # wc 6
                ("participant", 3.0, "1 2 3 4 5 6 7 8 9 10", ["a"]),   # wc 10
            ],
        )
        assert shallow_of(conv, 3)[0] == pytest.approx(10 / 5)

    def test_slen_any_speaker_scope(self):
        conv = make_conversation(
            "c1",
            [
                ("participant", 0.0, "w x y z", ["a"]),     # wc 4
                ("assistant", 1.0, "a b", []),              # wc 2
                ("participant", 2.0, "1 2 3 4 5 6", ["a"]),  # wc 6
            ],
        )
        assert shallow_of(conv, 2, ANY_SPEAKER)[0] == pytest.approx(6 / 3)
        assert shallow_of(conv, 2)[0] == pytest.approx(6 / 4)

    def test_slen_zero_mean_falls_back_to_wc(self):
        conv = make_conversation(
            "c1", [("participant", 0.0, "???", ["a"]), ("participant", 1.0, "x y z", ["a"])]
        )
        assert shallow_of(conv, 1)[0] == 3.0

    def test_ppau_uses_any_speaker(self):
        conv = make_conversation(
            "c1", [("assistant", 0.0, "hi", []), ("participant", 7.25, "q", ["a"])]
        )
        assert shallow_of(conv, 1)[2] == 7.25

    def test_out_of_range(self):
        conv = make_conversation("c1", [("participant", 0.0, "x", ["a"])])
        with pytest.raises(IndexError):
            shallow_of(conv, 1)

    def test_causality(self):
        conv = make_conversation(
            "c1",
            [("participant", 0.0, "a b", ["a"]), ("participant", 2.0, "c d e", ["a"]),
             ("participant", 4.0, "f", ["a"])],
        )
        before = shallow_of(conv, 1)
        conv.turns[2].text = "changed massively " * 10
        conv.turns[2].timestamp_s = 999.0
        assert shallow_of(conv, 1) == before


def prefix_scan_shallow(conversation, turn_index, scope):
    """Reference: the former per-turn scan over the re-tokenized prefix."""
    history = [
        (t.speaker, t.timestamp_s, len(tokenize(t.text)))
        for t in conversation.turns[:turn_index]
    ]
    turn = conversation.turns[turn_index]
    wc = len(tokenize(turn.text))
    ppau = turn.timestamp_s - history[-1][1] if history else 0.0
    prior = [w for s, _, w in history if scope == ANY_SPEAKER or s == turn.speaker]
    if not prior:
        slen = 1.0
    else:
        mean_wc = sum(prior) / len(prior)
        slen = wc / mean_wc if mean_wc > 0 else float(wc)
    return (slen, float(wc), ppau)


_WORDS = st.sampled_from(["a", "Bb", "c3", "??", "x-y", "", "long words here", "9"])
_GAPS = st.one_of(st.just(0), st.integers(0, 50), st.floats(0.0, 50.0, allow_nan=False))


@st.composite
def conversations(draw):
    rows = draw(st.lists(st.tuples(st.sampled_from(SPEAKERS), _GAPS,
                                   st.lists(_WORDS, max_size=6)), min_size=1, max_size=40))
    start = draw(st.one_of(st.integers(0, 10**6), st.floats(0.0, 1e6, allow_nan=False)))
    turns, ts = [], start
    for i, (speaker, gap, words) in enumerate(rows):
        ts = ts + gap
        turns.append(Turn("c", i, speaker, ts, " ".join(words)))
    return Conversation("c", turns)


class TestRunningContext:
    @settings(max_examples=300, deadline=None)
    @given(conversations(), st.sampled_from(SLEN_SCOPES))
    def test_matches_prefix_scan(self, conv, scope):
        contexts = list(conversation_context(conv, scope))
        assert len(contexts) == len(conv.turns)
        for i, (tokens, shallow) in enumerate(contexts):
            assert tokens == tokenize(conv.turns[i].text)
            expected = prefix_scan_shallow(conv, i, scope)
            assert shallow == expected
            assert type(shallow[2]) is type(expected[2])
        # examples in any order, each turn's context from one run per conversation
        examples = [ModelingExample(conv, i, frozenset()) for i in reversed(range(len(conv.turns)))]
        assert example_contexts(examples, scope) == contexts[::-1]

    def test_unknown_scope_rejected_before_iterating(self):
        conv = make_conversation("c1", [("participant", 0.0, "x", ["a"])])
        with pytest.raises(ValueError):
            ContextState("nobody")
        with pytest.raises(ValueError):
            conversation_context(conv, "nobody")
        with pytest.raises(ValueError):
            shallow_of(conv, 0, "nobody")

    def test_examples_tokenize_each_needed_turn_once(self, monkeypatch):
        import speechacts.featurize as featurize_mod

        catalog = LabelCatalog(labels=("x",))
        conv = make_conversation(
            "c1", [("participant", float(i), f"w{i} common", ["x"]) for i in range(30)]
            + [("participant", 30.0, "unlabeled tail", [])] * 10,
        )
        examples = modeling_examples([conv], catalog)
        calls = []
        real = featurize_mod.tokenize
        monkeypatch.setattr(featurize_mod, "tokenize", lambda text: calls.append(text) or real(text))
        vocab, scaling = fit_examples(examples)
        # the context stops at the last example's turn; later turns are never read
        assert len(calls) == 30
        calls.clear()
        matrix_from_contexts(example_contexts(examples, SAME_SPEAKER), vocab, scaling)
        assert len(calls) == 30


class TestScaling:
    def test_population_std(self):
        feats = [
            shallow_of(make_conversation("c", [("participant", 0.0, "a b", ["x"])]), 0),
            shallow_of(make_conversation("c", [("participant", 0.0, "a b c d", ["x"])]), 0),
        ]
        scaling = fit_scaling(feats)
        assert scaling.means[1] == 3.0
        assert scaling.stds[1] == 1.0

    def test_constant_feature(self):
        conv = make_conversation("c", [("participant", 0.0, "a b c d e", ["x"])])
        feats = [shallow_of(conv, 0)] * 3
        scaling = fit_scaling(feats)
        assert scaling.stds == (0.0, 0.0, 0.0)
        assert scaling.scale(feats[0]) == (0.0, 0.0, 0.0)

    def test_single_example(self):
        conv = make_conversation("c", [("participant", 0.0, "a", ["x"])])
        scaling = fit_scaling([shallow_of(conv, 0)])
        assert scaling.stds == (0.0, 0.0, 0.0)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            fit_scaling([])

    @pytest.mark.parametrize("ppau", [[0.0, 1.5e308], [1.5e308, 1.5e308], [0.0, float("inf")]])
    def test_non_finite_statistic_names_the_feature(self, ppau):
        # a deviation squared past the float limit raised OverflowError
        feats = [(1.0, 2.0, p) for p in ppau]
        with pytest.raises(ValueError, match="ppau_sf"):
            fit_scaling(feats)

    @settings(max_examples=200, deadline=None)
    @given(slen=st.floats(allow_nan=False), wc=st.integers(0, 2**60), ppau=st.floats(allow_nan=False),
           means=st.tuples(*[st.floats(-1e300, 1e300)] * 3),
           stds=st.tuples(*[st.sampled_from([0.0, -0.0, 5e-324]) | st.floats(1e-300, 1e300)] * 3))
    def test_scale_is_the_per_feature_form(self, slen, wc, ppau, means, stds):
        # the form scale had before it was written out per feature
        shallow = (slen, float(wc), ppau)
        expect = tuple((v - m) / s if s > 0 else 0.0 for v, m, s in zip(shallow, means, stds))
        got = ScalingParams(means, stds).scale(shallow)
        assert type(got) is tuple and all(type(v) is float for v in got)
        assert np.array(got).tobytes() == np.array(expect).tobytes()


class TestVectorize:
    def test_presence_not_counts(self):
        conv = make_conversation("c1", [("participant", 0.0, "b a b", ["x"])])
        vocab = vocabulary_of(["a b c"])
        scaling = ScalingParams(means=(0.0, 0.0, 0.0), stds=(1.0, 1.0, 1.0))
        ids, _ = turn_row(*next(conversation_context(conv)), vocab, scaling)
        assert ids == [0, 1]

    def test_unknown_tokens_ignored(self):
        conv = make_conversation("c1", [("participant", 0.0, "zzz", ["x"])])
        vocab = vocabulary_of(["a b"])
        scaling = ScalingParams(means=(0.0, 0.0, 0.0), stds=(1.0, 1.0, 1.0))
        tokens, shallow = next(conversation_context(conv))
        ids, _ = turn_row(tokens, shallow, vocab, scaling)
        assert ids == []
        assert shallow[1] == 1.0

    def test_z_score_arithmetic(self):
        scaling = ScalingParams(means=(0.0, 5.0, 0.0), stds=(1.0, 2.5, 1.0))
        conv = make_conversation(
            "c1", [("participant", 0.0, "a b c d e f g h i j", ["x"])]  # wc 10
        )
        _, scaled = turn_row(*next(conversation_context(conv)), Vocabulary({}), scaling)
        assert scaled[1] == pytest.approx((10 - 5) / 2.5)

    def test_dense_layout(self):
        vocab = vocabulary_of(["a b"])
        scaling = ScalingParams(means=(0.0, 0.0, 0.0), stds=(1.0, 1.0, 1.0))
        conv = make_conversation("c", [("participant", 0.0, "b", ["x"])])
        ids, scaled = turn_row(["b"], shallow_of(conv, 0), vocab, scaling)
        examples = modeling_examples([conv], LabelCatalog(labels=("x",)))
        X = matrix_from_contexts(example_contexts(examples, SAME_SPEAKER), vocab, scaling)
        assert X.shape == (1, 5)
        dense = X[0]
        assert ids == [1]
        assert dense[0] == 0.0 and dense[1] == 1.0
        assert dense[2:].tolist() == list(scaled)


def reference_matrix(contexts, vocabulary, scaling):
    """The row-by-row build that matrix_from_contexts replaced, kept as its oracle."""
    X = np.zeros((len(contexts), len(vocabulary) + N_SHALLOW), dtype=np.float64)
    for row, (tokens, shallow) in enumerate(contexts):
        ids, scaled = turn_row(tokens, shallow, vocabulary, scaling)
        X[row, ids] = 1.0
        X[row, len(vocabulary):] = scaled
    return X


class TestMatrixMatchesRowBuild:
    @settings(max_examples=60, deadline=None)
    @given(texts=st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "zz"]), max_size=8)
                          .map(" ".join), max_size=12),
           tokens=st.lists(st.sampled_from(["a", "b", "c", "d"]), unique=True))
    @example(texts=[], tokens=["a", "b"])  # no contexts at all
    @example(texts=[], tokens=[])
    @example(texts=["zz zz", "", "zz"], tokens=["a", "b"])  # no in-vocabulary token on any turn
    @example(texts=["b a b b", "a a a", "c zz c b", "", "c"], tokens=["c", "a", "b"])  # repeats
    @example(texts=["a b"], tokens=[])  # an empty vocabulary
    def test_bytes_equal(self, texts, tokens):
        conv = make_conversation("c", [("participant", 3.0 * i, text, ["x"])
                                       for i, text in enumerate(texts)])
        contexts = list(conversation_context(conv))
        vocab = Vocabulary.from_tokens(tokens)
        scaling = ScalingParams(means=(1.0, 4.0, 2.0), stds=(0.5, 3.0, 0.0))
        got = matrix_from_contexts(contexts, vocab, scaling)
        want = reference_matrix(contexts, vocab, scaling)
        assert got.shape == want.shape == (len(texts), len(vocab) + N_SHALLOW)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestDatasetFeaturization:
    def _examples(self):
        catalog = LabelCatalog(labels=("x", "y"))
        conv = make_conversation(
            "c1",
            [("participant", 0.0, "alpha beta", ["x"]),
             ("assistant", 1.0, "assistant words never counted", []),
             ("participant", 5.0, "beta gamma", ["y"])],
        )
        return modeling_examples([conv], catalog)

    def test_vocabulary_from_participant_examples_only(self):
        examples = self._examples()
        vocab, _ = fit_examples(examples)
        assert set(vocab.tokens) == {"alpha", "beta", "gamma"}

    def test_matrix_words_are_binary(self):
        examples = self._examples()
        vocab, scaling = fit_examples(examples)
        X = matrix_from_contexts(example_contexts(examples, SAME_SPEAKER), vocab, scaling)
        words = X[:, : len(vocab)]
        assert np.isin(words, [0.0, 1.0]).all()
        assert X.shape == (2, len(vocab) + 3)

    def test_feature_names_order(self):
        examples = self._examples()
        vocab, _ = fit_examples(examples)
        names = feature_names(vocab)
        assert names[: len(vocab)] == vocab.token_list
        assert names[-3:] == ["slen_sf", "wc_sf", "ppau_sf"]

    def test_test_tokens_never_enlarge_vocabulary(self):
        examples = self._examples()
        vocab, scaling = fit_examples(examples[:1])
        assert "gamma" not in vocab
        ids, _ = turn_row(*example_contexts(examples[1:], SAME_SPEAKER)[0], vocab, scaling)
        assert ids and all(idx < len(vocab) for idx in ids)


def test_examples_of_unlabeled_are_not_built():
    catalog = LabelCatalog(labels=("x",))
    conv = make_conversation("c1", [("participant", 0.0, "plain words", [])])
    assert modeling_examples([conv], catalog) == []
