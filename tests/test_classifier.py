import dataclasses
import errno
import hashlib
import io
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from speechacts import classifier as classifier_mod
from speechacts.balance import DenseExample, derive_seed, smote_balance
from speechacts.classifier import (
    BinaryClassifier,
    ModelCorruptError,
    ModelVersionError,
    MultiLabelModel,
    TrainingData,
    fit_binary,
    fit_binary_with_trace,
    fit_multilabel,
    fit_multilabel_grid,
    load_model,
    loss_and_gradient,
    model_to_document,
    predict_labels,
    predict_proba,
    predict_rows,
    save_model,
    score_rows,
    sigmoid,
    train_model,
    tune,
)
from speechacts.config import DEFAULT_GRID, Hyperparams, RunConfig, expand_grid
from speechacts.corpus import LabelCatalog, modeling_examples
from speechacts.evaluate import (
    average_rows_across_folds,
    cross_validate_grid,
    featurize_fold,
    per_label_metrics,
    stratified_kfold,
    weighted_average,
)
from speechacts.featurize import (
    ScalingParams,
    ShallowFeatures,
    Vocabulary,
    example_contexts,
    turn_row,
)
from speechacts.synth import SynthSpec, synth_catalog, synth_corpus

from conftest import make_conversation


def finite_difference_gradient(w, b, X, y, C, h=1e-5):
    """Central-difference oracle for the loss gradient."""
    grad_w = np.zeros_like(w)
    for j in range(w.shape[0]):
        up, down = w.copy(), w.copy()
        up[j] += h
        down[j] -= h
        grad_w[j] = (loss_and_gradient(up, b, X, y, C)[0] - loss_and_gradient(down, b, X, y, C)[0]) / (2 * h)
    grad_b = (loss_and_gradient(w, b + h, X, y, C)[0] - loss_and_gradient(w, b - h, X, y, C)[0]) / (2 * h)
    return grad_w, grad_b


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_symmetry(self):
        assert sigmoid(3.7) == pytest.approx(1.0 - sigmoid(-3.7), abs=1e-15)

    def test_large_positive_no_overflow(self):
        v = sigmoid(1000.0)
        assert 1.0 - 1e-12 < v <= 1.0

    def test_large_negative_no_overflow(self):
        v = sigmoid(-1000.0)
        assert 0.0 <= v < 1e-12

    def test_stable_at_700(self):
        assert math.isfinite(sigmoid(700.0)) and math.isfinite(sigmoid(-700.0))

    def test_bitwise_two_branch_definition(self):
        # 1 / (1 + e^-z) where z >= 0, e^z / (1 + e^z) elsewhere, each branch
        # evaluated on its own elements: fitted weights depend on these bits
        z = np.concatenate([np.random.default_rng(0).normal(size=100_000) * 30,
                            [0.0, -0.0, 700.0, -700.0, 1000.0, -1000.0, 1e-300, -1e-300]])
        expect = np.empty_like(z)
        pos = z >= 0
        expect[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        expect[~pos] = ez / (1.0 + ez)
        assert sigmoid(z).tobytes() == expect.tobytes()
        assert [sigmoid(v) for v in z[-8:]] == expect[-8:].tolist()


class TestLossAndGradient:
    def test_zero_weight_single_example(self):
        loss, gw, gb = loss_and_gradient(np.zeros(1), 0.0, np.array([[1.0]]), np.array([1.0]), C=1e12)
        assert gw[0] == pytest.approx(-0.5)
        assert gb == pytest.approx(-0.5)
        assert loss == pytest.approx(math.log(2), rel=1e-12)

    def test_balanced_pair_zero_bias_gradient(self):
        X = np.array([[1.0], [-1.0]])
        y = np.array([1.0, 0.0])
        _, _, gb = loss_and_gradient(np.zeros(1), 0.0, X, y, C=1.0)
        assert gb == pytest.approx(0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, d = int(rng.integers(2, 15)), int(rng.integers(1, 8))
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, size=n).astype(float)
            if y.min() == y.max():
                y[0] = 1.0 - y[0]
            w = rng.normal(scale=0.5, size=d)
            b = float(rng.normal())
            C = float(rng.uniform(0.05, 10))
            _, gw, gb = loss_and_gradient(w, b, X, y, C)
            fw, fb = finite_difference_gradient(w, b, X, y, C)
            analytic = np.concatenate([gw, [gb]])
            numeric = np.concatenate([fw, [fb]])
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel < 1e-5

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            loss_and_gradient(np.zeros(2), 0.0, np.ones((3, 3)), np.ones(3), 1.0)


class TestFitBinary:
    def separable(self):
        X = np.array([[-1.0]] * 10 + [[1.0]] * 10)
        y = np.array([0.0] * 10 + [1.0] * 10)
        return X, y

    def test_separable_learns_sign(self):
        X, y = self.separable()
        clf = fit_binary(X, y, Hyperparams())
        assert clf.weights[0] > 0
        predictions = (sigmoid(X @ clf.weights + clf.bias) >= 0.5).astype(float)
        assert (predictions == y).all()

    def test_zero_column_weight_shrinks(self):
        X = np.array([[-1.0, 0.0]] * 10 + [[1.0, 0.0]] * 10)
        y = np.array([0.0] * 10 + [1.0] * 10)
        clf = fit_binary(X, y, Hyperparams())
        assert abs(clf.weights[1]) <= 1e-6

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 5))
        y = rng.integers(0, 2, size=30).astype(float)
        y[0], y[1] = 0.0, 1.0
        a = fit_binary(X, y, Hyperparams(), seed=9)
        b = fit_binary(X, y, Hyperparams(), seed=9)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias == b.bias

    def test_loss_monotone_under_halving(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 6)) * 3
        y = rng.integers(0, 2, size=40).astype(float)
        y[0], y[1] = 0.0, 1.0
        clf, losses = fit_binary_with_trace(X, y, Hyperparams(max_iterations=200))
        assert len(losses) == clf.iterations + 1 > 1
        assert all(b <= a for a, b in zip(losses, losses[1:]))
        assert clf.final_loss == losses[-1]

    def test_single_valued_targets_rejected(self):
        with pytest.raises(ValueError):
            fit_binary(np.ones((3, 1)), np.ones(3))

    def test_fit_bias_false_keeps_zero_bias(self):
        X, y = self.separable()
        clf = fit_binary(X, y, Hyperparams(fit_bias=False))
        assert clf.bias == 0.0

    def test_diagnostics_of_a_converged_fit(self):
        X, y = self.separable()
        clf, losses = fit_binary_with_trace(X, y, Hyperparams())
        assert clf.converged
        assert 0 < clf.iterations < 50
        assert clf.grad_norm <= 1e-6
        assert clf.final_loss == losses[-1] == loss_and_gradient(clf.weights, clf.bias, X, y, 1.0)[0]

    def test_capped_fit_reports_not_converged(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 6)) * 3
        y = (X[:, 0] + rng.normal(size=40) > 0).astype(float)
        clf = fit_binary(X, y, Hyperparams(max_iterations=1))
        assert clf.iterations == 1
        assert clf.converged is False
        assert clf.grad_norm > 1e-6


def reference_gradient_descent(X, y, C, fit_bias, learning_rate=0.1, max_iterations=1000,
                               tolerance=1e-6):
    """The former solver: full-batch gradient descent from zero with step
    halving, stopping at the iteration cap or when a step gains < tolerance.
    Returns the final training loss."""
    w = np.zeros(X.shape[1])
    b = 0.0
    loss, grad_w, grad_b = loss_and_gradient(w, b, X, y, C)
    for _ in range(max_iterations):
        step = learning_rate
        accepted = None
        for _ in range(21):
            w_try = w - step * grad_w
            b_try = b - step * grad_b if fit_bias else b
            trial = loss_and_gradient(w_try, b_try, X, y, C)
            if trial[0] <= loss:
                accepted = (w_try, b_try, trial)
                break
            step *= 0.5
        if accepted is None:
            break
        w, b, (new_loss, grad_w, grad_b) = accepted
        decrease = loss - new_loss
        loss = new_loss
        if decrease < tolerance:
            break
    return loss


class TestNewtonContract:
    """On random small problems the fit reaches the gradient-norm tolerance,
    does at least as well as the former gradient descent, and is exact and
    repeatable."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 30),
        d=st.integers(1, 8),
        C=st.floats(0.01, 10.0),
        fit_bias=st.booleans(),
        near_separable=st.booleans(),
    )
    def test_converges_below_reference_loss(self, seed, n, d, C, fit_bias, near_separable):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-3.0, 3.0, size=(n, d))
        if near_separable:
            y = (X @ rng.normal(size=d) + rng.normal(scale=0.05, size=n) > 0).astype(float)
        else:
            y = rng.integers(0, 2, size=n).astype(float)
        y[0], y[-1] = 0.0, 1.0
        hyperparams = Hyperparams(C=C, fit_bias=fit_bias)

        clf = fit_binary(X, y, hyperparams)
        loss, grad_w, grad_b = loss_and_gradient(clf.weights, clf.bias, X, y, C)
        free = np.concatenate([grad_w, [grad_b]]) if fit_bias else grad_w
        assert np.linalg.norm(free) <= hyperparams.tolerance
        assert clf.converged
        assert loss <= reference_gradient_descent(X, y, C, fit_bias)
        if not fit_bias:
            assert clf.bias == 0.0
        again = fit_binary(X, y, hyperparams)
        assert again.weights.tobytes() == clf.weights.tobytes()
        assert again.bias == clf.bias


def toy_training_data(labels=("a", "b"), n=12, seed=5):
    """Featurized dataset where each label follows its own indicator column."""
    rng = np.random.default_rng(seed)
    catalog = LabelCatalog(labels=tuple(labels))
    vocab = Vocabulary.from_tokens([f"kw{name}" for name in labels])
    d = len(vocab) + 3
    X = np.zeros((n, d))
    label_sets = []
    for i in range(n):
        chosen = set()
        for j, name in enumerate(labels):
            if rng.random() < 0.5:
                chosen.add(name)
                X[i, j] = 1.0
        X[i, len(vocab):] = rng.normal(size=3)
        label_sets.append(frozenset(chosen))
    # both classes present for every label
    label_sets[0] = frozenset(labels)
    X[0, : len(labels)] = 1.0
    label_sets[1] = frozenset()
    X[1, : len(labels)] = 0.0
    scaling = ScalingParams(means=(0.0, 0.0, 0.0), stds=(1.0, 1.0, 1.0))
    return TrainingData(X=X, label_sets=label_sets, catalog=catalog, vocabulary=vocab, scaling=scaling)


class TestFitMultilabel:
    def test_one_classifier_per_label(self):
        data = toy_training_data()
        model = fit_multilabel(data, RunConfig(seed=2))
        assert set(model.classifiers) == {"a", "b"}
        assert model.skipped == []

    def test_binary_relevance_equivalence(self):
        data = toy_training_data()
        config = RunConfig(seed=2)
        model = fit_multilabel(data, config)
        for name in data.catalog.labels:
            seed = derive_seed(config.seed, name)
            pos = [DenseExample(data.X[i]) for i, ls in enumerate(data.label_sets) if name in ls]
            neg = [DenseExample(data.X[i]) for i, ls in enumerate(data.label_sets) if name not in ls]
            bal_pos, bal_neg = smote_balance(pos, neg, config.smote_k, seed)
            Xb = np.vstack([e.values for e in bal_pos] + [e.values for e in bal_neg])
            yb = np.concatenate([np.ones(len(bal_pos)), np.zeros(len(bal_neg))])
            independent = fit_binary(Xb, yb, config.hyperparams, seed, label=name)
            assert independent.weights.tobytes() == model.classifiers[name].weights.tobytes()
            assert independent.bias == model.classifiers[name].bias

    def test_absent_label_skipped(self):
        data = toy_training_data()
        data.label_sets = [ls - {"b"} for ls in data.label_sets]
        model = fit_multilabel(data, RunConfig(seed=2))
        assert "b" not in model.classifiers
        assert [s.label for s in model.skipped] == ["b"]
        assert "positive" in model.skipped[0].reason

    def test_all_positive_label_skipped(self):
        data = toy_training_data()
        data.label_sets = [ls | {"a"} for ls in data.label_sets]
        model = fit_multilabel(data, RunConfig(seed=2))
        assert "a" not in model.classifiers
        assert "negative" in model.skipped[0].reason

    def test_single_label_dataset_matches_direct_fit(self):
        data = toy_training_data(labels=("only",))
        config = RunConfig(seed=4)
        model = fit_multilabel(data, config)
        seed = derive_seed(config.seed, "only")
        pos = [DenseExample(data.X[i]) for i, ls in enumerate(data.label_sets) if "only" in ls]
        neg = [DenseExample(data.X[i]) for i, ls in enumerate(data.label_sets) if "only" not in ls]
        bal_pos, bal_neg = smote_balance(pos, neg, config.smote_k, seed)
        Xb = np.vstack([e.values for e in bal_pos] + [e.values for e in bal_neg])
        yb = np.concatenate([np.ones(len(bal_pos)), np.zeros(len(bal_neg))])
        direct = fit_binary(Xb, yb, config.hyperparams, seed)
        assert model.classifiers["only"].weights.tobytes() == direct.weights.tobytes()

    def test_grid_models_equal_one_fit_per_point(self):
        data = toy_training_data(labels=("a", "b", "c"), n=20, seed=9)
        data.label_sets = [ls - {"c"} for ls in data.label_sets]  # c is skipped
        config = RunConfig(seed=3, smote_k=2)
        points = [Hyperparams(C=0.1), Hyperparams(C=10.0, fit_bias=False), Hyperparams(C=0.1)]
        models = fit_multilabel_grid(data, config, points)
        assert len(models) == len(points)
        for point, model in zip(points, models):
            alone = fit_multilabel(data, dataclasses.replace(config, hyperparams=point))
            assert model_to_document(model) == model_to_document(alone)

    def test_empty_dataset_errors(self):
        data = toy_training_data()
        data.X = data.X[:0]
        data.label_sets = []
        with pytest.raises(ValueError):
            fit_multilabel(data, RunConfig())


def zero_model(labels=("a", "b"), threshold=0.5):
    catalog = LabelCatalog(labels=tuple(labels))
    vocab = Vocabulary.from_tokens(["w0", "w1"])
    classifiers = {
        name: fit_binary(
            np.array([[1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0]]),
            np.array([1.0, 0.0]),
            Hyperparams(max_iterations=1),
            label=name,
        )
        for name in labels
    }
    for clf in classifiers.values():  # force exactly zero parameters
        clf.weights[:] = 0.0
        clf.bias = 0.0
    return MultiLabelModel(
        classifiers=classifiers,
        vocabulary=vocab,
        scaling=ScalingParams(means=(0.0, 0.0, 0.0), stds=(1.0, 1.0, 1.0)),
        catalog=catalog,
        threshold=threshold,
    )


class TestPredict:
    def test_zero_model_gives_half(self):
        model = zero_model()
        probs = predict_proba(model, np.zeros(5))
        assert probs == {"a": 0.5, "b": 0.5}

    def test_zero_input_gives_sigmoid_bias(self):
        model = zero_model()
        model.classifiers["a"].bias = 1.5
        probs = predict_proba(model, np.zeros(5))
        assert probs["a"] == pytest.approx(sigmoid(1.5))

    def test_probabilities_in_unit_interval(self):
        model = zero_model()
        model.classifiers["a"].weights[:] = [5.0, -3.0, 2.0, 0.0, 1.0]
        rng = np.random.default_rng(0)
        for _ in range(20):
            probs = predict_proba(model, rng.normal(size=5) * 10)
            assert all(0.0 <= p <= 1.0 for p in probs.values())

    def test_skipped_label_probability_zero(self):
        model = zero_model()
        del model.classifiers["b"]
        probs = predict_proba(model, np.zeros(5))
        assert probs["b"] == 0.0

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            predict_proba(zero_model(), np.zeros(4))

    def test_threshold_selection(self):
        model = zero_model()
        model.classifiers["a"].bias = 1.0   # p ~ 0.73
        model.classifiers["b"].bias = -0.5  # p ~ 0.38
        pred = predict_labels(model, np.zeros(5))
        assert pred.labels == frozenset({"a"})
        assert pred.low_confidence is False

    def test_fallback_argmax(self):
        model = zero_model()
        model.classifiers["a"].bias = -0.8
        model.classifiers["b"].bias = -1.5
        pred = predict_labels(model, np.zeros(5), fallback=True)
        assert pred.labels == frozenset({"a"})
        assert pred.low_confidence is True

    def test_no_fallback_empty(self):
        model = zero_model()
        model.classifiers["a"].bias = -0.8
        model.classifiers["b"].bias = -1.5
        pred = predict_labels(model, np.zeros(5), fallback=False)
        assert pred.labels == frozenset()
        assert pred.low_confidence is True

    def test_threshold_monotonicity(self):
        model = zero_model()
        rng = np.random.default_rng(1)
        model.classifiers["a"].weights[:] = rng.normal(size=5)
        model.classifiers["b"].weights[:] = rng.normal(size=5)
        vector = rng.normal(size=5)
        previous = None
        for threshold in (0.1, 0.3, 0.5, 0.7, 0.9):
            model.threshold = threshold
            labels = predict_labels(model, vector).labels
            if previous is not None:
                assert labels <= previous
            previous = labels


@st.composite
def scoring_problems(draw):
    """A small random model, and turns made from its vocabulary, tokens
    outside it and repeats; some labels have no classifier."""
    n_words = draw(st.integers(0, 24))  # numpy sums 8 or more values pairwise
    labels = tuple(f"l{j}" for j in range(draw(st.integers(1, 4))))
    weight = st.floats(-8.0, 8.0)  # -0.0 and subnormals too
    classifiers = {}
    for name in labels:
        if draw(st.booleans()) or name == labels[0]:
            weights = np.array(draw(st.lists(weight, min_size=n_words + 3, max_size=n_words + 3)))
            classifiers[name] = BinaryClassifier(weights, draw(weight), Hyperparams(), label=name)
    vocabulary = Vocabulary.from_tokens([f"w{j}" for j in range(n_words)])
    scaling = ScalingParams(
        means=tuple(draw(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))),
        stds=tuple(draw(st.lists(st.just(0.0) | st.floats(0.1, 4.0), min_size=3, max_size=3))),
    )
    model = MultiLabelModel(classifiers, vocabulary, scaling, LabelCatalog(labels=labels),
                            threshold=draw(st.floats(0.05, 0.95)))
    token = st.sampled_from(vocabulary.token_list + ["oov", "zz"])
    turns = draw(st.lists(
        st.tuples(st.lists(token, max_size=30), st.floats(0.0, 5.0), st.integers(0, 40),
                  st.floats(0.0, 100.0)),
        min_size=1, max_size=8,
    ))
    rows = [turn_row(tokens, ShallowFeatures(slen, wc, ppau), vocabulary, scaling)
            for tokens, slen, wc, ppau in turns]
    return model, rows


def reference_probabilities(model, ids, scaled):
    """Per catalog label: word weights added left to right in id order, then
    the three shallow terms, then the bias; 0.0 for a skipped label."""
    n_words = len(model.vocabulary)
    z = []
    for name in model.catalog.labels:
        w = model.classifiers[name].weights if name in model.classifiers else None
        if w is None:
            z.append(0.0)
            continue
        total = 0.0
        for j in ids:
            total += float(w[j])
        for k in range(3):
            total += scaled[k] * float(w[n_words + k])
        z.append(total + model.classifiers[name].bias)
    return [p if name in model.classifiers else 0.0
            for name, p in zip(model.catalog.labels, sigmoid(np.array(z)).tolist())]


class TestScoreRows:
    @settings(max_examples=150, deadline=None)
    @given(problem=scoring_problems(), fallback=st.booleans(), padded_ids=st.sampled_from([None, 3]))
    def test_batch_row_and_reference_agree(self, problem, fallback, padded_ids):
        model, rows = problem
        word_ids = [ids for ids, _ in rows]
        shallow = [scaled for _, scaled in rows]
        # padded_ids 3 splits a batch into blocks of a few rows
        with mock.patch.object(classifier_mod, "_PADDED_IDS",
                               padded_ids or classifier_mod._PADDED_IDS):
            batch = score_rows(model, word_ids, shallow)
            predictions = predict_rows(model, word_ids, shallow, fallback)
        assert batch.shape == (len(rows), len(model.catalog.labels))
        n_words = len(model.vocabulary)
        for i in range(len(rows)):
            one = score_rows(model, [word_ids[i]], [shallow[i]])[0]
            assert batch[i].tobytes() == one.tobytes()
            reference = reference_probabilities(model, word_ids[i], shallow[i])
            assert batch[i].tolist() == reference
            dense = np.zeros(model.feature_width)
            dense[word_ids[i]] = 1.0
            dense[n_words:] = shallow[i]
            # the dense route sums the same stacked weights in column order
            probs = predict_proba(model, dense)
            assert list(probs.values()) == reference
            for name, p in zip(model.catalog.labels, reference):
                clf = model.classifiers.get(name)
                expect = sigmoid(clf.weights @ dense + clf.bias) if clf else 0.0
                assert p == pytest.approx(expect, abs=1e-12)

            chosen = {name for name, p in probs.items() if p >= model.threshold}
            low_confidence = not chosen
            if low_confidence and fallback:
                chosen = {max(model.catalog.labels, key=probs.get)}
            assert predictions[i].labels == chosen
            assert predictions[i].low_confidence == low_confidence
            assert predictions[i].probabilities == probs
            assert predictions[i] == predict_labels(model, dense, fallback)

    def test_no_rows(self):
        model = zero_model()
        assert score_rows(model, [], []).shape == (0, 2)
        assert predict_rows(model, [], []) == []

    def test_stacked_once_and_not_persisted(self, tmp_path):
        model = zero_model()
        assert model.stacked is model.stacked
        assert "stacked" not in model_to_document(model)


def keyword_examples(n_per_label=10):
    """Participant turns where each label is flagged by its own keyword."""
    catalog = LabelCatalog(labels=("ka", "kb"))
    rows = []
    for i in range(n_per_label):
        rows.append(("participant", 2.0 * len(rows), f"alpha marker{i % 3}", ["ka"]))
        rows.append(("participant", 2.0 * len(rows), f"bravo marker{i % 3}", ["kb"]))
    conv = make_conversation("c1", rows)
    return modeling_examples([conv], catalog), catalog


def noisy_keyword_examples(seed=1, n_per_label=12):
    """One keyword-flagged label vs one pure-filler label, equal word counts.

    Still linearly separable (the filler label is 'alpha is absent'), but an
    over-regularized fit must score the filler label's turns on noise-word
    weights alone, which costs measurable F: the dataset discriminates a
    crippled grid point from a healthy one.
    """
    rng = np.random.default_rng(seed)
    catalog = LabelCatalog(labels=("ka", "kb"))
    pool = [f"noise{j}" for j in range(10)]
    rows = []
    for _ in range(n_per_label):
        fillers_a = " ".join(pool[int(rng.integers(0, len(pool)))] for _ in range(6))
        rows.append(("participant", 2.0 * len(rows), "alpha " + fillers_a, ["ka"]))
        fillers_b = " ".join(pool[int(rng.integers(0, len(pool)))] for _ in range(7))
        rows.append(("participant", 2.0 * len(rows), fillers_b, ["kb"]))
    conv = make_conversation("c1", rows)
    return modeling_examples([conv], catalog), catalog


def reference_cross_validate(examples, catalog, config):
    """cross_validate as one fold loop per grid point, the way tune used to
    call it: each fold featurized alone, each label balanced by smote_balance
    and fit by fit_binary."""
    plan = stratified_kfold([ex.labels for ex in examples], config.n_folds, config.seed)
    fold_rows = []
    for fold in range(config.n_folds):
        train, test, vocabulary, scaling, X_train, X_test = featurize_fold(examples, plan, fold, config)
        classifiers = {}
        for name in catalog.labels:
            member = [name in ex.labels for ex in train]
            if all(member) or not any(member):
                continue
            seed = derive_seed(config.seed, name)
            pos = [DenseExample(x) for x, m in zip(X_train, member) if m]
            neg = [DenseExample(x) for x, m in zip(X_train, member) if not m]
            bal_pos, bal_neg = smote_balance(pos, neg, config.smote_k, seed)
            Xb = np.vstack([e.values for e in bal_pos + bal_neg])
            yb = np.concatenate([np.ones(len(bal_pos)), np.zeros(len(bal_neg))])
            classifiers[name] = fit_binary(Xb, yb, config.hyperparams, seed, label=name)
        model = MultiLabelModel(classifiers, vocabulary, scaling, catalog, config.threshold)
        predicted = [predict_labels(model, x, config.fallback).labels for x in X_test]
        fold_rows.append(per_label_metrics([ex.labels for ex in test], predicted, catalog))
    return weighted_average(average_rows_across_folds(fold_rows)).f_measure


def reference_tune(examples, catalog, grid, inner_folds, seed, base_config):
    """The per-grid-point search: one whole cross-validation per point.
    Returns the chosen point and every point's weighted F."""
    scores = []
    best, best_point = None, grid[0]
    for position, point in enumerate(grid):
        inner = dataclasses.replace(base_config, hyperparams=point, n_folds=inner_folds, seed=seed,
                                    tune=False)
        scores.append(reference_cross_validate(examples, catalog, inner))
        key = (scores[-1], -point.C, -position)
        if best is None or key > best:
            best, best_point = key, point
    return best_point, scores


_WORDS = ["ask", "api", "how", "fix", "doc", "ok", "yes", "bug", "run", "why"]


@st.composite
def tuning_problems(draw):
    """Small corpora over labels a, b, c (c rare, so inner training folds
    often lack it; a sometimes on every turn, so they lack its negatives),
    with grids that repeat points and mix fit_bias."""
    n = draw(st.integers(min_value=6, max_value=24))
    a_everywhere = draw(st.booleans())
    rows = []
    for i in range(n):
        labels = set(draw(st.frozensets(st.sampled_from("ab"), min_size=1)))
        if a_everywhere:
            labels.add("a")
        if draw(st.integers(0, 9)) == 0:
            labels.add("c")
        words = draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=5))
        rows.append(("participant" if i % 3 else "assistant", 4.0 * i,
                     " ".join(words + sorted(labels)), sorted(labels)))
    catalog = LabelCatalog(labels=("a", "b", "c"))
    examples = modeling_examples([make_conversation("c1", rows)], catalog)
    inner_folds = draw(st.integers(min_value=2, max_value=3))
    assume(len(examples) >= inner_folds)
    points = st.builds(Hyperparams, C=st.sampled_from([0.01, 0.1, 1.0, 10.0]),
                       fit_bias=st.booleans())
    grid = draw(st.lists(points, min_size=1, max_size=5))
    config = RunConfig(seed=draw(st.integers(0, 50)), smote_k=draw(st.integers(1, 5)),
                       fallback=draw(st.booleans()))
    return examples, catalog, grid, inner_folds, draw(st.integers(0, 50)), config


class TestTune:
    @settings(max_examples=40, deadline=None)
    @given(tuning_problems())
    def test_matches_one_cross_validation_per_point(self, problem):
        examples, catalog, grid, inner_folds, seed, config = problem
        chosen, scores = reference_tune(examples, catalog, grid, inner_folds, seed, config)
        assert tune(examples, catalog, grid, inner_folds, seed, config) == chosen
        inner = dataclasses.replace(config, n_folds=inner_folds, seed=seed)
        reports = cross_validate_grid(examples, example_contexts(examples, config.slen_scope),
                                      catalog, inner, grid)
        assert [r.average_row.f_measure for r in reports] == scores

    def test_peak_memory_near_one_fit(self):
        # tune holds one balanced matrix at a time, so its peak stays near
        # that of featurizing the same examples and one fit_multilabel
        # (an untuned train_model), not one balanced matrix per label. Holding
        # every label's balanced matrix of an inner fold measured 2.1x here.
        spec = SynthSpec(n_labels=6, turns_per_label=30, signal=0.6, seed=2)
        catalog = synth_catalog(spec)
        examples = modeling_examples(synth_corpus(spec), catalog)
        config = RunConfig(seed=1)

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        train_model(examples, catalog, config)  # first-call allocations stay out of the peak
        fit_peak = peak(lambda: train_model(examples, catalog, config))
        tune_peak = peak(lambda: tune(examples, catalog, expand_grid(DEFAULT_GRID), 3, 1, config))
        assert tune_peak <= 1.5 * fit_peak

    def test_single_point_returned(self):
        examples, catalog = keyword_examples()
        point = Hyperparams(C=3.0)
        assert tune(examples, catalog, [point], inner_folds=2, seed=0) == point

    def test_underfit_grid_point_loses(self):
        examples, catalog = noisy_keyword_examples()
        weak = Hyperparams(C=1e-6, max_iterations=3)
        strong = Hyperparams(C=1.0, max_iterations=300)
        best = tune(examples, catalog, [weak, strong], inner_folds=2, seed=0)
        assert best == strong

    def test_tie_prefers_smaller_c(self):
        examples, catalog = keyword_examples()
        a = Hyperparams(C=10.0)
        b = Hyperparams(C=0.5)
        best = tune(examples, catalog, [a, a, b, b], inner_folds=2, seed=0)
        assert best.C == 0.5

    def test_too_few_examples(self):
        examples, catalog = keyword_examples(n_per_label=1)
        with pytest.raises(ValueError):
            tune(examples, catalog, [Hyperparams()], inner_folds=3, seed=0)

    def test_empty_grid(self):
        examples, catalog = keyword_examples()
        with pytest.raises(ValueError):
            tune(examples, catalog, [], inner_folds=2, seed=0)


class TestPersistence:
    def trained_model(self, seed=6):
        examples, catalog = keyword_examples()
        return train_model(examples, catalog, RunConfig(seed=seed)), catalog

    def test_round_trip_identical_probabilities(self, tmp_path):
        model, _ = self.trained_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        rng = np.random.default_rng(8)
        for _ in range(100):
            vector = rng.normal(size=model.feature_width)
            assert predict_proba(model, vector) == predict_proba(loaded, vector)

    def test_unsupported_version(self, tmp_path):
        model, _ = self.trained_model()
        doc = json.loads(model_to_document(model))
        doc["format_version"] = 999
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelVersionError):
            load_model(path)

    def test_version_1_document_rejected(self):
        model, _ = self.trained_model()
        doc = json.loads(model_to_document(model))
        doc["format_version"] = 1
        for blob in doc["payload"]["classifiers"].values():
            for key in ("iterations", "final_loss", "grad_norm", "converged"):
                del blob[key]
            blob["hyperparams"]["learning_rate"] = 0.1
        with pytest.raises(ModelVersionError):
            load_model(io.StringIO(json.dumps(doc)))

    def test_fit_diagnostics_round_trip(self):
        model, _ = self.trained_model()
        doc = json.loads(model_to_document(model))
        loaded = load_model(io.StringIO(model_to_document(model)))
        for name, clf in model.classifiers.items():
            blob = doc["payload"]["classifiers"][name]
            assert blob["converged"] is True
            assert (blob["iterations"], blob["final_loss"], blob["grad_norm"]) == (
                clf.iterations, clf.final_loss, clf.grad_norm)
            again = loaded.classifiers[name]
            assert (again.iterations, again.final_loss, again.grad_norm, again.converged) == (
                clf.iterations, clf.final_loss, clf.grad_norm, clf.converged)

    def test_truncated_file(self, tmp_path):
        model, _ = self.trained_model()
        text = model_to_document(model)
        path = tmp_path / "model.json"
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ModelCorruptError):
            load_model(path)

    def test_tampered_payload(self, tmp_path):
        model, _ = self.trained_model()
        doc = json.loads(model_to_document(model))
        doc["payload"]["threshold"] = 0.25
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelCorruptError, match="checksum"):
            load_model(path)

    def test_non_finite_weight_neither_written_nor_read(self):
        model, _ = self.trained_model()
        clf = next(iter(model.classifiers.values()))
        clf.weights[0] = math.nan
        with pytest.raises(ValueError, match="not JSON compliant"):
            model_to_document(model)
        # a document carrying NaN, checksummed as Python's lenient json would
        payload = json.loads(model_to_document(self.trained_model()[0]))["payload"]
        next(iter(payload["classifiers"].values()))["weights"][0] = math.nan
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        doc = {"format_version": 2, "payload": payload,
               "checksum": hashlib.sha256(canonical.encode()).hexdigest()}
        with pytest.raises(ModelCorruptError, match="NaN is not a JSON number"):
            load_model(io.StringIO(json.dumps(doc)))

    @pytest.mark.parametrize("key,value", [("threshold", 5.0), ("threshold", 0.0),
                                           ("slen_scope", "bogus")])
    def test_bad_threshold_or_scope_rejected_on_load(self, key, value):
        # checksummed anew, so only the value check can catch it
        payload = json.loads(model_to_document(self.trained_model()[0]))["payload"]
        payload[key] = value
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        doc = {"format_version": 2, "payload": payload,
               "checksum": hashlib.sha256(canonical.encode()).hexdigest()}
        with pytest.raises(ModelCorruptError, match=f"model payload malformed: {key}"):
            load_model(io.StringIO(json.dumps(doc)))

    def test_failed_save_keeps_earlier_model(self, tmp_path):
        earlier, _ = self.trained_model(seed=6)
        path = tmp_path / "model.json"
        save_model(earlier, path)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError(errno.EXDEV, "Invalid cross-device link", src, None, dst)

        later, _ = self.trained_model(seed=9)
        with mock.patch("os.replace", refuse):
            with pytest.raises(OSError) as info:
                save_model(later, path)
        assert info.value.filename == str(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
        # a model that cannot be encoded fails before any file is made
        next(iter(later.classifiers.values())).weights[0] = math.nan
        with mock.patch("speechacts.classifier.open", create=True) as opener:
            with pytest.raises(ValueError, match="not JSON compliant"):
                save_model(later, path)
        opener.assert_not_called()
        assert path.read_bytes() == before

    def test_model_bytes_deterministic(self):
        model_a, _ = self.trained_model(seed=6)
        model_b, _ = self.trained_model(seed=6)
        assert model_to_document(model_a) == model_to_document(model_b)

    def test_save_accepts_file_object(self):
        model, _ = self.trained_model()
        buffer = io.StringIO()
        save_model(model, buffer)
        loaded = load_model(io.StringIO(buffer.getvalue()))
        assert loaded.catalog == model.catalog
