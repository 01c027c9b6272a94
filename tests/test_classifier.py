import dataclasses
import errno
import functools
import hashlib
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from speechacts import classifier as classifier_mod
from speechacts import evaluate as evaluate_mod
from speechacts.balance import DenseExample, derive_seed, oversample, smote_balance
from speechacts.classifier import (
    BinaryClassifier,
    ModelCorruptError,
    ModelFormatError,
    ModelVersionError,
    MultiLabelModel,
    TrainingData,
    fit_binary,
    fit_multilabel,
    fit_multilabel_grid,
    label_positions,
    load_model,
    loss_and_gradient,
    model_from_document,
    model_to_document,
    predict_conversation,
    predict_proba,
    save_model,
    score_rows,
    sigmoid,
    train_model,
)
from speechacts.config import DEFAULT_GRID, Hyperparams, RunConfig, expand_grid
from speechacts.corpus import PARTICIPANT, LabelCatalog, decode_record, modeling_examples
from speechacts.evaluate import (
    average_rows_across_folds,
    cross_validate_grid,
    featurize_fold,
    per_label_metrics,
    stratified_kfold,
    tune_on_contexts,
    weighted_average,
)
from speechacts.featurize import (
    SLEN_SCOPES,
    ScalingParams,
    Vocabulary,
    example_contexts,
    turn_row,
)
from speechacts.synth import SynthSpec, synth_catalog, synth_corpus

from conftest import ZeroEveryOtherWeight, cv_time, make_conversation


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

    def test_integer_weights_and_matrix(self):
        X, y = np.array([[1, 0], [0, 1], [1, 1]]), np.array([1.0, 0.0, 1.0])
        ints = loss_and_gradient(np.array([1, -1]), 0.5, X, y, 1.0)
        floats = loss_and_gradient(np.array([1.0, -1.0]), 0.5, X.astype(float), y, 1.0)
        assert ints[0] == floats[0] and ints[2] == floats[2]
        assert ints[1].tobytes() == floats[1].tobytes()


def word_matrix(rng, n, d, share, n_dense=3):
    """A featurized-looking matrix: 0/1 word columns at the given share of
    nonzeros, then n_dense Gaussian columns standing for the shallow
    features."""
    X = (rng.random((n, d)) < share).astype(np.float64)
    X[:, d - n_dense:] = rng.normal(size=(n, n_dense))
    return X


class TestDesign:
    """The solver's design operator: X @ v and X.T @ r through BLAS or, for
    sparse enough word blocks, through the nonzeros."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        d=st.integers(1, 30),
        share=st.sampled_from([0.0, 0.05, 0.2, 0.6]),
        n_dense=st.integers(0, 3),
        empty_rows=st.sampled_from([0.0, 0.3]),
        dtype=st.sampled_from([np.float64, np.int64, np.bool_]),
        sparse=st.booleans(),
    )
    def test_products_match_blas(self, seed, n, d, share, n_dense, empty_rows, dtype, sparse):
        rng = np.random.default_rng(seed)
        X = np.where(rng.random((n, d)) < share, rng.uniform(-5.0, 5.0, (n, d)), 0.0)
        X[:, : min(n_dense, d)] = rng.uniform(1.0, 5.0, (n, min(n_dense, d)))
        X[rng.random(n) < empty_rows] = 0.0
        X = X.round().astype(dtype) if dtype is np.int64 else X.astype(dtype)
        v, r = rng.normal(size=d), rng.normal(size=n)
        # both kernels, whatever the size: the overhead term decides
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classifier_mod, "_PRODUCT_OVERHEAD", -np.inf if sparse else np.inf)
            design = classifier_mod._Design(X)
        assert design.sparse is sparse
        dot, tdot = design.dot(v), design.tdot(r)
        assert dot.dtype == tdot.dtype == np.float64
        assert dot.shape == (n,) and tdot.shape == (d,)
        if not sparse:  # the dense kernel is X's own BLAS calls
            assert dot.tobytes() == (X @ v).tobytes()
            assert tdot.tobytes() == (X.T @ r).tobytes()
            return
        # Each way sums m products: rounded in any order, a sum lies within
        # m * eps/2 of the exact one relative to the sum of magnitudes, so
        # two orders differ by at most m * eps of it.
        eps = np.finfo(np.float64).eps
        magnitude = np.abs(X.astype(np.float64))
        assert np.all(np.abs(dot - X @ v) <= d * eps * (magnitude @ np.abs(v)))
        assert np.all(np.abs(tdot - X.T @ r) <= n * eps * (magnitude.T @ np.abs(r)))

    # shapes and shares of real fit matrices (see classifier._NONZERO_COST),
    # then shapes around n * d == _PRODUCT_OVERHEAD, below which _Design
    # skips the nonzero scan
    @pytest.mark.parametrize(
        "n, d, share, sparse",
        [
            (380, 537, 0.02, True),  # a study CV fold
            (470, 615, 0.02, True),  # study train
            (3400, 1585, 0.006, True),  # a paper-scale CV fold
            (1546, 111, 0.10, False),  # a narrow CV fold
            (250, 414, 0.025, False),  # an inner fold of study's nested CV
            (18, 66, 0.01, False),  # an inner fold of a tiny tuning slice
            (199, 201, 0.0, False),  # n * d one below the overhead
            (200, 200, 0.0, False),  # n * d at the overhead
            (200, 203, 0.0, False),  # the word block's n * d at the overhead
            (201, 203, 0.0, True),  # the word block's n * d above it
        ],
    )
    def test_kernel_by_density_and_size(self, n, d, share, sparse):
        X = word_matrix(np.random.default_rng(0), n, d, share)
        design = classifier_mod._Design(X)
        assert design.sparse is sparse
        # the cost rule over every column, which the size shortcut must agree with
        counts = np.count_nonzero(X, axis=0)
        dense = 2 * counts > n
        cost = classifier_mod._NONZERO_COST * counts[~dense].sum() + classifier_mod._PRODUCT_OVERHEAD
        assert design.sparse is bool(cost < n * np.count_nonzero(~dense))
        if sparse:  # the three Gaussian columns form the dense block
            assert design.dense_columns.tolist() == [d - 3, d - 2, d - 1]
            assert len(design.values) == np.count_nonzero(X[:, : d - 3])

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 500),
        d=st.integers(1, 500),
        share=st.sampled_from([0.0, 0.01, 0.02, 0.1, 0.6]),
        n_dense=st.integers(0, 3),
        empty_rows=st.sampled_from([0.0, 0.3]),
    )
    # a study CV fold, and sizes either side of n * d == _PRODUCT_OVERHEAD
    @example(seed=1, n=380, d=540, share=0.02, n_dense=3, empty_rows=0.0)
    @example(seed=2, n=200, d=200, share=0.0, n_dense=3, empty_rows=0.3)
    @example(seed=3, n=201, d=203, share=0.0, n_dense=3, empty_rows=0.0)
    def test_entries_build_the_dense_operator(self, seed, n, d, share, n_dense, empty_rows):
        rng = np.random.default_rng(seed)
        # word entries 1 or an interpolated fraction, as in balanced rows
        words = np.where(rng.random((n, d)) < 0.5, 1.0, rng.random((n, d)))
        X = np.where(rng.random((n, d)) < share, words, 0.0)
        X[:, d - min(n_dense, d):] = rng.normal(size=(n, min(n_dense, d)))
        X[rng.random(n) < empty_rows] = 0.0
        want, got = ParentDenseDesign(X), classifier_mod._Design(X)
        assert got.shape == want.shape == (n, d)
        assert got.sparse is want.sparse
        if not want.sparse:
            assert got.X.flags.c_contiguous
            assert got.X.tobytes() == want.X.tobytes()
            return
        assert got.dense_columns.tobytes() == want.dense_columns.tobytes()
        # the dense block's memory order sets the summation order of its BLAS calls
        assert got.dense.strides == want.dense.strides
        assert got.dense.dtype == want.dense.dtype
        assert got.dense.tobytes("A") == want.dense.tobytes("A")
        for field in ("rows", "columns", "values"):
            got_field, want_field = getattr(got, field), getattr(want, field)
            assert got_field.dtype == want_field.dtype, field
            assert got_field.tobytes() == want_field.tobytes(), field
        v, r = rng.normal(size=d), rng.normal(size=n)
        assert got.dot(v).tobytes() == want.dot(v).tobytes()
        assert got.tdot(r).tobytes() == want.tdot(r).tobytes()


class ParentDenseDesign(classifier_mod._Design):
    """_Design's build from a dense X, kept verbatim as the oracle of that
    build: the kernel from a scan of X != 0, the dense block gathered from
    X's columns and the sparse values from X's entries."""

    def __init__(self, X):
        self.shape = n, d = X.shape
        # below this size the cost rule cannot pick sparse, so skip the scan
        self.sparse = False
        if n * d > classifier_mod._PRODUCT_OVERHEAD:
            # nonzero of the flat mask: numpy's 2-D nonzero took 9x as long
            rows, columns = np.divmod(np.flatnonzero(X != 0), d)
            dense, self.sparse = classifier_mod._kernel(np.bincount(columns, minlength=d), n, d)
        if not self.sparse:
            self.X = X
            return
        self.dense_columns = np.flatnonzero(dense)
        sparse = ~dense[columns]
        self.rows, self.columns = rows[sparse], columns[sparse]
        self.dense = X[:, self.dense_columns]
        self.values = X[self.rows, self.columns].astype(np.float64, copy=False)


def loss_trace(X, y, hyperparams, steps):
    """The training loss at zero weights and after each of the first steps
    Newton steps, each read from a fit capped at that many steps: the fit is
    deterministic, so a capped fit stops on the same loss."""
    start = loss_and_gradient(np.zeros(X.shape[1]), 0.0, X, y, hyperparams.C)[0]
    return [start] + [
        fit_binary(X, y, dataclasses.replace(hyperparams, max_iterations=k)).final_loss
        for k in range(1, steps + 1)
    ]


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
        clf = fit_binary(X, y, Hyperparams(max_iterations=200))
        assert clf.iterations > 0
        losses = loss_trace(X, y, Hyperparams(max_iterations=200), clf.iterations)
        assert all(b <= a for a, b in zip(losses, losses[1:]))
        assert clf.final_loss == losses[-1]

    def test_single_valued_targets_rejected(self):
        with pytest.raises(ValueError):
            fit_binary(np.ones((3, 1)), np.ones(3))

    @pytest.mark.parametrize("y", [[0.0, 1.0, 2.0], [0.0, 1.0, 0.5]])
    def test_targets_other_than_0_and_1_rejected(self, y):
        with pytest.raises(ValueError, match=r"targets must be 0 and 1"):
            fit_binary(np.array([[-1.0], [0.0], [1.0]]), np.array(y))

    def test_fit_bias_false_keeps_zero_bias(self):
        X, y = self.separable()
        clf = fit_binary(X, y, Hyperparams(fit_bias=False))
        assert clf.bias == 0.0

    def test_diagnostics_of_a_converged_fit(self):
        X, y = self.separable()
        clf = fit_binary(X, y, Hyperparams())
        assert clf.converged
        assert 0 < clf.iterations < 50
        assert clf.grad_norm <= 1e-6
        assert clf.final_loss == loss_and_gradient(clf.weights, clf.bias, X, y, 1.0)[0]

    @pytest.mark.parametrize("fit_bias", [True, False])
    def test_sparse_kernel_fit_reaches_the_tolerance(self, fit_bias):
        rng = np.random.default_rng(21)
        X = word_matrix(rng, 400, 603, 0.015)
        y = (X @ rng.normal(size=603) + rng.normal(scale=0.5, size=400) > 0).astype(float)
        assert classifier_mod._Design(X).sparse
        hyperparams = Hyperparams(fit_bias=fit_bias)
        clf = fit_binary(X, y, hyperparams)
        assert clf.converged

        # the gradient at the fit, by BLAS and a separate sigmoid
        n, C = len(y), hyperparams.C
        residual = 0.5 * (1.0 + np.tanh((X @ clf.weights + clf.bias) / 2.0)) - y
        grad = X.T @ residual / n + clf.weights / (C * n)
        if fit_bias:
            grad = np.append(grad, residual.mean())
        # Rounding slack: the two gradients sum the same n terms of size at
        # most max|X| in other orders, so they differ by at most about
        # n * eps * max|X| per entry, 1e-13 here, and by under 1e-11 in norm.
        assert np.linalg.norm(grad) <= hyperparams.tolerance + 1e-11
        assert clf.final_loss == loss_and_gradient(clf.weights, clf.bias, X, y, C)[0]

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


# The Newton solver in its plain forms, one out-of-place numpy expression per
# step, kept as the oracle of classifier.py's allocation-lean loop: both must
# perform the same IEEE operations in the same order, so their results agree
# byte for byte. Products go through classifier._Design, as in the solver.


def reference_sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    ez = np.exp(-np.abs(z))
    denominator = 1.0 + ez
    out = np.where(z >= 0, 1.0 / denominator, ez / denominator)
    return out if out.ndim else float(out)


def reference_loss_terms(design, weights, bias, y, C):
    n = design.shape[0]
    z = design.dot(weights) + bias
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + float(weights @ weights) / (2.0 * C * n)
    p = reference_sigmoid(z)
    residual = p - y
    grad_w = design.tdot(residual) / n + weights / (C * n)
    grad_b = float(np.mean(residual))
    return loss, grad_w, grad_b, p


def reference_hessian_product(design, curvature, v_w, v_b, C, fit_bias):
    n = design.shape[0]
    scaled = curvature * (design.dot(v_w) + v_b)
    h_w = design.tdot(scaled) / n + v_w / (C * n)
    h_b = float(scaled.sum()) / n if fit_bias else 0.0
    return h_w, h_b


def reference_newton_direction(design, curvature, grad_w, grad_b, grad_norm, C, fit_bias):
    d_w, d_b = np.zeros_like(grad_w), 0.0
    r_w, r_b = -grad_w, -grad_b
    p_w, p_b = r_w.copy(), r_b
    rr = float(r_w @ r_w) + r_b * r_b
    stop = min(classifier_mod._CG_FORCING_CAP, np.sqrt(grad_norm)) * grad_norm
    for _ in range(classifier_mod._CG_MAX_STEPS):
        if np.sqrt(rr) <= stop:
            break
        h_w, h_b = reference_hessian_product(design, curvature, p_w, p_b, C, fit_bias)
        curve = float(p_w @ h_w) + p_b * h_b
        if curve <= 0.0:
            break
        alpha = rr / curve
        d_w, d_b = d_w + alpha * p_w, d_b + alpha * p_b
        r_w, r_b = r_w - alpha * h_w, r_b - alpha * h_b
        rr_next = float(r_w @ r_w) + r_b * r_b
        p_w, p_b = r_w + (rr_next / rr) * p_w, r_b + (rr_next / rr) * p_b
        rr = rr_next
    return d_w, d_b


def reference_newton_fit(X, y, hyperparams):
    """(weights, bias, iterations, final_loss, grad_norm, converged), losses."""
    y = np.asarray(y, dtype=np.float64)
    C, fit_bias = hyperparams.C, hyperparams.fit_bias
    design = classifier_mod._Design(X)
    w = np.zeros(X.shape[1], dtype=np.float64)
    b = 0.0
    loss, grad_w, grad_b, p = reference_loss_terms(design, w, b, y, C)
    losses = [loss]
    iterations = 0
    while True:
        if not fit_bias:
            grad_b = 0.0
        grad_norm = float(np.sqrt(grad_w @ grad_w + grad_b * grad_b))
        if grad_norm <= hyperparams.tolerance or iterations == hyperparams.max_iterations:
            break
        d_w, d_b = reference_newton_direction(design, p * (1.0 - p), grad_w, grad_b, grad_norm,
                                              C, fit_bias)
        slope = float(grad_w @ d_w) + grad_b * d_b
        step = 1.0
        accepted = None
        for _ in range(classifier_mod._ARMIJO_HALVINGS + 1):
            w_try, b_try = w + step * d_w, b + step * d_b
            trial = reference_loss_terms(design, w_try, b_try, y, C)
            if trial[0] <= loss + classifier_mod._ARMIJO_SLOPE * step * slope:
                accepted = (w_try, b_try, trial)
                break
            step *= 0.5
        if accepted is None:
            break
        w, b, (loss, grad_w, grad_b, p) = accepted
        losses.append(loss)
        iterations += 1
    converged = grad_norm <= hyperparams.tolerance
    return (w, b, iterations, loss, grad_norm, converged), losses


def float_bytes(values):
    return np.asarray(values, dtype=np.float64).tobytes()


class TestNewtonOracle:
    """The solver gives the reference loop's results byte for byte, on both
    kernels, with and without a bias, converged or stopped at the cap."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 30),
        d=st.integers(1, 12),
        share=st.sampled_from([0.05, 0.2, 0.5]),
        C=st.sampled_from([0.01, 0.1, 1.0, 10.0, 100.0]),
        fit_bias=st.booleans(),
        max_iterations=st.sampled_from([1, 2, 1000]),
        sparse=st.booleans(),
    )
    # stopped by the cap on the sparse kernel; converged in 5 steps on BLAS
    @example(seed=5, n=30, d=12, share=0.2, C=100.0, fit_bias=True, max_iterations=2, sparse=True)
    @example(seed=6, n=24, d=9, share=0.2, C=1.0, fit_bias=False, max_iterations=1000,
             sparse=False)
    def test_matches_the_reference_loop(self, seed, n, d, share, C, fit_bias, max_iterations,
                                        sparse):
        rng = np.random.default_rng(seed)
        X = word_matrix(rng, n, d, share, n_dense=min(3, d))
        y = (X @ rng.normal(size=d) + rng.normal(size=n) > 0).astype(float)
        y[0], y[-1] = 0.0, 1.0
        hyperparams = Hyperparams(C=C, fit_bias=fit_bias, max_iterations=max_iterations)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classifier_mod, "_PRODUCT_OVERHEAD", -np.inf if sparse else np.inf)
            assert classifier_mod._Design(X).sparse is sparse
            clf = fit_binary(X, y, hyperparams)
            (w, b, iterations, final_loss, grad_norm, converged), ref_losses = (
                reference_newton_fit(X, y, hyperparams))
            losses = loss_trace(X, y, hyperparams, iterations)
        assert clf.weights.tobytes() == w.tobytes()
        assert float_bytes(clf.bias) == float_bytes(b)
        assert clf.iterations == iterations
        assert float_bytes(clf.final_loss) == float_bytes(final_loss)
        assert float_bytes(clf.grad_norm) == float_bytes(grad_norm)
        assert clf.converged is converged
        assert float_bytes(losses) == float_bytes(ref_losses)


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

    @pytest.mark.parametrize("n_points", [1, 8])
    def test_one_operator_per_fitted_label_whatever_the_points(self, monkeypatch, n_points):
        data = toy_training_data(labels=("a", "b", "c"), n=20, seed=9)
        data.label_sets = [ls - {"c"} for ls in data.label_sets]  # c is skipped
        points = expand_grid(DEFAULT_GRID)[:n_points]
        assert len(points) == n_points
        built = []

        class Counting(classifier_mod._Design):
            def __init__(self, X):
                super().__init__(X)
                built.append(X.shape)

        monkeypatch.setattr(classifier_mod, "_Design", Counting)
        models = fit_multilabel_grid(data, RunConfig(seed=3, smote_k=2), points)
        assert len(models) == n_points and all(set(m.classifiers) == {"a", "b"} for m in models)
        assert len(built) == 1  # X's, which picks the route; each fitted label's is its view

    def test_empty_dataset_errors(self):
        data = toy_training_data()
        data.X = data.X[:0]
        data.label_sets = []
        with pytest.raises(ValueError):
            fit_multilabel(data, RunConfig())


# classifier._fit_label as it was before each label's balanced view was built
# from X's nonzeros, kept verbatim as the oracle of the dense route: a dense
# balanced matrix, interpolated by oversample and scanned by _Design. It
# shares no code with _SmoteView's layout.


def reference_balanced_matrix(X, member, smote_k, seed, buffer):
    n, n_pos = len(member), int(member.sum())
    need = (n - n_pos) - n_pos
    # smote_balance's layout: positives, then negatives, each side's
    # synthetic rows after its real ones
    X_bal = buffer[: n + abs(need)]
    negatives = n_pos + max(need, 0)
    np.compress(member, X, axis=0, out=X_bal[:n_pos])
    np.compress(~member, X, axis=0, out=X_bal[negatives : negatives + n - n_pos])
    if need > 0:
        X_bal[n_pos:negatives] = oversample(X_bal[:n_pos], need, smote_k, seed)
    else:
        X_bal[n:] = oversample(X_bal[n_pos:n], -need, smote_k, seed)
    return X_bal


def reference_fit_label(X, member, points, smote_k, seed, name, buffer):
    X_bal = reference_balanced_matrix(X, member, smote_k, seed, buffer)
    y_bal = np.zeros(len(X_bal))
    y_bal[: len(X_bal) // 2] = 1.0  # the sides are balanced
    design = classifier_mod._Design(X_bal)  # one nonzero scan for every point
    return [classifier_mod._newton_fit(design, y_bal, point, name) for point in points]


def reference_fit_multilabel_grid(data, config, points):
    n = data.X.shape[0]
    fits = {}
    skipped = []
    buffer = np.empty((2 * n, data.X.shape[1]))  # holds any label's n + |need| rows
    for name in data.catalog.labels:
        member = np.array([name in ls for ls in data.label_sets])
        n_pos = int(member.sum())
        if n_pos == 0:
            skipped.append(classifier_mod.SkippedLabel(name, "no positive training examples"))
        elif n_pos == n:
            skipped.append(classifier_mod.SkippedLabel(name, "no negative training examples"))
        else:
            fits[name] = reference_fit_label(data.X, member, points, config.smote_k,
                                             derive_seed(config.seed, name), name, buffer)
    return [
        MultiLabelModel(
            classifiers={name: fitted[j] for name, fitted in fits.items()},
            vocabulary=data.vocabulary,
            scaling=data.scaling,
            catalog=data.catalog,
            skipped=list(skipped),
            config=dataclasses.replace(config, hyperparams=point),
        )
        for j, point in enumerate(points)
    ]


def shaped_training_data(n, d, share, positives, seed=0):
    """Word columns at the given share of nonzeros and three shallow
    columns; label j is on positives[j] rows, drawn at random."""
    rng = np.random.default_rng(seed)
    X = word_matrix(rng, n, d, share)
    labels = [f"l{j}" for j in range(len(positives))]
    on = [set(rng.choice(n, count, replace=False).tolist()) for count in positives]
    label_sets = [frozenset(name for name, rows in zip(labels, on) if i in rows) for i in range(n)]
    return TrainingData(X=X, label_sets=label_sets, catalog=LabelCatalog(labels=tuple(labels)),
                        vocabulary=Vocabulary.from_tokens([f"w{j}" for j in range(d - 3)]),
                        scaling=ScalingParams((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))


def assert_view_matches_balanced_rows(view, X, member, smote_k, seed, rng):
    """The view's products are those of reference_balanced_matrix's rows
    within their rounding.

    A real row's product sums d terms, so as in
    TestDesign::test_products_match_blas two summation orders differ by at
    most d * eps of its terms' magnitudes. A synthetic row x_s + r (x_nb -
    x_s) adds three rounded operations to each side, on terms of at most
    |x_s| + |x_nb| in magnitude, which twice the minority's largest entry in
    each column bounds: (d + 4) * eps of that. X.T c sums each column's N
    terms on the balanced rows; the view sums at most N when it folds c and
    n more in X.T, each within half an eps per term, so 2 * N * eps of the
    same magnitudes bounds the difference.
    """
    n, d = X.shape
    X_bal = reference_balanced_matrix(X, member, smote_k, seed, np.empty((2 * n, d)))
    assert view.shape == X_bal.shape
    n_pos = int(member.sum())
    need = n - 2 * n_pos
    synthetic = slice(n_pos, n - n_pos) if need > 0 else slice(n, n - need)
    minority = member if need > 0 else ~member
    reach = np.abs(X_bal)
    reach[synthetic] = 2 * np.abs(X[minority]).max(axis=0)
    v, c = rng.normal(size=d), rng.normal(size=len(X_bal))
    eps = np.finfo(np.float64).eps
    dot, tdot = view.dot(v), view.tdot(c)
    assert dot.shape == (len(X_bal),) and tdot.shape == (d,)
    assert np.all(np.abs(dot - X_bal @ v) <= (d + 4) * eps * (reach @ np.abs(v)))
    assert np.all(np.abs(tdot - X_bal.T @ c) <= 2 * len(X_bal) * eps * (reach.T @ np.abs(c)))


class TestBalancedRowsOracle:
    """Each label fits on its view over X's one operator, whose products
    are held to the balanced rows that reference_balanced_matrix
    materializes: above _PRODUCT_OVERHEAD entries of X the view
    interpolates X's products, whichever its kernel; at or below it the
    view writes those rows bit for bit and multiplies by them."""

    POINTS = [Hyperparams(C=1.0), Hyperparams(C=0.1, fit_bias=False)]

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        member=st.lists(st.booleans(), min_size=2, max_size=40).filter(
            lambda m: 0 < sum(m) < len(m)),
        d=st.integers(1, 30),
        share=st.sampled_from([0.05, 0.2, 0.6]),
        n_dense=st.integers(0, 3),
        smote_k=st.integers(1, 6),
        route=st.sampled_from(["bincount", "blas", "written"]),
        zero_weights=st.booleans(),
        crowded=st.booleans(),
    )
    @example(seed=0, member=[True] + [False] * 9, d=5, share=0.2, n_dense=1, smote_k=5,
             route="bincount", zero_weights=False, crowded=False)  # a one-row positive minority
    @example(seed=1, member=[True] * 9 + [False], d=5, share=0.2, n_dense=1, smote_k=5,
             route="blas", zero_weights=False, crowded=False)  # a one-row negative minority
    @example(seed=2, member=[True, False] * 5, d=5, share=0.2, n_dense=1, smote_k=2,
             route="bincount", zero_weights=False, crowded=False)  # need = 0
    @example(seed=3, member=[True] * 4 + [False] * 20, d=8, share=0.2, n_dense=1, smote_k=2,
             route="bincount", zero_weights=True, crowded=True)
    @example(seed=4, member=[True] * 20 + [False] * 4, d=8, share=0.2, n_dense=1, smote_k=2,
             route="written", zero_weights=True, crowded=False)
    @example(seed=5, member=[True] * 20 + [False] * 4, d=8, share=0.2, n_dense=1, smote_k=2,
             route="blas", zero_weights=True, crowded=False)
    def test_view_products_match_the_balanced_rows(self, seed, member, d, share, n_dense, smote_k,
                                                   route, zero_weights, crowded):
        rng = np.random.default_rng(seed)
        member = np.array(member)
        n = len(member)
        X = np.where(rng.random((n, d)) < share, rng.uniform(-5.0, 5.0, (n, d)), 0.0)
        X[:, d - min(n_dense, d):] = rng.uniform(1.0, 5.0, (n, min(n_dense, d)))
        if crowded:  # on every positive and a sixth of the negatives: dense in the balanced rows
            X[:, 0] = member | (np.arange(n) % 6 == 0)
        with pytest.MonkeyPatch.context() as patch:
            # whatever the size: interpolated on either kernel of X's
            # operator, or the rows written
            patch.setattr(classifier_mod, "_PRODUCT_OVERHEAD",
                          np.inf if route == "written" else -np.inf)
            if route == "blas":  # the rule's dense columns, and BLAS's products
                kernel = classifier_mod._kernel
                patch.setattr(classifier_mod, "_kernel", lambda *shape: (kernel(*shape)[0], False))
            design = classifier_mod._Design(X)
            if zero_weights:  # r = 0.0 makes a synthetic row its start row
                patch.setattr(np.random, "default_rng", ZeroEveryOtherWeight)
            view = classifier_mod._SmoteView(design, member, smote_k, seed)
            assert design.sparse is (route == "bincount")
            assert (view.X is None) is (route != "written")
            assert_view_matches_balanced_rows(view, X, member, smote_k, seed, rng)

    def fit_views(self, data, monkeypatch, config=RunConfig(seed=3)):
        """Fits data under POINTS, holding each label's view to its balanced
        rows; returns the designs built, the views and the models."""
        built, views = [], []
        rng = np.random.Generator(np.random.PCG64(0))  # default_rng may be patched

        class DesignSpy(classifier_mod._Design):
            def __init__(self, X):
                super().__init__(X)
                built.append(self)

        class ViewSpy(classifier_mod._SmoteView):
            def __init__(self, design, member, smote_k, seed):
                super().__init__(design, member, smote_k, seed)
                views.append(self)
                assert self.design is built[0]
                assert_view_matches_balanced_rows(self, design.X, member, smote_k, seed, rng)

        with monkeypatch.context() as patch:
            patch.setattr(classifier_mod, "_Design", DesignSpy)
            patch.setattr(classifier_mod, "_SmoteView", ViewSpy)
            models = fit_multilabel_grid(data, config, self.POINTS)
        return built, views, models

    def test_study_shaped_fold_takes_the_entries(self, monkeypatch):
        data = shaped_training_data(380, 540, 0.02, [4, 15, 40, 60, 90, 120, 185])
        built, views, _ = self.fit_views(data, monkeypatch)
        [design] = built
        assert design.sparse and len(views) == 7

    @pytest.mark.parametrize("shape", [
        (380, 540, 0.02, [4, 15, 40, 60, 90, 120, 185]),  # study-shaped: the bincount route
        (400, 111, 0.10, [30, 70, 140]),  # narrow-shaped: the BLAS route
    ], ids=["study", "narrow"])
    def test_kernel_rule_runs_once_on_x(self, monkeypatch, shape):
        data = shaped_training_data(*shape)
        shapes, kernel = [], classifier_mod._kernel

        def spy(counts, n, d):
            shapes.append((n, d))
            return kernel(counts, n, d)

        monkeypatch.setattr(classifier_mod, "_kernel", spy)
        fit_multilabel_grid(data, RunConfig(seed=3), self.POINTS)
        assert shapes == [data.X.shape]

    def test_narrow_fold_interpolates_on_blas(self, monkeypatch):
        data = shaped_training_data(400, 111, 0.10, [30, 70, 140])
        built, views, _ = self.fit_views(data, monkeypatch)
        # X's operator takes BLAS, and no label writes its rows
        [design] = built
        assert not design.sparse and len(views) == 3
        assert all(view.X is None for view in views)

    def test_narrow_fold_edge_cases_interpolate(self, monkeypatch):
        # l0 has one positive and l2 one negative, each row with -0.0 entries,
        # which oversample copies without interpolating; l1 needs no row
        data = shaped_training_data(400, 111, 0.10, [1, 200, 399])
        (lone_pos,) = [i for i, ls in enumerate(data.label_sets) if "l0" in ls]
        (lone_neg,) = [i for i, ls in enumerate(data.label_sets) if "l2" not in ls]
        for i in (lone_pos, lone_neg):
            data.X[i, data.X[i] == 0.0] = -0.0
        assert np.signbit(data.X[lone_pos]).sum() > 10
        built, views, models = self.fit_views(data, monkeypatch)
        assert not built[0].sparse and all(view.X is None for view in views)
        # each lone row's 398 copies start and end at it, with r = 0
        for view, lone in zip(views[::2], (lone_pos, lone_neg)):
            assert view.synthetic.stop - view.synthetic.start == 398
            assert (view.rows[view.synthetic] == lone).all() and (view.neighbors == lone).all()
            assert view.r.tobytes() == np.zeros(398).tobytes()
        assert views[1].synthetic.start == views[1].synthetic.stop == 400
        assert all(clf.converged for model in models for clf in model.classifiers.values())

    # the size at and one entry past which X's views stop writing their rows
    @pytest.mark.parametrize("n, d, written", [(400, 100, True), (181, 221, False)],
                             ids=["at-the-size", "one-entry-more"])
    def test_rows_written_up_to_the_size(self, monkeypatch, n, d, written):
        assert n * d == classifier_mod._PRODUCT_OVERHEAD + (not written)
        data, config = shaped_training_data(n, d, 0.10, [30, 70, n // 2]), RunConfig(seed=3)
        built, views, models = self.fit_views(data, monkeypatch, config)
        assert not built[0].sparse
        assert [view.X is not None for view in views] == [written] * 3
        if written:  # the rows themselves, multiplied as fit_binary multiplies them
            reference = reference_fit_multilabel_grid(data, config, self.POINTS)
            for got, want in zip(models, reference, strict=True):
                assert model_to_document(got) == model_to_document(want)

    def test_negatives_as_the_minority(self, monkeypatch):
        data = shaped_training_data(380, 540, 0.02, [250, 300, 379])
        built, views, _ = self.fit_views(data, monkeypatch)
        assert len(built) == 1 and len(views) == 3
        assert all(view.synthetic.start == 380 for view in views)

    def test_one_row_minority(self, monkeypatch):
        data = shaped_training_data(380, 540, 0.02, [1, 379])
        built, views, _ = self.fit_views(data, monkeypatch)
        assert len(built) == 1 and len(views) == 2

    def test_zero_interpolation_weight(self, monkeypatch):
        data = shaped_training_data(380, 540, 0.02, [20, 100, 300])
        monkeypatch.setattr(np.random, "default_rng", ZeroEveryOtherWeight)
        assert np.random.default_rng(0).random(3)[0] == 0.0
        built, views, _ = self.fit_views(data, monkeypatch)
        assert len(built) == 1 and len(views) == 3
        assert all((view.r[::2] == 0.0).all() for view in views)

    def test_word_column_dense_in_the_balanced_rows(self, monkeypatch):
        data = shaped_training_data(380, 540, 0.02, [60])
        # a word on every positive and on a sixth of the negatives: under
        # half of X's rows, over half of the balanced rows
        member = np.array(["l0" in ls for ls in data.label_sets])
        data.X[:, 7] = member | (np.arange(380) % 6 == 0)
        assert 2 * np.count_nonzero(data.X[:, 7]) < 380
        built, views, _ = self.fit_views(data, monkeypatch)
        [design] = built
        assert design.sparse and len(views) == 1
        # X's operator splits the columns by X's rule
        assert design.dense_columns.tolist() == [537, 538, 539]


def dense_labels(model, vector):
    """The label set and low-confidence flag of a dense row: the labelling
    rule (label_positions) over the dense route's probabilities."""
    chosen, low_confidence = label_positions(model, list(predict_proba(model, vector).values()))
    return frozenset(model.catalog.labels[j] for j in chosen), low_confidence


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
        config=RunConfig(threshold=threshold),
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
        assert dense_labels(model, np.zeros(5)) == (frozenset({"a"}), False)

    def test_fallback_argmax(self):
        model = zero_model()
        model.classifiers["a"].bias = -0.8
        model.classifiers["b"].bias = -1.5
        model.config = RunConfig(fallback=True)
        assert dense_labels(model, np.zeros(5)) == (frozenset({"a"}), True)

    def test_no_fallback_empty(self):
        model = zero_model()
        model.classifiers["a"].bias = -0.8
        model.classifiers["b"].bias = -1.5
        model.config = RunConfig(fallback=False)
        assert dense_labels(model, np.zeros(5)) == (frozenset(), True)

    def test_threshold_monotonicity(self):
        model = zero_model()
        rng = np.random.default_rng(1)
        model.classifiers["a"].weights[:] = rng.normal(size=5)
        model.classifiers["b"].weights[:] = rng.normal(size=5)
        vector = rng.normal(size=5)
        previous = None
        for threshold in (0.1, 0.3, 0.5, 0.7, 0.9):
            model.config = RunConfig(threshold=threshold)
            labels, _ = dense_labels(model, vector)
            if previous is not None:
                assert labels <= previous
            previous = labels


@st.composite
def scoring_problems(draw, extreme=False):
    """A small random model, and turns made from its vocabulary, tokens
    outside it and repeats; some labels have no classifier. With extreme
    set, stds down to the least subnormal and pauses up to 1.7e308 scale
    some features to +-inf, whose products with zero weights are NaN."""
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
        stds=tuple(draw(st.lists(st.just(0.0) | st.floats(0.1, 4.0)
                                 | (st.sampled_from([5e-324, 1e-300]) if extreme else st.nothing()),
                                 min_size=3, max_size=3))),
    )
    model = MultiLabelModel(classifiers, vocabulary, scaling, LabelCatalog(labels=labels),
                            config=RunConfig(threshold=draw(st.floats(0.05, 0.95))))
    token = st.sampled_from(vocabulary.token_list + ["oov", "zz"])
    turns = draw(st.lists(
        st.tuples(st.lists(token, max_size=30), st.floats(0.0, 5.0), st.integers(0, 40),
                  st.floats(0.0, 100.0) | (st.sampled_from([1e300, 1.7e308]) if extreme
                                           else st.nothing())),
        min_size=1, max_size=8,
    ))
    rows = [turn_row(tokens, (slen, float(wc), ppau), vocabulary, scaling)
            for tokens, slen, wc, ppau in turns]
    return model, rows


def edge_problem(labels, skipped=()):
    """A model over two words, and rows with no token, an out-of-vocabulary
    token or vocabulary words, whose shallow features are finite or scale
    to -inf (a length of -1.7e308) or +inf (a pause of 1.7e308). The second
    label's pause weight is 0.0, so its z is NaN where the pause is
    infinite."""
    vocabulary = Vocabulary.from_tokens(["w0", "w1"])
    rng = np.random.default_rng(len(labels))
    classifiers = {}
    for j, name in enumerate(labels):
        weights = rng.normal(scale=3.0, size=len(vocabulary) + 3)
        if j == 1:
            weights[-1] = 0.0
        if name not in skipped:
            classifiers[name] = BinaryClassifier(weights, float(rng.normal()), Hyperparams(), name)
    scaling = ScalingParams(means=(0.5, 2.0, 0.5), stds=(0.25, 1.5, 0.5))
    model = MultiLabelModel(classifiers, vocabulary, scaling, LabelCatalog(labels=labels))
    rows = [turn_row(tokens, (slen, float(wc), ppau), vocabulary, scaling)
            for tokens in ([], ["oov"], ["w1", "w0"], ["w0"])
            for slen in (-1.7e308, 0.3, 1.9) for wc in (0, 7) for ppau in (0.4, 2.9, 1.7e308)]
    return model, rows


def row_bits(row):
    """A probability row as bytes, so NaNs compare."""
    return np.array(row, np.float64).tobytes()


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
        model.config = dataclasses.replace(model.config, fallback=fallback)
        # padded_ids 3 splits a batch into blocks of a few rows
        with mock.patch.object(classifier_mod, "_PADDED_IDS",
                               padded_ids or classifier_mod._PADDED_IDS):
            batch = score_rows(model, rows)
        labels = model.catalog.labels
        assert [len(row) for row in batch] == [len(labels)] * len(rows)
        assert all(type(p) is float for row in batch for p in row)
        n_words = len(model.vocabulary)
        for i, (ids, scaled) in enumerate(rows):
            (one,) = score_rows(model, [rows[i]])
            assert row_bits(batch[i]) == row_bits(one)
            reference = reference_probabilities(model, ids, scaled)
            assert batch[i] == reference
            dense = np.zeros(model.feature_width)
            dense[ids] = 1.0
            dense[n_words:] = scaled
            # the dense route sums the same stacked weights in column order
            probs = predict_proba(model, dense)
            assert list(probs.values()) == reference
            for name, p in zip(model.catalog.labels, reference):
                clf = model.classifiers.get(name)
                expect = sigmoid(clf.weights @ dense + clf.bias) if clf else 0.0
                assert p == pytest.approx(expect, abs=1e-12)

            chosen = {name for name, p in probs.items() if p >= model.config.threshold}
            low_confidence = not chosen
            if low_confidence and fallback:
                chosen = {max(labels, key=probs.get)}
            positions, low = label_positions(model, batch[i])
            assert [labels[j] for j in positions] == sorted(chosen)
            assert low == low_confidence
            assert dense_labels(model, dense) == (frozenset(chosen), low)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(problem=scoring_problems(extreme=True), fallback=st.booleans())
    @example(problem=edge_problem(("l0",)), fallback=True)  # the stack pads to 2 columns
    @example(problem=edge_problem(("l0", "l1", "l2")), fallback=False)
    @example(problem=edge_problem(("l0", "l1", "l2"), skipped=("l0", "l2")), fallback=True)
    def test_one_row_has_the_batch_bits(self, problem, fallback):
        # a lone row is scored in Python floats, any other number of rows in
        # numpy arrays; each row doubled makes every batch take the arrays
        model, rows = problem
        model.config = dataclasses.replace(model.config, fallback=fallback)
        batch = score_rows(model, rows + rows)
        for i, row in enumerate(rows):
            (one,) = score_rows(model, [row])
            assert len(one) == len(model.catalog.labels)
            assert row_bits(one) == row_bits(batch[i]) == row_bits(batch[len(rows) + i])
            assert label_positions(model, one) == label_positions(model, batch[i])

    @pytest.mark.filterwarnings("ignore:invalid:RuntimeWarning")
    def test_edge_problems_reach_the_edges(self):
        model, rows = edge_problem(("l0", "l1", "l2"), skipped=("l0",))
        assert sum(ids == [] for ids, _ in rows) == len(rows) // 2
        assert -math.inf in {scaled[0] for _, scaled in rows}
        assert math.inf in {scaled[2] for _, scaled in rows}
        finite = [all(map(math.isfinite, scaled)) for _, scaled in rows]
        assert sum(finite) == len(rows) * 4 // 9
        probs = np.array(score_rows(model, rows))
        assert not probs[:, 0].any()
        assert np.isnan(probs[:, 1]).tolist() == [scaled[2] == math.inf for _, scaled in rows]
        assert 0.0 < probs[finite, 1:].min() and probs[finite, 1:].max() < 1.0

    def test_no_rows(self):
        model = zero_model()
        assert score_rows(model, []) == []

    @pytest.mark.parametrize("scope", SLEN_SCOPES)
    def test_cv_row_is_scored_as_predict_answers_the_turn(self, scope):
        # cross-validation scores an example from example_contexts, predict
        # and serve from the turn's conversation: the same prediction
        spec = SynthSpec(n_labels=3, turns_per_label=12, signal=0.6, multi_label_rate=0.3, seed=4)
        catalog = synth_catalog(spec)
        examples = modeling_examples(synth_corpus(spec), catalog)
        model = train_model(examples, catalog, RunConfig(seed=4, slen_scope=scope, fallback=True))
        answers = {}
        for ex, ctx in zip(examples, example_contexts(examples, scope)):
            conv = ex.conversation
            if id(conv) not in answers:
                answers[id(conv)] = predict_conversation(model, conv)
                assert [p is None for p in answers[id(conv)]] == [
                    turn.speaker != PARTICIPANT for turn in conv.turns]
            row = turn_row(*ctx, model.vocabulary, model.scaling)
            assert score_rows(model, [row]) == [answers[id(conv)][ex.turn_index]]
        assert len(answers) > 1

    def test_stacked_once_and_not_persisted(self, tmp_path):
        model = zero_model()
        assert model.stacked is model.stacked
        assert "stacked" not in model_to_document(model)


def rechecksummed(payload) -> str:
    """A model document holding payload under a checksum made anew, so only
    the loader's payload checks can reject it."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return json.dumps({"format_version": 2, "payload": payload,
                       "checksum": hashlib.sha256(canonical.encode()).hexdigest()})


def spliced(payload) -> str:
    """payload in the model writer's exact layout, canonically encoded and
    checksummed over that text, so a loader that trusts the layout sees a
    document it could have written."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    checksum = hashlib.sha256(canonical.encode()).hexdigest()
    return f'{{"checksum":"{checksum}","format_version":2,"payload":{canonical}}}\n'


def stale(payload) -> str:
    """payload in the model writer's layout under the checksum of the
    unedited :func:`skipping_payload_text`, as a file edited by hand is."""
    head = '{"checksum":"'
    original = spliced(json.loads(skipping_payload_text()))[len(head):len(head) + 64]
    return head + original + spliced(payload)[len(head) + 64:]


def first_classifier(payload) -> dict:
    return next(iter(payload["classifiers"].values()))


# payload edits that a loader coercing each field would let through
COERCED_PAYLOADS = {
    "token-5": lambda p: p.update(vocabulary=[5] + p["vocabulary"][1:]),
    "bias-true": lambda p: first_classifier(p).update(bias=True),
    "converged-no": lambda p: first_classifier(p).update(converged="no"),
    "iterations-2.7": lambda p: first_classifier(p).update(iterations=2.7),
    "skipped-7-null": lambda p: p["skipped"].append({"label": 7, "reason": None}),
    "classifier-not-in-catalog": lambda p: p["classifiers"].update(zzz=first_classifier(p)),
    "upper-case-catalog": lambda p: p["catalog"].update(
        labels=[name.upper() for name in p["catalog"]["labels"]]),
}

# payload edits holding an integer past the float range where a float belongs
OUT_OF_RANGE_PAYLOADS = {
    "bias": lambda p: first_classifier(p).update(bias=10**400),
    "weight": lambda p: first_classifier(p)["weights"].__setitem__(0, -(10**400)),
    "final-loss": lambda p: first_classifier(p).update(final_loss=10**400),
    "scaling-mean": lambda p: p["scaling"]["means"].__setitem__(1, 10**400),
}


DELETED = object()  # a payload edit that removes the field


@functools.cache
def skipping_payload_text() -> str:
    return json.dumps(json.loads(model_to_document(skipping_model()))["payload"])


def field_paths(value, path=()):
    """The path to every field under a decoded JSON value, as keys and
    indices."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(
        value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


def edited(payload, edits):
    """payload with each (path, value) edit made in turn, a value of DELETED
    removing the field; an edit whose path an earlier one removed is dropped."""
    for path, value in edits:
        try:
            parent = functools.reduce(lambda node, key: node[key], path[:-1], payload)
            parent[path[-1]]  # the field must still be there
        except (KeyError, IndexError, TypeError):
            continue
        if value is DELETED:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return payload


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**400), 10**400),
    st.floats(-1e308, 1e308), st.text(max_size=4),
    st.lists(st.one_of(st.none(), st.integers(-3, 3), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.one_of(st.none(), st.integers(-3, 3)), max_size=2),
    st.just(DELETED))
PAYLOAD_EDITS = st.lists(st.tuples(st.deferred(lambda: st.sampled_from(
    list(field_paths(json.loads(skipping_payload_text()))))), JSON_VALUES), min_size=1, max_size=2)


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
        model = MultiLabelModel(classifiers, vocabulary, scaling, catalog, config=config)
        predicted = [dense_labels(model, x)[0] for x in X_test]
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


def tune(examples, catalog, grid, config=RunConfig()):
    """The grid search as ``train --tune`` runs it on a training set: each
    example's context, then tune_on_contexts."""
    contexts = example_contexts(examples, config.slen_scope)
    return tune_on_contexts(examples, contexts, catalog, grid, config)


class TestTune:
    @settings(max_examples=40, deadline=None)
    @given(tuning_problems())
    def test_matches_one_cross_validation_per_point(self, problem):
        examples, catalog, grid, inner_folds, seed, config = problem
        chosen, scores = reference_tune(examples, catalog, grid, inner_folds, seed, config)
        tuned = dataclasses.replace(config, inner_folds=inner_folds, seed=seed)
        assert tune(examples, catalog, grid, tuned) == chosen
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
        tune_peak = peak(lambda: tune(examples, catalog, expand_grid(DEFAULT_GRID), config))
        assert tune_peak <= 1.5 * fit_peak

    def test_single_point_returned(self):
        examples, catalog = keyword_examples()
        point = Hyperparams(C=3.0)
        assert tune(examples, catalog, [point], RunConfig(inner_folds=2)) == point

    def test_underfit_grid_point_loses(self):
        examples, catalog = noisy_keyword_examples()
        weak = Hyperparams(C=1e-6, max_iterations=3)
        strong = Hyperparams(C=1.0, max_iterations=300)
        best = tune(examples, catalog, [weak, strong], RunConfig(inner_folds=2))
        assert best == strong

    def test_tie_prefers_smaller_c(self):
        examples, catalog = keyword_examples()
        a = Hyperparams(C=10.0)
        b = Hyperparams(C=0.5)
        best = tune(examples, catalog, [a, a, b, b], RunConfig(inner_folds=2))
        assert best.C == 0.5

    def test_too_few_examples(self):
        examples, catalog = keyword_examples(n_per_label=1)
        with pytest.raises(ValueError):
            tune(examples, catalog, [Hyperparams()])

    def test_searches_under_the_config_seed_and_inner_folds(self, monkeypatch):
        seen = []
        plan = evaluate_mod.stratified_kfold

        def spy(label_sets, n_folds, seed):
            seen.append((seed, n_folds))
            return plan(label_sets, n_folds, seed)

        monkeypatch.setattr(evaluate_mod, "stratified_kfold", spy)
        examples, catalog = keyword_examples()
        tune(examples, catalog, [Hyperparams()], RunConfig(seed=7, inner_folds=4))
        assert seen == [(7, 4)]

    def test_empty_grid(self):
        examples, catalog = keyword_examples()
        with pytest.raises(ValueError):
            tune(examples, catalog, [], RunConfig(inner_folds=2))


def parent_model_document(model) -> str:
    """The writer that encoded the payload twice, kept as the byte oracle."""
    payload = classifier_mod._payload(model)
    checksum = hashlib.sha256(classifier_mod._canonical(payload).encode("utf-8")).hexdigest()
    doc = {"format_version": classifier_mod.MODEL_FORMAT_VERSION, "checksum": checksum,
           "payload": payload}
    return classifier_mod._canonical(doc) + "\n"


def parent_model_from_document(text):
    """The reader that tried a fast path and then ran the full checks, kept as
    the oracle for :func:`model_from_document`. It builds and encodes with
    the package's own ``_model_from_payload``, ``_payload`` and
    ``_canonical``, so their checks are not differences."""
    doc = decode_record(text)
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise ModelCorruptError("model file lacks a format_version")
    version = doc["format_version"]
    if version != classifier_mod.MODEL_FORMAT_VERSION:
        raise ModelVersionError(f"unsupported model format_version {version!r}")
    if "checksum" not in doc or "payload" not in doc:
        raise ModelCorruptError("model file lacks checksum or payload")
    payload = doc["payload"]
    if text.startswith('{"checksum":"') and text.endswith("}\n"):
        try:
            model = classifier_mod._model_from_payload(payload)
            if parent_model_document(model) == text:
                return model
        except Exception:
            pass
    canonical = classifier_mod._canonical(payload)
    if hashlib.sha256(canonical.encode("utf-8")).hexdigest() != doc["checksum"]:
        raise ModelCorruptError("model file checksum mismatch")
    try:
        model = classifier_mod._model_from_payload(payload)
        for name, clf in model.classifiers.items():
            if not np.isfinite(clf.weights).all():
                raise ValueError(f"classifier {name!r} has a weight that is not a finite number")
        if classifier_mod._canonical(classifier_mod._payload(model)) != canonical:
            raise ValueError("it does not re-encode as written")
        return model
    except ModelFormatError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelCorruptError(f"model payload malformed: {exc}") from exc


def outcome(read, text):
    """What a model-file reader makes of text: the loaded model's document,
    or the class and message of what it raised."""
    try:
        return model_to_document(read(text))
    except Exception as exc:
        return type(exc), str(exc)


def bench_model(corpus):
    """The model ``train`` fits on a bench corpus, whose examples
    ``scripts/cv_time.py`` builds, under the corpus's fold seed."""
    script = cv_time()
    examples, catalog = script.bench_corpus(corpus)
    return train_model(examples, catalog, RunConfig(seed=script.fold_seed(corpus)))


def skipping_model():
    data = toy_training_data(labels=("a", "b", "c"), n=20, seed=9)
    data.label_sets = [ls - {"c"} for ls in data.label_sets]
    model = fit_multilabel(data, RunConfig(seed=3))
    assert [s.label for s in model.skipped] == ["c"]
    return model


class TestModelDocument:
    @pytest.mark.parametrize("make", [lambda: bench_model("study"), lambda: bench_model("narrow"),
                                      skipping_model], ids=["study", "narrow", "skipped"])
    def test_bytes_of_the_two_encode_writer(self, make):
        model = make()
        document = model_to_document(model)
        assert document == parent_model_document(model)
        assert model_to_document(model_from_document(document)) == document


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
        with pytest.raises(ModelVersionError, match=f"^{re.escape(str(path))}: unsupported"):
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
            model_from_document(json.dumps(doc))

    def test_fit_diagnostics_round_trip(self):
        model, _ = self.trained_model()
        doc = json.loads(model_to_document(model))
        loaded = model_from_document(model_to_document(model))
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
        with pytest.raises(ModelCorruptError, match=f"^{re.escape(str(path))}: not valid JSON"):
            load_model(path)

    def test_tampered_payload(self, tmp_path):
        model, _ = self.trained_model()
        doc = json.loads(model_to_document(model))
        doc["payload"]["threshold"] = 0.25
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelCorruptError,
                           match=f"^{re.escape(str(path))}: model file checksum mismatch"):
            load_model(path)

    def test_non_finite_weight_neither_written_nor_read(self):
        model, _ = self.trained_model()
        clf = next(iter(model.classifiers.values()))
        clf.weights[0] = math.nan
        with pytest.raises(ValueError, match="not JSON compliant"):
            model_to_document(model)
        # a document carrying NaN, checksummed as Python's lenient json would
        payload = json.loads(model_to_document(self.trained_model()[0]))["payload"]
        first_classifier(payload)["weights"][0] = math.nan
        with pytest.raises(ModelCorruptError, match="NaN is not a JSON number"):
            model_from_document(rechecksummed(payload))

    @pytest.mark.parametrize("key,value", [("threshold", 5.0), ("threshold", 0.0),
                                           ("slen_scope", "bogus")])
    def test_bad_threshold_or_scope_rejected_on_load(self, key, value):
        # checksummed anew, so only the value check can catch it
        payload = json.loads(model_to_document(self.trained_model()[0]))["payload"]
        payload[key] = value
        with pytest.raises(ModelCorruptError, match=f"model payload malformed: {key}"):
            model_from_document(rechecksummed(payload))

    @pytest.mark.parametrize("scaling", [{"means": [0.0] * 3, "stds": [1.0] * 2},
                                         {"means": [0.0] * 3, "stds": [1.0, 1.0, "x"]}])
    def test_bad_scaling_rejected_on_load(self, scaling):
        # checksummed anew: a model that loaded would fail at its first prediction
        payload = json.loads(model_to_document(self.trained_model()[0]))["payload"]
        payload["scaling"] = scaling
        with pytest.raises(ModelCorruptError, match="model payload malformed: "):
            model_from_document(rechecksummed(payload))

    @pytest.mark.parametrize("edit", COERCED_PAYLOADS.values(), ids=COERCED_PAYLOADS)
    def test_coerced_field_rejected_on_load(self, edit):
        # a loader that converts fields instead of checking them loads each
        payload = json.loads(model_to_document(self.trained_model()[0]))["payload"]
        edit(payload)
        with pytest.raises(ModelCorruptError, match="^model payload malformed: "):
            model_from_document(rechecksummed(payload))

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
        with mock.patch("speechacts.corpus.open", create=True) as opener:
            with pytest.raises(ValueError, match="not JSON compliant"):
                save_model(later, path)
        opener.assert_not_called()
        assert path.read_bytes() == before

    @pytest.mark.parametrize("content, reason", [
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff"),
        (b"[" * 100_000 + b"]" * 100_000, "not valid JSON (nested too deeply)"),
        (json.dumps({"format_version": 2, "checksum": hashlib.sha256(b"[]").hexdigest(),
                     "payload": []}).encode(), "model payload malformed: "),
    ], ids=["non-utf8", "too-deep", "malformed"])
    def test_unreadable_file_is_corrupt_and_named(self, tmp_path, content, reason):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        with pytest.raises(ModelCorruptError) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: {reason}")

    def test_writer_layout_loads_with_one_encode(self, tmp_path, monkeypatch):
        model, _ = self.trained_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        calls = []
        encode = classifier_mod._canonical
        monkeypatch.setattr(classifier_mod, "_canonical", lambda obj: calls.append(1) or encode(obj))
        loaded = load_model(path)
        assert len(calls) == 1
        assert model_to_document(loaded) == path.read_text()
        assert len(calls) == 2
        assert spliced(json.loads(path.read_text())["payload"]) == path.read_text()

    def test_pretty_printed_file_loads(self, tmp_path):
        model, _ = self.trained_model()
        document = model_to_document(model)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(json.loads(document), indent=2))
        assert model_to_document(load_model(path)) == document

    def test_weight_spelled_as_an_integer_in_the_writer_layout(self, tmp_path):
        payload = json.loads(model_to_document(self.trained_model()[0]))["payload"]
        first_classifier(payload)["weights"][0] = 1
        path = tmp_path / "model.json"
        path.write_text(spliced(payload))
        assert '"weights":[1,' in path.read_text()
        with pytest.raises(ModelCorruptError, match=f"^{re.escape(str(path))}: model payload "
                                                    "malformed: it does not re-encode as written"):
            load_model(path)

    def test_tampered_weight_in_the_writer_layout(self, tmp_path):
        document = model_to_document(self.trained_model()[0])
        weight = first_classifier(json.loads(document)["payload"])["weights"][0]
        tampered = document.replace(f'"weights":[{weight!r},', f'"weights":[{weight + 1.0!r},', 1)
        assert tampered != document
        path = tmp_path / "model.json"
        path.write_text(tampered)
        with pytest.raises(ModelCorruptError,
                           match=f"^{re.escape(str(path))}: model file checksum mismatch"):
            load_model(path)

    @pytest.mark.parametrize("edit", COERCED_PAYLOADS.values(), ids=COERCED_PAYLOADS)
    def test_coerced_field_rejected_in_the_writer_layout(self, edit):
        payload = json.loads(model_to_document(self.trained_model()[0]))["payload"]
        edit(payload)
        with pytest.raises(ModelCorruptError, match="^model payload malformed: "):
            model_from_document(spliced(payload))

    @pytest.mark.parametrize("layout", [rechecksummed, spliced], ids=["loose", "writer"])
    @pytest.mark.parametrize("edit", OUT_OF_RANGE_PAYLOADS.values(), ids=OUT_OF_RANGE_PAYLOADS)
    def test_number_past_the_float_range_is_corrupt(self, edit, layout):
        payload = json.loads(model_to_document(self.trained_model()[0]))["payload"]
        edit(payload)
        with pytest.raises(ModelCorruptError,
                           match="^model payload malformed: int too large to convert to float"):
            model_from_document(layout(payload))

    @settings(max_examples=300, deadline=None)
    @given(edits=PAYLOAD_EDITS, layout=st.sampled_from([rechecksummed, spliced]))
    @example(edits=[(("classifiers",), [1, 2])], layout=spliced)
    @example(edits=[(("classifiers",), "ab")], layout=rechecksummed)
    @example(edits=[(("classifiers", "a", "weights", 2), None)], layout=spliced)
    @example(edits=[(("classifiers", "b", "weights", 0), None)], layout=rechecksummed)
    def test_checksummed_payload_loads_or_fails_naming_the_file(self, edits, layout):
        # a payload whose checksum matches leaves only the payload checks to
        # reject it: a model that loads must score, and any other outcome is
        # a ModelFormatError that starts with the path
        payload = edited(json.loads(skipping_payload_text()), edits)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            path.write_text(layout(payload))
            try:
                model = load_model(path)
            except ModelFormatError as exc:
                assert str(exc).startswith(f"{path}: ")
                return
        n_words = len(model.vocabulary)
        rows = score_rows(model, [([], (0.0, 0.0, 0.0)), (list(range(n_words)), (1.0, -2.0, 0.5))])
        assert len(rows) == 2
        assert all(len(row) == len(model.catalog.labels) for row in rows)
        assert all(0.0 <= p <= 1.0 for row in rows for p in row)

    @pytest.mark.parametrize("layout", [rechecksummed, spliced], ids=["loose", "writer"])
    def test_repeated_vocabulary_token_is_corrupt(self, layout):
        # each classifier one weight short, so the width fits the distinct tokens
        payload = json.loads(model_to_document(self.trained_model()[0]))["payload"]
        payload["vocabulary"][-1] = payload["vocabulary"][0]
        for blob in payload["classifiers"].values():
            del blob["weights"][0]
        with pytest.raises(ModelCorruptError, match="^model payload malformed: vocabulary "
                                                    "tokens must be distinct$"):
            model_from_document(layout(payload))

    @settings(max_examples=300, deadline=None)
    @given(edits=PAYLOAD_EDITS, layout=st.sampled_from([rechecksummed, spliced, stale]))
    @example(edits=[(("classifiers",), [1, 2])], layout=spliced)
    @example(edits=[(("classifiers", "a", "bias"), True)], layout=spliced)
    @example(edits=[(("classifiers", "b", "weights", 0), None)], layout=stale)
    @example(edits=[(("classifiers", "b", "weights", 0), None)], layout=rechecksummed)
    @example(edits=[(("vocabulary", 0), 7)], layout=rechecksummed)
    def test_one_path_reader_answers_as_the_fast_path_and_full_checks(self, edits, layout):
        text = layout(edited(json.loads(skipping_payload_text()), edits))
        assert outcome(model_from_document, text) == outcome(parent_model_from_document, text)

    @pytest.mark.parametrize("edit", [
        lambda p: spliced(p),
        lambda p: json.dumps(json.loads(spliced(p)), indent=2),
        lambda p: first_classifier(p).update(bias=True) or spliced(p),
        lambda p: spliced({**p, "classifiers": list(p["classifiers"].values())}),
        lambda p: p.update(threshold=0.25) or stale(p),
    ], ids=["writer", "pretty", "bias-true", "classifiers-list", "stale-checksum"])
    def test_a_document_builds_once_and_encodes_at_most_once(self, monkeypatch, edit):
        text = edit(json.loads(skipping_payload_text()))
        counts = {"_model_from_payload": 0, "_payload": 0}
        for name in counts:
            def counted(arg, name=name, real=getattr(classifier_mod, name)):
                counts[name] += 1
                return real(arg)
            monkeypatch.setattr(classifier_mod, name, counted)
        finite = np.isfinite
        finite_calls = []
        monkeypatch.setattr(np, "isfinite", lambda *a: finite_calls.append(1) or finite(*a))
        try:
            model_from_document(text)
        except ModelCorruptError:
            pass
        assert counts["_model_from_payload"] == 1
        assert counts["_payload"] <= 1
        if text == spliced(json.loads(skipping_payload_text())):
            assert finite_calls == []

    def test_model_bytes_deterministic(self):
        model_a, _ = self.trained_model(seed=6)
        model_b, _ = self.trained_model(seed=6)
        assert model_to_document(model_a) == model_to_document(model_b)
