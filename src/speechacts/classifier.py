"""Binary-relevance multi-label classifier over regularized logistic regression.

One L2-regularized logistic-regression classifier is trained per catalog
label on that label's SMOTE-balanced binary view of the training data. The
trained bundle (classifiers + vocabulary + scaling + catalog + run config)
persists as a single checksummed JSON document.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .balance import _draws, derive_seed
from .config import Hyperparams, RunConfig, config_from_dict, expand_grid, hyperparams_from_dict
from .corpus import (PARTICIPANT, Conversation, LabelCatalog, ModelingExample, catalog_from_dict,
                     catalog_to_dict, decode_record, read_document_text, write_document)
from .featurize import (
    N_SHALLOW,
    ScalingParams,
    Vocabulary,
    conversation_context,
    example_contexts,
    fit_from_contexts,
    matrix_from_contexts,
    turn_row,
)

MODEL_FORMAT_VERSION = 2


class ModelFormatError(ValueError):
    """A model file that cannot be loaded."""


class ModelVersionError(ModelFormatError):
    """A model file written with an unsupported format version."""


class ModelCorruptError(ModelFormatError):
    """A truncated or tampered model file."""


def sigmoid(z):
    """Numerically stable logistic function, elementwise over arrays.

    1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so exp never
    overflows.
    """
    out = _logistic(np.asarray(z, dtype=np.float64))
    return out if out.ndim else float(out)


def _logistic(z: np.ndarray) -> np.ndarray:
    """:func:`sigmoid` of a float64 array, with no conversions: the solver
    calls it on every loss evaluation. Each element's last operation is
    either 1 / (1 + e^-|z|) or e^-|z| / (1 + e^-|z|)."""
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, ez) / (ez + 1.0)


# When the sparse products pay, counted in entries of X that BLAS multiplies
# (about 0.41 ns per entry for a product and its transpose, median over 51
# fit matrices of the study, paper and narrow corpora; 2 vCPUs, OpenBLAS
# 0.3.31). The bincount kernel costs about 12.4 ns per nonzero, so the
# crossover share of nonzeros is 1/_NONZERO_COST, 3.3%, on large matrices.
# Its numpy calls cost a fixed amount per product pair: 8.5 us by a
# least-squares fit, though small matrices ran slower than that fit, so
# _PRODUCT_OVERHEAD is set to 40,000 entries (16 us). Measured sparse time
# over BLAS time: study CV folds (about 380 x 537, 1.8-2.1% nonzero)
# 0.58-0.73; the inner folds of study's nested CV (about 250 x 414,
# 2.3-2.9%) 0.90-1.24, which a fixed 4% crossover sent to the slower kernel;
# paper CV folds (about 3,400 x 1,585, 0.6%) 0.13-0.15; narrow CV folds
# (1,546 x 111, 10.4%) 2.4-2.8.
_NONZERO_COST = 30
_PRODUCT_OVERHEAD = 40_000


def _kernel(counts: np.ndarray, n: int, d: int) -> tuple[np.ndarray, bool]:
    """The dense columns of an n x d matrix with these nonzeros per column,
    and whether the bincount products pay for the other columns."""
    dense = 2 * counts > n
    nnz = int(counts[~dense].sum())
    return dense, _NONZERO_COST * nnz + _PRODUCT_OVERHEAD < n * (d - int(dense.sum()))


class _Design:
    """The design matrix X as the Newton solver multiplies by it, the only
    code that does: ``dot(v)`` is X @ v and ``tdot(r)`` is X.T @ r.

    Columns nonzero in more than half the rows (the shallow features) form a
    dense block, gathered from X in Fortran order. When the other columns
    are sparse enough to pay (see _NONZERO_COST), their products run over
    the nonzeros' row, column and value arrays with np.bincount, LIBLINEAR's
    sparse rows: each row's terms sum in column order and each column's in
    row order, and the dense block's BLAS product is added. One scan of
    X != 0 gives the nonzeros, in row-major order, and the column counts the
    rule reads. Otherwise both products are X's own BLAS calls, bit for bit.
    """

    def __init__(self, X: np.ndarray):
        self.X = X
        self.shape = n, d = X.shape
        # below this size the cost rule cannot pick sparse, so skip the scan
        self.sparse = False
        if n * d > _PRODUCT_OVERHEAD:
            # nonzero of the flat mask: numpy's 2-D nonzero took 9x as long
            flat = np.flatnonzero(X != 0)
            rows, columns = np.divmod(flat, d)
            dense, self.sparse = _kernel(np.bincount(columns, minlength=d), n, d)
        if not self.sparse:
            return
        self.dense_columns = np.flatnonzero(dense)
        sparse = ~dense[columns]
        self.rows, self.columns = rows[sparse], columns[sparse]
        self.dense = X[:, self.dense_columns]
        self.values = X.ravel()[flat[sparse]]

    def dot(self, v: np.ndarray) -> np.ndarray:
        if not self.sparse:
            return self.X @ v
        z = self.dense @ v[self.dense_columns]
        z += np.bincount(self.rows, self.values * v[self.columns], self.shape[0])
        return z

    def tdot(self, r: np.ndarray) -> np.ndarray:
        if not self.sparse:
            return self.X.T @ r
        # with no nonzeros bincount counts in int64, which cannot hold floats
        out = np.bincount(self.columns, self.values * r[self.rows],
                          self.shape[1]).astype(np.float64, copy=False)
        out[self.dense_columns] = self.dense.T @ r
        return out


# The bit-identity rule of the solver below. Its results are pinned byte for
# byte (the model-file and CV report rows of OUTPUT_PINS in
# tests/test_evaluate.py), so a rewrite must perform the same IEEE
# operation on the same operands in the same order. These forms keep the bits:
# `a += b` for `a + b` on an array nothing else holds; `a *= c; a += b` for
# `b + c * a`, since IEEE addition and multiplication commute; math.sqrt for
# np.sqrt of a scalar; and float(np.add.reduce(x)) / n for np.mean(x), which is
# the same pairwise add.reduce followed by one division. The loop uses them
# because the grid search's fits are small (14-30 rows), where a numpy call's
# fixed cost outweighs its arithmetic. tests/test_classifier.py::TestNewtonOracle
# compares the solver with a reference copy of the plain forms, byte for byte.


def _loss_terms(
    design: _Design, weights: np.ndarray, bias: float, y: np.ndarray, C: float
) -> tuple[float, np.ndarray, float, np.ndarray]:
    """:func:`loss_and_gradient` over a built design, also returning the
    probabilities sigmoid(X w + b) that the next Newton step's curvature
    needs."""
    n = design.shape[0]
    z = design.dot(weights)
    z += bias
    # logaddexp(0, z) - y*z is -log p(y|z) without evaluating sigmoid near 0/1
    nll = np.logaddexp(0.0, z)
    nll -= y * z
    loss = float(np.add.reduce(nll)) / n + float(weights @ weights) / (2.0 * C * n)
    p = _logistic(z)
    residual = p - y
    grad_w = design.tdot(residual)
    grad_w /= n
    grad_w += weights / (C * n)
    return loss, grad_w, float(np.add.reduce(residual)) / n, p


def loss_and_gradient(
    weights: np.ndarray,
    bias: float,
    X: np.ndarray,
    y: np.ndarray,
    C: float,
) -> tuple[float, np.ndarray, float]:
    """Mean log loss with L2 penalty, and its gradient.

    loss = mean NLL + ||w||^2 / (2 C n); the bias is not regularized.
    Returns (loss, weight gradient, bias gradient), computed with the same
    products as the fit on X, so a fit's final_loss is this loss exactly.
    """
    if X.shape[1] != weights.shape[0]:
        raise ValueError(f"dimension mismatch: X has {X.shape[1]} columns, weights {weights.shape[0]}")
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"dimension mismatch: {X.shape[0]} examples vs {y.shape[0]} targets")
    # the solver updates X w in place, which must be float even for integer X
    weights = np.asarray(weights, dtype=np.float64)
    return _loss_terms(_Design(X), weights, bias, y, C)[:3]


@dataclass
class BinaryClassifier:
    weights: np.ndarray
    bias: float
    hyperparams: Hyperparams
    label: str = ""
    # fit diagnostics: Newton steps taken, training loss and gradient 2-norm
    # at the returned point, and whether that norm reached the tolerance
    iterations: int = 0
    final_loss: float = 0.0
    grad_norm: float = 0.0
    converged: bool = False


# Truncated-Newton constants. Conjugate gradient stops once its residual is
# within min(0.5, sqrt(|g|)) * |g| (superlinear local convergence) or after
# _CG_MAX_STEPS products; the line search accepts the first step 1, 1/2, 1/4,
# ... that meets the Armijo condition with slope fraction _ARMIJO_SLOPE.
_CG_FORCING_CAP = 0.5
_CG_MAX_STEPS = 200
_ARMIJO_SLOPE = 1e-4
_ARMIJO_HALVINGS = 30


def _hessian_product(
    design: _Design, curvature: np.ndarray, v_w: np.ndarray, v_b: float, C: float, fit_bias: bool
) -> tuple[np.ndarray, float]:
    """Hessian of the training loss times the direction (v_w, v_b).

    The Hessian is X~' D X~ / n + diag(1, ..., 1, 0) / (C n) over the design
    matrix X~ = [X, 1] with the per-example curvature D = p (1 - p); the bias
    row is dropped (returned as 0) when the bias is not fit.
    """
    n = design.shape[0]
    scaled = design.dot(v_w)
    scaled += v_b
    scaled *= curvature
    h_w = design.tdot(scaled)
    h_w /= n
    h_w += v_w / (C * n)
    return h_w, float(np.add.reduce(scaled)) / n if fit_bias else 0.0


def _newton_direction(
    design: _Design, curvature: np.ndarray, grad_w: np.ndarray, grad_b: float, grad_norm: float,
    C: float, fit_bias: bool,
) -> tuple[np.ndarray, float]:
    """Approximately solve H d = -g by conjugate gradient, starting at d = 0."""
    d_w, d_b = np.zeros(grad_w.shape), 0.0
    r_w, r_b = -grad_w, -grad_b
    p_w, p_b = r_w.copy(), r_b
    rr = float(r_w @ r_w) + r_b * r_b
    stop = min(_CG_FORCING_CAP, math.sqrt(grad_norm)) * grad_norm
    for _ in range(_CG_MAX_STEPS):
        if math.sqrt(rr) <= stop:
            break
        h_w, h_b = _hessian_product(design, curvature, p_w, p_b, C, fit_bias)
        curve = float(p_w @ h_w) + p_b * h_b
        if curve <= 0.0:  # no curvature left to exploit in floating point
            break
        alpha = rr / curve
        d_w += alpha * p_w
        d_b += alpha * p_b
        h_w *= alpha
        r_w -= h_w
        r_b -= alpha * h_b
        rr_next = float(r_w @ r_w) + r_b * r_b
        beta = rr_next / rr
        p_w *= beta
        p_w += r_w
        p_b = r_b + beta * p_b
        rr = rr_next
    return d_w, d_b


def _newton_fit(
    design: _Design, y: np.ndarray, hyperparams: Hyperparams, label: str
) -> BinaryClassifier:
    """:func:`fit_binary` on a built operator and checked float targets, so
    that fits on one matrix share one operator."""
    C, fit_bias = hyperparams.C, hyperparams.fit_bias
    w = np.zeros(design.shape[1], dtype=np.float64)
    b = 0.0
    loss, grad_w, grad_b, p = _loss_terms(design, w, b, y, C)
    iterations = 0
    while True:
        if not fit_bias:
            grad_b = 0.0
        grad_norm = math.sqrt(float(grad_w @ grad_w) + grad_b * grad_b)
        if grad_norm <= hyperparams.tolerance or iterations == hyperparams.max_iterations:
            break
        curvature = 1.0 - p
        curvature *= p
        d_w, d_b = _newton_direction(design, curvature, grad_w, grad_b, grad_norm, C, fit_bias)
        slope = float(grad_w @ d_w) + grad_b * d_b
        step = 1.0
        accepted = None
        for _ in range(_ARMIJO_HALVINGS + 1):
            w_try, b_try = w + step * d_w, b + step * d_b
            trial = _loss_terms(design, w_try, b_try, y, C)
            if trial[0] <= loss + _ARMIJO_SLOPE * step * slope:
                accepted = (w_try, b_try, trial)
                break
            step *= 0.5
        if accepted is None:  # no decrease left that floating point can see
            break
        w, b, (loss, grad_w, grad_b, p) = accepted
        iterations += 1
    return BinaryClassifier(
        weights=w,
        bias=b,
        hyperparams=hyperparams,
        label=label,
        iterations=iterations,
        final_loss=loss,
        grad_norm=grad_norm,
        converged=grad_norm <= hyperparams.tolerance,
    )


def fit_binary(
    X: np.ndarray,
    y: np.ndarray,
    hyperparams: Hyperparams = Hyperparams(),
    seed: int = 0,
    label: str = "",
) -> BinaryClassifier:
    """Minimize the L2-regularized log loss by truncated Newton from zero weights.

    Each Newton direction is solved by conjugate gradient on Hessian-vector
    products, and a backtracking Armijo line search makes the loss decrease
    at every step. The fit stops when the gradient 2-norm over the fitted
    parameters (the weights, plus the bias when it is fit) is at most the
    tolerance, or after max_iterations Newton steps; the classifier records
    which. Deterministic; the seed is unused.
    """
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"dimension mismatch: {X.shape[0]} examples vs {y.shape[0]} targets")
    zeros, ones = np.count_nonzero(y == 0.0), np.count_nonzero(y == 1.0)
    if not zeros or not ones or zeros + ones != y.size:
        present = sorted(set(np.unique(y).tolist()))
        raise ValueError(f"targets must be 0 and 1, both present, got {present}")
    return _newton_fit(_Design(X), y, hyperparams, label)


@dataclass
class TrainingData:
    """A featurized training split: design matrix, gold label sets, and the
    vocabulary/scaling that were fit on exactly these examples."""

    X: np.ndarray
    label_sets: list[frozenset[str]]
    catalog: LabelCatalog
    vocabulary: Vocabulary
    scaling: ScalingParams


@dataclass
class SkippedLabel:
    label: str
    reason: str


@dataclass
class MultiLabelModel:
    classifiers: dict[str, BinaryClassifier]
    vocabulary: Vocabulary
    scaling: ScalingParams
    catalog: LabelCatalog
    skipped: list[SkippedLabel] = field(default_factory=list)
    # the run's settings; predict and serve read their labelling rule here
    config: RunConfig = field(default_factory=RunConfig)

    @property
    def feature_width(self) -> int:
        return len(self.vocabulary) + N_SHALLOW

    @cached_property
    def stacked(self) -> "StackedWeights":
        """The classifiers' weights side by side, for :func:`score_rows`.

        Derived on first use and kept, so a classifier changed after the
        model has scored is not seen.
        """
        return StackedWeights.of(self)


@dataclass(frozen=True)
class StackedWeights:
    """Every catalog label's weights as one column: a word block with a
    last row of zeros (where a padding id of -1 points), a shallow block and
    a bias. A skipped label's column is zero and its probability 0.0.

    The blocks keep at least two columns, since numpy sums the rows of a
    one-column block pairwise rather than left to right. The shallow rows
    and the bias are also kept as lists of Python floats, which
    :func:`score_rows` reads for a lone row instead of the arrays; the word
    block is not, since that row takes only a few of its rows.
    """

    words: np.ndarray  # (vocabulary + 1) x columns
    shallow: np.ndarray  # N_SHALLOW x columns
    bias: np.ndarray  # columns
    n_labels: int
    skipped: list[int]  # columns of the labels without a classifier
    shallow_lists: list[list[float]]  # shallow's rows
    bias_list: list[float]

    @staticmethod
    def of(model: "MultiLabelModel") -> "StackedWeights":
        labels, n_words = model.catalog.labels, len(model.vocabulary)
        columns = max(len(labels), 2)
        words = np.zeros((n_words + 1, columns))
        shallow = np.zeros((N_SHALLOW, columns))
        bias = np.zeros(columns)
        skipped = []
        for j, name in enumerate(labels):
            clf = model.classifiers.get(name)
            if clf is None:
                skipped.append(j)
                continue
            words[:n_words, j] = clf.weights[:n_words]
            shallow[:, j] = clf.weights[n_words:]
            bias[j] = clf.bias
        return StackedWeights(words, shallow, bias, len(labels), skipped, shallow.tolist(),
                              bias.tolist())


def fit_multilabel(data: TrainingData, config: RunConfig) -> MultiLabelModel:
    """Binary relevance: balance and fit one classifier per catalog label.

    Labels with no positive (or no negative) training examples cannot be
    balanced or fit; they are skipped and recorded on the model.
    """
    return fit_multilabel_grid(data, config, [config.hyperparams])[0]


def fit_multilabel_grid(
    data: TrainingData, config: RunConfig, points: Sequence[Hyperparams]
) -> list[MultiLabelModel]:
    """:func:`fit_multilabel` once per hyperparameter point, in point order.

    Model j is the one ``fit_multilabel`` fits under ``points[j]``. Each
    label is SMOTE-balanced once for all points, since balancing depends on
    ``smote_k`` and the seed but not on ``C`` or ``fit_bias``.

    X's operator is built once, and its kernel rule picks the kernel for
    every label, which fits on its :class:`_SmoteView` over that operator.
    When X has more than _PRODUCT_OVERHEAD entries no synthetic row is
    built, whichever the kernel, and the weights differ from a dense
    build's in their last bits; a smaller X, as acceptance criterion 08's
    toy data and the folds of a nested CV on a few dozen turns have, has
    each label's balanced rows written and multiplied by BLAS.
    """
    n = data.X.shape[0]
    if n == 0:
        raise ValueError("empty training dataset")
    if len(data.label_sets) != n:
        raise ValueError("label_sets length does not match the design matrix")

    X = np.asarray(data.X, dtype=np.float64)
    shared = _Design(X)
    fits: dict[str, list[BinaryClassifier]] = {}
    skipped: list[SkippedLabel] = []
    for name in data.catalog.labels:
        member = np.array([name in ls for ls in data.label_sets])
        n_pos = int(member.sum())
        if n_pos == 0:
            skipped.append(SkippedLabel(name, "no positive training examples"))
        elif n_pos == n:
            skipped.append(SkippedLabel(name, "no negative training examples"))
        else:
            view = _SmoteView(shared, member, config.smote_k, derive_seed(config.seed, name))
            # one operator for every point
            fits[name] = [_newton_fit(view, view.y, point, name) for point in points]
            del view  # freed before the next label's draws
    return [
        MultiLabelModel(
            classifiers={name: fitted[j] for name, fitted in fits.items()},
            vocabulary=data.vocabulary,
            scaling=data.scaling,
            catalog=data.catalog,
            skipped=list(skipped),
            config=replace(config, hyperparams=point),
        )
        for j, point in enumerate(points)
    ]


class _SmoteView:
    """One label's SMOTE-balanced rows of X as the solver multiplies by
    them, and the one code that lays them out: positives, then negatives,
    each side's synthetic rows after its real ones, as
    :func:`~speechacts.balance.smote_balance` returns them, with targets ``y``.

    A synthetic row is x_s + r * (x_nb - x_s) over two minority rows of X,
    drawn as :func:`~speechacts.balance.oversample` draws them. When X has
    more than _PRODUCT_OVERHEAD entries none is built, whichever kernel X's
    operator ``design`` runs: ``dot(v)`` takes z = X v once and gives
    z_s + r * (z_nb - z_s), and ``tdot(c)`` folds a synthetic row's entry of
    c into its start and its neighbour, (1 - r) c and r c, before one
    product with X.T. Both equal the rows' products up to rounding. A
    smaller X's operator is BLAS's; there the rows are written, bit for bit
    as oversample builds them, and multiplied by BLAS, so a fit equals
    :func:`fit_binary` on them wherever that takes BLAS too.
    """

    def __init__(self, design: _Design, member: np.ndarray, smote_k: int, seed: int):
        positives, negatives = np.flatnonzero(member), np.flatnonzero(~member)
        need = len(negatives) - len(positives)
        minority, at = (positives, len(positives)) if need > 0 else (negatives, len(member))
        need = abs(need)
        # oversample copies a lone minority row: r = 0 would turn a -0.0 into +0.0
        drawn = len(minority) > 1 and need > 0
        if drawn:
            starts, neighbors, r = _draws(design.X[minority], need, smote_k, seed)
        else:
            starts = neighbors = np.zeros(need, dtype=np.intp)
            r = np.zeros(need)
        # X's row for each balanced row: a synthetic row's start
        self.rows = np.insert(np.concatenate([positives, negatives]), at, minority[starts])
        self.neighbors, self.r = minority[neighbors], r
        self.synthetic = slice(at, at + need)
        self.y = np.zeros(len(self.rows))
        self.y[: max(len(positives), len(negatives))] = 1.0
        self.design, self.shape = design, (len(self.rows), design.shape[1])
        del positives, negatives, minority, starts, neighbors  # freed before the layout's arrays
        self.X = None if design.X.size > _PRODUCT_OVERHEAD else design.X[self.rows]
        if self.X is None:
            # row i's entry of c, times keep[i], goes to X's row rows[i], and a
            # synthetic row's, times r, also to its neighbour
            self.keep = np.ones(len(self.rows))
            self.keep[self.synthetic] -= r
            self.targets = np.concatenate([self.rows, self.neighbors])
        elif drawn:
            start = self.X[self.synthetic]
            start += r[:, None] * (design.X[self.neighbors] - start)

    def dot(self, v: np.ndarray) -> np.ndarray:
        if self.X is not None:
            return self.X @ v
        z = self.design.dot(v)
        out = z[self.rows]
        start = out[self.synthetic]
        start += self.r * (z[self.neighbors] - start)
        return out

    def tdot(self, c: np.ndarray) -> np.ndarray:
        if self.X is not None:
            return self.X.T @ c
        weights = np.concatenate([c * self.keep, self.r * c[self.synthetic]])
        return self.design.tdot(np.bincount(self.targets, weights, self.design.shape[0]))


# padded word ids per score_rows block: 2**16 ids gather 5.8 MB at 11 labels
_PADDED_IDS = 1 << 16


def _word_sums(words: np.ndarray, word_ids: Sequence[Sequence[int]]) -> np.ndarray:
    """Each row's word weights summed left to right in id order."""
    if len(word_ids) == 1:
        return words.take(word_ids[0], axis=0).sum(axis=0)
    lengths = np.fromiter(map(len, word_ids), np.intp, len(word_ids))
    width = int(lengths.max(initial=0))
    block = max(1, _PADDED_IDS // max(width, 1))
    if len(word_ids) > block:  # one long turn would pad every other row to its length
        return np.vstack([_word_sums(words, word_ids[i:i + block])
                          for i in range(0, len(word_ids), block)])
    padded = np.full((len(word_ids), width), -1, dtype=np.intp)
    padded[np.arange(width) < lengths[:, None]] = np.fromiter(
        itertools.chain.from_iterable(word_ids), np.intp, int(lengths.sum()))
    return words.take(padded, axis=0).sum(axis=1)


def _probabilities(stack: StackedWeights, word_sums: np.ndarray, shallow: np.ndarray) -> np.ndarray:
    terms = shallow[:, :, None] * stack.shallow
    z = word_sums + terms[:, 0]
    z += terms[:, 1]
    z += terms[:, 2]
    z += stack.bias
    probs = sigmoid(z)[:, : stack.n_labels]
    if stack.skipped:
        probs[:, stack.skipped] = 0.0
    return probs


def _row_probabilities(
    stack: StackedWeights, ids: Sequence[int], scaled: Sequence[float]
) -> list[float]:
    """:func:`_probabilities` of one row in Python floats: the same IEEE
    operations in the same order, and the exponentials from one np.exp call
    (math.exp may differ from it in the last bit)."""
    s0, s1, s2 = scaled
    w0, w1, w2 = stack.shallow_lists
    z = [((ws + s0 * a) + s1 * b) + s2 * c + bias
         for ws, a, b, c, bias in zip(_word_sums(stack.words, [ids]).tolist(), w0, w1, w2,
                                      stack.bias_list)]
    ez = np.exp([-abs(v) for v in z]).tolist()
    probs = [(1.0 if v >= 0 else e) / (e + 1.0) for v, e in zip(z, ez)]
    for j in stack.skipped:
        probs[j] = 0.0
    return probs[: stack.n_labels]


def score_rows(model: MultiLabelModel, rows: Sequence[tuple]) -> list[list[float]]:
    """Per-label probabilities of n turns: one row of floats per turn, one
    per catalog label in catalog order; a skipped label's is 0.0.

    Each row is a :func:`~speechacts.featurize.turn_row` result: the
    ascending column ids of the turn's distinct in-vocabulary tokens, and
    its scaled shallow features. A row's probabilities do not depend on the
    other rows: its word weights are summed left to right in id order, then
    the three shallow terms and the bias are added one by one, whatever the
    batch. A lone row, as serve scores, takes this arithmetic in Python
    floats (:func:`_row_probabilities`), where numpy's fixed cost per call
    would outweigh its arithmetic; Python rounds each operation as numpy's
    float64 does, and the exponentials come from np.exp as the batch's do,
    so its bits are the batch's.
    """
    stack = model.stacked
    if len(rows) == 1:
        return [_row_probabilities(stack, *rows[0])]
    word_ids = [ids for ids, _ in rows]
    shallow = np.asarray([scaled for _, scaled in rows], np.float64).reshape(len(rows), N_SHALLOW)
    return _probabilities(stack, _word_sums(stack.words, word_ids), shallow).tolist()


def predict_proba(model: MultiLabelModel, vector: np.ndarray) -> dict[str, float]:
    """Per-label probability of membership; skipped labels map to 0.0.

    ``vector`` is a dense row: the word columns, then the scaled shallow
    features. It meets the stacked weights that :func:`score_rows` reads,
    each word column times its weights, summed in column order.
    """
    dense = np.asarray(vector, dtype=np.float64)
    if dense.shape != (model.feature_width,):
        raise ValueError(
            f"feature width mismatch: vector has {dense.shape}, model wants ({model.feature_width},)"
        )
    n_words, stack = len(model.vocabulary), model.stacked
    word_sums = (dense[:n_words, None] * stack.words[:n_words]).sum(axis=0)
    probs = _probabilities(stack, word_sums, dense[None, n_words:])
    return dict(zip(model.catalog.labels, probs[0].tolist()))


def label_positions(model: MultiLabelModel, row: Sequence[float]) -> tuple[list[int], bool]:
    """The labelling rule over one turn's probabilities, in catalog order:
    the chosen labels' catalog positions, in label-name order, and the
    low-confidence flag.

    A label is chosen when its probability reaches the model's
    config.threshold. None chosen flags low confidence; with config.fallback
    set, the first highest probability in catalog order is chosen then.
    """
    config = model.config
    threshold = config.threshold
    chosen = [j for j in model.catalog.name_order if row[j] >= threshold]
    if chosen or not config.fallback:
        return chosen, not chosen
    return [max(range(len(row)), key=row.__getitem__)], True


def predict_conversation(
    model: MultiLabelModel, conversation: Conversation
) -> list[list[float] | None]:
    """Each turn's probability row as ``predict`` writes it and ``serve``
    answers it: one context pass over the conversation and one
    :func:`score_rows` call for its participant turns; None for every other
    turn."""
    scored = [turn.speaker == PARTICIPANT for turn in conversation.turns]
    contexts = conversation_context(conversation, model.config.slen_scope)
    rows = [turn_row(tokens, shallow, model.vocabulary, model.scaling)
            for is_scored, (tokens, shallow) in zip(scored, contexts) if is_scored]
    probabilities = iter(score_rows(model, rows))
    return [next(probabilities) if is_scored else None for is_scored in scored]


def fit_contexts(
    examples: Sequence[ModelingExample],
    contexts: Sequence,
    catalog: LabelCatalog,
    config: RunConfig,
    points: Sequence[Hyperparams] | None = None,
) -> list[MultiLabelModel]:
    """Vocabulary, scaling and one model per point, fit on a training split
    from its precomputed :func:`~speechacts.featurize.example_contexts`: the
    one path from a split to models, for ``train`` and each CV fold.
    Without points, the one point is config.hyperparams, or with config.tune
    set the one an inner search on these examples alone picks."""
    if points is None and config.tune:
        from . import evaluate  # deferred: evaluate drives this module's fits

        grid = expand_grid(config.tuning_grid, config.hyperparams)
        points = [evaluate.tune_on_contexts(examples, contexts, catalog, grid, config)]
    vocabulary, scaling = fit_from_contexts(contexts)
    data = TrainingData(
        X=matrix_from_contexts(contexts, vocabulary, scaling),
        label_sets=[ex.labels for ex in examples],
        catalog=catalog,
        vocabulary=vocabulary,
        scaling=scaling,
    )
    return fit_multilabel_grid(data, config, points or [config.hyperparams])


def train_model(
    examples: Sequence[ModelingExample],
    catalog: LabelCatalog,
    config: RunConfig,
) -> MultiLabelModel:
    """Featurize a training set and fit the multi-label model.

    With config.tune set, a grid search picks the hyperparameters first
    (inner cross-validation on these examples only). Each conversation's
    context runs once, for the search and the final fit.
    """
    if not examples:
        raise ValueError("no training examples")
    return fit_contexts(examples, example_contexts(examples, config.slen_scope), catalog,
                        config)[0]


def _payload(model: MultiLabelModel) -> dict:
    return {
        "catalog": catalog_to_dict(model.catalog),
        "vocabulary": model.vocabulary.token_list,
        "scaling": {"means": list(model.scaling.means), "stds": list(model.scaling.stds)},
        # echoed from config for readers of the file that skip config
        "threshold": model.config.threshold,
        "slen_scope": model.config.slen_scope,
        "classifiers": {
            name: {
                "weights": clf.weights.tolist(),
                "bias": clf.bias,
                "hyperparams": clf.hyperparams.as_dict(),
                "iterations": clf.iterations,
                "final_loss": clf.final_loss,
                "grad_norm": clf.grad_norm,
                "converged": clf.converged,
            }
            for name, clf in model.classifiers.items()
        },
        "skipped": [{"label": s.label, "reason": s.reason} for s in model.skipped],
        "config": model.config.as_dict(),
    }


def _canonical(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True,
                      allow_nan=False)


def model_to_document(model: MultiLabelModel) -> str:
    """Serialize to the checksummed model-file document (byte-stable).

    The document is ``_canonical`` of ``{"format_version", "checksum",
    "payload"}``. Its keys sort as checksum, format_version, payload, and a
    nested value encodes as it does alone, so the payload is encoded once,
    hashed and spliced in."""
    payload = _canonical(_payload(model))
    checksum = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return (f'{{"checksum":"{checksum}","format_version":{MODEL_FORMAT_VERSION},'
            f'"payload":{payload}}}\n')


def save_model(model: MultiLabelModel, path: Union[str, Path]) -> None:
    """Write the model document to path with
    :func:`~speechacts.corpus.write_document`."""
    write_document(path, model_to_document(model))


def model_from_document(text: str) -> MultiLabelModel:
    """The model a model-file document holds, checked as a file is."""
    try:
        doc = decode_record(text)
    except ValueError as exc:
        raise ModelCorruptError(f"model file is {exc}") from exc
    return _model_from_json(doc, text)


def load_model(path: Union[str, Path]) -> MultiLabelModel:
    """The model in the file at path, read with
    :func:`~speechacts.corpus.read_document`. A file that is not UTF-8 or
    JSON, or is tampered or malformed, is a :class:`ModelCorruptError`, one
    of another format version a :class:`ModelVersionError`; both name it."""
    try:
        return _model_from_json(*read_document_text(path))
    except ModelFormatError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except ValueError as exc:  # read_document's, which names the path
        raise ModelCorruptError(str(exc)) from exc


def _model_from_json(doc, text: str) -> MultiLabelModel:
    """The model of a decoded model-file document: format version,
    checksum and payload checked.

    When ``text``, the document as written, is exactly what
    :func:`model_to_document` writes for the model its payload builds, that
    model is the answer, for one payload encode: the full checks would pass
    it, since canonical JSON decodes and re-encodes to itself. Any other
    outcome, a failed build included, goes through the full checks."""
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise ModelCorruptError("model file lacks a format_version")
    version = doc["format_version"]
    if version != MODEL_FORMAT_VERSION:
        raise ModelVersionError(f"unsupported model format_version {version!r}")
    if "checksum" not in doc or "payload" not in doc:
        raise ModelCorruptError("model file lacks checksum or payload")
    payload = doc["payload"]
    if text.startswith('{"checksum":"') and text.endswith("}\n"):
        try:
            model = _model_from_payload(payload)
            if model_to_document(model) == text:
                return model
        except Exception:  # judged, with its precedence, by the checks below
            pass
    canonical = _canonical(payload)
    if hashlib.sha256(canonical.encode("utf-8")).hexdigest() != doc["checksum"]:
        raise ModelCorruptError("model file checksum mismatch")
    try:
        model = _model_from_payload(payload)
        for name, clf in model.classifiers.items():  # a null weight reads as NaN
            if not np.isfinite(clf.weights).all():
                raise ValueError(f"classifier {name!r} has a weight that is not a finite number")
        # a field the loader coerced (a true bias, a string flag) writes back changed
        if _canonical(_payload(model)) != canonical:
            raise ValueError("it does not re-encode as written")
        return model
    except ModelFormatError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelCorruptError(f"model payload malformed: {exc}") from exc


def _model_from_payload(payload) -> MultiLabelModel:
    """The model a model file's payload describes; a malformed payload
    raises an AttributeError (a list where an object belongs), KeyError,
    TypeError or ValueError, or an OverflowError for a number past the float
    range (a ModelCorruptError for a weight vector of the wrong width)."""
    catalog = catalog_from_dict(payload["catalog"])
    if not all(isinstance(token, str) for token in payload["vocabulary"]):
        raise ValueError("vocabulary tokens must be strings")
    vocabulary = Vocabulary.from_tokens(payload["vocabulary"])
    means, stds = (tuple(map(float, payload["scaling"][key])) for key in ("means", "stds"))
    if len(means) != N_SHALLOW or len(stds) != N_SHALLOW:
        raise ValueError(f"scaling must hold {N_SHALLOW} means and {N_SHALLOW} stds")
    scaling = ScalingParams(means, stds)
    # the stored threshold and scope pass the same checks as a run's
    config = replace(config_from_dict(payload["config"]), threshold=payload["threshold"],
                     slen_scope=payload["slen_scope"])
    width = len(vocabulary) + N_SHALLOW
    classifiers = {}
    for name, blob in payload["classifiers"].items():
        weights = np.asarray(blob["weights"], dtype=np.float64)
        if weights.shape != (width,):
            raise ModelCorruptError(
                f"classifier {name!r} has width {weights.shape}, expected ({width},)"
            )
        classifiers[name] = BinaryClassifier(
            weights=weights,
            bias=float(blob["bias"]),
            hyperparams=hyperparams_from_dict(blob["hyperparams"]),
            label=name,
            iterations=int(blob["iterations"]),
            final_loss=float(blob["final_loss"]),
            grad_norm=float(blob["grad_norm"]),
            converged=bool(blob["converged"]),
        )
    skipped = [SkippedLabel(s["label"], s["reason"]) for s in payload["skipped"]]
    if not all(isinstance(s.label, str) and isinstance(s.reason, str) for s in skipped):
        raise ValueError("skipped labels and reasons must be strings")
    unknown = set(classifiers).union(s.label for s in skipped) - set(catalog.labels)
    if unknown:
        raise ValueError(f"labels {sorted(unknown)} are not in the catalog")
    return MultiLabelModel(
        classifiers=classifiers,
        vocabulary=vocabulary,
        scaling=scaling,
        catalog=catalog,
        skipped=skipped,
        config=config,
    )
