"""Binary-relevance multi-label classifier over regularized logistic regression.

One L2-regularized logistic-regression classifier is trained per catalog
label on that label's SMOTE-balanced binary view of the training data. The
trained bundle (classifiers + vocabulary + scaling + catalog + threshold)
persists as a single checksummed JSON document.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import secrets
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import IO, Sequence, Union

import numpy as np

from .balance import derive_seed, oversample
from .config import Hyperparams, RunConfig, expand_grid, hyperparams_from_dict
from .corpus import LabelCatalog, ModelingExample, catalog_from_dict, decode_record
from .featurize import (
    N_SHALLOW,
    SAME_SPEAKER,
    ScalingParams,
    Vocabulary,
    example_contexts,
    fit_from_contexts,
    matrix_from_contexts,
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
    z = np.asarray(z, dtype=np.float64)
    ez = np.exp(-np.abs(z))
    denominator = 1.0 + ez
    out = np.where(z >= 0, 1.0 / denominator, ez / denominator)
    return out if out.ndim else float(out)


def loss_and_gradient(
    weights: np.ndarray,
    bias: float,
    X: np.ndarray,
    y: np.ndarray,
    C: float,
) -> tuple[float, np.ndarray, float]:
    """Mean log loss with L2 penalty, and its gradient.

    loss = mean NLL + ||w||^2 / (2 C n); the bias is not regularized.
    Returns (loss, weight gradient, bias gradient).
    """
    if X.shape[1] != weights.shape[0]:
        raise ValueError(f"dimension mismatch: X has {X.shape[1]} columns, weights {weights.shape[0]}")
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"dimension mismatch: {X.shape[0]} examples vs {y.shape[0]} targets")
    n = X.shape[0]
    z = X @ weights + bias
    # logaddexp(0, z) - y*z is -log p(y|z) without evaluating sigmoid near 0/1
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + float(weights @ weights) / (2.0 * C * n)
    residual = sigmoid(z) - y
    grad_w = (X.T @ residual) / n + weights / (C * n)
    grad_b = float(np.mean(residual))
    return loss, grad_w, grad_b


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
    X: np.ndarray, curvature: np.ndarray, v_w: np.ndarray, v_b: float, C: float, fit_bias: bool
) -> tuple[np.ndarray, float]:
    """Hessian of the training loss times the direction (v_w, v_b).

    The Hessian is X~' D X~ / n + diag(1, ..., 1, 0) / (C n) over the design
    matrix X~ = [X, 1] with the per-example curvature D = p (1 - p); the bias
    row is dropped (returned as 0) when the bias is not fit.
    """
    n = X.shape[0]
    scaled = curvature * (X @ v_w + v_b)
    h_w = (X.T @ scaled) / n + v_w / (C * n)
    h_b = float(scaled.sum()) / n if fit_bias else 0.0
    return h_w, h_b


def _newton_direction(
    X: np.ndarray, curvature: np.ndarray, grad_w: np.ndarray, grad_b: float, grad_norm: float,
    C: float, fit_bias: bool,
) -> tuple[np.ndarray, float]:
    """Approximately solve H d = -g by conjugate gradient, starting at d = 0."""
    d_w, d_b = np.zeros_like(grad_w), 0.0
    r_w, r_b = -grad_w, -grad_b
    p_w, p_b = r_w.copy(), r_b
    rr = float(r_w @ r_w) + r_b * r_b
    stop = min(_CG_FORCING_CAP, np.sqrt(grad_norm)) * grad_norm
    for _ in range(_CG_MAX_STEPS):
        if np.sqrt(rr) <= stop:
            break
        h_w, h_b = _hessian_product(X, curvature, p_w, p_b, C, fit_bias)
        curve = float(p_w @ h_w) + p_b * h_b
        if curve <= 0.0:  # no curvature left to exploit in floating point
            break
        alpha = rr / curve
        d_w, d_b = d_w + alpha * p_w, d_b + alpha * p_b
        r_w, r_b = r_w - alpha * h_w, r_b - alpha * h_b
        rr_next = float(r_w @ r_w) + r_b * r_b
        p_w, p_b = r_w + (rr_next / rr) * p_w, r_b + (rr_next / rr) * p_b
        rr = rr_next
    return d_w, d_b


def fit_binary_with_trace(
    X: np.ndarray,
    y: np.ndarray,
    hyperparams: Hyperparams = Hyperparams(),
    seed: int = 0,
    label: str = "",
) -> tuple[BinaryClassifier, list[float]]:
    """Like :func:`fit_binary`, also returning the loss at the start and
    after each Newton step."""
    del seed  # the fit is deterministic
    y = np.asarray(y, dtype=np.float64)
    present = set(np.unique(y).tolist())
    if not present.issuperset({0.0, 1.0}):
        raise ValueError(f"both target values required, got {sorted(present)}")

    C, fit_bias = hyperparams.C, hyperparams.fit_bias
    w = np.zeros(X.shape[1], dtype=np.float64)
    b = 0.0
    loss, grad_w, grad_b = loss_and_gradient(w, b, X, y, C)
    losses = [loss]
    iterations = 0
    while True:
        if not fit_bias:
            grad_b = 0.0
        grad_norm = float(np.sqrt(grad_w @ grad_w + grad_b * grad_b))
        if grad_norm <= hyperparams.tolerance or iterations == hyperparams.max_iterations:
            break
        p = sigmoid(X @ w + b)
        d_w, d_b = _newton_direction(X, p * (1.0 - p), grad_w, grad_b, grad_norm, C, fit_bias)
        slope = float(grad_w @ d_w) + grad_b * d_b
        step = 1.0
        accepted = None
        for _ in range(_ARMIJO_HALVINGS + 1):
            w_try, b_try = w + step * d_w, b + step * d_b
            trial = loss_and_gradient(w_try, b_try, X, y, C)
            if trial[0] <= loss + _ARMIJO_SLOPE * step * slope:
                accepted = (w_try, b_try, trial)
                break
            step *= 0.5
        if accepted is None:  # no decrease left that floating point can see
            break
        w, b, (loss, grad_w, grad_b) = accepted
        losses.append(loss)
        iterations += 1
    classifier = BinaryClassifier(
        weights=w,
        bias=b,
        hyperparams=hyperparams,
        label=label,
        iterations=iterations,
        final_loss=loss,
        grad_norm=grad_norm,
        converged=grad_norm <= hyperparams.tolerance,
    )
    return classifier, losses


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
    return fit_binary_with_trace(X, y, hyperparams, seed, label)[0]


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
    threshold: float = 0.5
    slen_scope: str = SAME_SPEAKER
    skipped: list[SkippedLabel] = field(default_factory=list)
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
    one-column block pairwise rather than left to right.
    """

    words: np.ndarray  # (vocabulary + 1) x columns
    shallow: np.ndarray  # N_SHALLOW x columns
    bias: np.ndarray  # columns
    n_labels: int
    skipped: list[int]  # columns of the labels without a classifier

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
        return StackedWeights(words, shallow, bias, len(labels), skipped)


@dataclass
class Prediction:
    probabilities: dict[str, float]
    labels: frozenset[str]
    low_confidence: bool


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
    ``smote_k`` and the seed but not on ``C`` or ``fit_bias``. The labels'
    balanced matrices are built in turn in one buffer, so one is held at a
    time and its pages are reused; a fresh matrix per label, freed before
    the next, took four times the page faults of a study ``train``.
    """
    n = data.X.shape[0]
    if n == 0:
        raise ValueError("empty training dataset")
    if len(data.label_sets) != n:
        raise ValueError("label_sets length does not match the design matrix")

    fits: dict[str, list[BinaryClassifier]] = {}
    skipped: list[SkippedLabel] = []
    buffer = np.empty((2 * n, data.X.shape[1]))  # holds any label's n + |need| rows
    for name in data.catalog.labels:
        member = np.array([name in ls for ls in data.label_sets])
        n_pos = int(member.sum())
        if n_pos == 0:
            skipped.append(SkippedLabel(name, "no positive training examples"))
        elif n_pos == n:
            skipped.append(SkippedLabel(name, "no negative training examples"))
        else:
            fits[name] = _fit_label(data.X, member, points, config.smote_k,
                                    derive_seed(config.seed, name), name, buffer)
    return [
        MultiLabelModel(
            classifiers={name: fitted[j] for name, fitted in fits.items()},
            vocabulary=data.vocabulary,
            scaling=data.scaling,
            catalog=data.catalog,
            threshold=config.threshold,
            slen_scope=config.slen_scope,
            skipped=list(skipped),
            config=replace(config, hyperparams=point),
        )
        for j, point in enumerate(points)
    ]


def _fit_label(
    X: np.ndarray, member: np.ndarray, points: Sequence[Hyperparams], smote_k: int, seed: int,
    name: str, buffer: np.ndarray,
) -> list[BinaryClassifier]:
    """One label's classifier per point, all fit on its one SMOTE-balanced
    view of X, which is built in the leading rows of buffer."""
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
    y_bal = np.zeros(len(X_bal))
    y_bal[:negatives] = 1.0
    return [fit_binary(X_bal, y_bal, point, seed, label=name) for point in points]


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


def score_rows(
    model: MultiLabelModel,
    word_ids: Sequence[Sequence[int]],
    shallow: Sequence[Sequence[float]],
) -> np.ndarray:
    """Per-label probabilities of n turns: n rows, one column per catalog
    label in catalog order; a skipped label's column is 0.0.

    Turn i is ``word_ids[i]``, the ascending column ids of its distinct
    in-vocabulary tokens, and ``shallow[i]``, its scaled shallow features
    (see :func:`~speechacts.featurize.turn_row`). A row's probabilities do
    not depend on the other rows: its word weights are summed left to
    right in id order, then the three shallow terms and the bias are added
    one by one, whatever the batch.
    """
    shallow = np.asarray(shallow, dtype=np.float64).reshape(len(word_ids), N_SHALLOW)
    return _probabilities(model.stacked, _word_sums(model.stacked.words, word_ids), shallow)


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


def _prediction(model: MultiLabelModel, probs: dict[str, float], fallback: bool) -> Prediction:
    chosen = frozenset(name for name, p in probs.items() if p >= model.threshold)
    if chosen:
        return Prediction(probs, chosen, low_confidence=False)
    if fallback:
        best = max(model.catalog.labels, key=lambda name: probs[name])
        return Prediction(probs, frozenset({best}), low_confidence=True)
    return Prediction(probs, frozenset(), low_confidence=True)


def predict_labels(
    model: MultiLabelModel, vector: np.ndarray, fallback: bool = False
) -> Prediction:
    """Threshold the per-label probabilities into a label set.

    An empty set flags low confidence; with the fallback enabled it is
    replaced by the single most probable label (catalog order breaks exact
    ties).
    """
    return _prediction(model, predict_proba(model, vector), fallback)


def predict_rows(
    model: MultiLabelModel,
    word_ids: Sequence[Sequence[int]],
    shallow: Sequence[Sequence[float]],
    fallback: bool = False,
) -> list[Prediction]:
    """:func:`predict_labels` of each turn that :func:`score_rows` takes."""
    labels = model.catalog.labels
    return [_prediction(model, dict(zip(labels, row)), fallback)
            for row in score_rows(model, word_ids, shallow).tolist()]


def tune(
    examples: Sequence[ModelingExample],
    catalog: LabelCatalog,
    grid: Sequence[Hyperparams],
    inner_folds: int = 3,
    seed: int = 0,
    base_config: RunConfig = RunConfig(),
) -> Hyperparams:
    """Grid search scored by inner-cross-validated weighted F-measure.

    The inner folds re-fit vocabulary, scaling, and SMOTE per fold, so the
    search never sees its own validation turns. Ties prefer the smaller C,
    then the earlier grid position.

    Work that does not depend on the grid point runs once: each turn's
    context once per call, and per inner fold the vocabulary, scaling,
    matrices and each label's SMOTE. Per grid point only the per-label fits
    and the scoring of the held-out rows run, so the scores are those of one
    :func:`~speechacts.evaluate.cross_validate` per point.
    """
    from . import evaluate  # deferred: evaluate drives this module's fits

    contexts = example_contexts(examples, base_config.slen_scope)
    return evaluate.tune_on_contexts(
        examples, contexts, catalog, grid, inner_folds, seed, base_config
    )


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
    contexts = example_contexts(examples, config.slen_scope)
    if config.tune:
        from . import evaluate  # deferred: evaluate drives this module's fits

        grid = expand_grid(config.tuning_grid, config.hyperparams)
        best = evaluate.tune_on_contexts(
            examples, contexts, catalog, grid, config.inner_folds, config.seed, config
        )
        config = replace(config, hyperparams=best)
    vocabulary, scaling = fit_from_contexts(contexts)
    X = matrix_from_contexts(contexts, vocabulary, scaling)
    data = TrainingData(
        X=X,
        label_sets=[ex.labels for ex in examples],
        catalog=catalog,
        vocabulary=vocabulary,
        scaling=scaling,
    )
    return fit_multilabel(data, config)


def _payload(model: MultiLabelModel) -> dict:
    return {
        "catalog": {
            "labels": list(model.catalog.labels),
            "excluded": sorted(model.catalog.excluded),
        },
        "vocabulary": model.vocabulary.token_list,
        "scaling": {"means": list(model.scaling.means), "stds": list(model.scaling.stds)},
        "threshold": model.threshold,
        "slen_scope": model.slen_scope,
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
    """Serialize to the checksummed model-file document (byte-stable)."""
    payload = _payload(model)
    checksum = hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()
    doc = {"format_version": MODEL_FORMAT_VERSION, "checksum": checksum, "payload": payload}
    return _canonical(doc) + "\n"


def save_model(model: MultiLabelModel, sink: Union[str, Path, IO[str]]) -> None:
    """Write the model document to a stream, or atomically to a path: into a
    temp file beside it that then replaces it, so a failed write leaves the
    path as it was and no temp file behind. Write errors name the path."""
    doc = model_to_document(model)
    if hasattr(sink, "write"):
        sink.write(doc)
        return
    # opened like any output file, so its mode follows the umask
    tmp_path = f"{os.path.abspath(sink)}.{secrets.token_hex(4)}.tmp"
    try:
        fh = open(tmp_path, "x", encoding="utf-8")
        try:
            with fh:
                fh.write(doc)
            os.replace(tmp_path, sink)
        except BaseException:
            os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(sink)) from exc


def model_from_document(text: str) -> MultiLabelModel:
    try:
        doc = decode_record(text)
    except ValueError as exc:
        raise ModelCorruptError(f"model file is {exc}") from exc
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise ModelCorruptError("model file lacks a format_version")
    version = doc["format_version"]
    if version != MODEL_FORMAT_VERSION:
        raise ModelVersionError(f"unsupported model format_version {version!r}")
    if "checksum" not in doc or "payload" not in doc:
        raise ModelCorruptError("model file lacks checksum or payload")
    payload = doc["payload"]
    checksum = hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()
    if checksum != doc["checksum"]:
        raise ModelCorruptError("model file checksum mismatch")

    try:
        catalog = catalog_from_dict(payload["catalog"])
        vocabulary = Vocabulary.from_tokens(payload["vocabulary"])
        scaling = ScalingParams(
            means=tuple(payload["scaling"]["means"]), stds=tuple(payload["scaling"]["stds"])
        )
        config = RunConfig(
            **{
                **payload["config"],
                "hyperparams": hyperparams_from_dict(payload["config"]["hyperparams"]),
            }
        )
        # the stored threshold and scope pass the same checks as a run's
        replace(config, threshold=payload["threshold"], slen_scope=payload["slen_scope"])
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
        return MultiLabelModel(
            classifiers=classifiers,
            vocabulary=vocabulary,
            scaling=scaling,
            catalog=catalog,
            threshold=float(payload["threshold"]),
            slen_scope=payload["slen_scope"],
            skipped=skipped,
            config=config,
        )
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelCorruptError(f"model payload malformed: {exc}") from exc


def load_model(source: Union[str, Path, IO[str]]) -> MultiLabelModel:
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    return model_from_document(text)
