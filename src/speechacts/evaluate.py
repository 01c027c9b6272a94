"""Cross-validation harness, per-label metrics, and feature rankings.

Folds come from iterative stratification at label-set granularity: a count
table with one row per distinct label set and one column per fold, planned
so that every label's positives and every fold's size stay within one of
their proportional share. Metrics are computed per fold, arithmetically
averaged per label across folds, and finally combined into one
support-weighted row; supports are therefore fold means and may be
fractional.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import classifier as clf_mod
from .config import Hyperparams, RunConfig
from .corpus import LabelCatalog, ModelingExample
from .featurize import (
    example_contexts,
    feature_names,
    fit_from_contexts,
    matrix_from_contexts,
    turn_row,
)

AVG_LABEL = "avg/total"


@dataclass(frozen=True)
class StratificationViolation:
    fold: int
    label: str
    positives: int
    ideal_share: float


@dataclass
class FoldPlan:
    n_folds: int
    assignment: dict[int, int]  # example position -> fold id
    seed: int
    violations: list[StratificationViolation] = field(default_factory=list)

    def members(self, fold: int) -> list[int]:
        return [i for i, f in self.assignment.items() if f == fold]


def _best_step(
    table: np.ndarray, member: np.ndarray, totals: np.ndarray, weight: int
) -> list[tuple[int, int, int]]:
    """The single move, or failing that the swap, that most lowers the
    potential, as (signature, from fold, to fold) triples; [] if none does.

    ``member`` marks the labels each signature carries, with a last column
    of ones so that fold sizes are stratified like labels. A cell's scaled
    deviation ``n_folds * count - total`` is an integer, in band when it is
    within ``n_folds``. The potential sums over cells the squared deviation
    plus ``weight`` times the out-of-band excess. It is convex per cell, so
    a step within one fold never lowers it and needs no mask.
    """
    n_folds = table.shape[1]

    def potential(dev):
        return weight * np.maximum(np.abs(dev) - n_folds, 0) + dev * dev

    dev = n_folds * (member.T @ table) - totals[:, None]
    here = potential(dev)
    out = potential(dev - n_folds) - here  # a cell loses one example
    into = potential(dev + n_folds) - here  # a cell gains one
    held = table > 0
    # move[s, a, b]: one example of signature s goes from fold a to fold b
    move = (member @ out)[:, :, None] + (member @ into)[:, None, :]
    move[~held] = 0
    s, a, b = np.unravel_index(np.argmin(move), move.shape)
    if move[s, a, b] < 0:
        return [(s, a, b)]
    # swap[t, a, b]: s goes a -> b and t comes back b -> a; a label both
    # carry does not change. One s at a time keeps memory O(rows x folds²).
    square = (member.shape[1], n_folds * n_folds)
    there = (out[:, :, None] + into[:, None, :]).reshape(square)
    back = (into[:, :, None] + out[:, None, :]).reshape(square)
    returns = (member @ back).reshape(-1, n_folds, n_folds)
    shared = there + back
    best, step = 0, []
    for s in range(len(table)):
        carried = member[s] == 1
        swap = there[carried].sum(0).reshape(n_folds, n_folds) + returns
        swap -= (member[:, carried] @ shared[carried]).reshape(swap.shape)
        swap *= held[:, None, :]  # t needs an example in fold b
        swap[:, ~held[s]] = 0  # and s one in fold a
        t, a, b = np.unravel_index(np.argmin(swap), swap.shape)
        if swap[t, a, b] < best:
            best, step = swap[t, a, b], [(s, a, b), (t, b, a)]
    return step


def stratified_kfold(
    label_sets: Sequence[frozenset[str]], n_folds: int = 5, seed: int = 0
) -> FoldPlan:
    """Iterative stratification of a multi-label dataset into folds.

    Examples with the same label set (its signature) are interchangeable,
    so the plan is a table of counts, one row per signature and one column
    per fold. Each signature's count is dealt round-robin, then the table is
    hill-climbed by moves and swaps of single examples until every label's
    per-fold positive count, and every fold size, is within one of its
    proportional share wherever that can be reached; whatever remains is
    reported as a violation. Finally each signature's folds are filled with
    its example ids in seed-shuffled order. Deterministic for a seed; the
    seed decides which examples of a signature go where, not the counts.
    """
    n = len(label_sets)
    if n_folds < 2:
        raise ValueError("n_folds must be >= 2")
    if n < n_folds:
        raise ValueError(f"dataset of {n} examples is smaller than {n_folds} folds")

    all_labels = sorted({name for ls in label_sets for name in ls})
    signatures = sorted(set(label_sets), key=sorted)
    row = {sig: s for s, sig in enumerate(signatures)}
    rows = np.array([row[ls] for ls in label_sets])
    member = np.array(
        [[name in sig for name in all_labels] + [True] for sig in signatures], dtype=np.int64
    )
    totals = member.T @ np.bincount(rows, minlength=len(signatures))
    # deal round-robin: the j-th example in signature order goes to fold j mod n_folds
    table = np.bincount(
        np.sort(rows) * n_folds + np.arange(n) % n_folds, minlength=len(signatures) * n_folds
    ).reshape(-1, n_folds)
    # first spread every count evenly, then push what is still out of band
    # back in. A step shifts at most 2 * member.shape[1] cells by n_folds,
    # each |dev| <= n_folds * n, so the weight outbids any change in squares;
    # int64 holds weight * excess to millions of examples at 26 labels.
    for weight in (0, 4 * member.shape[1] * n_folds**2 * (n + 1)):
        while step := _best_step(table, member, totals, weight):
            for s, src, dst in step:
                table[s, src] -= 1
                table[s, dst] += 1

    order = np.random.default_rng(seed).permutation(n)
    ids = order[np.argsort(rows[order], kind="stable")]  # by signature, shuffled within
    assignment = np.empty(n, dtype=np.int64)
    assignment[ids] = np.repeat(np.tile(np.arange(n_folds), len(signatures)), table.ravel())
    positives = member[:, :-1].T @ table
    violations = [
        StratificationViolation(f, name, int(positives[l, f]), int(totals[l]) / n_folds)
        for l, name in enumerate(all_labels)
        for f in range(n_folds)
        if abs(n_folds * positives[l, f] - totals[l]) > n_folds
    ]
    return FoldPlan(
        n_folds=n_folds, assignment=dict(enumerate(assignment.tolist())), seed=seed,
        violations=violations,
    )


@dataclass
class MetricsRow:
    label: str
    precision: float
    recall: float
    f_measure: float
    support: float


@dataclass
class MetricsReport:
    rows: list[MetricsRow]
    average_row: MetricsRow
    fold_rows: list[list[MetricsRow]] = field(default_factory=list)


def per_label_metrics(
    gold: Sequence[frozenset[str]],
    predicted: Sequence[frozenset[str]],
    catalog: LabelCatalog,
) -> list[MetricsRow]:
    """One fold's precision/recall/F/support per catalog label.

    Zero denominators yield 0; support counts gold positives (tp + fn).
    """
    if len(gold) != len(predicted):
        raise ValueError(f"length mismatch: {len(gold)} gold vs {len(predicted)} predicted")
    rows = []
    for name in catalog.labels:
        tp = sum(1 for g, p in zip(gold, predicted) if name in g and name in p)
        fp = sum(1 for g, p in zip(gold, predicted) if name not in g and name in p)
        fn = sum(1 for g, p in zip(gold, predicted) if name in g and name not in p)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        rows.append(MetricsRow(name, precision, recall, f, float(tp + fn)))
    return rows


def average_rows_across_folds(fold_rows: Sequence[Sequence[MetricsRow]]) -> list[MetricsRow]:
    """Unweighted arithmetic mean per label across folds, field by field."""
    if not fold_rows:
        raise ValueError("no fold rows to average")
    labels = [row.label for row in fold_rows[0]]
    for rows in fold_rows:
        if [row.label for row in rows] != labels:
            raise ValueError("folds disagree on label rows")
    n = len(fold_rows)
    averaged = []
    for pos, name in enumerate(labels):
        averaged.append(
            MetricsRow(
                label=name,
                precision=sum(rows[pos].precision for rows in fold_rows) / n,
                recall=sum(rows[pos].recall for rows in fold_rows) / n,
                f_measure=sum(rows[pos].f_measure for rows in fold_rows) / n,
                support=sum(rows[pos].support for rows in fold_rows) / n,
            )
        )
    return averaged


def weighted_average(rows: Sequence[MetricsRow]) -> MetricsRow:
    """Support-weighted mean of precision/recall/F; support is the plain mean."""
    if not rows:
        raise ValueError("no rows to average")
    total = sum(row.support for row in rows)
    if total <= 0:
        raise ValueError("total support is 0; weighted average undefined")
    return MetricsRow(
        label=AVG_LABEL,
        precision=sum(row.precision * row.support for row in rows) / total,
        recall=sum(row.recall * row.support for row in rows) / total,
        f_measure=sum(row.f_measure * row.support for row in rows) / total,
        support=total / len(rows),
    )


def featurize_fold(
    examples: Sequence[ModelingExample],
    plan: FoldPlan,
    fold: int,
    config: RunConfig,
):
    """Fit features on a fold's training split and matrix-ize both splits.

    Returns (train_examples, test_examples, vocabulary, scaling, X_train,
    X_test). Nothing from the test split touches the fitted state. Each
    conversation's context runs once, for both splits.
    """
    contexts = example_contexts(examples, config.slen_scope)
    train, test = _split(plan, fold, examples)
    train_contexts, test_contexts = _split(plan, fold, contexts)
    vocabulary, scaling = fit_from_contexts(train_contexts)
    X_train = matrix_from_contexts(train_contexts, vocabulary, scaling)
    X_test = matrix_from_contexts(test_contexts, vocabulary, scaling)
    return train, test, vocabulary, scaling, X_train, X_test


def _split(plan: FoldPlan, fold: int, items: Sequence) -> tuple[list, list]:
    """The items of a fold's training split and of its held-out split, the
    i-th item going where the plan puts example i."""
    train, test = [], []
    for i, item in enumerate(items):
        (test if plan.assignment[i] == fold else train).append(item)
    return train, test


def cross_validate(
    examples: Sequence[ModelingExample],
    catalog: LabelCatalog,
    config: RunConfig,
) -> MetricsReport:
    """Stratified k-fold evaluation of the full train/predict pipeline.

    Per fold: vocabulary, scaling, and SMOTE see only the training split;
    the test split is predicted untouched. With config.tune set, each fold
    grid-searches hyperparameters on its own training split first (nested
    cross-validation). Per-fold rows are averaged per label and then
    combined support-weighted. Each stratification violation of the fold
    plan is reported as a RuntimeWarning.

    Each conversation's context runs once per call, nested search included:
    the folds and the inner folds only split the contexts, and build their
    own vocabulary, scaling and matrices from them. Each inner fold of the
    nested search balances each label once for all grid points.
    """
    examples = list(examples)
    contexts = example_contexts(examples, config.slen_scope)
    return cross_validate_grid(examples, contexts, catalog, config)[0]


def tune_on_contexts(
    examples: Sequence[ModelingExample],
    contexts: Sequence,
    catalog: LabelCatalog,
    grid: Sequence[Hyperparams],
    config: RunConfig,
) -> Hyperparams:
    """The grid point whose inner cross-validation scores the highest
    weighted F-measure, over ``config.inner_folds`` folds planned with
    ``config.seed``, from the examples' precomputed
    :func:`~speechacts.featurize.example_contexts`. Ties prefer the smaller
    C, then the earlier grid point.

    The inner folds re-fit vocabulary, scaling and SMOTE per fold, so the
    search never sees its own validation turns. One
    :func:`cross_validate_grid` over them scores every distinct grid point
    (a point listed twice is scored once), so per point only the per-label
    fits and the scoring of the held-out rows run.
    """
    if not grid:
        raise ValueError("empty hyperparameter grid")
    if len(examples) < config.inner_folds:
        raise ValueError(f"{len(examples)} examples cannot form {config.inner_folds} inner folds")
    points = list(dict.fromkeys(grid))
    inner = replace(config, n_folds=config.inner_folds)
    reports = cross_validate_grid(examples, contexts, catalog, inner, points)
    score = {point: report.average_row.f_measure for point, report in zip(points, reports)}
    best = max(range(len(grid)), key=lambda pos: (score[grid[pos]], -grid[pos].C, -pos))
    return grid[best]


def cross_validate_grid(
    examples: Sequence[ModelingExample],
    contexts: Sequence,
    catalog: LabelCatalog,
    config: RunConfig,
    points: Sequence[Hyperparams] | None = None,
) -> list[MetricsReport]:
    """One :func:`cross_validate` report per hyperparameter point, in order,
    from the examples' precomputed :func:`~speechacts.featurize.example_contexts`.

    The fold plan, and per fold the vocabulary, scaling, matrices, each
    label's SMOTE (:func:`~speechacts.classifier.fit_contexts`) and the
    held-out rows, are built once for all points; per point only the
    per-label fits and one :func:`~speechacts.classifier.score_rows` call
    run, whose rows :func:`~speechacts.classifier.label_positions` labels.
    Without points there is one report, of the point each fold's
    :func:`~speechacts.classifier.fit_contexts` picks: config.hyperparams,
    or with config.tune set (nested cross-validation) its inner search's.
    """
    plan = stratified_kfold([ex.labels for ex in examples], config.n_folds, config.seed)
    for v in plan.violations:
        warnings.warn(
            f"fold {v.fold}: label {v.label!r} has {v.positives} positives, "
            f"more than 1 away from its share of {v.ideal_share:.2f}",
            RuntimeWarning,
            stacklevel=3,
        )
    fold_rows: list[list[list[MetricsRow]]] = [[] for _ in points or [None]]
    names = catalog.labels
    for fold in range(config.n_folds):
        train, test = _split(plan, fold, examples)
        train_contexts, test_contexts = _split(plan, fold, contexts)
        models = clf_mod.fit_contexts(train, train_contexts, catalog, config, points)
        vocabulary, scaling = models[0].vocabulary, models[0].scaling
        gold = [ex.labels for ex in test]
        held_out = [turn_row(tokens, raw, vocabulary, scaling) for tokens, raw in test_contexts]
        for rows, model in zip(fold_rows, models):
            predicted = [frozenset([names[j] for j in clf_mod.label_positions(model, probs)[0]])
                         for probs in clf_mod.score_rows(model, held_out)]
            rows.append(per_label_metrics(gold, predicted, catalog))
    reports = []
    for rows_per_fold in fold_rows:
        rows = average_rows_across_folds(rows_per_fold)
        reports.append(
            MetricsReport(rows=rows, average_row=weighted_average(rows), fold_rows=rows_per_fold)
        )
    return reports


def fisher_score(values: Sequence[float], membership: Sequence[bool]) -> float:
    """Fisher discriminant ratio of one feature column against a label.

    Between-class spread of the two group means around the overall mean,
    over the summed sample variances. A zero denominator with spread ranks
    as +inf; 0/0 is 0. A group smaller than 2 has no sample variance: the
    score is reported as 0 with a warning.
    """
    values = [float(v) for v in values]
    membership = list(membership)
    if len(values) != len(membership):
        raise ValueError("values and membership lengths differ")
    pos = [v for v, m in zip(values, membership) if m]
    neg = [v for v, m in zip(values, membership) if not m]
    if not pos or not neg:
        raise ValueError("both membership values must be present")
    if len(pos) < 2 or len(neg) < 2:
        warnings.warn(
            f"fisher score undefined with a side of {min(len(pos), len(neg))} example(s); reporting 0",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0

    mean_all = sum(values) / len(values)
    mean_pos = sum(pos) / len(pos)
    mean_neg = sum(neg) / len(neg)
    numerator = (mean_pos - mean_all) ** 2 + (mean_neg - mean_all) ** 2
    var_pos = sum((v - mean_pos) ** 2 for v in pos) / (len(pos) - 1)
    var_neg = sum((v - mean_neg) ** 2 for v in neg) / (len(neg) - 1)
    denominator = var_pos + var_neg
    if denominator == 0.0:
        return math.inf if numerator > 0.0 else 0.0
    return numerator / denominator


@dataclass
class FeatureRanking:
    label: str
    ranked: list[tuple[str, float]]  # (feature name, fisher score), best first


def rank_features(
    X: np.ndarray,
    label_sets: Sequence[frozenset[str]],
    names: Sequence[str],
    label: str,
    top_n: int = 10,
) -> FeatureRanking:
    """Rank feature columns by fisher score against one label's membership.

    Descending by score; exact ties order lexicographically by feature name.
    """
    if X.shape[1] != len(names):
        raise ValueError("feature-name list does not match matrix width")
    membership = [label in ls for ls in label_sets]
    if not any(membership):
        raise ValueError(f"label {label!r} has no positive examples")
    if all(membership):
        raise ValueError(f"label {label!r} has no negative examples")
    scored = [
        (name, fisher_score(X[:, col].tolist(), membership))
        for col, name in enumerate(names)
    ]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return FeatureRanking(label=label, ranked=scored[:top_n] if top_n else scored)


def rank_features_for_examples(
    examples: Sequence[ModelingExample],
    catalog: LabelCatalog,
    labels: Sequence[str],
    top_n: int = 10,
    scope: str = "same",
) -> list[FeatureRanking]:
    """Featurize the whole dataset once and rank its columns for each of
    ``labels``, in that order. A label without both positive and negative
    examples is skipped with a warning; one not in the catalog is a
    ValueError."""
    for label in labels:
        if label not in catalog.label_set:
            raise ValueError(f"label {label!r} is not in the catalog")
    contexts = example_contexts(examples, scope)
    vocabulary, scaling = fit_from_contexts(contexts)
    X = matrix_from_contexts(contexts, vocabulary, scaling)
    names = feature_names(vocabulary)
    label_sets = [ex.labels for ex in examples]
    rankings = []
    for label in labels:
        if any(label in ls for ls in label_sets) and not all(label in ls for ls in label_sets):
            rankings.append(rank_features(X, label_sets, names, label, top_n))
        else:
            warnings.warn(f"skipping {label}: needs both positive and negative examples",
                          stacklevel=2)
    return rankings
