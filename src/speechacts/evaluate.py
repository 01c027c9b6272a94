"""Cross-validation harness, per-label metrics, and feature rankings.

Folds come from iterative stratification so every label's positives stay
proportionally spread. Metrics are computed per fold, arithmetically
averaged per label across folds, and finally combined into one
support-weighted row; supports are therefore fold means and may be
fractional.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import classifier as clf_mod
from .config import RunConfig
from .corpus import LabelCatalog, ModelingExample
from .featurize import example_contexts, feature_names, fit_from_contexts, matrix_from_contexts

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


def _repair_assignment(
    assignment: dict[int, int],
    label_sets: Sequence[frozenset[str]],
    n_folds: int,
    all_labels: list[str],
) -> list[StratificationViolation]:
    """Nudge the greedy assignment until every per-label fold count (and
    every fold size) sits within one of its proportional share, where a
    sequence of single-example moves and pair swaps can manage it.

    Greedy co-assignment can strand a label several examples beyond its
    share when labels co-occur. Phase one hill-climbs a quadratic imbalance
    potential with single moves (its gradient never plateaus, so it spreads
    counts maximally evenly); phase two chases any remaining out-of-band
    counts directly, allowing swaps.

    The search runs over groups: the examples of one fold that share a
    label set. A move's or a swap's score depends only on the label sets
    and the count tables, so every member of a group scores the same, and
    only each group's smallest id is tried. Candidates are visited in id
    order and must beat the best so far strictly, so this picks the very
    move a scan over every example would. Deterministic; mutates
    ``assignment``; returns the counts still out of band.
    """
    n = len(label_sets)
    share = {name: sum(1 for ls in label_sets if name in ls) / n_folds for name in all_labels}
    size_share = n / n_folds
    counts = {name: [0] * n_folds for name in all_labels}
    sizes = [0] * n_folds
    # a label set is kept in its own iteration order: the per-label terms of
    # a score are summed in that order, so equal keys give equal floats
    keys = [tuple(ls) for ls in label_sets]
    groups: dict[tuple[tuple[str, ...], int], list[int]] = {}  # sorted member ids
    for i in range(n):
        fold = assignment[i]
        sizes[fold] += 1
        for name in keys[i]:
            counts[name][fold] += 1
        groups.setdefault((keys[i], fold), []).append(i)

    def quad_move_delta(names: tuple[str, ...], src: int, dst: int) -> float:
        # change in sum of squared deviations when an example moves src -> dst
        delta = (sizes[src] - 1 - size_share) ** 2 - (sizes[src] - size_share) ** 2
        delta += (sizes[dst] + 1 - size_share) ** 2 - (sizes[dst] - size_share) ** 2
        for name in names:
            s = share[name]
            delta += (counts[name][src] - 1 - s) ** 2 - (counts[name][src] - s) ** 2
            delta += (counts[name][dst] + 1 - s) ** 2 - (counts[name][dst] - s) ** 2
        return delta

    def hinge_move_delta(names: tuple[str, ...], src: int, dst: int) -> float:
        def ex(v, t):
            return max(0.0, abs(v - t) - 1.0)

        delta = ex(sizes[src] - 1, size_share) - ex(sizes[src], size_share)
        delta += ex(sizes[dst] + 1, size_share) - ex(sizes[dst], size_share)
        for name in names:
            s = share[name]
            delta += ex(counts[name][src] - 1, s) - ex(counts[name][src], s)
            delta += ex(counts[name][dst] + 1, s) - ex(counts[name][dst], s)
        return delta

    def shift(names: tuple[str, ...], src: int, dst: int) -> None:
        sizes[src] -= 1
        sizes[dst] += 1
        for name in names:
            counts[name][src] -= 1
            counts[name][dst] += 1

    def apply_move(i: int, src: int, dst: int) -> None:
        assignment[i] = dst
        shift(keys[i], src, dst)
        members = groups[(keys[i], src)]
        members.remove(i)
        if not members:
            del groups[(keys[i], src)]
        bisect.insort(groups.setdefault((keys[i], dst), []), i)

    def representatives() -> list[tuple[int, tuple[str, ...], int]]:
        # (smallest id, label set, fold) per group, by smallest id
        return sorted((members[0], names, fold) for (names, fold), members in groups.items())

    # phase 1: quadratic potential, best-improvement single moves
    for _ in range(8 * n + 100):
        best = None
        for i, names, src in representatives():
            for dst in range(n_folds):
                if dst == src:
                    continue
                delta = quad_move_delta(names, src, dst)
                if delta < -1e-9 and (best is None or delta < best[0] - 1e-12):
                    best = (delta, i, src, dst)
        if best is None:
            break
        apply_move(best[1], best[2], best[3])

    def violating_pairs() -> list[tuple[str, int]]:
        pairs = []
        for name in all_labels:
            for f in range(n_folds):
                if abs(counts[name][f] - share[name]) > 1 + 1e-9:
                    pairs.append((name, f))
        return pairs

    # phase 2: drive out-of-band counts down, swaps allowed, quad as tiebreak
    for _ in range(4 * n + 100):
        if not violating_pairs():
            break
        reps = representatives()
        best = None  # (hinge_delta, quad_delta, kind, payload)
        for i, names, src in reps:
            for dst in range(n_folds):
                if dst == src:
                    continue
                h = hinge_move_delta(names, src, dst)
                if h > -1e-9:
                    continue
                q = quad_move_delta(names, src, dst)
                key = (h, q)
                if best is None or key < (best[0], best[1]):
                    best = (h, q, "move", (i, src, dst))
        if best is None:
            # swaps: carry a labeled example toward the deficit (or away from
            # the excess) and trade back an unlabeled one, keeping sizes fixed
            for name, f in violating_pairs():
                over = counts[name][f] - share[name] > 1 + 1e-9
                # pool and partners sit on opposite sides of fold f: a != b
                pool = [r for r in reps if (r[2] == f) == over and name in r[1]]
                partners = [r for r in reps if (r[2] == f) != over and name not in r[1]]
                for i, names_i, a in pool:
                    for j, names_j, b in partners:
                        h = hinge_move_delta(names_i, a, b)
                        q = quad_move_delta(names_i, a, b)
                        shift(names_i, a, b)
                        h += hinge_move_delta(names_j, b, a)
                        q += quad_move_delta(names_j, b, a)
                        shift(names_i, b, a)
                        if h < -1e-9:
                            key = (h, q)
                            if best is None or key < (best[0], best[1]):
                                best = (h, q, "swap", (i, j, a, b))
        if best is None:
            break
        if best[2] == "move":
            i, src, dst = best[3]
            apply_move(i, src, dst)
        else:
            i, j, a, b = best[3]
            apply_move(i, a, b)
            apply_move(j, b, a)

    return [
        StratificationViolation(f, name, counts[name][f], share[name])
        for name, f in violating_pairs()
    ]


def stratified_kfold(
    label_sets: Sequence[frozenset[str]], n_folds: int = 5, seed: int = 0
) -> FoldPlan:
    """Iterative stratification of a multi-label dataset into folds.

    Repeatedly picks the label with the fewest remaining unassigned
    positives and deals its examples to the fold that still wants that label
    most (ties: most remaining capacity, then lowest fold id); examples with
    no labels are dealt by remaining capacity. A deterministic repair pass
    then moves single examples, or swaps pairs, until every label's per-fold
    positive count is within one of its proportional share wherever it can
    manage; whatever remains is reported as a violation. The repair searches
    over (label set, fold) groups rather than examples, so its cost per step
    grows with the number of distinct label sets, not with the dataset; it
    still picks the same examples a per-example search would. The seed only
    shuffles the order examples are visited in.
    """
    n = len(label_sets)
    if n_folds < 2:
        raise ValueError("n_folds must be >= 2")
    if n < n_folds:
        raise ValueError(f"dataset of {n} examples is smaller than {n_folds} folds")

    all_labels: list[str] = []
    for ls in label_sets:
        for name in sorted(ls):
            if name not in all_labels:
                all_labels.append(name)

    totals = {name: sum(1 for ls in label_sets if name in ls) for name in all_labels}
    desired = {name: [totals[name] / n_folds] * n_folds for name in all_labels}
    capacity = [n / n_folds] * n_folds

    rng = np.random.default_rng(seed)
    visit_order = rng.permutation(n).tolist()
    unassigned = set(range(n))
    assignment: dict[int, int] = {}

    def place(i: int, fold: int) -> None:
        assignment[i] = fold
        unassigned.discard(i)
        capacity[fold] -= 1
        for name in label_sets[i]:
            desired[name][fold] -= 1

    while True:
        remaining = {
            name: sum(1 for i in unassigned if name in label_sets[i]) for name in all_labels
        }
        candidates = [name for name in all_labels if remaining[name] > 0]
        if not candidates:
            break
        scarcest = min(candidates, key=lambda name: remaining[name])
        for i in visit_order:
            if i in unassigned and scarcest in label_sets[i]:
                fold = max(
                    range(n_folds),
                    key=lambda f: (desired[scarcest][f], capacity[f], -f),
                )
                place(i, fold)

    for i in visit_order:  # label-free leftovers
        if i in unassigned:
            fold = max(range(n_folds), key=lambda f: (capacity[f], -f))
            place(i, fold)

    violations = _repair_assignment(assignment, label_sets, n_folds, all_labels)
    return FoldPlan(n_folds=n_folds, assignment=assignment, seed=seed, violations=violations)


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
    in_test = [plan.assignment[i] == fold for i in range(len(examples))]
    train = [ex for ex, held in zip(examples, in_test) if not held]
    test = [ex for ex, held in zip(examples, in_test) if held]
    train_contexts = [c for c, held in zip(contexts, in_test) if not held]
    test_contexts = [c for c, held in zip(contexts, in_test) if held]
    vocabulary, scaling = fit_from_contexts(train_contexts)
    X_train = matrix_from_contexts(train_contexts, vocabulary, scaling)
    X_test = matrix_from_contexts(test_contexts, vocabulary, scaling)
    return train, test, vocabulary, scaling, X_train, X_test


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
    """
    from dataclasses import replace

    from .config import expand_grid

    examples = list(examples)
    plan = stratified_kfold([ex.labels for ex in examples], config.n_folds, config.seed)
    for v in plan.violations:
        warnings.warn(
            f"fold {v.fold}: label {v.label!r} has {v.positives} positives, "
            f"more than 1 away from its share of {v.ideal_share:.2f}",
            RuntimeWarning,
            stacklevel=2,
        )
    fold_rows: list[list[MetricsRow]] = []
    for fold in range(config.n_folds):
        train, test, vocabulary, scaling, X_train, X_test = featurize_fold(
            examples, plan, fold, config
        )
        fold_config = config
        if config.tune:
            grid = expand_grid(config.tuning_grid, config.hyperparams)
            best = clf_mod.tune(
                train, catalog, grid, config.inner_folds, config.seed,
                replace(config, tune=False),
            )
            fold_config = replace(config, hyperparams=best, tune=False)
        data = clf_mod.TrainingData(
            X=X_train,
            label_sets=[ex.labels for ex in train],
            catalog=catalog,
            vocabulary=vocabulary,
            scaling=scaling,
        )
        model = clf_mod.fit_multilabel(data, fold_config)
        predicted = [
            clf_mod.predict_labels(model, X_test[i], config.fallback).labels
            for i in range(len(test))
        ]
        fold_rows.append(per_label_metrics([ex.labels for ex in test], predicted, catalog))
    rows = average_rows_across_folds(fold_rows)
    return MetricsReport(rows=rows, average_row=weighted_average(rows), fold_rows=fold_rows)


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
    label: str,
    top_n: int = 10,
    scope: str = "same",
) -> FeatureRanking:
    """Featurize the whole dataset and rank its columns for one label."""
    if label not in catalog.label_set:
        raise ValueError(f"label {label!r} is not in the catalog")
    contexts = example_contexts(examples, scope)
    vocabulary, scaling = fit_from_contexts(contexts)
    X = matrix_from_contexts(contexts, vocabulary, scaling)
    return rank_features(X, [ex.labels for ex in examples], feature_names(vocabulary), label, top_n)
