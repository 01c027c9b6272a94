"""SMOTE oversampling for one label's binary training set.

The smaller side is filled with synthetic points, each interpolated between
a minority example and one of its k nearest minority neighbors, until both
sides have equal counts. Real examples are never modified or removed, and
only training folds may ever pass through here.

:func:`oversample` does the work on one array of minority rows, in array
operations per call. The neighbors of every row come from one Gram matrix
per block of rows, ``|a|^2 + |b|^2 - 2 a.b``, with the row itself excluded.
Gram distances are fast but rounded differently from a direct norm, so they
only shortlist: each row keeps the rows within a slack of its k-th Gram
distance. The slack is twice a bound on the rounding error of both distance
forms, ``O(d * eps * (|a|^2 + max |b|^2))`` plus an underflow term, which
keeps every row the exact ranking would pick on the shortlist. A row whose
shortlist is exactly k rows, their Gram distances pairwise more than twice
the slack apart, takes them in Gram order: gaps that wide leave the exact
distances in the same strict order (see :func:`_neighborhoods`). On the
bench corpora that is every row of a study ``evaluate`` and all but 39 of
narrow's 5,684. The other rows' shortlisted pairs are ranked in one stable
sort per block, by row and then by the distance :func:`nearest_neighbors`
computes (``norm(candidate - point)``, taken in chunks of gathered
differences), so ties go to the lower index as before. The neighbor lists,
tie order included, are therefore the same as a per-row scan over all other
rows.

The draws are three vectorized calls on one generator seeded per call: the
start rows, the picks among each start's neighbors, and the interpolation
weights. All rows are interpolated in one expression whose arithmetic per
element is :func:`synthesize`'s, so each synthetic row is bitwise what
:func:`synthesize` gives for its draws. Training takes the same draws
(:func:`_draws`) in ``speechacts.classifier._SmoteView``, which writes the
rows in this arithmetic, or interpolates their products over X's nonzeros.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

REAL = "real"
SYNTHETIC = "synthetic"

# minority rows per Gram block: bounds the distance block at this many rows
_BLOCK_ROWS = 256
# safety factor over the rounding-error bound of the two distance forms
_SLACK_FACTOR = 16
# cells per gathered block of candidate-minus-row differences in the re-rank
_GATHER_CELLS = 2**16


@dataclass
class DenseExample:
    """A dense feature row tagged with whether it was observed or synthesized."""

    values: np.ndarray
    origin: str = REAL


def derive_seed(base_seed: int, label: str) -> int:
    """Stable per-label seed: base XOR a sha256 prefix of the label name.

    Keeps per-label SMOTE streams independent of the order labels are
    processed in (and of Python's randomized str hash).
    """
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return (base_seed ^ int.from_bytes(digest[:4], "big")) & 0xFFFFFFFF


def nearest_neighbors(point: np.ndarray, candidates: np.ndarray, k: int) -> list[int]:
    """Indices of the k candidates closest to point (Euclidean).

    Ties break toward the lower index; fewer than k candidates means all of
    them are returned. The candidate set must not contain the query point's
    own row.
    """
    if candidates.shape[0] == 0:
        raise ValueError("empty candidate set")
    if k < 1:
        raise ValueError("k must be >= 1")
    dists = np.linalg.norm(candidates - point, axis=1)
    order = np.argsort(dists, kind="stable")
    return order[: min(k, len(order))].tolist()


def synthesize(x: np.ndarray, neighbor: np.ndarray, r: float) -> DenseExample:
    """Interpolate x + r * (neighbor - x) for r in [0, 1)."""
    if x.shape != neighbor.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {neighbor.shape}")
    return DenseExample(values=x + r * (neighbor - x), origin=SYNTHETIC)


def _pair_distances(values: np.ndarray, rows: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """``norm(values[cands] - values[rows], axis=1)``, computed as norm does it."""
    diff = values[cands]
    diff -= values[rows]
    if not np.issubdtype(diff.dtype, np.inexact):
        diff = diff.astype(np.float64)
    diff *= diff
    return np.sqrt(np.add.reduce(diff, axis=1))


def _neighborhoods(values: np.ndarray, k: int) -> np.ndarray:
    """Row ids of each row's k nearest other rows, one ``(m, k)`` row per
    row, as nearest_neighbors ranks them over all other rows; needs
    1 <= k < len(values).

    Only the rows the Gram distances may order wrongly are re-ranked by
    exact distance. Half the slack bounds how far a row's Gram squared
    distance and its exact one (``norm``'s sum of squares, before the
    square root) can differ, so the shortlist holds every row the exact
    ranking picks, and a row whose shortlist holds exactly k rows picks
    those. Say their sorted Gram distances are also pairwise more than a
    margin of twice the slack apart. Then their exact squared distances
    rise in the same order, each more than the slack above the one before.
    Two correctly rounded square roots differ once their squares are more
    than ``2 * eps`` times the larger apart, and the slack is far above
    that: an exact squared distance is at most about
    ``2 * (|a|^2 + max |b|^2)``, while the slack is at least
    ``64 * eps`` times ``|a|^2 + max |b|^2``. So the exact distances
    :func:`nearest_neighbors` sorts rise strictly in the Gram order, no
    tie goes to the lower index, and the Gram order is the exact one. Every
    other row, and any row with a NaN or infinite Gram gap, is ranked as
    before, by its shortlisted exact distances.
    """
    m, d = values.shape
    gram_rows = values.astype(np.float64, copy=False)  # the exact re-rank uses values as given
    sq = np.einsum("ij,ij->i", gram_rows, gram_rows)
    # relative rounding, plus one subnormal step per operation for underflow
    fp = np.finfo(np.float64)
    slack = _SLACK_FACTOR * (d + 4) * (fp.eps * (sq + sq.max()) + fp.smallest_subnormal)
    pairs_per_chunk = max(1, _GATHER_CELLS // max(d, 1))
    hoods = np.empty((m, k), dtype=np.intp)
    for start in range(0, m, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, m)
        block = np.arange(stop - start)
        dist2 = sq[start:stop, None] + sq - 2.0 * (gram_rows[start:stop] @ gram_rows.T)
        dist2[block, start + block] = np.inf
        kth = np.partition(dist2, k - 1, axis=1)[:, k - 1]
        # NaN and infinite distances compare False here, so they stay listed
        shortlist = ~(dist2 > (kth + slack[start:stop])[:, None])
        shortlist[block, start + block] = False
        rows, cands = np.nonzero(shortlist)
        # rows that shortlist exactly k rows, pairwise more than the margin apart
        ordered = np.bincount(rows, minlength=len(block)) == k
        near = cands[ordered[rows]].reshape(-1, k)
        gram = dist2[np.flatnonzero(ordered)[:, None], near]
        by_gram = np.argsort(gram, axis=1)
        at = np.arange(len(near))[:, None]
        near, gram = near[at, by_gram], gram[at, by_gram]
        gaps = gram[:, 1:] - gram[:, :-1]
        apart = ((gaps > 2.0 * slack[start:stop][ordered, None]) & (gaps < np.inf)).all(axis=1)
        ordered[ordered] = apart
        hoods[start:stop][ordered] = near[apart]
        ranked = np.flatnonzero(~ordered)
        if not len(ranked):
            continue
        keep = ~ordered[rows]
        rows, cands = rows[keep] + start, cands[keep]
        dist = np.concatenate([
            _pair_distances(values, rows[lo:lo + pairs_per_chunk], cands[lo:lo + pairs_per_chunk])
            for lo in range(0, len(rows), pairs_per_chunk)
        ])
        # by row, then distance; the sort is stable, so ties keep the lower index
        order = np.lexsort((dist, rows))
        first = np.searchsorted(rows, start + ranked)
        hoods[start + ranked] = cands[order[first[:, None] + np.arange(k)]]
    return hoods


def oversample(minority: np.ndarray, need: int, k: int = 5, seed: int = 0) -> np.ndarray:
    """``need`` synthetic rows grown from the minority rows.

    Each starts from a uniformly chosen minority row and interpolates toward
    one of its k nearest minority neighbors with a fresh r in [0, 1). The
    effective k is min(k, rows - 1); a single row is duplicated without
    drawing.
    """
    values = np.asarray(minority)
    if values.ndim != 2 or values.shape[0] == 0:
        raise ValueError("oversample needs a non-empty 2-D array of minority rows")
    if k < 1:
        raise ValueError("k must be >= 1")
    if need < 0:
        raise ValueError("need must be >= 0")
    m = values.shape[0]
    if m == 1 or need == 0:
        return np.repeat(values[:1], need, axis=0)

    starts, neighbors, r = _draws(values, need, k, seed)
    x = values[starts]
    return x + r[:, None] * (values[neighbors] - x)


def _draws(values: np.ndarray, need: int, k: int, seed: int) -> tuple[np.ndarray, ...]:
    """:func:`oversample`'s start rows, the neighbor each interpolates
    toward and the weights, for two or more rows."""
    m = values.shape[0]
    k = min(k, m - 1)
    hoods = _neighborhoods(values, k)
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, m, need)
    picks = rng.integers(0, k, need)
    r = rng.random(need)
    return starts, hoods[starts, picks], r


def smote_balance(
    positives: list[DenseExample],
    negatives: list[DenseExample],
    k: int = 5,
    seed: int = 0,
) -> tuple[list[DenseExample], list[DenseExample]]:
    """Grow the smaller side with synthetic points until the counts match.

    The minority's real examples come first, then the rows of
    :func:`oversample`, tagged synthetic. The larger side is returned as is.
    """
    if not positives or not negatives:
        raise ValueError("smote_balance needs at least one example on each side")
    if k < 1:
        raise ValueError("k must be >= 1")

    if len(positives) == len(negatives):
        return positives, negatives
    if len(positives) < len(negatives):
        minority, majority, positives_minor = positives, negatives, True
    else:
        minority, majority, positives_minor = negatives, positives, False

    rows = oversample(np.stack([ex.values for ex in minority]), len(majority) - len(minority), k, seed)
    grown = minority + [DenseExample(row, SYNTHETIC) for row in rows]
    return (grown, majority) if positives_minor else (majority, grown)
