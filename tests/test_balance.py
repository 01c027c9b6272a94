import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechacts import balance
from speechacts.balance import (
    _BLOCK_ROWS,
    _GATHER_CELLS,
    REAL,
    SYNTHETIC,
    DenseExample,
    _neighborhoods,
    _pair_distances,
    derive_seed,
    nearest_neighbors,
    oversample,
    smote_balance,
    synthesize,
)


def dense(*rows):
    return [DenseExample(np.array(row, dtype=np.float64)) for row in rows]


def is_convex_combination(point, originals, tol=1e-9):
    """Oracle: point lies on a closed segment between two original rows."""
    for a in originals:
        for b in originals:
            diff = b - a
            denom = float(diff @ diff)
            if denom == 0.0:
                if np.max(np.abs(point - a)) <= tol:
                    return True
                continue
            lam = float((point - a) @ diff) / denom
            if -tol <= lam <= 1 + tol and np.max(np.abs(a + lam * diff - point)) <= tol:
                return True
    return False


class TestNearestNeighbors:
    def test_two_closest(self):
        candidates = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 2.0]])
        assert nearest_neighbors(np.zeros(2), candidates, 2) == [0, 2]

    def test_k_clamped(self):
        candidates = np.array([[1.0], [2.0]])
        assert nearest_neighbors(np.zeros(1), candidates, 5) == [0, 1]

    def test_tie_lower_index(self):
        candidates = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert nearest_neighbors(np.zeros(2), candidates, 1) == [0]

    def test_empty_candidates(self):
        with pytest.raises(ValueError):
            nearest_neighbors(np.zeros(2), np.empty((0, 2)), 1)


class TestSynthesize:
    def test_midpoint(self):
        out = synthesize(np.array([0.0, 0.0]), np.array([1.0, 1.0]), 0.5)
        assert out.values.tolist() == [0.5, 0.5]
        assert out.origin == SYNTHETIC

    def test_r_zero_copies(self):
        x = np.array([2.0, 3.0])
        assert synthesize(x, np.array([9.0, 9.0]), 0.0).values.tolist() == [2.0, 3.0]

    def test_componentwise(self):
        out = synthesize(np.array([1.0, 0.0]), np.array([1.0, 2.0]), 0.25)
        assert out.values.tolist() == [1.0, 0.5]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            synthesize(np.zeros(2), np.zeros(3), 0.5)


class TestSmoteBalance:
    def test_grows_minority_to_match(self):
        pos = dense([0.0, 0.0], [1.0, 0.0], [0.0, 1.0])
        neg = dense(*[[5.0, float(i)] for i in range(7)])
        out_pos, out_neg = smote_balance(pos, neg, k=5, seed=1)
        assert len(out_pos) == len(out_neg) == 7
        assert out_pos[:3] == pos  # real examples untouched, in place
        originals = np.stack([p.values for p in pos])
        for ex in out_pos[3:]:
            assert ex.origin == SYNTHETIC
            assert is_convex_combination(ex.values, originals)

    def test_already_balanced_unchanged(self):
        pos = dense([0.0], [1.0], [2.0], [3.0], [4.0])
        neg = dense([9.0], [8.0], [7.0], [6.0], [5.0])
        assert smote_balance(pos, neg, k=5, seed=0) == (pos, neg)

    def test_singleton_minority_duplicates(self):
        pos = dense([3.0, 4.0])
        neg = dense([0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0])
        out_pos, out_neg = smote_balance(pos, neg, k=5, seed=0)
        assert len(out_pos) == 4
        for ex in out_pos[1:]:
            assert ex.origin == SYNTHETIC
            assert ex.values.tolist() == [3.0, 4.0]

    def test_majority_side_never_modified(self):
        pos = dense([0.0], [1.0])
        neg = dense([5.0], [6.0], [7.0])
        _, out_neg = smote_balance(pos, neg, k=1, seed=2)
        assert out_neg == neg
        assert all(ex.origin == REAL for ex in out_neg)

    def test_negatives_can_be_minority(self):
        pos = dense([0.0], [1.0], [2.0], [3.0])
        neg = dense([10.0], [11.0])
        out_pos, out_neg = smote_balance(pos, neg, k=3, seed=3)
        assert len(out_neg) == 4
        assert out_pos == pos

    def test_empty_side_errors(self):
        with pytest.raises(ValueError):
            smote_balance([], dense([1.0]), k=1, seed=0)
        with pytest.raises(ValueError):
            smote_balance(dense([1.0]), [], k=1, seed=0)

    def test_identical_seed_identical_bytes(self):
        pos = dense([0.0, 0.0], [1.0, 1.0], [2.0, 0.0])
        neg = dense(*[[float(i), 9.0] for i in range(9)])
        a, _ = smote_balance(pos, neg, k=2, seed=77)
        b, _ = smote_balance(pos, neg, k=2, seed=77)
        assert all(x.values.tobytes() == y.values.tobytes() for x, y in zip(a, b))

    def test_different_seed_differs(self):
        pos = dense([0.0, 0.0], [1.0, 1.0], [2.0, 0.0])
        neg = dense(*[[float(i), 9.0] for i in range(9)])
        a, _ = smote_balance(pos, neg, k=2, seed=1)
        b, _ = smote_balance(pos, neg, k=2, seed=2)
        assert any(x.values.tobytes() != y.values.tobytes() for x, y in zip(a, b))

    @settings(max_examples=30, deadline=None)
    @given(
        n_pos=st.integers(min_value=1, max_value=8),
        n_neg=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_balance_and_geometry_properties(self, n_pos, n_neg, seed):
        rng = np.random.default_rng(seed)
        pos = [DenseExample(rng.normal(size=3)) for _ in range(n_pos)]
        neg = [DenseExample(rng.normal(size=3)) for _ in range(n_neg)]
        out_pos, out_neg = smote_balance(pos, neg, k=5, seed=seed)
        assert len(out_pos) == len(out_neg) == max(n_pos, n_neg)
        minority_was_pos = n_pos < n_neg
        originals = np.stack([p.values for p in (pos if minority_was_pos else neg)])
        grown = out_pos if minority_was_pos else out_neg
        for ex in grown:
            if ex.origin == SYNTHETIC:
                assert is_convex_combination(ex.values, originals)


def reference_neighborhoods(values, k):
    """Each row's neighbors by a full scan over a copy without the row."""
    hoods = []
    for i in range(len(values)):
        picked = nearest_neighbors(values[i], np.delete(values, i, axis=0), k)
        hoods.append([j if j < i else j + 1 for j in picked])
    return hoods


def reference_smote_balance(positives, negatives, k, seed):
    """The per-row SMOTE loop that the Gram route replaced, kept as an oracle;
    it takes the same three generator calls as oversample."""
    if len(positives) == len(negatives):
        return positives, negatives
    positives_minor = len(positives) < len(negatives)
    minority, majority = (positives, negatives) if positives_minor else (negatives, positives)
    rng = np.random.default_rng(seed)
    m = len(minority)
    values = np.stack([ex.values for ex in minority])
    need = len(majority) - m
    if m == 1:
        synthetic = [DenseExample(values[0].copy(), SYNTHETIC) for _ in range(need)]
    else:
        k = min(k, m - 1)
        neighborhoods = reference_neighborhoods(values, k)
        starts = rng.integers(0, m, need)
        picks = rng.integers(0, k, need)
        weights = rng.random(need)
        synthetic = [synthesize(values[i], values[neighborhoods[i][j]], r)
                     for i, j, r in zip(starts.tolist(), picks.tolist(), weights.tolist())]
    grown = minority + synthetic
    return (grown, majority) if positives_minor else (majority, grown)


@st.composite
def minorities(draw):
    """Minority blocks of the shapes SMOTE meets, tie-heavy ones included."""
    kind = draw(st.sampled_from(["gaussian", "words", "ties", "magnitude"]))
    m = draw(st.integers(min_value=2, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "gaussian":  # criterion 04's shape
        return rng.normal(size=(m, draw(st.integers(min_value=1, max_value=12))))
    words = draw(st.integers(min_value=1, max_value=30))
    block = (rng.random((m, words)) < draw(st.floats(min_value=0.02, max_value=0.5))).astype(float)
    shallow = rng.normal(size=(m, 3))
    if kind == "magnitude":
        shallow *= 10.0 ** draw(st.integers(min_value=2, max_value=9))
    if kind == "ties":
        # duplicated rows, and coordinate swaps of a row, which lie at
        # exactly equal distances from it but have differently summed dots
        shallow = rng.choice([0.1, 0.3, 0.7, -0.2], size=(m, 3))
        rows = np.hstack([block, shallow])
        for i in range(1, m):
            j = int(rng.integers(0, i))
            if rng.random() < 0.3:
                rows[i] = rows[j]
            elif rng.random() < 0.5:
                rows[i] = rows[j][rng.permutation(rows.shape[1])]
        return rows
    return np.hstack([block, shallow])


class TestGramRouteMatchesRowScan:
    @settings(max_examples=300, deadline=None)
    @given(values=minorities(), k=st.integers(min_value=1, max_value=6))
    def test_neighbor_lists_bitwise(self, values, k):
        k = min(k, len(values) - 1)
        got = [hood.tolist() for hood in _neighborhoods(values, k)]
        assert got == reference_neighborhoods(values, k)

    @settings(max_examples=150, deadline=None)
    @given(
        values=minorities(),
        extra=st.integers(min_value=1, max_value=60),
        k=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        positives_minor=st.booleans(),
    )
    def test_smote_balance_rows_bitwise(self, values, extra, k, seed, positives_minor):
        minority = [DenseExample(row) for row in values]
        majority = [DenseExample(np.full(values.shape[1], 9.0)) for _ in range(len(values) + extra)]
        pos, neg = (minority, majority) if positives_minor else (majority, minority)
        got = smote_balance(pos, neg, k, seed)
        want = reference_smote_balance(pos, neg, k, seed)
        for got_side, want_side in zip(got, want):
            assert len(got_side) == len(want_side)
            for a, b in zip(got_side, want_side):
                assert a.origin == b.origin
                assert a.values.tobytes() == b.values.tobytes()

    def test_integer_rows(self):
        rows = [[0, 0], [3, 4], [4, 3], [0, 5], [5, 0], [1, 1]]
        pos = [DenseExample(np.array(row)) for row in rows]
        neg = [DenseExample(np.array([9, 9])) for _ in range(20)]
        got = smote_balance(pos, neg, 3, 11)[0]
        want = reference_smote_balance(pos, neg, 3, 11)[0]
        assert [a.values.tobytes() for a in got] == [b.values.tobytes() for b in want]

    def test_singleton_draws_nothing(self):
        rows = oversample(np.array([[1.5, -2.0]]), 3, k=5, seed=0)
        assert rows.tolist() == [[1.5, -2.0]] * 3

    def test_blocks_span_many_rows(self):
        values = np.random.default_rng(0).normal(size=(600, 4))
        got = [hood.tolist() for hood in _neighborhoods(values, 3)]
        assert got == reference_neighborhoods(values, 3)

    def test_rerank_chunks_split_inside_a_block(self):
        # five distinct rows, duplicated: every row shortlists about 80 exact
        # ties, so one block's pairs fill several gather chunks
        rng = np.random.default_rng(5)
        base = rng.choice([0.0, 0.5, 1.0], size=(5, 40))
        values = base[rng.integers(0, 5, size=400)]
        values[::37] += rng.normal(scale=1e-3, size=values[::37].shape)
        got = _neighborhoods(values, 4)
        assert got.shape == (400, 4)
        assert got.tolist() == reference_neighborhoods(values, 4)

    def test_oversample_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            oversample(np.empty((0, 2)), 1)
        with pytest.raises(ValueError):
            oversample(np.zeros((2, 2)), 1, k=0)
        with pytest.raises(ValueError):
            oversample(np.zeros((2, 2)), -1)


@pytest.fixture
def rerank_calls(monkeypatch):
    """The number of pairs each call of the exact re-rank is handed."""
    calls = []

    def counted(values, rows, cands):
        calls.append(len(rows))
        return _pair_distances(values, rows, cands)

    monkeypatch.setattr(balance, "_pair_distances", counted)
    return calls


class TestRerankOnlyWhereGramMayMislead:
    """Rows the Gram distances order beyond doubt skip the exact re-rank;
    TestGramRouteMatchesRowScan holds both kinds of row to the row scan."""

    def test_separated_rows_send_no_pairs(self, rerank_calls):
        values = np.random.default_rng(2).normal(size=(300, 8))
        got = _neighborhoods(values, 5)
        assert rerank_calls == []
        assert got.tolist() == reference_neighborhoods(values, 5)

    def test_ties_send_pairs(self, rerank_calls):
        # minorities()'s "ties" shape: coordinate swaps and duplicates of
        # earlier rows, at exactly equal distances from them
        rng = np.random.default_rng(4)
        rows = np.hstack([(rng.random((30, 12)) < 0.3).astype(float),
                          rng.choice([0.1, 0.3, 0.7, -0.2], size=(30, 3))])
        for i in range(1, 30):
            j = int(rng.integers(0, i))
            rows[i] = rows[j] if i % 2 else rows[j][rng.permutation(15)]
        got = _neighborhoods(rows, 3)
        assert sum(rerank_calls) > 0
        assert got.tolist() == reference_neighborhoods(rows, 3)

    def test_infinite_gram_gap_is_reranked(self, rerank_calls):
        # rows 0 and 1 lie 1.8e154 apart, whose square overflows in both
        # distance forms, so each one's Gram gap to row 2 is infinite
        values = np.array([[9e153], [-9e153], [1e150]])
        with np.errstate(over="ignore", invalid="ignore"):
            got = _neighborhoods(values, 2)
            want = reference_neighborhoods(values, 2)
        assert rerank_calls == [4]
        assert got.tolist() == want

    def test_rerank_chunks_still_split_inside_a_block(self, rerank_calls):
        # test_rerank_chunks_split_inside_a_block's rows: its exact ties keep
        # it re-ranking more pairs in one block than one gather chunk holds
        rng = np.random.default_rng(5)
        base = rng.choice([0.0, 0.5, 1.0], size=(5, 40))
        values = base[rng.integers(0, 5, size=400)]
        values[::37] += rng.normal(scale=1e-3, size=values[::37].shape)
        _neighborhoods(values, 4)
        blocks = -(-len(values) // _BLOCK_ROWS)
        assert len(rerank_calls) > blocks  # some block took more than one call
        assert max(rerank_calls) == _GATHER_CELLS // values.shape[1]  # a full chunk


def test_derive_seed_stable_and_distinct():
    assert derive_seed(42, "confirmation") == derive_seed(42, "confirmation")
    assert derive_seed(42, "confirmation") != derive_seed(42, "statement")
    assert 0 <= derive_seed(2**40, "statement") <= 0xFFFFFFFF
