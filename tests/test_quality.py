"""DCG and NDCG behavior, including the frozen two-item example."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsort import PreferenceMatrix, RankedList, dcg, ideal_dcg, ndcg
from fairsort.oracle import naive_dcg, naive_ndcg
from fairsort.catalog import _ideal_top, _smallest_k, _smallest_k_seeded

TWO_ITEMS = PreferenceMatrix(np.array([[0.8, 0.9]]))


def test_dcg_two_item_example():
    value = dcg(TWO_ITEMS, 0, RankedList(0, (0, 1)), 2)
    assert value == pytest.approx(0.8 + 0.9 / math.log2(3), abs=1e-12)
    assert value == pytest.approx(1.367837, abs=5e-7)


def test_ideal_dcg_two_item_example():
    value = ideal_dcg(TWO_ITEMS, 0, 2)
    assert value == pytest.approx(0.9 + 0.8 / math.log2(3), abs=1e-12)
    assert value == pytest.approx(1.40474, abs=5e-6)


def test_ndcg_of_best_order_is_one():
    assert ndcg(TWO_ITEMS, 0, RankedList(0, (1, 0)), 2) == pytest.approx(1.0, abs=1e-15)


def test_ndcg_of_swapped_order():
    expected = (0.8 + 0.9 / math.log2(3)) / (0.9 + 0.8 / math.log2(3))
    value = ndcg(TWO_ITEMS, 0, RankedList(0, (0, 1)), 2)
    assert value == pytest.approx(expected, abs=1e-12)
    assert 0.97 < value < 0.98


def test_ndcg_all_zero_preferences_defined_as_one():
    matrix = PreferenceMatrix(np.zeros((1, 4)))
    assert ndcg(matrix, 0, RankedList(0, (3, 2)), 2) == 1.0


def test_ideal_dcg_rejects_k_beyond_universe():
    with pytest.raises(ValueError):
        ideal_dcg(TWO_ITEMS, 0, 3)


def test_dcg_rejects_short_list():
    with pytest.raises(ValueError):
        dcg(TWO_ITEMS, 0, RankedList(0, (0,)), 2)


def test_dcg_uses_only_first_k_slots():
    matrix = PreferenceMatrix(np.array([[0.4, 0.3, 0.2]]))
    full = RankedList(0, (0, 1, 2))
    assert dcg(matrix, 0, full, 1) == pytest.approx(0.4, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_ndcg_bounded_and_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    k = int(rng.integers(1, n + 1))
    row = rng.random(n)
    matrix = PreferenceMatrix(row[None, :])
    items = tuple(int(i) for i in rng.permutation(n)[:k])
    value = ndcg(matrix, 0, RankedList(0, items), k)
    assert 0.0 <= value <= 1.0
    assert value == pytest.approx(naive_ndcg(row.tolist(), items, k), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_dcg_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 15))
    k = int(rng.integers(1, n + 1))
    row = rng.random(n) * 5
    matrix = PreferenceMatrix(row[None, :])
    items = tuple(int(i) for i in rng.permutation(n))
    value = dcg(matrix, 0, RankedList(0, items), k)
    assert value == pytest.approx(naive_dcg(row.tolist(), items, k), abs=1e-12)


@st.composite
def tie_heavy_pools(draw):
    """Lifted probe keys over a pool, built from few distinct values.

    Integer scores (possibly an all-zero row, whose keys are -0.0), lifts
    equal across providers or on a coarse dyadic grid, and weights that keep
    the sums exact, so many keys tie at the k-th smallest.  Keys come either
    negated after the sum or summed from negated parts, as the search builds
    them, which differ only in the sign of a zero.  ``seed`` is any k
    distinct positions.
    """
    n = draw(st.integers(1, 40))
    scores = draw(st.one_of(
        st.just([0] * n), st.lists(st.integers(0, 3), min_size=n, max_size=n)
    ))
    n_providers = draw(st.integers(1, 4))
    provider_of = draw(st.lists(st.integers(0, n_providers - 1), min_size=n, max_size=n))
    lifts = draw(st.one_of(
        st.sampled_from([-0.5, 0.0, 0.5]).map(lambda v: [v] * n_providers),
        st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                 min_size=n_providers, max_size=n_providers),
    ))
    lam = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 16.0]))
    # distinct ids in ranking order, drawn from a universe that may be larger
    ids = draw(st.permutations(range(n + draw(st.integers(0, 5)))))[:n]
    k = draw(st.one_of(st.just(n), st.integers(1, n)))
    seed = np.array(draw(st.permutations(range(n)))[:k], dtype=np.int64)
    row = np.array(scores, dtype=np.float64)
    item_lifts = np.array(lifts)[np.array(provider_of)]
    if draw(st.booleans()):
        key = -(row + lam * item_lifts)
    else:
        key = -row + lam * -item_lifts
    return row, key, np.array(ids, dtype=np.int64), k, seed


@settings(max_examples=300, deadline=None)
@given(tie_heavy_pools())
def test_smallest_k_matches_full_sort(pool):
    row, key, ids, k, seed = pool
    answer = np.lexsort((ids, key))[:k]
    expected = ids[answer]
    assert np.array_equal(_smallest_k(key, ids, k), expected)
    # selecting only among the keys at or below any k keys' largest, down to
    # the answer's own largest
    for at in (seed, answer):
        assert np.array_equal(ids[_smallest_k_seeded(key, ids, k, at)], expected)
    expected_top = np.argsort(-row, kind="stable")[:k]
    assert np.array_equal(_ideal_top(row, k), expected_top)
