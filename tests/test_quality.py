"""DCG and NDCG behavior, including the frozen two-item example."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsort import (
    ExposureLedger,
    FairnessNotion,
    LiftAssignment,
    PreferenceMatrix,
    RankedList,
    RunConfig,
    all_random,
    binary_search_lambda,
    dcg,
    generate_synthetic,
    ideal_dcg,
    list_contribution,
    min_exposure,
    mixed_k,
    ndcg,
    rerank_with_lambda,
    top_k,
)
from fairsort.catalog import _ideal_top, _smallest_k_at, _smallest_k_seeded
from fairsort.reranker import _CATALOG

from oracle import naive_dcg, naive_ndcg

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


SMALL, SMALL_CATALOG = generate_synthetic(4, 10, 2, 1.0, 0)
UF_CONFIG = RunConfig(k=3, notion=FairnessNotion.UNIFORM)
LIFTS = LiftAssignment(by_provider=np.array([-1.0, 1.0]))


def search_catalog(user, k):
    config = RunConfig(k=k, notion=FairnessNotion.UNIFORM)
    return binary_search_lambda(SMALL, user, _CATALOG, LIFTS, config, SMALL_CATALOG)


def rerank_catalog(user, k):
    return rerank_with_lambda(SMALL, user, _CATALOG, LIFTS, 1.0, k, SMALL_CATALOG)


BAD_CALLS = [
    ("ndcg-of-another-users-list", lambda: ndcg(SMALL, 0, top_k(SMALL, 3, 3), 3), "not user 0"),
    ("dcg-of-another-users-list", lambda: dcg(SMALL, 0, top_k(SMALL, 3, 3), 3), "not user 0"),
    ("ndcg-user-negative", lambda: ndcg(SMALL, -1, top_k(SMALL, 3, 3), 3), "user -1 out of range"),
    ("ndcg-user-past-last", lambda: ndcg(SMALL, 4, RankedList(4, (0, 1, 2)), 3), "user 4 out"),
    ("ideal_dcg-user-negative", lambda: ideal_dcg(SMALL, -1, 3), "user -1 out of range"),
    ("ideal_dcg-user-past-last", lambda: ideal_dcg(SMALL, 4, 3), "user 4 out of range"),
    ("top_k-user-negative", lambda: top_k(SMALL, -1, 3), "user -1 out of range"),
    ("mixed_k-user-past-last", lambda: mixed_k(SMALL, 4, 3, 0), "user 4 out of range"),
    ("all_random-user-past-last", lambda: all_random(SMALL, 99, 3, 0), "user 99 out of range"),
    ("all_random-user-negative", lambda: all_random(SMALL, -1, 3, 0), "user -1 out of range"),
    ("top_k-k0", lambda: top_k(SMALL, 0, 0), "depth 0"),
    ("mixed_k-k0", lambda: mixed_k(SMALL, 0, 0, 0), "depth 0"),
    ("all_random-k0", lambda: all_random(SMALL, 0, 0, 0), "depth 0"),
    ("min_exposure-user-past-last",
     lambda: min_exposure(SMALL, 99, 3, np.zeros(10)), "user 99 out of range"),
    ("min_exposure-k0", lambda: min_exposure(SMALL, 0, 0, np.zeros(10)), "depth 0"),
    ("ideal_dcg-k0", lambda: ideal_dcg(SMALL, 0, 0), "depth 0"),
    ("ndcg-k0", lambda: ndcg(SMALL, 0, top_k(SMALL, 0, 3), 0), "depth 0"),
    ("dcg-k0", lambda: dcg(SMALL, 0, top_k(SMALL, 0, 3), 0), "depth 0"),
    ("list_contribution-k0",
     lambda: list_contribution(top_k(SMALL, 0, 3), 0, SMALL_CATALOG), "k must be >= 1"),
    ("search-catalog-user-negative", lambda: search_catalog(-1, 3), "user -1 out of range"),
    ("search-catalog-user-past-last", lambda: search_catalog(4, 3), "user 4 out of range"),
    ("search-catalog-k-past-items", lambda: search_catalog(0, 11), "depth 11 outside 1..10"),
    ("rerank-catalog-user-negative", lambda: rerank_catalog(-1, 3), "user -1 out of range"),
    ("rerank-catalog-user-past-last", lambda: rerank_catalog(4, 3), "user 4 out of range"),
    ("rerank-catalog-k-past-items", lambda: rerank_catalog(0, 11), "depth 11 outside 1..10"),
]


@pytest.mark.parametrize(
    "call, message", [pytest.param(call, message, id=name) for name, call, message in BAD_CALLS]
)
def test_scoring_and_baselines_reject_bad_users_and_depths(call, message):
    with pytest.raises(ValueError, match=message):
        call()


OUTSIDE = RankedList(0, (0, 1, 99))

OUTSIDE_CALLS = {
    "ndcg": lambda: ndcg(SMALL, 0, OUTSIDE, 3),
    "dcg": lambda: dcg(SMALL, 0, OUTSIDE, 3),
    "ledger-apply": lambda: ExposureLedger(1.0, SMALL_CATALOG, UF_CONFIG.notion).apply(
        list_contribution(OUTSIDE, 3, SMALL_CATALOG)),
    "search": lambda: binary_search_lambda(SMALL, 0, OUTSIDE, LIFTS, UF_CONFIG, SMALL_CATALOG),
    "rerank": lambda: rerank_with_lambda(SMALL, 0, OUTSIDE, LIFTS, 1.0, 3, SMALL_CATALOG),
}


@pytest.mark.parametrize("call", list(OUTSIDE_CALLS.values()), ids=list(OUTSIDE_CALLS))
def test_ids_past_the_catalog_are_rejected(call):
    # numpy used to raise a bare IndexError for item 99
    with pytest.raises(ValueError, match="user 0 holds item 99, outside the catalog of 10 "):
        call()


@pytest.mark.parametrize(
    "by_provider", [[1.0], [1.0, -1.0, 0.5], [0.5, 0.5, 0.5]], ids=["short", "long", "constant"]
)
@pytest.mark.parametrize("pool", [_CATALOG, top_k(SMALL, 0, 10)], ids=["catalog", "ranking"])
def test_lifts_sized_for_another_catalog_are_rejected(pool, by_provider):
    # a short, long or constant vector is rejected on every pool with a
    # message naming both sizes, before any work
    lifts = LiftAssignment(by_provider=np.array(by_provider))
    message = re.escape(f"lifts have shape ({len(by_provider)},), but the catalog has 2 providers")
    with pytest.raises(ValueError, match=message):
        binary_search_lambda(SMALL, 0, pool, lifts, UF_CONFIG, SMALL_CATALOG)
    with pytest.raises(ValueError, match=message):
        rerank_with_lambda(SMALL, 0, pool, lifts, 1.0, 3, SMALL_CATALOG)


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
    # laid out in ascending id order, as every pool is; place[p] is where
    # the drawn position p lands
    by_id = np.argsort(ids)
    place = np.argsort(by_id)
    sorted_ids, sorted_key = ids[by_id], key[by_id]
    assert np.array_equal(sorted_ids[_smallest_k_at(sorted_key, k)], expected)
    # selecting only among the keys at or below any k keys' largest, down to
    # the answer's own largest
    for at in (seed, answer):
        assert np.array_equal(sorted_ids[_smallest_k_seeded(sorted_key, k, place[at])], expected)
    expected_top = np.argsort(-row, kind="stable")[:k]
    assert np.array_equal(_ideal_top(row, k), expected_top)
