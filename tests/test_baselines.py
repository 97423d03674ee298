"""Reference list models: top-K, mixed, random, and min-exposure."""

import numpy as np
import pytest

from fairsort import (
    PreferenceMatrix,
    all_random,
    generate_synthetic,
    min_exposure,
    mixed_k,
    ndcg,
    original_ranking,
    top_k,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic(10, 20, 3, 1.0, seed=6)


def test_top_k_is_ranking_prefix(dataset):
    matrix, _ = dataset
    for user in range(matrix.n_users):
        ranking = original_ranking(matrix, user)
        assert top_k(matrix, user, 5).items == ranking.items[:5]


def test_top_k_ndcg_is_one(dataset):
    matrix, _ = dataset
    for user in range(matrix.n_users):
        assert ndcg(matrix, user, top_k(matrix, user, 5), 5) == 1.0


def test_mixed_k_head_is_top_half(dataset):
    matrix, _ = dataset
    ranking = original_ranking(matrix, 0)
    for k, head_len in ((4, 2), (5, 3)):
        rlist = mixed_k(matrix, 0, k, seed=1)
        assert rlist.items[:head_len] == ranking.items[:head_len]
        assert set(rlist.items[head_len:]) <= set(ranking.items[head_len:])
        assert len(rlist) == k


def test_mixed_k_deterministic_per_seed(dataset):
    matrix, _ = dataset
    assert mixed_k(matrix, 2, 6, seed=9).items == mixed_k(matrix, 2, 6, seed=9).items
    draws = {mixed_k(matrix, 2, 6, seed=s).items for s in range(20)}
    assert len(draws) > 1


def test_all_random_draws_distinct_items(dataset):
    matrix, _ = dataset
    rlist = all_random(matrix, 1, 8, seed=3)
    assert len(rlist) == 8
    assert len(set(rlist.items)) == 8
    assert all(0 <= i < matrix.n_items for i in rlist.items)
    assert all_random(matrix, 1, 8, seed=3).items == rlist.items


def test_all_random_is_uniform_over_items():
    matrix = PreferenceMatrix(np.array([[0.9, 0.5, 0.3, 0.1]]))
    counts = np.zeros(4)
    draws = 10_000
    for seed in range(draws):
        counts[all_random(matrix, 0, 1, seed=seed).items[0]] += 1
    sigma = np.sqrt(draws * 0.25 * 0.75)
    assert np.all(np.abs(counts - draws / 4) <= 5 * sigma)


def test_min_exposure_trace():
    matrix = PreferenceMatrix(np.zeros((1, 3)))
    exposure = np.zeros(3)
    first = min_exposure(matrix, 0, 2, exposure)
    assert first.items == (0, 1)
    assert exposure.tolist() == pytest.approx([1.0, 1.0 / np.log2(3), 0.0], abs=1e-9)
    second = min_exposure(matrix, 0, 1, exposure)
    assert second.items == (2,)


def test_min_exposure_equalizes_items_over_many_lists():
    matrix = PreferenceMatrix(np.ones((30, 12)))
    exposure = np.zeros(12)
    for user in range(30):
        min_exposure(matrix, user, 4, exposure)
    spread = exposure.max() - exposure.min()
    assert spread <= 1.0  # bounded by the weight of the first slot


def test_baselines_reject_oversized_k(dataset):
    matrix, _ = dataset
    with pytest.raises(ValueError):
        top_k(matrix, 0, matrix.n_items + 1)
    with pytest.raises(ValueError):
        mixed_k(matrix, 0, matrix.n_items + 1, seed=0)
    with pytest.raises(ValueError):
        all_random(matrix, 0, matrix.n_items + 1, seed=0)
    with pytest.raises(ValueError):
        min_exposure(matrix, 0, matrix.n_items + 1, np.zeros(matrix.n_items))


def test_min_exposure_rejects_a_user_past_the_last_and_a_foreign_exposure(dataset):
    matrix, _ = dataset
    with pytest.raises(ValueError, match="user 10 out of range"):
        min_exposure(matrix, 10, 3, np.zeros(matrix.n_items))
    exposure = np.zeros(matrix.n_items + 1)
    with pytest.raises(ValueError, match="exposure has 21 entries .* has 20 items"):
        min_exposure(matrix, 0, 3, exposure)
    assert not exposure.any()
