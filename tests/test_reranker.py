"""Candidate pools, weighted re-sorting, the floor search, and both loops."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsort import (
    Catalog,
    ExposureLedger,
    FairnessNotion,
    LiftAssignment,
    OnlineState,
    PreferenceMatrix,
    RankedList,
    RunConfig,
    binary_search_lambda,
    candidate_pool,
    err_rates,
    fairsort_offline,
    fairsort_online_step,
    generate_synthetic,
    ndcg,
    ndcg_histogram,
    normalize_lifts,
    original_ranking,
    rerank_with_lambda,
    reranker,
    all_random,
    min_exposure,
    mixed_k,
    top_k,
    total_exposure,
)
from fairsort.harness import make_trace
from fairsort.reranker import binary_search_lambda_traced

from conftest import make_search_instance
from oracle import (
    RunRecord,
    exact_ndcg,
    grid_lambda_profile,
    naive_ndcg,
    probe_bound,
    replay_check,
)

UF = FairnessNotion.UNIFORM
QF = FairnessNotion.QUALITY_WEIGHTED


def three_item_instance():
    matrix = PreferenceMatrix(np.array([[0.9, 0.8, 0.7]]))
    catalog = Catalog.build(np.array([0, 1, 2]), matrix)
    lifts = LiftAssignment(by_provider=np.array([-1.0, 0.0, 1.0]))
    return matrix, catalog, lifts


def test_candidate_pool_takes_ranking_prefix():
    ranking = RankedList(0, tuple(range(10)))
    assert candidate_pool(ranking, 0.2).items == (0, 1)
    assert candidate_pool(ranking, 1.0).items == tuple(range(10))


def test_candidate_pool_of_whole_ranking_is_the_ranking():
    ranking = RankedList(0, tuple(range(10)))
    assert candidate_pool(ranking, 1.0) is ranking


def test_candidate_pool_of_ranking_prefix():
    prefix = RankedList(0, (4, 1, 3))
    assert candidate_pool(prefix, 0.3, 2, n_items=10) is prefix
    assert candidate_pool(prefix, 0.2, 2, n_items=10).items == (4, 1)
    with pytest.raises(ValueError, match="cannot hold"):
        candidate_pool(prefix, 0.4, 2, n_items=10)
    # a whole-catalog pool reads nothing of the ranking
    assert candidate_pool(prefix, 1.0, 2, n_items=10) is candidate_pool(
        RankedList(1, (0,)), 1.0, 4, n_items=10
    )


def test_candidate_pool_rounds_up():
    ranking = RankedList(0, tuple(range(7)))
    assert len(candidate_pool(ranking, 0.5)) == 4


def test_candidate_pool_too_small_for_k():
    ranking = RankedList(0, tuple(range(5)))
    with pytest.raises(ValueError):
        candidate_pool(ranking, 0.1, k=3)


def test_rerank_zero_weight_is_identity():
    matrix, catalog, lifts = three_item_instance()
    pool = RankedList(0, (0, 1, 2))
    assert rerank_with_lambda(matrix, 0, pool, lifts, 0.0, 3, catalog).items == (0, 1, 2)


def test_rerank_small_weight_keeps_order():
    matrix, catalog, lifts = three_item_instance()
    pool = RankedList(0, (0, 1, 2))
    out = rerank_with_lambda(matrix, 0, pool, lifts, 0.04, 3, catalog)
    assert out.items == (0, 1, 2)


def test_rerank_large_weight_reverses_order():
    matrix, catalog, lifts = three_item_instance()
    pool = RankedList(0, (0, 1, 2))
    out = rerank_with_lambda(matrix, 0, pool, lifts, 0.15, 3, catalog)
    assert out.items == (2, 1, 0)


def test_rerank_truncates_to_k():
    matrix, catalog, lifts = three_item_instance()
    pool = RankedList(0, (0, 1, 2))
    out = rerank_with_lambda(matrix, 0, pool, lifts, 0.15, 2, catalog)
    assert out.items == (2, 1)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_rerank_rejects_non_finite_weight(lam):
    matrix, catalog, lifts = three_item_instance()
    pool = RankedList(0, (0, 1, 2))
    with pytest.raises(ValueError, match="finite"):
        rerank_with_lambda(matrix, 0, pool, lifts, lam, 2, catalog)


def test_rerank_preserves_within_provider_order():
    rng = np.random.default_rng(21)
    for trial in range(60):
        inst = make_search_instance(7_000 + trial)
        ranking = original_ranking(inst.matrix, inst.user)
        pool = candidate_pool(ranking, 1.0)
        lam = float(rng.uniform(0, 16))
        full = rerank_with_lambda(
            inst.matrix, inst.user, pool, inst.lifts, lam, len(pool), inst.catalog
        )
        providers = inst.catalog.provider_of
        for p in range(inst.catalog.n_providers):
            before = [i for i in pool.items if providers[i] == p]
            after = [i for i in full.items if providers[i] == p]
            assert before == after


def test_binary_search_zero_lifts_returns_zero_weight():
    matrix, catalog, _ = three_item_instance()
    lifts = LiftAssignment(by_provider=np.zeros(3))
    config = RunConfig(k=2, notion=UF, threshold=0.9)
    pool = candidate_pool(original_ranking(matrix, 0), 1.0)
    lam, rlist, value, evals = binary_search_lambda_traced(
        matrix, 0, pool, lifts, config, catalog
    )
    assert lam == 0.0 and evals == 0
    assert rlist.items == top_k(matrix, 0, 2).items
    assert value == 1.0


def test_binary_search_single_provider_pool_returns_zero_weight():
    matrix = PreferenceMatrix(np.array([[0.9, 0.5, 0.1]]))
    catalog = Catalog.build(np.array([0, 0, 0]), matrix)
    lifts = LiftAssignment(by_provider=np.array([0.7]))
    config = RunConfig(k=2, notion=UF, threshold=0.9)
    pool = candidate_pool(original_ranking(matrix, 0), 1.0)
    lam, rlist, _, evals = binary_search_lambda_traced(
        matrix, 0, pool, lifts, config, catalog
    )
    assert lam == 0.0 and evals == 0
    assert rlist.items == (0, 1)


@pytest.mark.parametrize("by_provider", [[-1.0, 1.0], [0.0, 0.0]])
def test_binary_search_rejects_pool_not_led_by_own_top_k(by_provider):
    # this pool scores NDCG 0.108, yet it used to be reported as 1.0 at weight 0
    matrix = PreferenceMatrix(np.array([[0.9, 0.5, 0.1, 0.05]]))
    catalog = Catalog.build(np.array([0, 0, 1, 1]), matrix)
    lifts = LiftAssignment(by_provider=np.array(by_provider))
    config = RunConfig(k=2, notion=UF, threshold=0.9)
    pool = RankedList(0, (2, 3, 0))
    assert ndcg(matrix, 0, RankedList(0, (2, 3)), 2) < config.threshold
    for search in (binary_search_lambda, binary_search_lambda_traced):
        with pytest.raises(ValueError, match="user 0"):
            search(matrix, 0, pool, lifts, config, catalog)


@pytest.mark.parametrize("search_k", [3, 5])
def test_whole_catalog_pool_serves_any_k(search_k):
    # built from a ranking of the top 4, one item more or less than the
    # search's k: the pool is every id, whatever k it was built for
    matrix = PreferenceMatrix(np.array([[0.9, 0.8, 0.7, 0.6, 0.5, 0.4]]))
    catalog = Catalog.build(np.array([0, 1, 0, 1, 0, 1]), matrix)
    pool = candidate_pool(original_ranking(matrix, 0, 4), 1.0, 4, n_items=6)
    assert not isinstance(pool, RankedList)
    full = candidate_pool(original_ranking(matrix, 0), 1.0)
    config = RunConfig(k=search_k, notion=UF, threshold=0.9)
    for by_provider in ([-1.0, 1.0], [0.0, 0.0]):
        lifts = LiftAssignment(by_provider=np.array(by_provider))
        for search in (binary_search_lambda, binary_search_lambda_traced):
            assert (search(matrix, 0, pool, lifts, config, catalog)
                    == search(matrix, 0, full, lifts, config, catalog))


def test_binary_search_reads_a_pool_as_a_set():
    # the user's own top 3, but not in ranking order
    matrix = PreferenceMatrix(np.array([[0.9, 0.5, 0.1, 0.05]]))
    catalog = Catalog.build(np.array([0, 1, 0, 1]), matrix)
    config = RunConfig(k=3, notion=UF, threshold=0.9)
    for by_provider in ([-1.0, 1.0], [0.0, 0.0]):
        lifts = LiftAssignment(by_provider=np.array(by_provider))
        shuffled, ordered = (
            binary_search_lambda_traced(matrix, 0, RankedList(0, pool), lifts, config, catalog)
            for pool in ((1, 0, 2, 3), (0, 1, 2, 3))
        )
        assert shuffled == ordered


def test_binary_search_rejects_pool_without_the_users_top_k():
    # item 1 ties the 2nd score with a smaller id, yet sits outside the pool
    matrix = PreferenceMatrix(np.array([[0.9, 0.5, 0.5, 0.1]]))
    catalog = Catalog.build(np.array([0, 1, 0, 1]), matrix)
    config = RunConfig(k=2, notion=UF, threshold=0.9)
    pool = RankedList(0, (0, 2, 3))
    for by_provider in ([-1.0, 1.0], [0.0, 0.0]):
        lifts = LiftAssignment(by_provider=np.array(by_provider))
        with pytest.raises(ValueError, match="user 0 does not hold the user's own top 2"):
            binary_search_lambda_traced(matrix, 0, pool, lifts, config, catalog)


def test_binary_search_rejects_a_pool_whose_ids_all_lie_below_the_users_top():
    # in the pool's id order, the user's top item 2 would sit past its end
    matrix = PreferenceMatrix(np.array([[0.1, 0.5, 0.9]]))
    catalog = Catalog.build(np.array([0, 1, 1]), matrix)
    config = RunConfig(k=1, notion=UF, threshold=0.9)
    lifts = LiftAssignment(by_provider=np.array([-1.0, 1.0]))
    with pytest.raises(ValueError, match="user 0 does not hold the user's own top 1"):
        binary_search_lambda_traced(matrix, 0, RankedList(0, (0, 1)), lifts, config, catalog)


@st.composite
def whole_catalog_cases(draw):
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["integer", "zero", "near-tied"]))
    steps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    if kind == "integer":
        scores = [float(s) for s in steps]
    elif kind == "zero":
        scores = [0.0] * n
    else:
        scores = [0.5 + 1e-4 * s for s in steps]
    n_providers = draw(st.integers(1, min(4, n)))
    provider_of = draw(st.permutations([i % n_providers for i in range(n)]))
    by_provider = draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1.0]),
                                min_size=n_providers, max_size=n_providers))
    k = draw(st.integers(1, n))
    threshold = draw(st.sampled_from([0.5, 0.8, 0.9, 0.97, 1.0]))
    return scores, provider_of, by_provider, k, threshold


def reference_search(matrix, user, pool, lifts, config, catalog):
    """Plain bisection whose every probe is a full re-rank scored by ``ndcg``."""
    k = config.k
    ids = pool.items if isinstance(pool, RankedList) else range(matrix.n_items)
    pool_lifts = lifts.by_provider[catalog.provider_of[list(ids)]]

    def probe(lam):
        rlist = rerank_with_lambda(matrix, user, pool, lifts, lam, k, catalog)
        return rlist, ndcg(matrix, user, rlist, k)

    best = (0.0, *probe(0.0))
    if np.all(pool_lifts == pool_lifts[0]):
        return (*best, 0)
    evaluations = 0
    lo, hi = 0.0, config.lambda_max
    while hi - lo > config.gap:
        mid = (lo + hi) / 2.0
        evaluations += 1
        rlist, value = probe(mid)
        if value >= config.threshold:
            lo, best = mid, (mid, rlist, value)
        else:
            hi = mid
    if hi == config.lambda_max:
        evaluations += 1
        rlist, value = probe(config.lambda_max)
        if value >= config.threshold:
            best = (config.lambda_max, rlist, value)
    return (*best, evaluations)


def assert_matches_reference(served, matrix, pool, lifts, config, catalog):
    # the search may probe in another order than plain bisection, but must
    # pick the same weight, list and NDCG within the probe bound
    *picked, evaluations = served
    assert picked == list(reference_search(matrix, 0, pool, lifts, config, catalog)[:3])
    assert evaluations <= probe_bound(config)


@settings(max_examples=300, deadline=None)
@given(whole_catalog_cases())
def test_whole_catalog_serve_matches_search_on_full_ranking(case):
    # the plan ranks only the top k and searches all ids as an array;
    # it must find what the search over the fully ranked pool finds, and
    # what a bisection of full re-ranks finds
    scores, provider_of, by_provider, k, threshold = case
    matrix = PreferenceMatrix(np.array([scores]))
    catalog = Catalog.build(np.array(provider_of), matrix)
    lifts = LiftAssignment(by_provider=np.array(by_provider))
    config = RunConfig(k=k, notion=UF, threshold=threshold)
    n = matrix.n_items
    full = candidate_pool(original_ranking(matrix, 0), 1.0)
    standin, pool = reranker._plan(matrix, config, catalog, 0)
    assert standin == top_k(matrix, 0, k)
    if pool is None:
        # a catalog of one provider: the plan keeps no pool, so it is cut here
        assert catalog.n_providers == 1
        pool = candidate_pool(standin, config.ratio, k, n_items=n)
    assert isinstance(pool, RankedList) == (k == n)
    served = binary_search_lambda_traced(matrix, 0, pool, lifts, config, catalog)
    assert served == binary_search_lambda_traced(matrix, 0, full, lifts, config, catalog)
    assert_matches_reference(served, matrix, pool, lifts, config, catalog)
    lam = served[0] or config.lambda_max
    assert (rerank_with_lambda(matrix, 0, pool, lifts, lam, k, catalog)
            == rerank_with_lambda(matrix, 0, full, lifts, lam, k, catalog))
    # a ranked-prefix pool holds its items in score order, not id order
    half = dataclasses.replace(config, ratio=0.5)
    size = math.ceil(n * half.ratio)
    if size >= k:
        prefix = candidate_pool(original_ranking(matrix, 0), half.ratio, k)
        assert isinstance(prefix, RankedList) and len(prefix) == size
        assert_matches_reference(
            binary_search_lambda_traced(matrix, 0, prefix, lifts, half, catalog),
            matrix, prefix, lifts, half, catalog,
        )


@settings(max_examples=200, deadline=None)
@given(whole_catalog_cases(), st.data())
def test_search_reads_a_ranked_prefix_in_any_order_alike(case, data):
    scores, provider_of, by_provider, k, threshold = case
    matrix = PreferenceMatrix(np.array([scores]))
    catalog = Catalog.build(np.array(provider_of), matrix)
    lifts = LiftAssignment(by_provider=np.array(by_provider))
    config = RunConfig(k=k, notion=UF, threshold=threshold)
    size = data.draw(st.integers(k, matrix.n_items))
    prefix = original_ranking(matrix, 0, size)
    shuffled = RankedList(0, tuple(data.draw(st.permutations(prefix.items))))
    assert (binary_search_lambda_traced(matrix, 0, shuffled, lifts, config, catalog)
            == binary_search_lambda_traced(matrix, 0, prefix, lifts, config, catalog))


@st.composite
def oracle_cases(draw):
    n = draw(st.integers(3, 13))
    kind = draw(st.sampled_from(["integer", "one-decimal", "near-tied"]))
    if kind == "integer":
        scores = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    elif kind == "one-decimal":
        scores = [v / 10 for v in draw(st.lists(st.integers(0, 10), min_size=n, max_size=n))]
    else:
        scores = draw(st.lists(st.floats(0.5, 0.501), min_size=n, max_size=n))
    n_providers = draw(st.integers(1, min(4, n)))
    provider_of = draw(st.permutations([i % n_providers for i in range(n)]))
    by_provider = draw(st.lists(st.floats(-1.0, 1.0), min_size=n_providers,
                                max_size=n_providers))
    ratio = draw(st.sampled_from([1.0, 0.5]))
    k = draw(st.integers(1, math.ceil(n * ratio)))
    threshold = draw(st.floats(0.5, 1.0))
    return scores, provider_of, by_provider, ratio, k, threshold


@settings(max_examples=300, deadline=None)
@given(oracle_cases())
def test_binary_search_agrees_with_oracle_profile(case):
    scores, provider_of, by_provider, ratio, k, threshold = case
    matrix = PreferenceMatrix(np.array([scores], dtype=np.float64))
    catalog = Catalog.build(np.array(provider_of), matrix)
    lifts = LiftAssignment(by_provider=np.array(by_provider))
    config = RunConfig(k=k, notion=UF, threshold=threshold, ratio=ratio)
    gap, lambda_max = config.gap, config.lambda_max
    ranking = original_ranking(matrix, 0)
    pool = candidate_pool(ranking, ratio, k)
    ids = list(pool.items)
    lam, served, value, _ = binary_search_lambda_traced(matrix, 0, pool, lifts, config, catalog)
    assert value >= threshold
    assert naive_ndcg(scores, served.items, k) == pytest.approx(value, abs=1e-12)
    pool_lifts = lifts.by_provider[catalog.provider_of[ids]]
    if np.all(pool_lifts == pool_lifts[0]):
        # constant lifts within the pool reorder nothing: the search is skipped
        assert lam == 0.0 and served == RankedList(0, ranking.items[:k])
        return
    profile = [v for _, v in grid_lambda_profile(matrix, 0, ids, lifts, catalog, lambda_max, 257, k)]
    assert all(a >= b - 1e-12 for a, b in zip(profile, profile[1:]))
    if lam < lambda_max - 2 * gap:
        # bisection stopped within gap of a failing weight
        _, beyond = grid_lambda_profile(matrix, 0, ids, lifts, catalog, lam + 2 * gap, 2, k)[-1]
        assert beyond < threshold


def test_search_keeps_its_float_guarantees_at_ulp_near_ties():
    # scores 3 + {0, 1, 3, 2} ulp: rounding merges lifted keys of one provider
    # into ties broken by id, so NDCG is not monotone in the weight
    scores = [3.0, 3.0000000000000004, 3.0000000000000013, 3.000000000000001]
    matrix = PreferenceMatrix(np.array([scores]))
    catalog = Catalog.build(np.array([1, 0, 0, 1]), matrix)
    lifts = LiftAssignment(np.array([0.11, 0.32]))
    config = RunConfig(k=4, notion=UF, threshold=1.0)
    pool = reranker._CATALOG

    def ndcg_at(lam):
        return ndcg(matrix, 0, rerank_with_lambda(matrix, 0, pool, lifts, lam, 4, catalog), 4)

    assert ndcg_at(14.0) < 1.0 == ndcg_at(16.0)
    lam, served, value, probes = binary_search_lambda_traced(
        matrix, 0, pool, lifts, config, catalog
    )
    assert value == ndcg(matrix, 0, served, config.k) >= config.threshold
    assert probes <= probe_bound(config) == 12
    assert served == rerank_with_lambda(matrix, 0, pool, lifts, lam, config.k, catalog)


def test_binary_search_returns_lambda_max_when_floor_never_breaks():
    # two tied items from different providers: reordering costs nothing
    matrix = PreferenceMatrix(np.array([[0.5, 0.5]]))
    catalog = Catalog.build(np.array([0, 1]), matrix)
    lifts = LiftAssignment(by_provider=np.array([-1.0, 1.0]))
    config = RunConfig(k=1, notion=UF, threshold=0.9)
    pool = candidate_pool(original_ranking(matrix, 0), 1.0)
    lam, rlist, value, evals = binary_search_lambda_traced(
        matrix, 0, pool, lifts, config, catalog
    )
    assert lam == config.lambda_max
    # lambda_max / 2 passes, so lambda_max is probed next, and it passes too
    assert evals == 2
    assert rlist.items == (1,)
    assert value == 1.0


@pytest.mark.parametrize("depth", [1, None])
def test_binary_search_bisects_below_a_failing_lambda_max(depth):
    # item 3 overtakes item 0 only beyond weight (1.0 - 0.15) / 0.1 = 8.5: the
    # first probe, 8, passes and lambda_max fails
    matrix = PreferenceMatrix(np.array([[1.0, 0.9, 0.8, 0.15]]))
    catalog = Catalog.build(np.array([0, 0, 0, 1]), matrix)
    lifts = LiftAssignment(by_provider=np.array([0.0, 0.1]))
    config = RunConfig(k=1, notion=UF, threshold=0.9)
    # the whole catalog led by the top 1, and the fully ranked pool
    pool = candidate_pool(original_ranking(matrix, 0, depth), 1.0, 1, n_items=4)
    served = binary_search_lambda_traced(matrix, 0, pool, lifts, config, catalog)
    lam, rlist, value, evals = served
    assert config.lambda_max / 2 < lam <= 8.5
    assert rlist.items == (0,) and value == 1.0
    assert evals == probe_bound(config)
    assert_matches_reference(served, matrix, pool, lifts, config, catalog)


@pytest.mark.parametrize("lambda_max", [1.0, 16.0, 3.0, 0.7])
@pytest.mark.parametrize("threshold", [0.9, 0.5])
def test_binary_search_ends_at_smallest_accepted_gap(lambda_max, threshold):
    # a gap below the float spacing at lambda_max used to hang the search
    gap = math.ulp(lambda_max)
    with pytest.raises(ValueError, match=rf"gap {gap / 2!r} .*lambda_max {lambda_max!r}"):
        RunConfig(k=2, notion=UF, lambda_max=lambda_max, gap=gap / 2)
    matrix = PreferenceMatrix(np.array([[0.9, 0.8, 0.7, 0.6, 0.5, 0.4]]))
    catalog = Catalog.build(np.array([0, 0, 1, 1, 2, 2]), matrix)
    lifts = LiftAssignment(by_provider=np.array([-1.0, 0.5, 0.5]))
    config = RunConfig(k=2, notion=UF, threshold=threshold, lambda_max=lambda_max, gap=gap)
    pool = candidate_pool(original_ranking(matrix, 0), 1.0)
    _, _, value, evals = binary_search_lambda_traced(matrix, 0, pool, lifts, config, catalog)
    assert value >= threshold
    assert 0 < evals <= probe_bound(config)


def test_binary_search_meets_floor_and_grid_reference():
    for trial in range(8):
        inst = make_search_instance(3_000 + trial)
        ranking = original_ranking(inst.matrix, inst.user)
        pool = candidate_pool(ranking, 1.0, inst.config.k)
        lam, rlist, value, evals = binary_search_lambda_traced(
            inst.matrix, inst.user, pool, inst.lifts, inst.config, inst.catalog
        )
        assert value >= inst.config.threshold - 1e-9
        assert value == pytest.approx(
            ndcg(inst.matrix, inst.user, rlist, inst.config.k), abs=1e-12
        )
        assert evals <= probe_bound(inst.config)

        profile = grid_lambda_profile(
            inst.matrix,
            inst.user,
            pool.items,
            inst.lifts,
            inst.catalog,
            inst.config.lambda_max,
            4097,
            k=inst.config.k,
        )
        passing = [g for g, v in profile if v >= inst.config.threshold]
        grid_lam = max(passing)
        assert abs(lam - grid_lam) <= inst.config.gap + 1e-12


def test_ndcg_profile_is_monotone_small():
    for trial in range(10):
        inst = make_search_instance(5_000 + trial)
        pool = candidate_pool(original_ranking(inst.matrix, inst.user), 1.0)
        profile = grid_lambda_profile(
            inst.matrix,
            inst.user,
            pool.items,
            inst.lifts,
            inst.catalog,
            16.0,
            200,
            k=inst.config.k,
        )
        values = [v for _, v in profile]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def offline_setup(threshold=0.9, users=15, items=40, providers=4, k=5, seed=2):
    matrix, catalog = generate_synthetic(users, items, providers, 1.5, seed=seed)
    config = RunConfig(k=k, notion=UF, threshold=threshold)
    return matrix, catalog, config


def test_offline_respects_quality_floor_everywhere():
    matrix, catalog, config = offline_setup()
    _, _, report = fairsort_offline(matrix, catalog, config)
    assert min(report.per_user.values()) >= config.threshold - 1e-9


def test_offline_conserves_exposure():
    matrix, catalog, config = offline_setup()
    _, ledger, _ = fairsort_offline(matrix, catalog, config)
    budget = total_exposure(matrix.n_users, config.k)
    assert ledger.exposure.sum() == pytest.approx(budget, rel=1e-9)


def test_offline_accumulate_mode_doubles_ledger_mass():
    matrix, catalog, config = offline_setup()
    config = dataclasses.replace(config, exposure_update="accumulate")
    _, ledger, _ = fairsort_offline(matrix, catalog, config)
    budget = total_exposure(matrix.n_users, config.k)
    assert ledger.exposure.sum() == pytest.approx(2 * budget, rel=1e-9)


def test_offline_threshold_one_reproduces_top_k():
    matrix, catalog, config = offline_setup(threshold=1.0)
    lists, _, report = fairsort_offline(matrix, catalog, config)
    for user in range(matrix.n_users):
        assert lists[user].items == top_k(matrix, user, config.k).items
    assert min(report.per_user.values()) == 1.0


def test_offline_single_provider_reproduces_top_k():
    rng = np.random.default_rng(17)
    matrix = PreferenceMatrix(rng.random((8, 20)))
    catalog = Catalog.build(np.zeros(20, dtype=np.int64), matrix)
    config = RunConfig(k=4, notion=UF, threshold=0.9)
    lists, _, _ = fairsort_offline(matrix, catalog, config)
    for user in range(8):
        assert lists[user].items == top_k(matrix, user, config.k).items


def serve_by_search(matrix, config, ledger, standin, pool):
    # the serve step with lifts computed and the search called for every
    # pool: one the plan marked as one provider (None) is cut afresh
    lifts = normalize_lifts(err_rates(ledger))
    if pool is None:
        pool = candidate_pool(original_ranking(matrix, standin.user), config.ratio, config.k)
    _, served, value = binary_search_lambda(
        matrix, standin.user, pool, lifts, config, ledger.catalog
    )
    if config.exposure_update == "replace":
        ledger.retract(standin, config.k)
    ledger.apply(served, config.k)
    return served, value


def forbid_lifts_and_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a pool of one provider needs no lifts and no search")

    for name in ("err_rates", "normalize_lifts", "binary_search_lambda"):
        monkeypatch.setattr(reranker, name, refuse)


@pytest.mark.parametrize("notion", list(FairnessNotion))
@pytest.mark.parametrize("ratio", [1.0, 0.5])
def test_offline_one_provider_catalog_is_served_without_search(monkeypatch, ratio, notion):
    # ratio 1 gives the whole-catalog pool, 0.5 a ranked prefix
    rng = np.random.default_rng(5)
    matrix = PreferenceMatrix(rng.random((6, 12)))
    catalog = Catalog.build(np.zeros(12, dtype=np.int64), matrix)
    config = RunConfig(k=3, notion=notion, ratio=ratio)
    with monkeypatch.context() as patched:
        patched.setattr(reranker, "_serve", serve_by_search)
        searched, searched_ledger, searched_report = fairsort_offline(matrix, catalog, config)
    forbid_lifts_and_search(monkeypatch)
    lists, ledger, report = fairsort_offline(matrix, catalog, config)
    assert lists == searched and report == searched_report
    for user in range(matrix.n_users):
        assert lists[user] == top_k(matrix, user, config.k)
        assert report.per_user[user] == 1.0
    assert ledger.snapshot_lines() == searched_ledger.snapshot_lines()


@pytest.mark.parametrize("notion", list(FairnessNotion))
def test_online_pool_inside_one_provider_is_served_without_search(monkeypatch, notion):
    # provider 0 owns every user's top half, and the pool is the top quarter
    rng = np.random.default_rng(6)
    scores = np.hstack([0.5 + rng.random((4, 6)) / 2, rng.random((4, 6)) / 2])
    matrix = PreferenceMatrix(scores)
    catalog = Catalog.build(np.repeat([0, 1], 6), matrix)
    config = RunConfig(k=2, notion=notion, ratio=0.25)
    trace = [0, 1, 2, 3, 0, 2]
    with monkeypatch.context() as patched:
        patched.setattr(reranker, "_serve", serve_by_search)
        searched = OnlineState.fresh(catalog, notion)
        searched_lists = [
            fairsort_online_step(searched, matrix, catalog, user, config)[0] for user in trace
        ]
    forbid_lifts_and_search(monkeypatch)
    state = OnlineState.fresh(catalog, notion)
    lists = [fairsort_online_step(state, matrix, catalog, user, config)[0] for user in trace]
    assert lists == searched_lists == [top_k(matrix, user, config.k) for user in trace]
    assert state.ndcg_log == searched.ndcg_log == [(user, 1.0) for user in trace]
    assert state.ledger.snapshot_lines() == searched.ledger.snapshot_lines()


def one_provider_row(rng, provider):
    # a row of 24 items, six per provider, whose top quarter is the
    # provider's six alone and whose top half is not
    row = rng.random(24) / 2
    row[6 * provider : 6 * provider + 6] += 0.5
    return row


def mixed_pools(seed):
    # users 0-3 have pools of one provider at ratio 0.25, users 4-7 mixed ones
    rng = np.random.default_rng(seed)
    rows = [one_provider_row(rng, user) for user in range(4)]
    matrix = PreferenceMatrix(np.vstack(rows + [rng.random(24) for _ in range(4)]))
    return matrix, Catalog.build(np.repeat(np.arange(4), 6), matrix)


def step_planned_afresh(state, matrix, user, config):
    # the online step from public parts, the user ranked, pooled and searched
    # on every request
    ledger = state.ledger
    ranking = original_ranking(matrix, user)
    ledger.set_budget(total_exposure(len(state.ndcg_log) + 1, config.k))
    ledger.apply(ranking, config.k)
    pool = candidate_pool(ranking, config.ratio, config.k)
    lifts = normalize_lifts(err_rates(ledger))
    _, served, value = binary_search_lambda(matrix, user, pool, lifts, config, ledger.catalog)
    ledger.retract(ranking, config.k)
    ledger.apply(served, config.k)
    state.ndcg_log.append((user, value))
    return served


@pytest.mark.parametrize("notion", list(FairnessNotion))
def test_online_repeat_requests_serve_as_plans_made_afresh(notion):
    matrix, catalog = mixed_pools(9)
    config = RunConfig(k=3, notion=notion, ratio=0.25)
    trace = make_trace(matrix.n_users, 4, seed=9)
    state, afresh = OnlineState.fresh(catalog, notion), OnlineState.fresh(catalog, notion)
    lists = [fairsort_online_step(state, matrix, catalog, user, config)[0] for user in trace]
    assert lists == [step_planned_afresh(afresh, matrix, user, config) for user in trace]
    assert state.ndcg_log == afresh.ndcg_log
    assert state.ledger.snapshot_lines() == afresh.ledger.snapshot_lines()


def test_online_step_plans_each_user_once(monkeypatch):
    matrix, catalog = mixed_pools(10)
    config = RunConfig(k=3, notion=UF, ratio=0.25)
    calls = Counter()
    for name in ("original_ranking", "candidate_pool", "binary_search_lambda"):
        def counted(*args, _name=name, _fn=getattr(reranker, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(reranker, name, counted)
    state = OnlineState.fresh(catalog, UF)
    for user in make_trace(matrix.n_users, 3, seed=10):
        _, state = fairsort_online_step(state, matrix, catalog, user, config)
    # the four users with mixed pools are searched on every request
    assert calls == {"original_ranking": 8, "candidate_pool": 8, "binary_search_lambda": 12}
    # a float names no user, even one equal to a planned user's id
    with pytest.raises(ValueError, match=r"user must be an integer, got 1\.0"):
        fairsort_online_step(state, matrix, catalog, 1.0, config)


@pytest.mark.parametrize("k, ratio, depth", [(3, 1.0, 3), (3, 0.3, 8), (24, 1.0, 24)],
                         ids=["whole-catalog", "prefix", "k-is-n"])
def test_serve_path_ranks_each_user_as_deep_as_its_pool(monkeypatch, k, ratio, depth):
    # of 24 items: a whole-catalog pool reads no ranking, so the user is
    # ranked to k, the stand-in; a prefix pool to its size, ceil(24 * 0.3);
    # at k = n that is every item
    matrix, catalog = mixed_pools(11)
    config = RunConfig(k=k, notion=UF, ratio=ratio)
    depths = []

    def recorded(matrix, user, depth=None, _rank=reranker.original_ranking):
        depths.append(depth)
        return _rank(matrix, user, depth)

    monkeypatch.setattr(reranker, "original_ranking", recorded)
    fairsort_offline(matrix, catalog, config)
    assert depths == [depth] * matrix.n_users
    depths.clear()
    state = OnlineState.fresh(catalog, UF)
    for user in [0, 5, 0, 7]:
        fairsort_online_step(state, matrix, catalog, user, config)
    assert depths == [depth] * 3


@pytest.mark.parametrize("change", ["matrix", "k", "ratio"])
def test_online_step_plans_again_for_new_inputs(monkeypatch, change):
    rng = np.random.default_rng(8)
    mixed = rng.random((1, 24))
    matrix = PreferenceMatrix(one_provider_row(rng, 0)[None, :])
    catalog = Catalog.build(np.repeat(np.arange(4), 6), matrix)
    config = RunConfig(k=2, notion=UF, ratio=0.25)
    state = OnlineState.fresh(catalog, UF)
    # user 0's plan before the change: a mixed pool to search, or three items
    if change == "matrix":
        fairsort_online_step(state, PreferenceMatrix(mixed), catalog, 0, config)
    elif change == "k":
        fairsort_online_step(state, matrix, catalog, 0, dataclasses.replace(config, k=3))
    else:
        fairsort_online_step(state, matrix, catalog, 0, dataclasses.replace(config, ratio=0.5))
    forbid_lifts_and_search(monkeypatch)
    served, state = fairsort_online_step(state, matrix, catalog, 0, config)
    assert served == top_k(matrix, 0, config.k)
    assert state.ndcg_log[-1] == (0, 1.0)


def test_offline_rejects_bad_order():
    matrix, catalog, config = offline_setup()
    with pytest.raises(ValueError):
        fairsort_offline(matrix, catalog, config, order=[0, 1])
    # a bool or a float names no user, even where it equals one
    for order in ([True, False], [1.0, 0.0]):
        with pytest.raises(ValueError, match="order must be a permutation of all user ids"):
            fairsort_offline(*offline_setup(users=2), order=order)
    lists, _, _ = fairsort_offline(*offline_setup(users=2), order=[np.int64(1), np.int64(0)])
    assert sorted(lists) == [0, 1]


def test_offline_custom_order_changes_nothing_about_guarantees():
    matrix, catalog, config = offline_setup()
    order = list(reversed(range(matrix.n_users)))
    _, ledger, report = fairsort_offline(matrix, catalog, config, order=order)
    assert min(report.per_user.values()) >= config.threshold - 1e-9
    budget = total_exposure(matrix.n_users, config.k)
    assert ledger.exposure.sum() == pytest.approx(budget, rel=1e-9)


def test_online_first_request_budget_and_conservation():
    matrix, catalog, config = offline_setup(users=6)
    state = OnlineState.fresh(catalog, config.notion)
    rlist, state = fairsort_online_step(state, matrix, catalog, 3, config)
    assert len(state.ndcg_log) == 1
    assert state.ledger.budget == pytest.approx(total_exposure(1, config.k), rel=1e-12)
    assert state.ledger.exposure.sum() == pytest.approx(state.ledger.budget, rel=1e-9)
    assert len(rlist) == config.k


def test_online_conserves_exposure_each_step():
    matrix, catalog, config = offline_setup(users=6)
    state = OnlineState.fresh(catalog, config.notion)
    trace = [3, 1, 3, 0, 2, 5, 4, 3]
    for step, user in enumerate(trace, start=1):
        _, state = fairsort_online_step(state, matrix, catalog, user, config)
        assert state.ledger.exposure.sum() == pytest.approx(
            total_exposure(step, config.k), rel=1e-9
        )
    assert [u for u, _ in state.ndcg_log] == trace
    assert all(v >= config.threshold - 1e-9 for _, v in state.ndcg_log)


def add_exact(partials: list[float], x: float) -> None:
    """Add ``x`` to a sum held exactly as non-overlapping floats.

    These are the partials ``math.fsum`` keeps while it adds, so
    ``math.fsum(partials)`` is the correctly rounded sum of every ``x``
    added so far.
    """
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


@pytest.mark.parametrize("notion", list(FairnessNotion))
def test_online_ledger_matches_exact_sum_over_long_trace(notion):
    matrix, catalog = generate_synthetic(20, 60, 6, 1.5, seed=13)
    # a coarse gap: fewer probes per request, and the ledger is what is tested
    config = RunConfig(k=5, notion=notion, ratio=0.5, gap=0.5)
    weights = (1.0 / np.log2(np.arange(2, config.k + 2))).tolist()
    provider_of = catalog.provider_of.tolist()
    # every served list's slot weights, added exactly, per provider
    exact: list[list[float]] = [[] for _ in range(catalog.n_providers)]
    state = OnlineState.fresh(catalog, notion)
    trace = make_trace(matrix.n_users, 500, seed=13)
    assert len(trace) == 10**4
    for user in trace:
        served, state = fairsort_online_step(state, matrix, catalog, user, config)
        for item, weight in zip(served.items, weights):
            add_exact(exact[provider_of[item]], weight)
        exposure = state.ledger.exposure
        bound = 1e-12 * state.ledger.budget
        assert abs(exposure.sum() - math.fsum(x for p in exact for x in p)) <= bound
        for provider, partials in enumerate(exact):
            assert abs(exposure[provider] - math.fsum(partials)) <= bound


def test_online_second_request_moves_exposure_off_dominant_provider():
    # provider 0 owns the user's whole top-k; serving twice should shift some
    # of the second list's exposure toward the starved providers
    matrix, catalog, config = offline_setup(users=10, items=30, providers=3, k=5)
    from fairsort import list_contribution

    user = 0
    state = OnlineState.fresh(catalog, config.notion)
    first, state = fairsort_online_step(state, matrix, catalog, user, config)
    second, state = fairsort_online_step(state, matrix, catalog, user, config)
    top_provider = int(
        np.argmax(list_contribution(top_k(matrix, user, config.k), config.k, catalog))
    )
    first_share = list_contribution(first, config.k, catalog)[top_provider]
    second_share = list_contribution(second, config.k, catalog)[top_provider]
    assert second_share <= first_share + 1e-12


def test_online_step_rejects_a_config_of_another_notion():
    # the state's ledger fixes the notion, so a config of another one is refused
    matrix, catalog = generate_synthetic(20, 60, 6, 1.5, seed=3)
    state = OnlineState.fresh(catalog, UF)
    config = RunConfig(k=5, notion=FairnessNotion.QUALITY_WEIGHTED, ratio=0.5)
    with pytest.raises(ValueError, match="'qf' differs from the online state's 'uf'"):
        fairsort_online_step(state, matrix, catalog, 0, config)
    assert state.ndcg_log == [] and state.ledger.exposure.sum() == 0.0


@pytest.mark.parametrize("providers, skew", [(6, 0.0), (3, 1.5)])
def test_online_step_rejects_a_catalog_not_the_states(providers, skew):
    # the ledger credits its own catalog, so serving with another one, even
    # of the same size, would split lifts and credit on different maps
    matrix, catalog = generate_synthetic(20, 60, 6, 1.5, seed=3)
    _, foreign = generate_synthetic(20, 60, providers, skew, seed=3)
    state = OnlineState.fresh(catalog, UF)
    config = RunConfig(k=5, notion=UF, ratio=0.5)
    message = (
        f"catalog of 60 items and {providers} providers is not the online state's "
        r"own \(60 items, 6 providers\)"
    )
    with pytest.raises(ValueError, match=message):
        fairsort_online_step(state, matrix, foreign, 0, config)
    assert state.ndcg_log == [] and state.ledger.exposure.sum() == 0.0


@pytest.mark.parametrize("catalog_items", [25, 15])
def test_loops_reject_a_catalog_of_another_size(catalog_items):
    matrix, _ = generate_synthetic(6, 20, 3, 1.0, seed=4)
    _, catalog = generate_synthetic(6, catalog_items, 3, 1.0, seed=4)
    config = RunConfig(k=3, notion=UF, ratio=0.5)
    message = f"catalog has {catalog_items} items but the preference matrix has 20"
    with pytest.raises(ValueError, match=message):
        fairsort_offline(matrix, catalog, config)
    state = OnlineState.fresh(catalog, UF)
    with pytest.raises(ValueError, match=message):
        fairsort_online_step(state, matrix, catalog, 0, config)
    # the search and a single re-sort read the provider map by the matrix's ids
    lifts = LiftAssignment(np.zeros(catalog.n_providers))
    for pool in (original_ranking(matrix, 0), reranker._CATALOG):
        with pytest.raises(ValueError, match=message):
            binary_search_lambda(matrix, 0, pool, lifts, config, catalog)
        with pytest.raises(ValueError, match=message):
            rerank_with_lambda(matrix, 0, pool, lifts, 1.0, config.k, catalog)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(k=0, notion=UF)
    # k must be an integer and not a bool; numpy integers count
    for k in (2.5, 3.0, True, "3", None):
        with pytest.raises(ValueError, match=f"k must be an integer, got {k!r}"):
            RunConfig(k=k, notion=UF)
    assert RunConfig(k=np.int64(3), notion=UF).k == 3
    with pytest.raises(ValueError):
        RunConfig(k=5, notion=UF, threshold=0.0)
    with pytest.raises(ValueError):
        RunConfig(k=5, notion=UF, threshold=1.2)
    with pytest.raises(ValueError):
        RunConfig(k=5, notion=UF, gap=20.0)
    with pytest.raises(ValueError):
        RunConfig(k=5, notion=UF, ratio=0.0)
    with pytest.raises(ValueError, match="exposure_update"):
        RunConfig(k=5, notion=UF, exposure_update="overwrite")
    # adjacent doubles near lambda_max are further apart than this gap
    with pytest.raises(ValueError, match=r"gap 1e-300 .*lambda_max 1\.0"):
        RunConfig(k=2, notion=UF, gap=1e-300, lambda_max=1.0)
    # a non-finite bound would leave bisection running forever
    for bound in ({"lambda_max": math.inf}, {"lambda_max": math.nan},
                  {"gap": math.inf}, {"gap": math.nan}):
        with pytest.raises(ValueError):
            RunConfig(k=5, notion=UF, **bound)


# two tied subnormal scores: unscaled, the DCG of (2, 3, 0) rounds up to the
# ideal's, and that list was served at threshold 1 and logged at NDCG 1
SUBNORMAL = PreferenceMatrix(np.array([[5e-324, 0.0, 5e-324, 0.0], [0.0, 1.0, 0.0, 1.0]]))
SUBNORMAL_CATALOG = Catalog.build(np.array([0, 0, 1, 1]), SUBNORMAL)


def test_ndcg_of_a_subnormal_row_is_exact():
    below = RankedList(0, (2, 3, 0))
    exact = exact_ndcg(SUBNORMAL.scores[0].tolist(), below.items, 3)
    assert ndcg(SUBNORMAL, 0, below, 3) == float(exact) == 0.9197207891481876
    assert ndcg(SUBNORMAL, 0, RankedList(0, (2, 0, 1)), 3) == 1.0


def test_subnormal_row_meets_the_floor_offline_and_online():
    config = RunConfig(k=3, notion=UF, threshold=1.0)
    lists, _, report = fairsort_offline(SUBNORMAL, SUBNORMAL_CATALOG, config)
    assert lists[0].items == (0, 2, 1) and report.per_user[0] == 1.0
    state = OnlineState.fresh(SUBNORMAL_CATALOG, UF)
    for user in (0, 1, 0, 0, 1):
        served, state = fairsort_online_step(state, SUBNORMAL, SUBNORMAL_CATALOG, user, config)
        assert exact_ndcg(SUBNORMAL.scores[user].tolist(), served.items, 3) == 1
    assert [value for _, value in state.ndcg_log] == [1.0] * 5


# scores on every scale the matrix accepts: zero, subnormal, tied, huge
HOSTILE_SCORES = st.sampled_from([0.0, 5e-324, 1e-310, 0.5, 1.0, 1e300])


@st.composite
def hostile_runs(draw):
    n_items = draw(st.integers(2, 6))
    n_users = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(HOSTILE_SCORES, min_size=n_items, max_size=n_items),
                         min_size=n_users, max_size=n_users))
    if draw(st.booleans()):
        rows[0] = [0.0] * n_items
    n_providers = draw(st.integers(1, min(3, n_items)))
    provider_of = draw(st.permutations([i % n_providers for i in range(n_items)]))
    ratio = draw(st.sampled_from([1.0, 0.5]))
    pool_size = math.ceil(n_items * ratio)
    # a pool of exactly k, which at ratio 1 is k = n_items
    k = draw(st.just(pool_size) | st.integers(1, pool_size))
    threshold = draw(st.sampled_from([0.5, 0.9, 1.0]))
    notion = draw(st.sampled_from([UF, QF]))
    trace = draw(st.lists(st.integers(0, n_users - 1), min_size=1, max_size=6))
    config = RunConfig(k=k, notion=notion, threshold=threshold, ratio=ratio,
                       lambda_max=draw(st.sampled_from([16.0, 1e3, 1e6])),
                       gap=draw(st.sampled_from([2.0**-7, 1e-9])))
    return rows, provider_of, config, trace


def assert_served_exactly(matrix, user, served, value, config):
    # the logged NDCG is the package's own, and the exact one clears the floor
    exact = exact_ndcg(matrix.scores[user].tolist(), served.items, config.k)
    assert value == ndcg(matrix, user, served, config.k)
    assert abs(value - float(exact)) <= 1e-12
    assert exact >= config.threshold - 1e-12


def bounded_search(matrix, user, pool, lifts, config, catalog):
    """The serve path's search, through the traced one, held to its probe bound."""
    lam, rlist, value, probes = binary_search_lambda_traced(
        matrix, user, pool, lifts, config, catalog
    )
    assert probes <= probe_bound(config)
    return lam, rlist, value


def assert_replays(matrix, catalog, scenario, lists, ledger, values, config):
    record = RunRecord(matrix=matrix, catalog=catalog, scenario=scenario, k=config.k,
                       lists=tuple(lists), ledger_exposure=ledger.exposure,
                       histogram=ndcg_histogram(values), threshold=config.threshold)
    verdict = replay_check(record, config)
    assert verdict.ok, verdict.violations


@settings(max_examples=300, deadline=None)
@given(hostile_runs())
def test_whole_runs_meet_the_floor_on_every_score_scale(run):
    rows, provider_of, config, trace = run
    matrix = PreferenceMatrix(np.array(rows))
    catalog = Catalog.build(np.array(provider_of), matrix)
    if config.notion is QF and not catalog.quality_mass.any():
        for run_from_nothing in (lambda: fairsort_offline(matrix, catalog, config),
                                 lambda: OnlineState.fresh(catalog, QF)):
            with pytest.raises(ValueError, match="need positive total quality mass"):
                run_from_nothing()
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reranker, "binary_search_lambda", bounded_search)
        lists, ledger, report = fairsort_offline(matrix, catalog, config)
        users = range(matrix.n_users)
        for user in users:
            assert_served_exactly(matrix, user, lists[user], report.per_user[user], config)
        budget = total_exposure(matrix.n_users, config.k)
        assert abs(ledger.exposure.sum() - budget) <= 1e-12 * budget
        assert_replays(matrix, catalog, "offline", [lists[u] for u in users], ledger,
                       [report.per_user[u] for u in users], config)
        state = OnlineState.fresh(catalog, config.notion)
        served_lists = []
        for user in trace:
            served, state = fairsort_online_step(state, matrix, catalog, user, config)
            assert_served_exactly(matrix, user, served, state.ndcg_log[-1][1], config)
            budget = state.ledger.budget
            assert abs(state.ledger.exposure.sum() - budget) <= 1e-12 * budget
            served_lists.append(served)
        assert_replays(matrix, catalog, "online", served_lists, state.ledger,
                       [value for _, value in state.ndcg_log], config)


# provider 0's quality mass is the smallest subnormal, so its deficit over
# its mass overflows; the same run always passed under uf
TINY_MASS = PreferenceMatrix(np.array([[5e-324, 0.0, 0.0, 0.0], [0.0, 1.0, 0.5, 0.25]]))
TINY_MASS_CATALOG = Catalog.build(np.array([0, 1, 1, 2]), TINY_MASS)


def test_qf_run_on_a_subnormal_quality_mass_completes():
    config = RunConfig(k=2, notion=QF)
    lists, ledger, report = fairsort_offline(TINY_MASS, TINY_MASS_CATALOG, config)
    for user, served in lists.items():
        assert_served_exactly(TINY_MASS, user, served, report.per_user[user], config)
    assert ledger.exposure.sum() == pytest.approx(total_exposure(2, 2), rel=1e-12)
    state = OnlineState.fresh(TINY_MASS_CATALOG, QF)
    for user in (0, 1, 1, 0, 1):
        served, state = fairsort_online_step(state, TINY_MASS, TINY_MASS_CATALOG, user, config)
        assert_served_exactly(TINY_MASS, user, served, state.ndcg_log[-1][1], config)
        assert state.ledger.exposure.sum() == pytest.approx(state.ledger.budget, rel=1e-12)


@st.composite
def tied_catalogs(draw):
    n_items = draw(st.integers(1, 6))
    n_users = draw(st.integers(1, 3))
    rows = draw(st.lists(
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=n_items, max_size=n_items),
        min_size=n_users, max_size=n_users))
    n_providers = draw(st.integers(1, min(3, n_items)))
    provider_of = draw(st.permutations([i % n_providers for i in range(n_items)]))
    lifts = draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                          min_size=n_providers, max_size=n_providers))
    matrix = PreferenceMatrix(np.array(rows))
    return matrix, Catalog.build(np.array(provider_of), matrix), LiftAssignment(np.array(lifts))


def lists_the_package_builds(matrix, catalog, lifts, user):
    n = matrix.n_items
    full = original_ranking(matrix, user)
    for k in range(1, n + 1):
        yield from (original_ranking(matrix, user, k), top_k(matrix, user, k),
                    mixed_k(matrix, user, k, seed=k), all_random(matrix, user, k, seed=k),
                    min_exposure(matrix, user, k, np.zeros(n)))
        for ratio in (1.0, 0.5):
            config = RunConfig(k=k, notion=UF, ratio=ratio)
            if math.ceil(n * ratio) < k:
                continue
            # a prefix of the full ranking; at ratio 1, also the whole
            # catalog as a top-k ranking's pool
            pools = [candidate_pool(full, ratio, k)]
            if ratio == 1.0:
                pools.append(candidate_pool(original_ranking(matrix, user, k), 1.0, k, n_items=n))
            for pool in pools:
                if isinstance(pool, RankedList):
                    yield pool
                yield binary_search_lambda_traced(matrix, user, pool, lifts, config, catalog)[1]
                yield rerank_with_lambda(matrix, user, pool, lifts, 1.0, k, catalog)
            # the serve path, with its one-provider list when the pool has one provider
            yield from fairsort_offline(matrix, catalog, config)[0].values()


@settings(max_examples=150, deadline=None)
@given(tied_catalogs(), st.data())
def test_lists_the_package_builds_equal_checked_lists(instance, data):
    matrix, catalog, lifts = instance
    user = data.draw(st.integers(0, matrix.n_users - 1))
    for built in lists_the_package_builds(matrix, catalog, lifts, user):
        checked = RankedList(built.user, built.items)
        assert built == checked and hash(built) == hash(checked)
        assert type(built.user) is int and type(built.items) is tuple
        assert all(type(item) is int for item in built.items)


def test_a_built_list_is_still_checked_against_a_smaller_catalog():
    matrix, _ = generate_synthetic(2, 10, 2, 1.0, seed=0)
    ranking = original_ranking(matrix, 0)
    ledger = ExposureLedger(1.0, Catalog(np.array([0, 0, 1, 1]), np.ones(2)), UF)
    with pytest.raises(ValueError, match="user 0 holds item .*, outside the catalog of 4 items"):
        ledger.apply(ranking, 10)
