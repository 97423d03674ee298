"""Candidate pools, weighted re-sorting, the floor search, and both loops."""

import dataclasses
import math

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
    fairsort_offline,
    fairsort_online_step,
    generate_synthetic,
    ndcg,
    original_ranking,
    rerank_with_lambda,
    top_k,
    total_exposure,
)
from fairsort.oracle import grid_lambda_profile, naive_ndcg
from fairsort.reranker import _serve_depth, binary_search_lambda_traced

from conftest import make_search_instance

UF = FairnessNotion.UNIFORM


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
    # a whole-catalog pool needs only the prefix's first k as its head
    whole = candidate_pool(prefix, 1.0, 2, n_items=10)
    assert not isinstance(whole, RankedList) and whole.head.items == (4, 1)
    with pytest.raises(ValueError, match="cannot hold"):
        candidate_pool(prefix, 1.0, 4, n_items=10)


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


@pytest.mark.parametrize(
    "scores, pool, k",
    [
        # the user's own top 3, but not in ranking order
        ([0.9, 0.5, 0.1, 0.05], (1, 0, 2, 3), 3),
        # item 1 ties the 2nd score with a smaller id, yet sits outside the
        # pool's head (and, as a ranked prefix, outside the pool)
        ([0.9, 0.5, 0.5, 0.1], (0, 2, 3), 2),
    ],
)
def test_binary_search_rejects_pool_head_off_the_ranking(scores, pool, k):
    matrix = PreferenceMatrix(np.array([scores]))
    catalog = Catalog.build(np.array([0, 1, 0, 1]), matrix)
    config = RunConfig(k=k, notion=UF, threshold=0.9)
    # as a ranked prefix, and as the whole catalog led by the same head
    whole = candidate_pool(RankedList(0, pool[:k]), 1.0, k, n_items=4)
    assert not isinstance(whole, RankedList)
    for form in (RankedList(0, pool), whole):
        for by_provider in ([-1.0, 1.0], [0.0, 0.0]):
            lifts = LiftAssignment(by_provider=np.array(by_provider))
            with pytest.raises(ValueError, match="user 0"):
                binary_search_lambda_traced(matrix, 0, form, lifts, config, catalog)


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


@settings(max_examples=300, deadline=None)
@given(whole_catalog_cases())
def test_whole_catalog_serve_matches_search_on_full_ranking(case):
    # the serve path ranks only the top k and searches all ids as an array;
    # it must find what the search over the fully ranked pool finds, and
    # what a bisection of full re-ranks finds
    scores, provider_of, by_provider, k, threshold = case
    matrix = PreferenceMatrix(np.array([scores]))
    catalog = Catalog.build(np.array(provider_of), matrix)
    lifts = LiftAssignment(by_provider=np.array(by_provider))
    config = RunConfig(k=k, notion=UF, threshold=threshold)
    n = matrix.n_items
    ranking = original_ranking(matrix, 0, _serve_depth(n, config))
    pool = candidate_pool(ranking, config.ratio, k, n_items=n)
    assert len(ranking) == k and isinstance(pool, RankedList) == (k == n)
    full = candidate_pool(original_ranking(matrix, 0), 1.0)
    served = binary_search_lambda_traced(matrix, 0, pool, lifts, config, catalog)
    assert served == binary_search_lambda_traced(matrix, 0, full, lifts, config, catalog)
    assert served == reference_search(matrix, 0, pool, lifts, config, catalog)
    lam = served[0] or config.lambda_max
    assert (rerank_with_lambda(matrix, 0, pool, lifts, lam, k, catalog)
            == rerank_with_lambda(matrix, 0, full, lifts, lam, k, catalog))
    # a ranked-prefix pool holds its items in score order, not id order
    half = dataclasses.replace(config, ratio=0.5)
    size = math.ceil(n * half.ratio)
    if size >= k:
        ranking = original_ranking(matrix, 0, _serve_depth(n, half))
        prefix = candidate_pool(ranking, half.ratio, k, n_items=n)
        assert isinstance(prefix, RankedList) and len(prefix) == size
        assert (binary_search_lambda_traced(matrix, 0, prefix, lifts, half, catalog)
                == reference_search(matrix, 0, prefix, lifts, half, catalog))


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
    n, gap, lambda_max = matrix.n_items, config.gap, config.lambda_max
    ranking = original_ranking(matrix, 0, _serve_depth(n, config))
    pool = candidate_pool(ranking, ratio, k, n_items=n)
    ids = list(pool.items) if isinstance(pool, RankedList) else list(range(n))
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
    assert evals == math.ceil(math.log2(config.lambda_max / config.gap)) + 1
    assert rlist.items == (1,)
    assert value == 1.0


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
    assert 0 < evals <= math.ceil(math.log2(lambda_max / gap)) + 1


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
        budget = math.ceil(math.log2(inst.config.lambda_max / inst.config.gap)) + 1
        assert evals <= budget

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


def test_offline_rejects_bad_order():
    matrix, catalog, config = offline_setup()
    with pytest.raises(ValueError):
        fairsort_offline(matrix, catalog, config, order=[0, 1])


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
    assert state.served == 1
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


def test_online_state_consistency_guard():
    matrix, catalog, config = offline_setup(users=4)
    state = OnlineState.fresh(catalog, config.notion)
    state.served = 3
    with pytest.raises(ValueError):
        fairsort_online_step(state, matrix, catalog, 0, config)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(k=0, notion=UF)
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
