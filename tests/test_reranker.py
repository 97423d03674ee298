"""Candidate pools, weighted re-sorting, the floor search, and both loops."""

import math

import numpy as np
import pytest

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
from fairsort.oracle import grid_lambda_profile
from fairsort.reranker import binary_search_lambda_traced

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
    _, ledger, _ = fairsort_offline(matrix, catalog, config, exposure_update="accumulate")
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
    # a non-finite bound would leave bisection running forever
    for bound in ({"lambda_max": math.inf}, {"lambda_max": math.nan},
                  {"gap": math.inf}, {"gap": math.nan}):
        with pytest.raises(ValueError):
            RunConfig(k=5, notion=UF, **bound)
