"""The slow reference implementations and the run replay checker."""

import ast
import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fairsort
from fairsort import (
    Catalog,
    FairnessNotion,
    PreferenceMatrix,
    RankedList,
    RunConfig,
    fairsort_offline,
    generate_synthetic,
    ndcg,
    ndcg_histogram,
    normalize_lifts,
    original_ranking,
    top_k,
)
from fairsort.exposure import _slot_weights

import oracle
from oracle import (
    RunRecord,
    exact_ndcg,
    exhaustive_best_dcg,
    grid_lambda_profile,
    naive_dcg,
    naive_ndcg,
    replay_check,
    selection_sort_ranking,
)


def test_selection_sort_orders_by_score_then_id():
    assert selection_sort_ranking([0.2, 0.9, 0.5]) == [1, 2, 0]
    assert selection_sort_ranking([0.5, 0.5, 0.1]) == [0, 1, 2]


def test_naive_dcg_two_item_example():
    value = naive_dcg([0.8, 0.9], (0, 1), 2)
    assert value == pytest.approx(0.8 + 0.9 / math.log2(3), abs=1e-12)
    assert value == pytest.approx(1.367837, abs=5e-7)


def test_naive_dcg_of_the_ideal_two_item_example():
    ideal = original_ranking(PreferenceMatrix(np.array([[0.8, 0.9]])), 0, 2).items
    value = naive_dcg([0.8, 0.9], ideal, 2)
    assert value == pytest.approx(0.9 + 0.8 / math.log2(3), abs=1e-12)
    assert value == pytest.approx(1.40474, abs=5e-6)


def test_exhaustive_best_dcg_matches_ideal():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(n, 5) + 1))
        matrix = PreferenceMatrix(rng.random((1, n)))
        ideal = original_ranking(matrix, 0, k).items
        assert exhaustive_best_dcg(matrix, 0, k) == pytest.approx(
            naive_dcg(matrix.scores[0].tolist(), ideal, k), abs=1e-12
        )


def test_exhaustive_best_dcg_guards_size():
    matrix = PreferenceMatrix(np.random.default_rng(0).random((1, 11)))
    with pytest.raises(ValueError):
        exhaustive_best_dcg(matrix, 0, 2)


def test_grid_profile_constant_when_lifts_are_zero():
    matrix, catalog = generate_synthetic(3, 10, 3, 1.0, seed=4)
    lifts = normalize_lifts(np.zeros(3))
    pool = list(range(10))
    profile = grid_lambda_profile(matrix, 0, pool, lifts, catalog, 16.0, 25, k=4)
    values = {v for _, v in profile}
    assert values == {1.0}
    assert profile[0][0] == 0.0 and profile[-1][0] == 16.0


def test_naive_ndcg_of_identity_prefix_is_one():
    rng = np.random.default_rng(3)
    row = np.sort(rng.random(8))[::-1].tolist()
    assert naive_ndcg(row, list(range(8)), 4) == pytest.approx(1.0, abs=1e-12)


def test_oracles_ship_with_the_tests_and_use_only_the_public_api():
    assert importlib.util.find_spec("fairsort.oracle") is None
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.startswith("fairsort")]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            assert node.level == 0, "relative import"
            if node.module.split(".")[0] == "fairsort":
                assert node.module == "fairsort"
                assert {a.name for a in node.names} <= set(fairsort.__all__)


def test_exact_ndcg_agrees_with_ndcg_on_synthetic_rows():
    # the oracle's weights are the package's, bit for bit
    assert [1.0 / math.log2(r + 1) for r in range(1, 1001)] == _slot_weights(1000).tolist()
    for seed in range(4):
        matrix, _ = generate_synthetic(10, 30, 3, 1.5, seed=seed)
        rng = np.random.default_rng(seed)
        for user in range(matrix.n_users):
            k = int(rng.integers(1, 11))
            items = tuple(int(i) for i in rng.permutation(30)[:k])
            exact = exact_ndcg(matrix.scores[user].tolist(), items, k)
            served = ndcg(matrix, user, RankedList(user, items), k)
            assert abs(float(exact) - served) <= 1e-12


def test_exact_ndcg_holds_on_a_subnormal_row():
    # float DCGs round in the subnormal range: naive_ndcg reads 0.5 here
    row = [5e-324, 0.0, 5e-324, 0.0]
    w1, w2, w3 = (Fraction(1.0 / math.log2(slot + 1)) for slot in (1, 2, 3))
    value = exact_ndcg(row, (2, 3, 0), 3)
    assert value == (w1 + w3) / (w1 + w2)
    assert round(float(value), 5) == 0.91972
    assert naive_ndcg(row, (2, 3, 0), 3) == 0.5


def _clean_record(scenario="offline"):
    matrix, catalog = generate_synthetic(6, 12, 3, 1.0, seed=8)
    k = 3
    lists = tuple(top_k(matrix, u, k) for u in range(6))
    exposure = np.zeros(catalog.n_providers)
    for rlist in lists:
        for slot, item in enumerate(rlist.items, start=1):
            exposure[catalog.provider_of[item]] += 1.0 / np.log2(slot + 1)
    ndcgs = [1.0] * 6
    return (
        RunRecord(
            matrix=matrix,
            catalog=catalog,
            scenario=scenario,
            k=k,
            lists=lists,
            ledger_exposure=exposure,
            histogram=ndcg_histogram(ndcgs),
            threshold=0.9,
        ),
        RunConfig(k=k, notion=FairnessNotion.UNIFORM, threshold=0.9),
    )


def test_replay_check_accepts_clean_run():
    record, config = _clean_record()
    verdict = replay_check(record, config)
    assert verdict.ok, verdict.violations


def test_replay_check_accepts_clean_online_run():
    record, config = _clean_record(scenario="online")
    verdict = replay_check(record, config)
    assert verdict.ok, verdict.violations


def test_replay_check_judges_a_subnormal_row_exactly():
    # float DCGs round in the subnormal range: naive_ndcg reads this list's
    # NDCG 0.5 as 0.0, below the floor
    matrix = PreferenceMatrix(np.array([[0.0, 0.0, 5e-324]]))
    catalog = Catalog.build(np.array([0, 1, 0]), matrix)
    config = RunConfig(k=3, notion=FairnessNotion.UNIFORM, threshold=0.5)
    lists, ledger, report = fairsort_offline(matrix, catalog, config)
    assert lists[0].items == (1, 0, 2) and report.per_user[0] == 0.5
    assert naive_ndcg(matrix.scores[0].tolist(), lists[0].items, 3) == 0.0
    # 0.5 is also the edge that opens the histogram's second bin
    histogram = ndcg_histogram([report.per_user[0]])
    assert histogram == (0, 1, 0, 0, 0, 0, 0, 0, 0)
    record = RunRecord(
        matrix=matrix,
        catalog=catalog,
        scenario="offline",
        k=3,
        lists=(lists[0],),
        ledger_exposure=ledger.exposure,
        histogram=histogram,
        threshold=0.5,
    )
    verdict = replay_check(record, config)
    assert verdict.ok, verdict.violations


def test_replay_check_flags_truncated_list():
    record, config = _clean_record()
    lists = list(record.lists)
    lists[2] = RankedList(lists[2].user, lists[2].items[:-1])
    broken = RunRecord(
        matrix=record.matrix,
        catalog=record.catalog,
        scenario=record.scenario,
        k=record.k,
        lists=tuple(lists),
        ledger_exposure=record.ledger_exposure,
        histogram=record.histogram,
        threshold=record.threshold,
    )
    verdict = replay_check(broken, config)
    assert any("items" in v for v in verdict.violations)


def test_replay_check_flags_perturbed_ledger():
    record, config = _clean_record()
    exposure = record.ledger_exposure.copy()
    exposure[1] += 0.1
    broken = RunRecord(
        matrix=record.matrix,
        catalog=record.catalog,
        scenario=record.scenario,
        k=record.k,
        lists=record.lists,
        ledger_exposure=exposure,
        histogram=record.histogram,
        threshold=record.threshold,
    )
    verdict = replay_check(broken, config)
    assert any("provider 1" in v for v in verdict.violations)


def test_replay_check_flags_quality_floor_breach():
    record, config = _clean_record()
    # serve one user their worst items instead
    matrix = record.matrix
    worst = tuple(np.argsort(matrix.scores[0])[: record.k].tolist())
    lists = list(record.lists)
    lists[0] = RankedList(0, worst)
    broken = RunRecord(
        matrix=matrix,
        catalog=record.catalog,
        scenario=record.scenario,
        k=record.k,
        lists=tuple(lists),
        ledger_exposure=None,
        histogram=None,
        threshold=0.99,
    )
    verdict = replay_check(broken, config)
    assert any("floor" in v for v in verdict.violations)


def test_replay_check_flags_histogram_mismatch():
    record, config = _clean_record()
    wrong = list(record.histogram)
    wrong[0] += 1
    wrong[8] -= 1
    broken = RunRecord(
        matrix=record.matrix,
        catalog=record.catalog,
        scenario=record.scenario,
        k=record.k,
        lists=record.lists,
        ledger_exposure=None,
        histogram=tuple(wrong),
        threshold=None,
    )
    verdict = replay_check(broken, config)
    assert any("histogram" in v for v in verdict.violations)
