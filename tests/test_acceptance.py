"""End-to-end acceptance checks over a fixed long-tailed population.

Each test covers one promised property and prints a single verdict line
(run with ``-s`` to see them).  The suite drives the same public entry
points the CLI uses; nothing here reaches into private helpers except the
traced search, which exposes its evaluation count for budgeting.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

from fairsort import (
    FairnessNotion,
    PreferenceMatrix,
    RankedList,
    candidate_pool,
    generate_synthetic,
    ndcg,
    original_ranking,
    rerank_with_lambda,
    total_exposure,
    uir,
)
from fairsort.harness import (
    ExperimentSpec,
    run_cell_offline,
    run_cell_online,
    run_experiment,
)
from fairsort.reranker import binary_search_lambda_traced

from conftest import make_search_instance
from oracle import (
    RunRecord,
    exhaustive_best_dcg,
    grid_lambda_profile,
    naive_dcg,
    naive_ndcg,
    probe_bound,
    replay_check,
    selection_sort_ranking,
)

USERS, ITEMS, PROVIDERS, SKEW, DATA_SEED = 200, 500, 20, 1.5, 1
K_VALUES = (5, 10, 20)
THRESHOLDS = (0.85, 0.90, 0.95)
RUN_SEED = 7
ONLINE_K = 10
ONLINE_ROUNDS = 3

# first histogram bin whose whole range sits at or above the threshold
FIRST_SAFE_BIN = {0.85: 6, 0.90: 7, 0.95: 8}


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {num:02d} {label}")
        raise
    print(f"[PASS] {num:02d} {label}")


def _spec(**overrides) -> ExperimentSpec:
    base = dict(
        model="fairsort",
        scenario="offline",
        k_values=K_VALUES,
        notion=FairnessNotion.UNIFORM,
        threshold=0.90,
        seed=RUN_SEED,
        rounds=ONLINE_ROUNDS,
        users=USERS,
        items=ITEMS,
        providers=PROVIDERS,
        skew=SKEW,
        data_seed=DATA_SEED,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.fixture(scope="module")
def population():
    return generate_synthetic(USERS, ITEMS, PROVIDERS, SKEW, seed=DATA_SEED)


@pytest.fixture(scope="module")
def fairsort_grid(population):
    """Offline fairsort cells for every (threshold, K), uniform notion."""
    matrix, catalog = population
    cells = {}
    for threshold in THRESHOLDS:
        spec = _spec(threshold=threshold)
        for k in K_VALUES:
            start = time.perf_counter()
            cell = run_cell_offline(spec, "fairsort", k, matrix, catalog)
            elapsed = time.perf_counter() - start
            cells[(threshold, k)] = (cell, cell.report(), elapsed)
    return cells


@pytest.fixture(scope="module")
def fairsort_qf(population):
    """Offline fairsort at the 0.9 floor under the quality-weighted notion."""
    matrix, catalog = population
    spec = _spec(notion=FairnessNotion.QUALITY_WEIGHTED)
    out = {}
    for k in K_VALUES:
        cell = run_cell_offline(spec, "fairsort", k, matrix, catalog)
        out[k] = (cell, cell.report())
    return out


@pytest.fixture(scope="module")
def baseline_offline(population):
    matrix, catalog = population
    out = {}
    for model in ("top_k", "min_exposure"):
        # each reference under its own spec, so that the cell keeps its full report
        spec = _spec(model=model)
        for k in K_VALUES:
            cell = run_cell_offline(spec, model, k, matrix, catalog)
            out[(model, k)] = (cell, cell.report())
    return out


@pytest.fixture(scope="module")
def online_cells(population):
    matrix, catalog = population
    out = {}
    for model in ("fairsort", "top_k", "min_exposure"):
        spec = _spec(scenario="online", model=model)
        cell = run_cell_online(spec, model, ONLINE_K, matrix, catalog)
        out[model] = (cell, cell.report())
    return out


def test_01_quality_floor_grid(population, fairsort_grid):
    with criterion(1, "every served list clears its quality floor (3 floors x 3 depths)"):
        for (threshold, k), (cell, report, elapsed) in fairsort_grid.items():
            assert elapsed < 30.0, f"cell t={threshold} K={k} took {elapsed:.1f}s"
            worst = min(cell.request_ndcgs)
            assert worst >= threshold - 1e-9, (
                f"t={threshold} K={k}: worst NDCG {worst}"
            )
            cutoff = FIRST_SAFE_BIN[threshold]
            below = sum(report.histogram[:cutoff])
            assert below == 0, (
                f"t={threshold} K={k}: {below} lists in sub-floor bins"
            )


def test_02_profile_monotone():
    with criterion(2, "quality is non-increasing in the fairness weight (100 instances)"):
        start = time.perf_counter()
        for seed in range(100):
            inst = make_search_instance(seed)
            profile = grid_lambda_profile(
                inst.matrix,
                inst.user,
                list(range(inst.matrix.n_items)),
                inst.lifts,
                inst.catalog,
                inst.config.lambda_max,
                200,
                inst.config.k,
            )
            values = [v for _, v in profile]
            for left, right in zip(values, values[1:]):
                assert right <= left + 1e-12, f"seed {seed}: profile rises"
        assert time.perf_counter() - start < 10.0


def _grid_best_weight(matrix, user, lifts, catalog, config, points=10_001):
    """Largest of ``points`` evenly spaced weights whose list clears the floor."""
    row = matrix.scores[user]
    weights = np.linspace(0.0, config.lambda_max, points)
    item_lift = lifts.by_provider[catalog.provider_of]
    adjusted = row[None, :] + weights[:, None] * item_lift[None, :]
    # stable argsort over id-ordered columns: ties break by ascending item id
    order = np.argsort(-adjusted, axis=1, kind="stable")[:, : config.k]
    gains = np.take_along_axis(
        np.broadcast_to(row, adjusted.shape), order, axis=1
    )
    slot = 1.0 / np.log2(np.arange(2, config.k + 2))
    ideal = row[list(original_ranking(matrix, user, config.k).items)] @ slot
    if ideal == 0.0:
        return float(weights[-1])
    values = np.minimum(gains @ slot / ideal, 1.0)
    passing = weights[values >= config.threshold]
    return float(passing.max())


def test_03_bisection_matches_dense_grid():
    with criterion(3, "bisection matches a dense weight grid within one gap (50 instances)"):
        start = time.perf_counter()
        for seed in range(100, 150):
            inst = make_search_instance(seed)
            pool = candidate_pool(original_ranking(inst.matrix, inst.user), 1.0)
            lam, _, value, evaluations = binary_search_lambda_traced(
                inst.matrix, inst.user, pool, inst.lifts, inst.config, inst.catalog
            )
            assert value >= inst.config.threshold
            assert evaluations <= probe_bound(inst.config)
            lam_grid = _grid_best_weight(
                inst.matrix, inst.user, inst.lifts, inst.catalog, inst.config
            )
            assert abs(lam - lam_grid) <= inst.config.gap, (
                f"seed {seed}: bisection {lam} vs grid {lam_grid}"
            )
        assert time.perf_counter() - start < 10.0


def test_04_exposure_conservation(
    population, fairsort_grid, fairsort_qf, baseline_offline, online_cells
):
    with criterion(4, "provider exposure is conserved offline and at every online step"):
        matrix, catalog = population
        offline = [
            (cell, k)
            for (_, k), (cell, _, _) in fairsort_grid.items()
        ]
        offline += [(cell, k) for k, (cell, _) in fairsort_qf.items()]
        offline += [(cell, k) for (_, k), (cell, _) in baseline_offline.items()]
        for cell, k in offline:
            expected = total_exposure(USERS, k)
            got = float(cell.ledger.exposure.sum())
            assert abs(got - expected) <= 1e-6 * expected
        for model, (cell, report) in online_cells.items():
            record = RunRecord(
                matrix=matrix,
                catalog=catalog,
                scenario="online",
                k=ONLINE_K,
                lists=cell.lists,
                ledger_exposure=cell.ledger.exposure,
            )
            verdict = replay_check(record, _spec().run_config(ONLINE_K))
            assert verdict.ok, f"{model}: {verdict.violations}"


def test_05_inhibition_rate_calibration(
    fairsort_grid, fairsort_qf, baseline_offline, online_cells
):
    with criterion(5, "plain top-k scores unit inhibition rate; reranking scores below one"):
        def topk_uir(top_report, minexp_report, notion):
            mu1 = minexp_report.dcf
            dpf_val = (
                top_report.dpf_uf
                if notion is FairnessNotion.UNIFORM
                else top_report.dpf_qf
            )
            return uir(top_report.dcf, dpf_val, mu1, dpf_val, top_report.avg_quality)

        for k in K_VALUES:
            _, top_report = baseline_offline[("top_k", k)]
            _, minexp_report = baseline_offline[("min_exposure", k)]
            for notion in FairnessNotion:
                value = topk_uir(top_report, minexp_report, notion)
                assert abs(value - 1.0) <= 1e-9, f"offline K={k} {notion}: {value}"
        _, top_on = online_cells["top_k"]
        _, minexp_on = online_cells["min_exposure"]
        for notion in FairnessNotion:
            value = topk_uir(top_on, minexp_on, notion)
            assert abs(value - 1.0) <= 1e-9, f"online {notion}: {value}"

        for k in K_VALUES:
            _, top_report = baseline_offline[("top_k", k)]
            _, minexp_report = baseline_offline[("min_exposure", k)]
            _, uf_report, _ = fairsort_grid[(0.90, k)]
            value = uir(
                uf_report.dcf, uf_report.dpf_uf,
                minexp_report.dcf, top_report.dpf_uf, uf_report.avg_quality,
            )
            assert value < 1.0, f"uniform K={k}: {value}"
            _, qf_report = fairsort_qf[k]
            value = uir(
                qf_report.dcf, qf_report.dpf_qf,
                minexp_report.dcf, top_report.dpf_qf, qf_report.avg_quality,
            )
            assert value < 1.0, f"quality-weighted K={k}: {value}"


def test_06_quality_retention(fairsort_grid, baseline_offline):
    with criterion(6, "at a 0.9 floor the reranker keeps at least 90% of top-k quality"):
        for k in K_VALUES:
            _, fs_report, _ = fairsort_grid[(0.90, k)]
            _, top_report = baseline_offline[("top_k", k)]
            assert fs_report.total_quality >= 0.9 * top_report.total_quality


def test_07_provider_deviation_drops(fairsort_grid, fairsort_qf, baseline_offline):
    with criterion(7, "provider deviation drops versus top-k under both fairness notions"):
        for k in K_VALUES:
            _, top_report = baseline_offline[("top_k", k)]
            _, minexp_report = baseline_offline[("min_exposure", k)]
            _, uf_report, _ = fairsort_grid[(0.90, k)]
            _, qf_report = fairsort_qf[k]
            assert uf_report.dpf_uf < top_report.dpf_uf, f"K={k} uniform"
            assert qf_report.dpf_qf < top_report.dpf_qf, f"K={k} quality-weighted"
            assert minexp_report.dpf_uf <= uf_report.dpf_uf, f"K={k} reference"


def test_08_user_deviation_bounds(fairsort_grid, fairsort_qf, online_cells):
    with criterion(8, "user-side deviation stays within the floor bound and falls online"):
        for (threshold, k), (_, report, _) in fairsort_grid.items():
            bound = (1.0 - threshold) ** 2 / 4.0
            assert report.dcf <= bound + 1e-12, f"t={threshold} K={k}: {report.dcf}"
        for k, (_, report) in fairsort_qf.items():
            assert report.dcf <= (1.0 - 0.90) ** 2 / 4.0 + 1e-12
        cell, _ = online_cells["fairsort"]
        series = [row["running_dcf"] for row in cell.timeseries]
        assert series[-1] < max(series[:-1]), "online user deviation never fell"


def test_09_group_order_preserved():
    with criterion(9, "items of one provider never swap relative order (1000 checks)"):
        checks = 0
        for seed in range(150, 200):
            inst = make_search_instance(seed)
            pool = candidate_pool(original_ranking(inst.matrix, inst.user), 1.0)
            position = {item: idx for idx, item in enumerate(pool.items)}
            rng = np.random.default_rng((seed, 909))
            for _ in range(20):
                user = int(rng.integers(inst.matrix.n_users))
                lam = float(rng.uniform(0.0, inst.config.lambda_max))
                user_pool = candidate_pool(original_ranking(inst.matrix, user), 1.0)
                position = {item: idx for idx, item in enumerate(user_pool.items)}
                out = rerank_with_lambda(
                    inst.matrix, user, user_pool, inst.lifts,
                    lam, inst.config.k, inst.catalog,
                )
                for provider in range(inst.catalog.n_providers):
                    members = [
                        position[item]
                        for item in out.items
                        if inst.catalog.provider_of[item] == provider
                    ]
                    assert members == sorted(members), (
                        f"seed {seed} user {user} lam {lam}: provider {provider} reordered"
                    )
                checks += 1
        assert checks == 1000


def test_10_oracle_agreement():
    with criterion(10, "fast paths agree with brute-force and naive re-implementations"):
        for seed in range(30):
            rng = np.random.default_rng((seed, 4242))
            users = int(rng.integers(2, 6))
            n = int(rng.integers(4, 9))
            k = int(rng.integers(1, min(5, n) + 1))
            matrix, _ = generate_synthetic(users, n, 2, 1.0, seed=seed)
            for user in range(min(users, 2)):
                ideal = original_ranking(matrix, user, k).items
                fast = naive_dcg(matrix.scores[user].tolist(), ideal, k)
                brute = exhaustive_best_dcg(matrix, user, k)
                assert fast == pytest.approx(brute, abs=1e-12)

        for trial in range(1000):
            rng = np.random.default_rng((10_000, trial))
            n = int(rng.integers(2, 31))
            row = rng.random(n)
            if rng.integers(4) == 0:
                row[rng.integers(n)] = 0.0
            matrix = PreferenceMatrix(row[None, :])
            k = int(rng.integers(1, n + 1))
            items = tuple(int(i) for i in rng.permutation(n)[:k])
            rlist = RankedList(0, items)
            assert selection_sort_ranking(row.tolist()) == list(
                original_ranking(matrix, 0).items
            )
            assert ndcg(matrix, 0, rlist, k) == pytest.approx(
                naive_ndcg(row.tolist(), items, k), abs=1e-12
            )


def test_11_byte_identical_reruns(tmp_path):
    with criterion(11, "identical configs reproduce output files byte for byte"):
        runs = [
            dict(model="fairsort", scenario="offline", k_values=(5, 10)),
            dict(model="all_random", scenario="online", k_values=(5,)),
        ]
        for idx, overrides in enumerate(runs):
            outputs = {}
            for run in ("a", "b"):
                out_dir = tmp_path / f"{idx}_{run}"
                spec = _spec(
                    users=60, items=120, providers=8, skew=1.2,
                    data_seed=3, seed=11, out_dir=out_dir, **overrides,
                )
                written = run_experiment(spec)
                outputs[run] = {p.name: p.read_bytes() for p in written}
            assert outputs["a"].keys() == outputs["b"].keys()
            for name in outputs["a"]:
                assert outputs["a"][name] == outputs["b"][name], f"{name} differs"
