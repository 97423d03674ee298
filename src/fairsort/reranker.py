"""Fairness-aware re-ranking with a per-user quality floor.

Every list is served by one step.  With the user's plain top-K list already
on the exposure ledger as a stand-in, per-provider lifts are read off the
ledger, the candidate pool is re-scored as ``preference + weight * lift``,
and bisection finds the largest weight whose top ``k`` still clears the
NDCG floor (NDCG is non-increasing in the weight).  The served list then
replaces the stand-in on the ledger.  The offline procedure preloads every
user's stand-in against the full run budget and serves each user once; the
online procedure grows the budget by one list per request and puts only
that request's stand-in on the ledger before serving it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .catalog import Catalog, PreferenceMatrix, RankedList, original_ranking
from .exposure import ExposureLedger, FairnessNotion, total_exposure
from .quality import QualityReport, _dcg_items, _ideal_top, _normalized, _smallest_k
from .velocity import LiftAssignment, err_rates, normalize_lifts

# guards against float fuzz when n * ratio should be an exact integer
_POOL_EPS = 1e-9


@dataclass(frozen=True)
class RunConfig:
    """Hyperparameters of one re-ranking run."""

    k: int
    notion: FairnessNotion
    threshold: float = 0.9
    lambda_max: float = 16.0
    gap: float = 2.0**-7
    ratio: float = 1.0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        # an infinite lambda_max would keep bisection from ever ending
        if not 0.0 < self.lambda_max < math.inf:
            raise ValueError("lambda_max must be positive and finite")
        if not 0.0 < self.gap < self.lambda_max:
            raise ValueError("gap must be in (0, lambda_max)")
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError("ratio must be in (0, 1]")


def candidate_pool(ranking: RankedList, ratio: float, k: int | None = None) -> RankedList:
    """First ``ceil(n * ratio)`` items of the original ranking.

    A pool of the whole ranking is the ranking itself; lists are frozen.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError("ratio must be in (0, 1]")
    size = math.ceil(len(ranking) * ratio - _POOL_EPS)
    if k is not None and size < k:
        raise ValueError(f"pool of {size} items cannot fill {k} slots")
    if size == len(ranking):
        return ranking
    return RankedList(ranking.user, ranking.items[:size])


def _pool_arrays(
    matrix: PreferenceMatrix,
    user: int,
    pool: RankedList,
    lifts: LiftAssignment,
    k: int,
    catalog: Catalog,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pool item ids with their preference scores and inherited lifts."""
    if len(pool) < k:
        raise ValueError(f"pool of {len(pool)} items cannot fill {k} slots")
    ids = np.asarray(pool.items, dtype=np.int64)
    return ids, matrix.scores[user, ids], lifts.by_provider[catalog.provider_of[ids]]


def _top_k(
    ids: np.ndarray, scores: np.ndarray, item_lifts: np.ndarray, lam: float, k: int
) -> np.ndarray:
    """The ``k`` ids with the highest lifted score; ties by ascending id."""
    return _smallest_k(-(scores + lam * item_lifts), ids, k)


def rerank_with_lambda(
    matrix: PreferenceMatrix,
    user: int,
    pool: RankedList,
    lifts: LiftAssignment,
    lam: float,
    k: int,
    catalog: Catalog,
) -> RankedList:
    """Sort the pool by lifted score and keep the top ``k``.

    Ties in the lifted score break by ascending item id, which also keeps
    items of the same provider in their original relative order for every
    weight.  This is the probe the weight search runs.
    """
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    ids, scores, item_lifts = _pool_arrays(matrix, user, pool, lifts, k, catalog)
    return RankedList(user, tuple(_top_k(ids, scores, item_lifts, lam, k).tolist()))


def binary_search_lambda(
    matrix: PreferenceMatrix,
    user: int,
    pool: RankedList,
    lifts: LiftAssignment,
    config: RunConfig,
    catalog: Catalog,
) -> tuple[float, RankedList, float]:
    """Largest fairness weight whose re-ranked list still clears the floor."""
    lam, rlist, value, _ = binary_search_lambda_traced(
        matrix, user, pool, lifts, config, catalog
    )
    return lam, rlist, value


def binary_search_lambda_traced(
    matrix: PreferenceMatrix,
    user: int,
    pool: RankedList,
    lifts: LiftAssignment,
    config: RunConfig,
    catalog: Catalog,
) -> tuple[float, RankedList, float, int]:
    """As :func:`binary_search_lambda`, also reporting the evaluation count.

    ``pool`` must come from :func:`candidate_pool`, i.e. be a prefix of the
    user's own ranking; its first k items then score NDCG 1, so weight 0
    always clears the floor.  A pool whose first k items are not the user's
    own top k raises ``ValueError``.  Bisection keeps the invariant
    NDCG(lo) >= threshold and stops once hi - lo <= gap, returning the
    largest probed weight that passed.  When every probe passes, lambda_max
    itself is probed last and returned if it clears the floor.  At most
    ``ceil(log2(lambda_max / gap)) + 1`` NDCG evaluations are spent: one per
    halving plus, in the all-pass case, one on lambda_max.
    """
    k = config.k
    ids, scores, item_lifts = _pool_arrays(matrix, user, pool, lifts, k, catalog)
    row = matrix.scores[user]
    ideal_top = _ideal_top(row, k)
    if not np.array_equal(ids[:k], ideal_top):
        raise ValueError(f"pool for user {user} does not start with the user's own top {k}")
    # a constant shift cannot reorder anything, so the weight is irrelevant;
    # the pool starts with the user's own top k, so its NDCG is exactly 1
    if np.all(item_lifts == item_lifts[0]):
        return 0.0, RankedList(user, pool.items[:k]), 1.0, 0

    ideal = _dcg_items(row, ideal_top, k)

    def evaluate(lam: float) -> tuple[np.ndarray, float]:
        top = _top_k(ids, scores, item_lifts, lam, k)
        return top, _normalized(_dcg_items(row, top, k), ideal)

    evaluations = 0
    lo, hi = 0.0, config.lambda_max
    best_lam, best_top, best_value = 0.0, ids[:k], 1.0
    while hi - lo > config.gap:
        mid = (lo + hi) / 2.0
        evaluations += 1
        mid_top, mid_value = evaluate(mid)
        if mid_value >= config.threshold:
            lo = mid
            best_lam, best_top, best_value = mid, mid_top, mid_value
        else:
            hi = mid
    if hi == config.lambda_max:
        # no probe ever failed; the floor may hold all the way up
        evaluations += 1
        top, value = evaluate(config.lambda_max)
        if value >= config.threshold:
            best_lam, best_top, best_value = config.lambda_max, top, value
    return best_lam, RankedList(user, tuple(best_top.tolist())), best_value, evaluations


def _serve(
    matrix: PreferenceMatrix,
    catalog: Catalog,
    config: RunConfig,
    ledger: ExposureLedger,
    ranking: RankedList,
    exposure_update: str,
) -> tuple[RankedList, float]:
    """Serve one user whose plain top-K list is already on the ledger.

    Lifts come from the ledger as it stands, the largest weight that clears
    the floor picks the list, and the list replaces the plain top-K stand-in
    on the ledger (or is added on top of it in ``accumulate`` mode).
    """
    lifts = normalize_lifts(err_rates(ledger, catalog))
    pool = candidate_pool(ranking, config.ratio, config.k)
    _, served, value = binary_search_lambda(matrix, ranking.user, pool, lifts, config, catalog)
    # a ranking's first k items are its plain top-K list
    if exposure_update == "replace":
        ledger.retract(ranking, config.k)
    ledger.apply(served, config.k)
    return served, value


def fairsort_offline(
    matrix: PreferenceMatrix,
    catalog: Catalog,
    config: RunConfig,
    *,
    order: list[int] | None = None,
    exposure_update: str = "replace",
) -> tuple[dict[int, RankedList], ExposureLedger, QualityReport]:
    """Serve every user once, steering exposure toward under-served providers.

    The ledger is preloaded with each user's plain top-K list as a stand-in;
    when a user is actually served, the stand-in is swapped for the re-ranked
    list (``exposure_update="replace"``), which keeps the ledger total pinned
    at the run budget throughout.  ``exposure_update="accumulate"`` keeps the
    stand-ins and simply adds the served lists on top, for sensitivity
    experiments.  Users are served in ascending id order unless an explicit
    ``order`` permutation is given.
    """
    if exposure_update not in ("replace", "accumulate"):
        raise ValueError("exposure_update must be 'replace' or 'accumulate'")
    m = matrix.n_users
    if order is None:
        order = list(range(m))
    elif sorted(order) != list(range(m)):
        raise ValueError("order must be a permutation of all user ids")

    rankings = [original_ranking(matrix, u) for u in range(m)]
    ledger = ExposureLedger.create(total_exposure(m, config.k), catalog, config.notion)
    for ranking in rankings:
        ledger.apply(ranking, config.k)

    lists: dict[int, RankedList] = {}
    per_user: dict[int, float] = {}
    for u in order:
        lists[u], per_user[u] = _serve(
            matrix, catalog, config, ledger, rankings[u], exposure_update
        )
    return lists, ledger, QualityReport(per_user)


@dataclass
class OnlineState:
    """Mutable state threaded through consecutive online requests."""

    ledger: ExposureLedger
    served: int = 0
    ndcg_log: list[tuple[int, float]] = field(default_factory=list)

    @classmethod
    def fresh(cls, catalog: Catalog, notion: FairnessNotion) -> "OnlineState":
        return cls(ledger=ExposureLedger.create(0.0, catalog, notion))


def fairsort_online_step(
    state: OnlineState,
    matrix: PreferenceMatrix,
    catalog: Catalog,
    user: int,
    config: RunConfig,
    *,
    exposure_update: str = "replace",
) -> tuple[RankedList, OnlineState]:
    """Serve one request, growing the exposure budget by one list.

    The current request's plain top-K contribution is applied before lifts
    are computed and swapped for the served list afterwards; contributions
    of past requests stay on the ledger permanently.
    """
    if exposure_update not in ("replace", "accumulate"):
        raise ValueError("exposure_update must be 'replace' or 'accumulate'")
    if state.served != len(state.ndcg_log):
        raise ValueError("online state is inconsistent")
    ranking = original_ranking(matrix, user)
    state.ledger.set_budget(total_exposure(state.served + 1, config.k))
    state.ledger.apply(ranking, config.k)
    served, value = _serve(matrix, catalog, config, state.ledger, ranking, exposure_update)
    state.served += 1
    state.ndcg_log.append((user, value))
    return served, state
