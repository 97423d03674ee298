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

from .catalog import (
    Catalog,
    PreferenceMatrix,
    RankedList,
    _smallest_k,
    _smallest_k_seeded,
    original_ranking,
)
from .exposure import ExposureLedger, FairnessNotion, total_exposure
from .quality import QualityReport, _dcg_items, _normalized
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
    exposure_update: str = "replace"

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
        # below the float spacing at lambda_max, bisection can reach two
        # adjacent doubles whose midpoint is one of them, and never end
        if self.gap < math.ulp(self.lambda_max):
            raise ValueError(
                f"gap {self.gap!r} is below {math.ulp(self.lambda_max)!r}, the float "
                f"spacing at lambda_max {self.lambda_max!r}"
            )
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError("ratio must be in (0, 1]")
        if self.exposure_update not in ("replace", "accumulate"):
            raise ValueError("exposure_update must be 'replace' or 'accumulate'")


def _pool_size(n_items: int, ratio: float, k: int | None = None) -> int:
    """``ceil(n_items * ratio)``, the candidate pool's size; it must fill ``k`` slots."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError("ratio must be in (0, 1]")
    size = math.ceil(n_items * ratio - _POOL_EPS)
    if k is not None and size < k:
        raise ValueError(f"pool of {size} items cannot fill {k} slots")
    return size


def _serve_depth(n_items: int, config: RunConfig) -> int:
    """How deep a serve ranks its user.

    A pool smaller than the catalog is the ranking's prefix, so the ranking
    must reach the pool's depth.  A pool of the whole catalog needs only its
    head, the user's top k, because the search takes every item anyway.
    """
    size = _pool_size(n_items, config.ratio, config.k)
    return config.k if size == n_items else size


@dataclass(frozen=True)
class _CatalogPool:
    """The whole catalog as a candidate pool, led by the user's top k in order."""

    head: RankedList


def candidate_pool(
    ranking: RankedList, ratio: float, k: int | None = None, *, n_items: int | None = None
) -> RankedList | _CatalogPool:
    """First ``ceil(n * ratio)`` items of the original ranking.

    ``n`` is the ranking's length, or ``n_items`` when the ranking is only a
    prefix of the user's ranking over that many items; the prefix must hold
    the whole pool.  A pool of the whole ranking is the ranking itself;
    lists are frozen.  The search reads only the pool's first ``k`` items
    in order, its verified head; the rest may come in any order.  So a pool
    of all ``n_items`` is served from a prefix of at least ``k`` items: its
    head is the prefix's first ``k`` and its other items are every id, a
    private form that only the search and :func:`rerank_with_lambda` read.
    """
    size = _pool_size(len(ranking) if n_items is None else n_items, ratio, k)
    if size == len(ranking):
        return ranking
    if size == n_items and k is not None and len(ranking) >= k:
        head = ranking if len(ranking) == k else RankedList(ranking.user, ranking.items[:k])
        return _CatalogPool(head)
    if size > len(ranking):
        raise ValueError(f"ranking of {len(ranking)} items cannot hold a pool of {size}")
    return RankedList(ranking.user, ranking.items[:size])


def _pool_arrays(
    matrix: PreferenceMatrix,
    user: int,
    pool: RankedList | _CatalogPool,
    lifts: LiftAssignment,
    k: int,
    catalog: Catalog,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Positions of the pool's first ``k`` items, then its ids, scores and lifts."""
    if isinstance(pool, _CatalogPool):
        if len(pool.head) != k:
            raise ValueError(f"pool head of {len(pool.head)} items, need {k}")
        # every id sits at its own position
        head_at = np.asarray(pool.head.items, dtype=np.int64)
        ids = np.arange(matrix.n_items)
        return head_at, ids, matrix.scores[user], lifts.by_provider[catalog.provider_of]
    if len(pool) < k:
        raise ValueError(f"pool of {len(pool)} items cannot fill {k} slots")
    ids = np.asarray(pool.items, dtype=np.int64)
    return np.arange(k), ids, matrix.scores[user, ids], lifts.by_provider[catalog.provider_of[ids]]


def rerank_with_lambda(
    matrix: PreferenceMatrix,
    user: int,
    pool: RankedList | _CatalogPool,
    lifts: LiftAssignment,
    lam: float,
    k: int,
    catalog: Catalog,
) -> RankedList:
    """Sort the pool by lifted score and keep the top ``k``.

    Ties in the lifted score break by ascending item id, which also keeps
    items of the same provider in their original relative order for every
    weight.  The weight search's probes select the same lists from fewer
    items; this full selection is their reference.
    """
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    _, ids, scores, item_lifts = _pool_arrays(matrix, user, pool, lifts, k, catalog)
    return RankedList(user, tuple(_smallest_k(-(scores + lam * item_lifts), ids, k).tolist()))


def binary_search_lambda(
    matrix: PreferenceMatrix,
    user: int,
    pool: RankedList | _CatalogPool,
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
    pool: RankedList | _CatalogPool,
    lifts: LiftAssignment,
    config: RunConfig,
    catalog: Catalog,
) -> tuple[float, RankedList, float, int]:
    """As :func:`binary_search_lambda`, also reporting the evaluation count.

    ``pool`` must come from :func:`candidate_pool`: its first k items are
    the user's own top k in order, the verified head, and the rest may come
    in any order, since ties in the lifted score break by id.  The head
    scores NDCG 1, so weight 0 always clears the floor.  A pool whose first
    k items are not the user's own top k raises ``ValueError``.  The check
    is exact and O(n), on the head's scores read from the user's row: the
    first k must be in (score desc, id asc) order, and exactly k - 1 of the
    user's items may precede the k-th in that order.  Bisection keeps the
    invariant NDCG(lo) >= threshold and stops once hi - lo <= gap, returning
    the largest probed weight that passed.  Each probe selects its top k only
    among the items keyed at or below the previous probe's list (the first,
    the head's), which gives the lists :func:`rerank_with_lambda` gives.
    When every probe passes, lambda_max itself is probed last and returned
    if it clears the floor.  At most
    ``ceil(log2(lambda_max / gap)) + 1`` NDCG evaluations are spent: one per
    halving plus, in the all-pass case, one on lambda_max.
    """
    k = config.k
    head_at, ids, scores, item_lifts = _pool_arrays(matrix, user, pool, lifts, k, catalog)
    head = ids[head_at]
    row = matrix.scores[user]
    head_scores = row[head]
    last, cut = head[-1], head_scores[-1]
    in_order = np.all(
        (head_scores[:-1] > head_scores[1:])
        | ((head_scores[:-1] == head_scores[1:]) & (head[:-1] < head[1:]))
    )
    ahead = np.count_nonzero(row > cut) + np.count_nonzero(row[:last] == cut)
    if not in_order or ahead != k - 1:
        raise ValueError(f"pool for user {user} does not start with the user's own top {k}")
    # a constant shift cannot reorder anything, so the weight is irrelevant;
    # the pool starts with the user's own top k, so its NDCG is exactly 1
    if np.all(item_lifts == item_lifts[0]):
        return 0.0, RankedList(user, tuple(head.tolist())), 1.0, 0

    # the verified head is the user's own top k, so this is the ideal DCG
    ideal = _dcg_items(row, head, k)
    # -s + lam * -l equals -(s + lam * l) bit for bit, up to the sign of a
    # zero, which no comparison sees
    neg_scores, neg_lifts = -scores, -item_lifts

    def evaluate(lam: float, seed: np.ndarray) -> tuple[np.ndarray, float]:
        # the top k at lam as pool positions, selected near the seed list's
        # keys, and its NDCG; consecutive probes' lists barely differ
        top_at = _smallest_k_seeded(neg_scores + lam * neg_lifts, ids, k, seed)
        return top_at, _normalized(_dcg_items(scores, top_at, k), ideal)

    evaluations = 0
    lo, hi = 0.0, config.lambda_max
    best_lam, best_at, best_value = 0.0, head_at, 1.0
    seed = head_at
    while hi - lo > config.gap:
        mid = (lo + hi) / 2.0
        evaluations += 1
        seed, mid_value = evaluate(mid, seed)
        if mid_value >= config.threshold:
            lo = mid
            best_lam, best_at, best_value = mid, seed, mid_value
        else:
            hi = mid
    if hi == config.lambda_max:
        # no probe ever failed; the floor may hold all the way up
        evaluations += 1
        top_at, value = evaluate(config.lambda_max, seed)
        if value >= config.threshold:
            best_lam, best_at, best_value = config.lambda_max, top_at, value
    return best_lam, RankedList(user, tuple(ids[best_at].tolist())), best_value, evaluations


def _serve(
    matrix: PreferenceMatrix,
    catalog: Catalog,
    config: RunConfig,
    ledger: ExposureLedger,
    ranking: RankedList,
) -> tuple[RankedList, float]:
    """Serve one user whose plain top-K list is already on the ledger.

    ``ranking`` is the user's ranking to the depth :func:`_serve_depth`
    gives.  The pool's first k items are the verified head and the rest may
    come in any order: a pool smaller than the catalog is the ranking's
    prefix, and a pool of the whole catalog is the ranking's first k plus
    every id.  Lifts come from the ledger as it stands, the largest weight
    that clears the floor picks the list, and the list replaces the plain
    top-K stand-in on the ledger (or is added on top of it in
    ``accumulate`` mode).
    """
    lifts = normalize_lifts(err_rates(ledger, catalog))
    pool = candidate_pool(ranking, config.ratio, config.k, n_items=matrix.n_items)
    _, served, value = binary_search_lambda(matrix, ranking.user, pool, lifts, config, catalog)
    # a ranking's first k items are its plain top-K list
    if config.exposure_update == "replace":
        ledger.retract(ranking, config.k)
    ledger.apply(served, config.k)
    return served, value


def fairsort_offline(
    matrix: PreferenceMatrix,
    catalog: Catalog,
    config: RunConfig,
    *,
    order: list[int] | None = None,
) -> tuple[dict[int, RankedList], ExposureLedger, QualityReport]:
    """Serve every user once, steering exposure toward under-served providers.

    The ledger is preloaded with each user's plain top-K list as a stand-in;
    when a user is actually served, the stand-in is swapped for the re-ranked
    list (``config.exposure_update == "replace"``), which keeps the ledger
    total pinned at the run budget throughout.  ``"accumulate"`` keeps the
    stand-ins and simply adds the served lists on top, for sensitivity
    experiments.  Users are served in ascending id order unless an explicit
    ``order`` permutation is given.
    """
    m = matrix.n_users
    if order is None:
        order = list(range(m))
    elif sorted(order) != list(range(m)):
        raise ValueError("order must be a permutation of all user ids")

    depth = _serve_depth(matrix.n_items, config)
    rankings = [original_ranking(matrix, u, depth) for u in range(m)]
    ledger = ExposureLedger.create(total_exposure(m, config.k), catalog, config.notion)
    for ranking in rankings:
        ledger.apply(ranking, config.k)

    lists: dict[int, RankedList] = {}
    per_user: dict[int, float] = {}
    for u in order:
        lists[u], per_user[u] = _serve(matrix, catalog, config, ledger, rankings[u])
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
) -> tuple[RankedList, OnlineState]:
    """Serve one request, growing the exposure budget by one list.

    The current request's plain top-K contribution is applied before lifts
    are computed and swapped for the served list afterwards; contributions
    of past requests stay on the ledger permanently.
    """
    if state.served != len(state.ndcg_log):
        raise ValueError("online state is inconsistent")
    ranking = original_ranking(matrix, user, _serve_depth(matrix.n_items, config))
    state.ledger.set_budget(total_exposure(state.served + 1, config.k))
    state.ledger.apply(ranking, config.k)
    served, value = _serve(matrix, catalog, config, state.ledger, ranking)
    state.served += 1
    state.ndcg_log.append((user, value))
    return served, state
