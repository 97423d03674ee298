"""Fairness-aware re-ranking with a per-user quality floor.

Every list is served by one step in two halves.  The plan reads only the
user's scores: the user's plain top-K list, the ledger's stand-in, its
per-provider exposure, and the candidate pool.  The serve reads the ledger:
with the stand-in already on it, per-provider lifts are read off the
ledger, the pool is re-scored as ``preference + weight * lift``, and
bisection finds the largest weight whose top ``k`` still clears the NDCG
floor.  The served list's exposure then replaces the stand-in's on the
ledger.  The offline procedure plans every user, preloads every stand-in
against the full run budget and serves each user once; the online
procedure plans each user on its first request, grows the budget by one
list per request and puts only that request's stand-in on the ledger
before serving it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .catalog import (
    Catalog,
    PreferenceMatrix,
    RankedList,
    _count,
    _is_int,
    _list_ids,
    _smallest_k_at,
    _smallest_k_seeded,
    _user_row,
    original_ranking,
)
from .exposure import ExposureLedger, FairnessNotion, list_contribution, total_exposure
from .quality import QualityReport, _scorer
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
        _count("k", self.k, 1)
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


def _check_sizes(matrix: PreferenceMatrix, catalog: Catalog) -> None:
    """Reject a catalog that does not describe exactly the matrix's items."""
    if catalog.n_items != matrix.n_items:
        raise ValueError(
            f"catalog has {catalog.n_items} items but the preference matrix has "
            f"{matrix.n_items}"
        )


class _CatalogPool:
    """The whole catalog as a candidate pool: every id, so nothing is stored."""


_CATALOG = _CatalogPool()


def candidate_pool(
    ranking: RankedList, ratio: float, k: int | None = None, *, n_items: int | None = None
) -> RankedList | _CatalogPool:
    """First ``ceil(n * ratio)`` items of the original ranking.

    ``n`` is the ranking's length, or ``n_items`` when the ranking is only a
    prefix of the user's ranking over that many items; the prefix must hold
    the whole pool.  A pool of the whole ranking is the ranking itself;
    lists are frozen.  The search reads a pool as a set, so a pool of all
    ``n_items`` that the ranking does not list in full is ``_CATALOG``, a
    tag for every id that only :func:`_plan`, the search and
    :func:`rerank_with_lambda` read.
    """
    if n_items is not None:
        _count("n_items", n_items, len(ranking))
    size = _pool_size(len(ranking) if n_items is None else n_items, ratio, k)
    if size == len(ranking):
        return ranking
    if size == n_items:
        return _CATALOG
    if size > len(ranking):
        raise ValueError(f"ranking of {len(ranking)} items cannot hold a pool of {size}")
    return RankedList._trusted(ranking.user, ranking.items[:size])


def _pool_arrays(
    matrix: PreferenceMatrix,
    user: int,
    pool: RankedList | _CatalogPool,
    lifts: LiftAssignment,
    k: int,
    catalog: Catalog,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pool's sorted ids, scores and lifts, once catalog, user, ``k`` and lifts are checked."""
    _check_sizes(matrix, catalog)
    row = _user_row(matrix, user, k)
    if lifts.by_provider.shape != (catalog.n_providers,):
        raise ValueError(
            f"lifts have shape {lifts.by_provider.shape}, but the catalog has "
            f"{catalog.n_providers} providers"
        )
    if pool is _CATALOG:
        return np.arange(matrix.n_items), row, lifts.by_provider[catalog.provider_of]
    if len(pool) < k:
        raise ValueError(f"pool of {len(pool)} items cannot fill {k} slots")
    ids = np.sort(_list_ids(pool, len(pool), matrix.n_items))
    return ids, row[ids], lifts.by_provider[catalog.provider_of[ids]]


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

    Ties in the lifted score break by ascending item id.  In real
    arithmetic two items of one provider share their lift, so their keys
    differ as their scores do, and the list keeps them in their original
    relative order for every weight.  In floats, rounding can merge such
    keys a few ulps apart into a tie, which then breaks by id: the list is
    the top ``k`` of the rounded keys, ties by id, nothing more.  The weight
    search's probes select the same lists from fewer items; this full
    selection is their reference.
    """
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    ids, scores, item_lifts = _pool_arrays(matrix, user, pool, lifts, k, catalog)
    top_at = _smallest_k_at(-(scores + lam * item_lifts), k)
    return RankedList._trusted(user, tuple(ids[top_at].tolist()))


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

    ``pool`` is read as a set and laid out in id order, so a stable sort
    by position breaks ties in the lifted score by id.  It must hold the
    user's own top k, or ``ValueError`` is raised; the pool's head, its own
    top k at weight 0, is then that top k, which scores NDCG 1, so weight 0
    always clears the floor.  :func:`_scorer` gives every probe's NDCG, so a
    probe reads :func:`ndcg` of its list.  Bisection keeps the invariant
    NDCG(lo) >= threshold and stops once hi - lo <= gap, returning the
    largest probed weight that passed.  Each probe selects its top k only
    among the items keyed at or below the previous probe's list (the first,
    the head's), which gives the lists :func:`rerank_with_lambda` gives.

    Probe order: lambda_max / 2 first; if it passes, lambda_max itself,
    returned with its list if it clears the floor; otherwise the halvings go
    on as plain bisection's, without probing lambda_max again.  In real
    arithmetic this returns plain bisection's weight, list and NDCG, because
    NDCG is non-increasing in the weight.  With w_r the slot weights, the
    top k sorted by s + lam * l maximizes sum_r w_r * (s_r + lam * l_r) over
    ordered k-lists, so comparing the optimal lists at lam1 < lam2 gives
    sum w * l(lam1) <= sum w * l(lam2), and hence DCG(lam1) >= DCG(lam2).
    So if lambda_max clears the floor, every weight below it does:
    plain bisection would pass every probe and return lambda_max last, with
    this same list, since a probe's selection does not depend on its seed.
    In floats, rounded keys and rounded NDCG can break that monotonicity at
    near-ties a few ulps apart, and the search can then stop at another
    weight than plain bisection.  What holds in floats too: the served list
    clears the floor, it is :func:`rerank_with_lambda`'s list at the
    returned weight, and the returned NDCG is :func:`ndcg`'s of that list.
    At most ``ceil(log2(lambda_max / gap)) + 1`` NDCG evaluations are spent:
    one per halving plus one on lambda_max.
    """
    k = config.k
    ids, scores, item_lifts = _pool_arrays(matrix, user, pool, lifts, k, catalog)
    # -s + lam * -l equals -(s + lam * l) bit for bit, up to the sign of a
    # zero, which no comparison sees
    neg_scores, neg_lifts = -scores, -item_lifts
    # each of the user's top ids must sit at its sorted place in the pool;
    # one past all the pool's ids clips to the last, a smaller id, and fails
    top, score = _scorer(matrix.scores[user], k)
    head_at = np.searchsorted(ids, top)
    if not np.array_equal(ids.take(head_at, mode="clip"), top):
        raise ValueError(f"pool for user {user} does not hold the user's own top {k}")
    # a constant shift cannot reorder anything, so the weight is irrelevant;
    # the head is the user's own top k, so its NDCG is exactly 1
    if np.all(item_lifts == item_lifts[0]):
        return 0.0, RankedList._trusted(user, tuple(top.tolist())), 1.0, 0

    def evaluate(lam: float, seed: np.ndarray) -> tuple[np.ndarray, float]:
        # the top k at lam as pool positions, selected near the seed list's
        # keys, and its NDCG; consecutive probes' lists barely differ
        top_at = _smallest_k_seeded(neg_scores + lam * neg_lifts, k, seed)
        return top_at, score(ids[top_at])

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
            if evaluations == 1:
                # the floor may hold all the way up; if not, the halvings
                # go on below lambda_max, whose result is now known
                evaluations += 1
                top_at, value = evaluate(config.lambda_max, seed)
                if value >= config.threshold:
                    best_lam, best_at, best_value = config.lambda_max, top_at, value
                    break
        else:
            hi = mid
    served = RankedList._trusted(user, tuple(ids[best_at].tolist()))
    return best_lam, served, best_value, evaluations


def _plan(
    matrix: PreferenceMatrix,
    config: RunConfig,
    catalog: Catalog,
    user: int,
) -> tuple[RankedList, np.ndarray, RankedList | _CatalogPool | None]:
    """The user's plain top-K stand-in, its exposure and the pool, read off the scores alone.

    The user is ranked only as deep as the search needs.  A pool smaller
    than the catalog is the ranking's prefix, so the ranking reaches the
    pool's depth; a pool of the whole catalog is ``_CATALOG``, which reads
    none of it, so the ranking is the user's top k.  Its first k items are
    the stand-in.

    A pool whose items all belong to one provider gives every item the same
    lift, which no weight can turn into a reordering, so it is ``None``: the
    user is served the stand-in at NDCG 1, as the search would serve it.  A
    ranked prefix holds one provider when its items' providers are all
    equal; the whole catalog, when the catalog has one provider, since every
    provider owns an item.  Such a plan keeps only the k-item stand-in.

    The stand-in's exposure is its :func:`list_contribution`, taken once
    per plan: the ledger books and withdraws that same vector.
    """
    n_items, k = matrix.n_items, config.k
    size = _pool_size(n_items, config.ratio, k)
    ranking = original_ranking(matrix, user, k if size == n_items else size)
    pool = candidate_pool(ranking, config.ratio, k, n_items=n_items)
    if pool is _CATALOG:
        one_provider = catalog.n_providers == 1
    else:
        providers = catalog.provider_of[np.asarray(pool.items, dtype=np.int64)]
        one_provider = (providers == providers[0]).all()
    # a ranking of k items is its own stand-in; a deeper one keeps only its
    # first k in a plan, not the whole ranking
    if len(ranking) > k:
        ranking = RankedList._trusted(ranking.user, ranking.items[:k])
    contribution = list_contribution(ranking, k, catalog)
    return ranking, contribution, None if one_provider else pool


def _serve(
    matrix: PreferenceMatrix,
    config: RunConfig,
    ledger: ExposureLedger,
    standin: RankedList,
    contribution: np.ndarray,
    pool: RankedList | _CatalogPool | None,
) -> tuple[RankedList, float]:
    """Serve one user by its plan (:func:`_plan`), its stand-in already on the ledger.

    Lifts come from the ledger as it stands, the largest weight that clears
    the floor picks the list from ``pool``, and the list's exposure replaces
    the stand-in's ``contribution`` on the ledger (or is added on top of it
    in ``accumulate`` mode).  A pool of ``None`` is served the stand-in at
    NDCG 1, without computing lifts or searching, and books the stand-in's
    own vector.
    """
    if pool is None:
        served, value, booked = standin, 1.0, contribution
    else:
        lifts = normalize_lifts(err_rates(ledger))
        _, served, value = binary_search_lambda(
            matrix, standin.user, pool, lifts, config, ledger.catalog
        )
        booked = list_contribution(served, config.k, ledger.catalog)
    if config.exposure_update == "replace":
        ledger.retract(contribution)
    ledger.apply(booked)
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
    elif not all(map(_is_int, order)) or sorted(order) != list(range(m)):
        raise ValueError("order must be a permutation of all user ids")
    _check_sizes(matrix, catalog)

    plans = [_plan(matrix, config, catalog, u) for u in range(m)]
    ledger = ExposureLedger(total_exposure(m, config.k), catalog, config.notion)
    for _, contribution, _ in plans:
        ledger.apply(contribution)

    lists: dict[int, RankedList] = {}
    per_user: dict[int, float] = {}
    for u in order:
        lists[u], per_user[u] = _serve(matrix, config, ledger, *plans[u])
    return lists, ledger, QualityReport(per_user)


@dataclass
class OnlineState:
    """Mutable state threaded through consecutive online requests.

    The state plans each user once (:func:`_plan`): a repeat request reuses
    the user's stand-in, its exposure and the pool, which depend only on
    the user's scores.  Plans hold for one matrix object and one
    ``(k, ratio)``; a step with another matrix object, or a config of
    another ``k`` or ``ratio``, starts a fresh plan table.  So a matrix must
    not be changed in place once a state has served from it.
    """

    ledger: ExposureLedger
    ndcg_log: list[tuple[int, float]] = field(default_factory=list)
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # the matrix object and the (k, ratio) the plans were made for
    _planned_for: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    @classmethod
    def fresh(cls, catalog: Catalog, notion: FairnessNotion) -> "OnlineState":
        return cls(ledger=ExposureLedger(0.0, catalog, notion))

    def _plan_of(
        self, matrix: PreferenceMatrix, user: int, config: RunConfig
    ) -> tuple[RankedList, np.ndarray, RankedList | _CatalogPool | None]:
        """The user's plan, made on the user's first request since the inputs changed."""
        planned_matrix, planned_depth = self._planned_for
        if planned_matrix is not matrix or planned_depth != (config.k, config.ratio):
            self._plans, self._planned_for = {}, (matrix, (config.k, config.ratio))
        # only an integer names its user; a float equal to one is not kept
        plans = self._plans if _is_int(user) else {}
        plan = plans.get(user)
        if plan is None:
            plan = plans[user] = _plan(matrix, config, self.ledger.catalog, user)
        return plan


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
    of past requests stay on the ledger permanently.  The catalog object and
    the config's notion must be the ones the state's ledger was created with.
    A repeat request reuses the user's plan (see :class:`OnlineState`).
    """
    if config.notion is not state.ledger.notion:
        raise ValueError(
            f"config notion {config.notion.value!r} differs from the online state's "
            f"{state.ledger.notion.value!r}"
        )
    state.ledger.check_catalog(catalog, "online state's")
    _check_sizes(matrix, catalog)
    standin, contribution, pool = state._plan_of(matrix, user, config)
    state.ledger.set_budget(total_exposure(len(state.ndcg_log) + 1, config.k))
    state.ledger.apply(contribution)
    served, value = _serve(matrix, config, state.ledger, standin, contribution, pool)
    state.ndcg_log.append((user, value))
    return served, state
