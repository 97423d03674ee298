"""Shared test helpers: seeded instances with realistic exposure ledgers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fairsort import (
    Catalog,
    ExposureLedger,
    FairnessNotion,
    LiftAssignment,
    PreferenceMatrix,
    RunConfig,
    err_rates,
    generate_synthetic,
    list_contribution,
    normalize_lifts,
    top_k,
    total_exposure,
)


@dataclass
class SearchInstance:
    """A user plus the lifts produced by a preloaded exposure ledger."""

    matrix: PreferenceMatrix
    catalog: Catalog
    user: int
    lifts: LiftAssignment
    config: RunConfig


def make_search_instance(
    seed: int,
    *,
    n_items: int | None = None,
    k: int | None = None,
    threshold: float = 0.9,
    lambda_max: float = 16.0,
    gap: float = 2.0**-7,
    require_varied_lifts: bool = True,
) -> SearchInstance:
    """Build a small seeded instance whose ledger is top-K preloaded.

    Preloading every user's plain top-K list leaves head providers over
    target and tail providers under, which is the lift pattern the search
    sees in real runs.  Instances whose lifts come out constant (nothing to
    trade) are re-rolled deterministically.
    """
    attempt = 0
    while True:
        rng = np.random.default_rng((seed, attempt))
        n = n_items if n_items is not None else int(rng.integers(8, 51))
        n_providers = int(rng.integers(2, min(8, n) + 1))
        depth = k if k is not None else int(rng.integers(2, min(8, n) + 1))
        users = int(rng.integers(5, 13))
        skew = float(rng.uniform(0.5, 2.0))
        matrix, catalog = generate_synthetic(
            users, n, n_providers, skew, seed=int(rng.integers(2**31))
        )
        notion = FairnessNotion.UNIFORM if rng.integers(2) == 0 else FairnessNotion.QUALITY_WEIGHTED
        ledger = ExposureLedger(total_exposure(users, depth), catalog, notion)
        for user in range(users):
            ledger.apply(list_contribution(top_k(matrix, user, depth), depth, catalog))
        lifts = normalize_lifts(err_rates(ledger))
        if require_varied_lifts and np.unique(lifts.by_provider).size < 2:
            attempt += 1
            continue
        config = RunConfig(
            k=depth,
            notion=notion,
            threshold=threshold,
            lambda_max=lambda_max,
            gap=gap,
            ratio=1.0,
        )
        return SearchInstance(
            matrix=matrix,
            catalog=catalog,
            user=int(rng.integers(users)),
            lifts=lifts,
            config=config,
        )
