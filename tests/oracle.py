"""Slow, independent reference implementations used only for checking.

Everything here recomputes results from first principles with plain Python
loops and ``math`` (no shared helpers from the fast modules), so agreement
between the two routes is meaningful evidence rather than a tautology.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from fairsort import Catalog, LiftAssignment, PreferenceMatrix, RankedList


def selection_sort_ranking(row: Sequence[float]) -> list[int]:
    """Rank item ids by score, descending, ties by ascending id.

    Deliberately quadratic: repeatedly scan for the best remaining item.
    """
    remaining = list(range(len(row)))
    ranking: list[int] = []
    while remaining:
        best = remaining[0]
        for candidate in remaining[1:]:
            if row[candidate] > row[best]:
                best = candidate
        ranking.append(best)
        remaining.remove(best)
    return ranking


def naive_dcg(row: Sequence[float], items: Sequence[int], k: int) -> float:
    total = 0.0
    for slot, item in enumerate(items[:k], start=1):
        total += row[item] / math.log2(slot + 1)
    return total


def naive_ndcg(row: Sequence[float], items: Sequence[int], k: int) -> float:
    ideal_items = sorted(range(len(row)), key=lambda i: (-row[i], i))[:k]
    ideal = naive_dcg(row, ideal_items, k)
    if ideal == 0.0:
        return 1.0
    return min(naive_dcg(row, items, k) / ideal, 1.0)


def exact_ndcg(row: Sequence[float], items: Sequence[int], k: int) -> Fraction:
    """NDCG in exact rational arithmetic over the float slot weights.

    Each score and each weight ``1.0 / math.log2(slot + 1)`` is a float, and
    every sum and the ratio are taken exactly, so no rounding on any score
    scale (subnormal included) can move the result.  An all-zero ideal
    scores 1.
    """
    weights = [Fraction(1.0 / math.log2(slot + 1)) for slot in range(1, k + 1)]

    def exact_dcg(ranked: Sequence[int]) -> Fraction:
        return sum(Fraction(row[i]) * w for i, w in zip(ranked[:k], weights))

    ideal = exact_dcg(sorted(range(len(row)), key=lambda i: (-row[i], i)))
    return Fraction(1) if ideal == 0 else exact_dcg(items) / ideal


def exact_lifts(deficit: Sequence[float], sizes: Sequence[float]) -> list[Fraction]:
    """Normalized lifts in exact rational arithmetic over float deficits and sizes.

    A provider of zero size has rate 0; each sign group of the rates
    ``deficit / size`` is divided by its absolute sum, so no rate can
    overflow and no group's scale is lost.
    """
    rates = [Fraction(d) / Fraction(s) if s > 0 else Fraction(0) for d, s in zip(deficit, sizes)]
    positive = sum(r for r in rates if r > 0)
    negative = -sum(r for r in rates if r < 0)
    return [r / positive if r > 0 else r / negative if r < 0 else Fraction(0) for r in rates]


def gathered_lifts(err: np.ndarray) -> np.ndarray:
    """Normalized lifts by the package's earlier formula, kept as its bit-level reference.

    Each sign group is gathered, divided by its own sum, and scattered back.
    """
    lift = np.zeros_like(err)
    positive = err > 0
    group = err[positive]
    lift[positive] = group / group.sum()
    negative = err < 0
    group = err[negative]
    lift[negative] = group / -group.sum()
    return lift


def probe_bound(config) -> int:
    """Most probes a search may evaluate.

    One per halving of [0, lambda_max] down to ``gap``, plus one at
    ``lambda_max`` itself.
    """
    return math.ceil(math.log2(config.lambda_max / config.gap)) + 1


def grid_lambda_profile(
    matrix: PreferenceMatrix,
    user: int,
    pool: Sequence[int],
    lifts: LiftAssignment,
    catalog: Catalog,
    lambda_max: float,
    points: int,
    k: int,
) -> list[tuple[float, float]]:
    """NDCG at ``points`` evenly spaced weights in [0, lambda_max].

    Each point re-sorts the pool from scratch (score + weight * lift,
    descending, ties by ascending item id) and evaluates NDCG naively.
    """
    if points < 2:
        raise ValueError("need at least two grid points")
    row = [float(v) for v in matrix.scores[user]]
    item_lift = {int(i): float(lifts.by_provider[catalog.provider_of[i]]) for i in pool}
    profile: list[tuple[float, float]] = []
    for idx in range(points):
        lam = lambda_max * idx / (points - 1)
        reordered = sorted(pool, key=lambda i: (-(row[i] + lam * item_lift[int(i)]), i))
        profile.append((lam, naive_ndcg(row, reordered, k)))
    return profile


def exhaustive_best_dcg(matrix: PreferenceMatrix, user: int, k: int) -> float:
    """Best DCG over every ordered k-arrangement of items; tiny inputs only."""
    n = matrix.n_items
    if n > 10:
        raise ValueError("exhaustive search is limited to n <= 10 items")
    if k > n:
        raise ValueError("k exceeds the item universe")
    row = [float(v) for v in matrix.scores[user]]
    best = 0.0
    for arrangement in itertools.permutations(range(n), k):
        best = max(best, naive_dcg(row, arrangement, k))
    return best


@dataclass(frozen=True)
class RunRecord:
    """Everything needed to re-derive a run's claims from its raw lists.

    ``lists`` are in emission order; for online runs one entry per request,
    for offline runs one per user.  ``threshold`` is None for models that
    make no quality promise.
    """

    matrix: PreferenceMatrix
    catalog: Catalog
    scenario: str
    k: int
    lists: tuple[RankedList, ...]
    ledger_exposure: np.ndarray | None = None
    histogram: tuple[int, ...] | None = None
    threshold: float | None = None


@dataclass
class ReplayVerdict:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


_BIN_EDGES = [0.0, 0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0]


def _naive_histogram(values: Sequence[float]) -> list[int]:
    counts = [0] * 9
    for value in values:
        slot = 8
        for idx in range(9):
            if _BIN_EDGES[idx] <= value < _BIN_EDGES[idx + 1]:
                slot = idx
                break
        counts[slot] += 1
    return counts


def replay_check(record: RunRecord, config) -> ReplayVerdict:
    """Re-derive a completed run's bookkeeping from its raw lists.

    Checks list shape, exposure conservation (per step for online runs),
    the recorded ledger, the quality floor, and the NDCG histogram.  Lists
    are scored with :func:`exact_ndcg`, so no score scale, subnormal
    included, can round a list's NDCG across the floor.  ``config`` only
    needs ``k`` and, when a floor was promised, ``threshold``.
    """
    verdict = ReplayVerdict()
    k = int(config.k)
    if k != record.k:
        verdict.violations.append(f"config k={k} but record k={record.k}")

    slot_weight = [1.0 / math.log2(slot + 1) for slot in range(1, k + 1)]
    per_slot_total = sum(slot_weight)
    provider_sums = [0.0] * record.catalog.n_providers
    running = 0.0
    ndcgs: list[float] = []

    for step, rlist in enumerate(record.lists, start=1):
        if len(rlist.items) != k:
            verdict.violations.append(
                f"list #{step} (user {rlist.user}) has {len(rlist.items)} items, expected {k}"
            )
            continue
        if len(set(rlist.items)) != len(rlist.items):
            verdict.violations.append(f"list #{step} (user {rlist.user}) repeats items")
            continue
        for slot, item in enumerate(rlist.items):
            provider_sums[int(record.catalog.provider_of[item])] += slot_weight[slot]
            running += slot_weight[slot]
        if record.scenario == "online":
            expected = step * per_slot_total
            if abs(running - expected) > 1e-6 * max(1.0, expected):
                verdict.violations.append(
                    f"exposure after step {step} is {running}, expected {expected}"
                )
        row = record.matrix.scores[rlist.user]
        ndcgs.append(exact_ndcg([float(v) for v in row], rlist.items, k))

    expected_total = len(record.lists) * per_slot_total
    if abs(running - expected_total) > 1e-6 * max(1.0, expected_total):
        verdict.violations.append(
            f"total exposure is {running}, expected {expected_total}"
        )

    if record.ledger_exposure is not None:
        for provider, recorded in enumerate(record.ledger_exposure):
            delta = float(recorded) - provider_sums[provider]
            if abs(delta) > 1e-6 * max(1.0, provider_sums[provider]):
                verdict.violations.append(
                    f"ledger exposure for provider {provider} off by {delta:+g}"
                )

    if record.threshold is not None:
        floor = float(record.threshold) - 1e-9
        for step, value in enumerate(ndcgs, start=1):
            if value < floor:
                verdict.violations.append(
                    f"list #{step} has NDCG {float(value)} below the {record.threshold} floor"
                )

    if record.histogram is not None:
        # each exact NDCG rounded to its nearest float, the value a float
        # NDCG that rounds correctly would bin against the float edges
        recount = _naive_histogram([float(value) for value in ndcgs])
        if list(record.histogram) != recount:
            verdict.violations.append(
                f"histogram {list(record.histogram)} != recount {recount}"
            )
    return verdict
