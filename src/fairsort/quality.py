"""Ranking quality: DCG and NDCG against the user's own best ordering."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import PreferenceMatrix, RankedList
from .exposure import _slot_weights


def _dcg_items(row: np.ndarray, items: np.ndarray, k: int) -> float:
    return float(row[items[:k]] @ _slot_weights(k))


def _smallest_k(key: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """The ``ids`` of the ``k`` smallest keys, ordered by key, ties by ascending id.

    Only the positions whose key is at most the k-th smallest can make the
    cut, so only they are sorted.  For finite keys this equals the first
    ``k`` of a full ``np.lexsort((ids, key))``.
    """
    cut = np.partition(key, k - 1)[k - 1]
    near = np.flatnonzero(key <= cut)
    near_ids = ids[near]
    return near_ids[np.lexsort((near_ids, key[near]))[:k]]


def _ideal_top(row: np.ndarray, k: int) -> np.ndarray:
    """The user's own top ``k`` items: the first ``k`` of their ranking."""
    return _smallest_k(-row, np.arange(row.size), k)


def dcg(matrix: PreferenceMatrix, user: int, rlist: RankedList, k: int) -> float:
    """Discounted cumulative gain of the first ``k`` slots of a list."""
    if len(rlist) < k:
        raise ValueError(f"list has {len(rlist)} items, need {k}")
    items = np.asarray(rlist.items, dtype=np.int64)
    return _dcg_items(matrix.scores[user], items, k)


def ideal_dcg(matrix: PreferenceMatrix, user: int, k: int) -> float:
    """DCG of the user's top ``k`` items by preference; the NDCG denominator."""
    if k > matrix.n_items:
        raise ValueError(f"k={k} exceeds the {matrix.n_items}-item universe")
    row = matrix.scores[user]
    # gather through _dcg_items so that scoring the user's own top-k yields
    # a bit-exact ratio of 1
    return _dcg_items(row, _ideal_top(row, k), k)


def _normalized(dcg_value: float, ideal: float) -> float:
    # an all-zero ideal scores 1; the ratio can only exceed 1 by float noise
    return 1.0 if ideal == 0.0 else min(dcg_value / ideal, 1.0)


def ndcg(matrix: PreferenceMatrix, user: int, rlist: RankedList, k: int) -> float:
    """Normalized DCG in [0, 1].

    A user with no positive preference at all cannot be served better or
    worse, so an all-zero ideal yields 1.0 by definition.
    """
    ideal = ideal_dcg(matrix, user, k)
    return _normalized(dcg(matrix, user, rlist, k), ideal)


@dataclass(frozen=True)
class QualityReport:
    """Per-user NDCG values for one completed run."""

    per_user: dict[int, float]
