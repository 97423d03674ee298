"""Ranking quality: DCG and NDCG against the user's own best ordering."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import PreferenceMatrix, RankedList, _ideal_top, _user_row
from .exposure import _slot_weights


def _dcg_items(row: np.ndarray, items: np.ndarray, k: int) -> float:
    return float(row[items[:k]] @ _slot_weights(k))


def dcg(matrix: PreferenceMatrix, user: int, rlist: RankedList, k: int) -> float:
    """Discounted cumulative gain of the first ``k`` slots of ``user``'s list."""
    if rlist.user != user:
        raise ValueError(f"list is for user {rlist.user}, not user {user}")
    row = _user_row(matrix, user, k)
    if len(rlist) < k:
        raise ValueError(f"list has {len(rlist)} items, need {k}")
    return _dcg_items(row, np.asarray(rlist.items, dtype=np.int64), k)


def ideal_dcg(matrix: PreferenceMatrix, user: int, k: int) -> float:
    """DCG of the user's top ``k`` items by preference; the NDCG denominator."""
    row = _user_row(matrix, user, k)
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
