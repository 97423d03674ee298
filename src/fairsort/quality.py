"""Ranking quality: DCG and NDCG against the user's own best ordering."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .catalog import PreferenceMatrix, RankedList, _ideal_top, _list_ids, _user_row
from .exposure import _slot_weights


def _dcg(gains: np.ndarray) -> float:
    """DCG of the gains of a list's slots, in slot order."""
    return float(gains @ _slot_weights(gains.size))


def _scorer(row: np.ndarray, k: int) -> tuple[np.ndarray, Callable[[np.ndarray], float]]:
    """The row's top ``k`` ids, and the NDCG of any ``k`` ids against them.

    NDCG is taken on the row scaled by the power of two that brings its top
    score into [0.5, 1).  NDCG does not depend on the scale, and the scale is
    exact while the floats stay normal, so then it equals the unscaled NDCG
    bit for bit.  Subnormal scores carry too few bits for the DCG's products
    and sums: unscaled, a list below the ideal can read NDCG 1.  A zero row
    stays as it is, its all-zero ideal scores 1, and float noise is clipped at 1.
    """
    top = _ideal_top(row, k)
    gains = np.ldexp(row, -math.frexp(row[top[0]])[1])
    ideal = _dcg(gains[top])

    def score(ids: np.ndarray) -> float:
        return 1.0 if ideal == 0.0 else min(_dcg(gains[ids]) / ideal, 1.0)

    return top, score


def _list_row(
    matrix: PreferenceMatrix, user: int, rlist: RankedList, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The user's score row and the list's first ``k`` ids, once all three are checked."""
    row = _user_row(matrix, user, k)
    if rlist.user != user:
        raise ValueError(f"list is for user {rlist.user}, not user {user}")
    return row, _list_ids(rlist, k, matrix.n_items)


def dcg(matrix: PreferenceMatrix, user: int, rlist: RankedList, k: int) -> float:
    """Discounted cumulative gain of the first ``k`` slots of ``user``'s list."""
    row, items = _list_row(matrix, user, rlist, k)
    return _dcg(row[items])


def ideal_dcg(matrix: PreferenceMatrix, user: int, k: int) -> float:
    """DCG of the user's top ``k`` items by preference; the NDCG denominator."""
    row = _user_row(matrix, user, k)
    return _dcg(row[_ideal_top(row, k)])


def ndcg(matrix: PreferenceMatrix, user: int, rlist: RankedList, k: int) -> float:
    """Normalized DCG in [0, 1], as :func:`_scorer` takes it.

    A user with no positive preference at all cannot be served better or
    worse, so an all-zero ideal yields 1.0 by definition.
    """
    row, items = _list_row(matrix, user, rlist, k)
    return _scorer(row, k)[1](items)


@dataclass(frozen=True)
class QualityReport:
    """Per-user NDCG values for one completed run."""

    per_user: dict[int, float]
