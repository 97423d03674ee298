"""Ranking quality: DCG and NDCG against the user's own best ordering."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import PreferenceMatrix, RankedList, _ideal_top, _list_ids, _user_row
from .exposure import _slot_weights


def _dcg(gains: np.ndarray) -> float:
    """DCG of the gains of a list's slots, in slot order."""
    return float(gains @ _slot_weights(gains.size))


def _unit_scale(top: float) -> int:
    """The power of two, as an exponent, that brings a row's top score into [0.5, 1).

    NDCG does not depend on the scale of the scores, and a power-of-two
    scale is exact while the floats stay normal, so where every gain,
    product and sum stays normal the scaled NDCG equals the unscaled one bit
    for bit.  Subnormal scores carry too few bits for the DCG's products and
    sums: unscaled, a list below the ideal can read NDCG 1.  A zero row
    stays as it is.
    """
    return -math.frexp(top)[1]


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


def _normalized(dcg_value: float, ideal: float) -> float:
    # an all-zero ideal scores 1; the ratio can only exceed 1 by float noise
    return 1.0 if ideal == 0.0 else min(dcg_value / ideal, 1.0)


def ndcg(matrix: PreferenceMatrix, user: int, rlist: RankedList, k: int) -> float:
    """Normalized DCG in [0, 1], on the scores scaled by :func:`_unit_scale`.

    A user with no positive preference at all cannot be served better or
    worse, so an all-zero ideal yields 1.0 by definition.
    """
    row, items = _list_row(matrix, user, rlist, k)
    top = _ideal_top(row, k)
    # only the 2k gathered scores are scaled; gathering the user's own top k
    # for both sides gives it a bit-exact ratio of 1
    scale = _unit_scale(row[top[0]])
    return _normalized(_dcg(np.ldexp(row[items], scale)), _dcg(np.ldexp(row[top], scale)))


@dataclass(frozen=True)
class QualityReport:
    """Per-user NDCG values for one completed run."""

    per_user: dict[int, float]
