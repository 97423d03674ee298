"""Reference list generators the re-ranker is compared against.

``top_k`` is the quality ceiling, ``mixed_k`` and ``all_random`` trade
quality for diversity blindly, and ``min_exposure`` chases item-level
exposure equality with no regard for preference at all.
"""

from __future__ import annotations

import numpy as np

from .catalog import (
    PreferenceMatrix,
    RankedList,
    _ideal_top,
    _smallest_k_at,
    _user_row,
    original_ranking,
)
from .exposure import _slot_weights


def top_k(matrix: PreferenceMatrix, user: int, k: int) -> RankedList:
    """The user's k best items in preference order."""
    return original_ranking(matrix, user, k)


def mixed_k(matrix: PreferenceMatrix, user: int, k: int, seed) -> RankedList:
    """Top half by preference, rest drawn uniformly from the remainder.

    The first ``ceil(k/2)`` slots replicate top-K; the remaining slots are
    sampled without replacement from the rest of the ranking.  ``seed`` is
    anything ``numpy.random.default_rng`` accepts.
    """
    row = _user_row(matrix, user, k)
    head_len = (k + 1) // 2
    # the draw picks by position, so the remainder keeps ranking order
    ranking = _ideal_top(row, matrix.n_items)
    rng = np.random.default_rng(seed)
    tail = rng.choice(ranking[head_len:], size=k - head_len, replace=False)
    return RankedList._trusted(user, tuple(ranking[:head_len].tolist() + tail.tolist()))


def all_random(matrix: PreferenceMatrix, user: int, k: int, seed) -> RankedList:
    """k items drawn uniformly without replacement, kept in draw order."""
    _user_row(matrix, user, k)  # checks the user and k
    rng = np.random.default_rng(seed)
    picks = rng.choice(matrix.n_items, size=k, replace=False)
    return RankedList._trusted(user, tuple(picks.tolist()))


def min_exposure(matrix: PreferenceMatrix, user: int, k: int, exposure: np.ndarray) -> RankedList:
    """Fill each slot with the least-exposed item so far, ties by item id.

    ``exposure`` holds each of the matrix's items' accumulated exposure and
    is updated in place; the scores themselves are never read.  Exposure is
    frozen while a list is being built and credited per slot weight once it
    is complete, so the list is simply the k smallest entries of
    ``exposure``.
    """
    _user_row(matrix, user, k)  # checks the user and k
    if exposure.size != matrix.n_items:
        raise ValueError(
            f"exposure has {exposure.size} entries but the preference matrix has "
            f"{matrix.n_items} items"
        )
    # each item's position in exposure is its id
    items = _smallest_k_at(exposure, k)
    exposure[items] += _slot_weights(k)
    return RankedList._trusted(user, tuple(items.tolist()))
