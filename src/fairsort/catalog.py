"""Dataset model: preference scores, the item/provider catalog, rankings.

File formats
------------
Preference matrix: UTF-8 text, one ``user_id<TAB>item_id<TAB>score`` triplet
per line.  Ids are 0-based contiguous integers, so every user up to the
highest id has at least one row (a user with no positive score is written
with explicit 0 rows).  Scores are finite decimals >= 0, each (user, item)
pair appears at most once, and pairs absent from the file default to a
score of 0.

Provider map: one ``item_id<TAB>provider_id`` pair per line.  Every item
appears exactly once and provider ids are 0-based contiguous.

Scores are kept on whatever nonnegative scale the dataset ships with; no
normalization is applied on load.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class DatasetFormatError(ValueError):
    """Raised when an input file violates the documented format."""


@dataclass(frozen=True)
class PreferenceMatrix:
    """Dense user-by-item preference scores."""

    scores: np.ndarray

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 2 or scores.shape[0] < 1 or scores.shape[1] < 1:
            raise ValueError("preference matrix must be 2-d and non-empty")
        # a finite total rules out any non-finite score as well; for
        # nonnegative scores it also keeps every row DCG, provider mass and
        # lifted key finite
        with np.errstate(over="ignore", invalid="ignore"):
            total = scores.sum()
        if not np.isfinite(total):
            if not np.all(np.isfinite(scores)):
                raise ValueError("preference scores must be finite")
            raise ValueError(
                f"preference scores must sum to at most {sys.float_info.max!r}, "
                f"the largest float; the sum overflows"
            )
        if np.any(scores < 0):
            raise ValueError("preference scores must be nonnegative")
        object.__setattr__(self, "scores", scores)

    @property
    def n_users(self) -> int:
        return self.scores.shape[0]

    @property
    def n_items(self) -> int:
        return self.scores.shape[1]


@dataclass(frozen=True)
class Catalog:
    """Item-to-provider assignment plus per-provider aggregates.

    ``quality_mass[p]`` is the total preference mass of provider p's items,
    summed over all users; it is the denominator used by quality-weighted
    fairness.
    """

    provider_of: np.ndarray
    item_count: np.ndarray
    quality_mass: np.ndarray

    def __post_init__(self) -> None:
        provider_of = np.asarray(self.provider_of, dtype=np.int64)
        item_count = np.asarray(self.item_count, dtype=np.int64)
        quality_mass = np.asarray(self.quality_mass, dtype=np.float64)
        if provider_of.ndim != 1 or provider_of.size < 1:
            raise ValueError("provider_of must be a non-empty 1-d array")
        n_providers = item_count.size
        if n_providers < 1:
            raise ValueError("catalog needs at least one provider")
        if provider_of.min() < 0 or provider_of.max() >= n_providers:
            raise ValueError("provider ids out of range")
        if item_count.sum() != provider_of.size:
            raise ValueError("item counts do not cover the item universe")
        if np.any(item_count < 1):
            raise ValueError("every provider must own at least one item")
        if quality_mass.size != n_providers or np.any(quality_mass < 0):
            raise ValueError("quality_mass must be nonnegative, one per provider")
        object.__setattr__(self, "provider_of", provider_of)
        object.__setattr__(self, "item_count", item_count)
        object.__setattr__(self, "quality_mass", quality_mass)

    @property
    def n_items(self) -> int:
        return self.provider_of.size

    @property
    def n_providers(self) -> int:
        return self.item_count.size

    @classmethod
    def build(cls, provider_of: np.ndarray, matrix: PreferenceMatrix) -> "Catalog":
        """Derive per-provider counts and quality mass from an assignment."""
        provider_of = np.asarray(provider_of, dtype=np.int64)
        n_providers = int(provider_of.max()) + 1 if provider_of.size else 0
        item_count = np.bincount(provider_of, minlength=n_providers)
        per_item_mass = matrix.scores.sum(axis=0)
        quality_mass = np.bincount(
            provider_of, weights=per_item_mass, minlength=n_providers
        )
        return cls(provider_of, item_count, quality_mass)


@dataclass(frozen=True)
class RankedList:
    """An ordered recommendation list for one user; items are distinct ids >= 0."""

    user: int
    items: tuple[int, ...]

    def __post_init__(self) -> None:
        # operator.index rejects floats and other non-integral ids
        user = operator.index(self.user)
        items = tuple(map(operator.index, self.items))
        if user < 0:
            raise ValueError(f"ranked list has a negative user id {user}")
        if len(set(items)) != len(items):
            raise ValueError(f"ranked list for user {user} repeats items")
        if items and min(items) < 0:
            raise ValueError(f"ranked list for user {user} has a negative item id")
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "user", user)

    def __len__(self) -> int:
        return len(self.items)


def _parse_int(text: str, path: Path, lineno: int, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise DatasetFormatError(
            f"{path}:{lineno}: malformed row, {what} is not an integer: {text!r}"
        ) from None
    if value < 0:
        raise DatasetFormatError(f"{path}:{lineno}: {what} must be >= 0, got {value}")
    return value


def load_dataset(matrix_path: str | Path, provider_map_path: str | Path) -> tuple[PreferenceMatrix, Catalog]:
    """Read a preference matrix and provider map from disk.

    Raises :class:`DatasetFormatError` with a file/line reference on any
    malformed row, negative score, item without a provider, user id gap,
    repeated (user, item) pair, or duplicate item-provider assignment, and
    with the file name when the scores' total overflows.
    """
    provider_map_path = Path(provider_map_path)
    matrix_path = Path(matrix_path)

    assignment: dict[int, int] = {}
    with open(provider_map_path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise DatasetFormatError(
                    f"{provider_map_path}:{lineno}: malformed row, "
                    f"expected item_id<TAB>provider_id"
                )
            item = _parse_int(fields[0], provider_map_path, lineno, "item_id")
            provider = _parse_int(fields[1], provider_map_path, lineno, "provider_id")
            if item in assignment:
                raise DatasetFormatError(
                    f"{provider_map_path}:{lineno}: duplicate provider assignment "
                    f"for item {item}"
                )
            assignment[item] = provider

    if not assignment:
        raise DatasetFormatError(f"{provider_map_path}: provider map is empty")
    n_items = max(assignment) + 1
    missing = [i for i in range(n_items) if i not in assignment]
    if missing:
        raise DatasetFormatError(
            f"{provider_map_path}: item {missing[0]} is missing a provider "
            f"(item ids must be 0-based contiguous)"
        )
    provider_of = np.array([assignment[i] for i in range(n_items)], dtype=np.int64)
    providers = np.unique(provider_of)
    if providers.size != provider_of.max() + 1:
        raise DatasetFormatError(
            f"{provider_map_path}: provider ids must be 0-based contiguous"
        )

    # one row of scores per user seen so far; -1 marks a pair not yet given
    rows: dict[int, list[float]] = {}
    with open(matrix_path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise DatasetFormatError(
                    f"{matrix_path}:{lineno}: malformed row, "
                    f"expected user_id<TAB>item_id<TAB>score"
                )
            user = _parse_int(fields[0], matrix_path, lineno, "user_id")
            item = _parse_int(fields[1], matrix_path, lineno, "item_id")
            try:
                score = float(fields[2])
            except ValueError:
                raise DatasetFormatError(
                    f"{matrix_path}:{lineno}: malformed row, score is not a number: "
                    f"{fields[2]!r}"
                ) from None
            if not math.isfinite(score):
                raise DatasetFormatError(
                    f"{matrix_path}:{lineno}: score must be finite, got {fields[2]}"
                )
            if score < 0:
                raise DatasetFormatError(
                    f"{matrix_path}:{lineno}: negative score {score} for "
                    f"user {user}, item {item}"
                )
            if item >= n_items:
                raise DatasetFormatError(
                    f"{matrix_path}:{lineno}: item {item} is missing a provider"
                )
            row = rows.get(user)
            if row is None:
                row = rows[user] = [-1.0] * n_items
            if row[item] >= 0:
                raise DatasetFormatError(
                    f"{matrix_path}:{lineno}: duplicate score for user {user}, item {item}"
                )
            row[item] = score

    if not rows:
        raise DatasetFormatError(f"{matrix_path}: no triplets found")
    if len(rows) != max(rows) + 1:
        user = next(u for u in range(max(rows)) if u not in rows)
        raise DatasetFormatError(
            f"{matrix_path}: user {user} has no rows (user ids must be 0-based contiguous)"
        )
    scores = np.array([rows[u] for u in range(len(rows))])
    scores[scores < 0] = 0.0
    try:
        matrix = PreferenceMatrix(scores)
    except ValueError as exc:
        raise DatasetFormatError(f"{matrix_path}: {exc}") from None
    return matrix, Catalog.build(provider_of, matrix)


# up to this many keys per slot, sorting them all beats partitioning first
_SORT_PER_SLOT = 4


def _smallest_k_at(key: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` smallest keys, ordered by key, ties by ascending id.

    Only the positions whose key is at most the k-th smallest can make the
    cut, so only they are sorted; a set of few keys per slot is sorted
    outright.  For finite keys this equals the first ``k`` of a full
    ``np.lexsort((ids, key))``.
    """
    if key.size <= _SORT_PER_SLOT * k:
        return np.lexsort((ids, key))[:k]
    cut = np.partition(key, k - 1)[k - 1]
    near = np.flatnonzero(key <= cut)
    return near[np.lexsort((ids[near], key[near]))[:k]]


def _smallest_k_seeded(key: np.ndarray, ids: np.ndarray, k: int, seed: np.ndarray) -> np.ndarray:
    """As :func:`_smallest_k_at`, given the positions ``seed`` of any k distinct keys.

    Any k keys bound the k-th smallest from above, so only the positions
    keyed at or below the seed's largest can make the cut; only they are
    selected among.  A seed close to the answer leaves few of them.
    """
    # max over a list: a numpy reduction over k items costs twice as much
    near = (key <= max(key[seed].tolist())).nonzero()[0]
    return near[_smallest_k_at(key[near], ids[near], k)]


def _smallest_k(key: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """The ``ids`` of the ``k`` smallest keys, ordered by key, ties by ascending id."""
    return ids[_smallest_k_at(key, ids, k)]


def _ideal_top(row: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` item ids of a score row's ranking."""
    return _smallest_k(-row, np.arange(row.size), k)


def original_ranking(matrix: PreferenceMatrix, user: int, depth: int | None = None) -> RankedList:
    """The user's first ``depth`` items by preference, descending; ties by ascending id.

    Without ``depth`` the list ranks every item.  A shorter list is the
    prefix of the full ranking, and costs a partial selection instead of a
    full sort.
    """
    if not 0 <= user < matrix.n_users:
        raise ValueError(f"user {user} out of range")
    if depth is None:
        depth = matrix.n_items
    elif not 1 <= depth <= matrix.n_items:
        raise ValueError(f"depth {depth} outside 1..{matrix.n_items}")
    return RankedList(user, tuple(_ideal_top(matrix.scores[user], depth).tolist()))


def _allocate_sizes(n_items: int, weights: np.ndarray) -> np.ndarray:
    """Largest-remainder allocation of items to providers, each >= 1."""
    raw = weights / weights.sum() * n_items
    sizes = np.maximum(1, np.floor(raw).astype(np.int64))
    deficit = n_items - int(sizes.sum())
    if deficit > 0:
        remainders = raw - np.floor(raw)
        # lower provider id wins remainder ties
        order = np.lexsort((np.arange(weights.size), -remainders))
        for idx in range(deficit):
            sizes[order[idx % weights.size]] += 1
    while sizes.sum() > n_items:
        candidates = np.flatnonzero(sizes > 1)
        sizes[candidates[np.argmax(sizes[candidates])]] -= 1
    return sizes


def generate_synthetic(
    n_users: int, n_items: int, n_providers: int, skew: float, seed: int
) -> tuple[PreferenceMatrix, Catalog]:
    """Build a synthetic dataset with a controllable provider imbalance.

    Provider sizes follow a power law with exponent ``skew`` (skew=0 gives
    equal sizes within one item).  Items of large providers also receive a
    proportional popularity boost, so plain top-K ranking concentrates
    exposure on the head providers whenever skew > 0.
    """
    if n_users < 1 or n_items < 1:
        raise ValueError("need at least one user and one item")
    if not 1 <= n_providers <= n_items:
        raise ValueError("need 1 <= n_providers <= n_items")
    # written so that NaN fails too
    if not skew >= 0:
        raise ValueError(f"skew must be >= 0, got {skew}")
    weights = np.arange(1, n_providers + 1, dtype=np.float64) ** (-skew)
    sizes = _allocate_sizes(n_items, weights)
    provider_of = np.repeat(np.arange(n_providers, dtype=np.int64), sizes)
    popularity = weights / weights[0]
    rng = np.random.default_rng(seed)
    base = rng.random((n_users, n_items))
    # the boost range is deliberately narrow: tail items must stay cheap
    # enough to displace head items without wrecking list quality
    matrix = PreferenceMatrix(base * (0.8 + 0.2 * popularity[provider_of]))
    return matrix, Catalog.build(provider_of, matrix)
