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
import warnings
from collections.abc import Iterator
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
        # a reduction, not a mask the size of the matrix; with no NaN left,
        # the minimum is negative exactly when some score is, and -0.0 is not
        if scores.min() < 0:
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
    summed over all users, the denominator of quality-weighted fairness;
    ``item_count[p]``, derived from ``provider_of``, is uniform fairness's.
    """

    provider_of: np.ndarray
    quality_mass: np.ndarray
    item_count: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        provider_of = np.asarray(self.provider_of)
        quality_mass = np.asarray(self.quality_mass, dtype=np.float64)
        if provider_of.ndim != 1 or provider_of.size < 1:
            raise ValueError("provider_of must be a non-empty 1-d array")
        # a cast would truncate fractional ids without a word
        if not np.issubdtype(provider_of.dtype, np.integer):
            raise ValueError(f"provider ids must be integers, got dtype {provider_of.dtype}")
        provider_of = provider_of.astype(np.int64)
        if quality_mass.ndim != 1 or quality_mass.size < 1:
            raise ValueError("catalog needs at least one provider")
        if provider_of.min() < 0 or provider_of.max() >= quality_mass.size:
            raise ValueError("provider ids out of range")
        item_count = np.bincount(provider_of, minlength=quality_mass.size)
        if np.any(item_count < 1):
            raise ValueError("every provider must own at least one item")
        # written so that NaN fails too
        if not np.all((quality_mass >= 0) & (quality_mass < np.inf)):
            raise ValueError("quality_mass must be finite and nonnegative")
        object.__setattr__(self, "provider_of", provider_of)
        object.__setattr__(self, "item_count", item_count)
        object.__setattr__(self, "quality_mass", quality_mass)

    @property
    def n_items(self) -> int:
        return self.provider_of.size

    @property
    def n_providers(self) -> int:
        return self.quality_mass.size

    @classmethod
    def build(cls, provider_of: np.ndarray, matrix: PreferenceMatrix) -> "Catalog":
        """Derive per-provider quality mass from an assignment."""
        # the catalog's own map checks, on zero masses, before np.bincount reads the map
        provider_of = cls(provider_of, np.zeros(np.unique(provider_of).size)).provider_of
        if provider_of.size != matrix.n_items:
            raise ValueError(
                f"provider map has {provider_of.size} items but the preference matrix "
                f"has {matrix.n_items}"
            )
        return cls(provider_of, np.bincount(provider_of, weights=matrix.scores.sum(axis=0)))


@dataclass(frozen=True)
class RankedList:
    """An ordered recommendation list for one user; items are distinct ids >= 0."""

    user: int
    items: tuple[int, ...]

    def __post_init__(self) -> None:
        # int() would truncate a float id and read a bool as id 0 or 1
        if not all(map(_is_int, ids := (self.user, *self.items))):
            raise TypeError(f"ranked list ids must be integers, got user and items {ids!r}")
        user, items = int(ids[0]), tuple(map(int, ids[1:]))
        if user < 0:
            raise ValueError(f"ranked list has a negative user id {user}")
        if len(set(items)) != len(items):
            raise ValueError(f"ranked list for user {user} repeats items")
        if items and min(items) < 0:
            raise ValueError(f"ranked list for user {user} has a negative item id")
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "user", user)

    @classmethod
    def _trusted(cls, user: int, items: tuple[int, ...]) -> "RankedList":
        """A list the package built from its own selection, which is not re-checked.

        ``items`` must already be a tuple of distinct Python ints >= 0, as
        ids drawn by a selection or a draw without replacement are, and
        ``user`` a checked user id.
        """
        rlist = object.__new__(cls)
        object.__setattr__(rlist, "user", operator.index(user))
        object.__setattr__(rlist, "items", items)
        return rlist

    def __len__(self) -> int:
        return len(self.items)


def _list_ids(rlist: RankedList, k: int, n_items: int) -> np.ndarray:
    """The list's first ``k`` ids as an array, once it has ``k`` and all are in the catalog."""
    items = rlist.items[:k]
    if len(items) < k:
        raise ValueError(f"list has {len(items)} items, need {k}")
    # ids are distinct and >= 0, so only the largest can fall outside
    if items and max(items) >= n_items:
        item = next(i for i in items if i >= n_items)
        raise ValueError(
            f"list for user {rlist.user} holds item {item}, outside the catalog of "
            f"{n_items} items"
        )
    return np.asarray(items, dtype=np.int64)


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


def _tsv_rows(path: Path, columns: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """``(lineno, fields)`` of each non-blank line of a tab-separated file.

    Raises :class:`DatasetFormatError` naming the line of the first row
    that does not split into exactly ``columns``.
    """
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != len(columns):
                raise DatasetFormatError(
                    f"{path}:{lineno}: malformed row, expected {'<TAB>'.join(columns)}"
                )
            yield lineno, fields


def load_dataset(matrix_path: str | Path, provider_map_path: str | Path) -> tuple[PreferenceMatrix, Catalog]:
    """Read a preference matrix and provider map from disk.

    A well-formed matrix file is read in bulk by numpy's C reader; any
    other file is parsed line by line, and that parser alone reports
    errors.  Raises :class:`DatasetFormatError` with a file/line reference
    on any malformed row, negative score, item without a provider, user id
    gap, repeated (user, item) pair, or duplicate item-provider assignment,
    and with the file name when the scores' total overflows.
    """
    provider_map_path = Path(provider_map_path)
    matrix_path = Path(matrix_path)

    assignment: dict[int, int] = {}
    for lineno, fields in _tsv_rows(provider_map_path, ("item_id", "provider_id")):
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
    if len(assignment) != n_items:
        # the ids are distinct, so one of the first len + 1 is missing
        missing = next(i for i in range(len(assignment) + 1) if i not in assignment)
        raise DatasetFormatError(
            f"{provider_map_path}: item {missing} is missing a provider "
            f"(item ids must be 0-based contiguous)"
        )
    provider_of = np.array([assignment[i] for i in range(n_items)], dtype=np.int64)
    providers = np.unique(provider_of)
    if providers.size != provider_of.max() + 1:
        raise DatasetFormatError(
            f"{provider_map_path}: provider ids must be 0-based contiguous"
        )

    scores = _read_scores(matrix_path, n_items)
    if scores is None:
        scores = _scan_scores(matrix_path, n_items)
    try:
        matrix = PreferenceMatrix(scores)
    except ValueError as exc:
        raise DatasetFormatError(f"{matrix_path}: {exc}") from None
    return matrix, Catalog.build(provider_of, matrix)


# one matrix row as the bulk reader returns it
_TRIPLET = np.dtype([("user", np.int64), ("item", np.int64), ("score", np.float64)])
# the only bytes the bulk reader is given: numpy's reader accepts \x1c-\x1f
# around a number, which int() and float() reject, and can misread (or
# crash on) a non-ASCII character next to an integer's digits
_PLAIN_BYTES = b"\t\n\r" + bytes(range(0x20, 0x7F))


def _read_scores(matrix_path: Path, n_items: int) -> np.ndarray | None:
    """The dense scores of a well-formed matrix file, read in bulk.

    Returns ``None`` for anything but a regular file (a pipe can be read
    only once), a file with other bytes than tabs, line breaks and
    printable ASCII, one the reader rejects or warns about (an empty file),
    and one whose rows break the format; :func:`_scan_scores` then parses
    it and names the offending line.
    """
    if not matrix_path.is_file():
        return None
    with open(matrix_path, "rb") as fh:
        if fh.read().translate(None, _PLAIN_BYTES):
            return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(
                matrix_path, dtype=_TRIPLET, delimiter="\t", comments=None,
                ndmin=1, encoding="utf-8",
            )
    except (ValueError, Warning):
        return None
    user, item, score = rows["user"], rows["item"], rows["score"]
    # a user id at or above the row count leaves some user without rows;
    # ruling it out first also bounds the count and the pair keys below
    if user.min() < 0 or user.max() >= len(rows) or item.min() < 0 or item.max() >= n_items:
        return None
    # false for NaN and inf as well as for negative scores
    if not np.all((score >= 0) & (score < np.inf)):
        return None
    if not np.bincount(user).all():
        return None
    pair = user * n_items + item
    ordered = np.sort(pair)
    if np.any(ordered[1:] == ordered[:-1]):
        return None
    scores = np.zeros((int(user.max()) + 1, n_items))
    scores.reshape(-1)[pair] = score
    return scores


def _scan_scores(matrix_path: Path, n_items: int) -> np.ndarray:
    """Parse a matrix file line by line into dense scores.

    The reference parser: it raises the :class:`DatasetFormatError` of the
    first offending line, and takes every file the bulk reader takes to the
    same scores.
    """
    # one row of scores per user seen so far; -1 marks a pair not yet given
    rows: dict[int, list[float]] = {}
    for lineno, fields in _tsv_rows(matrix_path, ("user_id", "item_id", "score")):
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
    return scores


# up to this many keys per slot, sorting them all beats partitioning first
_SORT_PER_SLOT = 4


def _smallest_k_at(key: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` smallest keys, ordered by key, ties by ascending position.

    Every array the package selects from is laid out in ascending id order,
    so a stable sort's tie rule is "ties by ascending id".  Only the
    positions whose key is at most the k-th smallest can make the cut, so
    only they are sorted; a set of few keys per slot is sorted outright.
    For finite keys this equals the first ``k`` of a full stable sort.
    """
    # the method form costs half the call overhead of np.argsort
    if key.size <= _SORT_PER_SLOT * k:
        return key.argsort(kind="stable")[:k]
    cut = np.partition(key, k - 1)[k - 1]
    near = (key <= cut).nonzero()[0]
    return near[key[near].argsort(kind="stable")[:k]]


def _smallest_k_seeded(key: np.ndarray, k: int, seed: np.ndarray) -> np.ndarray:
    """As :func:`_smallest_k_at`, given the positions ``seed`` of any k distinct keys.

    Any k keys bound the k-th smallest from above, so only the positions
    keyed at or below the seed's largest can make the cut; only they are
    selected among.  A seed close to the answer leaves few of them.
    """
    # max over a list: a numpy reduction over k items costs twice as much
    near = (key <= max(key[seed].tolist())).nonzero()[0]
    return near[_smallest_k_at(key[near], k)]


def _ideal_top(row: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` item ids of a score row's ranking."""
    return _smallest_k_at(-row, k)


def _is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool counts as none."""
    # a plain int, the common case, costs one type test (a third of the
    # isinstance pair's); no class derives from bool
    kind = type(value)
    return kind is int or (kind is not bool and isinstance(value, (int, np.integer)))


def _count(name: str, value, least: int) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer ``>= least``."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _user_row(matrix: PreferenceMatrix, user: int, depth: int) -> np.ndarray:
    """The user's score row, once the user and a list depth are checked."""
    # numpy rejects a float index with a bare IndexError, and reads a bool
    # as user or depth 0 or 1
    if not _is_int(user):
        raise ValueError(f"user must be an integer, got {user!r}")
    if not _is_int(depth):
        raise ValueError(f"depth must be an integer, got {depth!r}")
    # a negative index would wrap around to another user's row
    if not 0 <= user < matrix.n_users:
        raise ValueError(f"user {user} out of range")
    if not 1 <= depth <= matrix.n_items:
        raise ValueError(f"depth {depth} outside 1..{matrix.n_items}")
    return matrix.scores[user]


def original_ranking(matrix: PreferenceMatrix, user: int, depth: int | None = None) -> RankedList:
    """The user's first ``depth`` items by preference, descending; ties by ascending id.

    Without ``depth`` the list ranks every item.  A shorter list is the
    prefix of the full ranking, and costs a partial selection instead of a
    full sort.
    """
    if depth is None:
        depth = matrix.n_items
    top = _ideal_top(_user_row(matrix, user, depth), depth)
    return RankedList._trusted(user, tuple(top.tolist()))


def _allocate_sizes(n_items: int, weights: np.ndarray) -> np.ndarray:
    """Largest-remainder allocation of items to providers, each >= 1."""
    raw = weights / weights.sum() * n_items
    sizes = np.maximum(1, np.floor(raw).astype(np.int64))
    deficit = n_items - int(sizes.sum())
    if deficit > 0:
        remainders = raw - np.floor(raw)
        # lower provider id wins remainder ties
        order = (-remainders).argsort(kind="stable")
        # each remainder is below 1, so the deficit is at most the provider count
        sizes[order[:deficit]] += 1
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
    # enough to displace head items without wrecking list quality; scaled in
    # place, so the draw is the only array of the matrix's size
    base *= 0.8 + 0.2 * popularity[provider_of]
    matrix = PreferenceMatrix(base)
    return matrix, Catalog.build(provider_of, matrix)
