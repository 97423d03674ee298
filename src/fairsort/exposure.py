"""Position-bias exposure accounting and the per-provider ledger.

A slot at rank r carries weight 1/log2(r+1), so the exposure budget of a
run is fully determined by how many lists were emitted and how deep they
are.  The ledger tracks, per provider, exposure received so far against the
fair target implied by the active fairness notion.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .catalog import Catalog, RankedList, _count, _list_ids


class LedgerError(RuntimeError):
    """Raised when ledger bookkeeping is driven into an impossible state."""


class FairnessNotion(enum.Enum):
    """How a provider's fair share of exposure is weighted."""

    UNIFORM = "uf"
    QUALITY_WEIGHTED = "qf"

    @classmethod
    def parse(cls, text: str) -> "FairnessNotion":
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(f"unknown fairness notion {text!r}, expected uf or qf") from None


@lru_cache(maxsize=None)
def _slot_weights(k: int) -> np.ndarray:
    weights = 1.0 / np.log2(np.arange(2, k + 2, dtype=np.float64))
    weights.setflags(write=False)
    return weights


@lru_cache(maxsize=None)
def _list_exposure(k: int) -> float:
    """Exposure of one list of depth ``k``: its slot weights' sum."""
    return float(_slot_weights(k).sum())


def total_exposure(list_count: int, k: int) -> float:
    """Exposure budget of ``list_count`` lists of depth ``k``."""
    # a fractional k would weigh ceil(k) slots
    _count("list_count", list_count, 0)
    _count("k", k, 1)
    return float(list_count * _list_exposure(k))


def _provider_sizes(catalog: Catalog, notion: FairnessNotion) -> np.ndarray:
    """Each provider's size under the notion: item count (uf) or quality mass (qf)."""
    if notion is FairnessNotion.UNIFORM:
        return catalog.item_count
    return catalog.quality_mass


def list_contribution(rlist: RankedList, k: int, catalog: Catalog) -> np.ndarray:
    """Per-provider exposure contributed by the first ``k`` slots of a list."""
    _count("k", k, 1)
    items = _list_ids(rlist, k, catalog.n_items)
    # adds the weights in slot order, as np.add.at would, so bit for bit the same
    return np.bincount(
        catalog.provider_of[items], weights=_slot_weights(k), minlength=catalog.n_providers
    )


def _checked_budget(budget: float) -> float:
    # written so that NaN fails the range test too
    if not 0.0 <= budget < math.inf:
        raise ValueError(f"budget must be finite and >= 0, got {budget!r}")
    return float(budget)


@dataclass
class ExposureLedger:
    """Running exposure per provider against fair targets.

    A provider's fair target is the budget times its share of the catalog:
    its item count under uniform fairness, its quality mass under
    quality-weighted fairness, so a zero-mass provider's target is zero.
    A ledger has a single writer; apply/retract mutate it in place.
    """

    budget: float
    catalog: Catalog
    notion: FairnessNotion
    exposure: np.ndarray = field(init=False)
    shares: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.budget = _checked_budget(self.budget)
        sizes = _provider_sizes(self.catalog, self.notion)
        # every provider owns an item, so only quality mass can total zero;
        # finite masses can still sum past the largest float
        with np.errstate(over="ignore"):
            total = sizes.sum()
        if not 0 < total < math.inf:
            raise ValueError(
                f"quality-weighted targets need positive total quality mass, not {total}"
            )
        self.shares = sizes / total
        self.exposure = np.zeros(self.catalog.n_providers, dtype=np.float64)
        summed = self.target.sum()
        if abs(summed - self.budget) > 1e-9 * max(1.0, self.budget):
            raise LedgerError(f"fair targets sum to {summed}, expected {self.budget}")

    @property
    def target(self) -> np.ndarray:
        """Each provider's fair exposure under the current budget."""
        return self.budget * self.shares

    def set_budget(self, budget: float) -> None:
        """Rescale fair targets to a new exposure budget."""
        self.budget = _checked_budget(budget)

    def check_catalog(self, catalog: Catalog, owner: str = "ledger's") -> None:
        """Raise ``ValueError`` naming both sizes unless ``catalog`` is the ledger's."""
        if catalog is not (own := self.catalog):
            raise ValueError(
                f"catalog of {catalog.n_items} items and {catalog.n_providers} providers is "
                f"not the {owner} own ({own.n_items} items, {own.n_providers} providers)"
            )

    def apply(self, rlist: RankedList, k: int) -> None:
        """Credit the exposure of one list to its providers."""
        self.exposure += list_contribution(rlist, k, self.catalog)

    def retract(self, rlist: RankedList, k: int) -> None:
        """Withdraw a previously applied list, e.g. a provisional one."""
        self.exposure -= list_contribution(rlist, k, self.catalog)
        low = self.exposure.min()
        if low < -1e-9:
            raise LedgerError(
                f"retract drove provider {int(self.exposure.argmin())} exposure "
                f"to {low}; list was never applied"
            )
        # clip at 0; with no NaN in exposure, np.maximum gives the same bits
        np.maximum(self.exposure, 0.0, out=self.exposure)

    def snapshot_lines(self) -> list[str]:
        """Serialize as ``provider_id<TAB>e<TAB>e_fair`` lines."""
        target = self.target
        return [
            f"{p}\t{float(self.exposure[p])!r}\t{float(target[p])!r}"
            for p in range(self.catalog.n_providers)
        ]

