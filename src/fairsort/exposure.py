"""Position-bias exposure accounting and the per-provider ledger.

A slot at rank r carries weight 1/log2(r+1), so the exposure budget of a
run is fully determined by how many lists were emitted and how deep they
are.  The ledger tracks, per provider, exposure received so far against the
fair target implied by the active fairness notion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .catalog import Catalog, RankedList


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


def total_exposure(list_count: int, k: int) -> float:
    """Exposure budget of ``list_count`` lists of depth ``k``."""
    if list_count < 0:
        raise ValueError("list_count must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    return float(list_count * _slot_weights(k).sum())


def _provider_sizes(catalog: Catalog, notion: FairnessNotion) -> np.ndarray:
    """Each provider's size under the notion: item count (uf) or quality mass (qf)."""
    if notion is FairnessNotion.UNIFORM:
        return catalog.item_count
    return catalog.quality_mass


def _fair_shares(catalog: Catalog, notion: FairnessNotion) -> np.ndarray:
    """Each provider's fraction of any budget under the given notion."""
    sizes = _provider_sizes(catalog, notion)
    total = sizes.sum()
    # every provider owns an item, so only quality mass can total zero
    if total <= 0:
        raise ValueError("quality-weighted targets need positive total quality mass")
    return sizes / total


def fair_targets(budget: float, catalog: Catalog, notion: FairnessNotion) -> np.ndarray:
    """Split an exposure budget across providers under the given notion.

    Uniform fairness shares by item count; quality-weighted fairness shares
    by quality mass, with zero-mass providers receiving a zero target.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    return budget * _fair_shares(catalog, notion)


def list_contribution(rlist: RankedList, k: int, catalog: Catalog) -> np.ndarray:
    """Per-provider exposure contributed by the first ``k`` slots of a list."""
    if len(rlist) < k:
        raise ValueError(f"list has {len(rlist)} items, need {k}")
    items = np.asarray(rlist.items[:k], dtype=np.int64)
    # adds the weights in slot order, as np.add.at would, so bit for bit the same
    return np.bincount(
        catalog.provider_of[items], weights=_slot_weights(k), minlength=catalog.n_providers
    )


@dataclass
class ExposureLedger:
    """Running exposure totals per provider, with fair targets.

    A ledger has a single writer; apply/retract mutate it in place.
    """

    exposure: np.ndarray
    target: np.ndarray
    budget: float
    notion: FairnessNotion
    catalog: Catalog
    # fair_targets(budget) == budget * shares; kept so a new budget skips the split
    shares: np.ndarray = field(repr=False)

    @classmethod
    def create(cls, budget: float, catalog: Catalog, notion: FairnessNotion) -> "ExposureLedger":
        shares = _fair_shares(catalog, notion)
        target = fair_targets(budget, catalog, notion)
        total = target.sum()
        if abs(total - budget) > 1e-9 * max(1.0, abs(budget)):
            raise LedgerError(f"fair targets sum to {total}, expected {budget}")
        return cls(
            exposure=np.zeros(catalog.n_providers, dtype=np.float64),
            target=target,
            budget=float(budget),
            notion=notion,
            catalog=catalog,
            shares=shares,
        )

    def set_budget(self, budget: float) -> None:
        """Rescale fair targets to a new exposure budget."""
        if budget < 0:
            raise ValueError("budget must be >= 0")
        self.target = budget * self.shares
        self.budget = float(budget)

    def apply(self, rlist: RankedList, k: int) -> "ExposureLedger":
        """Credit the exposure of one list to its providers."""
        self.exposure += list_contribution(rlist, k, self.catalog)
        return self

    def retract(self, rlist: RankedList, k: int) -> "ExposureLedger":
        """Withdraw a previously applied list, e.g. a provisional one."""
        self.exposure -= list_contribution(rlist, k, self.catalog)
        low = self.exposure.min()
        if low < -1e-9:
            raise LedgerError(
                f"retract drove provider {int(self.exposure.argmin())} exposure "
                f"to {low}; list was never applied"
            )
        np.clip(self.exposure, 0.0, None, out=self.exposure)
        return self

    def snapshot_lines(self) -> list[str]:
        """Serialize as ``provider_id<TAB>e<TAB>e_fair`` lines."""
        return [
            f"{p}\t{float(self.exposure[p])!r}\t{float(self.target[p])!r}"
            for p in range(self.catalog.n_providers)
        ]

