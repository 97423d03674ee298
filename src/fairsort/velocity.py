"""Per-provider exposure error rates and the lift values derived from them.

The error rate of a provider is its exposure deficit (fair target minus
received exposure) normalized by size: item count under uniform fairness,
quality mass under quality-weighted fairness.  Positive means under-exposed.
Error rates are then rescaled within their sign group so that positive
lifts sum to +1 and negative lifts to -1; a lift is the score bonus an
item inherits from its provider during re-ranking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import Catalog
from .exposure import ExposureLedger, FairnessNotion


@dataclass(frozen=True)
class LiftAssignment:
    """Normalized lift per provider; see :func:`normalize_lifts`."""

    by_provider: np.ndarray

    def __post_init__(self) -> None:
        by_provider = np.asarray(self.by_provider, dtype=np.float64)
        # the partial-selection probe matches a full sort only on finite keys
        if not np.all(np.isfinite(by_provider)):
            raise ValueError("lifts must be finite")
        object.__setattr__(self, "by_provider", by_provider)


def err_rates(ledger: ExposureLedger, catalog: Catalog) -> np.ndarray:
    """Size-normalized exposure deficit per provider.

    Providers with zero quality mass are excluded under quality-weighted
    fairness (their target is zero, their error rate pinned to 0).  Every
    provider owns at least one item, so the uniform notion needs no guard.
    """
    deficit = ledger.target - ledger.exposure
    if ledger.notion is FairnessNotion.UNIFORM:
        return deficit / catalog.item_count
    denom = catalog.quality_mass
    safe = np.where(denom > 0, denom, 1.0)
    return np.where(denom > 0, deficit / safe, 0.0)


def normalize_lifts(err: np.ndarray) -> LiftAssignment:
    """Rescale error rates within each sign group.

    Each positive error is divided by the sum of all positive errors and
    each negative error by the absolute sum of all negative errors, so the
    positive lifts total +1 and the negative lifts total -1 whenever the
    group is non-empty.  Zero errors stay zero.
    """
    err = np.asarray(err, dtype=np.float64)
    lift = np.zeros_like(err)
    positive = err > 0
    group = err[positive]
    # an empty group assigns nothing, whatever its (zero) sum
    lift[positive] = group / group.sum()
    negative = err < 0
    group = err[negative]
    lift[negative] = group / -group.sum()
    return LiftAssignment(by_provider=lift)

