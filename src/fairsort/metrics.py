"""Run-level fairness and quality metrics.

DCF is the population variance of per-user NDCG (consumer side), DPF the
population variance of size-normalized provider exposure (provider side),
and UIR folds both into a single score calibrated against reference runs:
the min-exposure model's DCF and the top-K model's DPF on the same setup.
Lower is better for all three; top-K scores UIR 1 by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .catalog import Catalog
from .exposure import ExposureLedger, FairnessNotion

_BIN_EDGES = np.array([0.0, 0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0])


def dcf(ndcgs: Sequence[float]) -> float:
    """Population variance of per-user quality."""
    values = np.asarray(ndcgs, dtype=np.float64)
    if values.size == 0:
        raise ValueError("dcf needs at least one value")
    return float(np.var(values))


def dpf(ledger: ExposureLedger, catalog: Catalog, notion: FairnessNotion) -> float:
    """Population variance of per-provider exposure, size-normalized.

    Uniform fairness normalizes by item count; quality-weighted fairness by
    quality mass, skipping providers whose mass is zero.
    """
    if notion is FairnessNotion.UNIFORM:
        denom = catalog.item_count.astype(np.float64)
    else:
        denom = catalog.quality_mass
    valid = denom > 0
    if not valid.any():
        raise ValueError("no provider has a positive denominator")
    return float(np.var(ledger.exposure[valid] / denom[valid]))


def uir(
    dcf_val: float,
    dpf_val: float,
    mu1: float,
    mu2: float,
    avg_utility: float,
    w1: float = 1.0,
    w2: float = 1.0,
) -> float:
    """Calibrated fairness-per-utility score; lower is better."""
    if mu1 <= 0 or mu2 <= 0:
        raise ValueError("calibration constants must be positive")
    if avg_utility <= 0:
        raise ValueError("average utility must be positive")
    return (w1 * dcf_val / mu1 + w2 * dpf_val / mu2) / avg_utility


def ndcg_histogram(ndcgs: Sequence[float]) -> tuple[int, ...]:
    """Counts over nine quality bins.

    Edges are 0, .5, .6, .7, .75, .8, .85, .9, .95, 1; every edge belongs to
    the bin it opens and the last bin is closed at 1.
    """
    values = np.asarray(ndcgs, dtype=np.float64)
    if values.size and (values.min() < 0 or values.max() > 1):
        raise ValueError("ndcg values must lie in [0, 1]")
    slots = np.digitize(values, _BIN_EDGES[1:-1])
    counts = np.bincount(slots, minlength=9)
    return tuple(int(c) for c in counts)


@dataclass(frozen=True)
class MetricsReport:
    """One run's summary metrics; UIR is calibrated when the report is written."""

    dcf: float
    dpf_uf: float
    dpf_qf: float
    total_quality: float
    avg_quality: float
    histogram: tuple[int, ...]

    def dpf(self, notion: FairnessNotion) -> float:
        """Provider deviation under the given fairness notion."""
        return self.dpf_uf if notion is FairnessNotion.UNIFORM else self.dpf_qf
