"""Run-level fairness and quality metrics.

DCF is the population variance of per-user NDCG (consumer side), DPF the
population variance of size-normalized provider exposure (provider side),
and UIR folds both into a single score calibrated against reference runs:
the min-exposure model's DCF and the top-K model's DPF on the same setup.
Lower is better for all three; top-K scores UIR 1 by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .catalog import Catalog
from .exposure import ExposureLedger, FairnessNotion, _provider_sizes

_BIN_EDGES = np.array([0.0, 0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0])


def _variance(values: np.ndarray) -> float:
    """Population variance of a non-empty float64 array, bit for bit ``np.var``'s.

    The same float64 steps without its dispatch: the mean as the pairwise
    sum over ``n``, each deviation squared, their pairwise sum over ``n``.
    """
    n = values.size
    deviation = values - values.sum() / n
    return float((deviation * deviation).sum() / n)


def dcf(ndcgs: Sequence[float]) -> float:
    """Population variance of per-user quality."""
    values = np.asarray(ndcgs, dtype=np.float64)
    if values.size == 0:
        raise ValueError("dcf needs at least one value")
    return _variance(values)


def _dpf_rule(catalog: Catalog, notion: FairnessNotion) -> Callable[[np.ndarray], float]:
    """DPF as a function of a ledger's exposure array on ``catalog``.

    The rule under :func:`dpf` and the online time series: the providers
    kept and their denominators are taken once, when the rule is made.
    """
    sizes = _provider_sizes(catalog, notion)
    valid = sizes > 0
    if not valid.any():
        raise ValueError("no provider has a positive denominator")
    denominators = sizes[valid]
    return lambda exposure: _variance(exposure[valid] / denominators)


def dpf(ledger: ExposureLedger, catalog: Catalog, notion: FairnessNotion) -> float:
    """Population variance of per-provider exposure, size-normalized.

    Uniform fairness normalizes by item count; quality-weighted fairness by
    quality mass, skipping providers whose mass is zero.  ``catalog`` must
    be the ledger's own object.
    """
    ledger.check_catalog(catalog)
    return _dpf_rule(catalog, notion)(ledger.exposure)


def uir(
    dcf_val: float,
    dpf_val: float,
    mu1: float,
    mu2: float,
    avg_utility: float,
) -> float:
    """Calibrated fairness-per-utility score; lower is better."""
    # written so that NaN fails too
    if not mu1 > 0 or not mu2 > 0:
        raise ValueError("calibration constants must be positive")
    if not avg_utility > 0:
        raise ValueError("average utility must be positive")
    return (dcf_val / mu1 + dpf_val / mu2) / avg_utility


def ndcg_histogram(ndcgs: Sequence[float]) -> tuple[int, ...]:
    """Counts over nine quality bins.

    Edges are 0, .5, .6, .7, .75, .8, .85, .9, .95, 1; every edge belongs to
    the bin it opens and the last bin is closed at 1.
    """
    values = np.asarray(ndcgs, dtype=np.float64)
    # written so that NaN fails the range test too
    if not np.all((values >= 0) & (values <= 1)):
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
