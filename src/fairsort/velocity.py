"""Per-provider exposure error rates and the lift values derived from them.

The error rate of a provider is its exposure deficit (fair target minus
received exposure) normalized by size: item count under uniform fairness,
quality mass under quality-weighted fairness.  Positive means under-exposed.
Error rates are then rescaled within their sign group so that positive
lifts sum to +1 and negative lifts to -1; a lift is the score bonus an
item inherits from its provider during re-ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exposure import ExposureLedger, FairnessNotion, _provider_sizes

# the smallest normal float64: a rate below it has lost digits
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class LiftAssignment:
    """Normalized lift per provider; see :func:`normalize_lifts`."""

    by_provider: np.ndarray

    def __post_init__(self) -> None:
        by_provider = np.asarray(self.by_provider, dtype=np.float64)
        if by_provider.ndim != 1:
            raise ValueError(
                f"lifts must be one value per provider, got shape {by_provider.shape}"
            )
        # the partial-selection probe matches a full sort only on finite keys
        if not np.all(np.isfinite(by_provider)):
            raise ValueError("lifts must be finite")
        object.__setattr__(self, "by_provider", by_provider)

    @classmethod
    def _trusted(cls, by_provider: np.ndarray) -> "LiftAssignment":
        """Lifts :func:`normalize_lifts` computed, which are not re-checked.

        ``by_provider`` must already be a float64 array of finite values.
        """
        lifts = object.__new__(cls)
        object.__setattr__(lifts, "by_provider", by_provider)
        return lifts


def err_rates(ledger: ExposureLedger) -> np.ndarray:
    """Exposure deficit per provider, divided by the provider's size.

    The size is the ledger notion's, on the ledger's catalog: item count
    under uniform fairness, quality mass under quality-weighted fairness.  A
    provider of zero size, which only a zero quality mass can give, has a
    zero target and an error rate pinned to 0.  Only a size below 1 can
    make a finite deficit's rate overflow, and only a tiny deficit over a
    huge size can make it fall below the normal floats, to 0 at worst.
    Where a sign group's rates sum to either, that group alone is scaled by
    a power of two, a common factor that :func:`normalize_lifts` cancels.
    """
    sizes = _provider_sizes(ledger.catalog, ledger.notion)
    deficit = ledger.target - ledger.exposure
    # every provider owns an item, so only a quality mass can be below 1
    if ledger.notion is FairnessNotion.UNIFORM or sizes.min() >= 1.0:
        # no size is 0, and none is small enough for a finite deficit to overflow
        err = deficit / sizes
        if abs(err).min() >= _TINY:
            return err
    with np.errstate(over="ignore"):
        err = np.divide(deficit, sizes, out=np.zeros_like(deficit), where=sizes > 0)
        for group in ((deficit > 0) & (sizes > 0), (deficit < 0) & (sizes > 0)):
            if group.any() and not _TINY <= abs(err[group].sum()) < math.inf:
                err[group] = _scaled_rates(deficit[group], sizes[group])
    return err


def _scaled_rates(deficit: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``deficit / sizes`` scaled by one power of two, each quotient below 2 in size.

    With ``d = md * 2**ed`` and ``s = ms * 2**es`` (mantissas in [0.5, 1)),
    ``d / s = (md / ms) * 2**(ed - es)``; the mantissa quotient is rounded as
    the full one would be, and only the exponents are shifted.
    """
    md, ed = np.frexp(deficit)
    ms, es = np.frexp(sizes)
    shift = ed - es
    return np.ldexp(md / ms, shift - shift.max())


def normalize_lifts(err: np.ndarray) -> LiftAssignment:
    """Rescale error rates within each sign group.

    Each positive error is divided by the sum of all positive errors and
    each negative error by the absolute sum of all negative errors, so the
    positive lifts total +1 and the negative lifts total -1 whenever the
    group is non-empty.  Zero errors stay zero.  A group whose sum is not
    finite raises ``ValueError``.
    """
    err = np.asarray(err, dtype=np.float64)
    lift = np.zeros_like(err)
    positive = err > 0
    above = err[positive]
    above_sum = above.sum()
    negative = err < 0
    below = err[negative]
    below_sum = -below.sum()
    # each error is at most its group's sum in size, so finite sums give
    # finite lifts in [-1, 1]
    if not (math.isfinite(above_sum) and math.isfinite(below_sum)):
        raise ValueError("lifts must be finite, and a sign group's errors sum to inf")
    # an empty group assigns nothing, whatever its (zero) sum
    lift[positive] = above / above_sum
    lift[negative] = below / below_sum
    return LiftAssignment._trusted(lift)
