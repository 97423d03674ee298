"""Exposure error rates and sign-group lift normalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsort import (
    Catalog,
    ExposureLedger,
    FairnessNotion,
    LiftAssignment,
    PreferenceMatrix,
    err_rates,
    normalize_lifts,
)

UF = FairnessNotion.UNIFORM
QF = FairnessNotion.QUALITY_WEIGHTED


def catalog_with_masses(item_count, masses):
    provider_of = np.repeat(np.arange(len(item_count)), item_count)
    return Catalog(provider_of=provider_of, quality_mass=np.asarray(masses, dtype=float))


def test_err_rates_uniform_normalizes_by_item_count():
    catalog = catalog_with_masses([2, 1], [1.0, 1.0])
    # targets 3.0 * [2/3, 1/3] = [2.0, 1.0]
    ledger = ExposureLedger(3.0, catalog, UF)
    ledger.exposure = np.array([3.0, 0.5])
    rates = err_rates(ledger)
    assert rates[0] == pytest.approx(-0.5, abs=1e-12)
    assert rates[1] == pytest.approx(0.5, abs=1e-12)


def test_err_rates_quality_weighted_normalizes_by_mass():
    catalog = catalog_with_masses([1, 1], [0.5, 2.0])
    # targets 5.0 * [0.2, 0.8] = [1.0, 4.0]
    ledger = ExposureLedger(5.0, catalog, QF)
    ledger.exposure = np.array([2.0, 4.0])
    rates = err_rates(ledger)
    assert rates[0] == pytest.approx(-2.0, abs=1e-12)
    assert rates[1] == 0.0


def test_err_rates_zero_mass_provider_is_pinned_to_zero():
    catalog = catalog_with_masses([1, 1], [1.0, 0.0])
    ledger = ExposureLedger(3.0, catalog, QF)
    ledger.exposure = np.array([0.0, 5.0])
    rates = err_rates(ledger)
    assert rates[1] == 0.0
    assert rates[0] > 0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=6),
    st.floats(0.0, 1e6),
    st.data(),
)
def test_err_rates_uniform_equals_the_masked_division(item_count, budget, data):
    # every item count is at least 1, so the plain division gives the same bits
    catalog = catalog_with_masses(item_count, [1.0] * len(item_count))
    ledger = ExposureLedger(budget, catalog, UF)
    ledger.exposure = np.array(data.draw(st.lists(
        st.floats(0.0, 2e6), min_size=len(item_count), max_size=len(item_count))))
    deficit = ledger.target - ledger.exposure
    sizes = catalog.item_count
    masked = np.divide(deficit, sizes, out=np.zeros_like(deficit), where=sizes > 0)
    rates = err_rates(ledger)
    assert rates.dtype == masked.dtype
    assert rates.tobytes() == masked.tobytes()


def test_normalize_lifts_two_sided_example():
    lifts = normalize_lifts(np.array([0.3, -0.3])).by_provider
    assert lifts.tolist() == pytest.approx([1.0, -1.0], abs=1e-12)


def test_normalize_lifts_unbalanced_groups():
    lifts = normalize_lifts(np.array([0.2, 0.2, -0.1])).by_provider
    assert lifts.tolist() == pytest.approx([0.5, 0.5, -1.0], abs=1e-12)


def test_normalize_lifts_all_zero_stays_zero():
    lifts = normalize_lifts(np.zeros(4)).by_provider
    assert lifts.tolist() == [0.0, 0.0, 0.0, 0.0]


def test_normalize_lifts_single_sign_group():
    lifts = normalize_lifts(np.array([0.1, 0.3])).by_provider
    assert lifts.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(lifts > 0)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        # subnormal inputs can underflow to -0.0 when divided by the group
        # sum, which would void the sign comparison below
        st.floats(-10, 10, allow_nan=False, allow_infinity=False, allow_subnormal=False),
        min_size=1,
        max_size=12,
    )
)
def test_normalize_lifts_sign_groups_sum_to_unit(errors):
    err = np.array(errors)
    lifts = normalize_lifts(err).by_provider
    assert np.array_equal(np.sign(lifts), np.sign(err))
    positive = lifts[lifts > 0]
    negative = lifts[lifts < 0]
    if positive.size:
        assert positive.sum() == pytest.approx(1.0, abs=1e-9)
    if negative.size:
        assert negative.sum() == pytest.approx(-1.0, abs=1e-9)
    assert np.all(lifts[err == 0] == 0.0)


def test_balanced_ledger_produces_zero_lifts():
    matrix = PreferenceMatrix(np.ones((2, 4)))
    catalog = Catalog.build(np.array([0, 0, 1, 1]), matrix)
    ledger = ExposureLedger(4.0, catalog, UF)
    ledger.exposure = ledger.target.copy()
    lifts = normalize_lifts(err_rates(ledger))
    assert np.all(lifts.by_provider == 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lift_assignment_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        LiftAssignment(np.array([bad, 1.0]))
