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

from oracle import exact_lifts, gathered_lifts

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


def assert_rates_match_the_masked_division(ledger, sizes):
    """Rates keep the masked division's bits wherever it carries them exactly,
    and every lift is exact."""
    deficit = ledger.target - ledger.exposure
    with np.errstate(over="ignore"):
        masked = np.divide(deficit, sizes, out=np.zeros_like(deficit), where=sizes > 0)
    rates = err_rates(ledger)
    assert rates.dtype == masked.dtype and np.all(np.isfinite(rates))
    for group in (masked > 0, masked < 0):
        # no rate overflows or falls below the normal floats, nor does the sum
        if np.all(abs(masked[group]) >= 2.0**-1022) and np.isfinite(masked[group].sum()):
            assert rates[group].tobytes() == masked[group].tobytes()
    lifts = normalize_lifts(rates).by_provider
    exact = exact_lifts(deficit.tolist(), sizes.tolist())
    assert np.allclose(lifts, [float(x) for x in exact], rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=6),
    st.floats(0.0, 1e6),
    st.data(),
)
def test_err_rates_uniform_equals_the_masked_division(item_count, budget, data):
    # every item count is at least 1, so the plain division is taken
    catalog = catalog_with_masses(item_count, [1.0] * len(item_count))
    ledger = ExposureLedger(budget, catalog, UF)
    ledger.exposure = np.array(data.draw(st.lists(
        st.floats(0.0, 2e6), min_size=len(item_count), max_size=len(item_count))))
    assert_rates_match_the_masked_division(ledger, catalog.item_count)


# some quality masses below 1, one of them zero: the masked division's path
QF_MASSES = st.sampled_from([0.0, 5e-324, 1e-300, 0.25, 0.5, 1.0, 3.0, 1e300])


@settings(max_examples=200, deadline=None)
@given(st.lists(QF_MASSES, min_size=1, max_size=6), st.floats(0.0, 1e6), st.data())
def test_err_rates_equal_the_masked_division_wherever_it_is_finite(masses, budget, data):
    if sum(masses) == 0:
        masses[0] = 1.0
    catalog = catalog_with_masses([1] * len(masses), masses)
    ledger = ExposureLedger(budget, catalog, QF)
    ledger.exposure = np.array(data.draw(st.lists(
        st.floats(0.0, 2e6), min_size=len(masses), max_size=len(masses))))
    assert_rates_match_the_masked_division(ledger, catalog.quality_mass)


def test_underflowing_rates_give_the_exact_lifts():
    # a tiny deficit over a huge mass: the plain rate rounds to 0, the exact lift is 1
    catalog = catalog_with_masses([1], [1e300])
    ledger = ExposureLedger(7.0239349578664385e-245, catalog, QF)
    assert normalize_lifts(err_rates(ledger)).by_provider.tolist() == [1.0]


@pytest.mark.parametrize("deficit_to, masses, lifts", [
    # the subnormal provider is over-exposed: one shared rescale would
    # underflow provider 1's boost away and read [-1, 0, 0]
    ([-1.0, 2.0, -1.0], [5e-324, 10.0, 20.0], [-1.0, 1.0, 0.0]),
    # the subnormal provider is under-exposed, the others over-exposed
    ([1.0, -2.0, 1.0], [5e-324, 10.0, 20.0], [1.0, -1.0, 0.0]),
])
def test_overflowing_rates_give_the_exact_lifts(deficit_to, masses, lifts):
    catalog = catalog_with_masses([1, 1, 1], masses)
    ledger = ExposureLedger(30.0, catalog, QF)
    ledger.exposure = ledger.target - np.array(deficit_to)
    deficit = ledger.target - ledger.exposure
    got = normalize_lifts(err_rates(ledger)).by_provider
    exact = exact_lifts(deficit.tolist(), masses)
    assert np.allclose(got, [float(x) for x in exact], rtol=0, atol=1e-12)
    assert np.allclose(got, lifts, rtol=0, atol=1e-12)


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


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-1, 1), min_size=1, max_size=60),
    st.sampled_from([5e-324, 1e-300, 1e-10, 1.0, 1e10, 1e300, 1.7e308]),
)
def test_normalize_lifts_keep_the_gathered_formulas_bits(errors, scale):
    err = np.array(errors) * scale
    with np.errstate(over="ignore"):
        sums = [err[err > 0].sum(), err[err < 0].sum()]
        if not np.all(np.isfinite(sums)):
            with pytest.raises(ValueError, match="lifts must be finite"):
                normalize_lifts(err)
            return
    assert normalize_lifts(err).by_provider.tobytes() == gathered_lifts(err).tobytes()


@pytest.mark.parametrize("err", [
    [np.inf, 1.0, -1.0],
    [1.0, -np.inf],
    # each error is finite, but the group's sum is not
    [1e308, 1e308, -1.0],
])
def test_normalize_lifts_rejects_a_group_that_sums_to_inf(err):
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="lifts must be finite"):
        normalize_lifts(np.array(err))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lift_assignment_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        LiftAssignment(np.array([bad, 1.0]))
