"""Fairness variance metrics, the UIR score, and the quality histogram."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsort import (
    Catalog,
    ExposureLedger,
    FairnessNotion,
    RunConfig,
    dcf,
    dpf,
    fairsort_offline,
    generate_synthetic,
    ndcg_histogram,
    uir,
)
from fairsort.metrics import _variance

UF = FairnessNotion.UNIFORM
QF = FairnessNotion.QUALITY_WEIGHTED


def ledger_with(exposure, item_count, masses):
    catalog = Catalog(
        provider_of=np.repeat(np.arange(len(item_count)), item_count),
        quality_mass=np.asarray(masses, dtype=float),
    )
    ledger = ExposureLedger(0.0, catalog, UF)
    ledger.exposure = np.asarray(exposure, dtype=float)
    return ledger, catalog


def test_dcf_two_point_example():
    assert dcf([0.9, 1.1]) == pytest.approx(0.01, abs=1e-12)


def test_dcf_constant_is_zero():
    assert dcf([0.7] * 10) == 0.0


def test_dcf_empty_rejected():
    with pytest.raises(ValueError):
        dcf([])


def test_dpf_uniform_example():
    ledger, catalog = ledger_with([1.0, 3.0], [1, 1], [1.0, 1.0])
    assert dpf(ledger, catalog, UF) == pytest.approx(1.0, abs=1e-12)


def test_dpf_normalizes_by_item_count():
    ledger, catalog = ledger_with([4.0, 3.0], [4, 1], [1.0, 1.0])
    # per-item exposure 1 vs 3 -> variance of {1, 3} = 1
    assert dpf(ledger, catalog, UF) == pytest.approx(1.0, abs=1e-12)


def test_dpf_quality_weighted_excludes_zero_mass():
    ledger, catalog = ledger_with([2.0, 1.0, 0.5], [1, 1, 1], [1.0, 0.5, 0.0])
    # ratios {2, 2}: the zero-mass provider drops out
    assert dpf(ledger, catalog, QF) == pytest.approx(0.0, abs=1e-12)


def test_dpf_no_valid_provider_rejected():
    ledger, catalog = ledger_with([1.0], [1], [0.0])
    with pytest.raises(ValueError):
        dpf(ledger, catalog, QF)


def test_dpf_rejects_a_catalog_not_the_ledgers():
    # same size, other quality masses: before the check this read 0.983
    # where the ledger's own catalog gives 0.0151
    matrix, catalog = generate_synthetic(20, 60, 6, 1.5, seed=3)
    _, foreign = generate_synthetic(20, 60, 6, 0.0, seed=3)
    _, ledger, _ = fairsort_offline(matrix, catalog, RunConfig(k=5, notion=UF, ratio=0.5))
    assert dpf(ledger, catalog, UF) == pytest.approx(0.0151, abs=5e-5)
    message = (
        r"catalog of 60 items and 6 providers is not the ledger's own "
        r"\(60 items, 6 providers\)"
    )
    with pytest.raises(ValueError, match=message):
        dpf(ledger, foreign, UF)


def test_uir_combines_calibrated_terms():
    assert uir(0.02, 0.5, mu1=0.02, mu2=0.5, avg_utility=1.0) == pytest.approx(2.0)
    assert uir(0.0, 0.5, mu1=0.04, mu2=0.5, avg_utility=1.0) == pytest.approx(1.0)
    assert uir(0.02, 0.5, mu1=0.02, mu2=0.5, avg_utility=0.8) == pytest.approx(2.5)


def test_uir_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        uir(0.1, 0.1, mu1=0.0, mu2=0.1, avg_utility=1.0)
    with pytest.raises(ValueError):
        uir(0.1, 0.1, mu1=0.1, mu2=-1.0, avg_utility=1.0)
    with pytest.raises(ValueError):
        uir(0.1, 0.1, mu1=0.1, mu2=0.1, avg_utility=0.0)


def test_histogram_bin_assignment():
    values = [0.3, 0.55, 0.72, 0.9, 1.0]
    assert ndcg_histogram(values) == (1, 1, 0, 1, 0, 0, 0, 1, 1)


def test_histogram_edges_open_their_bin():
    assert ndcg_histogram([0.5]) == (0, 1, 0, 0, 0, 0, 0, 0, 0)
    assert ndcg_histogram([0.95]) == (0, 0, 0, 0, 0, 0, 0, 0, 1)
    assert ndcg_histogram([0.8499999]) == (0, 0, 0, 0, 0, 1, 0, 0, 0)
    assert ndcg_histogram([0.85]) == (0, 0, 0, 0, 0, 0, 1, 0, 0)


def test_histogram_rejects_out_of_range():
    with pytest.raises(ValueError):
        ndcg_histogram([1.2])
    with pytest.raises(ValueError):
        ndcg_histogram([-0.1])
    with pytest.raises(ValueError):
        ndcg_histogram([0.5, float("nan")])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=0, max_size=200))
def test_histogram_counts_everything_once(values):
    assert sum(ndcg_histogram(values)) == len(values)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.floats(-1, 1), min_size=1, max_size=300),
    st.sampled_from([5e-324, 1e-300, 1e-10, 1.0, 1e10, 1e300]),
    st.booleans(),
)
def test_variance_is_numpys_bit_for_bit(values, scale, two_decimal):
    values = np.array(values)
    if two_decimal:
        # like a sparse rating row: ties, and many exact zeros
        values = np.round(values, 2) * (np.abs(values) < 0.3)
    values = values * scale
    # the two warn about an overflow in different words
    with np.errstate(over="ignore", invalid="ignore"):
        ours, numpys = np.float64(_variance(values)), np.var(values)
    assert ours.tobytes() == numpys.tobytes() or (np.isnan(ours) and np.isnan(numpys))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=100))
def test_dcf_matches_numpy_variance(values):
    assert dcf(values) == pytest.approx(float(np.var(values)), rel=1e-12, abs=1e-15)
