"""Position weights, exposure budgets, fair targets, and ledger bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsort import (
    Catalog,
    ExposureLedger,
    FairnessNotion,
    LedgerError,
    PreferenceMatrix,
    RankedList,
    fair_targets,
    list_contribution,
    total_exposure,
)

UF = FairnessNotion.UNIFORM
QF = FairnessNotion.QUALITY_WEIGHTED


def small_catalog():
    matrix = PreferenceMatrix(np.array([[1.0, 0.5, 0.25, 0.0]]))
    provider_of = np.array([0, 0, 1, 2])
    return matrix, Catalog.build(provider_of, matrix)


def test_total_exposure_two_lists_depth_three():
    assert total_exposure(2, 3) == pytest.approx(4.261860, abs=1e-6)


def test_total_exposure_scales_with_list_count():
    one = total_exposure(1, 5)
    assert total_exposure(7, 5) == pytest.approx(7 * one, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 500), st.integers(0, 500), st.integers(1, 50))
def test_total_exposure_additive_in_list_count(a, b, k):
    combined = total_exposure(a + b, k)
    assert combined == pytest.approx(total_exposure(a, k) + total_exposure(b, k), rel=1e-9)


def test_fair_targets_uniform_shares_by_item_count():
    matrix = PreferenceMatrix(np.array([[1.0, 1.0, 1.0, 1.0]]))
    catalog = Catalog.build(np.array([0, 1, 1, 1]), matrix)
    targets = fair_targets(4.0, catalog, UF)
    assert targets.tolist() == pytest.approx([1.0, 3.0], abs=1e-12)


def test_fair_targets_quality_weighted_shares_by_mass():
    matrix = PreferenceMatrix(np.array([[2.0, 1.0]]))
    catalog = Catalog.build(np.array([0, 1]), matrix)
    targets = fair_targets(6.0, catalog, QF)
    assert targets.tolist() == pytest.approx([4.0, 2.0], abs=1e-12)


def test_fair_targets_zero_mass_provider_gets_zero():
    matrix = PreferenceMatrix(np.array([[2.0, 0.0]]))
    catalog = Catalog.build(np.array([0, 1]), matrix)
    targets = fair_targets(5.0, catalog, QF)
    assert targets[1] == 0.0
    assert targets.sum() == pytest.approx(5.0, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([UF, QF]))
def test_fair_targets_sum_to_budget(seed, notion):
    rng = np.random.default_rng(seed)
    n_providers = int(rng.integers(1, 9))
    n_items = int(rng.integers(n_providers, 30))
    provider_of = np.sort(
        np.concatenate([np.arange(n_providers), rng.integers(0, n_providers, n_items - n_providers)])
    )
    matrix = PreferenceMatrix(rng.random((3, n_items)))
    catalog = Catalog.build(provider_of, matrix)
    budget = float(rng.random() * 100)
    assert fair_targets(budget, catalog, notion).sum() == pytest.approx(budget, rel=1e-9, abs=1e-9)


def test_list_contribution_same_provider_accumulates():
    _, catalog = small_catalog()
    contribution = list_contribution(RankedList(0, (0, 1)), 2, catalog)
    assert contribution[0] == pytest.approx(1.63093, abs=1e-5)
    assert contribution[1] == 0.0 and contribution[2] == 0.0


def test_list_contribution_distinct_providers():
    _, catalog = small_catalog()
    contribution = list_contribution(RankedList(0, (0, 2, 3)), 3, catalog)
    assert contribution.tolist() == pytest.approx(
        [1.0, 1.0 / math.log2(3), 0.5], abs=1e-12
    )


def test_list_contribution_ignores_items_beyond_k():
    _, catalog = small_catalog()
    contribution = list_contribution(RankedList(0, (3, 2, 0)), 1, catalog)
    assert contribution.tolist() == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)


def test_list_contribution_rejects_short_list():
    _, catalog = small_catalog()
    with pytest.raises(ValueError):
        list_contribution(RankedList(0, (0,)), 2, catalog)


def test_ledger_apply_then_retract_restores():
    _, catalog = small_catalog()
    ledger = ExposureLedger.create(10.0, catalog, UF)
    ledger.apply(RankedList(0, (0, 2)), 2)
    before = ledger.exposure.copy()
    extra = RankedList(0, (1, 3))
    ledger.apply(extra, 2)
    ledger.retract(extra, 2)
    assert np.max(np.abs(ledger.exposure - before)) < 1e-12


def test_ledger_retract_unapplied_list_raises():
    _, catalog = small_catalog()
    ledger = ExposureLedger.create(10.0, catalog, UF)
    with pytest.raises(LedgerError):
        ledger.retract(RankedList(0, (0, 2)), 2)


def test_ledger_targets_sum_to_budget_both_notions():
    _, catalog = small_catalog()
    for notion in (UF, QF):
        ledger = ExposureLedger.create(12.5, catalog, notion)
        assert ledger.target.sum() == pytest.approx(12.5, rel=1e-9)


def test_ledger_set_budget_rescales_targets():
    _, catalog = small_catalog()
    ledger = ExposureLedger.create(4.0, catalog, UF)
    ledger.set_budget(8.0)
    assert ledger.budget == 8.0
    assert ledger.target.sum() == pytest.approx(8.0, rel=1e-12)


def test_ledger_snapshot_format():
    _, catalog = small_catalog()
    ledger = ExposureLedger.create(4.0, catalog, UF)
    ledger.apply(RankedList(0, (0, 2)), 2)
    lines = ledger.snapshot_lines()
    assert len(lines) == catalog.n_providers
    for provider, line in enumerate(lines):
        fields = line.split("\t")
        assert int(fields[0]) == provider
        float(fields[1]), float(fields[2])  # parse both columns
    assert float(lines[0].split("\t")[1]) == pytest.approx(1.0)
