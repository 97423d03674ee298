"""Bad input each public entry point rejects, one case per rejection, matched by message."""

import re

import numpy as np
import pytest

from fairsort import (
    Catalog,
    ExposureLedger,
    FairnessNotion,
    LiftAssignment,
    PreferenceMatrix,
    RankedList,
    candidate_pool,
    generate_synthetic,
    list_contribution,
    load_dataset,
    min_exposure,
    original_ranking,
    rerank_with_lambda,
    total_exposure,
    uir,
)
from fairsort.harness import ExperimentSpec, run_cell_offline

SMALL, SMALL_CATALOG = generate_synthetic(2, 6, 2, 1.0, seed=0)


def files(tmp_path, matrix_text, provider_text):
    matrix, providers = tmp_path / "matrix.tsv", tmp_path / "providers.tsv"
    matrix.write_text(matrix_text)
    providers.write_text(provider_text)
    return matrix, providers


REJECTIONS = {
    "matrix-1d": (lambda tmp: PreferenceMatrix(np.ones(3)),
                  "preference matrix must be 2-d and non-empty"),
    "catalog-no-items": (lambda tmp: Catalog(np.array([], dtype=np.int64), np.ones(1)),
                         "provider_of must be a non-empty 1-d array"),
    "catalog-no-providers": (lambda tmp: Catalog(np.array([0]), np.array([])),
                             "catalog needs at least one provider"),
    "catalog-provider-past-last": (lambda tmp: Catalog(np.array([0, 2]), np.ones(2)),
                                   "provider ids out of range"),
    "catalog-build-other-size": (
        lambda tmp: Catalog.build(np.array([0, 1, 0]), PreferenceMatrix(np.ones((2, 4)))),
        "provider map has 3 items but the preference matrix has 4"),
    "catalog-build-2d-map": (
        lambda tmp: Catalog.build(np.array([[0, 1], [0, 1]]), PreferenceMatrix(np.ones((2, 4)))),
        "provider_of must be a non-empty 1-d array"),
    "catalog-build-float-map": (
        lambda tmp: Catalog.build(np.array([0.0, 1.0, 1.0]), PreferenceMatrix(np.ones((2, 3)))),
        "provider ids must be integers, got dtype float64"),
    "catalog-build-negative-id": (
        lambda tmp: Catalog.build(np.array([0, -1, 1]), PreferenceMatrix(np.ones((2, 3)))),
        "provider ids out of range"),
    "catalog-build-gap": (
        lambda tmp: Catalog.build(np.array([0, 0, 2, 2]), PreferenceMatrix(np.ones((2, 4)))),
        "provider ids out of range"),
    "load-empty-provider-map": (
        lambda tmp: load_dataset(*files(tmp, "0\t0\t1\n", "")),
        "providers.tsv: provider map is empty"),
    "load-provider-gap": (
        lambda tmp: load_dataset(*files(tmp, "0\t0\t1\n", "0\t0\n1\t2\n")),
        "providers.tsv: provider ids must be 0-based contiguous"),
    "load-score-not-a-number": (
        lambda tmp: load_dataset(*files(tmp, "0\t0\t1\n0\t1\tabc\n", "0\t0\n1\t0\n")),
        "matrix.tsv:2: malformed row, score is not a number: 'abc'"),
    "synthetic-no-users": (lambda tmp: generate_synthetic(0, 4, 2, 1.0, seed=0),
                           "n_users must be >= 1, got 0"),
    "synthetic-fractional-users": (lambda tmp: generate_synthetic(2.5, 4, 2, 1.0, seed=0),
                                   "n_users must be an integer, got 2.5"),
    "synthetic-bool-items": (lambda tmp: generate_synthetic(2, True, 1, 1.0, seed=0),
                             "n_items must be an integer, got True"),
    "synthetic-fractional-providers": (lambda tmp: generate_synthetic(3, 6, 2.5, 1.0, seed=0),
                                       "n_providers must be an integer, got 2.5"),
    "synthetic-bool-providers": (lambda tmp: generate_synthetic(3, 6, True, 1.0, seed=0),
                                 "n_providers must be an integer, got True"),
    "notion": (lambda tmp: FairnessNotion.parse("xx"),
               "unknown fairness notion 'xx', expected uf or qf"),
    "exposure-negative-count": (lambda tmp: total_exposure(-1, 3), "list_count must be >= 0"),
    "exposure-zero-depth": (lambda tmp: total_exposure(1, 0), "k must be >= 1"),
    "exposure-fractional-count": (lambda tmp: total_exposure(2.5, 3),
                                  "list_count must be an integer, got 2.5"),
    "exposure-fractional-depth": (lambda tmp: total_exposure(1, 2.5),
                                  "k must be an integer, got 2.5"),
    "exposure-bool-depth": (lambda tmp: total_exposure(1, True), "k must be an integer, got True"),
    "contribution-bool-depth": (
        lambda tmp: list_contribution(RankedList(0, (0, 1, 2)), True, SMALL_CATALOG),
        "k must be an integer, got True"),
    "ledger-fractional-depth": (
        lambda tmp: ExposureLedger(1.0, SMALL_CATALOG, FairnessNotion.UNIFORM).apply(
            list_contribution(RankedList(0, (0, 1, 2)), 2.5, SMALL_CATALOG)),
        "k must be an integer, got 2.5"),
    "ledger-apply-scalar": (
        lambda tmp: ExposureLedger(1.0, SMALL_CATALOG, FairnessNotion.UNIFORM).apply(
            np.float64(1.0)),
        "contribution has shape (), but the ledger's exposure has shape (2,)"),
    "ledger-apply-one-element": (
        lambda tmp: ExposureLedger(1.0, SMALL_CATALOG, FairnessNotion.UNIFORM).apply(np.ones(1)),
        "contribution has shape (1,), but the ledger's exposure has shape (2,)"),
    "ledger-apply-column": (
        lambda tmp: ExposureLedger(1.0, SMALL_CATALOG, FairnessNotion.UNIFORM).apply(
            np.ones((2, 1))),
        "contribution has shape (2, 1), but the ledger's exposure has shape (2,)"),
    "ledger-retract-long": (
        lambda tmp: ExposureLedger(1.0, SMALL_CATALOG, FairnessNotion.UNIFORM).retract(
            np.zeros(3)),
        "contribution has shape (3,), but the ledger's exposure has shape (2,)"),
    "ledger-retract-one-element": (
        lambda tmp: ExposureLedger(1.0, SMALL_CATALOG, FairnessNotion.UNIFORM).retract(
            np.zeros(1)),
        "contribution has shape (1,), but the ledger's exposure has shape (2,)"),
    "ranking-float-user": (lambda tmp: original_ranking(SMALL, 1.0, 3),
                           "user must be an integer, got 1.0"),
    "ranking-bool-user": (lambda tmp: original_ranking(SMALL, True, 3),
                          "user must be an integer, got True"),
    "ranking-bool-depth": (lambda tmp: original_ranking(SMALL, 0, True),
                           "depth must be an integer, got True"),
    "min-exposure-bool-user": (lambda tmp: min_exposure(SMALL, True, 3, np.zeros(6)),
                               "user must be an integer, got True"),
    "spec-dataset": (lambda tmp: ExperimentSpec(dataset="x"),
                     "dataset must be 'synthetic' or 'files'"),
    "spec-fractional-rounds": (lambda tmp: ExperimentSpec(rounds=2.5, scenario="online"),
                               "rounds must be an integer, got 2.5"),
    "spec-bool-rounds": (lambda tmp: ExperimentSpec(rounds=True, scenario="online"),
                         "rounds must be an integer, got True"),
    "spec-fractional-seed": (lambda tmp: ExperimentSpec(seed=1.5),
                             "seed must be an integer, got 1.5"),
    "spec-fractional-users": (lambda tmp: ExperimentSpec(users=2.5),
                              "users must be an integer, got 2.5"),
    "spec-no-providers": (lambda tmp: ExperimentSpec(providers=0),
                          "providers must be >= 1, got 0"),
    "spec-bool-items": (lambda tmp: ExperimentSpec(items=True),
                        "items must be an integer, got True"),
    "cell-unknown-model": (
        lambda tmp: run_cell_offline(ExperimentSpec(), "bogus", 2, SMALL, SMALL_CATALOG),
        "unknown model 'bogus'"),
    "pool-ratio": (lambda tmp: candidate_pool(RankedList(0, (0, 1, 2)), 1.5),
                   "ratio must be in (0, 1]"),
    "pool-past-catalog": (
        lambda tmp: candidate_pool(RankedList(0, (0, 1, 2)), 1.0, 2, n_items=2),
        "n_items must be >= 3, got 2"),
    "pool-fractional-catalog": (
        lambda tmp: candidate_pool(RankedList(0, (0, 1, 2)), 1.0, 2, n_items=4.0),
        "n_items must be an integer, got 4.0"),
    "uir-nan-calibration": (lambda tmp: uir(1.0, 1.0, float("nan"), 1.0, 1.0),
                            "calibration constants must be positive"),
    "uir-nan-utility": (lambda tmp: uir(1.0, 1.0, 1.0, 1.0, float("nan")),
                        "average utility must be positive"),
    "lifts-column": (lambda tmp: LiftAssignment(np.ones((2, 1))),
                     "lifts must be one value per provider, got shape (2, 1)"),
    "lifts-scalar": (lambda tmp: LiftAssignment(np.float64(1.0)),
                     "lifts must be one value per provider, got shape ()"),
    "rerank-short-pool": (
        lambda tmp: rerank_with_lambda(SMALL, 0, RankedList(0, (0, 1)), LiftAssignment(
            np.zeros(2)), 1.0, 3, SMALL_CATALOG),
        "pool of 2 items cannot fill 3 slots"),
}


@pytest.mark.parametrize("call, message", list(REJECTIONS.values()), ids=list(REJECTIONS))
def test_bad_input_is_rejected_with_its_message(tmp_path, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(tmp_path)
