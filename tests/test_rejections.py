"""Bad input each public entry point rejects, one case per rejection, matched by message."""

import re

import numpy as np
import pytest

from fairsort import (
    Catalog,
    FairnessNotion,
    LiftAssignment,
    PreferenceMatrix,
    RankedList,
    candidate_pool,
    generate_synthetic,
    load_dataset,
    rerank_with_lambda,
    total_exposure,
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
                           "need at least one user and one item"),
    "notion": (lambda tmp: FairnessNotion.parse("xx"),
               "unknown fairness notion 'xx', expected uf or qf"),
    "exposure-negative-count": (lambda tmp: total_exposure(-1, 3), "list_count must be >= 0"),
    "exposure-zero-depth": (lambda tmp: total_exposure(1, 0), "k must be >= 1"),
    "spec-dataset": (lambda tmp: ExperimentSpec(dataset="x"),
                     "dataset must be 'synthetic' or 'files'"),
    "cell-unknown-model": (
        lambda tmp: run_cell_offline(ExperimentSpec(), "bogus", 2, SMALL, SMALL_CATALOG),
        "unknown model 'bogus'"),
    "pool-ratio": (lambda tmp: candidate_pool(RankedList(0, (0, 1, 2)), 1.5),
                   "ratio must be in (0, 1]"),
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
