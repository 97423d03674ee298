"""Dataset parsing, ranking order, and the synthetic generator."""

import numpy as np
import pytest

from fairsort import (
    Catalog,
    DatasetFormatError,
    PreferenceMatrix,
    RankedList,
    generate_synthetic,
    load_dataset,
    original_ranking,
)
from fairsort.oracle import selection_sort_ranking


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_load_dataset_fills_missing_pairs_with_zero(tmp_path):
    matrix_file = write(tmp_path / "m.tsv", "0\t0\t0.5\n1\t1\t0.25\n")
    provider_file = write(tmp_path / "p.tsv", "0\t0\n1\t1\n")
    matrix, catalog = load_dataset(matrix_file, provider_file)
    assert matrix.scores.tolist() == [[0.5, 0.0], [0.0, 0.25]]
    assert catalog.provider_of.tolist() == [0, 1]
    assert catalog.item_count.tolist() == [1, 1]


def test_load_dataset_quality_mass_matches_double_sum(tmp_path):
    matrix_file = write(
        tmp_path / "m.tsv",
        "0\t0\t1.0\n0\t1\t0.5\n1\t0\t0.25\n1\t2\t0.75\n",
    )
    provider_file = write(tmp_path / "p.tsv", "0\t0\n1\t0\n2\t1\n")
    matrix, catalog = load_dataset(matrix_file, provider_file)
    expected = [1.0 + 0.5 + 0.25, 0.75]
    assert catalog.quality_mass.tolist() == pytest.approx(expected, abs=1e-12)


def test_load_dataset_malformed_row_reports_line(tmp_path):
    matrix_file = write(tmp_path / "m.tsv", "0\t0\t0.5\n0\t1\n")
    provider_file = write(tmp_path / "p.tsv", "0\t0\n1\t0\n")
    with pytest.raises(DatasetFormatError, match=r"m\.tsv:2"):
        load_dataset(matrix_file, provider_file)


def test_load_dataset_negative_score_reports_line(tmp_path):
    matrix_file = write(tmp_path / "m.tsv", "0\t0\t0.5\n0\t1\t-0.1\n")
    provider_file = write(tmp_path / "p.tsv", "0\t0\n1\t0\n")
    with pytest.raises(DatasetFormatError, match=r"m\.tsv:2.*negative"):
        load_dataset(matrix_file, provider_file)


def test_load_dataset_duplicate_pair_reports_second_line(tmp_path):
    # a blank line and a repeated identical score still count
    matrix_file = write(tmp_path / "m.tsv", "0\t0\t0.5\n\n1\t1\t0.2\n0\t0\t0.5\n")
    provider_file = write(tmp_path / "p.tsv", "0\t0\n1\t0\n")
    with pytest.raises(DatasetFormatError, match=r"m\.tsv:4: duplicate.*user 0, item 0"):
        load_dataset(matrix_file, provider_file)


def test_load_dataset_item_without_provider(tmp_path):
    matrix_file = write(tmp_path / "m.tsv", "0\t5\t0.5\n")
    provider_file = write(tmp_path / "p.tsv", "0\t0\n1\t0\n")
    with pytest.raises(DatasetFormatError, match="missing a provider"):
        load_dataset(matrix_file, provider_file)


def test_load_dataset_duplicate_provider_assignment(tmp_path):
    matrix_file = write(tmp_path / "m.tsv", "0\t0\t0.5\n")
    provider_file = write(tmp_path / "p.tsv", "0\t0\n0\t1\n")
    with pytest.raises(DatasetFormatError, match=r"p\.tsv:2.*duplicate"):
        load_dataset(matrix_file, provider_file)


def test_load_dataset_provider_map_gap(tmp_path):
    matrix_file = write(tmp_path / "m.tsv", "0\t0\t0.5\n")
    provider_file = write(tmp_path / "p.tsv", "0\t0\n2\t1\n")
    with pytest.raises(DatasetFormatError, match="item 1 is missing"):
        load_dataset(matrix_file, provider_file)


def test_ranked_list_rejects_duplicates():
    with pytest.raises(ValueError, match="repeats"):
        RankedList(0, (1, 2, 1))


def test_ranked_list_rejects_non_integral_ids():
    # these used to be truncated to (1, 2)
    with pytest.raises(TypeError):
        RankedList(0, (1.7, 2.2))
    with pytest.raises(TypeError):
        RankedList(0, (np.float64(1.0),))
    with pytest.raises(TypeError):
        RankedList(1.7, (0,))


def test_ranked_list_accepts_numpy_integer_ids():
    assert RankedList(0, tuple(np.array([3, 0], dtype=np.int64))).items == (3, 0)


def test_ranked_list_rejects_negative_ids():
    # ndcg used to score -1 as the last item of the row
    with pytest.raises(ValueError, match="negative"):
        RankedList(0, (-1, 0))
    with pytest.raises(ValueError, match="negative user"):
        RankedList(-1, (0,))


def test_preference_matrix_rejects_negative_and_nonfinite():
    with pytest.raises(ValueError):
        PreferenceMatrix(np.array([[0.1, -0.2]]))
    with pytest.raises(ValueError):
        PreferenceMatrix(np.array([[0.1, np.inf]]))


def test_original_ranking_sorts_descending():
    matrix = PreferenceMatrix(np.array([[0.2, 0.9, 0.5]]))
    assert original_ranking(matrix, 0).items == (1, 2, 0)


def test_original_ranking_breaks_ties_by_item_id():
    matrix = PreferenceMatrix(np.array([[0.5, 0.5]]))
    assert original_ranking(matrix, 0).items == (0, 1)


def test_original_ranking_matches_selection_sort_oracle():
    rng = np.random.default_rng(42)
    for _ in range(50):
        row = rng.integers(0, 5, size=20) / 4.0  # many ties
        matrix = PreferenceMatrix(row[None, :])
        expected = selection_sort_ranking(row.tolist())
        assert list(original_ranking(matrix, 0).items) == expected


def test_generate_synthetic_is_deterministic():
    a_matrix, a_catalog = generate_synthetic(10, 30, 4, 1.5, seed=7)
    b_matrix, b_catalog = generate_synthetic(10, 30, 4, 1.5, seed=7)
    assert np.array_equal(a_matrix.scores, b_matrix.scores)
    assert np.array_equal(a_catalog.provider_of, b_catalog.provider_of)


def test_generate_synthetic_zero_skew_gives_even_sizes():
    _, catalog = generate_synthetic(5, 103, 10, 0.0, seed=3)
    sizes = catalog.item_count
    assert sizes.sum() == 103
    assert sizes.max() - sizes.min() <= 1


def test_generate_synthetic_skew_concentrates_sizes_and_scores():
    matrix, catalog = generate_synthetic(50, 200, 8, 1.5, seed=5)
    sizes = catalog.item_count
    assert sizes[0] == sizes.max() and sizes[-1] == sizes.min()
    # per-item average quality should fall with provider rank
    per_item = matrix.scores.mean(axis=0)
    head = per_item[catalog.provider_of == 0].mean()
    tail = per_item[catalog.provider_of == 7].mean()
    assert head > tail


def test_generate_synthetic_quality_mass_consistent():
    matrix, catalog = generate_synthetic(12, 40, 5, 1.0, seed=9)
    for p in range(catalog.n_providers):
        expected = matrix.scores[:, catalog.provider_of == p].sum()
        assert catalog.quality_mass[p] == pytest.approx(expected, rel=1e-9)


def test_generate_synthetic_validates_arguments():
    with pytest.raises(ValueError):
        generate_synthetic(5, 10, 11, 1.0, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(5, 10, 2, -0.5, seed=0)


def test_catalog_requires_every_provider_nonempty():
    matrix = PreferenceMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        Catalog(
            provider_of=np.array([0, 0, 0]),
            item_count=np.array([3, 0]),
            quality_mass=np.array([6.0, 0.0]),
        )
