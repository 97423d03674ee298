"""Dataset parsing, ranking order, and the synthetic generator."""

import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsort import (
    Catalog,
    DatasetFormatError,
    PreferenceMatrix,
    RankedList,
    generate_synthetic,
    load_dataset,
    original_ranking,
)
from fairsort import catalog as catalog_module
from fairsort.catalog import _scan_scores

from oracle import selection_sort_ranking


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


@pytest.mark.parametrize(
    "matrix_text, provider_text, where",
    [
        ("0\t0\t0.5\n0\t1\n", "0\t0\n1\t0\n", r"m\.tsv:2: .*user_id<TAB>item_id<TAB>score"),
        ("0\t0\t0.5\n0\t1\t0.25\n", "0\t0\n1\t0\t7\n", r"p\.tsv:2: .*item_id<TAB>provider_id"),
    ],
    ids=["matrix", "provider_map"],
)
def test_load_dataset_malformed_row_reports_line(tmp_path, matrix_text, provider_text, where):
    matrix_file = write(tmp_path / "m.tsv", matrix_text)
    provider_file = write(tmp_path / "p.tsv", provider_text)
    with pytest.raises(DatasetFormatError, match=where):
        load_dataset(matrix_file, provider_file)


def test_load_dataset_negative_score_reports_line(tmp_path):
    matrix_file = write(tmp_path / "m.tsv", "0\t0\t0.5\n0\t1\t-0.1\n")
    provider_file = write(tmp_path / "p.tsv", "0\t0\n1\t0\n")
    with pytest.raises(DatasetFormatError, match=r"m\.tsv:2.*negative"):
        load_dataset(matrix_file, provider_file)


def test_load_dataset_overflowing_scores_name_the_file(tmp_path):
    # each score is finite, but their total is not
    matrix_file = write(tmp_path / "m.tsv", "0\t0\t1.7e308\n0\t1\t1.7e308\n")
    provider_file = write(tmp_path / "p.tsv", "0\t0\n1\t1\n")
    with pytest.raises(DatasetFormatError, match=r"m\.tsv: .*sum to at most 1\.79"):
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


def test_load_dataset_huge_item_id_reports_the_first_gap(tmp_path):
    # the scan for the missing id is bounded by the map's size, not the id
    matrix_file = write(tmp_path / "m.tsv", "0\t0\t0.5\n")
    provider_file = write(tmp_path / "p.tsv", f"0\t0\n{10**12}\t0\n")
    with pytest.raises(DatasetFormatError, match="item 1 is missing a provider"):
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


def test_load_dataset_user_gap(tmp_path):
    matrix_file = write(tmp_path / "m.tsv", "0\t0\t0.5\n2\t1\t0.25\n")
    provider_file = write(tmp_path / "p.tsv", "0\t0\n1\t1\n")
    with pytest.raises(DatasetFormatError, match=r"m\.tsv: user 1 has no rows"):
        load_dataset(matrix_file, provider_file)
    # a user with no positive score is written with explicit zero rows
    write(tmp_path / "m.tsv", "0\t0\t0.5\n1\t0\t0\n2\t1\t0.25\n")
    matrix, _ = load_dataset(matrix_file, provider_file)
    assert matrix.scores.tolist() == [[0.5, 0.0], [0.0, 0.0], [0.0, 0.25]]


def test_load_dataset_reads_well_formed_files_in_bulk(tmp_path, monkeypatch):
    scanned = []

    def scan(path, n_items):
        scanned.append(path.name)
        return _scan_scores(path, n_items)

    monkeypatch.setattr(catalog_module, "_scan_scores", scan)
    provider_file = write(tmp_path / "p.tsv", "0\t0\n1\t1\n")
    # CRLF endings, a blank line and an explicit zero row
    bulk = write(tmp_path / "bulk.tsv", "1\t1\t0.25\r\n\r\n0\t0\t0.5\r\n1\t0\t0\r\n")
    # a trailing tab is valid, but only the line scanner takes it
    odd = write(tmp_path / "odd.tsv", "1\t1\t0.25\n0\t0\t0.5\t\n")
    expected = [[0.5, 0.0], [0.0, 0.25]]
    assert load_dataset(bulk, provider_file)[0].scores.tolist() == expected
    assert scanned == []
    assert load_dataset(odd, provider_file)[0].scores.tolist() == expected
    assert scanned == ["odd.tsv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_dataset_reads_a_named_pipe_once(tmp_path):
    provider_file = write(tmp_path / "p.tsv", "0\t0\n1\t1\n")
    pipe = tmp_path / "m.tsv"
    os.mkfifo(pipe)
    loaded = {}

    def load():
        loaded["scores"] = load_dataset(pipe, provider_file)[0].scores.tolist()

    reader = threading.Thread(target=load, daemon=True)
    reader.start()
    pipe.write_text("0\t0\t0.5\n1\t1\t0.25\n")
    reader.join(timeout=10)
    if reader.is_alive():
        # opened again, the pipe waits for a writer: one that writes nothing
        # lets the reader go on
        pipe.write_text("")
        reader.join(timeout=10)
    assert loaded.get("scores") == [[0.5, 0.0], [0.0, 0.25]]


# rows with odd but valid text, and rows that break the format; a bare \r
# ends a line, and \x1c and a non-ASCII digit are what numpy's reader
# would take around or as a number where int() and float() do not
ODD_ROWS = [
    "", "  ", "\t", "\r", " 0\t0\t1", "0\t+1\t.5", "1_0\t0\t1", "\u0661\t0\t1",
    "0\x1c\t1\t1", "0\t1\t1\x1c", "0\t\u0661\U00082a06\t1",
    "0\t0\tnan", "0\t1\tinf", "0\t1\t-inf", "0\t1\t1e400", "0\t2\t-0.0", "0\t2\t-0.5",
    "-1\t0\t1", "0\t-1\t1", "0\t3\t1", "99999999999999999999\t0\t1",
    "1099511627776\t0\t1", "9223372036854775807\t2\t1", "#0\t0\t1", "0\t0", "0\t0\t1\t1",
]
SCORES = ["0", "0.5", "1", "0.25", "2.5e-3", "-0.0", "1e-310", "7", "0.1"]


@st.composite
def matrix_texts(draw):
    """A 3-item matrix file: valid rows of every user, with up to two twists.

    A twist inserts an odd row, repeats a valid row or puts a trailing tab
    on the last one.  Dropping a user's rows leaves a gap, and an odd row
    may repeat a (user, item) pair.
    """
    users = draw(st.lists(st.sets(st.integers(0, 2), min_size=1), max_size=4))
    rows = [
        f"{user}\t{item}\t{draw(st.sampled_from(SCORES))}"
        for user, items in enumerate(users) for item in sorted(items)
        if draw(st.integers(0, 9))
    ]
    rows = draw(st.permutations(rows))
    twists = st.sampled_from(["none", "repeat", "trailing tab"] + ODD_ROWS)
    for twist in draw(st.lists(twists, min_size=1, max_size=2)):
        if twist == "trailing tab" and rows:
            rows[-1] += "\t"
        elif twist == "repeat" and rows:
            rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(rows)))
        elif twist in ODD_ROWS:
            rows.insert(draw(st.integers(0, len(rows))), twist)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(rows) + draw(st.sampled_from(["", end]))


@settings(max_examples=400, deadline=None)
@given(text=matrix_texts())
def test_load_dataset_agrees_with_line_scanner(tmp_path_factory, text):
    directory = tmp_path_factory.mktemp("agree")
    matrix_file = directory / "m.tsv"
    matrix_file.write_bytes(text.encode("utf-8"))
    provider_file = write(directory / "p.tsv", "0\t0\n1\t0\n2\t1\n")
    try:
        expected = _scan_scores(matrix_file, 3)
    except DatasetFormatError as exc:
        with pytest.raises(DatasetFormatError) as raised:
            load_dataset(matrix_file, provider_file)
        assert str(raised.value) == str(exc)
        return
    scores = load_dataset(matrix_file, provider_file)[0].scores
    assert np.array_equal(scores, expected)
    assert np.array_equal(np.signbit(scores), np.signbit(expected))


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
    for bad in (np.nan, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            PreferenceMatrix(np.array([[np.inf, bad]]))
    # -0.0 is not negative, the smallest subnormal below zero is
    PreferenceMatrix(np.array([[0.0, -0.0]]))
    with pytest.raises(ValueError, match="must be nonnegative"):
        PreferenceMatrix(np.array([[1.0, -5e-324]]))
    with pytest.raises(ValueError, match="must be finite"):
        PreferenceMatrix(np.array([[1.0, np.nan]]))


def traced_peak(call):
    """Peak bytes Python's allocators hold while ``call`` runs, beyond what they held before."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_preference_matrix_validates_without_a_copy():
    # validation allocates nothing the size of the matrix
    scores = np.ones((400, 500))
    assert traced_peak(lambda: PreferenceMatrix(scores)) <= 0.02 * scores.nbytes


def test_generate_synthetic_holds_one_matrix_at_its_peak():
    # the generator's first call sets up state that later calls reuse
    generate_synthetic(2, 3, 1, 1.5, 3)
    nbytes = 200 * 500 * 8
    # the draw is scaled in place, so one matrix's bytes plus small state
    assert traced_peak(lambda: generate_synthetic(200, 500, 5, 1.5, 3)) <= 1.25 * nbytes


def test_preference_matrix_rejects_overflowing_total():
    # quality mass and the ideal DCG would be inf, and the search would
    # return weight 0 with only a RuntimeWarning
    with pytest.raises(ValueError, match=r"sum to at most 1\.7976931348623157e\+308"):
        PreferenceMatrix(np.full((2, 2), 1.7e308))
    PreferenceMatrix(np.full((2, 2), 1e307))


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


@st.composite
def ranked_rows(draw):
    """A one-user matrix of integer or all-zero scores, with a ranking depth."""
    n = draw(st.integers(1, 40))
    row = draw(st.one_of(
        st.just([0] * n), st.lists(st.integers(0, 3), min_size=n, max_size=n)
    ))
    k = draw(st.integers(1, n))
    depth = draw(st.sampled_from([1, k, n]))
    return PreferenceMatrix(np.array([row], dtype=np.float64)), depth


@settings(max_examples=200, deadline=None)
@given(ranked_rows())
def test_original_ranking_prefix_matches_full_ranking(case):
    matrix, depth = case
    full = original_ranking(matrix, 0)
    assert full.items == tuple(np.argsort(-matrix.scores[0], kind="stable").tolist())
    assert original_ranking(matrix, 0, depth).items == full.items[:depth]


@pytest.mark.parametrize("depth", [0, -1, 4])
def test_original_ranking_rejects_depth_outside_items(depth):
    matrix = PreferenceMatrix(np.array([[0.2, 0.9, 0.5]]))
    with pytest.raises(ValueError, match="depth"):
        original_ranking(matrix, 0, depth)


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
    with pytest.raises(ValueError, match="skew"):
        generate_synthetic(5, 10, 2, float("nan"), seed=0)


def test_catalog_requires_every_provider_nonempty():
    with pytest.raises(ValueError, match="at least one item"):
        Catalog(provider_of=np.array([0, 0, 0]), quality_mass=np.array([6.0, 0.0]))


def test_catalog_derives_item_counts_from_the_map():
    catalog = Catalog(provider_of=np.array([0, 0, 1]), quality_mass=np.array([1.0, 2.0]))
    assert catalog.item_count.tolist() == [2, 1]
    assert catalog.n_providers == 2
    with pytest.raises(TypeError):
        Catalog(np.array([0, 0, 1]), np.array([1.0, 2.0]), item_count=np.array([1, 2]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_catalog_rejects_non_finite_mass(bad):
    # NaN mass used to give NaN quality-weighted targets without an error
    with pytest.raises(ValueError, match="finite"):
        Catalog(provider_of=np.array([0, 1]), quality_mass=np.array([bad, 1.0]))


def test_catalog_rejects_non_integral_provider_ids():
    # these used to be truncated to [0, 1]
    with pytest.raises(ValueError, match="integers"):
        Catalog(provider_of=np.array([0.7, 1.2]), quality_mass=np.array([1.0, 1.0]))
