"""Overlap measures and positive-set construction."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcon.errors import InputError
from mixcon.overlap import (
    MEASURES,
    overlap_matrix,
    positive_mask,
    positive_pair_count,
)

import reference


def all_nonzero_vectors(c):
    return [np.array(bits) for bits in itertools.product((0, 1), repeat=c) if any(bits)]


# -- measures, checked through the matrix against the scalar reference ----------


NAIVE = {"jaccard": reference.naive_jaccard, "cosine": reference.naive_cosine}


def test_identity_and_disjoint_fixtures():
    a, b = [1, 1, 0], [0, 0, 1]
    for measure in MEASURES:
        d = overlap_matrix(np.array([a, a, b]), measure)
        assert d[0, 1] == 1.0
        assert d[0, 2] == 0.0


def test_hand_fixture_values():
    labels = np.array([[1, 1, 0], [1, 0, 1]])
    # Intersection 1, union 3.
    assert overlap_matrix(labels, "jaccard")[0, 1] == pytest.approx(1.0 / 3.0, abs=0)
    # 1 / (sqrt(2) * sqrt(2)).
    assert overlap_matrix(labels, "cosine")[0, 1] == pytest.approx(0.5, abs=0)


def test_all_zero_convention_and_validation():
    labels = np.array([[0, 0, 0], [0, 0, 0], [1, 0, 1]])
    for measure in MEASURES:
        d = overlap_matrix(labels, measure)
        assert d[0, 0] == d[0, 1] == d[0, 2] == d[2, 0] == 0.0
        assert d[2, 2] == 1.0
    with pytest.raises(InputError):
        overlap_matrix(np.array([1, 0, 1]), "jaccard")
    with pytest.raises(InputError):
        overlap_matrix(np.array([[1, 2], [1, 0]]), "cosine")


def test_measures_match_naive_reference_exhaustively():
    vectors = all_nonzero_vectors(4)
    jac = overlap_matrix(np.stack(vectors), "jaccard")
    cos = overlap_matrix(np.stack(vectors), "cosine")
    for i, a in enumerate(vectors):
        for j, b in enumerate(vectors):
            assert jac[i, j] == pytest.approx(reference.naive_jaccard(a, b), abs=0)
            assert cos[i, j] == pytest.approx(reference.naive_cosine(a, b), abs=1e-15)


def test_jaccard_never_exceeds_cosine():
    stack = np.stack(all_nonzero_vectors(4))
    assert np.all(overlap_matrix(stack, "jaccard") <= overlap_matrix(stack, "cosine") + 1e-15)


def test_resolve_measure():
    """Measure names select their formula; unknown names fail."""
    assert MEASURES == ("jaccard", "cosine")
    labels = np.array([[1, 0], [1, 1]])
    for measure in MEASURES:
        assert overlap_matrix(labels, measure)[0, 1] == NAIVE[measure](labels[0], labels[1])
    with pytest.raises(InputError):
        overlap_matrix(labels, "hamming")


# -- overlap matrix ----------------------------------------------------------


def test_overlap_matrix_agrees_with_scalar_calls_bitwise():
    rng = np.random.default_rng(8)
    labels = (rng.random((7, 5)) < 0.4).astype(int)
    labels[labels.sum(axis=1) == 0, 0] = 1
    for measure in MEASURES:
        d = overlap_matrix(labels, measure)
        for i in range(7):
            for j in range(7):
                assert d[i, j] == NAIVE[measure](labels[i], labels[j])


def test_overlap_matrix_rejects_callable():
    labels = np.array([[1, 0], [1, 1]])
    with pytest.raises(InputError):
        overlap_matrix(labels, lambda a, b: 0.25)


# -- positive sets ------------------------------------------------------------


def test_identical_labels_fill_every_set():
    labels = np.tile(np.array([1, 0, 1]), (6, 1))
    d = overlap_matrix(labels, "jaccard")
    mask = positive_mask(d, alpha=0.6)
    for i, row in enumerate(mask):
        assert row.sum() == 5
        assert np.all(d[i, row] == 1.0)
        assert not row[i]


def test_disjoint_labels_empty_every_set():
    labels = np.eye(4, dtype=int)
    assert not positive_mask(overlap_matrix(labels, "jaccard"), alpha=0.5).any()


def test_three_vector_fixture():
    labels = np.array([[1, 1, 0], [1, 0, 0], [0, 0, 1]])
    d = overlap_matrix(labels, "jaccard")
    mask = positive_mask(d, alpha=0.5)
    expected = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=bool)
    np.testing.assert_array_equal(mask, expected)
    np.testing.assert_array_equal(d[mask], [0.5, 0.5])


def test_positive_set_validation():
    with pytest.raises(InputError):
        overlap_matrix(np.zeros((0, 3), dtype=int), "jaccard")
    with pytest.raises(InputError):
        positive_mask(overlap_matrix(np.array([[1, 0]]), "jaccard"), alpha=0.5)
    with pytest.raises(InputError):
        positive_mask(overlap_matrix(np.array([[1, 0], [0, 1]]), "jaccard"), alpha=1.5)
    with pytest.raises(InputError):
        positive_mask(np.zeros((2, 3)), alpha=0.5)
    with pytest.raises(InputError):
        positive_pair_count(np.array([[1, 2], [0, 1]]), "jaccard", 0.5)


def test_membership_weight_symmetry_is_bitwise():
    rng = np.random.default_rng(13)
    labels = (rng.random((10, 6)) < 0.5).astype(int)
    labels[labels.sum(axis=1) == 0, 2] = 1
    for measure in ("jaccard", "cosine"):
        d = overlap_matrix(labels, measure)
        mask = positive_mask(d, alpha=0.3)
        np.testing.assert_array_equal(mask, mask.T)
        weights = np.where(mask, d, 0.0)
        assert weights.tobytes() == weights.T.copy().tobytes()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_nesting_of_positive_sets(seed, c):
    rng = np.random.default_rng(seed)
    labels = (rng.random((8, c)) < 0.5).astype(int)
    labels[labels.sum(axis=1) == 0, 0] = 1
    d = overlap_matrix(labels, "jaccard")
    high, mid, low = (positive_mask(d, a) for a in (0.9, 0.5, 0.1))
    assert not (high & ~mid).any()
    assert not (mid & ~low).any()


def test_exhaustive_nesting_for_small_label_spaces():
    for c in (2, 3, 4):
        labels = np.stack(all_nonzero_vectors(c))
        d = overlap_matrix(labels, "jaccard")
        high, mid, low = (positive_mask(d, a) for a in (0.9, 0.5, 0.1))
        assert not (high & ~mid).any()
        assert not (mid & ~low).any()


def test_mean_positive_set_size():
    """The sweep's mean |A(i)| is the mask's count over anchors."""
    labels = np.array([[1, 0], [1, 0], [0, 1]])
    mask = positive_mask(overlap_matrix(labels, "jaccard"), alpha=0.5)
    assert int(mask.sum()) / len(labels) == 2 / 3
    assert positive_pair_count(labels, "jaccard", 0.5) / len(labels) == 2 / 3
    assert [int(n) for n in mask.sum(axis=1)] == [1, 1, 0]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 60))
def test_positive_pair_count_equals_the_mask_count(seed, c, m):
    rng = np.random.default_rng(seed)
    labels = (rng.random((m, c)) < 0.4).astype(int)
    for measure in MEASURES:
        d = overlap_matrix(labels, measure)
        for alpha in (0.0, 0.3, 0.5, 2 / 3, 1.0):
            # The mask needs two views; one view has no pair to count.
            want = int(positive_mask(d, alpha).sum()) if m >= 2 else 0
            assert positive_pair_count(labels, measure, alpha) == want

