"""Synthetic dataset generator contracts."""

import numpy as np
import pytest

from diffrank.errors import ConfigError
from diffrank.synth import (
    NUM_GRADES,
    linear_labeler,
    make_context_dataset,
    make_linear_dataset,
)


def test_linear_dataset_shape_and_label_range():
    ds = make_linear_dataset()
    assert ds.num_queries == 50
    assert ds.k == 10
    for g in ds.groups:
        assert g.n == 20
        labels = g.labels()
        assert labels.min() >= 0 and labels.max() <= 4
        assert labels.max() > 0  # no degenerate all-zero query


def test_linear_labels_match_the_shared_rule():
    ds = make_linear_dataset(seed=3)
    _, _, label_fn = linear_labeler(10)
    for g in ds.groups:
        np.testing.assert_array_equal(label_fn(g.feature_matrix()), g.labels())


def test_linear_splits_share_the_labeling_function():
    train = make_linear_dataset(seed=0)
    heldout = make_linear_dataset(seed=1)
    # different documents...
    assert not np.array_equal(
        train.groups[0].feature_matrix(), heldout.groups[0].feature_matrix()
    )
    # ...but one labeling rule: transplanting features reproduces labels
    _, _, label_fn = linear_labeler(10)
    for g in heldout.groups[:5]:
        np.testing.assert_array_equal(label_fn(g.feature_matrix()), g.labels())


def test_linear_dataset_is_deterministic():
    a = make_linear_dataset(seed=7)
    b = make_linear_dataset(seed=7)
    for ga, gb in zip(a.groups, b.groups):
        np.testing.assert_array_equal(ga.feature_matrix(), gb.feature_matrix())
        np.testing.assert_array_equal(ga.labels(), gb.labels())


def test_linear_label_distribution_is_roughly_balanced():
    ds = make_linear_dataset(n_queries=100, seed=5)
    all_labels = np.concatenate([g.labels() for g in ds.groups])
    counts = np.bincount(all_labels.astype(int), minlength=5)
    # quintile thresholds: each grade near 20%
    assert counts.min() > 0.15 * all_labels.size
    assert counts.max() < 0.25 * all_labels.size


def test_context_dataset_grade_balance_within_lists():
    ds = make_context_dataset(n_queries=10, n_docs=20, k=6, seed=2)
    assert ds.k == 6
    for g in ds.groups:
        counts = np.bincount(g.labels().astype(int), minlength=NUM_GRADES)
        np.testing.assert_array_equal(counts, np.full(NUM_GRADES, 4))


def test_context_labels_are_monotone_in_score_up_to_polarity():
    ds = make_context_dataset(n_queries=30, seed=4)
    for g in ds.groups:
        u = g.feature_matrix()[:, 0]
        labels = g.labels()
        by_u = labels[np.argsort(u)]
        ascending = np.all(np.diff(by_u) >= 0)
        descending = np.all(np.diff(by_u) <= 0)
        assert ascending or descending


def test_context_polarity_readable_from_list_mean_indicator():
    ds = make_context_dataset(n_queries=50, seed=6)
    agree = 0
    for g in ds.groups:
        feats = g.feature_matrix()
        labels = g.labels()
        by_u = labels[np.argsort(feats[:, 0])]
        upward = by_u[-1] > by_u[0]
        mean_says_up = feats[:, 1].mean() > 0
        agree += upward == mean_says_up
    # the pooled indicator identifies the hidden polarity almost always
    assert agree >= 45


def test_context_single_document_indicator_is_weak():
    ds = make_context_dataset(n_queries=50, seed=8)
    total = 0
    agree = 0
    for g in ds.groups:
        feats = g.feature_matrix()
        labels = g.labels()
        by_u = labels[np.argsort(feats[:, 0])]
        upward = by_u[-1] > by_u[0]
        polarity = 1.0 if upward else -1.0
        signs_right = np.sign(feats[:, 1]) == polarity
        agree += int(signs_right.sum())
        total += g.n
    rate = agree / total
    # single-document polarity estimates hover far below certainty
    assert 0.55 < rate < 0.85, rate


def test_context_dataset_is_deterministic():
    a = make_context_dataset(seed=9)
    b = make_context_dataset(seed=9)
    for ga, gb in zip(a.groups, b.groups):
        np.testing.assert_array_equal(ga.feature_matrix(), gb.feature_matrix())
        np.testing.assert_array_equal(ga.labels(), gb.labels())


def test_generator_validation():
    with pytest.raises(ConfigError):
        make_linear_dataset(n_queries=0)
    with pytest.raises(ConfigError):
        make_context_dataset(n_docs=3)
    with pytest.raises(ConfigError):
        make_context_dataset(k=1)
    with pytest.raises(ConfigError):
        linear_labeler(0)


def test_doc_indices_are_global_positions():
    ds = make_linear_dataset(n_queries=3, n_docs=4, seed=1)
    flat = [int(i) for g in ds.groups for i in g.doc_indices()]
    assert flat == list(range(12))
