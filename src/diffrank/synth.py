"""Synthetic ranking datasets with known structure.

Two generators:

* make_linear_dataset — labels are a fixed bucketization of a linear
  score shared across every dataset drawn with the same weight_seed, so
  separately drawn train and held-out splits follow the same labeling
  rule. Good for overfit/generalization checks: a model that learns the
  linear score recovers the labels exactly.

* make_context_dataset — labels depend on cross-document context. Each
  list carries a hidden polarity g in {-1, +1}; a document's relevance is
  the within-list rank of g * u where u is its score feature. The
  polarity is observable only through a noisy indicator feature whose
  per-document value is weak evidence but whose list average is strong
  evidence. A scorer that looks at one document at a time cannot reliably
  recover the ordering; one that pools information across the list can.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .letor import MAX_LABEL, Dataset

NUM_GRADES = MAX_LABEL + 1
_CALIBRATION_DRAWS = 20_000

# context-dataset knobs: per-document indicator noise is high enough that
# a single document barely reveals the list polarity (sign accuracy
# ~Phi(1/2) = 0.69) while the list mean reveals it almost surely
CONTEXT_NOISE_STD = 2.0


def linear_labeler(k: int, weight_seed: int = 1234):
    """Weight vector and global bucket thresholds for the linear labels.

    Thresholds are the empirical quintiles of a large calibration draw,
    derived only from weight_seed; every dataset built with the same
    weight_seed therefore shares one labeling function.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    w_ss, calib_ss = np.random.SeedSequence(weight_seed).spawn(2)
    w = np.random.default_rng(w_ss).normal(size=k)
    calib = np.random.default_rng(calib_ss).normal(size=(_CALIBRATION_DRAWS, k)) @ w
    thresholds = np.quantile(calib, [0.2, 0.4, 0.6, 0.8])

    def label_fn(features: np.ndarray) -> np.ndarray:
        scores = np.asarray(features) @ w
        return np.searchsorted(thresholds, scores, side="right").astype(np.int64)

    return w, thresholds, label_fn


def make_linear_dataset(
    n_queries: int = 50,
    n_docs: int = 20,
    k: int = 10,
    seed: int = 0,
    weight_seed: int = 1234,
) -> Dataset:
    """Queries of i.i.d. Gaussian documents labeled by the shared rule."""
    if n_queries < 1 or n_docs < 1:
        raise ConfigError("n_queries and n_docs must be >= 1")
    _, _, label_fn = linear_labeler(k, weight_seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    features = np.empty((n_queries, n_docs, k))
    labels = np.empty((n_queries, n_docs), dtype=np.int64)
    for q in range(n_queries):
        while True:
            feats = rng.normal(size=(n_docs, k))
            grades = label_fn(feats)
            if grades.max() > 0:
                break
        features[q], labels[q] = feats, grades
    return _equal_lists(features, labels)


def _equal_lists(features: np.ndarray, labels: np.ndarray) -> Dataset:
    """Dataset of (Q, n, k) features and (Q, n) labels: qids 1..Q, doc_index
    the position in query-major order."""
    n_queries, n_docs, k = features.shape
    return Dataset(
        features=features.reshape(-1, k),
        labels=labels.reshape(-1),
        doc_index=np.arange(n_queries * n_docs),
        qids=np.arange(1, n_queries + 1),
        counts=np.full(n_queries, n_docs),
    )


def make_context_dataset(
    n_queries: int = 50,
    n_docs: int = 20,
    k: int = 10,
    seed: int = 0,
) -> Dataset:
    """Lists whose relevance order is set by a hidden per-list polarity.

    Feature 0 is the score axis u, feature 1 is the noisy polarity
    indicator g + noise, the rest are standard-normal distractors.
    Labels are the within-list rank of g * u folded into NUM_GRADES
    buckets, so every list contains the full grade range.
    """
    if n_queries < 1 or n_docs < NUM_GRADES:
        raise ConfigError(
            f"need n_queries >= 1 and n_docs >= {NUM_GRADES}, "
            f"got {n_queries} queries x {n_docs} docs"
        )
    if k < 2:
        raise ConfigError(f"context datasets need k >= 2, got {k}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    features = np.empty((n_queries, n_docs, k))
    labels = np.empty((n_queries, n_docs), dtype=np.int64)
    for q in range(n_queries):
        u = rng.normal(size=n_docs)
        polarity = 1.0 if rng.random() < 0.5 else -1.0
        indicator = polarity + rng.normal(scale=CONTEXT_NOISE_STD, size=n_docs)
        features[q, :, 0] = u
        features[q, :, 1] = indicator
        if k > 2:
            features[q, :, 2:] = rng.normal(size=(n_docs, k - 2))
        ranks = np.argsort(np.argsort(polarity * u))
        labels[q] = (ranks * NUM_GRADES) // n_docs
    return _equal_lists(features, labels)
