"""Seeded Web30K-shaped ranking corpus for the benchmark.

Everything is derived from the benchmark's --seed; the library receives
only the written LETOR text. Query list lengths are a stratified draw
from a lognormal (median 40, clipped to [5, 200]): stratum i of Q takes
the quantile at (i + jitter) / Q. The seed therefore changes the lists,
their order, features and labels, while the length distribution, and
with it the amount of work in a pass, stays nearly the same from seed
to seed. That keeps run-to-run spread low without fixing the inputs.

Features are dense, k = 136 as in Web30K: a third of the columns are
integer counts, the rest floats with six decimals. Labels come from
``synth.linear_labeler`` applied to the latent standard-normal values
the features are written from, so training has signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

K = 136
QUERIES = 128
MEDIAN_DOCS = 40
LOG_SIGMA = 0.7
MIN_DOCS, MAX_DOCS = 5, 200
COUNT_EVERY = 3  # every third column is an integer count feature


@dataclass(frozen=True)
class Corpus:
    qids: np.ndarray  # (Q,) query ids in file order
    lengths: np.ndarray  # (Q,) documents per query
    labels: np.ndarray  # (N,) integer grades in file order
    features: np.ndarray  # (N, K) the exact values written to the text
    lines: list[str]  # one LETOR line per document, in file order

    @property
    def num_docs(self) -> int:
        return int(self.lengths.sum())

    def doc_range(self, q0: int, q1: int) -> slice:
        """Rows of queries q0..q1-1 in the document arrays."""
        return slice(int(self.lengths[:q0].sum()), int(self.lengths[:q1].sum()))

    def text(self, q0: int = 0, q1: int | None = None) -> str:
        """The LETOR file holding queries q0..q1-1 (all by default)."""
        rows = self.doc_range(q0, self.qids.size if q1 is None else q1)
        return "\n".join(self.lines[rows]) + "\n"


def list_lengths(rng: np.random.Generator, queries: int) -> np.ndarray:
    inv_cdf = NormalDist().inv_cdf
    u = (np.arange(queries) + rng.random(queries)) / queries
    z = np.array([inv_cdf(float(x)) for x in u])
    n = np.round(MEDIAN_DOCS * np.exp(LOG_SIGMA * z))
    return rng.permutation(np.clip(n, MIN_DOCS, MAX_DOCS).astype(np.int64))


def make_corpus(seed: int, queries: int = QUERIES) -> Corpus:
    from diffrank import synth

    lengths_ss, qid_ss, feat_ss, weight_ss = np.random.SeedSequence(seed).spawn(4)
    lengths = list_lengths(np.random.default_rng(lengths_ss), queries)
    qids = np.cumsum(np.random.default_rng(qid_ss).integers(1, 50, size=queries))
    n = int(lengths.sum())
    latent = np.random.default_rng(feat_ss).standard_normal((n, K))
    weight_seed = int(np.random.default_rng(weight_ss).integers(2**31))
    _, _, label_fn = synth.linear_labeler(K, weight_seed)
    labels = label_fn(latent)

    features = np.round(latent, 6)
    counts = np.arange(K) % COUNT_EVERY == 0
    features[:, counts] = np.maximum(np.round(20.0 + 8.0 * latent[:, counts]), 0.0)

    fmt = [f"{j + 1}:{{:d}}" if counts[j] else f"{j + 1}:{{!r}}" for j in range(K)]
    doc_qids = np.repeat(qids, lengths)
    lines = []
    for i in range(n):
        row = features[i].tolist()
        values = " ".join(f.format(int(v) if c else v) for f, c, v in zip(fmt, counts, row))
        lines.append(f"{labels[i]} qid:{doc_qids[i]} {values}")
    return Corpus(
        qids=qids,
        lengths=lengths,
        labels=labels,
        features=features,
        lines=lines,
    )


def length_quantiles(lengths: np.ndarray) -> dict:
    q = np.quantile(lengths, [0.1, 0.5, 0.9, 0.99])
    return {
        "queries": int(lengths.size),
        "docs": int(lengths.sum()),
        "mean": float(lengths.mean()),
        "min": int(lengths.min()),
        "p10": float(q[0]),
        "p50": float(q[1]),
        "p90": float(q[2]),
        "p99": float(q[3]),
        "max": int(lengths.max()),
    }
