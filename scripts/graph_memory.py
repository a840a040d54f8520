#!/usr/bin/env python3
"""Memory the training graph holds when backward starts.

Runs one `train_step` at each of three shapes and prints what tracemalloc
counts as allocated since the step began, read as backward is called:
the arrays the forward pass left for backward, plus the step's packed
inputs and per-query draws. It has no options:

    python3 scripts/graph_memory.py

* benchmark: the first 32-query training batch of the benchmark at seed
  1 (list lengths from perfbench/inputs.py, batch order and model from
  perfbench/stages.py): 1,544 rows, d_model 64, float32.
* web30k: 128 queries with lognormal list lengths (median 110, sigma 0.6,
  clipped to [5, 1300]) on the command line's default model for k = 136
  features (d_model 128, lists capped at 512 rows), float32.
* longest: one list at that cap, 512 documents, on the same model: the
  most one query can hold. Its attention probabilities alone are 3 blocks
  x 4 heads x 512^2 float32 values, 12.6 MB.

Feature and label values are random: the memory depends on the shapes
alone. The web30k step holds about 1 GB at its peak.
"""

from __future__ import annotations

import sys
import tracemalloc
from pathlib import Path

import numpy as np

from diffrank import autodiff, training
from diffrank.letor import MAX_LABEL, Dataset
from diffrank.network import ModelConfig
from diffrank.schedule import ScheduleSpec

# the benchmark's modules, from the checkout this script sits in
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import inputs, stages

SEED = 1
K = 136


def benchmark_shape():
    """List lengths and config of the benchmark's first training batch."""
    lengths_ss = np.random.SeedSequence(SEED).spawn(4)[0]  # as inputs.make_corpus
    lengths = inputs.list_lengths(np.random.default_rng(lengths_ss), inputs.QUERIES)
    # as stages.Session.start deals the training batches
    order = np.random.default_rng(np.random.SeedSequence([SEED, 2])).permutation(lengths.size)
    return lengths[order[: stages.BATCH]], stages.train_config(SEED)


def default_config() -> training.TrainConfig:
    return training.TrainConfig(model=ModelConfig(k=K), schedule=ScheduleSpec())


def web30k_shape():
    rng = np.random.default_rng(SEED)
    lengths = np.clip(np.round(110.0 * np.exp(0.6 * rng.standard_normal(128))), 5, 1300)
    return lengths.astype(np.int64), default_config()


def longest_shape():
    config = default_config()
    return np.array([config.max_list_size]), config


def held_before_backward(lengths: np.ndarray, config: training.TrainConfig) -> tuple[int, int]:
    """(rows trained, bytes allocated in train_step when backward starts)."""
    rng = np.random.default_rng(SEED)
    n = int(lengths.sum())
    batch = Dataset(
        rng.standard_normal((n, K)),
        rng.integers(0, MAX_LABEL + 1, n),
        np.arange(n),
        np.arange(lengths.size),
        lengths,
    ).groups
    state = training.init_state(config)
    rows = int(np.minimum(lengths, config.max_list_size).sum())
    held = []
    real_backward = autodiff.backward

    def measured(loss):
        held.append(tracemalloc.get_traced_memory()[0] - start)
        real_backward(loss)

    tracemalloc.start()
    autodiff.backward = measured
    try:
        start = tracemalloc.get_traced_memory()[0]
        training.train_step(batch, state, config)
    finally:
        autodiff.backward = real_backward
        tracemalloc.stop()
    return rows, held[0]


def main() -> int:
    print(f"{'shape':<10} {'rows':>6} {'d_model':>7} {'held MB':>8} {'KB/row':>7}")
    shapes = (("benchmark", benchmark_shape), ("web30k", web30k_shape), ("longest", longest_shape))
    for name, shape in shapes:
        lengths, config = shape()
        rows, held = held_before_backward(lengths, config)
        print(
            f"{name:<10} {rows:>6} {config.model.d_model:>7} "
            f"{held / 1e6:>8.1f} {held / 1e3 / rows:>7.1f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
