"""Iterative denoising inference.

Ranking a query starts from pure Gaussian noise in label space and
alternates two moves along a descending set of timesteps: ask the model
for the clean labels, then draw the previous-step noisy labels from the
closed-form posterior around that estimate. At the last visited step the
model's estimate is returned directly (no noise is added), and documents
are ordered by that estimate, ties broken by list position.

Fewer iterations than the training horizon are supported by visiting a
uniformly spaced subset of timesteps and re-deriving the posterior
coefficients for the visited subsequence from cumulative
signal-retention ratios, so the marginal noise level at each visited
step is unchanged.

The encoder sees only the document features, and within one reverse
process only the noisy label and the timestep change. So each rank_* call
builds the timestep gates of all visited steps once, a query is encoded
once, and the context's share of the first denoise layer is computed once
on its documents; each visited step then costs one call to
DenoiseModel.denoise, which runs only the layers the noisy label reaches.
Repeated runs of one query share that work and advance as one stacked
batch of chains, each drawing from its own generator.

rank_split ranks every query of a split with one strided schedule and one
documented rule for the random stream each query draws from; every
command that ranks a whole split goes through it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, IncompatibilityError, NumericError
from .letor import QueryGroup
from .metrics import ranking_order
from .network import DenoiseModel
from .schedule import ScheduleTable, posterior, strided_table


@dataclass(frozen=True)
class SamplerConfig:
    reverse_steps: int = 8
    seed: int = 0
    zero_variance: bool = False

    def __post_init__(self):
        if self.reverse_steps < 1:
            raise ConfigError(
                f"reverse_steps must be >= 1, got {self.reverse_steps}"
            )


@dataclass(frozen=True)
class RankOutput:
    scores: np.ndarray  # (n,) predicted clean labels
    order: np.ndarray  # (n,) document indices, best first


def stride_schedule(timesteps: int, reverse_steps: int) -> list[int]:
    """Uniformly spaced descending subset of {1..T} starting at T, ending at 1."""
    if reverse_steps < 1:
        raise ConfigError(f"reverse_steps must be >= 1, got {reverse_steps}")
    if reverse_steps > timesteps:
        raise ConfigError(
            f"reverse_steps ({reverse_steps}) exceeds schedule length ({timesteps})"
        )
    if reverse_steps == 1:
        return [timesteps]
    # the spacing is 1 or at least 1 + 1/(T-2), so rounded steps stay distinct
    spacing = (timesteps - 1) / (reverse_steps - 1)
    return [round(timesteps - i * spacing) for i in range(reverse_steps)]


def _strided(
    model: DenoiseModel, table: ScheduleTable, cfg: SamplerConfig
) -> tuple[ScheduleTable, list[ad.Tensor]]:
    """The table re-derived over the visited steps of one rank_* call, and
    the timestep-embedding row of each visited step (descending), from one
    timestep_embedding call."""
    spec = model.schedule
    if table.kind != spec.kind or table.timesteps != spec.timesteps:
        raise IncompatibilityError(
            f"model was trained with schedule {spec.kind}/T={spec.timesteps}, "
            f"sampler was given {table.kind}/T={table.timesteps}"
        )
    visited = stride_schedule(table.timesteps, cfg.reverse_steps)
    with ad.no_grad():
        gates = model.timestep_embedding(np.array(visited)).data
    return (
        strided_table(table, list(reversed(visited))),
        [ad.Tensor(row) for row in gates[:, None, :]],
    )


def _reverse(
    model: DenoiseModel,
    features: np.ndarray,
    schedule: tuple[ScheduleTable, list[ad.Tensor]],
    cfg: SamplerConfig,
    rngs: list[np.random.Generator],
) -> np.ndarray:
    """Run one reverse chain per generator on one query; (M, n) scores.

    `schedule` is what _strided returns. The documents are encoded once,
    and the context's share of the first denoise layer is computed once on
    their n rows. The M chains share it, tiled to M*n rows, so each visited
    step is one denoise call. Chain m draws only from rngs[m]: its starting
    noise, then one draw per non-final step.
    """
    effective, gates = schedule
    features = np.asarray(features)
    n, m = features.shape[0], len(rngs)
    y = np.stack([rng.standard_normal(n) for rng in rngs])
    steps = len(gates)
    with ad.no_grad():
        first = model.denoise_input(model.encode(features))
        first = ad.Tensor(np.tile(first.data, (m, 1)))
        for j in range(steps, 0, -1):
            y_hat = model.denoise(first, y, gates[steps - j]).data
            y_hat = np.asarray(y_hat, dtype=np.float64).reshape(m, n)
            if j > 1:
                mean, var = posterior(y, y_hat, j, effective)
                if cfg.zero_variance:
                    y = mean
                else:
                    noise = np.stack([rng.standard_normal(n) for rng in rngs])
                    y = mean + np.sqrt(var) * noise
    if not np.all(np.isfinite(y_hat)):
        raise NumericError("reverse process produced non-finite scores")
    return y_hat


def rank_query(
    model: DenoiseModel,
    features: np.ndarray,
    table: ScheduleTable,
    cfg: SamplerConfig,
    rng: np.random.Generator | None = None,
) -> RankOutput:
    """Run the reverse process on one query list and rank its documents."""
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    scores = _reverse(model, features, _strided(model, table, cfg), cfg, [rng])[0]
    return RankOutput(scores=scores, order=ranking_order(scores))


def rank_query_repeated(
    model: DenoiseModel,
    features: np.ndarray,
    table: ScheduleTable,
    cfg: SamplerConfig,
    repeats: int,
) -> list[RankOutput]:
    """Independent repeated rankings with per-run child RNG streams, run as
    one stacked batch of chains."""
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    children = np.random.SeedSequence(cfg.seed).spawn(repeats)
    rngs = [np.random.default_rng(child) for child in children]
    return [
        RankOutput(scores=scores, order=ranking_order(scores))
        for scores in _reverse(model, features, _strided(model, table, cfg), cfg, rngs)
    ]


def rank_split(
    model: DenoiseModel,
    groups: Sequence[QueryGroup],
    table: ScheduleTable,
    cfg: SamplerConfig,
    repeats: int = 1,
    seed_seq: np.random.SeedSequence | None = None,
) -> list[np.ndarray]:
    """Rank every query of a split; one (repeats, n) score array per query,
    in group order.

    The strided schedule and its timestep gates are built once for the
    whole split. Streams: query i draws from child i, the sequence that
    seed_seq.spawn(len(groups))[i] returns while seed_seq is fresh;
    seed_seq, which defaults to SeedSequence(cfg.seed), is left as it
    was, so calls that share it draw the same noise. A single chain seeds
    its generator with that child directly, so it ranks exactly as
    rank_query(..., rng=default_rng(child)); with repeats > 1, chain m
    uses child.spawn(repeats)[m], so no two queries share a stream.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    schedule = _strided(model, table, cfg)
    if seed_seq is None:
        seed_seq = np.random.SeedSequence(cfg.seed)
    out = []
    for i, group in enumerate(groups):
        # what seed_seq.spawn would return on a fresh sequence, without
        # advancing the caller's
        child = np.random.SeedSequence(
            seed_seq.entropy,
            spawn_key=seed_seq.spawn_key + (i,),
            pool_size=seed_seq.pool_size,
        )
        streams = [child] if repeats == 1 else child.spawn(repeats)
        rngs = [np.random.default_rng(s) for s in streams]
        out.append(_reverse(model, group.feature_matrix(), schedule, cfg, rngs))
    return out
