"""Noising/denoising training loop.

One optimisation step processes a batch of query lists: for every list a
timestep is drawn uniformly, its labels are diffused to that timestep
with fresh Gaussian noise, the model predicts the clean labels from the
documents plus the noisy labels, and the configured ranking loss scores
the prediction. The lists run through the model as one packed graph,
their documents stacked into one matrix, so each layer runs once per
batch. The batch loss is the mean of the per-list losses, and AdamW
(decoupled weight decay) applies the update.

fit() runs the epoch loop: shuffled query batches, periodic validation
by actually running the reverse-process ranker on the validation split
and measuring NDCG@10, best-checkpoint retention, and a line-delimited
JSON training log.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, IncompatibilityError, NumericError, ShapeError
from .letor import Dataset, QueryGroup
from .losses import LossSpec, ranking_loss
from .metrics import evaluate_rankings, ranking_order
from .network import DenoiseModel, ModelConfig, save_checkpoint
from .sampling import SamplerConfig, rank_split
from .schedule import ScheduleSpec, ScheduleTable, build_schedule, q_sample

_DTYPES = ("float32", "float64")


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig
    schedule: ScheduleSpec
    loss: LossSpec = field(default_factory=lambda: LossSpec(name="mse"))
    epochs: int = 200
    batch_size: int = 128
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.01
    eval_every: int = 10
    eval_reverse_steps: int = 8
    max_list_size: int = 512
    seed: int = 0
    dtype: str = "float32"

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.lr > 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(
                f"moment decays must lie in [0, 1), got {self.beta1}, {self.beta2}"
            )
        if self.adam_eps <= 0:
            raise ConfigError(f"adam_eps must be positive, got {self.adam_eps}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.eval_reverse_steps < 1:
            raise ConfigError(
                f"eval_reverse_steps must be >= 1, got {self.eval_reverse_steps}"
            )
        if self.max_list_size < 1:
            raise ConfigError(f"max_list_size must be >= 1, got {self.max_list_size}")
        if self.dtype not in _DTYPES:
            raise ConfigError(f"dtype must be one of {_DTYPES}, got {self.dtype!r}")


class AdamW:
    """Adam with decoupled weight decay.

    The decay multiplies parameters by (1 - lr * weight_decay) before the
    moment-based step, so it never flows through the adaptive scaling;
    with weight_decay = 0 this is exactly Adam.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name in sorted(self.params):
            p = self.params[name]
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ShapeError(
                    f"gradient shape {g.shape} does not match parameter "
                    f"{name} shape {p.data.shape}"
                )
            if self.weight_decay != 0.0:
                p.data *= 1.0 - self.lr * self.weight_decay
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


@dataclass
class TrainState:
    model: DenoiseModel
    optimizer: AdamW
    table: ScheduleTable
    rng: np.random.Generator


@dataclass
class TrainResult:
    best_path: str
    best_metric: float
    log: list[dict]
    log_path: str


def sample_timestep(rng: np.random.Generator, timesteps: int) -> int:
    """Uniform draw from {1..T}."""
    if timesteps < 1:
        raise ConfigError(f"timesteps must be >= 1, got {timesteps}")
    return int(rng.integers(1, timesteps + 1))


def init_state(config: TrainConfig) -> TrainState:
    # Streams 0/1 drive init and steps; fit() takes 2/3 of the same root.
    init_ss, step_ss, _, _ = np.random.SeedSequence(config.seed).spawn(4)
    model = DenoiseModel(
        config.model, config.schedule, dtype=config.dtype, seed=init_ss
    )
    optimizer = AdamW(
        model.params,
        lr=config.lr,
        beta1=config.beta1,
        beta2=config.beta2,
        eps=config.adam_eps,
        weight_decay=config.weight_decay,
    )
    table = build_schedule(config.schedule)
    return TrainState(
        model=model,
        optimizer=optimizer,
        table=table,
        rng=np.random.default_rng(step_ss),
    )


def train_step(batch: list[QueryGroup], state: TrainState, config: TrainConfig) -> float:
    """One noising/denoising update over a batch of query lists.

    Each query draws its timestep, then its noise, in batch order. The
    batch then runs as one packed forward pass (see DenoiseModel.encode),
    and each query's loss is taken on its own rows.
    """
    if not batch:
        raise ConfigError("train_step needs a non-empty batch")
    model = state.model
    timesteps = state.table.timesteps
    cap = config.max_list_size
    feats, labels, steps, noisy = [], [], [], []
    for group in batch:
        y0 = group.labels()[:cap]
        t = sample_timestep(state.rng, timesteps)
        eps = state.rng.standard_normal(y0.size)
        feats.append(group.feature_matrix()[:cap])
        labels.append(y0)
        steps.append(t)
        noisy.append(q_sample(y0, t, eps, state.table))
    lengths = np.array([y.size for y in labels])
    y_hat = model.predict_y0(
        np.concatenate(feats),
        np.concatenate(noisy),
        t=np.array(steps),
        segments=lengths,
        training=True,
        rng=state.rng,
    )
    total = None
    for group, t, y0, end in zip(batch, steps, labels, np.cumsum(lengths)):
        rows = ad.embedding_lookup(y_hat, np.arange(end - y0.size, end))
        q_loss = ranking_loss(config.loss, rows, y0)
        if not np.isfinite(q_loss.data).all():
            raise NumericError(
                f"non-finite training loss for query id {group.qid} at timestep {t}"
            )
        total = q_loss if total is None else ad.add(total, q_loss)
    loss = ad.scale(total, 1.0 / len(batch))
    model.zero_grads()
    loss.backward()
    state.optimizer.step()
    return float(loss.data)


def _validate_ndcg10(
    model: DenoiseModel,
    valid: Dataset,
    table: ScheduleTable,
    reverse_steps: int,
    seed_seq: np.random.SeedSequence,
) -> float:
    cfg = SamplerConfig(reverse_steps=min(reverse_steps, table.timesteps))
    scores = rank_split(model, valid.groups, table, cfg, seed_seq=seed_seq)
    report = evaluate_rankings(
        [g.labels() for g in valid.groups],
        [ranking_order(runs[0]) for runs in scores],
        cutoffs=(10,),
    )
    return float(report.values["ndcg"][10])


def fit(
    train: Dataset, valid: Dataset, config: TrainConfig, out_dir: str
) -> TrainResult:
    """Full training loop; returns the best checkpoint and the epoch log."""
    if train.k != config.model.k:
        raise IncompatibilityError(
            f"model expects {config.model.k} features, training data has {train.k}"
        )
    if valid.k != train.k:
        raise IncompatibilityError(
            f"validation data has {valid.k} features, training data has {train.k}"
        )
    os.makedirs(out_dir, exist_ok=True)
    state = init_state(config)
    n_params = state.model.num_parameters()
    _, _, shuffle_ss, eval_ss = np.random.SeedSequence(config.seed).spawn(4)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    best_path = os.path.join(out_dir, "best.ckpt")
    best_metric = float("-inf")
    log: list[dict] = []
    groups = list(train.groups)
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(groups))
        losses = []
        for start in range(0, len(groups), config.batch_size):
            batch = [groups[i] for i in order[start : start + config.batch_size]]
            losses.append(train_step(batch, state, config))
        epoch_loss = float(np.mean(losses))
        if not math.isfinite(epoch_loss):
            raise NumericError(f"epoch {epoch} produced a non-finite mean loss")
        entry: dict = {"epoch": epoch, "loss": epoch_loss}
        if epoch % config.eval_every == 0 or epoch == config.epochs:
            metric = _validate_ndcg10(
                state.model,
                valid,
                state.table,
                config.eval_reverse_steps,
                eval_ss.spawn(1)[0],
            )
            if not math.isfinite(metric):
                raise NumericError(f"validation metric at epoch {epoch} is not finite")
            entry["valid_ndcg10"] = metric
            if metric > best_metric:
                best_metric = metric
                save_checkpoint(state.model, best_path)
        if state.model.num_parameters() != n_params:
            raise NumericError("parameter count changed during training")
        log.append(entry)
    log_path = os.path.join(out_dir, "train_log.jsonl")
    with open(log_path, "w", encoding="utf-8") as fh:
        for entry in log:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return TrainResult(
        best_path=best_path,
        best_metric=best_metric,
        log=log,
        log_path=log_path,
    )
