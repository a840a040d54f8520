"""Differentiable training objectives over predicted relevance scores.

Every loss takes the predicted scores as an autodiff tensor shaped (n, 1)
or (n,) and the integer labels as a plain array.

The pairwise and listwise forms:
  * ranknet       sum over label-ordered pairs of log(1 + exp(s_j - s_i))
  * listnet       cross-entropy between softmax(labels) and softmax(scores)
  * approxndcg    negative smoothed NDCG via rank pi(i) = 1/2 + sum_j
                  sigmoid((s_j - s_i) / t_smooth), value in [-1, 0]
  * ndcgloss2pp   pairwise logistic log2-loss weighted by
                  (rho_ij + mu * delta_ij) * |G_i - G_j| with position
                  terms taken from the current score-sorted permutation,
                  which is treated as a constant during differentiation
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .metrics import ranking_order

LOSS_NAMES = ("mse", "rmse", "ranknet", "listnet", "approxndcg", "ndcgloss2pp")

RMSE_EPS = 1e-12
LN2 = math.log(2.0)


@dataclass(frozen=True)
class LossSpec:
    name: str = "listnet"
    t_smooth: float = 1.0
    mu: float = 10.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.name not in LOSS_NAMES:
            raise ConfigError(f"unknown loss {self.name!r}; expected one of {LOSS_NAMES}")
        if self.t_smooth <= 0:
            raise ConfigError(f"t_smooth must be positive, got {self.t_smooth}")


def _zero_like(y_hat: Tensor) -> Tensor:
    return ad.scale(ad.tensor_sum(y_hat), 0.0)


def _select(y_hat: Tensor, labels: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """(scores as a (1, n) row, labels (n,))."""
    row = ad.reshape(y_hat, (1, -1))
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    if row.data.shape[1] != labels.size:
        raise ValueError(
            f"scores cover {row.data.shape[1]} documents, labels {labels.size}"
        )
    return row, labels


def _pairwise_grids(row: Tensor) -> tuple[Tensor, Tensor]:
    """From scores s as (1, m): matrices A_ij = s_j and B_ij = s_i."""
    m = row.data.shape[1]
    ones_col = Tensor(np.ones((m, 1), dtype=row.data.dtype))
    ones_row = Tensor(np.ones((1, m), dtype=row.data.dtype))
    a = ad.matmul(ones_col, row)
    b = ad.matmul(ad.reshape(row, (-1, 1)), ones_row)
    return a, b


def _max_dcg(labels: np.ndarray) -> float:
    ordered = np.sort(labels)[::-1]
    ranks = np.arange(1, ordered.size + 1)
    return float(((2.0**ordered - 1.0) / np.log2(1.0 + ranks)).sum())


def _mse(row: Tensor, labels: np.ndarray) -> Tensor:
    target = Tensor(labels.reshape(1, -1).astype(row.data.dtype))
    d = ad.sub(row, target)
    return ad.tensor_mean(ad.mul(d, d))


def _rmse(row: Tensor, labels: np.ndarray) -> Tensor:
    guarded = ad.add(_mse(row, labels), Tensor(np.asarray(RMSE_EPS)))
    return ad.sqrt(guarded)


def _ranknet(row: Tensor, labels: np.ndarray) -> Tensor:
    pair = (labels[:, None] > labels[None, :]).astype(row.data.dtype)
    if not pair.any():
        return _zero_like(row)
    a, b = _pairwise_grids(row)
    score_gap = ad.sub(a, b)  # entry ij holds s_j - s_i
    return ad.tensor_sum(ad.mul(Tensor(pair), ad.softplus(score_gap)))


def _listnet(row: Tensor, labels: np.ndarray) -> Tensor:
    shifted = labels - labels.max()
    target = np.exp(shifted) / np.exp(shifted).sum()
    log_pred = ad.log(ad.softmax(row))
    return ad.scale(ad.tensor_sum(ad.mul(Tensor(target.reshape(1, -1)), log_pred)), -1.0)


def _approxndcg(row: Tensor, labels: np.ndarray, t_smooth: float) -> Tensor:
    max_dcg = _max_dcg(labels)
    if max_dcg == 0.0:
        return _zero_like(row)
    a, b = _pairwise_grids(row)
    smooth = ad.sigmoid(ad.scale(ad.sub(a, b), 1.0 / t_smooth))
    pi = ad.add(ad.tensor_sum(smooth, axis=1), Tensor(np.asarray(0.5)))
    denom = ad.scale(ad.log(ad.add(pi, Tensor(np.asarray(1.0)))), 1.0 / LN2)
    gains = Tensor((2.0**labels - 1.0).reshape(-1, 1))
    dcg = ad.tensor_sum(ad.mul(gains, ad.reciprocal(denom)))
    return ad.scale(dcg, -1.0 / max_dcg)


def _ndcgloss2pp(row: Tensor, labels: np.ndarray, mu: float, sigma: float) -> Tensor:
    pair = labels[:, None] > labels[None, :]
    if not pair.any():
        return _zero_like(row)
    max_dcg = _max_dcg(labels)
    order = ranking_order(row.data.reshape(-1))
    ranks = np.empty(labels.size, dtype=np.float64)
    ranks[order] = np.arange(1, labels.size + 1)
    inv_d = 1.0 / np.log2(1.0 + ranks)
    rho = np.abs(inv_d[:, None] - inv_d[None, :])
    gap = np.abs(ranks[:, None] - ranks[None, :])
    gap_safe = np.maximum(gap, 1.0)  # diagonal only; the pair mask kills it
    delta = np.abs(1.0 / np.log2(1.0 + gap_safe) - 1.0 / np.log2(2.0 + gap_safe))
    gains = (2.0**labels - 1.0) / max_dcg
    gain_gap = np.abs(gains[:, None] - gains[None, :])
    weights = np.where(pair, (rho + mu * delta) * gain_gap, 0.0)
    a, b = _pairwise_grids(row)
    margin = ad.sub(b, a)  # entry ij holds s_i - s_j
    # -log2(sigmoid(sigma * x)) == softplus(-sigma * x) / ln 2
    logistic = ad.softplus(ad.scale(margin, -sigma))
    return ad.scale(ad.tensor_sum(ad.mul(Tensor(weights), logistic)), 1.0 / LN2)


def ranking_loss(spec: LossSpec, y_hat: Tensor, labels) -> Tensor:
    row, kept = _select(y_hat, labels)
    if spec.name == "mse":
        return _mse(row, kept)
    if spec.name == "rmse":
        return _rmse(row, kept)
    if spec.name == "ranknet":
        return _ranknet(row, kept)
    if spec.name == "listnet":
        return _listnet(row, kept)
    if spec.name == "approxndcg":
        return _approxndcg(row, kept, spec.t_smooth)
    return _ndcgloss2pp(row, kept, spec.mu, spec.sigma)

