"""Noise schedules and the forward / reverse Gaussian process arithmetic.

A schedule is a table over discrete steps t = 1..T holding the per-step
noise variance beta_t, the running product alpha_bar_t of 1 - beta_t and
the reverse-step posterior variance beta_tilde_t, each computed once, in
`_finalize`. alpha_bar(0) is defined as 1 (no noise).

All four kinds are, after derivation of a raw beta series, clipped to
[1e-8, 0.999] and re-accumulated, which keeps every invariant
(beta strictly inside (0, 1), alpha_bar strictly decreasing) intact even
at the final step where the raw formulas collapse to 0 or below.
build_schedule also requires a table of T >= 200 steps to end almost
fully noised (shorter tables cannot for every kind); strided_table
checks only the structural invariants, since its visited steps need not
reach T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_integers

BETA_MIN = 1e-8
BETA_MAX = 0.999
TERMINAL_ALPHA_BAR = 0.01
MAX_TIMESTEPS = 10000


@dataclass(frozen=True)
class ScheduleSpec:
    kind: str = "trunclinear"
    timesteps: int = 1000

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ConfigError(
                f"unknown schedule kind {self.kind!r}; expected one of {SCHEDULE_KINDS}"
            )
        require_integers(self, ("timesteps",))
        if not 1 <= self.timesteps <= MAX_TIMESTEPS:
            raise ConfigError(
                f"timesteps must lie in [1, {MAX_TIMESTEPS}], got {self.timesteps}"
            )


@dataclass(frozen=True)
class ScheduleTable:
    """Immutable per-step coefficients, 1-based access via the *_at methods."""

    kind: str
    timesteps: int
    beta: np.ndarray
    alpha_bar: np.ndarray
    beta_tilde: np.ndarray

    def _check_t(self, t: int, low: int = 1) -> None:
        if not low <= t <= self.timesteps:
            raise IndexError(
                f"timestep {t} outside [{low}, {self.timesteps}] for this schedule"
            )

    def beta_at(self, t: int) -> float:
        self._check_t(t)
        return float(self.beta[t - 1])

    def alpha_at(self, t: int) -> float:
        self._check_t(t)
        return 1.0 - float(self.beta[t - 1])

    def alpha_bar_at(self, t: int) -> float:
        if t == 0:
            return 1.0
        self._check_t(t)
        return float(self.alpha_bar[t - 1])

    def beta_tilde_at(self, t: int) -> float:
        self._check_t(t, low=2)
        return float(self.beta_tilde[t - 1])

    def validate(self) -> None:
        """Raise ConfigError if any structural invariant is violated."""
        if not np.all(np.isfinite(self.beta)):
            raise ConfigError("schedule produced non-finite beta values")
        if np.any(self.beta <= 0.0) or np.any(self.beta >= 1.0):
            raise ConfigError("schedule produced beta outside (0, 1)")
        if np.any(np.diff(self.alpha_bar) >= 0) or self.alpha_bar[0] >= 1.0:
            raise ConfigError("alpha_bar must be strictly decreasing from below 1")
        if np.any(self.alpha_bar <= 0.0):
            raise ConfigError("alpha_bar must stay strictly positive")


def _linear_betas(T: int) -> np.ndarray:
    # endpoints follow the common 1000-step defaults; rescaling by 1000/T
    # keeps the total injected noise (and so the terminal alpha_bar)
    # roughly constant across table sizes
    s = 1000.0 / T
    return np.linspace(1e-4 * s, 0.02 * s, T)


def _cosine_betas(T: int) -> np.ndarray:
    s = 0.008
    t = np.arange(T + 1, dtype=np.float64)
    f = np.cos(((t / T + s) / (1.0 + s)) * math.pi / 2.0) ** 2
    return 1.0 - f[1:] / f[:-1]


def _sqrt_betas(T: int) -> np.ndarray:
    s = 1e-4
    t = np.arange(T + 1, dtype=np.float64)
    abar = 1.0 - np.sqrt(t / T + s)
    abar[0] = 1.0
    abar = np.clip(abar, 1e-12, 1.0 - 1e-12)
    return 1.0 - abar[1:] / abar[:-1]


def _trunclinear_betas(T: int) -> np.ndarray:
    # piecewise linear alpha_bar: a fast drop to 0.5 by T/2, then a slow
    # tail; the floor on the terminal value keeps the first half's drop
    # strictly larger than the second half's for every T >= 4
    half = T // 2
    a_end = min(0.45, max(0.005, 1.5 / T))
    abar = np.empty(T + 1, dtype=np.float64)
    abar[0] = 1.0
    if half >= 1:
        abar[1 : half + 1] = 1.0 - (0.5 / half) * np.arange(1, half + 1)
    if T > half:
        steps = T - half
        start = abar[half]
        abar[half + 1 :] = start - ((start - a_end) / steps) * np.arange(1, steps + 1)
    return 1.0 - abar[1:] / abar[:-1]


_BUILDERS = {
    "linear": _linear_betas,
    "cosine": _cosine_betas,
    "sqrt": _sqrt_betas,
    "trunclinear": _trunclinear_betas,
}
SCHEDULE_KINDS = tuple(_BUILDERS)


def _finalize(kind: str, betas: np.ndarray) -> ScheduleTable:
    beta = np.asarray(betas, dtype=np.float64)
    alpha_bar = np.cumprod(1.0 - beta)
    beta_tilde = np.empty_like(beta)
    beta_tilde[0] = 0.0
    if beta.size >= 2:
        beta_tilde[1:] = (1.0 - alpha_bar[:-1]) / (1.0 - alpha_bar[1:]) * beta[1:]
    table = ScheduleTable(
        kind=kind,
        timesteps=int(beta.size),
        beta=beta,
        alpha_bar=alpha_bar,
        beta_tilde=beta_tilde,
    )
    for arr in (table.beta, table.alpha_bar, table.beta_tilde):
        arr.setflags(write=False)
    table.validate()
    return table


def build_schedule(spec: ScheduleSpec) -> ScheduleTable:
    """The validated table of a (kind, T); from T = 200 on, alpha_bar_T
    must also lie below TERMINAL_ALPHA_BAR."""
    betas = _BUILDERS[spec.kind](spec.timesteps)
    table = _finalize(spec.kind, np.clip(betas, BETA_MIN, BETA_MAX))
    if spec.timesteps >= 200 and table.alpha_bar[-1] >= TERMINAL_ALPHA_BAR:
        raise ConfigError(
            f"terminal alpha_bar {table.alpha_bar[-1]:.6g} is not below "
            f"{TERMINAL_ALPHA_BAR}; labels would keep signal at t = T"
        )
    return table


def strided_table(table: ScheduleTable, visited: list[int]) -> ScheduleTable:
    """Schedule over an ascending subsequence of original timesteps.

    Per-step alphas are ratios of the original alpha_bar values, so the
    marginal at each visited step is preserved exactly.
    """
    if sorted(visited) != list(visited) or len(set(visited)) != len(visited):
        raise ConfigError("visited timesteps must be strictly ascending")
    abar = np.array([table.alpha_bar_at(t) for t in visited], dtype=np.float64)
    prev = np.concatenate(([1.0], abar[:-1]))
    betas = 1.0 - abar / prev
    # Exact ratios already lie in (0, 1), and build_schedule's clip would
    # break marginal preservation on wide jumps. The cap below only binds when
    # 1 - ratio is not representable in float64 (ratio < ~1e-16), where the
    # posterior coefficients are insensitive to it.
    betas = np.minimum(betas, 1.0 - 1e-12)
    return _finalize(table.kind, betas)


def q_sample(y0: np.ndarray, t: int, eps: np.ndarray, table: ScheduleTable) -> np.ndarray:
    """Noised labels at step t: sqrt(abar_t) * y0 + sqrt(1 - abar_t) * eps."""
    table._check_t(t)
    y0 = np.asarray(y0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if y0.shape != eps.shape:
        raise ValueError(f"y0 shape {y0.shape} does not match eps shape {eps.shape}")
    ab = table.alpha_bar_at(t)
    return math.sqrt(ab) * y0 + math.sqrt(1.0 - ab) * eps


def posterior(
    y_t: np.ndarray, y0: np.ndarray, t: int, table: ScheduleTable
) -> tuple[np.ndarray, float]:
    """Mean and (scalar, isotropic) variance of the reverse step t -> t-1."""
    if t < 2:
        raise ValueError(f"posterior requires t >= 2, got t = {t}")
    y_t = np.asarray(y_t, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64)
    ab_t = table.alpha_bar_at(t)
    ab_prev = table.alpha_bar_at(t - 1)
    beta_t = table.beta_at(t)
    alpha_t = table.alpha_at(t)
    coef0 = math.sqrt(ab_prev) * beta_t / (1.0 - ab_t)
    coef_t = math.sqrt(alpha_t) * (1.0 - ab_prev) / (1.0 - ab_t)
    return coef0 * y0 + coef_t * y_t, table.beta_tilde_at(t)


def reconstruct_y0(
    y_t: np.ndarray, eps_hat: np.ndarray, t: int, table: ScheduleTable
) -> np.ndarray:
    """Invert the marginal: y0 = (y_t - sqrt(1 - abar_t) * eps) / sqrt(abar_t)."""
    table._check_t(t)
    y_t = np.asarray(y_t, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    ab = table.alpha_bar_at(t)
    return (y_t - math.sqrt(1.0 - ab) * eps_hat) / math.sqrt(ab)
