"""Finite-difference gradient verification.

The numeric side never touches the reverse-mode engine: it re-evaluates
the forward function at perturbed inputs, so agreement between the two
routes is a real check rather than a tautology.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from .losses import LOSS_NAMES, LossSpec, ranking_loss

FD_STEP = 1e-5
GRAD_TOL = 1e-4
TRIALS = 20  # random instances per check, criterion 1's gate


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max over coordinates of |analytic - numeric| / max(1, |numeric|)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.abs(numeric))
    if analytic.size == 0:
        return 0.0
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_gradients(
    f: Callable[[Sequence[np.ndarray]], float],
    arrays: Sequence[np.ndarray],
    analytic: Sequence[np.ndarray],
) -> float:
    """Worst relative error between analytic grads and central finite
    differences taken coordinate by coordinate."""
    work = [np.array(a, dtype=np.float64) for a in arrays]
    errors = []
    for a, grad in zip(work, analytic):
        numeric = np.zeros_like(a)
        flat, nflat = a.reshape(-1), numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            up = f(work)
            flat[i] = orig - FD_STEP
            down = f(work)
            flat[i] = orig
            nflat[i] = (up - down) / (2.0 * FD_STEP)
        errors.append(relative_error(grad, numeric))
    return max(errors)


def check_directional(
    f: Callable[[Sequence[np.ndarray]], float],
    arrays: Sequence[np.ndarray],
    analytic: Sequence[np.ndarray],
    rng: np.random.Generator,
) -> float:
    """Worst relative error over TRIALS random directions, each against a
    central finite difference along that direction.

    Cheap enough for whole-model checks where coordinatewise FD would
    need two forward passes per parameter.
    """
    worst = 0.0
    for _ in range(TRIALS):
        dirs = [rng.standard_normal(a.shape) for a in arrays]
        norm = np.sqrt(sum(float((d * d).sum()) for d in dirs))
        dirs = [d / norm for d in dirs]
        up = [np.asarray(a, dtype=np.float64) + FD_STEP * d for a, d in zip(arrays, dirs)]
        down = [np.asarray(a, dtype=np.float64) - FD_STEP * d for a, d in zip(arrays, dirs)]
        numeric = (f(up) - f(down)) / (2.0 * FD_STEP)
        dot = sum(float((g * d).sum()) for g, d in zip(analytic, dirs))
        worst = max(worst, relative_error(np.asarray(dot), np.asarray(numeric)))
    return worst


# ---------------------------------------------------------------------------
# runnable self-check suite (the `gradcheck` command and the integrity
# acceptance test both drive it)


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst: float

    @property
    def passed(self) -> bool:
        return np.isfinite(self.worst) and self.worst <= GRAD_TOL


def _normal(*shapes):
    """make_inputs drawing one standard-normal array per shape, in order."""
    return lambda r: [r.standard_normal(s) for s in shapes]


# (name, make_inputs, op) covering every differentiable engine op.
# make_inputs(rng) draws the input arrays and op maps their tensors to the
# op's output. Each op sits behind a lambda, so it is looked up in the
# engine module at call time.
OP_CASES = (
    ("matmul", _normal((3, 4), (4, 2)), lambda ts: ad.matmul(*ts)),
    ("add", _normal((3, 4), (3, 4)), lambda ts: ad.add(*ts)),
    ("add_scalar", _normal((3, 4), (1, 1)), lambda ts: ad.add(*ts)),
    ("add_row", _normal((3, 4), (1, 4)), lambda ts: ad.add(*ts)),
    ("sub", _normal((3, 4), (3, 4)), lambda ts: ad.sub(*ts)),
    ("mul", _normal((3, 4), (3, 4)), lambda ts: ad.mul(*ts)),
    ("mul_scalar", _normal((3, 4), (1, 1)), lambda ts: ad.mul(*ts)),
    ("mul_row", _normal((1, 4), (3, 4)), lambda ts: ad.mul(*ts)),
    ("scale", _normal((3, 4)), lambda ts: ad.scale(ts[0], -1.7)),
    ("slice_cols", _normal((3, 5)), lambda ts: ad.slice_cols(ts[0], 1, 4)),
    ("reshape", _normal((3, 4)), lambda ts: ad.reshape(ts[0], (2, 6))),
    (
        "embedding_lookup",
        _normal((6, 4)),
        lambda ts: ad.embedding_lookup(ts[0], np.array([0, 2, 2, 5])),
    ),
    ("softplus", _normal((3, 4)), lambda ts: ad.softplus(ts[0])),
    ("sigmoid", _normal((3, 4)), lambda ts: ad.sigmoid(ts[0])),
    (
        "log",
        lambda r: [0.5 + np.abs(r.standard_normal((3, 4)))],
        lambda ts: ad.log(ts[0]),
    ),
    (
        "sqrt",
        lambda r: [0.5 + np.abs(r.standard_normal((3, 4)))],
        lambda ts: ad.sqrt(ts[0]),
    ),
    (
        "reciprocal",
        lambda r: [
            np.sign(r.standard_normal((3, 4))) * (1.0 + np.abs(r.standard_normal((3, 4))))
        ],
        lambda ts: ad.reciprocal(ts[0]),
    ),
    (
        "softmax",
        lambda r: [2.0 * r.standard_normal((3, 4))],
        lambda ts: ad.softmax(ts[0]),
    ),
    ("tensor_sum", _normal((3, 4)), lambda ts: ad.tensor_sum(ts[0])),
    ("tensor_sum_axis0", _normal((3, 4)), lambda ts: ad.tensor_sum(ts[0], axis=0)),
    ("tensor_mean", _normal((3, 4)), lambda ts: ad.tensor_mean(ts[0])),
    (
        "layer_norm",
        lambda r: [
            r.standard_normal((3, 4)),
            1.0 + 0.1 * r.standard_normal((1, 4)),
            0.1 * r.standard_normal((1, 4)),
        ],
        lambda ts: ad.layer_norm(*ts),
    ),
    (
        "attention",
        _normal((6, 4), (6, 4), (6, 4)),
        # three ragged segments, two heads of width 2
        lambda ts: ad.attention(*ts, [1, 3, 2], heads=2),
    ),
    (
        "dropout",
        _normal((3, 4)),
        # a fresh identically seeded generator per call keeps the mask
        # constant across the FD stencil
        lambda ts: ad.dropout(ts[0], 0.3, rng=np.random.default_rng(1234)),
    ),
    ("linear", _normal((3, 4), (4, 2), (1, 2)), lambda ts: ad.linear(*ts)),
)


def _op_check(index: int, make_inputs, op) -> float:
    """Worst FD error for one op case over TRIALS random instances.

    Each instance draws its inputs, then a cotangent weight of op's output
    shape, and checks the gradient of sum(op(inputs) * weight), so each
    op's backward sees a generic cotangent.
    """
    rng = np.random.default_rng([0, index])
    worst = 0.0
    for _ in range(TRIALS):
        arrays = make_inputs(rng)
        leaves = [ad.Tensor(np.array(a), requires_grad=True) for a in arrays]
        out = op(leaves)
        weight = ad.Tensor(rng.standard_normal(out.data.shape))
        ad.backward(ad.tensor_sum(ad.mul(out, weight)))

        def f(arrs):
            out = op([ad.Tensor(np.array(a)) for a in arrs])
            return ad.tensor_sum(ad.mul(out, weight)).item()

        worst = max(worst, check_gradients(f, arrays, [leaf.grad for leaf in leaves]))
    return worst


def loss_gradient_check(spec: LossSpec) -> float:
    """Worst relative error between engine gradients and central finite
    differences over TRIALS random 6-document (scores, labels) instances."""
    rng = np.random.default_rng(0)
    n = 6
    worst = 0.0
    for _ in range(TRIALS):
        labels = rng.integers(0, 5, size=n).astype(np.float64)
        if labels.max() == 0:
            labels[rng.integers(0, n)] = rng.integers(1, 5)
        scores = rng.standard_normal(n) * 2.0
        # keep scores pairwise separated so the rank-dependent losses do
        # not cross a sorting boundary inside the FD stencil
        scores = np.sort(scores) + np.arange(n) * 1e-2
        rng.shuffle(scores)

        def f(arrays):
            t = ad.Tensor(arrays[0].reshape(-1, 1))
            return ranking_loss(spec, t, labels).item()

        leaf = ad.Tensor(scores.reshape(-1, 1), requires_grad=True)
        ad.backward(ranking_loss(spec, leaf, labels))
        worst = max(
            worst, check_gradients(f, [scores], [leaf.grad.reshape(-1)])
        )
    return worst


# (label, attention on, segment lengths, one timestep or one per segment):
# one query in both encoder modes, and two ragged queries packed into one
# graph
MODEL_CASES = (
    ("attention", True, [3], 5),
    ("feedforward", False, [3], 5),
    ("packed", True, [2, 3], [5, 2]),
)


def _model_check(
    index: int, use_attention: bool, segments: list[int], t: int | list[int]
) -> float:
    """Directional FD check through the full network, TRIALS directions."""
    from .network import DenoiseModel, ModelConfig
    from .schedule import ScheduleSpec

    spec = ScheduleSpec(kind="linear", timesteps=8)
    rng = np.random.default_rng([0, index])
    config = ModelConfig(
        k=4, d_model=16, heads=2, blocks=1, denoise_layers=2,
        dropout_p=0.0, use_attention=use_attention,
    )
    model = DenoiseModel(config, spec, dtype="float64", seed=3)
    rows = sum(segments)
    feats = rng.normal(size=(rows, 4))
    y_t = rng.normal(size=rows)
    target = rng.normal(size=(rows, 1))
    names = sorted(model.params)

    def loss(m):
        diff = ad.sub(m.predict_y0(feats, y_t, t=t, segments=segments), ad.Tensor(target))
        return ad.tensor_mean(ad.mul(diff, diff))

    def f(arrays):
        params = {
            name: ad.Tensor(np.array(arr), requires_grad=True)
            for name, arr in zip(names, arrays)
        }
        return loss(DenoiseModel(config, spec, dtype="float64", params=params)).item()

    ad.backward(loss(model))
    arrays = [np.array(model.params[n].data) for n in names]
    analytic = [model.params[n].grad for n in names]
    return check_directional(f, arrays, analytic, rng)


def named_checks() -> list[tuple[str, Callable[[], float]]]:
    """(name, check) for every check the suite runs, in report order; each
    check returns its worst relative error."""
    return (
        [
            (f"op.{name}", partial(_op_check, index, make_inputs, op))
            for index, (name, make_inputs, op) in enumerate(OP_CASES)
        ]
        + [
            (f"loss.{name}", partial(loss_gradient_check, LossSpec(name=name)))
            for name in LOSS_NAMES
        ]
        + [
            (f"model.{label}", partial(_model_check, index, *case))
            for index, (label, *case) in enumerate(MODEL_CASES)
        ]
    )


def run_all_checks() -> list[CheckResult]:
    """Every integrity check the `gradcheck` command reports; a check that
    raises reports a worst error of inf."""
    results = []
    for name, check in named_checks():
        try:
            worst = check()
        except Exception:
            worst = float("inf")
        results.append(CheckResult(name=name, worst=worst))
    return results
