"""Finite-difference gradient verification.

The numeric side never touches the reverse-mode engine: it re-evaluates
the forward function at perturbed inputs, so agreement between the two
routes is a real check rather than a tautology.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .losses import LOSS_NAMES, LossSpec, ranking_loss

FD_STEP = 1e-5
GRAD_TOL = 1e-4


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max over coordinates of |analytic - numeric| / max(1, |numeric|)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.abs(numeric))
    if analytic.size == 0:
        return 0.0
    return float(np.max(np.abs(analytic - numeric) / denom))


def fd_gradients(
    f: Callable[[Sequence[np.ndarray]], float],
    arrays: Sequence[np.ndarray],
) -> list[np.ndarray]:
    """Central finite-difference gradient of f w.r.t. every array entry."""
    grads = []
    work = [np.array(a, dtype=np.float64) for a in arrays]
    for a in work:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            up = f(work)
            flat[i] = orig - FD_STEP
            down = f(work)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * FD_STEP)
        grads.append(g)
    return grads


def fd_directional(
    f: Callable[[Sequence[np.ndarray]], float],
    arrays: Sequence[np.ndarray],
    directions: Sequence[np.ndarray],
) -> float:
    """Central finite difference of f along a joint direction vector."""
    work_up = [np.array(a, dtype=np.float64) for a in arrays]
    work_down = [np.array(a, dtype=np.float64) for a in arrays]
    for a_up, a_down, d in zip(work_up, work_down, directions):
        a_up += FD_STEP * d
        a_down -= FD_STEP * d
    return (f(work_up) - f(work_down)) / (2.0 * FD_STEP)


def check_gradients(
    f: Callable[[Sequence[np.ndarray]], float],
    arrays: Sequence[np.ndarray],
    analytic: Sequence[np.ndarray],
) -> float:
    """Worst relative error between analytic grads and coordinatewise FD."""
    numeric = fd_gradients(f, arrays)
    return max(relative_error(a, n) for a, n in zip(analytic, numeric))


def check_directional(
    f: Callable[[Sequence[np.ndarray]], float],
    arrays: Sequence[np.ndarray],
    analytic: Sequence[np.ndarray],
    rng: np.random.Generator,
    n_directions: int = 4,
) -> float:
    """Worst relative error over random directions.

    Cheap enough for whole-model checks where coordinatewise FD would
    need two forward passes per parameter.
    """
    worst = 0.0
    for _ in range(n_directions):
        dirs = [rng.standard_normal(a.shape) for a in arrays]
        norm = np.sqrt(sum(float((d * d).sum()) for d in dirs))
        dirs = [d / norm for d in dirs]
        numeric = fd_directional(f, arrays, dirs)
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
    tol: float

    @property
    def passed(self) -> bool:
        return np.isfinite(self.worst) and self.worst <= self.tol


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
        lambda ts: ad.dropout(ts[0], 0.3, training=True, rng=np.random.default_rng(1234)),
    ),
    ("linear", _normal((3, 4), (4, 2), (1, 2)), lambda ts: ad.linear(*ts)),
)


def _run_op_case(make_inputs, op, rng, trials: int) -> float:
    """Worst FD error for one op case over several random instances.

    Each instance draws its inputs, then a cotangent weight of op's output
    shape, and checks the gradient of sum(op(inputs) * weight), so each
    op's backward sees a generic cotangent.
    """
    worst = 0.0
    for _ in range(trials):
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


def op_gradient_checks(seed: int = 0, trials: int = 5) -> list[CheckResult]:
    """Coordinatewise FD check for every engine op, several instances each."""
    results = []
    for index, (name, make_inputs, op) in enumerate(OP_CASES):
        rng = np.random.default_rng([seed, index])
        try:
            worst = _run_op_case(make_inputs, op, rng, trials)
        except Exception:
            worst = float("inf")
        results.append(CheckResult(name=f"op.{name}", worst=worst, tol=GRAD_TOL))
    return results


def loss_gradient_check(
    spec: LossSpec, n: int = 6, trials: int = 20, seed: int = 0
) -> float:
    """Worst relative error between engine gradients and central finite
    differences over random (scores, labels) instances."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
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


def loss_gradient_checks(seed: int = 0, trials: int = 20) -> list[CheckResult]:
    """FD check for every ranking loss on random score/label instances."""
    results = []
    for name in LOSS_NAMES:
        try:
            worst = loss_gradient_check(LossSpec(name=name), trials=trials, seed=seed)
        except Exception:
            worst = float("inf")
        results.append(CheckResult(name=f"loss.{name}", worst=worst, tol=GRAD_TOL))
    return results


def model_gradient_checks(seed: int = 0, n_directions: int = 8) -> list[CheckResult]:
    """Directional FD check through the full network: one query in both
    encoder modes, and two ragged queries packed into one graph."""
    from .network import DenoiseModel, ModelConfig
    from .schedule import ScheduleSpec

    spec = ScheduleSpec(kind="linear", timesteps=8)
    # (label, attention on, segment lengths, one timestep or one per segment)
    cases = (
        ("attention", True, [3], 5),
        ("feedforward", False, [3], 5),
        ("packed", True, [2, 3], [5, 2]),
    )
    results = []
    for index, (label, use_attention, segments, t) in enumerate(cases):
        rng = np.random.default_rng([seed, index])
        config = ModelConfig(
            k=4, d_model=16, heads=2, blocks=1, denoise_layers=2,
            dropout_p=0.0, use_attention=use_attention,
        )
        model = DenoiseModel(config, spec, dtype="float64", seed=seed + 3)
        rows = sum(segments)
        feats = rng.normal(size=(rows, 4))
        y_t = rng.normal(size=rows)
        target = rng.normal(size=(rows, 1))
        names = sorted(model.params)

        def loss(m, feats=feats, y_t=y_t, t=t, segments=segments, target=target):
            diff = ad.sub(m.predict_y0(feats, y_t, t=t, segments=segments), ad.Tensor(target))
            return ad.tensor_mean(ad.mul(diff, diff))

        def f(arrays, names=names, config=config, loss=loss):
            params = {
                name: ad.Tensor(np.array(arr), requires_grad=True)
                for name, arr in zip(names, arrays)
            }
            return loss(DenoiseModel(config, spec, dtype="float64", params=params)).item()

        try:
            ad.backward(loss(model))
            arrays = [np.array(model.params[n].data) for n in names]
            analytic = [model.params[n].grad for n in names]
            worst = check_directional(f, arrays, analytic, rng, n_directions=n_directions)
        except Exception:
            worst = float("inf")
        results.append(CheckResult(name=f"model.{label}", worst=worst, tol=GRAD_TOL))
    return results


def schedule_invariant_checks() -> list[CheckResult]:
    """Structural residuals for every schedule family at production sizes."""
    from .schedule import SCHEDULE_KINDS, ScheduleSpec, build_schedule

    results = []
    for kind in SCHEDULE_KINDS:
        for timesteps in (200, 600, 1000):
            name = f"schedule.{kind}.T{timesteps}"
            try:
                table = build_schedule(ScheduleSpec(kind=kind, timesteps=timesteps))
                table.validate()
                residual = float(
                    np.max(np.abs(np.cumprod(1.0 - table.beta) - table.alpha_bar))
                )
            except Exception:
                residual = float("inf")
            results.append(CheckResult(name=name, worst=residual, tol=1e-12))
    return results


def run_all_checks(
    seed: int = 0,
    op_trials: int = 5,
    loss_trials: int = 20,
    model_directions: int = 8,
) -> list[CheckResult]:
    """Every integrity check the `gradcheck` command reports."""
    results = []
    results.extend(op_gradient_checks(seed=seed, trials=op_trials))
    results.extend(loss_gradient_checks(seed=seed, trials=loss_trials))
    results.extend(model_gradient_checks(seed=seed, n_directions=model_directions))
    results.extend(schedule_invariant_checks())
    return results
