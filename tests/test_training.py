"""Trainer contract tests: optimizer math against hand-computed traces,
timestep sampling statistics, descent behaviour, and fit() bookkeeping."""

import json
import math
import os

import numpy as np
import pytest
import scipy.stats

from diffrank import autodiff as ad
from diffrank import training
from diffrank.autodiff import Tensor
from diffrank.errors import ConfigError, IncompatibilityError, NumericError
from diffrank.letor import Dataset, QueryGroup
from diffrank.losses import LossSpec, ranking_loss
from diffrank.metrics import evaluate_rankings, ranking_order
from diffrank.network import DenoiseModel, ModelConfig, load_checkpoint
from diffrank.sampling import SamplerConfig, rank_split
from diffrank.schedule import ScheduleSpec, build_schedule, q_sample
from diffrank.training import (
    AdamW,
    TrainConfig,
    fit,
    init_state,
    sample_timestep,
    train_step,
)

SPEC = ScheduleSpec(kind="linear", timesteps=8)


def small_model_config(**overrides) -> ModelConfig:
    base = dict(
        k=4,
        d_model=8,
        heads=2,
        blocks=1,
        denoise_layers=2,
        dropout_p=0.0,
        use_attention=True,
    )
    base.update(overrides)
    return ModelConfig(**base)


def small_train_config(**overrides) -> TrainConfig:
    base = dict(
        model=small_model_config(),
        schedule=SPEC,
        loss=LossSpec(name="mse"),
        epochs=6,
        batch_size=3,
        lr=1e-3,
        weight_decay=0.01,
        eval_every=2,
        sampler=SamplerConfig(reverse_steps=2),
        seed=5,
        dtype="float64",
    )
    base.update(overrides)
    return TrainConfig(**base)


def tiny_dataset(seed=0, n_queries=8, n_docs=6, k=4) -> Dataset:
    rng = np.random.default_rng(seed)
    feats = np.empty((n_queries, n_docs, k))
    labels = np.empty((n_queries, n_docs), dtype=np.int64)
    for q in range(n_queries):
        feats[q] = rng.normal(size=(n_docs, k))
        ranks = np.argsort(np.argsort(feats[q, :, 0]))
        labels[q] = (ranks * 5) // n_docs
    return Dataset(
        features=feats.reshape(-1, k),
        labels=labels.reshape(-1),
        doc_index=np.arange(n_queries * n_docs),
        qids=np.arange(1, n_queries + 1),
        counts=np.full(n_queries, n_docs),
    )


# ---------------------------------------------------------------------------
# timestep sampling


def test_timestep_is_always_one_when_horizon_is_one():
    rng = np.random.default_rng(0)
    assert all(sample_timestep(rng, 1) == 1 for _ in range(100))


def test_timestep_bounds():
    rng = np.random.default_rng(1)
    draws = np.array([sample_timestep(rng, 10) for _ in range(100_000)])
    assert draws.min() >= 1 and draws.max() <= 10


def test_timestep_uniformity_chi_squared():
    rng = np.random.default_rng(2)
    draws = np.array([sample_timestep(rng, 10) for _ in range(100_000)])
    counts = np.bincount(draws, minlength=11)[1:]
    _, p = scipy.stats.chisquare(counts)
    assert p > 0.01, f"chi-squared uniformity test failed, p = {p}"


def test_timestep_rejects_bad_horizon():
    with pytest.raises(ConfigError):
        sample_timestep(np.random.default_rng(0), 0)


# ---------------------------------------------------------------------------
# AdamW against hand-computed traces


def _hand_adamw_trace(p0, grads, lr, b1, b2, eps, wd):
    """Straight transcription of the update rule with plain floats."""
    p = p0
    m = 0.0
    v = 0.0
    out = []
    for step, g in enumerate(grads, start=1):
        p = p * (1.0 - lr * wd)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        mhat = m / (1.0 - b1**step)
        vhat = v / (1.0 - b2**step)
        p = p - lr * mhat / (math.sqrt(vhat) + eps)
        out.append(p)
    return out


def test_adamw_matches_hand_trace_on_two_parameters():
    lr, b1, b2, eps, wd = 0.1, 0.9, 0.999, 1e-8, 0.01
    w = Tensor(np.array([[1.0]]), requires_grad=True)
    b = Tensor(np.array([[2.0]]), requires_grad=True)
    opt = AdamW({"w": w, "b": b}, lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=wd)
    grads_w = [0.1, -0.2, 0.3]
    grads_b = [-0.5, 0.4, -0.1]
    expected_w = _hand_adamw_trace(1.0, grads_w, lr, b1, b2, eps, wd)
    expected_b = _hand_adamw_trace(2.0, grads_b, lr, b1, b2, eps, wd)
    for step in range(3):
        w.grad = np.array([[grads_w[step]]])
        b.grad = np.array([[grads_b[step]]])
        opt.step()
        assert w.data[0, 0] == pytest.approx(expected_w[step], abs=1e-14)
        assert b.data[0, 0] == pytest.approx(expected_b[step], abs=1e-14)


def test_zero_weight_decay_is_plain_adam():
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8

    def hand_adam(p0, grads):
        p, m, v = p0, 0.0, 0.0
        for step, g in enumerate(grads, start=1):
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            p -= lr * (m / (1.0 - b1**step)) / (math.sqrt(v / (1.0 - b2**step)) + eps)
        return p

    w = Tensor(np.array([[0.7]]), requires_grad=True)
    opt = AdamW({"w": w}, lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=0.0)
    grads = [0.3, -0.8, 0.05, 0.2]
    for g in grads:
        w.grad = np.array([[g]])
        opt.step()
    assert w.data[0, 0] == pytest.approx(hand_adam(0.7, grads), abs=1e-14)


def test_zero_learning_rate_leaves_parameters_bit_identical():
    rng = np.random.default_rng(3)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    before = w.data.copy()
    opt = AdamW({"w": w}, lr=0.0, weight_decay=0.01)
    w.grad = rng.normal(size=(4, 3))
    opt.step()
    np.testing.assert_array_equal(w.data, before)


def test_moment_tensors_match_parameter_shapes():
    model = DenoiseModel(small_model_config(), SPEC, dtype="float64", seed=0)
    opt = AdamW(model.params, lr=1e-3)
    for name, p in model.params.items():
        assert opt.m[name].shape == p.data.shape
        assert opt.v[name].shape == p.data.shape


def test_gradient_shape_mismatch_is_rejected():
    w = Tensor(np.zeros((2, 2)), requires_grad=True)
    opt = AdamW({"w": w}, lr=1e-3)
    w.grad = np.zeros((2, 3))
    with pytest.raises(Exception, match="shape"):
        opt.step()


def test_non_finite_update_names_the_parameter_and_step():
    a = Tensor(np.ones((1, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 2)), requires_grad=True)
    opt = AdamW({"a": a, "b": b}, lr=1e-3)
    a.grad, b.grad = np.ones((1, 2)), np.ones((2, 2))
    opt.step()
    b.grad = np.array([[1.0, np.inf], [1.0, 1.0]])
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError, match="AdamW step 2 .* parameter b$"):
            opt.step()


def test_overflowing_learning_rate_stops_at_the_first_step():
    ds = tiny_dataset()
    config = small_train_config(lr=1e300, dtype="float32")
    state = init_state(config)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match="AdamW step 1 left non-finite values in parameter"):
            train_step(ds.groups, state, config)


# ---------------------------------------------------------------------------
# descent property


def test_single_step_descends_on_fixed_noise():
    table = build_schedule(SPEC)
    spec = LossSpec(name="mse")
    successes = 0
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        model = DenoiseModel(small_model_config(), SPEC, dtype="float64", seed=trial)
        feats = rng.normal(size=(5, 4))
        labels = rng.integers(0, 5, size=5).astype(np.float64)
        if labels.max() == 0:
            labels[0] = 3.0
        t = int(rng.integers(1, 9))
        eps = rng.standard_normal(5)
        y_t = q_sample(labels, t, eps, table)

        def loss_value():
            pred = model.predict_y0(feats, y_t, t=t)
            return ranking_loss(spec, pred, labels)

        first = loss_value()
        before = float(first.data)
        model.zero_grads()
        ad.backward(first)
        AdamW(model.params, lr=1e-3, weight_decay=0.0).step()
        after = float(loss_value().data)
        if after < before:
            successes += 1
    assert successes >= 18, f"descent held in only {successes}/20 trials"


# ---------------------------------------------------------------------------
# train_step


def test_train_step_zero_lr_is_a_null_update():
    ds = tiny_dataset()
    config = small_train_config()
    state = init_state(config)
    state.optimizer.lr = 0.0
    before = {n: p.data.copy() for n, p in state.model.params.items()}
    loss = train_step(ds.groups[:3], state, config)
    assert math.isfinite(loss)
    for name, p in state.model.params.items():
        np.testing.assert_array_equal(p.data, before[name])


def test_train_step_empty_batch_rejected():
    config = small_train_config()
    state = init_state(config)
    with pytest.raises(ConfigError):
        train_step([], state, config)


def test_train_step_reports_offending_query_on_nan():
    ds = tiny_dataset()
    config = small_train_config()
    state = init_state(config)
    bad = ds.groups[1]
    feats = bad.feature_matrix().copy()
    feats[2] = np.nan
    batch = [
        ds.groups[0],
        QueryGroup(bad.qid, feats, bad.labels(), bad.doc_indices()),
        ds.groups[2],
    ]
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError, match=f"query id {bad.qid} at timestep"):
            train_step(batch, state, config)


def ragged_groups(lengths, seed=0, k=4) -> list[QueryGroup]:
    rng = np.random.default_rng(seed)
    groups = []
    for q, n in enumerate(lengths, start=1):
        feats = rng.normal(size=(n, k))
        labels = rng.integers(0, 5, size=n)
        groups.append(QueryGroup(q, feats, labels, np.arange(n)))
    return groups


def _per_query_graph_step(batch, state, config) -> float:
    """train_step as one graph per query: the reference for packing."""
    per_query = []
    for group in batch:
        labels = group.labels()
        t = sample_timestep(state.rng, state.table.timesteps)
        eps = state.rng.standard_normal(labels.size)
        y_t = q_sample(labels, t, eps, state.table)
        pred = state.model.predict_y0(group.feature_matrix(), y_t, t=t, rng=state.rng)
        per_query.append(ranking_loss(config.loss, pred, labels))
    total = per_query[0]
    for q_loss in per_query[1:]:
        total = ad.add(total, q_loss)
    loss = ad.scale(total, 1.0 / len(per_query))
    state.model.zero_grads()
    ad.backward(loss)
    state.optimizer.step()
    return float(loss.data)


@pytest.mark.parametrize("loss", ["listnet", "ranknet"])
def test_packed_step_matches_per_query_graph(loss):
    config = small_train_config(loss=LossSpec(name=loss))
    batch = ragged_groups([5, 1, 9, 3])
    packed, reference = init_state(config), init_state(config)
    for _ in range(3):
        a = train_step(batch, packed, config)
        b = _per_query_graph_step(batch, reference, config)
        assert abs(a - b) <= 1e-12
        for name, p in packed.model.params.items():
            np.testing.assert_allclose(
                p.grad, reference.model.params[name].grad, rtol=0, atol=1e-12,
                err_msg=name,
            )
    for name, p in packed.model.params.items():
        np.testing.assert_allclose(
            p.data, reference.model.params[name].data, rtol=0, atol=1e-12, err_msg=name
        )


def test_truncation_cap_matches_pretruncated_data():
    ds = tiny_dataset(n_docs=6)
    capped_config = small_train_config(max_list_size=4)
    full_config = small_train_config(max_list_size=512)

    truncated_groups = [
        QueryGroup(g.qid, g.feature_matrix()[:4], g.labels()[:4], g.doc_indices()[:4])
        for g in ds.groups
    ]

    state_a = init_state(capped_config)
    loss_a = train_step(ds.groups[:2], state_a, capped_config)
    state_b = init_state(full_config)
    loss_b = train_step(truncated_groups[:2], state_b, full_config)
    assert loss_a == loss_b
    for name in state_a.model.params:
        np.testing.assert_array_equal(
            state_a.model.params[name].data, state_b.model.params[name].data
        )


def test_train_step_loss_is_mean_over_queries():
    ds = tiny_dataset()
    config = small_train_config()
    # replaying the same rng stream manually must reproduce the batch loss
    state = init_state(config)
    batch = ds.groups[:3]
    loss = train_step(batch, state, config)

    replay = init_state(config)
    table = replay.table
    per_query = []
    for group in batch:
        labels = group.labels()
        t = sample_timestep(replay.rng, table.timesteps)
        eps = replay.rng.standard_normal(labels.size)
        y_t = q_sample(labels, t, eps, table)
        pred = replay.model.predict_y0(group.feature_matrix(), y_t, t=t, rng=replay.rng)
        per_query.append(float(ranking_loss(config.loss, pred, labels).data))
    assert loss == pytest.approx(np.mean(per_query), abs=1e-12)


# ---------------------------------------------------------------------------
# fit


def test_config_validation():
    with pytest.raises(ConfigError):
        small_train_config(epochs=0)
    with pytest.raises(ConfigError):
        small_train_config(batch_size=0)
    with pytest.raises(ConfigError):
        small_train_config(lr=0.0)
    with pytest.raises(ConfigError):
        small_train_config(eval_every=0)
    with pytest.raises(ConfigError):
        small_train_config(dtype="float16")
    with pytest.raises(ConfigError):
        small_train_config(weight_decay=-0.1)
    with pytest.raises(ConfigError):
        small_train_config(beta1=1.0)


def test_fit_bookkeeping(tmp_path):
    train_ds = tiny_dataset(seed=0)
    valid_ds = tiny_dataset(seed=1, n_queries=4)
    config = small_train_config()
    result = fit(train_ds, valid_ds, config, str(tmp_path / "run"))

    assert len(result.log) == config.epochs
    for entry in result.log:
        assert math.isfinite(entry["loss"])
        if entry["epoch"] % config.eval_every == 0 or entry["epoch"] == config.epochs:
            assert "valid_ndcg10" in entry
        else:
            assert "valid_ndcg10" not in entry
    evals = [e["valid_ndcg10"] for e in result.log if "valid_ndcg10" in e]
    assert result.best_metric == max(evals)

    loaded = load_checkpoint(result.best_path)
    assert loaded.config == config.model
    fresh = DenoiseModel(config.model, SPEC, dtype="float64", seed=0)
    assert loaded.num_parameters() == fresh.num_parameters()

    with open(result.log_path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    assert lines == result.log


def test_fit_is_deterministic(tmp_path):
    train_ds = tiny_dataset(seed=0)
    valid_ds = tiny_dataset(seed=1, n_queries=4)
    config = small_train_config()
    a = fit(train_ds, valid_ds, config, str(tmp_path / "a"))
    b = fit(train_ds, valid_ds, config, str(tmp_path / "b"))
    assert a.log == b.log
    with open(a.log_path, "rb") as fa, open(b.log_path, "rb") as fb:
        assert fa.read() == fb.read()
    with open(a.best_path, "rb") as fa, open(b.best_path, "rb") as fb:
        assert fa.read() == fb.read()


def _raise_on_call(n, exc, real):
    """real, except that its n-th call raises exc."""
    calls = []

    def wrapped(*args):
        calls.append(None)
        if len(calls) == n:
            raise exc
        return real(*args)

    return wrapped


@pytest.mark.parametrize(
    "target,exc",
    [
        # 8 queries in batches of 3: call 7 is epoch 3's first step
        ("train_step", NumericError("non-finite training loss")),
        ("train_step", KeyboardInterrupt()),
        # Ctrl-C after epoch 3's checkpoint is written, before its rename
        ("replace", KeyboardInterrupt()),
    ],
)
def test_fit_stopped_in_epoch_3_keeps_what_epochs_1_and_2_wrote(
    tmp_path, monkeypatch, target, exc
):
    train_ds, valid_ds = tiny_dataset(seed=0), tiny_dataset(seed=1, n_queries=4)

    def run(epochs, out_dir):
        # every validation improves, so every epoch rewrites best.ckpt
        metrics = iter(range(1, 10))
        monkeypatch.setattr(training, "_validate_ndcg10", lambda *a: next(metrics) / 10)
        config = small_train_config(epochs=epochs, eval_every=1)
        return fit(train_ds, valid_ds, config, str(out_dir))

    done = run(2, tmp_path / "two")
    if target == "train_step":
        monkeypatch.setattr(training, "train_step", _raise_on_call(7, exc, train_step))
    else:
        monkeypatch.setattr(os, "replace", _raise_on_call(3, exc, os.replace))
    stopped = tmp_path / "stopped"
    with pytest.raises(type(exc)):
        run(6, stopped)
    assert sorted(os.listdir(stopped)) == ["best.ckpt", "train_log.jsonl"]
    with open(done.log_path, "rb") as fh:
        assert (stopped / "train_log.jsonl").read_bytes() == fh.read()
    assert len(done.log) == 2
    with open(done.best_path, "rb") as fh:
        assert (stopped / "best.ckpt").read_bytes() == fh.read()


def test_fit_rejects_feature_width_mismatch(tmp_path):
    config = small_train_config()
    with pytest.raises(IncompatibilityError):
        fit(tiny_dataset(k=5), tiny_dataset(k=5), config, str(tmp_path))
    with pytest.raises(IncompatibilityError):
        fit(tiny_dataset(k=4), tiny_dataset(k=5), config, str(tmp_path))


def test_fit_float32_smoke(tmp_path):
    config = small_train_config(dtype="float32", epochs=1, eval_every=1)
    result = fit(tiny_dataset(), tiny_dataset(seed=2, n_queries=2), config, str(tmp_path))
    assert math.isfinite(result.log[0]["loss"])
    loaded = load_checkpoint(result.best_path)
    assert loaded.dtype == np.dtype("float32")


def test_fit_clamps_eval_steps_to_horizon(tmp_path):
    config = small_train_config(epochs=1, sampler=SamplerConfig(reverse_steps=50))
    result = fit(tiny_dataset(), tiny_dataset(seed=2, n_queries=2), config, str(tmp_path))
    assert "valid_ndcg10" in result.log[0]


def test_fit_validates_with_the_run_sampler(tmp_path):
    sampler = SamplerConfig(reverse_steps=2, zero_variance=True)
    config = small_train_config(epochs=1, eval_every=1, sampler=sampler)
    valid = tiny_dataset(seed=2)
    result = fit(tiny_dataset(), valid, config, str(tmp_path))
    model = load_checkpoint(result.best_path)

    def ndcg10(cfg):
        # the first validation draws from child 0 of fit's fourth seed stream
        child = np.random.SeedSequence(config.seed).spawn(4)[3].spawn(1)[0]
        scores = rank_split(model, valid.groups, build_schedule(SPEC), cfg, seed_seq=child)
        report = evaluate_rankings(
            [g.labels() for g in valid.groups],
            [ranking_order(runs[0]) for runs in scores],
            cutoffs=(10,),
        )
        return float(report.values["ndcg"][10])

    assert result.log[0]["valid_ndcg10"] == ndcg10(sampler)
    # on this split zero_variance changes the ranking, so it reached validation
    assert result.log[0]["valid_ndcg10"] != ndcg10(SamplerConfig(reverse_steps=2))


def test_loss_trajectory_decreases_on_easy_data(tmp_path):
    # labels are a deterministic function of one feature; a brief run
    # must reduce the training loss
    train_ds = tiny_dataset(seed=3)
    config = small_train_config(epochs=10, lr=1e-2, eval_every=10)
    result = fit(train_ds, train_ds, config, str(tmp_path))
    first = result.log[0]["loss"]
    last = result.log[-1]["loss"]
    assert last < first
