"""Denoise-model contract tests.

Gradient correctness is checked against directional finite differences,
which re-evaluate the forward pass numerically and never touch the
reverse-mode engine.
"""

import numpy as np
import pytest

import diffrank.autodiff as ad
from diffrank.autodiff import Tensor
from diffrank.errors import CacheCorruptionError, ConfigError, IncompatibilityError, ShapeError
from diffrank.gradcheck import check_directional
from diffrank.network import (
    DenoiseModel,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
    sinusoidal_embedding,
)
from diffrank.schedule import ScheduleSpec

SPEC = ScheduleSpec(kind="linear", timesteps=50)


def toy_config(**overrides) -> ModelConfig:
    base = dict(
        k=5,
        d_model=16,
        heads=2,
        blocks=1,
        denoise_layers=2,
        dropout_p=0.0,
        use_attention=True,
    )
    base.update(overrides)
    return ModelConfig(**base)


def toy_model(seed=0, **overrides) -> DenoiseModel:
    return DenoiseModel(toy_config(**overrides), SPEC, dtype="float64", seed=seed)


# ---------------------------------------------------------------------------
# configuration validation


@pytest.mark.parametrize(
    "overrides",
    [
        {"k": 0},
        {"d_model": 0},
        {"d_model": 15},  # not divisible by heads=2
        {"heads": 0},
        {"blocks": 0},
        {"denoise_layers": 1},
        {"dropout_p": 0.9},
        {"dropout_p": -0.1},
        {"d_model": 16.0},
        {"heads": True},
    ],
)
def test_config_rejects_bad_values(overrides):
    with pytest.raises(ConfigError):
        toy_config(**overrides)


def test_config_accepts_numpy_integers_as_plain_ints():
    config = toy_config(k=np.int64(5), d_model=np.int32(16))
    assert config == toy_config()
    assert type(config.k) is int and type(config.d_model) is int


def test_parameter_count_matches_hand_formula():
    model = toy_model()
    # proj 96, ln1 32, attention 3*272+256 (no key bias), ln2 32,
    # ffn 1088+1040, output norm 32, timestep projection 272,
    # denoise 256+16+16 (context, label row, bias) and 85.
    assert model.num_parameters() == 4037


def test_parameter_names_are_stable():
    a = sorted(toy_model(seed=0).params)
    b = sorted(toy_model(seed=7).params)
    assert a == b
    assert "proj.w" in a and "temb.w" in a and "den0.w" in a and "den1.b" in a


# ---------------------------------------------------------------------------
# forward shapes, ranges, determinism


def test_forward_shapes_and_finiteness():
    for use_attention in (True, False):
        model = toy_model(use_attention=use_attention)
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(7, 5))
        y_t = rng.normal(size=7)
        ctx = model.encode(feats)
        assert ctx.data.shape == (7, 16)
        pred = model.predict_y0(feats, y_t, t=3)
        assert pred.data.shape == (7, 1)
        assert np.all(np.isfinite(pred.data))


def test_single_document_query_works():
    for use_attention in (True, False):
        model = toy_model(use_attention=use_attention)
        pred = model.predict_y0(np.ones((1, 5)), np.array([0.3]), t=1)
        assert pred.data.shape == (1, 1)
        assert np.isfinite(pred.data).all()


def test_prediction_stays_within_grade_range():
    model = toy_model()
    rng = np.random.default_rng(2)
    for t in (1, 25, 50):
        feats = rng.normal(scale=3.0, size=(9, 5))
        y_t = rng.normal(scale=10.0, size=9)
        pred = model.predict_y0(feats, y_t, t=t).data
        assert np.all(pred >= 0.0) and np.all(pred <= 4.0)


def test_zeroed_output_layer_predicts_grade_midpoint():
    model = toy_model()
    model.params["den1.w"].data[:] = 0.0
    model.params["den1.b"].data[:] = 0.0
    rng = np.random.default_rng(4)
    pred = model.predict_y0(rng.normal(size=(5, 5)), rng.normal(size=5), t=9).data
    # uniform weights over grades 0..4 average to 2
    np.testing.assert_allclose(pred, 2.0, rtol=0, atol=1e-12)


def test_eval_forward_is_deterministic():
    model = toy_model(dropout_p=0.5)
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(6, 5))
    y_t = rng.normal(size=6)
    a = model.predict_y0(feats, y_t, t=4).data
    b = model.predict_y0(feats, y_t, t=4).data
    np.testing.assert_array_equal(a, b)


def test_dropout_only_active_in_training_mode():
    model = toy_model(dropout_p=0.5)
    rng = np.random.default_rng(6)
    feats = rng.normal(size=(6, 5))
    y_t = rng.normal(size=6)
    eval_out = model.predict_y0(feats, y_t, t=4).data
    train_a = model.predict_y0(feats, y_t, t=4, rng=np.random.default_rng(0)).data
    train_b = model.predict_y0(feats, y_t, t=4, rng=np.random.default_rng(1)).data
    assert not np.array_equal(train_a, eval_out)
    assert not np.array_equal(train_a, train_b)
    # p = 0 makes a pass with an rng coincide with one without exactly
    plain = toy_model(dropout_p=0.0)
    same = plain.predict_y0(feats, y_t, t=4, rng=np.random.default_rng(0))
    np.testing.assert_array_equal(same.data, plain.predict_y0(feats, y_t, t=4).data)


def test_dtype_propagates_to_outputs():
    model = DenoiseModel(toy_config(), SPEC, dtype="float32", seed=0)
    pred = model.predict_y0(np.ones((3, 5)), np.zeros(3), t=2)
    assert pred.data.dtype == np.float32


@pytest.mark.parametrize("dtype", ["float16", "longdouble", "int64"])
def test_model_rejects_a_dtype_checkpoints_cannot_hold(dtype):
    with pytest.raises(ConfigError, match="dtype must be one of"):
        DenoiseModel(toy_config(), SPEC, dtype=dtype, seed=0)


# ---------------------------------------------------------------------------
# document interaction structure


def test_encoder_is_permutation_equivariant():
    model = toy_model()
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(8, 5))
    perm = rng.permutation(8)
    base = model.encode(feats).data
    shuffled = model.encode(feats[perm]).data
    np.testing.assert_allclose(shuffled, base[perm], rtol=0, atol=1e-9)


def test_full_prediction_is_permutation_equivariant():
    model = toy_model()
    rng = np.random.default_rng(8)
    feats = rng.normal(size=(8, 5))
    y_t = rng.normal(size=8)
    perm = rng.permutation(8)
    base = model.predict_y0(feats, y_t, t=6).data
    shuffled = model.predict_y0(feats[perm], y_t[perm], t=6).data
    np.testing.assert_allclose(shuffled, base[perm], rtol=0, atol=1e-9)


def test_attention_lets_documents_interact():
    model = toy_model(use_attention=True)
    rng = np.random.default_rng(9)
    feats = rng.normal(size=(4, 5))
    other = feats.copy()
    other[2] += 1.0
    a = model.encode(feats).data
    b = model.encode(other).data
    assert np.abs(a[0] - b[0]).max() > 1e-8


def test_attention_off_isolates_documents():
    model = toy_model(use_attention=False)
    rng = np.random.default_rng(10)
    feats = rng.normal(size=(4, 5))
    y_t = rng.normal(size=4)
    other = feats.copy()
    other[2] += 100.0
    a = model.predict_y0(feats, y_t, t=3).data
    b = model.predict_y0(other, y_t, t=3).data
    keep = [0, 1, 3]
    np.testing.assert_array_equal(a[keep], b[keep])
    assert not np.array_equal(a[2], b[2])


def _two_queries(seed):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(8, 5))
    y_t = rng.normal(size=8)
    return feats, y_t


@pytest.mark.parametrize("use_attention", [True, False])
def test_packed_queries_match_separate_runs(use_attention):
    model = toy_model(use_attention=use_attention)
    feats, y_t = _two_queries(11)
    packed = model.predict_y0(feats, y_t, t=[7, 2], segments=[3, 5]).data
    a = model.predict_y0(feats[:3], y_t[:3], t=7).data
    b = model.predict_y0(feats[3:], y_t[3:], t=2).data
    np.testing.assert_allclose(packed, np.vstack([a, b]), rtol=0, atol=1e-12)
    # one timestep for every row needs no per-segment list
    shared = model.predict_y0(feats, y_t, t=7, segments=[3, 5]).data
    np.testing.assert_allclose(shared[:3], a, rtol=0, atol=1e-12)


@pytest.mark.parametrize("use_attention", [True, False])
def test_perturbing_one_query_leaves_the_other_bit_identical(use_attention):
    model = toy_model(use_attention=use_attention)
    feats, y_t = _two_queries(12)
    other = feats.copy()
    other[3:] += 100.0
    other_y = y_t.copy()
    other_y[3:] -= 5.0
    a = model.predict_y0(feats, y_t, t=[7, 2], segments=[3, 5]).data
    b = model.predict_y0(other, other_y, t=[7, 2], segments=[3, 5]).data
    np.testing.assert_array_equal(a[:3], b[:3])
    assert not np.array_equal(a[3:], b[3:])


def test_shape_errors_name_the_problem():
    model = toy_model()
    with pytest.raises(ShapeError):
        model.encode(np.ones((3, 4)))  # wrong feature width
    for segments in ([1, 1], [2, 2], [3, 0], [1.5, 1.5]):
        with pytest.raises(ShapeError, match="segment lengths"):
            model.encode(np.ones((3, 5)), segments=segments)
    first = model.denoise_input(model.encode(np.ones((3, 5))))
    with pytest.raises(ShapeError):
        model.denoise(first, np.zeros(2), model.timestep_embedding(1))
    with pytest.raises(ShapeError, match="timestep embedding"):
        model.denoise(first, np.zeros(3), model.timestep_embedding([1, 2]))
    with pytest.raises(ShapeError, match="segment lengths"):
        model.timestep_embedding([1, 2], segments=[1, 0])
    with pytest.raises(ShapeError, match="segment lengths"):
        model.predict_y0(np.ones((3, 5)), np.zeros(3), t=[1, 2], segments=[1, 1])
    with pytest.raises(ShapeError, match="timesteps"):
        model.timestep_embedding([1, 2, 3], segments=[1, 2])


# ---------------------------------------------------------------------------
# timestep embedding


def test_sinusoidal_embedding_shape_and_padding():
    emb = sinusoidal_embedding(3, 6)
    assert emb.shape == (1, 6)
    odd = sinusoidal_embedding(3, 5)
    assert odd.shape == (1, 5)
    assert odd[0, -1] == 0.0


def test_timestep_embedding_distinct_and_deterministic():
    model = toy_model()
    a = model.timestep_embedding(4).data
    b = model.timestep_embedding(4).data
    c = model.timestep_embedding(5).data
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 1e-8


def test_timestep_embedding_receives_gradient():
    model = toy_model()
    rng = np.random.default_rng(13)
    pred = model.predict_y0(rng.normal(size=(4, 5)), rng.normal(size=4), t=8)
    ad.backward(ad.tensor_mean(pred))
    assert model.params["temb.w"].grad is not None
    assert np.abs(model.params["temb.w"].grad).max() > 0


# ---------------------------------------------------------------------------
# whole-model gradient check (directional finite differences)


def _loss_given_params(config, feats, y_t, t, target, names):
    def f(arrays):
        params = {
            name: Tensor(np.array(arr), requires_grad=True)
            for name, arr in zip(names, arrays)
        }
        model = DenoiseModel(config, SPEC, dtype="float64", params=params)
        pred = model.predict_y0(feats, y_t, t=t)
        diff = ad.sub(pred, Tensor(target))
        return ad.tensor_mean(ad.mul(diff, diff)).item()

    return f


@pytest.mark.parametrize("use_attention", [True, False])
def test_whole_model_gradients_match_finite_differences(rng, use_attention):
    config = toy_config(k=4, d_model=16, heads=2, use_attention=use_attention)
    model = DenoiseModel(config, SPEC, dtype="float64", seed=3)
    feats = rng.normal(size=(3, 4))
    y_t = rng.normal(size=3)
    target = rng.normal(size=(3, 1))

    pred = model.predict_y0(feats, y_t, t=5)
    diff = ad.sub(pred, Tensor(target))
    loss = ad.tensor_mean(ad.mul(diff, diff))
    ad.backward(loss)

    names = sorted(model.params)
    for name in names:
        assert model.params[name].grad is not None, name
    for key in ("proj.w", "den0.w", "den1.w"):
        assert np.abs(model.params[key].grad).max() > 0

    arrays = [model.params[n].data for n in names]
    analytic = [model.params[n].grad for n in names]
    f = _loss_given_params(config, feats, y_t, 5, target, names)
    worst = check_directional(f, arrays, analytic, rng)
    assert worst < 1e-4, f"directional gradient mismatch: {worst}"


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    model = toy_model(seed=11)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    loaded = load_checkpoint(str(path))
    assert loaded.config == model.config
    assert loaded.schedule == model.schedule
    assert loaded.dtype == model.dtype
    assert sorted(loaded.params) == sorted(model.params)
    for name in model.params:
        np.testing.assert_array_equal(loaded.params[name].data, model.params[name].data)
    rng = np.random.default_rng(14)
    feats = rng.normal(size=(5, 5))
    y_t = rng.normal(size=5)
    np.testing.assert_array_equal(
        loaded.predict_y0(feats, y_t, t=3).data,
        model.predict_y0(feats, y_t, t=3).data,
    )


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(IncompatibilityError):
        load_checkpoint(str(path))


def test_checkpoint_rejects_future_version(tmp_path):
    model = toy_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    raw = bytearray(path.read_bytes())
    raw[8] = 99  # version field sits right after the 8-byte magic
    path.write_bytes(bytes(raw))
    with pytest.raises(IncompatibilityError, match="version"):
        load_checkpoint(str(path))


def test_checkpoint_detects_truncation_and_trailing(tmp_path):
    model = toy_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    raw = path.read_bytes()
    short = tmp_path / "short.ckpt"
    short.write_bytes(raw[:-17])
    with pytest.raises(CacheCorruptionError):
        load_checkpoint(str(short))
    long = tmp_path / "long.ckpt"
    long.write_bytes(raw + b"\x00\x01")
    with pytest.raises(CacheCorruptionError):
        load_checkpoint(str(long))


def test_checkpoint_bytes_are_deterministic(tmp_path):
    model = toy_model(seed=21)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(model, str(p1))
    save_checkpoint(model, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_feature_only_variant_ignores_noisy_labels():
    from diffrank.network import feature_only_variant

    model = toy_model(seed=13)
    variant = feature_only_variant(model)
    rng = np.random.default_rng(3)
    features = rng.normal(size=(6, 5))
    y_a = rng.normal(size=(6, 1))
    y_b = rng.normal(size=(6, 1))
    with ad.no_grad():
        base_a = model.predict_y0(features, y_a, t=7).data
        base_b = model.predict_y0(features, y_b, t=7).data
        var_a = variant.predict_y0(features, y_a, t=7).data
        var_b = variant.predict_y0(features, y_b, t=7).data
    # the original model reads the noisy labels; the variant must not
    assert not np.allclose(base_a, base_b)
    np.testing.assert_array_equal(var_a, var_b)
    # only the label-input weights are touched, so the variant still ranks
    # from the same learned feature pathway (outputs stay in grade range)
    assert var_a.min() >= 0.0 and var_a.max() <= 4.0
    # the donor model is left untouched
    with ad.no_grad():
        again = model.predict_y0(features, y_a, t=7).data
    np.testing.assert_array_equal(again, base_a)
