"""Engine-level checks: hand values, finite-difference oracles, error paths.

Every differentiable op is compared against central finite differences
computed by re-evaluating the forward function, never by reusing the
engine's own backward pass.
"""

import ast
import inspect
import math
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from diffrank import autodiff as ad
from diffrank.errors import DomainError, ShapeError
from diffrank.gradcheck import OP_CASES, check_gradients, relative_error
from diffrank.network import DenoiseModel, ModelConfig
from diffrank.schedule import ScheduleSpec

TOL = 1e-4


def _leaf(arr):
    return ad.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


class TestForwardValues:
    def test_softplus_zero_is_log_two(self):
        out = ad.softplus(ad.Tensor([0.0]))
        assert out.data[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_softplus_gradient_at_zero_is_half(self):
        x = _leaf([0.0])
        ad.backward(ad.tensor_sum(ad.softplus(x)))
        assert x.grad[0] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_softplus_matches_logaddexp_and_stays_finite(self, dtype):
        x = np.concatenate([np.linspace(-30, 30, 601), [-1e4, -700.0, 700.0, 1e4]])
        out = ad.softplus(ad.Tensor(x.astype(dtype))).data
        assert out.dtype == np.dtype(dtype) and np.isfinite(out).all()
        tol = 1e-6 if dtype == "float32" else 1e-14
        np.testing.assert_allclose(out, np.logaddexp(0.0, x), rtol=tol, atol=tol)

    def test_softmax_equal_logits_uniform(self):
        out = ad.softmax(ad.Tensor(np.full((1, 5), 3.7)))
        np.testing.assert_allclose(out.data, 0.2, atol=1e-12)

    def test_softmax_rows_sum_to_one(self, rng):
        out = ad.softmax(ad.Tensor(rng.standard_normal((6, 9)) * 30))
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_sigmoid_zero(self):
        assert ad.sigmoid(ad.Tensor([0.0])).data[0] == pytest.approx(0.5)

    def test_mean_square_gradient_hand_value(self):
        # d/dx mean(x^2) = 2x/n
        x = _leaf([1.0, -2.0, 3.0])
        ad.backward(ad.tensor_mean(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2.0 * x.data / 3.0, atol=1e-12)

    def test_linear_matches_numpy(self, rng):
        x = rng.standard_normal((4, 3))
        w = rng.standard_normal((3, 5))
        b = rng.standard_normal((1, 5))
        out = ad.linear(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b))
        np.testing.assert_allclose(out.data, x @ w + b, atol=1e-12)

    def test_attention_segment_matches_its_own_run(self, rng):
        q, k, v = (rng.standard_normal((7, 4)) for _ in range(3))
        packed = ad.attention(q, k, v, [3, 4], heads=2).data
        alone = ad.attention(q[3:], k[3:], v[3:], [4], heads=2).data
        np.testing.assert_array_equal(packed[3:], alone)
        np.testing.assert_allclose(packed, _np_attention(q, k, v, [3, 4], 2), atol=1e-12)

    def test_embedding_lookup_rows(self, rng):
        table = rng.standard_normal((7, 4))
        out = ad.embedding_lookup(ad.Tensor(table), [5, 0, 5])
        np.testing.assert_allclose(out.data, table[[5, 0, 5]])


class TestErrors:
    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            ad.log(ad.Tensor([1.0, 0.0]))

    def test_sqrt_domain_error(self):
        with pytest.raises(DomainError):
            ad.sqrt(ad.Tensor([-1.0]))

    def test_reciprocal_zero(self):
        with pytest.raises(DomainError):
            ad.reciprocal(ad.Tensor([0.0]))

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError) as exc:
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 2))))
        assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)

    def test_add_shape_error(self):
        with pytest.raises(ShapeError):
            ad.add(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 2))))

    @pytest.mark.parametrize("shapes", [((2, 3), (3, 3)), ((4, 1), (4, 3)), ((1, 2), (4, 3))])
    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul])
    def test_binary_op_broadcasts_only_scalars_and_rows(self, op, shapes):
        a, b = (ad.Tensor(np.ones(s)) for s in shapes)
        with pytest.raises(ShapeError):
            op(a, b)
        with pytest.raises(ShapeError):
            op(b, a)

    def test_backward_rejects_non_scalar(self):
        x = _leaf(np.ones((2, 2)))
        with pytest.raises(ShapeError):
            ad.backward(ad.mul(x, x))

    @pytest.mark.parametrize("segments", [[3, 3], [5, 0], [4], []])
    def test_attention_rejects_segments_not_splitting_rows(self, segments):
        x = ad.Tensor(np.ones((5, 4)))
        with pytest.raises(ShapeError):
            ad.attention(x, x, x, segments, heads=2)

    def test_attention_rejects_width_not_divisible_by_heads(self):
        x = ad.Tensor(np.ones((5, 4)))
        with pytest.raises(ShapeError):
            ad.attention(x, x, x, [5], heads=3)

    @pytest.mark.parametrize("bias", [(5,), (3, 5), (1, 4)])
    def test_linear_rejects_a_bias_that_is_not_one_row(self, bias):
        x, w = ad.Tensor(np.ones((3, 2))), ad.Tensor(np.ones((2, 5)))
        with pytest.raises(ShapeError):
            ad.linear(x, w, ad.Tensor(np.ones(bias)))

    def test_dropout_rejects_bad_probability(self):
        with pytest.raises(DomainError):
            ad.dropout(ad.Tensor([1.0]), 1.0, np.random.default_rng(0))


class TestDropout:
    def test_p_zero_is_identity_bitwise(self, rng):
        x = ad.Tensor(rng.standard_normal((5, 3)))
        out = ad.dropout(x, 0.0, rng)
        assert out is x

    def test_eval_mode_is_identity(self, rng):
        x = ad.Tensor(rng.standard_normal((5, 3)))
        assert ad.dropout(x, 0.5) is x

    def test_training_keeps_expected_scale(self):
        rng = np.random.default_rng(7)
        x = ad.Tensor(np.ones((200, 50)))
        out = ad.dropout(x, 0.3, rng)
        kept = out.data != 0
        assert abs(kept.mean() - 0.7) < 0.02
        np.testing.assert_allclose(out.data[kept], 1.0 / 0.7)

    def test_gradient_follows_mask(self):
        rng = np.random.default_rng(3)
        x = _leaf(np.ones((10, 10)))
        out = ad.dropout(x, 0.4, rng)
        mask = (out.data != 0).astype(float)
        ad.backward(ad.tensor_sum(out))
        np.testing.assert_allclose(x.grad, mask / 0.6, atol=1e-12)


class TestDeterminism:
    def test_forward_backward_bit_identical(self):
        def run():
            r = np.random.default_rng(99)
            x = _leaf(r.standard_normal((4, 6)))
            w = _leaf(r.standard_normal((6, 3)))
            out = ad.softmax(ad.matmul(ad.softplus(x), w))
            loss = ad.tensor_mean(ad.mul(out, out))
            ad.backward(loss)
            return loss.data.copy(), x.grad.copy(), w.grad.copy()

        a = run()
        b = run()
        for u, v in zip(a, b):
            assert np.array_equal(u, v)

    def test_no_grad_blocks_graph(self):
        x = _leaf(np.ones((2, 2)))
        with ad.no_grad():
            out = ad.mul(x, x)
        assert not out.requires_grad and out._node is None


def _op_cases(rng):
    """(name, forward over raw arrays, input shapes) for every op."""
    n, d = 4, 5
    return [
        ("add", lambda xs: float((xs[0] + xs[1]).sum()), [(n, d), (n, d)]),
        ("add_scalar", lambda xs: float((xs[0] + xs[1]).sum()), [(n, d), (1, 1)]),
        ("add_row", lambda xs: float(((xs[0] + xs[1]) ** 2).sum()), [(n, d), (1, d)]),
        ("sub", lambda xs: float((xs[0] - xs[1]).sum()), [(n, d), (n, d)]),
        ("mul", lambda xs: float((xs[0] * xs[1]).sum()), [(n, d), (n, d)]),
        ("mul_row", lambda xs: float(((xs[0] * xs[1]) ** 2).sum()), [(1, d), (n, d)]),
        ("matmul", lambda xs: float((xs[0] @ xs[1]).sum()), [(n, d), (d, 3)]),
        ("scale", lambda xs: float((xs[0] * -1.7).sum()), [(n, d)]),
        ("slice_cols", lambda xs: float((xs[0][:, 1:4] ** 2).sum()), [(n, d)]),
        ("reshape", lambda xs: float((xs[0].reshape(d, n) ** 2).sum()), [(n, d)]),
        (
            "embedding_lookup",
            lambda xs: float((xs[0][[2, 0, 2, 3]] ** 2).sum()),
            [(n, d)],
        ),
        (
            "attention",
            lambda xs: float((_np_attention(*xs, [1, 3, 2], 2) * np.arange(24).reshape(6, 4)).sum()),
            [(6, 4), (6, 4), (6, 4)],
        ),
        ("softplus", lambda xs: float(np.logaddexp(0, xs[0]).sum()), [(n, d)]),
        (
            "sigmoid",
            lambda xs: float((0.5 * (1 + np.tanh(0.5 * xs[0]))).sum() ** 2) / 10.0,
            [(n, d)],
        ),
        (
            "softmax",
            lambda xs: float(
                (_np_softmax(xs[0]) * np.arange(n * d).reshape(n, d)).sum()
            ),
            [(n, d)],
        ),
        ("sum_all", lambda xs: float((xs[0].sum()) ** 2) / 10.0, [(n, d)]),
        ("sum_axis0", lambda xs: float((xs[0].sum(axis=0) ** 2).sum()), [(n, d)]),
    ]


def _np_softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _np_attention(q, k, v, segments, heads):
    """Per-segment, per-head softmax(q k^T / sqrt(dh)) v, heads side by side."""
    dh = q.shape[1] // heads
    out = np.zeros_like(q)
    lo = 0
    for n in segments:
        rows = slice(lo, lo + n)
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            p = _np_softmax(q[rows, cols] @ k[rows, cols].T / math.sqrt(dh))
            out[rows, cols] = p @ v[rows, cols]
        lo += n
    return out


def _graph_for(name, leaves):
    n = leaves[0].data.shape[0] if leaves[0].data.ndim == 2 else 4
    if name in ("add", "add_scalar"):
        return ad.tensor_sum(ad.add(leaves[0], leaves[1]))
    if name == "sub":
        return ad.tensor_sum(ad.sub(leaves[0], leaves[1]))
    if name == "mul":
        return ad.tensor_sum(ad.mul(leaves[0], leaves[1]))
    if name in ("add_row", "mul_row"):
        z = (ad.add if name == "add_row" else ad.mul)(leaves[0], leaves[1])
        return ad.tensor_sum(ad.mul(z, z))
    if name == "matmul":
        return ad.tensor_sum(ad.matmul(leaves[0], leaves[1]))
    if name == "scale":
        return ad.tensor_sum(ad.scale(leaves[0], -1.7))
    if name == "slice_cols":
        z = ad.slice_cols(leaves[0], 1, 4)
        return ad.tensor_sum(ad.mul(z, z))
    if name == "reshape":
        z = ad.reshape(leaves[0], (leaves[0].data.shape[1], leaves[0].data.shape[0]))
        return ad.tensor_sum(ad.mul(z, z))
    if name == "attention":
        out = ad.attention(*leaves, [1, 3, 2], heads=2)
        coef = ad.Tensor(np.arange(24, dtype=np.float64).reshape(6, 4))
        return ad.tensor_sum(ad.mul(out, coef))
    if name == "embedding_lookup":
        z = ad.embedding_lookup(leaves[0], [2, 0, 2, 3])
        return ad.tensor_sum(ad.mul(z, z))
    if name == "softplus":
        return ad.tensor_sum(ad.softplus(leaves[0]))
    if name == "sigmoid":
        s = ad.tensor_sum(ad.sigmoid(leaves[0]))
        return ad.scale(ad.mul(s, s), 0.1)
    if name == "softmax":
        shp = leaves[0].data.shape
        coef = ad.Tensor(np.arange(shp[0] * shp[1], dtype=np.float64).reshape(shp))
        return ad.tensor_sum(ad.mul(ad.softmax(leaves[0]), coef))
    if name == "sum_all":
        s = ad.tensor_sum(leaves[0])
        return ad.scale(ad.mul(s, s), 0.1)
    if name == "sum_axis0":
        z = ad.tensor_sum(leaves[0], axis=0)
        return ad.tensor_sum(ad.mul(z, z))
    raise AssertionError(name)


@pytest.mark.parametrize("case", _op_cases(None), ids=lambda c: c[0])
def test_op_gradients_match_finite_differences(case):
    name, f, shapes = case
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    worst = 0.0
    for _ in range(5):
        arrays = [rng.standard_normal(s) for s in shapes]
        leaves = [_leaf(a) for a in arrays]
        ad.backward(_graph_for(name, leaves))
        worst = max(
            worst, check_gradients(f, arrays, [leaf.grad for leaf in leaves])
        )
    assert worst < TOL


def _engine_ops() -> set[str]:
    """Public differentiable functions of diffrank.autodiff."""
    return {
        name
        for name, obj in vars(ad).items()
        if inspect.isfunction(obj) and obj.__module__ == ad.__name__
        and not name.startswith("_")
    } - {"backward", "no_grad"}


def test_gradcheck_table_covers_exactly_the_differentiable_ops(monkeypatch):
    """Each OP_CASES row calls one engine function, and the rows together
    call every public differentiable function of diffrank.autodiff."""
    public = _engine_ops()
    outer = []  # functions entered from outside the engine
    depth = [0]

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            if depth[0] == 0:
                outer.append(name)
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapped

    for name in public:
        monkeypatch.setattr(ad, name, spy(name, getattr(ad, name)))
    covered = set()
    for name, make_inputs, op in OP_CASES:
        outer.clear()
        op([ad.Tensor(a) for a in make_inputs(np.random.default_rng(0))])
        assert len(outer) == 1, (name, outer)
        covered.update(outer)
    assert covered == public


def test_every_engine_op_has_a_caller_in_the_library():
    """The engine holds only ops the library calls as `ad.<op>(...)` from a
    module other than the gradient checker. slice_cols is the one exception:
    the benchmark harness still hooks it, so it goes with the harness."""
    called = set()
    for path in Path(ad.__file__).parent.glob("*.py"):
        if path.name == "gradcheck.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "ad":
                called.add(func.attr)
    assert _engine_ops() - called == {"slice_cols"}


def test_log_gradient_matches_finite_differences(rng):
    arrays = [rng.random((4, 5)) + 0.5]
    x = _leaf(arrays[0])
    ad.backward(ad.tensor_sum(ad.log(x)))
    assert check_gradients(lambda xs: float(np.log(xs[0]).sum()), arrays, [x.grad]) < TOL


def test_sqrt_gradient_matches_finite_differences(rng):
    arrays = [rng.random((4, 5)) + 0.5]
    x = _leaf(arrays[0])
    ad.backward(ad.tensor_sum(ad.sqrt(x)))
    assert (
        check_gradients(lambda xs: float(np.sqrt(xs[0]).sum()), arrays, [x.grad]) < TOL
    )


def test_reciprocal_gradient_matches_finite_differences(rng):
    arrays = [rng.random((4, 5)) + 0.5]
    x = _leaf(arrays[0])
    ad.backward(ad.tensor_sum(ad.reciprocal(x)))
    assert (
        check_gradients(lambda xs: float((1.0 / xs[0]).sum()), arrays, [x.grad]) < TOL
    )


def test_layer_norm_gradient_matches_finite_differences(rng):
    n, d = 5, 8

    def f(xs):
        x, g, b = xs
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        out = g * (x - mu) / np.sqrt(var + 1e-5) + b
        return float((out * coef).sum())

    worst = 0.0
    for _ in range(5):
        coef = rng.standard_normal((n, d))
        arrays = [
            rng.standard_normal((n, d)),
            rng.standard_normal((1, d)),
            rng.standard_normal((1, d)),
        ]
        leaves = [_leaf(a) for a in arrays]
        out = ad.layer_norm(*leaves)
        ad.backward(ad.tensor_sum(ad.mul(out, ad.Tensor(coef))))
        worst = max(worst, check_gradients(f, arrays, [leaf.grad for leaf in leaves]))
    assert worst < TOL


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (40, 64), (1620, 64)])
def test_layer_norm_matches_the_var_form_bit_for_bit(rng, dtype, shape):
    x = (rng.standard_normal(shape) * 3.0 + 1.5).astype(dtype)
    gain = rng.standard_normal((1, shape[1])).astype(dtype)
    bias = rng.standard_normal((1, shape[1])).astype(dtype)
    mu = x.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=1, keepdims=True) + 1e-5)
    expected = gain * ((x - mu) * inv) + bias
    out = ad.layer_norm(ad.Tensor(x), ad.Tensor(gain), ad.Tensor(bias)).data
    assert out.dtype == np.dtype(dtype)
    assert np.array_equal(out, expected)


def test_composed_three_layer_network_gradient(rng):
    """softplus MLP into softmax, checked end to end against FD."""
    n, k, h = 3, 4, 6
    coef = rng.standard_normal((n, 2))

    def f(xs):
        x, w1, b1, w2, b2 = xs
        z = np.logaddexp(0, x @ w1 + b1)
        p = _np_softmax(z @ w2 + b2)
        return float((p * coef).sum())

    arrays = [
        rng.standard_normal((n, k)),
        rng.standard_normal((k, h)),
        rng.standard_normal((1, h)),
        rng.standard_normal((h, 2)),
        rng.standard_normal((1, 2)),
    ]
    leaves = [_leaf(a) for a in arrays]
    x, w1, b1, w2, b2 = leaves
    z = ad.softplus(ad.linear(x, w1, b1))
    p = ad.softmax(ad.linear(z, w2, b2))
    ad.backward(ad.tensor_sum(ad.mul(p, ad.Tensor(coef))))
    assert check_gradients(f, arrays, [leaf.grad for leaf in leaves]) < TOL


def test_gradients_accumulate_across_graphs(rng):
    x = _leaf(rng.standard_normal((3, 3)))
    ad.backward(ad.tensor_sum(x))
    first = x.grad.copy()
    ad.backward(ad.tensor_sum(x))
    np.testing.assert_allclose(x.grad, 2 * first)


def test_relative_error_uses_unit_floor():
    assert relative_error(np.array([1e-6]), np.array([0.0])) == pytest.approx(1e-6)


def test_backward_frees_the_graph_as_it_walks(rng):
    """A chain of 20 softplus nodes with only the loss referenced: backward
    holds a few arrays at a time, not one gradient per node."""
    tracemalloc.start()
    try:
        x = _leaf(rng.standard_normal((256, 256)))
        y = x
        for _ in range(20):
            y = ad.softplus(y)
        loss = ad.tensor_sum(y)
        del y
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        ad.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 4 * x.data.nbytes
    assert x.grad is not None and x.grad.shape == x.data.shape
    assert np.all(np.isfinite(x.grad)) and np.all(x.grad > 0)


def _packed_model_batch():
    """A small float64 model with dropout on, and a packed three-query
    batch: features, noisy labels, per-query timesteps, segment lengths."""
    cfg = ModelConfig(k=6, d_model=16, heads=2, blocks=2, denoise_layers=3, dropout_p=0.2)
    model = DenoiseModel(cfg, ScheduleSpec(timesteps=50), dtype="float64", seed=0)
    rng = np.random.default_rng(0)
    lengths = np.array([30, 50, 20])
    rows = int(lengths.sum())
    batch = (
        rng.standard_normal((rows, cfg.k)),
        rng.standard_normal(rows),
        np.array([3, 17, 40]),
        lengths,
    )
    return model, batch


def test_forward_graph_holds_only_what_backward_reads():
    """Bytes allocated by a training forward pass and still held when
    backward would start. Per row, what backward reads is about 52
    d_model-wide float64 rows: in each of the two blocks the layer norms'
    normalized inputs and outputs, q, k, v and the attention output, the
    attention probabilities (heads x segment length, 4.75 widths here),
    the FFN's 4-wide pre- and post-activation, and two boolean dropout
    masks; then the output norm, and in the head each softplus input, its
    masked output and the timestep gate. Keeping the pre-bias products,
    the residual sums or float masks as well adds 6 widths or more."""
    model, (feats, y_t, steps, lengths) = _packed_model_batch()
    width_bytes = model.config.d_model * 8
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        y_hat = model.predict_y0(
            feats, y_t, t=steps, segments=lengths, rng=np.random.default_rng(1)
        )
        loss = ad.tensor_mean(ad.mul(y_hat, y_hat))
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held / feats.shape[0] < 58 * width_bytes
    ad.backward(loss)
    assert all(p.grad is not None for p in model.parameters())


def test_inference_attention_peak_is_one_score_array(rng):
    """Under no_grad, attention over one 1,000-row segment (4 heads,
    float32) peaks at about one (heads, n, n) score array: the scores are
    scaled in place, where a scaled copy would hold two at once."""
    n, heads = 1000, 4
    q, k, v = (rng.standard_normal((n, 32)).astype(np.float32) for _ in range(3))
    score_bytes = heads * n * n * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        with ad.no_grad():
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out = ad.attention(q, k, v, [n], heads)
            _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.data.shape == (n, 32)
    assert peak - start < 1.5 * score_bytes


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_linear_matches_matmul_plus_bias_bit_for_bit(rng, dtype):
    arrays = [
        rng.standard_normal(shape).astype(dtype) for shape in ((37, 19), (19, 23), (1, 23))
    ]
    weight = ad.Tensor(rng.standard_normal((37, 23)).astype(dtype))

    def run(op):
        leaves = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = op(*leaves)
        ad.backward(ad.tensor_sum(ad.mul(out, weight)))
        return [out.data] + [leaf.grad for leaf in leaves]

    fused = run(ad.linear)
    composed = run(lambda x, w, b: ad.add(ad.matmul(x, w), b))
    for got, want in zip(fused, composed):
        assert got.dtype == np.dtype(dtype)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_dropout_matches_the_float_mask_formula_bit_for_bit(rng, dtype):
    x = rng.standard_normal((41, 13)).astype(dtype)
    g = rng.standard_normal((41, 13)).astype(dtype)
    p = 0.3
    keep = (np.random.default_rng(5).random(x.shape) >= p).astype(dtype)
    keep *= 1.0 / (1.0 - p)
    leaf = ad.Tensor(x, requires_grad=True)
    out = ad.dropout(leaf, p, np.random.default_rng(5))
    ad.backward(ad.tensor_sum(ad.mul(out, ad.Tensor(g))))
    assert out.data.dtype == leaf.grad.dtype == np.dtype(dtype)
    assert np.array_equal(out.data, x * keep)
    assert np.array_equal(leaf.grad, g * keep)


def test_no_grad_forward_builds_no_node(monkeypatch):
    model, (feats, y_t, steps, lengths) = _packed_model_batch()
    built = []
    real_node = ad._Node

    def counted(*args):
        built.append(1)
        return real_node(*args)

    monkeypatch.setattr(ad, "_Node", counted)
    with ad.no_grad():
        y_hat = model.predict_y0(feats, y_t, t=steps, segments=lengths)
    assert not y_hat.requires_grad and y_hat._node is None and not built
    y_hat = model.predict_y0(feats, y_t, t=steps, segments=lengths)
    assert y_hat.requires_grad and y_hat._node is not None and built
