"""Reverse-mode automatic differentiation over dense numpy arrays.

Scope is deliberately small: exactly the operations the denoise network
and the ranking losses need, nothing else. Tensors wrap numpy arrays and
remember their parents, so a backward pass is a reverse topological walk
over the graph built by the forward pass.

Conventions:
  * add/mul/sub broadcast only a single-element operand, or a (1, d)
    row against an (n, d) operand; all other shape mismatches raise
    ShapeError naming both shapes.
  * softmax normalizes the last axis.
  * backward(loss) requires a single-element tensor and consumes the
    graph: closures are released as they run, so a graph is traversed
    exactly once. Gradients accumulate into .grad across separate
    graphs until the caller resets them.
"""

from __future__ import annotations

import contextlib
import math
import threading

import numpy as np

from .errors import DomainError, ShapeError

# Graph recording is a per-thread property: no_grad in one thread must not
# switch off recording in another thread that is building a graph.
_GRAD_STATE = threading.local()


def _grad_enabled() -> bool:
    return getattr(_GRAD_STATE, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the context (inference mode)."""
    prev = _grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def _accumulate(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add g to .grad. fresh: g is a new array that no other tensor
        holds, so it may become .grad without a copy."""
        if self.grad is not None:
            self.grad += g
        elif fresh and g.dtype == self.data.dtype and g.shape == self.data.shape:
            self.grad = g
        else:
            self.grad = np.array(np.broadcast_to(g, self.data.shape), dtype=self.data.dtype)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    def backward(self):
        backward(self)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data, parents, backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    tracked = _grad_enabled() and any(p.requires_grad for p in parents)
    out.requires_grad = tracked
    out._parents = tuple(parents) if tracked else ()
    out._backward = backward_fn if tracked else None
    return out


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    """Collapse a gradient onto a broadcast operand's shape: a single
    element or a (1, d) row."""
    if g.shape == tuple(shape):
        return g
    if math.prod(shape) == 1:
        return np.asarray(g.sum()).reshape(shape)
    return g.sum(axis=0, keepdims=True)


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation from a single-element tensor."""
    if loss.data.size != 1:
        raise ShapeError(
            f"backward requires a single-element tensor, got shape {loss.data.shape}"
        )
    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss._accumulate(np.ones_like(loss.data))
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
            node._backward = None
            node._parents = ()


# ---------------------------------------------------------------------------
# binary ops


def _binary_shapes(a: Tensor, b: Tensor, opname: str):
    sa, sb = a.data.shape, b.data.shape
    if sa == sb or a.data.size == 1 or b.data.size == 1:
        return
    if len(sa) == len(sb) == 2 and sa[1] == sb[1] and 1 in (sa[0], sb[0]):
        return  # a (1, d) row against an (n, d) operand
    raise ShapeError(f"{opname}: incompatible shapes {sa} and {sb}")


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes(a, b, "add")
    data = a.data + b.data

    def back(g):
        if a.requires_grad:
            a._accumulate(_reduce_to(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_reduce_to(g, b.data.shape))

    return _result(data, (a, b), back)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes(a, b, "sub")
    data = a.data - b.data

    def back(g):
        if a.requires_grad:
            a._accumulate(_reduce_to(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_reduce_to(-g, b.data.shape))

    return _result(data, (a, b), back)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes(a, b, "mul")
    data = a.data * b.data

    def back(g):
        if a.requires_grad:
            a._accumulate(_reduce_to(g * b.data, a.data.shape), fresh=True)
        if b.requires_grad:
            b._accumulate(_reduce_to(g * a.data, b.data.shape), fresh=True)

    return _result(data, (a, b), back)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}"
        )
    data = a.data @ b.data

    def back(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T, fresh=True)
        if b.requires_grad:
            b._accumulate(a.data.T @ g, fresh=True)

    return _result(data, (a, b), back)


def scale(x, c: float) -> Tensor:
    x = _as_tensor(x)
    c = float(c)
    data = x.data * c

    def back(g):
        if x.requires_grad:
            x._accumulate(g * c)

    return _result(data, (x,), back)


# ---------------------------------------------------------------------------
# shape ops


def slice_cols(x, start: int, stop: int) -> Tensor:
    """Take columns [start, stop) of the last axis."""
    x = _as_tensor(x)
    if not (0 <= start < stop <= x.data.shape[-1]):
        raise ShapeError(
            f"slice_cols: range [{start}, {stop}) invalid for shape {x.data.shape}"
        )
    data = x.data[..., start:stop].copy()

    def back(g):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[..., start:stop] = g
            x._accumulate(full)

    return _result(data, (x,), back)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    data = x.data.reshape(shape)

    def back(g):
        if x.requires_grad:
            x._accumulate(g.reshape(x.data.shape))

    return _result(data, (x,), back)


def embedding_lookup(table, indices) -> Tensor:
    """Gather rows of a 2-d table; backward scatter-adds into those rows."""
    table = _as_tensor(table)
    idx = np.asarray(indices, dtype=np.int64)
    if table.data.ndim != 2 or idx.ndim != 1:
        raise ShapeError(
            f"embedding_lookup: table shape {table.data.shape}, index shape {idx.shape}"
        )
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ShapeError(
            f"embedding_lookup: index out of range for table shape {table.data.shape}"
        )
    data = table.data[idx].copy()

    def back(g):
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, idx, g)
            table._accumulate(full)

    return _result(data, (table,), back)


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def softplus(x) -> Tensor:
    x = _as_tensor(x)
    # max(x, 0) + log1p(exp(-|x|)): finite for large |x|, and computed in
    # place it costs a fraction of logaddexp(0, x)
    data = np.abs(x.data, out=np.empty_like(x.data))
    np.negative(data, out=data)
    np.exp(data, out=data)
    np.log1p(data, out=data)
    data += np.maximum(x.data, 0.0)

    def back(g):
        if x.requires_grad:
            x._accumulate(g * _sigmoid(x.data), fresh=True)

    return _result(data, (x,), back)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # tanh form stays finite for large |z|
    s = np.multiply(z, 0.5)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    data = _sigmoid(x.data)

    def back(g):
        if x.requires_grad:
            x._accumulate(g * data * (1.0 - data))

    return _result(data, (x,), back)


def log(x) -> Tensor:
    x = _as_tensor(x)
    if np.any(x.data <= 0):
        raise DomainError("log: input has non-positive entries")
    data = np.log(x.data)

    def back(g):
        if x.requires_grad:
            x._accumulate(g / x.data)

    return _result(data, (x,), back)


def sqrt(x) -> Tensor:
    x = _as_tensor(x)
    if np.any(x.data <= 0):
        raise DomainError("sqrt: input has non-positive entries")
    data = np.sqrt(x.data)

    def back(g):
        if x.requires_grad:
            x._accumulate(g * 0.5 / data)

    return _result(data, (x,), back)


def reciprocal(x) -> Tensor:
    x = _as_tensor(x)
    if np.any(x.data == 0):
        raise DomainError("reciprocal: input has zero entries")
    data = 1.0 / x.data

    def back(g):
        if x.requires_grad:
            x._accumulate(-g * data * data)

    return _result(data, (x,), back)


def softmax(x) -> Tensor:
    """Softmax over the last axis."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        if x.requires_grad:
            inner = (g * data).sum(axis=-1, keepdims=True)
            x._accumulate((g - inner) * data)

    return _result(data, (x,), back)


# ---------------------------------------------------------------------------
# reductions


def tensor_sum(x, axis=None) -> Tensor:
    x = _as_tensor(x)
    if axis is None:
        data = np.asarray(x.data.sum())
    else:
        data = x.data.sum(axis=axis, keepdims=True)

    def back(g):
        if x.requires_grad:
            x._accumulate(np.broadcast_to(g, x.data.shape).copy())

    return _result(data, (x,), back)


def tensor_mean(x) -> Tensor:
    """Mean over every entry, as a single-element tensor."""
    x = _as_tensor(x)
    count = x.data.size
    data = np.asarray(x.data.mean())

    def back(g):
        if x.requires_grad:
            x._accumulate(np.broadcast_to(g, x.data.shape) / count)

    return _result(data, (x,), back)


# ---------------------------------------------------------------------------
# structured ops


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize each row of a 2-d tensor, then apply a learned affine map.

    gain and bias have shape (1, d); statistics use the population variance,
    with 1e-5 added before the square root.
    """
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm: expected a 2-d input, got shape {x.data.shape}")
    d = x.data.shape[1]
    if gain.data.shape != (1, d) or bias.data.shape != (1, d):
        raise ShapeError(
            f"layer_norm: affine shapes {gain.data.shape}/{bias.data.shape} "
            f"do not match input {x.data.shape}"
        )
    mu = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x.data - mu) * inv
    data = gain.data * xhat + bias.data

    def back(g):
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=0, keepdims=True))
        if gain.requires_grad:
            gain._accumulate((g * xhat).sum(axis=0, keepdims=True))
        if x.requires_grad:
            gx_hat = g * gain.data
            row_mean = gx_hat.mean(axis=1, keepdims=True)
            row_proj = (gx_hat * xhat).mean(axis=1, keepdims=True)
            x._accumulate(inv * (gx_hat - row_mean - xhat * row_proj), fresh=True)

    return _result(data, (x, gain, bias), back)


def attention(q, k, v, segments, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention within row segments.

    q, k and v are (N, d). Consecutive rows form segments of the given
    positive lengths, summing to N, and a row attends only to the rows of
    its own segment. Head h owns columns [h*dh, (h+1)*dh) with dh = d /
    heads; the (N, d) result holds the head outputs in that column order.
    Forward and backward loop over segments with the heads batched as
    (heads, n, dh) arrays, so the whole batch is one graph node.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    shape = q.data.shape
    if len(shape) != 2 or k.data.shape != shape or v.data.shape != shape:
        raise ShapeError(
            f"attention: q, k, v shapes {shape}, {k.data.shape}, {v.data.shape} "
            "must be equal and 2-d"
        )
    rows, d = shape
    if heads < 1 or d % heads:
        raise ShapeError(f"attention: width {d} does not split into {heads} heads")
    lengths = np.asarray(segments, dtype=np.int64).reshape(-1)
    if np.any(lengths < 1) or lengths.sum() != rows:
        raise ShapeError(
            f"attention: segment lengths {lengths.tolist()} do not split {rows} rows"
        )
    dh = d // heads
    c = 1.0 / math.sqrt(dh)
    ends = np.cumsum(lengths).tolist()
    bounds = list(zip([0] + ends[:-1], ends))

    def split(x, lo, hi):  # rows [lo, hi) of (N, d) as (heads, n, dh)
        return x[lo:hi].reshape(hi - lo, heads, dh).transpose(1, 0, 2)

    def merge(x):  # (heads, n, dh) back to (n, d)
        return x.transpose(1, 0, 2).reshape(-1, d)

    data = np.empty_like(q.data)
    probs = []
    for lo, hi in bounds:
        # A contiguous K^T gives each head the BLAS call of a 2-d q @ k.T,
        # so a lone segment sums in the same order as unbatched heads.
        kt = np.ascontiguousarray(split(k.data, lo, hi).transpose(0, 2, 1))
        s = (split(q.data, lo, hi) @ kt) * c
        s -= s.max(axis=-1, keepdims=True)
        np.exp(s, out=s)
        s /= s.sum(axis=-1, keepdims=True)
        data[lo:hi] = merge(s @ split(v.data, lo, hi))
        probs.append(s)

    def back(g):
        gq, gk, gv = (np.empty_like(q.data) for _ in range(3))
        for (lo, hi), p in zip(bounds, probs):
            go = split(g, lo, hi)
            gv[lo:hi] = merge(p.transpose(0, 2, 1) @ go)
            gs = go @ split(v.data, lo, hi).transpose(0, 2, 1)
            gs -= (gs * p).sum(axis=-1, keepdims=True)
            gs *= p
            gs *= c
            gq[lo:hi] = merge(gs @ split(k.data, lo, hi))
            gk[lo:hi] = merge(gs.transpose(0, 2, 1) @ split(q.data, lo, hi))
        for t, gt in ((q, gq), (k, gk), (v, gv)):
            if t.requires_grad:
                t._accumulate(gt, fresh=True)

    return _result(data, (q, k, v), back)


def dropout(x, p: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: kept entries are scaled by 1/(1-p) during training.

    With p = 0 or training disabled this is the identity and returns the
    input tensor unchanged.
    """
    x = _as_tensor(x)
    if not 0.0 <= p < 1.0:
        raise DomainError(f"dropout: p must lie in [0, 1), got {p}")
    if p == 0.0 or not training:
        return x
    if rng is None:
        raise ValueError("dropout: an rng is required when training with p > 0")
    keep = (rng.random(x.data.shape) >= p).astype(x.data.dtype)
    keep *= 1.0 / (1.0 - p)
    data = x.data * keep

    def back(g):
        if x.requires_grad:
            x._accumulate(g * keep, fresh=True)

    return _result(data, (x,), back)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w plus a (1, width) bias row. Composition of primitive ops."""
    return add(matmul(x, w), b)
