"""Reverse-mode automatic differentiation over dense numpy arrays.

Scope is deliberately small: exactly the operations the denoise network
and the ranking losses need, nothing else. A Tensor wraps a numpy array;
an op whose inputs need gradients also gives its result a graph node, and
a backward pass is a reverse topological walk over those nodes.

The graph holds no values of its own. A node keeps its parents, the
backward closure, its gradient while backward runs, and the shape and
dtype that gradient takes; each closure captures only the arrays its
backward reads (a matmul's operands, a layer norm's normalized input, a
dropout's boolean mask). A value that no backward reads, such as a
residual sum or a dropout output, is freed as soon as the caller drops
its Tensor, however long the graph lives.

Conventions:
  * add/mul/sub broadcast only a single-element operand, or a (1, d)
    row against an (n, d) operand; all other shape mismatches raise
    ShapeError naming both shapes.
  * softmax normalizes the last axis.
  * backward(loss) requires a single-element tensor and consumes the
    graph: each node's closure, parents and gradient are released as soon
    as its gradient has passed to its parents, so a graph is traversed
    exactly once and intermediate gradients never pile up. Only leaves
    (requires_grad=True and no producing op, such as model parameters)
    keep .grad, which accumulates across separate graphs until the
    caller resets it.
  * under no_grad an op builds no node, so its result holds its value
    and nothing else.
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


class _Sink:
    """Where a gradient lands: a leaf tensor's .grad or a graph node's."""

    __slots__ = ()

    def _accumulate(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add g to .grad. fresh: g is a new array that nothing else
        holds, so it may become .grad without a copy."""
        if self.grad is not None:
            self.grad += g
        elif fresh and g.dtype == self.dtype and g.shape == self.shape:
            self.grad = g
        else:
            self.grad = np.array(np.broadcast_to(g, self.shape), dtype=self.dtype)


class Tensor(_Sink):
    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class _Node(_Sink):
    """The graph side of an op's result. _parents holds one sink per
    input, in input order: the input's node, the input itself when it is
    a leaf that requires a gradient, or None. _backward(g, *_parents)
    passes the result's gradient g on to them."""

    __slots__ = ("_parents", "_backward", "grad", "shape", "dtype")

    def __init__(self, parents, backward_fn, shape, dtype):
        self._parents = parents
        self._backward = backward_fn
        self.grad = None
        self.shape = shape
        self.dtype = dtype


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _sink_of(t: Tensor):
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


def _result(data, inputs, backward_fn) -> Tensor:
    """Wrap an op's output. backward_fn(g, *sinks) must not reference the
    input tensors, only the arrays its backward reads, so the node keeps
    nothing else alive."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._node = None
    if _grad_enabled():
        sinks = tuple(_sink_of(t) for t in inputs)
        if any(s is not None for s in sinks):
            out._node = _Node(sinks, backward_fn, data.shape, data.dtype)
    out.requires_grad = out._node is not None
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
    root = loss._node
    if root is None:  # a leaf, or a value no graph produced
        loss._accumulate(np.ones_like(loss.data))
        return
    topo = []
    seen = set()
    stack = [(root, False)]
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
            if type(p) is _Node and id(p) not in seen:
                stack.append((p, False))
    root._accumulate(np.ones_like(loss.data))
    # popping drops topo's reference to each node as it runs, so a node's
    # closure, saved arrays and gradient are freed once its parents hold
    # that gradient
    while topo:
        node = topo.pop()
        if node._backward is not None:
            node._backward(node.grad, *node._parents)
        node._backward = None
        node._parents = ()
        node.grad = None


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

    def back(g, sa, sb):
        if sa is not None:
            sa._accumulate(_reduce_to(g, sa.shape))
        if sb is not None:
            sb._accumulate(_reduce_to(g, sb.shape))

    return _result(a.data + b.data, (a, b), back)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes(a, b, "sub")

    def back(g, sa, sb):
        if sa is not None:
            sa._accumulate(_reduce_to(g, sa.shape))
        if sb is not None:
            sb._accumulate(_reduce_to(-g, sb.shape))

    return _result(a.data - b.data, (a, b), back)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes(a, b, "mul")
    # each operand's gradient reads only the other operand
    av = a.data if b.requires_grad else None
    bv = b.data if a.requires_grad else None

    def back(g, sa, sb):
        if sa is not None:
            sa._accumulate(_reduce_to(g * bv, sa.shape), fresh=True)
        if sb is not None:
            sb._accumulate(_reduce_to(g * av, sb.shape), fresh=True)

    return _result(a.data * b.data, (a, b), back)


def _matmul_shapes(a: Tensor, b: Tensor, opname: str):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"{opname}: incompatible shapes {a.data.shape} and {b.data.shape}"
        )


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _matmul_shapes(a, b, "matmul")
    av = a.data if b.requires_grad else None
    bv = b.data if a.requires_grad else None

    def back(g, sa, sb):
        if sa is not None:
            sa._accumulate(g @ bv.T, fresh=True)
        if sb is not None:
            sb._accumulate(av.T @ g, fresh=True)

    return _result(a.data @ b.data, (a, b), back)


def scale(x, c: float) -> Tensor:
    x = _as_tensor(x)
    c = float(c)

    def back(g, sx):
        sx._accumulate(g * c)

    return _result(x.data * c, (x,), back)


# ---------------------------------------------------------------------------
# shape ops


def slice_cols(x, start: int, stop: int) -> Tensor:
    """Take columns [start, stop) of the last axis."""
    x = _as_tensor(x)
    if not (0 <= start < stop <= x.data.shape[-1]):
        raise ShapeError(
            f"slice_cols: range [{start}, {stop}) invalid for shape {x.data.shape}"
        )

    def back(g, sx):
        full = np.zeros(sx.shape, dtype=sx.dtype)
        full[..., start:stop] = g
        sx._accumulate(full)

    return _result(x.data[..., start:stop].copy(), (x,), back)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)

    def back(g, sx):
        sx._accumulate(g.reshape(sx.shape))

    return _result(x.data.reshape(shape), (x,), back)


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

    def back(g, st):
        full = np.zeros(st.shape, dtype=st.dtype)
        np.add.at(full, idx, g)
        st._accumulate(full)

    return _result(table.data[idx].copy(), (table,), back)


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def softplus(x) -> Tensor:
    x = _as_tensor(x)
    xv = x.data
    # max(x, 0) + log1p(exp(-|x|)): finite for large |x|, and computed in
    # place it costs a fraction of logaddexp(0, x)
    data = np.abs(xv, out=np.empty_like(xv))
    np.negative(data, out=data)
    np.exp(data, out=data)
    np.log1p(data, out=data)
    data += np.maximum(xv, 0.0)

    def back(g, sx):
        sx._accumulate(g * _sigmoid(xv), fresh=True)

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

    def back(g, sx):
        sx._accumulate(g * data * (1.0 - data))

    return _result(data, (x,), back)


def log(x) -> Tensor:
    x = _as_tensor(x)
    xv = x.data
    if np.any(xv <= 0):
        raise DomainError("log: input has non-positive entries")

    def back(g, sx):
        sx._accumulate(g / xv)

    return _result(np.log(xv), (x,), back)


def sqrt(x) -> Tensor:
    x = _as_tensor(x)
    if np.any(x.data <= 0):
        raise DomainError("sqrt: input has non-positive entries")
    data = np.sqrt(x.data)

    def back(g, sx):
        sx._accumulate(g * 0.5 / data)

    return _result(data, (x,), back)


def reciprocal(x) -> Tensor:
    x = _as_tensor(x)
    if np.any(x.data == 0):
        raise DomainError("reciprocal: input has zero entries")
    data = 1.0 / x.data

    def back(g, sx):
        sx._accumulate(-g * data * data)

    return _result(data, (x,), back)


def softmax(x) -> Tensor:
    """Softmax over the last axis."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def back(g, sx):
        inner = (g * data).sum(axis=-1, keepdims=True)
        sx._accumulate((g - inner) * data)

    return _result(data, (x,), back)


# ---------------------------------------------------------------------------
# reductions


def tensor_sum(x, axis=None) -> Tensor:
    x = _as_tensor(x)
    if axis is None:
        data = np.asarray(x.data.sum())
    else:
        data = x.data.sum(axis=axis, keepdims=True)

    def back(g, sx):
        sx._accumulate(np.broadcast_to(g, sx.shape).copy())

    return _result(data, (x,), back)


def tensor_mean(x) -> Tensor:
    """Mean over every entry, as a single-element tensor."""
    x = _as_tensor(x)
    count = x.data.size

    def back(g, sx):
        sx._accumulate(np.broadcast_to(g, sx.shape) / count)

    return _result(np.asarray(x.data.mean()), (x,), back)


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
    gv = gain.data
    # center once: the variance is the row mean of the squared centered
    # rows, bit for bit what x.var computes, and xhat scales them in place
    mu = x.data.mean(axis=1, keepdims=True)
    xhat = x.data - mu
    var = (xhat * xhat).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat *= inv
    data = gv * xhat + bias.data

    def back(g, sx, sgain, sbias):
        if sbias is not None:
            sbias._accumulate(g.sum(axis=0, keepdims=True))
        if sgain is not None:
            sgain._accumulate((g * xhat).sum(axis=0, keepdims=True))
        if sx is not None:
            gx_hat = g * gv
            row_mean = gx_hat.mean(axis=1, keepdims=True)
            row_proj = (gx_hat * xhat).mean(axis=1, keepdims=True)
            sx._accumulate(inv * (gx_hat - row_mean - xhat * row_proj), fresh=True)

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
    qv, kv, vv = q.data, k.data, v.data

    def split(x, lo, hi):  # rows [lo, hi) of (N, d) as (heads, n, dh)
        return x[lo:hi].reshape(hi - lo, heads, dh).transpose(1, 0, 2)

    def merge(x):  # (heads, n, dh) back to (n, d)
        return x.transpose(1, 0, 2).reshape(-1, d)

    data = np.empty_like(qv)
    probs = []
    for lo, hi in bounds:
        # A contiguous K^T gives each head the BLAS call of a 2-d q @ k.T,
        # so a lone segment sums in the same order as unbatched heads.
        kt = np.ascontiguousarray(split(kv, lo, hi).transpose(0, 2, 1))
        s = split(qv, lo, hi) @ kt
        s *= c  # in place: a second (heads, n, n) array would double the peak
        s -= s.max(axis=-1, keepdims=True)
        np.exp(s, out=s)
        s /= s.sum(axis=-1, keepdims=True)
        data[lo:hi] = merge(s @ split(vv, lo, hi))
        probs.append(s)

    def back(g, *sinks):
        gq, gk, gv = (np.empty_like(qv) for _ in range(3))
        for (lo, hi), p in zip(bounds, probs):
            go = split(g, lo, hi)
            gv[lo:hi] = merge(p.transpose(0, 2, 1) @ go)
            gs = go @ split(vv, lo, hi).transpose(0, 2, 1)
            gs -= (gs * p).sum(axis=-1, keepdims=True)
            gs *= p
            gs *= c
            gq[lo:hi] = merge(gs @ split(kv, lo, hi))
            gk[lo:hi] = merge(gs.transpose(0, 2, 1) @ split(qv, lo, hi))
        for sink, gt in zip(sinks, (gq, gk, gv)):
            if sink is not None:
                sink._accumulate(gt, fresh=True)

    return _result(data, (q, k, v), back)


def dropout(x, p: float, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: entries are kept with probability 1 - p, drawn
    from rng, and scaled by 1/(1-p).

    With p = 0 or no rng (inference) this is the identity and returns the
    input tensor unchanged. The graph keeps the kept entries as a boolean
    mask; backward rebuilds the scaled float mask by the forward's own
    two steps, so the gradient is the same bits as from a saved one.
    """
    x = _as_tensor(x)
    if not 0.0 <= p < 1.0:
        raise DomainError(f"dropout: p must lie in [0, 1), got {p}")
    if p == 0.0 or rng is None:
        return x
    mask = rng.random(x.data.shape) >= p
    dtype = x.data.dtype

    def masked(values):
        keep = mask.astype(dtype)
        keep *= 1.0 / (1.0 - p)
        keep *= values
        return keep

    def back(g, sx):
        sx._accumulate(masked(g), fresh=True)

    return _result(masked(x.data), (x,), back)


def linear(x, w, b) -> Tensor:
    """x @ w plus a (1, width) bias row, as one graph node: the bias is
    added in place, so the graph never holds the product before it."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    _matmul_shapes(x, w, "linear")
    if b.data.shape != (1, w.data.shape[1]):
        raise ShapeError(
            f"linear: bias shape {b.data.shape} is not a (1, {w.data.shape[1]}) row"
        )
    xv = x.data if w.requires_grad else None
    wv = w.data if x.requires_grad else None
    data = x.data @ w.data
    data += b.data

    def back(g, sx, sw, sb):
        if sx is not None:
            sx._accumulate(g @ wv.T, fresh=True)
        if sw is not None:
            sw._accumulate(xv.T @ g, fresh=True)
        if sb is not None:
            sb._accumulate(_reduce_to(g, sb.shape))

    return _result(data, (x, w, b), back)
