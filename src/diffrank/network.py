"""The conditional denoiser: document encoder plus noisy-label head.

encode() turns a query's document-feature matrix into per-document
context vectors. With attention enabled each block is a pre-norm
transformer layer (multi-head self-attention over the documents of the
query, then a feed-forward sublayer); there is deliberately no positional
signal, so the encoder is equivariant to document order. With attention
disabled the blocks keep only their feed-forward half and documents never
see each other.

Several queries can run as one packed batch: their matrices stacked
row-wise, with `segments` giving each query's row count. Attention stays
within a segment and every other layer is row-wise, so a packed query
gets the same outputs, up to float rounding, as when it runs alone.

The denoise head consumes the context vectors together with the noisy
label column and the embedded timestep: every hidden layer is
Linear -> softplus -> dropout, gated elementwise by the timestep
embedding, and the first layer adds the noisy label times its own weight
row `den0.label.w`; the output layer produces one activation per
relevance grade, and a softmax turns them into weights over the grades
0..letor.MAX_LABEL whose weighted sum is the predicted clean label,
guaranteed to stay inside [0, MAX_LABEL].

The head is split where the noisy label enters. denoise_input() is the
context's share of the first layer and timestep_embedding() the gate;
denoise() takes both and runs only what the label reaches. predict_y0()
composes the three for training, and the sampler, whose context is fixed
over a reverse process, builds the first two once per call.

Checkpoints are a self-describing binary: magic, version, a JSON header
(model config, schedule spec, dtype, parameter manifest), then raw
parameter blobs in manifest order.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from ._atomic import atomic_write
from .autodiff import Tensor
from .errors import (
    CacheCorruptionError,
    ConfigError,
    DataError,
    IncompatibilityError,
    ShapeError,
    require_integers,
)
from .letor import MAX_LABEL
from .schedule import ScheduleSpec

DTYPES = ("float32", "float64")
_CKPT_MAGIC = b"DRCKPTF\x00"
_CKPT_VERSION = 3
_CKPT_HEADER_KEYS = ("model", "schedule", "dtype", "params")


@dataclass(frozen=True)
class ModelConfig:
    k: int
    d_model: int = 128
    heads: int = 4
    blocks: int = 3
    denoise_layers: int = 2
    dropout_p: float = 0.1
    use_attention: bool = True

    def __post_init__(self):
        require_integers(self, ("k", "d_model", "heads", "blocks", "denoise_layers"))
        if self.k < 1:
            raise ConfigError(f"k must be positive, got {self.k}")
        if self.d_model < 1:
            raise ConfigError(f"d_model must be positive, got {self.d_model}")
        if self.heads < 1 or self.d_model % self.heads != 0:
            raise ConfigError(
                f"d_model ({self.d_model}) must be divisible by heads ({self.heads})"
            )
        if self.blocks < 1:
            raise ConfigError(f"blocks must be >= 1, got {self.blocks}")
        if self.denoise_layers < 2:
            raise ConfigError(
                f"denoise_layers must be >= 2 (input and output), got {self.denoise_layers}"
            )
        if not 0.0 <= self.dropout_p <= 0.8:
            raise ConfigError(f"dropout_p must lie in [0, 0.8], got {self.dropout_p}")


def sinusoidal_embedding(t, d: int) -> np.ndarray:
    """Fixed sin/cos features of integer timesteps: shape (len(t), d), or
    (1, d) for a scalar t."""
    half = d // 2
    idx = np.arange(half, dtype=np.float64)
    freqs = np.exp(-math.log(10000.0) * idx / max(half, 1))
    angles = np.reshape(t, (-1, 1)) * freqs
    pad = np.zeros((angles.shape[0], d - 2 * half))
    return np.concatenate([np.sin(angles), np.cos(angles), pad], axis=1)


def _segment_lengths(segments, rows: int | None) -> np.ndarray:
    """Row counts of the queries packed into `rows` rows; None is one query.
    With rows None the lengths need only be positive integers."""
    if segments is None:
        return np.array([rows], dtype=np.int64)
    lengths = np.asarray(segments)
    if (
        lengths.ndim != 1
        or lengths.size == 0
        or not np.issubdtype(lengths.dtype, np.integer)
        or lengths.min() < 1
        or (rows is not None and lengths.sum() != rows)
    ):
        where = "" if rows is None else f" {rows} rows"
        raise ShapeError(
            f"segment lengths {lengths.tolist()} do not split{where} "
            "into non-empty queries"
        )
    return lengths.astype(np.int64)


def _param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, int]]:
    """Name and shape of every parameter, in initialization order.

    Linear layers own `<name>.w` (fan_in, fan_out) and `<name>.b`
    (1, fan_out); layer norms own `<name>.g` and `<name>.b` (1, width).
    The attention key has no bias: softmax ignores the per-row constant it
    would add. The noisy label enters through `den0.label.w`, listed after
    `den0.w` so every weight keeps its place in the initialization draws.
    """
    shapes: dict[str, tuple[int, int]] = {}

    def linear_pair(name: str, fan_in: int, fan_out: int):
        shapes[f"{name}.w"] = (fan_in, fan_out)
        shapes[f"{name}.b"] = (1, fan_out)

    def norm_pair(name: str, width: int):
        shapes[f"{name}.g"] = (1, width)
        shapes[f"{name}.b"] = (1, width)

    d = cfg.d_model
    linear_pair("proj", cfg.k, d)
    for i in range(cfg.blocks):
        if cfg.use_attention:
            norm_pair(f"enc{i}.ln1", d)
            linear_pair(f"enc{i}.attn.wq", d, d)
            shapes[f"enc{i}.attn.wk.w"] = (d, d)
            linear_pair(f"enc{i}.attn.wv", d, d)
            linear_pair(f"enc{i}.attn.wo", d, d)
        norm_pair(f"enc{i}.ln2", d)
        linear_pair(f"enc{i}.ffn.l1", d, 4 * d)
        linear_pair(f"enc{i}.ffn.l2", 4 * d, d)
    norm_pair("enc_out.ln", d)
    linear_pair("temb", d, d)
    for j in range(cfg.denoise_layers):
        fan_out = MAX_LABEL + 1 if j == cfg.denoise_layers - 1 else d
        shapes[f"den{j}.w"] = (d, fan_out)
        if j == 0:
            shapes["den0.label.w"] = (1, fan_out)
        shapes[f"den{j}.b"] = (1, fan_out)
    return shapes


class DenoiseModel:
    def __init__(
        self,
        config: ModelConfig,
        schedule: ScheduleSpec,
        dtype: str = "float64",
        seed: int = 0,
        params: dict[str, Tensor] | None = None,
    ):
        self.config = config
        self.schedule = schedule
        self.dtype = np.dtype(dtype)
        if self.dtype.name not in DTYPES:
            raise ConfigError(f"dtype must be one of {DTYPES}, got {self.dtype.name!r}")
        self.params = params if params is not None else self._init_params(seed)
        # the relevance grades 0..MAX_LABEL, which weight the output softmax
        self._grades = Tensor(np.arange(MAX_LABEL + 1, dtype=self.dtype).reshape(-1, 1))

    # -- parameters ---------------------------------------------------------

    def _init_params(self, seed) -> dict[str, Tensor]:
        rng = np.random.default_rng(seed)
        params: dict[str, Tensor] = {}
        for name, shape in _param_shapes(self.config).items():
            if name.endswith(".w"):
                std = math.sqrt(2.0 / sum(shape))
                arr = rng.normal(0.0, std, size=shape).astype(self.dtype)
            elif name.endswith(".g"):
                arr = np.ones(shape, dtype=self.dtype)
            else:
                arr = np.zeros(shape, dtype=self.dtype)
            params[name] = Tensor(arr, requires_grad=True)
        return params

    def parameters(self) -> list[Tensor]:
        return [self.params[name] for name in sorted(self.params)]

    def num_parameters(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.grad = None

    def _p(self, name: str) -> Tensor:
        return self.params[name]

    # -- forward ------------------------------------------------------------

    def _cast(self, arr) -> np.ndarray:
        return np.asarray(arr, dtype=self.dtype)

    def encode(
        self,
        features: np.ndarray,
        segments=None,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Context vectors for the documents of one or more queries.

        features stacks the queries' (n_i, k) matrices and segments lists
        the n_i; None makes all rows one query. Dropout draws its masks
        from rng when one is given (training) and is off without one.
        """
        cfg = self.config
        feats = self._cast(features)
        if feats.ndim != 2 or feats.shape[1] != cfg.k:
            raise ShapeError(
                f"encode expects (n, {cfg.k}) features, got shape {feats.shape}"
            )
        lengths = _segment_lengths(segments, feats.shape[0])
        p = cfg.dropout_p
        x = ad.linear(Tensor(feats), self._p("proj.w"), self._p("proj.b"))
        for i in range(cfg.blocks):
            if cfg.use_attention:
                h = ad.layer_norm(x, self._p(f"enc{i}.ln1.g"), self._p(f"enc{i}.ln1.b"))
                att = self._attention(i, h, lengths)
                att = ad.dropout(att, p, rng)
                x = ad.add(x, att)
            h = ad.layer_norm(x, self._p(f"enc{i}.ln2.g"), self._p(f"enc{i}.ln2.b"))
            f = ad.linear(h, self._p(f"enc{i}.ffn.l1.w"), self._p(f"enc{i}.ffn.l1.b"))
            f = ad.softplus(f)
            f = ad.linear(f, self._p(f"enc{i}.ffn.l2.w"), self._p(f"enc{i}.ffn.l2.b"))
            f = ad.dropout(f, p, rng)
            x = ad.add(x, f)
        return ad.layer_norm(x, self._p("enc_out.ln.g"), self._p("enc_out.ln.b"))

    def _attention(self, i: int, h: Tensor, lengths: np.ndarray) -> Tensor:
        q = ad.linear(h, self._p(f"enc{i}.attn.wq.w"), self._p(f"enc{i}.attn.wq.b"))
        k = ad.matmul(h, self._p(f"enc{i}.attn.wk.w"))
        v = ad.linear(h, self._p(f"enc{i}.attn.wv.w"), self._p(f"enc{i}.attn.wv.b"))
        merged = ad.attention(q, k, v, lengths, self.config.heads)
        return ad.linear(merged, self._p(f"enc{i}.attn.wo.w"), self._p(f"enc{i}.attn.wo.b"))

    def timestep_embedding(self, t, segments=None) -> Tensor:
        """Learned embedding of timesteps t (an int or an array): the gate
        that multiplies every hidden denoise layer.

        Without segments it has one row per timestep. With segments (as
        for encode), t is one timestep for all rows, which stays a single
        row that gates every row, or one per segment, whose row is then
        repeated over that segment's rows.
        """
        steps = np.asarray(t).reshape(-1)
        if segments is not None:
            lengths = _segment_lengths(segments, None)
            if steps.size not in (1, lengths.size):
                raise ShapeError(
                    f"{steps.size} timesteps given for {lengths.size} segments"
                )
        base = Tensor(sinusoidal_embedding(steps, self.config.d_model).astype(self.dtype))
        temb = ad.linear(base, self._p("temb.w"), self._p("temb.b"))
        if segments is not None and steps.size > 1:
            temb = ad.embedding_lookup(temb, np.repeat(np.arange(steps.size), lengths))
        return temb

    def denoise_input(self, context: Tensor) -> Tensor:
        """The first denoise layer's pre-activation from the context alone:
        the part that does not depend on the noisy label or the timestep."""
        return ad.linear(context, self._p("den0.w"), self._p("den0.b"))

    def denoise(
        self,
        first: Tensor,
        y_t: np.ndarray,
        temb: Tensor,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Predicted clean labels, shape (rows, 1), from what denoise_input
        and timestep_embedding return.

        This is the part of the head that the noisy label reaches: the
        label column times `den0.label.w` completes the first layer, then
        the gated layers and the grade softmax run. temb has one row, which
        gates every row, or one row per row of `first`.
        """
        cfg = self.config
        n = first.data.shape[0]
        y_col = self._cast(y_t).reshape(-1, 1)
        if y_col.shape[0] != n:
            raise ShapeError(
                f"noisy labels cover {y_col.shape[0]} rows, the first-layer input {n}"
            )
        if temb.data.shape[0] not in (1, n):
            raise ShapeError(
                f"timestep embedding has {temb.data.shape[0]} rows, the first-layer input {n}"
            )
        p = cfg.dropout_p
        z = ad.add(first, ad.matmul(Tensor(y_col), self._p("den0.label.w")))
        x = ad.mul(ad.dropout(ad.softplus(z), p, rng), temb)
        last = cfg.denoise_layers - 1
        for j in range(1, last):
            z = ad.linear(x, self._p(f"den{j}.w"), self._p(f"den{j}.b"))
            x = ad.mul(ad.dropout(ad.softplus(z), p, rng), temb)
        z = ad.linear(x, self._p(f"den{last}.w"), self._p(f"den{last}.b"))
        weights = ad.softmax(ad.dropout(ad.softplus(z), p, rng))
        return ad.matmul(weights, self._grades)

    def predict_y0(
        self,
        features: np.ndarray,
        y_t: np.ndarray,
        t,
        segments=None,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Predicted clean labels of one or more queries at timestep t: one
        timestep for all rows, or one per segment (see encode)."""
        context = self.encode(features, segments, rng=rng)
        temb = self.timestep_embedding(t, segments)
        return self.denoise(self.denoise_input(context), y_t, temb, rng=rng)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: DenoiseModel, path: str) -> None:
    names = sorted(model.params)
    header = {
        "version": _CKPT_VERSION,
        "model": asdict(model.config),
        "schedule": {"kind": model.schedule.kind, "timesteps": model.schedule.timesteps},
        "dtype": model.dtype.name,
        "params": [{"name": n, "shape": list(model.params[n].data.shape)} for n in names],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<IQ", _CKPT_VERSION, len(blob)))
        fh.write(blob)
        for n in names:
            fh.write(np.ascontiguousarray(model.params[n].data).tobytes())


def _manifest(manifest, expected: dict[str, tuple[int, int]], path: str):
    """(name, shape) pairs in blob order, checked against the parameters
    the header's model config implies."""
    try:
        entries = [(str(e["name"]), tuple(e["shape"])) for e in manifest]
    except (TypeError, KeyError) as e:
        raise CacheCorruptionError(
            f"checkpoint {path} has a malformed parameter manifest"
        ) from e
    stored = dict(entries)
    if len(stored) != len(entries) or stored != expected:
        raise CacheCorruptionError(
            f"checkpoint {path} manifest ({len(entries)} entries) does not match "
            f"the {len(expected)} parameters its model config implies"
        )
    return [(name, expected[name]) for name, _ in entries]


def load_checkpoint(path: str) -> DenoiseModel:
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as e:
        raise DataError(f"cannot read checkpoint {path}: {e.strerror or e}") from None
    if buf[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise IncompatibilityError(f"{path} is not a model checkpoint")
    off = len(_CKPT_MAGIC)
    try:
        version, header_len = struct.unpack_from("<IQ", buf, off)
    except struct.error as e:
        raise CacheCorruptionError(f"checkpoint {path} is truncated") from e
    if version != _CKPT_VERSION:
        raise IncompatibilityError(
            f"checkpoint {path} has version {version}, this reader reads version "
            f"{_CKPT_VERSION}; re-run `diffrank train` to rebuild it"
        )
    off += struct.calcsize("<IQ")
    if off + header_len > len(buf):
        raise CacheCorruptionError(f"checkpoint {path} is truncated")
    try:
        header = json.loads(buf[off : off + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CacheCorruptionError(f"checkpoint {path} header is unreadable") from e
    off += header_len
    if not isinstance(header, dict):
        raise CacheCorruptionError(f"checkpoint {path} header is not a JSON object")
    missing = [key for key in _CKPT_HEADER_KEYS if key not in header]
    if missing:
        raise CacheCorruptionError(
            f"checkpoint {path} header lacks {', '.join(missing)}"
        )
    try:
        config = ModelConfig(**header["model"])
        schedule = ScheduleSpec(**header["schedule"])
        dtype = np.dtype(header["dtype"])
    except (TypeError, ValueError, ConfigError) as e:
        raise IncompatibilityError(
            f"checkpoint {path} header does not describe a model this reader "
            f"can build: {e}"
        ) from e
    if dtype.name not in DTYPES:
        raise IncompatibilityError(
            f"checkpoint {path} stores {dtype.name} parameters, expected one of {DTYPES}"
        )
    params: dict[str, Tensor] = {}
    for name, shape in _manifest(header["params"], _param_shapes(config), path):
        nbytes = int(np.prod(shape)) * dtype.itemsize
        if off + nbytes > len(buf):
            raise CacheCorruptionError(f"checkpoint {path} is truncated")
        arr = np.frombuffer(buf[off : off + nbytes], dtype=dtype).reshape(shape).copy()
        if not np.isfinite(arr).all():
            raise CacheCorruptionError(
                f"checkpoint {path} parameter {name} holds non-finite values"
            )
        params[name] = Tensor(arr, requires_grad=True)
        off += nbytes
    if off != len(buf):
        raise CacheCorruptionError(f"checkpoint {path} has {len(buf) - off} trailing bytes")
    return DenoiseModel(
        config=config, schedule=schedule, dtype=dtype.name, params=params
    )


def feature_only_variant(model: DenoiseModel) -> DenoiseModel:
    """Copy of the model whose prediction ignores the noisy-label input.

    The noisy labels enter the network only through the first denoise
    layer's label row `den0.label.w`; zeroing it makes the score a
    function of document features and timestep alone. Sampled with one
    reverse step, which returns that prediction with no posterior draw,
    it yields a reference scorer whose repeated runs produce identical
    rankings.
    """
    params: dict[str, Tensor] = {}
    for name in sorted(model.params):
        arr = np.array(model.params[name].data)
        if name == "den0.label.w":
            arr[:] = 0.0
        params[name] = Tensor(arr, requires_grad=True)
    return DenoiseModel(
        config=model.config,
        schedule=model.schedule,
        dtype=model.dtype.name,
        params=params,
    )
