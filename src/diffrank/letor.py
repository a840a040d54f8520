"""SVMLight/LETOR-style ranking data: parsing, normalization, binary cache.

Input lines look like

    <label> qid:<id> <fid>:<val> <fid>:<val> ... # optional comment

with 1-based feature ids that may be sparse; absent ids are zero-filled.
Labels are integer relevance grades 0..4. Documents are grouped by query
id, preserving file order, and every document remembers its position in
the source file (doc_index) which later serves as the ranking tie-break.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CacheCorruptionError,
    DataError,
    IncompatibilityError,
    ParseError,
    ValidationError,
)

MAX_LABEL = 4

_MAGIC = b"DRLTRCH\x00"
_CACHE_VERSION = 1


@dataclass(frozen=True)
class Document:
    qid: int
    label: int
    features: np.ndarray
    doc_index: int


@dataclass
class QueryGroup:
    qid: int
    docs: list[Document]
    _matrix: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.docs)

    def feature_matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = np.stack([d.features for d in self.docs])
        return self._matrix

    def labels(self) -> np.ndarray:
        return np.array([d.label for d in self.docs], dtype=np.float64)

    def doc_indices(self) -> np.ndarray:
        return np.array([d.doc_index for d in self.docs], dtype=np.int64)


@dataclass(frozen=True)
class NormStats:
    mean: np.ndarray
    std: np.ndarray


@dataclass
class Dataset:
    groups: list[QueryGroup]
    k: int
    norm_stats: NormStats | None = None

    @property
    def num_queries(self) -> int:
        return len(self.groups)

    @property
    def num_docs(self) -> int:
        return sum(g.n for g in self.groups)

    def iter_docs(self):
        for g in self.groups:
            yield from g.docs


def _parse_label(token: str, path: str, lineno: int) -> int:
    try:
        value = int(token)
    except ValueError:
        try:
            f = float(token)
        except ValueError:
            raise ParseError(f"label {token!r} is not a number", path, lineno) from None
        if not f.is_integer():
            raise ParseError(
                f"label {token!r} is not an integer grade", path, lineno
            ) from None
        value = int(f)
    if not 0 <= value <= MAX_LABEL:
        raise ValidationError(
            f"label {value} outside [0, {MAX_LABEL}] at {path}:{lineno}"
        )
    return value


def parse_letor(path: str, k_hint: int | None = None) -> Dataset:
    """Parse a ranking data file into grouped, densely zero-filled rows."""
    rows: list[tuple[int, int, dict[int, float]]] = []
    max_fid = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.partition("#")[0].strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) < 2:
                raise ParseError("expected '<label> qid:<id> ...'", path, lineno)
            label = _parse_label(tokens[0], path, lineno)
            if not tokens[1].startswith("qid:"):
                raise ParseError(
                    f"expected qid:<id> as the second field, got {tokens[1]!r}",
                    path,
                    lineno,
                )
            try:
                qid = int(tokens[1][4:])
            except ValueError:
                raise ParseError(
                    f"query id {tokens[1][4:]!r} is not an integer", path, lineno
                ) from None
            feats: dict[int, float] = {}
            for tok in tokens[2:]:
                fid_s, sep, val_s = tok.partition(":")
                if not sep:
                    raise ParseError(f"malformed feature token {tok!r}", path, lineno)
                try:
                    fid = int(fid_s)
                    val = float(val_s)
                except ValueError:
                    raise ParseError(
                        f"malformed feature token {tok!r}", path, lineno
                    ) from None
                if fid < 1:
                    raise ParseError(
                        f"feature ids are 1-based, got {fid}", path, lineno
                    )
                if fid in feats:
                    raise ParseError(f"duplicate feature id {fid}", path, lineno)
                feats[fid] = val
                max_fid = max(max_fid, fid)
            rows.append((label, qid, feats, lineno))
    if not rows:
        raise DataError(f"no documents found in {path}")
    k = max(max_fid, k_hint or 0)
    if k == 0:
        raise DataError(f"no features found in {path}")

    matrix = np.zeros((len(rows), k), dtype=np.float64)
    for doc_index, (_, _, feats, _) in enumerate(rows):
        dense = matrix[doc_index]
        for fid, val in feats.items():
            dense[fid - 1] = val
    finite = np.isfinite(matrix)
    if not finite.all():
        doc_index, col = np.argwhere(~finite)[0]
        lineno = rows[doc_index][3]
        raise ValidationError(
            f"feature {col + 1} is {matrix[doc_index, col]} at {path}:{lineno}; "
            "feature values must be finite"
        )
    matrix.setflags(write=False)
    groups: dict[int, QueryGroup] = {}
    for doc_index, (label, qid, _, _) in enumerate(rows):
        doc = Document(qid=qid, label=label, features=matrix[doc_index], doc_index=doc_index)
        if qid not in groups:
            groups[qid] = QueryGroup(qid=qid, docs=[])
        groups[qid].docs.append(doc)
    return Dataset(groups=list(groups.values()), k=k)


def compute_norm_stats(ds: Dataset) -> NormStats:
    """Per-feature mean and population std; constant features get std 1."""
    all_rows = np.concatenate([g.feature_matrix() for g in ds.groups], axis=0)
    mean = all_rows.mean(axis=0)
    std = all_rows.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    mean.setflags(write=False)
    std.setflags(write=False)
    return NormStats(mean=mean, std=std)


def normalize(ds: Dataset, stats: NormStats | None = None) -> Dataset:
    """Z-score features. With stats=None the dataset supplies its own,
    which is what the training split does; other splits must reuse the
    training stats."""
    if stats is None:
        stats = compute_norm_stats(ds)
    if stats.mean.shape != (ds.k,) or stats.std.shape != (ds.k,):
        raise ValidationError(
            f"normalization stats cover {stats.mean.shape[0]} features, dataset has {ds.k}"
        )
    if np.any(stats.std <= 0):
        raise ValidationError("normalization std entries must be positive")
    groups = []
    for g in ds.groups:
        docs = []
        for d in g.docs:
            feats = (d.features - stats.mean) / stats.std
            feats.setflags(write=False)
            docs.append(
                Document(qid=d.qid, label=d.label, features=feats, doc_index=d.doc_index)
            )
        groups.append(QueryGroup(qid=g.qid, docs=docs))
    return Dataset(groups=groups, k=ds.k, norm_stats=stats)


def write_letor(ds: Dataset, path: str) -> None:
    """Serialize back to the text format (full dense feature lists)."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in ds.iter_docs():
            feats = " ".join(
                f"{fid}:{float(val)!r}" for fid, val in enumerate(doc.features, start=1)
            )
            fh.write(f"{doc.label} qid:{doc.qid} {feats}\n")


# ---------------------------------------------------------------------------
# binary cache

_HEADER = struct.Struct("<IBIQQ")  # version, has_stats, k, n_groups, n_docs
_GROUP = struct.Struct("<qI")  # qid, n
_DOC = struct.Struct("<BQ")  # label, doc_index


def cache_write(ds: Dataset, path: str) -> None:
    chunks = [_MAGIC]
    has_stats = 1 if ds.norm_stats is not None else 0
    chunks.append(
        _HEADER.pack(_CACHE_VERSION, has_stats, ds.k, ds.num_queries, ds.num_docs)
    )
    if ds.norm_stats is not None:
        chunks.append(np.ascontiguousarray(ds.norm_stats.mean, dtype=np.float64).tobytes())
        chunks.append(np.ascontiguousarray(ds.norm_stats.std, dtype=np.float64).tobytes())
    for g in ds.groups:
        chunks.append(_GROUP.pack(g.qid, g.n))
        for d in g.docs:
            chunks.append(_DOC.pack(d.label, d.doc_index))
            chunks.append(np.ascontiguousarray(d.features, dtype=np.float64).tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


class _Reader:
    def __init__(self, buf: bytes, path: str):
        self.buf = buf
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.buf):
            raise CacheCorruptionError(
                f"cache {self.path} is truncated at byte {self.off}"
            )
        out = self.buf[self.off : self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: struct.Struct):
        return fmt.unpack(self.take(fmt.size))

    def floats(self, count: int) -> np.ndarray:
        raw = self.take(count * 8)
        arr = np.frombuffer(raw, dtype="<f8").copy()
        arr.setflags(write=False)
        return arr


def cache_read(path: str) -> Dataset:
    with open(path, "rb") as fh:
        buf = fh.read()
    r = _Reader(buf, path)
    magic = r.take(len(_MAGIC))
    if magic != _MAGIC:
        raise IncompatibilityError(f"{path} is not a ranking data cache")
    version, has_stats, k, n_groups, n_docs = r.unpack(_HEADER)
    if version != _CACHE_VERSION:
        raise IncompatibilityError(
            f"cache {path} has version {version}, reader supports {_CACHE_VERSION}"
        )
    stats = None
    if has_stats:
        stats = NormStats(mean=r.floats(k), std=r.floats(k))
    groups = []
    total = 0
    for _ in range(n_groups):
        qid, n = r.unpack(_GROUP)
        docs = []
        for _ in range(n):
            label, doc_index = r.unpack(_DOC)
            feats = r.floats(k)
            docs.append(
                Document(qid=qid, label=label, features=feats, doc_index=doc_index)
            )
        total += n
        groups.append(QueryGroup(qid=qid, docs=docs))
    if total != n_docs:
        raise CacheCorruptionError(
            f"cache {path} header promised {n_docs} documents, found {total}"
        )
    if r.off != len(buf):
        raise CacheCorruptionError(
            f"cache {path} has {len(buf) - r.off} trailing bytes"
        )
    return Dataset(groups=groups, k=k, norm_stats=stats)
