"""SVMLight/LETOR-style ranking data: parsing, normalization, binary cache.

Input lines look like

    <label> qid:<id> <fid>:<val> <fid>:<val> ... # optional comment

with 1-based feature ids that may be sparse; absent ids are zero-filled.
Labels are integer relevance grades 0..4. A Dataset stores each query's
documents as contiguous rows of one feature matrix: queries in the order
they first appear, documents in file order within a query. Every document
keeps its position in the source file (doc_index).

A dense file, every line listing features 1..k in order as the public web
corpora do, is read with one np.loadtxt; any other file token by token.
The choice is made from the input alone, and both give the same Dataset
or the same error.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

import numpy as np

from ._atomic import atomic_write
from .errors import (
    CacheCorruptionError,
    DataError,
    IncompatibilityError,
    ParseError,
    ValidationError,
)

MAX_LABEL = 4
# Largest dense feature matrix parse_letor builds, in cells (N documents x
# k features): 16 GiB as float64, far above MSLR-WEB30K's largest split
# (about 0.3G cells). A file past it, usually through one stray huge
# feature id, is refused before the matrix is allocated.
MAX_FEATURE_CELLS = 2**31

_MAGIC = b"DRLTRCH\x00"
_CACHE_VERSION = 2


def _read_only(a, dtype) -> np.ndarray:
    view = np.asarray(a, dtype=dtype).view()
    view.setflags(write=False)
    return view


class QueryGroup:
    """One query's documents; in a Dataset, views of its contiguous rows."""

    __slots__ = ("qid", "_features", "_labels", "_doc_index")

    def __init__(self, qid: int, features, labels, doc_index):
        self.qid = int(qid)
        self._features = features
        self._labels = labels
        self._doc_index = doc_index

    @property
    def n(self) -> int:
        return len(self._labels)

    def feature_matrix(self) -> np.ndarray:
        return self._features

    def labels(self) -> np.ndarray:
        return self._labels.astype(np.float64)

    def doc_indices(self) -> np.ndarray:
        return self._doc_index


@dataclass(frozen=True)
class NormStats:
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.mean).all() and np.isfinite(self.std).all()):
            raise ValidationError("normalization stats must be finite")
        if np.any(self.std <= 0):
            raise ValidationError("normalization std entries must be positive")


class Dataset:
    """Ranking data as read-only columns, each query's rows contiguous:
    features (N, k) float64, labels (N,) uint8, doc_index (N,) int64 (the
    document's position in its source file), qids (Q,) int64 and counts
    (Q,) int64 (rows per query). `groups` has one QueryGroup per query,
    whose arrays are views of that query's rows."""

    def __init__(self, features, labels, doc_index, qids, counts, norm_stats=None):
        self.features = _read_only(features, np.float64)
        self.doc_index = _read_only(doc_index, np.int64)
        self.qids = _read_only(qids, np.int64)
        self.counts = _read_only(counts, np.int64)
        self.norm_stats = norm_stats
        labels = np.asarray(labels)
        n = len(self.features)
        if (
            self.features.ndim != 2
            or self.k < 1
            or labels.shape != (n,)
            or self.doc_index.shape != (n,)
            or self.qids.ndim != 1
            or self.counts.shape != self.qids.shape
            or norm_stats is not None
            and (norm_stats.mean.shape, norm_stats.std.shape) != ((self.k,),) * 2
        ):
            raise ValidationError("the columns' shapes disagree")
        if np.any((self.counts < 1) | (self.counts > n)) or self.counts.sum() != n:
            raise ValidationError(f"row counts must be >= 1 and sum to {n} rows")
        if np.unique(self.qids).size != self.qids.size:
            raise ValidationError("query ids must be distinct")
        if labels.dtype.kind not in "iu" or np.any((labels < 0) | (labels > MAX_LABEL)):
            raise ValidationError(f"labels must be integer grades in [0, {MAX_LABEL}]")
        self.labels = _read_only(labels, np.uint8)
        if np.any(self.doc_index < 0):
            raise ValidationError("doc indices must be non-negative")
        if not np.isfinite(self.features).all():
            raise ValidationError("feature values must be finite")
        ends = np.cumsum(self.counts).tolist()
        self.groups = [
            QueryGroup(qid, self.features[s:e], self.labels[s:e], self.doc_index[s:e])
            for qid, s, e in zip(self.qids.tolist(), [0] + ends[:-1], ends)
        ]

    @property
    def k(self) -> int:
        return self.features.shape[-1]

    @property
    def num_queries(self) -> int:
        return len(self.groups)

    @property
    def num_docs(self) -> int:
        return len(self.labels)


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


def _document_lines(fh):
    """(line number, text) of every line holding a document, comment cut."""
    for lineno, raw in enumerate(fh, start=1):
        line = raw.partition("#")[0].strip()
        if line:
            yield lineno, line


def _parse_head(line: str, path: str, lineno: int) -> tuple[int, int, str]:
    """Label, query id and feature text of one document line."""
    head = line.split(None, 2)
    if len(head) < 2:
        raise ParseError("expected '<label> qid:<id> ...'", path, lineno)
    label = _parse_label(head[0], path, lineno)
    if not head[1].startswith("qid:"):
        raise ParseError(
            f"expected qid:<id> as the second field, got {head[1]!r}", path, lineno
        )
    try:
        qid = int(head[1][4:])
    except ValueError:
        raise ParseError(
            f"query id {head[1][4:]!r} is not an integer", path, lineno
        ) from None
    if not -(2**63) <= qid < 2**63:
        raise ParseError(f"query id {qid} does not fit in 64 bits", path, lineno)
    return label, qid, head[2] if len(head) > 2 else ""


def _check_finite(values: np.ndarray, path: str, locate) -> None:
    """Reject the first non-finite value in file order; locate maps its
    flat index in values to (feature id, line number)."""
    finite = np.isfinite(values)
    if not finite.all():
        entry = int(np.argmin(finite))
        fid, lineno = locate(entry)
        raise ValidationError(
            f"feature {fid} is {values.flat[entry]} at {path}:{lineno}; "
            "feature values must be finite"
        )


def _grouped(docs: list, features_of) -> Dataset:
    """Dataset of the documents (label, qid, line) listed in file order;
    features_of(doc_index) gives their feature rows in doc_index's order."""
    labels, qids, _ = zip(*docs)
    # one stable sort by first-seen query makes each query's rows
    # contiguous and keeps file order inside it
    first_seen: dict[int, int] = {}
    group_of = np.array([first_seen.setdefault(q, len(first_seen)) for q in qids])
    doc_index = np.argsort(group_of, kind="stable")
    return Dataset(
        features=features_of(doc_index),
        labels=np.array(labels)[doc_index],
        doc_index=doc_index,
        qids=list(first_seen),
        counts=np.bincount(group_of),
    )


def _parse_tokens(path: str, k_hint: int | None) -> Dataset:
    """Read any file token by token; a fault raises naming its line."""
    docs: list[tuple[int, int, int]] = []  # label, qid, line
    widths: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in _document_lines(fh):
            label, qid, rest = _parse_head(line, path, lineno)
            tokens = rest.split()
            seen: set[int] = set()
            for tok in tokens:
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
                if fid in seen:
                    raise ParseError(f"duplicate feature id {fid}", path, lineno)
                seen.add(fid)
                cols.append(fid - 1)
                vals.append(val)
            docs.append((label, qid, lineno))
            widths.append(len(tokens))
    if not docs:
        raise DataError(f"no documents found in {path}")
    k_data = max(cols, default=-1) + 1
    k = max(k_data, k_hint or 0)
    if k == 0:
        raise DataError(f"no features found in {path}")

    def line_of(entry: int) -> int:
        return docs[int(np.searchsorted(np.cumsum(widths), entry, side="right"))][2]

    if len(docs) * k > MAX_FEATURE_CELLS:
        size = f"a {len(docs)} x {k} feature matrix, over the limit of {MAX_FEATURE_CELLS} cells"
        if k > k_data:
            raise ParseError(f"feature count hint {k} implies {size}", path)
        raise ParseError(f"feature id {k} implies {size}", path, line_of(cols.index(k - 1)))
    values = np.array(vals, dtype=np.float64)
    _check_finite(values, path, lambda entry: (cols[entry] + 1, line_of(entry)))

    def scattered(doc_index: np.ndarray) -> np.ndarray:
        # each value goes straight to its document's grouped row
        row_of = np.empty_like(doc_index)
        row_of[doc_index] = np.arange(doc_index.size)
        rows = np.zeros((len(docs), k), dtype=np.float64)
        rows[np.repeat(row_of, widths), cols] = values
        return rows

    return _grouped(docs, scattered)


def _dense_line(k: int) -> re.Pattern:
    """Feature text listing features 1..k in order, one space apart, each
    value a run of printable ASCII but the colon. Compiling it takes 30 to
    45 us per feature (k from 136 to 50,000); re keeps it for the next
    file of the same k."""
    return re.compile(" ".join(f"{j}:[!-9;-~]+" for j in range(1, k + 1)))


def _parse_dense(path: str, k_hint: int | None) -> Dataset | None:
    """Parse a file whose every line lists features 1..k in that order,
    reading all feature values with one np.loadtxt.

    Returns None at the first line that is not dense, and for a fault in
    a label, query id or feature token, so that _parse_tokens reads the
    file and reports the first fault by its line. Only what the token loop
    reads alike is accepted: ids spelt exactly "1" to "k" (so "2.0:",
    "02:" and "+2:" go to the token loop), and values np.loadtxt reads as
    float64, which float() reads alike. A non-finite value then raises the
    error _parse_tokens would raise, since every check it makes earlier
    has passed."""
    docs: list[tuple[int, int, int]] = []  # label, qid, line
    lines: list[str] = []  # feature text, ids and values space-separated
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in _document_lines(fh):
                label, qid, rest = _parse_head(line, path, lineno)
                if not docs:
                    k = rest.count(":")
                    # a first line with a gap in its ids leaves before
                    # a pattern the size of k is compiled
                    if rest.rpartition(" ")[2].partition(":")[0] != str(k):
                        return None
                    dense_line = _dense_line(k)
                if not dense_line.fullmatch(rest):
                    return None
                docs.append((label, qid, lineno))
                lines.append(rest.replace(":", " "))
    except (UnicodeDecodeError, ParseError, ValidationError):
        return None
    # before anything of size N x k is allocated
    if not docs or len(docs) * max(k, k_hint or 0) > MAX_FEATURE_CELLS:
        return None
    try:
        values = np.loadtxt(lines, usecols=range(1, 2 * k, 2), ndmin=2)
    except ValueError:
        return None
    del lines
    _check_finite(values, path, lambda entry: (entry % k + 1, docs[entry // k][2]))
    if (k_hint or 0) > k:
        values = np.pad(values, ((0, 0), (0, k_hint - k)))
    return _grouped(docs, lambda doc_index: values[doc_index])


def _undecodable_line(path: str) -> int | None:
    """Line number, counted as the text reader counts lines, of the first
    line holding bytes that are not UTF-8."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError:
                return lineno
    return None


def parse_letor(path: str, k_hint: int | None = None) -> Dataset:
    """Parse a ranking data file into grouped, densely zero-filled rows.

    A dense file, every line listing features 1..k in order, is read in
    one vectorised pass; any other file token by token. Both give the
    same Dataset, and the same error for a faulty file."""
    try:
        ds = _parse_dense(path, k_hint)
        return _parse_tokens(path, k_hint) if ds is None else ds
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise ParseError(
            f"line is not UTF-8 text ({e.reason})", path, _undecodable_line(path)
        ) from None


def compute_norm_stats(ds: Dataset) -> NormStats:
    """Per-feature mean and population std; constant features get std 1."""
    mean = ds.features.mean(axis=0)
    std = ds.features.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    mean.setflags(write=False)
    std.setflags(write=False)
    return NormStats(mean=mean, std=std)


def normalize(ds: Dataset, stats: NormStats) -> Dataset:
    """Z-score features with the given stats; every split uses the
    training split's compute_norm_stats."""
    if stats.mean.shape != (ds.k,) or stats.std.shape != (ds.k,):
        raise ValidationError(
            f"normalization stats cover {stats.mean.shape[0]} features, dataset has {ds.k}"
        )
    return Dataset(
        features=(ds.features - stats.mean) / stats.std,
        labels=ds.labels,
        doc_index=ds.doc_index,
        qids=ds.qids,
        counts=ds.counts,
        norm_stats=stats,
    )


def write_letor(ds: Dataset, path: str) -> None:
    """Serialize back to the text format (full dense feature lists)."""
    qid_of_row = np.repeat(ds.qids, ds.counts).tolist()
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for label, qid, row in zip(ds.labels.tolist(), qid_of_row, ds.features.tolist()):
            feats = " ".join(f"{fid}:{val!r}" for fid, val in enumerate(row, start=1))
            fh.write(f"{label} qid:{qid} {feats}\n")


# ---------------------------------------------------------------------------
# binary cache, version 2: the magic, _HEADER (version, has_stats, k, Q, N),
# then the blocks named in cache_write, all little-endian. The header ends
# on byte 40 and every block before the labels is a multiple of 8 bytes, so
# each 8-byte block starts 8-aligned.

_HEADER = struct.Struct("<IIQQQ")
_DATA_START = len(_MAGIC) + _HEADER.size


def cache_write(ds: Dataset, path: str) -> None:
    stats = [] if ds.norm_stats is None else [ds.norm_stats.mean, ds.norm_stats.std]
    blocks = stats + [ds.qids, ds.counts, ds.doc_index, ds.features, ds.labels]
    with atomic_write(path) as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(_CACHE_VERSION, len(stats) // 2, ds.k, ds.num_queries, ds.num_docs))
        for block in blocks:
            fh.write(np.ascontiguousarray(block, block.dtype.newbyteorder("<")))


def cache_read(path: str) -> Dataset:
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as e:
        raise DataError(f"cannot read cache {path}: {e.strerror or e}") from None
    if buf[: len(_MAGIC)] != _MAGIC:
        raise IncompatibilityError(f"{path} is not a ranking data cache")
    if len(buf) < _DATA_START:
        raise CacheCorruptionError(f"cache {path} is truncated inside its header")
    version, has_stats, k, n_queries, n_docs = _HEADER.unpack_from(buf, len(_MAGIC))
    if version != _CACHE_VERSION:
        raise IncompatibilityError(
            f"cache {path} has version {version}, this reader reads version "
            f"{_CACHE_VERSION}; re-run `diffrank prepare` to rebuild it"
        )
    if has_stats not in (0, 1):
        raise CacheCorruptionError(f"cache {path} has a bad stats flag {has_stats}")
    size = _DATA_START + 8 * (2 * k * has_stats + 2 * n_queries + n_docs * (1 + k)) + n_docs
    if len(buf) != size:
        raise CacheCorruptionError(f"cache {path} is {len(buf)} bytes, its header implies {size}")
    off = _DATA_START

    def take(dtype: str, count: int) -> np.ndarray:
        nonlocal off
        block = np.frombuffer(buf, dtype=dtype, count=count, offset=off)
        off += block.nbytes
        return block

    try:
        stats = NormStats(mean=take("<f8", k), std=take("<f8", k)) if has_stats else None
        return Dataset(
            qids=take("<i8", n_queries),
            counts=take("<i8", n_queries),
            doc_index=take("<i8", n_docs),
            features=take("<f8", n_docs * k).reshape(n_docs, k),
            labels=take("u1", n_docs),
            norm_stats=stats,
        )
    except ValidationError as e:
        raise CacheCorruptionError(f"cache {path} is corrupt: {e}") from None
