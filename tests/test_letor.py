"""Parser, normalization, and cache round-trip checks."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffrank import letor
from diffrank.errors import (
    CacheCorruptionError,
    DataError,
    IncompatibilityError,
    ParseError,
    ValidationError,
)

SAMPLE = """\
2 qid:10 1:0.5 3:-1.25 # first doc
0 qid:10 2:3.0
4 qid:20 1:1.0 2:2.0 3:3.0
1 qid:10 3:0.125
"""


@pytest.fixture
def sample_path(tmp_path):
    p = tmp_path / "sample.txt"
    p.write_text(SAMPLE)
    return str(p)


class TestParsing:
    def test_grouping_preserves_first_occurrence_order(self, sample_path):
        ds = letor.parse_letor(sample_path)
        assert [g.qid for g in ds.groups] == [10, 20]
        assert [g.n for g in ds.groups] == [3, 1]

    def test_doc_index_is_file_position(self, sample_path):
        ds = letor.parse_letor(sample_path)
        assert list(ds.groups[0].doc_indices()) == [0, 1, 3]
        assert list(ds.groups[1].doc_indices()) == [2]

    def test_interleaved_queries_become_contiguous_rows(self, tmp_path):
        p = tmp_path / "interleaved.txt"
        p.write_text("1 qid:1 1:10.0\n2 qid:2 1:20.0\n3 qid:1 1:30.0\n")
        ds = letor.parse_letor(str(p))
        np.testing.assert_array_equal(ds.qids, [1, 2])
        np.testing.assert_array_equal(ds.counts, [2, 1])
        np.testing.assert_array_equal(ds.features[:, 0], [10.0, 30.0, 20.0])
        np.testing.assert_array_equal(ds.labels, [1, 3, 2])
        assert [list(g.doc_indices()) for g in ds.groups] == [[0, 2], [1]]
        # each group's arrays are views of its rows, not copies
        assert np.shares_memory(ds.groups[0].feature_matrix(), ds.features)
        assert ds.groups[1].feature_matrix()[0, 0] == 20.0

    def test_sparse_features_zero_filled(self, sample_path):
        ds = letor.parse_letor(sample_path)
        assert ds.k == 3
        np.testing.assert_allclose(
            ds.groups[0].feature_matrix(),
            [[0.5, 0.0, -1.25], [0.0, 3.0, 0.0], [0.0, 0.0, 0.125]],
        )

    def test_comments_ignored(self, sample_path):
        ds = letor.parse_letor(sample_path)
        assert ds.groups[0].labels()[0] == 2

    def test_k_hint_widens(self, sample_path):
        ds = letor.parse_letor(sample_path, k_hint=10)
        assert ds.k == 10
        assert ds.groups[0].feature_matrix().shape == (3, 10)

    def test_k_hint_never_narrows(self, sample_path):
        assert letor.parse_letor(sample_path, k_hint=2).k == 3

    @pytest.mark.parametrize("width", [136, 700])
    def test_wide_feature_spaces(self, tmp_path, width):
        # shaped like the public web corpora: highest feature id defines k
        p = tmp_path / "wide.txt"
        p.write_text(f"1 qid:1 1:0.5 {width}:1.5\n0 qid:1 2:1.0\n")
        ds = letor.parse_letor(str(p))
        assert ds.k == width
        assert ds.groups[0].feature_matrix()[0, width - 1] == 1.5

    def test_label_out_of_range(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("5 qid:1 1:1.0\n")
        with pytest.raises(ValidationError):
            letor.parse_letor(str(p))

    def test_negative_label_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("-1 qid:1 1:1.0\n")
        with pytest.raises(ValidationError):
            letor.parse_letor(str(p))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_feature_names_location(self, tmp_path, value):
        p = tmp_path / "bad.txt"
        p.write_text(f"# header\n1 qid:1 1:1.0\n2 qid:1 1:0.5 2:{value}\n")
        with pytest.raises(ValidationError) as exc:
            letor.parse_letor(str(p))
        assert "bad.txt:3" in str(exc.value) and "feature 2" in str(exc.value)

    def test_malformed_line_names_location(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 qid:1 1:1.0\n1 qid:2 oops\n")
        with pytest.raises(ParseError) as exc:
            letor.parse_letor(str(p))
        assert ":2" in str(exc.value) and "oops" in str(exc.value)

    def test_query_id_beyond_64_bits_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text(f"1 qid:1 1:1.0\n1 qid:{2**63} 1:1.0\n")
        with pytest.raises(ParseError, match=":2"):
            letor.parse_letor(str(p))

    def test_duplicate_feature_id_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 qid:1 1:1.0 1:2.0\n")
        with pytest.raises(ParseError):
            letor.parse_letor(str(p))

    def test_oversized_feature_id_names_line(self, tmp_path):
        p = tmp_path / "huge.txt"
        p.write_text("1 qid:1 1:1.0\n0 qid:1 3:0.5 99999999999:1.0 2:0.1\n1 qid:2 7:1.0\n")
        with pytest.raises(ParseError) as exc:
            letor.parse_letor(str(p))
        assert "huge.txt:2" in str(exc.value) and "feature id 99999999999" in str(exc.value)

    def test_feature_matrix_limit_fires_before_allocating(self, tmp_path, monkeypatch):
        # 3 x 10**6 cells = 24 MB as float64, over a lowered limit
        monkeypatch.setattr(letor, "MAX_FEATURE_CELLS", 10**6)
        p = tmp_path / "wide.txt"
        p.write_text(f"1 qid:1 1:1.0\n0 qid:1 {10**6}:1.0\n1 qid:2 2:1.0\n")
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=r"wide.txt:2\]"):
                letor.parse_letor(str(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_feature_matrix_limit_counts_the_k_hint(self, tmp_path, monkeypatch):
        monkeypatch.setattr(letor, "MAX_FEATURE_CELLS", 100)
        p = tmp_path / "small.txt"
        p.write_text("1 qid:1 1:1.0\n0 qid:1 2:1.0\n")
        assert letor.parse_letor(str(p), k_hint=50).k == 50
        with pytest.raises(ParseError, match="hint 51"):
            letor.parse_letor(str(p), k_hint=51)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("\n\n")
        with pytest.raises(DataError):
            letor.parse_letor(str(p))


def _self_normalized(ds):
    """ds z-scored with its own stats, as the training split is."""
    return letor.normalize(ds, letor.compute_norm_stats(ds))


class TestNormalize:
    def test_two_point_column_maps_to_unit_scores(self, tmp_path):
        p = tmp_path / "n.txt"
        p.write_text("0 qid:1 1:1.0\n1 qid:1 1:3.0\n")
        ds = _self_normalized(letor.parse_letor(str(p)))
        col = np.concatenate([g.feature_matrix()[:, 0] for g in ds.groups])
        np.testing.assert_allclose(col, [-1.0, 1.0], atol=1e-15)

    def test_constant_column_maps_to_zero_with_std_one(self, tmp_path):
        p = tmp_path / "n.txt"
        p.write_text("0 qid:1 1:7.0 2:1.0\n1 qid:1 1:7.0 2:2.0\n")
        ds = _self_normalized(letor.parse_letor(str(p)))
        assert ds.norm_stats.std[0] == 1.0
        np.testing.assert_allclose(ds.groups[0].feature_matrix()[:, 0], 0.0)

    def test_other_splits_reuse_training_stats(self, tmp_path):
        train = tmp_path / "train.txt"
        valid = tmp_path / "valid.txt"
        train.write_text("0 qid:1 1:0.0\n1 qid:1 1:2.0\n")
        valid.write_text("0 qid:9 1:4.0\n")
        tr = _self_normalized(letor.parse_letor(str(train)))
        va = letor.normalize(letor.parse_letor(str(valid)), stats=tr.norm_stats)
        # (4 - 1) / 1 under train stats, not 0 under its own
        assert va.groups[0].feature_matrix()[0, 0] == pytest.approx(3.0)

    def test_stats_width_mismatch_rejected(self, tmp_path):
        p = tmp_path / "n.txt"
        p.write_text("0 qid:1 1:1.0 2:0.0\n")
        ds = letor.parse_letor(str(p))
        bad = letor.NormStats(mean=np.zeros(5), std=np.ones(5))
        with pytest.raises(ValidationError):
            letor.normalize(ds, stats=bad)

    def test_idempotent_at_fixed_point(self, rng, tmp_path):
        p = tmp_path / "n.txt"
        lines = [
            f"{i % 5} qid:{1 + i // 4} 1:{rng.normal()!r} 2:{rng.normal()!r}"
            for i in range(16)
        ]
        p.write_text("\n".join(lines) + "\n")
        once = _self_normalized(letor.parse_letor(str(p)))
        stats = letor.compute_norm_stats(once)
        np.testing.assert_allclose(stats.mean, 0.0, atol=1e-12)
        np.testing.assert_allclose(stats.std, 1.0, atol=1e-12)


def _random_dataset(rng, n_queries=5, k=4):
    counts, rows, labels = [], [], []
    for _ in range(n_queries):
        counts.append(int(rng.integers(1, 6)))
        for _ in range(counts[-1]):
            rows.append(rng.standard_normal(k))
            labels.append(int(rng.integers(0, 5)))
    return letor.Dataset(
        features=np.array(rows),
        labels=labels,
        doc_index=np.arange(len(labels)),
        qids=np.arange(1, n_queries + 1),
        counts=counts,
    )


def _datasets_equal(a: letor.Dataset, b: letor.Dataset) -> bool:
    if a.k != b.k or a.num_queries != b.num_queries:
        return False
    if (a.norm_stats is None) != (b.norm_stats is None):
        return False
    if a.norm_stats is not None:
        if not np.array_equal(a.norm_stats.mean, b.norm_stats.mean):
            return False
        if not np.array_equal(a.norm_stats.std, b.norm_stats.std):
            return False
    for ga, gb in zip(a.groups, b.groups):
        if ga.qid != gb.qid or ga.n != gb.n:
            return False
        if not np.array_equal(ga.labels(), gb.labels()):
            return False
        if not np.array_equal(ga.doc_indices(), gb.doc_indices()):
            return False
        if not np.array_equal(ga.feature_matrix(), gb.feature_matrix()):
            return False
    return True


class TestDataset:
    def _columns(self, **overrides):
        columns = dict(
            features=np.zeros((3, 2)),
            labels=[0, 4, 1],
            doc_index=[0, 1, 2],
            qids=[7, 8],
            counts=[2, 1],
        )
        columns.update(overrides)
        return columns

    def test_columns_are_read_only(self):
        ds = letor.Dataset(**self._columns())
        for column in (ds.features, ds.labels, ds.doc_index, ds.qids, ds.counts):
            assert not column.flags.writeable
        assert ds.k == 2 and ds.num_queries == 2 and ds.num_docs == 3
        assert [g.n for g in ds.groups] == [2, 1]
        assert ds.groups[0].labels().dtype == np.float64
        assert ds.groups[0].doc_indices().dtype == np.int64

    @pytest.mark.parametrize(
        "overrides",
        [
            {"counts": [3, 0]},
            {"counts": [2, 2]},
            {"labels": [0, 5, 1]},
            {"labels": [0.0, 1.0, 2.0]},
            {"features": np.array([[0.0, 0.0], [np.nan, 0.0], [0.0, 0.0]])},
            {"features": np.array([[0.0, 0.0], [0.0, 0.0], [0.0, -np.inf]])},
            {"features": np.zeros((3, 0))},
            {"qids": [7, 7]},
            {"doc_index": [0, -1, 2]},
            {"labels": [0, 1]},
        ],
        ids=[
            "empty-query", "counts-sum", "label-range", "float-labels", "nan",
            "inf", "no-features", "repeated-qid", "negative-doc-index", "short-labels",
        ],
    )
    def test_constructor_rejects_broken_columns(self, overrides):
        with pytest.raises(ValidationError):
            letor.Dataset(**self._columns(**overrides))


class TestCache:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        ds = _self_normalized(_random_dataset(rng))
        path = str(tmp_path / "ds.cache")
        letor.cache_write(ds, path)
        assert _datasets_equal(ds, letor.cache_read(path))

    def test_round_trip_without_stats(self, rng, tmp_path):
        ds = _random_dataset(rng)
        path = str(tmp_path / "ds.cache")
        letor.cache_write(ds, path)
        back = letor.cache_read(path)
        assert back.norm_stats is None
        assert _datasets_equal(ds, back)

    def test_write_is_deterministic(self, rng, tmp_path):
        ds = _random_dataset(rng)
        p1, p2 = str(tmp_path / "a.cache"), str(tmp_path / "b.cache")
        letor.cache_write(ds, p1)
        letor.cache_write(ds, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_wrong_magic_is_incompatibility(self, rng, tmp_path):
        path = str(tmp_path / "ds.cache")
        letor.cache_write(_random_dataset(rng), path)
        raw = bytearray(open(path, "rb").read())
        raw[0] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        with pytest.raises(IncompatibilityError):
            letor.cache_read(path)

    def test_future_version_is_incompatibility(self, rng, tmp_path):
        path = str(tmp_path / "ds.cache")
        letor.cache_write(_random_dataset(rng), path)
        raw = bytearray(open(path, "rb").read())
        raw[8] = 99  # version field sits right after the magic
        open(path, "wb").write(bytes(raw))
        with pytest.raises(IncompatibilityError):
            letor.cache_read(path)

    def test_truncation_is_corruption(self, rng, tmp_path):
        path = str(tmp_path / "ds.cache")
        letor.cache_write(_random_dataset(rng), path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[: len(raw) - 7])
        with pytest.raises(CacheCorruptionError):
            letor.cache_read(path)

    def test_trailing_garbage_is_corruption(self, rng, tmp_path):
        path = str(tmp_path / "ds.cache")
        letor.cache_write(_random_dataset(rng), path)
        with open(path, "ab") as fh:
            fh.write(b"xx")
        with pytest.raises(CacheCorruptionError):
            letor.cache_read(path)

    def test_read_gives_aligned_read_only_views(self, rng, tmp_path):
        path = str(tmp_path / "ds.cache")
        letor.cache_write(_self_normalized(_random_dataset(rng)), path)
        ds = letor.cache_read(path)
        for column in (ds.features, ds.labels, ds.doc_index, ds.qids, ds.counts):
            assert not column.flags.writeable and column.flags.aligned
            assert not column.flags.owndata  # a view of the file's bytes
        assert np.shares_memory(ds.groups[1].feature_matrix(), ds.features)

    # byte offsets of a cache written without stats (header ends at 40)
    @staticmethod
    def _blocks(ds):
        q, n, k = ds.num_queries, ds.num_docs, ds.k
        counts = 40 + 8 * q
        features = 40 + 16 * q + 8 * n
        return {"counts": counts, "features": features, "labels": features + 8 * n * k}

    def _corrupt(self, rng, tmp_path, poke):
        ds = _random_dataset(rng)
        path = tmp_path / "ds.cache"
        letor.cache_write(ds, str(path))
        raw = bytearray(path.read_bytes())
        poke(raw, self._blocks(ds), ds)
        path.write_bytes(bytes(raw))
        with pytest.raises(CacheCorruptionError) as exc:
            letor.cache_read(str(path))
        return str(exc.value)

    def test_empty_query_is_corruption(self, rng, tmp_path):
        def poke(raw, at, ds):
            # move the first query's rows to the second: counts still sum to N
            first, second = ds.counts[0], ds.counts[1]
            raw[at["counts"] : at["counts"] + 16] = struct.pack("<qq", 0, first + second)

        assert "row counts" in self._corrupt(rng, tmp_path, poke)

    def test_label_above_max_is_corruption(self, rng, tmp_path):
        def poke(raw, at, ds):
            raw[at["labels"] + 1] = letor.MAX_LABEL + 1

        assert "labels" in self._corrupt(rng, tmp_path, poke)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_feature_is_corruption(self, rng, tmp_path, value):
        def poke(raw, at, ds):
            raw[at["features"] + 8 : at["features"] + 16] = struct.pack("<d", value)

        assert "finite" in self._corrupt(rng, tmp_path, poke)

    def test_header_size_mismatch_is_corruption(self, rng, tmp_path):
        def poke(raw, at, ds):
            # n_docs is the header's last field, bytes 32..40
            raw[32:40] = struct.pack("<Q", ds.num_docs + 1)

        assert "header implies" in self._corrupt(rng, tmp_path, poke)

    def test_version_one_cache_asks_for_prepare(self, rng, tmp_path):
        path = str(tmp_path / "ds.cache")
        letor.cache_write(_random_dataset(rng), path)
        raw = bytearray(open(path, "rb").read())
        raw[8:12] = struct.pack("<I", 1)
        open(path, "wb").write(bytes(raw))
        with pytest.raises(IncompatibilityError, match="diffrank prepare"):
            letor.cache_read(path)


class TestTextRoundTrip:
    def test_write_then_parse_recovers_dataset(self, rng, tmp_path):
        ds = _random_dataset(rng)
        path = str(tmp_path / "ds.txt")
        letor.write_letor(ds, path)
        back = letor.parse_letor(str(path))
        assert _datasets_equal(ds, back)


@given(
    labels=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=20),
    qids=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=20),
)
@settings(max_examples=30)
def test_partition_property(tmp_path_factory, labels, qids):
    """Groups partition the documents: every doc lands in exactly one
    group, and doc_index increases strictly inside each group."""
    n = min(len(labels), len(qids))
    lines = [f"{labels[i]} qid:{qids[i]} 1:{float(i)}" for i in range(n)]
    p = tmp_path_factory.mktemp("hyp") / "ds.txt"
    p.write_text("\n".join(lines) + "\n")
    ds = letor.parse_letor(str(p))
    seen = sorted(int(i) for g in ds.groups for i in g.doc_indices())
    assert seen == list(range(n))
    for g in ds.groups:
        idx = list(g.doc_indices())
        assert idx == sorted(idx)
        assert all(qids[i] == g.qid for i in idx)
        # row i of a group is line doc_index[i] of the file
        np.testing.assert_array_equal(g.feature_matrix()[:, 0], idx)
        np.testing.assert_array_equal(g.labels(), [labels[i] for i in idx])
