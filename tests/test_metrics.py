"""Hand oracles and properties for the ranking metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffrank import metrics as mt
from diffrank import letor


class TestRankingOrder:
    def test_sorts_descending(self):
        assert list(mt.ranking_order(np.array([0.1, 0.9, 0.5]))) == [1, 2, 0]

    def test_ties_broken_by_position(self):
        assert list(mt.ranking_order(np.array([0.5, 0.7, 0.5, 0.5]))) == [1, 0, 2, 3]


class TestNdcg:
    def test_hand_example_reversed_three_docs(self):
        # labels [3, 2, 0] presented worst-first
        labels = np.array([3, 2, 0])
        order = np.array([2, 1, 0])
        dcg = 0.0 + 3.0 / np.log2(3.0) + 7.0 / 2.0
        idcg = 7.0 + 3.0 / np.log2(3.0)
        assert dcg == pytest.approx(5.392789, abs=1e-6)
        assert mt.ndcg_at_k(labels, order, 3) == pytest.approx(dcg / idcg, abs=1e-12)
        assert mt.ndcg_at_k(labels, order, 3) == pytest.approx(0.6064, abs=5e-5)

    def test_ideal_order_scores_one(self, rng):
        labels = rng.integers(0, 5, size=10).astype(float)
        labels[0] = 3  # keep at least one positive label
        order = mt.ranking_order(labels)
        for k in (1, 3, 5, 10, "ALL"):
            assert mt.ndcg_at_k(labels, order, k) == pytest.approx(1.0)

    def test_fixing_an_inversion_raises_ndcg(self):
        labels = np.array([0, 3, 1, 1])
        bad = np.array([0, 1, 2, 3])
        good = np.array([1, 0, 2, 3])
        assert mt.ndcg_at_k(labels, good, 4) > mt.ndcg_at_k(labels, bad, 4)

    def test_cutoff_beyond_length_uses_whole_list(self):
        labels = np.array([2, 1])
        order = np.array([0, 1])
        assert mt.ndcg_at_k(labels, order, 10) == mt.ndcg_at_k(labels, order, "ALL")


class TestErr:
    def test_singleton_top_grade(self):
        assert mt.err_at_k(np.array([4]), np.array([0]), 1) == pytest.approx(15 / 16)

    def test_hand_two_docs(self):
        # ERR@2 with grades [4, 3] in rank order
        r1, r2 = 15 / 16, 7 / 16
        expect = r1 + (1 - r1) * r2 / 2
        got = mt.err_at_k(np.array([4, 3]), np.array([0, 1]), 2)
        assert got == pytest.approx(expect, abs=1e-12)

    def test_better_position_for_high_grade_increases_err(self):
        labels = np.array([4, 0, 0])
        front = np.array([0, 1, 2])
        back = np.array([1, 2, 0])
        assert mt.err_at_k(labels, front, 3) > mt.err_at_k(labels, back, 3)


class TestBinaryMetrics:
    def test_mrr_first_relevant_at_rank_three(self):
        labels = np.array([0, 0, 2, 1])
        order = np.array([0, 1, 2, 3])
        assert mt.reciprocal_rank_at_k(labels, order, 5) == pytest.approx(1 / 3)

    def test_mrr_zero_when_no_relevant_in_window(self):
        labels = np.array([0, 0, 1])
        order = np.array([0, 1, 2])
        assert mt.reciprocal_rank_at_k(labels, order, 2) == 0.0

    def test_precision_counts_fraction(self):
        labels = np.array([1, 0, 2, 0, 0])
        order = np.array([0, 1, 2, 3, 4])
        assert mt.precision_at_k(labels, order, 5) == pytest.approx(0.4)

    def test_map_hand_example(self):
        # relevant at ranks 1 and 3: mean of 1/1 and 2/3
        labels = np.array([1, 0, 1, 0])
        order = np.array([0, 1, 2, 3])
        expect = (1.0 + 2.0 / 3.0) / 2.0
        assert mt.average_precision_at_k(labels, order, 4) == pytest.approx(expect)

    def test_map_zero_without_relevant(self):
        labels = np.array([0, 1])
        order = np.array([0, 1])
        assert mt.average_precision_at_k(labels, order, 1) == 0.0


class TestDiversity:
    def test_identical_runs_give_inverse_m(self):
        runs = [np.array([0, 1, 2])] * 10
        for k in (1, 2, 3):
            assert mt.ranking_diversity(runs, k) == pytest.approx(1 / 10)

    def test_all_distinct_gives_one(self):
        runs = [np.array([0, 1, 2]), np.array([1, 0, 2]), np.array([2, 1, 0])]
        assert mt.ranking_diversity(runs, 3) == 1.0

    def test_prefix_depth_matters(self):
        runs = [np.array([0, 1, 2]), np.array([0, 2, 1])]
        assert mt.ranking_diversity(runs, 1) == pytest.approx(0.5)
        assert mt.ranking_diversity(runs, 2) == 1.0

    def test_k_beyond_length_uses_full_permutation(self):
        runs = [np.array([0, 1]), np.array([1, 0])]
        assert mt.ranking_diversity(runs, 20) == 1.0

    def test_rejects_mismatched_documents(self):
        with pytest.raises(ValueError):
            mt.ranking_diversity([np.array([0, 1]), np.array([0, 2])], 2)

    def test_single_run(self):
        assert mt.ranking_diversity([np.array([1, 0])], 2) == 1.0

    def test_lists_arrays_and_a_stacked_array_agree(self):
        runs = [[0, 2, 1], [0, 1, 2], [0, 2, 1]]
        as_arrays = [np.array(o, dtype=np.int32) for o in runs]
        mixed = [runs[0], np.array(runs[1]), np.array(runs[2], dtype=np.int16)]
        for k in (1, 2, 3):
            expect = mt.ranking_diversity(runs, k)
            assert mt.ranking_diversity(as_arrays, k) == expect
            assert mt.ranking_diversity(mixed, k) == expect
            assert mt.ranking_diversity(np.array(runs), k) == expect
        assert mt.ranking_diversity(runs, 2) == pytest.approx(2 / 3)

    @pytest.mark.parametrize(
        "bad", [[0, 1], [0, 1, 2, 3], [0, 1, 1], [0, 1, 3], [-1, 0, 1]]
    )
    def test_rejects_an_order_that_does_not_permute_the_first(self, bad):
        for orders in ([[0, 1, 2], bad], [np.arange(3), np.array(bad)]):
            with pytest.raises(ValueError):
                mt.ranking_diversity(orders, 2)


def _make_dataset(rng, n_queries=6, docs=5, k=3, zero_query=False):
    features = np.empty((n_queries, docs, k))
    labels = np.zeros((n_queries, docs), dtype=np.int64)
    for q in range(n_queries):
        for d in range(docs):
            features[q, d] = rng.standard_normal(k)
            if not (zero_query and q == 0):
                labels[q, d] = rng.integers(0, 5)
        # make sure non-zero queries really have signal
        if not (zero_query and q == 0) and not labels[q].any():
            labels[q, 0] = 2
    return letor.Dataset(
        features=features.reshape(-1, k),
        labels=labels.reshape(-1),
        doc_index=np.arange(n_queries * docs),
        qids=np.arange(1, n_queries + 1),
        counts=np.full(n_queries, docs),
    )


def _evaluate(ds, ranker, cutoffs=mt.DEFAULT_CUTOFFS):
    """Score every query with ranker(group) and evaluate the orders, as
    `diffrank evaluate` does with the sampler's scores."""
    orders = [mt.ranking_order(ranker(g)) for g in ds.groups]
    return mt.evaluate_rankings([g.labels() for g in ds.groups], orders, cutoffs)


class TestEvaluateDataset:
    def test_oracle_ranker_maximizes_every_metric(self, rng):
        ds = _make_dataset(rng)
        report = _evaluate(ds, lambda g: g.labels(), cutoffs=(1, 3, "ALL"))
        for k in (1, 3, "ALL"):
            assert report.values["ndcg"][k] == pytest.approx(1.0)

    def test_all_zero_queries_excluded_and_counted(self, rng):
        ds = _make_dataset(rng, zero_query=True)
        report = _evaluate(ds, lambda g: g.labels())
        assert report.n_excluded == 1
        assert report.n_queries == ds.num_queries - 1

    def test_random_ranker_matches_independent_expectation(self):
        """Mean NDCG@10 of a random ranker vs a direct permutation average."""
        rng = np.random.default_rng(77)
        labels = np.array([0, 0, 1, 1, 2, 3, 0, 4, 1, 0, 2, 0], dtype=float)
        ds = letor.Dataset(
            features=np.zeros((400 * labels.size, 2)),
            labels=np.tile(labels.astype(np.int64), 400),
            doc_index=np.tile(np.arange(labels.size), 400),
            qids=np.arange(1, 401),
            counts=np.full(400, labels.size),
        )
        ranker = lambda g: rng.standard_normal(g.n)
        report = _evaluate(ds, ranker, cutoffs=(10,))

        oracle_rng = np.random.default_rng(1234)
        samples = []
        for _ in range(4000):
            perm = oracle_rng.permutation(labels.size)
            samples.append(mt.ndcg_at_k(labels, perm, 10))
        assert report.values["ndcg"][10] == pytest.approx(np.mean(samples), abs=0.02)

    def test_csv_is_deterministic_and_raw_scaled(self, rng):
        ds = _make_dataset(rng)
        ranker = lambda g: g.labels()
        a = mt.report_to_csv(_evaluate(ds, ranker))
        b = mt.report_to_csv(_evaluate(ds, ranker))
        assert a == b
        assert "ndcg,1,1.0," in a

    def test_table_scales_by_hundred(self, rng):
        ds = _make_dataset(rng)
        table = mt.format_report_table(_evaluate(ds, lambda g: g.labels()))
        assert "100.00" in table


AT_K = {
    "ndcg": mt.ndcg_at_k,
    "err": mt.err_at_k,
    "map": mt.average_precision_at_k,
    "mrr": mt.reciprocal_rank_at_k,
    "precision": mt.precision_at_k,
}


def _loop_metrics(labels, order, depth):
    """Reference: every metric at one depth, from one plain loop over ranks."""
    ordered = [float(labels[i]) for i in order]
    ideal = sorted(ordered, reverse=True)
    dcg = idcg = err = ap = 0.0
    reach, hits, first = 1.0, 0, 0
    for rank in range(1, depth + 1):
        label = ordered[rank - 1]
        dcg += (2.0**label - 1.0) / math.log2(1.0 + rank)
        idcg += (2.0 ** ideal[rank - 1] - 1.0) / math.log2(1.0 + rank)
        r = (2.0**label - 1.0) / 2.0**letor.MAX_LABEL
        err += reach * r / rank
        reach *= 1.0 - r
        if label > 0:
            hits += 1
            ap += hits / rank
            first = first or rank
    return {
        "ndcg": dcg / idcg if idcg else 0.0,
        "err": err,
        "map": ap / hits if hits else 0.0,
        "mrr": 1.0 / first if first else 0.0,
        "precision": hits / depth,
    }


def test_metrics_match_loop_reference_on_long_lists_with_ties():
    """Lists up to 1,300 documents (Web30K's longest are about 1,250), few
    distinct scores so ties decide much of the order, and cutoffs past the
    list length; evaluate_rankings reports exactly the *_at_k values."""
    rng = np.random.default_rng(12)
    sizes = [1, 2, 3, 19, 21, 1300] + list(rng.integers(1, 1301, size=10))
    labels_list, orders = [], []
    for n in sizes:
        labels = rng.integers(0, letor.MAX_LABEL + 1, size=n)
        labels[rng.random(n) < 0.5] = 0  # many irrelevant, some all-zero short lists
        order = mt.ranking_order(rng.integers(0, max(2, n // 10), size=n).astype(float))
        cutoffs = (1, 3, 5, 10, 20, n + 7, "ALL")
        for k in cutoffs:
            expect = _loop_metrics(labels, order, min(n, k) if k != "ALL" else n)
            for name, fn in AT_K.items():
                assert fn(labels, order, k) == pytest.approx(expect[name], rel=0, abs=1e-12)
        labels_list.append(labels)
        orders.append(order)
    cutoffs = (1, 3, 5, 10, 20, 1400, "ALL")
    report = mt.evaluate_rankings(labels_list, orders, cutoffs)
    kept = [(y, o) for y, o in zip(labels_list, orders) if y.any()]
    assert report.n_queries == len(kept) and report.n_excluded == len(sizes) - len(kept)
    for name, fn in AT_K.items():
        for k in cutoffs:
            assert report.values[name][k] == float(np.mean([fn(y, o, k) for y, o in kept]))


def test_report_means_equal_np_mean_of_each_metric_bit_for_bit():
    """Over more scored queries than numpy's 128-element summation block,
    each reported mean is np.mean of that metric's per-query values, the
    same bits; all-zero queries are counted and left out."""
    rng = np.random.default_rng(26)
    labels_list, orders = [], []
    for n in rng.integers(1, 60, size=150):
        labels = rng.integers(0, letor.MAX_LABEL + 1, size=n)
        labels[rng.random(n) < 0.3] = 0
        labels_list.append(labels)
        orders.append(mt.ranking_order(rng.standard_normal(n)))
    for i in (0, 40, 99):
        labels_list[i] = np.zeros_like(labels_list[i])
    cutoffs = (1, 3, 10, 30, "ALL")
    report = mt.evaluate_rankings(labels_list, orders, cutoffs)
    kept = [(y, o) for y, o in zip(labels_list, orders) if y.any()]
    assert len(kept) >= 130
    assert report.n_queries == len(kept)
    assert report.n_excluded == len(labels_list) - len(kept)
    assert list(report.values) == list(mt.METRICS)
    for name, fn in AT_K.items():
        assert list(report.values[name]) == list(cutoffs)
        for k in cutoffs:
            assert report.values[name][k] == float(np.mean([fn(y, o, k) for y, o in kept]))


def test_report_with_no_scored_query_is_zero():
    report = mt.evaluate_rankings([np.zeros(4), np.zeros(2)], [np.arange(4), [1, 0]], (1, "ALL"))
    assert (report.n_queries, report.n_excluded) == (0, 2)
    assert report.values == {name: {1: 0.0, "ALL": 0.0} for name in mt.METRICS}


def test_evaluate_rankings_rejects_unmatched_or_invalid_orders():
    labels = [np.array([1, 0, 2]), np.array([0, 3])]
    with pytest.raises(ValueError, match="2 label arrays but 1 rankings"):
        mt.evaluate_rankings(labels, [np.arange(3)])
    with pytest.raises(ValueError, match="2 label arrays but 3 rankings"):
        mt.evaluate_rankings(labels, [np.arange(3), np.arange(2), np.arange(2)])
    # not permutations of 0..n-1, also for a query whose labels are all zero
    for bad in ([2, 2, 2], [0, 1], [0, 1, 2, 3], [1, 2, 3], [-1, 0, 1], [[0, 1, 2]]):
        with pytest.raises(ValueError, match="must permute"):
            mt.evaluate_rankings(labels, [np.array(bad), np.arange(2)])
        with pytest.raises(ValueError, match="must permute"):
            mt.evaluate_rankings([np.zeros(3)], [bad])
        for fn in AT_K.values():
            with pytest.raises(ValueError, match="must permute"):
                fn(labels[0], np.array(bad), 3)


def test_cutoff_below_one_is_rejected():
    labels, order = np.array([1, 0]), np.array([0, 1])
    for k in (0, -1):
        for fn in AT_K.values():
            with pytest.raises(ValueError):
                fn(labels, order, k)
        with pytest.raises(ValueError):
            mt.evaluate_rankings([labels], [order], cutoffs=(k,))
        # a split whose every query has all-zero labels scores no query
        with pytest.raises(ValueError):
            mt.evaluate_rankings([np.zeros(3)], [np.arange(3)], cutoffs=(k,))
        with pytest.raises(ValueError):
            mt.ranking_diversity([order, order[::-1]], k)


@given(
    labels=st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=8),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40)
def test_joint_permutation_invariance(labels, seed):
    """Shuffling documents together with their labels leaves metrics alone
    (scores kept distinct so tie-breaking cannot interfere)."""
    rng = np.random.default_rng(seed)
    labels = np.array(labels, dtype=float)
    n = labels.size
    scores = rng.permutation(n).astype(float)  # distinct scores
    perm = rng.permutation(n)
    order_a = mt.ranking_order(scores)
    order_b = mt.ranking_order(scores[perm])
    for name, fn in AT_K.items():
        for k in (1, 3, "ALL"):
            va = fn(labels, order_a, k)
            vb = fn(labels[perm], order_b, k)
            assert va == pytest.approx(vb, abs=1e-12)
