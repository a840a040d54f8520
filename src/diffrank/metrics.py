"""Ranking quality metrics and the repeated-run diversity measure.

Conventions shared by every metric:
  * rankings are permutations of local document positions, produced by
    sorting scores descending with ties broken by ascending position
    (positions follow doc_index order inside a group);
  * gains are 2^label - 1, discounts 1/log2(1 + rank) with rank >= 1;
  * binarization for MAP / MRR / Precision is label > 0;
  * queries whose labels are all zero carry no ranking signal and are
    excluded from every mean; the report counts them.

Values live in [0, 1]; scaling by 100 happens only in display code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .letor import MAX_LABEL

METRICS = ("ndcg", "err", "map", "mrr", "precision")
DEFAULT_CUTOFFS: tuple = (1, 3, 5, 10, 20, "ALL")


def ranking_order(scores: np.ndarray) -> np.ndarray:
    """Positions sorted by score descending, ties by position ascending."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    return np.lexsort((np.arange(scores.size), -scores))


def _depth(n: int, k) -> int:
    """Ranks that cutoff k (an integer or "ALL") reads of an n-document list."""
    if k != "ALL" and int(k) < 1:
        raise ValueError(f"cutoff {k} needs k >= 1")
    if n < 1:
        raise ValueError(f"cutoff {k} needs a non-empty list, got {n} documents")
    return n if k == "ALL" else min(int(k), n)


def _permutation(orders, shape: tuple) -> np.ndarray:
    """orders as an int64 array of the given shape, one ranking or a stack
    of them, once each ranking along the last axis is checked to permute
    0..n-1."""
    arr = np.asarray(orders)
    n = shape[-1]
    if arr.shape != shape or not (np.sort(arr, axis=-1) == np.arange(n)).all():
        raise ValueError(f"a ranking of {n} documents must permute 0..{n - 1}")
    return arr.astype(np.int64, copy=False)


def _curves(labels: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Every metric of one ranking at every depth 1..n, from running sums.

    Row i holds metric METRICS[i]; its entry d - 1 is the metric at cutoff
    d. Sums run in rank order, as a loop over the ranks would add them.
    labels is a float64 array and order must have passed _permutation.
    """
    ordered = labels[order]
    gains = 2.0**ordered - 1.0
    ranks = np.arange(1.0, labels.size + 1.0)
    log_ranks = np.log2(1.0 + ranks)
    dcg = (gains / log_ranks).cumsum()
    idcg = (np.sort(gains)[::-1] / log_ranks).cumsum()
    # ERR: r is each rank's stopping chance; reach the chance of getting there
    r = gains / 2.0**MAX_LABEL
    reach = np.concatenate(([1.0], 1.0 - r[:-1])).cumprod()
    rel = ordered > 0
    hits = rel.cumsum()
    curves = np.zeros((len(METRICS), labels.size))
    ndcg, err, ap, rr, precision = curves  # METRICS order
    np.divide(dcg, idcg, out=ndcg, where=idcg != 0.0)
    (reach * r / ranks).cumsum(out=err)
    np.divide(hits, ranks, out=precision)
    np.divide(np.where(rel, precision, 0.0).cumsum(), hits, out=ap, where=hits > 0)
    np.maximum.accumulate(np.where(rel, 1.0 / ranks, 0.0), out=rr)
    return curves


def _at_k(name: str, labels: np.ndarray, order: np.ndarray, k) -> float:
    labels = np.asarray(labels, dtype=np.float64)
    curves = _curves(labels, _permutation(order, (labels.size,)))
    return float(curves[METRICS.index(name), _depth(labels.size, k) - 1])


def ndcg_at_k(labels: np.ndarray, order: np.ndarray, k) -> float:
    return _at_k("ndcg", labels, order, k)


def err_at_k(labels: np.ndarray, order: np.ndarray, k) -> float:
    return _at_k("err", labels, order, k)


def average_precision_at_k(labels: np.ndarray, order: np.ndarray, k) -> float:
    """Mean of precision at the relevant positions inside the top k;
    zero when the top k holds nothing relevant."""
    return _at_k("map", labels, order, k)


def reciprocal_rank_at_k(labels: np.ndarray, order: np.ndarray, k) -> float:
    return _at_k("mrr", labels, order, k)


def precision_at_k(labels: np.ndarray, order: np.ndarray, k) -> float:
    return _at_k("precision", labels, order, k)


def ranking_diversity(orders: list[np.ndarray], k) -> float:
    """Fraction of distinct length-k ranking prefixes among repeated runs.

    orders is a list of rankings (arrays or lists) or one (runs, n) array.
    """
    if len(orders) == 0:
        raise ValueError("ranking_diversity needs at least one ranking")
    n = len(orders[0])
    if any(len(o) != n for o in orders):
        raise ValueError(f"each ranking must permute the same {n} documents")
    runs = _permutation(orders, (len(orders), n))
    prefixes = {run.tobytes() for run in runs[:, : _depth(n, k)]}
    return len(prefixes) / len(orders)


@dataclass
class MetricsReport:
    cutoffs: list
    values: dict[str, dict] = field(default_factory=dict)
    n_queries: int = 0
    n_excluded: int = 0


def evaluate_rankings(
    labels_list: list[np.ndarray],
    orders: list[np.ndarray],
    cutoffs=DEFAULT_CUTOFFS,
) -> MetricsReport:
    """Mean of each metric at each cutoff over the queries with a nonzero
    label. Each mean equals np.mean of that metric's per-query values.

    Raises ValueError for a cutoff below 1, for label and order lists of
    different lengths, and for an order that does not permute 0..n-1.
    """
    report = MetricsReport(cutoffs=list(cutoffs))
    for k in cutoffs:  # also when no query is scored
        _depth(1, k)
    if len(labels_list) != len(orders):
        raise ValueError(
            f"{len(labels_list)} label arrays but {len(orders)} rankings; "
            "each query needs one of each"
        )
    rows = []  # per scored query: the METRICS x cutoffs values, metric-major
    for labels, order in zip(labels_list, orders):
        labels = np.asarray(labels, dtype=np.float64)
        order = _permutation(order, (labels.size,))
        if labels.max(initial=0.0) == 0.0:
            report.n_excluded += 1
            continue
        at = [_depth(labels.size, k) - 1 for k in cutoffs]
        rows.append(_curves(labels, order)[:, at].reshape(-1))
    report.n_queries = len(rows)
    means = np.zeros(len(METRICS) * len(cutoffs))
    if rows:
        # One C-contiguous row per (metric, cutoff), so numpy sums each row
        # pairwise in query order, as np.mean of that row's values alone
        # does; a mean over axis 0 of the (queries, values) array rounds
        # otherwise.
        means = np.stack(rows, axis=1).mean(axis=1)
    for name, row in zip(METRICS, means.reshape(len(METRICS), -1).tolist()):
        report.values[name] = dict(zip(cutoffs, row))
    return report


def _cutoff_str(k) -> str:
    return "ALL" if k == "ALL" else str(int(k))


def report_to_csv(report: MetricsReport) -> str:
    lines = ["metric,k,value,n_queries"]
    for name in METRICS:
        for k in report.cutoffs:
            lines.append(
                f"{name},{_cutoff_str(k)},{report.values[name][k]!r},{report.n_queries}"
            )
    return "\n".join(lines) + "\n"


def format_report_table(report: MetricsReport) -> str:
    """Human-oriented view; values shown multiplied by 100."""
    header = f"{'metric':<10}" + "".join(f"{_cutoff_str(k):>10}" for k in report.cutoffs)
    rows = [header, "-" * len(header)]
    for name in METRICS:
        cells = "".join(
            f"{100.0 * report.values[name][k]:>10.2f}" for k in report.cutoffs
        )
        rows.append(f"{name:<10}" + cells)
    rows.append(
        f"queries evaluated: {report.n_queries}, excluded (all-zero labels): {report.n_excluded}"
    )
    return "\n".join(rows)
