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

import math
from dataclasses import dataclass, field

import numpy as np

METRICS = ("ndcg", "err", "map", "mrr", "precision")
DEFAULT_CUTOFFS: tuple = (1, 3, 5, 10, 20, "ALL")
MAX_GRADE = 4


def ranking_order(scores: np.ndarray) -> np.ndarray:
    """Positions sorted by score descending, ties by position ascending."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    return np.lexsort((np.arange(scores.size), -scores))


def _depth(n: int, k) -> int:
    return n if k == "ALL" or k is None else min(int(k), n)


def _dcg(ordered_labels: np.ndarray, depth: int) -> float:
    total = 0.0
    for rank in range(1, depth + 1):
        gain = 2.0 ** ordered_labels[rank - 1] - 1.0
        total += gain / math.log2(1.0 + rank)
    return total


def ndcg_at_k(labels: np.ndarray, order: np.ndarray, k) -> float:
    labels = np.asarray(labels, dtype=np.float64)
    depth = _depth(labels.size, k)
    ideal = np.sort(labels)[::-1]
    idcg = _dcg(ideal, depth)
    if idcg == 0.0:
        return 0.0
    return _dcg(labels[order], depth) / idcg


def err_at_k(labels: np.ndarray, order: np.ndarray, k) -> float:
    labels = np.asarray(labels, dtype=np.float64)
    depth = _depth(labels.size, k)
    ordered = labels[order]
    total = 0.0
    not_stopped = 1.0
    for rank in range(1, depth + 1):
        r = (2.0 ** ordered[rank - 1] - 1.0) / (2.0**MAX_GRADE)
        total += not_stopped * r / rank
        not_stopped *= 1.0 - r
    return total


def average_precision_at_k(labels: np.ndarray, order: np.ndarray, k) -> float:
    """Mean of precision at the relevant positions inside the top k;
    zero when the top k holds nothing relevant."""
    labels = np.asarray(labels)
    depth = _depth(labels.size, k)
    ordered_rel = labels[order] > 0
    hits = 0
    acc = 0.0
    for rank in range(1, depth + 1):
        if ordered_rel[rank - 1]:
            hits += 1
            acc += hits / rank
    return acc / hits if hits else 0.0


def reciprocal_rank_at_k(labels: np.ndarray, order: np.ndarray, k) -> float:
    labels = np.asarray(labels)
    depth = _depth(labels.size, k)
    ordered_rel = labels[order] > 0
    for rank in range(1, depth + 1):
        if ordered_rel[rank - 1]:
            return 1.0 / rank
    return 0.0


def precision_at_k(labels: np.ndarray, order: np.ndarray, k) -> float:
    labels = np.asarray(labels)
    depth = _depth(labels.size, k)
    ordered_rel = labels[order] > 0
    return float(ordered_rel[:depth].sum()) / depth


_METRIC_FNS = {
    "ndcg": ndcg_at_k,
    "err": err_at_k,
    "map": average_precision_at_k,
    "mrr": reciprocal_rank_at_k,
    "precision": precision_at_k,
}


def ranking_diversity(orders: list[np.ndarray], k) -> float:
    """Fraction of distinct length-k ranking prefixes among repeated runs."""
    if not orders:
        raise ValueError("ranking_diversity needs at least one ranking")
    n = len(orders[0])
    for o in orders:
        if sorted(o) != list(range(n)):
            raise ValueError("each ranking must permute the same document set")
    depth = _depth(n, k)
    prefixes = {tuple(int(i) for i in o[:depth]) for o in orders}
    return len(prefixes) / len(orders)


@dataclass
class MetricsReport:
    cutoffs: list
    values: dict[str, dict] = field(default_factory=dict)
    per_query: dict[str, dict] = field(default_factory=dict)
    n_queries: int = 0
    n_excluded: int = 0


def evaluate_rankings(
    labels_list: list[np.ndarray],
    orders: list[np.ndarray],
    cutoffs=DEFAULT_CUTOFFS,
) -> MetricsReport:
    report = MetricsReport(cutoffs=list(cutoffs))
    for name in METRICS:
        report.values[name] = {}
        report.per_query[name] = {k: [] for k in cutoffs}
    for labels, order in zip(labels_list, orders):
        labels = np.asarray(labels, dtype=np.float64)
        if labels.max(initial=0.0) == 0.0:
            report.n_excluded += 1
            continue
        report.n_queries += 1
        for name in METRICS:
            fn = _METRIC_FNS[name]
            for k in cutoffs:
                report.per_query[name][k].append(fn(labels, order, k))
    for name in METRICS:
        for k in cutoffs:
            vals = report.per_query[name][k]
            report.values[name][k] = float(np.mean(vals)) if vals else 0.0
    return report


def _cutoff_str(k) -> str:
    return "ALL" if k == "ALL" or k is None else str(int(k))


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
