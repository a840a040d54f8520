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


def _curves(labels: np.ndarray, order: np.ndarray) -> dict[str, np.ndarray]:
    """Every metric of one ranking at every depth 1..n, from running sums.

    Entry d - 1 of each curve is the metric at cutoff d. Sums run in rank
    order, as a loop over the ranks would add them.
    """
    labels = np.asarray(labels, dtype=np.float64)
    ordered = labels[order]
    gains = 2.0**ordered - 1.0
    ranks = np.arange(1.0, labels.size + 1.0)
    log_ranks = np.log2(1.0 + ranks)
    dcg = np.cumsum(gains / log_ranks)
    idcg = np.cumsum((2.0 ** np.sort(labels)[::-1] - 1.0) / log_ranks)
    # ERR: r is each rank's stopping chance; reach the chance of getting there
    r = gains / 2.0**MAX_LABEL
    reach = np.cumprod(np.concatenate(([1.0], 1.0 - r[:-1])))
    rel = ordered > 0
    hits = np.cumsum(rel)
    precision = hits / ranks
    return {
        "ndcg": np.divide(dcg, idcg, out=np.zeros_like(dcg), where=idcg != 0.0),
        "err": np.cumsum(reach * r / ranks),
        "map": np.divide(
            np.cumsum(np.where(rel, precision, 0.0)),
            hits,
            out=np.zeros_like(precision),
            where=hits > 0,
        ),
        "mrr": np.maximum.accumulate(np.where(rel, 1.0 / ranks, 0.0)),
        "precision": precision,
    }


def _at_k(name: str, labels: np.ndarray, order: np.ndarray, k) -> float:
    return float(_curves(labels, order)[name][_depth(np.size(labels), k) - 1])


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
    n_queries: int = 0
    n_excluded: int = 0


def evaluate_rankings(
    labels_list: list[np.ndarray],
    orders: list[np.ndarray],
    cutoffs=DEFAULT_CUTOFFS,
) -> MetricsReport:
    report = MetricsReport(cutoffs=list(cutoffs))
    per_query = {name: {k: [] for k in cutoffs} for name in METRICS}
    for k in cutoffs:  # also when no query is scored
        _depth(1, k)
    for labels, order in zip(labels_list, orders):
        labels = np.asarray(labels, dtype=np.float64)
        if labels.max(initial=0.0) == 0.0:
            report.n_excluded += 1
            continue
        report.n_queries += 1
        curves = _curves(labels, order)
        for name in METRICS:
            for k in cutoffs:
                value = curves[name][_depth(labels.size, k) - 1]
                per_query[name][k].append(float(value))
    for name in METRICS:
        report.values[name] = {
            k: float(np.mean(vals)) if vals else 0.0 for k, vals in per_query[name].items()
        }
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
