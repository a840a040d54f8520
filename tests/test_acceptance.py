"""End-to-end acceptance gates for the whole package.

One test per criterion, named test_criterion_XX_*, each asserting its
stated numeric gate (tolerances inline next to every assertion). The
scaled training runs share one module-scoped fixture so the suite stays
fast; each training-backed criterion also asserts its wall-clock budget.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np
import pytest

from diffrank import cli
from diffrank.gradcheck import run_all_checks
from diffrank.letor import Dataset, compute_norm_stats, normalize, parse_letor, write_letor
from diffrank.losses import LossSpec
from diffrank.metrics import (
    evaluate_rankings,
    ranking_diversity,
    ranking_order,
    ndcg_at_k,
    err_at_k,
    average_precision_at_k,
    reciprocal_rank_at_k,
    precision_at_k,
)
from diffrank.network import ModelConfig, feature_only_variant, load_checkpoint
from diffrank.sampling import SamplerConfig, rank_query, rank_query_repeated
from diffrank.schedule import (
    SCHEDULE_KINDS,
    ScheduleSpec,
    build_schedule,
    posterior,
    q_sample,
    reconstruct_y0,
)
from diffrank.synth import make_context_dataset, make_linear_dataset
from diffrank.training import TrainConfig, fit


# ---------------------------------------------------------------------------
# shared scaled training run (criteria 4, 6, 7)


def _ndcg10(model, table, ds, reverse_steps=8, sampler_seed=123, stream_seed=99):
    config = SamplerConfig(reverse_steps=reverse_steps, seed=sampler_seed)
    children = np.random.SeedSequence(stream_seed).spawn(len(ds.groups))
    orders, labels = [], []
    for group, child in zip(ds.groups, children):
        out = rank_query(
            model, group.feature_matrix(), table, config, rng=np.random.default_rng(child)
        )
        orders.append(out.order)
        labels.append(group.labels())
    return evaluate_rankings(labels, orders, cutoffs=(10,)).values["ndcg"][10]


@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    train = make_linear_dataset(seed=0)  # 50 queries x 20 docs, k=10
    heldout = make_linear_dataset(seed=1)  # same labeling rule, fresh draws
    config = TrainConfig(
        model=ModelConfig(
            k=10, d_model=64, heads=4, blocks=3, denoise_layers=2,
            dropout_p=0.1, use_attention=True,
        ),
        schedule=ScheduleSpec(kind="trunclinear", timesteps=200),
        loss=LossSpec(name="listnet"),
        epochs=80,
        batch_size=128,
        lr=1e-3,
        eval_every=10,
        seed=0,
        dtype="float32",
    )
    start = time.perf_counter()
    result = fit(train, heldout, config, str(tmp_path_factory.mktemp("overfit")))
    seconds = time.perf_counter() - start
    model = load_checkpoint(result.best_path)
    table = build_schedule(config.schedule)
    return {
        "train": train,
        "heldout": heldout,
        "model": model,
        "table": table,
        "seconds": seconds,
    }


# ---------------------------------------------------------------------------
# 1 — gradient integrity


def test_criterion_01_gradient_integrity():
    start = time.perf_counter()
    results = run_all_checks()
    elapsed = time.perf_counter() - start
    failed = [(r.name, r.worst) for r in results if not r.passed]
    worst = max(r.worst for r in results)
    assert not failed, f"finite-difference mismatches: {failed}"
    assert worst < 1e-4  # stated tolerance: max relative error < 1e-4
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s (budget 120s)"
    print(
        f"PASS criterion 1: {len(results)} checks x 20 instances, "
        f"worst rel err {worst:.2e} < 1e-4, {elapsed:.1f}s < 120s"
    )


# ---------------------------------------------------------------------------
# 2 — diffusion math against Monte Carlo / quadrature oracles


def test_criterion_02_diffusion_math():
    start = time.perf_counter()
    table = build_schedule(ScheduleSpec(kind="linear", timesteps=200))
    rng = np.random.default_rng(20)
    n_docs, n_samples = 4, 100_000
    y0 = rng.uniform(0.0, 4.0, size=n_docs)
    tiled = np.broadcast_to(y0, (n_samples, n_docs))

    # (a) marginal sampler moments: mean within 1%, variance within 2%
    for t in (1, 100, 200):
        eps = rng.standard_normal((n_samples, n_docs))
        samples = q_sample(tiled, t, eps, table)
        ab = table.alpha_bar_at(t)
        want_mean = math.sqrt(ab) * y0
        want_var = 1.0 - ab
        mean_err = np.max(
            np.abs(samples.mean(axis=0) - want_mean) / np.maximum(1.0, np.abs(want_mean))
        )
        var_err = np.max(np.abs(samples.var(axis=0) - want_var) / want_var)
        assert mean_err < 0.01, f"t={t}: marginal mean off by {mean_err:.4f}"
        assert var_err < 0.02, f"t={t}: marginal variance off by {var_err:.4f}"

    # (b) composing the one-step kernel t times reproduces the marginal
    # within 2% on mean and variance
    t_comp = 100
    walked = np.broadcast_to(y0, (n_samples, n_docs)).copy()
    for s in range(1, t_comp + 1):
        beta = table.beta_at(s)
        walked = (
            math.sqrt(1.0 - beta) * walked
            + math.sqrt(beta) * rng.standard_normal((n_samples, n_docs))
        )
    ab = table.alpha_bar_at(t_comp)
    want_mean = math.sqrt(ab) * y0
    want_var = 1.0 - ab
    comp_mean_err = np.max(
        np.abs(walked.mean(axis=0) - want_mean) / np.maximum(1.0, np.abs(want_mean))
    )
    comp_var_err = np.max(np.abs(walked.var(axis=0) - want_var) / want_var)
    assert comp_mean_err < 0.02, f"stepwise mean off by {comp_mean_err:.4f}"
    assert comp_var_err < 0.02, f"stepwise variance off by {comp_var_err:.4f}"

    # (c) closed-form posterior against grid-Bayes quadrature, 1e-3
    grid = np.linspace(-14.0, 14.0, 28_001)
    worst_mean, worst_var = 0.0, 0.0
    for t in (2, 57, 200):
        ab_prev = table.alpha_bar_at(t - 1)
        alpha_t = table.alpha_at(t)
        beta_t = table.beta_at(t)
        for y0_val in (-0.8, 1.7):
            for yt_val in (0.3, -2.1):
                log_prior = -0.5 * (grid - math.sqrt(ab_prev) * y0_val) ** 2 / (1.0 - ab_prev)
                log_like = -0.5 * (yt_val - math.sqrt(alpha_t) * grid) ** 2 / beta_t
                weights = np.exp(log_prior + log_like - np.max(log_prior + log_like))
                weights /= weights.sum()
                grid_mean = float((weights * grid).sum())
                grid_var = float((weights * (grid - grid_mean) ** 2).sum())
                mean, var = posterior(np.array([yt_val]), np.array([y0_val]), t, table)
                worst_mean = max(worst_mean, abs(float(mean[0]) - grid_mean))
                worst_var = max(worst_var, abs(var - grid_var))
    assert worst_mean < 1e-3, f"posterior mean vs quadrature: {worst_mean:.2e}"
    assert worst_var < 1e-3, f"posterior variance vs quadrature: {worst_var:.2e}"

    # (d) reconstruction inverts the marginal sampler to 1e-10
    worst_rec = 0.0
    for t in (1, 100, 200):
        y = rng.uniform(0.0, 4.0, size=16)
        eps = rng.standard_normal(16)
        back = reconstruct_y0(q_sample(y, t, eps, table), eps, t, table)
        worst_rec = max(worst_rec, float(np.max(np.abs(back - y))))
    assert worst_rec < 1e-10, f"reconstruction error {worst_rec:.2e}"

    elapsed = time.perf_counter() - start
    assert elapsed < 180.0, f"diffusion math suite took {elapsed:.1f}s (budget 180s)"
    print(
        f"PASS criterion 2: marginal/composition/posterior/reconstruction oracles "
        f"within 1%/2%/1e-3/1e-10, {elapsed:.1f}s < 180s"
    )


# ---------------------------------------------------------------------------
# 3 — schedule invariants for every kind and size


def test_criterion_03_schedule_invariants():
    for kind in SCHEDULE_KINDS:
        for timesteps in (200, 600, 1000):
            table = build_schedule(ScheduleSpec(kind=kind, timesteps=timesteps))
            label = f"{kind} T={timesteps}"
            assert np.all(table.beta > 0.0) and np.all(table.beta < 1.0), label
            assert np.all(np.diff(table.alpha_bar) < 0.0), label
            assert table.alpha_bar[-1] < 0.01, (
                f"{label}: terminal signal {table.alpha_bar[-1]:.4g} >= 0.01"
            )
            # posterior variance is a strict contraction of the step size
            assert np.all(table.beta_tilde[1:] < table.beta[1:]), label
    # the truncated-linear family decays fast first, then slowly: alpha_bar
    # loses more signal over the first half than over the second half
    for timesteps in (200, 600, 1000):
        table = build_schedule(ScheduleSpec(kind="trunclinear", timesteps=timesteps))
        half = timesteps // 2
        first_drop = 1.0 - table.alpha_bar_at(half)
        second_drop = table.alpha_bar_at(half) - table.alpha_bar_at(timesteps)
        assert first_drop > second_drop, f"T={timesteps}: not fast-then-slow"
    print(
        "PASS criterion 3: beta in (0,1), alpha_bar strictly decreasing with "
        "terminal < 0.01, beta_tilde < beta, truncated-linear fast-then-slow, "
        "4 kinds x T in {200, 600, 1000}"
    )


# ---------------------------------------------------------------------------
# 4 — overfit oracle on the synthetic linear dataset


def test_criterion_04_overfit_oracle(overfit_run):
    model, table = overfit_run["model"], overfit_run["table"]
    train_ndcg = _ndcg10(model, table, overfit_run["train"])
    heldout_ndcg = _ndcg10(model, table, overfit_run["heldout"])
    assert train_ndcg >= 0.99, f"train ndcg@10 {train_ndcg:.4f} < 0.99"
    assert heldout_ndcg >= 0.90, f"held-out ndcg@10 {heldout_ndcg:.4f} < 0.90"
    assert overfit_run["seconds"] < 600.0, (
        f"training took {overfit_run['seconds']:.0f}s (budget 600s)"
    )
    print(
        f"PASS criterion 4: train ndcg@10 {train_ndcg:.4f} >= 0.99, held-out "
        f"{heldout_ndcg:.4f} >= 0.90, trained in {overfit_run['seconds']:.0f}s < 600s"
    )


# ---------------------------------------------------------------------------
# 5 — ranking metrics against brute-force reference implementations


def _ref_order(scores):
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def _ref_depth(n, k):
    return n if k == "ALL" else min(int(k), n)


def _ref_ndcg(labels, scores, k):
    order = _ref_order(scores)
    depth = _ref_depth(len(labels), k)

    def dcg(seq):
        return sum(
            (2.0 ** seq[r] - 1.0) / math.log2(r + 2.0) for r in range(depth)
        )

    ideal = dcg(sorted(labels, reverse=True))
    if ideal == 0.0:
        return 0.0
    return dcg([labels[i] for i in order]) / ideal


def _ref_err(labels, scores, k):
    order = _ref_order(scores)
    depth = _ref_depth(len(labels), k)
    total, survive = 0.0, 1.0
    for r in range(depth):
        stop = (2.0 ** labels[order[r]] - 1.0) / 16.0
        total += survive * stop / (r + 1)
        survive *= 1.0 - stop
    return total


def _ref_map(labels, scores, k):
    order = _ref_order(scores)
    depth = _ref_depth(len(labels), k)
    hits, acc = 0, 0.0
    for r in range(depth):
        if labels[order[r]] > 0:
            hits += 1
            acc += hits / (r + 1)
    return acc / hits if hits else 0.0


def _ref_mrr(labels, scores, k):
    order = _ref_order(scores)
    depth = _ref_depth(len(labels), k)
    for r in range(depth):
        if labels[order[r]] > 0:
            return 1.0 / (r + 1)
    return 0.0


def _ref_precision(labels, scores, k):
    order = _ref_order(scores)
    depth = _ref_depth(len(labels), k)
    return sum(1 for r in range(depth) if labels[order[r]] > 0) / depth


def test_criterion_05_metric_oracles():
    rng = np.random.default_rng(5)
    pairs = [
        (ndcg_at_k, _ref_ndcg),
        (err_at_k, _ref_err),
        (average_precision_at_k, _ref_map),
        (reciprocal_rank_at_k, _ref_mrr),
        (precision_at_k, _ref_precision),
    ]
    worst = 0.0
    for trial in range(500):
        n = int(rng.integers(1, 7))  # list lengths 1..6
        labels = rng.integers(0, 5, size=n)
        if labels.max() == 0:
            labels[rng.integers(0, n)] = rng.integers(1, 5)
        scores = rng.standard_normal(n)
        if trial % 5 == 0 and n >= 2:  # exercise tie-breaking
            scores[1] = scores[0]
        order = ranking_order(scores)
        label_list = [float(v) for v in labels]
        score_list = [float(v) for v in scores]
        for k in (1, 2, 3, 4, 6, "ALL"):
            for impl, ref in pairs:
                got = impl(labels.astype(np.float64), order, k)
                want = ref(label_list, score_list, k)
                worst = max(worst, abs(got - want))
    assert worst <= 1e-12, f"metric mismatch {worst:.2e} vs brute force"
    print(
        f"PASS criterion 5: 5 metrics x 500 random lists x 6 cutoffs, max "
        f"deviation {worst:.2e} <= 1e-12"
    )


# ---------------------------------------------------------------------------
# 6 — repeated-run ranking diversity


def test_criterion_06_ranking_diversity_contract(overfit_run):
    model, table = overfit_run["model"], overfit_run["table"]
    heldout = overfit_run["heldout"]
    repeats = 10

    # deterministic reference scorer: same model stripped of the noisy-label
    # input, single variance-free step. Every repeat ranks identically, so
    # the diversity ratio must be exactly 1/10 at every cutoff.
    reference = feature_only_variant(model)
    ref_config = SamplerConfig(reverse_steps=1, seed=5, zero_variance=True)
    for group in heldout.groups:
        outs = rank_query_repeated(
            reference, group.feature_matrix(), table, ref_config, repeats=repeats
        )
        orders = [o.order for o in outs]
        for k in (1, 5, 10, 20):
            value = ranking_diversity(orders, k)
            assert value == 0.1, f"reference scorer diversity {value} != 0.1 at k={k}"

    # sampling model: diversity strictly above the floor, ranking quality
    # preserved across repeats (mean within 0.05 of the single-run value)
    config = SamplerConfig(reverse_steps=8, seed=123)
    rsd_values, labels = [], []
    run_orders = [[] for _ in range(repeats)]
    for group in heldout.groups:
        outs = rank_query_repeated(
            model, group.feature_matrix(), table, config, repeats=repeats
        )
        rsd_values.append(ranking_diversity([o.order for o in outs], 20))
        for m, out in enumerate(outs):
            run_orders[m].append(out.order)
        labels.append(group.labels())
    mean_rsd = float(statistics.mean(rsd_values))
    assert mean_rsd > 0.1, f"sampling diversity {mean_rsd:.3f} not above 0.1"
    per_run = [
        evaluate_rankings(labels, run_orders[m], cutoffs=(10,)).values["ndcg"][10]
        for m in range(repeats)
    ]
    # the first repeat uses the same stream as a single run, so it IS the
    # single-run value
    single = per_run[0]
    drift = abs(float(statistics.mean(per_run)) - single)
    assert drift <= 0.05, f"ndcg@10 drift across repeats {drift:.4f} > 0.05"
    print(
        f"PASS criterion 6: reference scorer diversity exactly 0.1 at k in "
        f"{{1,5,10,20}}; sampling model {mean_rsd:.3f} > 0.1 with ndcg@10 drift "
        f"{drift:.4f} <= 0.05"
    )


# ---------------------------------------------------------------------------
# 7 — accuracy flat, cost monotone in the number of reverse steps


def test_criterion_07_stride_robustness(overfit_run):
    model, table = overfit_run["model"], overfit_run["table"]
    heldout = overfit_run["heldout"]
    labels = [group.labels() for group in heldout.groups]
    children = np.random.SeedSequence(7).spawn(len(heldout.groups))

    def ndcg10(orders):
        return evaluate_rankings(labels, orders, cutoffs=(10,)).values["ndcg"][10]

    full = SamplerConfig(reverse_steps=table.timesteps, seed=123)
    full_value = ndcg10([
        rank_query(model, group.feature_matrix(), table, full,
                   rng=np.random.default_rng(child)).order
        for group, child in zip(heldout.groups, children)
    ])

    # A query is encoded once and then costs one denoise call per step, so
    # 2 and 4 steps differ by two denoise calls, under a tenth of a query,
    # while the machine's speed can swing by more than that within a second.
    # The step counts therefore take turns on every query, over three rounds,
    # and each sums the time of its own calls.
    strides = (2, 4, 8, 16)
    rounds = 3
    configs = {steps: SamplerConfig(reverse_steps=steps, seed=123) for steps in strides}
    orders = {steps: [] for steps in strides}
    elapsed = dict.fromkeys(strides, 0.0)
    for round_index in range(rounds):
        for group, child in zip(heldout.groups, children):
            features = group.feature_matrix()
            for steps in strides:
                rng = np.random.default_rng(child)
                start = time.perf_counter()
                out = rank_query(model, features, table, configs[steps], rng=rng)
                elapsed[steps] += time.perf_counter() - start
                if round_index == 0:
                    orders[steps].append(out.order)
    values, times = {}, {}
    for steps in strides:
        values[steps] = ndcg10(orders[steps])
        times[steps] = elapsed[steps] / (rounds * len(heldout.groups))
        diff = abs(values[steps] - full_value)
        assert diff <= 0.01, (
            f"steps={steps}: ndcg@10 {values[steps]:.4f} departs from full "
            f"{full_value:.4f} by {diff:.4f} > 0.01"
        )
    timing = [times[s] for s in (2, 4, 8, 16)]
    assert timing == sorted(timing) and len(set(timing)) == 4, (
        f"per-query time not strictly increasing: {timing}"
    )
    print(
        f"PASS criterion 7: ndcg@10 within 0.01 of full-horizon at steps "
        f"{{2,4,8,16}} (max diff {max(abs(values[s] - full_value) for s in values):.4f}), "
        f"per-query ms {[round(1000 * t, 2) for t in timing]} strictly increasing"
    )


# ---------------------------------------------------------------------------
# 8 — self-attention ablation on context-dependent labels


def test_criterion_08_attention_ablation(tmp_path):
    train = make_context_dataset(seed=0)
    heldout = make_context_dataset(seed=1)
    table = build_schedule(ScheduleSpec(kind="trunclinear", timesteps=200))
    start = time.perf_counter()

    def run(use_attention):
        config = TrainConfig(
            model=ModelConfig(
                k=10, d_model=64, heads=4, blocks=3, denoise_layers=2,
                dropout_p=0.0, use_attention=use_attention,
            ),
            schedule=ScheduleSpec(kind="trunclinear", timesteps=200),
            loss=LossSpec(name="listnet"),
            epochs=60,
            batch_size=128,
            lr=1e-3,
            eval_every=20,
            seed=0,
            dtype="float32",
        )
        result = fit(train, heldout, config, str(tmp_path / f"sa_{use_attention}"))
        model = load_checkpoint(result.best_path)
        return _ndcg10(model, table, heldout)

    with_attention = run(True)
    without_attention = run(False)
    gap = with_attention - without_attention
    elapsed = time.perf_counter() - start
    assert gap >= 0.05, (
        f"attention {with_attention:.4f} vs feed-forward {without_attention:.4f}: "
        f"gap {gap:.4f} < 0.05"
    )
    print(
        f"PASS criterion 8: identical budgets, held-out ndcg@10 "
        f"{with_attention:.4f} (attention) vs {without_attention:.4f} "
        f"(feed-forward), gap {gap:.4f} >= 0.05, {elapsed:.0f}s"
    )


# ---------------------------------------------------------------------------
# 9 — optional real-data subset check


WEB30K_ENV = "DIFFRANK_WEB30K_DIR"


@pytest.mark.skipif(
    WEB30K_ENV not in os.environ,
    reason=f"set {WEB30K_ENV} to a directory holding Fold1/{{train,vali,test}}.txt",
)
def test_criterion_09_real_data_subset(tmp_path):
    root = os.environ[WEB30K_ENV]
    start = time.perf_counter()

    def subset(name, limit):
        ds = parse_letor(os.path.join(root, "Fold1", f"{name}.txt"))
        rows = int(ds.counts[:limit].sum())
        return Dataset(ds.features[:rows], ds.labels[:rows], ds.doc_index[:rows],
                       ds.qids[:limit], ds.counts[:limit])

    train_raw = subset("train", 1000)
    valid_raw = subset("vali", 200)
    test_raw = subset("test", 200)
    stats = compute_norm_stats(train_raw)
    train = normalize(train_raw, stats)
    valid = normalize(valid_raw, stats)
    test = normalize(test_raw, stats)

    config = TrainConfig(
        model=ModelConfig(
            k=train.k, d_model=64, heads=4, blocks=3, denoise_layers=2,
            dropout_p=0.1, use_attention=True,
        ),
        schedule=ScheduleSpec(kind="trunclinear", timesteps=200),
        loss=LossSpec(name="listnet"),
        epochs=30,
        batch_size=128,
        lr=1e-3,
        eval_every=5,
        seed=0,
        dtype="float32",
    )
    result = fit(train, valid, config, str(tmp_path / "run"))
    model = load_checkpoint(result.best_path)
    table = build_schedule(config.schedule)
    model_ndcg = _ndcg10(model, table, test)

    # random-permutation baseline: average over shuffled orderings
    rng = np.random.default_rng(0)
    baseline_runs = []
    for _ in range(20):
        orders = [rng.permutation(g.n) for g in test.groups]
        labels = [g.labels() for g in test.groups]
        baseline_runs.append(
            evaluate_rankings(labels, orders, cutoffs=(10,)).values["ndcg"][10]
        )
    baseline = float(np.mean(baseline_runs))
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0, f"real-data run took {elapsed:.0f}s (budget 1800s)"
    assert model_ndcg - baseline >= 0.10, (
        f"model {model_ndcg:.4f} vs random baseline {baseline:.4f}: margin "
        f"{model_ndcg - baseline:.4f} < 0.10"
    )
    print(
        f"PASS criterion 9: test ndcg@10 {model_ndcg:.4f} vs random "
        f"{baseline:.4f}, margin >= 0.10, {elapsed:.0f}s < 1800s"
    )


# ---------------------------------------------------------------------------
# 10 — byte-identical artifacts on rerun


def test_criterion_10_reproducible_artifacts(tmp_path):
    write_letor(make_linear_dataset(10, 8, 5, seed=0), str(tmp_path / "train.txt"))
    write_letor(make_linear_dataset(5, 8, 5, seed=1), str(tmp_path / "valid.txt"))
    caches = tmp_path / "caches"
    assert cli.main([
        "prepare",
        "--train", str(tmp_path / "train.txt"),
        "--valid", str(tmp_path / "valid.txt"),
        "--out-dir", str(caches),
    ]) == 0
    settings = [
        "--set", "timesteps=16", "--set", "d_model=16", "--set", "heads=2",
        "--set", "blocks=1", "--set", "denoise_layers=2", "--set", "dropout=0.0",
        "--set", "loss=mse", "--set", "epochs=3", "--set", "eval_every=3",
        "--set", "reverse_steps=2", "--set", "batch_size=4",
        "--set", "dtype=float64", "--set", "seed=9",
    ]

    def train_once(out_dir):
        assert cli.main([
            "train",
            "--train-cache", str(caches / "train.cache"),
            "--valid-cache", str(caches / "valid.cache"),
            "--out-dir", str(out_dir),
            *settings,
        ]) == 0
        return (out_dir / "best.ckpt").read_bytes(), (out_dir / "train_log.jsonl").read_bytes()

    ckpt_a, log_a = train_once(tmp_path / "run_a")
    ckpt_b, log_b = train_once(tmp_path / "run_b")
    assert ckpt_a == ckpt_b, "checkpoint bytes differ between identical runs"
    assert log_a == log_b, "training log bytes differ between identical runs"

    def evaluate_once(out_path):
        assert cli.main([
            "evaluate",
            "--checkpoint", str(tmp_path / "run_a" / "best.ckpt"),
            "--test-cache", str(caches / "valid.cache"),
            "--out", str(out_path),
            "--set", "reverse_steps=2", "--set", "seed=4",
        ]) == 0
        return out_path.read_bytes()

    assert evaluate_once(tmp_path / "m1.csv") == evaluate_once(tmp_path / "m2.csv"), (
        "metric report bytes differ between identical runs"
    )

    def diversity_once(out_path):
        assert cli.main([
            "diversity",
            "--checkpoint", str(tmp_path / "run_a" / "best.ckpt"),
            "--test-cache", str(caches / "valid.cache"),
            "--out", str(out_path),
            "--repeat", "4",
            "--set", "reverse_steps=2", "--set", "seed=4",
        ]) == 0
        return out_path.read_bytes()

    assert diversity_once(tmp_path / "d1.csv") == diversity_once(tmp_path / "d2.csv"), (
        "diversity report bytes differ between identical runs"
    )
    print(
        "PASS criterion 10: rerunning train/evaluate/diversity with identical "
        "config and seed reproduced every artifact byte-for-byte"
    )
