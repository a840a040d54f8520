"""Reverse-process sampler contract tests."""

import numpy as np
import pytest

from diffrank import autodiff as ad
from diffrank import sampling
from diffrank.errors import ConfigError, IncompatibilityError
from diffrank.letor import Dataset
from diffrank.network import DenoiseModel, ModelConfig
from diffrank.sampling import (
    RankOutput,
    SamplerConfig,
    rank_query,
    rank_query_repeated,
    rank_split,
    stride_schedule,
)
from diffrank.schedule import ScheduleSpec, build_schedule, posterior, strided_table

SPEC = ScheduleSpec(kind="linear", timesteps=12)


def small_model(dtype="float64", **overrides) -> DenoiseModel:
    base = dict(
        k=4,
        d_model=8,
        heads=2,
        blocks=1,
        denoise_layers=2,
        dropout_p=0.0,
        use_attention=True,
    )
    base.update(overrides)
    return DenoiseModel(ModelConfig(**base), SPEC, dtype=dtype, seed=5)


class FixedStart:
    """Generator stand-in whose first standard_normal draw is `start`, the
    chain's starting noise; later draws come from default_rng(seed)."""

    def __init__(self, start, seed=0):
        self._start = np.array(start, dtype=np.float64)
        self._rng = np.random.default_rng(seed)

    def standard_normal(self, n):
        if self._start is None:
            return self._rng.standard_normal(n)
        start, self._start = self._start, None
        assert start.shape == (n,)
        return start


@pytest.fixture
def table():
    return build_schedule(SPEC)


@pytest.fixture
def feats(rng):
    return rng.normal(size=(6, 4))


# ---------------------------------------------------------------------------
# stride construction


def test_stride_matches_uniform_spacing_example():
    assert stride_schedule(1000, 4) == [1000, 667, 334, 1]


def test_stride_full_coverage():
    assert stride_schedule(7, 7) == [7, 6, 5, 4, 3, 2, 1]


def test_stride_single_step():
    assert stride_schedule(50, 1) == [50]
    assert stride_schedule(1, 1) == [1]


def test_stride_two_steps_hits_endpoints():
    assert stride_schedule(1000, 2) == [1000, 1]


@pytest.mark.parametrize(
    "timesteps,steps", [(5, 5), (10, 3), (977, 16), (2, 2), (1000, 512), (600, 7)]
)
def test_stride_structural_properties(timesteps, steps):
    visited = stride_schedule(timesteps, steps)
    assert len(visited) == steps
    assert visited[0] == timesteps
    if steps >= 2:
        assert visited[-1] == 1
    assert all(1 <= t <= timesteps for t in visited)
    assert all(a > b for a, b in zip(visited, visited[1:]))


def test_stride_is_strictly_descending_for_every_count():
    # the spacing (T-1)/(R-1) is 1 or at least 1 + 1/(T-2), so no two
    # rounded steps meet; this sweep backs the absence of a runtime check
    for timesteps in range(2, 121):
        for steps in range(2, timesteps + 1):
            visited = stride_schedule(timesteps, steps)
            assert all(a > b for a, b in zip(visited, visited[1:])), (timesteps, steps)


def test_stride_rejects_bad_counts():
    with pytest.raises(ConfigError):
        stride_schedule(10, 11)
    with pytest.raises(ConfigError):
        stride_schedule(10, 0)


def test_sampler_config_validation():
    with pytest.raises(ConfigError):
        SamplerConfig(reverse_steps=0)


def test_wide_stride_keeps_marginals_exact():
    big = build_schedule(ScheduleSpec(kind="linear", timesteps=1000))
    eff = strided_table(big, [1, 1000])
    # first visited step keeps its original signal level exactly even
    # though the second jump is nearly total noise
    assert eff.alpha_bar_at(1) == big.alpha_bar_at(1)
    assert eff.alpha_bar_at(2) == pytest.approx(big.alpha_bar_at(1000), rel=1e-12)


# ---------------------------------------------------------------------------
# rank_query


def test_rank_query_output_is_valid(table, feats):
    model = small_model()
    out = rank_query(model, feats, table, SamplerConfig(reverse_steps=4, seed=3))
    assert isinstance(out, RankOutput)
    assert out.scores.shape == (6,)
    assert sorted(out.order.tolist()) == list(range(6))
    assert np.all(np.isfinite(out.scores))
    assert np.all(out.scores >= 0.0) and np.all(out.scores <= 4.0)


@pytest.mark.parametrize("steps", [1, 2, 8, 12])
def test_rank_query_runs_at_any_step_count(table, feats, steps):
    model = small_model()
    out = rank_query(model, feats, table, SamplerConfig(reverse_steps=steps, seed=1))
    assert np.all(np.isfinite(out.scores))


def test_fixed_seed_reproduces_scores_and_order(table, feats):
    model = small_model()
    cfg = SamplerConfig(reverse_steps=6, seed=11)
    a = rank_query(model, feats, table, cfg)
    b = rank_query(model, feats, table, cfg)
    np.testing.assert_array_equal(a.scores, b.scores)
    np.testing.assert_array_equal(a.order, b.order)


def test_different_seeds_give_different_noise(table, feats):
    model = small_model()
    a = rank_query(model, feats, table, SamplerConfig(reverse_steps=6, seed=0))
    b = rank_query(model, feats, table, SamplerConfig(reverse_steps=6, seed=1))
    assert not np.array_equal(a.scores, b.scores)


def _spy_on_network(model, monkeypatch):
    """Record every encode call and the timestep of every denoise call.

    denoise receives a timestep-embedding row, not a timestep, so each
    row that timestep_embedding returns is mapped back to its timestep."""
    calls = {"encode": 0, "denoise": []}
    encode, embed, denoise = model.encode, model.timestep_embedding, model.denoise
    rows = []

    def encode_spy(features, **kwargs):
        calls["encode"] += 1
        return encode(features, **kwargs)

    def embed_spy(t, *args, **kwargs):
        temb = embed(t, *args, **kwargs)
        rows.extend(zip(np.reshape(t, -1).tolist(), temb.data))
        return temb

    def denoise_spy(first, y_t, temb, **kwargs):
        (t,) = [step for step, row in rows if np.array_equal(row, temb.data[0])]
        calls["denoise"].append(t)
        return denoise(first, y_t, temb, **kwargs)

    monkeypatch.setattr(model, "encode", encode_spy)
    monkeypatch.setattr(model, "timestep_embedding", embed_spy)
    monkeypatch.setattr(model, "denoise", denoise_spy)
    return calls


def test_full_reverse_visits_every_timestep(table, feats, monkeypatch):
    model = small_model()
    calls = _spy_on_network(model, monkeypatch)
    rank_query(model, feats, table, SamplerConfig(reverse_steps=12, seed=0))
    assert calls["denoise"] == list(range(12, 0, -1))
    assert calls["encode"] == 1


def test_single_step_predicts_from_pure_noise(table, feats, monkeypatch):
    model = small_model()
    calls = _spy_on_network(model, monkeypatch)
    rank_query(model, feats, table, SamplerConfig(reverse_steps=1, seed=0))
    assert calls["denoise"] == [12]
    assert calls["encode"] == 1


def test_repeated_runs_share_one_encode_and_one_denoise_per_step(
    table, feats, monkeypatch
):
    model = small_model()
    calls = _spy_on_network(model, monkeypatch)
    rank_query_repeated(model, feats, table, SamplerConfig(reverse_steps=5, seed=0), repeats=4)
    assert calls["encode"] == 1
    assert calls["denoise"] == stride_schedule(12, 5)


def _step_by_step(model, features, table, steps, rng):
    """The reverse process from predict_y0 alone, drawing from rng in the
    order a chain of the sampler does."""
    visited = stride_schedule(table.timesteps, steps)
    effective = strided_table(table, list(reversed(visited)))
    n = features.shape[0]
    y = rng.standard_normal(n)
    with ad.no_grad():
        for j in range(steps, 0, -1):
            y_hat = model.predict_y0(features, y, t=visited[steps - j]).data.reshape(n)
            if j > 1:
                mean, var = posterior(y, y_hat, j, effective)
                y = mean + np.sqrt(var) * rng.standard_normal(n)
    return y_hat


@pytest.mark.parametrize("steps", [1, 8, 32])
@pytest.mark.parametrize("chains", [1, 3])
def test_reverse_equals_step_by_step_predict_y0(rng, steps, chains):
    spec = ScheduleSpec(kind="cosine", timesteps=40)
    config = ModelConfig(k=4, d_model=16, heads=2, blocks=2, denoise_layers=3)
    model = DenoiseModel(config, spec, dtype="float64", seed=3)
    table = build_schedule(spec)
    features = rng.normal(size=(7, 4))
    cfg = SamplerConfig(reverse_steps=steps)
    seeds = np.random.SeedSequence(11).spawn(chains)
    scores = sampling._reverse(
        model, features, sampling._strided(model, table, cfg), cfg,
        [np.random.default_rng(s) for s in seeds],
    )
    assert scores.shape == (chains, 7)
    for chain, seed in zip(scores, seeds):
        ref = _step_by_step(model, features, table, steps, np.random.default_rng(seed))
        np.testing.assert_allclose(chain, ref, rtol=0, atol=1e-12)


def test_ties_break_by_document_position(table):
    # identical documents with identical starting noise stay identical
    # through a noiseless trajectory; the order must then be 0..n-1
    model = small_model()
    feats = np.tile(np.array([[0.3, -0.2, 0.9, 0.1]]), (5, 1))
    cfg = SamplerConfig(reverse_steps=3, seed=2, zero_variance=True)
    out = rank_query(model, feats, table, cfg, rng=FixedStart(np.full(5, 0.4)))
    assert np.all(out.scores == out.scores[0])
    np.testing.assert_array_equal(out.order, np.arange(5))


def test_schedule_mismatch_is_rejected(feats):
    model = small_model()
    wrong_kind = build_schedule(ScheduleSpec(kind="cosine", timesteps=12))
    with pytest.raises(IncompatibilityError, match="linear"):
        rank_query(model, feats, wrong_kind, SamplerConfig(reverse_steps=2))
    wrong_length = build_schedule(ScheduleSpec(kind="linear", timesteps=24))
    with pytest.raises(IncompatibilityError, match="24"):
        rank_query(model, feats, wrong_length, SamplerConfig(reverse_steps=2))


def test_steps_beyond_schedule_rejected(table, feats):
    model = small_model()
    with pytest.raises(ConfigError):
        rank_query(model, feats, table, SamplerConfig(reverse_steps=13))


def test_inference_leaves_gradients_untouched(table, feats):
    model = small_model()
    rank_query(model, feats, table, SamplerConfig(reverse_steps=4, seed=0))
    assert all(p.grad is None for p in model.params.values())


def test_zero_variance_diversity_comes_only_from_init(table, feats):
    model = small_model()
    cfg = SamplerConfig(reverse_steps=6, seed=0, zero_variance=True)
    init = np.array([0.5, -1.2, 0.0, 2.0, -0.3, 1.1])
    # same starting noise, different generators: identical trajectories
    a = rank_query(model, feats, table, cfg, rng=FixedStart(init, seed=1))
    b = rank_query(model, feats, table, cfg, rng=FixedStart(init, seed=999))
    np.testing.assert_array_equal(a.scores, b.scores)
    # different starting noise: different outcome
    c = rank_query(model, feats, table, cfg, rng=FixedStart(init + 0.7, seed=1))
    assert not np.array_equal(a.scores, c.scores)


def test_posterior_noise_changes_outcome_when_variance_on(table, feats):
    model = small_model()
    init = np.linspace(-1, 1, 6)
    noisy = SamplerConfig(reverse_steps=6, seed=0)
    a = rank_query(model, feats, table, noisy, rng=FixedStart(init, seed=1))
    b = rank_query(model, feats, table, noisy, rng=FixedStart(init, seed=2))
    assert not np.array_equal(a.scores, b.scores)


# ---------------------------------------------------------------------------
# repeated runs


def test_single_repeat_reduces_to_rank_query(table, feats):
    model = small_model()
    cfg = SamplerConfig(reverse_steps=5, seed=21)
    single = rank_query(model, feats, table, cfg)
    repeated = rank_query_repeated(model, feats, table, cfg, repeats=1)
    assert len(repeated) == 1
    np.testing.assert_array_equal(repeated[0].scores, single.scores)
    np.testing.assert_array_equal(repeated[0].order, single.order)


def test_repeated_runs_are_deterministic_and_distinct(table, feats):
    model = small_model()
    cfg = SamplerConfig(reverse_steps=5, seed=8)
    first = rank_query_repeated(model, feats, table, cfg, repeats=4)
    second = rank_query_repeated(model, feats, table, cfg, repeats=4)
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.scores, b.scores)
    # distinct per-run streams: at least one pair of runs differs
    assert any(
        not np.array_equal(first[0].scores, run.scores) for run in first[1:]
    )


def test_each_repeat_matches_its_own_single_chain(table, feats):
    # stacking the chains changes only the BLAS summation order, so each
    # repeat stays within float32 rounding of the chain run on its own
    model = small_model(dtype="float32")
    cfg = SamplerConfig(reverse_steps=6, seed=4)
    repeated = rank_query_repeated(model, feats, table, cfg, repeats=4)
    children = np.random.SeedSequence(cfg.seed).spawn(4)
    for run, child in zip(repeated, children):
        single = rank_query(model, feats, table, cfg, rng=np.random.default_rng(child))
        np.testing.assert_allclose(run.scores, single.scores, rtol=0, atol=1e-4)


def test_repeats_must_be_positive(table, feats):
    model = small_model()
    with pytest.raises(ConfigError):
        rank_query_repeated(model, feats, table, SamplerConfig(reverse_steps=2), repeats=0)


# ---------------------------------------------------------------------------
# whole splits


def make_split(rng, counts=(3, 6, 4), features=None) -> Dataset:
    n = sum(counts)
    if features is None:
        features = rng.normal(size=(n, 4))
    return Dataset(
        features=features,
        labels=rng.integers(0, 5, size=n),
        doc_index=np.arange(n),
        qids=np.arange(1, len(counts) + 1),
        counts=np.array(counts),
    )


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_split_query_i_draws_from_child_i(table, rng, dtype):
    model = small_model(dtype=dtype)
    split = make_split(rng)
    cfg = SamplerConfig(reverse_steps=5, seed=9)
    scores = rank_split(model, split.groups, table, cfg)
    children = np.random.SeedSequence(9).spawn(3)
    assert len(scores) == 3
    for group, runs, child in zip(split.groups, scores, children):
        single = rank_query(
            model, group.feature_matrix(), table, cfg, rng=np.random.default_rng(child)
        )
        assert runs.shape == (1, group.n)
        np.testing.assert_array_equal(runs[0], single.scores)


def test_one_query_split_equals_rank_query_default(table, rng):
    model = small_model()
    group = make_split(rng, counts=(7,)).groups[0]
    cfg = SamplerConfig(reverse_steps=4, seed=13)
    (runs,) = rank_split(model, [group], table, cfg)
    np.testing.assert_array_equal(
        runs[0], rank_query(model, group.feature_matrix(), table, cfg).scores
    )


def test_split_seed_seq_replaces_the_config_seed(table, rng):
    model = small_model()
    split = make_split(rng)
    given = rank_split(
        model, split.groups, table, SamplerConfig(reverse_steps=3, seed=0),
        seed_seq=np.random.SeedSequence(5),
    )
    seeded = rank_split(model, split.groups, table, SamplerConfig(reverse_steps=3, seed=5))
    for a, b in zip(given, seeded):
        np.testing.assert_array_equal(a, b)


def test_split_leaves_a_shared_seed_seq_unchanged(table, rng):
    # spawning from the caller's sequence would advance it, and the second
    # call would rank from other noise
    model = small_model()
    split = make_split(rng)
    cfg = SamplerConfig(reverse_steps=3)
    seed_seq = np.random.SeedSequence(5)
    for repeats in (1, 2):
        first = rank_split(model, split.groups, table, cfg, repeats, seed_seq)
        second = rank_split(model, split.groups, table, cfg, repeats, seed_seq)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
    assert seed_seq.n_children_spawned == 0


def test_split_repeats_use_the_query_child_spawn(table, rng):
    # chains are stacked, so they match single chains up to float32 rounding
    model = small_model(dtype="float32")
    split = make_split(rng)
    cfg = SamplerConfig(reverse_steps=6, seed=2)
    scores = rank_split(model, split.groups, table, cfg, repeats=4)
    children = np.random.SeedSequence(2).spawn(3)
    for group, runs, child in zip(split.groups, scores, children):
        assert runs.shape == (4, group.n)
        for chain, stream in zip(runs, child.spawn(4)):
            single = rank_query(
                model, group.feature_matrix(), table, cfg,
                rng=np.random.default_rng(stream),
            )
            np.testing.assert_allclose(chain, single.scores, rtol=0, atol=1e-4)


def test_split_builds_the_strided_table_once(table, rng, monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return strided_table(*args, **kwargs)

    monkeypatch.setattr(sampling, "strided_table", spy)
    rank_split(small_model(), make_split(rng).groups, table,
               SamplerConfig(reverse_steps=4), repeats=2)
    assert len(calls) == 1


def test_split_rejects_schedule_mismatch_and_zero_repeats(table, rng):
    model = small_model()
    groups = make_split(rng).groups
    wrong = build_schedule(ScheduleSpec(kind="cosine", timesteps=12))
    with pytest.raises(IncompatibilityError):
        rank_split(model, groups, wrong, SamplerConfig(reverse_steps=2))
    with pytest.raises(ConfigError):
        rank_split(model, groups, table, SamplerConfig(reverse_steps=2), repeats=0)


def test_identical_queries_get_their_own_streams(table, rng):
    model = small_model()
    feats = rng.normal(size=(5, 4))
    split = make_split(rng, counts=(5, 5), features=np.vstack([feats, feats]))
    cfg = SamplerConfig(reverse_steps=4, seed=3)
    first, second = rank_split(model, split.groups, table, cfg, repeats=4)
    assert not np.array_equal(first, second)
    # one query at a time, both would reuse SeedSequence(seed).spawn(4)
    shared = [
        np.stack([o.scores for o in rank_query_repeated(model, g.feature_matrix(), table, cfg, 4)])
        for g in split.groups
    ]
    np.testing.assert_array_equal(shared[0], shared[1])
