"""Tests of the benchmark's own logic (not of diffrank).

    python -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import inputs
import run
import stages
import tracer

import diffrank
from diffrank import network, sampling, schedule

ROOT = Path(__file__).resolve().parents[2]


# -- generated inputs ---------------------------------------------------------


def test_same_seed_gives_identical_inputs():
    a, b = inputs.make_corpus(7, queries=6), inputs.make_corpus(7, queries=6)
    assert a.text().encode() == b.text().encode()
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_different_seed_gives_different_inputs():
    a, b = inputs.make_corpus(7, queries=6), inputs.make_corpus(8, queries=6)
    assert a.text() != b.text()


def test_written_text_parses_back_to_the_generated_values(tmp_path):
    corpus = inputs.make_corpus(3, queries=4)
    path = tmp_path / "c.txt"
    path.write_text(corpus.text())
    ds = diffrank.parse_letor(str(path))
    assert stages.parse_problems(ds, corpus) == []


def test_list_lengths_follow_the_stratified_lognormal():
    lengths = inputs.list_lengths(np.random.default_rng(0), 128)
    assert lengths.min() >= inputs.MIN_DOCS and lengths.max() <= inputs.MAX_DOCS
    assert abs(np.median(lengths) - inputs.MEDIAN_DOCS) <= 2


# -- self time ----------------------------------------------------------------


def test_self_time_of_nested_spans():
    #   0 root   [0, 100)
    #   1  child [10, 40)
    #   2   grandchild [15, 25)
    #   3  child [50, 60)
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 60]
    parent = [-1, 0, 1, 0]
    assert tracer.self_times(start, end, parent).tolist() == [60, 20, 10, 10]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    #   root [0, 100); children [10, 30) and [20, 50) overlap -> cover [10, 50);
    #   child [90, 120) sticks out of its parent -> covers only [90, 100)
    start = [0, 10, 20, 90]
    end = [100, 30, 50, 120]
    parent = [-1, 0, 0, 0]
    assert tracer.self_times(start, end, parent).tolist() == [50, 20, 30, 30]


def test_self_time_keeps_separate_parents_apart():
    # two roots whose children would overlap if the groups were merged
    start = [0, 5, 0, 1]
    end = [10, 9, 10, 3]
    parent = [-1, 0, -1, 2]
    assert tracer.self_times(start, end, parent).tolist() == [6, 4, 8, 2]


# -- percentile rule -----------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    value, beyond = stages.tail_percentile(range(1, 101), 90)
    assert (value, beyond) == (90, 10)
    with pytest.raises(ValueError):
        stages.tail_percentile(range(1, 100), 90)  # 9 beyond


def test_p90_is_nearest_rank():
    value, beyond = stages.tail_percentile(list(range(128, 0, -1)), 90)
    assert (value, beyond) == (116, 12)


# -- round blocks --------------------------------------------------------------


class _Group:
    def __init__(self, qid, n):
        self.qid, self.n = qid, n


def test_dealt_blocks_partition_the_groups_with_a_like_mix_of_lengths():
    lengths = inputs.list_lengths(np.random.default_rng(5), 128)
    groups = [_Group(qid, int(n)) for qid, n in enumerate(lengths)]
    order = stages.dealt(groups, np.random.default_rng(0))
    blocks = [stages.block(order, r) for r in range(stages.ROUNDS)]
    assert sorted(g.qid for b in blocks for g in b) == list(range(128))
    assert all(len(b) == 16 for b in blocks)
    totals = [sum(g.n for g in b) for b in blocks]
    # every block takes one list from each lap of 8 by length
    assert max(totals) - min(totals) <= max(lengths) - min(lengths)
    assert max(totals) / min(totals) < 1.2


def test_block_splits_short_lists_into_rounds():
    items = list(range(8))
    assert [stages.block(items, r) for r in range(stages.ROUNDS)] == [[i] for i in items]


# -- hooks ---------------------------------------------------------------------


def _diffrank_bindings():
    snap = {}
    for name, mod in sys.modules.items():
        if mod is not None and (name == "diffrank" or name.startswith("diffrank.")):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("diffrank"):
                    for m, v in vars(value).items():
                        snap[(name, f"{attr}.{m}")] = v
    return snap


def test_hooks_patch_every_lookup_site_and_restore_everything():
    before = _diffrank_bindings()
    original = schedule.posterior
    hooks = tracer.Hooks(tracer.Recorder())
    for _ in range(2):  # the traced run enters the same hooks once per round
        with hooks:
            assert sampling.posterior is not original
            assert schedule.posterior is not original
            assert diffrank.posterior is not original
            assert network.DenoiseModel.encode is not before[("diffrank.network", "DenoiseModel.encode")]
            assert hooks.installed.count("autodiff.slice_cols") == 1
        after = _diffrank_bindings()
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)


def test_missing_hook_target_is_reported_absent_not_raised():
    hooks = [tracer.Hook("x.gone", "diffrank.sampling", "no_such_fn"),
             tracer.Hook("x.cls", "diffrank.network", "NoSuchClass.encode"),
             tracer.Hook("x.mod", "diffrank.no_such_module", "f")]
    with tracer.Hooks(tracer.Recorder(), hooks) as h:
        assert set(h.absent) == {"x.gone", "x.cls", "x.mod"}
        assert h.installed == []


def test_traced_rank_query_counts_one_encode_per_step():
    cfg = network.ModelConfig(k=3, d_model=8, heads=2, blocks=1)
    spec = schedule.ScheduleSpec(kind="trunclinear", timesteps=50)
    model = network.DenoiseModel(cfg, spec, dtype="float32", seed=0)
    table = schedule.build_schedule(spec)
    feats = np.random.default_rng(0).standard_normal((6, 3))
    rec = tracer.Recorder()
    with tracer.Hooks(rec):
        rec.active = True
        rec.set_phase("rank8")
        sampling.rank_query(model, feats, table, sampling.SamplerConfig(reverse_steps=8),
                            rng=np.random.default_rng(1))
        rec.active = False
    values = tracer.layer_metrics(rec, train_queries=0)
    assert values["network.encode.calls_per_rank8_query"] == 8
    assert values["schedule.strided_table.calls"] == 1
    assert values["schedule.posterior.calls"] == 7
    assert values["network.encode.rows"] == 8 * 6
    assert 0 < values["network.encode.share_of_rank8"] < 100


# -- the contract file ---------------------------------------------------------


def test_benchmark_json_lists_the_metrics_run_py_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
