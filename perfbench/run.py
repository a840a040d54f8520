#!/usr/bin/env python3
"""diffrank benchmark: one closed-loop client driving the public library API.

    python3 perfbench/run.py --workload rank --seed 1 --seconds 15 --trace 0

Run it from the root of a diffrank checkout; it imports the library from
``src/`` next to this directory and nowhere else. Every run executes the
whole session (ingest -> setup -> train -> rank, see stages.py); the
workload names the stage that gets the --seconds budget, while the other
two run their fixed minimum work, so every end-to-end metric is measured
in every workload. With --trace 1 two sessions with fixed work run side
by side, one traced and one untraced, their rounds alternating; the
per-layer metrics come from the traced one, and the tracing overhead
from the paired rounds. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("ingest", "train", "rank")
TRACE_SCALE = 2  # traced runs do twice the minimum work of the workload's stage

# name -> (unit, better); BENCHMARK.json lists the same metrics
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ingest_docs_per_s": ("docs/s", "higher"),
    "load_docs_per_s": ("docs/s", "higher"),
    "train_queries_per_s": ("queries/s", "higher"),
    "train_loss": ("nats", "lower"),
    "rank1_queries_per_s": ("queries/s", "higher"),
    "rank8_queries_per_s": ("queries/s", "higher"),
    "rank32_queries_per_s": ("queries/s", "higher"),
    "rank8_ms_p50": ("ms", "lower"),
    "rank8_ms_p90": ("ms", "lower"),
    "diversity_queries_per_s": ("queries/s", "higher"),
}

_AUTODIFF_OPS = ("linear", "matmul", "softmax", "layer_norm", "softplus", "dropout",
                 "concat", "slice_cols", "add", "mul")
PER_LAYER = {
    **{f"letor.{n}.self_ms": ("ms", "lower") for n in
       ("parse_letor", "compute_norm_stats", "normalize", "cache_write", "cache_read", "feature_matrix")},
    "letor.cache_bytes": ("B", "lower"),
    "network.encode.calls": ("count", "lower"),
    "network.encode.self_ms": ("ms", "lower"),
    "network.encode.rows": ("count", "lower"),
    "network.denoise.calls": ("count", "lower"),
    "network.denoise.self_ms": ("ms", "lower"),
    "network.denoise.rows": ("count", "lower"),
    "network.encode.calls_per_rank8_query": ("calls/query", "lower"),
    "network.encode.share_of_rank8": ("%", "lower"),
    **{f"autodiff.{op}.{m}": (u, "lower") for op in _AUTODIFF_OPS
       for m, u in (("calls", "count"), ("self_ms", "ms"))},
    "autodiff.backward.calls": ("count", "lower"),
    "autodiff.backward.self_ms": ("ms", "lower"),
    "autodiff.ops_per_train_query": ("ops/query", "lower"),
    "training.train_step.self_ms": ("ms", "lower"),
    "training.AdamW.step.calls": ("count", "lower"),
    "training.AdamW.step.self_ms": ("ms", "lower"),
    "losses.ranking_loss.calls": ("count", "lower"),
    "losses.ranking_loss.self_ms": ("ms", "lower"),
    "schedule.posterior.calls": ("count", "lower"),
    "schedule.posterior.self_ms": ("ms", "lower"),
    "schedule.strided_table.calls": ("count", "lower"),
    "schedule.strided_table.self_ms": ("ms", "lower"),
    "schedule.q_sample.self_ms": ("ms", "lower"),
    "sampling.rank_query.calls": ("count", "lower"),
    "sampling.rank_query.self_ms": ("ms", "lower"),
    "sampling.rank_query_repeated.calls": ("count", "lower"),
    "sampling.rank_query_repeated.self_ms": ("ms", "lower"),
    "metrics.evaluate_rankings.self_ms": ("ms", "lower"),
    "metrics.ranking_diversity.self_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.spans": ("count", "lower"),
}


def _one_core() -> tuple[int, int]:
    """Run the single client on one core with single-threaded BLAS.

    The matrices here are small (lists of at most 200 documents, width 64
    to 256), so a second BLAS thread buys nothing, and moving between
    cores makes run times noisy. Must run before numpy is imported.
    Returns (nproc, the core chosen).
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(cpus), min(cpus)


def _import_library():
    src = ROOT / "src"
    if not (src / "diffrank" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no diffrank package under {src}; run from a diffrank checkout")
    sys.path.insert(0, str(src))
    import diffrank

    if Path(diffrank.__file__).resolve().parent != (src / "diffrank").resolve():
        raise SystemExit(f"perfbench: imported diffrank from {diffrank.__file__}, not from {src}")


def traced_sessions(stages, tracer, context, plans):
    """Run a traced and an untraced session with the same fixed work.

    The hooks are installed for the traced session's calls only, and the
    two sessions take turns round by round, the first of each pair
    alternating, so both see the same machine. Returns the recorder, the
    hooks, the traced context and the tracing overhead in percent: the
    median over rounds of traced / untraced measured time, minus one.
    """
    rec = tracer.Recorder()
    hooks = tracer.Hooks(rec)

    @contextlib.contextmanager
    def tracing():
        with hooks:
            rec.active = True
            try:
                yield
            finally:
                rec.active = False

    traced = stages.Session(context(rec, "traced"), plans)
    plain = stages.Session(context(None, "plain"), plans)
    with tracing():
        traced.begin()
    plain.begin()
    ratios = []
    for r in range(stages.ROUNDS):
        spent = {}
        for s in (traced, plain) if r % 2 == 0 else (plain, traced):
            before = s.ctx.measured
            with tracing() if s is traced else contextlib.nullcontext():
                s.round(r)
            spent[s] = s.ctx.measured - before
        ratios.append(spent[traced] / spent[plain])
    with tracing():
        traced.finish()
    plain.finish()
    return rec, hooks, traced.ctx, 100.0 * (statistics.median(ratios) - 1.0)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measured time for the workload's own stage")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc, core = _one_core()
    _import_library()

    import shutil

    import inputs
    import machine
    import stages
    import tracer

    info = machine.describe(ROOT)
    info.update(nproc=nproc, pinned_core=core, workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace)
    corpus = inputs.make_corpus(args.seed)
    workdir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = stages.Tally()

    def context(rec=None, sub=""):
        (workdir / sub).mkdir(exist_ok=True)
        return stages.Context(seed=args.seed, corpus=corpus, workdir=str(workdir / sub), tally=tally, rec=rec)

    try:
        if args.trace:
            plans = {s: stages.Plan(scale=TRACE_SCALE if s == args.workload else 1) for s in stages.STAGES}
            rec, hooks, traced, overhead = traced_sessions(stages, tracer, context, plans)
            values = tracer.layer_metrics(rec, traced.results["train_queries"])
            values["letor.cache_bytes"] = traced.results["cache_bytes"]
            values["trace.overhead_pct"] = overhead
            values["trace.spans"] = len(rec)
            absent = dict(hooks.absent)
            for name in PER_LAYER:
                if name not in values:
                    values[name] = 0
                    absent.setdefault(name, "no span recorded for it in this workload")
            spec, results = PER_LAYER, traced.results
            stem = WORK / f"trace-{args.workload}-seed{args.seed}"
            rec.save(str(stem.with_name(stem.name + ".npz")))
            summary = {"machine": info, "per_layer": values, "absent": absent}
            stem.with_name(stem.name + ".json").write_text(json.dumps(summary, indent=1, default=str) + "\n")
            for name, reason in sorted(absent.items()):
                print(f"absent: {name}: {reason}")
            print(f"trace: {len(rec)} spans, overhead {overhead:.1f}% "
                  f"(median of {stages.ROUNDS} paired rounds), written to {stem}.npz")
        else:
            plans = {s: stages.Plan(budget=args.seconds if s == args.workload else 0.0)
                     for s in stages.STAGES}
            ctx = context()
            stages.run_session(ctx, plans)
            results = ctx.results
            results["peak_rss_mb"] = machine.peak_rss_mb()
            values, spec = {n: results.get(n) for n in END_TO_END}, END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("machine: " + json.dumps(info, default=str))
    print("inputs: " + json.dumps(inputs.length_quantiles(corpus.lengths)))
    extra = {k: v for k, v in results.items() if k not in END_TO_END and k not in spec}
    print("work: " + json.dumps(extra, default=str))
    for err in tally.errors:
        print(f"failed: {err}")
    missing = [n for n, v in values.items() if v is None]
    if missing:
        print(f"perfbench: could not measure {', '.join(missing)}", file=sys.stderr)
        return 1
    for name, (unit, _) in spec.items():
        print(f"{name:40s} {values[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": values[n], "unit": spec[n][0]} for n in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
