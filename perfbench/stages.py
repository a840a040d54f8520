"""The stages of a diffrank session, timed through the public API.

A run prepares the generated corpus once (untimed), sets up, and then
makes ROUNDS rounds. Each round runs a slice of every stage:

* ingest: ``parse_letor`` -> ``compute_norm_stats`` -> ``normalize`` ->
  ``cache_write`` on one shard of the corpus (an eighth of the queries,
  in its own LETOR file), then ``cache_read`` of that shard's cache. It
  runs in two halves, before set-up and again between train and rank;
* train: ``training.train_step`` over fixed batches of 32 queries;
* rank: ``sampling.rank_query`` at 1, 8 and 32 reverse steps with one
  child RNG stream per query (as ``cli.cmd_evaluate``), then diversity:
  ``rank_query_repeated`` with 10 repeats at 8 steps, ``ranking_diversity``
  and one ``evaluate_rankings`` per repeat (as ``cli.cmd_diversity``).

Set-up (read the prepared cache, build the training state and the
ranking model) runs once before the first round and SETUPS_PER_ROUND
times in every round.

Interleaving spreads every metric's samples over the whole run, so a
slow stretch of the machine does not land on one metric alone. A
Plan says how much of a stage to run: ``scale`` times its minimum work,
then, for the workload's own stage, more until ``budget`` seconds of
measured time are spent. Only library calls are inside the measured
time. Checks and bookkeeping run outside it, with tracing paused.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from diffrank import autodiff, letor, metrics, network, sampling, schedule, training
from diffrank.losses import LossSpec

K = 136
BATCH = 32
ROUNDS = 8  # also the number of ingest shards
TRAIN_STEPS_PER_ROUND = 1
LOSS_STEPS = (4, 8)  # train_loss: mean loss of steps 5..8, which every run makes
INGEST_PASSES_PER_ROUND = 4  # in two halves, see Session.round
READS_PER_ROUND = 20
SETUPS_PER_ROUND = 5
REPEATS = 10
RSD_CUTOFFS = (1, 5, 10, 20)  # the CLI's default rsd_cutoffs
INGEST_PIPELINE_SHARE = 0.75  # of the ingest budget; the rest goes to cache_read
RANK_SHARES = {1: 0.10, 8: 0.35, 32: 0.30, "diversity": 0.25}
RANK_PASSES = {1: 2, 8: 1, 32: 1}  # minimum passes over each phase's queries
# Scores live in [0, 4]. 1e-4 is a few hundred float32 ulps there: loose
# enough for a reordered BLAS sum, far below any change of ranking logic.
SCORE_TOL = 1e-4
STAGES = ("ingest", "train", "rank")


def train_config(seed: int) -> training.TrainConfig:
    return training.TrainConfig(
        model=network.ModelConfig(k=K, d_model=64, heads=4, blocks=3, denoise_layers=2),
        schedule=schedule.ScheduleSpec(kind="trunclinear", timesteps=1000),
        loss=LossSpec(name="listnet"),
        batch_size=BATCH,
        seed=seed,
        dtype="float32",
    )


@dataclass(frozen=True)
class Plan:
    budget: float = 0.0  # seconds of measured time to fill after the minimum
    scale: int = 1  # multiple of the stage's minimum work


@dataclass
class Tally:
    """Operations attempted and failed. A failure is an exception, a
    non-finite output or a failed check."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def run(self, label: str, fn, *args, **kwargs):
        """Call fn once; returns (ok, result, seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # counted and reported, the run goes on
            self._fail(label, f"{type(exc).__name__}: {exc}")
            return False, None, time.perf_counter() - t0
        return True, out, time.perf_counter() - t0

    def check(self, label: str, problems: list[str]) -> bool:
        """A stand-alone check counts as one operation of its own."""
        self.attempted += 1
        return self.verify(label, problems)

    def verify(self, label: str, problems: list[str]) -> bool:
        """Count the checked operation as failed if any check failed."""
        if problems:
            self._fail(label, "; ".join(problems[:3]))
        return not problems

    def _fail(self, label: str, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {message}")


@dataclass
class Context:
    seed: int
    corpus: object  # inputs.Corpus
    workdir: str
    tally: Tally
    rec: object = None  # tracer.Recorder when tracing
    measured: float = 0.0  # total seconds inside timed library calls
    results: dict = field(default_factory=dict)

    def phase(self, name: str) -> None:
        if self.rec is not None:
            self.rec.set_phase(name)

    def quiet(self):
        """Checks run with tracing paused so they add no spans."""
        return self.rec.paused() if self.rec is not None else contextlib.nullcontext()

    def query(self, qid: int) -> None:
        if self.rec is not None:
            self.rec.current_qid = qid

    def timed(self, label: str, fn, *args, **kwargs):
        ok, out, dt = self.tally.run(label, fn, *args, **kwargs)
        self.measured += dt
        return ok, out, dt


@dataclass
class Meter:
    """Work and measured seconds of one metric's successful operations."""

    work: float = 0.0
    seconds: float = 0.0
    samples: list[float] = field(default_factory=list)

    def add(self, work: float, seconds: float) -> None:
        self.work += work
        self.seconds += seconds
        self.samples.append(seconds)

    def rate(self):
        return self.work / self.seconds if self.seconds > 0 else None


def dealt(groups, rng: np.random.Generator) -> list:
    """The groups as ROUNDS consecutive blocks with a like mix of list
    lengths: sorted by length, dealt to the blocks back and forth, each
    block then shuffled."""
    by_len = sorted(groups, key=lambda g: (g.n, g.qid))
    blocks = [[] for _ in range(ROUNDS)]
    for i, g in enumerate(by_len):
        lap, j = divmod(i, ROUNDS)
        blocks[j if lap % 2 == 0 else ROUNDS - 1 - j].append(g)
    return [b[i] for b in blocks for i in rng.permutation(len(b))]


def block(items: list, r: int) -> list:
    """Round r's share: block r of ROUNDS consecutive blocks of items."""
    return items[r * len(items) // ROUNDS : (r + 1) * len(items) // ROUNDS]


def tail_percentile(samples, pct: int, min_beyond: int = 10) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples ranked above it.

    Raises ValueError unless at least min_beyond samples lie beyond the
    reported value, so a tail is never read off a handful of samples.
    """
    xs = sorted(samples)
    rank = -(-pct * len(xs) // 100)  # ceil without float rounding
    beyond = len(xs) - rank
    if rank < 1 or beyond < min_beyond:
        raise ValueError(
            f"p{pct} of {len(xs)} samples leaves {beyond} beyond it, need {min_beyond}"
        )
    return xs[rank - 1], beyond


def dataset_digest(ds) -> str:
    h = hashlib.sha256()
    for g in ds.groups:
        h.update(np.int64(g.qid).tobytes())
        h.update(np.ascontiguousarray(g.labels()).tobytes())
        h.update(np.ascontiguousarray(g.doc_indices()).tobytes())
        h.update(np.ascontiguousarray(g.feature_matrix()).tobytes())
    if ds.norm_stats is not None:
        h.update(np.ascontiguousarray(ds.norm_stats.mean).tobytes())
        h.update(np.ascontiguousarray(ds.norm_stats.std).tobytes())
    return h.hexdigest()


def parse_problems(ds, corpus, q0: int = 0, q1: int | None = None) -> list[str]:
    """Differences between a parsed file and generated queries q0..q1-1."""
    q1 = corpus.qids.size if q1 is None else q1
    if len(ds.groups) != q1 - q0:
        return [f"parsed {len(ds.groups)} queries, generated {q1 - q0}"]
    problems = []
    start = corpus.doc_range(0, q0).stop
    first = start
    for g, qid, n in zip(ds.groups, corpus.qids[q0:q1], corpus.lengths[q0:q1]):
        rows = slice(start, start + n)
        if g.qid != qid:
            problems.append(f"qid {g.qid} != {qid}")
        elif not np.array_equal(g.labels(), corpus.labels[rows]):
            problems.append(f"labels differ for qid {qid}")
        elif not np.array_equal(g.doc_indices(), np.arange(start - first, start - first + n)):
            problems.append(f"doc_index differs for qid {qid}")
        elif not np.array_equal(g.feature_matrix(), corpus.features[rows]):
            problems.append(f"features differ for qid {qid}")
        start += n
    return problems


def _pipeline(text_path: str, cache_path: str):
    ds = letor.parse_letor(text_path)
    stats = letor.compute_norm_stats(ds)
    normed = letor.normalize(ds, stats)
    letor.cache_write(normed, cache_path)
    return ds, normed


def _setup_once(cache_path: str, config: training.TrainConfig, model_seed):
    ds = letor.cache_read(cache_path)
    state = training.init_state(config)
    model = network.DenoiseModel(config.model, config.schedule, dtype=config.dtype, seed=model_seed)
    table = schedule.build_schedule(config.schedule)
    return ds, state, model, table


def _params_finite(model) -> bool:
    return all(np.isfinite(p.data).all() for p in model.parameters())


def _order_problems(out, n: int) -> list[str]:
    scores = np.asarray(out.scores)
    if scores.shape != (n,) or not np.isfinite(scores).all():
        return ["scores are not n finite values"]
    if not np.array_equal(np.sort(out.order), np.arange(n)):
        return ["order is not a permutation"]
    if not np.array_equal(out.order, metrics.ranking_order(scores)):
        return ["order differs from metrics.ranking_order(scores)"]
    return []


def _max_gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))))


def reference_scores(model, features, table, steps: int, rng) -> np.ndarray:
    """Step-by-step reverse process from the public pieces, drawing from
    rng in the same order as sampling.rank_query."""
    visited = sampling.stride_schedule(table.timesteps, steps)
    effective = schedule.strided_table(table, list(reversed(visited)))
    n = features.shape[0]
    y = rng.standard_normal(n)
    with autodiff.no_grad():
        for j in range(steps, 0, -1):
            t = visited[steps - j]
            y_hat = np.asarray(model.predict_y0(features, y, t=t).data, dtype=np.float64).reshape(n)
            if j > 1:
                mean, var = schedule.posterior(y, y_hat, j, effective)
                y = mean + np.sqrt(var) * rng.standard_normal(n)
    return y_hat


class Session:
    def __init__(self, ctx: Context, plans: dict[str, Plan]):
        self.ctx, self.plans = ctx, plans
        self.tally = ctx.tally
        self.config = train_config(ctx.seed)
        self.model_seed = np.random.SeedSequence([ctx.seed, 1])
        self.meters: dict[str, Meter] = {}
        q = ctx.corpus.qids.size
        self.shards = [(i * q // ROUNDS, (i + 1) * q // ROUNDS) for i in range(ROUNDS)]
        self.cache_path = os.path.join(ctx.workdir, "corpus.cache")
        self.shard_text = [os.path.join(ctx.workdir, f"shard{i}.txt") for i in range(ROUNDS)]
        self.shard_cache = [os.path.join(ctx.workdir, f"shard{i}.cache") for i in range(ROUNDS)]
        self.shard_digest: dict[int, str] = {}
        self.cursor: dict[str, int] = {}  # where the extra work of the workload's stage resumes

    def _rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.ctx.seed, stream]))

    def meter(self, name: str) -> Meter:
        return self.meters.setdefault(name, Meter())

    def _next(self, key: str, n: int) -> int:
        i = self.cursor.get(key, 0)
        self.cursor[key] = i + 1
        return i % n

    def _extra(self, stage: str, share: float, spent: float) -> bool:
        """Whether the workload's own stage still has budget in this round."""
        return spent < self.plans[stage].budget * share / ROUNDS

    # -- preparation and set-up ---------------------------------------------

    def prepare(self) -> None:
        """Untimed: write the corpus as one file and as shards, and cache it."""
        corpus = self.ctx.corpus
        with self.ctx.quiet():
            full = os.path.join(self.ctx.workdir, "corpus.txt")
            with open(full, "w", encoding="utf-8") as fh:
                fh.write(corpus.text())
            for (q0, q1), path in zip(self.shards, self.shard_text):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(corpus.text(q0, q1))
            ds, normed = _pipeline(full, self.cache_path)
            self.tally.check("prepare", parse_problems(ds, corpus))
            self.corpus_digest = dataset_digest(normed)

    def setup(self, keep: bool = False) -> bool:
        """One timed set-up; the first one's result serves the later stages."""
        self.ctx.phase("setup")
        ok, out, dt = self.ctx.timed("setup", _setup_once, self.cache_path, self.config, self.model_seed)
        if not ok:
            return False
        with self.ctx.quiet():
            ds, state, model, _ = out
            problems = []
            if dataset_digest(ds) != self.corpus_digest:
                problems.append("cache_read returned other data than was prepared")
            if not (_params_finite(state.model) and _params_finite(model)):
                problems.append("initial parameters are not finite")
        if self.tally.verify("setup", problems):
            self.meter("setup").add(1, dt)
            if keep:
                self.ds, self.state, self.model, self.table = out
        return not problems

    def start(self) -> None:
        """First set-up, the fixed training batches and untimed warm-up."""
        if not self.setup(keep=True):
            raise RuntimeError("set-up failed; nothing to train or rank")
        self.extra_state = training.init_state(self.config)  # for extra train steps
        groups = list(self.ds.groups)
        order = self._rng(2).permutation(len(groups))
        self.batches = [[groups[i] for i in order[j : j + BATCH]] for j in range(0, len(groups), BATCH)]
        self.losses: list[float] = []
        # one child stream per query, as cli._per_query_rngs builds them
        children = np.random.SeedSequence(self.ctx.seed).spawn(len(groups))
        self.child = {g.qid: c for g, c in zip(groups, children)}
        # Each round ranks one block of a list; dealing gives every block a
        # like mix of list lengths.
        rng = self._rng(3)
        self.pool = dealt(groups, rng)
        by_len = sorted(groups, key=lambda g: (g.n, g.qid))
        subset = by_len[4::8]  # 16 queries spread over the length range
        self.ends32 = (subset[0], subset[-1])  # its shortest and longest
        self.subset32 = dealt(subset, rng)
        self.subset_div = by_len[8::16]  # 8 queries, one per round
        self.first: dict[tuple, object] = {}
        with self.ctx.quiet():
            training.train_step(self.batches[0], training.init_state(self.config), self.config)
            g = self.pool[0]
            sampling.rank_query(self.model, g.feature_matrix(), self.table,
                                sampling.SamplerConfig(reverse_steps=8, seed=self.ctx.seed),
                                rng=np.random.default_rng(self.child[g.qid]))

    # -- ingest --------------------------------------------------------------

    def _ingest_pass(self, shard: int) -> float:
        ctx = self.ctx
        ok, out, dt = ctx.timed("ingest", _pipeline, self.shard_text[shard], self.shard_cache[shard])
        if ok:
            with ctx.quiet():
                ds, normed = out
                problems = parse_problems(ds, ctx.corpus, *self.shards[shard])
                if not all(np.isfinite(g.feature_matrix()).all() for g in normed.groups):
                    problems.append("normalized features are not finite")
                self.shard_digest[shard] = dataset_digest(normed)
            if self.tally.verify("ingest", problems):
                self.meter("ingest").add(sum(g.n for g in ds.groups), dt)
        return dt

    def _read_pass(self, shard: int) -> float:
        ctx = self.ctx
        ok, ds, dt = ctx.timed("cache_read", letor.cache_read, self.shard_cache[shard])
        if ok:
            with ctx.quiet():
                same = dataset_digest(ds) == self.shard_digest[shard]
            if self.tally.verify("cache_read", [] if same else ["cache_read(cache_write(ds)) differs"]):
                self.meter("load").add(sum(g.n for g in ds.groups), dt)
        return dt

    def ingest_half(self, r: int) -> None:
        """Half a round's ingest: it runs twice per round, apart."""
        plan = self.plans["ingest"]
        self.ctx.phase("ingest.pipeline")
        spent = sum(self._ingest_pass(r) for _ in range(INGEST_PASSES_PER_ROUND // 2 * plan.scale))
        while self._extra("ingest", INGEST_PIPELINE_SHARE / 2, spent):
            spent += self._ingest_pass(self._next("ingest", ROUNDS))
        written = sorted(self.shard_digest)  # shards that have a cache to read
        if not written:
            return
        self.ctx.phase("ingest.read")
        mine = r if r in written else written[0]
        spent = sum(self._read_pass(mine) for _ in range(READS_PER_ROUND // 2 * plan.scale))
        while self._extra("ingest", (1.0 - INGEST_PIPELINE_SHARE) / 2, spent):
            spent += self._read_pass(written[self._next("read", len(written))])

    # -- train ---------------------------------------------------------------

    def _train_step(self, state, step: int) -> float:
        ctx = self.ctx
        batch = self.batches[step % len(self.batches)]
        ok, loss, dt = ctx.timed("train_step", training.train_step, batch, state, self.config)
        if state is self.state:
            self.losses.append(loss if ok else math.nan)
        if ok:
            with ctx.quiet():
                problems = []
                if not math.isfinite(loss):
                    problems.append(f"loss {loss}")
                if not _params_finite(state.model):
                    problems.append("non-finite parameters")
            if self.tally.verify("train_step", problems):
                self.meter("train").add(len(batch), dt)
        return dt

    def train_round(self, r: int) -> None:
        self.ctx.phase("train")
        spent = 0.0
        for _ in range(TRAIN_STEPS_PER_ROUND * self.plans["train"].scale):
            spent += self._train_step(self.state, len(self.losses))
        # Extra steps train a second state, so the loss of the fixed steps
        # above does not depend on how many extra steps the budget allowed.
        while self._extra("train", 1.0, spent):
            spent += self._train_step(self.extra_state, self._next("train", len(self.batches)))

    # -- rank ----------------------------------------------------------------

    def _rank(self, steps: int, g) -> float:
        ctx = self.ctx
        sampler = sampling.SamplerConfig(reverse_steps=steps, seed=ctx.seed)
        rng = np.random.default_rng(self.child[g.qid])
        ctx.query(g.qid)
        ok, out, dt = ctx.timed(
            f"rank{steps}",
            lambda: sampling.rank_query(self.model, g.feature_matrix(), self.table, sampler, rng=rng),
        )
        ctx.query(-1)
        if ok:
            with ctx.quiet():
                problems = _order_problems(out, g.n)
                key = (steps, g.qid)
                if key not in self.first:
                    self.first[key] = out
                elif not np.array_equal(out.scores, self.first[key].scores):
                    problems.append("same query and stream gave different scores")
            if self.tally.verify(f"rank{steps}", problems):
                self.meter(f"rank{steps}").add(1, dt)
        return dt

    def _diversity_pass(self, queries):
        sampler = sampling.SamplerConfig(reverse_steps=8, seed=self.ctx.seed)
        per_query = []
        for g in queries:
            self.ctx.query(g.qid)
            per_query.append(
                sampling.rank_query_repeated(self.model, g.feature_matrix(), self.table, sampler, repeats=REPEATS)
            )
        self.ctx.query(-1)
        orders = [[o.order for o in outs] for outs in per_query]
        rsd = {k: float(statistics.mean(metrics.ranking_diversity(o, k) for o in orders)) for k in RSD_CUTOFFS}
        labels_list = [g.labels() for g in queries]
        ndcg = [
            metrics.evaluate_rankings(labels_list, [o[m] for o in orders], cutoffs=RSD_CUTOFFS).values["ndcg"]
            for m in range(REPEATS)
        ]
        return per_query, rsd, ndcg

    def _diversity(self, queries) -> float:
        ctx = self.ctx
        ok, out, dt = ctx.timed("diversity", self._diversity_pass, queries)
        if ok:
            with ctx.quiet():
                per_query, rsd, ndcg = out
                problems = []
                for g, outs in zip(queries, per_query):
                    if len(outs) != REPEATS:
                        problems.append(f"{len(outs)} repeats instead of {REPEATS}")
                    for o in outs:
                        problems += _order_problems(o, g.n)
                    if g.qid == self.subset_div[0].qid and "chains" not in self.first:
                        self.first["chains"] = True
                        problems += self._chain_problems(g, outs)
                if not all(1.0 / REPEATS <= v <= 1.0 for v in rsd.values()):
                    problems.append(f"diversity outside [1/{REPEATS}, 1]: {rsd}")
                if not all(0.0 <= v <= 1.0 for per_run in ndcg for v in per_run.values()):
                    problems.append("ndcg outside [0, 1]")
            if self.tally.verify("diversity", problems):
                self.meter("diversity").add(len(queries), dt)
        return dt

    def _chain_problems(self, g, outs) -> list[str]:
        """Repeats equal per-chain rank_query calls on SeedSequence(seed).spawn(10)."""
        sampler = sampling.SamplerConfig(reverse_steps=8, seed=self.ctx.seed)
        children = np.random.SeedSequence(sampler.seed).spawn(REPEATS)
        for m, (child, out) in enumerate(zip(children, outs)):
            ref = sampling.rank_query(self.model, g.feature_matrix(), self.table, sampler,
                                      rng=np.random.default_rng(child))
            gap = _max_gap(ref.scores, out.scores)
            if not gap <= SCORE_TOL:
                return [f"repeat {m} of qid {g.qid} is {gap:.3g} from its own chain"]
        return []

    def rank_round(self, r: int) -> None:
        """Each phase ranks the round's block of its queries, then repeats
        the whole block while the budget lasts, so the mix of list lengths
        does not depend on how much the budget allowed."""
        scale = self.plans["rank"].scale
        for steps, queries in ((1, self.pool), (8, self.pool), (32, self.subset32)):
            self.ctx.phase(f"rank{steps}")
            mine = block(queries, r)
            spent = sum(self._rank(steps, g) for g in mine * (RANK_PASSES[steps] * scale))
            while self._extra("rank", RANK_SHARES[steps], spent):
                spent += sum(self._rank(steps, g) for g in mine)
        self.ctx.phase("diversity")
        mine = block(self.subset_div, r)
        spent = sum(self._diversity(mine) for _ in range(scale))
        while self._extra("rank", RANK_SHARES["diversity"], spent):
            spent += self._diversity(mine)

    def reference_checks(self) -> None:
        """Sampled outputs against the step-by-step reference."""
        with self.ctx.quiet():
            for steps in (1, 8, 32):
                for g in self.ends32:
                    out = self.first.get((steps, g.qid))
                    if out is None:
                        continue
                    try:
                        ref = reference_scores(self.model, g.feature_matrix(), self.table, steps,
                                               np.random.default_rng(self.child[g.qid]))
                        gap = _max_gap(ref, out.scores)
                        problems = [] if gap <= SCORE_TOL else [
                            f"qid {g.qid} at {steps} steps is {gap:.3g} from the reference"]
                    except Exception as exc:  # a missing public piece fails the check
                        problems = [f"reference failed: {type(exc).__name__}: {exc}"]
                    self.tally.check(f"reference{steps}", problems)

    # -- results -------------------------------------------------------------

    def results(self) -> dict:
        m = self.meter
        ms8 = [1e3 * t for t in m("rank8").samples]
        try:
            p90, beyond = tail_percentile(ms8, 90)
        except ValueError:  # too few successful calls; reported as not measured
            p90, beyond = None, 0
        a, b = LOSS_STEPS
        final = self.losses[a:b]
        return {
            "setup_s": statistics.median(m("setup").samples) if m("setup").samples else None,
            "ingest_docs_per_s": m("ingest").rate(),
            "load_docs_per_s": m("load").rate(),
            "train_queries_per_s": m("train").rate(),
            "train_loss": float(np.mean(final)) if len(final) == b - a and all(map(math.isfinite, final)) else None,
            "rank1_queries_per_s": m("rank1").rate(),
            "rank8_queries_per_s": m("rank8").rate(),
            "rank32_queries_per_s": m("rank32").rate(),
            "rank8_ms_p50": statistics.median(ms8) if ms8 else None,
            "rank8_ms_p90": p90,
            "diversity_queries_per_s": m("diversity").rate(),
            "rank8_samples": len(ms8),
            "rank8_beyond_p90": beyond,
            "work": {name: {"ops": len(mt.samples), "work": mt.work, "seconds": round(mt.seconds, 3)}
                     for name, mt in sorted(self.meters.items())},
            "train_queries": int(m("train").work),
            "cache_bytes": os.path.getsize(self.cache_path),
        }


    # -- the whole session --------------------------------------------------

    def begin(self) -> None:
        self.prepare()
        self.start()

    def round(self, r: int) -> None:
        self.ingest_half(r)
        for _ in range(SETUPS_PER_ROUND):
            self.setup()  # measured again, result discarded
        self.train_round(r)
        self.ingest_half(r)  # a second time, so ingest samples more of the round
        self.rank_round(r)

    def finish(self) -> None:
        self.reference_checks()
        self.ctx.phase("none")
        self.ctx.results.update(self.results())


def run_session(ctx: Context, plans: dict[str, Plan]) -> None:
    """prepare, set up, then ROUNDS rounds of ingest, set-up, train and rank."""
    s = Session(ctx, plans)
    s.begin()
    for r in range(ROUNDS):
        s.round(r)
    s.finish()
