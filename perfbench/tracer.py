"""Outside-in span tracing of the diffrank library.

The benchmark wraps the public functions of each layer from its own
files; the library itself is not edited. A wrapper records one span per
call: name, start, end, parent span, query id and benchmark phase. Spans
live in compact in-memory arrays and are written out once, when the run
ends.

Each hook is patched wherever its target is looked up, not only where it
is defined: ``from .schedule import posterior`` in ``sampling`` binds a
second name for the same function, and both names are replaced. Methods
are patched on their class. A hook whose target no longer exists is
reported as absent and skipped; every original is restored on exit.

The recorder is single-threaded, like the benchmark that drives it.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Hook:
    metric: str  # per-layer metric prefix, e.g. "network.encode"
    module: str  # defining module, e.g. "diffrank.network"
    attr: str  # "encode_fn" or "Class.method"
    rows: object = None  # optional fn(args, kwargs) -> rows processed


def _rows_of_first(args, kwargs):
    """Rows of the first array argument after self: features or context.
    0 when a changed signature hides them; counting never fails a call."""
    first = args[1] if len(args) > 1 else next(iter(kwargs.values()), None)
    try:
        shape = np.shape(first)
    except (TypeError, ValueError):
        return 0
    return int(shape[0]) if shape else 0


# autodiff primitives are discovered at install time (see autodiff_hooks)
LAYER_HOOKS = (
    Hook("letor.parse_letor", "diffrank.letor", "parse_letor"),
    Hook("letor.compute_norm_stats", "diffrank.letor", "compute_norm_stats"),
    Hook("letor.normalize", "diffrank.letor", "normalize"),
    Hook("letor.cache_write", "diffrank.letor", "cache_write"),
    Hook("letor.cache_read", "diffrank.letor", "cache_read"),
    Hook("letor.feature_matrix", "diffrank.letor", "QueryGroup.feature_matrix"),
    Hook("network.encode", "diffrank.network", "DenoiseModel.encode", _rows_of_first),
    Hook("network.denoise", "diffrank.network", "DenoiseModel.denoise", _rows_of_first),
    Hook("autodiff.backward", "diffrank.autodiff", "backward"),
    Hook("training.train_step", "diffrank.training", "train_step"),
    Hook("training.AdamW.step", "diffrank.training", "AdamW.step"),
    Hook("losses.ranking_loss", "diffrank.losses", "ranking_loss"),
    Hook("schedule.posterior", "diffrank.schedule", "posterior"),
    Hook("schedule.strided_table", "diffrank.schedule", "strided_table"),
    Hook("schedule.q_sample", "diffrank.schedule", "q_sample"),
    Hook("sampling.rank_query", "diffrank.sampling", "rank_query"),
    Hook("sampling.rank_query_repeated", "diffrank.sampling", "rank_query_repeated"),
    Hook("metrics.evaluate_rankings", "diffrank.metrics", "evaluate_rankings"),
    Hook("metrics.ranking_diversity", "diffrank.metrics", "ranking_diversity"),
)

# Functions of diffrank.autodiff that are not graph operations.
_NOT_OPS = {"backward", "no_grad", "zero_grads"}
# A composite of matmul, broadcast_rows and add: hooked, but not counted as
# a graph node in ops_per_train_query.
COMPOSITE_OPS = {"linear"}


def autodiff_hooks() -> tuple[Hook, ...]:
    """One hook per public function defined in diffrank.autodiff."""
    mod = sys.modules.get("diffrank.autodiff")
    if mod is None:
        return ()
    names = sorted(
        name
        for name, obj in vars(mod).items()
        if inspect.isfunction(obj)
        and obj.__module__ == mod.__name__
        and not name.startswith("_")
        and name not in _NOT_OPS
    )
    return tuple(Hook(f"autodiff.{n}", mod.__name__, n) for n in names)


class Recorder:
    """In-memory span store. Times are perf_counter_ns integers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.phases: list[str] = []
        self._phase_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.qid = array("q")
        self.phase = array("q")
        self.rows: dict[str, int] = {}
        self.active = False
        self.current_qid = -1
        self._phase = self.phase_id("none")
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def phase_id(self, phase: str) -> int:
        if phase not in self._phase_ids:
            self._phase_ids[phase] = len(self.phases)
            self.phases.append(phase)
        return self._phase_ids[phase]

    def set_phase(self, phase: str) -> None:
        self._phase = self.phase_id(phase)

    @contextlib.contextmanager
    def paused(self):
        prev, self.active = self.active, False
        try:
            yield
        finally:
            self.active = prev

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.qid.append(self.current_qid)
        self.phase.append(self._phase)
        self.end.append(-1)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            field: np.frombuffer(getattr(self, field), dtype=np.int64).copy()
            if len(self)
            else np.zeros(0, dtype=np.int64)
            for field in ("name", "start", "end", "parent", "qid", "phase")
        }

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            phases=np.array(self.phases),
            rows_names=np.array(list(self.rows)),
            rows_values=np.array(list(self.rows.values()), dtype=np.int64),
            **self.arrays(),
        )


def _wrap(rec: Recorder, hook: Hook, fn):
    name_id = rec.name_id(hook.metric)
    count_rows = hook.rows

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        if count_rows is not None:
            rec.rows[hook.metric] = rec.rows.get(hook.metric, 0) + count_rows(args, kwargs)
        idx = rec.open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)

    return traced


def _resolve(hook: Hook):
    """(owner, attribute name, original) of a hook target, or a reason."""
    mod = sys.modules.get(hook.module)
    if mod is None:
        return f"module {hook.module} is not imported"
    owner, _, attr = hook.attr.rpartition(".")
    holder = mod
    if owner:
        holder = vars(mod).get(owner)
        if not inspect.isclass(holder):
            return f"class {hook.module}.{owner} not found"
        if attr not in vars(holder):
            return f"method {hook.module}.{hook.attr} not found"
        return holder, attr, vars(holder)[attr]
    if attr not in vars(mod):
        return f"function {hook.module}.{attr} not found"
    return holder, attr, vars(mod)[attr]


def _lookup_sites(original, default_holder, default_attr):
    """Every diffrank module attribute bound to the original function."""
    sites = {(id(default_holder), default_attr): (default_holder, default_attr)}
    if inspect.isclass(default_holder):
        return list(sites.values())
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "diffrank" or name.startswith("diffrank.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                sites[(id(mod), attr)] = (mod, attr)
    return list(sites.values())


class Hooks:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, rec: Recorder, hooks=None):
        self.rec = rec
        self.hooks = tuple(hooks) if hooks is not None else LAYER_HOOKS + autodiff_hooks()
        self.absent: dict[str, str] = {}
        self.installed: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        self.installed = []
        try:
            for hook in self.hooks:
                found = _resolve(hook)
                if isinstance(found, str):
                    self.absent[hook.metric] = found
                    continue
                holder, attr, original = found
                wrapper = _wrap(self.rec, hook, original)
                for site, site_attr in _lookup_sites(original, holder, attr):
                    self._saved.append((site, site_attr, original))
                    setattr(site, site_attr, wrapper)
                self.installed.append(hook.metric)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            site, attr, original = self._saved.pop()
            setattr(site, attr, original)


# ---------------------------------------------------------------------------
# self time


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the part of it that child spans cover.

    Children are clipped to their parent's interval, and overlapping
    children count their union once. Inputs are equal-length integer
    arrays; parent is -1 for a root span.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    covered = np.zeros(start.size, dtype=np.int64)
    child = np.flatnonzero(parent >= 0)
    if child.size:
        p = parent[child]
        cs = np.maximum(start[child], start[p])
        ce = np.minimum(end[child], end[p])
        keep = ce > cs
        p, cs, ce = p[keep], cs[keep], ce[keep]
        order = np.lexsort((cs, p))
        p, cs, ce = p[order], cs[order], ce[order]
        if p.size:
            # Offset each parent's children into a disjoint time window so one
            # running maximum over all children never crosses between parents.
            group = np.cumsum(np.concatenate(([0], p[1:] != p[:-1])))
            base = cs.min()
            width = int(ce.max() - base) + 1
            cs_o = cs - base + group * width
            ce_o = ce - base + group * width
            prev = np.concatenate(([np.iinfo(np.int64).min], np.maximum.accumulate(ce_o)[:-1]))
            gain = np.maximum(ce_o - np.maximum(cs_o, prev), 0)
            np.add.at(covered, p, gain)
    return duration - covered


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(rec: Recorder, train_queries: int) -> dict[str, float]:
    """Calls, self time and rows per hooked name, plus the derived ratios.

    * network.encode.calls_per_rank8_query: encode calls per rank_query
      call, both inside the benchmark's 8-step phase;
    * network.encode.share_of_rank8: inclusive encode time over inclusive
      rank_query time in that phase, in percent;
    * autodiff.ops_per_train_query: calls of autodiff graph operations
      (every hooked autodiff function except backward and the composite
      linear) inside the train phase, per query trained at batch 32.
    """
    a = rec.arrays()
    n_names = len(rec.names)
    self_ns = self_times(a["start"], a["end"], a["parent"])
    calls = np.bincount(a["name"], minlength=n_names)
    self_ms = np.bincount(a["name"], weights=self_ns, minlength=n_names) / 1e6
    out: dict[str, float] = {}
    for i, name in enumerate(rec.names):
        out[f"{name}.calls"] = int(calls[i])
        out[f"{name}.self_ms"] = float(self_ms[i])
    for name, rows in rec.rows.items():
        out[f"{name}.rows"] = int(rows)

    duration = a["end"] - a["start"]
    rank8 = a["phase"] == rec.phase_id("rank8")
    enc = rank8 & (a["name"] == rec.name_id("network.encode"))
    rq = rank8 & (a["name"] == rec.name_id("sampling.rank_query"))
    if rq.any():
        out["network.encode.calls_per_rank8_query"] = float(enc.sum() / rq.sum())
        out["network.encode.share_of_rank8"] = float(100.0 * duration[enc].sum() / duration[rq].sum())

    op_ids = [
        i for i, name in enumerate(rec.names)
        if name.startswith("autodiff.")
        and name.split(".", 1)[1] not in COMPOSITE_OPS | {"backward"}
    ]
    in_train = a["phase"] == rec.phase_id("train")
    if train_queries:
        ops = int(np.isin(a["name"][in_train], op_ids).sum())
        out["autodiff.ops_per_train_query"] = ops / train_queries
    return out
