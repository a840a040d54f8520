"""Command-line entry point.

Subcommands cover the full workflow: `prepare` parses and normalizes raw
ranking data into binary caches, `train` fits a model, `evaluate` scores
a split and writes a metrics CSV, `infer` dumps per-query rankings,
`diversity` measures ranking variability across repeated sampling runs,
and `gradcheck` runs the numeric integrity suite.

Every command is deterministic given its resolved configuration: metric
CSVs, checkpoints, and logs are byte-stable across reruns with the same
seed. Wall-clock timings appear only on stdout, never inside artifacts.

Exit codes: 0 success, 2 configuration errors, 3 data errors (parse,
validation, cache, artifact incompatibilities, unreadable or unwritable
paths), 4 numeric failures, 1 anything else; each error class carries
its code as `exit_code`. Ctrl-C ends a command with exit 130.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import sys
import time
from dataclasses import replace

import numpy as np

from ._atomic import atomic_write
from .config import PRESETS, RunConfig, resolve_config
from .errors import ConfigError, DataError, DiffrankError, IncompatibilityError
from .gradcheck import GRAD_TOL, run_all_checks
from .letor import (
    Dataset,
    cache_read,
    cache_write,
    compute_norm_stats,
    normalize,
    parse_letor,
)
from .metrics import (
    evaluate_rankings,
    format_report_table,
    ranking_diversity,
    ranking_order,
    report_to_csv,
)
from .network import DenoiseModel, feature_only_variant, load_checkpoint
from .sampling import SamplerConfig, rank_split
from .schedule import ScheduleTable, build_schedule
from .training import fit


# ---------------------------------------------------------------------------
# helpers


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_cache(path: str, role: str) -> Dataset:
    if not path:
        raise ConfigError(f"no {role} cache configured; set the {role}_cache key")
    if not os.path.exists(path):
        raise DataError(
            f"{role} cache {path} does not exist; run the prepare command first"
        )
    return cache_read(path)


def _resolved(args: argparse.Namespace, flag_keys: dict[str, str]) -> RunConfig:
    """Config from defaults<preset<file<--set<per-command flags."""
    overrides = list(getattr(args, "set", None) or [])
    for attr, key in flag_keys.items():
        value = getattr(args, attr, None)
        if value is not None:
            overrides.append(f"{key}={value}")
    return resolve_config(
        preset=getattr(args, "preset", None),
        config_path=getattr(args, "config", None),
        overrides=overrides,
    )


def _ranking_setup(
    args: argparse.Namespace, flag_keys: dict[str, str]
) -> tuple[RunConfig, DenoiseModel, Dataset, ScheduleTable, SamplerConfig]:
    """Config, checkpoint, test split, schedule table and sampler settings
    for the commands that rank a split."""
    config = _resolved(args, flag_keys)
    model = load_checkpoint(args.checkpoint)
    ds = _read_cache(config["test_cache"], "test")
    if ds.k != model.config.k:
        raise IncompatibilityError(
            f"checkpoint expects {model.config.k} features, "
            f"{config['test_cache']} has {ds.k}"
        )
    return config, model, ds, build_schedule(model.schedule), config.sampler_config()


def _write_text(path: str, text: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# prepare


def _describe_split(name: str, ds: Dataset, cache_path: str) -> str:
    lengths = np.sort(ds.counts)
    hist = " ".join(
        f"{grade}:{int((ds.labels == grade).sum())}" for grade in range(int(ds.labels.max()) + 1)
    )
    pct = {
        "min": lengths[0],
        "p25": int(np.percentile(lengths, 25)),
        "p50": int(np.percentile(lengths, 50)),
        "p75": int(np.percentile(lengths, 75)),
        "p90": int(np.percentile(lengths, 90)),
        "max": lengths[-1],
    }
    length_line = "  ".join(f"{k} {v}" for k, v in pct.items())
    return (
        f"split {name}: {ds.num_queries} queries, {ds.num_docs} documents, "
        f"{ds.k} features\n"
        f"  label histogram: {hist}\n"
        f"  list lengths: {length_line}\n"
        f"  wrote {cache_path} (sha256 {_sha256(cache_path)})"
    )


def cmd_prepare(args: argparse.Namespace) -> int:
    if args.k_hint is not None and args.k_hint < 1:
        raise ConfigError(f"--k-hint must be >= 1, got {args.k_hint}")
    train_raw = parse_letor(args.train, k_hint=args.k_hint)
    stats = compute_norm_stats(train_raw)
    splits = [("train", train_raw)]
    for name, path in (("valid", args.valid), ("test", args.test)):
        if path is not None:
            raw = parse_letor(path, k_hint=train_raw.k)
            if raw.k != train_raw.k:
                raise IncompatibilityError(
                    f"{name} split has {raw.k} features, train has {train_raw.k}"
                )
            splits.append((name, raw))
    # every split has parsed, so a bad input leaves no directory behind
    os.makedirs(args.out_dir, exist_ok=True)
    for name, raw in splits:
        ds = normalize(raw, stats)
        cache_path = os.path.join(args.out_dir, f"{name}.cache")
        cache_write(ds, cache_path)
        print(_describe_split(name, ds, cache_path))
    return 0


# ---------------------------------------------------------------------------
# train


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_comment() -> str:
    """The BLAS build and thread settings, which decide the last bits of a
    trained model, as a config.txt comment line that --config skips."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        name = "unknown"
    settings = []
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "unset")
        settings.append(f"{var}={value if value.isprintable() else repr(value)}")
    return f"# trained with BLAS {name}; {' '.join(settings)}\n"


def cmd_train(args: argparse.Namespace) -> int:
    config = _resolved(
        args,
        {"train_cache": "train_cache", "valid_cache": "valid_cache", "out_dir": "out_dir"},
    )
    train_ds = _read_cache(config["train_cache"], "train")
    valid_ds = _read_cache(config["valid_cache"], "valid")
    train_config = config.train_config(train_ds.k)
    out_dir = config["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    snapshot_path = os.path.join(out_dir, "config.txt")
    _write_text(snapshot_path, _blas_comment() + config.snapshot_text())
    print(
        f"training on {train_ds.num_queries} queries "
        f"({train_ds.num_docs} documents, {train_ds.k} features), "
        f"validating on {valid_ds.num_queries} queries"
    )
    print(f"resolved configuration saved to {snapshot_path}")
    result = fit(train_ds, valid_ds, train_config, out_dir)
    print(f"best validation ndcg@10: {result.best_metric:.6f}")
    print(f"best checkpoint: {result.best_path}")
    print(f"epoch log: {result.log_path} ({len(result.log)} entries)")
    return 0


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(args: argparse.Namespace) -> int:
    config, model, ds, table, sampler = _ranking_setup(
        args, {"test_cache": "test_cache", "out_dir": "out_dir"}
    )
    start = time.perf_counter()
    scores = rank_split(model, ds.groups, table, sampler)
    seconds = time.perf_counter() - start
    report = evaluate_rankings(
        [g.labels() for g in ds.groups],
        [ranking_order(runs[0]) for runs in scores],
        cutoffs=config["cutoffs"],
    )
    csv_path = args.out or os.path.join(config["out_dir"], "metrics.csv")
    _write_text(csv_path, report_to_csv(report))
    print(format_report_table(report))
    mean_ms = 1000.0 * seconds / max(ds.num_queries, 1)
    print(f"mean per-query inference time: {mean_ms:.2f} ms")
    print(f"metrics written to {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# infer


def cmd_infer(args: argparse.Namespace) -> int:
    config, model, ds, table, sampler = _ranking_setup(
        args, {"cache": "test_cache", "out_dir": "out_dir"}
    )
    lines = ["qid,rank,doc_index,score"]
    for group, runs in zip(ds.groups, rank_split(model, ds.groups, table, sampler)):
        scores = runs[0]
        doc_indices = group.doc_indices()
        for rank, position in enumerate(ranking_order(scores), start=1):
            lines.append(
                f"{group.qid},{rank},{doc_indices[position]},"
                f"{float(scores[position])!r}"
            )
    csv_path = args.out or os.path.join(config["out_dir"], "rankings.csv")
    _write_text(csv_path, "\n".join(lines) + "\n")
    print(f"ranked {ds.num_queries} queries ({ds.num_docs} documents)")
    print(f"rankings written to {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# diversity


def cmd_diversity(args: argparse.Namespace) -> int:
    config, model, ds, table, sampler = _ranking_setup(
        args,
        {"test_cache": "test_cache", "out_dir": "out_dir", "repeat": "repeat"},
    )
    if args.baseline:
        # reference scorer: predictions ignore the noisy labels, and one
        # reverse step returns them with no posterior draw, so all
        # repeats produce the same ranking
        model = feature_only_variant(model)
        sampler = replace(sampler, reverse_steps=1)
    repeats = config["repeat"]
    cutoffs = config["rsd_cutoffs"]
    per_query_orders = [
        [ranking_order(chain) for chain in runs]
        for runs in rank_split(model, ds.groups, table, sampler, repeats=repeats)
    ]

    labels_list = [g.labels() for g in ds.groups]
    per_run_ndcg = {k: [] for k in cutoffs}
    for m in range(repeats):
        report = evaluate_rankings(
            labels_list, [orders[m] for orders in per_query_orders], cutoffs=cutoffs
        )
        for k in cutoffs:
            per_run_ndcg[k].append(report.values["ndcg"][k])

    # exact rational aggregation: M identical runs must report the floor
    # diversity 1/M, a mean equal to the common value and a spread of
    # exactly zero, without floating-point drift
    ndcg_mean = {k: float(statistics.mean(per_run_ndcg[k])) for k in cutoffs}
    summary = {"ndcg_mean": ndcg_mean}
    if repeats > 1:  # one run has no spread to report
        summary = {
            "rsd": {
                k: float(statistics.mean(ranking_diversity(o, k) for o in per_query_orders))
                for k in cutoffs
            },
            "ndcg_mean": ndcg_mean,
            "ndcg_std": {k: float(statistics.pstdev(per_run_ndcg[k])) for k in cutoffs},
        }
    lines = ["metric,k,value"]
    rows = [f"{'':<12}" + "".join(f"{f'@{k}':>10}" for k in cutoffs)]
    for name, values in summary.items():
        lines.extend(f"{name},{k},{values[k]!r}" for k in cutoffs)
        rows.append(
            f"{name.replace('_', ' '):<12}"
            + "".join(f"{values[k]:>10.4f}" for k in cutoffs)
        )
    csv_path = args.out or os.path.join(config["out_dir"], "diversity.csv")
    _write_text(csv_path, "\n".join(lines) + "\n")
    mode = "reference scorer" if args.baseline else "sampling model"
    print(f"{mode}: {repeats} repeated runs over {ds.num_queries} queries")
    print("\n".join(rows))
    print(f"diversity report written to {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# gradcheck


def cmd_gradcheck(args: argparse.Namespace) -> int:
    results = run_all_checks()
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "ok" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        print(f"{r.name:<{width}}  worst {r.worst:.3e}  tol {GRAD_TOL:g}  {status}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffrank",
        description="Train and evaluate a denoising-diffusion ranking model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="key=value config file")
    shared.add_argument(
        "--preset", choices=sorted(PRESETS), help="named configuration preset"
    )
    shared.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )

    p = sub.add_parser("prepare", help="parse, normalize, and cache ranking data")
    p.add_argument("--train", required=True, help="training split in SVMLight format")
    p.add_argument("--valid", help="validation split")
    p.add_argument("--test", help="test split")
    p.add_argument("--out-dir", required=True, help="directory for the caches")
    p.add_argument("--k-hint", type=int, help="minimum feature count")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", parents=[shared], help="fit a model on cached data")
    p.add_argument("--train-cache", help="training cache path")
    p.add_argument("--valid-cache", help="validation cache path")
    p.add_argument("--out-dir", help="run directory for checkpoint and logs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "evaluate", parents=[shared], help="compute ranking metrics on a split"
    )
    p.add_argument("--checkpoint", required=True, help="model checkpoint")
    p.add_argument("--test-cache", help="evaluation cache path")
    p.add_argument("--out-dir", help="directory for the metrics CSV")
    p.add_argument("--out", help="metrics CSV path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("infer", parents=[shared], help="write per-query rankings")
    p.add_argument("--checkpoint", required=True, help="model checkpoint")
    p.add_argument("--cache", help="input cache path")
    p.add_argument("--out-dir", help="directory for the rankings CSV")
    p.add_argument("--out", help="rankings CSV path")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser(
        "diversity",
        parents=[shared],
        help="measure ranking variability across repeated runs",
    )
    p.add_argument("--checkpoint", required=True, help="model checkpoint")
    p.add_argument("--test-cache", help="evaluation cache path")
    p.add_argument("--out-dir", help="directory for the diversity CSV")
    p.add_argument("--out", help="diversity CSV path")
    p.add_argument("--repeat", type=int, help="number of repeated runs")
    p.add_argument(
        "--baseline",
        action="store_true",
        help="use the deterministic reference scorer instead of sampling",
    )
    p.set_defaults(func=cmd_diversity)

    p = sub.add_parser("gradcheck", help="run the numeric integrity suite")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a floating-point fault ends as the typed error of the check that meets
    # its non-finite value, with no numpy warnings printed before it
    try:
        with np.errstate(all="ignore"):
            return args.func(args)
    except DiffrankError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except KeyboardInterrupt:  # Ctrl-C: the shell's 128 + SIGINT
        print("error: interrupted", file=sys.stderr)
        return 130
    except OSError as e:  # a path that cannot be read, created or written
        # a failed rename names its target, the path the user chose
        path = e.filename2 or e.filename
        where = f"{path}: " if path else ""
        print(f"error: {where}{e.strerror or e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
