"""Configuration resolution and command-line workflow tests.

The workflow tests drive the real subcommand functions in-process
against a tiny corpus, checking artifact determinism and the exit-code
contract; one subprocess test covers the installed entry point.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffrank import autodiff as ad
from diffrank import cli, gradcheck, network, training
from diffrank.config import (
    PRESETS,
    SCHEMA,
    RunConfig,
    parse_config_file,
    resolve_config,
)
from diffrank.errors import (
    CacheCorruptionError,
    ConfigError,
    DataError,
    DiffrankError,
    DomainError,
    IncompatibilityError,
    NumericError,
    ParseError,
    ShapeError,
    ValidationError,
)
from diffrank.gradcheck import run_all_checks
from diffrank.letor import cache_read, write_letor
from diffrank.losses import LossSpec
from diffrank.network import DenoiseModel, ModelConfig, load_checkpoint, save_checkpoint
from diffrank.sampling import SamplerConfig
from diffrank.schedule import ScheduleSpec
from diffrank.synth import make_linear_dataset
from diffrank.training import TrainConfig

# ---------------------------------------------------------------------------
# configuration resolution


def test_default_values_spot_check():
    config = resolve_config()
    assert config["schedule"] == "trunclinear"
    assert config["timesteps"] == 1000
    assert config["loss"] == "listnet"
    assert config["d_model"] == 128
    assert config["epochs"] == 200
    assert config["cutoffs"] == (1, 3, 5, 10, 20, "ALL")
    assert config["rsd_cutoffs"] == (1, 5, 10, 20)
    assert set(config.values) == set(SCHEMA)


def test_schema_keys_are_pinned():
    # a defaulted field added to a typed config becomes a key; this list
    # makes that visible in review
    assert list(SCHEMA) == [
        "train_cache", "valid_cache", "test_cache", "out_dir",
        "d_model", "heads", "blocks", "denoise_layers", "dropout", "use_attention",
        "schedule", "timesteps",
        "loss", "t_smooth", "mu", "sigma",
        "epochs", "batch_size", "lr", "beta1", "beta2", "adam_eps", "weight_decay",
        "eval_every", "max_list_size", "seed", "dtype",
        "reverse_steps", "zero_variance",
        "cutoffs", "rsd_cutoffs", "repeat",
    ]


def test_defaults_are_the_typed_configs_own():
    config = resolve_config()
    assert config.train_config(k=136) == TrainConfig(
        model=ModelConfig(k=136), schedule=ScheduleSpec(), loss=LossSpec()
    )
    assert config.sampler_config() == SamplerConfig()
    # seed is a field of both TrainConfig and SamplerConfig: one default
    train_default = TrainConfig(model=ModelConfig(k=1), schedule=ScheduleSpec())
    assert train_default.seed == SamplerConfig().seed == SCHEMA["seed"][1]


@pytest.mark.parametrize(
    "preset,timesteps,layers,loss",
    [("web30k", 1000, 2, "listnet"), ("yahoo", 1000, 4, "mse"), ("istella", 600, 8, "mse")],
)
def test_presets_pin_dataset_specific_fields(preset, timesteps, layers, loss):
    config = resolve_config(preset=preset)
    assert config["schedule"] == "trunclinear"
    assert config["timesteps"] == timesteps
    assert config["denoise_layers"] == layers
    assert config["loss"] == loss
    assert config["use_attention"] is True
    # everything else stays at the shared defaults
    assert config["d_model"] == 128
    assert config["heads"] == 4
    assert config["blocks"] == 3
    assert config["lr"] == pytest.approx(1e-3)


def test_precedence_preset_then_file_then_set(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("loss = ranknet\nlr = 0.5  # inline comment\n\n# full comment\n")
    config = resolve_config(
        preset="yahoo", config_path=str(path), overrides=["lr=0.25"]
    )
    assert config["loss"] == "ranknet"  # file beats preset
    assert config["lr"] == 0.25  # --set beats file
    assert config["denoise_layers"] == 4  # untouched preset field survives


def test_unknown_keys_rejected_everywhere(tmp_path):
    with pytest.raises(ConfigError, match="bogus"):
        resolve_config(overrides=["bogus=1"])
    path = tmp_path / "bad.cfg"
    path.write_text("not_a_key = 3\n")
    with pytest.raises(ConfigError, match="not_a_key"):
        resolve_config(config_path=str(path))
    with pytest.raises(ConfigError, match="preset"):
        resolve_config(preset="mslr")


@pytest.mark.parametrize(
    "item,fragment",
    [
        ("epochs=two", "epochs"),
        ("lr=fast", "lr"),
        ("use_attention=maybe", "use_attention"),
        ("cutoffs=1,zero", "cutoffs"),
        ("cutoffs=-3", "cutoffs"),
        ("cutoffs=", "cutoffs"),
        ("rsd_cutoffs=1,ALL", "rsd_cutoffs"),
        ("epochs", "--set"),
    ],
)
def test_bad_values_rejected(item, fragment):
    with pytest.raises(ConfigError, match=fragment):
        resolve_config(overrides=[item])


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["lr", "adam_eps", "weight_decay", "t_smooth", "mu", "sigma"])
def test_non_finite_floats_rejected(key, raw):
    with pytest.raises(ConfigError, match=f"{key}.*finite"):
        resolve_config(overrides=[f"{key}={raw}"])


def test_non_finite_float_exits_2_before_reading_data(capsys):
    assert cli.main(["train", "--set", "adam_eps=nan"]) == 2
    assert "finite" in capsys.readouterr().err


def test_unreadable_config_file_exits_3_naming_the_path_once(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    assert cli.main(["train", "--config", str(path)]) == 3
    err = _one_error(capsys)
    assert err.count(str(path)) == 1 and "No such file" in err
    path.write_text("lr = 0.1\njust a line\n")  # readable but malformed
    assert cli.main(["train", "--config", str(path)]) == 2
    assert "run.cfg:2" in _one_error(capsys)


def test_config_file_that_is_not_utf8_exits_2_naming_the_line(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"lr = 0.1\n\xff\xfe = 1\n")
    assert cli.main(["train", "--config", str(path)]) == 2
    err = _one_error(capsys)
    assert "run.cfg:2" in err and "UTF-8" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--checkpoint", "absent.ckpt", "--set", "heads=0"],
        ["infer", "--checkpoint", "absent.ckpt", "--set", "loss=bogus"],
        ["diversity", "--checkpoint", "absent.ckpt", "--set", "epochs=0"],
        ["train", "--train-cache", "absent.cache", "--set", "reverse_steps=0"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_command_rejects_a_bad_setting_it_does_not_use(argv, capsys):
    # exit 2 before any file is read, not 3 for the missing checkpoint or cache
    assert cli.main(argv) == 2
    assert argv[-1].partition("=")[0] in _one_error(capsys)


def test_boolean_spellings():
    for raw, expected in [("true", True), ("YES", True), ("0", False), ("off", False)]:
        assert resolve_config(overrides=[f"zero_variance={raw}"])["zero_variance"] is expected


def test_config_file_syntax_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("lr = 0.1\njust a line\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
        parse_config_file(str(bad))
    dup = tmp_path / "dup.cfg"
    dup.write_text("lr = 0.1\nlr = 0.2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_file(str(dup))
    with pytest.raises(DataError, match="cannot read"):
        parse_config_file(str(tmp_path / "absent.cfg"))


def test_snapshot_round_trips_through_the_parser(tmp_path):
    config = resolve_config(
        preset="istella",
        overrides=["lr=0.005", "cutoffs=1,5,ALL", "zero_variance=true", "out_dir=runs/exp#3"],
    )
    path = tmp_path / "snapshot.cfg"
    path.write_text(config.snapshot_text())
    replayed = resolve_config(config_path=str(path))
    assert replayed.values == config.values
    assert replayed["out_dir"] == "runs/exp#3"  # a # inside a value is no comment


# characters at the edges of the config file syntax, plus any character
_VALUE_CHARS = st.sampled_from("a/=# \t\n\r\x0b\x85\u2028\udcff") | st.characters()


@given(value=st.text(alphabet=_VALUE_CHARS, max_size=8))
@settings(max_examples=300, deadline=None)
def test_a_string_value_reads_back_from_the_snapshot_or_is_refused(tmp_path_factory, value):
    path = tmp_path_factory.getbasetemp() / "string-value.cfg"
    try:
        config = resolve_config(overrides=[f"out_dir={value}"])
    except ConfigError:
        # refused only when the snapshot could not carry the value back
        unchecked = RunConfig({**resolve_config().values, "out_dir": value.strip()})
        try:
            path.write_text(unchecked.snapshot_text(), encoding="utf-8")
            replayed = parse_config_file(str(path)).get("out_dir")
        except (UnicodeEncodeError, ConfigError):
            return
        assert replayed != value.strip()
        return
    path.write_text(config.snapshot_text(), encoding="utf-8")
    assert resolve_config(config_path=str(path)).values == config.values


@pytest.mark.parametrize(
    "argv",
    [
        ["--set", "out_dir=runs/exp #3"],
        ["--out-dir", "runs/exp #3"],
        ["--set", "train_cache=#train.cache"],
        ["--set", "out_dir=runs/a\nb"],
    ],
    ids=["set-comment", "flag-comment", "leading-hash", "line-break"],
)
def test_string_value_config_txt_cannot_carry_exits_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["train", *argv]) == 2
    assert "config file" in _one_error(capsys)
    assert not any(tmp_path.iterdir())  # refused before any directory is made


def test_command_flags_layer_on_top_of_set():
    args = cli.build_parser().parse_args(
        ["diversity", "--checkpoint", "c", "--preset", "web30k",
         "--set", "repeat=3", "--set", "epochs=7", "--repeat", "5"]
    )
    config = cli._resolved(args, {"repeat": "repeat", "test_cache": "test_cache"})
    assert config["repeat"] == 5  # the flag beats --set
    assert config["epochs"] == 7  # --set still applies to other keys
    assert config["test_cache"] == ""  # an unset flag leaves its key alone
    assert config["denoise_layers"] == 2  # the preset survives


def test_typed_builders():
    config = resolve_config(overrides=["d_model=32", "heads=4", "dropout=0.2", "seed=7"])
    train_config = config.train_config(k=5)
    assert train_config.model.k == 5
    assert train_config.model.d_model == 32
    assert train_config.model.dropout_p == 0.2
    assert train_config.schedule.timesteps == 1000
    assert train_config.seed == config.sampler_config().seed == 7
    with pytest.raises(ConfigError, match="divisible"):
        resolve_config(overrides=["d_model=30", "heads=4"])


# ---------------------------------------------------------------------------
# command workflow on a tiny corpus

K_FEATURES = 5

TRAIN_SETTINGS = [
    "--set", "timesteps=24",
    "--set", "d_model=16",
    "--set", "heads=2",
    "--set", "blocks=1",
    "--set", "denoise_layers=2",
    "--set", "dropout=0.0",
    "--set", "loss=mse",
    "--set", "epochs=6",
    "--set", "eval_every=3",
    "--set", "reverse_steps=3",
    "--set", "batch_size=4",
    "--set", "dtype=float64",
    "--set", "seed=3",
]


def _sha(path) -> str:
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    write_letor(make_linear_dataset(12, 8, K_FEATURES, seed=0), str(root / "train.txt"))
    write_letor(make_linear_dataset(6, 8, K_FEATURES, seed=1), str(root / "valid.txt"))
    write_letor(make_linear_dataset(6, 8, K_FEATURES, seed=2), str(root / "test.txt"))
    caches = root / "caches"
    assert cli.main([
        "prepare",
        "--train", str(root / "train.txt"),
        "--valid", str(root / "valid.txt"),
        "--test", str(root / "test.txt"),
        "--out-dir", str(caches),
    ]) == 0
    run = root / "run"
    assert cli.main([
        "train",
        "--train-cache", str(caches / "train.cache"),
        "--valid-cache", str(caches / "valid.cache"),
        "--out-dir", str(run),
        *TRAIN_SETTINGS,
    ]) == 0
    return {
        "root": root,
        "caches": caches,
        "run": run,
        "checkpoint": run / "best.ckpt",
        "test_cache": caches / "test.cache",
    }


def test_prepare_report_and_stable_checksums(workspace, tmp_path, capsys):
    args = ["prepare", "--train", str(workspace["root"] / "train.txt")]
    assert cli.main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    out = capsys.readouterr().out
    assert "split train: 12 queries, 96 documents, 5 features" in out
    assert "label histogram:" in out
    assert "list lengths:" in out
    assert "sha256" in out
    assert cli.main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    assert _sha(tmp_path / "a" / "train.cache") == _sha(tmp_path / "b" / "train.cache")
    assert _sha(tmp_path / "a" / "train.cache") == _sha(workspace["caches"] / "train.cache")


def test_prepare_empty_input_fails_cleanly(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code = cli.main(["prepare", "--train", str(empty), "--out-dir", str(tmp_path / "o")])
    assert code == 3
    assert "no documents" in capsys.readouterr().err


def test_prepare_parse_error_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 qid:1 1:0.5 2:0.25\nbroken line here\n")
    code = cli.main(["prepare", "--train", str(bad), "--out-dir", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "bad.txt:2" in err


def test_prepare_oversized_feature_id_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 qid:1 1:0.5\n1 qid:1 99999999999:1.0\n")
    code = cli.main(["prepare", "--train", str(bad), "--out-dir", str(tmp_path / "o")])
    assert code == 3
    assert "bad.txt:2" in capsys.readouterr().err


def _one_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    return err


def _prepare_error(tmp_path, capsys, train, *extra) -> str:
    out_dir = tmp_path / "o"
    code = cli.main(["prepare", "--train", str(train), "--out-dir", str(out_dir), *extra])
    assert code == 3
    assert not out_dir.exists()  # a failing prepare leaves no directory
    return _one_error(capsys)


@pytest.mark.parametrize("hint", ["0", "-1"])
def test_prepare_rejects_k_hint_below_one(workspace, tmp_path, capsys, hint):
    out_dir = tmp_path / "o"
    code = cli.main([
        "prepare", "--train", str(workspace["root"] / "train.txt"),
        "--out-dir", str(out_dir), "--k-hint", hint,
    ])
    assert code == 2
    assert "--k-hint" in _one_error(capsys)
    assert not out_dir.exists()


def test_prepare_missing_input_exits_3(tmp_path, capsys):
    err = _prepare_error(tmp_path, capsys, tmp_path / "absent.txt")
    assert "absent.txt" in err and "No such file" in err


def test_prepare_directory_input_exits_3(tmp_path, capsys):
    (tmp_path / "splits").mkdir()
    err = _prepare_error(tmp_path, capsys, tmp_path / "splits")
    assert "splits" in err and "directory" in err


def test_prepare_non_utf8_input_names_the_line(tmp_path, capsys):
    # the bad byte sits past the reader's first decoded chunk, and a lone
    # carriage return ends a line as it does for every other parse error
    good = "2 qid:1 1:0.5 2:0.25\n" * 600
    bad = tmp_path / "bad.txt"
    bad.write_bytes((good + "1 qid:1 1:0.5\r0 qid:1 1:\xff\n").encode("latin-1"))
    err = _prepare_error(tmp_path, capsys, bad)
    assert "UTF-8" in err and "bad.txt:602]" in err


def test_train_missing_cache_fails_before_training(tmp_path, capsys):
    out_dir = tmp_path / "never"
    code = cli.main([
        "train",
        "--train-cache", str(tmp_path / "absent.cache"),
        "--valid-cache", str(tmp_path / "absent.cache"),
        "--out-dir", str(out_dir),
    ])
    assert code == 3
    assert "prepare" in capsys.readouterr().err
    assert not out_dir.exists()


def test_prepare_missing_later_split_exits_3(workspace, tmp_path, capsys):
    # the train split parses; the test split it names is missing
    train = workspace["root"] / "train.txt"
    err = _prepare_error(tmp_path, capsys, train, "--test", str(tmp_path / "absent.txt"))
    assert "absent.txt" in err


def test_directory_as_cache_exits_3(tmp_path, capsys):
    folder = tmp_path / "folder"
    folder.mkdir()
    code = cli.main([
        "train",
        "--train-cache", str(folder),
        "--valid-cache", str(folder),
        "--out-dir", str(tmp_path / "run"),
    ])
    assert code == 3
    err = _one_error(capsys)
    assert str(folder) in err and "Is a directory" in err and "does not exist" not in err
    assert not (tmp_path / "run").exists()


def test_directory_as_checkpoint_exits_3(workspace, tmp_path, capsys):
    code = cli.main([
        "evaluate",
        "--checkpoint", str(tmp_path),
        "--test-cache", str(workspace["test_cache"]),
        "--out", str(tmp_path / "m.csv"),
    ])
    assert code == 3
    err = _one_error(capsys)
    assert str(tmp_path) in err and "Is a directory" in err and "does not exist" not in err


def test_directory_in_place_of_best_ckpt_exits_3_naming_it(workspace, tmp_path, capsys):
    run = tmp_path / "run"
    (run / "best.ckpt").mkdir(parents=True)
    code = cli.main([
        "train",
        "--train-cache", str(workspace["caches"] / "train.cache"),
        "--valid-cache", str(workspace["caches"] / "valid.cache"),
        "--out-dir", str(run),
        *TRAIN_SETTINGS,
    ])
    assert code == 3
    err = _one_error(capsys)
    assert err == f"error: {run / 'best.ckpt'}: Is a directory\n"
    assert not (run / "best.ckpt.tmp").exists()


def test_unwritable_output_path_exits_3(workspace, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code = cli.main([
        "prepare", "--train", str(workspace["root"] / "train.txt"), "--out-dir", str(taken)
    ])
    assert code == 3
    err = _one_error(capsys)
    assert str(taken) in err and "File exists" in err
    # --out names a directory
    assert _evaluate(workspace, tmp_path) == 3
    err = _one_error(capsys)
    assert str(tmp_path) in err and "Is a directory" in err


def test_report_write_failing_midway_leaves_the_previous_report(tmp_path):
    path = tmp_path / "metrics.csv"
    cli._write_text(str(path), "cutoff,ndcg\n10,0.5\n")
    before = path.read_bytes()
    # a lone surrogate cannot be encoded, so the write fails partway
    with pytest.raises(UnicodeEncodeError):
        cli._write_text(str(path), "cutoff,ndcg\n" * 5000 + "\ud800")
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.csv"]


@pytest.mark.parametrize("target", ["cache", "report"])
def test_directory_in_place_of_an_output_exits_3_naming_it(workspace, tmp_path, capsys, target):
    if target == "cache":
        path = tmp_path / "caches" / "train.cache"
        path.mkdir(parents=True)
        code = cli.main([
            "prepare", "--train", str(workspace["root"] / "train.txt"),
            "--out-dir", str(path.parent),
        ])
    else:
        path = tmp_path / "metrics.csv"
        path.mkdir()
        code = _evaluate(workspace, path)
    assert code == 3
    assert _one_error(capsys) == f"error: {path}: Is a directory\n"
    assert path.is_dir() and not list(path.iterdir())
    assert not path.with_name(path.name + ".tmp").exists()


def test_train_rejects_unknown_set_key(capsys):
    assert cli.main(["train", "--set", "bogus_key=1"]) == 2
    assert "bogus_key" in capsys.readouterr().err


def test_train_writes_config_snapshot_and_log(workspace):
    run = workspace["run"]
    assert (run / "best.ckpt").is_file()
    assert (run / "train_log.jsonl").is_file()
    snapshot = resolve_config(config_path=str(run / "config.txt"))
    assert snapshot["timesteps"] == 24
    assert snapshot["seed"] == 3
    assert snapshot["epochs"] == 6


def test_config_snapshot_records_the_blas_settings_in_a_comment(workspace, monkeypatch):
    first = (workspace["run"] / "config.txt").read_text(encoding="utf-8").splitlines()[0]
    assert first == cli._blas_comment().rstrip("\n")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert first.startswith(f"# trained with BLAS {blas['name']} {blas['version']}; ")
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1\n2")
    line = cli._blas_comment()
    assert line.endswith(
        "; OPENBLAS_NUM_THREADS='1\\n2' OMP_NUM_THREADS=3 MKL_NUM_THREADS=unset\n"
    )
    assert line.count("\n") == 1


def test_snapshot_replay_reproduces_checkpoint_bytes(workspace, tmp_path):
    replay_dir = tmp_path / "replay"
    assert cli.main([
        "train",
        "--config", str(workspace["run"] / "config.txt"),
        "--out-dir", str(replay_dir),
    ]) == 0
    assert _sha(replay_dir / "best.ckpt") == _sha(workspace["checkpoint"])
    assert _sha(replay_dir / "train_log.jsonl") == _sha(workspace["run"] / "train_log.jsonl")


def _evaluate(workspace, out_path, extra=()):
    return cli.main([
        "evaluate",
        "--checkpoint", str(workspace["checkpoint"]),
        "--test-cache", str(workspace["test_cache"]),
        "--out", str(out_path),
        "--set", "reverse_steps=4",
        "--set", "seed=7",
        *extra,
    ])


def test_evaluate_writes_requested_cutoffs(workspace, tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    assert _evaluate(workspace, out, extra=["--set", "cutoffs=1,5,10"]) == 0
    stdout = capsys.readouterr().out
    assert "mean per-query inference time" in stdout
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "metric,k,value,n_queries"
    ndcg_rows = [r for r in rows if r.startswith("ndcg,")]
    assert len(ndcg_rows) == 3
    assert [r.split(",")[1] for r in ndcg_rows] == ["1", "5", "10"]
    for row in rows[1:]:
        value = float(row.split(",")[2])
        assert 0.0 <= value <= 1.0


def test_evaluate_bytes_are_reproducible(workspace, tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _evaluate(workspace, first) == 0
    assert _evaluate(workspace, second) == 0
    assert first.read_bytes() == second.read_bytes()


def test_removed_workers_key_is_unknown(workspace, tmp_path, capsys):
    assert _evaluate(workspace, tmp_path / "m.csv", extra=["--set", "workers=4"]) == 2
    assert "workers" in capsys.readouterr().err


def test_removed_k_key_is_unknown(workspace, tmp_path, capsys):
    # the feature count always comes from the data
    assert _evaluate(workspace, tmp_path / "m.csv", extra=["--set", "k=5"]) == 2
    assert "'k'" in capsys.readouterr().err


def test_non_finite_checkpoint_parameter_exits_3(workspace, tmp_path, capsys):
    model = load_checkpoint(str(workspace["checkpoint"]))
    model.params["den0.b"].data[0, 0] = np.nan
    bad = tmp_path / "nan.ckpt"
    save_checkpoint(model, str(bad))
    with pytest.raises(CacheCorruptionError, match="den0.b"):
        load_checkpoint(str(bad))
    code = cli.main([
        "evaluate",
        "--checkpoint", str(bad),
        "--test-cache", str(workspace["test_cache"]),
        "--out", str(tmp_path / "m.csv"),
    ])
    assert code == 3
    assert "den0.b" in capsys.readouterr().err


def test_checkpoint_in_a_dtype_train_cannot_write_exits_3(
    workspace, tmp_path, capsys, monkeypatch
):
    model = load_checkpoint(str(workspace["checkpoint"]))
    half = tmp_path / "half.ckpt"
    # the library refuses to build a float16 model, so admit it while saving
    with monkeypatch.context() as patch:
        patch.setattr(network, "DTYPES", network.DTYPES + ("float16",))
        save_checkpoint(DenoiseModel(model.config, model.schedule, dtype="float16"), str(half))
    code = cli.main([
        "evaluate",
        "--checkpoint", str(half),
        "--test-cache", str(workspace["test_cache"]),
        "--out", str(tmp_path / "m.csv"),
    ])
    assert code == 3
    assert "float16" in _one_error(capsys)


def test_floating_point_fault_ends_as_one_error_line(workspace, tmp_path, capsys):
    # lr=1e300 overflows the first AdamW step; numpy would warn in AdamW and
    # matmul before the loss check raises
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([
            "train",
            "--train-cache", str(workspace["caches"] / "train.cache"),
            "--valid-cache", str(workspace["caches"] / "valid.cache"),
            "--out-dir", str(tmp_path / "run"),
            *TRAIN_SETTINGS,
            "--set", "lr=1e300",
        ])
    assert code == 4
    assert [str(w.message) for w in caught] == []
    assert "non-finite" in _one_error(capsys)


def _v1_cache(k: int) -> bytes:
    """A one-document cache in the retired version-1 layout."""
    return (
        b"DRLTRCH\x00"
        + struct.pack("<IBIQQ", 1, 0, k, 1, 1)
        + struct.pack("<qI", 1, 1)
        + struct.pack("<BQ", 2, 0)
        + np.zeros(k, dtype="<f8").tobytes()
    )


def test_version_one_cache_asks_for_prepare(workspace, tmp_path, capsys):
    old = tmp_path / "old.cache"
    old.write_bytes(_v1_cache(K_FEATURES))
    code = cli.main([
        "evaluate",
        "--checkpoint", str(workspace["checkpoint"]),
        "--test-cache", str(old),
        "--out", str(tmp_path / "m.csv"),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "version 1" in err and "diffrank prepare" in err


def test_version_one_checkpoint_asks_for_retrain(workspace, tmp_path, capsys):
    # version 2 went with the num_grades header field; both are retired
    for version in (1, 2):
        old = tmp_path / f"v{version}.ckpt"
        buf = bytearray(workspace["checkpoint"].read_bytes())
        struct.pack_into("<I", buf, 8, version)  # version sits right after the magic
        old.write_bytes(bytes(buf))
        code = cli.main([
            "evaluate",
            "--checkpoint", str(old),
            "--test-cache", str(workspace["test_cache"]),
            "--out", str(tmp_path / "m.csv"),
        ])
        assert code == 3
        err = _one_error(capsys)
        assert f"version {version}" in err and "diffrank train" in err


def test_evaluate_rejects_feature_width_mismatch(workspace, tmp_path, capsys):
    write_letor(make_linear_dataset(4, 6, K_FEATURES + 2, seed=9), str(tmp_path / "wide.txt"))
    assert cli.main([
        "prepare", "--train", str(tmp_path / "wide.txt"), "--out-dir", str(tmp_path / "c"),
    ]) == 0
    capsys.readouterr()
    code = cli.main([
        "evaluate",
        "--checkpoint", str(workspace["checkpoint"]),
        "--test-cache", str(tmp_path / "c" / "train.cache"),
        "--out", str(tmp_path / "m.csv"),
    ])
    assert code == 3
    assert "features" in capsys.readouterr().err


def test_evaluate_reverse_steps_beyond_horizon_is_config_error(workspace, tmp_path):
    code = _evaluate(workspace, tmp_path / "m.csv", extra=["--set", "reverse_steps=999"])
    assert code == 2


def test_infer_emits_permutations(workspace, tmp_path):
    out = tmp_path / "rankings.csv"
    assert cli.main([
        "infer",
        "--checkpoint", str(workspace["checkpoint"]),
        "--cache", str(workspace["test_cache"]),
        "--out", str(out),
        "--set", "reverse_steps=4",
    ]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "qid,rank,doc_index,score"
    by_qid: dict[str, list[list[str]]] = {}
    for row in rows[1:]:
        fields = row.split(",")
        by_qid.setdefault(fields[0], []).append(fields)
    assert len(by_qid) == 6
    ds = cache_read(str(workspace["test_cache"]))
    for group in ds.groups:
        fields = by_qid[str(group.qid)]
        assert [int(f[1]) for f in fields] == list(range(1, group.n + 1))
        assert sorted(int(f[2]) for f in fields) == sorted(group.doc_indices().tolist())
        scores = [float(f[3]) for f in fields]
        assert scores == sorted(scores, reverse=True)
    rerun = tmp_path / "again.csv"
    assert cli.main([
        "infer",
        "--checkpoint", str(workspace["checkpoint"]),
        "--cache", str(workspace["test_cache"]),
        "--out", str(rerun),
        "--set", "reverse_steps=4",
    ]) == 0
    assert rerun.read_bytes() == out.read_bytes()


def _rewrite_checkpoint_header(src, dst, edit, keep_blobs=True):
    """Copy a checkpoint, passing its JSON header through edit()."""
    buf = src.read_bytes()
    magic = buf[:8]
    version, header_len = struct.unpack_from("<IQ", buf, 8)
    start = 8 + struct.calcsize("<IQ")
    header = json.loads(buf[start : start + header_len])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    blobs = buf[start + header_len :] if keep_blobs else b""
    dst.write_bytes(magic + struct.pack("<IQ", version, len(blob)) + blob + blobs)


@pytest.mark.parametrize(
    "edit,keep_blobs,fragment",
    [
        (lambda h: h.pop("model"), True, "lacks model"),
        (lambda h: h["model"].update(width=3), True, "width"),
        (lambda h: h["model"].update(d_model=16.0), True, "integer"),
        (lambda h: h.update(params=[]), False, "0 entries"),
        (lambda h: h["params"][0].update(shape=[2, 2]), True, "implies"),
        (
            lambda h: h["schedule"].update(timesteps=float(h["schedule"]["timesteps"])),
            True,
            "timesteps must be an integer",
        ),
    ],
    ids=[
        "no-model",
        "unknown-model-key",
        "float-width",
        "empty-manifest",
        "wrong-shape",
        "float-timesteps",
    ],
)
def test_malformed_checkpoint_header_exits_3(
    workspace, tmp_path, capsys, edit, keep_blobs, fragment
):
    bad = tmp_path / "bad.ckpt"
    _rewrite_checkpoint_header(workspace["checkpoint"], bad, edit, keep_blobs)
    code = cli.main([
        "infer",
        "--checkpoint", str(bad),
        "--cache", str(workspace["test_cache"]),
        "--out", str(tmp_path / "rankings.csv"),
    ])
    assert code == 3
    assert fragment in _one_error(capsys)


def _diversity(workspace, out_path, extra=()):
    return cli.main([
        "diversity",
        "--checkpoint", str(workspace["checkpoint"]),
        "--test-cache", str(workspace["test_cache"]),
        "--out", str(out_path),
        "--set", "reverse_steps=4",
        "--set", "seed=11",
        *extra,
    ])


def _csv_rows(path) -> list[list[str]]:
    return [row.split(",") for row in path.read_text().strip().splitlines()[1:]]


def test_diversity_reference_scorer_hits_exact_floor(workspace, tmp_path):
    out = tmp_path / "base.csv"
    assert _diversity(workspace, out, extra=["--repeat", "5", "--baseline"]) == 0
    rows = _csv_rows(out)
    rsd = {int(r[1]): float(r[2]) for r in rows if r[0] == "rsd"}
    assert set(rsd) == {1, 5, 10, 20}
    for value in rsd.values():
        assert value == 1.0 / 5.0  # identical runs: exactly one distinct prefix
    stds = [float(r[2]) for r in rows if r[0] == "ndcg_std"]
    assert stds and all(s == 0.0 for s in stds)


def test_diversity_sampling_exceeds_floor(workspace, tmp_path):
    out = tmp_path / "samp.csv"
    assert _diversity(workspace, out, extra=["--repeat", "5"]) == 0
    rows = _csv_rows(out)
    rsd = {int(r[1]): float(r[2]) for r in rows if r[0] == "rsd"}
    assert all(v >= 1.0 / 5.0 for v in rsd.values())
    assert rsd[20] > 1.0 / 5.0  # deep prefixes vary across sampling runs


def test_diversity_single_run_omits_spread_rows(workspace, tmp_path):
    out = tmp_path / "single.csv"
    assert _diversity(workspace, out, extra=["--repeat", "1"]) == 0
    kinds = {r[0] for r in _csv_rows(out)}
    assert kinds == {"ndcg_mean"}


def test_diversity_bytes_are_reproducible(workspace, tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _diversity(workspace, first, extra=["--repeat", "4"]) == 0
    assert _diversity(workspace, second, extra=["--repeat", "4"]) == 0
    assert first.read_bytes() == second.read_bytes()


# ---------------------------------------------------------------------------
# gradcheck command


def test_gradcheck_command_passes_quickly(capsys):
    code = cli.main(["gradcheck"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.endswith("34/34 checks passed\n")
    assert "FAIL" not in out


@pytest.mark.parametrize("flag", ["--seed", "--op-trials", "--loss-trials", "--directions"])
def test_gradcheck_takes_no_options(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gradcheck", flag, "20"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert f"unrecognized arguments: {flag} 20" in err
    assert out == ""


def test_every_gradcheck_case_runs_twenty_instances(monkeypatch):
    """An op or loss instance is one coordinatewise check_gradients call; a
    model instance is one direction, two evaluations inside
    check_directional."""
    calls = []
    real_gradients = gradcheck.check_gradients
    real_directional = gradcheck.check_directional

    def counted_gradients(f, arrays, analytic):
        calls.append(1.0)
        return real_gradients(f, arrays, analytic)

    def counted_directional(f, arrays, analytic, rng):
        def counted(arrs):
            calls.append(0.5)
            return f(arrs)

        return real_directional(counted, arrays, analytic, rng)

    monkeypatch.setattr(gradcheck, "check_gradients", counted_gradients)
    monkeypatch.setattr(gradcheck, "check_directional", counted_directional)
    counts = {}
    for name, check in gradcheck.named_checks():
        calls.clear()
        assert check() <= gradcheck.GRAD_TOL, name
        counts[name] = sum(calls)
    assert len(counts) == 34
    assert counts == dict.fromkeys(counts, 20.0)


def test_gradcheck_detects_corrupted_gradient(monkeypatch, capsys):
    real_softplus = ad.softplus

    def corrupted(x):
        out = real_softplus(x)
        node = out._node
        if node is not None:
            inner = node._backward
            node._backward = lambda g, *sinks: inner(g * 1.01, *sinks)
        return out

    monkeypatch.setattr("diffrank.autodiff.softplus", corrupted)
    results = run_all_checks()
    failed = {r.name for r in results if not r.passed}
    assert "op.softplus" in failed
    code = cli.main(["gradcheck"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# exit-code contract


@pytest.mark.parametrize(
    "exc,expected",
    [
        (ConfigError("x"), 2),
        (DataError("x"), 3),
        (IncompatibilityError("x"), 3),
        (NumericError("x"), 4),
        (DiffrankError("x"), 1),
        (ParseError("x", "f.txt", 2), 3),
        (ValidationError("x"), 3),
        (CacheCorruptionError("x"), 3),
        (ShapeError("x"), 1),
        (DomainError("x"), 1),
    ],
)
def test_exit_code_mapping(monkeypatch, capsys, exc, expected):
    def boom(args):
        raise exc

    monkeypatch.setattr("diffrank.cli.cmd_gradcheck", boom)
    assert cli.main(["gradcheck"]) == expected
    _one_error(capsys)


def test_ctrl_c_during_train_exits_130_with_one_line(workspace, tmp_path, monkeypatch, capsys):
    # 12 training queries in batches of 4: call 7 is epoch 3's first step
    real_step = training.train_step
    calls = []

    def interrupted(*args):
        calls.append(None)
        if len(calls) == 7:
            raise KeyboardInterrupt
        return real_step(*args)

    monkeypatch.setattr(training, "train_step", interrupted)
    run = tmp_path / "run"
    code = cli.main([
        "train",
        "--train-cache", str(workspace["caches"] / "train.cache"),
        "--valid-cache", str(workspace["caches"] / "valid.cache"),
        "--out-dir", str(run),
        *TRAIN_SETTINGS,
    ])
    assert code == 130
    assert capsys.readouterr().err == "error: interrupted\n"
    # epochs 1 and 2 are logged as in the full run; eval_every=3, so no
    # checkpoint was due yet
    full = (workspace["run"] / "train_log.jsonl").read_text(encoding="utf-8")
    assert (run / "train_log.jsonl").read_text(encoding="utf-8").splitlines() == (
        full.splitlines()[:2]
    )
    assert sorted(os.listdir(run)) == ["config.txt", "train_log.jsonl"]


def test_module_entry_point_runs_in_subprocess():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # the child finds the package in src/, as pytest's own pythonpath does
    path = os.pathsep.join(p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "diffrank.cli", "gradcheck"],
        capture_output=True,
        text=True,
        cwd=root,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "checks passed" in proc.stdout


# ---------------------------------------------------------------------------
# corrupted artifacts

_MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(min_value=0)),
    st.tuples(
        st.just("flip"),
        st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 7)), min_size=1, max_size=3),
    ),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=16)),
)


def _mutated(raw: bytes, mutation) -> bytes:
    kind, arg = mutation
    if kind == "truncate":
        return raw[: arg % len(raw)]
    if kind == "extend":
        return raw + arg
    out = bytearray(raw)
    for position, bit in arg:
        out[position % len(out)] ^= 1 << bit
    return bytes(out)


@pytest.mark.parametrize(
    "artifact,reader", [("test_cache", cache_read), ("checkpoint", load_checkpoint)]
)
@given(mutation=_MUTATIONS)
@settings(max_examples=100, deadline=None)
def test_corrupted_artifact_ends_as_typed_error(workspace, artifact, reader, mutation):
    """Truncated, bit-flipped or extended bytes either still read as a
    valid artifact or raise a DiffrankError, and evaluate exits 3 on them."""
    paths = {key: workspace[key] for key in ("test_cache", "checkpoint")}
    paths[artifact] = workspace["root"] / f"fuzzed-{artifact}"
    paths[artifact].write_bytes(_mutated(workspace[artifact].read_bytes(), mutation))
    try:
        reader(str(paths[artifact]))
        readable = True
    except DiffrankError:
        readable = False
    code = cli.main([
        "evaluate",
        "--checkpoint", str(paths["checkpoint"]),
        "--test-cache", str(paths["test_cache"]),
        "--out", str(workspace["root"] / "fuzzed.csv"),
        "--set", "reverse_steps=2",
    ])
    # a flip can leave a readable artifact whose values overflow: exit 4
    assert code in ((0, 4) if readable else (3,))
