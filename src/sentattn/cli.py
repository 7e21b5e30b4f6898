"""Command-line entry point for the whole pipeline.

Subcommands: build-vocab, split, stats, train, evaluate, predict,
segment, gradcheck. Machine-readable JSON goes to standard output (or
--out); progress text goes to standard error. Exit codes: 0 success,
1 usage or config error, 2 data error or an output that cannot be
written, 3 numeric failure.

The optional config file is line-oriented `key = value` with `#`
comments; explicit flags override config-file values. `main` reads it once,
before the command opens any model or corpus, and hands the command the
keys that a flag or the file set. A key that neither sets is left to the
default of the function it is passed to, or, where that function has none,
to TrainConfig's (the vocabulary size to ModelDims.c), so the training
defaults live only on TrainConfig and ModelDims.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import get_type_hints

from . import corpus as corpus_mod
from .checkpoint import CheckpointError, checkpoint_temp_path, load_checkpoint, save_checkpoint
from .corpus import (
    SPLIT_NAMES, CorpusError, EmptyInput, build_vocabulary, label_stats, load_corpus, split_records,
)
from .encoder import ENCODER_KINDS, ModelDims
from .segmenter import EmptyText, segment
from .trainer import (
    ATTENTION_MODES,
    DimsMismatch,
    EmptySplit,
    EpochLog,
    NonFiniteLoss,
    TrainConfig,
    evaluate,
    grad_check,
    predict_records,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# Config-file keys and flags, typed by their annotations: the ModelDims and
# TrainConfig fields, except the nested dims and stop_at_train_f1, which the
# command line does not set, plus three keys for other subcommands.
_DIMS_KEYS = [f.name for f in fields(ModelDims)]
_TRAIN_KEYS = [f.name for f in fields(TrainConfig) if f.name not in ("dims", "stop_at_train_f1")]
_KEY_TYPES = {
    **get_type_hints(ModelDims),
    **{key: t for key, t in get_type_hints(TrainConfig).items() if key in _TRAIN_KEYS},
    "threshold": float, "eps": float, "top_c": int,
}
_KEY_CHOICES = {"encoder": ENCODER_KINDS, "attention_mode": ATTENTION_MODES}
_TYPE_NAMES = {int: "an integer", float: "a number"}


class ConfigError(Exception):
    """Config file problem; message carries the line number."""


class UnknownKey(ConfigError):
    pass


class BadValue(ConfigError):
    pass


def load_config(path: str | Path) -> dict:
    """Parse a `key = value` config file into a typed flag map."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadValue(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, _, text = (part.strip() for part in line.partition("="))
        if key not in _KEY_TYPES:
            raise UnknownKey(f"line {lineno}: unknown key {key!r}")
        typ = _KEY_TYPES[key]
        if typ is bool:
            if text.lower() not in ("true", "false"):
                raise BadValue(f"line {lineno}: {key} expects true/false, got {text!r}")
            values[key] = text.lower() == "true"
            continue
        try:
            values[key] = typ(text)
        except ValueError as exc:
            raise BadValue(f"line {lineno}: {key} expects {_TYPE_NAMES[typ]}, got {text!r}") from exc
    return values


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we pin exit code 1
        raise _UsageError(self, message)


def _resolve(args: argparse.Namespace, keys: list[str]) -> dict:
    """The keys set by an explicit flag or, failing that, by the config file."""
    config = load_config(args.config) if getattr(args, "config", None) else {}
    out = {key: config[key] for key in keys if key in config}
    out.update((key, getattr(args, key)) for key in keys if getattr(args, key) is not None)
    return out


def _emit(payload, out_path: str | None) -> None:
    text = json.dumps(payload, ensure_ascii=False, indent=2)
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")
    else:
        sys.stdout.write(text + "\n")


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _add_common(p: _Parser, *names: str) -> None:
    if "config" in names:
        p.add_argument("--config", help="key = value config file")
    if "out" in names:
        p.add_argument("--out", help="write the JSON result here instead of stdout")


def _add_keys(p: _Parser, *keys: str) -> None:
    """One flag per config key, typed from the key table; an unset flag reads None."""
    for key in keys:
        flag = "--" + key.replace("_", "-")
        if _KEY_TYPES[key] is bool:
            p.add_argument(flag, dest=key, action="store_true", default=None)
        else:
            p.add_argument(flag, dest=key, type=_KEY_TYPES[key], choices=_KEY_CHOICES.get(key))
    p.set_defaults(keys=keys)  # main resolves them once


def build_parser() -> _Parser:
    parser = _Parser(prog="sentattn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    splits = [*SPLIT_NAMES, "all"]

    p = sub.add_parser("build-vocab", help="build the top-C label vocabulary")
    p.add_argument("corpus")
    p.add_argument("--split", choices=splits, default="all")
    _add_keys(p, "top_c", "seed")
    _add_common(p, "config", "out")
    p.set_defaults(func=_cmd_build_vocab)

    p = sub.add_parser("split", help="deterministic 8:1:1 id-hash split")
    p.add_argument("corpus")
    _add_keys(p, "seed")
    _add_common(p, "out")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("stats", help="per-code document counts")
    p.add_argument("corpus")
    _add_keys(p, "top_c")
    _add_common(p, "config", "out")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("train", help="train a model on the corpus")
    p.add_argument("corpus")
    p.add_argument("model_out", help="checkpoint output path")
    p.add_argument("--log-out", help="per-epoch JSONL log path")
    _add_keys(p, *_DIMS_KEYS, *_TRAIN_KEYS)
    _add_common(p, "config", "out")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="metrics report for one split")
    p.add_argument("model")
    p.add_argument("corpus")
    p.add_argument("--split", choices=splits)
    _add_keys(p, "k_max", "use_description", "seed")
    _add_common(p, "config", "out")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("predict", help="score documents against a checkpoint")
    p.add_argument("model")
    p.add_argument("corpus")
    p.add_argument("--split", choices=splits, default="all")
    p.add_argument("--attention", action="store_true", help="include the c x k attention matrix")
    _add_keys(p, "threshold", "k_max", "use_description", "seed")
    _add_common(p, "config", "out")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("segment", help="segment stdin text into sentences")
    _add_keys(p, "k_max")
    _add_common(p, "out")
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    _add_keys(p, "encoder", "eps", "seed")
    _add_common(p, "config", "out")
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def _cmd_build_vocab(args, settings):
    records, report = load_corpus(args.corpus)
    records = split_records(records, settings.get("seed", TrainConfig.seed), args.split)
    vocab = build_vocabulary(records, settings.get("top_c", ModelDims.c))
    _progress(f"read {report.read} lines, retained {report.retained} records")
    return {"codes": vocab.codes, "counts": vocab.counts}


def _cmd_split(args, settings):
    records, _ = load_corpus(args.corpus)
    if not records:
        raise EmptyInput("corpus holds no usable records")
    seed = settings.get("seed", TrainConfig.seed)
    payload = {name: sorted(r.id for r in split_records(records, seed, name)) for name in SPLIT_NAMES}
    payload["counts"] = {name: len(payload[name]) for name in SPLIT_NAMES}
    return payload


def _cmd_stats(args, settings):
    records, report = load_corpus(args.corpus)
    vocab = build_vocabulary(records, settings.get("top_c", ModelDims.c))
    counts = label_stats(records, vocab)
    dropped = sum(1 for r in records if corpus_mod.encode_labels(r, vocab) is None)
    return {"counts": counts, "dropped": dropped, "skipped": report.total_skipped}


def _cmd_train(args, settings):
    dims = ModelDims(**{key: settings.pop(key) for key in _DIMS_KEYS if key in settings})
    config = TrainConfig(dims=dims, **settings)
    # an unusable MODEL_OUT fails now, not after training: the temp file that
    # save_checkpoint writes must be creatable, and the rename over MODEL_OUT
    # fails on a directory (a symlink is replaced, not followed)
    model_out = Path(args.model_out)
    if model_out.is_dir() and not model_out.is_symlink():
        raise IsADirectoryError(errno.EISDIR, "MODEL_OUT is a directory", str(model_out))
    probe = checkpoint_temp_path(model_out)
    probe.open("wb").close()
    probe.unlink()
    log_file = Path(args.log_out).open("w", encoding="utf-8") if args.log_out else contextlib.nullcontext()
    with log_file as log:

        def on_epoch(entry: EpochLog) -> None:
            _progress(f"epoch {entry.epoch}: loss {entry.train_loss:.4f} "
                      f"val_micro_f1 {entry.val_micro_f1:.4f}")
            if log is not None:
                row = {k: v for k, v in asdict(entry).items() if v is not None}
                log.write(json.dumps(row) + "\n")
                log.flush()

        result = train(config, args.corpus, on_epoch=on_epoch)
    save_checkpoint(result.checkpoint, args.model_out)
    meta = result.checkpoint.meta
    return {
        "model": args.model_out,
        "epochs_run": meta.epochs_run,
        "best_val_micro_f1": meta.best_val_micro_f1,
        "labels": len(result.checkpoint.vocab),
        "split_sizes": result.split_sizes,
        "dropped": result.dropped,
        "skipped": result.load_report.total_skipped,
    }


def _cmd_evaluate(args, settings):
    ckpt = load_checkpoint(args.model)
    if args.split:
        settings["split_name"] = args.split
    return evaluate(ckpt, args.corpus, **settings)


def _cmd_predict(args, settings):
    ckpt = load_checkpoint(args.model)
    records, _ = load_corpus(args.corpus)
    records = split_records(records, settings.pop("seed", TrainConfig.seed), args.split)
    return predict_records(ckpt, records, with_attention=args.attention, **settings)


def _cmd_segment(args, settings):
    return [s.text for s in segment(sys.stdin.read(), settings.get("k_max", TrainConfig.k_max))]


def _cmd_gradcheck(args, settings):
    if "encoder" in settings:
        settings["kind"] = settings.pop("encoder")
    report = grad_check(**settings)
    return {"encoder": report.kind, "max_rel_error": report.max_rel_error,
            "worst_param": report.worst_param, "n_checked": report.n_checked}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        exc.parser.print_help(sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help lands here
        return int(exc.code or 0)
    try:
        _emit(args.func(args, _resolve(args, args.keys)), getattr(args, "out", None))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CorpusError, CheckpointError, EmptySplit, DimsMismatch, EmptyText, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NonFiniteLoss as exc:
        print(f"error: NonFiniteLoss: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # an argument out of its range, such as --k-max 0
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK
