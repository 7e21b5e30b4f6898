"""The benchmark workloads and the phases every run goes through.

A run is one process with one client in a closed loop: each call starts
when the previous one has returned. After an untimed one-epoch warm-up, it
trains a model (`train()`), saves and reloads it (`save_checkpoint`,
`load_checkpoint`) and checks it.
Then, until the run's seconds are spent, it interleaves the calls of four
phases, each getting its share of the time:

* train: another `train()` call on the generated corpus;
* setup: `load_corpus` + `prepare_documents`, or, for `longdoc`,
  `load_checkpoint` + `load_corpus`;
* evaluate: `evaluate(split="all")` on a fixed subset of the request corpus;
* predict: `predict_records` on one request record.

Every train, set-up, evaluate and predict call is one of a pair: the same
call with the same inputs on `perfbench.seedref`, a frozen copy of the
package, runs right before or right after it, in turn. The metrics are the
package's times relative to the copy's (see `end_to_end_metrics`).

The next call always goes to the phase furthest below its share, so every
phase is sampled across the whole run. Each phase also has a minimum number
of calls (1000 for predict, so that p99 has ten samples beyond it). A
replay plan repeats an earlier pass's sequence of calls, so that a traced
pass does exactly the work of an untraced one. The correctness checks run
outside every timed call.

The package is reached only through module attributes (`trainer.train`,
`checkpoint.load_checkpoint`, ...), so a tracer that wraps those
attributes sees every call; it never sees the copy's.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import resource
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, ContextManager

import numpy as np

from sentattn import checkpoint, corpus, segmenter, trainer
from sentattn.encoder import MEANPOOL, ModelDims

from . import inputs
from .seedref import checkpoint as seed_checkpoint
from .seedref import corpus as seed_corpus
from .seedref import encoder as seed_encoder
from .seedref import trainer as seed_trainer

DEFAULT_DIMS = ModelDims(h=64, c=50, v_buckets=32768, t_max=64, f=128)
LONGDOC_DIMS = ModelDims(h=32, c=8, v_buckets=4096, t_max=32, f=32)

SETUP_PREPARE = "prepare"
SETUP_CHECKPOINT = "checkpoint"
SETUP_REPEATS = 7
TRAIN_MIN_CALLS = 3
PREDICT_MIN_CALLS = 1000
SMOKE_PREDICT_MIN_CALLS = 10
CHECK_PREDICTIONS = 16
SEED = "seed:"  # prefix of the phase names under which the copy's calls are timed


@dataclass(frozen=True)
class Inputs:
    train_path: Path
    request_path: Path  # predict requests
    eval_path: Path     # scored by evaluate
    config: trainer.TrainConfig
    setup: str


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[Path, int, bool], Inputs]
    shares: dict[str, float]  # of the run's seconds, per phase
    seed_times: dict[str, float]  # the copy's typical times (s; predict in ms), see end_to_end_metrics


def _train_meanpool(directory: Path, seed: int, smoke: bool) -> Inputs:
    n_docs, epochs = (40, 3) if smoke else (96, 4)
    path = inputs.write_multilabel(directory, seed, DEFAULT_DIMS.v_buckets, n_docs=n_docs)
    config = trainer.TrainConfig(dims=DEFAULT_DIMS, encoder=MEANPOOL,
                                 max_epochs=epochs, patience=epochs)
    eval_path = inputs.write_eval_subset(path, 8 if smoke else 32)
    return Inputs(path, path, eval_path, config, SETUP_PREPARE)


def _longdoc(directory: Path, seed: int, smoke: bool) -> Inputs:
    size = dict(n_docs=30, min_chars=500, max_chars=4000) if smoke else \
        dict(n_docs=60, min_chars=3000, max_chars=128000)
    config = trainer.TrainConfig(dims=LONGDOC_DIMS, k_max=128, use_description=True,
                                 lr=1e-2, max_epochs=2, patience=2)
    path = inputs.write_longdoc(directory, seed, LONGDOC_DIMS.v_buckets,
                                split_seed=config.seed, **size)
    eval_path = inputs.write_eval_subset(path, 6 if smoke else 12)
    return Inputs(path, path, eval_path, config, SETUP_CHECKPOINT)


# Why each workload exists is recorded in BENCHMARK.json. The copy's typical
# times come from tuning runs on the 2-vCPU machine the bounds were set on;
# they only fix the scale of the figures, and must never change.
WORKLOADS = {w.name: w for w in (
    Workload("train-meanpool", _train_meanpool,
             {"train": 0.45, "setup": 0.06, "evaluate": 0.1, "predict": 0.39},
             {"setup": 0.0896, "train": 2.835, "evaluate": 0.0644, "predict_p50": 2.025,
              "predict_p99": 2.454}),
    Workload("longdoc", _longdoc,
             {"train": 0.3, "setup": 0.05, "evaluate": 0.35, "predict": 0.3},
             {"setup": 0.0091, "train": 1.164, "evaluate": 0.1904, "predict_p50": 11.43,
              "predict_p99": 113.4}),
)}


@dataclass
class Plan:
    """How a pass spends its time: shares of `seconds`, or a replayed call sequence."""

    seconds: float
    smoke: bool = False
    sequence: list[str] | None = None
    paired: bool = True  # False: no calls on the copy, for the traced runs
    untimed: Callable[[], ContextManager] = contextlib.nullcontext  # wraps the checks' own calls


@dataclass
class Outcome:
    """Everything one pass measured and checked."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    sequence: list[str] = field(default_factory=list)
    times: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    results: dict[str, list] = field(default_factory=lambda: defaultdict(list))
    info: dict[str, object] = field(default_factory=dict)
    peak_rss_mb: float = 0.0

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)

    def _record(self, phase: str, i: int, t: float, result: object,
                digest: Callable[[int, object], object] | None) -> None:
        self.times[phase].append(t)
        self.results[phase].append(result if digest is None else digest(i, result))

    def call(self, phase: str, fn: Callable[[int], object],
             digest: Callable[[int, object], object] | None = None) -> object:
        """Time call i of a phase; keep what the checks need, digest(i, result) or all of it."""
        self.attempted += 1
        i = len(self.times[phase])
        t0 = perf_counter()
        result = fn(i)
        self._record(phase, i, perf_counter() - t0, result, digest)
        return result

    def pair(self, phase: str, fn: Callable[[int], object], seed_fn: Callable[[int], object],
             digest: Callable[[int, object], object] | None = None) -> tuple[object, object]:
        """Call i of a phase on the package and on the copy, the copy first when i is odd."""
        seed_first = len(self.times[phase]) % 2 == 1
        if seed_first:
            seed_result = self.call(SEED + phase, seed_fn, lambda i, r: None)
        result = self.call(phase, fn, digest)
        if not seed_first:
            seed_result = self.call(SEED + phase, seed_fn, lambda i, r: None)
        self.attempted -= 1  # a pair counts as one operation
        return result, seed_result

    @property
    def measured_s(self) -> float:
        """Time in the package's calls."""
        return sum(sum(t) for p, t in self.times.items() if not p.startswith(SEED))


# the package's call, its twin on the copy (None: not paired), the digest
Phase = tuple[Callable[[int], object], Callable[[int], object] | None,
              Callable[[int, object], object] | None]


def _interleave(out: Outcome, plan: Plan, phases: dict[str, Phase],
                shares: dict[str, float], min_calls: dict[str, int]) -> None:
    """Give the next call or pair to the phase furthest below its share, until time is up."""
    def pair(name: str) -> float:
        fn, seed_fn, digest = phases[name]
        if seed_fn is None:
            out.call(name, fn, digest)
            return out.times[name][-1]
        out.pair(name, fn, seed_fn, digest)
        return out.times[name][-1] + out.times[SEED + name][-1]

    if plan.sequence is not None:
        for name in plan.sequence:
            pair(name)
        return
    used = {name: sum(out.times[name]) + sum(out.times.get(SEED + name, [])) for name in phases}
    start = perf_counter() - sum(used.values())
    while True:
        short = [p for p in phases if len(out.times[p]) < min_calls[p]]
        pool = short if perf_counter() - start >= plan.seconds else list(phases)
        if not pool:
            return
        name = min(pool, key=lambda p: used[p] / shares[p])
        used[name] += pair(name)
        out.sequence.append(name)


def _seed_config(config: trainer.TrainConfig) -> seed_trainer.TrainConfig:
    """The copy's TrainConfig with the same settings, as far as it has them."""
    def same(cls, obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(cls) if hasattr(obj, f.name)}

    dims = seed_encoder.ModelDims(**same(seed_encoder.ModelDims, config.dims))
    return seed_trainer.TrainConfig(**{**same(seed_trainer.TrainConfig, config), "dims": dims})


def _fingerprint(ckpt: checkpoint.Checkpoint) -> str:
    """Hash of everything a checkpoint holds: dims, kind, vocabulary and tensor bytes."""
    digest = hashlib.sha256(repr((ckpt.dims, ckpt.kind, ckpt.vocab.codes)).encode())
    for name, tensor in ckpt.tensors():
        digest.update(f"{name} {tensor.dtype} {tensor.shape}".encode() + tensor.tobytes())
    return digest.hexdigest()


def _spans_match(records: list[corpus.PatentRecord], config: trainer.TrainConfig) -> bool:
    for record in records:
        text = trainer.document_text(record, config.use_description)
        for s in segmenter.segment(text, config.k_max):
            if text[s.start:s.end] != s.text:
                return False
    return True


def _prediction_ok(result: list[dict], record: corpus.PatentRecord) -> bool:
    if len(result) != 1 or result[0]["id"] != record.id:
        return False
    scores = result[0]["scores"]
    return set(result[0]["predicted"]) == {code for code, s in scores.items() if s > 0.5}


def run_pass(workload: Workload, data: Inputs, workdir: Path, plan: Plan) -> Outcome:
    """One pass: train, round-trip the checkpoint, then the interleaved phases."""
    out = Outcome()
    config, seed_config = data.config, _seed_config(data.config)
    kwargs = dict(k_max=config.k_max, use_description=config.use_description)
    with plan.untimed():
        requests, _ = corpus.load_corpus(data.request_path)
        trained_on, _ = corpus.load_corpus(data.train_path)
        out.check("segment spans match the text",
                  _spans_match(trained_on, config) and _spans_match(requests, config))
    seed_requests, _ = seed_corpus.load_corpus(data.request_path)

    def train(_):
        return trainer.train(config, data.train_path)

    def seed_train(_):
        return seed_trainer.train(_seed_config(config), data.train_path)

    def train_digest(_, result):
        return {"losses": [e.train_loss for e in result.epochs],
                "docs": (result.split_sizes["train"] - result.dropped["train"]) * len(result.epochs),
                "model": _fingerprint(result.checkpoint)}

    # Untimed: one epoch on each side, so that no timed call is a side's first
    # call at all. The package's peak memory is read before the copy has run.
    # The copy's one-epoch model serves its evaluate and predict calls, which
    # cost the same whatever the weights.
    warm = dataclasses.replace(config, max_epochs=1, patience=1, stop_at_train_f1=None)
    with plan.untimed():
        warm_model = trainer.train(warm, data.train_path).checkpoint
        trainer.evaluate(warm_model, data.eval_path, split_name="all", seed=config.seed, **kwargs)
        trainer.predict_records(warm_model, requests[:CHECK_PREDICTIONS], **kwargs)
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    del warm_model
    seed_path = workdir / f"{workload.name}-seed.ckpt"
    if plan.paired:
        seed_checkpoint.save_checkpoint(
            seed_trainer.train(_seed_config(warm), data.train_path).checkpoint, seed_path)
        seed_model = seed_checkpoint.load_checkpoint(seed_path)

    if plan.paired:
        first, _ = out.pair("train", train, seed_train, train_digest)
    else:
        first = out.call("train", train, train_digest)
    path = workdir / f"{workload.name}.ckpt"
    out.call("checkpoint", lambda _: checkpoint.save_checkpoint(first.checkpoint, path))
    model = out.call("checkpoint", lambda _: checkpoint.load_checkpoint(path))
    out.info["checkpoint_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
    out.check("save then load is bit-exact", _fingerprint(first.checkpoint) == _fingerprint(model))
    with plan.untimed():
        sample = requests[:CHECK_PREDICTIONS]
        out.check("loaded model predicts like the in-memory model",
                  trainer.predict_records(first.checkpoint, sample, **kwargs)
                  == trainer.predict_records(model, sample, **kwargs))
    out.info["epochs_run"] = len(first.epochs)
    del first

    def setup(_):
        if data.setup == SETUP_CHECKPOINT:
            checkpoint.load_checkpoint(path)
            corpus.load_corpus(data.request_path)
        else:
            records, _ = corpus.load_corpus(data.train_path)
            trainer.prepare_documents(records, None, config.k_max, config.dims.t_max,
                                      config.dims.v_buckets, config.use_description,
                                      require_labels=False)

    def seed_setup(_):
        if data.setup == SETUP_CHECKPOINT:
            seed_checkpoint.load_checkpoint(seed_path)
            seed_corpus.load_corpus(data.request_path)
        else:
            records, _ = seed_corpus.load_corpus(data.train_path)
            seed_trainer.prepare_documents(records, None, config.k_max, config.dims.t_max,
                                           config.dims.v_buckets, config.use_description,
                                           require_labels=False)

    def evaluate(_):
        return trainer.evaluate(model, data.eval_path, split_name="all",
                                seed=config.seed, **kwargs)

    def seed_evaluate(_):
        return seed_trainer.evaluate(seed_model, data.eval_path, split_name="all",
                                     seed=config.seed, **kwargs)

    def predict(i):
        return trainer.predict_records(model, [requests[i % len(requests)]], **kwargs)

    def seed_predict(i):
        return seed_trainer.predict_records(seed_model, [seed_requests[i % len(requests)]],
                                            **kwargs)

    def predict_digest(i, result):
        return _prediction_ok(result, requests[i % len(requests)])

    min_calls = {"train": TRAIN_MIN_CALLS, "setup": SETUP_REPEATS, "evaluate": 1,
                 "predict": SMOKE_PREDICT_MIN_CALLS if plan.smoke else PREDICT_MIN_CALLS}
    _interleave(out, plan, {
        "train": (train, seed_train if plan.paired else None, train_digest),
        "setup": (setup, seed_setup if plan.paired else None, lambda i, r: None),
        "evaluate": (evaluate, seed_evaluate if plan.paired else None, None),
        "predict": (predict, seed_predict if plan.paired else None, predict_digest),
    }, workload.shares, min_calls)

    trains = out.results["train"]
    for t in trains:
        out.check("epoch losses finite", all(math.isfinite(x) for x in t["losses"]))
        out.check("last epoch loss below first", t["losses"][-1] < t["losses"][0])
    out.check("reruns give bit-identical models", len({t["model"] for t in trains}) == 1)
    reports = out.results["evaluate"]
    with plan.untimed():
        evaluated, _ = corpus.load_corpus(data.eval_path)
    labelled = sum(1 for r in evaluated
                   if any(model.vocab.index(c) is not None for c in r.normalized_codes()))
    totals = reports[0]["totals"]
    out.check("evaluate scores every generated document",
              totals["documents"] == labelled and totals["dropped"] == len(evaluated) - labelled
              and totals["skipped"] == 0)
    out.check("evaluate is deterministic", all(r == reports[0] for r in reports))
    out.check("predicted labels are exactly the scores above 0.5", all(out.results["predict"]))
    return out


def end_to_end_metrics(workload: Workload, out: Outcome) -> dict[str, tuple[float, ...]]:
    """name -> (value, the package's time, the copy's time, number of calls).

    The machine this was tuned on is shared, and for stretches of seconds
    to many minutes it runs the same code up to twice as slow, often for a
    whole run. Over ten runs, the middle half of the plain times of a phase
    spread by up to 0.6 of their median. So each call is timed against its
    twin on the frozen copy, made right before or after it with the same
    inputs: a slow stretch slows both alike, and a change to the package
    does not touch the copy. A figure is the package's time over the
    copy's, as the median ratio of a phase's pairs (for predict
    percentiles, the package's percentile over the copy's), times the
    copy's typical time on that machine (`Workload.seed_times`): the time
    the call would take there. Rates are documents over such a time. The
    plain times are printed beside the figures. `peak_rss_mb` is the
    process's peak after a one-epoch `train()`, an evaluate and a few
    predict calls of the package, before the copy has run.

    A `train()` call takes seconds, and the machine's speed also swings
    within seconds, so its twin can run at another speed: over five seeds
    the train figures spread 0.05 to 0.17 where the short calls' spread
    0.01 to 0.05. Scaling train calls instead by how much slower the
    copy's short calls ran was worse (up to 0.3): a slow stretch slows
    short Python-bound calls more than training. So a run makes at least
    TRAIN_MIN_CALLS train pairs.
    """
    def paired(phase: str, key: str) -> tuple[float, ...]:
        mine, seed = np.asarray(out.times[phase]), np.asarray(out.times[SEED + phase])
        return (float(np.median(mine / seed)) * workload.seed_times[key], float(np.median(mine)),
                float(np.median(seed)), len(mine))

    def percentile(q: int) -> tuple[float, ...]:
        mine = float(np.percentile(out.times["predict"], q)) * 1e3
        seed = float(np.percentile(out.times[SEED + "predict"], q)) * 1e3
        return mine / seed * workload.seed_times[f"predict_p{q}"], mine, seed, len(out.times["predict"])

    def rate(docs: int, times: tuple[float, ...]) -> tuple[float, ...]:
        return (docs / times[0], docs / times[1], docs / times[2], times[3])

    train = paired("train", "train")
    return {
        "setup_s": paired("setup", "setup"),
        "train_docs_per_s": rate(out.results["train"][0]["docs"], train),  # the same every call
        "time_to_quality_s": train,
        "eval_docs_per_s": rate(out.results["evaluate"][0]["totals"]["documents"],
                                paired("evaluate", "evaluate")),
        "predict_p50_ms": percentile(50),
        "predict_p99_ms": percentile(99),
        "peak_rss_mb": (out.peak_rss_mb, out.peak_rss_mb, math.nan, 1),
    }

