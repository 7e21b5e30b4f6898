#!/usr/bin/env python3
"""Measure how far train, evaluate, predict and stats raise peak memory, by corpus size and shape.

Points, each a corpus generated here from a fixed seed by
`io_bench.make_corpus`:

* longdoc_300 and longdoc_1200: the longdoc benchmark's shape, a 4-word
  title, 12 abstract sentences and a description whose length is spread
  log-uniformly over 3k-128k characters (about 10 MB and 41 MB);
* abstract_1200: the train-meanpool benchmark's shape, a 4-word title and
  32 abstract sentences, no description (about 1.8 MB).

Stages, each run on every point at the longdoc benchmark's settings (h=32,
c=8, v_buckets=4096, t_max=32, f=32, k_max=128, use_description):

* train: one `train()` of one epoch on the file;
* evaluate: `evaluate` of split "all" with that run's checkpoint;
* predict: the `sentattn predict` command over every record, with that
  checkpoint, its JSON written to a file;
* stats: the `sentattn stats` command over every record, its JSON written
  to a file.

Each stage of each point runs --repeats times, each in a fresh
interpreter, because a process's peak resident set only grows: it reports
the peak's growth over the call (VmHWM after it less VmRSS before it, in
MB, read from /proc/self/status) and the call's wall seconds, as median
and quartiles. `slope_kb_per_doc` is, per stage, the growth from
longdoc_300 to longdoc_1200 per added record, in KB: what one more long
document costs in memory. Only `train`, `evaluate`, `TrainConfig`,
`load_checkpoint`, `save_checkpoint`, `ModelDims`, `write_jsonl` and the
CLI's `predict` and `stats` are called, so the script measures older
versions of the package too.

Usage: python scripts/corpus_bench.py [--repeats N] [--tiny] [--out PATH] [--side before|after]
       python scripts/corpus_bench.py --stage STAGE CORPUS MODEL   (one stage, in this process)
"""

import _bench  # pins BLAS to one thread, so before numpy
import gc
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import io_bench
from sentattn import cli
from sentattn.checkpoint import load_checkpoint, save_checkpoint
from sentattn.encoder import ModelDims
from sentattn.synth import write_jsonl
from sentattn.trainer import TrainConfig, evaluate, train

LONGDOC = (12, (3_000, 128_000))
ABSTRACT = (32, None)
# name -> (records, abstract sentences, description characters (min, max) or None)
POINTS = {"longdoc_300": (300, *LONGDOC), "longdoc_1200": (1200, *LONGDOC),
          "abstract_1200": (1200, *ABSTRACT)}
TINY_POINTS = {"longdoc_10": (10, 2, (300, 3_000)), "longdoc_30": (30, 2, (300, 3_000)),
               "abstract_30": (30, 4, None)}  # each holds a validation record, as train() needs
STAGES = ("train", "evaluate", "predict", "stats")
CONFIG = TrainConfig(dims=ModelDims(h=32, c=8, v_buckets=4096, t_max=32, f=32), k_max=128,
                     use_description=True, lr=1e-2, max_epochs=1, patience=1)


def run_stage(stage: str, corpus: Path, model: Path) -> dict:
    """One stage on one corpus file, its peak-RSS growth measured in this process."""
    ckpt = None if stage in ("train", "stats") else load_checkpoint(model)
    gc.collect()
    rss_before = _bench.status_mb("VmRSS")
    t0 = perf_counter()
    if stage == "train":
        result = train(CONFIG, corpus)
    elif stage == "evaluate":
        evaluate(ckpt, corpus, split_name="all", seed=CONFIG.seed, k_max=CONFIG.k_max,
                 use_description=CONFIG.use_description)
    else:
        argv = ([stage, str(model), str(corpus), "--k-max", str(CONFIG.k_max), "--use-description"]
                if stage == "predict" else [stage, str(corpus)])
        if cli.main([*argv, "--out", str(model.with_suffix(f".{stage}.json"))]):
            sys.exit(f"{stage} failed on {corpus}")
    seconds = perf_counter() - t0
    peak = _bench.status_mb("VmHWM")
    if stage == "train":
        save_checkpoint(result.checkpoint, model)
    return {"growth_mb": None if peak is None else peak - rss_before, "s": seconds}


def measure_point(n_records: int, n_abstract: int, description: tuple[int, int] | None,
                  repeats: int, directory: Path) -> dict:
    """Every stage on one generated corpus, each run `repeats` times in a fresh interpreter."""
    corpus, model = directory / "corpus.jsonl", directory / "model.satn"
    write_jsonl(io_bench.make_corpus(n_records, n_abstract, description, np.random.default_rng(0)), corpus)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    point = {"records": n_records, "file_bytes": corpus.stat().st_size}
    for stage in STAGES:
        argv = [sys.executable, __file__, "--stage", stage, str(corpus), str(model)]
        runs = []
        for _ in range(repeats):
            done = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True, check=True)
            runs.append(json.loads(done.stdout))
        growth = [run["growth_mb"] for run in runs]
        point[stage] = {"peak_growth_mb": None if None in growth else _bench.stats(growth, 1, 2),
                        "s": _bench.stats([run["s"] for run in runs], 1, 3)}
    return point


def slopes(small: dict, large: dict) -> dict:
    """Per stage, the median growth from `small` to `large` per added record, in KB."""
    added = large["records"] - small["records"]
    out = {}
    for stage in STAGES:
        before, after = small[stage]["peak_growth_mb"], large[stage]["peak_growth_mb"]
        out[stage] = None if after is None else round((after["median"] - before["median"]) * 1024 / added, 2)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _bench.parser(__doc__, 3, "toy-size corpora, for tests")
    parser.add_argument("--stage", nargs=3, metavar=("STAGE", "CORPUS", "MODEL"),
                        help="only run one stage (train, evaluate, predict or stats) on CORPUS, in this process")
    args = parser.parse_args(argv)
    if args.stage:
        stage, corpus, model = args.stage
        print(json.dumps(run_stage(stage, Path(corpus), Path(model))))
        return 0
    points = {}
    for name, shape in (TINY_POINTS if args.tiny else POINTS).items():
        with tempfile.TemporaryDirectory() as tmp:
            points[name] = measure_point(*shape, args.repeats, Path(tmp))
    small, large, _ = points.values()
    _bench.report(args, settings={"stages": list(STAGES), "k_max": CONFIG.k_max,
                                  "use_description": CONFIG.use_description, "epochs": CONFIG.max_epochs},
                  points=points, slope_kb_per_doc=slopes(small, large))
    return 0


if __name__ == "__main__":
    sys.exit(main())
