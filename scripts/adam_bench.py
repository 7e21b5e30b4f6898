#!/usr/bin/env python3
"""Time `Adam.step` by the size of the compact embedding table, and in one scale-shaped run.

* steps: at the default dims (a 32,772 x 64 float32 E and the meanpool and
  head tensors beside it), one optimizer per compact table, the first
  0.3% (98 rows, about train-meanpool's), 10%, 30%, 50%, 75% and 100%
  (32,772) of E's rows, as `train()` hands Adam only the rows its prepared
  documents read. Each first gets one gradient on every one of its rows
  and one untimed step. Then each round adds, to every optimizer in turn,
  a batch gradient on 1,600 of its rows (about 16 documents) and times one
  `step`. Milliseconds, median and quartiles over --repeats rounds.
* train: one `train()` at the default dims on a Zipf corpus generated
  here from its own seeded generator, so it is the same whatever --repeats
  or the steps section draw: 3,000 records over 30,000 word types, 2
  epochs, batch 16. Its documents read about 60% of E, so Adam steps a
  table of that size from the first step. Reports the run's wall time,
  the summed time and count of its `Adam.step` calls, the rows of the E
  that Adam steps, how many E rows ended live (rows that differ from the
  seeded init), the SHA-256 of the checkpoint tensors, and how far the
  peak resident set rose over the run (VmHWM at its end less VmRSS at its
  start, in MB; null where /proc/self/status is missing). The run is made
  in a fresh interpreter, so that no buffer of the steps section is
  counted or reused.

Only `Adam(tensors, lr, beta1, beta2, eps)`, `step`, `train` and the init
functions are called, and the untimed gradients are added straight into
the optimizer's `grad` sums, so the script times every older version of
the package whose `Adam` has a `grad` dict.

Usage: python scripts/adam_bench.py [--repeats N] [--tiny] [--out PATH] [--side before|after]
       python scripts/adam_bench.py [--tiny] --train-corpus PATH   (the train section alone)
"""

import _bench  # pins BLAS to one thread, so before numpy
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from sentattn import trainer
from sentattn.corpus import PatentRecord
from sentattn.encoder import MEANPOOL, ModelDims, init_encoder
from sentattn.head import init_head
from sentattn.synth import write_jsonl

DEFAULT_DIMS = ModelDims()
TINY_DIMS = ModelDims(h=4, c=4, v_buckets=400, t_max=8, f=4)
TABLE_SHARES = (0.003, 0.1, 0.3, 0.5, 0.75, 1.0)  # of E's rows
BATCH_ROWS = 1600  # distinct E rows of about 16 documents
CORPUS_SEED = 1  # of the train section's Zipf corpus
CODES = [f"{'ABCDEFGH'[i % 8]}{10 + i:02d}{'ABCDEFGHJK'[i % 10]}" for i in range(50)]


def _tensors(dims: ModelDims, rng: np.random.Generator) -> dict[str, np.ndarray]:
    return dict(init_encoder(MEANPOOL, dims, rng).named_tensors()
                + init_head(dims.c, dims.h, rng).named_tensors())


def _add_gradients(opt: trainer.Adam, ids: np.ndarray, rng: np.random.Generator) -> None:
    """Add one batch's gradients into the optimizer's sums: every tensor but E whole, then E's rows `ids`."""
    for name, total in opt.grad.items():
        if name != "E":
            total += rng.normal(size=total.shape).astype(np.float32)
    E = opt.grad["E"]
    E[ids] += rng.normal(size=(len(ids), E.shape[1])).astype(np.float32)


def time_steps(dims: ModelDims, repeats: int, rng: np.random.Generator) -> dict[str, dict]:
    """Per compact table of E's rows: `Adam.step` in milliseconds, after a batch's gradients."""
    cases = {}
    for share in TABLE_SHARES:
        tensors = _tensors(dims, rng)
        n_rows = max(1, round(share * len(tensors["E"])))
        tensors["E"] = tensors["E"][:n_rows].copy()
        opt = trainer.Adam(tensors, 1e-3, 0.9, 0.999, 1e-8)
        _add_gradients(opt, np.arange(n_rows), rng)
        opt.step(1)
        cases[f"{share:.1%}"] = (opt, tensors, n_rows, [])
    for _ in range(repeats):
        for opt, tensors, n_rows, times in cases.values():
            batch = np.sort(rng.choice(n_rows, size=min(BATCH_ROWS, n_rows), replace=False))
            _add_gradients(opt, batch, rng)
            t0 = perf_counter()
            opt.step(16)
            times.append(perf_counter() - t0)
    return {name: {"live_rows": n_rows, "step_ms": _bench.stats(times, 1e3, 3)}
            for name, (_, _, n_rows, times) in cases.items()}


def make_zipf_corpus(n_records: int, n_types: int, rng: np.random.Generator) -> list[PatentRecord]:
    """Records whose words are Zipf-distributed over n_types word types, with 1-3 labels each."""
    def sentence(n_words: int) -> str:
        ranks = (rng.zipf(1.1, size=n_words) - 1) % n_types
        return " ".join(f"w{r}" for r in ranks).capitalize() + "."

    records = []
    for i in range(n_records):
        labels = rng.choice(len(CODES), size=int(rng.integers(1, 4)), replace=False)
        records.append(PatentRecord(
            id=f"zipf-{i:05d}",
            title=sentence(6)[:-1],
            abstract=" ".join(sentence(int(rng.integers(8, 16))) for _ in range(8)),
            ipc_codes=[f"{CODES[int(label)]} 1/00" for label in labels],
        ))
    return records


def time_train(dims: ModelDims, path: Path) -> dict:
    """One train() on the corpus at `path`, with its Adam.step calls timed."""
    config = trainer.TrainConfig(dims=dims, max_epochs=2, patience=2, seed=0)
    step = trainer.Adam.step
    step_times = []
    e_rows = None

    def timed_step(self, n_docs):
        nonlocal e_rows
        t0 = perf_counter()
        step(self, n_docs)
        step_times.append(perf_counter() - t0)
        e_rows = len(self.tensors["E"])

    trainer.Adam.step = timed_step
    try:
        rss_before = _bench.status_mb("VmRSS")
        t0 = perf_counter()
        result = trainer.train(config, path)
        train_s = perf_counter() - t0
        peak = _bench.status_mb("VmHWM")
    finally:
        trainer.Adam.step = step
    ckpt = result.checkpoint
    initial = init_encoder(MEANPOOL, dims, np.random.default_rng(config.seed)).E  # E is drawn first
    live_rows = int(np.count_nonzero((ckpt.encoder_params.E != initial).any(axis=1)))
    digest = hashlib.sha256(b"".join(t.tobytes() for _, t in ckpt.tensors())).hexdigest()
    return {
        "epochs": len(result.epochs), "train_s": round(train_s, 3),
        "adam_step_s": round(sum(step_times), 3), "adam_steps": len(step_times), "adam_e_rows": e_rows,
        "live_rows": live_rows, "table_rows": len(initial), "checkpoint_sha256": digest,
        "peak_rss_growth_mb": None if peak is None else round(peak - rss_before, 2),
    }


def time_train_fresh(tiny: bool, n_records: int, n_types: int, rng: np.random.Generator) -> dict:
    """time_train on a generated Zipf corpus, in a fresh interpreter running this script."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "zipf.jsonl"
        write_jsonl(make_zipf_corpus(n_records, n_types, rng), path)
        argv = [sys.executable, __file__, "--train-corpus", str(path)] + (["--tiny"] if tiny else [])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return {"records": n_records, "word_types": n_types, **json.loads(out.stdout)}


def main(argv: list[str] | None = None) -> int:
    parser = _bench.parser(__doc__, 50, "toy-size tables and corpus, for tests")
    parser.add_argument("--train-corpus", type=Path, help="only time one train() on this corpus")
    args = parser.parse_args(argv)

    dims = TINY_DIMS if args.tiny else DEFAULT_DIMS
    rng = np.random.default_rng(0)  # loads numpy.random, so a train run does not count it
    if args.train_corpus:
        print(json.dumps(time_train(dims, args.train_corpus)))
        return 0
    _bench.report(args, steps=time_steps(dims, args.repeats, rng),
                  train=time_train_fresh(args.tiny, *((80, 300) if args.tiny else (3000, 30000)),
                                         np.random.default_rng(CORPUS_SEED)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
