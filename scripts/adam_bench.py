#!/usr/bin/env python3
"""Time `Adam.step` by the share of the embedding table that is live, and in one scale-shaped run.

* steps: at the default dims (a 32,772 x 64 float32 E and the meanpool and
  head tensors beside it), one optimizer per live share of E's rows:
  0.3% (about train-meanpool's 111 rows), 10%, 30%, 50%, 75% and 100%.
  Each first gets one gradient on every one of its live rows and one
  untimed step. Then each round adds, to every optimizer in turn, a batch
  gradient on 1,600 of its live rows (about 16 documents) and times one
  `step`. Milliseconds, median and quartiles over --repeats rounds.
* train: one `train()` at the default dims on a Zipf corpus generated
  here: 3,000 records over 30,000 word types, 2 epochs, batch 16. About
  60% of E goes live, so the run goes from stepping a few rows to
  stepping most of the table. Reports the run's wall time, the summed time
  and count of its `Adam.step` calls, how many E rows ended live (rows that
  differ from the seeded init), and the SHA-256 of the checkpoint tensors.

Only `Adam(tensors, lr, beta1, beta2, eps)`, `add`, `step`, `train` and the
init functions are called, so the script times older versions of the
package too. BLAS runs on one thread. Prints one JSON object, and with
--out writes it under the key --side ("before" or "after") of that file,
keeping the other key.

A committed `before` and `after` come from separate processes, run one
after the other, and on a shared VM such a pair cannot resolve a
difference under about 2x: the `segment_us` of prepare_bench.py, whose
code did not change, read 61 -> 120 us between two such runs. To compare
two versions, time both interleaved in one process, importing each from
its own checkout.

Usage: python scripts/adam_bench.py [--repeats N] [--tiny] [--out PATH] [--side before|after]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # read when numpy loads BLAS, so before the import

import argparse
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from sentattn import trainer
from sentattn.corpus import PatentRecord
from sentattn.encoder import MEANPOOL, ModelDims, RowGrad, init_encoder
from sentattn.head import init_head
from sentattn.synth import write_jsonl

DEFAULT_DIMS = ModelDims()
TINY_DIMS = ModelDims(h=4, c=4, v_buckets=400, t_max=8, f=4)
LIVE_SHARES = (0.003, 0.1, 0.3, 0.5, 0.75, 1.0)
BATCH_ROWS = 1600  # distinct E rows of about 16 documents
CODES = [f"{'ABCDEFGH'[i % 8]}{10 + i:02d}{'ABCDEFGHJK'[i % 10]}" for i in range(50)]


def _cpu() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _stats(seconds: list[float]) -> dict[str, float]:
    q1, median, q3 = np.percentile(np.asarray(seconds) * 1e3, [25, 50, 75])
    return {"median": round(float(median), 3), "q1": round(float(q1), 3), "q3": round(float(q3), 3)}


def _tensors(dims: ModelDims, rng: np.random.Generator) -> dict[str, np.ndarray]:
    return dict(init_encoder(MEANPOOL, dims, rng).named_tensors()
                + init_head(dims.c, dims.h, rng).named_tensors())


def _gradients(tensors: dict[str, np.ndarray], ids: np.ndarray, rng: np.random.Generator) -> dict:
    grads = {n: rng.normal(size=p.shape).astype(np.float32) for n, p in tensors.items() if n != "E"}
    width = tensors["E"].shape[1]
    grads["E"] = RowGrad(ids=ids, rows=rng.normal(size=(len(ids), width)).astype(np.float32))
    return grads


def time_steps(dims: ModelDims, repeats: int, rng: np.random.Generator) -> dict[str, dict]:
    """Per live share of E's rows: `Adam.step` in milliseconds, after a batch's gradients."""
    cases = {}
    for share in LIVE_SHARES:
        tensors = _tensors(dims, rng)
        n_rows = len(tensors["E"])
        live = np.sort(rng.choice(n_rows, size=max(1, round(share * n_rows)), replace=False))
        opt = trainer.Adam(tensors, 1e-3, 0.9, 0.999, 1e-8)
        opt.add(_gradients(tensors, live, rng))
        opt.step(1)
        cases[f"{share:.1%}"] = (opt, tensors, live, [])
    for _ in range(repeats):
        for opt, tensors, live, times in cases.values():
            batch = np.sort(rng.choice(live, size=min(BATCH_ROWS, len(live)), replace=False))
            opt.add(_gradients(tensors, batch, rng))
            t0 = perf_counter()
            opt.step(16)
            times.append(perf_counter() - t0)
    return {name: {"live_rows": len(live), "step_ms": _stats(times)}
            for name, (_, _, live, times) in cases.items()}


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


def time_train(dims: ModelDims, n_records: int, n_types: int, rng: np.random.Generator) -> dict:
    """One train() on a generated Zipf corpus, with its Adam.step calls timed."""
    config = trainer.TrainConfig(dims=dims, max_epochs=2, patience=2, seed=0)
    step = trainer.Adam.step
    step_times = []

    def timed_step(self, n_docs):
        t0 = perf_counter()
        step(self, n_docs)
        step_times.append(perf_counter() - t0)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "zipf.jsonl"
        write_jsonl(make_zipf_corpus(n_records, n_types, rng), path)
        trainer.Adam.step = timed_step
        try:
            t0 = perf_counter()
            result = trainer.train(config, path)
            train_s = perf_counter() - t0
        finally:
            trainer.Adam.step = step
    ckpt = result.checkpoint
    initial = init_encoder(MEANPOOL, dims, np.random.default_rng(config.seed)).E  # E is drawn first
    live_rows = int(np.count_nonzero((ckpt.encoder_params.E != initial).any(axis=1)))
    digest = hashlib.sha256(b"".join(t.tobytes() for _, t in ckpt.tensors())).hexdigest()
    return {
        "records": n_records, "word_types": n_types, "epochs": len(result.epochs),
        "train_s": round(train_s, 3), "adam_step_s": round(sum(step_times), 3),
        "adam_steps": len(step_times), "live_rows": live_rows, "table_rows": len(initial),
        "checkpoint_sha256": digest,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=50)
    parser.add_argument("--tiny", action="store_true", help="toy-size tables and corpus, for tests")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--side", choices=("before", "after"), default="after")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    rng = np.random.default_rng(0)
    dims = TINY_DIMS if args.tiny else DEFAULT_DIMS
    report = {
        "machine": {"cpu": _cpu(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]},
        "repeats": args.repeats,
        "steps": time_steps(dims, args.repeats, rng),
        "train": time_train(dims, *((80, 300) if args.tiny else (3000, 30000)), rng),
    }
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        sides = json.loads(args.out.read_text()) if args.out.exists() else {}
        sides[args.side] = report
        args.out.write_text(json.dumps(sides, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
