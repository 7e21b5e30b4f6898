#!/usr/bin/env python3
"""Needle-sentence experiment: learned sentence attention vs uniform pooling.

Generates the 64-document synthetic corpus (8 labels, 32 sentences per
document, one evidence sentence per positive label), trains the MeanPool
encoder with the attention head until training micro-F1 first reaches 1.0,
then reruns with attention frozen to uniform (alpha = 1/k) on the same
corpus for the same number of epochs. Prints a JSON summary.

Usage: python scripts/needle_experiment.py [--corpus-out PATH] [--max-epochs N]
"""

import argparse
import json
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

from sentattn.synth import (
    check_no_bucket_collisions,
    make_needle_corpus,
    needle_config,
    run_needle_experiment,
    write_jsonl,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus-out", help="where to write the generated corpus JSONL")
    parser.add_argument("--max-epochs", type=int, default=200)
    args = parser.parse_args(argv)

    check_no_bucket_collisions(8, needle_config().dims.v_buckets)
    with tempfile.TemporaryDirectory() as scratch:
        corpus = Path(args.corpus_out) if args.corpus_out else Path(scratch) / "needle.jsonl"
        write_jsonl(make_needle_corpus(), corpus)
        print(f"corpus: {corpus}", file=sys.stderr)

        start = time.monotonic()
        outcome, attention_run, ablation = run_needle_experiment(corpus, max_epochs=args.max_epochs)
        elapsed = time.monotonic() - start

    summary = {
        **asdict(outcome),
        "wall_seconds": round(elapsed, 1),
        "attention_epochs_tail": [asdict(e) for e in attention_run.epochs[-3:]],
        "ablation_epochs": [asdict(e) for e in ablation.epochs[-3:]],
    }
    print(json.dumps(summary, indent=2))
    return 0 if outcome.attention_train_micro_f1 == 1.0 and outcome.gap > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
