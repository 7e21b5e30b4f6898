"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).
"""

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from sentattn.corpus import SPLIT_NAMES, MalformedIpc, PatentRecord, build_vocabulary, parse_ipc, split_records
from sentattn.encoder import MEANPOOL, MINITRANSFORMER, ModelDims, encode_document, init_encoder
from sentattn.head import HeadParams, head_forward, init_head
from sentattn.metrics import ConfusionCounts, macro_scores, micro_scores
from sentattn.segmenter import segment
from sentattn.synth import (
    check_no_bucket_collisions,
    make_needle_corpus,
    needle_config,
    run_needle_experiment,
    write_jsonl,
)
from sentattn.trainer import grad_check
from sentattn.checkpoint import load_checkpoint, save_checkpoint
from sentattn.trainer import train
from sentence_layout import batch_of
from test_metrics import naive_macro, naive_micro, naive_recount, two_class_fixture

DATA = Path(__file__).parent / "data"


def _verdict(name: str, ok: bool) -> None:
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}", file=sys.stderr)
    assert ok, name


def test_gradient_suite():
    """>= 20 seeded random instances per encoder kind, max rel error < 1e-4, under a minute."""
    start = time.monotonic()
    worst = 0.0
    dims = ModelDims(h=8, c=3, v_buckets=8, t_max=6, f=6)
    for kind in (MEANPOOL, MINITRANSFORMER):
        for seed in range(20):
            report = grad_check(kind=kind, seed=seed, eps=1e-3, dims=dims, k=4)
            worst = max(worst, report.max_rel_error)
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 60.0
    print(f"  gradient suite: worst rel error {worst:.3e} in {elapsed:.1f}s", file=sys.stderr)
    _verdict("gradient-suite", ok)


def test_attention_invariants():
    """100 random (D, S): stochastic rows, tanh-capped sharpness, permutation-stable scores."""
    rng = np.random.default_rng(2024)
    cap = math.e**2 + 1e-6
    ok = True
    for _ in range(100):
        h, k, c = (int(rng.integers(2, 9)) for _ in range(3))
        D = rng.normal(scale=float(rng.uniform(0.1, 10.0)), size=(h, k))
        params = HeadParams(S=rng.normal(size=(c, h)), W=rng.normal(size=(c, h)),
                            b=rng.normal(size=c))
        cache = head_forward(D, params)
        ok &= bool(np.all(np.abs(cache.alpha.sum(axis=1) - 1.0) < 1e-6))
        ok &= bool(np.all(cache.alpha.max(axis=1) / cache.alpha.min(axis=1) <= cap))
        perm = rng.permutation(k)
        permuted = head_forward(D[:, perm], params)
        ok &= bool(np.all(np.abs(permuted.scores - cache.scores) <= 1e-6))
    _verdict("attention-invariants", ok)


def test_metrics_oracle():
    """1000 random pairs at c=50 against a naive recount, plus the fixed two-class fixture."""
    rng = np.random.default_rng(99)
    c = 50
    pairs = [(rng.integers(0, 2, c), rng.integers(0, 2, c)) for _ in range(1000)]
    counts = ConfusionCounts(c)
    for pred, target in pairs:
        counts.accumulate(pred, target)
    tp, fp, fn = naive_recount(pairs, c)
    ok = counts.tp.tolist() == tp and counts.fp.tolist() == fp and counts.fn.tolist() == fn
    for got, want in zip(macro_scores(counts), naive_macro(tp, fp, fn)):
        ok &= abs(got - want) < 1e-12
    for got, want in zip(micro_scores(counts), naive_micro(tp, fp, fn)):
        ok &= abs(got - want) < 1e-12
    fixture = two_class_fixture()
    ok &= macro_scores(fixture)[2] == 0.75
    ok &= abs(micro_scores(fixture)[2] - 2 / 3) < 1e-15
    _verdict("metrics-oracle", ok)


def test_needle_experiment(tmp_path):
    """Learned attention overfits the needle corpus; uniform pooling lags at that epoch."""
    check_no_bucket_collisions(8, needle_config().dims.v_buckets)
    corpus = tmp_path / "needle.jsonl"
    write_jsonl(make_needle_corpus(), corpus)
    start = time.monotonic()
    outcome, attention_run, _ = run_needle_experiment(corpus)
    elapsed = time.monotonic() - start
    assert attention_run.epochs[9].train_loss < attention_run.epochs[0].train_loss
    ok = (
        outcome.attention_first_perfect_epoch is not None
        and outcome.attention_first_perfect_epoch <= 200
        and outcome.attention_train_micro_f1 == 1.0
        and outcome.ablation_train_micro_f1 < 1.0
        and elapsed < 120.0
    )
    print(f"  needle: perfect @ epoch {outcome.attention_first_perfect_epoch}, "
          f"ablation {outcome.ablation_train_micro_f1:.4f}, {elapsed:.1f}s", file=sys.stderr)
    _verdict("needle-experiment", ok)

    # regression alarm against the recorded first run; loose enough to absorb
    # platform-level float drift, tight enough to flag algorithm changes
    recorded = json.loads((DATA / "needle_regression.json").read_text())
    assert abs(outcome.attention_first_perfect_epoch - recorded["attention_first_perfect_epoch"]) <= 25
    assert abs(outcome.ablation_train_micro_f1 - recorded["ablation_train_micro_f1"]) <= 0.25


def test_pipeline_determinism(tmp_path):
    """Split ratios, byte-identical reruns, bit-exact round-trip, segmenter goldens."""
    records = [PatentRecord(id=f"p{i}", title="t") for i in range(10000)]
    fractions = [len(list(split_records(records, 42, name))) / 1e4 for name in SPLIT_NAMES]
    ok = abs(fractions[0] - 0.80) <= 0.01 and all(abs(f - 0.10) <= 0.01 for f in fractions[1:])

    corpus = tmp_path / "train.jsonl"
    write_jsonl(make_needle_corpus(n_docs=48, n_labels=4, k=8, seed=1), corpus)
    config = needle_config(max_epochs=5)
    from dataclasses import replace

    config = replace(config, dims=ModelDims(h=8, c=4, v_buckets=256, t_max=12, f=8),
                     k_max=8, patience=5, seed=3, stop_at_train_f1=None)
    blobs = []
    for run in range(2):
        result = train(config, corpus)
        path = tmp_path / f"run{run}.satn"
        save_checkpoint(result.checkpoint, path)
        blobs.append(path.read_bytes())
    ok &= blobs[0] == blobs[1]

    ckpt = load_checkpoint(tmp_path / "run0.satn")
    sentences = [np.array([1, 9, 17, 2]), np.array([1, 30, 2])]
    loaded_again = load_checkpoint(tmp_path / "run0.satn")
    layout = batch_of(sentences)
    before, _ = encode_document(layout, ckpt.encoder_params)
    after, _ = encode_document(layout, loaded_again.encoder_params)
    ok &= bool(np.array_equal(
        head_forward(before, ckpt.head_params).scores,
        head_forward(after, loaded_again.head_params).scores,
    ))

    golden = json.loads((DATA / "segmenter_golden.json").read_text())
    ok &= len(golden) == 20
    for case in golden:
        ok &= [s.text for s in segment(case["text"], 128)] == case["sentences"]
    _verdict("pipeline-determinism", ok)


def test_ipc_conformance():
    """Fig-style code forms normalize to the subclass; sections outside A-H rejected;
    vocabulary ranking matches a brute-force frequency oracle on 1000 records."""
    ok = parse_ipc("B82Y 20/00") == "B82Y"
    for bad in ("I01A 1/00", "Z99X 1/00", "J06N"):
        try:
            parse_ipc(bad)
            ok = False
        except MalformedIpc:
            pass

    rng = np.random.default_rng(7)
    pool = [f"{'ABCDEFGH'[i % 8]}{i % 10}{(3 * i) % 10}{chr(65 + (5 * i) % 26)}" for i in range(40)]
    records = []
    for i in range(1000):
        codes = [pool[int(j)] for j in rng.integers(0, len(pool), size=int(rng.integers(1, 5)))]
        records.append(PatentRecord(id=f"r{i}", title="t", ipc_codes=codes))
    from collections import Counter

    oracle = Counter()
    for r in records:
        oracle.update({parse_ipc(code) for code in r.ipc_codes})
    expected = sorted(oracle.items(), key=lambda kv: (-kv[1], kv[0]))[:50]
    vocab = build_vocabulary(records, top_c=50)
    ok &= list(zip(vocab.codes, vocab.counts)) == expected
    _verdict("ipc-conformance", ok)
