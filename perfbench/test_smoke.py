"""Toy-size runs of the benchmark, so that it cannot rot unnoticed.

    PYTHONPATH=src python -m pytest -q perfbench

No test here looks at how fast anything ran.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from perfbench import inputs, layers, workloads
from perfbench.tracing import Tracer
from sentattn.synth import needle_config
from sentattn.trainer import LEARNED

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_manifest_matches_the_harness():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in MANIFEST["end_to_end"]} \
        == layers.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in MANIFEST["per_layer"]} == layers.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = layers.PER_LAYER if trace else layers.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name][0]
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, name


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "longdoc", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_frozen_copy_is_unchanged():
    """Every figure is relative to perfbench/seedref; editing it rescales them all."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "perfbench" / "seedref").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == "1a0c603685e730d0b070f885a028bf71c97c474e66c669ec049affb4466421d7"


def test_seed_config_carries_every_setting():
    config = needle_config(LEARNED)
    assert repr(workloads._seed_config(config)) == repr(config)


def test_inputs_depend_only_on_the_seed(tmp_path):
    a, b, c = (tmp_path / n for n in "abc")
    for directory, seed in ((a, 1), (b, 1), (c, 2)):
        directory.mkdir()
        inputs.write_longdoc(directory, seed, 4096, n_docs=6, min_chars=200, max_chars=2000,
                             split_seed=42)
    assert (a / "longdoc.jsonl").read_bytes() == (b / "longdoc.jsonl").read_bytes()
    assert (a / "longdoc.jsonl").read_bytes() != (c / "longdoc.jsonl").read_bytes()


def test_evidence_bucket_collisions_are_refused():
    with pytest.raises(ValueError, match="collision"):
        inputs.check_evidence_buckets(inputs.N_CODES, 16)


def test_tracer_self_time_and_absent_sites(monkeypatch):
    fake = types.ModuleType("fake_layers")
    fake.inner = lambda: None

    def outer():
        fake.inner()
        fake.inner()

    fake.outer = outer
    monkeypatch.setitem(sys.modules, "fake_layers", fake)
    tracer = Tracer()
    tracer.wrap("fake.outer", "fake_layers:outer")
    tracer.wrap("fake.inner", "fake_layers:inner")
    tracer.wrap("fake.gone", "fake_layers:removed_function")
    tracer.wrap("fake.gone_class", "fake_layers:Removed.step")
    tracer.wrap("fake.gone_module", "no_such_module:step")
    try:
        fake.outer()
        fake.outer()
    finally:
        tracer.unwrap()
    summary = tracer.summary()
    assert summary["fake.outer"]["calls"] == 2 and summary["fake.inner"]["calls"] == 4
    assert 0 <= summary["fake.outer"]["self_s"] <= summary["fake.outer"]["s"]
    assert len({s.trace for s in tracer.spans}) == 2
    assert tracer.roots() == ["fake.outer"] and tracer.summary("fake.outer") == summary
    assert all(s.parent is not None for s in tracer.spans if s.name == "fake.inner")
    assert tracer.absent == ["fake.gone at fake_layers:removed_function",
                             "fake.gone_class at fake_layers:Removed.step",
                             "fake.gone_module at no_such_module:step"]
    assert fake.outer is outer
