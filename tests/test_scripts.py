import dataclasses
import importlib.util
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))  # so scripts import their shared `_bench`, as `python scripts/x.py` does
MACHINE_KEYS = {"cpu", "cpus", "python", "numpy", "blas_threads"}


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_needle_experiment_leaves_no_temp_files(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    code = load_script("needle_experiment").main(["--max-epochs", "1"])
    summary = json.loads(capsys.readouterr().out)
    assert code in (0, 1)
    assert len(summary["ablation_epochs"]) == 1
    assert list(tmp_path.iterdir()) == []


def test_gradcheck_sweep_checks_both_encoder_kinds(capsys):
    code = load_script("gradcheck_sweep").main(["--instances", "1"])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [row["encoder"] for row in summary["results"]] == ["meanpool", "minitransformer"]
    assert all(row["instances"] == 1 for row in summary["results"])


def test_gradcheck_sweep_reports_a_nan_instance_as_the_worst(capsys, monkeypatch):
    sweep = load_script("gradcheck_sweep")
    grad_check = sweep.grad_check

    def nan_at_seed_zero(kind, seed, **kwargs):
        report = grad_check(kind=kind, seed=seed, **kwargs)
        return dataclasses.replace(report, max_rel_error=math.nan, worst_param="q[0]") if seed == 0 else report

    monkeypatch.setattr(sweep, "grad_check", nan_at_seed_zero)
    code = sweep.main(["--instances", "2"])
    summary = json.loads(capsys.readouterr().out)
    assert code == 1
    for row in summary["results"]:
        assert math.isnan(row["worst_rel_error"]) and row["worst_param"] == "q[0]"


def test_encoder_bench_times_both_kinds_at_every_shape(capsys, tmp_path):
    out = tmp_path / "bench.json"
    code = load_script("encoder_bench").main(["--tiny", "--repeats", "2", "--out", str(out)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert json.loads(out.read_text()) == {"after": report}
    assert set(report["machine"]) == MACHINE_KEYS
    assert list(report["shapes"]) == ["bench", "longdoc", "zipf-k128", "worst"]
    for name, shape in report["shapes"].items():
        assert shape["k"] == 3 and shape["layout_us"]["median"] > 0
        assert shape["batch"] == (16 if name in ("bench", "longdoc") else 1)
        for kind in ("meanpool", "minitransformer"):
            assert 0 < shape[kind]["forward_us"]["median"] <= shape[kind]["total_us"]["q3"]
            assert shape[kind]["document_forward_us"]["median"] > 0
            assert ("batch16_step_us" in shape[kind]) == (shape["batch"] == 16)


def test_prepare_bench_times_every_stage_at_every_shape(capsys, tmp_path):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"after": {"kept": True}}))
    bench = load_script("prepare_bench")
    code = bench.main(["--tiny", "--repeats", "2", "--docs", "3", "--out", str(out), "--side", "before"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert json.loads(out.read_text()) == {"after": {"kept": True}, "before": report}
    assert set(report["machine"]) == MACHINE_KEYS
    assert list(report["shapes"]) == ["abstract", "description", "zipf", "marks"]
    # the marks shape ends every sentence in "!" or "?", so past the title the scan runs the full
    # boundary pattern
    _, _, _, *shape = bench.TINY["marks"]
    for record in bench.make_records(3, *shape, np.random.default_rng(0)):
        body = record.abstract + record.description
        assert "." not in body and "!" in body and "?" in body
    assert report["shapes"]["description"]["first_document"]["sentences"] == \
        report["shapes"]["description"]["k_max"]
    for shape in report["shapes"].values():
        assert shape["first_document"]["tokens"] > shape["first_document"]["sentences"] > 0
        for stage in ("segment_us", "tokenize_us", "layout_us", "prepare_us"):
            for stats in (shape[stage], shape["cold"][stage]):
                assert 0 < stats["q1"] <= stats["median"] <= stats["q3"]


def test_adam_bench_times_every_live_share_and_a_train_run(capsys, tmp_path):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"before": {"kept": True}}))
    code = load_script("adam_bench").main(["--tiny", "--repeats", "2", "--out", str(out)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert json.loads(out.read_text()) == {"before": {"kept": True}, "after": report}
    assert set(report["machine"]) == MACHINE_KEYS
    assert list(report["steps"]) == ["0.3%", "10.0%", "30.0%", "50.0%", "75.0%", "100.0%"]
    assert report["steps"]["100.0%"]["live_rows"] == report["train"]["table_rows"]
    for share in report["steps"].values():
        assert 0 < share["step_ms"]["q1"] <= share["step_ms"]["median"] <= share["step_ms"]["q3"]
    train = report["train"]
    assert train["epochs"] == 2 and train["adam_steps"] > 0
    assert 0 <= train["adam_step_s"] <= train["train_s"]
    assert 0 < train["live_rows"] < train["table_rows"]
    assert train["live_rows"] <= train["adam_e_rows"] <= train["table_rows"]
    if Path("/proc/self/status").exists():
        assert train["peak_rss_growth_mb"] > 0


def test_adam_bench_train_corpus_does_not_move_with_the_steps_section(capsys):
    runs = []
    for repeats in ("1", "3"):
        assert load_script("adam_bench").main(["--tiny", "--repeats", repeats]) == 0
        runs.append(json.loads(capsys.readouterr().out)["train"])
    assert runs[0]["checkpoint_sha256"] == runs[1]["checkpoint_sha256"]
    assert runs[0]["live_rows"] == runs[1]["live_rows"]


def test_io_bench_times_every_stage(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"before": {"kept": True}}))
    code = load_script("io_bench").main(["--tiny", "--repeats", "2", "--out", str(out)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert json.loads(out.read_text()) == {"before": {"kept": True}, "after": report}
    assert set(report["machine"]) == MACHINE_KEYS
    checkpoints = [f"checkpoint/{dims}/{kind}/{op}" for dims in ("default", "longdoc")
                   for kind in ("meanpool", "minitransformer") for op in ("save", "load")]
    assert list(report["stages"]) == ["corpus/long_description", "corpus/short_lines", *checkpoints]
    for name, stage in report["stages"].items():
        assert stage["file_bytes"] > 0 and stage["peak_x_file"] > 0, name
        assert 0 < stage["ms"]["q1"] <= stage["ms"]["median"] <= stage["ms"]["q3"], name
    assert list(tmp_path.iterdir()) == [out]


def test_corpus_bench_measures_every_stage_at_every_point(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"before": {"kept": True}}))
    code = load_script("corpus_bench").main(["--tiny", "--repeats", "1", "--out", str(out)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert json.loads(out.read_text()) == {"before": {"kept": True}, "after": report}
    assert set(report["machine"]) == MACHINE_KEYS
    assert list(report["points"]) == ["longdoc_10", "longdoc_30", "abstract_30"]
    stages = ["train", "evaluate", "predict", "stats"]
    for name, point in report["points"].items():
        assert point["records"] == int(name.split("_")[1]) and point["file_bytes"] > 0
        for stage in stages:
            assert point[stage]["s"]["median"] > 0, (name, stage)
            if Path("/proc/self/status").exists():
                assert point[stage]["peak_growth_mb"]["median"] > 0, (name, stage)
    assert list(report["slope_kb_per_doc"]) == stages
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("name", ["adam_bench", "corpus_bench", "encoder_bench", "io_bench", "prepare_bench"])
def test_bench_help_describes_the_script(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "200")  # argparse wraps the description to the terminal's width
    script = load_script(name)
    with pytest.raises(SystemExit) as exit_:
        script.main(["--help"])
    assert exit_.value.code == 0
    assert script.__doc__.splitlines()[0] in capsys.readouterr().out
