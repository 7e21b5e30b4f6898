import importlib.util
import json
import tempfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
