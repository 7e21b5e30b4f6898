import contextlib
import io
import json
import os
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sentattn.cli as cli_mod
import sentattn.corpus as corpus_mod
from sentattn.checkpoint import load_checkpoint, output_file, save_checkpoint, write_checkpoint
from sentattn.cli import (
    EXIT_DATA, EXIT_MEMORY, EXIT_NUMERIC, EXIT_USAGE, BadValue, UnknownKey, load_config, main,
)
from sentattn.corpus import SPLIT_NAMES, PatentRecord
from sentattn.encoder import MEANPOOL, MINITRANSFORMER, ModelDims
from sentattn.synth import make_needle_corpus, write_jsonl
from sentattn.trainer import EmptySplit, TrainConfig, grad_check

from conftest import record_line, write_corpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.jsonl"
    write_jsonl(make_needle_corpus(n_docs=48, n_labels=4, k=8, seed=1), path)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TINY_TRAIN_FLAGS = ["--h", "8", "--f", "8", "--c", "4", "--v-buckets", "256", "--t-max", "12",
                    "--k-max", "8", "--batch-size", "8", "--seed", "3"]

# The two callers of output_file, as commands that write the file {out}:
# --out (split's here) and train's MODEL_OUT. {seed} changes the bytes written.
WRITERS = {
    "--out": ["split", "{corpus}", "--seed", "{seed}", "--out", "{out}"],
    "MODEL_OUT": ["train", "{corpus}", "{out}", *TINY_TRAIN_FLAGS, "--max-epochs", "1", "--patience", "1",
                  "--seed", "{seed}"],
}


def writer_argv(writer: str, out, corpus, seed: int = 3) -> list[str]:
    return [arg.format(out=out, corpus=corpus, seed=seed) for arg in WRITERS[writer]]


@pytest.fixture(scope="module")
def expected_bytes(corpus, tmp_path_factory):
    """What each writer writes at seed 3: split's stdout, and train's checkpoint at a new path."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["split", str(corpus), "--seed", "3"]) == 0
    model = tmp_path_factory.mktemp("expected") / "m.satn"
    assert main(writer_argv("MODEL_OUT", model, corpus)) == 0
    return {"--out": stdout.getvalue().encode("utf-8"), "MODEL_OUT": model.read_bytes()}


class TestLoadConfig:
    def test_typed_values_and_comments(self, tmp_path):
        path = tmp_path / "t.cfg"
        path.write_text("# comment\nh = 64\nlr = 0.01\nuse_description = true\nencoder = meanpool\n")
        assert load_config(path) == {"h": 64, "lr": 0.01, "use_description": True,
                                     "encoder": "meanpool"}

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "t.cfg"
        path.write_text("h = 64\nwat = 9\n")
        with pytest.raises(UnknownKey, match="line 2"):
            load_config(path)

    def test_bad_type_reports_line(self, tmp_path):
        path = tmp_path / "t.cfg"
        path.write_text("h = abc\n")
        with pytest.raises(BadValue, match="line 1"):
            load_config(path)

    def test_every_accepted_key_and_its_type(self, tmp_path):
        expected = {
            "h": 1, "c": 2, "v_buckets": 3, "t_max": 4, "f": 5, "k_max": 6,
            "encoder": "minitransformer", "lr": 0.5, "beta1": 0.25, "beta2": 0.125,
            "adam_eps": 1.0, "batch_size": 7, "max_epochs": 8, "patience": 9, "seed": 10,
            "use_description": True, "attention_mode": "uniform", "log_train_f1": False,
            "threshold": 0.75, "eps": 2.0, "top_c": 11,
        }
        path = tmp_path / "t.cfg"
        path.write_text("".join(f"{key} = {str(value).lower()}\n" for key, value in expected.items()))
        loaded = load_config(path)
        assert loaded == expected
        assert {k: type(v) for k, v in loaded.items()} == {k: type(v) for k, v in expected.items()}

    @pytest.mark.parametrize("line, error", [
        ("dims = 1", UnknownKey), ("stop_at_train_f1 = 1.0", UnknownKey),
        ("seed = 1.5", BadValue), ("lr = fast", BadValue), ("log_train_f1 = 1", BadValue),
        ("seed 3", BadValue),
    ])
    def test_rejected_lines(self, tmp_path, line, error):
        path = tmp_path / "t.cfg"
        path.write_text(line + "\n")
        with pytest.raises(error, match="line 1"):
            load_config(path)


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        code, _, err = run(capsys, "evaluate", "--no-such-flag")
        assert code == 1
        assert "usage" in err.lower()

    def test_help_is_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: sentattn")

    def test_help_through_python_dash_m(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-m", "sentattn", "--help"], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: sentattn")

    def test_data_error_is_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "stats", str(tmp_path / "missing.jsonl"))
        assert code == 2
        assert "FileUnreadable" in err

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("missing", [True, False], ids=["missing file", "directory"])
    def test_unreadable_model_is_data_error(self, capsys, corpus, tmp_path, command, missing):
        model = tmp_path / "nomodel" if missing else tmp_path
        code, out, err = run(capsys, command, str(model), str(corpus))
        assert code == 2
        assert out == ""
        assert f"CheckpointError: cannot read {model}" in err
        assert "Traceback" not in err

    def test_unparseable_labels_is_two(self, capsys, tmp_path):
        lines = [record_line(f"p{i}", ["bogus"]) for i in range(40)]
        path = write_corpus(tmp_path / "bad.jsonl", lines)
        code, _, err = run(capsys, "train", str(path), str(tmp_path / "m.satn"),
                           "--h", "8", "--f", "8", "--c", "4", "--v-buckets", "64",
                           "--t-max", "8", "--k-max", "4", "--max-epochs", "2", "--patience", "2")
        assert code == 2
        assert "NoLabels" in err

    def test_split_of_an_empty_corpus_is_data_error(self, capsys, tmp_path):
        path = write_corpus(tmp_path / "empty.jsonl", ["not json", json.dumps({"id": ""})])
        code, out, err = run(capsys, "split", str(path))
        assert code == 2
        assert out == ""
        assert "EmptyInput" in err

    def test_config_error_is_one(self, capsys, corpus, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mystery = 1\n")
        code, _, err = run(capsys, "stats", str(corpus), "--config", str(cfg))
        assert code == 1
        assert "line 1" in err

    @pytest.mark.parametrize("argv", [
        ["evaluate", "{missing}/m.satn", "{missing}/c.jsonl"],
        ["predict", "{missing}/m.satn", "{missing}/c.jsonl"],
        ["build-vocab", "{missing}/c.jsonl"],
        ["stats", "{missing}/c.jsonl"],
    ], ids=lambda argv: argv[0])
    def test_config_is_read_before_any_model_or_corpus(self, capsys, tmp_path, argv):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mystery = 1\n")
        code, out, err = run(capsys, *(arg.format(missing=tmp_path / "missing") for arg in argv),
                             "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err.startswith("config error: line 1: unknown key 'mystery'")

    def test_non_finite_loss_is_three_and_writes_no_model(self, capsys, corpus, tmp_path):
        # the loss check is the only report: no numpy RuntimeWarning reaches
        # stderr, and tier-1 would turn one into an error
        model = tmp_path / "m.satn"
        code, out, err = run(capsys, "train", str(corpus), str(model), *TINY_TRAIN_FLAGS,
                             "--encoder", "minitransformer", "--lr", "1e30",
                             "--max-epochs", "50", "--patience", "50")
        assert code == EXIT_NUMERIC == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: NonFiniteLoss: epoch "), err
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_loss_keeps_the_previous_model(self, capsys, corpus, tmp_path):
        model = tmp_path / "m.satn"
        model.write_bytes(b"the previous model")
        code, out, err = run(capsys, "train", str(corpus), str(model), *TINY_TRAIN_FLAGS,
                             "--encoder", "minitransformer", "--lr", "1e30",
                             "--max-epochs", "50", "--patience", "50")
        assert code == EXIT_NUMERIC, err
        assert model.read_bytes() == b"the previous model"
        assert list(tmp_path.iterdir()) == [model]

    def test_non_finite_validation_score_is_three_and_writes_no_model(self, capsys, tmp_path):
        # one batch of 64 holds the whole training split, so its loss is taken
        # before the step that overflows; the validation scores that follow are NaN
        write_jsonl(make_needle_corpus(n_docs=48), tmp_path / "c.jsonl")
        code, out, err = run(capsys, "train", str(tmp_path / "c.jsonl"), str(tmp_path / "m.satn"),
                             "--h", "8", "--c", "8", "--v-buckets", "256", "--t-max", "8", "--f", "8",
                             "--encoder", "minitransformer", "--max-epochs", "1", "--patience", "1",
                             "--lr", "1e30", "--batch-size", "64")
        assert code == EXIT_NUMERIC
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: NonFiniteLoss: "), err
        assert [path.name for path in tmp_path.iterdir()] == ["c.jsonl"]

    @pytest.fixture(scope="class", params=[MEANPOOL, MINITRANSFORMER])
    def overflowing_model(self, request, corpus, tmp_path_factory):
        """A model whose tensors, scaled by 1e30, are finite but overflow its forward pass.

        The minitransformer then scores every document NaN; meanpool's scores
        stay finite, every one exactly 0.0 or 1.0, so only the overflow shows.
        """
        model = tmp_path_factory.mktemp("overflow") / "m.satn"
        assert main(["train", str(corpus), str(model), *TINY_TRAIN_FLAGS, "--encoder", request.param,
                     "--max-epochs", "1", "--patience", "1"]) == 0
        ckpt = load_checkpoint(model)
        for _, tensor in ckpt.tensors():
            tensor *= np.float32(1e30)
        save_checkpoint(ckpt, model)
        return model

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_a_model_that_overflows_is_three(self, capsys, corpus, overflowing_model, command):
        code, out, err = run(capsys, command, str(overflowing_model), str(corpus), "--split", "all")
        assert code == EXIT_NUMERIC
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: NonFiniteLoss: "), err

    def test_t_max_below_three_is_usage_error_before_the_corpus_is_read(self, capsys, tmp_path):
        # a sentence holds CLS, a token and SEP
        code, out, err = run(capsys, "train", str(tmp_path / "missing.jsonl"), str(tmp_path / "m.satn"),
                             "--t-max", "2")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: t_max must be at least 3\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_model_of_t_max_below_three_is_data_error(self, capsys, trained, corpus, tmp_path):
        # no constructor makes such dims, so the header is written from dims set after construction
        ckpt = load_checkpoint(trained[0])
        object.__setattr__(ckpt.dims, "t_max", 2)
        ckpt.encoder_params.P = ckpt.encoder_params.P[:2]  # one row per token position
        model = tmp_path / "m.satn"
        with output_file(model) as fh:
            write_checkpoint(ckpt, fh)
        code, out, err = run(capsys, "predict", str(model), str(corpus))
        assert code == EXIT_DATA
        assert out == ""
        assert err == "error: CheckpointError: bad dimensions in header: t_max must be at least 3\n"

    # Run in a child process whose address space is capped at 2 GB, so the
    # 23.8 GiB embedding table that --v-buckets 100000000 asks for at h = 64
    # cannot be allocated, whatever the machine's overcommit policy.
    OUT_OF_MEMORY = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 * 1024**3, resource.getrlimit(resource.RLIMIT_AS)[1]))
from sentattn.cli import main
sys.exit(main(sys.argv[1:]))
"""

    @pytest.mark.skipif(not hasattr(os, "fork") or sys.platform != "linux", reason="caps RLIMIT_AS, as on Linux")
    def test_out_of_memory_is_four_without_a_traceback(self, corpus, tmp_path):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        model = tmp_path / "m.satn"
        done = subprocess.run([sys.executable, "-c", self.OUT_OF_MEMORY, "train", str(corpus), str(model),
                               "--v-buckets", "100000000"], env=env, capture_output=True, text=True)
        assert done.returncode == EXIT_MEMORY == 4, done.stderr
        assert done.stdout == ""
        assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: MemoryError: "), done.stderr
        assert "Traceback" not in done.stderr
        assert not model.exists()

    # Run in a child process whose files may grow to 500 bytes, with SIGXFSZ
    # ignored, so that a write past the limit fails with EFBIG instead of
    # killing the process.
    FILE_TOO_LARGE = """
import resource, signal, sys
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (500, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
from sentattn.cli import main
sys.exit(main(sys.argv[1:]))
"""

    @pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="caps RLIMIT_FSIZE, as on POSIX")
    @pytest.mark.parametrize("target", ["file", "symlink"])
    @pytest.mark.parametrize("writer", WRITERS)
    def test_a_failed_out_write_keeps_the_previous_file(self, capsys, corpus, tmp_path, writer, target):
        out = tmp_path / "out"
        assert main(writer_argv(writer, out, corpus)) == 0
        capsys.readouterr()
        previous = out.read_bytes()
        assert len(previous) > 500
        path = out
        if target == "symlink":  # its target keeps its bytes too: it is not written through
            path = tmp_path / "link"
            path.symlink_to(out)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", self.FILE_TOO_LARGE, *writer_argv(writer, path, corpus, seed=5)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == EXIT_DATA, done.stderr
        *progress, error = done.stderr.splitlines()
        assert error.startswith("error: OSError: [Errno 27] File too large"), done.stderr
        assert all(line.startswith("epoch ") for line in progress), done.stderr
        assert out.read_bytes() == previous
        assert sorted(tmp_path.iterdir()) == sorted({out, path})

    @pytest.mark.parametrize("writer", WRITERS)
    def test_out_through_a_symlink_writes_its_target(self, capsys, corpus, expected_bytes, tmp_path, writer):
        target = tmp_path / "target"
        target.write_text("old")
        link = tmp_path / "link"
        link.symlink_to(target)
        assert main(writer_argv(writer, link, corpus)) == 0
        assert link.is_symlink() and link.readlink() == target
        assert target.read_bytes() == expected_bytes[writer]
        assert sorted(tmp_path.iterdir()) == [link, target]

    @pytest.mark.parametrize("writer", WRITERS)
    def test_out_keeps_the_previous_file_mode(self, capsys, corpus, expected_bytes, tmp_path, writer):
        out = tmp_path / "out"
        out.write_text("old")
        out.chmod(0o640)
        assert main(writer_argv(writer, out, corpus)) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert out.read_bytes() == expected_bytes[writer]

    # A FIFO stands for any target that is not a regular file: it is written
    # through, never replaced. (Never /dev/null: run as root, a wrong replace
    # would swap out the machine's device node.)
    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="makes a FIFO, as on POSIX")
    @pytest.mark.parametrize("writer", WRITERS)
    def test_a_pipe_is_written_through(self, capsys, corpus, expected_bytes, tmp_path, writer):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(writer_argv(writer, fifo, corpus)) == 0
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert received == [expected_bytes[writer]]
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert list(tmp_path.iterdir()) == [fifo]

    @pytest.mark.parametrize("argv", [
        ["evaluate", "{model}", "{corpus}", "--k-max", "0"],
        ["predict", "{model}", "{corpus}", "--k-max", "-3"],
        ["predict", "{model}", "{corpus}", "--threshold", "nan"],
        ["segment", "--k-max", "0"],
        ["build-vocab", "{corpus}", "--top-c", "0"],
        ["stats", "{corpus}", "--top-c", "-1"],
        ["gradcheck", "--eps", "0"],
        ["gradcheck", "--seed", "-1"],
        ["train", "{corpus}", "{out}", "--seed", "-1"],
        ["train", "{corpus}", "{out}", "--beta2", "1.5"],
        ["train", "{corpus}", "{out}", "--lr", "nan"],
        ["train", "{corpus}", "{out}", "--v-buckets", "2147483645"],
        ["split", "{corpus}", "--seed", "-1"],
        ["build-vocab", "{corpus}", "--seed", "-1"],
        ["evaluate", "{model}", "{corpus}", "--seed", "-1"],
        ["predict", "{model}", "{corpus}", "--seed", "-1"],
        # refused before any record is read, so a corpus with no records gets the same answer
        pytest.param(["evaluate", "{model}", "{empty}", "--k-max", "0"], id="evaluate empty --k-max 0"),
        pytest.param(["predict", "{model}", "{empty}", "--k-max", "0"], id="predict empty --k-max 0"),
    ], ids=lambda argv: " ".join(arg for arg in argv if "{" not in arg))
    def test_out_of_range_value_is_usage_error(self, capsys, monkeypatch, trained, corpus, tmp_path, argv):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("One thing. Another thing."))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        names = {"model": trained[0], "corpus": corpus, "out": tmp_path / "m.satn", "empty": empty}
        code, out, err = run(capsys, *(arg.format(**names) for arg in argv))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_a_document_too_large_for_the_cell_index_is_data_error(self, capsys, monkeypatch, corpus, tmp_path):
        # with the cell index capped at 150, a model of 64 buckets still loads, and
        # every needle document (152 to 216 distinct ids x sentences) overflows it
        model = tmp_path / "m.satn"
        assert main(["train", str(corpus), str(model), *TINY_TRAIN_FLAGS, "--v-buckets", "64",
                     "--max-epochs", "1", "--patience", "1"]) == 0
        capsys.readouterr()
        monkeypatch.setattr("sentattn.encoder._INDEX", types.SimpleNamespace(min=np.iinfo(np.int32).min, max=150))
        for command in ("evaluate", "predict"):
            code, out, err = run(capsys, command, str(model), str(corpus), "--k-max", "8")
            assert code == EXIT_DATA
            assert out == ""
            assert err.startswith("error: ShapeMismatch: ") and "overflow the cell index" in err, err
            assert len(err.splitlines()) == 1, err

    def test_undecodable_config_is_usage_error(self, capsys, corpus, tmp_path):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"seed = 1 # caf\xe9\n")
        code, _, err = run(capsys, "stats", str(corpus), "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "config error:" in err
        assert str(cfg) in err


class TestDefaults:
    def test_train_config_from_flags_file_and_defaults(self, capsys, monkeypatch, tmp_path):
        seen = []

        def fake_train(config, corpus_path, on_epoch=None):
            seen.append(config)
            raise EmptySplit("stop before reading the corpus")

        monkeypatch.setattr("sentattn.cli.train", fake_train)
        model = str(tmp_path / "m.satn")
        assert run(capsys, "train", "corpus.jsonl", model)[0] == 2
        cfg = tmp_path / "t.cfg"
        cfg.write_text("lr = 0.5\nseed = 1\nt_max = 9\n")
        assert run(capsys, "train", "corpus.jsonl", model, "--config", str(cfg),
                   "--seed", "2", "--h", "8")[0] == 2
        assert seen == [TrainConfig(dims=ModelDims()),
                        TrainConfig(dims=ModelDims(h=8, t_max=9), lr=0.5, seed=2)]

    def test_gradcheck_without_flags_is_grad_check_defaults(self, capsys):
        code, out, _ = run(capsys, "gradcheck")
        assert code == 0
        report = grad_check()
        assert json.loads(out) == {"encoder": report.kind, "max_rel_error": report.max_rel_error,
                                   "worst_param": report.worst_param, "n_checked": report.n_checked}


class TestStdoutDiscipline:
    def test_stats_stdout_is_pure_json(self, capsys, corpus):
        code, out, _ = run(capsys, "stats", str(corpus), "--top-c", "4")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"counts", "dropped", "skipped"}
        assert payload["dropped"] == 0

    def test_stats_counts_an_undecodable_line(self, capsys, corpus, tmp_path):
        lines = corpus.read_bytes().splitlines(keepends=True)
        lines[3] = lines[3].replace(b'"id"', b'"\xffid"')
        broken = tmp_path / "broken.jsonl"
        broken.write_bytes(b"".join(lines))
        code, out, _ = run(capsys, "stats", str(broken), "--top-c", "4")
        assert code == 0
        assert json.loads(out)["skipped"] == 1

    def test_build_vocab_progress_on_stderr(self, capsys, corpus):
        code, out, err = run(capsys, "build-vocab", str(corpus), "--top-c", "2")
        assert code == 0
        assert json.loads(out)["codes"] == ["A01B", "B82Y"]
        assert "retained" in err

    def test_byte_identical_output_files(self, corpus, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["split", str(corpus), "--seed", "5", "--out", str(out1)]) == 0
        assert main(["split", str(corpus), "--seed", "5", "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()


class TestCorpusCommands:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(["G06N", "G06N 3/00", "H04L", "B82Y 20/00", "A01B", "bogus"]),
                             max_size=4), min_size=1, max_size=12),
           st.integers(1, 6))
    def test_stats_counts_are_build_vocab_counts(self, code_lists, top_c):
        def quietly(command, path):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                return main([command, str(path), "--top-c", str(top_c)]), stdout.getvalue()

        with tempfile.TemporaryDirectory() as tmp:
            path = write_corpus(Path(tmp) / "c.jsonl", [record_line(f"p{i}", codes)
                                                        for i, codes in enumerate(code_lists)])
            (stats_code, stats), (vocab_code, vocab) = (quietly(command, path) for command in ("stats", "build-vocab"))
        assert stats_code == vocab_code  # a corpus with no parseable code fails both alike
        if stats_code == 0:
            vocab, stats = json.loads(vocab), json.loads(stats)
            assert stats["counts"] == dict(zip(vocab["codes"], vocab["counts"]))
            # a record is dropped when no code of it is in the vocabulary
            kept = set(vocab["codes"])
            parsed = [PatentRecord(id="p", ipc_codes=codes).normalized_codes() for codes in code_lists]
            assert stats["dropped"] == sum(not kept.intersection(codes) for codes in parsed)

    def test_split_hashes_each_id_once(self, capsys, monkeypatch, corpus):
        hashed = []
        stable_hash64 = corpus_mod.stable_hash64
        monkeypatch.setattr(corpus_mod, "stable_hash64",
                            lambda seed, rid: hashed.append(rid) or stable_hash64(seed, rid))
        code, out, _ = run(capsys, "split", str(corpus))
        assert code == 0
        payload = json.loads(out)
        assert sorted(hashed) == sorted(rid for name in SPLIT_NAMES for rid in payload[name])
        assert len(hashed) == 48

    def test_split_checks_the_seed_before_reading(self, capsys, tmp_path):
        code, out, err = run(capsys, "split", str(tmp_path / "missing.jsonl"), "--seed", "-1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: seed must be non-negative, got -1\n"


class TestSegmentCommand:
    def test_reads_stdin_writes_sentence_array(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("One thing. Another thing."))
        code, out, _ = run(capsys, "segment")
        assert code == 0
        assert json.loads(out) == ["One thing.", "Another thing."]

    def test_golden_file_through_the_cli(self, capsys, monkeypatch):
        import io
        from pathlib import Path

        golden = json.loads((Path(__file__).parent / "data" / "segmenter_golden.json").read_text())
        for case in golden:
            monkeypatch.setattr("sys.stdin", io.StringIO(case["text"]))
            code, out, _ = run(capsys, "segment")
            assert code == 0
            assert json.loads(out) == case["sentences"], case["text"]

    def test_empty_stdin_is_data_error(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("   "))
        code, _, _ = run(capsys, "segment")
        assert code == 2


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    model = tmp_path_factory.mktemp("model") / "m.satn"
    log = model.with_suffix(".log.jsonl")
    code = main(["train", str(corpus), str(model), "--log-out", str(log),
                 *TINY_TRAIN_FLAGS, "--max-epochs", "4", "--patience", "4"])
    assert code == 0
    return model, log


class TestPipelineCommands:
    def test_train_writes_model_log_and_summary(self, trained, capsys, corpus):
        model, log = trained
        capsys.readouterr()
        assert model.exists()
        assert not list(model.parent.glob("*.tmp"))
        entries = [json.loads(line) for line in log.read_text().splitlines()]
        assert [e["epoch"] for e in entries] == [1, 2, 3, 4]
        assert all({"train_loss", "val_micro_f1", "val_macro_f1"} <= set(e) for e in entries)

    def test_evaluate_json_report(self, trained, capsys, corpus):
        model, _ = trained
        code, out, _ = run(capsys, "evaluate", str(model), str(corpus),
                           "--split", "test", "--k-max", "8", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert {"per_class", "macro", "micro", "totals"} <= set(payload)
        assert len(payload["per_class"]) == 4

    def test_predict_offers_scores_and_attention(self, trained, capsys, corpus):
        model, _ = trained
        code, out, _ = run(capsys, "predict", str(model), str(corpus),
                           "--split", "test", "--seed", "3", "--k-max", "8", "--attention")
        assert code == 0
        payload = json.loads(out)
        assert payload, "test split should not be empty"
        first = payload[0]
        assert {"id", "scores", "predicted", "attention"} <= set(first)
        assert len(first["scores"]) == 4
        assert len(first["attention"]) == 4  # c rows
        assert len(first["attention"][0]) == 8  # k columns

    def test_uniform_model_predicts_uniform_attention(self, capsys, corpus, tmp_path):
        model = tmp_path / "uniform.satn"
        code, _, err = run(capsys, "train", str(corpus), str(model), *TINY_TRAIN_FLAGS,
                           "--attention-mode", "uniform", "--max-epochs", "2", "--patience", "2")
        assert code == 0, err
        code, out, _ = run(capsys, "predict", str(model), str(corpus), "--k-max", "8", "--attention")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 48
        for row in payload:
            alpha = np.array(row["attention"])
            np.testing.assert_array_equal(alpha, np.full(alpha.shape, 1 / alpha.shape[1], np.float32))

    def test_gradcheck_reports_error_and_worst_param(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["max_rel_error"] < 1e-4
        assert payload["worst_param"]

    def test_gradcheck_encoder_flag_picks_the_kind(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--encoder", "minitransformer")
        assert code == 0
        report = grad_check(kind=MINITRANSFORMER)
        assert json.loads(out) == {"encoder": MINITRANSFORMER, "max_rel_error": report.max_rel_error,
                                   "worst_param": report.worst_param, "n_checked": report.n_checked}

    @pytest.mark.parametrize("argv", [
        ["build-vocab", "{corpus}"],
        ["stats", "{corpus}"],
        ["train", "{corpus}", "{out}", *TINY_TRAIN_FLAGS, "--max-epochs", "1", "--patience", "1"],
        ["evaluate", "{model}", "{corpus}", "--k-max", "8"],
        ["predict", "{model}", "{corpus}", "--k-max", "8"],
        ["gradcheck"],
    ], ids=lambda argv: argv[0])
    def test_config_file_is_read_once_per_command(self, capsys, monkeypatch, trained, corpus, tmp_path,
                                                  argv):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("seed = 3\n")
        reads = []

        def counting(path):
            reads.append(path)
            return load_config(path)

        monkeypatch.setattr(cli_mod, "load_config", counting)
        names = {"corpus": corpus, "model": trained[0], "out": tmp_path / "m.satn"}
        code, _, err = run(capsys, *(arg.format(**names) for arg in argv), "--config", str(cfg))
        assert code == 0, err
        assert reads == [str(cfg)]

    @pytest.mark.parametrize("argv", [
        ["split", "{corpus}", "--out", "{missing}/s.json"],
        ["train", "{corpus}", "{missing}/m.satn", *TINY_TRAIN_FLAGS, "--max-epochs", "1", "--patience", "1"],
        ["train", "{corpus}", "{model}", "--log-out", "{missing}/log.jsonl", *TINY_TRAIN_FLAGS],
    ], ids=["--out", "MODEL_OUT", "--log-out"])
    def test_unwritable_output_is_data_error(self, capsys, monkeypatch, corpus, tmp_path, argv):
        def no_training(*args, **kwargs):
            raise AssertionError("train ran before the output path was checked")

        monkeypatch.setattr("sentattn.cli.train", no_training)
        names = {"corpus": corpus, "missing": tmp_path / "missing", "model": tmp_path / "m.satn"}
        code, out, err = run(capsys, *(arg.format(**names) for arg in argv))
        assert code == 2
        assert out == ""
        assert "error: FileNotFoundError: " in err
        assert "Traceback" not in err

    def test_model_out_that_is_a_directory_is_refused_before_training(self, capsys, corpus, tmp_path):
        code, out, err = run(capsys, "train", str(corpus), str(tmp_path), *TINY_TRAIN_FLAGS,
                             "--max-epochs", "2", "--patience", "2")
        assert code == 2
        assert out == ""
        assert "error: IsADirectoryError: " in err
        assert "epoch " not in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_checkpoint_is_data_error(self, trained, capsys, corpus, tmp_path):
        model, _ = trained
        blob = bytearray(model.read_bytes())
        blob[35] ^= 0xFF  # inside the first vocabulary code
        corrupt = tmp_path / "corrupt.satn"
        corrupt.write_bytes(bytes(blob))
        code, out, err = run(capsys, "predict", str(corrupt), str(corpus))
        assert code == 2
        assert out == ""
        assert "ChecksumMismatch" in err

    def test_flag_overrides_config(self, capsys, corpus, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("top_c = 2\n")
        code, out, _ = run(capsys, "build-vocab", str(corpus), "--config", str(cfg),
                           "--top-c", "3")
        assert code == 0
        assert len(json.loads(out)["codes"]) == 3

    def test_train_streams_each_epoch_as_it_ends(self, capsys, corpus, tmp_path, monkeypatch):
        import sentattn.cli as cli_mod

        model, log = tmp_path / "m.satn", tmp_path / "log.jsonl"
        seen = []
        real_train = cli_mod.train

        def spying_train(config, corpus_path, on_epoch):
            def spy(entry):  # runs before the CLI reports this epoch
                seen.append((entry.epoch, log.read_text().splitlines(), capsys.readouterr().err))
                on_epoch(entry)
            return real_train(config, corpus_path, on_epoch=spy)

        monkeypatch.setattr(cli_mod, "train", spying_train)
        code, _, err = run(capsys, "train", str(corpus), str(model), "--log-out", str(log),
                           *TINY_TRAIN_FLAGS, "--max-epochs", "3", "--patience", "3")
        assert code == 0
        assert [epoch for epoch, _, _ in seen] == [1, 2, 3]
        assert seen[0][1:] == ([], "")
        for (epoch, rows, stderr), previous in zip(seen[1:], log.read_text().splitlines()):
            assert rows[-1] == previous and json.loads(previous)["epoch"] == epoch - 1
            assert stderr.startswith(f"epoch {epoch - 1}: loss ")
        assert err.startswith("epoch 3: loss ")

    @pytest.mark.parametrize("curve, warned", [([0.0, 0.0], True), ([0.0, 0.5], False)])
    def test_train_warns_when_the_kept_model_never_scored(self, capsys, corpus, tmp_path, monkeypatch,
                                                          curve, warned):
        scripted = iter(curve)  # one validation micro-F1 per epoch
        monkeypatch.setattr("sentattn.trainer.micro_scores", lambda counts: (0.0, 0.0, next(scripted)))
        code, out, err = run(capsys, "train", str(corpus), str(tmp_path / "m.satn"),
                             *TINY_TRAIN_FLAGS, "--max-epochs", "2", "--patience", "2")
        assert code == 0
        summary = json.loads(out)
        assert summary["epochs_run"] == 2 and summary["best_val_micro_f1"] == max(curve)
        warnings = [line for line in err.splitlines() if line.startswith("warning:")]
        assert warnings == (["warning: best validation micro-F1 is 0; "
                             "the saved model predicts no validation label correctly"] if warned else [])

    def test_train_skips_records_with_lone_surrogates(self, capsys, corpus, tmp_path):
        bad = [json.dumps({"id": "bad\udc00", "title": "T.", "ipc_codes": ["A01B"]}),
               json.dumps({"id": "t1", "title": "A \ud800 title.", "ipc_codes": ["A01B"]}),
               json.dumps({"id": "i1", "title": "T.", "ipc_codes": ["A01B\ud800"]})]
        mixed = write_corpus(tmp_path / "mixed.jsonl", corpus.read_text().splitlines() + bad)
        code, out, err = run(capsys, "train", str(mixed), str(tmp_path / "m.satn"),
                             *TINY_TRAIN_FLAGS, "--max-epochs", "1", "--patience", "1")
        assert code == 0, err
        assert json.loads(out)["skipped"] == 3
        code, out, _ = run(capsys, "stats", str(mixed), "--top-c", "4")
        assert code == 0
        assert json.loads(out)["skipped"] == 3
