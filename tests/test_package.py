from pathlib import Path

import sentattn


def test_every_exported_name_resolves():
    assert len(set(sentattn.__all__)) == len(sentattn.__all__)
    assert [name for name in sentattn.__all__ if not hasattr(sentattn, name)] == []


def test_star_import():
    namespace = {}
    exec("from sentattn import *", namespace)
    assert set(sentattn.__all__) <= set(namespace)


def test_one_writer_replaces_output_files():
    # output_file holds the package's one file-replace rule; a second copy of it
    # would bring back writers that disagree on symlinks and permissions
    source = "".join(path.read_text(encoding="utf-8") for path in Path(sentattn.__file__).parent.glob("*.py"))
    assert source.count("os.replace(") == 1
    assert source.count("os.fsync(") == 1


def test_one_batch_loop():
    # _batches cuts every pass's documents into batches; grad_check builds its own two-document one
    source = (Path(sentattn.__file__).parent / "trainer.py").read_text(encoding="utf-8")
    assert source.count("BatchLayout(") == 2
