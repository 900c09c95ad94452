"""`jrme.atomic_write`, the one routine behind every output and the kernel:
each call writes its own `<path>.<pid>.tmp`, created exclusively, and
renames it over the target."""

import os
import subprocess
import sys

import pytest

from jrme import atomic_write
from jrme.cli import _write_json
from jrme.config import ModelConfig
from jrme.embeddings import init_embeddings, save_model
from jrme.evaluation import EvalReport, write_ranks_tsv
from reference import child_env
from synth_data import make_vocab

# writes half of its file, says so, and writes the rest once a line comes in
WRITER = """\
import sys
from jrme import atomic_write
with atomic_write(sys.argv[1]) as f:
    f.write("child\\n")
    f.flush()
    print("ready", flush=True)
    sys.stdin.readline()
    f.write("end\\n")
"""


def test_two_writers_of_one_target_each_rename_a_whole_file(tmp_path):
    target = tmp_path / "out.txt"
    with subprocess.Popen([sys.executable, "-c", WRITER, str(target)], env=child_env(),
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as child:
        assert child.stdout.readline() == "ready\n"
        # this process writes and renames while the child is mid-write
        with atomic_write(target) as f:
            f.write("parent\n")
        assert target.read_text() == "parent\n"
        _, err = child.communicate("go\n", timeout=60)
    assert child.returncode == 0, err
    # the child renamed last: the target is all of its bytes, none of ours
    assert target.read_text() == "child\nend\n"
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize("kind", ["file", "fifo"])
def test_a_file_at_the_temp_name_is_neither_opened_changed_nor_deleted(tmp_path, kind):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    squatter = tmp_path / f"out.bin.{os.getpid()}.tmp"
    if kind == "file":
        squatter.write_bytes(b"not jrme's")
    else:
        os.mkfifo(squatter)
    before = os.stat(squatter)
    # a reader: on the FIFO it lets an open to write go through and gets
    # whatever was written; on the file it reads the bytes there
    reader = os.open(squatter, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with pytest.raises(FileExistsError), atomic_write(target, "wb") as f:
            f.write(b"new")
        assert os.read(reader, 64) == (b"not jrme's" if kind == "file" else b"")
    finally:
        os.close(reader)
    after = os.stat(squatter)
    assert (after.st_ino, after.st_mode, after.st_size, after.st_mtime_ns) == (
        before.st_ino, before.st_mode, before.st_size, before.st_mtime_ns)
    assert target.read_bytes() == b"old"
    assert sorted(tmp_path.iterdir()) == [target, squatter]


def _writers():
    """(file name, exception, write(path, fail)) for `atomic_write` and each
    writer of an output through it.  With fail, a write has other bytes to
    write and stops part way, as each can: its block raises, its rename
    fails, its ranks or its JSON value cannot be read."""
    vocab = make_vocab(8, 3, 5)
    config = ModelConfig(dim=6)
    table = init_embeddings(vocab, config)

    def text(path, fail):
        with atomic_write(path) as f:
            f.write("half" if fail else "whole")
            if fail:
                raise RuntimeError

    def rename_fails(src, dst):
        raise OSError("rename failed")

    def model(path, fail):
        with pytest.MonkeyPatch.context() as m:
            if fail:
                m.setattr(os, "replace", rename_fails)
            save_model(table, vocab, config, path, "kre" if fail else "jrme")

    def ranks(path, fail):
        def ranks():
            yield from [1, 4] if fail else [2]
            if fail:
                raise OSError("disk full")

        write_ranks_tsv(EvalReport(2.5, 1.0, 0.5, ranks()), path)

    def json(path, fail):
        _write_json(path, {"dim": object() if fail else 6})

    return [("out.txt", RuntimeError, text), ("model.bin", OSError, model),
            ("ranks.tsv", OSError, ranks), ("best.json", TypeError, json)]


def test_a_failed_write_leaves_the_target_and_no_temp_file(tmp_path):
    writers = _writers()
    for name, error, write in writers:
        target = tmp_path / name
        write(target, fail=False)
        whole = target.read_bytes()
        with pytest.raises(error):
            write(target, fail=True)
        assert target.read_bytes() == whole, name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(n for n, _, _ in writers)
