"""The per-user cache (`jrme._cache_dir`), which holds the compiled epoch
kernel alone: where it lives, that a second command reuses the kernel,
and when it is refused.  And the bytecode of
jrme's modules, which lives in Python's own `__pycache__` beside the
sources, where a command keeps it even under PYTHONDONTWRITEBYTECODE.

Every test runs fresh interpreters on a copy of the package that has no
`__pycache__`, as a checkout runs, whether the suite imports jrme from
`src/` or from an installed copy.  An audit hook in the child logs each
`compile()` of a file in the package as it happens, since a command ends
in `os._exit`, which skips any write at the end.
"""

import os
import re
import shutil
import sys
from pathlib import Path

import pytest

import jrme
from reference import run_python

TRAIN = "".join(f"e{i % 5}\tr{i % 3}\te{(i + 1) % 5}\tw{i % 3}\n" for i in range(30))

# the child appends each file it compiles to the log named by its first
# argument, then runs `code`; stdout and stderr hold only what jrme printed
HOOK = """\
import sys
log = open(sys.argv.pop(1), "a")
sys.addaudithook(lambda event, args: event == "compile" and print(args[1], file=log, flush=True))
"""
# a command run as `python -m jrme.cli` runs it: through `run()`, which
# writes the bytecode a command keeps
COMMAND = "import runpy\nrunpy.run_module('jrme.cli', run_name='__main__', alter_sys=True)\n"


@pytest.fixture
def package(tmp_path):
    """The import root of a bytecode-free copy of the jrme package."""
    root = tmp_path / "pkg"
    shutil.copytree(Path(jrme.__file__).resolve().parent, root / "jrme",
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    return root


def logged(root, tmp_path, code, *argv, **kwargs):
    """`run_python(..., **kwargs)` of `code` with `argv` behind the audit
    hook, importing jrme from `root`, with PYTHONDONTWRITEBYTECODE set and,
    unless `kwargs` set another, the cache `tmp_path/cache/jrme`.  Returns
    the finished process and the name of each package file it compiled,
    sorted, once per compile."""
    log = tmp_path / "compiled.log"
    log.write_text("")
    kwargs = {"XDG_CACHE_HOME": str(tmp_path / "cache"), "PYTHONDONTWRITEBYTECODE": "1", **kwargs}
    proc = run_python("-c", HOOK + code, log, *argv, PYTHONPATH=str(root), **kwargs)
    pkg = str(root / "jrme")
    return proc, sorted(os.path.basename(p) for p in log.read_text().splitlines()
                        if os.path.dirname(p) == pkg)


def command(root, tmp_path, *argv, **kwargs):
    return logged(root, tmp_path, COMMAND, *argv, **kwargs)


def pycache(root):
    """The source file name of each pyc in the package's `__pycache__`,
    one per pyc, with the pyc's bytes."""
    tag = f".{sys.implementation.cache_tag}."
    return {p.name.split(tag)[0] + ".py": p.read_bytes()
            for p in sorted((root / "jrme" / "__pycache__").glob("*.pyc"))}


class TestBytecodeCache:
    def test_each_module_compiles_once_then_loads_from_the_cache(self, package, tmp_path):
        train = tmp_path / "train.tsv"
        train.write_text(TRAIN)
        argv = ["train", "--train", train, "--valid", train, "--out", tmp_path / "model.bin",
                "--dim", 4, "--epochs", 1]
        first, compiled = command(package, tmp_path, *argv)
        # the first command compiles each module it imports to run it, and
        # py_compile compiles it again to write its __pycache__ file
        files = sorted(set(compiled))
        assert {"__init__.py", "cli.py", "kernels.py", "training.py", "evaluation.py"} <= set(files)
        assert sorted(pycache(package)) == files
        # the per-user cache is this user's alone and holds the kernel
        # alone: no temp file, no module bytecode
        cache = tmp_path / "cache" / "jrme"
        assert cache.stat().st_mode & 0o777 == 0o700
        built = {p.name: p.stat().st_mtime_ns for p in cache.iterdir()}
        assert [name for name in built if not re.fullmatch(r"epoch-[0-9a-f]+\.so", name)] == []
        # a second command compiles none, __init__.py and __main__ included,
        # and reuses the kernel, rewriting nothing in the cache
        second, compiled = command(package, tmp_path, *argv)
        assert compiled == []
        assert (second.stdout, second.stderr) == (first.stdout, first.stderr)
        assert sorted(pycache(package)) == files
        assert {p.name: p.stat().st_mtime_ns for p in cache.iterdir()} == built

    def test_an_edited_source_is_recompiled(self, package, tmp_path):
        train = tmp_path / "train.tsv"
        train.write_text(TRAIN)
        argv = ["stats", "--train", train]
        command(package, tmp_path, *argv)
        before = pycache(package)
        source = package / "jrme" / "errors.py"
        with open(source, "a") as f:
            f.write("\nEDITED = True\n")
        assert command(package, tmp_path, *argv)[1] == ["errors.py", "errors.py"]
        # its single pyc is replaced, and no other changes
        after = pycache(package)
        assert sorted(after) == sorted(before)
        assert [name for name in after if after[name] != before[name]] == ["errors.py"]
        assert command(package, tmp_path, *argv)[1] == []
        assert logged(package, tmp_path, "import jrme.errors\nprint(jrme.errors.EDITED)")[
            0].stdout == "True\n"

    def test_a_truncated_entry_is_recompiled_and_replaced(self, package, tmp_path):
        """A pyc whose 16-byte header is wrong, or cut short, is never
        loaded: its module is compiled from source, the output is
        unchanged, and the command rewrites the pyc.  One cut after a valid
        header is read by Python's own loader before any jrme code runs,
        and it fails the import, as for any package, until the pyc is
        deleted."""
        train = tmp_path / "train.tsv"
        train.write_text(TRAIN)
        argv = ["stats", "--train", train]
        first, _ = command(package, tmp_path, *argv)
        (pyc,) = (package / "jrme" / "__pycache__").glob("config.*.pyc")
        good = pyc.read_bytes()
        wrong_mtime = good[:8] + bytes(4) + good[12:]
        for bad in (wrong_mtime, good[:10]):
            pyc.write_bytes(bad)
            proc, compiled = command(package, tmp_path, *argv)
            assert compiled == ["config.py", "config.py"]
            assert (proc.stdout, proc.stderr) == (first.stdout, first.stderr)
            assert pyc.read_bytes() == good
        assert command(package, tmp_path, *argv)[1] == []
        cut = good[: len(good) // 2]
        pyc.write_bytes(cut)
        proc, _ = command(package, tmp_path, *argv, ok=False)
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1].startswith("EOFError: ")
        assert (proc.stdout, pyc.read_bytes()) == ("", cut)
        pyc.unlink()
        proc, compiled = command(package, tmp_path, *argv)
        assert compiled == ["config.py", "config.py"]
        assert (proc.stdout, proc.stderr) == (first.stdout, first.stderr)
        assert pyc.read_bytes() == good

    def test_a_traceback_from_cached_code_names_the_source_line(self, package, tmp_path):
        train = tmp_path / "train.tsv"
        train.write_text(TRAIN)
        command(package, tmp_path, "stats", "--train", train)
        code = (
            "import traceback\n"
            "from jrme.config import ModelConfig\n"
            "try:\n"
            "    ModelConfig(dim=0)\n"
            "except Exception as e:\n"
            "    frame = traceback.extract_tb(e.__traceback__)[-1]\n"
            "    print(frame.filename, frame.lineno, frame.line, sep='\\n')\n"
        )
        proc, compiled = logged(package, tmp_path, code)
        assert compiled == []
        filename, lineno, line = proc.stdout.splitlines()
        source = package / "jrme" / "config.py"
        assert filename == str(source)
        assert line.startswith("raise ")
        assert source.read_text().splitlines()[int(lineno) - 1].strip() == line

    def test_a_module_with_pycache_bytecode_is_left_to_it(self, package, tmp_path):
        # as pip installs a copy: Python loads its bytecode, and a command
        # that builds no kernel makes no cache and rewrites no pyc
        run_python("-m", "compileall", "-q", package)
        installed = pycache(package)
        train = tmp_path / "train.tsv"
        train.write_text(TRAIN)
        assert command(package, tmp_path, "stats", "--train", train)[1] == []
        assert pycache(package) == installed
        assert not (tmp_path / "cache").exists()

    def test_hash_based_bytecode_is_left_to_python(self, package, tmp_path):
        # as a build with SOURCE_DATE_EPOCH set installs a copy: Python checks
        # each pyc against its source's hash, and a command rewrites none
        run_python("-m", "compileall", "-q", "--invalidation-mode", "checked-hash", package)
        installed = pycache(package)
        train = tmp_path / "train.tsv"
        train.write_text(TRAIN)
        assert command(package, tmp_path, "stats", "--train", train)[1] == []
        with open(package / "jrme" / "errors.py", "a") as f:
            f.write("\nEDITED = True\n")
        assert command(package, tmp_path, "stats", "--train", train)[1] == ["errors.py"]
        assert pycache(package) == installed

    @pytest.mark.parametrize("where", ["package", "__pycache__"])
    def test_a_tree_this_user_cannot_write_compiles_each_module_once(self, package, tmp_path,
                                                                       where):
        """As Python leaves it: each command compiles the modules it
        imports, once each, and writes nothing, whether the package has no
        `__pycache__` or one that is stale and read-only."""
        train = tmp_path / "train.tsv"
        train.write_text(TRAIN)
        argv = ["stats", "--train", train]
        readonly = package / "jrme"
        if where == "__pycache__":
            command(package, tmp_path, *argv)
            with open(readonly / "errors.py", "a") as f:
                f.write("\nEDITED = True\n")
            readonly = readonly / "__pycache__"
        before = pycache(package)
        readonly.chmod(0o555)
        try:
            if os.access(readonly, os.W_OK):
                pytest.skip("this user can write a mode-0555 directory")
            compiled = command(package, tmp_path, *argv)[1]
        finally:
            readonly.chmod(0o755)
        assert compiled == sorted(set(compiled))
        assert ("errors.py" in compiled) and (("config.py" in compiled) == (where == "package"))
        assert pycache(package) == before

    def test_main_called_in_process_writes_no_bytecode(self, package, tmp_path):
        train = tmp_path / "train.tsv"
        train.write_text(TRAIN)
        code = f"import jrme.cli\nassert jrme.cli.main(['stats', '--train', {str(train)!r}]) == 0\n"
        assert "config.py" in logged(package, tmp_path, code)[1]
        assert not (package / "jrme" / "__pycache__").exists()


@pytest.mark.parametrize("home", ["absolute", "relative"])
def test_a_relative_xdg_cache_home_is_ignored(package, tmp_path, home):
    """A relative XDG_CACHE_HOME counts as unset, so the cache is under
    HOME; with a relative HOME too there is no cache, the kernel falls
    back to the numpy twin, and nothing is written where the command ran."""
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    train = tmp_path / "train.tsv"
    train.write_text(TRAIN)
    home_dir = tmp_path / "home" if home == "absolute" else "home"
    proc, _ = command(package, tmp_path, "train", "--train", train, "--out",
                      tmp_path / "model.bin", "--dim", 4, "--epochs", 1, cwd=cwd,
                      XDG_CACHE_HOME="cachedir", HOME=str(home_dir))
    assert list(cwd.iterdir()) == []
    if home == "absolute":
        cache = tmp_path / "home" / ".cache" / "jrme"
        assert cache.is_dir()
        if shutil.which("cc"):
            assert list(cache.glob("epoch-*.so"))
    else:
        assert proc.stderr.splitlines()[0] == (
            "jrme: C epoch kernel unavailable (no cache directory: "
            "HOME is not an absolute path); using the numpy twin")


class TestRefusal:
    """A cache that is not this user's, or that other users can write, is
    refused, and the error says which of the two it is.  What a `train`
    prints for a refused cache, and that it writes nothing there, is
    `test_cli.py`'s `test_numpy_twin_line_follows_the_input_warnings`."""

    def test_a_cache_another_user_owns_is_refused_as_theirs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        owner = os.getuid()
        monkeypatch.setattr(os, "getuid", lambda: owner + 1)
        with pytest.raises(OSError) as refused:
            jrme._cache_dir()
        cache = tmp_path / "jrme"
        # mode 0700, so the owner alone is the reason
        assert cache.stat().st_mode & 0o777 == 0o700
        assert str(refused.value) == (
            f"{cache} belongs to uid {owner}, and this user is uid {owner + 1}")

    def test_a_cache_other_users_can_write_is_refused_as_such(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        cache = tmp_path / "jrme"
        cache.mkdir()
        cache.chmod(0o777)
        with pytest.raises(OSError) as refused:
            jrme._cache_dir()
        assert str(refused.value) == f"{cache} is writable by other users: mode 777"
        cache.chmod(0o700)
        assert jrme._cache_dir() == str(cache)
