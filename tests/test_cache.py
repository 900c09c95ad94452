"""The per-user cache (`jrme._cache_dir`): where it lives, when it is
refused, and the bytecode of jrme's submodules it keeps beside the epoch
kernel.

Every test runs fresh interpreters on a copy of the package that has no
`__pycache__`, as a checkout runs, so the cache serves it whether the
suite imports jrme from `src/` or from an installed copy.  An audit hook
in the child records each `compile()` of a file in the package.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import jrme
from reference import child_env

TRAIN = "".join(f"e{i % 5}\tr{i % 3}\te{(i + 1) % 5}\tw{i % 3}\n" for i in range(30))

# the child writes to the file named by its first argument which package
# files it compiled and which submodules it imported, so that its stdout
# and stderr hold only what jrme printed
SCRIPT = """\
import json, os, sys
compiled = []
sys.addaudithook(lambda event, args: event == "compile" and compiled.append(str(args[1])))
import jrme
{body}
pkg = os.path.dirname(jrme.__file__)
with open(sys.argv[1], "w") as f:
    json.dump({{
        "compiled": sorted(os.path.basename(p) for p in compiled if os.path.dirname(p) == pkg),
        "imported": sorted(name for name in sys.modules if name.startswith("jrme.")),
    }}, f)
"""


@pytest.fixture
def package(tmp_path):
    """The import root of a bytecode-free copy of the jrme package."""
    root = tmp_path / "pkg"
    shutil.copytree(Path(jrme.__file__).resolve().parent, root / "jrme",
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    return root


def run_child(root, tmp_path, body, cwd=None, **env):
    """Run `body` after `import jrme` in a fresh interpreter that imports
    jrme from `root`; by default its cache is `tmp_path/cache/jrme`.
    Returns the finished process and its record."""
    env = child_env(**{"XDG_CACHE_HOME": str(tmp_path / "cache"), **env})
    env["PYTHONPATH"] = os.pathsep.join([str(root), env["PYTHONPATH"]])
    record = tmp_path / "record.json"
    proc = subprocess.run([sys.executable, "-c", SCRIPT.format(body=body), str(record)],
                          capture_output=True, text=True, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(record.read_text())


def entries(cache):
    """The module name of each bytecode entry in `cache`, one per entry."""
    tag = f".{sys.implementation.cache_tag}."
    return sorted(p.name.split(tag)[0] for p in cache.glob("jrme.*.pyc"))


def cli_body(*argvs):
    return "import jrme.cli\n" + "".join(
        f"assert jrme.cli.main({[str(a) for a in argv]!r}) == 0\n" for argv in argvs)


class TestBytecodeCache:
    def test_each_module_compiles_once_then_loads_from_the_cache(self, package, tmp_path):
        train = tmp_path / "train.tsv"
        train.write_text(TRAIN)
        model = tmp_path / "model.bin"
        body = cli_body(["train", "--train", train, "--out", model, "--dim", 4, "--epochs", 1],
                        ["eval", "--model", model, "--test", train])
        first, record = run_child(package, tmp_path, body)
        modules = record["imported"]
        assert {"jrme.cli", "jrme.kernels", "jrme.training", "jrme.evaluation"} <= set(modules)
        # the package root installs the finder, so it alone compiles every time
        files = sorted(["__init__.py", *(m.split(".")[1] + ".py" for m in modules)])
        assert record["compiled"] == files
        assert entries(tmp_path / "cache" / "jrme") == modules

        second, record = run_child(package, tmp_path, body)
        assert record == {"compiled": ["__init__.py"], "imported": modules}
        assert (second.stdout, second.stderr) == (first.stdout, first.stderr)
        assert entries(tmp_path / "cache" / "jrme") == modules

    def test_an_edited_source_is_recompiled(self, package, tmp_path):
        body = "import jrme.errors\nprint(hasattr(jrme.errors, 'EDITED'))"
        assert run_child(package, tmp_path, body)[0].stdout == "False\n"
        with open(package / "jrme" / "errors.py", "a") as f:
            f.write("\nEDITED = True\n")
        proc, record = run_child(package, tmp_path, body)
        assert proc.stdout == "True\n"
        assert record["compiled"] == ["__init__.py", "errors.py"]
        # the old entry stays: nothing prunes the cache
        assert entries(tmp_path / "cache" / "jrme") == ["jrme.errors", "jrme.errors"]

    def test_a_truncated_entry_is_recompiled_and_replaced(self, package, tmp_path):
        body = "import jrme.config"
        run_child(package, tmp_path, body)
        (entry,) = (tmp_path / "cache" / "jrme").glob("jrme.config.*.pyc")
        size = entry.stat().st_size
        entry.write_bytes(entry.read_bytes()[: size // 2])
        assert run_child(package, tmp_path, body)[1]["compiled"] == ["__init__.py", "config.py"]
        assert entry.stat().st_size == size
        assert run_child(package, tmp_path, body)[1]["compiled"] == ["__init__.py"]

    def test_a_cache_other_users_can_write_is_neither_read_nor_written(self, package, tmp_path):
        train = tmp_path / "train.tsv"
        train.write_text(TRAIN)
        body = cli_body(["stats", "--train", train])
        good, record = run_child(package, tmp_path, body)
        # the refused cache holds valid entries for every module the command imports
        refused = tmp_path / "refused" / "jrme"
        shutil.copytree(tmp_path / "cache" / "jrme", refused)
        refused.chmod(0o777)
        listing = {p.name: p.stat().st_mtime_ns for p in refused.iterdir()}
        proc, refused_record = run_child(package, tmp_path, body,
                                         XDG_CACHE_HOME=str(refused.parent))
        assert refused_record["compiled"] == record["compiled"]
        assert {p.name: p.stat().st_mtime_ns for p in refused.iterdir()} == listing
        assert (proc.stdout, proc.stderr) == (good.stdout, good.stderr)

    def test_a_traceback_from_cached_code_names_the_source_line(self, package, tmp_path):
        body = (
            "import traceback\n"
            "from jrme.config import ModelConfig\n"
            "try:\n"
            "    ModelConfig(dim=0)\n"
            "except Exception as e:\n"
            "    frame = traceback.extract_tb(e.__traceback__)[-1]\n"
            "    print(frame.filename, frame.lineno, frame.line, sep='\\n')\n"
        )
        first = run_child(package, tmp_path, body)[0].stdout
        proc, record = run_child(package, tmp_path, body)
        assert record["compiled"] == ["__init__.py"]
        assert proc.stdout == first
        filename, lineno, line = proc.stdout.splitlines()
        source = package / "jrme" / "config.py"
        assert filename == str(source)
        assert line.startswith("raise ")
        assert source.read_text().splitlines()[int(lineno) - 1].strip() == line

    def test_a_module_with_pycache_bytecode_is_left_to_it(self, package, tmp_path):
        # as pip installs a copy: the finder steps aside and the cache is never made
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(package)], check=True)
        assert run_child(package, tmp_path, "import jrme.cli")[1]["compiled"] == []
        assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("home", ["absolute", "relative"])
def test_a_relative_xdg_cache_home_is_ignored(package, tmp_path, home):
    """A relative XDG_CACHE_HOME counts as unset, so the cache is under
    HOME; with a relative HOME too there is no cache, the kernel falls
    back to the numpy twin, and nothing is written where the command ran."""
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    train = tmp_path / "train.tsv"
    train.write_text(TRAIN)
    body = cli_body(["train", "--train", train, "--out", tmp_path / "model.bin",
                     "--dim", 4, "--epochs", 1])
    home_dir = tmp_path / "home" if home == "absolute" else "home"
    proc, _ = run_child(package, tmp_path, body, cwd=cwd, XDG_CACHE_HOME="cachedir",
                        HOME=str(home_dir))
    assert list(cwd.iterdir()) == []
    if home == "absolute":
        assert entries(tmp_path / "home" / ".cache" / "jrme")
    else:
        assert proc.stderr.splitlines()[0] == (
            "jrme: C epoch kernel unavailable (no cache directory: "
            "HOME is not an absolute path); using the numpy twin")


class TestRefusal:
    """A cache that is not this user's, or that other users can write, is
    refused, and the error says which of the two it is."""

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
