"""What `import jrme` registers: nothing.  It changes neither
`sys.meta_path`, which every other import in the process would pass
through, nor `sys.path_importer_cache`, and Python's own import system
serves the package and its submodules."""

import os
import subprocess
import sys
import zipfile
from pathlib import Path

import jrme
from reference import child_env


def run_child(script, tmp_path, pythonpath=None):
    """The stdout of `script` in a fresh interpreter with its own cache;
    jrme is imported from `pythonpath`, or as the suite imports it."""
    env = child_env(XDG_CACHE_HOME=str(tmp_path / "cache"))
    if pythonpath:
        env["PYTHONPATH"] = pythonpath
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_registers_nothing_and_python_serves_the_package(tmp_path):
    script = (
        "import json, sys\n"  # json's import caches a finder for each path entry
        "meta_path, finders = list(sys.meta_path), dict(sys.path_importer_cache)\n"
        "import jrme\n"
        "same = sys.meta_path == meta_path and sys.path_importer_cache == finders\n"
        "import jrme.cli\n"
        "from importlib.machinery import SourceFileLoader\n"
        "print(same, sys.meta_path == meta_path, type(jrme.cli.__loader__) is SourceFileLoader)\n"
    )
    assert run_child(script, tmp_path) == "True True True\n"


def test_a_package_imported_from_a_zip_archive_imports_its_submodules(tmp_path):
    # no directory holds jrme's sources, so zipimport serves them all
    archive = tmp_path / "jrme.zip"
    package = Path(jrme.__file__).resolve().parent
    with zipfile.ZipFile(archive, "w") as z:
        for source in sorted(package.glob("*.py")):
            z.write(source, f"jrme/{source.name}")
    (tmp_path / "train.tsv").write_text("a\tr1\tb\tx y\nb\tr2\tc\tz\n")
    script = (
        "import jrme.cli, zipimport\n"
        "code = jrme.cli.main(['stats', '--train', 'train.tsv'])\n"
        "print(code, isinstance(jrme.cli.__loader__, zipimport.zipimporter))\n"
    )
    assert run_child(script, tmp_path, str(archive)).endswith("\n0 True\n")
    assert not os.path.exists(tmp_path / "cache" / "jrme")
