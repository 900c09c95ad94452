"""What `import jrme` registers: nothing.  It changes neither
`sys.meta_path`, which every other import in the process would pass
through, nor `sys.path_importer_cache`, and Python's own import system
serves the package and its submodules."""

import os
import zipfile
from pathlib import Path

import jrme
from reference import run_python


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
    proc = run_python("-c", script, cwd=tmp_path, XDG_CACHE_HOME=str(tmp_path / "cache"))
    assert proc.stdout == "True True True\n"


def test_a_package_imported_from_a_zip_archive_imports_its_submodules(tmp_path):
    # the archive comes first on the path, so zipimport serves every module
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
    proc = run_python("-c", script, cwd=tmp_path, PYTHONPATH=str(archive),
                      XDG_CACHE_HOME=str(tmp_path / "cache"))
    assert proc.stdout.endswith("\n0 True\n")
    assert not os.path.exists(tmp_path / "cache" / "jrme")
