"""Joint knowledge-graph / text-mention relation embeddings.

Three trainable variants share one vector space: a translation-based
triple scorer (kre), a bag-of-words mention scorer (tme), and their
joint combination (jrme), all trained with margin-ranking SGD over
corrupt relations and evaluated by ranking the true relation.

The package root names the epoch kernel backend and `atomic_write` (with
its `writes_in_place` rule), which writes every file jrme makes; callers
import everything else from its submodules (`jrme.cli`, `jrme.training`,
...).  Importing the package loads none of them.

It does register one import finder, for its own directory alone (in
`sys.path_importer_cache`, not `sys.meta_path`).  A submodule with no
`__pycache__` entry beside its source, as in a checkout, is compiled
once into jrme's per-user cache (`_cache_dir`, which also holds the
compiled epoch kernel) and later imports load that bytecode.  An entry
is named by the source's path and bytes, so an edited source gets a new
one; a missing, corrupt or unwritable entry, or a refused cache, means
the source is compiled as it would be without the finder, silently.  An
installed copy, with pip's `__pycache__`, or a zipped one imports as usual.
"""

import marshal
import os
import sys
from contextlib import contextmanager, suppress
from importlib.machinery import FileFinder, SourceFileLoader
from importlib.util import cache_from_source, source_hash
from types import CodeType

__version__ = "0.1.0"

__all__ = ["BACKEND", "atomic_write", "writes_in_place"]


def __getattr__(name):
    # reading BACKEND imports `training`, whose import chooses the epoch
    # kernel, building it on first use
    if name == "BACKEND":
        from .training import BACKEND

        return BACKEND
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _cache_dir() -> str:
    """jrme's per-user cache directory, created mode 0700 on first use:
    `$XDG_CACHE_HOME/jrme`, or `~/.cache/jrme` when that variable is unset
    or relative (the XDG rule).

    Raises OSError when the home directory is not an absolute path, or
    when the cache is not this user's or other users can write it: both
    caches hold code this process runs.
    """
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        home = os.path.expanduser("~")
        if not os.path.isabs(home):
            raise OSError("no cache directory: HOME is not an absolute path")
        base = os.path.join(home, ".cache")
    cache = os.path.join(base, "jrme")
    os.makedirs(cache, mode=0o700, exist_ok=True)
    st = os.stat(cache)
    if st.st_uid != os.getuid():
        raise OSError(f"{cache} belongs to uid {st.st_uid}, and this user is uid {os.getuid()}")
    if st.st_mode & 0o022:
        raise OSError(f"{cache} is writable by other users: mode {st.st_mode & 0o777:o}")
    return cache


def writes_in_place(path) -> bool:
    """Whether `atomic_write` writes `path` in place: it exists and is not
    a regular file after links (a FIFO, /dev/stdout), which a rename would
    replace, leaving its reader nothing."""
    return os.path.exists(path) and not os.path.isfile(path)


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Write `path` through `<path>.<pid>.tmp`, created exclusively and
    renamed over it when the block ends cleanly: a reader sees the old
    file or the whole new one, and of concurrent writers the last to
    rename leaves its whole file.  On any exception the temp is removed,
    and a file already at its name is left alone (FileExistsError), so a
    call never truncates, replaces or deletes a file it did not make.  The
    yielded file's `name` is the temp's, for a writer that fills it by
    path.  A target that `writes_in_place` is opened as it is.
    """
    encoding = None if "b" in mode else "utf-8"
    if writes_in_place(path):
        with open(path, mode, encoding=encoding) as f:
            yield f
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    f = open(tmp, mode.replace("w", "x"), encoding=encoding)
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


class _CachedLoader(SourceFileLoader):
    def get_code(self, fullname):
        path = self.get_filename(fullname)
        pyc = cache_from_source(path)
        # an installed copy keeps pip's bytecode
        if os.path.exists(pyc):
            return super().get_code(fullname)
        source = self.get_data(path)
        key = source_hash(os.fsencode(path) + source).hex()
        stem = os.path.basename(pyc).removesuffix(".pyc")  # <module>.<cache tag>[.opt-N]
        try:
            entry = os.path.join(_cache_dir(), f"{__name__}.{stem}.{key}.pyc")
        except OSError:
            return self.source_to_code(source, path)
        try:
            with open(entry, "rb") as f:
                code = marshal.loads(f.read())
            if type(code) is CodeType:
                return code
        except (OSError, EOFError, ValueError, TypeError):
            pass
        code = self.source_to_code(source, path)
        with suppress(OSError), atomic_write(entry, "wb") as f:
            f.write(marshal.dumps(code))
        return code


# a zipped package is left to zipimport
if sys.implementation.cache_tag and os.path.isdir(__path__[0]):
    sys.path_importer_cache[__path__[0]] = FileFinder(__path__[0], (_CachedLoader, [".py"]))
