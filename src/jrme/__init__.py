"""Joint knowledge-graph / text-mention relation embeddings.

Three trainable variants share one vector space: a translation-based
triple scorer (kre), a bag-of-words mention scorer (tme), and their
joint combination (jrme), all trained with margin-ranking SGD over
corrupt relations and evaluated by ranking the true relation.

The package root names the epoch kernel backend and `atomic_write` (with
its `writes_in_place` rule), which writes every output and the kernel;
callers import everything else from its submodules (`jrme.cli`,
`jrme.training`, ...).  Importing the package loads none of them and
registers nothing: Python's own import system serves every module, with
its bytecode in `__pycache__` beside the sources (which `jrme.cli.run`
keeps written).
"""

import os
from contextlib import contextmanager, suppress

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
    """jrme's per-user cache directory, which holds the compiled epoch
    kernel alone, created mode 0700 on first use: `$XDG_CACHE_HOME/jrme`,
    or `~/.cache/jrme` when that variable is unset or relative (the XDG
    rule).

    Raises OSError when the home directory is not an absolute path, or
    when the cache is not this user's or other users can write it: the
    kernel is code this process runs.
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
