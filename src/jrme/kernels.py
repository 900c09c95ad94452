"""Hot numeric kernels: the SGD epoch in C with a numpy twin, and ranking.

The epoch kernel lives in `_epoch.c`.  The first import compiles it with
the system C compiler into a per-user cache and loads it with ctypes,
which releases the GIL, so training shards run on real threads.  When
there is no compiler, the build fails, or the cache cannot be written or
is writable by other users, the vectorized numpy twin runs instead and
one stderr line says so.
`BACKEND` names the one in use, "c" or "numpy".  The twin is also the
reference the tests hold the C kernel to: the two may differ in the
last float bits (summation order), never in semantics.  Ranking, numpy on
both backends, has one scorer (`relation_scores`) and one tie rule
(`tie_ranks`) behind `rank_all` and every single-belief score.

Both read beliefs as the id arrays of `data.PackedBeliefs`, the form the
parser writes; the class is importable from here too.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .data import PackedBeliefs

_SOURCE = Path(__file__).with_name("_epoch.c")
# IEEE semantics on every host: no -march=native, no -ffast-math (which
# would break isfinite), no fused multiply-add
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
_PTR = ctypes.c_void_p


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "jrme"


def _load_epoch_kernel():
    """Build `_epoch.c` once per (source, flags) into the cache and load it.

    The library is compiled from the hashed bytes under a temporary name
    and renamed into place, so concurrent first runs never load a
    half-written file.
    """
    source = _SOURCE.read_bytes()
    digest = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()
    cache = _cache_dir()
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = cache.stat()
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise OSError(f"{cache} is writable by other users")
    lib_path = cache / f"epoch-{digest}.so"
    if not lib_path.exists():
        import subprocess  # only a cache miss pays for it

        fd, tmp = tempfile.mkstemp(prefix=".epoch-", suffix=".so", dir=cache)
        os.close(fd)
        try:
            subprocess.run(
                ["cc", *_CFLAGS, "-o", tmp, "-x", "c", "-", "-lm"],
                input=source, check=True, capture_output=True, timeout=300,
            )
            os.replace(tmp, lib_path)
        except subprocess.SubprocessError as e:
            raise OSError(f"cc failed: {e}") from None
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    fn = ctypes.CDLL(str(lib_path)).jrme_epoch
    fn.argtypes = [
        _PTR, _PTR, _PTR, ctypes.c_int64,  # entity, relation, word, d
        _PTR, _PTR, _PTR, _PTR, _PTR,  # heads, rels, tails, moff, mflat
        _PTR, ctypes.c_int64,  # order, n_order
        _PTR, ctypes.c_int64, ctypes.c_int,  # neg_table, k, neg_by_relation
        ctypes.c_double, ctypes.c_double,  # lr, margin
        ctypes.c_int, ctypes.c_int, ctypes.c_int,  # use_kg, use_text, normalize
        ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_int64),
    ]
    fn.restype = ctypes.c_int64
    return fn


try:
    _jrme_epoch = _load_epoch_kernel()
except OSError as e:
    _jrme_epoch = None
    print(f"jrme: C epoch kernel unavailable ({e}); using the numpy twin", file=sys.stderr)

BACKEND = "numpy" if _jrme_epoch is None else "c"


def enum_negative_table(n_relations: int) -> np.ndarray:
    """Row r lists every relation id except r, ascending."""
    r = np.arange(n_relations, dtype=np.int64)
    grid = np.broadcast_to(r, (n_relations, n_relations))
    keep = grid != r[:, None]
    return grid[keep].reshape(n_relations, n_relations - 1)


# --- training epoch -------------------------------------------------------
#
# The update rule is documented in _epoch.c.  _epoch_numpy is its
# vectorized twin and _epoch_c guards the pointers handed to it; both
# take the same arguments and return (loss_sum, active_count, bad_index).


def _epoch_numpy(
    entity,
    relation,
    word,
    heads,
    rels,
    tails,
    moff,
    mflat,
    order,
    neg_table,
    neg_by_relation,
    lr,
    margin,
    use_kg,
    use_text,
    normalize,
):
    d = relation.shape[1]
    loss_sum = 0.0
    active_sum = 0
    zero_m = np.zeros(d, dtype=np.float64)
    for pos in range(order.shape[0]):
        i = int(order[pos])
        h = int(heads[i])
        r = int(rels[i])
        t = int(tails[i])
        ids = mflat[moff[i] : moff[i + 1]]
        m = word[ids].sum(axis=0) if (use_text and ids.size) else zero_m
        s_pos = 0.0
        if use_kg:
            diff_pos = entity[h] + relation[r] - entity[t]
            s_pos += float(diff_pos @ diff_pos)
        if use_text:
            s_pos -= float(relation[r] @ m)

        negs = neg_table[r] if neg_by_relation else neg_table[pos]
        rel_negs = relation[negs]
        s_negs = np.zeros(negs.shape[0], dtype=np.float64)
        if use_kg:
            diff_negs = (entity[h] - entity[t])[None, :] + rel_negs
            s_negs += np.einsum("ij,ij->i", diff_negs, diff_negs)
        if use_text:
            s_negs -= rel_negs @ m
        terms = margin + s_pos - s_negs
        act = terms > 0.0
        a = int(np.count_nonzero(act))
        loss_i = float(terms[act].sum()) if a else 0.0

        if a:
            sum_rneg = rel_negs[act].sum(axis=0)
            wc = sum_rneg - a * relation[r]
            # the active negative ids are distinct, so plain fancy
            # indexing applies each row's update exactly once
            if use_kg:
                relation[negs[act]] += lr * 2.0 * diff_negs[act]
            if use_text:
                relation[negs[act]] -= lr * m
            if use_kg:
                relation[r] -= lr * 2.0 * a * diff_pos
            if use_text:
                relation[r] += lr * a * m
            if use_kg and h != t:
                entity[h] += lr * 2.0 * wc
                entity[t] -= lr * 2.0 * wc
                if normalize:
                    for e in (h, t):
                        nrm = float(np.linalg.norm(entity[e]))
                        if nrm > 0.0:
                            entity[e] /= nrm
            if use_text and ids.size:
                np.subtract.at(word, ids, lr * wc)

        loss_sum += loss_i
        active_sum += a
        bad = not np.isfinite(loss_i) or not np.isfinite(relation[r]).all()
        if use_kg and not bad:
            bad = not np.isfinite(entity[h]).all()
        if bad:
            return loss_sum, active_sum, i
    return loss_sum, active_sum, -1


def _check_ids(what: str, ids: np.ndarray, n: int) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise IndexError(f"{what} out of range [0, {n})")


def _epoch_c(
    entity,
    relation,
    word,
    heads,
    rels,
    tails,
    moff,
    mflat,
    order,
    neg_table,
    neg_by_relation,
    lr,
    margin,
    use_kg,
    use_text,
    normalize,
):
    """The C kernel, after the checks that keep bad input out of memory.

    Raises ValueError for a wrong dtype, layout or shape and IndexError
    for an id outside its table, before any row is written.
    """
    d = relation.shape[1] if relation.ndim == 2 else -1
    for name, t in (("entity", entity), ("relation", relation), ("word", word)):
        if t.dtype != np.float64 or t.ndim != 2 or t.shape[1] != d:
            raise ValueError(f"{name} table must be a 2-D float64 array with {d} columns")
        if not (t.flags.c_contiguous and t.flags.writeable):
            raise ValueError(f"{name} table must be C-contiguous and writeable")
    index_arrays = (
        ("heads", heads, 1), ("rels", rels, 1), ("tails", tails, 1), ("moff", moff, 1),
        ("mflat", mflat, 1), ("order", order, 1), ("neg_table", neg_table, 2),
    )
    for name, a, ndim in index_arrays:
        if a.dtype != np.int64 or a.ndim != ndim or not a.flags.c_contiguous:
            raise ValueError(f"{name} must be a {ndim}-D C-contiguous int64 array")
    n = heads.shape[0]
    if rels.shape != (n,) or tails.shape != (n,) or moff.shape != (n + 1,):
        raise ValueError("heads, rels and tails need one entry per belief, moff one more")
    n_rel = relation.shape[0]
    rows = n_rel if neg_by_relation else order.shape[0]
    if neg_table.shape[0] < rows:
        raise IndexError(f"negative table has {neg_table.shape[0]} rows, needs {rows}")
    _check_ids("example index", order, n)
    _check_ids("relation id", rels, n_rel)
    _check_ids("negative relation id", neg_table, n_rel)
    _check_ids("entity id", heads, entity.shape[0])
    _check_ids("entity id", tails, entity.shape[0])
    if use_text:
        _check_ids("mention offset", moff, mflat.shape[0] + 1)
        _check_ids("word id", mflat, word.shape[0])

    loss = ctypes.c_double()
    active = ctypes.c_int64()
    bad = _jrme_epoch(
        entity.ctypes.data, relation.ctypes.data, word.ctypes.data, d,
        heads.ctypes.data, rels.ctypes.data, tails.ctypes.data,
        moff.ctypes.data, mflat.ctypes.data,
        order.ctypes.data, order.shape[0],
        neg_table.ctypes.data, neg_table.shape[1], bool(neg_by_relation),
        lr, margin, bool(use_kg), bool(use_text), bool(normalize),
        ctypes.byref(loss), ctypes.byref(active),
    )
    if bad == -2:
        raise MemoryError("C epoch kernel could not allocate its scratch rows")
    return loss.value, active.value, bad


# --- relation ranking -----------------------------------------------------

# beliefs per block: a (block x R) score array stays near one (R x d)
# table in size, so peak memory does not grow
RANK_BLOCK = 64


def relation_scores(entity, relation, word, heads, tails, moff, mflat, use_kg, use_text):
    """(n, R) score of every relation as the candidate for each belief.

    ||h - t||^2 + q.r' + ||r'||^2 with q = 2(h - t) - m, m the sum of the
    belief's word rows (moff: n + 1 absolute offsets into mflat); `tme`
    drops the kg part, `kre` the text part.  q.r' is an unoptimized
    einsum, not BLAS `@`: it sums each element in a fixed order, so a row
    has the same bits alone or anywhere in a block and equal relations
    tie exactly.  GEMM keeps neither, which breaks the tie rule.
    """
    n = heads.shape[0]
    q = np.zeros((n, relation.shape[1]))
    if use_kg:
        diff = entity[heads] - entity[tails]
        q += 2.0 * diff
    if use_text:
        # unbuffered, in index order: each row takes its words left to right
        np.subtract.at(q, np.repeat(np.arange(n), np.diff(moff)), word[mflat[moff[0] : moff[-1]]])
    scores = np.einsum("bd,dr->br", q, relation.T)
    if use_kg:
        scores += np.einsum("bd,bd->b", diff, diff)[:, None]
        scores += np.einsum("rd,rd->r", relation, relation)
    return scores


def tie_ranks(scores, true_ids):
    """Per row: 1 + #(scores below the true id's) + #(ties with a smaller id)."""
    s_true = scores[np.arange(len(true_ids)), true_ids][:, None]
    tied_before = (scores == s_true) & (np.arange(scores.shape[1]) < true_ids[:, None])
    return 1 + np.count_nonzero(scores < s_true, axis=1) + np.count_nonzero(tied_before, axis=1)


def rank_all(entity, relation, word, heads, rels, tails, moff, mflat, use_kg, use_text):
    """Raw rank of the true relation for each belief, as an int64 array."""
    ranks = np.empty(heads.shape[0], dtype=np.int64)
    for lo in range(0, heads.shape[0], RANK_BLOCK):
        hi = lo + RANK_BLOCK
        scores = relation_scores(
            entity, relation, word, heads[lo:hi], tails[lo:hi], moff[lo : hi + 1], mflat,
            use_kg, use_text,
        )
        ranks[lo:hi] = tie_ranks(scores, rels[lo:hi])
    return ranks


# --- dispatch -------------------------------------------------------------


def run_epoch(
    entity,
    relation,
    word,
    packed: PackedBeliefs,
    order,
    neg_table,
    neg_by_relation: bool,
    lr: float,
    margin: float,
    use_kg: bool,
    use_text: bool,
    normalize: bool,
):
    """One pass of hinge SGD over `order`, mutating the tables in place.

    Returns (loss_sum, active_term_count, bad_index); bad_index is the
    first example whose step produced a non-finite value, -1 when clean.
    """
    impl = _epoch_numpy if _jrme_epoch is None else _epoch_c
    loss, active, bad = impl(
        entity,
        relation,
        word,
        packed.heads,
        packed.relations,
        packed.tails,
        packed.mention_off,
        packed.mention_flat,
        order,
        neg_table,
        neg_by_relation,
        lr,
        margin,
        use_kg,
        use_text,
        normalize,
    )
    return float(loss), int(active), int(bad)
