"""Hot numeric kernels: the SGD epoch in C with a numpy twin, and ranking.

The epoch kernel lives in `_epoch.c`.  The first `run_epoch` call or
`BACKEND` read, not the import, compiles it with the system C compiler
into a per-user cache and loads it with ctypes, which releases the GIL,
so training shards run on real threads; a command that only ranks never
builds, hashes or loads it.  When there is no compiler, the build fails,
or the cache cannot be written or is writable by other users, the
vectorized numpy twin runs instead and one stderr line says so.
`BACKEND` names the one in use, "c" or "numpy", chosen once, and
`run_epoch` runs that kernel.  The twin is also the reference the tests
hold the C kernel to: the two may differ in the last float bits
(summation order), never in semantics.  Ranking, numpy on both backends,
has one exact scorer (`relation_scores`) and one tie rule (`tie_ranks`)
behind every score and rank.  `rank_all` and `top_relations` order each
block by BLAS GEMM and rescore with the exact scorer only the candidates
inside the GEMM error band (`_gemm_scores`) that can change the result,
so their ranks and top k are the exact scorer's whatever the BLAS, its
threads or the block.

Every kernel takes the three tables as arrays and the beliefs as one
`data.PackedBeliefs`, the form the parser writes, so no caller unpacks
its id arrays; the class is importable from here too.  Both epoch
kernels, `relation_scores`, `rank_all` and `top_relations` check every id
against its table (`_check_packed`) before they read a row, so an id
outside it, negative ones included, raises IndexError.
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading

import numpy as np

from .data import PackedBeliefs  # noqa: F401  (importable from here, see above)

_SOURCE = os.path.join(os.path.dirname(__file__), "_epoch.c")
# IEEE semantics on every host: no -march=native, no -ffast-math (which
# would break isfinite), no fused multiply-add
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
_PTR = ctypes.c_void_p


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "jrme")


def _load_epoch_kernel():
    """Build `_epoch.c` once per (source, flags) into the cache and load it.

    The library is compiled from the hashed bytes under a temporary name
    and renamed into place, so concurrent first runs never load a
    half-written file.
    """
    import hashlib  # OpenSSL: only a process that trains loads it

    with open(_SOURCE, "rb") as f:
        source = f.read()
    digest = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()
    cache = _cache_dir()
    os.makedirs(cache, mode=0o700, exist_ok=True)
    st = os.stat(cache)
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise OSError(f"{cache} is writable by other users")
    lib_path = os.path.join(cache, f"epoch-{digest}.so")
    if not os.path.exists(lib_path):
        import subprocess  # only a cache miss pays for these
        import tempfile

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
    fn = ctypes.CDLL(lib_path).jrme_epoch
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


_backend_lock = threading.Lock()
_jrme_epoch = None  # the loaded C function, once _backend() has chosen "c"


def _backend() -> str:
    """The epoch backend, "c" or "numpy", chosen on the first call.

    The first call builds or loads the C kernel, or prints the one line
    saying the numpy twin runs instead, and binds `BACKEND`.  The lock
    makes concurrent first calls, such as the shards of a threaded
    epoch, build it once.
    """
    global BACKEND, _jrme_epoch
    with _backend_lock:
        if "BACKEND" not in globals():
            try:
                _jrme_epoch = _load_epoch_kernel()
            except OSError as e:
                print(f"jrme: C epoch kernel unavailable ({e}); using the numpy twin",
                      file=sys.stderr)
            BACKEND = "numpy" if _jrme_epoch is None else "c"
        return BACKEND


def __getattr__(name):
    # BACKEND is bound by its first read, so importing never builds the kernel
    if name == "BACKEND":
        return _backend()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def enum_negative_table(n_relations: int) -> np.ndarray:
    """Row r lists every relation id except r, ascending."""
    r = np.arange(n_relations, dtype=np.int64)
    grid = np.broadcast_to(r, (n_relations, n_relations))
    keep = grid != r[:, None]
    return grid[keep].reshape(n_relations, n_relations - 1)


# --- training epoch -------------------------------------------------------
#
# run_epoch(entity, relation, word, packed, order, neg_table,
#           neg_by_relation, lr, margin, use_kg, use_text, normalize)
# is one pass of hinge SGD over the beliefs of `packed` in `order`,
# updating the three tables in place.  Example order[pos] takes its
# negatives from row r of `neg_table` (its relation) when neg_by_relation,
# else from row pos.  It returns (loss_sum: float, active_term_count: int,
# bad_index: int); bad_index is the first example whose step produced a
# non-finite value, -1 when clean.  The update rule is documented in
# _epoch.c.  _epoch_numpy is its vectorized twin and _epoch_c guards the
# pointers handed to it; both check every id first (_check_epoch_ids),
# and run_epoch runs the one that BACKEND names.


def _epoch_numpy(
    entity, relation, word, packed, order, neg_table, neg_by_relation, lr, margin,
    use_kg, use_text, normalize,
):
    _check_epoch_ids(entity, relation, word, packed, order, neg_table, neg_by_relation, use_text)
    heads, rels, tails = packed.heads, packed.relations, packed.tails
    moff, mflat = packed.mention_off, packed.mention_flat
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


def _check_packed(entity, relation, word, packed, use_text) -> None:
    """IndexError unless every id of `packed` names a row of its table:
    heads and tails entity rows, relations relation rows, and, when the
    text term reads them, mention offsets and words.  A negative id would
    otherwise index from the end of a table."""
    _check_ids("entity id", packed.heads, entity.shape[0])
    _check_ids("entity id", packed.tails, entity.shape[0])
    _check_ids("relation id", packed.relations, relation.shape[0])
    if use_text:
        _check_ids("mention offset", packed.mention_off, packed.mention_flat.shape[0] + 1)
        _check_ids("word id", packed.mention_flat, word.shape[0])


def _check_epoch_ids(entity, relation, word, packed, order, neg_table, neg_by_relation,
                     use_text) -> None:
    """IndexError unless every row an epoch reads exists: `_check_packed`,
    each example index of `order`, and a negative table with a row per
    relation (per example without neg_by_relation) of relation ids."""
    n_rel = relation.shape[0]
    rows = n_rel if neg_by_relation else order.shape[0]
    if neg_table.shape[0] < rows:
        raise IndexError(f"negative table has {neg_table.shape[0]} rows, needs {rows}")
    _check_ids("example index", order, len(packed))
    _check_ids("negative relation id", neg_table, n_rel)
    _check_packed(entity, relation, word, packed, use_text)


def _epoch_c(
    entity, relation, word, packed, order, neg_table, neg_by_relation, lr, margin,
    use_kg, use_text, normalize,
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
    heads, rels, tails = packed.heads, packed.relations, packed.tails
    moff, mflat = packed.mention_off, packed.mention_flat
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
    _check_epoch_ids(entity, relation, word, packed, order, neg_table, neg_by_relation, use_text)

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


def run_epoch(
    entity, relation, word, packed, order, neg_table, neg_by_relation, lr, margin,
    use_kg, use_text, normalize,
):
    """One epoch on the kernel `BACKEND` names; the first call chooses it."""
    epoch = _epoch_c if _backend() == "c" else _epoch_numpy
    return epoch(
        entity, relation, word, packed, order, neg_table, neg_by_relation, lr, margin,
        use_kg, use_text, normalize,
    )


# --- relation ranking -----------------------------------------------------

# beliefs per block, in rank_all and predict: a (block x R) score array
# stays below one (R x d) table in size for d >= 128, and larger blocks
# were no faster at R = 500, d = 100 but raised peak memory
RANK_BLOCK = 128

_U = np.finfo(np.float64).eps / 2  # unit roundoff
_ETA = np.finfo(np.float64).smallest_subnormal


def _queries(entity, word, packed, lo, hi, d, use_kg, use_text):
    """(q, c) per belief lo..hi-1 of `packed`: q = 2(h - t) - m and
    c = ||h - t||^2 (None without the kg part), m the sum of the belief's
    word rows.  Mention offsets are absolute, so a block reads them as is."""
    heads, tails = packed.heads[lo:hi], packed.tails[lo:hi]
    moff, mflat = packed.mention_off[lo : hi + 1], packed.mention_flat
    n = heads.shape[0]
    q = np.zeros((n, d))
    c = None
    if use_kg:
        diff = entity[heads] - entity[tails]
        q += 2.0 * diff
        c = np.einsum("bd,bd->b", diff, diff)
    if use_text and n:
        # word by word, left to right in each row, so a row's bits do not
        # depend on the other rows
        lengths = np.diff(moff)
        for j in range(int(lengths.max())):
            rows = np.flatnonzero(lengths > j)
            q[rows] -= word[mflat[moff[rows] + j]]
    return q, c


def _exact_scores(q, c, relation, rel_sq):
    """c + q.r' + ||r'||^2 per (row, relation), summed in a fixed order."""
    scores = np.einsum("bd,dr->br", q, relation.T)
    if c is not None:
        scores += c[:, None]
        scores += rel_sq
    return scores


def relation_scores(entity, relation, word, packed, use_kg, use_text):
    """(n, R) score of every relation as the candidate for each belief.

    ||h - t||^2 + q.r' + ||r'||^2 with q = 2(h - t) - m, m the sum of the
    belief's word rows; `tme` drops the kg part, `kre` the text part.  The
    beliefs' relations are never read, so queries may leave them empty.
    q.r' is an unoptimized einsum, not BLAS `@`: it sums each element in a
    fixed order, so a row has the same bits alone or anywhere in a block
    and equal relations tie exactly.  GEMM keeps neither, which breaks the
    tie rule.
    """
    _check_packed(entity, relation, word, packed, use_text)
    q, c = _queries(entity, word, packed, 0, len(packed), relation.shape[1], use_kg, use_text)
    rel_sq = np.einsum("rd,rd->r", relation, relation) if use_kg else None
    return _exact_scores(q, c, relation, rel_sq)


def tie_ranks(scores, true_ids):
    """Per row, the true id's 1-based place in `np.argsort(row, kind="stable")`,
    the order `top_k` keeps: 1 + #(scores below the true id's) + #(ties
    with a smaller id), where nan counts as above every number and tied
    with every nan."""
    s_true = scores[np.arange(len(true_ids)), true_ids][:, None]
    nan, nan_true = np.isnan(scores), np.isnan(s_true)
    below = (scores < s_true) | (nan_true & ~nan)
    tied = (scores == s_true) | (nan_true & nan)
    tied_before = tied & (np.arange(scores.shape[1]) < true_ids[:, None])
    return 1 + np.count_nonzero(below, axis=1) + np.count_nonzero(tied_before, axis=1)


def top_k(scores, k):
    """`np.argsort(scores, axis=1, kind="stable")[:, :k]`, without sorting
    each whole row.

    The stable argsort orders a row by (score, id), nan after every
    number and -0.0 equal to 0.0.  Its first k places hold only entries
    at or below the row's k-th smallest value (every entry when that is
    nan), and `np.partition` finds that value under the same order.
    `np.nonzero` lists those entries by (row, id), so one stable lexsort
    by (row, score) orders each row's as the argsort does, and each row's
    first k are the argsort's.
    """
    n, r = scores.shape
    k = min(k, r)
    kth = np.partition(scores, k - 1, axis=1)[:, k - 1 : k]
    rows, ids = np.nonzero((scores <= kth) | np.isnan(kth))
    order = np.lexsort((scores[rows, ids], rows))
    counts = np.bincount(rows, minlength=n)
    first = np.cumsum(counts) - counts
    return ids[order][first[:, None] + np.arange(k)]


def _gemm_scores(q, c, relation, rel_sq, use_kg):
    """(s~, band) for a block of queries: s~ = q @ relation.T by BLAS
    (+ ||r'||^2 for the kg variants), without the row constant
    c = ||h - t||^2, which moves every candidate of a row alike, and each
    row's error band; two candidates whose s~ differ by more than the band
    have exact scores in the same order and never tie.  The band is inf on
    a row the exact scorer must score.

    The band.  Let P = ||q|| max||r'||, N = max||r'||^2 (0 for `tme`), c
    as above (0 for `tme`), d the dimension, u the unit roundoff and
    g = (d + 3)u / (1 - (d + 3)u).  In any summation order, fused or not,
    |fl(q.r') - q.r'| <= (du / (1 - du)) sum|q_i r'_i| <= g P (Higham,
    Accuracy and Stability of Numerical Algorithms, 3.1; Cauchy-Schwarz),
    and each later addition rounds by at most u times a result of size
    at most (1 + g)(P + c + N).  So the exact score E_r = fl(fl(fl(q.r')
    + c) + ||r'||^2) and s~_r + c are both within g(P + c + N) of the
    real q.r' + c + ||r'||^2, and E_r - E_s is within 4g(P + c + N) of
    s~_r - s~_s for any two candidates.  The band is twice that,
    8g(P + c + N) + 8d eta: the factor 2 covers the rounding of the
    computed norms and of the band tests themselves, and eta, the
    smallest subnormal, the underflow of the d products.  A finite
    2(P + c + N) means finite q and r' and no overflow in either path,
    since every partial sum is at most (1 + g)(P + c + N); rows where it
    is inf or nan get an inf band.
    The result depends neither on the BLAS nor on its threads or blocks.
    """
    d = relation.shape[1]
    g = (d + 3) * _U / (1 - (d + 3) * _U)
    r_max = np.sqrt(rel_sq.max()) if rel_sq.size else 0.0
    n_max = rel_sq.max() if use_kg and rel_sq.size else 0.0
    # overflow and inf - inf here only send rows to the exact scorer
    with np.errstate(over="ignore", invalid="ignore"):
        s = q @ relation.T
        if use_kg:
            s += rel_sq
        scale = np.sqrt(np.einsum("bd,bd->b", q, q)) * r_max + n_max
        if c is not None:
            scale += c
        band = np.where(np.isfinite(2.0 * scale), 8.0 * g * scale + 8.0 * d * _ETA, np.inf)
    return s, band


def rank_all(entity, relation, word, packed, use_kg, use_text):
    """Raw rank of the true relation for each belief, as an int64 array.

    Equal, rank for rank, to `tie_ranks(relation_scores(...))`, but each
    block is scored with BLAS (`_gemm_scores`).  A row's rank is read from
    s~ when no candidate but the true one lies within the row's band of
    it: s~ then orders every candidate as the exact score does and no
    exact score ties the true one's, so the rank is 1 + #(s~ < s~_t).
    A `tme` row with q = 0 (an empty mention) and a finite band, which
    needs finite relation rows, scores every candidate +-0 exactly: all
    tie, so its rank is 1 + the true id, with no rescoring.  Every other row is rescored with
    the exact scorer in one call: rows with an inf band, and rows where a
    candidate besides the true one lies within the band.
    """
    _check_packed(entity, relation, word, packed, use_text)
    n = len(packed)
    d = relation.shape[1]
    ranks = np.empty(n, dtype=np.int64)
    rel_sq = np.einsum("rd,rd->r", relation, relation)
    add_sq = rel_sq if use_kg else None
    for lo in range(0, n, RANK_BLOCK):
        hi = min(lo + RANK_BLOCK, n)
        q, c = _queries(entity, word, packed, lo, hi, d, use_kg, use_text)
        true = packed.relations[lo:hi]
        s, band = _gemm_scores(q, c, relation, rel_sq, use_kg)
        with np.errstate(invalid="ignore"):
            s_true = s[np.arange(hi - lo), true]
            below = np.count_nonzero(s < (s_true - band)[:, None], axis=1)
            in_band = np.count_nonzero(s <= (s_true + band)[:, None], axis=1) - below
        finite = ~np.isinf(band)
        tied = finite & ~q.any(axis=1) & (not use_kg)
        exact = ((in_band > 1) | ~finite) & ~tied
        ranks[lo:hi] = np.where(tied, 1 + true, 1 + below)
        if exact.any():
            rows = np.flatnonzero(exact)
            rescored = _exact_scores(q[rows], None if c is None else c[rows], relation, add_sq)
            ranks[lo + rows] = tie_ranks(rescored, true[rows])
    return ranks


def top_relations(entity, relation, word, packed, use_kg, use_text, k):
    """(ids, scores) of the k best relations for each belief, two (n, k)
    arrays for k <= R: `ids = top_k(scores, k)` and the entries of
    `scores = relation_scores(...)` it names, bit for bit.

    The block is scored with BLAS (`_gemm_scores`), and a row keeps only
    the candidates with s~ <= (the row's k-th smallest s~) + band: any
    other candidate has k candidates strictly better than it in exact
    score, so it cannot be among the k first by (score, id).  The kept
    candidates are rescored with the exact scorer's fixed-order sum on
    gathered rows, which gives the bits of the full scorer, and ordered
    by (score, id).  Rows with an inf band, and rows that keep more than
    half the relations, such as `tme` rows with an empty mention, whose
    candidates all tie, take the exact scorer and `top_k` whole.
    """
    _check_packed(entity, relation, word, packed, use_text)
    n, (n_rel, d) = len(packed), relation.shape
    k = min(k, n_rel)
    ids = np.empty((n, k), dtype=np.int64)
    scores = np.empty((n, k))
    rel_sq = np.einsum("rd,rd->r", relation, relation)
    add_sq = rel_sq if use_kg else None
    q, c = _queries(entity, word, packed, 0, n, d, use_kg, use_text)
    s, band = _gemm_scores(q, c, relation, rel_sq, use_kg)
    with np.errstate(invalid="ignore"):
        kth = np.partition(s, k - 1, axis=1)[:, k - 1]
        keep = s <= (kth + band)[:, None]
    counts = np.count_nonzero(keep, axis=1)
    exact = np.isinf(band) | (2 * counts > n_rel)

    rows = np.flatnonzero(exact)
    if rows.size:
        full = _exact_scores(q[rows], None if c is None else c[rows], relation, add_sq)
        ids[rows] = top_k(full, k)
        scores[rows] = np.take_along_axis(full, ids[rows], axis=1)

    rows = np.flatnonzero(~exact)
    width = int(counts[rows].max(initial=1))
    # gather at most one relation table's worth of rows at a time
    step = max(1, n_rel // width)
    for lo in range(0, rows.size, step):
        sub = rows[lo : lo + step]
        # each row's kept ids, ascending, left-aligned; the rest of a row
        # is padding that scores inf, after the >= k kept candidates
        row, cand = np.nonzero(keep[sub])
        first = np.cumsum(counts[sub]) - counts[sub]
        gathered = np.zeros((sub.size, width), dtype=np.int64)
        gathered[row, np.arange(row.size) - first[row]] = cand
        part = np.einsum("nd,nkd->nk", q[sub], relation[gathered])
        if c is not None:
            part += c[sub][:, None]
            part += rel_sq[gathered]
        part[np.arange(width) >= counts[sub][:, None]] = np.inf
        top = top_k(part, k)
        ids[sub] = np.take_along_axis(gathered, top, axis=1)
        scores[sub] = np.take_along_axis(part, top, axis=1)
    return ids, scores
