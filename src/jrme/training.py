"""Margin-ranking SGD for the three model variants, and its epoch kernels.

Variants select which distance terms enter the per-negative hinge:

    kre    alpha + D_r(h,r,t) - D_r(h,r',t)
    tme    beta  + D_m(r,m)   - D_m(r',m)
    jrme   gamma + D_r(h,r,t) - D_r(h,r',t) + D_m(r,m) - D_m(r',m)

with one shared corrupt relation r' per term and [x]_+ around each.
`run_epoch` applies it; `tests/reference.py` holds the reference.

The epoch kernel lives in `_epoch.c`.  Importing this module chooses the
backend, once: it compiles the kernel with the system C compiler into the
per-user cache (`jrme._cache_dir`, through `jrme.atomic_write`), or loads
it from there, with ctypes, which releases the GIL, so training shards
run on real threads.  When there is no compiler, the build fails, or
there is no cache, it cannot be written or other users can write it, the
vectorized numpy twin runs instead and one stderr line says so.
`BACKEND` names the one in use, "c" or "numpy", and `run_epoch` is that
kernel; concurrent first imports build it once, under the import lock.
Either kernel checks every id it reads (the beliefs', the example order's
and the negative table's) before it writes a row (`_check_epoch_ids`).

Precondition on every negative table: each row holds distinct ids, none
of them its example's relation, as `train` builds.  Nothing checks it
(that would sort every table on every epoch).  The twin is also the
reference the tests hold the C kernel to: on such a table the two may
differ in the last float bits (summation order), never in semantics.  On
any other table they may differ: for a repeated id the twin scores both
copies against the pre-step row and applies one update, the C kernel
scores the second copy after the first one's update.
"""

from __future__ import annotations

import ctypes
import math
import os
import sys
import time
from contextlib import nullcontext
from importlib.util import source_hash
from typing import NamedTuple

import numpy as np

from . import _cache_dir, atomic_write
from .config import _SEED_MASK, ModelConfig, negatives_per_example, variant_flags, variant_margin
from .data import Dataset, Vocabulary
from .embeddings import EmbeddingTable, init_embeddings
from .errors import ConfigError, DataError, TrainingDivergedError
from .kernels import _check_ids

_SOURCE = os.path.join(os.path.dirname(__file__), "_epoch.c")
# IEEE semantics on every host: no -march=native, no -ffast-math (which
# would break isfinite), no fused multiply-add
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
_PTR = ctypes.c_void_p


def _load_epoch_kernel():
    """Build `_epoch.c` once per (source, flags, interpreter) into the
    cache, named by `source_hash` as cached bytecode is, and load it.

    `cc` writes the library through `atomic_write`, so concurrent first
    runs never load a half-written file.
    """
    with open(_SOURCE, "rb") as f:
        source = f.read()
    key = source_hash(source + " ".join(_CFLAGS).encode()).hex()
    lib_path = os.path.join(_cache_dir(), f"epoch-{key}.so")
    if not os.path.exists(lib_path):
        import subprocess  # only a cache miss pays for it

        try:
            with atomic_write(lib_path, "wb") as tmp:
                subprocess.run(
                    ["cc", *_CFLAGS, "-o", tmp.name, "-x", "c", "-", "-lm"],
                    input=source, check=True, capture_output=True, timeout=300,
                )
        except subprocess.SubprocessError as e:
            raise OSError(f"cc failed: {e}") from None
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


def enum_negative_table(n_relations: int) -> np.ndarray:
    """Row r lists every relation id except r, ascending: the ids below
    n_relations - 1, shifted up by one from r on, as sampled rows are."""
    ids = np.arange(n_relations - 1, dtype=np.int64)
    return ids + (ids >= np.arange(n_relations)[:, None])


# --- training epoch -------------------------------------------------------
#
# run_epoch(entity, relation, word, packed, order, neg_table,
#           neg_by_relation, lr, margin, use_kg, use_text, normalize)
# is one pass of hinge SGD over the beliefs of `packed` in `order`,
# updating the three tables in place.  Example order[pos] takes its
# negatives from row r of `neg_table` (its relation) when neg_by_relation,
# else from row pos.  It returns (loss_sum: float, active_term_count: int,
# bad_index: int); bad_index is the first example whose step produced a
# non-finite value, -1 when clean.  The negative rows must meet the
# precondition in the module docstring.  The update rule is documented in
# _epoch.c, whose score() gives the true relation and each negative
# ||h + r - t||^2 - r.m.  _epoch_numpy is its vectorized twin: one
# expression scores the rows [r, *negatives] the same way.  _epoch_c
# guards the pointers handed to the C kernel.


def _epoch_numpy(
    entity, relation, word, packed, order, neg_table, neg_by_relation, lr, margin,
    use_kg, use_text, normalize,
):
    _check_epoch_ids(entity, relation, word, packed, order, neg_table, neg_by_relation, use_text)
    heads, rels, tails = packed.heads, packed.relations, packed.tails
    moff, mflat = packed.mention_off, packed.mention_flat
    loss_sum, active_sum = 0.0, 0
    for pos in range(order.shape[0]):
        i = int(order[pos])
        h, r, t = int(heads[i]), int(rels[i]), int(tails[i])
        negs = neg_table[r] if neg_by_relation else neg_table[pos]
        rows = relation[np.concatenate(([r], negs))]  # a copy: the pre-step rows
        diff = entity[h] + rows - entity[t]
        s = np.einsum("ij,ij->i", diff, diff) if use_kg else np.zeros(rows.shape[0])
        if use_text:
            ids = mflat[moff[i] : moff[i + 1]]
            m = word[ids].sum(axis=0)
            s -= rows @ m
        terms = margin + s[0] - s[1:]
        act = terms > 0.0
        a = int(np.count_nonzero(act))
        loss_i = float(terms[act].sum())

        if a:
            wc = rows[1:][act].sum(axis=0) - a * rows[0]
            # r is not among its negatives and the active negatives are
            # distinct, so plain fancy indexing writes each row once per term
            if use_kg:
                relation[negs[act]] += lr * 2.0 * diff[1:][act]
                relation[r] -= lr * 2.0 * a * diff[0]
            if use_text:
                relation[negs[act]] -= lr * m
                relation[r] += lr * a * m
            if use_kg and h != t:
                entity[h] += lr * 2.0 * wc
                entity[t] -= lr * 2.0 * wc
                if normalize:
                    for e in (h, t):
                        nrm = float(np.linalg.norm(entity[e]))
                        if nrm > 0.0:
                            entity[e] /= nrm
            if use_text:
                np.subtract.at(word, ids, lr * wc)

        loss_sum += loss_i
        active_sum += a
        bad = not np.isfinite(loss_i) or not np.isfinite(relation[r]).all()
        if use_kg and not bad:
            bad = not np.isfinite(entity[h]).all()
        if bad:
            return loss_sum, active_sum, i
    return loss_sum, active_sum, -1


def _check_epoch_ids(entity, relation, word, packed, order, neg_table, neg_by_relation,
                     use_text) -> None:
    """IndexError unless every row an epoch reads exists: each id of
    `packed` (mentions only with use_text) and `order`, and a negative table
    of relation ids, a row per relation (per example without neg_by_relation).
    It checks ranges only, not the module docstring's negative-row
    precondition.
    """
    n_rel = relation.shape[0]
    rows = n_rel if neg_by_relation else order.shape[0]
    if neg_table.shape[0] < rows:
        raise IndexError(f"negative table has {neg_table.shape[0]} rows, needs {rows}")
    _check_ids("example index", order, len(packed))
    _check_ids("negative relation id", neg_table, n_rel)
    _check_ids("entity id", packed.heads, entity.shape[0])
    _check_ids("entity id", packed.tails, entity.shape[0])
    _check_ids("relation id", packed.relations, n_rel)
    if use_text:
        _check_ids("mention offset", packed.mention_off, packed.mention_flat.shape[0] + 1)
        _check_ids("word id", packed.mention_flat, word.shape[0])


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


try:
    _jrme_epoch = _load_epoch_kernel()
except OSError as e:
    print(f"jrme: C epoch kernel unavailable ({e}); using the numpy twin", file=sys.stderr)
    BACKEND, run_epoch = "numpy", _epoch_numpy
else:
    BACKEND, run_epoch = "c", _epoch_c


# Rows start with norm at most 6 and a healthy mean loss stays within a
# few thousand; an epoch that ends with the mean loss or any row norm past
# this has overshot and is growing geometrically, so training stops.
DIVERGENCE_LIMIT = 1e6


class EpochReport(NamedTuple):
    epoch: int
    loss: float
    active: int
    seconds: float = 0.0
    max_norm: float = 0.0

    def line(self) -> str:
        return f"epoch={self.epoch} loss={self.loss!r} active={self.active}"


def max_row_norm(table: EmbeddingTable) -> float:
    """Largest Euclidean row norm over the entity, relation and word tables;
    nan when any of them holds a nan (numpy's max propagates it, Python's
    `max(1.0, nan)` would return 1.0)."""
    return math.sqrt(np.max([
        np.einsum("ij,ij->i", vecs, vecs).max(initial=0.0)
        for vecs in (table.entity_vecs, table.relation_vecs, table.word_vecs)
    ]))


def _sample_negative_rows(rels, n_relations, k, rng):
    """k distinct corrupt relations per example; each row a uniform draw.

    Rows are drawn whole from the n_relations - 1 other ids and redrawn
    while they hold a duplicate.  When a row is unlikely to come out
    distinct, so that rejection would draw more numbers per row than a
    shuffle of all the ids, each row instead takes the first k ids of a
    random order.  Ids at or above the row's own relation then shift up
    by one.  k is at most n_relations - 1 (`negatives_per_example`).
    """
    n, m = rels.shape[0], n_relations - 1
    p_distinct = np.prod(1.0 - np.arange(k) / m)
    if k <= m * p_distinct:
        rows = rng.integers(0, m, size=(n, k), dtype=np.int64)
        redo = np.arange(n)
        while redo.size:
            s = np.sort(rows[redo], axis=1)
            redo = redo[(s[:, 1:] == s[:, :-1]).any(axis=1)]
            rows[redo] = rng.integers(0, m, size=(redo.size, k), dtype=np.int64)
    else:
        rows = np.argsort(rng.random((n, m)), axis=1)[:, :k]
    return rows + (rows >= rels[:, None])


def train(
    dataset: Dataset,
    vocab: Vocabulary,
    config: ModelConfig,
    variant: str,
    n_threads: int = 1,
    log=None,
):
    """Initialize tables and run the full SGD schedule over the packed
    `dataset.train`, writing one `EpochReport.line()` per epoch to `log`
    (a text stream) unless it is None.

    Single-threaded runs are a deterministic function of (seed, config,
    dataset, variant).  With n_threads > 1, each epoch's visiting order
    is split into contiguous shards updated lock-free on real threads;
    races are benign for convergence but bit-reproducibility is gone.

    Raises TrainingDivergedError when an epoch leaves a non-finite value,
    or a mean loss or row norm above DIVERGENCE_LIMIT.
    """
    use_kg, use_text = variant_flags(variant)
    margin = variant_margin(variant, config)
    packed = dataset.train
    if not packed:
        raise DataError("training split is empty")
    k = negatives_per_example(config, len(vocab.relations))
    if n_threads < 1:
        raise ConfigError(f"n_threads must be >= 1, got {n_threads}")

    table = init_embeddings(vocab, config)
    n = len(packed)
    n_rel = len(vocab.relations)
    by_relation = config.neg_mode == "all"
    if by_relation:
        neg_table = enum_negative_table(n_rel)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed & _SEED_MASK, spawn_key=(1,)))
    # contiguous shards of each epoch's order, one per thread; the calling
    # thread runs the first, so a single shard needs no pool
    bounds = np.linspace(0, n, n_threads + 1).astype(np.int64)
    shards = [(int(lo), int(hi)) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    if len(shards) > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=len(shards) - 1)
    else:
        pool = nullcontext()

    def shard_args(lo, hi):
        return (
            table.entity_vecs, table.relation_vecs, table.word_vecs,
            packed, order[lo:hi], neg_table if by_relation else neg_table[lo:hi],
            by_relation, config.learning_rate, margin, use_kg, use_text,
            config.normalize_entities,
        )

    reports = []
    with pool:
        for epoch in range(config.epochs):
            t0 = time.perf_counter()
            order = rng.permutation(n).astype(np.int64)
            if not by_relation:
                neg_table = _sample_negative_rows(packed.relations[order], n_rel, k, rng)
            jobs = [pool.submit(run_epoch, *shard_args(lo, hi)) for lo, hi in shards[1:]]
            parts = [run_epoch(*shard_args(*shards[0]))] + [j.result() for j in jobs]
            for _, _, bad in parts:
                if bad >= 0:
                    raise TrainingDivergedError(
                        f"non-finite value at epoch {epoch}, training example {bad} "
                        f"(head={packed.heads[bad]}, relation={packed.relations[bad]}, "
                        f"tail={packed.tails[bad]})"
                    )
            report = EpochReport(
                epoch, sum(p[0] for p in parts) / n, sum(p[1] for p in parts),
                time.perf_counter() - t0, max_row_norm(table),
            )
            if not (report.loss <= DIVERGENCE_LIMIT and report.max_norm <= DIVERGENCE_LIMIT):
                raise TrainingDivergedError(
                    f"training diverged at epoch {epoch}: mean loss {report.loss:.3g}, "
                    f"largest row norm {report.max_norm:.3g} (limit {DIVERGENCE_LIMIT:g}); "
                    f"lower the learning rate"
                )
            reports.append(report)
            if log is not None:
                print(report.line(), file=log, flush=True)
    return table, reports


def grid_search(
    dataset: Dataset,
    vocab: Vocabulary,
    configs,
    variant: str,
    n_threads: int = 1,
):
    """Evaluate every config of `config.grid_configs` on the validation split
    and return `(points, best)`.

    `points` holds one `(config, report)` pair per config, in order.  A
    variant reads one margin (`variant_margin`), so configs that differ
    only in margins the variant ignores train the same model: each
    distinct (dim, margin) is trained and evaluated once, and its points
    share that report.

    `best` is the point with the lowest average rank, ties broken by
    higher Hit@10, then higher Hit@1, then by the earlier point: `min`
    keeps the first of equal keys, which in `grid_configs` order is the
    lexicographically smaller (dim, alpha, beta, gamma).
    """
    from .evaluation import evaluate

    if not dataset.valid:
        raise DataError("grid search needs a non-empty validation split")

    reports = {}
    points = []
    for config in configs:
        effective = (config.dim, variant_margin(variant, config))
        if effective not in reports:
            table, _ = train(dataset, vocab, config, variant, n_threads=n_threads)
            reports[effective] = evaluate(table, dataset.valid, variant)
        points.append((config, reports[effective]))
    best = min(points, key=lambda p: (p[1].avg_rank, -p[1].hit_at_10, -p[1].hit_at_1))
    return points, best
