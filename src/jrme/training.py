"""Margin-ranking SGD for the three model variants.

Variants select which distance terms enter the per-negative hinge:

    kre    alpha + D_r(h,r,t) - D_r(h,r',t)
    tme    beta  + D_m(r,m)   - D_m(r',m)
    jrme   gamma + D_r(h,r,t) - D_r(h,r',t) + D_m(r,m) - D_m(r',m)

with one shared corrupt relation r' per term and [x]_+ around each.
`kernels.run_epoch` applies it; `tests/reference.py` holds the reference.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from itertools import product
from typing import NamedTuple

import numpy as np

from .config import _SEED_MASK, ModelConfig, parse_neg_mode, variant_flags, variant_margin
from .data import Dataset, Vocabulary
from .embeddings import EmbeddingTable, init_embeddings
from .errors import ConfigError, DataError, TrainingDivergedError
from .kernels import enum_negative_table, run_epoch

# Rows start with norm at most 6 and a healthy mean loss stays within a
# few thousand; an epoch that ends with the mean loss or any row norm past
# this has overshot and is growing geometrically, so training stops.
DIVERGENCE_LIMIT = 1e6


def step_bound(config: ModelConfig, n_relations: int) -> float:
    """Learning rate times the corrupt relations each example scores.

    The positive relation's step is 2*lr*a*(h+r-t) for a active
    negatives, so once this product exceeds 1 that step can overshoot
    and the row can grow geometrically instead of converging.
    """
    mode, k = parse_neg_mode(config.neg_mode)
    return config.learning_rate * (n_relations - 1 if mode == "all" else k)


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
    by one.
    """
    if k > n_relations - 1:
        raise ConfigError(
            f"cannot sample {k} distinct negatives from {n_relations - 1} other relations"
        )
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
    if len(vocab.relations) < 2:
        raise ConfigError("need at least 2 relations to build corrupt triples")
    if n_threads < 1:
        raise ConfigError(f"n_threads must be >= 1, got {n_threads}")

    table = init_embeddings(vocab, config)
    n = len(packed)
    n_rel = len(vocab.relations)
    mode, k = parse_neg_mode(config.neg_mode)
    by_relation = mode == "all"
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


def grid_configs(base: ModelConfig, dims, alphas, betas, gammas) -> list[ModelConfig]:
    """One config per (dim, alpha, beta, gamma) point, in lexicographic
    order of the deduplicated values, every other field from `base`.

    Building a config validates it, so a bad value in any list fails
    here, before a file is read or a point trains.
    """
    dims, alphas, betas, gammas = (sorted(set(v)) for v in (dims, alphas, betas, gammas))
    if not (dims and alphas and betas and gammas):
        raise ConfigError("grid search needs at least one value per hyperparameter")
    return [
        base._replace(dim=d, alpha=a, beta=b, gamma=g)
        for d, a, b, g in product(dims, alphas, betas, gammas)
    ]


def grid_search(
    dataset: Dataset,
    vocab: Vocabulary,
    configs,
    variant: str,
    n_threads: int = 1,
):
    """Evaluate every config of `grid_configs` on the validation split
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
