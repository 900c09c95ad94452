"""Timing comparison: the C epoch kernel vs. the numpy twin, and ranking.

Runs one training epoch with each backend on a synthetic workload, once
with every other relation as a negative (`--neg all`) and once with
sampled negatives (`sample:K`), and reports best-of-N wall times.  Each
timed repeat starts from fresh copies of the same initial tables, made
outside the timed region, so every repeat does the same work.  Then it
times `rank_all` over the same beliefs for each variant, in µs per belief.
Last it times one `grid_search` in the shape of the benchmark's grid_dup
workload (16 points, 4 of them distinct, `--neg all`, the jrme variant)
and counts its `train` calls.

    python3 benchmarks/bench_kernels.py [--n 20000] [--dim 100] [--relations 200]
"""

import argparse
import time

import numpy as np

import jrme.training as training
from jrme.data import Belief, Dataset, Vocabulary
from jrme.embeddings import ModelConfig
from jrme.kernels import BACKEND, PackedBeliefs, _epoch_c, _epoch_numpy, enum_negative_table, rank_all
from jrme.training import VARIANTS, _sample_negative_rows, variant_flags

# grid_dup's corpus sizes, training settings and grid
GRID_SHAPE = dict(entities=240, relations=30, words=130, train=500, valid=500)
GRID_BASE = ModelConfig(learning_rate=0.005, epochs=2, neg_mode="all", seed=1)
GRID = ([20, 50], [0.5, 1.0], [0.5, 1.0], [1.0, 2.0])


def build_workload(n, n_entities, n_relations, n_words, dim, seed=0):
    rng = np.random.default_rng(seed)
    bound = 6.0 / np.sqrt(dim)
    entity = rng.uniform(-bound, bound, (n_entities, dim))
    entity /= np.linalg.norm(entity, axis=1, keepdims=True)
    relation = rng.uniform(-bound, bound, (n_relations, dim))
    word = rng.uniform(-bound, bound, (n_words, dim))

    heads = rng.integers(n_entities, size=n).astype(np.int64)
    tails = rng.integers(n_entities, size=n).astype(np.int64)
    rels = rng.integers(n_relations, size=n).astype(np.int64)
    lengths = rng.integers(0, 5, size=n)
    moff = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=moff[1:])
    mflat = rng.integers(n_words, size=int(moff[-1])).astype(np.int64)
    packed = PackedBeliefs(heads, rels, tails, moff, mflat)
    order = rng.permutation(n).astype(np.int64)
    return (entity, relation, word), packed, order, rng


def best_epoch(impl, tables, epoch_args, repeat):
    times = []
    for _ in range(repeat):
        copies = tuple(t.copy() for t in tables)
        t0 = time.perf_counter()
        impl(*copies, *epoch_args)
        times.append(time.perf_counter() - t0)
    return min(times)


def best_rank(tables, packed, variant, repeat):
    args = (
        packed.heads, packed.relations, packed.tails, packed.mention_off, packed.mention_flat,
        *variant_flags(variant),
    )
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        rank_all(*tables, *args)
        times.append(time.perf_counter() - t0)
    return min(times)


def grid_dataset(entities, relations, words, train, valid, seed=0):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary.from_names(
        [f"e{i}" for i in range(entities)],
        [f"r{i}" for i in range(relations)],
        [f"w{i}" for i in range(words)],
    )
    beliefs = [
        Belief(int(h), int(r), int(t), (int(r), int(w)))
        for h, r, t, w in zip(
            rng.integers(entities, size=train + valid),
            rng.integers(relations, size=train + valid),
            rng.integers(entities, size=train + valid),
            rng.integers(relations, words, size=train + valid),
        )
    ]
    pack = PackedBeliefs.from_beliefs
    return Dataset(pack(beliefs[:train]), valid=pack(beliefs[train:])), vocab


def best_grid(dataset, vocab, repeat):
    """Best-of-N seconds of one grid_search and the train calls it made."""
    real_train = training.train
    calls = []

    def counting_train(*args, **kwargs):
        calls.append(args[2])
        return real_train(*args, **kwargs)

    times = []
    training.train = counting_train
    try:
        for _ in range(repeat):
            calls.clear()
            t0 = time.perf_counter()
            training.grid_search(dataset, vocab, *GRID, GRID_BASE, "jrme")
            times.append(time.perf_counter() - t0)
    finally:
        training.train = real_train
    return min(times), len(calls)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=20000)
    ap.add_argument("--dim", type=int, default=100)
    ap.add_argument("--entities", type=int, default=2000)
    ap.add_argument("--relations", type=int, default=200)
    ap.add_argument("--words", type=int, default=500)
    ap.add_argument("--sample", type=int, default=10, help="K for the sample:K rows")
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    tables, packed, order, rng = build_workload(
        args.n, args.entities, args.relations, args.words, args.dim
    )
    neg_modes = {
        "all": (enum_negative_table(args.relations), True),
        f"sample:{args.sample}": (
            _sample_negative_rows(packed.relations[order], args.relations, args.sample, rng),
            False,
        ),
    }
    impls = {"numpy": _epoch_numpy}
    if BACKEND == "c":
        impls["c"] = _epoch_c
    else:
        print("the C kernel did not build; timing the numpy twin only")

    rows = []
    for neg, (negs, by_relation) in neg_modes.items():
        epoch_args = (
            packed.heads, packed.relations, packed.tails,
            packed.mention_off, packed.mention_flat,
            order, negs, by_relation, 0.01, 1.0, True, True, True,
        )
        for backend, impl in impls.items():
            rows.append((neg, backend, best_epoch(impl, tables, epoch_args, args.repeat)))

    print(
        f"\nbackend: {BACKEND}\nworkload: n={args.n} dim={args.dim} entities={args.entities} "
        f"relations={args.relations} words={args.words} (best of {args.repeat})"
    )
    print(f"{'neg':<12}{'backend':<9}{'seconds':>10}{'examples/s':>12}")
    for neg, backend, secs in rows:
        print(f"{neg:<12}{backend:<9}{secs:>10.3f}{args.n / secs:>12.0f}")
    if "c" in impls:
        for neg in neg_modes:
            t = {backend: secs for k, backend, secs in rows if k == neg}
            print(f"{neg}: C is {t['numpy'] / t['c']:.1f}x faster")

    print(f"\n{'rank_all':<12}{'seconds':>10}{'us/belief':>12}")
    for variant in VARIANTS:
        secs = best_rank(tables, packed, variant, args.repeat)
        print(f"{variant:<12}{secs:>10.3f}{secs / args.n * 1e6:>12.1f}")

    dataset, vocab = grid_dataset(**GRID_SHAPE)
    points = np.prod([len(v) for v in GRID])
    distinct = len(GRID[0]) * len(GRID[3])
    secs, calls = best_grid(dataset, vocab, args.repeat)
    print(f"\n{'grid_search':<12}{'points':>8}{'distinct':>10}{'train calls':>13}{'seconds':>10}")
    print(f"{'jrme':<12}{points:>8}{distinct:>10}{calls:>13}{secs:>10.3f}")


if __name__ == "__main__":
    main()
