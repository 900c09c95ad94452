"""Timing comparison: the C epoch kernel vs. the numpy twin, and ranking.

Runs one training epoch with each backend on a synthetic workload, once
with every other relation as a negative (`--neg all`) and once with
sampled negatives (`sample:K`), and reports best-of-N wall times.  Each
timed repeat starts from fresh copies of the same initial tables, made
outside the timed region, so every repeat does the same work.  Then it
times `rank_all` (BLAS scores with an error band) over the same beliefs
for each variant, in µs per belief, next to the exact scorer alone, once
more with a fifth of the relation rows forced equal, where it also counts
the rows rescored exactly, and `jrme predict` on 1000 queries.  Last it
times one `grid_search` in the shape of the benchmark's grid_dup workload
(16 points, 4 of them distinct, `--neg all`, the jrme variant) and counts
its `train` calls.

    python3 benchmarks/bench_kernels.py [--n 20000] [--dim 100] [--relations 200]
"""

import argparse
import contextlib
import io
import tempfile
import time
from pathlib import Path

import numpy as np

import jrme.kernels as kernels
import jrme.training as training
from jrme.cli import main as cli_main
from jrme.data import Belief, Dataset, Vocabulary
from jrme.embeddings import EmbeddingTable, ModelConfig, save_model
from jrme.kernels import (
    BACKEND, RANK_BLOCK, PackedBeliefs, _epoch_c, _epoch_numpy, enum_negative_table, rank_all,
    relation_scores, tie_ranks,
)
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


def rank_exact(entity, relation, word, packed, use_kg, use_text):
    """rank_all without the band: every block through the exact scorer."""
    ranks = np.empty(len(packed), dtype=np.int64)
    for lo in range(0, len(packed), RANK_BLOCK):
        hi = lo + RANK_BLOCK
        rels = packed.relations[lo:hi]
        block = PackedBeliefs(packed.heads[lo:hi], rels, packed.tails[lo:hi],
                              packed.mention_off[lo : hi + 1], packed.mention_flat)
        scores = relation_scores(entity, relation, word, block, use_kg, use_text)
        ranks[lo:hi] = tie_ranks(scores, rels)
    return ranks


def best_rank(rank, tables, packed, variant, repeat):
    """Best-of-N seconds of rank(...) and the rows it rescored exactly."""
    args = (packed, *variant_flags(variant))
    real_exact = kernels._exact_scores
    rescored = []

    def counting_exact(q, *rest):
        rescored.append(q.shape[0])
        return real_exact(q, *rest)

    times = []
    kernels._exact_scores = counting_exact
    try:
        for _ in range(repeat):
            rescored.clear()
            t0 = time.perf_counter()
            ranks = rank(*tables, *args)
            times.append(time.perf_counter() - t0)
    finally:
        kernels._exact_scores = real_exact
    return min(times), sum(rescored), ranks


def best_predict(tables, n_queries, repeat, seed=0):
    """Best-of-N seconds of `jrme predict --topk 10` on n_queries lines."""
    entity, relation, word = tables
    vocab = Vocabulary.from_names(
        [f"e{i}" for i in range(len(entity))],
        [f"r{i}" for i in range(len(relation))],
        [f"w{i}" for i in range(len(word))],
    )
    rng = np.random.default_rng(seed)
    lines = [
        f"e{h}\te{t}\t" + " ".join(f"w{w}" for w in rng.integers(len(word), size=3))
        for h, t in rng.integers(len(entity), size=(n_queries, 2))
    ]
    times = []
    with tempfile.TemporaryDirectory() as tmp:
        model, queries = Path(tmp) / "model.bin", Path(tmp) / "queries.tsv"
        save_model(EmbeddingTable(entity, relation, word), vocab,
                   ModelConfig(dim=entity.shape[1]), model, "jrme")
        queries.write_text("\n".join(lines) + "\n")
        argv = ["predict", "--model", str(model), "--input", str(queries), "--topk", "10"]
        for _ in range(repeat):
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                cli_main(argv)
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
        epoch_args = (packed, order, negs, by_relation, 0.01, 1.0, True, True, True)
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

    entity, relation, word = tables
    tied = relation.copy()
    tied[::5] = tied[0]
    cases = [("", tables), (" tied", (entity, tied, word))]
    print(f"\n{'rank':<12}{'banded us/belief':>18}{'exact us/belief':>17}{'rescored':>10}")
    for variant in VARIANTS:
        for label, case in cases:
            secs, rescored, ranks = best_rank(rank_all, case, packed, variant, args.repeat)
            exact, _, expected = best_rank(rank_exact, case, packed, variant, args.repeat)
            if not np.array_equal(ranks, expected):
                raise SystemExit(f"{variant}{label}: rank_all disagrees with the exact scorer")
            print(f"{variant + label:<12}{secs / args.n * 1e6:>18.1f}"
                  f"{exact / args.n * 1e6:>17.1f}{rescored:>10}")

    n_queries = 1000
    secs = best_predict(tables, n_queries, args.repeat)
    print(f"\n{'predict':<12}{'queries':>8}{'seconds':>10}{'us/query':>10}")
    print(f"{'jrme':<12}{n_queries:>8}{secs:>10.3f}{secs / n_queries * 1e6:>10.1f}")

    dataset, vocab = grid_dataset(**GRID_SHAPE)
    points = np.prod([len(v) for v in GRID])
    distinct = len(GRID[0]) * len(GRID[3])
    secs, calls = best_grid(dataset, vocab, args.repeat)
    print(f"\n{'grid_search':<12}{'points':>8}{'distinct':>10}{'train calls':>13}{'seconds':>10}")
    print(f"{'jrme':<12}{points:>8}{distinct:>10}{calls:>13}{secs:>10.3f}")


if __name__ == "__main__":
    main()
