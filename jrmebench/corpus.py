"""Seeded synthetic belief corpora with a signal every variant can learn.

Entities fall into clusters (entity e is in cluster e % clusters).  Each
relation links one head cluster to another tail cluster, and no two
relations link the same pair, so (head, tail) names the relation: that is
the translation structure the graph term learns.  Every seed gives the
same structure up to a relabelling of clusters and relations, so work and
quality vary little between seeds.  A mention carries its relation's marker word most of the
time, a wrong relation's marker sometimes, and one or two Zipf-distributed
noise words: that is the signal the text term learns.  10% of tails are
random entities.

The first `entities` training beliefs name every entity as a head, every
relation and every word at least once, so the vocabulary sizes are the
spec's for every seed and no held-out line is rejected.  The same
(spec, seed) always gives byte-identical files.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

P_MARKER = 0.75
P_WRONG_MARKER = 0.10
P_RANDOM_TAIL = 0.10
ZIPF_A = 1.3


@dataclass(frozen=True)
class CorpusSpec:
    entities: int
    relations: int
    clusters: int
    noise_words: int
    train: int
    valid: int = 0
    test: int = 0
    queries: int = 0

    def __post_init__(self):
        if self.entities % self.clusters:
            raise ValueError("entities must be a multiple of clusters")
        if not self.clusters <= self.relations <= min(self.entities, self.clusters * (self.clusters - 1)):
            raise ValueError("need clusters <= relations <= min(entities, clusters * (clusters - 1))")
        if self.noise_words > self.entities or self.train < self.entities:
            raise ValueError("need noise_words <= entities <= train")

    @property
    def words(self) -> int:
        return self.relations + self.noise_words

    def sizes(self) -> dict:
        return {**asdict(self), "words": self.words}


def _mentions(rng, spec, rels, cover_noise=None):
    """Mention text per relation id.  With cover_noise (one noise word id
    per row) the row always has its own marker and that noise word."""
    n = rels.shape[0]
    u = rng.random(n)
    wrong = rng.integers(spec.relations, size=n)
    marker = np.where(u < P_MARKER, rels, np.where(u < P_MARKER + P_WRONG_MARKER, wrong, -1))
    noise = rng.zipf(ZIPF_A, size=(n, 2)) % spec.noise_words
    if cover_noise is not None:
        marker = rels
        noise[:, 0] = cover_noise
    n_noise = rng.integers(1, 3, size=n)
    out = []
    for i in range(n):
        words = [f"w{x}" for x in noise[i, : n_noise[i]]]
        if marker[i] >= 0:
            words.insert(int(i % (len(words) + 1)), f"m{marker[i]}")
        out.append(" ".join(words))
    return out


def generate(spec: CorpusSpec, seed: int) -> dict:
    """Split name -> list of TSV lines (without newlines)."""
    rng = np.random.default_rng(seed)
    c = spec.clusters
    per_cluster = spec.entities // c
    # slot k links cluster k % c to (k % c + 1 + k // c) % c: distinct pairs,
    # every cluster heads a relation; relations and clusters are relabelled
    slot = rng.permutation(spec.relations)
    label = rng.permutation(c)
    head_cluster = label[slot % c]
    tail_cluster = label[(slot % c + 1 + slot // c) % c]

    def tails_for(rels):
        t = tail_cluster[rels] + c * rng.integers(per_cluster, size=rels.shape[0])
        random_tail = rng.random(rels.shape[0]) < P_RANDOM_TAIL
        return np.where(random_tail, rng.integers(spec.entities, size=rels.shape[0]), t)

    def draw(n):
        rels = rng.integers(spec.relations, size=n)
        heads = head_cluster[rels] + c * rng.integers(per_cluster, size=n)
        return heads, rels, tails_for(rels)

    # coverage prefix: entity e heads a relation of its own cluster, cycling
    # through that cluster's relations, and always carries its marker
    heads = np.arange(spec.entities)
    by_cluster = [np.flatnonzero(head_cluster == k) for k in range(c)]
    rels = np.array([by_cluster[e % c][(e // c) % by_cluster[e % c].size] for e in heads])
    tails = tails_for(rels)
    mentions = _mentions(rng, spec, rels, cover_noise=heads % spec.noise_words)
    h2, r2, t2 = draw(spec.train - spec.entities)
    heads, rels, tails = (np.concatenate(p) for p in ((heads, h2), (rels, r2), (tails, t2)))
    mentions += _mentions(rng, spec, r2)
    order = rng.permutation(spec.train)
    splits = {
        "train": [f"e{heads[i]}\tr{rels[i]}\te{tails[i]}\t{mentions[i]}" for i in order]
    }
    for name in ("valid", "test", "queries"):
        n = getattr(spec, name)
        if not n:
            continue
        h, r, t = draw(n)
        m = _mentions(rng, spec, r)
        if name == "queries":
            splits[name] = [f"e{h[i]}\te{t[i]}\t{m[i]}" for i in range(n)]
        else:
            splits[name] = [f"e{h[i]}\tr{r[i]}\te{t[i]}\t{m[i]}" for i in range(n)]
    return splits


def write(spec: CorpusSpec, seed: int, outdir: Path) -> dict:
    """Write each split to outdir/<split>.tsv; return split name -> path."""
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, lines in generate(spec, seed).items():
        path = outdir / f"{name}.tsv"
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        paths[name] = path
    return paths
