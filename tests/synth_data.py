"""Synthetic datasets with known structure, shared across tests.

Three constructions:

* text signal: each relation has a marker word that always appears in
  its mentions, so mentions alone identify the relation.
* graph signal: entities sit on an integer grid and each relation is a
  fixed 2-D offset, so (head, tail) alone identifies the relation and
  the structure is exactly translation-consistent.
* mixed signal: half the relations carry only the text signal, half
  only the graph signal.
"""

import numpy as np

from jrme.data import Dataset, Vocabulary
from reference import Belief, pack


def make_vocab(n_entities, n_relations, n_words):
    return Vocabulary(
        [f"e{i}" for i in range(n_entities)],
        [f"r{i}" for i in range(n_relations)],
        [f"w{i}" for i in range(n_words)],
    )


def random_table(vocab, dim, rng, scale=1.0):
    from jrme.embeddings import EmbeddingTable

    return EmbeddingTable(
        rng.normal(0.0, scale, (len(vocab.entities), dim)),
        rng.normal(0.0, scale, (len(vocab.relations), dim)),
        rng.normal(0.0, scale, (len(vocab.words), dim)),
    )


def _split(beliefs, holdout, rng):
    beliefs = list(beliefs)
    order = rng.permutation(len(beliefs))
    n_valid = int(round(len(beliefs) * holdout))
    valid = [beliefs[i] for i in order[:n_valid]]
    train = [beliefs[i] for i in order[n_valid:]]
    return Dataset(pack(train), valid=pack(valid))


def text_signal_dataset(n_beliefs=2000, n_relations=20, n_entities=100,
                        n_noise_words=5, holdout=0.2, seed=0):
    """Mentions contain a marker word unique to the relation plus one
    noise word; (head, tail) pairs are uninformative."""
    rng = np.random.default_rng(seed)
    vocab = make_vocab(n_entities, n_relations, n_relations + n_noise_words)
    beliefs = []
    for _ in range(n_beliefs):
        r = int(rng.integers(n_relations))
        h, t = (int(v) for v in rng.integers(n_entities, size=2))
        noise = n_relations + int(rng.integers(n_noise_words))
        beliefs.append(Belief(h, r, t, (r, noise)))
    return _split(beliefs, holdout, rng), vocab


def _grid_offsets(n_relations, rng):
    # distinct nonzero small offsets; (dx, dy) resolvable from any (h, t)
    offsets = []
    for dx in range(-2, 3):
        for dy in range(-2, 3):
            if (dx, dy) != (0, 0):
                offsets.append((dx, dy))
    pick = rng.permutation(len(offsets))[:n_relations]
    return [offsets[i] for i in pick]


def graph_signal_dataset(side=12, n_relations=20, holdout=0.2, seed=0):
    """Entities are cells of a side x side grid, relations are distinct
    2-D offsets, and every in-bounds (cell, cell+offset) pair is a
    belief with an empty mention."""
    rng = np.random.default_rng(seed)
    vocab = make_vocab(side * side, n_relations, 1)
    offsets = _grid_offsets(n_relations, rng)
    beliefs = []
    for r, (dx, dy) in enumerate(offsets):
        for x in range(side):
            for y in range(side):
                nx, ny = x + dx, y + dy
                if 0 <= nx < side and 0 <= ny < side:
                    beliefs.append(Belief(x * side + y, r, nx * side + ny, ()))
    return _split(beliefs, holdout, rng), vocab


def mixed_signal_dataset(side=10, n_text_relations=10, n_graph_relations=10,
                         n_text_beliefs=1000, holdout=0.2, seed=0):
    """Relations 0..n_text-1 are identified only by a marker word (their
    graph pairs are random); the rest are identified only by grid
    offsets (their mentions are empty)."""
    rng = np.random.default_rng(seed)
    n_entities = side * side
    n_relations = n_text_relations + n_graph_relations
    vocab = make_vocab(n_entities, n_relations, n_text_relations + 3)
    beliefs = []
    for _ in range(n_text_beliefs):
        r = int(rng.integers(n_text_relations))
        h, t = (int(v) for v in rng.integers(n_entities, size=2))
        noise = n_text_relations + int(rng.integers(3))
        beliefs.append(Belief(h, r, t, (r, noise)))
    offsets = _grid_offsets(n_graph_relations, rng)
    for j, (dx, dy) in enumerate(offsets):
        r = n_text_relations + j
        for x in range(side):
            for y in range(side):
                nx, ny = x + dx, y + dy
                if 0 <= nx < side and 0 <= ny < side:
                    beliefs.append(Belief(x * side + y, r, nx * side + ny, ()))
    return _split(beliefs, holdout, rng), vocab
