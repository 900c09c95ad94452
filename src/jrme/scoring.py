"""Reference scoring functions.

These are the plain-numpy definitions of the model: the structured
distance between a relation and an entity pair and the mention distance
between a relation and a bag of words.  Training and ranking kernels
must agree with these on every input; the tests hold them to that.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .embeddings import EmbeddingTable


def _check_id(i: int, vecs: np.ndarray, kind: str) -> None:
    # Negative ids would silently index from the end of the table.
    if not 0 <= i < len(vecs):
        raise IndexError(f"{kind} id {i} out of range [0, {len(vecs)})")


def triple_distance(table: EmbeddingTable, head: int, relation: int, tail: int) -> float:
    """Squared Euclidean length of head + relation - tail.

    Zero means the relation vector translates the head exactly onto the
    tail; larger is worse.
    """
    _check_id(head, table.entity_vecs, "entity")
    _check_id(tail, table.entity_vecs, "entity")
    _check_id(relation, table.relation_vecs, "relation")
    diff = table.entity_vecs[head] + table.relation_vecs[relation] - table.entity_vecs[tail]
    return float(diff @ diff)


def mention_vector(table: EmbeddingTable, words: Sequence[int]) -> np.ndarray:
    """Sum of word vectors, with multiplicity: a repeated id counts twice.

    The empty mention is the zero vector.
    """
    m = np.zeros(table.relation_vecs.shape[1], dtype=np.float64)
    for w in words:
        _check_id(w, table.word_vecs, "word")
        m += table.word_vecs[w]
    return m


def mention_distance(table: EmbeddingTable, relation: int, words: Sequence[int]) -> float:
    """Negative inner product of the relation vector with the mention vector.

    More aligned mentions give lower (better) values; the empty mention
    scores exactly 0 for every relation.
    """
    _check_id(relation, table.relation_vecs, "relation")
    return float(-(table.relation_vecs[relation] @ mention_vector(table, words)))

