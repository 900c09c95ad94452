"""The reference semantics the engine is held to, and the helpers the test
modules share.

The model one example at a time, in plain numpy: the triple distance
||h + r - t||^2, the mention distance -r.m, and the per-negative hinge loss
of `jrme.training`.  No command runs them; the kernels must agree with
them on every input, and each epoch kernel's step must be the gradient of
`example_loss` (`gradcheck`).  A `Belief` is one example as a frozen
tuple of ids; `pack` turns a list of them into the kernels'
`PackedBeliefs`, and `belief_at` reads one back.
"""

from __future__ import annotations

import json
import math
import os
import struct
import subprocess
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import jrme
from jrme.config import variant_flags
from jrme.data import PackedBeliefs
from jrme.embeddings import EmbeddingTable
from jrme.errors import ConfigError
from jrme.evaluation import candidate_scores
from jrme.training import BACKEND

needs_c = pytest.mark.skipif(BACKEND != "c", reason="the C kernel did not build here")

pack = PackedBeliefs.from_beliefs


@dataclass(frozen=True)
class Belief:
    """One (head, relation, tail) triple plus its mention word ids."""

    head: int
    relation: int
    tail: int
    mention: tuple[int, ...] = ()


def belief_at(packed: PackedBeliefs, i: int) -> Belief:
    """Belief i of `packed`; a negative i counts from the end."""
    i = range(len(packed))[i]
    words = packed.mention_flat[packed.mention_off[i] : packed.mention_off[i + 1]]
    return Belief(
        int(packed.heads[i]), int(packed.relations[i]), int(packed.tails[i]),
        tuple(int(w) for w in words),
    )


def unpack(packed: PackedBeliefs) -> list[Belief]:
    return [belief_at(packed, i) for i in range(len(packed))]


def random_beliefs(rng, n, n_entities, n_relations, n_words, max_mention=3):
    """n uniform beliefs, each with 0..max_mention mention words."""
    return [
        Belief(
            int(rng.integers(n_entities)),
            int(rng.integers(n_relations)),
            int(rng.integers(n_entities)),
            tuple(int(w) for w in rng.integers(n_words, size=rng.integers(max_mention + 1))),
        )
        for _ in range(n)
    ]


def table_from(entities, relations, words):
    return EmbeddingTable(
        np.asarray(entities, dtype=np.float64),
        np.asarray(relations, dtype=np.float64),
        np.asarray(words, dtype=np.float64),
    )


def tables_equal(a, b):
    """Whether two tables hold equal entity, relation and word arrays."""
    return all(
        np.array_equal(getattr(a, f"{kind}_vecs"), getattr(b, f"{kind}_vecs"))
        for kind in ("entity", "relation", "word")
    )


# --- scoring --------------------------------------------------------------


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


# --- hinge loss -----------------------------------------------------------


def _hinge_terms(table, belief, negatives, margin, use_kg, use_text):
    """Yield (negative id, hinge argument) per negative, pre-step values."""
    h, r, t = belief.head, belief.relation, belief.tail
    dr_pos = triple_distance(table, h, r, t) if use_kg else 0.0
    dm_pos = mention_distance(table, r, belief.mention) if use_text else 0.0
    for rp in negatives:
        rp = int(rp)
        term = margin
        if use_kg:
            term = term + dr_pos - triple_distance(table, h, rp, t)
        if use_text:
            term = term + dm_pos - mention_distance(table, rp, belief.mention)
        yield rp, term


def example_loss(table, belief, negatives, variant, margin):
    """Hinge loss of one example over its corrupt relations under a variant.

    Returns (loss, active ids); a term exactly at the margin boundary
    is inactive and contributes nothing.
    """
    if len(negatives) == 0:
        raise ConfigError("example loss needs at least one negative")
    use_kg, use_text = variant_flags(variant)
    active = []
    terms = []
    for rp, term in _hinge_terms(table, belief, negatives, margin, use_kg, use_text):
        if term > 0.0:
            active.append(rp)
            terms.append(term)
    return math.fsum(terms), active


# --- ranking --------------------------------------------------------------


def oracle_rank(scores, true_id):
    """1-indexed position of the true id in the stable argsort of the
    scores: by (score, relation id), nan after every number, as `predict`
    orders candidates."""
    order = np.argsort(np.asarray(scores), kind="stable")
    return int(np.flatnonzero(order == true_id)[0]) + 1


def oracle_ranks(table, beliefs, variant):
    """`oracle_rank` of each belief's true relation among the
    `candidate_scores` of its (head, tail, mention)."""
    return [
        oracle_rank(candidate_scores(table, b.head, b.tail, b.mention, variant), b.relation)
        for b in beliefs
    ]


# --- files and child interpreters ----------------------------------------


def edit_header(path, edit):
    """Rewrite a model file's JSON header in place through edit(header)."""
    blob = path.read_bytes()
    (n,) = struct.unpack("<Q", blob[6:14])
    header = json.loads(blob[14 : 14 + n])
    edit(header)
    new = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")
    path.write_bytes(blob[:6] + struct.pack("<Q", len(new)) + new + blob[14 + n :])


def child_env(PYTHONPATH=None, **extra):
    """os.environ plus `extra` for a child interpreter that must import the
    same jrme the suite imported, installed or run from src/: its package
    directory goes first on the path, after a PYTHONPATH given here.
    PYTHONUNBUFFERED is unset, so the child's stdout is block-buffered, as
    outside a terminal."""
    pkg_root = str(Path(jrme.__file__).resolve().parents[1])
    path = [PYTHONPATH, pkg_root, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), **extra)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def run_python(*args, ok=True, cwd=None, stdout=subprocess.PIPE, **env):
    """`[sys.executable, *args]` run to its end with `child_env(**env)`,
    its output captured as text unless `stdout` is given; returns the
    finished process, which must exit 0 when `ok`.  A child still running
    after two minutes, say one opening a FIFO no one writes, is killed and
    fails the test."""
    proc = subprocess.run([sys.executable, *map(str, args)], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=child_env(**env), cwd=cwd,
                          timeout=120)
    assert proc.returncode == 0 or not ok, proc.stderr
    return proc
