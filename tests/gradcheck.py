"""The gradient check: each epoch kernel's step on one example, held to
central differences of `reference.example_loss`."""

import copy

import numpy as np

from jrme.config import variant_flags
from jrme.training import BACKEND, _epoch_c, _epoch_numpy, enum_negative_table
from reference import Belief, _hinge_terms, example_loss, pack
from synth_data import make_vocab, random_table

# the numpy twin always, the C kernel where it built
KERNELS = {"numpy": _epoch_numpy, **({"c": _epoch_c} if BACKEND == "c" else {})}
LR = 1e-3


def finite_difference(loss_fn, arr, idx, coord, eps=1e-6):
    orig = arr[idx, coord]
    arr[idx, coord] = orig + eps
    up = loss_fn()
    arr[idx, coord] = orig - eps
    down = loss_fn()
    arr[idx, coord] = orig
    return (up - down) / (2.0 * eps)


def sample_smooth_example(rng, table, n_rel, n_words, margin, variant, kink_gap=1e-4):
    """Random belief whose hinge terms all sit clear of the boundary, so
    central differences never straddle a kink."""
    use_kg, use_text = variant_flags(variant)
    neg_table = enum_negative_table(n_rel)
    for _ in range(200):
        r = int(rng.integers(n_rel))
        h = int(rng.integers(len(table.entity_vecs)))
        t = int(rng.integers(len(table.entity_vecs)))
        if h == t:
            continue
        mention = tuple(int(w) for w in rng.integers(n_words, size=rng.integers(4)))
        b = Belief(h, r, t, mention)
        negs = neg_table[r]
        terms = [term for _, term in _hinge_terms(table, b, negs, margin, use_kg, use_text)]
        if all(abs(term) > kink_gap for term in terms):
            return b, negs
    raise AssertionError("could not sample an example away from hinge kinks")


def check_gradients(rng, variant, dim):
    """Check every kernel of `KERNELS` on one smooth example over a random
    6-entity, 5-relation, 7-word table of width dim.  One step with
    normalisation off must move each row the example reads (h and t under
    the graph term, r and its negatives, the mention's words under the
    text term) by -LR times central differences of `example_loss`, to
    1e-5 relative or 1e-8 absolute, leave every other row bit-identical,
    and report `example_loss`'s loss to 1e-12 relative.  Returns the worst
    error over its tolerance."""
    table = random_table(make_vocab(6, 5, 7), dim, rng, scale=0.8)
    margin = float(rng.choice([0.5, 1.0, 2.0]))
    b, negs = sample_smooth_example(rng, table, 5, 7, margin, variant)
    use_kg, use_text = variant_flags(variant)
    read = {
        "entity": {b.head, b.tail} if use_kg else set(),
        "relation": {b.relation, *map(int, negs)},
        "word": set(b.mention) if use_text else set(),
    }
    arrays = {kind: getattr(table, f"{kind}_vecs") for kind in read}

    def loss_fn():
        return example_loss(table, b, negs, variant, margin)[0]

    loss_ref = loss_fn()
    fd = {
        (kind, idx): np.array([finite_difference(loss_fn, arr, idx, c) for c in range(dim)])
        for kind, arr in arrays.items() for idx in read[kind]
    }

    worst = 0.0
    for name, epoch in KERNELS.items():
        after = copy.deepcopy(table)
        loss, _, bad = epoch(
            after.entity_vecs, after.relation_vecs, after.word_vecs, pack([b]),
            np.zeros(1, dtype=np.int64), negs.reshape(1, -1), False, LR, margin,
            use_kg, use_text, False,
        )
        assert bad == -1, name
        assert abs(loss - loss_ref) <= 1e-12 * abs(loss_ref), (name, variant, loss, loss_ref)
        for kind, ids in read.items():
            new = getattr(after, f"{kind}_vecs")
            others = [i for i in range(len(new)) if i not in ids]
            assert np.array_equal(new[others], arrays[kind][others]), (name, variant, kind)
            for idx in ids:
                step = (arrays[kind][idx] - new[idx]) / LR
                err = np.abs(step - fd[kind, idx])
                tol = np.maximum(1e-5 * np.maximum(np.abs(step), np.abs(fd[kind, idx])), 1e-8)
                assert (err <= tol).all(), (name, variant, dim, kind, idx, step, fd[kind, idx])
                worst = max(worst, float((err / tol).max()))
    return worst
