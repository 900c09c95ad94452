"""Finite-difference machinery shared by the gradient tests."""

from jrme.config import variant_flags
from jrme.training import enum_negative_table
from reference import Belief, _hinge_terms, example_gradients, example_loss
from synth_data import make_vocab, random_table


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
    """Assert that `example_gradients` matches central differences of
    `example_loss` in every coordinate of every row it touches, to 1e-5
    relative or 1e-8 absolute, on one smooth example over a random
    6-entity, 5-relation, 7-word table of width dim.  Returns the worst
    error over its tolerance."""
    table = random_table(make_vocab(6, 5, 7), dim, rng, scale=0.8)
    margin = float(rng.choice([0.5, 1.0, 2.0]))
    b, negs = sample_smooth_example(rng, table, 5, 7, margin, variant)
    _, grads = example_gradients(table, b, negs, variant, margin)
    arrays = {kind: getattr(table, f"{kind}_vecs") for kind in ("entity", "relation", "word")}

    def loss_fn():
        return example_loss(table, b, negs, variant, margin)[0]

    worst = 0.0
    for (kind, idx), grad in grads.items():
        for coord in range(dim):
            fd = finite_difference(loss_fn, arrays[kind], idx, coord)
            a = grad[coord]
            err, tol = abs(a - fd), max(1e-5 * max(abs(a), abs(fd)), 1e-8)
            assert err <= tol, (variant, dim, kind, idx, coord, a, fd)
            worst = max(worst, err / tol)
    return worst
