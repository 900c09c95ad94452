"""Finite-difference machinery shared by the gradient tests."""

from jrme.data import Belief
from jrme.kernels import enum_negative_table
from jrme.training import _hinge_terms, variant_flags


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
