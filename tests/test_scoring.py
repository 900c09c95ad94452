import numpy as np
import pytest

from jrme.evaluation import candidate_scores
from reference import Belief, mention_distance, mention_vector, table_from, triple_distance


class TestTripleDistance:
    def test_exact_translation_scores_zero(self):
        t = table_from([[1.0, 0.0], [1.0, 1.0]], [[0.0, 1.0]], [[0.0, 0.0]])
        assert triple_distance(t, 0, 0, 1) == 0.0

    def test_hand_value(self):
        # h + r - t = (2, -1), squared norm 5
        t = table_from([[1.0, 1.0], [0.0, 3.0]], [[1.0, 1.0]], [[0.0, 0.0]])
        assert triple_distance(t, 0, 0, 1) == pytest.approx(5.0)

    def test_nonnegative_and_zero_iff_translation(self, rng):
        t = table_from(rng.normal(size=(6, 4)), rng.normal(size=(3, 4)), rng.normal(size=(2, 4)))
        for _ in range(50):
            h, tl = rng.integers(6, size=2)
            r = int(rng.integers(3))
            d = triple_distance(t, int(h), r, int(tl))
            assert d >= 0.0
            match = np.allclose(t.entity_vecs[h] + t.relation_vecs[r], t.entity_vecs[tl])
            assert (d < 1e-12) == match

    def test_translation_invariance(self, rng):
        ents = rng.normal(size=(4, 5))
        rels = rng.normal(size=(2, 5))
        t = table_from(ents, rels, np.zeros((1, 5)))
        shift = rng.normal(size=5)
        t2 = table_from(ents + shift, rels, np.zeros((1, 5)))
        for h in range(4):
            for tl in range(4):
                assert triple_distance(t, h, 1, tl) == pytest.approx(
                    triple_distance(t2, h, 1, tl)
                )

    def test_out_of_range_ids_raise(self):
        t = table_from(np.zeros((2, 2)), np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.raises(IndexError):
            triple_distance(t, -1, 0, 0)
        with pytest.raises(IndexError):
            triple_distance(t, 0, 1, 0)
        with pytest.raises(IndexError):
            triple_distance(t, 0, 0, 2)


class TestMentionVector:
    def test_empty_mention_is_zero(self):
        t = table_from(np.zeros((1, 3)), np.zeros((1, 3)), np.ones((2, 3)))
        assert (mention_vector(t, ()) == 0.0).all()

    def test_multiset_semantics(self):
        t = table_from(np.zeros((1, 2)), np.zeros((1, 2)), [[1.0, 2.0], [10.0, 0.0]])
        np.testing.assert_array_equal(mention_vector(t, (0, 0)), [2.0, 4.0])
        np.testing.assert_array_equal(mention_vector(t, (0, 1, 0)), [12.0, 4.0])

    def test_permutation_invariant(self, rng):
        t = table_from(np.zeros((1, 4)), np.zeros((1, 4)), rng.normal(size=(5, 4)))
        words = [int(w) for w in rng.integers(5, size=6)]
        a = mention_vector(t, words)
        b = mention_vector(t, list(reversed(words)))
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_word_id_out_of_range(self):
        t = table_from(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((2, 2)))
        with pytest.raises(IndexError):
            mention_vector(t, (2,))


class TestMentionDistance:
    def test_hand_value(self):
        # r = (1, 0), m = (0, 5): inner product 0, distance -0 = 0
        # r = (1, 1), m = (0, 5): inner product 5, distance -5
        t = table_from(np.zeros((1, 2)), [[1.0, 0.0], [1.0, 1.0]], [[0.0, 5.0]])
        assert mention_distance(t, 0, (0,)) == 0.0
        assert mention_distance(t, 1, (0,)) == -5.0

    def test_empty_mention_scores_zero_for_any_relation(self, rng):
        t = table_from(np.zeros((1, 3)), rng.normal(size=(4, 3)), rng.normal(size=(2, 3)))
        for r in range(4):
            assert mention_distance(t, r, ()) == 0.0

    def test_additive_in_mention_multiset(self, rng):
        t = table_from(np.zeros((1, 4)), rng.normal(size=(2, 4)), rng.normal(size=(6, 4)))
        m1 = [0, 3, 3]
        m2 = [5, 1]
        total = mention_distance(t, 1, m1 + m2)
        split = mention_distance(t, 1, m1) + mention_distance(t, 1, m2)
        assert total == pytest.approx(split, rel=1e-12)


class TestBeliefScore:
    """A belief's joint score, its relation's entry in the jrme
    `candidate_scores` row, is the sum of the two reference distances."""

    def test_sum_of_parts(self, rng):
        t = table_from(rng.normal(size=(4, 3)), rng.normal(size=(3, 3)), rng.normal(size=(5, 3)))
        b = Belief(1, 2, 3, (0, 4, 4))
        expected = triple_distance(t, 1, 2, 3) + mention_distance(t, 2, b.mention)
        score = candidate_scores(t, b.head, b.tail, b.mention, "jrme")[b.relation]
        assert score == pytest.approx(expected, rel=1e-12)

    def test_empty_mention_reduces_to_triple_distance(self, rng):
        t = table_from(rng.normal(size=(4, 3)), rng.normal(size=(3, 3)), rng.normal(size=(5, 3)))
        joint = candidate_scores(t, 0, 2, (), "jrme")
        assert joint.tobytes() == candidate_scores(t, 0, 2, (), "kre").tobytes()
        assert joint[1] == pytest.approx(triple_distance(t, 0, 1, 2), rel=1e-12)

    def test_triple_17_mention_minus_11_combine_to_6(self):
        r_val = 1.0 + np.sqrt(17.0)
        t = table_from([[0.0], [1.0]], [[r_val]], [[11.0 / r_val]])
        assert triple_distance(t, 0, 0, 1) == pytest.approx(17.0)
        assert mention_distance(t, 0, (0,)) == pytest.approx(-11.0)
        assert candidate_scores(t, 0, 1, (0,), "jrme")[0] == pytest.approx(6.0)
