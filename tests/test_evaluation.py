import copy

import numpy as np
import pytest

from jrme.embeddings import EmbeddingTable
from jrme.errors import DataError
from jrme.evaluation import (
    EvalReport,
    candidate_scores,
    evaluate,
    format_report,
    summarize_ranks,
    write_ranks_tsv,
)
from jrme.config import variant_flags
from jrme.kernels import RANK_BLOCK, queries, rank_all, relation_scores, top_relations
from reference import Belief, oracle_rank, oracle_ranks, pack, random_beliefs
from synth_data import make_vocab, random_table


class TestSummarize:
    def test_fixed_multiset_is_exact(self):
        avg, hit10, hit1 = summarize_ranks([1, 3, 20])
        assert avg == 8.0
        assert hit10 == 2 / 3
        assert hit1 == 1 / 3

    def test_single_perfect_rank(self):
        assert summarize_ranks([1]) == (1.0, 1.0, 1.0)

    def test_boundary_rank_10_counts_as_hit(self):
        _, hit10, _ = summarize_ranks([10, 11])
        assert hit10 == 0.5

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            summarize_ranks([])


def rank_of(table, belief, variant):
    """The rank `evaluate` gives one belief's true relation."""
    (rank,) = evaluate(table, pack([belief]), variant).ranks
    return rank


class TestRankTrueRelation:
    """The rank `evaluate` gives the true relation, against the stable sort
    of `candidate_scores`."""

    def test_middle_scoring_truth_ranks_second(self):
        # three relations scoring 0.2 / 0.5 / 0.1 with truth first: rank 2
        t = EmbeddingTable(
            np.zeros((1, 1)),
            np.array([[np.sqrt(0.2)], [np.sqrt(0.5)], [np.sqrt(0.1)]]),
            np.zeros((1, 1)),
        )
        b = Belief(0, 0, 0, ())
        scores = candidate_scores(t, 0, 0, (), "kre")
        np.testing.assert_allclose(scores, [0.2, 0.5, 0.1])
        assert oracle_rank(list(scores), 0) == 2
        assert rank_of(t, b, "kre") == 2

    def test_strictly_best_is_rank_1(self, rng):
        vocab = make_vocab(5, 6, 4)
        t = random_table(vocab, 3, rng)
        b = Belief(0, 2, 1, (0,))
        # make the true relation an exact translation with a strongly
        # aligned mention word: strictly best on both terms
        t.relation_vecs[2] = t.entity_vecs[1] - t.entity_vecs[0]
        t.word_vecs[0] = 100.0 * t.relation_vecs[2]
        assert rank_of(t, b, "jrme") == 1

    def test_id_bounds_checked(self, rng):
        vocab = make_vocab(3, 2, 2)
        t = random_table(vocab, 3, rng)
        bits = [a.tobytes() for a in (t.entity_vecs, t.relation_vecs, t.word_vecs)]
        # a negative id would index from the end of its table; each ranker
        # refuses it before reading a row and writes no table
        for belief, variant in [
            (Belief(3, 0, 0, ()), "kre"), (Belief(-1, 0, 0, ()), "kre"),
            (Belief(0, 0, 3, ()), "jrme"), (Belief(0, 0, -1, ()), "jrme"),
            (Belief(0, 2, 0, ()), "kre"), (Belief(0, -1, 0, ()), "kre"),
            (Belief(0, 0, 0, (-1,)), "tme"),
        ]:
            packed = pack([belief])
            blocks = lambda: queries(t.entity_vecs, t.word_vecs, packed, *variant_flags(variant))
            calls = [lambda: evaluate(t, packed, variant),
                     lambda: rank_all(blocks(), t.relation_vecs, packed.relations)]
            if 0 <= belief.relation < 2:  # only rank_all reads a line's relation
                calls += [lambda: top_relations(blocks(), t.relation_vecs, 1),
                          lambda: relation_scores(blocks(), t.relation_vecs)]
            for call in calls:
                with pytest.raises(IndexError):
                    call()
                assert [a.tobytes() for a in (t.entity_vecs, t.relation_vecs, t.word_vecs)] == bits
        with pytest.raises(IndexError):
            candidate_scores(t, 3, 0, (), "kre")
        with pytest.raises(IndexError):
            candidate_scores(t, 0, 0, (5,), "tme")

    def test_nan_scores_rank_after_every_number(self, rng):
        # every relation row nan, so every score is nan and ranks follow
        # ids, as in the stable argsort that predict takes its top k from
        t = random_table(make_vocab(5, 4, 3), 3, rng)
        t.relation_vecs[:] = np.nan
        beliefs = pack([Belief(0, 2, 1, (0,)), Belief(1, 0, 2, ()), Belief(3, 3, 4, (1, 2))])
        for variant in ("kre", "tme", "jrme"):
            assert evaluate(t, beliefs, variant) == EvalReport(8 / 3, 1.0, 1 / 3, (3, 1, 4))


class TestEvaluate:
    def _setup(self, rng, n=40, n_rel=9):
        vocab = make_vocab(6, n_rel, 5)
        t = random_table(vocab, 4, rng)
        beliefs = random_beliefs(rng, n, 6, n_rel, 5)
        return t, beliefs

    def test_report_matches_per_belief_ranks(self, rng):
        # more than two ranking blocks, the last one partial
        t, beliefs = self._setup(rng, n=2 * RANK_BLOCK + 13)
        for variant in ("kre", "tme", "jrme"):
            report = evaluate(t, pack(beliefs), variant)
            expected = oracle_ranks(t, beliefs, variant)
            assert report.ranks == tuple(expected)
            assert all(type(r) is int for r in report.ranks)
            avg, hit10, hit1 = summarize_ranks(expected)
            assert (report.avg_rank, report.hit_at_10, report.hit_at_1) == (avg, hit10, hit1)

    def test_invariant_bounds(self, rng):
        t, beliefs = self._setup(rng)
        report = evaluate(t, pack(beliefs), "jrme")
        assert report.hit_at_1 <= report.hit_at_10
        assert 1.0 <= report.avg_rank <= len(t.relation_vecs)
        assert report.n_examples == len(beliefs)

    def test_rank_does_not_depend_on_block_position(self, rng):
        t, beliefs = self._setup(rng, n=2 * RANK_BLOCK + 5)
        for variant in ("kre", "tme", "jrme"):
            whole = evaluate(t, pack(beliefs), variant).ranks
            # shifting the split moves every belief to another block offset
            for skip in (1, RANK_BLOCK - 1, RANK_BLOCK + 3):
                tail = evaluate(t, pack(beliefs[skip:]), variant).ranks
                assert tail == whole[skip:]

    def test_kre_ignores_word_table_and_tme_ignores_entities(self, rng):
        t, beliefs = self._setup(rng)
        base_kre = evaluate(t, pack(beliefs), "kre")
        base_tme = evaluate(t, pack(beliefs), "tme")
        scrambled = copy.deepcopy(t)
        scrambled.word_vecs += rng.normal(size=t.word_vecs.shape)
        assert evaluate(scrambled, pack(beliefs), "kre") == base_kre
        scrambled = copy.deepcopy(t)
        scrambled.entity_vecs += rng.normal(size=t.entity_vecs.shape)
        assert evaluate(scrambled, pack(beliefs), "tme") == base_tme

    def test_empty_split_rejected(self, rng):
        t, _ = self._setup(rng)
        with pytest.raises(DataError):
            evaluate(t, pack([]), "jrme")


class TestReportOutput:
    def test_format_contains_metrics_and_kv_block(self):
        report = EvalReport(6.2, 0.878, 0.602, (1,) * 5)
        text = format_report(report, "JRME")
        assert "approach" in text and "JRME" in text
        assert "6.20" in text
        assert "87.8%" in text and "60.2%" in text
        assert "avg_rank=6.2" in text
        assert "hit_at_10=0.878" in text
        assert "n_examples=5" in text

    def test_ranks_tsv_round_trip(self, rng, tmp_path):
        vocab = make_vocab(4, 5, 3)
        t = random_table(vocab, 3, rng)
        beliefs = random_beliefs(rng, 12, 4, 5, 3)
        report = evaluate(t, pack(beliefs), "jrme")
        path = tmp_path / "ranks.tsv"
        write_ranks_tsv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "index\trank"
        parsed = [tuple(int(v) for v in line.split("\t")) for line in lines[1:]]
        assert parsed == list(enumerate(report.ranks))

